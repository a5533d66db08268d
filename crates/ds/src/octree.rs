//! An oct-tree — host of the paper's one *poorly disguised* bug.

use crate::fault_ids::OCTREE_ALIAS_SUBTREE;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process};

/// Node layout: `[0..64] = 8 child pointers, [64..] = payload`.
const CHILD_STRIDE: u64 = 8;
const NODE_SIZE: usize = 80;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        build: func("SimOctTree::build"),
        expand: func("SimOctTree::expand"),
        touch_all: func("SimOctTree::touch_all"),
        free_all: func("SimOctTree::free_all"),
    }
}

/// A fixed-depth oct-tree built during program startup.
///
/// In a clean oct-tree every non-root vertex has indegree exactly 1, so
/// the *indegree = 1* percentage sits near 100 %. The paper describes a
/// "mistake in an oct-tree construction routine that produced an
/// oct-DAG instead": subtrees get aliased, shared children acquire
/// indegree 8, and the indegree = 1 percentage drops to — and stays at —
/// the minimum of its calibrated range for the rest of the run. That is
/// the *poorly disguised* class (§4.3). Enable [`OCTREE_ALIAS_SUBTREE`]
/// to reproduce it.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimOctTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let tree = SimOctTree::build(&mut p, &mut plan, 3, "world")?;
/// // depth 3: 1 + 8 + 64 + 512 nodes
/// assert_eq!(tree.node_count(), 585);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimOctTree {
    root: Addr,
    nodes: Vec<Addr>,
    site: AllocSite,
    fns: Fns,
}

impl SimOctTree {
    /// Builds a complete oct-tree of the given depth (depth 0 = a lone
    /// root).
    ///
    /// Fault hook [`OCTREE_ALIAS_SUBTREE`]: when it fires at a
    /// child-creation site, children 1–7 alias child 0's subtree instead
    /// of being allocated — producing an oct-DAG.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn build(
        p: &mut Process,
        plan: &mut FaultPlan,
        depth: usize,
        site: &str,
    ) -> Result<Self, HeapError> {
        SimOctTree::build_with_fault(p, plan, depth, site, OCTREE_ALIAS_SUBTREE)
    }

    /// Like [`build`](Self::build), with a per-instance fault id for
    /// the subtree-aliasing call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn build_with_fault(
        p: &mut Process,
        plan: &mut FaultPlan,
        depth: usize,
        site: &str,
        fault: FaultId,
    ) -> Result<Self, HeapError> {
        let fns = Fns::new(p);
        let site = p.site(&format!("{site}::octree_node"));
        p.enter(fns.build);
        let root = p.malloc(NODE_SIZE, site)?;
        let mut tree = SimOctTree {
            root,
            nodes: vec![root],
            site,
            fns,
        };
        tree.expand(p, plan, root, depth, fault)?;
        p.leave();
        Ok(tree)
    }

    fn expand(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        node: Addr,
        depth: usize,
        fault: FaultId,
    ) -> Result<(), HeapError> {
        if depth == 0 {
            return Ok(());
        }
        p.enter(self.fns.expand);
        let alias = plan.fires(fault);
        let first = p.malloc(NODE_SIZE, self.site)?;
        self.nodes.push(first);
        p.write_ptr(node, first)?; // child slot 0
        self.expand(p, plan, first, depth - 1, fault)?;
        for i in 1..8u64 {
            let slot = node.offset(i * CHILD_STRIDE);
            if alias {
                // The oct-DAG bug: reuse child 0's subtree.
                p.write_ptr(slot, first)?;
            } else {
                let child = p.malloc(NODE_SIZE, self.site)?;
                self.nodes.push(child);
                p.write_ptr(slot, child)?;
                self.expand(p, plan, child, depth - 1, fault)?;
            }
        }
        p.leave();
        Ok(())
    }

    /// The root node.
    pub fn root(&self) -> Addr {
        self.root
    }

    /// Number of allocated nodes (a DAG allocates far fewer than a tree
    /// of the same depth).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Touches every allocated node (read traffic).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.touch_all);
        for &n in &self.nodes {
            p.read(n)?;
        }
        p.leave();
        Ok(())
    }

    /// Frees every allocated node, consuming the tree.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for &n in self.nodes.iter().rev() {
            p.free(n)?;
        }
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(10_000).build().unwrap())
    }

    #[test]
    fn clean_tree_has_indeg1_everywhere_but_root() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let t = SimOctTree::build(&mut p, &mut plan, 2, "t").unwrap();
        assert_eq!(t.node_count(), 73); // 1 + 8 + 64
        let m = p.graph().metrics();
        let expect = 72.0 / 73.0 * 100.0;
        assert!((m.get(MetricKind::Indeg1) - expect).abs() < 1e-9);
        p.graph().validate().unwrap();
    }

    #[test]
    fn oct_dag_fault_collapses_indeg1_percentage() {
        let mut p = process();
        let mut plan = FaultPlan::single(OCTREE_ALIAS_SUBTREE);
        let t = SimOctTree::build(&mut p, &mut plan, 3, "t").unwrap();
        // Every level aliases: only one real child per level → 4 nodes.
        assert_eq!(t.node_count(), 4);
        let m = p.graph().metrics();
        // Shared children have indegree 8: indeg=1 drops to 0.
        assert_eq!(m.get(MetricKind::Indeg1), 0.0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn depth_zero_is_single_root() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let t = SimOctTree::build(&mut p, &mut plan, 0, "t").unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(p.graph().edge_count(), 0);
    }

    #[test]
    fn touch_and_free_round_trip() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let t = SimOctTree::build(&mut p, &mut plan, 2, "t").unwrap();
        t.touch_all(&mut p).unwrap();
        t.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn dag_free_does_not_double_free() {
        let mut p = process();
        let mut plan = FaultPlan::single(OCTREE_ALIAS_SUBTREE);
        let t = SimOctTree::build(&mut p, &mut plan, 4, "t").unwrap();
        // nodes only holds allocated (not aliased) children, so freeing
        // by the allocation list is safe even for the DAG.
        t.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
    }
}
