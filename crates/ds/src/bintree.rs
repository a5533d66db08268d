//! A binary search tree with parent pointers — the Figure 10 structure.

use crate::fault_ids::{BINTREE_SINGLE_CHILD, BINTREE_SKIP_PARENT};
use faults::{FaultId, FaultPlan};
use fxhash::FxHashMap;
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};

/// Node layout: `[0] = left, [8] = right, [16] = parent, [24] = key`.
const LEFT: u64 = 0;
const RIGHT: u64 = 8;
const PARENT: u64 = 16;
const NODE_SIZE: usize = 32;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        insert: func("SimBinTree::insert"),
        contains: func("SimBinTree::contains"),
        pop_leaf: func("SimBinTree::pop_leaf"),
        check: func("SimBinTree::check"),
        touch_all: func("SimBinTree::touch_all"),
        depth: func("SimBinTree::depth"),
        free_all: func("SimBinTree::free_all"),
    }
}

/// A binary search tree whose nodes carry parent pointers.
///
/// In a clean tree every non-root vertex has indegree ≥ 2 (the parent's
/// child slot plus the node's own children pointing back via `parent`
/// is the *parent's* indegree — precisely: a node's indegree is 1 for
/// the incoming child slot plus one per child's `parent` pointer). The
/// bug HeapMD found in the PC Game (action) program — "newly-inserted
/// tree nodes … missing parent pointers from their children" — leaves
/// affected vertexes at indegree 1, pushing the *indegree = 1*
/// percentage out of its calibrated range (Figure 10). Enable
/// [`BINTREE_SKIP_PARENT`] to reproduce it; enable
/// [`BINTREE_SINGLE_CHILD`] for the Figure 9 indirect bug (every vertex
/// one child).
///
/// Keys are shadowed on the Rust side for navigation; all structural
/// pointers live on the simulated heap.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimBinTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut tree = SimBinTree::new(&mut p, "scene");
/// for key in [50, 30, 70, 20, 40, 60, 80] {
///     tree.insert(&mut p, &mut plan, key)?;
/// }
/// assert_eq!(tree.len(), 7);
/// assert_eq!(tree.count_parent_pointer_violations(&mut p)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimBinTree {
    root: Addr,
    /// Node keys. An unkeyed hasher makes the iteration order (and so
    /// `touch_all`'s reads) depend only on the operations applied.
    keys: FxHashMap<Addr, u64>,
    len: usize,
    site: AllocSite,
    fns: Fns,
    fault_skip_parent: FaultId,
    fault_single_child: FaultId,
}

impl SimBinTree {
    /// Creates an empty tree, interning its names in `p`.
    pub fn new(p: &mut Process, site: &str) -> Self {
        SimBinTree::with_faults(p, site, BINTREE_SKIP_PARENT, BINTREE_SINGLE_CHILD)
    }

    /// Creates an empty tree with per-instance fault ids for its two
    /// buggy call-sites.
    pub fn with_faults(
        p: &mut Process,
        site: &str,
        skip_parent: FaultId,
        single_child: FaultId,
    ) -> Self {
        SimBinTree {
            root: NULL,
            keys: FxHashMap::default(),
            len: 0,
            site: p.site(&format!("{site}::tree_node")),
            fns: Fns::new(p),
            fault_skip_parent: skip_parent,
            fault_single_child: single_child,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root node (null when empty).
    pub fn root(&self) -> Addr {
        self.root
    }

    /// Inserts `key` (duplicates descend right).
    ///
    /// Fault hooks:
    /// * [`BINTREE_SKIP_PARENT`] — the new node's `parent` pointer is
    ///   not written (Figure 10's bug);
    /// * [`BINTREE_SINGLE_CHILD`] — navigation ignores the key and
    ///   always descends left, degenerating the tree (Figure 9).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn insert(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        key: u64,
    ) -> Result<Addr, HeapError> {
        p.enter(self.fns.insert);
        let node = p.malloc(NODE_SIZE, self.site)?;
        p.write_scalar(node.offset(24))?; // key payload
        self.keys.insert(node, key);
        if self.root.is_null() {
            self.root = node;
            self.len += 1;
            p.leave();
            return Ok(node);
        }
        let force_left = plan.fires(self.fault_single_child);
        let mut cur = self.root;
        loop {
            p.read(cur)?;
            let cur_key = self.keys[&cur];
            let go_left = force_left || key < cur_key;
            let slot = if go_left { LEFT } else { RIGHT };
            match p.read_ptr(cur.offset(slot))? {
                Some(child) => cur = child,
                None => {
                    p.write_ptr(cur.offset(slot), node)?;
                    if !plan.fires(self.fault_skip_parent) {
                        p.write_ptr(node.offset(PARENT), cur)?;
                    }
                    break;
                }
            }
        }
        self.len += 1;
        p.leave();
        Ok(node)
    }

    /// Looks a key up, touching the nodes on the search path.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn contains(&self, p: &mut Process, key: u64) -> Result<bool, HeapError> {
        p.enter(self.fns.contains);
        let mut cur = self.root;
        let mut found = false;
        while !cur.is_null() {
            p.read(cur)?;
            let cur_key = self.keys[&cur];
            if key == cur_key {
                found = true;
                break;
            }
            let slot = if key < cur_key { LEFT } else { RIGHT };
            cur = p.read_ptr(cur.offset(slot))?.unwrap_or(NULL);
        }
        p.leave();
        Ok(found)
    }

    /// Removes and frees one leaf (the leftmost), returning its key.
    ///
    /// Used by workloads for balanced steady-state churn. The walk uses
    /// child pointers only, so it works on trees damaged by the
    /// skip-parent fault.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn pop_leaf(&mut self, p: &mut Process) -> Result<Option<u64>, HeapError> {
        if self.root.is_null() {
            return Ok(None);
        }
        p.enter(self.fns.pop_leaf);
        let mut parent: Option<(Addr, u64)> = None;
        let mut cur = self.root;
        loop {
            let left = p.read_ptr(cur.offset(LEFT))?;
            let right = p.read_ptr(cur.offset(RIGHT))?;
            match (left, right) {
                (Some(child), _) => {
                    parent = Some((cur, LEFT));
                    cur = child;
                }
                (None, Some(child)) => {
                    parent = Some((cur, RIGHT));
                    cur = child;
                }
                (None, None) => break,
            }
        }
        match parent {
            Some((par, slot)) => p.clear_ptr(par.offset(slot))?,
            None => self.root = NULL,
        }
        p.free(cur)?;
        let key = self.keys.remove(&cur);
        self.len -= 1;
        p.leave();
        Ok(key)
    }

    /// Counts non-root nodes whose `parent` pointer does not point at
    /// their actual parent — the invariant the Figure 10 bug violates.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn count_parent_pointer_violations(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.check);
        let mut violations = 0;
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            for slot in [LEFT, RIGHT] {
                if let Some(child) = p.read_ptr(node.offset(slot))? {
                    if p.read_ptr(child.offset(PARENT))? != Some(node) {
                        violations += 1;
                    }
                    stack.push(child);
                }
            }
        }
        p.leave();
        Ok(violations)
    }

    /// Touches every node (read traffic for staleness trackers).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.touch_all);
        for &addr in self.keys.keys() {
            p.read(addr)?;
        }
        p.leave();
        Ok(())
    }

    /// The maximum root-to-leaf depth (0 for an empty tree).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn depth(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.depth);
        let mut max = 0;
        let mut stack = vec![(self.root, 1usize)];
        while let Some((node, d)) = stack.pop() {
            if node.is_null() {
                continue;
            }
            max = max.max(d);
            for slot in [LEFT, RIGHT] {
                if let Some(child) = p.read_ptr(node.offset(slot))? {
                    stack.push((child, d + 1));
                }
            }
        }
        p.leave();
        Ok(max)
    }

    /// Frees every node and empties the tree.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(&mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            for slot in [LEFT, RIGHT] {
                if let Some(child) = p.read_ptr(node.offset(slot))? {
                    stack.push(child);
                }
            }
            p.free(node)?;
        }
        self.root = NULL;
        self.keys.clear();
        self.len = 0;
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    fn keys(n: u64) -> Vec<u64> {
        // A deterministic shuffled key sequence (multiplicative hash).
        (0..n)
            .map(|i| (i.wrapping_mul(2654435761)) % 100_000)
            .collect()
    }

    #[test]
    fn bst_property_and_parent_invariant_hold_clean() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBinTree::new(&mut p, "t");
        for k in keys(100) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.count_parent_pointer_violations(&mut p).unwrap(), 0);
        for k in keys(100) {
            assert!(t.contains(&mut p, k).unwrap());
        }
        assert!(!t.contains(&mut p, 999_999).unwrap());
        p.graph().validate().unwrap();
    }

    #[test]
    fn skip_parent_fault_raises_indeg1_mass() {
        let mut clean_p = process();
        let mut buggy_p = process();
        let mut clean_plan = FaultPlan::new();
        let mut buggy_plan = FaultPlan::single(BINTREE_SKIP_PARENT);
        let mut clean = SimBinTree::new(&mut clean_p, "t");
        let mut buggy = SimBinTree::new(&mut buggy_p, "t");
        for k in keys(200) {
            clean.insert(&mut clean_p, &mut clean_plan, k).unwrap();
            buggy.insert(&mut buggy_p, &mut buggy_plan, k).unwrap();
        }
        assert!(buggy.count_parent_pointer_violations(&mut buggy_p).unwrap() > 150);
        let clean_m = clean_p.graph().metrics().get(MetricKind::Indeg1);
        let buggy_m = buggy_p.graph().metrics().get(MetricKind::Indeg1);
        assert!(
            buggy_m > clean_m + 20.0,
            "skip-parent should inflate indeg=1: clean {clean_m:.1} buggy {buggy_m:.1}"
        );
    }

    #[test]
    fn single_child_fault_degenerates_depth() {
        let mut p = process();
        let mut plan = FaultPlan::single(BINTREE_SINGLE_CHILD);
        let mut t = SimBinTree::new(&mut p, "t");
        for k in keys(50) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        // Degenerate chain: depth equals node count.
        assert_eq!(t.depth(&mut p).unwrap(), 50);

        let mut p2 = process();
        let mut plan2 = FaultPlan::new();
        let mut t2 = SimBinTree::new(&mut p2, "t");
        for k in keys(50) {
            t2.insert(&mut p2, &mut plan2, k).unwrap();
        }
        assert!(t2.depth(&mut p2).unwrap() < 25, "random keys stay shallow");
    }

    #[test]
    fn pop_leaf_shrinks_to_empty() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBinTree::new(&mut p, "t");
        for k in keys(40) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        let mut popped = 0;
        while t.pop_leaf(&mut p).unwrap().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 40);
        assert!(t.is_empty());
        assert_eq!(p.heap().live_objects(), 0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn pop_leaf_works_on_damaged_trees() {
        let mut p = process();
        let mut plan = FaultPlan::single(BINTREE_SKIP_PARENT);
        let mut t = SimBinTree::new(&mut p, "t");
        for k in keys(20) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        for _ in 0..20 {
            assert!(t.pop_leaf(&mut p).unwrap().is_some());
        }
        assert_eq!(p.heap().live_objects(), 0);
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBinTree::new(&mut p, "t");
        for k in keys(64) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        t.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        assert!(t.is_empty());
        p.graph().validate().unwrap();
    }
}
