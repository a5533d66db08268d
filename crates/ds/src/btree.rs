//! A B-tree (order 4) — one of the "more complex data structures such
//! as B-Trees" in which the paper reports invariant-violation bugs
//! (§4.5).

use crate::fault_ids::BTREE_SKIP_SIBLING;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process};

/// Minimum degree (CLRS `t`): nodes hold 1..=3 keys and 2..=4 children.
const T: usize = 2;
const MAX_KEYS: usize = 2 * T - 1;
/// Node layout: `[0..32] = 4 child pointers, [32..56] = 3 key words`.
const CHILD_STRIDE: u64 = 8;
const NODE_SIZE: usize = (2 * T) * 8 + MAX_KEYS * 8;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        new: func("SimBTree::new"),
        insert: func("SimBTree::insert"),
        contains: func("SimBTree::contains"),
        touch_all: func("SimBTree::touch_all"),
        check_links: func("SimBTree::check_links"),
        free_all: func("SimBTree::free_all"),
        split_child: func("SimBTree::split_child"),
    }
}

/// Shadow node: the program's *logical* view of the tree. The heap
/// objects are kept in sync with it — except where a fault deliberately
/// desynchronizes them, modelling code that updates its bookkeeping but
/// botches a pointer store.
#[derive(Debug, Clone)]
struct BNode {
    addr: Addr,
    keys: Vec<u64>,
    children: Vec<usize>,
}

impl BNode {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A B-tree of order 4 over the simulated heap.
///
/// Fault hook [`BTREE_SKIP_SIBLING`]: during a node split, the parent's
/// child pointer to the freshly created right sibling is not written.
/// The program's own bookkeeping stays consistent (searches still
/// work), but on the heap the sibling subtree is only reachable through
/// stale knowledge — its root has indegree 0, so the *roots* percentage
/// creeps out of range. This is a "malformed but pointer-correct"
/// structure in the paper's sense: no checker that only validates
/// individual pointers would object.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimBTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut tree = SimBTree::new(&mut p, "index")?;
/// for k in 0..50 {
///     tree.insert(&mut p, &mut plan, k * 7 % 50)?;
/// }
/// assert_eq!(tree.len(), 50);
/// assert_eq!(tree.count_heap_link_mismatches(&mut p)?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimBTree {
    nodes: Vec<BNode>,
    root: usize,
    len: usize,
    site: AllocSite,
    fns: Fns,
    fault_skip_sibling: FaultId,
}

impl SimBTree {
    /// Creates an empty tree (allocating its root node).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn new(p: &mut Process, site: &str) -> Result<Self, HeapError> {
        SimBTree::with_fault(p, site, BTREE_SKIP_SIBLING)
    }

    /// Like [`new`](Self::new), with a per-instance fault id for the
    /// skipped-sibling-link call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_fault(p: &mut Process, site: &str, fault: FaultId) -> Result<Self, HeapError> {
        let fns = Fns::new(p);
        let site = p.site(&format!("{site}::btree_node"));
        p.enter(fns.new);
        let addr = p.malloc(NODE_SIZE, site)?;
        p.leave();
        Ok(SimBTree {
            nodes: vec![BNode {
                addr,
                keys: Vec::new(),
                children: Vec::new(),
            }],
            root: 0,
            len: 0,
            site,
            fns,
            fault_skip_sibling: fault,
        })
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of heap nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts `key` (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn insert(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        key: u64,
    ) -> Result<(), HeapError> {
        p.enter(self.fns.insert);
        if self.nodes[self.root].keys.len() == MAX_KEYS {
            // Grow a new root and split the old one under it.
            let old_root = self.root;
            let addr = p.malloc(NODE_SIZE, self.site)?;
            self.nodes.push(BNode {
                addr,
                keys: Vec::new(),
                children: vec![old_root],
            });
            self.root = self.nodes.len() - 1;
            self.sync_children(p, self.root, None)?;
            self.split_child(p, plan, self.root, 0)?;
        }
        self.insert_nonfull(p, plan, self.root, key)?;
        self.len += 1;
        p.leave();
        Ok(())
    }

    /// Searches for `key`, generating read traffic along the path.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn contains(&self, p: &mut Process, key: u64) -> Result<bool, HeapError> {
        p.enter(self.fns.contains);
        let mut idx = self.root;
        let found = loop {
            p.read(self.nodes[idx].addr)?;
            let node = &self.nodes[idx];
            let pos = node.keys.partition_point(|&k| k < key);
            if pos < node.keys.len() && node.keys[pos] == key {
                break true;
            }
            if node.is_leaf() {
                break false;
            }
            idx = node.children[pos];
        };
        p.leave();
        Ok(found)
    }

    /// All keys in sorted order (shadow traversal; no heap traffic).
    pub fn keys_in_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.collect(self.root, &mut out);
        out
    }

    /// Checks the B-tree shape invariants on the shadow structure:
    /// sorted keys, key-count bounds, uniform leaf depth.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let keys = self.keys_in_order();
        if keys.windows(2).any(|w| w[0] > w[1]) {
            return Err("keys out of order".to_string());
        }
        let mut leaf_depth = None;
        let mut stack = vec![(self.root, 0usize)];
        while let Some((idx, d)) = stack.pop() {
            let node = &self.nodes[idx];
            if idx != self.root && (node.keys.len() < T - 1 || node.keys.len() > MAX_KEYS) {
                return Err(format!("node has {} keys", node.keys.len()));
            }
            if node.is_leaf() {
                match leaf_depth {
                    None => leaf_depth = Some(d),
                    Some(ld) if ld != d => return Err("leaves at different depths".to_string()),
                    _ => {}
                }
            } else {
                if node.children.len() != node.keys.len() + 1 {
                    return Err("child count != keys + 1".to_string());
                }
                for &c in &node.children {
                    stack.push((c, d + 1));
                }
            }
        }
        Ok(())
    }

    /// Touches every node (read traffic for staleness trackers).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_all(&self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.touch_all);
        for node in &self.nodes {
            p.read(node.addr)?;
        }
        p.leave();
        Ok(())
    }

    /// Counts child links whose heap pointer slot disagrees with the
    /// shadow structure — the damage [`BTREE_SKIP_SIBLING`] causes.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn count_heap_link_mismatches(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.check_links);
        let mut mismatches = 0;
        for node in &self.nodes {
            for (i, &child) in node.children.iter().enumerate() {
                let slot = node.addr.offset(i as u64 * CHILD_STRIDE);
                if p.read_ptr(slot)? != Some(self.nodes[child].addr) {
                    mismatches += 1;
                }
            }
        }
        p.leave();
        Ok(mismatches)
    }

    /// Frees every heap node, consuming the tree.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for node in &self.nodes {
            p.free(node.addr)?;
        }
        p.leave();
        Ok(())
    }

    fn collect(&self, idx: usize, out: &mut Vec<u64>) {
        let node = &self.nodes[idx];
        if node.is_leaf() {
            out.extend(&node.keys);
            return;
        }
        for (i, &k) in node.keys.iter().enumerate() {
            self.collect(node.children[i], out);
            out.push(k);
        }
        self.collect(*node.children.last().expect("non-leaf"), out);
    }

    /// Rewrites `idx`'s heap child slots from the shadow, optionally
    /// skipping one child position (the fault).
    fn sync_children(
        &self,
        p: &mut Process,
        idx: usize,
        skip_pos: Option<usize>,
    ) -> Result<(), HeapError> {
        let node = &self.nodes[idx];
        for i in 0..2 * T {
            let slot = node.addr.offset(i as u64 * CHILD_STRIDE);
            match node.children.get(i) {
                Some(&c) if skip_pos != Some(i) => {
                    p.write_ptr(slot, self.nodes[c].addr)?;
                }
                Some(_) => { /* fault: leave the stale/empty slot */ }
                None => p.clear_ptr(slot)?,
            }
        }
        Ok(())
    }

    fn split_child(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        parent: usize,
        pos: usize,
    ) -> Result<(), HeapError> {
        p.enter(self.fns.split_child);
        let left = self.nodes[parent].children[pos];
        let addr = p.malloc(NODE_SIZE, self.site)?;
        let right = self.nodes.len();
        let (mid_key, right_keys, right_children) = {
            let l = &mut self.nodes[left];
            let right_keys = l.keys.split_off(T);
            let mid_key = l.keys.pop().expect("full node has 2t-1 keys");
            let right_children = if l.is_leaf() {
                Vec::new()
            } else {
                l.children.split_off(T)
            };
            (mid_key, right_keys, right_children)
        };
        self.nodes.push(BNode {
            addr,
            keys: right_keys,
            children: right_children,
        });
        let parent_node = &mut self.nodes[parent];
        parent_node.keys.insert(pos, mid_key);
        parent_node.children.insert(pos + 1, right);

        // Heap sync: the left node lost children, the right gained
        // them, and the parent gained a child. The fault omits the
        // parent→right link.
        self.sync_children(p, left, None)?;
        self.sync_children(p, right, None)?;
        let skip = plan.fires(self.fault_skip_sibling).then_some(pos + 1);
        self.sync_children(p, parent, skip)?;
        p.leave();
        Ok(())
    }

    fn insert_nonfull(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        idx: usize,
        key: u64,
    ) -> Result<(), HeapError> {
        p.read(self.nodes[idx].addr)?;
        if self.nodes[idx].is_leaf() {
            let node = &mut self.nodes[idx];
            let pos = node.keys.partition_point(|&k| k <= key);
            node.keys.insert(pos, key);
            // Key payloads are scalar words on the heap object.
            let slot = self.nodes[idx]
                .addr
                .offset((2 * T * 8) as u64 + (pos.min(MAX_KEYS - 1) * 8) as u64);
            p.write_scalar(slot)?;
            return Ok(());
        }
        let mut pos = self.nodes[idx].keys.partition_point(|&k| k <= key);
        if self.nodes[self.nodes[idx].children[pos]].keys.len() == MAX_KEYS {
            self.split_child(p, plan, idx, pos)?;
            if key > self.nodes[idx].keys[pos] {
                pos += 1;
            }
        }
        let child = self.nodes[idx].children[pos];
        self.insert_nonfull(p, plan, child, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    fn shuffled(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(2654435761) % (4 * n))
            .collect()
    }

    #[test]
    fn keys_stay_sorted_and_invariants_hold() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBTree::new(&mut p, "t").unwrap();
        let keys = shuffled(200);
        for &k in &keys {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        assert_eq!(t.len(), 200);
        t.check_invariants().unwrap();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(t.keys_in_order(), expect);
        for &k in &keys {
            assert!(t.contains(&mut p, k).unwrap());
        }
    }

    #[test]
    fn heap_links_match_shadow_when_clean() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBTree::new(&mut p, "t").unwrap();
        for &k in &shuffled(150) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        assert_eq!(t.count_heap_link_mismatches(&mut p).unwrap(), 0);
        p.graph().validate().unwrap();
        // Every non-root node is referenced by exactly one child slot.
        let g = p.graph();
        assert_eq!(g.edge_count(), t.node_count() as u64 - 1);
    }

    #[test]
    fn skip_sibling_fault_orphans_subtrees_on_the_heap() {
        let mut p = process();
        let mut plan = FaultPlan::single(BTREE_SKIP_SIBLING);
        let mut t = SimBTree::new(&mut p, "t").unwrap();
        for &k in &shuffled(200) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        // Logical structure still fine…
        t.check_invariants().unwrap();
        // …but the heap image is missing parent→sibling links.
        let mismatches = t.count_heap_link_mismatches(&mut p).unwrap();
        assert!(
            mismatches > 10,
            "expected many missing links, got {mismatches}"
        );
        // Orphaned siblings are extra roots in the heap-graph.
        // A clean tree has exactly one root (~1–2 % of vertexes);
        // orphaned siblings push the percentage an order of magnitude up.
        let roots = p.graph().metrics().get(MetricKind::Roots);
        assert!(roots > 10.0, "roots% should balloon, got {roots:.1}");
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBTree::new(&mut p, "t").unwrap();
        for &k in &shuffled(100) {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        t.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut p = process();
        let t = SimBTree::new(&mut p, "t").unwrap();
        assert!(t.is_empty());
        assert!(!t.contains(&mut p, 42).unwrap());
        assert!(t.keys_in_order().is_empty());
        t.check_invariants().unwrap();
    }
}
