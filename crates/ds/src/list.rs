//! A singly-linked list on the simulated heap.

use crate::fault_ids::LIST_SMALL_LEAK;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};

/// Node layout: `[0] = next pointer, [8..] = payload`.
const NEXT: u64 = 0;
/// Node size in bytes (one pointer + one payload word).
const NODE_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        push_front: func("SimList::push_front"),
        pop_front: func("SimList::pop_front"),
        walk: func("SimList::walk"),
        free_all: func("SimList::free_all"),
    }
}

/// A singly-linked list whose nodes live on the simulated heap.
///
/// A well-formed `n`-node list contributes one root (the head), `n − 1`
/// vertexes of indegree 1, and one leaf (the tail) to the heap-graph —
/// the shape whose *outdegree = 1* percentage the paper finds stable
/// for `vpr` and `gcc`.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimList;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut list = SimList::new(&mut p, "work_queue");
/// list.push_front(&mut p, 7)?;
/// list.push_front(&mut p, 8)?;
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.pop_front(&mut p, &mut plan)?, true);
/// list.free_all(&mut p)?;
/// assert_eq!(list.len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimList {
    head: Addr,
    len: usize,
    site: AllocSite,
    fns: Fns,
    fault_leak: FaultId,
}

impl SimList {
    /// Creates an empty list whose nodes will be tagged with the given
    /// allocation-site name, interning its names in `p`.
    pub fn new(p: &mut Process, site: &str) -> Self {
        SimList::with_fault(p, site, LIST_SMALL_LEAK)
    }

    /// Creates an empty list whose leak call-site consults `fault`
    /// instead of the crate-wide default — lets one program host
    /// several distinct instances of the same bug class.
    pub fn with_fault(p: &mut Process, site: &str, fault: FaultId) -> Self {
        SimList {
            head: NULL,
            len: 0,
            site: p.site(&format!("{site}::node")),
            fns: Fns::new(p),
            fault_leak: fault,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the list has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The head node's address (null when empty).
    pub fn head(&self) -> Addr {
        self.head
    }

    /// Prepends a node carrying `_payload`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] from the allocation or link stores.
    pub fn push_front(&mut self, p: &mut Process, _payload: u64) -> Result<Addr, HeapError> {
        p.enter(self.fns.push_front);
        let node = p.malloc(NODE_SIZE, self.site)?;
        p.write_scalar(node.offset(8))?; // payload word
        if !self.head.is_null() {
            p.write_ptr(node.offset(NEXT), self.head)?;
        }
        self.head = node;
        self.len += 1;
        p.leave();
        Ok(node)
    }

    /// Removes the head node and frees it.
    ///
    /// Fault hook [`LIST_SMALL_LEAK`]: when it fires, the unlink happens
    /// but the free is forgotten — a classic small unreachable leak.
    ///
    /// Returns `false` when the list was empty.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn pop_front(&mut self, p: &mut Process, plan: &mut FaultPlan) -> Result<bool, HeapError> {
        if self.head.is_null() {
            return Ok(false);
        }
        p.enter(self.fns.pop_front);
        let old = self.head;
        let next = p.read_ptr(old.offset(NEXT))?;
        self.head = next.unwrap_or(NULL);
        self.len -= 1;
        if !plan.fires(self.fault_leak) {
            p.free(old)?;
        }
        p.leave();
        Ok(true)
    }

    /// Walks the list, touching every node (read traffic for staleness
    /// trackers) and returning the number of nodes visited.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn walk(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.walk);
        let mut cur = self.head;
        let mut n = 0;
        while !cur.is_null() {
            p.read(cur)?;
            cur = p.read_ptr(cur.offset(NEXT))?.unwrap_or(NULL);
            n += 1;
        }
        p.leave();
        Ok(n)
    }

    /// Frees every node and empties the list.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(&mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        let mut cur = self.head;
        while !cur.is_null() {
            let next = p.read_ptr(cur.offset(NEXT))?.unwrap_or(NULL);
            p.free(cur)?;
            cur = next;
        }
        self.head = NULL;
        self.len = 0;
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultConfig;
    use heapmd::Settings;

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    #[test]
    fn chain_shape_in_heap_graph() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimList::new(&mut p, "t");
        for i in 0..10 {
            l.push_front(&mut p, i).unwrap();
        }
        assert_eq!(l.len(), 10);
        assert_eq!(l.walk(&mut p).unwrap(), 10);
        let g = p.graph();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 9);
        let m = g.metrics();
        assert_eq!(m.get(heapmd::MetricKind::Roots), 10.0);
        assert_eq!(m.get(heapmd::MetricKind::Indeg1), 90.0);
        g.validate().unwrap();
        let _ = &mut plan;
    }

    #[test]
    fn pop_front_frees_nodes() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimList::new(&mut p, "t");
        for i in 0..5 {
            l.push_front(&mut p, i).unwrap();
        }
        while l.pop_front(&mut p, &mut plan).unwrap() {}
        assert_eq!(p.heap().live_objects(), 0);
        assert!(l.is_empty());
        assert!(!l.pop_front(&mut p, &mut plan).unwrap());
    }

    #[test]
    fn small_leak_fault_leaves_unreachable_nodes() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        plan.enable(LIST_SMALL_LEAK, FaultConfig::every(2));
        let mut l = SimList::new(&mut p, "t");
        for i in 0..10 {
            l.push_front(&mut p, i).unwrap();
        }
        while l.pop_front(&mut p, &mut plan).unwrap() {}
        // Every 2nd pop leaked: 5 unreachable survivors.
        assert_eq!(p.heap().live_objects(), 5);
        assert_eq!(plan.activations(LIST_SMALL_LEAK), 5);
        p.graph().validate().unwrap();
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut l = SimList::new(&mut p, "t");
        for i in 0..7 {
            l.push_front(&mut p, i).unwrap();
        }
        l.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        assert_eq!(p.graph().node_count(), 0);
        assert_eq!(l.head(), NULL);
    }
}
