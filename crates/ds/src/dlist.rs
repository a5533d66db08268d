//! A doubly-linked list — the Figure 1 structure.

use crate::fault_ids::DLIST_SKIP_PREV;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process};

/// Node layout: `[0] = next, [8] = prev, [16..] = payload`.
const NEXT: u64 = 0;
const PREV: u64 = 8;
const NODE_SIZE: usize = 24;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        new: func("SimDList::new"),
        push_back: func("SimDList::push_back"),
        insert_after: func("SimDList::insert_after"),
        remove: func("SimDList::remove"),
        walk: func("SimDList::walk"),
        check: func("SimDList::check"),
        free_all: func("SimDList::free_all"),
    }
}

/// A doubly-linked list with a heap-allocated sentinel header (the
/// `pAssetList` of the paper's Figure 1).
///
/// In a well-formed list every interior node has indegree 2 (its
/// predecessor's `next` plus its successor's `prev`). The Figure 1 bug —
/// inserting without updating `prev` pointers — leaves nodes at
/// indegree 1, which is exactly how HeapMD caught it: "the percentage
/// of vertexes with indegree = 1 violated its calibrated range".
/// Enable [`DLIST_SKIP_PREV`] to reproduce it.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::{fault_ids::DLIST_SKIP_PREV, SimDList};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
/// let mut list = SimDList::new(&mut p, "assets")?;
/// for i in 0..8 {
///     list.push_back(&mut p, &mut plan, i)?;
/// }
/// // The buggy insert forgot every prev pointer:
/// assert!(list.count_back_pointer_violations(&mut p)? > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimDList {
    /// Sentinel header object: `[NEXT]` = first node, `[PREV]` = last.
    sentinel: Addr,
    len: usize,
    site: AllocSite,
    fns: Fns,
    fault_skip_prev: FaultId,
}

impl SimDList {
    /// Allocates the sentinel header.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] from the allocation.
    pub fn new(p: &mut Process, site: &str) -> Result<Self, HeapError> {
        SimDList::with_fault(p, site, DLIST_SKIP_PREV)
    }

    /// Like [`new`](Self::new), but with a per-instance fault id for
    /// the skipped-`prev` call-site.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_fault(p: &mut Process, site: &str, fault: FaultId) -> Result<Self, HeapError> {
        let fns = Fns::new(p);
        let header_site = p.site(&format!("{site}::header"));
        p.enter(fns.new);
        let sentinel = p.malloc(NODE_SIZE, header_site)?;
        p.leave();
        Ok(SimDList {
            sentinel,
            len: 0,
            site: p.site(&format!("{site}::node")),
            fns,
            fault_skip_prev: fault,
        })
    }

    /// Number of nodes (excluding the sentinel).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the list has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sentinel header's address.
    pub fn sentinel(&self) -> Addr {
        self.sentinel
    }

    /// The first node, if any.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn front(&self, p: &mut Process) -> Result<Option<Addr>, HeapError> {
        p.read_ptr(self.sentinel.offset(NEXT))
    }

    /// Appends a node carrying `_payload`.
    ///
    /// Fault hook [`DLIST_SKIP_PREV`]: when it fires, the new node is
    /// linked through `next` pointers only — the Figure 1 bug.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn push_back(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        _payload: u64,
    ) -> Result<Addr, HeapError> {
        p.enter(self.fns.push_back);
        let node = p.malloc(NODE_SIZE, self.site)?;
        p.write_scalar(node.offset(16))?; // payload word
        let tail = p.read_ptr(self.sentinel.offset(PREV))?;
        let skip_prev = plan.fires(self.fault_skip_prev);
        match tail {
            Some(tail) => {
                p.write_ptr(tail.offset(NEXT), node)?;
                if !skip_prev {
                    p.write_ptr(node.offset(PREV), tail)?;
                }
            }
            None => {
                p.write_ptr(self.sentinel.offset(NEXT), node)?;
                if !skip_prev {
                    p.write_ptr(node.offset(PREV), self.sentinel)?;
                }
            }
        }
        // The sentinel's tail pointer is maintained either way (the
        // Figure 1 bug was about node prev pointers, not the header).
        p.write_ptr(self.sentinel.offset(PREV), node)?;
        self.len += 1;
        p.leave();
        Ok(node)
    }

    /// Inserts a node right after `pred` (a node address or the
    /// sentinel) — the literal shape of Figure 1.
    ///
    /// Fault hook [`DLIST_SKIP_PREV`]: when it fires, neither the new
    /// node's `prev` nor its successor's `prev` is updated.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn insert_after(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        pred: Addr,
        _payload: u64,
    ) -> Result<Addr, HeapError> {
        p.enter(self.fns.insert_after);
        let node = p.malloc(NODE_SIZE, self.site)?;
        p.write_scalar(node.offset(16))?;
        let succ = p.read_ptr(pred.offset(NEXT))?;
        let skip_prev = plan.fires(self.fault_skip_prev);
        if let Some(succ) = succ {
            p.write_ptr(node.offset(NEXT), succ)?;
            if !skip_prev {
                p.write_ptr(succ.offset(PREV), node)?;
            }
        } else {
            p.write_ptr(self.sentinel.offset(PREV), node)?;
        }
        p.write_ptr(pred.offset(NEXT), node)?;
        if !skip_prev {
            p.write_ptr(node.offset(PREV), pred)?;
        }
        self.len += 1;
        p.leave();
        Ok(node)
    }

    /// Unlinks and frees `node`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn remove(&mut self, p: &mut Process, node: Addr) -> Result<(), HeapError> {
        p.enter(self.fns.remove);
        let prev = p.read_ptr(node.offset(PREV))?;
        let next = p.read_ptr(node.offset(NEXT))?;
        // A node inserted by the buggy path has no prev pointer; fall
        // back to a walk from the sentinel, as real cleanup code would.
        let prev = match prev {
            Some(prev) => prev,
            None => self.find_pred(p, node)?,
        };
        match next {
            Some(next) => {
                p.write_ptr(prev.offset(NEXT), next)?;
                p.write_ptr(next.offset(PREV), prev)?;
            }
            None => {
                p.clear_ptr(prev.offset(NEXT))?;
                if prev == self.sentinel {
                    p.clear_ptr(self.sentinel.offset(PREV))?;
                } else {
                    p.write_ptr(self.sentinel.offset(PREV), prev)?;
                }
            }
        }
        p.free(node)?;
        self.len -= 1;
        p.leave();
        Ok(())
    }

    /// Touches every node front-to-back (read traffic for staleness
    /// trackers), returning the count.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn walk(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.walk);
        let mut n = 0;
        let mut cur = p.read_ptr(self.sentinel.offset(NEXT))?;
        while let Some(node) = cur {
            p.read(node)?;
            cur = p.read_ptr(node.offset(NEXT))?;
            n += 1;
        }
        p.leave();
        Ok(n)
    }

    /// Walks the list front-to-back, counting nodes whose successor's
    /// `prev` does not point back at them — the invariant the Figure 1
    /// bug violates. A clean list reports 0.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn count_back_pointer_violations(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.check);
        let mut violations = 0;
        let mut prev = self.sentinel;
        let mut cur = p.read_ptr(self.sentinel.offset(NEXT))?;
        while let Some(node) = cur {
            if p.read_ptr(node.offset(PREV))? != Some(prev) {
                violations += 1;
            }
            prev = node;
            cur = p.read_ptr(node.offset(NEXT))?;
        }
        p.leave();
        Ok(violations)
    }

    /// Frees every node and the sentinel, consuming the list.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        let mut cur = p.read_ptr(self.sentinel.offset(NEXT))?;
        while let Some(node) = cur {
            cur = p.read_ptr(node.offset(NEXT))?;
            p.free(node)?;
        }
        p.free(self.sentinel)?;
        p.leave();
        Ok(())
    }

    fn find_pred(&self, p: &mut Process, node: Addr) -> Result<Addr, HeapError> {
        let mut prev = self.sentinel;
        let mut cur = p.read_ptr(self.sentinel.offset(NEXT))?;
        while let Some(c) = cur {
            if c == node {
                return Ok(prev);
            }
            prev = c;
            cur = p.read_ptr(c.offset(NEXT))?;
        }
        // The node is not on the list — a workload defect.
        panic!("node {node} not found in SimDList");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{MetricKind, Settings};

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    #[test]
    fn clean_list_has_no_violations_and_indeg2_interiors() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let nodes: Vec<Addr> = (0..10)
            .map(|i| l.push_back(&mut p, &mut plan, i).unwrap())
            .collect();
        assert_eq!(l.count_back_pointer_violations(&mut p).unwrap(), 0);
        // Interior nodes: next from pred + prev from succ = indegree 2.
        let g = p.graph();
        let interior = p.heap().object_at(nodes[5]).unwrap().id();
        assert_eq!(g.node(interior).unwrap().indegree, 2);
        g.validate().unwrap();
    }

    #[test]
    fn fig1_fault_shifts_indegree_mass_from_2_to_1() {
        let mut clean_p = process();
        let mut buggy_p = process();
        let mut clean_plan = FaultPlan::new();
        let mut buggy_plan = FaultPlan::single(DLIST_SKIP_PREV);

        let mut clean = SimDList::new(&mut clean_p, "t").unwrap();
        let mut buggy = SimDList::new(&mut buggy_p, "t").unwrap();
        for i in 0..50 {
            clean.push_back(&mut clean_p, &mut clean_plan, i).unwrap();
            buggy.push_back(&mut buggy_p, &mut buggy_plan, i).unwrap();
        }
        let clean_m = clean_p.graph().metrics();
        let buggy_m = buggy_p.graph().metrics();
        assert!(
            buggy_m.get(MetricKind::Indeg1) > clean_m.get(MetricKind::Indeg1) + 30.0,
            "indeg=1 jumps: clean {:.1} buggy {:.1}",
            clean_m.get(MetricKind::Indeg1),
            buggy_m.get(MetricKind::Indeg1)
        );
        assert!(buggy.count_back_pointer_violations(&mut buggy_p).unwrap() >= 49);
    }

    #[test]
    fn insert_after_maintains_links() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let a = l.push_back(&mut p, &mut plan, 1).unwrap();
        let c = l.push_back(&mut p, &mut plan, 3).unwrap();
        let b = l.insert_after(&mut p, &mut plan, a, 2).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(p.read_ptr(a.offset(NEXT)).unwrap(), Some(b));
        assert_eq!(p.read_ptr(b.offset(NEXT)).unwrap(), Some(c));
        assert_eq!(p.read_ptr(c.offset(PREV)).unwrap(), Some(b));
        assert_eq!(l.count_back_pointer_violations(&mut p).unwrap(), 0);
    }

    #[test]
    fn insert_after_sentinel_works_when_empty() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let sentinel = l.sentinel();
        let a = l.insert_after(&mut p, &mut plan, sentinel, 1).unwrap();
        assert_eq!(l.front(&mut p).unwrap(), Some(a));
        assert_eq!(l.count_back_pointer_violations(&mut p).unwrap(), 0);
    }

    #[test]
    fn remove_relinks_neighbours() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let a = l.push_back(&mut p, &mut plan, 1).unwrap();
        let b = l.push_back(&mut p, &mut plan, 2).unwrap();
        let c = l.push_back(&mut p, &mut plan, 3).unwrap();
        l.remove(&mut p, b).unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(p.read_ptr(a.offset(NEXT)).unwrap(), Some(c));
        assert_eq!(p.read_ptr(c.offset(PREV)).unwrap(), Some(a));
        assert_eq!(l.count_back_pointer_violations(&mut p).unwrap(), 0);
        l.remove(&mut p, c).unwrap();
        l.remove(&mut p, a).unwrap();
        assert!(l.is_empty());
        assert_eq!(p.heap().live_objects(), 1, "only the sentinel survives");
    }

    #[test]
    fn remove_survives_missing_prev_pointer() {
        let mut p = process();
        let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let a = l.push_back(&mut p, &mut plan, 1).unwrap();
        let b = l.push_back(&mut p, &mut plan, 2).unwrap();
        l.remove(&mut p, b).unwrap();
        l.remove(&mut p, a).unwrap();
        assert!(l.is_empty());
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        for i in 0..6 {
            l.push_back(&mut p, &mut plan, i).unwrap();
        }
        l.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        p.graph().validate().unwrap();
    }
}
