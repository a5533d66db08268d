//! A circular singly-linked list — the Figure 12 structure.

use crate::fault_ids::CLIST_FREE_SHARED_HEAD;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};

/// Node layout: `[0] = next, [8..] = payload`.
const NEXT: u64 = 0;
const NODE_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        push: func("SimCircularList::push"),
        rotate_free_head: func("SimCircularList::rotate_free_head"),
        walk: func("SimCircularList::walk"),
        free_all: func("SimCircularList::free_all"),
    }
}

/// A circular singly-linked list whose tail points back at the head.
///
/// The Figure 12 bug frees the head and advances to `head->next`
/// *without* re-pointing the tail, leaving the tail with a dangling
/// pointer to the freed node. Once the allocator recycles that address,
/// the stale edge re-binds to an unrelated object — which is how the
/// paper detected it: "the percentage of vertexes with indegree = 2
/// violated its calibrated range". Enable [`CLIST_FREE_SHARED_HEAD`] on
/// [`rotate_free_head`](Self::rotate_free_head) to reproduce it.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimCircularList;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut ring = SimCircularList::new(&mut p, "columns");
/// for i in 0..4 {
///     ring.push(&mut p, i)?;
/// }
/// assert_eq!(ring.len(), 4);
/// ring.rotate_free_head(&mut p, &mut plan)?; // clean: relinks the tail
/// assert_eq!(ring.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimCircularList {
    head: Addr,
    tail: Addr,
    len: usize,
    site: AllocSite,
    fns: Fns,
    fault_free_head: FaultId,
}

impl SimCircularList {
    /// Creates an empty ring, interning its names in `p`.
    pub fn new(p: &mut Process, site: &str) -> Self {
        SimCircularList::with_fault(p, site, CLIST_FREE_SHARED_HEAD)
    }

    /// Creates an empty ring with a per-instance fault id for the
    /// shared-head-free call-site.
    pub fn with_fault(p: &mut Process, site: &str, fault: FaultId) -> Self {
        SimCircularList {
            head: NULL,
            tail: NULL,
            len: 0,
            site: p.site(&format!("{site}::node")),
            fns: Fns::new(p),
            fault_free_head: fault,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current head (null when empty).
    pub fn head(&self) -> Addr {
        self.head
    }

    /// Appends a node before the head (i.e. at the tail), keeping the
    /// ring closed.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn push(&mut self, p: &mut Process, _payload: u64) -> Result<Addr, HeapError> {
        p.enter(self.fns.push);
        let node = p.malloc(NODE_SIZE, self.site)?;
        p.write_scalar(node.offset(8))?;
        if self.head.is_null() {
            // Single node pointing at itself.
            p.write_ptr(node.offset(NEXT), node)?;
            self.head = node;
            self.tail = node;
        } else {
            p.write_ptr(node.offset(NEXT), self.head)?;
            p.write_ptr(self.tail.offset(NEXT), node)?;
            self.tail = node;
        }
        self.len += 1;
        p.leave();
        Ok(node)
    }

    /// Frees the head and advances to the next node — the Figure 12
    /// operation (`ColListFree(pHeadColList); pHeadColList = pNewHead`).
    ///
    /// Fault hook [`CLIST_FREE_SHARED_HEAD`]: when it fires, the tail's
    /// `next` pointer is *not* re-pointed at the new head, so the tail
    /// keeps a dangling pointer to the freed node.
    ///
    /// Returns `false` when the ring has at most one node (nothing to
    /// rotate to).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn rotate_free_head(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
    ) -> Result<bool, HeapError> {
        if self.len <= 1 {
            return Ok(false);
        }
        p.enter(self.fns.rotate_free_head);
        let old_head = self.head;
        let new_head = p.read_ptr(old_head.offset(NEXT))?.expect("ring is closed");
        if !plan.fires(self.fault_free_head) {
            // Correct code re-points the tail before freeing.
            p.write_ptr(self.tail.offset(NEXT), new_head)?;
        }
        p.free(old_head)?;
        self.head = new_head;
        self.len -= 1;
        p.leave();
        Ok(true)
    }

    /// Touches every node reachable from the head by following `next`
    /// up to `len` hops (a dangling tail stops the walk early).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] other than the wild access a dangling
    /// pointer produces (which ends the walk).
    pub fn walk(&self, p: &mut Process) -> Result<usize, HeapError> {
        if self.head.is_null() {
            return Ok(0);
        }
        p.enter(self.fns.walk);
        let mut cur = self.head;
        let mut n = 0;
        for _ in 0..self.len {
            if p.read(cur).is_err() {
                break;
            }
            n += 1;
            match p.read_ptr(cur.offset(NEXT)) {
                Ok(Some(next)) => cur = next,
                _ => break,
            }
        }
        p.leave();
        Ok(n)
    }

    /// Frees every node, consuming the ring.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        let mut cur = self.head;
        for _ in 0..self.len {
            if cur.is_null() {
                break;
            }
            let next = p.read_ptr(cur.offset(NEXT))?.unwrap_or(NULL);
            p.free(cur)?;
            cur = next;
        }
        self.head = NULL;
        self.tail = NULL;
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

    #[test]
    fn ring_is_closed_and_all_indeg1() {
        let mut p = process();
        let mut ring = SimCircularList::new(&mut p, "t");
        for i in 0..8 {
            ring.push(&mut p, i).unwrap();
        }
        assert_eq!(ring.walk(&mut p).unwrap(), 8);
        let m = p.graph().metrics();
        // A closed ring: every vertex has indegree 1 and outdegree 1.
        assert_eq!(m.get(MetricKind::Indeg1), 100.0);
        assert_eq!(m.get(MetricKind::Outdeg1), 100.0);
        assert_eq!(m.get(MetricKind::InEqOut), 100.0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn clean_rotation_keeps_the_ring_closed() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut ring = SimCircularList::new(&mut p, "t");
        for i in 0..6 {
            ring.push(&mut p, i).unwrap();
        }
        for _ in 0..3 {
            assert!(ring.rotate_free_head(&mut p, &mut plan).unwrap());
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.walk(&mut p).unwrap(), 3);
        assert_eq!(p.graph().dangling_count(), 0);
    }

    #[test]
    fn fig12_fault_dangles_the_tail_and_rebinds_on_reuse() {
        let mut p = process();
        let mut plan = FaultPlan::single(CLIST_FREE_SHARED_HEAD);
        let mut ring = SimCircularList::new(&mut p, "t");
        for i in 0..6 {
            ring.push(&mut p, i).unwrap();
        }
        ring.rotate_free_head(&mut p, &mut plan).unwrap();
        // Tail still points at the freed head: one dangling slot.
        assert_eq!(p.graph().dangling_count(), 1);
        // A same-size allocation recycles the address; the stale edge
        // re-binds, giving the unrelated object indegree ≥ 1 (and the
        // new head keeps its own in-edge → indeg 2 shows up when the
        // recycled object is also linked normally).
        let unrelated = p.site("unrelated");
        let recycled = p.malloc(NODE_SIZE, unrelated).unwrap();
        assert_eq!(p.graph().dangling_count(), 0);
        let id = p.heap().object_at(recycled).unwrap().id();
        assert_eq!(p.graph().node(id).unwrap().indegree, 1);
        p.graph().validate().unwrap();
    }

    #[test]
    fn rotation_on_tiny_rings_is_a_noop() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut ring = SimCircularList::new(&mut p, "t");
        assert!(!ring.rotate_free_head(&mut p, &mut plan).unwrap());
        ring.push(&mut p, 1).unwrap();
        assert!(!ring.rotate_free_head(&mut p, &mut plan).unwrap());
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn free_all_handles_self_loop() {
        let mut p = process();
        let mut ring = SimCircularList::new(&mut p, "t");
        for i in 0..5 {
            ring.push(&mut p, i).unwrap();
        }
        ring.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
        p.graph().validate().unwrap();
    }
}
