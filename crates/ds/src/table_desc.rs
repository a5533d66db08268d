//! Table descriptors with per-slot property lists — the Figure 11
//! structure.

use crate::fault_ids::TABLE_TYPO_LEAK;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};

/// Property-list node layout: `[0] = next, [8] = payload`.
const NEXT: u64 = 0;
const PROP_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        new: func("TableDescriptors::new"),
        set_props: func("TableDescriptors::set_props"),
        collect_props: func("TableDescriptors::collect_props"),
        walk_props: func("TableDescriptors::walk_props"),
        free_all: func("TableDescriptors::free_all"),
    }
}

/// An array of table descriptors, each owning a linked property list.
///
/// This reproduces the Figure 11 scenario:
///
/// ```c
/// if (pTableDesc[j].pPropDesc != NULL) {
///     // Typo below: 'j' should be used in place of 'i'
///     pPropDescList->next = pTableDesc[i].pPropDesc;
///     // Leaks object pointed to by pPropDesc[j].pPropDesc
///     pTableDesc[j].pPropDesc = NULL;
/// }
/// ```
///
/// The typo detaches slot `j`'s list without linking it anywhere — a
/// leak HeapMD caught because "the percentage of vertexes with
/// indegree = 1 violated its calibrated range" (detached chains lose
/// the in-edge from the descriptor table; their heads pile up as
/// roots). Enable [`TABLE_TYPO_LEAK`] on
/// [`collect_props`](Self::collect_props) to reproduce it.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::TableDescriptors;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut t = TableDescriptors::new(&mut p, 8, "catalog")?;
/// t.set_props(&mut p, 3, 5)?;  // slot 3 gets a 5-node property list
/// let collected = t.collect_props(&mut p, &mut plan, 3)?;
/// assert_eq!(collected, 5); // clean: the whole list was reclaimed
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TableDescriptors {
    /// The descriptor array object: slot `j`'s property-list head lives
    /// at byte offset `j * 8`.
    table: Addr,
    slots: usize,
    site: AllocSite,
    fns: Fns,
    fault_typo: FaultId,
}

impl TableDescriptors {
    /// Allocates a descriptor array with `slots` property slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn new(p: &mut Process, slots: usize, site: &str) -> Result<Self, HeapError> {
        TableDescriptors::with_fault(p, slots, site, TABLE_TYPO_LEAK)
    }

    /// Like [`new`](Self::new), with a per-instance fault id for the
    /// index-typo call-site.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_fault(
        p: &mut Process,
        slots: usize,
        site: &str,
        fault: FaultId,
    ) -> Result<Self, HeapError> {
        assert!(slots > 0, "slot count must be positive");
        let fns = Fns::new(p);
        let table_site = p.site(&format!("{site}::table"));
        p.enter(fns.new);
        let table = p.malloc(slots * 8, table_site)?;
        p.leave();
        Ok(TableDescriptors {
            table,
            slots,
            site: p.site(&format!("{site}::prop_desc")),
            fns,
            fault_typo: fault,
        })
    }

    /// Number of descriptor slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The descriptor array's address.
    pub fn table(&self) -> Addr {
        self.table
    }

    fn slot_addr(&self, j: usize) -> Addr {
        assert!(j < self.slots, "slot {j} out of bounds");
        self.table.offset(j as u64 * 8)
    }

    /// Builds a fresh `len`-node property list for slot `j`, freeing
    /// any previous list.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn set_props(&mut self, p: &mut Process, j: usize, len: usize) -> Result<(), HeapError> {
        p.enter(self.fns.set_props);
        self.free_chain(p, j)?;
        let mut head = NULL;
        for _ in 0..len {
            let node = p.malloc(PROP_SIZE, self.site)?;
            p.write_scalar(node.offset(8))?;
            if !head.is_null() {
                p.write_ptr(node.offset(NEXT), head)?;
            }
            head = node;
        }
        if !head.is_null() {
            p.write_ptr(self.slot_addr(j), head)?;
        }
        p.leave();
        Ok(())
    }

    /// Reclaims slot `j`'s property list, returning the number of nodes
    /// actually freed.
    ///
    /// Fault hook [`TABLE_TYPO_LEAK`]: when it fires, the code walks
    /// the *wrong* slot (`(j + 1) % slots`, the Figure 11 `i`-for-`j`
    /// typo), then clears slot `j` anyway — detaching and leaking the
    /// whole list.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn collect_props(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        j: usize,
    ) -> Result<usize, HeapError> {
        p.enter(self.fns.collect_props);
        let freed = if plan.fires(self.fault_typo) {
            // The typo: frees the chain of the *wrong* slot (often
            // empty), then detaches slot j regardless.
            let wrong = (j + 1) % self.slots;
            let n = self.free_chain(p, wrong)?;
            if p.read_ptr(self.slot_addr(j))?.is_some() {
                p.clear_ptr(self.slot_addr(j))?;
            }
            n
        } else {
            self.free_chain(p, j)?
        };
        p.leave();
        Ok(freed)
    }

    /// Touches slot `j`'s list (read traffic), returning its length.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn walk_props(&self, p: &mut Process, j: usize) -> Result<usize, HeapError> {
        p.enter(self.fns.walk_props);
        let mut n = 0;
        let mut cur = p.read_ptr(self.slot_addr(j))?;
        while let Some(node) = cur {
            p.read(node)?;
            cur = p.read_ptr(node.offset(NEXT))?;
            n += 1;
        }
        p.leave();
        Ok(n)
    }

    /// Frees all property lists and the table, consuming the value.
    ///
    /// Leaked (detached) chains are *not* reclaimed — they are no
    /// longer reachable from the table, exactly like the real leak.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for j in 0..self.slots {
            self.free_chain(p, j)?;
        }
        p.free(self.table)?;
        p.leave();
        Ok(())
    }

    fn free_chain(&mut self, p: &mut Process, j: usize) -> Result<usize, HeapError> {
        let mut n = 0;
        let mut cur = p.read_ptr(self.slot_addr(j))?;
        if cur.is_some() {
            p.clear_ptr(self.slot_addr(j))?;
        }
        while let Some(node) = cur {
            cur = p.read_ptr(node.offset(NEXT))?;
            p.free(node)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::Settings;

    fn process() -> Process {
        Process::new(Settings::builder().frq(1_000).build().unwrap())
    }

    #[test]
    fn set_and_walk_props() {
        let mut p = process();
        let mut t = TableDescriptors::new(&mut p, 4, "t").unwrap();
        t.set_props(&mut p, 0, 3).unwrap();
        t.set_props(&mut p, 2, 7).unwrap();
        assert_eq!(t.walk_props(&mut p, 0).unwrap(), 3);
        assert_eq!(t.walk_props(&mut p, 1).unwrap(), 0);
        assert_eq!(t.walk_props(&mut p, 2).unwrap(), 7);
        // 1 table + 10 prop nodes.
        assert_eq!(p.heap().live_objects(), 11);
        p.graph().validate().unwrap();
    }

    #[test]
    fn set_props_replaces_old_list_without_leaking() {
        let mut p = process();
        let mut t = TableDescriptors::new(&mut p, 2, "t").unwrap();
        t.set_props(&mut p, 0, 5).unwrap();
        t.set_props(&mut p, 0, 2).unwrap();
        assert_eq!(p.heap().live_objects(), 3); // table + 2
    }

    #[test]
    fn clean_collect_frees_the_chain() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = TableDescriptors::new(&mut p, 4, "t").unwrap();
        t.set_props(&mut p, 1, 6).unwrap();
        assert_eq!(t.collect_props(&mut p, &mut plan, 1).unwrap(), 6);
        assert_eq!(p.heap().live_objects(), 1);
    }

    #[test]
    fn fig11_typo_detaches_and_leaks_the_chain() {
        let mut p = process();
        let mut plan = FaultPlan::single(TABLE_TYPO_LEAK);
        let mut t = TableDescriptors::new(&mut p, 4, "t").unwrap();
        t.set_props(&mut p, 1, 6).unwrap();
        // The typo frees slot 2's (empty) chain instead.
        assert_eq!(t.collect_props(&mut p, &mut plan, 1).unwrap(), 0);
        // All 6 nodes leaked: live but unreferenced from the table.
        assert_eq!(p.heap().live_objects(), 7);
        assert_eq!(t.walk_props(&mut p, 1).unwrap(), 0);
        // The detached head is now a root of the heap-graph.
        let g = p.graph();
        let roots = g.histogram().with_indegree(0);
        assert!(roots >= 2, "table + leaked head are roots, got {roots}");
        g.validate().unwrap();
    }

    #[test]
    fn free_all_does_not_reclaim_leaks() {
        let mut p = process();
        let mut plan = FaultPlan::single(TABLE_TYPO_LEAK);
        let mut t = TableDescriptors::new(&mut p, 4, "t").unwrap();
        t.set_props(&mut p, 1, 4).unwrap();
        t.collect_props(&mut p, &mut plan, 1).unwrap();
        t.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 4, "the leaked chain survives");
    }

    #[test]
    #[should_panic(expected = "slot 9 out of bounds")]
    fn out_of_bounds_slot_panics() {
        let mut p = process();
        let t = TableDescriptors::new(&mut p, 4, "t").unwrap();
        let _ = t.walk_props(&mut p, 9);
    }
}
