//! A reachable-but-stale cache — the SWAT false-positive scenario —
//! plus an unbounded reachable registry, the leak class HeapMD cannot
//! see.

use crate::fault_ids::CACHE_REACHABLE_LEAK;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};

/// Entry layout: `[0] = next, [8] = payload`.
const NEXT: u64 = 0;
const ENTRY_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        new: func("StaleCache::new"),
        insert: func("StaleCache::insert"),
        touch_recent: func("StaleCache::touch_recent"),
        free_all: func("StaleCache::free_all"),
    }
}

/// A cache whose entries stay reachable from its heap-allocated header
/// but are rarely (or never) read again.
///
/// Two paper behaviours hang off this structure:
///
/// * **SWAT false positive** (§4.2, Table 1): a *bounded* cache of
///   reachable-but-stale objects. Staleness-based SWAT reports them as
///   leaks; they are not. HeapMD, which does not track staleness,
///   stays quiet.
/// * **Invisible reachable leak** (§4.2): with
///   [`CACHE_REACHABLE_LEAK`] enabled, [`insert`](Self::insert) ignores
///   the capacity bound and the structure grows without limit while
///   remaining fully reachable — a true leak SWAT finds and HeapMD
///   (and Purify) cannot, because the heap-graph's *shape* stays a
///   healthy chain.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::StaleCache;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut cache = StaleCache::new(&mut p, 8, "render_cache")?;
/// for i in 0..20 {
///     cache.insert(&mut p, &mut plan, i)?;
/// }
/// assert_eq!(cache.len(), 8, "bounded when the leak fault is off");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaleCache {
    /// Heap-allocated header: `[0]` = entry-chain head.
    header: Addr,
    entries: Vec<Addr>,
    capacity: usize,
    site: AllocSite,
    fns: Fns,
    fault_leak: FaultId,
}

impl StaleCache {
    /// Allocates the cache header.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn new(p: &mut Process, capacity: usize, site: &str) -> Result<Self, HeapError> {
        StaleCache::with_fault(p, capacity, site, CACHE_REACHABLE_LEAK)
    }

    /// Like [`new`](Self::new), with a per-instance fault id for the
    /// skipped-eviction call-site.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_fault(
        p: &mut Process,
        capacity: usize,
        site: &str,
        fault: FaultId,
    ) -> Result<Self, HeapError> {
        assert!(capacity > 0, "capacity must be positive");
        let fns = Fns::new(p);
        let header_site = p.site(&format!("{site}::header"));
        p.enter(fns.new);
        let header = p.malloc(16, header_site)?;
        p.leave();
        Ok(StaleCache {
            header,
            entries: Vec::new(),
            capacity,
            site: p.site(&format!("{site}::entry")),
            fns,
            fault_leak: fault,
        })
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an entry at the chain head.
    ///
    /// Clean behaviour evicts the oldest entry beyond `capacity`.
    /// Fault hook [`CACHE_REACHABLE_LEAK`]: the eviction is skipped —
    /// the chain grows forever, reachable but stale.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn insert(
        &mut self,
        p: &mut Process,
        plan: &mut FaultPlan,
        _key: u64,
    ) -> Result<Addr, HeapError> {
        p.enter(self.fns.insert);
        let entry = p.malloc(ENTRY_SIZE, self.site)?;
        p.write_scalar(entry.offset(8))?;
        if let Some(head) = p.read_ptr(self.header)? {
            p.write_ptr(entry.offset(NEXT), head)?;
        }
        p.write_ptr(self.header, entry)?;
        self.entries.push(entry);
        let leak = plan.fires(self.fault_leak);
        if !leak && self.entries.len() > self.capacity {
            // Evict the oldest (tail) entry: unlink + free.
            let oldest = self.entries.remove(0);
            let penultimate = *self.entries.first().expect("capacity > 0");
            // The tail is reached from the second-oldest entry.
            let _ = penultimate;
            self.unlink_tail(p, oldest)?;
        }
        p.leave();
        Ok(entry)
    }

    /// Reads the most recent `n` entries (the hot set). Everything
    /// older goes stale — the SWAT false-positive bait.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn touch_recent(&self, p: &mut Process, n: usize) -> Result<(), HeapError> {
        p.enter(self.fns.touch_recent);
        for &e in self.entries.iter().rev().take(n) {
            p.read(e)?;
        }
        p.leave();
        Ok(())
    }

    /// Frees everything, consuming the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for &e in &self.entries {
            p.free(e)?;
        }
        self.entries.clear();
        p.free(self.header)?;
        p.leave();
        Ok(())
    }

    fn unlink_tail(&mut self, p: &mut Process, tail: Addr) -> Result<(), HeapError> {
        // Walk from the head to the entry whose next == tail.
        let mut cur = p.read_ptr(self.header)?.unwrap_or(NULL);
        if cur == tail {
            p.clear_ptr(self.header)?;
        } else {
            while !cur.is_null() {
                let next = p.read_ptr(cur.offset(NEXT))?.unwrap_or(NULL);
                if next == tail {
                    p.clear_ptr(cur.offset(NEXT))?;
                    break;
                }
                cur = next;
            }
        }
        p.free(tail)?;
        Ok(())
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
    fn bounded_cache_evicts_oldest() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut c = StaleCache::new(&mut p, 4, "t").unwrap();
        for i in 0..10 {
            c.insert(&mut p, &mut plan, i).unwrap();
        }
        assert_eq!(c.len(), 4);
        // header + 4 entries.
        assert_eq!(p.heap().live_objects(), 5);
        p.graph().validate().unwrap();
    }

    #[test]
    fn reachable_leak_fault_grows_without_bound() {
        let mut p = process();
        let mut plan = FaultPlan::single(CACHE_REACHABLE_LEAK);
        let mut c = StaleCache::new(&mut p, 4, "t").unwrap();
        for i in 0..50 {
            c.insert(&mut p, &mut plan, i).unwrap();
        }
        assert_eq!(c.len(), 50);
        assert_eq!(p.heap().live_objects(), 51);
        // Crucially, the heap-graph still looks like a healthy chain:
        // every entry reachable, no dangling slots.
        assert_eq!(p.graph().dangling_count(), 0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn stale_entries_have_old_access_ticks() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut c = StaleCache::new(&mut p, 10, "t").unwrap();
        for i in 0..10 {
            c.insert(&mut p, &mut plan, i).unwrap();
        }
        c.touch_recent(&mut p, 2).unwrap();
        // Oldest entry untouched since insertion; newest touched now.
        let oldest = c.entries[0];
        let newest = *c.entries.last().unwrap();
        let t_old = p.heap().object_at(oldest).unwrap().last_access_tick();
        let t_new = p.heap().object_at(newest).unwrap().last_access_tick();
        assert!(t_new > t_old);
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut c = StaleCache::new(&mut p, 8, "t").unwrap();
        for i in 0..8 {
            c.insert(&mut p, &mut plan, i).unwrap();
        }
        c.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
    }
}
