//! A chained hash table — host of the Figure 9 "performance bug".

use crate::fault_ids::HASH_DEGENERATE;
use faults::{FaultId, FaultPlan};
use heapmd::{Addr, AllocSite, HeapError, Process, NULL};
use std::collections::HashMap;

/// Entry layout: `[0] = next, [8] = key word`.
const NEXT: u64 = 0;
const ENTRY_SIZE: usize = 16;

heapmd::interned! {
    /// Interned ids of the instrumented methods.
    struct Fns {
        new: func("SimHashTable::new"),
        insert: func("SimHashTable::insert"),
        lookup: func("SimHashTable::lookup"),
        remove: func("SimHashTable::remove"),
        longest_chain: func("SimHashTable::longest_chain"),
        free_all: func("SimHashTable::free_all"),
    }
}

/// A separate-chaining hash table whose bucket array and entries live
/// on the simulated heap.
///
/// In a healthy table most entries sit in short chains: the entry
/// pointed at by the bucket array has indegree 1, chains are shallow,
/// and the *indegree = 1* / *outdegree = 0* percentages are steady. The
/// paper's "performance bug" — "a poorly chosen hash-function that
/// caused significant collisions for a few inputs" — turns the table
/// into one long chain. Enable [`HASH_DEGENERATE`] to reproduce it: the
/// hash collapses to bucket 0, chain nodes become a long `outdeg = 1`
/// run, and leaves (empty-bucket entries elsewhere) vanish.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
/// use faults::FaultPlan;
/// use sim_ds::SimHashTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(100).build()?);
/// let mut plan = FaultPlan::new();
/// let mut map = SimHashTable::new(&mut p, 16, "symbols")?;
/// for k in 0..40 {
///     map.insert(&mut p, &mut plan, k)?;
/// }
/// assert!(map.lookup(&mut p, 17)?);
/// assert!(!map.lookup(&mut p, 999)?);
/// assert!(map.longest_chain(&mut p)? <= 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimHashTable {
    table: Addr,
    buckets: usize,
    len: usize,
    /// Shadow key per entry address (navigation only).
    keys: HashMap<Addr, u64>,
    site: AllocSite,
    fns: Fns,
    fault_degenerate: FaultId,
}

impl SimHashTable {
    /// Allocates the bucket array.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn new(p: &mut Process, buckets: usize, site: &str) -> Result<Self, HeapError> {
        SimHashTable::with_fault(p, buckets, site, HASH_DEGENERATE)
    }

    /// Like [`new`](Self::new), with a per-instance fault id for the
    /// degenerate-hash call-site.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn with_fault(
        p: &mut Process,
        buckets: usize,
        site: &str,
        fault: FaultId,
    ) -> Result<Self, HeapError> {
        assert!(buckets > 0, "bucket count must be positive");
        let fns = Fns::new(p);
        let table_site = p.site(&format!("{site}::buckets"));
        p.enter(fns.new);
        let table = p.malloc(buckets * 8, table_site)?;
        p.leave();
        Ok(SimHashTable {
            table,
            buckets,
            len: 0,
            keys: HashMap::new(),
            site: p.site(&format!("{site}::entry")),
            fns,
            fault_degenerate: fault,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bucket array's address.
    pub fn table(&self) -> Addr {
        self.table
    }

    fn bucket_slot(&self, b: usize) -> Addr {
        self.table.offset(b as u64 * 8)
    }

    fn hash(&self, key: u64, plan: &mut FaultPlan) -> usize {
        if plan.fires(self.fault_degenerate) {
            0
        } else {
            (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % self.buckets
        }
    }

    /// Inserts `key` at the head of its chain.
    ///
    /// Fault hook [`HASH_DEGENERATE`]: all keys land in bucket 0.
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
        let b = self.hash(key, plan);
        let entry = p.malloc(ENTRY_SIZE, self.site)?;
        p.write_scalar(entry.offset(8))?; // key word
        self.keys.insert(entry, key);
        if let Some(head) = p.read_ptr(self.bucket_slot(b))? {
            p.write_ptr(entry.offset(NEXT), head)?;
        }
        p.write_ptr(self.bucket_slot(b), entry)?;
        self.len += 1;
        p.leave();
        Ok(entry)
    }

    /// Looks up `key`, walking its chain. The chain walked is the one
    /// the *clean* hash names — so after degenerate-hash insertions,
    /// lookups miss, exactly like the real bug's slow path.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn lookup(&self, p: &mut Process, key: u64) -> Result<bool, HeapError> {
        p.enter(self.fns.lookup);
        let b = (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % self.buckets;
        let mut cur = p.read_ptr(self.bucket_slot(b))?;
        let mut found = false;
        while let Some(entry) = cur {
            p.read(entry)?;
            if self.keys.get(&entry) == Some(&key) {
                found = true;
                break;
            }
            cur = p.read_ptr(entry.offset(NEXT))?;
        }
        p.leave();
        Ok(found)
    }

    /// Removes one entry with `key`, if present.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn remove(&mut self, p: &mut Process, key: u64) -> Result<bool, HeapError> {
        p.enter(self.fns.remove);
        for b in 0..self.buckets {
            let mut prev: Option<Addr> = None;
            let mut cur = p.read_ptr(self.bucket_slot(b))?;
            while let Some(entry) = cur {
                if self.keys.get(&entry) == Some(&key) {
                    let next = p.read_ptr(entry.offset(NEXT))?.unwrap_or(NULL);
                    match prev {
                        Some(prev) => p.write_ptr(prev.offset(NEXT), next)?,
                        None => p.write_ptr(self.bucket_slot(b), next)?,
                    }
                    p.free(entry)?;
                    self.keys.remove(&entry);
                    self.len -= 1;
                    p.leave();
                    return Ok(true);
                }
                prev = Some(entry);
                cur = p.read_ptr(entry.offset(NEXT))?;
            }
        }
        p.leave();
        Ok(false)
    }

    /// Length of the longest chain (collision diagnostic).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn longest_chain(&self, p: &mut Process) -> Result<usize, HeapError> {
        p.enter(self.fns.longest_chain);
        let mut longest = 0;
        for b in 0..self.buckets {
            let mut n = 0;
            let mut cur = p.read_ptr(self.bucket_slot(b))?;
            while let Some(entry) = cur {
                n += 1;
                cur = p.read_ptr(entry.offset(NEXT))?;
            }
            longest = longest.max(n);
        }
        p.leave();
        Ok(longest)
    }

    /// Frees every entry and the bucket array, consuming the table.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn free_all(mut self, p: &mut Process) -> Result<(), HeapError> {
        p.enter(self.fns.free_all);
        for b in 0..self.buckets {
            let mut cur = p.read_ptr(self.bucket_slot(b))?;
            while let Some(entry) = cur {
                cur = p.read_ptr(entry.offset(NEXT))?;
                p.free(entry)?;
            }
        }
        p.free(self.table)?;
        self.keys.clear();
        self.len = 0;
        p.leave();
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
    fn insert_lookup_remove_round_trip() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut m = SimHashTable::new(&mut p, 8, "t").unwrap();
        for k in 0..30 {
            m.insert(&mut p, &mut plan, k).unwrap();
        }
        assert_eq!(m.len(), 30);
        for k in 0..30 {
            assert!(m.lookup(&mut p, k).unwrap(), "missing key {k}");
        }
        assert!(!m.lookup(&mut p, 1000).unwrap());
        assert!(m.remove(&mut p, 17).unwrap());
        assert!(!m.lookup(&mut p, 17).unwrap());
        assert!(!m.remove(&mut p, 17).unwrap());
        assert_eq!(m.len(), 29);
        p.graph().validate().unwrap();
    }

    #[test]
    fn clean_hash_spreads_chains() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut m = SimHashTable::new(&mut p, 64, "t").unwrap();
        for k in 0..256 {
            m.insert(&mut p, &mut plan, k).unwrap();
        }
        let longest = m.longest_chain(&mut p).unwrap();
        assert!(longest <= 14, "expected spread chains, longest = {longest}");
    }

    #[test]
    fn degenerate_hash_builds_one_long_chain() {
        let mut p = process();
        let mut plan = FaultPlan::single(HASH_DEGENERATE);
        let mut m = SimHashTable::new(&mut p, 64, "t").unwrap();
        for k in 0..100 {
            m.insert(&mut p, &mut plan, k).unwrap();
        }
        assert_eq!(m.longest_chain(&mut p).unwrap(), 100);
        // The chain is a 100-node outdeg=1 run (head has indeg 1 from
        // the bucket array).
        let m1 = p.graph().metrics();
        assert!(m1.get(heapmd::MetricKind::Outdeg1) > 90.0);
        p.graph().validate().unwrap();
    }

    #[test]
    fn free_all_releases_everything() {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut m = SimHashTable::new(&mut p, 16, "t").unwrap();
        for k in 0..50 {
            m.insert(&mut p, &mut plan, k).unwrap();
        }
        m.free_all(&mut p).unwrap();
        assert_eq!(p.heap().live_objects(), 0);
    }

    #[test]
    #[should_panic(expected = "bucket count must be positive")]
    fn zero_buckets_panics() {
        let mut p = process();
        let _ = SimHashTable::new(&mut p, 0, "t");
    }
}
