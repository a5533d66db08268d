//! The simulated heap itself.

use crate::addr::Addr;
use crate::alloc::{AddressAllocator, AllocatorConfig};
use crate::error::HeapError;
use crate::event::{AllocEffect, FreeEffect, ReallocEffect, WriteEffect};
use crate::object::{AllocSite, ObjectId, ObjectRecord};
use crate::shadow::ShadowMap;
use crate::stats::HeapStats;

/// Configuration for [`SimHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapConfig {
    /// Address-space behaviour (base, alignment, reuse policy).
    pub allocator: AllocatorConfig,
    /// Optional cap on live bytes; allocations beyond it fail with
    /// [`HeapError::OutOfMemory`]. `None` means unbounded.
    pub capacity: Option<usize>,
}

/// A simulated process heap.
///
/// `SimHeap` plays the role of the instrumented allocator plus the
/// instrumented store instructions in the paper's pipeline: every
/// operation validates the access (catching wild writes, double frees,
/// use-after-free on non-recycled addresses) and returns an *effect*
/// describing exactly what changed, which the execution logger feeds to
/// the heap-graph and to any attached monitors.
///
/// Addresses are recycled by default, so a use-after-free may silently
/// succeed against an unrelated object — precisely the real-world
/// behaviour that lets HeapMD observe shared-state bugs as degree-metric
/// anomalies rather than crashes.
///
/// # Example
///
/// ```
/// use sim_heap::{AllocSite, SimHeap};
///
/// # fn main() -> Result<(), sim_heap::HeapError> {
/// let mut heap = SimHeap::new();
/// let node = heap.alloc(24, AllocSite(0))?.addr;
/// let next = heap.alloc(24, AllocSite(0))?.addr;
/// heap.write_ptr(node.offset(8), next)?; // node.next = next
/// let rec = heap.resolve(node.offset(8)).expect("interior pointer resolves");
/// assert_eq!(rec.start(), node);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimHeap {
    allocator: AddressAllocator,
    /// The record slab. Slots on `free_slots` are dead but keep their
    /// slot-vec capacity for reuse.
    records: Vec<ObjectRecord>,
    free_slots: Vec<u32>,
    /// O(1) interior-pointer resolution: address granule → slab slot.
    shadow: ShadowMap,
    /// Live objects the shadow map refused (unaligned or out-of-range
    /// starts), sorted by start address. Empty for the default
    /// allocator configuration.
    spill: Vec<ObjRange>,
    /// Every start the allocator bumped fresh, in address order (bump
    /// addresses only grow). The allocator never splits blocks, so a
    /// recycled start was fresh once: this is every start ever handed
    /// out, binary-searched only to classify a failed free.
    fresh_starts: Vec<u64>,
    next_id: u64,
    tick: u64,
    capacity: Option<usize>,
    stats: HeapStats,
}

/// One live allocation in the sorted range index.
#[derive(Debug, Clone, Copy)]
struct ObjRange {
    start: u64,
    end: u64,
    slot: u32,
}

impl Default for SimHeap {
    fn default() -> Self {
        SimHeap::new()
    }
}

impl SimHeap {
    /// Creates a heap with the default configuration (unbounded, 16-byte
    /// alignment, address reuse on).
    pub fn new() -> Self {
        SimHeap::with_config(HeapConfig::default())
    }

    /// Creates a heap with an explicit configuration.
    pub fn with_config(config: HeapConfig) -> Self {
        SimHeap {
            allocator: AddressAllocator::new(config.allocator),
            records: Vec::new(),
            free_slots: Vec::new(),
            shadow: ShadowMap::new(),
            spill: Vec::new(),
            fresh_starts: Vec::new(),
            next_id: 0,
            tick: 0,
            capacity: config.capacity,
            stats: HeapStats::default(),
        }
    }

    /// The heap's logical clock: one tick per mutator operation.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        // Every slab slot is either live or on the free list.
        self.records.len() - self.free_slots.len()
    }

    /// Bytes currently live.
    pub fn live_bytes(&self) -> u64 {
        self.stats.live_bytes
    }

    /// Allocates `size` bytes, recording `site` as the provenance.
    ///
    /// # Errors
    ///
    /// [`HeapError::ZeroSizeAlloc`] for zero-byte requests, and
    /// [`HeapError::OutOfMemory`] when a configured capacity would be
    /// exceeded.
    pub fn alloc(&mut self, size: usize, site: AllocSite) -> Result<AllocEffect, HeapError> {
        self.alloc_slot(size, site).map(|(eff, _)| eff)
    }

    /// [`alloc`](Self::alloc), also returning the new object's slab slot.
    fn alloc_slot(
        &mut self,
        size: usize,
        site: AllocSite,
    ) -> Result<(AllocEffect, u32), HeapError> {
        if size == 0 {
            self.stats.faults += 1;
            return Err(HeapError::ZeroSizeAlloc);
        }
        if let Some(cap) = self.capacity {
            if self.stats.live_bytes as usize + size > cap {
                self.stats.faults += 1;
                return Err(HeapError::OutOfMemory {
                    requested: size,
                    live_bytes: self.stats.live_bytes as usize,
                });
            }
        }
        self.tick += 1;
        let frontier_before = self.allocator.frontier();
        let raw = self.allocator.allocate(size);
        let recycled = raw < frontier_before;
        let addr = Addr::new(raw);
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.records[s as usize].reset(id, addr, size, site, self.tick);
                s
            }
            None => {
                let s = u32::try_from(self.records.len()).expect("heap slab overflow");
                self.records
                    .push(ObjectRecord::new(id, addr, size, site, self.tick));
                s
            }
        };
        debug_assert!(
            self.object_slot(raw).is_none(),
            "allocator handed out a live address"
        );
        let end = raw + size as u64;
        if !self.shadow.insert(raw, end, slot) {
            let pos = self.spill.partition_point(|r| r.start < raw);
            self.spill.insert(
                pos,
                ObjRange {
                    start: raw,
                    end,
                    slot,
                },
            );
        }
        if !recycled {
            self.fresh_starts.push(raw);
        }

        self.stats.allocs += 1;
        self.stats.bytes_allocated += size as u64;
        self.stats.live_bytes += size as u64;
        self.stats.peak_live_bytes = self.stats.peak_live_bytes.max(self.stats.live_bytes);
        self.stats.peak_live_objects = self.stats.peak_live_objects.max(self.live_objects() as u64);
        heapmd_obs::count!("sim_heap_alloc_total");

        Ok((
            AllocEffect {
                id,
                addr,
                size,
                recycled,
            },
            slot,
        ))
    }

    /// Frees the object starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`HeapError::NullDeref`] for null, [`HeapError::DoubleFree`] when
    /// `addr` was an object start that is no longer live, and
    /// [`HeapError::InvalidFree`] when `addr` never was an object start
    /// (including interior pointers).
    pub fn free(&mut self, addr: Addr) -> Result<FreeEffect, HeapError> {
        if addr.is_null() {
            self.stats.faults += 1;
            return Err(HeapError::NullDeref);
        }
        let raw = addr.get();
        let Some(slot) = self.object_slot(raw) else {
            self.stats.faults += 1;
            return Err(if self.fresh_starts.binary_search(&raw).is_ok() {
                HeapError::DoubleFree(addr)
            } else {
                HeapError::InvalidFree(addr)
            });
        };
        self.tick += 1;
        let size_u64 = self.records[slot as usize].size() as u64;
        if self.shadow.lookup(raw) == Some(slot) {
            self.shadow.remove(raw, raw + size_u64);
        } else {
            let pos = self.spill.partition_point(|r| r.start < raw);
            debug_assert_eq!(self.spill[pos].slot, slot);
            self.spill.remove(pos);
        }
        let rec = &mut self.records[slot as usize];
        let id = rec.id();
        let size = rec.size();
        let slots = rec.take_slots();
        self.free_slots.push(slot);
        self.allocator.release(raw, size);
        self.stats.frees += 1;
        self.stats.live_bytes -= size as u64;
        heapmd_obs::count!("sim_heap_free_total");
        Ok(FreeEffect {
            id,
            addr,
            size,
            slots,
        })
    }

    /// Resizes the object at `addr` to `new_size`, moving it.
    ///
    /// Modelled as free + alloc + copy of the pointer slots that fit in
    /// the new block, matching both C `realloc` semantics and what the
    /// paper's instrumentation would observe.
    ///
    /// # Errors
    ///
    /// Same conditions as [`free`](Self::free) and [`alloc`](Self::alloc).
    pub fn realloc(
        &mut self,
        addr: Addr,
        new_size: usize,
        site: AllocSite,
    ) -> Result<ReallocEffect, HeapError> {
        if new_size == 0 {
            self.stats.faults += 1;
            return Err(HeapError::ZeroSizeAlloc);
        }
        let freed = self.free(addr)?;
        let (alloc, slot) = self.alloc_slot(new_size, site)?;
        let mut moved = Vec::new();
        for &(off, target) in &freed.slots {
            if (off as usize) + 8 <= new_size {
                self.records[slot as usize].set_slot(off, target);
                moved.push((off, target));
            }
        }
        self.stats.reallocs += 1;
        heapmd_obs::count!("sim_heap_realloc_total");
        Ok(ReallocEffect {
            freed,
            alloc,
            moved_slots: moved,
        })
    }

    /// Stores the pointer `value` at `slot_addr` (which must lie inside a
    /// live object with at least 8 bytes remaining).
    ///
    /// Storing [`NULL`](crate::NULL) clears the slot.
    ///
    /// # Errors
    ///
    /// [`HeapError::NullDeref`], [`HeapError::WildAccess`] when
    /// `slot_addr` is not inside any live object, and
    /// [`HeapError::TornAccess`] when fewer than 8 bytes remain.
    pub fn write_ptr(&mut self, slot_addr: Addr, value: Addr) -> Result<WriteEffect, HeapError> {
        if slot_addr.is_null() {
            self.stats.faults += 1;
            return Err(HeapError::NullDeref);
        }
        // One binary search resolves the containing object; the slab
        // slot is plain data, so the mutable access that follows is
        // borrow-free.
        let raw = slot_addr.get();
        match self.resolve_slot(raw) {
            Some(s) => {
                let tick = self.tick + 1;
                let rec = &mut self.records[s as usize];
                let off = raw - rec.start().get();
                let remaining = rec.size() - off as usize;
                if remaining < 8 {
                    self.stats.faults += 1;
                    return Err(HeapError::TornAccess {
                        addr: slot_addr,
                        remaining,
                    });
                }
                self.tick = tick;
                rec.touch(tick);
                let old = if value.is_null() {
                    rec.clear_slot(off)
                } else {
                    rec.set_slot(off, value)
                };
                self.stats.ptr_writes += 1;
                heapmd_obs::count!("sim_heap_ptr_store_total");
                Ok(WriteEffect {
                    src: rec.id(),
                    offset: off,
                    old_value: old,
                })
            }
            None => {
                self.stats.faults += 1;
                Err(HeapError::WildAccess(slot_addr))
            }
        }
    }

    /// Stores a non-pointer value at `slot_addr`, clearing any pointer
    /// the slot held.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_ptr`](Self::write_ptr), except scalar
    /// stores may touch the final 7 bytes of an object.
    pub fn write_scalar(&mut self, slot_addr: Addr) -> Result<WriteEffect, HeapError> {
        if slot_addr.is_null() {
            self.stats.faults += 1;
            return Err(HeapError::NullDeref);
        }
        let raw = slot_addr.get();
        match self.resolve_slot(raw) {
            Some(s) => {
                self.tick += 1;
                let tick = self.tick;
                let rec = &mut self.records[s as usize];
                let off = raw - rec.start().get();
                rec.touch(tick);
                let old = rec.clear_slot(off);
                self.stats.scalar_writes += 1;
                Ok(WriteEffect {
                    src: rec.id(),
                    offset: off,
                    old_value: old,
                })
            }
            None => {
                self.stats.faults += 1;
                Err(HeapError::WildAccess(slot_addr))
            }
        }
    }

    /// Reads the pointer stored at `slot_addr`, returning the id of the
    /// object read alongside the value.
    ///
    /// The value is `None` when the slot does not currently hold a
    /// pointer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`write_ptr`](Self::write_ptr).
    pub fn read_ptr(&mut self, slot_addr: Addr) -> Result<(ObjectId, Option<Addr>), HeapError> {
        if slot_addr.is_null() {
            self.stats.faults += 1;
            return Err(HeapError::NullDeref);
        }
        let raw = slot_addr.get();
        match self.resolve_slot(raw) {
            Some(s) => {
                let tick = self.tick + 1;
                let rec = &mut self.records[s as usize];
                let off = raw - rec.start().get();
                let remaining = rec.size() - off as usize;
                if remaining < 8 {
                    self.stats.faults += 1;
                    return Err(HeapError::TornAccess {
                        addr: slot_addr,
                        remaining,
                    });
                }
                self.tick = tick;
                rec.touch(tick);
                self.stats.reads += 1;
                Ok((rec.id(), rec.slot(off)))
            }
            None => {
                self.stats.faults += 1;
                Err(HeapError::WildAccess(slot_addr))
            }
        }
    }

    /// Records a read access to the object containing `addr`.
    ///
    /// # Errors
    ///
    /// [`HeapError::NullDeref`] or [`HeapError::WildAccess`].
    pub fn read(&mut self, addr: Addr) -> Result<ObjectId, HeapError> {
        if addr.is_null() {
            self.stats.faults += 1;
            return Err(HeapError::NullDeref);
        }
        let raw = addr.get();
        match self.resolve_slot(raw) {
            Some(s) => {
                self.tick += 1;
                let tick = self.tick;
                let rec = &mut self.records[s as usize];
                rec.touch(tick);
                self.stats.reads += 1;
                Ok(rec.id())
            }
            None => {
                self.stats.faults += 1;
                Err(HeapError::WildAccess(addr))
            }
        }
    }

    /// Resolves an address (possibly interior) to the live object that
    /// contains it.
    pub fn resolve(&self, addr: Addr) -> Option<&ObjectRecord> {
        self.resolve_slot(addr.get())
            .map(|s| &self.records[s as usize])
    }

    /// The live object starting exactly at `addr`, if any.
    pub fn object_at(&self, addr: Addr) -> Option<&ObjectRecord> {
        self.object_slot(addr.get())
            .map(|s| &self.records[s as usize])
    }

    /// Iterates over live objects in address order.
    pub fn iter_live(&self) -> impl Iterator<Item = &ObjectRecord> {
        let mut slots: Vec<u32> = (0..self.records.len() as u32)
            .filter(|&s| self.object_slot(self.records[s as usize].start().get()) == Some(s))
            .collect();
        slots.sort_unstable_by_key(|&s| self.records[s as usize].start());
        slots.into_iter().map(move |s| &self.records[s as usize])
    }

    /// Returns `true` when the address range of a former object has been
    /// handed out again (used by tests asserting re-binding behaviour).
    pub fn is_live_start(&self, addr: Addr) -> bool {
        self.object_slot(addr.get()).is_some()
    }

    /// The slab slot of the live object starting exactly at `raw`.
    #[inline]
    fn object_slot(&self, raw: u64) -> Option<u32> {
        self.resolve_slot(raw)
            .filter(|&s| self.records[s as usize].start().get() == raw)
    }

    /// The slab slot of the live object containing `raw`: one shadow
    /// lookup (bounds-verified, since the tail granule is conservative),
    /// then the spill index for shadow-refused objects.
    #[inline]
    fn resolve_slot(&self, raw: u64) -> Option<u32> {
        if let Some(s) = self.shadow.lookup(raw) {
            let rec = &self.records[s as usize];
            let start = rec.start().get();
            if start <= raw && raw < start + rec.size() as u64 {
                return Some(s);
            }
        }
        if self.spill.is_empty() {
            return None;
        }
        let idx = self.spill.partition_point(|r| r.start <= raw);
        let i = idx.checked_sub(1)?;
        let r = self.spill.get(i)?;
        (raw < r.end).then_some(r.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NULL;

    fn site() -> AllocSite {
        AllocSite(1)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut h = SimHeap::new();
        let a = h.alloc(40, site()).unwrap();
        assert_eq!(h.live_objects(), 1);
        assert_eq!(h.live_bytes(), 40);
        let eff = h.free(a.addr).unwrap();
        assert_eq!(eff.id, a.id);
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn zero_size_alloc_rejected() {
        let mut h = SimHeap::new();
        assert_eq!(h.alloc(0, site()), Err(HeapError::ZeroSizeAlloc));
        assert_eq!(h.stats().faults, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut h = SimHeap::with_config(HeapConfig {
            capacity: Some(100),
            ..HeapConfig::default()
        });
        h.alloc(80, site()).unwrap();
        let err = h.alloc(40, site()).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { requested: 40, .. }));
    }

    #[test]
    fn double_free_detected() {
        let mut h = SimHeap::new();
        let a = h.alloc(16, site()).unwrap().addr;
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(HeapError::DoubleFree(a)));
    }

    #[test]
    fn invalid_free_of_interior_pointer() {
        let mut h = SimHeap::new();
        let a = h.alloc(32, site()).unwrap().addr;
        assert_eq!(
            h.free(a.offset(8)),
            Err(HeapError::InvalidFree(a.offset(8)))
        );
        assert_eq!(h.free(NULL), Err(HeapError::NullDeref));
    }

    #[test]
    fn freed_address_rebinding_changes_identity() {
        let mut h = SimHeap::new();
        let a = h.alloc(24, site()).unwrap();
        h.free(a.addr).unwrap();
        let b = h.alloc(24, site()).unwrap();
        assert_eq!(a.addr, b.addr, "address recycled");
        assert_ne!(a.id, b.id, "identity is fresh");
        assert!(b.recycled);
    }

    #[test]
    fn ptr_write_tracks_slots_and_old_values() {
        let mut h = SimHeap::new();
        let a = h.alloc(32, site()).unwrap().addr;
        let t1 = h.alloc(16, site()).unwrap().addr;
        let t2 = h.alloc(16, site()).unwrap().addr;
        let w1 = h.write_ptr(a.offset(8), t1).unwrap();
        assert_eq!(w1.old_value, None);
        assert_eq!(w1.offset, 8);
        let w2 = h.write_ptr(a.offset(8), t2).unwrap();
        assert_eq!(w2.old_value, Some(t1));
        assert_eq!(h.read_ptr(a.offset(8)).unwrap().1, Some(t2));
        // null store clears the slot
        let w3 = h.write_ptr(a.offset(8), NULL).unwrap();
        assert_eq!(w3.old_value, Some(t2));
        assert_eq!(h.read_ptr(a.offset(8)).unwrap().1, None);
    }

    #[test]
    fn scalar_write_clears_pointer_slot() {
        let mut h = SimHeap::new();
        let a = h.alloc(16, site()).unwrap().addr;
        let t = h.alloc(16, site()).unwrap().addr;
        h.write_ptr(a, t).unwrap();
        let w = h.write_scalar(a).unwrap();
        assert_eq!(w.old_value, Some(t));
        assert_eq!(h.read_ptr(a).unwrap().1, None);
    }

    #[test]
    fn wild_and_torn_accesses_rejected() {
        let mut h = SimHeap::new();
        let a = h.alloc(16, site()).unwrap().addr;
        assert!(matches!(
            h.write_ptr(Addr::new(0xdead_0000), a),
            Err(HeapError::WildAccess(_))
        ));
        assert!(matches!(
            h.write_ptr(a.offset(12), a),
            Err(HeapError::TornAccess { remaining: 4, .. })
        ));
        assert!(matches!(h.write_ptr(NULL, a), Err(HeapError::NullDeref)));
        // scalar writes may touch the tail
        assert!(h.write_scalar(a.offset(12)).is_ok());
    }

    #[test]
    fn use_after_free_on_unrecycled_address_is_wild() {
        let mut h = SimHeap::with_config(HeapConfig {
            allocator: AllocatorConfig {
                reuse_addresses: false,
                ..AllocatorConfig::default()
            },
            capacity: None,
        });
        let a = h.alloc(16, site()).unwrap().addr;
        h.free(a).unwrap();
        assert!(matches!(h.read(a), Err(HeapError::WildAccess(_))));
    }

    #[test]
    fn interior_pointer_resolution() {
        let mut h = SimHeap::new();
        let a = h.alloc(64, site()).unwrap();
        let rec = h.resolve(a.addr.offset(63)).unwrap();
        assert_eq!(rec.id(), a.id);
        assert!(h.resolve(a.addr.offset(64)).is_none());
        assert!(h.object_at(a.addr).is_some());
        assert!(h.object_at(a.addr.offset(8)).is_none());
    }

    #[test]
    fn realloc_preserves_fitting_slots() {
        let mut h = SimHeap::new();
        let a = h.alloc(32, site()).unwrap().addr;
        let t1 = h.alloc(16, site()).unwrap().addr;
        let t2 = h.alloc(16, site()).unwrap().addr;
        h.write_ptr(a, t1).unwrap();
        h.write_ptr(a.offset(24), t2).unwrap();
        let eff = h.realloc(a, 16, site()).unwrap();
        // slot at 0 fits in 16 bytes, slot at 24 does not
        assert_eq!(eff.moved_slots, vec![(0, t1)]);
        let new_addr = eff.alloc.addr;
        assert_eq!(h.read_ptr(new_addr).unwrap().1, Some(t1));
        assert_eq!(h.stats().reallocs, 1);
    }

    #[test]
    fn read_updates_staleness() {
        let mut h = SimHeap::new();
        let a = h.alloc(16, site()).unwrap().addr;
        let birth = h.object_at(a).unwrap().last_access_tick();
        h.read(a.offset(4)).unwrap();
        assert!(h.object_at(a).unwrap().last_access_tick() > birth);
    }

    #[test]
    fn stats_track_operations() {
        let mut h = SimHeap::new();
        let a = h.alloc(16, site()).unwrap().addr;
        let b = h.alloc(16, site()).unwrap().addr;
        h.write_ptr(a, b).unwrap();
        h.read(a).unwrap();
        h.free(b).unwrap();
        let s = h.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.ptr_writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.live_objects(), 1);
        assert_eq!(s.peak_live_bytes, 32);
    }

    #[test]
    fn iter_live_in_address_order() {
        let mut h = SimHeap::new();
        let mut addrs: Vec<Addr> = (0..5).map(|_| h.alloc(16, site()).unwrap().addr).collect();
        addrs.sort();
        let got: Vec<Addr> = h.iter_live().map(|r| r.start()).collect();
        assert_eq!(got, addrs);
    }

    #[test]
    fn free_effect_reports_outgoing_slots() {
        let mut h = SimHeap::new();
        let a = h.alloc(32, site()).unwrap().addr;
        let t = h.alloc(16, site()).unwrap().addr;
        h.write_ptr(a.offset(16), t).unwrap();
        let eff = h.free(a).unwrap();
        assert_eq!(eff.slots, vec![(16, t)]);
    }
}
