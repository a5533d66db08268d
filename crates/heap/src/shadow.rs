//! Shadow address map: O(1) interior-pointer resolution.
//!
//! Sorted-vector range indexes resolve an address in O(log n), but pay
//! O(n) `Vec::insert`/`remove` memmoves whenever the allocator recycles
//! an address into the middle of the live span — and recycling is the
//! *common* case for the churn-heavy workloads HeapMD cares about. At a
//! few thousand live objects that memmove dominates the whole ingest
//! path.
//!
//! [`ShadowMap`] replaces the sorted vector with a radix page table over
//! the simulated address space, in the style of ASan/memory-sanitizer
//! shadow memory: one `u32` slot value per 8-byte granule, reachable in
//! three dependent loads. Marking an object on alloc and clearing it on
//! free cost O(size / 8); lookup is O(1) and independent of the live-set
//! size.
//!
//! The map is *conservative at the tail granule*: an object whose size
//! is not a multiple of 8 marks the final partial granule too, so the
//! caller must verify `start <= raw < end` against its own record before
//! trusting a hit. Two live objects can never claim the same granule as
//! long as every inserted start is 8-aligned and ranges are disjoint —
//! the conditions [`ShadowMap::insert`] enforces by *refusing* the
//! insert (returning `false`) so the caller can fall back to a spill
//! index for irregular objects.
//!
//! Memory: pages are materialized lazily, 32 KiB of shadow per 64 KiB of
//! touched address space, and reused across alloc/free churn. Addresses
//! at or above 2^40 are refused (simulated heaps bump upward from
//! [`AllocatorConfig::base`](crate::AllocatorConfig); nothing real gets
//! near 2^40), and so are objects longer than 1 MiB, so one insert
//! writes at most 128 Ki granules whatever size a trace declares.

/// Granule size: one shadow slot per 8 bytes of address space.
pub const GRANULE_BITS: u32 = 3;
/// One page of shadow covers 64 KiB of address space.
const PAGE_BITS: u32 = 16;
/// One L2 directory covers 256 MiB of address space.
const L2_BITS: u32 = 28;
/// Addresses must fall below 2^40 (4096 L1 entries).
const ADDR_BITS: u32 = 40;
/// Longest range [`ShadowMap::insert`] claims; longer objects go to the
/// caller's spill index.
const MAX_OBJECT_BYTES: u64 = 1 << 20;

const GRANULES_PER_PAGE: usize = 1 << (PAGE_BITS - GRANULE_BITS);
const PAGES_PER_L2: usize = 1 << (L2_BITS - PAGE_BITS);
const MAX_L1: usize = 1 << (ADDR_BITS - L2_BITS);

/// Sentinel for an unclaimed granule.
pub const EMPTY: u32 = u32::MAX;

type Page = [u32; GRANULES_PER_PAGE];
type L2 = Vec<Option<Box<Page>>>;

/// A lazily-populated radix shadow map from address granules to `u32`
/// slot values.
///
/// # Example
///
/// ```
/// use sim_heap::ShadowMap;
///
/// let mut shadow = ShadowMap::new();
/// assert!(shadow.insert(0x1000_0000, 0x1000_0018, 7));
/// assert_eq!(shadow.lookup(0x1000_0010), Some(7));
/// shadow.remove(0x1000_0000, 0x1000_0018);
/// assert_eq!(shadow.lookup(0x1000_0010), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShadowMap {
    l1: Vec<Option<Box<L2>>>,
}

impl ShadowMap {
    /// Creates an empty map. No shadow is allocated until the first
    /// insert.
    pub fn new() -> Self {
        ShadowMap::default()
    }

    /// Claims every granule intersecting `[start, end)` for `slot`.
    ///
    /// Returns `false` — claiming nothing — when the range cannot be
    /// represented exactly (`start` not 8-aligned, an empty or inverted
    /// range, an address at or beyond 2^40, a `slot` equal to the
    /// [`EMPTY`] sentinel, or any intersecting granule already claimed
    /// by an overlapping range), or is longer than 1 MiB, whose claim
    /// would cost one write per 8 bytes. The caller keeps such objects
    /// in its spill index instead.
    pub fn insert(&mut self, start: u64, end: u64, slot: u32) -> bool {
        if start & ((1 << GRANULE_BITS) - 1) != 0
            || start >= end
            || end - start > MAX_OBJECT_BYTES
            || end > 1 << ADDR_BITS
            || slot == EMPTY
        {
            return false;
        }
        let g0 = start >> GRANULE_BITS;
        let g1 = end.div_ceil(1 << GRANULE_BITS);
        // Page-local fast path: the whole object falls inside one shadow
        // page (any object under 64 KiB that doesn't straddle a page
        // edge), so check-and-mark is two passes over one slice instead
        // of a radix walk per granule.
        if g0 >> (PAGE_BITS - GRANULE_BITS) == (g1 - 1) >> (PAGE_BITS - GRANULE_BITS) {
            let i0 = (g0 as usize) & (GRANULES_PER_PAGE - 1);
            let n = (g1 - g0) as usize;
            let page = self.page_mut(start);
            let claim = &mut page[i0..i0 + n];
            if claim.iter().any(|&v| v != EMPTY) {
                return false;
            }
            claim.fill(slot);
            return true;
        }
        // First pass: refuse on any collision so a failed insert has no
        // effect (the caller will spill the whole object).
        for g in g0..g1 {
            if self.granule(g << GRANULE_BITS) != EMPTY {
                return false;
            }
        }
        for g in g0..g1 {
            *self.granule_mut(g << GRANULE_BITS) = slot;
        }
        true
    }

    /// Clears every granule intersecting `[start, end)`.
    ///
    /// Only call for ranges previously claimed via a successful
    /// [`insert`](Self::insert) (spilled objects never touch the map).
    pub fn remove(&mut self, start: u64, end: u64) {
        let g0 = start >> GRANULE_BITS;
        let g1 = end.div_ceil(1 << GRANULE_BITS);
        if g0 >> (PAGE_BITS - GRANULE_BITS) == (g1 - 1) >> (PAGE_BITS - GRANULE_BITS) {
            let i0 = (g0 as usize) & (GRANULES_PER_PAGE - 1);
            let n = (g1 - g0) as usize;
            let page = self.page_mut(start);
            page[i0..i0 + n].fill(EMPTY);
            return;
        }
        for g in g0..g1 {
            *self.granule_mut(g << GRANULE_BITS) = EMPTY;
        }
    }

    /// The slot claiming the granule containing `raw`, if any.
    ///
    /// The tail granule of an odd-sized object is claimed conservatively,
    /// so the caller must bounds-check a hit against the object's exact
    /// `[start, end)` before trusting it.
    #[inline]
    pub fn lookup(&self, raw: u64) -> Option<u32> {
        let l1i = (raw >> L2_BITS) as usize;
        let l2 = self.l1.get(l1i)?.as_ref()?;
        let page = l2[(raw >> PAGE_BITS) as usize & (PAGES_PER_L2 - 1)].as_ref()?;
        let v = page[(raw >> GRANULE_BITS) as usize & (GRANULES_PER_PAGE - 1)];
        (v != EMPTY).then_some(v)
    }

    /// Whether some granule intersecting `[start, end)` is claimed by a
    /// slot for which `hit` returns `true`. Unmaterialized directories
    /// and pages are skipped whole, so a long range over sparse shadow
    /// costs little; `hit` sees each run of one slot once.
    pub fn any_claim(&self, start: u64, end: u64, mut hit: impl FnMut(u32) -> bool) -> bool {
        let end = end.min(1 << ADDR_BITS);
        if start >= end {
            return false;
        }
        let (mut g, g1) = (start >> GRANULE_BITS, end.div_ceil(1 << GRANULE_BITS));
        while g < g1 {
            let raw = g << GRANULE_BITS;
            let Some(l2) = self.l1.get((raw >> L2_BITS) as usize) else {
                break;
            };
            let Some(l2) = l2.as_ref() else {
                g = ((raw >> L2_BITS) + 1) << (L2_BITS - GRANULE_BITS);
                continue;
            };
            let stop = (((raw >> PAGE_BITS) + 1) << (PAGE_BITS - GRANULE_BITS)).min(g1);
            if let Some(page) = &l2[(raw >> PAGE_BITS) as usize & (PAGES_PER_L2 - 1)] {
                let i0 = g as usize & (GRANULES_PER_PAGE - 1);
                let mut last = EMPTY;
                for &v in &page[i0..i0 + (stop - g) as usize] {
                    if v != EMPTY && v != last {
                        if hit(v) {
                            return true;
                        }
                        last = v;
                    }
                }
            }
            g = stop;
        }
        false
    }

    /// Current granule value without materializing pages.
    fn granule(&self, raw: u64) -> u32 {
        self.lookup(raw).unwrap_or(EMPTY)
    }

    /// Mutable granule slot, materializing directory levels on demand.
    fn granule_mut(&mut self, raw: u64) -> &mut u32 {
        let page = self.page_mut(raw);
        &mut page[(raw >> GRANULE_BITS) as usize & (GRANULES_PER_PAGE - 1)]
    }

    /// The whole shadow page containing `raw`, materializing directory
    /// levels on demand.
    fn page_mut(&mut self, raw: u64) -> &mut Page {
        let l1i = (raw >> L2_BITS) as usize;
        debug_assert!(l1i < MAX_L1, "address beyond shadow range");
        if self.l1.len() <= l1i {
            self.l1.resize_with(l1i + 1, || None);
        }
        let l2 = self.l1[l1i].get_or_insert_with(|| {
            let mut v = Vec::new();
            v.resize_with(PAGES_PER_L2, || None);
            Box::new(v)
        });
        l2[(raw >> PAGE_BITS) as usize & (PAGES_PER_L2 - 1)]
            .get_or_insert_with(|| Box::new([EMPTY; GRANULES_PER_PAGE]))
    }

    /// Clears every claimed granule while keeping the materialized
    /// radix structure — directory levels and pages stay allocated —
    /// so a pooled consumer can reuse one warmed map across streams
    /// instead of re-faulting pages in.
    pub fn clear(&mut self) {
        for l2 in self.l1.iter_mut().flatten() {
            for page in l2.iter_mut().flatten() {
                page.fill(EMPTY);
            }
        }
    }

    /// Approximate heap footprint of the materialized shadow, in bytes.
    pub fn shadow_bytes(&self) -> usize {
        let mut bytes = self.l1.capacity() * size_of::<Option<Box<L2>>>();
        for l2 in self.l1.iter().flatten() {
            bytes += PAGES_PER_L2 * size_of::<Option<Box<Page>>>();
            bytes += l2.iter().flatten().count() * size_of::<Page>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_resolves_nothing() {
        let s = ShadowMap::new();
        assert_eq!(s.lookup(0), None);
        assert_eq!(s.lookup(0x1000_0000), None);
        assert_eq!(s.lookup(u64::MAX), None);
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut s = ShadowMap::new();
        assert!(s.insert(0x1000_0000, 0x1000_0020, 3));
        for off in 0..0x20 {
            assert_eq!(s.lookup(0x1000_0000 + off), Some(3), "offset {off}");
        }
        assert_eq!(s.lookup(0x1000_0020), None);
        assert_eq!(s.lookup(0x0fff_ffff), None);
        s.remove(0x1000_0000, 0x1000_0020);
        assert_eq!(s.lookup(0x1000_0000), None);
    }

    #[test]
    fn any_claim_finds_claims_across_pages_and_skips_sparse_shadow() {
        let mut s = ShadowMap::new();
        let far = (3 << L2_BITS) + (5 << PAGE_BITS) + 0x40;
        assert!(s.insert(far, far + 0x20, 4));
        assert!(s.insert(0x100, 0x110, 7));
        let claims = |s: &ShadowMap, start, end| {
            let mut seen = Vec::new();
            s.any_claim(start, end, |v| {
                seen.push(v);
                false
            });
            seen
        };
        assert_eq!(
            claims(&s, 0, 1 << 40),
            [7, 4],
            "every claim, in address order"
        );
        assert_eq!(claims(&s, 0x108, 0x109), [7]);
        assert!(claims(&s, 0x110, far).is_empty());
        assert_eq!(claims(&s, far + 0x1f, u64::MAX), [4]);
        assert!(s.any_claim(0, u64::MAX, |v| v == 4));
        assert!(
            !s.any_claim(0x110, 0x100, |_| true),
            "an empty range claims nothing"
        );
    }

    #[test]
    fn odd_size_marks_tail_granule_conservatively() {
        let mut s = ShadowMap::new();
        assert!(s.insert(0x100, 0x114, 9)); // 20 bytes: granules 0x20..0x23
        assert_eq!(s.lookup(0x113), Some(9));
        // Conservative: the tail granule covers up to 0x118.
        assert_eq!(s.lookup(0x117), Some(9));
        assert_eq!(s.lookup(0x118), None);
    }

    #[test]
    fn unaligned_or_bad_ranges_are_refused() {
        let mut s = ShadowMap::new();
        assert!(!s.insert(0x104, 0x120, 1), "unaligned start");
        assert!(!s.insert(0x100, 0x100, 1), "empty range");
        assert!(!s.insert(0x120, 0x100, 1), "inverted range");
        assert!(!s.insert(1 << 40, (1 << 40) + 8, 1), "beyond range");
        assert!(!s.insert(0x100, 0x108, EMPTY), "sentinel slot");
        assert_eq!(s.lookup(0x100), None, "refused inserts claim nothing");
    }

    #[test]
    fn huge_ranges_are_refused_without_materializing_shadow() {
        let mut s = ShadowMap::new();
        assert!(!s.insert(1 << 36, (1 << 36) + (1 << 38), 1));
        assert_eq!(s.shadow_bytes(), 0, "a refused insert materializes no page");
        assert!(!s.insert(0x100, 0x100 + MAX_OBJECT_BYTES + 8, 1));
        assert!(s.insert(0x100, 0x100 + MAX_OBJECT_BYTES, 1));
        assert_eq!(s.lookup(0x100 + MAX_OBJECT_BYTES - 1), Some(1));
    }

    #[test]
    fn overlap_is_refused_without_side_effects() {
        let mut s = ShadowMap::new();
        assert!(s.insert(0x100, 0x120, 1));
        assert!(!s.insert(0x118, 0x130, 2), "granule collision");
        assert_eq!(s.lookup(0x118), Some(1), "original claim intact");
        assert_eq!(s.lookup(0x128), None, "failed insert marked nothing");
        // Disjoint follow-up succeeds.
        assert!(s.insert(0x120, 0x130, 2));
        assert_eq!(s.lookup(0x128), Some(2));
    }

    #[test]
    fn reuse_after_remove() {
        let mut s = ShadowMap::new();
        assert!(s.insert(0x100, 0x118, 1));
        s.remove(0x100, 0x118);
        assert!(s.insert(0x100, 0x140, 2), "freed granules are reclaimable");
        assert_eq!(s.lookup(0x100), Some(2));
    }

    #[test]
    fn spans_page_and_directory_boundaries() {
        let mut s = ShadowMap::new();
        let page_edge = (1u64 << PAGE_BITS) - 8;
        assert!(s.insert(page_edge, page_edge + 64, 5));
        assert_eq!(s.lookup(page_edge), Some(5));
        assert_eq!(s.lookup(1 << PAGE_BITS), Some(5));
        let l2_edge = (1u64 << L2_BITS) - 16;
        assert!(s.insert(l2_edge, l2_edge + 64, 6));
        assert_eq!(s.lookup(l2_edge + 32), Some(6));
    }

    #[test]
    fn shadow_bytes_reports_materialized_pages() {
        let mut s = ShadowMap::new();
        assert_eq!(s.shadow_bytes(), 0);
        assert!(s.insert(0x1000_0000, 0x1000_0010, 1));
        let one_page = s.shadow_bytes();
        assert!(one_page >= size_of::<Page>());
        // Same page: no growth.
        assert!(s.insert(0x1000_0100, 0x1000_0110, 2));
        assert_eq!(s.shadow_bytes(), one_page);
    }
}
