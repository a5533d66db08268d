//! Adaptive access sampling.
//!
//! SWAT "samples code paths at a rate inversely proportional to their
//! execution frequency. Thus, rarely executed code paths are sampled at
//! a greater frequency than frequently executed ones" (HeapMD §5).
//! This sampler keys on allocation sites as the code-path proxy: cold
//! sites record every access; once a site crosses a hotness threshold,
//! only every `decimation`-th access is recorded.
//!
//! The per-site counters live in a dense `Vec` indexed by the site id
//! (allocation sites are interned small integers, the same slab idiom
//! the heap graph uses), so the per-event cost is an index and an
//! increment — no hashing on the hot path. Ids at or above
//! [`DENSE_SITE_CAP`], which no interned program reaches, go to a hash
//! map, so a stream naming a huge id costs one entry, not a vector as
//! long as the id.

use sim_heap::AllocSite;
use std::collections::HashMap;

/// Site ids below this index the dense counters (512 KiB at most).
pub(crate) const DENSE_SITE_CAP: u32 = 1 << 16;

/// Per-site adaptive access sampler.
///
/// # Example
///
/// ```
/// use sim_heap::AllocSite;
/// use swat::AdaptiveSampler;
///
/// let mut s = AdaptiveSampler::new(4, 2);
/// let site = AllocSite(1);
/// // Cold phase: everything records.
/// assert!((0..4).all(|_| s.record(site)));
/// // Hot phase: every 2nd access records.
/// let hot: Vec<bool> = (0..4).map(|_| s.record(site)).collect();
/// assert_eq!(hot, [false, true, false, true]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AdaptiveSampler {
    /// Access count per site id below [`DENSE_SITE_CAP`]; sites the
    /// program never touched cost nothing beyond the dense slot.
    counts: Vec<u64>,
    /// Access counts of the sites at or above the cap.
    sparse: HashMap<u32, u64>,
    hot_threshold: u64,
    decimation: u64,
}

impl AdaptiveSampler {
    /// Creates a sampler: sites stay fully sampled until
    /// `hot_threshold` accesses, then drop to `1/decimation`.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn new(hot_threshold: u64, decimation: u64) -> Self {
        assert!(decimation > 0, "decimation must be positive");
        AdaptiveSampler {
            counts: Vec::new(),
            sparse: HashMap::new(),
            hot_threshold,
            decimation,
        }
    }

    #[inline]
    fn slot(&mut self, site: AllocSite) -> &mut u64 {
        if site.0 >= DENSE_SITE_CAP {
            return self.sparse.entry(site.0).or_insert(0);
        }
        let idx = site.0 as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        &mut self.counts[idx]
    }

    /// Capacity of the dense counters, in sites.
    #[cfg(test)]
    pub(crate) fn dense_capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Registers an access at `site`; returns `true` when the access
    /// should be recorded.
    #[inline]
    pub fn record(&mut self, site: AllocSite) -> bool {
        let hot = self.hot_threshold;
        let dec = self.decimation;
        let count = self.slot(site);
        *count += 1;
        *count <= hot || (*count - hot).is_multiple_of(dec)
    }

    /// Total accesses seen at `site`.
    pub fn accesses(&self, site: AllocSite) -> u64 {
        if site.0 >= DENSE_SITE_CAP {
            return self.sparse.get(&site.0).copied().unwrap_or(0);
        }
        self.counts.get(site.0 as usize).copied().unwrap_or(0)
    }

    /// Number of distinct sites seen.
    pub fn sites(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count() + self.sparse.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_sites_record_everything() {
        let mut s = AdaptiveSampler::new(100, 16);
        let site = AllocSite(7);
        assert!((0..100).all(|_| s.record(site)));
        assert_eq!(s.accesses(site), 100);
    }

    #[test]
    fn hot_sites_decimate() {
        let mut s = AdaptiveSampler::new(2, 4);
        let site = AllocSite(1);
        s.record(site);
        s.record(site); // threshold reached
        let recorded: usize = (0..16).filter(|_| s.record(site)).count();
        assert_eq!(recorded, 4, "1/4 of 16 hot accesses record");
    }

    #[test]
    fn sites_are_independent() {
        let mut s = AdaptiveSampler::new(1, 2);
        let a = AllocSite(1);
        let b = AllocSite(2);
        s.record(a);
        s.record(a);
        assert!(s.record(b), "b is still cold");
        assert_eq!(s.sites(), 2);
        assert_eq!(s.accesses(AllocSite(99)), 0);
    }

    #[test]
    fn sparse_site_ids_are_tolerated() {
        let mut s = AdaptiveSampler::new(1, 2);
        assert!(s.record(AllocSite(1_000)));
        assert_eq!(s.accesses(AllocSite(1_000)), 1);
        assert_eq!(s.sites(), 1);
    }

    #[test]
    fn ids_past_the_dense_cap_count_alike() {
        let mut s = AdaptiveSampler::new(1, 2);
        let (low, high) = (AllocSite(DENSE_SITE_CAP - 1), AllocSite(DENSE_SITE_CAP));
        let low_kept: Vec<bool> = (0..5).map(|_| s.record(low)).collect();
        let high_kept: Vec<bool> = (0..5).map(|_| s.record(high)).collect();
        assert_eq!(low_kept, high_kept);
        assert_eq!(s.accesses(high), 5);
        assert_eq!(s.sites(), 2);
    }

    #[test]
    fn decimation_one_never_drops() {
        let mut s = AdaptiveSampler::new(0, 1);
        let site = AllocSite(3);
        assert!((0..1_000).all(|_| s.record(site)));
    }

    #[test]
    #[should_panic(expected = "decimation must be positive")]
    fn zero_decimation_panics() {
        AdaptiveSampler::new(1, 0);
    }
}
