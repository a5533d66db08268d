//! The sampled-ingest front end: the production-overhead event filter.
//!
//! [`SampledIngest`] sits in front of every event consumer (the live
//! `Process` graph, the replay engines, the serve daemon's tenant
//! checks) and decides, per event, whether the downstream monitor sees
//! it:
//!
//! * **Alloc / Free always pass** — object counts, node counts, and
//!   graph membership stay exact, so the heap graph never sees a store
//!   against an object it was never told about (and the detector's
//!   population denominators are never estimates).
//! * **Pointer and scalar stores are burst-sampled per allocation
//!   site** through [`AdaptiveSampler`]: a site's first
//!   `hot_threshold` stores all record (cold sites keep full
//!   fidelity), then only every `decimation`-th records.
//! * Function enter/exit and reads always pass — they drive sampling
//!   cadence and staleness clocks, not graph shape.
//!
//! The filter keeps exact kept/total store counters; the resulting
//! [`SamplingInfo`] travels with the run (trace metadata, metric
//! report, model artifact) so calibrated ranges can be widened as a
//! function of the *measured* effective rate, never a guess.

use crate::AdaptiveSampler;
use serde::{Deserialize, Serialize};
use sim_heap::{AllocSite, HeapEvent};
use std::collections::HashMap;

/// Sampling knobs, as configured (CLI flags `--sample-hot-threshold`
/// and `--sample-decimation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// A site's first `hot_threshold` stores all record.
    pub hot_threshold: u64,
    /// Past the threshold, every `decimation`-th store records.
    /// `1` makes the filter an exact passthrough.
    pub decimation: u64,
}

impl SamplerConfig {
    /// The production default: full fidelity for the first 512 stores
    /// per site, 1/32 after. Cold sites — where the anomalies of small
    /// programs live — stay exact; hot-loop churn is decimated.
    pub const DEFAULT_HOT_THRESHOLD: u64 = 512;
    /// Default decimation factor.
    pub const DEFAULT_DECIMATION: u64 = 32;

    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `decimation` is zero.
    pub fn new(hot_threshold: u64, decimation: u64) -> Self {
        assert!(decimation > 0, "decimation must be positive");
        SamplerConfig {
            hot_threshold,
            decimation,
        }
    }

    /// `true` when this config admits every event (decimation 1).
    pub fn is_exact(&self) -> bool {
        self.decimation == 1
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            hot_threshold: Self::DEFAULT_HOT_THRESHOLD,
            decimation: Self::DEFAULT_DECIMATION,
        }
    }
}

/// What a sampled run actually did: the configured knobs plus exact
/// kept/total store counts. Serialized into trace metadata, metric
/// reports, and model artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingInfo {
    /// Configured hot-site threshold.
    pub hot_threshold: u64,
    /// Configured decimation factor.
    pub decimation: u64,
    /// Stores admitted to the graph.
    pub kept_stores: u64,
    /// Stores observed (admitted + dropped).
    pub total_stores: u64,
}

impl SamplingInfo {
    /// The measured effective sampling rate in `(0, 1]`: kept/total
    /// stores, `1.0` when no store was observed (nothing was dropped).
    pub fn rate(&self) -> f64 {
        if self.total_stores == 0 {
            1.0
        } else {
            self.kept_stores as f64 / self.total_stores as f64
        }
    }

    /// The config this run sampled under.
    pub fn config(&self) -> SamplerConfig {
        SamplerConfig {
            hot_threshold: self.hot_threshold,
            decimation: self.decimation.max(1),
        }
    }
}

/// The event filter: owns the per-site sampler and the object→site
/// index needed to key store events by their source allocation site.
#[derive(Debug, Clone)]
pub struct SampledIngest {
    sampler: AdaptiveSampler,
    config: SamplerConfig,
    /// Allocation site per object id below [`DENSE_OBJECT_CAP`] (dense:
    /// `SimHeap` object ids are sequential). `u32::MAX` = never
    /// allocated in this stream.
    site_of: Vec<u32>,
    /// Allocation sites of the objects at or above the cap.
    sparse_sites: HashMap<u64, u32>,
    kept_stores: u64,
    total_stores: u64,
}

const NO_SITE: u32 = u32::MAX;

/// Object ids below this index the dense site table (16 MiB at most,
/// as the heap graph's id index); larger ids, which only a stream of
/// millions of allocations reaches, go to a hash map.
const DENSE_OBJECT_CAP: u64 = 1 << 22;

impl SampledIngest {
    /// Creates a filter for `config`.
    pub fn new(config: SamplerConfig) -> Self {
        assert!(config.decimation > 0, "decimation must be positive");
        SampledIngest {
            sampler: AdaptiveSampler::new(config.hot_threshold, config.decimation),
            config,
            site_of: Vec::new(),
            sparse_sites: HashMap::new(),
            kept_stores: 0,
            total_stores: 0,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> SamplerConfig {
        self.config
    }

    /// Decides whether `event` reaches the monitor. Allocs register
    /// the object's site as a side effect; only pointer/scalar stores
    /// can be rejected.
    #[inline(always)]
    pub fn admit(&mut self, event: &HeapEvent) -> bool {
        match *event {
            HeapEvent::Alloc { obj, site, .. } => {
                if obj.0 >= DENSE_OBJECT_CAP {
                    self.sparse_sites.insert(obj.0, site.0);
                    return true;
                }
                let idx = obj.0 as usize;
                if idx >= self.site_of.len() {
                    self.site_of.resize(idx + 1, NO_SITE);
                }
                self.site_of[idx] = site.0;
                true
            }
            HeapEvent::PtrWrite { src, .. } | HeapEvent::ScalarWrite { src, .. } => {
                self.total_stores += 1;
                let site = if src.0 < DENSE_OBJECT_CAP {
                    self.site_of.get(src.0 as usize).copied()
                } else {
                    self.sparse_sites.get(&src.0).copied()
                }
                .unwrap_or(NO_SITE);
                // Stores against objects allocated before this stream
                // began (e.g. a salvaged trace suffix) are admitted:
                // dropping them could only lose information, and they
                // cannot be keyed to a site.
                let keep = site == NO_SITE || self.sampler.record(AllocSite(site));
                self.kept_stores += u64::from(keep);
                keep
            }
            _ => true,
        }
    }

    /// The measured outcome so far.
    pub fn info(&self) -> SamplingInfo {
        SamplingInfo {
            hot_threshold: self.config.hot_threshold,
            decimation: self.config.decimation,
            kept_stores: self.kept_stores,
            total_stores: self.total_stores,
        }
    }

    /// Effective sampling rate so far (see [`SamplingInfo::rate`]).
    pub fn effective_rate(&self) -> f64 {
        self.info().rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::{Addr, ObjectId};

    fn alloc(obj: u64, site: u32) -> HeapEvent {
        HeapEvent::Alloc {
            obj: ObjectId(obj),
            addr: Addr::new(0x1000 + obj * 64),
            size: 24,
            site: AllocSite(site),
        }
    }

    fn store(src: u64) -> HeapEvent {
        HeapEvent::PtrWrite {
            src: ObjectId(src),
            offset: 8,
            value: Addr::new(0x2000),
            old_value: None,
        }
    }

    #[test]
    fn allocs_and_frees_always_pass() {
        let mut f = SampledIngest::new(SamplerConfig::new(0, 8));
        for i in 0..100 {
            assert!(f.admit(&alloc(i, 1)));
            assert!(f.admit(&HeapEvent::Free {
                obj: ObjectId(i),
                addr: Addr::new(0x1000 + i * 64),
                size: 24,
            }));
        }
        assert_eq!(f.info().total_stores, 0);
        assert_eq!(f.effective_rate(), 1.0);
    }

    #[test]
    fn hot_site_stores_decimate_and_rate_is_measured() {
        let mut f = SampledIngest::new(SamplerConfig::new(4, 4));
        f.admit(&alloc(0, 7));
        let kept: usize = (0..20).filter(|_| f.admit(&store(0))).count();
        // 4 cold + every 4th of the 16 hot = 8.
        assert_eq!(kept, 8);
        let info = f.info();
        assert_eq!(info.total_stores, 20);
        assert_eq!(info.kept_stores, 8);
        assert!((info.rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn huge_object_and_site_ids_stay_off_the_dense_tables() {
        let id = 1 << 24;
        let mut f = SampledIngest::new(SamplerConfig::new(1, 2));
        assert!(f.admit(&alloc(id, id as u32)));
        let kept: Vec<bool> = (0..4).map(|_| f.admit(&store(id))).collect();
        assert_eq!(
            kept,
            [true, false, true, false],
            "keyed to the object's site"
        );
        assert!(f.site_of.capacity() as u64 <= DENSE_OBJECT_CAP);
        assert!(f.sampler.dense_capacity() <= crate::sampling::DENSE_SITE_CAP as usize);
    }

    #[test]
    fn decimation_one_is_exact_passthrough() {
        let mut f = SampledIngest::new(SamplerConfig::new(0, 1));
        f.admit(&alloc(0, 1));
        assert!((0..1000).all(|_| f.admit(&store(0))));
        assert_eq!(f.effective_rate(), 1.0);
    }

    #[test]
    fn unknown_source_objects_are_admitted() {
        let mut f = SampledIngest::new(SamplerConfig::new(0, 1000));
        assert!((0..50).all(|_| f.admit(&store(42))), "no alloc seen");
        assert_eq!(f.info().kept_stores, 50);
    }

    #[test]
    fn sampling_info_round_trips_through_json() {
        let mut f = SampledIngest::new(SamplerConfig::default());
        f.admit(&alloc(0, 1));
        f.admit(&store(0));
        let info = f.info();
        let json = serde_json::to_string(&info).unwrap();
        let back: SamplingInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info, back);
    }

    #[test]
    fn empty_stream_rate_is_one() {
        let info = SamplingInfo {
            hot_threshold: 0,
            decimation: 32,
            kept_stores: 0,
            total_stores: 0,
        };
        assert_eq!(info.rate(), 1.0);
    }
}
