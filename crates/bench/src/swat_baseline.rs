//! The SWAT staleness-based memory-leak detector baseline (Table 1).
//!
//! A reproduction of the behaviourally relevant core of SWAT (Chilimbi
//! & Hauswirth, ASPLOS 2004), the tool the HeapMD paper compares
//! against in its Table 1: SWAT samples heap accesses adaptively and
//! marks objects that have not been touched for a "long" time as
//! leaked. The adaptive sampler itself lives in the `swat` crate
//! (where it also fronts the production-overhead monitoring path);
//! this module is purely the comparison baseline, so it lives with the
//! experiments that use it.
//!
//! What matters for the comparison is the *mechanism gap*:
//!
//! * SWAT tracks **staleness**, so it finds leaks HeapMD cannot —
//!   including *reachable* leaks, whose heap-graph shape stays healthy;
//! * for the same reason SWAT **false-positives on caches**: objects
//!   that are reachable and legitimate but simply not accessed again;
//! * HeapMD tracks **shape**, so it reports no staleness false
//!   positives, at the cost of missing leaks too small to move a
//!   degree metric.
//!
//! Both behaviours fall out of this implementation and are exercised in
//! the Table 1 experiment.

use heapmd::{AllocSite, HeapEvent, MetricSample, Monitor, MonitorCtx, ObjectId};
use serde::Serialize;
use std::collections::HashMap;
use swat::AdaptiveSampler;

/// Configuration for [`SwatDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SwatConfig {
    /// An object is stale (leaked) when it has not been accessed for
    /// this fraction of the events observed so far.
    pub staleness_frac: f64,
    /// Absolute floor on staleness (events): nothing is reported before
    /// the run is at least twice this old, which keeps startup quiet.
    pub min_staleness_events: u64,
    /// Sites with more than this many accesses are sampled at
    /// `1 / decimation` (SWAT's adaptive profiling: hot paths sampled
    /// less).
    pub hot_site_threshold: u64,
    /// Decimation factor for hot sites.
    pub decimation: u64,
    /// Minimum stale objects from one allocation site before the site
    /// is reported (single stragglers are noise).
    pub min_objects: usize,
}

impl Default for SwatConfig {
    fn default() -> Self {
        SwatConfig {
            staleness_frac: 0.5,
            min_staleness_events: 20_000,
            // SWAT decimates hot code paths over hours-long traces; the
            // simulated runs are ~10⁵ events, so the default threshold
            // keeps every access recorded. Lower it to exercise the
            // adaptive behaviour.
            hot_site_threshold: 1_000_000,
            decimation: 16,
            min_objects: 2,
        }
    }
}

/// One reported leak: an allocation site whose surviving objects all
/// went stale.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SwatLeak {
    /// The allocation site.
    pub site: AllocSite,
    /// Stale live objects allocated there.
    pub objects: usize,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Mean staleness (events since last access) of those objects.
    pub mean_staleness: f64,
}

#[derive(Debug, Clone, Copy)]
struct ObjState {
    site: AllocSite,
    size: usize,
    last_access: u64,
}

/// The staleness-based leak detector, attachable to a
/// [`heapmd::Process`] as a [`Monitor`].
#[derive(Debug)]
pub struct SwatDetector {
    config: SwatConfig,
    clock: u64,
    live: HashMap<ObjectId, ObjState>,
    sampler: AdaptiveSampler,
    /// Sites observed leaking at any scan, keyed by site; counts keep
    /// their maximum over scans (programs may free "leaked" memory at
    /// exit — SWAT watches the running program, not the corpse).
    reported: HashMap<AllocSite, SwatLeak>,
    finished: bool,
}

impl SwatDetector {
    /// Creates a detector.
    pub fn new(config: SwatConfig) -> Self {
        SwatDetector {
            sampler: AdaptiveSampler::new(config.hot_site_threshold, config.decimation),
            config,
            clock: 0,
            live: HashMap::new(),
            reported: HashMap::new(),
            finished: false,
        }
    }

    /// Leak reports accumulated over the run's scans, most bytes first.
    pub fn leaks(&self) -> Vec<SwatLeak> {
        let mut leaks: Vec<SwatLeak> = self.reported.values().cloned().collect();
        leaks.sort_by_key(|l| std::cmp::Reverse(l.bytes));
        leaks
    }

    /// Scans the live set for stale objects and folds per-site leak
    /// reports into the accumulated result.
    fn scan(&mut self) {
        let horizon = ((self.clock as f64 * self.config.staleness_frac) as u64)
            .max(self.config.min_staleness_events);
        let mut by_site: HashMap<AllocSite, (usize, u64, u64)> = HashMap::new();
        for st in self.live.values() {
            let staleness = self.clock.saturating_sub(st.last_access);
            if staleness >= horizon {
                let e = by_site.entry(st.site).or_default();
                e.0 += 1;
                e.1 += st.size as u64;
                e.2 += staleness;
            }
        }
        for (site, (objects, bytes, stale_sum)) in by_site {
            if objects < self.config.min_objects {
                continue;
            }
            let leak = SwatLeak {
                site,
                objects,
                bytes,
                mean_staleness: stale_sum as f64 / objects as f64,
            };
            self.reported
                .entry(site)
                .and_modify(|existing| {
                    if leak.objects > existing.objects {
                        *existing = leak.clone();
                    }
                })
                .or_insert(leak);
        }
    }

    /// Returns `true` once the monitored run has finished.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Objects still tracked as live.
    pub fn live_objects(&self) -> usize {
        self.live.len()
    }

    fn touch(&mut self, obj: ObjectId) {
        // Look the site up first so the sampler decision uses the
        // object's own allocation site frequency.
        if let Some(st) = self.live.get(&obj) {
            let site = st.site;
            if self.sampler.record(site) {
                if let Some(st) = self.live.get_mut(&obj) {
                    st.last_access = self.clock;
                }
            }
        }
    }
}

impl Monitor for SwatDetector {
    fn on_event(&mut self, _ctx: &MonitorCtx<'_>, event: &HeapEvent) {
        self.clock += 1;
        match *event {
            HeapEvent::Alloc {
                obj, size, site, ..
            } => {
                self.live.insert(
                    obj,
                    ObjState {
                        site,
                        size,
                        last_access: self.clock,
                    },
                );
            }
            HeapEvent::Free { obj, .. } => {
                self.live.remove(&obj);
            }
            HeapEvent::PtrWrite { src, .. } | HeapEvent::ScalarWrite { src, .. } => {
                self.touch(src);
            }
            HeapEvent::Read { obj } => {
                self.touch(obj);
            }
            HeapEvent::FnEnter { .. } | HeapEvent::FnExit { .. } => {}
        }
    }

    fn on_sample(&mut self, _ctx: &MonitorCtx<'_>, _sample: &MetricSample) {
        self.scan();
    }

    fn on_finish(&mut self, _ctx: &MonitorCtx<'_>) {
        self.finished = true;
        self.scan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapmd::{Process, Settings};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn test_config() -> SwatConfig {
        SwatConfig {
            // Unit-test runs are a few thousand events long.
            min_staleness_events: 500,
            ..SwatConfig::default()
        }
    }

    fn run_with_swat(config: SwatConfig, f: impl FnOnce(&mut Process)) -> Vec<SwatLeak> {
        let mut p = Process::new(Settings::builder().frq(1_000).build().unwrap());
        let swat = Rc::new(RefCell::new(SwatDetector::new(config)));
        p.attach(swat.clone());
        f(&mut p);
        let _ = p.finish("swat-test");
        assert!(swat.borrow().is_finished());
        let leaks = swat.borrow().leaks();
        leaks
    }

    #[test]
    fn leaked_objects_are_reported_by_site() {
        let leaks = run_with_swat(test_config(), |p| {
            // Leak 10 objects early, then churn long enough that they
            // go stale.
            let (leaky, leak_site) = (p.function("leaky"), p.site("leak_site"));
            let (churn, hot_site) = (p.function("churn"), p.site("hot_site"));
            for _ in 0..10 {
                p.enter(leaky);
                p.malloc(64, leak_site).unwrap();
                p.leave();
            }
            for _ in 0..300 {
                p.enter(churn);
                let a = p.malloc(32, hot_site).unwrap();
                p.read(a).unwrap();
                p.free(a).unwrap();
                p.leave();
            }
        });
        assert_eq!(leaks.len(), 1, "exactly the leak site: {leaks:?}");
        assert_eq!(leaks[0].objects, 10);
        assert_eq!(leaks[0].bytes, 640);
    }

    #[test]
    fn recently_accessed_objects_are_not_leaks() {
        let leaks = run_with_swat(test_config(), |p| {
            let working_set = p.site("working_set");
            let keep: Vec<_> = (0..10)
                .map(|_| p.malloc(64, working_set).unwrap())
                .collect();
            let work = p.function("work");
            for _ in 0..200 {
                p.enter(work);
                for &a in &keep {
                    p.read(a).unwrap();
                }
                p.leave();
            }
        });
        assert!(leaks.is_empty(), "live working set flagged: {leaks:?}");
    }

    #[test]
    fn reachable_stale_cache_is_a_false_positive() {
        // The cache is reachable (not a leak) but never accessed again:
        // SWAT flags it — the Table 1 false-positive mechanism.
        let leaks = run_with_swat(test_config(), |p| {
            let cache_entry = p.site("cache_entry");
            for _ in 0..10 {
                p.malloc(48, cache_entry).unwrap();
            }
            let (busy, scratch) = (p.function("busy"), p.site("scratch"));
            for _ in 0..300 {
                p.enter(busy);
                let a = p.malloc(16, scratch).unwrap();
                p.read(a).unwrap();
                p.free(a).unwrap();
                p.leave();
            }
        });
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].objects, 10);
    }

    #[test]
    fn freed_objects_never_leak() {
        let leaks = run_with_swat(test_config(), |p| {
            let tmp = p.site("tmp");
            let addrs: Vec<_> = (0..20).map(|_| p.malloc(32, tmp).unwrap()).collect();
            for a in addrs {
                p.free(a).unwrap();
            }
            let churn = p.function("churn");
            for _ in 0..200 {
                p.enter(churn);
                p.leave();
            }
        });
        assert!(leaks.is_empty());
    }

    #[test]
    fn min_objects_filters_single_stragglers() {
        let config = SwatConfig {
            min_objects: 2,
            ..test_config()
        };
        let leaks = run_with_swat(config, |p| {
            let lone = p.site("lone");
            p.malloc(64, lone).unwrap();
            let (churn, scratch) = (p.function("churn"), p.site("scratch"));
            for _ in 0..300 {
                p.enter(churn);
                let a = p.malloc(16, scratch).unwrap();
                p.read(a).unwrap();
                p.free(a).unwrap();
                p.leave();
            }
        });
        assert!(leaks.is_empty(), "a single stale object is not a report");
    }
}
