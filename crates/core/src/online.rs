//! Simultaneous model construction and checking — the third design of
//! §2, "currently not supported by HeapMD", employed by DIDUCE.
//!
//! [`OnlineLearner`] needs no training phase: it learns each metric's
//! range *while* checking. A value outside the range learned so far is
//! reported, and then — as in DIDUCE — the range is **relaxed** to
//! include it, so a genuine phase change is reported once and absorbed,
//! while a bug that keeps pushing a metric further produces a trail of
//! reports with shrinking confidence.
//!
//! This trades the calibrated-model design's near-zero false positives
//! for zero training cost; the paper's two-phase design remains the
//! primary interface ([`crate::ModelBuilder`] + [`crate::AnomalyDetector`]).

use crate::bug::{AnomalyKind, BugReport, Direction};
use crate::incident::{DegreeSnapshot, IncidentBundle, SeriesData};
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::MetricSample;
use crate::settings::Settings;
use heap_graph::{MetricKind, METRIC_COUNT};

/// Upper bound on retained incident bundles: online mode can report on
/// every relaxation early in a run, and bundles carry series snapshots.
const MAX_INCIDENTS: usize = 16;

/// One metric's learned interval.
#[derive(Debug, Clone, Copy, Default)]
struct Learned {
    range: Option<(f64, f64)>,
    /// Samples that fit the range since it last changed (confidence).
    confirmed: u64,
}

/// A training-free anomaly detector that learns ranges on the fly.
///
/// # Example
///
/// ```
/// use heapmd::{OnlineLearner, Process, Settings};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let settings = Settings::builder().frq(10).build()?;
/// let learner = Rc::new(RefCell::new(OnlineLearner::new(settings.clone())));
/// let mut p = Process::new(settings);
/// p.attach(learner.clone());
/// // … run the program: anomalies appear in learner.borrow().reports()
/// # for _ in 0..50 { p.enter("w"); p.malloc(16, "n")?; p.leave(); }
/// # let _ = p.finish("run");
/// # let _ = learner.borrow().reports().len();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineLearner {
    settings: Settings,
    learned: [Learned; METRIC_COUNT],
    samples_seen: usize,
    reports: Vec<BugReport>,
    incidents: Vec<IncidentBundle>,
    /// Store-sampling rate of the observed stream (from the monitor
    /// context; 1.0 when standalone). Sampled streams get their learned
    /// ranges checked with confidence-widened slack.
    stream_rate: f64,
}

impl OnlineLearner {
    /// Creates a learner; `settings.warmup_samples` are absorbed
    /// without checking, and `settings.range_margin` is the slack
    /// applied before a deviation counts.
    pub fn new(settings: Settings) -> Self {
        OnlineLearner {
            settings,
            learned: [Learned::default(); METRIC_COUNT],
            samples_seen: 0,
            reports: Vec::new(),
            incidents: Vec::new(),
            stream_rate: 1.0,
        }
    }

    /// Incident bundles captured when reports were raised while running
    /// as an attached monitor (capped at a small fixed number; online
    /// bundles carry no call stacks — there is no armed window).
    pub fn incidents(&self) -> &[IncidentBundle] {
        &self.incidents
    }

    /// Takes ownership of the incident bundles.
    pub fn take_incidents(&mut self) -> Vec<IncidentBundle> {
        std::mem::take(&mut self.incidents)
    }

    /// Anomaly reports so far. Each carries the range *as learned at
    /// detection time* — later samples may have relaxed it further.
    pub fn reports(&self) -> &[BugReport] {
        &self.reports
    }

    /// Takes ownership of the reports.
    pub fn take_reports(&mut self) -> Vec<BugReport> {
        std::mem::take(&mut self.reports)
    }

    /// The range currently learned for `kind`, if any sample arrived.
    pub fn learned_range(&self, kind: MetricKind) -> Option<(f64, f64)> {
        self.learned[kind.index()].range
    }

    /// Consumes one sample: checks against the learned ranges, then
    /// relaxes them.
    pub fn observe(&mut self, sample: &MetricSample) {
        self.samples_seen += 1;
        let warmup = self.samples_seen <= self.settings.warmup_samples;
        let rate = self.stream_rate;
        for kind in MetricKind::ALL {
            let v = sample.metrics.get(kind);
            let st = &mut self.learned[kind.index()];
            match st.range {
                None => st.range = Some((v, v)),
                Some((lo, hi)) => {
                    let margin =
                        self.settings.range_margin + crate::model::sampling_widen(hi - lo, rate);
                    let out_low = v < lo - margin;
                    let out_high = v > hi + margin;
                    if (out_low || out_high) && !warmup && st.confirmed >= 3 {
                        let out_by = if out_low {
                            lo - margin - v
                        } else {
                            v - hi - margin
                        };
                        let bug = BugReport {
                            metric: kind,
                            kind: AnomalyKind::RangeViolation {
                                direction: if out_low {
                                    Direction::BelowMin
                                } else {
                                    Direction::AboveMax
                                },
                            },
                            value: v,
                            range: (lo, hi),
                            sample_seq: sample.seq,
                            fn_entries: sample.fn_entries,
                            sample_rate: rate,
                            band_distance: out_by / (hi - lo + 2.0 * margin).max(1.0),
                            context: Vec::new(),
                        };
                        crate::bug::emit_anomaly_event(&bug, "online");
                        self.reports.push(bug);
                    }
                    if out_low || out_high {
                        // DIDUCE-style relaxation: absorb the new value.
                        st.range = Some((lo.min(v), hi.max(v)));
                        st.confirmed = 0;
                    } else {
                        st.confirmed += 1;
                    }
                }
            }
        }
    }
}

impl Monitor for OnlineLearner {
    fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
        if ctx.sample_rate.is_finite() && ctx.sample_rate > 0.0 {
            self.stream_rate = ctx.sample_rate;
        }
        let before = self.reports.len();
        self.observe(sample);
        // Flight-recorder capture for reports this sample raised.
        if self.reports.len() == before || self.incidents.len() >= MAX_INCIDENTS {
            return;
        }
        let series: Vec<SeriesData> = ctx
            .recorder
            .map(|r| r.snapshot().iter().map(SeriesData::from).collect())
            .unwrap_or_default();
        let degrees = DegreeSnapshot::capture(ctx.graph.histogram());
        for i in before..self.reports.len() {
            if self.incidents.len() >= MAX_INCIDENTS {
                break;
            }
            let bundle = IncidentBundle::from_report(
                "online",
                &self.reports[i],
                0.0,
                None,
                self.samples_seen as u64,
                series.clone(),
                Some(degrees.clone()),
            );
            self.incidents.push(bundle);
        }
    }

    /// Learns from samples alone.
    fn listening(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_graph::MetricVector;

    fn sample(seq: usize, v: f64) -> MetricSample {
        MetricSample {
            seq,
            fn_entries: seq as u64,
            tick: seq as u64,
            metrics: MetricVector::from_array([v; METRIC_COUNT]),
            nodes: 10,
            edges: 0,
            dangling: 0,
            candidates: None,
        }
    }

    fn learner() -> OnlineLearner {
        OnlineLearner::new(
            Settings::builder()
                .warmup_samples(2)
                .range_margin(0.5)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn steady_series_learns_silently() {
        let mut l = learner();
        for i in 0..30 {
            l.observe(&sample(i, 40.0 + (i % 2) as f64 * 0.3));
        }
        assert!(l.reports().is_empty());
        let (lo, hi) = l.learned_range(MetricKind::Roots).unwrap();
        assert!(lo >= 40.0 && hi <= 40.3 + f64::EPSILON);
    }

    #[test]
    fn a_jump_after_confirmation_is_reported_once_then_absorbed() {
        let mut l = learner();
        for i in 0..10 {
            l.observe(&sample(i, 40.0));
        }
        l.observe(&sample(10, 55.0)); // jump
        let n = l.reports().len();
        assert_eq!(n, METRIC_COUNT, "one report per metric at the jump");
        for i in 11..20 {
            l.observe(&sample(i, 55.0)); // relaxed: silence
        }
        assert_eq!(l.reports().len(), n);
        let (lo, hi) = l.learned_range(MetricKind::Leaves).unwrap();
        assert_eq!((lo, hi), (40.0, 55.0));
    }

    #[test]
    fn unconfirmed_ranges_do_not_report() {
        let mut l = learner();
        // Ranges change on nearly every sample: never 3 confirmations.
        for (i, v) in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0].iter().enumerate() {
            l.observe(&sample(i, *v));
        }
        assert!(l.reports().is_empty(), "{:?}", l.reports());
    }

    #[test]
    fn warmup_jumps_are_not_reported() {
        let mut l = learner();
        l.observe(&sample(0, 10.0));
        l.observe(&sample(1, 90.0)); // inside warmup (2 samples)
        for i in 2..10 {
            l.observe(&sample(i, 90.0));
        }
        assert!(l.reports().is_empty());
    }

    #[test]
    fn take_reports_drains() {
        let mut l = learner();
        for i in 0..10 {
            l.observe(&sample(i, 40.0));
        }
        l.observe(&sample(10, 90.0));
        assert!(!l.take_reports().is_empty());
        assert!(l.reports().is_empty());
    }
}
