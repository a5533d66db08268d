//! Per-run metric reports.

use crate::settings::Settings;
use heap_graph::{CandidateKind, CandidateVector, MetricKind, MetricVector};
use serde::{Deserialize, Serialize};

/// The metric values observed at one metric computation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// 0-based index of the sample within its run.
    pub seq: usize,
    /// Cumulative function entries when the sample was taken.
    pub fn_entries: u64,
    /// Admitted-event offset when the sample was taken: the events
    /// that passed any sampling filter since the stream's start, this
    /// computation point's `FnEnter` included.
    /// Live `run`, `replay`, `check` and serve count it alike, and
    /// heartbeat `tick` fields carry it.
    pub tick: u64,
    /// The seven paper metrics.
    pub metrics: MetricVector,
    /// Live vertexes at the sample.
    pub nodes: u64,
    /// Resolved edges at the sample.
    pub edges: u64,
    /// Dangling pointer slots at the sample.
    pub dangling: u64,
    /// The full candidate metric family at the sample, when the
    /// producer computed it (samples replayed from older artifacts
    /// carry `None`). The first seven candidates duplicate `metrics`
    /// bit-for-bit; the rest are the widened family.
    #[serde(default)]
    pub candidates: Option<CandidateVector>,
}

impl MetricSample {
    /// Reads one candidate metric: a paper candidate from `metrics`, an
    /// extended one from the stored candidate vector.
    ///
    /// Returns `None` for an extended candidate on a sample that never
    /// computed the widened family.
    pub fn candidate(&self, kind: CandidateKind) -> Option<f64> {
        match kind.paper_kind() {
            Some(paper) => Some(self.metrics.get(paper)),
            None => self.candidates.map(|c| c.get(kind)),
        }
    }
}

/// One run's metric series — the "metric report" flowing from the
/// execution logger to the metric summarizer in Figure 2 of the paper.
///
/// # Example
///
/// ```
/// use heapmd::{MetricKind, Process, Settings};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(1).build()?);
/// let (tick, obj) = (p.function("tick"), p.site("obj"));
/// for _ in 0..10 {
///     p.enter(tick);
///     p.malloc(16, obj)?;
///     p.leave();
/// }
/// let report = p.finish("demo");
/// assert_eq!(report.len(), 10);
/// let leaves = report.series(MetricKind::Leaves);
/// // The first sample fires at the first function entry, before any
/// // allocation; from then on every object is an isolated leaf.
/// assert!(leaves[1..].iter().all(|&v| v == 100.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// Label of the run (program + input identifier).
    pub run: String,
    /// Samples in chronological order.
    pub samples: Vec<MetricSample>,
    /// Effective store-sampling rate the run was observed under, in
    /// `(0, 1]`. `1.0` (the default, and what pre-sampling artifacts
    /// deserialize to) means every store reached the heap graph; lower
    /// values record the measured kept/total ratio of a
    /// production-overhead sampled run, which calibration uses to widen
    /// ranges.
    #[serde(default = "default_sample_rate")]
    pub sample_rate: f64,
}

fn default_sample_rate() -> f64 {
    1.0
}

impl MetricReport {
    /// Creates a report from pre-collected samples (unsampled: rate 1).
    pub fn new(run: impl Into<String>, samples: Vec<MetricSample>) -> Self {
        MetricReport {
            run: run.into(),
            samples,
            sample_rate: 1.0,
        }
    }

    /// Creates a report observed under store sampling at `rate`.
    pub fn with_sample_rate(run: impl Into<String>, samples: Vec<MetricSample>, rate: f64) -> Self {
        MetricReport {
            run: run.into(),
            samples,
            sample_rate: rate,
        }
    }

    /// Number of metric computation points in the run.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The full value series of one metric, in sample order.
    pub fn series(&self, kind: MetricKind) -> Vec<f64> {
        self.samples.iter().map(|s| s.metrics.get(kind)).collect()
    }

    /// The samples with startup and shutdown trimmed per `settings`
    /// (first and last `trim_frac` of metric computation points).
    ///
    /// Short runs that would trim to nothing return an empty slice.
    pub fn trimmed(&self, settings: &Settings) -> &[MetricSample] {
        let n = self.samples.len();
        let k = settings.trim_count(n);
        if 2 * k >= n {
            return &[];
        }
        &self.samples[k..n - k]
    }

    /// The trimmed value series of one metric.
    pub fn trimmed_series(&self, kind: MetricKind, settings: &Settings) -> Vec<f64> {
        self.trimmed(settings)
            .iter()
            .map(|s| s.metrics.get(kind))
            .collect()
    }

    /// Minimum and maximum of a metric over the trimmed samples.
    ///
    /// Returns `None` when trimming leaves no samples.
    pub fn trimmed_range(&self, kind: MetricKind, settings: &Settings) -> Option<(f64, f64)> {
        let series = self.trimmed_series(kind, settings);
        if series.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in series {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_graph::METRIC_COUNT;

    fn sample(seq: usize, value: f64) -> MetricSample {
        MetricSample {
            seq,
            fn_entries: seq as u64,
            tick: seq as u64,
            metrics: MetricVector::from_array([value; METRIC_COUNT]),
            nodes: 1,
            edges: 0,
            dangling: 0,
            candidates: None,
        }
    }

    fn report(values: &[f64]) -> MetricReport {
        MetricReport::new(
            "t",
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| sample(i, v))
                .collect(),
        )
    }

    #[test]
    fn series_extracts_in_order() {
        let r = report(&[1.0, 2.0, 3.0]);
        assert_eq!(r.series(MetricKind::Roots), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn trimmed_drops_both_ends() {
        let s = Settings::default(); // 10% trim
        let values: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let r = report(&values);
        let t = r.trimmed(&s);
        assert_eq!(t.len(), 16);
        assert_eq!(t.first().unwrap().seq, 2);
        assert_eq!(t.last().unwrap().seq, 17);
    }

    #[test]
    fn trimming_a_tiny_run_yields_all_or_nothing() {
        let s = Settings::default();
        let r = report(&[1.0, 2.0]);
        // trim_count(2) = 0 → everything kept.
        assert_eq!(r.trimmed(&s).len(), 2);
        let aggressive = Settings::builder().trim_frac(0.49).build().unwrap();
        assert_eq!(report(&[1.0, 2.0]).trimmed(&aggressive).len(), 2);
        assert_eq!(report(&[1.0, 2.0, 3.0]).trimmed(&aggressive).len(), 1);
    }

    #[test]
    fn trimmed_range_finds_extremes() {
        let s = Settings::builder().trim_frac(0.0).build().unwrap();
        let r = report(&[5.0, 1.0, 9.0, 4.0]);
        assert_eq!(r.trimmed_range(MetricKind::Leaves, &s), Some((1.0, 9.0)));
        let empty = MetricReport::new("e", vec![]);
        assert_eq!(empty.trimmed_range(MetricKind::Leaves, &s), None);
    }

    #[test]
    fn report_round_trips_json() {
        let r = report(&[1.5, 2.5]);
        let json = serde_json::to_string(&r).unwrap();
        let back: MetricReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
