//! Bug reports and the paper's bug taxonomy (§4.1, Figures 8 and 9).

use heap_graph::MetricKind;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Which calibrated bound an anomaly involves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Below the calibrated minimum (or pinned at it).
    BelowMin,
    /// Above the calibrated maximum (or pinned at it).
    AboveMax,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::BelowMin => "below calibrated minimum",
            Direction::AboveMax => "above calibrated maximum",
        })
    }
}

/// The anomaly that triggered a report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// A globally stable metric left its calibrated range — the *heap
    /// anomaly* class HeapMD is designed to target.
    RangeViolation {
        /// Which bound was crossed.
        direction: Direction,
    },
    /// A stable metric settled at an extreme of its calibrated range
    /// straight out of startup — the paper's *poorly disguised* class
    /// (its one observed instance was the oct-tree that became an
    /// oct-DAG).
    PoorlyDisguised {
        /// Which extreme the metric is pinned at.
        extreme: Direction,
    },
    /// A metric that was unstable during training stayed stable during
    /// checking — the paper's *pathological* class (never observed by
    /// the authors, but detectable).
    UnexpectedStability,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::RangeViolation { direction } => {
                write!(f, "range violation ({direction})")
            }
            AnomalyKind::PoorlyDisguised { extreme } => {
                write!(f, "poorly disguised anomaly (pinned {extreme})")
            }
            AnomalyKind::UnexpectedStability => f.write_str("unexpected metric stability"),
        }
    }
}

/// Phase of a logged call-stack relative to the range crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogPhase {
    /// Logged while the metric approached an extreme (armed logging).
    Before,
    /// Logged at the sample that crossed the bound.
    During,
    /// Logged after the crossing, while the excursion continued.
    After,
}

/// One call-stack snapshot from the circular log buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackLogEntry {
    /// Heap tick when the snapshot was taken.
    pub tick: u64,
    /// Call stack, outermost first, as function names.
    pub stack: Vec<String>,
    /// A one-line description of the event that triggered the snapshot.
    pub event: String,
    /// When the snapshot was taken relative to the crossing.
    pub phase: LogPhase,
}

/// A bug report raised by the anomaly detector.
///
/// Carries the violated metric, the observed value against the
/// calibrated range, and the call-stack context logged around the
/// crossing — the paper's mechanism for pinpointing the responsible
/// function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugReport {
    /// The metric that misbehaved.
    pub metric: MetricKind,
    /// What kind of anomaly was seen.
    pub kind: AnomalyKind,
    /// The metric's value at detection time.
    pub value: f64,
    /// The calibrated `[min, max]` range.
    pub range: (f64, f64),
    /// Sample index (metric computation point) of the detection.
    pub sample_seq: usize,
    /// Cumulative function entries at detection.
    pub fn_entries: u64,
    /// Effective store-sampling rate at detection, in `(0, 1]`: the
    /// minimum of the checked stream's rate and the model's
    /// calibration-time rate. `1.0` (the default for pre-sampling
    /// artifacts) means every store was observed and `range` carries no
    /// confidence widening.
    #[serde(default = "default_report_sample_rate")]
    pub sample_rate: f64,
    /// How far outside the accepted `range` the value strayed, in units
    /// of that (sampling-widened) band's full width — the
    /// scale-independent severity a production-overhead deployment
    /// alerts on. `0.0` for anomaly kinds without a crossing.
    #[serde(default)]
    pub band_distance: f64,
    /// Call-stack context before/during/after the crossing. (An
    /// incident bundle stores it as separate records, so its report
    /// reads back without this key.)
    #[serde(default)]
    pub context: Vec<StackLogEntry>,
}

fn default_report_sample_rate() -> f64 {
    1.0
}

/// Bitwise float equality: an [`AnomalyKind::UnexpectedStability`]
/// report carries a `(NaN, NaN)` range, and IEEE `NaN != NaN` would
/// make two byte-identical reports compare unequal (breaking the
/// serve daemon's verdict-equivalence checks).
impl PartialEq for BugReport {
    fn eq(&self, other: &Self) -> bool {
        self.metric == other.metric
            && self.kind == other.kind
            && self.value.to_bits() == other.value.to_bits()
            && self.range.0.to_bits() == other.range.0.to_bits()
            && self.range.1.to_bits() == other.range.1.to_bits()
            && self.sample_seq == other.sample_seq
            && self.fn_entries == other.fn_entries
            && self.sample_rate.to_bits() == other.sample_rate.to_bits()
            && self.band_distance.to_bits() == other.band_distance.to_bits()
            && self.context == other.context
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} — value {:.2} vs calibrated [{:.2}, {:.2}] at sample {}",
            self.metric.short_name(),
            self.kind,
            self.value,
            self.range.0,
            self.range.1,
            self.sample_seq
        )?;
        if self.sample_rate < 1.0 {
            write!(
                f,
                " (sampled at {:.3}, {:.2} band-widths out)",
                self.sample_rate, self.band_distance
            )?;
        }
        if let Some(entry) = self.context.iter().find(|e| e.phase == LogPhase::During) {
            if let Some(top) = entry.stack.last() {
                write!(f, " (in {top})")?;
            }
        }
        Ok(())
    }
}

impl AnomalyKind {
    /// Snake-case tag for structured events.
    pub fn slug(&self) -> &'static str {
        match self {
            AnomalyKind::RangeViolation { .. } => "range_violation",
            AnomalyKind::PoorlyDisguised { .. } => "poorly_disguised",
            AnomalyKind::UnexpectedStability => "unexpected_stability",
        }
    }
}

impl Direction {
    fn slug(self) -> &'static str {
        match self {
            Direction::BelowMin => "below_min",
            Direction::AboveMax => "above_max",
        }
    }
}

/// Emits an `anomaly` obs event (and bumps `heapmd_anomaly_total`) for
/// a freshly raised report. The event's `source` field names the
/// checker that raised it, always `detector`. Events are a live view:
/// the offline detector's shutdown trim may later drop a report whose
/// event already fired.
pub(crate) fn emit_anomaly_event(bug: &BugReport) {
    heapmd_obs::count!("heapmd_anomaly_total");
    heapmd_obs::export::emit_event("anomaly", |o| {
        o.field_str("source", "detector")
            .field_str("metric", bug.metric.short_name())
            .field_str("kind", bug.kind.slug());
        match bug.kind {
            AnomalyKind::RangeViolation { direction } => {
                o.field_str("direction", direction.slug());
            }
            AnomalyKind::PoorlyDisguised { extreme } => {
                o.field_str("direction", extreme.slug());
            }
            _ => {}
        }
        o.field_f64("value", bug.value)
            .field_f64("range_lo", bug.range.0)
            .field_f64("range_hi", bug.range.1)
            .field_u64("sample_seq", bug.sample_seq as u64)
            .field_u64("fn_entries", bug.fn_entries)
            .field_u64("context_entries", bug.context.len() as u64);
        if bug.sample_rate < 1.0 {
            o.field_f64("sample_rate", bug.sample_rate)
                .field_f64("band_distance", bug.band_distance);
        }
    });
}

impl BugReport {
    /// Function names appearing in the logged context, deduplicated,
    /// innermost frames first within each snapshot. These are the
    /// candidates for the bug's root cause.
    pub fn implicated_functions(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for entry in &self.context {
            for name in entry.stack.iter().rev() {
                if seen.insert(name.clone()) {
                    out.push(name.clone());
                }
            }
        }
        out
    }
}

/// Renders verdicts the one way every command prints them: each report
/// on a line indented two spaces and, under it, indented four, the
/// functions its context implicates.
pub fn render_verdicts(bugs: &[BugReport]) -> String {
    let mut out = String::new();
    for b in bugs {
        let _ = writeln!(out, "  {b}");
        let funcs = b.implicated_functions();
        if !funcs.is_empty() {
            let _ = writeln!(out, "    implicated: {}", funcs.join(", "));
        }
    }
    out
}

/// The root-cause categories of Figures 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugCategory {
    /// Omitted/miscopied line in a data-structure operation (Figure 8,
    /// "programming typos"); typically manifests as a memory leak.
    ProgrammingTypo,
    /// Erroneous manipulation of shared state (Figure 8); typically
    /// manifests as dangling pointers.
    SharedState,
    /// Violation of an (unwritten) data-structure invariant (Figure 8);
    /// malformed but pointer-correct structures.
    DataStructureInvariant,
    /// Logic errors that only indirectly perturb the heap-graph
    /// (Figure 9): atypical graphs, pathological hash functions,
    /// single-child trees.
    Indirect,
}

impl fmt::Display for BugCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BugCategory::ProgrammingTypo => "programming typo",
            BugCategory::SharedState => "shared state",
            BugCategory::DataStructureInvariant => "data structure invariant",
            BugCategory::Indirect => "indirect",
        })
    }
}

/// The paper's detectability classes (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DetectionClass {
    /// No appreciable effect on degree metrics — undetectable.
    Invisible,
    /// Affects metrics but stays inside calibrated ranges — undetectable.
    WellDisguised,
    /// A stable metric pinned at an extreme value.
    PoorlyDisguised,
    /// A normally-unstable metric becomes stable.
    Pathological,
    /// A stable metric leaves its calibrated range — HeapMD's target.
    HeapAnomaly,
}

impl DetectionClass {
    /// Whether HeapMD can, in principle, detect bugs of this class.
    pub fn detectable(self) -> bool {
        !matches!(
            self,
            DetectionClass::Invisible | DetectionClass::WellDisguised
        )
    }
}

impl fmt::Display for DetectionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DetectionClass::Invisible => "invisible",
            DetectionClass::WellDisguised => "well disguised",
            DetectionClass::PoorlyDisguised => "poorly disguised",
            DetectionClass::Pathological => "pathological",
            DetectionClass::HeapAnomaly => "heap anomaly",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BugReport {
        BugReport {
            metric: MetricKind::Indeg1,
            kind: AnomalyKind::RangeViolation {
                direction: Direction::AboveMax,
            },
            value: 25.3,
            range: (13.2, 18.5),
            sample_seq: 41,
            fn_entries: 4_100,
            sample_rate: 1.0,
            band_distance: 0.0,
            context: vec![
                StackLogEntry {
                    tick: 90,
                    stack: vec!["main".into(), "TreeInsert".into()],
                    event: "alloc 40B".into(),
                    phase: LogPhase::Before,
                },
                StackLogEntry {
                    tick: 100,
                    stack: vec!["main".into(), "TreeInsert".into(), "LinkChild".into()],
                    event: "ptr write".into(),
                    phase: LogPhase::During,
                },
            ],
        }
    }

    #[test]
    fn display_carries_the_essentials() {
        let s = report().to_string();
        assert!(s.contains("Indeg=1"));
        assert!(s.contains("25.30"));
        assert!(s.contains("[13.20, 18.50]"));
        assert!(s.contains("LinkChild"), "root-cause frame surfaces: {s}");
    }

    #[test]
    fn implicated_functions_dedup_innermost_first() {
        let funcs = report().implicated_functions();
        assert_eq!(funcs[0], "TreeInsert");
        assert_eq!(funcs.iter().filter(|f| *f == "main").count(), 1);
        assert!(funcs.contains(&"LinkChild".to_string()));
    }

    #[test]
    fn verdicts_render_a_report_line_and_its_implicated_line() {
        let mut quiet = report();
        quiet.context.clear();
        let text = render_verdicts(&[report(), quiet.clone()]);
        assert_eq!(
            text,
            format!(
                "  {}\n    implicated: TreeInsert, main, LinkChild\n  {quiet}\n",
                report()
            )
        );
    }

    #[test]
    fn detectability_classes() {
        assert!(!DetectionClass::Invisible.detectable());
        assert!(!DetectionClass::WellDisguised.detectable());
        assert!(DetectionClass::PoorlyDisguised.detectable());
        assert!(DetectionClass::Pathological.detectable());
        assert!(DetectionClass::HeapAnomaly.detectable());
    }

    #[test]
    fn reports_round_trip_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: BugReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn display_names_for_taxonomy() {
        assert_eq!(BugCategory::SharedState.to_string(), "shared state");
        assert_eq!(DetectionClass::HeapAnomaly.to_string(), "heap anomaly");
        assert_eq!(
            AnomalyKind::UnexpectedStability.to_string(),
            "unexpected metric stability"
        );
    }
}
