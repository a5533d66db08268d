//! The seven degree-based heap metrics of the paper.

use crate::histogram::DegreeHistogram;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Number of paper metrics (the fixed suite of §2.1).
pub const METRIC_COUNT: usize = 7;

/// One of the seven degree-based metrics HeapMD computes (§2.1).
///
/// Each is the *percentage of heap-graph vertexes* with the stated
/// degree property. The paper chose these because heap vertexes rarely
/// exceed degree 2, and its evaluation uses only these seven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// % of vertexes with indegree = 0 ("roots": referenced only from the
    /// stack and globals, or leaked).
    Roots,
    /// % of vertexes with indegree = 1.
    Indeg1,
    /// % of vertexes with indegree = 2.
    Indeg2,
    /// % of vertexes with outdegree = 0 ("leaves").
    Leaves,
    /// % of vertexes with outdegree = 1.
    Outdeg1,
    /// % of vertexes with outdegree = 2.
    Outdeg2,
    /// % of vertexes with indegree = outdegree.
    InEqOut,
}

impl MetricKind {
    /// All seven metrics, in canonical order.
    pub const ALL: [MetricKind; METRIC_COUNT] = [
        MetricKind::Roots,
        MetricKind::Indeg1,
        MetricKind::Indeg2,
        MetricKind::Leaves,
        MetricKind::Outdeg1,
        MetricKind::Outdeg2,
        MetricKind::InEqOut,
    ];

    /// The metric's index in canonical order (0–6).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The metric at canonical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= METRIC_COUNT`.
    pub fn from_index(i: usize) -> MetricKind {
        MetricKind::ALL[i]
    }

    /// The stable string id used in run-store rows and serve's
    /// per-metric gauges (`paper.roots`, …, `paper.in_eq_out`).
    pub fn id(self) -> &'static str {
        match self {
            MetricKind::Roots => "paper.roots",
            MetricKind::Indeg1 => "paper.indeg1",
            MetricKind::Indeg2 => "paper.indeg2",
            MetricKind::Leaves => "paper.leaves",
            MetricKind::Outdeg1 => "paper.outdeg1",
            MetricKind::Outdeg2 => "paper.outdeg2",
            MetricKind::InEqOut => "paper.in_eq_out",
        }
    }

    /// Resolves a stable string id back to its metric, or `None` for an
    /// id this build does not compute.
    pub fn from_id(id: &str) -> Option<MetricKind> {
        MetricKind::ALL.into_iter().find(|k| k.id() == id)
    }

    /// The short name used in the paper's tables (e.g. `Outdeg=1`,
    /// `Leaves`, `In=Out`).
    pub fn short_name(self) -> &'static str {
        match self {
            MetricKind::Roots => "Root",
            MetricKind::Indeg1 => "Indeg=1",
            MetricKind::Indeg2 => "Indeg=2",
            MetricKind::Leaves => "Leaves",
            MetricKind::Outdeg1 => "Outdeg=1",
            MetricKind::Outdeg2 => "Outdeg=2",
            MetricKind::InEqOut => "In=Out",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The values of all seven metrics at one metric computation point.
///
/// # Example
///
/// ```
/// use heap_graph::{MetricKind, MetricVector};
///
/// let mut v = MetricVector::zero();
/// v.set(MetricKind::Leaves, 87.5);
/// assert_eq!(v.get(MetricKind::Leaves), 87.5);
/// assert_eq!(v[MetricKind::Roots], 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricVector([f64; METRIC_COUNT]);

impl MetricVector {
    /// The all-zero vector (an empty heap).
    pub fn zero() -> Self {
        MetricVector([0.0; METRIC_COUNT])
    }

    /// Builds a vector from values in canonical metric order.
    pub fn from_array(values: [f64; METRIC_COUNT]) -> Self {
        MetricVector(values)
    }

    /// Reads one metric.
    pub fn get(&self, kind: MetricKind) -> f64 {
        self.0[kind.index()]
    }

    /// Writes one metric.
    pub fn set(&mut self, kind: MetricKind, value: f64) {
        self.0[kind.index()] = value;
    }

    /// The raw values in canonical metric order.
    pub fn as_array(&self) -> &[f64; METRIC_COUNT] {
        &self.0
    }

    /// Iterates `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricKind, f64)> + '_ {
        MetricKind::ALL.iter().map(move |&k| (k, self.0[k.index()]))
    }

    /// Computes the vector from a degree histogram.
    pub fn from_histogram(h: &DegreeHistogram) -> Self {
        MetricVector([
            h.pct_indegree(0),
            h.pct_indegree(1),
            h.pct_indegree(2),
            h.pct_outdegree(0),
            h.pct_outdegree(1),
            h.pct_outdegree(2),
            h.pct_in_eq_out(),
        ])
    }
}

impl Index<MetricKind> for MetricVector {
    type Output = f64;
    fn index(&self, kind: MetricKind) -> &f64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<MetricKind> for MetricVector {
    fn index_mut(&mut self, kind: MetricKind) -> &mut f64 {
        &mut self.0[kind.index()]
    }
}

impl fmt::Display for MetricVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}:{v:.1}")?;
            first = false;
        }
        Ok(())
    }
}

/// Structural counters that fall out of the incremental
/// representation for free, recorded beside the seven metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtendedMetrics {
    /// Live vertexes.
    pub nodes: u64,
    /// Resolved heap-to-heap edges.
    pub edges: u64,
    /// Pointer slots whose stored address does not currently resolve to
    /// a live object (dangling or foreign).
    pub dangling_slots: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_and_ids_round_trip() {
        for (i, &k) in MetricKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(MetricKind::from_index(i), k);
            assert_eq!(MetricKind::from_id(k.id()), Some(k));
        }
        assert_eq!(MetricKind::Indeg1.id(), "paper.indeg1");
        assert_eq!(MetricKind::from_id("deg.indeg3plus"), None);
    }

    #[test]
    fn short_names_match_paper_tables() {
        assert_eq!(MetricKind::Outdeg1.short_name(), "Outdeg=1");
        assert_eq!(MetricKind::InEqOut.short_name(), "In=Out");
        assert_eq!(MetricKind::Leaves.to_string(), "Leaves");
    }

    #[test]
    fn vector_get_set_index() {
        let mut v = MetricVector::zero();
        v[MetricKind::Indeg2] = 12.5;
        assert_eq!(v.get(MetricKind::Indeg2), 12.5);
        v.set(MetricKind::Roots, 3.0);
        assert_eq!(v[MetricKind::Roots], 3.0);
        assert_eq!(v.iter().count(), METRIC_COUNT);
    }

    #[test]
    fn from_histogram_matches_manual_computation() {
        let mut h = DegreeHistogram::new();
        // 4 nodes: two 0/0, one 1/0, one 0/1.
        for _ in 0..4 {
            h.add_node();
        }
        h.change_degrees(0, 1, 0, 0);
        h.change_degrees(0, 0, 0, 1);
        let v = MetricVector::from_histogram(&h);
        assert_eq!(v.get(MetricKind::Roots), 75.0);
        assert_eq!(v.get(MetricKind::Indeg1), 25.0);
        assert_eq!(v.get(MetricKind::Leaves), 75.0);
        assert_eq!(v.get(MetricKind::Outdeg1), 25.0);
        assert_eq!(v.get(MetricKind::InEqOut), 50.0);
    }

    #[test]
    fn vector_serializes() {
        let v = MetricVector::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let json = serde_json::to_string(&v).expect("serialize");
        let back: MetricVector = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(v, back);
    }

    #[test]
    fn display_is_compact() {
        let v = MetricVector::zero();
        let s = v.to_string();
        assert!(s.contains("Root:0.0"));
        assert!(s.contains("In=Out:0.0"));
    }
}
