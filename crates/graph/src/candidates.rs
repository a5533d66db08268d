//! The widened candidate metric family.
//!
//! The paper's architecture is "explicitly meant to be extensible": the
//! seven degree percentages are one projection of the degree histogram,
//! and any scalar that can be read off the heap-graph at a metric
//! computation point is a *candidate* for the stability filter. This
//! module enumerates the candidate family this reproduction tracks —
//! the seven paper metrics plus distribution-shape and structural
//! extensions — under stable string ids, so models can record which
//! candidates calibrated for a given program without baking the family
//! into the artifact layout.
//!
//! The first seven candidates are computed by exactly the same code
//! path as [`MetricVector::from_histogram`], so their values are
//! bit-identical to the legacy metric suite at every sample.

use crate::distribution::DegreeDistribution;
use crate::histogram::DegreeHistogram;
use crate::metrics::{ExtendedMetrics, MetricKind, METRIC_COUNT};
use serde::{Deserialize, Serialize};
use std::fmt;

#[cfg(doc)]
use crate::metrics::MetricVector;

/// Number of candidate metrics in the family.
pub const CANDIDATE_COUNT: usize = 20;

/// Minimum degree counted as distribution "tail" by the tail-mass
/// candidates — chosen just above the paper's observation that heap
/// degrees "only rarely exceed 2".
pub const TAIL_MIN_DEGREE: u32 = 3;

/// One candidate metric: a scalar read off the heap-graph at a metric
/// computation point and fed through the stability filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CandidateKind {
    /// % of vertexes with indegree 0 (= [`MetricKind::Roots`]).
    Roots,
    /// % of vertexes with indegree 1 (= [`MetricKind::Indeg1`]).
    Indeg1,
    /// % of vertexes with indegree 2 (= [`MetricKind::Indeg2`]).
    Indeg2,
    /// % of vertexes with outdegree 0 (= [`MetricKind::Leaves`]).
    Leaves,
    /// % of vertexes with outdegree 1 (= [`MetricKind::Outdeg1`]).
    Outdeg1,
    /// % of vertexes with outdegree 2 (= [`MetricKind::Outdeg2`]).
    Outdeg2,
    /// % of vertexes with indegree = outdegree (= [`MetricKind::InEqOut`]).
    InEqOut,
    /// % of vertexes with indegree ≥ 3 — the population the paper's
    /// fixed suite cannot see.
    Indeg3Plus,
    /// % of vertexes with outdegree ≥ 3.
    Outdeg3Plus,
    /// Shannon entropy (bits) of the normalized weighted indegree
    /// distribution.
    InEntropy,
    /// Shannon entropy (bits) of the normalized weighted outdegree
    /// distribution.
    OutEntropy,
    /// Weighted indegree mass at degrees ≥ [`TAIL_MIN_DEGREE`].
    InTailMass,
    /// Weighted outdegree mass at degrees ≥ [`TAIL_MIN_DEGREE`].
    OutTailMass,
    /// Sum of the two largest normalized weighted indegree weights.
    InTop2Share,
    /// Sum of the two largest normalized weighted outdegree weights.
    OutTop2Share,
    /// Mean outdegree over vertexes.
    MeanDegree,
    /// Highest indegree present (saturated at the histogram bound).
    MaxInDegree,
    /// Highest outdegree present (saturated at the histogram bound).
    MaxOutDegree,
    /// % of pointer slots that are dangling:
    /// `dangling / (edges + dangling) × 100`.
    DanglingShare,
    /// Dangling pointer slots per 100 vertexes.
    DanglingPerNode,
}

impl CandidateKind {
    /// All candidates, in canonical order. The first
    /// [`METRIC_COUNT`] entries mirror [`MetricKind::ALL`].
    pub const ALL: [CandidateKind; CANDIDATE_COUNT] = [
        CandidateKind::Roots,
        CandidateKind::Indeg1,
        CandidateKind::Indeg2,
        CandidateKind::Leaves,
        CandidateKind::Outdeg1,
        CandidateKind::Outdeg2,
        CandidateKind::InEqOut,
        CandidateKind::Indeg3Plus,
        CandidateKind::Outdeg3Plus,
        CandidateKind::InEntropy,
        CandidateKind::OutEntropy,
        CandidateKind::InTailMass,
        CandidateKind::OutTailMass,
        CandidateKind::InTop2Share,
        CandidateKind::OutTop2Share,
        CandidateKind::MeanDegree,
        CandidateKind::MaxInDegree,
        CandidateKind::MaxOutDegree,
        CandidateKind::DanglingShare,
        CandidateKind::DanglingPerNode,
    ];

    /// The candidate's index in canonical order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The candidate at canonical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= CANDIDATE_COUNT`.
    pub fn from_index(i: usize) -> CandidateKind {
        CandidateKind::ALL[i]
    }

    /// The stable string id used in model artifacts, the run-store, and
    /// metric expositions. Ids are namespaced by family: `paper.*` for
    /// the legacy seven, `deg.*`/`dist.*`/`shape.*`/`ptr.*` for the
    /// extensions.
    pub fn id(self) -> &'static str {
        match self {
            CandidateKind::Roots => "paper.roots",
            CandidateKind::Indeg1 => "paper.indeg1",
            CandidateKind::Indeg2 => "paper.indeg2",
            CandidateKind::Leaves => "paper.leaves",
            CandidateKind::Outdeg1 => "paper.outdeg1",
            CandidateKind::Outdeg2 => "paper.outdeg2",
            CandidateKind::InEqOut => "paper.in_eq_out",
            CandidateKind::Indeg3Plus => "deg.indeg3plus",
            CandidateKind::Outdeg3Plus => "deg.outdeg3plus",
            CandidateKind::InEntropy => "dist.in_entropy",
            CandidateKind::OutEntropy => "dist.out_entropy",
            CandidateKind::InTailMass => "dist.in_tail_mass",
            CandidateKind::OutTailMass => "dist.out_tail_mass",
            CandidateKind::InTop2Share => "dist.in_top2_share",
            CandidateKind::OutTop2Share => "dist.out_top2_share",
            CandidateKind::MeanDegree => "shape.mean_degree",
            CandidateKind::MaxInDegree => "shape.max_indegree",
            CandidateKind::MaxOutDegree => "shape.max_outdegree",
            CandidateKind::DanglingShare => "ptr.dangling_share",
            CandidateKind::DanglingPerNode => "ptr.dangling_per_node",
        }
    }

    /// Resolves a stable string id back to its candidate, or `None`
    /// for an id this build does not know (a forward-compat signal —
    /// see `HeapModel::validate` in the core crate).
    pub fn from_id(id: &str) -> Option<CandidateKind> {
        CandidateKind::ALL.iter().copied().find(|k| k.id() == id)
    }

    /// A short human-readable label for tables and `inspect` output.
    pub fn short_name(self) -> &'static str {
        match self.paper_kind() {
            Some(k) => k.short_name(),
            None => match self {
                CandidateKind::Indeg3Plus => "Indeg>=3",
                CandidateKind::Outdeg3Plus => "Outdeg>=3",
                CandidateKind::InEntropy => "InEntropy",
                CandidateKind::OutEntropy => "OutEntropy",
                CandidateKind::InTailMass => "InTail",
                CandidateKind::OutTailMass => "OutTail",
                CandidateKind::InTop2Share => "InTop2",
                CandidateKind::OutTop2Share => "OutTop2",
                CandidateKind::MeanDegree => "MeanDeg",
                CandidateKind::MaxInDegree => "MaxIndeg",
                CandidateKind::MaxOutDegree => "MaxOutdeg",
                CandidateKind::DanglingShare => "Dangling%",
                CandidateKind::DanglingPerNode => "Dangling/Node",
                _ => unreachable!("paper candidates handled above"),
            },
        }
    }

    /// The paper metric this candidate mirrors, if it is one of the
    /// legacy seven.
    pub fn paper_kind(self) -> Option<MetricKind> {
        if self.index() < METRIC_COUNT {
            Some(MetricKind::from_index(self.index()))
        } else {
            None
        }
    }

    /// `true` for the seven legacy paper metrics.
    pub fn is_paper(self) -> bool {
        self.index() < METRIC_COUNT
    }
}

impl From<MetricKind> for CandidateKind {
    fn from(kind: MetricKind) -> Self {
        CandidateKind::from_index(kind.index())
    }
}

impl PartialEq<MetricKind> for CandidateKind {
    fn eq(&self, other: &MetricKind) -> bool {
        self.index() == other.index()
    }
}

impl fmt::Display for CandidateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The values of every candidate metric at one metric computation
/// point.
///
/// # Example
///
/// ```
/// use heap_graph::{CandidateKind, CandidateVector, DegreeHistogram, ExtendedMetrics};
///
/// let mut h = DegreeHistogram::new();
/// h.add_node();
/// h.add_node();
/// h.change_degrees(0, 0, 0, 1); // one vertex points at the other
/// h.change_degrees(0, 1, 0, 0);
/// let ext = ExtendedMetrics { nodes: 2, edges: 1, dangling_slots: 0, mean_degree: 0.5 };
/// let c = CandidateVector::compute(&h, &ext);
/// assert_eq!(c.get(CandidateKind::Roots), 50.0);
/// assert_eq!(c.get(CandidateKind::MaxOutDegree), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CandidateVector([f64; CANDIDATE_COUNT]);

impl CandidateVector {
    /// The all-zero vector (an empty heap).
    pub fn zero() -> Self {
        CandidateVector([0.0; CANDIDATE_COUNT])
    }

    /// Builds a vector from values in canonical candidate order.
    pub fn from_array(values: [f64; CANDIDATE_COUNT]) -> Self {
        CandidateVector(values)
    }

    /// Reads one candidate.
    pub fn get(&self, kind: CandidateKind) -> f64 {
        self.0[kind.index()]
    }

    /// Writes one candidate.
    pub fn set(&mut self, kind: CandidateKind, value: f64) {
        self.0[kind.index()] = value;
    }

    /// The raw values in canonical candidate order.
    pub fn as_array(&self) -> &[f64; CANDIDATE_COUNT] {
        &self.0
    }

    /// Iterates `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (CandidateKind, f64)> + '_ {
        CandidateKind::ALL
            .iter()
            .map(move |&k| (k, self.0[k.index()]))
    }

    /// Computes every candidate from a degree histogram plus the
    /// structural extension counters.
    ///
    /// The first seven values go through the same percentage helpers as
    /// [`MetricVector::from_histogram`] and are therefore bit-identical
    /// to the legacy suite at the same computation point.
    pub fn compute(h: &DegreeHistogram, ext: &ExtendedMetrics) -> Self {
        let in_dist = DegreeDistribution::from_counts(h.indegree_counts());
        let out_dist = DegreeDistribution::from_counts(h.outdegree_counts());
        let nodes = h.nodes();
        let pct_at_least = |counts: &[u64], min: usize| -> f64 {
            if nodes == 0 {
                0.0
            } else {
                let tail: u64 = counts.iter().skip(min).sum();
                tail as f64 * 100.0 / nodes as f64
            }
        };
        let max_present =
            |counts: &[u64]| -> f64 { counts.iter().rposition(|&c| c > 0).unwrap_or(0) as f64 };
        let slots = ext.edges + ext.dangling_slots;
        let dangling_share = if slots == 0 {
            0.0
        } else {
            ext.dangling_slots as f64 * 100.0 / slots as f64
        };
        let dangling_per_node = if ext.nodes == 0 {
            0.0
        } else {
            ext.dangling_slots as f64 * 100.0 / ext.nodes as f64
        };
        CandidateVector([
            h.pct_indegree(0),
            h.pct_indegree(1),
            h.pct_indegree(2),
            h.pct_outdegree(0),
            h.pct_outdegree(1),
            h.pct_outdegree(2),
            h.pct_in_eq_out(),
            pct_at_least(h.indegree_counts(), TAIL_MIN_DEGREE as usize),
            pct_at_least(h.outdegree_counts(), TAIL_MIN_DEGREE as usize),
            in_dist.entropy(),
            out_dist.entropy(),
            in_dist.tail_mass(TAIL_MIN_DEGREE),
            out_dist.tail_mass(TAIL_MIN_DEGREE),
            in_dist.top_share(2),
            out_dist.top_share(2),
            ext.mean_degree,
            max_present(h.indegree_counts()),
            max_present(h.outdegree_counts()),
            dangling_share,
            dangling_per_node,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricVector;

    fn sample_histogram() -> DegreeHistogram {
        let mut h = DegreeHistogram::new();
        // 6 vertexes: degrees (in,out) = (0,0) (0,0) (1,0) (2,1) (0,4) (1,1)
        for _ in 0..6 {
            h.add_node();
        }
        h.change_degrees(0, 1, 0, 0);
        h.change_degrees(0, 2, 0, 1);
        h.change_degrees(0, 0, 0, 4);
        h.change_degrees(0, 1, 0, 1);
        h
    }

    #[test]
    fn ids_round_trip_and_are_unique() {
        for (i, &k) in CandidateKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(CandidateKind::from_index(i), k);
            assert_eq!(CandidateKind::from_id(k.id()), Some(k));
        }
        let mut ids: Vec<&str> = CandidateKind::ALL.iter().map(|k| k.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CANDIDATE_COUNT);
        assert_eq!(CandidateKind::from_id("paper.bogus"), None);
    }

    #[test]
    fn first_seven_mirror_paper_metrics() {
        for k in MetricKind::ALL {
            let c = CandidateKind::from_index(k.index());
            assert_eq!(c.paper_kind(), Some(k));
            assert!(c.is_paper());
            assert_eq!(c.short_name(), k.short_name());
            assert_eq!(CandidateKind::from(k), c);
            assert_eq!(c, k);
            // Same serde names, so paper-mode model files keep their bytes.
            assert_eq!(
                serde_json::to_string(&c).unwrap(),
                serde_json::to_string(&k).unwrap()
            );
        }
        assert_ne!(CandidateKind::Indeg3Plus, MetricKind::Roots);
        assert!(!CandidateKind::Indeg3Plus.is_paper());
        assert_eq!(CandidateKind::InEntropy.paper_kind(), None);
    }

    #[test]
    fn paper_slice_is_bit_identical_to_metric_vector() {
        let h = sample_histogram();
        let ext = ExtendedMetrics::default();
        let c = CandidateVector::compute(&h, &ext);
        let m = MetricVector::from_histogram(&h);
        for k in MetricKind::ALL {
            let cv = c.as_array()[k.index()];
            assert_eq!(cv.to_bits(), m.get(k).to_bits(), "{k}");
        }
    }

    #[test]
    fn extended_values_match_manual_computation() {
        let h = sample_histogram();
        let ext = ExtendedMetrics {
            nodes: 6,
            edges: 6,
            dangling_slots: 2,
            mean_degree: 1.0,
        };
        let c = CandidateVector::compute(&h, &ext);
        // outdegrees: 0,0,0,1,4,1 → one vertex ≥ 3 of six.
        assert!((c.get(CandidateKind::Outdeg3Plus) - 100.0 / 6.0).abs() < 1e-12);
        assert_eq!(c.get(CandidateKind::Indeg3Plus), 0.0);
        assert_eq!(c.get(CandidateKind::MaxInDegree), 2.0);
        assert_eq!(c.get(CandidateKind::MaxOutDegree), 4.0);
        assert_eq!(c.get(CandidateKind::MeanDegree), 1.0);
        // out weights: deg1×2=2, deg4×1=4 → total 6.
        assert!((c.get(CandidateKind::OutTailMass) - 4.0 / 6.0).abs() < 1e-12);
        assert!((c.get(CandidateKind::OutTop2Share) - 1.0).abs() < 1e-12);
        // 2 dangling of 8 slots.
        assert!((c.get(CandidateKind::DanglingShare) - 25.0).abs() < 1e-12);
        assert!((c.get(CandidateKind::DanglingPerNode) - 100.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_heap_is_all_zero() {
        let c = CandidateVector::compute(&DegreeHistogram::new(), &ExtendedMetrics::default());
        assert_eq!(c, CandidateVector::zero());
    }

    #[test]
    fn vector_serializes() {
        let mut c = CandidateVector::zero();
        c.set(CandidateKind::InEntropy, 1.5);
        let json = serde_json::to_string(&c).expect("serialize");
        let back: CandidateVector = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }
}
