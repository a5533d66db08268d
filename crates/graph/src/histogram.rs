//! Incremental degree histograms.

use serde::{Deserialize, Serialize};

/// Degrees at or above this value share one saturation bucket.
///
/// The paper observes that heap-graph vertexes "typically have low
/// indegrees and outdegrees (only rarely exceeding 2)", and its metrics
/// only distinguish degrees 0, 1, and 2 — so a modest saturation bound
/// loses nothing while keeping the histogram a flat array.
const SATURATION: usize = 64;

/// The public saturation bound: degrees at or above this value are
/// indistinguishable in the histogram.
pub const DEGREE_SATURATION: u32 = SATURATION as u32;

/// Histogram of vertex degrees, maintained incrementally.
///
/// Tracks, for each degree value (saturated at an internal bound), how
/// many vertexes currently have that indegree and outdegree, plus the
/// count of vertexes with indegree = outdegree. All seven paper metrics
/// derive from these counters in O(1).
///
/// # Example
///
/// ```
/// use heap_graph::DegreeHistogram;
///
/// let mut h = DegreeHistogram::new();
/// h.add_node();
/// h.add_node();
/// h.change_degrees(0, 0, 0, 1); // one node gains an out-edge
/// h.change_degrees(0, 1, 0, 0); // the other gains an in-edge
/// assert_eq!(h.nodes(), 2);
/// assert_eq!(h.with_indegree(0), 1);
/// assert_eq!(h.with_outdegree(1), 1);
/// assert_eq!(h.in_eq_out(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeHistogram {
    indeg: Vec<u64>,
    outdeg: Vec<u64>,
    nodes: u64,
    in_eq_out: u64,
}

impl Default for DegreeHistogram {
    fn default() -> Self {
        DegreeHistogram::new()
    }
}

fn bucket(deg: u32) -> usize {
    (deg as usize).min(SATURATION)
}

impl DegreeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        DegreeHistogram {
            indeg: vec![0; SATURATION + 1],
            outdeg: vec![0; SATURATION + 1],
            nodes: 0,
            in_eq_out: 0,
        }
    }

    /// Total vertexes.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Vertexes whose indegree is exactly `deg` (for `deg` below the
    /// saturation bound; at the bound, "at least `deg`").
    pub fn with_indegree(&self, deg: u32) -> u64 {
        self.indeg[bucket(deg)]
    }

    /// Vertexes whose outdegree is exactly `deg` (same saturation note
    /// as [`with_indegree`](Self::with_indegree)).
    pub fn with_outdegree(&self, deg: u32) -> u64 {
        self.outdeg[bucket(deg)]
    }

    /// Vertexes with indegree = outdegree.
    pub fn in_eq_out(&self) -> u64 {
        self.in_eq_out
    }

    /// The raw indegree bucket counts: index `d` holds the number of
    /// vertexes with indegree `d`, except the last bucket, which holds
    /// all vertexes at or above the saturation bound.
    pub fn indegree_counts(&self) -> &[u64] {
        &self.indeg
    }

    /// The raw outdegree bucket counts (same layout as
    /// [`indegree_counts`](Self::indegree_counts)).
    pub fn outdegree_counts(&self) -> &[u64] {
        &self.outdeg
    }

    /// Registers a fresh vertex (degrees 0/0).
    pub fn add_node(&mut self) {
        self.nodes += 1;
        self.indeg[0] += 1;
        self.outdeg[0] += 1;
        self.in_eq_out += 1;
    }

    /// Removes a vertex that currently has the given degrees.
    pub fn remove_node(&mut self, indegree: u32, outdegree: u32) {
        debug_assert!(self.nodes > 0);
        self.nodes -= 1;
        self.indeg[bucket(indegree)] -= 1;
        self.outdeg[bucket(outdegree)] -= 1;
        if indegree == outdegree {
            self.in_eq_out -= 1;
        }
    }

    /// Moves a vertex from degrees `(old_in, old_out)` to
    /// `(new_in, new_out)`.
    pub fn change_degrees(&mut self, old_in: u32, new_in: u32, old_out: u32, new_out: u32) {
        if old_in != new_in {
            self.indeg[bucket(old_in)] -= 1;
            self.indeg[bucket(new_in)] += 1;
        }
        if old_out != new_out {
            self.outdeg[bucket(old_out)] -= 1;
            self.outdeg[bucket(new_out)] += 1;
        }
        match (old_in == old_out, new_in == new_out) {
            (true, false) => self.in_eq_out -= 1,
            (false, true) => self.in_eq_out += 1,
            _ => {}
        }
    }

    /// Folds another histogram into this one.
    ///
    /// Every counter is additive over disjoint vertex sets, so merging
    /// per-shard histograms built from a partition of the graph yields
    /// exactly the histogram the unsharded graph would have — this is
    /// the reconciliation step for
    /// [`ShardedGraph`](crate::ShardedGraph).
    pub fn merge(&mut self, other: &DegreeHistogram) {
        for (a, b) in self.indeg.iter_mut().zip(&other.indeg) {
            *a += b;
        }
        for (a, b) in self.outdeg.iter_mut().zip(&other.outdeg) {
            *a += b;
        }
        self.nodes += other.nodes;
        self.in_eq_out += other.in_eq_out;
    }

    /// Percentage (0–100) of vertexes with the given indegree. Returns
    /// 0 for an empty graph.
    pub fn pct_indegree(&self, deg: u32) -> f64 {
        pct(self.with_indegree(deg), self.nodes)
    }

    /// Percentage (0–100) of vertexes with the given outdegree.
    pub fn pct_outdegree(&self, deg: u32) -> f64 {
        pct(self.with_outdegree(deg), self.nodes)
    }

    /// Percentage (0–100) of vertexes with indegree = outdegree.
    pub fn pct_in_eq_out(&self) -> f64 {
        pct(self.in_eq_out, self.nodes)
    }
}

fn pct(count: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        count as f64 * 100.0 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero_percentages() {
        let h = DegreeHistogram::new();
        assert_eq!(h.nodes(), 0);
        assert_eq!(h.pct_indegree(0), 0.0);
        assert_eq!(h.pct_in_eq_out(), 0.0);
    }

    #[test]
    fn add_and_remove_node_roundtrip() {
        let mut h = DegreeHistogram::new();
        h.add_node();
        assert_eq!(h.nodes(), 1);
        assert_eq!(h.with_indegree(0), 1);
        assert_eq!(h.in_eq_out(), 1);
        h.remove_node(0, 0);
        assert_eq!(h, DegreeHistogram::new());
    }

    #[test]
    fn change_degrees_moves_buckets_and_tracks_balance() {
        let mut h = DegreeHistogram::new();
        h.add_node();
        h.change_degrees(0, 1, 0, 0); // gains an in-edge: unbalanced
        assert_eq!(h.with_indegree(1), 1);
        assert_eq!(h.with_indegree(0), 0);
        assert_eq!(h.in_eq_out(), 0);
        h.change_degrees(1, 1, 0, 1); // gains an out-edge: balanced again
        assert_eq!(h.in_eq_out(), 1);
        h.change_degrees(1, 0, 1, 1); // loses the in-edge
        assert_eq!(h.in_eq_out(), 0);
        assert_eq!(h.with_indegree(0), 1);
    }

    #[test]
    fn degrees_saturate_without_panicking() {
        let mut h = DegreeHistogram::new();
        h.add_node();
        h.change_degrees(0, 1000, 0, 2000);
        assert_eq!(h.with_indegree(1000), 1);
        assert_eq!(h.with_indegree(5000), 1, "saturated bucket is shared");
        h.remove_node(1000, 2000);
        assert_eq!(h.nodes(), 0);
    }

    #[test]
    fn percentages_sum_to_100_over_degree_range() {
        let mut h = DegreeHistogram::new();
        for i in 0..10u32 {
            h.add_node();
            h.change_degrees(0, i % 3, 0, 0);
        }
        let total: f64 = (0..3).map(|d| h.pct_indegree(d)).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }
}
