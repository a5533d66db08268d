//! Bridge from detector-side [`MetricSample`] series to run-store
//! [`RunRow`]s — the one place that knows how the metric vocabulary
//! maps onto columnar metric ids.

use crate::report::MetricSample;
use heapmd_runstore::{RowKind, RunRow};

/// Provenance shared by every row of one recorded run.
#[derive(Debug, Clone)]
pub struct RowSource {
    /// Workload name (e.g. `webd`).
    pub workload: String,
    /// Program version the run executed at.
    pub version: u64,
    /// Run identifier (input id, trace path, session id, ...).
    pub run: String,
    /// Tenant for fleet rows; empty for local runs.
    pub tenant: String,
    /// Which stage produced the rows.
    pub kind: RowKind,
    /// Record time, Unix seconds.
    pub time: u64,
    /// Effective store-sampling rate of the run. At `1.0` (exact) the
    /// sampling columns are omitted, keeping rows byte-identical to
    /// pre-sampling stores; below it every row gains `sampling.rate`
    /// and `sampling.band` so cross-run queries (`--agg drift`) can
    /// separate sampling noise from genuine version drift.
    pub sample_rate: f64,
}

/// Current wall clock as Unix seconds (0 if the clock is before the
/// epoch — the store treats time as advisory, not load-bearing).
pub fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Converts a sampled metric series into run-store rows, one
/// [`heap_graph::MetricKind::id`] column per paper metric.
pub fn rows_from_samples(src: &RowSource, samples: &[MetricSample]) -> Vec<RunRow> {
    samples
        .iter()
        .map(|s| {
            let mut metrics: Vec<(String, f64)> = s
                .values
                .iter()
                .map(|(k, v)| (k.id().to_string(), v))
                .collect();
            if src.sample_rate < 1.0 {
                metrics.push(("sampling.rate".to_string(), src.sample_rate));
                metrics.push((
                    "sampling.band".to_string(),
                    crate::model::sampling_widen(1.0, src.sample_rate),
                ));
            }
            RunRow {
                workload: src.workload.clone(),
                version: src.version,
                run: src.run.clone(),
                tenant: src.tenant.clone(),
                kind: src.kind,
                time: src.time,
                seq: s.seq as u64,
                fn_entries: s.fn_entries,
                nodes: s.nodes,
                edges: s.edges,
                dangling: s.dangling,
                metrics,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap_graph::{MetricKind, MetricVector, METRIC_COUNT};

    fn sample(seq: usize) -> MetricSample {
        let mut values = MetricVector::zero();
        values.set(MetricKind::Roots, 12.5);
        values.set(MetricKind::InEqOut, 1.75);
        MetricSample {
            seq,
            fn_entries: seq as u64 * 100,
            tick: 0,
            nodes: 10,
            edges: 9,
            dangling: 0,
            values,
        }
    }

    fn source() -> RowSource {
        RowSource {
            workload: "webd".into(),
            version: 3,
            run: "input-1000".into(),
            tenant: String::new(),
            kind: RowKind::Check,
            time: 1_700_000_000,
            sample_rate: 1.0,
        }
    }

    #[test]
    fn samples_record_the_seven_paper_ids() {
        let rows = rows_from_samples(&source(), &[sample(4)]);
        assert_eq!(rows[0].metrics.len(), METRIC_COUNT);
        assert_eq!(rows[0].metric("paper.roots"), Some(12.5));
        assert_eq!(rows[0].metric("paper.in_eq_out"), Some(1.75));
        assert_eq!(rows[0].seq, 4);
        assert_eq!(rows[0].version, 3);
    }

    #[test]
    fn sampled_runs_tee_rate_and_band_columns() {
        let mut src = source();
        src.sample_rate = 0.25;
        let rows = rows_from_samples(&src, &[sample(0)]);
        assert_eq!(rows[0].metric("sampling.rate"), Some(0.25));
        let band = rows[0].metric("sampling.band").unwrap();
        assert!(band > 0.0, "band column must carry the widening factor");
        assert_eq!(band, crate::model::sampling_widen(1.0, 0.25));
        // Exact runs stay column-compatible with pre-sampling stores.
        let exact = rows_from_samples(&source(), &[sample(0)]);
        assert_eq!(exact[0].metric("sampling.rate"), None);
        assert_eq!(exact[0].metric("sampling.band"), None);
    }
}
