//! Columnar run-store throughput (PR 9): append and scan rates over a
//! realistic cross-version corpus — 1,200 recorded runs across five
//! versions, each carrying the seven paper metrics. The
//! `scan_*` and `drift` cases are the hot path behind `heapmd query`:
//! a regression matrix answered purely by columnar scan (see
//! BENCH_PR9.json for the committed rows/s figures).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heapmd::MetricKind;
use heapmd_runstore::{drift_by_version, MetricStats, RowFilter, RowKind, RunRow, RunStore};
use std::path::PathBuf;

/// Recorded runs in the corpus: 5 versions x 240 runs each.
const VERSIONS: u64 = 5;
const RUNS_PER_VERSION: u64 = 240;
const ROWS: u64 = VERSIONS * RUNS_PER_VERSION;

/// Rows per append batch — the segment granularity a nightly training
/// sweep would produce.
const BATCH: usize = 100;

/// A deterministic corpus: every row carries the seven paper metrics,
/// with a mild per-version drift on the paper metrics so the drift
/// aggregation has real structure to find.
fn corpus() -> Vec<RunRow> {
    let ids: Vec<String> = MetricKind::ALL.map(|k| k.id().to_string()).into();
    let mut rows = Vec::with_capacity(ROWS as usize);
    for version in 1..=VERSIONS {
        for run in 0..RUNS_PER_VERSION {
            let jitter = (run % 17) as f64 / 10.0;
            let metrics = ids
                .iter()
                .enumerate()
                .map(|(i, id)| {
                    let base = 5.0 + i as f64 * 4.0;
                    (id.clone(), base + version as f64 * 0.3 + jitter)
                })
                .collect();
            rows.push(RunRow {
                workload: "multimedia".into(),
                version,
                run: format!("input-{run}"),
                tenant: String::new(),
                kind: RowKind::Check,
                time: 1_700_000_000 + version * 86_400 + run,
                seq: run,
                fn_entries: 10_000 + run,
                nodes: 4_000 + run,
                edges: 3_900 + run,
                dangling: 0,
                metrics,
            });
        }
    }
    rows
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("heapmd-bench-rs-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn bench_run_store(c: &mut Criterion) {
    let rows = corpus();

    let mut group = c.benchmark_group("run_store");
    group.throughput(Throughput::Elements(ROWS));

    // Full write path: open, append in segment-sized batches, fsync'd
    // atomic renames included. A fresh directory every iteration so no
    // run reuses the previous one's segments.
    group.bench_function(BenchmarkId::new("append", ROWS), |b| {
        let dir = fresh_dir("append");
        b.iter(|| {
            std::fs::remove_dir_all(&dir).ok();
            let store = RunStore::open(&dir).expect("open");
            for batch in rows.chunks(BATCH) {
                store.append(batch).expect("append");
            }
            store.segments().expect("segments").len()
        });
        std::fs::remove_dir_all(&dir).ok();
    });

    // A persisted corpus for the read-side cases.
    let dir = fresh_dir("scan");
    let store = RunStore::open(&dir).expect("open");
    for batch in rows.chunks(BATCH) {
        store.append(batch).expect("append");
    }

    // Full-table scan, every column decoded.
    group.bench_function(BenchmarkId::new("scan_full", ROWS), |b| {
        b.iter(|| {
            let out = store.scan(&RowFilter::default(), None).expect("scan");
            assert_eq!(out.rows.len(), ROWS as usize);
            out.rows.len()
        })
    });

    // Projected scan: one metric column, one version — the shape of a
    // `heapmd query --version V --metric M` call. Throughput is still
    // the full corpus: the scan must consider every row to filter.
    group.bench_function(BenchmarkId::new("scan_projected", ROWS), |b| {
        let filter = RowFilter {
            version: Some(3),
            ..RowFilter::default()
        };
        let cols = ["paper.roots".to_string()];
        b.iter(|| {
            let out = store.scan(&filter, Some(&cols)).expect("scan");
            assert_eq!(out.rows.len(), RUNS_PER_VERSION as usize);
            out.rows.len()
        })
    });

    // The cross-version regression matrix: scan + per-version stats +
    // version-over-version drift, i.e. `heapmd query --agg drift`.
    group.bench_function(BenchmarkId::new("drift", ROWS), |b| {
        let cols = ["paper.indeg1".to_string()];
        b.iter(|| {
            let out = store
                .scan(&RowFilter::default(), Some(&cols))
                .expect("scan");
            let drift = drift_by_version(&out.rows, "paper.indeg1");
            assert_eq!(drift.len(), VERSIONS as usize);
            assert!(drift[1].drift_pct.is_some());
            drift.len()
        })
    });

    // Per-metric summary stats over the full corpus, the
    // `--agg stats` path.
    group.bench_function(BenchmarkId::new("stats", ROWS), |b| {
        b.iter(|| {
            let out = store.scan(&RowFilter::default(), None).expect("scan");
            let mut computed = 0usize;
            for kind in MetricKind::ALL {
                let vals: Vec<f64> = out
                    .rows
                    .iter()
                    .flat_map(|r| r.metrics.iter())
                    .filter(|(id, _)| id == kind.id())
                    .map(|(_, v)| *v)
                    .collect();
                if MetricStats::compute(&vals).is_some() {
                    computed += 1;
                }
            }
            assert_eq!(computed, MetricKind::ALL.len());
            computed
        })
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_run_store);
criterion_main!(benches);
