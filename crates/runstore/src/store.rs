//! Directory-of-segments store: append-only batches of [`RunRow`]s,
//! filtered + projected scans, and segment-granular fault tolerance.

use crate::segment::{read_segment, write_segment, Column};
use crate::StoreError;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic opening every segment (versioned: bump the digit for
/// incompatible layout changes).
pub const SEGMENT_MAGIC: &[u8; 6] = b"HMDR1\n";

/// The fixed dimension columns present in every segment, in on-disk
/// order. Everything else in a segment is a metric column named by its
/// metric id.
pub const DIMENSION_COLUMNS: [&str; 11] = [
    "workload",
    "version",
    "run",
    "tenant",
    "kind",
    "time",
    "seq",
    "fn_entries",
    "nodes",
    "edges",
    "dangling",
];

/// Which pipeline stage produced a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKind {
    /// Model-construction (training) run.
    Train,
    /// Plain execution with sampling, no verdict.
    Run,
    /// Offline execution checking against a model.
    Check,
    /// Fleet ingestion through the serve daemon.
    Serve,
}

impl RowKind {
    /// All kinds, for CLI help and iteration.
    pub const ALL: [RowKind; 4] = [RowKind::Train, RowKind::Run, RowKind::Check, RowKind::Serve];

    /// Stable on-disk / CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RowKind::Train => "train",
            RowKind::Run => "run",
            RowKind::Check => "check",
            RowKind::Serve => "serve",
        }
    }

    /// Parses the [`Self::as_str`] spelling. Option (not `FromStr`'s
    /// Result) because callers treat unknown kinds as a usage error
    /// with their own message.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<RowKind> {
        RowKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for RowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded computation point (or run-level rollup): where it came
/// from plus the metric values observed there.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Workload name (e.g. `commercial/webd`).
    pub workload: String,
    /// Program version the workload ran at (0 when unversioned).
    pub version: u64,
    /// Run identifier (trace name, session id, ...).
    pub run: String,
    /// Tenant for fleet rows; empty for local runs.
    pub tenant: String,
    /// Producing stage.
    pub kind: RowKind,
    /// Wall-clock seconds since the Unix epoch at record time.
    pub time: u64,
    /// Sample sequence number within the run.
    pub seq: u64,
    /// Function entries observed when the sample was taken.
    pub fn_entries: u64,
    /// Live heap-graph nodes at the sample.
    pub nodes: u64,
    /// Live heap-graph edges at the sample.
    pub edges: u64,
    /// Dangling (freed-target) pointers at the sample.
    pub dangling: u64,
    /// Metric id → value pairs. Rows in one batch may carry different
    /// metric sets; missing values are stored as NaN.
    pub metrics: Vec<(String, f64)>,
}

impl RunRow {
    /// Looks up a metric value by id; NaN (the absent marker) maps to
    /// `None`.
    pub fn metric(&self, id: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == id)
            .map(|&(_, v)| v)
            .filter(|v| !v.is_nan())
    }
}

/// Scan predicate: `None` fields match everything; set fields must all
/// match (conjunction).
#[derive(Debug, Clone, Default)]
pub struct RowFilter {
    /// Exact workload name.
    pub workload: Option<String>,
    /// Exact version.
    pub version: Option<u64>,
    /// Exact run id.
    pub run: Option<String>,
    /// Exact tenant.
    pub tenant: Option<String>,
    /// Producing stage.
    pub kind: Option<RowKind>,
    /// Inclusive lower time bound (Unix seconds).
    pub since: Option<u64>,
    /// Inclusive upper time bound (Unix seconds).
    pub until: Option<u64>,
}

impl RowFilter {
    /// True when `row` satisfies every set field.
    pub fn matches(&self, row: &RunRow) -> bool {
        self.workload.as_deref().is_none_or(|w| w == row.workload)
            && self.version.is_none_or(|v| v == row.version)
            && self.run.as_deref().is_none_or(|r| r == row.run)
            && self.tenant.as_deref().is_none_or(|t| t == row.tenant)
            && self.kind.is_none_or(|k| k == row.kind)
            && self.since.is_none_or(|s| row.time >= s)
            && self.until.is_none_or(|u| row.time <= u)
    }
}

/// Result of [`RunStore::scan`]: matching rows plus how the read went.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Rows passing the filter, in segment order then row order.
    pub rows: Vec<RunRow>,
    /// Segments read successfully (including salvaged ones).
    pub segments_read: usize,
    /// Segments recovered via the sequential salvage walk.
    pub segments_salvaged: usize,
    /// Segments skipped entirely because nothing was recoverable.
    pub segments_skipped: usize,
    /// Damaged blocks across all read segments.
    pub damaged_blocks: usize,
}

/// An append-only columnar store rooted at a directory.
///
/// Appends serialize through an in-process mutex (the serve daemon's
/// tenant checks share one store); cross-process writers should use
/// distinct store directories.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    append_lock: Mutex<()>,
}

impl RunStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<RunStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(RunStore {
            dir,
            append_lock: Mutex::new(()),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment files currently in the store, in append order.
    pub fn segments(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut segs: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "hmdr")
                    && p.file_stem()
                        .and_then(|s| s.to_str())
                        .is_some_and(|s| s.starts_with("seg-"))
            })
            .collect();
        segs.sort();
        Ok(segs)
    }

    /// Appends `rows` as one new immutable segment; returns its path.
    /// Empty batches are a no-op returning the store directory.
    pub fn append(&self, rows: &[RunRow]) -> Result<PathBuf, StoreError> {
        if rows.is_empty() {
            return Ok(self.dir.clone());
        }
        let columns = rows_to_columns(rows);
        let _guard = self.append_lock.lock().unwrap();
        let next = self
            .segments()?
            .iter()
            .filter_map(|p| {
                p.file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.strip_prefix("seg-"))
                    .and_then(|s| s.parse::<u64>().ok())
            })
            .max()
            .map_or(0, |n| n + 1);
        let path = self.dir.join(format!("seg-{next:08}.hmdr"));
        write_segment(&path, &columns)?;
        Ok(path)
    }

    /// The metric column ids present anywhere in the store (union
    /// across segments), sorted.
    pub fn metric_ids(&self) -> Result<Vec<String>, StoreError> {
        let mut ids = BTreeSet::new();
        for seg in self.segments()? {
            let Ok(data) = read_segment(&seg, None) else {
                continue;
            };
            for (name, _) in data.columns {
                if !DIMENSION_COLUMNS.contains(&name.as_str()) {
                    ids.insert(name);
                }
            }
        }
        Ok(ids.into_iter().collect())
    }

    /// Scans the store, returning rows matching `filter`.
    ///
    /// `metrics` projects which metric columns to materialize per row
    /// (`None` = all present). Dimension columns are always read — the
    /// filter needs them. Damaged segments degrade instead of failing
    /// the scan: salvageable ones contribute their surviving rows,
    /// unreadable ones are counted in
    /// [`ScanOutcome::segments_skipped`].
    pub fn scan(
        &self,
        filter: &RowFilter,
        metrics: Option<&[String]>,
    ) -> Result<ScanOutcome, StoreError> {
        let mut outcome = ScanOutcome::default();
        let projection: Option<Vec<&str>> = metrics.map(|m| {
            DIMENSION_COLUMNS
                .iter()
                .copied()
                .chain(m.iter().map(String::as_str))
                .collect()
        });
        for seg in self.segments()? {
            let data = match read_segment(&seg, projection.as_deref()) {
                Ok(d) => d,
                Err(StoreError::Corrupt { .. }) => {
                    outcome.segments_skipped += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            outcome.segments_read += 1;
            outcome.segments_salvaged += usize::from(data.salvaged);
            outcome.damaged_blocks += data.damaged_blocks;
            let rows = columns_to_rows(&seg, &data.columns, data.rows)?;
            outcome
                .rows
                .extend(rows.into_iter().filter(|r| filter.matches(r)));
        }
        Ok(outcome)
    }
}

fn rows_to_columns(rows: &[RunRow]) -> Vec<(String, Column)> {
    let mut columns: Vec<(String, Column)> = vec![
        (
            "workload".into(),
            Column::Str(rows.iter().map(|r| r.workload.clone()).collect()),
        ),
        (
            "version".into(),
            Column::U64(rows.iter().map(|r| r.version).collect()),
        ),
        (
            "run".into(),
            Column::Str(rows.iter().map(|r| r.run.clone()).collect()),
        ),
        (
            "tenant".into(),
            Column::Str(rows.iter().map(|r| r.tenant.clone()).collect()),
        ),
        (
            "kind".into(),
            Column::Str(rows.iter().map(|r| r.kind.as_str().to_string()).collect()),
        ),
        (
            "time".into(),
            Column::U64(rows.iter().map(|r| r.time).collect()),
        ),
        (
            "seq".into(),
            Column::U64(rows.iter().map(|r| r.seq).collect()),
        ),
        (
            "fn_entries".into(),
            Column::U64(rows.iter().map(|r| r.fn_entries).collect()),
        ),
        (
            "nodes".into(),
            Column::U64(rows.iter().map(|r| r.nodes).collect()),
        ),
        (
            "edges".into(),
            Column::U64(rows.iter().map(|r| r.edges).collect()),
        ),
        (
            "dangling".into(),
            Column::U64(rows.iter().map(|r| r.dangling).collect()),
        ),
    ];
    // Union of metric ids across the batch, in first-seen order so
    // segments written from a single producer keep a stable layout.
    let mut metric_ids: Vec<&str> = Vec::new();
    for row in rows {
        for (id, _) in &row.metrics {
            if !metric_ids.iter().any(|m| m == id) {
                metric_ids.push(id);
            }
        }
    }
    for id in metric_ids {
        let vals: Vec<f64> = rows
            .iter()
            .map(|r| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == id)
                    .map_or(f64::NAN, |&(_, v)| v)
            })
            .collect();
        columns.push((id.to_string(), Column::F64(vals)));
    }
    columns
}

fn columns_to_rows(
    seg: &Path,
    columns: &[(String, Column)],
    rows: usize,
) -> Result<Vec<RunRow>, StoreError> {
    fn str_col<'a>(
        seg: &Path,
        columns: &'a [(String, Column)],
        name: &str,
    ) -> Result<Option<&'a [String]>, StoreError> {
        match columns.iter().find(|(n, _)| n == name).map(|(_, c)| c) {
            Some(Column::Str(v)) => Ok(Some(v)),
            Some(_) => Err(StoreError::corrupt(
                seg,
                format!("dimension column {name:?} has the wrong type"),
            )),
            None => Ok(None),
        }
    }
    fn u64_col<'a>(
        seg: &Path,
        columns: &'a [(String, Column)],
        name: &str,
    ) -> Result<Option<&'a [u64]>, StoreError> {
        match columns.iter().find(|(n, _)| n == name).map(|(_, c)| c) {
            Some(Column::U64(v)) => Ok(Some(v)),
            Some(_) => Err(StoreError::corrupt(
                seg,
                format!("dimension column {name:?} has the wrong type"),
            )),
            None => Ok(None),
        }
    }

    let workload = str_col(seg, columns, "workload")?;
    let run = str_col(seg, columns, "run")?;
    let tenant = str_col(seg, columns, "tenant")?;
    let kind = str_col(seg, columns, "kind")?;
    let version = u64_col(seg, columns, "version")?;
    let time = u64_col(seg, columns, "time")?;
    let seq = u64_col(seg, columns, "seq")?;
    let fn_entries = u64_col(seg, columns, "fn_entries")?;
    let nodes = u64_col(seg, columns, "nodes")?;
    let edges = u64_col(seg, columns, "edges")?;
    let dangling = u64_col(seg, columns, "dangling")?;
    let metric_cols: Vec<(&String, &[f64])> = columns
        .iter()
        .filter(|(n, _)| !DIMENSION_COLUMNS.contains(&n.as_str()))
        .filter_map(|(n, c)| match c {
            Column::F64(v) => Some((n, v.as_slice())),
            _ => None,
        })
        .collect();

    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        out.push(RunRow {
            workload: workload.map_or_else(String::new, |c| c[i].clone()),
            version: version.map_or(0, |c| c[i]),
            run: run.map_or_else(String::new, |c| c[i].clone()),
            tenant: tenant.map_or_else(String::new, |c| c[i].clone()),
            kind: kind
                .and_then(|c| RowKind::from_str(&c[i]))
                .unwrap_or(RowKind::Run),
            time: time.map_or(0, |c| c[i]),
            seq: seq.map_or(0, |c| c[i]),
            fn_entries: fn_entries.map_or(0, |c| c[i]),
            nodes: nodes.map_or(0, |c| c[i]),
            edges: edges.map_or(0, |c| c[i]),
            dangling: dangling.map_or(0, |c| c[i]),
            metrics: metric_cols
                .iter()
                .map(|(n, v)| ((*n).clone(), v[i]))
                .collect(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> RunStore {
        let dir = std::env::temp_dir()
            .join("heapmd-runstore-store-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    pub(crate) fn row(workload: &str, version: u64, seq: u64, roots: f64) -> RunRow {
        RunRow {
            workload: workload.into(),
            version,
            run: format!("run-{version}-{seq}"),
            tenant: String::new(),
            kind: RowKind::Check,
            time: 1_700_000_000 + seq,
            seq,
            fn_entries: seq * 100,
            nodes: 50 + seq,
            edges: 40 + seq,
            dangling: 0,
            metrics: vec![
                ("paper.roots".into(), roots),
                ("dist.in_entropy".into(), 1.5 + roots / 100.0),
            ],
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let store = temp_store("round-trip");
        store
            .append(&[row("webd", 1, 0, 10.0), row("webd", 1, 1, 11.0)])
            .unwrap();
        store.append(&[row("webd", 2, 0, 20.0)]).unwrap();
        assert_eq!(store.segments().unwrap().len(), 2);
        let all = store.scan(&RowFilter::default(), None).unwrap();
        assert_eq!(all.rows.len(), 3);
        assert_eq!(all.segments_read, 2);
        assert_eq!(all.rows[0].metric("paper.roots"), Some(10.0));
        assert_eq!(all.rows[2].version, 2);
    }

    #[test]
    fn filters_compose_conjunctively() {
        let store = temp_store("filters");
        store
            .append(&[
                row("webd", 1, 0, 10.0),
                row("webd", 2, 1, 20.0),
                row("cachesim", 1, 2, 30.0),
            ])
            .unwrap();
        let f = RowFilter {
            workload: Some("webd".into()),
            version: Some(2),
            ..RowFilter::default()
        };
        let hits = store.scan(&f, None).unwrap().rows;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].metric("paper.roots"), Some(20.0));
        let f = RowFilter {
            since: Some(1_700_000_002),
            ..RowFilter::default()
        };
        assert_eq!(store.scan(&f, None).unwrap().rows.len(), 1);
    }

    #[test]
    fn metric_projection_limits_materialization() {
        let store = temp_store("projection");
        store.append(&[row("webd", 1, 0, 10.0)]).unwrap();
        let proj = vec!["paper.roots".to_string()];
        let rows = store.scan(&RowFilter::default(), Some(&proj)).unwrap().rows;
        assert_eq!(rows[0].metrics.len(), 1);
        assert_eq!(rows[0].metric("paper.roots"), Some(10.0));
        assert_eq!(rows[0].metric("dist.in_entropy"), None);
    }

    #[test]
    fn heterogeneous_metric_sets_pad_with_nan() {
        let store = temp_store("heterogeneous");
        let mut r1 = row("webd", 1, 0, 10.0);
        r1.metrics = vec![("paper.roots".into(), 10.0)];
        let mut r2 = row("webd", 1, 1, 11.0);
        r2.metrics = vec![("paper.leaves".into(), 4.0)];
        store.append(&[r1, r2]).unwrap();
        let rows = store.scan(&RowFilter::default(), None).unwrap().rows;
        assert_eq!(rows[0].metric("paper.roots"), Some(10.0));
        assert_eq!(
            rows[0].metric("paper.leaves"),
            None,
            "NaN pad reads as absent"
        );
        assert_eq!(rows[1].metric("paper.leaves"), Some(4.0));
    }

    #[test]
    fn corrupt_segment_degrades_not_fails() {
        let store = temp_store("degrade");
        store.append(&[row("webd", 1, 0, 10.0)]).unwrap();
        store.append(&[row("webd", 1, 1, 11.0)]).unwrap();
        let segs = store.segments().unwrap();
        fs::write(&segs[0], b"HMDR1\ngarbage beyond recovery").unwrap();
        let outcome = store.scan(&RowFilter::default(), None).unwrap();
        assert_eq!(outcome.segments_skipped, 1);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(outcome.rows[0].seq, 1);
    }

    #[test]
    fn metric_ids_unions_across_segments() {
        let store = temp_store("metric-ids");
        let mut r1 = row("webd", 1, 0, 10.0);
        r1.metrics = vec![("paper.roots".into(), 10.0)];
        let mut r2 = row("webd", 1, 1, 11.0);
        r2.metrics = vec![("dist.out_entropy".into(), 2.0)];
        store.append(&[r1]).unwrap();
        store.append(&[r2]).unwrap();
        assert_eq!(
            store.metric_ids().unwrap(),
            vec!["dist.out_entropy".to_string(), "paper.roots".to_string()]
        );
    }
}
