//! Incident bundles: the durable flight-recorder artifact.
//!
//! The paper's detector logs call stacks into a circular buffer while a
//! stable metric drifts toward a calibrated bound (§3.2), so a report
//! can show context before, during, and after the crossing — but that
//! context, the metric time series, and the heap-graph shape around the
//! crossing were transient in this reproduction: computed, printed, and
//! thrown away. An [`IncidentBundle`] freezes all of it the moment an
//! anomaly fires, so a single incident at scale can be triaged offline
//! (`heapmd inspect`) without rerunning the workload.
//!
//! # Wire format
//!
//! Length-framed, CRC-checked JSON lines under the bundle magic:
//!
//! ```text
//! HMDI1 <len:08x> <crc:08x> <payload-json>\n
//! ```
//!
//! A healthy bundle is `Header`, one `Meta`, zero or more `Stack` /
//! `Series` records, at most one `Degrees`, then an `End { records }`
//! trailer counting everything before it. `Header` carries the format
//! version; `Meta` is the report the bundle was captured for plus the
//! capture's scalars, and the report's context travels as the `Stack`
//! records. Splitting the bundle across records is deliberate: a
//! single bit flip damages one record, and
//! [`IncidentBundle::salvage_bytes`] resynchronizes at the next line
//! that starts with the magic, so the rest of the bundle survives.
//!
//! Bundles are written via [`crate::persist::write_atomic`], so a crash
//! mid-write leaves either the previous artifact or none — never a
//! torn file.

use crate::bug::{BugReport, StackLogEntry};
use crate::error::HeapMdError;
use crate::persist::crc32;
use heap_graph::DegreeHistogram;
use heapmd_obs::SeriesSnapshot;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Magic prefix identifying a version-1 incident-bundle record.
pub const INCIDENT_MAGIC: &str = "HMDI1";

/// Current incident-bundle format version. Readers reject bundles from
/// the future; older versions are upgraded on read (v1 bundles lack the
/// full-resolution degree distributions, which default to empty, and
/// v1/v2 bundles lack the report's sampling rate and band distance,
/// which default to 1.0 and 0.0).
pub const INCIDENT_FORMAT_VERSION: u32 = 3;

/// Highest degree bucket captured per direction in [`DegreeSnapshot`]
/// (degrees past it are summed into the last bucket).
pub const DEGREE_BUCKETS: usize = 9;

/// One record in a bundle. Externally tagged, struct variants only
/// (the vendored serde stand-in round-trips those faithfully).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum BundleRecord {
    /// First record of every bundle.
    Header {
        /// Bundle format version.
        format: u32,
    },
    /// The report the incident was captured for, and the capture.
    Meta {
        /// The metadata payload.
        meta: MetaRecord,
    },
    /// One armed-window call-stack snapshot.
    Stack {
        /// The circular-buffer entry.
        entry: StackLogEntry,
    },
    /// One recorded metric/rate time series.
    Series {
        /// The series payload.
        series: SeriesData,
    },
    /// Heap-graph degree histogram at detection time.
    Degrees {
        /// The degree snapshot.
        degrees: DegreeSnapshot,
    },
    /// Clean end-of-bundle trailer.
    End {
        /// Number of records that should precede this trailer.
        records: u64,
    },
}

/// The `Meta` record's payload: the [`BugReport`], written without its
/// context (which travels as `Stack` records), beside the capture's
/// scalars. The report's keys are v2's, so v1/v2 bundles parse; their
/// `version` and `source` keys are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct MetaRecord {
    #[serde(flatten)]
    report: BugReport,
    slope: f64,
    armed_at_seq: Option<u64>,
    samples_seen: u64,
}

/// One captured time series (a [`SeriesSnapshot`] in serializable form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesData {
    /// Series name, e.g. `metric.Indeg=1` or `rate.allocs`.
    pub name: String,
    /// Downsampling stride at capture (1 = every point retained).
    pub stride: u64,
    /// Points ever appended to the series before downsampling.
    pub seen: u64,
    /// Retained `(x, y)` points, oldest first.
    pub points: Vec<(u64, f64)>,
}

impl From<&SeriesSnapshot> for SeriesData {
    fn from(s: &SeriesSnapshot) -> Self {
        SeriesData {
            name: s.name.clone(),
            stride: s.stride,
            seen: s.seen,
            points: s.points.clone(),
        }
    }
}

/// Compact copy of the heap-graph degree histogram at detection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeSnapshot {
    /// Live nodes in the graph.
    pub nodes: u64,
    /// Nodes with indegree `d` for `d in 0..DEGREE_BUCKETS-1`; the last
    /// bucket sums all higher degrees.
    pub indeg: Vec<u64>,
    /// Same, for outdegree.
    pub outdeg: Vec<u64>,
    /// Nodes whose indegree equals their outdegree.
    pub in_eq_out: u64,
    /// Full-resolution indegree distribution as sparse ascending
    /// `(degree, node count)` pairs — no overflow bucket, so `inspect`
    /// shows every degree present. Empty in v1 bundles.
    #[serde(default)]
    pub indeg_full: Vec<(u32, u64)>,
    /// Same, for outdegree.
    #[serde(default)]
    pub outdeg_full: Vec<(u32, u64)>,
}

impl DegreeSnapshot {
    /// Captures the current histogram: the bucketed view (degrees past
    /// [`DEGREE_BUCKETS`] sum into the final slot) plus the sparse
    /// full-resolution distributions.
    pub fn capture(h: &DegreeHistogram) -> Self {
        let bucket = |count_at: &dyn Fn(usize) -> u64| -> Vec<u64> {
            let mut v: Vec<u64> = (0..DEGREE_BUCKETS - 1).map(count_at).collect();
            let covered: u64 = v.iter().sum();
            v.push(h.nodes().saturating_sub(covered));
            v
        };
        let sparse = |counts: &[u64]| -> Vec<(u32, u64)> {
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(d, &n)| (d as u32, n))
                .collect()
        };
        DegreeSnapshot {
            nodes: h.nodes(),
            indeg: bucket(&|d| h.with_indegree(d as u32)),
            outdeg: bucket(&|d| h.with_outdegree(d as u32)),
            in_eq_out: h.in_eq_out(),
            indeg_full: sparse(h.indegree_counts()),
            outdeg_full: sparse(h.outdegree_counts()),
        }
    }
}

/// A complete incident: the report it was captured for, and what the
/// capture adds — the slope and armed window at the crossing, the
/// recorded series, and the degree histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentBundle {
    /// The verdict. Its `context` holds the armed-window call stacks,
    /// oldest first.
    pub report: BugReport,
    /// Per-sample slope at the crossing (the adverse-drift signal that
    /// armed logging).
    pub slope: f64,
    /// Sample index at which armed logging began, when the detector
    /// armed before firing.
    pub armed_at_seq: Option<u64>,
    /// Total metric computation points seen by the checker at capture.
    pub samples_seen: u64,
    /// Recorded metric/rate series (empty when no flight recorder was
    /// attached).
    pub series: Vec<SeriesData>,
    /// Degree histogram at detection, when captured.
    pub degrees: Option<DegreeSnapshot>,
}

/// What a bundle salvage recovered, and what it had to give up.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleSalvageStats {
    /// Valid records consumed (header and trailer included).
    pub records: u64,
    /// Records lost to damage (resync skips).
    pub skipped: u64,
    /// Of the `skipped` records, those whose frame and checksum are
    /// intact but whose payload this build does not decode (a retired
    /// metric or record kind): a re-recording, not a salvage, recovers
    /// them.
    pub undecodable: u64,
    /// Total bytes in the artifact.
    pub total_bytes: u64,
    /// `true` when every record parsed and the `End` trailer matched.
    pub complete: bool,
    /// Byte offset and description of the first damage, when any.
    pub corruption: Option<(u64, String)>,
}

impl IncidentBundle {
    /// Structural validation: finite value and slope, finite ordered
    /// range. (The format version is the `Header` record's, checked on
    /// read.)
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Corrupt`] naming the offending field.
    pub fn validate(&self) -> Result<(), HeapMdError> {
        let r = &self.report;
        if !r.value.is_finite() || !self.slope.is_finite() {
            return Err(HeapMdError::corrupt(0, "non-finite value or slope"));
        }
        if !r.range.0.is_finite() || !r.range.1.is_finite() || r.range.0 > r.range.1 {
            return Err(HeapMdError::corrupt(
                0,
                format!("invalid calibrated range [{}, {}]", r.range.0, r.range.1),
            ));
        }
        Ok(())
    }

    fn records(&self) -> Vec<BundleRecord> {
        let mut report = self.report.clone();
        let context = std::mem::take(&mut report.context);
        let mut out = Vec::with_capacity(3 + context.len() + self.series.len());
        out.push(BundleRecord::Header {
            format: INCIDENT_FORMAT_VERSION,
        });
        out.push(BundleRecord::Meta {
            meta: MetaRecord {
                report,
                slope: self.slope,
                armed_at_seq: self.armed_at_seq,
                samples_seen: self.samples_seen,
            },
        });
        for entry in context {
            out.push(BundleRecord::Stack { entry });
        }
        for series in &self.series {
            out.push(BundleRecord::Series {
                series: series.clone(),
            });
        }
        if let Some(degrees) = &self.degrees {
            out.push(BundleRecord::Degrees {
                degrees: degrees.clone(),
            });
        }
        out
    }

    /// Renders the bundle into its framed on-disk bytes.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Serde`] if a record fails to serialize.
    pub fn to_bytes(&self) -> Result<Vec<u8>, HeapMdError> {
        let records = self.records();
        let mut out = String::new();
        for record in &records {
            out.push_str(&frame_with_magic(
                INCIDENT_MAGIC,
                &serde_json::to_string(record)?,
            ));
        }
        out.push_str(&frame_with_magic(
            INCIDENT_MAGIC,
            &serde_json::to_string(&BundleRecord::End {
                records: records.len() as u64,
            })?,
        ));
        Ok(out.into_bytes())
    }

    /// Validates and writes the bundle to `path` atomically (tmp
    /// sibling + rename via [`crate::persist::write_atomic`]).
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Corrupt`] from validation, [`HeapMdError::Serde`]
    /// / [`HeapMdError::Io`] from rendering and writing.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        self.validate()?;
        crate::persist::write_atomic(path, &self.to_bytes()?)?;
        Ok(())
    }

    /// Strictly parses a complete, undamaged bundle.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Corrupt`] (with the byte offset of the damage) on
    /// any framing, checksum, or structural violation, a missing `Meta`,
    /// or a miscounting/missing `End` trailer.
    pub fn from_bytes_strict(bytes: &[u8]) -> Result<Self, HeapMdError> {
        let (bundle, stats) = Self::salvage_bytes(bytes);
        if let Some((offset, reason)) = stats.corruption {
            return Err(HeapMdError::Corrupt { offset, reason });
        }
        if !stats.complete {
            return Err(HeapMdError::corrupt(
                stats.total_bytes,
                "bundle truncated before End trailer",
            ));
        }
        let bundle = bundle.ok_or_else(|| HeapMdError::corrupt(0, "bundle has no Meta record"))?;
        bundle.validate()?;
        Ok(bundle)
    }

    /// Strictly loads a bundle from `path`.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] on read failure; otherwise as
    /// [`Self::from_bytes_strict`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        Self::from_bytes_strict(&std::fs::read(path)?)
    }

    /// Recovers whatever records survive in a damaged bundle.
    ///
    /// Unlike the trace stream's prefix salvage, bundle salvage
    /// *resynchronizes*: after a bad record it scans for the next line
    /// starting with the magic and keeps going, so one flipped bit
    /// costs one record, not the rest of the artifact. Returns `None`
    /// for the bundle only when no `Meta` record could be recovered.
    pub fn salvage_bytes(bytes: &[u8]) -> (Option<Self>, BundleSalvageStats) {
        let mut meta: Option<MetaRecord> = None;
        let mut stacks = Vec::new();
        let mut series = Vec::new();
        let mut degrees = None;
        let mut records: u64 = 0;
        let mut skipped: u64 = 0;
        let mut undecodable: u64 = 0;
        let mut complete = false;
        let mut corruption: Option<(u64, String)> = None;
        let mut pos = 0usize;

        while pos < bytes.len() {
            let parsed = parse_frame(INCIDENT_MAGIC, bytes, pos).and_then(|(payload, next)| {
                serde_json::from_str::<BundleRecord>(payload)
                    .map(|r| (r, next))
                    .map_err(|e| {
                        undecodable += 1;
                        format!("payload JSON: {e}")
                    })
            });
            match parsed {
                Ok((record, next)) => {
                    pos = next;
                    match record {
                        BundleRecord::Header { format } => {
                            if format > INCIDENT_FORMAT_VERSION {
                                corruption.get_or_insert((
                                    pos as u64,
                                    format!("unsupported bundle format {format}"),
                                ));
                                break;
                            }
                            records += 1;
                        }
                        BundleRecord::Meta { meta: m } => {
                            meta = Some(m);
                            records += 1;
                        }
                        BundleRecord::Stack { entry } => {
                            stacks.push(entry);
                            records += 1;
                        }
                        BundleRecord::Series { series: s } => {
                            series.push(s);
                            records += 1;
                        }
                        BundleRecord::Degrees { degrees: d } => {
                            degrees = Some(d);
                            records += 1;
                        }
                        BundleRecord::End { records: declared } => {
                            if declared == records && corruption.is_none() && pos == bytes.len() {
                                complete = true;
                            } else if declared != records {
                                corruption.get_or_insert((
                                    pos as u64,
                                    format!(
                                        "End trailer declares {declared} records, \
                                         bundle carries {records}"
                                    ),
                                ));
                            } else if pos != bytes.len() {
                                corruption.get_or_insert((
                                    pos as u64,
                                    "trailing bytes after End trailer".into(),
                                ));
                            }
                            break;
                        }
                    }
                }
                Err(reason) => {
                    corruption.get_or_insert((pos as u64, reason));
                    skipped += 1;
                    match resync(bytes, pos) {
                        Some(next) => pos = next,
                        None => break,
                    }
                }
            }
        }

        let bundle = meta.map(|m| IncidentBundle {
            report: BugReport {
                context: stacks,
                ..m.report
            },
            slope: m.slope,
            armed_at_seq: m.armed_at_seq,
            samples_seen: m.samples_seen,
            series,
            degrees,
        });
        (
            bundle,
            BundleSalvageStats {
                records,
                skipped,
                undecodable,
                total_bytes: bytes.len() as u64,
                complete,
                corruption,
            },
        )
    }

    /// Salvages a bundle from `path`, reporting recovery stats through
    /// `heapmd-obs` (`heapmd_incident_salvage_*`).
    ///
    /// # Errors
    ///
    /// Only [`HeapMdError::Io`]; damage is described in the returned
    /// stats instead of failing the read.
    pub fn salvage(
        path: impl AsRef<Path>,
    ) -> Result<(Option<Self>, BundleSalvageStats), HeapMdError> {
        let (bundle, stats) = Self::salvage_bytes(&std::fs::read(path)?);
        heapmd_obs::count!("heapmd_incident_salvage_runs_total");
        if !stats.complete {
            heapmd_obs::count!("heapmd_incident_salvage_incomplete_total");
            heapmd_obs::count!(
                "heapmd_incident_salvage_skipped_records_total",
                stats.skipped
            );
        }
        Ok((bundle, stats))
    }
}

/// Frames one payload under `magic` into a full record line: the
/// length + CRC framing every bundle record carries.
fn frame_with_magic(magic: &str, payload: &str) -> String {
    format!(
        "{magic} {:08x} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes()),
    )
}

/// Parses one framed payload under `magic` starting at `pos`; returns
/// the payload text and the offset just past the record's newline, or a
/// description of the damage. Validation is strict: exact magic, single
/// spaces, fixed-width lowercase hex, matching CRC, trailing newline,
/// UTF-8 payload.
fn parse_frame<'a>(magic: &str, bytes: &'a [u8], pos: usize) -> Result<(&'a str, usize), String> {
    let prefix_len = magic.len() + 1 + 8 + 1 + 8 + 1;
    let rest = &bytes[pos..];
    if rest.len() < prefix_len {
        return Err("truncated record prefix".into());
    }
    let prefix = &rest[..prefix_len];
    let prefix = std::str::from_utf8(prefix).map_err(|_| "record prefix is not UTF-8")?;
    let found_magic = &prefix[..magic.len()];
    if found_magic != magic {
        return Err(format!("bad magic {found_magic:?}"));
    }
    let len_hex = &prefix[magic.len() + 1..magic.len() + 9];
    let crc_hex = &prefix[magic.len() + 10..magic.len() + 18];
    if prefix.as_bytes()[magic.len()] != b' '
        || prefix.as_bytes()[magic.len() + 9] != b' '
        || prefix.as_bytes()[prefix_len - 1] != b' '
    {
        return Err("malformed record prefix".into());
    }
    // The writer emits lowercase hex only; `from_str_radix` would also
    // accept uppercase (and a leading `+`), which would let some
    // single-bit flips in the prefix pass undetected.
    let strict_hex = |s: &str| {
        s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    };
    if !strict_hex(len_hex) || !strict_hex(crc_hex) {
        return Err("malformed record prefix".into());
    }
    let len = usize::from_str_radix(len_hex, 16).map_err(|_| "unparsable length field")?;
    let declared_crc = u32::from_str_radix(crc_hex, 16).map_err(|_| "unparsable CRC field")?;
    let payload_start = prefix_len;
    let payload_end = payload_start
        .checked_add(len)
        .ok_or("length field overflow")?;
    if payload_end + 1 > rest.len() {
        return Err("record truncated mid-payload".into());
    }
    if rest[payload_end] != b'\n' {
        return Err("missing record terminator".into());
    }
    let payload = &rest[payload_start..payload_end];
    let actual_crc = crc32(payload);
    if actual_crc != declared_crc {
        return Err(format!(
            "checksum mismatch: declared {declared_crc:08x}, computed {actual_crc:08x}"
        ));
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8")?;
    Ok((payload, pos + payload_end + 1))
}

/// Finds the start of the next record line at or after `pos + 1`: the
/// next occurrence of the magic immediately following a newline.
fn resync(bytes: &[u8], pos: usize) -> Option<usize> {
    let magic = INCIDENT_MAGIC.as_bytes();
    let mut i = pos + 1;
    while i + magic.len() <= bytes.len() {
        if bytes[i - 1] == b'\n' && bytes[i..].starts_with(magic) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// A directory sink for incident bundles with deterministic filenames.
///
/// Bundles land as `<prefix>-incident-<n>-<metric>.hmdi` (zero-padded
/// ordinal, slugged metric name), written atomically. The log never
/// fails the pipeline: write errors are counted, warned, and returned,
/// but callers are expected to keep running.
#[derive(Debug, Clone)]
pub struct IncidentLog {
    dir: PathBuf,
    prefix: String,
    written: Vec<PathBuf>,
}

impl IncidentLog {
    /// A log writing into `dir` under `prefix`.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        IncidentLog {
            dir: dir.into(),
            prefix: prefix.into(),
            written: Vec::new(),
        }
    }

    /// Writes `bundle` as the next numbered file in the directory
    /// (creating it if needed) and emits an `incident` obs event.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] / [`HeapMdError::Serde`] /
    /// [`HeapMdError::Corrupt`] from validation and writing.
    pub fn write(&mut self, bundle: &IncidentBundle) -> Result<PathBuf, HeapMdError> {
        std::fs::create_dir_all(&self.dir)?;
        let name = format!(
            "{}-incident-{:03}-{}.hmdi",
            self.prefix,
            self.written.len(),
            slug(bundle.report.metric.short_name())
        );
        let path = self.dir.join(name);
        bundle.save(&path)?;
        self.written.push(path.clone());
        heapmd_obs::count!("heapmd_incidents_written_total");
        heapmd_obs::export::emit_event("incident", |o| {
            o.field_str("path", &path.to_string_lossy())
                .field_str("source", "detector")
                .field_str("metric", bundle.report.metric.short_name())
                .field_str("kind", bundle.report.kind.slug())
                .field_f64("value", bundle.report.value)
                .field_u64("sample_seq", bundle.report.sample_seq as u64)
                .field_u64("stacks", bundle.report.context.len() as u64)
                .field_u64("series", bundle.series.len() as u64);
        });
        Ok(path)
    }

    /// Paths written so far, in write order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.written
    }
}

/// Lowercases and maps non-alphanumerics to `_` (e.g. `Indeg=1` →
/// `indeg_1`) for filenames.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bug::{AnomalyKind, Direction, LogPhase};
    use heap_graph::MetricKind;

    fn sample_bundle() -> IncidentBundle {
        IncidentBundle {
            report: BugReport {
                metric: MetricKind::Indeg1,
                kind: AnomalyKind::RangeViolation {
                    direction: Direction::AboveMax,
                },
                value: 27.5,
                range: (12.0, 19.5),
                sample_seq: 41,
                fn_entries: 4_100,
                sample_rate: 0.5,
                band_distance: 1.25,
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
            },
            slope: 0.75,
            armed_at_seq: Some(38),
            samples_seen: 44,
            series: vec![
                SeriesData {
                    name: "metric.Indeg=1".into(),
                    stride: 2,
                    seen: 44,
                    points: vec![(0, 14.0), (2, 15.5), (4, 21.0), (6, 27.5)],
                },
                SeriesData {
                    name: "rate.allocs".into(),
                    stride: 1,
                    seen: 44,
                    points: vec![(0, 8.0), (1, 9.0)],
                },
            ],
            degrees: Some(DegreeSnapshot {
                nodes: 120,
                indeg: vec![10, 60, 30, 10, 5, 3, 1, 1, 0],
                outdeg: vec![20, 70, 20, 5, 3, 1, 1, 0, 0],
                in_eq_out: 44,
                indeg_full: vec![
                    (0, 10),
                    (1, 60),
                    (2, 30),
                    (3, 10),
                    (4, 5),
                    (5, 3),
                    (6, 1),
                    (12, 1),
                ],
                outdeg_full: vec![(0, 20), (1, 70), (2, 20), (3, 5), (4, 3), (5, 1), (6, 1)],
            }),
        }
    }

    #[test]
    fn bundle_round_trips_through_bytes() {
        let b = sample_bundle();
        let bytes = b.to_bytes().unwrap();
        let back = IncidentBundle::from_bytes_strict(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn bundle_round_trips_through_atomic_file() {
        let b = sample_bundle();
        let dir = std::env::temp_dir().join("heapmd-incident-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.hmdi");
        b.save(&path).unwrap();
        assert_eq!(IncidentBundle::load(&path).unwrap(), b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_salvages_or_errors_cleanly() {
        let b = sample_bundle();
        let bytes = b.to_bytes().unwrap();
        for byte in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 0x04;
            // Strict must reject or return an equal bundle (a flip in a
            // JSON f64's unused digits can round-trip equal; anything
            // else must be caught by the CRC).
            if let Ok(parsed) = IncidentBundle::from_bytes_strict(&damaged) {
                assert_eq!(parsed, b, "undetected corruption at byte {byte}");
                continue;
            }
            // Salvage never panics and loses at most the damaged
            // record: the other records all survive.
            let (salvaged, stats) = IncidentBundle::salvage_bytes(&damaged);
            assert!(stats.corruption.is_some(), "flip at {byte} left no trace");
            assert!(stats.skipped <= 2, "flip at {byte} lost {}", stats.skipped);
            if let Some(s) = salvaged {
                // A flipped record terminator can hide the start of the
                // following record too, so up to two records may go.
                let total =
                    1 + s.report.context.len() + s.series.len() + usize::from(s.degrees.is_some());
                assert!(total >= 4, "flip at {byte} lost too much: {total}");
            }
        }
    }

    #[test]
    fn salvage_recovers_series_when_a_stack_record_is_destroyed() {
        let b = sample_bundle();
        let bytes = b.to_bytes().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // Destroy the first Stack record's payload thoroughly.
        let damaged = text.replacen("alloc 40B", "XXXXX 40B", 1);
        let (salvaged, stats) = IncidentBundle::salvage_bytes(damaged.as_bytes());
        let s = salvaged.expect("meta survives");
        assert_eq!(
            s.report.context,
            b.report.context[1..],
            "only the damaged stack is lost"
        );
        assert_eq!(s.series, b.series);
        assert_eq!(s.degrees, b.degrees);
        assert_eq!(stats.skipped, 1);
        assert!(!stats.complete);
    }

    #[test]
    fn truncated_bundle_fails_strict_but_salvages() {
        let b = sample_bundle();
        let bytes = b.to_bytes().unwrap();
        let damaged = &bytes[..bytes.len() * 3 / 4];
        assert!(matches!(
            IncidentBundle::from_bytes_strict(damaged),
            Err(HeapMdError::Corrupt { .. })
        ));
        let (salvaged, stats) = IncidentBundle::salvage_bytes(damaged);
        assert!(salvaged.is_some());
        assert!(!stats.complete);
    }

    /// Re-frames every record of `bytes` after `edit` rewrites its
    /// payload (the CRC covers the edited payload).
    fn reframe(bytes: &[u8], edit: impl Fn(&str) -> String) -> String {
        let mut out = String::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let (payload, next) = parse_frame(INCIDENT_MAGIC, bytes, pos).unwrap();
            out.push_str(&frame_with_magic(INCIDENT_MAGIC, &edit(payload)));
            pos = next;
        }
        out
    }

    #[test]
    fn v1_bundles_without_full_distributions_still_load() {
        // Reproduce a v1 writer: strip the fields v2 and v3 added, and
        // stamp format 1 with v1's `version` and `source` meta keys.
        let mut b = sample_bundle();
        if let Some(d) = &mut b.degrees {
            d.indeg_full.clear();
            d.outdeg_full.clear();
        }
        let v1 = reframe(&b.to_bytes().unwrap(), |payload| {
            payload
                .replace(",\"indeg_full\":[]", "")
                .replace(",\"outdeg_full\":[]", "")
                .replace(",\"sample_rate\":0.5,\"band_distance\":1.25", "")
                .replace(",\"context\":[]", "")
                .replace("\"format\":3", "\"format\":1")
                .replace(
                    "{\"meta\":{",
                    "{\"meta\":{\"version\":1,\"source\":\"detector\",",
                )
        });
        assert!(
            v1.contains("\"source\"")
                && !v1.contains("indeg_full")
                && !v1.contains("sample_rate")
                && !v1.contains("context"),
            "not a v1 image: {v1}"
        );
        let back = IncidentBundle::from_bytes_strict(v1.as_bytes()).unwrap();
        assert_eq!(
            (back.report.sample_rate, back.report.band_distance),
            (1.0, 0.0)
        );
        assert_eq!(back.report.context, b.report.context);
        let d = back.degrees.expect("bucketed degrees survive");
        assert_eq!(d.indeg, b.degrees.as_ref().unwrap().indeg);
        assert!(d.indeg_full.is_empty() && d.outdeg_full.is_empty());
    }

    #[test]
    fn future_format_is_rejected() {
        let future = reframe(&sample_bundle().to_bytes().unwrap(), |payload| {
            payload.replace("\"format\":3", "\"format\":4")
        });
        assert!(matches!(
            IncidentBundle::from_bytes_strict(future.as_bytes()),
            Err(HeapMdError::Corrupt { .. })
        ));
    }

    #[test]
    fn non_finite_and_inverted_ranges_are_rejected() {
        let mut b = sample_bundle();
        b.report.value = f64::NAN;
        assert!(b.validate().is_err());
        let mut b = sample_bundle();
        b.report.range = (5.0, 1.0);
        assert!(b.validate().is_err());
        assert!(b.save(std::env::temp_dir().join("never.hmdi")).is_err());
        let mut b = sample_bundle();
        b.slope = f64::INFINITY;
        assert!(b.validate().is_err());
    }

    #[test]
    fn empty_input_has_no_meta_and_is_incomplete() {
        let (bundle, stats) = IncidentBundle::salvage_bytes(b"");
        assert!(bundle.is_none());
        assert!(!stats.complete);
        assert!(matches!(
            IncidentBundle::from_bytes_strict(b""),
            Err(HeapMdError::Corrupt { .. })
        ));
    }

    #[test]
    fn incident_log_writes_numbered_slugged_files() {
        let dir =
            std::env::temp_dir().join(format!("heapmd-incident-log-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut log = IncidentLog::new(&dir, "check");
        let b = sample_bundle();
        let p0 = log.write(&b).unwrap();
        let p1 = log.write(&b).unwrap();
        assert!(p0.ends_with("check-incident-000-indeg_1.hmdi"));
        assert!(p1.ends_with("check-incident-001-indeg_1.hmdi"));
        assert_eq!(log.paths().to_vec(), vec![p0.clone(), p1.clone()]);
        assert_eq!(IncidentBundle::load(&p0).unwrap(), b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degree_snapshot_buckets_cover_all_nodes() {
        use heap_graph::HeapGraph;
        use sim_heap::{Addr, ObjectId};
        let mut g = HeapGraph::new();
        for i in 0..10u64 {
            g.on_alloc(ObjectId(i), Addr::new(0x1000 + i * 64), 32);
        }
        for i in 1..10u64 {
            g.on_ptr_write(ObjectId(0), i * 8, Addr::new(0x1000 + i * 64));
        }
        let snap = DegreeSnapshot::capture(g.histogram());
        assert_eq!(snap.nodes, 10);
        assert_eq!(snap.indeg.len(), DEGREE_BUCKETS);
        assert_eq!(snap.outdeg.len(), DEGREE_BUCKETS);
        assert_eq!(snap.indeg.iter().sum::<u64>(), snap.nodes);
        assert_eq!(snap.outdeg.iter().sum::<u64>(), snap.nodes);
        // One hub with outdegree 9 (falls in the overflow bucket
        // tally), nine leaves with indegree 1.
        assert_eq!(snap.indeg[1], 9);
        assert_eq!(snap.outdeg[0], 9);
    }
}
