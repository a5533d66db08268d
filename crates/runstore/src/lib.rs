//! # heapmd-runstore — columnar cross-run metric store
//!
//! The observability plane's durable layer: one row per *metric
//! computation point* (or per run-level rollup), appended across many
//! runs, versions, and tenants, and queried column-at-a-time without
//! deserializing whole runs.
//!
//! ## Layout
//!
//! A store is a directory of immutable **segment** files
//! (`seg-NNNNNNNN.hmdr`). Each append writes one new segment
//! atomically (temp sibling + rename, see [`persist`]), so readers
//! never observe a torn segment and concurrent readers need no locks.
//!
//! A segment is column-major:
//!
//! ```text
//! "HMDR1\n"                                  file magic
//! block*                                     one per column
//!   name_len varint, name bytes
//!   encoding u8                              0=u64 delta, 1=f64 xor, 2=string dict
//!   rows varint
//!   payload_len varint, payload bytes
//!   crc32 (LE)                               over the block from name_len..payload end
//! footer payload                             column name -> (offset, len) index
//! footer_len u32 LE | footer_crc u32 LE | "RDMH"   fixed 12-byte tail
//! ```
//!
//! Reads seek the 12-byte tail, load the footer index, then fetch only
//! the projected columns — a cross-version drift query over thousands
//! of runs touches the one metric column plus the dimension columns it
//! filters on. Every block carries its own CRC, so a damaged block
//! loses only that column; if the footer itself is damaged the reader
//! falls back to a head-to-tail salvage walk that recovers every block
//! before the damage ([`segment::read_segment`]).
//!
//! ## Schema
//!
//! Dimension columns are fixed ([`store::DIMENSION_COLUMNS`]); metric
//! columns are named by the caller (the detector's metric ids, e.g.
//! `paper.roots`; stores of older builds also hold ids such as
//! `dist.in_entropy`). The store itself has
//! no metric vocabulary — absent metrics decode as NaN and are skipped
//! by the aggregations in [`query`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod query;
pub mod segment;
pub mod store;
mod varint;

pub use query::{drift_by_version, percentile, MetricStats, VersionDrift};
pub use segment::{read_segment, write_segment, Column, SegmentData, ENCODING_NAMES};
pub use store::{
    RowFilter, RowKind, RunRow, RunStore, ScanOutcome, DIMENSION_COLUMNS, SEGMENT_MAGIC,
};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors surfaced by store and segment operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A segment (or part of one) failed structural validation.
    Corrupt {
        /// File the corruption was detected in.
        path: PathBuf,
        /// Human-readable description of what failed to parse.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn corrupt(path: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "run-store I/O error: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt run-store segment {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}
