//! Crate-level error type.

use sim_heap::HeapError;
use std::error::Error;
use std::fmt;

/// Errors produced by HeapMD's configuration, model I/O, and replay
/// machinery.
#[derive(Debug)]
pub enum HeapMdError {
    /// A settings combination failed validation.
    InvalidSettings(String),
    /// An illegal heap operation surfaced through [`crate::Process`].
    Heap(HeapError),
    /// A model or trace failed to (de)serialize.
    Serde(serde_json::Error),
    /// A model or trace file could not be read or written.
    Io(std::io::Error),
    /// Model construction was asked to build from zero training runs, or
    /// a replay referenced state that does not exist.
    InvalidInput(String),
    /// A persisted artifact (trace stream, model, checkpoint) failed
    /// structural validation: bad framing, checksum mismatch, an
    /// unsupported version, or semantically impossible contents
    /// (NaN bounds, `min > max`, …).
    Corrupt {
        /// Byte offset into the artifact where corruption was detected
        /// (0 when the damage is not positional, e.g. a bad field).
        offset: u64,
        /// Human-readable description of what failed to validate.
        reason: String,
    },
    /// A training checkpoint could not be written, read, or applied.
    Checkpoint(String),
}

impl HeapMdError {
    /// Convenience constructor for [`HeapMdError::Corrupt`].
    pub fn corrupt(offset: u64, reason: impl Into<String>) -> Self {
        HeapMdError::Corrupt {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for HeapMdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapMdError::InvalidSettings(msg) => write!(f, "invalid settings: {msg}"),
            HeapMdError::Heap(e) => write!(f, "heap error: {e}"),
            HeapMdError::Serde(e) => write!(f, "serialization error: {e}"),
            HeapMdError::Io(e) => write!(f, "io error: {e}"),
            HeapMdError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            HeapMdError::Corrupt { offset, reason } => {
                write!(f, "corrupt artifact at byte {offset}: {reason}")
            }
            HeapMdError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl Error for HeapMdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HeapMdError::Heap(e) => Some(e),
            HeapMdError::Serde(e) => Some(e),
            HeapMdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for HeapMdError {
    fn from(e: HeapError) -> Self {
        HeapMdError::Heap(e)
    }
}

impl From<heap_graph::ApplyError> for HeapMdError {
    fn from(e: heap_graph::ApplyError) -> Self {
        HeapMdError::InvalidInput(format!("event the heap graph cannot apply: {e}"))
    }
}

impl From<serde_json::Error> for HeapMdError {
    fn from(e: serde_json::Error) -> Self {
        HeapMdError::Serde(e)
    }
}

impl From<std::io::Error> for HeapMdError {
    fn from(e: std::io::Error) -> Self {
        HeapMdError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = HeapMdError::InvalidSettings("frq must be positive".into());
        assert_eq!(e.to_string(), "invalid settings: frq must be positive");
        let e: HeapMdError = HeapError::NullDeref.into();
        assert_eq!(e.to_string(), "heap error: null dereference");
    }

    #[test]
    fn corrupt_and_checkpoint_display() {
        let e = HeapMdError::corrupt(42, "checksum mismatch");
        assert_eq!(
            e.to_string(),
            "corrupt artifact at byte 42: checksum mismatch"
        );
        assert!(e.source().is_none());
        let e = HeapMdError::Checkpoint("version 9 unsupported".into());
        assert_eq!(e.to_string(), "checkpoint error: version 9 unsupported");
    }

    #[test]
    fn sources_are_chained() {
        let e: HeapMdError = HeapError::NullDeref.into();
        assert!(e.source().is_some());
        let e = HeapMdError::InvalidInput("no runs".into());
        assert!(e.source().is_none());
    }
}
