//! Crash-safe persistence primitives shared by the model, checkpoint,
//! trace and incident-bundle writers.
//!
//! The implementations live in [`heapmd_runstore::persist`] — the
//! run-store sits below this crate in the observability plane and
//! needs the same temp-and-rename protocol and block CRCs — and are
//! re-exported here unchanged so existing callers keep their paths:
//!
//! * [`write_atomic`] — the classic write-to-temp-then-rename protocol,
//!   so a reader never observes a half-written model or checkpoint: it
//!   sees either the old file or the new one, never a torn mix.
//!   [`AtomicFile`] does the same for a file streamed over a whole run
//!   (`run --trace-out`).
//! * [`crc32`] — the IEEE CRC-32 that binary trace blocks and
//!   incident-bundle records carry to detect torn or bit-flipped bytes.

pub use heapmd_runstore::persist::{crc32, write_atomic, AtomicFile};
