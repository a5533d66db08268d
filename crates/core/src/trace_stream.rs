//! Crash-safe streaming trace format.
//!
//! The original [`Trace`] persistence serialized the whole event vector
//! in one shot — an all-or-nothing artifact that dies with the process
//! it is meant to outlive. This module replaces it with a *streaming*
//! format written incrementally, one length-framed, checksummed record
//! per line, so a trace survives the very crash HeapMD exists to
//! diagnose: whatever was flushed before the process died is
//! recoverable.
//!
//! # Wire format
//!
//! One record per line:
//!
//! ```text
//! HMDT1 <len:08x> <crc:08x> <payload-json>\n
//! ```
//!
//! * `HMDT1` — magic + format version.
//! * `len` — byte length of the JSON payload, in fixed-width hex.
//! * `crc` — IEEE CRC-32 of the JSON payload bytes.
//! * payload — one externally tagged [`StreamRecord`].
//!
//! A healthy stream is `Header`, zero or more `Functions`/`Event`
//! records, then a final `End { events }` trailer whose count lets a
//! reader distinguish clean shutdown from truncation.
//!
//! # Salvage mode
//!
//! [`TraceReader::salvage`] recovers the longest valid prefix of a
//! damaged stream: parsing stops at the first record whose framing,
//! checksum, or JSON fails to validate, and everything before it is
//! returned together with [`SalvageStats`] describing what was lost.
//! Corruption statistics are also reported through `heapmd-obs`
//! (`heapmd_trace_salvage_*` counters and a `trace_salvage` event).

use crate::error::HeapMdError;
use crate::persist::crc32;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use sim_heap::HeapEvent;
use std::io::{Read, Write};
use std::path::Path;

/// Magic prefix identifying a version-1 streaming trace record.
pub const STREAM_MAGIC: &str = "HMDT1";

/// One record in the stream. Externally tagged, struct variants only
/// (the vendored serde stand-in round-trips those faithfully).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum StreamRecord {
    /// First record of every stream.
    Header {
        /// Stream format version (1 for this module).
        format: u32,
    },
    /// One instrumentation event.
    Event {
        /// The recorded event.
        ev: HeapEvent,
    },
    /// The traced run's interned function-name table.
    Functions {
        /// Names indexed by function id.
        names: Vec<String>,
    },
    /// Clean end-of-stream trailer.
    End {
        /// Number of `Event` records that should precede this trailer.
        events: u64,
    },
}

/// Incremental writer producing the length-framed record stream.
///
/// Generic over `io::Write`, so traces can stream to a file, a socket,
/// a test buffer, or a fault-injecting wrapper. Each record is written
/// with [`Write::write_all`]; callers control buffering and flushing
/// policy through the inner writer.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream on `inner`, writing the header record.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] if the header cannot be written.
    pub fn new(inner: W) -> Result<Self, HeapMdError> {
        let mut w = TraceWriter { inner, events: 0 };
        w.write_record(&StreamRecord::Header { format: 1 })?;
        Ok(w)
    }

    /// Appends one event record.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn write_event(&mut self, ev: &HeapEvent) -> Result<(), HeapMdError> {
        self.write_record(&StreamRecord::Event { ev: *ev })?;
        self.events += 1;
        Ok(())
    }

    /// Appends the function-name table (index = id). May be written at
    /// any point; the last table in the stream wins.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn write_functions(&mut self, names: &[String]) -> Result<(), HeapMdError> {
        self.write_record(&StreamRecord::Functions {
            names: names.to_vec(),
        })
    }

    /// Writes the end-of-stream trailer, flushes, and returns the inner
    /// writer.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn finish(mut self) -> Result<W, HeapMdError> {
        let trailer = StreamRecord::End {
            events: self.events,
        };
        self.write_record(&trailer)?;
        self.inner.flush()?;
        Ok(self.inner)
    }

    fn write_record(&mut self, record: &StreamRecord) -> Result<(), HeapMdError> {
        let payload = serde_json::to_string(record)?;
        let line = frame_record(&payload);
        self.inner.write_all(line.as_bytes())?;
        heapmd_obs::count!("heapmd_trace_records_written_total");
        Ok(())
    }
}

/// Frames one payload into a full record line (exposed to the test
/// suites so corpus files can be crafted without a writer).
pub fn frame_record(payload: &str) -> String {
    frame_with_magic(STREAM_MAGIC, payload)
}

/// Frames one payload under an arbitrary magic. Shared by the trace
/// stream (`HMDT1`) and incident bundles (`HMDI1`), which use the same
/// length + CRC framing with different record vocabularies.
pub(crate) fn frame_with_magic(magic: &str, payload: &str) -> String {
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
pub(crate) fn parse_frame<'a>(
    magic: &str,
    bytes: &'a [u8],
    pos: usize,
) -> Result<(&'a str, usize), String> {
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

/// What a salvage pass recovered, and what it had to give up.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageStats {
    /// Valid records consumed (header and trailer included).
    pub records: u64,
    /// Events recovered.
    pub events: u64,
    /// Bytes of the stream covered by valid records.
    pub valid_bytes: u64,
    /// Total bytes in the stream.
    pub total_bytes: u64,
    /// `true` when the stream ended with a matching `End` trailer and
    /// no trailing garbage — i.e. nothing was lost.
    pub complete: bool,
    /// Byte offset and description of the first corruption, when the
    /// stream was damaged or truncated.
    pub corruption: Option<(u64, String)>,
}

/// Reader for the streaming format, in strict or salvage mode.
pub struct TraceReader;

impl TraceReader {
    /// Strictly reads a complete, undamaged stream.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] on read failure and
    /// [`HeapMdError::Corrupt`] (with the byte offset of the damage) on
    /// any framing, checksum, or structural violation — including a
    /// missing or miscounting `End` trailer.
    pub fn strict(reader: impl Read) -> Result<Trace, HeapMdError> {
        let (trace, stats) = Self::salvage_quiet(reader)?;
        if let Some((offset, reason)) = stats.corruption {
            return Err(HeapMdError::Corrupt { offset, reason });
        }
        if !stats.complete {
            return Err(HeapMdError::corrupt(
                stats.valid_bytes,
                "stream truncated before End trailer",
            ));
        }
        Ok(trace)
    }

    /// Recovers the longest valid prefix of a possibly damaged stream,
    /// reporting what was salvaged and what was lost through
    /// `heapmd-obs`.
    ///
    /// # Errors
    ///
    /// Only [`HeapMdError::Io`] — corruption never fails a salvage,
    /// it merely bounds what is recovered.
    pub fn salvage(reader: impl Read) -> Result<(Trace, SalvageStats), HeapMdError> {
        let (trace, stats) = Self::salvage_quiet(reader)?;
        heapmd_obs::count!("heapmd_trace_salvage_runs_total");
        heapmd_obs::count!("heapmd_trace_salvaged_events_total", stats.events);
        if !stats.complete {
            heapmd_obs::count!("heapmd_trace_salvage_incomplete_total");
            heapmd_obs::count!(
                "heapmd_trace_salvage_lost_bytes_total",
                stats.total_bytes - stats.valid_bytes
            );
        }
        heapmd_obs::export::emit_event("trace_salvage", |o| {
            o.field_u64("records", stats.records)
                .field_u64("events", stats.events)
                .field_u64("valid_bytes", stats.valid_bytes)
                .field_u64("total_bytes", stats.total_bytes)
                .field_bool("complete", stats.complete);
            if let Some((offset, reason)) = &stats.corruption {
                o.field_u64("corrupt_at", *offset)
                    .field_str("reason", reason);
            }
        });
        Ok((trace, stats))
    }

    /// The shared parse: salvage semantics, no obs reporting.
    fn salvage_quiet(mut reader: impl Read) -> Result<(Trace, SalvageStats), HeapMdError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Ok(parse_stream(&bytes))
    }
}

/// Parses as many valid records as possible from the front of `bytes`.
fn parse_stream(bytes: &[u8]) -> (Trace, SalvageStats) {
    let mut events: Vec<HeapEvent> = Vec::new();
    let mut functions: Vec<String> = Vec::new();
    let mut pos: usize = 0;
    let mut records: u64 = 0;
    let mut complete = false;
    let mut corruption: Option<(u64, String)> = None;
    let mut saw_header = false;

    while pos < bytes.len() {
        match parse_record(bytes, pos) {
            Ok((record, next)) => {
                records += 1;
                pos = next;
                match record {
                    StreamRecord::Header { format } => {
                        if format != 1 {
                            records -= 1;
                            corruption =
                                Some((pos as u64, format!("unsupported stream format {format}")));
                            break;
                        }
                        saw_header = true;
                    }
                    StreamRecord::Event { ev } => events.push(ev),
                    StreamRecord::Functions { names } => functions = names,
                    StreamRecord::End { events: declared } => {
                        if declared != events.len() as u64 {
                            corruption = Some((
                                pos as u64,
                                format!(
                                    "End trailer declares {declared} events, stream carries {}",
                                    events.len()
                                ),
                            ));
                        } else if pos != bytes.len() {
                            corruption =
                                Some((pos as u64, "trailing bytes after End trailer".into()));
                        } else {
                            complete = true;
                        }
                        break;
                    }
                }
            }
            Err(reason) => {
                corruption = Some((pos as u64, reason));
                break;
            }
        }
    }
    if !saw_header && corruption.is_none() && !complete {
        // Empty input (or damage before the header parsed).
        corruption = Some((0, "missing stream header".into()));
    }

    let mut trace = Trace::new();
    for ev in events {
        trace.push(ev);
    }
    let event_count = trace.len() as u64;
    trace.set_functions(functions);
    (
        trace,
        SalvageStats {
            records,
            events: event_count,
            valid_bytes: pos as u64,
            total_bytes: bytes.len() as u64,
            complete,
            corruption,
        },
    )
}

/// Parses one record starting at `pos`; returns the record and the
/// offset just past its newline, or a description of the damage.
fn parse_record(bytes: &[u8], pos: usize) -> Result<(StreamRecord, usize), String> {
    let (payload, next) = parse_frame(STREAM_MAGIC, bytes, pos)?;
    let record: StreamRecord =
        serde_json::from_str(payload).map_err(|e| format!("payload JSON: {e}"))?;
    Ok((record, next))
}

impl Trace {
    /// Writes the trace in the streaming format (header, functions,
    /// events, `End` trailer) to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn save_stream(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        let file = std::fs::File::create(path)?;
        let mut w = TraceWriter::new(std::io::BufWriter::new(file))?;
        w.write_functions(self.functions())?;
        for ev in self.events() {
            w.write_event(ev)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Strictly reads a streaming-format trace from `path`.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] on read failure, [`HeapMdError::Corrupt`] on
    /// any damage (see [`TraceReader::strict`]).
    pub fn load_stream(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        TraceReader::strict(std::fs::File::open(path)?)
    }

    /// Salvages the longest valid prefix of a streaming-format trace
    /// from `path`, reporting corruption stats through `heapmd-obs`.
    ///
    /// # Errors
    ///
    /// Only [`HeapMdError::Io`]; damage is described in the returned
    /// [`SalvageStats`] instead of failing the read.
    pub fn salvage_stream(path: impl AsRef<Path>) -> Result<(Self, SalvageStats), HeapMdError> {
        TraceReader::salvage(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::{Addr, AllocSite, ObjectId};

    fn sample_events(n: usize) -> Vec<HeapEvent> {
        (0..n)
            .flat_map(|i| {
                [
                    HeapEvent::FnEnter { func: 0 },
                    HeapEvent::Alloc {
                        obj: ObjectId(i as u64),
                        addr: Addr::new(0x1000 + 16 * i as u64),
                        size: 16,
                        site: AllocSite(0),
                    },
                    HeapEvent::FnExit { func: 0 },
                ]
            })
            .collect()
    }

    fn write_stream(events: &[HeapEvent], names: &[String]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_functions(names).unwrap();
        for ev in events {
            w.write_event(ev).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn stream_round_trips() {
        let events = sample_events(10);
        let names = vec!["main".to_string(), "work".to_string()];
        let bytes = write_stream(&events, &names);
        let trace = TraceReader::strict(&bytes[..]).unwrap();
        assert_eq!(trace.events(), &events[..]);
        assert_eq!(trace.functions(), &names[..]);
    }

    #[test]
    fn empty_stream_round_trips() {
        let bytes = write_stream(&[], &[]);
        let trace = TraceReader::strict(&bytes[..]).unwrap();
        assert!(trace.is_empty());
    }

    #[test]
    fn truncated_stream_salvages_prefix_and_fails_strict() {
        let events = sample_events(20);
        let bytes = write_stream(&events, &[]);
        // Chop the stream mid-way: strict errors, salvage recovers.
        let cut = bytes.len() * 2 / 3;
        let damaged = &bytes[..cut];
        assert!(matches!(
            TraceReader::strict(damaged),
            Err(HeapMdError::Corrupt { .. })
        ));
        let (trace, stats) = TraceReader::salvage(damaged).unwrap();
        assert!(!stats.complete);
        assert!(stats.corruption.is_some());
        assert!(trace.len() < events.len());
        assert_eq!(trace.events(), &events[..trace.len()]);
        assert!(stats.valid_bytes <= cut as u64);
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let events = sample_events(8);
        let mut bytes = write_stream(&events, &[]);
        // Flip one payload bit in the middle of the stream.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let (trace, stats) = TraceReader::salvage(&bytes[..]).unwrap();
        assert!(!stats.complete);
        let (_, reason) = stats.corruption.unwrap();
        assert!(
            reason.contains("checksum mismatch")
                || reason.contains("payload JSON")
                || reason.contains("malformed")
                || reason.contains("bad magic")
                || reason.contains("unparsable"),
            "unexpected reason: {reason}"
        );
        assert!(trace.len() < events.len());
        assert_eq!(trace.events(), &events[..trace.len()]);
    }

    #[test]
    fn miscounting_trailer_is_corruption() {
        let payloads = [
            serde_json::to_string(&StreamRecord::Header { format: 1 }).unwrap(),
            serde_json::to_string(&StreamRecord::Event {
                ev: HeapEvent::FnEnter { func: 0 },
            })
            .unwrap(),
            serde_json::to_string(&StreamRecord::End { events: 5 }).unwrap(),
        ];
        let stream: String = payloads.iter().map(|p| frame_record(p)).collect();
        assert!(matches!(
            TraceReader::strict(stream.as_bytes()),
            Err(HeapMdError::Corrupt { .. })
        ));
        let (trace, stats) = TraceReader::salvage(stream.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1, "events before the bad trailer survive");
        assert!(!stats.complete);
    }

    #[test]
    fn garbage_input_salvages_to_empty() {
        let (trace, stats) = TraceReader::salvage(&b"not a trace at all\n"[..]).unwrap();
        assert!(trace.is_empty());
        assert!(!stats.complete);
        assert_eq!(stats.corruption.as_ref().unwrap().0, 0);
    }

    #[test]
    fn future_format_version_is_rejected() {
        let payloads = [
            serde_json::to_string(&StreamRecord::Header { format: 9 }).unwrap(),
            serde_json::to_string(&StreamRecord::End { events: 0 }).unwrap(),
        ];
        let stream: String = payloads.iter().map(|p| frame_record(p)).collect();
        let (_, stats) = TraceReader::salvage(stream.as_bytes()).unwrap();
        let (_, reason) = stats.corruption.unwrap();
        assert!(reason.contains("unsupported stream format"));
    }

    #[test]
    fn save_and_load_stream_files_round_trip() {
        let events = sample_events(6);
        let mut trace = Trace::new();
        for ev in &events {
            trace.push(*ev);
        }
        trace.set_functions(vec!["alpha".into()]);
        let dir = std::env::temp_dir().join("heapmd-trace-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hmdt");
        trace.save_stream(&path).unwrap();
        let back = Trace::load_stream(&path).unwrap();
        assert_eq!(back, trace);
        let (salvaged, stats) = Trace::salvage_stream(&path).unwrap();
        assert_eq!(salvaged, trace);
        assert!(stats.complete);
        std::fs::remove_file(&path).ok();
    }
}
