//! Compact block-based binary trace format (`.hmdt`) and the
//! pipelined/parallel replay engine built on top of it.
//!
//! `HMDB1` is the one trace format heapmd writes and reads. A file that
//! opens with the magic of the retired framed-JSONL format (`HMDT1`) is
//! recognized by [`sniff_bytes`] only so it can be refused by name. The
//! format is crash-safe and costs a few bytes per event:
//!
//! * **varint + delta encoding** — object ids, addresses, sizes,
//!   offsets, and function ids are LEB128 varints of zigzag deltas
//!   against per-block registers, so a typical event is 3–8 bytes;
//! * **fixed-size event blocks** — events are grouped into blocks of
//!   [`EVENTS_PER_BLOCK`], each independently decodable (delta
//!   registers reset per block) and protected by its own CRC-32, so a
//!   damaged region costs one block, not the stream suffix;
//! * **trailing block index + footer** — readers seek straight to the
//!   function table, know the total event/fn-entry counts without a
//!   pre-pass, and can split blocks across workers;
//! * **block-granular salvage** — [`BinaryTraceReader::salvage`]
//!   resyncs on the block magic after damage and recovers every intact
//!   block, before *and after* the corruption.
//!
//! # Wire format
//!
//! ```text
//! file   := header block* footer
//! header := "HMDB1\n" version:u8 reserved:u8
//! block  := magic[4]=B1 0C 48 44  kind:u8  count:u32le  len:u32le
//!           crc:u32le  payload[len]
//! footer := index_offset:u64le  crc32(index_offset):u32le  "HMDBIDX\n"
//! ```
//!
//! Block kinds: `1` events, `2` function table, `3` block index,
//! `4` opaque metadata (CRC-protected checkpoint payloads). The index
//! payload lists `(offset, kind, count)` for every preceding block and
//! ends with the stream's total event and `FnEnter` counts.
//!
//! # Pipelined replay
//!
//! [`replay_binary`] and [`check_binary_sharded`] run a decoder thread
//! that streams decoded blocks over a bounded channel into graph
//! ingestion (the replayer's per-event core) while the next
//! block decodes; event-batch buffers are recycled through a return
//! channel, so steady-state replay allocates nothing per block. The
//! check feeds those blocks to the one post-mortem driver that
//! [`Trace::check`] and the serve daemon also use.
//! [`replay_binary_fused`] and its sampled and sharded variants run one
//! fused loop on the calling thread instead: decode a block, ingest it.
//! Graph shards (`shards > 1`) partition the graph's storage on that
//! same thread; the verdicts and samples are identical at every count.
//!
//! `check --jobs N` fans [`check_path`] over N trace files on the one
//! worker pool, [`run_pool_streaming`](crate::run_pool_streaming), which hands outcomes on in
//! input order; training streams its runs through the same pool.

use crate::bug::BugReport;
use crate::error::HeapMdError;
use crate::model::HeapModel;
use crate::persist::crc32;
use crate::report::MetricReport;
use crate::settings::Settings;
use crate::trace::{validate_function_ids, Replayer, StreamCheck, Trace, TraceCheckOutcome};
use sim_heap::{Addr, AllocSite, HeapEvent, ObjectId};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::mpsc;
use swat::{SamplerConfig, SamplingInfo};

/// Magic prefix of a binary trace file (the trailing newline guards
/// against text-mode mangling, png-style).
pub const BINARY_MAGIC: &[u8; 6] = b"HMDB1\n";

/// Binary container format version written after the magic.
pub const BINARY_FORMAT_VERSION: u8 = 1;

/// Per-block magic. Payload bytes can collide with it, so readers only
/// trust a match whose block also passes the CRC.
pub(crate) const BLOCK_MAGIC: [u8; 4] = [0xB1, 0x0C, 0x48, 0x44];

/// Trailing footer magic (8 bytes, closes the file).
const FOOTER_MAGIC: &[u8; 8] = b"HMDBIDX\n";

/// Fixed footer size: index offset + its CRC + magic.
pub(crate) const FOOTER_LEN: usize = 8 + 4 + 8;

/// Block header size: magic + kind + count + len + crc.
pub(crate) const BLOCK_HEADER_LEN: usize = 4 + 1 + 4 + 4 + 4;

/// File header size: magic + version + reserved byte.
pub(crate) const HEADER_LEN: usize = 8;

/// The file header every writer emits: magic, version, a zero reserved
/// byte. Traces, journals and meta containers all start with it.
pub(crate) const FILE_HEADER: [u8; HEADER_LEN] = {
    let [h, m, d, b, one, newline] = *BINARY_MAGIC;
    [h, m, d, b, one, newline, BINARY_FORMAT_VERSION, 0]
};

/// Events per full block. Large enough to amortize header + dispatch,
/// small enough that salvage loses little and the pipeline stays busy.
pub const EVENTS_PER_BLOCK: usize = 4096;

/// Upper bound on a declared block payload, so a corrupted length field
/// cannot drive a reader into a multi-gigabyte copy.
pub(crate) const MAX_BLOCK_LEN: u32 = 1 << 24;

/// Bounded depth of the decoder → ingestion channel.
const PIPELINE_DEPTH: usize = 4;

/// Block kinds.
pub(crate) const KIND_EVENTS: u8 = 1;
pub(crate) const KIND_FUNCTIONS: u8 = 2;
pub(crate) const KIND_INDEX: u8 = 3;
pub(crate) const KIND_META: u8 = 4;

/// On-disk trace format selector for [`Trace::save_format`]. `Binary`
/// is the only format; the selector and `save_format` remain only
/// because the benchmark ledger calls them, and go once it calls
/// [`Trace::save_binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamFormat {
    /// Block-based binary (`HMDB1`): compact, seekable, fast.
    #[default]
    Binary,
}

// ---------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    // Delta encoding makes 1-byte varints the overwhelmingly common
    // case (consecutive ids/addresses differ by small amounts); decode
    // them without entering the loop.
    if let Some(&b) = bytes.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    get_varint_multi(bytes, pos)
}

#[cold]
fn get_varint_multi(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or("varint truncated")?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err("varint overflows u64".into());
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Per-block delta registers. Reset at each block boundary so blocks
/// decode independently (the property salvage and work-splitting need).
#[derive(Default)]
struct DeltaState {
    obj: u64,
    addr: u64,
    size: u64,
    offset: u64,
    func: u64,
    site: u64,
}

impl DeltaState {
    #[inline]
    fn put(out: &mut Vec<u8>, reg: &mut u64, v: u64) {
        put_varint(out, zigzag(v.wrapping_sub(*reg) as i64));
        *reg = v;
    }

    #[inline]
    fn get(bytes: &[u8], pos: &mut usize, reg: &mut u64) -> Result<u64, String> {
        let d = unzigzag(get_varint(bytes, pos)?);
        *reg = reg.wrapping_add(d as u64);
        Ok(*reg)
    }
}

// Event tags.
const TAG_ALLOC: u8 = 0;
const TAG_FREE: u8 = 1;
const TAG_PTR_WRITE: u8 = 2;
const TAG_SCALAR_WRITE: u8 = 3;
const TAG_READ: u8 = 4;
const TAG_FN_ENTER: u8 = 5;
const TAG_FN_EXIT: u8 = 6;

fn encode_event(out: &mut Vec<u8>, st: &mut DeltaState, ev: &HeapEvent) {
    match *ev {
        HeapEvent::Alloc {
            obj,
            addr,
            size,
            site,
        } => {
            out.push(TAG_ALLOC);
            DeltaState::put(out, &mut st.obj, obj.0);
            DeltaState::put(out, &mut st.addr, addr.get());
            DeltaState::put(out, &mut st.size, size as u64);
            DeltaState::put(out, &mut st.site, u64::from(site.0));
        }
        HeapEvent::Free { obj, addr, size } => {
            out.push(TAG_FREE);
            DeltaState::put(out, &mut st.obj, obj.0);
            DeltaState::put(out, &mut st.addr, addr.get());
            DeltaState::put(out, &mut st.size, size as u64);
        }
        HeapEvent::PtrWrite {
            src,
            offset,
            value,
            old_value,
        } => {
            out.push(TAG_PTR_WRITE);
            DeltaState::put(out, &mut st.obj, src.0);
            DeltaState::put(out, &mut st.offset, offset);
            DeltaState::put(out, &mut st.addr, value.get());
            match old_value {
                None => out.push(0),
                Some(old) => {
                    out.push(1);
                    DeltaState::put(out, &mut st.addr, old.get());
                }
            }
        }
        HeapEvent::ScalarWrite {
            src,
            offset,
            old_value,
        } => {
            out.push(TAG_SCALAR_WRITE);
            DeltaState::put(out, &mut st.obj, src.0);
            DeltaState::put(out, &mut st.offset, offset);
            match old_value {
                None => out.push(0),
                Some(old) => {
                    out.push(1);
                    DeltaState::put(out, &mut st.addr, old.get());
                }
            }
        }
        HeapEvent::Read { obj } => {
            out.push(TAG_READ);
            DeltaState::put(out, &mut st.obj, obj.0);
        }
        HeapEvent::FnEnter { func } => {
            out.push(TAG_FN_ENTER);
            DeltaState::put(out, &mut st.func, u64::from(func));
        }
        HeapEvent::FnExit { func } => {
            out.push(TAG_FN_EXIT);
            DeltaState::put(out, &mut st.func, u64::from(func));
        }
    }
}

fn decode_event(bytes: &[u8], pos: &mut usize, st: &mut DeltaState) -> Result<HeapEvent, String> {
    let &tag = bytes.get(*pos).ok_or("event tag truncated")?;
    *pos += 1;
    let u32_field = |v: u64, what: &str| -> Result<u32, String> {
        u32::try_from(v).map_err(|_| format!("{what} {v} exceeds u32"))
    };
    let usize_field = |v: u64, what: &str| -> Result<usize, String> {
        usize::try_from(v).map_err(|_| format!("{what} {v} exceeds usize"))
    };
    Ok(match tag {
        TAG_ALLOC => HeapEvent::Alloc {
            obj: ObjectId(DeltaState::get(bytes, pos, &mut st.obj)?),
            addr: Addr::new(DeltaState::get(bytes, pos, &mut st.addr)?),
            size: usize_field(DeltaState::get(bytes, pos, &mut st.size)?, "alloc size")?,
            site: AllocSite(u32_field(
                DeltaState::get(bytes, pos, &mut st.site)?,
                "alloc site",
            )?),
        },
        TAG_FREE => HeapEvent::Free {
            obj: ObjectId(DeltaState::get(bytes, pos, &mut st.obj)?),
            addr: Addr::new(DeltaState::get(bytes, pos, &mut st.addr)?),
            size: usize_field(DeltaState::get(bytes, pos, &mut st.size)?, "free size")?,
        },
        TAG_PTR_WRITE => {
            let src = ObjectId(DeltaState::get(bytes, pos, &mut st.obj)?);
            let offset = DeltaState::get(bytes, pos, &mut st.offset)?;
            let value = Addr::new(DeltaState::get(bytes, pos, &mut st.addr)?);
            let old_value = decode_opt_addr(bytes, pos, st)?;
            HeapEvent::PtrWrite {
                src,
                offset,
                value,
                old_value,
            }
        }
        TAG_SCALAR_WRITE => {
            let src = ObjectId(DeltaState::get(bytes, pos, &mut st.obj)?);
            let offset = DeltaState::get(bytes, pos, &mut st.offset)?;
            let old_value = decode_opt_addr(bytes, pos, st)?;
            HeapEvent::ScalarWrite {
                src,
                offset,
                old_value,
            }
        }
        TAG_READ => HeapEvent::Read {
            obj: ObjectId(DeltaState::get(bytes, pos, &mut st.obj)?),
        },
        TAG_FN_ENTER => HeapEvent::FnEnter {
            func: u32_field(DeltaState::get(bytes, pos, &mut st.func)?, "function id")?,
        },
        TAG_FN_EXIT => HeapEvent::FnExit {
            func: u32_field(DeltaState::get(bytes, pos, &mut st.func)?, "function id")?,
        },
        other => return Err(format!("unknown event tag {other}")),
    })
}

fn decode_opt_addr(
    bytes: &[u8],
    pos: &mut usize,
    st: &mut DeltaState,
) -> Result<Option<Addr>, String> {
    let &flag = bytes.get(*pos).ok_or("option flag truncated")?;
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(Addr::new(DeltaState::get(bytes, pos, &mut st.addr)?))),
        other => Err(format!("bad option flag {other}")),
    }
}

// ---------------------------------------------------------------------
// Block framing
// ---------------------------------------------------------------------

/// One index entry: where a block starts and what it claims to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Byte offset of the block's magic in the file.
    pub offset: u64,
    /// Block kind (1 events, 2 functions, 3 index, 4 meta).
    pub kind: u8,
    /// Event count (events blocks) or entry count (other kinds).
    pub count: u32,
}

fn put_block(out: &mut Vec<u8>, kind: u8, count: u32, payload: &[u8]) {
    out.extend_from_slice(&BLOCK_MAGIC);
    out.push(kind);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What a block header declares. Every reader of block bytes (the
/// in-memory parser, the wire reader, the session client's splitter)
/// decodes headers through [`parse`](Self::parse).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockHeader {
    /// Block kind (`KIND_*`).
    pub(crate) kind: u8,
    /// Event count (events blocks) or entry count (other kinds).
    pub(crate) count: u32,
    /// Payload length in bytes.
    pub(crate) len: u32,
    crc: u32,
}

impl BlockHeader {
    /// Decodes and checks the first [`BLOCK_HEADER_LEN`] bytes of
    /// `head`: the magic, the length cap and a known kind.
    ///
    /// # Errors
    ///
    /// A reason string naming the first check that failed.
    pub(crate) fn parse(head: &[u8]) -> Result<BlockHeader, String> {
        let Some(head) = head.get(..BLOCK_HEADER_LEN) else {
            return Err("truncated block header".into());
        };
        if head[..4] != BLOCK_MAGIC {
            return Err("bad block magic".into());
        }
        let word =
            |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().expect("a four-byte field"));
        let header = BlockHeader {
            kind: head[4],
            count: word(5),
            len: word(9),
            crc: word(13),
        };
        if header.len > MAX_BLOCK_LEN {
            return Err(format!(
                "block length {} exceeds cap {MAX_BLOCK_LEN}",
                header.len
            ));
        }
        if !(KIND_EVENTS..=KIND_META).contains(&header.kind) {
            return Err(format!("unknown block kind {}", header.kind));
        }
        Ok(header)
    }

    /// Bytes the block spans on the wire: header and payload, plus the
    /// footer that travels with the index block.
    pub(crate) fn frame_len(&self) -> usize {
        let footer = if self.kind == KIND_INDEX {
            FOOTER_LEN
        } else {
            0
        };
        BLOCK_HEADER_LEN + self.len as usize + footer
    }

    /// Checks `payload` against the declared CRC.
    fn verify(&self, payload: &[u8]) -> Result<(), String> {
        let actual = crc32(payload);
        if actual != self.crc {
            return Err(format!(
                "block checksum mismatch: declared {:08x}, computed {actual:08x}",
                self.crc
            ));
        }
        Ok(())
    }
}

/// Room to reserve for the `count` items a block header declares: each
/// item takes at least one payload byte, and the count is outside the
/// CRC, so a damaged count must not size an allocation.
fn item_capacity(count: u32, payload: &[u8]) -> usize {
    (count as usize).min(payload.len())
}

/// Parses a block header + payload at `pos`. Returns
/// `(kind, count, payload, next_pos)`.
fn parse_block(bytes: &[u8], pos: usize) -> Result<(u8, u32, &[u8], usize), String> {
    let rest = &bytes[pos..];
    let header = BlockHeader::parse(rest)?;
    let end = BLOCK_HEADER_LEN + header.len as usize;
    let payload = rest
        .get(BLOCK_HEADER_LEN..end)
        .ok_or("block truncated mid-payload")?;
    header.verify(payload)?;
    Ok((header.kind, header.count, payload, pos + end))
}

fn encode_events_block(events: &[HeapEvent], scratch: &mut Vec<u8>) -> (Vec<u8>, u64) {
    scratch.clear();
    let mut st = DeltaState::default();
    let mut fn_enters = 0u64;
    for ev in events {
        if matches!(ev, HeapEvent::FnEnter { .. }) {
            fn_enters += 1;
        }
        encode_event(scratch, &mut st, ev);
    }
    let mut block = Vec::with_capacity(BLOCK_HEADER_LEN + scratch.len());
    put_block(&mut block, KIND_EVENTS, events.len() as u32, scratch);
    (block, fn_enters)
}

/// Decodes an events-block payload into `out` (appending). The caller
/// passes `count` from the block header; a mismatch is corruption.
fn decode_events_payload(
    payload: &[u8],
    count: u32,
    out: &mut Vec<HeapEvent>,
) -> Result<(), String> {
    let mut st = DeltaState::default();
    let mut pos = 0usize;
    for _ in 0..count {
        out.push(decode_event(payload, &mut pos, &mut st)?);
    }
    if pos != payload.len() {
        return Err(format!(
            "events block carries {} trailing bytes",
            payload.len() - pos
        ));
    }
    Ok(())
}

fn encode_functions_block(names: &[String]) -> Vec<u8> {
    let mut payload = Vec::new();
    for name in names {
        put_varint(&mut payload, name.len() as u64);
        payload.extend_from_slice(name.as_bytes());
    }
    let mut block = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len());
    put_block(&mut block, KIND_FUNCTIONS, names.len() as u32, &payload);
    block
}

fn decode_functions_payload(payload: &[u8], count: u32) -> Result<Vec<String>, String> {
    let mut names = Vec::with_capacity(item_capacity(count, payload));
    let mut pos = 0usize;
    for _ in 0..count {
        let len = get_varint(payload, &mut pos)? as usize;
        let end = pos.checked_add(len).ok_or("name length overflow")?;
        if end > payload.len() {
            return Err("function name truncated".into());
        }
        let name = std::str::from_utf8(&payload[pos..end])
            .map_err(|_| "function name is not UTF-8")?
            .to_string();
        names.push(name);
        pos = end;
    }
    if pos != payload.len() {
        return Err("functions block carries trailing bytes".into());
    }
    Ok(names)
}

/// The decoded trailing index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockIndex {
    /// Every block in the file, in file order.
    pub blocks: Vec<BlockEntry>,
    /// Total events across all events blocks.
    pub total_events: u64,
    /// Total `FnEnter` events (lets `check` size its warmup without a
    /// decode pre-pass).
    pub total_fn_enters: u64,
}

fn encode_index_block(index: &BlockIndex) -> Vec<u8> {
    let mut payload = Vec::new();
    for b in &index.blocks {
        put_varint(&mut payload, b.offset);
        payload.push(b.kind);
        put_varint(&mut payload, u64::from(b.count));
    }
    put_varint(&mut payload, index.total_events);
    put_varint(&mut payload, index.total_fn_enters);
    let mut block = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len());
    put_block(&mut block, KIND_INDEX, index.blocks.len() as u32, &payload);
    block
}

fn decode_index_payload(payload: &[u8], count: u32) -> Result<BlockIndex, String> {
    let mut pos = 0usize;
    let mut blocks = Vec::with_capacity(item_capacity(count, payload));
    for _ in 0..count {
        let offset = get_varint(payload, &mut pos)?;
        let &kind = payload.get(pos).ok_or("index entry truncated")?;
        pos += 1;
        let entry_count = get_varint(payload, &mut pos)?;
        blocks.push(BlockEntry {
            offset,
            kind,
            count: u32::try_from(entry_count).map_err(|_| "index count exceeds u32")?,
        });
    }
    let total_events = get_varint(payload, &mut pos)?;
    let total_fn_enters = get_varint(payload, &mut pos)?;
    if pos != payload.len() {
        return Err("index block carries trailing bytes".into());
    }
    Ok(BlockIndex {
        blocks,
        total_events,
        total_fn_enters,
    })
}

fn encode_footer(index_offset: u64) -> [u8; FOOTER_LEN] {
    let offset_bytes = index_offset.to_le_bytes();
    let mut footer = [0u8; FOOTER_LEN];
    footer[..8].copy_from_slice(&offset_bytes);
    footer[8..12].copy_from_slice(&crc32(&offset_bytes).to_le_bytes());
    footer[12..].copy_from_slice(FOOTER_MAGIC);
    footer
}

/// Reads the footer at the end of `bytes`, returning the index offset.
fn parse_footer(bytes: &[u8]) -> Result<u64, String> {
    if bytes.len() < FOOTER_LEN {
        return Err("file too short for footer".into());
    }
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    if &footer[12..] != FOOTER_MAGIC {
        return Err("missing footer magic".into());
    }
    let declared = u32::from_le_bytes(footer[8..12].try_into().unwrap());
    if crc32(&footer[..8]) != declared {
        return Err("footer checksum mismatch".into());
    }
    Ok(u64::from_le_bytes(footer[..8].try_into().unwrap()))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Incremental writer for the block-based binary trace format.
///
/// Crash-safety contract: every completed block on disk is
/// independently CRC-verified and recoverable, so whatever was flushed
/// before a crash salvages at block granularity. The trailing index
/// and footer are written by [`finish`](Self::finish); their absence is
/// exactly what tells a reader the stream died mid-record.
#[derive(Debug)]
pub struct BinaryTraceWriter<W: Write> {
    inner: W,
    /// Events buffered for the current (unfinished) block.
    pending: Vec<HeapEvent>,
    /// Scratch encode buffer, reused across blocks.
    scratch: Vec<u8>,
    /// Byte offset the next block will land at.
    offset: u64,
    index: BlockIndex,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts a binary trace on `inner`, writing the file header.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] if the header cannot be written.
    pub fn new(mut inner: W) -> Result<Self, HeapMdError> {
        inner.write_all(&FILE_HEADER)?;
        Ok(BinaryTraceWriter {
            inner,
            pending: Vec::with_capacity(EVENTS_PER_BLOCK),
            scratch: Vec::new(),
            offset: HEADER_LEN as u64,
            index: BlockIndex::default(),
        })
    }

    /// Appends one event, flushing a full block when
    /// [`EVENTS_PER_BLOCK`] are pending.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn write_event(&mut self, ev: &HeapEvent) -> Result<(), HeapMdError> {
        self.pending.push(*ev);
        if self.pending.len() >= EVENTS_PER_BLOCK {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the function-name table block (index = id). The last
    /// table in the stream wins.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn write_functions(&mut self, names: &[String]) -> Result<(), HeapMdError> {
        self.flush_block()?;
        let block = encode_functions_block(names);
        self.index.blocks.push(BlockEntry {
            offset: self.offset,
            kind: KIND_FUNCTIONS,
            count: names.len() as u32,
        });
        self.emit(&block)
    }

    /// Writes an opaque metadata block (e.g. the sampling outcome from
    /// [`encode_sampling_meta`]). Like the function table, the last
    /// meta block of a given tag wins.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn write_meta(&mut self, payload: &[u8]) -> Result<(), HeapMdError> {
        self.flush_block()?;
        let mut block = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len());
        put_block(&mut block, KIND_META, 1, payload);
        self.index.blocks.push(BlockEntry {
            offset: self.offset,
            kind: KIND_META,
            count: 1,
        });
        self.emit(&block)
    }

    /// Events accepted so far (buffered ones included).
    pub fn events_written(&self) -> u64 {
        self.index.total_events + self.pending.len() as u64
    }

    /// Flushes any partial block to the sink without ending the file.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn flush(&mut self) -> Result<(), HeapMdError> {
        self.flush_block()?;
        self.inner.flush()?;
        Ok(())
    }

    /// Writes the trailing index and footer, flushes, and returns the
    /// inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn finish(mut self) -> Result<W, HeapMdError> {
        self.flush_block()?;
        let index_offset = self.offset;
        let block = encode_index_block(&self.index);
        self.emit(&block)?;
        self.inner.write_all(&encode_footer(index_offset))?;
        self.inner.flush()?;
        heapmd_obs::count!("heapmd_codec_traces_finished_total");
        Ok(self.inner)
    }

    fn flush_block(&mut self) -> Result<(), HeapMdError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let (block, fn_enters) = encode_events_block(&self.pending, &mut self.scratch);
        self.index.blocks.push(BlockEntry {
            offset: self.offset,
            kind: KIND_EVENTS,
            count: self.pending.len() as u32,
        });
        self.index.total_events += self.pending.len() as u64;
        self.index.total_fn_enters += fn_enters;
        self.pending.clear();
        self.emit(&block)
    }

    fn emit(&mut self, block: &[u8]) -> Result<(), HeapMdError> {
        self.inner.write_all(block)?;
        self.offset += block.len() as u64;
        heapmd_obs::count!("heapmd_codec_blocks_written_total");
        heapmd_obs::count!("heapmd_codec_bytes_written_total", block.len() as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Strict / salvage reader for the binary format.
pub struct BinaryTraceReader;

/// Where a [`BinaryTraceImage`] reads its blocks from: bytes already in
/// memory, or the trace file itself, read by position one block at a
/// time.
enum Source {
    Bytes(Vec<u8>),
    #[cfg(unix)]
    File(std::fs::File),
}

impl Source {
    /// Fills `buf` with the bytes at `offset`. A source that ends first
    /// (a file cut while open included) fails with `UnexpectedEof`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        match self {
            Source::Bytes(bytes) => {
                let bytes = usize::try_from(offset)
                    .ok()
                    .and_then(|at| bytes.get(at..at.checked_add(buf.len())?))
                    .ok_or(std::io::ErrorKind::UnexpectedEof)?;
                buf.copy_from_slice(bytes);
                Ok(())
            }
            #[cfg(unix)]
            Source::File(file) => std::os::unix::fs::FileExt::read_exact_at(file, buf, offset),
        }
    }
}

/// A binary trace whose header, footer and index are verified, ready
/// for block-at-a-time decoding (sequential or split across workers).
/// Each block is read when it is decoded and checked against its CRC
/// then.
pub struct BinaryTraceImage {
    source: Source,
    index: BlockIndex,
}

impl BinaryTraceImage {
    /// Verifies header, footer, and index of `bytes` and returns a
    /// seekable image. Block payload CRCs are checked lazily, as each
    /// block is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`] with the byte offset of the
    /// first structural violation.
    pub fn open(bytes: Vec<u8>) -> Result<Self, HeapMdError> {
        let len = bytes.len() as u64;
        Self::verify(Source::Bytes(bytes), len)
    }

    /// Opens the trace at `path`, verified as [`open`](Self::open)
    /// verifies bytes. Blocks are read from the file by position as
    /// they are decoded, so the image holds no copy of the file; a
    /// file cut or rewritten while open fails the decode of the blocks
    /// it no longer holds as [`HeapMdError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] when unreadable, [`HeapMdError::Corrupt`] on
    /// structural damage.
    pub fn open_path(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        #[cfg(not(unix))]
        return Self::open(std::fs::read(path)?);
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            Self::verify(Source::File(file), len)
        }
    }

    /// The one verification of an opened trace of `len` bytes: the
    /// header, the footer, the index block it points at, and index
    /// entries that lie in file order between the header and the index.
    fn verify(source: Source, len: u64) -> Result<Self, HeapMdError> {
        let mut header = [0u8; HEADER_LEN];
        let header = &mut header[..len.min(HEADER_LEN as u64) as usize];
        source.read_at(0, header)?;
        check_header(header)?;
        let mut footer = [0u8; FOOTER_LEN];
        let footer = &mut footer[..len.min(FOOTER_LEN as u64) as usize];
        source.read_at(len - footer.len() as u64, footer)?;
        let index_offset =
            parse_footer(footer).map_err(|reason| HeapMdError::corrupt(len, reason))?;
        if index_offset >= len {
            return Err(HeapMdError::corrupt(
                index_offset,
                "footer points past end of file",
            ));
        }
        let mut image = BinaryTraceImage {
            source,
            index: BlockIndex::default(),
        };
        let mut payload = Vec::new();
        let BlockHeader { kind, count, .. } = image.read_block(index_offset, &mut payload)?;
        if kind != KIND_INDEX {
            return Err(HeapMdError::corrupt(
                index_offset,
                format!("footer points at block kind {kind}, expected index"),
            ));
        }
        let next = index_offset + (BLOCK_HEADER_LEN + payload.len()) as u64;
        if next != len - FOOTER_LEN as u64 {
            return Err(HeapMdError::corrupt(
                next,
                "trailing bytes between index block and footer",
            ));
        }
        image.index = decode_index_payload(&payload, count)
            .map_err(|reason| HeapMdError::corrupt(index_offset, reason))?;
        let mut floor = HEADER_LEN as u64;
        for entry in &image.index.blocks {
            if !(floor..index_offset).contains(&entry.offset) {
                return Err(HeapMdError::corrupt(
                    index_offset,
                    format!(
                        "index entry at byte {} is out of file order or outside blocks {HEADER_LEN}..{index_offset}",
                        entry.offset
                    ),
                ));
            }
            floor = entry.offset + 1;
        }
        Ok(image)
    }

    /// Reads the block at `offset` into `payload` and checks its CRC,
    /// returning its header. A damaged or cut block is corruption at
    /// `offset`.
    fn read_block(&self, offset: u64, payload: &mut Vec<u8>) -> Result<BlockHeader, HeapMdError> {
        let corrupt = |reason: String| HeapMdError::corrupt(offset, reason);
        // A read past the end of the source is a truncated block.
        let read = |at: u64, buf: &mut [u8], truncated: &str| {
            self.source.read_at(at, buf).map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => corrupt(truncated.into()),
                _ => HeapMdError::Io(e),
            })
        };
        let mut head = [0u8; BLOCK_HEADER_LEN];
        read(offset, &mut head, "truncated block header")?;
        let header = BlockHeader::parse(&head).map_err(corrupt)?;
        payload.clear();
        payload.resize(header.len as usize, 0);
        read(
            offset + BLOCK_HEADER_LEN as u64,
            payload,
            "block truncated mid-payload",
        )?;
        header.verify(payload).map_err(corrupt)?;
        Ok(header)
    }

    /// The verified block index.
    pub fn index(&self) -> &BlockIndex {
        &self.index
    }

    /// Decodes the function table (the last functions block wins), or
    /// an empty table when none was written.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`].
    pub fn functions(&self) -> Result<Vec<String>, HeapMdError> {
        let mut names = Vec::new();
        let mut payload = Vec::new();
        for entry in self
            .index
            .blocks
            .iter()
            .filter(|b| b.kind == KIND_FUNCTIONS)
        {
            self.payload(entry, KIND_FUNCTIONS, &mut payload)?;
            names = decode_functions_payload(&payload, entry.count)
                .map_err(|reason| HeapMdError::corrupt(entry.offset, reason))?;
        }
        Ok(names)
    }

    /// Event-block index entries, in file order.
    pub fn event_blocks(&self) -> impl Iterator<Item = &BlockEntry> {
        self.index.blocks.iter().filter(|b| b.kind == KIND_EVENTS)
    }

    /// Decodes the trace's sampling metadata, when a sampling meta
    /// block was written (the last one wins). `None` means the stream
    /// was recorded unsampled — or by a pre-sampling writer.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`] on a damaged meta block.
    pub fn sampling(&self) -> Result<Option<SamplingInfo>, HeapMdError> {
        let mut sampling = None;
        let mut payload = Vec::new();
        for entry in self.index.blocks.iter().filter(|b| b.kind == KIND_META) {
            self.payload(entry, KIND_META, &mut payload)?;
            if let Some(info) = decode_sampling_meta(&payload)
                .map_err(|reason| HeapMdError::corrupt(entry.offset, reason))?
            {
                sampling = Some(info);
            }
        }
        Ok(sampling)
    }

    /// Decodes one event block into `out` (cleared first). Reusing one
    /// buffer across blocks keeps the decoded events allocation-free;
    /// the block's bytes are read into a buffer of their own.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`].
    pub fn decode_block_into(
        &self,
        entry: &BlockEntry,
        out: &mut Vec<HeapEvent>,
    ) -> Result<(), HeapMdError> {
        out.clear();
        let mut payload = Vec::new();
        self.payload(entry, KIND_EVENTS, &mut payload)?;
        decode_events_payload(&payload, entry.count, out)
            .map_err(|reason| HeapMdError::corrupt(entry.offset, reason))
    }

    /// Reads the payload of the block `entry` locates into `payload`,
    /// once its header agrees with the entry's count and is of kind
    /// `expected`.
    fn payload(
        &self,
        entry: &BlockEntry,
        expected: u8,
        payload: &mut Vec<u8>,
    ) -> Result<(), HeapMdError> {
        let header = self.read_block(entry.offset, payload)?;
        if (header.kind, header.count) != (expected, entry.count) {
            let name = ["events", "functions", "index", "meta"][usize::from(expected) - 1];
            return Err(HeapMdError::corrupt(
                entry.offset,
                format!("index entry disagrees with {name} block header"),
            ));
        }
        Ok(())
    }

    /// Decodes everything into an in-memory [`Trace`], verifying the
    /// declared totals.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`].
    pub fn to_trace(&self) -> Result<Trace, HeapMdError> {
        let mut events = Vec::with_capacity(self.index.total_events as usize);
        let mut block_buf = Vec::new();
        for entry in self.event_blocks() {
            self.decode_block_into(entry, &mut block_buf)?;
            events.extend_from_slice(&block_buf);
        }
        if events.len() as u64 != self.index.total_events {
            return Err(HeapMdError::corrupt(
                0,
                format!(
                    "index declares {} events, blocks carry {}",
                    self.index.total_events,
                    events.len()
                ),
            ));
        }
        let mut trace = Trace::new();
        for ev in events {
            trace.push(ev);
        }
        trace.set_functions(self.functions()?);
        trace.set_sampling(self.sampling()?);
        Ok(trace)
    }
}

/// Checks the file header: the magic, the one format version, and the
/// zero reserved byte, so every header byte is covered.
pub(crate) fn check_header(bytes: &[u8]) -> Result<(), HeapMdError> {
    match bytes.get(..HEADER_LEN) {
        Some(&[h, m, d, b, one, newline, version, reserved])
            if [h, m, d, b, one, newline] == *BINARY_MAGIC =>
        {
            if version != BINARY_FORMAT_VERSION {
                let reason = format!("unsupported binary trace version {version}");
                return Err(HeapMdError::corrupt(6, reason));
            }
            if reserved != 0 {
                return Err(HeapMdError::corrupt(7, "nonzero reserved header byte"));
            }
            Ok(())
        }
        _ => Err(HeapMdError::corrupt(0, "missing binary trace magic")),
    }
}

impl BinaryTraceReader {
    /// Strictly reads a complete, undamaged binary trace.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] on read failure, [`HeapMdError::Corrupt`]
    /// on any structural damage (bad header/footer/index, block CRC
    /// mismatch, count drift).
    pub fn strict(mut reader: impl Read) -> Result<Trace, HeapMdError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        BinaryTraceImage::open(bytes)?.to_trace()
    }

    /// Recovers every intact block of a possibly damaged binary trace.
    ///
    /// Block salvage resyncs on the block magic after damage: a
    /// corrupted or truncated region costs only the blocks it touches,
    /// and intact blocks *after* it are still recovered. Stats are
    /// reported through `heapmd-obs` (`heapmd_trace_salvage_*` counters
    /// and a `trace_salvage` event).
    ///
    /// # Errors
    ///
    /// Only [`HeapMdError::Io`] — corruption is described in the
    /// returned [`SalvageStats`], never an error.
    pub fn salvage(mut reader: impl Read) -> Result<(Trace, SalvageStats), HeapMdError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let (trace, stats) = salvage_bytes(&bytes);
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
            o.field_str("format", "binary")
                .field_u64("records", stats.records)
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
}

/// What a salvage pass recovered, and what it had to give up.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageStats {
    /// Intact blocks consumed (tables, metadata and index included).
    pub records: u64,
    /// Events recovered.
    pub events: u64,
    /// Bytes of the stream covered by the header, intact blocks and
    /// footer.
    pub valid_bytes: u64,
    /// Total bytes in the stream.
    pub total_bytes: u64,
    /// `true` when the stream ended on its index block and footer with
    /// no damage anywhere — i.e. nothing was lost.
    pub complete: bool,
    /// Byte offset and description of the first corruption, when the
    /// stream was damaged or truncated.
    pub corruption: Option<(u64, String)>,
}

/// Block-granular salvage over raw bytes: never fails, never panics.
fn salvage_bytes(bytes: &[u8]) -> (Trace, SalvageStats) {
    let mut events: Vec<HeapEvent> = Vec::new();
    let mut functions: Vec<String> = Vec::new();
    let mut sampling: Option<SamplingInfo> = None;
    let mut records = 0u64;
    let mut valid_bytes = 0u64;
    // The first damage; every damaged region records it if it is first.
    let mut corruption: Option<(u64, String)> = None;
    // The walk ended on an intact index block with its footer.
    let mut closed = false;

    let mut pos = match check_header(bytes) {
        Ok(()) => HEADER_LEN,
        Err(e) => {
            let HeapMdError::Corrupt { offset, reason } = e else {
                unreachable!("check_header only reports corruption")
            };
            corruption = Some((offset, reason));
            0
        }
    };
    valid_bytes += pos as u64;

    while pos < bytes.len() {
        let (kind, count, payload, next) = match parse_block(bytes, pos) {
            Ok(block) => block,
            Err(reason) => {
                corruption.get_or_insert((pos as u64, reason));
                // Resync: scan forward for the next plausible block.
                pos = find_block_magic(bytes, pos + 1).unwrap_or(bytes.len());
                continue;
            }
        };
        let decoded = match kind {
            KIND_EVENTS => {
                let start = events.len();
                decode_events_payload(payload, count, &mut events)
                    .inspect_err(|_| events.truncate(start))
            }
            KIND_FUNCTIONS => {
                decode_functions_payload(payload, count).map(|names| functions = names)
            }
            // The index ends the stream: it is intact only with the
            // footer pointing back at it right behind it, which is where
            // the wire reader ends a stream too.
            KIND_INDEX => decode_index_payload(payload, count).and_then(|_| {
                closed = bytes.len() - next == FOOTER_LEN && parse_footer(bytes) == Ok(pos as u64);
                if closed {
                    Ok(())
                } else {
                    Err("index block is not followed by its footer".into())
                }
            }),
            // Meta blocks already passed their CRC; recognized sampling
            // payloads are recovered, other tags are opaque — both count
            // as intact.
            _ => {
                if let Ok(Some(info)) = decode_sampling_meta(payload) {
                    sampling = Some(info);
                }
                Ok(())
            }
        };
        match decoded {
            Ok(()) => {
                records += 1;
                valid_bytes += (next - pos) as u64;
            }
            Err(reason) => {
                corruption.get_or_insert((pos as u64, reason));
            }
        }
        pos = next;
        if closed {
            valid_bytes += FOOTER_LEN as u64;
            break;
        }
    }

    let complete = closed && corruption.is_none();
    if !complete && corruption.is_none() {
        corruption = Some((pos as u64, "stream truncated before index/footer".into()));
    }

    let mut trace = Trace::new();
    let event_count = events.len() as u64;
    for ev in events {
        trace.push(ev);
    }
    trace.set_functions(functions);
    trace.set_sampling(sampling);
    (
        trace,
        SalvageStats {
            records,
            events: event_count,
            valid_bytes,
            total_bytes: bytes.len() as u64,
            complete,
            corruption,
        },
    )
}

fn find_block_magic(bytes: &[u8], from: usize) -> Option<usize> {
    if from >= bytes.len() {
        return None;
    }
    bytes[from..]
        .windows(4)
        .position(|w| w == BLOCK_MAGIC)
        .map(|i| from + i)
}

// ---------------------------------------------------------------------
// Trace conveniences
// ---------------------------------------------------------------------

impl Trace {
    /// Encodes the trace into the binary format in memory.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = BinaryTraceWriter::new(Vec::new()).expect("Vec sink cannot fail");
        self.write_blocks(&mut w).expect("Vec sink cannot fail");
        w.finish().expect("Vec sink cannot fail")
    }

    /// Writes the trace's blocks through `w`, metadata first: the
    /// sampling outcome and the function table precede the events, so
    /// a reader checking the stream as it arrives (`heapmd serve`)
    /// knows both before the first event.
    pub(crate) fn write_blocks<W: Write>(
        &self,
        w: &mut BinaryTraceWriter<W>,
    ) -> Result<(), HeapMdError> {
        if let Some(info) = self.sampling() {
            w.write_meta(&encode_sampling_meta(&info))?;
        }
        if !self.functions().is_empty() {
            w.write_functions(self.functions())?;
        }
        for ev in self.events() {
            w.write_event(ev)?;
        }
        Ok(())
    }

    /// Decodes a binary-format trace from bytes (strict).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`].
    pub fn decode_binary(bytes: &[u8]) -> Result<Self, HeapMdError> {
        BinaryTraceImage::open(bytes.to_vec())?.to_trace()
    }

    /// Writes the trace in the binary block format, atomically
    /// (write-to-temp + rename via [`crate::persist::write_atomic`]).
    /// For crash-safe incremental recording use [`BinaryTraceWriter`]
    /// directly (or [`crate::Process::stream_trace_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn save_binary(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        crate::persist::write_atomic(path, &self.encode_binary())?;
        Ok(())
    }

    /// Strictly reads a binary-format trace from `path`.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] on read failure, [`HeapMdError::Corrupt`]
    /// on damage.
    pub fn load_binary(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        BinaryTraceImage::open_path(path)?.to_trace()
    }

    /// Salvages every intact block of a binary-format trace from
    /// `path`.
    ///
    /// # Errors
    ///
    /// Only [`HeapMdError::Io`].
    pub fn salvage_binary(path: impl AsRef<Path>) -> Result<(Self, SalvageStats), HeapMdError> {
        BinaryTraceReader::salvage(std::fs::File::open(path)?)
    }

    /// Saves in the chosen on-disk format: [`save_binary`](Trace::save_binary),
    /// the only one. Kept for the benchmark ledger's callers.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`].
    pub fn save_format(
        &self,
        path: impl AsRef<Path>,
        format: StreamFormat,
    ) -> Result<(), HeapMdError> {
        match format {
            StreamFormat::Binary => self.save_binary(path),
        }
    }
}

// ---------------------------------------------------------------------
// Artifact sniffing
// ---------------------------------------------------------------------

/// What a file's leading magic bytes say it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Block-based binary trace (`HMDB1`).
    BinaryTrace,
    /// Framed-JSONL trace (`HMDT1`), a retired format heapmd no longer
    /// reads: recognized only so it is refused by name.
    JsonlTrace,
    /// CRC-framed incident bundle (`HMDI1`).
    IncidentBundle,
    /// None of the known magics.
    Unknown,
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArtifactKind::BinaryTrace => "binary trace (HMDB1)",
            ArtifactKind::JsonlTrace => "retired framed-JSONL trace (HMDT1)",
            ArtifactKind::IncidentBundle => "incident bundle (HMDI1)",
            ArtifactKind::Unknown => "unknown artifact",
        };
        f.write_str(s)
    }
}

/// Classifies a byte prefix by magic. Needs at most the first 6 bytes.
pub fn sniff_bytes(prefix: &[u8]) -> ArtifactKind {
    if prefix.starts_with(BINARY_MAGIC) {
        return ArtifactKind::BinaryTrace;
    }
    if prefix.starts_with(b"HMDT1") {
        return ArtifactKind::JsonlTrace;
    }
    if prefix.starts_with(crate::incident::INCIDENT_MAGIC.as_bytes()) {
        return ArtifactKind::IncidentBundle;
    }
    ArtifactKind::Unknown
}

/// Classifies the file at `path` by its magic bytes — never by its
/// extension.
///
/// # Errors
///
/// Returns [`HeapMdError::Io`] when the file cannot be read.
pub fn sniff_file(path: impl AsRef<Path>) -> Result<ArtifactKind, HeapMdError> {
    let mut prefix = [0u8; 6];
    let mut f = std::fs::File::open(path)?;
    let mut filled = 0;
    while filled < prefix.len() {
        let n = f.read(&mut prefix[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(sniff_bytes(&prefix[..filled]))
}

/// Loads a binary trace from `path`, checking its magic bytes first. In
/// salvage mode a damaged trace yields what block salvage recovers,
/// together with the stats; complete artifacts return `None` stats.
///
/// # Errors
///
/// [`HeapMdError::Io`] when unreadable, [`HeapMdError::Corrupt`] on
/// strict-mode damage, and [`HeapMdError::InvalidInput`] naming the
/// sniffed kind when the file is not a binary trace (a retired `HMDT1`
/// trace included).
pub fn load_trace_auto(
    path: impl AsRef<Path>,
    salvage: bool,
) -> Result<(Trace, Option<SalvageStats>), HeapMdError> {
    let path = path.as_ref();
    require_binary(path)?;
    if salvage {
        let (trace, stats) = Trace::salvage_binary(path)?;
        Ok((trace, Some(stats)))
    } else {
        Ok((Trace::load_binary(path)?, None))
    }
}

/// Refuses a file whose magic is not `HMDB1`, naming what it is.
fn require_binary(path: &Path) -> Result<(), HeapMdError> {
    match sniff_file(path)? {
        ArtifactKind::BinaryTrace => Ok(()),
        other => Err(HeapMdError::InvalidInput(format!(
            "{} is not a binary trace (HMDB1), the only trace format heapmd reads: \
             magic identifies {other}",
            path.display()
        ))),
    }
}

// ---------------------------------------------------------------------
// Sampling metadata payloads
// ---------------------------------------------------------------------

/// Tag prefix of a sampling-outcome meta payload. Meta blocks are
/// opaque by contract; readers key on this tag and ignore payloads they
/// do not recognize, so future meta kinds coexist with old readers.
const SAMPLING_META_TAG: &[u8; 4] = b"SMPL";

/// Encodes a [`SamplingInfo`] as a tagged meta-block payload (see
/// [`BinaryTraceWriter::write_meta`]).
pub fn encode_sampling_meta(info: &SamplingInfo) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + 4 * 10);
    payload.extend_from_slice(SAMPLING_META_TAG);
    put_varint(&mut payload, info.hot_threshold);
    put_varint(&mut payload, info.decimation);
    put_varint(&mut payload, info.kept_stores);
    put_varint(&mut payload, info.total_stores);
    payload
}

/// Decodes a sampling-outcome meta payload. `Ok(None)` for payloads
/// carrying some other (unrecognized) tag — those are not corruption.
///
/// # Errors
///
/// Returns a reason string when the payload carries the sampling tag
/// but is malformed.
pub(crate) fn decode_sampling_meta(payload: &[u8]) -> Result<Option<SamplingInfo>, String> {
    if payload.len() < 4 || &payload[..4] != SAMPLING_META_TAG {
        return Ok(None);
    }
    let mut pos = 4usize;
    let hot_threshold = get_varint(payload, &mut pos)?;
    let decimation = get_varint(payload, &mut pos)?;
    let kept_stores = get_varint(payload, &mut pos)?;
    let total_stores = get_varint(payload, &mut pos)?;
    if pos != payload.len() {
        return Err("sampling meta payload carries trailing bytes".into());
    }
    if decimation == 0 {
        return Err("sampling meta declares decimation 0".into());
    }
    if kept_stores > total_stores {
        return Err(format!(
            "sampling meta declares {kept_stores} kept of {total_stores} total stores"
        ));
    }
    Ok(Some(SamplingInfo {
        hot_threshold,
        decimation,
        kept_stores,
        total_stores,
    }))
}

// ---------------------------------------------------------------------
// Meta container (CRC-protected checkpoint payloads)
// ---------------------------------------------------------------------

/// Wraps an opaque payload in the binary container: header + one meta
/// block + footer. Gives non-trace artifacts (training checkpoints)
/// the same CRC + version protection as traces.
pub fn encode_meta_container(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(&FILE_HEADER);
    let index_offset_entry = out.len() as u64;
    put_block(&mut out, KIND_META, 1, payload);
    let index_offset = out.len() as u64;
    let index = BlockIndex {
        blocks: vec![BlockEntry {
            offset: index_offset_entry,
            kind: KIND_META,
            count: 1,
        }],
        total_events: 0,
        total_fn_enters: 0,
    };
    let block = encode_index_block(&index);
    out.extend_from_slice(&block);
    out.extend_from_slice(&encode_footer(index_offset));
    out
}

/// Unwraps a meta container written by [`encode_meta_container`],
/// returning the payload. Every byte is checked: the header must be
/// the one the encoder writes, and the index block and footer must be
/// intact and point at each other, so no bit flip anywhere parses.
///
/// # Errors
///
/// Returns [`HeapMdError::Corrupt`] on any framing or CRC violation.
pub fn decode_meta_container(bytes: &[u8]) -> Result<Vec<u8>, HeapMdError> {
    if !bytes.starts_with(&FILE_HEADER) {
        return Err(HeapMdError::corrupt(0, "bad meta container header"));
    }
    let (kind, count, payload, index_at) =
        parse_block(bytes, 8).map_err(|reason| HeapMdError::corrupt(8, reason))?;
    if kind != KIND_META || count != 1 {
        return Err(HeapMdError::corrupt(
            8,
            format!("expected one meta block, found kind {kind} count {count}"),
        ));
    }
    // Truncation or damage past the payload is damage too: the index
    // block must sit between the meta block and the footer, and the
    // footer must point at it.
    let footer_at = bytes.len().saturating_sub(FOOTER_LEN);
    let index_offset =
        parse_footer(bytes).map_err(|reason| HeapMdError::corrupt(footer_at as u64, reason))?;
    let (kind, count, _, end) = parse_block(&bytes[..footer_at.max(index_at)], index_at)
        .map_err(|reason| HeapMdError::corrupt(index_at as u64, reason))?;
    if kind != KIND_INDEX || count != 1 || end != footer_at || index_offset != index_at as u64 {
        return Err(HeapMdError::corrupt(
            index_at as u64,
            "index block and footer do not frame the meta block",
        ));
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------
// Pipelined replay / check
// ---------------------------------------------------------------------

/// Drives `consume` with decoded event blocks while a decoder thread
/// works ahead over a bounded channel. Buffers are recycled through a
/// return channel, so steady state allocates nothing per block.
fn pipeline_blocks(
    image: &BinaryTraceImage,
    mut consume: impl FnMut(&[HeapEvent]) -> Result<(), HeapMdError>,
) -> Result<(), HeapMdError> {
    let (full_tx, full_rx) = mpsc::sync_channel::<Vec<HeapEvent>>(PIPELINE_DEPTH);
    let (empty_tx, empty_rx) = mpsc::channel::<Vec<HeapEvent>>();
    for _ in 0..=PIPELINE_DEPTH {
        empty_tx
            .send(Vec::with_capacity(EVENTS_PER_BLOCK))
            .expect("receiver is alive");
    }
    std::thread::scope(|scope| -> Result<(), HeapMdError> {
        let decoder = scope.spawn(move || -> Result<(), HeapMdError> {
            for entry in image.event_blocks() {
                let mut buf = empty_rx.recv().expect("ingest side holds the sender");
                image.decode_block_into(entry, &mut buf)?;
                if full_tx.send(buf).is_err() {
                    // Ingestion bailed; its error wins.
                    return Ok(());
                }
            }
            Ok(())
        });
        let mut ingest_result: Result<(), HeapMdError> = Ok(());
        for buf in full_rx {
            if ingest_result.is_ok() {
                ingest_result = consume(&buf);
            }
            // Keep draining (and recycling) so the decoder never blocks
            // on a full channel after an ingest error.
            let _ = empty_tx.send(buf);
        }
        decoder.join().expect("decoder thread panicked")?;
        ingest_result
    })
}

/// Replays a binary trace image end to end — decoder thread + graph
/// ingestion pipeline — recomputing the metric report under
/// `settings`, exactly as [`Trace::replay`] would on the decoded
/// events.
///
/// # Errors
///
/// [`HeapMdError::Corrupt`] on block damage,
/// [`HeapMdError::InvalidInput`] on out-of-table function ids.
pub fn replay_binary(
    image: &BinaryTraceImage,
    settings: &Settings,
    run: impl Into<String>,
) -> Result<MetricReport, HeapMdError> {
    let functions = image.functions()?;
    let rate = image.sampling()?.map_or(1.0, |s| s.rate());
    let mut replayer = Replayer::new(settings.clone(), &functions);
    pipeline_blocks(image, |events| {
        validate_function_ids(events, functions.len())?;
        Ok(replayer.ingest_batch(events)?)
    })?;
    Ok(MetricReport::with_sample_rate(
        run,
        replayer.take_samples(),
        rate,
    ))
}

/// The fused replay loop behind [`replay_binary_fused`],
/// [`replay_binary_fused_sampled`] and [`replay_binary_sharded`]: each
/// block decodes into one reused buffer and is ingested on the calling
/// thread by a replayer over a `shards`-way graph image, behind a live
/// filter when `sampler` is given. Returns the report plus the filter's
/// outcome.
fn fused_replay(
    image: &BinaryTraceImage,
    settings: &Settings,
    run: impl Into<String>,
    shards: usize,
    sampler: Option<SamplerConfig>,
) -> Result<(MetricReport, Option<SamplingInfo>), HeapMdError> {
    let functions = image.functions()?;
    let mut replayer = Replayer::with_shards(settings.clone(), &functions, shards);
    if let Some(config) = sampler {
        replayer.enable_sampling(config);
    }
    let mut buf = Vec::with_capacity(EVENTS_PER_BLOCK);
    for entry in image.event_blocks() {
        image.decode_block_into(entry, &mut buf)?;
        validate_function_ids(&buf, functions.len())?;
        replayer.ingest_batch(&buf)?;
    }
    let info = replayer.sampling_info();
    let rate = match info {
        Some(info) => info.rate(),
        None => image.sampling()?.map_or(1.0, |s| s.rate()),
    };
    let report = MetricReport::with_sample_rate(run, replayer.take_samples(), rate);
    Ok((report, info))
}

/// Replays a binary trace image on the calling thread: each block
/// decodes into one reused buffer and is ingested immediately — no
/// decoder thread, no channel hand-off.
///
/// On machines with spare cores the pipelined [`replay_binary`] hides
/// decode behind ingest; on saturated or single-core hosts the fused
/// loop wins because it spends nothing on synchronization.
///
/// # Errors
///
/// [`HeapMdError::Corrupt`] / [`HeapMdError::InvalidInput`], exactly as
/// [`replay_binary`].
pub fn replay_binary_fused(
    image: &BinaryTraceImage,
    settings: &Settings,
    run: impl Into<String>,
) -> Result<MetricReport, HeapMdError> {
    Ok(fused_replay(image, settings, run, 1, None)?.0)
}

/// [`replay_binary_fused`] with a live [`swat::SampledIngest`] filter
/// in front of graph ingestion: re-samples the (unsampled) recorded
/// stream under `config`, exactly as a production process monitoring
/// behind the filter would have seen it. Returns the report — whose
/// `sample_rate` is the *measured* rate — plus the full
/// [`SamplingInfo`].
///
/// The result is bit-identical to recording the trace through a
/// sampled [`crate::Process`] and replaying that artifact: with
/// `decimation == 1` it matches [`replay_binary_fused`] sample for
/// sample.
///
/// # Errors
///
/// [`HeapMdError::Corrupt`] / [`HeapMdError::InvalidInput`], exactly as
/// [`replay_binary_fused`].
pub fn replay_binary_fused_sampled(
    image: &BinaryTraceImage,
    settings: &Settings,
    run: impl Into<String>,
    config: SamplerConfig,
) -> Result<(MetricReport, SamplingInfo), HeapMdError> {
    let (report, info) = fused_replay(image, settings, run, 1, Some(config))?;
    Ok((report, info.expect("sampling was enabled")))
}

/// [`replay_binary_fused`] over a graph image partitioned into `shards`
/// address-range shards (`<= 1` is the single-slab graph; counts above
/// [`heap_graph::MAX_SHARDS`] are clamped). The report is bit-identical
/// at every shard count.
///
/// # Errors
///
/// [`HeapMdError::Corrupt`] / [`HeapMdError::InvalidInput`], exactly as
/// [`replay_binary_fused`].
pub fn replay_binary_sharded(
    image: &BinaryTraceImage,
    settings: &Settings,
    run: impl Into<String>,
    shards: usize,
) -> Result<MetricReport, HeapMdError> {
    Ok(fused_replay(image, settings, run, shards, None)?.0)
}

/// Checks a binary trace image against `model` post-mortem through the
/// pipelined decoder, over a graph image partitioned into `shards`
/// address-range shards (`<= 1` is the single-slab graph). The
/// trailing index supplies the total `FnEnter` count, so the
/// start-up-skip alignment of [`Trace::check`] holds without a decode
/// pre-pass. Verdicts are bit-identical at every shard count.
///
/// # Errors
///
/// [`HeapMdError::Corrupt`] / [`HeapMdError::InvalidInput`].
pub fn check_binary_sharded(
    image: &BinaryTraceImage,
    model: &HeapModel,
    settings: &Settings,
    shards: usize,
) -> Result<Vec<BugReport>, HeapMdError> {
    check_image(image, model, settings, shards, None).map(|o| o.bugs)
}

/// [`check_binary_sharded`], re-sampling a full-fidelity recording
/// under `sampler`, with the whole outcome.
fn check_image(
    image: &BinaryTraceImage,
    model: &HeapModel,
    settings: &Settings,
    shards: usize,
    sampler: Option<SamplerConfig>,
) -> Result<TraceCheckOutcome, HeapMdError> {
    let replayer = Replayer::with_shards(settings.clone(), &[], shards);
    let mut check = StreamCheck::new(model.clone(), replayer, sampler);
    check.set_functions(&image.functions()?);
    if let Some(info) = image.sampling()? {
        check.set_sampling(info);
    }
    // An event the graph cannot apply ends the check: the blocks
    // after it are not decoded.
    pipeline_blocks(image, |events| Ok(check.feed(events)?))?;
    check.finish()
}

// ---------------------------------------------------------------------
// Multi-trace checking pool
// ---------------------------------------------------------------------

/// Loads and checks one binary trace file: the work of one
/// [`run_pool_streaming`](crate::run_pool_streaming) item of `check --jobs N`, which hands the
/// outcomes on in input order as each prefix completes.
///
/// The trace checks over a `shards`-way graph image (verdicts are
/// shard-invariant); a full-fidelity trace is re-sampled under
/// `sampler` first, an already-sampled one keeps its recorded schedule.
/// A strict check reads the file's blocks by position through the
/// pipelined decoder, holding one block per decode in flight.
/// With `salvage`, the file decodes to an in-memory trace through
/// block salvage instead, so a damaged trace contributes whatever
/// salvage recovers, and its outcome carries the salvage stats.
///
/// # Errors
///
/// A file that is not a binary trace fails with an error naming what
/// its magic identifies; otherwise the load's or the check's error.
pub fn check_path(
    path: &Path,
    model: &HeapModel,
    settings: &Settings,
    salvage: bool,
    shards: usize,
    sampler: Option<SamplerConfig>,
) -> Result<TraceCheckOutcome, HeapMdError> {
    if salvage {
        let (trace, stats) = load_trace_auto(path, true)?;
        let mut outcome = trace.check_with(model, settings, shards, sampler)?;
        outcome.salvage = stats;
        return Ok(outcome);
    }
    require_binary(path)?;
    let image = BinaryTraceImage::open_path(path)?;
    check_image(&image, model, settings, shards, sampler)
}

// ---------------------------------------------------------------------
// Wire reader (live streams)
// ---------------------------------------------------------------------

/// One decoded frame from a live binary trace stream (see
/// [`WireReader`]).
#[derive(Debug)]
pub enum WireFrame {
    /// A block of heap events.
    Events(Vec<HeapEvent>),
    /// The interned function-name table. A stream may carry several,
    /// each ahead of the events that use its new names; the last wins.
    Functions(Vec<String>),
    /// A metadata block: the raw (CRC-verified) payload. Replay needs
    /// nothing from it, but the serving layer decodes recognized tags
    /// (e.g. the sampling outcome via [`encode_sampling_meta`]).
    Meta(Vec<u8>),
    /// The trailing index plus a verified footer: the clean end of the
    /// stream. No further frames follow.
    End(BlockIndex),
}

/// Incremental frame-at-a-time reader for `.hmdt` bytes arriving over a
/// socket (the `heapmd serve` wire format).
///
/// Unlike [`BinaryTraceImage`], which wants the whole file, this reads
/// exactly one length-framed block per [`next_frame`](Self::next_frame)
/// call, CRC-checking each before decoding, so a daemon can replay a
/// tenant's stream while the tenant is still running. Any structural
/// damage — truncation, a flipped bit, a bogus length — surfaces as
/// [`HeapMdError::Corrupt`] with the stream offset, never a panic, so
/// the serving layer can evict exactly the offending stream.
pub struct WireReader<R: Read> {
    inner: R,
    consumed: u64,
    header_done: bool,
    finished: bool,
    /// When teeing, every byte [`fill`](Self::fill) consumes is also
    /// appended here — how the serving session layer captures the raw
    /// block bytes it journals.
    tee: Option<Vec<u8>>,
}

impl<R: Read> WireReader<R> {
    /// Wraps a byte stream positioned at the 8-byte `.hmdt` header.
    pub fn new(inner: R) -> Self {
        WireReader {
            header_done: false,
            ..WireReader::resume(inner, 0)
        }
    }

    /// Wraps a byte stream that resumes mid-trace: the header was
    /// consumed in an earlier incarnation of the stream, and the next
    /// block starts at logical offset `offset`. Offsets embedded in the
    /// trailing index keep validating as if the stream had never been
    /// interrupted — the session layer of `heapmd serve` reconnects
    /// this way.
    pub fn resume(inner: R, offset: u64) -> Self {
        WireReader {
            inner,
            consumed: offset,
            header_done: true,
            finished: false,
            tee: None,
        }
    }

    /// Bytes consumed from the stream so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Whether the stream reached its verified end frame.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Mutable access to the wrapped stream, for protocols that
    /// interleave out-of-band bytes (sequence numbers, acks) between
    /// frames. Bytes moved through it do not count as consumed.
    pub(crate) fn stream_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Rewinds the logical offset to `offset` (a frame boundary), as
    /// when a retransmitted duplicate frame is read and discarded.
    pub(crate) fn rewind(&mut self, offset: u64) {
        self.consumed = offset;
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), HeapMdError> {
        self.inner.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                HeapMdError::corrupt(self.consumed, "stream truncated")
            }
            _ => HeapMdError::from(e),
        })?;
        self.consumed += buf.len() as u64;
        if let Some(tee) = &mut self.tee {
            tee.extend_from_slice(buf);
        }
        Ok(())
    }

    /// Like [`next_frame`](Self::next_frame), additionally returning
    /// the frame's raw wire bytes (block header + payload, plus the
    /// footer for the end frame) so the caller can journal or buffer
    /// them verbatim. The stream's 8-byte file header belongs to no
    /// frame: the first frame's raw bytes never include it.
    ///
    /// # Errors
    ///
    /// Same as [`next_frame`](Self::next_frame).
    pub fn next_frame_raw(&mut self) -> Result<(WireFrame, Vec<u8>), HeapMdError> {
        self.read_header()?;
        self.tee = Some(Vec::new());
        let result = self.next_frame();
        let raw = self.tee.take().unwrap_or_default();
        result.map(|frame| (frame, raw))
    }

    /// Reads and checks the file header, unless it was already read
    /// (or the stream resumed past it).
    fn read_header(&mut self) -> Result<(), HeapMdError> {
        if !self.header_done {
            let mut header = [0u8; HEADER_LEN];
            self.fill(&mut header)?;
            check_header(&header)?;
            self.header_done = true;
        }
        Ok(())
    }

    /// Reads, verifies, and decodes the next frame.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] on transport failure, [`HeapMdError::Corrupt`]
    /// on structural damage or on any read past [`WireFrame::End`].
    pub fn next_frame(&mut self) -> Result<WireFrame, HeapMdError> {
        if self.finished {
            return Err(HeapMdError::corrupt(
                self.consumed,
                "read past end of stream",
            ));
        }
        self.read_header()?;
        let block_start = self.consumed;
        let corrupt = |reason: String| HeapMdError::corrupt(block_start, reason);
        let mut head = [0u8; BLOCK_HEADER_LEN];
        self.fill(&mut head)?;
        let header = BlockHeader::parse(&head).map_err(corrupt)?;
        let mut payload = vec![0u8; header.len as usize];
        self.fill(&mut payload)?;
        header.verify(&payload).map_err(corrupt)?;
        let count = header.count;
        match header.kind {
            KIND_EVENTS => {
                let mut events = Vec::with_capacity(item_capacity(count, &payload));
                decode_events_payload(&payload, count, &mut events).map_err(corrupt)?;
                Ok(WireFrame::Events(events))
            }
            KIND_FUNCTIONS => decode_functions_payload(&payload, count)
                .map(WireFrame::Functions)
                .map_err(corrupt),
            KIND_META => Ok(WireFrame::Meta(payload)),
            _ => {
                let index = decode_index_payload(&payload, count).map_err(corrupt)?;
                let mut footer = [0u8; FOOTER_LEN];
                self.fill(&mut footer)?;
                let index_offset = parse_footer(&footer).map_err(corrupt)?;
                if index_offset != block_start {
                    return Err(HeapMdError::corrupt(
                        block_start,
                        format!(
                            "footer points at index offset {index_offset}, stream has it at {block_start}"
                        ),
                    ));
                }
                self.finished = true;
                Ok(WireFrame::End(index))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_pool_streaming;
    use crate::process::Process;

    fn settings(frq: u64) -> Settings {
        Settings::builder().frq(frq).build().unwrap()
    }

    fn sample_trace(n: usize) -> Trace {
        let mut p = Process::new(settings(5));
        p.enable_trace();
        let (build, node_site) = (p.function("build"), p.site("node"));
        let mut prev = None;
        for i in 0..n {
            p.enter(build);
            let node = p.malloc(16 + (i % 3) * 8, node_site).unwrap();
            if let Some(prev) = prev {
                p.write_ptr(node.offset(8), prev).unwrap();
            }
            if i % 7 == 0 {
                p.write_scalar(node).unwrap();
            }
            prev = Some(node);
            p.leave();
        }
        let mut trace = p.take_trace().unwrap();
        trace.set_functions(vec!["build".into()]);
        trace
    }

    #[test]
    fn varints_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn binary_round_trips_bit_identically() {
        let trace = sample_trace(500);
        let bytes = trace.encode_binary();
        let back = Trace::decode_binary(&bytes).unwrap();
        assert_eq!(back, trace);
        // Compact: a few bytes per event (3.6 here; the retired framed
        // JSONL form of the same trace took 85).
        assert!(
            bytes.len() < 8 * trace.len(),
            "binary {} bytes for {} events",
            bytes.len(),
            trace.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new();
        let back = Trace::decode_binary(&trace.encode_binary()).unwrap();
        assert!(back.is_empty());
        assert!(back.functions().is_empty());
    }

    #[test]
    fn multi_block_traces_round_trip() {
        // > EVENTS_PER_BLOCK events forces at least two event blocks.
        let trace = sample_trace(EVENTS_PER_BLOCK / 2 + 200);
        assert!(trace.len() > EVENTS_PER_BLOCK);
        let bytes = trace.encode_binary();
        let image = BinaryTraceImage::open(bytes).unwrap();
        assert!(image.event_blocks().count() >= 2);
        assert_eq!(image.index().total_events, trace.len() as u64);
        assert_eq!(image.to_trace().unwrap(), trace);
    }

    #[test]
    fn index_counts_fn_enters() {
        let trace = sample_trace(100);
        let expect = trace
            .events()
            .iter()
            .filter(|e| matches!(e, HeapEvent::FnEnter { .. }))
            .count() as u64;
        let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
        assert_eq!(image.index().total_fn_enters, expect);
    }

    #[test]
    fn truncated_binary_fails_strict_and_salvages_blocks() {
        let trace = sample_trace(EVENTS_PER_BLOCK);
        let bytes = trace.encode_binary();
        let cut = bytes.len() * 2 / 3;
        let damaged = &bytes[..cut];
        assert!(matches!(
            Trace::decode_binary(damaged),
            Err(HeapMdError::Corrupt { .. })
        ));
        let (salvaged, stats) = BinaryTraceReader::salvage(damaged).unwrap();
        assert!(!stats.complete);
        assert!(stats.corruption.is_some());
        assert!(!salvaged.is_empty(), "intact leading blocks recovered");
        assert_eq!(
            salvaged.events(),
            &trace.events()[..salvaged.len()],
            "recovered events are a prefix (damage hit the tail)"
        );
    }

    /// An index whose entries are CRC-valid but not in file order, or
    /// not between the header and the index block, is refused at open
    /// as corrupt at the index offset.
    #[test]
    fn misplaced_index_entries_are_refused_at_open() {
        let bytes = sample_trace(3 * EVENTS_PER_BLOCK / 2).encode_binary();
        let good = BinaryTraceImage::open(bytes.clone()).unwrap().index;
        let index_offset = parse_footer(&bytes).unwrap();
        let first = good.blocks[0].offset;
        for offsets in [
            [1_000_000_000, first + 1],
            [0, first + 1],
            [first, first],
            [first, index_offset],
        ] {
            let mut index = good.clone();
            index.blocks[0].offset = offsets[0];
            index.blocks[1].offset = offsets[1];
            let mut bad = bytes[..index_offset as usize].to_vec();
            bad.extend(encode_index_block(&index));
            bad.extend(encode_footer(index_offset));
            let err = BinaryTraceImage::open(bad).err().expect("refused");
            assert!(
                matches!(&err, HeapMdError::Corrupt { offset, .. } if *offset == index_offset),
                "{offsets:?}: {err}"
            );
        }
    }

    #[test]
    fn mid_stream_damage_recovers_blocks_after_the_hole() {
        let trace = sample_trace(3 * EVENTS_PER_BLOCK / 2);
        let bytes = trace.encode_binary();
        let image = BinaryTraceImage::open(bytes.clone()).unwrap();
        let blocks: Vec<BlockEntry> = image.event_blocks().copied().collect();
        assert!(blocks.len() >= 2, "need multiple blocks for this test");
        // Corrupt one byte inside the FIRST event block's payload.
        let mut damaged = bytes.clone();
        damaged[blocks[0].offset as usize + BLOCK_HEADER_LEN + 10] ^= 0xFF;
        let (salvaged, stats) = BinaryTraceReader::salvage(&damaged[..]).unwrap();
        assert!(!stats.complete);
        // Everything but the first block survives: later blocks decode
        // independently thanks to per-block delta state.
        let lost = blocks[0].count as usize;
        assert_eq!(salvaged.len(), trace.len() - lost);
        assert_eq!(salvaged.events(), &trace.events()[lost..]);
        assert_eq!(salvaged.functions(), trace.functions());
    }

    #[test]
    fn garbage_salvages_to_empty_without_panicking() {
        let (trace, stats) = BinaryTraceReader::salvage(&b"not a binary trace"[..]).unwrap();
        assert!(trace.is_empty());
        assert!(!stats.complete);
        assert!(stats.corruption.is_some());
    }

    #[test]
    fn future_version_is_rejected() {
        let trace = sample_trace(20);
        let mut bytes = trace.encode_binary();
        bytes[6] = BINARY_FORMAT_VERSION + 1;
        assert!(matches!(
            Trace::decode_binary(&bytes),
            Err(HeapMdError::Corrupt { .. })
        ));
    }

    #[test]
    fn save_and_load_binary_files_round_trip() {
        let trace = sample_trace(50);
        let dir = std::env::temp_dir().join("heapmd-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.hmdt");
        trace.save_binary(&path).unwrap();
        assert_eq!(sniff_file(&path).unwrap(), ArtifactKind::BinaryTrace);
        let back = Trace::load_binary(&path).unwrap();
        assert_eq!(back, trace);
        let (salvaged, stats) = Trace::salvage_binary(&path).unwrap();
        assert_eq!(salvaged, trace);
        assert!(stats.complete);
        let (auto, stats) = load_trace_auto(&path, false).unwrap();
        assert_eq!(auto, trace);
        assert!(stats.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sniffing_distinguishes_every_format() {
        assert_eq!(sniff_bytes(b"HMDB1\n\x01\x00"), ArtifactKind::BinaryTrace);
        assert_eq!(sniff_bytes(b"HMDT1 000"), ArtifactKind::JsonlTrace);
        assert_eq!(sniff_bytes(b"HMDI1 000"), ArtifactKind::IncidentBundle);
        assert_eq!(sniff_bytes(b"  {\"ev\":1}"), ArtifactKind::Unknown);
        assert_eq!(sniff_bytes(b"ELF\x7f"), ArtifactKind::Unknown);
        assert_eq!(sniff_bytes(b""), ArtifactKind::Unknown);
    }

    #[test]
    fn load_trace_auto_rejects_non_traces_with_typed_error() {
        let dir = std::env::temp_dir().join("heapmd-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle-like");
        std::fs::write(&path, b"HMDI1 00000001 00000000 x\n").unwrap();
        assert!(matches!(
            load_trace_auto(&path, false),
            Err(HeapMdError::InvalidInput(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_replay_matches_in_memory_replay() {
        let trace = sample_trace(EVENTS_PER_BLOCK + 300);
        let settings = settings(5);
        let expected = trace.replay(&settings, "mem").unwrap();
        let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
        let piped = replay_binary(&image, &settings, "piped").unwrap();
        assert_eq!(expected.samples, piped.samples);
    }

    #[test]
    fn pipelined_check_matches_in_memory_check() {
        use crate::model::{HeapModel, StableMetric, MODEL_FORMAT_VERSION};
        use heap_graph::MetricKind;

        let settings = Settings::builder()
            .frq(5)
            .warmup_samples(1)
            .build()
            .unwrap();
        let model = HeapModel {
            version: MODEL_FORMAT_VERSION,
            program: "t".into(),
            settings: settings.clone(),
            stable: vec![StableMetric {
                kind: MetricKind::Roots,
                min: 0.0,
                max: 5.0,
                avg_change: 0.0,
                std_change: 0.5,
                stable_runs: 3,
                total_runs: 3,
            }],
            unstable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        };
        // Buggy run: isolated nodes only (Roots = 100 > 5).
        let mut p = Process::new(settings.clone());
        p.enable_trace();
        let (lp, iso) = (p.function("loop"), p.site("iso"));
        for _ in 0..EVENTS_PER_BLOCK {
            p.enter(lp);
            p.malloc(16, iso).unwrap();
            p.leave();
        }
        let trace = p.take_trace().unwrap();
        let expected = trace.check(&model, &settings).unwrap();
        assert!(!expected.is_empty());
        let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
        let piped = check_binary_sharded(&image, &model, &settings, 1).unwrap();
        assert_eq!(expected, piped);
    }

    #[test]
    fn sharded_replay_clamps_oversized_shard_counts() {
        let trace = sample_trace(300);
        let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
        let fused = replay_binary_fused(&image, &settings(5), "run").unwrap();
        let big = heap_graph::MAX_SHARDS * 4;
        let sharded = replay_binary_sharded(&image, &settings(5), "run", big).unwrap();
        assert_eq!(sharded.samples, fused.samples);
    }

    #[test]
    fn out_of_table_function_ids_are_invalid_input_in_pipeline() {
        let mut trace = sample_trace(20);
        trace.push(HeapEvent::FnEnter { func: 999 });
        let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
        assert!(matches!(
            replay_binary(&image, &settings(5), "bad"),
            Err(HeapMdError::InvalidInput(_))
        ));
    }

    #[test]
    fn check_pool_merges_in_input_order() {
        use crate::model::{HeapModel, StableMetric, MODEL_FORMAT_VERSION};
        use heap_graph::MetricKind;

        let settings = Settings::builder()
            .frq(5)
            .warmup_samples(1)
            .build()
            .unwrap();
        let model = HeapModel {
            version: MODEL_FORMAT_VERSION,
            program: "t".into(),
            settings: settings.clone(),
            stable: vec![StableMetric {
                kind: MetricKind::Roots,
                min: 0.0,
                max: 5.0,
                avg_change: 0.0,
                std_change: 0.5,
                stable_runs: 3,
                total_runs: 3,
            }],
            unstable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        };
        // Alternate clean (linked) and buggy (isolated) traces so the
        // expected verdicts differ per index.
        let traces: Vec<Trace> = (0..6)
            .map(|i| {
                let mut p = Process::new(settings.clone());
                p.enable_trace();
                let (lp, n) = (p.function("loop"), p.site("n"));
                let mut prev = None;
                for _ in 0..60 {
                    p.enter(lp);
                    let node = p.malloc(16, n).unwrap();
                    if i % 2 == 0 {
                        if let Some(prev) = prev {
                            p.write_ptr(node.offset(8), prev).unwrap();
                        }
                        prev = Some(node);
                    }
                    p.leave();
                }
                p.take_trace().unwrap()
            })
            .collect();
        let sequential: Vec<_> = traces
            .iter()
            .map(|t| t.check(&model, &settings).unwrap())
            .collect();
        // Both branches: a strict check takes the pipelined engine over
        // the file's blocks, a salvage check the in-memory checker.
        let dir = std::env::temp_dir().join(format!("heapmd-pool-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<std::path::PathBuf> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let path = dir.join(format!("t{i}.hmdt"));
                t.save_binary(&path).unwrap();
                path
            })
            .collect();
        for (jobs, salvage) in [1, 2, 8].into_iter().flat_map(|j| [(j, false), (j, true)]) {
            let mut pooled = Vec::new();
            let check = |i: usize| check_path(&paths[i], &model, &settings, salvage, 1, None);
            let Ok(()) = run_pool_streaming("check_pool", paths.len(), jobs, check, |_, r| {
                pooled.push(r.unwrap().bugs);
                Ok::<(), std::convert::Infallible>(())
            });
            assert_eq!(pooled, sequential, "jobs={jobs} must merge in order");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_pool_checks_agree_across_formats() {
        // Re-sampling happens in one driver, so a strict check of a
        // binary file (read by block) and a salvage check of it (in memory)
        // give the same sampled verdict, samples, and rate.
        let trace = sample_trace(600);
        let settings = settings(5);
        let mut builder = crate::model::ModelBuilder::new(settings.clone());
        builder.add_run(&trace.replay(&settings, "train").unwrap());
        let model = builder.build().model;
        let dir = std::env::temp_dir().join(format!("heapmd-pool-sampled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths = [dir.join("t.hmdt")];
        trace.save_binary(&paths[0]).unwrap();
        let config = SamplerConfig::new(8, 4);
        let outcomes: Vec<_> = [false, true]
            .into_iter()
            .map(|salvage| check_path(&paths[0], &model, &settings, salvage, 1, Some(config)))
            .map(|r| r.unwrap())
            .collect();
        let rate = outcomes[0].sampling.expect("re-sampled").rate();
        assert!(rate < 1.0, "the filter must drop stores (rate {rate})");
        // Debug rendering keeps the comparison NaN-stable.
        assert_eq!(
            format!("{:?}", outcomes[0].bugs),
            format!("{:?}", outcomes[1].bugs)
        );
        assert_eq!(outcomes[0].samples, outcomes[1].samples);
        assert_eq!(outcomes[0].sampling, outcomes[1].sampling);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_container_round_trips_and_detects_damage() {
        let payload = br#"{"hello":"world","n":42}"#;
        let bytes = encode_meta_container(payload);
        assert_eq!(sniff_bytes(&bytes), ArtifactKind::BinaryTrace);
        assert_eq!(decode_meta_container(&bytes).unwrap(), payload);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[i] ^= 1 << bit;
                assert!(
                    matches!(
                        decode_meta_container(&damaged),
                        Err(HeapMdError::Corrupt { .. })
                    ),
                    "flip of bit {bit} at byte {i} must be caught"
                );
            }
            assert!(
                decode_meta_container(&bytes[..i]).is_err(),
                "truncation to {i} bytes must be caught"
            );
        }
    }

    #[test]
    fn wire_reader_replays_a_stream_frame_by_frame() {
        let trace = sample_trace(EVENTS_PER_BLOCK / 2 + 200);
        let bytes = trace.encode_binary();
        let mut reader = WireReader::new(&bytes[..]);
        let mut events = Vec::new();
        let mut functions = Vec::new();
        let index = loop {
            match reader.next_frame().expect("intact stream") {
                WireFrame::Events(mut v) => events.append(&mut v),
                WireFrame::Functions(f) => functions = f,
                WireFrame::Meta(_) => {}
                WireFrame::End(index) => break index,
            }
        };
        assert!(reader.is_finished());
        assert_eq!(events, trace.events());
        assert_eq!(functions, trace.functions());
        assert_eq!(index.total_events, trace.len() as u64);
        assert_eq!(reader.bytes_consumed(), bytes.len() as u64);
        assert!(
            reader.next_frame().is_err(),
            "reading past End must error, not loop"
        );
    }

    #[test]
    fn wire_reader_rejects_truncation_and_bit_flips_without_panicking() {
        let trace = sample_trace(300);
        let bytes = trace.encode_binary();
        // Truncate at every prefix length that cuts a structure short.
        for cut in [3usize, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut reader = WireReader::new(&bytes[..cut.min(bytes.len())]);
            let err = loop {
                match reader.next_frame() {
                    Ok(WireFrame::End(_)) => panic!("truncated stream reported a clean end"),
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, HeapMdError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Flip one bit at a spread of offsets; every damaged stream
        // must end in Corrupt (bits in skipped regions may still decode
        // — those stop at the footer offset check at the latest).
        for pos in (0..bytes.len()).step_by(bytes.len() / 13 + 1) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let mut reader = WireReader::new(&bad[..]);
            for _ in 0..1000 {
                match reader.next_frame() {
                    Ok(WireFrame::End(_)) | Err(_) => break,
                    Ok(_) => continue,
                }
            }
        }
    }
}
