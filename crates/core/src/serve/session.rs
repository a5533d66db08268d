//! The resumable (v2) session layer of the fleet daemon.
//!
//! # Protocol
//!
//! A v2 connection opens with `HMDSERVE2 <tenant> <session> <acked>\n`:
//! the tenant name, a client-chosen session id (1–32 chars, same
//! charset as tenant names), and the highest block count the client has
//! seen acknowledged (informational — the daemon's journal is
//! authoritative). After the preamble, the client sends the `.hmdt`
//! block stream *without* its 8-byte file header, each block prefixed
//! with a little-endian `u64` sequence number starting at 0. The index
//! block travels together with the 20-byte footer as one frame.
//!
//! The daemon answers on the same socket with fixed 13-byte ack frames
//! (`HMAK` + acked:u64le + flags:u8): one hello ack immediately after
//! the preamble telling the client where to resume (`acked` = the next
//! expected sequence number), one progress ack after each journaled
//! block, and a final ack (flags bit 0) once the end-of-stream frame is
//! accepted. **An ack means the block is journaled** (or, without a
//! journal directory, handed to the checking shard) — the client may
//! drop it from its spill buffer.
//!
//! # Failure semantics
//!
//! - A connection error, a torn frame, or a silently-desynced stream
//!   (a chaos fault truncating bytes mid-frame surfaces as a CRC or
//!   framing error) closes the connection but **keeps the session**:
//!   the client reconnects and resumes from the first unacked block, so
//!   any fault schedule that eventually heals converges to the same
//!   bytes — and therefore the same verdict — as an uninterrupted
//!   stream.
//! - A duplicate block (retransmitted because its ack was lost) is
//!   read, discarded, and re-acked; a sequence gap closes the
//!   connection (the session stays resumable).
//! - A sampling meta frame after the session's first events block is
//!   malformed input (the shard already checks events under the
//!   schedule it settled at that block): the session is evicted with
//!   the reason `malformed stream: sampling metadata after events`,
//!   keeping the prefix's verdict.
//! - A session that stays disconnected past
//!   [`super::ServeConfig::session_timeout`] is evicted, salvaging the
//!   received prefix into a partial verdict like any other eviction.
//!
//! # Crash-only recovery
//!
//! With [`super::ServeConfig::journal_dir`] set, every accepted block
//! is appended to `<tenant>.hmdt` — a header-complete, salvageable
//! binary trace — next to a tiny atomic `<tenant>.session.json`
//! ([`write_atomic`], the checkpoint idiom) recording the session id.
//! A restarted daemon forwards each journal's frames to the shards
//! through the live connection's own frame forwarder, so the dispatch
//! and the late-sampling rule are the same (a journal whose sampling
//! meta frame follows its events evicts the tenant at restart). It
//! truncates any torn tail a crash left, registers the session at the
//! recovered sequence number, and lets the client resume as if the
//! daemon had never died. Journals survive graceful shutdown too:
//! there is no special shutdown state, recovery *is* the startup path.

use super::{wait_for_room, DrainingStream, ServeCtx, ShardMsg};
use crate::error::HeapMdError;
use crate::persist::write_atomic;
use crate::trace_codec::{
    decode_sampling_meta, BlockIndex, WireFrame, WireReader, FILE_HEADER, HEADER_LEN,
};
use heapmd_obs::fleet::TenantStats;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// First token of the resumable-session preamble line.
pub const SERVE_PREAMBLE_V2: &str = "HMDSERVE2";

/// Magic prefix of an ack frame.
pub(crate) const ACK_MAGIC: [u8; 4] = *b"HMAK";
/// Size of an ack frame: magic + acked sequence + flags.
pub(crate) const ACK_LEN: usize = 13;
/// Ack flag bit: the stream's end frame was accepted and the verdict
/// is closing; the client is done.
pub(crate) const ACK_FINAL: u8 = 1;

/// Eviction reason for a stream whose sampling metadata follows its
/// first events block: the daemon checks events as they arrive, so the
/// sampling schedule must be known before the first one.
pub(crate) const LATE_SAMPLING_META: &str = "malformed stream: sampling metadata after events";

/// Current session metadata format version; future-versioned files are
/// ignored on recovery.
pub(crate) const SESSION_META_VERSION: u32 = 1;

/// Whether `id` is a valid session id: 1–32 bytes of `[A-Za-z0-9._:-]`.
pub fn valid_session(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 32
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

/// Encodes one ack frame.
pub(crate) fn encode_ack(acked: u64, flags: u8) -> [u8; ACK_LEN] {
    let mut buf = [0u8; ACK_LEN];
    buf[..4].copy_from_slice(&ACK_MAGIC);
    buf[4..12].copy_from_slice(&acked.to_le_bytes());
    buf[12] = flags;
    buf
}

/// Decodes one ack frame; `None` on a bad magic.
pub(crate) fn decode_ack(buf: &[u8]) -> Option<(u64, u8)> {
    if buf.len() != ACK_LEN || buf[..4] != ACK_MAGIC {
        return None;
    }
    let acked = u64::from_le_bytes(buf[4..12].try_into().ok()?);
    Some((acked, buf[12]))
}

fn send_ack(w: &mut impl Write, acked: u64, flags: u8) -> io::Result<()> {
    w.write_all(&encode_ack(acked, flags))?;
    w.flush()
}

/// On-disk session metadata, written atomically next to the journal.
/// The journal itself is authoritative for sequence/offset state (it
/// is replayed on recovery); the metadata pins the session id and the
/// completed flag.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SessionMeta {
    /// Format version (see [`SESSION_META_VERSION`]).
    #[serde(default)]
    pub version: u32,
    /// Tenant the journal belongs to.
    pub tenant: String,
    /// Client-chosen session id.
    pub session: String,
    /// The end-of-stream frame was accepted; the journal (if still
    /// present) replays to a complete verdict and reconnecting clients
    /// get a final ack.
    pub completed: bool,
}

impl SessionMeta {
    fn validate(&self) -> Result<(), HeapMdError> {
        if self.version > SESSION_META_VERSION {
            return Err(HeapMdError::Checkpoint(format!(
                "session meta version {} is newer than supported {}",
                self.version, SESSION_META_VERSION
            )));
        }
        if !super::valid_tenant(&self.tenant) || !valid_session(&self.session) {
            return Err(HeapMdError::Checkpoint(
                "session meta carries invalid tenant or session id".into(),
            ));
        }
        Ok(())
    }
}

/// In-memory state of one tenant's v2 session, shared between the
/// active connection handler (at most one) and the expiry sweeper.
pub(crate) struct SessionEntry {
    /// Client-chosen session id; a different id supersedes the session.
    pub session: String,
    /// Next expected wire sequence number (== blocks accepted so far).
    pub next_seq: u64,
    /// Logical `.hmdt` stream offset of the next block (the file
    /// header counts, so offsets embedded in the trailing index keep
    /// validating across resumes).
    pub offset: u64,
    /// A connection handler currently owns this session.
    pub connected: bool,
    /// End-of-stream accepted; the entry is a tombstone that replays
    /// final acks.
    pub completed: bool,
    /// An events block was accepted: sampling metadata is now refused.
    pub events_seen: bool,
    /// Last connect/disconnect/accept activity, for expiry.
    pub last_seen: Instant,
    pub stats: Arc<TenantStats>,
    pub pending: Arc<AtomicU64>,
}

impl SessionEntry {
    /// A disconnected session at the start of its stream (no block
    /// accepted yet, the next one lands right after the file header).
    fn new(session: String, stats: Arc<TenantStats>) -> Self {
        SessionEntry {
            session,
            next_seq: 0,
            offset: HEADER_LEN as u64,
            connected: false,
            completed: false,
            events_seen: false,
            last_seen: Instant::now(),
            stats,
            pending: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Both journal paths for `tenant`, if journaling is configured.
fn journal_cleanup(ctx: &ServeCtx, tenant: &str) -> Vec<PathBuf> {
    match &ctx.journal_dir {
        Some(dir) => vec![
            dir.join(format!("{tenant}.hmdt")),
            dir.join(format!("{tenant}.session.json")),
        ],
        None => Vec::new(),
    }
}

fn write_meta(ctx: &ServeCtx, tenant: &str, session: &str, completed: bool) {
    let Some(dir) = &ctx.journal_dir else { return };
    let meta = SessionMeta {
        version: SESSION_META_VERSION,
        tenant: tenant.to_string(),
        session: session.to_string(),
        completed,
    };
    if let Ok(text) = serde_json::to_string(&meta) {
        let _ = write_atomic(dir.join(format!("{tenant}.session.json")), text.as_bytes());
    }
}

/// Append-only handle on a tenant's block journal. The file is a valid
/// (salvageable) `.hmdt`: the 8-byte header followed by raw blocks.
pub(super) struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Opens the journal for appending. `fresh` truncates any previous
    /// incarnation; either way the file starts with the binary header.
    pub(super) fn open(dir: &Path, tenant: &str, fresh: bool) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{tenant}.hmdt"));
        let mut opts = std::fs::OpenOptions::new();
        opts.write(true).create(true);
        if fresh {
            opts.truncate(true);
        } else {
            opts.append(true);
        }
        let mut file = opts.open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&FILE_HEADER)?;
        }
        Ok(Journal { file })
    }

    pub(super) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.flush()
    }
}

enum Attach {
    /// Session attached; `resumed` when it carries prior state.
    Attached {
        entry: Arc<Mutex<SessionEntry>>,
        resumed: bool,
    },
    /// The stream already completed; replay the final ack.
    Final(u64),
    /// Another connection owns this session right now.
    Busy,
}

fn attach_session(ctx: &ServeCtx, tenant: &str, session: &str) -> Attach {
    let mut map = ctx.sessions.lock().unwrap();
    if let Some(arc) = map.get(tenant).cloned() {
        let mut e = arc.lock().unwrap();
        if e.session == session {
            if e.connected {
                return Attach::Busy;
            }
            if e.completed {
                e.last_seen = Instant::now();
                return Attach::Final(e.next_seq);
            }
            e.connected = true;
            e.last_seen = Instant::now();
            e.stats.set_connected(true);
            e.stats.record_resume();
            ctx.fleet.record_reconnect();
            drop(e);
            return Attach::Attached {
                entry: arc,
                resumed: true,
            };
        }
        // A different session id supersedes the old incarnation: its
        // received prefix is salvaged (not evicted) and its journal
        // removed synchronously, before the fresh journal is created
        // under the same path.
        drop(e);
        map.remove(tenant);
        let _ = ctx.sender_for(tenant).send(ShardMsg::Abort {
            tenant: tenant.to_string(),
            reason: format!("superseded by session {session}"),
            evict: false,
            cleanup: Vec::new(),
        });
        for path in journal_cleanup(ctx, tenant) {
            let _ = std::fs::remove_file(path);
        }
    }
    let mut fresh = SessionEntry::new(session.to_string(), ctx.fleet.connect(tenant));
    fresh.connected = true;
    let entry = Arc::new(Mutex::new(fresh));
    map.insert(tenant.to_string(), Arc::clone(&entry));
    Attach::Attached {
        entry,
        resumed: false,
    }
}

/// Marks the session disconnected (resumable until the sweeper expires
/// it) after a connection loss or torn frame.
fn detach(entry: &Arc<Mutex<SessionEntry>>) {
    let mut e = entry.lock().unwrap();
    e.connected = false;
    e.last_seen = Instant::now();
    e.stats.set_connected(false);
    e.stats.set_rate(0);
}

/// Removes the session (if registered) and salvage-evicts its shard
/// state, deleting its journal once the verdict is closed.
fn evict_session(ctx: &ServeCtx, tenant: &str, stats: &TenantStats, reason: String) {
    ctx.sessions.lock().unwrap().remove(tenant);
    ctx.fleet.evict(stats);
    let _ = ctx.sender_for(tenant).send(ShardMsg::Abort {
        tenant: tenant.to_string(),
        reason,
        evict: true,
        cleanup: journal_cleanup(ctx, tenant),
    });
}

/// What [`forward`] did with one frame.
pub(crate) enum Forward {
    /// The frame reached the shard (a meta payload with a tag the
    /// daemon does not read is dropped).
    Sent,
    /// The end frame: the caller closes the stream with this index.
    End(BlockIndex),
    /// The frame broke the stream's rules and the session was evicted.
    Evicted,
    /// The shard's channel is closed (the daemon is shutting down).
    Closed,
}

/// Turns one wire frame of `tenant`'s stream into shard messages: the
/// one dispatch the live connection and journal recovery share. It
/// enforces the stream's one ordering rule: a sampling meta frame after
/// the first events frame evicts the session with
/// [`LATE_SAMPLING_META`], keeping the prefix's verdict.
/// `events_seen` carries whether an events frame was forwarded.
pub(crate) fn forward(
    ctx: &ServeCtx,
    tenant: &str,
    stats: &TenantStats,
    frame: WireFrame,
    events_seen: &mut bool,
) -> Forward {
    let msg = match frame {
        WireFrame::Events(events) => {
            *events_seen = true;
            ShardMsg::Events {
                tenant: tenant.to_string(),
                events,
            }
        }
        WireFrame::Functions(names) => ShardMsg::Functions {
            tenant: tenant.to_string(),
            names,
        },
        WireFrame::Meta(payload) => match decode_sampling_meta(&payload) {
            Ok(Some(_)) if *events_seen => {
                evict_session(ctx, tenant, stats, LATE_SAMPLING_META.into());
                return Forward::Evicted;
            }
            Ok(Some(info)) => ShardMsg::Sampling {
                tenant: tenant.to_string(),
                info,
            },
            _ => return Forward::Sent,
        },
        WireFrame::End(index) => return Forward::End(index),
    };
    match ctx.sender_for(tenant).send(msg) {
        Ok(()) => Forward::Sent,
        Err(_) => Forward::Closed,
    }
}

/// Drives one v2 connection: attach, hello ack, then the
/// seq-prefixed block loop with journaling and per-block acks.
pub(crate) fn handle_v2(
    mut stream: DrainingStream,
    tenant: String,
    session: String,
    _client_acked: u64,
    ctx: &ServeCtx,
) {
    let (entry, resumed) = match attach_session(ctx, &tenant, &session) {
        Attach::Busy => {
            ctx.fleet.record_protocol_error();
            return;
        }
        Attach::Final(next_seq) => {
            let _ = send_ack(&mut stream, next_seq, ACK_FINAL);
            return;
        }
        Attach::Attached { entry, resumed } => (entry, resumed),
    };

    let journal = match &ctx.journal_dir {
        Some(dir) => match Journal::open(dir, &tenant, !resumed) {
            Ok(j) => {
                if !resumed {
                    write_meta(ctx, &tenant, &session, false);
                }
                Some(j)
            }
            Err(_) => {
                // Can't make acks durable: refuse the session rather
                // than promise resumability the journal can't back.
                let stats = Arc::clone(&entry.lock().unwrap().stats);
                evict_session(ctx, &tenant, &stats, "journal unavailable".into());
                return;
            }
        },
        None => None,
    };

    if carry_blocks(ctx, &tenant, &session, &entry, resumed, journal, stream).is_none() {
        detach(&entry);
    }
}

/// Carries an attached session's blocks: the shard's Start, the hello
/// ack, then per block the sequence check, the journal append,
/// backpressure, [`forward`] and the ack. `Some` once the stream ended
/// or the session was evicted; `None` when the connection or the
/// stream broke off (a lost socket, shutdown draining to EOF, a torn or
/// damaged frame, a sequence gap): nothing past the last ack was
/// journaled, so the session stays resumable and the client re-sends
/// from there.
fn carry_blocks(
    ctx: &ServeCtx,
    tenant: &str,
    session: &str,
    entry: &Mutex<SessionEntry>,
    resumed: bool,
    mut journal: Option<Journal>,
    mut stream: DrainingStream,
) -> Option<()> {
    let (stats, pending, next_seq, offset, mut events_seen) = {
        let e = entry.lock().unwrap();
        let (stats, pending) = (Arc::clone(&e.stats), Arc::clone(&e.pending));
        (stats, pending, e.next_seq, e.offset, e.events_seen)
    };
    let tx = ctx.sender_for(tenant);
    tx.send(ShardMsg::Start {
        tenant: tenant.to_string(),
        stats: Arc::clone(&stats),
        pending: Arc::clone(&pending),
        model: ctx.model_for(tenant),
        resume: resumed,
    })
    .ok()?;
    // Hello ack: where to resume from.
    send_ack(&mut stream, next_seq, 0).ok()?;

    let mut reader = WireReader::resume(stream, offset);
    loop {
        let mut seq_buf = [0u8; 8];
        reader.stream_mut().read_exact(&mut seq_buf).ok()?;
        let seq = u64::from_le_bytes(seq_buf);
        let expected = entry.lock().unwrap().next_seq;
        if seq < expected {
            // Retransmitted duplicate (its ack was lost): consume the
            // frame, discard it, rewind the logical offset, re-ack.
            let before = reader.bytes_consumed();
            reader.next_frame_raw().ok()?;
            reader.rewind(before);
            send_ack(reader.stream_mut(), expected, 0).ok()?;
            continue;
        }
        if seq > expected {
            // The client is ahead of the journal: an earlier frame never
            // arrived. The hello ack on reconnect resynchronizes it.
            return None;
        }
        let (frame, raw) = reader.next_frame_raw().ok()?;
        if let Some(j) = &mut journal {
            // An unjournalable block must not be acked.
            j.append(&raw).ok()?;
        }
        if let WireFrame::Events(events) = &frame {
            if !wait_for_room(&pending, ctx.queue_events, &ctx.shutdown) {
                let reason = format!("slow consumer: over {} queued events", ctx.queue_events);
                evict_session(ctx, tenant, &stats, reason);
                return Some(());
            }
            pending.fetch_add(events.len() as u64, Relaxed);
            stats.set_queue_depth(pending.load(Relaxed));
        }
        let index = match forward(ctx, tenant, &stats, frame, &mut events_seen) {
            Forward::Sent => None,
            Forward::End(index) => Some(index),
            Forward::Evicted => return Some(()),
            Forward::Closed => return None,
        };
        let acked = {
            let mut e = entry.lock().unwrap();
            e.next_seq += 1;
            e.offset = reader.bytes_consumed();
            e.events_seen = events_seen;
            e.completed = index.is_some();
            e.connected = index.is_none();
            e.last_seen = Instant::now();
            e.next_seq
        };
        match index {
            None => send_ack(reader.stream_mut(), acked, 0).ok()?,
            Some(index) => {
                // Tombstone the metadata before the shard deletes the
                // journal: a crash in between leaves either a replayable
                // journal or a final-ack tombstone, never a lost stream.
                write_meta(ctx, tenant, session, true);
                let _ = tx.send(ShardMsg::End {
                    tenant: tenant.to_string(),
                    index,
                    cleanup: journal_cleanup(ctx, tenant),
                });
                let _ = send_ack(reader.stream_mut(), acked, ACK_FINAL);
                return Some(());
            }
        }
    }
}

/// Evicts sessions that stayed disconnected past the configured
/// timeout, salvaging the prefix they sent into a partial verdict.
/// Called periodically from the accept loop.
pub(crate) fn sweep_expired(ctx: &ServeCtx) {
    let timeout = ctx.session_timeout;
    let candidates: Vec<String> = {
        let map = ctx.sessions.lock().unwrap();
        map.iter()
            .filter(|(_, arc)| {
                let e = arc.lock().unwrap();
                !e.connected && !e.completed && e.last_seen.elapsed() > timeout
            })
            .map(|(tenant, _)| tenant.clone())
            .collect()
    };
    for tenant in candidates {
        // Re-check under the lock: the client may have reconnected
        // between the scan and now.
        let stats = {
            let mut map = ctx.sessions.lock().unwrap();
            let Some(arc) = map.get(&tenant) else {
                continue;
            };
            let e = arc.lock().unwrap();
            if e.connected || e.completed || e.last_seen.elapsed() <= timeout {
                continue;
            }
            let stats = Arc::clone(&e.stats);
            drop(e);
            map.remove(&tenant);
            stats
        };
        ctx.fleet.evict(&stats);
        let _ = ctx.sender_for(&tenant).send(ShardMsg::Abort {
            tenant: tenant.clone(),
            reason: format!(
                "session expired after {}ms disconnected",
                timeout.as_millis()
            ),
            evict: true,
            cleanup: journal_cleanup(ctx, &tenant),
        });
    }
}

/// Replays every journal the previous daemon left: rebuilds shard
/// state through the live path's [`forward`], truncates torn tails, and
/// registers each session so its client can resume. Runs before the
/// accept loop starts.
pub(crate) fn recover_sessions(ctx: &ServeCtx) {
    let Some(dir) = ctx.journal_dir.clone() else {
        return;
    };
    let _ = std::fs::create_dir_all(&dir);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    for de in entries.flatten() {
        let name = de.file_name().to_string_lossy().into_owned();
        let Some(tenant) = name.strip_suffix(".session.json") else {
            continue;
        };
        if !super::valid_tenant(tenant) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(de.path()) else {
            continue;
        };
        let Ok(meta) = serde_json::from_str::<SessionMeta>(&text) else {
            continue;
        };
        if meta.validate().is_err() || meta.tenant != tenant {
            continue;
        }
        recover_one(ctx, tenant, meta, &dir);
    }
}

fn register_entry(ctx: &ServeCtx, tenant: &str, entry: SessionEntry) {
    ctx.sessions
        .lock()
        .unwrap()
        .insert(tenant.to_string(), Arc::new(Mutex::new(entry)));
}

fn recover_one(ctx: &ServeCtx, tenant: &str, meta: SessionMeta, dir: &Path) {
    let jpath = dir.join(format!("{tenant}.hmdt"));
    let bytes = std::fs::read(&jpath).unwrap_or_default();
    if bytes.len() < HEADER_LEN {
        if meta.completed {
            // The journal was already cleaned up but the tombstone
            // survived: keep replaying final acks to the client.
            let mut entry = SessionEntry::new(meta.session, ctx.fleet.tenant(tenant));
            entry.completed = true;
            register_entry(ctx, tenant, entry);
        } else {
            for path in journal_cleanup(ctx, tenant) {
                let _ = std::fs::remove_file(path);
            }
        }
        return;
    }
    let mut entry = SessionEntry::new(meta.session, ctx.fleet.tenant(tenant));
    let tx = ctx.sender_for(tenant);
    if tx
        .send(ShardMsg::Start {
            tenant: tenant.to_string(),
            stats: Arc::clone(&entry.stats),
            pending: Arc::clone(&entry.pending),
            model: ctx.model_for(tenant),
            resume: false,
        })
        .is_err()
    {
        return;
    }
    heapmd_obs::export::emit_event("session_recovered", |o| {
        o.field_str("tenant", tenant)
            .field_u64("journal_bytes", bytes.len() as u64);
    });
    // No pending increment: recovery feeds the shard ahead of any live
    // connection, and the shard's saturating decrement tolerates the
    // imbalance.
    let mut reader = WireReader::new(io::Cursor::new(&bytes[..]));
    while let Ok(frame) = reader.next_frame() {
        entry.next_seq += 1;
        match forward(ctx, tenant, &entry.stats, frame, &mut entry.events_seen) {
            Forward::Sent => entry.offset = reader.bytes_consumed(),
            Forward::End(index) => {
                // The whole stream made it to the journal before the
                // crash: finalize now and tombstone the session.
                let _ = tx.send(ShardMsg::End {
                    tenant: tenant.to_string(),
                    index,
                    cleanup: journal_cleanup(ctx, tenant),
                });
                entry.offset = reader.bytes_consumed();
                entry.completed = true;
                register_entry(ctx, tenant, entry);
                return;
            }
            // Journaled just before the live handler evicted the
            // session: the eviction is finished now.
            Forward::Evicted | Forward::Closed => return,
        }
    }
    // A crash mid-append left a torn tail: truncate back to the last
    // whole block (everything acked is before it) and resume there.
    if (entry.offset as usize) < bytes.len() {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&jpath) {
            let _ = f.set_len(entry.offset);
        }
    }
    register_entry(ctx, tenant, entry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_charset_checked() {
        assert!(valid_session("s-1.retry:2"));
        assert!(!valid_session(""));
        assert!(!valid_session("has space"));
        assert!(!valid_session(&"x".repeat(33)));
        assert!(valid_session(&"x".repeat(32)));
    }

    #[test]
    fn ack_frames_round_trip() {
        let buf = encode_ack(42, ACK_FINAL);
        assert_eq!(decode_ack(&buf), Some((42, ACK_FINAL)));
        assert_eq!(decode_ack(&buf[..12]), None, "short frame");
        let mut bad = buf;
        bad[0] = b'X';
        assert_eq!(decode_ack(&bad), None, "bad magic");
    }

    #[test]
    fn meta_rejects_future_versions_and_bad_names() {
        let ok = SessionMeta {
            version: SESSION_META_VERSION,
            tenant: "web-1".into(),
            session: "s1".into(),
            completed: false,
        };
        assert!(ok.validate().is_ok());
        let mut future = ok.clone();
        future.version = SESSION_META_VERSION + 1;
        assert!(future.validate().is_err());
        let mut bad = ok;
        bad.tenant = "no/slashes".into();
        assert!(bad.validate().is_err());
    }
}
