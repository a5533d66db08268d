//! Resumable fleet clients: bounded retry with jittered exponential
//! backoff, connect/write timeouts, and a local spill buffer of
//! unacked blocks.
//!
//! [`SessionClient`] is a [`Write`] sink that speaks the v2 session
//! protocol (see [`super::session`]). Bytes written to it are split
//! back into the `.hmdt` block frames the [`BinaryTraceWriter`]
//! upstream produces, each frame is assigned a sequence number and
//! parked in a spill buffer, and a background-free pump pushes frames
//! over the wire and retires them as the daemon's acks come back. A
//! write never waits for acks: it sends, then retires only the acks
//! already buffered on the socket. The client waits on the daemon only
//! when the spill is over its cap, and at `flush()`. When
//! the connection dies — or was never up — the client redials with
//! exponential backoff (deterministically jittered, so a fleet of
//! restarting clients doesn't thunder in lockstep), replays the
//! preamble, learns the daemon's resume point from the hello ack, and
//! retransmits everything unacked. `flush()` after the end-of-stream
//! frame blocks until the daemon's final ack, so a successful
//! [`push_trace_resumable`] means the verdict is durably in flight on
//! the daemon, not just in a socket buffer.

use super::session::{decode_ack, ACK_FINAL, ACK_LEN, SERVE_PREAMBLE_V2};
use super::{connect_any, valid_tenant, AnyStream};
use crate::error::HeapMdError;
use crate::trace::Trace;
use crate::trace_codec::{
    BinaryTraceWriter, BlockHeader, BLOCK_HEADER_LEN, HEADER_LEN, KIND_INDEX,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// How long to wait for ack bytes in one pump step before rechecking
/// for work.
const ACK_POLL: Duration = Duration::from_millis(5);

/// A bidirectional, timeout-capable transport the session client can
/// drive. Implemented by the built-in TCP/Unix transports; tests
/// implement it over fault-injecting wrappers to chaos-test the
/// resume protocol.
pub trait Conn: Read + Write + Send {
    /// Bounds subsequent reads; `None` blocks indefinitely.
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()>;
    /// Switches reads between nonblocking (a read with nothing buffered
    /// fails with [`io::ErrorKind::WouldBlock`] at once) and blocking
    /// under the read timeout.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()>;
}

impl Conn for AnyStream {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout_opt(dur)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        AnyStream::set_nonblocking(self, nonblocking)
    }
}

/// Dials one connection attempt to `addr`.
pub type Dialer = Box<dyn FnMut(&str) -> io::Result<Box<dyn Conn>> + Send>;

/// Bounded-retry policy with exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive failed connect/transfer cycles tolerated before the
    /// client gives up (successful ack progress resets the count).
    pub max_attempts: u32,
    /// First backoff delay; doubles per consecutive failure.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// 8 attempts, 100 ms base, 5 s ceiling.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
        }
    }
}

/// Options for [`connect_session`] / [`push_trace_resumable`].
pub struct SessionOptions {
    /// Session id (1–32 chars of `[A-Za-z0-9._:-]`); defaults to a
    /// time+pid-derived id unique enough for one tenant.
    pub session: Option<String>,
    /// Reconnect policy.
    pub retry: RetryPolicy,
    /// Spill-buffer cap in bytes. Writes block (pumping the wire)
    /// while the unacked backlog is above the cap.
    pub spill_limit: usize,
    /// Connect timeout, write timeout, and the ack-progress deadline
    /// after which an apparently-alive but silent connection is
    /// considered dead.
    pub io_timeout: Duration,
    /// Transport override for tests (fault injection); `None` dials
    /// TCP/Unix per the address.
    pub dialer: Option<Dialer>,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            session: None,
            retry: RetryPolicy::default(),
            spill_limit: 8 << 20,
            io_timeout: Duration::from_secs(10),
            dialer: None,
        }
    }
}

impl std::fmt::Debug for SessionOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionOptions")
            .field("session", &self.session)
            .field("retry", &self.retry)
            .field("spill_limit", &self.spill_limit)
            .field("io_timeout", &self.io_timeout)
            .field("dialer", &self.dialer.as_ref().map(|_| "custom"))
            .finish()
    }
}

/// Splits the byte stream a [`BinaryTraceWriter`] produces back into
/// whole wire frames: the 8-byte file header is swallowed (v2 carries
/// no header — the daemon journals its own), every block becomes one
/// frame, and the index block pulls the 20-byte footer along with it.
struct BlockSplitter {
    buf: Vec<u8>,
    header_left: usize,
    /// Payload (+footer) bytes the current block still needs, once its
    /// header is complete.
    ended: bool,
}

impl BlockSplitter {
    fn new() -> Self {
        BlockSplitter {
            buf: Vec::new(),
            header_left: HEADER_LEN,
            ended: false,
        }
    }

    /// Feeds bytes; returns every frame completed by them.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the bytes do not frame as
    /// blocks (a bad magic, length or kind).
    fn push(&mut self, mut bytes: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        if self.header_left > 0 {
            let n = self.header_left.min(bytes.len());
            self.header_left -= n;
            bytes = &bytes[n..];
        }
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        while self.buf.len() >= BLOCK_HEADER_LEN {
            let header = BlockHeader::parse(&self.buf)
                .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?;
            let frame_len = header.frame_len();
            if self.buf.len() < frame_len {
                break;
            }
            let rest = self.buf.split_off(frame_len);
            frames.push(std::mem::replace(&mut self.buf, rest));
            if header.kind == KIND_INDEX {
                self.ended = true;
                break;
            }
        }
        Ok(frames)
    }
}

/// Deterministic xorshift64* jitter stream, seeded from the tenant and
/// session ids (FNV-1a): no OS randomness, reproducible under test,
/// and distinct across a fleet of clients.
struct Jitter {
    state: u64,
}

impl Jitter {
    fn new(tenant: &str, session: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tenant.bytes().chain([0]).chain(session.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Jitter {
            state: if h == 0 { 0x9e37_79b9 } else { h },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Buckets (milliseconds) of the client retry-backoff histogram.
pub use heapmd_obs::fleet::RETRY_BACKOFF_BUCKETS_MS;

fn record_backoff(ms: u64) {
    if heapmd_obs::obs_enabled() {
        heapmd_obs::registry()
            .histogram("heapmd_client_retry_backoff_ms", RETRY_BACKOFF_BUCKETS_MS)
            .observe(ms);
    }
}

/// A resumable session sink (see the module docs).
pub struct SessionClient {
    addr: String,
    tenant: String,
    session: String,
    retry: RetryPolicy,
    spill_limit: usize,
    io_timeout: Duration,
    dialer: Dialer,
    jitter: Jitter,

    conn: Option<Box<dyn Conn>>,
    splitter: BlockSplitter,
    /// Unacked frames, seq-ordered; front's sequence is `acked`.
    spill: VecDeque<Vec<u8>>,
    spill_bytes: usize,
    /// Sequence assigned to the next frame the splitter completes.
    next_seq: u64,
    /// Everything below this sequence is daemon-acknowledged.
    acked: u64,
    /// Next sequence to (re)transmit on the current connection.
    cursor: u64,
    /// Partial ack frame read so far.
    ack_buf: Vec<u8>,
    final_acked: bool,
    /// Reconnects performed (first successful dial not counted).
    reconnects: u64,
    last_progress: Instant,
}

impl SessionClient {
    fn new(addr: &str, tenant: &str, opts: SessionOptions) -> Self {
        let session = opts.session.unwrap_or_else(default_session_id);
        let io_timeout = opts.io_timeout;
        let dialer = opts.dialer.unwrap_or_else(|| default_dialer(io_timeout));
        SessionClient {
            jitter: Jitter::new(tenant, &session),
            addr: addr.to_string(),
            tenant: tenant.to_string(),
            session,
            retry: opts.retry,
            spill_limit: opts.spill_limit.max(1),
            io_timeout,
            dialer,
            conn: None,
            splitter: BlockSplitter::new(),
            spill: VecDeque::new(),
            spill_bytes: 0,
            next_seq: 0,
            acked: 0,
            cursor: 0,
            ack_buf: Vec::new(),
            final_acked: false,
            reconnects: 0,
            last_progress: Instant::now(),
        }
    }

    /// The session id in use (generated if none was supplied).
    pub fn session_id(&self) -> &str {
        &self.session
    }

    /// Reconnects performed after the initial successful dial.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.ack_buf.clear();
    }

    /// Sleeps the jittered exponential backoff for failure number
    /// `attempt` (1-based) and records it in the client histogram.
    fn backoff_sleep(&mut self, attempt: u32) {
        let base = self.retry.base_delay.as_millis() as u64;
        let cap = self.retry.max_delay.as_millis() as u64;
        let exp = base
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(cap);
        // Jitter into [exp/2, exp]: stays exponential, never syncs.
        let half = exp / 2;
        let ms = half + self.jitter.next() % (exp - half + 1);
        record_backoff(ms);
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// One dial + handshake attempt. On success the spill cursor is
    /// rewound to the daemon's resume point.
    fn try_connect(&mut self) -> io::Result<()> {
        let mut conn = (self.dialer)(&self.addr)?;
        conn.write_all(
            format!(
                "{SERVE_PREAMBLE_V2} {} {} {}\n",
                self.tenant, self.session, self.acked
            )
            .as_bytes(),
        )?;
        conn.flush()?;
        conn.set_read_timeout(Some(self.io_timeout))?;
        let mut hello = [0u8; ACK_LEN];
        conn.read_exact(&mut hello)?;
        let Some((daemon_acked, flags)) = decode_ack(&hello) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "daemon sent a malformed ack",
            ));
        };
        if flags & ACK_FINAL != 0 {
            self.final_acked = true;
        } else if daemon_acked < self.acked {
            // The daemon acked these blocks before but no longer has
            // them (restarted without its journal). The spill already
            // dropped them, so the session cannot be resumed.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "daemon lost session state: resumes at block {daemon_acked}, \
                     client already dropped blocks below {}",
                    self.acked
                ),
            ));
        }
        self.retire_below(daemon_acked.max(self.acked));
        self.cursor = self.acked;
        self.conn = Some(conn);
        self.ack_buf.clear();
        self.last_progress = Instant::now();
        Ok(())
    }

    /// Drops acked frames off the spill front.
    fn retire_below(&mut self, acked: u64) {
        while self.acked < acked {
            if let Some(front) = self.spill.pop_front() {
                self.spill_bytes -= front.len();
            }
            self.acked += 1;
        }
    }

    /// Sends every not-yet-transmitted spill frame on the live
    /// connection.
    fn send_pending(&mut self) -> io::Result<bool> {
        let mut sent = false;
        while self.cursor < self.next_seq {
            let idx = (self.cursor - self.acked) as usize;
            let Some(frame) = self.spill.get(idx) else {
                break;
            };
            let mut msg = Vec::with_capacity(8 + frame.len());
            msg.extend_from_slice(&self.cursor.to_le_bytes());
            msg.extend_from_slice(frame);
            let conn = self.conn.as_mut().expect("send_pending with live conn");
            conn.write_all(&msg)?;
            self.cursor += 1;
            sent = true;
        }
        if sent {
            self.conn.as_mut().unwrap().flush()?;
        }
        Ok(sent)
    }

    /// Waits up to `wait` for acks; returns whether the acked watermark
    /// advanced.
    fn poll_acks(&mut self, wait: Duration) -> io::Result<bool> {
        let conn = self.conn.as_mut().expect("poll_acks with live conn");
        conn.set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
        self.read_acks()
    }

    /// Retires the acks already buffered on the connection without
    /// waiting for more; returns whether the acked watermark advanced.
    fn drain_acks(&mut self) -> io::Result<bool> {
        let conn = self.conn.as_mut().expect("drain_acks with live conn");
        conn.set_nonblocking(true)?;
        let advanced = self.read_acks()?;
        self.conn
            .as_mut()
            .expect("drain_acks with live conn")
            .set_nonblocking(false)?;
        Ok(advanced)
    }

    /// Reads until a read has returned acks, or until a read would
    /// block or times out; returns whether the acked watermark advanced.
    fn read_acks(&mut self) -> io::Result<bool> {
        let before = self.acked;
        let mut chunk = [0u8; ACK_LEN * 64];
        loop {
            match self.conn.as_mut().unwrap().read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Ok(n) => {
                    self.ack_buf.extend_from_slice(&chunk[..n]);
                    while self.ack_buf.len() >= ACK_LEN {
                        let frame: Vec<u8> = self.ack_buf.drain(..ACK_LEN).collect();
                        let Some((acked, flags)) = decode_ack(&frame) else {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "daemon sent a malformed ack",
                            ));
                        };
                        self.retire_below(acked.max(self.acked));
                        if flags & ACK_FINAL != 0 {
                            self.final_acked = true;
                        }
                    }
                    if self.acked > before || self.final_acked {
                        break;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.acked > before || self.final_acked)
    }

    /// Pumps the wire until `goal` holds, redialing with backoff on
    /// failure. Fails after `retry.max_attempts` consecutive cycles
    /// without ack progress.
    fn pump_until(&mut self, goal: impl Fn(&Self) -> bool) -> io::Result<()> {
        let mut attempts: u32 = 0;
        let mut last_err = io::Error::other("session pump never attempted");
        loop {
            if goal(self) {
                return Ok(());
            }
            if attempts >= self.retry.max_attempts {
                return Err(io::Error::new(
                    last_err.kind(),
                    format!(
                        "giving up on {} after {attempts} attempts (session {}): {last_err}",
                        self.addr, self.session
                    ),
                ));
            }
            if self.conn.is_none() {
                if attempts > 0 {
                    self.backoff_sleep(attempts);
                }
                let had_conn_before = self.reconnects > 0 || self.acked > 0 || self.cursor > 0;
                match self.try_connect() {
                    Ok(()) => {
                        if had_conn_before {
                            self.reconnects += 1;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                    Err(e) => {
                        attempts += 1;
                        last_err = e;
                        continue;
                    }
                }
                continue;
            }
            let step = (|| -> io::Result<bool> {
                let sent = self.send_pending()?;
                let acked = self.poll_acks(ACK_POLL)?;
                Ok(sent || acked)
            })();
            match step {
                Ok(true) => {
                    attempts = 0;
                    self.last_progress = Instant::now();
                }
                Ok(false) => {
                    if self.last_progress.elapsed() > self.io_timeout {
                        // Alive socket, silent daemon: treat as dead.
                        self.drop_conn();
                        attempts += 1;
                        last_err = io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no ack progress within the io timeout",
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => {
                    self.drop_conn();
                    attempts += 1;
                    last_err = e;
                }
            }
        }
    }

    fn enqueue(&mut self, frame: Vec<u8>) {
        self.spill_bytes += frame.len();
        self.spill.push_back(frame);
        self.next_seq += 1;
    }
}

impl Write for SessionClient {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut completed = false;
        for frame in self.splitter.push(buf)? {
            self.enqueue(frame);
            completed = true;
        }
        // Opportunistic pump: push the completed frames and retire the
        // acks already buffered, never waiting for more...
        if completed && self.conn.is_some() {
            let step = (|| -> io::Result<()> {
                self.send_pending()?;
                self.drain_acks()?;
                Ok(())
            })();
            if step.is_err() {
                self.drop_conn();
            }
        }
        // ...unless the spill is over its cap: then block (with the
        // full retry loop) until the daemon drains it.
        if self.spill_bytes > self.spill_limit {
            let limit = self.spill_limit;
            self.pump_until(|c| c.spill_bytes <= limit)?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.splitter.ended {
            self.pump_until(|c| c.final_acked)
        } else {
            self.pump_until(|c| c.conn.is_some())?;
            self.conn.as_mut().unwrap().flush()
        }
    }
}

fn default_session_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!("s{:x}-{:x}", nanos, std::process::id())
}

fn default_dialer(io_timeout: Duration) -> Dialer {
    Box::new(move |addr: &str| {
        if addr.strip_prefix("unix:").is_none() {
            // TCP: bounded connect + write timeouts.
            use std::net::{TcpStream, ToSocketAddrs};
            let target = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved empty"))?;
            let stream = TcpStream::connect_timeout(&target, io_timeout)?;
            stream.set_write_timeout(Some(io_timeout))?;
            return Ok(Box::new(AnyStream::Tcp(stream)) as Box<dyn Conn>);
        }
        let stream = connect_any(addr).map_err(|e| io::Error::other(e.to_string()))?;
        stream.set_write_timeout_opt(Some(io_timeout))?;
        Ok(Box::new(stream) as Box<dyn Conn>)
    })
}

/// Connects a resumable session to a daemon, returning a [`Write`]
/// sink for [`crate::Process::stream_trace_to`]. The initial dial
/// retries per the policy; afterwards every write transparently
/// survives connection loss until the retry budget is exhausted.
///
/// # Errors
///
/// [`HeapMdError::InvalidInput`] for a bad tenant or session id,
/// [`HeapMdError::Io`] when the daemon stays unreachable through the
/// whole retry budget.
pub fn connect_session(
    addr: &str,
    tenant: &str,
    opts: SessionOptions,
) -> Result<SessionClient, HeapMdError> {
    if !valid_tenant(tenant) {
        return Err(HeapMdError::InvalidInput(format!(
            "invalid tenant name {tenant:?} (want 1-64 chars of [A-Za-z0-9._:-])"
        )));
    }
    if let Some(session) = &opts.session {
        if !super::session::valid_session(session) {
            return Err(HeapMdError::InvalidInput(format!(
                "invalid session id {session:?} (want 1-32 chars of [A-Za-z0-9._:-])"
            )));
        }
    }
    let mut client = SessionClient::new(addr, tenant, opts);
    client.pump_until(|c| c.conn.is_some() || c.final_acked)?;
    Ok(client)
}

/// Pushes a recorded trace through a resumable session, surviving
/// connection loss, daemon restarts (with a journal), and injected
/// network faults as long as the retry budget holds out. Returns the
/// number of events sent and the reconnect count.
///
/// # Errors
///
/// Same as [`connect_session`], plus encode/transport failures after
/// the retry budget is spent.
pub fn push_trace_resumable(
    addr: &str,
    tenant: &str,
    trace: &Trace,
    opts: SessionOptions,
) -> Result<(u64, u64), HeapMdError> {
    let client = connect_session(addr, tenant, opts)?;
    let mut writer = BinaryTraceWriter::new(io::BufWriter::new(client))?;
    // The daemon checks events as they arrive: the sampling schedule
    // and the function table go first.
    trace.write_blocks(&mut writer)?;
    let mut buf = writer.finish()?;
    buf.flush()?;
    let client = buf
        .into_inner()
        .map_err(|e| HeapMdError::Io(io::Error::other(e.to_string())))?;
    Ok((trace.len() as u64, client.reconnects()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_codec::EVENTS_PER_BLOCK;
    use sim_heap::HeapEvent;

    #[test]
    fn splitter_reassembles_writer_frames() {
        // Encode a two-block trace (events + functions + index) and
        // feed it through the splitter in awkward chunk sizes.
        let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
        for i in 0..(EVENTS_PER_BLOCK + 3) {
            w.write_event(&HeapEvent::Alloc {
                obj: sim_heap::ObjectId(i as u64),
                addr: sim_heap::Addr::new(0x1000 + i as u64 * 16),
                size: 16,
                site: sim_heap::AllocSite(1),
            })
            .unwrap();
        }
        w.write_functions(&["main".to_string()]).unwrap();
        let bytes = w.finish().unwrap();

        for chunk in [1usize, 7, 64, 4096] {
            let mut sp = BlockSplitter::new();
            let mut frames = Vec::new();
            for part in bytes.chunks(chunk) {
                frames.extend(sp.push(part).unwrap());
            }
            assert!(sp.ended, "chunk {chunk}: index frame seen");
            let total: usize = frames.iter().map(Vec::len).sum();
            assert_eq!(
                total,
                bytes.len() - HEADER_LEN,
                "chunk {chunk}: frames cover everything but the header"
            );
            assert_eq!(frames.len(), 4, "events x2 + functions + index+footer");
            let reassembled: Vec<u8> = bytes[..HEADER_LEN]
                .iter()
                .copied()
                .chain(frames.iter().flatten().copied())
                .collect();
            assert_eq!(reassembled, bytes, "chunk {chunk}: byte-identical");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_session_dependent() {
        let a: Vec<u64> = {
            let mut j = Jitter::new("web", "s1");
            (0..4).map(|_| j.next()).collect()
        };
        let b: Vec<u64> = {
            let mut j = Jitter::new("web", "s1");
            (0..4).map(|_| j.next()).collect()
        };
        let c: Vec<u64> = {
            let mut j = Jitter::new("web", "s2");
            (0..4).map(|_| j.next()).collect()
        };
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "different session, different stream");
    }

    #[test]
    fn retire_below_tracks_spill_bytes() {
        let mut c = SessionClient::new("127.0.0.1:1", "t", SessionOptions::default());
        c.enqueue(vec![0u8; 10]);
        c.enqueue(vec![0u8; 20]);
        c.enqueue(vec![0u8; 30]);
        assert_eq!(c.spill_bytes, 60);
        c.retire_below(2);
        assert_eq!(c.acked, 2);
        assert_eq!(c.spill_bytes, 30);
        c.retire_below(2); // idempotent
        assert_eq!(c.spill_bytes, 30);
    }
}
