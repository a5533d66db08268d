//! `heapmd serve`: a long-running fleet daemon that ingests concurrent
//! binary trace streams from many processes and checks each tenant
//! against a calibrated model.
//!
//! # Architecture
//!
//! ```text
//!  client ──HMDSERVE2 tenant sess acked\n──┐
//!  client ──seq-prefixed .hmdt blocks──────┤ accept loop ──▶ one thread per connection
//!         ◀── HMAK acks ────────────────────┘      │             │ journal, then check
//!                                                  ▼             ▼
//!                                             FleetRegistry ◀── session: stream check + model
//!                                                  │                          │
//!                    HTTP /metrics /fleet.tsv /fleet.jsonl /shutdown     IncidentLog
//! ```
//!
//! - **Wire format.** A connection opens with `HMDSERVE2 <tenant>
//!   <session> <acked>\n`, which attaches (or re-attaches) a client
//!   session. The `.hmdt` blocks follow: the same length-framed,
//!   CRC-checked block codec that `run --trace-out` writes to disk, each
//!   block prefixed with a `u64` sequence number. Frames decode through
//!   [`crate::WireReader`], and one forwarder applies each to the
//!   session's check, for the live connection and journal recovery
//!   alike. The daemon acknowledges
//!   journaled blocks back on the same socket, so a client that loses
//!   its connection reconnects and resumes from the first unacked
//!   block. Structural damage drops the connection but keeps the
//!   session; a session left disconnected past
//!   [`ServeConfig::session_timeout`] evicts exactly its tenant
//!   (salvaging the prefix received so far into a partial verdict first),
//!   never the daemon. See [`session`] for the protocol and crash-only
//!   recovery.
//! - **One owner per stream.** Each connection has its own thread, and
//!   it checks every block it reads before it reads the next, so TCP
//!   flow control keeps a fast client behind the daemon. A tenant's
//!   check lives in its session entry: whichever thread owns the stream
//!   (the connection, journal recovery, the expiry sweeper, a
//!   superseding session, shutdown) feeds or closes it under the
//!   entry's lock.
//! - **Verdicts.** Each tenant's session holds one live check, the stream
//!   check `heapmd check` runs over a trace file: a resumable replayer
//!   with an [`crate::AnomalyDetector`] attached, the same pair `run
//!   --model` drives, fed block by block as the stream arrives. Nothing
//!   is buffered or checked twice: per-tenant state that grows with the
//!   stream is the sample series (one point per `frq` function entries,
//!   kept for run-store rows). The detector
//!   skips the warm-up the model records, which needs no stream
//!   length, so the verdict a tenant's stream closes with — cleanly,
//!   evicted, or at shutdown — is bit-identical to `heapmd check` on
//!   the same trace or prefix, with incident bundles captured into a
//!   per-tenant [`IncidentLog`] directory. Each tenant checks against
//!   the shared model, or its own override from
//!   [`ServeConfig::model_dir`].
//! - **Metadata before events.** Checking as events arrive needs the
//!   sampling schedule and the function names first, so clients send
//!   the sampling meta frame and the function table ahead of the
//!   events that need them (`push` sends both first; a streaming
//!   [`crate::Process`] re-sends its whole table whenever it interns a
//!   new name). An events block naming a function outside the table
//!   received so far fails the tenant with an
//!   [`HeapMdError::InvalidInput`] error; a sampling meta frame after
//!   the first events block evicts it as malformed (its prefix's
//!   verdict is kept).
//! - **Shutdown.** The toolchain forbids `unsafe`, so there is no
//!   signal handler; graceful shutdown arrives via the HTTP control
//!   endpoint (`GET /shutdown`) or [`Server::shutdown`]. Both set the
//!   flag and unpark the sweeper of expired sessions; [`Server::wait`]
//!   then wakes each listener blocked in `accept` by a connection to
//!   itself, and finishes without waiting on a wake that cannot land.
//!   In-flight streams check whatever the kernel already buffered, the
//!   prefixes are finalized as partial verdicts, every incident bundle
//!   flushed, and the final Prometheus dump written. Session journals survive
//!   shutdown untouched, so a restarted daemon replays them and lets
//!   clients resume mid-stream.

pub mod client;
pub mod session;

use crate::bug::BugReport;
use crate::detector::{Band, BandPolicy};
use crate::error::HeapMdError;
use crate::incident::IncidentLog;
use crate::model::HeapModel;
use crate::run_rows::{rows_from_samples, unix_time_now, RowSource};
use crate::trace::{Replayer, StreamCheck};
use heap_graph::{ApplyError, MetricKind};
use heapmd_obs::fleet::{
    FleetRegistry, MetricGauge, MetricVerdict, TenantStats, STATUS_NEAR_EDGE, STATUS_OK, STATUS_OUT,
};
use heapmd_runstore::{RowKind, RunStore};
use sim_heap::HeapEvent;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};
use swat::{SamplerConfig, SamplingInfo};

pub use client::{
    connect_session, push_trace_resumable, Conn, Dialer, RetryPolicy, SessionClient, SessionOptions,
};
pub use session::SERVE_PREAMBLE_V2;

/// Pause after a failed `accept` (out of descriptors, say), so a
/// listener that keeps failing does not spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);
/// Read timeout on ingest sockets: the latency with which a blocked
/// connection handler notices the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);
/// Window over which per-tenant ingest rates are computed.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Longest accepted preamble line (token + 64-char tenant + 32-char
/// session id + a 20-digit ack, space-separated).
const MAX_PREAMBLE: usize = 160;
/// How often the sweeper looks for expired disconnected sessions.
const SWEEP_PERIOD: Duration = Duration::from_millis(500);
/// How long a shutdown wake waits for its listener to take the
/// connection, and how long [`Server::wait`] waits for the listener
/// threads to end before it leaves one whose wake went astray.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Whether `name` is a valid tenant name: 1–64 bytes of
/// `[A-Za-z0-9._:-]`. The restriction keeps names safe as label
/// values, file names, and TSV cells.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b':' | b'-'))
}

// ---------------------------------------------------------------------
// Transport: TCP or Unix sockets behind one façade
// ---------------------------------------------------------------------

enum AnyListener {
    Tcp(TcpListener),
    /// With the identity of the socket file it bound.
    #[cfg(unix)]
    Unix(UnixListener, SocketFileId),
}

impl AnyListener {
    /// Binds `spec`: `unix:<path>` for a Unix socket (replacing a stale
    /// socket file), anything else as a TCP `host:port`. Returns the
    /// listener and its resolved address string.
    fn bind(spec: &str) -> io::Result<(AnyListener, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                let id = socket_file_id(path.as_ref())?;
                return Ok((AnyListener::Unix(listener, id), spec.to_string()));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            ));
        }
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?.to_string();
        Ok((AnyListener::Tcp(listener), addr))
    }

    /// Blocks for the next connection.
    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| AnyStream::Tcp(s)),
            #[cfg(unix)]
            AnyListener::Unix(l, _) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }

    /// Where the daemon itself reaches this listener to wake its
    /// blocked `accept`.
    fn waker(&self) -> io::Result<WakeTarget> {
        match self {
            AnyListener::Tcp(l) => Ok(WakeTarget::Tcp(loopback_if_unspecified(l.local_addr()?))),
            #[cfg(unix)]
            AnyListener::Unix(l, id) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "unnamed unix socket")
                })?;
                Ok(WakeTarget::Unix(path.to_path_buf(), *id))
            }
        }
    }
}

/// The device and inode of a socket file: whether the file at a path is
/// still the one a listener bound.
#[cfg(unix)]
type SocketFileId = (u64, u64);

#[cfg(unix)]
fn socket_file_id(path: &std::path::Path) -> io::Result<SocketFileId> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path)?;
    Ok((meta.dev(), meta.ino()))
}

/// A listening address the daemon connects to at shutdown, so the
/// thread blocked in its `accept` returns and sees the flag.
enum WakeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf, SocketFileId),
}

impl WakeTarget {
    /// Connects and hangs up at once. A unix path is connected to only
    /// while it still names the socket file the listener bound: once
    /// another daemon rebinds the path, or the file is deleted, the
    /// listener cannot be reached, and another daemon must not take
    /// the wake for a client.
    fn wake(&self) {
        let _ = match self {
            WakeTarget::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).map(drop),
            #[cfg(unix)]
            WakeTarget::Unix(path, id) => match socket_file_id(path) {
                Ok(now) if now == *id => UnixStream::connect(path).map(drop),
                _ => Ok(()),
            },
        };
    }
}

/// `addr`, with an unspecified IP (a bind to every interface) replaced
/// by the loopback address of the same family.
fn loopback_if_unspecified(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// The daemon's stop signal: the flag every thread polls, the condition
/// [`Server::wait`] sleeps on until it flips, and the sweeper parked
/// between sweeps, which it unparks. The listeners blocked in `accept`
/// are woken by [`Server::wait`].
#[derive(Default)]
pub(crate) struct Shutdown {
    flag: AtomicBool,
    lock: Mutex<()>,
    flipped: Condvar,
    sweeper: OnceLock<Thread>,
}

impl Shutdown {
    /// Whether shutdown was requested.
    pub(crate) fn requested(&self) -> bool {
        self.flag.load(SeqCst)
    }

    /// Sets the flag, unparks the sweeper and wakes [`Server::wait`].
    fn request(&self) {
        self.flag.store(true, SeqCst);
        if let Some(sweeper) = self.sweeper.get() {
            sweeper.unpark();
        }
        let _guard = self.lock.lock().unwrap();
        self.flipped.notify_all();
    }

    /// Blocks until shutdown is requested.
    fn wait(&self) {
        let mut guard = self.lock.lock().unwrap();
        while !self.requested() {
            guard = self.flipped.wait(guard).unwrap();
        }
    }
}

pub(crate) enum AnyStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl AnyStream {
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Bounds every read so a blocked handler can notice the shutdown
    /// flag without the socket being torn down under it.
    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        self.set_read_timeout_opt(Some(dur))
    }

    pub(crate) fn set_read_timeout_opt(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout_opt(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.set_write_timeout(dur),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

/// Read adapter that turns the shutdown flag into a clean end of
/// stream. While the daemon runs, read timeouts simply retry; once
/// shutdown is flagged, bytes the kernel already buffered still read
/// out normally and the first timeout after that reports EOF. Handlers
/// therefore salvage everything the client managed to send — force
/// closing the socket instead would discard the buffered tail.
pub(crate) struct DrainingStream {
    inner: AnyStream,
    shutdown: Arc<Shutdown>,
}

impl Read for DrainingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.requested() {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

impl Write for DrainingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            AnyStream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Configuration and outcomes
// ---------------------------------------------------------------------

/// Daemon configuration (transport addresses travel separately, see
/// [`Server::start`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shared calibrated model tenants check against by default.
    pub model: HeapModel,
    /// Root directory for per-tenant incident bundles (one
    /// subdirectory per tenant), if incident capture is on.
    pub incident_dir: Option<PathBuf>,
    /// Where the final Prometheus dump (registry + fleet section) is
    /// written at shutdown.
    pub prom_dump: Option<PathBuf>,
    /// Directory of per-tenant session journals (`<tenant>.hmdt` +
    /// `<tenant>.session.json`). With a journal, sessions are
    /// crash-only recoverable across daemon restarts; without one they
    /// still resume across reconnects within a daemon's lifetime.
    pub journal_dir: Option<PathBuf>,
    /// Directory of per-tenant model overrides: `<tenant>.hmdm` checks
    /// that tenant instead of the shared model.
    pub model_dir: Option<PathBuf>,
    /// How long a disconnected, incomplete session is held for
    /// resumption before it is evicted (its prefix salvaged
    /// into a partial verdict).
    pub session_timeout: Duration,
    /// Columnar run-store directory: every finalized tenant verdict
    /// appends its replayed sample series as `kind="serve"` rows.
    pub run_store: Option<PathBuf>,
    /// Daemon-side production-overhead mode: full-fidelity tenant
    /// streams are re-sampled at ingest, from their first events block
    /// on, through the adaptive filter, so the live gauges and the
    /// check both see the filtered stream (streams whose sampling meta
    /// frame precedes their events keep their recorded schedule —
    /// re-decimating would double-drop).
    pub sampler: Option<SamplerConfig>,
}

impl ServeConfig {
    /// Defaults: no incident capture, no final dump, no journal or model
    /// override directory, 30 s session timeout.
    pub fn new(model: HeapModel) -> Self {
        ServeConfig {
            model,
            incident_dir: None,
            prom_dump: None,
            journal_dir: None,
            model_dir: None,
            session_timeout: Duration::from_secs(30),
            run_store: None,
            sampler: None,
        }
    }
}

/// How one tenant's stream ended.
#[derive(Debug)]
pub struct TenantOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Events received.
    pub events: u64,
    /// The detector's verdict (bit-identical to `check` on the same
    /// trace when the stream completed cleanly).
    pub bugs: Vec<BugReport>,
    /// Incident bundles flushed for this tenant.
    pub bundle_paths: Vec<PathBuf>,
    /// The stream never reached its index/footer; the verdict covers
    /// the prefix received (shutdown, or an eviction mid-stream).
    pub partial: bool,
    /// Why the tenant was kicked, when it was. Eviction still salvages
    /// the prefix received: `bugs`/`bundle_paths` cover it.
    pub evicted: Option<String>,
    /// Why the stream was refused (an event naming a function outside
    /// the table received so far); the outcome then has no verdict.
    pub error: Option<String>,
}

/// Everything the daemon produced over its lifetime.
#[derive(Debug, Default)]
pub struct ServeSummary {
    /// Final outcome per tenant (a reconnecting tenant keeps its last).
    pub tenants: BTreeMap<String, TenantOutcome>,
    /// Set when the final Prometheus dump could not be written; the
    /// CLI turns this into a typed warning and a distinct exit code.
    pub prom_dump_error: Option<String>,
}

// ---------------------------------------------------------------------
// Tenant checks
// ---------------------------------------------------------------------

/// One tenant stream's live check, owned by its session entry
/// ([`session::SessionEntry::check`]) and fed under the entry's lock
/// by whichever thread owns the stream.
pub(crate) struct TenantCheck {
    stats: Arc<TenantStats>,
    model: Arc<HeapModel>,
    /// The tenant's check, fed block by block as the stream arrives:
    /// the same state `heapmd check` holds for a trace. Its sample
    /// series is kept for run-store rows.
    check: StreamCheck,
    /// Samples already folded into the live gauges.
    gauged: usize,
    /// Per stable metric: was the last live sample out of range.
    last_out: Vec<bool>,
    window_start: Instant,
    window_events: u64,
}

impl TenantCheck {
    /// A fresh check of `tenant`'s stream against its model, over a
    /// recycled replayer when the daemon has one.
    fn new(ctx: &ServeCtx, tenant: &str, stats: Arc<TenantStats>) -> Self {
        let model = ctx.model_for(tenant);
        let pooled = ctx.replayers.lock().unwrap().pop();
        let replayer = match pooled {
            Some(mut r) => {
                r.reset(model.settings.clone(), &[]);
                heapmd_obs::count!("serve_replayer_pool_reuse_total");
                r
            }
            None => Replayer::new(model.settings.clone(), &[]),
        };
        let mut check = StreamCheck::new(Some((*model).clone()), replayer, ctx.sampler);
        if let Some(dir) = &ctx.incident_dir {
            // Tenant names are charset-validated (no separators), so
            // they are safe as directory names.
            check.log_incidents_to(IncidentLog::new(dir.join(tenant), tenant.to_string()));
        }
        stats.set_verdicts(verdicts_for(&model));
        TenantCheck {
            stats,
            last_out: vec![false; model.stable.len()],
            model,
            check,
            gauged: 0,
            window_start: Instant::now(),
            window_events: 0,
        }
    }

    /// Records the sampling outcome the stream announced.
    fn set_sampling(&mut self, info: SamplingInfo) {
        self.check.set_sampling(info);
        self.stats.set_sample_rate(info.rate());
    }

    /// Checks the next events block and updates the live gauges and
    /// the windowed ingest rate.
    ///
    /// # Errors
    ///
    /// The block's event the heap graph could not apply (see
    /// [`StreamCheck::feed`]).
    fn feed(&mut self, events: &[HeapEvent]) -> Result<(), ApplyError> {
        let n = events.len() as u64;
        let clock = heapmd_obs::throughput::stage_clock();
        let applied = self.check.feed(events);
        if let Some(t0) = clock {
            heapmd_obs::throughput::record_stage("serve_ingest", n, t0.elapsed().as_nanos() as u64);
        }
        self.stats.record_events(n);
        self.stats.set_sample_rate(self.check.effective_rate());
        if self.check.samples().len() > self.gauged {
            update_live(self);
        }
        self.window_events += n;
        let elapsed = self.window_start.elapsed();
        if elapsed >= RATE_WINDOW {
            let rate =
                (self.window_events as u128 * 1_000_000_000 / elapsed.as_nanos().max(1)) as u64;
            self.stats.set_rate(rate);
            self.window_start = Instant::now();
            self.window_events = 0;
        }
        applied
    }
}

/// Folds the samples taken since the last update into the tenant's
/// gauges: latest value/distance/status per calibrated metric,
/// range-crossing transitions, and the advisory arm flag (near-edge or
/// out; the detector's own arming also needs an adverse slope). A
/// gauge is labelled with its metric's short name.
fn update_live(t: &mut TenantCheck) {
    let samples = &t.check.samples()[t.gauged..];
    let model = &t.model;
    let stable = &model.stable;
    for _ in samples {
        t.stats.record_sample();
    }
    // The detector's bands, for the stream's sampling rate (recorded,
    // or measured by the daemon's live filter).
    let policy = BandPolicy::new(model.sample_rate, t.check.effective_rate(), &model.settings);
    let mut gauges = Vec::with_capacity(stable.len());
    let mut crossings = 0u64;
    let mut armed = false;
    for (slot, sm) in stable.iter().enumerate() {
        let Band { lo, hi, near } = policy.band(sm.min, sm.max);
        let mut was_out = t.last_out[slot];
        let (mut value, mut distance, mut status) = (0.0, 0.0, STATUS_OK);
        for sample in samples {
            let v = sample.metric(sm.kind);
            let out = v < lo || v > hi;
            if out && !was_out {
                crossings += 1;
            }
            was_out = out;
            value = v;
            distance = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            status = if out {
                STATUS_OUT
            } else if v >= hi - near || v <= lo + near {
                STATUS_NEAR_EDGE
            } else {
                STATUS_OK
            };
        }
        t.last_out[slot] = was_out;
        armed |= status != STATUS_OK;
        gauges.push(MetricGauge {
            metric: sm.kind.short_name().to_string(),
            value,
            distance,
            band: hi - lo,
            status,
        });
    }
    if crossings > 0 {
        t.stats.add_crossings(crossings);
    }
    t.stats.set_armed(armed);
    t.stats.set_metrics(gauges);
    t.gauged = t.check.samples().len();
}

/// The per-metric calibration verdicts a tenant's model implies, one
/// per paper metric.
fn verdicts_for(model: &HeapModel) -> Vec<MetricVerdict> {
    MetricKind::ALL
        .into_iter()
        .map(|k| MetricVerdict {
            metric: k.id().to_string(),
            stable: model.is_stable(k),
        })
        .collect()
}

/// Replayers the daemon keeps warm for reuse; beyond this, finished
/// streams' replayers are dropped instead of pooled.
const REPLAYER_POOL_CAP: usize = 8;

// ---------------------------------------------------------------------
// Shared connection-handling context
// ---------------------------------------------------------------------

/// Everything a connection handler needs, bundled so the accept loop
/// clones one `Arc`: the sessions (each holding its tenant's check),
/// what every verdict shares, and the outcomes of the closed streams.
pub(crate) struct ServeCtx {
    pub(crate) fleet: Arc<FleetRegistry>,
    pub(crate) shutdown: Arc<Shutdown>,
    pub(crate) model: Arc<HeapModel>,
    pub(crate) model_dir: Option<PathBuf>,
    pub(crate) journal_dir: Option<PathBuf>,
    pub(crate) session_timeout: Duration,
    pub(crate) sessions: Mutex<BTreeMap<String, Arc<Mutex<session::SessionEntry>>>>,
    model_cache: Mutex<BTreeMap<String, Arc<HeapModel>>>,
    incident_dir: Option<PathBuf>,
    /// One store for every tenant: appends are segment-atomic and
    /// serialized behind the store's own lock.
    run_store: Option<RunStore>,
    sampler: Option<SamplerConfig>,
    /// Recycled replayers: a finished stream's replayer comes back here
    /// (graph slabs and shadow pages intact) and the next fresh session
    /// reuses it instead of allocating cold.
    replayers: Mutex<Vec<Replayer>>,
    /// Every closed stream's outcome, in the order the verdicts closed.
    outcomes: Mutex<Vec<TenantOutcome>>,
    /// The connection threads still running, until [`Server::wait`]
    /// takes them to join them (`None` after).
    conns: Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl ServeCtx {
    /// The context for `config`, with the run store (if any) opened.
    fn new(config: ServeConfig) -> Result<ServeCtx, HeapMdError> {
        let run_store = match &config.run_store {
            Some(dir) => Some(RunStore::open(dir).map_err(|e| match e {
                heapmd_runstore::StoreError::Io(io) => HeapMdError::from(io),
                other => HeapMdError::InvalidInput(other.to_string()),
            })?),
            None => None,
        };
        Ok(ServeCtx {
            fleet: Arc::new(FleetRegistry::new()),
            shutdown: Arc::new(Shutdown::default()),
            model: Arc::new(config.model),
            model_dir: config.model_dir,
            journal_dir: config.journal_dir,
            session_timeout: config.session_timeout,
            sessions: Mutex::new(BTreeMap::new()),
            model_cache: Mutex::new(BTreeMap::new()),
            incident_dir: config.incident_dir,
            run_store,
            sampler: config.sampler,
            replayers: Mutex::new(Vec::new()),
            outcomes: Mutex::new(Vec::new()),
            conns: Mutex::new(Some(Vec::new())),
        })
    }

    /// Resolves the model `tenant` checks against: `<model_dir>/
    /// <tenant>.hmdm` when present and loadable, else the shared model.
    /// Resolution is cached for the daemon's lifetime.
    pub(crate) fn model_for(&self, tenant: &str) -> Arc<HeapModel> {
        let Some(dir) = &self.model_dir else {
            return Arc::clone(&self.model);
        };
        if let Some(m) = self.model_cache.lock().unwrap().get(tenant) {
            return Arc::clone(m);
        }
        let path = dir.join(format!("{tenant}.hmdm"));
        let model = if path.exists() {
            match HeapModel::load(&path) {
                Ok(m) => Arc::new(m),
                Err(e) => {
                    // A present-but-unloadable override falls back to
                    // the shared model rather than rejecting the tenant.
                    heapmd_obs::export::emit_event("tenant_model_error", |o| {
                        o.field_str("tenant", tenant)
                            .field_str("error", &e.to_string());
                    });
                    Arc::clone(&self.model)
                }
            }
        } else {
            Arc::clone(&self.model)
        };
        self.model_cache
            .lock()
            .unwrap()
            .insert(tenant.to_string(), Arc::clone(&model));
        model
    }

    /// Finishes the tenant's check over what it received, closes its
    /// books, recycles its replayer, deletes `cleanup` (its journal)
    /// once the verdict is in, and records the outcome. An evicted
    /// tenant still gets its prefix's verdict (partial, with incident
    /// bundles): eviction changes how the outcome is labeled, not
    /// whether evidence is kept.
    fn finalize(
        &self,
        tenant: &str,
        mut t: TenantCheck,
        partial: bool,
        evicted: Option<String>,
        cleanup: &[PathBuf],
    ) {
        if evicted.is_some() {
            t.stats.set_evicted();
        }
        t.stats.set_rate(0);
        let events = t.check.events();
        let (bugs, bundle_paths, error) = match t.check.finish() {
            Err(e) => (Vec::new(), Vec::new(), Some(e.to_string())),
            Ok(checked) => {
                let bundle_paths = t.check.bundle_paths().to_vec();
                t.stats.record_bugs(checked.bugs.len() as u64);
                t.stats.add_incidents(bundle_paths.len() as u64);
                if let Some(b) = checked.bugs.first() {
                    t.stats.set_last_anomaly(&format!(
                        "{} {}",
                        b.metric.short_name(),
                        b.kind.slug()
                    ));
                }
                if let Some(store) = &self.run_store {
                    let src = RowSource {
                        workload: t.model.program.clone(),
                        version: 0,
                        run: tenant.to_string(),
                        tenant: tenant.to_string(),
                        kind: RowKind::Serve,
                        time: unix_time_now(),
                        sample_rate: checked.sampling.map_or(1.0, |s| s.rate()),
                    };
                    let rows = rows_from_samples(&src, &checked.samples);
                    if let Err(e) = store.append(&rows) {
                        // The verdict is authoritative; a failed append
                        // is a degraded observability plane, not a
                        // failed tenant.
                        heapmd_obs::error!("run-store append for tenant {tenant} failed: {e}");
                    } else {
                        heapmd_obs::count!("serve_run_store_rows_total", rows.len() as u64);
                    }
                }
                (checked.bugs, bundle_paths, None)
            }
        };
        // The verdict is in: the fleet row reads `done` from here on.
        t.stats.set_connected(false);
        let outcome = TenantOutcome {
            tenant: tenant.to_string(),
            events,
            bugs,
            bundle_paths,
            partial,
            evicted,
            error,
        };
        {
            let mut pool = self.replayers.lock().unwrap();
            if pool.len() < REPLAYER_POOL_CAP {
                pool.push(t.check.into_replayer());
            }
        }
        for path in cleanup {
            let _ = std::fs::remove_file(path);
        }
        heapmd_obs::export::emit_event("tenant_verdict", |o| {
            o.field_str("tenant", &outcome.tenant)
                .field_u64("events", outcome.events)
                .field_u64("bugs", outcome.bugs.len() as u64)
                .field_bool("partial", outcome.partial);
        });
        self.outcomes.lock().unwrap().push(outcome);
    }

    /// Finalizes every session that still holds a check as partial —
    /// streams that never sent their end frame — keeping its journal so
    /// a restarted daemon can pick the session back up, and returns
    /// every outcome in the order the verdicts closed. Runs once no
    /// connection handler is left.
    fn finish(&self) -> Vec<TenantOutcome> {
        let open: Vec<(String, TenantCheck)> = self
            .sessions
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(tenant, entry)| {
                Some((tenant.clone(), entry.lock().unwrap().check.take()?))
            })
            .collect();
        for (tenant, t) in open {
            self.finalize(&tenant, t, true, None, &[]);
        }
        std::mem::take(&mut *self.outcomes.lock().unwrap())
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// A parsed connection preamble line.
struct Preamble {
    tenant: String,
    session: String,
    acked: u64,
}

/// Reads and validates the preamble:
/// `HMDSERVE2 <tenant> <session> <acked>\n`.
fn read_preamble(stream: &mut impl Read) -> Option<Preamble> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while line.len() < MAX_PREAMBLE {
        stream.read_exact(&mut byte).ok()?;
        if byte[0] == b'\n' {
            let text = std::str::from_utf8(&line).ok()?;
            let mut parts = text
                .strip_prefix(SERVE_PREAMBLE_V2)?
                .strip_prefix(' ')?
                .split(' ');
            let tenant = parts.next()?;
            let session = parts.next()?;
            let acked = parts.next()?.parse::<u64>().ok()?;
            if parts.next().is_some() || !valid_tenant(tenant) || !session::valid_session(session) {
                return None;
            }
            return Some(Preamble {
                tenant: tenant.to_string(),
                session: session.to_string(),
                acked,
            });
        }
        line.push(byte[0]);
    }
    None
}

fn handle_conn(stream: AnyStream, ctx: Arc<ServeCtx>) {
    let _ = stream.set_read_timeout(READ_POLL);
    let mut stream = DrainingStream {
        inner: stream,
        shutdown: Arc::clone(&ctx.shutdown),
    };
    match read_preamble(&mut stream) {
        Some(Preamble {
            tenant,
            session,
            acked,
        }) => session::handle_v2(stream, tenant, session, acked, &ctx),
        None => {
            // EOF during shutdown is the daemon going away, not a
            // client speaking the wrong protocol.
            if !ctx.shutdown.requested() {
                ctx.fleet.record_protocol_error();
            }
        }
    }
}

/// Accepts ingest connections, one thread each, until shutdown: the
/// wake connection [`Server::wait`] makes is dropped unserved, and so is
/// any connection accepted after `wait` took the connection threads.
fn accept_loop(listener: AnyListener, ctx: Arc<ServeCtx>) {
    loop {
        let accepted = listener.accept();
        if ctx.shutdown.requested() {
            return;
        }
        match accepted {
            Ok(stream) => {
                heapmd_obs::count!("heapmd_serve_connections_total");
                let mut conns = ctx.conns.lock().unwrap();
                let Some(handles) = conns.as_mut() else {
                    return;
                };
                let ctx = Arc::clone(&ctx);
                let handle = std::thread::spawn(move || handle_conn(stream, ctx));
                track_conn(handles, handle);
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Adds a connection thread to `handles` after joining those that have
/// finished, so a long-lived daemon holds one handle per connection
/// still open, not one per connection it ever accepted.
fn track_conn(handles: &mut Vec<JoinHandle<()>>, handle: JoinHandle<()>) {
    for done in handles.extract_if(.., |h| h.is_finished()) {
        let _ = done.join();
    }
    handles.push(handle);
}

// ---------------------------------------------------------------------
// HTTP control endpoint
// ---------------------------------------------------------------------

fn handle_http(stream: &mut TcpStream, fleet: &FleetRegistry, shutdown: &Shutdown) {
    let mut buf = [0u8; 2048];
    let mut n = 0;
    loop {
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => {
                n += k;
                if n == buf.len() || buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, ctype, body) = match path {
        "/metrics" => (200, "text/plain; version=0.0.4", {
            let mut text = heapmd_obs::export::prometheus_text();
            text.push_str(&fleet.prometheus_text());
            text
        }),
        "/fleet.tsv" => (200, "text/tab-separated-values", fleet.tsv()),
        "/fleet.jsonl" => (200, "application/x-ndjson", fleet.firehose_jsonl()),
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/shutdown" => {
            shutdown.request();
            (200, "text/plain", "shutting down\n".to_string())
        }
        _ => (404, "text/plain", "not found\n".to_string()),
    };
    let reason = if status == 200 { "OK" } else { "Not Found" };
    let _ = write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Serves control requests one at a time until shutdown, whose wake
/// connection it drops unserved, as the ingest accept loop does.
fn http_loop(listener: TcpListener, fleet: Arc<FleetRegistry>, shutdown: Arc<Shutdown>) {
    loop {
        let accepted = listener.accept();
        if shutdown.requested() {
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
                handle_http(&mut stream, &fleet, &shutdown);
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Evicts expired disconnected sessions every [`SWEEP_PERIOD`] until
/// shutdown, which unparks it.
fn sweep_loop(ctx: Arc<ServeCtx>) {
    loop {
        std::thread::park_timeout(SWEEP_PERIOD);
        if ctx.shutdown.requested() {
            return;
        }
        session::sweep_expired(&ctx);
    }
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// A running fleet daemon. Construct with [`Server::start`]; block on
/// [`Server::wait`]; stop via [`Server::shutdown`] or the HTTP
/// `/shutdown` endpoint.
pub struct Server {
    ingest_addr: String,
    http_addr: String,
    ctx: Arc<ServeCtx>,
    accept: JoinHandle<()>,
    http: JoinHandle<()>,
    /// Where `wait` connects to wake the two listener threads.
    wakers: Vec<WakeTarget>,
    /// Disconnects once both listener threads have ended: no thread
    /// ever sends on it.
    listeners_ended: mpsc::Receiver<()>,
    sweeper: JoinHandle<()>,
    prom_dump: Option<PathBuf>,
}

impl Server {
    /// Binds the ingest socket (`host:port` or `unix:<path>`) and the
    /// HTTP control socket (`host:port`; port 0 picks a free one),
    /// replays any session journals left by a previous daemon, and
    /// spawns the accept, HTTP and sweeper threads.
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] when either socket cannot be bound.
    pub fn start(config: ServeConfig, listen: &str, http: &str) -> Result<Server, HeapMdError> {
        heapmd_obs::export::mark_process_start();
        let (ingest, ingest_addr) = AnyListener::bind(listen)?;
        let http_listener = TcpListener::bind(http)?;
        let http_addr = http_listener.local_addr()?.to_string();
        let wakers = vec![
            ingest.waker()?,
            WakeTarget::Tcp(loopback_if_unspecified(http_listener.local_addr()?)),
        ];

        let prom_dump = config.prom_dump.clone();
        let ctx = Arc::new(ServeCtx::new(config)?);
        // Crash-only recovery: replay whatever journals the previous
        // daemon left before accepting new connections, so resuming
        // clients find their sessions already rebuilt.
        session::recover_sessions(&ctx);
        let (alive, listeners_ended) = mpsc::channel();
        let accept = {
            let ctx = Arc::clone(&ctx);
            let alive = alive.clone();
            std::thread::Builder::new()
                .name("hmd-accept".into())
                .spawn(move || {
                    let _alive = alive;
                    accept_loop(ingest, ctx)
                })?
        };
        let http = {
            let fleet = Arc::clone(&ctx.fleet);
            let shutdown = Arc::clone(&ctx.shutdown);
            std::thread::Builder::new()
                .name("hmd-http".into())
                .spawn(move || {
                    let _alive = alive;
                    http_loop(http_listener, fleet, shutdown)
                })?
        };
        let sweeper = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("hmd-sweep".into())
                .spawn(move || sweep_loop(ctx))?
        };
        let _ = ctx.shutdown.sweeper.set(sweeper.thread().clone());
        Ok(Server {
            ingest_addr,
            http_addr,
            ctx,
            accept,
            http,
            wakers,
            listeners_ended,
            sweeper,
            prom_dump,
        })
    }

    /// The resolved ingest address (`host:port`, or the `unix:<path>`
    /// spec as given).
    pub fn ingest_addr(&self) -> &str {
        &self.ingest_addr
    }

    /// The resolved HTTP control address.
    pub fn http_addr(&self) -> &str {
        &self.http_addr
    }

    /// The daemon's tenant registry (live rollups).
    pub fn fleet(&self) -> Arc<FleetRegistry> {
        Arc::clone(&self.ctx.fleet)
    }

    /// Requests graceful shutdown: stop accepting, close in-flight
    /// streams, finalize the prefixes received, flush incidents, write the
    /// final dump. Session journals are left on disk for the next
    /// daemon. Returns immediately; [`Server::wait`] observes it.
    pub fn shutdown(&self) {
        self.ctx.shutdown.request();
    }

    /// Blocks until shutdown (via [`Server::shutdown`] or HTTP
    /// `/shutdown`), then finalizes every open stream and returns the
    /// summary.
    pub fn wait(self) -> ServeSummary {
        self.ctx.shutdown.wait();
        // Each listener blocked in `accept` is woken by a connection to
        // itself. Nothing waits on the wakes, so one that cannot reach
        // its listener (a unix path another daemon rebound, a filtered
        // loopback, a full backlog) holds up no verdict.
        let wakers = self.wakers;
        let _ = std::thread::Builder::new()
            .name("hmd-wake".into())
            .spawn(move || wakers.iter().for_each(WakeTarget::wake));
        // No sweep may close a stream while `finish` closes the rest.
        let _ = self.sweeper.join();
        // Handlers notice the flag within one read-timeout tick and
        // check what the kernel buffered; `finish` then finalizes the
        // streams they leave open.
        let conns = self.ctx.conns.lock().unwrap().take();
        for h in conns.into_iter().flatten() {
            let _ = h.join();
        }
        let mut summary = ServeSummary::default();
        for o in self.ctx.finish() {
            summary.tenants.insert(o.tenant.clone(), o);
        }
        // A listener thread whose wake went astray stays blocked in
        // `accept`; it is left behind, detached, and serves nothing.
        if let Err(RecvTimeoutError::Disconnected) = self.listeners_ended.recv_timeout(WAKE_TIMEOUT)
        {
            let _ = self.accept.join();
            let _ = self.http.join();
        }
        if let Some(path) = &self.prom_dump {
            let mut text = heapmd_obs::export::prometheus_text();
            text.push_str(&self.ctx.fleet.prometheus_text());
            if let Err(e) = std::fs::write(path, text) {
                summary.prom_dump_error = Some(format!("{}: {e}", path.display()));
            }
        }
        summary
    }
}

// ---------------------------------------------------------------------
// Clients (the resumable session client lives in [`client`])
// ---------------------------------------------------------------------

pub(crate) fn connect_any(addr: &str) -> Result<AnyStream, HeapMdError> {
    if let Some(path) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        return Ok(AnyStream::Unix(UnixStream::connect(path)?));
        #[cfg(not(unix))]
        return Err(HeapMdError::InvalidInput(format!(
            "unix socket address {path:?} unsupported on this platform"
        )));
    }
    Ok(AnyStream::Tcp(TcpStream::connect(addr)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use crate::trace_codec::{BinaryTraceImage, BlockIndex, WireFrame, WireReader};
    use crate::{ModelBuilder, Process, Settings};

    /// A linked-list build of `n` nodes (four events each, so several
    /// 4096-event blocks), its encoding, and a model trained on it.
    fn encoded_churn(n: usize) -> (Trace, Vec<u8>, HeapModel) {
        let settings = Settings::builder().frq(5).build().unwrap();
        let mut p = Process::new(settings.clone());
        p.enable_trace();
        let (build, node_site) = (p.function("build"), p.site("node"));
        let mut prev = None;
        for _ in 0..n {
            p.enter(build);
            let node = p.malloc(16, node_site).unwrap();
            if let Some(prev) = prev {
                p.write_ptr(node.offset(8), prev).unwrap();
            }
            prev = Some(node);
            p.leave();
        }
        let mut trace = p.take_trace().unwrap();
        trace.set_functions(vec!["build".into()]);
        let _ = p.finish("record");
        let mut builder = ModelBuilder::new(settings.clone());
        builder.add_run(&trace.replay(&settings, "train").unwrap());
        let bytes = trace.encode_binary();
        (trace, bytes, builder.build().model)
    }

    /// A daemon context checking against `model`, and a session of
    /// `tenant` registered in it with a fresh check.
    fn start(tenant: &str, model: &HeapModel) -> (ServeCtx, Arc<Mutex<session::SessionEntry>>) {
        let ctx = ServeCtx::new(ServeConfig::new(model.clone())).unwrap();
        let stats = ctx.fleet.connect(tenant);
        let check = TenantCheck::new(&ctx, tenant, Arc::clone(&stats));
        let entry = session::SessionEntry::new("s-1".into(), stats, Some(check));
        let entry = Arc::new(Mutex::new(entry));
        session::register_entry(&ctx, tenant, Arc::clone(&entry));
        (ctx, entry)
    }

    /// Applies `reader`'s frames to the session's check through the
    /// forwarder the connection handlers and journal recovery use, up
    /// to the end frame, whose index it returns unapplied. `limit`
    /// stops after that many events frames instead.
    fn feed(
        ctx: &ServeCtx,
        tenant: &str,
        entry: &Arc<Mutex<session::SessionEntry>>,
        mut reader: WireReader<impl Read>,
        limit: usize,
    ) -> Option<BlockIndex> {
        let mut blocks = 0;
        while blocks < limit {
            let frame = match reader.next_frame().unwrap() {
                WireFrame::End(index) => return Some(index),
                frame => frame,
            };
            blocks += usize::from(matches!(frame, WireFrame::Events(_)));
            let consumed = reader.bytes_consumed();
            assert!(matches!(
                session::forward(ctx, tenant, entry, frame, consumed),
                session::Forward::Accepted(_)
            ));
        }
        None
    }

    /// Applies one frame the way a connection would.
    fn apply(
        ctx: &ServeCtx,
        tenant: &str,
        entry: &Arc<Mutex<session::SessionEntry>>,
        frame: WireFrame,
    ) {
        let consumed = entry.lock().unwrap().offset;
        let _ = session::forward(ctx, tenant, entry, frame, consumed);
    }

    #[test]
    fn index_count_mismatch_still_evicts() {
        let (trace, bytes, model) = encoded_churn(3000);
        let index = BinaryTraceImage::open(bytes.clone())
            .unwrap()
            .index()
            .clone();
        let (ctx, entry) = start("short", &model);
        assert!(feed(&ctx, "short", &entry, WireReader::new(&bytes[..]), 1).is_none());
        let carried = entry.lock().unwrap().check.as_ref().unwrap().check.events();
        assert!(carried < trace.len() as u64);
        apply(&ctx, "short", &entry, WireFrame::End(index));
        let outcome = ctx.finish().pop().expect("one outcome");
        assert!(outcome.partial);
        assert_eq!(
            outcome.evicted.as_deref(),
            Some(
                format!(
                    "index declares {} events, stream carried {carried}",
                    trace.len()
                )
                .as_str()
            )
        );
        assert_eq!(outcome.events, carried);
    }

    #[test]
    fn an_event_outside_the_table_received_so_far_fails_the_tenant() {
        let (_, _, model) = encoded_churn(10);
        let (ctx, entry) = start("t", &model);
        let names = vec!["main".to_string()];
        apply(&ctx, "t", &entry, WireFrame::Functions(names));
        let events = vec![
            HeapEvent::FnEnter { func: 0 },
            HeapEvent::FnEnter { func: 1 },
        ];
        apply(&ctx, "t", &entry, WireFrame::Events(events));
        // The table that would have covered id 1 comes too late.
        let names = vec!["main".to_string(), "late".to_string()];
        apply(&ctx, "t", &entry, WireFrame::Functions(names));
        let outcome = ctx.finish().pop().expect("one outcome");
        assert_eq!(
            outcome.error.as_deref(),
            Some(
                "invalid input: event references function id 1, but the trace \
                 interns only 1 function names"
            )
        );
        assert!(outcome.bugs.is_empty());
        assert_eq!(outcome.events, 2);
    }

    #[test]
    fn finished_connection_threads_are_joined_as_new_ones_arrive() {
        let mut handles = Vec::new();
        for _ in 0..200 {
            // A short connection: its thread is done before the next
            // one is accepted.
            let handle = std::thread::spawn(|| {});
            while !handle.is_finished() {
                std::thread::yield_now();
            }
            track_conn(&mut handles, handle);
            assert_eq!(handles.len(), 1, "only the newest thread is held");
        }
        // One still running is kept.
        let (release, wait) = std::sync::mpsc::channel::<()>();
        track_conn(
            &mut handles,
            std::thread::spawn(move || {
                let _ = wait.recv();
            }),
        );
        track_conn(&mut handles, std::thread::spawn(|| {}));
        assert_eq!(handles.len(), 2, "the running thread stays tracked");
        release.send(()).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn an_event_the_graph_cannot_apply_evicts_only_its_stream() {
        let (_, _, model) = encoded_churn(10);
        let (ctx, entry) = start("t", &model);
        let stray = HeapEvent::PtrWrite {
            src: sim_heap::ObjectId(7),
            offset: 0,
            value: sim_heap::NULL,
            old_value: None,
        };
        apply(&ctx, "t", &entry, WireFrame::Events(vec![stray]));
        assert!(entry.lock().is_ok(), "the entry's lock is not poisoned");
        assert!(ctx.sessions.lock().unwrap().is_empty(), "unregistered");
        let outcome = ctx.finish().pop().expect("one outcome");
        assert_eq!(
            outcome.evicted.as_deref(),
            Some(session::UNAPPLIABLE_EVENTS)
        );
        assert_eq!(
            outcome.error.as_deref(),
            Some("invalid input: event the heap graph cannot apply: write into unknown obj#7")
        );
        assert!(outcome.partial);
    }

    #[test]
    fn verdicts_name_the_paper_seven() {
        let (_, _, model) = encoded_churn(3000);
        let got: Vec<(String, bool)> = verdicts_for(&model)
            .into_iter()
            .map(|v| (v.metric, v.stable))
            .collect();
        let want: Vec<(String, bool)> = MetricKind::ALL
            .into_iter()
            .map(|k| (k.id().to_string(), model.is_stable(k)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn tenant_names_are_charset_checked() {
        assert!(valid_tenant("api-eu.web_1:prod"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(!valid_tenant("path/../escape"));
        assert!(!valid_tenant(&"x".repeat(65)));
        assert!(valid_tenant(&"x".repeat(64)));
    }

    #[test]
    fn preamble_parses_sessions_and_refuses_everything_else() {
        let mut v2 = io::Cursor::new(b"HMDSERVE2 web-1 s-42 7\n".to_vec());
        let preamble = read_preamble(&mut v2).expect("a session preamble");
        assert_eq!(preamble.tenant, "web-1");
        assert_eq!(preamble.session, "s-42");
        assert_eq!(preamble.acked, 7);
        for bad in [
            &b"HMDSERVE2 web-1 s-42\n"[..],
            b"HMDSERVE2 web-1 s-42 x\n",
            b"HMDSERVE2 web-1 bad session 7\n",
            b"HMDSERVE3 web-1\n",
        ] {
            assert!(
                read_preamble(&mut io::Cursor::new(bad.to_vec())).is_none(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }
}
