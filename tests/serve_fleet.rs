//! Fleet daemon end-to-end: concurrent tenant streams against
//! [`heapmd::Server`] must yield verdicts bit-identical to the offline
//! `check` path, survive corrupt streams by dropping the connection and
//! then evicting exactly the offending tenant once its session times
//! out, and flush every incident bundle plus the final Prometheus dump
//! on graceful shutdown.
//!
//! Every stream speaks the resumable session protocol. The
//! fault-tolerant-ingest half of the suite drives its failure paths: a
//! daemon restart mid-stream must resume from the
//! journal, any healing network fault schedule must converge to the
//! uninterrupted offline verdict, evicted streams must salvage their
//! buffered prefix, and `model_dir` overrides must check a tenant
//! against its own model.

use faults::io::{fault_ids::*, FaultyWriter};
use faults::net::{fault_ids::*, partitioned, shared, FaultyConn, SharedFaultPlan};
use faults::{FaultConfig, FaultId, FaultPlan};
use heapmd::{
    connect_session, push_trace_resumable, BugReport, Conn, Dialer, FuncId, HeapModel, Process,
    RetryPolicy, SamplerConfig, ServeConfig, Server, SessionOptions, Settings, Trace,
    SERVE_PREAMBLE_V2,
};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use workloads::bugs::CATALOG;
use workloads::harness::{settings_for, train};
use workloads::{commercial_at_version, Input, Workload};

/// Records a full heap-event trace of one workload run (what
/// `heapmd record` does), with the function table attached.
fn record_trace(w: &dyn Workload, input: u32, plan: &mut FaultPlan, settings: &Settings) -> Trace {
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    w.run(&mut p, plan, &Input::new(input))
        .expect("workload run");
    let mut trace = p.take_trace().expect("tracing enabled");
    let names: Vec<String> = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    let _ = p.finish("record");
    trace
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Pushes `trace` as `tenant` through a fresh resumable session, as
/// `heapmd push` does; returns the events sent.
fn push(ingest: &str, tenant: &str, trace: &Trace) -> u64 {
    push_trace_resumable(ingest, tenant, trace, SessionOptions::default())
        .expect("push")
        .0
}

/// End offset of the wire block starting at `at` in an encoded trace:
/// the 17-byte block header (whose length field sits at header bytes
/// 9..13) plus the payload.
fn block_end(bytes: &[u8], at: usize) -> usize {
    let len = u32::from_le_bytes(bytes[at + 9..at + 13].try_into().unwrap()) as usize;
    at + 17 + len
}

/// The frames a session carries for an encoded trace, as byte ranges
/// into it: every block after the 8-byte file header, with the 20-byte
/// footer riding on the index block (the last frame).
fn wire_frames(bytes: &[u8]) -> Vec<Range<usize>> {
    let footer = &bytes[bytes.len() - 20..];
    let index_offset = u64::from_le_bytes(footer[..8].try_into().unwrap()) as usize;
    let mut frames = Vec::new();
    let mut at = 8;
    while at < index_offset {
        let end = block_end(bytes, at);
        frames.push(at..end);
        at = end;
    }
    frames.push(index_offset..bytes.len());
    frames
}

/// Opens session `raw-1` by hand and sends `frames`, each behind its
/// `u64` sequence number, as the session client would.
fn raw_session(ingest: &str, tenant: &str, frames: &[&[u8]]) -> TcpStream {
    let mut stream = TcpStream::connect(ingest).expect("connect ingest");
    writeln!(stream, "{SERVE_PREAMBLE_V2} {tenant} raw-1 0").expect("preamble");
    send_frames(&mut stream, 0, frames);
    stream
}

/// Sends `frames` on an open session, numbered from `first`. Write
/// errors are ignored: the daemon drops the connection at the first
/// damaged frame.
fn send_frames(stream: &mut TcpStream, first: u64, frames: &[&[u8]]) {
    for (seq, frame) in (first..).zip(frames) {
        let _ = stream.write_all(&seq.to_le_bytes());
        let _ = stream.write_all(frame);
    }
    let _ = stream.flush();
}

/// Reads ack frames until one acknowledges `blocks` blocks.
fn await_ack(stream: &mut TcpStream, blocks: u64) {
    let mut ack = [0u8; 13];
    loop {
        stream.read_exact(&mut ack).expect("ack");
        if u64::from_le_bytes(ack[4..12].try_into().unwrap()) >= blocks {
            return;
        }
    }
}

/// Half-closes a raw session and drains it until the daemon hangs up,
/// so the client never resets the connection over unread acks (a reset
/// can discard bytes the daemon has not read yet). Returns whether the
/// daemon sent the final ack, i.e. accepted the whole stream.
fn hang_up(mut stream: TcpStream) -> bool {
    let _ = stream.shutdown(Shutdown::Write);
    let mut acks = Vec::new();
    let _ = stream.read_to_end(&mut acks);
    acks.chunks_exact(13).any(|ack| ack[12] & 1 == 1)
}

/// Minimal HTTP/1.0 GET, returning the response body.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

#[test]
fn sixty_four_concurrent_tenants_match_offline_verdicts() {
    let w = commercial_at_version("game_action", 1);
    let settings = settings_for(w.as_ref());
    let model = train(w.as_ref(), &Input::set(25)).model;
    let bug = CATALOG
        .iter()
        .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
        .expect("catalogued bug");

    // 64 tenants: mostly clean runs, a few with the catalogued Figure
    // 10 fault so anomalous verdicts cross the wire too.
    let mut tenants = Vec::new();
    for i in 0..64u32 {
        let mut plan = if i % 17 == 0 {
            bug.plan()
        } else {
            FaultPlan::new()
        };
        let trace = record_trace(w.as_ref(), 100 + i, &mut plan, &settings);
        let expected = trace.check(&model, &model.settings).expect("offline check");
        tenants.push((format!("tenant-{i:02}"), trace, expected));
    }

    let config = ServeConfig::new(model);
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    let ingest = server.ingest_addr().to_string();

    std::thread::scope(|scope| {
        for (name, trace, _) in &tenants {
            let ingest = ingest.clone();
            scope.spawn(move || {
                assert_eq!(push(&ingest, name, trace), trace.len() as u64);
            });
        }
    });

    // All 64 registered and drained (connected drops only at finalize).
    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(60), || {
            let snap = fleet.snapshot();
            snap.tenants_total == 64 && snap.connected == 0
        }),
        "daemon never drained: {:?} tenants, {} connected",
        fleet.snapshot().tenants_total,
        fleet.snapshot().connected
    );

    // Live scrape: per-tenant series and fleet rollups on /metrics.
    let metrics = http_get(server.http_addr(), "/metrics");
    assert!(
        metrics.contains("heapmd_fleet_tenants_total 64"),
        "{metrics}"
    );
    assert!(metrics.contains("heapmd_tenant_events_total{tenant=\"tenant-00\"}"));
    assert!(metrics.contains("heapmd_tenant_events_total{tenant=\"tenant-63\"}"));
    assert!(metrics.contains("heapmd_build_info{"));
    let tsv = http_get(server.http_addr(), "/fleet.tsv");
    assert_eq!(
        tsv.lines().filter(|l| l.starts_with("tenant\t")).count(),
        64
    );
    assert!(http_get(server.http_addr(), "/healthz").contains("ok"));

    server.shutdown();
    let summary = server.wait();
    assert_eq!(summary.tenants.len(), 64);
    assert!(summary.prom_dump_error.is_none());
    let mut anomalous = 0;
    for (name, _, expected) in &tenants {
        let outcome = summary.tenants.get(name).expect("tenant outcome");
        assert!(
            !outcome.partial,
            "{name} should have completed cleanly (evicted: {:?}, error: {:?})",
            outcome.evicted, outcome.error
        );
        assert!(outcome.evicted.is_none(), "{name}: {:?}", outcome.evicted);
        assert!(outcome.error.is_none(), "{name}: {:?}", outcome.error);
        assert_eq!(
            &outcome.bugs, expected,
            "{name}: daemon verdict must be bit-identical to offline check"
        );
        anomalous += usize::from(!expected.is_empty());
    }
    assert!(
        anomalous > 0,
        "fault-planned tenants should have raised bugs"
    );
}

#[test]
fn corrupt_streams_evict_only_the_offending_tenant() {
    let w = commercial_at_version("webapp", 1);
    let settings = settings_for(w.as_ref());
    let model = train(w.as_ref(), &Input::set(4)).model;
    let trace = record_trace(w.as_ref(), 7, &mut FaultPlan::new(), &settings);
    let expected = trace.check(&model, &model.settings).expect("offline check");
    let base = trace.encode_binary();

    // The damage matrix, in the frames a session carries: truncations
    // at structural boundaries plus faults::io bit flips sprayed at
    // different periods. The 8-byte file header is not on the wire.
    let frames = wire_frames(&base);
    let mut variants: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
    for (i, cut) in [9usize, 25, base.len() / 2, base.len() - 6]
        .into_iter()
        .enumerate()
    {
        let clipped = frames
            .iter()
            .filter(|r| r.start < cut)
            .map(|r| base[r.start..r.end.min(cut)].to_vec())
            .collect();
        variants.push((format!("trunc-{i}"), clipped));
    }
    for (i, period) in [3u64, 17, 101].into_iter().enumerate() {
        let mut plan = FaultPlan::new();
        plan.enable(IO_BIT_FLIP_WRITE, FaultConfig::every(period));
        let mut writer = FaultyWriter::new(Vec::new(), plan);
        for chunk in base.chunks(64) {
            writer.write_all(chunk).expect("buffered write");
        }
        let flipped = writer.into_inner();
        assert_eq!(flipped.len(), base.len(), "bit flips keep the length");
        let damaged = frames.iter().map(|r| flipped[r.clone()].to_vec()).collect();
        variants.push((format!("bitflip-{i}"), damaged));
    }

    // Damage drops the connection but keeps the session; the session
    // timeout then evicts the tenant.
    let mut config = ServeConfig::new(model);
    config.session_timeout = Duration::from_millis(200);
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    let ingest = server.ingest_addr().to_string();

    let mut accepted = Vec::new();
    for (name, frames) in &variants {
        let frames: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        accepted.push(hang_up(raw_session(&ingest, name, &frames)));
    }
    // A bit flip can land where no check reads it; such a stream
    // legitimately completes. Every other one must be refused.
    let refused = accepted.iter().filter(|&&done| !done).count();
    assert!(
        refused >= variants.len() - 1,
        "most damaged streams should be refused (got {refused}/{})",
        variants.len()
    );
    // A garbage preamble must be counted, not crash the accept loop.
    {
        let mut stream = TcpStream::connect(&ingest).expect("connect ingest");
        let _ = stream.write_all(b"NOT-A-PREAMBLE\njunk");
        assert!(!hang_up(stream));
    }

    // The daemon survives and a healthy tenant still gets the exact
    // offline verdict.
    assert!(http_get(server.http_addr(), "/healthz").contains("ok"));
    push(&ingest, "healthy", &trace);

    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let snap = fleet.snapshot();
            snap.tenants_total as usize == variants.len() + 1
                && snap.evictions_total as usize == refused
                && snap.protocol_errors_total >= 1
        }),
        "refused sessions never expired"
    );
    server.shutdown();
    let summary = server.wait();

    let healthy = summary.tenants.get("healthy").expect("healthy outcome");
    assert!(healthy.evicted.is_none() && !healthy.partial);
    assert_eq!(healthy.bugs, expected);
    for ((name, _), done) in variants.iter().zip(accepted) {
        let outcome = summary.tenants.get(name.as_str()).expect("damaged outcome");
        if done {
            assert!(!outcome.partial && outcome.evicted.is_none(), "{name}");
        } else {
            let reason = outcome.evicted.as_deref().expect("refused sessions evict");
            assert!(reason.contains("session expired"), "{name}: {reason}");
            assert!(outcome.partial, "{name}: an evicted verdict is partial");
        }
    }
}

/// A session with a new id supersedes a still-connected one. The old
/// connection's next block must not reach the new session's check: it
/// finds its own check gone and is hung up on unacked, and the new
/// stream completes with the offline verdict.
#[test]
fn a_superseded_connection_cannot_feed_its_successor() {
    let fx = buggy_fixture();
    let server = Server::start(
        ServeConfig::new(fx.model.clone()),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("start daemon");
    let bytes = fx.trace.encode_binary();
    let frames = wire_frames(&bytes);
    let frame = |i: usize| &bytes[frames[i].clone()];
    assert!(
        frames.len() > 4,
        "a function table, events blocks, an index"
    );

    // Session `a`: the function table and one events block.
    let mut a = TcpStream::connect(server.ingest_addr()).expect("connect a");
    writeln!(a, "{SERVE_PREAMBLE_V2} twin a 0").expect("preamble a");
    send_frames(&mut a, 0, &[frame(0), frame(1)]);
    await_ack(&mut a, 2);

    // Session `b` supersedes it with the whole stream but its end frame.
    let mut b = TcpStream::connect(server.ingest_addr()).expect("connect b");
    writeln!(b, "{SERVE_PREAMBLE_V2} twin b 0").expect("preamble b");
    let (_, body) = frames.split_last().expect("frames");
    let body: Vec<&[u8]> = body.iter().map(|r| &bytes[r.clone()]).collect();
    send_frames(&mut b, 0, &body);
    await_ack(&mut b, body.len() as u64);

    // `a` is still connected and sends its next block.
    send_frames(&mut a, 2, &[frame(2)]);
    let mut ack = [0u8; 13];
    let acked = a.read_exact(&mut ack).is_ok();
    assert!(!acked, "a superseded session's block must not be accepted");

    send_frames(&mut b, body.len() as u64, &[frame(frames.len() - 1)]);
    assert!(hang_up(b), "b's stream completes");
    server.shutdown();
    let outcome = server.wait().tenants.remove("twin").expect("twin outcome");
    assert!(
        !outcome.partial && outcome.evicted.is_none() && outcome.error.is_none(),
        "{outcome:?}"
    );
    assert_eq!(outcome.bugs, fx.expected, "serve == offline check");
}

#[test]
fn shutdown_flushes_partial_verdicts_incidents_and_prom_dump() {
    let w = commercial_at_version("game_action", 1);
    let settings = settings_for(w.as_ref());
    let model = train(w.as_ref(), &Input::set(25)).model;
    let spec = CATALOG
        .iter()
        .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
        .expect("catalogued bug");
    let trace = record_trace(w.as_ref(), 77, &mut spec.plan(), &settings);
    let expected = trace.check(&model, &model.settings).expect("offline check");
    assert!(!expected.is_empty(), "the Figure 10 bug must reproduce");

    let dir = std::env::temp_dir().join(format!("heapmd-serve-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let prom_path = dir.join("final.prom");
    let mut config = ServeConfig::new(model);
    config.incident_dir = Some(dir.join("incidents"));
    config.prom_dump = Some(prom_path.clone());
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");

    // Stream every frame *except* the index/footer, then hold the
    // socket open: from the daemon's view this tenant is mid-stream
    // forever. The acks say every block reached the shard.
    let bytes = trace.encode_binary();
    let frames = wire_frames(&bytes);
    let (_, prefix) = frames.split_last().expect("frames");
    let prefix: Vec<&[u8]> = prefix.iter().map(|r| &bytes[r.clone()]).collect();
    let mut stream = raw_session(server.ingest_addr(), "flusher", &prefix);
    await_ack(&mut stream, prefix.len() as u64);

    // Graceful shutdown while the stream is open: the buffered prefix
    // must still be finalized (all events arrived — only the index was
    // withheld), incidents flushed, and the dump written.
    server.shutdown();
    let summary = server.wait();
    drop(stream);

    let outcome = summary.tenants.get("flusher").expect("flusher outcome");
    assert!(
        outcome.partial,
        "index never arrived, so the verdict is partial"
    );
    assert!(outcome.evicted.is_none(), "shutdown is not an eviction");
    assert_eq!(outcome.bugs, expected, "prefix held every event");
    assert!(
        !outcome.bundle_paths.is_empty(),
        "incident bundles must flush"
    );
    for path in &outcome.bundle_paths {
        assert!(path.exists(), "bundle {} missing", path.display());
    }
    assert!(summary.prom_dump_error.is_none());
    let dump = std::fs::read_to_string(&prom_path).expect("final prom dump");
    assert!(dump.contains("heapmd_build_info{"));
    assert!(dump.contains("heapmd_fleet_tenants_total 1"));
    assert!(dump.contains("heapmd_tenant_bugs_total{tenant=\"flusher\"}"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fault-tolerant ingest: session resume, chaos, salvage, model overrides
// ---------------------------------------------------------------------

/// A workload trace with its model and authoritative offline verdict,
/// shared across the resume/chaos tests (training is the expensive
/// part, so it runs once per fixture).
struct Fixture {
    model: HeapModel,
    trace: Trace,
    expected: Vec<BugReport>,
}

/// Clean webapp run: small and fast, for the per-case chaos matrix.
fn webapp_fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let w = commercial_at_version("webapp", 1);
        let settings = settings_for(w.as_ref());
        let model = train(w.as_ref(), &Input::set(4)).model;
        let trace = record_trace(w.as_ref(), 7, &mut FaultPlan::new(), &settings);
        let expected = trace.check(&model, &model.settings).expect("offline check");
        Fixture {
            model,
            trace,
            expected,
        }
    })
}

/// Buggy game_action run (the catalogued Figure 10 fault), so verdict
/// equality is asserted on a *non-empty* bug list.
fn buggy_fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let w = commercial_at_version("game_action", 1);
        let settings = settings_for(w.as_ref());
        let model = train(w.as_ref(), &Input::set(25)).model;
        let spec = CATALOG
            .iter()
            .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
            .expect("catalogued bug");
        let trace = record_trace(w.as_ref(), 77, &mut spec.plan(), &settings);
        let expected = trace.check(&model, &model.settings).expect("offline check");
        assert!(!expected.is_empty(), "the Figure 10 bug must reproduce");
        Fixture {
            model,
            trace,
            expected,
        }
    })
}

/// A per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("heapmd-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

#[test]
fn daemon_restart_mid_stream_resumes_from_journal() {
    let fx = buggy_fixture();
    let dir = scratch_dir("restart");
    let journal = dir.join("journal");
    let addr = format!("unix:{}", dir.join("ingest.sock").display());

    let mut config = ServeConfig::new(fx.model.clone());
    config.journal_dir = Some(journal.clone());
    let server = Server::start(config.clone(), &addr, "127.0.0.1:0").expect("start first daemon");

    let opts = SessionOptions {
        session: Some("phoenix-1".into()),
        retry: RetryPolicy {
            max_attempts: 60,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
        },
        // A 1-byte spill cap makes every write block until the daemon
        // has journaled and acked the frames it completed, so the split
        // point below is deterministically durable before the daemon
        // dies.
        spill_limit: 1,
        ..SessionOptions::default()
    };
    let mut client = connect_session(&addr, "phoenix", opts).expect("connect session");

    let bytes = fx.trace.encode_binary();
    // Splitting after the first block leaves exactly one whole frame on
    // each side of the cut.
    let mid = block_end(&bytes, 8);
    assert!(mid < bytes.len(), "trace must span several blocks");
    client.write_all(&bytes[..mid]).expect("first block");

    // Kill the first daemon mid-stream. The journal must survive.
    server.shutdown();
    let summary = server.wait();
    let outcome = summary.tenants.get("phoenix").expect("first-life outcome");
    assert!(outcome.partial, "daemon died mid-stream");
    assert!(outcome.evicted.is_none(), "shutdown is not an eviction");
    assert!(
        journal.join("phoenix.hmdt").exists(),
        "journal survives shutdown"
    );
    assert!(journal.join("phoenix.session.json").exists());

    // Second daemon, same socket and journal: recovery replays the
    // journal before accepting, so the client resumes transparently.
    let server = Server::start(config, &addr, "127.0.0.1:0").expect("restart daemon");
    client.write_all(&bytes[mid..]).expect("rest of the stream");
    client.flush().expect("final ack");
    assert!(
        client.reconnects() >= 1,
        "client redialed across the restart"
    );

    let snap = server.fleet().snapshot();
    assert!(snap.reconnects_total >= 1, "daemon counted the reconnect");
    let row = snap
        .tenants
        .iter()
        .find(|t| t.name == "phoenix")
        .expect("phoenix fleet row");
    assert!(row.resumes_total >= 1, "daemon counted the session resume");

    server.shutdown();
    let summary = server.wait();
    let outcome = summary.tenants.get("phoenix").expect("resumed outcome");
    assert!(
        !outcome.partial && outcome.evicted.is_none() && outcome.error.is_none(),
        "resumed stream must complete cleanly: {outcome:?}"
    );
    assert_eq!(
        outcome.bugs, fx.expected,
        "verdict across the restart must be bit-identical to offline check"
    );
    assert!(
        !journal.join("phoenix.hmdt").exists(),
        "journal is deleted once the verdict closes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session client's pluggable transport, wrapped in network fault
/// injection. Read timeouts and the nonblocking flag travel via a
/// `try_clone`d handle (both are properties of the shared socket, not
/// the wrapper).
struct ChaosConn {
    io: FaultyConn<TcpStream>,
    ctl: TcpStream,
}

impl std::io::Read for ChaosConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.io.read(buf)
    }
}

impl std::io::Write for ChaosConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.io.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.io.flush()
    }
}

impl Conn for ChaosConn {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        self.ctl.set_read_timeout(dur)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        self.ctl.set_nonblocking(nonblocking)
    }
}

/// Dials TCP through the shared fault plan: partitions gate the dial
/// itself, everything else wraps the live connection. The plan spans
/// redials, so fault budgets keep counting across reconnects.
fn chaos_dialer(plan: SharedFaultPlan) -> Dialer {
    Box::new(move |addr: &str| {
        partitioned(&plan)?;
        let stream = TcpStream::connect(addr)?;
        let ctl = stream.try_clone()?;
        Ok(Box::new(ChaosConn {
            io: FaultyConn::new(stream, Arc::clone(&plan)),
            ctl,
        }) as Box<dyn Conn>)
    })
}

const NET_FAULTS: [FaultId; 6] = [
    NET_DROP,
    NET_PARTITION,
    NET_DELAY,
    NET_RESET_MID_BLOCK,
    NET_DUP_FRAME,
    NET_TRUNCATE_FRAME,
];

// The tentpole invariant: any fault schedule that eventually heals
// (every config carries a limit, so the budget runs dry) yields a
// final verdict bit-identical to the uninterrupted offline check.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn healing_fault_schedules_converge_to_the_offline_verdict(
        specs in proptest::collection::vec((0usize..6, 1u64..5, 0u64..4, 1u64..3), 1..4)
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Relaxed);
        let fx = webapp_fixture();
        let dir = scratch_dir(&format!("chaos-{case}"));

        let mut plan = FaultPlan::new();
        for (fault, every, after, limit) in &specs {
            plan.enable(
                NET_FAULTS[*fault],
                FaultConfig::every(*every).after(*after).limit(*limit),
            );
        }

        let mut config = ServeConfig::new(fx.model.clone());
        config.journal_dir = Some(dir.join("journal"));
        let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");

        let opts = SessionOptions {
            session: Some(format!("chaos-{case}")),
            retry: RetryPolicy {
                max_attempts: 50,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
            },
            io_timeout: Duration::from_millis(1500),
            dialer: Some(chaos_dialer(shared(plan))),
            ..SessionOptions::default()
        };
        let tenant = format!("chaos-{case}");
        let ingest = server.ingest_addr().to_string();
        let (events, _reconnects) =
            push_trace_resumable(&ingest, &tenant, &fx.trace, opts).expect("push through chaos");
        prop_assert_eq!(events, fx.trace.len() as u64);

        server.shutdown();
        let summary = server.wait();
        let outcome = summary.tenants.get(&tenant).expect("chaos outcome");
        prop_assert!(!outcome.partial, "schedule healed, stream must complete: {:?}", outcome);
        prop_assert!(outcome.evicted.is_none(), "healing faults never evict: {:?}", outcome.evicted);
        prop_assert_eq!(&outcome.bugs, &fx.expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A plain TCP transport that counts the reads which may wait: every
/// read issued while the socket is in blocking mode (under a read
/// timeout), whether it then finds bytes or times out.
struct WaitCountingConn {
    stream: TcpStream,
    nonblocking: bool,
    waits: Arc<AtomicU64>,
}

impl std::io::Read for WaitCountingConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.nonblocking {
            self.waits.fetch_add(1, Relaxed);
        }
        self.stream.read(buf)
    }
}

impl std::io::Write for WaitCountingConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for WaitCountingConn {
    fn set_read_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        self.nonblocking = nonblocking;
        self.stream.set_nonblocking(nonblocking)
    }
}

#[test]
fn pushing_blocks_never_waits_on_acks_before_flush() {
    let fx = buggy_fixture();
    let server = Server::start(
        ServeConfig::new(fx.model.clone()),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("start daemon");
    let waits = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&waits);
    let opts = SessionOptions {
        session: Some("no-wait".into()),
        dialer: Some(Box::new(move |addr: &str| {
            Ok(Box::new(WaitCountingConn {
                stream: TcpStream::connect(addr)?,
                nonblocking: false,
                waits: Arc::clone(&counter),
            }) as Box<dyn Conn>)
        })),
        ..SessionOptions::default()
    };
    let mut client = connect_session(server.ingest_addr(), "no-wait", opts).expect("connect");
    // The handshake waits for the hello ack; the writes must not wait.
    waits.store(0, Relaxed);

    // Block-sized writes, as the binary trace writer issues them.
    let bytes = fx.trace.encode_binary();
    assert!(
        fx.trace.len() > 2 * heapmd::EVENTS_PER_BLOCK,
        "the stream spans several blocks"
    );
    for chunk in bytes.chunks(8 << 10) {
        client.write_all(chunk).expect("write");
    }
    assert_eq!(
        waits.load(Relaxed),
        0,
        "writes under the spill cap drain only the acks already buffered"
    );
    client.flush().expect("final ack");
    assert!(waits.load(Relaxed) > 0, "flush waits for the final ack");

    server.shutdown();
    let summary = server.wait();
    let outcome = summary.tenants.get("no-wait").expect("outcome");
    assert!(!outcome.partial && outcome.evicted.is_none(), "{outcome:?}");
    assert_eq!(outcome.bugs, fx.expected, "serve == offline check");
}

#[test]
fn corrupt_stream_eviction_salvages_the_buffered_prefix() {
    let fx = buggy_fixture();
    let dir = scratch_dir("salvage");
    let mut config = ServeConfig::new(fx.model.clone());
    config.incident_dir = Some(dir.join("incidents"));
    config.session_timeout = Duration::from_millis(200);
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");

    // Every event and the function table cross the wire intact; the
    // stream then turns to garbage where the index block should start.
    // The garbage drops the connection; the session timeout evicts.
    let bytes = fx.trace.encode_binary();
    let frames = wire_frames(&bytes);
    let mut sent: Vec<&[u8]> = frames[..frames.len() - 1]
        .iter()
        .map(|r| &bytes[r.clone()])
        .collect();
    sent.push(b"\xde\xad\xbe\xefnot-a-block-header");
    hang_up(raw_session(server.ingest_addr(), "mangled", &sent));

    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            fleet.snapshot().evictions_total >= 1
        }),
        "corrupt stream never evicted"
    );
    server.shutdown();
    let summary = server.wait();
    let outcome = summary.tenants.get("mangled").expect("mangled outcome");
    let reason = outcome.evicted.as_deref().expect("corruption must evict");
    assert!(reason.contains("session expired"), "{reason}");
    assert!(outcome.partial, "the index never arrived");
    assert_eq!(
        outcome.bugs, fx.expected,
        "the salvaged prefix held every event, so the partial verdict carries the full bug list"
    );
    assert!(
        !outcome.bundle_paths.is_empty(),
        "eviction still flushes incident bundles"
    );
    for path in &outcome.bundle_paths {
        assert!(path.exists(), "bundle {} missing", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn model_dir_checks_tenants_against_their_own_override() {
    let fx = buggy_fixture();
    // The override: calibrated ranges blown wide open and the
    // normally-unstable metric list emptied, so the same trace that is
    // anomalous under the shared model is clean under the override.
    let mut override_model = fx.model.clone();
    for sm in &mut override_model.stable {
        sm.min = -1_000_000_000.0;
        sm.max = 1_000_000_000.0;
    }
    override_model.unstable.clear();
    let expected_override = fx
        .trace
        .check(&override_model, &override_model.settings)
        .expect("offline check under override");
    assert_ne!(
        fx.expected, expected_override,
        "the override must actually change the verdict"
    );

    let dir = scratch_dir("modeldir");
    let models = dir.join("models");
    std::fs::create_dir_all(&models).expect("mkdir models");
    override_model
        .save(models.join("custom.hmdm"))
        .expect("save override model");

    let mut config = ServeConfig::new(fx.model.clone());
    config.model_dir = Some(models);
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    let ingest = server.ingest_addr().to_string();
    push(&ingest, "custom", &fx.trace);
    push(&ingest, "vanilla", &fx.trace);

    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let snap = fleet.snapshot();
            snap.tenants_total == 2 && snap.connected == 0
        }),
        "daemon never drained"
    );
    server.shutdown();
    let summary = server.wait();
    let custom = summary.tenants.get("custom").expect("custom outcome");
    assert_eq!(
        custom.bugs, expected_override,
        "tenant with an override checks against <model_dir>/custom.hmdm"
    );
    let vanilla = summary.tenants.get("vanilla").expect("vanilla outcome");
    assert_eq!(
        vanilla.bugs, fx.expected,
        "tenant without an override falls back to the shared model"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses every `name{tenant="<tenant>",metric="<m>"} v` sample of one
/// Prometheus family out of a scrape body.
fn scrape_metric_family(body: &str, name: &str, tenant: &str) -> Vec<(String, f64)> {
    let prefix = format!("{name}{{tenant=\"{tenant}\",metric=\"");
    body.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (metric, value) = rest.split_once("\"} ")?;
            Some((metric.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Parses a single-valued per-tenant gauge from a scrape body.
fn scrape_tenant_gauge(body: &str, name: &str, tenant: &str) -> Option<f64> {
    let prefix = format!("{name}{{tenant=\"{tenant}\"}} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse().ok())
}

/// Production-overhead mode end to end: a tenant streaming a sampled
/// recording must show its effective rate and confidence-widened
/// accepted bands on `/metrics` and `/fleet.jsonl`, strictly wider
/// than an exact tenant checked against the same model — and its
/// verdict must match the offline check of the sampled trace.
#[test]
fn sampled_tenant_reports_widened_bands_next_to_exact_tenant() {
    let fx = webapp_fixture();
    let config = SamplerConfig::new(64, 8);
    let sampled_trace = fx.trace.sampled(config);
    let rate = sampled_trace.sample_rate();
    assert!(
        rate > 0.0 && rate < 1.0,
        "fixture must actually decimate stores (rate {rate})"
    );
    let expected_sampled = sampled_trace
        .check(&fx.model, &fx.model.settings)
        .expect("offline check of the sampled trace");

    let server = Server::start(
        ServeConfig::new(fx.model.clone()),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("start daemon");
    let ingest = server.ingest_addr().to_string();
    push(&ingest, "exact", &fx.trace);
    push(&ingest, "sampled", &sampled_trace);

    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            let snap = fleet.snapshot();
            snap.tenants_total == 2 && snap.connected == 0
        }),
        "daemon never drained"
    );

    let metrics = http_get(server.http_addr(), "/metrics");
    assert_eq!(
        scrape_tenant_gauge(&metrics, "heapmd_tenant_sample_rate", "exact"),
        Some(1.0),
        "exact tenant scrapes rate 1:\n{metrics}"
    );
    let scraped_rate = scrape_tenant_gauge(&metrics, "heapmd_tenant_sample_rate", "sampled")
        .expect("sampled tenant sample-rate gauge");
    assert!(
        (scraped_rate - rate).abs() < 1e-9,
        "scraped rate {scraped_rate} != announced rate {rate}"
    );

    let exact_bands = scrape_metric_family(&metrics, "heapmd_tenant_metric_band", "exact");
    let sampled_bands = scrape_metric_family(&metrics, "heapmd_tenant_metric_band", "sampled");
    assert!(
        !exact_bands.is_empty() && !sampled_bands.is_empty(),
        "both tenants must publish band gauges:\n{metrics}"
    );
    let mut compared = 0;
    for (metric, wide) in &sampled_bands {
        if let Some((_, narrow)) = exact_bands.iter().find(|(m, _)| m == metric) {
            assert!(
                wide > narrow,
                "{metric}: sampled band {wide} must exceed exact band {narrow}"
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "tenants share no band metrics:\n{metrics}");

    // The firehose carries the same story: rate and the widened
    // per-tenant band roll into each tenant line.
    let firehose = http_get(server.http_addr(), "/fleet.jsonl");
    let tenant_line = |name: &str| {
        firehose
            .lines()
            .find(|l| {
                l.contains("\"type\":\"tenant\"") && l.contains(&format!("\"name\":\"{name}\""))
            })
            .unwrap_or_else(|| panic!("no firehose line for {name}:\n{firehose}"))
            .to_string()
    };
    let exact_line = tenant_line("exact");
    let sampled_line = tenant_line("sampled");
    assert!(
        exact_line.contains("\"sample_rate\":1"),
        "exact tenant rate in firehose: {exact_line}"
    );
    let json_f64 = |line: &str, key: &str| -> f64 {
        let rest = &line[line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3..];
        rest.split([',', '}'])
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric field")
    };
    let firehose_rate = json_f64(&sampled_line, "sample_rate");
    assert!(
        (firehose_rate - rate).abs() < 1e-9,
        "firehose rate {firehose_rate} != {rate}"
    );
    assert!(
        json_f64(&sampled_line, "band_max") > json_f64(&exact_line, "band_max"),
        "sampled band_max must exceed exact band_max:\nexact: {exact_line}\nsampled: {sampled_line}"
    );

    server.shutdown();
    let summary = server.wait();
    let exact = summary.tenants.get("exact").expect("exact outcome");
    assert_eq!(
        exact.bugs, fx.expected,
        "exact tenant verdict matches the offline check"
    );
    let sampled = summary.tenants.get("sampled").expect("sampled outcome");
    assert_eq!(
        sampled.bugs, expected_sampled,
        "sampled tenant verdict matches the offline check of the sampled trace"
    );
}

/// The daemon checks events as they arrive, so a sampling schedule
/// announced after the first events block comes too late: the session
/// is evicted with a reason naming it, and the prefix's verdict is kept.
#[test]
fn sampling_metadata_after_events_evicts_the_tenant() {
    let fx = webapp_fixture();
    let sampled = fx.trace.sampled(SamplerConfig::new(64, 8));
    // The sampled trace's frames are its sampling meta, its function
    // table, its events blocks and its index: move the meta behind the
    // first events block.
    let bytes = sampled.encode_binary();
    let frames = wire_frames(&bytes);
    let frame = |i: usize| &bytes[frames[i].clone()];
    let late: Vec<&[u8]> = vec![frame(1), frame(2), frame(0), frame(3)];
    let server = Server::start(
        ServeConfig::new(fx.model.clone()),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("start daemon");
    assert!(!hang_up(raw_session(server.ingest_addr(), "late", &late)));
    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            fleet.snapshot().evictions_total == 1
        }),
        "the late schedule never evicted"
    );
    server.shutdown();
    let outcome = server.wait().tenants.remove("late").expect("late outcome");
    assert_eq!(
        outcome.evicted.as_deref(),
        Some("malformed stream: sampling metadata after events")
    );
    assert!(outcome.partial && outcome.error.is_none(), "{outcome:?}");
    assert_eq!(outcome.events, heapmd::EVENTS_PER_BLOCK as u64);
}

/// Journal recovery forwards frames through the live dispatch, so a
/// sampling meta frame journaled behind an events frame (the live
/// handler journals a frame before it evicts the session for it)
/// evicts the tenant at restart too: the prefix's verdict is kept and
/// both journal files are deleted.
#[test]
fn recovery_evicts_a_journal_whose_sampling_metadata_follows_events() {
    let fx = webapp_fixture();
    let sampled = fx.trace.sampled(SamplerConfig::new(64, 8));
    let bytes = sampled.encode_binary();
    let frames = wire_frames(&bytes);
    let frame = |i: usize| &bytes[frames[i].clone()];
    let dir = scratch_dir("late-journal");
    // The file header, the function table, the first events block, and
    // only then the sampling meta frame.
    let journal = [&bytes[..8], frame(1), frame(2), frame(0)].concat();
    std::fs::write(dir.join("late.hmdt"), journal).expect("write journal");
    std::fs::write(
        dir.join("late.session.json"),
        r#"{"version":1,"tenant":"late","session":"s-1","completed":false}"#,
    )
    .expect("write session meta");

    let mut config = ServeConfig::new(fx.model.clone());
    config.journal_dir = Some(dir.clone());
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    assert_eq!(server.fleet().snapshot().evictions_total, 1);
    server.shutdown();
    let outcome = server.wait().tenants.remove("late").expect("late outcome");
    assert_eq!(
        outcome.evicted.as_deref(),
        Some("malformed stream: sampling metadata after events")
    );
    assert!(outcome.partial && outcome.error.is_none(), "{outcome:?}");
    // The prefix is the first events block, checked at full fidelity:
    // the schedule came too late to apply.
    let mut prefix = Trace::new();
    for ev in &sampled.events()[..heapmd::EVENTS_PER_BLOCK] {
        prefix.push(*ev);
    }
    prefix.set_functions(sampled.functions().to_vec());
    assert_eq!(outcome.events, heapmd::EVENTS_PER_BLOCK as u64);
    assert_eq!(
        outcome.bugs,
        prefix
            .check(&fx.model, &fx.model.settings)
            .expect("prefix check")
    );
    assert!(!dir.join("late.hmdt").exists(), "journal deleted");
    assert!(
        !dir.join("late.session.json").exists(),
        "session meta deleted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The eight events of a trace that once panicked the daemon's check
/// with a degree underflow: two objects over 1 MiB (held in the spill
/// index) allocated at one address, then stores and frees over both.
fn overlapping_allocations() -> Trace {
    use sim_heap::{Addr, AllocSite, HeapEvent, ObjectId};
    let alloc = |obj, addr, size| HeapEvent::Alloc {
        obj: ObjectId(obj),
        addr: Addr::new(addr),
        size,
        site: AllocSite(0),
    };
    let store = |src, value| HeapEvent::PtrWrite {
        src: ObjectId(src),
        offset: 8,
        value: Addr::new(value),
        old_value: None,
    };
    let free = |obj, addr, size| HeapEvent::Free {
        obj: ObjectId(obj),
        addr: Addr::new(addr),
        size,
    };
    let mut trace = Trace::new();
    for ev in [
        alloc(0, 4144, 1_048_640),
        store(0, 4176),
        alloc(1, 4144, 1_048_640),
        free(0, 4144, 1_048_640),
        store(1, 4144),
        alloc(2, 4128, 32),
        free(1, 4144, 1_048_640),
        free(2, 4128, 32),
    ] {
        trace.push(ev);
    }
    trace.set_functions(vec!["main".to_string()]);
    trace
}

/// A tenant whose allocations overlap is evicted alone: the daemon
/// serves the next tenant, and a daemon restarted over a journal that
/// holds the stream comes back up and evicts it again.
#[test]
fn overlapping_allocations_evict_only_their_tenant() {
    let fx = webapp_fixture();
    let bytes = overlapping_allocations().encode_binary();
    let frames = wire_frames(&bytes);
    let frame = |i: usize| &bytes[frames[i].clone()];
    let server = Server::start(
        ServeConfig::new(fx.model.clone()),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("start daemon");
    let all: Vec<&[u8]> = (0..frames.len()).map(frame).collect();
    assert!(!hang_up(raw_session(server.ingest_addr(), "overlap", &all)));
    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || {
            fleet.snapshot().evictions_total == 1
        }),
        "the overlapping stream was never evicted"
    );
    assert_eq!(
        push(server.ingest_addr(), "next", &fx.trace),
        fx.trace.len() as u64
    );
    server.shutdown();
    let mut summary = server.wait();
    let overlap = summary.tenants.remove("overlap").expect("overlap outcome");
    assert_eq!(
        overlap.evicted.as_deref(),
        Some("malformed stream: events the check cannot apply")
    );
    let next = summary.tenants.remove("next").expect("next outcome");
    assert!(!next.partial && next.evicted.is_none(), "{next:?}");
    assert_eq!(next.bugs, fx.expected);

    // The file header, the function table and the events block,
    // journaled by a daemon that went down before it checked them.
    let dir = scratch_dir("overlap-journal");
    let journal = [&bytes[..8], frame(0), frame(1)].concat();
    std::fs::write(dir.join("overlap.hmdt"), journal).expect("write journal");
    std::fs::write(
        dir.join("overlap.session.json"),
        r#"{"version":1,"tenant":"overlap","session":"s-1","completed":false}"#,
    )
    .expect("write session meta");
    let mut config = ServeConfig::new(fx.model.clone());
    config.journal_dir = Some(dir.clone());
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0")
        .expect("the daemon comes back up over the journal");
    assert_eq!(server.fleet().snapshot().evictions_total, 1);
    server.shutdown();
    let outcome = server
        .wait()
        .tenants
        .remove("overlap")
        .expect("overlap outcome");
    assert_eq!(
        outcome.evicted.as_deref(),
        Some("malformed stream: events the check cannot apply")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon-side sampling happens at ingest, so a full-fidelity tenant's
/// live gauges already show the filter's measured rate and bands
/// widened by it, and its verdict is the offline check's under the
/// same sampler.
#[test]
fn daemon_sampled_tenant_reports_its_live_rate_and_widened_bands() {
    let fx = webapp_fixture();
    let sampler = SamplerConfig::new(64, 8);
    let dir = scratch_dir("daemon-sampled");
    let path = dir.join("t.hmdt");
    fx.trace.save_binary(&path).expect("save trace");
    let expected = heapmd::check_path(
        &path,
        &fx.model,
        &fx.model.settings,
        false,
        1,
        Some(sampler),
    )
    .expect("offline sampled check");

    let mut config = ServeConfig::new(fx.model.clone());
    config.sampler = Some(sampler);
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    push(server.ingest_addr(), "resampled", &fx.trace);
    let fleet = server.fleet();
    assert!(
        wait_until(Duration::from_secs(30), || fleet.snapshot().connected == 0),
        "daemon never drained"
    );

    let metrics = http_get(server.http_addr(), "/metrics");
    let rate = scrape_tenant_gauge(&metrics, "heapmd_tenant_sample_rate", "resampled")
        .expect("sample-rate gauge");
    assert!(rate > 0.0 && rate < 1.0, "live rate {rate}:\n{metrics}");
    let bands = scrape_metric_family(&metrics, "heapmd_tenant_metric_band", "resampled");
    assert!(!bands.is_empty(), "no band gauges:\n{metrics}");
    let margin = fx.model.settings.range_margin;
    for sm in &fx.model.stable {
        let exact = sm.max - sm.min + 2.0 * margin;
        let (_, band) = bands
            .iter()
            .find(|(m, _)| m == sm.kind.short_name())
            .unwrap_or_else(|| panic!("no band for {}", sm.kind));
        assert!(
            *band > exact,
            "{}: band {band} is not wider than the exact {exact}",
            sm.kind
        );
    }

    server.shutdown();
    let outcome = server.wait().tenants.remove("resampled").expect("outcome");
    assert!(!outcome.partial && outcome.error.is_none(), "{outcome:?}");
    assert_eq!(
        outcome.bugs, expected.bugs,
        "serve --sample == check --sample"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
