//! One `serve` round: a `heapmd-cli serve` daemon fed by the library's
//! v2 push client over two connections.

use crate::cli::{parse_serve, path_arg, Cli, TenantSummary};
use crate::corpus::{Corpus, Item};
use heapmd::{push_trace_resumable, SessionOptions, Trace};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop client count: each connection pushes its next stream
/// only after the previous push returned.
pub const CONNECTIONS: usize = 2;

/// Per push: `(verdict-suite index, start, end)`.
type Pushes = Vec<(usize, Instant, Instant)>;

pub struct Round {
    /// First connect until the daemon exited after `GET /shutdown`.
    pub wall_ns: u64,
    pub events: u64,
    pub tenants: BTreeMap<String, TenantSummary>,
    /// `(tenant, error)` for every push that failed.
    pub push_errors: Vec<(String, String)>,
    /// `VmHWM` after the last verdict, before shutdown.
    pub peak_rss_kb: u64,
    /// `VmRSS` once the daemon was up, before the first push.
    pub base_rss_kb: u64,
    /// The verdict-suite indices pushed.
    pub picks: Vec<usize>,
    pub pushes: Pushes,
    pub last_push_end: Instant,
    pub last_verdict: Instant,
    pub ingest_busy_ns: u64,
    pub ingest_events: u64,
}

fn proc_status_kb(pid: u32, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    write!(s, "GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n")?;
    let mut body = String::new();
    s.read_to_string(&mut body)?;
    Ok(body)
}

/// Sum of an unlabelled counter in a Prometheus exposition.
fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

/// Tenants whose verdict is in: status `done` on `/fleet.jsonl` (a
/// completed stream stays `live` until its shard has finalized it).
fn done_tenants(http: &str) -> usize {
    http_get(http, "/fleet.jsonl")
        .map(|b| {
            b.lines()
                .filter(|l| l.contains("\"type\":\"tenant\"") && l.contains("\"status\":\"done\""))
                .count()
        })
        .unwrap_or(0)
}

struct Daemon {
    child: Child,
    ingest: String,
    http: String,
}

fn start_daemon(cli: &Cli, corpus: &Corpus) -> std::io::Result<Daemon> {
    let shared = &corpus.model(corpus.timing[0].program).path;
    let mut child = Command::new(&cli.bin)
        .args([
            "serve",
            "--model",
            &path_arg(shared),
            "--model-dir",
            &path_arg(&corpus.tenant_dir),
            "--listen",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.as_mut().expect("stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    // "fleet daemon up: ingest <addr> http <addr>"
    let words: Vec<&str> = line.split_whitespace().collect();
    match (words.get(4), words.get(6)) {
        (Some(ingest), Some(http)) => Ok(Daemon {
            ingest: ingest.to_string(),
            http: http.to_string(),
            child,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other(format!(
                "unexpected daemon banner {line:?}"
            )))
        }
    }
}

/// Events one round pushes at most.
pub const ROUND_EVENTS: u64 = 3_000_000;

/// The streams a round pushes, as indices into the verdict suite: each
/// program's first held-out clean recording, in program order, while
/// the total stays within `ROUND_EVENTS` (always at least one). These
/// inputs are the same on every seed: which streams overlap in the
/// daemon, and so its peak memory, follows from their lengths, and
/// seeded lengths made the peak swing by half from seed to seed.
pub fn picks(corpus: &Corpus) -> Vec<usize> {
    let mut total = 0;
    let mut out = Vec::new();
    for p in corpus.programs() {
        let Some(i) = corpus
            .verdict
            .iter()
            .position(|t| t.program == p && t.bug.is_none())
        else {
            continue;
        };
        let events = corpus.verdict[i].events();
        if !out.is_empty() && total + events > ROUND_EVENTS {
            continue;
        }
        total += events;
        out.push(i);
    }
    out
}

/// Pushes the verdict-suite streams `picks` through a fresh daemon and
/// collects its verdicts. The `k`-th stream goes to connection
/// `k % CONNECTIONS`.
pub fn round(cli: &Cli, corpus: &Corpus, picks: &[usize]) -> std::io::Result<Round> {
    let mut daemon = start_daemon(cli, corpus)?;
    let pid = daemon.child.id();
    let base_rss_kb = proc_status_kb(pid, "VmRSS:");
    let items: Vec<&Item> = picks.iter().map(|&i| &corpus.verdict[i]).collect();
    let items = &items;
    let t0 = Instant::now();
    let per_conn: Vec<(Pushes, Vec<(String, String)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let ingest = daemon.ingest.as_str();
                scope.spawn(move || {
                    let mut pushes = Vec::new();
                    let mut errors = Vec::new();
                    for (k, item) in items.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let i = picks[k];
                        // Loading the recording is the client's own
                        // work (as in `heapmd-cli push`): inside the
                        // round's clock, outside the push span.
                        let pushed = Trace::load_binary(&item.path).and_then(|trace| {
                            let start = Instant::now();
                            let r = push_trace_resumable(
                                ingest,
                                &item.tenant,
                                &trace,
                                SessionOptions::default(),
                            );
                            pushes.push((i, start, Instant::now()));
                            r
                        });
                        if let Err(e) = pushed {
                            errors.push((item.tenant.clone(), e.to_string()));
                        }
                    }
                    (pushes, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("push thread panicked"))
            .collect()
    });
    let mut pushes = Vec::new();
    let mut push_errors = Vec::new();
    for (p, e) in per_conn {
        pushes.extend(p);
        push_errors.extend(e);
    }
    let last_push_end = pushes.iter().map(|p| p.2).max().unwrap_or(t0);
    // Wait for the last verdict (bounded, in case a stream never ends).
    let deadline = Instant::now() + Duration::from_secs(60);
    let want = items.len() - push_errors.len();
    while done_tenants(&daemon.http) < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let last_verdict = Instant::now();
    let peak_rss_kb = proc_status_kb(pid, "VmHWM:");
    let metrics = http_get(&daemon.http, "/metrics").unwrap_or_default();
    let _ = http_get(&daemon.http, "/shutdown");
    let mut out = String::new();
    if let Some(mut stdout) = daemon.child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    let _ = daemon.child.wait();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(Round {
        wall_ns,
        events: items.iter().map(|i| i.events()).sum(),
        tenants: parse_serve(&out),
        push_errors,
        peak_rss_kb,
        base_rss_kb,
        picks: picks.to_vec(),
        pushes,
        last_push_end,
        last_verdict,
        ingest_busy_ns: prom_value(&metrics, "serve_ingest_busy_ns_total"),
        ingest_events: prom_value(&metrics, "serve_ingest_events_total"),
    })
}

/// Stops a daemon left behind by an early return (never on the happy
/// path, which waits for the daemon's own exit).
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
