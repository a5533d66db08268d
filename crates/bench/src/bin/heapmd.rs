//! `heapmd` — command-line front end for the reproduction.
//!
//! ```text
//! heapmd list                                   # programs and catalogued bugs
//! heapmd run <program> [--input K] [--version V] [--bug FAULT]
//!                      [--trace-out FILE] [--sample] [--sample-hot-threshold N]
//!                      [--sample-decimation N] [--model FILE] [--incidents DIR]
//! heapmd train <program> [--inputs N] [--version V] [--out FILE]
//!                        [--checkpoint-every N] [--resume] [--threads N]
//! heapmd check --model FILE --trace FILE [--trace FILE …] [--jobs N] [--shards N]
//!              [--salvage] [--sample]
//! heapmd replay …                               # the same command as check
//! heapmd inspect <artifact> [--salvage]         # bundle or trace, by magic
//! heapmd serve --model FILE [--listen ADDR] [--http ADDR] [--incidents DIR]
//!              [--prom-dump FILE] [--journal-dir DIR] [--model-dir DIR]
//!              [--session-timeout-ms N]
//!              [--sample] [--sample-hot-threshold N] [--sample-decimation N]
//! heapmd query --store DIR [--workload NAME] [--version V] [--kind K]
//!              [--metric ID …] [--agg stats|drift] [--format tsv|jsonl]
//! heapmd top --connect ADDR [--once] [--interval-ms N]
//! heapmd push --to ADDR --tenant NAME --trace FILE [--salvage] [--sample] [--sample-hot-threshold N] [--sample-decimation N]
//!             [--session ID] [--retry N] [--backoff-ms N]
//! ```
//!
//! `run` is the only command that executes a program under the logger:
//! with `--model` it is the paper's online check, with `--trace-out` it
//! records the trace that `check --trace` later checks post-mortem
//! (`replay` is another name for `check`). Every subcommand refuses
//! (exit 2) a flag it does not read and a word beyond its positionals
//! (`run`, `train` and `inspect` take one, the others none). Models
//! calibrate the paper's seven degree metrics; a model file from an
//! older build that names another metric or carries locally stable
//! bands is refused by name (exit 1) — retrain it.
//!
//! Robustness features:
//!
//! - `run --trace-out FILE` streams the block-based binary codec
//!   ([`heapmd::BinaryTraceWriter`], `HMDB1`) as the run goes into
//!   `FILE.tmp`, so memory stays flat, and renames it over `FILE` once
//!   the trace is complete: a reader sees the old recording or the
//!   whole new one, and a run that fails leaves the old one. If the
//!   process is killed mid-way, `check --salvage FILE.tmp` recovers the
//!   blocks that were flushed.
//! - `train --checkpoint-every N` writes an atomic resume checkpoint
//!   (`<out>.ckpt`) after every N training inputs, in the CRC-protected
//!   binary container; `train --resume` produces the same model an
//!   uninterrupted run would have.
//! - `check --trace` / `push` / `inspect` read binary (`HMDB1`) traces,
//!   recognized by magic bytes, and refuse (exit 1) a file of the
//!   retired framed-JSONL format (`HMDT1`) by name; `--salvage`
//!   accepts damaged inputs and reports what was lost.
//! - `train` runs its inputs on every available core (`--threads N`
//!   caps the workers at N) and folds each run into the model in input
//!   order as soon as it and every earlier run are done, so models and
//!   checkpoints are byte-identical at any worker count, and a
//!   checkpoint is cut while later runs are still in flight.
//! - `check --trace A --trace B … --jobs N` fans offline trace checks
//!   across the same worker pool with deterministic input-order output
//!   (every available core by default; `--jobs N` caps the workers at
//!   N, and one trace runs on the calling thread).
//! - A closed stdout (`heapmd list | head -1`) ends the process with
//!   status 141 (128 + SIGPIPE) and nothing on stderr.
//! - `run --model FILE [--incidents DIR]` attaches the anomaly
//!   detector with the flight recorder enabled: every surviving range
//!   violation is written as a CRC-framed incident bundle, which
//!   `inspect` renders as the verdict `run` printed, ASCII charts with
//!   the calibrated bounds, and the armed-window stack digest
//!   (`inspect --salvage` recovers damaged bundles).
//! - `serve` runs the fleet daemon ([`heapmd::Server`]): concurrent
//!   binary trace streams over TCP or `unix:` sockets, per-tenant
//!   verdicts bit-identical to `check`, Prometheus `/metrics` plus
//!   `/fleet.tsv` / `/fleet.jsonl` rollups over HTTP, graceful
//!   shutdown via `GET /shutdown`. `run --serve ADDR --tenant NAME`
//!   streams a live run into the daemon (not with `--sample`, whose
//!   measured rate is only known at the end: sample daemon-side with
//!   `serve --sample` instead); `push` replays a recorded trace into
//!   it; `top` renders a live dashboard from the rollups.
//! - `push` and `run --serve` speak the resumable session protocol
//!   (`HMDSERVE2`): bounded retry with jittered exponential backoff
//!   (`--retry`, `--backoff-ms`), a local spill buffer of unacked
//!   blocks, and transparent resume from the last daemon-acked block
//!   after a disconnect. With `serve --journal-dir DIR` the daemon
//!   journals every acked block, so sessions even survive a daemon
//!   crash/restart; `serve --model-dir DIR` checks each tenant against
//!   `DIR/<tenant>.hmdm` when present, falling back to the shared
//!   `--model`.
//! - `--run-store DIR` (on `run` / `train` / `check` / `serve`) appends
//!   one columnar row per metric computation point to an append-only
//!   run store ([`heapmd_runstore`]); `query` then answers cross-run
//!   and cross-version questions (filters, metric projections,
//!   percentile stats, drift matrices) by columnar scan alone —
//!   damaged segments degrade instead of failing the scan.
//!
//! Global flags (any subcommand):
//!
//! - `--log-level off|error|warn|info|debug|trace` — stderr verbosity
//!   (defaults to the `HEAPMD_LOG` environment variable, then `warn`);
//! - `--obs-out FILE.jsonl` — enable instrumentation and stream
//!   structured events (heartbeats, anomalies, logs, final counter
//!   totals) as JSON lines;
//! - `--obs-prom FILE` — enable instrumentation and dump all metrics in
//!   Prometheus text exposition format on exit;
//! - `--trace-events FILE` — collect span timings and write a Chrome
//!   trace-event JSON on exit (openable in about:tracing / Perfetto).
//!
//! Models are the JSON "summarized metric reports" of the paper's
//! Figure 2; traces are streamed with [`heapmd::Process::stream_trace_to`].

use faults::FaultPlan;
use heapmd::persist::AtomicFile;
use heapmd::plot::{chart, RefLine};
use heapmd::run_rows::{rows_from_samples, unix_time_now, RowSource};
use heapmd::{
    available_workers, render_verdicts, AnomalyDetector, ArtifactKind, BinaryTraceImage, HeapModel,
    IncidentBundle, IncidentLog, LogPhase, ModelBuilder, Process, SalvageStats, Trace,
    TrainCheckpoint,
};
use heapmd_obs::{debug, error, info};
use heapmd_runstore::{
    drift_by_version, MetricStats, RowFilter, RowKind, RunRow, RunStore, ENCODING_NAMES,
};
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use workloads::bugs::{CATALOG, SWAT_ONLY};
use workloads::harness::{run_many, settings_for, FLIGHT_RECORDER_POINTS};
use workloads::{commercial_at_version, registry, Input, Workload, WorkloadKind};

// Every `print!`/`println!` below goes through `write_stdout`, which
// exits quietly when stdout is closed instead of panicking.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. A reader that went away (`heapmd list | head -1`)
/// ends the process with status 141, 128 + SIGPIPE, as a shell tool
/// killed by the signal would, and nothing on stderr.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn find_program(name: &str, version: u8) -> Option<Box<dyn Workload>> {
    let w = registry().into_iter().find(|w| w.name() == name)?;
    Some(if w.kind() == WorkloadKind::Commercial && version != 1 {
        commercial_at_version(name, version)
    } else {
        w
    })
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses `flag`'s value, exiting with a usage error (code 2) instead of
/// panicking when it is not a valid number.
fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, what: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} takes {what}, got {v:?}");
            std::process::exit(2);
        }),
    }
}

/// Collects every value of a repeatable flag, in order.
fn arg_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Returns the positional words of `args`, exiting with a usage error
/// (code 2) that names the first `--flag` subcommand `cmd` does not
/// read, or the first word beyond its `positionals`. `values` lists
/// the flags that take an argument (skipped unread), `switches` those
/// that stand alone, both whitespace-separated.
fn known_flags(
    cmd: &str,
    args: &[String],
    values: &str,
    switches: &str,
    positionals: usize,
) -> Vec<String> {
    let mut words = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if values.split_whitespace().any(|f| f == a) {
            rest.next();
        } else if a.starts_with("--") && !switches.split_whitespace().any(|f| f == a) {
            eprintln!("`heapmd {cmd}` does not take {a}");
            std::process::exit(2);
        } else if !a.starts_with("--") {
            if words.len() == positionals {
                eprintln!("`heapmd {cmd}` does not take the argument {a}");
                std::process::exit(2);
            }
            words.push(a.clone());
        }
    }
    words
}

/// The production-overhead sampling flags shared by `run`, `check`,
/// `serve`, and `push`: `--sample` turns the adaptive store sampler on
/// at the production default; `--sample-hot-threshold N` and
/// `--sample-decimation N` tune it (either implies `--sample`).
fn sampler_flag(args: &[String]) -> Option<heapmd::SamplerConfig> {
    let tuned = arg_value(args, "--sample-hot-threshold").is_some()
        || arg_value(args, "--sample-decimation").is_some();
    if !tuned && !args.iter().any(|a| a == "--sample") {
        return None;
    }
    let d = heapmd::SamplerConfig::default();
    let decimation: u64 = num_flag(args, "--sample-decimation", "a number", d.decimation);
    if decimation == 0 {
        eprintln!("--sample-decimation must be positive (1 = exact passthrough)");
        std::process::exit(2);
    }
    Some(heapmd::SamplerConfig::new(
        num_flag(args, "--sample-hot-threshold", "a number", d.hot_threshold),
        decimation,
    ))
}

/// Removes `flag` and its value from `args`, returning the value.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Opens the `--run-store DIR` store when the flag is present. An
/// unopenable directory fails fast (exit 1) before any work runs.
fn run_store_flag(args: &[String]) -> Option<RunStore> {
    let dir = arg_value(args, "--run-store")?;
    match RunStore::open(&dir) {
        Ok(s) => Some(s),
        Err(e) => {
            error!("cannot open run store {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// Appends rows to the run store, degrading to a logged error: the run
/// itself already succeeded, so a dead store must not fail the command.
fn append_rows(store: &RunStore, rows: &[RunRow]) {
    match store.append(rows) {
        Ok(path) => info!(
            "{} run-store row(s) appended to {}",
            rows.len(),
            path.display()
        ),
        Err(e) => error!("run-store append to {} failed: {e}", store.dir().display()),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  heapmd list\n  heapmd run <program> [--input K] [--version V] [--bug FAULT_ID] [--sample] [--sample-hot-threshold N] [--sample-decimation N] [--trace-out FILE] [--model FILE] [--incidents DIR] [--run-store DIR] [--serve ADDR [--tenant NAME] [--session ID] [--retry N] [--backoff-ms N]]\n  heapmd train <program> [--inputs N] [--version V] [--out FILE] [--checkpoint-every N] [--checkpoint FILE] [--resume] [--threads N (default: every core)] [--run-store DIR]\n  heapmd check --model FILE --trace FILE [--trace FILE ...] [--jobs N (default: every core)] [--shards N] [--salvage] [--sample] [--sample-hot-threshold N] [--sample-decimation N] [--run-store DIR] [--version V]\n  heapmd replay ...  (the same command as check)\n  heapmd inspect <artifact> [--salvage]\n  heapmd serve --model FILE [--listen ADDR] [--http ADDR] [--incidents DIR] [--prom-dump FILE] [--journal-dir DIR] [--model-dir DIR] [--session-timeout-ms N] [--sample] [--sample-hot-threshold N] [--sample-decimation N] [--run-store DIR]\n  heapmd query --store DIR [--workload NAME] [--version V] [--run ID] [--tenant NAME] [--kind train|run|check|serve] [--since T] [--until T] [--metric ID ...] [--agg stats|drift] [--format tsv|jsonl] [--limit N] [--describe]\n  heapmd top --connect ADDR [--once] [--interval-ms N]\n  heapmd push --to ADDR --tenant NAME --trace FILE [--salvage] [--sample] [--sample-hot-threshold N] [--sample-decimation N] [--session ID] [--retry N] [--backoff-ms N]\nglobal flags: [--log-level LEVEL] [--obs-out FILE.jsonl] [--obs-prom FILE] [--trace-events FILE]"
    );
    std::process::exit(2);
}

fn cmd_list(args: &[String]) -> i32 {
    known_flags("list", args, "", "", 0);
    println!("programs:");
    for w in registry() {
        let kind = match w.kind() {
            WorkloadKind::Spec => "spec",
            WorkloadKind::Commercial => "commercial (versions 1-5)",
        };
        println!("  {:<14} {kind}", w.name());
    }
    println!("\ncatalogued bugs (enable with `run --bug <fault>`):");
    for b in &CATALOG {
        println!(
            "  {:<44} {:<24} {}",
            b.fault.0,
            b.category.to_string(),
            b.description
        );
    }
    println!("\nSWAT-only leak scenarios:");
    for l in &SWAT_ONLY {
        println!(
            "  {:<44} {:<24} {}",
            l.fault.0,
            l.detection.to_string(),
            l.description
        );
    }
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let words = known_flags(
        "run",
        args,
        "--input --version --bug --trace-out --model --incidents \
         --run-store --serve --tenant --session --retry --backoff-ms \
         --sample-hot-threshold --sample-decimation",
        "--sample",
        1,
    );
    let Some(program) = words.first() else {
        usage()
    };
    let input_id: u32 = num_flag(args, "--input", "a number", 1000u32);
    let version: u8 = num_flag(args, "--version", "1-5", 1u8);
    let trace_out = arg_value(args, "--trace-out");
    let model_path = arg_value(args, "--model");
    let incident_dir = arg_value(args, "--incidents");
    let Some(w) = find_program(program, version) else {
        error!("unknown program {program} (see `heapmd list`)");
        return 1;
    };
    let settings = settings_for(w.as_ref());
    let mut plan = fault_plan_for(args);
    let run_store = run_store_flag(args);
    info!(
        "running {program} v{version} on input {input_id} (frq {})",
        settings.frq
    );
    let mut p = Process::new(settings.clone());
    if let Some(config) = sampler_flag(args) {
        info!(
            "store sampling on: full fidelity for a site's first {} stores, 1/{} after",
            config.hot_threshold, config.decimation
        );
        p.enable_sampling(config);
    }
    // With a model, the run doubles as a flight-recorded check: the
    // detector rides along and emits incident bundles when it fires.
    let detector = match &model_path {
        Some(path) => match HeapModel::load(path) {
            Ok(model) => {
                let det = Rc::new(RefCell::new(AnomalyDetector::new(model, settings)));
                if let Some(dir) = &incident_dir {
                    det.borrow_mut()
                        .log_incidents_to(IncidentLog::new(dir, w.name()));
                }
                p.enable_flight_recorder(FLIGHT_RECORDER_POINTS);
                p.attach(det.clone());
                Some(det)
            }
            Err(e) => {
                error!("cannot load model {path}: {e}");
                return 1;
            }
        },
        None => {
            if incident_dir.is_some() {
                eprintln!("--incidents requires --model (nothing detects without one)");
                return 2;
            }
            None
        }
    };
    let serve_addr = arg_value(args, "--serve");
    let mut trace_file = None;
    if let Some(path) = &trace_out {
        if serve_addr.is_some() {
            eprintln!("--serve and --trace-out are mutually exclusive (one stream sink per run)");
            return 2;
        }
        // The trace streams into `<path>.tmp` and is renamed over
        // `path` once complete, so a concurrent reader sees the old
        // recording or the new one, and a failed run leaves the old.
        let (file, handle) = match AtomicFile::create(path).and_then(|f| {
            let handle = f.try_clone()?;
            Ok((f, handle))
        }) {
            Ok(pair) => pair,
            Err(e) => {
                error!("cannot open --trace-out {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = p.stream_trace_to(Box::new(std::io::BufWriter::new(handle))) {
            error!("cannot start trace stream: {e}");
            return 1;
        }
        trace_file = Some(file);
    } else if let Some(addr) = &serve_addr {
        if p.sampling_info().is_some() {
            eprintln!(
                "--serve cannot stream a --sample run: the daemon checks events as they \
                 arrive, and the measured sampling rate is only known at the end \
                 (use `serve --sample` to sample daemon-side)"
            );
            return 2;
        }
        // Live fleet streaming: the run streams exactly what
        // `--trace-out` would have written to disk.
        let tenant = arg_value(args, "--tenant").unwrap_or_else(|| format!("{program}-{input_id}"));
        let sink = match heapmd::connect_session(addr, &tenant, session_options(args)) {
            Ok(s) => s,
            Err(e) => {
                error!("cannot connect to fleet daemon {addr}: {e}");
                return 1;
            }
        };
        info!("streaming live trace to {addr} as tenant {tenant}");
        if let Err(e) = p.stream_trace_to(Box::new(std::io::BufWriter::new(sink))) {
            error!("cannot start serve stream: {e}");
            return 1;
        }
    }
    if let Err(e) = w.run(&mut p, &mut plan, &Input::new(input_id)) {
        error!("workload run failed: {e}");
        return 1;
    }
    if trace_out.is_some() || serve_addr.is_some() {
        let sink_name = trace_out.as_deref().or(serve_addr.as_deref()).unwrap_or("");
        match p.finish_stream().and_then(|events| {
            if let Some(file) = trace_file.take() {
                file.publish()?;
            }
            Ok(events)
        }) {
            Ok(events) => println!("{events} events streamed to {sink_name}"),
            Err(e) => {
                // The run itself succeeded; a dead trace sink is a
                // degraded outcome, not a failed one.
                error!("trace stream to {sink_name} failed: {e}");
            }
        }
    }
    let stats = *p.heap().stats();
    let live = p.heap().live_objects();
    let sampling = p.sampling_info();
    let report = p.finish(format!("{program}:{input_id}"));
    println!(
        "{} metric computation points over {} allocs / {} frees / {} ptr stores ({} objects live at exit)",
        report.samples.len(),
        stats.allocs,
        stats.frees,
        stats.ptr_writes,
        live,
    );
    if let Some(info) = sampling {
        println!(
            "store sampling: {} of {} stores kept (effective rate {:.4})",
            info.kept_stores,
            info.total_stores,
            info.rate()
        );
    }
    if let Some(last) = report.samples.last() {
        println!(
            "final graph: {} nodes, {} edges, {} dangling slots",
            last.nodes, last.edges, last.dangling
        );
    }
    if let Some(store) = &run_store {
        let src = RowSource {
            workload: program.clone(),
            version: u64::from(version),
            run: format!("input-{input_id}"),
            tenant: String::new(),
            kind: RowKind::Run,
            time: unix_time_now(),
            sample_rate: report.sample_rate,
        };
        append_rows(store, &rows_from_samples(&src, &report.samples));
    }
    if let Some(det) = detector {
        let mut d = det.borrow_mut();
        let bugs = d.take_bugs();
        for path in d.incident_log().map(|l| l.paths()).unwrap_or_default() {
            println!("incident bundle written to {}", path.display());
        }
        if !bugs.is_empty() {
            println!("{} anomaly report(s):", bugs.len());
            print!("{}", render_verdicts(&bugs));
            return 3;
        }
        println!("no anomalies against {}", model_path.unwrap_or_default());
    }
    0
}

/// `train`'s default `--inputs`.
const TRAIN_INPUTS: NonZeroUsize = NonZeroUsize::new(10).unwrap();

fn cmd_train(args: &[String]) -> i32 {
    let words = known_flags(
        "train",
        args,
        "--inputs --version --out --checkpoint-every --threads --checkpoint --run-store",
        "--resume",
        1,
    );
    let Some(program) = words.first() else {
        usage()
    };
    let inputs = num_flag(args, "--inputs", "a positive number", TRAIN_INPUTS).get();
    let version: u8 = num_flag(args, "--version", "1-5", 1u8);
    let out = arg_value(args, "--out").unwrap_or_else(|| format!("{program}.heapmd.json"));
    let checkpoint_every: u64 = num_flag(args, "--checkpoint-every", "a number", 0u64);
    // Every core by default; `--threads N` caps the workers at N.
    let threads = num_flag(args, "--threads", "a positive number", available_workers()).get();
    let resume = args.iter().any(|a| a == "--resume");
    let ckpt_path = arg_value(args, "--checkpoint").unwrap_or_else(|| format!("{out}.ckpt"));
    // Test hook: slow training down so the chaos suite can SIGKILL the
    // process mid-run deterministically.
    let throttle_ms: u64 = std::env::var("HEAPMD_TRAIN_THROTTLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let Some(w) = find_program(program, version) else {
        error!("unknown program {program} (see `heapmd list`)");
        return 1;
    };
    let settings = settings_for(w.as_ref());
    info!(
        "training {program} v{version} on {inputs} inputs (frq {})",
        settings.frq
    );
    let run_store = run_store_flag(args);
    let (mut builder, start) = if resume && Path::new(&ckpt_path).exists() {
        match TrainCheckpoint::load(&ckpt_path).and_then(ModelBuilder::from_checkpoint) {
            Ok((b, next)) => {
                println!("resuming from {ckpt_path}: {next} of {inputs} inputs already done");
                (b, next)
            }
            Err(e) => {
                error!("cannot resume from {ckpt_path}: {e}");
                return 1;
            }
        }
    } else {
        if resume {
            info!("no checkpoint at {ckpt_path}; training from scratch");
        }
        (ModelBuilder::new(settings.clone()).program(w.name()), 0)
    };
    let all_inputs = Input::set(inputs);
    let pending = &all_inputs[(start as usize).min(all_inputs.len())..];
    // The pending runs execute on the worker pool; the sink folds each
    // report in input order as soon as it and every earlier one are
    // done, so the model and every checkpoint are byte-identical to a
    // sequential loop's, and checkpoints are cut while later runs are
    // still in flight.
    let mut store_rows: Vec<RunRow> = Vec::new();
    let folded = run_many(w.as_ref(), pending, &settings, threads, |i, report| {
        let input = &pending[i];
        debug!(
            "training input {} contributed {} samples",
            input.id,
            report.samples.len()
        );
        if run_store.is_some() {
            let src = RowSource {
                workload: w.name().to_string(),
                version: u64::from(version),
                run: format!("input-{}", input.id),
                tenant: String::new(),
                kind: RowKind::Train,
                time: unix_time_now(),
                // Training always runs exact: calibration at full
                // fidelity, rate recorded in the model artifact.
                sample_rate: 1.0,
            };
            store_rows.extend(rows_from_samples(&src, &report.samples));
        }
        builder.add_run(&report);
        let done = start + i as u64 + 1;
        if checkpoint_every > 0 && done.is_multiple_of(checkpoint_every) {
            builder
                .checkpoint(done)
                .save(&ckpt_path)
                .map_err(|e| format!("checkpoint write to {ckpt_path} failed: {e}"))?;
            debug!("checkpointed {done}/{inputs} inputs to {ckpt_path}");
        }
        if throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(throttle_ms));
        }
        Ok::<(), String>(())
    });
    if let Err(e) = folded {
        error!("{e}");
        return 1;
    }
    let outcome = builder.build();
    for sm in outcome.model.stable_metrics() {
        println!(
            "stable {:<9} [{:6.2}, {:6.2}]  avg chg {:+.2}%  σ {:.2}  ({}/{} runs)",
            sm.kind.short_name(),
            sm.min,
            sm.max,
            sm.avg_change,
            sm.std_change,
            sm.stable_runs,
            sm.total_runs
        );
    }
    if !outcome.flagged_runs.is_empty() {
        println!("suspect training inputs: {:?}", outcome.flagged_runs);
    }
    if let Err(e) = outcome.model.save(&out) {
        error!("cannot write model to {out}: {e}");
        return 1;
    }
    if checkpoint_every > 0 || resume {
        // The model is safely on disk; the checkpoint has served its
        // purpose. A resumed run consumes its checkpoint even when it
        // no longer writes new ones, so a later `--resume` cannot pick
        // up a stale state.
        std::fs::remove_file(&ckpt_path).ok();
    }
    if let Some(store) = &run_store {
        append_rows(store, &store_rows);
    }
    println!("model written to {out}");
    0
}

/// `check --model FILE --trace A [--trace B …] [--jobs N] [--salvage]`
/// (also spelled `replay`): fans the trace checks across the worker
/// pool and prints per-trace verdicts **in input order** regardless of
/// worker scheduling, each as soon as it and every earlier one are in,
/// each salvaged trace's recovery line first. With `--run-store`, each trace's metric samples append
/// as `check` rows.
fn cmd_check(args: &[String]) -> i32 {
    known_flags(
        "check",
        args,
        "--model --trace --jobs --shards --run-store --version \
         --sample-hot-threshold --sample-decimation",
        "--salvage --sample",
        0,
    );
    let trace_paths = arg_values(args, "--trace");
    if trace_paths.is_empty() {
        eprintln!(
            "`heapmd check` checks recorded traces and needs --trace FILE \
             (check a live run with `heapmd run <program> --model FILE`)"
        );
        return 2;
    }
    let Some(model_path) = arg_value(args, "--model") else {
        usage()
    };
    // Every core by default; `--jobs N` caps the workers at N.
    let jobs = num_flag(args, "--jobs", "a positive number", available_workers()).get();
    // Graph shards: 1 is the single-slab graph; observables are
    // bit-identical at every count.
    let shards = num_flag(args, "--shards", "a positive number", NonZeroUsize::MIN).get();
    let salvage = args.iter().any(|a| a == "--salvage");
    let model = match HeapModel::load(&model_path) {
        Ok(m) => m,
        Err(e) => {
            error!("cannot load model {model_path}: {e}");
            return 1;
        }
    };
    let run_store = run_store_flag(args);
    let version: u64 = num_flag(args, "--version", "a number", 0u64);
    // `--sample` re-samples full-fidelity recordings through the
    // adaptive filter before checking (already-sampled traces keep
    // their recorded schedule — re-decimating would double-drop).
    let sampler = sampler_flag(args);
    let paths: Vec<PathBuf> = trace_paths.iter().map(PathBuf::from).collect();
    info!("checking {} trace(s) with {jobs} job(s)", paths.len());
    let (mut failed, mut anomalies) = (false, false);
    let check =
        |i: usize| heapmd::check_path(&paths[i], &model, &model.settings, salvage, shards, sampler);
    // Each verdict prints as soon as it and every earlier one are in.
    let Ok(()) = heapmd::run_pool_streaming("check_pool", paths.len(), jobs, check, |i, result| {
        let path = &trace_paths[i];
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                failed = true;
                error!("{path}: {e}");
                if !salvage && matches!(e, heapmd::HeapMdError::Corrupt { .. }) {
                    eprintln!("hint: `--salvage` recovers what a damaged trace still holds");
                }
                return Ok(());
            }
        };
        if let Some(stats) = &out.salvage {
            report_salvage(path, stats);
        }
        let rate = out.sampling.map_or(1.0, |s| s.rate());
        if let Some(store) = &run_store {
            let src = RowSource {
                workload: model.program.clone(),
                version,
                run: path.clone(),
                tenant: String::new(),
                kind: RowKind::Check,
                time: unix_time_now(),
                sample_rate: rate,
            };
            append_rows(store, &rows_from_samples(&src, &out.samples));
        }
        let sampled = match sampler {
            Some(_) => format!(" (sampled at {rate:.4})"),
            None => String::new(),
        };
        if out.bugs.is_empty() {
            println!("{path}: no anomalies{sampled}");
            return Ok(());
        }
        anomalies = true;
        println!("{path}: {} anomaly report(s){sampled}:", out.bugs.len());
        print!("{}", render_verdicts(&out.bugs));
        Ok::<(), std::convert::Infallible>(())
    });
    if failed {
        1
    } else if anomalies {
        3
    } else {
        0
    }
}

/// Chart geometry for `inspect`.
const CHART_WIDTH: usize = 64;
const CHART_HEIGHT: usize = 10;

/// Renders an incident bundle: its verdict as `run` prints it, the
/// capture (slope, where, armed since), per-series charts (the
/// offending metric gets its calibrated bounds as reference lines),
/// the degree histogram, and the stack digest.
fn render_bundle(bundle: &IncidentBundle) -> String {
    let m = &bundle.report;
    let mut out = render_verdicts(std::slice::from_ref(m));
    out.push_str(&format!(
        "slope    {:+.3}\nwhere    sample #{} ({} fn entries), {} samples seen",
        bundle.slope, m.sample_seq, m.fn_entries, bundle.samples_seen
    ));
    match bundle.armed_at_seq {
        Some(at) => out.push_str(&format!(", armed since sample #{at}\n")),
        None => out.push('\n'),
    }

    let offending = format!("metric.{}", m.metric.short_name());
    if bundle.series.is_empty() {
        out.push_str("\n(no flight-recorder series captured)\n");
    }
    for s in &bundle.series {
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        let refs: &[RefLine] = if s.name == offending {
            &[
                RefLine {
                    value: m.range.0,
                    glyph: '-',
                    label: "min",
                },
                RefLine {
                    value: m.range.1,
                    glyph: '=',
                    label: "max",
                },
            ]
        } else {
            &[]
        };
        let title = format!(
            "\n{} (stride {}, {} of {} points)",
            s.name,
            s.stride,
            ys.len(),
            s.seen
        );
        out.push_str(&chart(&title, &ys, CHART_WIDTH, CHART_HEIGHT, refs));
    }

    if let Some(d) = &bundle.degrees {
        out.push_str(&format!(
            "\nheap-graph degree histogram ({} nodes, {} with indeg == outdeg):\n",
            d.nodes, d.in_eq_out
        ));
        let fmt_row = |label: &str, buckets: &[u64]| -> String {
            let cells: Vec<String> = buckets
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    if i + 1 == buckets.len() {
                        format!("{}+:{n}", i)
                    } else {
                        format!("{i}:{n}")
                    }
                })
                .collect();
            format!("  {label:<7} {}\n", cells.join("  "))
        };
        out.push_str(&fmt_row("indeg", &d.indeg));
        out.push_str(&fmt_row("outdeg", &d.outdeg));
        // v2 bundles carry the sparse full-resolution distributions; v1
        // bundles only have the bucketed view above.
        let full_row = |label: &str, pairs: &[(u32, u64)]| -> String {
            let cells: Vec<String> = pairs.iter().map(|&(d, n)| format!("{d}:{n}")).collect();
            format!("  {label:<11} {}\n", cells.join("  "))
        };
        if !d.indeg_full.is_empty() || !d.outdeg_full.is_empty() {
            out.push_str("\nfull degree distribution (degree:count, no overflow bucket):\n");
            out.push_str(&full_row("indeg full", &d.indeg_full));
            out.push_str(&full_row("outdeg full", &d.outdeg_full));
        }
    }

    if !m.context.is_empty() {
        out.push_str(&format!(
            "\narmed-window stack digest ({} entries):\n",
            m.context.len()
        ));
        for entry in &m.context {
            let phase = match entry.phase {
                LogPhase::Before => "before",
                LogPhase::During => "DURING",
                LogPhase::After => "after",
            };
            let stack = if entry.stack.is_empty() {
                "(no stack)".to_string()
            } else {
                entry.stack.join(" > ")
            };
            out.push_str(&format!(
                "  [{phase:<6}] tick {:<8} {:<32} {stack}\n",
                entry.tick, entry.event
            ));
        }
    }
    out
}

fn cmd_inspect(args: &[String]) -> i32 {
    let words = known_flags("inspect", args, "", "--salvage", 1);
    let Some(path) = words.first() else { usage() };
    let salvage = args.iter().any(|a| a == "--salvage");
    // The magic bytes pick the renderer; the extension is advisory
    // only, so a mis-named artifact still inspects correctly and an
    // unrecognized one gets a typed error instead of a parse panic.
    let kind = match heapmd::sniff_file(path) {
        Ok(k) => k,
        Err(e) => {
            error!("cannot read {path}: {e}");
            return 1;
        }
    };
    match kind {
        ArtifactKind::IncidentBundle => inspect_bundle(path, salvage),
        ArtifactKind::BinaryTrace => inspect_binary_trace(path, salvage),
        other => {
            error!(
                "{path}: {other} — inspect reads binary traces (HMDB1) and incident bundles (HMDI1)"
            );
            1
        }
    }
}

/// `inspect` on a binary `.hmdt` trace: block/index summary instead of
/// charts. Salvage mode reports what an incomplete file still holds.
fn inspect_binary_trace(path: &str, salvage: bool) -> i32 {
    if salvage {
        let (trace, stats) = match Trace::salvage_binary(path) {
            Ok(r) => r,
            Err(e) => {
                error!("cannot salvage {path}: {e}");
                return 1;
            }
        };
        report_salvage(path, &stats);
        println!("binary trace {path} (salvaged)");
        println!(
            "  {} events, {} functions",
            trace.len(),
            trace.functions().len()
        );
        return 0;
    }
    let image = match BinaryTraceImage::open_path(path) {
        Ok(i) => i,
        Err(e) => {
            error!("cannot open {path}: {e}");
            eprintln!("hint: `--salvage` recovers what a damaged trace still holds");
            return 1;
        }
    };
    let index = image.index();
    let event_blocks = image.event_blocks().count();
    println!("binary trace {path}");
    println!(
        "  {} events in {} block(s) ({} total incl. tables/index), {} fn entries",
        index.total_events,
        event_blocks,
        index.blocks.len(),
        index.total_fn_enters
    );
    match image.functions() {
        Ok(names) if names.is_empty() => println!("  no function table"),
        Ok(names) => println!("  {} function(s): {}", names.len(), names.join(", ")),
        Err(e) => {
            error!("  function table unreadable: {e}");
            return 1;
        }
    }
    0
}

fn inspect_bundle(path: &str, salvage: bool) -> i32 {
    let bundle = if salvage {
        match IncidentBundle::salvage(path) {
            Ok((Some(bundle), stats)) => {
                if !stats.complete {
                    let (offset, reason) = stats
                        .corruption
                        .unwrap_or((stats.total_bytes, "truncated".to_string()));
                    println!(
                        "salvaged {} record(s), lost {} ({} bytes total); damage at byte {offset}: {reason}",
                        stats.records, stats.skipped, stats.total_bytes
                    );
                }
                bundle
            }
            Ok((None, stats)) => {
                error!(
                    "nothing salvageable in {path}: no intact metadata record in {} bytes",
                    stats.total_bytes
                );
                return 1;
            }
            Err(e) => {
                error!("cannot read bundle {path}: {e}");
                return 1;
            }
        }
    } else {
        match IncidentBundle::load(path) {
            Ok(b) => b,
            Err(e) => {
                error!("cannot load bundle {path}: {e}");
                eprintln!("hint: `--salvage` recovers what a damaged bundle still holds");
                return 1;
            }
        }
    };
    println!("incident bundle {path}");
    print!("{}", render_bundle(&bundle));
    0
}

fn fault_plan_for(args: &[String]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if let Some(fault) = arg_value(args, "--bug") {
        let spec = CATALOG.iter().find(|b| b.fault.0 == fault);
        let swat_only = SWAT_ONLY.iter().find(|l| l.fault.0 == fault);
        match (spec, swat_only) {
            (Some(b), _) => plan = b.plan(),
            (None, Some(l)) => plan = l.plan(),
            (None, None) => {
                error!("unknown bug {fault} (see `heapmd list`)");
                std::process::exit(1);
            }
        }
        info!("injecting {fault}");
    }
    plan
}

/// Prints what salvage recovered from `path` (and where the damage
/// was) when the artifact turned out to be incomplete.
fn report_salvage(path: &str, stats: &SalvageStats) {
    if stats.complete {
        info!("{path} is complete ({} events)", stats.events);
    } else {
        let (offset, reason) = stats
            .corruption
            .clone()
            .unwrap_or((stats.valid_bytes, "truncated".to_string()));
        println!(
            "salvaged {} of {} bytes ({} events) from {path}; damage at byte {offset}: {reason}",
            stats.valid_bytes, stats.total_bytes, stats.events
        );
    }
}

/// Parses the client-side reliability flags shared by `push` and
/// `run --serve`: `--retry N`, `--backoff-ms N`, `--session ID`.
fn session_options(args: &[String]) -> heapmd::SessionOptions {
    let mut opts = heapmd::SessionOptions::default();
    opts.retry.max_attempts = num_flag(args, "--retry", "a number", opts.retry.max_attempts);
    opts.retry.base_delay = std::time::Duration::from_millis(num_flag(
        args,
        "--backoff-ms",
        "milliseconds",
        opts.retry.base_delay.as_millis() as u64,
    ));
    opts.session = arg_value(args, "--session");
    opts
}

fn cmd_serve(args: &[String]) -> i32 {
    known_flags(
        "serve",
        args,
        "--model --listen --http --incidents --prom-dump --journal-dir --model-dir --run-store \
         --session-timeout-ms --sample-hot-threshold --sample-decimation",
        "--sample",
        0,
    );
    let Some(model_path) = arg_value(args, "--model") else {
        usage()
    };
    let listen = arg_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:7700".to_string());
    let http = arg_value(args, "--http").unwrap_or_else(|| "127.0.0.1:7701".to_string());
    let model = match HeapModel::load(&model_path) {
        Ok(m) => m,
        Err(e) => {
            error!("cannot load model {model_path}: {e}");
            return 1;
        }
    };
    let mut config = heapmd::ServeConfig::new(model);
    config.incident_dir = arg_value(args, "--incidents").map(PathBuf::from);
    config.prom_dump = arg_value(args, "--prom-dump").map(PathBuf::from);
    config.journal_dir = arg_value(args, "--journal-dir").map(PathBuf::from);
    config.model_dir = arg_value(args, "--model-dir").map(PathBuf::from);
    config.run_store = arg_value(args, "--run-store").map(PathBuf::from);
    config.sampler = sampler_flag(args);
    config.session_timeout = std::time::Duration::from_millis(num_flag(
        args,
        "--session-timeout-ms",
        "milliseconds",
        config.session_timeout.as_millis() as u64,
    ));
    // The daemon *is* an observability plane; its own instrumentation
    // (stage throughput, build info, uptime) is always on.
    heapmd_obs::set_enabled(true);
    let server = match heapmd::Server::start(config, &listen, &http) {
        Ok(s) => s,
        Err(e) => {
            error!("cannot start fleet daemon: {e}");
            return 1;
        }
    };
    println!(
        "fleet daemon up: ingest {} http {}",
        server.ingest_addr(),
        server.http_addr()
    );
    println!(
        "scrape http://{0}/metrics ; watch with `heapmd top --connect {0}` ; stop with GET http://{0}/shutdown",
        server.http_addr()
    );
    let summary = server.wait();
    let mut anomalies = false;
    for (tenant, o) in &summary.tenants {
        let state = match (&o.evicted, &o.error, o.partial) {
            (Some(reason), _, _) => format!("evicted ({reason})"),
            (_, Some(err), _) => format!("error ({err})"),
            (_, _, true) => "partial".to_string(),
            _ => "complete".to_string(),
        };
        println!(
            "tenant {tenant}: {} events, {} bug(s), {} bundle(s), {state}",
            o.events,
            o.bugs.len(),
            o.bundle_paths.len()
        );
        print!("{}", render_verdicts(&o.bugs));
        anomalies |= !o.bugs.is_empty();
    }
    if let Some(err) = &summary.prom_dump_error {
        eprintln!("heapmd: warning[obs-prom-dropped]: final Prometheus dump failed: {err}");
        return 4;
    }
    if anomalies {
        3
    } else {
        0
    }
}

/// Minimal HTTP/1.0 GET against the daemon's control endpoint,
/// returning the response body.
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default())
}

/// Renders one `heapmd top` frame from a `/fleet.tsv` dump, appending
/// the fleet events/s reading to `history` for the rate chart.
fn render_top(addr: &str, tsv: &str, history: &mut Vec<f64>) -> String {
    let mut out = String::new();
    let mut tenant_rows = Vec::new();
    let mut rollups = Vec::new();
    for line in tsv.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        match cols.first().copied() {
            Some("fleet") if cols.len() >= 9 => {
                history.push(cols[6].parse().unwrap_or(0.0));
                out.push_str(&format!(
                    "heapmd top — {addr}  up {}s  tenants {} ({} live, {} anomalous)  events {}  incidents {}  evictions {}\n",
                    cols[1], cols[4], cols[2], cols[3], cols[5], cols[7], cols[8]
                ));
            }
            Some("metric") if cols.len() >= 5 => {
                rollups.push(format!(
                    "  {:<10} p50 {:>10}  p95 {:>10}  max {:>10}",
                    cols[1], cols[2], cols[3], cols[4]
                ));
            }
            Some("tenant") if cols.len() >= 12 => {
                tenant_rows.push(format!(
                    "  {:<24} {:>10} {:>10}/s {:>7} {:>6} {:>5} {:>5}  {:<7} {:<9} {}",
                    cols[1],
                    cols[2],
                    cols[3],
                    cols[4],
                    cols[5],
                    cols[6],
                    cols[7],
                    cols[8],
                    cols[10],
                    cols[11]
                ));
            }
            _ => {}
        }
    }
    if history.len() > 120 {
        let drop = history.len() - 120;
        history.drain(..drop);
    }
    out.push('\n');
    out.push_str(&chart("fleet events/s", history, 72, 8, &[]));
    if !rollups.is_empty() {
        out.push_str("\ndistance from calibrated range (fleet percentiles):\n");
        for r in rollups {
            out.push_str(&r);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "\n  {:<24} {:>10} {:>12} {:>7} {:>6} {:>5} {:>5}  {:<7} {:<9} {}\n",
        "TENANT",
        "EVENTS",
        "RATE",
        "SAMPLES",
        "CROSS",
        "INCID",
        "BUGS",
        "STATE",
        "METRICS",
        "LAST ANOMALY"
    ));
    if tenant_rows.is_empty() {
        out.push_str("  (no tenants yet)\n");
    }
    for row in tenant_rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

fn cmd_top(args: &[String]) -> i32 {
    known_flags("top", args, "--connect --interval-ms", "--once", 0);
    let Some(addr) = arg_value(args, "--connect") else {
        usage()
    };
    let once = args.iter().any(|a| a == "--once");
    let interval_ms: u64 = num_flag(args, "--interval-ms", "milliseconds", 1000u64);
    let mut history = Vec::new();
    loop {
        let tsv = match http_get(&addr, "/fleet.tsv") {
            Ok(body) => body,
            Err(e) => {
                error!("cannot poll fleet daemon {addr}: {e}");
                return 1;
            }
        };
        let frame = render_top(&addr, &tsv, &mut history);
        if once {
            print!("{frame}");
            return 0;
        }
        // Clear + home between frames so the dashboard repaints in
        // place, like top(1).
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// `heapmd query --store DIR …`: answers cross-run and cross-version
/// questions over the columnar run store by scan alone — no replay, no
/// models. Filters are conjunctive; `--metric` both projects columns
/// (only those blocks are read) and picks the aggregation targets.
fn cmd_query(args: &[String]) -> i32 {
    known_flags(
        "query",
        args,
        "--store --workload --version --run --tenant --kind --since --until \
         --metric --agg --format --limit",
        "--describe",
        0,
    );
    let Some(store_dir) = arg_value(args, "--store") else {
        usage()
    };
    let store = match RunStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            error!("cannot open run store {store_dir}: {e}");
            return 1;
        }
    };
    if args.iter().any(|a| a == "--describe") {
        let segments = match store.segments() {
            Ok(s) => s,
            Err(e) => {
                error!("cannot list {store_dir}: {e}");
                return 1;
            }
        };
        let ids = store.metric_ids().unwrap_or_default();
        println!("run store {}", store.dir().display());
        println!("  {} segment(s)", segments.len());
        println!("  column encodings: {}", ENCODING_NAMES.join(", "));
        println!("  {} metric column(s): {}", ids.len(), ids.join(", "));
        return 0;
    }
    let opt_num = |flag: &str| -> Option<u64> {
        arg_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got {v:?}");
                std::process::exit(2);
            })
        })
    };
    let kind = match arg_value(args, "--kind") {
        None => None,
        Some(v) => match RowKind::from_str(&v) {
            Some(k) => Some(k),
            None => {
                eprintln!("--kind takes train|run|check|serve, got {v:?}");
                return 2;
            }
        },
    };
    let filter = RowFilter {
        workload: arg_value(args, "--workload"),
        version: opt_num("--version"),
        run: arg_value(args, "--run"),
        tenant: arg_value(args, "--tenant"),
        kind,
        since: opt_num("--since"),
        until: opt_num("--until"),
    };
    let metrics = arg_values(args, "--metric");
    let outcome = match store.scan(&filter, (!metrics.is_empty()).then_some(metrics.as_slice())) {
        Ok(o) => o,
        Err(e) => {
            error!("scan of {store_dir} failed: {e}");
            return 1;
        }
    };
    if outcome.segments_skipped > 0 || outcome.segments_salvaged > 0 || outcome.damaged_blocks > 0 {
        eprintln!(
            "warning: degraded scan — {} segment(s) skipped, {} salvaged, {} damaged block(s)",
            outcome.segments_skipped, outcome.segments_salvaged, outcome.damaged_blocks
        );
    }
    // Metric column order: the projection order when given, otherwise
    // the sorted union of ids present in the matching rows.
    let metric_cols: Vec<String> = if metrics.is_empty() {
        let mut set = std::collections::BTreeSet::new();
        for r in &outcome.rows {
            for (n, _) in &r.metrics {
                set.insert(n.clone());
            }
        }
        set.into_iter().collect()
    } else {
        metrics.clone()
    };
    match arg_value(args, "--agg").as_deref() {
        None => {
            let limit = opt_num("--limit").map_or(usize::MAX, |n| n as usize);
            let jsonl = match arg_value(args, "--format").as_deref() {
                None | Some("tsv") => false,
                Some("jsonl") => true,
                Some(v) => {
                    eprintln!("--format takes tsv|jsonl, got {v:?}");
                    return 2;
                }
            };
            if jsonl {
                for r in outcome.rows.iter().take(limit) {
                    let mut m = heapmd_obs::json::JsonObject::new();
                    for id in &metric_cols {
                        if let Some(v) = r.metric(id) {
                            m.field_f64(id, v);
                        }
                    }
                    let mut o = heapmd_obs::json::JsonObject::new();
                    o.field_str("workload", &r.workload)
                        .field_u64("version", r.version)
                        .field_str("run", &r.run)
                        .field_str("tenant", &r.tenant)
                        .field_str("kind", r.kind.as_str())
                        .field_u64("time", r.time)
                        .field_u64("seq", r.seq)
                        .field_u64("fn_entries", r.fn_entries)
                        .field_u64("nodes", r.nodes)
                        .field_u64("edges", r.edges)
                        .field_u64("dangling", r.dangling)
                        .field_raw("metrics", &m.finish());
                    println!("{}", o.finish());
                }
            } else {
                println!(
                    "workload\tversion\trun\ttenant\tkind\ttime\tseq\tfn_entries\tnodes\tedges\tdangling\t{}",
                    metric_cols.join("\t")
                );
                for r in outcome.rows.iter().take(limit) {
                    let vals: Vec<String> = metric_cols
                        .iter()
                        .map(|id| r.metric(id).map(|v| format!("{v}")).unwrap_or_default())
                        .collect();
                    println!(
                        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                        r.workload,
                        r.version,
                        r.run,
                        r.tenant,
                        r.kind,
                        r.time,
                        r.seq,
                        r.fn_entries,
                        r.nodes,
                        r.edges,
                        r.dangling,
                        vals.join("\t")
                    );
                }
            }
            info!("{} row(s) matched", outcome.rows.len());
        }
        Some("stats") => {
            println!("metric\tcount\tmin\tmax\tmean\tp50\tp95");
            for id in &metric_cols {
                let values: Vec<f64> = outcome.rows.iter().filter_map(|r| r.metric(id)).collect();
                if let Some(s) = MetricStats::compute(&values) {
                    println!(
                        "{id}\t{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}",
                        s.count, s.min, s.max, s.mean, s.p50, s.p95
                    );
                }
            }
        }
        Some("drift") => {
            let [metric] = metrics.as_slice() else {
                eprintln!("--agg drift needs exactly one --metric ID");
                return 2;
            };
            println!("version\tcount\tmean\tp50\tp95\tdrift_pct");
            for d in drift_by_version(&outcome.rows, metric) {
                let drift = d.drift_pct.map(|p| format!("{p:+.2}")).unwrap_or_default();
                println!(
                    "{}\t{}\t{:.4}\t{:.4}\t{:.4}\t{drift}",
                    d.version, d.stats.count, d.stats.mean, d.stats.p50, d.stats.p95
                );
            }
        }
        Some(v) => {
            eprintln!("--agg takes stats|drift, got {v:?}");
            return 2;
        }
    }
    0
}

fn cmd_push(args: &[String]) -> i32 {
    known_flags(
        "push",
        args,
        "--to --tenant --trace --session --retry --backoff-ms \
         --sample-hot-threshold --sample-decimation",
        "--salvage --sample",
        0,
    );
    let Some(addr) = arg_value(args, "--to") else {
        usage()
    };
    let Some(tenant) = arg_value(args, "--tenant") else {
        usage()
    };
    let Some(trace_path) = arg_value(args, "--trace") else {
        usage()
    };
    let salvage = args.iter().any(|a| a == "--salvage");
    let (trace, stats) = match heapmd::load_trace_auto(&trace_path, salvage) {
        Ok(loaded) => loaded,
        Err(e) => {
            error!("cannot load trace {trace_path}: {e}");
            return 1;
        }
    };
    if let Some(stats) = &stats {
        report_salvage(&trace_path, stats);
    }
    // `--sample` thins a full-fidelity recording client-side before it
    // crosses the wire: fewer bytes pushed, and the daemon checks with
    // confidence-widened ranges (already-sampled traces push as-is).
    let trace = match sampler_flag(args) {
        Some(config) if trace.sampling().is_none() => {
            let sampled = trace.sampled(config);
            println!(
                "client-side sampling: {} of {} events pushed (effective store rate {:.4})",
                sampled.len(),
                trace.len(),
                sampled.sample_rate()
            );
            sampled
        }
        _ => trace,
    };
    match heapmd::push_trace_resumable(&addr, &tenant, &trace, session_options(args)) {
        Ok((n, reconnects)) => {
            if reconnects > 0 {
                println!(
                    "{n} events pushed to {addr} as tenant {tenant} ({reconnects} reconnect(s))"
                );
            } else {
                println!("{n} events pushed to {addr} as tenant {tenant}");
            }
            0
        }
        Err(e) => {
            error!("cannot push trace to {addr}: {e}");
            1
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Stamp process start first so `heapmd_uptime_seconds` covers the
    // whole run in every Prometheus dump.
    heapmd_obs::export::mark_process_start();

    if let Some(level) = take_flag_value(&mut args, "--log-level") {
        match heapmd_obs::Level::parse(&level) {
            Ok(parsed) => heapmd_obs::set_log_level(parsed),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    let obs_out = take_flag_value(&mut args, "--obs-out");
    let obs_prom = take_flag_value(&mut args, "--obs-prom");
    let trace_events = take_flag_value(&mut args, "--trace-events");
    if trace_events.is_some() {
        heapmd_obs::set_enabled(true);
        heapmd_obs::trace_event::set_collecting(true);
    }
    if let Some(path) = &obs_out {
        heapmd_obs::set_enabled(true);
        if let Err(e) = heapmd_obs::export::set_sink_file(Path::new(path)) {
            eprintln!("cannot open --obs-out {path}: {e}");
            std::process::exit(2);
        }
        debug!("streaming obs events to {path}");
    }
    if obs_prom.is_some() {
        heapmd_obs::set_enabled(true);
    }

    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("check" | "replay") => cmd_check(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("push") => cmd_push(&args[1..]),
        _ => usage(),
    };

    if heapmd_obs::export::sink_active() {
        heapmd_obs::export::emit_counters_event();
        heapmd_obs::export::clear_sink();
    }
    let mut code = code;
    if let Some(path) = &obs_prom {
        if let Err(e) = heapmd_obs::export::write_prometheus_file(Path::new(path)) {
            // A lost metrics dump must not masquerade as a clean exit:
            // typed warning on stderr plus a distinct exit code (unless
            // the run already failed for a stronger reason).
            eprintln!("heapmd: warning[obs-prom-dropped]: metrics dump to {path} failed: {e}");
            if code == 0 {
                code = 4;
            }
        }
    }
    if let Some(path) = &trace_events {
        match heapmd_obs::trace_event::write_chrome_trace(Path::new(path)) {
            Ok(()) => debug!(
                "{} span event(s) written to {path}",
                heapmd_obs::trace_event::event_count()
            ),
            Err(e) => error!("cannot write --trace-events {path}: {e}"),
        }
    }
    std::process::exit(code);
}
