//! `heapmd-ledger`: the repository's benchmark.
//!
//! ```text
//! heapmd-ledger --cli PATH --workload spec-graph|commercial-long|bug-catalog
//!               [--seed N] [--seconds S] [--trace 0|1] [--work DIR]
//! ```
//!
//! Set-up derives every input from `--seed`, records the corpus to
//! `.hmdt`, and trains one model per program (three times; the median is
//! `setup_s`). Then one of two passes runs for `--seconds`:
//!
//! - `--trace 0`, the untraced pass: `train`, `run`, `run --sample`,
//!   `replay`, pooled `check` and `check --sample`, and a `serve` round,
//!   all through `heapmd-cli` with default flags, every verdict checked
//!   against an oracle. Prints the end-to-end metrics.
//! - `--trace 1`, the traced pass: each layer's public functions called
//!   in-process on the same corpus, with a span around each call.
//!   Prints the per-layer metrics and writes the spans to
//!   `<work>/spans/`.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (`{name: {value, unit}}`).

mod calib;
mod cli;
mod corpus;
mod e2e;
mod layers;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    cli: PathBuf,
    workload: corpus::Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("heapmd-ledger: {msg}");
    eprintln!(
        "usage: heapmd-ledger --cli PATH --workload spec-graph|commercial-long|bug-catalog [--seed N] [--seconds S] [--trace 0|1] [--work DIR]"
    );
    std::process::exit(2);
}

/// Flags may repeat; the last value wins (so a default written into the
/// benchmark's command line yields to one appended after it).
fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&String> {
        argv.iter().rposition(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    let number = |flag: &str, default: &str| -> f64 {
        let v = value(flag).map_or(default, String::as_str);
        v.parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a number, got {v:?}")))
    };
    let seconds = number("--seconds", "10");
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        cli: value("--cli")
            .map(PathBuf::from)
            .unwrap_or_else(|| usage("--cli is required")),
        workload: corpus::Kind::parse(workload)
            .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}"))),
        seed: number("--seed", "1") as u64,
        seconds,
        traced: match value("--trace").map_or("0", String::as_str) {
            "0" => false,
            "1" => true,
            v => usage(&format!("--trace takes 0 or 1, got {v:?}")),
        },
        work: value("--work").map_or_else(|| PathBuf::from(".ledger"), PathBuf::from),
    }
}

fn main() {
    let args = parse_args();
    if !args.cli.is_file() {
        usage(&format!("heapmd-cli not found at {}", args.cli.display()));
    }
    let cli = cli::Cli {
        bin: args.cli.clone(),
    };
    let name = args.workload.name();
    let run_dir = args.work.join(format!(
        "{name}-{}",
        if args.traced { "traced" } else { "untraced" }
    ));
    let corpus_dir = run_dir.join("corpus");

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        corpus = Some(corpus::setup(args.workload, args.seed, &corpus_dir));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("set-up ran");
    eprintln!(
        "ledger: {name} seed {}: {} timing traces ({} events), {} verdict traces; set-up {:?} s",
        args.seed,
        corpus.timing.len(),
        corpus.timing.iter().map(corpus::Item::events).sum::<u64>(),
        corpus.verdict.len(),
        setup_s
    );

    let mut ops = stats::Ops::default();
    let mut metrics = stats::Metrics::default();
    if args.traced {
        let spans_dir = args.work.join("spans");
        std::fs::create_dir_all(&spans_dir).expect("work directory is writable");
        let spans_path = spans_dir.join(format!("{name}-seed{}.jsonl", args.seed));
        let facts_path = spans_dir.join(format!("{name}-seed{}.facts.txt", args.seed));
        layers::run(
            &cli,
            &corpus,
            args.seconds,
            &mut ops,
            &mut metrics,
            &spans_path,
            &facts_path,
        );
    } else {
        let speed = e2e::run(
            &cli,
            &corpus,
            &run_dir,
            args.seed,
            args.seconds,
            &mut ops,
            &mut metrics,
        );
        // Scaled like every end-to-end time (see `calib`).
        metrics.set("setup_s", stats::median(&setup_s) * speed, "s");
    }
    for note in &ops.notes {
        eprintln!("ledger: FAILED {note}");
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", stats::result_line(ops.failed == 0, &ops, &metrics));
}
