//! The untraced pass: user-facing paths timed end to end through
//! `heapmd-cli`, every verdict checked against an oracle.

use crate::calib;
use crate::cli::{args, parse_check, parse_replay, parse_run, path_arg, Cli, Outcome, RunSummary};
use crate::corpus::{self, Corpus, Item, Kind};
use crate::serve;
use crate::stats::{median, percentile, Metrics, Ops};
use heapmd::{replay_binary_fused, replay_binary_fused_sampled, BinaryTraceImage, SamplerConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Whole passes the run makes at least (see `run`).
const MIN_PASSES: usize = 2;

/// Consecutive timed invocations assumed to share one host speed (see
/// `common_mode_free`); six span 0.1-0.5 s, shorter than the host's
/// slow stretches.
const SLOT: usize = 6;

/// Alternations of the fit in `common_mode_free`.
const FIT_ROUNDS: usize = 8;

/// Verdicts of pooled `check` invocations: report lines per trace path.
type Verdicts = BTreeMap<String, Vec<String>>;

/// Seeded Fisher-Yates permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = seed ^ 0x5851_F42D_4C95_7F2D;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

/// One timed invocation of the untraced pass.
#[derive(Clone, Copy)]
enum Task {
    /// `train` of the `k`-th program.
    Train(usize),
    /// `run` of the `k`-th timing input, exact or `--sample`.
    Run(usize, bool),
    /// `replay` of the `k`-th timing trace.
    Replay(usize),
    /// Pooled `check` of the `k`-th program's traces, exact or `--sample`.
    Check(usize, bool),
    /// One `serve` round.
    Serve,
}

/// What `run` must print for `item`: the fused replay of its recording,
/// exact or through the default sampler.
fn run_reference(corpus: &Corpus, item: &Item, sampled: bool) -> RunSummary {
    let image = BinaryTraceImage::open_path(&item.path).expect("corpus trace opens");
    let settings = corpus::settings(corpus, item.program);
    let (samples, kept_stores) = if sampled {
        let (report, info) =
            replay_binary_fused_sampled(&image, &settings, "oracle", SamplerConfig::default())
                .expect("corpus trace replays");
        (report.samples, Some((info.kept_stores, info.total_stores)))
    } else {
        let report =
            replay_binary_fused(&image, &settings, "oracle").expect("corpus trace replays");
        (report.samples, None)
    };
    RunSummary {
        points: samples.len() as u64,
        final_graph: samples
            .last()
            .map_or((0, 0, 0), |s| (s.nodes, s.edges, s.dangling)),
        kept_stores,
    }
}

/// `items` grouped by program, as pooled `check` takes them.
fn by_program(items: &[Item]) -> Vec<(&'static str, Vec<&Item>)> {
    let mut groups: BTreeMap<&'static str, Vec<&Item>> = BTreeMap::new();
    for item in items {
        groups.entry(item.program).or_default().push(item);
    }
    groups.into_iter().collect()
}

/// One pooled `check` invocation over one program's traces.
fn check_once(
    cli: &Cli,
    corpus: &Corpus,
    program: &str,
    traces: &[&Item],
    extra: &[&str],
    ops: &mut Ops,
) -> (Verdicts, Outcome) {
    let mut a = args(&["check", "--model"]);
    a.push(path_arg(&corpus.model(program).path));
    for t in traces {
        a.push("--trace".to_string());
        a.push(path_arg(&t.path));
    }
    a.extend(extra.iter().map(|s| s.to_string()));
    let out = cli.run(&a);
    let parsed = parse_check(&out.stdout);
    ops.check(out.ok() && parsed.len() == traces.len(), || {
        format!("check {program} {extra:?}: exit {:?}", out.code)
    });
    (parsed, out)
}

/// Verdicts on every trace of `items`, one invocation per program.
fn pooled_check(
    cli: &Cli,
    corpus: &Corpus,
    items: &[Item],
    extra: &[&str],
    ops: &mut Ops,
) -> Verdicts {
    let mut verdicts = Verdicts::new();
    for (program, traces) in by_program(items) {
        verdicts.extend(check_once(cli, corpus, program, &traces, extra, ops).0);
    }
    verdicts
}

/// Reports on the clean (`bugs == false`) or buggy traces of `items`,
/// and how many of those traces have at least one.
fn reports_on(verdicts: &Verdicts, items: &[Item], bugs: bool) -> (u64, u64) {
    let (mut reports, mut flagged) = (0, 0);
    for item in items.iter().filter(|i| i.bug.is_some() == bugs) {
        let n = verdicts.get(&path_arg(&item.path)).map_or(0, Vec::len) as u64;
        reports += n;
        flagged += u64::from(n > 0);
    }
    (reports, flagged)
}

/// Task costs with common-mode host slowdowns divided out, up to one
/// common factor. `order` holds every timed repeat as `(task, ns)` in
/// the order it ran, and the repeats in one slot of `SLOT` consecutive
/// invocations share one host factor. The fit alternates between task
/// costs (median over a task's repeats of ns / its slot's factor) and
/// slot factors (median over a slot's repeats of ns / the task's cost).
/// Tasks absent from `order` get `NaN`.
fn common_mode_free(order: &[(usize, f64)], tasks: usize) -> Vec<f64> {
    let slots = order.len().div_ceil(SLOT);
    let mut factor = vec![1.0; slots];
    let mut cost = vec![f64::NAN; tasks];
    for _ in 0..FIT_ROUNDS {
        let mut per_task = vec![Vec::new(); tasks];
        for (i, &(t, ns)) in order.iter().enumerate() {
            per_task[t].push(ns / factor[i / SLOT]);
        }
        cost = per_task.iter().map(|v| median(v)).collect();
        let mut per_slot = vec![Vec::new(); slots];
        for (i, &(t, ns)) in order.iter().enumerate() {
            per_slot[i / SLOT].push(ns / cost[t]);
        }
        factor = per_slot.iter().map(|v| median(v)).collect();
    }
    cost
}

/// The 90th percentile of `figures` (per-event costs, one per trace),
/// with its distance from the median taken from the same traces'
/// `relative` costs (see `common_mode_free`). On a shared host, a trace
/// timed only a few times can miss every quiet stretch, and the slowest
/// such traces set a plain percentile: the same seed's p90 moved by 30%
/// from run to run, with a different trace at the top each time.
fn tail(figures: &[f64], relative: &[f64]) -> f64 {
    median(figures) * percentile(relative, 0.9) / median(relative)
}

/// The untraced pass. Every timed invocation is a task; the run makes
/// whole passes over all tasks, each pass in a fresh seeded order, at
/// least `MIN_PASSES` and more while `seconds` last. A task's figure is
/// the fastest of its repeats, scaled to the reference host speed by the
/// run's median calibration kernel (see `calib`). Interleaving spreads
/// every task's repeats over the whole run, so each task meets the
/// host's quiet stretches: on a shared host, a process runs up to 1.9x
/// slower for seconds at a time, the kernel next to it does not slow
/// down with it, and the share of slow stretches swung a task's median
/// repeat by 30% and more from run to run. The kernel does follow the
/// host's speed from one run to the next.
///
/// A `serve` round's wall time is mostly the push client's 1 ms waits
/// for acks, which host speed does not move, so rounds are not scaled.
///
/// Returns the run's scale factor (reference speed ÷ host speed).
pub fn run(
    cli: &Cli,
    corpus: &Corpus,
    work: &Path,
    seed: u64,
    seconds: f64,
    ops: &mut Ops,
    metrics: &mut Metrics,
) -> f64 {
    let start = Instant::now();
    let items = &corpus.timing;
    let programs = corpus.programs();
    let groups = by_program(items);
    let picks = serve::picks(corpus);
    let mut tasks: Vec<Task> = (0..programs.len()).map(Task::Train).collect();
    for sampled in [false, true] {
        tasks.extend((0..items.len()).map(|k| Task::Run(k, sampled)));
        tasks.extend((0..groups.len()).map(|g| Task::Check(g, sampled)));
    }
    tasks.extend((0..items.len()).map(Task::Replay));
    // One round per pass: `serve_peak_rss_mb` is the highest over the
    // run's rounds, all over the same fixed streams.
    tasks.push(Task::Serve);

    let mut fastest = vec![f64::INFINITY; tasks.len()];
    let mut order: Vec<(usize, f64)> = Vec::new();
    let mut kernel = Vec::new();
    let mut reference: BTreeMap<(usize, bool), RunSummary> = BTreeMap::new();
    let mut replay_verdicts: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut first_pass: [Verdicts; 2] = Default::default();
    let mut rounds: Vec<serve::Round> = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < Duration::from_secs_f64(seconds) {
        for t in shuffled(tasks.len(), seed.wrapping_add(passes as u64)) {
            let first = passes == 0;
            kernel.push(calib::kernel_ns() as f64);
            let ns = match tasks[t] {
                Task::Train(k) => {
                    let p = programs[k];
                    let out_path = work.join(format!("train-{p}.json"));
                    let out = cli.run(&args(&["train", p, "--out", &path_arg(&out_path)]));
                    ops.check(out.ok(), || format!("train {p}: exit {:?}", out.code));
                    if first {
                        // Oracle: the CLI's model is the set-up's model,
                        // byte for byte.
                        let same = std::fs::read(&out_path).ok()
                            == std::fs::read(&corpus.model(p).path).ok();
                        ops.check(same, || format!("train {p}: model differs from set-up's"));
                    }
                    out.wall_ns
                }
                Task::Run(k, sampled) => {
                    // Checked every time against the fused replay of the
                    // same input's recording.
                    let item = &items[k];
                    let mut a = vec!["run".to_string()];
                    a.extend(item.input_args());
                    a.push("--model".to_string());
                    a.push(path_arg(&corpus.model(item.program).path));
                    if sampled {
                        a.push("--sample".to_string());
                    }
                    let out = cli.run(&a);
                    ops.check(out.ok(), || {
                        format!("run {}: exit {:?}", item.tenant, out.code)
                    });
                    let want = reference
                        .entry((k, sampled))
                        .or_insert_with(|| run_reference(corpus, item, sampled));
                    let got = parse_run(&out.stdout);
                    ops.check(&got == want, || {
                        format!(
                            "run {} (sampled {sampled}): printed {got:?}, replay gives {want:?}",
                            item.tenant
                        )
                    });
                    out.wall_ns
                }
                Task::Replay(k) => {
                    let item = &items[k];
                    let out = cli.run(&args(&[
                        "replay",
                        "--model",
                        &path_arg(&corpus.model(item.program).path),
                        "--trace",
                        &path_arg(&item.path),
                    ]));
                    ops.check(out.ok(), || {
                        format!("replay {}: exit {:?}", item.tenant, out.code)
                    });
                    if first {
                        replay_verdicts.insert(k, parse_replay(&out.stdout));
                    }
                    out.wall_ns
                }
                Task::Check(g, sampled) => {
                    let (program, traces) = &groups[g];
                    let extra: &[&str] = if sampled { &["--sample"] } else { &[] };
                    let (verdicts, out) = check_once(cli, corpus, program, traces, extra, ops);
                    if first {
                        first_pass[usize::from(sampled)].extend(verdicts);
                    }
                    out.wall_ns
                }
                Task::Serve => match serve::round(cli, corpus, &picks) {
                    Ok(r) => {
                        let ns = r.wall_ns;
                        rounds.push(r);
                        ns
                    }
                    Err(e) => {
                        ops.check(false, || format!("serve round: {e}"));
                        continue;
                    }
                },
            };
            fastest[t] = fastest[t].min(ns as f64);
            if !matches!(tasks[t], Task::Serve) {
                order.push((t, ns as f64));
            }
        }
        passes += 1;
    }
    eprintln!(
        "ledger: {passes} passes over {} tasks; calibration kernel median {:.0} ns",
        tasks.len(),
        median(&kernel)
    );
    let speed = calib::REFERENCE_NS / median(&kernel);
    let relative = common_mode_free(&order, tasks.len());
    let of = |values: &[f64], want: &dyn Fn(Task) -> bool| -> Vec<f64> {
        tasks
            .iter()
            .zip(values)
            .filter(|(t, _)| want(**t))
            .map(|(t, v)| {
                if matches!(t, Task::Serve) {
                    *v
                } else {
                    v * speed
                }
            })
            .collect()
    };
    let best_of = |want: &dyn Fn(Task) -> bool| of(&fastest, want);
    let relative_of = |want: &dyn Fn(Task) -> bool| of(&relative, want);

    let train_events: u64 = programs.iter().map(|p| corpus.model(p).train_events).sum();
    let train_ns: f64 = best_of(&|t| matches!(t, Task::Train(_))).iter().sum();
    metrics.set(
        "train_ns_per_event",
        train_ns / train_events as f64,
        "ns/event",
    );
    let per_event = |ns: Vec<f64>| -> Vec<f64> {
        ns.iter()
            .zip(items)
            .map(|(ns, item)| ns / item.events() as f64)
            .collect()
    };
    let exact_run = |t| matches!(t, Task::Run(_, false));
    let run = per_event(best_of(&exact_run));
    metrics.set("run_ns_per_event", median(&run), "ns/event");
    let run_tail = tail(&run, &per_event(relative_of(&exact_run)));
    metrics.set("run_ns_per_event.p90", run_tail, "ns/event");
    let run_sampled = per_event(best_of(&|t| matches!(t, Task::Run(_, true))));
    metrics.set("run_sampled_ns_per_event", median(&run_sampled), "ns/event");
    let is_replay = |t| matches!(t, Task::Replay(_));
    let replay = per_event(best_of(&is_replay));
    metrics.set("replay_ns_per_event", median(&replay), "ns/event");
    let replay_tail = tail(&replay, &per_event(relative_of(&is_replay)));
    metrics.set("replay_ns_per_event.p90", replay_tail, "ns/event");
    let events: u64 = items.iter().map(Item::events).sum();
    for (sampled, name) in [
        (false, "check_events_per_s"),
        (true, "check_sampled_events_per_s"),
    ] {
        let ns: f64 = best_of(&|t| matches!(t, Task::Check(_, s) if s == sampled))
            .iter()
            .sum();
        metrics.set(name, events as f64 / (ns / 1e9), "events/s");
    }
    let served: u64 = picks.iter().map(|&i| corpus.verdict[i].events()).sum();
    let serve_ns = median(&best_of(&|t| matches!(t, Task::Serve)));
    metrics.set(
        "serve_events_per_s",
        served as f64 / (serve_ns / 1e9),
        "events/s",
    );
    // The highest peak over the run's rounds (see `SERVE_ROUNDS`): the
    // worst round is what a deployment must hold.
    let rss = rounds.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0);
    metrics.set("serve_peak_rss_mb", rss as f64 / 1024.0, "MB");

    // Detection quality on the verdict suite (and, for bug-catalog, on
    // the seeded bug recordings the timed checks just ran).
    let v_exact = pooled_check(cli, corpus, &corpus.verdict, &[], ops);
    let v_sampled = pooled_check(cli, corpus, &corpus.verdict, &["--sample"], ops);
    // Untimed oracles: every serve stream matches `check` on the same
    // trace, `--shards 1` matches the default, and every `replay`
    // verdict matches `check` (replay runs two graph shards, check one).
    let [exact, sampled] = first_pass;
    for r in &rounds {
        check_serve(r, corpus, &v_exact, ops);
    }
    let one_shard = pooled_check(cli, corpus, items, &["--shards", "1"], ops);
    ops.check(one_shard == exact, || {
        "check --shards 1 differs from the default".to_string()
    });
    for (i, reports) in &replay_verdicts {
        let key = path_arg(&items[*i].path);
        ops.check(exact.get(&key) == Some(reports), || {
            format!("replay {key} differs from check")
        });
    }

    let (bugs, bugs_sampled) = if corpus.kind == Kind::BugCatalog {
        (
            reports_on(&exact, items, true).1,
            reports_on(&sampled, items, true).1,
        )
    } else {
        (
            reports_on(&v_exact, &corpus.verdict, true).1,
            reports_on(&v_sampled, &corpus.verdict, true).1,
        )
    };
    metrics.set(
        "false_positives",
        reports_on(&v_exact, &corpus.verdict, false).0 as f64,
        "count",
    );
    metrics.set(
        "false_positives_sampled",
        reports_on(&v_sampled, &corpus.verdict, false).0 as f64,
        "count",
    );
    metrics.set("bugs_detected", bugs as f64, "count");
    metrics.set("bugs_detected_sampled", bugs_sampled as f64, "count");
    speed
}

/// Serve oracle: every pushed stream ended complete (no push error, no
/// eviction) with its event count and the verdict offline `check` gives
/// the same trace.
fn check_serve(r: &serve::Round, corpus: &Corpus, exact: &Verdicts, ops: &mut Ops) {
    for (tenant, e) in &r.push_errors {
        ops.check(false, || format!("push {tenant}: {e}"));
    }
    for item in r.picks.iter().map(|&i| &corpus.verdict[i]) {
        let got = r.tenants.get(&item.tenant);
        ops.check(
            got.is_some_and(|t| t.state == "complete" && t.events == item.events()),
            || format!("serve {}: ended {:?}", item.tenant, got.map(|t| &t.state)),
        );
        let want = exact.get(&path_arg(&item.path));
        ops.check(got.map(|t| &t.reports) == want, || {
            format!("serve {}: verdict differs from check", item.tenant)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_mode_slowdowns_divide_out() {
        // Three tasks with costs 1, 2 and 4; each pass runs them in a
        // different order, and every other slot runs 1.8x slow.
        let cost = [1.0, 2.0, 4.0];
        let mut order = Vec::new();
        for pass in 0..8 {
            for k in 0..3 {
                let t = (k + pass) % 3;
                let slow = if (order.len() / SLOT) % 2 == 1 {
                    1.8
                } else {
                    1.0
                };
                order.push((t, cost[t] * slow));
            }
        }
        let fitted = common_mode_free(&order, 4);
        for t in 0..3 {
            let ratio = fitted[t] / fitted[0];
            assert!((ratio - cost[t]).abs() < 1e-9, "task {t}: {ratio}");
        }
        assert!(fitted[3].is_nan());
        let tail_of = tail(&[10.0, 20.0, 40.0], &[1.0, 2.0, 4.0]);
        assert!((tail_of - 40.0).abs() < 1e-9);
    }
}
