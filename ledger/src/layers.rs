//! The traced pass: each layer's public functions called in-process on
//! the timing corpus, with a span around each call, then a traced
//! `serve` round and `heapmd-cli replay` start-up.
//!
//! Every layer figure is a ratio of summed span time to the work the
//! spans covered (events, graph mutations, computation points, samples),
//! so it can be set against the end-to-end number it should move.

use crate::calib;
use crate::cli::{args, path_arg, Cli};
use crate::corpus::{self, Corpus, Item, Mix};
use crate::serve;
use crate::spans::{clock_pair_ns, Tracer};
use crate::stats::{median, Metrics, Ops};
use heap_graph::{HeapGraph, ShardedGraph};
use heapmd::{
    check_binary_sharded, replay_binary, replay_binary_fused, replay_binary_fused_sampled,
    replay_binary_sharded, AnomalyDetector, BinaryTraceImage, BinaryTraceWriter, HeapEvent,
    MetricSample, ModelBuilder, Process, SampledIngest, SamplerConfig, Settings, EVENTS_PER_BLOCK,
};
use sim_heap::{Addr, SimHeap, NULL};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::harness::{settings_for, FLIGHT_RECORDER_POINTS};
use workloads::Input;

/// Graph shards of the CLI's `replay`/`run` on a 2-core host
/// (`--shards` defaults to the core count).
const CLI_SHARDS: usize = 2;

/// `heapmd-cli replay` invocations timed for `cli.startup_ms`.
const CLI_REPLAYS: usize = 12;

/// Summed span time and the work it covered, per layer figure.
#[derive(Default)]
struct Totals(BTreeMap<&'static str, (f64, f64)>);

impl Totals {
    fn add(&mut self, name: &'static str, ns: u64, units: u64) {
        let e = self.0.entry(name).or_default();
        e.0 += ns as f64;
        e.1 += units as f64;
    }

    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Nanoseconds per unit of work.
    fn per(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |e| e.0 / e.1)
    }
}

fn is_store(ev: &HeapEvent) -> bool {
    matches!(
        ev,
        HeapEvent::PtrWrite { .. } | HeapEvent::ScalarWrite { .. }
    )
}

/// Bare re-execution against a simulated heap: the cost of running the
/// recorded program with no monitoring (the `unmonitored_replay`
/// baseline). The deterministic allocator reproduces the recorded
/// addresses, so a dense `ObjectId -> Addr` map is all the state needed.
fn reexec(events: &[HeapEvent]) -> u64 {
    let mut heap = SimHeap::new();
    let mut base: Vec<Addr> = Vec::new();
    for ev in events {
        match *ev {
            HeapEvent::Alloc {
                obj, size, site, ..
            } => {
                let a = heap.alloc(size, site).expect("recorded alloc replays").addr;
                let idx = obj.0 as usize;
                if base.len() <= idx {
                    base.resize(idx + 1, NULL);
                }
                base[idx] = a;
            }
            HeapEvent::Free { obj, .. } => {
                heap.free(base[obj.0 as usize])
                    .expect("recorded free replays");
            }
            HeapEvent::PtrWrite {
                src, offset, value, ..
            } => {
                let _ = heap.write_ptr(base[src.0 as usize].offset(offset), value);
            }
            HeapEvent::ScalarWrite { src, offset, .. } => {
                let _ = heap.write_scalar(base[src.0 as usize].offset(offset));
            }
            _ => {}
        }
    }
    heap.stats().allocs
}

/// Graph ingestion split at metric computation points (every `frq`-th
/// function entry): `apply_batch` over each segment, then `metrics()`
/// plus `candidates()`. With a tracer, each call gets a span; without,
/// only the whole loop is timed (the pair measures tracing overhead).
/// Returns the number of computation points.
fn layered(
    events: &[HeapEvent],
    frq: u64,
    mut tracer: Option<(&mut Tracer, u64, u32, &'static str, &'static str)>,
) -> u64 {
    let mut g = HeapGraph::new();
    let (mut seg, mut enters, mut points) = (0, 0u64, 0u64);
    for (j, ev) in events.iter().enumerate() {
        if !matches!(ev, HeapEvent::FnEnter { .. }) {
            continue;
        }
        enters += 1;
        if enters % frq != 0 {
            continue;
        }
        let t = Instant::now();
        g.apply_batch(&events[seg..=j]);
        let t2 = Instant::now();
        black_box((g.metrics(), g.candidates()));
        if let Some((tr, parent, trace, apply, metrics)) = tracer.as_mut() {
            let id = tr.id();
            tr.record_between(id, t, t2, apply, *parent, *trace);
            tr.close(t2, metrics, *parent, *trace);
        }
        seg = j + 1;
        points += 1;
    }
    let t = Instant::now();
    g.apply_batch(&events[seg..]);
    if let Some((tr, parent, trace, apply, _)) = tracer {
        tr.close(t, apply, parent, trace);
    }
    black_box(g.node_count());
    points
}

/// Per-call spans around the graph's `on_*` entry points, folded by
/// call kind.
fn per_call(events: &[HeapEvent], tr: &mut Tracer) {
    let mut g = HeapGraph::new();
    for ev in events {
        let t = Instant::now();
        let name = match *ev {
            HeapEvent::Alloc {
                obj, addr, size, ..
            } => {
                g.on_alloc(obj, addr, size);
                "graph.alloc"
            }
            HeapEvent::Free { obj, .. } => {
                g.on_free(obj);
                "graph.free"
            }
            HeapEvent::PtrWrite {
                src, offset, value, ..
            } => {
                g.on_ptr_write(src, offset, value);
                "graph.ptr_write"
            }
            HeapEvent::ScalarWrite { src, offset, .. } => {
                g.on_scalar_write(src, offset);
                "graph.scalar_write"
            }
            _ => continue,
        };
        tr.fold(name, t.elapsed().as_nanos() as u64);
    }
    black_box(g.node_count());
}

/// Sample series equality up to `tick`: the live heap counts only heap
/// operations as ticks, while replay counts every event, so the clocks
/// differ even when every metric agrees.
fn same_series(a: &[MetricSample], b: &[MetricSample]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| MetricSample { tick: y.tick, ..*x } == *y)
}

fn sharded_apply(events: &[HeapEvent], shards: usize) {
    let mut g = ShardedGraph::new(shards);
    for chunk in events.chunks(EVENTS_PER_BLOCK) {
        g.apply_batch(chunk);
    }
    black_box(g.node_count());
}

/// `check_binary_sharded`'s report lines for `item`, as the daemon and
/// the CLI print them.
fn verdict_reports(corpus: &Corpus, item: &Item) -> Vec<String> {
    let image = BinaryTraceImage::open_path(&item.path).expect("corpus trace opens");
    let settings = corpus::settings(corpus, item.program);
    check_binary_sharded(
        &image,
        &corpus.model(item.program).model,
        &settings,
        CLI_SHARDS,
    )
    .expect("check")
    .iter()
    .map(ToString::to_string)
    .collect()
}

/// One trace through every layer, with the in-process oracles.
fn trace_layers(
    corpus: &Corpus,
    idx: usize,
    item: &Item,
    tr: &mut Tracer,
    t: &mut Totals,
    kept: &mut (u64, u64),
    ops: &mut Ops,
) {
    let trace = idx as u32;
    let root = tr.id();
    let root_start = Instant::now();
    let model = &corpus.model(item.program).model;
    let settings: Settings = corpus::settings(corpus, item.program);
    let n = item.events();
    let mutations = item.mix.mutations();

    // trace_codec: open + decode every block.
    let s = Instant::now();
    let image = BinaryTraceImage::open_path(&item.path).expect("corpus trace opens");
    let mut buf = Vec::with_capacity(EVENTS_PER_BLOCK);
    let mut decoded = 0u64;
    for entry in image.event_blocks() {
        image
            .decode_block_into(entry, &mut buf)
            .expect("corpus trace decodes");
        decoded += buf.len() as u64;
    }
    t.add(
        "decode",
        tr.close(s, "trace_codec.decode", root, trace),
        decoded,
    );
    let events: Vec<HeapEvent> = image
        .to_trace()
        .expect("corpus trace decodes")
        .events()
        .to_vec();

    let s = Instant::now();
    let mut w = BinaryTraceWriter::new(Vec::with_capacity(item.bytes as usize)).expect("vec sink");
    for ev in &events {
        w.write_event(ev).expect("vec sink");
    }
    black_box(w.finish().expect("vec sink").len());
    t.add("encode", tr.close(s, "trace_codec.encode", root, trace), n);

    // heap: unmonitored re-execution.
    let s = Instant::now();
    black_box(reexec(&events));
    t.add("reexec", tr.close(s, "heap.reexec", root, trace), n);

    // swat: the store sampler alone, then (untimed) the admitted stream.
    let s = Instant::now();
    let mut filter = SampledIngest::new(SamplerConfig::default());
    let mut kept_stores = 0u64;
    for ev in &events {
        if filter.admit(ev) && is_store(ev) {
            kept_stores += 1;
        }
    }
    t.add("admit", tr.close(s, "swat.admit", root, trace), n);
    kept.0 += kept_stores;
    kept.1 += item.mix.ptr_write + item.mix.scalar_write;
    let mut filter = SampledIngest::new(SamplerConfig::default());
    let admitted: Vec<HeapEvent> = events.iter().filter(|e| filter.admit(e)).copied().collect();
    let admitted_mutations = Mix::of(&admitted).mutations();

    // graph: layered apply + metrics, traced and untraced, exact and
    // over the admitted stream.
    let frq = settings.frq;
    let s = Instant::now();
    let points = layered(
        &events,
        frq,
        Some((&mut *tr, root, trace, "graph.apply", "graph.metrics")),
    );
    t.add(
        "layered_traced",
        tr.close(s, "graph.layered", root, trace),
        n,
    );
    let s = Instant::now();
    layered(&events, frq, None);
    t.add(
        "layered_untraced",
        tr.close(s, "graph.layered_untraced", root, trace),
        n,
    );
    let s = Instant::now();
    layered(
        &admitted,
        frq,
        Some((
            &mut *tr,
            root,
            trace,
            "graph.apply_sampled",
            "graph.metrics_sampled",
        )),
    );
    tr.close(s, "graph.layered_sampled", root, trace);
    t.add("points", 0, points);

    let s = Instant::now();
    per_call(&events, tr);
    tr.close(s, "graph.per_call", root, trace);
    for (name, shards) in [("graph.sharded1", 1), ("graph.sharded2", CLI_SHARDS)] {
        let s = Instant::now();
        sharded_apply(&events, shards);
        t.add(name, tr.close(s, name, root, trace), mutations);
    }
    t.add("apply_units", 0, mutations);
    t.add("apply_sampled_units", 0, admitted_mutations);

    // Engines, timed on the already-open image.
    let s = Instant::now();
    let bugs2 = check_binary_sharded(&image, model, &settings, CLI_SHARDS).expect("check");
    t.add("check2", tr.close(s, "engine.check", root, trace), n);
    let s = Instant::now();
    let bugs1 = check_binary_sharded(&image, model, &settings, 1).expect("check");
    t.add("check1", tr.close(s, "engine.check_1shard", root, trace), n);
    let s = Instant::now();
    let fused = replay_binary_fused(&image, &settings, "ledger").expect("replay");
    t.add("fused", tr.close(s, "engine.fused_replay", root, trace), n);
    let s = Instant::now();
    let (fused_sampled, _) =
        replay_binary_fused_sampled(&image, &settings, "ledger", SamplerConfig::default())
            .expect("replay");
    t.add(
        "fused_sampled",
        tr.close(s, "engine.fused_sampled", root, trace),
        n,
    );
    black_box(fused_sampled.samples.len());
    let s = Instant::now();
    let pipelined = replay_binary(&image, &settings, "ledger").expect("replay");
    t.add(
        "pipelined",
        tr.close(s, "engine.pipelined_replay", root, trace),
        n,
    );
    let s = Instant::now();
    let sharded = replay_binary_sharded(&image, &settings, "ledger", CLI_SHARDS).expect("replay");
    t.add(
        "shard_replay",
        tr.close(s, "shard_replay.replay", root, trace),
        n,
    );

    // process: the live mutator, as `heapmd-cli run --model` builds it.
    let w = corpus::program(item.program);
    let live_settings = settings_for(w.as_ref());
    let s = Instant::now();
    let mut p = Process::with_shards(live_settings.clone(), CLI_SHARDS);
    p.enable_flight_recorder(FLIGHT_RECORDER_POINTS);
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        live_settings,
    )));
    p.attach(detector.clone());
    w.run(&mut p, &mut item.plan(), &Input::new(item.input))
        .expect("corpus input runs");
    let live = p.finish("ledger");
    t.add("live", tr.close(s, "process.live", root, trace), n);

    // In-process oracles: every engine and the live run give one series,
    // and verdicts do not depend on the shard count.
    ops.check(same_series(&live.samples, &fused.samples), || {
        format!("{}: live series differs from fused replay", item.tenant)
    });
    ops.check(
        pipelined.samples == fused.samples && sharded.samples == fused.samples,
        || format!("{}: replay engines disagree", item.tenant),
    );
    ops.check(bugs1 == bugs2, || {
        format!("{}: check verdict depends on shards", item.tenant)
    });

    tr.record(root, root_start, "trace", 0, trace);
}

fn facts(corpus: &Corpus, path: &Path) {
    let mut mix = Mix::default();
    let (mut bytes, mut lens) = (0u64, Vec::new());
    for item in &corpus.timing {
        mix.merge(&item.mix);
        bytes += item.bytes;
        lens.push(item.events());
    }
    let total = mix.total() as f64;
    let pct = |x: u64| 100.0 * x as f64 / total;
    let text = format!(
        "workload {}\ntraces {}\nevents {} (min {} max {} per trace)\nbytes {} ({:.2} B/event)\n\
         alloc {:.1}% free {:.1}% ptr_write {:.1}% scalar_write {:.1}% read {:.1}% fn_enter {:.1}% fn_exit {:.1}%\n\
         alloc+free+store {:.1}% fn enter+exit {:.1}%\n",
        corpus.kind.name(),
        lens.len(),
        mix.total(),
        lens.iter().min().unwrap_or(&0),
        lens.iter().max().unwrap_or(&0),
        bytes,
        bytes as f64 / total,
        pct(mix.alloc),
        pct(mix.free),
        pct(mix.ptr_write),
        pct(mix.scalar_write),
        pct(mix.read),
        pct(mix.fn_enter),
        pct(mix.fn_exit),
        pct(mix.mutations()),
        pct(mix.fn_enter + mix.fn_exit),
    );
    eprint!("{text}");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("ledger: cannot write {}: {e}", path.display());
    }
}

pub fn run(
    cli: &Cli,
    corpus: &Corpus,
    seconds: f64,
    ops: &mut Ops,
    metrics: &mut Metrics,
    spans_path: &Path,
    facts_path: &Path,
) {
    let start = Instant::now();
    let layer_deadline = start + Duration::from_secs_f64(seconds * 0.6);
    let mut tr = Tracer::new();
    let clock = clock_pair_ns();
    let mut t = Totals::default();
    let mut kept = (0u64, 0u64);
    let mut kernel = Vec::new();
    facts(corpus, facts_path);

    // Layer passes over the corpus: one whole pass, then more traces
    // while the layer share of the run lasts.
    let mut done = 0usize;
    for (k, item) in corpus.timing.iter().enumerate().cycle() {
        kernel.push(calib::kernel_ns() as f64);
        trace_layers(corpus, k, item, &mut tr, &mut t, &mut kept, ops);
        done += 1;
        if done >= corpus.timing.len() && Instant::now() >= layer_deadline {
            break;
        }
    }

    // model: summarizing the training runs (`add_run` + `build`).
    let mut stable = 0usize;
    for p in corpus.programs() {
        let pm = corpus.model(p);
        let s = Instant::now();
        let mut builder = ModelBuilder::new(pm.model.settings.clone()).program(p);
        for r in &pm.train_reports {
            builder.add_run(r);
        }
        let outcome = builder.build();
        let samples: usize = pm.train_reports.iter().map(|r| r.samples.len()).sum();
        t.add("model", tr.close(s, "model.build", 0, 0), samples as u64);
        ops.check(outcome.model == pm.model, || {
            format!("{p}: rebuilt model differs")
        });
        stable += outcome.model.stable_metrics().len();
    }

    // cli: `replay` wall time minus the in-process engine on the same
    // trace, timed back to back.
    let mut startup_ms = Vec::new();
    for (k, item) in corpus.timing.iter().enumerate().take(CLI_REPLAYS) {
        let image = BinaryTraceImage::open_path(&item.path).expect("corpus trace opens");
        let settings = corpus::settings(corpus, item.program);
        let s = Instant::now();
        black_box(
            check_binary_sharded(
                &image,
                &corpus.model(item.program).model,
                &settings,
                CLI_SHARDS,
            )
            .expect("check"),
        );
        let engine_ns = tr.close(s, "engine.check", 0, k as u32);
        let s = Instant::now();
        let out = cli.run(&args(&[
            "replay",
            "--model",
            &path_arg(&corpus.model(item.program).path),
            "--trace",
            &path_arg(&item.path),
        ]));
        tr.close(s, "cli.replay", 0, k as u32);
        ops.check(out.ok(), || {
            format!("replay {}: exit {:?}", item.tenant, out.code)
        });
        startup_ms.push((out.wall_ns as f64 - engine_ns as f64) / 1e6);
    }

    // serve: one traced round.
    let s = Instant::now();
    match serve::round(cli, corpus, &serve::picks(corpus)) {
        Ok(r) => {
            let round = tr.id();
            for (i, start, end) in &r.pushes {
                let id = tr.id();
                tr.record_between(id, *start, *end, "serve.push", round, *i as u32);
            }
            tr.record(round, s, "serve.round", 0, 0);
            for (tenant, e) in &r.push_errors {
                ops.check(false, || format!("push {tenant}: {e}"));
            }
            for item in r.picks.iter().map(|&i| &corpus.verdict[i]) {
                let got = r.tenants.get(&item.tenant);
                let want = verdict_reports(corpus, item);
                ops.check(
                    got.is_some_and(|g| g.state == "complete" && g.reports == want),
                    || {
                        format!(
                            "serve {}: verdict differs from check_binary_sharded",
                            item.tenant
                        )
                    },
                );
            }
            let push_ns: u64 = r
                .pushes
                .iter()
                .map(|(_, a, b)| (*b - *a).as_nanos() as u64)
                .sum();
            metrics.set(
                "serve.push_ns_per_event",
                push_ns as f64 / r.events as f64,
                "ns/event",
            );
            metrics.set(
                "serve.drain_ms",
                r.last_verdict
                    .saturating_duration_since(r.last_push_end)
                    .as_secs_f64()
                    * 1e3,
                "ms",
            );
            metrics.set(
                "serve.ingest_ns_per_event",
                r.ingest_busy_ns as f64 / r.ingest_events as f64,
                "ns/event",
            );
            // Two connections buffer two streams at once: divide the
            // growth by the two longest.
            let mut lens: Vec<u64> = r
                .picks
                .iter()
                .map(|&i| corpus.verdict[i].events())
                .collect();
            lens.sort_unstable();
            let concurrent: u64 = lens.iter().rev().take(serve::CONNECTIONS).sum();
            let growth_mb = r.peak_rss_kb.saturating_sub(r.base_rss_kb) as f64 / 1024.0;
            metrics.set(
                "serve.rss_mb_per_mevent",
                growth_mb / (concurrent as f64 / 1e6),
                "MB/Mevent",
            );
        }
        Err(e) => ops.check(false, || format!("serve round: {e}")),
    }

    let per = |name| t.per(name);
    let events_total = t.0.get("check2").map_or(0.0, |e| e.1);
    metrics.set("trace_codec.decode_ns_per_event", per("decode"), "ns/event");
    metrics.set("trace_codec.encode_ns_per_event", per("encode"), "ns/event");
    let bytes: u64 = corpus.timing.iter().map(|i| i.bytes).sum();
    let events: u64 = corpus.timing.iter().map(Item::events).sum();
    metrics.set(
        "trace_codec.bytes_per_event",
        bytes as f64 / events as f64,
        "B/event",
    );
    metrics.set("heap.reexec_ns_per_event", per("reexec"), "ns/event");
    metrics.set("swat.admit_ns_per_event", per("admit"), "ns/event");
    metrics.set(
        "swat.store_keep_rate",
        kept.0 as f64 / kept.1 as f64,
        "ratio",
    );

    let (apply_ns, _) = tr.total("graph.apply");
    let (apply_sampled_ns, _) = tr.total("graph.apply_sampled");
    let (metrics_ns, _) = tr.total("graph.metrics");
    let (metrics_sampled_ns, _) = tr.total("graph.metrics_sampled");
    let mutations = t.0.get("apply_units").map_or(0.0, |e| e.1);
    let admitted = t.0.get("apply_sampled_units").map_or(0.0, |e| e.1);
    let points = t.0.get("points").map_or(0.0, |e| e.1);
    metrics.set(
        "graph.apply_ns_per_mutation",
        apply_ns as f64 / mutations,
        "ns/mutation",
    );
    metrics.set(
        "graph.apply_sampled_ns_per_mutation",
        apply_sampled_ns as f64 / admitted,
        "ns/mutation",
    );
    for (name, span) in [
        ("graph.alloc_ns", "graph.alloc"),
        ("graph.free_ns", "graph.free"),
        ("graph.ptr_write_ns", "graph.ptr_write"),
        ("graph.scalar_write_ns", "graph.scalar_write"),
    ] {
        let f = tr.folded(span);
        metrics.set(name, f.total_ns as f64 / f.count as f64 - clock, "ns/call");
    }
    metrics.set(
        "graph.sharded1_apply_ns_per_mutation",
        per("graph.sharded1"),
        "ns/mutation",
    );
    metrics.set(
        "graph.sharded2_apply_ns_per_mutation",
        per("graph.sharded2"),
        "ns/mutation",
    );
    metrics.set(
        "graph.metrics_ns_per_point",
        metrics_ns as f64 / points,
        "ns/point",
    );

    let check2 = per("check2");
    metrics.set("engine.check_ns_per_event", check2, "ns/event");
    metrics.set(
        "engine.check_1shard_ns_per_event",
        per("check1"),
        "ns/event",
    );
    metrics.set("engine.fused_replay_ns_per_event", per("fused"), "ns/event");
    metrics.set(
        "engine.fused_sampled_ns_per_event",
        per("fused_sampled"),
        "ns/event",
    );
    metrics.set(
        "engine.pipelined_replay_ns_per_event",
        per("pipelined"),
        "ns/event",
    );
    metrics.set("shard_replay.ns_per_event", per("shard_replay"), "ns/event");
    // Layer costs per event of the engine's own input.
    let decode = per("decode");
    let sharded2 = t.ns("graph.sharded2") / events_total;
    let metric_pts = metrics_ns as f64 / events_total;
    let unattributed = check2 - decode - sharded2 - metric_pts;
    let detector = per("check1") - per("pipelined");
    metrics.set("detector.ns_per_event", detector, "ns/event");
    metrics.set("engine.unattributed_ns_per_event", unattributed, "ns/event");
    let live = per("live");
    let reexec_ns = per("reexec");
    metrics.set("process.live_ns_per_event", live, "ns/event");
    metrics.set("process.slowdown_vs_reexec", live / reexec_ns, "ratio");
    metrics.set("model.build_ns_per_sample", per("model"), "ns/sample");
    metrics.set("model.stable_metrics", stable as f64, "count");
    metrics.set("cli.startup_ms", median(&startup_ms), "ms");

    // The CLI engine decodes on a second thread, so on two cores the
    // layer sum can exceed the engine's time: the share is signed.
    metrics.set(
        "attribution.replay_unattributed_share",
        (unattributed - detector) / check2,
        "ratio",
    );
    let run_rest = live - reexec_ns - sharded2 - metric_pts - detector;
    metrics.set(
        "attribution.run_unattributed_share",
        run_rest / live,
        "ratio",
    );
    let fs = per("fused_sampled");
    let sampled_rest = fs
        - decode
        - per("admit")
        - apply_sampled_ns as f64 / events_total
        - metrics_sampled_ns as f64 / events_total;
    metrics.set(
        "attribution.sampled_replay_unattributed_share",
        sampled_rest / fs,
        "ratio",
    );
    let traced = t.ns("layered_traced");
    let untraced = t.ns("layered_untraced");
    metrics.set(
        "tracing.overhead_share",
        (traced - untraced) / untraced,
        "ratio",
    );
    metrics.set("tracing.span_ns", clock, "ns");

    // Times are scaled to the reference host speed, like the untraced
    // pass's, so layer and end-to-end figures compare; spans stay raw.
    kernel.push(calib::kernel_ns() as f64);
    metrics.scale_times(calib::REFERENCE_NS / median(&kernel), &["tracing.span_ns"]);

    eprintln!(
        "ledger: {done} trace passes over {} traces, {} spans",
        corpus.timing.len(),
        tr.len()
    );
    if let Err(e) = tr.write(spans_path) {
        eprintln!(
            "ledger: cannot write spans to {}: {e}",
            spans_path.display()
        );
    }
}
