//! Fleet daemon ingest throughput: N concurrent tenants streaming
//! binary traces into `heapmd::Server`, measured over the full
//! lifecycle — accept, preamble, wire decode, each connection's live
//! check with its gauges, graceful shutdown, and the authoritative
//! per-tenant verdict. Throughput is total events across the fan-out,
//! so the `tenants_resumable/N` series shows how the daemon scales
//! with concurrent streams, one connection thread each.
//!
//! The daemon runs as `heapmd serve` runs it, with observability on,
//! and every tenant pushes through the acked session client, as
//! `heapmd push` does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heapmd::{
    push_trace_resumable, ModelBuilder, Process, ServeConfig, Server, SessionOptions, Settings,
    Trace,
};
use sim_heap::{Addr, NULL};
use std::time::Duration;

/// Mutator ops behind the bench trace; the same list-churn loop as the
/// codec bench so events/s is comparable across the suite.
const OPS: usize = 2_000;

fn churn_trace() -> Trace {
    let settings = Settings::builder().frq(100).build().unwrap();
    let mut p = Process::new(settings);
    p.enable_trace();
    let mut head = NULL;
    let mut live: Vec<Addr> = Vec::new();
    let (func, site) = (p.function("loop_body"), p.site("node"));
    for i in 0..OPS {
        p.enter(func);
        let a = p.malloc(24, site).unwrap();
        if !head.is_null() {
            p.write_ptr(a.offset(8), head).unwrap();
        }
        head = a;
        live.push(a);
        if i % 4 == 3 {
            let victim = live.swap_remove(i % live.len());
            if victim != head {
                p.free(victim).unwrap();
            }
        }
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    trace.set_functions(vec!["loop_body".into()]);
    trace
}

/// One full daemon round: start, stream the trace from `tenants`
/// concurrent sessions, wait for every stream to finalize, shut down.
/// Returns the summary so the verdict work cannot be elided.
fn fleet_round(trace: &Trace, model: &heapmd::HeapModel, tenants: usize) -> usize {
    let config = ServeConfig::new(model.clone());
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").expect("start daemon");
    let ingest = server.ingest_addr().to_string();
    std::thread::scope(|scope| {
        for i in 0..tenants {
            let ingest = ingest.clone();
            scope.spawn(move || {
                let tenant = format!("bench-{i}");
                push_trace_resumable(&ingest, &tenant, trace, SessionOptions::default())
                    .expect("push");
            });
        }
    });
    let fleet = server.fleet();
    loop {
        // `connected == 0` alone is trivially true before the first
        // preamble lands; require full registration first.
        let snap = fleet.snapshot();
        if snap.tenants_total as usize >= tenants && snap.connected == 0 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    server.shutdown();
    let summary = server.wait();
    summary.tenants.len()
}

fn bench_fleet_ingest(c: &mut Criterion) {
    // `heapmd serve` always runs its own instrumentation.
    heapmd_obs::set_enabled(true);
    let trace = churn_trace();
    let events = trace.len() as u64;
    let settings = Settings::builder().frq(100).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    builder.add_run(&trace.replay(&settings, "train").unwrap());
    let model = builder.build().model;

    let mut group = c.benchmark_group("fleet_ingest");
    for tenants in [1usize, 4, 16] {
        group.throughput(Throughput::Elements(events * tenants as u64));
        group.bench_function(BenchmarkId::new("tenants_resumable", tenants), |b| {
            b.iter(|| {
                let n = fleet_round(&trace, &model, tenants);
                assert_eq!(n, tenants);
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_ingest);
criterion_main!(benches);
