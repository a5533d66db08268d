//! Trace codec throughput of the block-based binary format, end to
//! end — encode, decode, replay (through the pipelined decoder →
//! ingest engine), and the offline multi-trace `check --jobs N` pool.
//!
//! Bench names keep their `*_binary` suffix so they line up with the
//! phases recorded in BENCH_PR5.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heapmd::{BinaryTraceImage, BinaryTraceReader, ModelBuilder, Process, Settings, Trace};
use sim_heap::{Addr, NULL};
use std::path::PathBuf;

/// Mutator ops behind the bench trace; ~4.3 heap events each, so the
/// trace spans several 4096-event blocks.
const OPS: usize = 6_000;
/// Traces fanned out to the offline check pool.
const POOL_TRACES: usize = 8;

/// The same list-churn mutator loop as `instrumentation_overhead`, so
/// codec numbers are comparable with the rest of the suite.
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

/// Writes `n` copies of the trace under `tmp`, returning the paths.
fn pool_files(trace: &Trace, n: usize) -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join("heapmd-codec-bench");
    std::fs::create_dir_all(&dir).unwrap();
    (0..n)
        .map(|i| {
            let path = dir.join(format!("pool-{i}.bin.hmdt"));
            trace.save_binary(&path).unwrap();
            path
        })
        .collect()
}

fn bench_trace_codec(c: &mut Criterion) {
    let trace = churn_trace();
    let events = trace.len() as u64;
    let binary = trace.encode_binary();
    let settings = Settings::builder().frq(100).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    builder.add_run(&trace.replay(&settings, "train").unwrap());
    let model = builder.build().model;
    let binary_pool = pool_files(&trace, POOL_TRACES);

    let mut group = c.benchmark_group("trace_codec");
    group.throughput(Throughput::Elements(events));

    group.bench_function("encode_binary", |b| b.iter(|| trace.encode_binary()));
    group.bench_function("decode_binary", |b| {
        b.iter(|| BinaryTraceReader::strict(&binary[..]).unwrap())
    });

    // End-to-end replay from bytes to a metric report: parse + graph
    // ingest + sampling. Blocks decode on a pipeline thread while
    // ingestion consumes them.
    group.bench_function("replay_binary", |b| {
        b.iter(|| {
            let image = BinaryTraceImage::open(binary.clone()).unwrap();
            heapmd::replay_binary(&image, &settings, "bench").unwrap()
        })
    });

    // Offline `check --jobs N` over a pool of trace files, end to end
    // (open + decode + detector replay), merged in input order.
    group.throughput(Throughput::Elements(events * POOL_TRACES as u64));
    for jobs in [1usize, 2, 8] {
        group.bench_function(BenchmarkId::new("check_binary_jobs", jobs), |b| {
            b.iter(|| {
                heapmd::check_paths_parallel(&binary_pool, &model, &settings, jobs, false, 1, None)
                    .into_iter()
                    .map(|r| r.unwrap().bugs.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_codec);
criterion_main!(benches);
