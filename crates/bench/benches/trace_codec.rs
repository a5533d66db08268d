//! Trace codec throughput of the block-based binary format, end to
//! end — encode, decode, replay (through the decode-ahead loop and the
//! inline loop, and from a file with its open included), and the
//! offline `check --jobs N` pool: over several traces, where every
//! worker decodes inline, and over one trace, which decodes ahead.
//!
//! Bench names keep their `*_binary` suffix so they line up with the
//! phases recorded in BENCH_PR5.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heapmd::{
    BinaryTraceImage, BinaryTraceReader, ModelBuilder, Process, Settings, Trace, TraceChecker,
};
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

    // A replay on a fresh worker, each block decoded ahead on a thread
    // of its own or inline.
    let replay = |image: &BinaryTraceImage, decode_ahead: bool| {
        let mut worker = TraceChecker::new(decode_ahead);
        let (report, _) = worker
            .replay_image(image, &settings, "bench", None)
            .unwrap();
        report.samples.len()
    };
    // End-to-end replay from bytes to a metric report: parse + graph
    // ingest + sampling. Blocks decode on a pipeline thread while
    // ingestion consumes them.
    group.bench_function("replay_binary", |b| {
        b.iter(|| replay(&BinaryTraceImage::open(binary.clone()).unwrap(), true))
    });
    // The inline loop over an open image: each block decodes on the
    // calling thread into one reused buffer.
    let image = BinaryTraceImage::open(binary.clone()).unwrap();
    group.bench_function("replay_fused", |b| b.iter(|| replay(&image, false)));
    // File-to-report, open included: blocks read from the file by
    // position as they decode.
    group.bench_function("replay_open", |b| {
        b.iter(|| {
            replay(
                &BinaryTraceImage::open_path(&binary_pool[0]).unwrap(),
                false,
            )
        })
    });

    // Offline `check --jobs N` over the first `n` pool files, end to
    // end (open + decode + detector replay), merged in input order, as
    // `check` runs it: one checker per worker.
    let pooled_check = |n: usize, jobs: usize| {
        let mut bugs = 0;
        let check = |checker: &mut TraceChecker, i: usize| {
            checker.check_path(&binary_pool[i], &model, &settings, false, None)
        };
        let Ok(()) =
            heapmd::run_pool_streaming("check_pool", n, jobs, TraceChecker::new, check, |_, r| {
                bugs += r.unwrap().bugs.len();
                Ok::<(), std::convert::Infallible>(())
            });
        bugs
    };
    // One trace on two jobs: the spare job decodes ahead.
    group.bench_function("check_one_trace", |b| b.iter(|| pooled_check(1, 2)));
    // Eight traces leave no job spare at any count: every worker
    // decodes inline.
    group.throughput(Throughput::Elements(events * POOL_TRACES as u64));
    for jobs in [1usize, 2, 8] {
        group.bench_function(BenchmarkId::new("check_binary_jobs", jobs), |b| {
            b.iter(|| pooled_check(POOL_TRACES, jobs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_codec);
criterion_main!(benches);
