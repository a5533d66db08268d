//! Single-trace ingestion: the fused decode→ingest engine and the same
//! replay from a file with its open included, both against the
//! pipelined engine (`replay_pipelined`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use heapmd::{BinaryTraceImage, Process, Settings, Trace};
use sim_heap::{Addr, NULL};

/// Mutator ops behind the bench trace; ~4.3 heap events each, the same
/// list-churn loop as `trace_codec` so numbers are comparable.
const OPS: usize = 6_000;

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

fn bench_sharded_replay(c: &mut Criterion) {
    let trace = churn_trace();
    let events = trace.len() as u64;
    let binary = trace.encode_binary();
    let settings = Settings::builder().frq(100).build().unwrap();
    let image = BinaryTraceImage::open(binary.clone()).unwrap();

    let dir = std::env::temp_dir().join("heapmd-sharded-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("churn.hmdt");
    trace.save_binary(&path).unwrap();

    let mut group = c.benchmark_group("sharded_replay");
    group.throughput(Throughput::Elements(events));

    // The PR 5 pipelined engine — the `before` baseline.
    group.bench_function("replay_pipelined", |b| {
        b.iter(|| heapmd::replay_binary(&image, &settings, "bench").unwrap())
    });

    // The fused single-thread decode→ingest engine.
    group.bench_function("replay_fused", |b| {
        b.iter(|| heapmd::replay_binary_fused(&image, &settings, "bench").unwrap())
    });

    // File-to-report, open included: blocks read from the file by
    // position as they decode.
    group.bench_function("replay_open", |b| {
        b.iter(|| {
            let image = BinaryTraceImage::open_path(&path).unwrap();
            heapmd::replay_binary_fused(&image, &settings, "bench").unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sharded_replay);
criterion_main!(benches);
