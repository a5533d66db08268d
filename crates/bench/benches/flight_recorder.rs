//! Overhead of the anomaly flight recorder (PR 4). The recorder
//! captures every metric plus alloc/free/store rates at each
//! computation point into bounded downsampled series; the acceptance
//! bar is that `recorder_on` stays within 5% of `recorder_off` on
//! events/s — the capture cost is per computation point (one every
//! `frq` function entries), not per heap event.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use heapmd::{Process, Settings};
use sim_heap::{Addr, NULL};

const OPS: usize = 4_000;
const RECORDER_POINTS: usize = 512;

/// The same list-churn mutator loop as `instrumentation_overhead`, so
/// the two groups are directly comparable.
fn instrumented_loop(p: &mut Process) {
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
}

fn bench_flight_recorder(c: &mut Criterion) {
    let settings = Settings::builder().frq(100).build().unwrap();
    let mut group = c.benchmark_group("flight_recorder");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("recorder_off", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            instrumented_loop(&mut p);
        })
    });
    group.bench_function("recorder_on", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            p.enable_flight_recorder(RECORDER_POINTS);
            instrumented_loop(&mut p);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_flight_recorder);
criterion_main!(benches);
