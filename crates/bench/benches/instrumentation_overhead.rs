//! The paper's §2 claim: the online prototype costs a 2–3× slowdown.
//! The analogue here: the same mutator loop against (a) the bare
//! simulated heap, (b) the full execution logger (heap-graph image +
//! sampling), and (c) the logger with the anomaly detector attached.
//!
//! Two further cases measure the observability layer itself: the
//! execution-logger loop with obs disabled (the default — every probe
//! is a single relaxed atomic load) and with obs enabled (counters,
//! gauges, and latency histograms recording; no sink attached). The
//! acceptance bar is that the disabled case stays within noise of
//! `execution_logger`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use heapmd::{AnomalyDetector, HeapModel, Monitor, Process, SamplerConfig, Settings};
use sim_heap::{Addr, AllocSite, SimHeap, NULL};
use std::cell::RefCell;
use std::rc::Rc;
use swat::AdaptiveSampler;

const OPS: usize = 4_000;

/// The mutator loop: list churn with allocation, linking, and frees.
fn raw_heap_loop() {
    let mut heap = SimHeap::new();
    let mut head = NULL;
    let mut live: Vec<Addr> = Vec::new();
    for i in 0..OPS {
        let a = heap.alloc(24, AllocSite(0)).unwrap().addr;
        if !head.is_null() {
            heap.write_ptr(a.offset(8), head).unwrap();
        }
        head = a;
        live.push(a);
        if i % 4 == 3 {
            let victim = live.swap_remove(i % live.len());
            if victim != head {
                heap.free(victim).unwrap();
            }
        }
    }
}

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

fn bench_overhead(c: &mut Criterion) {
    let settings = Settings::builder().frq(100).build().unwrap();
    let model = HeapModel {
        version: heapmd::MODEL_FORMAT_VERSION,
        program: "bench".into(),
        settings: settings.clone(),
        stable: vec![],
        unstable: vec![],
        locally_stable: vec![],
        sample_rate: 1.0,
        training_runs: 0,
    };
    let mut group = c.benchmark_group("instrumentation_overhead");
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_function("bare_heap", |b| b.iter(raw_heap_loop));
    group.bench_function("execution_logger", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            instrumented_loop(&mut p);
        })
    });
    group.bench_function("execution_logger_obs_disabled", |b| {
        heapmd_obs::set_enabled(false);
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            instrumented_loop(&mut p);
        })
    });
    group.bench_function("execution_logger_obs_enabled", |b| {
        heapmd_obs::set_enabled(true);
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            instrumented_loop(&mut p);
        });
        heapmd_obs::set_enabled(false);
    });
    group.bench_function("execution_logger_sampled", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            p.enable_sampling(SamplerConfig::default());
            instrumented_loop(&mut p);
        })
    });
    // The sampler's own bookkeeping, isolated: one `record` per store
    // against a dense site-indexed table (16 sites, the hot/cold split
    // at the default threshold). This is the marginal cost `--sample`
    // adds to every store before any work is saved.
    group.bench_function("adaptive_sampler_record", |b| {
        let d = SamplerConfig::default();
        b.iter(|| {
            let mut sampler = AdaptiveSampler::new(d.hot_threshold, d.decimation);
            let mut kept = 0u64;
            for i in 0..OPS {
                kept += u64::from(sampler.record(AllocSite((i % 16) as u32)));
            }
            kept
        })
    });
    group.bench_function("logger_plus_detector", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            let det = Rc::new(RefCell::new(AnomalyDetector::new(
                model.clone(),
                settings.clone(),
            )));
            p.attach(det as Rc<RefCell<dyn Monitor>>);
            instrumented_loop(&mut p);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
