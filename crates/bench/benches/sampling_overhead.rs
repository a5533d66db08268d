//! Production-overhead mode (PR 10): monitoring cost with the SWAT
//! adaptive store sampler in the hot path.
//!
//! The headline claim is that at the default sampling config
//! (`hot_threshold = 512`, `decimation = 32`) the monitored replay
//! engine stays within 10% of *unmonitored replay* — decoding the
//! same recorded stream and re-executing every event against a bare
//! simulated heap, i.e. what running the program without any
//! monitoring costs the replay plane — where exact (unsampled)
//! monitoring costs a multiple of it. On this store-heavy trace the
//! sampler drops most hot-site store work entirely, so sampled
//! monitoring typically lands *under* the unmonitored baseline. The
//! live path is measured the same way: a sampling-enabled [`Process`]
//! against a plain one.
//!
//! CI's `sampling-smoke` job greps these names out of the
//! `heapmd-bench-v1` JSON and enforces a relaxed 25% smoke bar (shared
//! runners are noisy; the 10% claim is asserted on quiet hardware in
//! EXPERIMENTS.md §PR 10).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heapmd::{BinaryTraceImage, Process, SamplerConfig, Settings, Trace, TraceChecker};
use sim_heap::{Addr, HeapEvent, SimHeap, NULL};

/// Mutator ops behind the bench trace: pointer-store-heavy list churn
/// (two stores per op) so the sampler has stores to decimate, matching
/// the production workloads' store:alloc ratio more closely than the
/// codec benches' loop.
const OPS: usize = 6_000;

fn churn(p: &mut Process) {
    let mut head = NULL;
    let mut live: Vec<Addr> = Vec::new();
    let (func, site) = (p.function("loop_body"), p.site("node"));
    for i in 0..OPS {
        p.enter(func);
        let a = p.malloc(48, site).unwrap();
        if !head.is_null() {
            p.write_ptr(a.offset(8), head).unwrap();
            p.write_ptr(a.offset(16), live[i % live.len()]).unwrap();
        }
        p.write_scalar(a.offset(24)).unwrap();
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

fn churn_trace(settings: &Settings) -> Trace {
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    churn(&mut p);
    let mut trace = p.take_trace().unwrap();
    trace.set_functions(vec!["loop_body".into()]);
    trace
}

/// The monitored replay: `image` decoded inline on a fresh worker,
/// re-sampled under `sampler`. Returns the sample count.
fn replay(image: &BinaryTraceImage, settings: &Settings, sampler: Option<SamplerConfig>) -> usize {
    let mut worker = TraceChecker::new(false);
    let (report, _) = worker
        .replay_image(image, settings, "bench", sampler)
        .unwrap();
    report.samples.len()
}

fn bench_sampling_overhead(c: &mut Criterion) {
    let settings = Settings::builder().frq(100).build().unwrap();
    let trace = churn_trace(&settings);
    let events = trace.len() as u64;
    let image = BinaryTraceImage::open(trace.encode_binary()).unwrap();
    let default_config = SamplerConfig::default();

    let mut group = c.benchmark_group("sampling_overhead");
    group.throughput(Throughput::Elements(events));

    // The denominator of the overhead claim: decode every event and
    // re-execute it against a bare simulated heap — the cost of
    // running the recorded program with no monitoring at all. The
    // deterministic allocator reproduces the recorded addresses, so a
    // dense `ObjectId -> Addr` map is all the state it needs.
    group.bench_function("unmonitored_replay", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            let mut heap = SimHeap::new();
            let mut base: Vec<Addr> = Vec::new();
            let mut live_events = 0u64;
            for entry in image.event_blocks() {
                image.decode_block_into(entry, &mut buf).unwrap();
                live_events += buf.len() as u64;
                for ev in buf.iter() {
                    match *ev {
                        HeapEvent::Alloc {
                            obj, size, site, ..
                        } => {
                            let a = heap.alloc(size, site).unwrap().addr;
                            let idx = obj.0 as usize;
                            if base.len() <= idx {
                                base.resize(idx + 1, NULL);
                            }
                            base[idx] = a;
                        }
                        HeapEvent::Free { obj, .. } => {
                            heap.free(base[obj.0 as usize]).unwrap();
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
            }
            assert_eq!(live_events, events);
            live_events
        })
    });

    // Secondary floor: decode alone, no execution. Bounds how much of
    // the baseline is codec work.
    group.bench_function("decode_floor", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            let mut live_events = 0u64;
            for entry in image.event_blocks() {
                image.decode_block_into(entry, &mut buf).unwrap();
                live_events += buf.len() as u64;
            }
            live_events
        })
    });

    // Exact monitoring: every store feeds the heap graph.
    group.bench_function("monitored_exact", |b| {
        b.iter(|| replay(&image, &settings, None))
    });

    // Production mode: the adaptive sampler gates stores per
    // allocation site; alloc/free stay exact.
    group.bench_function("monitored_sampled_default", |b| {
        b.iter(|| replay(&image, &settings, Some(default_config)))
    });
    for decimation in [8u64, 128] {
        group.bench_function(
            BenchmarkId::new("monitored_sampled_decim", decimation),
            |b| {
                let config = SamplerConfig::new(default_config.hot_threshold, decimation);
                b.iter(|| replay(&image, &settings, Some(config)))
            },
        );
    }

    // The live (online) path, same story: a sampling-enabled process
    // against a plain one.
    group.bench_function("live_exact", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            churn(&mut p);
        })
    });
    group.bench_function("live_sampled_default", |b| {
        b.iter(|| {
            let mut p = Process::new(settings.clone());
            p.enable_sampling(default_config);
            churn(&mut p);
        })
    });

    group.finish();
}

criterion_group!(benches, bench_sampling_overhead);
criterion_main!(benches);
