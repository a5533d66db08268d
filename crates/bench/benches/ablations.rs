//! Ablations called out in DESIGN.md: sampling frequency (`frq`) vs
//! logging cost, and address reuse on/off (reuse is what makes
//! dangling-pointer bugs visible — and costs free-list work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heapmd::{Process, Settings};
use sim_heap::{AllocatorConfig, HeapConfig, SimHeap};

fn churn_process(settings: &Settings) {
    let mut p = Process::new(settings.clone());
    let mut prev = None;
    let (func, site) = (p.function("work"), p.site("node"));
    for _ in 0..2_000 {
        p.enter(func);
        let a = p.malloc(24, site).unwrap();
        if let Some(prev) = prev {
            p.write_ptr(a.offset(8), prev).unwrap();
        }
        prev = Some(a);
        p.leave();
    }
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    // frq sweep: how much does sampling cost at each frequency?
    for &frq in &[10u64, 100, 1_000] {
        let settings = Settings::builder().frq(frq).build().unwrap();
        group.bench_with_input(BenchmarkId::new("frq", frq), &settings, |b, s| {
            b.iter(|| churn_process(s));
        });
    }
    // Address reuse on/off at the allocator level.
    for &reuse in &[true, false] {
        group.bench_with_input(
            BenchmarkId::new("address_reuse", reuse),
            &reuse,
            |b, &reuse| {
                b.iter(|| {
                    let mut heap = SimHeap::with_config(HeapConfig {
                        allocator: AllocatorConfig {
                            reuse_addresses: reuse,
                            ..AllocatorConfig::default()
                        },
                        capacity: None,
                    });
                    for _ in 0..2_000 {
                        let a = heap.alloc(32, sim_heap::AllocSite(0)).unwrap().addr;
                        heap.free(a).unwrap();
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
