//! Metric computation point cost: the incremental histogram makes the
//! seven paper metrics O(1) per sample — the ablation compares against
//! the naive full recount a non-incremental design would pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heap_graph::{DegreeHistogram, HeapGraph};
use sim_heap::{Addr, AllocSite, SimHeap};

fn build(n: usize) -> HeapGraph {
    let mut heap = SimHeap::new();
    let mut graph = HeapGraph::new();
    let mut addrs: Vec<Addr> = Vec::with_capacity(n);
    for i in 0..n {
        let eff = heap.alloc(32, AllocSite(0)).unwrap();
        graph.on_alloc(eff.id, eff.addr, eff.size);
        addrs.push(eff.addr);
        if i > 0 {
            let eff = heap.write_ptr(addrs[i - 1].offset(8), addrs[i]).unwrap();
            graph.on_ptr_write(eff.src, eff.offset, addrs[i]);
        }
    }
    graph
}

/// The naive alternative: recount every vertex degree from the edge set.
fn full_recount(graph: &HeapGraph) -> heap_graph::MetricVector {
    use std::collections::HashMap;
    let mut indeg: HashMap<sim_heap::ObjectId, u32> = HashMap::new();
    let mut outdeg: HashMap<sim_heap::ObjectId, u32> = HashMap::new();
    for (src, _, dst) in graph.edges() {
        *outdeg.entry(src).or_default() += 1;
        *indeg.entry(dst).or_default() += 1;
    }
    let mut h = DegreeHistogram::new();
    for id in graph.node_ids() {
        h.add_node();
        h.change_degrees(
            0,
            indeg.get(&id).copied().unwrap_or(0),
            0,
            outdeg.get(&id).copied().unwrap_or(0),
        );
    }
    heap_graph::MetricVector::from_histogram(&h)
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric_computation");
    for &n in &[1_000usize, 20_000] {
        let graph = build(n);
        group.bench_with_input(BenchmarkId::new("incremental_o1", n), &graph, |b, g| {
            b.iter(|| g.metrics());
        });
        group.bench_with_input(BenchmarkId::new("full_recount", n), &graph, |b, g| {
            b.iter(|| full_recount(g));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
