//! Splits the graph_update bench cost between the simulated heap and
//! the heap-graph, so optimization effort goes where the time is —
//! plus a codec section showing what block-decode buffer reuse saves
//! on the replay hot path, and a replay section timing each engine.
//!
//! Run: `cargo run --release -p heapmd-bench --example profile_hotpath`

use heap_graph::HeapGraph;
use heapmd::{BinaryTraceImage, Process, Settings};
use sim_heap::{Addr, AllocSite, SimHeap};
use std::time::Instant;

const N: usize = 10_000;
const REPS: usize = 50;

/// Like [`time`] but reports per-event cost and throughput for a
/// routine that processes `events` events per call.
fn time_events(label: &str, events: u64, f: &mut dyn FnMut()) {
    f();
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    println!(
        "{label:<28} {:>10.1} µs  ({:>6.1} ns/event, {:.1}M events/s)",
        best as f64 / 1e3,
        best as f64 / events as f64,
        events as f64 * 1e3 / best as f64
    );
}

fn time(label: &str, mut f: impl FnMut()) {
    // Warm up once, then report the best of REPS (least-noise floor).
    f();
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    println!(
        "{label:<28} {:>10.1} µs  ({:>6.1} ns/node)",
        best as f64 / 1e3,
        best as f64 / N as f64
    );
}

fn main() {
    time("heap only: chain", || {
        let mut heap = SimHeap::new();
        let mut addrs: Vec<Addr> = Vec::with_capacity(N);
        for _ in 0..N {
            addrs.push(heap.alloc(32, AllocSite(0)).unwrap().addr);
        }
        for w in addrs.windows(2) {
            heap.write_ptr(w[0].offset(8), w[1]).unwrap();
        }
    });

    time("heap+graph: chain", || {
        let mut heap = SimHeap::new();
        let mut graph = HeapGraph::new();
        let mut addrs: Vec<Addr> = Vec::with_capacity(N);
        for _ in 0..N {
            let eff = heap.alloc(32, AllocSite(0)).unwrap();
            graph.on_alloc(eff.id, eff.addr, eff.size);
            addrs.push(eff.addr);
        }
        for w in addrs.windows(2) {
            let eff = heap.write_ptr(w[0].offset(8), w[1]).unwrap();
            graph.on_ptr_write(eff.src, eff.offset, w[1]);
        }
    });

    let (mut heap, mut graph) = {
        let mut heap = SimHeap::new();
        let mut graph = HeapGraph::new();
        let mut addrs: Vec<Addr> = Vec::with_capacity(N);
        for _ in 0..N {
            let eff = heap.alloc(32, AllocSite(0)).unwrap();
            graph.on_alloc(eff.id, eff.addr, eff.size);
            addrs.push(eff.addr);
        }
        for w in addrs.windows(2) {
            let eff = heap.write_ptr(w[0].offset(8), w[1]).unwrap();
            graph.on_ptr_write(eff.src, eff.offset, w[1]);
        }
        (heap, graph)
    };

    time("heap only: alloc/free", || {
        for _ in 0..N {
            let eff = heap.alloc(32, AllocSite(1)).unwrap();
            heap.free(eff.addr).unwrap();
        }
    });

    time("heap+graph: alloc/free", || {
        for _ in 0..N {
            let eff = heap.alloc(32, AllocSite(1)).unwrap();
            graph.on_alloc(eff.id, eff.addr, eff.size);
            let freed = heap.free(eff.addr).unwrap();
            graph.on_free(freed.id);
        }
    });

    // Codec hot path: decoding the same multi-block binary trace with
    // one reused event buffer vs. a fresh allocation per block. The
    // pipelined replay engine recycles buffers through a return
    // channel, so the "reused buffer" line is the shipping behavior.
    let image = {
        let settings = Settings::builder().frq(100).build().unwrap();
        let mut p = Process::new(settings);
        p.enable_trace();
        let mut prev = None;
        let (func, site) = (p.function("build"), p.site("node"));
        for _ in 0..N {
            p.enter(func);
            let a = p.malloc(24, site).unwrap();
            if let Some(prev) = prev {
                p.write_ptr(a, prev).unwrap();
            }
            prev = Some(a);
            p.leave();
        }
        let trace = p.take_trace().unwrap();
        BinaryTraceImage::open(trace.encode_binary()).unwrap()
    };

    time("codec: fresh buffer/block", || {
        for entry in image.event_blocks() {
            let mut events = Vec::new();
            image.decode_block_into(entry, &mut events).unwrap();
            std::hint::black_box(&events);
        }
    });

    let mut events = Vec::new();
    time("codec: reused buffer", || {
        for entry in image.event_blocks() {
            image.decode_block_into(entry, &mut events).unwrap();
            std::hint::black_box(&events);
        }
    });

    // Replay engines: wall-clock per engine.
    let settings = Settings::builder().frq(100).build().unwrap();
    let replay_events = image.index().total_events;
    println!("\nreplay engines ({replay_events} events):");
    for (label, decode_ahead) in [("replay: decode-ahead", true), ("replay: inline", false)] {
        time_events(label, replay_events, &mut || {
            heapmd::TraceChecker::new(decode_ahead)
                .replay_image(&image, &settings, "prof", None)
                .unwrap();
        });
    }
}
