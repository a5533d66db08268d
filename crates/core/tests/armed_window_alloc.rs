//! With its window full, the armed detector logs an event without
//! allocating: the ring overwrites each evicted slot in place, copies
//! no stack, and renders nothing until a report reads the window. That
//! holds again after a disarm and a re-arm, whose stack snapshot reuses
//! a retired buffer.
//!
//! A counting global allocator sees every allocation this binary makes,
//! so this file holds exactly one test and counts only on its thread.

use heapmd::{AnomalyDetector, HeapModel, MetricKind, Monitor, Process, Settings, StableMetric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_full_armed_window_logs_without_allocating() {
    let capacity = 16;
    let settings = Settings::builder()
        .frq(1)
        .warmup_samples(1)
        .callstack_capacity(capacity)
        .build()
        .unwrap();
    // Roots calibrated to [0, 5]: a heap of isolated objects sits at
    // 100, so the first checked sample crosses and the excursion keeps
    // the window armed.
    let model = HeapModel {
        version: heapmd::MODEL_FORMAT_VERSION,
        program: "alloc-free".into(),
        settings: settings.clone(),
        stable: vec![StableMetric {
            kind: MetricKind::Roots.into(),
            min: 0.0,
            max: 5.0,
            avg_change: 0.0,
            std_change: 1.0,
            stable_runs: 3,
            total_runs: 3,
        }],
        unstable: vec![],
        locally_stable: vec![],
        sample_rate: 1.0,
        training_runs: 3,
    };
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(model, settings.clone())));
    let mut p = Process::new(settings);
    p.attach(detector.clone());
    let (main, work, node_site) = (p.function("main"), p.function("work"), p.site("node"));
    p.enter(main); // sample 0: warm-up
    let node = p.malloc(16, node_site).unwrap();
    p.enter(work); // sample 1: Roots = 100 crosses

    // Spend the after-crossing budget and fill the window.
    for _ in 0..8 + capacity {
        p.read(node).unwrap();
    }
    assert!(
        detector.borrow().listening(),
        "the excursion keeps the window armed"
    );
    let logged = allocations_in(|| {
        for _ in 0..1_000 {
            p.read(node).unwrap();
        }
    });
    assert_eq!(logged, 0, "armed events allocated {logged} times");

    // Disarm: a self-edge brings Roots to 0, inside the band.
    p.write_ptr(node.offset(8), node).unwrap();
    p.enter(work); // sample 2
    assert!(!detector.borrow().listening(), "back in the band: disarmed");
    // Unwatched, build 18 more nodes in a chain: 1 root of 19 nodes is
    // Roots ≈ 5.26, rising into the near edge of the band's top (5.5)
    // without crossing it.
    let chain: Vec<_> = (0..18).map(|_| p.malloc(16, node_site).unwrap()).collect();
    for pair in chain.windows(2) {
        p.write_ptr(pair[0].offset(8), pair[1]).unwrap();
    }
    p.enter(work); // sample 3: the approach re-arms
    assert!(detector.borrow().listening(), "the approach re-armed");
    for _ in 0..2 * capacity {
        p.read(node).unwrap();
    }
    let relogged = allocations_in(|| {
        for _ in 0..1_000 {
            p.read(node).unwrap();
        }
    });
    assert_eq!(relogged, 0, "re-armed events allocated {relogged} times");
    p.leave();
    p.leave();
    p.leave();
    p.leave();
    let _ = p.finish("alloc-free");
    let det = detector.borrow();
    assert_eq!(det.bugs().len(), 1, "{:?}", det.bugs());
    assert_eq!(det.bugs()[0].metric, MetricKind::Roots);
}
