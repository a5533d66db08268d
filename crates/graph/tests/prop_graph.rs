//! Property-based test: the incremental heap-graph stays consistent
//! with a from-scratch recomputation under arbitrary event sequences
//! (including frees that dangle pointers and allocations that re-bind
//! them through address reuse).

use heap_graph::HeapGraph;
use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, HeapError, SimHeap};

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    FreeNth(usize),
    Link { src: usize, dst: usize, slot: u64 },
    Unlink { src: usize, slot: u64 },
    Scalar { src: usize, slot: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (8usize..128).prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::FreeNth),
        4 => ((0usize..64), (0usize..64), (0u64..4))
            .prop_map(|(src, dst, slot)| Op::Link { src, dst, slot: slot * 8 }),
        1 => ((0usize..64), (0u64..4)).prop_map(|(src, slot)| Op::Unlink { src, slot: slot * 8 }),
        1 => ((0usize..64), (0u64..4)).prop_map(|(src, slot)| Op::Scalar { src, slot: slot * 8 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_graph_matches_scratch_recompute(
        ops in proptest::collection::vec(op_strategy(), 1..250)
    ) {
        let mut heap = SimHeap::new();
        let mut graph = HeapGraph::new();
        let mut live: Vec<Addr> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let eff = heap.alloc(size, AllocSite(0)).unwrap();
                    graph.on_alloc(eff.id, eff.addr, eff.size);
                    live.push(eff.addr);
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        let eff = heap.free(addr).unwrap();
                        graph.on_free(eff.id);
                    }
                }
                Op::Link { src, dst, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        let d = live[dst % live.len()];
                        match heap.write_ptr(s.offset(slot), d) {
                            Ok(w) => graph.on_ptr_write(w.src, w.offset, d),
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Unlink { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        match heap.write_ptr(s.offset(slot), sim_heap::NULL) {
                            Ok(w) => graph.on_ptr_write(w.src, w.offset, sim_heap::NULL),
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Scalar { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        match heap.write_scalar(s.offset(slot)) {
                            Ok(w) => graph.on_scalar_write(w.src, w.offset),
                            Err(HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }

            graph.validate().map_err(|e| {
                TestCaseError::fail(format!("invariant violated: {e}"))
            })?;
            prop_assert_eq!(graph.node_count() as usize, live.len());
        }

        // Metric sanity: percentages lie in [0, 100] and indegree buckets
        // never exceed 100 in total.
        let m = graph.metrics();
        for (_, v) in m.iter() {
            prop_assert!((0.0..=100.0).contains(&v));
        }
        let indeg_total = m.get(heap_graph::MetricKind::Roots)
            + m.get(heap_graph::MetricKind::Indeg1)
            + m.get(heap_graph::MetricKind::Indeg2);
        prop_assert!(indeg_total <= 100.0 + 1e-9);
    }
}
