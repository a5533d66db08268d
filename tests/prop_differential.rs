//! Differential property test: the dense-slab [`HeapGraph`] and the
//! map-based [`ReferenceGraph`] (the pre-optimization implementation,
//! kept under the `reference-graph` feature) must agree exactly on
//! every observable — snapshot, degree histogram, all seven paper
//! metrics, and per-node degrees — under arbitrary event sequences,
//! including frees that dangle pointers and allocations that re-bind
//! them through address reuse.
//!
//! This is the acceptance gate for the hot-path rewrite: ≥ 1024 random
//! cases, each checking agreement after *every* operation.

use heap_graph::{HeapGraph, MetricKind, ReferenceGraph};
use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, HeapError, HeapEvent, ObjectId, SimHeap};

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
        3 => (8usize..128).prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::FreeNth),
        4 => ((0usize..64), (0usize..64), (0u64..4))
            .prop_map(|(src, dst, slot)| Op::Link { src, dst, slot: slot * 8 }),
        1 => ((0usize..64), (0u64..4)).prop_map(|(src, slot)| Op::Unlink { src, slot: slot * 8 }),
        1 => ((0usize..64), (0u64..4)).prop_map(|(src, slot)| Op::Scalar { src, slot: slot * 8 }),
    ]
}

/// Asserts every observable the two implementations share is equal.
fn assert_agree(
    opt: &HeapGraph,
    refg: &ReferenceGraph,
    live: &[(ObjectId, Addr)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(opt.snapshot(), refg.snapshot());
    prop_assert_eq!(opt.histogram(), refg.histogram());
    prop_assert_eq!(opt.node_count(), refg.node_count());
    prop_assert_eq!(opt.edge_count(), refg.edge_count());
    prop_assert_eq!(opt.dangling_count(), refg.dangling_count());
    let om = opt.metrics();
    let rm = refg.metrics();
    for kind in MetricKind::ALL {
        prop_assert_eq!(
            om.get(kind).to_bits(),
            rm.get(kind).to_bits(),
            "metric {:?} diverged: optimized {} vs reference {}",
            kind,
            om.get(kind),
            rm.get(kind)
        );
    }
    for &(id, _) in live {
        let o = opt.node(id).map(|n| (n.indegree, n.outdegree));
        prop_assert_eq!(o, refg.degrees(id), "degrees diverged for {:?}", id);
        prop_assert!(opt.contains(id) && refg.contains(id));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // ISSUE acceptance: optimized and reference graphs agree on
    // snapshot, histogram, and all seven metrics over >= 1024 random
    // event sequences.
    #[test]
    fn dense_graph_matches_reference_graph(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        let mut heap = SimHeap::new();
        let mut opt = HeapGraph::new();
        let mut refg = ReferenceGraph::new();
        let mut live: Vec<(ObjectId, Addr)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let eff = heap.alloc(size, AllocSite(0)).unwrap();
                    opt.on_alloc(eff.id, eff.addr, eff.size);
                    refg.on_alloc(eff.id, eff.addr, eff.size);
                    live.push((eff.id, eff.addr));
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (_, addr) = live.remove(n % live.len());
                        let eff = heap.free(addr).unwrap();
                        opt.on_free(eff.id);
                        refg.on_free(eff.id);
                    }
                }
                Op::Link { src, dst, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()].1;
                        let d = live[dst % live.len()].1;
                        match heap.write_ptr(s.offset(slot), d) {
                            Ok(w) => {
                                opt.on_ptr_write(w.src, w.offset, d);
                                refg.on_ptr_write(w.src, w.offset, d);
                            }
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Unlink { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()].1;
                        match heap.write_ptr(s.offset(slot), sim_heap::NULL) {
                            Ok(w) => {
                                opt.on_ptr_write(w.src, w.offset, sim_heap::NULL);
                                refg.on_ptr_write(w.src, w.offset, sim_heap::NULL);
                            }
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Scalar { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()].1;
                        match heap.write_scalar(s.offset(slot)) {
                            Ok(w) => {
                                opt.on_scalar_write(w.src, w.offset);
                                refg.on_scalar_write(w.src, w.offset);
                            }
                            Err(HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }

            opt.validate().map_err(|e| {
                TestCaseError::fail(format!("dense graph invariant violated: {e}"))
            })?;
            assert_agree(&opt, &refg, &live)?;
        }
    }

    // The event-slice entry points agree with the reference graph's
    // per-event path too (exercises `apply`/`apply_batch` dispatch).
    #[test]
    fn batched_apply_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut heap = SimHeap::new();
        let mut live: Vec<Addr> = Vec::new();
        let mut events = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let eff = heap.alloc(size, AllocSite(0)).unwrap();
                    live.push(eff.addr);
                    events.push(HeapEvent::Alloc {
                        obj: eff.id,
                        addr: eff.addr,
                        size: eff.size,
                        site: AllocSite(0),
                    });
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        let eff = heap.free(addr).unwrap();
                        events.push(HeapEvent::Free {
                            obj: eff.id,
                            addr: eff.addr,
                            size: eff.size,
                        });
                    }
                }
                Op::Link { src, dst, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        let d = live[dst % live.len()];
                        match heap.write_ptr(s.offset(slot), d) {
                            Ok(w) => events.push(HeapEvent::PtrWrite {
                                src: w.src,
                                offset: w.offset,
                                value: d,
                                old_value: w.old_value,
                            }),
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Unlink { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        match heap.write_ptr(s.offset(slot), sim_heap::NULL) {
                            Ok(w) => events.push(HeapEvent::PtrWrite {
                                src: w.src,
                                offset: w.offset,
                                value: sim_heap::NULL,
                                old_value: w.old_value,
                            }),
                            Err(HeapError::TornAccess { .. } | HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
                Op::Scalar { src, slot } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        match heap.write_scalar(s.offset(slot)) {
                            Ok(w) => events.push(HeapEvent::ScalarWrite {
                                src: w.src,
                                offset: w.offset,
                                old_value: w.old_value,
                            }),
                            Err(HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }
        }

        let mut batched = HeapGraph::new();
        batched.apply_batch(&events);
        let mut refg = ReferenceGraph::new();
        for ev in &events {
            refg.apply(ev);
        }
        prop_assert_eq!(batched.snapshot(), refg.snapshot());
        prop_assert_eq!(batched.histogram(), refg.histogram());
    }
}
