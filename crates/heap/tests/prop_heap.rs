//! Property-based tests for the simulated heap.
//!
//! Drives the heap with arbitrary operation sequences and checks the
//! allocator's structural invariants: live ranges never overlap, stats
//! stay consistent, interior pointers always resolve to the covering
//! object, and freed addresses only rebind to equal-size-class blocks.

use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, HeapError, SimHeap};

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    FreeNth(usize),
    WriteNth { src: usize, dst: usize, off: u64 },
    ReadNth(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..256).prop_map(Op::Alloc),
        (0usize..64).prop_map(Op::FreeNth),
        ((0usize..64), (0usize..64), (0u64..4)).prop_map(|(src, dst, off)| Op::WriteNth {
            src,
            dst,
            off: off * 8
        }),
        (0usize..64).prop_map(Op::ReadNth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_invariants_hold_under_random_ops(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut heap = SimHeap::new();
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let eff = heap.alloc(size, AllocSite(0)).expect("unbounded heap");
                    live.push(eff.addr);
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        heap.free(addr).expect("freeing a live start address");
                    }
                }
                Op::WriteNth { src, dst, off } => {
                    if !live.is_empty() {
                        let s = live[src % live.len()];
                        let d = live[dst % live.len()];
                        let slot = s.offset(off);
                        match heap.write_ptr(slot, d) {
                            Ok(_) => {}
                            // The offset may fall past a small object's end:
                            // into its own tail (torn), into alignment padding
                            // (wild), or into the next object (a legal store
                            // from the heap's point of view).
                            Err(HeapError::TornAccess { .. }) | Err(HeapError::WildAccess(_)) => {}
                            Err(e) => panic!("unexpected write error: {e}"),
                        }
                    }
                }
                Op::ReadNth(n) => {
                    if !live.is_empty() {
                        heap.read(live[n % live.len()]).expect("reading live object");
                    }
                }
            }

            // Invariant: bookkeeping matches the shadow model.
            prop_assert_eq!(heap.live_objects(), live.len());
            prop_assert_eq!(heap.stats().live_objects() as usize, live.len());
        }

        // Invariant: live ranges are disjoint.
        let mut prev_end = 0u64;
        for rec in heap.iter_live() {
            prop_assert!(rec.start().get() >= prev_end, "ranges overlap");
            prev_end = rec.start().get() + rec.size() as u64;
        }

        // Invariant: every live start resolves to itself, interior too.
        for &addr in &live {
            let rec = heap.resolve(addr).expect("live object resolves");
            prop_assert_eq!(rec.start(), addr);
            let last = addr.offset(rec.size() as u64 - 1);
            prop_assert_eq!(heap.resolve(last).expect("interior resolves").start(), addr);
        }
    }

    #[test]
    fn slot_values_follow_last_write(writes in proptest::collection::vec((0u64..4, 0usize..8), 1..50)) {
        let mut heap = SimHeap::new();
        let base = heap.alloc(64, AllocSite(0)).unwrap().addr;
        let targets: Vec<Addr> = (0..8)
            .map(|_| heap.alloc(16, AllocSite(0)).unwrap().addr)
            .collect();
        let mut shadow: std::collections::HashMap<u64, Addr> = Default::default();
        for (slot, t) in writes {
            let off = slot * 8;
            heap.write_ptr(base.offset(off), targets[t]).unwrap();
            shadow.insert(off, targets[t]);
        }
        for (off, want) in shadow {
            prop_assert_eq!(heap.read_ptr(base.offset(off)).unwrap().1, Some(want));
        }
    }

    #[test]
    fn address_reuse_only_within_size_class(sizes in proptest::collection::vec(1usize..512, 2..40)) {
        let mut heap = SimHeap::new();
        let allocs: Vec<(Addr, usize)> = sizes
            .iter()
            .map(|&s| (heap.alloc(s, AllocSite(0)).unwrap().addr, s))
            .collect();
        for &(a, _) in &allocs {
            heap.free(a).unwrap();
        }
        // Reallocate the same sizes: every address must come back (LIFO pop
        // order differs, but the multiset of addresses per size class matches).
        use std::collections::HashMap;
        let mut by_class: HashMap<usize, Vec<Addr>> = HashMap::new();
        for &(a, s) in &allocs {
            by_class.entry(s.div_ceil(16)).or_default().push(a);
        }
        for &s in &sizes {
            let addr = heap.alloc(s, AllocSite(0)).unwrap().addr;
            let class = by_class.get_mut(&s.div_ceil(16)).expect("class exists");
            let pos = class.iter().position(|&a| a == addr);
            prop_assert!(pos.is_some(), "recycled address must come from same class");
            class.remove(pos.unwrap());
        }
    }
}
