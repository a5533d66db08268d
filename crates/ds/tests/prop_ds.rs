//! Property tests: data-structure invariants hold under arbitrary
//! operation sequences, and the heap-graph stays internally consistent
//! throughout.

use faults::FaultPlan;
use heapmd::{Process, Settings};
use proptest::prelude::*;
use sim_ds::{SimBTree, SimBinTree, SimDList, SimHashTable};

fn process() -> Process {
    Process::new(Settings::builder().frq(10_000).build().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dlist_stays_well_formed(ops in proptest::collection::vec((0u8..3, 0u64..100), 1..80)) {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut l = SimDList::new(&mut p, "t").unwrap();
        let mut nodes = Vec::new();
        for (op, v) in ops {
            match op {
                0 => nodes.push(l.push_back(&mut p, &mut plan, v).unwrap()),
                1 if !nodes.is_empty() => {
                    let n = nodes.remove((v as usize) % nodes.len());
                    l.remove(&mut p, n).unwrap();
                }
                _ => {
                    let pred = if nodes.is_empty() {
                        l.sentinel()
                    } else {
                        nodes[(v as usize) % nodes.len()]
                    };
                    nodes.push(l.insert_after(&mut p, &mut plan, pred, v).unwrap());
                }
            }
            prop_assert_eq!(l.len(), nodes.len());
        }
        prop_assert_eq!(l.count_back_pointer_violations(&mut p).unwrap(), 0);
        p.graph().validate().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn btree_matches_sorted_reference(keys in proptest::collection::vec(0u64..1000, 1..150)) {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBTree::new(&mut p, "t").unwrap();
        for &k in &keys {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        let mut expect = keys.clone();
        expect.sort();
        prop_assert_eq!(t.keys_in_order(), expect);
        t.check_invariants().map_err(TestCaseError::fail)?;
        prop_assert_eq!(t.count_heap_link_mismatches(&mut p).unwrap(), 0);
        p.graph().validate().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn bintree_membership_is_exact(keys in proptest::collection::hash_set(0u64..500, 1..100)) {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut t = SimBinTree::new(&mut p, "t");
        for &k in &keys {
            t.insert(&mut p, &mut plan, k).unwrap();
        }
        prop_assert_eq!(t.count_parent_pointer_violations(&mut p).unwrap(), 0);
        for k in 0..500 {
            prop_assert_eq!(t.contains(&mut p, k).unwrap(), keys.contains(&k));
        }
    }

    #[test]
    fn hashtable_matches_reference_map(
        ops in proptest::collection::vec((prop::bool::ANY, 0u64..50), 1..120)
    ) {
        let mut p = process();
        let mut plan = FaultPlan::new();
        let mut m = SimHashTable::new(&mut p, 16, "t").unwrap();
        let mut reference: std::collections::HashMap<u64, usize> = Default::default();
        for (insert, k) in ops {
            if insert {
                m.insert(&mut p, &mut plan, k).unwrap();
                *reference.entry(k).or_default() += 1;
            } else {
                let removed = m.remove(&mut p, k).unwrap();
                let cnt = reference.entry(k).or_default();
                if *cnt > 0 {
                    prop_assert!(removed);
                    *cnt -= 1;
                } else {
                    prop_assert!(!removed);
                }
            }
        }
        for (&k, &cnt) in &reference {
            prop_assert_eq!(m.lookup(&mut p, k).unwrap(), cnt > 0, "key {}", k);
        }
        let total: usize = reference.values().sum();
        prop_assert_eq!(m.len(), total);
        p.graph().validate().map_err(TestCaseError::fail)?;
    }
}
