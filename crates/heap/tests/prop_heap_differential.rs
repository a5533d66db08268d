//! Differential property test: [`SimHeap`] against a reference model
//! built from ordered maps and a set.
//!
//! The model keeps a `BTreeMap` of live starts (each with its id, size
//! and pointer slots) plus a `HashSet` of every start ever returned, and
//! predicts the outcome of each operation — including which error a bad
//! free gets (`DoubleFree` for a start that was live once, `InvalidFree`
//! otherwise). Sequences run under three allocator configurations: the
//! default, address reuse off, and 4-byte alignment, whose odd-granule
//! starts the shadow map refuses so objects take the spill path.

use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, AllocatorConfig, HeapConfig, HeapError, ObjectId, SimHeap, NULL};
use std::collections::{BTreeMap, HashSet};

#[derive(Debug, Clone)]
struct MObj {
    id: ObjectId,
    size: usize,
    slots: BTreeMap<u64, Addr>,
}

#[derive(Debug, Default)]
struct Model {
    live: BTreeMap<u64, MObj>,
    ever: HashSet<u64>,
    next_id: u64,
}

/// A freed object's id, size and pointer slots.
type Freed = (ObjectId, usize, Vec<(u64, Addr)>);

impl Model {
    /// The live object containing `raw`, as `(start, object)`.
    fn containing(&self, raw: u64) -> Option<(u64, &MObj)> {
        let (&start, obj) = self.live.range(..=raw).next_back()?;
        (raw < start + obj.size as u64).then_some((start, obj))
    }

    fn free(&mut self, addr: Addr) -> Result<Freed, HeapError> {
        if addr.is_null() {
            return Err(HeapError::NullDeref);
        }
        match self.live.remove(&addr.get()) {
            Some(o) => Ok((o.id, o.size, o.slots.into_iter().collect())),
            None if self.ever.contains(&addr.get()) => Err(HeapError::DoubleFree(addr)),
            None => Err(HeapError::InvalidFree(addr)),
        }
    }
}

/// Which address an operation aims at, resolved against the model.
#[derive(Debug, Clone)]
enum Target {
    /// Start of the i-th live object (in address order).
    Live(usize),
    /// A start that was live once but is not now.
    Dead(usize),
    /// `off` bytes into the i-th live object (may run past its end).
    Inside(usize, u64),
    /// An address below the heap's base: never allocated.
    Never(u64),
    Null,
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    Free(Target),
    Realloc(Target, usize),
    WritePtr(Target, Target),
    WriteScalar(Target),
    ReadPtr(Target),
    Read(Target),
}

fn target() -> impl Strategy<Value = Target> {
    prop_oneof![
        4 => (0usize..1 << 16).prop_map(Target::Live),
        2 => (0usize..1 << 16).prop_map(Target::Dead),
        4 => (0usize..1 << 16, 0u64..80).prop_map(|(i, o)| Target::Inside(i, o)),
        1 => (1u64..64).prop_map(Target::Never),
        1 => (0u8..1).prop_map(|_| Target::Null),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1usize..72).prop_map(Op::Alloc),
        3 => target().prop_map(Op::Free),
        1 => (target(), 0usize..72).prop_map(|(t, n)| Op::Realloc(t, n)),
        4 => (target(), target()).prop_map(|(s, v)| Op::WritePtr(s, v)),
        2 => target().prop_map(Op::WriteScalar),
        2 => target().prop_map(Op::ReadPtr),
        1 => target().prop_map(Op::Read),
    ]
}

fn resolve(m: &Model, base: u64, t: &Target) -> Addr {
    let nth_live = |i: usize| m.live.iter().nth(i % m.live.len().max(1));
    match *t {
        Target::Live(i) => nth_live(i).map_or(NULL, |(&s, _)| Addr::new(s)),
        Target::Dead(i) => {
            let mut dead: Vec<u64> = m
                .ever
                .iter()
                .copied()
                .filter(|s| !m.live.contains_key(s))
                .collect();
            dead.sort_unstable();
            match dead.len() {
                0 => Addr::new(base - 8),
                n => Addr::new(dead[i % n]),
            }
        }
        Target::Inside(i, off) => nth_live(i).map_or(NULL, |(&s, _)| Addr::new(s + off)),
        Target::Never(k) => Addr::new(base - 4 * k),
        Target::Null => NULL,
    }
}

/// Expected outcome of a slot access at `slot`: the containing object's
/// start and the slot offset, or the error the heap must report.
/// `width` is 8 for pointer accesses, 1 for scalar stores and reads.
fn access(m: &Model, slot: Addr, width: usize) -> Result<(u64, u64), HeapError> {
    if slot.is_null() {
        return Err(HeapError::NullDeref);
    }
    let raw = slot.get();
    let (start, obj) = m.containing(raw).ok_or(HeapError::WildAccess(slot))?;
    let off = raw - start;
    let remaining = obj.size - off as usize;
    if remaining < width {
        return Err(HeapError::TornAccess {
            addr: slot,
            remaining,
        });
    }
    Ok((start, off))
}

fn run(config: AllocatorConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut h = SimHeap::with_config(HeapConfig {
        allocator: config,
        capacity: None,
    });
    let mut m = Model::default();
    let base = config.base;
    let mut faults = 0u64;
    for op in ops {
        match op {
            Op::Alloc(size) => {
                let eff = h.alloc(*size, AllocSite(1)).unwrap();
                let raw = eff.addr.get();
                prop_assert_eq!(eff.id, ObjectId(m.next_id));
                prop_assert_eq!(eff.size, *size);
                prop_assert_eq!(raw % config.align, 0);
                prop_assert!(m.containing(raw).is_none(), "alloc overlaps a live object");
                prop_assert!(m.live.range(raw..raw + *size as u64).next().is_none());
                prop_assert_eq!(eff.recycled, m.ever.contains(&raw));
                if !config.reuse_addresses {
                    prop_assert!(!eff.recycled);
                }
                m.next_id += 1;
                m.ever.insert(raw);
                m.live.insert(
                    raw,
                    MObj {
                        id: eff.id,
                        size: *size,
                        slots: BTreeMap::new(),
                    },
                );
            }
            Op::Free(t) => {
                let addr = resolve(&m, base, t);
                let want = m.free(addr);
                let got = h.free(addr);
                match (&got, &want) {
                    (Ok(eff), Ok((id, size, slots))) => {
                        prop_assert_eq!(eff.id, *id);
                        prop_assert_eq!(eff.addr, addr);
                        prop_assert_eq!(eff.size, *size);
                        prop_assert_eq!(&eff.slots, slots);
                    }
                    (Err(g), Err(w)) => {
                        prop_assert_eq!(g, w);
                        faults += 1;
                    }
                    _ => prop_assert!(false, "free({addr}): got {got:?}, want {want:?}"),
                }
            }
            Op::Realloc(t, new_size) => {
                let addr = resolve(&m, base, t);
                let got = h.realloc(addr, *new_size, AllocSite(2));
                if *new_size == 0 {
                    prop_assert_eq!(got.unwrap_err(), HeapError::ZeroSizeAlloc);
                    faults += 1;
                    continue;
                }
                match (got, m.free(addr)) {
                    (Ok(eff), Ok((id, size, slots))) => {
                        prop_assert_eq!(eff.freed.id, id);
                        prop_assert_eq!(eff.freed.size, size);
                        prop_assert_eq!(&eff.freed.slots, &slots);
                        prop_assert_eq!(eff.alloc.id, ObjectId(m.next_id));
                        prop_assert_eq!(eff.alloc.size, *new_size);
                        let raw = eff.alloc.addr.get();
                        prop_assert!(m.containing(raw).is_none());
                        prop_assert_eq!(eff.alloc.recycled, m.ever.contains(&raw));
                        let moved: Vec<(u64, Addr)> = slots
                            .into_iter()
                            .filter(|&(off, _)| off as usize + 8 <= *new_size)
                            .collect();
                        prop_assert_eq!(&eff.moved_slots, &moved);
                        m.next_id += 1;
                        m.ever.insert(raw);
                        m.live.insert(
                            raw,
                            MObj {
                                id: eff.alloc.id,
                                size: *new_size,
                                slots: moved.into_iter().collect(),
                            },
                        );
                    }
                    (Err(g), Err(w)) => {
                        prop_assert_eq!(g, w);
                        faults += 1;
                    }
                    (got, want) => {
                        prop_assert!(false, "realloc({addr}): got {got:?}, want {want:?}")
                    }
                }
            }
            Op::WritePtr(st, vt) => {
                let slot = resolve(&m, base, st);
                let value = resolve(&m, base, vt);
                let got = h.write_ptr(slot, value);
                match access(&m, slot, 8) {
                    Ok((start, off)) => {
                        let w = got.unwrap();
                        let obj = m.live.get_mut(&start).unwrap();
                        let old = if value.is_null() {
                            obj.slots.remove(&off)
                        } else {
                            obj.slots.insert(off, value)
                        };
                        prop_assert_eq!(w.src, obj.id);
                        prop_assert_eq!(w.offset, off);
                        prop_assert_eq!(w.old_value, old);
                    }
                    Err(e) => {
                        prop_assert_eq!(got.unwrap_err(), e);
                        faults += 1;
                    }
                }
            }
            Op::WriteScalar(t) => {
                let slot = resolve(&m, base, t);
                let got = h.write_scalar(slot);
                match access(&m, slot, 1) {
                    Ok((start, off)) => {
                        let w = got.unwrap();
                        let obj = m.live.get_mut(&start).unwrap();
                        prop_assert_eq!(w.src, obj.id);
                        prop_assert_eq!(w.offset, off);
                        prop_assert_eq!(w.old_value, obj.slots.remove(&off));
                    }
                    Err(e) => {
                        prop_assert_eq!(got.unwrap_err(), e);
                        faults += 1;
                    }
                }
            }
            Op::ReadPtr(t) => {
                let slot = resolve(&m, base, t);
                let got = h.read_ptr(slot);
                match access(&m, slot, 8) {
                    Ok((start, off)) => {
                        let obj = &m.live[&start];
                        prop_assert_eq!(got.unwrap(), (obj.id, obj.slots.get(&off).copied()));
                    }
                    Err(e) => {
                        prop_assert_eq!(got.unwrap_err(), e);
                        faults += 1;
                    }
                }
            }
            Op::Read(t) => {
                let addr = resolve(&m, base, t);
                let got = h.read(addr);
                match access(&m, addr, 1) {
                    Ok((start, _)) => prop_assert_eq!(got.unwrap(), m.live[&start].id),
                    Err(e) => {
                        prop_assert_eq!(got.unwrap_err(), e);
                        faults += 1;
                    }
                }
            }
        }
        check_views(&h, &m, base)?;
    }
    prop_assert_eq!(h.stats().faults, faults);
    Ok(())
}

/// The heap's read-only views agree with the model after every step.
fn check_views(h: &SimHeap, m: &Model, base: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.live_objects(), m.live.len());
    prop_assert_eq!(h.stats().live_objects(), m.live.len() as u64);
    let live: Vec<(u64, ObjectId)> = h.iter_live().map(|r| (r.start().get(), r.id())).collect();
    let want: Vec<(u64, ObjectId)> = m.live.iter().map(|(&s, o)| (s, o.id)).collect();
    prop_assert_eq!(live, want);
    for (&start, obj) in &m.live {
        let a = Addr::new(start);
        prop_assert!(h.is_live_start(a));
        let rec = h.object_at(a).expect("live start resolves");
        prop_assert_eq!(rec.id(), obj.id);
        prop_assert_eq!(rec.size(), obj.size);
        let slots: Vec<(u64, Addr)> = rec.slots().collect();
        let want: Vec<(u64, Addr)> = obj.slots.iter().map(|(&o, &v)| (o, v)).collect();
        prop_assert_eq!(slots, want);
        if obj.size > 1 {
            let inner = a.offset(obj.size as u64 - 1);
            prop_assert!(!h.is_live_start(inner));
            prop_assert!(h.object_at(inner).is_none());
            prop_assert_eq!(h.resolve(inner).map(|r| r.id()), Some(obj.id));
        }
    }
    for &start in m.ever.iter().filter(|s| !m.live.contains_key(s)) {
        let a = Addr::new(start);
        prop_assert!(!h.is_live_start(a));
        prop_assert!(h.object_at(a).is_none());
        prop_assert_eq!(
            h.resolve(a).map(|r| r.id()),
            m.containing(start).map(|(_, o)| o.id)
        );
    }
    prop_assert!(!h.is_live_start(Addr::new(base - 8)));
    Ok(())
}

fn configs() -> [AllocatorConfig; 3] {
    [
        AllocatorConfig::default(),
        AllocatorConfig {
            reuse_addresses: false,
            ..AllocatorConfig::default()
        },
        AllocatorConfig {
            align: 4,
            ..AllocatorConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sim_heap_matches_the_reference_model(
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        for config in configs() {
            run(config, &ops)?;
        }
    }
}

/// The spill path is really taken under 4-byte alignment: odd-granule
/// starts are refused by the shadow map, and they still free, resolve
/// and classify like any other object.
#[test]
fn four_byte_alignment_exercises_the_spill_index() {
    let config = configs()[2];
    let ops: Vec<Op> = (0..8)
        .map(|_| Op::Alloc(4))
        .chain([
            Op::Free(Target::Live(1)),
            Op::Free(Target::Dead(0)),
            Op::Free(Target::Inside(2, 2)),
            Op::WritePtr(Target::Inside(0, 0), Target::Live(3)),
            Op::Alloc(4),
            Op::ReadPtr(Target::Live(1)),
        ])
        .collect();
    run(config, &ops).unwrap();
    let mut h = SimHeap::with_config(HeapConfig {
        allocator: config,
        capacity: None,
    });
    let a = h.alloc(4, AllocSite(0)).unwrap().addr;
    let b = h.alloc(4, AllocSite(0)).unwrap().addr;
    assert_eq!(b.get() % 8, 4, "second start is odd-granule");
    assert_eq!(h.object_at(b).unwrap().start(), b);
    h.free(b).unwrap();
    assert_eq!(h.free(b), Err(HeapError::DoubleFree(b)));
    assert!(h.is_live_start(a));
}
