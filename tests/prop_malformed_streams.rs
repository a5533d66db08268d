//! Malformed-stream oracle: arbitrary CRC-valid traces, written with
//! `Trace::save_binary`, whose object ids, addresses, sizes, offsets,
//! site and function ids are drawn from edge values (0, 1 MiB ± 64,
//! 2^40, `u64::MAX`). The streams overlap allocations, free dead
//! objects, store into objects never allocated, name functions outside
//! their table, leave calls unbalanced, and sometimes carry a sampled
//! recording header, valid or not.
//!
//! Every case asserts:
//! - `check_path` never panics, exact or under `--sample`, and returns
//!   a verdict or an error naming what it refused: the out-of-table
//!   function id, the event the heap graph cannot apply, or the
//!   sampling header;
//! - [`HeapGraph`] and the map-based [`ReferenceGraph`] refuse the same
//!   event and agree on every snapshot before it;
//! - one [`TraceChecker`] reused across a well-formed trace, the stream
//!   and the well-formed trace again, as a `check --jobs` worker runs
//!   them, gives each exactly the outcome of a fresh `check_path`.

use heap_graph::{HeapGraph, ReferenceGraph};
use heapmd::{
    check_path, HeapMdError, HeapModel, ModelBuilder, Process, SamplerConfig, SamplingInfo,
    Settings, Trace, TraceCheckOutcome, TraceChecker,
};
use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, HeapEvent, ObjectId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

const MIB: u64 = 1 << 20;

/// Ids, addresses, sizes and offsets.
const EDGES: [u64; 6] = [0, MIB - 64, MIB, MIB + 64, 1 << 40, u64::MAX];

/// Site and function ids.
const EDGES_32: [u32; 4] = [0, 1, 1 << 16, u32::MAX];

/// The check's sampling filter: decimation 2 drops stores from the
/// first allocation site on.
const SAMPLER: SamplerConfig = SamplerConfig {
    hot_threshold: 1,
    decimation: 2,
};

/// One step of a stream. Each selector picks an edge value when it is
/// 0 mod 64, and an ordinary choice otherwise (a live object, a fresh
/// id, the next free address), so streams run long enough between
/// refusals for the detector to arm.
#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc {
        id: u32,
        addr: u32,
        size: u32,
        site: u32,
    },
    Free(u32),
    Store {
        src: u32,
        offset: u32,
        value: u32,
        old: u32,
    },
    Scalar {
        src: u32,
        offset: u32,
    },
    Read(u32),
    Enter(u32),
    Exit(u32),
}

fn op() -> impl Strategy<Value = Op> {
    let sel = || 0u32..1024;
    prop_oneof![
        4 => (sel(), sel(), sel(), sel())
            .prop_map(|(id, addr, size, site)| Op::Alloc { id, addr, size, site }),
        2 => sel().prop_map(Op::Free),
        4 => (sel(), sel(), sel(), sel())
            .prop_map(|(src, offset, value, old)| Op::Store { src, offset, value, old }),
        1 => (sel(), sel()).prop_map(|(src, offset)| Op::Scalar { src, offset }),
        1 => sel().prop_map(Op::Read),
        2 => sel().prop_map(Op::Enter),
        2 => sel().prop_map(Op::Exit),
    ]
}

/// The edge value a selector names, if it names one.
fn edge(sel: u32) -> Option<u64> {
    sel.is_multiple_of(64)
        .then(|| EDGES[(sel / 64) as usize % EDGES.len()])
}

/// Materializes `ops` into events over a function table of
/// `table_len` names: each object starts 16 bytes past the previous
/// one's end unless a selector asks for an edge value or an overlap,
/// and frees, stores
/// and reads name live objects unless one asks for an edge id or a
/// dead object.
fn materialize(ops: &[Op], table_len: usize) -> Vec<HeapEvent> {
    // Objects as `(id, start address)`.
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut dead: Vec<(u64, u64)> = Vec::new();
    let (mut next_id, mut next_addr) = (1u64, 0x1000u64);
    let object = |sel: u32, live: &[(u64, u64)], dead: &[(u64, u64)]| match edge(sel) {
        Some(v) => (v, v),
        None if sel % 64 == 1 && !dead.is_empty() => dead[sel as usize % dead.len()],
        None if !live.is_empty() => live[sel as usize % live.len()],
        None => (0, 0),
    };
    let offset = |sel: u32| edge(sel).unwrap_or(u64::from(sel % 4) * 8);
    let func = |sel: u32| match edge(sel) {
        Some(_) => EDGES_32[(sel / 64) as usize % EDGES_32.len()],
        None => sel % table_len.max(1) as u32,
    };
    let mut events = Vec::new();
    for &op in ops {
        // An op naming a live object when none is live allocates one.
        let op = match op {
            Op::Free(sel) | Op::Store { src: sel, .. } | Op::Scalar { src: sel, .. }
                if live.is_empty() && edge(sel).is_none() =>
            {
                Op::Alloc {
                    id: 1,
                    addr: 2,
                    size: 3,
                    site: 1,
                }
            }
            op => op,
        };
        events.push(match op {
            Op::Alloc {
                id,
                addr,
                size,
                site,
            } => {
                let obj = edge(id).unwrap_or_else(|| {
                    next_id += 1;
                    next_id
                });
                let size = edge(size).unwrap_or(u64::from(size % 5) * 16);
                let addr = match edge(addr) {
                    Some(v) => v,
                    None if addr % 64 == 1 && !live.is_empty() => object(addr, &live, &dead).1,
                    None => {
                        let at = next_addr;
                        next_addr += size.min(4096) + 16;
                        at
                    }
                };
                live.push((obj, addr));
                HeapEvent::Alloc {
                    obj: ObjectId(obj),
                    addr: Addr::new(addr),
                    size: size as usize,
                    site: AllocSite(EDGES_32[site as usize % EDGES_32.len()]),
                }
            }
            Op::Free(sel) => {
                let (obj, addr) = object(sel, &live, &dead);
                live.retain(|&(id, _)| id != obj);
                dead.push((obj, addr));
                HeapEvent::Free {
                    obj: ObjectId(obj),
                    addr: Addr::new(addr),
                    size: 0,
                }
            }
            Op::Store {
                src,
                offset: off,
                value,
                old,
            } => HeapEvent::PtrWrite {
                src: ObjectId(object(src, &live, &dead).0),
                offset: offset(off),
                value: Addr::new(
                    object(value, &live, &dead)
                        .1
                        .wrapping_add(u64::from(value % 3) * 8),
                ),
                old_value: (old % 2 == 0).then(|| Addr::new(object(old, &live, &dead).1)),
            },
            Op::Scalar { src, offset: off } => HeapEvent::ScalarWrite {
                src: ObjectId(object(src, &live, &dead).0),
                offset: offset(off),
                old_value: None,
            },
            Op::Read(sel) => HeapEvent::Read {
                obj: ObjectId(object(sel, &live, &dead).0),
            },
            Op::Enter(sel) => HeapEvent::FnEnter { func: func(sel) },
            Op::Exit(sel) => HeapEvent::FnExit { func: func(sel) },
        });
    }
    events
}

/// A recorded sampling outcome, valid or not.
fn header() -> impl Strategy<Value = Option<SamplingInfo>> {
    let edge = || (0..EDGES.len()).prop_map(|i| EDGES[i]);
    (0u32..3, edge(), (0usize..4), (edge(), edge())).prop_map(
        |(present, hot_threshold, decimation, (kept_stores, total_stores))| {
            (present == 0).then_some(SamplingInfo {
                hot_threshold,
                decimation: [0, 1, 2, u64::MAX][decimation],
                kept_stores,
                total_stores,
            })
        },
    )
}

/// A model with stable metrics, so the detector arms on the streams.
fn model() -> &'static HeapModel {
    static MODEL: OnceLock<HeapModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut builder = ModelBuilder::new(settings()).program("edges");
        for run in 0..3 {
            let mut p = Process::new(settings());
            let (f, site) = (p.function("step"), p.site("node"));
            let mut prev = None;
            for i in 0..40 + run {
                p.enter(f);
                let a = p.malloc(32, site).unwrap();
                if let Some(b) = prev.filter(|_| i % 3 != 0) {
                    p.write_ptr(a, b).unwrap();
                }
                prev = Some(a);
                p.leave();
            }
            builder.add_run(&p.finish(format!("run{run}")));
        }
        builder.build().model
    })
}

fn settings() -> Settings {
    Settings::builder().frq(2).build().unwrap()
}

/// What a check of `events` over a table of `table_len` names must be
/// refused for: the first out-of-table function id (the stream is one
/// block, validated before any of its events applies), else the first
/// event the heap graph cannot apply. Drives [`HeapGraph`] and
/// [`ReferenceGraph`] side by side and asserts they refuse the same
/// event and agree on every snapshot before it.
fn expected_refusal(
    events: &[HeapEvent],
    table_len: usize,
) -> Result<Option<String>, TestCaseError> {
    let bad_function = events.iter().find_map(|ev| match *ev {
        HeapEvent::FnEnter { func } | HeapEvent::FnExit { func }
            if table_len > 0 && func as usize >= table_len =>
        {
            Some(func)
        }
        _ => None,
    });
    let mut graph = HeapGraph::new();
    let mut reference = ReferenceGraph::new();
    let mut refusal = None;
    for ev in events {
        let applied = graph.try_apply(ev);
        prop_assert_eq!(applied.err(), reference.try_apply(ev).err(), "on {:?}", ev);
        if let Err(e) = applied {
            refusal = Some(e.to_string());
            break;
        }
        prop_assert_eq!(graph.snapshot(), reference.snapshot(), "after {:?}", ev);
    }
    graph.validate().map_err(TestCaseError::fail)?;
    Ok(match bad_function {
        Some(func) => Some(format!("function id {func},")),
        None => refusal,
    })
}

/// Runs one check, turning a panic into a test failure that names the
/// stream.
fn check(
    path: &Path,
    sampler: Option<SamplerConfig>,
    trace: &Trace,
) -> Result<Result<TraceCheckOutcome, HeapMdError>, TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| {
        check_path(path, model(), &settings(), false, sampler)
    }))
    .map_err(|_| {
        TestCaseError::fail(format!(
            "check panicked (sampler {sampler:?}) on {:?} with header {:?}",
            trace.events(),
            trace.sampling()
        ))
    })
}

/// Asserts a check ended as expected: a verdict when nothing is to be
/// refused, else an error whose text names the refusal.
fn assert_ends_on(
    result: Result<TraceCheckOutcome, HeapMdError>,
    expected: Option<&str>,
    what: &str,
) -> Result<(), TestCaseError> {
    match (result, expected) {
        (Ok(_), None) => Ok(()),
        (Err(e), Some(want)) => {
            prop_assert!(
                e.to_string().contains(want),
                "{}: {} lacks {:?}",
                what,
                e,
                want
            );
            Ok(())
        }
        (Ok(_), Some(want)) => Err(TestCaseError::fail(format!(
            "{what}: accepted, want {want:?}"
        ))),
        (Err(e), None) => Err(TestCaseError::fail(format!("{what}: refused: {e}"))),
    }
}

/// A well-formed trace the model flags, with its function table:
/// mostly isolated nodes (the model was trained on linked ones), and
/// frees that leave pointers dangling at its end. A worker that carried
/// its call stack or its unresolved index into the next trace would
/// check this one differently.
fn neighbour_trace() -> Trace {
    let mut p = Process::new(settings());
    p.enable_trace();
    let (f, site) = (p.function("step"), p.site("node"));
    let mut nodes = Vec::new();
    for i in 0..80 {
        p.enter(f);
        let a = p.malloc(32, site).unwrap();
        if i % 4 == 1 {
            p.write_ptr(a, nodes[i - 1]).unwrap();
        }
        if i % 4 == 3 {
            // Leaves the link written two steps ago dangling.
            p.free(nodes[i - 3]).unwrap();
        }
        nodes.push(a);
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    trace.set_functions(vec!["step".into()]);
    trace
}

/// Everything a check ends with, rendered comparably: the bugs (their
/// Debug rendering is NaN-stable), samples and sampling outcome, or
/// the refusal's text.
fn rendered(result: &Result<TraceCheckOutcome, HeapMdError>) -> String {
    match result {
        Ok(o) => format!("{:?}\n{:?}\n{:?}", o.bugs, o.samples, o.sampling),
        Err(e) => format!("refused: {e}"),
    }
}

/// Checks each `(file, sampler)` on one reused worker, in order, and
/// asserts each outcome equals a fresh `check_path` of it.
fn assert_reuse_is_unobservable(
    worker: &mut TraceChecker,
    checks: &[(&Path, Option<SamplerConfig>)],
) -> Result<(), TestCaseError> {
    for (i, &(path, sampler)) in checks.iter().enumerate() {
        let fresh = check_path(path, model(), &settings(), false, sampler);
        let reused = catch_unwind(AssertUnwindSafe(|| {
            worker.check_path(path, model(), &settings(), false, sampler)
        }))
        .map_err(|_| TestCaseError::fail(format!("reused check {i} panicked")))?;
        prop_assert_eq!(
            rendered(&reused),
            rendered(&fresh),
            "check {} ({:?}, sampler {:?}) on the reused worker",
            i,
            path,
            sampler
        );
    }
    Ok(())
}

#[test]
fn reuse_across_recorded_sampled_and_exact_traces_is_unobservable() {
    // A trace recorded with `--sample` (its meta carries the outcome),
    // then a full-fidelity one under a sampler, then an exact one: the
    // recorded rate and the live filter must not outlive their trace.
    let trace = neighbour_trace();
    let sampled = trace.sampled(SAMPLER);
    assert!(sampled.sampling().is_some_and(|s| s.rate() < 1.0));
    let dir = std::env::temp_dir();
    let recorded = dir.join(format!("heapmd-reuse-recorded-{}.hmdt", std::process::id()));
    sampled.save_binary(&recorded).unwrap();
    let exact = dir.join(format!("heapmd-reuse-exact-{}.hmdt", std::process::id()));
    trace.save_binary(&exact).unwrap();
    let checks = [
        (recorded.as_path(), None),
        (exact.as_path(), Some(SAMPLER)),
        (exact.as_path(), None),
    ];
    let flagged = check_path(&exact, model(), &settings(), false, None).map(|o| o.bugs.len());
    let outcome = assert_reuse_is_unobservable(&mut TraceChecker::new(false), &checks);
    std::fs::remove_file(&recorded).ok();
    std::fs::remove_file(&exact).ok();
    outcome.unwrap();
    // Bug reports carry the call stack, so a stale frame would show.
    assert!(flagged.unwrap() > 0, "the model flags the neighbour trace");
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_streams_are_refused_by_event_and_never_panic(
        ops in prop::collection::vec(op(), 1..160),
        table_len in 0usize..4,
        sampling in header(),
    ) {
        let events = materialize(&ops, table_len);
        let mut trace = Trace::new();
        for ev in &events {
            trace.push(*ev);
        }
        trace.set_functions((0..table_len).map(|i| format!("f{i}")).collect());
        trace.set_sampling(sampling);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("heapmd-malformed-{}-{case}.hmdt", std::process::id()));
        trace.save_binary(&path).unwrap();

        let exact = expected_refusal(&events, table_len)?;
        // A recorded header the reader refuses is the refusal, exact
        // and sampled; a valid one keeps the recorded schedule, so the
        // sampled check sees the exact stream.
        let bad_header = sampling
            .is_some_and(|s| s.decimation == 0 || s.kept_stores > s.total_stores)
            .then(|| "sampling meta".to_string());
        let sampled = match sampling {
            Some(_) => exact.clone(),
            None => expected_refusal(trace.sampled(SAMPLER).events(), table_len)?,
        };
        let exact_result = check(&path, None, &trace)?;
        let sampled_result = check(&path, Some(SAMPLER), &trace)?;
        // One worker, as `check` reuses it: the stream between two
        // well-formed traces, exact and then sampled.
        static NEIGHBOUR: OnceLock<Trace> = OnceLock::new();
        let neighbour = path.with_extension("neighbour.hmdt");
        NEIGHBOUR.get_or_init(neighbour_trace).save_binary(&neighbour).unwrap();
        let mut checks = Vec::new();
        for sampler in [None, Some(SAMPLER)] {
            checks.extend([&neighbour, &path, &neighbour].map(|p| (p.as_path(), sampler)));
        }
        let reused = assert_reuse_is_unobservable(&mut TraceChecker::new(false), &checks);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&neighbour).ok();
        reused?;
        assert_ends_on(exact_result, bad_header.as_ref().or(exact.as_ref()).map(String::as_str), "exact")?;
        assert_ends_on(
            sampled_result,
            bad_header.as_ref().or(sampled.as_ref()).map(String::as_str),
            "sampled",
        )?;
    }
}
