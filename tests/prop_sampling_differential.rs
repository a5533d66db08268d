//! Differential property tests for the production-overhead sampling
//! pipeline (PR 10): with `decimation == 1` the [`SampledIngest`]
//! filter is a pure passthrough, so every observable — recorded
//! events, replayed metric samples, trained models, and post-mortem
//! verdicts — must be **bit-identical** to the unsampled pipeline.
//! This is the acceptance gate that lets `--sample` default to exact
//! behavior and only trade fidelity when the operator dials
//! decimation up.
//!
//! A second property pins the invariants that survive real decimation
//! (`decimation > 1`): allocation, free, and function events are never
//! dropped (object counts stay exact), the kept stream is a strict
//! subsequence of the original, and the measured rate stays in
//! `(0, 1]`.

use heapmd::{ModelBuilder, Process, SamplerConfig, Settings};
use proptest::prelude::*;
use sim_heap::HeapEvent;

/// One mutation step of the synthetic workload driven below.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    FreeNth(usize),
    Link { src: usize, dst: usize, slot: u64 },
    Scalar { src: usize, slot: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..1).prop_map(|_| Op::Alloc),
        1 => (0usize..64).prop_map(Op::FreeNth),
        4 => ((0usize..64), (0usize..64), (0u64..4))
            .prop_map(|(src, dst, slot)| Op::Link { src, dst, slot: slot * 8 }),
        2 => ((0usize..64), (0u64..4)).prop_map(|(src, slot)| Op::Scalar { src, slot: slot * 8 }),
    ]
}

fn settings() -> Settings {
    Settings::builder()
        .frq(2)
        .build()
        .expect("test settings are valid")
}

/// Replays `ops` against a fresh process. Every op runs inside a
/// function scope so the metric pipeline hits computation points, and
/// writes target only live objects (object size 64 covers every slot
/// offset the strategy emits).
fn drive(p: &mut Process, ops: &[Op]) {
    let scopes = [p.function("even"), p.function("odd")];
    let site = p.site("site");
    let mut live: Vec<sim_heap::Addr> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        p.enter(scopes[i % 2]);
        match op {
            Op::Alloc => {
                let addr = p.malloc(64, site).expect("alloc");
                live.push(addr);
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let addr = live.remove(n % live.len());
                    p.free(addr).expect("free");
                }
            }
            Op::Link { src, dst, slot } => {
                if !live.is_empty() {
                    let s = live[src % live.len()];
                    let d = live[dst % live.len()];
                    p.write_ptr(s.offset(*slot), d).expect("write_ptr");
                }
            }
            Op::Scalar { src, slot } => {
                if !live.is_empty() {
                    let s = live[src % live.len()];
                    p.write_scalar(s.offset(*slot)).expect("write_scalar");
                }
            }
        }
        p.leave();
    }
}

/// Runs the op sequence once with tracing on, returning the trace.
fn record(ops: &[Op], sampler: Option<SamplerConfig>) -> heapmd::Trace {
    let mut p = Process::new(settings());
    if let Some(config) = sampler {
        p.enable_sampling(config);
    }
    p.enable_trace();
    drive(&mut p, ops);
    let mut p = p;
    p.take_trace().expect("tracing was enabled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `decimation == 1` end to end: live monitoring, offline replay,
    // model construction, and verdicts all match the unsampled
    // pipeline bit for bit.
    #[test]
    fn exact_sampling_is_bit_identical(ops in proptest::collection::vec(op_strategy(), 16..160)) {
        let exact_config = SamplerConfig::new(SamplerConfig::default().hot_threshold, 1);
        prop_assert!(exact_config.is_exact());

        // Live path: a sampling-enabled process must finish with the
        // same report as a plain one.
        let mut plain = Process::new(settings());
        drive(&mut plain, &ops);
        let plain_report = plain.finish("diff/plain");
        let mut sampled = Process::new(settings());
        sampled.enable_sampling(exact_config);
        drive(&mut sampled, &ops);
        let sampled_report = sampled.finish("diff/plain");
        prop_assert_eq!(&plain_report, &sampled_report);

        // Offline path: Trace::sampled at decimation 1 keeps every
        // event and reports rate 1.0.
        let trace = record(&ops, None);
        let resampled = trace.sampled(exact_config);
        prop_assert_eq!(trace.events(), resampled.events());
        prop_assert_eq!(resampled.sample_rate(), 1.0);

        // Replay and model construction agree.
        let s = settings();
        let plain_replay = trace.replay(&s, "diff/replay").expect("replay");
        let sampled_replay = resampled.replay(&s, "diff/replay").expect("replay");
        prop_assert_eq!(&plain_replay, &sampled_replay);
        let mut pb = ModelBuilder::new(s.clone()).program("diff");
        pb.add_run(&plain_replay);
        let mut sb = ModelBuilder::new(s.clone()).program("diff");
        sb.add_run(&sampled_replay);
        let plain_outcome = pb.build();
        let sampled_outcome = sb.build();
        prop_assert_eq!(&plain_outcome, &sampled_outcome);

        // Post-mortem verdicts agree (clean self-check; the point is
        // bit-identity, not detection).
        let plain_bugs = trace.check(&plain_outcome.model, &s).expect("check");
        let sampled_bugs = resampled.check(&sampled_outcome.model, &s).expect("check");
        prop_assert_eq!(plain_bugs, sampled_bugs);
    }

    // Real decimation drops only stores: allocation, free, and
    // function events survive verbatim, the kept stream is a
    // subsequence of the original, and the measured rate is sane.
    #[test]
    fn decimation_preserves_object_events(
        ops in proptest::collection::vec(op_strategy(), 16..160),
        hot in 0u64..32,
        decimation in 2u64..16,
    ) {
        let trace = record(&ops, None);
        let sampled = trace.sampled(SamplerConfig::new(hot, decimation));

        let non_store = |evs: &[HeapEvent]| -> Vec<HeapEvent> {
            evs.iter()
                .filter(|e| !matches!(e, HeapEvent::PtrWrite { .. } | HeapEvent::ScalarWrite { .. }))
                .copied()
                .collect()
        };
        prop_assert_eq!(non_store(trace.events()), non_store(sampled.events()));

        // Subsequence check: every kept event appears in the original,
        // in order.
        let mut it = trace.events().iter();
        for kept in sampled.events() {
            prop_assert!(
                it.any(|orig| orig == kept),
                "kept event missing from original stream"
            );
        }

        let info = sampled.sampling().expect("sampled traces carry metadata");
        let rate = info.rate();
        prop_assert!(rate > 0.0 && rate <= 1.0, "rate {} out of range", rate);
        prop_assert_eq!(sampled.sample_rate(), rate);

        // The recorded schedule is sticky: re-sampling an
        // already-sampled trace is the caller's bug, but the metadata
        // lets every consumer detect it.
        prop_assert!(sampled.sampling().is_some() && trace.sampling().is_none());
    }
}
