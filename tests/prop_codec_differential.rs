//! Differential property test for the binary trace codec: any valid
//! event sequence round-tripped through the block-based binary format
//! must come back as the same `Trace` as the in-memory original — and
//! the two must replay to bit-identical metric reports (every candidate
//! metric compared via `f64::to_bits`) and produce identical `check`
//! verdicts, whether checked in memory or through the pipelined binary
//! engine.
//!
//! This is the acceptance gate for the codec: the on-disk encoding is
//! an implementation detail that must never change a single observable.

use heapmd::{
    BinaryTraceImage, BinaryTraceReader, BinaryTraceWriter, CandidateKind, MetricReport,
    ModelBuilder, SamplerConfig, Settings, Trace, WireFrame, WireReader,
};
use proptest::prelude::*;
use sim_heap::{AllocSite, HeapError, HeapEvent, SimHeap};

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    FreeNth(usize),
    Link { src: usize, dst: usize, slot: u64 },
    Scalar { src: usize, slot: u64 },
    Call(u32),
    Return,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (8usize..96).prop_map(Op::Alloc),
        2 => (0usize..48).prop_map(Op::FreeNth),
        4 => ((0usize..48), (0usize..48), (0u64..4))
            .prop_map(|(src, dst, slot)| Op::Link { src, dst, slot: slot * 8 }),
        1 => ((0usize..48), (0u64..4)).prop_map(|(src, slot)| Op::Scalar { src, slot: slot * 8 }),
        3 => (0u32..4).prop_map(Op::Call),
        2 => (0u32..1).prop_map(|_| Op::Return),
    ]
}

/// Materializes a random op list into a valid trace: heap effects come
/// from a real `SimHeap` (so ids, addresses, and old-values are
/// consistent) and call events keep enter/exit balanced.
fn build_trace(ops: &[Op]) -> Trace {
    let mut heap = SimHeap::new();
    let mut live = Vec::new();
    let mut depth = 0u32;
    let mut trace = Trace::new();
    for op in ops {
        match *op {
            Op::Alloc(size) => {
                let eff = heap.alloc(size, AllocSite(1)).unwrap();
                live.push(eff.addr);
                trace.push(HeapEvent::Alloc {
                    obj: eff.id,
                    addr: eff.addr,
                    size: eff.size,
                    site: AllocSite(1),
                });
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let addr = live.remove(n % live.len());
                    let eff = heap.free(addr).unwrap();
                    trace.push(HeapEvent::Free {
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
                        Ok(w) => trace.push(HeapEvent::PtrWrite {
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
            Op::Scalar { src, slot } => {
                if !live.is_empty() {
                    let s = live[src % live.len()];
                    match heap.write_scalar(s.offset(slot)) {
                        Ok(w) => trace.push(HeapEvent::ScalarWrite {
                            src: w.src,
                            offset: w.offset,
                            old_value: w.old_value,
                        }),
                        Err(HeapError::WildAccess(_)) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
            Op::Call(func) => {
                depth += 1;
                trace.push(HeapEvent::FnEnter { func });
            }
            Op::Return => {
                if depth > 0 {
                    depth -= 1;
                    trace.push(HeapEvent::FnExit { func: 0 });
                }
            }
        }
    }
    trace.set_functions(vec!["f0".into(), "f1".into(), "f2".into(), "f3".into()]);
    trace
}

/// Streams `trace` through the binary block writer into memory.
fn binary_bytes(trace: &Trace) -> Vec<u8> {
    let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
    for ev in trace.events() {
        w.write_event(ev).unwrap();
    }
    w.write_functions(trace.functions()).unwrap();
    w.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A binary round trip of an arbitrary event sequence is
    // indistinguishable from the in-memory trace — same events, same
    // replayed samples bit-for-bit, same check verdicts.
    #[test]
    fn binary_and_jsonl_round_trips_are_indistinguishable(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        frq in 1u64..8,
    ) {
        let trace = build_trace(&ops);
        let from_binary = BinaryTraceReader::strict(&binary_bytes(&trace)[..]).unwrap();
        prop_assert_eq!(&from_binary, &trace, "binary round trip changed the trace");

        // Replay the original and its copy: every sample must agree on
        // all 20 candidate metrics at the bit level, plus the structural
        // counters and the sampling clocks.
        let settings = Settings::builder().frq(frq).build().unwrap();
        let a = trace.replay(&settings, "differential").unwrap();
        let b = from_binary.replay(&settings, "differential").unwrap();
        prop_assert_eq!(a.samples.len(), b.samples.len());
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            prop_assert_eq!(sa.seq, sb.seq);
            prop_assert_eq!(sa.fn_entries, sb.fn_entries);
            prop_assert_eq!(sa.tick, sb.tick);
            prop_assert_eq!((sa.nodes, sa.edges, sa.dangling), (sb.nodes, sb.edges, sb.dangling));
            for kind in CandidateKind::ALL {
                prop_assert_eq!(
                    sa.metric(kind).to_bits(),
                    sb.metric(kind).to_bits(),
                    "metric {:?} diverged after the round trip: {} vs {}",
                    kind,
                    sa.metric(kind),
                    sb.metric(kind)
                );
            }
        }

        // Check verdicts: train a throwaway model on the replayed
        // report, then the original and the decoded copy — in memory
        // and pipelined — must return the same `BugReport` list.
        let mut builder = ModelBuilder::new(settings.clone());
        builder.add_run(&a);
        let model = builder.build().model;
        // Debug rendering keeps the comparison NaN-stable: a metric the
        // tiny one-run model never calibrated carries (NaN, NaN) bounds,
        // which are *identical* but not PartialEq-equal.
        let reference_bugs = format!("{:?}", trace.check(&model, &settings).unwrap());
        let memory_bugs = format!("{:?}", from_binary.check(&model, &settings).unwrap());
        let image = BinaryTraceImage::open(binary_bytes(&trace)).unwrap();
        let pipelined_bugs =
            format!("{:?}", heapmd::check_binary_sharded(&image, &model, &settings, 1).unwrap());
        prop_assert_eq!(&reference_bugs, &memory_bugs, "verdicts diverged after the round trip");
        prop_assert_eq!(&reference_bugs, &pipelined_bugs, "pipelined verdicts diverged");
    }
}

/// Asserts two metric reports carry the same samples, bit-for-bit on
/// every one of the seven paper metrics.
fn assert_reports_match(
    a: &MetricReport,
    b: &MetricReport,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.samples.len(),
        b.samples.len(),
        "{}: sample count diverged",
        what
    );
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        prop_assert_eq!(sa.seq, sb.seq);
        prop_assert_eq!(sa.fn_entries, sb.fn_entries);
        prop_assert_eq!(sa.tick, sb.tick);
        prop_assert_eq!(
            (sa.nodes, sa.edges, sa.dangling),
            (sb.nodes, sb.edges, sb.dangling)
        );
        for kind in CandidateKind::ALL {
            prop_assert_eq!(
                sa.metric(kind).to_bits(),
                sb.metric(kind).to_bits(),
                "{}: metric {:?} diverged: {} vs {}",
                what,
                kind,
                sa.metric(kind),
                sb.metric(kind)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // PR 8 acceptance: the sharded replay engine (any shard count) and
    // the mmap decode path are unobservable — same samples bit-for-bit
    // as the fused single-thread engine, same check verdicts, and the
    // same salvage result whether a damaged file is read through the
    // strict path's fallback or the block-granular scavenger.
    #[test]
    fn sharded_and_mapped_engines_match_the_fused_path(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        frq in 1u64..8,
        cut_pct in 10u64..101,
    ) {
        let trace = build_trace(&ops);
        let bytes = binary_bytes(&trace);
        let settings = Settings::builder().frq(frq).build().unwrap();
        let image = BinaryTraceImage::open(bytes.clone()).unwrap();

        // Shard sweep: 2, 3 (does not divide the address space evenly),
        // and 8 graph shards must reproduce the fused engine's report.
        let fused = heapmd::replay_binary_fused(&image, &settings, "differential").unwrap();
        for shards in [2usize, 3, 8] {
            let sharded =
                heapmd::replay_binary_sharded(&image, &settings, "differential", shards).unwrap();
            assert_reports_match(&sharded, &fused, &format!("{shards}-shard replay"))?;
        }

        // Check verdicts through the sharded checker. Debug rendering
        // keeps the comparison NaN-stable (see above).
        let mut builder = ModelBuilder::new(settings.clone());
        builder.add_run(&fused);
        let model = builder.build().model;
        let baseline = format!(
            "{:?}",
            heapmd::check_binary_sharded(&image, &model, &settings, 1).unwrap()
        );
        for shards in [2usize, 3, 8] {
            let sharded = format!(
                "{:?}",
                heapmd::check_binary_sharded(&image, &model, &settings, shards).unwrap()
            );
            prop_assert_eq!(&baseline, &sharded, "{}-shard verdicts diverged", shards);
        }

        // mmap vs buffered: the same file opened through the zero-copy
        // mapping and through a plain read must replay identically.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("heapmd-prop-mmap-{}.hmdt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = BinaryTraceImage::open_path(&path).unwrap();
        let buffered = BinaryTraceImage::open_path_buffered(&path).unwrap();
        let via_map = heapmd::replay_binary_fused(&mapped, &settings, "differential").unwrap();
        let via_buf = heapmd::replay_binary_fused(&buffered, &settings, "differential").unwrap();
        assert_reports_match(&via_map, &fused, "mmap replay")?;
        assert_reports_match(&via_buf, &fused, "buffered replay")?;

        // Truncated-file salvage: cutting the file anywhere must leave
        // the path-based scavenger and the in-memory scavenger in exact
        // agreement on what was recovered.
        let cut = (bytes.len() as u64 * cut_pct / 100) as usize;
        let trunc = dir.join(format!("heapmd-prop-trunc-{}.hmdt", std::process::id()));
        std::fs::write(&trunc, &bytes[..cut]).unwrap();
        let (disk_trace, disk_stats) = Trace::salvage_binary(&trunc).unwrap();
        let (mem_trace, mem_stats) = BinaryTraceReader::salvage(&bytes[..cut]).unwrap();
        prop_assert_eq!(&disk_trace, &mem_trace, "salvaged traces diverged");
        prop_assert_eq!(&disk_stats, &mem_stats, "salvage stats diverged");
        if cut == bytes.len() {
            prop_assert!(disk_stats.complete, "full file salvage reported loss");
            prop_assert_eq!(&disk_trace, &trace);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trunc).ok();
    }
}

/// Encodes `trace` as a serve client streams it: the sampling meta and
/// function table first, then the events in blocks of `chunk` (flushed
/// early, so short traces still span several blocks), then the index.
fn streamed_bytes(trace: &Trace, chunk: usize) -> Vec<u8> {
    let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
    if let Some(info) = trace.sampling() {
        w.write_meta(&heapmd::encode_sampling_meta(&info)).unwrap();
    }
    w.write_functions(trace.functions()).unwrap();
    for part in trace.events().chunks(chunk) {
        for ev in part {
            w.write_event(ev).unwrap();
        }
        w.flush().unwrap();
    }
    w.finish().unwrap()
}

/// What a [`WireReader`] yields from `bytes` before its first error:
/// the events, the last function table, and whether it reached `End`.
fn wire_read(bytes: &[u8]) -> (Vec<HeapEvent>, Vec<String>, bool) {
    let mut reader = WireReader::new(bytes);
    let (mut events, mut functions) = (Vec::new(), Vec::new());
    loop {
        match reader.next_frame() {
            Ok(WireFrame::Events(block)) => events.extend(block),
            Ok(WireFrame::Functions(names)) => functions = names,
            Ok(WireFrame::Meta(_)) => {}
            Ok(WireFrame::End(_)) => return (events, functions, true),
            Err(_) => return (events, functions, false),
        }
    }
}

/// Checks the wire reader against block salvage on one (possibly
/// damaged) stream: it reaches `End` exactly when salvage calls the
/// stream complete, and up to its first error it yields what salvage
/// recovers before its first corruption — the salvage of the bytes
/// ahead of that offset.
fn assert_wire_matches_salvage(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    let (events, functions, ended) = wire_read(bytes);
    let (whole, stats) = BinaryTraceReader::salvage(bytes).unwrap();
    prop_assert_eq!(ended, stats.complete, "{}: {:?}", what, stats.corruption);
    let before = match &stats.corruption {
        Some((offset, _)) => {
            BinaryTraceReader::salvage(&bytes[..*offset as usize])
                .unwrap()
                .0
        }
        None => whole,
    };
    prop_assert_eq!(&events[..], before.events(), "{}: events", what);
    prop_assert_eq!(&functions[..], before.functions(), "{}: functions", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The wire reader and block salvage parse blocks through one header
    // parser and one CRC check, so on every prefix cut and every
    // single-bit flip of an encoded stream they agree on where the
    // stream ends and on what precedes its first damage.
    #[test]
    fn wire_reader_agrees_with_salvage_on_every_cut_and_bit_flip(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        chunk in 1usize..24,
        sampled in (0u8..2).prop_map(|b| b == 1),
    ) {
        let mut trace = build_trace(&ops);
        if sampled {
            trace = trace.sampled(SamplerConfig::new(2, 2));
        }
        let bytes = streamed_bytes(&trace, chunk);
        assert_wire_matches_salvage(&bytes, "undamaged")?;
        prop_assert!(wire_read(&bytes).2, "an undamaged stream reaches End");
        for cut in 0..bytes.len() {
            assert_wire_matches_salvage(&bytes[..cut], &format!("cut at {cut}"))?;
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_wire_matches_salvage(&flipped, &format!("bit {bit} flipped"))?;
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
