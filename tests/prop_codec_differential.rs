//! Differential property test for the binary trace codec: any valid
//! event sequence round-tripped through the block-based binary format
//! must come back as the same `Trace` as the in-memory original — and
//! the two must replay to bit-identical metric reports (every candidate
//! metric compared via `f64::to_bits`) and produce identical `check`
//! verdicts, whether checked in memory or through either binary loop
//! (decode-ahead or inline).
//!
//! This is the acceptance gate for the codec: the on-disk encoding is
//! an implementation detail that must never change a single observable.

use heapmd::{
    BinaryTraceImage, BinaryTraceReader, BinaryTraceWriter, MetricKind, MetricReport, ModelBuilder,
    SamplerConfig, Settings, Trace, TraceChecker, WireFrame, WireReader,
};
use proptest::prelude::*;
use sim_heap::{Addr, AllocSite, HeapError, HeapEvent, ObjectId, SimHeap};

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

/// A free of an object no stream allocates: the heap graph refuses it.
fn free_of_nothing() -> HeapEvent {
    HeapEvent::Free {
        obj: ObjectId(u64::MAX),
        addr: Addr::new(8),
        size: 0,
    }
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
    fn binary_round_trip_matches_the_in_memory_trace(
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
            for kind in MetricKind::ALL {
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
            format!("{:?}", heapmd::check_binary(&image, &model, &settings).unwrap());
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
        for kind in MetricKind::ALL {
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

/// Asserts two images of the same bytes agree on the index, the
/// function table, the sampling metadata and every decoded block.
fn assert_images_match(a: &BinaryTraceImage, b: &BinaryTraceImage) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.index(), b.index());
    prop_assert_eq!(a.functions().unwrap(), b.functions().unwrap());
    prop_assert_eq!(a.sampling().unwrap(), b.sampling().unwrap());
    let (mut ea, mut eb) = (Vec::new(), Vec::new());
    for entry in a.event_blocks() {
        a.decode_block_into(entry, &mut ea).unwrap();
        b.decode_block_into(entry, &mut eb).unwrap();
        prop_assert_eq!(&ea, &eb, "block at byte {}", entry.offset);
    }
    Ok(())
}

/// The error an open returned, as printed (kind, offset and reason).
fn open_error(opened: Result<BinaryTraceImage, heapmd::HeapMdError>) -> Option<String> {
    opened.err().map(|e| e.to_string())
}

/// `bytes` with its first index entry moved to `offset`, the index
/// block's CRC and the footer recomputed: an index that passes every
/// checksum yet locates a block outside the file.
fn with_first_entry_at(bytes: &[u8], offset: u64) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let index = BinaryTraceImage::open(bytes.to_vec())
        .unwrap()
        .index()
        .clone();
    let footer_at = bytes.len() - 20;
    let index_offset = u64::from_le_bytes(bytes[footer_at..footer_at + 8].try_into().unwrap());
    let mut payload = Vec::new();
    for (i, entry) in index.blocks.iter().enumerate() {
        let at = if i == 0 { offset } else { entry.offset };
        varint(&mut payload, at);
        payload.push(entry.kind);
        varint(&mut payload, u64::from(entry.count));
    }
    varint(&mut payload, index.total_events);
    varint(&mut payload, index.total_fn_enters);
    let mut out = bytes[..index_offset as usize].to_vec();
    out.extend_from_slice(&[0xB1, 0x0C, 0x48, 0x44, 3]);
    out.extend_from_slice(&(index.blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytewise_crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&bytewise_crc32(&index_offset.to_le_bytes()).to_le_bytes());
    out.extend_from_slice(b"HMDBIDX\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The file-backed image is unobservable — same samples bit-for-bit
    // as the fused engine over bytes in memory, same check verdicts,
    // the same refusals, and the same salvage result whether a damaged
    // file is read from disk or from memory.
    #[test]
    fn file_images_match_the_in_memory_image(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        frq in 1u64..8,
        cut_pct in 10u64..101,
        (refuse_pct, damage_pct, chunk) in (0usize..101, 0usize..100, 4usize..64),
    ) {
        let trace = build_trace(&ops);
        let bytes = binary_bytes(&trace);
        let settings = Settings::builder().frq(frq).build().unwrap();
        let image = BinaryTraceImage::open(bytes.clone()).unwrap();

        let fused = heapmd::replay_binary_fused(&image, &settings, "differential").unwrap();
        let mut builder = ModelBuilder::new(settings.clone());
        builder.add_run(&fused);
        let model = builder.build().model;

        // File image vs in-memory image: the same bytes read from a file
        // by position and from memory decode identically, and every cut
        // of the file — and a CRC-valid index that points outside it —
        // is refused with the same error.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("heapmd-prop-file-{}.hmdt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let from_file = BinaryTraceImage::open_path(&path).unwrap();
        assert_images_match(&from_file, &image)?;
        let via_file = heapmd::replay_binary_fused(&from_file, &settings, "differential").unwrap();
        assert_reports_match(&via_file, &fused, "file replay")?;
        // Debug rendering keeps the verdicts NaN-stable (see above).
        prop_assert_eq!(
            format!("{:?}", heapmd::check_binary(&from_file, &model, &settings).unwrap()),
            format!("{:?}", heapmd::check_binary(&image, &model, &settings).unwrap()),
            "file check diverged"
        );

        // The decode-ahead loop and the inline loop agree: on the file,
        // on a many-block stream refused mid-stream, and on that stream
        // with one block damaged, where the first error in file order
        // wins.
        let loops = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            [true, false].map(|ahead| {
                TraceChecker::new(ahead)
                    .check_path(&path, &model, &settings, false, None)
                    .map(|o| format!("{:?}\n{:?}\n{:?}", o.bugs, o.samples, o.sampling))
                    .map_err(|e| e.to_string())
            })
        };
        let [ahead, inline] = loops(&bytes);
        prop_assert!(ahead.is_ok(), "{:?}", ahead);
        prop_assert_eq!(&ahead, &inline, "the loops diverged on the file");
        let at = trace.len() * refuse_pct / 100;
        let mut refused = Trace::new();
        for (i, ev) in trace.events().iter().enumerate() {
            if i == at {
                refused.push(free_of_nothing());
            }
            refused.push(*ev);
        }
        if at == trace.len() {
            refused.push(free_of_nothing());
        }
        refused.set_functions(trace.functions().to_vec());
        let streamed = streamed_bytes(&refused, chunk);
        let [ahead, inline] = loops(&streamed);
        prop_assert_eq!(&ahead, &inline, "the loops diverged on the refusal");
        let refusal = ahead.expect_err("a free of an object never allocated is refused");
        let index = BinaryTraceImage::open(streamed.clone()).unwrap().index().clone();
        let blocks: Vec<_> = index.blocks.iter().filter(|b| b.kind == 1).collect();
        let damaged = blocks.len() * damage_pct / 100;
        let mut bad = streamed.clone();
        // The first payload byte: the block fails its CRC.
        bad[blocks[damaged].offset as usize + 17] ^= 0x40;
        let [ahead, inline] = loops(&bad);
        prop_assert_eq!(&ahead, &inline, "the loops diverged on the damage");
        let mut events_before = 0;
        let refused_in = blocks
            .iter()
            .position(|b| {
                events_before += b.count as usize;
                events_before > at
            })
            .unwrap();
        let first = if damaged <= refused_in {
            format!("corrupt artifact at byte {}: ", blocks[damaged].offset)
        } else {
            refusal
        };
        prop_assert!(
            ahead.as_ref().is_err_and(|e| e.starts_with(&first)),
            "{:?} is not the first error, {:?}",
            ahead,
            first
        );
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        // Shortest last: each `set_len` cuts what the previous one left.
        for cut in (0..bytes.len()).rev() {
            file.set_len(cut as u64).unwrap();
            prop_assert_eq!(
                open_error(BinaryTraceImage::open_path(&path)),
                open_error(BinaryTraceImage::open(bytes[..cut].to_vec())),
                "cut at byte {}",
                cut
            );
        }
        let bad = with_first_entry_at(&bytes, 1_000_000_000);
        std::fs::write(&path, &bad).unwrap();
        let refusal = open_error(BinaryTraceImage::open(bad));
        prop_assert!(refusal.as_deref().is_some_and(|e| e.contains("index entry at byte 1000000000")));
        prop_assert_eq!(open_error(BinaryTraceImage::open_path(&path)), refusal);

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

/// The textbook bytewise CRC-32 loop: the reference the sliced
/// `heapmd::persist::crc32` every block header carries must match.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any slice of any buffer, at any alignment and length, including
    // lengths that leave a bytewise tail after the sliced steps.
    #[test]
    fn sliced_crc32_matches_the_bytewise_loop_on_random_slices(
        buf in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..600),
        start in 0usize..600,
        len in 0usize..600,
    ) {
        let start = start.min(buf.len());
        let end = (start + len).min(buf.len());
        let bytes = &buf[start..end];
        prop_assert_eq!(heapmd::persist::crc32(bytes), bytewise_crc32(bytes));
    }
}
