//! Salvage-mode coverage for the crash-safe streaming trace format:
//! a hand-damaged corpus under `tests/data/` plus properties that any
//! prefix (simulated crash) and any single bit flip (simulated media
//! corruption) of a valid stream salvage cleanly — the reader recovers
//! a prefix of the original events and never panics, never returns
//! garbage, never errors out of salvage mode for non-I/O damage.

use heapmd::{
    BinaryTraceImage, BinaryTraceReader, HeapEvent, HeapMdError, Process, Settings, Trace,
    TraceReader, EVENTS_PER_BLOCK,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Builds a small linked-list trace with a functions table.
fn sample_trace(extra_events: usize) -> Trace {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut p = Process::new(settings);
    p.enable_trace();
    let (build, node) = (p.function("build"), p.site("node"));
    let mut nodes = Vec::new();
    for _ in 0..(2 + extra_events / 4) {
        p.enter(build);
        let n = p.malloc(24, node).unwrap();
        if let Some(&prev) = nodes.last() {
            p.write_ptr(n, prev).unwrap();
        }
        nodes.push(n);
        p.leave();
    }
    for n in nodes.drain(..) {
        p.free(n).unwrap();
    }
    let mut trace = p.take_trace().unwrap();
    trace.set_functions(vec!["build".into()]);
    trace
}

fn stream_bytes(trace: &Trace) -> Vec<u8> {
    let dir = std::env::temp_dir().join("heapmd-salvage-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("s{}.hmdt", trace.len()));
    trace.save_stream(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn corpus_valid_stream_loads_strict_and_complete() {
    let trace = Trace::load_stream(data("valid.hmdt")).unwrap();
    assert_eq!(trace.len(), 41);
    assert_eq!(trace.functions(), ["build", "teardown"]);
    let (salvaged, stats) = Trace::salvage_stream(data("valid.hmdt")).unwrap();
    assert!(stats.complete);
    assert_eq!(stats.events, 41);
    assert!(stats.corruption.is_none());
    assert_eq!(salvaged, trace);
}

#[test]
fn corpus_truncated_stream_salvages_a_prefix() {
    assert!(matches!(
        Trace::load_stream(data("truncated.hmdt")),
        Err(HeapMdError::Corrupt { .. })
    ));
    let full = Trace::load_stream(data("valid.hmdt")).unwrap();
    let (salvaged, stats) = Trace::salvage_stream(data("truncated.hmdt")).unwrap();
    assert!(!stats.complete);
    assert_eq!(stats.events, 28);
    assert_eq!(salvaged.events(), &full.events()[..28]);
    assert!(stats.valid_bytes < stats.total_bytes);
}

#[test]
fn corpus_bit_flipped_stream_stops_at_the_damage() {
    assert!(matches!(
        Trace::load_stream(data("bitflip.hmdt")),
        Err(HeapMdError::Corrupt { .. })
    ));
    let full = Trace::load_stream(data("valid.hmdt")).unwrap();
    let (salvaged, stats) = Trace::salvage_stream(data("bitflip.hmdt")).unwrap();
    assert!(!stats.complete);
    let (offset, reason) = stats.corruption.expect("damage was located");
    assert_eq!(offset, 1741, "damage at the start of the flipped record");
    assert!(reason.contains("checksum mismatch"), "reason: {reason}");
    assert_eq!(salvaged.events(), &full.events()[..stats.events as usize]);
}

#[test]
fn corpus_garbage_salvages_to_an_empty_trace() {
    assert!(Trace::load_stream(data("garbage.hmdt")).is_err());
    let (salvaged, stats) = Trace::salvage_stream(data("garbage.hmdt")).unwrap();
    assert_eq!(salvaged.len(), 0);
    assert_eq!(stats.records, 0);
    assert!(!stats.complete);
    assert!(stats.corruption.is_some());
}

/// Events of the salvaged trace must be a prefix of the original's.
fn assert_salvages_to_prefix(damaged: &[u8], original: &Trace) {
    let (salvaged, stats) = TraceReader::salvage(damaged).expect("salvage never fails on bytes");
    let got: &[HeapEvent] = salvaged.events();
    let all: &[HeapEvent] = original.events();
    assert!(
        got.len() <= all.len() && got == &all[..got.len()],
        "salvaged {} events are not a prefix of the original {}",
        got.len(),
        all.len()
    );
    assert_eq!(stats.events as usize, got.len());
}

// ---------------------------------------------------------------------
// Binary (.hmdt, HMDB1) corpus: block-granular salvage. Unlike the
// JSONL prefix salvage above, the binary reader recovers every intact
// block — including blocks *after* a damaged one.
// ---------------------------------------------------------------------

/// The deterministic trace behind the binary corpus: 1802 linked-list
/// nodes → 9009 events → three event blocks (two full, one partial).
fn binary_corpus_trace() -> Trace {
    let trace = sample_trace(4 * 1800);
    assert_eq!(trace.len(), 9009, "corpus trace drifted; regenerate");
    trace
}

/// Regenerates the committed binary corpus under `tests/data/`. Run
/// `cargo test --test salvage -- --ignored regenerate_binary` after a
/// format change, then update the expectations above.
#[test]
#[ignore = "writes the committed corpus under tests/data/"]
fn regenerate_binary_corpus() {
    let trace = binary_corpus_trace();
    let valid = trace.encode_binary();
    let image = BinaryTraceImage::open(valid.clone()).unwrap();
    let blocks: Vec<_> = image.event_blocks().cloned().collect();
    assert!(blocks.len() >= 3, "corpus needs >= 3 event blocks");
    std::fs::write(data("valid_binary.hmdt"), &valid).unwrap();
    // Truncation mid-second-block: only the first block survives.
    let cut = blocks[1].offset as usize + 600;
    std::fs::write(data("truncated_binary.hmdt"), &valid[..cut]).unwrap();
    // One flipped bit inside the second block's payload: the CRC kills
    // that block, and every other block stays recoverable.
    let mut flipped = valid;
    flipped[blocks[1].offset as usize + 300] ^= 0x10;
    std::fs::write(data("bitflip_binary.hmdt"), &flipped).unwrap();
}

#[test]
fn corpus_valid_binary_loads_strict_and_complete() {
    let trace = Trace::load_binary(data("valid_binary.hmdt")).unwrap();
    assert_eq!(trace, binary_corpus_trace());
    assert_eq!(trace.functions(), ["build"]);
    let (salvaged, stats) = Trace::salvage_binary(data("valid_binary.hmdt")).unwrap();
    assert!(stats.complete);
    assert_eq!(stats.events, 9009);
    assert!(stats.corruption.is_none());
    assert_eq!(salvaged, trace);
}

#[test]
fn corpus_truncated_binary_salvages_whole_blocks() {
    assert!(matches!(
        Trace::load_binary(data("truncated_binary.hmdt")),
        Err(HeapMdError::Corrupt { .. })
    ));
    let full = Trace::load_binary(data("valid_binary.hmdt")).unwrap();
    let (salvaged, stats) = Trace::salvage_binary(data("truncated_binary.hmdt")).unwrap();
    assert!(!stats.complete);
    assert_eq!(stats.events as usize, EVENTS_PER_BLOCK);
    assert_eq!(salvaged.events(), &full.events()[..EVENTS_PER_BLOCK]);
    let (_, reason) = stats.corruption.expect("damage was located");
    assert!(reason.contains("truncated"), "reason: {reason}");
}

#[test]
fn corpus_bit_flipped_binary_recovers_blocks_after_the_hole() {
    assert!(matches!(
        Trace::load_binary(data("bitflip_binary.hmdt")),
        Err(HeapMdError::Corrupt { .. })
    ));
    let full = Trace::load_binary(data("valid_binary.hmdt")).unwrap();
    let (salvaged, stats) = Trace::salvage_binary(data("bitflip_binary.hmdt")).unwrap();
    assert!(!stats.complete);
    let (_, reason) = stats.corruption.expect("damage was located");
    assert!(reason.contains("checksum mismatch"), "reason: {reason}");
    // Exactly the flipped block is lost; the first block, every block
    // after the hole, and the function table all survive.
    let mut expect = full.events()[..EVENTS_PER_BLOCK].to_vec();
    expect.extend_from_slice(&full.events()[2 * EVENTS_PER_BLOCK..]);
    assert_eq!(salvaged.events(), &expect[..]);
    assert_eq!(salvaged.functions(), ["build"]);
    assert_eq!(stats.events as usize, expect.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_prefix_of_a_valid_stream_salvages_cleanly(
        extra in 0usize..40,
        cut_frac in 0.0f64..1.0,
    ) {
        let trace = sample_trace(extra);
        let bytes = stream_bytes(&trace);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        assert_salvages_to_prefix(&bytes[..cut], &trace);
    }

    #[test]
    fn any_single_bit_flip_is_detected_not_propagated(
        extra in 0usize..40,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let trace = sample_trace(extra);
        let mut bytes = stream_bytes(&trace);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        // Strict mode must reject the damage (typed, not a panic)...
        match TraceReader::strict(&bytes[..]) {
            Err(HeapMdError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "wrong error type: {e}"),
            // ...unless the flip hit the End trailer's event count in a
            // way that still parses — impossible, CRC-32 catches all
            // single-bit errors — so Ok means the reader missed it.
            Ok(_) => prop_assert!(false, "single-bit corruption at byte {pos} accepted"),
        }
        // ...and salvage must still recover a clean prefix.
        assert_salvages_to_prefix(&bytes, &trace);
    }

    #[test]
    fn salvage_of_undamaged_streams_is_lossless(extra in 0usize..60) {
        let trace = sample_trace(extra);
        let bytes = stream_bytes(&trace);
        let (salvaged, stats) = TraceReader::salvage(&bytes[..]).unwrap();
        prop_assert!(stats.complete);
        prop_assert_eq!(stats.valid_bytes, bytes.len() as u64);
        prop_assert_eq!(salvaged, trace);
    }

    // ----- binary format properties -----

    #[test]
    fn any_prefix_of_a_binary_trace_salvages_whole_blocks(
        extra in 0usize..4000,
        cut_frac in 0.0f64..1.0,
    ) {
        let trace = sample_trace(extra);
        let bytes = trace.encode_binary();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let (salvaged, stats) =
            BinaryTraceReader::salvage(&bytes[..cut]).expect("salvage never fails on bytes");
        // Truncation can only drop suffix blocks, so whatever survives
        // is a prefix of the original — and always whole blocks.
        let got = salvaged.events();
        let all = trace.events();
        prop_assert!(got.len() <= all.len() && got == &all[..got.len()]);
        prop_assert!(got.len() == all.len() || got.len().is_multiple_of(EVENTS_PER_BLOCK));
        prop_assert_eq!(stats.events as usize, got.len());
        prop_assert!(cut == bytes.len() || !stats.complete);
    }

    #[test]
    fn any_single_bit_flip_in_a_binary_trace_is_detected(
        extra in 0usize..4000,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let trace = sample_trace(extra);
        let mut bytes = trace.encode_binary();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        // Strict mode must reject the damage with a typed error (every
        // byte is covered: header magic/version, per-block CRC-32 over
        // payloads with length-checked decode, CRC'd footer).
        match BinaryTraceReader::strict(&bytes[..]) {
            Err(HeapMdError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "wrong error type: {e}"),
            Ok(_) => prop_assert!(false, "single-bit corruption at byte {pos} accepted"),
        }
        // ...and salvage must survive it, recovering only events that
        // exist in the original (block-granular subsequence, so each
        // surviving block is an exact slice of the original stream).
        let (salvaged, stats) =
            BinaryTraceReader::salvage(&bytes[..]).expect("salvage never fails on bytes");
        prop_assert!(salvaged.len() <= trace.len());
        prop_assert_eq!(stats.events as usize, salvaged.len());
        prop_assert!(!stats.complete);
    }

    #[test]
    fn binary_salvage_of_undamaged_traces_is_lossless(extra in 0usize..4000) {
        let trace = sample_trace(extra);
        let bytes = trace.encode_binary();
        let (salvaged, stats) = BinaryTraceReader::salvage(&bytes[..]).unwrap();
        prop_assert!(stats.complete);
        prop_assert_eq!(stats.valid_bytes, bytes.len() as u64);
        prop_assert_eq!(salvaged, trace);
    }
}
