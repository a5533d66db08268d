//! Pipeline-level fault-injection (chaos) harness: round-trips every
//! persistent artifact — streaming traces, models, checkpoints — through
//! [`faults::io::FaultyWriter`] / [`faults::io::FaultyReader`] under a
//! matrix of deterministic fault schedules, asserting each outcome is
//! either success or a typed [`HeapMdError`]: zero panics, and no
//! corrupted artifact is ever silently accepted as valid.

use faults::io::{fault_ids::*, FaultyReader, FaultyWriter};
use faults::{FaultConfig, FaultId, FaultPlan};
use heapmd::{
    BinaryTraceReader, BinaryTraceWriter, HeapMdError, ModelBuilder, Process, Settings, Trace,
    TraceReader, TraceWriter, TrainCheckpoint,
};
use std::io::{Read, Write};

/// The schedule matrix each fault id is exercised under.
fn schedules() -> Vec<FaultConfig> {
    vec![
        FaultConfig::always(),
        FaultConfig::always().after(5),
        FaultConfig::every(3),
        FaultConfig::every(7).after(2).limit(2),
        FaultConfig::always().limit(1),
    ]
}

const WRITER_FAULTS: [FaultId; 4] = [
    IO_SHORT_WRITE,
    IO_WRITE_ERROR,
    IO_FLUSH_INTERRUPT,
    IO_BIT_FLIP_WRITE,
];
const READER_FAULTS: [FaultId; 4] = [IO_SHORT_READ, IO_READ_ERROR, IO_BIT_FLIP_READ, IO_EARLY_EOF];

fn sample_trace() -> Trace {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut p = Process::new(settings);
    p.enable_trace();
    let (build, node) = (p.function("build"), p.site("node"));
    let mut nodes = Vec::new();
    for _ in 0..12 {
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

fn sample_model() -> heapmd::HeapModel {
    let settings = Settings::default();
    let mut b = ModelBuilder::new(settings).program("chaos");
    for i in 0..4 {
        let samples = (0..30)
            .map(|s| heapmd::MetricSample {
                seq: s,
                fn_entries: s as u64,
                tick: s as u64,
                metrics: heapmd::MetricVector::from_array([40.0 + i as f64; heapmd::METRIC_COUNT]),
                nodes: 10,
                edges: 5,
                dangling: 0,
                candidates: None,
            })
            .collect();
        b.add_run(&heapmd::MetricReport::new(format!("r{i}"), samples));
    }
    b.build().model
}

/// Streams `trace` through a faulty writer; Ok(bytes) or a typed error.
fn stream_through_faulty_writer(trace: &Trace, plan: FaultPlan) -> Result<Vec<u8>, HeapMdError> {
    let mut w = TraceWriter::new(FaultyWriter::new(Vec::new(), plan))?;
    w.write_functions(trace.functions())?;
    for ev in trace.events() {
        w.write_event(ev)?;
    }
    Ok(w.finish()?.into_inner())
}

#[test]
fn trace_writes_under_every_fault_schedule_never_panic() {
    let trace = sample_trace();
    let clean = stream_through_faulty_writer(&trace, FaultPlan::new()).unwrap();
    for fault in WRITER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            match stream_through_faulty_writer(&trace, plan) {
                // A surviving write (fault missed, bounded, or absorbed
                // by retry-free short-write semantics) must either
                // produce a loadable stream or be caught on read-back.
                Ok(bytes) => match TraceReader::strict(&bytes[..]) {
                    Ok(back) => {
                        if fault != IO_BIT_FLIP_WRITE {
                            assert_eq!(back, trace, "{fault} {config:?} altered the trace");
                        } else {
                            // Flips that landed were CRC-caught above;
                            // strict Ok means every flip was out-schedule.
                            assert_eq!(bytes, clean, "undetected corruption under {fault}");
                        }
                    }
                    Err(HeapMdError::Corrupt { .. }) => {
                        // Damaged on the wire but detected: salvage must
                        // still recover a clean prefix without error.
                        let (salvaged, _) = TraceReader::salvage(&bytes[..]).unwrap();
                        let got = salvaged.events();
                        assert_eq!(got, &trace.events()[..got.len()]);
                    }
                    Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
                },
                Err(HeapMdError::Io(_)) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
        }
    }
}

#[test]
fn trace_reads_under_every_fault_schedule_never_panic() {
    let trace = sample_trace();
    let bytes = stream_through_faulty_writer(&trace, FaultPlan::new()).unwrap();
    for fault in READER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            match TraceReader::strict(FaultyReader::new(&bytes[..], plan.clone())) {
                Ok(back) => assert_eq!(back, trace, "{fault} {config:?} altered the trace"),
                Err(HeapMdError::Corrupt { .. }) | Err(HeapMdError::Io(_)) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
            // Salvage mode: only a true I/O error may fail; any
            // recovered data must be a prefix of the original events.
            match TraceReader::salvage(FaultyReader::new(&bytes[..], plan)) {
                Ok((salvaged, stats)) => {
                    let got = salvaged.events();
                    assert_eq!(got, &trace.events()[..got.len()]);
                    assert_eq!(stats.events as usize, got.len());
                }
                Err(HeapMdError::Io(_)) => assert_eq!(fault, IO_READ_ERROR),
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
        }
    }
}

#[test]
fn model_round_trips_under_every_fault_schedule_never_panic() {
    let model = sample_model();
    let json = model.to_json().unwrap();
    for fault in WRITER_FAULTS.iter().chain(&READER_FAULTS) {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(*fault, config);

            // Write side: push the JSON through a faulty writer.
            let mut w = FaultyWriter::new(Vec::new(), plan.clone());
            let wrote = w.write_all(json.as_bytes()).and_then(|_| w.flush());
            let stored = w.into_inner();

            // Read side: pull whatever landed back through a faulty
            // reader and parse.
            let mut r = FaultyReader::new(&stored[..], plan);
            let mut text = Vec::new();
            if r.read_to_end(&mut text).is_err() {
                continue; // typed I/O failure, fine
            }
            let parsed = String::from_utf8(text).map_err(|_| ()).and_then(|t| {
                heapmd::HeapModel::from_json(&t).map_err(|e| {
                    assert!(
                        matches!(e, HeapMdError::Corrupt { .. } | HeapMdError::Serde(_)),
                        "{fault} {config:?}: wrong error type {e}"
                    );
                })
            });
            // `Err(())` means the damage was detected with a typed error.
            if let Ok(back) = parsed {
                // Unlike the CRC-framed trace stream, model JSON has
                // no integrity checksum: a bit flip that lands on a
                // digit can survive parsing and validation. That is
                // the documented trade-off (models rely on atomic
                // rename, not media-corruption resistance), so only
                // non-flip faults must reproduce the model exactly.
                if *fault != IO_BIT_FLIP_WRITE && *fault != IO_BIT_FLIP_READ {
                    assert_eq!(back, model, "{fault} {config:?}: silent corruption");
                }
                let _ = wrote;
            }
        }
    }
}

#[test]
fn checkpoints_round_trip_under_corruption_never_panic() {
    let settings = Settings::default();
    let mut b = ModelBuilder::new(settings).program("chaos");
    let samples: Vec<heapmd::MetricSample> = (0..30)
        .map(|s| heapmd::MetricSample {
            seq: s,
            fn_entries: s as u64,
            tick: s as u64,
            metrics: heapmd::MetricVector::from_array([50.0; heapmd::METRIC_COUNT]),
            nodes: 10,
            edges: 5,
            dangling: 0,
            candidates: None,
        })
        .collect();
    b.add_run(&heapmd::MetricReport::new("r0", samples));
    let cp = b.checkpoint(1);

    let dir = std::env::temp_dir().join("heapmd-chaos-test");
    std::fs::create_dir_all(&dir).unwrap();
    let clean_path = dir.join("clean.ckpt");
    cp.save(&clean_path).unwrap();
    let clean_bytes = std::fs::read(&clean_path).unwrap();

    for fault in READER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            // Corrupt the checkpoint bytes on their way to disk, then
            // load through the real path-based API.
            let mut damaged = Vec::new();
            let read = FaultyReader::new(&clean_bytes[..], plan).read_to_end(&mut damaged);
            if read.is_err() {
                continue;
            }
            let path = dir.join("damaged.ckpt");
            std::fs::write(&path, &damaged).unwrap();
            match TrainCheckpoint::load(&path) {
                // The container checks every byte, so whatever loads
                // is the checkpoint exactly, bit flips included.
                Ok(back) => assert_eq!(back, cp, "{fault} {config:?}: silent corruption"),
                Err(
                    HeapMdError::Corrupt { .. }
                    | HeapMdError::Checkpoint(_)
                    | HeapMdError::Serde(_)
                    | HeapMdError::InvalidSettings(_),
                ) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
        }
    }
    std::fs::remove_file(&clean_path).ok();
    std::fs::remove_file(dir.join("damaged.ckpt")).ok();
}

/// Streams `trace` through the binary block writer behind a faulty
/// sink; Ok(bytes) or a typed error.
fn binary_through_faulty_writer(trace: &Trace, plan: FaultPlan) -> Result<Vec<u8>, HeapMdError> {
    let mut w = BinaryTraceWriter::new(FaultyWriter::new(Vec::new(), plan))?;
    for ev in trace.events() {
        w.write_event(ev)?;
    }
    w.write_functions(trace.functions())?;
    Ok(w.finish()?.into_inner())
}

#[test]
fn binary_writes_under_every_fault_schedule_never_panic() {
    let trace = sample_trace();
    let clean = binary_through_faulty_writer(&trace, FaultPlan::new()).unwrap();
    for fault in WRITER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            match binary_through_faulty_writer(&trace, plan) {
                Ok(bytes) => match BinaryTraceReader::strict(&bytes[..]) {
                    Ok(back) => {
                        if fault != IO_BIT_FLIP_WRITE {
                            assert_eq!(back, trace, "{fault} {config:?} altered the trace");
                        } else {
                            assert_eq!(bytes, clean, "undetected corruption under {fault}");
                        }
                    }
                    Err(HeapMdError::Corrupt { .. }) => {
                        // Detected on read-back; block-granular salvage
                        // must still succeed, and every recovered event
                        // must exist in the original (salvage keeps whole
                        // blocks, so damage never *invents* events).
                        let (salvaged, stats) = BinaryTraceReader::salvage(&bytes[..]).unwrap();
                        assert!(salvaged.len() <= trace.len());
                        assert_eq!(stats.events as usize, salvaged.len());
                    }
                    Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
                },
                Err(HeapMdError::Io(_)) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
        }
    }
}

#[test]
fn binary_reads_under_every_fault_schedule_never_panic() {
    let trace = sample_trace();
    let bytes = binary_through_faulty_writer(&trace, FaultPlan::new()).unwrap();
    for fault in READER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            match BinaryTraceReader::strict(FaultyReader::new(&bytes[..], plan.clone())) {
                Ok(back) => assert_eq!(back, trace, "{fault} {config:?} altered the trace"),
                Err(HeapMdError::Corrupt { .. }) | Err(HeapMdError::Io(_)) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
            // Salvage mode: only a true I/O error may fail; recovered
            // blocks carry only events the original stream held.
            match BinaryTraceReader::salvage(FaultyReader::new(&bytes[..], plan)) {
                Ok((salvaged, stats)) => {
                    assert!(salvaged.len() <= trace.len());
                    assert_eq!(stats.events as usize, salvaged.len());
                }
                Err(HeapMdError::Io(_)) => assert_eq!(fault, IO_READ_ERROR),
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
        }
    }
}

#[test]
fn process_survives_a_dying_binary_trace_sink_under_every_schedule() {
    for fault in WRITER_FAULTS {
        for config in schedules() {
            let mut plan = FaultPlan::new();
            plan.enable(fault, config);
            let settings = Settings::builder().frq(10).build().unwrap();
            let mut p = Process::new(settings);
            let sink = Box::new(FaultyWriter::new(Vec::new(), plan));
            match p.stream_trace_to(sink) {
                Ok(()) => {}
                Err(HeapMdError::Io(_)) => continue,
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
            let (w, x) = (p.function("w"), p.site("x"));
            for _ in 0..20 {
                p.enter(w);
                let a = p.malloc(16, x).unwrap();
                p.free(a).unwrap();
                p.leave();
            }
            assert_eq!(p.fn_entries(), 20, "{fault} {config:?} disturbed the run");
            match p.finish_stream() {
                Ok(_) | Err(HeapMdError::Io(_)) => {}
                Err(e) => panic!("{fault} {config:?}: wrong error type {e}"),
            }
            let _ = p.finish("chaos");
        }
    }
}
