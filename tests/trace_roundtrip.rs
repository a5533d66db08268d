//! Offline mode equivalences: a replayed trace reproduces the online
//! metric report, and offline checking agrees with online checking.

use faults::FaultPlan;
use heapmd::{
    load_trace_auto, push_trace_resumable, render_verdicts, AnomalyDetector, BugReport, FuncId,
    HeapEvent, IncidentBundle, ModelBuilder, Process, SamplerConfig, ServeConfig, Server,
    SessionOptions, Settings, Trace, TraceChecker, WireFrame, WireReader,
};
use sim_ds::{fault_ids::DLIST_SKIP_PREV, SimDList};
use std::cell::RefCell;
use std::rc::Rc;

fn run(settings: &Settings, plan: &mut FaultPlan) -> (heapmd::MetricReport, Trace) {
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    let tick = p.function("tick");
    let mut list = SimDList::new(&mut p, "t").unwrap();
    for i in 0..500u64 {
        p.enter(tick);
        list.push_back(&mut p, plan, i).unwrap();
        if list.len() > 120 {
            if let Some(front) = list.front(&mut p).unwrap() {
                list.remove(&mut p, front).unwrap();
            }
        }
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    let names: Vec<String> = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    (p.finish("traced"), trace)
}

#[test]
fn replay_reproduces_the_online_series_exactly() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let (online, trace) = run(&settings, &mut FaultPlan::new());
    let offline = trace.replay(&settings, "replayed").unwrap();
    assert_eq!(online.samples, offline.samples);
}

/// The post-mortem detector stamps its context entries with the event
/// clock it replays, not a clock that never moves.
/// An open image reads each block from the file when it decodes it. A
/// file cut in place under it (`File::create`, what `run --trace-out`
/// does to an existing path) makes the replay fail as corrupt, with no
/// signal; a file replaced by rename leaves the open image on the
/// original content.
#[test]
fn an_open_image_survives_its_file_being_rewritten() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let (_, trace) = run(&settings, &mut FaultPlan::new());
    let dir = std::env::temp_dir().join(format!("heapmd-rewritten-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.hmdt");
    trace.save_binary(&path).unwrap();
    let expected = trace.replay(&settings, "traced").unwrap();

    let image = heapmd::BinaryTraceImage::open_path(&path).unwrap();
    std::fs::File::create(&path).unwrap();
    let cut = TraceChecker::new(false).replay_image(&image, &settings, "traced", None);
    assert!(
        matches!(cut, Err(heapmd::HeapMdError::Corrupt { .. })),
        "a cut file must be refused as corrupt, got {:?}",
        cut.map(|(r, _)| r.samples.len())
    );

    trace.save_binary(&path).unwrap();
    let image = heapmd::BinaryTraceImage::open_path(&path).unwrap();
    heapmd::persist::write_atomic(&path, b"not a trace").unwrap();
    let (replayed, _) = TraceChecker::new(false)
        .replay_image(&image, &settings, "traced", None)
        .unwrap();
    assert_eq!(replayed.samples, expected.samples);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn offline_context_ticks_advance() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;
    let (_, trace) = run(&settings, &mut FaultPlan::single(DLIST_SKIP_PREV));
    let bugs = trace.check(&model, &settings).unwrap();
    assert!(!bugs.is_empty(), "the bug must be detected via trace");
    for bug in &bugs {
        let ticks: Vec<u64> = bug.context.iter().map(|e| e.tick).collect();
        assert!(ticks.len() > 1, "{bug}: no context beyond the crossing");
        assert!(
            ticks.iter().all(|&t| t > 0),
            "{bug}: zero tick in {ticks:?}"
        );
        assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "{bug}: ticks go backwards: {ticks:?}"
        );
    }
}

#[test]
fn offline_check_agrees_with_report_check() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;

    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let (report, trace) = run(&settings, &mut plan);
    let via_report = AnomalyDetector::check_report(&model, &settings, &report);
    let via_trace = trace.check(&model, &settings).unwrap();
    assert!(!via_report.is_empty(), "the bug must be detected offline");
    assert!(!via_trace.is_empty(), "the bug must be detected via trace");
    // Same violations (trace mode adds call-stack context).
    let keys = |v: &[heapmd::BugReport]| -> Vec<(heapmd::MetricKind, usize)> {
        v.iter().map(|b| (b.metric, b.sample_seq)).collect()
    };
    let trace_keys = keys(&via_trace);
    for k in keys(&via_report) {
        assert!(trace_keys.contains(&k), "missing {k:?} in trace check");
    }
    // Trace-mode reports carry call-stacks.
    assert!(via_trace
        .iter()
        .any(|b| b.context.iter().any(|e| !e.stack.is_empty())));
}

#[test]
fn binary_roundtrip_preserves_checking() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;
    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let (_, trace) = run(&settings, &mut plan);
    let back = Trace::decode_binary(&trace.encode_binary()).unwrap();
    assert_eq!(
        trace.check(&model, &settings).unwrap(),
        back.check(&model, &settings).unwrap()
    );
}

/// A sampled run streamed in the default format keeps its sampling
/// outcome, so its offline check widens exactly as a check of the
/// in-memory recording (stamped with the same outcome) does.
#[test]
fn sampled_stream_in_the_default_format_keeps_its_sampling_outcome() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name() == "gzip")
        .expect("gzip workload");
    let model = workloads::harness::train(w.as_ref(), &workloads::Input::set(8)).model;
    let dir = std::env::temp_dir().join(format!("heapmd-sampled-default-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("default.hmdt");
    let mut p = Process::new(workloads::harness::settings_for(w.as_ref()));
    p.enable_sampling(SamplerConfig::default());
    p.enable_trace();
    let file = std::fs::File::create(&path).unwrap();
    p.stream_trace_to(Box::new(std::io::BufWriter::new(file)))
        .unwrap();
    w.run(&mut p, &mut FaultPlan::new(), &workloads::Input::new(24))
        .unwrap();
    p.finish_stream().unwrap();
    let mut recorded = p.take_trace().unwrap();
    recorded.set_functions(
        (0..p.functions().len())
            .map(|i| p.functions().name(FuncId(i as u32)).to_string())
            .collect(),
    );
    let (streamed, _) = load_trace_auto(&path, false).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        streamed.sampling().is_some(),
        "the sampling outcome was dropped"
    );
    assert_eq!(streamed.sampling(), recorded.sampling());
    assert_eq!(
        streamed.check(&model, &model.settings).unwrap(),
        recorded.check(&model, &model.settings).unwrap(),
        "streamed and in-memory verdicts differ"
    );
}

/// One warm-up on every path: a live check, `Trace::check`, the
/// per-file checker and the daemon give the same bug list, context
/// included, on a run long enough (138 points) that a warm-up sized by
/// the checked run's own length would skip more than a live check can.
#[test]
fn live_offline_and_serve_agree_on_a_long_run() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut builder = ModelBuilder::new(settings.clone());
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new()).0);
    }
    let model = builder.build().model;

    // Live: the detector rides the checked process.
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    p.attach(detector.clone());
    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let tick = p.function("tick");
    let mut list = SimDList::new(&mut p, "t").unwrap();
    for i in 0..500u64 {
        p.enter(tick);
        list.push_back(&mut p, &mut plan, i).unwrap();
        if list.len() > 120 {
            if let Some(front) = list.front(&mut p).unwrap() {
                list.remove(&mut p, front).unwrap();
            }
        }
        p.leave();
    }
    let mut trace = p.take_trace().unwrap();
    let names: Vec<String> = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    let report = p.finish("live");
    assert!(report.len() > 60, "{} points", report.len());
    let live = detector.borrow_mut().take_bugs();
    assert!(!live.is_empty(), "the bug must be detected live");
    let live_text = render_verdicts(&live);
    // Every bundle holds the report it was raised for.
    let holds_its_report = |bundles: &[IncidentBundle], bugs: &[BugReport]| {
        assert!(!bundles.is_empty(), "the crossing leaves a bundle");
        for b in bundles {
            assert!(bugs.contains(&b.report), "{:?} is not a verdict", b.report);
        }
    };
    holds_its_report(detector.borrow().incidents(), &live);

    let offline = trace.check(&model, &settings).unwrap();
    assert_eq!(live, offline, "live == trace.check");

    let dir = std::env::temp_dir().join(format!("heapmd-live-offline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.hmdt");
    trace.save_binary(&path).unwrap();
    let filed = TraceChecker::new(true)
        .check_path(&path, &model, &settings, false, None)
        .unwrap();
    assert_eq!(live, filed.bugs, "live == check of the .hmdt file");
    assert_eq!(live_text, render_verdicts(&filed.bugs));
    holds_its_report(&filed.incidents, &filed.bugs);

    let mut config = ServeConfig::new(model);
    config.incident_dir = Some(dir.join("incidents"));
    let server = Server::start(config, "127.0.0.1:0", "127.0.0.1:0").unwrap();
    push_trace_resumable(server.ingest_addr(), "t", &trace, SessionOptions::default()).unwrap();
    let fleet = server.fleet();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while fleet.snapshot().connected > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown();
    let outcome = server.wait().tenants.remove("t").unwrap();
    assert!(!outcome.partial, "{outcome:?}");
    assert_eq!(live, outcome.bugs, "live == serve");
    assert_eq!(live_text, render_verdicts(&outcome.bugs));
    let served: Vec<IncidentBundle> = outcome
        .bundle_paths
        .iter()
        .map(|p| IncidentBundle::load(p).unwrap())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    holds_its_report(&served, &outcome.bugs);
}

/// A streaming process writes its function table ahead of the first
/// event that uses a new name, so a reader checking the stream as it
/// arrives can always name every frame.
#[test]
fn streamed_function_tables_precede_their_first_use() {
    let settings = Settings::builder().frq(10).build().unwrap();
    let mut p = Process::new(settings);
    let bytes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // A name interned before the stream attaches must be covered too.
    let main = p.function("main");
    p.enter(main);
    p.stream_trace_to(Box::new(Shared(bytes.clone()))).unwrap();
    // Names interned after it attaches reach the stream at interning.
    let mut list = SimDList::new(&mut p, "t").unwrap();
    let scopes = [p.function("tick"), p.function("tock"), main];
    for i in 0..200u64 {
        p.enter(scopes[i as usize % 3]);
        list.push_back(&mut p, &mut FaultPlan::new(), i).unwrap();
        p.leave();
    }
    p.leave();
    p.finish_stream().unwrap();
    let names = p.functions().len();
    assert!(names >= 3, "the run interns several names");

    let bytes = bytes.lock().unwrap().clone();
    let mut reader = WireReader::new(&bytes[..]);
    let (mut table, mut tables, mut enters) = (0usize, 0, 0);
    loop {
        match reader.next_frame().unwrap() {
            WireFrame::Functions(names) => {
                assert!(names.len() >= table, "tables only grow");
                table = names.len();
                tables += 1;
            }
            WireFrame::Events(events) => {
                for ev in events {
                    if let HeapEvent::FnEnter { func } = ev {
                        assert!(
                            (func as usize) < table,
                            "fn#{func} precedes a table naming it ({table} names)"
                        );
                        enters += 1;
                    }
                }
            }
            WireFrame::Meta(_) => {}
            WireFrame::End(_) => break,
        }
    }
    assert_eq!(table, names, "the last table is the whole table");
    assert!(tables > 1, "new names re-send the table");
    assert!(enters > 0);
}
