//! Offline mode equivalences: a replayed trace reproduces the online
//! metric report, and offline checking agrees with online checking.

use faults::FaultPlan;
use heapmd::{
    load_trace_auto, AnomalyDetector, FuncId, ModelBuilder, Process, SamplerConfig, Settings,
    StreamFormat, Trace,
};
use sim_ds::{fault_ids::DLIST_SKIP_PREV, SimDList};

fn run(settings: &Settings, plan: &mut FaultPlan) -> (heapmd::MetricReport, Trace) {
    let mut p = Process::new(settings.clone());
    p.enable_trace();
    let mut list = SimDList::new(&mut p, "t").unwrap();
    for i in 0..500u64 {
        p.enter("tick");
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
/// outcome, so its offline check widens exactly as the binary codec's
/// does. (Framed JSONL has no record for it: an offline check of such a
/// file would use un-widened ranges.)
#[test]
fn sampled_stream_in_the_default_format_keeps_its_sampling_outcome() {
    let w = workloads::registry()
        .into_iter()
        .find(|w| w.name() == "gzip")
        .expect("gzip workload");
    let model = workloads::harness::train(w.as_ref(), &workloads::Input::set(8)).model;
    let dir = std::env::temp_dir().join(format!("heapmd-sampled-default-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut checked = Vec::new();
    for (name, format) in [
        ("default.hmdt", StreamFormat::default()),
        ("binary.hmdt", StreamFormat::Binary),
    ] {
        let path = dir.join(name);
        let mut p = Process::new(workloads::harness::settings_for(w.as_ref()));
        p.enable_sampling(SamplerConfig::default());
        let file = std::fs::File::create(&path).unwrap();
        p.stream_trace_to_format(Box::new(std::io::BufWriter::new(file)), format)
            .unwrap();
        w.run(&mut p, &mut FaultPlan::new(), &workloads::Input::new(24))
            .unwrap();
        p.finish_stream().unwrap();
        let (trace, _) = load_trace_auto(&path, false).unwrap();
        assert!(
            trace.sampling().is_some(),
            "{name}: the sampling outcome was dropped"
        );
        checked.push(trace.check(&model, &model.settings).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(checked[0], checked[1], "default and binary verdicts differ");
}
