//! Analysis-side costs: summarizing runs into a model, checking a
//! finished report against it (the offline, post-mortem mode), and
//! checking a catalogued bug, recorded and live, where the detector
//! arms, logs its window and reports.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use faults::FaultPlan;
use heapmd::{
    AnomalyDetector, BinaryTraceImage, BugReport, FuncId, HeapModel, ModelBuilder, Process,
    Settings, TraceChecker,
};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::bugs::{BugSpec, CATALOG};
use workloads::commercial::GameAction;
use workloads::harness::{run_once, settings_for, train};
use workloads::{spec::Gzip, Input, Workload};

/// The run behind `check_armed_trace` and `run_armed_bug`: the paper's
/// Figure 10 bug, whose Indeg=1 excursion arms the window and crosses.
const ARMED_BUG: &str = "ga.scene_tree.skip_parent";

fn armed_bug() -> &'static BugSpec {
    CATALOG
        .iter()
        .find(|b| b.fault.0 == ARMED_BUG)
        .expect("catalogued bug")
}

/// Records `ARMED_BUG` on one input of `game_action` as a binary trace.
fn armed_trace(w: &GameAction) -> BinaryTraceImage {
    let mut p = Process::new(settings_for(w));
    p.enable_trace();
    w.run(&mut p, &mut armed_bug().plan(), &Input::new(41))
        .expect("workload runs");
    let mut trace = p.take_trace().expect("tracing enabled");
    let names = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    BinaryTraceImage::open(trace.encode_binary()).expect("fresh trace decodes")
}

/// Runs `ARMED_BUG` on the same input live, the detector attached.
fn run_armed(w: &GameAction, model: &HeapModel, settings: &Settings) -> Vec<BugReport> {
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    let mut p = Process::new(settings.clone());
    p.attach(detector.clone());
    w.run(&mut p, &mut armed_bug().plan(), &Input::new(41))
        .expect("workload runs");
    let _ = p.finish("armed");
    let bugs = detector.borrow_mut().take_bugs();
    bugs
}

fn bench_model_and_detector(c: &mut Criterion) {
    let w = Gzip;
    let settings = settings_for(&w);
    let reports: Vec<_> = Input::set(6)
        .iter()
        .map(|i| run_once(&w, i, &mut FaultPlan::new(), &settings))
        .collect();
    let model = train(&w, &Input::set(4)).model;

    let mut group = c.benchmark_group("model_and_detector");
    group.bench_function("model_build_6_runs", |b| {
        b.iter(|| {
            let mut builder = ModelBuilder::new(settings.clone());
            for r in &reports {
                builder.add_run(r);
            }
            builder.build()
        })
    });
    group.bench_function("check_report_offline", |b| {
        b.iter(|| AnomalyDetector::check_report(&model, &settings, &reports[5]))
    });

    let ga = GameAction::new(1);
    let ga_settings = settings_for(&ga);
    let ga_model = train(&ga, &Input::set(4)).model;
    let image = armed_trace(&ga);
    // A fresh worker per check, decoding ahead, as `check` of one trace.
    let check = || {
        let mut worker = TraceChecker::new(true);
        let outcome = worker.check_image(&image, &ga_model, &ga_settings, None);
        outcome.expect("trace checks").bugs
    };
    let bugs = check();
    assert!(
        bugs.iter().any(|b| !b.context.is_empty()),
        "{ARMED_BUG} must arm the window and report"
    );
    group.throughput(Throughput::Elements(image.index().total_events));
    group.bench_function("check_armed_trace", |b| b.iter(check));
    assert_eq!(
        run_armed(&ga, &ga_model, &ga_settings),
        bugs,
        "the live run reports what its recording does"
    );
    group.bench_function("run_armed_bug", |b| {
        b.iter(|| run_armed(&ga, &ga_model, &ga_settings))
    });
    group.finish();
}

criterion_group!(benches, bench_model_and_detector);
criterion_main!(benches);
