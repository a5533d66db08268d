//! Train/check drivers shared by experiments, examples, and tests.

use crate::{Input, Workload};
use faults::FaultPlan;
use heapmd::{
    AnomalyDetector, BugReport, HeapModel, IncidentBundle, IncidentLog, MetricReport, ModelBuilder,
    ModelOutcome, Process, Settings,
};
use std::cell::RefCell;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Per-series point budget for the flight recorder every harness
/// check attaches: enough to span long runs after
/// stride-doubling, small enough to keep bundles a few KB.
pub const FLIGHT_RECORDER_POINTS: usize = 512;

/// The settings a program is normally analysed under: paper thresholds,
/// program-specific `frq`.
pub fn settings_for(w: &dyn Workload) -> Settings {
    Settings::builder()
        .frq(w.default_frq())
        .build()
        .expect("default settings are valid")
}

/// Runs `w` once on `input` under `plan`, returning the metric report.
///
/// # Panics
///
/// Panics if the workload reports a heap error (clean plans never do;
/// fault plans provoking one indicate a catalog defect).
pub fn run_once(
    w: &dyn Workload,
    input: &Input,
    plan: &mut FaultPlan,
    settings: &Settings,
) -> MetricReport {
    run_in(Process::new(settings.clone()), w, input, plan)
}

/// Runs `w` once on `input` under `plan` in `p`, a process the caller
/// configured (store sampling, monitors), returning the metric report.
///
/// # Panics
///
/// Same as [`run_once`].
pub fn run_in(
    mut p: Process,
    w: &dyn Workload,
    input: &Input,
    plan: &mut FaultPlan,
) -> MetricReport {
    {
        let _span = heapmd_obs::span!("workload_run");
        w.run(&mut p, plan, input)
            .unwrap_or_else(|e| panic!("{} on input {} failed: {e}", w.name(), input.id));
    }
    p.finish(format!("{}/input-{}", w.name(), input.id))
}

/// Trains a heap model for `w` on clean runs over `inputs`, running
/// them on every available core ([`run_many`]).
pub fn train(w: &dyn Workload, inputs: &[Input]) -> ModelOutcome {
    let settings = settings_for(w);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    let Ok(()) = run_many(
        w,
        inputs,
        &settings,
        heapmd::available_workers().get(),
        |_, report| {
            builder.add_run(&report);
            Ok::<(), Infallible>(())
        },
    );
    builder.build()
}

/// Runs `w` once per input under clean fault plans on up to `threads`
/// workers of [`heapmd::run_pool_streaming`] (stage `train_runs`), and
/// hands each report to `sink` with its index into `inputs`, **in input
/// order**, as soon as it and every earlier report are done. A sink
/// error stops the runs and is returned.
///
/// Each worker builds its own [`Process`] (processes are single-thread
/// state machines), and a run's report depends only on its input, so
/// the sink sees exactly what calling [`run_once`] in a loop would
/// give it.
pub fn run_many<E>(
    w: &dyn Workload,
    inputs: &[Input],
    settings: &Settings,
    threads: usize,
    sink: impl FnMut(usize, MetricReport) -> Result<(), E>,
) -> Result<(), E> {
    heapmd::run_pool_streaming(
        "train_runs",
        inputs.len(),
        threads,
        |_| (),
        |_, i| run_once(w, &inputs[i], &mut FaultPlan::new(), settings),
        sink,
    )
}

/// Checks `w` on `input` under `plan` against `model`, returning the
/// anomaly detector's bug reports.
pub fn check(
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
) -> Vec<BugReport> {
    check_in(Process::new(settings_for(w)), w, model, input, plan, None).bugs
}

/// What a flight-recorded check produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The detector's bug reports.
    pub bugs: Vec<BugReport>,
    /// Incident bundles for range violations that survived the
    /// shutdown trim.
    pub incidents: Vec<IncidentBundle>,
    /// Bundle files written, when an incident directory was given.
    pub bundle_paths: Vec<PathBuf>,
    /// The checked run's metric report (run-store appends read this).
    pub report: MetricReport,
}

/// Like [`check`], but returns the whole [`CheckOutcome`]: incidents
/// carry metric/rate series and a degree histogram, and bundles are
/// additionally persisted under `incident_dir` when given.
pub fn check_with_incidents(
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
    incident_dir: Option<&Path>,
) -> CheckOutcome {
    check_in(
        Process::new(settings_for(w)),
        w,
        model,
        input,
        plan,
        incident_dir,
    )
}

/// The one check body: runs `w` in `p` (a process the caller
/// configured, e.g. store-sampled) with the anomaly detector and the
/// flight recorder attached.
///
/// # Panics
///
/// Same as [`run_once`].
pub fn check_in(
    mut p: Process,
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
    incident_dir: Option<&Path>,
) -> CheckOutcome {
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        p.settings().clone(),
    )));
    if let Some(dir) = incident_dir {
        detector
            .borrow_mut()
            .log_incidents_to(IncidentLog::new(dir, w.name()));
    }
    p.enable_flight_recorder(FLIGHT_RECORDER_POINTS);
    p.attach(detector.clone());
    let report = run_in(p, w, input, plan);
    let mut d = detector.borrow_mut();
    CheckOutcome {
        bugs: d.take_bugs(),
        incidents: d.take_incidents(),
        bundle_paths: d
            .incident_log()
            .map(|l| l.paths().to_vec())
            .unwrap_or_default(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Gzip;

    #[test]
    fn train_then_clean_check_is_quiet() {
        let w = Gzip;
        let outcome = train(&w, &Input::set(3));
        assert!(outcome.model.training_runs >= 3);
        assert!(
            !outcome.model.stable.is_empty(),
            "gzip must have stable metrics"
        );
        let bugs = check(&w, &outcome.model, &Input::new(50), &mut FaultPlan::new());
        assert!(bugs.is_empty(), "clean run raised: {bugs:?}");
    }

    #[test]
    fn run_once_produces_samples() {
        let w = Gzip;
        let settings = settings_for(&w);
        let report = run_once(&w, &Input::new(0), &mut FaultPlan::new(), &settings);
        assert!(report.len() >= 30, "too few samples: {}", report.len());
    }
}
