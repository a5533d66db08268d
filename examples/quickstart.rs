//! Quickstart: HeapMD end to end in ~60 lines.
//!
//! Trains a heap-behaviour model on clean runs of a toy program, then
//! checks a buggy variant — a doubly-linked list whose insert forgets
//! the `prev` pointers (the paper's Figure 1) — and prints the anomaly
//! report.
//!
//! Run with `cargo run --example quickstart`.

use faults::FaultPlan;
use heapmd::{AnomalyDetector, ModelBuilder, Process, Settings};
use sim_ds::{fault_ids::DLIST_SKIP_PREV, SimDList};
use std::cell::RefCell;
use std::rc::Rc;

/// The "program": an asset list that grows to an input-dependent size,
/// then churns in steady state.
fn run(seed: u64, plan: &mut FaultPlan, settings: &Settings) -> heapmd::MetricReport {
    let mut p = Process::new(settings.clone());
    let main_loop = p.function("main_loop");
    let mut list = SimDList::new(&mut p, "assets").expect("allocate header");
    let target = 150 + (seed % 7) * 10;
    for i in 0..900u64 {
        p.enter(main_loop);
        list.push_back(&mut p, plan, seed.wrapping_add(i))
            .expect("insert");
        if list.len() as u64 > target {
            if let Some(front) = list.front(&mut p).expect("read") {
                list.remove(&mut p, front).expect("remove");
            }
        }
        p.leave();
    }
    p.finish(format!("run-{seed}"))
}

fn main() {
    let settings = Settings::builder().frq(20).build().expect("valid settings");

    // Phase 1: model construction on three clean training inputs.
    let mut builder = ModelBuilder::new(settings.clone()).program("quickstart");
    for seed in 0..3 {
        builder.add_run(&run(seed, &mut FaultPlan::new(), &settings));
    }
    let model = builder.build().model;
    println!("Calibrated {} stable metrics:", model.stable.len());
    for sm in model.stable_metrics() {
        println!(
            "  {:<9} range [{:6.2}, {:6.2}]",
            sm.kind.short_name(),
            sm.min,
            sm.max
        );
    }

    // Phase 2: execution checking — first clean, then with Figure 1's bug.
    let clean = run(99, &mut FaultPlan::new(), &settings);
    let clean_bugs = AnomalyDetector::check_report(&model, &settings, &clean);
    println!("\nClean run:  {} anomalies", clean_bugs.len());

    let mut buggy_plan = FaultPlan::single(DLIST_SKIP_PREV);
    let buggy = run(99, &mut buggy_plan, &settings);
    let bugs = AnomalyDetector::check_report(&model, &settings, &buggy);
    println!("Buggy run:  {} anomalies", bugs.len());
    for b in &bugs {
        println!("  {b}");
    }

    // The online variant with call-stack context.
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(model, settings.clone())));
    let mut p = Process::new(settings.clone());
    p.attach(detector.clone());
    let mut plan = FaultPlan::single(DLIST_SKIP_PREV);
    let main_loop = p.function("main_loop");
    let mut list = SimDList::new(&mut p, "assets").expect("header");
    for i in 0..600u64 {
        p.enter(main_loop);
        list.push_back(&mut p, &mut plan, i).expect("insert");
        p.leave();
    }
    let _ = p.finish("online");
    let det = detector.borrow();
    if let Some(bug) = det.bugs().first() {
        println!("\nOnline report with call-stack context:");
        print!("{}", heapmd::render_verdicts(std::slice::from_ref(bug)));
    }
}
