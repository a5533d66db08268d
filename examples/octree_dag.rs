//! The poorly disguised bug: an oct-tree that becomes an oct-DAG.
//!
//! The paper's only *poorly disguised* bug occurred during startup and
//! pinned the indegree = 1 percentage at the minimum of its calibrated
//! range for the rest of the run. This example reproduces the
//! mechanism in isolation and shows the detector's pinned-extreme
//! report.
//!
//! Run with `cargo run --example octree_dag`.

use faults::FaultPlan;
use heapmd::{AnomalyDetector, MetricKind, ModelBuilder, Process, Settings};
use sim_ds::{fault_ids::OCTREE_ALIAS_SUBTREE, BufferPool, SimOctTree};

fn run(settings: &Settings, plan: &mut FaultPlan, depth: usize) -> heapmd::MetricReport {
    let mut p = Process::new(settings.clone());
    // Startup: build the world.
    let world = SimOctTree::build(&mut p, plan, depth, "world").expect("build");
    let mut scratch = BufferPool::new(&mut p, 60, "frame");
    let render_frame = p.function("render_frame");
    // Steady state: render frames.
    for _ in 0..700 {
        p.enter(render_frame);
        scratch.acquire(&mut p, 128).expect("acquire");
        world.touch_all(&mut p).expect("touch");
        p.leave();
    }
    world.free_all(&mut p).expect("free");
    p.finish("octree")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let settings = Settings::builder().frq(20).build()?;
    let mut builder = ModelBuilder::new(settings.clone()).program("renderer");
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new(), 2));
    }
    let model = builder.build().model;
    let sm = model
        .stable_metric(MetricKind::Indeg1)
        .expect("a clean oct-tree pins indeg=1 high");
    println!(
        "clean model: Indeg=1 calibrated to [{:.1}, {:.1}]",
        sm.min, sm.max
    );

    let mut plan = FaultPlan::single(OCTREE_ALIAS_SUBTREE);
    let report = run(&settings, &mut plan, 2);
    let bugs = AnomalyDetector::check_report(&model, &settings, &report);
    println!("oct-DAG run: {} reports", bugs.len());
    for b in &bugs {
        println!("  {b}");
    }
    Ok(())
}
