//! Post-mortem analysis: the paper's second deployment mode.
//!
//! The instrumented program writes an execution trace; later — possibly
//! on another machine — the checker replays the trace against a saved
//! model and produces bug reports with full call-stack context.
//!
//! Run with `cargo run --example postmortem`.

use faults::FaultPlan;
use heapmd::{FuncId, ModelBuilder, Process, Settings, Trace};
use sim_ds::{fault_ids::CLIST_FREE_SHARED_HEAD, SimCircularList};

fn run(
    settings: &Settings,
    plan: &mut FaultPlan,
    traced: bool,
) -> (heapmd::MetricReport, Option<Trace>) {
    let mut p = Process::new(settings.clone());
    if traced {
        p.enable_trace();
    }
    let mut rings: Vec<SimCircularList> = (0..12)
        .map(|_| SimCircularList::new(&mut p, "columns"))
        .collect();
    let tick = p.function("scheduler_tick");
    for ring in &mut rings {
        for k in 0..6 {
            ring.push(&mut p, k).expect("push");
        }
    }
    for i in 0..800usize {
        p.enter(tick);
        let r = i % rings.len();
        rings[r].push(&mut p, i as u64).expect("push");
        rings[r].rotate_free_head(&mut p, plan).expect("rotate");
        p.leave();
    }
    let trace = p.take_trace().map(|mut t| {
        let names: Vec<String> = (0..p.functions().len())
            .map(|i| p.functions().name(FuncId(i as u32)).to_string())
            .collect();
        t.set_functions(names);
        t
    });
    (p.finish("postmortem"), trace)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let settings = Settings::builder().frq(25).build()?;

    // Train a model on clean runs.
    let mut builder = ModelBuilder::new(settings.clone()).program("scheduler");
    for _ in 0..3 {
        builder.add_run(&run(&settings, &mut FaultPlan::new(), false).0);
    }
    let model = builder.build().model;
    let dir = std::env::temp_dir().join("heapmd-postmortem");
    std::fs::create_dir_all(&dir)?;
    model.save(dir.join("model.json"))?;
    println!("model saved ({} stable metrics)", model.stable.len());

    // The deployed run: Figure 12's shared-head bug, traced.
    let mut plan = FaultPlan::single(CLIST_FREE_SHARED_HEAD);
    let (_, trace) = run(&settings, &mut plan, true);
    let trace = trace.expect("tracing enabled");
    trace.save_binary(dir.join("crash.hmdt"))?;
    println!("trace saved: {} events", trace.len());

    // Post-mortem: reload both, replay, report.
    let model = heapmd::HeapModel::load(dir.join("model.json"))?;
    let trace = Trace::load_binary(dir.join("crash.hmdt"))?;
    let bugs = trace.check(&model, &settings)?;
    println!("post-mortem found {} anomalies", bugs.len());
    print!("{}", heapmd::render_verdicts(&bugs[..bugs.len().min(3)]));
    Ok(())
}
