//! Determinism: the whole pipeline is reproducible — same input, same
//! events, same samples, same detections. (The experiments depend on
//! this: trained models and archived results must be regenerable.)

use faults::{FaultConfig, FaultPlan};
use heapmd::Process;
use sim_ds::fault_ids::DLIST_SKIP_PREV;
use workloads::harness::{run_once, settings_for};
use workloads::{commercial_at_version, Input};

#[test]
fn clean_runs_are_bit_identical() {
    for name in ["gzip", "multimedia"] {
        let w = commercial_at_version("multimedia", 1); // placeholder binding
        let w = if name == "gzip" {
            Box::new(workloads::spec::Gzip) as Box<dyn workloads::Workload>
        } else {
            w
        };
        let settings = settings_for(w.as_ref());
        let a = run_once(w.as_ref(), &Input::new(3), &mut FaultPlan::new(), &settings);
        let b = run_once(w.as_ref(), &Input::new(3), &mut FaultPlan::new(), &settings);
        assert_eq!(a.samples, b.samples, "{name} is nondeterministic");
    }
}

#[test]
fn buggy_runs_are_reproducible_too() {
    let w = commercial_at_version("game_action", 1);
    let settings = settings_for(w.as_ref());
    let plan = || {
        let mut p = FaultPlan::new();
        p.enable(DLIST_SKIP_PREV, FaultConfig::every(4).after(10));
        p
    };
    let a = run_once(w.as_ref(), &Input::new(9), &mut plan(), &settings);
    let b = run_once(w.as_ref(), &Input::new(9), &mut plan(), &settings);
    assert_eq!(a.samples, b.samples);
}

/// Two recordings of one run are the same bytes: no structure's event
/// order depends on a per-process hash seed (webapp's trees read every
/// node in key-table order).
#[test]
fn recordings_are_byte_identical() {
    let record = || {
        let w = commercial_at_version("webapp", 1);
        let mut p = Process::new(settings_for(w.as_ref()));
        p.enable_trace();
        w.run(&mut p, &mut FaultPlan::new(), &Input::new(3))
            .unwrap();
        p.take_trace().unwrap().encode_binary()
    };
    assert!(record() == record(), "webapp input 3 records differently");
}

#[test]
fn different_inputs_differ_and_versions_share_shape() {
    let w = commercial_at_version("productivity", 1);
    let settings = settings_for(w.as_ref());
    let a = run_once(w.as_ref(), &Input::new(0), &mut FaultPlan::new(), &settings);
    let b = run_once(w.as_ref(), &Input::new(1), &mut FaultPlan::new(), &settings);
    assert_ne!(a.samples, b.samples, "inputs must induce different heaps");

    // Versions: same structure mix, slightly larger heaps.
    let v5 = commercial_at_version("productivity", 5);
    let c = run_once(
        v5.as_ref(),
        &Input::new(0),
        &mut FaultPlan::new(),
        &settings,
    );
    let mid_a = &a.samples[a.len() / 2];
    let mid_c = &c.samples[c.len() / 2];
    assert!(mid_c.nodes >= mid_a.nodes, "v5 should not shrink the heap");
    // Metric profile stays recognisably the same (within a few points).
    for (kind, v) in mid_a.metrics.iter() {
        let d = (v - mid_c.metrics.get(kind)).abs();
        assert!(d < 12.0, "{kind} drifted {d:.1} points between versions");
    }
}
