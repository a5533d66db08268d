//! Cross-version checking: the paper's `input*.exe` flow.
//!
//! Trains a model on version 1 of the PC action game, then checks
//! later development versions against it — clean versions stay within
//! the calibrated ranges (Figure 7B's point), and version 4 with the
//! Figure 10 scene-tree bug is caught by the *old* model.
//!
//! Run with `cargo run --release --example version_regression`.

use faults::FaultPlan;
use workloads::bugs::CATALOG;
use workloads::harness::{check, train};
use workloads::{commercial_at_version, Input};

fn main() {
    let v1 = commercial_at_version("game_action", 1);
    println!("Training on game_action v1 (8 inputs)…");
    let model = train(v1.as_ref(), &Input::set(8)).model;
    for sm in model.stable_metrics() {
        println!(
            "  stable {:<9} [{:6.2}, {:6.2}]",
            sm.kind.short_name(),
            sm.min,
            sm.max
        );
    }

    for version in 2..=5 {
        let w = commercial_at_version("game_action", version);
        let bugs = check(w.as_ref(), &model, &Input::new(42), &mut FaultPlan::new());
        println!("v{version} clean: {} anomalies", bugs.len());
    }

    let spec = CATALOG
        .iter()
        .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
        .expect("catalogued");
    let w = commercial_at_version("game_action", 4);
    let bugs = check(w.as_ref(), &model, &Input::new(42), &mut spec.plan());
    println!("v4 with the Figure 10 bug: {} anomalies", bugs.len());
    if let Some(b) = bugs.first() {
        println!("  {b}");
    }
}
