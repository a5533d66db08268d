//! Determinism gate for parallel training: `train --threads` runs the
//! inputs on `run_many`'s worker pool and adds the reports in input
//! order, and that must be *bit-identical* to the sequential path —
//! same serialized model, same checkpoints — for any thread count.
//! Anything less would make `--threads` change what the detector later
//! flags.

use faults::FaultPlan;
use heapmd::ModelBuilder;
use workloads::harness::{run_many, run_once, settings_for, train};
use workloads::spec::{Gzip, Mcf};
use workloads::{Input, Workload};

/// A builder fed one `run_once` per input, in order.
fn sequential_builder(w: &dyn Workload, inputs: &[Input]) -> ModelBuilder {
    let settings = settings_for(w);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    for input in inputs {
        builder.add_run(&run_once(w, input, &mut FaultPlan::new(), &settings));
    }
    builder
}

/// A builder fed `run_many`'s reports at `threads`, the CLI's path.
fn pooled_builder(w: &dyn Workload, inputs: &[Input], threads: usize) -> ModelBuilder {
    let settings = settings_for(w);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    for report in run_many(w, inputs, &settings, threads) {
        builder.add_run(&report);
    }
    builder
}

/// Serialized model + serialized mid-training checkpoint.
fn artifacts(builder: ModelBuilder, inputs: usize) -> (String, String) {
    let cp =
        serde_json::to_string(&builder.checkpoint(inputs as u64)).expect("checkpoint serializes");
    let model = builder.build().model.to_json().expect("model serializes");
    (model, cp)
}

#[test]
fn parallel_training_is_bit_identical_across_thread_counts() {
    let w = Gzip;
    let inputs = Input::set(6);
    let (seq_model, seq_cp) = artifacts(sequential_builder(&w, &inputs), inputs.len());

    for threads in [1, 2, 8, 64] {
        let (par_model, par_cp) = artifacts(pooled_builder(&w, &inputs, threads), inputs.len());
        assert_eq!(
            seq_model, par_model,
            "serialized model diverged at threads={threads}"
        );
        assert_eq!(
            seq_cp, par_cp,
            "serialized checkpoint diverged at threads={threads}"
        );
    }
}

#[test]
fn pooled_training_outcome_equals_train() {
    let w = Mcf;
    let inputs = Input::set(5);
    let seq = train(&w, &inputs);
    for threads in [2, 8] {
        let par = pooled_builder(&w, &inputs, threads).build();
        assert_eq!(seq, par, "ModelOutcome diverged at threads={threads}");
        assert_eq!(
            seq.model.to_json().unwrap(),
            par.model.to_json().unwrap(),
            "serialized model diverged at threads={threads}"
        );
    }
}

#[test]
fn oversubscribed_threads_are_harmless() {
    let w = Gzip;
    let inputs = Input::set(3);
    let seq = train(&w, &inputs);
    let par = pooled_builder(&w, &inputs, 64).build();
    assert_eq!(seq, par, "threads > inputs must clamp, not diverge");
}
