//! Determinism gate for parallel training: `train` runs the inputs on
//! `run_many`'s worker pool (every core by default, `--threads` caps
//! it) and folds the reports in input order, and that must be
//! *bit-identical* to the sequential path — same serialized model,
//! same checkpoints — for any thread count. Anything less would make
//! the host's core count change what the detector later flags.

use faults::FaultPlan;
use heapmd::{available_workers, ModelBuilder};
use std::convert::Infallible;
use std::path::Path;
use workloads::commercial::{Multimedia, WebApp};
use workloads::harness::{run_many, run_once, settings_for, train};
use workloads::spec::{Gcc, Gzip, Mcf};
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
    let Ok(()) = run_many(w, inputs, &settings, threads, |_, report| {
        builder.add_run(&report);
        Ok::<(), Infallible>(())
    });
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

/// The files `train --checkpoint-every 1` writes on `threads` workers:
/// the model file, and the checkpoint file as cut after each input
/// (read back before the next one overwrites it).
fn train_files(w: &dyn Workload, inputs: &[Input], threads: usize, dir: &Path) -> Vec<Vec<u8>> {
    let settings = settings_for(w);
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    let ckpt = dir.join(format!("{}-{threads}.ckpt", w.name()));
    let mut files = Vec::new();
    run_many(w, inputs, &settings, threads, |i, report| {
        builder.add_run(&report);
        builder.checkpoint(i as u64 + 1).save(&ckpt)?;
        files.push(std::fs::read(&ckpt)?);
        Ok::<(), heapmd::HeapMdError>(())
    })
    .expect("checkpoints write");
    let model = dir.join(format!("{}-{threads}.json", w.name()));
    builder.build().model.save(&model).expect("model writes");
    files.push(std::fs::read(&model).expect("model reads"));
    files
}

#[test]
fn default_worker_training_writes_the_files_one_worker_writes() {
    let dir = std::env::temp_dir().join(format!("heapmd-par-train-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inputs = Input::set(6);
    // At least two workers, so the pool runs off the calling thread
    // even on a one-core host.
    let default = available_workers().get().max(2);
    let programs: [&dyn Workload; 3] = [&Gcc, &WebApp::new(1), &Multimedia::new(1)];
    for w in programs {
        let one = train_files(w, &inputs, 1, &dir);
        let many = train_files(w, &inputs, default, &dir);
        assert_eq!(one.len(), inputs.len() + 1);
        for (k, (a, b)) in one.iter().zip(&many).enumerate() {
            let what = if k < inputs.len() {
                "checkpoint"
            } else {
                "model"
            };
            assert!(
                a == b,
                "{}: {what} {k} differs at {default} workers",
                w.name()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
