//! Periodic training checkpoints.
//!
//! Model construction consumes one training run at a time, so a long
//! `heapmd train` that dies (OOM-killed, SIGKILLed, power loss) used to
//! lose every run already summarized. A [`TrainCheckpoint`] captures
//! the [`ModelBuilder`]'s complete intermediate state — per-run
//! summaries and the index of the next training input — after each
//! metric-computation (summarization) point, written atomically so the
//! file on disk is always a whole, loadable checkpoint.
//!
//! Resuming from a checkpoint and finishing the remaining inputs
//! yields the same model as an uninterrupted run: summaries are pure
//! functions of each run's report, and the builder folds them in input
//! order. The chaos suite asserts this equivalence across a real
//! SIGKILL.

use crate::error::HeapMdError;
use crate::model::{ModelBuilder, RunSummary};
use crate::settings::Settings;
use heap_graph::{MetricKind, METRIC_COUNT};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current checkpoint format version; future-versioned files are
/// rejected on load.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// A resumable snapshot of in-progress model construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Checkpoint format version (see [`CHECKPOINT_FORMAT_VERSION`]).
    #[serde(default)]
    pub version: u32,
    /// The program being modelled.
    pub program: String,
    /// Settings in force during training.
    pub settings: Settings,
    /// Per-run summaries accumulated so far.
    pub runs: Vec<RunSummary>,
    /// Minimum store-sampling rate over the runs summarized so far
    /// (1.0 when every run was exact; absent in legacy checkpoints).
    #[serde(default = "default_checkpoint_sample_rate")]
    pub min_sample_rate: f64,
    /// Index of the next training input to consume on resume.
    pub next_input: u64,
}

fn default_checkpoint_sample_rate() -> f64 {
    1.0
}

/// Switches of retired training modes (`train --local`, `train
/// --metrics candidates`). A checkpoint with one set is refused on
/// load: resuming it would silently train a plainer model.
const RETIRED_SWITCHES: [&str; 2] = ["include_local", "include_candidates"];

impl TrainCheckpoint {
    /// Structural validation: supported version, run summaries that
    /// cover exactly the paper seven, and a resume point not behind
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Checkpoint`] describing the violation.
    pub fn validate(&self) -> Result<(), HeapMdError> {
        if self.version > CHECKPOINT_FORMAT_VERSION {
            return Err(HeapMdError::Checkpoint(format!(
                "checkpoint format version {} is newer than supported {}",
                self.version, CHECKPOINT_FORMAT_VERSION
            )));
        }
        for run in &self.runs {
            let Some(metrics) = &run.metrics else {
                continue;
            };
            if !metrics.iter().map(|m| m.kind).eq(MetricKind::ALL) {
                return Err(HeapMdError::Checkpoint(format!(
                    "run {} summarizes {} metrics, not the {} paper metrics",
                    run.run,
                    metrics.len(),
                    METRIC_COUNT
                )));
            }
        }
        if self.next_input < self.runs.len() as u64 {
            return Err(HeapMdError::Checkpoint(format!(
                "next_input {} is behind the {} runs already summarized",
                self.next_input,
                self.runs.len()
            )));
        }
        Ok(())
    }

    /// Writes the checkpoint atomically (write-to-temp, then rename),
    /// so a crash mid-checkpoint leaves the previous checkpoint intact.
    /// The JSON state rides in the `HMDB1` block container, whose
    /// CRC-32 turns a bit-flipped checkpoint into
    /// [`HeapMdError::Corrupt`] instead of silently wrong state.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        let json = serde_json::to_string(self)?;
        let bytes = crate::trace_codec::encode_meta_container(json.as_bytes());
        crate::persist::write_atomic(path, &bytes)?;
        Ok(())
    }

    /// Reads and validates a checkpoint written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// [`HeapMdError::Io`] when unreadable, [`HeapMdError::Corrupt`]
    /// when the container (magic, CRC, framing) or its JSON is damaged
    /// or it sets a retired training mode's switch,
    /// [`HeapMdError::Checkpoint`] when it parses but fails validation.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        let bytes = std::fs::read(path)?;
        let text = String::from_utf8(crate::trace_codec::decode_meta_container(&bytes)?)
            .map_err(|_| HeapMdError::corrupt(0, "checkpoint payload is not UTF-8"))?;
        let json =
            |e: &dyn std::fmt::Display| HeapMdError::corrupt(0, format!("checkpoint JSON: {e}"));
        let value: serde::Value = serde_json::from_str(&text).map_err(|e| json(&e))?;
        if let Some(key) = RETIRED_SWITCHES
            .into_iter()
            .find(|key| value.get(key).and_then(serde::Value::as_bool) == Some(true))
        {
            return Err(HeapMdError::corrupt(
                0,
                format!("checkpoint sets `{key}`, a training mode this build no longer has"),
            ));
        }
        let cp = <TrainCheckpoint as Deserialize>::from_value(&value).map_err(|e| json(&e))?;
        cp.validate()?;
        Ok(cp)
    }
}

impl ModelBuilder {
    /// Snapshots the builder's state as a checkpoint claiming
    /// `next_input` as the resume point.
    pub fn checkpoint(&self, next_input: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            version: CHECKPOINT_FORMAT_VERSION,
            program: self.program.clone(),
            settings: self.settings.clone(),
            runs: self.runs.clone(),
            min_sample_rate: self.min_sample_rate,
            next_input,
        }
    }

    /// Reconstructs a builder mid-training from a checkpoint, returning
    /// it with the input index to resume at.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Checkpoint`] when the checkpoint fails
    /// [`TrainCheckpoint::validate`], or when its settings would make
    /// the resumed half of training incompatible with the first half.
    pub fn from_checkpoint(cp: TrainCheckpoint) -> Result<(Self, u64), HeapMdError> {
        cp.validate()?;
        cp.settings
            .validate()
            .map_err(|e| HeapMdError::Checkpoint(format!("embedded settings invalid: {e}")))?;
        let next = cp.next_input;
        Ok((
            ModelBuilder {
                settings: cp.settings,
                program: cp.program,
                runs: cp.runs,
                min_sample_rate: if cp.min_sample_rate.is_finite()
                    && cp.min_sample_rate > 0.0
                    && cp.min_sample_rate <= 1.0
                {
                    cp.min_sample_rate
                } else {
                    1.0
                },
            },
            next,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricReport, MetricSample};
    use heap_graph::MetricVector;

    /// Sample `i` with every metric at `value`.
    fn flat_sample(i: usize, value: f64) -> MetricSample {
        MetricSample {
            seq: i,
            fn_entries: i as u64,
            tick: i as u64,
            nodes: 10,
            edges: 5,
            dangling: 0,
            values: MetricVector::from_array([value; METRIC_COUNT]),
        }
    }

    fn report(run: &str, value: f64, n: usize) -> MetricReport {
        MetricReport::new(run, (0..n).map(|i| flat_sample(i, value)).collect())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("heapmd-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn resumed_training_matches_uninterrupted() {
        let settings = Settings::default();
        let reports: Vec<MetricReport> = (0..6)
            .map(|i| report(&format!("r{i}"), 40.0 + i as f64, 30))
            .collect();

        // Uninterrupted run over all six reports.
        let mut full = ModelBuilder::new(settings.clone()).program("demo");
        for r in &reports {
            full.add_run(r);
        }
        let expected = full.build().model;

        // Interrupted: three runs, checkpoint, "crash", resume.
        let mut first = ModelBuilder::new(settings).program("demo");
        for r in &reports[..3] {
            first.add_run(r);
        }
        let path = tmp("resume.ckpt");
        first.checkpoint(3).save(&path).unwrap();
        drop(first);

        let cp = TrainCheckpoint::load(&path).unwrap();
        let (mut resumed, next) = ModelBuilder::from_checkpoint(cp).unwrap();
        assert_eq!(next, 3);
        for r in &reports[next as usize..] {
            resumed.add_run(r);
        }
        assert_eq!(resumed.build().model, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_checkpoints_round_trip_and_detect_bit_flips() {
        let settings = Settings::default();
        let mut b = ModelBuilder::new(settings).program("demo");
        b.add_run(&report("r0", 40.0, 30));
        b.add_run(&report("r1", 41.0, 30));
        let cp = b.checkpoint(2);

        let path = tmp("binary.ckpt");
        cp.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(crate::BINARY_MAGIC));
        assert_eq!(TrainCheckpoint::load(&path).unwrap(), cp);

        // Any single corrupted byte in the payload is caught by the
        // container CRC — bare JSON would parse a flipped digit into
        // silently wrong state, so it is refused outright.
        let mut damaged = bytes.clone();
        damaged[bytes.len() / 2] ^= 0x08;
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(HeapMdError::Corrupt { .. })
        ));
        std::fs::write(&path, serde_json::to_string(&cp).unwrap()).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(HeapMdError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_checkpoints_yield_typed_errors() {
        let b = ModelBuilder::new(Settings::default());
        let path = tmp("damage.ckpt");
        b.checkpoint(0).save(&path).unwrap();

        // Truncate the file: parse failure → Corrupt.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(HeapMdError::Corrupt { .. })
        ));

        // Future version → Checkpoint error.
        let mut cp = b.checkpoint(0);
        cp.version = CHECKPOINT_FORMAT_VERSION + 1;
        cp.save(&path).unwrap();
        assert!(matches!(
            TrainCheckpoint::load(&path),
            Err(HeapMdError::Checkpoint(_))
        ));

        let cp = b.checkpoint(5);
        assert!(cp.validate().is_ok(), "skipped inputs are legal");

        // Missing file → Io.
        assert!(matches!(
            TrainCheckpoint::load(tmp("nonexistent.ckpt")),
            Err(HeapMdError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summaries_of_other_metrics_are_refused() {
        let mut b = ModelBuilder::new(Settings::default());
        b.add_run(&report("r0", 40.0, 30));
        let cp = b.checkpoint(1);
        assert!(cp.validate().is_ok());
        let mut short = cp.clone();
        short.runs[0].metrics.as_mut().unwrap().pop();
        assert!(matches!(short.validate(), Err(HeapMdError::Checkpoint(_))));
    }

    #[test]
    fn retired_training_modes_are_refused_by_name() {
        let mut b = ModelBuilder::new(Settings::default());
        b.add_run(&report("r0", 40.0, 30));
        let json = serde_json::to_string(&b.checkpoint(1)).unwrap();
        let path = tmp("retired.ckpt");
        for key in RETIRED_SWITCHES {
            for (set, refused) in [(false, false), (true, true)] {
                let with = json.replacen('{', &format!("{{\"{key}\":{set},"), 1);
                let bytes = crate::trace_codec::encode_meta_container(with.as_bytes());
                std::fs::write(&path, bytes).unwrap();
                match TrainCheckpoint::load(&path) {
                    Err(HeapMdError::Corrupt { reason, .. }) if refused => {
                        assert!(reason.contains(key), "{reason}")
                    }
                    Ok(cp) if !refused => assert_eq!(cp, b.checkpoint(1)),
                    other => panic!("{key}: {set}: {other:?}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn next_input_behind_runs_is_rejected() {
        let settings = Settings::default();
        let mut b = ModelBuilder::new(settings);
        b.add_run(&report("r0", 10.0, 30));
        b.add_run(&report("r1", 10.0, 30));
        assert!(matches!(
            b.checkpoint(1).validate(),
            Err(HeapMdError::Checkpoint(_))
        ));
    }
}
