//! Periodic training checkpoints.
//!
//! Model construction consumes one training run at a time, so a long
//! `heapmd train` that dies (OOM-killed, SIGKILLed, power loss) used to
//! lose every run already summarized. A [`TrainCheckpoint`] captures
//! the [`ModelBuilder`]'s complete intermediate state — per-run
//! summaries, the optional locally-stable series, and the index of the
//! next training input — after each metric-computation (summarization)
//! point, written atomically so the file on disk is always a whole,
//! loadable checkpoint.
//!
//! Resuming from a checkpoint and finishing the remaining inputs
//! yields the same model as an uninterrupted run: summaries are pure
//! functions of each run's report, and the builder folds them in input
//! order. The chaos suite asserts this equivalence across a real
//! SIGKILL.

use crate::error::HeapMdError;
use crate::model::{metric_set, ModelBuilder, RunSummary};
use crate::settings::Settings;
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
    /// Whether locally-stable (phase band) modelling is on.
    pub include_local: bool,
    /// Per-run summaries accumulated so far.
    pub runs: Vec<RunSummary>,
    /// Trimmed per-metric series (parallel to `runs`; populated only
    /// when `include_local`).
    pub series: Vec<Option<Vec<Vec<f64>>>>,
    /// Whether the whole candidate family is calibrated, not only the
    /// paper seven. Absent in checkpoints from builds that predate the
    /// candidate family.
    #[serde(default)]
    pub include_candidates: bool,
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

impl TrainCheckpoint {
    /// Structural validation: supported version, internally
    /// consistent run/series bookkeeping, and run summaries that cover
    /// exactly the metric family of the checkpoint's mode.
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
        if self.runs.len() != self.series.len() {
            return Err(HeapMdError::Checkpoint(format!(
                "{} run summaries but {} series entries",
                self.runs.len(),
                self.series.len()
            )));
        }
        let kinds = metric_set(self.include_candidates);
        for run in &self.runs {
            let Some(metrics) = &run.metrics else {
                continue;
            };
            if !metrics.iter().map(|m| m.kind).eq(kinds.iter().copied()) {
                let mode = if self.include_candidates {
                    "candidate"
                } else {
                    "paper"
                };
                return Err(HeapMdError::Checkpoint(format!(
                    "run {} summarizes {} metrics, not the {} of the {mode} family",
                    run.run,
                    metrics.len(),
                    kinds.len()
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
    /// when the container (magic, CRC, framing) or its JSON is damaged,
    /// [`HeapMdError::Checkpoint`] when it parses but fails validation.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        let bytes = std::fs::read(path)?;
        let text = String::from_utf8(crate::trace_codec::decode_meta_container(&bytes)?)
            .map_err(|_| HeapMdError::corrupt(0, "checkpoint payload is not UTF-8"))?;
        let cp: TrainCheckpoint = serde_json::from_str(&text)
            .map_err(|e| HeapMdError::corrupt(0, format!("checkpoint JSON: {e}")))?;
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
            include_local: self.include_local,
            runs: self.runs.clone(),
            series: self.series.clone(),
            include_candidates: self.include_candidates,
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
                include_local: cp.include_local,
                series: cp.series,
                include_candidates: cp.include_candidates,
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
    use heap_graph::{MetricVector, METRIC_COUNT};

    fn report(run: &str, value: f64, n: usize) -> MetricReport {
        let samples = (0..n)
            .map(|i| MetricSample {
                seq: i,
                fn_entries: i as u64,
                tick: i as u64,
                metrics: MetricVector::from_array([value; METRIC_COUNT]),
                nodes: 10,
                edges: 5,
                dangling: 0,
                candidates: None,
            })
            .collect();
        MetricReport::new(run, samples)
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
    fn locally_stable_state_survives_the_checkpoint() {
        let settings = Settings::default();
        let phase = |run: &str| {
            let samples = (0..40)
                .map(|i| MetricSample {
                    seq: i,
                    fn_entries: i as u64,
                    tick: i as u64,
                    metrics: MetricVector::from_array(
                        [if i < 20 { 10.0 } else { 30.0 }; METRIC_COUNT],
                    ),
                    nodes: 10,
                    edges: 5,
                    dangling: 0,
                    candidates: None,
                })
                .collect();
            MetricReport::new(run, samples)
        };
        let mut full = ModelBuilder::new(settings.clone()).locally_stable(true);
        for i in 0..4 {
            full.add_run(&phase(&format!("r{i}")));
        }
        let expected = full.build().model;

        let mut first = ModelBuilder::new(settings).locally_stable(true);
        first.add_run(&phase("r0"));
        first.add_run(&phase("r1"));
        let path = tmp("local.ckpt");
        first.checkpoint(2).save(&path).unwrap();
        let (mut resumed, _) =
            ModelBuilder::from_checkpoint(TrainCheckpoint::load(&path).unwrap()).unwrap();
        resumed.add_run(&phase("r2"));
        resumed.add_run(&phase("r3"));
        let got = resumed.build().model;
        assert_eq!(got.locally_stable, expected.locally_stable);
        assert_eq!(got, expected);
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

        // Inconsistent bookkeeping → Checkpoint error.
        let mut cp = b.checkpoint(0);
        cp.series.push(None);
        assert!(matches!(cp.validate(), Err(HeapMdError::Checkpoint(_))));
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
    fn summaries_outside_the_mode_family_are_refused() {
        let with_candidates = |run: &str| {
            let mut r = report(run, 40.0, 30);
            for s in &mut r.samples {
                s.candidates = Some(heap_graph::CandidateVector::zero());
            }
            r
        };
        let mut paper = ModelBuilder::new(Settings::default());
        paper.add_run(&with_candidates("r0"));
        let mut cand = ModelBuilder::new(Settings::default()).candidate_metrics(true);
        cand.add_run(&with_candidates("r0"));
        assert!(paper.checkpoint(1).validate().is_ok());
        assert!(cand.checkpoint(1).validate().is_ok());

        // A candidate-mode checkpoint whose runs cover only the paper
        // seven (as builds that summarized candidates apart wrote them).
        let mut cp = paper.checkpoint(1);
        cp.include_candidates = true;
        assert!(matches!(cp.validate(), Err(HeapMdError::Checkpoint(_))));
        // And the other way round.
        let mut cp = cand.checkpoint(1);
        cp.include_candidates = false;
        assert!(matches!(
            ModelBuilder::from_checkpoint(cp),
            Err(HeapMdError::Checkpoint(_))
        ));
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
