//! The metric summarizer and the heap-behaviour model (paper §2.1).

use crate::error::HeapMdError;
use crate::fluctuation::FluctuationStats;
use crate::phase_model::{merge_ranges, segment, LocalMetric, Plateau};
use crate::report::MetricReport;
use crate::settings::Settings;
use crate::stability::{classify, StabilityClass};
use heap_graph::{CandidateKind, MetricKind, METRIC_COUNT};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The metric family a builder calibrates: the paper seven, or the
/// whole candidate family (`train --metrics candidates`), whose first
/// seven members are the paper seven.
pub(crate) fn metric_set(candidates: bool) -> &'static [CandidateKind] {
    if candidates {
        &CandidateKind::ALL
    } else {
        &CandidateKind::ALL[..METRIC_COUNT]
    }
}

/// Per-run, per-metric analysis produced while summarizing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// The metric analysed.
    pub kind: CandidateKind,
    /// Fluctuation statistics over the trimmed samples.
    pub stats: FluctuationStats,
    /// Stability classification for this run.
    pub class: StabilityClass,
    /// Minimum value over the trimmed samples.
    pub min: f64,
    /// Maximum value over the trimmed samples.
    pub max: f64,
}

/// One run's summaries, one entry per metric of the builder's family
/// in canonical order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The run label.
    pub run: String,
    /// Per-metric summaries (canonical metric order), or `None` when the
    /// run was too short to analyse after trimming, or its samples lack
    /// a metric of the family.
    pub metrics: Option<Vec<MetricSummary>>,
    /// Metric computation points in the run, before trimming: sizes
    /// the leading trim the built model records as its warm-up.
    #[serde(default)]
    pub samples: usize,
}

/// One globally stable metric's calibrated model entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StableMetric {
    /// The metric.
    pub kind: CandidateKind,
    /// Minimum observed across **all** training inputs (§2.2: "the
    /// minimum and maximum values these metrics attained across all
    /// the training inputs") — the calibrated lower bound.
    pub min: f64,
    /// Maximum observed across all training inputs — the calibrated
    /// upper bound.
    pub max: f64,
    /// Mean per-step % change averaged across the stable runs (the
    /// "Avg. % rate of change" column of the paper's Figure 7).
    pub avg_change: f64,
    /// Standard deviation of change averaged across the stable runs (the
    /// "Std. Dev." column of Figure 7).
    pub std_change: f64,
    /// Number of training runs on which the metric was stable.
    pub stable_runs: usize,
    /// Total training runs.
    pub total_runs: usize,
}

impl StableMetric {
    /// Width of the calibrated range.
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Returns `true` when `value` lies within the calibrated range.
    pub fn contains(&self, value: f64) -> bool {
        (self.min..=self.max).contains(&value)
    }
}

/// Current on-disk model format version, stamped into every model this
/// build produces. Files without a `version` field (written by older
/// builds) parse as version 0 and are accepted; files from a *newer*
/// format are rejected by [`HeapModel::validate`].
///
/// Version history: 1 added the id-keyed candidate family; 2 added the
/// calibration-time store-sampling rate (older files default to 1.0).
pub const MODEL_FORMAT_VERSION: u32 = 2;

/// Keys of the separate candidate block that builds before the one
/// metric family wrote. Every model still carries them, empty, so
/// paper-mode files keep their bytes; a file with a non-empty one is
/// refused, since loading it without that block would silently check
/// only the paper seven.
const RETIRED_KEYS: [&str; 2] = ["candidate_stable", "candidate_unstable"];

/// Extra slack added to **each side** of a calibrated `[min, max]`
/// range when the observed stream was store-sampled at `rate`: with
/// only a `rate` fraction of pointer stores reaching the heap graph,
/// connectivity metrics wobble by roughly `1/sqrt(rate)`, so the band
/// widens proportionally to the range width (floored at 1 percentage
/// point so degenerate flat ranges still get slack).
///
/// Exactly `0.0` at `rate >= 1.0`, which keeps unsampled verdicts
/// bit-identical to pre-sampling builds.
pub fn sampling_widen(width: f64, rate: f64) -> f64 {
    // A NaN rate widens nothing, like a full one.
    if rate >= 1.0 || rate.is_nan() {
        return 0.0;
    }
    let r = rate.clamp(1e-6, 1.0);
    width.max(1.0) * 0.5 * (1.0 / r.sqrt() - 1.0)
}

/// The summarized metric report: HeapMD's model of correct heap
/// behaviour for one program.
///
/// Serializable, so a model trained once can check many later runs or
/// program versions — the paper's `input*.exe` flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeapModel {
    /// On-disk format version (see [`MODEL_FORMAT_VERSION`]).
    #[serde(default)]
    pub version: u32,
    /// The program the model was calibrated for.
    pub program: String,
    /// Settings used during calibration. `warmup_samples` is the
    /// start-up skip every check of this model applies (see
    /// [`ModelBuilder::build`]).
    pub settings: Settings,
    /// Globally stable metrics with their calibrated ranges, in
    /// canonical metric order: paper metrics only, or candidates too
    /// when the model was built with [`ModelBuilder::candidate_metrics`].
    pub stable: Vec<StableMetric>,
    /// Metrics that were globally stable on *zero* training runs. The
    /// paper ones are the "normally unstable" metrics whose unexpected
    /// stability during checking flags a pathological bug (§4.1).
    pub unstable: Vec<CandidateKind>,
    /// Locally stable metrics with their calibrated phase bands —
    /// present when the model was built with
    /// [`ModelBuilder::locally_stable`] (the paper's §2.1 extension).
    #[serde(default)]
    pub locally_stable: Vec<LocalMetric>,
    /// The lowest effective store-sampling rate among the training
    /// runs, in `(0, 1]`. `1.0` (the default for pre-v2 artifacts)
    /// means every training run observed every store; lower values mean
    /// the calibrated ranges were themselves measured under sampling
    /// and checking must widen accordingly (see [`sampling_widen`]).
    #[serde(default = "default_model_sample_rate")]
    pub sample_rate: f64,
    /// Number of training runs consumed.
    pub training_runs: usize,
}

fn default_model_sample_rate() -> f64 {
    1.0
}

impl HeapModel {
    /// The calibrated entry for `kind`, if it is globally stable.
    pub fn stable_metric(&self, kind: impl Into<CandidateKind>) -> Option<&StableMetric> {
        let kind = kind.into();
        self.stable.iter().find(|m| m.kind == kind)
    }

    /// Returns `true` when `kind` was identified as globally stable.
    pub fn is_stable(&self, kind: impl Into<CandidateKind>) -> bool {
        self.stable_metric(kind).is_some()
    }

    /// All stable metrics.
    pub fn stable_metrics(&self) -> &[StableMetric] {
        &self.stable
    }

    /// Serializes the model to pretty JSON, with the retired candidate
    /// keys written empty after `locally_stable`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Serde`] on serialization failure.
    pub fn to_json(&self) -> Result<String, HeapMdError> {
        let mut value = serde::Serialize::to_value(self);
        if let serde::Value::Object(fields) = &mut value {
            let at = fields
                .iter()
                .position(|(k, _)| k == "locally_stable")
                .map_or(fields.len(), |i| i + 1);
            for (i, key) in RETIRED_KEYS.iter().enumerate() {
                fields.insert(at + i, (key.to_string(), serde::Value::Array(Vec::new())));
            }
        }
        Ok(serde_json::to_string_pretty(&value)?)
    }

    /// Parses and validates a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`] on malformed JSON, on a model
    /// whose retired candidate keys are not empty, or on a model that
    /// fails [`validate`](Self::validate).
    pub fn from_json(json: &str) -> Result<Self, HeapMdError> {
        let value: serde::Value = serde_json::from_str(json)
            .map_err(|e| HeapMdError::corrupt(0, format!("model JSON: {e}")))?;
        for key in RETIRED_KEYS {
            match value.get(key) {
                None => {}
                Some(serde::Value::Array(a)) if a.is_empty() => {}
                Some(_) => {
                    return Err(HeapMdError::corrupt(
                        0,
                        format!(
                            "model carries a non-empty `{key}` from a build that checked \
                             candidates apart from the paper metrics; retrain it with \
                             `train --metrics candidates`"
                        ),
                    ))
                }
            }
        }
        let model = <HeapModel as serde::Deserialize>::from_value(&value)
            .map_err(|e| HeapMdError::corrupt(0, format!("model JSON: {e}")))?;
        model.validate()?;
        Ok(model)
    }

    /// Structural validation of a deserialized model: version within
    /// the supported range, finite ordered `[min, max]` bounds, sane
    /// change statistics, and consistent run counts. `load` and
    /// `from_json` call this so a damaged or hand-edited model surfaces
    /// as a typed [`HeapMdError::Corrupt`] instead of a panic (or a
    /// silent nonsense detector) downstream.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Corrupt`] describing the first violation.
    pub fn validate(&self) -> Result<(), HeapMdError> {
        if self.version > MODEL_FORMAT_VERSION {
            return Err(HeapMdError::corrupt(
                0,
                format!(
                    "model format version {} is newer than supported {}",
                    self.version, MODEL_FORMAT_VERSION
                ),
            ));
        }
        for sm in &self.stable {
            if !sm.min.is_finite() || !sm.max.is_finite() {
                return Err(HeapMdError::corrupt(
                    0,
                    format!("stable metric {} has non-finite bounds", sm.kind),
                ));
            }
            if sm.min > sm.max {
                return Err(HeapMdError::corrupt(
                    0,
                    format!(
                        "stable metric {} has min {} > max {}",
                        sm.kind, sm.min, sm.max
                    ),
                ));
            }
            if !sm.std_change.is_finite() || sm.std_change < 0.0 {
                return Err(HeapMdError::corrupt(
                    0,
                    format!("stable metric {} has invalid std_change", sm.kind),
                ));
            }
            if sm.stable_runs > sm.total_runs {
                return Err(HeapMdError::corrupt(
                    0,
                    format!(
                        "stable metric {} claims {} stable of {} total runs",
                        sm.kind, sm.stable_runs, sm.total_runs
                    ),
                ));
            }
        }
        for lm in &self.locally_stable {
            for &(lo, hi) in &lm.ranges {
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(HeapMdError::corrupt(
                        0,
                        format!("locally stable metric {} has invalid band", lm.kind),
                    ));
                }
            }
        }
        if !self.sample_rate.is_finite() || self.sample_rate <= 0.0 || self.sample_rate > 1.0 {
            return Err(HeapMdError::corrupt(
                0,
                format!("model sample_rate {} is outside (0, 1]", self.sample_rate),
            ));
        }
        Ok(())
    }

    /// Writes the model to a file as JSON, atomically: the bytes land
    /// in a temporary sibling which is then renamed over `path`, so a
    /// crash mid-save can never leave a truncated model behind.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] / [`HeapMdError::Serde`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HeapMdError> {
        crate::persist::write_atomic(path, self.to_json()?.as_bytes())?;
        Ok(())
    }

    /// Reads and validates a model previously written by
    /// [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] when the file cannot be read and
    /// [`HeapMdError::Corrupt`] when it parses or validates badly.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, HeapMdError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

/// Result of model construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOutcome {
    /// The calibrated model.
    pub model: HeapModel,
    /// Per-run summaries (for inspection, tables, and plots).
    pub runs: Vec<RunSummary>,
    /// Training runs on which a globally stable metric fell outside the
    /// range calibrated from the stable runs. The paper treats such
    /// training inputs as themselves buggy.
    pub flagged_runs: Vec<String>,
}

/// The metric summarizer: consumes per-run [`MetricReport`]s and builds
/// a [`HeapModel`].
///
/// # Example
///
/// ```
/// use heapmd::{MetricKind, ModelBuilder, Process, Settings};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let settings = Settings::builder().frq(5).build()?;
/// let mut b = ModelBuilder::new(settings.clone());
/// for _ in 0..3 {
///     let mut p = Process::new(settings.clone());
///     let (work, leafy) = (p.function("work"), p.site("leafy"));
///     for _ in 0..200 {
///         p.enter(work);
///         p.malloc(16, leafy)?;
///         p.leave();
///     }
///     b.add_run(&p.finish("run"));
/// }
/// let out = b.build();
/// // A heap of isolated objects: Leaves is trivially stable at 100 %.
/// assert!(out.model.is_stable(MetricKind::Leaves));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    pub(crate) settings: Settings,
    pub(crate) program: String,
    pub(crate) runs: Vec<RunSummary>,
    pub(crate) include_local: bool,
    /// Trimmed per-metric series, kept only when local modelling is on.
    pub(crate) series: Vec<Option<Vec<Vec<f64>>>>,
    /// Calibrate the whole candidate family, not only the paper seven.
    pub(crate) include_candidates: bool,
    /// Lowest store-sampling rate among the added runs (1.0 until a
    /// sampled report arrives); stamped into the built model.
    pub(crate) min_sample_rate: f64,
}

impl ModelBuilder {
    /// Creates a builder with the given settings.
    pub fn new(settings: Settings) -> Self {
        ModelBuilder {
            settings,
            program: String::from("unnamed"),
            runs: Vec::new(),
            include_local: false,
            series: Vec::new(),
            include_candidates: false,
            min_sample_rate: 1.0,
        }
    }

    /// Also model *locally stable* metrics (per-phase plateau bands),
    /// the extension the paper announces in §2.1. Call before adding
    /// runs.
    pub fn locally_stable(mut self, enable: bool) -> Self {
        self.include_local = enable;
        self
    }

    /// Calibrate the whole candidate family (the `--metrics
    /// candidates` mode), not only the paper seven: every member goes
    /// through the same stability filter and, when it calibrates,
    /// becomes a [`StableMetric`]. The paper seven calibrate the same
    /// either way. Call before adding runs.
    pub fn candidate_metrics(mut self, enable: bool) -> Self {
        self.include_candidates = enable;
        self
    }

    /// Names the program being modelled (recorded in the model).
    pub fn program(mut self, name: impl Into<String>) -> Self {
        self.program = name.into();
        self
    }

    /// Summarizes one training run and adds it to the pool.
    pub fn add_run(&mut self, report: &MetricReport) -> &mut Self {
        if report.sample_rate.is_finite() && report.sample_rate > 0.0 {
            self.min_sample_rate = self.min_sample_rate.min(report.sample_rate);
        }
        let summary = summarize_run(report, &self.settings, metric_set(self.include_candidates));
        self.series
            .push(if self.include_local && summary.metrics.is_some() {
                Some(
                    MetricKind::ALL
                        .iter()
                        .map(|&k| report.trimmed_series(k, &self.settings))
                        .collect(),
                )
            } else {
                None
            });
        self.runs.push(summary);
        self
    }

    /// Summarizes `reports` on up to `threads` scoped worker threads and
    /// adds them to the pool in input order.
    ///
    /// Deterministic by construction: [`summarize_run`] is a pure
    /// function of `(report, settings)`, each worker writes its results
    /// into slots addressed by input index, and the pool is appended in
    /// index order afterwards — so the builder state (and any model or
    /// checkpoint derived from it) is bit-identical to calling
    /// [`add_run`](Self::add_run) sequentially, whatever `threads` is.
    ///
    /// Reports per-stage throughput and thread utilization through
    /// `heapmd-obs` (`model_train_summarize` stage).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread (as the sequential
    /// path would).
    pub fn add_runs_parallel(&mut self, reports: &[MetricReport], threads: usize) -> &mut Self {
        let workers = threads.max(1).min(reports.len());
        if workers <= 1 {
            for report in reports {
                self.add_run(report);
            }
            return self;
        }
        let clock = heapmd_obs::throughput::stage_clock();
        let settings = &self.settings;
        let include_local = self.include_local;
        let kinds = metric_set(self.include_candidates);
        type Summarized = Option<(RunSummary, Option<Vec<Vec<f64>>>)>;
        let mut results: Vec<Summarized> = vec![None; reports.len()];
        let chunk = reports.len().div_ceil(workers);
        let busy: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = results
                .chunks_mut(chunk)
                .zip(reports.chunks(chunk))
                .map(|(slots, part)| {
                    scope.spawn(move || {
                        let t0 = std::time::Instant::now();
                        for (slot, report) in slots.iter_mut().zip(part) {
                            let summary = summarize_run(report, settings, kinds);
                            let series = if include_local && summary.metrics.is_some() {
                                Some(
                                    MetricKind::ALL
                                        .iter()
                                        .map(|&k| report.trimmed_series(k, settings))
                                        .collect(),
                                )
                            } else {
                                None
                            };
                            *slot = Some((summary, series));
                        }
                        t0.elapsed().as_nanos() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("summarize worker panicked"))
                .collect()
        });
        for report in reports {
            if report.sample_rate.is_finite() && report.sample_rate > 0.0 {
                self.min_sample_rate = self.min_sample_rate.min(report.sample_rate);
            }
        }
        for result in results {
            let (summary, series) = result.expect("every slot filled");
            self.series.push(series);
            self.runs.push(summary);
        }
        if let Some(t0) = clock {
            let wall = (t0.elapsed().as_nanos() as u64).max(1);
            heapmd_obs::throughput::record_stage(
                "model_train_summarize",
                reports.len() as u64,
                wall,
            );
            heapmd_obs::gauge_set!("model_train_threads", workers as i64);
            let busy_total: u64 = busy.iter().sum();
            heapmd_obs::gauge_set!(
                "model_train_thread_utilization_pct",
                (busy_total.saturating_mul(100)) / (wall * workers as u64)
            );
        }
        self
    }

    /// Number of runs added so far.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Identifies globally stable metrics and calibrates their ranges.
    ///
    /// A metric is globally stable when it classified as
    /// [`StabilityClass::GloballyStable`] on at least
    /// `stable_input_frac` of the training runs (and at least one).
    /// Per the paper's §2.2, the calibrated `[min, max]` spans **all**
    /// training inputs; training runs straying outside the envelope of
    /// the *stable* runs are additionally flagged as suspect (§4.1).
    ///
    /// The model's `settings.warmup_samples` is the larger of the
    /// configured value and the largest leading trim
    /// ([`Settings::trim_count`]) of the runs calibrated on.
    pub fn build(&self) -> ModelOutcome {
        let _span = heapmd_obs::span!("model_build");
        let analysable: Vec<&RunSummary> =
            self.runs.iter().filter(|r| r.metrics.is_some()).collect();
        let total = analysable.len();
        let needed = ((total as f64) * self.settings.stable_input_frac).ceil() as usize;
        let needed = needed.max(1);

        let mut stable = Vec::new();
        let mut stable_envelopes: Vec<(usize, f64, f64)> = Vec::new();
        let mut never_stable = Vec::new();
        for (idx, &kind) in metric_set(self.include_candidates).iter().enumerate() {
            if total == 0 {
                break;
            }
            let per_run: Vec<&MetricSummary> = analysable
                .iter()
                .map(|r| &r.metrics.as_ref().expect("filtered")[idx])
                .collect();
            let stable_runs: Vec<&&MetricSummary> = per_run
                .iter()
                .filter(|m| m.class == StabilityClass::GloballyStable)
                .collect();
            if stable_runs.is_empty() {
                never_stable.push(kind);
                continue;
            }
            if stable_runs.len() < needed {
                continue;
            }
            // Range across all training inputs; change statistics from
            // the stable runs (Figure 7's Avg./Std. columns).
            let min = per_run.iter().map(|m| m.min).fold(f64::INFINITY, f64::min);
            let max = per_run
                .iter()
                .map(|m| m.max)
                .fold(f64::NEG_INFINITY, f64::max);
            let stable_min = stable_runs
                .iter()
                .map(|m| m.min)
                .fold(f64::INFINITY, f64::min);
            let stable_max = stable_runs
                .iter()
                .map(|m| m.max)
                .fold(f64::NEG_INFINITY, f64::max);
            stable_envelopes.push((idx, stable_min, stable_max));
            let avg_change =
                stable_runs.iter().map(|m| m.stats.mean).sum::<f64>() / stable_runs.len() as f64;
            let std_change =
                stable_runs.iter().map(|m| m.stats.std_dev).sum::<f64>() / stable_runs.len() as f64;
            stable.push(StableMetric {
                kind,
                min,
                max,
                avg_change,
                std_change,
                stable_runs: stable_runs.len(),
                total_runs: total,
            });
        }

        // Flag training runs whose values stray outside the envelope of
        // the *stable* runs (plus the checking slack): the paper treats
        // such training inputs as suspect (§4.1). Diagnostic only — the
        // calibrated range above already covers them.
        let margin = self.settings.range_margin;
        let mut flagged = Vec::new();
        for run in &analysable {
            let metrics = run.metrics.as_ref().expect("filtered");
            let violates = stable_envelopes.iter().any(|&(idx, lo, hi)| {
                let m = &metrics[idx];
                m.min < lo - margin || m.max > hi + margin
            });
            if violates {
                flagged.push(run.run.clone());
            }
        }

        // The §2.1 extension: phase bands for metrics that are locally
        // (but not globally) stable on enough runs.
        let locally_stable = if self.include_local {
            self.build_local(&stable, needed)
        } else {
            Vec::new()
        };

        // The warm-up every checker skips: at least the leading trim
        // calibration applied to any run it learned from, so no check
        // enforces ranges on start-up points training never saw. Known
        // before the checked run's length, so online and post-mortem
        // checks skip the same points.
        let mut settings = self.settings.clone();
        settings.warmup_samples = analysable
            .iter()
            .map(|r| self.settings.trim_count(r.samples))
            .fold(settings.warmup_samples, usize::max);

        ModelOutcome {
            model: HeapModel {
                version: MODEL_FORMAT_VERSION,
                program: self.program.clone(),
                settings,
                stable,
                unstable: never_stable,
                locally_stable,
                sample_rate: self.min_sample_rate,
                training_runs: total,
            },
            runs: self.runs.clone(),
            flagged_runs: flagged,
        }
    }

    fn build_local(&self, stable: &[StableMetric], needed: usize) -> Vec<LocalMetric> {
        let mut out = Vec::new();
        let analysable: Vec<(usize, &RunSummary)> = self
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.metrics.is_some())
            .collect();
        let total = analysable.len();
        for kind in MetricKind::ALL {
            if stable.iter().any(|sm| sm.kind == kind) {
                continue; // already globally modelled
            }
            let idx = kind.index();
            let local_runs: Vec<usize> = analysable
                .iter()
                .filter(|(_, r)| {
                    r.metrics.as_ref().expect("filtered")[idx]
                        .class
                        .is_locally_stable()
                })
                .map(|&(i, _)| i)
                .collect();
            if local_runs.len() < needed || local_runs.is_empty() {
                continue;
            }
            let spike = self.settings.std_change_threshold;
            let mut plateaus: Vec<Plateau> = Vec::new();
            for &run_idx in &local_runs {
                if let Some(series) = &self.series[run_idx] {
                    plateaus.extend(segment(&series[idx], spike, 3));
                }
            }
            if plateaus.is_empty() {
                continue;
            }
            let gap = self.settings.range_margin.max(0.5);
            out.push(LocalMetric {
                kind,
                ranges: merge_ranges(&plateaus, gap),
                stable_runs: local_runs.len(),
                total_runs: total,
            });
        }
        out
    }
}

/// Summarizes one run over the metric family `kinds`: trims
/// startup/shutdown, computes fluctuation statistics, and classifies
/// each metric. A run whose trimmed samples lack a member of `kinds`
/// (an extended candidate on a sample that never computed the widened
/// family) is not analysable: a partial series would calibrate from a
/// biased slice of the run.
pub(crate) fn summarize_run(
    report: &MetricReport,
    settings: &Settings,
    kinds: &[CandidateKind],
) -> RunSummary {
    let trimmed = report.trimmed(settings);
    let metrics = if trimmed.len() < settings.min_samples {
        None
    } else {
        kinds
            .iter()
            .map(|&kind| {
                let series: Vec<f64> = trimmed
                    .iter()
                    .map(|s| s.candidate(kind))
                    .collect::<Option<_>>()?;
                let stats = FluctuationStats::from_series(&series);
                let class = classify(&stats, settings);
                let min = series.iter().copied().fold(f64::INFINITY, f64::min);
                let max = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                Some(MetricSummary {
                    kind,
                    stats,
                    class,
                    min,
                    max,
                })
            })
            .collect()
    };
    RunSummary {
        run: report.run.clone(),
        metrics,
        samples: report.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetricSample;
    use heap_graph::{MetricVector, METRIC_COUNT};

    fn flat_report(run: &str, value: f64, n: usize) -> MetricReport {
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

    fn noisy_report(run: &str, n: usize) -> MetricReport {
        let samples = (0..n)
            .map(|i| {
                let v = if i % 2 == 0 { 10.0 } else { 30.0 };
                MetricSample {
                    seq: i,
                    fn_entries: i as u64,
                    tick: i as u64,
                    metrics: MetricVector::from_array([v; METRIC_COUNT]),
                    nodes: 10,
                    edges: 5,
                    dangling: 0,
                    candidates: None,
                }
            })
            .collect();
        MetricReport::new(run, samples)
    }

    fn settings() -> Settings {
        Settings::default()
    }

    #[test]
    fn all_stable_runs_calibrate_every_metric() {
        let mut b = ModelBuilder::new(settings());
        for i in 0..5 {
            b.add_run(&flat_report(&format!("r{i}"), 40.0 + i as f64, 30));
        }
        let out = b.build();
        assert_eq!(out.model.stable.len(), METRIC_COUNT);
        let sm = out.model.stable_metric(MetricKind::Roots).unwrap();
        assert_eq!(sm.min, 40.0);
        assert_eq!(sm.max, 44.0);
        assert_eq!(sm.stable_runs, 5);
        assert_eq!(sm.total_runs, 5);
        assert!(out.flagged_runs.is_empty());
    }

    #[test]
    fn unstable_runs_produce_no_stable_metrics() {
        let mut b = ModelBuilder::new(settings());
        for i in 0..5 {
            b.add_run(&noisy_report(&format!("r{i}"), 30));
        }
        let out = b.build();
        assert!(out.model.stable.is_empty());
    }

    #[test]
    fn forty_percent_rule() {
        // 2 stable of 5 runs = 40% → exactly meets the threshold.
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("s1", 50.0, 30));
        b.add_run(&flat_report("s2", 52.0, 30));
        for i in 0..3 {
            b.add_run(&noisy_report(&format!("n{i}"), 30));
        }
        let out = b.build();
        assert!(out.model.is_stable(MetricKind::Leaves));
        let sm = out.model.stable_metric(MetricKind::Leaves).unwrap();
        assert_eq!(sm.stable_runs, 2);
        // Range spans all training inputs (§2.2): the noisy runs swing
        // between 10 and 30, the stable ones between 50 and 52.
        assert_eq!((sm.min, sm.max), (10.0, 52.0));
        // The noisy runs violate the stable runs' [50, 52] envelope →
        // flagged as suspect training inputs.
        assert_eq!(out.flagged_runs.len(), 3);

        // 1 stable of 5 runs = 20% → below the threshold.
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("s1", 50.0, 30));
        for i in 0..4 {
            b.add_run(&noisy_report(&format!("n{i}"), 30));
        }
        assert!(b.build().model.stable.is_empty());
    }

    #[test]
    fn short_runs_are_excluded_from_analysis() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("tiny", 10.0, 3)); // below min_samples after trim
        b.add_run(&flat_report("ok", 10.0, 30));
        let out = b.build();
        assert_eq!(out.model.training_runs, 1);
        assert!(out.model.is_stable(MetricKind::Roots));
        assert_eq!(out.runs.len(), 2);
        assert!(out.runs[0].metrics.is_none());
    }

    #[test]
    fn model_json_round_trip() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let model = b.build().model;
        let json = model.to_json().unwrap();
        let back = HeapModel::from_json(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn model_save_load_round_trip() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let model = b.program("demo").build().model;
        let dir = std::env::temp_dir().join("heapmd-model-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let back = HeapModel::load(&path).unwrap();
        assert_eq!(model, back);
        assert_eq!(back.program, "demo");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corrupt_and_future_models() {
        use crate::error::HeapMdError;
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let model = b.build().model;
        assert_eq!(model.version, MODEL_FORMAT_VERSION);
        model.validate().unwrap();

        // Future format version.
        let mut future = model.clone();
        future.version = MODEL_FORMAT_VERSION + 7;
        let json = future.to_json().unwrap();
        assert!(matches!(
            HeapModel::from_json(&json),
            Err(HeapMdError::Corrupt { .. })
        ));

        // NaN bound (serializes as null → parses back as NaN).
        let mut nan = model.clone();
        nan.stable[0].min = f64::NAN;
        assert!(matches!(
            HeapModel::from_json(&nan.to_json().unwrap()),
            Err(HeapMdError::Corrupt { .. })
        ));

        // Inverted range.
        let mut inv = model.clone();
        inv.stable[0].min = 99.0;
        inv.stable[0].max = 1.0;
        assert!(matches!(inv.validate(), Err(HeapMdError::Corrupt { .. })));

        // Unknown metric kind in the serialized form.
        let bad_kind = model
            .to_json()
            .unwrap()
            .replace("\"Roots\"", "\"NotAMetric\"");
        assert!(matches!(
            HeapModel::from_json(&bad_kind),
            Err(HeapMdError::Corrupt { .. })
        ));

        // Truncated JSON.
        let json = model.to_json().unwrap();
        assert!(matches!(
            HeapModel::from_json(&json[..json.len() / 2]),
            Err(HeapMdError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_separate_candidate_block_is_refused_not_dropped() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let json = b.build().model.to_json().unwrap();
        // Every model still writes the retired keys, empty.
        assert!(json.contains("\"candidate_stable\": []"));
        assert!(json.contains("\"candidate_unstable\": []"));
        HeapModel::from_json(&json).unwrap();
        HeapModel::from_json(&json.replace("\"candidate_stable\": [],", "")).unwrap();

        // A model from a build that calibrated candidates apart: loading
        // it as paper-mode would silently drop the extended metrics.
        for stray in [
            json.replace(
                "\"candidate_stable\": []",
                "\"candidate_stable\": [{\"id\": \"shape.max_indegree\", \"min\": 3, \"max\": 3}]",
            ),
            json.replace(
                "\"candidate_unstable\": []",
                "\"candidate_unstable\": [\"deg.outdeg3plus\"]",
            ),
        ] {
            match HeapModel::from_json(&stray) {
                Err(HeapMdError::Corrupt { reason, .. }) => {
                    assert!(reason.contains("train --metrics candidates"), "{reason}")
                }
                other => panic!("loaded a stray candidate block: {other:?}"),
            }
        }
    }

    #[test]
    fn candidate_mode_calibrates_the_whole_family_in_one_pass() {
        let report = |run: &str, value: f64| {
            let mut r = flat_report(run, value, 30);
            for s in &mut r.samples {
                s.candidates = Some(heap_graph::CandidateVector::from_array(
                    [value; heap_graph::CANDIDATE_COUNT],
                ));
            }
            r
        };
        let mut paper = ModelBuilder::new(settings());
        let mut cand = ModelBuilder::new(settings()).candidate_metrics(true);
        for i in 0..3 {
            paper.add_run(&report(&format!("r{i}"), 40.0 + i as f64));
            cand.add_run(&report(&format!("r{i}"), 40.0 + i as f64));
        }
        let (paper, cand) = (paper.build().model, cand.build().model);
        assert_eq!(paper.stable.len(), METRIC_COUNT);
        let kinds: Vec<CandidateKind> = cand.stable.iter().map(|sm| sm.kind).collect();
        assert_eq!(kinds, CandidateKind::ALL);
        assert_eq!(paper.stable[..], cand.stable[..METRIC_COUNT]);
        let sm = cand.stable_metric(CandidateKind::MaxInDegree).unwrap();
        assert_eq!((sm.min, sm.max), (40.0, 42.0));

        // A run without candidate vectors cannot calibrate the family.
        let mut b = ModelBuilder::new(settings()).candidate_metrics(true);
        b.add_run(&flat_report("old", 10.0, 30));
        assert!(b.build().runs[0].metrics.is_none());
    }

    #[test]
    fn build_records_the_largest_calibrated_trim_as_the_warm_up() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("short", 10.0, 40)); // trims 4
        assert_eq!(
            b.build().model.settings.warmup_samples,
            5,
            "the floor holds"
        );
        b.add_run(&flat_report("long", 10.0, 138)); // trims 13
        b.add_run(&flat_report("tiny", 10.0, 3)); // too short to calibrate on
        let model = b.build().model;
        assert_eq!(model.settings.warmup_samples, 13);
        // The checkpoint carries the run lengths, so a resumed build
        // records the same warm-up.
        let json = serde_json::to_string(&b.checkpoint(3)).unwrap();
        let (resumed, _) =
            ModelBuilder::from_checkpoint(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(resumed.build().model, model);
    }

    #[test]
    fn versionless_legacy_model_still_loads() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let model = b.build().model;
        // Strip the version field the way a pre-versioning file lacks it.
        let json = model.to_json().unwrap().replacen("\"version\": 2,", "", 1);
        let back = HeapModel::from_json(&json).unwrap();
        assert_eq!(back.version, 0);
        assert_eq!(back.stable, model.stable);
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let mut b = ModelBuilder::new(settings());
        b.add_run(&flat_report("r", 25.0, 30));
        let model = b.build().model;
        let dir = std::env::temp_dir().join("heapmd-model-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        model.save(&path).unwrap(); // overwrite path exercised too
        assert!(HeapModel::load(&path).is_ok());
        assert!(!dir.join("model.json.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stable_metric_contains_and_width() {
        let sm = StableMetric {
            kind: MetricKind::Leaves.into(),
            min: 10.0,
            max: 20.0,
            avg_change: 0.0,
            std_change: 1.0,
            stable_runs: 3,
            total_runs: 5,
        };
        assert_eq!(sm.width(), 10.0);
        assert!(sm.contains(10.0));
        assert!(sm.contains(20.0));
        assert!(!sm.contains(20.01));
        assert!(!sm.contains(9.99));
    }

    fn phase_report(run: &str, lo: f64, hi: f64, n: usize) -> MetricReport {
        // First half at `lo`, second half at `hi`: locally stable.
        let samples = (0..n)
            .map(|i| {
                let v = if i < n / 2 { lo } else { hi };
                MetricSample {
                    seq: i,
                    fn_entries: i as u64,
                    tick: i as u64,
                    metrics: MetricVector::from_array([v; METRIC_COUNT]),
                    nodes: 10,
                    edges: 5,
                    dangling: 0,
                    candidates: None,
                }
            })
            .collect();
        MetricReport::new(run, samples)
    }

    #[test]
    fn locally_stable_metrics_get_phase_bands() {
        let mut b = ModelBuilder::new(settings()).locally_stable(true);
        for i in 0..4 {
            b.add_run(&phase_report(
                &format!("r{i}"),
                10.0 + i as f64 * 0.1,
                30.0,
                40,
            ));
        }
        let model = b.build().model;
        // The step makes every metric locally (not globally) stable.
        assert!(model.stable.is_empty());
        assert_eq!(model.locally_stable.len(), METRIC_COUNT);
        let lm = &model.locally_stable[0];
        assert_eq!(lm.ranges.len(), 2, "two phase bands: {:?}", lm.ranges);
        assert!(lm.contains(10.2, 0.5));
        assert!(lm.contains(30.0, 0.5));
        assert!(!lm.contains(20.0, 0.5), "between phases is out of band");
    }

    #[test]
    fn local_modelling_is_opt_in() {
        let mut b = ModelBuilder::new(settings());
        for i in 0..4 {
            b.add_run(&phase_report(&format!("r{i}"), 10.0, 30.0 + i as f64, 40));
        }
        assert!(b.build().model.locally_stable.is_empty());
    }

    #[test]
    fn parallel_add_runs_matches_sequential() {
        let reports: Vec<MetricReport> = (0..7)
            .map(|i| {
                if i % 2 == 0 {
                    flat_report(&format!("r{i}"), 20.0 + i as f64, 30)
                } else {
                    noisy_report(&format!("r{i}"), 30)
                }
            })
            .collect();
        let mut seq = ModelBuilder::new(settings()).locally_stable(true);
        for r in &reports {
            seq.add_run(r);
        }
        for threads in [1, 2, 8, 32] {
            let mut par = ModelBuilder::new(settings()).locally_stable(true);
            par.add_runs_parallel(&reports, threads);
            assert_eq!(par.runs, seq.runs, "{threads} threads");
            assert_eq!(par.series, seq.series, "{threads} threads");
            assert_eq!(par.build(), seq.build(), "{threads} threads");
        }
    }

    #[test]
    fn zero_runs_builds_empty_model() {
        let out = ModelBuilder::new(settings()).build();
        assert_eq!(out.model.training_runs, 0);
        assert!(out.model.stable.is_empty());
        assert!(out.flagged_runs.is_empty());
    }
}
