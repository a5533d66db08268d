//! The `Settings` file of the paper's architecture (Figure 2).

use crate::error::HeapMdError;
use serde::{Deserialize, Serialize};

/// Configuration shared by the execution logger, the metric summarizer,
/// and the anomaly detector.
///
/// Defaults follow the paper's reported choices: metrics are computed
/// once every `frq = 100 000` function entries, the first and last 10 %
/// of metric computation points are attributed to startup/shutdown and
/// ignored, a metric is stable in a run when its average per-step change
/// is within ±1 % and the standard deviation of change is below 5, and a
/// metric is globally stable for the program when it is stable on at
/// least 40 % of training inputs.
///
/// Construct via [`Settings::builder`]; invalid combinations are
/// rejected at build time.
///
/// # Example
///
/// ```
/// use heapmd::Settings;
///
/// # fn main() -> Result<(), heapmd::HeapMdError> {
/// let s = Settings::builder().frq(1_000).trim_frac(0.10).build()?;
/// assert_eq!(s.frq, 1_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settings {
    /// Metric computation period: one sample per `frq` function entries.
    /// The paper used 100 000 for its (much larger) binaries.
    pub frq: u64,
    /// Fraction of metric computation points at each end of a run
    /// attributed to startup/shutdown and excluded from stability
    /// analysis (paper: 0.10).
    pub trim_frac: f64,
    /// Stability threshold on the mean per-step percentage change
    /// (paper: ±1 %).
    pub avg_change_threshold: f64,
    /// Stability threshold on the standard deviation of the per-step
    /// percentage change (paper: 5).
    pub std_change_threshold: f64,
    /// Fraction of training inputs on which a metric must be stable to
    /// be deemed globally stable (paper: 0.40).
    pub stable_input_frac: f64,
    /// Minimum post-trim samples for a run to participate in stability
    /// classification.
    pub min_samples: usize,
    /// Fraction of a stable metric's range width treated as "near the
    /// extreme": approaching within this margin (with a slope toward the
    /// extreme) arms call-stack logging.
    pub near_edge_frac: f64,
    /// Capacity of the circular call-stack log buffer.
    pub callstack_capacity: usize,
    /// Samples every checker skips as startup before enforcing ranges.
    /// This is a floor: [`crate::ModelBuilder`] records in the model the
    /// larger of it and the leading `trim_frac` trims of the training
    /// runs, and the detector skips what the model records.
    pub warmup_samples: usize,
    /// Absolute slack (percentage points) added to each side of a
    /// calibrated range during checking. The paper calibrates on ≥ 25
    /// inputs, which widens its min/max organically; smaller training
    /// sets need explicit slack to avoid hair-trigger false positives.
    /// Set to 0 for the paper's strict min/max semantics.
    pub range_margin: f64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            frq: 100_000,
            trim_frac: 0.10,
            avg_change_threshold: 1.0,
            std_change_threshold: 5.0,
            stable_input_frac: 0.40,
            min_samples: 5,
            near_edge_frac: 0.05,
            callstack_capacity: 64,
            warmup_samples: 5,
            range_margin: 0.5,
        }
    }
}

impl Settings {
    /// Starts building a settings value from the paper defaults.
    pub fn builder() -> SettingsBuilder {
        SettingsBuilder {
            inner: Settings::default(),
        }
    }

    /// Re-runs the builder's validation on an already constructed (or
    /// deserialized) settings value — a checkpoint or model file can
    /// carry settings that never went through the builder.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidSettings`] (see
    /// [`SettingsBuilder::build`]).
    pub fn validate(&self) -> Result<(), HeapMdError> {
        SettingsBuilder {
            inner: self.clone(),
        }
        .build()
        .map(|_| ())
    }

    /// Number of leading/trailing samples to trim from a run of `n`
    /// metric computation points.
    pub fn trim_count(&self, n: usize) -> usize {
        (n as f64 * self.trim_frac).floor() as usize
    }
}

/// Builder for [`Settings`].
#[derive(Debug, Clone)]
pub struct SettingsBuilder {
    inner: Settings,
}

impl SettingsBuilder {
    /// Sets the metric computation period (function entries per sample).
    pub fn frq(mut self, frq: u64) -> Self {
        self.inner.frq = frq;
        self
    }

    /// Sets the startup/shutdown trim fraction.
    pub fn trim_frac(mut self, f: f64) -> Self {
        self.inner.trim_frac = f;
        self
    }

    /// Sets the mean-change stability threshold (percent).
    pub fn avg_change_threshold(mut self, t: f64) -> Self {
        self.inner.avg_change_threshold = t;
        self
    }

    /// Sets the change standard-deviation stability threshold.
    pub fn std_change_threshold(mut self, t: f64) -> Self {
        self.inner.std_change_threshold = t;
        self
    }

    /// Sets the fraction of training inputs required stable.
    pub fn stable_input_frac(mut self, f: f64) -> Self {
        self.inner.stable_input_frac = f;
        self
    }

    /// Sets the minimum post-trim samples per classified run.
    pub fn min_samples(mut self, n: usize) -> Self {
        self.inner.min_samples = n;
        self
    }

    /// Sets the near-extreme margin fraction for call-stack logging.
    pub fn near_edge_frac(mut self, f: f64) -> Self {
        self.inner.near_edge_frac = f;
        self
    }

    /// Sets the circular call-stack buffer capacity.
    pub fn callstack_capacity(mut self, n: usize) -> Self {
        self.inner.callstack_capacity = n;
        self
    }

    /// Sets the minimum number of start-up samples checking skips.
    pub fn warmup_samples(mut self, n: usize) -> Self {
        self.inner.warmup_samples = n;
        self
    }

    /// Sets the checking range slack (percentage points per side).
    pub fn range_margin(mut self, m: f64) -> Self {
        self.inner.range_margin = m;
        self
    }

    /// Validates and produces the settings.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidSettings`] when `frq` is zero, a
    /// fraction lies outside `[0, 0.5)` (trim) or `(0, 1]` (stable
    /// inputs) or `[0, 0.5]` (near edge), or thresholds are negative.
    pub fn build(self) -> Result<Settings, HeapMdError> {
        let s = self.inner;
        fn bad(msg: &str) -> Result<Settings, HeapMdError> {
            Err(HeapMdError::InvalidSettings(msg.to_string()))
        }
        if s.frq == 0 {
            return bad("frq must be positive");
        }
        if !(0.0..0.5).contains(&s.trim_frac) {
            return bad("trim_frac must lie in [0, 0.5)");
        }
        if s.avg_change_threshold < 0.0 || s.std_change_threshold < 0.0 {
            return bad("stability thresholds must be non-negative");
        }
        if !(0.0..=1.0).contains(&s.stable_input_frac) || s.stable_input_frac == 0.0 {
            return bad("stable_input_frac must lie in (0, 1]");
        }
        if !(0.0..=0.5).contains(&s.near_edge_frac) {
            return bad("near_edge_frac must lie in [0, 0.5]");
        }
        if s.callstack_capacity == 0 {
            return bad("callstack_capacity must be positive");
        }
        if s.range_margin < 0.0 {
            return bad("range_margin must be non-negative");
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = Settings::default();
        assert_eq!(s.frq, 100_000);
        assert_eq!(s.trim_frac, 0.10);
        assert_eq!(s.avg_change_threshold, 1.0);
        assert_eq!(s.std_change_threshold, 5.0);
        assert_eq!(s.stable_input_frac, 0.40);
    }

    #[test]
    fn builder_overrides_fields() {
        let s = Settings::builder()
            .frq(500)
            .warmup_samples(7)
            .build()
            .unwrap();
        assert_eq!(s.frq, 500);
        assert_eq!(s.warmup_samples, 7);
        assert_eq!(s.trim_frac, 0.10, "untouched fields keep defaults");
    }

    #[test]
    fn invalid_settings_rejected() {
        assert!(Settings::builder().frq(0).build().is_err());
        assert!(Settings::builder().trim_frac(0.5).build().is_err());
        assert!(Settings::builder().trim_frac(-0.1).build().is_err());
        assert!(Settings::builder().stable_input_frac(0.0).build().is_err());
        assert!(Settings::builder().stable_input_frac(1.5).build().is_err());
        assert!(Settings::builder().near_edge_frac(0.6).build().is_err());
        assert!(Settings::builder()
            .avg_change_threshold(-1.0)
            .build()
            .is_err());
        assert!(Settings::builder().callstack_capacity(0).build().is_err());
        assert!(Settings::builder().range_margin(-0.1).build().is_err());
    }

    #[test]
    fn trim_count_floors() {
        let s = Settings::default();
        assert_eq!(s.trim_count(100), 10);
        assert_eq!(s.trim_count(99), 9);
        assert_eq!(s.trim_count(5), 0);
    }

    #[test]
    fn settings_round_trip_json() {
        let s = Settings::builder().frq(42).build().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: Settings = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
