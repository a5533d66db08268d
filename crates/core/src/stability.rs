//! Stability classification of metrics (paper §2.1, "metric
//! summarizer").

use crate::fluctuation::FluctuationStats;
use crate::settings::Settings;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's three-way classification of a metric within one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StabilityClass {
    /// Relatively constant throughout the (trimmed) run: mean change and
    /// standard deviation of change both within thresholds.
    GloballyStable,
    /// Constant within phases but stepping between them: the fluctuation
    /// plot is flat near zero except for occasional spikes — mean within
    /// threshold and typical (median) change small, but the spikes push
    /// the standard deviation over its threshold.
    LocallyStable,
    /// Neither: large mean drift or broadly noisy.
    Unstable,
}

impl fmt::Display for StabilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StabilityClass::GloballyStable => "globally-stable",
            StabilityClass::LocallyStable => "locally-stable",
            StabilityClass::Unstable => "unstable",
        })
    }
}

/// Classifies one metric's fluctuation statistics for one run.
///
/// Follows the paper: *globally stable* iff `|mean| ≤` the average-change
/// threshold (±1 %) **and** `std_dev <` the standard-deviation threshold
/// (5). A metric that fails those tests but is flat in the typical step
/// (median absolute change within the average-change threshold) is
/// *locally stable* — flat with occasional phase-change spikes. Runs
/// with fewer than `settings.min_samples` observations are
/// conservatively unstable (too little evidence).
///
/// # Example
///
/// ```
/// use heapmd::{classify, FluctuationStats, Settings, StabilityClass};
///
/// let s = Settings::default();
/// let flat = FluctuationStats::from_changes(&[0.1, -0.2, 0.0, 0.1, -0.1]);
/// assert_eq!(classify(&flat, &s), StabilityClass::GloballyStable);
/// ```
pub fn classify(stats: &FluctuationStats, settings: &Settings) -> StabilityClass {
    if stats.n + 1 < settings.min_samples {
        return StabilityClass::Unstable;
    }
    let mean_ok = stats.mean.abs() <= settings.avg_change_threshold;
    let std_ok = stats.std_dev < settings.std_change_threshold;
    if mean_ok && std_ok {
        StabilityClass::GloballyStable
    } else if stats.median_abs <= settings.avg_change_threshold {
        // Flat in the typical step; the occasional phase-change spike
        // inflates the mean and the standard deviation, so neither is
        // used here.
        StabilityClass::LocallyStable
    } else {
        StabilityClass::Unstable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluctuation::percent_changes;

    fn stats(changes: &[f64]) -> FluctuationStats {
        FluctuationStats::from_changes(changes)
    }

    #[test]
    fn flat_series_is_globally_stable() {
        let s = Settings::default();
        assert_eq!(
            classify(&stats(&[0.0; 20]), &s),
            StabilityClass::GloballyStable
        );
    }

    #[test]
    fn vpr_fig6_numbers_classify_as_in_paper() {
        // Paper Figure 6: Outdeg=1 has mean −0.10/−0.02 and σ 1.72/1.79 →
        // stable; In=Out on Input1 has mean 2.47, σ 24.80 → unstable.
        let s = Settings::default();
        let stable = FluctuationStats {
            mean: -0.10,
            std_dev: 1.72,
            median_abs: 0.4,
            n: 30,
        };
        assert_eq!(classify(&stable, &s), StabilityClass::GloballyStable);
        let unstable = FluctuationStats {
            mean: 2.47,
            std_dev: 24.80,
            median_abs: 8.0,
            n: 30,
        };
        assert_eq!(classify(&unstable, &s), StabilityClass::Unstable);
        // In=Out on Input2: mean −0.18, σ 5.27 → fails σ threshold. Its
        // typical step decides local vs unstable.
        let spiky = FluctuationStats {
            mean: -0.18,
            std_dev: 5.27,
            median_abs: 0.3,
            n: 30,
        };
        assert_eq!(classify(&spiky, &s), StabilityClass::LocallyStable);
    }

    #[test]
    fn phase_steps_are_locally_stable() {
        let s = Settings::default();
        // Flat at 10, one jump to 20, flat again: a classic phase change.
        let mut series = vec![10.0; 15];
        series.extend(vec![20.0; 15]);
        let st = stats(&percent_changes(&series));
        assert_eq!(classify(&st, &s), StabilityClass::LocallyStable);
    }

    #[test]
    fn drifting_series_is_unstable() {
        let s = Settings::default();
        // +3% every step: mean change breaches ±1%.
        let series: Vec<f64> = (0..30).map(|i| 10.0 * 1.03f64.powi(i)).collect();
        let st = stats(&percent_changes(&series));
        assert_eq!(classify(&st, &s), StabilityClass::Unstable);
    }

    #[test]
    fn noisy_series_is_unstable() {
        let s = Settings::default();
        // alternating ±8%: mean ~0 but both σ and median |change| large.
        let changes: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 8.0 } else { -8.0 })
            .collect();
        assert_eq!(classify(&stats(&changes), &s), StabilityClass::Unstable);
    }

    #[test]
    fn too_few_samples_is_unstable() {
        let s = Settings::default(); // min_samples = 5
        assert_eq!(classify(&stats(&[0.0, 0.0]), &s), StabilityClass::Unstable);
        assert_eq!(
            classify(&stats(&[0.0, 0.0, 0.0, 0.0]), &s),
            StabilityClass::GloballyStable,
            "5 samples → 4 changes suffices"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(
            StabilityClass::GloballyStable.to_string(),
            "globally-stable"
        );
        assert_eq!(StabilityClass::Unstable.to_string(), "unstable");
    }
}
