//! Property-based tests for the analysis pipeline: fluctuation
//! statistics, stability classification, model construction, and range
//! checking.

use heapmd::{
    classify, percent_changes, AnomalyDetector, FluctuationStats, MetricReport, MetricSample,
    MetricVector, ModelBuilder, Settings, StabilityClass, METRIC_COUNT,
};
use proptest::prelude::*;

fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 2..120)
}

fn sample(i: usize, values: [f64; METRIC_COUNT]) -> MetricSample {
    MetricSample {
        seq: i,
        fn_entries: i as u64,
        tick: i as u64,
        nodes: 10,
        edges: 5,
        dangling: 0,
        values: MetricVector::from_array(values),
    }
}

fn samples_from(values: &[f64]) -> Vec<MetricSample> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| sample(i, [v; METRIC_COUNT]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percent_changes_shape_and_finiteness(series in series_strategy()) {
        let changes = percent_changes(&series);
        prop_assert_eq!(changes.len(), series.len() - 1);
        prop_assert!(changes.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn fluctuation_stats_invariants(series in series_strategy()) {
        let changes = percent_changes(&series);
        let st = FluctuationStats::from_changes(&changes);
        prop_assert!(st.std_dev >= 0.0);
        prop_assert!(st.median_abs >= 0.0);
        let max_abs = changes.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        prop_assert!(st.median_abs <= max_abs + 1e-9);
        prop_assert!(st.mean.abs() <= max_abs + 1e-9);
        prop_assert_eq!(st.n, changes.len());
    }

    #[test]
    fn constant_series_is_globally_stable(v in 0.0f64..100.0, n in 6usize..60) {
        let series = vec![v; n];
        let st = FluctuationStats::from_series(&series);
        prop_assert_eq!(classify(&st, &Settings::default()), StabilityClass::GloballyStable);
    }

    #[test]
    fn model_entries_are_well_formed(runs in proptest::collection::vec(series_strategy(), 1..6)) {
        let settings = Settings::builder().trim_frac(0.0).build().unwrap();
        let mut b = ModelBuilder::new(settings);
        for (i, run) in runs.iter().enumerate() {
            b.add_run(&MetricReport::new(format!("r{i}"), samples_from(run)));
        }
        let model = b.build().model;
        for sm in model.stable_metrics() {
            prop_assert!(sm.min <= sm.max);
            prop_assert!(sm.stable_runs >= 1);
            prop_assert!(sm.stable_runs <= sm.total_runs);
        }
    }

    #[test]
    fn detector_is_quiet_inside_the_calibrated_band(
        base in 20.0f64..80.0,
        jitter in proptest::collection::vec(-0.4f64..0.4, 20..60)
    ) {
        // Train on a flat run at `base`; check a run jittering within
        // the margin: no reports.
        let settings = Settings::builder().trim_frac(0.0).warmup_samples(2).build().unwrap();
        let mut b = ModelBuilder::new(settings.clone());
        b.add_run(&MetricReport::new("train", samples_from(&vec![base; 40])));
        let model = b.build().model;
        prop_assert_eq!(model.stable.len(), METRIC_COUNT);
        let check: Vec<f64> = jitter.iter().map(|j| base + j).collect();
        let bugs = AnomalyDetector::check_report(
            &model,
            &settings,
            &MetricReport::new("check", samples_from(&check)),
        );
        prop_assert!(bugs.is_empty(), "{bugs:?}");
    }

    #[test]
    fn detector_catches_any_big_excursion(
        base in 20.0f64..70.0,
        delta in 5.0f64..25.0,
        at in 10usize..30
    ) {
        let settings = Settings::builder().trim_frac(0.0).warmup_samples(2).build().unwrap();
        let mut b = ModelBuilder::new(settings.clone());
        b.add_run(&MetricReport::new("train", samples_from(&vec![base; 40])));
        let model = b.build().model;
        let mut check = vec![base; 40];
        check[at] = base + delta; // a one-sample spike well past margin
        let bugs = AnomalyDetector::check_report(
            &model,
            &settings,
            &MetricReport::new("check", samples_from(&check)),
        );
        prop_assert!(
            bugs.iter().any(|bug| matches!(bug.kind, heapmd::AnomalyKind::RangeViolation { .. })
                && bug.sample_seq == at),
            "spike at {at} missed: {bugs:?}"
        );
    }
}
