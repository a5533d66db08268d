//! Property-based tests for the analysis pipeline: fluctuation
//! statistics, stability classification, plateau segmentation, model
//! construction, and range checking.

use heapmd::{
    classify, merge_ranges, percent_changes, segment, AnomalyDetector, CandidateVector,
    CircularBuffer, FluctuationStats, MetricReport, MetricSample, ModelBuilder, Settings,
    StabilityClass, CANDIDATE_COUNT, METRIC_COUNT,
};
use proptest::prelude::*;

fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 2..120)
}

fn sample(i: usize, values: [f64; CANDIDATE_COUNT]) -> MetricSample {
    MetricSample {
        seq: i,
        fn_entries: i as u64,
        tick: i as u64,
        nodes: 10,
        edges: 5,
        dangling: 0,
        values: CandidateVector::from_array(values),
    }
}

fn samples_from(values: &[f64]) -> Vec<MetricSample> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| sample(i, [v; CANDIDATE_COUNT]))
        .collect()
}

/// Samples whose candidate values are the rows, in canonical order.
fn candidate_samples_from(rows: &[Vec<f64>]) -> Vec<MetricSample> {
    rows.iter()
        .enumerate()
        .map(|(i, vals)| sample(i, vals[..].try_into().expect("one value per candidate")))
        .collect()
}

fn candidate_rows_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0.0f64..100.0, CANDIDATE_COUNT..CANDIDATE_COUNT + 1),
        8..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The differential pin for the candidate family: the paper seven
    // are its first members, calibrated and checked by the same code,
    // so `candidate_metrics(true)` must not perturb ANY paper-kind
    // observable — the calibrated stable and never-stable entries,
    // their ranges and fluctuation stats, and the detector's paper-kind
    // verdicts on a check run are bit-identical. Candidate mode only
    // adds entries (and verdicts) for the extended members.
    #[test]
    fn candidate_mode_never_perturbs_paper_observables(
        train in proptest::collection::vec(candidate_rows_strategy(), 2..5),
        check in candidate_rows_strategy(),
    ) {
        let settings = Settings::builder().trim_frac(0.0).warmup_samples(2).build().unwrap();
        let mut paper = ModelBuilder::new(settings.clone()).program("prop");
        let mut cand = ModelBuilder::new(settings.clone()).program("prop").candidate_metrics(true);
        for (i, rows) in train.iter().enumerate() {
            let report = MetricReport::new(format!("r{i}"), candidate_samples_from(rows));
            paper.add_run(&report);
            cand.add_run(&report);
        }
        let paper_model = paper.build().model;
        let cand_model = cand.build().model;

        // The paper-mode model calibrates the paper seven only…
        prop_assert!(paper_model.stable.iter().all(|sm| sm.kind.is_paper()));
        prop_assert!(paper_model.unstable.iter().all(|k| k.is_paper()));
        // …and they are exactly the candidate model's paper-kind entries.
        let cand_stable: Vec<_> =
            cand_model.stable.iter().filter(|sm| sm.kind.is_paper()).copied().collect();
        let cand_unstable: Vec<_> =
            cand_model.unstable.iter().filter(|k| k.is_paper()).copied().collect();
        prop_assert_eq!(&paper_model.stable, &cand_stable);
        prop_assert_eq!(&paper_model.unstable, &cand_unstable);
        prop_assert_eq!(&paper_model.locally_stable, &cand_model.locally_stable);

        let report = MetricReport::new("check", candidate_samples_from(&check));
        let paper_bugs = AnomalyDetector::check_report(&paper_model, &settings, &report);
        let mut cand_bugs = AnomalyDetector::check_report(&cand_model, &settings, &report);
        cand_bugs.retain(|b| b.metric.is_paper());
        prop_assert_eq!(paper_bugs, cand_bugs);
    }

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
    fn plateaus_partition_within_bounds(series in series_strategy(), spike in 1.0f64..50.0) {
        let plateaus = segment(&series, spike, 3);
        let mut prev_end = 0usize;
        for p in &plateaus {
            prop_assert!(p.start >= prev_end);
            prop_assert!(p.len >= 3);
            prop_assert!(p.start + p.len <= series.len());
            prop_assert!(p.min <= p.max);
            // Bounds really are the window extrema.
            let window = &series[p.start..p.start + p.len];
            let lo = window.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((p.min - lo).abs() < 1e-12 && (p.max - hi).abs() < 1e-12);
            prev_end = p.start + p.len;
        }
    }

    #[test]
    fn merged_ranges_are_sorted_disjoint_and_covering(
        series in series_strategy(),
        gap in 0.0f64..2.0
    ) {
        let plateaus = segment(&series, 5.0, 3);
        let merged = merge_ranges(&plateaus, gap);
        for w in merged.windows(2) {
            prop_assert!(w[0].1 + gap < w[1].0 + 1e-12, "ranges overlap or touch: {merged:?}");
        }
        for p in &plateaus {
            prop_assert!(
                merged.iter().any(|&(lo, hi)| lo <= p.min && p.max <= hi),
                "plateau [{}, {}] not covered by {merged:?}", p.min, p.max
            );
        }
    }

    #[test]
    fn model_entries_are_well_formed(runs in proptest::collection::vec(series_strategy(), 1..6)) {
        let settings = Settings::builder().trim_frac(0.0).build().unwrap();
        let mut b = ModelBuilder::new(settings).locally_stable(true);
        for (i, run) in runs.iter().enumerate() {
            b.add_run(&MetricReport::new(format!("r{i}"), samples_from(run)));
        }
        let model = b.build().model;
        for sm in model.stable_metrics() {
            prop_assert!(sm.min <= sm.max);
            prop_assert!(sm.stable_runs >= 1);
            prop_assert!(sm.stable_runs <= sm.total_runs);
        }
        for lm in &model.locally_stable {
            prop_assert!(!model.is_stable(lm.kind), "local entries exclude global ones");
            for w in lm.ranges.windows(2) {
                prop_assert!(w[0].1 <= w[1].0);
            }
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

    #[test]
    fn ring_buffer_keeps_the_last_k(items in proptest::collection::vec(0u32..1000, 1..100),
                                    cap in 1usize..20) {
        let mut buf = CircularBuffer::new(cap);
        for &x in &items {
            buf.push(x);
        }
        let expect: Vec<u32> = items.iter().rev().take(cap).rev().copied().collect();
        prop_assert_eq!(buf.iter().copied().collect::<Vec<_>>(), expect);
    }
}
