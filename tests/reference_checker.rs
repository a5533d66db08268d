//! A straight-line reference of the paper's §3 summarizer and §2.2
//! range check over plain `Vec<MetricSample>` series, and a proptest
//! that holds `ModelBuilder` + `AnomalyDetector` to it.
//!
//! The reference spells out the rule in the paper's numbers and
//! nothing else:
//!
//! * trim 10% of a run's metric computation points at each end and
//!   take the per-step % change of each metric;
//! * a run is stable for a metric when its mean change is within ±1%
//!   and the standard deviation of the change is below 5;
//! * a metric is stable when it is stable on at least 40% of the
//!   analysable runs; its range is the `[min, max]` it takes over the
//!   trimmed samples of *all* of them (§2.2: "across all the training
//!   inputs"), widened by `range_margin` when checking;
//! * a check skips the warm-up (the configured one, raised to the
//!   largest leading trim of a training run), opens one report per
//!   excursion outside the range, and drops the excursions that begin
//!   in the final 10% of the run (teardown).
//!
//! Only range violations are compared. The poorly-disguised and
//! unexpected-stability verdicts are finish-time judgements with rules
//! of their own (a pinned fraction, a stability re-check of the whole
//! checked run); they are left out here and stay pinned by the
//! detector's unit tests.
//!
//! Any change to the detector's rule (hysteresis, grouping, bias
//! correction) must land here in the same change.

use heapmd::{
    AnomalyDetector, AnomalyKind, Direction, MetricKind, MetricReport, MetricSample, MetricVector,
    ModelBuilder, Settings, METRIC_COUNT,
};
use proptest::prelude::*;

/// Fraction of a run trimmed at each end (§3).
const TRIM_FRAC: f64 = 0.10;
/// Largest mean per-step % change of a stable run (§3: ±1%).
const AVG_CHANGE: f64 = 1.0;
/// A stable run's standard deviation of change stays below this (§3).
const STD_CHANGE: f64 = 5.0;
/// A metric is stable on at least 4 in 10 of the runs (§3: 40%).
const STABLE_RUNS_PER_10: usize = 4;
/// Percentage change uses a denominator of at least this, so a metric
/// at 0% still has a finite change.
const DENOM_FLOOR: f64 = 0.1;

/// Points trimmed at each end of an `n`-point run.
fn trim(n: usize) -> usize {
    (n as f64 * TRIM_FRAC).floor() as usize
}

/// The reference's model: per metric, `Some((min, max))` when stable.
#[derive(Debug, PartialEq)]
struct RefModel {
    ranges: [Option<(f64, f64)>; METRIC_COUNT],
    never_stable: Vec<MetricKind>,
    warmup: usize,
}

fn is_stable_run(series: &[f64]) -> bool {
    let changes: Vec<f64> = series
        .windows(2)
        .map(|w| {
            if w[1] == w[0] {
                0.0
            } else {
                (w[1] - w[0]) / w[0].abs().max(DENOM_FLOOR) * 100.0
            }
        })
        .collect();
    let n = changes.len() as f64;
    let mean = changes.iter().sum::<f64>() / n;
    let std = if changes.len() < 2 {
        0.0
    } else {
        (changes.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    mean.abs() <= AVG_CHANGE && std < STD_CHANGE
}

fn reference_model(runs: &[Vec<MetricSample>], settings: &Settings) -> RefModel {
    // A run too short to analyse after trimming is left out altogether.
    let analysable: Vec<&[MetricSample]> = runs
        .iter()
        .map(|r| {
            let k = trim(r.len());
            if 2 * k >= r.len() {
                &r[..0]
            } else {
                &r[k..r.len() - k]
            }
        })
        .filter(|t| t.len() >= settings.min_samples)
        .collect();
    let total = analysable.len();
    let mut ranges = [None; METRIC_COUNT];
    let mut never_stable = Vec::new();
    for kind in MetricKind::ALL {
        if total == 0 {
            break;
        }
        let series: Vec<Vec<f64>> = analysable
            .iter()
            .map(|t| t.iter().map(|s| s.metric(kind)).collect())
            .collect();
        let stable_runs = series.iter().filter(|s| is_stable_run(s)).count();
        if stable_runs == 0 {
            never_stable.push(kind);
        } else if stable_runs * 10 >= total * STABLE_RUNS_PER_10 {
            let all = series.iter().flatten().copied();
            let min = all.clone().fold(f64::INFINITY, f64::min);
            let max = all.fold(f64::NEG_INFINITY, f64::max);
            ranges[kind.index()] = Some((min, max));
        }
    }
    let warmup = runs
        .iter()
        .filter(|r| {
            let k = trim(r.len());
            2 * k < r.len() && r.len() - 2 * k >= settings.min_samples
        })
        .map(|r| trim(r.len()))
        .fold(settings.warmup_samples, usize::max);
    RefModel {
        ranges,
        never_stable,
        warmup,
    }
}

/// `(metric, sample, direction)` of every range violation a check of
/// `run` against `model` reports.
fn reference_check(
    model: &RefModel,
    run: &[MetricSample],
    margin: f64,
) -> Vec<(MetricKind, usize, Direction)> {
    let cutoff = run.len() - trim(run.len());
    let mut out = Vec::new();
    for kind in MetricKind::ALL {
        let Some((min, max)) = model.ranges[kind.index()] else {
            continue;
        };
        let (lo, hi) = (min - margin, max + margin);
        let mut in_excursion = false;
        for s in &run[model.warmup.min(run.len())..] {
            let v = s.metric(kind);
            let out_of_range = v > hi || v < lo;
            if out_of_range && !in_excursion && s.seq < cutoff {
                let direction = if v > hi {
                    Direction::AboveMax
                } else {
                    Direction::BelowMin
                };
                out.push((kind, s.seq, direction));
            }
            in_excursion = out_of_range;
        }
    }
    out.sort_by_key(|&(k, seq, _)| (k, seq));
    out
}

/// SplitMix64: the series generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// How one metric moves in every run of a generated program.
#[derive(Clone, Copy)]
enum Shape {
    /// Constant (zero included): stable, with a point range.
    Flat,
    /// Jitter of `rel` of the base per step: stable when small.
    Jitter(f64),
    /// A steady trend of `rel` per step: stable while `rel` ≤ 1%.
    Trend(f64),
    /// Alternates ±20%: never stable.
    Noisy,
}

fn value(shape: Shape, base: f64, i: usize, rng: &mut Rng) -> f64 {
    let v = match shape {
        Shape::Flat => base,
        Shape::Jitter(rel) => base * (1.0 + rel * rng.range(-1.0, 1.0)),
        Shape::Trend(rel) => base * (1.0 + rel).powi(i as i32),
        Shape::Noisy => base * if i.is_multiple_of(2) { 0.8 } else { 1.2 },
    };
    v.clamp(0.0, 100.0)
}

fn sample(seq: usize, values: [f64; METRIC_COUNT]) -> MetricSample {
    MetricSample {
        seq,
        fn_entries: seq as u64 * 100,
        tick: seq as u64 * 1000,
        nodes: 100,
        edges: 80,
        dangling: 0,
        values: MetricVector::from_array(values),
    }
}

/// A program's training runs and one check run, from `seed`: every
/// metric keeps its shape across runs; each run shifts the bases a
/// little, and the check run adds up to three excursions.
fn generate(seed: u64) -> (Vec<Vec<MetricSample>>, Vec<MetricSample>) {
    let mut rng = Rng(seed);
    let shapes: Vec<(Shape, f64)> = (0..METRIC_COUNT)
        .map(|_| {
            let shape = match rng.below(6) {
                0 => Shape::Flat,
                1 | 2 => Shape::Jitter(rng.range(0.0, 0.08)),
                3 => Shape::Trend(rng.range(-0.02, 0.02)),
                _ if rng.below(2) == 0 => Shape::Noisy,
                _ => Shape::Jitter(rng.range(0.0, 0.01)),
            };
            let base = if rng.below(8) == 0 {
                0.0
            } else {
                rng.range(2.0, 95.0)
            };
            (shape, base)
        })
        .collect();
    let run = |rng: &mut Rng, len: usize| -> Vec<MetricSample> {
        let shift: Vec<f64> = (0..METRIC_COUNT).map(|_| rng.range(0.97, 1.03)).collect();
        (0..len)
            .map(|i| {
                let mut values = [0.0; METRIC_COUNT];
                for (m, &(shape, base)) in shapes.iter().enumerate() {
                    values[m] = value(shape, base * shift[m], i, rng);
                }
                sample(i, values)
            })
            .collect()
    };
    let n_runs = 1 + rng.below(6) as usize;
    let training = (0..n_runs)
        .map(|_| {
            let len = 4 + rng.below(60) as usize;
            run(&mut rng, len)
        })
        .collect();
    let len = 4 + rng.below(80) as usize;
    let mut check = run(&mut rng, len);
    for _ in 0..rng.below(4) {
        let (m, at) = (
            rng.below(METRIC_COUNT as u64) as usize,
            rng.below(len as u64),
        );
        let (width, by) = (1 + rng.below(5), rng.range(-30.0, 30.0));
        for s in check.iter_mut().skip(at as usize).take(width as usize) {
            let kind = MetricKind::from_index(m);
            let v = (s.metric(kind) + by).clamp(0.0, 100.0);
            s.values.set(kind, v);
        }
    }
    (training, check)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn builder_and_detector_match_the_reference(
        seed in 0u64..u64::MAX,
        warmup in 0usize..8,
        margin in (0usize..4).prop_map(|i| [0.0, 0.5, 0.5, 1.7][i]),
    ) {
        let settings = Settings::builder()
            .warmup_samples(warmup)
            .range_margin(margin)
            .build()
            .unwrap();
        let (training, check) = generate(seed);

        let mut builder = ModelBuilder::new(settings.clone());
        for (i, run) in training.iter().enumerate() {
            builder.add_run(&MetricReport::new(format!("r{i}"), run.clone()));
        }
        let model = builder.build().model;
        let reference = reference_model(&training, &settings);

        let mut ranges = [None; METRIC_COUNT];
        for sm in model.stable_metrics() {
            ranges[sm.kind.index()] = Some((sm.min, sm.max));
        }
        prop_assert_eq!(ranges, reference.ranges, "stable sets and ranges");
        prop_assert_eq!(&model.unstable, &reference.never_stable, "never-stable metrics");
        prop_assert_eq!(model.settings.warmup_samples, reference.warmup, "warm-up");

        let bugs = AnomalyDetector::check_report(
            &model,
            &settings,
            &MetricReport::new("check", check.clone()),
        );
        let mut got: Vec<(MetricKind, usize, Direction)> = bugs
            .iter()
            .filter_map(|b| match b.kind {
                AnomalyKind::RangeViolation { direction } => Some((b.metric, b.sample_seq, direction)),
                _ => None,
            })
            .collect();
        got.sort_by_key(|&(k, seq, _)| (k, seq));
        prop_assert_eq!(got, reference_check(&reference, &check, margin), "range violations");
    }
}

/// The generator reaches every case the comparison needs: stable and
/// never-stable metrics, runs too short to analyse, and checks with and
/// without range violations.
#[test]
fn the_generator_covers_the_interesting_cases() {
    let settings = Settings::default();
    let (mut stable, mut never, mut short, mut flagged, mut clean) = (0, 0, 0, 0, 0);
    for seed in 0..256 {
        let (training, check) = generate(seed);
        let model = reference_model(&training, &settings);
        stable += model.ranges.iter().flatten().count();
        never += model.never_stable.len();
        short += training.iter().filter(|r| r.len() < 7).count();
        if reference_check(&model, &check, settings.range_margin).is_empty() {
            clean += 1;
        } else {
            flagged += 1;
        }
    }
    assert!(
        stable > 200 && never > 100 && short > 10,
        "{stable} {never} {short}"
    );
    assert!(
        flagged > 30 && clean > 30,
        "{flagged} flagged, {clean} clean"
    );
}
