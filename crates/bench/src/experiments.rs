//! The experiments behind every figure and table of the paper.

use crate::swat_baseline::{SwatConfig, SwatDetector};
use crate::table::{f1, Table};
use crate::Effort;
use faults::FaultPlan;
use heapmd::plot::{chart, RefLine};
use heapmd::{
    AnomalyDetector, AnomalyKind, BugReport, FluctuationStats, HeapModel, MetricKind, Monitor,
    Process, Settings, StableMetric,
};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::bugs::{BugSpec, SwatOnlyLeak, CATALOG, SWAT_ONLY};
use workloads::harness::{run_once, settings_for, train};
use workloads::{commercial_at_version, registry, Input, Workload};

/// The paper's example stable metric per program (Figure 7A column 4).
pub fn paper_example_metric(program: &str) -> Option<MetricKind> {
    Some(match program {
        "twolf" => MetricKind::Outdeg2,
        "crafty" => MetricKind::Leaves,
        "mcf" => MetricKind::Roots,
        "vpr" => MetricKind::Outdeg1,
        "vortex" => MetricKind::Indeg1,
        "gzip" => MetricKind::Leaves,
        "parser" => MetricKind::InEqOut,
        "gcc" => MetricKind::Outdeg1,
        "multimedia" => MetricKind::InEqOut,
        "webapp" => MetricKind::Indeg1,
        "game_sim" => MetricKind::Outdeg1,
        "game_action" => MetricKind::Indeg1,
        "productivity" => MetricKind::Leaves,
        _ => return None,
    })
}

/// The paper's input counts per program (Figure 7A column 2).
pub fn paper_input_count(program: &str) -> usize {
    match program {
        "twolf" | "crafty" | "mcf" => 3,
        "vpr" => 6,
        "vortex" => 5,
        "gzip" | "parser" | "gcc" => 100,
        _ => 50, // the five commercial programs
    }
}

/// Picks the example stable metric for a model: the paper's choice if
/// it calibrated, otherwise the stable metric with the narrowest range
/// (the most useful anomaly detector, per §3.1).
pub fn example_metric(program: &str, model: &HeapModel) -> Option<StableMetric> {
    if let Some(kind) = paper_example_metric(program) {
        if let Some(sm) = model.stable_metric(kind) {
            return Some(*sm);
        }
    }
    model
        .stable
        .iter()
        .min_by(|a, b| a.width().partial_cmp(&b.width()).expect("finite"))
        .copied()
}

// ---------------------------------------------------------------------------
// Figures 4, 5, 6 — vpr metric series, fluctuation, and statistics
// ---------------------------------------------------------------------------

/// Result of the Figures 4–6 experiment.
#[derive(Debug)]
pub struct Fig456 {
    /// Rendered plots + table.
    pub rendered: String,
    /// (metric, input id, mean change, std dev) rows of Figure 6.
    pub stats: Vec<(MetricKind, u32, f64, f64)>,
}

/// Reproduces Figures 4 (metric series), 5 (fluctuation series), and 6
/// (their statistics) on `vpr` with two inputs.
pub fn fig4_5_6() -> Fig456 {
    let w = workloads::spec::Vpr;
    let settings = settings_for(&w);
    let mut rendered = String::new();
    let mut stats = Vec::new();
    let metrics = [MetricKind::InEqOut, MetricKind::Outdeg1];

    for input in Input::set(2) {
        let report = run_once(&w, &input, &mut FaultPlan::new(), &settings);
        for kind in metrics {
            let series = report.series(kind);
            rendered.push_str(&chart(
                &format!(
                    "Figure 4: vpr {kind} on Input{} ({} samples)",
                    input.id + 1,
                    series.len()
                ),
                &series,
                64,
                10,
                &[],
            ));
            rendered.push('\n');
            let trimmed = report.trimmed_series(kind, &settings);
            let changes = heapmd::percent_changes(&trimmed);
            rendered.push_str(&chart(
                &format!("Figure 5: vpr {kind} fluctuation on Input{}", input.id + 1),
                &changes,
                64,
                8,
                &[RefLine {
                    value: 0.0,
                    glyph: '-',
                    label: "zero",
                }],
            ));
            rendered.push('\n');
            let st = FluctuationStats::from_changes(&changes);
            stats.push((kind, input.id, st.mean, st.std_dev));
        }
    }

    let mut t = Table::new(vec!["Figure 6", "Input1", "Input2"]);
    for kind in metrics {
        let row: Vec<(f64, f64)> = stats
            .iter()
            .filter(|(k, _, _, _)| *k == kind)
            .map(|&(_, _, m, s)| (m, s))
            .collect();
        t.row(vec![
            format!("{kind} average"),
            format!("{:.2}%", row[0].0),
            format!("{:.2}%", row[1].0),
        ]);
        t.row(vec![
            format!("{kind} std dev"),
            format!("{:.2}", row[0].1),
            format!("{:.2}", row[1].1),
        ]);
    }
    rendered.push_str(&t.render());
    Fig456 { rendered, stats }
}

// ---------------------------------------------------------------------------
// Figure 7A — globally stable metrics across 13 programs
// ---------------------------------------------------------------------------

/// One row of Figure 7A.
#[derive(Debug, Clone)]
pub struct Fig7aRow {
    /// Program name.
    pub program: String,
    /// Inputs used.
    pub inputs: usize,
    /// Number of globally stable metrics.
    pub stable_count: usize,
    /// The example stable metric (if any metric calibrated).
    pub example: Option<StableMetric>,
}

/// Reproduces Figure 7A: identifies globally stable metrics for all 13
/// programs.
pub fn fig7a(effort: Effort) -> (Vec<Fig7aRow>, String) {
    let mut rows = Vec::new();
    for w in registry() {
        let n = effort.inputs(paper_input_count(w.name()));
        let outcome = train(w.as_ref(), &Input::set(n));
        rows.push(Fig7aRow {
            program: w.name().to_string(),
            inputs: n,
            stable_count: outcome.model.stable.len(),
            example: example_metric(w.name(), &outcome.model),
        });
    }
    let mut t = Table::new(vec![
        "Benchmark",
        "# Inputs",
        "# Stable",
        "Example stable metric",
        "Avg. % rate of change",
        "Std. Dev.",
        "Min % of vertexes",
        "Max % of vertexes",
    ]);
    for r in &rows {
        match &r.example {
            Some(sm) => t.row(vec![
                r.program.clone(),
                r.inputs.to_string(),
                r.stable_count.to_string(),
                sm.kind.short_name().to_string(),
                f1(sm.avg_change),
                f1(sm.std_change),
                f1(sm.min),
                f1(sm.max),
            ]),
            None => t.row(vec![
                r.program.clone(),
                r.inputs.to_string(),
                "0".to_string(),
                "(none)".to_string(),
            ]),
        };
    }
    let rendered = format!(
        "Figure 7(A): identifying globally stable metrics\n{}",
        t.render()
    );
    (rows, rendered)
}

// ---------------------------------------------------------------------------
// Figure 7B — stability across development versions
// ---------------------------------------------------------------------------

/// One row of Figure 7B.
#[derive(Debug, Clone)]
pub struct Fig7bRow {
    /// Program name.
    pub program: String,
    /// Inputs per version.
    pub inputs: usize,
    /// Versions analysed.
    pub versions: usize,
    /// Metrics globally stable in *every* version.
    pub common_stable: Vec<MetricKind>,
    /// The example metric's range union over versions.
    pub example: Option<StableMetric>,
}

/// Reproduces Figure 7B: the same metrics stay stable across 5
/// development versions of each commercial program.
pub fn fig7b(effort: Effort) -> (Vec<Fig7bRow>, String) {
    let paper_inputs = 10;
    let n = effort.inputs(paper_inputs);
    let versions: Vec<u8> = match effort {
        Effort::Full => vec![1, 2, 3, 4, 5],
        Effort::Quick => vec![1, 3, 5],
    };
    let apps = [
        "multimedia",
        "webapp",
        "game_sim",
        "game_action",
        "productivity",
    ];
    let mut rows = Vec::new();
    for app in apps {
        let mut models = Vec::new();
        for &v in &versions {
            let w = commercial_at_version(app, v);
            models.push(train(w.as_ref(), &Input::set(n)).model);
        }
        let common: Vec<MetricKind> = MetricKind::ALL
            .iter()
            .copied()
            .filter(|&k| models.iter().all(|m| m.is_stable(k)))
            .collect();
        // Union the example metric's calibration across versions.
        let example = paper_example_metric(app)
            .filter(|k| common.contains(k))
            .or_else(|| common.first().copied())
            .and_then(|kind| {
                let entries: Vec<&StableMetric> = models
                    .iter()
                    .filter_map(|m| m.stable_metric(kind))
                    .collect();
                if entries.is_empty() {
                    return None;
                }
                Some(StableMetric {
                    kind: kind.into(),
                    min: entries.iter().map(|e| e.min).fold(f64::INFINITY, f64::min),
                    max: entries
                        .iter()
                        .map(|e| e.max)
                        .fold(f64::NEG_INFINITY, f64::max),
                    avg_change: entries.iter().map(|e| e.avg_change).sum::<f64>()
                        / entries.len() as f64,
                    std_change: entries.iter().map(|e| e.std_change).sum::<f64>()
                        / entries.len() as f64,
                    stable_runs: entries.iter().map(|e| e.stable_runs).sum(),
                    total_runs: entries.iter().map(|e| e.total_runs).sum(),
                })
            });
        rows.push(Fig7bRow {
            program: app.to_string(),
            inputs: n,
            versions: versions.len(),
            common_stable: common,
            example,
        });
    }
    let mut t = Table::new(vec![
        "Benchmark",
        "# Inputs",
        "# Versions",
        "# Stable (all versions)",
        "Example stable metric",
        "Avg. % rate of change",
        "Std. Dev.",
        "Min %",
        "Max %",
    ]);
    for r in &rows {
        match &r.example {
            Some(sm) => t.row(vec![
                r.program.clone(),
                r.inputs.to_string(),
                r.versions.to_string(),
                r.common_stable.len().to_string(),
                sm.kind.short_name().to_string(),
                f1(sm.avg_change),
                f1(sm.std_change),
                f1(sm.min),
                f1(sm.max),
            ]),
            None => t.row(vec![
                r.program.clone(),
                r.inputs.to_string(),
                r.versions.to_string(),
                "0".to_string(),
                "(none)".to_string(),
            ]),
        };
    }
    let rendered = format!(
        "Figure 7(B): stable metrics across development versions\n{}",
        t.render()
    );
    (rows, rendered)
}

// ---------------------------------------------------------------------------
// Shared: run one program with both detectors attached
// ---------------------------------------------------------------------------

/// Outcome of one dual-monitored run.
#[derive(Debug)]
pub struct DualRun {
    /// HeapMD anomaly reports.
    pub heapmd_bugs: Vec<BugReport>,
    /// SWAT leak reports resolved to site names.
    pub swat_leaks: Vec<(String, usize)>,
}

/// Runs `w` once with the anomaly detector and the SWAT baseline both
/// attached.
pub fn dual_run(
    w: &dyn Workload,
    model: &HeapModel,
    input: &Input,
    plan: &mut FaultPlan,
    settings: &Settings,
) -> DualRun {
    let detector = Rc::new(RefCell::new(AnomalyDetector::new(
        model.clone(),
        settings.clone(),
    )));
    let swat = Rc::new(RefCell::new(SwatDetector::new(SwatConfig::default())));
    let mut p = Process::new(settings.clone());
    p.attach(detector.clone() as Rc<RefCell<dyn Monitor>>);
    p.attach(swat.clone() as Rc<RefCell<dyn Monitor>>);
    w.run(&mut p, plan, input)
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    let site_names = p.site_names().to_vec();
    let _ = p.finish(format!("{}/dual-{}", w.name(), input.id));
    let swat_leaks = swat
        .borrow()
        .leaks()
        .into_iter()
        .map(|l| (site_names[l.site.0 as usize].clone(), l.objects))
        .collect();
    let heapmd_bugs = detector.borrow_mut().take_bugs();
    DualRun {
        heapmd_bugs,
        swat_leaks,
    }
}

/// The structure token of a fault id: `"mm.playlist.pop_leak"` →
/// `"mm.playlist"`, which prefixes its allocation-site names.
pub fn fault_site_prefix(fault_id: &str) -> &str {
    fault_id
        .rsplit_once('.')
        .map(|(head, _)| head)
        .unwrap_or(fault_id)
}

// ---------------------------------------------------------------------------
// Table 1 — SWAT vs HeapMD on synthesized leak inputs
// ---------------------------------------------------------------------------

/// One app's Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name.
    pub program: String,
    /// Leaks found by SWAT.
    pub swat_leaks: usize,
    /// SWAT false positives (clean-run leak reports).
    pub swat_fps: usize,
    /// Leaks found by HeapMD.
    pub heapmd_leaks: usize,
    /// HeapMD false positives.
    pub heapmd_fps: usize,
    /// Scenario-level detail: (fault id, swat hit, heapmd hit).
    pub detail: Vec<(String, bool, bool)>,
}

/// Reproduces Table 1: each leak scenario is injected separately (the
/// paper's "synthesized inputs that cause the programs to exhibit some
/// … of the same leaks"), and both tools run on the same execution.
pub fn table1(effort: Effort) -> (Vec<Table1Row>, String) {
    let apps = ["multimedia", "webapp", "game_sim"];
    let mut rows = Vec::new();
    for app in apps {
        let w = commercial_at_version(app, 1);
        let settings = settings_for(w.as_ref());
        let model = train(w.as_ref(), &Input::set(effort.training_inputs())).model;
        let check_input = Input::new(1000);

        let mut detail = Vec::new();
        let mut swat_found = 0;
        let mut heapmd_found = 0;

        // HeapMD-visible leaks: the typo bugs of Table 2.
        let typo_bugs: Vec<&BugSpec> = CATALOG
            .iter()
            .filter(|b| b.app == app && b.category == heapmd::BugCategory::ProgrammingTypo)
            .collect();
        // SWAT-only extras.
        let extras: Vec<&SwatOnlyLeak> = SWAT_ONLY.iter().filter(|l| l.app == app).collect();

        for bug in &typo_bugs {
            let mut plan = bug.plan();
            let run = dual_run(w.as_ref(), &model, &check_input, &mut plan, &settings);
            let prefix = fault_site_prefix(bug.fault.0);
            let swat_hit = run
                .swat_leaks
                .iter()
                .any(|(site, _)| site.starts_with(prefix));
            let heapmd_hit = !run.heapmd_bugs.is_empty();
            swat_found += swat_hit as usize;
            heapmd_found += heapmd_hit as usize;
            detail.push((bug.fault.0.to_string(), swat_hit, heapmd_hit));
        }
        for leak in &extras {
            let mut plan = leak.plan();
            let run = dual_run(w.as_ref(), &model, &check_input, &mut plan, &settings);
            let prefix = fault_site_prefix(leak.fault.0);
            let swat_hit = run
                .swat_leaks
                .iter()
                .any(|(site, _)| site.starts_with(prefix));
            let heapmd_hit = !run.heapmd_bugs.is_empty();
            swat_found += swat_hit as usize;
            // A HeapMD hit on a SWAT-only scenario would be a
            // fidelity break; count it so the table exposes it.
            heapmd_found += heapmd_hit as usize;
            detail.push((leak.fault.0.to_string(), swat_hit, heapmd_hit));
        }

        // False positives: a clean run checked by both tools.
        let clean = dual_run(
            w.as_ref(),
            &model,
            &check_input,
            &mut FaultPlan::new(),
            &settings,
        );
        let swat_fps = clean.swat_leaks.len();
        let heapmd_fps = clean.heapmd_bugs.len();

        rows.push(Table1Row {
            program: app.to_string(),
            swat_leaks: swat_found,
            swat_fps,
            heapmd_leaks: heapmd_found,
            heapmd_fps,
            detail,
        });
    }
    let mut t = Table::new(vec![
        "Program",
        "SWAT leaks",
        "SWAT FPs",
        "HeapMD leaks",
        "HeapMD FPs",
    ]);
    for r in &rows {
        t.row(vec![
            r.program.clone(),
            r.swat_leaks.to_string(),
            r.swat_fps.to_string(),
            r.heapmd_leaks.to_string(),
            r.heapmd_fps.to_string(),
        ]);
    }
    let rendered = format!(
        "Table 1: memory leaks found by SWAT and HeapMD (per-scenario injection)\n{}",
        t.render()
    );
    (rows, rendered)
}

// ---------------------------------------------------------------------------
// Table 2 — the 40-bug campaign
// ---------------------------------------------------------------------------

/// One app's Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Program name.
    pub program: String,
    /// Detected bugs per category: typos, shared state, DS invariants,
    /// indirect.
    pub detected: [usize; 4],
    /// Catalogued bugs per category.
    pub catalogued: [usize; 4],
    /// False positives over the clean check runs.
    pub false_positives: usize,
    /// Bugs that were missed: (fault id, category).
    pub missed: Vec<(String, heapmd::BugCategory)>,
}

fn category_index(c: heapmd::BugCategory) -> usize {
    match c {
        heapmd::BugCategory::ProgrammingTypo => 0,
        heapmd::BugCategory::SharedState => 1,
        heapmd::BugCategory::DataStructureInvariant => 2,
        heapmd::BugCategory::Indirect => 3,
    }
}

/// Reproduces Table 2: trains a clean model per commercial program,
/// injects each of the 40 catalogued bugs individually, and counts
/// detections per category plus false positives on clean inputs.
pub fn table2(effort: Effort) -> (Vec<Table2Row>, String) {
    let apps = [
        "multimedia",
        "webapp",
        "game_sim",
        "game_action",
        "productivity",
    ];
    let mut rows = Vec::new();
    for app in apps {
        let w = commercial_at_version(app, 1);
        let model = train(w.as_ref(), &Input::set(effort.training_inputs())).model;
        let mut detected = [0usize; 4];
        let mut catalogued = [0usize; 4];
        let mut missed = Vec::new();
        for bug in CATALOG.iter().filter(|b| b.app == app) {
            catalogued[category_index(bug.category)] += 1;
            let mut hit = false;
            for k in 0..effort.check_inputs() {
                let input = Input::new(2000 + k as u32);
                let mut plan = bug.plan();
                let bugs = workloads::harness::check(w.as_ref(), &model, &input, &mut plan);
                if !bugs.is_empty() {
                    hit = true;
                    break;
                }
            }
            if hit {
                detected[category_index(bug.category)] += 1;
            } else {
                missed.push((bug.fault.0.to_string(), bug.category));
            }
        }
        // False positives: clean check runs.
        let mut false_positives = 0;
        for k in 0..effort.check_inputs() {
            let input = Input::new(3000 + k as u32);
            let bugs = workloads::harness::check(w.as_ref(), &model, &input, &mut FaultPlan::new());
            false_positives += bugs.len();
        }
        rows.push(Table2Row {
            program: app.to_string(),
            detected,
            catalogued,
            false_positives,
            missed,
        });
    }
    let mut t = Table::new(vec![
        "Program",
        "Typos",
        "Shared state",
        "DS invariants",
        "Indirect",
        "False positives",
    ]);
    let mut totals = [0usize; 4];
    let mut cat_totals = [0usize; 4];
    for r in &rows {
        t.row(vec![
            r.program.clone(),
            format!("{}/{}", r.detected[0], r.catalogued[0]),
            format!("{}/{}", r.detected[1], r.catalogued[1]),
            format!("{}/{}", r.detected[2], r.catalogued[2]),
            format!("{}/{}", r.detected[3], r.catalogued[3]),
            r.false_positives.to_string(),
        ]);
        for i in 0..4 {
            totals[i] += r.detected[i];
            cat_totals[i] += r.catalogued[i];
        }
    }
    t.row(vec![
        "Total".to_string(),
        format!("{}/{}", totals[0], cat_totals[0]),
        format!("{}/{}", totals[1], cat_totals[1]),
        format!("{}/{}", totals[2], cat_totals[2]),
        format!("{}/{}", totals[3], cat_totals[3]),
        rows.iter()
            .map(|r| r.false_positives)
            .sum::<usize>()
            .to_string(),
    ]);
    let mut rendered = format!(
        "Table 2: bugs found by HeapMD (detected/catalogued per category)\n{}",
        t.render()
    );
    for r in &rows {
        for (id, cat) in &r.missed {
            rendered.push_str(&format!("MISSED: {id} ({cat})\n"));
        }
    }
    (rows, rendered)
}

// ---------------------------------------------------------------------------
// Figure 10 — the calibrated-range violation plot
// ---------------------------------------------------------------------------

/// Result of the Figure 10 experiment.
#[derive(Debug)]
pub struct Fig10 {
    /// Rendered plot and report.
    pub rendered: String,
    /// The anomaly reports raised on the buggy run.
    pub bugs: Vec<BugReport>,
    /// Whether Indeg=1 was the (or a) violated metric.
    pub indeg1_violated: bool,
}

/// Reproduces Figure 10: the PC game (action) run with the scene-tree
/// parent-pointer bug drives *indegree = 1* out of its calibrated
/// range.
pub fn fig10(effort: Effort) -> Fig10 {
    let w = commercial_at_version("game_action", 1);
    let settings = settings_for(w.as_ref());
    let model = train(w.as_ref(), &Input::set(effort.training_inputs())).model;
    let spec = CATALOG
        .iter()
        .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
        .expect("catalogued");

    let input = Input::new(4000);
    let mut plan = spec.plan();
    let report = run_once(w.as_ref(), &input, &mut plan, &settings);
    let bugs = AnomalyDetector::check_report(&model, &settings, &report);

    let series = report.series(MetricKind::Indeg1);
    let mut refs = Vec::new();
    if let Some(sm) = model.stable_metric(MetricKind::Indeg1) {
        refs.push(RefLine {
            value: sm.max,
            glyph: '=',
            label: "calibrated max",
        });
        refs.push(RefLine {
            value: sm.min,
            glyph: '-',
            label: "calibrated min",
        });
    }
    let mut rendered = chart(
        "Figure 10: % of vertexes with indegree = 1, PC Game (action), buggy input",
        &series,
        72,
        14,
        &refs,
    );
    let indeg1_violated = bugs.iter().any(|b| {
        b.metric == MetricKind::Indeg1 && matches!(b.kind, AnomalyKind::RangeViolation { .. })
    });
    rendered.push('\n');
    for b in &bugs {
        rendered.push_str(&format!("REPORT: {b}\n"));
    }
    Fig10 {
        rendered,
        bugs,
        indeg1_violated,
    }
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — one detected exemplar per taxonomy class
// ---------------------------------------------------------------------------

/// Reproduces the taxonomy of Figures 8/9 as executable exemplars: for
/// one representative bug per category, reports whether it was caught
/// and which functions the call-stack log implicates.
pub fn fig8_9(effort: Effort) -> String {
    let exemplars = [
        (
            "mm.playlist.pop_leak",
            "Figure 8/1: programming typo (leak)",
        ),
        (
            "mm.stream_ring.free_shared_head",
            "Figure 8/2 = Figure 12: shared-state error",
        ),
        (
            "ga.scene_tree.skip_parent",
            "Figure 8/3 = Figure 1/10: data-structure invariant",
        ),
        (
            "ga.world_octree.alias",
            "Figure 8/3(B): oct-DAG (poorly disguised)",
        ),
        (
            "gs.collision_hash.degenerate",
            "Figure 9: indirect performance bug (hash)",
        ),
        (
            "webapp.sitegraph.atypical",
            "Figure 9: indirect logic bug (atypical graph)",
        ),
    ];
    let mut out = String::new();
    let mut models: std::collections::HashMap<String, HeapModel> = Default::default();
    for (fault, title) in exemplars {
        let bug = CATALOG
            .iter()
            .find(|b| b.fault.0 == fault)
            .expect("catalogued");
        let w = commercial_at_version(bug.app, 1);
        let model = models
            .entry(bug.app.to_string())
            .or_insert_with(|| train(w.as_ref(), &Input::set(effort.training_inputs())).model)
            .clone();
        let mut plan = bug.plan();
        let bugs = workloads::harness::check(w.as_ref(), &model, &Input::new(5000), &mut plan);
        out.push_str(&format!("{title}\n  bug: {}\n", bug.description));
        match bugs.first() {
            Some(b) => {
                out.push_str(&format!("  DETECTED: {b}\n"));
                let funcs = b.implicated_functions();
                if !funcs.is_empty() {
                    out.push_str(&format!(
                        "  implicated functions: {}\n",
                        funcs.into_iter().take(4).collect::<Vec<_>>().join(", ")
                    ));
                }
            }
            None => out.push_str("  NOT DETECTED\n"),
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// §4.2 — artificially injected bugs in SPEC programs
// ---------------------------------------------------------------------------

/// Reproduces the paper's validation by artificial injection: enables
/// the data-structure library's default fault ids inside SPEC programs
/// and checks that HeapMD notices.
pub fn injection(effort: Effort) -> (Vec<(String, String, bool)>, String) {
    use sim_ds::fault_ids as ids;
    // Each scenario names a fault whose call-site the program actually
    // exercises (gzip pops its descriptor list, crafty hashes into its
    // transposition table, gcc builds ASTs, …).
    let scenarios: [(&str, faults::FaultId); 6] = [
        ("gzip", ids::LIST_SMALL_LEAK),
        ("crafty", ids::HASH_DEGENERATE),
        ("gcc", ids::BINTREE_SKIP_PARENT),
        ("mcf", ids::LIST_SMALL_LEAK),
        ("mcf", ids::GRAPH_ATYPICAL),
        ("vortex", ids::DLIST_SKIP_PREV),
    ];
    let mut results = Vec::new();
    let mut models: std::collections::HashMap<String, HeapModel> = Default::default();
    for (program, fault) in scenarios {
        let w = registry()
            .into_iter()
            .find(|w| w.name() == program)
            .expect("registered");
        let model = models
            .entry(program.to_string())
            .or_insert_with(|| {
                train(
                    w.as_ref(),
                    &Input::set(effort.inputs(paper_input_count(program)).max(3)),
                )
                .model
            })
            .clone();
        let mut detected = false;
        for k in 0..effort.check_inputs() {
            let mut plan = FaultPlan::single(fault);
            let bugs = workloads::harness::check(
                w.as_ref(),
                &model,
                &Input::new(6000 + k as u32),
                &mut plan,
            );
            if !bugs.is_empty() {
                detected = true;
                break;
            }
        }
        results.push((program.to_string(), fault.0.to_string(), detected));
    }
    let mut t = Table::new(vec!["Program", "Injected fault", "Detected"]);
    for (p, f, d) in &results {
        t.row(vec![
            p.clone(),
            f.clone(),
            if *d { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let rendered = format!(
        "§4.2 validation: artificially injected bugs in SPEC programs\n{}",
        t.render()
    );
    (results, rendered)
}

// ---------------------------------------------------------------------------
// §3 — threshold sensitivity
// ---------------------------------------------------------------------------

/// Reproduces the §3 resilience claim: "Increasing these thresholds
/// moderately does not result in additional metrics being classified as
/// globally-stable. On the other hand, decreasing these thresholds
/// results in fewer metrics being classified as globally-stable."
///
/// Returns, per threshold scale factor, the total stable-metric count
/// across the probed programs.
pub fn threshold_sensitivity(effort: Effort) -> (Vec<(f64, usize)>, String) {
    use heapmd::ModelBuilder;
    let scales = [0.25, 0.5, 1.0, 2.0, 4.0];
    let programs = ["gzip", "parser", "vpr", "multimedia", "productivity"];
    // Collect reports once per program; re-summarize per threshold.
    let mut corpora = Vec::new();
    for name in programs {
        let w = registry()
            .into_iter()
            .find(|w| w.name() == name)
            .expect("registered");
        let settings = settings_for(w.as_ref());
        let n = effort.inputs(6);
        let reports: Vec<_> = Input::set(n)
            .iter()
            .map(|i| run_once(w.as_ref(), i, &mut FaultPlan::new(), &settings))
            .collect();
        corpora.push((name, settings, reports));
    }
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "Threshold scale",
        "Avg-chg thr",
        "Std-dev thr",
        "Total stable metrics",
    ]);
    for &scale in &scales {
        let mut total = 0usize;
        for (_, base, reports) in &corpora {
            let settings = Settings::builder()
                .frq(base.frq)
                .avg_change_threshold(base.avg_change_threshold * scale)
                .std_change_threshold(base.std_change_threshold * scale)
                .build()
                .expect("scaled settings valid");
            let mut b = ModelBuilder::new(settings);
            for r in reports {
                b.add_run(r);
            }
            total += b.build().model.stable.len();
        }
        t.row(vec![
            format!("{scale}×"),
            format!("{:.2}%", 1.0 * scale),
            format!("{:.1}", 5.0 * scale),
            total.to_string(),
        ]);
        rows.push((scale, total));
    }
    let rendered = format!(
        "§3 threshold sensitivity (stable-metric count over {} programs)\n{}",
        corpora.len(),
        t.render()
    );
    (rows, rendered)
}

// ---------------------------------------------------------------------------
// PR 10 — production-overhead mode: detection × sampling rate × overhead
// ---------------------------------------------------------------------------

/// One cell of the sampling sweep: a commercial program checked under
/// one sampling config.
#[derive(Debug, Clone)]
pub struct SamplingSweepRow {
    /// Program name.
    pub program: String,
    /// Config label: `exact`, `default` (512/32), or `decim128`.
    pub config: String,
    /// Catalogued bugs detected under this config.
    pub detected: usize,
    /// Catalogued bugs for this program.
    pub catalogued: usize,
    /// Anomalies raised on clean check inputs.
    pub false_positives: usize,
    /// Measured effective store-sampling rate of a clean run.
    pub effective_rate: f64,
    /// Monitored replay cost under this config, ns/event (median).
    pub ns_per_event_monitored: f64,
    /// Unmonitored replay baseline (decode + bare-heap re-execution),
    /// ns/event (median). Identical across configs of one program.
    pub ns_per_event_unmonitored: f64,
}

impl SamplingSweepRow {
    /// Monitoring overhead relative to unmonitored replay, percent
    /// (negative = sampled monitoring is cheaper than re-execution).
    pub fn overhead_pct(&self) -> f64 {
        (self.ns_per_event_monitored / self.ns_per_event_unmonitored - 1.0) * 100.0
    }
}

/// Median of `n` timed runs of `f`, in nanoseconds (one warmup).
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut runs: Vec<u128> = (0..n)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2] as f64
}

/// Unmonitored replay: decode the image and re-execute every event
/// against a bare simulated heap (the deterministic allocator
/// reproduces recorded addresses; a dense `ObjectId -> Addr` map is
/// the only state). This is what running the recorded program without
/// monitoring costs the replay plane — the overhead denominator.
fn reexecute_unmonitored(image: &heapmd::BinaryTraceImage, buf: &mut Vec<sim_heap::HeapEvent>) {
    use sim_heap::{Addr, HeapEvent, SimHeap, NULL};
    let mut heap = SimHeap::new();
    let mut base: Vec<Addr> = Vec::new();
    for entry in image.event_blocks() {
        image
            .decode_block_into(entry, buf)
            .expect("bench image decodes");
        for ev in buf.iter() {
            match *ev {
                HeapEvent::Alloc {
                    obj, size, site, ..
                } => {
                    let a = heap.alloc(size, site).expect("replayed alloc").addr;
                    let idx = obj.0 as usize;
                    if base.len() <= idx {
                        base.resize(idx + 1, NULL);
                    }
                    base[idx] = a;
                }
                HeapEvent::Free { obj, .. } => {
                    heap.free(base[obj.0 as usize]).expect("replayed free");
                }
                HeapEvent::PtrWrite {
                    src, offset, value, ..
                } => {
                    let _ = heap.write_ptr(base[src.0 as usize].offset(offset), value);
                }
                HeapEvent::ScalarWrite { src, offset, .. } => {
                    let _ = heap.write_scalar(base[src.0 as usize].offset(offset));
                }
                _ => {}
            }
        }
    }
}

/// The PR 10 sweep: per commercial program × sampling config, measure
/// catalogued-bug detection, clean-run false positives, the measured
/// effective rate, and monitored-replay cost against the unmonitored
/// re-execution baseline.
///
/// Training always runs exact; sampling applies to checking only (the
/// production deployment: models are built once on developer machines,
/// monitoring runs sampled in the field with ranges widened by the
/// effective rate).
pub fn sampling_sweep(effort: Effort) -> (Vec<SamplingSweepRow>, String) {
    use heapmd::{BinaryTraceImage, ModelBuilder, SamplerConfig};
    use workloads::harness::{check_in, run_in};
    let apps = [
        "multimedia",
        "webapp",
        "game_sim",
        "game_action",
        "productivity",
    ];
    // `matched: true` trains the model under the same sampler config
    // instead of checking against the exact model — the deployment
    // that trades detection surface (fewer metrics calibrate stable on
    // noisier sampled runs) for a clean-run false-positive floor (no
    // rate mismatch, so no bias gap and no widening).
    let configs: [(&str, Option<SamplerConfig>, bool); 4] = [
        ("exact", None, false),
        ("default", Some(SamplerConfig::default()), false),
        (
            "decim128",
            Some(SamplerConfig::new(
                SamplerConfig::DEFAULT_HOT_THRESHOLD,
                128,
            )),
            false,
        ),
        ("default_matched", Some(SamplerConfig::default()), true),
    ];
    let timing_iters = match effort {
        Effort::Quick => 3,
        Effort::Full => 7,
    };
    let mut rows = Vec::new();
    for app in apps {
        let w = commercial_at_version(app, 1);
        let settings = settings_for(w.as_ref());
        let process = |config: Option<SamplerConfig>| {
            let mut p = Process::new(settings.clone());
            if let Some(c) = config {
                p.enable_sampling(c);
            }
            p
        };
        let model = train(w.as_ref(), &Input::set(effort.training_inputs())).model;
        // One clean recorded trace per program drives every timing
        // measurement and the effective-rate readout.
        let mut p = Process::new(settings.clone());
        p.enable_trace();
        w.run(&mut p, &mut FaultPlan::new(), &Input::new(1000))
            .expect("clean run");
        let trace = p.take_trace().expect("trace enabled");
        let events = trace.len() as f64;
        let image = BinaryTraceImage::open(trace.encode_binary()).expect("encodes");
        let mut buf = Vec::new();
        let unmonitored_ns =
            median_ns(timing_iters, || reexecute_unmonitored(&image, &mut buf)) / events;
        let catalogued = CATALOG.iter().filter(|b| b.app == app).count();
        for (label, config, matched) in configs {
            let model = if matched {
                let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
                for input in Input::set(effort.training_inputs()) {
                    let mut plan = FaultPlan::new();
                    builder.add_run(&run_in(process(config), w.as_ref(), &input, &mut plan));
                }
                builder.build().model
            } else {
                model.clone()
            };
            let monitored_ns = match config {
                None => median_ns(timing_iters, || {
                    heapmd::replay_binary_fused(&image, &settings, "sweep").expect("replays");
                }),
                Some(c) => median_ns(timing_iters, || {
                    heapmd::replay_binary_fused_sampled(&image, &settings, "sweep", c)
                        .expect("replays");
                }),
            } / events;
            let effective_rate = config.map_or(1.0, |c| trace.sampled(c).sample_rate());
            let check = |input: u32, plan: &mut FaultPlan| {
                check_in(
                    process(config),
                    w.as_ref(),
                    &model,
                    &Input::new(input),
                    plan,
                    None,
                )
                .bugs
            };
            let mut detected = 0;
            for bug in CATALOG.iter().filter(|b| b.app == app) {
                for k in 0..effort.check_inputs() {
                    let mut plan = bug.plan();
                    if !check(2000 + k as u32, &mut plan).is_empty() {
                        detected += 1;
                        break;
                    }
                }
            }
            let mut false_positives = 0;
            for k in 0..effort.check_inputs() {
                false_positives += check(3000 + k as u32, &mut FaultPlan::new()).len();
            }
            rows.push(SamplingSweepRow {
                program: app.to_string(),
                config: label.to_string(),
                detected,
                catalogued,
                false_positives,
                effective_rate,
                ns_per_event_monitored: monitored_ns,
                ns_per_event_unmonitored: unmonitored_ns,
            });
        }
    }
    let mut t = Table::new(vec![
        "Program",
        "Config",
        "Detected",
        "False pos",
        "Eff. rate",
        "ns/event (mon)",
        "ns/event (unmon)",
        "Overhead",
    ]);
    for r in &rows {
        t.row(vec![
            r.program.clone(),
            r.config.clone(),
            format!("{}/{}", r.detected, r.catalogued),
            r.false_positives.to_string(),
            format!("{:.4}", r.effective_rate),
            f1(r.ns_per_event_monitored),
            f1(r.ns_per_event_unmonitored),
            format!("{:+.1}%", r.overhead_pct()),
        ]);
    }
    let rendered = format!(
        "PR 10 sweep: detection × sampling rate × overhead (training exact, checking sampled)\n{}",
        t.render()
    );
    (rows, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_prefixes_strip_the_bug_kind() {
        assert_eq!(fault_site_prefix("mm.playlist.pop_leak"), "mm.playlist");
        assert_eq!(
            fault_site_prefix("webapp.session_props.typo_leak"),
            "webapp.session_props"
        );
        assert_eq!(fault_site_prefix("nodots"), "nodots");
    }

    #[test]
    fn every_program_has_a_paper_example_metric_and_input_count() {
        for w in registry() {
            assert!(paper_example_metric(w.name()).is_some(), "{}", w.name());
            assert!(paper_input_count(w.name()) >= 3);
        }
        assert!(paper_example_metric("unknown").is_none());
    }

    #[test]
    fn example_metric_prefers_the_paper_choice() {
        use heapmd::{HeapModel, Settings, StableMetric};
        let sm = |kind: MetricKind, min: f64, max: f64| StableMetric {
            kind: kind.into(),
            min,
            max,
            avg_change: 0.0,
            std_change: 1.0,
            stable_runs: 3,
            total_runs: 3,
        };
        let model = HeapModel {
            version: heapmd::MODEL_FORMAT_VERSION,
            program: "vpr".into(),
            settings: Settings::default(),
            // A narrower non-paper metric AND the paper choice.
            stable: vec![
                sm(MetricKind::Roots, 1.0, 2.0),
                sm(MetricKind::Outdeg1, 5.0, 35.0),
            ],
            unstable: vec![],
            locally_stable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        };
        assert_eq!(
            example_metric("vpr", &model).unwrap().kind,
            MetricKind::Outdeg1
        );
        // Without the paper choice, fall back to the narrowest range.
        let model2 = HeapModel {
            stable: vec![
                sm(MetricKind::Roots, 1.0, 2.0),
                sm(MetricKind::Indeg2, 5.0, 50.0),
            ],
            ..model
        };
        assert_eq!(
            example_metric("vpr", &model2).unwrap().kind,
            MetricKind::Roots
        );
    }
}
