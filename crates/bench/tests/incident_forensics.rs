//! End-to-end tests of the anomaly flight recorder: a bound-crossing
//! workload must leave behind an incident bundle that survives a
//! persistence round trip, salvages after a single bit flip, stays
//! panic-free under the `faults::io` matrix, and renders through the
//! real `heapmd inspect` CLI. The Chrome trace-event export is checked
//! for structural validity with a full JSON parse.

use faults::io::{fault_ids, FaultyReader, FaultyWriter};
use faults::{FaultConfig, FaultPlan};
use heapmd::{BugReport, IncidentBundle};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use workloads::bugs::CATALOG;
use workloads::harness::{check_with_incidents, train};
use workloads::{registry, Input};

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");
/// A catalogued fault that reliably drives stable metrics across their
/// calibrated bounds on `game_sim`.
const FAULT: &str = "gs.unit_props.typo_leak";
const PROGRAM: &str = "game_sim";
const BUGGY_INPUT: u32 = 88;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("heapmd-incident-e2e").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn program() -> Box<dyn workloads::Workload> {
    registry()
        .into_iter()
        .find(|w| w.name() == PROGRAM)
        .expect("game_sim is registered")
}

fn fault_plan() -> FaultPlan {
    CATALOG
        .iter()
        .find(|b| b.fault.0 == FAULT)
        .expect("catalogued fault")
        .plan()
}

/// Trains a model and produces incident bundles from one buggy check
/// run, returning the written bundle paths, the in-memory bundles and
/// the run's reports.
fn bundles_from_buggy_run(dir: &Path) -> (Vec<PathBuf>, Vec<IncidentBundle>, Vec<BugReport>) {
    let w = program();
    let model = train(w.as_ref(), &Input::set(6)).model;
    let outcome = check_with_incidents(
        w.as_ref(),
        &model,
        &Input::new(BUGGY_INPUT),
        &mut fault_plan(),
        Some(dir),
    );
    assert!(
        !outcome.bugs.is_empty(),
        "the catalogued fault must cross a calibrated bound"
    );
    assert_eq!(outcome.bundle_paths.len(), outcome.incidents.len());
    (outcome.bundle_paths, outcome.incidents, outcome.bugs)
}

/// The lines of a command's stdout that `render_verdicts` printed.
fn verdict_lines(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(str::to_string)
        .collect()
}

#[test]
fn buggy_run_emits_bundles_that_round_trip() {
    let dir = tmp_dir("roundtrip");
    let (paths, incidents, bugs) = bundles_from_buggy_run(&dir);
    assert!(!incidents.is_empty(), "bound crossing must emit a bundle");
    for (path, expected) in paths.iter().zip(&incidents) {
        let loaded = IncidentBundle::load(path).expect("bundle loads strictly");
        assert_eq!(&loaded, expected, "persistence round trip is lossless");
        loaded.validate().expect("round-tripped bundle validates");
        assert!(
            !loaded.series.is_empty(),
            "flight recorder series must be captured"
        );
        assert!(
            loaded.degrees.is_some(),
            "degree histogram must be captured"
        );
        assert!(
            bugs.contains(&loaded.report),
            "a bundle holds the report it was raised for"
        );
    }
    // At least one bundle carries armed-window stacks with implicated
    // functions (the paper's §3.2 circular-buffer payoff).
    assert!(
        incidents
            .iter()
            .any(|b| !b.report.implicated_functions().is_empty()),
        "no bundle implicated any function"
    );
}

#[test]
fn a_single_bit_flip_is_salvageable() {
    let dir = tmp_dir("bitflip");
    let (paths, incidents, _) = bundles_from_buggy_run(&dir);
    let mut bytes = std::fs::read(&paths[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(
        IncidentBundle::from_bytes_strict(&bytes).is_err(),
        "strict parsing must reject the damaged bundle"
    );
    let (salvaged, stats) = IncidentBundle::salvage_bytes(&bytes);
    let salvaged = salvaged.expect("metadata survives a mid-file flip");
    // The flip may cost a stack record, never the Meta record.
    let meta = |b: &IncidentBundle| {
        (
            BugReport {
                context: Vec::new(),
                ..b.report.clone()
            },
            b.slope.to_bits(),
            b.armed_at_seq,
            b.samples_seen,
        )
    };
    assert_eq!(meta(&salvaged), meta(&incidents[0]), "meta is intact");
    assert!(!stats.complete);
    assert!(stats.skipped <= 2, "resync loses at most two records");
    assert!(stats.corruption.is_some());
}

#[test]
fn faults_io_matrix_is_typed_error_or_valid() {
    let dir = tmp_dir("io-matrix");
    let (paths, _, _) = bundles_from_buggy_run(&dir);
    let pristine = std::fs::read(&paths[0]).unwrap();

    let read_faults = [
        fault_ids::IO_READ_ERROR,
        fault_ids::IO_SHORT_READ,
        fault_ids::IO_BIT_FLIP_READ,
        fault_ids::IO_EARLY_EOF,
    ];
    let schedules = [
        FaultConfig::always(),
        FaultConfig::always().after(2),
        FaultConfig::every(3),
        FaultConfig::always().limit(1),
    ];
    for fault in read_faults {
        for schedule in &schedules {
            let mut plan = FaultPlan::new();
            plan.enable(fault, *schedule);
            let mut r = FaultyReader::new(&pristine[..], plan);
            let mut got = Vec::new();
            match r.read_to_end(&mut got) {
                // A typed I/O error is an acceptable outcome.
                Err(_) => continue,
                Ok(_) => {
                    // Whatever arrived: strict parsing returns a typed
                    // result, salvage never panics.
                    let _ = IncidentBundle::from_bytes_strict(&got);
                    let (_, stats) = IncidentBundle::salvage_bytes(&got);
                    assert!(stats.total_bytes as usize == got.len());
                }
            }
        }
    }

    let write_faults = [
        fault_ids::IO_WRITE_ERROR,
        fault_ids::IO_SHORT_WRITE,
        fault_ids::IO_BIT_FLIP_WRITE,
        fault_ids::IO_FLUSH_INTERRUPT,
    ];
    for fault in write_faults {
        for schedule in &schedules {
            let mut plan = FaultPlan::new();
            plan.enable(fault, *schedule);
            let mut w = FaultyWriter::new(Vec::new(), plan);
            let write_outcome = pristine
                .chunks(256)
                .try_for_each(|chunk| w.write_all(chunk))
                .and_then(|()| w.flush());
            let written = w.into_inner();
            if write_outcome.is_ok() {
                // Survived writing: the artifact must parse or fail
                // with a typed error; salvage must stay panic-free.
                let _ = IncidentBundle::from_bytes_strict(&written);
            }
            let (_, stats) = IncidentBundle::salvage_bytes(&written);
            assert!(stats.total_bytes as usize == written.len());
        }
    }
}

#[test]
fn cli_run_produces_bundles_and_inspect_renders_them() {
    let dir = tmp_dir("cli");
    let model = dir.join("model.json");
    let incidents = dir.join("incidents");

    let status = Command::new(BIN)
        .args([
            "train",
            PROGRAM,
            "--inputs",
            "6",
            "--out",
            model.to_str().unwrap(),
        ])
        .status()
        .expect("spawn heapmd-cli train");
    assert!(status.success(), "training exited with {status}");

    let out = Command::new(BIN)
        .args([
            "run",
            PROGRAM,
            "--input",
            &BUGGY_INPUT.to_string(),
            "--bug",
            FAULT,
            "--model",
            model.to_str().unwrap(),
            "--incidents",
            incidents.to_str().unwrap(),
        ])
        .output()
        .expect("spawn heapmd-cli run");
    assert_eq!(
        out.status.code(),
        Some(3),
        "anomalies exit with code 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("incident bundle written to"),
        "run must report bundle paths:\n{stdout}"
    );
    let reported = verdict_lines(&out.stdout);

    let bundle = std::fs::read_dir(&incidents)
        .expect("incident dir exists")
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "hmdi"))
        .expect("at least one .hmdi bundle");
    let out = Command::new(BIN)
        .args(["inspect", bundle.to_str().unwrap()])
        .output()
        .expect("spawn heapmd-cli inspect");
    assert!(out.status.success());
    let rendered = String::from_utf8_lossy(&out.stdout);
    let verdict = verdict_lines(&out.stdout)
        .into_iter()
        .next()
        .expect("inspect prints the bundle's verdict");
    assert!(
        reported.contains(&verdict),
        "inspect's verdict {verdict:?} is not one of run's:\n{stdout}"
    );
    for needle in ["slope    ", "where    sample #"] {
        assert!(rendered.contains(needle), "missing {needle:?}:\n{rendered}");
    }
    assert!(
        rendered.contains('*'),
        "charts must plot at least one point"
    );
}

/// A bundle a format-2 writer left behind (`run --incidents` on
/// `game_sim` input 88 with `gs.unit_props.typo_leak`) still loads,
/// salvages, and renders the verdict that run printed.
#[test]
fn format_two_bundles_load_salvage_and_render() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/v2_incident.hmdi"
    );
    let printed = "  Leaves: range violation (below calibrated minimum) — value 27.25 vs \
                   calibrated [27.29, 34.15] at sample 7 (in TableDescriptors::walk_props)";
    let strict = IncidentBundle::load(path).expect("a v2 bundle loads strictly");
    let (salvaged, stats) = IncidentBundle::salvage(path).unwrap();
    assert!(stats.complete && stats.corruption.is_none());
    assert_eq!(salvaged.as_ref(), Some(&strict));
    assert_eq!(strict.report.sample_rate, 1.0);
    assert_eq!(strict.report.band_distance, 0.0);
    assert_eq!(format!("  {}", strict.report), printed);
    for extra in [&[][..], &["--salvage"][..]] {
        let out = Command::new(BIN)
            .arg("inspect")
            .arg(path)
            .args(extra)
            .output()
            .expect("spawn heapmd-cli inspect");
        assert!(out.status.success());
        assert_eq!(
            verdict_lines(&out.stdout).first().map(String::as_str),
            Some(printed)
        );
    }
}

/// `replay` is `check`: under `--sample` both print the same output for
/// one binary trace, and `--sample-decimation 1` reports exactly what
/// an unsampled check does.
#[test]
fn replay_sample_matches_check_sample_and_decimation_one_is_exact() {
    let dir = tmp_dir("replay-sample");
    let model = dir.join("model.json");
    let trace = dir.join("bug.hmdt");
    let (model, trace) = (model.to_str().unwrap(), trace.to_str().unwrap());
    let status = Command::new(BIN)
        .args(["train", PROGRAM, "--inputs", "6", "--out", model])
        .status()
        .expect("spawn heapmd-cli train");
    assert!(status.success(), "training exited with {status}");
    let input = BUGGY_INPUT.to_string();
    let status = Command::new(BIN)
        .args(["run", PROGRAM, "--input", &input, "--bug", FAULT])
        .args(["--trace-out", trace])
        .status()
        .expect("spawn heapmd-cli run");
    assert!(status.success(), "recording exited with {status}");
    let cli = |cmd: &str, extra: &[&str]| {
        Command::new(BIN)
            .args([cmd, "--model", model, "--trace", trace])
            .args(extra)
            .output()
            .expect("spawn heapmd-cli")
    };
    let exact = cli("check", &[]);
    assert_eq!(exact.status.code(), Some(3), "the fault must be reported");
    let passthrough = cli("check", &["--sample-decimation", "1"]);
    assert_eq!(passthrough.status.code(), exact.status.code());
    // The bug block only: a sampled check's header names its rate.
    assert_eq!(
        verdict_lines(&passthrough.stdout),
        verdict_lines(&exact.stdout)
    );

    let replayed = cli("replay", &["--sample"]);
    let checked = cli("check", &["--sample"]);
    assert_eq!(replayed.status.code(), checked.status.code());
    let checked_out = String::from_utf8_lossy(&checked.stdout);
    assert!(
        checked_out.contains("(sampled at"),
        "check --sample names its rate:\n{checked_out}"
    );
    assert_eq!(String::from_utf8_lossy(&replayed.stdout), checked_out);
}

#[test]
fn chrome_trace_export_is_structurally_valid_json() {
    let dir = tmp_dir("trace-events");
    let trace = dir.join("trace.json");
    let status = Command::new(BIN)
        .args([
            "--trace-events",
            trace.to_str().unwrap(),
            "run",
            PROGRAM,
            "--input",
            "7",
        ])
        .status()
        .expect("spawn heapmd-cli run");
    assert!(status.success());

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let value: serde_json::Value =
        serde_json::from_str(&text).expect("trace-event export parses as JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "an instrumented run must emit spans");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(ev.get("cat").and_then(|v| v.as_str()), Some("heapmd"));
        for key in ["name", "ts", "dur", "pid", "tid", "args"] {
            assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
        }
    }
    assert!(value.get("displayTimeUnit").is_some());
}
