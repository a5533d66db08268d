//! Chaos suite for the columnar run store: segment files damaged
//! through the deterministic fault-injection wrappers must *degrade* —
//! scans keep returning the surviving rows with honest damage counts,
//! never panic, and never accept corrupt data as valid.
//!
//! The store's own unit tests cover clean round-trips and single-flip
//! salvage; this suite stresses the directory-level contract under
//! scripted media corruption and truncation, the way the trace/model
//! persistence chaos suites do.

use faults::io::{fault_ids::IO_BIT_FLIP_READ, FaultyReader};
use faults::{FaultConfig, FaultPlan};
use heapmd::{StreamFormat, Trace};
use heapmd_runstore::{RowFilter, RowKind, RunRow, RunStore};
use std::io::Read;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");

fn row(version: u64, seq: u64, roots: f64) -> RunRow {
    RunRow {
        workload: "chaos".into(),
        version,
        run: format!("input-{seq}"),
        tenant: String::new(),
        kind: RowKind::Check,
        time: 1_700_000_000 + seq,
        seq,
        fn_entries: seq * 100,
        nodes: 40 + seq,
        edges: 39 + seq,
        dangling: 0,
        metrics: vec![
            ("paper.roots".into(), roots),
            ("dist.in_entropy".into(), 1.5 + roots / 100.0),
        ],
    }
}

/// A store with three segments of 32 rows each, versions 1..=3.
fn seeded_store(dir: &Path) -> RunStore {
    let store = RunStore::open(dir).unwrap();
    for version in 1..=3u64 {
        let rows: Vec<RunRow> = (0..32)
            .map(|seq| row(version, seq, 85.0 + version as f64 + seq as f64 / 10.0))
            .collect();
        store.append(&rows).unwrap();
    }
    store
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("heapmd-rs-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn clean_store_scans_every_row() {
    let dir = temp_dir("clean");
    let store = seeded_store(&dir);
    let out = store.scan(&RowFilter::default(), None).unwrap();
    assert_eq!(out.rows.len(), 96);
    assert_eq!(out.segments_read, 3);
    assert_eq!(out.segments_skipped, 0);
    assert_eq!(out.damaged_blocks, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_segments_degrade_but_never_panic() {
    // Re-read every segment through a reader that flips one bit every
    // `period` bytes, at several offsets, and rewrite it in place: a
    // deterministic sweep over media-corruption shapes. Every scan must
    // succeed, return only verifiable rows, and count the damage.
    let dir = temp_dir("bitflip");
    for period in [64u64, 256, 1024] {
        for after in [0u64, 13, 399] {
            std::fs::remove_dir_all(&dir).ok();
            let store = seeded_store(&dir);
            for seg in store.segments().unwrap() {
                let pristine = std::fs::read(&seg).unwrap();
                let mut plan = FaultPlan::new();
                plan.enable(IO_BIT_FLIP_READ, FaultConfig::every(period).after(after));
                let mut reader = FaultyReader::new(&pristine[..], plan);
                let mut damaged = Vec::new();
                // Read in small chunks so the per-call fault schedule
                // lands at many distinct offsets.
                let mut buf = [0u8; 57];
                loop {
                    match reader.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => damaged.extend_from_slice(&buf[..n]),
                        Err(_) => break,
                    }
                }
                std::fs::write(&seg, &damaged).unwrap();
            }
            let out = store
                .scan(&RowFilter::default(), None)
                .expect("scan must degrade, not fail");
            assert!(out.rows.len() <= 96, "more rows than were written");
            assert_eq!(
                out.segments_read + out.segments_skipped,
                3,
                "every segment accounted for"
            );
            // Each surviving row must carry plausible dimension data —
            // corrupt blocks may be dropped, never mangled into rows.
            for r in &out.rows {
                assert_eq!(r.workload, "chaos");
                assert!((1..=3).contains(&r.version));
                assert!(r.seq < 32);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_any_point_salvages_or_skips() {
    // Chop one segment at a sweep of lengths: the scan keeps working,
    // recovering what the intact prefix blocks still hold.
    let dir = temp_dir("trunc");
    let store = seeded_store(&dir);
    let victim = store.segments().unwrap()[1].clone();
    let pristine = std::fs::read(&victim).unwrap();
    for cut in (0..pristine.len()).step_by(37) {
        std::fs::write(&victim, &pristine[..cut]).unwrap();
        let out = store
            .scan(&RowFilter::default(), None)
            .expect("truncated segment must not fail the scan");
        // The two intact segments always contribute their 64 rows.
        assert!(out.rows.len() >= 64, "intact segments lost at cut {cut}");
        assert!(out.rows.len() <= 96);
        assert_eq!(out.segments_read + out.segments_skipped, 3);
    }
    // Restore: full recovery, nothing sticky about past damage.
    std::fs::write(&victim, &pristine).unwrap();
    let out = store.scan(&RowFilter::default(), None).unwrap();
    assert_eq!(out.rows.len(), 96);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_tmp_files_are_not_segments() {
    // A crash between write and rename leaves a `.tmp` sibling; the
    // store must ignore it (and anything else that is not seg-*.hmdr).
    let dir = temp_dir("tmp");
    let store = seeded_store(&dir);
    std::fs::write(dir.join("seg-00000007.hmdr.tmp"), b"torn write").unwrap();
    std::fs::write(dir.join("notes.txt"), b"unrelated").unwrap();
    assert_eq!(store.segments().unwrap().len(), 3);
    let out = store.scan(&RowFilter::default(), None).unwrap();
    assert_eq!(out.rows.len(), 96);
    assert_eq!(out.segments_skipped, 0);
    // And appends keep numbering past the junk without tripping on it.
    store.append(&[row(4, 0, 90.0)]).unwrap();
    assert_eq!(store.segments().unwrap().len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Offline `check --trace … --run-store` appends one row per metric
/// computation point of every trace, and those rows do not depend on
/// the pool width or on the traces' on-disk format.
#[test]
fn offline_check_rows_match_across_jobs_and_formats() {
    let dir = temp_dir("cli-check");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let cli = |args: &[&str]| {
        Command::new(BIN)
            .args(args)
            .output()
            .expect("spawn heapmd-cli")
    };
    let model = path("model.json");
    let out = cli(&["train", "gzip", "--inputs", "3", "--out", &model]);
    assert!(out.status.success(), "train: {out:?}");
    for (input, name) in [("11", "a"), ("12", "b")] {
        let trace = path(&format!("{name}.hmdt"));
        let out = cli(&["run", "gzip", "--input", input, "--trace-out", &trace]);
        assert!(out.status.success(), "run --trace-out {trace}: {out:?}");
        // The CLI writes binary only; the JSONL copy is the reference
        // codec's rendering of the same trace.
        Trace::load_binary(&trace)
            .unwrap()
            .save_format(path(&format!("{name}.jsonl")), StreamFormat::Jsonl)
            .unwrap();
    }
    // Rows as the store holds them, minus the wall-clock stamp and with
    // the run named by its trace stem (the path differs per format).
    // Debug rendering keeps NaN (absent metric) cells comparable.
    let rows = |ext: &str, jobs: &str, store: &str| -> Vec<String> {
        let (a, b) = (path(&format!("a.{ext}")), path(&format!("b.{ext}")));
        let store = path(store);
        let out = cli(&[
            "check",
            "--model",
            &model,
            "--trace",
            &a,
            "--trace",
            &b,
            "--run-store",
            &store,
            "--jobs",
            jobs,
        ]);
        assert!(matches!(out.status.code(), Some(0 | 3)), "check: {out:?}");
        let scan = RunStore::open(&store)
            .unwrap()
            .scan(&RowFilter::default(), None)
            .unwrap();
        scan.rows
            .into_iter()
            .map(|mut r| {
                r.time = 0;
                r.run = Path::new(&r.run)
                    .file_stem()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                format!("{r:?}")
            })
            .collect()
    };
    let one = rows("hmdt", "1", "s-bin-1");
    assert!(!one.is_empty(), "a check must append rows");
    assert!(one.iter().any(|r| r.contains("run: \"a\"")));
    assert!(one.iter().any(|r| r.contains("run: \"b\"")));
    assert_eq!(
        rows("hmdt", "2", "s-bin-2"),
        one,
        "--jobs 2 changed the rows"
    );
    assert_eq!(
        rows("jsonl", "1", "s-jsonl"),
        one,
        "JSONL copies changed the rows"
    );
    std::fs::remove_dir_all(&dir).ok();
}
