//! The `heapmd` CLI refuses what it would otherwise ignore or lose —
//! unknown flags, stray positional words, removed commands, flag
//! combinations whose output could not carry the run's sampling
//! outcome — before it runs anything; and `run --model`, its one live
//! check, agrees with the post-mortem `check` of the run's own
//! recording. A closed stdout ends it quietly.

use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");

fn cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run heapmd-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_sampled_run_cannot_stream_to_the_daemon() {
    // Refused before any connection attempt: nothing listens here.
    let out = cli(&[
        "run",
        "gzip",
        "--input",
        "11",
        "--sample",
        "--serve",
        "127.0.0.1:1",
        "--tenant",
        "t",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--serve cannot stream a --sample run"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_flags_and_removed_commands_are_usage_errors() {
    let trace = std::env::temp_dir().join(format!("heapmd-refusal-{}.hmdt", std::process::id()));
    let trace = trace.to_str().unwrap();
    for (args, names) in [
        (&["record", "gzip", "--trace", trace][..], None),
        (&["check", "gzip", "--model", "m"][..], Some("gzip")),
        (
            &["check", "not_a_program", "--model", "m", "--trace", trace][..],
            Some("not_a_program"),
        ),
        (
            &["run", "gzip", "extra-word", "--input", "11"][..],
            Some("extra-word"),
        ),
        (&["replay", "gzip", "--model", "m"][..], Some("gzip")),
        (&["inspect", trace, "extra-word"][..], Some("extra-word")),
        (&["check", "--model", "m"][..], Some("--trace")),
        (&["run", "gzip", "--format", "jsonl"][..], Some("--format")),
        (&["run", "gzip", "--bogus"][..], Some("--bogus")),
        (&["run", "gzip", "--shards", "2"][..], Some("--shards")),
        (&["train", "gzip", "--inputs", "0"][..], Some("--inputs")),
        (&["train", "gzip", "--threads", "0"][..], Some("--threads")),
        (
            &["check", "--model", "m", "--trace", trace, "--jobs", "0"][..],
            Some("--jobs"),
        ),
        (
            &["check", "--model", "m", "--trace", trace, "--shards", "0"][..],
            Some("--shards"),
        ),
        (
            &["serve", "--model", "m", "--shards", "0"][..],
            Some("--shards"),
        ),
        (
            &["check", "--input", "5", "--trace", trace][..],
            Some("--input"),
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        if let Some(flag) = names {
            assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
        }
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    assert!(
        !std::path::Path::new(trace).exists(),
        "nothing was recorded"
    );
}

/// A trace in the retired framed-JSONL format (`HMDT1`) is refused by
/// name — `check --trace`, `inspect` and `push` each exit 1 as for any
/// unreadable trace, without a panic — rather than read or mistaken for
/// an unknown artifact.
#[test]
fn retired_jsonl_traces_are_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("heapmd-hmdt1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A complete, empty `HMDT1` stream: a header and an end record.
    let trace = dir.join("old.hmdt");
    let line = |payload: &str| {
        format!(
            "HMDT1 {:08x} {:08x} {payload}\n",
            payload.len(),
            heapmd_runstore::persist::crc32(payload.as_bytes())
        )
    };
    let stream = line(r#"{"Header":{"format":1}}"#) + &line(r#"{"End":{"events":0}}"#);
    std::fs::write(&trace, stream).unwrap();
    let model = dir.join("model.json");
    let report = heapmd::MetricReport::new("r", Vec::new());
    let mut builder = heapmd::ModelBuilder::new(heapmd::Settings::default()).program("p");
    builder.add_run(&report);
    builder.build().model.save(&model).unwrap();
    let (trace, model) = (trace.to_str().unwrap(), model.to_str().unwrap());
    for args in [
        &["check", "--model", model, "--trace", trace][..],
        &["inspect", trace][..],
        &[
            "push",
            "--to",
            "127.0.0.1:1",
            "--tenant",
            "t",
            "--trace",
            trace,
        ][..],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("HMDT1"), "{args:?}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("panicked"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The live check and the post-mortem check of the same run print the
/// same bug block (reports and their `implicated:` lines).
#[test]
fn run_with_a_model_matches_check_of_its_recording() {
    let dir = std::env::temp_dir().join(format!("heapmd-run-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("gs.json");
    let trace = dir.join("bug.hmdt");
    let (model, trace) = (model.to_str().unwrap(), trace.to_str().unwrap());
    let out = cli(&["train", "game_sim", "--inputs", "6", "--out", model]);
    assert!(out.status.success(), "train: {}", stderr(&out));
    let bug_block = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("  "))
            .map(str::to_string)
            .collect()
    };
    let live = cli(&[
        "run",
        "game_sim",
        "--input",
        "88",
        "--bug",
        "gs.unit_props.typo_leak",
        "--model",
        model,
        "--trace-out",
        trace,
    ]);
    let checked = cli(&["check", "--model", model, "--trace", trace]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(live.status.code(), Some(3), "the fault must be reported");
    assert_eq!(checked.status.code(), Some(3));
    assert!(!bug_block(&live).is_empty());
    assert_eq!(bug_block(&live), bug_block(&checked));
}

/// A reader that goes away (`heapmd-cli list | true`) ends the CLI with
/// status 141, 128 + SIGPIPE, as a shell tool killed by the signal
/// would, and nothing on stderr: no panic, no backtrace. The reader is
/// dropped before the CLI starts, so its first write already fails.
#[test]
fn closed_stdout_exits_quietly() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let child = Command::new(BIN)
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn heapmd-cli");
    let out = child.wait_with_output().expect("wait for heapmd-cli");
    assert_eq!(out.status.code(), Some(141), "{}", stderr(&out));
    assert!(out.stderr.is_empty(), "{}", stderr(&out));
}
