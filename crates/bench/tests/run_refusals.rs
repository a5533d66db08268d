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
            &["serve", "--model", "m", "--shards", "2"][..],
            Some("--shards"),
        ),
        (
            &["serve", "--model", "m", "--queue-events", "256"][..],
            Some("--queue-events"),
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

/// Writes `events` as a binary trace whose function table names `main`.
fn write_trace(path: &std::path::Path, events: &[sim_heap::HeapEvent]) {
    let file = std::fs::File::create(path).unwrap();
    let mut w = heapmd::BinaryTraceWriter::new(std::io::BufWriter::new(file)).unwrap();
    w.write_functions(&["main".to_string()]).unwrap();
    for ev in events {
        w.write_event(ev).unwrap();
    }
    w.finish().unwrap();
}

/// The eight events of a trace that once panicked `check` with a
/// degree underflow: two objects over 1 MiB (so the spill index holds
/// them) allocated at one address, then stores and frees over both.
fn overlapping_allocations() -> Vec<sim_heap::HeapEvent> {
    use sim_heap::{Addr, AllocSite, HeapEvent, ObjectId};
    let alloc = |obj, addr, size| HeapEvent::Alloc {
        obj: ObjectId(obj),
        addr: Addr::new(addr),
        size,
        site: AllocSite(0),
    };
    let store = |src, value| HeapEvent::PtrWrite {
        src: ObjectId(src),
        offset: 8,
        value: Addr::new(value),
        old_value: None,
    };
    let free = |obj, addr, size| HeapEvent::Free {
        obj: ObjectId(obj),
        addr: Addr::new(addr),
        size,
    };
    vec![
        alloc(0, 4144, 1_048_640),
        store(0, 4176),
        alloc(1, 4144, 1_048_640),
        free(0, 4144, 1_048_640),
        store(1, 4144),
        alloc(2, 4128, 32),
        free(1, 4144, 1_048_640),
        free(2, 4128, 32),
    ]
}

/// Checks a clean trace, a trace of `bad` events and the clean one
/// again in one batch, on the default workers, one and two: the bad
/// trace is named on stderr with `reason`, the others print their
/// verdicts, and `check` exits 1 without a panic.
fn assert_fails_alone_in_its_batch(name: &str, bad: &[sim_heap::HeapEvent], reason: &str) {
    use sim_heap::{AllocSite, HeapEvent, ObjectId};
    let dir = std::env::temp_dir().join(format!("heapmd-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (good, bad_path) = (dir.join("good.hmdt"), dir.join("bad.hmdt"));
    let obj = ObjectId(1);
    let addr = sim_heap::Addr::new(0x1000);
    write_trace(
        &good,
        &[
            HeapEvent::FnEnter { func: 0 },
            HeapEvent::Alloc {
                obj,
                addr,
                size: 16,
                site: AllocSite(0),
            },
            HeapEvent::PtrWrite {
                src: obj,
                offset: 0,
                value: addr,
                old_value: None,
            },
            HeapEvent::FnExit { func: 0 },
        ],
    );
    write_trace(&bad_path, bad);
    let model = dir.join("model.json");
    let report = heapmd::MetricReport::new("r", Vec::new());
    let mut builder = heapmd::ModelBuilder::new(heapmd::Settings::default()).program("p");
    builder.add_run(&report);
    builder.build().model.save(&model).unwrap();
    let (good, bad, model) = (
        good.to_str().unwrap(),
        bad_path.to_str().unwrap(),
        model.to_str().unwrap(),
    );
    let batch = [
        "check", "--model", model, "--trace", good, "--trace", bad, "--trace", good,
    ];
    for jobs in [None, Some("1"), Some("2")] {
        let mut args = batch.to_vec();
        args.extend(jobs.iter().flat_map(|n| ["--jobs", *n]));
        let out = cli(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert_eq!(
            stdout.lines().collect::<Vec<_>>(),
            [
                format!("{good}: no anomalies"),
                format!("{good}: no anomalies")
            ],
            "{args:?}"
        );
        assert!(
            stderr(&out).contains(&format!("{bad}: invalid input: ")),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(reason), "{args:?}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("panicked"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid trace whose events the heap graph cannot apply (a store
/// into an object it never allocated) is that trace's error: `check`
/// names it, prints the verdicts of the other traces in the batch and
/// exits 1, without a panic, on one worker or several.
#[test]
fn an_unappliable_trace_fails_alone_in_its_batch() {
    use sim_heap::{HeapEvent, ObjectId, NULL};
    let bad = [
        HeapEvent::FnEnter { func: 0 },
        HeapEvent::PtrWrite {
            src: ObjectId(564),
            offset: 0,
            value: NULL,
            old_value: None,
        },
        HeapEvent::FnExit { func: 0 },
    ];
    assert_fails_alone_in_its_batch("unappliable", &bad, "write into unknown obj#564");
}

/// An allocation over a live object's bytes is refused like any event
/// the graph cannot apply, where it once underflowed a degree.
#[test]
fn overlapping_allocations_fail_alone_in_their_batch() {
    assert_fails_alone_in_its_batch(
        "overlapping",
        &overlapping_allocations(),
        "allocation of obj#1 overlaps a live object",
    );
}

/// `bytes` with its first events-block index entry moved to `offset`,
/// the index block's CRC and the footer recomputed: an index that
/// passes every checksum yet locates a block outside the file.
fn with_events_entry_at(bytes: &[u8], offset: u64) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let crc32 = heapmd_runstore::persist::crc32;
    let index = heapmd::BinaryTraceImage::open(bytes.to_vec())
        .unwrap()
        .index()
        .clone();
    let footer_at = bytes.len() - 20;
    let index_offset = u64::from_le_bytes(bytes[footer_at..footer_at + 8].try_into().unwrap());
    let first_events = index.blocks.iter().position(|b| b.kind == 1).unwrap();
    let mut payload = Vec::new();
    for (i, entry) in index.blocks.iter().enumerate() {
        let at = if i == first_events {
            offset
        } else {
            entry.offset
        };
        varint(&mut payload, at);
        payload.push(entry.kind);
        varint(&mut payload, u64::from(entry.count));
    }
    varint(&mut payload, index.total_events);
    varint(&mut payload, index.total_fn_enters);
    let mut out = bytes[..index_offset as usize].to_vec();
    out.extend_from_slice(&[0xB1, 0x0C, 0x48, 0x44, 3]);
    out.extend_from_slice(&(index.blocks.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&crc32(&index_offset.to_le_bytes()).to_le_bytes());
    out.extend_from_slice(b"HMDBIDX\n");
    out
}

/// A CRC-valid index entry that points past the end of the file is
/// refused when the trace opens: `check` names that trace as corrupt,
/// prints the other trace's verdict and exits 1, with no panic.
#[test]
fn an_index_entry_outside_the_file_fails_alone_in_its_batch() {
    use sim_heap::{AllocSite, HeapEvent, ObjectId};
    let dir = std::env::temp_dir().join(format!("heapmd-bad-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (good, bad) = (dir.join("good.hmdt"), dir.join("bad.hmdt"));
    write_trace(
        &good,
        &[
            HeapEvent::FnEnter { func: 0 },
            HeapEvent::Alloc {
                obj: ObjectId(1),
                addr: sim_heap::Addr::new(0x1000),
                size: 16,
                site: AllocSite(0),
            },
            HeapEvent::FnExit { func: 0 },
        ],
    );
    let bytes = std::fs::read(&good).unwrap();
    std::fs::write(&bad, with_events_entry_at(&bytes, 1_000_000_000)).unwrap();
    let model = dir.join("model.json");
    let mut builder = heapmd::ModelBuilder::new(heapmd::Settings::default()).program("p");
    builder.add_run(&heapmd::MetricReport::new("r", Vec::new()));
    builder.build().model.save(&model).unwrap();
    let (good, bad, model) = (
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
        model.to_str().unwrap(),
    );
    let out = cli(&["check", "--model", model, "--trace", bad, "--trace", good]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        [format!("{good}: no anomalies")]
    );
    assert!(
        stderr(&out).contains(&format!("{bad}: corrupt artifact at byte ")),
        "{}",
        stderr(&out)
    );
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
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

/// A committed fixture under the repository's `tests/data`.
fn fixture(name: &str) -> String {
    format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Artifacts that name the retired extensions — a `train --metrics
/// candidates` model, a `train --local` model, a bundle raised for
/// `MaxInDegree`, all written by the last build that had them — are
/// refused by name (exit 1, no panic) rather than checked with less
/// than they were trained for; the flags that made them are usage
/// errors; a format-2 bundle still loads.
#[test]
fn artifacts_of_the_retired_extensions_are_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("heapmd-retired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("mm.hmdt");
    let trace = trace.to_str().unwrap();
    let out = cli(&["run", "multimedia", "--trace-out", trace]);
    assert!(out.status.success(), "run: {}", stderr(&out));
    let (candidates, local, bundle) = (
        fixture("candidates_model.json"),
        fixture("local_model.json"),
        fixture("maxindeg_incident.hmdi"),
    );
    let cases = [
        (
            &["check", "--model", &candidates, "--trace", trace][..],
            "model calibrates `Indeg3Plus`, which this build no longer computes",
        ),
        (
            &["check", "--model", &local, "--trace", trace][..],
            "`locally_stable`",
        ),
        (&["inspect", &bundle][..], "`MaxInDegree`"),
    ];
    for (args, name) in cases {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(name), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
    for flag in [&["--local"][..], &["--metrics", "candidates"]] {
        let args = [&["train", "gzip"][..], flag].concat();
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag[0]), "{}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    let out = cli(&["inspect", &fixture("v2_incident.hmdi")]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// `run --trace-out` streams into `<file>.tmp` and renames it over the
/// target once the trace is complete: a reader polling the target
/// while the run goes sees the old bytes, then the whole new trace, and
/// no temporary is left behind.
#[test]
fn trace_out_publishes_the_recording_in_one_rename() {
    let dir = std::env::temp_dir().join(format!("heapmd-publish-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("gcc.hmdt");
    let tmp = dir.join("gcc.hmdt.tmp");
    std::fs::write(&target, b"the previous recording").unwrap();
    let mut child = Command::new(BIN)
        .args(["run", "gcc", "--input", "7", "--trace-out"])
        .arg(&target)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn heapmd-cli");
    let mut seen_old = 0;
    while child.try_wait().expect("poll heapmd-cli").is_none() {
        let bytes = std::fs::read(&target).expect("the target is always there");
        if bytes == b"the previous recording" {
            seen_old += 1;
        } else {
            assert!(
                heapmd::BinaryTraceImage::open(bytes).is_ok(),
                "a torn trace"
            );
        }
    }
    assert!(child.wait().unwrap().success());
    assert!(seen_old > 0, "the old bytes stay until the publish");
    let image = heapmd::BinaryTraceImage::open_path(&target).expect("a complete trace");
    assert!(image.index().blocks.len() > 1);
    assert!(!tmp.exists(), "the temporary is renamed away");
    std::fs::remove_dir_all(&dir).ok();
}
