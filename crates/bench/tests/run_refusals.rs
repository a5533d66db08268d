//! `heapmd run` refuses flag combinations whose output could not carry
//! the run's sampling outcome, before it runs anything.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");

fn run_exit_code(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(BIN)
        .args(["run", "gzip", "--input", "11", "--sample"])
        .args(extra)
        .output()
        .expect("run heapmd-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_sampled_run_cannot_stream_to_the_daemon() {
    // Refused before any connection attempt: nothing listens here.
    let (code, stderr) = run_exit_code(&["--serve", "127.0.0.1:1", "--tenant", "t"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--serve cannot stream a --sample run"),
        "{stderr}"
    );
}

#[test]
fn a_sampled_run_cannot_be_recorded_as_jsonl() {
    let path = std::env::temp_dir().join(format!("heapmd-refusal-{}.jsonl", std::process::id()));
    let trace_out = path.to_str().unwrap();
    let (code, stderr) = run_exit_code(&["--trace-out", trace_out, "--format", "jsonl"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!path.exists(), "nothing was recorded");
}
