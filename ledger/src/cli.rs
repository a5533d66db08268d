//! Driving `heapmd-cli` as a user would, and reading its verdicts back.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Cli {
    pub bin: PathBuf,
}

pub struct Outcome {
    pub code: Option<i32>,
    pub stdout: String,
    pub wall_ns: u64,
}

impl Outcome {
    /// Exit 0 is clean and 3 is "anomalies found"; anything else failed.
    pub fn ok(&self) -> bool {
        matches!(self.code, Some(0) | Some(3))
    }
}

impl Cli {
    /// Runs one invocation to completion and times it from spawn to exit.
    pub fn run(&self, args: &[String]) -> Outcome {
        let t0 = Instant::now();
        let out = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(o) => Outcome {
                code: o.status.code(),
                stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
                wall_ns,
            },
            Err(e) => Outcome {
                code: None,
                stdout: format!("spawn failed: {e}"),
                wall_ns,
            },
        }
    }
}

pub fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

pub fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Bug-report lines of one verdict: the `  <report>` lines, without the
/// `    implicated:` detail lines.
fn is_report_line(line: &str) -> bool {
    line.starts_with("  ") && !line.starts_with("   ")
}

/// Per-trace report lines from `check --trace …` output, keyed by the
/// trace path exactly as given on the command line.
pub fn parse_check(stdout: &str) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in stdout.lines() {
        if is_report_line(line) {
            if let Some(path) = &current {
                out.get_mut(path)
                    .expect("verdict header seen")
                    .push(line.trim_start().to_string());
            }
        } else if !line.starts_with(' ') {
            if let Some(i) = line.find(".hmdt: ") {
                let path = line[..i + 5].to_string();
                out.insert(path.clone(), Vec::new());
                current = Some(path);
            }
        }
    }
    out
}

/// Report lines from `replay` output.
pub fn parse_replay(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| is_report_line(l))
        .map(|l| l.trim_start().to_string())
        .collect()
}

/// What `run` prints about the run itself.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct RunSummary {
    pub points: u64,
    pub final_graph: (u64, u64, u64),
    pub kept_stores: Option<(u64, u64)>,
}

fn leading_number(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

pub fn parse_run(stdout: &str) -> RunSummary {
    let mut s = RunSummary::default();
    for line in stdout.lines() {
        if line.contains("metric computation points over") {
            s.points = leading_number(line).unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("final graph: ") {
            let nums: Vec<u64> = rest
                .split(|c: char| !c.is_ascii_digit())
                .filter_map(|t| t.parse().ok())
                .collect();
            if nums.len() == 3 {
                s.final_graph = (nums[0], nums[1], nums[2]);
            }
        } else if let Some(rest) = line.strip_prefix("store sampling: ") {
            let nums: Vec<u64> = rest
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            if nums.len() >= 2 {
                s.kept_stores = Some((nums[0], nums[1]));
            }
        }
    }
    s
}

/// One tenant line of the daemon's exit summary.
#[derive(Debug, Default)]
pub struct TenantSummary {
    pub events: u64,
    pub state: String,
    pub reports: Vec<String>,
}

/// `tenant <name>: <N> events, <K> bug(s), <B> bundle(s), <state>` lines
/// and their report lines.
pub fn parse_serve(stdout: &str) -> BTreeMap<String, TenantSummary> {
    let mut out: BTreeMap<String, TenantSummary> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("tenant ") {
            let Some((name, tail)) = rest.split_once(": ") else {
                continue;
            };
            let summary = TenantSummary {
                events: leading_number(tail).unwrap_or(0),
                state: tail
                    .split_once("bundle(s), ")
                    .map_or("", |(_, s)| s)
                    .to_string(),
                reports: Vec::new(),
            };
            out.insert(name.to_string(), summary);
            current = Some(name.to_string());
        } else if is_report_line(line) {
            if let Some(name) = &current {
                if let Some(t) = out.get_mut(name) {
                    t.reports.push(line.trim_start().to_string());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_output_parses_per_trace() {
        let out = "a/x.hmdt: no anomalies\nb/y.hmdt: 2 anomaly report(s):\n  R1 bad\n    implicated: f, g\n  R2 worse\nc/z.hmdt: no anomalies (sampled at 0.5000)\n";
        let v = parse_check(out);
        assert_eq!(v["a/x.hmdt"], Vec::<String>::new());
        assert_eq!(v["b/y.hmdt"], vec!["R1 bad", "R2 worse"]);
        assert!(v["c/z.hmdt"].is_empty());
    }

    #[test]
    fn run_and_serve_output_parse() {
        let run = "51 metric computation points over 10 allocs / 2 frees / 30 ptr stores (8 objects live at exit)\nstore sampling: 7 of 30 stores kept (effective rate 0.2333)\nfinal graph: 8 nodes, 6 edges, 1 dangling slots\n";
        let s = parse_run(run);
        assert_eq!(s.points, 51);
        assert_eq!(s.final_graph, (8, 6, 1));
        assert_eq!(s.kept_stores, Some((7, 30)));
        let serve = "fleet daemon up: ingest a http b\ntenant gcc.1: 100 events, 1 bug(s), 0 bundle(s), complete\n  R1 bad\ntenant vpr.2: 5 events, 0 bug(s), 0 bundle(s), evicted (slow)\n";
        let t = parse_serve(serve);
        assert_eq!(t["gcc.1"].events, 100);
        assert_eq!(t["gcc.1"].state, "complete");
        assert_eq!(t["gcc.1"].reports, vec!["R1 bad"]);
        assert_eq!(t["vpr.2"].state, "evicted (slow)");
    }
}
