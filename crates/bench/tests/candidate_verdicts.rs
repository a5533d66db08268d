//! A candidate-mode model (`train --metrics candidates`) checks its
//! calibrated extended metrics through the paper's verdict path: a
//! range violation of one prints as a bug report, exits 3 and writes an
//! incident bundle that `inspect` renders.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_heapmd-cli");

fn cli(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run heapmd-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `mm.thumb_list.tiny_leak` stays inside every paper metric's range
/// (the paper's *well disguised* class); only the calibrated maximum
/// indegree sees it.
#[test]
fn a_candidate_only_crossing_reaches_stdout_and_the_exit_code() {
    let dir = std::env::temp_dir().join(format!("heapmd-cand-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (paper, cand, incidents) = (path("mm.json"), path("mmc.json"), path("inc"));
    for (model, extra) in [(&paper, None), (&cand, Some("candidates"))] {
        let mut args = vec!["train", "multimedia", "--out", model];
        if let Some(mode) = extra {
            args.extend(["--metrics", mode]);
        }
        assert!(cli(&args).status.success(), "train {args:?}");
    }
    let run = |model: &str, incidents: Option<&str>| {
        let mut args = vec![
            "run",
            "multimedia",
            "--input",
            "1000",
            "--bug",
            "mm.thumb_list.tiny_leak",
            "--model",
            model,
        ];
        if let Some(dir) = incidents {
            args.extend(["--incidents", dir]);
        }
        cli(&args)
    };

    let clean = run(&paper, None);
    assert_eq!(clean.status.code(), Some(0), "{}", stdout(&clean));

    let caught = run(&cand, Some(&incidents));
    let text = stdout(&caught);
    assert_eq!(caught.status.code(), Some(3), "{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("  MaxIndeg: range violation (above calibrated maximum)")),
        "{text}"
    );
    let bundle = std::fs::read_dir(&incidents)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().contains("maxindeg"))
        .expect("a MaxIndeg incident bundle");
    let shown = cli(&["inspect", bundle.to_str().unwrap()]);
    assert!(shown.status.success());
    // `inspect` opens with the verdict line `run` printed.
    let shown = stdout(&shown);
    let verdict = shown.lines().find(|l| l.starts_with("  ")).unwrap_or("");
    assert!(
        verdict.starts_with("  MaxIndeg: range violation") && text.lines().any(|l| l == verdict),
        "{shown}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
