//! Live-behaviour golden: every registry program at input 1, and the
//! first catalog bug of each commercial program, must keep producing
//! the exact metric-sample series and heap statistics pinned below.
//!
//! Neither the samples nor the heap statistics depend on the order in
//! which function or allocation-site names are interned, so the digests
//! pin what a run *does*, not how its names are numbered. A mutator API
//! change that leaves behaviour alone passes this test unchanged.
//!
//! To print fresh digests (after an intended behaviour change), run
//! `HEAPMD_GOLDEN_PRINT=1 cargo test -p workloads --test live_golden -- --nocapture`.

use faults::FaultPlan;
use heapmd::{MetricSample, Process};
use sim_heap::HeapStats;
use workloads::harness::settings_for;
use workloads::{bugs, commercial_at_version, registry, Input, Workload};

/// FNV-1a 64 over the `Debug` rendering: field order and `f64`
/// formatting (shortest round-trip) are both deterministic.
fn digest(samples: &[MetricSample], stats: &HeapStats) -> u64 {
    let text = format!("{samples:?}|{stats:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn live_digest(w: &dyn Workload, plan: &mut FaultPlan) -> u64 {
    let mut p = Process::new(settings_for(w));
    w.run(&mut p, plan, &Input::new(1))
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    let stats = *p.heap().stats();
    let report = p.finish(w.name());
    digest(&report.samples, &stats)
}

/// `(run, digest)` pairs, recorded before the mutator API took
/// pre-interned ids.
const GOLDEN: &[(&str, u64)] = &[
    ("twolf", 0x65bd173d5cceee42),
    ("crafty", 0xdc32c9b45238b2ef),
    ("mcf", 0x934f8cb2166e4d38),
    ("vpr", 0xad9736d111dd111a),
    ("vortex", 0x88f54e0deb647109),
    ("gzip", 0xfe0b6c46f7809279),
    ("parser", 0x1bb91af0f0ecadb9),
    ("gcc", 0x5e3cb51967665213),
    ("multimedia", 0x78b547eb6b0c0786),
    ("webapp", 0xefc482526aba815a),
    ("game_sim", 0xced121755e418146),
    ("game_action", 0x822095f1ef53a249),
    ("productivity", 0x0d9197f34b50cb39),
    ("multimedia+mm.codec_props.typo_leak", 0x2235347ac870c5fc),
    ("webapp+webapp.session_props.typo_leak", 0x345b5760e3bf4d40),
    ("game_sim+gs.unit_props.typo_leak", 0xbfc6e6a65f671eca),
    ("game_action+ga.asset_props.typo_leak", 0xc6baaa9104a4d50a),
    (
        "productivity+prod.piece_btree.skip_sibling",
        0x0122b3fd62fb0dbb,
    ),
];

#[test]
fn live_runs_match_the_recorded_digests() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for w in registry() {
        got.push((
            w.name().to_string(),
            live_digest(w.as_ref(), &mut FaultPlan::new()),
        ));
    }
    for app in [
        "multimedia",
        "webapp",
        "game_sim",
        "game_action",
        "productivity",
    ] {
        let bug = bugs::for_app(app)[0];
        let w = commercial_at_version(app, 1);
        got.push((
            format!("{app}+{}", bug.fault.0),
            live_digest(w.as_ref(), &mut bug.plan()),
        ));
    }
    if std::env::var_os("HEAPMD_GOLDEN_PRINT").is_some() {
        for (run, d) in &got {
            println!("    (\"{run}\", 0x{d:016x}),");
        }
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(r, d)| (r.to_string(), d)).collect();
    assert_eq!(got, want);
}
