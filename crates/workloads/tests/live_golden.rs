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
    let text = format!("{}|{stats:?}", recorded_layout(samples));
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The samples' `Debug` rendering: the counters, then the seven paper
/// metrics.
fn recorded_layout(samples: &[MetricSample]) -> String {
    let rendered: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "MetricSample {{ seq: {:?}, fn_entries: {:?}, tick: {:?}, nodes: {:?}, \
                 edges: {:?}, dangling: {:?}, values: {:?} }}",
                s.seq, s.fn_entries, s.tick, s.nodes, s.edges, s.dangling, s.values,
            )
        })
        .collect();
    format!("[{}]", rendered.join(", "))
}

fn live_digest(w: &dyn Workload, plan: &mut FaultPlan) -> u64 {
    let mut p = Process::new(settings_for(w));
    w.run(&mut p, plan, &Input::new(1))
        .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
    let stats = *p.heap().stats();
    let report = p.finish(w.name());
    digest(&report.samples, &stats)
}

/// `(run, digest)` pairs over the layout above.
const GOLDEN: &[(&str, u64)] = &[
    ("twolf", 0xda71ce8d83767c81),
    ("crafty", 0x6ec454bfc916fa5a),
    ("mcf", 0x8c418e147d2f440d),
    ("vpr", 0x95df638c5efc6cd7),
    ("vortex", 0xd7f74f9cb4af5cf1),
    ("gzip", 0xdb9409fa27a5ebf8),
    ("parser", 0x49923421c868a9cd),
    ("gcc", 0x9a784b8e50cfb494),
    ("multimedia", 0xe1858597afebf4e1),
    ("webapp", 0xd4d3e232d2d030f4),
    ("game_sim", 0x19cd48d716448d6a),
    ("game_action", 0x318fe14ec11affe9),
    ("productivity", 0x85836259d1e53d3b),
    ("multimedia+mm.codec_props.typo_leak", 0xc95a22ffb656c35c),
    ("webapp+webapp.session_props.typo_leak", 0x5ca0923577f4f47d),
    ("game_sim+gs.unit_props.typo_leak", 0xb03497cea86d7566),
    ("game_action+ga.asset_props.typo_leak", 0x522a3fabbf72a1fc),
    (
        "productivity+prod.piece_btree.skip_sibling",
        0x5b62abd4f35ad967,
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
