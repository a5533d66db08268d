//! The ledger's workloads, the seeded corpus, and its set-up: recording
//! every corpus input to `.hmdt` and training one model per program.

use faults::FaultPlan;
use heapmd::{
    check_binary_sharded, BinaryTraceImage, FuncId, HeapEvent, HeapModel, MetricReport,
    ModelBuilder, Monitor, MonitorCtx, Process, Settings, StreamFormat,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use workloads::bugs::{BugSpec, CATALOG};
use workloads::harness::settings_for;
use workloads::{registry, Input, Workload};

/// The SPEC-like programs whose events are 40-60% alloc/free/store.
/// crafty and mcf are left out: 91-96% of their events are reads, a
/// shape `commercial-long` already covers.
const SPEC_GRAPH: [&str; 6] = ["twolf", "vpr", "vortex", "gzip", "parser", "gcc"];
const COMMERCIAL: [&str; 5] = [
    "multimedia",
    "webapp",
    "game_sim",
    "game_action",
    "productivity",
];

/// `heapmd-cli train`'s default `--inputs`: models are trained on
/// `Input::set(TRAIN_INPUTS)`, exactly as the CLI trains them.
pub const TRAIN_INPUTS: usize = 10;

/// Held-out clean inputs of the verdict suite. They are the same for
/// every seed, so false-positive counts compare across seeds and
/// commits; a count over seeded inputs swings by more than half its
/// median from seed to seed (one unlucky input raises a dozen reports).
const HELD_OUT: [u32; 4] = [100, 101, 102, 103];

/// The input the detection sentinel records its bugs on (the CLI's
/// default `--input`).
const SENTINEL_INPUT: u32 = 1000;

/// Candidate inputs drawn for each clean timing slot (see `Slot`).
const DRAWS: usize = 8;

/// The program whose catalogued bugs form the detection sentinel of the
/// workloads that host no (or only incidental) bugs.
const SENTINEL_PROGRAM: &str = "game_action";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    SpecGraph,
    CommercialLong,
    BugCatalog,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "spec-graph" => Some(Kind::SpecGraph),
            "commercial-long" => Some(Kind::CommercialLong),
            "bug-catalog" => Some(Kind::BugCatalog),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::SpecGraph => "spec-graph",
            Kind::CommercialLong => "commercial-long",
            Kind::BugCatalog => "bug-catalog",
        }
    }
}

/// Per-variant event counts of one trace.
#[derive(Clone, Copy, Default, Debug)]
pub struct Mix {
    pub alloc: u64,
    pub free: u64,
    pub ptr_write: u64,
    pub scalar_write: u64,
    pub read: u64,
    pub fn_enter: u64,
    pub fn_exit: u64,
}

impl Mix {
    pub fn of(events: &[HeapEvent]) -> Mix {
        let mut m = Mix::default();
        for ev in events {
            m.add(ev);
        }
        m
    }

    fn add(&mut self, ev: &HeapEvent) {
        match ev {
            HeapEvent::Alloc { .. } => self.alloc += 1,
            HeapEvent::Free { .. } => self.free += 1,
            HeapEvent::PtrWrite { .. } => self.ptr_write += 1,
            HeapEvent::ScalarWrite { .. } => self.scalar_write += 1,
            HeapEvent::Read { .. } => self.read += 1,
            HeapEvent::FnEnter { .. } => self.fn_enter += 1,
            HeapEvent::FnExit { .. } => self.fn_exit += 1,
        }
    }

    pub fn merge(&mut self, o: &Mix) {
        self.alloc += o.alloc;
        self.free += o.free;
        self.ptr_write += o.ptr_write;
        self.scalar_write += o.scalar_write;
        self.read += o.read;
        self.fn_enter += o.fn_enter;
        self.fn_exit += o.fn_exit;
    }

    pub fn total(&self) -> u64 {
        self.alloc
            + self.free
            + self.ptr_write
            + self.scalar_write
            + self.read
            + self.fn_enter
            + self.fn_exit
    }

    /// Events that change the heap graph.
    pub fn mutations(&self) -> u64 {
        self.alloc + self.free + self.ptr_write + self.scalar_write
    }
}

/// One recorded corpus input.
#[derive(Clone, Debug)]
pub struct Item {
    pub program: &'static str,
    pub input: u32,
    pub bug: Option<&'static str>,
    /// Tenant name in the `serve` round; also the trace's file stem.
    pub tenant: String,
    pub path: PathBuf,
    pub bytes: u64,
    pub mix: Mix,
}

impl Item {
    pub fn events(&self) -> u64 {
        self.mix.total()
    }

    /// The `--input`/`--bug` flags that reproduce this input live.
    pub fn input_args(&self) -> Vec<String> {
        let mut args = vec![
            self.program.to_string(),
            "--input".to_string(),
            self.input.to_string(),
        ];
        if let Some(bug) = self.bug {
            args.push("--bug".to_string());
            args.push(bug.to_string());
        }
        args
    }

    pub fn plan(&self) -> FaultPlan {
        match self.bug {
            Some(fault) => CATALOG
                .iter()
                .find(|b| b.fault.0 == fault)
                .expect("corpus bugs come from the catalog")
                .plan(),
            None => FaultPlan::new(),
        }
    }
}

pub struct ProgramModel {
    pub model: HeapModel,
    pub path: PathBuf,
    /// Events the `TRAIN_INPUTS` training runs execute.
    pub train_events: u64,
    pub train_reports: Vec<MetricReport>,
}

pub struct Corpus {
    pub kind: Kind,
    /// Seeded inputs: what every timed path runs on.
    pub timing: Vec<Item>,
    /// Fixed inputs whose verdicts give the detection-quality counts
    /// (see `verdict_suite`).
    pub verdict: Vec<Item>,
    pub models: BTreeMap<&'static str, ProgramModel>,
    /// `serve --model-dir`: one `<tenant>.hmdm` per recording.
    pub tenant_dir: PathBuf,
}

impl Corpus {
    pub fn programs(&self) -> Vec<&'static str> {
        let mut p: Vec<&'static str> = self.timing.iter().map(|i| i.program).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    pub fn model(&self, program: &str) -> &ProgramModel {
        &self.models[program]
    }
}

pub fn program(name: &str) -> Box<dyn Workload> {
    registry()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("ledger programs are in the registry")
}

/// SplitMix64: the ledger's only source of input ids.
struct SeedRng(u64);

impl SeedRng {
    fn new(seed: u64, salt: u64) -> Self {
        SeedRng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws `n` distinct input ids (outside the training and held-out
    /// ids) whose size multiplier satisfies `accept`.
    fn inputs(&mut self, n: usize, accept: impl Fn(f64) -> bool) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let id = 10_000 + (self.next() % 1_000_000_000) as u32;
            if accept(Input::new(id).scale()) && !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }
}

/// One timing input to be recorded. A bug slot has one candidate. A
/// clean slot has `DRAWS` seeded candidates, and set-up keeps the first
/// whose exact check raises no report (the last, if none is clean).
///
/// Without the screen, about one seeded clean input in eight raised
/// false reports. That arms the detector, which renders call stacks on
/// every event and triples the trace's cost. Whether a seed drew none or
/// three such inputs moved `check_events_per_s` and the p90s by 30% and
/// more from seed to seed. The armed detector's cost is what
/// `bug-catalog` measures, on its 40 bug recordings.
struct Slot {
    program: &'static str,
    candidates: Vec<u32>,
    bug: Option<&'static BugSpec>,
}

/// `n` clean slots of `program`, each with `DRAWS` distinct candidates.
fn clean_slots(
    program: &'static str,
    rng: &mut SeedRng,
    n: usize,
    accept: impl Fn(f64) -> bool,
) -> Vec<Slot> {
    rng.inputs(n * DRAWS, accept)
        .chunks(DRAWS)
        .map(|c| Slot {
            program,
            candidates: c.to_vec(),
            bug: None,
        })
        .collect()
}

/// What each workload runs.
fn timing_inputs(kind: Kind, seed: u64) -> Vec<Slot> {
    let mut out = Vec::new();
    match kind {
        // Large inputs (size multiplier >= 1.3), so that one trace
        // replays in well over 10 ms and process start-up stays small.
        // Narrow size bands here and below keep the per-event figures
        // comparable from seed to seed.
        Kind::SpecGraph => {
            for (i, p) in SPEC_GRAPH.iter().enumerate() {
                let mut rng = SeedRng::new(seed, i as u64);
                out.extend(clean_slots(p, &mut rng, 3, |s| s >= 1.3));
            }
        }
        Kind::CommercialLong => {
            for (i, p) in COMMERCIAL.iter().enumerate() {
                let mut rng = SeedRng::new(seed, 100 + i as u64);
                out.extend(clean_slots(p, &mut rng, 2, |s| (1.1..=1.4).contains(&s)));
            }
        }
        // Small inputs (multiplier <= 0.75) keep 45 commercial-sized
        // traces affordable in one run.
        Kind::BugCatalog => {
            for (i, b) in CATALOG.iter().enumerate() {
                out.push(Slot {
                    program: b.app,
                    candidates: SeedRng::new(seed, 200 + i as u64).inputs(1, |s| s <= 0.9),
                    bug: Some(b),
                });
            }
            for (i, p) in COMMERCIAL.iter().enumerate() {
                let mut rng = SeedRng::new(seed, 300 + i as u64);
                out.extend(clean_slots(p, &mut rng, 1, |s| s <= 0.75));
            }
        }
    }
    out
}

/// The fixed verdict suite: held-out clean inputs of the workload's
/// programs, plus the detection sentinel (the catalogued bugs of
/// `SENTINEL_PROGRAM`) where the workload's own corpus holds no bugs.
/// SPEC programs host no catalogued bug, so without the sentinel
/// `bugs_detected` could not be measured on `spec-graph` at all.
fn verdict_suite(kind: Kind) -> Vec<(&'static str, u32, Option<&'static BugSpec>)> {
    let programs: &[&'static str] = match kind {
        Kind::SpecGraph => &SPEC_GRAPH,
        Kind::CommercialLong | Kind::BugCatalog => &COMMERCIAL,
    };
    let mut out: Vec<_> = programs
        .iter()
        .flat_map(|p| HELD_OUT.iter().map(move |id| (*p, *id, None)))
        .collect();
    if kind != Kind::BugCatalog {
        out.extend(
            CATALOG
                .iter()
                .filter(|b| b.app == SENTINEL_PROGRAM)
                .map(|b| (b.app, SENTINEL_INPUT, Some(b))),
        );
    }
    out
}

/// Counts every event a live run emits (the training denominator).
#[derive(Default)]
struct EventCounter(u64);

impl Monitor for EventCounter {
    fn on_event(&mut self, _: &MonitorCtx<'_>, _: &HeapEvent) {
        self.0 += 1;
    }
}

/// Trains `name` exactly as `heapmd-cli train <name>` does (default
/// flags), counting the events the training runs execute.
fn train(name: &'static str, models_dir: &Path) -> ProgramModel {
    let w = program(name);
    let settings = settings_for(w.as_ref());
    let mut builder = ModelBuilder::new(settings.clone()).program(w.name());
    let mut train_events = 0;
    let mut train_reports = Vec::with_capacity(TRAIN_INPUTS);
    for input in Input::set(TRAIN_INPUTS) {
        let counter = Rc::new(RefCell::new(EventCounter::default()));
        let mut p = Process::with_shards(settings.clone(), 1);
        p.attach(counter.clone());
        w.run(&mut p, &mut FaultPlan::new(), &input)
            .unwrap_or_else(|e| panic!("{name} training input {} failed: {e}", input.id));
        let report = p.finish(format!("{}/input-{}", w.name(), input.id));
        builder.add_run(&report);
        train_events += counter.borrow().0;
        train_reports.push(report);
    }
    let model = builder.build().model;
    let path = models_dir.join(format!("{name}.json"));
    model.save(&path).expect("model directory is writable");
    ProgramModel {
        model,
        path,
        train_events,
        train_reports,
    }
}

/// Records one input to `<dir>/<tenant>.hmdt`, as `heapmd-cli record
/// --format binary` would.
fn record(
    program_name: &'static str,
    input: u32,
    bug: Option<&'static BugSpec>,
    dir: &Path,
) -> Item {
    let w = program(program_name);
    let tenant = match bug {
        Some(b) => format!("{}.{input}", b.fault.0),
        None => format!("{program_name}.{input}"),
    };
    let path = dir.join(format!("{tenant}.hmdt"));
    let mut p = Process::new(settings_for(w.as_ref()));
    p.enable_trace();
    let mut plan = bug.map_or_else(FaultPlan::new, BugSpec::plan);
    w.run(&mut p, &mut plan, &Input::new(input))
        .unwrap_or_else(|e| panic!("{tenant} failed: {e}"));
    let mut trace = p.take_trace().expect("tracing enabled");
    let names: Vec<String> = (0..p.functions().len())
        .map(|i| p.functions().name(FuncId(i as u32)).to_string())
        .collect();
    trace.set_functions(names);
    trace
        .save_format(&path, StreamFormat::Binary)
        .expect("trace directory is writable");
    let mix = Mix::of(trace.events());
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Item {
        program: program_name,
        input,
        bug: bug.map(|b| b.fault.0),
        tenant,
        path,
        bytes,
        mix,
    }
}

/// Records `slot`'s first candidate whose exact check, as pooled
/// `heapmd-cli check` runs it, raises no report (see `Slot`).
fn record_slot(slot: &Slot, model: &ProgramModel, dir: &Path) -> Item {
    let last = slot.candidates.len() - 1;
    for (n, &id) in slot.candidates.iter().enumerate() {
        let item = record(slot.program, id, slot.bug, dir);
        if slot.bug.is_some() || n == last {
            return item;
        }
        let image = BinaryTraceImage::open_path(&item.path).expect("corpus trace opens");
        let m = &model.model;
        if check_binary_sharded(&image, m, &m.settings, 1)
            .expect("corpus trace checks")
            .is_empty()
        {
            return item;
        }
        drop(image);
        let _ = std::fs::remove_file(&item.path);
    }
    unreachable!("a slot has at least one candidate")
}

/// Set-up: derive the inputs from `seed`, train every program's model,
/// record the timing corpus and the verdict suite, and lay out the
/// `serve --model-dir` directory. Starts from an empty `dir`.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Corpus {
    let _ = std::fs::remove_dir_all(dir);
    let models_dir = dir.join("models");
    let traces_dir = dir.join("traces");
    let verdict_dir = dir.join("verdict");
    let tenant_dir = dir.join("tenants");
    for d in [&models_dir, &traces_dir, &verdict_dir, &tenant_dir] {
        std::fs::create_dir_all(d).expect("work directory is writable");
    }
    let timing_spec = timing_inputs(kind, seed);
    let verdict_spec = verdict_suite(kind);
    let mut models = BTreeMap::new();
    let programs = timing_spec.iter().map(|s| s.program);
    for p in programs.chain(verdict_spec.iter().map(|v| v.0)) {
        if !models.contains_key(p) {
            models.insert(p, train(p, &models_dir));
        }
    }
    let timing: Vec<Item> = timing_spec
        .iter()
        .map(|slot| record_slot(slot, &models[slot.program], &traces_dir))
        .collect();
    let verdict: Vec<Item> = verdict_spec
        .iter()
        .map(|(p, id, bug)| record(p, *id, *bug, &verdict_dir))
        .collect();
    for item in timing.iter().chain(&verdict) {
        std::fs::copy(
            &models[item.program].path,
            tenant_dir.join(format!("{}.hmdm", item.tenant)),
        )
        .expect("tenant directory is writable");
    }
    Corpus {
        kind,
        timing,
        verdict,
        models,
        tenant_dir,
    }
}

/// The settings a program's traces are checked under (the model's).
pub fn settings(corpus: &Corpus, program: &str) -> Settings {
    corpus.model(program).model.settings.clone()
}
