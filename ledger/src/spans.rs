//! The traced pass's span recorder.
//!
//! Spans are recorded by the ledger's own code around each call into a
//! heapmd layer (nothing inside heapmd is instrumented). Each span has a
//! name, start and end relative to the recorder's epoch, the span that
//! caused it, and the corpus trace it belongs to. Spans stay in memory
//! and are written out once, when the run ends. Per-call spans around
//! single graph calls would number in the millions, so those are folded
//! on the fly into per-name totals instead of being kept one by one.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and total duration of folded per-call spans.
#[derive(Default, Clone, Copy)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    folded: BTreeMap<&'static str, Folded>,
    next_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            folded: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Allocates a span id ahead of time, so a parent's children can
    /// name it before the parent closes.
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records span `id`, which began at `start` and ends now; returns
    /// its duration in nanoseconds.
    pub fn record(
        &mut self,
        id: u64,
        start: Instant,
        name: &'static str,
        parent: u64,
        trace: u32,
    ) -> u64 {
        self.record_between(id, start, Instant::now(), name, parent, trace)
    }

    /// Records span `id` over `[start, end]`; returns its duration.
    pub fn record_between(
        &mut self,
        id: u64,
        start: Instant,
        end: Instant,
        name: &'static str,
        parent: u64,
        trace: u32,
    ) -> u64 {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        end_ns - start_ns
    }

    /// Records a new span that began at `start` and ends now.
    pub fn close(&mut self, start: Instant, name: &'static str, parent: u64, trace: u32) -> u64 {
        let id = self.id();
        self.record(id, start, name, parent, trace)
    }

    /// Folds one per-call span of `ns` nanoseconds into `name`'s totals.
    pub fn fold(&mut self, name: &'static str, ns: u64) {
        let f = self.folded.entry(name).or_default();
        f.count += 1;
        f.total_ns += ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn folded(&self, name: &str) -> Folded {
        self.folded.get(name).copied().unwrap_or_default()
    }

    /// Sum of the durations of spans named `name`, and their count.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// Writes every span, then every folded total, as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, f) in &self.folded {
            writeln!(
                out,
                "{{\"folded\":\"{name}\",\"count\":{},\"total_ns\":{}}}",
                f.count, f.total_ns
            )?;
        }
        out.flush()
    }
}

/// The cost of one empty span (two clock reads), measured as the median
/// of many back-to-back pairs. Per-call spans subtract it.
pub fn clock_pair_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t.elapsed().as_nanos() as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
