//! The execution logger + instrumented mutator facade.

use crate::callstack::{FuncId, FunctionTable};
use crate::error::HeapMdError;
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::{MetricReport, MetricSample};
use crate::settings::Settings;
use crate::trace::{Advance, Replayer, Trace};
use crate::trace_codec::{encode_sampling_meta, BinaryTraceWriter};
use heap_graph::{GraphImage, MetricKind};
use heapmd_obs::SeriesRecorder;
use sim_heap::{Addr, AllocSite, HeapError, HeapEvent, SimHeap, NULL};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::rc::Rc;
use swat::{SamplerConfig, SamplingInfo};

/// A simulated instrumented process: the paper's `output.exe` running
/// under the execution logger.
///
/// Workload code drives the process through its mutator API (`malloc`,
/// `free`, `write_ptr`, `enter`/`leave`, …). Names are interned once,
/// at set-up, through [`function`](Self::function) and
/// [`site`](Self::site); the mutators take the resulting [`FuncId`] and
/// [`AllocSite`] ids, so no per-event call looks a name up. The process:
///
/// * forwards each operation to the [`SimHeap`];
/// * advances its event core, the same one post-mortem replay runs:
///   it keeps the heap-graph image ([`GraphImage`]) in sync, counts
///   function entries and, once every `settings.frq` of them, records
///   a [`MetricSample`] (a *metric computation point*);
/// * fans events and samples out to attached [`Monitor`]s (the anomaly
///   detector, the SWAT baseline, …);
/// * optionally records the event stream into a [`Trace`] for offline,
///   post-mortem checking.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut p = Process::new(Settings::builder().frq(1).build()?);
/// // Set-up: intern every name once.
/// let main = p.function("main");
/// let node = p.site("list_node");
/// // Hot path: ids only.
/// p.enter(main);
/// let head = p.malloc(24, node)?;
/// let next = p.malloc(24, node)?;
/// p.write_ptr(head.offset(8), next)?;
/// p.leave();
/// let report = p.finish("example");
/// assert_eq!(report.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Process {
    heap: SimHeap,
    /// Graph image, call stack, function table, sampling schedule,
    /// store-sampling filter and tick clock: everything a replay of
    /// this process's trace would rebuild, advanced event by event.
    core: Replayer,
    sites: HashMap<String, AllocSite>,
    site_names: Vec<String>,
    monitors: Vec<Rc<RefCell<dyn Monitor>>>,
    /// Whether any attached monitor listens for events
    /// ([`Monitor::listening`]), re-read after each sample fan-out —
    /// the only place it may turn true.
    listening: bool,
    trace: Option<Trace>,
    /// Incremental crash-safe trace stream (see
    /// [`stream_trace_to`](Self::stream_trace_to)).
    stream: Option<BinaryTraceWriter<Box<dyn Write>>>,
    /// First error that killed the stream, kept for
    /// [`finish_stream`](Self::finish_stream) to report.
    stream_error: Option<HeapMdError>,
    /// Flight recorder: bounded time series of every metric plus
    /// alloc/free/store rates, fed at each metric computation point.
    recorder: Option<SeriesRecorder>,
    /// Heap op totals at the previous computation point, for the rate
    /// series deltas: `(allocs, frees, ptr_writes)`.
    last_op_totals: (u64, u64, u64),
}

impl Process {
    /// Creates a fresh process under the given settings.
    pub fn new(settings: Settings) -> Self {
        Process::with_shards(settings, 1)
    }

    /// Creates a process whose heap-graph image is partitioned into
    /// `shards` address-range shards (1 = the classic single-slab
    /// graph). Shard count changes storage layout only: samples,
    /// histograms, and metrics are bit-identical across counts.
    pub fn with_shards(settings: Settings, shards: usize) -> Self {
        Process {
            heap: SimHeap::new(),
            core: Replayer::with_shards(settings, &[], shards),
            sites: HashMap::new(),
            site_names: Vec::new(),
            monitors: Vec::new(),
            listening: false,
            trace: None,
            stream: None,
            stream_error: None,
            recorder: None,
            last_op_totals: (0, 0, 0),
        }
    }

    /// Turns on production-overhead store sampling: from now on,
    /// pointer/scalar stores are burst-sampled per allocation site by a
    /// [`swat::SampledIngest`] filter under `config`. Alloc/free and function
    /// events always record, so object counts and the sampling schedule
    /// stay exact; a rejected store still mutates the simulated heap
    /// but is invisible to the heap graph, monitors, and any trace or
    /// stream sink — the recorded artifact is exactly what a sampled
    /// production process would have written.
    ///
    /// Enable this before driving the mutator, so the filter sees every
    /// allocation site from the start.
    pub fn enable_sampling(&mut self, config: SamplerConfig) {
        if self.core.sampling_info().is_none() {
            self.core.enable_sampling(config);
        }
    }

    /// The sampling filter's measured outcome so far, when sampling is
    /// enabled.
    pub fn sampling_info(&self) -> Option<SamplingInfo> {
        self.core.sampling_info()
    }

    /// The effective store-sampling rate so far: `1.0` when sampling is
    /// off or no store has been observed.
    pub fn sample_rate(&self) -> f64 {
        self.core.effective_rate()
    }

    /// Attaches an online monitor. Events that occurred before the
    /// attachment are not replayed.
    pub fn attach(&mut self, monitor: Rc<RefCell<dyn Monitor>>) {
        self.listening |= monitor.borrow().listening();
        self.monitors.push(monitor);
    }

    /// Starts recording the event stream for offline checking.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
    }

    /// Turns on the flight recorder: from the next metric computation
    /// point on, every metric's value plus the alloc/free/store rates
    /// are captured into a bounded [`SeriesRecorder`] (at most
    /// `capacity_per_series` retained points per series; long runs are
    /// downsampled, never truncated). Monitors see the recorder via
    /// [`MonitorCtx::recorder`] and snapshot it into incident bundles.
    pub fn enable_flight_recorder(&mut self, capacity_per_series: usize) {
        if self.recorder.is_none() {
            self.recorder = Some(SeriesRecorder::new(capacity_per_series));
        }
    }

    /// The flight recorder, when enabled.
    pub fn recorder(&self) -> Option<&SeriesRecorder> {
        self.recorder.as_ref()
    }

    /// Streams every subsequent event to `sink` in the binary codec
    /// ([`crate::BinaryTraceWriter`], `HMDB1`), incrementally — unlike
    /// [`enable_trace`](Self::enable_trace), events reach the sink as
    /// they happen, so whatever was flushed before a crash salvages at
    /// block granularity.
    ///
    /// A write failure mid-run does **not** abort the checked process:
    /// the stream is dropped, the failure is counted
    /// (`heapmd_trace_stream_errors_total`) and surfaced by
    /// [`finish_stream`](Self::finish_stream), and execution continues.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::Io`] when the stream header cannot be
    /// written.
    pub fn stream_trace_to(&mut self, sink: Box<dyn Write>) -> Result<(), HeapMdError> {
        self.stream = Some(BinaryTraceWriter::new(sink)?);
        self.stream_error = None;
        if !self.core.functions().is_empty() {
            self.stream_functions();
        }
        Ok(())
    }

    /// Writes the whole function table to the trace stream. Called
    /// whenever a new name is interned, so every table frame is ahead
    /// of the events that use it (readers keep the last one).
    #[cold]
    fn stream_functions(&mut self) {
        let Some(stream) = &mut self.stream else {
            return;
        };
        let funcs = self.core.functions();
        let names: Vec<String> = (0..funcs.len())
            .map(|i| funcs.name(FuncId(i as u32)).to_string())
            .collect();
        if let Err(e) = stream.write_functions(&names) {
            self.stream_failed(e);
        }
    }

    /// Drops a stream whose sink failed. Losing the trace sink must not
    /// take down the checked process: keep running, surface the error
    /// at [`finish_stream`](Self::finish_stream).
    fn stream_failed(&mut self, e: HeapMdError) {
        heapmd_obs::count!("heapmd_trace_stream_errors_total");
        heapmd_obs::warn!("trace stream failed, continuing without it: {e}");
        self.stream = None;
        self.stream_error = Some(e);
    }

    /// Ends the trace stream: writes the sampling outcome and the `End`
    /// trailer, flushes, and detaches the sink. Returns the number of
    /// events that reached the stream, or the error that degraded it
    /// mid-run.
    ///
    /// # Errors
    ///
    /// Returns the deferred streaming error (if the stream died
    /// mid-run) or [`HeapMdError::Io`] from the final writes.
    pub fn finish_stream(&mut self) -> Result<u64, HeapMdError> {
        if let Some(e) = self.stream_error.take() {
            return Err(e);
        }
        let Some(mut stream) = self.stream.take() else {
            return Err(HeapMdError::InvalidInput(
                "no trace stream is attached".into(),
            ));
        };
        // The sampling outcome rides as a meta block, so an offline
        // check of the artifact widens exactly as the live run did.
        if let Some(info) = self.core.sampling_info() {
            stream.write_meta(&encode_sampling_meta(&info))?;
        }
        let events = stream.events_written();
        stream.finish()?;
        Ok(events)
    }

    /// The settings in force.
    pub fn settings(&self) -> &Settings {
        self.core.settings()
    }

    /// The simulated heap (read-only).
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// The heap-graph image (read-only).
    pub fn graph(&self) -> &GraphImage {
        self.core.graph()
    }

    /// The function intern table.
    pub fn functions(&self) -> &FunctionTable {
        self.core.functions()
    }

    /// Cumulative function entries.
    pub fn fn_entries(&self) -> u64 {
        self.core.fn_entries()
    }

    /// Metric samples recorded so far.
    pub fn samples(&self) -> &[MetricSample] {
        self.core.samples()
    }

    /// Interns a function name, returning the id that
    /// [`enter`](Self::enter) and [`scoped`](Self::scoped) take. Call it
    /// at set-up, not per event. A new name is written to an attached
    /// trace stream at once, ahead of any event that uses it.
    pub fn function(&mut self, name: &str) -> FuncId {
        let known = self.core.functions().len();
        let id = self.core.intern(name);
        if self.core.functions().len() > known {
            self.stream_functions();
        }
        id
    }

    /// Interns an allocation-site name, returning the id that
    /// [`malloc`](Self::malloc) and [`realloc`](Self::realloc) take.
    /// Call it at set-up, not per event.
    pub fn site(&mut self, name: &str) -> AllocSite {
        if let Some(&s) = self.sites.get(name) {
            return s;
        }
        let site = AllocSite(self.site_names.len() as u32);
        self.site_names.push(name.to_string());
        self.sites.insert(name.to_string(), site);
        site
    }

    /// The name behind an interned allocation site.
    pub fn site_name(&self, site: AllocSite) -> &str {
        &self.site_names[site.0 as usize]
    }

    /// All interned allocation-site names, indexed by [`AllocSite`]
    /// value (monitors report sites by id; this maps them back).
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Enters the function `func` (interned by
    /// [`function`](Self::function)): a potential metric computation
    /// point. Every `settings.frq` entries, the seven metrics are sampled
    /// from the heap-graph.
    pub fn enter(&mut self, func: FuncId) {
        debug_assert!(
            (func.0 as usize) < self.core.functions().len(),
            "enter of an id this process never interned"
        );
        self.record(HeapEvent::FnEnter { func: func.0 });
    }

    /// Leaves the innermost function.
    ///
    /// # Panics
    ///
    /// Panics on leave without a matching enter (a workload defect).
    pub fn leave(&mut self) {
        let &id = self
            .core
            .stack()
            .last()
            .expect("leave without matching enter");
        self.record(HeapEvent::FnExit { func: id.0 });
    }

    /// Runs `f` inside an enter/leave pair (exception-unsafe by design:
    /// the simulation has no unwinding mutators).
    pub fn scoped<R>(&mut self, func: FuncId, f: impl FnOnce(&mut Process) -> R) -> R {
        self.enter(func);
        let r = f(self);
        self.leave();
        r
    }

    /// Allocates `size` bytes at call-site `site` (interned by
    /// [`site`](Self::site)).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] from the heap (zero size, capacity).
    pub fn malloc(&mut self, size: usize, site: AllocSite) -> Result<Addr, HeapError> {
        debug_assert!(
            (site.0 as usize) < self.site_names.len(),
            "malloc at a site this process never interned"
        );
        let eff = self.heap.alloc(size, site)?;
        self.record(HeapEvent::Alloc {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
            site,
        });
        Ok(eff.addr)
    }

    /// Frees the object starting at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] (double free, invalid free, …).
    pub fn free(&mut self, addr: Addr) -> Result<(), HeapError> {
        let eff = self.heap.free(addr)?;
        self.record(HeapEvent::Free {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
        });
        Ok(())
    }

    /// Reallocates the object at `addr` to `new_size`, returning its new
    /// address. Surviving pointer slots move with it.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn realloc(
        &mut self,
        addr: Addr,
        new_size: usize,
        site: AllocSite,
    ) -> Result<Addr, HeapError> {
        debug_assert!(
            (site.0 as usize) < self.site_names.len(),
            "realloc at a site this process never interned"
        );
        let eff = self.heap.realloc(addr, new_size, site)?;
        // The graph sees realloc as the event decomposition the paper's
        // instrumentation would observe: free, alloc, then the memcpy'd
        // pointer stores.
        self.record(HeapEvent::Free {
            obj: eff.freed.id,
            addr: eff.freed.addr,
            size: eff.freed.size,
        });
        self.record(HeapEvent::Alloc {
            obj: eff.alloc.id,
            addr: eff.alloc.addr,
            size: eff.alloc.size,
            site,
        });
        for &(off, target) in &eff.moved_slots {
            self.record(HeapEvent::PtrWrite {
                src: eff.alloc.id,
                offset: off,
                value: target,
                old_value: None,
            });
        }
        Ok(eff.alloc.addr)
    }

    /// Stores pointer `value` at `slot` (inside a live heap object).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`] (wild/torn access, null slot).
    pub fn write_ptr(&mut self, slot: Addr, value: Addr) -> Result<(), HeapError> {
        let w = self.heap.write_ptr(slot, value)?;
        // The heap already executed the store (mutator semantics are
        // exact); sampling only decides whether monitoring sees it.
        self.record(HeapEvent::PtrWrite {
            src: w.src,
            offset: w.offset,
            value,
            old_value: w.old_value,
        });
        Ok(())
    }

    /// Clears the pointer slot at `slot` (store of null).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn clear_ptr(&mut self, slot: Addr) -> Result<(), HeapError> {
        self.write_ptr(slot, NULL)
    }

    /// Stores a non-pointer value at `slot`, clearing any pointer there.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn write_scalar(&mut self, slot: Addr) -> Result<(), HeapError> {
        let w = self.heap.write_scalar(slot)?;
        self.record(HeapEvent::ScalarWrite {
            src: w.src,
            offset: w.offset,
            old_value: w.old_value,
        });
        Ok(())
    }

    /// Reads the pointer stored at `slot`.
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn read_ptr(&mut self, slot: Addr) -> Result<Option<Addr>, HeapError> {
        let (obj, v) = self.heap.read_ptr(slot)?;
        self.record(HeapEvent::Read { obj });
        Ok(v)
    }

    /// Records a read access to the object containing `addr` (staleness
    /// signal for leak detectors).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError`].
    pub fn read(&mut self, addr: Addr) -> Result<(), HeapError> {
        let obj = self.heap.read(addr)?;
        self.record(HeapEvent::Read { obj });
        Ok(())
    }

    /// Finishes the run: notifies monitors and returns the metric
    /// report.
    pub fn finish(mut self, run: impl Into<String>) -> MetricReport {
        let _span = heapmd_obs::span!("process_finish");
        let ctx = self.ctx();
        for m in &self.monitors {
            m.borrow_mut().on_finish(&ctx);
        }
        let rate = self.sample_rate();
        MetricReport::with_sample_rate(run, self.core.take_samples(), rate)
    }

    /// Takes ownership of the recorded trace, if any, stamping the
    /// sampling filter's measured outcome onto it when sampling is
    /// enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let mut trace = self.trace.take()?;
        if let Some(info) = self.core.sampling_info() {
            trace.set_sampling(Some(info));
        }
        Some(trace)
    }

    /// The monitors' view: the event core's, plus the flight recorder.
    fn ctx(&self) -> MonitorCtx<'_> {
        MonitorCtx {
            recorder: self.recorder.as_ref(),
            ..self.core.ctx()
        }
    }

    /// Advances the event core by one executed mutator event. An event
    /// the sampling filter admits then reaches the trace and stream
    /// sinks and the listening monitors, and completes a due metric
    /// computation point.
    ///
    /// Inlined into each mutator call, where the event's kind is known,
    /// so the core's per-kind dispatch folds away; the sinks stay out of
    /// line in [`fan_out`](Self::fan_out).
    #[inline(always)]
    fn record(&mut self, ev: HeapEvent) {
        let advance = self.core.advance(&ev);
        if advance == Advance::Dropped {
            return;
        }
        if self.trace.is_some() || self.stream.is_some() || self.listening {
            self.fan_out(&ev);
        }
        if advance == Advance::SampleDue {
            self.sample();
        }
    }

    /// Hands an admitted event to the trace and stream sinks and the
    /// listening monitors.
    #[inline(never)]
    fn fan_out(&mut self, ev: &HeapEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(*ev);
        }
        if let Some(stream) = &mut self.stream {
            if let Err(e) = stream.write_event(ev) {
                self.stream_failed(e);
            }
        }
        if self.listening {
            let ctx = self.ctx();
            for m in &self.monitors {
                m.borrow_mut().on_event(&ctx, ev);
            }
        }
    }

    fn sample(&mut self) {
        let _span = heapmd_obs::span!("metric_computation_point");
        let sample = self.core.take_sample();
        if let Some(rec) = self.recorder.as_mut() {
            let x = sample.seq as u64;
            for kind in MetricKind::ALL {
                rec.record(METRIC_SERIES[kind.index()], x, sample.metric(kind));
            }
            let stats = self.heap.stats();
            let (allocs, frees, stores) = (stats.allocs, stats.frees, stats.ptr_writes);
            let (pa, pf, ps) = self.last_op_totals;
            rec.record("rate.allocs", x, (allocs - pa) as f64);
            rec.record("rate.frees", x, (frees - pf) as f64);
            rec.record("rate.ptr_writes", x, (stores - ps) as f64);
            self.last_op_totals = (allocs, frees, stores);
        }
        heapmd_obs::count!("heapmd_samples_total");
        heapmd_obs::gauge_set!("heapmd_graph_nodes", sample.nodes);
        heapmd_obs::gauge_set!("heapmd_graph_edges", sample.edges);
        heapmd_obs::gauge_set!("heapmd_graph_dangling_slots", sample.dangling);
        heapmd_obs::export::emit_event("heartbeat", |o| {
            let mean_degree = match sample.nodes {
                0 => 0.0,
                nodes => sample.edges as f64 / nodes as f64,
            };
            o.field_u64("seq", sample.seq as u64)
                .field_u64("fn_entries", sample.fn_entries)
                .field_u64("tick", sample.tick)
                .field_u64("nodes", sample.nodes)
                .field_u64("edges", sample.edges)
                .field_u64("dangling", sample.dangling)
                .field_f64("mean_degree", mean_degree);
            let mut metrics = heapmd_obs::json::JsonObject::new();
            for kind in MetricKind::ALL {
                metrics.field_f64(kind.short_name(), sample.metric(kind));
            }
            o.field_raw("metrics", &metrics.finish());
        });
        if !self.monitors.is_empty() {
            let ctx = self.ctx();
            for m in &self.monitors {
                m.borrow_mut().on_sample(&ctx, &sample);
            }
            self.listening = self.monitors.iter().any(|m| m.borrow().listening());
        }
    }
}

/// Declares a struct of names interned once, at set-up: a
/// `func("…")` field holds the [`FuncId`] of that function name, a
/// `site("…")` field the [`AllocSite`] of that allocation-site name,
/// and `new(p)` interns them all in a [`Process`]. Programs build one
/// per run so their hot paths enter and allocate by id.
///
/// # Example
///
/// ```
/// use heapmd::{Process, Settings};
///
/// heapmd::interned! {
///     struct Names {
///         main: func("main"),
///         push: func("List::push"),
///         node: site("list_node"),
///     }
/// }
///
/// # fn main() -> Result<(), heapmd::HeapError> {
/// let mut p = Process::new(Settings::default());
/// let n = Names::new(&mut p);
/// p.enter(n.main);
/// p.scoped(n.push, |p| p.malloc(16, n.node))?;
/// p.leave();
/// assert_eq!(p.functions().name(n.push), "List::push");
/// # Ok(())
/// # }
/// ```
#[macro_export]
macro_rules! interned {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $kind:ident($text:expr)),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis struct $name {
            $($field: $crate::interned!(@type $kind),)+
        }

        impl $name {
            /// Interns every name in `p`.
            fn new(p: &mut $crate::Process) -> Self {
                $name {
                    $($field: $crate::interned!(@intern $kind, p, $text),)+
                }
            }
        }
    };
    (@type func) => { $crate::FuncId };
    (@type site) => { $crate::AllocSite };
    (@intern func, $p:ident, $text:expr) => { $p.function($text) };
    (@intern site, $p:ident, $text:expr) => { $p.site($text) };
}

/// Flight-recorder series names, `"metric." + short_name`, indexed by
/// [`heap_graph::MetricKind::index`].
const METRIC_SERIES: [&str; heap_graph::METRIC_COUNT] = [
    "metric.Root",
    "metric.Indeg=1",
    "metric.Indeg=2",
    "metric.Leaves",
    "metric.Outdeg=1",
    "metric.Outdeg=2",
    "metric.In=Out",
];

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("fn_entries", &self.core.fn_entries())
            .field("samples", &self.core.samples().len())
            .field("live_objects", &self.heap.live_objects())
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(frq: u64) -> Settings {
        Settings::builder().frq(frq).build().unwrap()
    }

    #[test]
    fn sampling_happens_every_frq_entries() {
        let mut p = Process::new(settings(3));
        let f = p.function("f");
        for _ in 0..10 {
            p.enter(f);
            p.leave();
        }
        assert_eq!(p.samples().len(), 3);
        assert_eq!(p.samples()[0].fn_entries, 3);
        assert_eq!(p.samples()[2].fn_entries, 9);
    }

    #[test]
    fn graph_stays_in_sync_with_heap() {
        let mut p = Process::new(settings(1));
        let main = p.function("main");
        let (sa, sb) = (p.site("a"), p.site("b"));
        p.enter(main);
        let a = p.malloc(24, sa).unwrap();
        let b = p.malloc(24, sb).unwrap();
        p.write_ptr(a, b).unwrap();
        assert_eq!(p.graph().edge_count(), 1);
        p.free(b).unwrap();
        assert_eq!(p.graph().edge_count(), 0);
        assert_eq!(p.graph().dangling_count(), 1);
        assert_eq!(p.graph().node_count(), 1);
        p.graph().validate().unwrap();
        p.leave();
    }

    #[test]
    fn realloc_moves_edges() {
        let mut p = Process::new(settings(1));
        let (sa, st) = (p.site("a"), p.site("t"));
        let a = p.malloc(32, sa).unwrap();
        let t = p.malloc(16, st).unwrap();
        p.write_ptr(a, t).unwrap();
        let a2 = p.realloc(a, 64, sa).unwrap();
        assert_ne!(a, a2);
        assert_eq!(p.graph().edge_count(), 1);
        assert_eq!(p.read_ptr(a2).unwrap(), Some(t));
        p.graph().validate().unwrap();
    }

    #[test]
    fn scoped_pairs_enter_and_leave() {
        let mut p = Process::new(settings(1));
        let (outer, inner, again) = (
            p.function("outer"),
            p.function("inner"),
            p.function("again"),
        );
        let out = p.scoped(outer, |p| p.scoped(inner, |p| p.fn_entries()));
        assert_eq!(out, 2);
        assert_eq!(p.fn_entries(), 2);
        // Stack is balanced again: another enter/leave works.
        p.enter(again);
        p.leave();
    }

    #[test]
    #[should_panic(expected = "leave without matching enter")]
    fn unbalanced_leave_panics() {
        let mut p = Process::new(settings(1));
        p.leave();
    }

    #[test]
    fn site_interning_round_trips() {
        let mut p = Process::new(settings(1));
        let s1 = p.site("ListInsert");
        let s2 = p.site("ListInsert");
        assert_eq!(s1, s2);
        assert_eq!(p.site_name(s1), "ListInsert");
        let a = p.malloc(16, s1).unwrap();
        assert_eq!(p.heap().object_at(a).unwrap().site(), s1);
    }

    #[test]
    fn function_interning_round_trips() {
        let mut p = Process::new(settings(1));
        let f1 = p.function("ListInsert");
        let f2 = p.function("ListInsert");
        assert_eq!(f1, f2);
        assert_eq!(p.functions().name(f1), "ListInsert");
        assert_eq!(p.functions().len(), 1);
        // Interning alone is no event: nothing entered, nothing sampled.
        assert_eq!(p.fn_entries(), 0);
    }

    #[test]
    fn finish_returns_all_samples() {
        let mut p = Process::new(settings(2));
        let (w, x) = (p.function("w"), p.site("x"));
        for _ in 0..8 {
            p.enter(w);
            p.malloc(16, x).unwrap();
            p.leave();
        }
        let r = p.finish("myrun");
        assert_eq!(r.run, "myrun");
        assert_eq!(r.len(), 4);
        // The 4th sample fires at the 8th `enter`, before that
        // iteration's malloc — so 7 objects are live.
        assert_eq!(r.samples[3].nodes, 7);
    }

    #[test]
    fn trace_records_events_when_enabled() {
        let mut p = Process::new(settings(1));
        p.enable_trace();
        let (f, x) = (p.function("f"), p.site("x"));
        p.enter(f);
        let a = p.malloc(16, x).unwrap();
        p.free(a).unwrap();
        p.leave();
        let t = p.take_trace().unwrap();
        assert_eq!(t.len(), 4); // enter, alloc, free, exit
        assert!(p.take_trace().is_none());
    }

    #[test]
    fn streamed_trace_matches_in_memory_trace() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut p = Process::new(settings(1));
        p.enable_trace();
        p.stream_trace_to(Box::new(SharedBuf(Arc::clone(&buf))))
            .unwrap();
        let (f, x) = (p.function("f"), p.site("x"));
        p.enter(f);
        let a = p.malloc(16, x).unwrap();
        p.free(a).unwrap();
        p.leave();
        let streamed_events = p.finish_stream().unwrap();
        assert_eq!(streamed_events, 4);
        let mut expected = p.take_trace().unwrap();
        expected.set_functions(vec!["f".to_string()]);

        let bytes = buf.lock().unwrap().clone();
        let back = crate::trace_codec::BinaryTraceReader::strict(&bytes[..]).unwrap();
        assert_eq!(back, expected);
    }

    #[test]
    fn failing_stream_degrades_without_aborting_the_run() {
        struct FailAfter(usize);
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("sink died"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut p = Process::new(settings(1));
        // The header and the first function table succeed; the sink
        // dies on the second table, written when `w1` is interned.
        p.stream_trace_to(Box::new(FailAfter(2))).unwrap();
        let x = p.site("x");
        for i in 0..5 {
            let w = p.function(&format!("w{i}"));
            p.enter(w);
            p.malloc(16, x).unwrap();
            p.leave();
        }
        // The run itself survived without its stream; the error is
        // reported at the end.
        assert_eq!(p.fn_entries(), 5);
        assert!(p.stream.is_none(), "the dead stream was dropped mid-run");
        assert!(matches!(p.finish_stream(), Err(HeapMdError::Io(_))));
        // A second finish reports the stream as gone.
        assert!(matches!(
            p.finish_stream(),
            Err(HeapMdError::InvalidInput(_))
        ));
    }

    #[test]
    fn metric_series_names_follow_the_short_names() {
        for kind in heap_graph::MetricKind::ALL {
            assert_eq!(
                METRIC_SERIES[kind.index()],
                format!("metric.{}", kind.short_name())
            );
        }
    }

    #[test]
    fn heap_errors_propagate_without_corrupting_graph() {
        let mut p = Process::new(settings(1));
        let x = p.site("x");
        let a = p.malloc(16, x).unwrap();
        p.free(a).unwrap();
        assert!(p.free(a).is_err());
        p.graph().validate().unwrap();
        assert_eq!(p.graph().node_count(), 0);
    }
}
