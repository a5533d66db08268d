//! Offline (post-mortem) traces.
//!
//! HeapMD's second deployment mode (§2): the instrumented program writes
//! an execution trace; the checker later replays it against a
//! previously constructed model. Because the whole trace is available,
//! offline analysis can avoid online cascade effects — and, in this
//! reproduction, lets tests replay identical event streams through
//! different settings.

use crate::callstack::{FuncId, FunctionTable};
use crate::detector::AnomalyDetector;
use crate::error::HeapMdError;
use crate::incident::{IncidentBundle, IncidentLog};
use crate::model::HeapModel;
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::{MetricReport, MetricSample};
use crate::settings::Settings;
use crate::trace_codec::SalvageStats;
use heap_graph::{ApplyError, HeapGraph};
use sim_heap::HeapEvent;
use std::path::PathBuf;
use swat::{SampledIngest, SamplerConfig, SamplingInfo};

/// A recorded instrumentation event stream.
///
/// Produced by [`crate::Process::enable_trace`]; replay it with
/// [`Trace::replay`] (to recover the metric report under any sampling
/// settings) or [`Trace::check`] (to run the anomaly detector
/// post-mortem, with full call-stack context).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<HeapEvent>,
    /// Function names interned by the traced run (so replays can render
    /// call stacks). Populated by [`set_functions`](Self::set_functions)
    /// or left empty for anonymous frames.
    functions: Vec<String>,
    /// Sampling metadata when the recording process ran behind a
    /// [`SampledIngest`] filter: the stream is already decimated, and
    /// this records how. `None` means every store was recorded.
    sampling: Option<SamplingInfo>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// A trace of `events`, named by `functions`, recorded under
    /// `sampling`.
    pub(crate) fn from_parts(
        events: Vec<HeapEvent>,
        functions: Vec<String>,
        sampling: Option<SamplingInfo>,
    ) -> Self {
        Trace {
            events,
            functions,
            sampling,
        }
    }

    /// Appends an event.
    pub fn push(&mut self, event: HeapEvent) {
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[HeapEvent] {
        &self.events
    }

    /// Attaches the traced run's function-name table (index = id).
    pub fn set_functions(&mut self, names: Vec<String>) {
        self.functions = names;
    }

    /// The attached function-name table (empty for anonymous frames).
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// Sampling metadata of the recorded stream (`None` = unsampled).
    pub fn sampling(&self) -> Option<SamplingInfo> {
        self.sampling
    }

    /// Attaches sampling metadata (what a [`SampledIngest`]-fronted
    /// recording measured).
    pub fn set_sampling(&mut self, sampling: Option<SamplingInfo>) {
        self.sampling = sampling;
    }

    /// The effective store-sampling rate of the recorded stream:
    /// `1.0` for unsampled traces.
    pub fn sample_rate(&self) -> f64 {
        self.sampling.map_or(1.0, |s| s.rate())
    }

    /// Produces the sampled copy of this (unsampled) trace: the event
    /// stream a process recording behind a [`SampledIngest`] filter
    /// under `config` would have written, with the measured
    /// [`SamplingInfo`] attached. Alloc/free/function events all
    /// survive; pointer and scalar stores are burst-sampled per
    /// allocation site. With `decimation == 1` the copy is
    /// event-identical to `self` (only the metadata differs).
    pub fn sampled(&self, config: SamplerConfig) -> Trace {
        let mut filter = SampledIngest::new(config);
        let events: Vec<HeapEvent> = self
            .events
            .iter()
            .filter(|ev| filter.admit(ev))
            .copied()
            .collect();
        Trace {
            events,
            functions: self.functions.clone(),
            sampling: Some(filter.info()),
        }
    }

    /// Replays the trace, recomputing the metric report under
    /// `settings` (which may differ from the settings used when the
    /// trace was recorded — e.g. a different `frq`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidInput`] when an event references a
    /// function id outside the interned `functions` table (a mangled or
    /// mismatched trace).
    pub fn replay(
        &self,
        settings: &Settings,
        run: impl Into<String>,
    ) -> Result<MetricReport, HeapMdError> {
        validate_function_ids(&self.events, self.functions.len())?;
        let mut replayer = Replayer::new(settings.clone(), &self.functions);
        replayer.ingest_batch(&self.events)?;
        Ok(MetricReport::with_sample_rate(
            run,
            replayer.take_samples(),
            self.sample_rate(),
        ))
    }

    /// Replays the trace through the anomaly detector, post-mortem.
    ///
    /// Unlike [`AnomalyDetector::check_report`], the detector sees the
    /// full event stream, so bug reports carry call-stack context just
    /// as in online mode.
    ///
    /// # Errors
    ///
    /// Returns [`HeapMdError::InvalidInput`] when an event references a
    /// function id outside the interned `functions` table, or an object
    /// the heap graph cannot apply it to.
    pub fn check(
        &self,
        model: &HeapModel,
        settings: &Settings,
    ) -> Result<Vec<crate::bug::BugReport>, HeapMdError> {
        self.check_with(model, settings, None).map(|o| o.bugs)
    }

    /// [`check`](Self::check), re-sampling under `sampler` when the
    /// trace was recorded at full fidelity.
    pub(crate) fn check_with(
        &self,
        model: &HeapModel,
        settings: &Settings,
        sampler: Option<SamplerConfig>,
    ) -> Result<TraceCheckOutcome, HeapMdError> {
        let replayer = Replayer::new(settings.clone(), &[]);
        let mut check = StreamCheck::new(model.clone(), replayer, sampler);
        check.set_functions(&self.functions);
        if let Some(info) = self.sampling {
            check.set_sampling(info);
        }
        check.feed(&self.events)?;
        check.finish()
    }
}

/// One checked stream: the state every post-mortem check and every
/// serve tenant holds, and the one way events reach it.
///
/// A [`Replayer`] with an [`AnomalyDetector`] attached, the count of
/// events received, and the first refusal. The stream's metadata
/// arrives ahead of its events ([`set_functions`](Self::set_functions),
/// [`set_sampling`](Self::set_sampling)), and its events arrive as
/// slices, one whole trace or block by block
/// ([`feed`](Self::feed)). Three rules hold on every path:
///
/// - sampling is settled at the first events slice: a full-fidelity
///   stream is re-sampled under the check's sampler through a live
///   filter, whose measured rate the detector observes as it evolves;
///   an already-decimated stream keeps its recorded schedule
///   (re-decimating would double-drop stores), and the detector widens
///   its ranges by the recorded rate;
/// - every slice is validated against the function table received so
///   far, and every event must apply to the heap graph (a store into
///   or a free of an object the stream never allocated does not);
/// - the first refusal is latched: later events are counted but not
///   checked, and [`finish`](Self::finish) returns the refusal instead
///   of a verdict.
///
/// The detector skips the model's warm-up, as a live check does, so
/// the stream's length plays no part.
pub(crate) struct StreamCheck {
    replayer: Replayer,
    detector: AnomalyDetector,
    /// The recorded sampling outcome the stream announced (`None` =
    /// full fidelity).
    recorded: Option<SamplingInfo>,
    /// Names in the function table received so far.
    table_len: usize,
    /// Events received, before any re-sampling.
    events: u64,
    refusal: Option<HeapMdError>,
}

impl StreamCheck {
    /// A check of `model` over `replayer` (fresh or [reset](Replayer::reset),
    /// with an empty function table), re-sampling a full-fidelity
    /// stream under `sampler`.
    pub(crate) fn new(
        model: HeapModel,
        mut replayer: Replayer,
        sampler: Option<SamplerConfig>,
    ) -> Self {
        if let Some(config) = sampler {
            replayer.enable_sampling(config);
        }
        let detector = AnomalyDetector::new(model, replayer.settings().clone());
        StreamCheck {
            replayer,
            detector,
            recorded: None,
            table_len: 0,
            events: 0,
            refusal: None,
        }
    }

    /// Persists the incident bundles of range violations under `log`
    /// at [`finish`](Self::finish).
    pub(crate) fn log_incidents_to(&mut self, log: IncidentLog) {
        self.detector.log_incidents_to(log);
    }

    /// Replaces the function table (index = id).
    pub(crate) fn set_functions(&mut self, names: &[String]) {
        self.replayer.set_functions(names);
        self.table_len = names.len();
    }

    /// Records the sampling outcome of an already-decimated stream,
    /// which then keeps its recorded schedule. Sampling is settled once
    /// events arrive: later calls are ignored.
    pub(crate) fn set_sampling(&mut self, info: SamplingInfo) {
        if self.events == 0 {
            self.recorded = Some(info);
            self.replayer.keep_recorded(info);
        }
    }

    /// Checks the next slice of the stream's events.
    ///
    /// # Errors
    ///
    /// The event of this slice the heap graph could not apply. The
    /// refusal is latched as well, so [`finish`](Self::finish) reports
    /// it; a caller may stop feeding on it (serve evicts the stream).
    pub(crate) fn feed(&mut self, events: &[HeapEvent]) -> Result<(), ApplyError> {
        self.events += events.len() as u64;
        if self.refusal.is_some() {
            return Ok(());
        }
        if let Err(e) = validate_function_ids(events, self.table_len) {
            self.refusal = Some(e);
            return Ok(());
        }
        let applied = self.replayer.drive(events, &mut self.detector);
        if let Err(e) = applied {
            self.refusal = Some(e.into());
        }
        applied
    }

    /// Whether a refusal is latched: the events after it go unchecked.
    pub(crate) fn refused(&self) -> bool {
        self.refusal.is_some()
    }

    /// Events received so far, before any re-sampling.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// The samples taken so far.
    pub(crate) fn samples(&self) -> &[MetricSample] {
        self.replayer.samples()
    }

    /// The sampling rate the detector currently observes.
    pub(crate) fn effective_rate(&self) -> f64 {
        self.replayer.effective_rate()
    }

    /// Ends the check over what arrived: the detector's verdict, its
    /// incident bundles and the sample series, or the latched refusal.
    /// Call it once; [`into_replayer`](Self::into_replayer) then hands
    /// the replayer back for reuse.
    ///
    /// # Errors
    ///
    /// The latched refusal: [`HeapMdError::InvalidInput`] for an event
    /// naming a function outside the table received before it, or one
    /// the heap graph cannot apply.
    pub(crate) fn finish(&mut self) -> Result<TraceCheckOutcome, HeapMdError> {
        if let Some(e) = self.refusal.take() {
            return Err(e);
        }
        self.detector.on_finish(&self.replayer.ctx());
        Ok(TraceCheckOutcome {
            bugs: self.detector.take_bugs(),
            incidents: self.detector.take_incidents(),
            samples: self.replayer.take_samples(),
            sampling: self.replayer.sampling_info().or(self.recorded),
            salvage: None,
        })
    }

    /// The bundle files the incident log wrote at
    /// [`finish`](Self::finish) (none without a log).
    pub(crate) fn bundle_paths(&self) -> &[PathBuf] {
        self.detector.incident_log().map_or(&[], |l| l.paths())
    }

    /// The replayer, graph capacity intact, for the next stream.
    pub(crate) fn into_replayer(self) -> Replayer {
        self.replayer
    }
}

/// Checks that every `FnEnter`/`FnExit` event references an id inside
/// a function table of `table_len` names. An empty table means
/// anonymous frames, where any id is legal.
///
/// # Errors
///
/// Returns [`HeapMdError::InvalidInput`] naming the first offending id.
pub(crate) fn validate_function_ids(
    events: &[HeapEvent],
    table_len: usize,
) -> Result<(), HeapMdError> {
    if table_len == 0 {
        return Ok(());
    }
    for ev in events {
        let func = match *ev {
            HeapEvent::FnEnter { func } | HeapEvent::FnExit { func } => func,
            _ => continue,
        };
        if func as usize >= table_len {
            return Err(HeapMdError::InvalidInput(format!(
                "event references function id {func}, but the trace interns \
                 only {table_len} function names"
            )));
        }
    }
    Ok(())
}

/// What an offline check produced (see [`crate::check_path`]).
#[derive(Debug)]
pub struct TraceCheckOutcome {
    /// The detector's bug reports.
    pub bugs: Vec<crate::bug::BugReport>,
    /// Incident bundles for range violations that survived the
    /// shutdown trim.
    pub incidents: Vec<IncidentBundle>,
    /// The metric samples the check replayed — the same series a
    /// [`Trace::replay`] would produce, exposed so callers (e.g. the
    /// run-store append path) need not replay the trace twice.
    pub samples: Vec<MetricSample>,
    /// How the checked stream was sampled: the live filter's outcome
    /// when the check re-sampled it, the recorded outcome otherwise
    /// (`None` = full fidelity).
    pub sampling: Option<SamplingInfo>,
    /// What salvage recovered, when the check read its file in salvage
    /// mode (see [`crate::check_path`]).
    pub salvage: Option<SalvageStats>,
}

/// The one event core behind live monitoring and post-mortem replay:
/// the heap graph, the call stack, the function table, the
/// sampling schedule and filter, and the tick clock.
///
/// [`crate::Process`] feeds its own replayer each event its mutator
/// API executes; [`Trace::replay`], the binary codec's engines
/// ([`crate::trace_codec`]) and serve feed recorded streams, as one
/// slice or block by block. Every event goes through one private step,
/// [`advance`](Self::advance), and `tick` counts the events it admitted
/// from the stream's start. So a sample lands with the same `tick` on
/// every path, however the stream arrives and whoever fans it out.
pub(crate) struct Replayer {
    graph: HeapGraph,
    funcs: FunctionTable,
    stack: Vec<FuncId>,
    settings: Settings,
    fn_entries: u64,
    samples: Vec<MetricSample>,
    /// Admitted events so far: the global event offset every path
    /// resumes from, and the tick samples and monitors observe.
    tick: u64,
    /// Live store-sampling filter, when this replay *re-samples* an
    /// unsampled stream (production-overhead simulation). Events it
    /// rejects reach neither the graph nor monitors nor the tick
    /// clock, so the result is bit-identical to replaying
    /// [`Trace::sampled`]'s output unfiltered.
    sampling: Option<SampledIngest>,
    /// Effective rate handed to monitors when the *input* stream was
    /// already decimated at record time (the filter itself is off).
    /// `1.0` for unsampled streams; ignored while `sampling` is live.
    rate_override: f64,
}

/// What [`Replayer::advance`] did with one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Advance {
    /// The sampling filter rejected the event: nothing moved.
    Dropped,
    /// The event was applied.
    Applied,
    /// The event was applied and is a metric computation point; the
    /// caller takes the sample ([`Replayer::take_sample`]).
    SampleDue,
}

impl Replayer {
    pub(crate) fn new(settings: Settings, function_names: &[String]) -> Self {
        let mut replayer = Replayer {
            graph: HeapGraph::new(),
            funcs: FunctionTable::new(),
            stack: Vec::new(),
            settings,
            fn_entries: 0,
            samples: Vec::new(),
            tick: 0,
            sampling: None,
            rate_override: 1.0,
        };
        replayer.set_functions(function_names);
        replayer
    }

    /// Installs a live [`SampledIngest`] filter: subsequent batches and
    /// drives re-sample the incoming (unsampled) stream under `config`.
    pub(crate) fn enable_sampling(&mut self, config: SamplerConfig) {
        self.sampling = Some(SampledIngest::new(config));
    }

    /// Replays an already-decimated stream under its recorded schedule,
    /// before its first event: any live filter is dropped (re-decimating
    /// would double-drop stores), and monitors observe the recorded rate
    /// via [`MonitorCtx::sample_rate`].
    pub(crate) fn keep_recorded(&mut self, recorded: SamplingInfo) {
        self.sampling = None;
        self.rate_override = recorded.rate();
    }

    /// The effective sampling rate monitors currently observe: the live
    /// filter's measured rate when one is installed, the recorded rate
    /// otherwise.
    pub(crate) fn effective_rate(&self) -> f64 {
        match &self.sampling {
            Some(filter) => filter.effective_rate(),
            None => self.rate_override,
        }
    }

    /// The live filter's measured outcome, when one is installed.
    pub(crate) fn sampling_info(&self) -> Option<SamplingInfo> {
        self.sampling.as_ref().map(|f| f.info())
    }

    /// Replaces the function table (index = id). A stream may carry
    /// several tables, each a prefix of the next, so ids already seen
    /// keep their names.
    pub(crate) fn set_functions(&mut self, names: &[String]) {
        self.funcs = FunctionTable::new();
        for name in names {
            self.funcs.intern(name);
        }
    }

    /// Returns the replayer to its just-constructed state while
    /// retaining graph capacity (slot slabs, shadow pages, id index):
    /// the serve daemon's replayer pool recycles them across tenant
    /// streams this way instead of allocating one per stream, and each
    /// `check` worker ([`crate::TraceChecker`]) across its traces.
    pub(crate) fn reset(&mut self, settings: Settings, function_names: &[String]) {
        self.graph.reset();
        self.set_functions(function_names);
        self.stack.clear();
        self.settings = settings;
        self.fn_entries = 0;
        self.samples.clear();
        self.tick = 0;
        self.sampling = None;
        self.rate_override = 1.0;
    }

    /// The settings in force.
    pub(crate) fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The heap graph.
    pub(crate) fn graph(&self) -> &HeapGraph {
        &self.graph
    }

    /// The function intern table.
    pub(crate) fn functions(&self) -> &FunctionTable {
        &self.funcs
    }

    /// Interns a function name, for a live process entering it.
    pub(crate) fn intern(&mut self, name: &str) -> FuncId {
        self.funcs.intern(name)
    }

    /// The current call stack, outermost first.
    pub(crate) fn stack(&self) -> &[FuncId] {
        &self.stack
    }

    /// Cumulative function entries.
    pub(crate) fn fn_entries(&self) -> u64 {
        self.fn_entries
    }

    /// The samples recorded so far.
    pub(crate) fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Hands over the samples recorded so far.
    pub(crate) fn take_samples(&mut self) -> Vec<MetricSample> {
        std::mem::take(&mut self.samples)
    }

    /// The monitors' view of the current replay state.
    pub(crate) fn ctx(&self) -> MonitorCtx<'_> {
        MonitorCtx {
            graph: &self.graph,
            tick: self.tick,
            stack: &self.stack,
            funcs: &self.funcs,
            fn_entries: self.fn_entries,
            sample_rate: self.effective_rate(),
            recorder: None,
        }
    }

    /// Records a metric computation point from the current graph state.
    pub(crate) fn take_sample(&mut self) -> MetricSample {
        let (ext, values) = self.graph.measure();
        let sample = MetricSample {
            seq: self.samples.len(),
            fn_entries: self.fn_entries,
            tick: self.tick,
            nodes: ext.nodes,
            edges: ext.edges,
            dangling: ext.dangling_slots,
            values,
        };
        self.samples.push(sample);
        sample
    }

    /// The per-event core every path shares: the filter decision, the
    /// tick, the call stack, the graph update and the entry count.
    /// A rejected store is as if it was never recorded, so replaying a
    /// stream behind the filter is bit-identical to replaying the
    /// pre-filtered stream without one.
    ///
    /// # Errors
    ///
    /// An event the heap graph cannot apply; the graph is unchanged,
    /// but the event counts as admitted.
    #[inline(always)]
    pub(crate) fn advance(&mut self, ev: &HeapEvent) -> Result<Advance, ApplyError> {
        if let Some(filter) = self.sampling.as_mut() {
            if !filter.admit(ev) {
                return Ok(Advance::Dropped);
            }
        }
        self.tick += 1;
        match *ev {
            HeapEvent::FnEnter { func } => {
                self.stack.push(FuncId(func));
                self.fn_entries += 1;
                if self.fn_entries.is_multiple_of(self.settings.frq) {
                    return Ok(Advance::SampleDue);
                }
            }
            HeapEvent::FnExit { .. } => {
                self.stack.pop();
            }
            _ => self.graph.try_apply(ev)?,
        }
        Ok(Advance::Applied)
    }

    /// Monitor-free replay of a slice: [`advance`](Self::advance) over
    /// each event, taking every due sample.
    ///
    /// Resumable: ticks count from the running global offset, so
    /// feeding a stream as N block-sized slices (the pipelined binary
    /// decoder does exactly this, recycling one batch buffer instead of
    /// allocating per block) produces samples bit-identical to one call
    /// over the whole slice.
    ///
    /// # Errors
    ///
    /// The first event the heap graph cannot apply; ingestion stops
    /// there.
    pub(crate) fn ingest_batch(&mut self, events: &[HeapEvent]) -> Result<(), ApplyError> {
        self.ingest(events, false).map(drop)
    }

    /// [`ingest_batch`](Self::ingest_batch), stopping right after the
    /// first metric computation point when `stop_at_sample` is set.
    /// Returns the number of events consumed.
    fn ingest(&mut self, events: &[HeapEvent], stop_at_sample: bool) -> Result<usize, ApplyError> {
        for (i, ev) in events.iter().enumerate() {
            if self.advance(ev)? == Advance::SampleDue {
                self.take_sample();
                if stop_at_sample {
                    return Ok(i + 1);
                }
            }
        }
        Ok(events.len())
    }

    /// Replays `events` into `monitor`, delivering each event only
    /// while it is [listening](Monitor::listening).
    ///
    /// Listening is read at every metric computation point (the only
    /// place it may turn on). While the monitor listens, each admitted
    /// event reaches [`on_event`](Monitor::on_event) up to and including
    /// the next sample point, whose sample then reaches
    /// [`on_sample`](Monitor::on_sample); while it does not, the span up
    /// to and including the next sampling `FnEnter` is ingested without
    /// delivery and only its sample is handed over. Both paths advance
    /// the same core, so samples, ticks and everything the monitor
    /// observes are bit-identical to delivering every event.
    ///
    /// # Errors
    ///
    /// The first event the heap graph cannot apply; the drive stops
    /// there, and the monitor does not see that event.
    pub(crate) fn drive<M: Monitor>(
        &mut self,
        events: &[HeapEvent],
        monitor: &mut M,
    ) -> Result<(), ApplyError> {
        let mut rest = events;
        while !rest.is_empty() {
            let consumed = if monitor.listening() {
                let mut n = rest.len();
                for (i, ev) in rest.iter().enumerate() {
                    let advance = self.advance(ev)?;
                    if advance == Advance::Dropped {
                        continue;
                    }
                    monitor.on_event(&self.ctx(), ev);
                    if advance == Advance::SampleDue {
                        let sample = self.take_sample();
                        monitor.on_sample(&self.ctx(), &sample);
                        n = i + 1;
                        break;
                    }
                }
                n
            } else {
                let taken = self.samples.len();
                let n = self.ingest(rest, true)?;
                if self.samples.len() > taken {
                    let sample = self.samples[taken];
                    monitor.on_sample(&self.ctx(), &sample);
                }
                n
            };
            rest = &rest[consumed..];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use heap_graph::MetricKind;

    fn traced_run(frq: u64, n: usize) -> (Trace, MetricReport) {
        let settings = Settings::builder().frq(frq).build().unwrap();
        let mut p = Process::new(settings);
        p.enable_trace();
        let (build, node_site) = (p.function("build"), p.site("node"));
        let mut prev = None;
        for i in 0..n {
            p.enter(build);
            let node = p.malloc(16, node_site).unwrap();
            if let Some(prev) = prev {
                p.write_ptr(node.offset(8), prev).unwrap();
            }
            prev = Some(node);
            if i % 7 == 0 {
                p.write_scalar(node).unwrap();
            }
            p.leave();
        }
        let mut trace = p.take_trace().unwrap();
        let names: Vec<String> = (0..p.functions().len())
            .map(|i| {
                p.functions()
                    .name(crate::callstack::FuncId(i as u32))
                    .to_string()
            })
            .collect();
        trace.set_functions(names);
        let report = p.finish("online");
        (trace, report)
    }

    #[test]
    fn replay_reproduces_the_online_report() {
        let (trace, online) = traced_run(5, 100);
        let settings = Settings::builder().frq(5).build().unwrap();
        let offline = trace.replay(&settings, "offline").unwrap();
        assert_eq!(online.samples, offline.samples);
    }

    #[test]
    fn anonymous_frames_render_their_raw_ids() {
        let settings = Settings::builder().frq(1000).build().unwrap();
        let enters = [
            HeapEvent::FnEnter { func: 5 },
            HeapEvent::FnEnter { func: 0 },
        ];
        let mut batched = Replayer::new(settings.clone(), &[]);
        batched.ingest_batch(&enters).unwrap();
        assert_eq!(batched.ctx().stack_names(), ["fn#5", "fn#0"]);
        let mut driven = Replayer::new(settings, &[]);
        driven.drive(&enters, &mut EveryEvent).unwrap();
        assert_eq!(driven.ctx().stack_names(), ["fn#5", "fn#0"]);
    }

    /// A monitor that observes nothing but always listens, so a drive
    /// delivers it every event.
    struct EveryEvent;

    impl Monitor for EveryEvent {}

    #[test]
    fn batched_replay_matches_stepped_replay() {
        let (trace, _) = traced_run(5, 100);
        let settings = Settings::builder().frq(5).build().unwrap();
        let batched = trace.replay(&settings, "batched").unwrap();
        // Stepped reference: drive the replayer one event at a time.
        let mut stepped = Replayer::new(settings, trace.functions());
        for ev in trace.events() {
            stepped
                .drive(std::slice::from_ref(ev), &mut EveryEvent)
                .unwrap();
        }
        assert_eq!(batched.samples, stepped.samples);
    }

    #[test]
    fn blockwise_ingest_matches_whole_slice_ingest() {
        let (trace, _) = traced_run(5, 200);
        let settings = Settings::builder().frq(5).build().unwrap();
        let whole = trace.replay(&settings, "whole").unwrap();
        // Feed the same stream in awkwardly sized chunks, as the
        // pipelined binary decoder does block by block.
        for chunk in [1usize, 7, 64, 1000] {
            let mut r = Replayer::new(settings.clone(), trace.functions());
            for part in trace.events().chunks(chunk) {
                r.ingest_batch(part).unwrap();
            }
            assert_eq!(
                whole.samples,
                r.take_samples(),
                "chunk size {chunk} must not change the replay"
            );
        }
    }

    #[test]
    fn reset_replayer_reproduces_a_fresh_one() {
        let (trace, _) = traced_run(5, 120);
        let settings = Settings::builder().frq(5).build().unwrap();
        let mut fresh = Replayer::new(settings.clone(), trace.functions());
        fresh.ingest_batch(trace.events()).unwrap();
        let want = fresh.take_samples();
        // Dirty a replayer with a different stream, then reset it.
        let (other, _) = traced_run(3, 77);
        let mut reused = Replayer::new(settings.clone(), other.functions());
        reused.ingest_batch(other.events()).unwrap();
        reused.reset(settings.clone(), trace.functions());
        reused.ingest_batch(trace.events()).unwrap();
        assert_eq!(reused.take_samples(), want, "reset replayer diverged");
    }

    #[test]
    fn replay_supports_different_sampling_rates() {
        let (trace, _) = traced_run(5, 100);
        let coarse = Settings::builder().frq(20).build().unwrap();
        let report = trace.replay(&coarse, "coarse").unwrap();
        assert_eq!(report.len(), 5);
    }

    #[test]
    fn out_of_table_function_id_is_invalid_input() {
        let (mut trace, _) = traced_run(5, 20);
        let table_len = trace.functions().len() as u32;
        trace.push(sim_heap::HeapEvent::FnEnter {
            func: table_len + 3,
        });
        let settings = Settings::builder().frq(5).build().unwrap();
        assert!(matches!(
            trace.replay(&settings, "bad"),
            Err(HeapMdError::InvalidInput(_))
        ));
        let model = crate::model::ModelBuilder::new(settings.clone())
            .build()
            .model;
        assert!(matches!(
            trace.check(&model, &settings),
            Err(HeapMdError::InvalidInput(_))
        ));
        // Anonymous frames (no table) remain permissive.
        trace.set_functions(Vec::new());
        assert!(trace.replay(&settings, "anon").is_ok());
    }

    /// A run whose heap shape shifts part way — a linked list, then
    /// mostly isolated nodes and frees — under a changing call stack.
    fn shifting_run(n: usize) -> Trace {
        let settings = Settings::builder().frq(3).build().unwrap();
        let mut p = Process::new(settings);
        p.enable_trace();
        let (parse, nested) = (p.function("parse"), p.function("nested"));
        let phases = [parse, p.function("build"), p.function("link")];
        let node_site = p.site("node");
        let mut live: Vec<sim_heap::Addr> = Vec::new();
        for i in 0..n {
            p.enter(phases[i % 3]);
            if i % 5 == 0 {
                p.enter(nested);
            }
            let node = p.malloc(32, node_site).unwrap();
            if i < n / 2 || i % 4 == 0 {
                if let Some(&prev) = live.last() {
                    p.write_ptr(node.offset(8), prev).unwrap();
                }
            }
            p.write_scalar(node.offset(16)).unwrap();
            live.push(node);
            if i >= n / 2 && i % 3 == 1 {
                let victim = live.remove(i % live.len());
                p.free(victim).unwrap();
            }
            if i % 5 == 0 {
                p.leave();
            }
            p.leave();
        }
        let mut trace = p.take_trace().unwrap();
        let names = (0..p.functions().len())
            .map(|i| {
                let id = crate::callstack::FuncId(i as u32);
                p.functions().name(id).to_string()
            })
            .collect();
        trace.set_functions(names);
        trace
    }

    /// A model calibrating every metric on the range its first third of `samples` spans, so later
    /// samples approach (arming the window) and cross. It records the
    /// warm-up of `settings`.
    fn tight_model(samples: &[MetricSample], settings: &Settings) -> HeapModel {
        use crate::model::StableMetric;
        let early = &samples[samples.len() / 6..samples.len() / 3];
        let span = |get: &dyn Fn(&MetricSample) -> f64| {
            early
                .iter()
                .map(get)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                })
        };
        let stable = MetricKind::ALL
            .into_iter()
            .map(|kind| {
                let (min, max) = span(&|s| s.metric(kind));
                StableMetric {
                    kind,
                    min,
                    max,
                    avg_change: 0.0,
                    std_change: 1.0,
                    stable_runs: 3,
                    total_runs: 3,
                }
            })
            .collect();
        HeapModel {
            version: crate::model::MODEL_FORMAT_VERSION,
            program: "shifting".into(),
            settings: settings.clone(),
            stable,
            unstable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        }
    }

    /// Forwards to the detector but always listens, so the drive
    /// delivers it every event.
    struct AlwaysListening<'a>(&'a mut AnomalyDetector);

    impl Monitor for AlwaysListening<'_> {
        fn on_event(&mut self, ctx: &MonitorCtx<'_>, event: &HeapEvent) {
            self.0.on_event(ctx, event);
        }
        fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
            self.0.on_sample(ctx, sample);
        }
        fn on_finish(&mut self, ctx: &MonitorCtx<'_>) {
            self.0.on_finish(ctx);
        }
    }

    /// [`StreamCheck`]'s set-up with every event delivered, `block`
    /// events per fed slice.
    fn stepped_check(
        trace: &Trace,
        model: &HeapModel,
        settings: &Settings,
        sampler: Option<SamplerConfig>,
        block: usize,
    ) -> TraceCheckOutcome {
        let mut detector = AnomalyDetector::new(model.clone(), settings.clone());
        let mut replayer = Replayer::new(settings.clone(), trace.functions());
        if let Some(config) = sampler {
            replayer.enable_sampling(config);
        }
        if let Some(info) = trace.sampling() {
            replayer.keep_recorded(info);
        }
        for part in trace.events().chunks(block) {
            replayer
                .drive(part, &mut AlwaysListening(&mut detector))
                .unwrap();
        }
        detector.on_finish(&replayer.ctx());
        TraceCheckOutcome {
            bugs: detector.take_bugs(),
            incidents: detector.take_incidents(),
            samples: replayer.take_samples(),
            sampling: replayer.sampling_info().or(trace.sampling()),
            salvage: None,
        }
    }

    #[test]
    fn gated_driver_matches_stepping_every_event() {
        let trace = shifting_run(600);
        let settings = Settings::builder()
            .frq(3)
            .warmup_samples(2)
            .near_edge_frac(0.3)
            .callstack_capacity(16)
            .build()
            .unwrap();
        let exact = tight_model(
            &trace.replay(&settings, "calibrate").unwrap().samples,
            &settings,
        );
        let resampler = SamplerConfig::new(16, 2);
        let recorded = trace.sampled(resampler);
        // Rate-matched calibration for the sampled modes, so widening
        // does not swallow the excursions.
        let mut matched = tight_model(
            &recorded.replay(&settings, "calibrate").unwrap().samples,
            &settings,
        );
        matched.sample_rate = recorded.sample_rate();
        let cases = [
            ("exact", &trace, &exact, None),
            ("re-sampled", &trace, &matched, Some(resampler)),
            ("recorded sampled", &recorded, &matched, None),
        ];
        for (mode, trace, model, sampler) in cases {
            for block in [trace.len(), 7] {
                let want = stepped_check(trace, model, &settings, sampler, block);
                let replayer = Replayer::new(settings.clone(), &[]);
                let mut check = StreamCheck::new(model.clone(), replayer, sampler);
                check.set_functions(trace.functions());
                if let Some(info) = trace.sampling() {
                    check.set_sampling(info);
                }
                trace
                    .events()
                    .chunks(block)
                    .for_each(|part| check.feed(part).unwrap());
                let got = check.finish().unwrap();
                let what = format!("{mode}, {block}-event slices");
                // The case must exercise the window: logged before the
                // crossing and context collected after it.
                let phases: Vec<_> = want
                    .bugs
                    .iter()
                    .flat_map(|b| &b.context)
                    .map(|e| e.phase)
                    .collect();
                assert!(
                    phases.contains(&crate::bug::LogPhase::Before),
                    "{what}: never armed"
                );
                assert!(
                    phases.contains(&crate::bug::LogPhase::After),
                    "{what}: no after-context"
                );
                assert_eq!(got.bugs, want.bugs, "{what}");
                assert_eq!(got.incidents, want.incidents, "{what}");
                assert_eq!(got.samples, want.samples, "{what}");
                assert_eq!(got.sampling, want.sampling, "{what}");
            }
        }
    }

    #[test]
    fn offline_check_finds_the_same_violation_as_online() {
        use crate::model::{HeapModel, StableMetric};

        // Model claiming Roots must stay within [0, 5]: a growing list
        // has Roots ≈ 1/n·100 shrinking toward 0 — fine — but a fresh
        // run that never links nodes has Roots = 100.
        let settings = Settings::builder()
            .frq(5)
            .warmup_samples(1)
            .build()
            .unwrap();
        let model = HeapModel {
            version: crate::model::MODEL_FORMAT_VERSION,
            program: "t".into(),
            settings: settings.clone(),
            stable: vec![StableMetric {
                kind: MetricKind::Roots,
                min: 0.0,
                max: 5.0,
                avg_change: 0.0,
                std_change: 0.5,
                stable_runs: 3,
                total_runs: 3,
            }],
            unstable: vec![],
            sample_rate: 1.0,
            training_runs: 3,
        };
        // Buggy run: isolated nodes only (Roots = 100 > 5).
        let mut p = Process::new(settings.clone());
        p.enable_trace();
        let (lp, iso) = (p.function("loop"), p.site("iso"));
        for _ in 0..50 {
            p.enter(lp);
            p.malloc(16, iso).unwrap();
            p.leave();
        }
        let trace = p.take_trace().unwrap();
        let bugs = trace.check(&model, &settings).unwrap();
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].metric, MetricKind::Roots);
    }
}
