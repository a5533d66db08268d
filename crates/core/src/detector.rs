//! The execution checker / anomaly detector (paper §2.2).

use crate::bug::{AnomalyKind, BugReport, Direction, LogPhase, StackLogEntry};
use crate::callstack::{FuncId, FunctionTable};
use crate::fluctuation::FluctuationStats;
use crate::incident::{DegreeSnapshot, IncidentBundle, IncidentLog, SeriesData};
use crate::model::{sampling_widen, HeapModel, StableMetric};
use crate::monitor::{Monitor, MonitorCtx};
use crate::report::{MetricReport, MetricSample};
use crate::settings::Settings;
use crate::stability::{classify, StabilityClass};
use heap_graph::MetricKind;
use sim_heap::HeapEvent;
use std::collections::VecDeque;

/// Maximum post-crossing events attached to one bug's context.
const AFTER_CONTEXT_EVENTS: usize = 8;

/// Fraction of post-warmup samples that must sit at an extreme for a
/// *poorly disguised* report.
const PINNED_FRACTION: f64 = 0.8;

/// The armed window (§2.2's circular buffer): the last `capacity`
/// events logged while armed, as `(tick, event)` slots of a ring
/// overwritten in place. Logging copies no stack. The ring keeps the
/// stack before its oldest slot (`base`), which rolls forward one event
/// per eviction, plus a snapshot of the stack after each slot whose tick
/// does not follow its predecessor's: the first slot ever logged, and
/// the first event of each re-arm. A crossing rebuilds every slot's
/// stack from those with the rule [`crate::trace`]'s event core
/// applies: `FnEnter` pushes its id, `FnExit` pops, a pop on an empty
/// stack does nothing. That is exact because, between consecutive ticks
/// delivered to a monitor, the stack changes only by that event
/// ([`MonitorCtx::stack`]). Names and descriptions are built at read
/// time too; intern tables only ever append, so they are the strings
/// logging time would have built.
#[derive(Debug, Default)]
struct ArmedWindow {
    capacity: usize,
    /// The ring: oldest at `head` once full, in order before.
    slots: Vec<(u64, HeapEvent)>,
    head: usize,
    /// Events logged so far, which numbers them: the oldest slot is
    /// number `logged - slots.len()`.
    logged: u64,
    /// Tick of the newest slot.
    last_tick: Option<u64>,
    /// The stack before the oldest slot.
    base: Vec<FuncId>,
    /// The stack after each slot that follows a tick gap, by slot
    /// number, oldest first.
    snapshots: VecDeque<(u64, Vec<FuncId>)>,
    /// Retired snapshot buffers, reused so logging settles to no
    /// allocation.
    spare: Vec<Vec<FuncId>>,
}

impl ArmedWindow {
    /// The stack rule of the event core.
    fn apply(event: &HeapEvent, stack: &mut Vec<FuncId>) {
        match *event {
            HeapEvent::FnEnter { func } => stack.push(FuncId(func)),
            HeapEvent::FnExit { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }

    /// Logs `event`, delivered at `tick` under `stack` (the stack after
    /// it), evicting the oldest slot when full.
    #[inline]
    fn log(&mut self, tick: u64, event: &HeapEvent, stack: &[FuncId]) {
        if self.capacity == 0 {
            return;
        }
        let follows = self.last_tick.is_some_and(|t| t.wrapping_add(1) == tick);
        self.last_tick = Some(tick);
        let seq = self.logged;
        self.logged += 1;
        if self.slots.len() < self.capacity {
            self.slots.push((tick, *event));
        } else {
            // The base rolls forward past the evicted slot.
            let evicted = seq - self.capacity as u64;
            match self.snapshots.front() {
                Some(&(k, _)) if k == evicted => {
                    let (_, mut snap) = self.snapshots.pop_front().expect("front exists");
                    std::mem::swap(&mut self.base, &mut snap);
                    self.spare.push(snap);
                }
                _ => Self::apply(&self.slots[self.head].1, &mut self.base),
            }
            self.slots[self.head] = (tick, *event);
            self.head = if self.head + 1 == self.capacity {
                0
            } else {
                self.head + 1
            };
        }
        if !follows {
            self.snapshot(seq, stack);
        }
    }

    #[cold]
    fn snapshot(&mut self, seq: u64, stack: &[FuncId]) {
        let mut frames = self.spare.pop().unwrap_or_default();
        frames.clear();
        frames.extend_from_slice(stack);
        self.snapshots.push_back((seq, frames));
    }

    /// Renders the window oldest first, rebuilding each slot's stack.
    /// `now` is the reader's tick and stack: when the newest slot is the
    /// event delivered at `now`, its rebuilt stack must be `now`'s.
    fn render(&self, funcs: &FunctionTable, now: (u64, &[FuncId])) -> Vec<StackLogEntry> {
        let n = self.slots.len();
        let oldest = self.logged - n as u64;
        let mut out = Vec::with_capacity(n + 1);
        let mut stack = self.base.clone();
        let mut snapshots = self.snapshots.iter().peekable();
        for i in 0..n {
            let (tick, event) = self.slots[(self.head + i) % n];
            match snapshots.next_if(|(k, _)| *k == oldest + i as u64) {
                Some((_, snap)) => stack.clone_from(snap),
                None => Self::apply(&event, &mut stack),
            }
            out.push(StackLogEntry {
                tick,
                stack: funcs.render_stack(&stack),
                event: AnomalyDetector::describe(&event),
                phase: LogPhase::Before,
            });
        }
        debug_assert!(
            self.last_tick != Some(now.0) || stack == now.1,
            "the stack changed other than by the events delivered to the window"
        );
        out
    }
}

/// Flight-recorder context snapshotted when an excursion opens, held
/// until the bug finalizes (the report may still grow after-context).
#[derive(Debug)]
struct PendingCapture {
    slope: f64,
    armed_at_seq: Option<u64>,
    series: Vec<SeriesData>,
    degrees: Option<DegreeSnapshot>,
}

/// Per-stable-metric checking state.
#[derive(Debug)]
struct MetricState {
    sm: StableMetric,
    last: Option<f64>,
    /// The open excursion: its report (still growing after-context)
    /// and the capture taken at the crossing.
    open: Option<(BugReport, PendingCapture)>,
    /// After-crossing entries the open excursion may still collect.
    after_budget: usize,
    pinned_low: usize,
    pinned_high: usize,
    ever_violated: bool,
}

/// The band a checker accepts around one calibrated `[min, max]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Band {
    /// Lowest accepted value.
    pub(crate) lo: f64,
    /// Highest accepted value.
    pub(crate) hi: f64,
    /// How close to an edge counts as near it: with an adverse slope
    /// it arms call-stack logging, it counts toward pinning, and serve
    /// shows it as the `near_edge` gauge status.
    pub(crate) near: f64,
}

/// How one checked stream widens calibrated ranges. The detector's
/// checks and serve's live gauges all set their accepted bands here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BandPolicy {
    /// The rate that parameterizes confidence widening: the *mismatch
    /// ratio* `min(model, stream) / max(model, stream)` of the model's
    /// calibration-time sampling rate and the checked stream's rate.
    ///
    /// Store sampling biases connectivity metrics (dropped stores are
    /// missing edges), so what needs slack is not sampling per se but
    /// checking a stream against ranges calibrated at a *different*
    /// rate: rate-matched calibration sees the same biased
    /// distribution on both sides and needs no widening, while an
    /// exact model checking a `rate`-sampled stream (or vice versa)
    /// widens by the full mismatch. `1.0` → zero widening,
    /// bit-identical to the pre-sampling detector.
    pub(crate) rate: f64,
    range_margin: f64,
    near_edge_frac: f64,
}

impl BandPolicy {
    /// The policy for a stream sampled at `stream_rate` checked against
    /// a model calibrated at `model_rate` (a rate that is not a
    /// positive number counts as `1.0`, full fidelity).
    pub(crate) fn new(model_rate: f64, stream_rate: f64, settings: &Settings) -> Self {
        let model_rate = if model_rate.is_finite() && model_rate > 0.0 {
            model_rate
        } else {
            1.0
        };
        BandPolicy {
            rate: model_rate.min(stream_rate) / model_rate.max(stream_rate),
            range_margin: settings.range_margin,
            near_edge_frac: settings.near_edge_frac,
        }
    }

    /// The accepted band around calibrated `[min, max]`.
    pub(crate) fn band(&self, min: f64, max: f64) -> Band {
        let widen = sampling_widen(max - min, self.rate);
        Band {
            lo: min - self.range_margin - widen,
            hi: max + self.range_margin + widen,
            near: (max - min).max(0.5) * self.near_edge_frac,
        }
    }
}

/// HeapMD's online execution checker.
///
/// Attach to a [`crate::Process`] (via [`crate::Process::attach`]) and
/// it will, at every metric computation point, verify each globally
/// stable metric against its calibrated range:
///
/// * **Approach logging** — when a stable metric moves within a margin
///   of its calibrated extreme *with a slope toward it*, call-stack
///   logging into a circular buffer is armed, so a subsequent report
///   carries context from before the crossing.
/// * **Range violation** — crossing the calibrated min/max raises a
///   [`BugReport`] with before/during/after call-stack context.
/// * **Poorly disguised** — a metric that exits startup pinned at an
///   extreme of its range (and stays there) is reported at finish.
/// * **Pathological** — a metric that was *unstable* in training but
///   stays globally stable during the checked run is reported at
///   finish as unexpected stability.
///
/// Stability is deliberately *not* required during checking: a metric
/// may wander, so long as it stays within the calibrated range (§2.2).
///
/// # Example
///
/// ```
/// use heapmd::{AnomalyDetector, HeapModel, ModelBuilder, Process, Settings};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let settings = Settings::builder().frq(5).build()?;
/// # let mut b = ModelBuilder::new(settings.clone());
/// # for _ in 0..3 {
/// #     let mut p = Process::new(settings.clone());
/// #     let (w, n) = (p.function("w"), p.site("n"));
/// #     for _ in 0..200 { p.enter(w); p.malloc(16, n)?; p.leave(); }
/// #     b.add_run(&p.finish("train"));
/// # }
/// # let model = b.build().model;
/// let detector = Rc::new(RefCell::new(AnomalyDetector::new(model, settings.clone())));
/// let mut p = Process::new(settings);
/// p.attach(detector.clone());
/// // … run the program under test …
/// # let (w, n) = (p.function("w"), p.site("n"));
/// # for _ in 0..100 { p.enter(w); p.malloc(16, n)?; p.leave(); }
/// let _report = p.finish("check");
/// assert!(detector.borrow().bugs().is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AnomalyDetector {
    settings: Settings,
    states: Vec<MetricState>,
    /// Metrics the model recorded as never-stable in training,
    /// tracked for pathological (unexpected-stability) detection:
    /// (kind, post-warmup values).
    unstable: Vec<(MetricKind, Vec<f64>)>,
    /// The armed window: the last `callstack_capacity` events logged
    /// while armed. A full window logs without allocating.
    window: ArmedWindow,
    /// Events that still owe after-crossing context: the largest
    /// `after_budget` of the open excursions, set at each sample, since
    /// excursions open and close only there.
    after_left: usize,
    armed: bool,
    /// Sample seq at which the current armed window opened.
    armed_at: Option<u64>,
    samples_seen: usize,
    bugs: Vec<BugReport>,
    /// One bundle per finalized range violation. `finish_scan` drops
    /// those whose report the shutdown trim drops, and writes the rest
    /// to the attached log.
    incidents: Vec<IncidentBundle>,
    incident_log: Option<IncidentLog>,
    post_warmup_samples: usize,
    /// Calibration-time store-sampling rate carried by the model.
    model_rate: f64,
    /// Store-sampling rate of the checked stream (updated from the
    /// monitor context online; set from the report offline). Bands
    /// widen by the mismatch of both (see [`BandPolicy`]).
    stream_rate: f64,
}

impl AnomalyDetector {
    /// Creates a checker for the given model. The start-up skip is the
    /// model's `settings.warmup_samples` (the warm-up recorded at
    /// training), whatever `settings` says, so every path that checks
    /// against one model skips the same points.
    pub fn new(model: HeapModel, mut settings: Settings) -> Self {
        settings.warmup_samples = model.settings.warmup_samples;
        let states = model
            .stable
            .iter()
            .map(|&sm| MetricState {
                sm,
                last: None,
                open: None,
                after_budget: 0,
                pinned_low: 0,
                pinned_high: 0,
                ever_violated: false,
            })
            .collect::<Vec<_>>();
        let unstable = model.unstable.iter().map(|&k| (k, Vec::new())).collect();
        AnomalyDetector {
            window: ArmedWindow {
                capacity: settings.callstack_capacity,
                ..ArmedWindow::default()
            },
            after_left: 0,
            settings,
            states,
            unstable,
            armed: false,
            armed_at: None,
            samples_seen: 0,
            bugs: Vec::new(),
            incidents: Vec::new(),
            incident_log: None,
            post_warmup_samples: 0,
            model_rate: model.sample_rate,
            stream_rate: 1.0,
        }
    }

    fn band_policy(&self) -> BandPolicy {
        BandPolicy::new(self.model_rate, self.stream_rate, &self.settings)
    }

    /// Bug reports raised so far (range violations immediately; poorly
    /// disguised / pathological reports appear after finish).
    pub fn bugs(&self) -> &[BugReport] {
        &self.bugs
    }

    /// Takes ownership of the reports.
    pub fn take_bugs(&mut self) -> Vec<BugReport> {
        std::mem::take(&mut self.bugs)
    }

    /// Returns `true` if any anomaly has been reported.
    pub fn has_anomalies(&self) -> bool {
        !self.bugs.is_empty()
    }

    /// Attaches an [`IncidentLog`]: every range-violation incident that
    /// survives the shutdown trim is also persisted as a bundle file
    /// under the log's directory at finish.
    pub fn log_incidents_to(&mut self, log: IncidentLog) {
        self.incident_log = Some(log);
    }

    /// The attached incident log, if any — exposes the paths written.
    pub fn incident_log(&self) -> Option<&IncidentLog> {
        self.incident_log.as_ref()
    }

    /// Incident bundles for the range violations finalized so far. After
    /// [`crate::Process::finish`] (when attached as a monitor), only
    /// those that survived the shutdown trim.
    pub fn incidents(&self) -> &[IncidentBundle] {
        &self.incidents
    }

    /// Takes ownership of the incident bundles.
    pub fn take_incidents(&mut self) -> Vec<IncidentBundle> {
        std::mem::take(&mut self.incidents)
    }

    /// Checks a completed [`MetricReport`] offline (post-mortem mode
    /// without event context: reports carry no call-stacks).
    ///
    /// The model's warm-up is skipped as startup, as online.
    pub fn check_report(
        model: &HeapModel,
        settings: &Settings,
        report: &MetricReport,
    ) -> Vec<BugReport> {
        let mut det = AnomalyDetector::new(model.clone(), settings.clone());
        if report.sample_rate.is_finite() && report.sample_rate > 0.0 {
            det.stream_rate = report.sample_rate;
        }
        for sample in &report.samples {
            det.scan_sample(sample, None);
        }
        det.finish_scan();
        det.bugs
    }

    fn describe(event: &HeapEvent) -> String {
        match event {
            HeapEvent::Alloc { size, site, .. } => format!("alloc {size}B at {site}"),
            HeapEvent::Free { obj, size, .. } => format!("free {obj} ({size}B)"),
            HeapEvent::PtrWrite { src, offset, .. } => format!("ptr write {src}+{offset}"),
            HeapEvent::ScalarWrite { src, offset, .. } => format!("scalar write {src}+{offset}"),
            HeapEvent::Read { obj } => format!("read {obj}"),
            HeapEvent::FnEnter { func } => format!("enter fn#{func}"),
            HeapEvent::FnExit { func } => format!("exit fn#{func}"),
        }
    }

    /// Core per-sample logic, shared by online and offline modes.
    /// `ctx` provides the call stack, heap graph, and flight recorder
    /// when running online; offline checking passes `None` and the
    /// resulting reports carry no stacks or series.
    fn scan_sample(&mut self, sample: &MetricSample, ctx: Option<&MonitorCtx<'_>>) {
        if let Some(c) = ctx {
            if c.sample_rate.is_finite() && c.sample_rate > 0.0 {
                self.stream_rate = c.sample_rate;
            }
        }
        let policy = self.band_policy();
        let rate = policy.rate;
        self.samples_seen += 1;
        let warmup = self.samples_seen <= self.settings.warmup_samples;

        if !warmup {
            self.post_warmup_samples += 1;
            for (kind, values) in &mut self.unstable {
                values.push(sample.metric(*kind));
            }
        }

        let mut any_armed = false;
        let mut arm_triggers = Vec::new();
        for i in 0..self.states.len() {
            let st = &self.states[i];
            let Band { lo, hi, near } = policy.band(st.sm.min, st.sm.max);
            let (last, kind) = (st.last, st.sm.kind);
            let v = sample.metric(kind);
            let slope = last.map(|l| v - l).unwrap_or(0.0);

            if warmup {
                self.states[i].last = Some(v);
                continue;
            }

            // Startup→stable transition check (poorly disguised, §4.1):
            // the paper always logs the call-stack when a metric exits
            // startup at an extreme value. Degenerate (near-point)
            // calibrated ranges are exempt — sitting at the only
            // calibrated value is normal, not extreme.
            if hi - lo >= 1.0 {
                let st = &mut self.states[i];
                if v <= lo + near {
                    st.pinned_low += 1;
                }
                if v >= hi - near {
                    st.pinned_high += 1;
                }
            }

            // Arm call-stack logging on approach with adverse slope.
            let near_high = v >= hi - near && v <= hi && slope > 0.0;
            let near_low = v <= lo + near && v >= lo && slope < 0.0;
            if near_high || near_low {
                any_armed = true;
                arm_triggers.push((kind, v, slope, if near_high { "high" } else { "low" }));
            }

            let violated_dir = if v > hi {
                Some(Direction::AboveMax)
            } else if v < lo {
                Some(Direction::BelowMin)
            } else {
                None
            };

            match violated_dir {
                Some(direction) => {
                    any_armed = true; // keep logging during the excursion
                    arm_triggers.push((kind, v, slope, "violation"));
                    let st = &mut self.states[i];
                    st.ever_violated = true;
                    if st.open.is_none() {
                        // Render the armed window now that a report reads
                        // it. Offline scans (no ctx) never log events.
                        let mut context = match ctx {
                            Some(c) => self.window.render(c.funcs, (c.tick, c.stack)),
                            None => Vec::new(),
                        };
                        context.push(StackLogEntry {
                            tick: sample.tick,
                            stack: ctx.map(|c| c.stack_names()).unwrap_or_default(),
                            event: format!(
                                "metric computation point #{} observed {v:.3}",
                                sample.seq
                            ),
                            phase: LogPhase::During,
                        });
                        let out_by = match direction {
                            Direction::AboveMax => v - hi,
                            Direction::BelowMin => lo - v,
                        };
                        let bug = BugReport {
                            metric: kind,
                            kind: AnomalyKind::RangeViolation { direction },
                            value: v,
                            range: (lo, hi),
                            sample_seq: sample.seq,
                            fn_entries: sample.fn_entries,
                            sample_rate: rate,
                            band_distance: out_by / (hi - lo).max(1.0),
                            context,
                        };
                        // Flight-recorder snapshot at the crossing. When
                        // arming starts on this very sample (a jump that
                        // crossed without an approach) the window opens
                        // here too.
                        let capture = PendingCapture {
                            slope,
                            armed_at_seq: self.armed_at.or(Some(sample.seq as u64)),
                            series: ctx
                                .and_then(|c| c.recorder)
                                .map(|r| r.snapshot().iter().map(SeriesData::from).collect())
                                .unwrap_or_default(),
                            degrees: ctx.map(|c| DegreeSnapshot::capture(c.graph.histogram())),
                        };
                        st.open = Some((bug, capture));
                        st.after_budget = AFTER_CONTEXT_EVENTS;
                    }
                }
                None => {
                    if let Some((bug, capture)) = self.states[i].open.take() {
                        self.finalize_bug(bug, capture);
                    }
                }
            }
            self.states[i].last = Some(v);
        }
        self.after_left = self
            .states
            .iter()
            .filter(|st| st.open.is_some())
            .map(|st| st.after_budget)
            .max()
            .unwrap_or(0);

        // Rising edge of the slope heuristic: the circular call-stack
        // buffer starts recording here, so surface why it armed.
        if any_armed && !self.armed {
            self.armed_at = Some(sample.seq as u64);
            heapmd_obs::count!("heapmd_detector_armed_total");
            heapmd_obs::export::emit_event("detector_armed", |o| {
                o.field_u64("sample_seq", sample.seq as u64)
                    .field_u64("fn_entries", sample.fn_entries);
                if let Some((kind, v, slope, edge)) = arm_triggers.first() {
                    o.field_str("metric", kind.short_name())
                        .field_f64("value", *v)
                        .field_f64("slope", *slope)
                        .field_str("edge", edge);
                }
                o.field_u64("trigger_count", arm_triggers.len() as u64)
                    .field_str_array("stack", &ctx.map(|c| c.stack_names()).unwrap_or_default());
            });
        }
        self.armed = any_armed;
        if !any_armed {
            self.armed_at = None;
        }
    }

    /// Emits a finalized range-violation bug and its incident bundle.
    /// The attached log writes only the bundles `finish_scan` keeps.
    fn finalize_bug(&mut self, bug: BugReport, capture: PendingCapture) {
        crate::bug::emit_anomaly_event(&bug);
        self.incidents.push(IncidentBundle {
            report: bug.clone(),
            slope: capture.slope,
            armed_at_seq: capture.armed_at_seq,
            samples_seen: self.samples_seen as u64,
            series: capture.series,
            degrees: capture.degrees,
        });
        self.bugs.push(bug);
    }

    fn finish_scan(&mut self) {
        let _span = heapmd_obs::span!("detector_finish");
        let rate = self.band_policy().rate;
        // Flush excursions still open at end of run.
        for i in 0..self.states.len() {
            if let Some((bug, capture)) = self.states[i].open.take() {
                self.finalize_bug(bug, capture);
            }
        }
        // Shutdown trim: the model ignores the final `trim_frac` of
        // metric computation points as teardown (§2.1); drop range
        // violations that only began there — a heap being dismantled
        // is not an anomaly. Bundles follow their reports, so arming
        // that never fires, or an excursion confined to teardown,
        // leaves no bundle behind.
        let n = self.samples_seen;
        let cutoff = n.saturating_sub(self.settings.trim_count(n));
        let kept = |b: &BugReport| {
            !matches!(b.kind, AnomalyKind::RangeViolation { .. }) || b.sample_seq < cutoff
        };
        self.bugs.retain(|b| kept(b));
        self.incidents.retain(|inc| kept(&inc.report));
        if let Some(log) = self.incident_log.as_mut() {
            for inc in &self.incidents {
                if let Err(err) = log.write(inc) {
                    heapmd_obs::count!("heapmd_incident_write_errors_total");
                    heapmd_obs::export::emit_event("incident_write_failed", |o| {
                        o.field_str("error", &err.to_string());
                    });
                }
            }
        }
        // Poorly disguised: a metric pinned at an extreme for most of
        // the run, without ever crossing.
        let total = self.post_warmup_samples;
        if total > 0 {
            let needed = ((total as f64) * PINNED_FRACTION).ceil() as usize;
            for st in &self.states {
                if st.ever_violated {
                    continue;
                }
                let extreme = if st.pinned_low >= needed {
                    Some(Direction::BelowMin)
                } else if st.pinned_high >= needed {
                    Some(Direction::AboveMax)
                } else {
                    None
                };
                if let Some(extreme) = extreme {
                    let bug = BugReport {
                        metric: st.sm.kind,
                        kind: AnomalyKind::PoorlyDisguised { extreme },
                        value: st.last.unwrap_or(f64::NAN),
                        range: (st.sm.min, st.sm.max),
                        sample_seq: self.samples_seen.saturating_sub(1),
                        fn_entries: 0,
                        sample_rate: rate,
                        band_distance: 0.0,
                        context: Vec::new(),
                    };
                    crate::bug::emit_anomaly_event(&bug);
                    self.bugs.push(bug);
                }
            }
        }
        // Pathological: an unstable-in-training metric held globally
        // stable during checking.
        for (kind, values) in &self.unstable {
            if values.len() < self.settings.min_samples {
                continue;
            }
            let stats = FluctuationStats::from_series(values);
            if classify(&stats, &self.settings) == StabilityClass::GloballyStable {
                let bug = BugReport {
                    metric: *kind,
                    kind: AnomalyKind::UnexpectedStability,
                    value: *values.last().expect("non-empty"),
                    range: (f64::NAN, f64::NAN),
                    sample_seq: self.samples_seen.saturating_sub(1),
                    fn_entries: 0,
                    sample_rate: rate,
                    band_distance: 0.0,
                    context: Vec::new(),
                };
                crate::bug::emit_anomaly_event(&bug);
                self.bugs.push(bug);
            }
        }
    }
}

impl Monitor for AnomalyDetector {
    fn on_event(&mut self, ctx: &MonitorCtx<'_>, event: &HeapEvent) {
        // Post-crossing context for open excursions, only while owed.
        if self.after_left > 0 {
            self.after_left -= 1;
            for st in &mut self.states {
                if st.after_budget > 0 {
                    if let Some((bug, _)) = &mut st.open {
                        bug.context.push(StackLogEntry {
                            tick: ctx.tick,
                            stack: ctx.stack_names(),
                            event: Self::describe(event),
                            phase: LogPhase::After,
                        });
                        st.after_budget -= 1;
                    }
                }
            }
        }
        if self.armed {
            self.window.log(ctx.tick, event, ctx.stack);
        }
    }

    /// Events matter only while the window is armed: they are logged,
    /// and an open excursion (which collects after-crossing context)
    /// keeps the window armed until the sample that closes it.
    fn listening(&self) -> bool {
        self.armed
    }

    fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
        self.scan_sample(sample, Some(ctx));
    }

    fn on_finish(&mut self, _ctx: &MonitorCtx<'_>) {
        self.finish_scan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StableMetric;
    use heap_graph::{MetricVector, METRIC_COUNT};

    fn model_with(kind: MetricKind, min: f64, max: f64) -> HeapModel {
        HeapModel {
            version: crate::model::MODEL_FORMAT_VERSION,
            program: "test".into(),
            settings: settings(),
            stable: vec![StableMetric {
                kind,
                min,
                max,
                avg_change: 0.0,
                std_change: 1.0,
                stable_runs: 5,
                total_runs: 5,
            }],
            unstable: MetricKind::ALL.into_iter().filter(|&k| k != kind).collect(),
            sample_rate: 1.0,
            training_runs: 5,
        }
    }

    fn settings() -> Settings {
        Settings::builder().warmup_samples(2).build().unwrap()
    }

    fn sample(seq: usize, kind: MetricKind, value: f64) -> MetricSample {
        // Make non-target metrics noisy so the pathological detector
        // stays quiet in these tests.
        let noisy = if seq.is_multiple_of(2) { 20.0 } else { 60.0 };
        let mut values = MetricVector::from_array([noisy; METRIC_COUNT]);
        values.set(kind, value);
        MetricSample {
            fn_entries: (seq as u64 + 1) * 100,
            tick: (seq as u64 + 1) * 1000,
            nodes: 100,
            edges: 50,
            ..at(seq, values)
        }
    }

    fn at(seq: usize, values: MetricVector) -> MetricSample {
        MetricSample {
            seq,
            fn_entries: seq as u64,
            tick: seq as u64,
            nodes: 10,
            edges: 0,
            dangling: 0,
            values,
        }
    }

    fn run_values(values: &[f64], kind: MetricKind, min: f64, max: f64) -> Vec<BugReport> {
        let mut det = AnomalyDetector::new(model_with(kind, min, max), settings());
        for (i, &v) in values.iter().enumerate() {
            det.scan_sample(&sample(i, kind, v), None);
        }
        det.finish_scan();
        det.bugs
    }

    #[test]
    fn in_range_run_is_clean() {
        let bugs = run_values(
            &[15.0, 15.5, 15.2, 16.0, 15.8, 15.1, 15.6, 16.2],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert!(bugs.is_empty(), "unexpected: {bugs:?}");
    }

    #[test]
    fn crossing_max_raises_one_bug_per_excursion() {
        let bugs = run_values(
            &[15.0, 15.5, 15.2, 17.0, 19.5, 20.0, 16.0, 15.5],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert_eq!(bugs.len(), 1);
        let b = &bugs[0];
        assert_eq!(b.metric, MetricKind::Indeg1);
        assert!(matches!(
            b.kind,
            AnomalyKind::RangeViolation {
                direction: Direction::AboveMax
            }
        ));
        assert_eq!(b.value, 19.5);
        assert_eq!(b.sample_seq, 4);
    }

    #[test]
    fn crossing_min_is_reported_below() {
        let bugs = run_values(
            &[15.0, 15.0, 15.0, 14.0, 12.0, 11.0],
            MetricKind::Leaves,
            13.0,
            18.0,
        );
        assert_eq!(bugs.len(), 1);
        assert!(matches!(
            bugs[0].kind,
            AnomalyKind::RangeViolation {
                direction: Direction::BelowMin
            }
        ));
    }

    #[test]
    fn warmup_samples_are_not_checked() {
        // Warmup is 2 samples; the excursion is entirely within them.
        let bugs = run_values(
            &[99.0, 99.0, 15.0, 15.0, 15.0, 15.0, 15.0],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert!(bugs.is_empty());
    }

    #[test]
    fn the_warm_up_comes_from_the_model() {
        // The model records a warm-up of 4; the checking settings ask
        // for 2. A crossing at sample 3 is inside the model's warm-up.
        let mut model = model_with(MetricKind::Indeg1, 13.0, 18.0);
        model.settings.warmup_samples = 4;
        let mut det = AnomalyDetector::new(model, settings());
        for (i, v) in [15.0, 15.0, 15.0, 19.0, 15.0, 15.0, 15.0, 15.0]
            .into_iter()
            .enumerate()
        {
            det.scan_sample(&sample(i, MetricKind::Indeg1, v), None);
        }
        det.finish_scan();
        assert!(det.bugs.is_empty(), "unexpected: {:?}", det.bugs);
    }

    #[test]
    fn instability_within_range_is_permitted() {
        // Paper §2.2: a training-stable metric may be unstable during
        // checking, provided it stays in range.
        let bugs = run_values(
            &[14.0, 17.0, 13.5, 17.5, 13.2, 17.8, 13.1, 17.9],
            MetricKind::Outdeg1,
            13.0,
            18.0,
        );
        assert!(bugs.is_empty());
    }

    #[test]
    fn two_excursions_raise_two_bugs() {
        let bugs = run_values(
            &[15.0, 15.0, 15.0, 19.0, 15.0, 15.0, 12.0, 15.0],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert_eq!(bugs.len(), 2);
    }

    #[test]
    fn open_excursion_is_flushed_at_finish() {
        let bugs = run_values(
            &[15.0, 15.0, 15.0, 19.0, 20.0, 21.0],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert_eq!(bugs.len(), 1);
    }

    #[test]
    fn pinned_at_extreme_reports_poorly_disguised() {
        // Stays glued to the minimum from startup on, never crossing.
        let bugs = run_values(
            &[
                13.0, 13.0, 13.05, 13.02, 13.04, 13.01, 13.03, 13.02, 13.0, 13.01,
            ],
            MetricKind::Indeg1,
            13.0,
            33.0,
        );
        assert_eq!(bugs.len(), 1);
        assert!(matches!(
            bugs[0].kind,
            AnomalyKind::PoorlyDisguised {
                extreme: Direction::BelowMin
            }
        ));
    }

    #[test]
    fn pathological_unexpected_stability_reported() {
        // Model says only Indeg1 is stable; feed a run where Roots (not
        // stable in training) is perfectly flat.
        let model = model_with(MetricKind::Indeg1, 0.0, 100.0);
        let mut det = AnomalyDetector::new(model, settings());
        for i in 0..20 {
            let mut values = MetricVector::zero();
            values.set(MetricKind::Indeg1, 50.0);
            values.set(MetricKind::Roots, 25.0); // flat: unexpected
                                                 // keep the rest noisy
            for k in [
                MetricKind::Indeg2,
                MetricKind::Leaves,
                MetricKind::Outdeg1,
                MetricKind::Outdeg2,
                MetricKind::InEqOut,
            ] {
                values.set(k, if i % 2 == 0 { 10.0 } else { 70.0 });
            }
            det.scan_sample(&at(i, values), None);
        }
        det.finish_scan();
        let patho: Vec<_> = det
            .bugs
            .iter()
            .filter(|b| matches!(b.kind, AnomalyKind::UnexpectedStability))
            .collect();
        assert_eq!(patho.len(), 1);
        assert_eq!(patho[0].metric, MetricKind::Roots);
    }

    #[test]
    fn a_pinned_and_a_flat_metric_take_their_finish_verdicts() {
        // Indeg1 sits glued to the minimum of [13, 33] without crossing;
        // Roots was never stable in training and holds still.
        let mut model = model_with(MetricKind::Indeg1, 13.0, 33.0);
        model.unstable = vec![MetricKind::Roots];
        let mut det = AnomalyDetector::new(model, settings());
        for i in 0..20 {
            let noisy = if i % 2 == 0 { 20.0 } else { 60.0 };
            let mut values = MetricVector::from_array([noisy; METRIC_COUNT]);
            values.set(MetricKind::Indeg1, 13.0 + (i % 3) as f64 * 0.02);
            values.set(MetricKind::Roots, 25.0);
            det.scan_sample(&at(i, values), None);
        }
        det.finish_scan();
        let kinds: Vec<_> = det.bugs.iter().map(|b| (b.metric, b.kind)).collect();
        assert_eq!(
            kinds,
            [
                (
                    MetricKind::Indeg1,
                    AnomalyKind::PoorlyDisguised {
                        extreme: Direction::BelowMin
                    }
                ),
                (MetricKind::Roots, AnomalyKind::UnexpectedStability),
            ]
        );
    }

    /// Steps `values` one sample at a time, returning the detector and
    /// whether arming was ever observed.
    fn run_stepped(
        values: &[f64],
        kind: MetricKind,
        min: f64,
        max: f64,
    ) -> (AnomalyDetector, bool) {
        let mut det = AnomalyDetector::new(model_with(kind, min, max), settings());
        let mut ever_armed = false;
        for (i, &v) in values.iter().enumerate() {
            det.scan_sample(&sample(i, kind, v), None);
            ever_armed |= det.armed;
        }
        det.finish_scan();
        (det, ever_armed)
    }

    #[test]
    fn zero_slope_at_the_bound_does_not_arm() {
        // Sitting exactly on each calibrated bound with zero slope:
        // arming requires adverse drift (slope strictly toward the
        // extreme), so a flat series at the edge must stay disarmed.
        // [13, 18] with range_margin 0.5 → effective bounds 12.5/18.5.
        for edge in [18.5, 12.5] {
            let (det, ever_armed) = run_stepped(
                &[edge, edge, edge, edge, 15.0, 15.0, 15.0, 15.0],
                MetricKind::Indeg1,
                13.0,
                18.0,
            );
            assert!(!ever_armed, "flat series at {edge} must not arm");
            assert!(det.bugs.is_empty(), "unexpected: {:?}", det.bugs);
            assert!(det.incidents().is_empty());
        }
    }

    #[test]
    fn touching_min_and_max_in_one_run_stays_clean() {
        // Touches both effective bounds exactly (12.5 and 18.5), with
        // adverse slopes on the way — the detector arms, but a value ON
        // the bound is not a violation, so no bugs and no bundles.
        let (det, ever_armed) = run_stepped(
            &[15.0, 15.0, 12.5, 18.5, 15.0, 12.5, 18.5, 15.0, 15.0, 15.0],
            MetricKind::Indeg1,
            13.0,
            18.0,
        );
        assert!(ever_armed, "bound-touching with adverse slope should arm");
        assert!(det.bugs.is_empty(), "unexpected: {:?}", det.bugs);
        assert!(det.incidents().is_empty());
    }

    #[test]
    fn arming_that_never_fires_writes_no_incident_bundles() {
        let dir =
            std::env::temp_dir().join(format!("heapmd-detector-noarm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut det = AnomalyDetector::new(model_with(MetricKind::Indeg1, 13.0, 18.0), settings());
        det.log_incidents_to(crate::IncidentLog::new(&dir, "t"));
        // Approaches the max with positive slope (arming) but retreats
        // without ever crossing 18.5.
        let values = [15.0, 15.0, 15.0, 18.3, 18.4, 18.45, 15.0, 15.0, 15.0, 15.0];
        let mut ever_armed = false;
        for (i, &v) in values.iter().enumerate() {
            det.scan_sample(&sample(i, MetricKind::Indeg1, v), None);
            ever_armed |= det.armed;
        }
        det.finish_scan();
        assert!(ever_armed, "the approach should have armed logging");
        assert!(det.bugs.is_empty(), "unexpected: {:?}", det.bugs);
        assert!(det.incidents().is_empty());
        assert!(det.incident_log().unwrap().paths().is_empty());
        assert!(!dir.exists(), "no bundle file may be created");
    }

    #[test]
    fn excursion_confined_to_teardown_leaves_no_bundle() {
        // 20 samples, trim_frac 0.10 → the last 2 are teardown. An
        // excursion that only begins there is trimmed, and its staged
        // incident bundle must be dropped with it.
        let mut values = vec![15.0; 18];
        values.extend([19.0, 20.0]);
        let (det, _) = run_stepped(&values, MetricKind::Indeg1, 13.0, 18.0);
        assert!(det.bugs.is_empty(), "unexpected: {:?}", det.bugs);
        assert!(
            det.incidents().is_empty(),
            "the trim drops the staged bundle"
        );
    }

    #[test]
    fn crossing_after_an_approach_yields_an_incident_with_armed_window() {
        let values = [
            15.0, 15.0, 15.0, 18.3, 19.5, 15.0, 15.0, 15.0, 15.0, 15.0, 15.0, 15.0,
        ];
        let (det, _) = run_stepped(&values, MetricKind::Indeg1, 13.0, 18.0);
        assert_eq!(det.bugs.len(), 1);
        assert_eq!(det.incidents().len(), 1);
        let inc = &det.incidents()[0];
        assert!(inc.validate().is_ok());
        assert_eq!(inc.report, det.bugs[0], "the bundle holds its report");
        assert_eq!(inc.report.value, 19.5);
        assert_eq!(inc.report.sample_seq, 4);
        assert_eq!(inc.armed_at_seq, Some(3), "armed on the approach");
        assert!((inc.slope - 1.2).abs() < 1e-9);
        // Finalized when the excursion closed at sample index 5.
        assert_eq!(inc.samples_seen, 6);
        // Offline scan: no recorder or heap graph was attached.
        assert!(inc.series.is_empty());
        assert!(inc.degrees.is_none());
        assert!(
            !inc.report.context.is_empty(),
            "carries the during-crossing entry"
        );
    }

    #[test]
    fn armed_window_renders_on_read_exactly_as_eager_logging_would() {
        use crate::callstack::FunctionTable;
        use heap_graph::GraphImage;
        use sim_heap::{Addr, AllocSite, ObjectId};

        let capacity = 4;
        let settings = Settings::builder()
            .warmup_samples(2)
            .callstack_capacity(capacity)
            .build()
            .unwrap();
        let mut det = AnomalyDetector::new(model_with(MetricKind::Indeg1, 13.0, 18.0), settings);
        let graph = GraphImage::new(1);
        let mut funcs = FunctionTable::new();
        let main = funcs.intern("main");
        fn ctx_at<'a>(
            graph: &'a GraphImage,
            tick: u64,
            funcs: &'a FunctionTable,
            stack: &'a [FuncId],
        ) -> MonitorCtx<'a> {
            MonitorCtx {
                graph,
                tick,
                stack,
                funcs,
                fn_entries: 0,
                sample_rate: 1.0,
                recorder: None,
            }
        }
        // 18.3 approaches the max with a rising slope: armed.
        let mut stack = vec![main];
        for (i, v) in [15.0, 15.0, 15.0, 18.3].into_iter().enumerate() {
            det.on_sample(
                &ctx_at(&graph, i as u64, &funcs, &stack),
                &sample(i, MetricKind::Indeg1, v),
            );
        }
        assert!(det.listening(), "the approach armed the window");

        // More armed events than the window holds. The stack follows
        // the window's own enters and exits, and names are interned as
        // the run goes.
        let alloc = |k: u64| HeapEvent::Alloc {
            obj: ObjectId(k),
            addr: Addr::new(0x1000 + 64 * k),
            size: 16,
            site: AllocSite(0),
        };
        let mut eager = Vec::new();
        let mut tick = 3;
        let steps: [Option<&str>; 11] = [
            Some("f0"),
            None,
            Some("f1"),
            None,
            Some(""),
            Some("f2"),
            None,
            Some(""),
            Some(""),
            None,
            Some("f3"),
        ];
        for (k, step) in steps.into_iter().enumerate() {
            let event = match step {
                Some("") => HeapEvent::FnExit {
                    func: stack.last().map_or(0, |f| f.0),
                },
                Some(name) => HeapEvent::FnEnter {
                    func: funcs.intern(name).0,
                },
                None if k % 2 == 1 => alloc(k as u64),
                None => HeapEvent::Read {
                    obj: ObjectId(k as u64 - 1),
                },
            };
            drive_stack(&event, &mut stack);
            tick += 1;
            det.on_event(&ctx_at(&graph, tick, &funcs, &stack), &event);
            eager.push(StackLogEntry {
                tick,
                stack: funcs.render_stack(&stack),
                event: AnomalyDetector::describe(&event),
                phase: LogPhase::Before,
            });
        }
        // Interned after logging: appending cannot change earlier names.
        funcs.intern("late");

        let crossing = sample(4, MetricKind::Indeg1, 19.5);
        det.on_sample(&ctx_at(&graph, tick, &funcs, &stack), &crossing);
        let (bug, _) = det.states[0]
            .open
            .as_ref()
            .expect("the crossing opened a report");
        let mut want = eager[eager.len() - capacity..].to_vec();
        want.push(StackLogEntry {
            tick: crossing.tick,
            stack: funcs.render_stack(&stack),
            event: "metric computation point #4 observed 19.500".into(),
            phase: LogPhase::During,
        });
        assert_eq!(bug.context, want, "last {capacity} entries, oldest first");
    }

    /// How a driver moves the stack on `event`, written out apart from
    /// the window's own rule so the tests judge that rule.
    fn drive_stack(event: &HeapEvent, stack: &mut Vec<FuncId>) {
        match *event {
            HeapEvent::FnEnter { func } => stack.push(FuncId(func)),
            HeapEvent::FnExit { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }

    /// One step of a generated stream for the window oracle.
    #[derive(Debug, Clone, Copy)]
    enum WindowStep {
        /// An event delivered while armed: logged.
        Armed(HeapEvent),
        /// An event the driver applied while disarmed: not delivered.
        Disarmed(HeapEvent),
        /// Ticks a sampler dropped: no event, no stack change.
        Dropped(u64),
        /// A crossing reads the window.
        Read,
    }

    /// Today's `{tick, stack copy, event}` per logged event, the
    /// window's reference.
    struct EagerRing {
        capacity: usize,
        entries: VecDeque<(u64, Vec<FuncId>, HeapEvent)>,
    }

    impl EagerRing {
        fn log(&mut self, tick: u64, event: &HeapEvent, stack: &[FuncId]) {
            if self.capacity == 0 {
                return;
            }
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back((tick, stack.to_vec(), *event));
        }

        fn render(&self, funcs: &FunctionTable) -> Vec<StackLogEntry> {
            self.entries
                .iter()
                .map(|(tick, stack, event)| StackLogEntry {
                    tick: *tick,
                    stack: funcs.render_stack(stack),
                    event: AnomalyDetector::describe(event),
                    phase: LogPhase::Before,
                })
                .collect()
        }
    }

    fn window_step() -> impl proptest::strategy::Strategy<Value = WindowStep> {
        use proptest::prelude::*;
        use sim_heap::ObjectId;
        // Ids 0..6 over a 4-name table: the last two render as `fn#<id>`.
        let event = prop_oneof![
            3 => (0u32..6).prop_map(|func| HeapEvent::FnEnter { func }),
            3 => (0u32..6).prop_map(|func| HeapEvent::FnExit { func }),
            2 => (0u64..8).prop_map(|obj| HeapEvent::Read { obj: ObjectId(obj) }),
        ];
        prop_oneof![
            12 => event.prop_map(WindowStep::Armed),
            4 => (0u32..6).prop_map(|func| WindowStep::Disarmed(if func % 2 == 0 {
                HeapEvent::FnEnter { func }
            } else {
                HeapEvent::FnExit { func }
            })),
            1 => (1u64..4).prop_map(WindowStep::Dropped),
            1 => (0u8..1).prop_map(|_| WindowStep::Read),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_window_renders_what_an_eager_ring_logged(
            cap in 0usize..5,
            steps in proptest::collection::vec(window_step(), 0..400)
        ) {
            let capacity = [0, 1, 2, 3, 64][cap];
            let mut funcs = FunctionTable::new();
            for name in ["main", "parse", "walk", "emit"] {
                funcs.intern(name);
            }
            let mut window = ArmedWindow {
                capacity,
                ..ArmedWindow::default()
            };
            let mut eager = EagerRing { capacity, entries: VecDeque::new() };
            let (mut tick, mut stack) = (0u64, Vec::new());
            for step in steps.iter().copied().chain([WindowStep::Read]) {
                match step {
                    WindowStep::Armed(event) => {
                        tick += 1;
                        drive_stack(&event, &mut stack);
                        window.log(tick, &event, &stack);
                        eager.log(tick, &event, &stack);
                    }
                    WindowStep::Disarmed(event) => {
                        tick += 1;
                        drive_stack(&event, &mut stack);
                    }
                    WindowStep::Dropped(n) => tick += n,
                    WindowStep::Read => {
                        proptest::prop_assert_eq!(
                            window.render(&funcs, (tick, &stack)),
                            eager.render(&funcs),
                            "capacity {}", capacity
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn check_report_offline_matches_online_semantics() {
        let model = model_with(MetricKind::Indeg1, 13.0, 18.0);
        let samples: Vec<MetricSample> = [15.0, 15.0, 15.0, 19.0, 15.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| sample(i, MetricKind::Indeg1, v))
            .collect();
        let report = MetricReport::new("offline", samples);
        let bugs = AnomalyDetector::check_report(&model, &settings(), &report);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].sample_seq, 3);
    }
}
