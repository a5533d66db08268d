//! The monitor interface: how checkers observe a running process.

use crate::callstack::{FuncId, FunctionTable};
use crate::report::MetricSample;
use heap_graph::HeapGraph;
use heapmd_obs::SeriesRecorder;
use sim_heap::HeapEvent;

/// Read-only view of the execution state handed to monitors.
#[derive(Debug)]
pub struct MonitorCtx<'a> {
    /// The heap graph maintained by the execution logger.
    pub graph: &'a HeapGraph,
    /// The event clock: events admitted so far, counted from the
    /// stream's start (the clock [`MetricSample::tick`] reads), the
    /// same number live and post-mortem.
    pub tick: u64,
    /// The current call stack, outermost first, after the event being
    /// delivered.
    ///
    /// Between consecutive ticks delivered to a monitor, the stack
    /// changes only by that event: `FnEnter` pushes its id, `FnExit`
    /// pops (nothing, on an empty stack), and every other event leaves
    /// it as it was. The detector's armed window logs events without
    /// their stacks and rebuilds the stacks by this rule when a crossing
    /// reads it, so a driver must keep to it.
    pub stack: &'a [FuncId],
    /// Function-name intern table for rendering the stack.
    pub funcs: &'a FunctionTable,
    /// Cumulative function entries.
    pub fn_entries: u64,
    /// Effective store-sampling rate of the event stream feeding this
    /// monitor, in `(0, 1]`: `1.0` when every store is observed (no
    /// production-overhead sampling), the measured kept/total ratio
    /// when a [`crate::SampledIngest`] filter fronts the stream.
    /// Detectors widen their calibrated ranges as a function of this.
    pub sample_rate: f64,
    /// The process's flight recorder, when one is enabled
    /// ([`crate::Process::enable_flight_recorder`]). Monitors snapshot
    /// it into incident bundles at detection time.
    pub recorder: Option<&'a SeriesRecorder>,
}

impl MonitorCtx<'_> {
    /// The current call stack as function names, outermost first.
    pub fn stack_names(&self) -> Vec<String> {
        self.funcs.render_stack(self.stack)
    }
}

/// An online observer attached to a [`crate::Process`].
///
/// HeapMD's anomaly detector and the SWAT baseline both implement this.
/// Events arrive synchronously after the heap and heap-graph have been
/// updated; metric samples arrive at each metric computation point.
pub trait Monitor {
    /// Called after every instrumentation event.
    fn on_event(&mut self, ctx: &MonitorCtx<'_>, event: &HeapEvent) {
        let _ = (ctx, event);
    }

    /// Called at every metric computation point, after the sample was
    /// recorded.
    fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
        let _ = (ctx, sample);
    }

    /// Called once when the run finishes.
    fn on_finish(&mut self, ctx: &MonitorCtx<'_>) {
        let _ = ctx;
    }

    /// Whether the next events must reach [`on_event`](Self::on_event).
    ///
    /// Drivers read this between metric computation points and may
    /// skip event delivery (and the [`MonitorCtx`] built for it) while
    /// no attached monitor listens; samples and the finish call are
    /// always delivered. It may turn `true` only inside
    /// [`on_sample`](Self::on_sample) (or before the first event); it
    /// may turn `false` at any time, since stepping a monitor that
    /// ignores events is harmless. The default, always listening, is
    /// right for any monitor that observes events.
    fn listening(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use crate::settings::Settings;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Counts calls per hook, exercising the attachment plumbing.
    #[derive(Default)]
    struct Counter {
        events: usize,
        samples: usize,
        finished: bool,
        saw_stack: bool,
    }

    impl Monitor for Counter {
        fn on_event(&mut self, ctx: &MonitorCtx<'_>, _event: &HeapEvent) {
            self.events += 1;
            if !ctx.stack.is_empty() {
                self.saw_stack = true;
                assert!(!ctx.stack_names()[0].is_empty());
            }
        }
        fn on_sample(&mut self, _ctx: &MonitorCtx<'_>, _sample: &MetricSample) {
            self.samples += 1;
        }
        fn on_finish(&mut self, _ctx: &MonitorCtx<'_>) {
            self.finished = true;
        }
    }

    /// Observes only samples and finish, and says so.
    #[derive(Default)]
    struct Deaf(Counter);

    impl Monitor for Deaf {
        fn on_event(&mut self, ctx: &MonitorCtx<'_>, event: &HeapEvent) {
            self.0.on_event(ctx, event);
        }
        fn on_sample(&mut self, ctx: &MonitorCtx<'_>, sample: &MetricSample) {
            self.0.on_sample(ctx, sample);
        }
        fn on_finish(&mut self, ctx: &MonitorCtx<'_>) {
            self.0.on_finish(ctx);
        }
        fn listening(&self) -> bool {
            false
        }
    }

    #[test]
    fn deaf_monitor_gets_every_sample_and_finish_but_no_events() {
        let settings = Settings::builder().frq(2).build().unwrap();
        let deaf = Rc::new(RefCell::new(Deaf::default()));
        let mut p = Process::new(settings);
        p.attach(deaf.clone());
        let (work, n) = (p.function("work"), p.site("n"));
        for _ in 0..6 {
            p.enter(work);
            p.malloc(16, n).unwrap();
            p.leave();
        }
        let report = p.finish("run");
        let d = deaf.borrow();
        assert_eq!(d.0.events, 0, "a deaf monitor is never stepped");
        assert_eq!(d.0.samples, report.len());
        assert_eq!(d.0.samples, 3);
        assert!(d.0.finished);
    }

    #[test]
    fn monitor_receives_events_samples_and_finish() {
        let settings = Settings::builder().frq(2).build().unwrap();
        let counter = Rc::new(RefCell::new(Counter::default()));
        let mut p = Process::new(settings);
        p.attach(counter.clone());
        let (work, n) = (p.function("work"), p.site("n"));
        for _ in 0..6 {
            p.enter(work);
            p.malloc(16, n).unwrap();
            p.leave();
        }
        let _ = p.finish("run");
        let c = counter.borrow();
        // 6 allocs + 12 fn enter/exit = 18 events.
        assert_eq!(c.events, 18);
        assert_eq!(c.samples, 3, "frq=2 over 6 entries");
        assert!(c.finished);
        assert!(c.saw_stack);
    }
}
