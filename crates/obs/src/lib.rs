//! `heapmd-obs`: zero-dependency tracing, metrics, and structured
//! logging for the HeapMD pipeline.
//!
//! The crate provides four pieces, all std-only:
//!
//! - a process-global [`Registry`] of named atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket latency [`Histogram`]s;
//! - lightweight scope guards ([`MaybeTimer`], [`Span`]) that time a
//!   region and record on drop;
//! - a leveled logger (`error!` … `trace!`) controlled by the
//!   `HEAPMD_LOG` environment variable or [`set_log_level`];
//! - two exporters: a JSON-lines event/heartbeat stream
//!   ([`export::set_sink_file`], [`export::emit_event`]) and a
//!   Prometheus-style text dump ([`export::prometheus_text`]);
//! - flight-recorder support: a bounded [`SeriesRecorder`] for metric
//!   time series and a span-tree collector with a Chrome trace-event
//!   exporter ([`trace_event::write_chrome_trace`]).
//!
//! # Cost model
//!
//! Instrumentation is **disabled by default**. Every fast-path macro
//! ([`count!`], [`timer!`], [`span!`], [`gauge_set!`]) first checks
//! [`obs_enabled`] — a single relaxed atomic load — and does nothing
//! else when observability is off. When enabled, instrument handles are
//! cached in per-call-site statics so steady-state cost is one atomic
//! add (counters) or one clock read plus an atomic add (timers); the
//! registry's locks are only touched the first time a call site runs.
//!
//! ```
//! heapmd_obs::set_enabled(true);
//! heapmd_obs::count!("demo_events_total");
//! {
//!     let _t = heapmd_obs::timer!("demo_phase_ns");
//!     // ... measured region ...
//! }
//! assert_eq!(heapmd_obs::registry().counter("demo_events_total").get(), 1);
//! heapmd_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod fleet;
pub mod json;
pub mod logger;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod throughput;
pub mod trace_event;

pub use fleet::{FleetRegistry, FleetSnapshot, MetricVerdict, TenantStats};
pub use logger::{log_enabled, set_log_level, Level};
pub use recorder::{SeriesRecorder, SeriesSnapshot};
pub use registry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
pub use span::{MaybeTimer, Span};

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether metric/trace collection is on. One relaxed load; this is
/// the entire fast-path cost of disabled instrumentation.
#[inline]
pub fn obs_enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Turns metric/trace collection on or off. Logging is governed
/// separately by the log level.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Serializes the unit tests that touch process-global state — the
/// [`set_enabled`] flag, span collection, the event sink — so one
/// test's `set_enabled(false)` cannot land between another's `true` and
/// its assertions, and no test's spans reach another's sink.
#[cfg(test)]
pub(crate) fn global_state_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The process-global instrument registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Resolves (once per call site) and returns a `&'static Arc<Counter>`
/// for `name` from the global registry.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Increments the named counter (by `$n` if given) when observability
/// is enabled; a single relaxed load otherwise.
#[macro_export]
macro_rules! count {
    ($name:expr) => {
        if $crate::obs_enabled() {
            $crate::counter!($name).inc();
        }
    };
    ($name:expr, $n:expr) => {
        if $crate::obs_enabled() {
            $crate::counter!($name).add($n as u64);
        }
    };
}

/// Sets the named gauge when observability is enabled.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $value:expr) => {
        if $crate::obs_enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
                ::std::sync::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().gauge($name))
                .set($value as i64);
        }
    };
}

/// Starts a [`MaybeTimer`] over the named latency histogram (default
/// nanosecond buckets); disabled-mode cost is one relaxed load.
/// Bind the result: `let _t = timer!("phase_ns");`.
#[macro_export]
macro_rules! timer {
    ($name:expr) => {{
        if $crate::obs_enabled() {
            static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            $crate::MaybeTimer::started(::std::sync::Arc::clone(HANDLE.get_or_init(|| {
                $crate::registry().histogram($name, $crate::registry::DEFAULT_LATENCY_BOUNDS_NS)
            })))
        } else {
            $crate::MaybeTimer::off()
        }
    }};
}

/// Starts a named [`Span`] that emits a `span` event (and a trace log
/// line) on drop; disabled-mode cost is one relaxed load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::obs_enabled() {
            $crate::Span::started($name)
        } else {
            $crate::Span::off()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_touch_nothing() {
        let _guard = global_state_test_guard();
        set_enabled(false);
        count!("lib_test_disabled_total");
        let _t = timer!("lib_test_disabled_ns");
        drop(_t);
        // The instruments were never created, so fresh handles read 0.
        assert_eq!(registry().counter("lib_test_disabled_total").get(), 0);
        assert_eq!(
            registry()
                .histogram("lib_test_disabled_ns", registry::DEFAULT_LATENCY_BOUNDS_NS)
                .count(),
            0
        );
    }

    #[test]
    fn enabled_macros_record() {
        let _guard = global_state_test_guard();
        set_enabled(true);
        count!("lib_test_enabled_total");
        count!("lib_test_enabled_total", 4);
        gauge_set!("lib_test_gauge", -2);
        {
            let _t = timer!("lib_test_enabled_ns");
        }
        set_enabled(false);
        assert_eq!(registry().counter("lib_test_enabled_total").get(), 5);
        assert_eq!(registry().gauge("lib_test_gauge").get(), -2);
        assert_eq!(
            registry()
                .histogram("lib_test_enabled_ns", registry::DEFAULT_LATENCY_BOUNDS_NS)
                .count(),
            1
        );
    }
}
