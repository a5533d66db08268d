//! Per-stage throughput instrumentation for batch-shaped work.
//!
//! Hot-path stages (live ingest, serve ingest, the check pool, parallel
//! training) process events in batches; per-event instrumentation at
//! those rates would cost more than the work it measures. This module
//! records one set of instruments per *batch* instead:
//!
//! - `{stage}_events_total` / `{stage}_batches_total` counters,
//! - a `{stage}_busy_ns_total` counter (cumulative time inside the
//!   stage, so a Prometheus scraper can derive true rates from two
//!   counter samples: `rate(events_total) / rate(busy_ns_total)`),
//! - a `{stage}_batch_ns` latency histogram,
//! - `{stage}_ns_per_event` and `{stage}_events_per_sec` gauges holding
//!   the most recent batch's rates.
//!
//! Stage names are dynamic, so handles are resolved through the
//! registry on every call — callers must gate on [`stage_clock`] (or
//! [`crate::obs_enabled`]) so disabled runs pay only a relaxed load.
//!
//! ```
//! let clock = heapmd_obs::throughput::stage_clock();
//! let events = 10_000u64; // ... process the batch ...
//! if let Some(t0) = clock {
//!     let ns = t0.elapsed().as_nanos() as u64;
//!     heapmd_obs::throughput::record_stage("demo_stage", events, ns);
//! }
//! ```

use crate::registry::DEFAULT_LATENCY_BOUNDS_NS;
use crate::{obs_enabled, registry};
use std::time::Instant;

/// Starts a batch clock if observability is enabled; `None` otherwise.
///
/// The `Option` doubles as the "should I record?" flag so disabled runs
/// never read the clock.
#[inline]
pub fn stage_clock() -> Option<Instant> {
    obs_enabled().then(Instant::now)
}

/// Records one processed batch for `stage`: `events` events completed
/// in `elapsed_ns` nanoseconds.
///
/// No-op when observability is disabled or `events` is zero.
pub fn record_stage(stage: &str, events: u64, elapsed_ns: u64) {
    if !obs_enabled() || events == 0 {
        return;
    }
    let reg = registry();
    reg.counter(&format!("{stage}_events_total")).add(events);
    reg.counter(&format!("{stage}_batches_total")).inc();
    reg.counter(&format!("{stage}_busy_ns_total"))
        .add(elapsed_ns);
    reg.histogram(&format!("{stage}_batch_ns"), DEFAULT_LATENCY_BOUNDS_NS)
        .observe(elapsed_ns);
    reg.gauge(&format!("{stage}_ns_per_event"))
        .set((elapsed_ns / events) as i64);
    if elapsed_ns > 0 {
        let per_sec = (events as u128 * 1_000_000_000) / elapsed_ns as u128;
        reg.gauge(&format!("{stage}_events_per_sec"))
            .set(per_sec.min(i64::MAX as u128) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{global_state_test_guard, set_enabled};

    #[test]
    fn disabled_records_nothing() {
        let _guard = global_state_test_guard();
        set_enabled(false);
        assert!(stage_clock().is_none());
        record_stage("tp_test_off", 100, 1_000);
        assert_eq!(registry().counter("tp_test_off_events_total").get(), 0);
    }

    #[test]
    fn enabled_records_rates() {
        let _guard = global_state_test_guard();
        set_enabled(true);
        record_stage("tp_test_on", 1_000, 2_000_000); // 2µs/event
        set_enabled(false);
        assert_eq!(registry().counter("tp_test_on_events_total").get(), 1_000);
        assert_eq!(registry().counter("tp_test_on_batches_total").get(), 1);
        assert_eq!(
            registry().counter("tp_test_on_busy_ns_total").get(),
            2_000_000
        );
        assert_eq!(registry().gauge("tp_test_on_ns_per_event").get(), 2_000);
        assert_eq!(registry().gauge("tp_test_on_events_per_sec").get(), 500_000);
    }

    #[test]
    fn zero_events_is_noop() {
        let _guard = global_state_test_guard();
        set_enabled(true);
        record_stage("tp_test_zero", 0, 5_000);
        set_enabled(false);
        assert_eq!(registry().counter("tp_test_zero_batches_total").get(), 0);
    }
}
