//! Exporters: the JSON-lines event/heartbeat stream and the
//! Prometheus-style text exposition dump.
//!
//! The JSONL sink is process-global: installing one (usually via the
//! CLI's `--obs-out` flag) flips an atomic so producers can skip event
//! construction entirely when nothing is listening. Every event is one
//! JSON object per line with at least `type` and `ts_ms` fields.

use crate::json::JsonObject;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK_DEGRADED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Attempts per sink write/flush before the exporter gives up on the
/// sink and degrades to counters-only operation.
const SINK_ATTEMPTS: u32 = 3;
/// Base backoff between attempts; doubles per retry (1 ms, 2 ms).
const SINK_BACKOFF_MS: u64 = 1;

/// Whether a JSONL sink is installed. Producers should check this (it
/// is one relaxed load) before building an event payload.
#[inline]
pub fn sink_active() -> bool {
    SINK_ACTIVE.load(Relaxed)
}

/// Whether the sink was dropped because of persistent write failures.
/// The in-memory registry keeps accumulating, so a final Prometheus
/// dump (or [`prometheus_text`]) still reports complete counters.
#[inline]
pub fn sink_degraded() -> bool {
    SINK_DEGRADED.load(Relaxed)
}

/// Retries `op` with doubling backoff. `io::Write::write_all` already
/// absorbs `ErrorKind::Interrupted`, so every error reaching this loop
/// costs one attempt.
fn with_retry(mut op: impl FnMut() -> io::Result<()>) -> io::Result<()> {
    let mut last = None;
    for attempt in 0..SINK_ATTEMPTS {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) => {
                crate::registry()
                    .counter("heapmd_obs_sink_retries_total")
                    .inc();
                last = Some(e);
                if attempt + 1 < SINK_ATTEMPTS {
                    std::thread::sleep(std::time::Duration::from_millis(
                        SINK_BACKOFF_MS << attempt,
                    ));
                }
            }
        }
    }
    Err(last.expect("SINK_ATTEMPTS > 0"))
}

/// Drops the sink after a persistent failure, downgrading to
/// counters-only operation instead of aborting (or erroring out of) the
/// pipeline being observed.
fn degrade(guard: &mut Option<Box<dyn Write + Send>>, err: &io::Error) {
    SINK_ACTIVE.store(false, Relaxed);
    SINK_DEGRADED.store(true, Relaxed);
    *guard = None;
    crate::registry()
        .counter("heapmd_obs_sink_errors_total")
        .inc();
    eprintln!("heapmd-obs: event sink failed permanently ({err}); continuing with counters only");
}

/// Installs `writer` as the process-global JSONL sink, replacing (and
/// flushing) any previous one.
pub fn set_sink(writer: Box<dyn Write + Send>) {
    let mut guard = SINK.lock().unwrap();
    if let Some(old) = guard.as_mut() {
        let _ = old.flush();
    }
    *guard = Some(writer);
    SINK_DEGRADED.store(false, Relaxed);
    SINK_ACTIVE.store(true, Relaxed);
}

/// Creates (truncating) `path` and installs it as the JSONL sink.
pub fn set_sink_file(path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    set_sink(Box::new(io::BufWriter::new(file)));
    Ok(())
}

/// Flushes and removes the sink, if any.
pub fn clear_sink() {
    SINK_ACTIVE.store(false, Relaxed);
    let mut guard = SINK.lock().unwrap();
    if let Some(old) = guard.as_mut() {
        let _ = old.flush();
    }
    *guard = None;
}

/// Flushes the sink without removing it. Flush failures are retried
/// with bounded backoff; a persistent failure degrades the exporter to
/// counters-only (see [`sink_degraded`]).
pub fn flush_sink() {
    let mut guard = SINK.lock().unwrap();
    if let Some(sink) = guard.as_mut() {
        if let Err(e) = with_retry(|| sink.flush()) {
            degrade(&mut guard, &e);
        }
    }
}

fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Emits one event of the given `kind` to the sink, if one is active.
/// `fill` adds the payload fields; `type` and `ts_ms` are added for it.
/// Write errors are retried with bounded backoff; a sink that keeps
/// failing is dropped and the exporter degrades to counters-only —
/// telemetry must never take down the pipeline it observes.
pub fn emit_event(kind: &str, fill: impl FnOnce(&mut JsonObject)) {
    if !sink_active() {
        return;
    }
    let mut event = JsonObject::new();
    event
        .field_str("type", kind)
        .field_u64("ts_ms", unix_millis());
    fill(&mut event);
    let mut line = event.finish();
    line.push('\n');

    let mut guard = SINK.lock().unwrap();
    let Some(sink) = guard.as_mut() else {
        return;
    };
    if let Err(e) = with_retry(|| sink.write_all(line.as_bytes())) {
        degrade(&mut guard, &e);
    }
}

/// Emits a `counters` event carrying the final totals of every counter
/// and gauge in the global registry (histograms travel in the
/// Prometheus dump, which keeps their bucket detail).
pub fn emit_counters_event() {
    if !sink_active() {
        return;
    }
    let snapshot = crate::registry().snapshot();
    emit_event("counters", |o| {
        let mut counters = JsonObject::new();
        for (name, total) in &snapshot.counters {
            counters.field_u64(name, *total);
        }
        o.field_raw("counters", &counters.finish());
        let mut gauges = JsonObject::new();
        for (name, value) in &snapshot.gauges {
            gauges.field_i64(name, *value);
        }
        o.field_raw("gauges", &gauges.finish());
    });
}

/// Rewrites `name` into a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, and a
/// leading digit gets a `_` prefix. Empty input becomes `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes `value` for use inside a Prometheus label value (the part
/// between the quotes): backslash, double quote, and line feed get
/// backslash escapes per the text exposition format.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Anchors the process uptime gauge. Long-running entry points (the
/// `heapmd` CLI, the serve daemon) call this once at startup; every
/// later dump then carries `heapmd_uptime_seconds`. Idempotent — the
/// first call wins.
pub fn mark_process_start() {
    let _ = PROCESS_START.get_or_init(Instant::now);
}

/// Seconds since [`mark_process_start`]; `None` if it was never called.
pub fn uptime_seconds() -> Option<u64> {
    PROCESS_START.get().map(|t| t.elapsed().as_secs())
}

/// Build identity and exporter-health series appended to every dump:
/// `heapmd_build_info` (the conventional always-1 gauge carrying the
/// version as a label), `heapmd_uptime_seconds` when the entry point
/// marked its start, and `heapmd_obs_sink_degraded` so a final dump
/// records that the JSONL sink died mid-run even when nothing scraped
/// the live process.
pub fn runtime_info_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# TYPE heapmd_build_info gauge\nheapmd_build_info{{version=\"{}\"}} 1",
        escape_label_value(env!("CARGO_PKG_VERSION"))
    );
    if let Some(secs) = uptime_seconds() {
        let _ = writeln!(
            out,
            "# TYPE heapmd_uptime_seconds gauge\nheapmd_uptime_seconds {secs}"
        );
    }
    let _ = writeln!(
        out,
        "# TYPE heapmd_obs_sink_degraded gauge\nheapmd_obs_sink_degraded {}",
        u8::from(sink_degraded())
    );
    out
}

/// Renders the global registry in Prometheus text exposition format,
/// followed by the build/runtime series of [`runtime_info_text`].
pub fn prometheus_text() -> String {
    let mut out = crate::registry().prometheus_text();
    out.push_str(&runtime_info_text());
    out
}

/// Writes the Prometheus text exposition of the global registry to
/// `path` (truncating).
pub fn write_prometheus_file(path: &Path) -> io::Result<()> {
    std::fs::write(path, prometheus_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handle that appends into a shared buffer.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_reach_the_sink_one_per_line() {
        let _guard = crate::global_state_test_guard();
        let buf = Arc::new(StdMutex::new(Vec::new()));
        set_sink(Box::new(SharedBuf(Arc::clone(&buf))));
        assert!(sink_active());
        emit_event("unit_test_evt", |o| {
            o.field_u64("n", 1);
        });
        emit_event("unit_test_evt", |o| {
            o.field_u64("n", 2);
        });
        clear_sink();
        assert!(!sink_active());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"unit_test_evt\",\"ts_ms\":"));
        assert!(lines[0].ends_with(",\"n\":1}"));
        assert!(lines[1].ends_with(",\"n\":2}"));
    }

    #[test]
    fn no_sink_means_no_work_and_no_panic() {
        let _guard = crate::global_state_test_guard();
        clear_sink();
        emit_event("dropped", |o| {
            o.field_u64("n", 3);
        });
    }

    /// Fails a fixed number of writes, then recovers.
    struct FlakySink {
        failures_left: Arc<StdMutex<u32>>,
        out: Arc<StdMutex<Vec<u8>>>,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut left = self.failures_left.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(io::Error::other("transient"));
            }
            self.out.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn transient_write_failures_are_retried() {
        let _guard = crate::global_state_test_guard();
        let out = Arc::new(StdMutex::new(Vec::new()));
        set_sink(Box::new(FlakySink {
            failures_left: Arc::new(StdMutex::new(SINK_ATTEMPTS - 1)),
            out: Arc::clone(&out),
        }));
        emit_event("retried_evt", |o| {
            o.field_u64("n", 7);
        });
        assert!(sink_active(), "sink survived transient failures");
        assert!(!sink_degraded());
        clear_sink();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"retried_evt\""), "event landed: {text:?}");
    }

    #[test]
    fn metric_names_are_sanitized_to_exposition_grammar() {
        assert_eq!(
            sanitize_metric_name("heapmd_events_total"),
            "heapmd_events_total"
        );
        assert_eq!(sanitize_metric_name("ns:sub_total"), "ns:sub_total");
        assert_eq!(
            sanitize_metric_name("evil name\"with\\junk"),
            "evil_name_with_junk"
        );
        assert_eq!(sanitize_metric_name("dots.and-dashes"), "dots_and_dashes");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("line\nbreak"), "line_break");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(
            escape_label_value("\\\"\n"),
            "\\\\\\\"\\n",
            "all three specials in one value"
        );
    }

    #[test]
    fn prometheus_dump_is_line_safe_for_hostile_names() {
        let _guard = crate::global_state_test_guard();
        crate::registry().counter("bad\nname\"x").inc();
        let text = prometheus_text();
        assert!(text.contains("# TYPE bad_name_x counter"));
        assert!(text.contains("bad_name_x 1"));
        assert!(
            !text.contains("bad\nname"),
            "raw hostile name must not leak into the dump"
        );
    }

    #[test]
    fn runtime_info_rides_every_prometheus_dump() {
        let _guard = crate::global_state_test_guard();
        let text = prometheus_text();
        assert!(
            text.contains("# TYPE heapmd_build_info gauge\nheapmd_build_info{version=\""),
            "build info present: {text}"
        );
        assert!(text.contains("# TYPE heapmd_obs_sink_degraded gauge\nheapmd_obs_sink_degraded "));
        mark_process_start();
        assert!(prometheus_text().contains("\nheapmd_uptime_seconds "));
    }

    #[test]
    fn degraded_sink_is_visible_in_the_final_dump() {
        let _guard = crate::global_state_test_guard();
        set_sink(Box::new(FlakySink {
            failures_left: Arc::new(StdMutex::new(u32::MAX)),
            out: Arc::new(StdMutex::new(Vec::new())),
        }));
        emit_event("doomed_for_dump", |o| {
            o.field_u64("n", 1);
        });
        assert!(sink_degraded());
        assert!(prometheus_text().contains("heapmd_obs_sink_degraded 1"));
        set_sink(Box::new(SharedBuf(Arc::new(StdMutex::new(Vec::new())))));
        assert!(prometheus_text().contains("heapmd_obs_sink_degraded 0"));
        clear_sink();
    }

    #[test]
    fn persistent_write_failure_degrades_to_counters_only() {
        let _guard = crate::global_state_test_guard();
        let out = Arc::new(StdMutex::new(Vec::new()));
        set_sink(Box::new(FlakySink {
            failures_left: Arc::new(StdMutex::new(u32::MAX)),
            out: Arc::clone(&out),
        }));
        let errors_before = crate::registry()
            .counter("heapmd_obs_sink_errors_total")
            .get();
        emit_event("doomed_evt", |o| {
            o.field_u64("n", 1);
        });
        assert!(!sink_active(), "persistently failing sink was dropped");
        assert!(sink_degraded());
        assert_eq!(
            crate::registry()
                .counter("heapmd_obs_sink_errors_total")
                .get(),
            errors_before + 1
        );
        // Counters-only mode: the registry still works end to end.
        crate::registry().counter("degraded_mode_probe").inc();
        assert!(prometheus_text().contains("degraded_mode_probe"));
        // A fresh sink clears the degraded state.
        set_sink(Box::new(SharedBuf(Arc::new(StdMutex::new(Vec::new())))));
        assert!(!sink_degraded());
        clear_sink();
    }
}
