//! Span-tree collection and Chrome trace-event export.
//!
//! Every live [`crate::Span`] is assigned a process-unique id, the id
//! of the span currently open on the same thread (its parent), and a
//! small per-thread id. When collection is switched on with
//! [`set_collecting`], finished spans are additionally appended to a
//! bounded in-memory buffer that [`chrome_trace_json`] renders in the
//! Chrome trace-event JSON format — the file `about:tracing` and
//! Perfetto open directly.
//!
//! Collection is off by default and independent of [`crate::obs_enabled`];
//! spans only exist while obs is enabled, so a full trace needs both
//! switches on. The buffer is bounded ([`EVENT_CAP`]); events past the
//! cap are counted in [`dropped_events`] rather than recorded, so a
//! runaway run degrades instead of exhausting memory.

use crate::json::JsonObject;
use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Most finished spans retained for export; beyond this they are
/// counted as dropped.
pub const EVENT_CAP: usize = 65_536;

/// One finished span, in microseconds relative to the process trace
/// epoch (the first span ever started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Small dense thread id (1-based, assignment order).
    pub tid: u64,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds.
    pub dur_us: u64,
}

/// Identity handed to a live span at construction.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span on this thread, if any.
    pub parent: Option<u64>,
    /// Dense thread id.
    pub tid: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static COLLECTING: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn events() -> &'static Mutex<Vec<SpanEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The instant all trace timestamps are relative to (first span start).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span collection for Chrome export on or off.
pub fn set_collecting(on: bool) {
    COLLECTING.store(on, Relaxed);
}

/// Whether finished spans are being buffered for export.
pub fn collecting() -> bool {
    COLLECTING.load(Relaxed)
}

/// Spans dropped because the buffer was full.
pub fn dropped_events() -> u64 {
    DROPPED.load(Relaxed)
}

/// Finished spans currently buffered.
pub fn event_count() -> usize {
    events().lock().map(|e| e.len()).unwrap_or(0)
}

/// Empties the buffer and the dropped counter (tests, or between
/// exported runs).
pub fn clear_events() {
    if let Ok(mut e) = events().lock() {
        e.clear();
    }
    DROPPED.store(0, Relaxed);
}

/// Registers a span start on this thread: assigns its id, links it to
/// the currently open span, and pins the trace epoch.
pub(crate) fn enter() -> SpanCtx {
    let _ = epoch();
    let id = NEXT_SPAN_ID.fetch_add(1, Relaxed);
    let tid = TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Relaxed));
        }
        t.get()
    });
    let parent = OPEN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    SpanCtx { id, parent, tid }
}

/// Registers a span end: unwinds the thread's open stack and, when
/// collecting, buffers the finished event.
pub(crate) fn exit(ctx: &SpanCtx, name: &'static str, start: Instant, end: Instant) {
    OPEN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        // Spans are scope guards, so ends nest; still, tolerate an
        // out-of-order drop by removing the id wherever it sits.
        if s.last() == Some(&ctx.id) {
            s.pop();
        } else {
            s.retain(|&id| id != ctx.id);
        }
    });
    if !collecting() {
        return;
    }
    let e = epoch();
    let ev = SpanEvent {
        name,
        id: ctx.id,
        parent: ctx.parent,
        tid: ctx.tid,
        start_us: start.saturating_duration_since(e).as_micros() as u64,
        dur_us: end.saturating_duration_since(start).as_micros() as u64,
    };
    if let Ok(mut buf) = events().lock() {
        if buf.len() < EVENT_CAP {
            buf.push(ev);
        } else {
            DROPPED.fetch_add(1, Relaxed);
        }
    }
}

fn render_event(ev: &SpanEvent) -> String {
    let mut args = JsonObject::new();
    args.field_u64("id", ev.id);
    if let Some(p) = ev.parent {
        args.field_u64("parent", p);
    }
    let mut o = JsonObject::new();
    o.field_str("name", ev.name)
        .field_str("cat", "heapmd")
        .field_str("ph", "X")
        .field_u64("ts", ev.start_us)
        .field_u64("dur", ev.dur_us)
        .field_u64("pid", 1)
        .field_u64("tid", ev.tid)
        .field_raw("args", &args.finish());
    o.finish()
}

/// Renders the buffered spans as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`) suitable for `about:tracing` / Perfetto.
pub fn chrome_trace_json() -> String {
    let mut body = String::from("{\"traceEvents\":[");
    if let Ok(buf) = events().lock() {
        let mut sorted: Vec<&SpanEvent> = buf.iter().collect();
        sorted.sort_by_key(|e| (e.start_us, e.id));
        for (i, ev) in sorted.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&render_event(ev));
        }
    }
    body.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":");
    let mut meta = JsonObject::new();
    meta.field_str("producer", "heapmd-obs")
        .field_u64("dropped_events", dropped_events());
    body.push_str(&meta.finish());
    body.push('}');
    body
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace_json().as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_thread_ids() {
        let _guard = crate::global_state_test_guard();
        clear_events();
        set_collecting(true);
        crate::set_enabled(true);
        {
            let _outer = crate::span!("te_outer");
            let _inner = crate::span!("te_inner");
        }
        crate::set_enabled(false);
        set_collecting(false);
        let buf = events().lock().unwrap();
        let inner = buf.iter().find(|e| e.name == "te_inner").unwrap();
        let outer = buf.iter().find(|e| e.name == "te_outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.tid >= 1);
        drop(buf);
        clear_events();
    }

    #[test]
    fn chrome_json_lists_events_with_complete_phase() {
        let _guard = crate::global_state_test_guard();
        clear_events();
        set_collecting(true);
        crate::set_enabled(true);
        {
            let _s = crate::span!("te_export");
        }
        crate::set_enabled(false);
        set_collecting(false);
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"te_export\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.ends_with('}'));
        clear_events();
    }

    #[test]
    fn buffer_is_bounded() {
        let _guard = crate::global_state_test_guard();
        clear_events();
        {
            let mut buf = events().lock().unwrap();
            buf.resize(
                EVENT_CAP,
                SpanEvent {
                    name: "fill",
                    id: 0,
                    parent: None,
                    tid: 1,
                    start_us: 0,
                    dur_us: 0,
                },
            );
        }
        set_collecting(true);
        crate::set_enabled(true);
        {
            let _s = crate::span!("te_overflow");
        }
        crate::set_enabled(false);
        set_collecting(false);
        assert_eq!(event_count(), EVENT_CAP);
        assert!(dropped_events() >= 1);
        clear_events();
    }

    #[test]
    fn uncollected_spans_leave_no_events() {
        let _guard = crate::global_state_test_guard();
        clear_events();
        crate::set_enabled(true);
        {
            let _s = crate::span!("te_uncollected");
        }
        crate::set_enabled(false);
        let buf = events().lock().unwrap();
        assert!(!buf.iter().any(|e| e.name == "te_uncollected"));
    }
}
