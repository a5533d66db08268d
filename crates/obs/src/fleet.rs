//! Fleet-level observability: per-tenant labeled stats and whole-fleet
//! rollups for the `heapmd serve` daemon.
//!
//! Unlike the process-global [`crate::Registry`], a [`FleetRegistry`]
//! is instantiable — the serving layer owns one per daemon and hands
//! [`TenantStats`] handles to the session that checks a tenant.
//! Producers touch only relaxed atomics (plus a short mutex for the
//! per-metric gauge vector, updated once per metric computation point,
//! not per event); consumers take a [`FleetSnapshot`] and render it as
//! Prometheus text exposition, a tab-separated control dump (what
//! `heapmd top` polls), or a JSON-lines firehose.
//!
//! Rollup semantics: `connected` counts tenants with an open stream,
//! `anomalous` counts tenants whose verdict (live or final) raised at
//! least one report, `events_per_sec` sums the per-tenant windowed
//! rates, and the per-metric distance rollups take p50/p95/max of each
//! tenant's current distance-from-calibrated-range (0 inside the
//! range), nearest-rank over the tenants reporting that metric.

use crate::export::{escape_label_value, sanitize_metric_name};
use crate::json::JsonObject;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Buckets (milliseconds) for the client retry-backoff histogram
/// (`heapmd_client_retry_backoff_ms`): covers the default policy's
/// 100 ms base through its 5 s ceiling.
pub const RETRY_BACKOFF_BUCKETS_MS: &[u64] = &[50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Live metric is inside its calibrated range, away from the edges.
pub const STATUS_OK: u8 = 0;
/// Within the near-edge margin of a range extreme (the detector's
/// arming condition, minus the slope requirement).
pub const STATUS_NEAR_EDGE: u8 = 1;
/// Outside the calibrated range.
pub const STATUS_OUT: u8 = 2;

/// One dashboard glyph per live metric status: `.` in range, `!` near
/// an edge, `X` out of range.
pub fn status_glyph(status: u8) -> char {
    match status {
        STATUS_OK => '.',
        STATUS_NEAR_EDGE => '!',
        _ => 'X',
    }
}

/// Latest value of one stable metric for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricGauge {
    /// Metric name (e.g. `Outdeg=1`).
    pub metric: String,
    /// Most recent sampled value.
    pub value: f64,
    /// Distance outside the calibrated (margin-widened) range; 0 while
    /// inside it.
    pub distance: f64,
    /// Full width of the accepted band (`hi - lo`) after the range
    /// margin and any sampling-confidence widening. A sampled tenant
    /// carries a wider band than an unsampled one on the same model.
    pub band: f64,
    /// One of [`STATUS_OK`], [`STATUS_NEAR_EDGE`], [`STATUS_OUT`].
    pub status: u8,
}

/// Calibration-time stability verdict for one metric of one tenant's
/// model: which metrics earned a calibrated range for this program,
/// and which were rejected by the stability filter.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVerdict {
    /// Metric id (e.g. `paper.roots`).
    pub metric: String,
    /// True when the stability filter calibrated a range for it.
    pub stable: bool,
}

/// Per-tenant counters and gauges, shared between the tenant's session
/// and the exposition endpoints.
#[derive(Debug, Default)]
pub struct TenantStats {
    events_total: AtomicU64,
    samples_total: AtomicU64,
    range_crossings_total: AtomicU64,
    incidents_total: AtomicU64,
    bugs_total: AtomicU64,
    resumes_total: AtomicU64,
    events_per_sec: AtomicU64,
    connected: AtomicBool,
    evicted: AtomicBool,
    armed: AtomicBool,
    anomalous: AtomicBool,
    /// `f64::to_bits` of the announced store-sampling rate; 0 (the
    /// atomic default) means "never announced" and reads as 1.0.
    sample_rate_bits: AtomicU64,
    last_anomaly: Mutex<String>,
    metrics: Mutex<Vec<MetricGauge>>,
    verdicts: Mutex<Vec<MetricVerdict>>,
}

impl TenantStats {
    /// Counts `n` ingested events.
    pub fn record_events(&self, n: u64) {
        self.events_total.fetch_add(n, Relaxed);
    }

    /// Counts one metric computation point.
    pub fn record_sample(&self) {
        self.samples_total.fetch_add(1, Relaxed);
    }

    /// Counts `n` in-range → out-of-range transitions.
    pub fn add_crossings(&self, n: u64) {
        self.range_crossings_total.fetch_add(n, Relaxed);
    }

    /// Counts `n` persisted incident bundles.
    pub fn add_incidents(&self, n: u64) {
        self.incidents_total.fetch_add(n, Relaxed);
    }

    /// Counts `n` bug reports from a verdict; any marks the tenant
    /// anomalous.
    pub fn record_bugs(&self, n: u64) {
        if n > 0 {
            self.bugs_total.fetch_add(n, Relaxed);
            self.anomalous.store(true, Relaxed);
        }
    }

    /// Counts one session resume (a reconnecting client continuing an
    /// interrupted stream from its last acked block).
    pub fn record_resume(&self) {
        self.resumes_total.fetch_add(1, Relaxed);
    }

    /// Updates the windowed ingest rate gauge.
    pub fn set_rate(&self, events_per_sec: u64) {
        self.events_per_sec.store(events_per_sec, Relaxed);
    }

    /// Sets the live detector-arm emulation flag (any metric near an
    /// edge or out of range).
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Relaxed);
    }

    /// Records the effective store-sampling rate announced by the
    /// tenant's stream, in `(0, 1]` (`1.0` = every store observed).
    pub fn set_sample_rate(&self, rate: f64) {
        self.sample_rate_bits.store(rate.to_bits(), Relaxed);
    }

    /// The announced store-sampling rate; `1.0` until a stream
    /// announces one.
    pub fn sample_rate(&self) -> f64 {
        match self.sample_rate_bits.load(Relaxed) {
            0 => 1.0,
            bits => f64::from_bits(bits),
        }
    }

    /// Marks the tenant's stream open or closed.
    pub fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Relaxed);
    }

    /// Marks the tenant kicked out (expired session or malformed
    /// stream).
    pub fn set_evicted(&self) {
        self.evicted.store(true, Relaxed);
        self.connected.store(false, Relaxed);
    }

    /// Records the most recent anomaly description (metric + direction).
    pub fn set_last_anomaly(&self, what: &str) {
        *self.last_anomaly.lock().unwrap() = what.to_string();
    }

    /// Replaces the per-metric live gauges.
    pub fn set_metrics(&self, gauges: Vec<MetricGauge>) {
        *self.metrics.lock().unwrap() = gauges;
    }

    /// Replaces the per-metric calibration verdicts (set once when the
    /// tenant's model is resolved; stable across the stream).
    pub fn set_verdicts(&self, verdicts: Vec<MetricVerdict>) {
        *self.verdicts.lock().unwrap() = verdicts;
    }

    /// Total events ingested.
    pub fn events(&self) -> u64 {
        self.events_total.load(Relaxed)
    }

    /// Whether the tenant's stream is currently open.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Relaxed)
    }

    /// Whether the tenant was evicted.
    pub fn is_evicted(&self) -> bool {
        self.evicted.load(Relaxed)
    }

    fn row(&self, name: &str) -> TenantRow {
        let metrics = self.metrics.lock().unwrap().clone();
        let glyphs = if metrics.is_empty() {
            "-".to_string()
        } else {
            metrics.iter().map(|m| status_glyph(m.status)).collect()
        };
        TenantRow {
            name: name.to_string(),
            events_total: self.events_total.load(Relaxed),
            events_per_sec: self.events_per_sec.load(Relaxed),
            samples_total: self.samples_total.load(Relaxed),
            range_crossings_total: self.range_crossings_total.load(Relaxed),
            incidents_total: self.incidents_total.load(Relaxed),
            bugs_total: self.bugs_total.load(Relaxed),
            resumes_total: self.resumes_total.load(Relaxed),
            connected: self.connected.load(Relaxed),
            evicted: self.evicted.load(Relaxed),
            armed: self.armed.load(Relaxed),
            anomalous: self.anomalous.load(Relaxed),
            sample_rate: self.sample_rate(),
            last_anomaly: self.last_anomaly.lock().unwrap().clone(),
            glyphs,
            metrics,
            verdicts: self.verdicts.lock().unwrap().clone(),
        }
    }
}

/// Point-in-time copy of one tenant's stats.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name (validated by the serving layer).
    pub name: String,
    /// Total events ingested.
    pub events_total: u64,
    /// Windowed ingest rate.
    pub events_per_sec: u64,
    /// Metric computation points observed live.
    pub samples_total: u64,
    /// In-range → out-of-range transitions observed live.
    pub range_crossings_total: u64,
    /// Incident bundles persisted for this tenant.
    pub incidents_total: u64,
    /// Bug reports raised by this tenant's verdicts.
    pub bugs_total: u64,
    /// Session resumes performed by this tenant's clients.
    pub resumes_total: u64,
    /// Stream currently open.
    pub connected: bool,
    /// Kicked for an expired session or a malformed stream.
    pub evicted: bool,
    /// Live arm emulation (near-edge or out-of-range metric).
    pub armed: bool,
    /// At least one verdict raised a report.
    pub anomalous: bool,
    /// Announced store-sampling rate (`1.0` = unsampled stream).
    pub sample_rate: f64,
    /// Most recent anomaly description; empty if none.
    pub last_anomaly: String,
    /// One status glyph per stable metric (`-` before the first sample).
    pub glyphs: String,
    /// Per-metric live gauges.
    pub metrics: Vec<MetricGauge>,
    /// Per-metric calibration verdicts from the tenant's model.
    pub verdicts: Vec<MetricVerdict>,
}

impl TenantRow {
    /// One-word lifecycle status for dashboards.
    pub fn status(&self) -> &'static str {
        if self.evicted {
            "evicted"
        } else if self.connected {
            "live"
        } else {
            "done"
        }
    }
}

/// p50/p95/max of one metric's distance-from-range across tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRollup {
    /// Metric name.
    pub metric: String,
    /// Median distance (nearest rank).
    pub p50: f64,
    /// 95th percentile distance (nearest rank).
    pub p95: f64,
    /// Worst distance.
    pub max: f64,
}

/// Point-in-time copy of the whole fleet: rollups plus one row per
/// tenant (name-sorted).
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Seconds since the registry was created.
    pub uptime_s: u64,
    /// Tenants with an open stream.
    pub connected: u64,
    /// Tenants with at least one anomaly report.
    pub anomalous: u64,
    /// Tenants evicted.
    pub evicted: u64,
    /// Tenants ever seen.
    pub tenants_total: u64,
    /// Events ingested across all tenants.
    pub events_total: u64,
    /// Sum of per-tenant windowed rates.
    pub events_per_sec: u64,
    /// Incident bundles persisted across all tenants.
    pub incidents_total: u64,
    /// Streams accepted over the daemon's lifetime.
    pub streams_total: u64,
    /// Evictions over the daemon's lifetime.
    pub evictions_total: u64,
    /// Reconnections into an existing session over the daemon's
    /// lifetime.
    pub reconnects_total: u64,
    /// Connections rejected before tenant registration.
    pub protocol_errors_total: u64,
    /// Per-metric distance rollups, metric-name-sorted.
    pub distance_rollups: Vec<DistanceRollup>,
    /// Per-tenant rows, name-sorted.
    pub tenants: Vec<TenantRow>,
}

/// The daemon-wide tenant registry (see the module docs).
#[derive(Debug)]
pub struct FleetRegistry {
    started: Instant,
    tenants: RwLock<BTreeMap<String, Arc<TenantStats>>>,
    streams_total: AtomicU64,
    evictions_total: AtomicU64,
    reconnects_total: AtomicU64,
    protocol_errors_total: AtomicU64,
}

impl Default for FleetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetRegistry {
    /// An empty fleet.
    pub fn new() -> Self {
        FleetRegistry {
            started: Instant::now(),
            tenants: RwLock::new(BTreeMap::new()),
            streams_total: AtomicU64::new(0),
            evictions_total: AtomicU64::new(0),
            reconnects_total: AtomicU64::new(0),
            protocol_errors_total: AtomicU64::new(0),
        }
    }

    /// Registers a stream for `name` (creating the tenant on first
    /// sight), marks it connected, and returns its stats handle.
    pub fn connect(&self, name: &str) -> Arc<TenantStats> {
        self.streams_total.fetch_add(1, Relaxed);
        let stats = self.tenant(name);
        stats.set_connected(true);
        stats
    }

    /// Returns the stats handle for `name`, creating the tenant without
    /// registering a stream.
    pub fn tenant(&self, name: &str) -> Arc<TenantStats> {
        // Early return keeps the read guard's lifetime clear of the
        // write() below — an `if let .. else` would hold it across the
        // else branch and self-deadlock.
        if let Some(t) = self.tenants.read().unwrap().get(name) {
            return Arc::clone(t);
        }
        Arc::clone(
            self.tenants
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Kicks a tenant out: marks it evicted and counts the eviction.
    pub fn evict(&self, stats: &TenantStats) {
        stats.set_evicted();
        self.evictions_total.fetch_add(1, Relaxed);
    }

    /// Counts a client reconnecting into an existing session (the
    /// matching per-tenant resume is [`TenantStats::record_resume`]).
    pub fn record_reconnect(&self) {
        self.reconnects_total.fetch_add(1, Relaxed);
    }

    /// Counts a connection rejected before tenant registration (bad
    /// preamble, invalid tenant name).
    pub fn record_protocol_error(&self) {
        self.protocol_errors_total.fetch_add(1, Relaxed);
    }

    /// Snapshots every tenant and computes the fleet rollups.
    pub fn snapshot(&self) -> FleetSnapshot {
        let rows: Vec<TenantRow> = self
            .tenants
            .read()
            .unwrap()
            .iter()
            .map(|(name, t)| t.row(name))
            .collect();
        let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for row in &rows {
            for m in &row.metrics {
                by_metric.entry(&m.metric).or_default().push(m.distance);
            }
        }
        let distance_rollups = by_metric
            .into_iter()
            .map(|(metric, mut dists)| {
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                DistanceRollup {
                    metric: metric.to_string(),
                    p50: nearest_rank(&dists, 0.50),
                    p95: nearest_rank(&dists, 0.95),
                    max: *dists.last().unwrap_or(&0.0),
                }
            })
            .collect();
        FleetSnapshot {
            uptime_s: self.started.elapsed().as_secs(),
            connected: rows.iter().filter(|r| r.connected).count() as u64,
            anomalous: rows.iter().filter(|r| r.anomalous).count() as u64,
            evicted: rows.iter().filter(|r| r.evicted).count() as u64,
            tenants_total: rows.len() as u64,
            events_total: rows.iter().map(|r| r.events_total).sum(),
            events_per_sec: rows
                .iter()
                .filter(|r| r.connected)
                .map(|r| r.events_per_sec)
                .sum(),
            incidents_total: rows.iter().map(|r| r.incidents_total).sum(),
            streams_total: self.streams_total.load(Relaxed),
            evictions_total: self.evictions_total.load(Relaxed),
            reconnects_total: self.reconnects_total.load(Relaxed),
            protocol_errors_total: self.protocol_errors_total.load(Relaxed),
            distance_rollups,
            tenants: rows,
        }
    }

    /// Renders the fleet section of the Prometheus exposition (see
    /// [`FleetSnapshot::prometheus_text`]).
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// Renders the control-socket dump (see [`FleetSnapshot::tsv`]).
    pub fn tsv(&self) -> String {
        self.snapshot().tsv()
    }

    /// Renders the JSON-lines firehose (see
    /// [`FleetSnapshot::firehose_jsonl`]).
    pub fn firehose_jsonl(&self) -> String {
        self.snapshot().firehose_jsonl()
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; 0 when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

impl FleetSnapshot {
    /// Renders the fleet rollups and per-tenant series in Prometheus
    /// text exposition format. Tenant and metric names travel as label
    /// values (escaped), so hostile names cannot corrupt the dump.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("heapmd_fleet_tenants_connected", self.connected),
            ("heapmd_fleet_tenants_anomalous", self.anomalous),
            ("heapmd_fleet_tenants_evicted", self.evicted),
            ("heapmd_fleet_tenants_total", self.tenants_total),
            ("heapmd_fleet_events_per_sec", self.events_per_sec),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for (name, value) in [
            ("heapmd_fleet_events_total", self.events_total),
            ("heapmd_fleet_incidents_total", self.incidents_total),
            ("heapmd_fleet_streams_total", self.streams_total),
            ("heapmd_fleet_evictions_total", self.evictions_total),
            ("heapmd_fleet_reconnects_total", self.reconnects_total),
            (
                "heapmd_fleet_protocol_errors_total",
                self.protocol_errors_total,
            ),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        if !self.distance_rollups.is_empty() {
            let _ = writeln!(out, "# TYPE heapmd_fleet_metric_distance gauge");
            for r in &self.distance_rollups {
                let metric = escape_label_value(&r.metric);
                for (q, v) in [("0.5", r.p50), ("0.95", r.p95), ("max", r.max)] {
                    let _ = writeln!(
                        out,
                        "heapmd_fleet_metric_distance{{metric=\"{metric}\",quantile=\"{q}\"}} {v}"
                    );
                }
            }
        }
        if self.tenants.is_empty() {
            return out;
        }
        let family =
            |name: &str, kind: &str, value: &dyn Fn(&TenantRow) -> String, out: &mut String| {
                let name = sanitize_metric_name(name);
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for row in &self.tenants {
                    let _ = writeln!(
                        out,
                        "{name}{{tenant=\"{}\"}} {}",
                        escape_label_value(&row.name),
                        value(row)
                    );
                }
            };
        family(
            "heapmd_tenant_events_total",
            "counter",
            &|r| r.events_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_samples_total",
            "counter",
            &|r| r.samples_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_range_crossings_total",
            "counter",
            &|r| r.range_crossings_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_incidents_total",
            "counter",
            &|r| r.incidents_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_bugs_total",
            "counter",
            &|r| r.bugs_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_resumes_total",
            "counter",
            &|r| r.resumes_total.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_events_per_sec",
            "gauge",
            &|r| r.events_per_sec.to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_connected",
            "gauge",
            &|r| u8::from(r.connected).to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_armed",
            "gauge",
            &|r| u8::from(r.armed).to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_anomalous",
            "gauge",
            &|r| u8::from(r.anomalous).to_string(),
            &mut out,
        );
        family(
            "heapmd_tenant_sample_rate",
            "gauge",
            &|r| r.sample_rate.to_string(),
            &mut out,
        );
        let with_metrics = self.tenants.iter().any(|r| !r.metrics.is_empty());
        if with_metrics {
            for (name, pick) in [
                ("heapmd_tenant_metric_value", 0u8),
                ("heapmd_tenant_metric_distance", 1u8),
                ("heapmd_tenant_metric_band", 2u8),
            ] {
                let _ = writeln!(out, "# TYPE {name} gauge");
                for row in &self.tenants {
                    let tenant = escape_label_value(&row.name);
                    for m in &row.metrics {
                        let v = match pick {
                            0 => m.value,
                            1 => m.distance,
                            _ => m.band,
                        };
                        let _ = writeln!(
                            out,
                            "{name}{{tenant=\"{tenant}\",metric=\"{}\"}} {v}",
                            escape_label_value(&m.metric)
                        );
                    }
                }
            }
        }
        if self.tenants.iter().any(|r| !r.verdicts.is_empty()) {
            let _ = writeln!(out, "# TYPE heapmd_tenant_metric_stability gauge");
            for row in &self.tenants {
                let tenant = escape_label_value(&row.name);
                for v in &row.verdicts {
                    let _ = writeln!(
                        out,
                        "heapmd_tenant_metric_stability{{tenant=\"{tenant}\",metric=\"{}\"}} {}",
                        escape_label_value(&v.metric),
                        u8::from(v.stable)
                    );
                }
            }
        }
        out
    }

    /// Renders the tab-separated control dump `heapmd top` polls:
    ///
    /// ```text
    /// fleet <uptime_s> <connected> <anomalous> <tenants> <events> <events/s> <incidents> <evictions>
    /// metric <name> <p50> <p95> <max>
    /// tenant <name> <events> <events/s> <samples> <crossings> <incidents> <bugs> <status> <anomalous> <glyphs> <last_anomaly|->
    /// ```
    ///
    /// Tab/newline bytes cannot appear in the variable columns: tenant
    /// names are charset-validated by the serving layer and metric
    /// names come from `MetricKind::short_name`-style constants; both
    /// are additionally stripped here as defense in depth.
    pub fn tsv(&self) -> String {
        fn cell(s: &str) -> String {
            s.chars()
                .map(|c| if c == '\t' || c == '\n' { '_' } else { c })
                .collect()
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.uptime_s,
            self.connected,
            self.anomalous,
            self.tenants_total,
            self.events_total,
            self.events_per_sec,
            self.incidents_total,
            self.evictions_total,
        );
        for r in &self.distance_rollups {
            let _ = writeln!(
                out,
                "metric\t{}\t{}\t{}\t{}",
                cell(&r.metric),
                r.p50,
                r.p95,
                r.max
            );
        }
        for t in &self.tenants {
            let anomaly = if t.last_anomaly.is_empty() {
                "-"
            } else {
                &t.last_anomaly
            };
            let _ = writeln!(
                out,
                "tenant\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                cell(&t.name),
                t.events_total,
                t.events_per_sec,
                t.samples_total,
                t.range_crossings_total,
                t.incidents_total,
                t.bugs_total,
                t.status(),
                u8::from(t.anomalous),
                cell(&t.glyphs),
                cell(anomaly),
            );
        }
        out
    }

    /// Renders the snapshot as a JSON-lines firehose: one `fleet` line
    /// followed by one `tenant` line per tenant.
    pub fn firehose_jsonl(&self) -> String {
        let mut out = String::new();
        let mut fleet = JsonObject::new();
        fleet
            .field_str("type", "fleet")
            .field_u64("uptime_s", self.uptime_s)
            .field_u64("tenants_connected", self.connected)
            .field_u64("tenants_anomalous", self.anomalous)
            .field_u64("tenants_total", self.tenants_total)
            .field_u64("events_total", self.events_total)
            .field_u64("events_per_sec", self.events_per_sec)
            .field_u64("incidents_total", self.incidents_total)
            .field_u64("streams_total", self.streams_total)
            .field_u64("evictions_total", self.evictions_total)
            .field_u64("reconnects_total", self.reconnects_total);
        out.push_str(&fleet.finish());
        out.push('\n');
        for r in &self.distance_rollups {
            let mut line = JsonObject::new();
            line.field_str("type", "metric_rollup")
                .field_str("metric", &r.metric)
                .field_f64("p50", r.p50)
                .field_f64("p95", r.p95)
                .field_f64("max", r.max);
            out.push_str(&line.finish());
            out.push('\n');
        }
        for t in &self.tenants {
            let mut line = JsonObject::new();
            line.field_str("type", "tenant")
                .field_str("name", &t.name)
                .field_u64("events_total", t.events_total)
                .field_u64("events_per_sec", t.events_per_sec)
                .field_u64("samples_total", t.samples_total)
                .field_u64("range_crossings_total", t.range_crossings_total)
                .field_u64("incidents_total", t.incidents_total)
                .field_u64("bugs_total", t.bugs_total)
                .field_u64("resumes_total", t.resumes_total)
                .field_str("status", t.status())
                .field_bool("armed", t.armed)
                .field_bool("anomalous", t.anomalous)
                .field_f64("sample_rate", t.sample_rate)
                .field_f64(
                    "band_max",
                    t.metrics.iter().fold(0.0, |acc, m| m.band.max(acc)),
                )
                .field_str("glyphs", &t.glyphs)
                .field_str("last_anomaly", &t.last_anomaly);
            out.push_str(&line.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges() -> Vec<MetricGauge> {
        vec![
            MetricGauge {
                metric: "Outdeg=1".into(),
                value: 40.0,
                distance: 0.0,
                band: 12.0,
                status: STATUS_OK,
            },
            MetricGauge {
                metric: "In=Out".into(),
                value: 9.0,
                distance: 2.5,
                band: 4.0,
                status: STATUS_OUT,
            },
        ]
    }

    #[test]
    fn rollups_aggregate_across_tenants() {
        let fleet = FleetRegistry::new();
        let a = fleet.connect("a");
        a.record_events(100);
        a.set_rate(50);
        a.set_metrics(gauges());
        a.record_bugs(2);
        let b = fleet.connect("b");
        b.record_events(40);
        b.set_rate(25);
        b.set_metrics(vec![MetricGauge {
            metric: "In=Out".into(),
            value: 5.0,
            distance: 0.5,
            band: 4.0,
            status: STATUS_OUT,
        }]);
        let snap = fleet.snapshot();
        assert_eq!(snap.tenants_total, 2);
        assert_eq!(snap.connected, 2);
        assert_eq!(snap.anomalous, 1);
        assert_eq!(snap.events_total, 140);
        assert_eq!(snap.events_per_sec, 75);
        assert_eq!(snap.streams_total, 2);
        let ineqout = snap
            .distance_rollups
            .iter()
            .find(|r| r.metric == "In=Out")
            .unwrap();
        assert_eq!(ineqout.max, 2.5);
        assert_eq!(ineqout.p50, 0.5, "nearest rank of [0.5, 2.5] at q=0.5");
    }

    #[test]
    fn eviction_disconnects_and_counts() {
        let fleet = FleetRegistry::new();
        let a = fleet.connect("slow");
        assert!(a.is_connected());
        fleet.evict(&a);
        assert!(!a.is_connected());
        assert!(a.is_evicted());
        let snap = fleet.snapshot();
        assert_eq!(snap.evictions_total, 1);
        assert_eq!(snap.evicted, 1);
        assert_eq!(snap.connected, 0);
        assert_eq!(snap.tenants[0].status(), "evicted");
    }

    #[test]
    fn prometheus_text_labels_and_escapes() {
        let fleet = FleetRegistry::new();
        let t = fleet.connect("api\"eu\\1");
        t.record_events(7);
        t.set_metrics(gauges());
        let text = fleet.prometheus_text();
        assert!(text.contains("# TYPE heapmd_tenant_events_total counter"));
        assert!(text.contains("heapmd_tenant_events_total{tenant=\"api\\\"eu\\\\1\"} 7"));
        assert!(text.contains(
            "heapmd_tenant_metric_distance{tenant=\"api\\\"eu\\\\1\",metric=\"In=Out\"} 2.5"
        ));
        assert!(
            text.contains("heapmd_fleet_metric_distance{metric=\"In=Out\",quantile=\"max\"} 2.5")
        );
        assert!(text.contains("heapmd_fleet_tenants_connected 1"));
    }

    #[test]
    fn tsv_and_firehose_render_every_tenant() {
        let fleet = FleetRegistry::new();
        let t = fleet.connect("web");
        t.record_events(3);
        t.set_metrics(gauges());
        t.set_last_anomaly("In=Out above range");
        let tsv = fleet.tsv();
        assert!(tsv.starts_with("fleet\t"));
        assert!(tsv.contains("tenant\tweb\t3\t"));
        assert!(tsv.contains(".X"), "glyphs rendered: {tsv}");
        let jsonl = fleet.firehose_jsonl();
        assert!(jsonl.lines().next().unwrap().contains("\"type\":\"fleet\""));
        assert!(jsonl.contains("\"name\":\"web\""));
        assert!(jsonl.contains("\"glyphs\":\".X\""));
    }

    #[test]
    fn glyphs_cover_all_statuses() {
        assert_eq!(status_glyph(STATUS_OK), '.');
        assert_eq!(status_glyph(STATUS_NEAR_EDGE), '!');
        assert_eq!(status_glyph(STATUS_OUT), 'X');
    }
}
