//! Order statistics and the result line the runner prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One metric as printed: value and unit.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), Metric { value, unit });
    }

    /// Multiplies every time-valued metric (units `ns…`, `ms`, `s`) by
    /// `factor`, except those named in `keep`.
    pub fn scale_times(&mut self, factor: f64, keep: &[&str]) {
        for (name, m) in self.0.iter_mut() {
            let timed = m.unit.starts_with("ns") || m.unit == "ms" || m.unit == "s";
            if timed && !keep.contains(&name.as_str()) {
                m.value *= factor;
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.0.iter()
    }
}

/// Operation accounting: every CLI invocation, push, and oracle
/// comparison is one attempt; a bad exit, a push error or eviction, and
/// an oracle mismatch each count as one failure.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, echoed to stderr.
    pub notes: Vec<String>,
}

impl Ops {
    /// Counts one attempt; `ok == false` counts it failed with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints every significant digit of the f64.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The single JSON result object (the last line of standard output).
pub fn result_line(correct: bool, ops: &Ops, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted.max(1),
        ops.failed
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        let ops = Ops::default();
        let line = result_line(true, &ops, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
