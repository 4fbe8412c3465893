//! Metrics, the order statistics they are reduced with, and the two
//! output forms of a run: `name value unit` lines for people and one
//! JSON record for tools.

use serde::{Number, Value};
use std::path::Path;

/// One measured number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (letters, digits, `_`, `.` and `-`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`, `ratio`.
    pub unit: String,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self { name: name.into(), value, unit: unit.to_string() }
    }
}

/// Median of `xs` (mean of the two middle values for even lengths), as
/// Python's `statistics.median` computes it. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads computed here match the
/// ones the acceptance procedure computes. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Nearest-rank percentile `p` (0–100) of nanosecond samples, in
/// microseconds. `NaN` for no samples.
pub fn percentile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
}

/// Prints every metric as `name value unit`.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

fn float(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// The `metrics` object of the result line and the record:
/// `{"name": {"value": …, "unit": "…"}, …}` in the given order.
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".to_string(), float(m.value)),
                    ("unit".to_string(), Value::String(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let v = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Number(Number::PosInt(attempted))),
        ("failed".to_string(), Value::Number(Number::PosInt(failed))),
        ("metrics".to_string(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&v).expect("a value tree always serializes")
}

/// Everything one run measured, as `perfbench compare` reads it back.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// `run`, `traced` or `observe=<observer>`.
    pub mode: String,
    /// Sessions and requests whose digests were checked.
    pub attempted: u64,
    /// Of those, how many panicked or failed the digest check.
    pub failed: u64,
    /// Every metric the run printed.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// The record as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".to_string(), Value::String(self.workload.clone())),
            ("seed".to_string(), Value::Number(Number::PosInt(self.seed))),
            ("mode".to_string(), Value::String(self.mode.clone())),
            ("attempted".to_string(), Value::Number(Number::PosInt(self.attempted))),
            ("failed".to_string(), Value::Number(Number::PosInt(self.failed))),
            ("metrics".to_string(), metrics_value(&self.metrics)),
        ])
    }

    /// Parses a record written by [`Record::write`].
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("record is not an object")?;
        let field = |key: &str| {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("record lacks `{key}`"))
        };
        let uint = |key: &str| field(key)?.as_u64().ok_or(format!("record `{key}` is not a count"));
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("record `{key}` is not a string"))
        };
        let mut metrics = Vec::new();
        for (name, entry) in
            field("metrics")?.as_object().ok_or("record `metrics` is not an object")?
        {
            let entry = entry.as_object().ok_or(format!("metric `{name}` is not an object"))?;
            let get = |key: &str| entry.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let value = get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("metric `{name}` has no numeric value"))?;
            let unit = get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("metric `{name}` has no unit"))?;
            metrics.push(Metric::new(name.clone(), value, unit));
        }
        Ok(Self {
            workload: text("workload")?,
            seed: uint("seed")?,
            mode: text("mode")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }

    /// Writes the record as `<dir>/<workload>-<mode>-s<seed>-<unique>.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let unique = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let mode = self.mode.replace('=', "-");
        let path = dir.join(format!(
            "{}-{mode}-s{}-{unique}-{}.json",
            self.workload,
            self.seed,
            std::process::id()
        ));
        let text = serde_json::to_string_pretty(&self.to_value())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&ns, 50.0), 50.0);
        assert_eq!(percentile_us(&ns, 99.0), 99.0);
        assert_eq!(percentile_us(&ns, 100.0), 100.0);
    }

    #[test]
    fn record_round_trips() {
        let rec = Record {
            workload: "gp_long".into(),
            seed: 7,
            mode: "run".into(),
            attempted: 9,
            failed: 0,
            metrics: vec![Metric::new("pass_s", 1.25, "s"), Metric::new("decide_n", 3.0, "count")],
        };
        let back = Record::from_value(&rec.to_value()).expect("parses");
        assert_eq!(back.metrics, rec.metrics);
        assert_eq!((back.seed, back.attempted), (7, 9));
    }
}
