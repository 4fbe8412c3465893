//! `perfbench compare <dirA> <dirB>`: the regression check between two
//! sets of run records, with the bounds `BENCHMARK.json` fixes.

use crate::report::{median, quartiles, Record};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// How a metric may move: which direction is better and by what share
/// of side A's median it may worsen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median.
    pub share: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let entries = v
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "end_to_end"))
        .and_then(|(_, e)| e.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for e in entries {
        let o = e.as_object().ok_or("end_to_end entry is not an object")?;
        let get = |k: &str| o.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let name = get("name").and_then(Value::as_str).ok_or("end_to_end entry lacks a name")?;
        let better =
            get("better").and_then(Value::as_str).ok_or("end_to_end entry lacks `better`")?;
        let share = get("bound").and_then(Value::as_f64).ok_or("end_to_end entry lacks `bound`")?;
        out.insert(name.to_string(), Bound { lower_is_better: better == "lower", share });
    }
    Ok(out)
}

/// Every record in `dir`.
pub fn load_records(dir: &Path) -> Result<Vec<Record>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let v: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Record::from_value(&v).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within the bound, with both spreads inside it.
    Ok,
    /// B is worse than A by more than the bound.
    Regression,
    /// A side's interquartile range is wider than the bound, or a side
    /// has fewer than two runs.
    Unresolved,
    /// The metric has no bound; reported only.
    Info,
}

/// One compared (workload, mode, metric) row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Record mode.
    pub mode: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Side A: median, first and third quartile.
    pub a: (f64, f64, f64),
    /// Side B: median, first and third quartile.
    pub b: (f64, f64, f64),
    /// Worsening of B against A as a share of A's median (negative when
    /// B is better).
    pub worse: f64,
    /// The verdict.
    pub status: Status,
}

type Key = (String, String, String);

fn group(records: &[Record]) -> BTreeMap<Key, (String, Vec<f64>)> {
    let mut out: BTreeMap<Key, (String, Vec<f64>)> = BTreeMap::new();
    for r in records {
        for m in &r.metrics {
            let key = (r.workload.clone(), r.mode.clone(), m.name.clone());
            out.entry(key).or_insert_with(|| (m.unit.clone(), Vec::new())).1.push(m.value);
        }
    }
    out
}

fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    (median(xs), q1, q3)
}

/// Compares two sets of records under `bounds`.
pub fn compare(a: &[Record], b: &[Record], bounds: &BTreeMap<String, Bound>) -> Vec<Row> {
    let (ga, gb) = (group(a), group(b));
    let mut rows = Vec::new();
    for (key, (unit, xa)) in &ga {
        let Some((_, xb)) = gb.get(key) else { continue };
        let (sa, sb) = (summary(xa), summary(xb));
        let (workload, mode, metric) = key.clone();
        let lower_is_better = bounds.get(&metric).is_none_or(|b| b.lower_is_better);
        let delta = if lower_is_better { sb.0 - sa.0 } else { sa.0 - sb.0 };
        let worse = if sa.0 != 0.0 { delta / sa.0.abs() } else { delta };
        let status = if metric == "failed_frac" {
            if sb.0 > sa.0 {
                Status::Regression
            } else {
                Status::Ok
            }
        } else if let Some(bound) = bounds.get(&metric) {
            let spread = |s: (f64, f64, f64)| (s.2 - s.1) / s.0.abs();
            // NaN spreads (a side with one run) fail this test too.
            let resolved = |s| spread(s) <= bound.share;
            if !(resolved(sa) && resolved(sb)) {
                Status::Unresolved
            } else if worse > bound.share {
                Status::Regression
            } else {
                Status::Ok
            }
        } else {
            Status::Info
        };
        rows.push(Row { workload, mode, metric, unit: unit.clone(), a: sa, b: sb, worse, status });
    }
    rows
}

/// Entry point of the `compare` subcommand; returns the exit code.
pub fn main(args: &[String]) -> u8 {
    let mut dirs = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => match it.next() {
                Some(p) => benchmark = p.clone(),
                None => return usage("--benchmark needs a path"),
            },
            other if other.starts_with("--") => return usage(&format!("unknown flag {other}")),
            dir => dirs.push(dir.to_string()),
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return usage("compare takes exactly two directories");
    };
    let loaded = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("cannot read {benchmark}: {e}"))
        .and_then(|t| bounds(&t))
        .and_then(|b| Ok((b, load_records(Path::new(dir_a))?, load_records(Path::new(dir_b))?)));
    let (bounds, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let rows = compare(&a, &b, &bounds);
    println!(
        "{:<13} {:<8} {:<34} {:>30} {:>30} {:>8}  status",
        "workload", "mode", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse"
    );
    // Set-up times are microseconds: small values get an exponent.
    let num =
        |v: f64| if v != 0.0 && v.abs() < 0.01 { format!("{v:.3e}") } else { format!("{v:.4}") };
    let fmt = |s: (f64, f64, f64)| format!("{} [{}, {}]", num(s.0), num(s.1), num(s.2));
    for r in &rows {
        let status = match r.status {
            Status::Ok => "ok",
            Status::Regression => "REGRESSION",
            Status::Unresolved => "unresolved",
            Status::Info => "-",
        };
        println!(
            "{:<13} {:<8} {:<34} {:>30} {:>30} {:>+7.1}%  {status}",
            r.workload,
            r.mode,
            format!("{} ({})", r.metric, r.unit),
            fmt(r.a),
            fmt(r.b),
            r.worse * 100.0
        );
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} records vs {}: {} regression(s), {} unresolved, {} ok",
        a.len(),
        b.len(),
        count(Status::Regression),
        count(Status::Unresolved),
        count(Status::Ok)
    );
    u8::from(count(Status::Regression) > 0)
}

fn usage(msg: &str) -> u8 {
    eprintln!("perfbench compare: {msg}\nusage: perfbench compare <dirA> <dirB> [--benchmark BENCHMARK.json]");
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn rec(pass_s: f64, failed: u64) -> Record {
        Record {
            workload: "gp_long".into(),
            seed: 1,
            mode: "run".into(),
            attempted: 10,
            failed,
            metrics: vec![
                Metric::new("pass_s", pass_s, "s"),
                Metric::new("probe", pass_s, "ms"),
                Metric::new("failed_frac", failed as f64 / 10.0, "ratio"),
            ],
        }
    }

    fn bounds_of(share: f64) -> BTreeMap<String, Bound> {
        BTreeMap::from([("pass_s".to_string(), Bound { lower_is_better: true, share })])
    }

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).map(|r| r.status).expect("row present")
    }

    #[test]
    fn flags_regressions_and_unresolved_spreads() {
        let a: Vec<Record> = [1.0, 1.01, 0.99, 1.0].iter().map(|&s| rec(s, 0)).collect();
        let slower: Vec<Record> = [1.2, 1.21, 1.19, 1.2].iter().map(|&s| rec(s, 0)).collect();
        let rows = compare(&a, &slower, &bounds_of(0.1));
        assert_eq!(status(&rows, "pass_s"), Status::Regression);
        assert_eq!(status(&rows, "probe"), Status::Info);
        assert_eq!(status(&compare(&a, &a, &bounds_of(0.1)), "pass_s"), Status::Ok);
        let noisy: Vec<Record> = [0.7, 1.3, 0.8, 1.2].iter().map(|&s| rec(s, 0)).collect();
        assert_eq!(status(&compare(&a, &noisy, &bounds_of(0.1)), "pass_s"), Status::Unresolved);
        let failing: Vec<Record> = [1.0, 1.0].iter().map(|&s| rec(s, 1)).collect();
        assert_eq!(
            status(&compare(&a, &failing, &bounds_of(0.1)), "failed_frac"),
            Status::Regression
        );
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the package");
        let b = bounds(&text).expect("parses");
        assert!(b["pass_s"].lower_is_better);
        assert!(!b["evals_per_s"].lower_is_better);
        assert!(b.values().all(|b| b.share > 0.0 && b.share <= 0.25));
    }
}
