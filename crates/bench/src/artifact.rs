//! Shared artifact-loading helpers: the JSON files drivers write
//! (`results/*.json`, `BENCH_quality.json`) and the JSONL trace journals
//! they emit, loaded into the plain structs `dbtune-trace` analyzes.
//!
//! This is the JSON boundary the trace toolkit deliberately does not
//! cross: `dbtune-trace` stays std-only, and this module (which already
//! links the vendored `serde`/`serde_json` for driver output) does the
//! parsing.

use dbtune_trace::JournalData;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Field lookup in a parsed JSON object (the vendored `serde::Value`
/// keeps objects as insertion-ordered field lists, not maps).
pub fn lookup<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// [`lookup`] through a chain of keys (`["telemetry", "driver"]`).
pub fn lookup_path<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| lookup(v, key))
}

/// Reads and parses a JSON artifact, with the path in every error.
pub fn load_json_file(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
}

/// Reads and strictly loads a JSONL trace journal (see
/// [`dbtune_trace::load_journal_str`]), with the path in every error.
pub fn load_journal(path: &Path) -> Result<JournalData, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    dbtune_trace::load_journal_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The comparable content of one `BENCH_quality.json` artifact.
/// Everything here is deterministic, so the diff rule is exact equality
/// throughout — the fingerprint decides, the per-session fields exist to
/// name what moved.
#[derive(Clone, Debug, Default)]
pub struct QualityBaseline {
    /// Canonical serialization of the whole `results` block.
    pub results_fingerprint: String,
    /// Per-session headline numbers: label → (final best, final simple
    /// regret, final cumulative regret).
    pub sessions: BTreeMap<String, (f64, Option<f64>, Option<f64>)>,
}

fn opt_f64(value: Option<&Value>, what: &str) -> Result<Option<f64>, String> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| format!("{what} is not a number")),
    }
}

/// Parses a `BENCH_quality.json` value into the plain
/// [`QualityBaseline`] struct the `quality_baseline` driver compares.
pub fn parse_quality_baseline(value: &Value) -> Result<QualityBaseline, String> {
    let results = lookup(value, "results").ok_or("BENCH_quality.json has no \"results\"")?;
    let mut baseline = QualityBaseline {
        results_fingerprint: serde_json::to_string(results)
            .map_err(|e| format!("cannot serialize results fingerprint: {e:?}"))?,
        ..Default::default()
    };
    let sessions = lookup(results, "sessions")
        .and_then(Value::as_array)
        .ok_or("results has no \"sessions\" array")?;
    for (i, session) in sessions.iter().enumerate() {
        let label = lookup(session, "session")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("results.sessions[{i}].session missing"))?;
        let best = lookup(session, "final_best")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("results.sessions[{i}].final_best missing"))?;
        let regret = opt_f64(lookup(session, "final_regret"), "final_regret")?;
        let cum = opt_f64(lookup(session, "final_cum_regret"), "final_cum_regret")?;
        baseline.sessions.insert(label.to_string(), (best, regret, cum));
    }
    Ok(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUALITY_SAMPLE: &str = r#"{
        "schema": 1,
        "results": {
            "sessions": [
                {"session": "smac/job/s42", "final_best": -1.25,
                 "final_regret": 0.05, "final_cum_regret": 4.5},
                {"session": "random/job/s42", "final_best": -1.5,
                 "final_regret": null, "final_cum_regret": null}
            ]
        }
    }"#;

    #[test]
    fn parses_the_quality_shape() {
        let value: Value = serde_json::from_str(QUALITY_SAMPLE).expect("sample parses");
        let b = parse_quality_baseline(&value).expect("quality baseline parses");
        assert_eq!(b.sessions.len(), 2);
        assert_eq!(b.sessions["smac/job/s42"], (-1.25, Some(0.05), Some(4.5)));
        assert_eq!(b.sessions["random/job/s42"], (-1.5, None, None));
        assert!(b.results_fingerprint.contains("final_best"));
    }

    #[test]
    fn quality_errors_name_the_missing_piece() {
        let value: Value = serde_json::from_str(r#"{"schema": 1}"#).expect("parses");
        assert!(parse_quality_baseline(&value).expect_err("rejected").contains("results"));
        let value: Value = serde_json::from_str(r#"{"results": {}}"#).expect("parses");
        assert!(parse_quality_baseline(&value).expect_err("rejected").contains("sessions"));
        let value: Value = serde_json::from_str(r#"{"results": {"sessions": [{"session": "x"}]}}"#)
            .expect("parses");
        assert!(parse_quality_baseline(&value).expect_err("rejected").contains("final_best"));
    }

    #[test]
    fn lookup_path_walks_nested_objects() {
        let value: Value = serde_json::from_str(r#"{"exec": {"cache": {"hits": 12}}}"#)
            .expect("sample JSON parses");
        let hits = lookup_path(&value, &["exec", "cache", "hits"]);
        assert_eq!(hits.and_then(Value::as_u64), Some(12));
        assert!(lookup_path(&value, &["exec", "nope"]).is_none());
    }

    #[test]
    fn load_errors_name_the_file() {
        let dir = std::env::temp_dir().join("dbtune_artifact_load_errors");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let missing = dir.join("missing.json");
        let err = load_json_file(&missing).expect_err("missing file rejected");
        assert!(err.starts_with("cannot read") && err.contains("missing.json"), "{err}");
        let err = load_journal(&missing).expect_err("missing journal rejected");
        assert!(err.starts_with("cannot read") && err.contains("missing.json"), "{err}");

        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json at all\n").expect("write garbage");
        let err = load_json_file(&garbage).expect_err("garbage rejected");
        assert!(err.starts_with("cannot parse") && err.contains("garbage.json"), "{err}");
        let err = load_journal(&garbage).expect_err("garbage journal rejected");
        assert!(err.contains("garbage.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
