//! Telemetry facade: re-exports the `dbtune-obs` substrate and adds the
//! serde glue that `dbtune-obs` itself (deliberately dependency-free)
//! cannot provide.
//!
//! Span taxonomy, metric names, and the JSONL schema are documented in
//! `docs/observability.md`. The one rule every instrumentation site obeys:
//! telemetry observes — wall-clock numbers stay out of `"results"`
//! payloads, and nothing here may influence a tuning decision.

pub use dbtune_obs::journal::{thread_ordinal, SCHEMA_VERSION};
pub use dbtune_obs::span::phase_secs;
pub use dbtune_obs::telemetry::TRACE_ENV;
pub use dbtune_obs::{
    collect_phases, global, span, Counter, Gauge, HistSnapshot, Journal, LogHistogram,
    MetricsSnapshot, PhaseRecord, Registry, SpanGuard, SpanSnapshot, SpanStats, SpanTable,
    Telemetry, TelemetryReport, TraceEvent,
};

use serde::{Number, Value};

fn secs(nanos: u64) -> Value {
    Value::Number(Number::Float(nanos as f64 * 1e-9))
}

/// Renders one span aggregate as a JSON object (stable field order).
fn span_value(name: &str, s: &SpanSnapshot) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::String(name.to_string())),
        ("count".to_string(), Value::Number(Number::PosInt(s.count))),
        ("total_secs".to_string(), secs(s.total_nanos)),
        ("min_secs".to_string(), secs(s.min_nanos)),
        ("max_secs".to_string(), secs(s.max_nanos)),
        ("p50_secs".to_string(), secs(s.p50_nanos)),
        ("p99_secs".to_string(), secs(s.p99_nanos)),
    ])
}

/// Renders a [`TelemetryReport`] as the `"telemetry"` JSON block every
/// driver embeds next to `"results"` and `"exec"`: spans and metrics,
/// each sorted by name. Wall-clock numbers live here *only* — keeping
/// them out of `"results"` is what makes traced and untraced runs
/// byte-identical where it matters.
pub fn report_value(report: &TelemetryReport) -> Value {
    let spans: Vec<Value> =
        report.spans.iter().map(|(name, snap)| span_value(name, snap)).collect();
    let counters: Vec<(String, Value)> = report
        .metrics
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::Number(Number::PosInt(*v))))
        .collect();
    let gauges: Vec<(String, Value)> = report
        .metrics
        .gauges
        .iter()
        .map(|(k, v)| {
            let n = if *v >= 0 { Number::PosInt(*v as u64) } else { Number::NegInt(*v) };
            (k.clone(), Value::Number(n))
        })
        .collect();
    let hists: Vec<(String, Value)> = report
        .metrics
        .hists
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                Value::Object(vec![
                    ("count".to_string(), Value::Number(Number::PosInt(h.count))),
                    ("p50_secs".to_string(), secs(h.p50)),
                    ("p99_secs".to_string(), secs(h.p99)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("spans".to_string(), Value::Array(spans)),
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
        ("histograms".to_string(), Value::Object(hists)),
    ])
}

/// [`report_value`] over the global instance.
pub fn global_report_value() -> Value {
    report_value(&global().report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_value_has_the_documented_shape() {
        let t = Telemetry::new();
        t.spans.stats("glue_test_span").record(2_000_000_000);
        t.metrics.counter("glue.count").add(7);
        t.metrics.gauge("glue.depth").set(-2);
        t.metrics.histogram("glue.hist").record(1_000);
        let v = report_value(&t.report());
        let obj = v.as_object().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["spans", "counters", "gauges", "histograms"]);

        let spans = obj[0].1.as_array().expect("spans array");
        let span = spans[0].as_object().expect("span object");
        assert_eq!(span[0].1.as_str(), Some("glue_test_span"));
        let total = span.iter().find(|(k, _)| k == "total_secs").expect("total_secs");
        assert!((total.1.as_f64().expect("float") - 2.0).abs() < 1e-9);

        let counters = obj[1].1.as_object().expect("counters");
        assert_eq!(counters[0].0, "glue.count");
        assert_eq!(counters[0].1.as_f64(), Some(7.0));
        let gauges = obj[2].1.as_object().expect("gauges");
        assert_eq!(gauges[0].1.as_f64(), Some(-2.0));
    }
}
