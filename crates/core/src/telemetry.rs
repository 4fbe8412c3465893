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
    collect_phases, global, span, Counter, Gauge, Journal, MetricsSnapshot, PhaseRecord, Registry,
    SpanGuard, Telemetry, TraceEvent,
};

use serde::{Number, Value};

/// Renders a metrics snapshot as the `"telemetry"` JSON block every
/// driver embeds next to `"results"` and `"exec"`: counters and gauges,
/// each sorted by name. Wall-clock numbers live here *only* — keeping
/// them out of `"results"` is what makes traced and untraced runs
/// byte-identical where it matters. Span timings are not repeated here:
/// they are in the trace journal, one record per span.
pub fn report_value(metrics: &MetricsSnapshot) -> Value {
    let counters: Vec<(String, Value)> = metrics
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::Number(Number::PosInt(*v))))
        .collect();
    let gauges: Vec<(String, Value)> = metrics
        .gauges
        .iter()
        .map(|(k, v)| {
            let n = if *v >= 0 { Number::PosInt(*v as u64) } else { Number::NegInt(*v) };
            (k.clone(), Value::Number(n))
        })
        .collect();
    Value::Object(vec![
        ("counters".to_string(), Value::Object(counters)),
        ("gauges".to_string(), Value::Object(gauges)),
    ])
}

/// [`report_value`] over the global instance.
pub fn global_report_value() -> Value {
    report_value(&global().metrics.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_value_has_the_documented_shape() {
        let t = Telemetry::new();
        t.metrics.counter("glue.count").add(7);
        t.metrics.gauge("glue.depth").set(-2);
        let v = report_value(&t.metrics.snapshot());
        let obj = v.as_object().expect("object");
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges"]);

        let counters = obj[0].1.as_object().expect("counters");
        assert_eq!(counters[0].0, "glue.count");
        assert_eq!(counters[0].1.as_f64(), Some(7.0));
        let gauges = obj[1].1.as_object().expect("gauges");
        assert_eq!(gauges[0].0, "glue.depth");
        assert_eq!(gauges[0].1.as_f64(), Some(-2.0));
    }

    #[test]
    fn global_report_value_reads_the_global_registry() {
        global().metrics.counter("glue.global_count").add(3);
        let v = global_report_value();
        let counters = v.as_object().expect("object")[0].1.as_object().expect("counters");
        let (_, value) =
            counters.iter().find(|(k, _)| k == "glue.global_count").expect("registered globally");
        assert_eq!(value.as_f64(), Some(3.0));
    }
}
