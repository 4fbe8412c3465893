//! Folding a journal into a per-name run summary — the unit the
//! cross-run [`crate::diff`] aligns.

use crate::JournalData;
use dbtune_obs::TraceEvent;
use std::collections::BTreeMap;

/// Aggregate of every close of one span name across the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Number of closes. Deterministic for a fixed driver configuration
    /// (the tuning loop's control flow never depends on wall clock), so
    /// the diff holds it to exact equality.
    pub count: u64,
    /// Summed duration.
    pub total_nanos: u64,
    /// Fastest close — the noise-robust "min-of-N" statistic wall-time
    /// comparisons use (the minimum over N repeats of a deterministic
    /// code path estimates its true cost; means and maxima absorb
    /// scheduler noise).
    pub min_nanos: u64,
    /// Exact median of the recorded durations.
    pub p50_nanos: u64,
    /// Exact 99th percentile of the recorded durations.
    pub p99_nanos: u64,
}

/// Aggregate of the allocation fields of every profiled close of one
/// span name across the run — allocation churn attributed to that span. Bytes and counts are
/// deterministic for a fixed configuration at `workers=1` (allocation
/// is a pure function of the code path), so the diff holds them to
/// exact equality like other work counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemSummary {
    /// Profiled closes folded in (spans opened while memprof was latched).
    pub closes: u64,
    /// Summed self-attributed bytes (total minus children).
    pub self_bytes: u64,
    /// Summed self-attributed allocations.
    pub self_allocs: u64,
    /// Summed total bytes allocated while the span was open.
    pub total_bytes: u64,
    /// Summed total allocations while the span was open.
    pub total_allocs: u64,
}

/// Everything in one run the diff can align by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Journal producer (driver name or "env").
    pub source: String,
    /// Final value per counter name (last `counter` event wins — flushes
    /// are cumulative).
    pub counters: BTreeMap<String, u64>,
    /// Final value per gauge name.
    pub gauges: BTreeMap<String, i64>,
    /// Per-span-name aggregates.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Per-span-name allocation aggregates (empty unless the run had
    /// memprof latched on).
    pub mem: BTreeMap<String, MemSummary>,
    /// Optimizer-quality records observed (`diag` events). This is a
    /// control-flow count — deterministic for a fixed driver
    /// configuration — so it rides along in the summary even though the
    /// record payloads themselves are analyzed by `dbtune-diag`.
    pub diag_records: u64,
}

/// The `q`-quantile of sorted `values`: the nearest-rank definition, so
/// the result is always one of the recorded values (the smallest whose
/// rank reaches `q` of the count).
fn quantile_sorted(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let total = values.len() as f64;
    let rank = ((q * total).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Folds a loaded journal into its [`RunSummary`].
pub fn summarize(journal: &JournalData) -> RunSummary {
    let mut durs: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut out = RunSummary { source: journal.source.clone(), ..Default::default() };
    for jl in &journal.events {
        match &jl.event {
            TraceEvent::Span { name, dur_nanos, mem, .. } => {
                durs.entry(name.clone()).or_default().push(*dur_nanos);
                if let Some(d) = mem {
                    let m = out.mem.entry(name.clone()).or_default();
                    m.closes += 1;
                    m.self_bytes += d.self_bytes;
                    m.self_allocs += d.self_allocs;
                    m.total_bytes += d.total_bytes;
                    m.total_allocs += d.total_allocs;
                }
            }
            TraceEvent::Counter { name, value, .. } => {
                out.counters.insert(name.clone(), *value);
            }
            TraceEvent::Gauge { name, value, .. } => {
                out.gauges.insert(name.clone(), *value);
            }
            TraceEvent::Diag { .. } => out.diag_records += 1,
            TraceEvent::Meta { .. } => {}
        }
    }
    for (name, mut values) in durs {
        values.sort_unstable();
        out.spans.insert(
            name,
            SpanSummary {
                count: values.len() as u64,
                total_nanos: values.iter().sum(),
                min_nanos: values[0],
                p50_nanos: quantile_sorted(&values, 0.50),
                p99_nanos: quantile_sorted(&values, 0.99),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JournalLine;
    use dbtune_obs::journal::SCHEMA_VERSION;
    use dbtune_obs::MemDelta;

    fn line(event: TraceEvent) -> JournalLine {
        JournalLine { line: 0, event }
    }

    fn span(name: &str, id: u64, dur: u64, thread: u64, mem: Option<MemDelta>) -> JournalLine {
        line(TraceEvent::Span {
            name: name.into(),
            id,
            parent_id: None,
            start_nanos: 0,
            dur_nanos: dur,
            thread,
            mem,
            seq: id,
        })
    }

    #[test]
    fn summarize_aggregates_spans_counters_and_cells() {
        let journal = JournalData {
            source: "unit".into(),
            version: SCHEMA_VERSION,
            events: vec![
                span("fit", 1, 30, 0, None),
                span("fit", 2, 10, 0, None),
                span("fit", 3, 20, 1, None),
                line(TraceEvent::Counter { name: "sim.evals".into(), value: 4, seq: 4 }),
                line(TraceEvent::Counter { name: "sim.evals".into(), value: 9, seq: 5 }),
                line(TraceEvent::Gauge { name: "exec.cache.entries".into(), value: 3, seq: 6 }),
                line(TraceEvent::Counter { name: "exec.cells".into(), value: 1, seq: 7 }),
                line(TraceEvent::Diag {
                    session: "bo/ro".into(),
                    iter: 0,
                    outcome: "ok".into(),
                    score_bits: 1.0f64.to_bits(),
                    best_bits: 1.0f64.to_bits(),
                    regret_bits: None,
                    cum_regret_bits: None,
                    novelty_bits: None,
                    pred_mean_bits: None,
                    pred_var_bits: None,
                    seq: 8,
                }),
            ],
        };
        let s = summarize(&journal);
        assert_eq!(s.source, "unit");
        assert_eq!(s.diag_records, 1);
        assert_eq!(s.counters["sim.evals"], 9, "last flush wins");
        assert_eq!(s.counters["exec.cells"], 1, "cells are counted by the executor's counter");
        assert_eq!(s.gauges["exec.cache.entries"], 3);
        let fit = &s.spans["fit"];
        assert_eq!(fit.count, 3);
        assert_eq!(fit.total_nanos, 60);
        assert_eq!(fit.min_nanos, 10);
        assert_eq!(fit.p50_nanos, 20);
        assert_eq!(fit.p99_nanos, 30);
        assert!(s.mem.is_empty(), "unprofiled spans add no allocation rows");
    }

    #[test]
    fn profiled_spans_aggregate_per_span_name() {
        let mem = |name: &str, id: u64, self_b: u64, self_a: u64, total_b: u64, total_a: u64| {
            let m = MemDelta {
                self_bytes: self_b,
                self_allocs: self_a,
                total_bytes: total_b,
                total_allocs: total_a,
            };
            span(name, id, 1, 0, Some(m))
        };
        let journal = JournalData {
            source: "unit".into(),
            version: SCHEMA_VERSION,
            events: vec![
                mem("fit", 1, 100, 2, 300, 5),
                mem("fit", 2, 50, 1, 60, 2),
                mem("acq", 3, 10, 1, 10, 1),
                span("acq", 4, 1, 0, None),
            ],
        };
        let s = summarize(&journal);
        let fit = &s.mem["fit"];
        assert_eq!(fit.closes, 2);
        assert_eq!(fit.self_bytes, 150);
        assert_eq!(fit.self_allocs, 3);
        assert_eq!(fit.total_bytes, 360);
        assert_eq!(fit.total_allocs, 7);
        assert_eq!(s.mem["acq"].closes, 1, "only profiled closes count");
        assert_eq!(s.spans["acq"].count, 2);
    }

    #[test]
    fn exact_quantiles_match_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&values, 0.50), 50);
        assert_eq!(quantile_sorted(&values, 0.99), 99);
        assert_eq!(quantile_sorted(&values, 0.0), 1);
        assert_eq!(quantile_sorted(&values, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.0), 7);
        assert_eq!(quantile_sorted(&[7], 1.0), 7);
    }
}
