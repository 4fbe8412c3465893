//! Cross-run diff: align two runs by span name and metric key, flag
//! regressions with a noise-aware wall-time threshold while holding
//! deterministic quantities to exact equality.
//!
//! Two kinds of key, two rules:
//!
//! * **Deterministic counts** — counters (`exec.cache.hits`,
//!   `sim.evals`, …), gauges, span counts, and cell counts are
//!   byte-identical across runs of the same configuration (the PR 1–3
//!   determinism contract). *Any* delta is flagged: it means the two
//!   runs did different work, and no timing comparison is meaningful
//!   until that is explained. The fault-injection counters
//!   (`exec.retries`, `exec.retry_exhausted`, `exec.panics_contained`,
//!   `sim.faults.*`) fall under this exact rule too: fault schedules are
//!   pure functions of the plan seed, so a chaos run's retry count is as
//!   deterministic as its eval count. Counters whose name ends in
//!   `_nanos` or `_secs` (`exec.worker.busy_nanos`, …) accumulate wall
//!   clock, not work, and are compared under the wall-time rule instead.
//! * **Wall times** — compared on the min-of-N statistic (fastest of N
//!   observations; the minimum of a deterministic code path estimates
//!   its true cost, while means and maxima absorb scheduler noise) and
//!   flagged only beyond a relative threshold *and* an absolute floor,
//!   so nanosecond-scale spans cannot trip percentage alarms.

use crate::summary::RunSummary;
use std::collections::BTreeSet;

/// Noise model for wall-time comparisons.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Relative regression threshold on min-of-N wall times (0.30 =
    /// flag when 30% slower).
    pub rel_threshold: f64,
    /// Ignore wall-time deltas smaller than this many nanoseconds even
    /// when the relative threshold is exceeded.
    pub abs_floor_nanos: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { rel_threshold: 0.30, abs_floor_nanos: 5_000_000 }
    }
}

/// How a metric's cross-run delta is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Deterministic work count: any delta means the runs did different
    /// work, and is flagged.
    Exact,
    /// Noisy measurement (wall-time accumulator, allocator state):
    /// compared under the threshold rule.
    Noise,
}

/// The workspace metric schema: every counter and gauge the tree emits,
/// with the diff rule it is held to. Names not listed here fall back to
/// the naming-convention heuristics below (`_nanos`/`_secs` counters and
/// `mem.` gauges are noisy), so the table is an explicit pin, not a new
/// behavior — entry assignments match what the heuristics decide.
///
/// Keep one entry per line: the `dbtune-lint` schema pass (rule family
/// S) parses this table textually and cross-checks it against the
/// emitters in code and the tables in `docs/observability.md`.
pub const METRIC_POLICY: &[(&str, MetricPolicy)] = &[
    ("exec.cache.entries", MetricPolicy::Exact),
    ("exec.cache.hits", MetricPolicy::Exact),
    ("exec.cache.misses", MetricPolicy::Exact),
    ("exec.cells", MetricPolicy::Exact),
    ("exec.panics_contained", MetricPolicy::Exact),
    ("exec.queue.depth", MetricPolicy::Exact),
    ("exec.retries", MetricPolicy::Exact),
    ("exec.retry_exhausted", MetricPolicy::Exact),
    ("exec.worker.busy_nanos", MetricPolicy::Noise),
    ("exec.worker.idle_nanos", MetricPolicy::Noise),
    ("exec.worker.steal_nanos", MetricPolicy::Noise),
    ("mem.alloc_bytes", MetricPolicy::Exact),
    ("mem.alloc_count", MetricPolicy::Exact),
    ("mem.allocs_per_eval", MetricPolicy::Noise),
    ("mem.live_bytes", MetricPolicy::Noise),
    ("mem.peak_bytes", MetricPolicy::Noise),
    ("sim.crashes", MetricPolicy::Exact),
    ("sim.evals", MetricPolicy::Exact),
    ("sim.faults.crash", MetricPolicy::Exact),
    ("sim.faults.noise", MetricPolicy::Exact),
    ("sim.faults.stall", MetricPolicy::Exact),
    ("sim.faults.timeout", MetricPolicy::Exact),
    ("tuner.quarantine.rejections", MetricPolicy::Exact),
];

/// Looks a metric name up in [`METRIC_POLICY`].
pub fn policy_for(key: &str) -> Option<MetricPolicy> {
    METRIC_POLICY.iter().find(|(k, _)| *k == key).map(|&(_, p)| p)
}

/// What a diff entry compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Deterministic count (exact-equality rule).
    Count,
    /// Wall time (threshold rule).
    WallTime,
}

/// One aligned key's comparison.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Aligned key, prefixed by namespace (`counter:`, `gauge:`,
    /// `mem.allocs:`, `mem.bytes:`, `span.count:`, `span.min:`), or a
    /// bare `cells` / `diag.records`.
    pub key: String,
    /// Comparison rule applied.
    pub kind: DiffKind,
    /// Baseline value (`None` = key only in current run).
    pub base: Option<f64>,
    /// Current value (`None` = key only in baseline).
    pub cur: Option<f64>,
    /// Whether this entry violates its rule.
    pub flagged: bool,
    /// Human-readable explanation when flagged.
    pub note: String,
}

impl DiffEntry {
    /// Relative change current vs baseline, when both sides exist and
    /// the baseline is nonzero.
    pub fn rel_delta(&self) -> Option<f64> {
        match (self.base, self.cur) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b),
            _ => None,
        }
    }
}

fn exact_entry(key: String, base: Option<f64>, cur: Option<f64>) -> DiffEntry {
    let (flagged, note) = match (base, cur) {
        (Some(b), Some(c)) if b == c => (false, String::new()),
        (Some(b), Some(c)) => {
            (true, format!("deterministic value changed: {b} -> {c} (runs did different work)"))
        }
        (Some(_), None) => (true, "key missing from current run".to_string()),
        (None, Some(_)) => (true, "key missing from baseline".to_string()),
        (None, None) => (false, String::new()),
    };
    DiffEntry { key, kind: DiffKind::Count, base, cur, flagged, note }
}

fn wall_entry(key: String, base: Option<f64>, cur: Option<f64>, cfg: &DiffConfig) -> DiffEntry {
    noisy_entry(key, base, cur, cfg, "ns")
}

/// The threshold rule for any noisy measurement: wall times (`unit` =
/// "ns") and memory quantities (peak/live bytes, allocation totals),
/// which jitter with thread scheduling and allocator internals the same
/// way wall clock jitters with the scheduler. `abs_floor_nanos` doubles
/// as the floor in the measurement's own unit (5e6 ≈ 5 ms ≈ 5 MB — both
/// are sensible "too small to care" scales).
fn noisy_entry(
    key: String,
    base: Option<f64>,
    cur: Option<f64>,
    cfg: &DiffConfig,
    unit: &str,
) -> DiffEntry {
    let (flagged, note) = match (base, cur) {
        (Some(b), Some(c)) => {
            let regressed =
                c > b * (1.0 + cfg.rel_threshold) && (c - b) > cfg.abs_floor_nanos as f64;
            if regressed {
                let pct = if b > 0.0 { (c - b) / b * 100.0 } else { f64::INFINITY };
                let verb = if unit == "ns" { "slower" } else { "grew" };
                (true, format!("{verb} by {pct:.1}% (min-of-N {b:.0} -> {c:.0} {unit})"))
            } else {
                (false, String::new())
            }
        }
        // Presence changes are reported through the count entries; a
        // one-sided measurement alone is not flagged again.
        _ => (false, String::new()),
    };
    DiffEntry { key, kind: DiffKind::WallTime, base, cur, flagged, note }
}

fn union_keys<'a, V>(
    a: &'a std::collections::BTreeMap<String, V>,
    b: &'a std::collections::BTreeMap<String, V>,
) -> BTreeSet<&'a str> {
    a.keys().map(String::as_str).chain(b.keys().map(String::as_str)).collect()
}

/// Diffs two journal-derived run summaries. Entries come out grouped by
/// key namespace in alignment order; callers sort or filter as needed.
pub fn diff_summaries(base: &RunSummary, cur: &RunSummary, cfg: &DiffConfig) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    for key in union_keys(&base.counters, &cur.counters) {
        let (b, c) =
            (base.counters.get(key).map(|&v| v as f64), cur.counters.get(key).map(|&v| v as f64));
        // Counters that accumulate wall clock (`exec.worker.busy_nanos`
        // and friends) are measurements, not counts — they get the
        // noise rule. Everything else counts work and must be exact.
        // Known names resolve through METRIC_POLICY; unknown names fall
        // back to the `_nanos`/`_secs` naming convention.
        let noisy = match policy_for(key) {
            Some(p) => p == MetricPolicy::Noise,
            None => key.ends_with("_nanos") || key.ends_with("_secs"),
        };
        if noisy {
            out.push(wall_entry(format!("counter:{key}"), b, c, cfg));
        } else {
            out.push(exact_entry(format!("counter:{key}"), b, c));
        }
    }
    for key in union_keys(&base.gauges, &cur.gauges) {
        let (b, c) =
            (base.gauges.get(key).map(|&v| v as f64), cur.gauges.get(key).map(|&v| v as f64));
        // Memory gauges (`mem.peak_bytes`, `mem.live_bytes`,
        // `mem.allocs_per_eval`) are measurements of allocator state,
        // not work counts: peak depends on cross-thread overlap and
        // live on flush timing, so they get the threshold rule. Known
        // names resolve through METRIC_POLICY; unknown names fall back
        // to the `mem.` prefix convention.
        let noisy = match policy_for(key) {
            Some(p) => p == MetricPolicy::Noise,
            None => key.starts_with("mem."),
        };
        if noisy {
            let unit = if key.contains("bytes") { "bytes" } else { "allocs" };
            out.push(noisy_entry(format!("gauge:{key}"), b, c, cfg, unit));
        } else {
            out.push(exact_entry(format!("gauge:{key}"), b, c));
        }
    }
    // Span-attributed allocation columns: deterministic work counts
    // (the code path fully determines what it allocates), so exact.
    for key in union_keys(&base.mem, &cur.mem) {
        let (b, c) = (base.mem.get(key), cur.mem.get(key));
        out.push(exact_entry(
            format!("mem.allocs:{key}"),
            b.map(|m| m.total_allocs as f64),
            c.map(|m| m.total_allocs as f64),
        ));
        out.push(exact_entry(
            format!("mem.bytes:{key}"),
            b.map(|m| m.total_bytes as f64),
            c.map(|m| m.total_bytes as f64),
        ));
    }
    out.push(exact_entry("cells".to_string(), Some(base.cells as f64), Some(cur.cells as f64)));
    out.push(exact_entry(
        "diag.records".to_string(),
        Some(base.diag_records as f64),
        Some(cur.diag_records as f64),
    ));
    for key in union_keys(&base.spans, &cur.spans) {
        let (b, c) = (base.spans.get(key), cur.spans.get(key));
        out.push(exact_entry(
            format!("span.count:{key}"),
            b.map(|s| s.count as f64),
            c.map(|s| s.count as f64),
        ));
        out.push(wall_entry(
            format!("span.min:{key}"),
            b.map(|s| s.min_nanos as f64),
            c.map(|s| s.min_nanos as f64),
            cfg,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SpanSummary;

    fn summary(evals: u64, fit_min: u64, fit_count: u64) -> RunSummary {
        let mut s = RunSummary::default();
        s.counters.insert("sim.evals".into(), evals);
        s.spans.insert(
            "surrogate_fit".into(),
            SpanSummary {
                count: fit_count,
                total_nanos: fit_min * fit_count,
                min_nanos: fit_min,
                p50_nanos: fit_min,
                p99_nanos: fit_min,
            },
        );
        s
    }

    #[test]
    fn metric_policy_table_pins_the_naming_conventions() {
        // The table is an explicit pin of the heuristics, not an
        // override: a Noise entry must be a wall-time accumulator or an
        // allocator-state gauge by name, and vice versa — so adding a
        // mis-filed entry (or renaming a metric out of its convention)
        // fails here instead of silently changing diff behavior.
        for (key, policy) in METRIC_POLICY {
            let counter_noise = key.ends_with("_nanos") || key.ends_with("_secs");
            let gauge_noise = key.starts_with("mem.") && !key.contains("alloc_");
            let expect = if counter_noise || gauge_noise {
                MetricPolicy::Noise
            } else {
                MetricPolicy::Exact
            };
            assert_eq!(*policy, expect, "policy for {key} contradicts its naming convention");
        }
        assert_eq!(policy_for("sim.evals"), Some(MetricPolicy::Exact));
        assert_eq!(policy_for("exec.worker.busy_nanos"), Some(MetricPolicy::Noise));
        assert_eq!(policy_for("mem.peak_bytes"), Some(MetricPolicy::Noise));
        assert_eq!(policy_for("no.such.metric"), None);
    }

    #[test]
    fn identical_runs_produce_zero_flags() {
        let a = summary(100, 50_000_000, 10);
        let entries = diff_summaries(&a, &a.clone(), &DiffConfig::default());
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| !e.flagged), "{entries:#?}");
    }

    #[test]
    fn wall_clock_counters_use_the_noise_rule_not_exactness() {
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        a.counters.insert("exec.worker.busy_nanos".into(), 13_167_771);
        b.counters.insert("exec.worker.busy_nanos".into(), 14_533_586);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let busy = entries
            .iter()
            .find(|e| e.key == "counter:exec.worker.busy_nanos")
            .expect("busy counter in diff");
        assert_eq!(busy.kind, DiffKind::WallTime);
        assert!(!busy.flagged, "10% jitter on a timing counter is noise: {busy:?}");

        // But a timing counter that regresses past threshold+floor flags.
        b.counters.insert("exec.worker.busy_nanos".into(), 40_000_000);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let busy = entries
            .iter()
            .find(|e| e.key == "counter:exec.worker.busy_nanos")
            .expect("busy counter in diff");
        assert!(busy.flagged, "{busy:?}");
    }

    #[test]
    fn any_counter_delta_is_flagged_exactly() {
        let a = summary(100, 50_000_000, 10);
        let b = summary(101, 50_000_000, 10);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let counter =
            entries.iter().find(|e| e.key == "counter:sim.evals").expect("evals counter in diff");
        assert!(counter.flagged, "one extra eval must flag: deterministic");
        assert_eq!(counter.kind, DiffKind::Count);
    }

    #[test]
    fn fault_counters_are_held_to_exact_equality() {
        // Pin the rule assignment: retry/fault counters are derived from
        // seeded schedules, so they diff as deterministic counts — a
        // drifting retry count means the chaos run did different work.
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        for key in
            ["exec.retries", "exec.retry_exhausted", "exec.panics_contained", "sim.faults.timeout"]
        {
            a.counters.insert(key.into(), 7);
            b.counters.insert(key.into(), 8);
        }
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        for key in
            ["exec.retries", "exec.retry_exhausted", "exec.panics_contained", "sim.faults.timeout"]
        {
            let e = entries
                .iter()
                .find(|e| e.key == format!("counter:{key}"))
                .expect("fault counter in diff");
            assert_eq!(e.kind, DiffKind::Count, "{key} must use the exact-equality rule");
            assert!(e.flagged, "a one-off delta on {key} must flag: {e:?}");
        }
    }

    #[test]
    fn slowed_span_is_flagged_and_fast_jitter_is_not() {
        let base = summary(100, 50_000_000, 10);
        // 2x slower: well past the 30% threshold and the 5ms floor.
        let slowed = summary(100, 100_000_000, 10);
        let cfg = DiffConfig::default();
        let entries = diff_summaries(&base, &slowed, &cfg);
        let span = entries
            .iter()
            .find(|e| e.key == "span.min:surrogate_fit")
            .expect("surrogate_fit span in diff");
        assert!(span.flagged, "{span:?}");
        assert!(span.note.contains("slower by 100.0%"), "{}", span.note);
        assert!((span.rel_delta().expect("baseline is nonzero") - 1.0).abs() < 1e-9);

        // 20% slower: below threshold — noise.
        let jitter = summary(100, 60_000_000, 10);
        let entries = diff_summaries(&base, &jitter, &cfg);
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");

        // 2x slower but tiny in absolute terms: under the floor — noise.
        let tiny_base = summary(100, 1_000, 10);
        let tiny_slow = summary(100, 2_000, 10);
        let entries = diff_summaries(&tiny_base, &tiny_slow, &cfg);
        let span = entries
            .iter()
            .find(|e| e.key == "span.min:surrogate_fit")
            .expect("surrogate_fit span in diff");
        assert!(!span.flagged, "sub-floor deltas are noise: {span:?}");
    }

    #[test]
    fn speedups_are_never_flagged() {
        let base = summary(100, 100_000_000, 10);
        let faster = summary(100, 10_000_000, 10);
        let entries = diff_summaries(&base, &faster, &DiffConfig::default());
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");
    }

    #[test]
    fn one_sided_counters_flag_in_both_directions() {
        // A counter present in only one run means the runs did different
        // work — flagged no matter which side it appears on.
        let mut a = summary(100, 50_000_000, 10);
        let b = summary(100, 50_000_000, 10);
        a.counters.insert("exec.retry_exhausted".into(), 3);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let only_base = entries
            .iter()
            .find(|e| e.key == "counter:exec.retry_exhausted")
            .expect("one-sided counter in diff");
        assert!(only_base.flagged);
        assert_eq!(only_base.kind, DiffKind::Count);
        assert!(only_base.note.contains("missing from current"), "{}", only_base.note);
        assert_eq!(only_base.rel_delta(), None, "one-sided entries have no relative delta");

        let entries = diff_summaries(&b, &a, &DiffConfig::default());
        let only_cur = entries
            .iter()
            .find(|e| e.key == "counter:exec.retry_exhausted")
            .expect("one-sided counter in diff");
        assert!(only_cur.flagged);
        assert!(only_cur.note.contains("missing from baseline"), "{}", only_cur.note);
    }

    #[test]
    fn diag_record_counts_diff_exactly() {
        let a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        b.diag_records = 40;
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let diag =
            entries.iter().find(|e| e.key == "diag.records").expect("diag.records entry in diff");
        assert!(diag.flagged, "diag record count is a control-flow count: exact");
        assert_eq!(diag.kind, DiffKind::Count);

        let entries = diff_summaries(&a, &a.clone(), &DiffConfig::default());
        let diag =
            entries.iter().find(|e| e.key == "diag.records").expect("diag.records entry in diff");
        assert!(!diag.flagged);
    }

    #[test]
    fn empty_summaries_diff_clean() {
        // Two freshly-defaulted summaries (e.g. from empty journals)
        // align on the structural keys only and flag nothing.
        let entries =
            diff_summaries(&RunSummary::default(), &RunSummary::default(), &DiffConfig::default());
        assert!(entries.iter().any(|e| e.key == "cells"));
        assert!(entries.iter().any(|e| e.key == "diag.records"));
        assert!(!entries.iter().any(|e| e.flagged), "{entries:#?}");
    }

    #[test]
    fn one_sided_keys_flag_via_count_not_walltime() {
        let mut a = summary(100, 50_000_000, 10);
        let b = summary(100, 50_000_000, 10);
        a.spans.insert(
            "only_in_base".into(),
            SpanSummary { count: 1, total_nanos: 1, min_nanos: 1, p50_nanos: 1, p99_nanos: 1 },
        );
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let count = entries
            .iter()
            .find(|e| e.key == "span.count:only_in_base")
            .expect("count entry for base-only span");
        assert!(count.flagged);
        assert!(count.note.contains("missing from current"));
        let wall = entries
            .iter()
            .find(|e| e.key == "span.min:only_in_base")
            .expect("wall entry for base-only span");
        assert!(!wall.flagged, "presence is reported once, via the count");
    }

    #[test]
    fn mem_columns_are_exact_for_counts_and_thresholded_for_peak() {
        use crate::summary::MemSummary;
        let mut a = summary(100, 50_000_000, 10);
        let mut b = summary(100, 50_000_000, 10);
        a.mem.insert(
            "surrogate_fit".into(),
            MemSummary {
                closes: 10,
                self_bytes: 1_000,
                self_allocs: 5,
                total_bytes: 2_000,
                total_allocs: 9,
            },
        );
        b.mem.insert(
            "surrogate_fit".into(),
            MemSummary {
                closes: 10,
                self_bytes: 1_000,
                self_allocs: 5,
                total_bytes: 2_000,
                total_allocs: 10, // one extra allocation
            },
        );
        a.gauges.insert("mem.peak_bytes".into(), 100_000_000);
        b.gauges.insert("mem.peak_bytes".into(), 110_000_000); // 10%: noise
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let allocs = entries
            .iter()
            .find(|e| e.key == "mem.allocs:surrogate_fit")
            .expect("mem allocs entry in diff");
        assert_eq!(allocs.kind, DiffKind::Count);
        assert!(allocs.flagged, "a single-allocation delta is deterministic drift: {allocs:?}");
        let peak =
            entries.iter().find(|e| e.key == "gauge:mem.peak_bytes").expect("peak entry in diff");
        assert_eq!(peak.kind, DiffKind::WallTime, "peak uses the threshold rule");
        assert!(!peak.flagged, "10% peak jitter is noise: {peak:?}");

        // Peak growth past threshold+floor flags, with byte units.
        b.gauges.insert("mem.peak_bytes".into(), 200_000_000);
        let entries = diff_summaries(&a, &b, &DiffConfig::default());
        let peak =
            entries.iter().find(|e| e.key == "gauge:mem.peak_bytes").expect("peak entry in diff");
        assert!(peak.flagged, "{peak:?}");
        assert!(peak.note.contains("bytes"), "{}", peak.note);
    }
}
