//! Shared definition of the optimizer-quality baseline: the fixed
//! optimizer × workload matrix the `quality_baseline` driver runs, and
//! the pure journal → `"results"` fold both that driver and the
//! `observer_inertness` suite use.
//!
//! The quality artifact (`BENCH_quality.json`) pins *how well* each
//! optimizer converges — final incumbent, simple and cumulative regret
//! against the workload's estimated optimum, best-so-far checkpoints,
//! and (for model-based optimizers) surrogate calibration. Everything
//! in the `"results"` block is a pure function of the diag records in
//! the journal, which are themselves deterministic, so the block is
//! byte-identical across repeats, worker counts, and machines.

use crate::TuningCell;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::Workload;
use dbtune_diag::{calibration, extract_records, group_sessions, summarize_session, Calibration};
use dbtune_trace::JournalData;
use serde::{Number, Value};

/// The fixed quality matrix: every Table 3 optimizer on one
/// latency-oriented workload (JOB) and one throughput-oriented workload
/// (Sysbench), so the ranking table exercises both score orientations.
/// Changing it invalidates the committed `BENCH_quality.json` — bump
/// with care and regenerate.
pub const MATRIX: [(Workload, OptimizerKind); 14] = [
    (Workload::Job, OptimizerKind::VanillaBo),
    (Workload::Job, OptimizerKind::MixedKernelBo),
    (Workload::Job, OptimizerKind::Smac),
    (Workload::Job, OptimizerKind::Tpe),
    (Workload::Job, OptimizerKind::Turbo),
    (Workload::Job, OptimizerKind::Ddpg),
    (Workload::Job, OptimizerKind::Ga),
    (Workload::Sysbench, OptimizerKind::VanillaBo),
    (Workload::Sysbench, OptimizerKind::MixedKernelBo),
    (Workload::Sysbench, OptimizerKind::Smac),
    (Workload::Sysbench, OptimizerKind::Tpe),
    (Workload::Sysbench, OptimizerKind::Turbo),
    (Workload::Sysbench, OptimizerKind::Ddpg),
    (Workload::Sysbench, OptimizerKind::Ga),
];

/// Knob count per cell: the first 12 catalog indices, fixed (no
/// importance ranking — the baseline must not depend on a pool file).
pub const KNOBS: usize = 12;

/// Session seed shared by every cell.
pub const SEED: u64 = 42;

/// Default iterations per session — small enough for CI, long enough
/// that model-based optimizers leave their LHS phase well behind.
pub const DEFAULT_ITERS: usize = 30;

/// The diag session label `run_faulty_session_with_stats` assigns to a
/// matrix cell.
pub fn session_label(workload: Workload, opt_kind: OptimizerKind) -> String {
    crate::diag_session_label(opt_kind, workload, KNOBS, SEED)
}

/// The matrix as grid cells.
pub fn quality_cells(iters: usize) -> Vec<TuningCell> {
    MATRIX
        .iter()
        .map(|&(workload, opt_kind)| TuningCell {
            workload,
            selected: (0..KNOBS).collect(),
            opt_kind,
            iters,
            seed: SEED,
        })
        .collect()
}

fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// Floats enter the artifact as-is; NaN (an empty calibration fraction)
/// has no JSON spelling and becomes `null`.
fn float_or_null(v: f64) -> Value {
    if v.is_nan() {
        Value::Null
    } else {
        Value::Number(Number::Float(v))
    }
}

fn opt_float(v: Option<f64>) -> Value {
    v.map_or(Value::Null, float_or_null)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn calibration_value(cal: &Calibration) -> Value {
    obj(vec![
        ("n_scored", uint(cal.n_scored)),
        ("coverage_1s", float_or_null(cal.coverage_1s)),
        ("coverage_2s", float_or_null(cal.coverage_2s)),
        ("mean_nlpd", float_or_null(cal.mean_nlpd)),
        ("mean_abs_z", float_or_null(cal.mean_abs_z)),
        ("exploration_share", float_or_null(cal.exploration_share)),
        ("n_classified", uint(cal.n_classified)),
    ])
}

/// Folds a quality-matrix journal into the deterministic `"results"`
/// block of `BENCH_quality.json`: one summary object per matrix cell,
/// in fixed `MATRIX` order (journal order depends on worker scheduling;
/// the artifact must not). Errors when a cell's session is missing —
/// the journal was not taken with `diag=on`, or the matrix changed.
pub fn results_value(journal: &JournalData) -> Result<Value, String> {
    let records = extract_records(journal.events.iter().map(|l| &l.event));
    let groups = group_sessions(&records);
    let mut sessions = Vec::with_capacity(MATRIX.len());
    for &(workload, opt_kind) in &MATRIX {
        let label = session_label(workload, opt_kind);
        let (_, recs) = groups.iter().find(|(s, _)| *s == label).ok_or_else(|| {
            format!("journal has no diag records for session '{label}' (run with diag=on?)")
        })?;
        let summary = summarize_session(&label, recs);
        let cal = calibration(recs);
        let curve: Vec<Value> = summary
            .best_curve
            .iter()
            .map(|&(iter, best)| Value::Array(vec![uint(iter), float_or_null(best)]))
            .collect();
        sessions.push(obj(vec![
            ("session", Value::String(label)),
            ("workload", Value::String(workload.name().to_string())),
            ("optimizer", Value::String(opt_kind.label().to_string())),
            ("iters", uint(summary.iters)),
            ("n_ok", uint(summary.n_ok)),
            ("n_crash", uint(summary.n_crash)),
            ("n_fault", uint(summary.n_fault)),
            ("n_predicted", uint(summary.n_predicted)),
            ("final_best", float_or_null(summary.final_best)),
            ("final_regret", opt_float(summary.final_regret)),
            ("final_cum_regret", opt_float(summary.final_cum_regret)),
            ("mean_novelty", opt_float(summary.mean_novelty)),
            ("best_curve", Value::Array(curve)),
            ("calibration", cal.as_ref().map_or(Value::Null, calibration_value)),
        ]));
    }
    Ok(obj(vec![("sessions", Value::Array(sessions))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_seven_paper_optimizers_twice() {
        for kind in OptimizerKind::PAPER {
            let n = MATRIX.iter().filter(|&&(_, o)| o == kind).count();
            assert_eq!(n, 2, "{} must appear once per workload", kind.label());
        }
        assert_eq!(MATRIX.len(), 14);
    }

    #[test]
    fn session_labels_are_lint_clean_slugs() {
        for &(w, o) in &MATRIX {
            let label = session_label(w, o);
            assert!(
                label
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_./".contains(c)),
                "label '{label}' has characters that would not survive grouping"
            );
        }
    }

    #[test]
    fn results_value_requires_diag_records() {
        let journal = JournalData { source: "unit".into(), version: 1, events: Vec::new() };
        let err = results_value(&journal).expect_err("empty journal must be rejected");
        assert!(err.contains("diag=on"), "{err}");
    }
}
