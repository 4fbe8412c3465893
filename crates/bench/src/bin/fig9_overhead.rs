#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 9: algorithm overhead — the wall-clock time each optimizer
//! spends choosing the next configuration, as the iteration count grows
//! (JOB, medium space), decomposed into surrogate-fit, acquisition, and
//! bookkeeping phases. The global GP methods show the cubic blow-up; the
//! forest/heuristic methods stay flat.
//!
//! Arguments: `samples=6250 iters=400 workers= cache=on trace=` (paper:
//! 6250/400). Sessions run on the parallel executor. The `"results"`
//! payload carries only deterministic fields (optimizer, improvement);
//! the wall-clock phase series live in the `"telemetry"` block under
//! `"driver"`, where non-reproducible numbers belong.

use dbtune_bench::{
    full_pool, print_exec_summary, print_table, run_tuning_grid, save_json_with_telemetry,
    top_k_knobs, ExpArgs, GridOpts, TuningCell,
};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use serde::{Number, Serialize, Value};

/// Deterministic per-optimizer summary: byte-identical across runs,
/// worker counts, and trace on/off.
#[derive(Serialize)]
struct Row {
    optimizer: String,
    best_improvement: f64,
}

/// Wall-clock phase decomposition for one optimizer. Lives in the
/// `"telemetry"."driver"` block, never in `"results"`.
struct PhaseSeries {
    optimizer: String,
    overhead_secs: Vec<f64>,
    fit_secs: f64,
    acq_secs: f64,
    book_secs: f64,
}

impl PhaseSeries {
    fn total(&self) -> f64 {
        self.overhead_secs.iter().sum()
    }

    fn to_value(&self) -> Value {
        let series = self.overhead_secs.iter().map(|&s| Value::Number(Number::Float(s))).collect();
        Value::Object(vec![
            ("optimizer".to_string(), Value::String(self.optimizer.clone())),
            ("overhead_secs".to_string(), Value::Array(series)),
            ("surrogate_fit_secs".to_string(), Value::Number(Number::Float(self.fit_secs))),
            ("acquisition_secs".to_string(), Value::Number(Number::Float(self.acq_secs))),
            ("bookkeeping_secs".to_string(), Value::Number(Number::Float(self.book_secs))),
            ("total_secs".to_string(), Value::Number(Number::Float(self.total()))),
        ])
    }
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse();
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 400);

    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();
    let pool = full_pool(Workload::Job, samples, 7);
    let selected = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 20, 11);

    let opts = GridOpts::from_args("fig9_overhead", &args, 900);
    let grid: Vec<TuningCell> = OptimizerKind::PAPER
        .iter()
        .map(|&opt| TuningCell {
            workload: Workload::Job,
            selected: selected.clone(),
            opt_kind: opt,
            iters,
            seed: 900,
        })
        .collect();
    let (results, exec) = run_tuning_grid(&grid, &opts);

    let mut rows: Vec<Row> = Vec::new();
    let mut phase_series: Vec<PhaseSeries> = Vec::new();
    for (opt, r) in OptimizerKind::PAPER.iter().zip(results) {
        let (fit, acq, book) = r.phases.overhead_totals();
        eprintln!(
            "[{}] overhead {:.2}s = fit {:.2}s + acq {:.2}s + bookkeeping {:.2}s",
            opt.label(),
            fit + acq + book,
            fit,
            acq,
            book
        );
        rows.push(Row {
            optimizer: opt.label().to_string(),
            best_improvement: r.best_improvement(),
        });
        phase_series.push(PhaseSeries {
            optimizer: opt.label().to_string(),
            overhead_secs: r.overhead_secs,
            fit_secs: fit,
            acq_secs: acq,
            book_secs: book,
        });
    }

    println!("\n== Figure 9: per-iteration algorithm overhead (seconds) ==");
    let checkpoints: Vec<usize> =
        [50usize, 100, 200, 300, 400].iter().copied().filter(|&c| c <= iters).collect();
    let table_rows: Vec<Vec<String>> = phase_series
        .iter()
        .map(|s| {
            let mut row = vec![s.optimizer.clone()];
            for &c in &checkpoints {
                // Average over a small window ending at the checkpoint to
                // smooth scheduler jitter; skip windows the (possibly
                // short) series cannot fill.
                let lo = c.saturating_sub(5);
                let hi = c.min(s.overhead_secs.len());
                if lo >= hi {
                    row.push("-".to_string());
                    continue;
                }
                let window = &s.overhead_secs[lo..hi];
                row.push(format!("{:.4}", dbtune_linalg::stats::mean(window)));
            }
            row.push(format!("{:.2}", s.total()));
            row
        })
        .collect();
    let headers: Vec<String> = std::iter::once("Optimizer".to_string())
        .chain(checkpoints.iter().map(|c| format!("@iter {c}")))
        .chain(std::iter::once("total (s)".to_string()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &table_rows);

    println!("\n== Figure 9: overhead decomposition by phase (seconds) ==");
    let phase_rows: Vec<Vec<String>> = phase_series
        .iter()
        .map(|s| {
            vec![
                s.optimizer.clone(),
                format!("{:.2}", s.fit_secs),
                format!("{:.2}", s.acq_secs),
                format!("{:.2}", s.book_secs),
                format!("{:.2}", s.total()),
            ]
        })
        .collect();
    print_table(
        &["Optimizer", "surrogate fit", "acquisition", "bookkeeping", "total"],
        &phase_rows,
    );

    print_exec_summary(&exec);
    let driver = Value::Object(vec![(
        "phase_series".to_string(),
        Value::Array(phase_series.iter().map(PhaseSeries::to_value).collect()),
    )]);
    save_json_with_telemetry("fig9_overhead", &rows, &exec, Some(driver));
}
