#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 5: performance improvement and tuning cost as the number of
//! tuned knobs grows (SHAP ranking, vanilla BO, JOB & SYSBENCH).
//!
//! "Tuning cost" is the iteration at which the best configuration of the
//! session was first found — the paper's definition.
//!
//! Arguments: `samples=6250 iters=240 seeds=1 workers= cache=on`
//! (paper: 6250/600/3). Sessions run on the parallel executor; nested
//! knob sets (top-5 ⊂ top-10 ⊂ …) revisit configurations, which the
//! shared cache deduplicates.

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, run_tuning_grid, save_json_with_exec,
    top_k_knobs, ExpArgs, GridOpts, TuningCell,
};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    workload: String,
    n_knobs: usize,
    median_improvement: f64,
    median_cost_iters: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "iters", "seeds"]);
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 240);
    let seeds = args.get_size("seeds", 1);

    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();
    let knob_counts = [5usize, 10, 20, 40, 80, 197];

    let opts = GridOpts::from_args("fig5_num_knobs", &args, 500);

    let mut grid: Vec<TuningCell> = Vec::new();
    let mut scenarios: Vec<(Workload, usize)> = Vec::new();
    for &wl in &[Workload::Job, Workload::Sysbench] {
        let pool = full_pool(wl, samples, 7);
        let full_rank = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 197, 11);
        for &k in &knob_counts {
            scenarios.push((wl, k));
            for s in 0..seeds {
                grid.push(TuningCell {
                    workload: wl,
                    selected: full_rank[..k].to_vec(),
                    opt_kind: OptimizerKind::VanillaBo,
                    iters,
                    seed: 500 + s as u64,
                });
            }
        }
    }
    let (results, exec) = run_tuning_grid(&grid, &opts);

    let mut points: Vec<Point> = Vec::new();
    for ((wl, k), chunk) in scenarios.iter().zip(results.chunks(seeds)) {
        let improvements: Vec<f64> = chunk.iter().map(|r| r.best_improvement()).collect();
        let costs: Vec<f64> = chunk.iter().map(|r| r.iterations_to_best() as f64).collect();
        let point = Point {
            workload: wl.name().to_string(),
            n_knobs: *k,
            median_improvement: dbtune_bench::median(&improvements),
            median_cost_iters: dbtune_bench::median(&costs),
        };
        eprintln!(
            "[{} k={}] improvement {}, cost {:.0} iters",
            wl.name(),
            k,
            pct(point.median_improvement),
            point.median_cost_iters
        );
        points.push(point);
    }

    for &wl in &[Workload::Job, Workload::Sysbench] {
        println!("\n== Figure 5 ({}): improvement & tuning cost vs #knobs ==", wl.name());
        let rows: Vec<Vec<String>> = points
            .iter()
            .filter(|p| p.workload == wl.name())
            .map(|p| {
                vec![
                    p.n_knobs.to_string(),
                    pct(p.median_improvement),
                    format!("{:.0}", p.median_cost_iters),
                ]
            })
            .collect();
        print_table(&["#knobs", "Median improvement", "Tuning cost (iters)"], &rows);
    }

    print_exec_summary(&exec);
    save_json_with_exec("fig5_num_knobs", &points, &exec);
}
