#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 3 + Table 6 + the §5.2 headline number.
//!
//! For JOB and SYSBENCH, rank all 197 knobs with each of the five
//! importance measurements, tune the top-5 and top-20 sets with vanilla
//! BO and DDPG, and report the median performance improvement per cell
//! (Figure 3), the average rank of each measurement across all cells
//! (Table 6), and SHAP's average improvement over the traditional
//! measurements (the paper reports +38.02%).
//!
//! Arguments: `samples=6250 iters=120 seeds=2 workers= cache=on`
//! (paper: 6250/200/3). Tuning sessions run on the parallel executor;
//! measurements that select overlapping knob sets share cached
//! evaluations.

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, run_tuning_grid, save_json_with_exec,
    top_k_knobs, ExpArgs, GridOpts, TuningCell,
};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use dbtune_linalg::stats::average_rank;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    workload: String,
    measure: String,
    top_k: usize,
    optimizer: String,
    improvements: Vec<f64>,
    median_improvement: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "iters", "seeds"]);
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 120);
    let seeds = args.get_size("seeds", 2);

    let workloads = [Workload::Job, Workload::Sysbench];
    let optimizers = [OptimizerKind::VanillaBo, OptimizerKind::Ddpg];
    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();

    let opts = GridOpts::from_args("fig3_knob_importance", &args, 100);

    // Grid: (workload × measure × k × optimizer × seed), seed-major
    // innermost so each scenario's repeats are consecutive.
    let mut grid: Vec<TuningCell> = Vec::new();
    let mut scenarios: Vec<(Workload, MeasureKind, usize, OptimizerKind)> = Vec::new();
    for &wl in &workloads {
        let pool = full_pool(wl, samples, 7);
        for &measure in &MeasureKind::ALL {
            for &k in &[5usize, 20] {
                let selected = top_k_knobs(measure, &catalog, &pool, k, 11);
                eprintln!(
                    "[{} {} top-{}] knobs: {:?}",
                    wl.name(),
                    measure.label(),
                    k,
                    selected.iter().map(|&i| catalog.spec(i).name).collect::<Vec<_>>()
                );
                for &opt in &optimizers {
                    scenarios.push((wl, measure, k, opt));
                    for s in 0..seeds {
                        grid.push(TuningCell {
                            workload: wl,
                            selected: selected.clone(),
                            opt_kind: opt,
                            iters,
                            seed: 100 + s as u64,
                        });
                    }
                }
            }
        }
    }
    let (results, exec) = run_tuning_grid(&grid, &opts);

    let mut cells: Vec<Cell> = Vec::new();
    for ((wl, measure, k, opt), chunk) in scenarios.iter().zip(results.chunks(seeds)) {
        let improvements: Vec<f64> = chunk.iter().map(|r| r.best_improvement()).collect();
        let median_improvement = dbtune_bench::median(&improvements);
        eprintln!(
            "[{} {} top-{}] {} -> median improvement {}",
            wl.name(),
            measure.label(),
            k,
            opt.label(),
            pct(median_improvement)
        );
        cells.push(Cell {
            workload: wl.name().to_string(),
            measure: measure.label().to_string(),
            top_k: *k,
            optimizer: opt.label().to_string(),
            improvements,
            median_improvement,
        });
    }

    // ---- Figure 3: improvement per measurement, per scenario ----
    println!("\n== Figure 3: performance improvement when tuning top-5/top-20 knobs ==");
    for &wl in &workloads {
        for &k in &[5usize, 20] {
            for &opt in &optimizers {
                println!("\n-- {} / top-{} / {} --", wl.name(), k, opt.label());
                let rows: Vec<Vec<String>> = MeasureKind::ALL
                    .iter()
                    .map(|m| {
                        let cell = cells
                            .iter()
                            .find(|c| {
                                c.workload == wl.name()
                                    && c.measure == m.label()
                                    && c.top_k == k
                                    && c.optimizer == opt.label()
                            })
                            .expect("cell computed");
                        vec![m.label().to_string(), pct(cell.median_improvement)]
                    })
                    .collect();
                print_table(&["Measurement", "Median improvement"], &rows);
            }
        }
    }

    // ---- Table 6: overall average ranking ----
    // One "run" per (workload, k, optimizer) scenario; rank the five
    // measurements within each scenario by median improvement.
    let mut scenario_scores: Vec<Vec<f64>> = Vec::new();
    for &wl in &workloads {
        for &k in &[5usize, 20] {
            for &opt in &optimizers {
                let scores: Vec<f64> = MeasureKind::ALL
                    .iter()
                    .map(|m| {
                        cells
                            .iter()
                            .find(|c| {
                                c.workload == wl.name()
                                    && c.measure == m.label()
                                    && c.top_k == k
                                    && c.optimizer == opt.label()
                            })
                            .expect("cell computed")
                            .median_improvement
                    })
                    .collect();
                scenario_scores.push(scores);
            }
        }
    }
    let avg_rank = average_rank(&scenario_scores, true);
    println!("\n== Table 6: overall performance ranking (1 = best) ==");
    let rows: Vec<Vec<String>> = MeasureKind::ALL
        .iter()
        .zip(&avg_rank)
        .map(|(m, r)| vec![m.label().to_string(), format!("{r:.2}")])
        .collect();
    print_table(&["Measurement", "Avg rank"], &rows);

    // ---- §5.2 headline: SHAP vs traditional (Lasso, Gini) ----
    let mean_of = |label: &str| {
        let vals: Vec<f64> =
            cells.iter().filter(|c| c.measure == label).map(|c| c.median_improvement).collect();
        dbtune_linalg::stats::mean(&vals)
    };
    let shap = mean_of("SHAP");
    let trad = 0.5 * (mean_of("Lasso") + mean_of("Gini"));
    println!(
        "\nSHAP avg improvement {} vs traditional (Lasso/Gini) {} -> SHAP advantage {} (paper: +38.02%)",
        pct(shap),
        pct(trad),
        pct(shap - trad)
    );

    print_exec_summary(&exec);
    save_json_with_exec("fig3_table6", &cells, &exec);
}
