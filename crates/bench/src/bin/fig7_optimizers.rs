#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 7 + Table 7 + the §6.4 headline number.
//!
//! All seven optimizers over small (top-5), medium (top-20), and large
//! (all 197) configuration spaces on JOB and SYSBENCH; reports the
//! best-performance-over-iteration series (Figure 7), the average rank of
//! each optimizer per space size (Table 7), and SMAC's average improvement
//! over the traditional optimizers vanilla BO and DDPG (paper: +21.17%).
//!
//! Arguments: `samples=6250 iters=120 seeds=2 workers= cache=on`
//! (paper: 6250/200/3). Sessions run on the parallel executor; the
//! shared cache deduplicates the LHS warm-up evaluations that all
//! optimizers of one scenario share.

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
struct Run {
    workload: String,
    space: String,
    optimizer: String,
    improvement_trace: Vec<f64>,
    best_improvement: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "iters", "seeds"]);
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 120);
    let seeds = args.get_size("seeds", 2);

    let opts = GridOpts::from_args("fig7_optimizers", &args, 700);

    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();
    let sizes: [(&str, usize); 3] = [("small", 5), ("medium", 20), ("large", 197)];

    // Grid: (workload × space × optimizer × seed), seed-major innermost so
    // each scenario's repeats are consecutive in the result vector.
    let mut cells: Vec<TuningCell> = Vec::new();
    let mut scenarios: Vec<(Workload, &str, OptimizerKind)> = Vec::new();
    for &wl in &[Workload::Job, Workload::Sysbench] {
        let pool = full_pool(wl, samples, 7);
        let ranked = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 197, 11);
        for &(space_label, k) in &sizes {
            let selected = ranked[..k].to_vec();
            for &opt in &OptimizerKind::PAPER {
                scenarios.push((wl, space_label, opt));
                for s in 0..seeds {
                    cells.push(TuningCell {
                        workload: wl,
                        selected: selected.clone(),
                        opt_kind: opt,
                        iters,
                        seed: 700 + s as u64,
                    });
                }
            }
        }
    }
    let (results, exec) = run_tuning_grid(&cells, &opts);

    let mut runs: Vec<Run> = Vec::new();
    for ((wl, space_label, opt), chunk) in scenarios.iter().zip(results.chunks(seeds)) {
        let traces: Vec<Vec<f64>> = chunk.iter().map(|r| r.improvement_trace()).collect();
        let trace: Vec<f64> = (0..iters)
            .map(|i| {
                let vals: Vec<f64> = traces.iter().map(|t| t[i]).collect();
                dbtune_bench::median(&vals)
            })
            .collect();
        let best = *trace.last().expect("nonempty");
        eprintln!("[{} {} {}] best {}", wl.name(), space_label, opt.label(), pct(best));
        runs.push(Run {
            workload: wl.name().to_string(),
            space: space_label.to_string(),
            optimizer: opt.label().to_string(),
            improvement_trace: trace,
            best_improvement: best,
        });
    }

    // ---- Figure 7 checkpoint tables ----
    let checkpoints: Vec<usize> =
        [0.25, 0.5, 0.75, 1.0].iter().map(|f| ((iters as f64 * f) as usize).max(1) - 1).collect();
    for &wl in &[Workload::Job, Workload::Sysbench] {
        for &(space_label, _) in &sizes {
            println!(
                "\n== Figure 7 ({}, {} space): best improvement over iterations ==",
                wl.name(),
                space_label
            );
            let rows: Vec<Vec<String>> = runs
                .iter()
                .filter(|r| r.workload == wl.name() && r.space == space_label)
                .map(|r| {
                    let mut row = vec![r.optimizer.clone()];
                    for &c in &checkpoints {
                        row.push(pct(r.improvement_trace[c]));
                    }
                    row
                })
                .collect();
            let headers: Vec<String> = std::iter::once("Optimizer".to_string())
                .chain(checkpoints.iter().map(|c| format!("iter {}", c + 1)))
                .collect();
            let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            print_table(&header_refs, &rows);
        }
    }

    // ---- Table 7: average rank per space size + overall ----
    println!("\n== Table 7: average ranking of optimizers (1 = best) ==");
    let mut all_scenarios: Vec<Vec<f64>> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut per_size_rank: Vec<Vec<f64>> = Vec::new();
    for &(space_label, _) in &sizes {
        let mut scenarios: Vec<Vec<f64>> = Vec::new();
        for &wl in &[Workload::Job, Workload::Sysbench] {
            let scores: Vec<f64> = OptimizerKind::PAPER
                .iter()
                .map(|o| {
                    runs.iter()
                        .find(|r| {
                            r.workload == wl.name()
                                && r.space == space_label
                                && r.optimizer == o.label()
                        })
                        .expect("run recorded")
                        .best_improvement
                })
                .collect();
            scenarios.push(scores.clone());
            all_scenarios.push(scores);
        }
        per_size_rank.push(average_rank(&scenarios, true));
    }
    let overall = average_rank(&all_scenarios, true);
    for (i, opt) in OptimizerKind::PAPER.iter().enumerate() {
        rows.push(vec![
            opt.label().to_string(),
            format!("{:.2}", per_size_rank[0][i]),
            format!("{:.2}", per_size_rank[1][i]),
            format!("{:.2}", per_size_rank[2][i]),
            format!("{:.2}", overall[i]),
        ]);
    }
    print_table(&["Optimizer", "Small", "Medium", "Large", "Overall"], &rows);

    // ---- §6.4 headline: SMAC vs vanilla BO / DDPG ----
    let mean_of = |label: &str| {
        let vals: Vec<f64> =
            runs.iter().filter(|r| r.optimizer == label).map(|r| r.best_improvement).collect();
        dbtune_linalg::stats::mean(&vals)
    };
    let smac = mean_of("SMAC");
    let trad = 0.5 * (mean_of("Vanilla BO") + mean_of("DDPG"));
    println!(
        "\nSMAC avg improvement {} vs traditional (vanilla BO/DDPG) {} -> SMAC advantage {} (paper: +21.17%)",
        pct(smac),
        pct(trad),
        pct(smac - trad)
    );

    print_exec_summary(&exec);
    save_json_with_exec("fig7_table7", &runs, &exec);
}
