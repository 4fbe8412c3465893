#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 8: the knob-heterogeneity comparison (JOB).
//!
//! Control group: the top-20 *numeric* knobs (continuous space). Test
//! group: the top-5 categorical knobs plus the top-15 integer knobs
//! (heterogeneous space). Vanilla BO, mixed-kernel BO, SMAC, and DDPG run
//! on both; the gap between vanilla and mixed-kernel BO on the
//! heterogeneous space is the experiment's point.
//!
//! Arguments: `samples=6250 iters=120 seeds=1 workers= cache=on`
//! (paper: 6250/200/3). Sessions run on the parallel executor; the four
//! optimizers on one space share their LHS warm-up via the cache.

use dbtune_bench::{
    full_pool, importance_scores, pct, print_exec_summary, print_table, run_tuning_grid,
    save_json_with_exec, ExpArgs, GridOpts, TuningCell,
};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Run {
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
    let seeds = args.get_size("seeds", 1);

    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();
    let pool = full_pool(Workload::Job, samples, 7);
    let scores = importance_scores(MeasureKind::Shap, &catalog, &pool, 11);

    // Ranked indices restricted to a knob class.
    let ranked_where = |pred: &dyn Fn(usize) -> bool, k: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..catalog.len()).filter(|&i| pred(i)).collect();
        idx.sort_by(|&a, &b| {
            dbtune_core::ord::cmp_score_desc(&scores[a], &scores[b]).then(a.cmp(&b))
        });
        idx.truncate(k);
        idx
    };
    let continuous_20 = ranked_where(&|i| !catalog.spec(i).domain.is_categorical(), 20);
    let mut hetero = ranked_where(&|i| catalog.spec(i).domain.is_categorical(), 5);
    hetero.extend(ranked_where(&|i| catalog.spec(i).domain.is_integer(), 15));

    eprintln!(
        "continuous space: {:?}",
        continuous_20.iter().map(|&i| catalog.spec(i).name).collect::<Vec<_>>()
    );
    eprintln!(
        "heterogeneous space: {:?}",
        hetero.iter().map(|&i| catalog.spec(i).name).collect::<Vec<_>>()
    );

    let optimizers = [
        OptimizerKind::VanillaBo,
        OptimizerKind::MixedKernelBo,
        OptimizerKind::Smac,
        OptimizerKind::Ddpg,
    ];
    let spaces: [(&str, &Vec<usize>); 2] =
        [("continuous", &continuous_20), ("heterogeneous", &hetero)];

    let opts = GridOpts::from_args("fig8_heterogeneity", &args, 800);
    let mut grid: Vec<TuningCell> = Vec::new();
    let mut scenarios: Vec<(&str, OptimizerKind)> = Vec::new();
    for &(label, selected) in &spaces {
        for &opt in &optimizers {
            scenarios.push((label, opt));
            for s in 0..seeds {
                grid.push(TuningCell {
                    workload: Workload::Job,
                    selected: selected.clone(),
                    opt_kind: opt,
                    iters,
                    seed: 800 + s as u64,
                });
            }
        }
    }
    let (results, exec) = run_tuning_grid(&grid, &opts);

    let mut runs: Vec<Run> = Vec::new();
    for ((label, opt), chunk) in scenarios.iter().zip(results.chunks(seeds)) {
        let traces: Vec<Vec<f64>> = chunk.iter().map(|r| r.improvement_trace()).collect();
        let trace: Vec<f64> = (0..iters)
            .map(|i| {
                let vals: Vec<f64> = traces.iter().map(|t| t[i]).collect();
                dbtune_bench::median(&vals)
            })
            .collect();
        let best = *trace.last().expect("nonempty");
        eprintln!("[{label} {}] best {}", opt.label(), pct(best));
        runs.push(Run {
            space: label.to_string(),
            optimizer: opt.label().to_string(),
            improvement_trace: trace,
            best_improvement: best,
        });
    }

    for &(label, _) in &spaces {
        println!("\n== Figure 8 ({label} space, JOB latency improvement) ==");
        let checkpoints: Vec<usize> = [0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|f| ((iters as f64 * f) as usize).max(1) - 1)
            .collect();
        let rows: Vec<Vec<String>> = runs
            .iter()
            .filter(|r| r.space == label)
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

    let get = |space: &str, opt: &str| {
        runs.iter()
            .find(|r| r.space == space && r.optimizer == opt)
            .expect("run recorded")
            .best_improvement
    };
    println!(
        "\nHeterogeneous-space gap: mixed-kernel BO {} vs vanilla BO {} (continuous-space gap: {} vs {})",
        pct(get("heterogeneous", "Mixed-Kernel BO")),
        pct(get("heterogeneous", "Vanilla BO")),
        pct(get("continuous", "Mixed-Kernel BO")),
        pct(get("continuous", "Vanilla BO")),
    );

    print_exec_summary(&exec);
    save_json_with_exec("fig8_heterogeneity", &runs, &exec);
}
