#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 10 + the §8 speedup claim: tuning on the surrogate benchmark.
//!
//! Builds the SYSBENCH medium-space benchmark (offline collection +
//! random-forest surrogate), runs every optimizer against it for several
//! sessions, and reports (a) best-performance-over-iteration series that
//! should reproduce the live ordering (SMAC and mixed-kernel BO on top),
//! and (b) the replay-vs-surrogate speedup (paper: 150–311×).
//!
//! Arguments: `samples=1200 iters=120 runs=5 workers= cache=on`
//! (paper: 6250/200/10). The offline collection runs on the live
//! simulator; the tuning sessions then share one trained surrogate,
//! immutably, via the executor. The speedup report counts the sessions'
//! evaluations and the evaluation time their loops measured.

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, save_json_with_exec, top_k_knobs, ExpArgs,
    GridOpts,
};
use dbtune_benchmark::collect::{collect_samples, Dataset};
use dbtune_benchmark::objective::{SpeedupReport, SurrogateBenchmark};
use dbtune_core::exec::run_grid;
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{run_session, SessionConfig};
use dbtune_dbsim::{DbSimulator, Hardware, Objective, Workload, METRICS_DIM};
use serde::Serialize;

#[derive(Serialize)]
struct Run {
    optimizer: String,
    median_trace: Vec<f64>,
    best_improvement: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "iters", "runs"]);
    let samples = args.get_size("samples", 1200);
    let iters = args.get_size("iters", 120);
    let runs = args.get_size("runs", 5);

    let catalog = DbSimulator::new(Workload::Sysbench, Hardware::B, 0).catalog().clone();
    let pool = full_pool(Workload::Sysbench, samples, 7);
    let selected = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 20, 11);
    let space = TuningSpace::with_default_base(&catalog, selected, Hardware::B);

    // Offline collection (LHS + optimizer-driven) and surrogate training.
    let mut sim = DbSimulator::new(Workload::Sysbench, Hardware::B, 70);
    let ds: Dataset = collect_samples(&mut sim, &space, samples, 8);
    let bench = SurrogateBenchmark::train(space.clone(), Objective::Throughput, &ds, 1);
    println!(
        "offline collection: {} evaluations = {:.1} simulated hours of workload replay",
        ds.len(),
        SpeedupReport::new(ds.len(), 0.0).replay_secs / 3600.0
    );

    // Grid: (optimizer × run); every cell borrows the one trained
    // surrogate immutably through the cache adapter.
    let opts = GridOpts::from_args("fig10_surrogate_bench", &args, 3000);
    let mut grid: Vec<(OptimizerKind, u64)> = Vec::new();
    for &opt_kind in &OptimizerKind::PAPER {
        for run in 0..runs {
            grid.push((opt_kind, 3000 + run as u64));
        }
    }
    let cache = opts.make_cache();
    let sessions = run_grid(&grid, opts.workers, |index, &(opt_kind, seed)| {
        let mut opt = opt_kind.build(space.space(), METRICS_DIM, seed);
        let mut obj = opts.cell_objective(&bench, cache.clone(), index);
        run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig { iterations: iters, lhs_init: 10, seed, ..Default::default() },
        )
    });
    let exec = opts.report(cache.as_ref());

    let mut results: Vec<Run> = Vec::new();
    for (opt_kind, chunk) in OptimizerKind::PAPER.iter().zip(sessions.chunks(runs)) {
        let traces: Vec<Vec<f64>> = chunk.iter().map(|r| r.improvement_trace()).collect();
        let median_trace: Vec<f64> = (0..iters)
            .map(|i| {
                let vals: Vec<f64> = traces.iter().map(|t| t[i]).collect();
                dbtune_bench::median(&vals)
            })
            .collect();
        let best = *median_trace.last().expect("nonempty");
        eprintln!("[{}] best improvement {}", opt_kind.label(), pct(best));
        results.push(Run {
            optimizer: opt_kind.label().to_string(),
            median_trace,
            best_improvement: best,
        });
    }

    println!("\n== Figure 10: tuning performance over the surrogate benchmark ==");
    let checkpoints: Vec<usize> =
        [0.25, 0.5, 0.75, 1.0].iter().map(|f| ((iters as f64 * f) as usize).max(1) - 1).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.optimizer.clone()];
            for &c in &checkpoints {
                row.push(pct(r.median_trace[c]));
            }
            row
        })
        .collect();
    let headers: Vec<String> = std::iter::once("Optimizer".to_string())
        .chain(checkpoints.iter().map(|c| format!("iter {}", c + 1)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &rows);

    // Every session evaluation would have cost a full replay + restart on
    // the live system; on the surrogate it cost the evaluation time the
    // session loop measured. Wall time goes to stdout only, so the JSON
    // stays byte-reproducible.
    let speedup = SpeedupReport::of_sessions(&sessions);
    println!(
        "\nSpeedup: {} surrogate evaluations ({} unique after caching) in {:.3}s vs {:.0}s of simulated replay -> {:.0}x (paper: 150-311x end-to-end)",
        speedup.n_evals,
        exec.cache.entries,
        speedup.surrogate_secs,
        speedup.replay_secs,
        speedup.speedup
    );
    print_exec_summary(&exec);

    save_json_with_exec("fig10_surrogate_bench", &results, &exec);
}
