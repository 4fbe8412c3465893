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
//! and (b) the replay-vs-surrogate speedup ledger (paper: 150–311×).
//!
//! Arguments: `samples=1200 iters=120 runs=5 workers= cache=on`
//! (paper: 6250/200/10). The offline collection stays sequential (it
//! consumes the live simulator); the tuning sessions then share one
//! trained surrogate — immutably, via the executor — so the speedup
//! ledger is computed from the cache counters and the grid's wall
//! clock rather than from mutable per-benchmark accounting.

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, save_json_with_exec, top_k_knobs, ExpArgs,
    GridOpts,
};
use dbtune_benchmark::collect::{collect_samples, Dataset};
use dbtune_benchmark::objective::SurrogateBenchmark;
use dbtune_core::exec::run_grid;
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{run_session, SessionConfig};
use dbtune_dbsim::{
    DbSimulator, Hardware, Objective, Workload, EVAL_SECONDS, METRICS_DIM, RESTART_SECONDS,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Run {
    optimizer: String,
    median_trace: Vec<f64>,
    best_improvement: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse();
    let samples = args.get_usize("samples", 1200);
    let iters = args.get_usize("iters", 120);
    let runs = args.get_usize("runs", 5);

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
        sim.n_evals(),
        sim.total_simulated_secs() / 3600.0
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
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock benchmark report — timing is the deliverable"
    )]
    let t0 = Instant::now();
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
    let grid_wall_secs = t0.elapsed().as_secs_f64();
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

    // Speedup ledger from the executor's counters: sessions × iterations
    // evaluations would each have cost a full replay + restart on the
    // live system; on the surrogate the whole grid took `grid_wall_secs`
    // (which also includes optimizer overhead, so the ratio is
    // conservative). Wall clock goes to stdout only — the JSON stays
    // byte-reproducible.
    let n_evals = {
        let counted = exec.cache.hits + exec.cache.misses;
        if counted > 0 {
            counted as usize
        } else {
            grid.len() * iters
        }
    };
    let replay_secs = n_evals as f64 * (EVAL_SECONDS + RESTART_SECONDS);
    println!(
        "\nSpeedup ledger: {} surrogate evaluations ({} unique after caching) in {:.2}s vs {:.0}s of simulated replay -> {:.0}x (paper: 150-311x end-to-end)",
        n_evals,
        exec.cache.entries,
        grid_wall_secs,
        replay_secs,
        if grid_wall_secs > 0.0 { replay_secs / grid_wall_secs } else { f64::INFINITY }
    );
    print_exec_summary(&exec);

    save_json_with_exec("fig10_surrogate_bench", &results, &exec);
}
