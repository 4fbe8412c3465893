#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 6: incremental knob selection — increasing (OtterTune-style)
//! vs decreasing (Tuneful-style) the number of tuned knobs over the
//! session, against fixed top-5 and top-20 baselines (SHAP ranking,
//! vanilla BO, JOB & SYSBENCH).
//!
//! Arguments: `samples=6250 iters=120 seeds=1 workers= cache=on`
//! (paper: 6250/200/3), plus the shared `faults=`/`retries=`/`diag=`
//! flags. Each session runs in the common session loop through
//! `IncrementalOptimizer`, opening with a 10-point LHS design in its
//! first phase's space (§4.1). The four strategies per workload run
//! concurrently on the executor and share cached evaluations (all four
//! search prefixes of the same SHAP ranking).

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, save_json_with_exec, top_k_knobs, ExpArgs,
    GridOpts,
};
use dbtune_core::exec::run_grid;
use dbtune_core::importance::MeasureKind;
use dbtune_core::incremental::{session_space, IncrementalOptimizer, IncrementalStrategy};
use dbtune_core::optimizer::{BoKind, BoOptimizer, Optimizer};
use dbtune_core::space::ConfigSpace;
use dbtune_core::telemetry;
use dbtune_core::tuner::{run_session, SessionConfig};
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    workload: String,
    strategy: String,
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
    let make_opt = |space: &ConfigSpace, _seed: u64| -> Box<dyn Optimizer> {
        Box::new(BoOptimizer::new(space.clone(), BoKind::Vanilla))
    };

    struct Cell {
        wl: Workload,
        label: &'static str,
        strategy: IncrementalStrategy,
        ranked: Vec<usize>,
        seed: u64,
    }

    let opts = GridOpts::from_args("fig6_incremental", &args, 600);
    let phase = (iters / 6).max(10);
    let strategies: Vec<(&str, IncrementalStrategy)> = vec![
        (
            "Fixed top-5",
            IncrementalStrategy::Increase { start: 5, step: 0, every: iters.max(1), cap: 5 },
        ),
        (
            "Fixed top-20",
            IncrementalStrategy::Increase { start: 20, step: 0, every: iters.max(1), cap: 20 },
        ),
        (
            "Increase 4->20",
            IncrementalStrategy::Increase { start: 4, step: 4, every: phase, cap: 20 },
        ),
        (
            "Decrease 20->4",
            IncrementalStrategy::Decrease { start: 20, step: 4, every: phase, floor: 4 },
        ),
    ];

    let mut grid: Vec<Cell> = Vec::new();
    let mut scenarios: Vec<(Workload, &str)> = Vec::new();
    for &wl in &[Workload::Job, Workload::Sysbench] {
        let pool = full_pool(wl, samples, 7);
        let ranked = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 40, 11);
        for &(label, strategy) in &strategies {
            scenarios.push((wl, label));
            for s in 0..seeds {
                grid.push(Cell {
                    wl,
                    label,
                    strategy,
                    ranked: ranked.clone(),
                    seed: 600 + s as u64,
                });
            }
        }
    }

    let cache = opts.make_cache();
    let results = run_grid(&grid, opts.workers, |index, cell| {
        let sim = DbSimulator::new(cell.wl, Hardware::B, cell.seed);
        let mut obj = opts.cell_objective(sim, cache.clone(), index);
        let space = session_space(
            &catalog,
            catalog.default_config(Hardware::B),
            &cell.ranked,
            cell.strategy,
        );
        let mut opt = IncrementalOptimizer::new(&space, cell.strategy, &make_opt, cell.seed, 10);
        // Every session would otherwise carry the phase optimizer's name
        // and fold into one diag summary.
        let diag_label = telemetry::global().diag_enabled().then(|| {
            let strategy = cell.label.to_lowercase().replace("->", "-").replace(' ', "-");
            format!("{strategy}/{}/s{}", cell.wl.name().to_lowercase(), cell.seed)
        });
        run_session(
            &mut obj,
            &space,
            &mut opt,
            &SessionConfig {
                iterations: iters,
                lhs_init: 10,
                seed: cell.seed,
                diag_label,
                ..Default::default()
            },
        )
    });
    let exec = opts.report(cache.as_ref());

    let mut series: Vec<Series> = Vec::new();
    for ((wl, label), chunk) in scenarios.iter().zip(results.chunks(seeds)) {
        let traces: Vec<Vec<f64>> = chunk.iter().map(|r| r.improvement_trace()).collect();
        // Median trace across seeds.
        let trace: Vec<f64> = (0..iters)
            .map(|i| {
                let vals: Vec<f64> = traces.iter().map(|t| t[i]).collect();
                dbtune_bench::median(&vals)
            })
            .collect();
        let best = *trace.last().expect("nonempty trace");
        eprintln!("[{} {}] final improvement {}", wl.name(), label, pct(best));
        series.push(Series {
            workload: wl.name().to_string(),
            strategy: label.to_string(),
            improvement_trace: trace,
            best_improvement: best,
        });
    }

    for &wl in &[Workload::Job, Workload::Sysbench] {
        println!("\n== Figure 6 ({}): best improvement over iterations ==", wl.name());
        let checkpoints: Vec<usize> = [0.2, 0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|f| ((iters as f64 * f) as usize).max(1) - 1)
            .collect();
        let rows: Vec<Vec<String>> = series
            .iter()
            .filter(|s| s.workload == wl.name())
            .map(|s| {
                let mut row = vec![s.strategy.clone()];
                for &c in &checkpoints {
                    row.push(pct(s.improvement_trace[c]));
                }
                row
            })
            .collect();
        let headers: Vec<String> = std::iter::once("Strategy".to_string())
            .chain(checkpoints.iter().map(|c| format!("iter {}", c + 1)))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(&header_refs, &rows);
    }

    print_exec_summary(&exec);
    save_json_with_exec("fig6_incremental", &series, &exec);
}
