#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Table 8: the knowledge-transfer study.
//!
//! Five source tasks (SEATS, Voter, TATP, Smallbank, SIBench) are tuned
//! with DDPG (its training observations become the history for every
//! framework, matching the paper's data-fairness setup); the pre-trained
//! DDPG weights feed the fine-tune baseline. On each target (SYSBENCH,
//! TPC-C, Twitter) the five transfer baselines run 'iters' iterations and
//! are scored by:
//!
//! * **speedup** (Eq. 5) — base-optimizer steps to its own best, divided
//!   by transfer steps to beat that best ("x" when never);
//! * **PE** (Eq. 4) — relative improvement of the transfer best over the
//!   base best;
//! * **APR** — absolute performance rank among the five baselines.
//!
//! Arguments: `samples=6250 iters=120 pretrain=150 workers= cache=on`
//! (paper: 6250/200/300). The DDPG pre-training pass stays sequential
//! (one agent accumulates across the five sources); the 24 target
//! sessions (3 targets × [3 bases + 5 transfer frameworks]) then fan
//! out over the executor, with base and transfer runs of one target
//! sharing cached evaluations.

use dbtune_bench::{
    full_pool, importance_scores, pct, print_exec_summary, print_table, save_json_with_exec,
    ExpArgs, GridOpts,
};
use dbtune_core::exec::{run_grid, EvalCache};
use dbtune_core::importance::{top_k, MeasureKind};
use dbtune_core::optimizer::{Ddpg, DdpgParams, Optimizer, OptimizerKind};
use dbtune_core::space::TuningSpace;
use dbtune_core::transfer::{
    fine_tuned_ddpg, BaseKind, MappedOptimizer, RgpeOptimizer, SourceTask, SurrogateKind,
};
use dbtune_core::tuner::{run_session, SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, Hardware, Workload, METRICS_DIM};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    target: String,
    framework: String,
    speedup: Option<f64>,
    pe: f64,
    best_value: f64,
    apr: usize,
}

#[allow(clippy::too_many_arguments, reason = "experiment knobs enumerated on purpose")]
fn session(
    wl: Workload,
    selected: &[usize],
    opt: &mut dyn Optimizer,
    iters: usize,
    seed: u64,
    cache: Option<Arc<EvalCache>>,
    opts: &GridOpts,
    index: usize,
) -> SessionResult {
    let sim = DbSimulator::new(wl, Hardware::B, seed);
    let catalog = sim.catalog().clone();
    let space = TuningSpace::with_default_base(&catalog, selected.to_vec(), Hardware::B);
    let mut obj = opts.cell_objective(sim, cache, index);
    run_session(
        &mut obj,
        &space,
        opt,
        &SessionConfig { iterations: iters, lhs_init: 10, seed, ..Default::default() },
    )
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "iters", "pretrain"]);
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 120);
    let pretrain = args.get_usize("pretrain", 150);

    let catalog = DbSimulator::new(Workload::Sysbench, Hardware::B, 0).catalog().clone();
    let sources =
        [Workload::Seats, Workload::Voter, Workload::Tatp, Workload::Smallbank, Workload::Sibench];
    let targets = [Workload::Sysbench, Workload::Tpcc, Workload::Twitter];

    // Top-20 knobs "across OLTP workloads": average the normalized SHAP
    // scores over the source-workload pools (no target leakage).
    let mut agg = vec![0.0f64; catalog.len()];
    for &src in &sources {
        let pool = full_pool(src, samples, 7);
        let scores = importance_scores(MeasureKind::Shap, &catalog, &pool, 11);
        let max = scores.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
        for (a, s) in agg.iter_mut().zip(&scores) {
            *a += s / max;
        }
    }
    let selected = top_k(&agg, 20);
    eprintln!(
        "cross-workload top-20 knobs: {:?}",
        selected.iter().map(|&i| catalog.spec(i).name).collect::<Vec<_>>()
    );

    let opts = GridOpts::from_args("table8_transfer", &args, 2000);
    let cache = opts.make_cache();

    // Pre-train DDPG across the five sources in turn (sequential: one
    // agent accumulates); harvest its training observations as the
    // historical data for mapping and RGPE.
    let space0 = TuningSpace::with_default_base(&catalog, selected.clone(), Hardware::B);
    let mut agent = Ddpg::new(space0.space().clone(), METRICS_DIM, DdpgParams::default(), 42);
    let mut source_tasks: Vec<SourceTask> = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let r =
            session(src, &selected, &mut agent, pretrain, 1000 + i as u64, cache.clone(), &opts, i);
        eprintln!("[pretrain {}] best improvement {}", src.name(), pct(r.best_improvement()));
        source_tasks.push(SourceTask {
            name: src.name().to_string(),
            x: r.observations.iter().map(|o| o.config.clone()).collect(),
            y: r.observations.iter().map(|o| o.score).collect(),
            metrics: r.observations.iter().map(|o| o.metrics.clone()).collect(),
        });
    }
    let weights = agent.export_weights();

    // Grid: 8 runs per target — 3 non-transfer bases then 5 transfer
    // frameworks, every one independent given the pre-trained history.
    const BASES: [&str; 3] = ["Mixed-Kernel BO", "SMAC", "DDPG"];
    const TRANSFERS: [(&str, &str); 5] = [
        ("RGPE (Mixed-Kernel BO)", "Mixed-Kernel BO"),
        ("RGPE (SMAC)", "SMAC"),
        ("Mapping (Mixed-Kernel BO)", "Mixed-Kernel BO"),
        ("Mapping (SMAC)", "SMAC"),
        ("Fine-Tune (DDPG)", "DDPG"),
    ];
    let mut grid: Vec<(Workload, u64, usize)> = Vec::new();
    for (ti, &target) in targets.iter().enumerate() {
        let seed = 2000 + ti as u64;
        for k in 0..BASES.len() + TRANSFERS.len() {
            grid.push((target, seed, k));
        }
    }
    // Grid cells take the cell indices after the pre-training sessions',
    // so no two sessions share a fault schedule.
    let sessions = run_grid(&grid, opts.workers, |index, &(target, seed, k)| {
        let mut opt: Box<dyn Optimizer> = match k {
            0 => OptimizerKind::MixedKernelBo.build(space0.space(), METRICS_DIM, seed),
            1 => OptimizerKind::Smac.build(space0.space(), METRICS_DIM, seed),
            2 => OptimizerKind::Ddpg.build(space0.space(), METRICS_DIM, seed),
            3 => Box::new(RgpeOptimizer::new(
                space0.space().clone(),
                SurrogateKind::MixedGp,
                &source_tasks,
                seed,
            )),
            4 => Box::new(RgpeOptimizer::new(
                space0.space().clone(),
                SurrogateKind::RandomForest,
                &source_tasks,
                seed,
            )),
            5 => Box::new(MappedOptimizer::new(
                space0.space().clone(),
                BaseKind::MixedBo,
                source_tasks.clone(),
                seed,
            )),
            6 => Box::new(MappedOptimizer::new(
                space0.space().clone(),
                BaseKind::Smac,
                source_tasks.clone(),
                seed,
            )),
            _ => Box::new(fine_tuned_ddpg(
                space0.space().clone(),
                METRICS_DIM,
                &weights,
                DdpgParams::default(),
                seed,
            )),
        };
        let cell = sources.len() + index;
        session(target, &selected, &mut *opt, iters, seed, cache.clone(), &opts, cell)
    });
    let exec = opts.report(cache.as_ref());

    let mut rows: Vec<Row> = Vec::new();
    for (&target, chunk) in targets.iter().zip(sessions.chunks(BASES.len() + TRANSFERS.len())) {
        let base_runs: Vec<(&str, &SessionResult)> =
            BASES.iter().zip(chunk).map(|(&n, r)| (n, r)).collect();
        for (name, r) in &base_runs {
            eprintln!("[{} base {}] best {:.0}", target.name(), name, r.best_value());
        }
        let base = |name: &str| base_runs.iter().find(|(n, _)| *n == name).expect("base run");
        let transfer_runs: Vec<(&str, &str, &SessionResult)> =
            TRANSFERS.iter().zip(&chunk[BASES.len()..]).map(|(&(f, b), r)| (f, b, r)).collect();

        // APR: rank by absolute best value (throughput targets: higher
        // is better).
        let mut order: Vec<usize> = (0..transfer_runs.len()).collect();
        order.sort_by(|&a, &b| {
            let sa = transfer_runs[a].2.best_score();
            let sb = transfer_runs[b].2.best_score();
            dbtune_core::ord::cmp_score_desc(&sa, &sb)
        });
        let apr_of = |i: usize| order.iter().position(|&j| j == i).expect("ranked") + 1;

        for (i, (framework, base_name, r)) in transfer_runs.iter().enumerate() {
            let b = base(base_name).1;
            let base_best = b.best_score();
            let steps_base = b.iterations_to_best();
            let speedup =
                r.iterations_to_beat(base_best).map(|steps| steps_base as f64 / steps as f64);
            // Eq. 4 on raw performance values (all targets are throughput).
            let pe = (r.best_value() - b.best_value()) / b.best_value();
            eprintln!(
                "[{} {}] speedup {:?}, PE {}, APR {}",
                target.name(),
                framework,
                speedup,
                pct(pe),
                apr_of(i)
            );
            rows.push(Row {
                target: target.name().to_string(),
                framework: framework.to_string(),
                speedup,
                pe,
                best_value: r.best_value(),
                apr: apr_of(i),
            });
        }
    }

    println!("\n== Table 8: transfer frameworks — speedup, PE, APR ==");
    for &target in &targets {
        println!("\n-- target: {} --", target.name());
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.target == target.name())
            .map(|r| {
                vec![
                    r.framework.clone(),
                    r.speedup.map_or("x".to_string(), |s| format!("{s:.2}")),
                    pct(r.pe),
                    r.apr.to_string(),
                    format!("{:.0}", r.best_value),
                ]
            })
            .collect();
        print_table(&["Framework", "Speedup", "PE", "APR", "Best tx/s"], &table_rows);
    }

    // Averages across targets, as the paper's final row.
    println!("\n-- averages across targets --");
    let frameworks: Vec<String> = rows
        .iter()
        .map(|r| r.framework.clone())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let avg_rows: Vec<Vec<String>> = frameworks
        .iter()
        .map(|f| {
            let rs: Vec<&Row> = rows.iter().filter(|r| &r.framework == f).collect();
            let speedups: Vec<f64> = rs.iter().filter_map(|r| r.speedup).collect();
            let pe = dbtune_linalg::stats::mean(&rs.iter().map(|r| r.pe).collect::<Vec<_>>());
            let apr =
                dbtune_linalg::stats::mean(&rs.iter().map(|r| r.apr as f64).collect::<Vec<_>>());
            vec![
                f.clone(),
                if speedups.is_empty() {
                    "x".to_string()
                } else {
                    format!("{:.2}", dbtune_linalg::stats::mean(&speedups))
                },
                pct(pe),
                format!("{apr:.2}"),
            ]
        })
        .collect();
    print_table(&["Framework", "Avg speedup", "Avg PE", "Avg APR"], &avg_rows);

    print_exec_summary(&exec);
    save_json_with_exec("table8_transfer", &rows, &exec);
}
