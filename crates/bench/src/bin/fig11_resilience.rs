#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Resilience figure (workspace extension, no paper counterpart).
//!
//! All seven optimizers tune SYSBENCH twice over the same knobs and
//! seeds: once fault-free, once under a seeded [`FaultPlan`] injecting
//! transient timeouts, spurious crashes, corrupted metric vectors, and
//! stalls, with the executor's retry/backoff policy absorbing what it
//! can. Reports per-optimizer best improvement in both modes and the
//! *regret degradation* (baseline − chaos) — the price of running on a
//! flaky deployment. Both runs are fully deterministic: the baseline is
//! byte-identical to the other drivers' fault-free results, and the
//! chaos run replays bit-for-bit from `(fault seed, cell index)` on any
//! worker count (see `docs/robustness.md`).
//!
//! Arguments: `iters=60 seeds=2 workers= cache=on retries=attempts:3,backoff:30,mult:2`
//! plus `faults=` (defaults to the fixed plan below; `faults=off`
//! degenerates to two identical baseline runs).

use dbtune_bench::{
    pct, print_exec_summary, print_table, run_tuning_grid, save_json_with_exec, ExpArgs, GridOpts,
    TuningCell,
};
use dbtune_core::optimizer::OptimizerKind;
use dbtune_dbsim::{DbSimulator, FaultPlan, Hardware, Workload};
use serde::Serialize;

/// The default chaos schedule: ~16% of evaluation attempts suffer a
/// fault of some kind — a deliberately rough ride.
const DEFAULT_FAULTS: &str = "seed:11,timeout:0.05,crash:0.03,noise:0.05,stall:0.03";

#[derive(Serialize)]
struct Run {
    optimizer: String,
    baseline_improvement: f64,
    chaos_improvement: f64,
    degradation: f64,
    baseline_simulated_secs: f64,
    chaos_simulated_secs: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["iters", "seeds"]);
    let iters = args.get_size("iters", 60);
    let seeds = args.get_size("seeds", 2);

    let mut opts = GridOpts::from_args("fig11_resilience", &args, 1100);
    // This driver injects faults by default (it is the resilience
    // figure); an explicit `faults=` flag still wins.
    if args.get_str("faults", "").is_empty() {
        opts.faults = FaultPlan::parse(DEFAULT_FAULTS).unwrap();
    }

    // A fixed, impactful knob set (incl. the buffer pool, so the
    // simulator's own deterministic crash region stays in play alongside
    // the injected transients).
    let catalog = DbSimulator::new(Workload::Sysbench, Hardware::B, 0).catalog().clone();
    let selected: Vec<usize> = [
        "innodb_buffer_pool_size",
        "innodb_flush_log_at_trx_commit",
        "sync_binlog",
        "innodb_log_file_size",
        "innodb_io_capacity",
        "innodb_thread_concurrency",
        "table_open_cache",
        "max_heap_table_size",
    ]
    .iter()
    .map(|n| catalog.expect_index(n))
    .collect();

    let mut cells: Vec<TuningCell> = Vec::new();
    for &opt in &OptimizerKind::PAPER {
        for s in 0..seeds {
            cells.push(TuningCell {
                workload: Workload::Sysbench,
                selected: selected.clone(),
                opt_kind: opt,
                iters,
                seed: 1100 + s as u64,
            });
        }
    }

    // Fault-free baseline: exactly the plain execution path (the same
    // bytes every other driver produces for these cells).
    let baseline_opts = GridOpts { faults: FaultPlan::disabled(), ..opts };
    let (baseline, _) = run_tuning_grid(&cells, &baseline_opts);

    // Chaos run: same cells, same seeds, faults on.
    let (chaos, exec) = run_tuning_grid(&cells, &opts);

    let mut runs: Vec<Run> = Vec::new();
    for (i, &opt) in OptimizerKind::PAPER.iter().enumerate() {
        let chunk = |results: &[dbtune_core::SessionResult]| {
            let vals: Vec<f64> =
                results[i * seeds..(i + 1) * seeds].iter().map(|r| r.best_improvement()).collect();
            dbtune_bench::median(&vals)
        };
        let secs = |results: &[dbtune_core::SessionResult]| {
            results[i * seeds..(i + 1) * seeds].iter().map(|r| r.simulated_secs).sum::<f64>()
                / seeds as f64
        };
        let base = chunk(&baseline);
        let noisy = chunk(&chaos);
        let degradation = base - noisy;
        assert!(degradation.is_finite(), "{}: non-finite degradation", opt.label());
        runs.push(Run {
            optimizer: opt.label().to_string(),
            baseline_improvement: base,
            chaos_improvement: noisy,
            degradation,
            baseline_simulated_secs: secs(&baseline),
            chaos_simulated_secs: secs(&chaos),
        });
    }

    println!("\n== Resilience: best improvement, fault-free vs chaos ==");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.optimizer.clone(),
                pct(r.baseline_improvement),
                pct(r.chaos_improvement),
                pct(r.degradation),
                format!(
                    "{:+.1}%",
                    100.0 * (r.chaos_simulated_secs / r.baseline_simulated_secs - 1.0)
                ),
            ]
        })
        .collect();
    print_table(
        &["Optimizer", "Baseline", "Under faults", "Degradation", "Extra sim. time"],
        &rows,
    );

    let degs: Vec<f64> = runs.iter().map(|r| r.degradation).collect();
    let median_deg = dbtune_bench::median(&degs);
    println!(
        "\nMedian degradation across optimizers: {} (bounded chaos: retries absorb transients, \
         quarantine-free baseline policy keeps §4.1 semantics)",
        pct(median_deg)
    );

    print_exec_summary(&exec);
    save_json_with_exec("fig11_resilience", &runs, &exec);
}
