#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Table 9: regression performance of the surrogate-model zoo (RF, GB,
//! SVR, NuSVR, KNN, RR) by 10-fold cross-validation, on the JOB small
//! space and the SYSBENCH medium space.
//!
//! Arguments: `samples=1200 folds=10 workers= cache=on` (paper:
//! 6250/10). The two scenarios are self-contained (own collection +
//! zoo evaluation) and run as one executor cell each; their spaces
//! differ, so the shared cache records misses only.

use dbtune_bench::{
    full_pool, print_exec_summary, print_table, save_json_with_exec, top_k_knobs, ExpArgs, GridOpts,
};
use dbtune_benchmark::collect::collect_samples;
use dbtune_benchmark::surrogate::evaluate_zoo;
use dbtune_core::exec::run_grid;
use dbtune_core::importance::MeasureKind;
use dbtune_core::space::TuningSpace;
use dbtune_dbsim::{DbSimulator, Hardware, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct Entry {
    workload: String,
    model: String,
    rmse: f64,
    r2: f64,
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse();
    let samples = args.get_size("samples", 1200);
    let folds = args.get_size("folds", 10);

    let catalog = DbSimulator::new(Workload::Job, Hardware::B, 0).catalog().clone();
    // JOB: small space (top-5); SYSBENCH: medium space (top-20), as §8.
    let scenarios: [(Workload, usize); 2] = [(Workload::Job, 5), (Workload::Sysbench, 20)];

    let opts = GridOpts::from_args("table9_surrogate_models", &args, 50);

    // Pools are disk-cached per workload; collect them sequentially so
    // concurrent cells never race on the cache files.
    let pools: Vec<_> = scenarios.iter().map(|&(wl, _)| full_pool(wl, samples, 7)).collect();

    let per_scenario = run_grid(&scenarios, opts.workers, |i, &(wl, k)| {
        let selected = top_k_knobs(MeasureKind::Shap, &catalog, &pools[i], k, 11);
        let space = TuningSpace::with_default_base(&catalog, selected, Hardware::B);
        // Per-space collection, as in the paper: the unselected knobs stay
        // at their defaults while LHS + optimizer-driven sampling covers
        // the space (the full pool is only used for the SHAP ranking).
        let mut sim = DbSimulator::new(wl, Hardware::B, 50 + k as u64);
        let ds = collect_samples(&mut sim, &space, samples, 9);
        evaluate_zoo(space.space(), &ds, folds, 3)
    });
    let exec = opts.report(None);

    let mut entries: Vec<Entry> = Vec::new();
    for (&(wl, _), results) in scenarios.iter().zip(&per_scenario) {
        for r in results {
            eprintln!(
                "[{} {}] RMSE {:.2} R2 {:.1}%",
                wl.name(),
                r.kind.label(),
                r.rmse,
                r.r_squared * 100.0
            );
            entries.push(Entry {
                workload: wl.name().to_string(),
                model: r.kind.label().to_string(),
                rmse: r.rmse,
                r2: r.r_squared,
            });
        }
    }

    println!("\n== Table 9: surrogate regression performance ({folds}-fold CV) ==");
    for &(wl, _) in &scenarios {
        println!("\n-- {} --", wl.name());
        let rows: Vec<Vec<String>> = entries
            .iter()
            .filter(|e| e.workload == wl.name())
            .map(|e| {
                vec![e.model.clone(), format!("{:.2}", e.rmse), format!("{:.1}%", e.r2 * 100.0)]
            })
            .collect();
        print_table(&["Model", "RMSE", "R²"], &rows);
    }

    print_exec_summary(&exec);
    save_json_with_exec("table9_surrogates", &entries, &exec);
}
