#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Figure 4: sensitivity of the importance measurements to the number of
//! training samples (SYSBENCH).
//!
//! Left panel: intersection-over-union of the top-5 knob set from a
//! random subsample against the full-pool baseline, averaged over
//! repeats. Right panel: R² of each measurement's underlying surrogate on
//! a held-out validation split.
//!
//! Arguments: `samples=1500 repeats=5 workers=` (paper: 6250/10).
//! Each (fraction × measurement × repeat) cell runs on the executor
//! with its own subsample RNG derived from [`cell_seed`], so results
//! are identical for any worker count. No simulator evaluations happen
//! here (the pool is precomputed), so the evaluation cache is unused.

use dbtune_bench::{
    full_pool, importance_scores, print_exec_summary, print_table, save_json_with_exec, ExpArgs,
    GridOpts, Pool,
};
use dbtune_core::exec::{cell_seed, run_grid};
use dbtune_core::importance::{top_k, ImportanceInput, MeasureKind};
use dbtune_dbsim::{DbSimulator, Hardware, KnobCatalog, Workload};
use dbtune_linalg::stats::{intersection_over_union, r_squared};
use dbtune_ml::{LassoRegression, RandomForest, RandomForestParams, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    measure: String,
    n_samples: usize,
    similarity: f64,
    r2: f64,
}

/// R² of the surrogate family backing a measurement, on a held-out split.
fn surrogate_r2(
    kind: MeasureKind,
    catalog: &KnobCatalog,
    pool: &Pool,
    train: &[usize],
    test: &[usize],
    seed: u64,
) -> f64 {
    let gather = |idx: &[usize]| -> (Vec<Vec<f64>>, Vec<f64>) {
        (idx.iter().map(|&i| pool.x[i].clone()).collect(), idx.iter().map(|&i| pool.y[i]).collect())
    };
    let (xt, yt) = gather(train);
    let (xv, yv) = gather(test);
    match kind {
        MeasureKind::Lasso => {
            // Unit-encoded linear model (matching the measurement).
            let enc = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
                rows.iter()
                    .map(|r| {
                        r.iter().zip(catalog.specs()).map(|(v, s)| s.domain.to_unit(*v)).collect()
                    })
                    .collect()
            };
            let mut m = LassoRegression::new(0.01);
            m.fit(&enc(&xt), &yt);
            r_squared(&m.predict_batch(&enc(&xv)), &yv)
        }
        // Gini / fANOVA / ablation / SHAP all ride on the random forest.
        _ => {
            let kinds = xt[0]
                .iter()
                .zip(catalog.specs())
                .map(|(_, s)| match &s.domain {
                    dbtune_dbsim::knob::Domain::Cat { choices } => {
                        dbtune_ml::FeatureKind::Categorical { cardinality: choices.len() }
                    }
                    _ => dbtune_ml::FeatureKind::Continuous,
                })
                .collect();
            let mut rf = RandomForest::new(
                RandomForestParams { n_trees: 40, seed, ..Default::default() },
                kinds,
            );
            rf.fit(&xt, &yt);
            r_squared(&rf.predict_batch(&xv), &yv)
        }
    }
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse_grid(&["samples", "repeats"]);
    let samples = args.get_size("samples", 1500);
    let repeats = args.get_size("repeats", 5);

    let catalog = DbSimulator::new(Workload::Sysbench, Hardware::B, 0).catalog().clone();
    let pool = full_pool(Workload::Sysbench, samples, 7);

    // Baseline top-5 sets from the full pool.
    let baselines: Vec<(MeasureKind, Vec<usize>)> = MeasureKind::ALL
        .iter()
        .map(|&m| (m, top_k(&importance_scores(m, &catalog, &pool, 11), 5)))
        .collect();

    let fractions = [0.1, 0.2, 0.4, 0.6, 0.8];
    let opts = GridOpts::from_args("fig4_sensitivity", &args, 5);

    // Grid: (fraction × measurement × repeat). Each cell reshuffles the
    // pool with its own RNG, so cells are independent of each other and
    // of scheduling.
    struct Cell {
        measure: MeasureKind,
        baseline: Vec<usize>,
        n_sub: usize,
        rep: usize,
    }
    let mut grid: Vec<Cell> = Vec::new();
    let mut scenarios: Vec<(MeasureKind, usize)> = Vec::new();
    for &frac in &fractions {
        let n_sub = ((samples as f64) * frac) as usize;
        for &(measure, ref baseline) in &baselines {
            scenarios.push((measure, n_sub));
            for rep in 0..repeats {
                grid.push(Cell { measure, baseline: baseline.clone(), n_sub, rep });
            }
        }
    }

    let cell_results = run_grid(&grid, opts.workers, |i, cell| {
        let mut rng = StdRng::seed_from_u64(cell_seed(5, i));
        let mut idx: Vec<usize> = (0..samples).collect();
        idx.shuffle(&mut rng);
        let (train, test) = idx.split_at(cell.n_sub);
        let sub = Pool {
            x: train.iter().map(|&i| pool.x[i].clone()).collect(),
            y: train.iter().map(|&i| pool.y[i]).collect(),
            default_cfg: pool.default_cfg.clone(),
        };
        let m = cell.measure.build();
        let scores = m.scores(&ImportanceInput {
            specs: catalog.specs(),
            default: &sub.default_cfg,
            x: &sub.x,
            y: &sub.y,
            seed: cell.rep as u64,
        });
        let similarity = intersection_over_union(&top_k(&scores, 5), &cell.baseline);
        let test_cap = &test[..test.len().min(300)];
        let r2 = surrogate_r2(cell.measure, &catalog, &pool, train, test_cap, cell.rep as u64);
        (similarity, r2)
    });
    let exec = opts.report(None);

    let mut points: Vec<Point> = Vec::new();
    for ((measure, n_sub), chunk) in scenarios.iter().zip(cell_results.chunks(repeats)) {
        let sims: Vec<f64> = chunk.iter().map(|&(s, _)| s).collect();
        let r2s: Vec<f64> = chunk.iter().map(|&(_, r)| r).collect();
        points.push(Point {
            measure: measure.label().to_string(),
            n_samples: *n_sub,
            similarity: dbtune_linalg::stats::mean(&sims),
            r2: dbtune_linalg::stats::mean(&r2s),
        });
        let p = points.last().expect("point pushed just above for this scenario");
        eprintln!(
            "[{} n={}] similarity {:.3}, R2 {:.3}",
            measure.label(),
            n_sub,
            p.similarity,
            p.r2
        );
    }

    println!("\n== Figure 4 (left): top-5 similarity score vs #samples ==");
    let mut rows = Vec::new();
    for &m in &MeasureKind::ALL {
        let mut row = vec![m.label().to_string()];
        for &frac in &fractions {
            let n_sub = ((samples as f64) * frac) as usize;
            let p = points
                .iter()
                .find(|p| p.measure == m.label() && p.n_samples == n_sub)
                .expect("computed");
            row.push(format!("{:.3}", p.similarity));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Measurement".to_string())
        .chain(fractions.iter().map(|f| format!("n={}", ((samples as f64) * f) as usize)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &rows);

    println!("\n== Figure 4 (right): surrogate R² vs #samples ==");
    let mut rows = Vec::new();
    for &m in &MeasureKind::ALL {
        let mut row = vec![m.label().to_string()];
        for &frac in &fractions {
            let n_sub = ((samples as f64) * frac) as usize;
            let p = points
                .iter()
                .find(|p| p.measure == m.label() && p.n_samples == n_sub)
                .expect("computed");
            row.push(format!("{:.3}", p.r2));
        }
        rows.push(row);
    }
    print_table(&header_refs, &rows);

    print_exec_summary(&exec);
    save_json_with_exec("fig4_sensitivity", &points, &exec);
}
