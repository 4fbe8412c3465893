#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Ablation studies for the design choices DESIGN.md §6 calls out —
//! beyond the paper's own tables, these justify the defaults this
//! implementation ships with:
//!
//! 1. SMAC's interleaved random configurations (on vs off);
//! 2. categorical encoding: Hamming kernel vs ordinal RBF on a
//!    heterogeneous space (the §6.2.2 mechanism, isolated);
//! 3. TuRBO trust-region restarts (on vs off);
//! 4. failure handling: worst-seen substitution vs discarding crashes;
//! 5. RGPE ensemble vs naive observation pooling on a *dissimilar*
//!    source (negative-transfer resistance).
//!
//! Arguments: `samples=6250 iters=120 seeds=2 workers= cache=on`.
//! The dissimilar-source session (a pre-step the negative-transfer
//! group depends on) stays sequential; the ten ablation variants then
//! fan out over the executor as a (variant × seed) grid.

use dbtune_bench::{
    full_pool, pct, print_exec_summary, print_table, save_json_with_exec, top_k_knobs, ExpArgs,
    GridOpts,
};
use dbtune_core::exec::{run_grid, EvalCache};
use dbtune_core::importance::MeasureKind;
use dbtune_core::optimizer::{
    BoKind, BoOptimizer, Optimizer, Smac, SmacParams, Turbo, TurboParams,
};
use dbtune_core::space::TuningSpace;
use dbtune_core::transfer::{BaseKind, MappedOptimizer, RgpeOptimizer, SourceTask, SurrogateKind};
use dbtune_core::tuner::{run_session, FailurePolicy, SessionConfig, SessionResult};
use dbtune_dbsim::{DbSimulator, Hardware, KnobCatalog, Workload};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Finding {
    ablation: String,
    variant: String,
    median_improvement: f64,
}

#[allow(clippy::too_many_arguments, reason = "experiment knobs enumerated on purpose")]
fn session(
    wl: Workload,
    space: &TuningSpace,
    opt: &mut dyn Optimizer,
    iters: usize,
    seed: u64,
    policy: FailurePolicy,
    cache: Option<Arc<EvalCache>>,
    opts: &GridOpts,
    index: usize,
) -> SessionResult {
    let sim = DbSimulator::new(wl, Hardware::B, seed);
    let mut obj = opts.cell_objective(sim, cache, index);
    run_session(
        &mut obj,
        space,
        opt,
        &SessionConfig {
            iterations: iters,
            lhs_init: 10,
            seed,
            failure_policy: policy,
            ..Default::default()
        },
    )
}

fn main() {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse();
    let samples = args.get_size("samples", 6250);
    let iters = args.get_size("iters", 120);
    let seeds = args.get_size("seeds", 2);

    let catalog: KnobCatalog = KnobCatalog::mysql57();
    let pool = full_pool(Workload::Sysbench, samples, 7);
    let top20 = top_k_knobs(MeasureKind::Shap, &catalog, &pool, 20, 11);
    let sys_space = TuningSpace::with_default_base(&catalog, top20.clone(), Hardware::B);

    // ---- Pre-steps shared by the ablation groups -------------------------
    // 2. categorical encoding: a heterogeneous JOB space.
    let job_pool = full_pool(Workload::Job, samples, 7);
    let job_scores = dbtune_bench::importance_scores(MeasureKind::Shap, &catalog, &job_pool, 11);
    let mut cats: Vec<usize> = catalog.categorical_indices();
    cats.sort_by(|&a, &b| dbtune_core::ord::cmp_score_desc(&job_scores[a], &job_scores[b]));
    cats.truncate(5);
    let mut ints: Vec<usize> = catalog.integer_indices();
    ints.sort_by(|&a, &b| dbtune_core::ord::cmp_score_desc(&job_scores[a], &job_scores[b]));
    ints.truncate(15);
    let mut hetero = cats;
    hetero.extend(ints);
    let het_space = TuningSpace::with_default_base(&catalog, hetero, Hardware::B);

    // 4. failure handling: a space containing the crash-prone memory knobs.
    let mut crashy = top20.clone();
    for name in ["innodb_buffer_pool_size", "tmp_table_size", "innodb_thread_concurrency"] {
        let i = catalog.expect_index(name);
        if !crashy.contains(&i) {
            crashy.push(i);
        }
    }
    let crashy_space = TuningSpace::with_default_base(&catalog, crashy, Hardware::B);

    // 5. negative transfer: JOB (analytical, latency scores) projected
    // onto the OLTP space — deliberately unrelated history. Sequential:
    // the grid depends on this source run.
    let mut src_sim = DbSimulator::new(Workload::Job, Hardware::B, 77);
    let mut src_opt = Smac::new(sys_space.space().clone(), SmacParams::default(), 77);
    let src_run = run_session(
        &mut src_sim,
        &sys_space,
        &mut src_opt,
        &SessionConfig { iterations: 60, lhs_init: 10, seed: 77, ..Default::default() },
    );
    let dissimilar = SourceTask {
        name: "JOB".into(),
        x: src_run.observations.iter().map(|o| o.config.clone()).collect(),
        y: src_run.observations.iter().map(|o| o.score).collect(),
        metrics: src_run.observations.iter().map(|o| o.metrics.clone()).collect(),
    };

    // ---- The ablation grid: (variant × seed) ------------------------------
    enum Kind {
        SmacInterleave { every: usize },
        CatEncoding { bo: BoKind },
        TurboRestarts { length_min: f64 },
        Failure { policy: FailurePolicy },
        Rgpe,
        Mapped,
    }
    let variants: Vec<(&str, &str, Kind)> = vec![
        ("smac_interleave", "interleave on (default)", Kind::SmacInterleave { every: 8 }),
        ("smac_interleave", "interleave off", Kind::SmacInterleave { every: 0 }),
        (
            "categorical_encoding",
            "Hamming kernel (mixed BO)",
            Kind::CatEncoding { bo: BoKind::Mixed },
        ),
        (
            "categorical_encoding",
            "ordinal RBF (vanilla BO)",
            Kind::CatEncoding { bo: BoKind::Vanilla },
        ),
        (
            "turbo_restarts",
            "restarts on (default)",
            Kind::TurboRestarts { length_min: 0.8 * 0.5f64.powi(6) },
        ),
        ("turbo_restarts", "restarts off", Kind::TurboRestarts { length_min: 0.0 }),
        (
            "failure_handling",
            "worst-seen substitution (§4.1)",
            Kind::Failure { policy: FailurePolicy::WorstSeen },
        ),
        ("failure_handling", "discard failures", Kind::Failure { policy: FailurePolicy::Discard }),
        ("negative_transfer", "RGPE (adaptive weights)", Kind::Rgpe),
        ("negative_transfer", "workload mapping (forced pooling)", Kind::Mapped),
    ];
    let mut grid: Vec<(usize, u64)> = Vec::new();
    for vi in 0..variants.len() {
        for s in 0..seeds {
            grid.push((vi, 4000 + s as u64));
        }
    }

    let opts = GridOpts::from_args("ablations", &args, 4000);
    let cache = opts.make_cache();
    let improvements = run_grid(&grid, opts.workers, |index, &(vi, seed)| {
        let run = |wl: Workload, space: &TuningSpace, opt: &mut dyn Optimizer, policy| {
            session(wl, space, opt, iters, seed, policy, cache.clone(), &opts, index)
                .best_improvement()
        };
        match &variants[vi].2 {
            Kind::SmacInterleave { every } => {
                let mut opt = Smac::new(
                    sys_space.space().clone(),
                    SmacParams { random_interleave_every: *every, ..Default::default() },
                    seed,
                );
                run(Workload::Sysbench, &sys_space, &mut opt, FailurePolicy::WorstSeen)
            }
            Kind::CatEncoding { bo } => {
                let mut opt = BoOptimizer::new(het_space.space().clone(), *bo);
                run(Workload::Job, &het_space, &mut opt, FailurePolicy::WorstSeen)
            }
            Kind::TurboRestarts { length_min } => {
                let mut opt = Turbo::new(
                    sys_space.space().clone(),
                    TurboParams { length_min: *length_min, ..Default::default() },
                );
                run(Workload::Sysbench, &sys_space, &mut opt, FailurePolicy::WorstSeen)
            }
            Kind::Failure { policy } => {
                let mut opt = Smac::new(crashy_space.space().clone(), SmacParams::default(), seed);
                run(Workload::Sysbench, &crashy_space, &mut opt, *policy)
            }
            Kind::Rgpe => {
                let mut opt = RgpeOptimizer::new(
                    sys_space.space().clone(),
                    SurrogateKind::RandomForest,
                    std::slice::from_ref(&dissimilar),
                    seed,
                );
                run(Workload::Sysbench, &sys_space, &mut opt, FailurePolicy::WorstSeen)
            }
            Kind::Mapped => {
                let mut opt = MappedOptimizer::new(
                    sys_space.space().clone(),
                    BaseKind::Smac,
                    vec![dissimilar.clone()],
                    seed,
                );
                run(Workload::Sysbench, &sys_space, &mut opt, FailurePolicy::WorstSeen)
            }
        }
    });
    let exec = opts.report(cache.as_ref());

    let mut findings: Vec<Finding> = Vec::new();
    for ((ablation, variant, _), chunk) in variants.iter().zip(improvements.chunks(seeds)) {
        let v = dbtune_bench::median(chunk);
        println!("[{ablation}] {variant}: {}", pct(v));
        findings.push(Finding {
            ablation: ablation.to_string(),
            variant: variant.to_string(),
            median_improvement: v,
        });
    }

    println!("\n== Ablation summary (median best improvement) ==");
    let rows: Vec<Vec<String>> = findings
        .iter()
        .map(|f| vec![f.ablation.clone(), f.variant.clone(), pct(f.median_improvement)])
        .collect();
    print_table(&["Ablation", "Variant", "Improvement"], &rows);

    print_exec_summary(&exec);
    save_json_with_exec("ablations", &findings, &exec);
}
