//! Fixed-input replay probes: each times one public layer function on
//! fixed inputs (or on configurations replayed from a traced pass) and
//! reports the fastest of a few repetitions, so one number tracks one
//! layer whatever the workload and seed around it do.

use crate::report::Metric;
use crate::workloads::{Size, SESSION_SEED};
use dbtune_core::acquisition::{expected_improvement, maximize_batched};
use dbtune_core::exec::{cell_seed, DeterministicObjective, EvalCache};
use dbtune_core::gp::{select_hyperparams, GaussianProcess, Kernel, RbfKernel};
use dbtune_core::importance::{ImportanceInput, ImportanceMeasure, ShapImportance};
use dbtune_core::optimizer::OptimizerKind;
use dbtune_core::sampling;
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::orient;
use dbtune_dbsim::{DbSimulator, Domain, Hardware, Workload as DbWorkload, METRICS_DIM};
use dbtune_linalg::{Cholesky, Matrix};
use dbtune_ml::{
    Activation, FeatureKind, GradientBoosting, GradientBoostingParams, Mlp, MlpParams,
    RandomForest, RandomForestParams, Regressor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// History sizes of the GP, acquisition and Fig. 9 probes.
const GP_N: [usize; 3] = [50, 100, 200];

/// GP optimizers plus SMAC, whose flat curve is the paper's contrast.
const FIG9_KINDS: [OptimizerKind; 4] = [
    OptimizerKind::VanillaBo,
    OptimizerKind::MixedKernelBo,
    OptimizerKind::Turbo,
    OptimizerKind::Smac,
];

/// Seconds of the fastest of `reps` runs of `run` on a fresh `prepare()`d
/// input each; preparation is not timed.
fn fastest<S, T>(reps: usize, mut prepare: impl FnMut() -> S, mut run: impl FnMut(S) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let input = prepare();
        let t = Instant::now();
        black_box(run(input));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// An evaluated LHS history over the first `knobs` catalog knobs of JOB.
struct History {
    space: TuningSpace,
    raw: Vec<Vec<f64>>,
    unit: Vec<Vec<f64>>,
    y: Vec<f64>,
}

/// Maximize-oriented scores of `configs` on `sim`, with crashes taking
/// the worst score seen so far (the tuner's §4.1 convention).
fn scores(sim: &DbSimulator, full: &[Vec<f64>]) -> Vec<f64> {
    let obj = sim.objective();
    let reference = sim.expected_value(sim.default_config()).expect("the default never crashes");
    let mut worst = orient(obj, reference) - 1.0;
    full.iter()
        .enumerate()
        .map(|(i, cfg)| {
            let out = sim.evaluate_seeded(cfg, cell_seed(SESSION_SEED, i));
            let score = if out.failed { worst } else { orient(obj, out.value) };
            worst = worst.min(score);
            score
        })
        .collect()
}

fn history(knobs: usize, n: usize) -> History {
    let sim = DbSimulator::new(DbWorkload::Job, Hardware::B, SESSION_SEED);
    let space = TuningSpace::with_default_base(sim.catalog(), (0..knobs).collect(), Hardware::B);
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let raw = sampling::lhs(space.space(), n, &mut rng);
    let full: Vec<Vec<f64>> = raw.iter().map(|c| space.full_config(c)).collect();
    let y = scores(&sim, &full);
    let unit = raw.iter().map(|c| space.space().to_unit(c)).collect();
    History { space, raw, unit, y }
}

/// Raw candidates the way the optimizers build their pools: `n_random`
/// uniform samples plus 16 neighbours of each of the `top` best
/// configurations.
fn candidate_pool(h: &History, n: usize, n_random: usize, top: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let mut pool: Vec<Vec<f64>> = (0..n_random).map(|_| h.space.space().sample(&mut rng)).collect();
    for inc in incumbents(h, n, top) {
        for _ in 0..16 {
            pool.push(h.space.space().neighbour(&inc, 0.1, &mut rng));
        }
    }
    pool
}

fn incumbents(h: &History, n: usize, top: usize) -> Vec<Vec<f64>> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| h.y[b].total_cmp(&h.y[a]));
    idx.into_iter().take(top).map(|i| h.raw[i].clone()).collect()
}

fn kernel_matrix(kernel: &dyn Kernel, x: &[Vec<f64>], noise: f64) -> Matrix {
    let mut k = Matrix::from_fn(x.len(), x.len(), |i, j| kernel.eval(&x[i], &x[j]));
    k.add_diagonal(noise);
    k
}

/// Cholesky, GP, acquisition and Fig. 9 probes on a 20-knob JOB history.
fn gp_probes(reps: usize, out: &mut Vec<Metric>) {
    let n_max = GP_N[GP_N.len() - 1];
    let h = history(20, n_max);
    let rbf = RbfKernel { lengthscale: 0.3 };
    for n in GP_N {
        let (x, y) = (&h.unit[..n], &h.y[..n]);
        let (ls, noise) = select_hyperparams(&rbf, x, y);
        let kernel = RbfKernel { lengthscale: ls };
        let k = kernel_matrix(&kernel, x, noise);
        let chol = fastest(reps, || (), |_| Cholesky::decompose_with_jitter(&k, 1e-8, 12));
        out.push(Metric::new(format!("linalg.cholesky.n{n}_us"), chol * 1e6, "us"));
        let select = fastest(reps, || (), |_| select_hyperparams(&rbf, x, y));
        out.push(Metric::new(format!("gp.select_hyperparams.n{n}_ms"), select * 1e3, "ms"));
        let fit =
            fastest(reps, || (), |_| GaussianProcess::fit(Box::new(kernel.clone()), x, y, noise));
        out.push(Metric::new(format!("gp.fit.n{n}_ms"), fit * 1e3, "ms"));

        let gp = GaussianProcess::fit(Box::new(kernel.clone()), x, y, noise);
        // Vanilla BO's pool: 512 random candidates plus 16 neighbours of
        // each of the 3 best configurations.
        let pool: Vec<Vec<f64>> =
            candidate_pool(&h, n, 512, 3).iter().map(|c| h.space.space().to_unit(c)).collect();
        let predict = fastest(reps, || (), |_| gp.predict_batch(&pool));
        out.push(Metric::new(format!("gp.predict_batch.n{n}_ms"), predict * 1e3, "ms"));

        let best = y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let inc = incumbents(&h, n, 3);
        let space = h.space.space();
        let acq = fastest(
            reps,
            || StdRng::seed_from_u64(SESSION_SEED),
            |mut rng| {
                let score = |raws: &[Vec<f64>]| {
                    let enc: Vec<Vec<f64>> = raws.iter().map(|r| space.to_unit(r)).collect();
                    gp.predict_batch(&enc)
                        .into_iter()
                        .map(|(m, v)| expected_improvement(m, v, best, 0.01))
                        .collect()
                };
                maximize_batched(space, score, &inc, 512, &mut rng)
            },
        );
        out.push(Metric::new(format!("acq.maximize_batched.n{n}_ms"), acq * 1e3, "ms"));

        if n == n_max {
            let m = n - 1;
            let (xm, ym) = (&h.unit[..m], &h.y[..m]);
            let base =
                Cholesky::decompose_with_jitter(&kernel_matrix(&kernel, xm, noise), 1e-8, 12)
                    .expect("jitter ladder factors the probe covariance")
                    .0;
            let row: Vec<f64> = k.row(m).to_vec();
            let append = fastest(reps, || base.clone(), |mut c| c.rank1_append(&row));
            out.push(Metric::new(format!("linalg.rank1_append.n{n}_us"), append * 1e6, "us"));
            let extend = fastest(
                reps,
                || GaussianProcess::fit(Box::new(kernel.clone()), xm, ym, noise),
                |mut gp| gp.extend(h.unit[m].clone(), h.y[m]),
            );
            out.push(Metric::new(format!("gp.extend.n{n}_us"), extend * 1e6, "us"));
        }
    }

    // Fig. 9: one decision after `n` observations, from a fresh optimizer
    // fed the same history.
    for kind in FIG9_KINDS {
        for n in GP_N {
            let suggest = fastest(
                reps,
                || {
                    let mut opt = kind.build(h.space.space(), METRICS_DIM, SESSION_SEED);
                    for (cfg, &score) in h.raw[..n].iter().zip(&h.y) {
                        opt.observe(cfg, score, &[]);
                    }
                    (opt, StdRng::seed_from_u64(SESSION_SEED))
                },
                |(mut opt, mut rng)| opt.suggest(&mut rng),
            );
            let name = format!("fig9.{}.suggest_ms.n{n}", kind.slug());
            out.push(Metric::new(name, suggest * 1e3, "ms"));
        }
    }
}

/// The `knob_service` pool: an LHS sample over all 197 knobs of JOB.
fn knob_pool(n: usize) -> (DbSimulator, Vec<Vec<f64>>, Vec<f64>) {
    let sim = DbSimulator::new(DbWorkload::Job, Hardware::B, SESSION_SEED);
    let all = TuningSpace::new(
        sim.catalog(),
        (0..sim.catalog().len()).collect(),
        sim.default_config().to_vec(),
    );
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let x = sampling::lhs(all.space(), n, &mut rng);
    let y = scores(&sim, &x);
    (sim, x, y)
}

/// Forest, boosting, MLP and SHAP probes.
fn ml_probes(size: Size, reps: usize, out: &mut Vec<Metric>) {
    // SMAC's surrogate on a 150-observation, 10-knob history.
    let h = history(10, 150);
    let params = RandomForestParams::surrogate(h.space.dim(), SESSION_SEED);
    let kinds = h.space.space().feature_kinds();
    let fit_forest = || {
        let mut rf = RandomForest::new(params.clone(), kinds.clone());
        rf.fit(&h.raw, &h.y);
        rf
    };
    let fit = fastest(reps, || (), |_| fit_forest());
    out.push(Metric::new("ml.forest_fit.n150_ms", fit * 1e3, "ms"));
    let rf = fit_forest();
    let pool = candidate_pool(&h, h.raw.len(), 400, 10);
    let predict = fastest(reps, || (), |_| rf.predict_with_variance_batch(&pool));
    out.push(Metric::new("ml.forest_predict_batch.n150_us", predict * 1e6, "us"));

    // DDPG's critic on a 12-knob space: metrics plus action in, Q out.
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..METRICS_DIM + 12).map(|_| rand::Rng::gen::<f64>(&mut rng)).collect())
        .collect();
    const STEPS: usize = 256;
    let step = fastest(
        reps,
        || {
            Mlp::new(MlpParams {
                input_dim: METRICS_DIM + 12,
                hidden: vec![64, 64],
                output_dim: 1,
                hidden_activation: Activation::Relu,
                output_activation: Activation::Linear,
                learning_rate: 1e-3,
                seed: SESSION_SEED,
            })
        },
        |mut mlp| {
            for i in 0..STEPS {
                mlp.train_step(&inputs[i % inputs.len()], &[0.5]);
            }
            mlp
        },
    );
    out.push(Metric::new("ml.mlp_train_step_us", step / STEPS as f64 * 1e6, "us"));

    // SHAP's booster and the SHAP measurement itself on the knob-selection
    // pool. One repetition each: these are the slowest probes.
    let (sim, x, y) = knob_pool(size.pool_samples());
    let specs = sim.catalog().specs();
    let kinds: Vec<FeatureKind> = specs
        .iter()
        .map(|s| match &s.domain {
            Domain::Cat { choices } => FeatureKind::Categorical { cardinality: choices.len() },
            _ => FeatureKind::Continuous,
        })
        .collect();
    let split = x.len() * 3 / 4;
    let gbdt = fastest(
        1,
        || (),
        |_| {
            let mut gb = GradientBoosting::new(
                GradientBoostingParams {
                    n_stages: 320,
                    learning_rate: 0.1,
                    max_depth: 4,
                    min_samples_leaf: 10,
                    subsample: 0.7,
                    seed: SESSION_SEED,
                },
                kinds.clone(),
            );
            gb.fit_with_validation(&x[..split], &y[..split], &x[split..], &y[split..], 20);
            gb
        },
    );
    out.push(Metric::new("ml.gbdt_fit.pool_ms", gbdt * 1e3, "ms"));
    let input =
        ImportanceInput { specs, default: sim.default_config(), x: &x, y: &y, seed: SESSION_SEED };
    let shap = fastest(1, || (), |_| ShapImportance::default().scores(&input));
    out.push(Metric::new("importance.shap.pool_s", shap, "s"));
}

/// Simulator and cache probes replaying the configurations a traced pass
/// evaluated.
fn replay_probes(reps: usize, replay: &[(DbWorkload, Vec<f64>)], out: &mut Vec<Metric>) {
    let mut sims: Vec<DbSimulator> = Vec::new();
    let index: Vec<usize> = replay
        .iter()
        .map(|(w, _)| match sims.iter().position(|s| s.workload() == *w) {
            Some(i) => i,
            None => {
                sims.push(DbSimulator::new(*w, Hardware::B, SESSION_SEED));
                sims.len() - 1
            }
        })
        .collect();
    let n = replay.len().max(1) as f64;
    let crashes = || {
        replay
            .iter()
            .zip(&index)
            .enumerate()
            .filter(|(i, ((_, cfg), &s))| {
                sims[s].evaluate_seeded(cfg, cell_seed(SESSION_SEED, *i)).failed
            })
            .count()
    };
    out.push(Metric::new("dbsim.crash_ratio", crashes() as f64 / n, "ratio"));
    let eval = fastest(reps, || (), |_| crashes());
    out.push(Metric::new("dbsim.evaluate_seeded_us", eval / n * 1e6, "us"));

    let cache = EvalCache::new();
    let keys: Vec<_> = replay
        .iter()
        .zip(&index)
        .map(|((_, cfg), &s)| {
            let key = sims[s].cache_key(cfg);
            cache.lookup_or_compute(&key, || sims[s].evaluate_pure(cfg, key.fingerprint()));
            (key, s, cfg)
        })
        .collect();
    let lookup = fastest(
        reps,
        || (),
        |_| {
            keys.iter()
                .filter(|(key, s, cfg)| {
                    cache
                        .lookup_or_compute(key, || sims[*s].evaluate_pure(cfg, key.fingerprint()))
                        .1
                })
                .count()
        },
    );
    out.push(Metric::new("exec.cache.hit_lookup_us", lookup / n * 1e6, "us"));
}

/// Runs every probe. `replay` holds the configurations of the traced
/// pass, with the workload each was evaluated on.
pub fn run_probes(size: Size, replay: &[(DbWorkload, Vec<f64>)]) -> Vec<Metric> {
    let reps = match size {
        Size::Full => 5,
        Size::Smoke => 1,
    };
    let mut out = Vec::new();
    replay_probes(reps, replay, &mut out);
    gp_probes(reps, &mut out);
    ml_probes(size, reps, &mut out);
    out
}
