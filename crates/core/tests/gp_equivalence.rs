//! Numeric-equivalence suite for the GP/acquisition hot path.
//!
//! The overhaul (incremental Cholesky via `rank1_append`, cached kernel
//! blocks, batched prediction and batched acquisition scoring) is pure
//! optimization: every result must be **bit-identical** to the historical
//! from-scratch / pointwise implementations. This suite pins that down at
//! three levels:
//!
//! 1. model level — `Kernel::eval_into` vs `eval`, `GaussianProcess::
//!    extend` vs `fit`, `predict_batch` vs looped `predict`, over all
//!    three kernels;
//! 2. search level — `maximize_batched` vs `maximize` under GP- and
//!    forest-backed scoring closures;
//! 3. optimizer level — `BoOptimizer::suggest` (incremental + batched)
//!    vs a from-scratch reference replay of the historical suggest loop,
//!    RNG stream and all.

use dbtune_core::acquisition::{expected_improvement, maximize, maximize_batched};
use dbtune_core::gp::{
    select_hyperparams, GaussianProcess, Kernel, Matern52Kernel, MixedKernel, RbfKernel,
};
use dbtune_core::optimizer::{BoKind, BoOptimizer, ObsStore, Optimizer};
use dbtune_core::space::ConfigSpace;
use dbtune_dbsim::knob::KnobSpec;
use dbtune_linalg::Matrix;
use dbtune_ml::{RandomForest, RandomForestParams, Regressor, UncertainRegressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One prototype kernel per family, over 3-dim inputs with dim 2
/// categorical (codes 0..4). The mixed kernel exercises both parts.
fn kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    vec![
        ("rbf", Box::new(RbfKernel { lengthscale: 0.25 })),
        ("matern52", Box::new(Matern52Kernel { lengthscale: 0.25 })),
        (
            "mixed",
            Box::new(MixedKernel {
                cont_dims: vec![0, 1],
                cat_dims: vec![2],
                lengthscale: 0.25,
                hamming_weight: 2.0,
            }),
        ),
    ]
}

fn sample_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> =
        (0..n).map(|_| vec![rng.gen(), rng.gen(), rng.gen_range(0..4) as f64]).collect();
    let y: Vec<f64> =
        x.iter().map(|v| (v[0] * 5.0).sin() + v[1] * v[1] - 0.2 * v[2] + 40.0).collect();
    (x, y)
}

fn assert_bits_eq(a: (f64, f64), b: (f64, f64), context: &str) {
    assert_eq!(a.0.to_bits(), b.0.to_bits(), "mean bits differ: {context}");
    assert_eq!(a.1.to_bits(), b.1.to_bits(), "variance bits differ: {context}");
}

/// Every kernel shape `eval_into` must handle over 3-dim inputs: the
/// three families, a mixed kernel without categorical dims (whose Hamming
/// factor is 1.0, not `exp(0/0)`), one without continuous dims, and one
/// whose mismatch count outgrows the Hamming table (a repeated dim).
fn row_kernels() -> Vec<(&'static str, Box<dyn Kernel>)> {
    let mixed = |cont_dims: Vec<usize>, cat_dims: Vec<usize>| -> Box<dyn Kernel> {
        Box::new(MixedKernel { cont_dims, cat_dims, lengthscale: 0.25, hamming_weight: 2.0 })
    };
    let mut all = kernels();
    all.push(("mixed, no categorical dims", mixed(vec![0, 1, 2], vec![])));
    all.push(("mixed, no continuous dims", mixed(vec![], vec![0, 1, 2])));
    all.push(("mixed, 70 categorical dims", mixed(vec![1, 0], vec![2; 70])));
    all
}

/// Same bits, or both NaN: Rust leaves the sign and payload of a NaN
/// result unspecified.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval_into` over the first `m` training points equals `eval` on
    /// each of them, for every `m` up to `n` — full eight-point blocks,
    /// partial blocks and none — with NaN in a training input, in the
    /// query, or nowhere.
    #[test]
    fn eval_into_matches_eval_bitwise(
        n in 0usize..20, seed in 0u64..1_000_000, nan in 0u32..3, ls in 0.05f64..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let point =
            |rng: &mut StdRng| vec![rng.gen(), rng.gen(), rng.gen_range(0..4) as f64];
        let mut x: Vec<Vec<f64>> = (0..n).map(|_| point(&mut rng)).collect();
        let mut q = point(&mut rng);
        if nan == 1 && n > 0 {
            x[rng.gen_range(0..n)][rng.gen_range(0..3usize)] = f64::NAN;
        } else if nan == 2 {
            q[rng.gen_range(0..3usize)] = f64::NAN;
        }
        let xt = Matrix::from_rows(&x).transpose();
        for (name, kernel) in row_kernels() {
            let kernel = kernel.with_lengthscale(ls);
            for m in 0..=n {
                let mut out = vec![f64::NAN; m];
                kernel.eval_into(&xt, &q, &mut out);
                for (j, o) in out.iter().enumerate() {
                    let e = kernel.eval(&x[j], &q);
                    prop_assert!(same(*o, e), "{}: point {} of {}: {:e} vs eval {:e}", name, j, m, o, e);
                }
            }
        }
    }
}

/// Points with no coordinates at all: every kernel is 1.0 on them, from
/// `eval` and `eval_into` alike.
#[test]
fn eval_into_matches_eval_on_zero_dimensional_points() {
    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(RbfKernel { lengthscale: 0.3 }),
        Box::new(Matern52Kernel { lengthscale: 0.3 }),
        Box::new(MixedKernel {
            cont_dims: vec![],
            cat_dims: vec![],
            lengthscale: 0.3,
            hamming_weight: 2.0,
        }),
    ];
    let x = vec![vec![]; 11];
    let xt = Matrix::zeros(0, x.len());
    for kernel in &kernels {
        let mut out = vec![f64::NAN; x.len()];
        kernel.eval_into(&xt, &[], &mut out);
        for (o, xj) in out.iter().zip(&x) {
            assert_eq!(o.to_bits(), kernel.eval(xj, &[]).to_bits());
            assert_eq!(*o, 1.0);
        }
    }
}

#[test]
fn incremental_extend_matches_full_fit_all_kernels() {
    let (x, y) = sample_data(24, 11);
    let probes = sample_data(10, 99).0;
    for (name, kernel) in kernels() {
        for noise in [1e-6, 1e-2] {
            let full = GaussianProcess::fit(kernel.with_lengthscale(0.25), &x, &y, noise);
            let mut inc =
                GaussianProcess::fit(kernel.with_lengthscale(0.25), &x[..2], &y[..2], noise);
            for i in 2..x.len() {
                inc.extend(x[i].clone(), y[i]);
            }
            assert_eq!(inc.n_train(), full.n_train());
            assert_eq!(
                inc.jitter().to_bits(),
                full.jitter().to_bits(),
                "jitter state diverged for {name}"
            );
            for q in &probes {
                assert_bits_eq(full.predict(q), inc.predict(q), &format!("{name}, noise {noise}"));
            }
        }
    }
}

#[test]
fn predict_batch_matches_pointwise_all_kernels() {
    let (x, y) = sample_data(20, 5);
    let queries = sample_data(40, 77).0;
    for (name, kernel) in kernels() {
        // fit_auto exercises grid-selected hyper-parameters too.
        let gp = GaussianProcess::fit_auto(kernel.with_lengthscale(0.25), &x, &y);
        let batch = gp.predict_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(batch) {
            assert_bits_eq(gp.predict(q), b, name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incremental == from-scratch on arbitrary data, arbitrary split
    /// points, and both smooth kernels, to the bit.
    #[test]
    fn extend_equals_fit_on_random_data(
        raw in proptest::collection::vec((0u32..64, -50i32..50), 4..24),
        start in 1usize..6,
        matern in 0u32..2,
    ) {
        let x: Vec<Vec<f64>> = raw.iter().map(|(v, _)| vec![*v as f64 / 63.0]).collect();
        let y: Vec<f64> = raw.iter().map(|(_, t)| *t as f64 / 10.0).collect();
        let start = start.min(x.len() - 1);
        let kernel: Box<dyn Kernel> = if matern == 1 {
            Box::new(Matern52Kernel { lengthscale: 0.3 })
        } else {
            Box::new(RbfKernel { lengthscale: 0.3 })
        };
        let full = GaussianProcess::fit(kernel.with_lengthscale(0.3), &x, &y, 1e-4);
        let mut inc = GaussianProcess::fit(
            kernel.with_lengthscale(0.3), &x[..start], &y[..start], 1e-4,
        );
        for i in start..x.len() {
            inc.extend(x[i].clone(), y[i]);
        }
        prop_assert_eq!(inc.jitter().to_bits(), full.jitter().to_bits());
        for q in [&[0.1][..], &[0.5], &[0.9], &[2.0]] {
            let (mf, vf) = full.predict(q);
            let (mi, vi) = inc.predict(q);
            prop_assert_eq!(mf.to_bits(), mi.to_bits(), "mean drift at {:?}", q);
            prop_assert_eq!(vf.to_bits(), vi.to_bits(), "variance drift at {:?}", q);
        }
    }
}

fn mixed_space() -> ConfigSpace {
    ConfigSpace::new(vec![
        KnobSpec::real("a", 0.0, 1.0, false, 0.5),
        KnobSpec::int("b", 1, 1000, true, 10),
        KnobSpec::cat("c", vec!["x", "y", "z", "w"], 0),
    ])
}

/// `maximize_batched` must return the exact configuration `maximize`
/// returns for the same scoring function and RNG seed — same candidate
/// stream, same first-strict-max tie-breaks, same polish trajectory.
#[test]
fn maximize_batched_matches_pointwise_maximize_under_gp_scoring() {
    let space = mixed_space();
    let (x, y) = sample_data(16, 21);
    let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.3 }), &x, &y, 1e-4);
    let best = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let incumbents: Vec<Vec<f64>> = vec![vec![0.4, 12.0, 1.0], vec![0.9, 640.0, 3.0]];
    for seed in [1u64, 7, 42, 1234] {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let enc = |space: &ConfigSpace, raw: &[f64]| space.to_unit(raw);
        let a = maximize(
            &space,
            |raw| {
                let (m, v) = gp.predict(&enc(&space, raw));
                expected_improvement(m, v, best, 0.01)
            },
            &incumbents,
            128,
            &mut rng_a,
        );
        let b = maximize_batched(
            &space,
            |raws| {
                let encoded: Vec<Vec<f64>> = raws.iter().map(|r| enc(&space, r)).collect();
                gp.predict_batch(&encoded)
                    .into_iter()
                    .map(|(m, v)| expected_improvement(m, v, best, 0.01))
                    .collect()
            },
            &incumbents,
            128,
            &mut rng_b,
        );
        assert_eq!(a.len(), b.len());
        for (d, (va, vb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "seed {seed}: dim {d} differs ({va} vs {vb})");
        }
        // The two searches must also leave their RNGs in the same state.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams diverged at seed {seed}");
    }
}

/// Same exactness for SMAC-style forest scoring (`predict_with_variance`
/// pointwise vs the batched forest path).
#[test]
fn maximize_batched_matches_pointwise_under_forest_scoring() {
    let space = mixed_space();
    let mut rng = StdRng::seed_from_u64(3);
    let x: Vec<Vec<f64>> = (0..40)
        .map(|_| vec![rng.gen::<f64>(), rng.gen_range(1..=1000) as f64, rng.gen_range(0..4) as f64])
        .collect();
    let y: Vec<f64> = x.iter().map(|v| v[0] * 2.0 - (v[1] / 500.0 - 1.0).abs() + v[2]).collect();
    let mut rf = RandomForest::new(RandomForestParams::surrogate(3, 17), space.feature_kinds());
    rf.fit(&x, &y);
    let best = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for seed in [2u64, 19, 301] {
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let a = maximize(
            &space,
            |raw| {
                let (m, v) = rf.predict_with_variance(raw);
                expected_improvement(m, v, best, 0.01)
            },
            &[x[0].clone()],
            96,
            &mut rng_a,
        );
        let b = maximize_batched(
            &space,
            |raws| {
                rf.predict_with_variance_batch(raws)
                    .into_iter()
                    .map(|(m, v)| expected_improvement(m, v, best, 0.01))
                    .collect()
            },
            &[x[0].clone()],
            96,
            &mut rng_b,
        );
        for (d, (va, vb)) in a.iter().zip(&b).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "seed {seed}: dim {d} differs");
        }
    }
}

/// Replays the historical BO suggest loop — fresh `GaussianProcess::fit`
/// every iteration, pointwise `maximize` — with its own RNG, and checks
/// `BoOptimizer` (incremental extend + batched scoring) emits the
/// bit-identical suggestion stream across hyper-parameter re-selections
/// (every 10 observations) and both kernel flavours.
#[test]
fn bo_suggest_stream_matches_from_scratch_reference() {
    for kind in [BoKind::Vanilla, BoKind::Mixed] {
        let space = mixed_space();
        let objective = |c: &[f64]| {
            -(c[0] - 0.7).powi(2) - ((c[1] - 300.0) / 1000.0).powi(2)
                + if c[2] == 2.0 { 0.5 } else { 0.0 }
        };

        let encode = |raw: &[f64]| -> Vec<f64> {
            match kind {
                BoKind::Vanilla => space.to_unit(raw),
                BoKind::Mixed => raw
                    .iter()
                    .zip(space.specs())
                    .map(|(v, s)| if s.domain.is_categorical() { *v } else { s.domain.to_unit(*v) })
                    .collect(),
            }
        };
        let kernel = || -> Box<dyn Kernel> {
            match kind {
                BoKind::Vanilla => Box::new(RbfKernel { lengthscale: 0.3 }),
                BoKind::Mixed => Box::new(MixedKernel {
                    cont_dims: space.numeric_dims(),
                    cat_dims: space.categorical_dims(),
                    lengthscale: 0.3,
                    hamming_weight: 2.0,
                }),
            }
        };

        let mut opt = BoOptimizer::new(space.clone(), kind);
        opt.n_candidates = 64;
        let mut rng_opt = StdRng::seed_from_u64(4242);

        let mut obs = ObsStore::default();
        let mut hp_cache: Option<(f64, f64, usize)> = None;
        let mut rng_ref = StdRng::seed_from_u64(4242);

        for iter in 0..26 {
            // Reference replay of the historical suggest.
            let reference = if obs.len() < 2 {
                space.sample(&mut rng_ref)
            } else {
                let x_enc: Vec<Vec<f64>> = obs.x.iter().map(|c| encode(c)).collect();
                let n = obs.len();
                let (ls, noise) = match hp_cache {
                    Some((ls, noise, at)) if n < at + 10 => (ls, noise),
                    _ => {
                        let hp = select_hyperparams(kernel().as_ref(), &x_enc, &obs.y);
                        hp_cache = Some((hp.0, hp.1, n));
                        hp
                    }
                };
                let gp = GaussianProcess::fit(kernel().with_lengthscale(ls), &x_enc, &obs.y, noise);
                let best = obs.best_score().expect("nonempty");
                let incumbents: Vec<Vec<f64>> =
                    obs.top_k(3).into_iter().map(|i| obs.x[i].clone()).collect();
                maximize(
                    &space,
                    |raw| {
                        let (m, v) = gp.predict(&encode(raw));
                        expected_improvement(m, v, best, 0.01)
                    },
                    &incumbents,
                    64,
                    &mut rng_ref,
                )
            };

            let suggested = opt.suggest(&mut rng_opt);
            for (d, (vs, vr)) in suggested.iter().zip(&reference).enumerate() {
                assert_eq!(
                    vs.to_bits(),
                    vr.to_bits(),
                    "{kind:?} iter {iter}: dim {d} diverged ({vs} vs {vr})"
                );
            }

            let score = objective(&suggested);
            opt.observe(&suggested, score, &[]);
            obs.push(&reference, score);
        }
    }
}
