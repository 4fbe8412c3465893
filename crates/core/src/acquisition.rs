//! Acquisition functions and their optimization.
//!
//! Expected Improvement (the paper's acquisition for every BO variant) over
//! any surrogate exposing `(mean, variance)`, maximized by random candidate
//! sampling plus local refinement around the incumbents — the standard
//! gradient-free scheme that works uniformly across continuous,
//! heterogeneous, and tree-based surrogates.

use crate::space::ConfigSpace;
use rand::Rng;

/// Expected Improvement for maximization at a point with predictive
/// `(mean, var)`, given the incumbent value `best`.
///
/// `xi` is the exploration jitter (0.01 is the conventional default).
pub fn expected_improvement(mean: f64, var: f64, best: f64, xi: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    let z = (mean - best - xi) / sigma;
    let (pdf, cdf) = norm_pdf_cdf(z);
    let ei = (mean - best - xi) * cdf + sigma * pdf;
    ei.max(0.0)
}

/// Upper Confidence Bound for maximization: `μ + β·σ`.
///
/// A simple exploration/exploitation dial; `β ≈ 2` is the conventional
/// default. Used by the acquisition ablation.
pub fn upper_confidence_bound(mean: f64, var: f64, beta: f64) -> f64 {
    mean + beta * var.max(0.0).sqrt()
}

/// Probability of Improvement over the incumbent `best` (with jitter
/// `xi`): `Φ((μ − best − ξ)/σ)`. Greedier than EI — it ignores *how much*
/// improvement is expected.
pub fn probability_of_improvement(mean: f64, var: f64, best: f64, xi: f64) -> f64 {
    let sigma = var.max(1e-18).sqrt();
    let (_, cdf) = norm_pdf_cdf((mean - best - xi) / sigma);
    cdf
}

/// Standard normal pdf and cdf at `z` (Abramowitz–Stegun erf approximation).
pub fn norm_pdf_cdf(z: f64) -> (f64, f64) {
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cdf = 0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2));
    (pdf, cdf)
}

/// Error function via the A&S 7.1.26 polynomial (|ε| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Maximizes an acquisition value over a configuration space.
///
/// The search draws `n_random` uniform candidates plus 16 local
/// neighbours around each of the provided `incumbents`, scores the whole
/// pool in one `batch_score` call, and polishes the best candidate with a
/// few rounds of single-dimension moves. Batching lets surrogates amortize
/// their per-prediction setup (e.g.
/// [`crate::gp::GaussianProcess::predict_batch`] reuses its kernel-row
/// buffers across the pool); a pointwise score is a closure mapping each
/// candidate.
///
/// Scoring consumes no randomness, ties keep the *first* strict maximum
/// in generation order, and the polish phase is inherently sequential, so
/// it scores one-candidate batches. The result is therefore the same
/// configuration, to the bit, as a search that scores each candidate as
/// it is drawn; the `gp_equivalence` suite pins this against that
/// pointwise reference.
pub fn maximize_batched<F>(
    space: &ConfigSpace,
    batch_score: F,
    incumbents: &[Vec<f64>],
    n_random: usize,
    rng: &mut impl Rng,
) -> Vec<f64>
where
    F: Fn(&[Vec<f64>]) -> Vec<f64>,
{
    let mut pool = Vec::with_capacity(n_random + 16 * incumbents.len());
    for _ in 0..n_random {
        pool.push(space.sample(rng));
    }
    for inc in incumbents {
        for _ in 0..16 {
            pool.push(space.neighbour(inc, 0.1, rng));
        }
    }

    let vals = batch_score(&pool);
    assert_eq!(vals.len(), pool.len(), "batch_score must return one value per candidate");
    let mut best: Option<usize> = None;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = Some(i);
        }
    }
    let mut cur = pool
        .into_iter()
        .nth(best.expect("no candidates generated"))
        .expect("argmax index in range");
    let mut cur_val = best_val;

    // Local polish: greedy single-dimension perturbations (sequential —
    // each move depends on the previous accept/reject).
    for _ in 0..4 {
        let mut improved = false;
        for d in 0..space.dim() {
            for &step in &[0.05, 0.2] {
                let mut cand = cur.clone();
                space.mutate_dim(&mut cand, d, step, rng);
                let v = batch_score(std::slice::from_ref(&cand))[0];
                if v > cur_val {
                    cur_val = v;
                    cur = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-6);
    }

    #[test]
    fn ei_increases_with_mean_and_variance() {
        let base = expected_improvement(1.0, 1.0, 0.0, 0.0);
        assert!(expected_improvement(2.0, 1.0, 0.0, 0.0) > base);
        let low_var = expected_improvement(-1.0, 0.01, 0.0, 0.0);
        let high_var = expected_improvement(-1.0, 4.0, 0.0, 0.0);
        assert!(high_var > low_var, "exploration term missing");
    }

    #[test]
    fn ei_is_nonnegative_and_zero_certain_nonimprovement() {
        let ei = expected_improvement(-5.0, 1e-18, 0.0, 0.0);
        assert!((0.0..1e-9).contains(&ei));
    }

    #[test]
    fn ucb_orders_by_mean_and_variance() {
        assert!(upper_confidence_bound(1.0, 1.0, 2.0) > upper_confidence_bound(0.5, 1.0, 2.0));
        assert!(upper_confidence_bound(1.0, 4.0, 2.0) > upper_confidence_bound(1.0, 1.0, 2.0));
        // β = 0 is pure exploitation.
        assert_eq!(upper_confidence_bound(1.5, 9.0, 0.0), 1.5);
    }

    #[test]
    fn pi_is_a_probability_and_monotone_in_mean() {
        let p = probability_of_improvement(0.0, 1.0, 0.0, 0.0);
        assert!((p - 0.5).abs() < 1e-6, "PI at the incumbent should be 1/2: {p}");
        let hi = probability_of_improvement(2.0, 1.0, 0.0, 0.0);
        let lo = probability_of_improvement(-2.0, 1.0, 0.0, 0.0);
        assert!(hi > 0.9 && lo < 0.1);
        for m in [-3.0, 0.0, 3.0] {
            let v = probability_of_improvement(m, 2.0, 0.5, 0.01);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    /// A pointwise score lifted to the batch interface.
    fn pointwise(f: impl Fn(&[f64]) -> f64) -> impl Fn(&[Vec<f64>]) -> Vec<f64> {
        move |pool| pool.iter().map(|c| f(c)).collect()
    }

    #[test]
    fn maximize_batched_finds_peak_of_simple_function() {
        let space = ConfigSpace::new(vec![
            KnobSpec::real("a", 0.0, 1.0, false, 0.5),
            KnobSpec::real("b", 0.0, 1.0, false, 0.5),
        ]);
        let mut rng = StdRng::seed_from_u64(1);
        // Peak at (0.7, 0.3).
        let score = pointwise(|c| -((c[0] - 0.7).powi(2) + (c[1] - 0.3).powi(2)));
        let best = maximize_batched(&space, score, &[vec![0.5, 0.5]], 200, &mut rng);
        assert!((best[0] - 0.7).abs() < 0.1, "{best:?}");
        assert!((best[1] - 0.3).abs() < 0.1, "{best:?}");
    }

    #[test]
    fn maximize_batched_handles_categorical_dims() {
        let space = ConfigSpace::new(vec![KnobSpec::cat("c", vec!["a", "b", "c", "d"], 0)]);
        let mut rng = StdRng::seed_from_u64(2);
        let score = pointwise(|c| if c[0] == 2.0 { 1.0 } else { 0.0 });
        let best = maximize_batched(&space, score, &[], 50, &mut rng);
        assert_eq!(best[0], 2.0);
    }

    // ---- edge cases of the closed-form acquisitions -----------------

    #[test]
    fn ei_at_zero_variance_reduces_to_hinge() {
        // σ is floored at 1e-9 (√1e-18), so EI degenerates to the hinge
        // max(μ − best − ξ, 0): exact improvement counts, deficits do not.
        let gain = expected_improvement(2.0, 0.0, 1.0, 0.0);
        assert!((gain - 1.0).abs() < 1e-6, "certain improvement must be μ−best: {gain}");
        let loss = expected_improvement(0.5, 0.0, 1.0, 0.0);
        assert_eq!(loss, 0.0, "certain non-improvement must be exactly 0");
        // The ξ jitter shifts the hinge point.
        let jittered = expected_improvement(1.0, 0.0, 1.0, 0.01);
        assert_eq!(jittered, 0.0, "μ = best is no improvement once ξ > 0");
    }

    #[test]
    fn pi_and_ucb_at_zero_variance() {
        // PI collapses to a step function around the incumbent.
        assert!(probability_of_improvement(2.0, 0.0, 1.0, 0.0) > 1.0 - 1e-9);
        assert!(probability_of_improvement(0.5, 0.0, 1.0, 0.0) < 1e-9);
        // UCB with zero (or slightly negative, post-floor) variance is
        // pure exploitation regardless of β.
        assert_eq!(upper_confidence_bound(1.5, 0.0, 5.0), 1.5);
        assert_eq!(upper_confidence_bound(1.5, -1e-300, 5.0), 1.5);
    }

    #[test]
    fn acquisitions_are_finite_at_extreme_z() {
        // |z| ≈ 40 overflows naive exp-based formulas; ours must saturate.
        for (mean, best) in [(40.0, 0.0), (0.0, 40.0), (400.0, 0.0), (0.0, 400.0)] {
            let ei = expected_improvement(mean, 1.0, best, 0.01);
            assert!(ei.is_finite() && ei >= 0.0, "EI(μ={mean}, best={best}) = {ei}");
            let pi = probability_of_improvement(mean, 1.0, best, 0.01);
            assert!((0.0..=1.0).contains(&pi), "PI(μ={mean}, best={best}) = {pi}");
        }
        // Deep in the improvement regime EI approaches μ − best − ξ.
        let ei = expected_improvement(40.0, 1.0, 0.0, 0.0);
        assert!((ei - 40.0).abs() < 1e-6, "saturated EI should equal the mean gap: {ei}");
    }

    #[test]
    fn erf_is_odd_bounded_and_monotone() {
        for z in [0.01, 0.5, 1.0, 2.5, 6.0, 40.0] {
            let (p, n) = (erf(z), erf(-z));
            assert!((p + n).abs() < 1e-12, "erf must be odd: erf({z})={p}, erf(−{z})={n}");
            assert!(p > 0.0 && p <= 1.0, "erf({z}) out of bounds: {p}");
        }
        let mut prev = -1.0;
        for i in 0..=80 {
            let v = erf(-4.0 + i as f64 * 0.1);
            assert!(v >= prev, "erf must be nondecreasing");
            prev = v;
        }
        assert!(erf(40.0) <= 1.0 && erf(40.0) > 1.0 - 1e-12);
    }

    #[test]
    fn norm_pdf_cdf_tails_are_sane() {
        // pdf vanishes in both tails; cdf saturates to {0, 1}.
        let (pdf_lo, cdf_lo) = norm_pdf_cdf(-40.0);
        let (pdf_hi, cdf_hi) = norm_pdf_cdf(40.0);
        assert_eq!(pdf_lo, 0.0);
        assert_eq!(pdf_hi, 0.0);
        assert!((0.0..1e-12).contains(&cdf_lo));
        assert!(cdf_hi <= 1.0 && cdf_hi > 1.0 - 1e-12);
    }

    #[test]
    fn maximize_batched_rejects_wrong_batch_length() {
        let space = ConfigSpace::new(vec![KnobSpec::real("a", 0.0, 1.0, false, 0.5)]);
        let mut rng = StdRng::seed_from_u64(9);
        #[expect(clippy::disallowed_methods, reason = "the test asserts that this call panics")]
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            maximize_batched(&space, |raws| vec![0.0; raws.len() + 1], &[], 8, &mut rng)
        }));
        assert!(result.is_err(), "length-mismatched batch_score must panic");
    }
}
