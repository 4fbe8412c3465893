//! TuRBO (Trust-Region BO, Eriksson et al.): independent local GP models
//! inside shrinking/expanding hyper-rectangles, with an implicit bandit
//! across regions — each suggestion comes from the region whose best
//! candidate has the highest Expected Improvement, and collapsed regions
//! restart with fresh history.
//!
//! Local modelling avoids the over-exploration that hurts global GPs in
//! high dimension (§6.2.1), and fitting each region only on its own
//! observations keeps the Cholesky cost bounded — the paper's explanation
//! for TuRBO's SMAC-like overhead curve in Figure 9.

use super::{Optimizer, SurrogateIntrospect};
use crate::acquisition::expected_improvement;
use crate::gp::{GaussianProcess, Matern52Kernel};
use crate::space::ConfigSpace;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::Rng;

/// TuRBO hyper-parameters (TuRBO-m with restarts; `m = n_regions`).
#[derive(Clone, Debug)]
pub struct TurboParams {
    /// Number of simultaneous trust regions (TuRBO-1 when 1).
    pub n_regions: usize,
    /// Initial trust-region side length (unit-cube coordinates).
    pub length_init: f64,
    /// Region collapses (and restarts) below this side length.
    pub length_min: f64,
    /// Region side length cap.
    pub length_max: f64,
    /// Consecutive successes before doubling the region.
    pub success_tolerance: usize,
    /// Candidates sampled inside each region per suggestion.
    pub n_candidates: usize,
}

impl Default for TurboParams {
    fn default() -> Self {
        Self {
            n_regions: 1,
            length_init: 0.8,
            length_min: 0.8 * 0.5f64.powi(6),
            length_max: 1.6,
            success_tolerance: 3,
            n_candidates: 300,
        }
    }
}

/// One trust region with its own observation history and counters.
#[derive(Clone, Debug, Default)]
struct Region {
    x: Vec<Vec<f64>>, // raw configurations
    y: Vec<f64>,
    length: f64,
    successes: usize,
    failures: usize,
    best: f64,
    restarts: usize,
}

impl Region {
    fn fresh(length: f64) -> Self {
        Self { length, best: f64::NEG_INFINITY, ..Default::default() }
    }
}

/// The TuRBO optimizer.
pub struct Turbo {
    space: ConfigSpace,
    params: TurboParams,
    regions: Vec<Region>,
    /// Region that produced the most recent suggestion (observations are
    /// routed back to it).
    last_region: usize,
    /// Round-robin cursor for regions still warming up.
    rr: usize,
    /// Winning region GP's predictive `(mean, variance)` at the most
    /// recent suggestion. The acquisition loop already computes every
    /// candidate's moments, so carrying the winner's out costs nothing
    /// and needs no diagnostics gate.
    last_pred: Option<(f64, f64)>,
}

impl Turbo {
    /// Creates TuRBO over `space`.
    pub fn new(space: ConfigSpace, params: TurboParams) -> Self {
        assert!(params.n_regions >= 1, "need at least one trust region");
        let regions = (0..params.n_regions).map(|_| Region::fresh(params.length_init)).collect();
        Self { space, params, regions, last_region: 0, rr: 0, last_pred: None }
    }

    /// Failure tolerance scales with dimensionality (Eriksson et al.).
    fn failure_tolerance(&self) -> usize {
        self.space.dim().max(4)
    }

    /// Current side length of region 0 (tests / diagnostics).
    pub fn length(&self) -> f64 {
        self.regions[0].length
    }

    /// Total restarts across regions (tests / diagnostics).
    pub fn restarts(&self) -> usize {
        self.regions.iter().map(|r| r.restarts).sum()
    }

    /// Best candidate of one region: `(config, EI, predictive moments)`;
    /// `None` while the region is still warming up.
    fn region_candidate(&self, ri: usize, rng: &mut StdRng) -> Option<(Vec<f64>, f64, (f64, f64))> {
        let region = &self.regions[ri];
        if region.x.len() < 4 {
            return None;
        }
        let x_unit: Vec<Vec<f64>> = region.x.iter().map(|c| self.space.to_unit(c)).collect();
        let gp = {
            let _fit = telemetry::span("surrogate_fit");
            GaussianProcess::fit_auto(
                Box::new(Matern52Kernel { lengthscale: 0.3 }),
                &x_unit,
                &region.y,
            )
        };

        let best_i = region
            .y
            .iter()
            .enumerate()
            .max_by(|a, b| crate::ord::cmp_score(a.1, b.1))
            .map(|(i, _)| i)
            .expect("nonempty region");
        let center = &x_unit[best_i];
        let best = region.y[best_i];

        let d = self.space.dim();
        let p_perturb = (20.0 / d as f64).min(1.0);
        // The probe loop is TuRBO's acquisition step (the fit above is
        // accounted separately, so nothing is double-counted). Candidates
        // are generated first — prediction consumes no randomness, so the
        // RNG stream is unchanged — then scored in one batched pass.
        let _acq_span = telemetry::span("acquisition");
        let mut pool = Vec::with_capacity(self.params.n_candidates);
        for _ in 0..self.params.n_candidates {
            let mut cand = center.clone();
            let mut any = false;
            for (j, c) in cand.iter_mut().enumerate() {
                if rng.gen::<f64>() < p_perturb {
                    any = true;
                    let half = region.length / 2.0;
                    *c = (center[j] + (rng.gen::<f64>() * 2.0 - 1.0) * half).clamp(0.0, 1.0);
                }
            }
            if !any {
                let j = rng.gen_range(0..d);
                cand[j] = (center[j] + (rng.gen::<f64>() - 0.5) * region.length).clamp(0.0, 1.0);
            }
            pool.push(cand);
        }
        let mut best_cfg: Option<usize> = None;
        let mut best_ei = f64::NEG_INFINITY;
        let mut best_mv = (0.0, 0.0);
        for (i, (m, v)) in gp.predict_batch(&pool).into_iter().enumerate() {
            let ei = expected_improvement(m, v, best, 0.01);
            if ei > best_ei {
                best_ei = ei;
                best_cfg = Some(i);
                best_mv = (m, v);
            }
        }
        best_cfg.map(|i| (self.space.from_unit(&pool[i]), best_ei, best_mv))
    }
}

impl Optimizer for Turbo {
    fn name(&self) -> &str {
        "TuRBO"
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.last_pred = None;
        // Warm-up: regions with too little data get random samples,
        // round-robin so all regions accumulate independent histories.
        let m = self.regions.len();
        for step in 0..m {
            let ri = (self.rr + step) % m;
            if self.regions[ri].x.len() < 4 {
                self.rr = (ri + 1) % m;
                self.last_region = ri;
                return self.space.sample(rng);
            }
        }

        // Bandit: take the region whose candidate has the highest EI.
        // (region index, config, EI, (predictive mean, variance)).
        type RegionBest = (usize, Vec<f64>, f64, (f64, f64));
        let mut best: Option<RegionBest> = None;
        for ri in 0..m {
            if let Some((cfg, ei, mv)) = self.region_candidate(ri, rng) {
                if best.as_ref().is_none_or(|(_, _, b, _)| ei > *b) {
                    best = Some((ri, cfg, ei, mv));
                }
            }
        }
        match best {
            Some((ri, cfg, _, mv)) => {
                self.last_region = ri;
                self.last_pred = Some(mv);
                cfg
            }
            None => {
                self.last_region = self.rr;
                self.space.sample(rng)
            }
        }
    }

    fn observe(&mut self, cfg: &[f64], score: f64, _metrics: &[f64]) {
        let ft = self.failure_tolerance();
        let (length_init, length_min, length_max, succ_tol) = (
            self.params.length_init,
            self.params.length_min,
            self.params.length_max,
            self.params.success_tolerance,
        );
        let region = &mut self.regions[self.last_region];
        region.x.push(cfg.to_vec());
        region.y.push(score);

        // Success/failure accounting. The first observation of a region
        // always counts as a success.
        let threshold = if region.best.is_finite() {
            region.best + 1e-3 * region.best.abs().max(1e-9)
        } else {
            f64::NEG_INFINITY
        };
        if score > threshold {
            region.successes += 1;
            region.failures = 0;
        } else {
            region.failures += 1;
            region.successes = 0;
        }
        region.best = region.best.max(score);

        if region.successes >= succ_tol {
            region.length = (region.length * 2.0).min(length_max);
            region.successes = 0;
        } else if region.failures >= ft {
            region.length /= 2.0;
            region.failures = 0;
            if region.length < length_min {
                let restarts = region.restarts + 1;
                *region = Region::fresh(length_init);
                region.restarts = restarts;
            }
        }
    }
}

impl SurrogateIntrospect for Turbo {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        self.last_pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::SeedableRng;

    #[expect(
        clippy::disallowed_methods,
        reason = "a test leaks its few knob names to get the &'static str KnobSpec wants"
    )]
    fn unit_space(d: usize) -> ConfigSpace {
        ConfigSpace::new(
            (0..d)
                .map(|i| {
                    let name: &'static str = Box::leak(format!("u{i}").into_boxed_str());
                    KnobSpec::real(name, 0.0, 1.0, false, 0.5)
                })
                .collect(),
        )
    }

    #[test]
    fn turbo_converges_on_smooth_function() {
        let space = unit_space(2);
        let f = |c: &[f64]| -((c[0] - 0.85).powi(2) + (c[1] - 0.15).powi(2));
        let mut opt = Turbo::new(space, TurboParams { n_candidates: 100, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(19);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..50 {
            let cfg = opt.suggest(&mut rng);
            let y = f(&cfg);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        assert!(best > -0.01, "TuRBO best too low: {best}");
    }

    #[test]
    fn multi_region_turbo_converges_too() {
        let space = unit_space(2);
        // Two basins; the bandit should settle on the better one (x≈0.2).
        let f = |c: &[f64]| {
            let a = 1.0 - ((c[0] - 0.2).powi(2) + (c[1] - 0.2).powi(2)) * 4.0;
            let b = 0.6 - ((c[0] - 0.8).powi(2) + (c[1] - 0.8).powi(2)) * 4.0;
            a.max(b)
        };
        let mut opt = Turbo::new(
            space,
            TurboParams { n_regions: 3, n_candidates: 100, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(29);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..70 {
            let cfg = opt.suggest(&mut rng);
            let y = f(&cfg);
            best = best.max(y);
            opt.observe(&cfg, y, &[]);
        }
        assert!(best > 0.95, "TuRBO-3 best too low: {best}");
    }

    #[test]
    fn region_expands_on_success_streak() {
        let space = unit_space(2);
        let mut opt = Turbo::new(space, TurboParams::default());
        let l0 = opt.length();
        // Three improving observations trigger an expansion.
        opt.observe(&[0.1, 0.1], 1.0, &[]);
        opt.observe(&[0.2, 0.2], 2.0, &[]);
        opt.observe(&[0.3, 0.3], 3.0, &[]);
        assert!(opt.length() > l0);
    }

    #[test]
    fn region_shrinks_and_restarts_on_failure_streaks() {
        let space = unit_space(2);
        let mut opt = Turbo::new(space, TurboParams::default());
        opt.observe(&[0.5, 0.5], 10.0, &[]);
        // Long stretch of non-improving observations → shrink → restart.
        for i in 0..200 {
            opt.observe(&[0.5, 0.5], 0.0, &[]);
            if opt.restarts() > 0 {
                assert!(i >= 4, "restarted too early");
                return;
            }
        }
        panic!("TuRBO never restarted after 200 failures");
    }

    #[test]
    fn suggestions_stay_legal_for_mixed_domains() {
        let space = ConfigSpace::new(vec![
            KnobSpec::int("a", 1, 1000, true, 10),
            KnobSpec::cat("c", vec!["x", "y", "z"], 1),
        ]);
        let mut opt = Turbo::new(
            space.clone(),
            TurboParams { n_regions: 2, n_candidates: 50, ..Default::default() },
        );
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..20 {
            let cfg = opt.suggest(&mut rng);
            let mut c = cfg.clone();
            space.clamp(&mut c);
            assert_eq!(c, cfg, "illegal TuRBO suggestion at iter {i}");
            opt.observe(&cfg, (i as f64).sin(), &[]);
        }
    }
}
