//! Grid search — the classic HPO baseline (one of Figure 1's grey-box
//! alternatives). Enumerates a Cartesian lattice over the unit cube,
//! visiting points in a shuffled order so early iterations already cover
//! the space; refines the lattice once exhausted.

use super::{Optimizer, SurrogateIntrospect};
use crate::space::ConfigSpace;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Grid-search optimizer.
///
/// The per-dimension resolution starts at `initial_levels` and increases
/// by one each time the lattice is exhausted. For high-dimensional spaces
/// the full lattice is intractable, so at most `max_points_per_pass`
/// lattice points are sampled (without replacement) per pass — the
/// documented reason grid search loses to random/model-based search as
/// dimensionality grows.
pub struct GridSearch {
    space: ConfigSpace,
    levels: usize,
    queue: Vec<Vec<f64>>,
    max_points_per_pass: usize,
    seed: u64,
}

impl GridSearch {
    /// Creates a grid search starting at `initial_levels` per dimension.
    pub fn new(space: ConfigSpace, initial_levels: usize, seed: u64) -> Self {
        assert!(initial_levels >= 2, "need at least 2 grid levels");
        Self { space, levels: initial_levels, queue: Vec::new(), max_points_per_pass: 4096, seed }
    }

    /// Current per-dimension resolution.
    pub fn levels(&self) -> usize {
        self.levels
    }

    fn refill(&mut self) {
        let d = self.space.dim();
        let levels = self.levels;
        let total = (levels as f64).powi(d as i32);
        let mut rng = StdRng::seed_from_u64(self.seed ^ (levels as u64) << 32);

        let mut points: Vec<Vec<f64>> = Vec::new();
        if total <= self.max_points_per_pass as f64 {
            // Full lattice enumeration.
            let n = (levels as u64).pow(d as u32);
            for mut code in 0..n {
                let mut unit = Vec::with_capacity(d);
                for _ in 0..d {
                    let level = (code % levels as u64) as f64;
                    unit.push(level / (levels - 1) as f64);
                    code /= levels as u64;
                }
                points.push(self.space.from_unit(&unit));
            }
        } else {
            // Lattice too large: sample distinct lattice points.
            use rand::Rng;
            for _ in 0..self.max_points_per_pass {
                let unit: Vec<f64> =
                    (0..d).map(|_| rng.gen_range(0..levels) as f64 / (levels - 1) as f64).collect();
                points.push(self.space.from_unit(&unit));
            }
        }
        points.shuffle(&mut rng);
        points.dedup();
        self.queue = points;
        self.levels += 1;
    }
}

// Model-free family from the quality recorder's viewpoint:
// no surrogate scores the suggestion, so the default `None` applies.
impl SurrogateIntrospect for GridSearch {}

impl Optimizer for GridSearch {
    fn name(&self) -> &str {
        "Grid Search"
    }

    fn suggest(&mut self, _rng: &mut StdRng) -> Vec<f64> {
        let _acq_span = telemetry::span("acquisition");
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop().expect("refill produced points")
    }

    fn observe(&mut self, _cfg: &[f64], _score: f64, _metrics: &[f64]) {}

    fn wants_lhs_init(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;

    fn space2() -> ConfigSpace {
        ConfigSpace::new(vec![
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
            KnobSpec::cat("c", vec!["a", "b", "c"], 0),
        ])
    }

    #[test]
    fn enumerates_the_full_lattice_before_refining() {
        let mut gs = GridSearch::new(space2(), 3, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..9 {
            let cfg = gs.suggest(&mut rng);
            seen.insert(format!("{cfg:?}"));
        }
        // 3 levels × 2 dims = 9 lattice points, all distinct.
        assert_eq!(seen.len(), 9);
        assert_eq!(gs.levels(), 4); // refined once after the refill
    }

    #[test]
    fn grid_points_are_legal_and_cover_extremes() {
        let space = space2();
        let mut gs = GridSearch::new(space.clone(), 3, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs = Vec::new();
        for _ in 0..9 {
            let cfg = gs.suggest(&mut rng);
            let mut c = cfg.clone();
            space.clamp(&mut c);
            assert_eq!(c, cfg);
            xs.push(cfg[0]);
        }
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(min, 0.0);
        assert_eq!(max, 1.0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a test leaks its few knob names to get the &'static str KnobSpec wants"
    )]
    fn high_dimensional_lattice_is_sampled_not_enumerated() {
        let specs: Vec<KnobSpec> = (0..20)
            .map(|i| {
                let name: &'static str = Box::leak(format!("g{i}").into_boxed_str());
                KnobSpec::real(name, 0.0, 1.0, false, 0.5)
            })
            .collect();
        let mut gs = GridSearch::new(ConfigSpace::new(specs), 4, 3);
        let mut rng = StdRng::seed_from_u64(3);
        // 4^20 lattice points; the pass must still terminate instantly.
        for _ in 0..100 {
            let cfg = gs.suggest(&mut rng);
            assert_eq!(cfg.len(), 20);
        }
    }

    #[test]
    fn finds_decent_point_on_smooth_function() {
        let space = ConfigSpace::new(vec![
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
            KnobSpec::real("y", 0.0, 1.0, false, 0.5),
        ]);
        let f = |c: &[f64]| -((c[0] - 0.5).powi(2) + (c[1] - 0.75).powi(2));
        let mut gs = GridSearch::new(space, 5, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut best = f64::NEG_INFINITY;
        for _ in 0..25 {
            let cfg = gs.suggest(&mut rng);
            best = best.max(f(&cfg));
        }
        assert!(best > -0.01, "5x5 grid should land near the optimum: {best}");
    }
}
