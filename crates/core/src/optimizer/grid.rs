//! Grid search — the classic HPO baseline (one of Figure 1's grey-box
//! alternatives). Enumerates a Cartesian lattice over the unit cube,
//! visiting points in a shuffled order so early iterations already cover
//! the space; refines the lattice once exhausted.

use super::{Optimizer, SurrogateIntrospect};
use crate::space::ConfigSpace;
use crate::telemetry;
use dbtune_dbsim::knob::KnobSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Grid-search optimizer.
///
/// The per-dimension resolution starts at `initial_levels` and increases
/// by one each time a pass is exhausted. For high-dimensional spaces the
/// full lattice is intractable, so a pass draws `max_points_per_pass`
/// lattice points *with replacement* instead — the documented reason grid
/// search loses to random/model-based search as dimensionality grows.
/// After the shuffle, a point equal to the one visited just before it is
/// dropped, but equal points further apart are not: a sampled pass can
/// propose one configuration twice (so can an enumerated one whose
/// distinct lattice points decode to the same integer or categorical
/// values).
pub struct GridSearch {
    space: ConfigSpace,
    levels: usize,
    pass: Pass,
    max_points_per_pass: usize,
    seed: u64,
}

/// One pass over the lattice, kept as level indices and decoded only when
/// a point is proposed.
struct Pass {
    /// Per-dimension resolution of this pass.
    levels: usize,
    /// A sampled pass's level indices, `dim` per point; empty for an
    /// enumerated pass, whose point ids are lattice codes.
    sampled: Vec<u32>,
    /// Point ids in shuffled visit order, proposed from the back.
    order: Vec<u32>,
}

impl Pass {
    /// Coordinate `k` of point `id` in the unit cube (`d` dimensions).
    fn unit(&self, id: u32, k: usize, d: usize) -> f64 {
        let level = if self.sampled.is_empty() {
            // Lattice code: base-`levels` digits, dimension 0 lowest.
            (id as u64 / (self.levels as u64).pow(k as u32)) % self.levels as u64
        } else {
            self.sampled[id as usize * d + k] as u64
        };
        level as f64 / (self.levels - 1) as f64
    }

    /// Point `id` decoded into a configuration.
    fn decode(&self, id: u32, specs: &[KnobSpec]) -> Vec<f64> {
        let d = specs.len();
        specs
            .iter()
            .enumerate()
            .map(|(k, spec)| spec.domain.from_unit(self.unit(id, k, d)))
            .collect()
    }

    /// Whether point `id` decodes equal to `point`; stops decoding at the
    /// first coordinate that differs.
    fn decodes_to(&self, id: u32, specs: &[KnobSpec], point: &[f64]) -> bool {
        let d = specs.len();
        specs
            .iter()
            .zip(point)
            .enumerate()
            .all(|(k, (spec, &v))| spec.domain.from_unit(self.unit(id, k, d)) == v)
    }

    /// The next point of the visit order. Every point in the run of equal
    /// points that ends the order is consumed and the first of them is
    /// returned, so the pass proposes what shuffling the decoded points,
    /// dropping each one equal to its predecessor and popping from the back
    /// would.
    fn pop(&mut self, specs: &[KnobSpec]) -> Option<Vec<f64>> {
        let last = self.order.pop()?;
        let mut point = self.decode(last, specs);
        while let Some(&id) = self.order.last() {
            if !self.decodes_to(id, specs, &point) {
                break;
            }
            // Equal, but not always bit for bit (-0.0 == 0.0).
            point = self.decode(id, specs);
            self.order.pop();
        }
        Some(point)
    }
}

impl GridSearch {
    /// Creates a grid search starting at `initial_levels` per dimension.
    pub fn new(space: ConfigSpace, initial_levels: usize, seed: u64) -> Self {
        assert!(initial_levels >= 2, "need at least 2 grid levels");
        let pass = Pass { levels: initial_levels, sampled: Vec::new(), order: Vec::new() };
        Self { space, levels: initial_levels, pass, max_points_per_pass: 4096, seed }
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

        let (n, sampled) = if total <= self.max_points_per_pass as f64 {
            // Full lattice enumeration: point ids are lattice codes.
            ((levels as u64).pow(d as u32) as usize, Vec::new())
        } else {
            // Lattice too large: draw lattice points with replacement.
            use rand::Rng;
            let n = self.max_points_per_pass;
            (n, (0..n * d).map(|_| rng.gen_range(0..levels) as u32).collect())
        };
        // The shuffle's draws depend only on the length, so shuffling ids
        // visits the points in the order shuffling them would.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        self.pass = Pass { levels, sampled, order };
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
        if self.pass.order.is_empty() {
            self.refill();
        }
        self.pass.pop(self.space.specs()).expect("refill produced points")
    }

    fn observe(&mut self, _cfg: &[f64], _score: f64, _metrics: &[f64]) {}

    fn wants_lhs_init(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
