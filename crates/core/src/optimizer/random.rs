//! Uniform random search — the control baseline every model-based
//! optimizer must beat.

use super::{Optimizer, SurrogateIntrospect};
use crate::space::ConfigSpace;
use crate::telemetry;
use rand::rngs::StdRng;

/// Samples configurations uniformly (log-aware) from the space.
pub struct RandomSearch {
    space: ConfigSpace,
}

impl RandomSearch {
    /// Creates the baseline over `space`.
    pub fn new(space: ConfigSpace) -> Self {
        Self { space }
    }
}

// Model-free family from the quality recorder's viewpoint:
// no surrogate scores the suggestion, so the default `None` applies.
impl SurrogateIntrospect for RandomSearch {}

impl Optimizer for RandomSearch {
    fn name(&self) -> &str {
        "Random"
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        let _acq_span = telemetry::span("acquisition");
        self.space.sample(rng)
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
    use rand::SeedableRng;

    #[test]
    fn suggestions_are_legal_and_varied() {
        let space = ConfigSpace::new(vec![KnobSpec::int("a", 0, 1000, false, 1)]);
        let mut opt = RandomSearch::new(space.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let cfg = opt.suggest(&mut rng);
            let mut c = cfg.clone();
            space.clamp(&mut c);
            assert_eq!(c, cfg);
            distinct.insert(cfg[0] as i64);
        }
        assert!(distinct.len() > 20, "random search not exploring");
    }
}
