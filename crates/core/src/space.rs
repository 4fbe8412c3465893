//! Configuration spaces: the (sub)set of knobs an optimizer searches over,
//! with encodings and neighbourhood moves.
//!
//! A [`ConfigSpace`] owns the specs of the selected knobs and provides the
//! encodings the different optimizer families need:
//!
//! * the **unit cube** (ordinal encoding of categoricals) — vanilla BO,
//!   TuRBO, DDPG actions, GA genes;
//! * **raw values + feature kinds** — SMAC's and TPE's native mixed-space
//!   handling, and the tree models generally;
//! * **neighbourhood moves** — SMAC local search and GA mutation.
//!
//! A [`TuningSpace`] additionally remembers the full catalog and a base
//! configuration so subspace configurations can be completed into full
//! 197-knob configurations for evaluation.

use dbtune_dbsim::knob::{Domain, KnobSpec};
use dbtune_dbsim::{Hardware, KnobCatalog};
use dbtune_ml::FeatureKind;
use rand::Rng;

/// A search space over a set of knobs.
#[derive(Clone, Debug)]
pub struct ConfigSpace {
    specs: Vec<KnobSpec>,
}

impl ConfigSpace {
    /// Builds a space from knob specs.
    pub fn new(specs: Vec<KnobSpec>) -> Self {
        assert!(!specs.is_empty(), "empty configuration space");
        Self { specs }
    }

    /// Dimensionality (number of knobs).
    pub fn dim(&self) -> usize {
        self.specs.len()
    }

    /// The knob specs, in space order.
    pub fn specs(&self) -> &[KnobSpec] {
        &self.specs
    }

    /// Default configuration (raw values).
    pub fn default_config(&self) -> Vec<f64> {
        self.specs.iter().map(|s| s.default).collect()
    }

    /// Per-dimension feature kinds for tree learners.
    pub fn feature_kinds(&self) -> Vec<FeatureKind> {
        self.specs
            .iter()
            .map(|s| match &s.domain {
                Domain::Cat { choices } => FeatureKind::Categorical { cardinality: choices.len() },
                _ => FeatureKind::Continuous,
            })
            .collect()
    }

    /// Indices of categorical dimensions.
    pub fn categorical_dims(&self) -> Vec<usize> {
        (0..self.dim()).filter(|&i| self.specs[i].domain.is_categorical()).collect()
    }

    /// Indices of non-categorical (numeric) dimensions.
    pub fn numeric_dims(&self) -> Vec<usize> {
        (0..self.dim()).filter(|&i| !self.specs[i].domain.is_categorical()).collect()
    }

    /// Encodes a raw configuration into the unit cube (ordinal categoricals).
    pub fn to_unit(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.dim());
        raw.iter().zip(&self.specs).map(|(v, s)| s.domain.to_unit(*v)).collect()
    }

    /// Decodes a unit-cube point into a legal raw configuration.
    pub fn from_unit(&self, unit: &[f64]) -> Vec<f64> {
        assert_eq!(unit.len(), self.dim());
        unit.iter().zip(&self.specs).map(|(u, s)| s.domain.from_unit(*u)).collect()
    }

    /// Clamps a raw configuration into legality in place.
    pub fn clamp(&self, raw: &mut [f64]) {
        for (v, s) in raw.iter_mut().zip(&self.specs) {
            *v = s.domain.clamp(*v);
        }
    }

    /// Samples a uniform random raw configuration (log-aware for numeric
    /// knobs, uniform over categories).
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        self.specs.iter().map(|s| s.domain.from_unit(rng.gen::<f64>())).collect()
    }

    /// A random neighbour of `raw`: numeric knobs move by a Gaussian step
    /// in unit space (σ = `step`), categorical knobs resample a different
    /// category. Exactly one randomly chosen dimension is mutated.
    pub fn neighbour(&self, raw: &[f64], step: f64, rng: &mut impl Rng) -> Vec<f64> {
        let mut out = raw.to_vec();
        let d = rng.gen_range(0..self.dim());
        self.mutate_dim(&mut out, d, step, rng);
        out
    }

    /// Mutates dimension `d` of `raw` in place (see [`ConfigSpace::neighbour`]).
    pub fn mutate_dim(&self, raw: &mut [f64], d: usize, step: f64, rng: &mut impl Rng) {
        let spec = &self.specs[d];
        match &spec.domain {
            Domain::Cat { choices } if choices.len() > 1 => {
                let cur = raw[d] as usize;
                let mut next = rng.gen_range(0..choices.len() - 1);
                if next >= cur {
                    next += 1;
                }
                raw[d] = next as f64;
            }
            Domain::Cat { .. } => {}
            _ => {
                let u = spec.domain.to_unit(raw[d]);
                let z: f64 = rng.sample(rand_distr::StandardNormal);
                raw[d] = spec.domain.from_unit((u + z * step).clamp(0.0, 1.0));
            }
        }
    }
}

/// A subspace of the full knob catalog, carrying everything needed to turn
/// subspace configurations into full DBMS configurations.
#[derive(Clone, Debug)]
pub struct TuningSpace {
    space: ConfigSpace,
    selected: Vec<usize>,
    base: Vec<f64>,
}

impl TuningSpace {
    /// Builds a tuning space over `selected` catalog knobs; unselected
    /// knobs stay at the values of `base` (usually the hardware-adjusted
    /// default configuration).
    ///
    /// Panics when a knob is selected twice: [`Self::full_config`] would
    /// write both coordinates into one slot, so the optimizer would search
    /// a dimension that never reaches the objective.
    pub fn new(catalog: &KnobCatalog, selected: Vec<usize>, base: Vec<f64>) -> Self {
        assert_eq!(base.len(), catalog.len());
        let mut seen = vec![false; catalog.len()];
        for &i in &selected {
            let name = catalog.spec(i).name;
            assert!(!std::mem::replace(&mut seen[i], true), "knob `{name}` is selected twice");
        }
        let specs = selected.iter().map(|&i| catalog.spec(i).clone()).collect();
        Self { space: ConfigSpace::new(specs), selected, base }
    }

    /// Convenience: tuning space with the hardware default as base.
    pub fn with_default_base(catalog: &KnobCatalog, selected: Vec<usize>, hw: Hardware) -> Self {
        let base = catalog.default_config(hw);
        Self::new(catalog, selected, base)
    }

    /// The searchable space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Catalog indices of the selected knobs.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Subspace dimensionality.
    pub fn dim(&self) -> usize {
        self.space.dim()
    }

    /// The full-length base configuration.
    pub fn base(&self) -> &[f64] {
        &self.base
    }

    /// Default subspace configuration (base values of the selected knobs).
    pub fn default_sub(&self) -> Vec<f64> {
        self.selected.iter().map(|&i| self.base[i]).collect()
    }

    /// Completes a subspace configuration into a full catalog-length one.
    pub fn full_config(&self, sub: &[f64]) -> Vec<f64> {
        assert_eq!(sub.len(), self.selected.len());
        let mut full = self.base.clone();
        for (&idx, &v) in self.selected.iter().zip(sub) {
            full[idx] = v;
        }
        full
    }

    /// Projects a full configuration onto the subspace.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(full.len(), self.base.len());
        self.selected.iter().map(|&i| full[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space3() -> ConfigSpace {
        ConfigSpace::new(vec![
            KnobSpec::int("a", 1, 1024, true, 16),
            KnobSpec::real("b", 0.0, 10.0, false, 5.0),
            KnobSpec::cat("c", vec!["x", "y", "z"], 0),
        ])
    }

    #[test]
    #[should_panic(expected = "knob `sync_binlog` is selected twice")]
    fn repeated_knob_is_rejected() {
        let catalog = KnobCatalog::mysql57();
        let sync = catalog.expect_index("sync_binlog");
        let selected = vec![sync, catalog.expect_index("innodb_io_capacity"), sync];
        TuningSpace::with_default_base(&catalog, selected, Hardware::B);
    }

    #[test]
    fn unit_round_trip() {
        let s = space3();
        let raw = vec![16.0, 5.0, 2.0];
        let u = s.to_unit(&raw);
        let back = s.from_unit(&u);
        assert_eq!(back, raw);
        assert!(u.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn sample_respects_domains() {
        let s = space3();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let mut c = s.sample(&mut rng);
            let orig = c.clone();
            s.clamp(&mut c);
            assert_eq!(c, orig, "sample produced out-of-domain value");
            assert!(c[2] == 0.0 || c[2] == 1.0 || c[2] == 2.0);
        }
    }

    #[test]
    fn neighbour_changes_exactly_one_dim() {
        let s = space3();
        let mut rng = StdRng::seed_from_u64(2);
        let base = s.default_config();
        for _ in 0..50 {
            let n = s.neighbour(&base, 0.2, &mut rng);
            let ndiff = n.iter().zip(&base).filter(|(a, b)| a != b).count();
            assert!(ndiff <= 1);
        }
    }

    #[test]
    fn categorical_mutation_changes_category() {
        let s = space3();
        let mut rng = StdRng::seed_from_u64(3);
        let mut raw = vec![16.0, 5.0, 1.0];
        s.mutate_dim(&mut raw, 2, 0.2, &mut rng);
        assert_ne!(raw[2], 1.0);
        assert!(raw[2] == 0.0 || raw[2] == 2.0);
    }

    #[test]
    fn feature_kinds_match_domains() {
        let s = space3();
        let kinds = s.feature_kinds();
        assert_eq!(kinds[0], FeatureKind::Continuous);
        assert_eq!(kinds[2], FeatureKind::Categorical { cardinality: 3 });
        assert_eq!(s.categorical_dims(), vec![2]);
        assert_eq!(s.numeric_dims(), vec![0, 1]);
    }

    #[test]
    fn tuning_space_full_config_round_trip() {
        let cat = KnobCatalog::mysql57();
        let selected =
            vec![cat.expect_index("innodb_buffer_pool_size"), cat.expect_index("sync_binlog")];
        let ts = TuningSpace::with_default_base(&cat, selected.clone(), Hardware::B);
        let sub = vec![4096.0, 0.0];
        let full = ts.full_config(&sub);
        assert_eq!(full.len(), cat.len());
        assert_eq!(full[selected[0]], 4096.0);
        assert_eq!(full[selected[1]], 0.0);
        assert_eq!(ts.project(&full), sub);
        // Unselected knobs keep their base values.
        let flc = cat.expect_index("innodb_flush_log_at_trx_commit");
        assert_eq!(full[flc], ts.base()[flc]);
    }

    #[test]
    fn default_sub_reflects_hardware_base() {
        let cat = KnobCatalog::mysql57();
        let bp = cat.expect_index("innodb_buffer_pool_size");
        let ts = TuningSpace::with_default_base(&cat, vec![bp], Hardware::C);
        assert!((ts.default_sub()[0] - 32_768.0 * 0.6).abs() < 1.0);
    }
}
