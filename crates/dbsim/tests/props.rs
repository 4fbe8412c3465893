//! Property-based tests for the simulator: any legal configuration either
//! evaluates to a finite positive metric or fails cleanly, defaults never
//! crash, and the knob-domain encodings round-trip.

use dbtune_dbsim::knob::Domain;
use dbtune_dbsim::{DbSimulator, Hardware, KnobCatalog, Workload};
use proptest::prelude::*;

/// Strategy: a legal random configuration as unit-cube coordinates,
/// decoded through each knob's domain.
fn unit_config() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, 197)
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop::sample::select(Workload::ALL.to_vec())
}

fn hardware_strategy() -> impl Strategy<Value = Hardware> {
    prop::sample::select(Hardware::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_legal_config_evaluates_cleanly(units in unit_config(),
                                          wl in workload_strategy(),
                                          hw in hardware_strategy()) {
        let sim = DbSimulator::new(wl, hw, 7);
        let catalog = sim.catalog().clone();
        let cfg: Vec<f64> = units
            .iter()
            .zip(catalog.specs())
            .map(|(u, s)| s.domain.from_unit(*u))
            .collect();
        let out = sim.evaluate_seeded(&cfg, 7);
        if out.failed {
            prop_assert!(out.value.is_nan());
        } else {
            prop_assert!(out.value.is_finite() && out.value > 0.0);
            prop_assert_eq!(out.metrics.len(), dbtune_dbsim::METRICS_DIM);
            prop_assert!(out.metrics.iter().all(|m| m.is_finite()));
        }
    }

    #[test]
    fn default_config_never_crashes(wl in workload_strategy(), hw in hardware_strategy()) {
        let sim = DbSimulator::new(wl, hw, 11);
        let cfg = sim.default_config().to_vec();
        let out = sim.evaluate_seeded(&cfg, 11);
        prop_assert!(!out.failed);
        prop_assert!(sim.expected_value(&cfg).is_some());
    }

    #[test]
    fn domain_unit_round_trip(u in 0.0f64..=1.0) {
        let catalog = KnobCatalog::mysql57();
        for spec in catalog.specs().iter().take(60) {
            let raw = spec.domain.from_unit(u);
            // Decoded values are always legal…
            prop_assert_eq!(spec.domain.clamp(raw), raw, "illegal decode for {}", spec.name);
            // …and re-encoding then re-decoding is a fixpoint.
            let again = spec.domain.from_unit(spec.domain.to_unit(raw));
            prop_assert_eq!(again, raw, "encode/decode not idempotent for {}", spec.name);
        }
    }

    #[test]
    fn clamp_is_idempotent_and_legalizing(values in proptest::collection::vec(-1e9f64..1e9, 197)) {
        let catalog = KnobCatalog::mysql57();
        let mut cfg = values;
        catalog.clamp_config(&mut cfg);
        let once = cfg.clone();
        catalog.clamp_config(&mut cfg);
        prop_assert_eq!(&once, &cfg);
        for (v, s) in cfg.iter().zip(catalog.specs()) {
            prop_assert_eq!(s.domain.clamp(*v), *v);
        }
        if let Domain::Cat { choices } = &catalog.specs()[0].domain {
            prop_assert!(cfg[0] < choices.len() as f64);
        }
    }

    #[test]
    fn noise_free_evaluation_is_deterministic(units in unit_config()) {
        let sim = DbSimulator::new(Workload::Tatp, Hardware::B, 3);
        let catalog = sim.catalog().clone();
        let cfg: Vec<f64> = units
            .iter()
            .zip(catalog.specs())
            .map(|(u, s)| s.domain.from_unit(*u))
            .collect();
        prop_assert_eq!(sim.expected_value(&cfg), sim.expected_value(&cfg));
    }
}
