//! Bitwise reference for the filler-knob micro-effects.
//!
//! `DbSimulator::new` tabulates, for each of the 157 filler knobs, its
//! catalog index, its signed amplitude `amp·dir` and its unit-encoded
//! default, and the surface multiplies in `1.0 + weight·(to_unit(v) − u0)`
//! per filler knob, in catalog order. `reference_fillers` is the loop that
//! table replaced: on every evaluation it hashes every knob's name, skips
//! the 40 semantic knobs, and re-encodes each default. `expected_value`
//! and `evaluate_seeded` must give the same bits as the reference.
//!
//! The semantic part of the reference score comes from the simulator,
//! scored at the same configuration with every filler knob at its
//! default: there each filler factor is exactly 1.0, and no semantic term
//! reads a filler knob. The reference then applies the filler factors,
//! normalizes by the default's score, and scales and noises the ratio.
//!
//! The inputs cover all nine workloads on all four hardware profiles:
//! legal random configurations (crashing ones included), filler values
//! stretched far past both bounds, and every log-scaled filler knob below
//! its lower bound, where `to_unit` clamps before taking the logarithm.

use dbtune_dbsim::{DbSimulator, Domain, Hardware, KnobCatalog, Objective, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first 40 catalog entries are the semantic knobs.
const SEMANTIC: usize = 40;

/// The measurement noise the reference runs at (σ of the log-normal factor).
const SIGMA: f64 = 0.02;

/// FNV-1a over a knob name, as the filler effects are keyed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Multiplies `s` by every filler factor of `cfg`, computing each from
/// the knob's name and default on the spot.
fn reference_fillers(catalog: &KnobCatalog, cfg: &[f64], mut s: f64) -> f64 {
    for (i, spec) in catalog.specs().iter().enumerate() {
        let h = fnv1a(spec.name);
        if i < SEMANTIC {
            continue;
        }
        let amp = ((h % 1000) as f64 / 1000.0) * 0.004;
        let dir = if (h >> 10) & 1 == 0 { 1.0 } else { -1.0 };
        let du = spec.domain.to_unit(cfg[i]) - spec.domain.to_unit(spec.default);
        s *= 1.0 + amp * dir * du;
    }
    s
}

/// The reference surface score; `None` when the configuration crashes.
fn reference_score(sim: &DbSimulator, cfg: &[f64]) -> Option<f64> {
    let mut semantic = cfg.to_vec();
    for (v, spec) in semantic.iter_mut().zip(sim.catalog().specs()).skip(SEMANTIC) {
        *v = spec.default;
    }
    sim.score(&semantic).map(|s| reference_fillers(sim.catalog(), cfg, s))
}

/// The reference performance ratio over the default configuration.
fn reference_ratio(sim: &DbSimulator, cfg: &[f64]) -> Option<f64> {
    let s_default = reference_score(sim, sim.default_config()).expect("default must not crash");
    Some((reference_score(sim, cfg)? / s_default).max(0.02))
}

/// The reference value at noise factor `noise`: `expected_value`'s at
/// 1.0 (multiplying by 1.0 is exact), `evaluate_seeded`'s at its draw.
fn reference_value(sim: &DbSimulator, cfg: &[f64], noise: f64) -> Option<f64> {
    let ratio = reference_ratio(sim, cfg)?;
    let value = match sim.objective() {
        Objective::Throughput => {
            sim.workload().profile().base_rate * sim.hardware().perf_scale() * ratio
        }
        Objective::Latency95 => 200.0 / ratio,
    };
    Some(value * noise)
}

/// The noise factor `evaluate_seeded` draws first from its seeded RNG.
fn noise_factor(noise_seed: u64) -> f64 {
    let z: f64 = StdRng::seed_from_u64(noise_seed).sample(rand_distr::StandardNormal);
    (z * SIGMA).exp()
}

/// A legal configuration drawn uniformly in unit space.
fn legal_config(catalog: &KnobCatalog, rng: &mut StdRng) -> Vec<f64> {
    catalog.specs().iter().map(|s| s.domain.from_unit(rng.gen::<f64>())).collect()
}

/// `base` with every filler knob stretched to a value up to one range
/// width past either bound.
fn stretched_fillers(catalog: &KnobCatalog, base: &[f64], rng: &mut StdRng) -> Vec<f64> {
    let mut cfg = base.to_vec();
    for (v, spec) in cfg.iter_mut().zip(catalog.specs()).skip(SEMANTIC) {
        let (lo, hi) = match spec.domain {
            Domain::Real { lo, hi, .. } => (lo, hi),
            Domain::Int { lo, hi, .. } => (lo as f64, hi as f64),
            Domain::Cat { ref choices } => (0.0, (choices.len() - 1) as f64),
        };
        *v = lo + (3.0 * rng.gen::<f64>() - 1.0) * (hi - lo);
    }
    cfg
}

/// `base` with every log-scaled filler knob below its lower bound.
fn below_log_bounds(catalog: &KnobCatalog, base: &[f64]) -> Vec<f64> {
    let mut cfg = base.to_vec();
    for (v, spec) in cfg.iter_mut().zip(catalog.specs()).skip(SEMANTIC) {
        match spec.domain {
            Domain::Real { lo, log: true, .. } => *v = lo * 0.5,
            Domain::Int { lo, log: true, .. } => *v = lo as f64 - 1.0,
            _ => {}
        }
    }
    cfg
}

/// Every configuration the suite checks on one simulator.
fn configs(sim: &DbSimulator, seed: u64) -> Vec<Vec<f64>> {
    let catalog = sim.catalog();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out =
        vec![sim.default_config().to_vec(), below_log_bounds(catalog, sim.default_config())];
    for _ in 0..6 {
        let legal = legal_config(catalog, &mut rng);
        out.push(stretched_fillers(catalog, &legal, &mut rng));
        out.push(below_log_bounds(catalog, &legal));
        out.push(legal);
    }
    out
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

#[test]
fn expected_value_matches_the_per_evaluation_filler_loop() {
    let (mut checked, mut moved, mut crashed) = (0, 0, 0);
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (h, hardware) in Hardware::ALL.into_iter().enumerate() {
            let sim = DbSimulator::new(workload, hardware, 7);
            for (c, cfg) in configs(&sim, (w * 4 + h) as u64).iter().enumerate() {
                checked += 1;
                let label = format!("{} / {} / config {c}", workload.name(), hardware.label());
                let want = reference_score(&sim, cfg);
                assert_eq!(bits(sim.score(cfg)), bits(want), "score, {label}");
                assert_eq!(
                    bits(sim.expected_value(cfg)),
                    bits(reference_value(&sim, cfg, 1.0)),
                    "expected_value, {label}"
                );
                match want {
                    None => crashed += 1,
                    Some(s) => {
                        let mut semantic = cfg.clone();
                        semantic[SEMANTIC..].copy_from_slice(&sim.default_config()[SEMANTIC..]);
                        if sim.score(&semantic) != Some(s) {
                            moved += 1;
                        }
                    }
                }
            }
        }
    }
    // The comparison means something only if the filler factors move
    // scores and the crash path is taken too: every configuration but the
    // default one of each simulator crashes or has its score moved, the
    // default with its log-scaled fillers below their bounds included.
    assert!(crashed > 0, "no configuration crashed");
    let defaults = Workload::ALL.len() * Hardware::ALL.len();
    assert_eq!(moved, checked - crashed - defaults, "filler knobs left a score unmoved");
}

#[test]
fn evaluate_seeded_matches_the_per_evaluation_filler_loop() {
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (h, hardware) in Hardware::ALL.into_iter().enumerate() {
            let mut sim = DbSimulator::new(workload, hardware, 11);
            sim.set_noise_sigma(SIGMA);
            for (c, cfg) in configs(&sim, 100 + (w * 4 + h) as u64).iter().enumerate() {
                let label = format!("{} / {} / config {c}", workload.name(), hardware.label());
                let noise_seed = 1000 * w as u64 + 10 * h as u64 + c as u64;
                let out = sim.evaluate_seeded(cfg, noise_seed);
                match reference_value(&sim, cfg, noise_factor(noise_seed)) {
                    None => assert!(out.failed && out.value.is_nan(), "crash, {label}"),
                    Some(want) => {
                        assert!(!out.failed, "{label}");
                        assert_eq!(out.value.to_bits(), want.to_bits(), "value, {label}");
                    }
                }
            }
        }
    }
}
