//! Property tests for the evaluation-cache key (`exec::CacheKey`):
//! quantization must be idempotent, sub-resolution jitter must collapse
//! to one key, domain tags must separate response surfaces, and the
//! fingerprint stored at quantization must be the byte-wise FNV-1a of the
//! key that every noise token is mixed from, both for catalog
//! configurations and for words of every zero-byte shape the fold
//! special-cases. A bare simulator's evaluation is a pure function of
//! the configuration: nothing evaluated before it changes a bit.

use dbtune_core::exec::{noise_token, CacheKey, DeterministicObjective};
use dbtune_core::tuner::{EvalResult, SimObjective};
use dbtune_dbsim::{DbSimulator, Domain, Hardware, KnobCatalog, KnobSpec, Workload};
use proptest::prelude::*;

const DOMAIN: u64 = 0x5eed;

/// A raw (unclamped, unrounded) config for the stock catalog: each
/// knob's legal range stretched by `spread` and perturbed, so values
/// out of range and off the integer grid both occur.
fn raw_config(catalog: &KnobCatalog, unit: &[f64], spread: f64) -> Vec<f64> {
    catalog
        .specs()
        .iter()
        .zip(unit)
        .map(|(spec, &u)| {
            let (lo, hi) = match spec.domain {
                Domain::Real { lo, hi, .. } => (lo, hi),
                Domain::Int { lo, hi, .. } => (lo as f64, hi as f64),
                Domain::Cat { ref choices } => (0.0, (choices.len() - 1) as f64),
            };
            let span = hi - lo;
            lo - spread * span + u * (1.0 + 2.0 * spread) * span
        })
        .collect()
}

/// Decodes a key's bits back into the f64 config it stored.
fn decode(key: &CacheKey) -> Vec<f64> {
    key.bits().iter().map(|&b| f64::from_bits(b)).collect()
}

/// 64-bit FNV-1a over a byte string, written out independently of the
/// library's word-stream version.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The fingerprint a key must carry: FNV-1a over the domain tag's
/// little-endian bytes, then every quantized word's.
fn reference_fingerprint(key: &CacheKey) -> u64 {
    let mut bytes = key.domain().to_le_bytes().to_vec();
    for w in key.bits() {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a_bytes(&bytes)
}

/// Clears `w`'s low `k` bytes and, for `k < 8`, makes byte `k` non-zero,
/// so the word has exactly `k` low zero bytes (`k = 8` is the zero word).
fn with_low_zero_bytes(w: u64, k: u32) -> u64 {
    if k >= 8 {
        return 0;
    }
    let w = w & (u64::MAX << (8 * k));
    if (w >> (8 * k)) & 0xff == 0 {
        w | (1 << (8 * k))
    } else {
        w
    }
}

/// A word in one of the shapes the fingerprint's fold treats apart:
/// arbitrary; exactly `k` low zero bytes for k = 0..=8; a non-zero low
/// byte with zero bytes only among the middle and top bytes; a NaN whose
/// payload has up to six low zero bytes; or a signed zero or infinity,
/// which quantization rewrites.
fn shaped_word() -> impl Strategy<Value = u64> {
    (0u32..=4, 0..=u64::MAX, 0u32..=8, 0..=u64::MAX).prop_map(|(shape, raw, k, aux)| match shape {
        0 => raw,
        1 => with_low_zero_bytes(raw, k),
        2 => (1..8u32)
            .filter(|byte| (aux >> byte) & 1 == 1)
            .fold(raw | 1, |w, byte| w & !(0xff << (8 * byte))),
        3 => {
            let sign = raw & (1 << 63);
            let payload = with_low_zero_bytes(raw & 0x000f_ffff_ffff_ffff, k.min(6));
            sign | 0x7ff0_0000_0000_0000 | payload
        }
        _ => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][(aux % 4) as usize].to_bits(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quantization is idempotent: re-keying the stored values yields
    /// the identical key, even for inputs far outside the legal ranges.
    #[test]
    fn quantize_is_idempotent(
        unit in proptest::collection::vec(0.0f64..=1.0, 197),
        spread in 0.0f64..=2.0,
    ) {
        let catalog = KnobCatalog::mysql57();
        let cfg = raw_config(&catalog, &unit, spread);
        let key = CacheKey::quantize(DOMAIN, catalog.specs(), &cfg);
        let again = CacheKey::quantize(DOMAIN, catalog.specs(), &decode(&key));
        prop_assert_eq!(&key, &again, "quantize(decode(quantize(cfg))) must equal quantize(cfg)");
        prop_assert_eq!(key.fingerprint(), again.fingerprint());
    }

    /// The stored fingerprint is the byte-wise FNV-1a over `domain`
    /// then `bits`, for any configuration and domain tag.
    #[test]
    fn fingerprint_is_fnv1a_over_domain_then_bits(
        unit in proptest::collection::vec(0.0f64..=1.0, 197),
        spread in 0.0f64..=2.0,
        domain in 0..u64::MAX,
    ) {
        let catalog = KnobCatalog::mysql57();
        let key = CacheKey::quantize(domain, catalog.specs(), &raw_config(&catalog, &unit, spread));
        prop_assert_eq!(key.domain(), domain);
        prop_assert_eq!(key.bits().len(), catalog.len());
        prop_assert_eq!(key.fingerprint(), reference_fingerprint(&key));
    }

    /// Jitter smaller than an integer/categorical knob's step — noise a
    /// DBMS could never observe — collapses to the same key.
    #[test]
    fn sub_resolution_jitter_collapses(
        unit in proptest::collection::vec(0.0f64..=1.0, 197),
        jitter in proptest::collection::vec(-0.49f64..=0.49, 197),
    ) {
        let catalog = KnobCatalog::mysql57();
        // Start from an exactly-on-grid config...
        let grid = decode(&CacheKey::quantize(
            DOMAIN,
            catalog.specs(),
            &raw_config(&catalog, &unit, 0.0),
        ));
        // ...then shake every discrete knob by less than half a step.
        let shaken: Vec<f64> = catalog
            .specs()
            .iter()
            .zip(grid.iter().zip(&jitter))
            .map(|(spec, (&v, &j))| match spec.domain {
                Domain::Real { .. } => v,
                // Keep strictly inside the round-to-even half-step.
                Domain::Int { .. } | Domain::Cat { .. } => v + j,
            })
            .collect();
        let a = CacheKey::quantize(DOMAIN, catalog.specs(), &grid);
        let b = CacheKey::quantize(DOMAIN, catalog.specs(), &shaken);
        prop_assert_eq!(a, b, "sub-step jitter on discrete knobs must not split cache entries");
    }

    /// The same configuration under different domain tags never shares
    /// a key or a fingerprint (workload × hardware separation).
    #[test]
    fn domains_do_not_collide(unit in proptest::collection::vec(0.0f64..=1.0, 197)) {
        let catalog = KnobCatalog::mysql57();
        let cfg = raw_config(&catalog, &unit, 0.0);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for wl in Workload::ALL {
            for hw in [Hardware::A, Hardware::B, Hardware::C] {
                let tag = CacheKey::domain_tag([wl.name(), hw.label()]);
                let key = CacheKey::quantize(tag, catalog.specs(), &cfg);
                for &(other_tag, other_fp) in &seen {
                    prop_assert_ne!(tag, other_tag, "domain tags must be distinct");
                    prop_assert_ne!(key.fingerprint(), other_fp,
                        "fingerprints must separate domains even for equal configs");
                }
                seen.push((tag, key.fingerprint()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same equality over every zero-byte shape a word can take,
    /// domain tag included. A knob spanning all finite doubles passes
    /// each drawn word through unchanged, apart from the signed zeros and
    /// infinities that quantization rewrites.
    #[test]
    fn fingerprint_is_fnv1a_for_every_zero_byte_shape(
        domain in shaped_word(),
        words in proptest::collection::vec(shaped_word(), 0..=24),
    ) {
        let spec = KnobSpec::real("word", f64::MIN, f64::MAX, false, 0.0);
        let specs = vec![spec; words.len()];
        let cfg: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let key = CacheKey::quantize(domain, &specs, &cfg);
        for (&w, &b) in words.iter().zip(key.bits()) {
            let rewritten = f64::from_bits(w) == 0.0 || f64::from_bits(w).is_infinite();
            prop_assert!(w == b || rewritten, "{w:#018x} quantized to {b:#018x}");
        }
        prop_assert_eq!(key.fingerprint(), reference_fingerprint(&key));
    }
}

/// Every bit of an evaluation result.
fn result_bits(r: &EvalResult) -> (u64, bool, Vec<u64>, u64) {
    let metrics = r.metrics.iter().map(|m| m.to_bits()).collect();
    (r.value.to_bits(), r.failed, metrics, r.simulated_secs.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `SimObjective::evaluate` on a bare simulator returns the same bits
    /// for a configuration whatever was evaluated before it: the noise
    /// token of `evaluate_seeded`, mixed from the simulator's seed and
    /// the configuration's cache key.
    #[test]
    fn bare_simulator_evaluation_ignores_history(
        target in proptest::collection::vec(0.0f64..=1.0, 197),
        before in proptest::collection::vec(proptest::collection::vec(0.0f64..=1.0, 197), 0..4),
        seed in 0..u64::MAX,
    ) {
        let decode = |sim: &DbSimulator, unit: &[f64]| -> Vec<f64> {
            sim.catalog().specs().iter().zip(unit).map(|(s, &u)| s.domain.from_unit(u)).collect()
        };
        let mut fresh = DbSimulator::new(Workload::Tpcc, Hardware::C, seed);
        let cfg = decode(&fresh, &target);
        let first = fresh.evaluate(&cfg);

        let mut used = DbSimulator::new(Workload::Tpcc, Hardware::C, seed);
        for unit in &before {
            let other = decode(&used, unit);
            used.evaluate(&other);
        }
        used.evaluate(&cfg);
        let again = used.evaluate(&cfg);
        prop_assert_eq!(result_bits(&first), result_bits(&again));

        let token = noise_token(seed, &fresh.cache_key(&cfg));
        prop_assert_eq!(result_bits(&first), result_bits(&fresh.evaluate_seeded(&cfg, token)));
    }
}

#[test]
fn reference_fnv1a_matches_published_vectors() {
    assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn domain_tag_separates_part_boundaries() {
    // The separator byte keeps concatenation ambiguity out of the tag.
    assert_ne!(CacheKey::domain_tag(["ab", "c"]), CacheKey::domain_tag(["a", "bc"]));
    assert_ne!(CacheKey::domain_tag(["ab"]), CacheKey::domain_tag(["ab", ""]));
}

#[test]
fn negative_zero_cannot_split_an_entry() {
    let catalog = KnobCatalog::mysql57();
    let mut a = decode(&CacheKey::quantize(
        DOMAIN,
        catalog.specs(),
        &catalog.specs().iter().map(|s| s.default).collect::<Vec<_>>(),
    ));
    let mut b = a.clone();
    for (va, vb) in a.iter_mut().zip(b.iter_mut()) {
        if *va == 0.0 {
            *va = 0.0;
            *vb = -0.0;
        }
    }
    assert_eq!(
        CacheKey::quantize(DOMAIN, catalog.specs(), &a),
        CacheKey::quantize(DOMAIN, catalog.specs(), &b),
    );
}
