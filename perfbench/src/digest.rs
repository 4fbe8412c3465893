//! Result digests: the correctness gate compares them across passes and
//! against `expected.json`.

use dbtune_core::tuner::SessionResult;
use serde::Value;

/// FNV-1a over a stream of 64-bit words.
pub fn fnv1a<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Digest of one session: the bits of every observation's score, in order.
pub fn session_digest(result: &SessionResult) -> u64 {
    fnv1a(result.observations.iter().map(|o| o.score.to_bits()))
}

/// Digest of a knob selection: the selected catalog indices, in order.
pub fn selection_digest(selected: &[usize]) -> u64 {
    fnv1a(selected.iter().map(|&i| i as u64))
}

/// Renders a digest the way `expected.json` stores it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// `expected.json`: the full-size digest of every workload at the seed
/// it names.
const EXPECTED: &str = include_str!("../expected.json");

/// The digest `expected.json` pins for `workload` at `seed`; `None` when
/// the file pins another seed or does not list the workload.
pub fn expected(workload: &str, seed: u64) -> Option<u64> {
    let v: Value = serde_json::from_str(EXPECTED).expect("expected.json is valid JSON");
    let obj = v.as_object()?;
    let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    if get("seed")?.as_u64()? != seed {
        return None;
    }
    let hex = get("digests")?.as_object()?.iter().find(|(k, _)| k == workload)?.1.as_str()?;
    Some(u64::from_str_radix(hex, 16).expect("expected.json digests are hex"))
}
