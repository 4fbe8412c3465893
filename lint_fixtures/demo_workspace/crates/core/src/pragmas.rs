//! Fixture: the pragma grammar end to end — standalone suppression,
//! missing justification (P1), stale pragma (P2), unknown rule id (P3),
//! and a leftover pragma for a rule that moved to clippy.toml (P3).

// expect: no finding — standalone pragma covers the next line.
pub fn suppressed(x: Option<u32>) -> u32 {
    // lint: allow(E1) fixture demonstrating a standalone pragma
    x.expect("")
}

// expect: P1 — a pragma with no justification is malformed.
pub fn bad_pragma(x: Option<u32>) -> u32 {
    x.expect("present") // lint: allow(E1)
}

// expect: P2 — the pragma suppresses nothing on this line.
pub fn stale_pragma() -> u32 {
    42 // lint: allow(F1) no float comparison happens here
}

// expect: P3 — `Z9` is not a rule id.
pub fn unknown_rule() -> u32 {
    7 // lint: allow(Z9) not a rule id
}

// expect: P3 — D2 is clippy's `disallowed_methods` now; a pragma the
// migration missed names an unknown id.
pub fn retired_rule() -> std::time::Instant {
    std::time::Instant::now() // lint: allow(D2) wall time for a log line
}
