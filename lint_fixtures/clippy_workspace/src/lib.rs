//! Fixture: one violation per path the root `clippy.toml` bans, one
//! justified exemption that must stay silent, and one exemption that
//! gives no reason. Linted with
//! `-D warnings -D clippy::allow_attributes_without_reason`, it must fail
//! with exactly eight errors.

// expect: D1 — `std::collections::HashMap`.
pub fn map_len(m: &std::collections::HashMap<u32, u32>) -> usize {
    m.len()
}

// expect: D1 — `std::collections::HashSet`.
pub fn set_len(s: &std::collections::HashSet<u32>) -> usize {
    s.len()
}

// expect: D2 — `std::time::Instant::now`.
pub fn started() -> std::time::Instant {
    std::time::Instant::now()
}

// expect: D2 — `std::time::SystemTime::now`.
pub fn stamped() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

// expect: E2 — `std::panic::catch_unwind`.
pub fn swallow(f: fn() -> u32) -> Option<u32> {
    std::panic::catch_unwind(f).ok()
}

// expect: E3 — `std::boxed::Box::leak`.
pub fn stash(v: Vec<u32>) -> &'static [u32] {
    Box::leak(v.into_boxed_slice())
}

// expect: E3 — `std::mem::forget`.
pub fn vanish(v: Vec<u32>) {
    std::mem::forget(v)
}

// expect: no finding — a justified exemption covers the ban.
#[expect(clippy::disallowed_methods, reason = "fixture: a justified exemption stays silent")]
pub fn exempt() -> std::time::Instant {
    std::time::Instant::now()
}

// expect: allow_attributes_without_reason — the exemption says nothing.
#[expect(clippy::disallowed_methods)]
pub fn unexplained() -> std::time::Instant {
    std::time::Instant::now()
}
