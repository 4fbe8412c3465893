//! Fixture: the R family — forbidden determinism sources read by (or
//! laundered through) code reachable from the results path.

// expect: R3 at the env read — configuration must flow in explicitly.
pub fn read_env_workers() -> usize {
    std::env::var("FIXTURE_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

// expect: R4 at the thread-identity read — results keyed on which
// thread ran the work diverge across schedules.
pub fn current_shard() -> u64 {
    let id = std::thread::current().id();
    fold(id)
}

// expect: no finding here — but calling into obs makes `ticks`/`draw`
// reachable, so R1/R2 are reported over in obs/src/probe.rs.
pub fn measure() -> u64 {
    probe::ticks() + probe::draw() as u64
}
