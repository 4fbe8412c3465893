//! Fixture: a telemetry helper that launders nondeterminism back to the
//! results path. Telemetry may read the clock internally (clippy's ban
//! exempts it); *returning* a clock-derived number to a reachable caller
//! is the hole R1 closes. Reported at the fn definition line.

// expect: R1 — reached from pipeline::measure, returns a clock-derived
// number.
pub fn ticks() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}
