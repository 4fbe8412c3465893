//! Fixture: telemetry helpers that launder nondeterminism back to the
//! results path. Telemetry may read the clock internally (clippy's ban
//! exempts it); *returning* a clock- or RNG-derived number to a reachable
//! caller is the hole R1/R2 close. Reported at the fn definition line.

// expect: R1 — reached from pipeline::measure, returns a clock-derived
// number.
pub fn ticks() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

// expect: R2 — reached from pipeline::measure, returns an RNG-derived
// number.
pub fn draw() -> f64 {
    rand::thread_rng().gen()
}
