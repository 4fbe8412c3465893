//! Fixture: bench binaries may panic without context (E1 exempt).

fn main() {
    // expect: no finding — E1 exempts driver binaries.
    let arg = std::env::args().nth(1).expect("");
    println!("{arg}");
}
