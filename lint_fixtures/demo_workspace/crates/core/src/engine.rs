//! Fixture: library-crate hygiene violations (F1 / E1).

// expect: F1 — NaN-panicking comparison.
pub fn best(xs: &[f64]) -> f64 {
    let mut ys = xs.to_vec();
    ys.sort_by(|p, q| p.partial_cmp(q).unwrap());
    ys[0]
}

// expect: E1 — an empty panic message says nothing.
pub fn first(xs: &[f64]) -> f64 {
    *xs.first().expect("")
}

// expect: no finding — `.unwrap()` is clippy's `unwrap_used`, not a line rule.
pub fn last(xs: &[f64]) -> f64 {
    *xs.last().unwrap()
}
