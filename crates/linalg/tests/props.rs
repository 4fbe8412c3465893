//! Property-based tests for the numerics core: Cholesky on arbitrary SPD
//! matrices (against a bitwise row-oriented reference), rank/quantile
//! invariants, and statistic bounds.

use dbtune_linalg::stats;
use dbtune_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a random matrix B (n×n) from which A = B·Bᵀ + εI is SPD.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        let mut a = b.matmul(&b.transpose());
        a.add_diagonal(0.1);
        a
    })
}

/// Largest order the reference comparisons draw: enough for two full
/// column blocks of the forward solve and a partial third.
const MAX_N: usize = 19;

/// `B·Bᵀ + 0.1·I` for `B` the leading `n × n` block of `data`.
fn spd_from(n: usize, data: &[f64]) -> Matrix {
    let b = Matrix::from_vec(n, n, data[..n * n].to_vec());
    let mut a = b.matmul(&b.transpose());
    a.add_diagonal(0.1);
    a
}

/// The row-oriented Cholesky the column-stored factor replaced, kept as
/// its bitwise reference: left-looking factorization into `L`, row-by-row
/// forward solves (scalar and lane-interleaved) and the backward solve
/// down the columns of `L`. Each element receives the same IEEE
/// operations as in the library — its products subtracted in ascending
/// `k`, then one division or square root — so the two must agree to the
/// bit and in their verdict. Tests that compare incremental code with
/// batch code inside one implementation cannot see a drift both share;
/// this reference can.
mod reference {
    use dbtune_linalg::Matrix;

    /// The factor `L` of `a`, read from its lower triangle, or `None` at
    /// the first pivot that is not positive and finite.
    pub fn decompose(a: &Matrix) -> Option<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `L x = b`, one row at a time.
    pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        for i in 0..b.len() {
            let mut sum = b[i];
            let row = l.row(i);
            for (k, xv) in x.iter().enumerate().take(i) {
                sum -= row[k] * xv;
            }
            x[i] = sum / row[i];
        }
        x
    }

    /// [`solve_lower`] for `LANES` lane-major right-hand sides.
    pub fn solve_lower_interleaved<const LANES: usize>(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = vec![0.0; n * LANES];
        for i in 0..n {
            let row = l.row(i);
            let mut sum = [0.0f64; LANES];
            sum.copy_from_slice(&b[i * LANES..(i + 1) * LANES]);
            for (k, xk) in x.chunks_exact(LANES).enumerate().take(i) {
                for (s, xkl) in sum.iter_mut().zip(xk) {
                    *s -= row[k] * xkl;
                }
            }
            for (lane, s) in sum.iter().enumerate() {
                x[i * LANES + lane] = s / row[i];
            }
        }
        x
    }

    /// Solves `Lᵀ x = b`, reading the columns of `L`.
    pub fn solve_upper(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        x
    }
}

/// Lanes of the interleaved comparison (the GP's batch width).
const LANES: usize = 8;

/// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
/// result unspecified, so they are no part of the contract.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(new: &[f64], reference: &[f64], what: &str) {
    assert_eq!(new.len(), reference.len(), "{what}: length");
    for (i, (a, b)) in new.iter().zip(reference).enumerate() {
        assert!(
            same(*a, *b),
            "{what}: element {i} is {a:e} ({:#x}), reference {b:e} ({:#x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// Checks `Cholesky` against [`reference`] on `a`: the same verdict, the
/// same factor bits, the same bits from every solve against the columns
/// of `rhs` (`LANES` right-hand sides of `MAX_N` entries, truncated to
/// `n`), and an incremental `rank1_append` of `a`'s last row that agrees
/// with both.
fn assert_matches_reference(a: &Matrix, rhs: &[f64]) {
    let n = a.rows();
    let new = Cholesky::decompose(a);
    let old = reference::decompose(a);
    assert_eq!(new.is_ok(), old.is_some(), "verdicts differ on {a:?}");
    if n >= 2 {
        let lead = Matrix::from_fn(n - 1, n - 1, |i, j| a[(i, j)]);
        if let Ok(mut inc) = Cholesky::decompose(&lead) {
            let last: Vec<f64> = (0..n).map(|j| a[(n - 1, j)]).collect();
            let appended = inc.rank1_append(&last);
            assert_eq!(appended.is_ok(), old.is_some(), "append verdict differs on {a:?}");
            if let Some(l) = &old {
                assert_same(inc.upper().transpose().as_slice(), l.as_slice(), "appended factor");
            }
        }
    }
    let (Ok(c), Some(l)) = (new, old) else { return };
    assert_same(c.upper().transpose().as_slice(), l.as_slice(), "factor");
    let lanes: Vec<Vec<f64>> =
        rhs.chunks_exact(MAX_N).take(LANES).map(|b| b[..n].to_vec()).collect();
    for b in &lanes {
        assert_same(&c.solve_lower(b), &reference::solve_lower(&l, b), "forward solve");
        assert_same(&c.solve_upper(b), &reference::solve_upper(&l, b), "backward solve");
    }
    let mut b_il = vec![0.0; n * LANES];
    for (lane, b) in lanes.iter().enumerate() {
        for (i, v) in b.iter().enumerate() {
            b_il[i * LANES + lane] = *v;
        }
    }
    let mut x_il = vec![0.0; n * LANES];
    c.solve_lower_interleaved::<LANES>(&b_il, &mut x_il);
    let reference_il = reference::solve_lower_interleaved::<LANES>(&l, &b_il);
    assert_same(&x_il, &reference_il, "interleaved forward solve");
}

/// Right-hand-side strategy for [`assert_matches_reference`].
fn rhs() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.0f64..3.0, MAX_N * LANES)
}

/// Strategy for the `B` of [`spd_from`] at any order up to `MAX_N`.
fn square() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, MAX_N * MAX_N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random SPD matrices of every order up to `MAX_N`: full column
    /// blocks, partial blocks, and orders below one block.
    #[test]
    fn column_factor_matches_row_reference_on_spd(
        n in 1usize..=MAX_N, data in square(), b in rhs(),
    ) {
        assert_matches_reference(&spd_from(n, &data), &b);
    }

    /// Bordering an SPD matrix with a copy of one of its rows makes it
    /// singular: the last pivot rounds to whatever it rounds to, and both
    /// implementations must round it the same way.
    #[test]
    fn column_factor_matches_row_reference_on_singular_extension(
        n in 1usize..MAX_N, data in square(), dup in 0usize..MAX_N, b in rhs(),
    ) {
        let a = spd_from(n, &data);
        let dup = dup % n;
        let mut row: Vec<f64> = (0..n).map(|j| a[(dup, j)]).collect();
        row.push(a[(dup, dup)]);
        let mut ext = a.clone();
        ext.grow_square(&row, &row[..n]);
        assert_matches_reference(&ext, &b);
    }

    /// Entries scaled down to 1e-150 … 1e-320 and right-hand sides to
    /// 1e-150 … 1e-320, so products and partial sums land in the
    /// subnormal range (and some pivots underflow to a rejected zero).
    #[test]
    fn column_factor_matches_row_reference_at_tiny_scales(
        n in 1usize..=MAX_N, data in square(), b in rhs(),
        a_exp in -320i32..-150, b_exp in -320i32..-150,
    ) {
        let a = spd_from(n, &data).scale(10f64.powi(a_exp));
        let b: Vec<f64> = b.iter().map(|v| v * 10f64.powi(b_exp)).collect();
        assert_matches_reference(&a, &b);
    }

    /// NaN, +∞ or −∞ in the matrix — in the lower triangle, the upper
    /// triangle (which neither implementation reads) or both — and in one
    /// right-hand-side entry.
    #[test]
    fn column_factor_matches_row_reference_with_non_finite_entries(
        n in 1usize..=MAX_N, data in square(), b in rhs(),
        at in (0usize..MAX_N, 0usize..MAX_N, 0usize..3, 0usize..3),
        b_at in 0usize..MAX_N * LANES,
    ) {
        let (i, j, kind, side) = at;
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let (hi, lo) = ((i % n).max(j % n), (i % n).min(j % n));
        let mut a = spd_from(n, &data);
        if side != 1 {
            a[(hi, lo)] = bad;
        }
        if side != 0 {
            a[(lo, hi)] = bad;
        }
        let mut b = b;
        b[b_at] = bad;
        assert_matches_reference(&a, &b);
        // The same right-hand sides against a finite factor, so non-finite
        // values also flow through the solves.
        assert_matches_reference(&spd_from(n, &data), &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs_spd_matrices(a in spd_matrix(5)) {
        let c = Cholesky::decompose(&a).expect("SPD by construction");
        let u = c.upper();
        let recon = u.transpose().matmul(u);
        prop_assert!(recon.max_abs_diff(&a) < 1e-6 * (1.0 + a.max_abs_diff(&Matrix::zeros(5,5))));
    }

    #[test]
    fn cholesky_solve_satisfies_system(a in spd_matrix(4), x in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let b = a.matvec(&x);
        let c = Cholesky::decompose(&a).expect("SPD");
        let solved = c.solve(&b);
        let back = a.matvec(&solved);
        for (bi, vi) in b.iter().zip(back) {
            prop_assert!((bi - vi).abs() < 1e-6 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn log_determinant_is_finite_for_spd(a in spd_matrix(4)) {
        let c = Cholesky::decompose(&a).expect("SPD");
        prop_assert!(c.log_determinant().is_finite());
    }

    /// `rank1_append` grown row-by-row from the leading block equals
    /// `decompose` of the full matrix, bit for bit — the invariant the GP
    /// incremental fit stands on.
    #[test]
    fn rank1_append_equals_full_decompose(a in spd_matrix(6)) {
        let n = a.rows();
        let lead = Matrix::from_fn(2, 2, |i, j| a[(i, j)]);
        let mut inc = Cholesky::decompose(&lead).expect("leading block SPD");
        for m in 2..n {
            let row: Vec<f64> = (0..=m).map(|j| a[(m, j)]).collect();
            inc.rank1_append(&row).expect("SPD extension");
        }
        let full = Cholesky::decompose(&a).expect("SPD by construction");
        let (li, lf) = (inc.upper(), full.upper());
        prop_assert_eq!(li.rows(), lf.rows());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    li[(i, j)].to_bits(), lf[(i, j)].to_bits(),
                    "factor bits differ at ({}, {})", i, j
                );
            }
        }
    }

    /// Appending a row that duplicates an existing one makes the bordered
    /// matrix singular. Whatever the final pivot rounds to, `rank1_append`
    /// must agree *exactly* with a from-scratch `decompose` of the
    /// extended matrix: same success/failure verdict, bit-identical factor
    /// on success, untouched factor plus a working jitter fallback on
    /// failure — the GP extend/fallback contract.
    #[test]
    fn rank1_append_agrees_with_decompose_on_singular_extension(
        a in spd_matrix(4), dup in 0usize..4,
    ) {
        let n = a.rows();
        let c0 = Cholesky::decompose(&a).expect("SPD by construction");
        let mut inc = c0.clone();
        // New row = copy of row `dup`, bordered diagonal = a[dup][dup].
        let mut row: Vec<f64> = (0..n).map(|j| a[(dup, j)]).collect();
        row.push(a[(dup, dup)]);
        let mut ext = a.clone();
        ext.grow_square(&row, &row[..n]);
        match (inc.rank1_append(&row), Cholesky::decompose(&ext)) {
            (Ok(()), Ok(full)) => {
                for i in 0..=n {
                    for j in 0..=n {
                        prop_assert_eq!(
                            inc.upper()[(i, j)].to_bits(), full.upper()[(i, j)].to_bits(),
                            "factor bits differ at ({}, {})", i, j
                        );
                    }
                }
            }
            (Err(_), Err(_)) => {
                // Failed append leaves the factor exactly as it was...
                for i in 0..n {
                    for j in 0..n {
                        prop_assert_eq!(
                            inc.upper()[(i, j)].to_bits(), c0.upper()[(i, j)].to_bits()
                        );
                    }
                }
                // ...and the caller-side jitter ladder rescues the refit.
                let (c, jitter) = Cholesky::decompose_with_jitter(&ext, 1e-8, 12)
                    .expect("jitter ladder rescues the singular extension");
                prop_assert!(jitter > 0.0);
                prop_assert_eq!(c.upper().rows(), n + 1);
            }
            (append, full) => {
                prop_assert!(
                    false,
                    "verdict mismatch: append {:?} vs decompose {:?}", append, full.map(|_| ())
                );
            }
        }
    }

    #[test]
    fn ranks_are_a_permutation_average(xs in proptest::collection::vec(-100.0f64..100.0, 2..40)) {
        let r = stats::ranks(&xs);
        let n = xs.len() as f64;
        // Ranks always sum to n(n+1)/2 regardless of ties.
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-9);
        for v in &r {
            prop_assert!(*v >= 1.0 && *v <= n);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let q25 = stats::quantile(&xs, 0.25);
        let q50 = stats::quantile(&xs, 0.5);
        let q75 = stats::quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= min && q75 <= max);
    }

    #[test]
    fn r_squared_never_exceeds_one(truth in proptest::collection::vec(-10.0f64..10.0, 3..30),
                                   noise in proptest::collection::vec(-1.0f64..1.0, 3..30)) {
        let n = truth.len().min(noise.len());
        let pred: Vec<f64> = truth[..n].iter().zip(&noise[..n]).map(|(t, e)| t + e).collect();
        prop_assert!(stats::r_squared(&pred, &truth[..n]) <= 1.0 + 1e-12);
    }

    #[test]
    fn iou_is_symmetric_and_bounded(a in proptest::collection::vec(0usize..20, 0..10),
                                    b in proptest::collection::vec(0usize..20, 0..10)) {
        let ab = stats::intersection_over_union(&a, &b);
        let ba = stats::intersection_over_union(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn standardizer_output_is_zero_mean(rows in proptest::collection::vec(
        proptest::collection::vec(-50.0f64..50.0, 3), 2..30)) {
        let st = stats::Standardizer::fit(&rows);
        let tr = st.transform_all(&rows);
        for d in 0..3 {
            let col: Vec<f64> = tr.iter().map(|r| r[d]).collect();
            prop_assert!(stats::mean(&col).abs() < 1e-9);
        }
    }
}
