//! Cholesky factorization and solves for symmetric positive-definite
//! systems.
//!
//! Gaussian-process covariance matrices are frequently near-singular (two
//! nearly identical configurations produce nearly identical kernel rows), so
//! [`Cholesky::decompose_with_jitter`] retries with geometrically increasing
//! diagonal jitter — the standard trick used by every production GP library.
//!
//! The factor is stored as `U = Lᵀ`, row-major, so column `k` of `L` is one
//! contiguous row. Every loop below advances many independent elements at
//! once (an axpy along a row of `U`, or eight lane-interleaved right-hand
//! sides), yet each element still receives the operations of the textbook
//! row-by-row recurrence on the same operands in the same order: its
//! products subtracted in ascending `k`, then one division or square root.
//! The results are therefore bit-identical to that recurrence, which
//! `tests/props.rs` keeps as the reference.

use crate::matrix::Matrix;

/// Cholesky factor of `A = L Lᵀ`, stored as the upper-triangular `U = Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    /// Row `k` holds column `k` of `L`: `u[(k, i)] = L[i][k]` for `i ≥ k`.
    u: Matrix,
}

/// Error returned when a matrix is not positive definite (even after
/// jitter, for the jittered variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Pivots (rows of `U`) the factorization and the forward solves apply
/// together, so each later element is loaded and stored once per block
/// instead of once per pivot.
const BLOCK: usize = 8;

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix, reading only its
    /// lower triangle.
    ///
    /// Right-looking on `U`: step `k` tests pivot `k`, takes its square
    /// root, divides the rest of row `k` by it, and subtracts
    /// `U[k][i]·U[k][i..]` from every later row `i`. Element `U[i][j]`
    /// thus starts as `a[(j, i)]`, loses the products `L[i][k]·L[j][k]` in
    /// ascending `k`, and is divided by `L[i][i]` last — the row-by-row
    /// recurrence's operations, so the factor and the verdict match it to
    /// the bit. Pivots go in panels of eight (`BLOCK`): a panel's rows are
    /// finished pivot by pivot, then every later row subtracts the panel's
    /// products from each element in one load–store pass, still in
    /// ascending `k`.
    pub fn decompose(a: &Matrix) -> Result<Self, NotPositiveDefinite> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut u = vec![0.0; n * n];
        for k in 0..n {
            for j in k..n {
                u[k * n + j] = a[(j, k)];
            }
        }
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            // The panel: pivots `k0..k1` one by one, updating the panel's
            // own later rows.
            for k in k0..k1 {
                let (done, later) = u.split_at_mut((k + 1) * n);
                let row_k = &mut done[k * n..];
                let pivot = row_k[k];
                if pivot <= 0.0 || !pivot.is_finite() {
                    return Err(NotPositiveDefinite);
                }
                let d = pivot.sqrt();
                row_k[k] = d;
                for v in &mut row_k[k + 1..] {
                    *v /= d;
                }
                for (i, row_i) in (k + 1..k1).zip(later.chunks_exact_mut(n)) {
                    let f = row_k[i];
                    for (v, &ukj) in row_i[i..].iter_mut().zip(&row_k[i..]) {
                        *v -= f * ukj;
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Every later row subtracts the panel's `BLOCK` products per
            // element in one load–store pass, in ascending `k`.
            let (panel, trailing) = u.split_at_mut(k1 * n);
            for (i, row_i) in (k1..n).zip(trailing.chunks_exact_mut(n)) {
                let rows: [&[f64]; BLOCK] =
                    std::array::from_fn(|b| &panel[(k0 + b) * n + i..(k0 + b + 1) * n]);
                let f: [f64; BLOCK] = std::array::from_fn(|b| rows[b][0]);
                for (j, v) in row_i[i..].iter_mut().enumerate() {
                    let mut acc = *v;
                    for (fb, row) in f.iter().zip(&rows) {
                        acc -= fb * row[j];
                    }
                    *v = acc;
                }
            }
            k0 = k1;
        }
        Ok(Self { u: Matrix::from_vec(n, n, u) })
    }

    /// Factorizes `a`, adding increasing diagonal jitter on failure.
    ///
    /// Starts at `initial_jitter` and multiplies by 10 up to `max_tries`
    /// times. Returns the factorization together with the jitter that was
    /// finally applied (0.0 when none was needed).
    pub fn decompose_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: usize,
    ) -> Result<(Self, f64), NotPositiveDefinite> {
        if let Ok(c) = Self::decompose(a) {
            return Ok((c, 0.0));
        }
        let mut jitter = initial_jitter;
        for _ in 0..max_tries {
            let mut aj = a.clone();
            aj.add_diagonal(jitter);
            if let Ok(c) = Self::decompose(&aj) {
                return Ok((c, jitter));
            }
            jitter *= 10.0;
        }
        Err(NotPositiveDefinite)
    }

    /// The stored factor `U = Lᵀ` (upper triangular, row-major).
    pub fn upper(&self) -> &Matrix {
        &self.u
    }

    /// Grows the factor for the bordered matrix `[[A, k], [kᵀ, d]]`, where
    /// `row = [k₀ … kₙ₋₁, d]` is the new last row of the extended matrix.
    ///
    /// This is the O(n²) incremental update behind the GP hot path: the
    /// leading `n × n` block of the extended factor *is* the current
    /// factor (no element of it reads a later row or column of `A`), and
    /// the new column of `U` is the forward solve `L c = k` plus the pivot
    /// `sqrt(d − Σ cᵢ²)`. Both replay [`Cholesky::decompose`]'s arithmetic
    /// for the last column operation for operation, so the updated factor
    /// is **bit-identical** to refactorizing the extended matrix from
    /// scratch — the invariant the `gp_equivalence` suite pins down.
    ///
    /// On loss of positive-definiteness (the new pivot is non-positive or
    /// non-finite) the factor is left untouched and an error is returned;
    /// callers fall back to [`Cholesky::decompose_with_jitter`] on the
    /// full extended matrix, which matches what a from-scratch fit would
    /// have done.
    pub fn rank1_append(&mut self, row: &[f64]) -> Result<(), NotPositiveDefinite> {
        let n = self.u.rows();
        assert_eq!(row.len(), n + 1, "rank1_append row must have length n + 1");
        let mut col = vec![0.0; n];
        self.solve_lower_into(&row[..n], &mut col);
        let mut pivot = row[n];
        for c in &col {
            pivot -= c * c;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(NotPositiveDefinite);
        }
        let mut last = vec![0.0; n + 1];
        last[n] = pivot.sqrt();
        self.u.grow_square(&last, &col);
        Ok(())
    }

    /// Solves `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.u.rows()];
        self.solve_lower_into(b, &mut x);
        x
    }

    /// [`Cholesky::solve_lower`] into a caller-provided buffer — the
    /// allocation-free variant GP prediction calls once per candidate.
    /// Identical arithmetic, identical results.
    pub fn solve_lower_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.u.rows());
        assert_eq!(x.len(), self.u.rows());
        x.copy_from_slice(b);
        self.forward_in_place::<1>(x);
    }

    /// Forward substitution for `L` lane-interleaved right-hand sides at
    /// once: `b` and `x` hold lane-major data (`b[i * L + lane]` is row
    /// `i` of right-hand side `lane`).
    ///
    /// Each lane receives **exactly** the operations of
    /// [`Cholesky::solve_lower_into`], so per-lane results are
    /// bit-identical to the scalar solve; the lanes only add independent
    /// work to every step.
    pub fn solve_lower_interleaved<const L: usize>(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.u.rows() * L);
        assert_eq!(x.len(), self.u.rows() * L);
        x.copy_from_slice(b);
        self.forward_in_place::<L>(x);
    }

    /// Column-oriented forward substitution on `L` lane-interleaved
    /// right-hand sides, in place.
    ///
    /// Unknown `i` starts as `b[i]`, has `L[i][k]·x[k]` subtracted for
    /// every `k < i` in ascending order, and is divided by `L[i][i]` last:
    /// the row-by-row recurrence, reordered only *across* unknowns. Columns
    /// go in blocks of [`BLOCK`]: the block's own unknowns are finished
    /// column by column, then every later unknown subtracts the block's
    /// `BLOCK` products in one load–store pass, independent of its
    /// neighbours — which is what lets the loop vectorize.
    fn forward_in_place<const L: usize>(&self, x: &mut [f64]) {
        let n = self.u.rows();
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + BLOCK).min(n);
            for k in k0..k1 {
                let uk = self.u.row(k);
                let (head, tail) = x.split_at_mut((k + 1) * L);
                let xk = &mut head[k * L..];
                for v in xk.iter_mut() {
                    *v /= uk[k];
                }
                for (i, xi) in (k + 1..k1).zip(tail.chunks_exact_mut(L)) {
                    for (v, &xkl) in xi.iter_mut().zip(xk.iter()) {
                        *v -= uk[i] * xkl;
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Only a full block leaves unknowns behind it.
            let (head, tail) = x.split_at_mut(k1 * L);
            let mut xb = [[0.0; L]; BLOCK];
            for (b, xk) in xb.iter_mut().enumerate() {
                xk.copy_from_slice(&head[(k0 + b) * L..(k0 + b + 1) * L]);
            }
            let rows: [&[f64]; BLOCK] = std::array::from_fn(|b| &self.u.row(k0 + b)[k1..]);
            for (i, xi) in tail.chunks_exact_mut(L).enumerate() {
                let mut acc = [0.0; L];
                acc.copy_from_slice(xi);
                for (row, xk) in rows.iter().zip(&xb) {
                    let f = row[i];
                    for (a, &xkl) in acc.iter_mut().zip(xk) {
                        *a -= f * xkl;
                    }
                }
                xi.copy_from_slice(&acc);
            }
            k0 = k1;
        }
    }

    /// Solves `Lᵀ x = b` (backward substitution), reading each row of `U`
    /// contiguously.
    pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
        let n = self.u.rows();
        assert_eq!(b.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let row = self.u.row(i);
            let mut sum = b[i];
            for (uik, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                sum -= uik * xk;
            }
            x[i] = sum / row[i];
        }
        x
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log |A| = 2 Σ log L_ii` — needed by GP marginal likelihood.
    pub fn log_determinant(&self) -> f64 {
        (0..self.u.rows()).map(|i| self.u[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Solves the SPD system `A x = b` via Cholesky with jitter fallback.
///
/// Convenience wrapper used by ridge regression and GP ensembles.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefinite> {
    let (chol, _) = Cholesky::decompose_with_jitter(a, 1e-10, 12)?;
    Ok(chol.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B = [[1,2],[3,4],[5,6]] — guaranteed SPD.
        Matrix::from_rows(&[vec![6.0, 11.0, 17.0], vec![11.0, 26.0, 39.0], vec![17.0, 39.0, 62.0]])
    }

    #[test]
    fn decompose_reconstructs_input() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let u = c.upper();
        let recon = u.transpose().matmul(u);
        assert!(recon.max_abs_diff(&a) < 1e-9, "got {recon:?}");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let x = c.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "x = {x:?}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn jitter_rescues_singular_matrix() {
        // Rank-1 matrix: singular, but SPD after any positive jitter.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let (c, jitter) =
            Cholesky::decompose_with_jitter(&a, 1e-10, 12).expect("SPD decomposition succeeds");
        assert!(jitter > 0.0);
        assert_eq!(c.upper().rows(), 2);
    }

    #[test]
    fn log_determinant_matches_known_value() {
        let a = Matrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 9.0]]);
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        assert!((c.log_determinant() - (36.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_wrapper_works() {
        let a = spd3();
        let b = a.matvec(&[2.0, 2.0, 2.0]);
        let x = solve_spd(&a, &b).expect("SPD decomposition succeeds");
        for xi in x {
            assert!((xi - 2.0).abs() < 1e-8);
        }
    }

    #[test]
    fn interleaved_solve_is_bitwise_equal_to_scalar_solve() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        const L: usize = 4;
        let rhs: Vec<Vec<f64>> = (0..L)
            .map(|l| (0..3).map(|i| (i as f64 + 1.0) * 0.37 - l as f64 * 1.21).collect())
            .collect();
        let mut b_il = vec![0.0; 3 * L];
        for (l, b) in rhs.iter().enumerate() {
            for (i, v) in b.iter().enumerate() {
                b_il[i * L + l] = *v;
            }
        }
        let mut x_il = vec![0.0; 3 * L];
        c.solve_lower_interleaved::<L>(&b_il, &mut x_il);
        for (l, b) in rhs.iter().enumerate() {
            let x = c.solve_lower(b);
            for (i, xv) in x.iter().enumerate() {
                assert_eq!(
                    xv.to_bits(),
                    x_il[i * L + l].to_bits(),
                    "lane {l} row {i} drifted from the scalar solve"
                );
            }
        }
    }

    #[test]
    fn lower_and_upper_solves_are_consistent() {
        let a = spd3();
        let c = Cholesky::decompose(&a).expect("SPD decomposition succeeds");
        let b = vec![1.0, 2.0, 3.0];
        let y = c.solve_lower(&b);
        // L y should reproduce b.
        let back = c.upper().transpose().matvec(&y);
        for (bi, vi) in b.iter().zip(back) {
            assert!((bi - vi).abs() < 1e-10);
        }
    }
}
