//! Dense row-major matrix with the handful of operations the tuning
//! algorithms require: products, transposes, symmetric rank updates, and
//! elementwise combinators.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// The storage is a single contiguous allocation; `self.data[r * cols + c]`
/// holds element `(r, c)`. All operations assert dimension compatibility so
/// shape errors surface at the call site instead of producing garbage.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(r, c)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Flat row-major view of the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Uses the classic i-k-j loop order so the innermost loop walks both
    /// operands contiguously.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let src = other.row(k);
                let dst = out.row_mut(i);
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            out.push(dot(self.row(r), v));
        }
        out
    }

    /// Computes `selfᵀ * self` (the Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..n {
                    out[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Appends a column, keeping the row count.
    ///
    /// # Panics
    /// Panics if `col.len() != self.rows()` (unless the matrix is empty,
    /// in which case the column defines the row count).
    pub fn push_col(&mut self, col: &[f64]) {
        if self.rows == 0 && self.cols == 0 {
            self.rows = col.len();
        }
        assert_eq!(col.len(), self.rows, "push_col length mismatch");
        let mut data = Vec::with_capacity(self.rows * (self.cols + 1));
        for (r, &v) in col.iter().enumerate() {
            data.extend_from_slice(self.row(r));
            data.push(v);
        }
        self.cols += 1;
        self.data = data;
    }

    /// Grows a square `n × n` matrix to `(n+1) × (n+1)`.
    ///
    /// `row` (length `n + 1`) becomes the new last row; the new last
    /// column is filled with `col` (length `n`, rows `0..n`). The two
    /// callers are the incremental Cholesky (the new column of `U = Lᵀ`,
    /// and a last row that is zero but for the pivot) and the cached GP
    /// covariance (symmetric column = row prefix).
    pub fn grow_square(&mut self, row: &[f64], col: &[f64]) {
        assert_eq!(self.rows, self.cols, "grow_square requires a square matrix");
        let n = self.rows;
        assert_eq!(row.len(), n + 1, "grow_square row length mismatch");
        assert_eq!(col.len(), n, "grow_square column length mismatch");
        let mut data = Vec::with_capacity((n + 1) * (n + 1));
        for (r, &cv) in col.iter().enumerate() {
            data.extend_from_slice(self.row(r));
            data.push(cv);
        }
        data.extend_from_slice(row);
        self.rows = n + 1;
        self.cols = n + 1;
        self.data = data;
    }

    /// Adds `lambda` to every diagonal element in place.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Elementwise sum with another matrix of identical shape.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Maximum absolute difference against another matrix (for tests).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.5]]);
        let v = vec![3.0, 4.0];
        assert_eq!(a.matvec(&v), vec![-1.0, 8.0]);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diagonal(2.5);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 2.5 } else { 0.0 };
                assert_eq!(a[(i, j)], expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn col_extracts_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn from_fn_fills_elements() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(a[(1, 2)], 12.0);
        assert_eq!(a[(0, 0)], 0.0);
    }
}
