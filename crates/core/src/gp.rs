//! Gaussian-process regression for the BO-based optimizers.
//!
//! Kernels: RBF (vanilla BO, as in OtterTune), Matérn-5/2, Hamming
//! (categorical), and the Matérn×Hamming product of mixed-kernel BO. The
//! posterior follows Eq. (3) of the paper via Cholesky factorization;
//! kernel hyper-parameters (a single shared lengthscale and the noise
//! level) are chosen by log-marginal-likelihood over a small grid — cheap,
//! robust, and deterministic.
//!
//! The fit/predict hot path is incremental and batched (see
//! `docs/gp-internals.md`): [`GaussianProcess::extend`] grows the Cholesky
//! factor in O(n²) via [`Cholesky::rank1_append`] instead of refactorizing
//! in O(n³), and [`GaussianProcess::predict_batch`] scores a whole
//! candidate matrix eight candidates at a time without per-candidate
//! allocation. Kernel rows are evaluated eight training points at a time
//! from dimension-major inputs, and the Cholesky factor is stored by column
//! so its loops vectorize. All of it is **bit-identical** to the
//! from-scratch, pointwise, row-by-row paths — the `gp_equivalence` suite
//! and the linalg property tests enforce it — so every committed experiment
//! artifact is unchanged by the optimization.

use crate::telemetry;
use dbtune_linalg::stats;
use dbtune_linalg::{Cholesky, Matrix};

/// A positive-definite covariance function over encoded configurations.
///
/// Implementations must be *bitwise symmetric* — `eval(a, b)` and
/// `eval(b, a)` return the same `f64` bit pattern — because the cached
/// covariance matrix mirrors its lower triangle instead of evaluating
/// both orders. All three kernels here satisfy this: they only consume
/// coordinate differences through `(aᵢ − bᵢ)²` or `|aᵢ − bᵢ|`.
pub trait Kernel: Send + Sync {
    /// Evaluates `k(a, b)`.
    fn eval(&self, a: &[f64], b: &[f64]) -> f64;

    /// Returns a copy with a different lengthscale (for the grid search).
    fn with_lengthscale(&self, ls: f64) -> Box<dyn Kernel>;

    /// Evaluates `k(xⱼ, q)` into `out[j]` for the first `out.len()`
    /// training points.
    ///
    /// `xt` holds the training inputs dimension-major: `xt.row(d)[j]` is
    /// coordinate `d` of point `j`. The kernels here evaluate eight points
    /// per step, one accumulator per point, summing over the
    /// dimensions in [`Kernel::eval`]'s order, so `out[j]` is bit-identical
    /// to `eval(xⱼ, q)`; only `exp` runs per element. No heap allocation.
    fn eval_into(&self, xt: &Matrix, q: &[f64], out: &mut [f64]);
}

/// Training points per step of [`Kernel::eval_into`].
const POINTS: usize = 8;

/// Writes `Σ (xt[d][j] − q[d])²` over `dims`, in order, into `out[j]` for
/// every point `j < out.len()`: [`POINTS`] independent accumulators per
/// step, then the leftover points one by one.
fn sq_dists_into(
    xt: &Matrix,
    q: &[f64],
    dims: impl Iterator<Item = usize> + Clone,
    out: &mut [f64],
) {
    let full = out.len() - out.len() % POINTS;
    let mut blocks = out.chunks_exact_mut(POINTS);
    for (b, block) in blocks.by_ref().enumerate() {
        let base = b * POINTS;
        let mut acc = [0.0; POINTS];
        for d in dims.clone() {
            let qd = q[d];
            for (a, &x) in acc.iter_mut().zip(&xt.row(d)[base..base + POINTS]) {
                let diff = x - qd;
                *a += diff * diff;
            }
        }
        block.copy_from_slice(&acc);
    }
    for (j, o) in (full..).zip(blocks.into_remainder()) {
        let mut acc = 0.0;
        for d in dims.clone() {
            let diff = xt[(d, j)] - q[d];
            acc += diff * diff;
        }
        *o = acc;
    }
}

/// Squared-exponential kernel value at squared distance `d2`.
#[inline]
fn rbf(d2: f64, ls: f64) -> f64 {
    (-0.5 * d2 / (ls * ls)).exp()
}

/// Matérn-5/2 kernel value at squared distance `d2`.
#[inline]
fn matern52(d2: f64, ls: f64) -> f64 {
    let r = d2.sqrt() / ls;
    let s5 = (5.0f64).sqrt() * r;
    (1.0 + s5 + 5.0 * r * r / 3.0) * (-s5).exp()
}

/// Squared-exponential kernel on the unit cube (vanilla BO / OtterTune).
#[derive(Clone, Debug)]
pub struct RbfKernel {
    /// Shared lengthscale.
    pub lengthscale: f64,
}

impl Kernel for RbfKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        rbf(dbtune_linalg::matrix::sq_dist(a, b), self.lengthscale)
    }

    fn with_lengthscale(&self, ls: f64) -> Box<dyn Kernel> {
        Box::new(RbfKernel { lengthscale: ls })
    }

    fn eval_into(&self, xt: &Matrix, q: &[f64], out: &mut [f64]) {
        sq_dists_into(xt, q, 0..q.len(), out);
        for o in out.iter_mut() {
            *o = rbf(*o, self.lengthscale);
        }
    }
}

/// Matérn-5/2 kernel on the unit cube.
#[derive(Clone, Debug)]
pub struct Matern52Kernel {
    /// Shared lengthscale.
    pub lengthscale: f64,
}

impl Kernel for Matern52Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        matern52(dbtune_linalg::matrix::sq_dist(a, b), self.lengthscale)
    }

    fn with_lengthscale(&self, ls: f64) -> Box<dyn Kernel> {
        Box::new(Matern52Kernel { lengthscale: ls })
    }

    fn eval_into(&self, xt: &Matrix, q: &[f64], out: &mut [f64]) {
        sq_dists_into(xt, q, 0..q.len(), out);
        for o in out.iter_mut() {
            *o = matern52(*o, self.lengthscale);
        }
    }
}

/// Matérn-5/2 × Hamming product kernel for heterogeneous spaces
/// (mixed-kernel BO). Continuous dimensions use Matérn on unit encodings;
/// categorical dimensions use a smoothed Hamming similarity.
#[derive(Clone, Debug)]
pub struct MixedKernel {
    /// Indices of continuous/integer dimensions (unit-encoded).
    pub cont_dims: Vec<usize>,
    /// Indices of categorical dimensions (category codes).
    pub cat_dims: Vec<usize>,
    /// Matérn lengthscale for the continuous part.
    pub lengthscale: f64,
    /// Hamming sharpness: weight of a category mismatch.
    pub hamming_weight: f64,
}

/// Hamming factors [`MixedKernel::eval_into`] tabulates on the stack per
/// call; factors for more mismatches than this are computed per element.
const HAMMING_TABLE: usize = 64;

impl MixedKernel {
    /// Hamming part: `exp(−w · mismatch-fraction)`, or 1.0 without
    /// categorical dimensions.
    fn hamming(&self, mismatches: usize) -> f64 {
        if self.cat_dims.is_empty() {
            1.0
        } else {
            (-self.hamming_weight * mismatches as f64 / self.cat_dims.len() as f64).exp()
        }
    }

    /// Category mismatches between `q` and each of the `W` points
    /// `base..base + W`, one counter per point.
    fn mismatches<const W: usize>(&self, xt: &Matrix, q: &[f64], base: usize) -> [usize; W] {
        let mut m = [0; W];
        for &c in &self.cat_dims {
            let qc = q[c];
            for (mj, &x) in m.iter_mut().zip(&xt.row(c)[base..base + W]) {
                *mj += usize::from((x - qc).abs() > 0.5);
            }
        }
        m
    }
}

impl Kernel for MixedKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        // Matérn-5/2 over continuous dims.
        let mut d2 = 0.0;
        for &i in &self.cont_dims {
            let d = a[i] - b[i];
            d2 += d * d;
        }
        let mismatches = self.cat_dims.iter().filter(|&&i| (a[i] - b[i]).abs() > 0.5).count();
        matern52(d2, self.lengthscale) * self.hamming(mismatches)
    }

    fn with_lengthscale(&self, ls: f64) -> Box<dyn Kernel> {
        Box::new(MixedKernel { lengthscale: ls, ..self.clone() })
    }

    fn eval_into(&self, xt: &Matrix, q: &[f64], out: &mut [f64]) {
        sq_dists_into(xt, q, self.cont_dims.iter().copied(), out);
        let mut table = [0.0; HAMMING_TABLE];
        let known = (self.cat_dims.len() + 1).min(HAMMING_TABLE);
        for (m, t) in table[..known].iter_mut().enumerate() {
            *t = self.hamming(m);
        }
        let finish = |o: &mut f64, m: usize| {
            let cat = if m < known { table[m] } else { self.hamming(m) };
            *o = matern52(*o, self.lengthscale) * cat;
        };
        let full = out.len() - out.len() % POINTS;
        let mut blocks = out.chunks_exact_mut(POINTS);
        for (b, block) in blocks.by_ref().enumerate() {
            let m = self.mismatches::<POINTS>(xt, q, b * POINTS);
            block.iter_mut().zip(m).for_each(|(o, m)| finish(o, m));
        }
        for (j, o) in (full..).zip(blocks.into_remainder()) {
            let [m] = self.mismatches::<1>(xt, q, j);
            finish(o, m);
        }
    }
}

/// Builds the noisy covariance matrix `K + noise·I` over the points `x`,
/// whose dimension-major copy is `xt`.
///
/// Row `i` is one [`Kernel::eval_into`] over points `0..=i` with query
/// `xᵢ`, so entry `(i, j)` is `k(xⱼ, xᵢ)`; the upper triangle is
/// mirrored. Kernels are bitwise symmetric (see [`Kernel`]), so the result
/// is bit-identical to evaluating every `(i, j)` pair — at half the kernel
/// calls.
fn kernel_matrix(kernel: &dyn Kernel, x: &[Vec<f64>], xt: &Matrix, noise: f64) -> Matrix {
    let n = x.len();
    let mut k = Matrix::zeros(n, n);
    for (i, xi) in x.iter().enumerate() {
        kernel.eval_into(xt, xi, &mut k.row_mut(i)[..=i]);
    }
    for i in 0..n {
        for j in 0..i {
            k[(j, i)] = k[(i, j)];
        }
    }
    k.add_diagonal(noise);
    k
}

/// The points `x` dimension-major: row `d` holds coordinate `d` of every
/// point (the layout [`Kernel::eval_into`] reads).
fn dimension_major(x: &[Vec<f64>]) -> Matrix {
    Matrix::from_rows(x).transpose()
}

/// A fitted Gaussian process with standardized targets.
///
/// Training inputs (dimension-major) and the noisy covariance are cached
/// in [`Matrix`] blocks so [`GaussianProcess::extend`] can grow the model
/// in O(n²) and [`GaussianProcess::predict_batch`] can stream kernel rows
/// without re-deriving anything.
pub struct GaussianProcess {
    kernel: Box<dyn Kernel>,
    /// Training inputs, dimension-major: `xt.row(d)[j]` is coordinate `d`
    /// of point `j`. `extend` appends a column.
    xt: Matrix,
    /// Cached `K + noise·I` — grown alongside `xt`, and the input to the
    /// jitter-fallback refactorization.
    k: Matrix,
    /// Original-scale targets (standardization is recomputed on extend).
    y_raw: Vec<f64>,
    /// Cached `K⁻¹ y` solve against standardized targets.
    alpha: Vec<f64>,
    chol: Cholesky,
    /// Diagonal jitter the current factor carries (0.0 on the fast path).
    /// A jittered factor cannot be appended to — see `extend`.
    jitter: f64,
    y_mean: f64,
    y_std: f64,
    noise: f64,
}

impl GaussianProcess {
    /// Fits a GP with fixed kernel and noise level.
    ///
    /// Targets are standardized internally; predictions are returned on
    /// the original scale.
    pub fn fit(kernel: Box<dyn Kernel>, x: &[Vec<f64>], y: &[f64], noise: f64) -> Self {
        assert_eq!(x.len(), y.len());
        assert!(!x.is_empty(), "GP fit on empty data");
        let xt = dimension_major(x);
        let k = kernel_matrix(kernel.as_ref(), x, &xt, noise);
        let (chol, jitter) = Cholesky::decompose_with_jitter(&k, 1e-8, 12)
            .expect("GP covariance not PD even with jitter");
        let mut gp = Self {
            kernel,
            xt,
            k,
            y_raw: y.to_vec(),
            alpha: Vec::new(),
            chol,
            jitter,
            y_mean: 0.0,
            y_std: 1.0,
            noise,
        };
        gp.refresh_alpha();
        gp
    }

    /// Fits with lengthscale and noise selected by maximizing the log
    /// marginal likelihood over a small grid.
    pub fn fit_auto(kernel: Box<dyn Kernel>, x: &[Vec<f64>], y: &[f64]) -> Self {
        let (ls, noise) = select_hyperparams(kernel.as_ref(), x, y);
        Self::fit(kernel.with_lengthscale(ls), x, y, noise)
    }

    /// Recomputes target standardization and the `alpha = K⁻¹ y` cache
    /// from the current factor. O(n²).
    fn refresh_alpha(&mut self) {
        self.y_mean = stats::mean(&self.y_raw);
        self.y_std = stats::std_dev(&self.y_raw).max(1e-12);
        let yn: Vec<f64> = self.y_raw.iter().map(|v| (v - self.y_mean) / self.y_std).collect();
        self.alpha = self.chol.solve(&yn);
    }

    /// Absorbs one new observation in O(n²) instead of refitting in O(n³).
    ///
    /// The new kernel row — one [`Kernel::eval_into`] over every point,
    /// the new one included — is appended to the cached covariance and
    /// the factor is grown with [`Cholesky::rank1_append`]; the
    /// standardizer and the `alpha` solve are refreshed against the full
    /// history. The result is bit-identical to [`GaussianProcess::fit`] on
    /// the extended data with the same kernel and noise (the
    /// `gp_equivalence` suite proves this per kernel).
    ///
    /// Fallback rule: if the current factor carries jitter, or the append
    /// loses positive-definiteness, the extended covariance is
    /// refactorized from scratch with the usual jitter ladder — exactly
    /// what a from-scratch fit would do.
    pub fn extend(&mut self, x_new: Vec<f64>, y_new: f64) {
        let _span = telemetry::span("gp.extend");
        let n = self.n_train();
        self.xt.push_col(&x_new);
        let mut row = vec![0.0; n + 1];
        self.kernel.eval_into(&self.xt, &x_new, &mut row);
        row[n] += self.noise;
        self.k.grow_square(&row, &row[..n]);
        self.y_raw.push(y_new);

        let appended = self.jitter == 0.0 && self.chol.rank1_append(&row).is_ok();
        if !appended {
            let (chol, jitter) = Cholesky::decompose_with_jitter(&self.k, 1e-8, 12)
                .expect("GP covariance not PD even with jitter");
            self.chol = chol;
            self.jitter = jitter;
        }
        self.refresh_alpha();
    }

    /// Posterior mean and variance at `q` (original target scale).
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        let n = self.n_train();
        let mut kstar = vec![0.0; n];
        let mut v = vec![0.0; n];
        self.predict_into(q, &mut kstar, &mut v)
    }

    /// Lane width of the interleaved batch path: eight independent
    /// right-hand sides share every step of the triangular solve.
    const LANES: usize = 8;

    /// Posterior mean and variance for every query row, in one pass.
    ///
    /// Queries are processed in blocks of [`Self::LANES`]. The kernel
    /// row and the mean dot-product run per lane with the exact scalar
    /// routines; the triangular solve runs through
    /// [`Cholesky::solve_lower_interleaved`], which gives each of the
    /// eight lanes the scalar solve's operation sequence while every step
    /// works on all of them at once. Leftover queries (and calls with
    /// fewer than eight queries, e.g. polish probes) take the plain
    /// pointwise path, and only batches of eight or more allocate the
    /// lane buffers. Every element is bit-identical to
    /// [`GaussianProcess::predict`] on the same query — the
    /// `gp_equivalence` suite enforces this.
    ///
    /// The `gp.predict_batch` span only opens for true batches
    /// (`qs.len() > 1`): single-probe calls are ~µs-scale and emitting a
    /// journal line per probe would cost more than the work it measures.
    pub fn predict_batch(&self, qs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let _span = (qs.len() > 1).then(|| telemetry::span("gp.predict_batch"));
        const LANES: usize = GaussianProcess::LANES;
        let n = self.n_train();
        let mut out = Vec::with_capacity(qs.len());
        let mut blocks = qs.chunks_exact(LANES);
        if qs.len() >= LANES {
            // Per-lane contiguous kernel rows plus lane-major solve
            // buffers, shared across all blocks.
            let mut kstar = vec![0.0; n * LANES];
            let mut b_il = vec![0.0; n * LANES];
            let mut v_il = vec![0.0; n * LANES];
            for block in blocks.by_ref() {
                let mut mean_n = [0.0; LANES];
                for (l, q) in block.iter().enumerate() {
                    let row = &mut kstar[l * n..(l + 1) * n];
                    self.kernel.eval_into(&self.xt, q, row);
                    mean_n[l] = dbtune_linalg::matrix::dot(row, &self.alpha);
                }
                for k in 0..n {
                    for l in 0..LANES {
                        b_il[k * LANES + l] = kstar[l * n + k];
                    }
                }
                self.chol.solve_lower_interleaved::<LANES>(&b_il, &mut v_il);
                for (l, q) in block.iter().enumerate() {
                    let kss = self.kernel.eval(q, q) + self.noise;
                    // Same fold as the scalar path: Σ vᵢ² in ascending k,
                    // with the exact-zero skip of `sum_of_squares`.
                    let mut s2 = 0.0;
                    for vk in v_il.chunks_exact(LANES) {
                        let vi = vk[l];
                        #[allow(
                            clippy::neg_cmp_op_on_partial_ord,
                            reason = "`!(… < …)`, not `… >= …`: NaN must stay computed"
                        )]
                        if !(vi.abs() < SOS_SKIP_BELOW) {
                            s2 += vi * vi;
                        }
                    }
                    let var_n = (kss - s2).max(1e-12);
                    out.push((
                        mean_n[l] * self.y_std + self.y_mean,
                        var_n * self.y_std * self.y_std,
                    ));
                }
            }
        }
        let mut ks = vec![0.0; n];
        let mut v = vec![0.0; n];
        for q in blocks.remainder() {
            out.push(self.predict_into(q, &mut ks, &mut v));
        }
        out
    }

    /// One posterior evaluation against caller-provided scratch buffers.
    fn predict_into(&self, q: &[f64], kstar: &mut [f64], v: &mut [f64]) -> (f64, f64) {
        self.kernel.eval_into(&self.xt, q, kstar);
        let mean_n = dbtune_linalg::matrix::dot(kstar, &self.alpha);
        self.chol.solve_lower_into(kstar, v);
        let kss = self.kernel.eval(q, q) + self.noise;
        let var_n = (kss - sum_of_squares(v)).max(1e-12);
        (mean_n * self.y_std + self.y_mean, var_n * self.y_std * self.y_std)
    }

    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.y_raw.len()
    }

    /// Diagonal jitter the current factor carries (0.0 on the fast path;
    /// diagnostics and the equivalence tests).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }
}

/// Terms with `|vᵢ|` below this bound are skipped by [`sum_of_squares`].
///
/// The constant is 2⁻⁵³⁸, safely under the exact-underflow boundary
/// 2⁻⁵³⁷·⁵: for `|vᵢ| < 2⁻⁵³⁸` the true square is below 2⁻¹⁰⁷⁶, less
/// than half the smallest subnormal (2⁻¹⁰⁷⁴), so `vᵢ * vᵢ` rounds to
/// exactly `+0.0` — and `s += 0.0` is a bitwise no-op on a non-negative
/// accumulator. Skipping such terms therefore returns the *identical*
/// `f64` while sidestepping the subnormal-arithmetic stalls that
/// otherwise dominate GP variance at short lengthscales, where most
/// kernel weights sit around 1e-200 and their squares land in the
/// hardware's microcode-assisted subnormal range (~8× slower per
/// acquisition candidate, measured).
const SOS_SKIP_BELOW: f64 = 1.112536929253601e-162;

/// `Σ vᵢ²` in slice order, with the exact-zero skip described at
/// [`SOS_SKIP_BELOW`]. Bit-identical to the naive
/// `v.iter().map(|vi| vi * vi).sum()` fold on every input (the negated
/// comparison keeps NaN terms in the computed path).
#[inline]
fn sum_of_squares(v: &[f64]) -> f64 {
    let mut s2 = 0.0;
    for &vi in v {
        #[allow(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "`!(… < …)`, not `… >= …`: NaN must stay computed"
        )]
        if !(vi.abs() < SOS_SKIP_BELOW) {
            s2 += vi * vi;
        }
    }
    s2
}

/// Selects `(lengthscale, noise)` by log marginal likelihood over a small
/// grid. Exposed so optimizers can cache the selection and refresh it
/// periodically instead of re-running the grid on every iteration.
///
/// The covariance is built once per lengthscale and cloned per noise
/// level (the noise only touches the diagonal), and the standardized
/// targets and the dimension-major inputs are computed once — same values
/// as rebuilding everything per grid point, at a third of the kernel
/// evaluations.
pub fn select_hyperparams(kernel: &dyn Kernel, x: &[Vec<f64>], y: &[f64]) -> (f64, f64) {
    const LENGTHSCALES: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6];
    const NOISES: [f64; 3] = [1e-6, 1e-4, 1e-2];
    let n = x.len();
    let y_mean = stats::mean(y);
    let y_std = stats::std_dev(y).max(1e-12);
    let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
    let xt = dimension_major(x);
    let mut best: Option<(f64, f64, f64)> = None; // (lml, ls, noise)
    for &ls in &LENGTHSCALES {
        let k = kernel.with_lengthscale(ls);
        let base = kernel_matrix(k.as_ref(), x, &xt, 0.0);
        for &noise in &NOISES {
            let mut kn = base.clone();
            kn.add_diagonal(noise);
            if let Some(lml) = log_marginal_likelihood(&kn, &yn, n) {
                if best.is_none_or(|(b, _, _)| lml > b) {
                    best = Some((lml, ls, noise));
                }
            }
        }
    }
    let (_, ls, noise) = best.expect("no admissible GP hyper-parameters");
    (ls, noise)
}

/// Log marginal likelihood of standardized targets `yn` under the noisy
/// covariance `kn`; `None` if the covariance cannot be factorized.
fn log_marginal_likelihood(kn: &Matrix, yn: &[f64], n: usize) -> Option<f64> {
    let (chol, _) = Cholesky::decompose_with_jitter(kn, 1e-8, 8).ok()?;
    let alpha = chol.solve(yn);
    let fit: f64 = dbtune_linalg::matrix::dot(yn, &alpha);
    Some(
        -0.5 * fit
            - 0.5 * chol.log_determinant()
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 11.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| (v[0] * 6.0).sin() * 3.0 + 10.0).collect();
        (x, y)
    }

    #[test]
    fn gp_interpolates_training_points() {
        let (x, y) = toy_data();
        let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.2 }), &x, &y, 1e-8);
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi);
            assert!((m - yi).abs() < 1e-3, "mean {m} vs target {yi}");
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let (x, y) = toy_data();
        let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.2 }), &x, &y, 1e-6);
        let (_, v_in) = gp.predict(&x[5]);
        let (_, v_out) = gp.predict(&[3.0]);
        assert!(v_out > v_in * 10.0);
    }

    #[test]
    fn fit_auto_selects_reasonable_fit() {
        let (x, y) = toy_data();
        let gp = GaussianProcess::fit_auto(Box::new(RbfKernel { lengthscale: 1.0 }), &x, &y);
        let (m, _) = gp.predict(&[0.5]);
        let truth = (0.5f64 * 6.0).sin() * 3.0 + 10.0;
        assert!((m - truth).abs() < 0.5, "auto GP mean {m} vs truth {truth}");
    }

    #[test]
    fn matern_kernel_basic_properties() {
        let k = Matern52Kernel { lengthscale: 0.5 };
        assert!((k.eval(&[0.3], &[0.3]) - 1.0).abs() < 1e-12);
        assert!(k.eval(&[0.0], &[0.1]) > k.eval(&[0.0], &[0.9]));
    }

    #[test]
    fn mixed_kernel_penalizes_category_mismatch() {
        let k = MixedKernel {
            cont_dims: vec![0],
            cat_dims: vec![1],
            lengthscale: 0.5,
            hamming_weight: 2.0,
        };
        let same = k.eval(&[0.5, 1.0], &[0.5, 1.0]);
        let diff = k.eval(&[0.5, 1.0], &[0.5, 2.0]);
        assert!((same - 1.0).abs() < 1e-12);
        assert!(diff < same);
        // Ordinal distance between categories is irrelevant: mismatch is
        // mismatch (unlike the RBF ordinal encoding).
        let diff_far = k.eval(&[0.5, 0.0], &[0.5, 3.0]);
        assert!((diff - diff_far).abs() < 1e-12);
    }

    #[test]
    fn mixed_kernel_without_categories_reduces_to_matern() {
        let mk = MixedKernel {
            cont_dims: vec![0, 1],
            cat_dims: vec![],
            lengthscale: 0.7,
            hamming_weight: 2.0,
        };
        let m = Matern52Kernel { lengthscale: 0.7 };
        let a = [0.2, 0.8];
        let b = [0.6, 0.1];
        assert!((mk.eval(&a, &b) - m.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn predictions_on_original_scale() {
        // Targets far from zero: standardization must be undone.
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 4.0]).collect();
        let y = vec![1000.0, 1010.0, 1020.0, 1030.0, 1040.0];
        let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.5 }), &x, &y, 1e-8);
        let (m, _) = gp.predict(&[0.0]);
        assert!((m - 1000.0).abs() < 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cached covariance mirrors its lower triangle, and
        /// `kernel_matrix` fills every entry from `k(xⱼ, xᵢ)`: both are
        /// only sound if `eval(a, b)` and `eval(b, a)` agree to the bit.
        #[test]
        fn kernels_are_bitwise_symmetric(
            a in proptest::collection::vec(-2.0f64..2.0, 3),
            b in proptest::collection::vec(-2.0f64..2.0, 3),
            cats in (0u32..4, 0u32..4),
            ls in 0.01f64..2.0,
        ) {
            let kernels: Vec<Box<dyn Kernel>> = vec![
                Box::new(RbfKernel { lengthscale: ls }),
                Box::new(Matern52Kernel { lengthscale: ls }),
                Box::new(MixedKernel {
                    cont_dims: vec![0, 2],
                    cat_dims: vec![1],
                    lengthscale: ls,
                    hamming_weight: 2.0,
                }),
            ];
            let (mut a, mut b) = (a, b);
            a[1] = f64::from(cats.0);
            b[1] = f64::from(cats.1);
            for k in &kernels {
                prop_assert_eq!(k.eval(&a, &b).to_bits(), k.eval(&b, &a).to_bits());
            }
        }
    }

    #[test]
    fn extend_matches_full_fit_on_toy_data() {
        let (x, y) = toy_data();
        let full = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.2 }), &x, &y, 1e-6);
        let mut inc =
            GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.2 }), &x[..3], &y[..3], 1e-6);
        for i in 3..x.len() {
            inc.extend(x[i].clone(), y[i]);
        }
        assert_eq!(inc.n_train(), full.n_train());
        for q in [&[0.21][..], &[0.5], &[0.98], &[1.7]] {
            let (mf, vf) = full.predict(q);
            let (mi, vi) = inc.predict(q);
            assert_eq!(mf.to_bits(), mi.to_bits(), "mean drifted at {q:?}");
            assert_eq!(vf.to_bits(), vi.to_bits(), "variance drifted at {q:?}");
        }
    }

    #[test]
    fn predict_batch_matches_pointwise_predict() {
        let (x, y) = toy_data();
        let gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.2 }), &x, &y, 1e-6);
        let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 7.0 - 0.4]).collect();
        let batch = gp.predict_batch(&queries);
        for (q, (mb, vb)) in queries.iter().zip(batch) {
            let (m, v) = gp.predict(q);
            assert_eq!(m.to_bits(), mb.to_bits());
            assert_eq!(v.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn extend_on_duplicate_points_falls_back_to_jitter() {
        // A duplicated input row makes the bordered covariance singular at
        // noise 0: the append must fail cleanly and the jitter ladder must
        // rescue the refit, leaving a usable (and flagged) model.
        let x = vec![vec![0.2], vec![0.8]];
        let y = vec![1.0, 2.0];
        let mut gp = GaussianProcess::fit(Box::new(RbfKernel { lengthscale: 0.5 }), &x, &y, 0.0);
        gp.extend(vec![0.2], 1.0);
        assert_eq!(gp.n_train(), 3);
        assert!(gp.jitter() > 0.0, "duplicate row must force the jitter fallback");
        let (m, v) = gp.predict(&[0.5]);
        assert!(m.is_finite() && v >= 0.0);
    }
}
