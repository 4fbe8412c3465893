//! Multi-layer perceptrons with Adam, the substrate for the DDPG optimizer
//! (CDBTune's actor/critic networks).
//!
//! Beyond standard fit/predict, the network exposes what DDPG needs:
//! gradients with respect to the *inputs* (the deterministic policy
//! gradient flows from the critic's Q-value back through the action
//! inputs), single-sample Adam steps whose output gradient a closure
//! computes from the step's own forward pass, Polyak soft updates between
//! online and target networks, and flat weight export/import for the
//! fine-tune transfer framework.

use crate::Regressor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

/// Hidden/output activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid (CDBTune's actor output squashes to `[0,1]`).
    Sigmoid,
    /// Identity (critic output).
    Linear,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `a`.
    #[inline]
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Linear => 1.0,
        }
    }
}

/// MLP architecture and training hyper-parameters.
#[derive(Clone, Debug)]
pub struct MlpParams {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Output dimensionality.
    pub output_dim: usize,
    /// Hidden activation.
    pub hidden_activation: Activation,
    /// Output activation.
    pub output_activation: Activation,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl MlpParams {
    /// A small regression network (used in tests and as a generic learner).
    pub fn regression(input_dim: usize, seed: u64) -> Self {
        Self {
            input_dim,
            hidden: vec![64, 64],
            output_dim: 1,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Linear,
            learning_rate: 1e-3,
            seed,
        }
    }
}

#[derive(Clone, Debug)]
struct Layer {
    // Row-major weights: out_dim × in_dim.
    w: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut StdRng) -> Self {
        // He/Xavier-style scaled Gaussian initialization.
        let scale = (2.0 / (in_dim + out_dim) as f64).sqrt();
        let normal = Normal::new(0.0, scale).expect("valid normal");
        let w = (0..in_dim * out_dim).map(|_| normal.sample(rng)).collect();
        Self {
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
            act,
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        debug_assert_eq!(input.len(), self.in_dim);
        let mut out = Vec::with_capacity(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let z = self.b[o] + dbtune_linalg::matrix::dot(row, input);
            out.push(self.act.apply(z));
        }
        out
    }

    /// Gradient with respect to the layer input, `Wᵀ·dz`. Rows whose `dz`
    /// is zero add nothing and are skipped.
    fn input_delta(&self, dz: &[f64]) -> Vec<f64> {
        let n = self.in_dim;
        let mut prev = vec![0.0; n];
        for (o, &d) in dz.iter().enumerate() {
            if d == 0.0 {
                continue;
            }
            for (p, w) in prev.iter_mut().zip(&self.w[o * n..(o + 1) * n]) {
                *p += d * w;
            }
        }
        prev
    }

    /// Adam update of every weight and bias from `dz = dL/dz` and the
    /// layer input `a_in`. The weight gradient is `dz[o]·a_in[i]`.
    fn adam_step(&mut self, adam: &Adam, dz: &[f64], a_in: &[f64]) {
        let n = self.in_dim;
        for (o, &d) in dz.iter().enumerate() {
            let row = o * n..(o + 1) * n;
            let weights = self.w[row.clone()]
                .iter_mut()
                .zip(&mut self.mw[row.clone()])
                .zip(&mut self.vw[row]);
            for (((w, m), v), a) in weights.zip(a_in) {
                adam.update(w, m, v, d * a);
            }
            adam.update(&mut self.b[o], &mut self.mb[o], &mut self.vb[o], d);
        }
    }
}

/// A feed-forward network trained with Adam.
#[derive(Clone, Debug)]
pub struct Mlp {
    params: MlpParams,
    layers: Vec<Layer>,
    adam_t: u64,
}

const ADAM_B1: f64 = 0.9;
const ADAM_B2: f64 = 0.999;
const ADAM_EPS: f64 = 1e-8;

/// One Adam step's learning rate and bias corrections.
struct Adam {
    lr: f64,
    bc1: f64,
    bc2: f64,
}

impl Adam {
    /// Updates one parameter `w` and its moments from its gradient `g`.
    /// Every parameter's operations read only its own operands, so a row
    /// of these vectorizes to the same bits as one parameter at a time; an
    /// FMA, a reciprocal multiply or any reordering would change them.
    #[inline(always)]
    fn update(&self, w: &mut f64, m: &mut f64, v: &mut f64, g: f64) {
        *m = ADAM_B1 * *m + (1.0 - ADAM_B1) * g;
        *v = ADAM_B2 * *v + (1.0 - ADAM_B2) * g * g;
        let mhat = *m / self.bc1;
        let vhat = *v / self.bc2;
        *w -= self.lr * mhat / (vhat.sqrt() + ADAM_EPS);
    }
}

impl Mlp {
    /// Builds a network with randomly initialized weights.
    pub fn new(params: MlpParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut dims = vec![params.input_dim];
        dims.extend_from_slice(&params.hidden);
        dims.push(params.output_dim);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                params.output_activation
            } else {
                params.hidden_activation
            };
            layers.push(Layer::new(dims[i], dims[i + 1], act, &mut rng));
        }
        Self { params, layers, adam_t: 0 }
    }

    /// Forward pass producing the output vector.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut a = input.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a);
        }
        a
    }

    /// Forward pass retaining per-layer activations for backprop.
    fn forward_cached(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    /// One Adam step on a single input. `grad_of_output` receives the
    /// network's output for `input` and returns the gradient of the loss
    /// with respect to it; backprop and the update then reuse that same
    /// forward pass.
    pub fn step_with(&mut self, input: &[f64], grad_of_output: impl FnOnce(&[f64]) -> Vec<f64>) {
        let acts = self.forward_cached(input);
        let mut delta = grad_of_output(acts.last().expect("nonempty"));
        debug_assert_eq!(delta.len(), self.params.output_dim);
        self.adam_t += 1;
        let adam = Adam {
            lr: self.params.learning_rate,
            bc1: 1.0 - ADAM_B1.powi(self.adam_t as i32),
            bc2: 1.0 - ADAM_B2.powi(self.adam_t as i32),
        };
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            for (d, a) in delta.iter_mut().zip(&acts[li + 1]) {
                *d *= layer.act.derivative_from_output(*a);
            }
            // Taken before the weights change; nothing reads layer 0's.
            let prev_delta = if li > 0 { layer.input_delta(&delta) } else { Vec::new() };
            layer.adam_step(&adam, &delta, &acts[li]);
            delta = prev_delta;
        }
    }

    /// Gradient of a scalar projection `wᵀ output` with respect to the input,
    /// without updating any weights (critic → actor gradient flow).
    pub fn input_gradient(&self, input: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let acts = self.forward_cached(input);
        let mut delta = grad_out.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            for (d, a) in delta.iter_mut().zip(&acts[li + 1]) {
                *d *= layer.act.derivative_from_output(*a);
            }
            delta = layer.input_delta(&delta);
        }
        delta
    }

    /// One squared-loss Adam step on a single `(input, target)` pair.
    /// Returns the pre-update squared error.
    pub fn train_step(&mut self, input: &[f64], target: &[f64]) -> f64 {
        let mut err = 0.0;
        self.step_with(input, |out| {
            debug_assert_eq!(out.len(), target.len());
            let n = out.len() as f64;
            err = out.iter().zip(target).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / n;
            out.iter().zip(target).map(|(o, t)| 2.0 * (o - t) / n).collect()
        });
        err
    }

    /// Polyak soft update: `self ← τ·source + (1−τ)·self` (target networks).
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "architecture mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            for (d, s) in dst.w.iter_mut().zip(&src.w) {
                *d = tau * s + (1.0 - tau) * *d;
            }
            for (d, s) in dst.b.iter_mut().zip(&src.b) {
                *d = tau * s + (1.0 - tau) * *d;
            }
        }
    }

    /// Flattens all weights and biases (fine-tune export).
    pub fn weights_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Restores weights from a flat vector produced by
    /// [`Mlp::weights_flat`] on an identical architecture.
    ///
    /// # Panics
    /// Panics, before writing anything, if `flat` has a different length.
    pub fn set_weights_flat(&mut self, flat: &[f64]) {
        let len: usize = self.layers.iter().map(|l| l.w.len() + l.b.len()).sum();
        assert_eq!(len, flat.len(), "flat weight vector length mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            let nw = l.w.len();
            l.w.copy_from_slice(&flat[off..off + nw]);
            off += nw;
            let nb = l.b.len();
            l.b.copy_from_slice(&flat[off..off + nb]);
            off += nb;
        }
    }

    /// The architecture parameters.
    pub fn params(&self) -> &MlpParams {
        &self.params
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert_eq!(x.len(), y.len());
        let mut rng = StdRng::seed_from_u64(self.params.seed.wrapping_add(1));
        let epochs = 200;
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            for &i in &order {
                self.train_step(&x[i], &[y[i]]);
            }
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        self.forward(row)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_xor_like_function() {
        let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 1.0, 0.0];
        let mut net = Mlp::new(MlpParams {
            input_dim: 2,
            hidden: vec![16, 16],
            output_dim: 1,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Linear,
            learning_rate: 5e-3,
            seed: 3,
        });
        net.fit(&x, &y);
        for (xi, yi) in x.iter().zip(&y) {
            assert!((net.predict(xi) - yi).abs() < 0.2, "xor not learned");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let net = Mlp::new(MlpParams {
            input_dim: 3,
            hidden: vec![8],
            output_dim: 1,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Linear,
            learning_rate: 1e-3,
            seed: 5,
        });
        let x = vec![0.3, -0.2, 0.7];
        let grad = net.input_gradient(&x, &[1.0]);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-5, "grad {i}: {} vs fd {fd}", grad[i]);
        }
    }

    #[test]
    fn soft_update_converges_to_source() {
        let params = MlpParams::regression(2, 7);
        let src = Mlp::new(MlpParams { seed: 100, ..params.clone() });
        let mut dst = Mlp::new(MlpParams { seed: 200, ..params });
        for _ in 0..2000 {
            dst.soft_update_from(&src, 0.01);
        }
        let a = src.forward(&[0.5, 0.5])[0];
        let b = dst.forward(&[0.5, 0.5])[0];
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn weight_flat_round_trip() {
        let params = MlpParams::regression(4, 9);
        let src = Mlp::new(MlpParams { seed: 1, ..params.clone() });
        let mut dst = Mlp::new(MlpParams { seed: 2, ..params });
        dst.set_weights_flat(&src.weights_flat());
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(src.forward(&x), dst.forward(&x));
    }

    #[test]
    fn set_weights_flat_rejects_a_wrong_length_before_writing() {
        let mut net = Mlp::new(MlpParams::regression(4, 9));
        let before = net.weights_flat();
        for wrong in [before.len() - 1, before.len() + 1] {
            let flat = vec![1.0; wrong];
            #[expect(clippy::disallowed_methods, reason = "the test asserts that this call panics")]
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.set_weights_flat(&flat);
            }));
            assert!(result.is_err(), "length {wrong} accepted");
            assert_eq!(net.weights_flat(), before, "length {wrong} wrote weights");
        }
    }

    #[test]
    fn sigmoid_output_bounds_actions() {
        let net = Mlp::new(MlpParams {
            input_dim: 2,
            hidden: vec![8],
            output_dim: 3,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            learning_rate: 1e-3,
            seed: 11,
        });
        let out = net.forward(&[100.0, -100.0]);
        assert!(out.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn train_step_reduces_error() {
        let mut net = Mlp::new(MlpParams::regression(1, 13));
        let before = net.train_step(&[0.5], &[3.0]);
        let mut after = before;
        for _ in 0..500 {
            after = net.train_step(&[0.5], &[3.0]);
        }
        assert!(after < before * 0.01, "training failed: {before} -> {after}");
    }
}
