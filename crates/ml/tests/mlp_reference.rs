//! Bitwise reference for MLP training.
//!
//! `RefMlp` is the plain training step that `Mlp::step_with` must match:
//! `train_step` runs a forward pass, then `step_with_output_gradient` runs
//! a second one, backpropagates through every layer (layer 0's input
//! gradient included) and updates Adam one indexed weight at a time. The
//! optimized step must give every weight and every returned error the
//! same bits, step after step, in debug and in release builds. NaN is compared as NaN: which NaN an operation returns
//! when both operands are NaN depends on operand order, which IEEE 754
//! leaves open and the compiler may swap for a commutative operation.

use dbtune_linalg::matrix::dot;
use dbtune_ml::{Activation, Mlp, MlpParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ADAM_B1: f64 = 0.9;
const ADAM_B2: f64 = 0.999;
const ADAM_EPS: f64 = 1e-8;
const STEPS: usize = 60;
const ACTIVATIONS: [Activation; 4] =
    [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Linear];

fn apply(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::Linear => x,
    }
}

fn derivative_from_output(act: Activation, a: f64) -> f64 {
    match act {
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

struct RefLayer {
    w: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl RefLayer {
    fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let z = self.b[o] + dot(row, input);
            out.push(apply(self.act, z));
        }
        out
    }
}

struct RefMlp {
    layers: Vec<RefLayer>,
    learning_rate: f64,
    adam_t: u64,
}

impl RefMlp {
    /// A reference copy of a freshly built `net`: same architecture, same
    /// weights, zero Adam moments.
    fn of(net: &Mlp) -> Self {
        let p = net.params();
        let mut dims = vec![p.input_dim];
        dims.extend_from_slice(&p.hidden);
        dims.push(p.output_dim);
        let flat = net.weights_flat();
        let mut off = 0;
        let mut layers = Vec::new();
        for i in 0..dims.len() - 1 {
            let (in_dim, out_dim) = (dims[i], dims[i + 1]);
            let act = if i + 2 == dims.len() { p.output_activation } else { p.hidden_activation };
            let w = flat[off..off + in_dim * out_dim].to_vec();
            off += in_dim * out_dim;
            let b = flat[off..off + out_dim].to_vec();
            off += out_dim;
            layers.push(RefLayer {
                w,
                b,
                in_dim,
                out_dim,
                act,
                mw: vec![0.0; in_dim * out_dim],
                vw: vec![0.0; in_dim * out_dim],
                mb: vec![0.0; out_dim],
                vb: vec![0.0; out_dim],
            });
        }
        assert_eq!(off, flat.len());
        Self { layers, learning_rate: p.learning_rate, adam_t: 0 }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut a = input.to_vec();
        for layer in &self.layers {
            a = layer.forward(&a);
        }
        a
    }

    fn forward_cached(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    #[allow(clippy::needless_range_loop, reason = "the reference keeps the indexed loops it pins")]
    fn step_with_output_gradient(&mut self, input: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let acts = self.forward_cached(input);
        self.adam_t += 1;
        let lr = self.learning_rate;
        let bc1 = 1.0 - ADAM_B1.powi(self.adam_t as i32);
        let bc2 = 1.0 - ADAM_B2.powi(self.adam_t as i32);

        let mut delta = grad_out.to_vec();
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            let a_out = &acts[li + 1];
            let a_in = &acts[li];
            for (d, a) in delta.iter_mut().zip(a_out) {
                *d *= derivative_from_output(layer.act, *a);
            }
            let mut prev_delta = vec![0.0; layer.in_dim];
            for o in 0..layer.out_dim {
                let dz = delta[o];
                if dz == 0.0 {
                    continue;
                }
                let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                for (p, w) in prev_delta.iter_mut().zip(row) {
                    *p += dz * w;
                }
            }
            for o in 0..layer.out_dim {
                let dz = delta[o];
                let base = o * layer.in_dim;
                for i in 0..layer.in_dim {
                    let g = dz * a_in[i];
                    let k = base + i;
                    layer.mw[k] = ADAM_B1 * layer.mw[k] + (1.0 - ADAM_B1) * g;
                    layer.vw[k] = ADAM_B2 * layer.vw[k] + (1.0 - ADAM_B2) * g * g;
                    let mhat = layer.mw[k] / bc1;
                    let vhat = layer.vw[k] / bc2;
                    layer.w[k] -= lr * mhat / (vhat.sqrt() + ADAM_EPS);
                }
                layer.mb[o] = ADAM_B1 * layer.mb[o] + (1.0 - ADAM_B1) * dz;
                layer.vb[o] = ADAM_B2 * layer.vb[o] + (1.0 - ADAM_B2) * dz * dz;
                let mhat = layer.mb[o] / bc1;
                let vhat = layer.vb[o] / bc2;
                layer.b[o] -= lr * mhat / (vhat.sqrt() + ADAM_EPS);
            }
            delta = prev_delta;
        }
        delta
    }

    #[allow(clippy::needless_range_loop, reason = "the reference keeps the indexed loops it pins")]
    fn input_gradient(&self, input: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let acts = self.forward_cached(input);
        let mut delta = grad_out.to_vec();
        for (li, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &acts[li + 1];
            for (d, a) in delta.iter_mut().zip(a_out) {
                *d *= derivative_from_output(layer.act, *a);
            }
            let mut prev = vec![0.0; layer.in_dim];
            for o in 0..layer.out_dim {
                let dz = delta[o];
                if dz == 0.0 {
                    continue;
                }
                let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                for (p, w) in prev.iter_mut().zip(row) {
                    *p += dz * w;
                }
            }
            delta = prev;
        }
        delta
    }

    fn train_step(&mut self, input: &[f64], target: &[f64]) -> f64 {
        let out = self.forward(input);
        let n = out.len() as f64;
        let grad: Vec<f64> = out.iter().zip(target).map(|(o, t)| 2.0 * (o - t) / n).collect();
        let err: f64 = out.iter().zip(target).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / n;
        self.step_with_output_gradient(input, &grad);
        err
    }

    fn weights_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend_from_slice(&l.w);
            out.extend_from_slice(&l.b);
        }
        out
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(k) = (0..got.len()).find(|&k| !same_bits(got[k], want[k])) {
        panic!("{what}: element {k} is {:e}, reference {:e}", got[k], want[k]);
    }
}

/// One input or target element: an exact zero (dead ReLUs, `dz == 0.0`
/// rows), an ordinary value, or a value of magnitude `10^scale`.
fn element(rng: &mut StdRng, scale: i32) -> f64 {
    match rng.gen_range(0..4) {
        0 => 0.0,
        1 => rng.gen_range(1.0..10.0) * 10f64.powi(scale) * if rng.gen() { 1.0 } else { -1.0 },
        _ => rng.gen_range(-1.0..1.0),
    }
}

/// A cycle of `n` rows of width `dim`, the first all zeros.
fn rows(rng: &mut StdRng, n: usize, dim: usize, scale: i32) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| (0..dim).map(|_| if r == 0 { 0.0 } else { element(rng, scale) }).collect())
        .collect()
}

fn params(
    input_dim: usize,
    hidden: &[usize],
    output_dim: usize,
    acts: (Activation, Activation),
    seed: u64,
) -> MlpParams {
    MlpParams {
        input_dim,
        hidden: hidden.to_vec(),
        output_dim,
        hidden_activation: acts.0,
        output_activation: acts.1,
        // Large enough that weights move visibly within the steps run.
        learning_rate: 1e-2,
        seed,
    }
}

/// Four (hidden, output) activation pairs in which every activation is
/// once the hidden and once the output one; shifts 0..4 cover all sixteen.
fn activation_pairs(shift: usize) -> impl Iterator<Item = (Activation, Activation)> {
    (0..4).map(move |i| (ACTIVATIONS[i], ACTIVATIONS[(i + shift) % 4]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `train_step` (one forward pass, no layer-0 input gradient, row-wise
    /// Adam) against the double-forward, indexed-Adam reference.
    fn train_step_matches_reference_bitwise(
        input_dim in 1usize..=60,
        hidden in proptest::collection::vec(1usize..=70, 1..=3),
        output_dim in 1usize..=12,
        (scale, seed, shift) in (-300i32..=300, 0u64..1 << 40, 0usize..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rows(&mut rng, 4, input_dim, scale);
        let targets = rows(&mut rng, 3, output_dim, scale);
        for acts in activation_pairs(shift) {
            let mut net = Mlp::new(params(input_dim, &hidden, output_dim, acts, seed));
            let mut reference = RefMlp::of(&net);
            for step in 0..STEPS {
                let (x, t) = (&inputs[step % inputs.len()], &targets[step % targets.len()]);
                let what = format!("{acts:?} {input_dim}-{hidden:?}-{output_dim} step {step}");
                let err = net.train_step(x, t);
                let want = reference.train_step(x, t);
                prop_assert!(same_bits(err, want), "{what}: error {err:e}, reference {want:e}");
                assert_same_bits(&net.weights_flat(), &reference.weights_flat(), &what);
            }
        }
    }

    /// DDPG's update pair: a critic `train_step`, then an actor
    /// `step_with` whose closure asks the critic for the action gradient,
    /// against the reference's actor `forward`, critic `input_gradient`
    /// and actor step.
    fn actor_step_matches_reference_bitwise(
        state_dim in 1usize..=48,
        hidden in proptest::collection::vec(1usize..=70, 1..=3),
        action_dim in 1usize..=12,
        (scale, seed, shift) in (-300i32..=300, 0u64..1 << 40, 0usize..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let states = rows(&mut rng, 4, state_dim, scale);
        let actions = rows(&mut rng, 3, action_dim, scale);
        let rewards = rows(&mut rng, 5, 1, scale);
        for acts in activation_pairs(shift) {
            let mut actor = Mlp::new(params(state_dim, &hidden, action_dim, acts, seed));
            let critic_acts = (acts.0, Activation::Linear);
            let mut critic =
                Mlp::new(params(state_dim + action_dim, &hidden, 1, critic_acts, seed + 1));
            let mut ref_actor = RefMlp::of(&actor);
            let mut ref_critic = RefMlp::of(&critic);
            for step in 0..STEPS {
                let what = format!("{acts:?} {state_dim}+{action_dim}-{hidden:?} step {step}");
                let state = &states[step % states.len()];
                let mut sa = state.clone();
                sa.extend_from_slice(&actions[step % actions.len()]);
                let target = &rewards[step % rewards.len()];
                let err = critic.train_step(&sa, target);
                let want = ref_critic.train_step(&sa, target);
                prop_assert!(same_bits(err, want), "{what}: critic error {err:e}, reference {want:e}");

                actor.step_with(state, |a_pred| {
                    let mut q_in = state.clone();
                    q_in.extend_from_slice(a_pred);
                    let grad = critic.input_gradient(&q_in, &[1.0]);
                    grad[state_dim..].iter().map(|g| -g).collect()
                });
                let a_pred = ref_actor.forward(state);
                let mut q_in = state.clone();
                q_in.extend_from_slice(&a_pred);
                let grad = ref_critic.input_gradient(&q_in, &[1.0]);
                let grad_action: Vec<f64> = grad[state_dim..].iter().map(|g| -g).collect();
                ref_actor.step_with_output_gradient(state, &grad_action);

                assert_same_bits(&critic.weights_flat(), &ref_critic.weights_flat(), &what);
                assert_same_bits(&actor.weights_flat(), &ref_actor.weights_flat(), &what);
            }
        }
    }
}
