//! DDPG (Deep Deterministic Policy Gradient) — the CDBTune/QTune
//! reinforcement-learning optimizer.
//!
//! The agent observes the DBMS internal-metric vector as its **state**,
//! emits a configuration in the unit cube as its **action** (sigmoid actor
//! output), and receives CDBTune's shaped **reward** built from the
//! performance delta against both the first observation and the previous
//! one. Actor and critic are MLPs trained from a replay buffer with target
//! networks and Polyak averaging.
//!
//! Weight export/import implements the paper's *fine-tune* transfer
//! framework: pre-train on source workloads, then warm-start the target
//! session from the saved weights (§7).

use super::{Optimizer, SurrogateIntrospect};
use crate::space::ConfigSpace;
use crate::telemetry;
use dbtune_ml::{Activation, Mlp, MlpParams};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// DDPG hyper-parameters (CDBTune-style defaults scaled to a 200-iteration
/// tuning budget).
#[derive(Clone, Debug)]
pub struct DdpgParams {
    /// Hidden layer widths for both networks.
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Polyak averaging coefficient for target networks.
    pub tau: f64,
    /// Replay-buffer sample size per update.
    pub batch_size: usize,
    /// Gradient updates per observation.
    pub updates_per_observe: usize,
    /// Initial exploration noise (unit-cube σ).
    pub noise_start: f64,
    /// Floor for the exploration noise.
    pub noise_end: f64,
    /// Multiplicative per-iteration noise decay.
    pub noise_decay: f64,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
}

impl Default for DdpgParams {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64],
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            gamma: 0.9,
            tau: 0.01,
            batch_size: 16,
            updates_per_observe: 8,
            noise_start: 0.5,
            // A healthy exploration floor: with a low floor the actor can
            // drift into a crash region early and freeze there (every
            // nearby action scores worst-seen, so the policy gradient has
            // nothing to climb).
            noise_end: 0.15,
            noise_decay: 0.99,
            replay_capacity: 4096,
        }
    }
}

/// Serializable network weights for fine-tune transfer.
#[derive(Clone, Debug)]
pub struct DdpgWeights {
    /// Flattened actor weights.
    pub actor: Vec<f64>,
    /// Flattened critic weights.
    pub critic: Vec<f64>,
    /// State dimensionality the weights were trained with.
    pub state_dim: usize,
    /// Action dimensionality the weights were trained with.
    pub action_dim: usize,
}

struct Transition {
    state: Vec<f64>,
    action: Vec<f64>,
    reward: f64,
    next_state: Vec<f64>,
}

/// The DDPG optimizer.
pub struct Ddpg {
    space: ConfigSpace,
    params: DdpgParams,
    state_dim: usize,
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    replay: VecDeque<Transition>,
    last_state: Vec<f64>,
    noise: f64,
    first_score: Option<f64>,
    prev_score: Option<f64>,
}

impl Ddpg {
    /// Creates a fresh agent for `space` with `state_dim` metric inputs.
    pub fn new(space: ConfigSpace, state_dim: usize, params: DdpgParams, seed: u64) -> Self {
        let action_dim = space.dim();
        let actor = Mlp::new(MlpParams {
            input_dim: state_dim,
            hidden: params.hidden.clone(),
            output_dim: action_dim,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            learning_rate: params.actor_lr,
            seed,
        });
        let critic = Mlp::new(MlpParams {
            input_dim: state_dim + action_dim,
            hidden: params.hidden.clone(),
            output_dim: 1,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Linear,
            learning_rate: params.critic_lr,
            seed: seed.wrapping_add(1),
        });
        let target_actor = actor.clone();
        let target_critic = critic.clone();
        let noise = params.noise_start;
        Self {
            space,
            params,
            state_dim,
            actor,
            critic,
            target_actor,
            target_critic,
            replay: VecDeque::new(),
            last_state: vec![0.0; state_dim],
            noise,
            first_score: None,
            prev_score: None,
        }
    }

    /// Exports the online network weights (fine-tune transfer).
    pub fn export_weights(&self) -> DdpgWeights {
        DdpgWeights {
            actor: self.actor.weights_flat(),
            critic: self.critic.weights_flat(),
            state_dim: self.state_dim,
            action_dim: self.space.dim(),
        }
    }

    /// Warm-starts the agent from previously exported weights.
    ///
    /// # Panics
    /// Panics if the architectures do not match.
    pub fn import_weights(&mut self, w: &DdpgWeights) {
        assert_eq!(w.state_dim, self.state_dim, "state dim mismatch");
        assert_eq!(w.action_dim, self.space.dim(), "action dim mismatch");
        self.actor.set_weights_flat(&w.actor);
        self.critic.set_weights_flat(&w.critic);
        self.target_actor.set_weights_flat(&w.actor);
        self.target_critic.set_weights_flat(&w.critic);
    }

    /// CDBTune's shaped reward from the score deltas against the first and
    /// the previous observation.
    fn reward(&self, score: f64) -> f64 {
        let s0 = self.first_score.unwrap_or(score);
        let prev = self.prev_score.unwrap_or(score);
        let denom0 = s0.abs().max(1e-9);
        let denomp = prev.abs().max(1e-9);
        let d0 = (score - s0) / denom0;
        let dp = (score - prev) / denomp;
        let r = if d0 > 0.0 {
            ((1.0 + d0).powi(2) - 1.0) * (1.0 + dp).abs()
        } else {
            -(((1.0 - d0).powi(2)) - 1.0) * (1.0 - dp).abs()
        };
        r.clamp(-10.0, 10.0)
    }

    /// Normalizes a metric vector into the state shape.
    fn to_state(&self, metrics: &[f64]) -> Vec<f64> {
        let mut s = vec![0.0; self.state_dim];
        for (dst, src) in s.iter_mut().zip(metrics) {
            *dst = src.clamp(-5.0, 5.0);
        }
        s
    }

    /// Stores the transition from the current state to the one `metrics`
    /// describe, then moves the reward baselines and the current state on.
    fn remember(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        let next_state = self.to_state(metrics);
        let action = self.space.to_unit(cfg);
        let reward = self.reward(score);

        if self.replay.len() == self.params.replay_capacity {
            self.replay.pop_front();
        }
        self.replay.push_back(Transition {
            state: self.last_state.clone(),
            action,
            reward,
            next_state: next_state.clone(),
        });

        if self.first_score.is_none() {
            self.first_score = Some(score);
        }
        self.prev_score = Some(score);
        self.last_state = next_state;
    }

    fn train_batch(&mut self, rng: &mut StdRng) {
        let n = self.replay.len();
        if n < self.params.batch_size {
            return;
        }
        let batch: Vec<&Transition> =
            (0..self.params.batch_size).map(|_| &self.replay[rng.gen_range(0..n)]).collect();
        // Critic targets: r + γ Q'(s', π'(s')). The target networks change
        // only in the soft update below, so one pass of each over the whole
        // minibatch gives every sample's target.
        let next_states: Vec<&[f64]> = batch.iter().map(|t| t.next_state.as_slice()).collect();
        let next_actions = self.target_actor.forward_batch(&next_states);
        let next_ins: Vec<Vec<f64>> =
            next_states.iter().zip(&next_actions).map(|(s, a)| [*s, a].concat()).collect();
        let q_next = self.target_critic.forward_batch(&next_ins);
        for (t, q) in batch.into_iter().zip(q_next) {
            let target = t.reward + self.params.gamma * q[0];

            let mut cur_in = t.state.clone();
            cur_in.extend_from_slice(&t.action);
            self.critic.train_step(&cur_in, &[target]);

            // Actor: ascend Q(s, π(s)).
            self.actor.step_with(&t.state, |a_pred| {
                let mut q_in = t.state.clone();
                q_in.extend_from_slice(a_pred);
                let grad = self.critic.input_gradient(&q_in, &[1.0]);
                grad[self.state_dim..].iter().map(|g| -g).collect()
            });
        }
        self.target_actor.soft_update_from(&self.actor, self.params.tau);
        self.target_critic.soft_update_from(&self.critic, self.params.tau);
    }
}

// Model-free family from the quality recorder's viewpoint:
// no surrogate scores the suggestion, so the default `None` applies.
impl SurrogateIntrospect for Ddpg {}

impl Optimizer for Ddpg {
    fn name(&self) -> &str {
        "DDPG"
    }

    fn suggest(&mut self, rng: &mut StdRng) -> Vec<f64> {
        // The policy forward pass is DDPG's per-iteration decision cost.
        let _acq_span = telemetry::span("acquisition");
        let mut action = self.actor.forward(&self.last_state);
        for a in &mut action {
            let z: f64 = rng.sample(rand_distr::StandardNormal);
            *a = (*a + z * self.noise).clamp(0.0, 1.0);
        }
        self.noise = (self.noise * self.params.noise_decay).max(self.params.noise_end);
        self.space.from_unit(&action)
    }

    fn observe(&mut self, cfg: &[f64], score: f64, metrics: &[f64]) {
        self.remember(cfg, score, metrics);

        // Replay training with a deterministic stream derived from the
        // buffer size (observe has no RNG parameter). This is where DDPG
        // fits its model, so it carries the surrogate_fit span even though
        // it runs in observe() rather than suggest().
        let _fit = telemetry::span("surrogate_fit");
        let mut rng = rand::SeedableRng::seed_from_u64(0x5eed ^ self.replay.len() as u64);
        for _ in 0..self.params.updates_per_observe {
            self.train_batch(&mut rng);
        }
    }

    fn wants_lhs_init(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_dbsim::knob::KnobSpec;
    use rand::SeedableRng;

    fn space2() -> ConfigSpace {
        ConfigSpace::new(vec![
            KnobSpec::real("x", 0.0, 1.0, false, 0.5),
            KnobSpec::real("y", 0.0, 1.0, false, 0.5),
        ])
    }

    #[test]
    fn reward_is_positive_for_improvement() {
        let ddpg = Ddpg::new(space2(), 4, DdpgParams::default(), 1);
        let mut d = ddpg;
        d.first_score = Some(100.0);
        d.prev_score = Some(100.0);
        assert!(d.reward(150.0) > 0.0);
        assert!(d.reward(50.0) < 0.0);
        assert_eq!(d.reward(100.0), 0.0);
    }

    #[test]
    fn reward_handles_negative_scores_from_latency() {
        // Latency scores are negated latencies: improvement = less negative.
        let mut d = Ddpg::new(space2(), 4, DdpgParams::default(), 1);
        d.first_score = Some(-200.0);
        d.prev_score = Some(-200.0);
        assert!(d.reward(-150.0) > 0.0, "lower latency must be rewarded");
        assert!(d.reward(-300.0) < 0.0);
    }

    #[test]
    fn ddpg_learns_to_prefer_high_scoring_region() {
        // Stateless bandit-style objective: reward peaks at x=y=0.9.
        let space = space2();
        let f = |c: &[f64]| 1.0 - (c[0] - 0.9).abs() - (c[1] - 0.9).abs();
        let mut agent = Ddpg::new(
            space,
            4,
            DdpgParams { updates_per_observe: 16, noise_decay: 0.95, ..Default::default() },
            5,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut first20 = 0.0;
        let mut last20 = 0.0;
        for i in 0..120 {
            let cfg = agent.suggest(&mut rng);
            let y = f(&cfg);
            if i < 20 {
                first20 += y;
            }
            if i >= 100 {
                last20 += y;
            }
            agent.observe(&cfg, y, &[0.5, 0.5, 0.5, 0.5]);
        }
        assert!(
            last20 > first20,
            "DDPG failed to improve: first20={first20:.2} last20={last20:.2}"
        );
    }

    #[test]
    fn weight_export_import_round_trip() {
        let a = Ddpg::new(space2(), 4, DdpgParams::default(), 7);
        let w = a.export_weights();
        let mut b = Ddpg::new(space2(), 4, DdpgParams::default(), 99);
        b.import_weights(&w);
        // Identical policies after import.
        let state = vec![0.25, 0.5, 0.75, 1.0];
        assert_eq!(a.actor.forward(&state), b.actor.forward(&state));
    }

    #[test]
    #[should_panic(expected = "state dim mismatch")]
    fn import_rejects_architecture_mismatch() {
        let a = Ddpg::new(space2(), 4, DdpgParams::default(), 7);
        let w = a.export_weights();
        let mut b = Ddpg::new(space2(), 8, DdpgParams::default(), 7);
        b.import_weights(&w);
    }

    fn hidden(widths: &[usize]) -> DdpgParams {
        DdpgParams { hidden: widths.to_vec(), ..Default::default() }
    }

    #[test]
    #[should_panic(expected = "flat weight vector length mismatch")]
    fn import_rejects_smaller_hidden_layers() {
        let w = Ddpg::new(space2(), 4, hidden(&[32, 32]), 7).export_weights();
        Ddpg::new(space2(), 4, hidden(&[64, 64]), 7).import_weights(&w);
    }

    #[test]
    #[should_panic(expected = "flat weight vector length mismatch")]
    fn import_rejects_larger_hidden_layers() {
        let w = Ddpg::new(space2(), 4, hidden(&[64, 64]), 7).export_weights();
        Ddpg::new(space2(), 4, hidden(&[32, 32]), 7).import_weights(&w);
    }

    /// `train_batch` as it ran before the minibatch target pass: each
    /// sample's targets come from its own `forward` calls. Returns the
    /// number of Adam steps each online network took.
    fn train_batch_per_sample(agent: &mut Ddpg, rng: &mut StdRng) -> usize {
        let n = agent.replay.len();
        if n < agent.params.batch_size {
            return 0;
        }
        for _ in 0..agent.params.batch_size {
            let t = &agent.replay[rng.gen_range(0..n)];
            let next_action = agent.target_actor.forward(&t.next_state);
            let mut next_in = t.next_state.clone();
            next_in.extend_from_slice(&next_action);
            let q_next = agent.target_critic.forward(&next_in)[0];
            let target = t.reward + agent.params.gamma * q_next;

            let mut cur_in = t.state.clone();
            cur_in.extend_from_slice(&t.action);
            agent.critic.train_step(&cur_in, &[target]);

            agent.actor.step_with(&t.state, |a_pred| {
                let mut q_in = t.state.clone();
                q_in.extend_from_slice(a_pred);
                let grad = agent.critic.input_gradient(&q_in, &[1.0]);
                grad[agent.state_dim..].iter().map(|g| -g).collect()
            });
        }
        agent.target_actor.soft_update_from(&agent.actor, agent.params.tau);
        agent.target_critic.soft_update_from(&agent.critic, agent.params.tau);
        agent.params.batch_size
    }

    fn bits(w: &DdpgWeights) -> Vec<u64> {
        w.actor.iter().chain(&w.critic).map(|v| v.to_bits()).collect()
    }

    #[test]
    fn minibatch_target_pass_matches_per_sample_training_bitwise() {
        // A batch of 13 fills one block of eight inputs and pads the next.
        // Nine actions and a hidden layer of 20 cover the eight-output
        // forward and its leftovers.
        let params = DdpgParams {
            hidden: vec![20, 9],
            batch_size: 13,
            updates_per_observe: 2,
            ..Default::default()
        };
        let names = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"];
        let space =
            ConfigSpace::new(names.map(|n| KnobSpec::real(n, 0.0, 1.0, false, 0.5)).to_vec());
        let mut agent = Ddpg::new(space.clone(), 6, params.clone(), 3);
        let mut reference = Ddpg::new(space, 6, params, 3);
        let initial = bits(&agent.export_weights());
        let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut adam_steps = 0;
        for i in 0..30 {
            let cfg = agent.suggest(&mut rng);
            assert_eq!(cfg, reference.suggest(&mut ref_rng), "suggestion {i}");
            let score = cfg.iter().enumerate().map(|(k, c)| c * (k as f64 - 4.0)).sum::<f64>();
            let metrics: Vec<f64> = (0..6).map(|m| cfg[m] * 4.0 - 2.0 + i as f64 * 0.1).collect();

            agent.observe(&cfg, score, &metrics);
            reference.remember(&cfg, score, &metrics);
            let mut replay_rng = StdRng::seed_from_u64(0x5eed ^ reference.replay.len() as u64);
            for _ in 0..reference.params.updates_per_observe {
                adam_steps += train_batch_per_sample(&mut reference, &mut replay_rng);
            }
            assert_eq!(
                bits(&agent.export_weights()),
                bits(&reference.export_weights()),
                "weights after observation {i}"
            );
        }
        assert_ne!(bits(&agent.export_weights()), initial, "no training step ran");
        // Past step 356 Adam's first bias correction is exactly 1.0.
        assert!(adam_steps > 356, "Adam stopped at step {adam_steps}");
    }

    #[test]
    fn suggestions_are_legal_without_observations() {
        let space = ConfigSpace::new(vec![
            KnobSpec::int("a", 1, 100, true, 10),
            KnobSpec::cat("c", vec!["x", "y", "z"], 0),
        ]);
        let mut agent = Ddpg::new(space.clone(), 40, DdpgParams::default(), 2);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let cfg = agent.suggest(&mut rng);
            let mut c = cfg.clone();
            space.clamp(&mut c);
            assert_eq!(c, cfg);
        }
    }
}
