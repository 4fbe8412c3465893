//! The machine-speed reference: four small fixed computations, one for
//! the kind of work each workload mostly does, that a run times beside
//! each set-up sample and between its passes.
//!
//! The per-segment floor of [`crate::run`] removes bursts of load, but a
//! machine shared with other tenants also runs slower for tens of seconds
//! at a time, which moves every segment of a run at once. The reference
//! moves with it, so a run divides its times by the reference's and
//! reports them at the speed of the machine the benchmark was defined on.
//! It follows the machine only in part: under heavy load the reference
//! slowed by up to 1.6× where a pass slowed by 1.45×.
//! The reference is code of this package, not of the workspace, so a
//! change to the workspace moves the workload's times but not the
//! reference.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Geometric mean of the four reference floors on the machine the
/// benchmark was defined on (a 2-vCPU Intel Xeon VM at 2.0 GHz). A run's
/// times are scaled by this over its own reference.
pub const NOMINAL_S: f64 = 120e-6;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 11
}

fn unit(x: &mut u64) -> f64 {
    lcg(x) as f64 / (1u64 << 53) as f64
}

/// Dense floating point, as in a GP fit: an RBF kernel matrix and its
/// Cholesky factor.
fn dense(n: usize, rng: &mut u64) -> f64 {
    let pts: Vec<f64> = (0..n * 4).map(|_| unit(rng)).collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let d: f64 = (0..4).map(|k| (pts[i * 4 + k] - pts[j * 4 + k]).powi(2)).sum();
            a[i * n + j] = (-0.5 * d).exp() + if i == j { 1e-3 } else { 0.0 };
        }
    }
    for j in 0..n {
        let mut s = a[j * n + j];
        for k in 0..j {
            s -= a[j * n + k] * a[j * n + k];
        }
        let d = s.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = s / d;
        }
    }
    a.iter().step_by(n + 1).sum()
}

/// Hashing, small allocations and branches, as in the evaluation cache:
/// a map of short vectors.
fn maps(n: usize, rng: &mut u64) -> f64 {
    let mut m: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..n {
        let k = lcg(rng) % (n as u64 / 2);
        match m.get(&k) {
            Some(v) => acc = acc.wrapping_add(v.iter().map(|&x| u64::from(x)).sum::<u64>()),
            None => {
                m.insert(k, (0..(k % 7) as u32 + 1).collect());
            }
        }
    }
    acc as f64
}

/// Sorting and a split search, as a tree learner does.
fn trees(n: usize, rng: &mut u64) -> f64 {
    let mut v: Vec<(f64, f64)> = (0..n).map(|_| (unit(rng), unit(rng))).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|p| p.1).sum();
    let (mut left, mut best) = (0.0, f64::MIN);
    for (i, p) in v.iter().enumerate().take(n - 1) {
        left += p.1;
        let (nl, nr) = ((i + 1) as f64, (n - i - 1) as f64);
        best = best.max(left * left / nl + (total - left) * (total - left) / nr);
    }
    best
}

/// Small dense layers, as in DDPG: a batch through a 52-64-64 network.
fn mlp(batch: usize, rng: &mut u64) -> f64 {
    let w1: Vec<f64> = (0..52 * 64).map(|_| unit(rng) - 0.5).collect();
    let w2: Vec<f64> = (0..64 * 64).map(|_| unit(rng) - 0.5).collect();
    let mut out = 0.0;
    for _ in 0..batch {
        let x: Vec<f64> = (0..52).map(|_| unit(rng)).collect();
        let h1: Vec<f64> =
            (0..64).map(|j| (0..52).map(|i| x[i] * w1[i * 64 + j]).sum::<f64>().max(0.0)).collect();
        out += (0..64)
            .map(|j| (0..64).map(|i| h1[i] * w2[i * 64 + j]).sum::<f64>().max(0.0))
            .sum::<f64>();
    }
    out
}

fn timed(f: impl FnOnce() -> f64) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// The fastest time of each reference computation over the rounds taken
/// so far.
#[derive(Clone, Debug)]
pub struct Reference {
    floors: [f64; 4],
}

impl Default for Reference {
    fn default() -> Self {
        Self { floors: [f64::INFINITY; 4] }
    }
}

impl Reference {
    /// Takes `rounds` rounds of the four computations.
    pub fn sample(&mut self, rounds: usize) {
        for _ in 0..rounds {
            let mut rng = 7;
            let round = [
                timed(|| dense(black_box(60), &mut rng)),
                timed(|| maps(black_box(4_000), &mut rng)),
                timed(|| trees(black_box(4_000), &mut rng)),
                timed(|| mlp(black_box(16), &mut rng)),
            ];
            for (f, t) in self.floors.iter_mut().zip(round) {
                *f = f.min(t);
            }
        }
    }

    /// Geometric mean of the four floors, in seconds; infinite before the
    /// first sample.
    pub fn secs(&self) -> f64 {
        (self.floors.iter().map(|f| f.ln()).sum::<f64>() / 4.0).exp()
    }

    /// The floor of each computation, in seconds.
    pub fn floors(&self) -> [f64; 4] {
        self.floors
    }

    /// The factor that brings this run's times to the nominal machine.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_a_deterministic_computation() {
        let run = || {
            let mut rng = 7;
            [dense(60, &mut rng), maps(4_000, &mut rng), trees(4_000, &mut rng), mlp(16, &mut rng)]
        };
        assert_eq!(run().map(f64::to_bits), run().map(f64::to_bits));
        assert!(run().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn scale_follows_the_geometric_mean_of_the_floors() {
        let mut r = Reference::default();
        assert_eq!(r.scale(), 0.0, "no sample yet");
        r.floors = [NOMINAL_S * 2.0, NOMINAL_S / 2.0, NOMINAL_S * 4.0, NOMINAL_S / 4.0];
        assert!((r.secs() - NOMINAL_S).abs() < 1e-18);
        r.sample(3);
        assert!(r.secs() > 0.0 && r.floors.iter().all(|f| f.is_finite()));
    }
}
