//! Descriptive statistics, rank transforms, and set-similarity measures used
//! across the tuning pipeline: standardization for regression models,
//! quantiles for TPE's good/bad split, Spearman correlation for diagnostics,
//! intersection-over-union for the Figure 4 sensitivity analysis, and the
//! R² / RMSE regression metrics of Table 9.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0.0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linearly interpolated quantile, `q` in `[0, 1]`.
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(crate::ord::cmp_f64);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50% quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Fractional ranks with ties sharing their average rank (1-based).
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| crate::ord::cmp_f64(&xs[a], &xs[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation; 0.0 when either input is constant.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    pearson(&ranks(a), &ranks(b))
}

/// Pearson correlation; 0.0 when either input is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Intersection-over-union (Jaccard index) of two index sets.
///
/// Figure 4 of the paper uses this as the "similarity score" between the
/// top-k knob sets produced from a training subsample and the full pool.
pub fn intersection_over_union(a: &[usize], b: &[usize]) -> f64 {
    // Sorted-merge set arithmetic: same complexity class as hashing for
    // these small index sets, and iteration order is defined (the D1 ban
    // in clippy.toml keeps hash sets out of first-party code).
    let dedup = |xs: &[usize]| {
        let mut v = xs.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let (sa, sb) = (dedup(a), dedup(b));
    let mut inter = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

/// Root mean squared error between predictions and targets.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let mse =
        pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / pred.len() as f64;
    mse.sqrt()
}

/// Coefficient of determination R² = 1 − SS_res / SS_tot.
///
/// Returns 0.0 when the targets are constant and predictions are imperfect,
/// 1.0 when both are constant and equal.
pub fn r_squared(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    let m = mean(truth);
    let ss_tot: f64 = truth.iter().map(|t| (t - m) * (t - m)).sum();
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Per-column standardization parameters learned from a training sample.
#[derive(Clone, Debug)]
pub struct Standardizer {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
}

impl Standardizer {
    /// Learns column means and standard deviations from row-major samples.
    /// Columns with zero variance get `std = 1` so transform is a no-op shift.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "Standardizer::fit on empty sample");
        let d = rows[0].len();
        let mut means = vec![0.0; d];
        for r in rows {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= rows.len() as f64;
        }
        let mut stds = vec![0.0; d];
        for r in rows {
            for j in 0..d {
                let dv = r[j] - means[j];
                stds[j] += dv * dv;
            }
        }
        for s in &mut stds {
            *s = (*s / rows.len() as f64).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Applies `(x - mean) / std` per column.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter().zip(self.means.iter().zip(&self.stds)).map(|(x, (m, s))| (x - m) / s).collect()
    }

    /// Transforms a batch of rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

/// Average rank per column across multiple rankings (used for Tables 6 & 7).
///
/// `scores[run][candidate]` holds a score per candidate for each run;
/// `higher_is_better` controls the ranking direction. Returns the mean rank
/// (1 = best) of each candidate.
pub fn average_rank(scores: &[Vec<f64>], higher_is_better: bool) -> Vec<f64> {
    assert!(!scores.is_empty());
    let k = scores[0].len();
    let mut sum = vec![0.0; k];
    for run in scores {
        assert_eq!(run.len(), k);
        let keyed: Vec<f64> =
            if higher_is_better { run.iter().map(|v| -v).collect() } else { run.clone() };
        for (s, r) in sum.iter_mut().zip(ranks(&keyed)) {
            *s += r;
        }
    }
    sum.iter().map(|s| s / scores.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_perfect_monotone() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 100.0, 1000.0, 10000.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_known_sets() {
        assert!((intersection_over_union(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(intersection_over_union(&[], &[]), 1.0);
        assert_eq!(intersection_over_union(&[1], &[2]), 0.0);
    }

    #[test]
    fn r_squared_perfect_and_mean_prediction() {
        let truth = [1.0, 2.0, 3.0];
        assert!((r_squared(&truth, &truth) - 1.0).abs() < 1e-12);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&mean_pred, &truth).abs() < 1e-12);
    }

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[1.0, 2.0], &[3.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_round_trip_stats() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 200.0]];
        let st = Standardizer::fit(&rows);
        let tr = st.transform_all(&rows);
        let col0: Vec<f64> = tr.iter().map(|r| r[0]).collect();
        assert!(mean(&col0).abs() < 1e-12);
        assert!((std_dev(&col0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_constant_column_is_safe() {
        let rows = vec![vec![5.0], vec![5.0]];
        let st = Standardizer::fit(&rows);
        assert_eq!(st.transform(&[5.0]), vec![0.0]);
    }

    #[test]
    fn average_rank_orders_candidates() {
        // Candidate 1 is always best under higher-is-better.
        let scores = vec![vec![1.0, 9.0, 5.0], vec![2.0, 8.0, 3.0]];
        let avg = average_rank(&scores, true);
        assert_eq!(avg[1], 1.0);
        assert_eq!(avg[0], 3.0);
    }
}
