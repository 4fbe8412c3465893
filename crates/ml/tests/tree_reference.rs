//! Bitwise reference for CART fitting.
//!
//! `reference_fit` is the plain fit that `DecisionTree::fit_indices_with`
//! must match: it presorts the sample on every numeric column with
//! `sort_by(cmp_f64)`, searches every candidate feature (after the
//! `max_features` shuffle) at every node, and partitions every row list
//! after every split in two passes. The optimized fit ranks each numeric
//! column once per design matrix, counting-sorts each tree's sample by
//! rank, partitions the sorted lists only where a child can still split,
//! and partitions in one branch-free pass. Both must give every tree the
//! same node arena (thresholds and leaf values compared by bits), the same
//! root, the same split counts, and leave the RNG at the same draw, tree
//! after tree through one shared `FitScratch`, in debug and in release
//! builds.
//!
//! The inputs are chosen to make any difference show. Numeric values come
//! from a small pool with −0.0, +0.0, two NaNs of different bits and ±∞,
//! so ties are common and their order matters. Half the trees fit targets
//! that mix magnitudes near 1e15 with small ones, so summing the same rows
//! in another order changes the sums and with them the chosen splits. The
//! order of −0.0 and +0.0 only ever shows that way, so a second property
//! fits twin columns that differ only in the signs of their zeros.
//!
//! The optimized fit searches a node's numeric candidates eight at a time
//! in lanes, and the rest one at a time. Designs of up to 30 columns make
//! full groups of eight, leftover features and `max_features` subsets all
//! common. A third property fits targets that read the same forwards and
//! backwards along every column's order, so distinct split positions tie
//! exactly and only the first-minimum rule picks the threshold.

use dbtune_linalg::ord::cmp_f64;
use dbtune_ml::{DecisionTree, DecisionTreeParams, FeatureKind, FitScratch, Node, SplitRule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// A fitted reference tree: the parts of `DecisionTree` the test compares.
struct RefTree {
    nodes: Vec<Node>,
    root: usize,
    split_counts: Vec<usize>,
}

/// The reference fit: presort, build, and partition every list after
/// every split.
fn reference_fit(
    params: &DecisionTreeParams,
    kinds: &[FeatureKind],
    x: &[Vec<f64>],
    y: &[f64],
    sample: &[usize],
    rng: &mut impl Rng,
) -> RefTree {
    let d = kinds.len();
    let cols: Vec<Vec<f64>> = (0..d).map(|f| x.iter().map(|row| row[f]).collect()).collect();
    let sorted: Vec<Vec<usize>> = kinds
        .iter()
        .enumerate()
        .map(|(f, kind)| match kind {
            FeatureKind::Continuous => {
                let mut s = sample.to_vec();
                s.sort_by(|&a, &b| cmp_f64(&cols[f][a], &cols[f][b]));
                s
            }
            FeatureKind::Categorical { .. } => Vec::new(),
        })
        .collect();
    let mut b = RefBuild {
        params,
        kinds,
        cols,
        idx: sample.to_vec(),
        sorted,
        goes_left: vec![false; x.len()],
        nodes: Vec::new(),
        split_counts: vec![0; d],
    };
    let root = b.build(y, 0, sample.len(), 0, rng);
    RefTree { nodes: b.nodes, root, split_counts: b.split_counts }
}

struct RefBuild<'a> {
    params: &'a DecisionTreeParams,
    kinds: &'a [FeatureKind],
    cols: Vec<Vec<f64>>,
    idx: Vec<usize>,
    sorted: Vec<Vec<usize>>,
    goes_left: Vec<bool>,
    nodes: Vec<Node>,
    split_counts: Vec<usize>,
}

impl RefBuild<'_> {
    fn build(
        &mut self,
        y: &[f64],
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let n = hi - lo;
        let mean = self.idx[lo..hi].iter().map(|&i| y[i]).sum::<f64>() / n as f64;
        let sse: f64 = self.idx[lo..hi].iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();
        let stop =
            depth >= self.params.max_depth || n < self.params.min_samples_split || sse <= 1e-12;
        if !stop {
            if let Some((rule, gain)) = self.best_split(y, lo, hi, rng) {
                if gain > 1e-12 {
                    let mut nl = 0usize;
                    for &i in &self.idx[lo..hi] {
                        let left = goes_left(&rule, &self.cols, i);
                        self.goes_left[i] = left;
                        nl += usize::from(left);
                    }
                    if nl >= self.params.min_samples_leaf
                        && (n - nl) >= self.params.min_samples_leaf
                    {
                        self.split_counts[rule.feature()] += 1;
                        two_pass_partition(&mut self.idx[lo..hi], &self.goes_left);
                        for s in self.sorted.iter_mut().filter(|s| !s.is_empty()) {
                            two_pass_partition(&mut s[lo..hi], &self.goes_left);
                        }
                        let mid = lo + nl;
                        let l = self.build(y, lo, mid, depth + 1, rng);
                        let r = self.build(y, mid, hi, depth + 1, rng);
                        self.nodes.push(Node::Internal { rule, left: l, right: r });
                        return self.nodes.len() - 1;
                    }
                }
            }
        }
        self.nodes.push(Node::Leaf { value: mean, n_samples: n });
        self.nodes.len() - 1
    }

    fn best_split(
        &self,
        y: &[f64],
        lo: usize,
        hi: usize,
        rng: &mut impl Rng,
    ) -> Option<(SplitRule, f64)> {
        let idx = &self.idx[lo..hi];
        let d = self.kinds.len();
        let mut feats: Vec<usize> = (0..d).collect();
        if let Some(k) = self.params.max_features {
            if k < d {
                feats.shuffle(rng);
                feats.truncate(k);
            }
        }
        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| y[i]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
        let parent_sse = sum_sq - sum * sum / n;
        let mut best: Option<(SplitRule, f64)> = None;
        for &f in &feats {
            let candidate = match self.kinds[f] {
                FeatureKind::Continuous => numeric_split(
                    &self.cols[f],
                    y,
                    &self.sorted[f][lo..hi],
                    f,
                    self.params.min_samples_leaf,
                ),
                FeatureKind::Categorical { cardinality } => categorical_split(
                    &self.cols[f],
                    y,
                    idx,
                    f,
                    cardinality,
                    self.params.min_samples_leaf,
                ),
            };
            if let Some((rule, child_sse)) = candidate {
                let gain = parent_sse - child_sse;
                if best.as_ref().is_none_or(|(_, g)| gain > *g) {
                    best = Some((rule, gain));
                }
            }
        }
        best
    }
}

fn goes_left(rule: &SplitRule, cols: &[Vec<f64>], row: usize) -> bool {
    match *rule {
        SplitRule::Numeric { feature, threshold } => cols[feature][row] <= threshold,
        SplitRule::Categorical { feature, left_mask } => {
            left_mask & (1u64 << (cols[feature][row] as i64)) != 0
        }
    }
}

/// Left rows first, then right rows, each in original order: two passes
/// over a copy.
fn two_pass_partition(seg: &mut [usize], goes_left: &[bool]) {
    let copy = seg.to_vec();
    let mut w = 0;
    for &i in copy.iter().filter(|&&i| goes_left[i]) {
        seg[w] = i;
        w += 1;
    }
    for &i in copy.iter().filter(|&&i| !goes_left[i]) {
        seg[w] = i;
        w += 1;
    }
}

fn numeric_split(
    col: &[f64],
    y: &[f64],
    sorted_rows: &[usize],
    feature: usize,
    min_leaf: usize,
) -> Option<(SplitRule, f64)> {
    let pairs: Vec<(f64, f64)> = sorted_rows.iter().map(|&i| (col[i], y[i])).collect();
    let n = pairs.len();
    if pairs[0].0 == pairs[n - 1].0 {
        return None;
    }
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let mut best: Option<(f64, f64)> = None;
    for i in 0..n - 1 {
        left_sum += pairs[i].1;
        left_sq += pairs[i].1 * pairs[i].1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue;
        }
        let nl = (i + 1) as f64;
        let nr = (n - i - 1) as f64;
        if (i + 1) < min_leaf || (n - i - 1) < min_leaf {
            continue;
        }
        let sse_l = left_sq - left_sum * left_sum / nl;
        let sse_r = (total_sq - left_sq) - (total - left_sum) * (total - left_sum) / nr;
        let child = sse_l + sse_r;
        if best.is_none_or(|(_, b)| child < b) {
            best = Some((0.5 * (pairs[i].0 + pairs[i + 1].0), child));
        }
    }
    best.map(|(threshold, sse)| (SplitRule::Numeric { feature, threshold }, sse))
}

fn categorical_split(
    col: &[f64],
    y: &[f64],
    idx: &[usize],
    feature: usize,
    cardinality: usize,
    min_leaf: usize,
) -> Option<(SplitRule, f64)> {
    let mut count = vec![0usize; cardinality];
    let mut sum = vec![0.0; cardinality];
    let mut sum_sq = vec![0.0; cardinality];
    for &i in idx {
        let c = col[i] as usize;
        count[c] += 1;
        sum[c] += y[i];
        sum_sq[c] += y[i] * y[i];
    }
    let mut ordered: Vec<usize> = (0..cardinality).filter(|&c| count[c] > 0).collect();
    if ordered.len() < 2 {
        return None;
    }
    ordered.sort_by(|&a, &b| {
        let ma = sum[a] / count[a] as f64;
        let mb = sum[b] / count[b] as f64;
        cmp_f64(&ma, &mb)
    });
    let total_n: usize = ordered.iter().map(|&c| count[c]).sum();
    let total_sum: f64 = ordered.iter().map(|&c| sum[c]).sum();
    let total_sq: f64 = ordered.iter().map(|&c| sum_sq[c]).sum();
    let mut left_n = 0usize;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let mut best: Option<(u64, f64)> = None;
    let mut mask = 0u64;
    for &c in &ordered[..ordered.len() - 1] {
        left_n += count[c];
        left_sum += sum[c];
        left_sq += sum_sq[c];
        mask |= 1u64 << c;
        let right_n = total_n - left_n;
        if left_n < min_leaf || right_n < min_leaf {
            continue;
        }
        let sse_l = left_sq - left_sum * left_sum / left_n as f64;
        let sse_r =
            (total_sq - left_sq) - (total_sum - left_sum) * (total_sum - left_sum) / right_n as f64;
        let child = sse_l + sse_r;
        if best.is_none_or(|(_, b)| child < b) {
            best = Some((mask, child));
        }
    }
    best.map(|(left_mask, sse)| (SplitRule::Categorical { feature, left_mask }, sse))
}

/// Asserts `tree` is `reference` bit for bit.
fn assert_same_tree(tree: &DecisionTree, reference: &RefTree, context: &str) {
    assert_eq!(tree.nodes().len(), reference.nodes.len(), "node count: {context}");
    for (k, (a, b)) in tree.nodes().iter().zip(&reference.nodes).enumerate() {
        match (a, b) {
            (
                Node::Internal { rule: ra, left: la, right: rra },
                Node::Internal { rule: rb, left: lb, right: rrb },
            ) => {
                match (ra, rb) {
                    (
                        SplitRule::Numeric { feature: fa, threshold: ta },
                        SplitRule::Numeric { feature: fb, threshold: tb },
                    ) => {
                        assert_eq!(fa, fb, "node {k} feature: {context}");
                        assert_eq!(ta.to_bits(), tb.to_bits(), "node {k} threshold: {context}");
                    }
                    (a, b) => assert_eq!(a, b, "node {k} rule: {context}"),
                }
                assert_eq!((la, rra), (lb, rrb), "node {k} children: {context}");
            }
            (Node::Leaf { value: va, n_samples: na }, Node::Leaf { value: vb, n_samples: nb }) => {
                assert_eq!(va.to_bits(), vb.to_bits(), "node {k} leaf value: {context}");
                assert_eq!(na, nb, "node {k} leaf size: {context}");
            }
            (a, b) => panic!("node {k} kind differs ({context}): {a:?} vs {b:?}"),
        }
    }
    assert_eq!(tree.root_index(), reference.root, "root: {context}");
    assert_eq!(tree.split_counts(), &reference.split_counts[..], "split counts: {context}");
}

/// Numeric values: few enough that ties are common, with every value
/// `cmp_f64` orders specially.
const VALUES: [f64; 12] = [
    f64::NEG_INFINITY,
    -2.5,
    -1.0,
    -0.0,
    0.0,
    0.25,
    1.0,
    3.0,
    1e300,
    f64::INFINITY,
    f64::NAN,
    f64::from_bits(0xfff8_0000_0000_0001),
];

/// Targets whose sums depend on summation order.
const TARGETS: [f64; 8] = [1e15, -1e15, 0.1, 0.2, -0.3, 3.0, 7.5, 0.0];

/// A zero of random sign.
fn zero(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        -0.0
    } else {
        0.0
    }
}

/// The design matrix: a numeric column draws from `VALUES` or from a grid
/// of eighths with zeros of either sign.
fn design(n: usize, kinds: &[FeatureKind], rng: &mut StdRng) -> Vec<Vec<f64>> {
    let cols: Vec<Vec<f64>> = kinds
        .iter()
        .map(|kind| match kind {
            FeatureKind::Categorical { cardinality } => {
                (0..n).map(|_| rng.gen_range(0..*cardinality) as f64).collect()
            }
            FeatureKind::Continuous if rng.gen_bool(0.5) => {
                (0..n).map(|_| VALUES[rng.gen_range(0..VALUES.len())]).collect()
            }
            FeatureKind::Continuous => (0..n)
                .map(|_| match rng.gen_range(-16i32..16) {
                    0 => zero(rng),
                    k => k as f64 / 8.0,
                })
                .collect(),
        })
        .collect();
    (0..n).map(|i| cols.iter().map(|c| c[i]).collect()).collect()
}

const DEPTHS: [usize; 7] = [0, 1, 2, 3, 4, 6, usize::MAX];

fn tree_params(d: usize, rng: &mut StdRng) -> DecisionTreeParams {
    DecisionTreeParams {
        max_depth: DEPTHS[rng.gen_range(0..DEPTHS.len())],
        min_samples_leaf: rng.gen_range(1..=5),
        min_samples_split: rng.gen_range(2..=12),
        max_features: if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(1..=d)) },
    }
}

/// A sample as boosting draws it (a shuffled subset) or as a forest does
/// (a bootstrap, with duplicates).
fn sample_rows(n: usize, rng: &mut StdRng) -> Vec<usize> {
    if rng.gen_bool(0.5) {
        let mut rows: Vec<usize> = (0..n).collect();
        rows.shuffle(rng);
        rows.truncate(rng.gen_range(1..=n));
        rows
    } else {
        (0..rng.gen_range(1..=2 * n)).map(|_| rng.gen_range(0..n)).collect()
    }
}

/// Targets; `mixed` ones draw half their values from `TARGETS`.
fn targets(n: usize, mixed: bool, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if mixed && rng.gen_bool(0.5) {
                TARGETS[rng.gen_range(0..TARGETS.len())]
            } else {
                rng.gen_range(-100i32..100) as f64 / 8.0
            }
        })
        .collect()
}

/// Fits 3–5 trees over `x` through one `FitScratch`, each with its own
/// parameters drawn from `data` and its targets and sample drawn by
/// `draw`, and checks each against a fresh reference fit and the RNG draw
/// after it.
fn check_fits(
    x: &[Vec<f64>],
    kinds: &[FeatureKind],
    seed: u64,
    draw: impl Fn(&mut StdRng) -> (Vec<f64>, Vec<usize>),
) {
    let mut data = StdRng::seed_from_u64(seed);
    let mut scratch = FitScratch::for_design(x, kinds);
    let mut fit_rng = StdRng::seed_from_u64(seed ^ 0x7ee5);
    let mut ref_rng = fit_rng.clone();
    for t in 0..data.gen_range(3..=5) {
        let params = tree_params(kinds.len(), &mut data);
        let (y, sample) = draw(&mut data);
        let context = format!("seed {seed}, tree {t}, {params:?}, kinds {kinds:?}");

        let mut tree = DecisionTree::new(params.clone(), kinds.to_vec());
        tree.fit_indices_with(&mut scratch, x, &y, &sample, &mut fit_rng);
        let reference = reference_fit(&params, kinds, x, &y, &sample, &mut ref_rng);
        assert_same_tree(&tree, &reference, &context);
        assert_eq!(fit_rng.next_u64(), ref_rng.next_u64(), "RNG draw after {context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Trees fitted one after another through one `FitScratch` equal
    /// fresh reference fits bit for bit, and consume the same RNG draws.
    /// Half the trees fit mixed-magnitude targets.
    #[test]
    fn fits_through_one_scratch_equal_the_reference(
        n_rows in 1usize..=80,
        columns in proptest::collection::vec((0usize..3, 1usize..=6), 1..=30),
        seed in 0u64..u64::MAX,
    ) {
        let kinds: Vec<FeatureKind> = columns
            .iter()
            .map(|&(k, card)| {
                if k < 2 {
                    FeatureKind::Continuous
                } else {
                    FeatureKind::Categorical { cardinality: card }
                }
            })
            .collect();
        let x = design(n_rows, &kinds, &mut StdRng::seed_from_u64(!seed));
        check_fits(&x, &kinds, seed, |data| {
            let mixed = data.gen_bool(0.5);
            (targets(n_rows, mixed, data), sample_rows(n_rows, data))
        });
    }

    /// Two numeric features that differ only in the signs of their zeros
    /// offer the same splits, and their split searches sum the same rows
    /// in orders that differ only inside the zero tie group. Under
    /// mixed-magnitude targets the sums then differ in their last bits, so
    /// which feature wins a node depends on −0.0 ranking below +0.0.
    #[test]
    fn signed_zero_twins_equal_the_reference(
        n_rows in 2usize..=40,
        seed in 0u64..u64::MAX,
    ) {
        let mut data = StdRng::seed_from_u64(!seed);
        let x: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                let v = match data.gen_range(0..4) {
                    0 => -1.0,
                    1 => 2.0,
                    _ => zero(&mut data),
                };
                let twin = if v == 0.0 { zero(&mut data) } else { v };
                vec![v, twin]
            })
            .collect();
        check_fits(&x, &[FeatureKind::Continuous; 2], seed, |data| {
            (targets(n_rows, true, data), sample_rows(n_rows, data))
        });
    }

    /// Every column is an increasing or decreasing affine map of the row
    /// number, and the targets of rows `i` and `n − 1 − i` are equal small
    /// integers. Along every column's order the targets then read the same
    /// forwards and backwards, so at the root the split after sorted row
    /// `p` and the split after row `n − 2 − p` have child SSEs of equal
    /// bits (their sums are exact and swap sides), and every column offers
    /// the same SSEs. The reference keeps the first strict minimum and the
    /// first feature to reach it; so must every lane.
    #[test]
    fn mirrored_targets_tie_and_the_first_minimum_wins(
        n_rows in 3usize..=48,
        n_cols in 8usize..=20,
        seed in 0u64..u64::MAX,
    ) {
        let mut data = StdRng::seed_from_u64(!seed);
        let maps: Vec<(f64, f64)> = (0..n_cols)
            .map(|_| {
                let slope = data.gen_range(1i32..=4) as f64;
                let sign = if data.gen_bool(0.5) { 1.0 } else { -1.0 };
                (sign * slope, data.gen_range(-8i32..8) as f64)
            })
            .collect();
        let x: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| maps.iter().map(|(a, b)| a * i as f64 + b).collect())
            .collect();
        check_fits(&x, &vec![FeatureKind::Continuous; n_cols], seed, |data| {
            let half: Vec<f64> =
                (0..n_rows.div_ceil(2)).map(|_| data.gen_range(-4i32..=4) as f64).collect();
            let y = (0..n_rows).map(|i| half[i.min(n_rows - 1 - i)]).collect();
            let mut rows: Vec<usize> = (0..n_rows).collect();
            rows.shuffle(data);
            (y, rows)
        });
    }
}

/// `fit_indices` (its own scratch) agrees with the shared-scratch path on
/// a case with signed zeros, NaNs and infinities in one column.
#[test]
fn fresh_scratch_fit_equals_the_reference() {
    let x: Vec<Vec<f64>> =
        (0..40).map(|i| vec![VALUES[i % VALUES.len()], (i % 5) as f64]).collect();
    let y: Vec<f64> = (0..40).map(|i| TARGETS[(i * 7) % TARGETS.len()]).collect();
    let kinds = vec![FeatureKind::Continuous, FeatureKind::Categorical { cardinality: 5 }];
    let sample: Vec<usize> = (0..40).rev().chain([3, 3, 10, 10, 10, 15]).collect();
    let params = DecisionTreeParams { min_samples_leaf: 2, ..Default::default() };
    let mut tree = DecisionTree::new(params.clone(), kinds.clone());
    tree.fit_indices(&x, &y, &sample, &mut StdRng::seed_from_u64(1));
    let reference = reference_fit(&params, &kinds, &x, &y, &sample, &mut StdRng::seed_from_u64(1));
    assert!(tree.nodes().len() > 1, "the case must split");
    assert_same_tree(&tree, &reference, "fresh scratch");
}
