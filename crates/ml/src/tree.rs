//! CART regression trees with native categorical-split support.
//!
//! This is the workhorse under the random forest (SMAC's surrogate, the Gini
//! importance and fANOVA carriers) and gradient boosting. Numeric features
//! split by threshold; categorical features split by subset, found exactly
//! for squared loss via Breiman's category-mean ordering trick.
//!
//! The node arena (`Vec<Node>` with index links) is public because the
//! fANOVA importance measurement in `dbtune-core` needs to marginalize the
//! tree's piecewise-constant function analytically.

use crate::dataset::FeatureKind;
use crate::Regressor;
use dbtune_linalg::ord::cmp_f64;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How an internal node routes a sample.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// Go left when `row[feature] <= threshold`.
    Numeric {
        /// Column index being tested.
        feature: usize,
        /// Split threshold (midpoint between adjacent training values).
        threshold: f64,
    },
    /// Go left when the category code of `row[feature]` is in `left_mask`.
    ///
    /// Category codes must be `< 64`; the knob catalog never exceeds a
    /// handful of choices per categorical knob.
    Categorical {
        /// Column index being tested.
        feature: usize,
        /// Bitmask of category codes routed to the left child.
        left_mask: u64,
    },
}

impl SplitRule {
    /// The feature column this rule tests.
    pub fn feature(&self) -> usize {
        match self {
            SplitRule::Numeric { feature, .. } | SplitRule::Categorical { feature, .. } => *feature,
        }
    }

    /// Whether `row` is routed to the left child.
    #[inline]
    pub fn goes_left(&self, row: &[f64]) -> bool {
        match *self {
            SplitRule::Numeric { feature, threshold } => row[feature] <= threshold,
            SplitRule::Categorical { feature, left_mask } => {
                let code = row[feature] as i64;
                debug_assert!((0..64).contains(&code), "category code out of range");
                left_mask & (1u64 << code) != 0
            }
        }
    }

    /// [`SplitRule::goes_left`] against column-major training data
    /// (`cols[feature][row_id]`) — the fit hot path reads one column
    /// value instead of chasing the row vector. Same comparison, same
    /// value bits, same verdict.
    #[inline]
    fn goes_left_col(&self, cols: &[Vec<f64>], row_id: usize) -> bool {
        match *self {
            SplitRule::Numeric { feature, threshold } => cols[feature][row_id] <= threshold,
            SplitRule::Categorical { feature, left_mask } => {
                let code = cols[feature][row_id] as i64;
                debug_assert!((0..64).contains(&code), "category code out of range");
                left_mask & (1u64 << code) != 0
            }
        }
    }
}

/// A node in the tree arena.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Node {
    /// Internal decision node.
    Internal {
        /// Routing rule.
        rule: SplitRule,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
    /// Terminal node carrying the mean target of its training samples.
    Leaf {
        /// Prediction value (training-sample mean).
        value: f64,
        /// Number of training samples that reached this leaf.
        n_samples: usize,
    },
}

/// Tuning parameters for a single tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecisionTreeParams {
    /// Maximum tree depth; `usize::MAX` disables the limit.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf; splits violating this are rejected.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split; `None` considers all.
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        Self {
            max_depth: usize::MAX,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        }
    }
}

/// A fitted CART regression tree.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    feature_kinds: Vec<FeatureKind>,
    nodes: Vec<Node>,
    /// Split counts per feature — the raw material of Gini importance.
    split_counts: Vec<usize>,
    root: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree. `feature_kinds` describes each column.
    pub fn new(params: DecisionTreeParams, feature_kinds: Vec<FeatureKind>) -> Self {
        let d = feature_kinds.len();
        Self { params, feature_kinds, nodes: Vec::new(), split_counts: vec![0; d], root: 0 }
    }

    /// Fits using an explicit RNG (used by forests for reproducible feature
    /// subsampling). `sample_indices` selects the training rows.
    ///
    /// Builds a fresh [`FitScratch`] per call, which ranks every numeric
    /// column of `x`; ensemble fitters that refit many trees over the same
    /// design matrix should build one scratch and call
    /// [`DecisionTree::fit_indices_with`] instead — identical splits, and
    /// the ranks and buffers are built once per matrix instead of per tree.
    pub fn fit_indices(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        sample_indices: &[usize],
        rng: &mut impl Rng,
    ) {
        let mut scratch = FitScratch::for_design(x, &self.feature_kinds);
        self.fit_indices_with(&mut scratch, x, y, sample_indices, rng);
    }

    /// [`DecisionTree::fit_indices`] with caller-owned buffers. The
    /// scratch must have been built by [`FitScratch::for_design`] over
    /// this `x` and this tree's feature kinds (its column-major copy and
    /// value ranks are reused verbatim — the checks below catch shape and
    /// kind drift; keeping the *values* in sync is the caller's contract).
    /// Bit-identical to `fit_indices`: every list a node reads is rebuilt
    /// to exactly the state a fresh fit produces, only the allocations and
    /// the ranks are reused.
    ///
    /// Each numeric feature's sorted list is a stable counting sort of
    /// `sample_indices` by value rank. A stable sort's output depends only
    /// on the order it sorts by and on its input order, and ranks order
    /// rows exactly as `cmp_f64` orders their values (see [`FitScratch`]),
    /// so the list is the permutation `sort_by(cmp_f64)` of the sample
    /// gives, ties included: tied rows stay in sample order, which is
    /// shuffled for boosting and holds bootstrap duplicates for forests.
    pub fn fit_indices_with(
        &mut self,
        scratch: &mut FitScratch,
        x: &[Vec<f64>],
        y: &[f64],
        sample_indices: &[usize],
        rng: &mut impl Rng,
    ) {
        assert_eq!(x.len(), y.len());
        assert!(!sample_indices.is_empty(), "cannot fit tree on empty sample");
        assert_eq!(scratch.kinds, self.feature_kinds, "scratch built for different feature kinds");
        assert_eq!(scratch.n_rows, x.len(), "scratch built for a different row count");
        self.nodes.clear();
        self.split_counts.iter_mut().for_each(|c| *c = 0);
        // Sort the sample once per numeric feature; nodes then maintain
        // these lists through order-preserving in-place partitions of
        // their [lo, hi) segment, so split search never sorts again
        // (O(n) scan instead of O(n log n) per node — same splits to the
        // bit, see `best_numeric_split`) and node construction never
        // allocates (all buffers live in the scratch).
        let FitScratch { ranks, n_ranks, buckets, idx, sorted, spill, n_rows, .. } = scratch;
        idx.clear();
        idx.extend(sample_indices.iter().map(|&i| {
            assert!(i < *n_rows, "sample row {i} out of range for {n_rows} rows");
            i as u32
        }));
        for (f, kind) in self.feature_kinds.iter().enumerate() {
            if *kind == FeatureKind::Continuous {
                counting_sort_by_rank(idx, &ranks[f], n_ranks[f], buckets, &mut sorted[f]);
            }
        }
        if spill.len() < idx.len() {
            spill.resize(idx.len(), 0);
        }
        let hi = idx.len();
        self.root = self.build(y, scratch, 0, hi, 0, rng);
    }

    /// The node arena (root at [`DecisionTree::root_index`]).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Arena index of the root node.
    pub fn root_index(&self) -> usize {
        self.root
    }

    /// Number of splits that used each feature (Gini-score numerator).
    pub fn split_counts(&self) -> &[usize] {
        &self.split_counts
    }

    /// The feature descriptors the tree was built with.
    pub fn feature_kinds(&self) -> &[FeatureKind] {
        &self.feature_kinds
    }

    fn build(
        &mut self,
        y: &[f64],
        arena: &mut FitScratch,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut impl Rng,
    ) -> usize {
        let n = hi - lo;
        let mean = arena.idx[lo..hi].iter().map(|&i| y[i as usize]).sum::<f64>() / n as f64;
        let sse: f64 = arena.idx[lo..hi]
            .iter()
            .map(|&i| (y[i as usize] - mean) * (y[i as usize] - mean))
            .sum();

        let stop =
            depth >= self.params.max_depth || n < self.params.min_samples_split || sse <= 1e-12;
        if !stop {
            if let Some((rule, gain)) = self.best_split(y, arena, lo, hi, rng) {
                if gain > 1e-12 {
                    // Route each row through the rule exactly once; the
                    // cached verdicts then drive every partition below.
                    let mut nl = 0usize;
                    for &i in &arena.idx[lo..hi] {
                        let goes_left = rule.goes_left_col(&arena.cols, i as usize);
                        arena.goes_left[i as usize] = goes_left;
                        nl += usize::from(goes_left);
                    }
                    if nl >= self.params.min_samples_leaf
                        && (n - nl) >= self.params.min_samples_leaf
                    {
                        self.split_counts[rule.feature()] += 1;
                        // Partition this node's segment of the row lists
                        // in place, preserving order: an order-preserving
                        // partition of a sorted list stays sorted (and
                        // keeps tie order). `idx` always: leaves read it.
                        // The sorted lists only when a child can still
                        // split, since only split search reads them.
                        let FitScratch { idx, sorted, goes_left, spill, .. } = arena;
                        stable_partition(&mut idx[lo..hi], goes_left, spill);
                        if depth + 1 < self.params.max_depth
                            && nl.max(n - nl) >= self.params.min_samples_split
                        {
                            for s in sorted.iter_mut().filter(|s| !s.is_empty()) {
                                stable_partition(&mut s[lo..hi], goes_left, spill);
                            }
                        }
                        let mid = lo + nl;
                        let l = self.build(y, arena, lo, mid, depth + 1, rng);
                        let r = self.build(y, arena, mid, hi, depth + 1, rng);
                        self.nodes.push(Node::Internal { rule, left: l, right: r });
                        return self.nodes.len() - 1;
                    }
                }
            }
        }
        self.nodes.push(Node::Leaf { value: mean, n_samples: n });
        self.nodes.len() - 1
    }

    /// Finds the best split over a (possibly subsampled) feature set,
    /// returning the rule and its SSE reduction.
    ///
    /// The numeric candidates are searched eight at a time by
    /// [`best_numeric_splits`], in `feat_scratch` order; the numeric
    /// candidates after the last full group of eight, and every
    /// categorical one, are searched one at a time. Each feature's
    /// candidate is then weighed in `feat_scratch` order, as before: a
    /// lane returns exactly the split [`best_numeric_split`] returns.
    fn best_split(
        &self,
        y: &[f64],
        arena: &mut FitScratch,
        lo: usize,
        hi: usize,
        rng: &mut impl Rng,
    ) -> Option<(SplitRule, f64)> {
        let FitScratch { cols, idx, sorted, feat_scratch, split_scratch, lanes, cat, .. } = arena;
        let idx = &idx[lo..hi];
        let d = self.feature_kinds.len();
        feat_scratch.clear();
        feat_scratch.extend(0..d);
        if let Some(k) = self.params.max_features {
            if k < d {
                feat_scratch.shuffle(rng);
                feat_scratch.truncate(k);
            }
        }

        let n = idx.len() as f64;
        let sum: f64 = idx.iter().map(|&i| y[i as usize]).sum();
        let sum_sq: f64 = idx.iter().map(|&i| y[i as usize] * y[i as usize]).sum();
        let parent_sse = sum_sq - sum * sum / n;

        let is_numeric = |f: &usize| self.feature_kinds[*f] == FeatureKind::Continuous;
        let n_numeric = feat_scratch.iter().filter(|f| is_numeric(f)).count();
        // Numeric candidates that lane groups search, how many of them the
        // loop has reached, the features the next group searches, and the
        // current group's splits.
        let n_laned = n_numeric - n_numeric % LANES;
        let mut laned = 0;
        let mut group_feats = feat_scratch.iter().copied().filter(is_numeric);
        let mut group = [None; LANES];
        let mut best: Option<(SplitRule, f64)> = None;
        for &f in feat_scratch.iter() {
            let candidate = match self.feature_kinds[f] {
                FeatureKind::Continuous if laned < n_laned => {
                    let lane = laned % LANES;
                    if lane == 0 {
                        let feats = std::array::from_fn(|_| {
                            group_feats.next().expect("a full group of numeric candidates")
                        });
                        group = best_numeric_splits(
                            cols,
                            y,
                            sorted,
                            &feats,
                            lo..hi,
                            self.params.min_samples_leaf,
                            lanes,
                        );
                    }
                    laned += 1;
                    group[lane]
                        .map(|(threshold, sse)| (SplitRule::Numeric { feature: f, threshold }, sse))
                }
                FeatureKind::Continuous => best_numeric_split(
                    &cols[f],
                    y,
                    &sorted[f][lo..hi],
                    f,
                    self.params.min_samples_leaf,
                    split_scratch,
                ),
                FeatureKind::Categorical { cardinality } => best_categorical_split(
                    &cols[f],
                    y,
                    idx,
                    f,
                    cardinality,
                    self.params.min_samples_leaf,
                    cat,
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

/// Reusable working set for the segment-based build. Build one with
/// [`FitScratch::for_design`] and pass it to
/// [`DecisionTree::fit_indices_with`] for every tree over that matrix:
/// the column-major copy, the value ranks and every build buffer are then
/// made once per design matrix instead of once per tree.
///
/// **Ranks.** For each numeric column, `for_design` stores every row's
/// dense rank under [`dbtune_linalg::ord::cmp_f64`]: rows whose values
/// compare equal share a rank, and a lower rank means a smaller value.
/// So all NaNs share the top rank, and −0.0 ranks below +0.0, as
/// `total_cmp` orders them. Ordering rows by rank is therefore ordering
/// them by `cmp_f64`, which is what lets each tree build its sorted
/// lists with a stable counting sort instead of a comparison sort.
///
/// **Segments.** A node is the range `[lo, hi)` of every row list: `idx`
/// holds the node's member rows in parent order, and `sorted` holds one
/// list per numeric feature kept sorted by feature value (empty for
/// categorical features). Splitting a node stably partitions the lists'
/// segments in place, so no buffer is ever allocated per node. Row ids
/// are stored as `u32` (`for_design` checks the row count fits).
///
/// **Which lists are current.** After a split, `idx` is always
/// partitioned: leaf values and leaf sizes read it. The sorted lists are
/// partitioned only when a child can still split — when the children sit
/// above `max_depth` and the larger child has at least
/// `min_samples_split` rows — because only split search reads them. A
/// node that searches for a split therefore always finds its segment of
/// every sorted list current, and a list left stale is never read again:
/// the next tree rebuilds every list from the ranks.
///
/// Stability argument: an order-preserving partition of a stably sorted
/// sequence equals the stable sort of the partitioned sequence, and a
/// node's segment is itself an order-preserving partition of the fit
/// sample — so each sorted segment is exactly what sorting the node's
/// `(value, y)` pairs used to produce, ties included. Rows duplicated
/// by bootstrap sampling are no exception: duplicates share a value and
/// always route to the same child.
pub struct FitScratch {
    /// Column-major training values (`cols[feature][row_id]`), copied
    /// once per design matrix so split search and routing read dense
    /// columns. Values are copied verbatim — identical bits, identical
    /// splits.
    cols: Vec<Vec<f64>>,
    /// The feature kinds the ranks were built for (checked per fit).
    kinds: Vec<FeatureKind>,
    /// Row count `cols` was built from (shape check in `fit_indices_with`).
    n_rows: usize,
    /// `ranks[feature][row_id]`: the row's dense value rank for numeric
    /// features (empty for categorical ones).
    ranks: Vec<Vec<u32>>,
    /// Distinct values per numeric feature (one more than its top rank).
    n_ranks: Vec<usize>,
    /// Per-rank bucket cursors for [`counting_sort_by_rank`].
    buckets: Vec<u32>,
    idx: Vec<u32>,
    sorted: Vec<Vec<u32>>,
    /// Per-row routing verdict for the split currently being applied,
    /// indexed by original row id (bootstrap duplicates agree).
    goes_left: Vec<bool>,
    /// Right-side spill buffer for [`stable_partition`].
    spill: Vec<u32>,
    /// Feature-subsample buffer for `best_split`.
    feat_scratch: Vec<usize>,
    /// `(value, target)` gather buffer for [`best_numeric_split`].
    split_scratch: Vec<(f64, f64)>,
    /// Lane-major rows for [`best_numeric_splits`].
    lanes: LaneScratch,
    /// Per-category accumulators for [`best_categorical_split`].
    cat: CatScratch,
}

impl FitScratch {
    /// Builds the scratch for a design matrix whose columns are described
    /// by `kinds`: the column-major copy and the numeric columns' value
    /// ranks are made here, once, and shared by every subsequent fit over
    /// `x`.
    pub fn for_design(x: &[Vec<f64>], kinds: &[FeatureKind]) -> Self {
        let n = x.len();
        let n32 = u32::try_from(n).expect("design matrix has more rows than u32 row ids address");
        let d = kinds.len();
        let cols: Vec<Vec<f64>> = (0..d).map(|f| x.iter().map(|row| row[f]).collect()).collect();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let (ranks, n_ranks) = cols
            .iter()
            .zip(kinds)
            .map(|(col, kind)| match kind {
                FeatureKind::Continuous => dense_ranks(col, n32, &mut order),
                FeatureKind::Categorical { .. } => (Vec::new(), 0),
            })
            .unzip();
        Self {
            cols,
            kinds: kinds.to_vec(),
            n_rows: n,
            ranks,
            n_ranks,
            buckets: Vec::with_capacity(n + 1),
            idx: Vec::with_capacity(n),
            sorted: vec![Vec::new(); d],
            goes_left: vec![false; n],
            spill: Vec::with_capacity(n),
            feat_scratch: Vec::with_capacity(d),
            split_scratch: Vec::new(),
            lanes: LaneScratch::default(),
            cat: CatScratch::default(),
        }
    }
}

/// Each row's dense rank among `col`'s values under
/// [`dbtune_linalg::ord::cmp_f64`] (equal values share a rank), and the
/// number of distinct values. `order` is a reusable row-id buffer.
fn dense_ranks(col: &[f64], n: u32, order: &mut Vec<u32>) -> (Vec<u32>, usize) {
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by(|&a, &b| cmp_f64(&col[a as usize], &col[b as usize]));
    let mut ranks = vec![0u32; col.len()];
    let mut rank = 0u32;
    for w in order.windows(2) {
        rank += u32::from(cmp_f64(&col[w[0] as usize], &col[w[1] as usize]).is_ne());
        ranks[w[1] as usize] = rank;
    }
    (ranks, rank as usize + 1)
}

/// Stable counting sort of `rows` by `rank[row]` into `out`: rows of
/// equal rank keep their order in `rows`. `buckets` is reusable scratch.
fn counting_sort_by_rank(
    rows: &[u32],
    rank: &[u32],
    n_ranks: usize,
    buckets: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    buckets.clear();
    buckets.resize(n_ranks + 1, 0);
    for &i in rows {
        buckets[rank[i as usize] as usize + 1] += 1;
    }
    // Prefix sums turn per-rank counts into each rank's first slot.
    let mut start = 0;
    for b in buckets.iter_mut() {
        start += *b;
        *b = start;
    }
    out.clear();
    out.resize(rows.len(), 0);
    for &i in rows {
        let slot = &mut buckets[rank[i as usize] as usize];
        out[*slot as usize] = i;
        *slot += 1;
    }
}

/// Per-node accumulators for [`best_categorical_split`], hoisted out of
/// the node loop (five fresh vectors per categorical feature per node
/// was the second-worst churn source in a forest refit).
#[derive(Default)]
struct CatScratch {
    count: Vec<usize>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    present: Vec<usize>,
    ordered: Vec<usize>,
}

/// Stably partitions `seg` so rows with `goes_left[row] == true` come
/// first, each side in original order. One branch-free pass writes every
/// row both at the left cursor, in place, and at the right cursor of
/// `spill`, and advances only its own side's cursor; the right side is
/// then copied back behind the left. In place is safe because the left
/// cursor never passes the row just read. `spill` must hold at least
/// `seg.len()` rows.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], spill: &mut [u32]) {
    let mut l = 0;
    let mut r = 0;
    for k in 0..seg.len() {
        let row = seg[k];
        let left = usize::from(goes_left[row as usize]);
        seg[l] = row;
        spill[r] = row;
        l += left;
        r += 1 - left;
    }
    seg[l..].copy_from_slice(&spill[..r]);
}

/// Exact best threshold split on a numeric feature by prefix scan over
/// `sorted_rows`, the node's rows presorted by this feature (see
/// [`FitScratch`]). Gathers `(value, y)` pairs from the feature's dense
/// column into `scratch` in sorted order — bit-identical to the
/// historical sort-per-node implementation
/// (`best_numeric_split_reference` under test) at O(n) instead of
/// O(n log n).
fn best_numeric_split(
    col: &[f64],
    y: &[f64],
    sorted_rows: &[u32],
    feature: usize,
    min_leaf: usize,
    scratch: &mut Vec<(f64, f64)>,
) -> Option<(SplitRule, f64)> {
    scratch.clear();
    scratch.extend(sorted_rows.iter().map(|&i| (col[i as usize], y[i as usize])));
    let pairs: &[(f64, f64)] = scratch;
    let n = pairs.len();
    if pairs[0].0 == pairs[n - 1].0 {
        return None; // constant feature
    }
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();

    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let mut best: Option<(f64, f64)> = None; // (threshold, child_sse)
    for i in 0..n - 1 {
        left_sum += pairs[i].1;
        left_sq += pairs[i].1 * pairs[i].1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // cannot split between equal values
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

/// Numeric features [`best_numeric_splits`] searches together.
const LANES: usize = 8;

/// One value per lane.
type Lanes = [f64; LANES];

/// Lane-major rows for [`best_numeric_splits`]: row `p` of `x` and `y`
/// holds the `p`-th `(value, target)` pair of each lane's sorted list,
/// and row `k` of `sse` the child SSEs of the `k`-th split position in
/// the `min_samples_leaf` window. Grown to the largest node, then reused.
#[derive(Default)]
struct LaneScratch {
    x: Vec<Lanes>,
    y: Vec<Lanes>,
    sse: Vec<Lanes>,
}

/// [`best_numeric_split`] for eight features at once: lane `l` searches
/// `feats[l]` over the node's segment `rows` of the sorted lists and
/// returns the threshold and child SSE of its split, or `None` where the
/// scalar scan would.
///
/// Every lane performs the scalar scan's IEEE operations on the same
/// operands in the same order, so its split is the scalar scan's to the
/// bit: totals fold from −0.0, where `Iterator::sum` starts; prefix sums
/// fold from +0.0; each position's child SSE is computed by the same
/// expression; and the select takes the first position whose values are
/// not tied (`!(a == b)`, so NaN counts as untied) unconditionally and a
/// later one only when its SSE is strictly smaller (so a NaN SSE never
/// wins, and a NaN incumbent is never replaced). The scan runs in two
/// passes, SSEs into `sse` and then the select, each over small
/// per-lane helpers that the compiler turns into packed arithmetic.
fn best_numeric_splits(
    cols: &[Vec<f64>],
    y: &[f64],
    sorted: &[Vec<u32>],
    feats: &[usize; LANES],
    rows: std::ops::Range<usize>,
    min_leaf: usize,
    scratch: &mut LaneScratch,
) -> [Option<(f64, f64)>; LANES] {
    let n = rows.len();
    // Position p splits after the p-th sorted row; the window holds the
    // positions that leave both children at least `min_leaf` rows.
    let start = min_leaf.saturating_sub(1);
    let end = n.saturating_sub(min_leaf.max(1));
    if start >= end {
        return [None; LANES];
    }
    let LaneScratch { x, y: ys, sse } = scratch;
    if x.len() < n {
        x.resize(n, [0.0; LANES]);
        ys.resize(n, [0.0; LANES]);
        sse.resize(n, [0.0; LANES]);
    }
    let (x, ys, sse) = (&mut x[..n], &mut ys[..n], &mut sse[..end - start]);
    // Row by row, so each row is written whole while it is in cache.
    let lists: [&[u32]; LANES] = feats.map(|f| &sorted[f][rows.clone()]);
    let lane_cols: [&[f64]; LANES] = feats.map(|f| cols[f].as_slice());
    for (p, (xr, yr)) in x.iter_mut().zip(ys.iter_mut()).enumerate() {
        for l in 0..LANES {
            let i = lists[l][p] as usize;
            xr[l] = lane_cols[l][i];
            yr[l] = y[i];
        }
    }

    let mut total = [-0.0; LANES];
    let mut total_sq = [-0.0; LANES];
    for yr in ys.iter() {
        accumulate(&mut total, &mut total_sq, yr);
    }
    let mut left_sum = [0.0; LANES];
    let mut left_sq = [0.0; LANES];
    for yr in &ys[..start] {
        accumulate(&mut left_sum, &mut left_sq, yr);
    }
    for ((p, yr), out) in (start..end).zip(&ys[start..end]).zip(sse.iter_mut()) {
        accumulate(&mut left_sum, &mut left_sq, yr);
        let (nl, nr) = ((p + 1) as f64, (n - p - 1) as f64);
        child_sses(out, &left_sum, &left_sq, &total, &total_sq, nl, nr);
    }

    let mut best = [0.0; LANES];
    let mut at = [0usize; LANES];
    let mut found = [false; LANES];
    for ((p, pair), s) in (start..end).zip(x[start..=end].windows(2)).zip(sse.iter()) {
        select_first_min(&mut best, &mut at, &mut found, s, &pair[0], &pair[1], p);
    }
    std::array::from_fn(|l| {
        let constant = x[0][l] == x[n - 1][l];
        (found[l] && !constant).then(|| (0.5 * (x[at[l]][l] + x[at[l] + 1][l]), best[l]))
    })
}

/// Adds `v` to `sum` and `v²` to `sum_sq`, lane by lane.
#[inline(always)]
fn accumulate(sum: &mut Lanes, sum_sq: &mut Lanes, v: &Lanes) {
    for ((s, q), v) in sum.iter_mut().zip(sum_sq.iter_mut()).zip(v) {
        *s += v;
        *q += v * v;
    }
}

/// Writes each lane's child SSE for a split with `nl` rows on the left,
/// by [`best_numeric_split`]'s expression.
#[inline(always)]
fn child_sses(
    out: &mut Lanes,
    left_sum: &Lanes,
    left_sq: &Lanes,
    total: &Lanes,
    total_sq: &Lanes,
    nl: f64,
    nr: f64,
) {
    for l in 0..LANES {
        let sse_l = left_sq[l] - left_sum[l] * left_sum[l] / nl;
        let right_sum = total[l] - left_sum[l];
        let sse_r = (total_sq[l] - left_sq[l]) - right_sum * right_sum / nr;
        out[l] = sse_l + sse_r;
    }
}

/// Moves each lane's incumbent to position `p` (SSE `sse`) when the values
/// either side of `p` are untied and the lane has no incumbent yet or
/// `sse` is strictly smaller. Branch-free, so it runs as packed selects.
#[inline(always)]
fn select_first_min(
    best: &mut Lanes,
    at: &mut [usize; LANES],
    found: &mut [bool; LANES],
    sse: &Lanes,
    below: &Lanes,
    above: &Lanes,
    p: usize,
) {
    for l in 0..LANES {
        let untied = !(below[l] == above[l]);
        let take = untied & (!found[l] | (sse[l] < best[l]));
        best[l] = if take { sse[l] } else { best[l] };
        at[l] = if take { p } else { at[l] };
        found[l] |= untied;
    }
}

/// The historical sort-per-node numeric split search, kept verbatim as
/// the oracle for the presort fast path's equivalence proptest.
#[cfg(test)]
fn best_numeric_split_reference(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    feature: usize,
    min_leaf: usize,
) -> Option<(SplitRule, f64)> {
    let mut pairs: Vec<(f64, f64)> = idx.iter().map(|&i| (x[i][feature], y[i])).collect();
    pairs.sort_by(|a, b| dbtune_linalg::ord::cmp_f64(&a.0, &b.0));
    let n = pairs.len();
    if pairs[0].0 == pairs[n - 1].0 {
        return None; // constant feature
    }
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let total_sq: f64 = pairs.iter().map(|p| p.1 * p.1).sum();

    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let mut best: Option<(f64, f64)> = None; // (threshold, child_sse)
    for i in 0..n - 1 {
        left_sum += pairs[i].1;
        left_sq += pairs[i].1 * pairs[i].1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // cannot split between equal values
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

/// Exact best subset split on a categorical feature.
///
/// (Index loops mirror the prefix-scan math.)
///
/// For squared loss the optimal subset respects the ordering of category
/// target means (Breiman et al., 1984), so we sort categories by mean and
/// scan as if numeric.
#[allow(
    clippy::needless_range_loop,
    reason = "the split scan stops one short of the last ordered category"
)]
fn best_categorical_split(
    col: &[f64],
    y: &[f64],
    idx: &[u32],
    feature: usize,
    cardinality: usize,
    min_leaf: usize,
    scratch: &mut CatScratch,
) -> Option<(SplitRule, f64)> {
    assert!(cardinality <= 64, "categorical cardinality above bitmask capacity");
    let CatScratch { count, sum, sum_sq, present, ordered } = scratch;
    count.clear();
    count.resize(cardinality, 0);
    sum.clear();
    sum.resize(cardinality, 0.0);
    sum_sq.clear();
    sum_sq.resize(cardinality, 0.0);
    for &i in idx {
        let i = i as usize;
        let c = col[i] as usize;
        debug_assert!(c < cardinality, "category code {c} >= cardinality {cardinality}");
        count[c] += 1;
        sum[c] += y[i];
        sum_sq[c] += y[i] * y[i];
    }
    present.clear();
    present.extend((0..cardinality).filter(|&c| count[c] > 0));
    if present.len() < 2 {
        return None;
    }
    ordered.clear();
    ordered.extend_from_slice(present);
    ordered.sort_by(|&a, &b| {
        let ma = sum[a] / count[a] as f64;
        let mb = sum[b] / count[b] as f64;
        dbtune_linalg::ord::cmp_f64(&ma, &mb)
    });

    let total_n: usize = ordered.iter().map(|&c| count[c]).sum();
    let total_sum: f64 = ordered.iter().map(|&c| sum[c]).sum();
    let total_sq: f64 = ordered.iter().map(|&c| sum_sq[c]).sum();

    let mut left_n = 0usize;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    let mut best: Option<(u64, f64)> = None;
    let mut mask = 0u64;
    for w in 0..ordered.len() - 1 {
        let c = ordered[w];
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

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        self.fit_indices(x, y, &idx, &mut rng);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict on unfitted tree");
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Internal { rule, left, right } => {
                    node = if rule.goes_left(row) { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_tree(x: &[Vec<f64>], y: &[f64], kinds: Vec<FeatureKind>) -> DecisionTree {
        let mut t = DecisionTree::new(DecisionTreeParams::default(), kinds);
        t.fit(x, y);
        t
    }

    #[test]
    fn perfectly_separable_numeric_data() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let t = fit_tree(&x, &y, vec![FeatureKind::Continuous]);
        assert_eq!(t.predict(&[3.0]), 1.0);
        assert_eq!(t.predict(&[15.0]), 5.0);
    }

    #[test]
    fn interpolates_training_points_without_depth_limit() {
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, (i * 7 % 16) as f64]).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64).sin() * 10.0).collect();
        let t = fit_tree(&x, &y, vec![FeatureKind::Continuous; 2]);
        for (xi, yi) in x.iter().zip(&y) {
            assert!((t.predict(xi) - yi).abs() < 1e-9);
        }
    }

    #[test]
    fn categorical_split_is_found() {
        // Category {0,2} -> low, {1,3} -> high. A threshold split cannot
        // separate these; a subset split can.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 4) as f64]).collect();
        let y: Vec<f64> =
            (0..40).map(|i| if i % 4 == 0 || i % 4 == 2 { 0.0 } else { 10.0 }).collect();
        let t = fit_tree(&x, &y, vec![FeatureKind::Categorical { cardinality: 4 }]);
        assert_eq!(t.predict(&[0.0]), 0.0);
        assert_eq!(t.predict(&[2.0]), 0.0);
        assert_eq!(t.predict(&[1.0]), 10.0);
        assert_eq!(t.predict(&[3.0]), 10.0);
        // The root should be a single categorical split: exactly one split
        // (depth 1) suffices.
        assert_eq!(t.split_counts()[0], 1);
    }

    #[test]
    fn split_counts_track_used_features() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, 0.0]) // second feature constant
            .collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64 * 2.0).collect();
        let t = fit_tree(&x, &y, vec![FeatureKind::Continuous; 2]);
        assert!(t.split_counts()[0] > 0);
        assert_eq!(t.split_counts()[1], 0);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let params = DecisionTreeParams { min_samples_leaf: 4, ..Default::default() };
        let mut t = DecisionTree::new(params, vec![FeatureKind::Continuous]);
        t.fit(&x, &y);
        for node in t.nodes() {
            if let Node::Leaf { n_samples, .. } = node {
                assert!(*n_samples >= 4);
            }
        }
    }

    #[test]
    fn max_depth_zero_gives_mean_stump() {
        let x: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let params = DecisionTreeParams { max_depth: 0, ..Default::default() };
        let mut t = DecisionTree::new(params, vec![FeatureKind::Continuous]);
        t.fit(&x, &y);
        assert!((t.predict(&[0.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 8];
        let t = fit_tree(&x, &y, vec![FeatureKind::Continuous]);
        assert_eq!(t.nodes().len(), 1);
        assert_eq!(t.predict(&[100.0]), 3.0);
    }

    /// Runs the fast path the way a fit does: rank the column, counting-
    /// sort the node's rows by rank, then gather-and-scan.
    fn fast_split(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        feature: usize,
        min_leaf: usize,
    ) -> Option<(SplitRule, f64)> {
        let col: Vec<f64> = x.iter().map(|row| row[feature]).collect();
        let (ranks, n_ranks) = dense_ranks(&col, col.len() as u32, &mut Vec::new());
        let rows: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
        let mut sorted = Vec::new();
        counting_sort_by_rank(&rows, &ranks, n_ranks, &mut Vec::new(), &mut sorted);
        let mut scratch = Vec::new();
        best_numeric_split(&col, y, &sorted, feature, min_leaf, &mut scratch)
    }

    fn assert_split_eq(a: Option<(SplitRule, f64)>, b: Option<(SplitRule, f64)>, context: &str) {
        match (a, b) {
            (None, None) => {}
            (Some((ra, sa)), Some((rb, sb))) => {
                assert_eq!(ra, rb, "rule mismatch: {context}");
                assert_eq!(sa.to_bits(), sb.to_bits(), "SSE bits mismatch: {context}");
            }
            (a, b) => panic!("split presence mismatch ({context}): {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn presorted_split_matches_reference_with_ties_and_duplicates() {
        // Heavy value ties plus bootstrap-style duplicate indices — the
        // cases where a stability bug would change the chosen threshold.
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![(i % 6) as f64, (i % 4) as f64]).collect();
        let y: Vec<f64> = (0..24).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let idx: Vec<usize> = (0..24).chain([3, 3, 17, 8, 8, 8]).collect();
        for feature in 0..2 {
            for min_leaf in [1, 3, 8] {
                let r = best_numeric_split_reference(&x, &y, &idx, feature, min_leaf);
                let f = fast_split(&x, &y, &idx, feature, min_leaf);
                assert_split_eq(r, f, &format!("feature {feature}, min_leaf {min_leaf}"));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The presort fast path returns the same rule and the same SSE
        /// bits as the historical sort-per-node search, on arbitrary data
        /// (quantized to force ties) and arbitrary row multisets.
        #[test]
        fn presorted_split_equals_reference(
            vals in proptest::collection::vec((0u32..8, -100i32..100), 2..60),
            picks in proptest::collection::vec(0usize..60, 2..80),
            min_leaf in 1usize..5,
        ) {
            let x: Vec<Vec<f64>> = vals.iter().map(|(v, _)| vec![*v as f64 / 4.0]).collect();
            let y: Vec<f64> = vals.iter().map(|(_, t)| *t as f64 / 10.0).collect();
            let idx: Vec<usize> = picks.iter().map(|&p| p % x.len()).collect();
            let r = best_numeric_split_reference(&x, &y, &idx, 0, min_leaf);
            let f = fast_split(&x, &y, &idx, 0, min_leaf);
            assert_split_eq(r, f, "proptest case");
        }
    }

    /// Values with every case `cmp_f64` orders specially (±0.0, two NaNs
    /// of different bits, ±∞) and few enough for ties to be common.
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

    /// Targets whose sums depend on summation order, and a negative zero.
    const TARGETS: [f64; 8] = [1e15, -1e15, 0.1, 0.2, -0.3, 3.0, 7.5, -0.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Each lane of the eight-feature search returns the rule and the
        /// SSE bits the scalar search returns for that lane's feature, on
        /// the value pool above, mixed-magnitude targets, any row multiset,
        /// any node range and any leaf minimum, with lanes that may repeat
        /// a feature, through a scratch reused across nodes.
        #[test]
        fn lane_search_equals_the_scalar_search_lane_by_lane(
            n_rows in 1usize..=40,
            d in 1usize..=10,
            min_leaf in 0usize..=6,
            seed in 0u64..u64::MAX,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let cols: Vec<Vec<f64>> = (0..d)
                .map(|_| {
                    let pooled = rng.gen_bool(0.5);
                    (0..n_rows)
                        .map(|_| match pooled {
                            true => VALUES[rng.gen_range(0..VALUES.len())],
                            false => rng.gen_range(-8i32..8) as f64 / 4.0,
                        })
                        .collect()
                })
                .collect();
            let y: Vec<f64> = (0..n_rows)
                .map(|_| match rng.gen_bool(0.5) {
                    true => TARGETS[rng.gen_range(0..TARGETS.len())],
                    false => rng.gen_range(-100i32..100) as f64 / 8.0,
                })
                .collect();
            let n_picks = rng.gen_range(1..=2 * n_rows);
            let picks: Vec<u32> = (0..n_picks).map(|_| rng.gen_range(0..n_rows as u32)).collect();
            let sorted: Vec<Vec<u32>> = cols
                .iter()
                .map(|col| {
                    let (ranks, n_ranks) = dense_ranks(col, n_rows as u32, &mut Vec::new());
                    let mut s = Vec::new();
                    counting_sort_by_rank(&picks, &ranks, n_ranks, &mut Vec::new(), &mut s);
                    s
                })
                .collect();
            let feats: [usize; LANES] = std::array::from_fn(|_| rng.gen_range(0..d));
            let lo = rng.gen_range(0..picks.len());
            let hi = rng.gen_range(lo + 1..=picks.len());
            let mut scratch = LaneScratch::default();
            for rows in [0..picks.len(), lo..hi] {
                let splits = best_numeric_splits(
                    &cols,
                    &y,
                    &sorted,
                    &feats,
                    rows.clone(),
                    min_leaf,
                    &mut scratch,
                );
                for (lane, (&f, split)) in feats.iter().zip(splits).enumerate() {
                    let list = &sorted[f][rows.clone()];
                    let mut pairs = Vec::new();
                    let scalar = best_numeric_split(&cols[f], &y, list, f, min_leaf, &mut pairs);
                    let context = format!("lane {lane}, feature {f}, rows {rows:?}");
                    match (scalar, split) {
                        (None, None) => {}
                        (Some((SplitRule::Numeric { feature, threshold }, sse)), Some((t, s))) => {
                            assert_eq!(feature, f, "{context}");
                            assert_eq!(threshold.to_bits(), t.to_bits(), "threshold: {context}");
                            assert_eq!(sse.to_bits(), s.to_bits(), "SSE: {context}");
                        }
                        (a, b) => panic!("split presence differs ({context}): {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn split_rule_routing() {
        let num = SplitRule::Numeric { feature: 0, threshold: 1.5 };
        assert!(num.goes_left(&[1.0]));
        assert!(!num.goes_left(&[2.0]));
        let cat = SplitRule::Categorical { feature: 0, left_mask: 0b101 };
        assert!(cat.goes_left(&[0.0]));
        assert!(!cat.goes_left(&[1.0]));
        assert!(cat.goes_left(&[2.0]));
    }
}
