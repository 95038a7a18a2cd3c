//! CART decision-tree classifier with Gini impurity.
//!
//! `fit` sorts every feature once per tree and keeps, for each node, its
//! samples in that sorted order in every feature's list: a split
//! stable-partitions the lists instead of re-sorting the node's samples per
//! feature, so finding a split costs O(features · samples) per tree level.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize, Value};

use crate::dataset::TrainingSet;

/// Hyperparameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        Self { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// One tree node in 16 bytes. Nodes are stored in pre-order, so a split's
/// left child is always the next node; `right` indexes its right child.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// A split's threshold (`x[feature] <= value` goes left), or a leaf's
    /// match probability.
    value: f64,
    /// The feature a split tests; [`LEAF`] for a leaf.
    feature: u32,
    /// A split's right child; 0 for a leaf.
    right: u32,
}

impl Node {
    fn leaf(proba: f64) -> Self {
        Self { value: proba, feature: LEAF, right: 0 }
    }

    fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }
}

/// A trained binary CART classifier. Leaves store the positive-class
/// fraction of their training samples as the predicted probability.
///
/// The JSON form lists the nodes in pre-order as externally tagged
/// `{"Split": {"feature", "threshold", "left", "right"}}` and
/// `{"Leaf": {"proba"}}` objects, next to `num_features`. Decoding checks
/// the structure every prediction relies on: at least one node, every
/// split's `left` is the next node, its `right` lies after `left` and inside
/// the tree, and its `feature` is below `num_features`. So a decoded tree
/// cannot send [`predict_proba`](Self::predict_proba) out of bounds or
/// round a cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    /// Never empty.
    nodes: Vec<Node>,
    num_features: usize,
}

impl Serialize for DecisionTree {
    fn to_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let (tag, fields) = if node.is_leaf() {
                    ("Leaf", vec![("proba".to_owned(), node.value.to_value())])
                } else {
                    let fields = vec![
                        ("feature".to_owned(), (node.feature as usize).to_value()),
                        ("threshold".to_owned(), node.value.to_value()),
                        ("left".to_owned(), (i + 1).to_value()),
                        ("right".to_owned(), (node.right as usize).to_value()),
                    ];
                    ("Split", fields)
                };
                Value::Map(vec![(tag.to_owned(), Value::Map(fields))])
            })
            .collect();
        Value::Map(vec![
            ("nodes".to_owned(), Value::Seq(nodes)),
            ("num_features".to_owned(), self.num_features.to_value()),
        ])
    }
}

impl Deserialize for DecisionTree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let num_features = usize::from_value(serde::map_get(v, "num_features")?)?;
        let encoded = serde::as_seq(serde::map_get(v, "nodes")?)?;
        if encoded.is_empty() {
            return Err(serde::Error::msg("decision tree has no nodes"));
        }
        if u32::try_from(encoded.len()).is_err() {
            return Err(serde::Error::msg("decision tree has too many nodes"));
        }
        let len = encoded.len();
        let nodes = encoded
            .iter()
            .enumerate()
            .map(|(i, node)| decode_node(node, i, len, num_features))
            .collect::<Result<_, _>>()?;
        Ok(Self { nodes, num_features })
    }
}

/// Decode node `i` of a `len`-node tree over `num_features` features.
fn decode_node(v: &Value, i: usize, len: usize, num_features: usize) -> Result<Node, serde::Error> {
    let (tag, inner) = match v {
        Value::Map(entries) if entries.len() == 1 => (&entries[0].0, &entries[0].1),
        _ => return Err(serde::Error::msg(format!("tree node {i} is not a single-entry object"))),
    };
    let field = |name: &str| serde::map_get(inner, name);
    match tag.as_str() {
        "Leaf" => Ok(Node::leaf(f64::from_value(field("proba")?)?)),
        "Split" => {
            let feature = usize::from_value(field("feature")?)?;
            let threshold = f64::from_value(field("threshold")?)?;
            let left = usize::from_value(field("left")?)?;
            let right = usize::from_value(field("right")?)?;
            let Some(feature) =
                u32::try_from(feature).ok().filter(|&f| f != LEAF && (f as usize) < num_features)
            else {
                return Err(serde::Error::msg(format!(
                    "tree node {i} splits on feature {feature}, but the tree has {num_features}"
                )));
            };
            if left != i + 1 {
                return Err(serde::Error::msg(format!(
                    "tree node {i} has left child {left}; it must be the next node, {}",
                    i + 1
                )));
            }
            if right <= left || right >= len {
                return Err(serde::Error::msg(format!(
                    "tree node {i} has right child {right}; it must lie in ({left}, {len})"
                )));
            }
            // right < len, which was checked to fit u32
            Ok(Node { value: threshold, feature, right: right as u32 })
        }
        other => Err(serde::Error::msg(format!("tree node {i}: unknown variant `{other}`"))),
    }
}

/// The training samples of one `fit`, with every feature's sample ids in
/// ascending value order.
struct Presorted<'a> {
    labels: &'a [bool],
    /// Number of samples.
    n: usize,
    /// Column-major feature values: feature `f` is `columns[f * n..][..n]`.
    columns: Vec<f64>,
    /// Feature `f`'s list is `order[f * n..][..n]`: sample ids by `total_cmp`
    /// value, ties by ascending id. A node owns the same range `lo..hi` of
    /// every list, holding its samples in that order — exactly what a stable
    /// sort of the node's (ascending) sample ids would give.
    order: Vec<u32>,
    /// Per sample: whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// Holds the right-going ids while a list is partitioned.
    scratch: Vec<u32>,
}

impl<'a> Presorted<'a> {
    fn new(data: &'a TrainingSet) -> Self {
        let n = data.len();
        let cols = data.num_features();
        let ids = u32::try_from(n).expect("training set too large: sample ids must fit in u32");
        let mut columns = vec![0.0; n * cols];
        for (i, row) in data.x.iter_rows().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                columns[f * n + i] = v;
            }
        }
        let mut order = Vec::with_capacity(n * cols);
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(n);
        for column in columns.chunks_exact(n) {
            keyed.clear();
            keyed.extend(column.iter().zip(0..ids).map(|(&v, i)| (total_order_key(v), i)));
            keyed.sort_unstable();
            order.extend(keyed.iter().map(|&(_, i)| i));
        }
        Self { labels: &data.y, n, columns, order, goes_left: vec![false; n], scratch: Vec::new() }
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.n..][..self.n]
    }

    fn sorted(&self, feature: usize, lo: usize, hi: usize) -> &[u32] {
        &self.order[feature * self.n..][lo..hi]
    }

    /// Split node `lo..hi` by `x[feature] <= threshold`: every feature's
    /// list is stable-partitioned so the left child owns `lo..lo + left_n`
    /// and the right child the rest. Returns `(left_n, left_pos)`.
    fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        threshold: f64,
    ) -> (usize, usize) {
        let (mut left_n, mut left_pos) = (0, 0);
        let column = &self.columns[feature * self.n..][..self.n];
        for &i in &self.order[feature * self.n..][lo..hi] {
            let i = i as usize;
            let left = column[i] <= threshold;
            self.goes_left[i] = left;
            if left {
                left_n += 1;
                left_pos += usize::from(self.labels[i]);
            }
        }
        if left_n == 0 || left_n == hi - lo {
            return (left_n, left_pos); // every list is already partitioned
        }
        for list in self.order.chunks_exact_mut(self.n) {
            let segment = &mut list[lo..hi];
            self.scratch.clear();
            let mut kept = 0;
            for k in 0..segment.len() {
                let i = segment[k];
                if self.goes_left[i as usize] {
                    segment[kept] = i;
                    kept += 1;
                } else {
                    self.scratch.push(i);
                }
            }
            segment[kept..].copy_from_slice(&self.scratch);
        }
        (left_n, left_pos)
    }
}

/// An integer that orders like [`f64::total_cmp`]: flipping the magnitude
/// bits of negative values makes the signed bit patterns ascend with the
/// values.
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Weighted Gini impurity term `cnt · 2p(1 − p)` of one side of a split.
fn gini(cnt: f64, pos: f64) -> f64 {
    if cnt == 0.0 {
        0.0
    } else {
        let p = pos / cnt;
        2.0 * p * (1.0 - p)
    }
}

/// Sweep one feature over a node's samples `sorted` by ascending value,
/// scoring each boundary between distinct values by weighted Gini impurity,
/// and keep in `best` (`(feature, threshold, score)`) the lowest score seen
/// so far. `total_pos` is the node's number of positive samples.
fn sweep(
    best: &mut Option<(usize, f64, f64)>,
    feature: usize,
    sorted: &[u32],
    column: &[f64],
    labels: &[bool],
    total_pos: usize,
    min_samples_leaf: usize,
) {
    let n = sorted.len();
    let (mut left_n, mut left_pos) = (0usize, 0usize);
    for w in 0..n - 1 {
        let i = sorted[w] as usize;
        left_n += 1;
        left_pos += usize::from(labels[i]);
        let v_here = column[i];
        let v_next = column[sorted[w + 1] as usize];
        if v_next <= v_here {
            continue; // not a distinct boundary
        }
        let right_n = n - left_n;
        if left_n < min_samples_leaf || right_n < min_samples_leaf {
            continue;
        }
        let (l_n, r_n) = (left_n as f64, right_n as f64);
        let (l_pos, r_pos) = (left_pos as f64, (total_pos - left_pos) as f64);
        let score = (l_n * gini(l_n, l_pos) + r_n * gini(r_n, r_pos)) / n as f64;
        if best.is_none_or(|(_, _, s)| score < s - 1e-15) {
            // The midpoint can round up to v_next when the two values are
            // adjacent floats, which would leave the right child empty (and
            // its leaf probability 0/0). Fall back to v_here, which always
            // separates the sides.
            let mid = (v_here + v_next) / 2.0;
            let threshold = if mid > v_here && mid < v_next { mid } else { v_here };
            *best = Some((feature, threshold, score));
        }
    }
}

impl DecisionTree {
    /// Train a tree. `rng` drives feature subsampling (only consulted when
    /// `max_features` is set).
    ///
    /// An empty training set yields a constant 0.0-probability stump.
    ///
    /// # Panics
    /// Panics if the training set has `u32::MAX` or more rows, or the tree
    /// more than `u32::MAX` nodes.
    pub fn fit(data: &TrainingSet, config: &DecisionTreeConfig, rng: &mut SmallRng) -> Self {
        let mut tree = Self { nodes: Vec::new(), num_features: data.num_features() };
        if data.is_empty() {
            tree.nodes.push(Node::leaf(0.0));
            return tree;
        }
        let mut samples = Presorted::new(data);
        let pos = data.y.iter().filter(|&&l| l).count();
        tree.build(&mut samples, 0, data.len(), pos, 0, config, rng);
        tree
    }

    /// Number of nodes (splits + leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            let node = nodes[i];
            if node.is_leaf() {
                0
            } else {
                1 + walk(nodes, i + 1).max(walk(nodes, node.right as usize))
            }
        }
        walk(&self.nodes, 0)
    }

    /// Predicted probability that `x` is a match.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            let node = self.nodes[i];
            if node.is_leaf() {
                return node.value;
            }
            i = if x[node.feature as usize] <= node.value { i + 1 } else { node.right as usize };
        }
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Grow the subtree of node `lo..hi` (holding `pos` positive samples)
    /// in pre-order and return its root's index.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        samples: &mut Presorted<'_>,
        lo: usize,
        hi: usize,
        pos: usize,
        depth: usize,
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> usize {
        let n = hi - lo;
        let proba = pos as f64 / n as f64;
        let pure = pos == 0 || pos == n;
        if pure || depth >= config.max_depth || n < config.min_samples_split {
            return self.push(Node::leaf(proba));
        }
        let Some((feature, threshold)) = self.best_split(samples, lo, hi, pos, config, rng) else {
            return self.push(Node::leaf(proba));
        };
        let (left_n, left_pos) = samples.partition(lo, hi, feature, threshold);
        if left_n == 0 || left_n == n {
            // defensive: a degenerate split must never create an empty child
            return self.push(Node::leaf(proba));
        }
        // placeholder, patched once the right child's index is known
        let node_id = self.push(Node::leaf(proba));
        self.build(samples, lo, lo + left_n, left_pos, depth + 1, config, rng);
        let right = self.build(samples, lo + left_n, hi, pos - left_pos, depth + 1, config, rng);
        let feature =
            u32::try_from(feature).expect("a training row has fewer than u32::MAX features");
        let right = u32::try_from(right).expect("a tree has at most u32::MAX nodes");
        self.nodes[node_id] = Node { value: threshold, feature, right };
        node_id
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Exhaustive best split of node `lo..hi` over (a sample of) features:
    /// sweep candidate thresholds at midpoints between distinct values and
    /// minimize weighted Gini impurity.
    fn best_split(
        &self,
        samples: &Presorted<'_>,
        lo: usize,
        hi: usize,
        pos: usize,
        config: &DecisionTreeConfig,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64)> {
        let mut best = None;
        for feature in self.split_candidates(config, rng) {
            let sorted = samples.sorted(feature, lo, hi);
            let column = samples.column(feature);
            sweep(&mut best, feature, sorted, column, samples.labels, pos, config.min_samples_leaf);
        }
        best.map(|(f, t, _)| (f, t))
    }

    /// The features a split examines: all of them, or with `max_features`
    /// a random subset drawn from `rng`.
    fn split_candidates(&self, config: &DecisionTreeConfig, rng: &mut SmallRng) -> Vec<usize> {
        let mut features: Vec<usize> = (0..self.num_features).collect();
        if let Some(k) = config.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(self.num_features));
        }
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// The fit before presorting, kept as the reference the presorted
    /// `fit` must equal bit for bit: every node stable-sorts its own
    /// samples for every examined feature.
    mod oracle {
        use super::super::*;

        pub fn fit(
            data: &TrainingSet,
            config: &DecisionTreeConfig,
            rng: &mut SmallRng,
        ) -> DecisionTree {
            let mut tree = DecisionTree { nodes: Vec::new(), num_features: data.num_features() };
            if data.is_empty() {
                tree.nodes.push(Node::leaf(0.0));
                return tree;
            }
            build(&mut tree, data, (0..data.len()).collect(), 0, config, rng);
            tree
        }

        fn build(
            tree: &mut DecisionTree,
            data: &TrainingSet,
            indices: Vec<usize>,
            depth: usize,
            config: &DecisionTreeConfig,
            rng: &mut SmallRng,
        ) -> usize {
            let n = indices.len();
            let pos = indices.iter().filter(|&&i| data.y[i]).count();
            let proba = pos as f64 / n as f64;
            let pure = pos == 0 || pos == n;
            if pure || depth >= config.max_depth || n < config.min_samples_split {
                return tree.push(Node::leaf(proba));
            }
            let Some((feature, threshold)) = best_split(tree, data, &indices, config, rng) else {
                return tree.push(Node::leaf(proba));
            };
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.into_iter().partition(|&i| data.x.get(i, feature) <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return tree.push(Node::leaf(proba));
            }
            let node_id = tree.push(Node::leaf(proba));
            let left = build(tree, data, left_idx, depth + 1, config, rng);
            let right = build(tree, data, right_idx, depth + 1, config, rng);
            assert_eq!(left, node_id + 1, "pre-order layout");
            tree.nodes[node_id] =
                Node { value: threshold, feature: feature as u32, right: right as u32 };
            node_id
        }

        fn best_split(
            tree: &DecisionTree,
            data: &TrainingSet,
            indices: &[usize],
            config: &DecisionTreeConfig,
            rng: &mut SmallRng,
        ) -> Option<(usize, f64)> {
            let n = indices.len() as f64;
            let total_pos = indices.iter().filter(|&&i| data.y[i]).count() as f64;
            let mut best: Option<(usize, f64, f64)> = None;
            let mut sorted: Vec<usize> = Vec::with_capacity(indices.len());
            for feature in tree.split_candidates(config, rng) {
                sorted.clear();
                sorted.extend_from_slice(indices);
                sorted.sort_by(|&a, &b| data.x.get(a, feature).total_cmp(&data.x.get(b, feature)));
                let mut left_n = 0.0f64;
                let mut left_pos = 0.0f64;
                for w in 0..sorted.len() - 1 {
                    let i = sorted[w];
                    left_n += 1.0;
                    if data.y[i] {
                        left_pos += 1.0;
                    }
                    let v_here = data.x.get(i, feature);
                    let v_next = data.x.get(sorted[w + 1], feature);
                    if v_next <= v_here {
                        continue;
                    }
                    let right_n = n - left_n;
                    if (left_n as usize) < config.min_samples_leaf
                        || (right_n as usize) < config.min_samples_leaf
                    {
                        continue;
                    }
                    let right_pos = total_pos - left_pos;
                    let score =
                        (left_n * gini(left_n, left_pos) + right_n * gini(right_n, right_pos)) / n;
                    if best.is_none_or(|(_, _, s)| score < s - 1e-15) {
                        let mid = (v_here + v_next) / 2.0;
                        let threshold = if mid > v_here && mid < v_next { mid } else { v_here };
                        best = Some((feature, threshold, score));
                    }
                }
            }
            best.map(|(f, t, _)| (f, t))
        }
    }

    /// Nodes as bit patterns, so `-0.0 != 0.0` and `NaN == NaN`.
    fn node_bits(tree: &DecisionTree) -> Vec<(u64, u32, u32)> {
        tree.nodes.iter().map(|n| (n.value.to_bits(), n.feature, n.right)).collect()
    }

    /// Cell values with ties, both zeros, adjacent floats (whose midpoint
    /// rounds onto one of them) and a NaN.
    const PALETTE: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 0.500_000_000_000_000_1, 1.0, -1.0, f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        #[test]
        fn presorted_fit_equals_per_node_sort_oracle(
            cells in proptest::collection::vec((0usize..12, 0.0f64..1.0, proptest::prelude::any::<bool>()), 1..200),
            cols in 1usize..5,
            depth_and_leaf in (0usize..10, 1usize..4, 2usize..5),
            max_features in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            let (max_depth, min_samples_leaf, min_samples_split) = depth_and_leaf;
            let mut data = TrainingSet::new(cols);
            for (row, chunk) in cells.chunks_exact(cols).enumerate() {
                let values: Vec<f64> =
                    chunk.iter().map(|&(k, v, _)| if k < PALETTE.len() { PALETTE[k] } else { v }).collect();
                data.push(&values, chunk[0].2 ^ (row % 5 == 0));
            }
            let config = DecisionTreeConfig {
                max_depth,
                min_samples_split,
                min_samples_leaf,
                max_features: (max_features > 0).then_some(max_features),
            };
            let mut rng_fast = SmallRng::seed_from_u64(seed);
            let mut rng_oracle = rng_fast.clone();
            let fast = DecisionTree::fit(&data, &config, &mut rng_fast);
            let reference = oracle::fit(&data, &config, &mut rng_oracle);
            proptest::prop_assert_eq!(node_bits(&fast), node_bits(&reference));
            proptest::prop_assert_eq!(fast.num_features, reference.num_features);
            proptest::prop_assert_eq!(rng_fast.next_u64(), rng_oracle.next_u64(), "RNG state after fit");
        }
    }

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    /// The JSON a tree encoded to before nodes were flattened (recorded
    /// from the enum-node encoder on `golden_tree`'s training data).
    const GOLDEN_TREE_JSON: &str = concat!(
        r#"{"nodes":[{"Split":{"feature":0,"threshold":0.125,"left":1,"right":4}},"#,
        r#"{"Split":{"feature":1,"threshold":0.5,"left":2,"right":3}},"#,
        r#"{"Leaf":{"proba":0.0}},{"Leaf":{"proba":1.0}},"#,
        r#"{"Split":{"feature":1,"threshold":0.75,"left":5,"right":6}},"#,
        r#"{"Leaf":{"proba":1.0}},{"Leaf":{"proba":0.0}}],"num_features":2}"#
    );

    fn golden_tree() -> DecisionTree {
        let rows =
            vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0], vec![0.25, 0.5]];
        let labels = vec![false, true, true, false, true];
        DecisionTree::fit(
            &TrainingSet::from_rows(&rows, &labels),
            &DecisionTreeConfig::default(),
            &mut rng(),
        )
    }

    #[test]
    fn json_encoding_is_unchanged_and_round_trips_byte_for_byte() {
        let tree = golden_tree();
        assert_eq!(serde_json::to_string(&tree).unwrap(), GOLDEN_TREE_JSON);
        let decoded: DecisionTree = serde_json::from_str(GOLDEN_TREE_JSON).unwrap();
        assert_eq!(decoded, tree);
        assert_eq!(serde_json::to_string(&decoded).unwrap(), GOLDEN_TREE_JSON);
    }

    /// Decode a one-feature tree whose root is a split with the given
    /// children and feature over two leaves.
    fn decode_root_split(
        feature: usize,
        left: usize,
        right: usize,
    ) -> Result<DecisionTree, String> {
        let json = format!(
            r#"{{"nodes":[{{"Split":{{"feature":{feature},"threshold":0.5,"left":{left},"right":{right}}}}},{{"Leaf":{{"proba":0.0}}}},{{"Leaf":{{"proba":1.0}}}}],"num_features":1}}"#
        );
        serde_json::from_str::<DecisionTree>(&json).map_err(|e| e.to_string())
    }

    #[test]
    fn decode_accepts_a_well_formed_split() {
        let tree = decode_root_split(0, 1, 2).unwrap();
        assert_eq!(tree.predict_proba(&[0.05]), 0.0);
        assert_eq!(tree.predict_proba(&[0.95]), 1.0);
    }

    #[test]
    fn decode_rejects_a_tree_without_nodes() {
        let err =
            serde_json::from_str::<DecisionTree>(r#"{"nodes":[],"num_features":1}"#).unwrap_err();
        assert!(err.to_string().contains("no nodes"), "{err}");
    }

    #[test]
    fn decode_rejects_a_left_child_that_is_not_the_next_node() {
        // left 0 at node 0 used to decode and then loop forever in predict
        let err = decode_root_split(0, 0, 2).unwrap_err();
        assert!(err.contains("left child 0"), "{err}");
        assert!(decode_root_split(0, 2, 2).is_err());
    }

    #[test]
    fn decode_rejects_a_right_child_outside_the_tree() {
        // right 99 used to decode and then index out of bounds in predict
        let err = decode_root_split(0, 1, 99).unwrap_err();
        assert!(err.contains("right child 99"), "{err}");
        for right in [0, 1] {
            assert!(decode_root_split(0, 1, right).is_err(), "right {right}");
        }
    }

    #[test]
    fn decode_rejects_a_feature_beyond_num_features() {
        // feature 5 of a one-feature tree used to decode and then index
        // the query row out of bounds in predict
        let err = decode_root_split(5, 1, 2).unwrap_err();
        assert!(err.contains("feature 5"), "{err}");
    }

    fn threshold_data() -> TrainingSet {
        // match iff feature0 > 0.5
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0, 0.3]).collect();
        let labels: Vec<bool> = (0..40).map(|i| i as f64 / 40.0 > 0.5).collect();
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn learns_simple_threshold() {
        let data = threshold_data();
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert!(tree.predict(&[0.9, 0.3]));
        assert!(!tree.predict(&[0.1, 0.3]));
        // depth 1 suffices for a single threshold
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![false, true, true, false];
        let data = TrainingSet::from_rows(&rows, &labels);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        for (r, &l) in rows.iter().zip(&labels) {
            assert_eq!(tree.predict(r), l, "row {r:?}");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_data_yields_single_leaf() {
        let data = TrainingSet::from_rows(&[vec![0.1], vec![0.9]], &[true, true]);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&[0.5]), 1.0);
    }

    #[test]
    fn empty_data_predicts_non_match() {
        let data = TrainingSet::new(3);
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.predict_proba(&[0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn max_depth_zero_is_majority_stump() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { max_depth: 0, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        let p = tree.predict_proba(&[0.0, 0.0]);
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { min_samples_leaf: 25, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        // 40 samples cannot be split into two leaves of >= 25
        assert_eq!(tree.num_nodes(), 1);
    }

    #[test]
    fn identical_features_cannot_split() {
        let data = TrainingSet::from_rows(
            &[vec![0.5], vec![0.5], vec![0.5], vec![0.5]],
            &[true, false, true, false],
        );
        let tree = DecisionTree::fit(&data, &DecisionTreeConfig::default(), &mut rng());
        assert_eq!(tree.num_nodes(), 1);
        assert!((tree.predict_proba(&[0.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_leaf_fractions() {
        // 3 matches, 1 non-match on the high side of a split
        let rows = vec![vec![0.9], vec![0.95], vec![0.85], vec![0.8], vec![0.1], vec![0.2]];
        let labels = vec![true, true, true, false, false, false];
        let data = TrainingSet::from_rows(&rows, &labels);
        let cfg = DecisionTreeConfig { max_depth: 1, ..Default::default() };
        let tree = DecisionTree::fit(&data, &cfg, &mut rng());
        let p_high = tree.predict_proba(&[0.9]);
        assert!((0.5..=1.0).contains(&p_high));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = threshold_data();
        let cfg = DecisionTreeConfig { max_features: Some(1), ..Default::default() };
        let a = DecisionTree::fit(&data, &cfg, &mut SmallRng::seed_from_u64(7));
        let b = DecisionTree::fit(&data, &cfg, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
