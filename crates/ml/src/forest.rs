//! Random forest: bagged CART trees with feature subsampling.
//!
//! This is the default classifier of the reproduction — the paper's AL
//! methods (Bootstrap, Almser) and its supervised variant all train forests
//! on similarity feature vectors.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::TrainingSet;
use crate::sampling::bootstrap_sample;
use crate::tree::{DecisionTree, DecisionTreeConfig};

/// Hyperparameters for [`RandomForest::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree maximum depth.
    pub max_depth: usize,
    /// Per-tree minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` = floor(sqrt(t)) (scikit-learn default).
    pub max_features: Option<usize>,
    /// Master seed; tree `i` trains with seed `splitmix(seed, i)`.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self { n_trees: 32, max_depth: 12, min_samples_leaf: 1, max_features: None, seed: 42 }
    }
}

/// A trained random forest. Probability = mean of tree leaf probabilities.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

/// SplitMix64 — derives independent per-tree seeds from a master seed.
#[inline]
pub(crate) fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RandomForest {
    /// Train `n_trees` trees one after another, each on a bootstrap resample
    /// with feature subsampling. Tree `i` draws from its own
    /// `splitmix(seed, i)` stream, so the forest does not depend on the
    /// order in which trees are trained.
    pub fn fit(data: &TrainingSet, config: &RandomForestConfig) -> Self {
        let max_features = config
            .max_features
            .unwrap_or_else(|| (data.num_features() as f64).sqrt().floor().max(1.0) as usize);
        let tree_config = DecisionTreeConfig {
            max_depth: config.max_depth,
            min_samples_split: 2,
            min_samples_leaf: config.min_samples_leaf,
            max_features: Some(max_features.min(data.num_features().max(1))),
        };
        let trees: Vec<DecisionTree> = (0..config.n_trees.max(1))
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(splitmix(config.seed, i as u64));
                let sample = bootstrap_sample(data, &mut rng);
                DecisionTree::fit(&sample, &tree_config, &mut rng)
            })
            .collect();
        Self { trees }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean predicted match probability across trees.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_proba(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Fraction of trees voting "match" — the committee vote used by
    /// Bootstrap AL's uncertainty (Eq. 10 with each tree as one classifier).
    pub fn vote_fraction(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().filter(|t| t.predict(x)).count() as f64 / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Noisy two-cluster data: match iff x0 + x1 > 1 with 10% label noise.
    fn noisy_data(n: usize, seed: u64) -> TrainingSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen();
            let x1: f64 = rng.gen();
            let mut label = x0 + x1 > 1.0;
            if rng.gen::<f64>() < 0.1 {
                label = !label;
            }
            rows.push(vec![x0, x1]);
            labels.push(label);
        }
        TrainingSet::from_rows(&rows, &labels)
    }

    #[test]
    fn forest_learns_noisy_boundary() {
        let train = noisy_data(400, 1);
        let forest = RandomForest::fit(&train, &RandomForestConfig::default());
        let test = noisy_data(200, 2);
        let correct = test
            .x
            .iter_rows()
            .zip(&test.y)
            .filter(|(r, &_l)| {
                // compare against the *true* boundary, ignoring injected noise
                forest.predict(r) == (r[0] + r[1] > 1.0)
            })
            .count();
        assert!(correct as f64 / test.len() as f64 > 0.9, "accuracy {correct}/200");
    }

    #[test]
    fn forest_deterministic_for_seed() {
        let data = noisy_data(100, 3);
        let cfg = RandomForestConfig::default();
        let a = RandomForest::fit(&data, &cfg);
        let b = RandomForest::fit(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let data = noisy_data(100, 3);
        let a = RandomForest::fit(&data, &RandomForestConfig { seed: 1, ..Default::default() });
        let b = RandomForest::fit(&data, &RandomForestConfig { seed: 2, ..Default::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn probabilities_bounded() {
        let data = noisy_data(100, 4);
        let forest = RandomForest::fit(&data, &RandomForestConfig::default());
        for i in 0..20 {
            let x = [i as f64 / 20.0, 1.0 - i as f64 / 20.0];
            let p = forest.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p));
            let v = forest.vote_fraction(&x);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn empty_training_predicts_non_match() {
        let forest = RandomForest::fit(&TrainingSet::new(2), &RandomForestConfig::default());
        assert!(!forest.predict(&[0.9, 0.9]));
    }

    #[test]
    fn single_tree_forest_works() {
        let data = noisy_data(50, 5);
        let cfg = RandomForestConfig { n_trees: 1, ..Default::default() };
        let forest = RandomForest::fit(&data, &cfg);
        assert_eq!(forest.num_trees(), 1);
    }

    #[test]
    fn splitmix_streams_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| splitmix(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }
}
