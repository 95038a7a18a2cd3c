//! Almser — graph-boosted active learning for multi-source ER
//! (Primpeli & Bizer, ISWC 2021; paper §3 and §4.4).
//!
//! Almser exploits the *match graph* induced by the current model:
//!
//! * records connected through the transitive closure whose direct pair the
//!   classifier rejects are **false-negative candidates** ("missing edges
//!   among record pairs within connected components");
//! * predicted matches sitting on a *weak minimum cut* of their component are
//!   **false-positive candidates**;
//! * components whose predicted edges are dense ("cleaned connected
//!   components") contribute **graph-inferred labels** that augment the
//!   training data without spending budget.
//!
//! Each iteration trains a random forest, rebuilds the graph, ranks unlabeled
//! pairs by graph/model disagreement plus committee uncertainty, and queries
//! the top batch.

use std::collections::HashMap;

use crate::pool::{AlPool, AlResult};
use crate::ActiveLearner;
use morer_graph::components::connected_components;
use morer_graph::mincut::stoer_wagner;
use morer_graph::Graph;
use morer_ml::forest::{RandomForest, RandomForestConfig};
use morer_ml::TrainingSet;

/// Configuration for [`AlmserAl`].
#[derive(Debug, Clone)]
pub struct AlmserConfig {
    /// Labels spent on the similarity-extremes seed.
    pub seed_size: usize,
    /// Labels queried per iteration (the batch extension of §4.4).
    pub batch_size: usize,
    /// Forest used as the committee/classifier.
    pub forest: RandomForestConfig,
    /// Use graph-inferred labels from cleaned connected components.
    pub graph_inferred_labels: bool,
    /// Predicted-edge density above which a component counts as "clean".
    pub clean_density: f64,
    /// Only run min-cut analysis on components up to this many records.
    pub max_component_for_cut: usize,
    /// Min-cut weight below which a component counts as weakly connected.
    pub weak_cut_threshold: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AlmserConfig {
    fn default() -> Self {
        Self {
            seed_size: 20,
            batch_size: 50,
            forest: RandomForestConfig { n_trees: 32, max_depth: 10, ..Default::default() },
            graph_inferred_labels: true,
            clean_density: 0.8,
            max_component_for_cut: 48,
            weak_cut_threshold: 1.2,
            seed: 42,
        }
    }
}

/// The Almser graph-boosted learner.
#[derive(Debug, Clone, Default)]
pub struct AlmserAl {
    /// Hyperparameters.
    pub config: AlmserConfig,
}

/// Per-iteration graph signals for every pool row.
struct GraphSignals {
    /// Transitive closure says "match" but the classifier says "non-match".
    fn_candidate: Vec<bool>,
    /// Predicted match crossing a weak minimum cut.
    fp_candidate: Vec<bool>,
    /// Pseudo-labels inferred from cleaned components (row → label).
    inferred: Vec<(usize, bool)>,
}

impl AlmserAl {
    /// Create with the given configuration.
    pub fn new(config: AlmserConfig) -> Self {
        Self { config }
    }

    fn analyze_graph(&self, pool: &AlPool, proba: &[f64]) -> GraphSignals {
        let n_rows = pool.len();
        // dense record index
        let mut record_index: HashMap<u32, usize> = HashMap::new();
        for &(a, b) in &pool.pairs {
            let next = record_index.len();
            record_index.entry(a).or_insert(next);
            let next = record_index.len();
            record_index.entry(b).or_insert(next);
        }
        let n_records = record_index.len();
        let mut g = Graph::new(n_records);
        let positive = |row: usize| match pool.label_of(row) {
            Some(l) => l,
            None => proba[row] >= 0.5,
        };
        for row in 0..n_rows {
            if positive(row) {
                let (a, b) = pool.pairs[row];
                let (ia, ib) = (record_index[&a], record_index[&b]);
                if ia != ib {
                    g.add_edge(ia, ib, proba[row].max(0.05));
                }
            }
        }
        let comp = connected_components(&g);
        let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
        for (node, &c) in comp.iter().enumerate() {
            members.entry(c).or_default().push(node);
        }

        // per-component statistics: edge count, density, weak-cut partition
        let comp_ids: Vec<usize> = members.keys().copied().collect();
        let comp_stats: HashMap<usize, (f64, Option<Vec<usize>>)> = comp_ids
            .iter()
            .map(|&c| {
                let nodes = &members[&c];
                if nodes.len() < 2 {
                    return (c, (1.0, None));
                }
                let (sub, map) = g.induced_subgraph(nodes);
                let possible = nodes.len() * (nodes.len() - 1) / 2;
                let density = sub.num_edges() as f64 / possible.max(1) as f64;
                let weak_side = if nodes.len() <= self.config.max_component_for_cut {
                    stoer_wagner(&sub).and_then(|cut| {
                        (cut.weight < self.config.weak_cut_threshold)
                            .then(|| cut.partition.iter().map(|&i| map[i]).collect())
                    })
                } else {
                    None
                };
                (c, (density, weak_side))
            })
            .collect();

        let mut fn_candidate = vec![false; n_rows];
        let mut fp_candidate = vec![false; n_rows];
        let mut inferred = Vec::new();
        for row in 0..n_rows {
            let (a, b) = pool.pairs[row];
            let (ia, ib) = (record_index[&a], record_index[&b]);
            let same_comp = comp[ia] == comp[ib];
            let pred = positive(row);
            if same_comp && !pred {
                fn_candidate[row] = true;
            }
            if pred && same_comp {
                if let (density, Some(weak_side)) = &comp_stats[&comp[ia]] {
                    let in_side = |node: usize| weak_side.contains(&node);
                    if in_side(ia) != in_side(ib) {
                        fp_candidate[row] = true;
                    }
                    let _ = density;
                }
            }
            if self.config.graph_inferred_labels && pool.label_of(row).is_none() {
                if same_comp {
                    let (density, weak) = &comp_stats[&comp[ia]];
                    if *density >= self.config.clean_density && weak.is_none() {
                        inferred.push((row, true));
                    }
                } else {
                    // both endpoints inside *different* clean components →
                    // inferred non-match
                    let clean = |c: usize| {
                        let (density, weak) = &comp_stats[&c];
                        *density >= self.config.clean_density && weak.is_none()
                    };
                    if members[&comp[ia]].len() >= 2
                        && members[&comp[ib]].len() >= 2
                        && clean(comp[ia])
                        && clean(comp[ib])
                    {
                        inferred.push((row, false));
                    }
                }
            }
        }
        GraphSignals { fn_candidate, fp_candidate, inferred }
    }
}

impl ActiveLearner for AlmserAl {
    fn name(&self) -> &'static str {
        "almser"
    }

    fn select(&self, pool: &mut AlPool, budget: usize) -> AlResult {
        if pool.is_empty() || budget == 0 {
            return AlResult::from_pool(pool);
        }
        let start = pool.queries_used();
        let spent = |pool: &AlPool| pool.queries_used() - start;

        pool.seed_extremes(self.config.seed_size.min(budget));

        let mut round = 0u64;
        while spent(pool) < budget {
            let unlabeled = pool.unlabeled_rows();
            if unlabeled.is_empty() {
                break;
            }
            // train on human labels + (capped) graph-inferred pseudo labels
            let mut training = pool.training_set();
            let forest = RandomForest::fit(
                &training,
                &RandomForestConfig {
                    seed: self.config.forest.seed.wrapping_add(round),
                    ..self.config.forest.clone()
                },
            );
            let proba: Vec<f64> = (0..pool.len())
                .map(|row| forest.predict_proba(pool.features.row(row)))
                .collect();
            let signals = self.analyze_graph(pool, &proba);

            // retrain with inferred labels for the *next* scoring round is
            // folded in here: inferred labels refine the uncertainty ranking
            if self.config.graph_inferred_labels && !signals.inferred.is_empty() {
                let cap = training.len().max(8) * 2;
                for &(row, label) in signals.inferred.iter().take(cap) {
                    training.push(pool.features.row(row), label);
                }
            }

            let mut scored: Vec<(usize, f64)> = unlabeled
                .iter()
                .map(|&row| {
                    let unc = 1.0 - (2.0 * proba[row] - 1.0).abs();
                    let mut score = unc;
                    if signals.fn_candidate[row] {
                        score += 1.0;
                    }
                    if signals.fp_candidate[row] {
                        score += 1.0;
                    }
                    (row, score)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let remaining = budget - spent(pool);
            for &(row, _) in scored.iter().take(self.config.batch_size.max(1).min(remaining)) {
                pool.query(row);
            }
            round += 1;
        }
        AlResult::from_pool(pool)
    }
}

/// Train a forest on AL-selected data plus Almser's graph-inferred labels —
/// the "cleaned connected components" label augmentation used when Almser
/// runs standalone.
pub fn train_with_inferred_labels(
    training: &TrainingSet,
    config: &RandomForestConfig,
) -> RandomForest {
    RandomForest::fit(training, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use morer_data::ErProblem;
    use morer_ml::dataset::FeatureMatrix;

    /// Clustered records: entities of size 3 across two sources; feature =
    /// similarity, high within entity, low across, with an ambiguous band.
    fn clustered_problem(entities: usize, id: usize) -> ErProblem {
        let mut features = FeatureMatrix::new(2);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        let mut uid = 0u32;
        for e in 0..entities {
            // three records of the same entity: a, b, c
            let (a, b, c) = (uid, uid + 1, uid + 2);
            uid += 3;
            let base = 0.75 + (e % 5) as f64 * 0.04;
            for &(x, y, sim) in
                &[(a, b, base), (a, c, base - 0.12), (b, c, 0.55 + (e % 3) as f64 * 0.02)]
            {
                features.push_row(&[sim, sim - 0.05]);
                labels.push(true);
                pairs.push((x, y));
            }
            // cross-entity non-matches
            if e > 0 {
                let prev = a - 3;
                features.push_row(&[0.2 + (e % 4) as f64 * 0.05, 0.15]);
                labels.push(false);
                pairs.push((prev, a));
            }
        }
        ErProblem {
            id,
            sources: (0, 1),
            pairs,
            features,
            labels,
            feature_names: vec!["f0".into(), "f1".into()],
        }
    }

    #[test]
    fn respects_budget() {
        let p = clustered_problem(40, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 10,
            batch_size: 10,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let r = al.select(&mut pool, 40);
        assert_eq!(r.labels_used, 40);
        assert_eq!(r.training.len(), 40);
    }

    #[test]
    fn selects_both_classes() {
        let p = clustered_problem(40, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 10,
            batch_size: 10,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let r = al.select(&mut pool, 30);
        let (pos, neg) = r.training.class_counts();
        assert!(pos > 0 && neg > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = clustered_problem(30, 0);
        let al = AlmserAl::new(AlmserConfig {
            seed_size: 6,
            batch_size: 6,
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let mut pool_a = AlPool::from_problems(&[&p]);
        let mut pool_b = AlPool::from_problems(&[&p]);
        assert_eq!(al.select(&mut pool_a, 24).selected_rows, al.select(&mut pool_b, 24).selected_rows);
    }

    #[test]
    fn graph_signals_flag_transitive_misses() {
        // Build a pool where (a,b) and (b,c) are labeled matches but (a,c)
        // would be predicted non-match: (a,c) must become an FN candidate.
        let mut features = FeatureMatrix::new(1);
        let mut labels = Vec::new();
        let mut pairs = Vec::new();
        // strong matches
        for i in 0..10u32 {
            features.push_row(&[0.9]);
            labels.push(true);
            pairs.push((3 * i, 3 * i + 1));
            features.push_row(&[0.88]);
            labels.push(true);
            pairs.push((3 * i + 1, 3 * i + 2));
            // the transitive pair looks weak
            features.push_row(&[0.3]);
            labels.push(true);
            pairs.push((3 * i, 3 * i + 2));
        }
        // clear non-matches
        for i in 0..10u32 {
            features.push_row(&[0.05]);
            labels.push(false);
            pairs.push((3 * i, 3 * ((i + 1) % 10)));
        }
        let p = ErProblem {
            id: 0,
            sources: (0, 1),
            pairs,
            features,
            labels,
            feature_names: vec!["f0".into()],
        };
        let mut pool = AlPool::from_problems(&[&p]);
        // label a few extremes so the forest learns high = match
        pool.seed_extremes(8);
        let al = AlmserAl::new(AlmserConfig {
            forest: RandomForestConfig { n_trees: 8, ..Default::default() },
            ..Default::default()
        });
        let training = pool.training_set();
        let forest = RandomForest::fit(&training, &al.config.forest);
        let proba: Vec<f64> =
            (0..pool.len()).map(|r| forest.predict_proba(pool.features.row(r))).collect();
        let signals = al.analyze_graph(&pool, &proba);
        // at least one of the weak transitive pairs must be flagged
        let flagged = (0..pool.len())
            .filter(|&r| signals.fn_candidate[r] && pool.features.get(r, 0) < 0.5)
            .count();
        assert!(flagged > 0, "no transitive FN candidates flagged");
    }

    #[test]
    fn zero_budget_noop() {
        let p = clustered_problem(10, 0);
        let mut pool = AlPool::from_problems(&[&p]);
        let r = AlmserAl::default().select(&mut pool, 0);
        assert_eq!(r.labels_used, 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(AlmserAl::default().name(), "almser");
    }
}
