//! AnyMatchSim — the small-language-model matcher (Zhang et al., EDBT 2025)
//! under the embedding substitution of DESIGN.md §3.
//!
//! AnyMatch fine-tunes GPT-2 on serialized pairs sampled by an AutoML-style
//! selection with a small labeling budget. The stand-in: serialized-pair
//! hashed embeddings, a budget-limited labeled sample, and AutoML-lite model
//! selection — train {logistic regression, gaussian NB, shallow forest} and
//! keep whichever validates best. The paper attributes AnyMatch's weakness
//! on large candidate sets to exactly this selection step (§5.3), which the
//! stand-in inherits.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::ditto::embed_records;
use crate::{score_problem, BaselineContext, BaselineRun, ErBaseline};
use morer_ml::forest::RandomForestConfig;
use morer_ml::metrics::{f1_score, PairCounts};
use morer_ml::model::{Classifier, ModelConfig, TrainedModel};
use morer_ml::sampling::train_test_split;
use morer_ml::TrainingSet;

/// Configuration of the AnyMatch stand-in.
#[derive(Debug, Clone)]
pub struct AnyMatchConfig {
    /// Embedding dimensionality.
    pub embedding_dim: usize,
    /// Validation share of the labeled sample used for model selection.
    pub validation_fraction: f64,
}

impl Default for AnyMatchConfig {
    fn default() -> Self {
        Self { embedding_dim: 96, validation_fraction: 0.3 }
    }
}

/// The AnyMatch stand-in.
#[derive(Debug, Clone, Default)]
pub struct AnyMatchSim {
    /// Hyperparameters.
    pub config: AnyMatchConfig,
}

impl AnyMatchSim {
    /// Create with the given configuration.
    pub fn new(config: AnyMatchConfig) -> Self {
        Self { config }
    }
}

impl ErBaseline for AnyMatchSim {
    fn name(&self) -> &'static str {
        "anymatch"
    }

    fn run(&self, ctx: &BaselineContext<'_>) -> BaselineRun {
        let (embedder, embeddings) = embed_records(ctx, self.config.embedding_dim);
        let mut rng = SmallRng::seed_from_u64(ctx.seed);

        // budget-limited labeled sample across all initial problems
        let mut rows: Vec<(usize, usize)> = ctx
            .initial
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| (0..p.num_pairs()).map(move |i| (pi, i)))
            .collect();
        rows.shuffle(&mut rng);
        rows.truncate(ctx.budget);
        let mut labeled = TrainingSet::new(embedder.pair_feature_dim());
        for &(pi, i) in &rows {
            let p = ctx.initial[pi];
            let (a, b) = p.pairs[i];
            labeled.push(&embedder.pair_features(&embeddings[&a], &embeddings[&b]), p.labels[i]);
        }
        let labels_used = labeled.len();

        // AutoML-lite: pick the candidate with the best validation F1
        let (train, valid) =
            train_test_split(&labeled, 1.0 - self.config.validation_fraction, ctx.seed);
        let candidates = [
            ModelConfig::LogisticRegression(Default::default()),
            ModelConfig::GaussianNb,
            ModelConfig::RandomForest(RandomForestConfig {
                n_trees: 16,
                max_depth: 6,
                seed: ctx.seed,
                ..Default::default()
            }),
        ];
        let best = candidates
            .iter()
            .map(|cfg| {
                let model = TrainedModel::train(cfg, &train);
                let preds: Vec<bool> = valid.x.iter_rows().map(|r| model.predict(r)).collect();
                let f1 = f1_score(&preds, &valid.y);
                (model, f1)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(m, _)| m)
            .expect("non-empty candidate list");

        let mut counts = PairCounts::new();
        for p in &ctx.unsolved {
            let predictions: Vec<bool> = p
                .pairs
                .iter()
                .map(|&(a, b)| best.predict(&embedder.pair_features(&embeddings[&a], &embeddings[&b])))
                .collect();
            score_problem(&mut counts, &predictions, p);
        }
        BaselineRun { counts, labels_used }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{tiny_benchmark, tiny_context};

    #[test]
    fn anymatch_respects_budget() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let run = AnyMatchSim::default().run(&ctx);
        assert!(run.labels_used <= ctx.budget);
        assert!(run.counts.total() > 0);
    }

    #[test]
    fn bigger_budget_does_not_hurt_much() {
        let bench = tiny_benchmark();
        let mut ctx = tiny_context(&bench);
        ctx.budget = 40;
        let small = AnyMatchSim::default().run(&ctx);
        ctx.budget = 400;
        let large = AnyMatchSim::default().run(&ctx);
        assert!(large.counts.f1() + 0.15 >= small.counts.f1());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(AnyMatchSim::default().name(), "anymatch");
    }
}
