//! UnicornSim — the unified mixture-of-experts matcher (Fan et al., SIGMOD
//! 2024) under the embedding substitution of DESIGN.md §3.
//!
//! Unicorn trains one model for many matching tasks with a unified encoder
//! and a mixture-of-experts head. The stand-in keeps the MoE shape: `E`
//! expert logistic regressions trained on diverse bootstrap shards of the
//! unified pair-feature data, combined by a stacked gating model trained on
//! the experts' outputs (a practical approximation of Unicorn's learned
//! gating; the paper's default of six experts is kept).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::ditto::{embed_records, oversample_minority, pair_training_set};
use crate::{score_problem, BaselineContext, BaselineRun, ErBaseline};
use morer_ml::linear::{LogisticRegression, LogisticRegressionConfig};
use morer_ml::metrics::PairCounts;
use morer_ml::sampling::bootstrap_sample;
use morer_ml::TrainingSet;

/// Configuration of the Unicorn stand-in.
#[derive(Debug, Clone)]
pub struct UnicornConfig {
    /// Number of experts (Unicorn's default: 6).
    pub num_experts: usize,
    /// Embedding dimensionality.
    pub embedding_dim: usize,
    /// Per-expert training.
    pub expert: LogisticRegressionConfig,
    /// Gating model training.
    pub gate: LogisticRegressionConfig,
}

impl Default for UnicornConfig {
    fn default() -> Self {
        Self {
            num_experts: 6,
            embedding_dim: 128,
            expert: LogisticRegressionConfig { epochs: 120, ..Default::default() },
            gate: LogisticRegressionConfig { epochs: 150, ..Default::default() },
        }
    }
}

/// The Unicorn stand-in.
#[derive(Debug, Clone, Default)]
pub struct UnicornSim {
    /// Hyperparameters.
    pub config: UnicornConfig,
}

impl UnicornSim {
    /// Create with the given configuration.
    pub fn new(config: UnicornConfig) -> Self {
        Self { config }
    }
}

impl ErBaseline for UnicornSim {
    fn name(&self) -> &'static str {
        "unicorn"
    }

    fn run(&self, ctx: &BaselineContext<'_>) -> BaselineRun {
        let (embedder, embeddings) = embed_records(ctx, self.config.embedding_dim);
        let raw_training = pair_training_set(ctx, &embedder, &embeddings);
        let labels_used = raw_training.len();
        let training = oversample_minority(&raw_training, 2, ctx.seed);

        // experts on diverse bootstrap shards
        let experts: Vec<LogisticRegression> = (0..self.config.num_experts.max(1))
            .map(|e| {
                let mut rng = SmallRng::seed_from_u64(ctx.seed ^ (e as u64) << 8);
                let shard = bootstrap_sample(&training, &mut rng);
                LogisticRegression::fit(&shard, &self.config.expert)
            })
            .collect();

        // stacked gate: logistic regression over expert probabilities
        let mut gate_data = TrainingSet::new(experts.len());
        for (row, &label) in training.x.iter_rows().zip(&training.y) {
            let meta: Vec<f64> = experts.iter().map(|e| e.predict_proba(row)).collect();
            gate_data.push(&meta, label);
        }
        let gate = LogisticRegression::fit(&gate_data, &self.config.gate);

        let mut counts = PairCounts::new();
        for p in &ctx.unsolved {
            let predictions: Vec<bool> = p
                .pairs
                .iter()
                .map(|&(a, b)| {
                    let features = embedder.pair_features(&embeddings[&a], &embeddings[&b]);
                    let meta: Vec<f64> =
                        experts.iter().map(|e| e.predict_proba(&features)).collect();
                    gate.predict(&meta)
                })
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
    fn unicorn_runs_with_six_experts() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let run = UnicornSim::default().run(&ctx);
        assert!(run.counts.total() > 0);
        assert!(run.labels_used > 0);
        // mixture over hashed embeddings: meaningful but below supervised RF
        assert!(run.counts.f1() > 0.3, "F1 = {}", run.counts.f1());
    }

    #[test]
    fn single_expert_degenerates_gracefully() {
        let bench = tiny_benchmark();
        let ctx = tiny_context(&bench);
        let run = UnicornSim::new(UnicornConfig { num_experts: 1, ..Default::default() }).run(&ctx);
        assert!(run.counts.total() > 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(UnicornSim::default().name(), "unicorn");
    }
}
