//! One-hidden-layer multi-layer perceptron (binary classifier).
//!
//! The backbone of the neural baselines in `morer-baselines` (the Ditto /
//! Unicorn stand-ins train this on record-pair embeddings). Deliberately
//! minimal: ReLU hidden layer, sigmoid output, mini-batch SGD with momentum,
//! binary cross-entropy loss.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::TrainingSet;

/// Hyperparameters for [`Mlp::fit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of epochs over the shuffled training data.
    pub epochs: usize,
    /// SGD step size.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Momentum coefficient.
    pub momentum: f64,
    /// L2 penalty.
    pub l2: f64,
    /// RNG seed (weight init + shuffling).
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            epochs: 60,
            learning_rate: 0.1,
            batch_size: 32,
            momentum: 0.9,
            l2: 1e-5,
            seed: 42,
        }
    }
}

/// A trained one-hidden-layer MLP.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Mlp {
    input: usize,
    hidden: usize,
    w1: Vec<f64>, // hidden x input, row-major
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Mlp {
    /// Train with mini-batch SGD + momentum.
    pub fn fit(data: &TrainingSet, config: &MlpConfig) -> Self {
        let input = data.num_features();
        let hidden = config.hidden.max(1);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let scale1 = (6.0 / (input + hidden) as f64).sqrt();
        let scale2 = (6.0 / (hidden + 1) as f64).sqrt();
        let mut model = Self {
            input,
            hidden,
            w1: (0..hidden * input).map(|_| rng.gen_range(-scale1..=scale1)).collect(),
            b1: vec![0.0; hidden],
            w2: (0..hidden).map(|_| rng.gen_range(-scale2..=scale2)).collect(),
            b2: 0.0,
        };
        let n = data.len();
        if n == 0 {
            model.b2 = -2.0; // predict non-match
            return model;
        }
        // momentum buffers
        let mut vw1 = vec![0.0f64; hidden * input];
        let mut vb1 = vec![0.0f64; hidden];
        let mut vw2 = vec![0.0f64; hidden];
        let mut vb2 = 0.0f64;
        // gradient accumulators
        let mut gw1 = vec![0.0f64; hidden * input];
        let mut gb1 = vec![0.0f64; hidden];
        let mut gw2 = vec![0.0f64; hidden];
        let mut order: Vec<usize> = (0..n).collect();
        let mut h = vec![0.0f64; hidden];

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                let mut gb2 = 0.0f64;
                for &i in batch {
                    let x = data.x.row(i);
                    let y = f64::from(data.y[i] as u8);
                    // forward
                    for (j, hj) in h.iter_mut().enumerate() {
                        let z: f64 = model.b1[j]
                            + x.iter()
                                .zip(&model.w1[j * input..(j + 1) * input])
                                .map(|(xi, w)| xi * w)
                                .sum::<f64>();
                        *hj = z.max(0.0); // ReLU
                    }
                    let out = sigmoid(
                        model.b2 + h.iter().zip(&model.w2).map(|(hi, w)| hi * w).sum::<f64>(),
                    );
                    // backward (BCE + sigmoid: delta = p − y)
                    let delta = out - y;
                    for j in 0..hidden {
                        gw2[j] += delta * h[j];
                        if h[j] > 0.0 {
                            let dh = delta * model.w2[j];
                            gb1[j] += dh;
                            for (g, &xi) in
                                gw1[j * input..(j + 1) * input].iter_mut().zip(x)
                            {
                                *g += dh * xi;
                            }
                        }
                    }
                    gb2 += delta;
                }
                let scale = config.learning_rate / batch.len() as f64;
                let step = |v: &mut f64, g: f64, w: &mut f64| {
                    *v = config.momentum * *v - scale * (g + config.l2 * *w);
                    *w += *v;
                };
                for idx in 0..hidden * input {
                    step(&mut vw1[idx], gw1[idx], &mut model.w1[idx]);
                }
                for j in 0..hidden {
                    step(&mut vb1[j], gb1[j], &mut model.b1[j]);
                    step(&mut vw2[j], gw2[j], &mut model.w2[j]);
                }
                step(&mut vb2, gb2, &mut model.b2);
            }
        }
        model
    }

    /// Predicted probability that `x` is a match.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let mut z_out = self.b2;
        for j in 0..self.hidden {
            let z: f64 = self.b1[j]
                + x.iter()
                    .zip(&self.w1[j * self.input..(j + 1) * self.input])
                    .map(|(xi, w)| xi * w)
                    .sum::<f64>();
            z_out += z.max(0.0) * self.w2[j];
        }
        sigmoid(z_out)
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_xor() {
        // XOR — not linearly separable; exercises the hidden layer
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..25 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                labels.push((a > 0.5) != (b > 0.5));
            }
        }
        let data = TrainingSet::from_rows(&rows, &labels);
        let cfg = MlpConfig { epochs: 300, hidden: 8, ..Default::default() };
        let model = Mlp::fit(&data, &cfg);
        for (r, &l) in rows.iter().zip(&labels) {
            assert_eq!(model.predict(r), l, "row {r:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = TrainingSet::from_rows(
            &[vec![0.1, 0.2], vec![0.9, 0.8], vec![0.2, 0.1], vec![0.8, 0.9]],
            &[false, true, false, true],
        );
        let cfg = MlpConfig::default();
        assert_eq!(Mlp::fit(&data, &cfg), Mlp::fit(&data, &cfg));
    }

    #[test]
    fn empty_training_predicts_non_match() {
        let model = Mlp::fit(&TrainingSet::new(4), &MlpConfig::default());
        assert!(!model.predict(&[0.9, 0.9, 0.9, 0.9]));
    }

    #[test]
    fn probabilities_bounded() {
        let data = TrainingSet::from_rows(
            &[vec![0.0], vec![1.0], vec![0.1], vec![0.9]],
            &[false, true, false, true],
        );
        let model = Mlp::fit(&data, &MlpConfig::default());
        for i in 0..=10 {
            let p = model.predict_proba(&[i as f64 / 10.0]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn linear_boundary_still_learned() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let labels: Vec<bool> = (0..60).map(|i| i >= 30).collect();
        let data = TrainingSet::from_rows(&rows, &labels);
        let model = Mlp::fit(&data, &MlpConfig { epochs: 150, ..Default::default() });
        let correct = rows
            .iter()
            .zip(&labels)
            .filter(|(r, &l)| model.predict(r) == l)
            .count();
        assert!(correct >= 55, "correct = {correct}/60");
    }
}
