//! The ER problem abstraction (paper §2): similarity feature vectors with
//! labels for one data-source pair, plus benchmark bundles with
//! initial/unsolved splits.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::record::MultiSourceDataset;
use morer_ml::dataset::{FeatureMatrix, TrainingSet};
use morer_sim::profile::{ProfileSet, RecordRef};
use morer_sim::{par, ComparisonScheme};

/// Dense identifier of an ER problem within a benchmark.
pub type ProblemId = usize;

/// An ER problem `p_{k,l}`: the similarity feature vectors `w` for the
/// candidate record pairs of data sources `D_k` and `D_l`, with ground-truth
/// labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErProblem {
    /// Dense id within its benchmark.
    pub id: ProblemId,
    /// The data-source pair `(k, l)` (equal for deduplication problems).
    pub sources: (usize, usize),
    /// Candidate record pairs by global uid, aligned with `features` rows.
    pub pairs: Vec<(u32, u32)>,
    /// Similarity feature vectors `w ∈ [0,1]^t`, one row per pair.
    pub features: FeatureMatrix,
    /// Ground-truth labels (`true` = match), aligned with rows.
    pub labels: Vec<bool>,
    /// Feature names in the paper's `function(attribute)` notation.
    pub feature_names: Vec<String>,
}

impl ErProblem {
    /// Compute the feature vectors of `pairs` under `scheme` and label them
    /// with the dataset's ground truth.
    ///
    /// Fast path: every record appearing in `pairs` is profiled exactly once
    /// (normalization, tokenization, interning, numeric/date parsing — see
    /// [`morer_sim::profile`]), then the pair rows are featurized in
    /// parallel from the cached profiles. Results are bit-identical to the
    /// per-pair string path ([`Self::build_cold`]).
    pub fn build(
        id: ProblemId,
        dataset: &MultiSourceDataset,
        scheme: &ComparisonScheme,
        sources: (usize, usize),
        pairs: Vec<(u32, u32)>,
    ) -> Self {
        let mut profiles = ProfileSet::for_scheme(scheme);
        // dense uid -> profile index for just the records these pairs touch
        let mut profile_idx: Vec<u32> = vec![u32::MAX; dataset.num_records()];
        for &(a, b) in &pairs {
            for uid in [a, b] {
                let slot = &mut profile_idx[uid as usize];
                if *slot == u32::MAX {
                    *slot = profiles.add(&dataset.record(uid).values) as u32;
                }
            }
        }
        Self::featurize_profiled(id, dataset, scheme, sources, pairs, |uid| {
            profiles.record(profile_idx[uid as usize] as usize)
        })
    }

    /// [`Self::build`] reusing profiles computed once for the whole dataset
    /// (record index == uid), as produced by [`crate::profile_dataset`].
    /// This is how [`Benchmark::from_dataset`] shares one profiling pass —
    /// and one token interner — across blocking and every per-source-pair
    /// problem.
    pub fn build_with_profiles(
        id: ProblemId,
        dataset: &MultiSourceDataset,
        scheme: &ComparisonScheme,
        sources: (usize, usize),
        pairs: Vec<(u32, u32)>,
        profiles: &ProfileSet,
    ) -> Self {
        assert_eq!(profiles.len(), dataset.num_records(), "one profile per record required");
        Self::featurize_profiled(id, dataset, scheme, sources, pairs, |uid| {
            profiles.record(uid as usize)
        })
    }

    fn featurize_profiled<'p>(
        id: ProblemId,
        dataset: &MultiSourceDataset,
        scheme: &ComparisonScheme,
        sources: (usize, usize),
        pairs: Vec<(u32, u32)>,
        profile_of: impl Fn(u32) -> RecordRef<'p> + Sync,
    ) -> Self {
        let cols = scheme.num_features();
        let mut data = vec![0.0f64; pairs.len() * cols];
        par::fill_rows(&mut data, cols, |i, row| {
            let (a, b) = pairs[i];
            scheme.compare_profiled_into(profile_of(a), profile_of(b), row);
        });
        let features = FeatureMatrix::from_flat(pairs.len(), cols, data);
        let labels = pairs
            .iter()
            .map(|&(a, b)| dataset.record(a).entity == dataset.record(b).entity)
            .collect();
        Self { id, sources, pairs, features, labels, feature_names: scheme.feature_names() }
    }

    /// The original per-pair string path: re-normalizes and re-tokenizes both
    /// records of every pair. Kept as the reference implementation for the
    /// equivalence property tests.
    pub fn build_cold(
        id: ProblemId,
        dataset: &MultiSourceDataset,
        scheme: &ComparisonScheme,
        sources: (usize, usize),
        pairs: Vec<(u32, u32)>,
    ) -> Self {
        let mut features = FeatureMatrix::new(scheme.num_features());
        let mut labels = Vec::with_capacity(pairs.len());
        for &(a, b) in &pairs {
            let ra = dataset.record(a);
            let rb = dataset.record(b);
            features.push_row(&scheme.compare(&ra.values, &rb.values));
            labels.push(ra.entity == rb.entity);
        }
        Self { id, sources, pairs, features, labels, feature_names: scheme.feature_names() }
    }

    /// Check the cross-field invariants every constructor guarantees but a
    /// hand-built or deserialized problem may violate: pairs, labels and
    /// feature rows must align, and there must be one feature name per
    /// column. Untrusted inputs (service request bodies) must pass this
    /// before entering the pipeline — the pipeline's inner loops index on
    /// these invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.features.rows() != self.pairs.len() {
            return Err(format!(
                "problem {}: {} candidate pairs but {} feature rows",
                self.id,
                self.pairs.len(),
                self.features.rows()
            ));
        }
        if self.labels.len() != self.pairs.len() {
            return Err(format!(
                "problem {}: {} candidate pairs but {} labels",
                self.id,
                self.pairs.len(),
                self.labels.len()
            ));
        }
        if self.feature_names.len() != self.features.cols() {
            return Err(format!(
                "problem {}: {} feature columns but {} feature names",
                self.id,
                self.features.cols(),
                self.feature_names.len()
            ));
        }
        // similarity features are finite by construction (w ∈ [0,1]^t); a
        // smuggled inf/NaN would poison representatives and — because the
        // JSON writer encodes non-finite floats as null — make a persisted
        // repository unloadable
        if let Some(v) = self
            .features
            .iter_rows()
            .flatten()
            .find(|v| !v.is_finite())
        {
            return Err(format!(
                "problem {}: non-finite feature value {v}",
                self.id
            ));
        }
        Ok(())
    }

    /// Number of candidate pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of true matches among the pairs.
    pub fn num_matches(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of similarity features `t`.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// The values of feature `f` across all pairs — the sample `d^f_{k,l}`
    /// the distribution tests operate on.
    pub fn feature_column(&self, f: usize) -> Vec<f64> {
        self.features.column(f)
    }

    /// All rows with ground-truth labels as a training set (the fully
    /// supervised setting).
    pub fn to_training_set(&self) -> TrainingSet {
        TrainingSet { x: self.features.clone(), y: self.labels.clone() }
    }

    /// Select a subset of rows into a new problem (same id/sources).
    pub fn select(&self, indices: &[usize]) -> Self {
        Self {
            id: self.id,
            sources: self.sources,
            pairs: indices.iter().map(|&i| self.pairs[i]).collect(),
            features: self.features.select(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            feature_names: self.feature_names.clone(),
        }
    }

    /// Split the pairs into two problems (train/test) with `fraction` of rows
    /// in the first; seeded shuffle.
    pub fn split(&self, fraction: f64, seed: u64) -> (Self, Self) {
        let mut idx: Vec<usize> = (0..self.num_pairs()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let cut = ((self.num_pairs() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        (self.select(&idx[..cut]), self.select(&idx[cut..]))
    }
}

/// Profile every record of `dataset` once under `spec` (record index ==
/// uid).
///
/// The returned set shares one token interner across all sources, so
/// interned token ids are comparable — this is what lets token blocking and
/// featurization reuse a single tokenization pass per record.
pub fn profile_dataset(dataset: &MultiSourceDataset, spec: morer_sim::ProfileSpec) -> ProfileSet {
    let mut profiles = ProfileSet::new(spec);
    for uid in 0..dataset.num_records() {
        profiles.add(&dataset.record(uid as u32).values);
    }
    profiles
}

/// Aggregate statistics of a benchmark (paper Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchmarkStats {
    /// Number of ER problems.
    pub num_problems: usize,
    /// Total candidate record pairs across problems.
    pub num_pairs: usize,
    /// Total true matches across problems.
    pub num_matches: usize,
}

/// A benchmark: dataset + comparison scheme + ER problems with the
/// initial (`P_I`) / unsolved (`P_U`) split the paper evaluates on.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name ("dexter", "wdc-computer", "music").
    pub name: String,
    /// The underlying multi-source dataset.
    pub dataset: MultiSourceDataset,
    /// The comparison scheme that produced the feature vectors.
    pub scheme: ComparisonScheme,
    /// All ER problems, indexed by `ProblemId`.
    pub problems: Vec<ErProblem>,
    /// Problem ids forming the initial set `P_I` (repository construction).
    pub initial: Vec<ProblemId>,
    /// Problem ids forming the unsolved set `P_U` (evaluation).
    pub unsolved: Vec<ProblemId>,
}

impl Benchmark {
    /// Build a benchmark from a user-provided dataset: token blocking over
    /// every source pair (including same-source deduplication when a source
    /// has intra-duplicates), feature computation under `scheme`, and a
    /// seeded `ratio_init` split of the resulting ER problems into
    /// `P_I` / `P_U`.
    ///
    /// This is the entry point for running MoRER on your own CSV data (see
    /// [`crate::csvio::load_source`] and the `custom_csv_dataset` example).
    pub fn from_dataset(
        name: impl Into<String>,
        dataset: MultiSourceDataset,
        scheme: ComparisonScheme,
        blocking: &crate::blocking::TokenBlockingConfig,
        ratio_init: f64,
        seed: u64,
    ) -> Self {
        use crate::blocking::{token_blocking_profiled, token_blocking_within_profiled};
        // One profiling pass over every record covers blocking (token ids on
        // the blocking attribute) and featurization (everything the scheme
        // compares) for all source pairs.
        let spec = scheme.profile_spec().require_tokens(blocking.attribute);
        let profiles = profile_dataset(&dataset, spec);
        let n = dataset.num_sources();
        let mut problems = Vec::new();
        for k in 0..n {
            if dataset.sources[k].has_intra_duplicates() {
                let pairs = token_blocking_within_profiled(
                    &dataset.sources[k].records,
                    &profiles,
                    blocking,
                );
                if !pairs.is_empty() {
                    let id = problems.len();
                    problems.push(ErProblem::build_with_profiles(
                        id, &dataset, &scheme, (k, k), pairs, &profiles,
                    ));
                }
            }
            for l in (k + 1)..n {
                let pairs = token_blocking_profiled(
                    &dataset.sources[k].records,
                    &dataset.sources[l].records,
                    &profiles,
                    blocking,
                );
                if !pairs.is_empty() {
                    let id = problems.len();
                    problems.push(ErProblem::build_with_profiles(
                        id, &dataset, &scheme, (k, l), pairs, &profiles,
                    ));
                }
            }
        }
        let mut bench = Self {
            name: name.into(),
            dataset,
            scheme,
            problems,
            initial: Vec::new(),
            unsolved: Vec::new(),
        };
        bench.resplit_problems(ratio_init, seed);
        bench
    }

    /// Borrow the initial problems.
    pub fn initial_problems(&self) -> Vec<&ErProblem> {
        self.initial.iter().map(|&i| &self.problems[i]).collect()
    }

    /// Borrow the unsolved problems.
    pub fn unsolved_problems(&self) -> Vec<&ErProblem> {
        self.unsolved.iter().map(|&i| &self.problems[i]).collect()
    }

    /// Table-2-style statistics over all problems.
    pub fn stats(&self) -> BenchmarkStats {
        BenchmarkStats {
            num_problems: self.problems.len(),
            num_pairs: self.problems.iter().map(ErProblem::num_pairs).sum(),
            num_matches: self.problems.iter().map(ErProblem::num_matches).sum(),
        }
    }

    /// Re-split problems into `ratio_init` initial / rest unsolved (Table 3's
    /// `ratio_init` parameter), seeded. Used for the Dexter-style task split.
    pub fn resplit_problems(&mut self, ratio_init: f64, seed: u64) {
        let mut ids: Vec<ProblemId> = (0..self.problems.len()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        let cut = ((ids.len() as f64) * ratio_init.clamp(0.0, 1.0)).round() as usize;
        self.initial = ids[..cut].to_vec();
        self.unsolved = ids[cut..].to_vec();
        self.initial.sort_unstable();
        self.unsolved.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DataSource, Record, Schema};
    use morer_sim::{AttributeComparator, SimilarityFunction};

    fn tiny_benchmark() -> (MultiSourceDataset, ComparisonScheme) {
        let schema = Schema::new(vec!["title"]);
        let mk = |entity: u64, title: &str| Record {
            uid: 0,
            source: 0,
            entity,
            values: vec![Some(title.to_owned())],
        };
        let s0 = DataSource {
            id: 0,
            name: "a".into(),
            records: vec![mk(1, "canon eos camera"), mk(2, "sony alpha body")],
        };
        let s1 = DataSource {
            id: 1,
            name: "b".into(),
            records: vec![mk(1, "canon eos camera kit"), mk(3, "nikon coolpix zoom")],
        };
        let ds = MultiSourceDataset::assemble("tiny", schema, vec![s0, s1]);
        let scheme = ComparisonScheme::new()
            .with(AttributeComparator::new(0, "title", SimilarityFunction::JaccardTokens));
        (ds, scheme)
    }

    #[test]
    fn build_computes_features_and_labels() {
        let (ds, scheme) = tiny_benchmark();
        let pairs = vec![(0u32, 2u32), (0, 3), (1, 2)];
        let p = ErProblem::build(0, &ds, &scheme, (0, 1), pairs);
        assert_eq!(p.num_pairs(), 3);
        assert_eq!(p.num_matches(), 1);
        assert!(p.labels[0]);
        assert!(!p.labels[1]);
        // jaccard("canon eos camera", "canon eos camera kit") = 3/4
        assert!((p.features.get(0, 0) - 0.75).abs() < 1e-12);
        assert_eq!(p.feature_names, vec!["jaccard(title)".to_owned()]);
    }

    #[test]
    fn validate_accepts_constructed_problems_and_rejects_tampering() {
        let (ds, scheme) = tiny_benchmark();
        let p = ErProblem::build(0, &ds, &scheme, (0, 1), vec![(0, 2), (0, 3), (1, 2)]);
        assert_eq!(p.validate(), Ok(()));
        // every cross-field invariant is checked
        let mut short_labels = p.clone();
        short_labels.labels.pop();
        assert!(short_labels.validate().unwrap_err().contains("labels"));
        let mut extra_pair = p.clone();
        extra_pair.pairs.push((9, 10));
        assert!(extra_pair.validate().unwrap_err().contains("feature rows"));
        let mut bad_names = p.clone();
        bad_names.feature_names.clear();
        assert!(bad_names.validate().unwrap_err().contains("feature names"));
        let mut poisoned = p.clone();
        poisoned.features = FeatureMatrix::from_rows(&[
            vec![0.5],
            vec![f64::INFINITY],
            vec![0.25],
        ]);
        assert!(poisoned.validate().unwrap_err().contains("non-finite"));
    }

    #[test]
    fn feature_column_extracts_distribution_sample() {
        let (ds, scheme) = tiny_benchmark();
        let p = ErProblem::build(0, &ds, &scheme, (0, 1), vec![(0, 2), (1, 3)]);
        let col = p.feature_column(0);
        assert_eq!(col.len(), 2);
        assert!(col.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn split_partitions_rows() {
        let (ds, scheme) = tiny_benchmark();
        let p = ErProblem::build(0, &ds, &scheme, (0, 1), vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        let (train, test) = p.split(0.5, 7);
        assert_eq!(train.num_pairs(), 2);
        assert_eq!(test.num_pairs(), 2);
        let mut all: Vec<(u32, u32)> = train.pairs.iter().chain(&test.pairs).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
    }

    #[test]
    fn training_set_round_trip() {
        let (ds, scheme) = tiny_benchmark();
        let p = ErProblem::build(0, &ds, &scheme, (0, 1), vec![(0, 2), (1, 3)]);
        let ts = p.to_training_set();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.y, p.labels);
    }

    #[test]
    fn benchmark_from_dataset_builds_problems_per_source_pair() {
        let (ds, scheme) = tiny_benchmark();
        let bench = Benchmark::from_dataset(
            "user",
            ds,
            scheme,
            &crate::blocking::TokenBlockingConfig::default(),
            0.5,
            7,
        );
        assert!(!bench.problems.is_empty());
        assert_eq!(bench.initial.len() + bench.unsolved.len(), bench.problems.len());
        // the tiny fixture has two sources without intra-dups: one cross pair
        assert!(bench.problems.iter().all(|p| p.sources == (0, 1)));
        assert!(bench.stats().num_matches > 0);
    }

    #[test]
    fn benchmark_stats_and_resplit() {
        let (ds, scheme) = tiny_benchmark();
        let p0 = ErProblem::build(0, &ds, &scheme, (0, 1), vec![(0, 2), (0, 3)]);
        let p1 = ErProblem::build(1, &ds, &scheme, (0, 1), vec![(1, 2)]);
        let mut b = Benchmark {
            name: "tiny".into(),
            dataset: ds,
            scheme,
            problems: vec![p0, p1],
            initial: vec![0],
            unsolved: vec![1],
        };
        let stats = b.stats();
        assert_eq!(stats.num_problems, 2);
        assert_eq!(stats.num_pairs, 3);
        assert_eq!(stats.num_matches, 1);
        b.resplit_problems(0.5, 3);
        assert_eq!(b.initial.len(), 1);
        assert_eq!(b.unsolved.len(), 1);
        assert_ne!(b.initial[0], b.unsolved[0]);
    }
}
