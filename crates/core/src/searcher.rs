//! The shared-read model search layer.
//!
//! [`ModelSearcher`] is the immutable half of the pipeline API split: it
//! owns the repository entries and answers `sel_base` model searches through
//! `&self`, so one searcher can serve any number of threads concurrently
//! (it is `Send + Sync`; the only interior mutability is the per-entry
//! sketch cache, which is idempotent — every rebuild under the same options
//! produces the same sketch, so races only waste a rebuild, never change a
//! result). The mutable half is [`crate::pipeline::Morer`], which wraps a
//! searcher and adds `sel_cov` integration (graph growth, reclustering,
//! retraining).
//!
//! Concurrency contract: for a fixed searcher state, [`ModelSearcher::solve`]
//! is a pure function of the query — N threads sharing one searcher produce
//! bit-identical outcomes to a sequential loop, whether the entry sketch
//! caches are cold or pre-warmed ([`ModelSearcher::warm`]). This is pinned
//! by `crates/core/tests/service_api.rs`.
//!
//! Writers that keep ingesting while readers search should hand out
//! [`crate::pipeline::Morer::snapshot`] handles: each is an
//! `Arc<ModelSearcher>` pinned to one repository epoch, swapped (never
//! mutated in place) when an ingest batch commits — so in-flight readers
//! keep a consistent view for as long as they hold the `Arc`.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::MorerConfig;
use crate::distribution::AnalysisOptions;
use crate::error::MorerError;
use crate::index::{IndexCell, IndexOverview, IndexStats, SearchIndex};
use crate::repository::{ClusterEntry, ModelRepository};
use crate::selection::{best_entry_for, classify};
use morer_data::ErProblem;
use morer_ml::metrics::PairCounts;
use morer_sim::par;

/// Stable identifier of a repository entry ([`ClusterEntry::id`]).
pub type EntryId = usize;

/// Result of a `sel_base` model search: which stored model fits the query
/// problem best, and how well.
///
/// Wire-facing: serializes as a JSON map (the `morer-serve` `/search`
/// response body).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Positional index of the entry in the searcher's entry list.
    pub entry_index: usize,
    /// The entry's stable id ([`ClusterEntry::id`]).
    pub entry_id: EntryId,
    /// `sim_p` between the query problem and the entry's representatives.
    pub similarity: f64,
}

/// Result of solving one new ER problem.
///
/// Wire-facing: serializes as a JSON map (the `morer-serve` `/solve` and
/// `/solve_batch` response bodies). The float fields round-trip
/// bit-identically through the vendored `serde_json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// Match predictions aligned with the problem's pairs.
    pub predictions: Vec<bool>,
    /// Match probabilities aligned with the problem's pairs.
    pub probabilities: Vec<f64>,
    /// Repository entry used; `None` when the repository had no searchable
    /// entry (the solve then conservatively predicts all non-matches).
    pub entry: Option<EntryId>,
    /// `sim_p` between the problem and the chosen cluster (coverage ratio
    /// for `sel_cov` reuse decisions).
    pub similarity: f64,
    /// Whether `sel_cov` retrained the entry's model.
    pub retrained: bool,
    /// Whether `sel_cov` created a brand-new model.
    pub new_model: bool,
    /// Additional oracle labels spent by this solve.
    pub labels_spent: usize,
}

/// Immutable, thread-shareable `sel_base` model search over a repository.
///
/// Entries are stored as `Arc<ClusterEntry>` so that cloning a searcher —
/// which is how [`crate::pipeline::Morer::snapshot`] publishes an epoch —
/// copies only the entry *pointers*, O(entries) pointer clones with zero
/// deep copies. The writer then mutates entries copy-on-write
/// (`Arc::make_mut`): an entry is deep-cloned only if it is actually
/// touched while a snapshot still holds it, so publication work per commit
/// is O(dirty entries), not O(repository).
#[derive(Debug, Clone)]
pub struct ModelSearcher {
    entries: Vec<Arc<ClusterEntry>>,
    options: AnalysisOptions,
    /// The sub-linear search index ([`crate::index`]). Cloning a searcher
    /// copies the current `Arc<SearchIndex>` (copy-on-write, like the entry
    /// vector) but shares the cumulative query counters, so snapshots keep
    /// a consistent frozen index while `/stats` aggregates over the whole
    /// lineage. Pure acceleration state: it never changes search results.
    index: IndexCell,
}

// The searcher is the type handed to scoped worker threads; keep the
// auto-trait guarantee explicit so a future field can't silently revoke it.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelSearcher>();
};

impl ModelSearcher {
    /// Build a searcher over `entries`, scoring with `options`.
    pub fn new(entries: Vec<ClusterEntry>, options: AnalysisOptions) -> Self {
        Self::from_shared(entries.into_iter().map(Arc::new).collect(), options)
    }

    /// Build a searcher over already-shared entries (no per-entry clone;
    /// entries still referenced elsewhere are scored through the same
    /// idempotent sketch caches).
    pub fn from_shared(entries: Vec<Arc<ClusterEntry>>, options: AnalysisOptions) -> Self {
        Self { entries, options, index: IndexCell::default() }
    }

    /// Build a search service from a persisted repository. The entry sketch
    /// caches are pre-warmed so the first query pays no one-off sketching
    /// cost (call sites that prefer lazy warming can use
    /// [`ModelSearcher::new`] with [`MorerConfig::analysis_options`]).
    pub fn from_repository(repository: ModelRepository, config: &MorerConfig) -> Self {
        let searcher = Self::new(repository.entries, config.analysis_options());
        searcher.warm();
        searcher
    }

    /// Pre-build every entry's representative sketch *and* the search index
    /// under this searcher's options, so first-query latency is flat.
    /// Idempotent; concurrent solves against a cold searcher reach the same
    /// state lazily.
    pub fn warm(&self) {
        for (i, e) in self.entries.iter().enumerate() {
            if !e.representatives.is_empty() {
                let _ = e.representative_sketch(&self.options.for_entry(i));
            }
        }
        self.refresh_index();
    }

    /// Validate-or-rebuild the search index against the current entries
    /// (O(dirty) signature work; a no-op returning the published `Arc` when
    /// nothing changed). The writer calls this on every commit so published
    /// snapshot clones always carry an index consistent with their frozen
    /// entries.
    pub fn refresh_index(&self) -> Arc<SearchIndex> {
        self.index.refresh(&self.entries, &self.options)
    }

    /// Adopt `prev`'s published index (and its cumulative query counters)
    /// as this searcher's starting point, then validate-or-rebuild against
    /// this searcher's entries. This is how republication paths (replica
    /// apply loops, reload-from-repository) stay O(dirty): unchanged
    /// entries' signatures are reused through `Arc` identity instead of
    /// being re-sketched and re-signed from scratch.
    pub fn adopt_index(&mut self, prev: &ModelSearcher) {
        self.index = prev.index.clone();
        self.refresh_index();
    }

    /// Point-in-time index sizes and query counters (the `morer-serve`
    /// `/stats` row), or `None` while no index has been built.
    pub fn index_overview(&self) -> Option<IndexOverview> {
        self.index.overview()
    }

    /// Live per-query index observability: shortlist sizes and the
    /// bound-scan vs exact-score timing split. Counters accumulate across
    /// [`Self::refresh_index`] swaps (the stats block outlives rebuilds).
    pub fn index_stats(&self) -> &IndexStats {
        self.index.stats()
    }

    /// The repository entries, in search order. Each is behind an `Arc`
    /// (see the type-level docs); `&entry_slice[i]` derefs to
    /// `&ClusterEntry` wherever one is expected.
    pub fn entries(&self) -> &[Arc<ClusterEntry>] {
        &self.entries
    }

    /// Mutable entry access for the `sel_cov` writer wrapper. In-place
    /// mutations must go through `Arc::make_mut`, which deep-clones an
    /// entry only when a published snapshot still shares it (copy-on-write).
    pub(crate) fn entries_mut(&mut self) -> &mut Vec<Arc<ClusterEntry>> {
        &mut self.entries
    }

    /// The analysis options every search scores with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Number of models currently stored.
    pub fn num_models(&self) -> usize {
        self.entries.len()
    }

    /// The feature-space width `t` this repository scores in, or `None`
    /// when no entry has representatives. All problems of one repository
    /// share one comparison scheme (§4.2); queries of a different width
    /// cannot be scored and should be rejected before reaching
    /// [`ModelSearcher::search`].
    pub fn num_features(&self) -> Option<usize> {
        self.entries
            .iter()
            .find(|e| !e.representatives.is_empty())
            .map(|e| e.representative_features().cols())
    }

    /// Snapshot the repository for persistence (deep copy — the persistence
    /// artifact owns plain entries, its versioned JSON format is unchanged
    /// by the `Arc` sharing).
    pub fn repository(&self) -> ModelRepository {
        ModelRepository { entries: self.entries.iter().map(|e| (**e).clone()).collect() }
    }

    /// Find the best-fitting stored model for `problem` (paper step 4,
    /// `sel_base`): the query is sketched once, the search index prunes
    /// entries whose similarity upper bound provably loses, and only the
    /// surviving shortlist is scored against the cached representative
    /// sketches — bit-identical to scoring every entry
    /// ([`crate::selection::best_entry_for`], which remains the fallback
    /// for C2ST scoring and drifted index state).
    ///
    /// A cold searcher (no [`ModelSearcher::warm`], no writer commit yet)
    /// builds the index on first search; rebuilds are idempotent, so
    /// concurrent first searches stay race-free.
    ///
    /// # Errors
    /// [`MorerError::EmptyRepository`] when no entry has representative
    /// vectors to compare against.
    pub fn search(&self, problem: &ErProblem) -> Result<SearchHit, MorerError> {
        let index = match self.index.get() {
            Some(index) => index,
            None => self.refresh_index(),
        };
        index
            .search(problem, &self.entries, &self.options, self.index.stats())
            .map(|(entry_index, similarity)| SearchHit {
                entry_index,
                entry_id: self.entries[entry_index].id,
                similarity,
            })
            .ok_or(MorerError::EmptyRepository)
    }

    /// The exhaustive `sel_base` reference path: score every searchable
    /// entry, no index involved. [`ModelSearcher::search`] must agree with
    /// this bit-for-bit on every query (recall-1; property-tested) — it
    /// exists as a public reference for tests and benches.
    pub fn search_exhaustive(&self, problem: &ErProblem) -> Result<SearchHit, MorerError> {
        best_entry_for(problem, &self.entries, &self.options)
            .map(|(entry_index, similarity)| SearchHit {
                entry_index,
                entry_id: self.entries[entry_index].id,
                similarity,
            })
            .ok_or(MorerError::EmptyRepository)
    }

    /// Search for the best model and classify every pair of `problem` with
    /// it (paper steps 4-5 under `sel_base`). An empty repository is not an
    /// error here: the outcome carries `entry: None` and conservative
    /// all-non-match predictions, mirroring a matcher with no evidence.
    pub fn solve(&self, problem: &ErProblem) -> SolveOutcome {
        match self.search(problem) {
            Ok(hit) => {
                let (predictions, probabilities) =
                    classify(&self.entries[hit.entry_index], problem);
                SolveOutcome {
                    predictions,
                    probabilities,
                    entry: Some(hit.entry_id),
                    similarity: hit.similarity,
                    retrained: false,
                    new_model: false,
                    labels_spent: 0,
                }
            }
            Err(_) => SolveOutcome {
                predictions: vec![false; problem.num_pairs()],
                probabilities: vec![0.0; problem.num_pairs()],
                entry: None,
                similarity: 0.0,
                retrained: false,
                new_model: false,
                labels_spent: 0,
            },
        }
    }

    /// Solve a batch of problems, fanning the queries out over scoped worker
    /// threads ([`morer_sim::par`]) that share this searcher. Outcomes are
    /// returned in input order and are bit-identical to a sequential
    /// [`ModelSearcher::solve`] loop.
    pub fn solve_batch(&self, problems: &[&ErProblem]) -> Vec<SolveOutcome> {
        par::map_indexed(problems.len(), 1, |i| self.solve(problems[i]))
    }

    /// [`ModelSearcher::solve_batch`] plus micro-averaged confusion counts
    /// over ground truth (the paper's evaluation protocol, §5.2).
    pub fn solve_and_score(&self, problems: &[&ErProblem]) -> (PairCounts, Vec<SolveOutcome>) {
        let outcomes = self.solve_batch(problems);
        let mut counts = PairCounts::new();
        for (p, outcome) in problems.iter().zip(&outcomes) {
            for (&pred, &actual) in outcome.predictions.iter().zip(&p.labels) {
                counts.record(pred, actual);
            }
        }
        (counts, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::DistributionTest;
    use crate::testutil::{entry_with_mu, problem_with_mu};
    use morer_ml::TrainingSet;

    fn opts() -> AnalysisOptions {
        AnalysisOptions::new(DistributionTest::KolmogorovSmirnov, 1000, 7)
    }

    #[test]
    fn search_routes_to_the_matching_distribution() {
        let s = ModelSearcher::new(vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)], opts());
        let hit = s.search(&problem_with_mu(10, 0.9)).unwrap();
        assert_eq!(hit.entry_index, 0);
        assert_eq!(hit.entry_id, 0);
        assert!(hit.similarity > 0.9);
        let hit_low = s.search(&problem_with_mu(11, 0.55)).unwrap();
        assert_eq!(hit_low.entry_index, 1);
    }

    #[test]
    fn empty_repository_search_is_a_typed_error() {
        let s = ModelSearcher::new(Vec::new(), opts());
        let err = s.search(&problem_with_mu(0, 0.8)).unwrap_err();
        assert!(matches!(err, MorerError::EmptyRepository));
        // solve degrades to the conservative outcome instead of erroring
        let outcome = s.solve(&problem_with_mu(0, 0.8));
        assert_eq!(outcome.entry, None);
        assert!(outcome.predictions.iter().all(|&x| !x));
    }

    #[test]
    fn entries_without_representatives_are_unsearchable() {
        let mut empty_entry = entry_with_mu(0, 0.9);
        empty_entry.representatives = TrainingSet::new(2);
        let s = ModelSearcher::new(vec![empty_entry], opts());
        assert!(matches!(
            s.search(&problem_with_mu(1, 0.9)),
            Err(MorerError::EmptyRepository)
        ));
    }

    #[test]
    fn warm_fills_every_searchable_cache() {
        let s = ModelSearcher::new(vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)], opts());
        assert!(s.entries().iter().all(|e| !e.has_cached_sketch()));
        s.warm();
        assert!(s.entries().iter().all(|e| e.has_cached_sketch()));
        // warming twice is a no-op, and warmed answers match cold answers
        let cold = ModelSearcher::new(vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)], opts());
        let q = problem_with_mu(12, 0.9);
        assert_eq!(s.search(&q).unwrap(), cold.search(&q).unwrap());
    }

    #[test]
    fn solve_batch_matches_sequential_solves() {
        let s = ModelSearcher::new(vec![entry_with_mu(0, 0.9), entry_with_mu(1, 0.55)], opts());
        let problems: Vec<ErProblem> =
            (0..6).map(|i| problem_with_mu(i, if i % 2 == 0 { 0.88 } else { 0.56 })).collect();
        let refs: Vec<&ErProblem> = problems.iter().collect();
        let batched = s.solve_batch(&refs);
        for (q, b) in refs.iter().zip(&batched) {
            let sequential = s.solve(q);
            assert_eq!(sequential.predictions, b.predictions);
            assert_eq!(sequential.probabilities, b.probabilities);
            assert_eq!(sequential.entry, b.entry);
            assert_eq!(sequential.similarity, b.similarity);
        }
        let (counts, outcomes) = s.solve_and_score(&refs);
        assert_eq!(outcomes.len(), refs.len());
        assert_eq!(counts.total(), refs.iter().map(|p| p.num_pairs()).sum::<usize>() as u64);
    }

    #[test]
    fn indexed_search_matches_the_exhaustive_reference() {
        let entries: Vec<_> = (0..16).map(|i| entry_with_mu(i, 0.2 + 0.04 * i as f64)).collect();
        let s = ModelSearcher::new(entries, opts());
        s.warm();
        for q in 0..10 {
            let p = problem_with_mu(q, 0.25 + 0.05 * q as f64);
            assert_eq!(s.search(&p).unwrap(), s.search_exhaustive(&p).unwrap());
        }
        let overview = s.index_overview().unwrap();
        assert_eq!(overview.queries, 10);
        assert_eq!(overview.indexed_entries, 16);
        assert!(overview.exact_scored <= overview.considered);
    }

    #[test]
    fn adopt_index_reuses_the_previous_lineage() {
        let entries: Vec<_> = (0..8).map(|i| entry_with_mu(i, 0.2 + 0.08 * i as f64)).collect();
        let prev = ModelSearcher::new(entries, opts());
        prev.warm();
        let _ = prev.search(&problem_with_mu(0, 0.4)).unwrap();
        // a republication over the same shared entries adopts the index
        // without rebuilding (same Arc) and keeps the lineage counters
        let mut next = ModelSearcher::from_shared(prev.entries().to_vec(), *prev.options());
        next.adopt_index(&prev);
        assert!(Arc::ptr_eq(&prev.refresh_index(), &next.refresh_index()));
        assert_eq!(next.index_overview().unwrap().queries, 1);
    }

    #[test]
    fn repository_snapshot_round_trips_through_the_searcher() {
        let s = ModelSearcher::new(vec![entry_with_mu(0, 0.9)], opts());
        let repo = s.repository();
        assert_eq!(repo.num_models(), 1);
        let restored = ModelSearcher::from_repository(repo, &MorerConfig::default());
        // from_repository pre-warms the caches
        assert!(restored.entries().iter().all(|e| e.has_cached_sketch()));
        assert_eq!(restored.num_models(), 1);
    }
}
