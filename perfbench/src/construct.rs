//! The construction path: records → blocking → featurization →
//! `Morer::build` → every unsolved problem solved.

use std::time::Instant;

use morer_al::AlPool;
use morer_core::budget::allocate;
use morer_core::config::TrainingMode;
use morer_core::distribution::extend_problem_graph_sketched;
use morer_core::generation::{build_uniqueness_index, cluster_seed, make_learner};
use morer_core::repository::{ClusterEntry, ModelRepository};
use morer_core::selection::classify;
use morer_core::{ModelSearcher, Morer, MorerConfig, SolveOutcome};
use morer_data::blocking::{
    pair_completeness, token_blocking_profiled, token_blocking_within_profiled, TokenBlockingConfig,
};
use morer_data::generator::{camera, DatasetScale};
use morer_data::record::MultiSourceDataset;
use morer_data::{profile_dataset, Benchmark, ErProblem};
use morer_ml::model::{ModelConfig, TrainedModel};
use morer_sim::ComparisonScheme;

use crate::stats::f1;
use crate::trace::Tracer;
use crate::{canonical, timed_setup, Gates, PhaseOut};

/// Blocking of the user entry point: token blocking on `title`.
const BLOCKING: TokenBlockingConfig = TokenBlockingConfig {
    attribute: 0,
    max_block_size: 96,
};
/// Share of problems in the initial set.
const RATIO_INIT: f64 = 0.5;
/// Representative cap of generation-time training (see
/// `morer_core::generation`); Bootstrap AL under the default budget stays
/// below it, so the stored representatives are the selected training set.
const REPRESENTATIVE_CAP: usize = 2000;
/// Camera generator scale of every record set (`DatasetScale::Custom`):
/// Dexter-like records at 1% of paper scale. Active-learning cost varies
/// with the drawn data and the selection path (at 5% of paper scale, 5.0 s
/// on one draw and 13.5 s on another), so the phase reports the mean over
/// many small draws rather than one large one.
const SCALE: f64 = 0.01;

/// Size of the construct phase.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Independent record sets constructed per run.
    pub inputs: usize,
}

impl Params {
    /// The companion size other workloads run.
    pub const COMPANION: Self = Self { inputs: 6 };

    /// The construct workload: one record set per second of measuring
    /// time.
    pub fn full(seconds: f64) -> Self {
        Self {
            inputs: (seconds.round() as usize).max(1),
        }
    }
}

struct Input {
    seed: u64,
    dataset: MultiSourceDataset,
    scheme: ComparisonScheme,
}

fn generate(params: Params, seed: u64) -> Vec<Input> {
    (0..params.inputs as u64)
        .map(|i| {
            let seed = seed.wrapping_mul(1000).wrapping_add(i);
            let bench = camera(DatasetScale::Custom(SCALE), RATIO_INIT, seed);
            Input {
                seed,
                dataset: bench.dataset,
                scheme: bench.scheme,
            }
        })
        .collect()
}

/// What one untraced construction produced.
struct Built {
    bench: Benchmark,
    repository: ModelRepository,
    outcomes: Vec<SolveOutcome>,
    seconds: f64,
}

fn construct(input: &Input, config: &MorerConfig) -> Built {
    let start = Instant::now();
    let bench = Benchmark::from_dataset(
        "camera",
        input.dataset.clone(),
        input.scheme.clone(),
        &BLOCKING,
        RATIO_INIT,
        input.seed,
    );
    let (morer, _) = Morer::build(bench.initial_problems(), config);
    let outcomes = morer.searcher().solve_batch(&bench.unsolved_problems());
    let seconds = start.elapsed().as_secs_f64();
    Built {
        repository: morer.repository(),
        bench,
        outcomes,
        seconds,
    }
}

/// True matching record pairs among the pairs blocking may propose: all
/// cross-source pairs of an entity, plus same-source pairs in sources with
/// duplicates (the pairs `Benchmark::from_dataset` blocks within).
fn true_match_pairs(dataset: &MultiSourceDataset) -> usize {
    use std::collections::BTreeMap;
    let mut per_entity: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (k, source) in dataset.sources.iter().enumerate() {
        for r in &source.records {
            let counts = per_entity.entry(r.entity).or_default();
            counts.resize(dataset.num_sources(), 0);
            counts[k] += 1;
        }
    }
    let dedup: Vec<bool> = dataset
        .sources
        .iter()
        .map(|s| s.has_intra_duplicates())
        .collect();
    per_entity
        .values()
        .map(|c| {
            let mut n = 0usize;
            for k in 0..c.len() {
                if dedup[k] {
                    n += c[k] * c[k].saturating_sub(1) / 2;
                }
                for l in (k + 1)..c.len() {
                    n += c[k] * c[l];
                }
            }
            n
        })
        .sum()
}

/// `ModelConfig` with the per-cluster seed, as generation training uses it.
fn with_seed(config: &ModelConfig, seed: u64) -> ModelConfig {
    match config {
        ModelConfig::RandomForest(c) => {
            ModelConfig::RandomForest(morer_ml::forest::RandomForestConfig { seed, ..c.clone() })
        }
        ModelConfig::Mlp(c) => ModelConfig::Mlp(morer_ml::mlp::MlpConfig { seed, ..c.clone() }),
        other => other.clone(),
    }
}

/// Counts the traced replay accumulates over all inputs.
#[derive(Default)]
struct Counts {
    candidate_pairs: usize,
    /// True matches among the candidates, pooled over record sets.
    matches_found: f64,
    true_matches: usize,
    problem_pairs: usize,
    edges: usize,
    clusters: usize,
    labels: usize,
    pool_vectors: usize,
    searches: usize,
    classified_pairs: usize,
}

/// A replayed solve: entry id, similarity, predictions, probabilities.
type ReplayedSolve = (usize, f64, Vec<bool>, Vec<f64>);

/// Everything the replay produced, for comparison with the untraced run.
struct Replayed {
    bench: Benchmark,
    repository: ModelRepository,
    outcomes: Vec<Option<ReplayedSolve>>,
}

/// Replay one construction through the layer functions, each call inside a
/// span.
fn replay(
    input: &Input,
    config: &MorerConfig,
    request: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Replayed {
    let ds = &input.dataset;
    let spec = input
        .scheme
        .profile_spec()
        .require_tokens(BLOCKING.attribute);
    let profiles = tracer.span("data.profile", request, |_| profile_dataset(ds, spec));
    let mut problems = Vec::new();
    let n = ds.num_sources();
    for k in 0..n {
        for l in k..n {
            if k == l && !ds.sources[k].has_intra_duplicates() {
                continue;
            }
            let pairs = tracer.span("data.blocking", request, |_| {
                if k == l {
                    token_blocking_within_profiled(&ds.sources[k].records, &profiles, &BLOCKING)
                } else {
                    token_blocking_profiled(
                        &ds.sources[k].records,
                        &ds.sources[l].records,
                        &profiles,
                        &BLOCKING,
                    )
                }
            });
            counts.candidate_pairs += pairs.len();
            if pairs.is_empty() {
                continue;
            }
            let id = problems.len();
            let problem = tracer.span("featurize", request, |_| {
                ErProblem::build_with_profiles(id, ds, &input.scheme, (k, l), pairs, &profiles)
            });
            problems.push(problem);
        }
    }
    let mut bench = Benchmark {
        name: "camera".into(),
        dataset: ds.clone(),
        scheme: input.scheme.clone(),
        problems,
        initial: Vec::new(),
        unsolved: Vec::new(),
    };
    bench.resplit_problems(RATIO_INIT, input.seed);

    let initial = bench.initial_problems();
    let mut graph = morer_graph::Graph::new(0);
    let mut sketches = Vec::new();
    counts.edges += tracer.span("analysis", request, |_| {
        extend_problem_graph_sketched(
            &mut graph,
            &mut sketches,
            &initial,
            &config.analysis_options(),
            config.min_edge_similarity,
        )
    });
    counts.problem_pairs += initial.len() * initial.len().saturating_sub(1) / 2;

    let sizes: Vec<usize> = initial.iter().map(|p| p.num_pairs()).collect();
    let allocation = tracer.span("clustering", request, |_| {
        let raw = config.clustering.run(&graph, config.seed);
        allocate(
            raw.members(),
            &sizes,
            &graph,
            config.budget,
            config.budget_min,
        )
    });
    counts.clusters += allocation.clusters.len();
    let TrainingMode::ActiveLearning(method) = config.training else {
        unreachable!("the construct workload trains with active learning")
    };
    let uniqueness = config
        .use_uniqueness_score
        .then(|| build_uniqueness_index(&initial, &allocation.clusters));
    let mut entries = Vec::new();
    for (cid, members) in allocation.clusters.iter().enumerate() {
        let budget = allocation.budgets.get(cid).copied().unwrap_or(0);
        let seed = cluster_seed(config.seed, cid);
        let cluster: Vec<&ErProblem> = members.iter().map(|&p| initial[p]).collect();
        let result = tracer.span("training.al_select", request, |_| {
            let learner = make_learner(method, uniqueness.clone(), seed);
            let mut pool = AlPool::from_problems(&cluster);
            counts.pool_vectors += pool.len();
            learner.select(&mut pool, budget)
        });
        let model = tracer.span("training.fit", request, |_| {
            TrainedModel::train(&with_seed(&config.model, seed), &result.training)
        });
        assert!(
            result.training.len() <= REPRESENTATIVE_CAP,
            "representatives would be capped"
        );
        counts.labels += result.labels_used;
        let mut entry = ClusterEntry::new(
            cid,
            members.clone(),
            model,
            result.training,
            result.labels_used,
        );
        entry.provenance.record(members.clone(), budget);
        entries.push(entry);
    }
    let repository = ModelRepository { entries };

    let searcher = ModelSearcher::new(repository.entries.clone(), config.analysis_options());
    tracer.span("search.index", request, |_| searcher.refresh_index());
    let mut outcomes = Vec::new();
    for p in bench.unsolved_problems() {
        let Ok(hit) = tracer.span("search", request, |_| searcher.search(p)) else {
            outcomes.push(None);
            continue;
        };
        let (predictions, probabilities) = tracer.span("classify", request, |_| {
            classify(&searcher.entries()[hit.entry_index], p)
        });
        counts.searches += 1;
        counts.classified_pairs += p.num_pairs();
        outcomes.push(Some((
            hit.entry_id,
            hit.similarity,
            predictions,
            probabilities,
        )));
    }
    Replayed {
        bench,
        repository,
        outcomes,
    }
}

/// The gates of one replay: it must reproduce the untraced construction
/// exactly, input by input.
fn check_replay(replayed: &Replayed, built: &Built, gates: &mut Gates) {
    gates.check(
        replayed.bench.problems == built.bench.problems
            && replayed.bench.initial == built.bench.initial,
        "replayed blocking and featurization equal Benchmark::from_dataset",
    );
    gates.check(
        canonical(&replayed.repository) == canonical(&built.repository),
        "traced construct repository equals Morer::build's",
    );
    let same = replayed.outcomes.len() == built.outcomes.len()
        && replayed
            .outcomes
            .iter()
            .zip(&built.outcomes)
            .all(|(r, o)| match r {
                Some((entry, similarity, predictions, probabilities)) => {
                    o.entry == Some(*entry)
                        && o.similarity == *similarity
                        && &o.predictions == predictions
                        && &o.probabilities == probabilities
                }
                None => o.entry.is_none(),
            });
    gates.check(
        same,
        "traced construct solve outcomes equal ModelSearcher::solve's",
    );
}

/// The construct phase between its set-up and its report.
pub struct Construct {
    inputs: Vec<Input>,
    config: MorerConfig,
    built: Vec<Option<Built>>,
    setup_s: f64,
}

impl Construct {
    /// Generate the record sets.
    pub fn setup(params: Params, seed: u64) -> Self {
        let (inputs, setup_s) = timed_setup(|| generate(params, seed));
        let built = inputs.iter().map(|_| None).collect();
        Self {
            inputs,
            config: MorerConfig::default(),
            built,
            setup_s,
        }
    }

    /// Construct this round's share of the record sets.
    pub fn round(&mut self, round: usize, rounds: usize) {
        for i in (round..self.inputs.len()).step_by(rounds) {
            self.built[i] = Some(construct(&self.inputs[i], &self.config));
        }
    }

    /// Check, summarise and (traced runs) replay the constructions.
    pub fn finish(self, trace: bool, gates: &mut Gates) -> PhaseOut {
        let Self {
            inputs,
            config,
            built,
            setup_s,
        } = self;
        let built: Vec<Built> = built
            .into_iter()
            .map(|b| b.expect("every record set was constructed"))
            .collect();
        report(&inputs, &config, &built, setup_s, trace, gates)
    }
}

fn report(
    inputs: &[Input],
    config: &MorerConfig,
    built: &[Built],
    setup_s: f64,
    trace: bool,
    gates: &mut Gates,
) -> PhaseOut {
    let mut out = PhaseOut {
        setup_s,
        ..PhaseOut::default()
    };
    let (mut tp, mut fp, mut fn_) = (0, 0, 0);
    for b in built {
        for (p, o) in b.bench.unsolved_problems().into_iter().zip(&b.outcomes) {
            for (&pred, &actual) in o.predictions.iter().zip(&p.labels) {
                tp += usize::from(pred && actual);
                fp += usize::from(pred && !actual);
                fn_ += usize::from(!pred && actual);
            }
        }
    }
    out.attempted = built.len() as u64;
    let times: Vec<f64> = built.iter().map(|b| b.seconds).collect();
    out.e2e(
        "construct_s",
        times.iter().sum::<f64>() / times.len() as f64,
        "s",
    );
    out.e2e("f1", f1(tp, fp, fn_), "ratio");
    let stats: Vec<_> = built.iter().map(|b| b.bench.stats()).collect();
    out.note(format!(
        "construct: inputs={} records={} problems={} candidate_pairs={} matches={} entries={} \
         seconds_each={:?}",
        built.len(),
        inputs
            .iter()
            .map(|i| i.dataset.num_records())
            .sum::<usize>(),
        stats.iter().map(|s| s.num_problems).sum::<usize>(),
        stats.iter().map(|s| s.num_pairs).sum::<usize>(),
        stats.iter().map(|s| s.num_matches).sum::<usize>(),
        built
            .iter()
            .map(|b| b.repository.num_models())
            .sum::<usize>(),
        times
            .iter()
            .map(|t| (t * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
    ));

    if trace {
        let mut tracer = Tracer::default();
        let mut counts = Counts::default();
        let mut traced = Vec::new();
        for (i, (input, b)) in inputs.iter().zip(built).enumerate() {
            let start = Instant::now();
            let replayed = tracer.span("construct", i as u64, |t| {
                replay(input, config, i as u64, t, &mut counts)
            });
            traced.push(start.elapsed().as_secs_f64());
            check_replay(&replayed, b, gates);
            let ds = &input.dataset;
            let candidates: Vec<(u32, u32)> = replayed
                .bench
                .problems
                .iter()
                .flat_map(|p| p.pairs.iter().copied())
                .collect();
            let total = true_match_pairs(ds);
            counts.true_matches += total;
            counts.matches_found +=
                pair_completeness(&candidates, |a, b| ds.is_match(a, b), total) * total as f64;
        }
        let k = inputs.len() as f64;
        let by_name = tracer.self_time_by_name();
        let t = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
        out.layer("data.profile_s", t("data.profile") / k, "s");
        out.layer("data.blocking_s", t("data.blocking") / k, "s");
        out.layer(
            "data.candidate_pairs",
            counts.candidate_pairs as f64 / k,
            "count",
        );
        out.layer(
            "data.pair_completeness",
            counts.matches_found / counts.true_matches.max(1) as f64,
            "ratio",
        );
        out.layer("featurize.s", t("featurize") / k, "s");
        out.layer(
            "featurize.pairs_per_s",
            counts.candidate_pairs as f64 / t("featurize"),
            "1/s",
        );
        out.layer("analysis.s", t("analysis") / k, "s");
        out.layer(
            "analysis.problem_pairs",
            counts.problem_pairs as f64 / k,
            "count",
        );
        out.layer("analysis.edges", counts.edges as f64 / k, "count");
        out.layer("clustering.s", t("clustering") / k, "s");
        out.layer("clustering.clusters", counts.clusters as f64 / k, "count");
        out.layer("training.al_select_s", t("training.al_select") / k, "s");
        out.layer("training.fit_s", t("training.fit") / k, "s");
        out.layer("training.labels", counts.labels as f64 / k, "count");
        out.layer(
            "training.pool_vectors",
            counts.pool_vectors as f64 / k,
            "count",
        );
        out.layer(
            "construct.search_s",
            (t("search") + t("search.index")) / k,
            "s",
        );
        out.layer("construct.classify_s", t("classify") / k, "s");
        let untraced: f64 = times.iter().sum();
        let traced_total: f64 = traced.iter().sum();
        let layers: f64 = by_name
            .iter()
            .filter(|(n, _)| **n != "construct")
            .map(|(_, v)| v)
            .sum();
        out.accounting("construct", untraced, layers, traced_total, untraced);
        out.note(format!(
            "construct trace: searches={} classified_pairs={}",
            counts.searches, counts.classified_pairs
        ));
        out.tracer = Some(tracer);
    }
    out
}
