//! End-to-end integration tests: generated multi-source benchmarks through
//! the full MoRER pipeline and the compared baselines.

use morer::baselines::transer::TransEr;
use morer::baselines::zeroer::ZeroErSim;
use morer::baselines::{BaselineContext, ErBaseline};
use morer::core::prelude::*;
use morer::data::{camera, computer, music, DatasetScale};

fn ctx<'a>(bench: &'a morer::data::Benchmark, budget: usize) -> BaselineContext<'a> {
    BaselineContext {
        dataset: &bench.dataset,
        initial: bench.initial_problems(),
        unsolved: bench.unsolved_problems(),
        budget,
        train_fraction: 1.0,
        seed: 11,
    }
}

#[test]
fn computer_benchmark_full_pipeline_beats_threshold() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
    assert!(report.labels_used <= 300);
    assert!(report.num_clusters >= 1);
    let (counts, outcomes) = morer.solve_and_score(&bench.unsolved_problems());
    assert_eq!(outcomes.len(), bench.unsolved.len());
    assert!(counts.f1() > 0.75, "F1 = {}", counts.f1());
}

#[test]
fn music_benchmark_with_almser_training() {
    let bench = music(DatasetScale::Tiny, 11);
    let config = MorerConfig {
        budget: 400,
        training: TrainingMode::ActiveLearning(AlMethod::Almser),
        ..MorerConfig::default()
    };
    let (mut morer, _) = Morer::build(bench.initial_problems(), &config);
    let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
    assert!(counts.f1() > 0.7, "F1 = {}", counts.f1());
}

#[test]
fn camera_benchmark_clusters_heterogeneous_problems() {
    let bench = camera(DatasetScale::Tiny, 0.5, 11);
    let config = MorerConfig { budget: 800, ..MorerConfig::default() };
    let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
    // 23 heterogeneous sources must not collapse into a single cluster
    assert!(report.num_clusters >= 2, "clusters = {}", report.num_clusters);
    let unsolved = bench.unsolved_problems();
    let (counts, _) = morer.solve_and_score(&unsolved[..unsolved.len().min(30)]);
    assert!(counts.f1() > 0.7, "F1 = {}", counts.f1());
}

#[test]
fn coverage_strategy_spends_extra_labels_only_on_drift() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig {
        budget: 300,
        selection: SelectionStrategy::Coverage { t_cov: 0.5 },
        ..MorerConfig::default()
    };
    let (mut morer, report) = Morer::build(bench.initial_problems(), &config);
    let initial_labels = report.labels_used;
    let (_, outcomes) = morer.solve_and_score(&bench.unsolved_problems());
    let extra: usize = outcomes.iter().map(|o| o.labels_spent).sum();
    assert_eq!(morer.labels_used(), initial_labels + extra);
    // integration must keep the problem count growing
    assert_eq!(morer.num_problems(), bench.initial.len() + bench.unsolved.len());
}

#[test]
fn every_distribution_test_works_end_to_end() {
    let bench = computer(DatasetScale::Tiny, 11);
    for test in DistributionTest::all() {
        let config = MorerConfig {
            budget: 200,
            distribution_test: test,
            ..MorerConfig::default()
        };
        let (mut morer, _) = Morer::build(bench.initial_problems(), &config);
        let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
        assert!(counts.f1() > 0.6, "{}: F1 = {}", test.name(), counts.f1());
    }
}

#[test]
fn supervised_morer_beats_budget_morer_with_full_data() {
    let bench = computer(DatasetScale::Tiny, 11);
    let budgeted = MorerConfig { budget: 100, ..MorerConfig::default() };
    let supervised = MorerConfig {
        training: TrainingMode::Supervised { fraction: 1.0 },
        ..MorerConfig::default()
    };
    let (mut m1, _) = Morer::build(bench.initial_problems(), &budgeted);
    let (mut m2, _) = Morer::build(bench.initial_problems(), &supervised);
    let (c1, _) = m1.solve_and_score(&bench.unsolved_problems());
    let (c2, _) = m2.solve_and_score(&bench.unsolved_problems());
    // full supervision should never be much worse than a 100-label budget
    assert!(c2.f1() + 0.05 >= c1.f1(), "sup {} vs budget {}", c2.f1(), c1.f1());
}

#[test]
fn baselines_run_on_generated_benchmarks() {
    let bench = computer(DatasetScale::Tiny, 11);
    let context = ctx(&bench, 150);
    let transer = TransEr::default().run(&context);
    assert!(transer.counts.total() > 0);
    let zeroer = ZeroErSim::default().run(&context);
    assert_eq!(zeroer.labels_used, 0);
    assert!(zeroer.counts.total() > 0);
}

#[test]
fn repository_persistence_round_trip_preserves_predictions() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (mut original, _) = Morer::build(bench.initial_problems(), &config);
    let repo = original.repository();
    let mut buf = Vec::new();
    repo.save_json(&mut buf).unwrap();
    let mut restored = Morer::from_repository(
        ModelRepository::load_json(&buf[..]).unwrap(),
        &config,
    );
    let unsolved = bench.unsolved_problems();
    let (_, orig_outcomes) = original.solve_and_score(&unsolved);
    let (_, rest_outcomes) = restored.solve_and_score(&unsolved);
    for (a, b) in orig_outcomes.iter().zip(&rest_outcomes) {
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.entry, b.entry);
    }
}

#[test]
fn shared_searcher_serves_threads_and_batches_identically() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (mut morer, _) = Morer::build(bench.initial_problems(), &config);
    let unsolved = bench.unsolved_problems();

    // sequential writer solves are the reference
    let (_, reference) = morer.solve_and_score(&unsolved);

    // the shared read path: batch fan-out and raw scoped threads must both
    // reproduce the reference bit-for-bit
    let searcher = morer.searcher();
    let batched = searcher.solve_batch(&unsolved);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let searcher = &searcher;
            let unsolved = &unsolved;
            let reference = &reference;
            scope.spawn(move || {
                for (q, expected) in unsolved.iter().zip(reference.iter()) {
                    let got = searcher.solve(q);
                    assert_eq!(got.predictions, expected.predictions);
                    assert_eq!(got.probabilities, expected.probabilities);
                    assert_eq!(got.entry, expected.entry);
                    assert_eq!(got.similarity, expected.similarity);
                }
            });
        }
    });
    for (a, b) in reference.iter().zip(&batched) {
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.entry, b.entry);
        assert_eq!(a.similarity, b.similarity);
    }
}

#[test]
fn versioned_persistence_served_through_model_searcher() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (morer, _) = Morer::build(bench.initial_problems(), &config);
    let mut buf = Vec::new();
    morer.repository().save_json(&mut buf).unwrap();
    assert!(String::from_utf8_lossy(&buf)
        .starts_with(&format!("{{\"version\":{REPOSITORY_FORMAT_VERSION}")));
    let service =
        ModelSearcher::from_repository(ModelRepository::load_json(&buf[..]).unwrap(), &config);
    let unsolved = bench.unsolved_problems();
    let (counts, outcomes) = service.solve_and_score(&unsolved);
    assert!(counts.f1() > 0.75, "F1 = {}", counts.f1());
    assert!(outcomes.iter().all(|o| o.entry.is_some()));
}

#[test]
fn whole_pipeline_is_deterministic_across_runs() {
    let run = || {
        let bench = music(DatasetScale::Tiny, 5);
        let config = MorerConfig { budget: 300, seed: 5, ..MorerConfig::default() };
        let (mut morer, _) = Morer::build(bench.initial_problems(), &config);
        let (counts, _) = morer.solve_and_score(&bench.unsolved_problems());
        (counts, morer.labels_used())
    };
    assert_eq!(run(), run());
}

/// Pins construction output across commits, which two builds by one binary
/// cannot: the repository bytes below were recorded from the per-node-sort,
/// enum-node, sequential-committee tree code, and every faster kernel must
/// reproduce them bit for bit.
#[test]
fn construction_output_is_pinned_across_commits() {
    let bench = computer(DatasetScale::Tiny, 11);
    let config = MorerConfig { budget: 300, ..MorerConfig::default() };
    let (morer, _) = Morer::build(bench.initial_problems(), &config);
    let mut bytes = Vec::new();
    morer.repository().save_json(&mut bytes).unwrap();
    assert_eq!(bytes.len(), 59_693);
    assert_eq!(morer::core::wal::content_hash(&bytes), 0xab6c_0340_b504_63fa);
}
