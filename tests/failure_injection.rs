//! Failure-injection tests: degenerate, adversarial and malformed inputs
//! must produce defined behaviour (graceful results or clear panics), never
//! NaN poisoning or silent corruption.

use morer::core::prelude::*;
use morer::data::ErProblem;
use morer::ml::dataset::FeatureMatrix;
use morer::ml::model::Classifier;

fn problem_from(rows: Vec<Vec<f64>>, labels: Vec<bool>, id: usize) -> ErProblem {
    let mut features = FeatureMatrix::new(rows.first().map_or(0, Vec::len));
    let mut pairs = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        features.push_row(r);
        pairs.push(((id * 1000 + i) as u32, (id * 1000 + i + 500_000) as u32));
    }
    ErProblem {
        id,
        sources: (id, id + 1),
        pairs,
        features,
        labels,
        feature_names: (0..rows.first().map_or(0, Vec::len)).map(|i| format!("f{i}")).collect(),
    }
}

fn healthy_problem(id: usize) -> ErProblem {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let v = if i % 4 == 0 { 0.85 } else { 0.15 } + (i % 9) as f64 / 100.0;
            vec![v.min(1.0), (v * 0.9).min(1.0)]
        })
        .collect();
    let labels: Vec<bool> = (0..80).map(|i| i % 4 == 0).collect();
    problem_from(rows, labels, id)
}

#[test]
fn build_with_single_problem_still_works() {
    let p = healthy_problem(0);
    let config = MorerConfig { budget: 40, budget_min: 10, ..MorerConfig::default() };
    let (mut morer, report) = Morer::build(vec![&p], &config);
    assert_eq!(report.num_clusters, 1);
    let outcome = morer.solve(&healthy_problem(1));
    assert_eq!(outcome.predictions.len(), 80);
}

#[test]
fn build_with_zero_budget_yields_default_negative_models() {
    let p = healthy_problem(0);
    let config = MorerConfig { budget: 0, budget_min: 0, ..MorerConfig::default() };
    let (mut morer, report) = Morer::build(vec![&p], &config);
    assert_eq!(report.labels_used, 0);
    // no training data -> conservative all-non-match predictions
    let outcome = morer.solve(&healthy_problem(1));
    assert!(outcome.predictions.iter().all(|&x| !x));
}

#[test]
fn constant_feature_problems_do_not_poison_analysis() {
    // every feature identical in every row: stddev weights are all zero
    let rows = vec![vec![0.5, 0.5]; 60];
    let labels: Vec<bool> = (0..60).map(|i| i % 2 == 0).collect();
    let constant = problem_from(rows, labels, 0);
    let other = healthy_problem(1);
    let config = MorerConfig { budget: 60, budget_min: 10, ..MorerConfig::default() };
    let (mut morer, _) = Morer::build(vec![&constant, &other], &config);
    let outcome = morer.solve(&healthy_problem(2));
    assert!(outcome.probabilities.iter().all(|p| p.is_finite()));
    assert!(outcome.similarity.is_finite());
}

#[test]
fn single_class_problem_trains_finite_model() {
    // all matches — AL will only ever reveal positives
    let rows = vec![vec![0.9, 0.9]; 40];
    let labels = vec![true; 40];
    let all_pos = problem_from(rows, labels, 0);
    let config = MorerConfig { budget: 20, budget_min: 5, ..MorerConfig::default() };
    let (morer, _) = Morer::build(vec![&all_pos], &config);
    let repo = morer.repository();
    let p = repo.entries[0].model.predict_proba(&[0.9, 0.9]);
    assert!(p.is_finite());
    assert!(repo.entries[0].model.predict(&[0.9, 0.9]));
}

#[test]
fn tiny_two_pair_problems_survive_the_pipeline() {
    let tiny = problem_from(vec![vec![0.9, 0.8], vec![0.1, 0.2]], vec![true, false], 0);
    let config = MorerConfig { budget: 2, budget_min: 1, ..MorerConfig::default() };
    let (mut morer, report) = Morer::build(vec![&tiny], &config);
    assert!(report.labels_used <= 2);
    let outcome = morer.solve(&tiny.clone());
    assert_eq!(outcome.predictions.len(), 2);
}

#[test]
#[should_panic(expected = "feature spaces must agree")]
fn mismatched_feature_spaces_panic_loudly() {
    let two_features = healthy_problem(0);
    let three_features = problem_from(
        (0..30).map(|i| vec![0.5, 0.5, i as f64 / 30.0]).collect(),
        (0..30).map(|i| i % 2 == 0).collect(),
        1,
    );
    let config = MorerConfig { budget: 20, ..MorerConfig::default() };
    let _ = Morer::build(vec![&two_features, &three_features], &config);
}

#[test]
fn corrupted_repository_json_is_rejected() {
    for garbage in [&b""[..], &b"{}"[..], &b"{\"entries\": 3}"[..], &b"[1,2,3"[..]] {
        let err = ModelRepository::load_json(garbage);
        assert!(
            matches!(err, Err(MorerError::Parse(_))),
            "accepted {:?} as {err:?}",
            String::from_utf8_lossy(garbage)
        );
    }
}

#[test]
fn malformed_trees_in_a_repository_are_a_typed_error() {
    let p = healthy_problem(0);
    let config = MorerConfig { budget: 40, budget_min: 10, ..MorerConfig::default() };
    let (morer, _) = Morer::build(vec![&p], &config);
    let mut bytes = Vec::new();
    morer.repository().save_json(&mut bytes).unwrap();
    let json = String::from_utf8(bytes).unwrap();
    assert!(ModelRepository::load_json(json.as_bytes()).is_ok());
    // tamper with the first tree's root split: its left child is node 1,
    // and it tests feature 0 or 1 of the two-feature problem
    let root = json.find(r#"{"Split":{"feature":"#).expect("a trained forest has a split");
    let (head, tail) = json.split_at(root);
    for (from, to, complaint) in [
        (r#""left":1,"#, r#""left":0,"#, "left child 0"),
        (r#""right":"#, r#""right":99999"#, "right child 99999"),
        (r#""feature":"#, r#""feature":7"#, "splits on feature 7"),
    ] {
        let tampered = format!("{head}{}", tail.replacen(from, to, 1));
        match ModelRepository::load_json(tampered.as_bytes()) {
            Err(MorerError::Parse(message)) => assert!(message.contains(complaint), "{message}"),
            other => panic!("{to}: expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn future_repository_version_fails_typed_not_parse() {
    let future = format!("{{\"version\":{},\"entries\":[]}}", REPOSITORY_FORMAT_VERSION + 1);
    match ModelRepository::load_json(future.as_bytes()) {
        Err(MorerError::UnsupportedVersion { found }) => {
            assert_eq!(found, REPOSITORY_FORMAT_VERSION + 1)
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // the error converts into io::Error for `?`-style callers
    let io: std::io::Error =
        ModelRepository::load_json(future.as_bytes()).unwrap_err().into();
    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn searching_an_empty_repository_is_a_typed_error() {
    let searcher =
        ModelSearcher::from_repository(ModelRepository::default(), &MorerConfig::default());
    let err = searcher.search(&healthy_problem(0)).unwrap_err();
    assert!(matches!(err, MorerError::EmptyRepository));
    // solve degrades gracefully instead: no entry, all-non-match
    let outcome = searcher.solve(&healthy_problem(0));
    assert_eq!(outcome.entry, None);
    assert!(outcome.predictions.iter().all(|&x| !x));
}

#[test]
fn coverage_mode_from_empty_repository_bootstraps_itself() {
    let config = MorerConfig {
        budget: 60,
        budget_min: 10,
        selection: SelectionStrategy::Coverage { t_cov: 0.25 },
        ..MorerConfig::default()
    };
    let mut morer = Morer::from_repository(ModelRepository::default(), &config);
    // the very first problem has no repository to match: a fresh model must
    // be trained for its singleton cluster
    let outcome = morer.solve(&healthy_problem(0));
    assert!(outcome.new_model);
    assert!(outcome.labels_spent > 0);
    assert_eq!(morer.num_models(), 1);
    // the second, similar problem reuses it
    let outcome2 = morer.solve(&healthy_problem(1));
    assert!(!outcome2.new_model);
}

#[test]
fn extreme_budget_larger_than_all_data_is_capped() {
    let p0 = healthy_problem(0);
    let p1 = healthy_problem(1);
    let config = MorerConfig { budget: 1_000_000, ..MorerConfig::default() };
    let (morer, report) = Morer::build(vec![&p0, &p1], &config);
    assert!(report.labels_used <= 160, "spent {}", report.labels_used);
    assert!(morer.labels_used() <= 160);
}

#[test]
fn adversarial_label_noise_degrades_gracefully() {
    // 30% flipped labels: quality drops but stays finite and above chance
    let mut noisy = healthy_problem(0);
    for i in 0..noisy.labels.len() {
        if i % 3 == 0 {
            noisy.labels[i] = !noisy.labels[i];
        }
    }
    let clean = healthy_problem(1);
    let config = MorerConfig { budget: 80, budget_min: 20, ..MorerConfig::default() };
    let (mut morer, _) = Morer::build(vec![&noisy], &config);
    let (counts, _) = morer.solve_and_score(&[&clean]);
    assert!(counts.f1().is_finite());
    assert!(counts.total() == 80);
}

// ---- write-ahead-log corruption (PR 6) -------------------------------------
//
// Every corruption below must either recover to the last valid epoch or
// fail with a typed error — never panic, never silently replay bad bytes.

use std::path::{Path, PathBuf};

use morer::core::wal::{content_hash, LOG_FILE};

fn wal_config() -> MorerConfig {
    MorerConfig { budget: 60, budget_min: 10, ..MorerConfig::default() }
}

fn wal_scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morer_fi_wal_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two durable commits; returns the frame boundary after the first commit
/// and the canonical repository bytes at each epoch.
fn two_commits(dir: &Path) -> (u64, Vec<Vec<u8>>) {
    let options = WalOptions { durability: Durability::Fsync, compact_every: 0 };
    let mut morer = Morer::open_with(dir, &wal_config(), options).unwrap();
    let canonical = |m: &Morer| {
        let mut buf = Vec::new();
        m.searcher().repository().save_json(&mut buf).unwrap();
        buf
    };
    let mut repos = vec![canonical(&morer)];
    let p = healthy_problem(0);
    morer.add_problems(&[&p]).unwrap();
    let boundary = morer.durability().unwrap().log_bytes;
    repos.push(canonical(&morer));
    let p = healthy_problem(1);
    morer.add_problems(&[&p]).unwrap();
    repos.push(canonical(&morer));
    (boundary, repos)
}

fn reopen(dir: &Path) -> Morer {
    Morer::open(dir, &wal_config()).unwrap()
}

fn canonical_of(m: &Morer) -> Vec<u8> {
    let mut buf = Vec::new();
    m.searcher().repository().save_json(&mut buf).unwrap();
    buf
}

#[test]
fn zero_length_log_file_recovers_to_the_base_snapshot() {
    let dir = wal_scratch("zero");
    let (_, repos) = two_commits(&dir);
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(LOG_FILE))
        .unwrap()
        .set_len(0)
        .unwrap();
    let mut m = reopen(&dir);
    assert_eq!(m.epoch(), 0);
    assert_eq!(canonical_of(&m), repos[0]);
    // the restarted log accepts new commits immediately
    let p = healthy_problem(5);
    let report = m.add_problems(&[&p]).unwrap();
    assert_eq!(report.epoch, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_log_tail_recovers_to_the_last_valid_epoch() {
    let dir = wal_scratch("tail");
    let (boundary, repos) = two_commits(&dir);
    // cut into the middle of the second record's frame
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(LOG_FILE))
        .unwrap()
        .set_len(boundary + 3)
        .unwrap();
    let m = reopen(&dir);
    assert_eq!(m.epoch(), 1, "the torn second commit must not be replayed");
    assert_eq!(canonical_of(&m), repos[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_record_body_is_detected_and_never_replayed() {
    let dir = wal_scratch("flip");
    let (boundary, repos) = two_commits(&dir);
    let log_path = dir.join(LOG_FILE);
    let mut bytes = std::fs::read(&log_path).unwrap();
    // flip one bit in the second record's payload (past its frame header)
    let target = boundary as usize + 20;
    bytes[target] ^= 0x01;
    std::fs::write(&log_path, &bytes).unwrap();
    let m = reopen(&dir);
    assert_eq!(m.epoch(), 1, "the hash check must reject the flipped record");
    assert_eq!(canonical_of(&m), repos[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_and_out_of_order_epoch_records_never_corrupt_state() {
    let dir = wal_scratch("dup");
    let (boundary, repos) = two_commits(&dir);
    let log_path = dir.join(LOG_FILE);
    let pristine = std::fs::read(&log_path).unwrap();
    let second_frame = &pristine[boundary as usize..];

    // a duplicated record (epoch 2 again — a compaction-leftover shape) is
    // integrity-checked, then skipped: replaying it would double-apply
    let mut duplicated = pristine.clone();
    duplicated.extend_from_slice(second_frame);
    std::fs::write(&log_path, &duplicated).unwrap();
    let m = reopen(&dir);
    assert_eq!(m.epoch(), 2);
    assert_eq!(canonical_of(&m), repos[2]);

    // an out-of-order record (epoch jumps 2 -> 7) marks a missing commit:
    // replay stops before it and the tail is truncated away
    let payload = &second_frame[12..];
    let jumped =
        String::from_utf8(payload.to_vec()).unwrap().replacen("\"epoch\":2", "\"epoch\":7", 1);
    assert!(jumped.contains("\"epoch\":7"), "fixture must actually change the epoch");
    let mut corrupted = pristine.clone();
    corrupted.extend_from_slice(&(jumped.len() as u32).to_le_bytes());
    corrupted.extend_from_slice(&content_hash(jumped.as_bytes()).to_le_bytes());
    corrupted.extend_from_slice(jumped.as_bytes());
    std::fs::write(&log_path, &corrupted).unwrap();
    let m = reopen(&dir);
    assert_eq!(m.epoch(), 2, "the gap record must not be applied");
    assert_eq!(canonical_of(&m), repos[2]);
    // the truncation is durable: the poisoned tail cannot resurface
    assert_eq!(std::fs::read(&log_path).unwrap(), pristine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_log_file_is_a_typed_error_and_left_untouched() {
    let dir = wal_scratch("foreign");
    let _ = two_commits(&dir);
    let log_path = dir.join(LOG_FILE);
    let foreign = b"#!/bin/sh\necho this is not a MoRER log\n".to_vec();
    std::fs::write(&log_path, &foreign).unwrap();
    match Morer::open(&dir, &wal_config()) {
        Err(MorerError::LogCorrupt { offset: 0, .. }) => {}
        other => panic!("expected LogCorrupt at offset 0, got {other:?}"),
    }
    // a foreign file is refused, never wiped or "recovered"
    assert_eq!(std::fs::read(&log_path).unwrap(), foreign);
    let _ = std::fs::remove_dir_all(&dir);
}
