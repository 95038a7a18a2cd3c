//! Crash-point injection harness for the write-ahead log (ISSUE 6
//! tentpole acceptance): a scripted multi-commit ingest run is checkpointed
//! at every record boundary, then every injectable crash point — file
//! truncation at/around/inside each frame, bit flips in record bodies,
//! crashes straddling a compaction — is materialized on a copy of the
//! durable state and recovered with `Morer::open`. Recovery must always
//! reach exactly the last fully committed pre-crash epoch, with a
//! repository bit-identical (via the canonical `save_json` bytes) to the
//! checkpoint taken at that epoch — never a panic, never a torn mix.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::Morer;
use morer_core::repository::ModelRepository;
use morer_core::testutil::family_problem;
use morer_core::wal::{Durability, WalOptions, LOG_FILE};
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;

fn config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

/// Manual-compaction options so the scripted run keeps every record in the
/// log (each test decides when the base snapshot moves).
fn options() -> WalOptions {
    WalOptions { durability: Durability::Fsync, compact_every: 0 }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morer_wal_rec_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn canonical_bytes(repo: &ModelRepository) -> Vec<u8> {
    let mut buf = Vec::new();
    repo.save_json(&mut buf).unwrap();
    buf
}

/// One pre-crash ground-truth point: the state a recovery landing on this
/// epoch must reproduce exactly.
struct Checkpoint {
    epoch: u64,
    /// Log length right after this epoch's record was acknowledged — the
    /// frame boundary separating "this commit is durable" from "the next
    /// commit started".
    log_bytes: u64,
    repository: ModelRepository,
}

/// Run the scripted multi-commit ingest against a fresh durable pipeline in
/// `dir`, checkpointing after attach and after every commit.
fn scripted_run(dir: &Path, commits: usize) -> Vec<Checkpoint> {
    let mut morer = Morer::open_with(dir, &config(), options()).unwrap();
    let mut checkpoints = vec![Checkpoint {
        epoch: morer.epoch(),
        log_bytes: morer.durability().unwrap().log_bytes,
        repository: morer.searcher().repository(),
    }];
    for c in 0..commits {
        let batch: Vec<ErProblem> =
            (0..2).map(|i| family_problem(100 * c + i, (c % 2) as u8, 100)).collect();
        let refs: Vec<&ErProblem> = batch.iter().collect();
        morer.add_problems(&refs).unwrap();
        checkpoints.push(Checkpoint {
            epoch: morer.epoch(),
            log_bytes: morer.durability().unwrap().log_bytes,
            repository: morer.searcher().repository(),
        });
    }
    checkpoints
}

/// The checkpoint a crash leaving `log_len` valid log bytes must recover
/// to: the greatest epoch whose record is fully contained in the prefix.
fn expected_for(checkpoints: &[Checkpoint], log_len: u64) -> &Checkpoint {
    checkpoints.iter().rev().find(|c| c.log_bytes <= log_len).unwrap_or(&checkpoints[0])
}

fn truncate_log(dir: &Path, len: u64) {
    OpenOptions::new().write(true).open(dir.join(LOG_FILE)).unwrap().set_len(len).unwrap();
}

fn assert_recovers_to(crash_dir: &Path, expected: &Checkpoint, context: &str) {
    let recovered = Morer::open_with(crash_dir, &config(), options())
        .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
    assert_eq!(recovered.epoch(), expected.epoch, "{context}: epoch");
    let got = recovered.searcher().repository();
    assert_eq!(got, expected.repository, "{context}: repository state");
    assert_eq!(
        canonical_bytes(&got),
        canonical_bytes(&expected.repository),
        "{context}: canonical bytes"
    );
}

/// Tentpole acceptance: enumerate every truncation crash point — exact
/// frame boundaries, one byte past them, mid-frame, one byte short of the
/// next boundary, and inside the file header — and recover each. The
/// fsync-acknowledged property falls out: a record fully on disk (the
/// boundary cases) is always replayed, a torn one never is.
#[test]
fn every_truncation_point_recovers_to_the_last_committed_epoch() {
    let live = scratch_dir("trunc_live");
    let checkpoints = scripted_run(&live, 4);
    assert_eq!(checkpoints.last().unwrap().epoch, 4);

    // crash points inside the 12-byte file header: recovery restarts the
    // log fresh on top of the (empty-repository) base snapshot
    let mut crash_points: Vec<u64> = vec![0, 1, 11];
    for w in checkpoints.windows(2) {
        let (lo, hi) = (w[0].log_bytes, w[1].log_bytes);
        assert!(hi > lo, "every commit must append bytes");
        crash_points.extend([lo, lo + 1, lo + (hi - lo) / 2, hi - 1, hi]);
    }
    crash_points.sort_unstable();
    crash_points.dedup();

    let crash = scratch_dir("trunc_crash");
    for &len in &crash_points {
        copy_dir(&live, &crash);
        truncate_log(&crash, len);
        let expected = expected_for(&checkpoints, len);
        assert_recovers_to(&crash, expected, &format!("truncated to {len} bytes"));
    }
    for d in [&live, &crash] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A bit flip anywhere in a record's frame (length prefix, hash, payload)
/// must stop replay at the previous epoch, truncate the poisoned tail, and
/// leave the recovered writer fully usable — the next commit reopens
/// cleanly at the following epoch.
#[test]
fn bit_flips_truncate_to_the_valid_prefix_and_the_writer_recovers() {
    let live = scratch_dir("flip_live");
    let checkpoints = scripted_run(&live, 3);
    let crash = scratch_dir("flip_crash");

    for record in 0..3usize {
        let frame_start = checkpoints[record].log_bytes;
        let frame_end = checkpoints[record + 1].log_bytes;
        // one offset in each frame region: length prefix, stored hash, and
        // three spots across the JSON payload
        let payload_start = frame_start + 12;
        let offsets = [
            frame_start,
            frame_start + 5,
            payload_start,
            payload_start + (frame_end - payload_start) / 2,
            frame_end - 1,
        ];
        for &offset in &offsets {
            copy_dir(&live, &crash);
            let log_path = crash.join(LOG_FILE);
            let mut bytes = std::fs::read(&log_path).unwrap();
            bytes[offset as usize] ^= 0x40;
            std::fs::write(&log_path, &bytes).unwrap();

            let context = format!("bit flip at byte {offset} (record {record})");
            // everything before the poisoned frame survives; the poisoned
            // frame and everything after it is gone
            assert_recovers_to(&crash, &checkpoints[record], &context);

            // the recovered writer keeps working: commit, reopen, verify
            let mut recovered = Morer::open_with(&crash, &config(), options()).unwrap();
            let p = family_problem(9_000, 1, 80);
            recovered.add_problems(&[&p]).unwrap();
            assert_eq!(recovered.epoch(), checkpoints[record].epoch + 1, "{context}: re-commit");
            let expected = recovered.searcher().repository();
            let reopened = Morer::open_with(&crash, &config(), options()).unwrap();
            assert_eq!(reopened.epoch(), recovered.epoch(), "{context}: reopen epoch");
            assert_eq!(reopened.searcher().repository(), expected, "{context}: reopen state");
        }
    }
    for d in [&live, &crash] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Crashes straddling a compaction: whichever of the old/new base the
/// crash left published, recovery lands on the same committed epoch —
/// stale log records whose epochs are already folded into the new base are
/// skipped, and a leftover `base.json.tmp` is discarded.
#[test]
fn compaction_crashes_leave_a_recoverable_directory() {
    let live = scratch_dir("compact_live");
    let checkpoints = scripted_run(&live, 3);
    let last = checkpoints.last().unwrap();

    // keep the pre-compaction on-disk state (old base + full log)
    let pre = scratch_dir("compact_pre");
    copy_dir(&live, &pre);

    let mut morer = Morer::open_with(&live, &config(), options()).unwrap();
    morer.compact().unwrap();
    let state = morer.durability().unwrap();
    assert_eq!(state.durable_epoch, last.epoch);
    assert_eq!(state.log_records, 0, "compaction folds the log into the base");
    assert_eq!(state.compactions, 1);
    drop(morer);

    // crash A: new base published, old log not yet truncated — every log
    // record's epoch is <= the base epoch, so all are skipped as leftovers
    let crash = scratch_dir("compact_crash");
    copy_dir(&live, &crash);
    std::fs::copy(pre.join(LOG_FILE), crash.join(LOG_FILE)).unwrap();
    assert_recovers_to(&crash, last, "new base + stale pre-compaction log");

    // crash B: died between writing base.json.tmp and the atomic rename —
    // the stale tmp (even unreadable garbage) is discarded, the published
    // base still loads
    copy_dir(&live, &crash);
    std::fs::write(crash.join("base.json.tmp"), b"torn half-written garbage").unwrap();
    assert_recovers_to(&crash, last, "stale base.json.tmp");
    assert!(!crash.join("base.json.tmp").exists(), "stale tmp must be cleaned up");

    // the compacted base embeds the repository exactly as save_json writes
    // it: log-then-compact round-trips bit-identical to save_json/load_json
    let base_text = std::fs::read_to_string(live.join("base.json")).unwrap();
    let canonical = String::from_utf8(canonical_bytes(&last.repository)).unwrap();
    assert!(
        base_text.contains(&canonical),
        "base.json must embed the canonical save_json document"
    );

    for d in [&live, &pre, &crash] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// End-to-end twin equivalence: a pipeline killed and WAL-recovered
/// between every batch must stay bit-identical to a twin persisted through
/// the full `save_json`/`load_json` snapshot between the same batches —
/// O(dirty) log replay and O(repository) snapshot round-trips are the same
/// crash-restart semantics, just at different cost.
#[test]
fn recover_between_every_batch_matches_a_snapshot_round_trip_twin() {
    let dir = scratch_dir("twin");
    let mut twin_repo = ModelRepository::default();
    for c in 0..4usize {
        let batch: Vec<ErProblem> =
            (0..2).map(|i| family_problem(100 * c + i, (c % 2) as u8, 100)).collect();
        let refs: Vec<&ErProblem> = batch.iter().collect();

        // the durable pipeline is dropped (simulated kill) after each batch
        let mut durable = Morer::open_with(&dir, &config(), options()).unwrap();
        durable.add_problems(&refs).unwrap();
        let durable_repo = durable.searcher().repository();
        drop(durable);

        // the twin restarts from a full canonical-JSON snapshot each round
        let loaded = ModelRepository::load_json(&canonical_bytes(&twin_repo)[..]).unwrap();
        let mut twin = Morer::from_repository(loaded, &config());
        twin.add_problems(&refs).unwrap();
        twin_repo = twin.searcher().repository();

        assert_eq!(
            canonical_bytes(&durable_repo),
            canonical_bytes(&twin_repo),
            "after batch {c}"
        );
    }
    // final recovery solves exactly like the snapshot twin
    let recovered = Morer::open_with(&dir, &config(), options()).unwrap();
    let twin = Morer::from_repository(twin_repo, &config());
    assert_eq!(recovered.epoch(), 4);
    let q = family_problem(5_000, 0, 80);
    let a = recovered.searcher().solve(&q);
    let b = twin.searcher().solve(&q);
    assert_eq!(a.entry, b.entry);
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.probabilities, b.probabilities);
    let _ = std::fs::remove_dir_all(&dir);
}
