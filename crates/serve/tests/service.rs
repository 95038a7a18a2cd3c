//! Loopback integration tests of the serving layer (ISSUE 5 satellite):
//! concurrent clients must get solve results bit-identical to direct
//! `ModelSearcher` calls, ingest-during-read must show monotone epochs and
//! no torn responses, and malformed/oversized/unknown-route requests must
//! map to typed 4xx responses without killing the thread that answered.
//! Raw-socket tests pin the connection-level protocol: EOF mid-request,
//! clean keep-alive closes, and the `100 Continue` interim response.
//!
//! Every client connects through [`Connection::open_timeout`] (raw
//! sockets set a read timeout) — a stalled server under test must fail an
//! assertion, not hang CI forever.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::pipeline::{IngestReport, Morer};
use morer_core::repository::ModelRepository;
use morer_core::searcher::{SearchHit, SolveOutcome};
use morer_core::testutil::family_problem;
use morer_data::ErProblem;
use morer_ml::dataset::FeatureMatrix;
use morer_ml::model::ModelConfig;
use morer_serve::{
    Connection, ErrorEnvelope, HealthResponse, MorerServer, ServeConfig, ServerHandle,
    StatsResponse,
};

fn config() -> MorerConfig {
    MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        seed: 42,
        ..MorerConfig::default()
    }
}

fn built_morer() -> Morer {
    let problems: Vec<ErProblem> =
        (0..6).map(|i| family_problem(i, (i >= 3) as u8, 120)).collect();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    Morer::build(refs, &config()).0
}

/// Open a test client with a receive/send deadline: a stalled server
/// fails the test instead of hanging it.
fn connect(addr: std::net::SocketAddr) -> Connection {
    Connection::open_timeout(addr, Duration::from_secs(30)).unwrap()
}

fn assert_outcomes_equal(a: &SolveOutcome, b: &SolveOutcome, context: &str) {
    assert_eq!(a.entry, b.entry, "{context}: entry");
    assert_eq!(a.similarity, b.similarity, "{context}: similarity");
    assert_eq!(a.predictions, b.predictions, "{context}: predictions");
    assert_eq!(a.probabilities, b.probabilities, "{context}: probabilities");
}

#[test]
fn health_and_stats_report_server_state() {
    let morer = built_morer();
    let models = morer.num_models();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());

    let res = conn.get("/healthz").unwrap();
    assert_eq!(res.status, 200);
    let health: HealthResponse = serde_json::from_str(&res.body).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.models, models);
    assert_eq!(health.epoch, handle.epoch());
    // no wal_dir configured: the server is explicit about serving in memory
    assert_eq!(health.durability, "none");
    assert_eq!(health.durable_epoch, None);

    let res = conn.get("/stats").unwrap();
    assert_eq!(res.status, 200);
    let stats: StatsResponse = serde_json::from_str(&res.body).unwrap();
    assert_eq!(stats.entries, models);
    assert_eq!(stats.searchable_entries, models);
    assert_eq!(stats.wal, None);
    // the healthz request above is already on the counters
    let healthz = stats.endpoints.iter().find(|e| e.endpoint == "healthz").unwrap();
    assert_eq!(healthz.requests, 1);
    assert_eq!(healthz.errors, 0);
    handle.shutdown();
}

/// Tentpole acceptance: N concurrent clients get solve results
/// bit-identical to direct `ModelSearcher` calls — the JSON wire format
/// round-trips every float exactly.
#[test]
fn concurrent_clients_get_solves_bit_identical_to_in_process() {
    let morer = built_morer();
    let searcher = morer.searcher().clone();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();

    let queries: Vec<ErProblem> = (0..6)
        .map(|i| family_problem(100 + i, (i % 2) as u8, 80))
        .collect();
    let reference: Vec<SolveOutcome> = queries.iter().map(|q| searcher.solve(q)).collect();
    let bodies: Vec<String> =
        queries.iter().map(|q| serde_json::to_string(q).unwrap()).collect();

    let n_clients = 4;
    let results: Vec<Vec<SolveOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let bodies = &bodies;
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    bodies
                        .iter()
                        .map(|body| {
                            let res = conn.post("/solve", body).unwrap();
                            assert_eq!(res.status, 200, "{}", res.body);
                            serde_json::from_str(&res.body).unwrap()
                        })
                        .collect::<Vec<SolveOutcome>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    for (client, outcomes) in results.iter().enumerate() {
        for (i, (served, direct)) in outcomes.iter().zip(&reference).enumerate() {
            assert_outcomes_equal(served, direct, &format!("client {client} query {i}"));
        }
    }
    handle.shutdown();
}

#[test]
fn search_and_solve_batch_match_the_searcher_api() {
    let morer = built_morer();
    let searcher = morer.searcher().clone();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());

    let q = family_problem(200, 0, 80);
    let res = conn.post("/search", &serde_json::to_string(&q).unwrap()).unwrap();
    assert_eq!(res.status, 200);
    let hit: SearchHit = serde_json::from_str(&res.body).unwrap();
    assert_eq!(hit, searcher.search(&q).unwrap());

    let batch: Vec<ErProblem> =
        (0..4).map(|i| family_problem(210 + i, (i % 2) as u8, 60)).collect();
    let res = conn
        .post("/solve_batch", &serde_json::to_string(&batch).unwrap())
        .unwrap();
    assert_eq!(res.status, 200);
    let outcomes: Vec<SolveOutcome> = serde_json::from_str(&res.body).unwrap();
    assert_eq!(outcomes.len(), batch.len());
    for (i, (served, q)) in outcomes.iter().zip(&batch).enumerate() {
        assert_outcomes_equal(served, &searcher.solve(q), &format!("batch item {i}"));
    }

    // an empty batch is a valid request with an empty answer
    let res = conn.post("/solve_batch", "[]").unwrap();
    assert_eq!(res.status, 200);
    assert_eq!(res.body, "[]");
    handle.shutdown();
}

#[test]
fn ingest_commits_a_new_epoch_and_the_read_path_serves_it() {
    let morer = built_morer();
    // a twin writer replays the same ingest in-process: the server's
    // committed state must match it bit-for-bit
    let mut twin = morer.clone();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let epoch_before = handle.epoch();
    let mut conn = connect(handle.addr());

    let arrivals: Vec<ErProblem> =
        (0..2).map(|i| family_problem(300 + i, 0, 120)).collect();
    let res = conn
        .post("/ingest", &serde_json::to_string(&arrivals).unwrap())
        .unwrap();
    assert_eq!(res.status, 200, "{}", res.body);
    let report: IngestReport = serde_json::from_str(&res.body).unwrap();
    let arrival_refs: Vec<&ErProblem> = arrivals.iter().collect();
    let twin_report = twin.add_problems(&arrival_refs).unwrap();
    assert_eq!(report, twin_report);
    assert!(report.epoch > epoch_before);
    assert_eq!(handle.epoch(), report.epoch);

    // the post-commit read path answers exactly like the twin writer
    let q = family_problem(310, 0, 80);
    let res = conn.post("/solve", &serde_json::to_string(&q).unwrap()).unwrap();
    let served: SolveOutcome = serde_json::from_str(&res.body).unwrap();
    assert_outcomes_equal(&served, &twin.searcher().solve(&q), "post-ingest solve");

    // /ingest also accepts a single problem object
    let single = family_problem(311, 1, 100);
    let res = conn
        .post("/ingest", &serde_json::to_string(&single).unwrap())
        .unwrap();
    assert_eq!(res.status, 200, "{}", res.body);
    let report: IngestReport = serde_json::from_str(&res.body).unwrap();
    assert_eq!(report.problems_added, 1);
    handle.shutdown();
}

/// Acceptance: readers holding a pre-ingest connection keep getting
/// consistent answers while `/ingest` commits a new epoch — every response
/// equals exactly the pre-commit or exactly the post-commit in-process
/// outcome (never a torn mix), and observed epochs are monotone.
#[test]
fn readers_stay_consistent_while_ingest_commits() {
    let morer = built_morer();
    let pre = morer.searcher().clone();
    let mut twin = morer.clone();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();

    let q = family_problem(400, 1, 100);
    let q_body = serde_json::to_string(&q).unwrap();
    let pre_outcome = pre.solve(&q);

    // the post-commit reference: replay the exact ingest batch in-process
    let arrivals: Vec<ErProblem> =
        (0..3).map(|i| family_problem(410 + i, 1, 150)).collect();
    let arrival_refs: Vec<&ErProblem> = arrivals.iter().collect();
    twin.add_problems(&arrival_refs).unwrap();
    let post_outcome = twin.searcher().solve(&q);

    let addr = handle.addr();
    let ingest_body = serde_json::to_string(&arrivals).unwrap();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let n_readers = 2;
    let reader_reports: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..n_readers)
            .map(|_| {
                let q_body = &q_body;
                let pre_outcome = &pre_outcome;
                let post_outcome = &post_outcome;
                let ready_tx = ready_tx.clone();
                scope.spawn(move || {
                    // the connection predates the ingest commit
                    let mut conn = connect(addr);
                    let mut epochs = Vec::new();
                    let (mut saw_pre, mut saw_post) = (0usize, 0usize);
                    let observe = |conn: &mut Connection,
                                       epochs: &mut Vec<u64>,
                                       saw_pre: &mut usize,
                                       saw_post: &mut usize| {
                        let res = conn.post("/solve", q_body).unwrap();
                        assert_eq!(res.status, 200, "{}", res.body);
                        let outcome: SolveOutcome = serde_json::from_str(&res.body).unwrap();
                        if outcome == *pre_outcome {
                            *saw_pre += 1;
                        } else if outcome == *post_outcome {
                            *saw_post += 1;
                        } else {
                            panic!("torn response: neither pre- nor post-commit outcome");
                        }
                        let health: HealthResponse =
                            serde_json::from_str(&conn.get("/healthz").unwrap().body).unwrap();
                        epochs.push(health.epoch);
                    };
                    // guaranteed pre-commit: the ingest is only posted after
                    // every reader signalled readiness
                    for _ in 0..5 {
                        observe(&mut conn, &mut epochs, &mut saw_pre, &mut saw_post);
                    }
                    assert_eq!(saw_pre, 5, "pre-ingest answers must be pre-commit");
                    ready_tx.send(()).unwrap();
                    // keep reading through the commit window until the new
                    // epoch is observed (bounded so a broken swap fails fast)
                    for _ in 0..5000 {
                        observe(&mut conn, &mut epochs, &mut saw_pre, &mut saw_post);
                        if saw_post > 0 {
                            break;
                        }
                    }
                    (epochs, saw_pre, saw_post)
                })
            })
            .collect();
        for _ in 0..n_readers {
            ready_rx.recv().unwrap();
        }
        // commit one epoch while the readers hammer the read path
        let mut writer_conn = connect(addr);
        let res = writer_conn.post("/ingest", &ingest_body).unwrap();
        assert_eq!(res.status, 200, "{}", res.body);
        readers.into_iter().map(|r| r.join().expect("reader panicked")).collect()
    });
    for (epochs, saw_pre, saw_post) in &reader_reports {
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "epochs regressed: {epochs:?}"
        );
        // every reader crossed the commit: consistent pre-commit answers
        // while holding the pre-ingest connection, then the new epoch
        assert!(*saw_pre >= 5, "reader lost its pre-commit answers");
        assert!(*saw_post > 0, "reader never observed the committed epoch");
    }

    // once the ingest response returned, a fresh request serves post-commit
    let mut conn = connect(addr);
    let res = conn.post("/solve", &q_body).unwrap();
    let outcome: SolveOutcome = serde_json::from_str(&res.body).unwrap();
    assert_outcomes_equal(&outcome, &post_outcome, "after commit");
    handle.shutdown();
}

/// Concurrent single-problem ingests: whatever micro-batching the writer
/// applies, the distinct commits must partition the arrivals and epochs
/// must advance per commit.
#[test]
fn concurrent_ingests_partition_into_commits() {
    let morer = built_morer();
    let base_epoch = morer.epoch();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let n_clients = 4;
    let addr = handle.addr();
    let reports: Vec<IngestReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut conn = connect(addr);
                    let p = family_problem(500 + i, (i % 2) as u8, 100);
                    let res = conn.post("/ingest", &serde_json::to_string(&p).unwrap()).unwrap();
                    assert_eq!(res.status, 200, "{}", res.body);
                    serde_json::from_str::<IngestReport>(&res.body).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ingest client panicked")).collect()
    });
    // requests that shared a commit received the same combined report;
    // distinct commits partition the arrivals
    let mut by_epoch: Vec<&IngestReport> = Vec::new();
    for r in &reports {
        assert!(r.epoch > base_epoch);
        if let Some(prev) = by_epoch.iter().find(|p| p.epoch == r.epoch) {
            assert_eq!(*prev, r, "same-epoch requesters must share one report");
        } else {
            by_epoch.push(r);
        }
    }
    let total: usize = by_epoch.iter().map(|r| r.problems_added).sum();
    assert_eq!(total, n_clients, "commits must account for every arrival exactly once");
    assert_eq!(handle.epoch(), by_epoch.iter().map(|r| r.epoch).max().unwrap());
    handle.shutdown();
}

#[test]
fn protocol_errors_are_typed_4xx_and_never_kill_the_worker() {
    let morer = built_morer();
    let handle = MorerServer::start(
        morer,
        &ServeConfig { max_body_bytes: 4096, ..ServeConfig::default() },
    )
    .unwrap();
    let addr = handle.addr();

    // invalid JSON → 400 parse, on a keep-alive connection that stays usable
    let mut conn = connect(addr);
    let res = conn.post("/solve", "{not json").unwrap();
    assert_eq!(res.status, 400);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "parse");
    // structurally wrong JSON → 400 parse
    let res = conn.post("/solve", "{\"id\": 3}").unwrap();
    assert_eq!(res.status, 400);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "parse");
    // unknown route → 404
    let res = conn.post("/nope", "{}").unwrap();
    assert_eq!(res.status, 404);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "not_found");
    // wrong method on a known route → 405
    let res = conn.get("/solve").unwrap();
    assert_eq!(res.status, 405);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "method_not_allowed");
    // the same connection still answers after four error responses
    let res = conn.get("/healthz").unwrap();
    assert_eq!(res.status, 200);

    // declared body over the cap → 413, before the body is transmitted
    let mut conn = connect(addr);
    let res = conn
        .send_raw(b"POST /ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
        .unwrap();
    assert_eq!(res.status, 413);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "payload_too_large");
    assert!(!res.keep_alive);

    // non-HTTP garbage → 400 and the connection closes
    let mut conn = connect(addr);
    let res = conn.send_raw(b"EHLO mail.example.com\r\n\r\n").unwrap();
    assert_eq!(res.status, 400);
    assert!(!res.keep_alive);

    // the server survived the abuse: fresh connections still served, and
    // the error counters saw every 4xx
    let mut conn = connect(addr);
    let res = conn.get("/stats").unwrap();
    assert_eq!(res.status, 200);
    let stats: StatsResponse = serde_json::from_str(&res.body).unwrap();
    let other = stats.endpoints.iter().find(|e| e.endpoint == "other").unwrap();
    assert!(other.errors >= 4, "expected 404/405/413/garbage in `other`: {other:?}");
    let solve = stats.endpoints.iter().find(|e| e.endpoint == "solve").unwrap();
    assert_eq!(solve.errors, 2);
    handle.shutdown();
}

/// Well-typed but internally inconsistent problems (the pipeline's inner
/// loops index on cross-field invariants) and feature-space mismatches
/// must be 400s — never panics that kill a compute thread or, worse, the
/// single writer thread.
#[test]
fn inconsistent_and_mismatched_problems_are_rejected_without_killing_threads() {
    let morer = built_morer(); // scores 2 features
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());

    // labels shorter than pairs (constructible: the fields are public) —
    // well-formed JSON, so the kind distinguishes it from a parse failure
    let mut truncated = family_problem(700, 0, 50);
    truncated.labels.truncate(10);
    let body = serde_json::to_string(&truncated).unwrap();
    for path in ["/search", "/solve", "/ingest"] {
        let res = conn.post(path, &body).unwrap();
        assert_eq!(res.status, 400, "{path}: {}", res.body);
        let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
        assert_eq!(env.error.kind, "invalid_problem", "{path}");
    }

    // a matrix whose declared shape disagrees with its buffer can only be
    // smuggled in as raw JSON — the shape-checked deserializer rejects it
    let smuggled = r#"{"id":0,"sources":[0,1],"pairs":[[0,1]],
        "features":{"data":[],"rows":100,"cols":6},
        "labels":[true],"feature_names":["a","b","c","d","e","f"]}"#;
    let res = conn.post("/solve", smuggled).unwrap();
    assert_eq!(res.status, 400, "{}", res.body);
    assert!(res.body.contains("shape mismatch"), "{}", res.body);

    // an overflow literal parses to f64::INFINITY — rejected at validate
    // (ingesting it would poison representatives, and the JSON writer's
    // null-for-non-finite would make the persisted repository unloadable)
    let infinite = r#"{"id":0,"sources":[0,1],"pairs":[[0,1]],
        "features":{"data":[1e999,0.5],"rows":1,"cols":2},
        "labels":[true],"feature_names":["f0","f1"]}"#;
    for path in ["/solve", "/ingest"] {
        let res = conn.post(path, infinite).unwrap();
        assert_eq!(res.status, 400, "{path}: {}", res.body);
        assert!(res.body.contains("non-finite"), "{path}: {}", res.body);
    }

    // a consistent problem in the wrong feature space (3-wide vs 2-wide)
    let mut wide_features = FeatureMatrix::new(3);
    let mut wide = family_problem(701, 0, 30);
    for i in 0..wide.num_pairs() {
        let row = [wide.features.get(i, 0), wide.features.get(i, 1), 0.5];
        wide_features.push_row(&row);
    }
    wide.features = wide_features;
    wide.feature_names = vec!["f0".into(), "f1".into(), "f2".into()];
    assert!(wide.validate().is_ok());
    let body = serde_json::to_string(&wide).unwrap();
    for path in ["/search", "/solve", "/solve_batch", "/ingest"] {
        let res = conn.post(path, &body).unwrap();
        assert_eq!(res.status, 400, "{path}: {}", res.body);
        assert!(res.body.contains("feature space mismatch"), "{path}: {}", res.body);
    }

    // every thread survived: reads still answer and — critically — the
    // writer still commits
    let res = conn.get("/healthz").unwrap();
    assert_eq!(res.status, 200);
    let good = family_problem(702, 0, 100);
    let res = conn.post("/ingest", &serde_json::to_string(&good).unwrap()).unwrap();
    assert_eq!(res.status, 200, "writer must survive rejected ingests: {}", res.body);
    let report: IngestReport = serde_json::from_str(&res.body).unwrap();
    assert_eq!(report.problems_added, 1);
    handle.shutdown();
}

#[test]
fn empty_repository_serves_typed_404_search_and_degraded_solve() {
    let morer = Morer::from_repository(ModelRepository::default(), &config());
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());
    let q = family_problem(600, 0, 60);
    let body = serde_json::to_string(&q).unwrap();

    let res = conn.post("/search", &body).unwrap();
    assert_eq!(res.status, 404);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "empty_repository");

    // solve degrades to the conservative all-non-match outcome instead
    let res = conn.post("/solve", &body).unwrap();
    assert_eq!(res.status, 200);
    let outcome: SolveOutcome = serde_json::from_str(&res.body).unwrap();
    assert_eq!(outcome.entry, None);
    assert!(outcome.predictions.iter().all(|&p| !p));
    handle.shutdown();
}

/// Durability acceptance (PR 6): with [`ServeConfig::wal_dir`] set, every
/// acknowledged `/ingest` is recoverable. The "kill" is simulated by
/// copying the WAL directory while the server is live — exactly the
/// on-disk state a crash right after the last acknowledgement leaves —
/// then `Morer::open`ing the copy and checking it serves the acknowledged
/// epoch with solve answers bit-identical to the live read path.
#[test]
fn acknowledged_durable_ingests_survive_a_simulated_kill() {
    let dir =
        std::env::temp_dir().join(format!("morer_serve_wal_{}_live", std::process::id()));
    let killed =
        std::env::temp_dir().join(format!("morer_serve_wal_{}_killed", std::process::id()));
    for d in [&dir, &killed] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).unwrap();
    }
    let cfg = ServeConfig { wal_dir: Some(dir.clone()), ..ServeConfig::default() };
    let handle = MorerServer::start(built_morer(), &cfg).unwrap();
    let mut conn = connect(handle.addr());

    // the server reports fsync-acknowledged durability from the start
    let health: HealthResponse =
        serde_json::from_str(&conn.get("/healthz").unwrap().body).unwrap();
    assert_eq!(health.durability, "fsync");
    assert_eq!(health.durable_epoch, Some(health.epoch));

    // three acknowledged commits
    let mut last_epoch = 0;
    for i in 0..3 {
        let p = family_problem(800 + i, (i % 2) as u8, 100);
        let res = conn.post("/ingest", &serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(res.status, 200, "{}", res.body);
        last_epoch = serde_json::from_str::<IngestReport>(&res.body).unwrap().epoch;
    }
    // /stats exposes the log state: every acknowledged commit is durable
    let stats: StatsResponse =
        serde_json::from_str(&conn.get("/stats").unwrap().body).unwrap();
    let wal = stats.wal.expect("a durable server must report WAL state");
    assert!(wal.fsync);
    assert_eq!(wal.durable_epoch, last_epoch);
    assert!(wal.log_records >= 1);

    // simulate the kill: snapshot the on-disk state out from under the
    // still-running server
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), killed.join(entry.file_name())).unwrap();
    }

    let q = family_problem(810, 1, 80);
    let res = conn.post("/solve", &serde_json::to_string(&q).unwrap()).unwrap();
    assert_eq!(res.status, 200, "{}", res.body);
    let live: SolveOutcome = serde_json::from_str(&res.body).unwrap();
    handle.shutdown();

    let recovered = Morer::open(&killed, &config()).unwrap();
    assert_eq!(recovered.epoch(), last_epoch, "recovery must reach the acknowledged epoch");
    assert_outcomes_equal(&recovered.searcher().solve(&q), &live, "recovered solve");

    for d in [&dir, &killed] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The serving contract in one test: `/healthz` names the connection
/// core, and every `/solve` answer is bit-identical to the in-process
/// `ModelSearcher::solve` on the same epoch.
#[test]
fn served_solves_are_bit_identical_to_in_process() {
    let morer = built_morer();
    let searcher = morer.searcher().clone();
    let queries: Vec<ErProblem> =
        (0..4).map(|i| family_problem(900 + i, (i % 2) as u8, 80)).collect();
    let reference: Vec<SolveOutcome> = queries.iter().map(|q| searcher.solve(q)).collect();

    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());
    let health: HealthResponse =
        serde_json::from_str(&conn.get("/healthz").unwrap().body).unwrap();
    assert_eq!(health.backend, "reactor");
    for (q, direct) in queries.iter().zip(&reference) {
        let res = conn.post("/solve", &serde_json::to_string(q).unwrap()).unwrap();
        assert_eq!(res.status, 200, "{}", res.body);
        let served: SolveOutcome = serde_json::from_str(&res.body).unwrap();
        assert_outcomes_equal(&served, direct, "served solve");
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_joins_all_threads_and_closes_connections() {
    let morer = built_morer();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let mut conn = connect(addr);
    assert_eq!(conn.get("/healthz").unwrap().status, 200);
    // shutdown() joins every serving thread and the writer; it must not
    // hang on the idle keep-alive connection we still hold
    handle.shutdown();
    // the held connection is dead now: the next request fails instead of
    // hanging (the server closed its end)
    assert!(conn.get("/healthz").is_err());
}

/// Observability acceptance (ISSUE 10): `GET /metrics` serves valid
/// Prometheus text exposition covering the whole pipeline — endpoint
/// counters and latency histograms, writer stages, connection gauges —
/// and histogram bucket lines are a monotone cumulative ladder ending in
/// `+Inf` that agrees with the `_count` sample.
#[test]
fn metrics_exposition_is_valid_and_covers_the_pipeline() {
    let morer = built_morer();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let mut conn = connect(handle.addr());

    // drive every class: a 2xx solve, a 4xx parse error
    let q = family_problem(700, 0, 80);
    assert_eq!(conn.post("/solve", &serde_json::to_string(&q).unwrap()).unwrap().status, 200);
    assert_eq!(conn.post("/solve", "not json").unwrap().status, 400);

    let res = conn.get_raw("/metrics").unwrap();
    assert_eq!(res.status, 200);
    assert!(res
        .header("content-type")
        .unwrap()
        .starts_with("text/plain; version=0.0.4"));
    let text = String::from_utf8(res.body).unwrap();

    // every non-comment line must parse as `name{labels} value` with a
    // finite float value (the whole-exposition validity check)
    let mut samples = 0usize;
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("unparseable: {line}"));
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-float value in: {line}"));
        assert!(v.is_finite() && v >= 0.0, "negative/NaN sample: {line}");
        samples += 1;
    }
    assert!(samples > 50, "suspiciously small exposition: {samples} samples");

    // pipeline coverage: request, writer, WAL, connection and index
    // families are all present
    for family in [
        "morer_requests_total",
        "morer_request_duration_micros_bucket",
        "morer_request_duration_micros_count",
        "morer_writer_queue_wait_micros_bucket",
        "morer_wal_append_micros_count",
        "morer_connections_open",
        "morer_connections_accepted_total",
        "morer_index_shortlist_size_count",
        "morer_writer_healthy",
        "morer_epoch",
    ] {
        assert!(text.contains(family), "missing metric family {family} in:\n{text}");
    }
    // the driven requests are visible with their status classes
    assert!(text.contains(r#"morer_requests_total{endpoint="solve",class="2xx"} 1"#));
    assert!(text.contains(r#"morer_requests_total{endpoint="solve",class="4xx"} 1"#));

    // the solve histogram's bucket ladder is cumulative-monotone, ends at
    // +Inf, and its total equals the _count sample
    let mut last = 0.0f64;
    let mut inf = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(r#"morer_request_duration_micros_bucket{endpoint="solve","#) {
            let v: f64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= last, "non-monotone bucket ladder at: {line}");
            last = v;
            if rest.contains(r#"le="+Inf""#) {
                inf = Some(v);
            }
        }
    }
    let count_line = text
        .lines()
        .find(|l| l.starts_with(r#"morer_request_duration_micros_count{endpoint="solve"}"#))
        .unwrap();
    let count: f64 = count_line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert_eq!(inf, Some(count), "+Inf bucket must equal _count");
    assert_eq!(count, 2.0, "both solve requests must be in the histogram");
    handle.shutdown();
}

/// Observability acceptance (ISSUE 10): a slow request's
/// `x-morer-trace-id` response header retrieves its per-stage span
/// breakdown from `GET /debug/trace`, the slow ring holds it, and fast
/// requests stay out of the slow ring.
#[test]
fn slow_requests_are_traced_and_fast_ones_skip_the_slow_log() {
    use morer_serve::TraceDump;

    let morer = built_morer();
    // a fat ingest batch (recluster + retrain + commit over 8 new
    // problems) reliably exceeds 2ms; healthz reliably stays under it
    let cfg = ServeConfig { slow_request_micros: 2_000, ..ServeConfig::default() };
    let handle = MorerServer::start(morer, &cfg).unwrap();
    let mut conn = connect(handle.addr());

    // fast control requests first, so their ids cannot be lapped out of
    // the recent ring by the slow request's spans
    let fast_res = conn.get_raw("/healthz").unwrap();
    assert_eq!(fast_res.status, 200);
    let fast_id = fast_res.header("x-morer-trace-id").unwrap().to_owned();
    assert_eq!(fast_id.len(), 16, "trace id must be 16 hex digits: {fast_id}");

    let arrivals: Vec<ErProblem> =
        (0..8).map(|i| family_problem(800 + i, (i % 2) as u8, 400)).collect();
    let slow_res = conn
        .post_raw("/ingest", &serde_json::to_string(&arrivals).unwrap())
        .unwrap();
    assert_eq!(slow_res.status, 200);
    let slow_id = slow_res.header("x-morer-trace-id").unwrap().to_owned();
    assert_ne!(slow_id, fast_id, "every request gets its own trace id");

    // filtered dump: exactly the slow request's spans, with its stages
    let res = conn.get(&format!("/debug/trace?id={slow_id}")).unwrap();
    assert_eq!(res.status, 200, "{}", res.body);
    let dump: TraceDump = serde_json::from_str(&res.body).unwrap();
    assert_eq!(dump.slow_threshold_micros, 2_000);
    assert!(dump.recent.iter().all(|s| s.trace_id == slow_id));
    let stages: Vec<&str> = dump.recent.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&"decode"), "missing decode span: {stages:?}");
    assert!(stages.contains(&"writer_wait"), "missing writer_wait span: {stages:?}");
    let root = dump.recent.iter().find(|s| s.stage == "request").unwrap();
    assert_eq!(root.code, 200);
    assert!(root.duration_micros >= 2_000, "ingest was unexpectedly fast");
    // the slow ring holds the threshold-crossing request...
    assert!(dump.slow.iter().any(|s| s.trace_id == slow_id && s.stage == "request"));

    // ...and not the fast one: its id appears in recent but never in slow
    let res = conn.get(&format!("/debug/trace?id={fast_id}")).unwrap();
    let dump: TraceDump = serde_json::from_str(&res.body).unwrap();
    assert!(
        dump.recent.iter().any(|s| s.trace_id == fast_id && s.stage == "request"),
        "fast request missing from the recent ring"
    );
    assert!(
        dump.slow.is_empty(),
        "fast request leaked into the slow ring: {:?}",
        dump.slow
    );
    handle.shutdown();
}

/// A raw client socket whose reads fail after 30 s instead of hanging.
fn raw_socket(addr: SocketAddr) -> TcpStream {
    let sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    sock
}

/// Read exactly one response off `sock`: its head (status line and
/// headers) and its `Content-Length` body.
fn read_response(sock: &mut TcpStream) -> (String, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8(buf[..head_end].to_vec()).unwrap();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map_or(0, |v| v.parse().unwrap());
            if buf.len() >= head_end + 4 + length {
                assert_eq!(buf.len(), head_end + 4 + length, "bytes beyond one response");
                return (head, buf.split_off(head_end + 4));
            }
        }
        let n = sock.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-response: {:?}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Send `raw`, half-close the write side, and return everything the
/// server sends until it closes the connection.
fn half_close_exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut sock = raw_socket(addr);
    sock.write_all(raw).unwrap();
    sock.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    sock.read_to_end(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

/// EOF inside a request head earns a typed 400 naming the truncation,
/// then the connection closes.
#[test]
fn half_close_mid_head_answers_400_closed_mid_request() {
    let handle = MorerServer::start(built_morer(), &ServeConfig::default()).unwrap();
    let out = half_close_exchange(handle.addr(), b"GET /healthz HT");
    assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{out}");
    assert!(out.contains("Connection: close\r\n"), "{out}");
    let body = &out[out.find("\r\n\r\n").unwrap() + 4..];
    let env: ErrorEnvelope = serde_json::from_str(body).unwrap();
    assert_eq!(env.error.kind, "bad_request");
    assert_eq!(env.error.message, "connection closed mid-request");
    handle.shutdown();
}

/// EOF after a complete head but before the declared body is complete
/// earns a typed 400 naming the truncated body.
#[test]
fn half_close_mid_body_answers_400_closed_mid_body() {
    let handle = MorerServer::start(built_morer(), &ServeConfig::default()).unwrap();
    let out = half_close_exchange(
        handle.addr(),
        b"POST /solve HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"id\"",
    );
    assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{out}");
    let body = &out[out.find("\r\n\r\n").unwrap() + 4..];
    let env: ErrorEnvelope = serde_json::from_str(body).unwrap();
    assert_eq!(env.error.kind, "bad_request");
    assert_eq!(env.error.message, "connection closed mid-body");
    handle.shutdown();
}

/// A client that closes between requests ends the keep-alive connection
/// cleanly: no further bytes, and no 4xx counted anywhere.
#[test]
fn clean_close_after_a_keep_alive_response_sends_nothing_and_counts_no_4xx() {
    let handle = MorerServer::start(built_morer(), &ServeConfig::default()).unwrap();
    let mut sock = raw_socket(handle.addr());
    sock.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (head, _) = read_response(&mut sock);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    sock.shutdown(Shutdown::Write).unwrap();
    let mut after = Vec::new();
    sock.read_to_end(&mut after).unwrap();
    assert!(after.is_empty(), "clean close earned bytes: {:?}", String::from_utf8_lossy(&after));

    let stats: StatsResponse =
        serde_json::from_str(&connect(handle.addr()).get("/stats").unwrap().body).unwrap();
    for e in &stats.endpoints {
        assert_eq!(e.status_4xx, 0, "{e:?}");
    }
    handle.shutdown();
}

/// `Expect: 100-continue` gets exactly one interim response, before the
/// body is sent, and then the real answer.
#[test]
fn expect_100_continue_gets_one_interim_response_before_the_200() {
    let morer = built_morer();
    let searcher = morer.searcher().clone();
    let handle = MorerServer::start(morer, &ServeConfig::default()).unwrap();
    let q = family_problem(950, 1, 80);
    let body = serde_json::to_string(&q).unwrap();

    let mut sock = raw_socket(handle.addr());
    let head = format!(
        "POST /solve HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes()).unwrap();
    let interim = b"HTTP/1.1 100 Continue\r\n\r\n";
    let mut got = vec![0u8; interim.len()];
    sock.read_exact(&mut got).unwrap();
    assert_eq!(got, interim);

    sock.write_all(body.as_bytes()).unwrap();
    let (head, response) = read_response(&mut sock);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let served: SolveOutcome =
        serde_json::from_str(std::str::from_utf8(&response).unwrap()).unwrap();
    assert_outcomes_equal(&served, &searcher.solve(&q), "solve after 100 Continue");
    // nothing else was sent: no second interim response
    sock.shutdown(Shutdown::Write).unwrap();
    let mut after = Vec::new();
    sock.read_to_end(&mut after).unwrap();
    assert!(after.is_empty(), "unexpected bytes: {:?}", String::from_utf8_lossy(&after));
    handle.shutdown();
}

/// A durable leader (so `/wal` has a log to ship) in a fresh directory.
fn wal_leader(tag: &str) -> (ServerHandle, PathBuf) {
    let dir = std::env::temp_dir()
        .join(format!("morer_serve_wal_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServeConfig { wal_dir: Some(dir.clone()), ..ServeConfig::default() };
    (MorerServer::start(built_morer(), &cfg).unwrap(), dir)
}

/// `path` answers a typed 400, while `control` (the same request with the
/// parameter absent or well-formed) answers 200.
fn assert_bad_query(addr: SocketAddr, path: &str, control: &str) {
    let mut conn = connect(addr);
    let res = conn.get(path).unwrap();
    assert_eq!(res.status, 400, "{path}: {}", res.body);
    let env: ErrorEnvelope = serde_json::from_str(&res.body).unwrap();
    assert_eq!(env.error.kind, "bad_request", "{path}");
    assert_eq!(conn.get(control).unwrap().status, 200, "{control}");
}

#[test]
fn wal_rejects_a_malformed_from_offset() {
    let (handle, dir) = wal_leader("bad_from");
    assert_bad_query(handle.addr(), "/wal?from=abc&gen=0", "/wal?gen=0");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wal_rejects_a_malformed_generation() {
    let (handle, dir) = wal_leader("bad_gen");
    assert_bad_query(handle.addr(), "/wal?from=12&gen=x1", "/wal?from=12");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn wal_rejects_a_malformed_max() {
    let (handle, dir) = wal_leader("bad_max");
    assert_bad_query(handle.addr(), "/wal?from=12&gen=0&max=-1", "/wal?from=12&gen=0&max=64");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_dump_rejects_a_malformed_id() {
    let handle = MorerServer::start(built_morer(), &ServeConfig::default()).unwrap();
    assert_bad_query(handle.addr(), "/debug/trace?id=zz", "/debug/trace?id=00ff");
    handle.shutdown();
}
