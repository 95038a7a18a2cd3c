//! Round-trip benchmarks of the `morer-serve` HTTP layer against the
//! in-process read path it wraps: what does serving a solve over loopback
//! HTTP/1.1 + JSON cost on top of `ModelSearcher::solve`?
//!
//! End-to-end serving speed is measured by `perfbench` (the `serve-read`
//! workload); served responses are pinned bit-identical to in-process
//! solves by `morer-serve`'s `cross_backend_solves_are_bit_identical` test.
//!
//! The `high_concurrency` group (ISSUE 9) measures what parked idle
//! keep-alive connections cost each backend: the reactor serves solves at
//! {0, 256, 1024, 4096} parked connections (its slab + timer queue are
//! the only per-connection cost), while the threaded pool is measured at
//! 0 parked plus a *bounded stall probe* — with every worker pinned by an
//! idle connection a solve cannot be answered until a reap frees a
//! worker, and connections beyond the listener backlog (~128) cannot even
//! be accepted, so a {256, 1024, 4096} threaded series is physically
//! unmeasurable. The probe caps the wait at 2 s and reports the cap.

use std::net::TcpStream;
use std::time::Duration;

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};
use morer_bench::workload::analysis_workload;
use morer_core::config::{MorerConfig, TrainingMode};
use morer_core::distribution::DistributionTest;
use morer_core::pipeline::Morer;
use morer_core::searcher::SolveOutcome;
use morer_data::ErProblem;
use morer_ml::model::ModelConfig;
use morer_serve::{Connection, MorerServer, ServeBackend, ServeConfig};

fn serve_pipeline() -> (Morer, Vec<ErProblem>) {
    let problems = analysis_workload(24, 800, 6, 42);
    let config = MorerConfig {
        training: TrainingMode::Supervised { fraction: 0.5 },
        model: ModelConfig::GaussianNb,
        distribution_test: DistributionTest::KolmogorovSmirnov,
        seed: 42,
        ..MorerConfig::default()
    };
    let refs: Vec<&ErProblem> = problems[..16].iter().collect();
    let (morer, _) = Morer::build(refs, &config);
    (morer, problems[16..].to_vec())
}

fn bench_serve(c: &mut Criterion) {
    let (morer, queries) = serve_pipeline();
    let searcher = morer.searcher().clone();
    searcher.warm();
    let handle = MorerServer::start(morer, &ServeConfig::default()).expect("start server");
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| serde_json::to_string(q).expect("encode problem"))
        .collect();

    // correctness guard before timing anything: served == in-process
    let mut conn = Connection::open(handle.addr()).expect("connect");
    for (q, body) in queries.iter().zip(&bodies) {
        let res = conn.post("/solve", body).expect("solve request");
        assert_eq!(res.status, 200, "{}", res.body);
        let served: SolveOutcome = res.json().expect("decode outcome");
        assert_eq!(served, searcher.solve(q), "served solve diverged from in-process");
    }

    let mut group = c.benchmark_group("serve");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("solve_http_loopback", |b| {
        b.iter(|| {
            for body in &bodies {
                let res = conn.post("/solve", body).expect("solve request");
                black_box(res.body.len());
            }
        })
    });
    // the same solves without the HTTP + JSON round trip — the overhead
    // baseline the served number is judged against
    group.bench_function("solve_inprocess", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(searcher.solve(q).predictions.len());
            }
        })
    });
    group.bench_function("solve_batch_http_one_roundtrip", |b| {
        let batch_body = serde_json::to_string(&queries).expect("encode batch");
        b.iter(|| {
            let res = conn.post("/solve_batch", &batch_body).expect("batch request");
            black_box(res.body.len());
        })
    });
    group.finish();

    // the protocol floor: request parsing + routing + serialization with a
    // trivial handler
    let mut group = c.benchmark_group("serve_overhead");
    group.throughput(Throughput::Elements(1));
    group.bench_function("healthz_roundtrip", |b| {
        b.iter(|| {
            let res = conn.get("/healthz").expect("healthz");
            black_box(res.status);
        })
    });
    group.finish();
    handle.shutdown();
}

/// Solve throughput with idle keep-alive connections parked: the scenario
/// the reactor backend exists for. Parked connections never send a byte;
/// they only hold a connection slot and an idle timer.
fn bench_high_concurrency(c: &mut Criterion) {
    let (morer, queries) = serve_pipeline();
    let searcher = morer.searcher().clone();
    searcher.warm();
    let body = serde_json::to_string(&queries[0]).expect("encode problem");

    let mut group = c.benchmark_group("high_concurrency");
    group.throughput(Throughput::Elements(1));

    // reactor: steady-state solve round trips while {0,256,1024,4096}
    // idle connections sit parked (default 30 s idle deadline — none are
    // reaped during the measurement, so the throughput provably does not
    // come from disconnecting them)
    if cfg!(target_os = "linux") {
        for n_idle in [0usize, 256, 1024, 4096] {
            let cfg = ServeConfig { backend: ServeBackend::Reactor, ..ServeConfig::default() };
            let handle = MorerServer::start(morer.clone(), &cfg).expect("start reactor");
            let addr = handle.addr();
            let parked: Vec<TcpStream> = (0..n_idle)
                .map(|_| TcpStream::connect(addr).expect("park idle connection"))
                .collect();
            let mut conn = Connection::open(addr).expect("connect");
            // correctness guard: parked or not, served == in-process
            let res = conn.post("/solve", &body).expect("solve");
            assert_eq!(res.status, 200, "{}", res.body);
            let served: SolveOutcome = res.json().expect("decode outcome");
            assert_eq!(served, searcher.solve(&queries[0]), "served solve diverged");
            group.bench_with_input(
                BenchmarkId::new("reactor_solve", format!("{n_idle}_idle")),
                &n_idle,
                |b, _| {
                    b.iter(|| {
                        let res = conn.post("/solve", &body).expect("solve");
                        black_box(res.body.len());
                    })
                },
            );
            drop(parked);
            handle.shutdown();
        }
    }

    // threaded baseline at zero parked connections…
    let cfg = ServeConfig {
        backend: ServeBackend::Threaded,
        workers: 4,
        ..ServeConfig::default()
    };
    let handle = MorerServer::start(morer.clone(), &cfg).expect("start threaded");
    let mut conn = Connection::open(handle.addr()).expect("connect");
    group.bench_with_input(BenchmarkId::new("threaded_solve", "0_idle"), &0usize, |b, _| {
        b.iter(|| {
            let res = conn.post("/solve", &body).expect("solve");
            black_box(res.body.len());
        })
    });
    drop(conn);
    handle.shutdown();

    // …and the stall probe: 64 parked connections pin all 4 workers, so a
    // solve cannot be served until an idle reap (30 s away) — the client
    // gives up at 2 s and the reported time is that cap. A fresh server is
    // set up per measurement (setup time excluded).
    group.measurement_time(Duration::from_secs(2));
    group.bench_with_input(
        BenchmarkId::new("threaded_solve", "64_idle_capped_2s"),
        &64usize,
        |b, &n_idle| {
            b.iter_batched(
                || {
                    let handle = MorerServer::start(morer.clone(), &cfg).expect("start threaded");
                    let addr = handle.addr();
                    let parked: Vec<TcpStream> = (0..n_idle)
                        .map(|_| TcpStream::connect(addr).expect("park idle connection"))
                        .collect();
                    (handle, parked)
                },
                |(handle, parked)| {
                    let stalled = Connection::open_timeout(handle.addr(), Duration::from_secs(2))
                        .and_then(|mut conn| conn.post("/solve", &body))
                        .is_err();
                    assert!(stalled, "a fully pinned pool answered a solve without reaping");
                    drop(parked);
                    handle.shutdown();
                },
                criterion::BatchSize::PerIteration,
            )
        },
    );
    group.finish();
}

criterion_group!(benches, bench_serve, bench_high_concurrency);
criterion_main!(benches);
