//! Round-trip benchmarks of the `morer-serve` HTTP layer against the
//! in-process read path it wraps: what does serving a solve over loopback
//! HTTP/1.1 + JSON cost on top of `ModelSearcher::solve`?
//!
//! End-to-end serving speed is measured by `perfbench` (the `serve-read`
//! workload); served responses are pinned bit-identical to in-process
//! solves by `morer-serve`'s `served_solves_are_bit_identical_to_in_process`
//! test.
//!
//! The `high_concurrency` group measures what parked idle keep-alive
//! connections cost the reactor: solves at {0, 256, 1024, 4096} parked
//! connections (its slab + timer queue are the only per-connection cost).

use std::net::TcpStream;

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
use morer_serve::{Connection, MorerServer, ServeConfig};

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
/// the reactor exists for. Parked connections never send a byte; they only
/// hold a connection slot and an idle timer.
fn bench_high_concurrency(c: &mut Criterion) {
    let (morer, queries) = serve_pipeline();
    let searcher = morer.searcher().clone();
    searcher.warm();
    let body = serde_json::to_string(&queries[0]).expect("encode problem");

    let mut group = c.benchmark_group("high_concurrency");
    group.throughput(Throughput::Elements(1));

    // steady-state solve round trips while {0,256,1024,4096} idle
    // connections sit parked (default 30 s idle deadline — none are reaped
    // during the measurement, so the throughput provably does not come
    // from disconnecting them)
    for n_idle in [0usize, 256, 1024, 4096] {
        let handle =
            MorerServer::start(morer.clone(), &ServeConfig::default()).expect("start server");
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
    group.finish();
}

criterion_group!(benches, bench_serve, bench_high_concurrency);
criterion_main!(benches);
