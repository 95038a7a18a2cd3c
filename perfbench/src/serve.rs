//! The serving path: an open-loop ladder of distinct `/solve` queries
//! against the reactor server.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use morer_bench::workload::{repository_problems, repository_workload};
use morer_core::repository::ModelRepository;
use morer_core::selection::classify;
use morer_core::{ModelSearcher, Morer, MorerConfig, SolveOutcome};
use morer_data::ErProblem;
use morer_serve::{
    Connection, MorerServer, ServeBackend, ServeConfig, ServerHandle, StatsResponse,
};

use crate::stats::{backlog_growing, due_offset, lateness, median, Tail};
use crate::trace::Tracer;
use crate::{timed_setup, Gates, PhaseOut};

/// Feature count of the generated repository and queries.
const FEATURES: usize = 6;
/// Seed of the served repository. The repository is the fixture under
/// test; the run's seed draws the query stream.
const FIXTURE_SEED: u64 = 6;
/// Every this many requests, the response is kept and checked against the
/// in-process searcher.
const CHECK_EVERY: usize = 10;
/// Every this many requests, indexed search is checked against the
/// exhaustive scan (which scores all entries, so it is sampled sparsely).
const EXHAUSTIVE_EVERY: usize = 100;
/// Pause between ladder steps, so one step's queue cannot spill into the
/// next.
const STEP_GAP: Duration = Duration::from_millis(150);
/// Pairs per ordinary query (and per entry's training problem).
const ROWS: usize = 160;
/// Pairs per large query.
const BIG_ROWS: usize = 2000;
/// One query in this many is large.
const BIG_EVERY: usize = 10;
/// The ladder rate whose latency `read_p50_ms` / `read_p99_ms` report, in
/// requests per second.
const NOMINAL: f64 = 150.0;
/// Times the nominal step runs; the read latencies are the medians over
/// these repetitions.
const NOMINAL_REPS: usize = 6;
/// Latency limit on the tail percentile, in milliseconds.
const LIMIT_MS: f64 = 50.0;

/// Size and schedule of the serve phase.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Repository entries.
    pub entries: usize,
    /// Offered rates, ascending, in requests per second.
    pub ladder: &'static [f64],
    /// Seconds per ladder step.
    pub step_s: f64,
    /// Seconds of one nominal step.
    pub nominal_s: f64,
}

impl Params {
    /// The companion size other workloads run. Its ladder stops at
    /// 450 req/s, about a third of the 200-entry repository's capacity
    /// (~1,250 req/s), to keep the companion short: on the workloads that
    /// run it, `read_max_rps` catches only a large loss of capacity.
    pub const COMPANION: Self = Self {
        entries: 200,
        ladder: &[150.0, 250.0, 350.0, 450.0],
        step_s: 0.5,
        nominal_s: 0.6,
    };

    /// The serve-read workload: a 2,000-entry repository, 160-pair queries
    /// with one in ten at 2,000 pairs. The nominal step offers 150 req/s
    /// in six 1.5 s windows (225 samples each), one per round; the read
    /// latencies are the medians over the windows, so outside load that
    /// hits one window does not move them. The ladder climbs to about
    /// twice the repository's capacity (~800 req/s on two cores), so its
    /// top steps fail today and a gain in capacity has steps left to pass.
    pub fn full(seconds: f64) -> Self {
        Self {
            entries: 2000,
            ladder: &[
                150.0, 300.0, 450.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1200.0, 1500.0,
            ],
            step_s: (seconds / 20.0).max(0.5),
            nominal_s: 1.5,
        }
    }

    /// The schedule: every ladder step once, the nominal step
    /// `NOMINAL_REPS` times.
    fn schedule(&self) -> Vec<(f64, f64)> {
        let mut steps: Vec<(f64, f64)> = (0..NOMINAL_REPS)
            .map(|_| (NOMINAL, self.nominal_s))
            .collect();
        steps.extend(
            self.ladder
                .iter()
                .filter(|&&r| r != NOMINAL)
                .map(|&r| (r, self.step_s)),
        );
        steps
    }
}

/// The served config: the default pipeline (its analysis options decide
/// search), shared by server and in-process reference.
fn config() -> MorerConfig {
    MorerConfig::default()
}

struct Setup {
    searcher: ModelSearcher,
    handle: ServerHandle,
}

fn setup(params: Params, seed: u64, gates: &mut Gates) -> Setup {
    let repository = ModelRepository {
        entries: repository_workload(params.entries, ROWS, FEATURES, FIXTURE_SEED),
    };
    let searcher = ModelSearcher::from_repository(repository.clone(), &config());
    searcher.warm();
    let handle = MorerServer::start(
        Morer::from_repository(repository, &config()),
        &ServeConfig {
            backend: ServeBackend::Reactor,
            ..ServeConfig::default()
        },
    )
    .expect("start the reactor server");
    // warm-up on queries outside the measured set: the served answer must
    // equal the in-process searcher's
    let warm = queries(seed ^ 0x3A7E, 40);
    let mut conn = Connection::open(handle.addr()).expect("connect to the server");
    let mut same = true;
    for (q, body) in &warm {
        let res = conn.post("/solve", body).expect("warm-up solve");
        same &= res.status == 200
            && res
                .json::<SolveOutcome>()
                .is_ok_and(|o| o == searcher.solve(q));
    }
    gates.check(same, "served /solve equals ModelSearcher::solve (warm-up)");
    Setup { searcher, handle }
}

/// `n` distinct queries and their request bodies; one in `BIG_EVERY` large.
fn queries(seed: u64, n: usize) -> Vec<(ErProblem, String)> {
    let n_big = n / BIG_EVERY;
    let small = repository_problems(n - n_big, ROWS, FEATURES, seed);
    let big = repository_problems(n_big, BIG_ROWS, FEATURES, seed ^ 0xB16);
    let (mut small, mut big) = (small.into_iter(), big.into_iter());
    (0..n)
        .map(|i| {
            let p = if (i + 1) % BIG_EVERY == 0 {
                big.next()
            } else {
                small.next()
            }
            .or_else(|| small.next())
            .expect("enough generated queries");
            let body = serde_json::to_string(&p).expect("encode a query");
            (p, body)
        })
        .collect()
}

/// The first nominal window's samples and queries, kept for the traced
/// replay.
type Nominal = (Vec<Sample>, Vec<(ErProblem, String)>);

/// One request of an open loop.
struct Sample {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    body: Option<String>,
}

/// Offer `bodies` at `rate` per second over `conns` connections, each
/// request sent when due (or as soon as its connection is free).
fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    rate: f64,
    conns: usize,
) -> (Instant, Vec<Sample>) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut per_conn: Vec<Vec<(usize, Sample)>> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|j| {
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).ok();
                    let mut out = Vec::new();
                    for i in (j..bodies.len()).step_by(conns) {
                        let due = t0 + due_offset(i as u64, rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let res = match conn.as_mut() {
                            Some(c) => c.post("/solve", &bodies[i]).ok(),
                            None => None,
                        };
                        let done = Instant::now();
                        let ok = res.as_ref().is_some_and(|r| r.status == 200);
                        if res.is_none() {
                            conn = Connection::open(addr).ok();
                        }
                        let body = (i % CHECK_EVERY == 0)
                            .then(|| res.map(|r| r.body))
                            .flatten();
                        out.push((
                            i,
                            Sample {
                                due,
                                sent,
                                done,
                                ok,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        per_conn = workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread"))
            .collect();
    });
    let mut all: Vec<(usize, Sample)> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    (t0, all.into_iter().map(|(_, s)| s).collect())
}

/// What one ladder step measured.
struct Step {
    tail: Tail,
    late: Tail,
    ok: usize,
    failed: usize,
    achieved: f64,
    backlog: bool,
    pass: bool,
}

fn summarise(t0: Instant, samples: &[Sample], limit_ms: f64) -> Step {
    let ms = |d: Duration| d.as_secs_f64() * 1000.0;
    let latency: Vec<f64> = samples
        .iter()
        .map(|s| {
            if s.ok {
                ms(s.done - s.due)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let late: Vec<f64> = samples
        .iter()
        .map(|s| ms(lateness(s.due, s.sent)))
        .collect();
    let ok = samples.iter().filter(|s| s.ok).count();
    let failed = samples.len() - ok;
    let end = samples.iter().map(|s| s.done).max().unwrap_or(t0);
    let tail = Tail::of(&latency, 0.99);
    let backlog = backlog_growing(&late, limit_ms);
    Step {
        tail,
        late: Tail::of(&late, 0.99),
        ok,
        failed,
        achieved: ok as f64 / (end - t0).as_secs_f64(),
        backlog,
        pass: failed == 0 && tail.tail <= limit_ms && !backlog,
    }
}

/// The serve phase between its set-up and its report.
pub struct Serve {
    params: Params,
    seed: u64,
    searcher: ModelSearcher,
    handle: ServerHandle,
    conns: usize,
    schedule: Vec<(f64, f64)>,
    steps: Vec<Option<Step>>,
    nominal: Option<Nominal>,
    served_same: bool,
    index_same: bool,
    checked: usize,
    out: PhaseOut,
}

impl Serve {
    /// Build the repository, start and warm the server (three times; the
    /// last one serves).
    pub fn setup(params: Params, seed: u64, gates: &mut Gates) -> Self {
        let (Setup { searcher, handle }, setup_s) = timed_setup(|| setup(params, seed, gates));
        let schedule = params.schedule();
        Self {
            params,
            seed,
            searcher,
            handle,
            conns: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            steps: schedule.iter().map(|_| None).collect(),
            schedule,
            nominal: None,
            served_same: true,
            index_same: true,
            checked: 0,
            out: PhaseOut {
                setup_s,
                ..PhaseOut::default()
            },
        }
    }

    /// Run this round's share of the schedule.
    pub fn round(&mut self, round: usize, rounds: usize) {
        for k in (round..self.schedule.len()).step_by(rounds) {
            self.step(k);
        }
    }

    fn step(&mut self, k: usize) {
        let (rate, seconds) = self.schedule[k];
        let n = (rate * seconds).round() as usize;
        let qs = queries(self.seed.wrapping_mul(31).wrapping_add(k as u64 + 1), n);
        let bodies: Vec<String> = qs.iter().map(|(_, b)| b.clone()).collect();
        let (t0, samples) = open_loop(self.handle.addr(), &bodies, rate, self.conns);
        drop(bodies);
        for (i, ((q, _), s)) in qs.iter().zip(&samples).enumerate() {
            if let Some(body) = &s.body {
                self.checked += 1;
                self.served_same &= serde_json::from_str::<SolveOutcome>(body)
                    .is_ok_and(|o| o == self.searcher.solve(q));
            }
            if i % EXHAUSTIVE_EVERY == 0 {
                self.index_same &=
                    self.searcher.search(q).ok() == self.searcher.search_exhaustive(q).ok();
            }
        }
        let step = summarise(t0, &samples, LIMIT_MS);
        self.out.attempted += samples.len() as u64;
        self.out.failed += step.failed as u64;
        self.out.note(format!(
            "serve step: rate={rate} sent={} ok={} failed={} achieved_rps={:.1} p50_ms={:.3} \
             p{:.1}_ms={:.3} (n={}) late_p{:.1}_ms={:.3} backlog_growing={} pass={}",
            samples.len(),
            step.ok,
            step.failed,
            step.achieved,
            step.tail.p50,
            step.tail.percentile * 100.0,
            step.tail.tail,
            step.tail.samples,
            step.late.percentile * 100.0,
            step.late.tail,
            step.backlog,
            step.pass,
        ));
        self.steps[k] = Some(step);
        if k == 0 {
            self.nominal = Some((samples, qs));
        }
        // let the server drain before whatever runs next
        std::thread::sleep(STEP_GAP);
    }

    /// Check, summarise and (traced runs) replay the measured requests.
    pub fn finish(self, trace: bool, gates: &mut Gates) -> PhaseOut {
        let Self {
            params,
            searcher,
            handle,
            conns,
            steps,
            nominal,
            served_same,
            index_same,
            checked,
            mut out,
            ..
        } = self;
        gates.check(
            served_same && checked > 0,
            "served /solve equals ModelSearcher::solve (sampled)",
        );
        gates.check(
            index_same,
            "indexed search equals search_exhaustive (sampled)",
        );
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|s| s.expect("every step ran"))
            .collect();

        let reps = &steps[..NOMINAL_REPS];
        let p50s: Vec<f64> = reps.iter().map(|s| s.tail.p50).collect();
        let tails: Vec<f64> = reps.iter().map(|s| s.tail.tail).collect();
        out.e2e("read_p50_ms", median(&p50s), "ms");
        // reported unbounded, with the per-layer metrics (see ingest.rs)
        out.layer("read_p99_ms", median(&tails), "ms");
        // the achieved rate of the highest step that met the limit with no
        // growing backlog and no failures (a step disturbed by a burst of
        // outside load does not hide a higher step that passed)
        let max_rps = steps
            .iter()
            .filter(|s| s.pass)
            .map(|s| s.achieved)
            .fold(f64::NAN, f64::max);
        out.e2e("read_max_rps", max_rps, "req/s");
        out.note(format!(
            "serve: entries={} queries_sent={} nominal_rate={} nominal_windows={} \
             latency_limit_ms={} connections={conns} read_tail_percentile={:.1} \
             read_tail_samples={}",
            params.entries,
            out.attempted,
            NOMINAL,
            NOMINAL_REPS,
            LIMIT_MS,
            reps[0].tail.percentile * 100.0,
            reps[0].tail.samples,
        ));
        report(&searcher, handle, &steps, nominal, out, trace)
    }
}

fn report(
    searcher: &ModelSearcher,
    handle: ServerHandle,
    steps: &[Step],
    nominal: Option<Nominal>,
    mut out: PhaseOut,
    trace: bool,
) -> PhaseOut {
    let stats: Option<StatsResponse> = Connection::open(handle.addr())
        .and_then(|mut c| c.get("/stats"))
        .ok()
        .and_then(|r| r.json().ok());
    handle.shutdown();

    if trace {
        let (samples, qs) = nominal.expect("nominal step ran");
        let mut tracer = Tracer::default();
        // untraced pass over the same bodies: the overhead reference
        let start = Instant::now();
        for (_, body) in &qs {
            let p: ErProblem = serde_json::from_str(body).expect("decode a query");
            let outcome = searcher.solve(&p);
            std::hint::black_box(serde_json::to_string(&outcome).expect("encode an outcome"));
        }
        let untraced_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let mut layer_s = Vec::with_capacity(qs.len());
        for (i, (_, body)) in qs.iter().enumerate() {
            let r = i as u64;
            let before = tracer.spans().len();
            tracer.span("serve.replay", r, |t| {
                let p: ErProblem = t.span("wire.decode", r, |_| {
                    serde_json::from_str(body).expect("decode")
                });
                let hit = t
                    .span("search", r, |_| searcher.search(&p))
                    .expect("non-empty repository");
                let (predictions, probabilities) = t.span("classify", r, |_| {
                    classify(&searcher.entries()[hit.entry_index], &p)
                });
                let outcome = SolveOutcome {
                    predictions,
                    probabilities,
                    entry: Some(hit.entry_id),
                    similarity: hit.similarity,
                    retrained: false,
                    new_model: false,
                    labels_spent: 0,
                };
                t.span("wire.encode", r, |_| {
                    serde_json::to_string(&outcome).expect("encode")
                });
            });
            let spans = &tracer.spans()[before + 1..];
            layer_s.push(
                spans
                    .iter()
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                    .sum::<f64>(),
            );
        }
        let traced_s = start.elapsed().as_secs_f64();
        for (i, s) in samples.iter().enumerate() {
            tracer.record("serve.round_trip", i as u64, s.sent, s.done);
        }
        let service: Vec<f64> = samples
            .iter()
            .map(|s| (s.done - s.sent).as_secs_f64())
            .collect();
        let residual_us: Vec<f64> = service
            .iter()
            .zip(&layer_s)
            .map(|(s, l)| (s - l) * 1e6)
            .collect();
        let us = |name: &str| {
            tracer
                .durations(name)
                .iter()
                .map(|d| d * 1e6)
                .collect::<Vec<_>>()
        };
        let search = Tail::of(&us("search"), 0.99);
        out.layer("search.p50_us", search.p50, "us");
        out.layer("search.p99_us", search.tail, "us");
        if let Some(ix) = stats.as_ref().and_then(|s| s.search_index) {
            out.layer("index.shortlist_frac", ix.shortlist_frac, "ratio");
            out.layer(
                "index.exact_scored_per_query",
                ix.exact_scored as f64 / ix.queries.max(1) as f64,
                "count",
            );
            out.layer("index.fallbacks", ix.fallbacks as f64, "count");
        }
        out.layer("classify.us", median(&us("classify")), "us");
        out.layer(
            "classify.pairs",
            qs.iter().map(|(p, _)| p.num_pairs()).sum::<usize>() as f64 / qs.len() as f64,
            "count",
        );
        out.layer("wire.decode_us", median(&us("wire.decode")), "us");
        out.layer("wire.encode_us", median(&us("wire.encode")), "us");
        out.layer(
            "wire.request_bytes",
            qs.iter().map(|(_, b)| b.len()).sum::<usize>() as f64 / qs.len() as f64,
            "B",
        );
        out.layer("serve.residual_us", median(&residual_us), "us");
        if let Some(solve) = stats
            .as_ref()
            .and_then(|s| s.endpoints.iter().find(|e| e.endpoint == "solve"))
        {
            out.layer("serve.server_p99_us", solve.p99_micros as f64, "us");
        }
        let late: Vec<f64> = steps[..NOMINAL_REPS].iter().map(|s| s.late.tail).collect();
        out.layer("loadgen.late_p99_ms", median(&late), "ms");
        out.layer("loadgen.sent", out.attempted as f64, "count");
        out.layer(
            "loadgen.ok",
            steps.iter().map(|s| s.ok).sum::<usize>() as f64,
            "count",
        );
        out.layer("loadgen.failed", out.failed as f64, "count");
        out.accounting(
            "serve",
            service.iter().sum(),
            layer_s.iter().sum(),
            traced_s,
            untraced_s,
        );
        out.tracer = Some(tracer);
    }
    out
}
