//! The durable write path: fsync-acknowledged `/ingest` on a leader with a
//! write-ahead log, an in-process follower tailing `/wal`, distinct `/solve`
//! reads beside the writes, then cold recovery and a fresh follower's
//! catch-up.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use morer_core::clustering::ReclusterPolicy;
use morer_core::replication::FollowerState;
use morer_core::wal::{Durability, Wal, WalOptions, BASE_FILE, HEADER_LEN, LOG_FILE};
use morer_core::{IngestReport, Morer, MorerConfig, SolveOutcome};
use morer_data::generator::{camera, DatasetScale};
use morer_data::ErProblem;
use morer_serve::{
    Connection, MorerServer, Replica, ReplicaConfig, ServeBackend, ServeConfig, ServerHandle,
    StatsResponse,
};

use crate::stats::{due_offset, median, Tail};
use crate::trace::Tracer;
use crate::{canonical, Gates, PhaseOut};

/// Seed of the first leader's initial problems. The leaders are the
/// fixture under test; the run's seed draws the arrivals and reads.
const FIXTURE_SEED: u64 = 6;
/// Longest the benchmark waits for a follower to reach an epoch.
const CATCH_UP_TIMEOUT: Duration = Duration::from_secs(60);
/// Fresh followers bootstrapped per leader after its arrivals;
/// `replica_catchup_s` reports the median over all leaders.
const CATCH_UPS: usize = 3;
/// Cold opens of each leader's WAL after its arrivals; `recovery_s` reports
/// the median over all leaders.
const RECOVERIES: usize = 3;
/// Poll interval of the benchmark's own epoch watches (finer than
/// `Replica::await_epoch`'s, so catch-up and lag are not quantized by it).
const WATCH: Duration = Duration::from_micros(500);

/// Size of the ingest phase.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Camera generator scale of the initial problems and arrivals.
    pub scale: f64,
    /// Independent leaders per run, each with its own initial problems,
    /// arrivals and reads.
    pub draws: usize,
    /// Problems ingested per leader, one per `/ingest`.
    pub arrivals: usize,
    /// Offered rate of the concurrent `/solve` reads, per second.
    pub read_rate: f64,
    /// WAL records between compactions (0: never).
    pub compact_every: u64,
}

impl Params {
    /// The companion size other workloads run. It never compacts, so
    /// recovery and catch-up replay all 45 records: on a 10-record log
    /// their few tens of milliseconds varied by a quarter from run to run.
    pub const COMPANION: Self = Self {
        scale: 0.02,
        draws: 2,
        arrivals: 45,
        read_rate: 100.0,
        compact_every: 0,
    };

    /// The ingest-replicated workload: three leaders, each built over the
    /// paper-shaped camera benchmark (default scale), taking four arrivals
    /// per second of measuring time. Compaction runs every two thirds of a
    /// leader's arrivals, so every log compacts during the run and holds a
    /// third of the records when recovery replays it.
    pub fn full(seconds: f64) -> Self {
        let arrivals = ((seconds * 4.0).round() as usize).max(12);
        Self {
            scale: 0.1,
            draws: 3,
            arrivals,
            read_rate: 40.0,
            compact_every: (arrivals * 2 / 3) as u64,
        }
    }
}

fn config() -> MorerConfig {
    MorerConfig {
        recluster: ReclusterPolicy::Never,
        ..MorerConfig::default()
    }
}

/// `n` problems from further draws of the generator, never seen by the
/// leader.
fn fresh_problems(scale: f64, seed: u64, n: usize) -> Vec<ErProblem> {
    let mut out = Vec::with_capacity(n);
    let mut draw = 1u64;
    while out.len() < n {
        let bench = camera(
            DatasetScale::Custom(scale),
            0.5,
            seed.wrapping_mul(1000).wrapping_add(draw),
        );
        out.extend(bench.problems.into_iter().take(n - out.len()));
        draw += 1;
    }
    out
}

fn replica(addr: &str) -> Replica {
    Replica::start(ReplicaConfig {
        leader: addr.to_owned(),
        morer: config(),
        ..ReplicaConfig::default()
    })
}

/// Watch `replica` until it reaches `epoch`; false on timeout.
fn watch(replica: &Replica, epoch: u64) -> bool {
    let deadline = Instant::now() + CATCH_UP_TIMEOUT;
    while replica.epoch() < epoch && Instant::now() < deadline {
        std::thread::sleep(WATCH);
    }
    replica.epoch() >= epoch
}

/// One acknowledged ingest.
struct Ack {
    latency: Duration,
    at: Instant,
    epoch: u64,
}

/// What one leader measured.
#[derive(Default)]
struct Draw {
    setup_s: f64,
    arrivals: usize,
    arrival_pairs: usize,
    entries: usize,
    ingest_ms: Vec<f64>,
    acked: usize,
    arrival_s: f64,
    read_ms: Vec<f64>,
    failed: usize,
    lag_ms: Vec<f64>,
    catchup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    log_bytes: u64,
    compactions: u64,
    frames: u64,
    resyncs: u64,
    retrained: usize,
    replay_traced_s: f64,
    replay_untraced_s: f64,
}

/// One leader: its server, tailing follower, twin and traffic.
struct Leader {
    twin: Morer,
    handle: ServerHandle,
    tail: Replica,
    dir: PathBuf,
    arrivals: Vec<(ErProblem, String)>,
    reads: Vec<(ErProblem, String)>,
    start_epoch: u64,
    acks: Vec<Option<Ack>>,
    next_read: usize,
    seen: BTreeMap<u64, Instant>,
    d: Draw,
}

impl Leader {
    /// Build the leader over its fixture, start it with a WAL and a
    /// tailing follower, and encode its arrivals and reads.
    fn setup(params: Params, fixture: u64, seed: u64, dir: &Path, gates: &mut Gates) -> Self {
        let t_setup = Instant::now();
        let bench = camera(DatasetScale::Custom(params.scale), 0.5, fixture);
        let (leader, _) = Morer::build(bench.initial_problems(), &config());
        let twin = leader.clone();
        let handle = MorerServer::start(
            leader,
            &ServeConfig {
                backend: ServeBackend::Reactor,
                wal_dir: Some(dir.join("leader")),
                durability: Durability::Fsync,
                compact_every: params.compact_every,
                ..ServeConfig::default()
            },
        )
        .expect("start the durable leader");
        let tail = replica(&handle.addr().to_string());
        gates.check(
            watch(&tail, handle.epoch()),
            "follower bootstraps from the leader",
        );
        let encode = |problems: Vec<ErProblem>, batch: bool| -> Vec<(ErProblem, String)> {
            problems
                .into_iter()
                .map(|p| {
                    let body = if batch {
                        serde_json::to_string(&vec![&p])
                    } else {
                        serde_json::to_string(&p)
                    };
                    (p, body.expect("encode a request body"))
                })
                .collect()
        };
        let arrivals = encode(
            fresh_problems(params.scale, seed ^ 0xA77, params.arrivals),
            true,
        );
        // distinct reads for up to 100 ms per arrival
        let n_reads = (params.read_rate * params.arrivals as f64 * 0.1).ceil() as usize + 20;
        let reads = encode(fresh_problems(params.scale, seed ^ 0x5EAD, n_reads), false);
        let d = Draw {
            setup_s: t_setup.elapsed().as_secs_f64(),
            arrivals: arrivals.len(),
            arrival_pairs: arrivals.iter().map(|(p, _)| p.num_pairs()).sum(),
            ..Draw::default()
        };
        Self {
            twin,
            start_epoch: handle.epoch(),
            handle,
            tail,
            dir: dir.to_owned(),
            arrivals,
            reads,
            acks: Vec::new(),
            next_read: 0,
            seen: BTreeMap::new(),
            d,
        }
    }

    /// Note the follower's epoch if it advanced.
    fn note_epoch(tail: &Replica, seen: &mut BTreeMap<u64, Instant>) {
        let epoch = tail.epoch();
        if seen.last_key_value().is_none_or(|(&e, _)| e < epoch) {
            seen.insert(epoch, Instant::now());
        }
    }

    /// Ingest `range` of the arrivals: one closed-loop ingest client, and
    /// beside it one open-loop reader, while this thread watches the
    /// follower's epoch (it never waits on a request, so an epoch is seen
    /// within `WATCH` of its arrival); then watch the follower until it
    /// reaches the leader.
    fn batch(&mut self, range: std::ops::Range<usize>, read_rate: f64) {
        let addr = self.handle.addr();
        let (arrivals, reads, tail, seen) = (
            &self.arrivals[range],
            &self.reads,
            &self.tail,
            &mut self.seen,
        );
        let first_read = self.next_read;
        let start = Instant::now();
        let done = AtomicBool::new(false);
        let (acks, (read_ms, failed_reads, next_read)) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut conn = Connection::open(addr).expect("connect the ingest client");
                let mut acks = Vec::new();
                for (_, body) in arrivals {
                    let sent = Instant::now();
                    let res = conn.post("/ingest", body);
                    let at = Instant::now();
                    let report = res
                        .ok()
                        .filter(|r| r.status == 200)
                        .and_then(|r| r.json::<IngestReport>().ok());
                    acks.push(report.map(|r| Ack {
                        latency: at - sent,
                        at,
                        epoch: r.epoch,
                    }));
                }
                done.store(true, Ordering::SeqCst);
                acks
            });
            let reader = scope.spawn(|| {
                let mut conn = Connection::open(addr).expect("connect the reader");
                let mut read_ms = Vec::new();
                let mut failed = 0usize;
                let mut next = first_read;
                while !done.load(Ordering::SeqCst) {
                    let due = start + due_offset((next - first_read) as u64, read_rate);
                    if next < reads.len() && Instant::now() >= due {
                        let (p, body) = &reads[next];
                        let ok = conn
                            .post("/solve", body)
                            .ok()
                            .filter(|r| r.status == 200)
                            .is_some_and(|r| {
                                r.json::<SolveOutcome>()
                                    .is_ok_and(|o| o.predictions.len() == p.num_pairs())
                            });
                        if ok {
                            read_ms.push((Instant::now() - due).as_secs_f64() * 1000.0);
                        } else {
                            failed += 1;
                            read_ms.push(f64::INFINITY);
                        }
                        next += 1;
                    } else {
                        std::thread::sleep(WATCH);
                    }
                }
                (read_ms, failed, next)
            });
            while !done.load(Ordering::SeqCst) {
                Self::note_epoch(tail, seen);
                std::thread::sleep(WATCH);
            }
            (
                writer.join().expect("ingest client thread"),
                reader.join().expect("reader thread"),
            )
        });
        let end = acks
            .iter()
            .flatten()
            .map(|a: &Ack| a.at)
            .next_back()
            .unwrap_or(start);
        self.d.arrival_s += end.duration_since(start).as_secs_f64();
        self.d.read_ms.extend(read_ms);
        self.d.failed += failed_reads;
        self.next_read = next_read;
        // the follower's remaining epochs, watched the same way
        let epoch = self.handle.epoch();
        let deadline = Instant::now() + CATCH_UP_TIMEOUT;
        while self.seen.last_key_value().is_none_or(|(&e, _)| e < epoch)
            && Instant::now() < deadline
        {
            Self::note_epoch(&self.tail, &mut self.seen);
            std::thread::sleep(WATCH);
        }
        self.acks.extend(acks);
    }

    /// Fresh followers' catch-up, cold recovery and the in-process twin;
    /// the leader's gates.
    fn finish(self, params: Params, mut tracer: Option<&mut Tracer>, gates: &mut Gates) -> Draw {
        let Self {
            mut twin,
            handle,
            tail,
            dir,
            arrivals,
            start_epoch,
            acks,
            seen,
            mut d,
            ..
        } = self;
        let addr = handle.addr();
        let leader_dir = dir.join("leader");
        let acked: Vec<&Ack> = acks.iter().flatten().collect();
        d.acked = acked.len();
        d.failed += acks.len() - acked.len();
        d.ingest_ms = acks
            .iter()
            .map(|a| {
                a.as_ref()
                    .map_or(f64::INFINITY, |a| a.latency.as_secs_f64() * 1000.0)
            })
            .collect();
        // lag: from an ingest's ack until the follower first showed its epoch
        d.lag_ms = acked
            .iter()
            .map(|a| {
                seen.range(a.epoch..)
                    .next()
                    .map_or(f64::INFINITY, |(_, &t)| {
                        t.saturating_duration_since(a.at).as_secs_f64() * 1000.0
                    })
            })
            .collect();
        let final_epoch = handle.epoch();

        // fresh followers bootstrapping from the leader, one after another
        let mut followers_same = true;
        for _ in 0..CATCH_UPS {
            let t = Instant::now();
            let follower = replica(&addr.to_string());
            let reached = watch(&follower, final_epoch);
            d.catchup_s.push(t.elapsed().as_secs_f64());
            followers_same &=
                reached && canonical(&follower.repository()) == canonical(&tail.repository());
            follower.shutdown();
        }
        let stats: Option<StatsResponse> = Connection::open(addr)
            .and_then(|mut c| c.get("/stats"))
            .ok()
            .and_then(|r| r.json().ok());
        d.compactions = stats
            .as_ref()
            .and_then(|s| s.wal)
            .map_or(0, |w| w.compactions);
        let status = tail.status();
        d.frames = status.frames_applied;
        d.resyncs = status.resyncs;
        let tail_bytes = canonical(&tail.repository());
        handle.shutdown();
        tail.shutdown();

        // cold recovery of the leader's WAL directory
        let mut recovered_bytes = Vec::new();
        for _ in 0..RECOVERIES {
            let t = Instant::now();
            let recovered = Morer::open_with(
                &leader_dir,
                &config(),
                WalOptions {
                    durability: Durability::Fsync,
                    compact_every: params.compact_every,
                },
            )
            .expect("recover the leader's WAL");
            d.recovery_s.push(t.elapsed().as_secs_f64());
            if recovered_bytes.is_empty() {
                gates.check(
                    recovered.epoch() == final_epoch,
                    "recovered epoch equals the leader's",
                );
                recovered_bytes = canonical(&recovered.repository());
            }
        }

        // the in-process twin: the same arrivals through Morer::add_problem,
        // logging to a buffered, never-compacted WAL whose length gives the
        // bytes per commit record
        let twin_dir = dir.join("twin");
        twin.attach_wal(
            &twin_dir,
            WalOptions {
                durability: Durability::Buffered,
                compact_every: 0,
            },
        )
        .expect("attach the twin's WAL");
        for (i, (p, body)) in arrivals.iter().enumerate() {
            let report = match tracer.as_deref_mut() {
                Some(t) => {
                    t.span("wire.decode_ingest", i as u64, |_| {
                        serde_json::from_str::<Vec<ErProblem>>(body).expect("decode an arrival")
                    });
                    t.span("writer.ingest", i as u64, |_| twin.add_problem(p))
                }
                None => twin.add_problem(p),
            }
            .expect("twin ingest");
            d.retrained += report.models_retrained;
        }
        twin.flush_wal().expect("flush the twin's WAL");
        let twin_bytes = canonical(&twin.repository());
        d.log_bytes = twin.durability().expect("the twin has a WAL").log_bytes - HEADER_LEN;
        d.entries = twin.num_models();
        gates.check(
            twin.epoch() == final_epoch,
            "twin epoch equals the leader's",
        );
        gates.check(
            recovered_bytes == twin_bytes,
            "recovered WAL state equals the in-process twin",
        );
        gates.check(
            tail_bytes == twin_bytes,
            "tailing follower equals the in-process twin",
        );
        gates.check(
            followers_same,
            "caught-up fresh followers equal the tailing follower",
        );
        gates.check(
            d.acked == d.arrivals && final_epoch == start_epoch + d.acked as u64,
            "every ingest acknowledged, one commit each",
        );
        if let Some(t) = tracer {
            let (traced, untraced) = replay_log(&twin_dir, &dir, t, gates, &twin_bytes);
            d.replay_traced_s = traced;
            d.replay_untraced_s = untraced;
        }
        d
    }
}

/// The ingest phase between its set-up and its report.
pub struct Ingest {
    params: Params,
    leaders: Vec<Leader>,
}

impl Ingest {
    /// Build and start every leader with its follower.
    pub fn setup(params: Params, seed: u64, dir: &Path, gates: &mut Gates) -> Self {
        let leaders = (0..params.draws as u64)
            .map(|i| {
                let leader_seed = seed.wrapping_mul(1000).wrapping_add(i);
                let leader_dir = dir.join(format!("ingest-{i}"));
                Leader::setup(params, FIXTURE_SEED + i, leader_seed, &leader_dir, gates)
            })
            .collect();
        Self { params, leaders }
    }

    /// Ingest this round's share of every leader's arrivals.
    pub fn round(&mut self, round: usize, rounds: usize) {
        let n = self.params.arrivals;
        for leader in &mut self.leaders {
            leader.batch(
                n * round / rounds..n * (round + 1) / rounds,
                self.params.read_rate,
            );
        }
    }

    /// Catch-up, recovery, twins and gates per leader; pool the samples.
    pub fn finish(self, trace: bool, gates: &mut Gates) -> PhaseOut {
        let params = self.params;
        let mut tracer = trace.then(Tracer::default);
        let draws: Vec<Draw> = self
            .leaders
            .into_iter()
            .map(|l| l.finish(params, tracer.as_mut(), gates))
            .collect();
        report(params, &draws, tracer)
    }
}

fn report(params: Params, draws: &[Draw], tracer: Option<Tracer>) -> PhaseOut {
    let all = |f: fn(&Draw) -> &Vec<f64>| draws.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let sum = |f: fn(&Draw) -> f64| draws.iter().map(f).sum::<f64>();
    let setups: Vec<f64> = draws.iter().map(|d| d.setup_s).collect();
    let mut out = PhaseOut {
        setup_s: median(&setups),
        ..PhaseOut::default()
    };
    out.attempted = draws
        .iter()
        .map(|d| (d.arrivals + d.read_ms.len()) as u64)
        .sum();
    out.failed = draws.iter().map(|d| d.failed as u64).sum();

    let ingest = Tail::of(&all(|d| &d.ingest_ms), 0.90);
    let reads = Tail::of(&all(|d| &d.read_ms), 0.99);
    let lag = Tail::of(&all(|d| &d.lag_ms), 0.90);
    let acked = sum(|d| d.acked as f64);
    out.e2e("ingest_p50_ms", ingest.p50, "ms");
    out.e2e("replica_lag_p90_ms", lag.tail, "ms");
    // these moved with outside load by more than any bound the benchmark
    // could hold them to; they are reported unbounded, with the per-layer
    // metrics
    out.layer("ingest_p90_ms", ingest.tail, "ms");
    out.layer("ingest_per_s", acked / sum(|d| d.arrival_s), "ops/s");
    out.layer("mixed_read_p99_ms", reads.tail, "ms");
    out.layer("recovery_s", median(&all(|d| &d.recovery_s)), "s");
    out.layer("replica_catchup_s", median(&all(|d| &d.catchup_s)), "s");
    out.e2e(
        "wal_bytes_per_ingest",
        sum(|d| d.log_bytes as f64) / acked.max(1.0),
        "B",
    );
    out.note(format!(
        "ingest: leaders={} arrivals={} arrival_pairs={} acked={} entries={} setup_s={setups:.3?} \
         arrival_s={:.3} ingest_p{:.0} (n={}) reads={} read_p{:.1} (n={}) lag_p{:.0} (n={}) \
         compactions={} compact_every={}",
        draws.len(),
        sum(|d| d.arrivals as f64),
        sum(|d| d.arrival_pairs as f64),
        acked,
        sum(|d| d.entries as f64),
        sum(|d| d.arrival_s),
        ingest.percentile * 100.0,
        ingest.samples,
        reads.samples,
        reads.percentile * 100.0,
        reads.samples,
        lag.percentile * 100.0,
        lag.samples,
        sum(|d| d.compactions as f64),
        params.compact_every,
    ));

    if let Some(tracer) = tracer {
        let ms = |name: &str| {
            tracer
                .durations(name)
                .iter()
                .map(|d| d * 1000.0)
                .collect::<Vec<_>>()
        };
        let writer_ms = median(&ms("writer.ingest"));
        let decode_ms = median(&ms("wire.decode_ingest"));
        let append_ms = median(&ms("wal.append"));
        let fsync_ms = median(&ms("wal.append_fsync")) - append_ms;
        out.layer("writer.ingest_ms", writer_ms, "ms");
        out.layer(
            "writer.models_retrained",
            sum(|d| d.retrained as f64),
            "count",
        );
        out.layer("wal.encode_ms", median(&ms("wal.encode")), "ms");
        out.layer("wal.append_ms", append_ms, "ms");
        out.layer("wal.fsync_ms", fsync_ms, "ms");
        out.layer(
            "wal.record_bytes",
            sum(|d| d.log_bytes as f64) / acked.max(1.0),
            "B",
        );
        out.layer("wal.compactions", sum(|d| d.compactions as f64), "count");
        out.layer(
            "replication.apply_ms",
            median(&ms("replication.apply")),
            "ms",
        );
        out.layer("replication.frames", sum(|d| d.frames as f64), "count");
        out.layer("replication.resyncs", sum(|d| d.resyncs as f64), "count");
        // one ingest's layers: decode the body, the writer (the twin's
        // writer span already includes its buffered append), the fsync
        out.accounting(
            "ingest",
            ingest.p50 / 1000.0,
            (decode_ms + writer_ms + fsync_ms) / 1000.0,
            sum(|d| d.replay_traced_s),
            sum(|d| d.replay_untraced_s),
        );
        out.tracer = Some(tracer);
    }
    out
}

/// Replay the twin's logged commit records through encode, append (in
/// buffered and fsync modes) and follower apply, each inside a span, and
/// once more without spans; returns the traced and untraced seconds.
fn replay_log(
    twin_dir: &Path,
    dir: &Path,
    tracer: &mut Tracer,
    gates: &mut Gates,
    twin_bytes: &[u8],
) -> (f64, f64) {
    let base_text =
        std::fs::read_to_string(twin_dir.join(BASE_FILE)).expect("read the twin's base");
    let log = std::fs::read(twin_dir.join(LOG_FILE)).expect("read the twin's log");
    let mut reader = morer_core::replication::FrameReader::new();
    reader.push(&log[HEADER_LEN as usize..]);
    let mut frames = Vec::new();
    let mut offset = HEADER_LEN;
    while let Ok(Some((record, len))) = reader.next_frame() {
        frames.push((record, offset, len));
        offset += len;
    }
    let base = morer_core::replication::decode_base_snapshot(&base_text).expect("decode the base");

    let pass = |tracer: Option<&mut Tracer>| {
        let mut t = tracer;
        let mut span = |name: &'static str, r: u64, f: &mut dyn FnMut()| match t.as_deref_mut() {
            Some(t) => t.span(name, r, |_| f()),
            None => f(),
        };
        let start = Instant::now();
        for (mode, name) in [
            (Durability::Buffered, "wal.append"),
            (Durability::Fsync, "wal.append_fsync"),
        ] {
            let wal_dir = dir.join(format!("replay-{}", mode.as_str()));
            let _ = std::fs::remove_dir_all(&wal_dir);
            let mut wal = Wal::create(
                &wal_dir,
                WalOptions {
                    durability: mode,
                    compact_every: 0,
                },
                &base.repository,
                base.epoch,
            )
            .expect("create a replay WAL");
            for (i, (record, _, _)) in frames.iter().enumerate() {
                if mode == Durability::Buffered {
                    span("wal.encode", i as u64, &mut || {
                        std::hint::black_box(
                            serde_json::to_string(record).expect("encode a record"),
                        );
                    });
                }
                span(name, i as u64, &mut || {
                    wal.append(record).expect("append a record")
                });
            }
            drop(wal);
            let _ = std::fs::remove_dir_all(&wal_dir);
        }
        let mut follower = FollowerState::from_base(&base_text).expect("bootstrap a follower");
        for (i, (_, at, len)) in frames.iter().enumerate() {
            let bytes = &log[*at as usize..(*at + *len) as usize];
            span("replication.apply", i as u64, &mut || {
                follower.ingest_segment(*at, bytes);
            });
        }
        (
            start.elapsed().as_secs_f64(),
            canonical(&follower.repository()),
        )
    };
    let (untraced_s, _) = pass(None);
    let (traced_s, follower_bytes) = pass(Some(tracer));
    gates.check(
        follower_bytes == twin_bytes,
        "follower replay of the logged records equals the twin",
    );
    (traced_s, untraced_s)
}
