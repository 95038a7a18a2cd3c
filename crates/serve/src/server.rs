//! The server: the reactor connection core (`reactor.rs`) over one shared
//! `TcpListener` (the read path), a single writer thread owning the
//! [`Morer`] pipeline (the write path), a snapshot slot connecting the
//! two, and the dispatch table every request goes through.
//!
//! ## Concurrency architecture
//!
//! ```text
//!  clients ══► reactor thread(s) ──GET inline──┐ clone Arc  ┌──────────────────────────┐
//!                   │ POST                     ├───────────►│ Mutex<Arc<ModelSearcher>>│  read path
//!                   └──► compute pool ─────────┘            └────────────▲─────────────┘
//!                              │ /ingest jobs                            │ swap per commit
//!                              ▼                                         │
//!                 bounded mpsc channel ──► writer thread (owns Morer)             write path
//! ```
//!
//! * Request handlers never hold the snapshot lock across a solve: they
//!   clone the `Arc` and serve from that epoch, so a commit never blocks a
//!   reader and a reader never observes a half-updated repository.
//! * The writer drains every queued ingest job before committing, so
//!   concurrent `/ingest` requests micro-batch into one
//!   [`Morer::add_problems`] recluster/retrain commit. Each requester gets
//!   the combined [`IngestReport`] of the commit its problems were part of.
//! * With a write-ahead log under fsync durability, the writer **group
//!   commits** ([`ServeConfig::group_commit`]): micro-batches that queued
//!   up while a commit was running are committed back to back with
//!   deferred appends, then one `fdatasync` covers the whole group and
//!   only then are the replies sent — same acknowledgement contract, a
//!   fraction of the syncs.
//! * A *transient* log failure (disk full, transient I/O error) does not
//!   kill the writer anymore: the pipeline poisons itself, `/ingest`
//!   answers errors, `/healthz` reports `degraded`, and the writer probes
//!   [`Morer::repair_wal`] every [`ServeConfig::writer_retry`] until the
//!   log is healthy again — at which point acknowledged-durable ingest
//!   resumes. Nothing unpersisted is ever acknowledged in between.
//! * Untrusted input can never take a thread down: bodies are validated at
//!   decode ([`ErProblem::validate`] plus the shape-checked
//!   `FeatureMatrix` deserializer), feature-space mismatches are rejected
//!   per job with a typed 400 (and [`Morer::add_problems`] itself rejects
//!   them with [`MorerError::InvalidProblem`] as a second line), and
//!   dispatch runs under `catch_unwind` as a last line of defense (a panic
//!   answers 500 and closes the connection; the thread lives on).
//! * Shutdown is cooperative: a flag plus a doorbell wake per reactor;
//!   in-flight requests finish, and the ingest channel closes when the
//!   last compute thread exits, which ends the writer.
//! * Durability is opt-in ([`ServeConfig::wal_dir`]): the writer commits
//!   through an attached write-ahead log, and because the log append and
//!   its fsync (under [`morer_core::wal::Durability::Fsync`]) happen
//!   *before* the reply is sent, every acknowledged `/ingest` response
//!   names an epoch that [`Morer::open`] can recover after a crash.
//! * A durable leader is also a **log-shipping leader**: `GET /wal`
//!   streams hash-verified commit frames from a byte offset and
//!   `GET /wal/base` serves the compaction base snapshot, which a
//!   [`Replica`] tails ([`MorerServer::serve_replica`]) to serve
//!   bounded-lag follower reads. Offsets are renegotiated with a `409`
//!   whenever the follower's generation or offset no longer matches the
//!   log (leader restart, compaction mid-tail).

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Deserialize;

use crate::config::ServeConfig;
use crate::http::{Method, Request};
use crate::metrics::{
    stage_name, Endpoint, EndpointStats, MetricsRegistry, Trace, STAGE_DECODE, STAGE_ENCODE,
    STAGE_SEARCH, STAGE_SOLVE, STAGE_WRITER_WAIT,
};
use crate::replica::{Replica, ReplicaCore, HDR_EPOCH, HDR_GENERATION, HDR_LOG_LEN};
use crate::wire::{
    error_json, status_for, ErrorBody, ErrorEnvelope, HealthResponse, StatsResponse, TraceDump,
    TraceSpan,
};
use morer_core::error::MorerError;
use morer_core::pipeline::{IngestReport, Morer};
use morer_core::replication::read_log_segment;
use morer_core::searcher::ModelSearcher;
use morer_core::wal::{DurabilityState, WalObs, WalOptions, HEADER_LEN};
use morer_data::ErProblem;
use morer_obs::{PromWriter, Span};

/// Upper bound on the frame bytes one `/wal` response ships (a single
/// oversized frame still ships whole — [`read_log_segment`] guarantees
/// progress past the cap).
const MAX_SEGMENT_BYTES: usize = 1 << 20;

/// How many commit rounds one group shares a sync across. Bounds reply
/// latency for the first requester of a group: later arrivals queue for
/// the next group instead of extending this one forever.
const GROUP_ROUNDS: usize = 16;

/// One queued `/ingest` request: the decoded problems and where to send
/// the commit report (or the rejection — the writer checks feature-space
/// compatibility, the one §4.2 precondition a decoded problem can still
/// violate).
pub(crate) struct IngestJob {
    problems: Vec<ErProblem>,
    reply: mpsc::Sender<Result<IngestReport, MorerError>>,
    /// When the job entered the channel — the writer meters the queue
    /// wait (`morer_writer_queue_wait_micros`) from it.
    enqueued: Instant,
}

/// The response header carrying the request's trace id (16 hex digits;
/// feed it to `GET /debug/trace?id=..` to retrieve the span breakdown).
pub(crate) const TRACE_HEADER: &str = "x-morer-trace-id";

/// One published read epoch: the epoch counter and the snapshot that
/// serves it, swapped together under one lock so an observer can never
/// pair epoch N with epoch N+1's entries.
#[derive(Clone)]
struct Published {
    epoch: u64,
    searcher: Arc<ModelSearcher>,
}

/// State shared by the reactor and compute threads, the writer and the
/// handle.
pub(crate) struct ServerState {
    /// The epoch-pinned read snapshot (plus its epoch), swapped — never
    /// mutated — per commit. In replica mode this slot is bypassed: reads
    /// come from the replica's own published snapshot.
    published: Mutex<Published>,
    /// Per-endpoint request counters and connection gauges.
    pub(crate) metrics: MetricsRegistry,
    /// Cooperative shutdown flag.
    pub(crate) shutdown: AtomicBool,
    /// Cleared while the write path cannot acknowledge durable commits: a
    /// panic escaped a commit (permanent until restart), or the
    /// write-ahead log failed and poisoned the pipeline (the writer then
    /// probes [`Morer::repair_wal`] and sets this back once the log is
    /// healthy). The read path keeps serving the last committed epoch
    /// either way; `/healthz` reports `degraded`.
    writer_alive: AtomicBool,
    /// Write-ahead-log state as of the last published commit (`None` when
    /// serving without durability); reported by `/healthz` and `/stats`.
    durability: Mutex<Option<DurabilityState>>,
    /// The write-ahead-log directory when this server ships its log
    /// (`GET /wal`, `GET /wal/base`); `None` without durability and in
    /// replica mode.
    wal_dir: Option<PathBuf>,
    /// Set in replica mode: reads are served from the replica's published
    /// snapshot, `/ingest` answers `503`, `/healthz` reports the
    /// [`crate::replica::ReplicaStatus`].
    replica: Option<Arc<ReplicaCore>>,
    /// The connection core's label ([`crate::ServeBackend::label`];
    /// reported by `/healthz`).
    backend: &'static str,
    /// The pipeline's write-ahead-log meters (append/fsync/compact
    /// timings, recovery counters). The `Arc` outlives any WAL repair or
    /// replacement, so `/metrics` series stay continuous; in replica mode
    /// it is a detached zero registry.
    wal_obs: Arc<WalObs>,
}

impl ServerState {
    /// Clone the current snapshot handle (brief lock; the solve itself
    /// runs lock-free on the cloned `Arc`).
    fn snapshot(&self) -> Arc<ModelSearcher> {
        self.published().searcher
    }

    /// Clone the current `(epoch, snapshot)` pair atomically.
    fn published(&self) -> Published {
        if let Some(replica) = &self.replica {
            let (epoch, searcher) = replica.published_pair();
            return Published { epoch, searcher };
        }
        self.published.lock().expect("published slot poisoned").clone()
    }

    /// The durability state of the last published commit.
    fn durability(&self) -> Option<DurabilityState> {
        *self.durability.lock().expect("durability slot poisoned")
    }

    /// `"ok"` while fully serving, `"degraded"` while the write path
    /// cannot commit (leader) or the leader is unreachable (replica).
    fn health(&self) -> &'static str {
        if let Some(replica) = &self.replica {
            return if replica.status().state == "disconnected" { "degraded" } else { "ok" };
        }
        if self.writer_alive.load(Ordering::Acquire) {
            "ok"
        } else {
            "degraded"
        }
    }
}

/// The MoRER model-serving server. See the crate docs for the endpoint
/// reference and [`ServeConfig`] for tuning.
pub struct MorerServer;

impl MorerServer {
    /// Start serving `morer` on [`ServeConfig::addr`]. The initial snapshot
    /// is pre-warmed (entry sketch caches built) so the first query pays no
    /// one-off cost. Returns once the listener is bound and every thread is
    /// running; serving continues until [`ServerHandle::shutdown`] (or the
    /// handle is dropped).
    ///
    /// When [`ServeConfig::wal_dir`] is set and `morer` does not already
    /// carry a write-ahead log, one is attached there before serving, so
    /// every committed `/ingest` survives a crash (recover with
    /// [`Morer::open`] and restart). A `morer` recovered by `Morer::open`
    /// keeps its own log; the config's `wal_dir` is then ignored. Any
    /// attached log is also *shipped*: followers tail it via `GET /wal`.
    ///
    /// # Errors
    /// [`MorerError::Io`] when the address cannot be bound, threads cannot
    /// be spawned, or the platform cannot serve (see
    /// [`ServeConfig::validate`]), and the [`morer_core::wal::Wal::create`] errors
    /// (including attaching over an existing log directory — `Morer::open`
    /// it instead) when `wal_dir` is set.
    pub fn start(mut morer: Morer, config: &ServeConfig) -> Result<ServerHandle, MorerError> {
        config.validate()?;
        if let Some(dir) = &config.wal_dir {
            if morer.durability().is_none() {
                morer.attach_wal(
                    dir,
                    WalOptions {
                        durability: config.durability,
                        compact_every: config.compact_every,
                    },
                )?;
            }
        }
        let listener = TcpListener::bind(config.addr.as_str())?;
        // reactors accept until WouldBlock on each readiness report
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let snapshot = morer.snapshot();
        snapshot.warm();
        let state = Arc::new(ServerState {
            published: Mutex::new(Published { epoch: morer.epoch(), searcher: snapshot }),
            metrics: MetricsRegistry::new(config.slow_request_micros, config.trace_events),
            shutdown: AtomicBool::new(false),
            writer_alive: AtomicBool::new(true),
            durability: Mutex::new(morer.durability()),
            wal_dir: morer.wal_dir(),
            replica: None,
            backend: config.backend.label(),
            // captured once: Morer re-injects this Arc into any repaired
            // or replaced Wal, so the meters survive `repair_wal`
            wal_obs: morer.wal_obs(),
        });

        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<IngestJob>(config.ingest_queue.max(1));
        let writer = {
            let state = Arc::clone(&state);
            let group_commit = config.group_commit;
            let writer_retry = config.writer_retry;
            std::thread::Builder::new()
                .name("morer-serve-writer".into())
                .spawn(move || writer_loop(morer, ingest_rx, &state, group_commit, writer_retry))?
        };

        let core = spawn_core(&listener, &state, &ingest_tx, config);
        // the core's threads hold the only remaining senders: when the
        // last one exits, the channel closes and the writer drains out
        drop(ingest_tx);
        match core {
            Ok(core) => {
                Ok(ServerHandle { addr, state, core, writer: Some(writer), replica: None })
            }
            Err(e) => {
                // spawn_core already tore its threads down; the writer
                // sees the closed channel and drains out
                let _ = writer.join();
                Err(e.into())
            }
        }
    }

    /// Serve a log-shipping [`Replica`] read-only on [`ServeConfig::addr`]:
    /// `/search`, `/solve`, `/solve_batch`, `/healthz` and `/stats` answer
    /// from the replica's bounded-lag snapshot, `/ingest` answers `503`
    /// (writes belong on the leader). `/healthz` carries the
    /// [`crate::replica::ReplicaStatus`] — `lag_epochs`, `last_contact_ms`,
    /// reconnect/resync counters — and reports `degraded` while the leader
    /// is unreachable, during which reads keep serving the last applied
    /// epoch (stale-but-consistent) instead of failing.
    ///
    /// The durability knobs of `config` (`wal_dir`, `group_commit`, ...)
    /// are ignored: a replica's persistence is the leader's log.
    ///
    /// # Errors
    /// [`MorerError::Io`] when the address cannot be bound or threads
    /// cannot be spawned, or the platform cannot serve (see
    /// [`ServeConfig::validate`]).
    pub fn serve_replica(replica: Replica, config: &ServeConfig) -> Result<ServerHandle, MorerError> {
        config.validate()?;
        let listener = TcpListener::bind(config.addr.as_str())?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let replica_core = replica.core();
        let state = Arc::new(ServerState {
            // bypassed (published() reads the replica), but kept coherent
            published: Mutex::new(Published { epoch: replica.epoch(), searcher: replica.snapshot() }),
            metrics: MetricsRegistry::new(config.slow_request_micros, config.trace_events),
            shutdown: AtomicBool::new(false),
            writer_alive: AtomicBool::new(true),
            durability: Mutex::new(None),
            wal_dir: None,
            replica: Some(replica_core),
            backend: config.backend.label(),
            // a replica has no local WAL: zero meters keep /metrics stable
            wal_obs: Arc::new(WalObs::default()),
        });
        // replica mode has no writer: /ingest is refused at dispatch, so
        // this channel is never sent on
        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<IngestJob>(1);
        drop(ingest_rx);
        let core = spawn_core(&listener, &state, &ingest_tx, config)?;
        Ok(ServerHandle { addr, state, core, writer: None, replica: Some(replica) })
    }
}

/// The running connection core: the reactor and compute threads plus the
/// doorbells shutdown rings to pop reactors out of `epoll_wait`.
struct ServeCore {
    threads: Vec<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    bells: Vec<Arc<crate::reactor::Doorbell>>,
}

/// Spawn the reactor core over the shared listener (Linux only; elsewhere
/// [`ServeConfig::validate`] has already refused to serve).
fn spawn_core(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    ingest_tx: &SyncSender<IngestJob>,
    config: &ServeConfig,
) -> Result<ServeCore, std::io::Error> {
    #[cfg(target_os = "linux")]
    {
        let core = crate::reactor::spawn_reactors(listener, state, ingest_tx, config)?;
        Ok(ServeCore { threads: core.threads, bells: core.bells })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, state, ingest_tx, config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving requires Linux (the reactor is built on epoll)",
        ))
    }
}

/// Handle to a running server: address introspection and graceful
/// shutdown. Dropping the handle shuts the server down too.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    core: ServeCore,
    writer: Option<JoinHandle<()>>,
    replica: Option<Replica>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The committed repository epoch the read path currently serves (in
    /// replica mode: the last epoch the replica applied and published).
    pub fn epoch(&self) -> u64 {
        self.state.published().epoch
    }

    /// In-process snapshot of the request metrics (what `GET /stats`
    /// reports).
    pub fn stats(&self) -> Vec<EndpointStats> {
        self.state.metrics.snapshot()
    }

    /// The replica this server fronts, when started with
    /// [`MorerServer::serve_replica`] (e.g. to
    /// [`Replica::set_leader`] after a leader restart).
    pub fn replica(&self) -> Option<&Replica> {
        self.replica.as_ref()
    }

    /// Gracefully stop the server: in-flight requests finish, every
    /// reactor and compute thread and the writer thread are joined. Queued
    /// ingest jobs still commit before the writer exits; a fronted replica
    /// stops tailing.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // reactors sleep in epoll_wait: ring each doorbell so they see the
        // flag now instead of at their next timer deadline
        #[cfg(target_os = "linux")]
        for bell in &self.core.bells {
            bell.ring();
        }
        // reactors finish in-flight requests, then exit; the last compute
        // thread drops the final ingest sender, which ends the writer
        for thread in self.core.threads.drain(..) {
            let _ = thread.join();
        }
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        if let Some(replica) = self.replica.take() {
            replica.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The single writer: drain the ingest queue, micro-batch everything
/// queued, commit (through the write-ahead log when one is attached, so
/// the reply is only sent once the commit record is persisted), publish
/// the new snapshot, answer the requesters.
///
/// **Group commit** (`group_commit`): each drained micro-batch commits
/// with a *deferred* append, and as long as more jobs are already queued
/// (up to [`GROUP_ROUNDS`] rounds) they commit back to back; then a single
/// [`Morer::flush_wal`] makes the whole group durable and only then are
/// the replies sent. Nothing is acknowledged before its bytes are synced.
///
/// **Failure envelope**: a typed I/O or log-corruption failure poisons the
/// pipeline — every unacknowledged requester of the group gets the error
/// (their commits were never synced), `/healthz` turns `degraded`, and the
/// writer stays alive, probing [`Morer::repair_wal`] every `writer_retry`
/// until the log heals; then durable ingest resumes. A panic still ends
/// the write path for good (the in-memory pipeline state is suspect).
///
/// Jobs whose problems do not fit the repository's feature space (§4.2:
/// one comparison scheme per repository) are rejected with an error reply
/// instead of joining the commit — `Morer::add_problems` would reject the
/// whole micro-batch with one typed error, but the pre-partition keeps the
/// rejection per job, so a well-formed request still commits when it was
/// batched alongside a bad one.
/// Flip the write path to degraded, counting the healthy → degraded edge
/// (`morer_writer_degraded_transitions_total`). Repair flips back via a
/// plain store; only the downward edge is a counted event.
fn mark_degraded(state: &ServerState) {
    if state.writer_alive.swap(false, Ordering::Release) {
        state.metrics.stages().degraded_transitions.fetch_add(1, Ordering::Relaxed);
    }
}

fn writer_loop(
    mut morer: Morer,
    rx: Receiver<IngestJob>,
    state: &ServerState,
    group_commit: bool,
    writer_retry: Duration,
) {
    morer.set_group_commit(group_commit);
    let retry = writer_retry.max(Duration::from_millis(10));
    let mut last_probe: Option<Instant> = None;
    loop {
        // timed receive so a poisoned log is probed for repair even while
        // no requests arrive
        let first = match rx.recv_timeout(retry) {
            Ok(job) => Some(job),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if morer.wal_poisoned().is_some() {
            let due = last_probe.is_none_or(|t| t.elapsed() >= writer_retry);
            if due {
                last_probe = Some(Instant::now());
                if matches!(morer.repair_wal(), Ok(true)) {
                    *state.durability.lock().expect("durability slot poisoned") =
                        morer.durability();
                    state.writer_alive.store(true, Ordering::Release);
                }
            }
        }
        let Some(first) = first else { continue };
        if morer.wal_poisoned().is_some() {
            // still degraded: refuse rather than acknowledge a commit the
            // log cannot persist (the requester can retry after repair)
            let _ = first.reply.send(Err(MorerError::Io(std::io::Error::other(
                "write-ahead log failed; ingest is disabled until repair succeeds",
            ))));
            continue;
        }

        // one commit group: rounds of micro-batches sharing a final sync
        let mut pending: Vec<(IngestReport, Vec<IngestJob>)> = Vec::new();
        let mut batch = vec![first];
        let mut fatal = false;
        let mut panicked = false;
        let mut rounds_committed = 0u64;
        for round in 0..GROUP_ROUNDS {
            while let Ok(more) = rx.try_recv() {
                batch.push(more);
            }
            // partition this micro-batch by feature-space compatibility; an
            // empty pipeline's width is fixed by the first accepted problem
            let mut width = morer.num_features();
            let mut accepted = Vec::new();
            let mut rejected = Vec::new();
            for job in batch.drain(..) {
                state.metrics.stages().queue_wait_micros.record_micros(job.enqueued.elapsed());
                let mut job_width = width;
                let ok = job.problems.iter().all(|p| match job_width {
                    Some(t) => p.num_features() == t,
                    None => {
                        job_width = Some(p.num_features());
                        true
                    }
                });
                if ok {
                    width = job_width;
                    accepted.push(job);
                } else {
                    rejected.push(job);
                }
            }
            for job in rejected {
                let _ = job.reply.send(Err(MorerError::InvalidProblem(format!(
                    "feature space mismatch: this repository scores {} features",
                    width.map_or_else(
                        || "an as-yet-unfixed number of".to_owned(),
                        |t| t.to_string()
                    )
                ))));
            }
            if !accepted.is_empty() {
                let problems: Vec<&ErProblem> =
                    accepted.iter().flat_map(|j| j.problems.iter()).collect();
                state.metrics.stages().batch_size.record(problems.len() as u64);
                rounds_committed += 1;
                // last line of defense: decode validation and the width
                // check above stop every known panic path, but an unforeseen
                // panic inside the recluster/retrain machinery must not
                // silently kill the write path while /healthz answers "ok"
                let commit_started = Instant::now();
                let commit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    morer.add_problems(&problems)
                }));
                state.metrics.stages().commit_micros.record_micros(commit_started.elapsed());
                match commit {
                    Ok(Ok(report)) => pending.push((report, accepted)),
                    Ok(Err(e)) => {
                        // a typed commit failure: this round's requesters
                        // get the error; I/O and log-corruption failures
                        // also poison the pipeline and end the group (the
                        // earlier rounds' deferred appends can no longer be
                        // promised durable)
                        fatal = matches!(e.kind(), "io" | "log_corrupt");
                        if fatal {
                            // flip health *before* replying: a requester
                            // that sees this failure must also see
                            // `/healthz` degraded
                            mark_degraded(state);
                        }
                        for job in accepted {
                            let _ = job.reply.send(Err(e.duplicate()));
                        }
                        if fatal {
                            break;
                        }
                    }
                    Err(_) => {
                        panicked = true;
                        mark_degraded(state);
                        // a server fault, not a client one: requesters get
                        // a 500, never a 400 suggesting their problems were
                        // bad
                        for job in accepted {
                            let _ = job.reply.send(Err(MorerError::Io(std::io::Error::other(
                                "ingest commit panicked; the write path is disabled until restart",
                            ))));
                        }
                        break;
                    }
                }
            }
            // only pull the next round's first job when another round will
            // actually run — jobs must never be popped and then dropped
            if round + 1 >= GROUP_ROUNDS {
                break;
            }
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        if rounds_committed > 0 {
            state.metrics.stages().group_rounds.record(rounds_committed);
        }
        if panicked || fatal {
            mark_degraded(state);
            // the group's earlier rounds were never synced: their
            // requesters must not be acknowledged
            let reason = if panicked {
                "ingest commit panicked before this group's sync; nothing was acknowledged"
            } else {
                "write-ahead log failed before this group's sync; nothing was acknowledged"
            };
            for (_, jobs) in pending {
                for job in jobs {
                    let _ = job.reply.send(Err(MorerError::Io(std::io::Error::other(reason))));
                }
            }
            if panicked {
                return; // in-memory pipeline state is suspect: stop writing
            }
            last_probe = None; // probe repair on the next loop turn
            continue;
        }
        if pending.is_empty() {
            continue;
        }
        // one sync for the whole group (a no-op without deferred appends);
        // only a successful sync acknowledges anything
        match morer.flush_wal() {
            Ok(()) => {
                let snapshot = morer.snapshot();
                snapshot.warm();
                *state.published.lock().expect("published slot poisoned") =
                    Published { epoch: morer.epoch(), searcher: snapshot };
                *state.durability.lock().expect("durability slot poisoned") =
                    morer.durability();
                // publish before replying: a requester that sees its report
                // also sees (at least) that epoch on the read path — and the
                // group's commit records are on disk by this point, so an
                // acknowledged ingest is a recoverable one
                for (report, jobs) in pending {
                    for job in jobs {
                        let _ = job.reply.send(Ok(report.clone()));
                    }
                }
            }
            Err(e) => {
                mark_degraded(state);
                last_probe = None;
                for (_, jobs) in pending {
                    for job in jobs {
                        let _ = job.reply.send(Err(e.duplicate()));
                    }
                }
            }
        }
    }
}

/// A routed response: status, binary body, content type, extra headers
/// (the `/wal` shipping metadata) and the metrics endpoint it counts
/// against.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) body: Vec<u8>,
    pub(crate) content_type: &'static str,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) endpoint: Endpoint,
}

impl Reply {
    pub(crate) fn json(status: u16, body: String, endpoint: Endpoint) -> Self {
        Self {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            headers: Vec::new(),
            endpoint,
        }
    }

    fn ok(body: String, endpoint: Endpoint) -> Self {
        Self::json(200, body, endpoint)
    }

    fn error(err: &MorerError, endpoint: Endpoint) -> Self {
        Self::json(status_for(err), error_json(err), endpoint)
    }
}

/// Serialize a 200 response body. The vendored `serde_json::to_string` is
/// infallible today; if a future encoder can fail, that is a server-side
/// bug and must surface as 500, never as a client-fault 4xx.
fn json_reply<T: serde::Serialize>(value: &T, endpoint: Endpoint) -> Reply {
    match serde_json::to_string(value) {
        Ok(json) => Reply::ok(json, endpoint),
        Err(e) => Reply::json(
            500,
            plain_error("internal", &format!("response encoding failed: {e}")),
            endpoint,
        ),
    }
}

/// The standard error envelope for failures that are not `MorerError`s
/// (routing and HTTP-layer rejections).
pub(crate) fn plain_error(kind: &str, message: &str) -> String {
    serde_json::to_string(&ErrorEnvelope {
        error: ErrorBody { kind: kind.to_owned(), message: message.to_owned() },
    })
    .unwrap_or_else(|_| "{\"error\":{\"kind\":\"io\",\"message\":\"render failed\"}}".into())
}

const ROUTES: [&str; 10] = [
    "/healthz",
    "/stats",
    "/metrics",
    "/debug/trace",
    "/search",
    "/solve",
    "/solve_batch",
    "/ingest",
    "/wal",
    "/wal/base",
];

/// The value of `key` in a raw query string (`a=1&b=2`; no percent
/// decoding — these endpoints only take integers), parsed by `parse`.
/// `Ok(None)` when the key is absent, so the caller's default applies; a
/// present but unparsable value is the `400 bad_request` reply in `Err`
/// — never silently replaced by the default.
fn query_param<T>(
    query: &str,
    key: &str,
    endpoint: Endpoint,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, Reply> {
    let Some(raw) = query
        .split('&')
        .find_map(|kv| kv.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
    else {
        return Ok(None);
    };
    parse(raw).map(Some).ok_or_else(|| {
        Reply::json(
            400,
            plain_error("bad_request", &format!("malformed query parameter {key}={raw:?}")),
            endpoint,
        )
    })
}

pub(crate) fn dispatch(
    request: &Request,
    state: &ServerState,
    ingest_tx: &SyncSender<IngestJob>,
    trace: &mut Trace,
) -> Reply {
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, query),
        None => (request.path.as_str(), ""),
    };
    match (request.method, path) {
        (Method::Get, "/healthz") => healthz(state),
        (Method::Get, "/stats") => stats(state),
        (Method::Get, "/metrics") => metrics_text(state),
        (Method::Get, "/debug/trace") => trace_dump(state, query),
        (Method::Get, "/wal") => wal_segment(state, query),
        (Method::Get, "/wal/base") => wal_base(state),
        (Method::Post, "/search") => search(state, &request.body, trace),
        (Method::Post, "/solve") => solve(state, &request.body, trace),
        (Method::Post, "/solve_batch") => solve_batch(state, &request.body, trace),
        (Method::Post, "/ingest") if state.replica.is_some() => Reply::json(
            503,
            plain_error("read_only", "this server is a replica; send writes to the leader"),
            Endpoint::Ingest,
        ),
        (Method::Post, "/ingest") => ingest(ingest_tx, &request.body, trace),
        (_, path) if ROUTES.contains(&path) => Reply::json(
            405,
            plain_error("method_not_allowed", &format!("wrong method for {path}")),
            Endpoint::Other,
        ),
        (_, path) => Reply::json(
            404,
            plain_error("not_found", &format!("unknown route {path}")),
            Endpoint::Other,
        ),
    }
}

fn healthz(state: &ServerState) -> Reply {
    let published = state.published();
    let wal = state.durability();
    let body = HealthResponse {
        status: state.health().to_owned(),
        backend: state.backend.to_owned(),
        epoch: published.epoch,
        models: published.searcher.num_models(),
        durability: wal
            .map_or("none", |d| if d.fsync { "fsync" } else { "buffered" })
            .to_owned(),
        durable_epoch: wal.map(|d| d.durable_epoch),
        replica: state.replica.as_ref().map(|r| r.status()),
    };
    json_reply(&body, Endpoint::Healthz)
}

fn stats(state: &ServerState) -> Reply {
    let published = state.published();
    let body = StatsResponse {
        epoch: published.epoch,
        entries: published.searcher.entries().len(),
        searchable_entries: published
            .searcher
            .entries()
            .iter()
            .filter(|e| !e.representatives.is_empty())
            .count(),
        wal: state.durability(),
        search_index: published.searcher.index_overview(),
        endpoints: state.metrics.snapshot(),
        connections: state.metrics.connection_stats(),
    };
    json_reply(&body, Endpoint::Stats)
}

/// `GET /metrics` — the whole pipeline's counters, gauges and histograms
/// in Prometheus text exposition (version 0.0.4). Histogram `le` buckets
/// are the stable power-of-two ladder of [`morer_obs::prom::LE_BOUNDS`];
/// p50/p99 are derivable from them the standard `histogram_quantile` way.
fn metrics_text(state: &ServerState) -> Reply {
    Reply {
        status: 200,
        body: render_metrics(state).into_bytes(),
        content_type: "text/plain; version=0.0.4",
        headers: Vec::new(),
        endpoint: Endpoint::Metrics,
    }
}

fn render_metrics(state: &ServerState) -> String {
    let mut w = PromWriter::new();
    let published = state.published();

    // -- request path ----------------------------------------------------
    let snaps = state.metrics.snapshot();
    w.header(
        "morer_requests_total",
        "counter",
        "Requests answered, by endpoint and status class.",
    );
    for s in &snaps {
        for (class, n) in
            [("2xx", s.status_2xx), ("4xx", s.status_4xx), ("5xx", s.status_5xx)]
        {
            w.sample(
                "morer_requests_total",
                &[("endpoint", &s.endpoint), ("class", class)],
                n as f64,
            );
        }
    }
    w.header(
        "morer_request_duration_micros",
        "histogram",
        "Request latency by endpoint, microseconds.",
    );
    for e in Endpoint::ALL {
        w.histogram(
            "morer_request_duration_micros",
            &[("endpoint", e.name())],
            &state.metrics.latency(e).snapshot(),
        );
    }

    // -- connections -------------------------------------------------------
    let c = state.metrics.connection_stats();
    for (name, kind, help, value) in [
        ("morer_connections_open", "gauge", "Connections currently being served.", c.open),
        ("morer_connections_peak", "gauge", "High-water mark of open connections.", c.peak),
        ("morer_connections_accepted_total", "counter", "Connections accepted.", c.accepted),
        (
            "morer_connections_rejected_total",
            "counter",
            "Connections refused over the max_connections cap.",
            c.rejected,
        ),
        (
            "morer_connections_idle_reaped_total",
            "counter",
            "Connections disconnected at their idle deadline.",
            c.idle_reaped,
        ),
    ] {
        w.header(name, kind, help);
        w.sample(name, &[], value as f64);
    }

    // -- writer stages -----------------------------------------------------
    let st = state.metrics.stages();
    for (name, help, hist) in [
        (
            "morer_writer_queue_wait_micros",
            "Ingest-job wait between enqueue and writer pickup, microseconds.",
            &st.queue_wait_micros,
        ),
        ("morer_writer_batch_size", "Problems per writer commit round.", &st.batch_size),
        (
            "morer_writer_commit_micros",
            "Per-round recluster/retrain commit time, microseconds.",
            &st.commit_micros,
        ),
        (
            "morer_writer_group_rounds",
            "Commit rounds sharing one group fsync.",
            &st.group_rounds,
        ),
    ] {
        w.header(name, "histogram", help);
        w.histogram(name, &[], &hist.snapshot());
    }
    w.header(
        "morer_writer_degraded_transitions_total",
        "counter",
        "Times the write path flipped healthy to degraded.",
    );
    w.sample(
        "morer_writer_degraded_transitions_total",
        &[],
        st.degraded_transitions.load(Ordering::Relaxed) as f64,
    );
    w.header("morer_writer_healthy", "gauge", "1 while the write path can commit, else 0.");
    w.sample(
        "morer_writer_healthy",
        &[],
        if state.writer_alive.load(Ordering::Acquire) { 1.0 } else { 0.0 },
    );

    // -- write-ahead log ---------------------------------------------------
    let wal = &state.wal_obs;
    for (name, help, hist) in [
        (
            "morer_wal_append_micros",
            "Per-record WAL append cost (excluding fsync), microseconds.",
            &wal.append_micros,
        ),
        ("morer_wal_fsync_micros", "Per-fdatasync cost, microseconds.", &wal.fsync_micros),
        ("morer_wal_compact_micros", "Whole-compaction cost, microseconds.", &wal.compact_micros),
    ] {
        w.header(name, "histogram", help);
        w.histogram(name, &[], &hist.snapshot());
    }
    for (name, help, value) in [
        ("morer_wal_recoveries_total", "WAL recovery passes.", &wal.recoveries),
        (
            "morer_wal_replayed_records_total",
            "Log records replayed over base snapshots at recovery.",
            &wal.replayed_records,
        ),
        (
            "morer_wal_truncated_bytes_total",
            "Torn/corrupt tail bytes truncated at recovery.",
            &wal.truncated_bytes,
        ),
    ] {
        w.header(name, "counter", help);
        w.sample(name, &[], value.load(Ordering::Relaxed) as f64);
    }

    // -- search index ------------------------------------------------------
    let idx = published.searcher.index_stats();
    for (name, help, hist) in [
        (
            "morer_index_shortlist_size",
            "Candidates surviving the bound scan, per query.",
            idx.shortlist(),
        ),
        (
            "morer_index_bound_scan_micros",
            "Query sketch + signature bound scan time, microseconds.",
            idx.bound_scan_micros(),
        ),
        (
            "morer_index_exact_score_micros",
            "Exact re-scoring time over the shortlist, microseconds.",
            idx.exact_score_micros(),
        ),
    ] {
        w.header(name, "histogram", help);
        w.histogram(name, &[], &hist.snapshot());
    }
    if let Some(overview) = published.searcher.index_overview() {
        for (name, help, value) in [
            ("morer_index_queries_total", "Queries answered through the index.", overview.queries),
            (
                "morer_index_exact_scored_total",
                "Entries exactly scored across all queries.",
                overview.exact_scored,
            ),
            (
                "morer_index_fallbacks_total",
                "Queries answered by exhaustive fallback.",
                overview.fallbacks,
            ),
        ] {
            w.header(name, "counter", help);
            w.sample(name, &[], value as f64);
        }
    }

    // -- reactor internals -------------------------------------------------
    for (name, help, hist) in [
        (
            "morer_reactor_epoll_wait_micros",
            "epoll_wait blocking time per reactor loop turn, microseconds.",
            &st.epoll_wait_micros,
        ),
        (
            "morer_reactor_dispatch_depth",
            "Readiness events delivered per reactor loop turn.",
            &st.dispatch_depth,
        ),
    ] {
        w.header(name, "histogram", help);
        w.histogram(name, &[], &hist.snapshot());
    }

    // -- epochs and replication --------------------------------------------
    w.header("morer_epoch", "gauge", "Committed repository epoch the read path serves.");
    w.sample("morer_epoch", &[], published.epoch as f64);
    if let Some(wal) = state.durability() {
        w.header("morer_wal_durable_epoch", "gauge", "Last crash-recoverable epoch.");
        w.sample("morer_wal_durable_epoch", &[], wal.durable_epoch as f64);
    }
    if let Some(replica) = &state.replica {
        let status = replica.status();
        w.header(
            "morer_replica_lag_epochs",
            "gauge",
            "Epochs this follower trails its leader by.",
        );
        w.sample("morer_replica_lag_epochs", &[], status.lag_epochs as f64);
    }
    w.finish()
}

/// `GET /debug/trace[?id=HEX]` — dump the flight recorder: every span of
/// the newest traced requests (`recent`) and of threshold-crossing slow
/// requests (`slow`), optionally filtered to one trace id (the
/// `x-morer-trace-id` response-header value).
fn trace_dump(state: &ServerState, query: &str) -> Reply {
    let filter = match query_param(query, "id", Endpoint::Trace, |v| {
        u64::from_str_radix(v, 16).ok()
    }) {
        Ok(filter) => filter,
        Err(bad) => return bad,
    };
    let to_wire = |spans: Vec<Span>| -> Vec<TraceSpan> {
        spans
            .into_iter()
            .filter(|s| filter.is_none_or(|id| s.trace_id == id))
            .map(|s| TraceSpan {
                trace_id: format!("{:016x}", s.trace_id),
                stage: stage_name(s.stage).to_owned(),
                start_micros: s.start_micros,
                duration_micros: s.duration_micros,
                code: s.code,
            })
            .collect()
    };
    let body = TraceDump {
        slow_threshold_micros: state.metrics.slow_threshold_micros(),
        recent: to_wire(state.metrics.recent_spans()),
        slow: to_wire(state.metrics.slow_spans()),
    };
    json_reply(&body, Endpoint::Trace)
}

/// `GET /wal?from=..&gen=..[&max=..]` — ship hash-verified whole commit
/// frames from byte offset `from` of the log, as long as the follower's
/// compaction generation still matches. Answers:
///
/// * `200 application/octet-stream` with the frame bytes (empty body =
///   caught up) and `x-morer-generation` / `x-morer-log-len` /
///   `x-morer-epoch` headers;
/// * `409` when the offset or generation no longer exists on this leader
///   (compaction or restart truncated past it) — the follower must resync
///   from `GET /wal/base`;
/// * `400` when `from`, `gen` or `max` is present but not an integer
///   (absent ones default to the log start, generation 0 and 1 MiB);
/// * `404` when this server ships no log (no `wal_dir`, or replica mode).
fn wal_segment(state: &ServerState, query: &str) -> Reply {
    let int = |key| query_param(query, key, Endpoint::Wal, |v| v.parse::<u64>().ok());
    let (from, generation, max) = match (int("from"), int("gen"), int("max")) {
        (Ok(from), Ok(generation), Ok(max)) => (
            from.unwrap_or(HEADER_LEN),
            generation.unwrap_or(0),
            max.map_or(MAX_SEGMENT_BYTES, |max| max.min(MAX_SEGMENT_BYTES as u64) as usize),
        ),
        (Err(bad), ..) | (_, Err(bad), _) | (.., Err(bad)) => return bad,
    };
    let (Some(dir), Some(wal)) = (state.wal_dir.as_ref(), state.durability()) else {
        return no_wal();
    };
    let meta = |log_len: u64| {
        vec![
            (HDR_GENERATION.to_owned(), wal.compactions.to_string()),
            (HDR_LOG_LEN.to_owned(), log_len.to_string()),
            (HDR_EPOCH.to_owned(), wal.durable_epoch.to_string()),
        ]
    };
    let resync = |log_len: u64, why: String| Reply {
        status: 409,
        body: plain_error("resync", &why).into_bytes(),
        content_type: "application/json",
        headers: meta(log_len),
        endpoint: Endpoint::Wal,
    };
    if generation != wal.compactions || from < HEADER_LEN {
        return resync(
            wal.log_bytes,
            format!(
                "offset {from} of generation {generation} is gone (leader is at generation {})",
                wal.compactions
            ),
        );
    }
    let segment = match read_log_segment(dir, from, max) {
        Ok(segment) => segment,
        Err(e) => return Reply::error(&e, Endpoint::Wal),
    };
    if from > segment.log_len {
        // the log is shorter than the follower's offset (restart truncated
        // a suffix, or a compaction raced the generation check above)
        return resync(
            segment.log_len,
            format!("offset {from} is beyond the log ({} bytes)", segment.log_len),
        );
    }
    Reply {
        status: 200,
        body: segment.bytes,
        content_type: "application/octet-stream",
        headers: meta(segment.log_len),
        endpoint: Endpoint::Wal,
    }
}

/// `GET /wal/base` — the leader's base snapshot (`base.json`) for follower
/// bootstrap/resync. An empty `200` body means no compaction has published
/// a base yet: the follower starts from the empty generation-0 state and
/// replays the whole log. The base file is written with atomic
/// tmp-file + rename, so this read never observes a half-written base.
fn wal_base(state: &ServerState) -> Reply {
    let Some(dir) = state.wal_dir.as_ref() else {
        return no_wal();
    };
    match std::fs::read(dir.join(morer_core::wal::BASE_FILE)) {
        Ok(bytes) => Reply {
            status: 200,
            body: bytes,
            content_type: "application/json",
            headers: Vec::new(),
            endpoint: Endpoint::Wal,
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Reply {
            status: 200,
            body: Vec::new(),
            content_type: "application/json",
            headers: Vec::new(),
            endpoint: Endpoint::Wal,
        },
        Err(e) => Reply::error(&MorerError::Io(e), Endpoint::Wal),
    }
}

fn no_wal() -> Reply {
    Reply::json(
        404,
        plain_error("no_wal", "this server has no write-ahead log attached; nothing to ship"),
        Endpoint::Wal,
    )
}

/// Decode a request body as one `T`.
fn decode<T: Deserialize>(body: &[u8]) -> Result<T, MorerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| MorerError::Parse("request body is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| MorerError::Parse(e.to_string()))
}

/// Decode one problem and check the invariants the pipeline's inner loops
/// index on — a well-typed but inconsistent body (labels shorter than
/// pairs, say) must be a 400, not a panic in a compute thread.
fn decode_problem(body: &[u8]) -> Result<ErProblem, MorerError> {
    let problem: ErProblem = decode(body)?;
    problem.validate().map_err(MorerError::InvalidProblem)?;
    Ok(problem)
}

/// Decode a body that may be either one problem object or an array of
/// problems (`/ingest` accepts both shapes), validating each.
fn decode_problems(body: &[u8]) -> Result<Vec<ErProblem>, MorerError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| MorerError::Parse("request body is not UTF-8".into()))?;
    let value = serde_json::from_str_value(text).map_err(|e| MorerError::Parse(e.to_string()))?;
    let problems = match &value {
        serde::Value::Seq(_) => Vec::<ErProblem>::from_value(&value),
        _ => ErProblem::from_value(&value).map(|p| vec![p]),
    }
    .map_err(|e| MorerError::Parse(e.to_string()))?;
    for problem in &problems {
        problem.validate().map_err(MorerError::InvalidProblem)?;
    }
    Ok(problems)
}

/// Reject queries whose feature width cannot be scored against this
/// snapshot's repository (§4.2: one comparison scheme per repository).
fn check_query_width(
    snapshot: &ModelSearcher,
    problem: &ErProblem,
) -> Result<(), MorerError> {
    match snapshot.num_features() {
        Some(t) if problem.num_features() != t => Err(MorerError::InvalidProblem(format!(
            "feature space mismatch: problem {} has {} features, the repository scores {t}",
            problem.id,
            problem.num_features()
        ))),
        _ => Ok(()),
    }
}

fn search(state: &ServerState, body: &[u8], trace: &mut Trace) -> Reply {
    let decode_started = Instant::now();
    let problem = match decode_problem(body) {
        Ok(p) => p,
        Err(e) => return Reply::error(&e, Endpoint::Search),
    };
    trace.span(STAGE_DECODE, decode_started, 0);
    let snapshot = state.snapshot();
    if let Err(e) = check_query_width(&snapshot, &problem) {
        return Reply::error(&e, Endpoint::Search);
    }
    let search_started = Instant::now();
    let hit = snapshot.search(&problem);
    trace.span(STAGE_SEARCH, search_started, 0);
    match hit {
        Ok(hit) => json_reply(&hit, Endpoint::Search),
        Err(e) => Reply::error(&e, Endpoint::Search),
    }
}

fn solve(state: &ServerState, body: &[u8], trace: &mut Trace) -> Reply {
    let decode_started = Instant::now();
    let problem = match decode_problem(body) {
        Ok(p) => p,
        Err(e) => return Reply::error(&e, Endpoint::Solve),
    };
    trace.span(STAGE_DECODE, decode_started, 0);
    let snapshot = state.snapshot();
    if let Err(e) = check_query_width(&snapshot, &problem) {
        return Reply::error(&e, Endpoint::Solve);
    }
    let solve_started = Instant::now();
    let outcome = snapshot.solve(&problem);
    trace.span(STAGE_SOLVE, solve_started, 0);
    let encode_started = Instant::now();
    let reply = json_reply(&outcome, Endpoint::Solve);
    trace.span(STAGE_ENCODE, encode_started, 0);
    reply
}

fn solve_batch(state: &ServerState, body: &[u8], trace: &mut Trace) -> Reply {
    let decode_started = Instant::now();
    let problems = match decode_problems(body) {
        Ok(p) => p,
        Err(e) => return Reply::error(&e, Endpoint::SolveBatch),
    };
    trace.span(STAGE_DECODE, decode_started, 0);
    let snapshot = state.snapshot();
    for problem in &problems {
        if let Err(e) = check_query_width(&snapshot, problem) {
            return Reply::error(&e, Endpoint::SolveBatch);
        }
    }
    let solve_started = Instant::now();
    let refs: Vec<&ErProblem> = problems.iter().collect();
    let outcomes = snapshot.solve_batch(&refs);
    trace.span(STAGE_SOLVE, solve_started, 0);
    let encode_started = Instant::now();
    let reply = json_reply(&outcomes, Endpoint::SolveBatch);
    trace.span(STAGE_ENCODE, encode_started, 0);
    reply
}

fn ingest(ingest_tx: &SyncSender<IngestJob>, body: &[u8], trace: &mut Trace) -> Reply {
    let decode_started = Instant::now();
    let problems = match decode_problems(body) {
        Ok(p) => p,
        Err(e) => return Reply::error(&e, Endpoint::Ingest),
    };
    trace.span(STAGE_DECODE, decode_started, 0);
    let (reply_tx, reply_rx) = mpsc::channel();
    // a full queue blocks here (bounded-channel backpressure) until the
    // writer drains it
    let wait_started = Instant::now();
    if ingest_tx
        .send(IngestJob { problems, reply: reply_tx, enqueued: Instant::now() })
        .is_err()
    {
        return writer_gone();
    }
    let outcome = reply_rx.recv();
    // writer_wait covers enqueue-to-commit-ack: queue time plus the
    // writer's recluster/retrain/fsync round for this batch
    trace.span(STAGE_WRITER_WAIT, wait_started, 0);
    match outcome {
        Ok(Ok(report)) => json_reply(&report, Endpoint::Ingest),
        Ok(Err(rejection)) => Reply::error(&rejection, Endpoint::Ingest),
        Err(_) => writer_gone(),
    }
}

fn writer_gone() -> Reply {
    Reply::error(
        &MorerError::Io(std::io::Error::other("ingest writer thread is gone")),
        Endpoint::Ingest,
    )
}
