//! The connection core: event-driven connection handling for thousands of
//! concurrent keep-alive clients on a handful of threads.
//!
//! ## Architecture
//!
//! ```text
//!                    ┌──────────── reactor thread(s) ───────────┐
//!  clients ══10k═══► │ epoll ─ slab of Conn state machines      │
//!                    │   Idle ─► parse (RequestParser)          │
//!                    │   GET: dispatch inline ──────────► Flush │
//!                    │   POST: Job ──► job queue ─┐             │
//!                    │   completions ◄─ doorbell ◄┤             │
//!                    └────────────────────────────┼─────────────┘
//!                                                 ▼
//!                                   compute pool (≈ cores threads)
//!                                     dispatch → encode → doorbell
//!                                         │ /ingest jobs
//!                                         ▼
//!                               single writer thread (unchanged)
//! ```
//!
//! * **Reactor threads** own every connection: a non-blocking socket, a
//!   read buffer feeding a resumable [`RequestParser`], a write buffer
//!   with partial-write resume, and an idle deadline in a timer queue.
//!   Between events a connection costs one slab slot — no thread, no
//!   stack — so the concurrency ceiling is
//!   [`crate::ServeConfig::max_connections`], not a thread count.
//! * **Cheap GETs inline**: `/healthz`, `/stats` and the `/wal` shipping
//!   endpoints are answered on the reactor thread itself — two thread
//!   hops would triple the ~12 µs protocol floor.
//! * **POSTs to the compute pool**: solves are CPU-bound and `/ingest`
//!   blocks on the single-writer reply, so both run on pool threads; the
//!   reactor pauses reading that connection (state `Busy`) until the
//!   completion comes back through the [`Doorbell`] — a mutexed vector
//!   plus a self-pipe that pops the reactor out of `epoll_wait`.
//! * **Stale-completion safety**: slab slots are reused, so every slot
//!   carries a generation counter; a completion for a connection that
//!   died while its job ran fails the generation check and is dropped.
//! * **Timers without polling**: deadlines live in a binary heap of
//!   `(when, slot, gen)` entries revalidated lazily on fire (a fired
//!   entry whose connection has a later deadline — it was re-armed by a
//!   request — just re-pushes). `epoll_wait`'s timeout is the earliest
//!   pending deadline; an all-idle server sleeps indefinitely.
//! * **Shutdown** is graceful: a flag plus a doorbell wake; idle
//!   connections close at once, busy/flushing ones finish their in-flight
//!   request first, then reactors drop their job senders, the pool
//!   drains, and the writer exits last.
//!
//! Protocol errors (a `400` or `413` from the parser, or a request cut off
//! by the peer's EOF — see [`RequestParser::eof`]) are answered with the
//! JSON error envelope, then the write half is shut and the client's
//! in-flight body drained for [`DRAIN_WINDOW`], so the buffered error
//! response survives instead of being destroyed by an RST.

#![cfg(target_os = "linux")]

use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::ServeConfig;
use crate::http::{self, Method, ParseStatus, Request, RequestError, RequestParser};
use crate::metrics::Endpoint;
use crate::server::{dispatch, plain_error, IngestJob, Reply, ServerState, TRACE_HEADER};
use crate::sys::{Epoll, EpollEvent, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token of the shared listener in every reactor's epoll set.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the reactor's doorbell pipe.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Per-event read cap: up to this many bytes are consumed per readiness
/// event before yielding to other connections (level-triggered epoll
/// re-reports anything left unread).
const READ_CHUNK: usize = 16 << 10;
const MAX_READS_PER_EVENT: usize = 16;

/// How long a connection may sit in `Flush` without the socket accepting
/// bytes before it is declared stalled and dropped.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// How long a connection that was answered with a protocol error keeps
/// discarding the client's in-flight bytes before it is closed.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// One dispatched POST request in flight on the compute pool.
struct Job {
    request: Request,
    slot: usize,
    gen: u32,
    keep_alive: bool,
    bell: Arc<Doorbell>,
}

/// A finished job on its way back to the owning reactor.
struct Completion {
    slot: usize,
    gen: u32,
    bytes: Vec<u8>,
    close: bool,
}

/// A reactor's wake-up channel: compute workers (and shutdown) push here
/// and ring the pipe; the reactor drains both on its next loop turn.
pub(crate) struct Doorbell {
    completions: Mutex<Vec<Completion>>,
    waker: WakePipe,
}

impl Doorbell {
    /// Pop the reactor out of `epoll_wait` (shutdown path; completions
    /// use [`Doorbell::complete`]).
    pub(crate) fn ring(&self) {
        self.waker.wake();
    }

    fn complete(&self, completion: Completion) {
        self.completions.lock().expect("doorbell poisoned").push(completion);
        self.waker.wake();
    }
}

/// What a connection is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Reading/parsing the next request (idle deadline armed).
    Idle,
    /// A request is on the compute pool; reads are paused so pipelined
    /// requests stay in the kernel buffer (backpressure) until the
    /// response is written in order.
    Busy,
    /// Draining the write buffer; `then` says what follows.
    Flush { then: After },
    /// 4xx answered and write half shut: discard the client's in-flight
    /// body until EOF or the drain window ends, so the buffered error
    /// response is not destroyed by an RST.
    Draining,
}

/// What happens once a `Flush` empties its write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// Keep-alive: back to `Idle`, re-arm the idle deadline, parse any
    /// pipelined carry-over immediately.
    Idle,
    /// Close outright (response had `Connection: close`).
    Close,
    /// Enter the post-4xx `Draining` half-close window.
    Drain,
}

/// One connection's entire state: the reactor's replacement for a
/// dedicated thread.
struct Conn {
    stream: TcpStream,
    lifecycle: Lifecycle,
    /// Bytes received but not yet consumed by the parser.
    buf: Vec<u8>,
    parser: RequestParser,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Current deadline (idle, write-stall or drain-window depending on
    /// `lifecycle`); `None` while `Busy` — request *processing* time is
    /// not bounded.
    deadline: Option<Instant>,
    /// Earliest timer-heap entry known to exist for this connection
    /// (lazy-revalidation bookkeeping; see [`Timers`]).
    next_fire: Option<Instant>,
    /// epoll interest mask currently registered for this socket.
    interest: u32,
    /// Peer sent EOF (half-close); no more request bytes will arrive.
    peer_closed: bool,
}

/// Lazy-revalidating timer queue: entries are `(when, slot, gen)`; firing
/// checks the connection's *current* deadline and re-pushes when it moved
/// later (idle deadlines are re-armed per request, but each connection
/// keeps at most ~one live entry instead of one per request).
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, usize, u32)>>,
}

impl Timers {
    fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|std::cmp::Reverse((t, _, _))| *t)
    }

    fn push(&mut self, when: Instant, slot: usize, gen: u32) {
        self.heap.push(std::cmp::Reverse((when, slot, gen)));
    }
}

/// Slot-reuse-safe connection table.
struct Slab {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gens: Vec<u32>,
}

impl Slab {
    fn with_capacity(cap: usize) -> Self {
        Self { conns: Vec::with_capacity(cap), free: Vec::new(), gens: Vec::with_capacity(cap) }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                (slot, self.gens[slot])
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                (self.conns.len() - 1, 0)
            }
        }
    }

    fn get_mut(&mut self, slot: usize, gen: u32) -> Option<&mut Conn> {
        if self.gens.get(slot) != Some(&gen) {
            return None;
        }
        self.conns.get_mut(slot)?.as_mut()
    }

    /// Remove a live slot, bumping its generation so in-flight tokens,
    /// timers and completions for the old occupant become inert.
    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.conns.get_mut(slot)?.take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        Some(conn)
    }

    fn is_empty(&self) -> bool {
        self.conns.len() == self.free.len()
    }
}

fn token_of(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// Everything one reactor thread owns.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    bell: Arc<Doorbell>,
    slab: Slab,
    timers: Timers,
    state: Arc<ServerState>,
    job_tx: Sender<Job>,
    ingest_tx: SyncSender<IngestJob>,
    limits: http::Limits,
    idle_timeout: Duration,
    max_connections: usize,
    /// Set once shutdown is observed: the listener is deregistered and
    /// the loop exits as soon as no connection is mid-request.
    winding_down: bool,
}

/// Handles to a running reactor backend (reactor threads + compute pool),
/// plus the doorbells the server handle rings at shutdown.
pub(crate) struct BackendThreads {
    pub(crate) threads: Vec<JoinHandle<()>>,
    pub(crate) bells: Vec<Arc<Doorbell>>,
}

/// Spawn `config.reactors` event loops plus the compute pool. On any spawn
/// failure everything already started is shut down and joined before the
/// error returns — a partial server must not keep serving a port the
/// caller believes never started.
pub(crate) fn spawn_reactors(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    ingest_tx: &SyncSender<IngestJob>,
    config: &ServeConfig,
) -> Result<BackendThreads, std::io::Error> {
    let reactors = config.reactors.max(1);
    let compute = if config.compute_threads == 0 {
        std::thread::available_parallelism().map_or(2, |p| p.get()).max(2)
    } else {
        config.compute_threads
    };
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut handles = BackendThreads { threads: Vec::new(), bells: Vec::new() };
    let abort = |state: &Arc<ServerState>, handles: BackendThreads, err: std::io::Error| {
        state.shutdown.store(true, Ordering::Release);
        for bell in &handles.bells {
            bell.ring();
        }
        for thread in handles.threads {
            let _ = thread.join();
        }
        Err(err)
    };

    for i in 0..reactors {
        let built = (|| -> std::io::Result<(Arc<Doorbell>, JoinHandle<()>)> {
            let listener = listener.try_clone()?;
            let bell = Arc::new(Doorbell {
                completions: Mutex::new(Vec::new()),
                waker: WakePipe::new()?,
            });
            let mut reactor = Reactor {
                epoll: Epoll::new()?,
                listener,
                bell: Arc::clone(&bell),
                slab: Slab::with_capacity(1024),
                timers: Timers::default(),
                state: Arc::clone(state),
                job_tx: job_tx.clone(),
                ingest_tx: ingest_tx.clone(),
                limits: http::Limits {
                    max_header_bytes: config.max_header_bytes,
                    max_body_bytes: config.max_body_bytes,
                },
                idle_timeout: config.idle_timeout,
                max_connections: config.max_connections.max(1),
                winding_down: false,
            };
            reactor.epoll.add(reactor.listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
            reactor.epoll.add(reactor.bell.waker.reader_fd(), EPOLLIN, TOKEN_WAKE)?;
            let thread = std::thread::Builder::new()
                .name(format!("morer-serve-reactor-{i}"))
                .spawn(move || reactor.run())?;
            Ok((bell, thread))
        })();
        match built {
            Ok((bell, thread)) => {
                handles.bells.push(bell);
                handles.threads.push(thread);
            }
            Err(e) => return abort(state, handles, e),
        }
    }
    // the job senders live in the reactors (plus the prototype dropped
    // below): when every reactor exits, the pool's recv fails and each
    // compute worker drops its ingest sender, ending the writer last
    drop(job_tx);
    for i in 0..compute {
        let spawned = {
            let job_rx = Arc::clone(&job_rx);
            let state = Arc::clone(state);
            let ingest_tx = ingest_tx.clone();
            std::thread::Builder::new()
                .name(format!("morer-serve-compute-{i}"))
                .spawn(move || compute_loop(&job_rx, &state, &ingest_tx))
        };
        match spawned {
            Ok(thread) => handles.threads.push(thread),
            Err(e) => return abort(state, handles, e),
        }
    }
    Ok(handles)
}

/// One compute-pool thread: pull a job, dispatch it under `catch_unwind`
/// (a handler panic answers 500 and closes that connection; the thread
/// lives on), encode the response, ring the owning reactor's doorbell.
fn compute_loop(
    job_rx: &Arc<Mutex<Receiver<Job>>>,
    state: &Arc<ServerState>,
    ingest_tx: &SyncSender<IngestJob>,
) {
    loop {
        // holding the lock across recv serializes job *pickup*, not job
        // *processing* — the standard shared-receiver pool shape
        let job = match job_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let started = Instant::now();
        let mut trace = state.metrics.begin_trace();
        let mut keep_alive = job.keep_alive && !state.shutdown.load(Ordering::Acquire);
        let mut reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch(&job.request, state, ingest_tx, &mut trace)
        }))
        .unwrap_or_else(|_| {
            keep_alive = false;
            Reply::json(500, plain_error("internal", "request handler panicked"), Endpoint::Other)
        });
        reply.headers.push((TRACE_HEADER.to_owned(), trace.id_hex()));
        state.metrics.finish_trace(&mut trace, reply.endpoint, reply.status, started);
        let bytes = http::encode_response_with(
            reply.status,
            reply.content_type,
            &reply.headers,
            &reply.body,
            keep_alive,
        );
        job.bell.complete(Completion {
            slot: job.slot,
            gen: job.gen,
            bytes,
            close: !keep_alive,
        });
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::empty(); 256];
        loop {
            let timeout = self.timers.next_deadline().map(|d| {
                let now = Instant::now();
                d.saturating_duration_since(now).as_millis().min(u128::from(u64::MAX)) as u64
            });
            let wait_started = Instant::now();
            let n = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            let stages = self.state.metrics.stages();
            stages.epoll_wait_micros.record_micros(wait_started.elapsed());
            stages.dispatch_depth.record(n as u64);
            if self.state.shutdown.load(Ordering::Acquire) && !self.winding_down {
                self.begin_winding_down();
            }
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.bell.waker.drain(),
                    token => {
                        let (slot, gen) = split_token(token);
                        self.conn_event(slot, gen, ev.events());
                    }
                }
            }
            self.deliver_completions();
            self.fire_timers();
            if self.winding_down && self.slab.is_empty() {
                return;
            }
        }
    }

    /// Shutdown observed: stop accepting, close idle connections, let
    /// busy/flushing ones finish their in-flight request (the writer is
    /// still alive to answer in-flight `/ingest`).
    fn begin_winding_down(&mut self) {
        self.winding_down = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        let doomed: Vec<usize> = self
            .slab
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                conn.as_ref().and_then(|c| {
                    matches!(c.lifecycle, Lifecycle::Idle | Lifecycle::Draining).then_some(slot)
                })
            })
            .collect();
        for slot in doomed {
            self.close(slot);
        }
    }

    // -- accepting -------------------------------------------------------

    fn accept_ready(&mut self) {
        if self.winding_down {
            return;
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // WouldBlock: drained (or another reactor won the race);
                // other errors (EMFILE, aborted handshake) back off to the
                // next readiness report rather than spinning
                Err(_) => return,
            };
            if self.state.metrics.try_conn_opened(self.max_connections as u64).is_none() {
                continue; // accepted-and-dropped: backlog never silently fills
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                self.state.metrics.conn_closed();
                continue;
            }
            let conn = Conn {
                stream,
                lifecycle: Lifecycle::Idle,
                buf: Vec::new(),
                parser: RequestParser::new(),
                out: Vec::new(),
                out_pos: 0,
                deadline: None,
                next_fire: None,
                interest: 0,
                peer_closed: false,
            };
            let (slot, gen) = self.slab.insert(conn);
            let desired = EPOLLIN | EPOLLRDHUP;
            let registered = {
                let conn = self.slab.get_mut(slot, gen).expect("just inserted");
                conn.interest = desired;
                self.epoll.add(conn.stream.as_raw_fd(), desired, token_of(slot, gen)).is_ok()
            };
            if !registered {
                self.slab.remove(slot);
                self.state.metrics.conn_closed();
                continue;
            }
            self.arm_deadline(slot, self.idle_timeout);
        }
    }

    // -- per-connection events -------------------------------------------

    fn conn_event(&mut self, slot: usize, gen: u32, events: u32) {
        if self.slab.get_mut(slot, gen).is_none() {
            return; // stale token: the slot was recycled
        }
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP) != 0 {
            let lifecycle = self.slab.conns[slot].as_ref().expect("checked live").lifecycle;
            match lifecycle {
                Lifecycle::Idle => {
                    if !self.read_some(slot) {
                        return; // connection closed during the read
                    }
                }
                Lifecycle::Draining => {
                    self.drain_some(slot);
                    return;
                }
                // Busy/Flush don't read; RDHUP is remembered implicitly —
                // the eventual write failure or post-flush read sees EOF
                Lifecycle::Busy | Lifecycle::Flush { .. } => {}
            }
        }
        if events & EPOLLOUT != 0 {
            // The socket became writable: push the pending partial write
            // now. settle() only flushes in the `Flush` state, but an
            // `Idle` connection can hold queued `100 Continue` bytes that
            // hit `WouldBlock` — without this flush they would never
            // drain and the client would wait forever for the interim
            // response.
            if matches!(self.flush_out(slot), FlushOutcome::Closed) {
                return;
            }
        }
        self.settle(slot);
        self.update_interest(slot);
    }

    /// Pull bytes off an `Idle` socket into the parse buffer (bounded per
    /// event; level-triggered epoll re-reports any remainder). Returns
    /// `false` when the connection was closed.
    fn read_some(&mut self, slot: usize) -> bool {
        let mut closed = false;
        {
            let Some(conn) = self.slab.conns[slot].as_mut() else { return false };
            let mut chunk = [0u8; READ_CHUNK];
            for _ in 0..MAX_READS_PER_EVENT {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if closed {
            self.close(slot);
            return false;
        }
        true
    }

    /// `Draining` reads: discard whatever arrives; EOF or error ends the
    /// drain window early (the client saw the 4xx and closed).
    fn drain_some(&mut self, slot: usize) {
        let mut done = false;
        {
            let Some(conn) = self.slab.conns[slot].as_mut() else { return };
            let mut chunk = [0u8; READ_CHUNK];
            for _ in 0..MAX_READS_PER_EVENT {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        done = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        done = true;
                        break;
                    }
                }
            }
        }
        if done {
            self.close(slot);
        }
    }

    /// Drive a connection's state machine as far as it can go without new
    /// events: parse buffered bytes, dispatch requests, flush the write
    /// buffer, transition. Loops because a completed flush can expose a
    /// pipelined request that is already fully buffered.
    fn settle(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slab.conns[slot].as_mut() else { return };
            match conn.lifecycle {
                Lifecycle::Idle => {
                    if !self.advance_idle(slot) {
                        return; // closed, or waiting for more bytes
                    }
                }
                Lifecycle::Flush { then } => match self.flush_out(slot) {
                    FlushOutcome::Pending => return,
                    FlushOutcome::Closed => return,
                    FlushOutcome::Done => match then {
                        After::Close => {
                            self.close(slot);
                            return;
                        }
                        After::Drain => {
                            self.enter_draining(slot);
                            return;
                        }
                        After::Idle => {
                            if self.winding_down {
                                self.close(slot);
                                return;
                            }
                            let conn = self.slab.conns[slot].as_mut().expect("live in settle");
                            conn.lifecycle = Lifecycle::Idle;
                            self.arm_deadline(slot, self.idle_timeout);
                            // loop: pipelined bytes may already hold the
                            // next request
                        }
                    },
                },
                Lifecycle::Busy | Lifecycle::Draining => return,
            }
        }
    }

    /// Try to produce one request from the buffered bytes. Returns `true`
    /// when the state advanced (caller should keep settling), `false`
    /// when blocked on input or closed.
    fn advance_idle(&mut self, slot: usize) -> bool {
        let status = {
            let Some(conn) = self.slab.conns[slot].as_mut() else { return false };
            conn.parser.advance(&conn.buf, &self.limits)
        };
        match status {
            Ok(ParseStatus::Ready { request, consumed }) => {
                let conn = self.slab.conns[slot].as_mut().expect("live in advance_idle");
                conn.buf.drain(..consumed);
                self.on_request(slot, request);
                true
            }
            Ok(ParseStatus::NeedMore { send_continue }) => {
                let conn = self.slab.conns[slot].as_mut().expect("live in advance_idle");
                if send_continue {
                    conn.out.extend_from_slice(http::CONTINUE);
                    // opportunistic write; stay Idle — the body can be
                    // read while the interim response drains
                    if matches!(self.flush_out(slot), FlushOutcome::Closed) {
                        return false;
                    }
                }
                let Some(conn) = self.slab.conns[slot].as_mut() else { return false };
                if !conn.peer_closed {
                    return false;
                }
                // the peer's EOF: a clean close between requests, or a
                // truncated request that earns a 400
                match conn.parser.eof(&conn.buf) {
                    Ok(()) => {
                        self.close(slot);
                        false
                    }
                    Err(err) => {
                        self.reject(slot, err);
                        true
                    }
                }
            }
            Err(err) => {
                self.reject(slot, err);
                true
            }
        }
    }

    /// Answer a protocol error with its typed envelope, then close through
    /// the drain window.
    fn reject(&mut self, slot: usize, err: RequestError) {
        let (status, body) = match err {
            RequestError::Bad(msg) => (400, plain_error("bad_request", &msg)),
            RequestError::TooLarge { declared, max } => (
                413,
                plain_error(
                    "payload_too_large",
                    &format!("declared body of {declared} bytes exceeds the {max} byte limit"),
                ),
            ),
        };
        self.state.metrics.record(Endpoint::Other, Duration::ZERO, status);
        self.queue_reply(slot, status, body.into_bytes(), false, true);
    }

    /// Route one parsed request: cheap GETs inline on this thread, POSTs
    /// to the compute pool.
    fn on_request(&mut self, slot: usize, request: Request) {
        let shutdown = self.state.shutdown.load(Ordering::Acquire) || self.winding_down;
        let keep_alive = request.keep_alive && !shutdown;
        match request.method {
            Method::Get => {
                let started = Instant::now();
                let mut trace = self.state.metrics.begin_trace();
                let mut close_for_panic = false;
                let mut reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    dispatch(&request, &self.state, &self.ingest_tx, &mut trace)
                }))
                .unwrap_or_else(|_| {
                    close_for_panic = true;
                    Reply::json(
                        500,
                        plain_error("internal", "request handler panicked"),
                        Endpoint::Other,
                    )
                });
                reply.headers.push((TRACE_HEADER.to_owned(), trace.id_hex()));
                self.state.metrics.finish_trace(&mut trace, reply.endpoint, reply.status, started);
                let bytes = http::encode_response_with(
                    reply.status,
                    reply.content_type,
                    &reply.headers,
                    &reply.body,
                    keep_alive && !close_for_panic,
                );
                self.queue_raw(slot, bytes, keep_alive && !close_for_panic, false);
            }
            Method::Post => {
                let gen = self.slab.gens[slot];
                {
                    let conn = self.slab.conns[slot].as_mut().expect("live in on_request");
                    conn.lifecycle = Lifecycle::Busy;
                    conn.deadline = None; // processing time is unbounded here
                }
                let job = Job {
                    request,
                    slot,
                    gen,
                    keep_alive,
                    bell: Arc::clone(&self.bell),
                };
                if self.job_tx.send(job).is_err() {
                    // pool gone (shutdown race): answer like a dead writer
                    self.state.metrics.record(Endpoint::Other, Duration::ZERO, 500);
                    self.queue_reply(
                        slot,
                        500,
                        plain_error("internal", "compute pool is gone").into_bytes(),
                        false,
                        false,
                    );
                }
            }
        }
    }

    /// Queue an encoded JSON reply (`drain` selects the post-4xx
    /// half-close window after the flush).
    fn queue_reply(&mut self, slot: usize, status: u16, body: Vec<u8>, keep_alive: bool, drain: bool) {
        let bytes = http::encode_response_with(status, "application/json", &[], &body, keep_alive);
        self.queue_raw(slot, bytes, keep_alive, drain);
    }

    /// Queue pre-encoded response bytes and transition to `Flush`.
    fn queue_raw(&mut self, slot: usize, bytes: Vec<u8>, keep_alive: bool, drain: bool) {
        let Some(conn) = self.slab.conns[slot].as_mut() else { return };
        conn.out.extend_from_slice(&bytes);
        conn.lifecycle = Lifecycle::Flush {
            then: if drain {
                After::Drain
            } else if keep_alive {
                After::Idle
            } else {
                After::Close
            },
        };
        self.arm_deadline(slot, WRITE_STALL);
    }

    /// Write as much of the out buffer as the socket accepts.
    fn flush_out(&mut self, slot: usize) -> FlushOutcome {
        let mut failed = false;
        let done = {
            let Some(conn) = self.slab.conns[slot].as_mut() else {
                return FlushOutcome::Closed;
            };
            loop {
                if conn.out_pos >= conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    break true;
                }
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break false;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break false;
                    }
                }
            }
        };
        if failed {
            self.close(slot);
            FlushOutcome::Closed
        } else if done {
            FlushOutcome::Done
        } else {
            FlushOutcome::Pending
        }
    }

    /// Post-4xx half-close: shut the write half (response bytes are all
    /// accepted by the kernel at this point) and discard the client's
    /// in-flight body for up to [`DRAIN_WINDOW`].
    fn enter_draining(&mut self, slot: usize) {
        {
            let Some(conn) = self.slab.conns[slot].as_mut() else { return };
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.lifecycle = Lifecycle::Draining;
        }
        self.arm_deadline(slot, DRAIN_WINDOW);
        // discard anything already buffered
        self.drain_some(slot);
    }

    // -- completions ------------------------------------------------------

    fn deliver_completions(&mut self) {
        let completions =
            std::mem::take(&mut *self.bell.completions.lock().expect("doorbell poisoned"));
        for c in completions {
            let live = self
                .slab
                .get_mut(c.slot, c.gen)
                .map(|conn| conn.lifecycle == Lifecycle::Busy)
                .unwrap_or(false);
            if !live {
                continue; // connection died while its job ran
            }
            self.queue_raw(c.slot, c.bytes, !c.close, false);
            self.settle(c.slot);
            self.update_interest(c.slot);
        }
    }

    // -- timers -----------------------------------------------------------

    fn arm_deadline(&mut self, slot: usize, after: Duration) {
        let when = Instant::now() + after;
        let gen = self.slab.gens[slot];
        let Some(conn) = self.slab.conns[slot].as_mut() else { return };
        conn.deadline = Some(when);
        if conn.next_fire.is_none_or(|f| when < f) {
            conn.next_fire = Some(when);
            self.timers.push(when, slot, gen);
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(std::cmp::Reverse((when, _, _))) = self.timers.heap.peek() {
            if *when > now {
                break;
            }
            let std::cmp::Reverse((when, slot, gen)) =
                self.timers.heap.pop().expect("peeked entry");
            let action = match self.slab.get_mut(slot, gen) {
                None => continue, // the connection this entry watched is gone
                Some(conn) => {
                    if conn.next_fire == Some(when) {
                        conn.next_fire = None;
                    }
                    match conn.deadline {
                        None => TimerAction::Nothing, // Busy: deadline cleared
                        Some(d) if now >= d => TimerAction::Expire(conn.lifecycle),
                        Some(d) => TimerAction::Rearm(d),
                    }
                }
            };
            match action {
                TimerAction::Nothing => {}
                TimerAction::Rearm(d) => {
                    // deadline moved later (re-armed by a request): keep
                    // at most one live entry per connection
                    let conn = self.slab.conns[slot].as_mut().expect("live above");
                    if conn.next_fire.is_none_or(|f| d < f) {
                        conn.next_fire = Some(d);
                        self.timers.push(d, slot, gen);
                    }
                }
                TimerAction::Expire(lifecycle) => {
                    if matches!(lifecycle, Lifecycle::Idle) {
                        self.state.metrics.conn_idle_reaped();
                    }
                    self.close(slot);
                }
            }
        }
    }

    // -- bookkeeping ------------------------------------------------------

    /// Recompute and (when changed) re-register the epoll interest mask
    /// for a connection's current state.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.slab.conns[slot].as_mut() else { return };
        let out_pending = conn.out_pos < conn.out.len();
        let desired = match conn.lifecycle {
            Lifecycle::Idle => EPOLLIN | EPOLLRDHUP | if out_pending { EPOLLOUT } else { 0 },
            Lifecycle::Busy => 0, // ERR/HUP are always reported
            Lifecycle::Flush { .. } => EPOLLOUT,
            Lifecycle::Draining => EPOLLIN | EPOLLRDHUP,
        };
        if desired != conn.interest {
            let gen = self.slab.gens[slot];
            let fd = conn.stream.as_raw_fd();
            conn.interest = desired;
            if self.epoll.modify(fd, desired, token_of(slot, gen)).is_err() {
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slab.remove(slot) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.state.metrics.conn_closed();
            // conn (and its socket) drops here
        }
    }
}

enum TimerAction {
    Nothing,
    Rearm(Instant),
    Expire(Lifecycle),
}

enum FlushOutcome {
    /// Buffer fully handed to the kernel.
    Done,
    /// Socket would block; EPOLLOUT will resume the flush.
    Pending,
    /// Write failed; the connection is already closed and removed.
    Closed,
}
