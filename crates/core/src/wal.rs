//! Durable, crash-safe repository storage: an append-only commit log plus
//! periodic base snapshots.
//!
//! Persistence used to be one monolithic versioned-JSON blob: every save
//! was O(repository) and a crash mid-ingest lost everything since the last
//! explicit `save`. This module makes each committed mutation batch durable
//! at O(dirty) cost: the writer appends one [`CommitRecord`] per commit —
//! the touched [`ClusterEntry`] set the snapshot layer already isolates,
//! plus the [`IngestReport`] — and [`Wal::open`] reconstructs the exact
//! pre-crash repository by loading the latest base snapshot and replaying
//! the valid log suffix.
//!
//! # On-disk format
//!
//! A write-ahead-log directory holds two files:
//!
//! ```text
//! <dir>/base.json   the base snapshot (atomically published)
//! <dir>/wal.log     the append-only commit log
//! ```
//!
//! ## `wal.log` — file header and record framing
//!
//! ```text
//! offset 0:  magic   8 bytes  b"MORERWAL"
//! offset 8:  version u32 LE   WAL_FORMAT_VERSION (currently 1)
//! offset 12: records ...
//! ```
//!
//! Each record is framed as
//!
//! ```text
//! [ len: u32 LE ][ hash: u64 LE ][ payload: `len` bytes ]
//! ```
//!
//! where `payload` is the canonical JSON encoding of one [`CommitRecord`]
//! (the vendored `serde_json` is deterministic: map keys in declaration
//! order, floats in shortest round-trip form) and `hash` is the FNV-1a 64
//! content hash of exactly the payload bytes ([`content_hash`]). A record
//! payload decodes to
//!
//! ```text
//! {"epoch": N, "num_entries": T, "entries": [ClusterEntry...], "report": {...}|null}
//! ```
//!
//! `entries` carries the entries touched by the commit in ascending id
//! order; `num_entries` is the total store length after the commit, so a
//! full-recluster commit that *shrank* the repository replays correctly
//! (the tail beyond `num_entries` is truncated).
//!
//! ## Recovery semantics
//!
//! [`Wal::open`] replays records in order and **stops cleanly at the first
//! invalid one**, truncating the log back to the last valid prefix:
//!
//! * a frame whose bytes run past end-of-file (torn append) → truncate;
//! * a payload whose FNV-1a hash disagrees with the frame header
//!   (bit-flipped body) → truncate;
//! * an epoch that is neither ≤ the current epoch (see below) nor exactly
//!   `current + 1` (a gap — some record is missing) → truncate;
//! * a record whose entry ids skip past the store length → truncate.
//!
//! Records with `epoch <=` the recovered epoch are *skipped, not
//! replayed*: they are the leftovers of a compaction that crashed after
//! publishing the new base but before truncating the log, and their effects
//! are already folded into the base snapshot. Duplicate-epoch records are
//! therefore idempotent by construction.
//!
//! A zero-length (or torn-header) log file recovers to the base snapshot
//! alone. A log file whose first bytes are **not** the `MORERWAL` magic is
//! refused with the typed [`MorerError::LogCorrupt`] — a foreign file is
//! never silently wiped. A log (or base) declaring a version newer than
//! [`WAL_FORMAT_VERSION`] fails with [`MorerError::UnsupportedVersion`],
//! following the same header discipline as the repository format.
//!
//! ## `base.json` — atomic publication
//!
//! ```text
//! {"wal_version": 1, "epoch": E, "compactions": C, "repository": {"version": 1, "entries": [...]}}
//! ```
//!
//! The `repository` sub-document is byte-identical to what
//! [`ModelRepository::save_json`] writes (both render the same value tree),
//! so log-then-compact round-trips bit-identical to `save_json`/
//! `load_json`. The base is always published crash-safely: written to
//! `base.json.tmp` in the same directory, synced, then renamed over
//! `base.json` (followed by a best-effort directory sync) — a crash
//! mid-compaction leaves either the old base (the log still replays on top
//! of it) or the new one (the stale log prefix is skipped by epoch).
//!
//! # Durability modes
//!
//! [`Durability::Fsync`] issues `fdatasync` after every appended record:
//! when [`Wal::append`] returns, the commit is on disk, which is what lets
//! `morer-serve` acknowledge `/ingest` only after the commit record is
//! durable. [`Durability::Buffered`] leaves flushing to the OS — group
//! commit throughput for workloads that tolerate losing the last few
//! commits on power failure (a *process* crash loses nothing either way:
//! the bytes are in the page cache).
//!
//! **Group commit** keeps the fsync acknowledgement but amortizes the sync:
//! [`Wal::append_deferred`] writes the frame without syncing and marks the
//! log *pending*, and one [`Wal::sync`] then makes every deferred append
//! durable at once. The caller's contract is "nothing is acknowledged
//! until `sync` returns" — which is exactly how the `morer-serve` writer
//! uses it: several queued ingest micro-batches commit back to back, share
//! one `fdatasync`, and only then are their replies sent.
//!
//! # Log-shipping wire/offset protocol
//!
//! The framing above is deliberately self-delimiting and content-hashed so
//! the log can be **shipped verbatim**: a follower
//! ([`crate::replication`]) streams raw frame bytes from a leader and
//! re-verifies every frame itself — no trust in the transport. The
//! protocol, as spoken over `GET /wal` on `morer-serve` (any byte
//! transport works; only offsets and framing matter here):
//!
//! * **Offsets are byte offsets into `wal.log`**, header included. The
//!   first frame lives at [`HEADER_LEN`] (= 12); a log containing no
//!   records has length `HEADER_LEN`. [`DurabilityState::log_bytes`] is
//!   the current append offset — a follower at that offset is caught up.
//! * **A segment request** names `(generation, from_offset)`, where
//!   `generation` is the leader's compaction counter
//!   ([`DurabilityState::compactions`]). The leader answers with raw,
//!   *leader-verified* whole frames starting at exactly `from_offset`
//!   (possibly zero bytes when the follower is caught up), plus its
//!   current generation, log length and durable epoch.
//! * **Renegotiation:** compaction truncates `wal.log` back to
//!   `HEADER_LEN`, so follower offsets do not survive it. A request whose
//!   `generation` is stale, or whose `from_offset` exceeds the current log
//!   length (leader restarted after losing a suffix, or compacted), is
//!   answered with a *resync* signal instead of bytes. The follower then
//!   fetches the **base snapshot** (the `base.json` bytes, which embed
//!   `epoch` and `compactions`), replaces its state wholesale, and resumes
//!   tailing from `(new_generation, HEADER_LEN)`.
//! * **Follower-side verification** re-checks every frame: length prefix
//!   bounded by [`MAX_RECORD_BYTES`], FNV-1a content hash, decodability,
//!   and epoch continuity (`epoch == applied + 1` applies; `epoch <=
//!   applied` is a compaction leftover and is skipped; anything else is a
//!   gap → resync). A short/torn frame at the end of a segment is *not* an
//!   error — the follower re-fetches from the last fully applied offset,
//!   so a partial record is never applied.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use morer_obs::Histogram;
use serde::{Deserialize, Serialize, Value};

use crate::error::{MorerError, WAL_FORMAT_VERSION};
use crate::pipeline::IngestReport;
use crate::repository::{ClusterEntry, ModelRepository};

/// File name of the base snapshot inside a WAL directory.
pub const BASE_FILE: &str = "base.json";
/// File name of the append-only commit log inside a WAL directory.
pub const LOG_FILE: &str = "wal.log";
/// Scratch name the base snapshot is written under before its atomic
/// rename; a leftover (crash between write and rename) is discarded on open.
const BASE_TMP: &str = "base.json.tmp";

pub(crate) const WAL_MAGIC: [u8; 8] = *b"MORERWAL";
/// Log file header: 8 magic bytes + u32 LE format version. Also the byte
/// offset of the first record frame — the offset a log-shipping follower
/// tails from after a (re)sync (see the module docs).
pub const HEADER_LEN: u64 = 12;
/// Record frame header: u32 LE payload length + u64 LE FNV-1a payload hash.
pub const FRAME_HEADER_LEN: usize = 12;
/// Upper bound a frame's length prefix is sanity-checked against — a
/// corrupted prefix must not provoke a gigantic allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 30;

/// FNV-1a 64-bit content hash of `bytes` (the per-record integrity check;
/// dependency-free and byte-order independent).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// When an appended commit record is considered acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Records are written to the OS page cache; flushing is left to the
    /// kernel. Survives process crashes, may lose the last commits on
    /// power failure.
    Buffered,
    /// `fdatasync` after every appended record: when the append returns,
    /// the commit is on disk.
    Fsync,
}

impl Durability {
    /// Stable machine-readable name (`"buffered"` / `"fsync"`; the serve
    /// layer reports it from `/healthz`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Buffered => "buffered",
            Self::Fsync => "fsync",
        }
    }
}

/// Tuning of an attached write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Acknowledgement mode of [`Wal::append`].
    pub durability: Durability,
    /// Fold the log into a fresh base snapshot automatically once it holds
    /// this many records; `0` disables auto-compaction (explicit
    /// [`crate::pipeline::Morer::compact`] only).
    pub compact_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self { durability: Durability::Fsync, compact_every: 1024 }
    }
}

/// One committed mutation batch, as persisted in the log: the O(dirty)
/// touched entries plus the ingest report (None for `sel_cov` solve-path
/// commits, which have no [`IngestReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitRecord {
    /// The epoch this commit produced ([`crate::pipeline::Morer::epoch`]).
    pub epoch: u64,
    /// Total entry-store length after the commit; replay truncates the
    /// store to this, so shrinking commits recover exactly.
    pub num_entries: usize,
    /// The entries the commit touched, in ascending id order.
    pub entries: Vec<ClusterEntry>,
    /// The ingest report the committing batch returned, when there was one.
    pub report: Option<IngestReport>,
}

/// Observability snapshot of an attached log (`/healthz` and `/stats`
/// report this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurabilityState {
    /// Epoch of the last record fully appended to the log (synced when
    /// `fsync` is true, OS-buffered otherwise); equals the base snapshot's
    /// epoch right after attach/compaction.
    pub durable_epoch: u64,
    /// Records currently in the log (since the last compaction).
    pub log_records: u64,
    /// Byte length of the log file, header included.
    pub log_bytes: u64,
    /// Compactions folded into the base snapshot over this WAL's lifetime
    /// (recovered from the base header on open).
    pub compactions: u64,
    /// Whether appends are fsync-acknowledged ([`Durability::Fsync`]).
    pub fsync: bool,
}

/// Lock-free stage timings and counters of an attached log, shared by
/// reference with whoever wants to scrape them (the `morer-serve`
/// `/metrics` endpoint reads these while the writer thread appends).
///
/// Lives behind an `Arc` so the owning pipeline can hand the *same*
/// counters to a replacement log across [`crate::pipeline::Morer::repair_wal`]
/// — observers keep one continuous series (see [`Wal::set_obs`]).
/// Recovery counters are recorded by the embedder from [`Recovered`]
/// (see [`WalObs::record_recovery`]); the append/sync/compact histograms
/// are recorded by the log itself.
#[derive(Debug, Default)]
pub struct WalObs {
    /// Per-record append cost (serialize + frame + buffered write), in
    /// microseconds. Excludes the fsync, which is metered separately.
    pub append_micros: Histogram,
    /// Per-`fdatasync` cost in microseconds (one sample per physical
    /// sync: per record under [`Durability::Fsync`] appends, per group
    /// under group commit).
    pub fsync_micros: Histogram,
    /// Whole-[`Wal::compact`] cost in microseconds (base render + write
    /// + rename + log truncate).
    pub compact_micros: Histogram,
    /// Recovery passes ([`Wal::open`]) observed by this series.
    pub recoveries: AtomicU64,
    /// Records replayed on top of base snapshots, summed over recoveries.
    pub replayed_records: AtomicU64,
    /// Torn/corrupt tail bytes truncated away, summed over recoveries.
    pub truncated_bytes: AtomicU64,
}

impl WalObs {
    /// Fold one [`Recovered`] outcome into the counters.
    pub fn record_recovery(&self, recovered_replayed: u64, recovered_truncated: u64) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.replayed_records.fetch_add(recovered_replayed, Ordering::Relaxed);
        self.truncated_bytes.fetch_add(recovered_truncated, Ordering::Relaxed);
    }
}

/// What [`Wal::open`] recovered from a WAL directory.
#[derive(Debug)]
pub struct Recovered {
    /// The log, positioned to append after the last valid record.
    pub wal: Wal,
    /// Base snapshot + replayed log suffix.
    pub repository: ModelRepository,
    /// The last fully committed epoch.
    pub epoch: u64,
    /// Records replayed on top of the base snapshot (skipped
    /// already-compacted records not included).
    pub replayed: u64,
    /// Torn/corrupt tail bytes truncated away during recovery (0 on a
    /// clean open).
    pub truncated_bytes: u64,
}

/// An attached append-only commit log (see the module docs for the on-disk
/// format and recovery semantics).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: File,
    log_bytes: u64,
    log_records: u64,
    durable_epoch: u64,
    compactions: u64,
    options: WalOptions,
    /// Whether deferred (group-commit) appends are awaiting their shared
    /// [`Wal::sync`]. Only ever true under [`Durability::Fsync`].
    pending_sync: bool,
    /// Stage timing sink; swappable so an owner can keep one continuous
    /// series across log replacement ([`Wal::set_obs`]).
    obs: Arc<WalObs>,
}

impl Wal {
    /// Attach a fresh write-ahead log to `dir`: publish `repository` at
    /// `epoch` as the base snapshot and start an empty log.
    ///
    /// # Errors
    /// [`MorerError::Io`] with kind `AlreadyExists` when `dir` already
    /// holds durable state (recover it with [`Wal::open`] instead of
    /// clobbering it), or any other I/O failure.
    pub fn create(
        dir: &Path,
        options: WalOptions,
        repository: &ModelRepository,
        epoch: u64,
    ) -> Result<Self, MorerError> {
        std::fs::create_dir_all(dir)?;
        let log_path = dir.join(LOG_FILE);
        let log_len = std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0);
        if dir.join(BASE_FILE).exists() || log_len > 0 {
            return Err(MorerError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a write-ahead log; recover it with Morer::open \
                     instead of attaching over it",
                    dir.display()
                ),
            )));
        }
        write_base(dir, repository, epoch, 0)?;
        let mut log =
            OpenOptions::new().create(true).write(true).truncate(true).open(&log_path)?;
        log.write_all(&header_bytes())?;
        // the header is written once per log lifetime: always make it
        // durable so a torn header can only mean "no log yet"
        log.sync_all()?;
        Ok(Self {
            dir: dir.to_path_buf(),
            log,
            log_bytes: HEADER_LEN,
            log_records: 0,
            durable_epoch: epoch,
            compactions: 0,
            options,
            pending_sync: false,
            obs: Arc::new(WalObs::default()),
        })
    }

    /// Recover a WAL directory: load the base snapshot (an absent one is an
    /// empty repository at epoch 0), replay the valid log records, truncate
    /// any torn/corrupt tail, and return the log positioned to append.
    /// Opening a directory with no durable state yet starts a fresh empty
    /// log, so `open` doubles as "create or recover".
    ///
    /// # Errors
    /// [`MorerError::LogCorrupt`] when the log is not a MoRER log at all or
    /// the base snapshot is undecodable; [`MorerError::UnsupportedVersion`]
    /// on files from a newer build; [`MorerError::Io`] on I/O failures.
    /// Torn or bit-flipped log *tails* are not errors — they are truncated
    /// and recovery succeeds at the last valid epoch.
    pub fn open(dir: &Path, options: WalOptions) -> Result<Recovered, MorerError> {
        std::fs::create_dir_all(dir)?;
        // a crash between base-tmp write and rename leaves a stale tmp
        let _ = std::fs::remove_file(dir.join(BASE_TMP));
        let (mut repository, base_epoch, compactions) = read_base(dir)?;

        let log_path = dir.join(LOG_FILE);
        let bytes = match std::fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let file_len = bytes.len() as u64;

        let mut valid_end: u64 = 0;
        let mut epoch = base_epoch;
        let mut replayed: u64 = 0;
        let mut log_records: u64 = 0;
        if file_len >= HEADER_LEN {
            if bytes[..8] != WAL_MAGIC {
                return Err(MorerError::LogCorrupt {
                    offset: 0,
                    reason: format!(
                        "{} does not start with the MORERWAL magic (not a write-ahead log)",
                        log_path.display()
                    ),
                });
            }
            let version =
                u64::from(u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")));
            if version > WAL_FORMAT_VERSION {
                return Err(MorerError::UnsupportedVersion { found: version });
            }
            valid_end = HEADER_LEN;
            loop {
                let offset = valid_end as usize;
                let remaining = bytes.len() - offset;
                if remaining == 0 {
                    break;
                }
                if remaining < FRAME_HEADER_LEN {
                    break; // torn frame header
                }
                let len =
                    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
                if len > MAX_RECORD_BYTES {
                    break; // corrupted length prefix
                }
                let len = len as usize;
                if remaining < FRAME_HEADER_LEN + len {
                    break; // torn payload
                }
                let stored_hash = u64::from_le_bytes(
                    bytes[offset + 4..offset + 12].try_into().expect("8 bytes"),
                );
                let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
                if content_hash(payload) != stored_hash {
                    break; // bit-flipped record body
                }
                let Some(record) = decode_record(payload) else {
                    break; // hash-valid but undecodable: treat as corrupt tail
                };
                if record.epoch > epoch {
                    if record.epoch != epoch + 1 {
                        break; // epoch gap: a commit is missing
                    }
                    if apply_record(&mut repository.entries, record).is_err() {
                        break; // entry ids inconsistent with the store
                    }
                    epoch += 1;
                    replayed += 1;
                }
                // records with epoch <= base epoch are compaction leftovers:
                // integrity-checked and retained, but already folded in
                valid_end += (FRAME_HEADER_LEN + len) as u64;
                log_records += 1;
            }
        }

        // a torn header discards the whole file; otherwise only the tail
        // past the last valid frame
        let truncated_bytes =
            if valid_end < HEADER_LEN { file_len } else { file_len - valid_end };
        let mut log = OpenOptions::new().create(true).write(true).open(&log_path)?;
        if valid_end < HEADER_LEN {
            // empty or torn-header log: start it fresh
            log.set_len(0)?;
            log.write_all(&header_bytes())?;
            log.sync_all()?;
            valid_end = HEADER_LEN;
        } else if valid_end < file_len {
            // drop the torn/corrupt tail so the next append starts at a
            // record boundary; sync so the poison bytes cannot resurface
            log.set_len(valid_end)?;
            log.sync_all()?;
        }
        log.seek(SeekFrom::Start(valid_end))?;

        Ok(Recovered {
            wal: Self {
                dir: dir.to_path_buf(),
                log,
                log_bytes: valid_end,
                log_records,
                durable_epoch: epoch,
                compactions,
                options,
                pending_sync: false,
                obs: Arc::new(WalObs::default()),
            },
            repository,
            epoch,
            replayed,
            truncated_bytes,
        })
    }

    /// Append one commit record. Under [`Durability::Fsync`] the record is
    /// on disk when this returns.
    ///
    /// # Errors
    /// [`MorerError::Io`] when the write or sync fails — the log tail is
    /// then suspect and the owning pipeline poisons itself (a later
    /// [`Wal::open`] recovers to the last fully appended record).
    pub fn append(&mut self, record: &CommitRecord) -> Result<(), MorerError> {
        self.write_frame(record)?;
        if self.options.durability == Durability::Fsync {
            // covers this record and any still-pending deferred appends
            let started = Instant::now();
            self.log.sync_data()?;
            self.obs.fsync_micros.record_micros(started.elapsed());
            self.pending_sync = false;
        }
        Ok(())
    }

    /// [`Wal::append`] without the per-record sync: the frame is written,
    /// the log is marked *pending*, and the record only becomes
    /// fsync-acknowledged at the next [`Wal::sync`] (group commit — several
    /// appends share one `fdatasync`). Callers must not acknowledge the
    /// commit to anyone before that sync returns. Under
    /// [`Durability::Buffered`] this is identical to `append`.
    pub fn append_deferred(&mut self, record: &CommitRecord) -> Result<(), MorerError> {
        self.write_frame(record)?;
        if self.options.durability == Durability::Fsync {
            self.pending_sync = true;
        }
        Ok(())
    }

    /// Make every deferred append durable: one `fdatasync` for the whole
    /// group. A no-op when nothing is pending (or under
    /// [`Durability::Buffered`]).
    ///
    /// # Errors
    /// [`MorerError::Io`] when the sync fails — the pending appends are
    /// then *not* durable and the owning pipeline poisons itself.
    pub fn sync(&mut self) -> Result<(), MorerError> {
        if self.pending_sync {
            let started = Instant::now();
            self.log.sync_data()?;
            self.obs.fsync_micros.record_micros(started.elapsed());
            self.pending_sync = false;
        }
        Ok(())
    }

    /// Whether deferred appends are awaiting their shared [`Wal::sync`].
    pub fn sync_pending(&self) -> bool {
        self.pending_sync
    }

    fn write_frame(&mut self, record: &CommitRecord) -> Result<(), MorerError> {
        let started = Instant::now();
        let payload =
            serde_json::to_string(record).map_err(|e| MorerError::Parse(e.to_string()))?;
        let payload = payload.into_bytes();
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(MorerError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("commit record of {} bytes exceeds the frame limit", payload.len()),
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&content_hash(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.log.write_all(&frame)?;
        self.log_bytes += frame.len() as u64;
        self.log_records += 1;
        self.durable_epoch = record.epoch;
        self.obs.append_micros.record_micros(started.elapsed());
        Ok(())
    }

    /// Whether the auto-compaction threshold
    /// ([`WalOptions::compact_every`]) has been reached.
    pub fn due_for_compaction(&self) -> bool {
        self.options.compact_every > 0 && self.log_records >= self.options.compact_every
    }

    /// Fold the log into a fresh base snapshot: publish `repository` at
    /// `epoch` atomically (tmp file + rename), then truncate the log back
    /// to its header. Crash-safe at every point: before the rename the old
    /// base + full log still recover; after it, leftover log records are
    /// skipped by epoch on replay.
    pub fn compact(
        &mut self,
        repository: &ModelRepository,
        epoch: u64,
    ) -> Result<(), MorerError> {
        let started = Instant::now();
        let compactions = self.compactions + 1;
        write_base(&self.dir, repository, epoch, compactions)?;
        self.log.set_len(HEADER_LEN)?;
        self.log.seek(SeekFrom::Start(HEADER_LEN))?;
        if self.options.durability == Durability::Fsync {
            self.log.sync_data()?;
        }
        self.compactions = compactions;
        self.log_bytes = HEADER_LEN;
        self.log_records = 0;
        self.durable_epoch = epoch;
        // deferred appends were folded into the (synced) base snapshot
        self.pending_sync = false;
        self.obs.compact_micros.record_micros(started.elapsed());
        Ok(())
    }

    /// The stage-timing counters this log records into.
    pub fn obs(&self) -> Arc<WalObs> {
        Arc::clone(&self.obs)
    }

    /// Redirect stage timings into `obs` (future samples only). The
    /// owning pipeline injects one shared sink here so the series stays
    /// continuous when the log is replaced by
    /// [`crate::pipeline::Morer::repair_wal`].
    pub fn set_obs(&mut self, obs: Arc<WalObs>) {
        self.obs = obs;
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this log was attached with.
    pub fn options(&self) -> WalOptions {
        self.options
    }

    /// Current durability observability snapshot.
    pub fn state(&self) -> DurabilityState {
        DurabilityState {
            durable_epoch: self.durable_epoch,
            log_records: self.log_records,
            log_bytes: self.log_bytes,
            compactions: self.compactions,
            fsync: self.options.durability == Durability::Fsync,
        }
    }
}

pub(crate) fn header_bytes() -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(&WAL_MAGIC);
    header[8..].copy_from_slice(&(WAL_FORMAT_VERSION as u32).to_le_bytes());
    header
}

pub(crate) fn decode_record(payload: &[u8]) -> Option<CommitRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    serde_json::from_str(text).ok()
}

/// Validate then apply one replayed record: every touched entry either
/// replaces the entry at its id or appends at the store's end, and the
/// store is truncated to the recorded post-commit length. Validation runs
/// first so an inconsistent record mutates nothing. Shared by recovery
/// ([`Wal::open`]) and the log-shipping follower ([`crate::replication`]) —
/// the one replay path.
pub(crate) fn apply_record(
    entries: &mut Vec<ClusterEntry>,
    record: CommitRecord,
) -> Result<(), ()> {
    let mut len = entries.len();
    for entry in &record.entries {
        if entry.id > len {
            return Err(());
        }
        if entry.id == len {
            len += 1;
        }
    }
    if record.num_entries > len {
        return Err(());
    }
    for entry in record.entries {
        let id = entry.id;
        if id < entries.len() {
            entries[id] = entry;
        } else {
            entries.push(entry);
        }
    }
    entries.truncate(record.num_entries);
    Ok(())
}

/// Atomically publish a base snapshot: render, write to `base.json.tmp`,
/// sync, rename over `base.json`, then best-effort sync the directory so
/// the rename itself survives power loss.
fn write_base(
    dir: &Path,
    repository: &ModelRepository,
    epoch: u64,
    compactions: u64,
) -> Result<(), MorerError> {
    struct BaseEnvelope<'a> {
        repository: &'a ModelRepository,
        epoch: u64,
        compactions: u64,
    }
    impl Serialize for BaseEnvelope<'_> {
        fn to_value(&self) -> Value {
            Value::Map(vec![
                ("wal_version".to_owned(), Value::U64(WAL_FORMAT_VERSION)),
                ("epoch".to_owned(), Value::U64(self.epoch)),
                ("compactions".to_owned(), Value::U64(self.compactions)),
                ("repository".to_owned(), self.repository.versioned_value()),
            ])
        }
    }
    let text = serde_json::to_string(&BaseEnvelope { repository, epoch, compactions })
        .map_err(|e| MorerError::Parse(e.to_string()))?;
    let tmp = dir.join(BASE_TMP);
    let publish = (|| -> Result<(), MorerError> {
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, dir.join(BASE_FILE))?;
        Ok(())
    })();
    if publish.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else {
        let _ = File::open(dir).and_then(|d| d.sync_all());
    }
    publish
}

/// Load the base snapshot; an absent file is an empty repository at epoch
/// 0 with 0 compactions (a fresh WAL directory).
fn read_base(dir: &Path) -> Result<(ModelRepository, u64, u64), MorerError> {
    let path = dir.join(BASE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((ModelRepository::default(), 0, 0))
        }
        Err(e) => return Err(e.into()),
    };
    decode_base(&text)
}

/// Decode a base-snapshot envelope (`base.json` contents) into
/// `(repository, epoch, compactions)`. Shared by [`Wal::open`] and the
/// log-shipping follower's bootstrap path, which receives the same bytes
/// over the wire.
pub(crate) fn decode_base(text: &str) -> Result<(ModelRepository, u64, u64), MorerError> {
    let corrupt = |reason: String| MorerError::LogCorrupt { offset: 0, reason };
    let envelope = serde_json::from_str_value(&text)
        .map_err(|e| corrupt(format!("base snapshot is not valid JSON: {e}")))?;
    let version = read_u64(&envelope, "wal_version")
        .ok_or_else(|| corrupt("base snapshot lacks a wal_version header".to_owned()))?;
    if version > WAL_FORMAT_VERSION {
        return Err(MorerError::UnsupportedVersion { found: version });
    }
    let epoch = read_u64(&envelope, "epoch")
        .ok_or_else(|| corrupt("base snapshot lacks an epoch".to_owned()))?;
    let compactions = read_u64(&envelope, "compactions").unwrap_or(0);
    let repo_value = serde::map_get(&envelope, "repository")
        .map_err(|e| corrupt(e.to_string()))?;
    let repository = ModelRepository::from_versioned_value(repo_value)?;
    Ok((repository, epoch, compactions))
}

fn read_u64(envelope: &Value, key: &str) -> Option<u64> {
    match serde::map_get(envelope, key).ok()? {
        Value::U64(v) => Some(*v),
        Value::I64(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morer_ml::dataset::TrainingSet;
    use morer_ml::model::{ModelConfig, TrainedModel};

    fn sample_entry(id: usize) -> ClusterEntry {
        let training = TrainingSet::from_rows(
            &[vec![0.9, 0.8], vec![0.1, 0.2], vec![0.85, 0.9], vec![0.15, 0.1]],
            &[true, false, true, false],
        );
        let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
        ClusterEntry::new(id, vec![id * 2, id * 2 + 1], model, training, 4)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("morer_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(epoch: u64, ids: &[usize], num_entries: usize) -> CommitRecord {
        CommitRecord {
            epoch,
            num_entries,
            entries: ids.iter().map(|&i| sample_entry(i)).collect(),
            report: Some(IngestReport { problems_added: ids.len(), epoch, ..Default::default() }),
        }
    }

    #[test]
    fn content_hash_matches_fnv1a_reference_vectors() {
        // published FNV-1a 64 test vectors
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn append_then_open_round_trips_records_and_counters() {
        let dir = tmp("round_trip");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        wal.append(&record(2, &[0, 1], 2)).unwrap();
        let state = wal.state();
        assert_eq!(state.durable_epoch, 2);
        assert_eq!(state.log_records, 2);
        assert!(state.fsync);
        drop(wal);

        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.truncated_bytes, 0);
        assert_eq!(recovered.repository.entries.len(), 2);
        assert_eq!(recovered.repository.entries[1], sample_entry(1));
        assert_eq!(recovered.wal.state().log_bytes, state.log_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_counts_every_discarded_byte() {
        let dir = tmp("torn_header");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        drop(wal);
        // a crash mid-header leaves 5 of the 12 header bytes behind
        let log_path = dir.join(LOG_FILE);
        let torn = std::fs::read(&log_path).unwrap()[..5].to_vec();
        std::fs::write(&log_path, torn).unwrap();

        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.truncated_bytes, 5);
        assert_eq!(recovered.epoch, 0);
        assert_eq!(recovered.wal.state().log_bytes, HEADER_LEN);
        assert_eq!(std::fs::metadata(&log_path).unwrap().len(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_refuses_existing_durable_state() {
        let dir = tmp("no_clobber");
        let wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        drop(wal);
        let err =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap_err();
        match err {
            MorerError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_log_file_is_a_typed_error_not_a_wipe() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_FILE), b"this is somebody else's data file").unwrap();
        let err = Wal::open(&dir, WalOptions::default()).unwrap_err();
        assert!(matches!(err, MorerError::LogCorrupt { offset: 0, .. }), "got {err:?}");
        // and the foreign bytes were not touched
        assert_eq!(
            std::fs::read(dir.join(LOG_FILE)).unwrap(),
            b"this is somebody else's data file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_log_version_fails_typed() {
        let dir = tmp("future");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = header_bytes().to_vec();
        let future = (WAL_FORMAT_VERSION + 1) as u32;
        bytes[8..12].copy_from_slice(&future.to_le_bytes());
        std::fs::write(dir.join(LOG_FILE), bytes).unwrap();
        match Wal::open(&dir, WalOptions::default()) {
            Err(MorerError::UnsupportedVersion { found }) => {
                assert_eq!(found, WAL_FORMAT_VERSION + 1)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_the_log_and_survives_an_unfinished_truncate() {
        let dir = tmp("compact");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        wal.append(&record(2, &[1], 2)).unwrap();
        let old_log = std::fs::read(dir.join(LOG_FILE)).unwrap();
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        wal.compact(&repo, 2).unwrap();
        assert_eq!(wal.state().log_records, 0);
        assert_eq!(wal.state().compactions, 1);
        drop(wal);

        // clean recovery from the compacted state
        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(recovered.repository, repo);
        drop(recovered);

        // simulate a crash between base rename and log truncation: the old
        // log reappears in full; its records are all <= the base epoch and
        // must be skipped, not replayed
        std::fs::write(dir.join(LOG_FILE), &old_log).unwrap();
        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.replayed, 0, "compaction leftovers must be skipped");
        assert_eq!(recovered.repository, repo);
        assert_eq!(recovered.wal.state().log_records, 2, "leftovers are retained");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_base_tmp_is_discarded_on_open() {
        let dir = tmp("stale_tmp");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        drop(wal);
        // a crash mid-compaction can leave a half-written tmp base
        std::fs::write(dir.join(BASE_TMP), b"{\"wal_version\":1,\"epo").unwrap();
        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 1);
        assert!(!dir.join(BASE_TMP).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_gaps_stop_replay_at_the_gap() {
        let dir = tmp("gap");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        // epoch 3 without an epoch-2 record: a commit is missing
        wal.append(&record(3, &[1], 2)).unwrap();
        drop(wal);
        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 1, "replay must stop at the gap");
        assert_eq!(recovered.repository.entries.len(), 1);
        assert!(recovered.truncated_bytes > 0, "the gapped record is dropped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_entry_ids_stop_replay_without_partial_application() {
        let dir = tmp("bad_ids");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        // entry id 5 skips past the store length (1): must not apply, and
        // the record's other (valid) entry must not leak in either
        wal.append(&record(2, &[1, 5], 3)).unwrap();
        drop(wal);
        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 1);
        assert_eq!(recovered.repository.entries.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deferred_appends_share_one_sync_and_recover_identically() {
        let dir = tmp("group");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append_deferred(&record(1, &[0], 1)).unwrap();
        wal.append_deferred(&record(2, &[1], 2)).unwrap();
        assert!(wal.sync_pending(), "deferred appends must await their group sync");
        wal.sync().unwrap();
        assert!(!wal.sync_pending());
        wal.sync().unwrap(); // idempotent no-op
        // a plain append after deferred ones covers any pending group
        wal.append_deferred(&record(3, &[0], 2)).unwrap();
        wal.append(&record(4, &[1], 2)).unwrap();
        assert!(!wal.sync_pending());
        assert_eq!(wal.state().durable_epoch, 4);
        drop(wal);

        let recovered = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(recovered.epoch, 4);
        assert_eq!(recovered.replayed, 4);
        assert_eq!(recovered.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_meters_appends_syncs_and_compactions() {
        let dir = tmp("obs");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        let shared = Arc::new(WalObs::default());
        wal.set_obs(Arc::clone(&shared));
        wal.append(&record(1, &[0], 1)).unwrap();
        wal.append_deferred(&record(2, &[1], 2)).unwrap();
        wal.sync().unwrap();
        assert_eq!(shared.append_micros.count(), 2);
        assert_eq!(shared.fsync_micros.count(), 2, "one per append, one per group sync");
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        wal.compact(&repo, 2).unwrap();
        assert_eq!(shared.compact_micros.count(), 1);
        assert!(Arc::ptr_eq(&wal.obs(), &shared));
        shared.record_recovery(3, 17);
        assert_eq!(shared.recoveries.load(Ordering::Relaxed), 1);
        assert_eq!(shared.replayed_records.load(Ordering::Relaxed), 3);
        assert_eq!(shared.truncated_bytes.load(Ordering::Relaxed), 17);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_mode_reports_itself() {
        let dir = tmp("buffered");
        let options = WalOptions { durability: Durability::Buffered, compact_every: 0 };
        let mut wal = Wal::create(&dir, options, &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        assert!(!wal.state().fsync);
        assert!(!wal.due_for_compaction());
        assert_eq!(Durability::Buffered.as_str(), "buffered");
        assert_eq!(Durability::Fsync.as_str(), "fsync");
        std::fs::remove_dir_all(&dir).ok();
    }
}
