//! Log shipping: the follower side of WAL replication.
//!
//! The write-ahead log's frames (see [`crate::wal`]) are self-delimiting
//! and content-hashed, so a replica can stream them **verbatim** from a
//! leader and re-verify every byte itself. This module is the
//! transport-agnostic core of that follower: segment verification
//! ([`FrameReader`]), and [`FollowerState`] — record application through
//! the *same* replay path recovery uses (`wal::apply_record`) plus the
//! offset/generation bookkeeping of the shipping protocol. The follower
//! keeps one copy of the repository, as the leader does: `Arc`-shared
//! entries that its read snapshots point into. The HTTP transport
//! (polling `GET /wal` on a `morer-serve` leader, backoff, resync
//! fetches) lives in `morer-serve`; everything here is pure bytes-in,
//! state-out — which is what the fault-injection property tests drive
//! directly.
//!
//! The wire/offset protocol itself is specified in the [`crate::wal`]
//! module docs ("Log-shipping wire/offset protocol"). The invariants this
//! module enforces:
//!
//! * **No partial application, ever.** A frame is applied only after its
//!   length prefix, content hash and decode all verify *and* its epoch is
//!   exactly `applied + 1`. A short (torn) tail or a corrupt frame stops
//!   the segment at the last fully applied offset — the follower re-fetches
//!   from there.
//! * **Idempotent re-delivery.** Frames with `epoch <= applied` (compaction
//!   leftovers, or a re-fetched segment overlapping already-applied
//!   frames) are verified, counted as skipped, and not re-applied.
//! * **Gaps force a resync.** An epoch jump means bytes are missing (the
//!   leader compacted mid-tail, or restarted into a shorter log): the
//!   follower discards nothing it already applied, but must rebuild from
//!   the leader's base snapshot before applying anything further.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use crate::error::{MorerError, WAL_FORMAT_VERSION};
use crate::repository::{ClusterEntry, ModelRepository};
use crate::wal::{
    self, content_hash, CommitRecord, FRAME_HEADER_LEN, HEADER_LEN, LOG_FILE, MAX_RECORD_BYTES,
};

/// A verified chunk of the leader's log, as served to a follower: whole
/// frames only, starting at exactly the requested offset.
#[derive(Debug)]
pub struct LogSegment {
    /// The byte offset (into `wal.log`, header included) the segment
    /// starts at — the follower's requested offset.
    pub start: u64,
    /// Raw frame bytes, leader-verified: every frame in here is whole and
    /// hash-consistent. May be empty (follower caught up, or the requested
    /// offset does not fall on a frame boundary of the current log).
    pub bytes: Vec<u8>,
    /// The current log length (= the leader's append offset). A follower
    /// whose offset equals this is caught up; one whose offset *exceeds*
    /// it needs a resync (the leader compacted or lost a suffix).
    pub log_len: u64,
}

/// Leader side of the shipping protocol: read up to `max_bytes` of
/// **verified whole frames** from `dir`'s log starting at byte `from`.
///
/// The read races the writer by design — appends may land mid-read and a
/// compaction may truncate the file under us. Both are safe: only frames
/// whose length prefix and content hash verify are returned, a torn tail
/// is simply cut off, and an offset that no longer falls on a frame
/// boundary yields zero verified frames (the follower's generation check
/// and epoch continuity handle the rest).
///
/// # Errors
/// [`MorerError::LogCorrupt`] when the file exists but is not a MoRER log;
/// [`MorerError::UnsupportedVersion`] on a future format;
/// [`MorerError::Io`] on read failures. A missing log file reads as empty
/// (length [`HEADER_LEN`], no frames).
pub fn read_log_segment(
    dir: &Path,
    from: u64,
    max_bytes: usize,
) -> Result<LogSegment, MorerError> {
    let path = dir.join(LOG_FILE);
    let mut file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LogSegment { start: from, bytes: Vec::new(), log_len: HEADER_LEN })
        }
        Err(e) => return Err(e.into()),
    };
    let mut header = [0u8; HEADER_LEN as usize];
    let log_len = file.metadata()?.len();
    if log_len >= HEADER_LEN {
        file.read_exact(&mut header)?;
        if header[..8] != wal::WAL_MAGIC {
            return Err(MorerError::LogCorrupt {
                offset: 0,
                reason: format!("{} is not a MoRER write-ahead log", path.display()),
            });
        }
        let version = u64::from(u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")));
        if version > WAL_FORMAT_VERSION {
            return Err(MorerError::UnsupportedVersion { found: version });
        }
    }
    if from < HEADER_LEN || from >= log_len {
        return Ok(LogSegment { start: from, bytes: Vec::new(), log_len });
    }
    let want = usize::try_from(log_len - from)
        .unwrap_or(usize::MAX)
        .min(max_bytes.max(FRAME_HEADER_LEN + 1));
    file.seek(SeekFrom::Start(from))?;
    let mut raw = vec![0u8; want];
    let mut filled = 0;
    while filled < raw.len() {
        match file.read(&mut raw[filled..]) {
            Ok(0) => break, // the file shrank under us (compaction): serve what we have
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    raw.truncate(filled);

    // keep only the verified whole-frame prefix
    let mut end = 0usize;
    while raw.len() - end >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(raw[end..end + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            break;
        }
        let len = len as usize;
        if raw.len() - end < FRAME_HEADER_LEN + len {
            // progress guarantee: a single frame larger than `max_bytes`
            // must still ship — extend the read to cover exactly it
            let whole = FRAME_HEADER_LEN + len;
            if end == 0 && from + whole as u64 <= log_len && whole > raw.len() {
                let mut rest = vec![0u8; whole - raw.len()];
                if file.read_exact(&mut rest).is_ok() {
                    raw.extend_from_slice(&rest);
                    continue;
                }
            }
            break;
        }
        let stored = u64::from_le_bytes(raw[end + 4..end + 12].try_into().expect("8 bytes"));
        if content_hash(&raw[end + FRAME_HEADER_LEN..end + FRAME_HEADER_LEN + len]) != stored {
            break;
        }
        end += FRAME_HEADER_LEN + len;
    }
    raw.truncate(end);
    Ok(LogSegment { start: from, bytes: raw, log_len })
}

/// A decoded base-snapshot envelope (`base.json` bytes — from disk or from
/// the wire), the bootstrap/resync artifact of the shipping protocol.
#[derive(Debug)]
pub struct BaseSnapshot {
    /// The folded repository.
    pub repository: ModelRepository,
    /// The epoch the base captures.
    pub epoch: u64,
    /// The leader's compaction counter when the base was published — the
    /// *generation* the follower tails under.
    pub generation: u64,
}

/// Decode base-snapshot bytes as shipped by a leader (identical to the
/// on-disk `base.json`).
///
/// # Errors
/// [`MorerError::LogCorrupt`] / [`MorerError::UnsupportedVersion`] exactly
/// as recovery-on-open would report them.
pub fn decode_base_snapshot(text: &str) -> Result<BaseSnapshot, MorerError> {
    let (repository, epoch, generation) = wal::decode_base(text)?;
    Ok(BaseSnapshot { repository, epoch, generation })
}

/// Why a frame could not be taken from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameCorrupt {
    /// Offset of the bad frame relative to the reader's stream start.
    pub offset: u64,
    /// What failed (length prefix, content hash, decode).
    pub reason: String,
}

impl std::fmt::Display for FrameCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame at stream offset {}: {}", self.offset, self.reason)
    }
}

/// Streaming frame verifier/decoder: push raw shipped bytes in, take
/// verified [`CommitRecord`]s out. A short tail is "need more bytes", not
/// an error; a frame that fails its length bound, content hash or decode
/// is [`FrameCorrupt`] — the caller discards the buffer and re-fetches
/// from its last fully consumed offset.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    consumed: u64,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed raw shipped bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // drop the consumed prefix before growing, so a long tail never
        // accumulates already-applied frames
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Take the next verified frame: `Ok(Some((record, frame_len)))` when a
    /// whole frame verified and decoded, `Ok(None)` when the buffered tail
    /// is (so far) too short to judge, `Err` when the frame at the cursor
    /// is provably corrupt.
    pub fn next_frame(&mut self) -> Result<Option<(CommitRecord, u64)>, FrameCorrupt> {
        let avail = self.buf.len() - self.pos;
        if avail < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let at = self.pos;
        let len = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return Err(FrameCorrupt {
                offset: self.consumed,
                reason: format!("length prefix {len} exceeds the frame limit"),
            });
        }
        let len = len as usize;
        if avail < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let stored = u64::from_le_bytes(self.buf[at + 4..at + 12].try_into().expect("8 bytes"));
        let payload = &self.buf[at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len];
        if content_hash(payload) != stored {
            return Err(FrameCorrupt {
                offset: self.consumed,
                reason: "content hash mismatch (bit-flipped payload)".to_owned(),
            });
        }
        let Some(record) = wal::decode_record(payload) else {
            return Err(FrameCorrupt {
                offset: self.consumed,
                reason: "hash-valid frame does not decode to a commit record".to_owned(),
            });
        };
        let frame_len = (FRAME_HEADER_LEN + len) as u64;
        self.pos += FRAME_HEADER_LEN + len;
        self.consumed += frame_len;
        Ok(Some((record, frame_len)))
    }

    /// Unconsumed (buffered, not yet verified) bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Total stream bytes consumed as verified frames.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Discard everything buffered (after a corrupt frame or before a
    /// re-fetch) without resetting the consumed counter.
    pub fn discard_buffered(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
}

/// What applying one verified record did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ApplyOutcome {
    /// The record advanced the replica by one epoch.
    Applied,
    /// `epoch <= applied`: an idempotent re-delivery or compaction
    /// leftover, verified and ignored.
    Skipped,
    /// `epoch > applied + 1`: commits are missing — resync from base.
    Gap,
    /// The record's entry ids are inconsistent with the store (nothing was
    /// mutated) — treat like corruption and resync.
    Invalid,
}

/// Terminal status of one ingested segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStatus {
    /// Every byte of the segment was verified and applied/skipped.
    Clean,
    /// The segment ended mid-frame (torn/short tail): re-fetch from
    /// [`FollowerState::offset`].
    TornTail,
    /// A frame failed verification: the suffix was discarded — re-fetch
    /// from [`FollowerState::offset`].
    Corrupt,
    /// An epoch gap or invalid record: the follower must resync from the
    /// leader's base snapshot before applying anything further.
    NeedResync,
}

/// Per-segment application report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentReport {
    /// Records applied (epoch advanced).
    pub applied: u64,
    /// Records verified but skipped as already applied.
    pub skipped: u64,
    /// How the segment ended.
    pub status: SegmentStatus,
}

/// The complete follower-side protocol state: the applied entry store,
/// its epoch, and the offset/generation the next segment is fetched at.
/// One instance per upstream leader; replaced wholesale on resync
/// ([`FollowerState::from_base`]).
///
/// Records apply in epoch order through the same `apply_record` path crash
/// recovery replays with, so a follower that has applied epoch E is
/// bit-identical (via `save_json`) to a leader recovered at epoch E. The
/// store holds `Arc`-shared entries, like the leader's: an applied record
/// replaces the pointer at each position it lists, and every other
/// position keeps its `Arc`, so a read snapshot built from
/// [`FollowerState::entries`] shares the untouched entries (and their
/// warmed sketch caches) with the store and with the previous snapshot.
#[derive(Debug)]
pub struct FollowerState {
    entries: Vec<Arc<ClusterEntry>>,
    /// The last applied epoch.
    epoch: u64,
    /// Leader log offset of the first byte *not yet applied* — where the
    /// next segment must start.
    offset: u64,
    /// The leader compaction generation the offset is valid under.
    generation: u64,
}

impl FollowerState {
    /// A follower that has never synced: empty repository, epoch 0,
    /// tailing generation 0 from the first frame.
    pub fn empty() -> Self {
        Self { entries: Vec::new(), epoch: 0, offset: HEADER_LEN, generation: 0 }
    }

    /// Bootstrap (or resync) from a leader base snapshot: the state is
    /// replaced wholesale — after a leader restart that lost a suffix this
    /// intentionally rolls the follower back to the leader's truth.
    pub fn from_base(text: &str) -> Result<Self, MorerError> {
        let base = decode_base_snapshot(text)?;
        Ok(Self {
            entries: base.repository.entries.into_iter().map(Arc::new).collect(),
            epoch: base.epoch,
            offset: HEADER_LEN,
            generation: base.generation,
        })
    }

    /// The offset the next segment must start at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The generation the offset is valid under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The last applied epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A clone of the applied state as a [`ModelRepository`] (for
    /// persistence or bit-identity assertions).
    pub fn repository(&self) -> ModelRepository {
        ModelRepository { entries: self.entries.iter().map(|e| (**e).clone()).collect() }
    }

    /// The applied entry store — what a read snapshot is built from
    /// (`ModelSearcher::from_shared(state.entries().to_vec(), ..)` copies
    /// pointers only).
    pub fn entries(&self) -> &[Arc<ClusterEntry>] {
        &self.entries
    }

    /// Apply one verified record (see [`ApplyOutcome`]). Validation runs
    /// before any mutation: an `Invalid` or `Gap` outcome leaves the
    /// store exactly as it was.
    fn apply(&mut self, record: CommitRecord) -> ApplyOutcome {
        if record.epoch <= self.epoch {
            return ApplyOutcome::Skipped;
        }
        if record.epoch != self.epoch + 1 {
            return ApplyOutcome::Gap;
        }
        let epoch = record.epoch;
        match wal::apply_record(&mut self.entries, record) {
            Ok(()) => {
                self.epoch = epoch;
                ApplyOutcome::Applied
            }
            Err(()) => ApplyOutcome::Invalid,
        }
    }

    /// Ingest one shipped segment that starts at exactly
    /// [`FollowerState::offset`] (segments starting anywhere else are
    /// refused with `Corrupt` and nothing is applied). Applies the verified
    /// prefix, advances the offset frame by frame, and reports how the
    /// segment ended — partial records are never applied.
    pub fn ingest_segment(&mut self, start: u64, bytes: &[u8]) -> SegmentReport {
        let mut report = SegmentReport { applied: 0, skipped: 0, status: SegmentStatus::Clean };
        if start != self.offset {
            report.status = SegmentStatus::Corrupt;
            return report;
        }
        let mut reader = FrameReader::new();
        reader.push(bytes);
        loop {
            match reader.next_frame() {
                Ok(None) => {
                    if reader.buffered() > 0 {
                        report.status = SegmentStatus::TornTail;
                    }
                    return report;
                }
                Err(_) => {
                    report.status = SegmentStatus::Corrupt;
                    return report;
                }
                Ok(Some((record, frame_len))) => match self.apply(record) {
                    ApplyOutcome::Applied => {
                        self.offset += frame_len;
                        report.applied += 1;
                    }
                    ApplyOutcome::Skipped => {
                        self.offset += frame_len;
                        report.skipped += 1;
                    }
                    ApplyOutcome::Gap | ApplyOutcome::Invalid => {
                        report.status = SegmentStatus::NeedResync;
                        return report;
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Wal, WalOptions};
    use morer_ml::dataset::TrainingSet;
    use morer_ml::model::{ModelConfig, TrainedModel};
    use std::path::PathBuf;

    fn sample_entry(id: usize) -> ClusterEntry {
        let training = TrainingSet::from_rows(
            &[vec![0.9, 0.8], vec![0.1, 0.2], vec![0.85, 0.9], vec![0.15, 0.1]],
            &[true, false, true, false],
        );
        let model = TrainedModel::train(&ModelConfig::GaussianNb, &training);
        ClusterEntry::new(id, vec![id * 2, id * 2 + 1], model, training, 4)
    }

    fn record(epoch: u64, ids: &[usize], num_entries: usize) -> CommitRecord {
        CommitRecord {
            epoch,
            num_entries,
            entries: ids.iter().map(|&i| sample_entry(i)).collect(),
            report: None,
        }
    }

    fn frame(record: &CommitRecord) -> Vec<u8> {
        let payload = serde_json::to_string(record).unwrap().into_bytes();
        let mut f = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        f.extend_from_slice(&content_hash(&payload).to_le_bytes());
        f.extend_from_slice(&payload);
        f
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("morer_repl_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_reader_streams_across_arbitrary_cut_points() {
        let frames: Vec<u8> = (1..=3).flat_map(|e| frame(&record(e, &[0], 1))).collect();
        // push one byte at a time: every prefix is either "need more" or a
        // verified frame, never an error
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &b in &frames {
            reader.push(&[b]);
            while let Some((r, _)) = reader.next_frame().unwrap() {
                got.push(r.epoch);
            }
        }
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(reader.buffered(), 0);
        assert_eq!(reader.consumed(), frames.len() as u64);
    }

    #[test]
    fn frame_reader_rejects_bit_flips_and_bad_lengths() {
        let mut bytes = frame(&record(1, &[0], 1));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        assert!(reader.next_frame().is_err(), "flipped payload must not verify");

        let mut reader = FrameReader::new();
        reader.push(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        reader.push(&[0u8; 8]);
        assert!(reader.next_frame().is_err(), "oversized length prefix must not verify");
    }

    #[test]
    fn applier_applies_skips_and_gaps_like_recovery() {
        let mut applier = FollowerState::empty();
        assert_eq!(applier.apply(record(1, &[0], 1)), ApplyOutcome::Applied);
        assert_eq!(applier.apply(record(1, &[0], 1)), ApplyOutcome::Skipped);
        assert_eq!(applier.apply(record(3, &[1], 2)), ApplyOutcome::Gap);
        assert_eq!(applier.epoch(), 1);
        // an entry id past the store length must not apply, even partially
        assert_eq!(applier.apply(record(2, &[5], 6)), ApplyOutcome::Invalid);
        assert_eq!(applier.entries().len(), 1);
        assert_eq!(applier.apply(record(2, &[1], 2)), ApplyOutcome::Applied);
        assert_eq!(applier.epoch(), 2);
    }

    #[test]
    fn follower_state_tracks_offsets_and_requests_resync_on_gap() {
        let mut state = FollowerState::empty();
        let f1 = frame(&record(1, &[0], 1));
        let f2 = frame(&record(2, &[1], 2));
        let r = state.ingest_segment(HEADER_LEN, &[f1.clone(), f2.clone()].concat());
        assert_eq!(r.applied, 2);
        assert_eq!(r.status, SegmentStatus::Clean);
        assert_eq!(state.offset(), HEADER_LEN + (f1.len() + f2.len()) as u64);
        assert_eq!(state.epoch(), 2);
        // a gapped record (leader compacted mid-tail) demands a resync
        let r = state.ingest_segment(state.offset(), &frame(&record(9, &[0], 2)));
        assert_eq!(r.status, SegmentStatus::NeedResync);
        assert_eq!(state.epoch(), 2, "nothing may apply across a gap");
        // a segment starting at the wrong offset is refused outright
        let r = state.ingest_segment(HEADER_LEN, &f1);
        assert_eq!(r.status, SegmentStatus::Corrupt);
    }

    #[test]
    fn leader_segments_ship_only_verified_whole_frames() {
        let dir = tmp("segment");
        let mut wal =
            Wal::create(&dir, WalOptions::default(), &ModelRepository::default(), 0).unwrap();
        wal.append(&record(1, &[0], 1)).unwrap();
        wal.append(&record(2, &[1], 2)).unwrap();
        let log_len = wal.state().log_bytes;
        // simulate a torn in-flight append: raw garbage past the last frame
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(LOG_FILE))
                .unwrap();
            f.write_all(&[7u8; 5]).unwrap();
        }
        let seg = read_log_segment(&dir, HEADER_LEN, usize::MAX).unwrap();
        assert_eq!(seg.start, HEADER_LEN);
        assert_eq!(seg.bytes.len() as u64, log_len - HEADER_LEN, "torn tail must be cut");
        let mut state = FollowerState::empty();
        let r = state.ingest_segment(HEADER_LEN, &seg.bytes);
        assert_eq!(r.applied, 2);
        assert_eq!(r.status, SegmentStatus::Clean);

        // caught-up and beyond-log offsets ship zero bytes but report log_len
        let seg = read_log_segment(&dir, log_len, usize::MAX).unwrap();
        assert!(seg.bytes.is_empty());
        let seg = read_log_segment(&dir, log_len + 999, usize::MAX).unwrap();
        assert!(seg.bytes.is_empty());
        assert!(seg.log_len < log_len + 999);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn base_snapshot_round_trips_through_the_wire_decoder() {
        let dir = tmp("base_wire");
        let repo = ModelRepository { entries: vec![sample_entry(0), sample_entry(1)] };
        let mut wal = Wal::create(&dir, WalOptions::default(), &repo, 3).unwrap();
        wal.append(&record(4, &[0], 2)).unwrap();
        wal.compact(&repo, 4).unwrap();
        let text = std::fs::read_to_string(dir.join("base.json")).unwrap();
        let base = decode_base_snapshot(&text).unwrap();
        assert_eq!(base.epoch, 4);
        assert_eq!(base.generation, 1);
        assert_eq!(base.repository, repo);
        let state = FollowerState::from_base(&text).unwrap();
        assert_eq!(state.epoch(), 4);
        assert_eq!(state.generation(), 1);
        assert_eq!(state.offset(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }
}
