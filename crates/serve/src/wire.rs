//! Wire DTOs of the service: the JSON bodies that are not already
//! wire-facing core types ([`morer_core::searcher::SearchHit`],
//! [`morer_core::searcher::SolveOutcome`],
//! [`morer_core::pipeline::IngestReport`] derive their serde impls in
//! `morer-core`), plus the [`MorerError`] → HTTP status mapping.

use serde::{Deserialize, Serialize, Value};

use crate::metrics::{ConnectionStats, EndpointStats};
use crate::replica::ReplicaStatus;
use morer_core::error::MorerError;
use morer_core::index::IndexOverview;
use morer_core::wal::DurabilityState;

/// `GET /healthz` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"` while fully serving; `"degraded"` when the write path cannot
    /// commit (reads keep serving the last committed epoch) or — in
    /// replica mode — while the leader is unreachable (reads keep serving
    /// the last applied epoch).
    pub status: String,
    /// The connection core serving this instance:
    /// [`crate::config::ServeBackend::label`], always `"reactor"`.
    pub backend: String,
    /// The committed repository epoch the read path currently serves.
    pub epoch: u64,
    /// Number of stored models (= repository entries).
    pub models: usize,
    /// Durability mode of the write path: `"fsync"` (ingest replies only
    /// after the commit record is on disk), `"buffered"` (logged but
    /// OS-buffered), or `"none"` (in-memory only, no write-ahead log).
    pub durability: String,
    /// Last epoch guaranteed recoverable by [`morer_core::pipeline::Morer::open`]
    /// (absent without a write-ahead log).
    pub durable_epoch: Option<u64>,
    /// Replica observability (`lag_epochs`, `last_contact_ms`, reconnect
    /// and resync counters) when this server fronts a log-shipping
    /// follower; absent on leaders.
    pub replica: Option<ReplicaStatus>,
}

/// `GET /stats` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// The committed repository epoch the read path currently serves.
    pub epoch: u64,
    /// Number of repository entries.
    pub entries: usize,
    /// Entries with representative vectors (the ones `sel_base` can score).
    pub searchable_entries: usize,
    /// Write-ahead-log state (durable epoch, log length, compaction count);
    /// absent when the server runs without durability.
    pub wal: Option<DurabilityState>,
    /// Search-index sizes and cumulative shortlist counters
    /// ([`morer_core::index`]); absent until the served searcher has built
    /// an index (e.g. a cold repository that has not answered a search).
    pub search_index: Option<IndexOverview>,
    /// Per-endpoint request counters and latency aggregates.
    pub endpoints: Vec<EndpointStats>,
    /// Connection-lifecycle gauges: open/peak counts, accepts, cap
    /// rejections and idle reaps.
    pub connections: ConnectionStats,
}

/// One span as reported by `GET /debug/trace`: a stage of one traced
/// request on the service's own microsecond clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The request's trace id, 16 lowercase hex digits — the same string
    /// the response's `x-morer-trace-id` header carried.
    pub trace_id: String,
    /// Stage name ([`crate::metrics::stage_name`]): `request` for the
    /// root span, `decode`/`search`/`solve`/`encode`/`writer_wait` for
    /// interior stages.
    pub stage: String,
    /// Start offset in microseconds since the server's metrics epoch.
    pub start_micros: u64,
    /// Stage duration, microseconds.
    pub duration_micros: u64,
    /// Outcome: the HTTP status for `request` spans, 0 for interior
    /// stages.
    pub code: u32,
}

/// `GET /debug/trace` response body: the flight recorder's two rings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDump {
    /// Requests at/over this many microseconds were copied into `slow`.
    pub slow_threshold_micros: u64,
    /// Spans of the newest traced requests, oldest first.
    pub recent: Vec<TraceSpan>,
    /// Spans of slow requests only (longer retention than `recent`).
    pub slow: Vec<TraceSpan>,
}

/// The decoded error body every non-2xx response carries:
/// `{"error": {"kind": "...", "message": "..."}}`. `kind` is
/// [`MorerError::kind`] (clients branch on it); extra variant payloads
/// (e.g. `found` for `unsupported_version`) are ignored by this decoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Machine-readable failure mode.
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

/// The envelope wrapping [`ErrorBody`] on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// The error payload.
    pub error: ErrorBody,
}

/// The HTTP status a [`MorerError`] maps to.
pub fn status_for(err: &MorerError) -> u16 {
    match err {
        // nothing to search: the resource the query needs does not exist
        MorerError::EmptyRepository => 404,
        // the client sent something this build cannot decode or score
        MorerError::Parse(_)
        | MorerError::InvalidProblem(_)
        | MorerError::UnsupportedVersion { .. } => 400,
        // server-side failure: the durable state on disk, not the request,
        // is what's wrong
        MorerError::LogCorrupt { .. } | MorerError::Io(_) => 500,
    }
}

/// Render a [`MorerError`] as the standard error envelope, preserving
/// variant payloads via the error's own `Serialize` impl.
pub fn error_json(err: &MorerError) -> String {
    struct Envelope<'a>(&'a MorerError);
    impl Serialize for Envelope<'_> {
        fn to_value(&self) -> Value {
            Value::Map(vec![("error".to_owned(), self.0.to_value())])
        }
    }
    serde_json::to_string(&Envelope(err))
        .unwrap_or_else(|_| "{\"error\":{\"kind\":\"io\",\"message\":\"render failed\"}}".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_follow_the_error_taxonomy() {
        assert_eq!(status_for(&MorerError::EmptyRepository), 404);
        assert_eq!(status_for(&MorerError::Parse("x".into())), 400);
        assert_eq!(status_for(&MorerError::InvalidProblem("x".into())), 400);
        assert_eq!(status_for(&MorerError::UnsupportedVersion { found: 9 }), 400);
        assert_eq!(
            status_for(&MorerError::LogCorrupt { offset: 12, reason: "torn".into() }),
            500
        );
        assert_eq!(
            status_for(&MorerError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "gone"
            ))),
            500
        );
    }

    #[test]
    fn error_bodies_round_trip_kind_and_message() {
        let json = error_json(&MorerError::EmptyRepository);
        let env: ErrorEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(env.error.kind, "empty_repository");
        assert!(env.error.message.contains("empty repository"));
        // variant payloads survive in the raw body even though ErrorBody
        // does not model them
        let json = error_json(&MorerError::UnsupportedVersion { found: 7 });
        assert!(json.contains("\"found\":7"));
        let env: ErrorEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(env.error.kind, "unsupported_version");
    }

    #[test]
    fn health_and_stats_round_trip() {
        let h = HealthResponse {
            status: "ok".into(),
            backend: "reactor".into(),
            epoch: 3,
            models: 2,
            durability: "fsync".into(),
            durable_epoch: Some(3),
            replica: None,
        };
        let back: HealthResponse =
            serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
        // a follower's health carries the replica lag/contact counters
        let h = HealthResponse {
            replica: Some(ReplicaStatus {
                state: "streaming".into(),
                epoch: 3,
                leader_epoch: 5,
                lag_epochs: 2,
                last_contact_ms: Some(12),
                reconnects: 1,
                resyncs: 1,
                frames_applied: 3,
                corrupt_segments: 0,
            }),
            ..h
        };
        let back: HealthResponse =
            serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
        let s = StatsResponse {
            epoch: 3,
            entries: 2,
            searchable_entries: 2,
            wal: Some(DurabilityState {
                durable_epoch: 3,
                log_records: 2,
                log_bytes: 512,
                compactions: 1,
                fsync: true,
            }),
            search_index: Some(IndexOverview {
                indexed_entries: 2,
                pivots: 2,
                postings: 4,
                queries: 10,
                exact_scored: 12,
                considered: 20,
                fallbacks: 0,
                shortlist_frac: 0.6,
            }),
            endpoints: vec![EndpointStats {
                endpoint: "solve".into(),
                requests: 10,
                errors: 3,
                status_2xx: 7,
                status_4xx: 2,
                status_5xx: 1,
                total_micros: 5000,
                max_micros: 900,
                mean_micros: 500.0,
                p50_micros: 400,
                p90_micros: 800,
                p99_micros: 896,
                p999_micros: 900,
            }],
            connections: ConnectionStats {
                open: 1,
                peak: 4096,
                accepted: 9000,
                rejected: 1,
                idle_reaped: 7,
            },
        };
        let back: StatsResponse =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        // an in-memory server reports no durability; a cold searcher has
        // no index yet
        let s = StatsResponse { wal: None, search_index: None, ..s };
        let back: StatsResponse =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn trace_dumps_round_trip() {
        let d = TraceDump {
            slow_threshold_micros: 100_000,
            recent: vec![TraceSpan {
                trace_id: "00f1e2d3c4b5a697".into(),
                stage: "request".into(),
                start_micros: 1234,
                duration_micros: 56,
                code: 200,
            }],
            slow: Vec::new(),
        };
        let back: TraceDump = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
        assert_eq!(back, d);
    }
}
