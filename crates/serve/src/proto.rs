//! The `ansor-serve` wire protocol: newline-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line, echoing the request's `id`. Lines are capped at
//! [`MAX_LINE_BYTES`]; a connection sending a longer line is answered with
//! an error and closed (a client should never need one — job specs are a
//! few hundred bytes). Malformed JSON and unknown methods produce `ok:
//! false` error responses rather than dropped connections, so a client can
//! always correlate failures. See `docs/SERVING.md` for the full protocol
//! reference.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};

use ansor_core::{single_fingerprint, single_task_name};
use serde::{Deserialize, Serialize};

/// Protocol version, reported by `stats`. Bump on incompatible changes.
pub const PROTOCOL_VERSION: u64 = 2;

/// Maximum accepted request/response line length, newline included.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A job submission: which workload to tune, on what target, with what
/// budget and seed. Mirrors `ansor-tune`'s single-operator flags — a job
/// `{op, shape, batch, target, trials, seed}` is bit-identical to
/// `ansor-tune --op .. --shape .. --batch .. --target .. --trials ..
/// --seed ..` run cold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Operator class name (`GMM`, `C2D`, … — see `ansor-tune --list`).
    pub op: String,
    /// Shape index within the operator class.
    pub shape: usize,
    /// Batch size.
    pub batch: i64,
    /// Target name (`intel`, `intel-avx512`, `arm`, `gpu`).
    pub target: String,
    /// Measurement-trial budget.
    pub trials: usize,
    /// Search RNG seed.
    pub seed: u64,
    /// Opt-in warm start from the store's tuning records. Off the
    /// bit-identity path: a warm-started search legitimately differs from
    /// a cold one (it begins from prior measurements, per the transfer
    /// argument of Chen et al.). Defaults to off.
    pub warm_start: Option<bool>,
    /// Reserved like [`JobSpec::prerank_keep`] (was: a per-job thread
    /// count for a pool that no longer exists): `submit` rejects a spec
    /// that sets it.
    pub threads: Option<usize>,
    /// Per-job fault-plan override (`"none"`, `"default"`, or `"k=v,..."`
    /// — same grammar as `ansor-tune --faults`). Feeds the job's
    /// fingerprint and class key, so overridden jobs occupy their own
    /// warm-store class. Defaults to the server's fault spec.
    pub faults: Option<String>,
    /// Reserved (selected the removed surrogate prerank stage; the frozen
    /// `e2e_bench` still names it): `submit` rejects a spec that sets it.
    pub prerank_keep: Option<f64>,
    /// Reserved like [`JobSpec::prerank_keep`] (was: cross-class transfer).
    pub transfer: Option<bool>,
}

impl JobSpec {
    /// Canonical task name (shared with `ansor-tune`).
    pub fn task_name(&self) -> String {
        single_task_name(&self.op, self.shape, self.batch)
    }

    /// Invocation fingerprint under the server's fault spec (shared with
    /// `ansor-tune` checkpoints).
    pub fn fingerprint(&self, faults: &str) -> String {
        single_fingerprint(
            &self.op,
            self.shape,
            self.batch,
            &self.target,
            faults,
            self.seed,
        )
    }

    /// Warm-store class key: everything that determines a measurement
    /// result *except* the seed, so jobs with different seeds on the same
    /// workload/target/fault configuration share one measurement cache.
    pub fn class_key(&self, faults: &str) -> String {
        format!(
            "{}:s{}:b{}|target={}|faults={}",
            self.op, self.shape, self.batch, self.target, faults
        )
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Method name: `submit`, `status`, `result`, `wait`, `cancel`,
    /// `trace`, `stats`, or `shutdown`.
    pub method: String,
    /// Job id operand (`status`/`result`/`wait`/`cancel`/`trace`).
    pub job: Option<String>,
    /// Job spec operand (`submit`).
    pub spec: Option<JobSpec>,
    /// Whether `shutdown` drains queued jobs first (default `true`);
    /// `false` cancels queued and running jobs immediately.
    pub drain: Option<bool>,
    /// Byte offset into the job's trace file (`trace`; default 0). A
    /// client pulls a large trace by re-requesting with the offset
    /// advanced past each chunk until `eof`.
    pub offset: Option<u64>,
}

/// Point-in-time view of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// `queued`, `running`, `done`, `failed`, or `cancelled`.
    pub state: String,
    /// Tuning rounds completed.
    pub rounds: u64,
    /// Measurement trials consumed.
    pub trials: u64,
    /// Trial budget.
    pub trials_budget: u64,
    /// Best measured seconds so far (`None` before any valid result).
    pub best_seconds: Option<f64>,
}

/// Cache traffic observed during one job. Nonzero hits on a resubmitted
/// job are the "warm store worked" signal. The measurement counts are
/// deltas of the warm store's shared cache over the job's execution
/// window: under concurrent jobs the windows overlap, so they are
/// attributed approximately (the totals across jobs are exact). The
/// feature and score counts are the job's cost model's own lookups, exact
/// per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheDeltas {
    /// Measurement result cache hits.
    pub measure_hits: u64,
    /// Measurement result cache misses.
    pub measure_misses: u64,
    /// Featurization cache hits.
    pub feature_hits: u64,
    /// Featurization cache misses.
    pub feature_misses: u64,
    /// Model score cache hits. A score table travels with its model, so a
    /// job that recalls a model from the warm store hits the scores the
    /// job that fitted it filled.
    pub score_hits: u64,
    /// Model score cache misses.
    pub score_misses: u64,
}

/// Per-job counter deltas, computed from the job's own isolated
/// telemetry registry (`Snapshot::delta` over the session window). Unlike
/// [`CacheDeltas`] — which reads the session's cache statistics — these
/// come from the telemetry pipeline itself, so they are exact per job
/// even under concurrent sessions: each job has its own registry.
///
/// All fields default so results from older servers still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobCounters {
    /// Valid measurements (`measure/valid`).
    #[serde(default)]
    pub trials_valid: u64,
    /// Failed measurements (`measure/failed`).
    #[serde(default)]
    pub trials_failed: u64,
    /// Measurement-cache hits (`measure/cache_hits`).
    #[serde(default)]
    pub measure_cache_hits: u64,
    /// Measurement-cache misses (`measure/cache_misses`).
    #[serde(default)]
    pub measure_cache_misses: u64,
    /// Featurization-cache hits (`features/cache_hits`).
    #[serde(default)]
    pub feature_cache_hits: u64,
    /// Model score-cache hits (`model/score_cache_hits`).
    #[serde(default)]
    pub score_cache_hits: u64,
    /// Fault-induced measurement retries (`measure/retries`).
    #[serde(default)]
    pub fault_retries: u64,
    /// Measurements abandoned after exhausting retries
    /// (`measure/gave_up`).
    #[serde(default)]
    pub fault_gave_up: u64,
    /// Programs quarantined by the search policy (`search/quarantined`).
    #[serde(default)]
    pub quarantined: u64,
    /// Seconds spent per top-level phase (`phase/<name>` histogram sums;
    /// nested phases fold into their root).
    #[serde(default)]
    pub phase_seconds: BTreeMap<String, f64>,
}

/// Final outcome of a job.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Job id.
    pub job: String,
    /// Canonical task name.
    pub task: String,
    /// `done`, `failed`, or `cancelled`.
    pub state: String,
    /// Measurement trials consumed.
    pub trials: u64,
    /// Best measured seconds (`None` when no valid measurement).
    pub best_seconds: Option<f64>,
    /// Best throughput in GFLOP/s.
    pub best_gflops: Option<f64>,
    /// `State::signature()` of the best program (bit-identity probe).
    pub best_signature: Option<u64>,
    /// Number of per-trial tuning records produced.
    pub log_records: u64,
    /// Stable fingerprint of the full record log
    /// (`ansor_core::log_fingerprint`); equal fingerprints mean
    /// bit-identical tuning runs. `ansor-tune` prints the same value.
    pub log_fingerprint: u64,
    /// Shared-cache traffic during this job.
    pub warm: CacheDeltas,
    /// Wall-clock milliseconds the job spent executing (not queued).
    /// Nondeterministic; excluded from bit-identity comparisons.
    pub wall_ms: f64,
    /// Milliseconds the job spent queued before a worker claimed it.
    /// Nondeterministic; excluded from bit-identity comparisons.
    /// Defaulted so results from older servers still parse.
    #[serde(default)]
    pub queue_wait_ms: f64,
    /// Per-job counter deltas from the job's isolated telemetry registry.
    /// Defaulted so results from older servers still parse.
    #[serde(default)]
    pub counters: JobCounters,
    /// Failure reason when `state` is `failed`.
    pub error: Option<String>,
}

/// Server-wide counters returned by `stats`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Protocol version.
    pub protocol_version: u64,
    /// Jobs accepted over the server's lifetime.
    pub jobs_submitted: u64,
    /// Jobs currently queued.
    pub jobs_queued: u64,
    /// Jobs currently executing.
    pub jobs_active: u64,
    /// Jobs finished successfully.
    pub jobs_done: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Jobs cancelled.
    pub jobs_cancelled: u64,
    /// Bounded queue capacity (submits beyond it are rejected).
    pub queue_cap: u64,
    /// Session worker threads.
    pub workers: u64,
    /// Warm-store entries (workload/target/fault classes).
    pub store_entries: u64,
    /// Tuning records resident in the warm store.
    pub store_records: u64,
    /// Approximate serialized size of the warm store's entries, in bytes
    /// (what the compaction budget is enforced against).
    pub store_bytes: u64,
    /// Warm-store entries evicted by byte-budget compaction so far.
    pub store_evictions: u64,
    /// Whether the server is draining (shutdown requested).
    pub draining: bool,
    /// Measurement trials consumed by all finished jobs; equals the sum
    /// of `JobResult::trials` across them (the per-job counters sum
    /// consistently with this total). Defaulted so stats from older
    /// servers still parse.
    #[serde(default)]
    pub trials_total: u64,
}

/// One chunk of a job's trace file (`trace`). Chunks are raw byte runs
/// of the JSONL trace, sized so the enclosing response line stays under
/// [`MAX_LINE_BYTES`] after JSON escaping; a client reassembles the file
/// by concatenating chunks in offset order until `eof`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceChunk {
    /// Job id the trace belongs to.
    pub job: String,
    /// Byte offset of this chunk within the trace file.
    pub offset: u64,
    /// Chunk contents (UTF-8; traces are JSONL).
    pub data: String,
    /// Whether this chunk reaches the end of the file.
    pub eof: bool,
}

/// One response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's `id`; `None` when the request line could not be
    /// parsed far enough to recover one.
    pub id: Option<u64>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Failure reason when `ok` is `false`.
    pub error: Option<String>,
    /// Job id (`submit`).
    pub job: Option<String>,
    /// Job status (`status`).
    pub status: Option<JobStatus>,
    /// Job result (`result`, `wait`).
    pub result: Option<JobResult>,
    /// Server stats (`stats`).
    pub stats: Option<ServerStats>,
    /// Trace chunk (`trace`). Defaulted so responses from older servers
    /// still parse.
    #[serde(default)]
    pub trace: Option<TraceChunk>,
}

impl Response {
    /// A bare success response.
    pub fn success(id: u64) -> Response {
        Response {
            id: Some(id),
            ok: true,
            error: None,
            job: None,
            status: None,
            result: None,
            stats: None,
            trace: None,
        }
    }

    /// An error response. `id` accepts both `u64` and `Option<u64>`.
    pub fn failure(id: impl Into<Option<u64>>, error: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            ok: false,
            error: Some(error.into()),
            job: None,
            status: None,
            result: None,
            stats: None,
            trace: None,
        }
    }
}

/// Encodes a message as its single wire line (no trailing newline).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol messages serialize")
}

/// Writes one message line (JSON + `\n`) and flushes. The newline is
/// appended before the single `write_all` so the line leaves in one
/// segment (two small writes would trip Nagle + delayed-ACK and add tens
/// of milliseconds per request).
pub fn write_line<W: Write, T: Serialize>(w: &mut W, msg: &T) -> std::io::Result<()> {
    let mut line = encode(msg);
    debug_assert!(line.len() < MAX_LINE_BYTES, "oversized outbound message");
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one protocol line. Returns:
///
/// - `Ok(Some(line))` — a complete line (newline stripped);
/// - `Ok(None)` — clean EOF, *or* EOF in the middle of a line (a client
///   that disconnected mid-write; the partial line is discarded, never
///   parsed);
/// - `Err(InvalidData)` — the line exceeds [`MAX_LINE_BYTES`] or is not
///   UTF-8.
pub fn read_line<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut limited = r.take((MAX_LINE_BYTES + 1) as u64);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > MAX_LINE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        // EOF mid-line: the peer vanished mid-write.
        return Ok(None);
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "request is not UTF-8"))
}

/// Parses a request line. The error string is safe to echo to the client.
pub fn decode_request(line: &str) -> Result<Request, String> {
    serde_json::from_str::<Request>(line).map_err(|e| format!("malformed request: {e:?}"))
}

/// Parses a response line (client side).
pub fn decode_response(line: &str) -> Result<Response, String> {
    serde_json::from_str::<Response>(line).map_err(|e| format!("malformed response: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            op: "GMM".into(),
            shape: 0,
            batch: 1,
            target: "intel".into(),
            trials: 64,
            seed: 7,
            warm_start: None,
            threads: None,
            faults: None,
            prerank_keep: None,
            transfer: None,
        }
    }

    #[test]
    fn legacy_spec_json_without_new_fields_parses() {
        // Specs written by older clients omit the override fields.
        let line = r#"{"op":"GMM","shape":0,"batch":1,"target":"intel","trials":64,"seed":7}"#;
        let s: JobSpec = serde_json::from_str(line).unwrap();
        assert_eq!(s, spec());
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 3,
            method: "submit".into(),
            job: None,
            spec: Some(spec()),
            drain: None,
            offset: None,
        };
        let line = encode(&req);
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn legacy_result_json_without_counters_parses() {
        // Results written by pre-observability servers lack the per-job
        // counter block and queue-wait field.
        let line = r#"{"job":"job-1","task":"GMM:s0b1","state":"done","trials":64,
            "best_seconds":1e-3,"best_gflops":2.0,"best_signature":9,
            "log_records":64,"log_fingerprint":7,
            "warm":{"measure_hits":0,"measure_misses":0,"feature_hits":0,
                    "feature_misses":0,"score_hits":0,"score_misses":0},
            "wall_ms":10.0,"error":null}"#;
        let r: JobResult = serde_json::from_str(line).unwrap();
        assert_eq!(r.queue_wait_ms, 0.0);
        assert_eq!(r.counters, JobCounters::default());
    }

    #[test]
    fn trace_chunk_round_trips() {
        let chunk = TraceChunk {
            job: "job-2".into(),
            offset: 1024,
            data: "{\"seq\":0}\n".into(),
            eof: true,
        };
        let mut resp = Response::success(5);
        resp.trace = Some(chunk.clone());
        let line = encode(&resp);
        assert_eq!(decode_response(&line).unwrap().trace, Some(chunk));
    }

    #[test]
    fn spec_keys_match_ansor_tune_conventions() {
        let s = spec();
        assert_eq!(s.task_name(), "GMM:s0b1");
        assert_eq!(
            s.fingerprint("none"),
            "single:GMM:s0:b1:target=intel:faults=none:seed=7"
        );
        // Class key drops the seed so differently-seeded jobs share caches.
        let mut other = spec();
        other.seed = 99;
        assert_eq!(s.class_key("none"), other.class_key("none"));
        assert_ne!(s.fingerprint("none"), other.fingerprint("none"));
    }

    #[test]
    fn read_line_handles_eof_and_partial_lines() {
        let mut ok = std::io::BufReader::new(&b"{\"a\":1}\nrest"[..]);
        assert_eq!(read_line(&mut ok).unwrap().as_deref(), Some("{\"a\":1}"));
        // Trailing bytes with no newline: mid-write disconnect, not a line.
        assert_eq!(read_line(&mut ok).unwrap(), None);
        let mut empty = std::io::BufReader::new(&b""[..]);
        assert_eq!(read_line(&mut empty).unwrap(), None);
    }

    #[test]
    fn read_line_rejects_oversized_lines() {
        let mut big = Vec::new();
        big.resize(MAX_LINE_BYTES + 10, b'x');
        big.push(b'\n');
        let mut r = std::io::BufReader::new(&big[..]);
        let err = read_line(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn crlf_is_tolerated() {
        let mut r = std::io::BufReader::new(&b"{\"x\":2}\r\n"[..]);
        assert_eq!(read_line(&mut r).unwrap().as_deref(), Some("{\"x\":2}"));
    }

    #[test]
    fn malformed_json_is_a_decode_error() {
        assert!(decode_request("{not json").is_err());
        assert!(decode_request("{\"id\":true}").is_err());
    }
}
