//! Wire-protocol conformance: property-based round-trips of the message
//! types, and live-socket rejection tests (malformed JSON, unknown
//! methods, oversized lines, mid-write disconnects).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ansor_serve::proto::{
    decode_request, decode_response, encode, CacheDeltas, JobCounters, JobResult, JobSpec,
    JobStatus, Request, Response, ServerStats, TraceChunk, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use ansor_serve::{ServeConfig, Server};
use proptest::prelude::*;

fn arb_job_id() -> impl Strategy<Value = String> {
    any::<u32>().prop_map(|n| format!("job-{}", n % 1_000_000))
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        any::<u32>().prop_map(|n| format!("OP{}", n % 1000)),
        0usize..8,
        1i64..32,
        prop_oneof![
            Just("intel".to_string()),
            Just("arm".to_string()),
            Just("gpu".to_string())
        ],
        1usize..4096,
        any::<u64>(),
        prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        (
            prop_oneof![Just(None), (0usize..16).prop_map(Some)],
            prop_oneof![
                Just(None),
                Just(Some("none".to_string())),
                Just(Some("transient_prob=0.1".to_string()))
            ],
            prop_oneof![Just(None), (0.05f64..1.0).prop_map(Some)],
            prop_oneof![Just(None), Just(Some(false)), Just(Some(true))],
        ),
    )
        .prop_map(
            |(op, shape, batch, target, trials, seed, warm_start, (threads, faults, keep, tr))| {
                JobSpec {
                    op,
                    shape,
                    batch,
                    target,
                    trials,
                    seed,
                    warm_start,
                    threads,
                    faults,
                    prerank_keep: keep,
                    transfer: tr,
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        any::<u64>(),
        prop_oneof![
            Just("submit".to_string()),
            Just("status".to_string()),
            Just("result".to_string()),
            Just("wait".to_string()),
            Just("cancel".to_string()),
            Just("trace".to_string()),
            Just("stats".to_string()),
            Just("shutdown".to_string())
        ],
        prop_oneof![Just(None), arb_job_id().prop_map(Some)],
        prop_oneof![Just(None), arb_spec().prop_map(Some)],
        prop_oneof![Just(None), any::<bool>().prop_map(Some)],
        prop_oneof![Just(None), any::<u32>().prop_map(|n| Some(n as u64))],
    )
        .prop_map(|(id, method, job, spec, drain, offset)| Request {
            id,
            method,
            job,
            spec,
            drain,
            offset,
        })
}

fn arb_deltas() -> impl Strategy<Value = CacheDeltas> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(a, b, c, d, e, f)| CacheDeltas {
            measure_hits: a as u64,
            measure_misses: b as u64,
            feature_hits: c as u64,
            feature_misses: d as u64,
            score_hits: e as u64,
            score_misses: f as u64,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let status = (
        arb_job_id(),
        prop_oneof![
            Just("queued".to_string()),
            Just("running".to_string()),
            Just("done".to_string())
        ],
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop_oneof![Just(None), (1e-6f64..1e3).prop_map(Some)],
    )
        .prop_map(|(job, state, rounds, trials, budget, best)| JobStatus {
            job,
            state,
            rounds: rounds as u64,
            trials: trials as u64,
            trials_budget: budget as u64,
            best_seconds: best,
        });
    let result = (
        arb_job_id(),
        any::<u32>(),
        prop_oneof![Just(None), (1e-6f64..1e3).prop_map(Some)],
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        any::<u64>(),
        arb_deltas(),
        0.0f64..1e6,
    )
        .prop_map(|(job, trials, best, sig, fp, warm, wall_ms)| JobResult {
            job,
            task: "GMM:s0b1".into(),
            state: "done".into(),
            trials: trials as u64,
            best_seconds: best,
            best_gflops: best.map(|s| 1.0 / s),
            best_signature: sig,
            log_records: trials as u64,
            log_fingerprint: fp,
            warm,
            wall_ms,
            queue_wait_ms: wall_ms / 2.0,
            counters: JobCounters {
                trials_valid: trials as u64,
                measure_cache_hits: fp % 97,
                phase_seconds: [("evolution".to_string(), wall_ms / 1e3)].into(),
                ..JobCounters::default()
            },
            error: None,
        });
    let stats = (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
        |(submitted, done, queued, draining)| ServerStats {
            protocol_version: PROTOCOL_VERSION,
            jobs_submitted: submitted as u64,
            jobs_queued: queued as u64,
            jobs_active: 0,
            jobs_done: done as u64,
            jobs_failed: 0,
            jobs_cancelled: 0,
            queue_cap: 64,
            workers: 2,
            store_entries: 1,
            store_records: 17,
            store_bytes: 4096,
            store_evictions: 0,
            draining,
            trials_total: done as u64 * 64,
        },
    );
    let trace =
        (arb_job_id(), any::<u32>(), any::<bool>()).prop_map(|(job, offset, eof)| TraceChunk {
            job,
            offset: offset as u64,
            data: "{\"seq\":0,\"t_ms\":0.1,\"event\":{\"RoundStart\":{}}}\n".into(),
            eof,
        });
    (
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        any::<bool>(),
        prop_oneof![
            Just(None),
            any::<u64>().prop_map(|n| Some(format!("error {n}")))
        ],
        prop_oneof![Just(None), arb_job_id().prop_map(Some)],
        prop_oneof![Just(None), status.prop_map(Some)],
        prop_oneof![Just(None), result.prop_map(Some)],
        prop_oneof![Just(None), stats.prop_map(Some)],
        prop_oneof![Just(None), trace.prop_map(Some)],
    )
        .prop_map(
            |(id, ok, error, job, status, result, stats, trace)| Response {
                id,
                ok,
                error,
                job,
                status,
                result,
                stats,
                trace,
            },
        )
}

proptest! {
    #[test]
    fn requests_round_trip(req in arb_request()) {
        let line = encode(&req);
        prop_assert!(line.len() < MAX_LINE_BYTES);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let line = encode(&resp);
        prop_assert!(line.len() < MAX_LINE_BYTES);
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(decode_response(&line).unwrap(), resp);
    }

    #[test]
    fn garbage_never_decodes_to_a_request(n in any::<u64>()) {
        // Anything that isn't a JSON object is an error, never a panic.
        let garbage = format!("garbage {n} not json");
        prop_assert!(decode_request(&garbage).is_err());
        prop_assert!(decode_request("").is_err());
        prop_assert!(decode_request("[1,2,3]").is_err());
    }
}

/// Boots a throwaway in-memory server on an ephemeral port.
fn test_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        ..Default::default()
    })
    .expect("server starts")
}

fn raw_conn(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let writer = stream.try_clone().expect("clone");
    (BufReader::new(stream), writer)
}

fn send_raw(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Response {
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send");
    writer.flush().expect("flush");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("recv");
    decode_response(resp.trim_end()).expect("response parses")
}

#[test]
fn malformed_json_gets_an_error_response() {
    let server = test_server();
    let (mut r, mut w) = raw_conn(&server);
    let resp = send_raw(&mut r, &mut w, "{this is not json");
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("malformed"), "wrong error");
    // The connection survives and still serves well-formed requests,
    // recovering the id of a parseable-but-invalid request.
    let resp = send_raw(&mut r, &mut w, "{\"id\": 42, \"method\": 7}");
    assert!(!resp.ok);
    assert_eq!(resp.id, Some(42));
    server.shutdown(true);
    server.wait();
}

#[test]
fn unknown_methods_are_rejected() {
    let server = test_server();
    let (mut r, mut w) = raw_conn(&server);
    let resp = send_raw(&mut r, &mut w, "{\"id\": 5, \"method\": \"explode\"}");
    assert!(!resp.ok);
    assert_eq!(resp.id, Some(5));
    assert!(resp.error.unwrap().contains("unknown method"));
    server.shutdown(true);
    server.wait();
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_closed() {
    let server = test_server();
    let (mut r, mut w) = raw_conn(&server);
    let mut big = String::with_capacity(MAX_LINE_BYTES + 64);
    big.push_str("{\"id\":1,\"method\":\"stats\",\"pad\":\"");
    while big.len() <= MAX_LINE_BYTES {
        big.push('x');
    }
    big.push_str("\"}");
    let resp = send_raw(&mut r, &mut w, &big);
    assert!(!resp.ok);
    assert!(resp.error.unwrap().contains("exceeds"), "wrong error");
    // Server hangs up after an unframeable line.
    let mut rest = String::new();
    assert_eq!(r.read_line(&mut rest).expect("read"), 0);
    server.shutdown(true);
    server.wait();
}

#[test]
fn mid_write_disconnect_is_ignored() {
    let server = test_server();
    {
        let (_r, mut w) = raw_conn(&server);
        // Half a request, no newline, then drop the socket.
        w.write_all(b"{\"id\":9,\"method\":\"sub").expect("send");
        w.flush().expect("flush");
    }
    // The server must neither crash nor treat the fragment as a request.
    let mut client = ansor_serve::Client::connect(&server.local_addr().to_string()).unwrap();
    let stats = client.stats().expect("server still healthy");
    assert_eq!(stats.jobs_submitted, 0);
    server.shutdown(true);
    server.wait();
}

#[test]
fn blank_lines_are_skipped() {
    let server = test_server();
    let (mut r, mut w) = raw_conn(&server);
    w.write_all(b"\n\r\n").expect("send");
    let resp = send_raw(&mut r, &mut w, "{\"id\": 1, \"method\": \"stats\"}");
    assert!(resp.ok);
    assert_eq!(resp.id, Some(1));
    server.shutdown(true);
    server.wait();
}
