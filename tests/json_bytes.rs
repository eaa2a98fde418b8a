//! Byte oracle for the JSON writer: one line per serialized type family
//! the other goldens do not reach, each value rebuilt here
//! deterministically and compared with `tests/golden/json_bytes.jsonl`
//! byte for byte.
//!
//! A line is `{"<family>":<what serde_json::to_string wrote>}`, or, for a
//! family the workspace also pretty-prints, `{"<family> (pretty)":"<what
//! serde_json::to_string_pretty wrote, as a JSON string>"}`. The families:
//! a two-round `TuneCheckpoint` of a real faulty session (its records,
//! lineage, a failed trial), a `SchedulerCheckpoint`, the wire protocol's
//! messages, every `JournalEvent` variant, the lines of a warm-store file,
//! trace lines with their `seq` / `t_ms`, a `MetricsSnapshot`, a
//! `StatusReport`, a trained `Gbdt`, and a derived struct of edge cases
//! (signed zero, `f32` widening, numbers that print without an exponent,
//! the subnormal minimum, non-finite floats as `null`, control characters,
//! non-ASCII text, integer map keys, every variant shape).
//!
//! Only a deliberate change of the JSON format justifies rewriting the
//! file: `cargo test --test json_bytes -- --ignored bless`.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use ansor::core::{
    BestEntry, Lineage, ModelCheckpoint, Operator, PolicyCheckpoint, SchedulerCheckpoint,
    SchedulerRecord, TuningRecordLog, TuningSession,
};
use ansor::prelude::*;
use ansor::serve::proto::{
    CacheDeltas, JobCounters, JobResult, JobSpec, JobStatus, Request, Response, ServerStats,
    TraceChunk,
};
use ansor::serve::{JournalEvent, WarmStore};
use gbdt::{Gbdt, GbdtParams, Matrix, TreeParams};
use hwsim::FaultPlan;
use serde::Serialize;
use telemetry::export::build_status;
use telemetry::{GradientTerms, Snapshot, Telemetry, TraceEvent, TraceLine};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/json_bytes.jsonl");

fn line<T: Serialize + ?Sized>(family: &str, value: &T) -> String {
    let json = serde_json::to_string(value).expect("serializes");
    format!("{{\"{family}\":{json}}}")
}

fn pretty_line<T: Serialize + ?Sized>(family: &str, value: &T) -> String {
    let text = serde_json::to_string_pretty(value).expect("serializes");
    line(&format!("{family} (pretty)"), &text)
}

fn split(node: &str, iter: &str, lengths: Vec<i64>) -> Step {
    Step::Split {
        node: node.into(),
        iter: iter.into(),
        lengths,
    }
}

fn steps() -> Vec<Step> {
    vec![
        split("C", "i", vec![4, 8]),
        split("C", "j", vec![16]),
        Step::Reorder {
            node: "C".into(),
            order: vec!["i.0".into(), "j.0".into(), "i.1".into(), "j.1".into()],
        },
        Step::Fuse {
            node: "C".into(),
            iters: vec!["i.0".into(), "j.0".into()],
        },
        Step::Annotate {
            node: "C".into(),
            iter: "i.0@j.0".into(),
            ann: Annotation::Parallel,
        },
        Step::CacheWrite { node: "C".into() },
        Step::ComputeAt {
            node: "C.cache".into(),
            target: "C".into(),
            prefix_len: 1,
        },
        Step::Rfactor {
            node: "C".into(),
            factor: 4,
        },
        Step::ComputeInline { node: "D".into() },
        Step::ComputeRoot { node: "E".into() },
    ]
}

/// A two-round session on a 96³ matmul under a fault plan lively enough to
/// fail a trial for good.
fn tune_checkpoint() -> ansor::core::TuneCheckpoint {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[96, 96]);
    let w = b.constant("B", &[96, 96]);
    b.compute_reduce("C", &[96, 96], &[96], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    let target = HardwareTarget::intel_20core();
    let task = SearchTask::new(
        "json_bytes:mm96",
        Arc::new(b.build().unwrap()),
        target.clone(),
    );
    let options = TuningOptions {
        num_measure_trials: 8,
        measures_per_round: 4,
        init_population: 16,
        seed: 7,
        ..Default::default()
    };
    let plan = FaultPlan {
        transient_prob: 0.25,
        timeout_prob: 0.05,
        cursed_prob: 0.3,
        max_retries: 1,
        ..FaultPlan::default()
    };
    let mut session = TuningSession::new(
        task,
        options,
        Measurer::with_faults(target, plan),
        "json_bytes",
    );
    while session.step() > 0 {}
    let ck = session.checkpoint();
    let single = ck.single.as_ref().expect("a single-operator checkpoint");
    assert_eq!(single.policy.rounds, 2);
    assert!(single.policy.log.iter().any(|r| !r.seconds.is_finite()));
    assert!(single.policy.log.iter().any(|r| r.error.is_some()));
    assert!(!single.policy.best_measured.is_empty());
    assert!(single.model.trained_on > 0);
    ck
}

fn scheduler_checkpoint() -> SchedulerCheckpoint {
    SchedulerCheckpoint {
        rng: vec![u64::MAX, 0, 1 << 63, 12345],
        exhausted: vec![None, Some(2)],
        best_history: vec![vec![None, Some(2.5e-4)], vec![]],
        history: vec![
            SchedulerRecord {
                total_trials: 8,
                chosen_task: 0,
                dnn_latencies: vec![f64::INFINITY, 1.25e-3],
                objective: f64::INFINITY,
            },
            SchedulerRecord {
                total_trials: 16,
                chosen_task: 1,
                dnn_latencies: vec![3.0e-3, 1.0e-3],
                objective: 4.0e-3,
            },
        ],
        policies: vec![PolicyCheckpoint {
            task: "dcgan:up1".into(),
            rng: vec![1, 2, 3, 4],
            rounds: 1,
            best_measured: vec![BestEntry {
                log: 0,
                sketch: 1,
                lineage: Lineage {
                    op: Operator::Crossover,
                    generation: 3,
                    parents: vec![11, 29],
                },
            }],
            log: vec![TuningRecordLog {
                task: "dcgan:up1".into(),
                trial: 1,
                steps: vec![],
                seconds: f64::INFINITY,
                error: Some("measure: cursed \"runner\"".into()),
            }],
        }],
        model: ModelCheckpoint {
            train_passes: 3,
            trained_on: 1,
            trained: false,
            warm_records: 0,
        },
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        op: "C2D".into(),
        shape: 3,
        batch: 16,
        target: "intel".into(),
        trials: 192,
        seed: 9,
        warm_start: Some(true),
        threads: Some(2),
        faults: Some("transient=0.1,cursed=0.005".into()),
        prerank_keep: None,
        transfer: None,
    }
}

fn job_result() -> JobResult {
    let mut phase_seconds = BTreeMap::new();
    phase_seconds.insert("evolution".to_string(), 0.125);
    phase_seconds.insert("measure".to_string(), 1.0 / 3.0);
    JobResult {
        job: "job-12".into(),
        task: "C2D:s3b16".into(),
        state: "done".into(),
        trials: 192,
        best_seconds: Some(1.234_567_890_123e-4),
        best_gflops: Some(48.356),
        best_signature: Some(0xee39_7a02_be49_8478),
        log_records: 192,
        log_fingerprint: u64::MAX - 1,
        warm: CacheDeltas {
            measure_hits: 5,
            measure_misses: 187,
            feature_hits: 1,
            feature_misses: 2,
            score_hits: 3,
            score_misses: 4,
        },
        wall_ms: 812.5,
        queue_wait_ms: 0.0,
        counters: JobCounters {
            trials_valid: 190,
            trials_failed: 2,
            phase_seconds,
            ..JobCounters::default()
        },
        error: None,
    }
}

fn request() -> Request {
    Request {
        id: 41,
        method: "submit".into(),
        job: None,
        spec: Some(job_spec()),
        drain: Some(false),
        offset: Some(4096),
    }
}

fn response() -> Response {
    Response {
        id: Some(41),
        ok: true,
        error: None,
        job: Some("job-12".into()),
        status: Some(JobStatus {
            job: "job-12".into(),
            state: "running".into(),
            rounds: 2,
            trials: 128,
            trials_budget: 192,
            best_seconds: None,
        }),
        result: Some(job_result()),
        stats: Some(ServerStats {
            protocol_version: 2,
            jobs_submitted: 16,
            jobs_queued: 1,
            jobs_active: 2,
            jobs_done: 12,
            jobs_failed: 1,
            jobs_cancelled: 0,
            queue_cap: 64,
            workers: 2,
            store_entries: 4,
            store_records: 1536,
            store_bytes: 1 << 20,
            store_evictions: 0,
            draining: false,
            trials_total: 2304,
        }),
        trace: Some(TraceChunk {
            job: "job-12".into(),
            offset: 0,
            data: "{\"seq\":0,\"t_ms\":0.5}\n{\"seq\":1}\r\n\u{1}".into(),
            eof: true,
        }),
    }
}

fn journal_events() -> Vec<JournalEvent> {
    vec![
        JournalEvent::DaemonStart {
            workers: 2,
            queue_cap: 64,
        },
        JournalEvent::Submit {
            job: "job-1".into(),
            task: "GMM:s1b1".into(),
            op: "GMM".into(),
            shape: 1,
            batch: 1,
            target: "arm".into(),
            trials: 192,
            seed: 3,
        },
        JournalEvent::Start {
            job: "job-1".into(),
            queue_wait_ms: 0.031_25,
        },
        JournalEvent::Round {
            job: "job-1".into(),
            round: 1,
            trials: 64,
            best_seconds: None,
        },
        JournalEvent::Round {
            job: "job-1".into(),
            round: 2,
            trials: 128,
            best_seconds: Some(7.5e-5),
        },
        JournalEvent::Finish {
            job: "job-1".into(),
            outcome: "done".into(),
            queue_wait_ms: 0.031_25,
            wall_ms: 1500.0,
            trials: 192,
            best_gflops: Some(540.986),
            cache: CacheDeltas::default(),
            absorbed_records: 190,
            trace: Some("traces/job-1.trace.jsonl".into()),
        },
        JournalEvent::Interrupted {
            job: "job-2".into(),
        },
    ]
}

fn record(trial: u64, seconds: f64, steps: Vec<Step>, error: Option<&str>) -> TuningRecordLog {
    TuningRecordLog {
        task: "GMM:s0b1".into(),
        trial,
        steps,
        seconds,
        error: error.map(str::to_string),
    }
}

/// The store file after two absorbed jobs and one eviction, as a JSON
/// array of its lines.
fn warm_store_lines() -> String {
    let dir = std::env::temp_dir().join(format!("ansor-json-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    let _ = std::fs::remove_file(&path);
    let (store, _) = WarmStore::open(&path).expect("a fresh store");
    let spec = |shape: usize| JobSpec {
        op: "GMM".into(),
        shape,
        batch: 1,
        target: "intel".into(),
        trials: 4,
        seed: 1,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    };
    store.absorb(
        &spec(0),
        "none",
        &[
            record(1, 2.0e-3, steps(), None),
            record(
                2,
                f64::INFINITY,
                vec![split("C", "k", vec![2])],
                Some("timeout"),
            ),
            record(3, 1.0e-3, vec![split("C", "i", vec![32])], None),
        ],
    );
    store.set_byte_budget(Some(1));
    store.absorb(&spec(1), "none", &[record(1, 5.0e-4, vec![], None)]);
    store.save().expect("the store saves");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    format!("[{}]", text.lines().collect::<Vec<_>>().join(","))
}

fn metrics_telemetry() -> Telemetry {
    let t = Telemetry::with_metrics();
    t.incr("measure/valid", 40);
    t.incr("measure/failed", 8);
    t.incr("measure/cache_hits", 30);
    t.incr("measure/cache_misses", 10);
    t.incr("measure/retries", 3);
    t.incr("measure/errors/lowering", 5);
    t.gauge_set("progress/task/golden:mm_relu_128/round", 2.0);
    t.gauge_set("progress/task/golden:mm_relu_128/trials_used", 32.0);
    t.gauge_set("progress/task/golden:mm_relu_128/best_gflops", 75.5);
    t.gauge_set("progress/task/t2d:dcgan/up1/round", 1.0);
    t.gauge_set("progress/scheduler/units_done", 4.0);
    t.gauge_set("serve/queue_depth", 3.0);
    t.gauge_set("serve/job/job-6/state", 1.0);
    t.gauge_set("serve/job/job-6/queue_wait_ms", 1.5);
    for v in [0.25, 0.5, 0.125, 3.0] {
        t.observe("phase/evolution", v);
    }
    t.observe("serve/request_ms/submit", 0.2);
    t
}

fn trace_lines() -> Vec<TraceLine> {
    let snapshot = metrics_telemetry().snapshot().expect("metrics are on");
    vec![
        TraceLine {
            seq: 0,
            t_ms: 0.0,
            event: TraceEvent::RoundStart {
                task: "GMM:s0b1".into(),
                round: 0,
                trials_so_far: 0,
            },
        },
        TraceLine {
            seq: 1,
            t_ms: 12.345_678_901,
            event: TraceEvent::SchedulerStep {
                step: 4,
                task: "dcgan:up1".into(),
                gradient_terms: GradientTerms::from_raw(-0.5, f64::INFINITY, 1e-9, f64::NAN),
                objective: None,
            },
        },
        TraceLine {
            seq: 2,
            t_ms: 1e6,
            event: TraceEvent::FeatureExtractFailed {
                task: "GMM:s0b1".into(),
                error: "lowering: \"i.0\" unbound\n\u{7f}".into(),
            },
        },
        TraceLine {
            seq: u64::MAX,
            t_ms: 0.1,
            event: TraceEvent::PhaseProfile { snapshot },
        },
    ]
}

fn status_report() -> telemetry::export::StatusReport {
    let metrics = metrics_telemetry().snapshot().expect("metrics are on");
    let now = Snapshot {
        uptime_seconds: 30.5,
        metrics: metrics.clone(),
    };
    let mut earlier = Snapshot {
        uptime_seconds: 20.0,
        metrics,
    };
    earlier.metrics.counters.insert("measure/valid".into(), 10);
    let mut resources = BTreeMap::new();
    resources.insert("process/rss_bytes".to_string(), 1234.0 * 4096.0);
    resources.insert("process/cpu_seconds".to_string(), 0.1 + 0.2);
    build_status(&now, Some(&earlier), &resources, true, 0.1, 30.0)
}

fn gbdt() -> Gbdt {
    let (rows, cols) = (48, 3);
    let x: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f32) / 7.0)
        .collect();
    let y: Vec<f32> = (0..rows)
        .map(|r| x[r * cols] * 0.5 - x[r * cols + 1] + (r % 5) as f32)
        .collect();
    let w = vec![1.0; rows];
    let params = GbdtParams {
        n_trees: 3,
        tree: TreeParams {
            max_depth: 3,
            ..TreeParams::default()
        },
        ..GbdtParams::default()
    };
    Gbdt::train_matrix(
        Matrix::new(&x, cols),
        &y,
        &w,
        &params,
        &Telemetry::disabled(),
    )
}

#[allow(dead_code)] // `hidden` is skipped, so nothing reads it
#[derive(Serialize)]
enum Shape {
    Unit,
    One(u8),
    Two(i16, String),
    Named {
        zed: f32,
        alpha: Option<u8>,
    },
    Skipping {
        #[serde(skip)]
        hidden: u8,
    },
}

/// Fields declared out of byte order (`_` sorts between upper and lower
/// case), so the written order is the derive's, not the declaration's.
#[allow(non_snake_case, dead_code)]
#[derive(Serialize)]
struct Edges {
    zeta: f64,
    neg_zero: f64,
    tenth_f32: f32,
    big: f64,
    tiny: f64,
    subnormal: f64,
    nan: f64,
    inf: f64,
    neg_inf: f32,
    text: String,
    ch: char,
    a_b: u8,
    aB: u8,
    ab: u8,
    a: u8,
    ints: (i64, u64, i8, usize),
    by_int: BTreeMap<usize, i64>,
    by_signed: HashMap<i32, bool>,
    by_text: HashMap<String, u8>,
    empty_map: BTreeMap<String, u8>,
    empty_vec: Vec<u8>,
    array: [u16; 3],
    nested: Vec<Vec<f64>>,
    unit: (),
    boxed: Box<f64>,
    shared: Rc<String>,
    arc: Arc<Vec<i32>>,
    shapes: Vec<Shape>,
    value: serde_json::Value,
    #[serde(skip)]
    skipped: u8,
}

fn edges() -> Edges {
    Edges {
        zeta: 1.5,
        neg_zero: -0.0,
        tenth_f32: 0.1,
        big: 1e21,
        tiny: 1e-7,
        subnormal: 5e-324,
        nan: f64::NAN,
        inf: f64::INFINITY,
        neg_inf: f32::NEG_INFINITY,
        text: "quote\" backslash\\ slash/ \u{0} \u{8}\u{c}\n\r\t \u{1f} \u{7f} é ✓ \u{1F600}"
            .into(),
        ch: '\n',
        a_b: 1,
        aB: 2,
        ab: 3,
        a: 4,
        ints: (i64::MIN, u64::MAX, -1, 0),
        by_int: [(2, -2), (10, 10), (1, 1)].into_iter().collect(),
        by_signed: [(-1, true), (-10, false), (3, true)].into_iter().collect(),
        by_text: [
            ("b".to_string(), 2),
            ("a\"".to_string(), 1),
            ("a#".to_string(), 3),
        ]
        .into_iter()
        .collect(),
        empty_map: BTreeMap::new(),
        empty_vec: vec![],
        array: [0, 1, u16::MAX],
        nested: vec![vec![], vec![1.0, 2.5e-8]],
        unit: (),
        boxed: Box::new(100.0),
        shared: Rc::new("rc".into()),
        arc: Arc::new(vec![-3, 4]),
        shapes: vec![
            Shape::Unit,
            Shape::One(7),
            Shape::Two(-4, "two".into()),
            Shape::Named {
                zed: 0.3,
                alpha: None,
            },
            Shape::Skipping { hidden: 9 },
        ],
        value: serde_json::from_str(r#"{"b":[1,-2,3.5,null,true],"a":{"y":"z"},"0":{}}"#).unwrap(),
        skipped: 5,
    }
}

fn lines() -> Vec<String> {
    let tune = tune_checkpoint();
    let status = status_report();
    let edges = edges();
    vec![
        line("TuneCheckpoint", &tune),
        line("SchedulerCheckpoint", &scheduler_checkpoint()),
        line("JobSpec", &job_spec()),
        line("JobResult", &job_result()),
        line("Request", &request()),
        line("Response", &response()),
        line("JournalEvent", &journal_events()),
        format!("{{\"WarmStore log\":{}}}", warm_store_lines()),
        line("TraceLine", &trace_lines()),
        line("MetricsSnapshot", &metrics_telemetry().snapshot()),
        line("StatusReport", &status),
        pretty_line("StatusReport", &status),
        line("Gbdt", &gbdt()),
        line("Edges", &edges),
        pretty_line("Edges", &edges),
    ]
}

/// The family a golden line belongs to, for failure messages.
fn family(line: &str) -> &str {
    line.split('"').nth(1).unwrap_or("?")
}

#[test]
fn every_type_family_writes_the_golden_bytes() {
    let golden = std::fs::read_to_string(GOLDEN).expect("the golden file is readable");
    let want: Vec<&str> = golden.lines().collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "family count");
    for (got, want) in got.iter().zip(want) {
        if got != want {
            let at = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            let near = |s: &str| {
                let b = s.as_bytes();
                String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())])
                    .into_owned()
            };
            panic!(
                "{}: bytes differ at {at}\n got: …{}\nwant: …{}",
                family(want),
                near(got),
                near(want),
            );
        }
    }
}

/// `cargo test --test json_bytes -- --ignored bless` rewrites the golden
/// file; only a deliberate change of the JSON format justifies it.
#[test]
#[ignore]
fn bless() {
    std::fs::write(GOLDEN, lines().join("\n") + "\n").expect("the golden file is writable");
}
