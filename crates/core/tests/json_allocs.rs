//! What writing a tuning record costs in allocations. This test binary
//! installs the counting allocator, so it pins that `serde_json::to_string`
//! writes a record straight into its output (only that buffer's growth
//! allocates) and that `log_fingerprint` renders a whole log through one
//! reused buffer. A serializer that builds a tree first pays per struct,
//! key, name and float: 299 allocations for the 30-step record here (9
//! without the tree), 57 616 for the 192-record fingerprint (2).
//!
//! The count is process-wide, so the binary has a single test: with two,
//! the harness reports one on its own threads while the other counts.

use ansor_core::{log_fingerprint, TuningRecordLog};
use telemetry::alloc::stats;
use telemetry::CountingAlloc;
use tensor_ir::{Annotation, Step};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (reallocations included) made while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = stats()
        .expect("the counting allocator is installed")
        .total_allocs;
    let out = f();
    let after = stats()
        .expect("the counting allocator is installed")
        .total_allocs;
    (after - before, out)
}

/// A record of 30 steps, the shape of a tiled and annotated conv2d.
fn record(trial: u64) -> TuningRecordLog {
    let mut steps = Vec::new();
    for (k, iter) in ["n", "f", "y", "x", "rc", "ry"].iter().enumerate() {
        steps.push(Step::Split {
            node: "conv".into(),
            iter: (*iter).into(),
            lengths: vec![2, 4, trial as i64 % 7 + 1 + k as i64],
        });
    }
    for _ in 0..6 {
        steps.push(Step::Reorder {
            node: "conv".into(),
            order: vec!["n.0".into(), "f.0".into(), "y.0".into(), "x.0".into()],
        });
        steps.push(Step::Fuse {
            node: "conv".into(),
            iters: vec!["n.0".into(), "f.0".into()],
        });
        steps.push(Step::Annotate {
            node: "conv".into(),
            iter: "n.0@f.0".into(),
            ann: Annotation::Parallel,
        });
    }
    steps.push(Step::CacheWrite {
        node: "conv".into(),
    });
    steps.push(Step::ComputeAt {
        node: "conv.cache".into(),
        target: "conv".into(),
        prefix_len: 2,
    });
    while steps.len() < 30 {
        steps.push(Step::ComputeInline { node: "pad".into() });
    }
    TuningRecordLog {
        task: "C2D:s3b16".into(),
        trial,
        steps,
        seconds: 1.0 / (trial as f64 + 3.0),
        error: (trial > 188).then(|| "measure: timeout".to_string()),
    }
}

#[test]
fn records_are_written_with_only_their_buffer_allocating() {
    // One record through `to_string`.
    let r = record(5);
    assert_eq!(r.steps.len(), 30);
    let (allocs, json) = allocs_during(|| serde_json::to_string(&r).unwrap());
    assert!(json.len() > 1000, "a ~1 KB record: {} bytes", json.len());
    // Doubling from empty to ~2 KB takes nine steps: 8, 16, …, 2 048.
    assert!(
        allocs <= 12,
        "to_string of a {}-byte record made {allocs} allocations",
        json.len()
    );

    // A whole log through `log_fingerprint`'s one buffer.
    let log: Vec<TuningRecordLog> = (1..=192).map(record).collect();
    let (allocs, fingerprint) = allocs_during(|| log_fingerprint(&log));
    // FNV-1a over the canonical lines, as the records' own JSON says.
    let mut text = String::new();
    for r in &log {
        text.push_str(&serde_json::to_string(r).unwrap());
        text.push('\n');
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    assert_eq!(fingerprint, h);
    assert!(
        allocs <= 8,
        "log_fingerprint over {} records made {allocs} allocations",
        log.len()
    );
}
