//! `ansor-tune --network` traces end as a single-task trace does: once the
//! units are spent, one `TuningFinished` per task. A run resumed from a
//! checkpoint taken after its last unit has nothing left to tune and
//! traces no second `TuningFinished`.

use std::path::Path;
use std::process::Command;

use telemetry::{read_trace_file, TraceEvent};

/// Runs `ansor-tune --network dcgan --units 6 --target gpu` with `args`.
fn tune_dcgan(args: &[&std::ffi::OsStr]) {
    let out = Command::new(env!("CARGO_BIN_EXE_ansor-tune"))
        .args(["--network", "dcgan", "--units", "6", "--target", "gpu"])
        .args(args)
        .output()
        .expect("ansor-tune runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
}

/// The task of every `TuningFinished` in the trace at `path`, in order.
fn finished_tasks(path: &Path) -> Vec<String> {
    let (lines, skipped) = read_trace_file(path).expect("a readable trace");
    assert_eq!(skipped, 0);
    lines
        .into_iter()
        .filter_map(|line| match line.event {
            TraceEvent::TuningFinished { task, .. } => Some(task),
            _ => None,
        })
        .collect()
}

#[test]
fn a_network_run_traces_one_tuning_finished_per_task() {
    let dir = std::env::temp_dir().join(format!("ansor-network-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace, resumed, ck) = (
        dir.join("run.jsonl"),
        dir.join("resumed.jsonl"),
        dir.join("run.ckpt"),
    );
    tune_dcgan(&[
        "--trace".as_ref(),
        trace.as_os_str(),
        "--checkpoint".as_ref(),
        ck.as_os_str(),
    ]);
    let mut tasks = finished_tasks(&trace);
    assert_eq!(tasks.len(), 5, "{tasks:?}");
    tasks.sort();
    tasks.dedup();
    assert_eq!(tasks.len(), 5, "a task finished twice: {tasks:?}");
    // The checkpoint holds all six units: the resumed run tunes nothing.
    tune_dcgan(&[
        "--resume".as_ref(),
        ck.as_os_str(),
        "--trace".as_ref(),
        resumed.as_os_str(),
    ]);
    assert_eq!(finished_tasks(&resumed), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}
