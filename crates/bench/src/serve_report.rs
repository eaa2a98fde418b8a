//! Serve-aware reporting: per-job lifecycle tables and fleet-wide
//! rule/operator efficacy, built from an `ansor-serve` job journal
//! (docs/SERVING.md) and the per-job traces it points at.
//!
//! The journal records every job's submit → start → round → finish path
//! (or its interruption by a daemon crash); each `Finish` event may name
//! the job's provenance trace. [`ServeReport`] takes the per-job rows from
//! the journal's own fold ([`fold_jobs`]) and adds what only this module
//! does: resolving those traces and summing their efficacy, for
//! `trace-report --serve` to render and serialize.

use std::collections::BTreeMap;
use std::path::Path;

use ansor_serve::journal::{fold_jobs, read_journal, JobRow, JournalEvent};
use serde::Serialize;
use telemetry::report::{self, Efficacy};

/// Everything `trace-report --serve` prints, as one serializable document.
#[derive(Debug, Default, Serialize)]
pub struct ServeReport {
    /// Journal path the report was built from.
    pub journal: String,
    /// Journal events parsed.
    pub events: usize,
    /// Malformed/torn journal lines skipped while reading.
    pub corrupt_lines_skipped: usize,
    /// Daemon boots recorded in this journal (restarts included).
    pub daemon_starts: u64,
    /// Jobs in submit order.
    pub jobs: Vec<JobRow>,
    /// Sketch-rule efficacy aggregated across every readable job trace.
    pub rule_efficacy: BTreeMap<String, Efficacy>,
    /// Evolution-operator efficacy aggregated across every readable job
    /// trace.
    pub operator_efficacy: BTreeMap<String, Efficacy>,
    /// Job traces successfully read for the fleet aggregation.
    pub traces_read: usize,
    /// Traces the journal named but which could not be read (rotated or
    /// deleted trace dir).
    pub traces_missing: usize,
}

/// Resolves a journaled trace reference to a readable path. The daemon
/// records the path it wrote (`--trace-dir` joined with the file name),
/// which may be absolute or relative to the daemon's working directory —
/// not necessarily to the journal's. Try the reference as recorded, then
/// relative to the journal's directory, then its bare file name next to
/// the journal (covers a journal+traces directory moved as a unit).
fn resolve_trace(trace_base: &Path, name: &str) -> std::path::PathBuf {
    let as_recorded = Path::new(name);
    if as_recorded.is_file() {
        return as_recorded.to_path_buf();
    }
    let relative = trace_base.join(name);
    if relative.is_file() {
        return relative;
    }
    match as_recorded.file_name() {
        Some(base) => trace_base.join(base),
        None => relative,
    }
}

fn merge_efficacy(dst: &mut BTreeMap<String, Efficacy>, src: BTreeMap<String, Efficacy>) {
    for (name, e) in src {
        let d = dst.entry(name).or_default();
        d.proposed += e.proposed;
        d.survived += e.survived;
        d.measured += e.measured;
        d.new_best += e.new_best;
    }
}

impl ServeReport {
    /// Reads the journal at `path` and folds it (plus any reachable
    /// per-job traces) into a report. Fails only when the journal itself
    /// is unreadable; missing traces are counted, not fatal.
    pub fn build(path: &Path) -> std::io::Result<ServeReport> {
        let (events, skipped) = read_journal(path)?;
        let trace_base = path.parent().unwrap_or(Path::new("."));
        let mut report = ServeReport {
            journal: path.display().to_string(),
            events: events.len(),
            corrupt_lines_skipped: skipped,
            daemon_starts: events
                .iter()
                .filter(|e| matches!(e, JournalEvent::DaemonStart { .. }))
                .count() as u64,
            jobs: fold_jobs(&events),
            ..ServeReport::default()
        };
        for event in &events {
            let JournalEvent::Finish {
                trace: Some(name), ..
            } = event
            else {
                continue;
            };
            match telemetry::read_trace_file(&resolve_trace(trace_base, name)) {
                Ok((lines, _)) => {
                    report.traces_read += 1;
                    merge_efficacy(&mut report.rule_efficacy, report::rule_efficacy(&lines));
                    merge_efficacy(
                        &mut report.operator_efficacy,
                        report::operator_efficacy(&lines),
                    );
                }
                Err(_) => report.traces_missing += 1,
            }
        }
        Ok(report)
    }
}

/// Table rows for the per-job section of `trace-report --serve`.
pub fn job_rows(report: &ServeReport) -> Vec<Vec<String>> {
    report
        .jobs
        .iter()
        .map(|j| {
            let fmt_ms = |v: Option<f64>| {
                v.map(|ms| format!("{ms:.1} ms"))
                    .unwrap_or_else(|| "-".into())
            };
            vec![
                j.job.clone(),
                j.task.clone(),
                j.outcome.clone(),
                j.trials.to_string(),
                fmt_ms(j.queue_wait_ms),
                fmt_ms(j.wall_ms),
                j.best_gflops
                    .map(|g| format!("{g:.1}"))
                    .unwrap_or_else(|| "-".into()),
                j.absorbed_records.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use telemetry::{EfficacyRow, TraceEvent};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ansor-serve-report-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_journal(path: &Path, events: &[JournalEvent]) {
        let mut f = std::fs::File::create(path).unwrap();
        for e in events {
            writeln!(f, "{}", serde_json::to_string(e).unwrap()).unwrap();
        }
    }

    fn write_trace(path: &Path, rows: &[(u64, u64, u64, u64)]) {
        let tel = telemetry::Telemetry::to_file(path).unwrap();
        tel.emit(|| TraceEvent::OperatorStats {
            task: "GMM:s0b1".into(),
            round: 0,
            operators: rows
                .iter()
                .map(|&(p, s, m, n)| EfficacyRow {
                    name: "mutate-tile".into(),
                    proposed: p,
                    survived: s,
                    measured: m,
                    new_best: n,
                })
                .collect(),
            rules: vec![EfficacyRow {
                name: "multi-level-tiling".into(),
                proposed: 8,
                survived: 4,
                measured: 2,
                new_best: 1,
            }],
        });
        tel.flush();
    }

    #[test]
    fn folds_journal_into_per_job_rows_and_fleet_efficacy() {
        let dir = temp_dir("fold");
        write_trace(&dir.join("job-1.trace.jsonl"), &[(10, 5, 3, 1)]);
        write_trace(&dir.join("job-2.trace.jsonl"), &[(20, 8, 4, 2)]);
        let journal = dir.join("journal.jsonl");
        let submit = |job: &str, seed: u64| JournalEvent::Submit {
            job: job.into(),
            task: "GMM:s0b1".into(),
            op: "GMM".into(),
            shape: 0,
            batch: 1,
            target: "intel".into(),
            trials: 64,
            seed,
        };
        write_journal(
            &journal,
            &[
                JournalEvent::DaemonStart {
                    workers: 2,
                    queue_cap: 8,
                },
                submit("job-1", 1),
                submit("job-2", 2),
                submit("job-3", 3),
                JournalEvent::Start {
                    job: "job-1".into(),
                    queue_wait_ms: 0.4,
                },
                JournalEvent::Start {
                    job: "job-2".into(),
                    queue_wait_ms: 1.2,
                },
                JournalEvent::Round {
                    job: "job-1".into(),
                    round: 1,
                    trials: 64,
                    best_seconds: Some(2e-4),
                },
                JournalEvent::Finish {
                    job: "job-1".into(),
                    outcome: "done".into(),
                    queue_wait_ms: 0.4,
                    wall_ms: 350.0,
                    trials: 64,
                    best_gflops: Some(81.5),
                    cache: Default::default(),
                    absorbed_records: 64,
                    trace: Some("job-1.trace.jsonl".into()),
                },
                JournalEvent::Finish {
                    job: "job-2".into(),
                    outcome: "done".into(),
                    queue_wait_ms: 1.2,
                    wall_ms: 340.0,
                    trials: 64,
                    best_gflops: Some(79.0),
                    cache: Default::default(),
                    absorbed_records: 12,
                    trace: Some("job-2.trace.jsonl".into()),
                },
                JournalEvent::Interrupted {
                    job: "job-3".into(),
                },
            ],
        );

        let report = ServeReport::build(&journal).unwrap();
        assert_eq!(report.daemon_starts, 1);
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.jobs[0].outcome, "done");
        assert_eq!(report.jobs[0].queue_wait_ms, Some(0.4));
        assert_eq!(report.jobs[0].best_gflops, Some(81.5));
        assert_eq!(report.jobs[0].absorbed_records, 64);
        assert_eq!(report.jobs[2].outcome, "interrupted");
        assert_eq!(report.traces_read, 2);
        assert_eq!(report.traces_missing, 0);
        // Fleet aggregation sums both jobs' funnels.
        let op = &report.operator_efficacy["mutate-tile"];
        assert_eq!((op.proposed, op.new_best), (30, 3));
        let rule = &report.rule_efficacy["multi-level-tiling"];
        assert_eq!((rule.proposed, rule.new_best), (16, 2));
        assert_eq!(job_rows(&report).len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_traces_are_counted_not_fatal() {
        let dir = temp_dir("missing");
        let journal = dir.join("journal.jsonl");
        write_journal(
            &journal,
            &[
                JournalEvent::Submit {
                    job: "job-1".into(),
                    task: "GMM:s0b1".into(),
                    op: "GMM".into(),
                    shape: 0,
                    batch: 1,
                    target: "intel".into(),
                    trials: 64,
                    seed: 1,
                },
                JournalEvent::Finish {
                    job: "job-1".into(),
                    outcome: "done".into(),
                    queue_wait_ms: 0.1,
                    wall_ms: 100.0,
                    trials: 64,
                    best_gflops: None,
                    cache: Default::default(),
                    absorbed_records: 0,
                    trace: Some("gone.trace.jsonl".into()),
                },
            ],
        );
        let report = ServeReport::build(&journal).unwrap();
        assert_eq!(report.traces_missing, 1);
        assert_eq!(report.traces_read, 0);
        assert!(report.operator_efficacy.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
