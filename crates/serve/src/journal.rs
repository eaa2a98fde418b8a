//! The daemon's job journal: an append-only JSONL flight recorder.
//!
//! One [`JournalEvent`] per line, written next to the warm store by
//! default (`journal.jsonl`). The journal spans daemon restarts: on
//! startup the existing file is replayed to (a) mark any job that was
//! submitted but never finished as [`JournalEvent::Interrupted`] — a
//! crash must not leave phantom "running" entries — and (b) seed the
//! job-id counter past every id ever issued, so restarted daemons never
//! reuse an id the journal already knows.
//!
//! Appends are atomic at the line level: the file is opened in append
//! mode and each event is written as a single `write_all` of the whole
//! line (POSIX appends of one buffer do not interleave), then flushed,
//! so a reader — or a replay after a crash — sees only whole lines plus
//! at most one torn tail, which replay skips and counts. Opening the
//! journal ends a torn tail with a newline, so the next event gets a line
//! of its own.
//!
//! `trace-report --serve <journal>` builds its per-job table and
//! fleet-wide efficacy aggregation from this file; see `docs/SERVING.md`
//! for the event reference.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::proto::CacheDeltas;

/// One journal line. Externally tagged JSON, one object per line —
/// `{"Submit":{"job":"job-1",...}}` — mirroring the trace-event encoding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// The daemon (re)started and owns the journal from here on.
    DaemonStart {
        /// Session worker threads.
        workers: u64,
        /// Bounded queue capacity.
        queue_cap: u64,
    },
    /// A job was accepted and queued.
    Submit {
        /// Job id (`job-N`).
        job: String,
        /// Canonical task name.
        task: String,
        /// Operator class name.
        op: String,
        /// Shape index.
        shape: u64,
        /// Batch size.
        batch: i64,
        /// Target name.
        target: String,
        /// Measurement-trial budget.
        trials: u64,
        /// Search RNG seed.
        seed: u64,
    },
    /// A worker claimed the job and started its session.
    Start {
        /// Job id.
        job: String,
        /// Milliseconds the job spent queued before a worker claimed it.
        queue_wait_ms: f64,
    },
    /// Round-level progress of a running job.
    Round {
        /// Job id.
        job: String,
        /// Tuning rounds completed.
        round: u64,
        /// Measurement trials consumed.
        trials: u64,
        /// Best measured seconds so far, if any.
        best_seconds: Option<f64>,
    },
    /// The job settled (`done`, `failed`, or `cancelled`).
    Finish {
        /// Job id.
        job: String,
        /// `done`, `failed`, or `cancelled`.
        outcome: String,
        /// Milliseconds the job spent queued.
        queue_wait_ms: f64,
        /// Wall-clock milliseconds the job spent executing.
        wall_ms: f64,
        /// Measurement trials consumed.
        trials: u64,
        /// Best throughput in GFLOP/s, if any valid measurement landed.
        best_gflops: Option<f64>,
        /// Shared-cache traffic during the job.
        cache: CacheDeltas,
        /// Deduplicated records the warm store absorbed from this job.
        absorbed_records: u64,
        /// Per-job trace file as the daemon wrote it (`--trace-dir`
        /// joined with `<job>.trace.jsonl`), when tracing was enabled.
        trace: Option<String>,
    },
    /// Replay found the job submitted but never finished: the daemon
    /// died (or was killed) while the job was queued or running.
    Interrupted {
        /// Job id.
        job: String,
    },
}

impl JournalEvent {
    /// The job id this event refers to (`None` for daemon-level events).
    pub fn job_id(&self) -> Option<&str> {
        match self {
            JournalEvent::DaemonStart { .. } => None,
            JournalEvent::Submit { job, .. }
            | JournalEvent::Start { job, .. }
            | JournalEvent::Round { job, .. }
            | JournalEvent::Finish { job, .. }
            | JournalEvent::Interrupted { job } => Some(job),
        }
    }
}

/// What [`JobJournal::open`] found in a pre-existing journal file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    /// Events replayed (before any interruption markers were appended).
    pub events: usize,
    /// Jobs marked interrupted by *this* replay: submitted in a prior
    /// epoch but never finished.
    pub interrupted: Vec<String>,
    /// Highest numeric suffix of any `job-N` id seen; the daemon seeds
    /// its id counter past this so restarts never reuse an id.
    pub max_job_id: u64,
    /// Torn or malformed lines skipped during replay.
    pub skipped: usize,
}

/// An open journal: an append-only handle plus the replay summary.
#[derive(Debug)]
pub struct JobJournal {
    file: File,
}

impl JobJournal {
    /// Opens (or creates) the journal at `path`, replays any existing
    /// events, and appends an [`JournalEvent::Interrupted`] marker for
    /// every job a prior epoch left unfinished. The caller appends its
    /// own [`JournalEvent::DaemonStart`] after the markers.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(JobJournal, JournalReplay)> {
        let path = path.as_ref();
        let (events, skipped) = match read_journal(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), 0),
            read => read?,
        };
        let mut replay = JournalReplay {
            events: events.len(),
            skipped,
            // Every event's id, so a job whose `Submit` line was skipped
            // still reserves its id.
            max_job_id: events
                .iter()
                .filter_map(|ev| ev.job_id()?.strip_prefix("job-")?.parse().ok())
                .max()
                .unwrap_or(0),
            ..JournalReplay::default()
        };
        let mut journal = JobJournal {
            file: serde_json::append_lines(path)?,
        };
        for row in fold_jobs(&events) {
            if row.outcome == "queued" || row.outcome == "running" {
                journal.append(&JournalEvent::Interrupted {
                    job: row.job.clone(),
                })?;
                replay.interrupted.push(row.job);
            }
        }
        Ok((journal, replay))
    }

    /// Appends one event as a single whole-line write, then flushes.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        let mut line = serde_json::to_string(event).expect("journal events serialize");
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// One job's lifecycle, folded from its journal events.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct JobRow {
    /// Job id (`job-N`).
    pub job: String,
    /// Task name, e.g. `GMM:s0b1`.
    pub task: String,
    /// `queued`, `running`, `done`, `failed`, `cancelled`, or
    /// `interrupted` (submitted but never finished before a daemon
    /// restart).
    pub outcome: String,
    /// Trials completed (the submitted budget until progress arrives).
    pub trials: u64,
    /// Milliseconds queued before a worker claimed the job (`None` if it
    /// never started).
    pub queue_wait_ms: Option<f64>,
    /// Wall time from claim to finish (`None` until finished).
    pub wall_ms: Option<f64>,
    /// Best throughput the job reached (`None` when nothing measured).
    pub best_gflops: Option<f64>,
    /// Warm-store records this job contributed on completion.
    pub absorbed_records: u64,
    /// Per-job trace file, as the daemon recorded it.
    pub trace: Option<String>,
}

/// Folds journal events into one row per submitted job, in submit order.
/// An event for a job with no `Submit` (its line was skipped) is ignored.
pub fn fold_jobs(events: &[JournalEvent]) -> Vec<JobRow> {
    let mut rows: Vec<JobRow> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for event in events {
        let Some(job) = event.job_id() else {
            continue;
        };
        if let JournalEvent::Submit { task, trials, .. } = event {
            let row = JobRow {
                job: job.to_string(),
                task: task.clone(),
                outcome: "queued".into(),
                trials: *trials,
                ..JobRow::default()
            };
            // One row per id: a repeated `Submit` starts its row over.
            let i = *index.entry(job).or_insert(rows.len());
            if i < rows.len() {
                rows[i] = row;
            } else {
                rows.push(row);
            }
            continue;
        }
        let Some(&i) = index.get(job) else {
            continue;
        };
        let row = &mut rows[i];
        match event {
            JournalEvent::Start { queue_wait_ms, .. } => {
                row.outcome = "running".into();
                row.queue_wait_ms = Some(*queue_wait_ms);
            }
            JournalEvent::Round { trials, .. } => row.trials = *trials,
            JournalEvent::Finish {
                outcome,
                queue_wait_ms,
                wall_ms,
                trials,
                best_gflops,
                absorbed_records,
                trace,
                ..
            } => {
                row.outcome = outcome.clone();
                row.queue_wait_ms = Some(*queue_wait_ms);
                row.wall_ms = Some(*wall_ms);
                row.trials = *trials;
                row.best_gflops = *best_gflops;
                row.absorbed_records = *absorbed_records;
                row.trace = trace.clone();
            }
            JournalEvent::Interrupted { .. } => row.outcome = "interrupted".into(),
            JournalEvent::DaemonStart { .. } | JournalEvent::Submit { .. } => {}
        }
    }
    rows
}

/// Reads a journal file, skipping and counting torn or malformed lines
/// (see [`serde_json::read_lines`]). Returns `(events, skipped)`. A missing
/// file is an error — the caller wants to know the daemon never wrote one.
pub fn read_journal(path: impl AsRef<Path>) -> std::io::Result<(Vec<JournalEvent>, usize)> {
    let mut events = Vec::new();
    let skipped =
        serde_json::read_lines(BufReader::new(File::open(path)?), |ev, _| events.push(ev))?;
    Ok((events, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ansor-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    fn submit(job: &str) -> JournalEvent {
        JournalEvent::Submit {
            job: job.into(),
            task: "GMM:s0b1".into(),
            op: "GMM".into(),
            shape: 0,
            batch: 1,
            target: "intel".into(),
            trials: 64,
            seed: 7,
        }
    }

    fn finish(job: &str) -> JournalEvent {
        JournalEvent::Finish {
            job: job.into(),
            outcome: "done".into(),
            queue_wait_ms: 1.5,
            wall_ms: 100.0,
            trials: 64,
            best_gflops: Some(10.0),
            cache: CacheDeltas::default(),
            absorbed_records: 12,
            trace: Some(format!("{job}.trace.jsonl")),
        }
    }

    #[test]
    fn events_round_trip_and_carry_job_ids() {
        for ev in [
            JournalEvent::DaemonStart {
                workers: 2,
                queue_cap: 64,
            },
            submit("job-3"),
            JournalEvent::Start {
                job: "job-3".into(),
                queue_wait_ms: 0.5,
            },
            JournalEvent::Round {
                job: "job-3".into(),
                round: 1,
                trials: 8,
                best_seconds: None,
            },
            finish("job-3"),
            JournalEvent::Interrupted {
                job: "job-3".into(),
            },
        ] {
            let line = serde_json::to_string(&ev).unwrap();
            let back: JournalEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, ev);
        }
        assert_eq!(
            JournalEvent::DaemonStart {
                workers: 1,
                queue_cap: 1
            }
            .job_id(),
            None
        );
        assert_eq!(submit("job-9").job_id(), Some("job-9"));
    }

    #[test]
    fn open_on_a_fresh_path_starts_empty() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        let (mut j, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay, JournalReplay::default());
        j.append(&submit("job-1")).unwrap();
        j.append(&finish("job-1")).unwrap();
        let (events, skipped) = read_journal(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_marks_unfinished_jobs_interrupted() {
        let path = temp_path("interrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&JournalEvent::DaemonStart {
                workers: 2,
                queue_cap: 64,
            })
            .unwrap();
            j.append(&submit("job-1")).unwrap();
            j.append(&finish("job-1")).unwrap();
            j.append(&submit("job-2")).unwrap();
            j.append(&JournalEvent::Start {
                job: "job-2".into(),
                queue_wait_ms: 0.1,
            })
            .unwrap();
            // Daemon "dies" here: job-2 never finishes.
        }
        let (_j, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.interrupted, vec!["job-2".to_string()]);
        assert_eq!(replay.max_job_id, 2);
        let (events, _) = read_journal(&path).unwrap();
        assert_eq!(
            events.last(),
            Some(&JournalEvent::Interrupted {
                job: "job-2".into()
            })
        );
        // A third open finds nothing left dangling.
        let (_j2, replay2) = JobJournal::open(&path).unwrap();
        assert!(replay2.interrupted.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_lines_are_skipped_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submit("job-1")).unwrap();
        }
        // Simulate a torn final line from a crash mid-write.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"Finish\":{\"job\":\"job-1\",\"outc")
                .unwrap();
        }
        let (_j, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.skipped, 1);
        assert_eq!(replay.interrupted, vec!["job-1".to_string()]);
        // The marker went on a line of its own, not onto the torn one.
        let (_j, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.skipped, 1);
        assert!(replay.interrupted.is_empty(), "{replay:?}");
        let (events, _) = read_journal(&path).unwrap();
        assert_eq!(
            events.last(),
            Some(&JournalEvent::Interrupted {
                job: "job-1".into()
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn max_job_id_survives_restart() {
        let path = temp_path("maxid");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = JobJournal::open(&path).unwrap();
            j.append(&submit("job-41")).unwrap();
            j.append(&finish("job-41")).unwrap();
        }
        let (_j, replay) = JobJournal::open(&path).unwrap();
        assert_eq!(replay.max_job_id, 41);
        std::fs::remove_file(&path).unwrap();
    }
}
