//! **trace-report**: summarizes a JSONL tuning trace written via the
//! experiment binaries' `--trace <path>` flag (see docs/TELEMETRY.md).
//!
//! Prints, from the typed events alone:
//!
//! - the trace's table of contents (event counts);
//! - best-latency-vs-trials curves per task (`MeasureBatch`);
//! - the phase-time breakdown from the final `PhaseProfile` snapshot;
//! - cost-model accuracy drift over retrains (`ModelRetrain`);
//! - the task scheduler's per-task allocation table (`SchedulerStep`);
//! - aggregate measurement-failure kinds.
//!
//! With `--explain`, additionally attributes the search outcome (see
//! docs/EXPLAIN.md):
//!
//! - sketch-rule efficacy (proposed → survived → measured → new-best);
//! - evolution-operator efficacy (same funnel, per operator);
//! - the lineage of each task's best state (`ImprovementAttributed`);
//! - held-out cost-model calibration over time (`ModelCalibration`).
//!
//! With `--serve <journal.jsonl>` it reports on an `ansor-serve` daemon
//! instead: the per-job lifecycle table (queue wait, run time, outcome,
//! best GFLOPS) from the job journal, plus fleet-wide sketch-rule and
//! evolution-operator efficacy aggregated across every per-job trace the
//! journal points at (see docs/SERVING.md).
//!
//! Run: `trace-report <trace.jsonl> [--explain] [--json <path>] [--strict]
//! [--follow] [--events <path>]`
//! or:  `trace-report --serve <journal.jsonl> [--json <path>] [--strict]`
//!
//! `--json <path>` writes every table (including the explain sections) as
//! one JSON document; `--strict` exits nonzero when the trace contains
//! corrupt (unparseable) lines; `--follow` tails a live trace (poll +
//! seek, tolerating a partial last line) printing progress as it lands and
//! emitting the full report once the run's final `PhaseProfile` arrives;
//! `--events <path>` writes the canonical event stream (event JSON per
//! line, wall-clock fields and `PhaseProfile` stripped — the
//! determinism-comparable form, see docs/TELEMETRY.md).

use std::collections::BTreeMap;
use std::io::{Seek as _, SeekFrom, Write as _};

use ansor_bench::{flag_value, fmt_seconds, print_table, sparkline};
use serde::Serialize;
use telemetry::report::{self, CalibrationPoint, Efficacy, ImprovementPoint, ModelPoint};
use telemetry::{HistogramSummary, TraceLine};

/// Everything `trace-report` can print, as one serializable document
/// (the `--json` output).
#[derive(Serialize)]
struct Report {
    trace: String,
    events: usize,
    corrupt_lines_skipped: usize,
    event_counts: BTreeMap<String, u64>,
    best_curves: BTreeMap<String, Vec<(u64, f64)>>,
    phase_breakdown: Vec<(String, HistogramSummary)>,
    model_drift: Vec<ModelPoint>,
    allocations: BTreeMap<String, u64>,
    final_counters: BTreeMap<String, u64>,
    error_kinds: BTreeMap<String, u64>,
    rule_efficacy: BTreeMap<String, Efficacy>,
    operator_efficacy: BTreeMap<String, Efficacy>,
    improvements: BTreeMap<String, Vec<ImprovementPoint>>,
    calibration: Vec<CalibrationPoint>,
}

impl Report {
    fn build(path: &str, lines: &[TraceLine], skipped: usize) -> Report {
        Report {
            trace: path.to_string(),
            events: lines.len(),
            corrupt_lines_skipped: skipped,
            event_counts: report::event_counts(lines)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            best_curves: report::best_curves(lines),
            phase_breakdown: report::phase_breakdown(lines),
            model_drift: report::model_drift(lines),
            allocations: report::allocations(lines),
            final_counters: report::final_counters(lines),
            error_kinds: report::error_kinds(lines),
            rule_efficacy: report::rule_efficacy(lines),
            operator_efficacy: report::operator_efficacy(lines),
            improvements: report::improvements(lines),
            calibration: report::calibration(lines),
        }
    }
}

struct Options {
    path: String,
    explain: bool,
    json: Option<String>,
    strict: bool,
    follow: bool,
    events: Option<String>,
    serve: Option<String>,
}

fn parse_args() -> Options {
    let mut path = None;
    let mut explain = false;
    let mut json = None;
    let mut strict = false;
    let mut follow = false;
    let mut events = None;
    let mut serve = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || Some(flag_value(&a, it.next()));
        match a.as_str() {
            "--explain" => explain = true,
            "--json" => json = val(),
            "--strict" => strict = true,
            "--follow" => follow = true,
            "--events" => events = val(),
            "--serve" => serve = val(),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!("trace-report: unrecognized argument {other:?}");
                usage_exit();
            }
        }
    }
    // `--serve` takes the journal path itself; a positional trace path is
    // only required in the default (single-trace) mode.
    let path = match (path, &serve) {
        (Some(p), _) => p,
        (None, Some(_)) => String::new(),
        (None, None) => usage_exit(),
    };
    Options {
        path,
        explain,
        json,
        strict,
        follow,
        events,
        serve,
    }
}

const USAGE: &str = "usage: trace-report <trace.jsonl> [--explain] [--json <path>] [--strict] \
                     [--follow] [--events <path>]\n\
                     \x20      trace-report --serve <journal.jsonl> [--json <path>] [--strict]";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The `--serve` mode: per-job lifecycle table and fleet-wide efficacy
/// from an `ansor-serve` job journal.
fn serve_mode(journal: &str, opts: &Options) -> ! {
    use ansor_bench::serve_report::{job_rows, ServeReport};
    let report = match ServeReport::build(std::path::Path::new(journal)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace-report: cannot read journal {journal}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "journal: {journal} ({} events, {} corrupt lines skipped, {} daemon start{})",
        report.events,
        report.corrupt_lines_skipped,
        report.daemon_starts,
        if report.daemon_starts == 1 { "" } else { "s" }
    );
    if !report.jobs.is_empty() {
        print_table(
            "Jobs (submit order)",
            &[
                "job",
                "task",
                "outcome",
                "trials",
                "queue wait",
                "run time",
                "GFLOPS",
                "absorbed",
            ],
            &job_rows(&report),
        );
    }
    if report.traces_read + report.traces_missing > 0 {
        println!(
            "fleet traces: {} read, {} missing",
            report.traces_read, report.traces_missing
        );
    }
    if !report.rule_efficacy.is_empty() {
        print_table(
            "Fleet sketch-rule efficacy (all jobs)",
            &[
                "rule", "proposed", "survived", "measured", "new best", "hit rate",
            ],
            &efficacy_rows(&report.rule_efficacy),
        );
    }
    if !report.operator_efficacy.is_empty() {
        print_table(
            "Fleet evolution-operator efficacy (all jobs)",
            &[
                "operator", "proposed", "survived", "measured", "new best", "hit rate",
            ],
            &efficacy_rows(&report.operator_efficacy),
        );
    }
    if let Some(json_path) = &opts.json {
        let json = serde_json::to_string_pretty(&report).expect("serializable serve report");
        std::fs::write(json_path, json).unwrap_or_else(|e| {
            eprintln!("trace-report: cannot write {json_path}: {e}");
            std::process::exit(1);
        });
        println!("(wrote {json_path})");
    }
    if opts.strict && report.corrupt_lines_skipped > 0 {
        eprintln!(
            "trace-report: --strict: {} corrupt lines in {journal}",
            report.corrupt_lines_skipped
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Tail a live trace file: poll + seek from the last offset, parse only
/// complete lines (a partially written last line stays buffered until its
/// newline arrives), print progress events as they land, and return the
/// accumulated `(lines, skipped)` once the run's final `PhaseProfile`
/// (emitted by `Telemetry::flush`) marks the trace complete.
fn follow_trace(path: &std::path::Path) -> (Vec<TraceLine>, usize) {
    let mut offset = 0u64;
    let mut pending: Vec<u8> = Vec::new();
    let mut lines: Vec<TraceLine> = Vec::new();
    let mut skipped = 0usize;
    let mut announced = false;
    loop {
        if let Ok(mut f) = std::fs::File::open(path) {
            if !announced {
                println!("following {} (waiting for PhaseProfile)…", path.display());
                announced = true;
            }
            let mut chunk = Vec::new();
            if f.seek(SeekFrom::Start(offset)).is_ok() {
                use std::io::Read as _;
                if f.read_to_end(&mut chunk).is_ok() {
                    offset += chunk.len() as u64;
                    pending.extend_from_slice(&chunk);
                }
            }
            // Whole lines only; the rest waits for its newline.
            let whole = pending
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let mut done = false;
            skipped += serde_json::read_lines(&pending[..whole], |line: TraceLine, _| {
                if !done {
                    done = matches!(line.event, telemetry::TraceEvent::PhaseProfile { .. });
                    print_live(&line);
                    lines.push(line);
                }
            })
            .expect("a read from memory does not fail");
            pending.drain(..whole);
            if done {
                return (lines, skipped);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// One-line live view of the events worth narrating while following.
fn print_live(line: &TraceLine) {
    use telemetry::TraceEvent::*;
    match &line.event {
        RoundStart {
            task,
            round,
            trials_so_far,
        } => println!("[{task}] round {round} ({trials_so_far} trials so far)"),
        ImprovementAttributed {
            task, seconds, op, ..
        } => println!("[{task}] new best {} via {op}", fmt_seconds(*seconds)),
        TuningFinished {
            task,
            trials,
            best_seconds,
        } => {
            let best = best_seconds.map(fmt_seconds).unwrap_or_else(|| "-".into());
            println!("[{task}] finished: {trials} trials, best {best}");
        }
        PhaseProfile { .. } => println!("— run complete —"),
        _ => {}
    }
}

fn main() {
    let opts = parse_args();
    if let Some(journal) = opts.serve.clone() {
        serve_mode(&journal, &opts);
    }
    let (lines, skipped) = if opts.follow {
        follow_trace(std::path::Path::new(&opts.path))
    } else {
        match telemetry::read_trace_file(std::path::Path::new(&opts.path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace-report: cannot read {}: {e}", opts.path);
                std::process::exit(1);
            }
        }
    };
    println!(
        "trace: {} ({} events, {skipped} corrupt lines skipped)",
        opts.path,
        lines.len()
    );
    let rep = Report::build(&opts.path, &lines, skipped);
    if !lines.is_empty() {
        print_summary(&rep);
        if opts.explain {
            print_explain(&rep);
        }
    }
    if let Some(json_path) = &opts.json {
        let json = serde_json::to_string_pretty(&rep).expect("serializable report");
        let mut f = std::fs::File::create(json_path).unwrap_or_else(|e| {
            eprintln!("trace-report: cannot create {json_path}: {e}");
            std::process::exit(1);
        });
        f.write_all(json.as_bytes()).expect("write json report");
        println!("(wrote {json_path})");
    }
    if let Some(events_path) = &opts.events {
        // The canonical, determinism-comparable event stream: event JSON
        // per line, wall-clock envelope (`seq`/`t_ms`) and `PhaseProfile`
        // dropped. Two same-seed runs must produce byte-identical files
        // here (the CI live-smoke job diffs exporter-on vs exporter-off).
        let mut out = String::new();
        for line in &lines {
            if matches!(line.event, telemetry::TraceEvent::PhaseProfile { .. }) {
                continue;
            }
            out.push_str(&serde_json::to_string(&line.event).expect("event serializes"));
            out.push('\n');
        }
        std::fs::write(events_path, out).unwrap_or_else(|e| {
            eprintln!("trace-report: cannot write {events_path}: {e}");
            std::process::exit(1);
        });
        println!("(wrote canonical events to {events_path})");
    }
    if opts.strict && skipped > 0 {
        eprintln!(
            "trace-report: --strict: {skipped} corrupt lines in {}",
            opts.path
        );
        std::process::exit(1);
    }
}

/// The default tables: event counts, convergence curves, phase times,
/// model drift, scheduler allocations, cache counters, failure kinds.
fn print_summary(rep: &Report) {
    print_table(
        "Event counts",
        &["event", "count"],
        &rep.event_counts
            .iter()
            .map(|(k, v)| vec![k.to_string(), v.to_string()])
            .collect::<Vec<_>>(),
    );

    if !rep.best_curves.is_empty() {
        let rows: Vec<Vec<String>> = rep
            .best_curves
            .iter()
            .map(|(task, pts)| {
                let (_, first_b) = pts.first().expect("non-empty curve");
                let (last_t, last_b) = pts.last().expect("non-empty curve");
                vec![
                    task.clone(),
                    last_t.to_string(),
                    fmt_seconds(*first_b),
                    fmt_seconds(*last_b),
                    format!("{:.2}x", first_b / last_b),
                    // Lower is better, so the curve descends left to right.
                    sparkline(&sample_rows(pts, 24).map(|p| p.1).collect::<Vec<_>>()),
                ]
            })
            .collect();
        print_table(
            "Best latency vs. trials (per task)",
            &[
                "task",
                "trials",
                "first best",
                "final best",
                "gain",
                "curve",
            ],
            &rows,
        );
    }

    if !rep.phase_breakdown.is_empty() {
        let total: f64 = rep.phase_breakdown.iter().map(|(_, h)| h.sum).sum();
        let rows: Vec<Vec<String>> = rep
            .phase_breakdown
            .iter()
            .map(|(name, h)| {
                vec![
                    name.trim_start_matches("phase/").to_string(),
                    h.count.to_string(),
                    fmt_seconds(h.sum),
                    format!("{:.1}%", 100.0 * h.sum / total.max(1e-30)),
                    fmt_seconds(h.p50),
                    fmt_seconds(h.p99),
                ]
            })
            .collect();
        print_table(
            "Phase-time breakdown (final snapshot)",
            &["phase", "calls", "total", "share", "p50", "p99"],
            &rows,
        );
    }

    if !rep.model_drift.is_empty() {
        let rows: Vec<Vec<String>> = sample_rows(&rep.model_drift, 12)
            .map(|p| {
                vec![
                    p.seq.to_string(),
                    p.task.clone(),
                    p.pairs.to_string(),
                    format!("{:.3}", p.ranking_loss),
                    format!("{:.3}", p.rank_corr),
                ]
            })
            .collect();
        print_table(
            "Cost-model accuracy drift (retrains over time)",
            &["seq", "task", "pairs", "ranking loss", "rank corr"],
            &rows,
        );
    }

    if !rep.allocations.is_empty() {
        let total: u64 = rep.allocations.values().sum();
        let rows: Vec<Vec<String>> = rep
            .allocations
            .iter()
            .map(|(task, n)| {
                vec![
                    task.clone(),
                    n.to_string(),
                    format!("{:.1}%", 100.0 * *n as f64 / total.max(1) as f64),
                ]
            })
            .collect();
        print_table(
            "Task-scheduler allocations",
            &["task", "rounds", "share"],
            &rows,
        );
    }

    if !rep.final_counters.is_empty() {
        // Signature-cache effectiveness: hit/miss counter pairs from the
        // final snapshot (features/cache_*, model/score_cache_*).
        let pairs: [(&str, &str, &str); 2] = [
            (
                "feature extraction",
                "features/cache_hits",
                "features/cache_misses",
            ),
            (
                "model scoring",
                "model/score_cache_hits",
                "model/score_cache_misses",
            ),
        ];
        let rows: Vec<Vec<String>> = pairs
            .iter()
            .filter_map(|(label, hk, mk)| {
                let (h, m) = (
                    *rep.final_counters.get(*hk).unwrap_or(&0),
                    *rep.final_counters.get(*mk).unwrap_or(&0),
                );
                (h + m > 0).then(|| {
                    vec![
                        label.to_string(),
                        h.to_string(),
                        m.to_string(),
                        format!("{:.1}%", 100.0 * h as f64 / (h + m) as f64),
                    ]
                })
            })
            .collect();
        if !rows.is_empty() {
            print_table(
                "Signature-cache effectiveness",
                &["cache", "hits", "misses", "hit rate"],
                &rows,
            );
        }
        if let Some(n) = rep.final_counters.get("features/extract_failed") {
            println!("feature extraction failures recorded: {n}");
        }
    }

    if !rep.error_kinds.is_empty() {
        print_table(
            "Measurement failures by kind",
            &["kind", "count"],
            &rep.error_kinds
                .iter()
                .map(|(k, v)| vec![k.clone(), v.to_string()])
                .collect::<Vec<_>>(),
        );
    }
}

/// The `--explain` attribution tables (see docs/EXPLAIN.md).
fn print_explain(rep: &Report) {
    if !rep.rule_efficacy.is_empty() {
        print_table(
            "Sketch-rule efficacy (whole run)",
            &[
                "rule", "proposed", "survived", "measured", "new best", "hit rate",
            ],
            &efficacy_rows(&rep.rule_efficacy),
        );
    }
    if !rep.operator_efficacy.is_empty() {
        print_table(
            "Evolution-operator efficacy (whole run)",
            &[
                "operator", "proposed", "survived", "measured", "new best", "hit rate",
            ],
            &efficacy_rows(&rep.operator_efficacy),
        );
    }
    if !rep.improvements.is_empty() {
        let rows: Vec<Vec<String>> = rep
            .improvements
            .iter()
            .map(|(task, pts)| {
                let last = pts.last().expect("non-empty improvement list");
                vec![
                    task.clone(),
                    fmt_seconds(last.seconds),
                    last.trial.to_string(),
                    last.op.clone(),
                    last.generation.to_string(),
                    pts.len().to_string(),
                    last.rules.join(" → "),
                ]
            })
            .collect();
        print_table(
            "Lineage of best (per task)",
            &[
                "task",
                "best",
                "trial",
                "operator",
                "gen",
                "improvements",
                "sketch-rule chain",
            ],
            &rows,
        );
    }
    if !rep.calibration.is_empty() {
        let rows: Vec<Vec<String>> = sample_rows(&rep.calibration, 12)
            .map(|p| {
                vec![
                    p.seq.to_string(),
                    p.task.clone(),
                    p.batch.to_string(),
                    p.pairs.to_string(),
                    format!("{:.3}", p.rank_acc),
                    format!("{:.2}", p.top1_recall),
                    format!("{:.2}", p.top8_recall),
                    format!("{:.3}", p.err_p50),
                    format!("{:.3}", p.err_p90),
                ]
            })
            .collect();
        print_table(
            "Held-out model calibration over time",
            &[
                "seq", "task", "batch", "pairs", "rank acc", "top-1", "top-8", "err p50", "err p90",
            ],
            &rows,
        );
    }
}

/// Table rows for a rule/operator efficacy map: funnel counts plus the
/// new-best hit rate among measured candidates.
fn efficacy_rows(map: &BTreeMap<String, Efficacy>) -> Vec<Vec<String>> {
    map.iter()
        .map(|(name, e)| {
            vec![
                name.clone(),
                e.proposed.to_string(),
                e.survived.to_string(),
                e.measured.to_string(),
                e.new_best.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * e.new_best as f64 / e.measured.max(1) as f64
                ),
            ]
        })
        .collect()
}

/// At most `cap` evenly spaced items, keeping trace order (long runs
/// produce hundreds of retrain/calibration points; the table shows a
/// sample, the `--json` document carries them all).
fn sample_rows<T>(items: &[T], cap: usize) -> impl Iterator<Item = &T> {
    items.iter().step_by(items.len().div_ceil(cap))
}
