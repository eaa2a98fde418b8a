//! `ansor-tune`: command-line auto-scheduling of the built-in workloads.
//!
//! ```text
//! ansor-tune --op C2D --shape 1 --batch 1 --trials 300 --target intel \
//!            --log conv.jsonl
//! ansor-tune --network dcgan --units 20 --target gpu
//! ansor-tune --op GMM --checkpoint run.ckpt
//! ansor-tune --resume run.ckpt --op GMM --checkpoint run.ckpt
//! ansor-tune --bless
//! ansor-tune --list
//! ```
//!
//! Tunes a single operator (optionally resuming from / appending to a
//! JSON-lines record log) or a whole network via the task scheduler, then
//! prints the best schedule. Runs can persist a versioned checkpoint after
//! every round or unit (`--checkpoint`: new records appended to the record
//! log, a small header replaced) and continue after a crash (`--resume`) to
//! a bit-identical final result; `--faults <spec>` injects deterministic
//! measurement faults (see docs/ROBUSTNESS.md).

use ansor::core::{
    load_records, log_fingerprint, save_records, single_fingerprint, single_task_name,
    CheckpointFile, TuneCheckpoint, TuningRecordLog, TuningSession, CHECKPOINT_VERSION,
};
use ansor::prelude::*;
use ansor::workloads;
use ansor_bench::{flag_value, parse_flag};
use hwsim::FaultPlan;

struct Cli {
    op: Option<String>,
    shape: usize,
    batch: i64,
    trials: usize,
    network: Option<String>,
    units: usize,
    target: String,
    log: Option<String>,
    list: bool,
    show_program: bool,
    faults: String,
    checkpoint: Option<String>,
    resume: Option<String>,
    bless: bool,
    metrics_addr: Option<String>,
    trace: Option<String>,
    seed: u64,
}

impl Cli {
    /// Builds the run's telemetry handle (`--trace`, `--metrics-addr`),
    /// as every experiment harness does. Linking `ansor_bench` also
    /// installs the allocation counter behind the live `alloc/*` gauges
    /// (docs/OPERATIONS.md).
    fn telemetry(&self) -> telemetry::Telemetry {
        ansor_bench::start_telemetry(self.trace.as_deref(), self.metrics_addr.as_deref())
    }
}

fn parse() -> Cli {
    let mut cli = Cli {
        op: None,
        shape: 0,
        batch: 1,
        trials: 200,
        network: None,
        units: 20,
        target: "intel".into(),
        log: None,
        list: false,
        show_program: false,
        faults: "none".into(),
        checkpoint: None,
        resume: None,
        bless: false,
        metrics_addr: None,
        trace: None,
        seed: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || flag_value(&a, it.next());
        match a.as_str() {
            "--op" => cli.op = Some(val()),
            "--shape" => cli.shape = parse_flag(&a, &val()),
            "--batch" => cli.batch = parse_flag(&a, &val()),
            "--trials" => cli.trials = parse_flag(&a, &val()),
            "--network" => cli.network = Some(val()),
            "--units" => cli.units = parse_flag(&a, &val()),
            "--target" => cli.target = val(),
            "--log" => cli.log = Some(val()),
            "--faults" => cli.faults = val(),
            "--checkpoint" => cli.checkpoint = Some(val()),
            "--resume" => cli.resume = Some(val()),
            "--bless" => cli.bless = true,
            "--metrics-addr" => cli.metrics_addr = Some(val()),
            "--trace" => cli.trace = Some(val()),
            "--seed" => cli.seed = parse_flag(&a, &val()),
            "--list" => cli.list = true,
            "--program" => cli.show_program = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    cli
}

fn print_help() {
    println!(
        "ansor-tune — auto-schedule tensor programs on a simulated machine\n\
         \n\
         single operator:\n\
         \x20  ansor-tune --op C2D --shape 0..3 --batch 1|16 --trials N\n\
         \x20             [--log records.jsonl] [--program]\n\
         whole network:\n\
         \x20  ansor-tune --network resnet50|mobilenet_v2|resnet3d_18|dcgan|bert\n\
         \x20             --units N\n\
         common:\n\
         \x20  --target intel|intel-avx512|arm|gpu   (default intel)\n\
         \x20  --seed N                               search RNG seed (default 0)\n\
         \x20  --faults none|default|k=v,...          inject measurement faults\n\
         \x20  --checkpoint PATH                      persist search state every round\n\
         \x20                                         (records in --log or PATH.records)\n\
         \x20  --resume PATH                          continue a killed run\n\
         \x20  --metrics-addr ADDR                    live /metrics /status /healthz\n\
         \x20                                         (watch with ansor-top ADDR)\n\
         \x20  --trace PATH                           structured JSONL tuning trace\n\
         \x20                                         (analyze with trace-report)\n\
         \x20  --bless                                regenerate tests/golden/\n\
         \x20  --list                                 list available workloads"
    );
}

fn target(name: &str) -> HardwareTarget {
    HardwareTarget::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown target {name:?}; use intel|intel-avx512|arm|gpu");
        std::process::exit(2);
    })
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Loads a `--log` file, surfacing the skipped-line count and read errors
/// instead of silently dropping them. A missing file is fine (first run).
fn load_log(path: &str) -> Vec<ansor::core::TuningRecordLog> {
    match load_records(path) {
        Ok((records, skipped)) => {
            if skipped > 0 {
                println!(
                    "warning: skipped {skipped} corrupt line{} in {path}",
                    if skipped == 1 { "" } else { "s" }
                );
            }
            records
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("warning: could not read {path}: {e}");
            Vec::new()
        }
    }
}

/// Loads the `--resume` checkpoint. Its record log is the one the run
/// writes to, so a `--log` naming another file is refused.
fn load_checkpoint(
    path: &str,
    log: Option<&str>,
) -> (TuneCheckpoint, Vec<TuningRecordLog>, CheckpointFile) {
    let loaded = CheckpointFile::load(path).unwrap_or_else(|e| die(&e));
    if let Some(log) = log.filter(|&log| log != loaded.2.log()) {
        die(&format!(
            "--log {log}: checkpoint {path} keeps its records in {}",
            loaded.2.log()
        ));
    }
    loaded
}

/// The `--checkpoint` file of a new run, its records in `log` if given.
fn create_checkpoint(path: &str, log: Option<&str>) -> CheckpointFile {
    CheckpointFile::create(path, log).unwrap_or_else(|e| die(&format!("--checkpoint {path}: {e}")))
}

fn main() {
    let cli = parse();
    if cli.list {
        println!("operators: {}", workloads::OP_CLASSES.join(", "));
        println!("networks:  {}", workloads::all_networks().join(", "));
        return;
    }
    if cli.bless {
        let dir = std::path::Path::new(ansor::golden::GOLDEN_DIR);
        match ansor::golden::bless(dir) {
            Ok(summary) => println!(
                "blessed {}: best {:.6} ms ({:.1} GFLOP/s, {} trials)",
                dir.display(),
                summary.best_seconds * 1e3,
                summary.gflops,
                summary.trials
            ),
            Err(e) => die(&format!("bless failed: {e}")),
        }
        return;
    }
    let plan = match FaultPlan::parse(&cli.faults) {
        Ok(p) => (!p.is_inert()).then_some(p),
        Err(e) => die(&format!("--faults: {e}")),
    };
    hwsim::set_default_plan(plan.clone());
    let target = target(&cli.target);

    if let Some(net) = &cli.network {
        tune_network(&cli, net, target);
        return;
    }

    let op = cli.op.clone().unwrap_or_else(|| {
        print_help();
        std::process::exit(2);
    });
    let Some(dag) = workloads::build_case(&op, cli.shape, cli.batch) else {
        eprintln!("unknown case {op:?} shape {} (see --list)", cli.shape);
        std::process::exit(2);
    };
    // The trial budget is deliberately not part of the fingerprint: it only
    // gates the stop condition, so a checkpoint may be resumed with a larger
    // `--trials` to extend a finished run.
    let fingerprint = single_fingerprint(
        &op,
        cli.shape,
        cli.batch,
        &cli.target,
        &cli.faults,
        cli.seed,
    );
    let task = SearchTask::new(
        single_task_name(&op, cli.shape, cli.batch),
        dag.clone(),
        target.clone(),
    );
    let tel = cli.telemetry();
    let options = TuningOptions {
        num_measure_trials: cli.trials,
        seed: cli.seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(tel.clone());
    let mut session = TuningSession::new(task, options, measurer, fingerprint);

    let mut file = if let Some(path) = &cli.resume {
        let (ck, warm, file) = load_checkpoint(path, cli.log.as_deref());
        if ck.single.is_none() && ck.scheduler.is_some() {
            die("checkpoint holds a network run; pass --network to resume it");
        }
        if !warm.is_empty() {
            session.warm_start(&warm);
        }
        session.restore(&ck).unwrap_or_else(|e| die(&e));
        println!(
            "resumed from {path}: {} trials done, {} rounds, best {:.6} ms",
            session.trials(),
            session.rounds(),
            session.best_seconds() * 1e3
        );
        cli.checkpoint.as_ref().map(|p| file.moved_to(p))
    } else {
        if let Some(path) = &cli.log {
            let records = load_log(path);
            let n = session.warm_start(&records);
            if n > 0 {
                println!("warm-started from {n} records in {path}");
            }
        }
        cli.checkpoint
            .as_ref()
            .map(|p| create_checkpoint(p, cli.log.as_deref()))
    };
    let logged = session.log().len();

    println!(
        "tuning {op} (shape {}, batch {}) with {} trials...",
        cli.shape, cli.batch, cli.trials
    );
    // A failed save is a warning, unless its record log is the `--log`
    // file, which may not silently miss records.
    let save = |file: &mut Option<CheckpointFile>, session: &TuningSession| {
        if let Some(file) = file {
            match file.save(session.checkpoint()) {
                Err(e) if cli.log.is_some() => die(&format!("--log {}: {e}", file.log())),
                Err(e) => eprintln!("warning: checkpoint save failed: {e}"),
                Ok(()) => {}
            }
        }
    };
    while session.step() > 0 {
        save(&mut file, &session);
    }
    let best_seconds = session.best_seconds();
    println!(
        "best: {:.6} ms  ({:.1} GFLOP/s)",
        best_seconds * 1e3,
        dag.flop_count() / best_seconds / 1e9
    );
    println!(
        "log fingerprint: {:#018x} ({} records)",
        log_fingerprint(session.log()),
        session.log().len()
    );
    if plan.is_some() {
        println!(
            "fault injection: {:.1} simulated seconds lost to retries/timeouts",
            session.measurer().sim_fault_seconds()
        );
    }
    // With a checkpoint, its saves append the records to the log.
    save(&mut file, &session);
    if let Some(path) = &cli.log {
        let new = &session.log()[logged..];
        if file.is_none() {
            save_records(path, new).unwrap_or_else(|e| die(&format!("--log {path}: {e}")));
        }
        println!("appended {} records to {path}", new.len());
    }
    if cli.show_program {
        if let Some(best) = session.best_individual() {
            let program = lower(&best.state).expect("best program lowers");
            println!("\n{}", print_program(&program));
        }
    }
    // Seal the trace (final PhaseProfile + sink flush); no-op otherwise.
    tel.flush();
}

fn tune_network(cli: &Cli, net: &str, target: HardwareTarget) {
    let Some(tasks) = workloads::network(net, cli.batch) else {
        eprintln!("unknown network {net:?} (see --list)");
        std::process::exit(2);
    };
    // `--units` is not fingerprinted (it only gates the stop condition), so
    // a checkpoint may be resumed with a larger budget to extend the run.
    let fingerprint = format!(
        "network:{net}:b{}:target={}:faults={}",
        cli.batch, cli.target, cli.faults
    );
    let tune_tasks: Vec<TuneTask> = tasks
        .iter()
        .map(|t| TuneTask {
            task: SearchTask::new(t.name.clone(), t.dag.clone(), target.clone()),
            weight: t.weight,
            dnn: 0,
        })
        .collect();
    let tel = cli.telemetry();
    let mut sched = TaskScheduler::new(
        tune_tasks,
        Objective::WeightedSum,
        TuningOptions {
            telemetry: tel.clone(),
            ..Default::default()
        },
        TaskSchedulerConfig::default(),
    );
    sched.set_planned_units(cli.units);
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(tel.clone());
    let mut done_units = 0usize;
    let mut file = if let Some(path) = &cli.resume {
        let (ck, _, file) = load_checkpoint(path, None);
        if ck.fingerprint != fingerprint {
            die(&format!(
                "checkpoint was taken under different settings\n  checkpoint: {}\n  this run:   {fingerprint}",
                ck.fingerprint
            ));
        }
        let Some(sc) = &ck.scheduler else {
            die("checkpoint holds a single-op run; pass --op to resume it");
        };
        sched.restore(sc).unwrap_or_else(|e| die(&e));
        measurer.restore_accounting(ck.measurer_trials, ck.sim_fault_nanos);
        done_units = sched.history.len();
        println!(
            "resumed from {path}: {} of {} units done ({} trials)",
            done_units,
            cli.units,
            sched.total_trials()
        );
        cli.checkpoint.as_ref().map(|p| file.moved_to(p))
    } else {
        cli.checkpoint.as_ref().map(|p| create_checkpoint(p, None))
    };
    println!(
        "tuning {net} ({} tasks) for {} units of 64 trials...",
        tasks.len(),
        cli.units
    );
    // A resume that starts with the units spent has nothing to tune and
    // nothing to trace: its run already emitted the `TuningFinished` events.
    let tunes = done_units < cli.units;
    while done_units < cli.units {
        if sched.step(&mut measurer).is_none() {
            break;
        }
        done_units += 1;
        if let Some(file) = &mut file {
            let ck = TuneCheckpoint {
                version: CHECKPOINT_VERSION,
                fingerprint: fingerprint.clone(),
                measurer_trials: measurer.trials(),
                sim_fault_nanos: measurer.sim_fault_nanos(),
                records_flushed: 0,
                single: None,
                scheduler: Some(sched.checkpoint()),
            };
            if let Err(e) = file.save(ck) {
                eprintln!("warning: checkpoint save failed: {e}");
            }
        }
    }
    if tunes {
        sched.finish();
    }
    println!(
        "end-to-end latency estimate: {:.3} ms ({} trials)",
        sched.dnn_latencies()[0] * 1e3,
        sched.total_trials()
    );
    for (i, t) in sched.tasks.iter().enumerate() {
        println!(
            "  {:<28} units {:>3}  best {:>12.3} ms",
            t.task.name,
            sched.allocations[i],
            sched.best_latencies()[i] * 1e3
        );
    }
    tel.flush();
}
