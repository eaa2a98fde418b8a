//! `e2e_bench`: the repo's benchmark. Five workloads driven through the
//! public API of every crate, a handful of end-to-end metrics on a
//! calibrated CPU clock, and — in a separate traced run — a per-layer
//! table timed from outside the program. See `README.md` in this
//! directory for the protocol and for how to read the output.
//!
//! ```text
//! e2e_bench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! e2e_bench --aa [K] [--workload <name|all>] [--seed N] [--seconds S]
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `{"attempted": .., "correct": .., "failed": .., "metrics":
//! {name: {"unit": .., "value": ..}}}` — the end-to-end metrics with
//! `--trace 0`, the layer metrics with `--trace 1`. The exit code is 0
//! only when no operation failed.

mod aa;
mod alloc;
mod calib;
mod checks;
mod clock;
mod layers;
mod metrics;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod timed_model;
mod workloads;

use crate::run::{Report, RunConfig};
use crate::workloads::{workload, Scale, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds a run measures for unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 17.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e_bench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         e2e_bench --aa [K] [--workload <name|all>] [--seed N] [--seconds S]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")),
            "--seed" => cli.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("a number").parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => cli.quick = true,
            "--aa" => {
                let k = args.peek().and_then(|v| v.parse().ok());
                if k.is_some() {
                    args.next();
                }
                cli.aa = Some(k.unwrap_or(5));
            }
            _ => usage(),
        }
    }
    cli
}

/// Runs one workload and prints its report; returns whether every
/// operation succeeded.
fn run_one(cfg: &RunConfig, trace: bool) -> bool {
    let Report {
        mut values,
        mut ops,
        lines,
    } = if trace {
        layers::run_traced(cfg)
    } else {
        run::run_e2e(cfg)
    };
    println!("{}: {}", cfg.workload.name, cfg.workload.why);
    for line in &lines {
        println!("{line}");
    }
    // A metric without a finite value is a failed operation, and is
    // printed as 0 so the line stays valid JSON.
    for name in values.missing() {
        ops.check(false, || format!("metric {name} has no finite value"));
        values.set(name, 0.0);
    }
    println!("  {:<44} {:>16}  unit", "metric", "value");
    for (name, v) in values.in_order() {
        println!("  {:<44} {:>16.6}  {}", name, v.value, v.unit);
    }
    println!(
        "  operations: {} attempted, {} failed, {} known failures",
        ops.attempted, ops.failed, ops.known_failures
    );
    // Names and units are plain ASCII identifiers; `{}` prints an f64 as a
    // full decimal, which is a JSON number.
    let metrics: Vec<String> = values
        .in_order()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.value, v.unit
            )
        })
        .collect();
    // `--quick` numbers must never be compared with a full run's.
    let quick = if cfg.scale == Scale::Quick {
        ", \"quick\": true"
    } else {
        ""
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}{quick}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        metrics.join(", ")
    );
    ops.failed == 0
}

fn main() {
    let cli = parse_cli();
    let name = match (&cli.workload, cli.aa) {
        (Some(name), _) => name.as_str(),
        (None, Some(_)) => "all",
        (None, None) => usage(),
    };
    let scale = if cli.quick { Scale::Quick } else { Scale::Full };
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let chosen: Vec<_> = if name == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![workload(name).unwrap_or_else(|| {
            eprintln!("unknown workload {name:?}");
            usage()
        })]
    };
    if let Some(k) = cli.aa {
        std::process::exit(aa::run(&chosen, k, cli.seed, seconds));
    }
    let mut ok = true;
    for w in chosen {
        let cfg = RunConfig {
            workload: w,
            seed: cli.seed,
            seconds,
            scale,
        };
        ok &= run_one(&cfg, cli.trace);
    }
    std::process::exit(if ok { 0 } else { 1 });
}
