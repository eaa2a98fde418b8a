//! `ansor-serve`: the tuning-as-a-service daemon.
//!
//! ```text
//! ansor-serve --addr 127.0.0.1:4815 --workers 2 --queue-cap 64 \
//!             --store warm-store.json [--metrics-addr 127.0.0.1:9100]
//! ```
//!
//! Hosts concurrent tuning sessions over the newline-delimited JSON
//! protocol (see docs/SERVING.md) with a persistent shared warm store.
//! Submit work with `ansor-client`; stop with
//! `ansor-client --addr <addr> shutdown`. Parses every flag itself with
//! the harnesses' helpers (`ansor_bench`, which also installs the
//! allocation counter used by the live `/metrics` endpoint). An unknown
//! flag is a usage error.

use ansor::hw::FaultPlan;
use ansor_bench::{flag_value, parse_flag, start_telemetry, usage_error};
use ansor_serve::{ServeConfig, Server};

fn print_help() {
    println!(
        "ansor-serve — tuning-as-a-service daemon (protocol: docs/SERVING.md)\n\
         \n\
         \x20  --addr ADDR          listen address (default 127.0.0.1:4815; :0 = ephemeral)\n\
         \x20  --workers N          concurrent tuning sessions (default 2)\n\
         \x20  --queue-cap N        bounded job-queue capacity (default 64)\n\
         \x20  --store PATH         persistent warm store (default: in-memory only)\n\
         \x20  --store-budget N     warm-store byte budget; LRU classes evicted beyond it\n\
         \x20  --trace-dir DIR      per-job provenance traces (<DIR>/<job>.trace.jsonl),\n\
         \x20                       retrievable via `ansor-client trace`\n\
         \x20  --journal PATH       append-only job journal (default: journal.jsonl next\n\
         \x20                       to --store; in-memory servers keep no journal)\n\
         \x20  --faults SPEC        deterministic measurement faults (docs/ROBUSTNESS.md)\n\
         \x20  --metrics-addr ADDR  live /metrics /status /healthz (docs/OPERATIONS.md)\n\
         \x20  --trace PATH         structured JSONL tuning trace (docs/TELEMETRY.md)\n\
         \n\
         submit jobs with `ansor-client`; `ansor-client shutdown` stops the daemon"
    );
}

/// Parses the command line into the daemon's settings, telemetry
/// included, and installs the `--faults` plan for every measurer. Returns
/// the `--trace` path too, for the closing message.
fn parse() -> (ServeConfig, Option<String>) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:4815".into(),
        ..ServeConfig::default()
    };
    let (mut trace, mut metrics_addr) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || flag_value(&a, it.next());
        match a.as_str() {
            "--addr" => cfg.addr = val(),
            "--workers" => cfg.workers = parse_flag(&a, &val()),
            "--queue-cap" => cfg.queue_cap = parse_flag(&a, &val()),
            "--store" => cfg.store_path = Some(val()),
            "--store-budget" => cfg.store_budget = Some(parse_flag(&a, &val())),
            "--trace-dir" => cfg.trace_dir = Some(val()),
            "--journal" => cfg.journal_path = Some(val()),
            "--faults" => cfg.faults = val(),
            "--metrics-addr" => metrics_addr = Some(val()),
            "--trace" => trace = Some(val()),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => usage_error(format_args!("unknown flag {other:?}")),
        }
    }
    let plan = FaultPlan::parse(&cfg.faults)
        .unwrap_or_else(|e| usage_error(format_args!("--faults: {e}")));
    ansor::hw::set_default_plan((!plan.is_inert()).then_some(plan));
    cfg.telemetry = start_telemetry(trace.as_deref(), metrics_addr.as_deref());
    (cfg, trace)
}

fn main() {
    let (cfg, trace) = parse();
    let telemetry = cfg.telemetry.clone();
    let (workers, queue_cap) = (cfg.workers, cfg.queue_cap);
    let store = cfg.store_path.clone();
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!(
        "ansor-serve listening on {} ({} workers, queue cap {}, store: {})",
        server.local_addr(),
        workers,
        queue_cap,
        store.as_deref().unwrap_or("in-memory")
    );
    server.wait();
    telemetry.flush();
    if let Some(path) = &trace {
        println!("(wrote trace to {path}; inspect with `trace-report {path}`)");
    }
    println!("ansor-serve: drained and stopped");
}
