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
//! `ansor-client --addr <addr> shutdown`. Shares the experiment
//! harnesses' flags (`--threads`, `--faults`, `--metrics-addr`,
//! `--trace`) via `ansor_bench::Args`, which also installs the allocation
//! counter used by the live `/metrics` endpoint.

use ansor::parse_flag;
use ansor_bench::Args;
use ansor_serve::{ServeConfig, Server};

/// The value following the daemon's own flag `name` on the command line.
fn flag_value(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

/// Numeric flag `name`, strictly parsed (`None` when absent).
fn numeric_flag<T: std::str::FromStr>(name: &str) -> Option<T> {
    flag_value(name).map(|v| parse_flag(name, &v))
}

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
         \x20  --threads N          parallel-runtime workers per session\n\
         \x20  --faults SPEC        deterministic measurement faults (docs/ROBUSTNESS.md)\n\
         \x20  --metrics-addr ADDR  live /metrics /status /healthz (docs/OPERATIONS.md)\n\
         \x20  --trace PATH         structured JSONL tuning trace (docs/TELEMETRY.md)\n\
         \n\
         submit jobs with `ansor-client`; `ansor-client shutdown` stops the daemon"
    );
}

fn main() {
    let args = Args::parse();
    if args.has_flag("--help") || args.has_flag("-h") {
        print_help();
        return;
    }
    let addr = flag_value("--addr").unwrap_or_else(|| "127.0.0.1:4815".into());
    let workers = numeric_flag("--workers").unwrap_or(2);
    let queue_cap = numeric_flag("--queue-cap").unwrap_or(64);
    let store_path = flag_value("--store");
    let store_budget = numeric_flag("--store-budget");
    let trace_dir = flag_value("--trace-dir");
    let journal_path = flag_value("--journal");

    let telemetry = args.telemetry();
    let server = Server::start(ServeConfig {
        addr,
        workers,
        queue_cap,
        store_path: store_path.clone(),
        faults: args.faults_spec.clone(),
        threads: args.threads.unwrap_or(0),
        store_budget,
        telemetry: telemetry.clone(),
        trace_dir,
        journal_path,
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!(
        "ansor-serve listening on {} ({} workers, queue cap {}, store: {})",
        server.local_addr(),
        workers,
        queue_cap,
        store_path.as_deref().unwrap_or("in-memory")
    );
    server.wait();
    args.finish_telemetry(&telemetry);
    println!("ansor-serve: drained and stopped");
}
