//! `ansor-client`: command-line client for the `ansor-serve` daemon.
//!
//! ```text
//! ansor-client --addr 127.0.0.1:4815 submit --op GMM --shape 0 --batch 1 \
//!              --target intel --trials 200 --seed 0 [--warm-start] [--wait]
//! ansor-client --addr 127.0.0.1:4815 status job-1
//! ansor-client --addr 127.0.0.1:4815 wait job-1
//! ansor-client --addr 127.0.0.1:4815 trace job-1 --trace-out job-1.trace.jsonl
//! ansor-client --addr 127.0.0.1:4815 stats
//! ansor-client --addr 127.0.0.1:4815 shutdown [--no-drain]
//! ```
//!
//! Prints one JSON object per response on stdout (scriptable; CI's
//! serve-smoke job parses it) and exits non-zero on any server-reported
//! error.

use ansor_bench::{flag_value, parse_flag};
use ansor_serve::proto::encode;
use ansor_serve::{Client, JobSpec};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Pulls a finished job's trace and writes it to `path`, reporting the
/// destination as JSON on stdout like every other subcommand.
fn write_trace(client: &mut Client, job: &str, path: &str) {
    let trace = client.trace(job).unwrap_or_else(|e| die(&e));
    std::fs::write(path, &trace).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    println!(
        "{{\"job\": {job:?}, \"trace\": {path:?}, \"bytes\": {}}}",
        trace.len()
    );
}

/// Prints the usage and exits: on stdout with status 0 when asked for
/// (`--help`), on stderr with status 2 when the command line has no
/// subcommand.
fn usage(asked: bool) -> ! {
    let text = "ansor-client — talk to an ansor-serve daemon (protocol: docs/SERVING.md)\n\
         \n\
         \x20  ansor-client [--addr ADDR] submit --op OP [--shape N] [--batch N]\n\
         \x20               [--target T] [--trials N] [--seed N] [--warm-start] [--wait]\n\
         \x20               [--faults SPEC] [--trace-out PATH]\n\
         \x20  ansor-client [--addr ADDR] status|result|wait|cancel JOB\n\
         \x20  ansor-client [--addr ADDR] trace JOB [--trace-out PATH]\n\
         \x20  ansor-client [--addr ADDR] stats\n\
         \x20  ansor-client [--addr ADDR] shutdown [--no-drain]\n\
         \n\
         default ADDR: 127.0.0.1:4815; responses print as JSON, one per line";
    if asked {
        println!("{text}");
        std::process::exit(0);
    }
    eprintln!("{text}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:4815".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = flag_value(&a, it.next()),
            "--help" | "-h" => usage(true),
            _ => {
                rest.push(a);
                rest.extend(it);
                break;
            }
        }
    }
    let Some(cmd) = rest.first().cloned() else {
        usage(false);
    };
    let opts = &rest[1..];
    let mut client = Client::connect(&addr).unwrap_or_else(|e| die(&e));

    let job_arg = || -> String {
        opts.first()
            .cloned()
            .unwrap_or_else(|| die(&format!("{cmd} requires a job id")))
    };
    match cmd.as_str() {
        "submit" => {
            let mut spec = JobSpec {
                op: String::new(),
                shape: 0,
                batch: 1,
                target: "intel".into(),
                trials: 200,
                seed: 0,
                warm_start: None,
                threads: None,
                faults: None,
                prerank_keep: None,
                transfer: None,
            };
            let mut wait = false;
            let mut trace_out: Option<String> = None;
            let mut it = opts.iter();
            while let Some(a) = it.next() {
                let mut val = || flag_value(a, it.next().cloned());
                match a.as_str() {
                    "--op" => spec.op = val(),
                    "--shape" => spec.shape = parse_flag(a, &val()),
                    "--batch" => spec.batch = parse_flag(a, &val()),
                    "--target" => spec.target = val(),
                    "--trials" => spec.trials = parse_flag(a, &val()),
                    "--seed" => spec.seed = parse_flag(a, &val()),
                    "--warm-start" => spec.warm_start = Some(true),
                    "--faults" => spec.faults = Some(val()),
                    "--wait" => wait = true,
                    "--trace-out" => trace_out = Some(val()),
                    other => die(&format!("unknown submit flag {other:?}")),
                }
            }
            if spec.op.is_empty() {
                die("submit requires --op (see `ansor-tune --list`)");
            }
            if trace_out.is_some() && !wait {
                die("--trace-out requires --wait (the trace exists once the job finishes)");
            }
            let job = client.submit(spec).unwrap_or_else(|e| die(&e));
            println!("{{\"job\": {job:?}}}");
            if wait {
                let result = client.wait(&job).unwrap_or_else(|e| die(&e));
                println!("{}", encode(&result));
                if let Some(path) = trace_out {
                    write_trace(&mut client, &job, &path);
                }
            }
        }
        "status" => {
            let status = client.status(&job_arg()).unwrap_or_else(|e| die(&e));
            println!("{}", encode(&status));
        }
        "result" => {
            let result = client.result(&job_arg()).unwrap_or_else(|e| die(&e));
            println!("{}", encode(&result));
        }
        "wait" => {
            let result = client.wait(&job_arg()).unwrap_or_else(|e| die(&e));
            println!("{}", encode(&result));
        }
        "cancel" => {
            client.cancel(&job_arg()).unwrap_or_else(|e| die(&e));
            println!("{{\"cancelled\": {:?}}}", job_arg());
        }
        "trace" => {
            let job = job_arg();
            match opts.get(1).map(String::as_str) {
                Some(flag @ "--trace-out") => {
                    let path = flag_value(flag, opts.get(2).cloned());
                    write_trace(&mut client, &job, &path);
                }
                // No output path: the raw trace JSONL goes to stdout.
                None => print!("{}", client.trace(&job).unwrap_or_else(|e| die(&e))),
                Some(other) => die(&format!("unknown trace flag {other:?}")),
            }
        }
        "stats" => {
            let stats = client.stats().unwrap_or_else(|e| die(&e));
            println!("{}", encode(&stats));
        }
        "shutdown" => {
            let drain = !opts.iter().any(|f| f == "--no-drain");
            client.shutdown(drain).unwrap_or_else(|e| die(&e));
            println!(
                "{{\"shutdown\": {}}}",
                if drain { "\"drain\"" } else { "\"now\"" }
            );
        }
        _ => usage(false),
    }
}
