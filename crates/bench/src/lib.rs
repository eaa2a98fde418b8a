//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures (see DESIGN.md's per-experiment index).
//!
//! Every binary accepts:
//!
//! - `--smoke`  — CI-speed run (tiny budgets, subset of cases);
//! - `--full`   — paper-scale budgets (1000 trials per test case);
//! - `--json <path>` — also write the run's record as JSON (the figure
//!   binaries' records are committed as `results/<bin>.json` and
//!   `results/smoke/<bin>.json`, see `tests/figure_goldens.rs`);
//! - `--trace <path>` — write a structured JSONL tuning trace (see
//!   docs/TELEMETRY.md; inspect with `trace-report <path>`);
//! - `--quiet` — suppress the human-readable tables when `--json` or
//!   `--trace` already captures the results;
//! - `--faults <spec>` — deterministic measurement-fault injection
//!   (`none`, `default`, or `key=value,…`; see docs/ROBUSTNESS.md);
//! - `--metrics-addr <addr>` — serve live `/metrics`, `/status`, and
//!   `/healthz` endpoints on `addr` for the duration of the run (see
//!   docs/OPERATIONS.md; watch with `ansor-top <addr>`).
//!
//! `--help` prints them and exits 0; any other flag is a usage error.
//!
//! Default budgets are scaled down from the paper's (documented per
//! binary and in EXPERIMENTS.md, whose figure tables are the binaries'
//! default-scale output); no comparison is claimed at another scale.

#![warn(missing_docs)]

pub mod serve_report;

use serde::Serialize;

/// Count allocations in every bench binary so the live exporter (and
/// `docs/OPERATIONS.md` walkthroughs) can report `alloc/*` gauges. The
/// bookkeeping is three relaxed atomics per alloc/free — noise next to
/// the system allocator itself.
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

/// Budget scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-speed.
    Smoke,
    /// Reduced default.
    Default,
    /// Paper-scale.
    Full,
}

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected budget scale.
    pub scale: Scale,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional JSONL tuning-trace output path (`--trace`).
    pub trace: Option<String>,
    /// Suppress tables when another output captures the results (`--quiet`).
    pub quiet: bool,
    /// Fault-injection spec (`--faults <spec>`; `None` = fault-free).
    pub faults: Option<hwsim::FaultPlan>,
    /// The raw `--faults` spec string (`"none"` when absent). Consumers
    /// that fingerprint runs (`ansor-serve` checkpoints and warm-store
    /// class keys) need the canonical string, not just the parsed plan.
    pub faults_spec: String,
    /// Live metrics endpoint address (`--metrics-addr <addr>`; `None` =
    /// no exporter, zero extra threads).
    pub metrics_addr: Option<String>,
}

impl Args {
    /// Parses `std::env::args` (see [`Args::parse_from`]) and installs the
    /// `--faults` plan as the default for all measurers — including those
    /// the baseline frameworks create internally. The plan is `None`
    /// (fault-free, bit-identical to older builds) unless `--faults` is
    /// given. The `--json` file is created here, so a path that cannot be
    /// written ends the process with status 1 before any tuning, as a bad
    /// `--trace` path does.
    pub fn parse() -> Args {
        end_quietly_on_closed_stdout();
        let args = Args::parse_from(std::env::args().skip(1));
        if let Some(path) = &args.json {
            if let Err(e) = std::fs::File::create(path) {
                run_error(format_args!("--json {path}: {e}"));
            }
        }
        hwsim::set_default_plan(args.faults.clone());
        args
    }

    /// Parses an explicit argument list (testable form of [`Args::parse`];
    /// installs no fault plan). `--help` prints the flags on stdout and
    /// exits 0. An unknown flag, a flag that takes a value
    /// and is given none ([`flag_value`]), or a `--faults` value that does
    /// not parse is a usage error: a message naming the flag on stderr and
    /// exit status 2, never a silent run at the defaults.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut scale = Scale::Default;
        let mut json = None;
        let mut trace = None;
        let mut quiet = false;
        let mut faults = None;
        let mut faults_spec = "none".to_string();
        let mut metrics_addr = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let mut val = || flag_value(&a, it.next());
            match a.as_str() {
                "--smoke" => scale = Scale::Smoke,
                "--full" => scale = Scale::Full,
                "--json" => json = Some(val()),
                "--trace" => trace = Some(val()),
                "--quiet" => quiet = true,
                "--faults" => {
                    let spec = val();
                    match hwsim::FaultPlan::parse(&spec) {
                        Ok(plan) => {
                            faults = (!plan.is_inert()).then_some(plan);
                            faults_spec = spec;
                        }
                        Err(e) => usage_error(format_args!("--faults: {e}")),
                    }
                }
                "--metrics-addr" => metrics_addr = Some(val()),
                "--help" | "-h" => {
                    let bin = std::env::args().next().unwrap_or_default();
                    let bin = bin.rsplit('/').next().unwrap_or("");
                    println!(
                        "usage: {bin} [--smoke | --full] [--json <path>] [--trace <path>] \
                         [--quiet] [--faults <spec>] [--metrics-addr <addr>]"
                    );
                    std::process::exit(0);
                }
                other => usage_error(format_args!("unknown flag {other:?}")),
            }
        }
        Args {
            scale,
            json,
            trace,
            quiet,
            faults,
            faults_spec,
            metrics_addr,
        }
    }

    /// Picks a budget, or a claim's threshold, by scale.
    pub fn pick<T>(&self, smoke: T, default: T, full: T) -> T {
        match self.scale {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
        }
    }

    /// Builds the telemetry handle for this run ([`start_telemetry`]).
    pub fn telemetry(&self) -> telemetry::Telemetry {
        start_telemetry(self.trace.as_deref(), self.metrics_addr.as_deref())
    }

    /// Flushes the trace sink (emits the final `PhaseProfile` snapshot) and
    /// tells the user where the trace went. Call once at the end of a run.
    pub fn finish_telemetry(&self, telemetry: &telemetry::Telemetry) {
        telemetry.flush();
        if let Some(path) = &self.trace {
            println!("(wrote trace to {path}; inspect with `trace-report {path}`)");
        }
    }

    /// Whether the human-readable tables should print. `--quiet` only takes
    /// effect when `--json` or `--trace` already captures the results.
    pub fn tables_enabled(&self) -> bool {
        !(self.quiet && (self.json.is_some() || self.trace.is_some()))
    }
}

/// Reports what ends a run early (an output it cannot write, a claim that
/// fails) and exits with status 1.
fn run_error(message: std::fmt::Arguments) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// Reports a command-line usage error and exits with status 2.
pub fn usage_error(message: std::fmt::Arguments) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The value of command-line flag `flag`, given the argument after it. None,
/// or another flag (`--json --strict`), is a usage error: `--flag: missing
/// value` on stderr, exit status 2.
pub fn flag_value(flag: &str, next: Option<String>) -> String {
    match next {
        Some(value) if !value.starts_with("--") => value,
        _ => usage_error(format_args!("{flag}: missing value")),
    }
}

/// Parses the value of numeric command-line flag `flag`. A value that does
/// not parse is a usage error — `--flag: invalid value "…"` on stderr, exit
/// status 2 — never a silent fall-back to the default (`--trials 1O0` must
/// not run 200 trials).
pub fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}: invalid value {value:?}")))
}

/// Builds a run's telemetry handle, for the harnesses and `ansor-tune`: a
/// JSONL trace sink for `trace`; metrics-only when just `metrics_addr`
/// asks for a live endpoint; else a disabled handle (zero overhead). With
/// `metrics_addr` it also starts the background exporter, detached so it
/// serves until the process exits. A trace file that cannot be created or
/// an address that cannot be bound ends the process with status 1.
pub fn start_telemetry(trace: Option<&str>, metrics_addr: Option<&str>) -> telemetry::Telemetry {
    let tel = match trace {
        Some(path) => telemetry::Telemetry::to_file(std::path::Path::new(path))
            .unwrap_or_else(|e| run_error(format_args!("--trace {path}: {e}"))),
        None if metrics_addr.is_some() => telemetry::Telemetry::with_metrics(),
        None => telemetry::Telemetry::disabled(),
    };
    if let Some(addr) = metrics_addr {
        match telemetry::export::serve(&tel, addr, telemetry::export::ExportOptions::default()) {
            Ok(exporter) => {
                eprintln!(
                    "(live metrics on http://{}/ — /metrics /status /healthz; \
                     watch with `ansor-top {}`)",
                    exporter.local_addr(),
                    exporter.local_addr()
                );
                exporter.detach();
            }
            Err(e) => run_error(format_args!("--metrics-addr {addr}: {e}")),
        }
    }
    tel
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-30).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median: the upper middle element for an even count. Panics on an empty
/// input or a NaN.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Normalizes values so the maximum becomes 1.0.
pub fn normalize_to_best(values: &[f64]) -> Vec<f64> {
    let best = values.iter().copied().fold(f64::MIN, f64::max);
    if best <= 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| v / best).collect()
}

/// Makes a closed stdout end the process with status 0 and no message,
/// as `… | head` expects. `println!` panics when its reader has gone away
/// (Rust ignores `SIGPIPE`); the hook installed here exits on that panic
/// alone and hands every other one to the previous hook. [`Args::parse`]
/// installs it for every figure binary; a binary that parses its own flags
/// calls it first.
pub fn end_quietly_on_closed_stdout() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload_as_str().unwrap_or("");
        if message.starts_with("failed printing to stdout") && message.contains("Broken pipe") {
            std::process::exit(0);
        }
        previous(info)
    }));
}

/// Prints a Markdown pipe table under a title line, its columns padded
/// so it reads in a terminal too. EXPERIMENTS.md pastes the figure
/// binaries' tables verbatim, and CI's `bench-smoke` holds it to them.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    println!("\n{title}\n");
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    println!("|{}|", rule.join("|"));
    for row in rows {
        line(row);
    }
}

/// A Unicode block sparkline of a series, one glyph per value, scaled
/// from its minimum to its maximum.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Dumps a serializable result to JSON if requested.
pub fn maybe_dump_json<T: Serialize>(args: &Args, value: &T) {
    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(value).expect("serializable results");
        std::fs::write(path, json)
            .unwrap_or_else(|e| run_error(format_args!("--json {path}: {e}")));
        println!("(wrote {path})");
    }
}

/// One of the paper's claims, checked against numbers of a figure's
/// record: the claim, the paper's value, the value reproduced here, and the
/// threshold it must reach (`≥`) or stay under (`<`). Where the
/// default-scale record falls short of the paper, the threshold is that
/// record's number and the text names the Known deviation (EXPERIMENTS.md).
#[derive(Debug)]
pub struct Claim {
    text: String,
    paper: String,
    value: f64,
    threshold: f64,
    at_least: bool,
}

impl Claim {
    /// A claim that holds when `value >= threshold`.
    pub fn at_least(text: impl Into<String>, paper: &str, value: f64, threshold: f64) -> Claim {
        let (text, paper) = (text.into(), paper.into());
        Claim {
            text,
            paper,
            value,
            threshold,
            at_least: true,
        }
    }

    /// A claim that holds when `value < threshold`.
    pub fn below(text: impl Into<String>, paper: &str, value: f64, threshold: f64) -> Claim {
        let mut claim = Claim::at_least(text, paper, value, threshold);
        claim.at_least = false;
        claim
    }

    /// Whether the reproduced value meets the threshold (a NaN never does).
    pub fn holds(&self) -> bool {
        if self.at_least {
            self.value >= self.threshold
        } else {
            self.value < self.threshold
        }
    }

    /// `claim: <text>: paper …, reproduced …, threshold … — holds | FAILS`.
    pub fn line(&self) -> String {
        let num = |x: f64| {
            let s = format!("{x:.3}");
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        };
        let (text, paper, value) = (&self.text, &self.paper, num(self.value));
        let op = if self.at_least { "≥" } else { "<" };
        let threshold = format!("{op} {}", num(self.threshold));
        let verdict = if self.holds() { "holds" } else { "FAILS" };
        format!(
            "claim: {text}: paper {paper}, reproduced {value}, threshold {threshold} — {verdict}"
        )
    }
}

/// Prints one line per claim, and exits with status 1 if one fails. A
/// figure binary calls it last, once its record is written.
pub fn check_claims(claims: &[Claim]) {
    println!();
    claims.iter().for_each(|claim| println!("{}", claim.line()));
    let failed = claims.iter().filter(|claim| !claim.holds()).count();
    if failed > 0 {
        run_error(format_args!("{failed} of {} claims fail", claims.len()));
    }
}

/// Formats seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    if !s.is_finite() {
        "inf".into()
    } else if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![5.0]), 5.0);
    }

    #[test]
    fn normalize_puts_best_at_one() {
        let n = normalize_to_best(&[1.0, 2.0, 4.0]);
        assert_eq!(n, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn sparkline_spans_min_to_max() {
        assert_eq!(sparkline(&[3.0, 1.0, 2.0]), "█▁▅");
        assert_eq!(sparkline(&[7.0, 7.0]), "▅▅");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn fmt_units() {
        assert!(fmt_seconds(2.0).ends_with(" s"));
        assert!(fmt_seconds(2e-3).ends_with(" ms"));
        assert!(fmt_seconds(2e-6).ends_with(" us"));
    }

    #[test]
    fn a_claim_line_ends_with_its_verdict() {
        let held = Claim::at_least(
            "cases Ansor wins (Known deviation 2)",
            "19 of 20",
            15.0,
            15.0,
        );
        assert!(held.holds());
        assert_eq!(
            held.line(),
            "claim: cases Ansor wins (Known deviation 2): paper 19 of 20, reproduced 15, \
             threshold ≥ 15 — holds"
        );
        let failed = Claim::below("best variant ÷ Ansor", "< 1", 1.07, 1.0);
        assert!(!failed.holds());
        assert_eq!(
            failed.line(),
            "claim: best variant ÷ Ansor: paper < 1, reproduced 1.07, threshold < 1 — FAILS"
        );
        assert!(!Claim::at_least("NaN", "1", f64::NAN, 0.0).holds());
    }

    fn args(list: &[&str]) -> Args {
        Args::parse_from(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn trace_and_quiet_flags_parse() {
        let a = args(&["--smoke", "--trace", "out.jsonl", "--quiet"]);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.trace.as_deref(), Some("out.jsonl"));
        assert!(a.quiet);
    }

    #[test]
    fn quiet_only_suppresses_tables_with_a_capture_output() {
        assert!(
            args(&["--quiet"]).tables_enabled(),
            "no capture: keep tables"
        );
        assert!(!args(&["--quiet", "--trace", "t.jsonl"]).tables_enabled());
        assert!(!args(&["--quiet", "--json", "t.json"]).tables_enabled());
        assert!(args(&["--trace", "t.jsonl"]).tables_enabled(), "not quiet");
    }

    #[test]
    fn faults_flag_parses() {
        assert_eq!(args(&[]).faults, None);
        assert_eq!(args(&[]).faults_spec, "none");
        assert_eq!(args(&["--faults", "none"]).faults, None, "inert → None");
        let a = args(&["--faults", "default"]);
        assert_eq!(a.faults, Some(hwsim::FaultPlan::default()));
        assert_eq!(a.faults_spec, "default");
        let b = args(&["--faults", "transient=0.2,seed=9"]);
        assert_eq!(b.faults.as_ref().map(|p| p.seed), Some(9));
        assert_eq!(b.faults_spec, "transient=0.2,seed=9");
    }

    #[test]
    fn no_trace_means_disabled_telemetry() {
        let tel = args(&[]).telemetry();
        assert!(!tel.is_enabled());
        assert!(!tel.is_tracing());
    }

    #[test]
    fn metrics_addr_flag_parses_and_enables_metrics() {
        let a = args(&["--metrics-addr", "127.0.0.1:0"]);
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        // Port 0 binds an ephemeral port, so telemetry() is safe to call.
        let tel = a.telemetry();
        assert!(tel.is_enabled(), "metrics-only handle");
        assert!(!tel.is_tracing(), "no trace sink without --trace");
    }
}
