//! The flags of the `ansor-*` binaries are strict: a numeric value that
//! does not parse is a usage error (exit status 2, `--flag: invalid value
//! "…"` on stderr), not a silent fall-back to the default — `--trials 1O0`
//! must not tune for 200 trials — and so is a flag the binary does not
//! know (`unknown flag "…"`), not a silent run without it, and a flag
//! given no value (`--flag: missing value`), refused before any work
//! starts rather than read as an empty value or as the next flag. Asking
//! for help is not a usage error: `--help` prints the usage on stdout and
//! exits 0.

use std::process::Command;

/// Runs `bin` with `args`, which it must refuse with exit status 2 and
/// `message` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
}

/// Runs `bin` with `args`, whose last two are a numeric flag and a value
/// it must reject.
fn assert_rejects(bin: &str, args: &[&str]) {
    let [.., flag, value] = args else {
        panic!("need a flag and a value");
    };
    assert_usage_error(bin, args, &format!("{flag}: invalid value {value:?}"));
}

#[test]
fn ansor_tune_rejects_a_mistyped_number() {
    let bin = env!("CARGO_BIN_EXE_ansor-tune");
    assert_rejects(bin, &["--op", "GMM", "--trials", "1O0"]);
    // The removed thread-count flag is not quietly accepted.
    assert_usage_error(
        bin,
        &["--op", "GMM", "--threads", "2"],
        "unknown flag \"--threads\"",
    );
    // A value flag with nothing after it, or with another flag after it.
    assert_usage_error(
        bin,
        &["--op", "GMM", "--trials", "8", "--log"],
        "--log: missing value",
    );
    assert_usage_error(
        bin,
        &["--op", "GMM", "--log", "--trials", "8"],
        "--log: missing value",
    );
    // A network run writes no `--log`, so the flag is refused there.
    assert_usage_error(
        bin,
        &["--network", "dcgan", "--units", "1", "--log", "x.jsonl"],
        "--log: not supported with --network",
    );
}

#[test]
fn ansor_tune_reports_a_log_it_cannot_write() {
    let dir = std::env::temp_dir().join(format!("ansor-cli-no-such-dir-{}", std::process::id()));
    let log = dir.join("records.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ansor-tune"))
        .args(["--op", "GMM", "--trials", "8", "--log"])
        .arg(&log)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --log "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn ansor_serve_rejects_a_mistyped_number() {
    let bin = env!("CARGO_BIN_EXE_ansor-serve");
    assert_rejects(bin, &["--addr", "127.0.0.1:0", "--workers", "2x"]);
    assert_usage_error(
        bin,
        &["--addr", "127.0.0.1:0", "--threads", "2"],
        "unknown flag \"--threads\"",
    );
    assert_usage_error(
        bin,
        &["--store", "--journal", "journal.jsonl"],
        "--store: missing value",
    );
    // The experiment harnesses' scale and output flags mean nothing to the
    // daemon. The address cannot be bound, so a daemon that let one
    // through exits 1 instead of serving.
    for flags in ["--smoke", "--full", "--quiet", "--json x.json"] {
        let args: Vec<&str> = flags
            .split(' ')
            .chain(["--addr", "no-such-address"])
            .collect();
        assert_usage_error(bin, &args, &format!("unknown flag {:?}", args[0]));
    }
}

#[test]
fn ansor_client_rejects_a_mistyped_number() {
    // The client connects before it reads the subcommand's flags; a bare
    // listener is all the daemon this test needs.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let bin = env!("CARGO_BIN_EXE_ansor-client");
    assert_rejects(
        bin,
        &["--addr", &addr, "submit", "--op", "GMM", "--trials", "1O0"],
    );
    assert_usage_error(bin, &["--addr"], "--addr: missing value");
    assert_usage_error(
        bin,
        &["--addr", &addr, "submit", "--op", "GMM", "--trials"],
        "--trials: missing value",
    );
    assert_usage_error(
        bin,
        &["--addr", &addr, "trace", "job-1", "--trace-out"],
        "--trace-out: missing value",
    );
}

#[test]
fn every_ansor_binary_answers_help_with_its_usage_and_status_0() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_ansor-tune"), "ansor-tune"),
        (env!("CARGO_BIN_EXE_ansor-serve"), "ansor-serve"),
        (env!("CARGO_BIN_EXE_ansor-client"), "ansor-client"),
    ] {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().expect("binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}: {stderr}");
            assert!(stdout.contains(name), "{name} {flag}: {stdout}");
            assert!(stderr.is_empty(), "{name} {flag}: {stderr}");
        }
    }
    // Without a subcommand the client's usage is an error.
    let out = Command::new(env!("CARGO_BIN_EXE_ansor-client"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("ansor-client"));
}
