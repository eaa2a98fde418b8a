//! The flags of the `ansor-*` binaries are strict: a numeric value that
//! does not parse is a usage error (exit status 2, `--flag: invalid value
//! "…"` on stderr), not a silent fall-back to the default — `--trials 1O0`
//! must not tune for 200 trials — and so is a flag the binary does not
//! know (`unknown flag "…"`), not a silent run without it.

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
}

#[test]
fn ansor_serve_rejects_a_mistyped_number() {
    let bin = env!("CARGO_BIN_EXE_ansor-serve");
    assert_rejects(bin, &["--addr", "127.0.0.1:0", "--workers", "2x"]);
    // What the daemon does not take for itself goes to `ansor_bench::Args`,
    // shared with the experiment harnesses, which refuses what it does not
    // know.
    assert_usage_error(
        bin,
        &["--addr", "127.0.0.1:0", "--threads", "2"],
        "unknown flag \"--threads\"",
    );
}

#[test]
fn ansor_client_rejects_a_mistyped_number() {
    // The client connects before it reads the subcommand's flags; a bare
    // listener is all the daemon this test needs.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    assert_rejects(
        env!("CARGO_BIN_EXE_ansor-client"),
        &["--addr", &addr, "submit", "--op", "GMM", "--trials", "1O0"],
    );
}
