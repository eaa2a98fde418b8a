//! Numeric flags of the three `ansor-*` binaries are strict: a value that
//! does not parse is a usage error (exit status 2, `--flag: invalid value
//! "…"` on stderr), not a silent fall-back to the default — `--trials 1O0`
//! must not tune for 200 trials.

use std::process::Command;

/// Runs `bin` with `args`, whose last two are a numeric flag and a value
/// it must reject.
fn assert_rejects(bin: &str, args: &[&str]) {
    let [.., flag, value] = args else {
        panic!("need a flag and a value");
    };
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("{flag}: invalid value {value:?}")),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn ansor_tune_rejects_a_mistyped_number() {
    let bin = env!("CARGO_BIN_EXE_ansor-tune");
    assert_rejects(bin, &["--op", "GMM", "--trials", "1O0"]);
    assert_rejects(bin, &["--op", "GMM", "--threads", "two"]);
}

#[test]
fn ansor_serve_rejects_a_mistyped_number() {
    let bin = env!("CARGO_BIN_EXE_ansor-serve");
    assert_rejects(bin, &["--addr", "127.0.0.1:0", "--workers", "2x"]);
    // `--threads` is parsed by `ansor_bench::Args`, shared with the
    // experiment harnesses.
    assert_rejects(bin, &["--addr", "127.0.0.1:0", "--threads", "-1"]);
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
