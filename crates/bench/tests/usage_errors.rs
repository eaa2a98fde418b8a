//! The flags every experiment binary shares (`ansor_bench::Args`) are
//! strict: an unknown flag, a flag given without its value, or a
//! `--faults` spec that does not parse is a usage error — exit status 2
//! and a message naming the flag, before any tuning starts — not a silent
//! run at the defaults. Asking for help is not one: `--help` prints the
//! usage on stdout and exits 0.

use std::path::Path;
use std::process::Command;

#[test]
fn mistyped_shared_flags_are_usage_errors() {
    for (args, message) in [
        (
            &["--smoke", "--threads", "4"][..],
            "unknown flag \"--threads\"",
        ),
        (&["--smoke", "--json"][..], "--json: missing value"),
        (&["--smoke", "--faults", "often"][..], "--faults:"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig6_single_op"))
            .args(args)
            .output()
            .expect("fig6_single_op runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no table may print");
    }
}

/// A `--json` record that cannot be created ends the run at its start, as a
/// `--trace` file that cannot be does: exit status 1 and the flag named,
/// before anything is tuned or printed.
#[test]
fn an_unwritable_json_path_fails_before_the_run() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/record.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig3_incomplete"))
        .args(["--smoke", "--json"])
        .arg(&path)
        .output()
        .expect("fig3_incomplete runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with(&format!("error: --json {}: ", path.display())),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run: {:?}", out.stdout);
}

/// `trace-report` and `ansor-top` parse their own flags, to the same rule.
#[test]
fn mistyped_report_and_top_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("ansor-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &[&str], &str); 8] = [
        (
            env!("CARGO_BIN_EXE_trace-report"),
            &["t.jsonl", "--json", "--strict"],
            "--json: missing value",
        ),
        (
            env!("CARGO_BIN_EXE_trace-report"),
            &["t.jsonl", "--events"],
            "--events: missing value",
        ),
        (
            env!("CARGO_BIN_EXE_trace-report"),
            &["t.jsonl", "--stirct"],
            "unrecognized argument \"--stirct\"",
        ),
        (
            env!("CARGO_BIN_EXE_ansor-top"),
            &["--interval", "x"],
            "--interval: invalid value \"x\"",
        ),
        (
            env!("CARGO_BIN_EXE_ansor-top"),
            &["--interval", "inf"],
            "--interval: invalid value \"inf\"",
        ),
        (
            env!("CARGO_BIN_EXE_ansor-top"),
            &["--frames", "x", "--once"],
            "--frames: invalid value \"x\"",
        ),
        (
            env!("CARGO_BIN_EXE_ansor-top"),
            &["--check"],
            "--check: missing value",
        ),
        (
            env!("CARGO_BIN_EXE_ansor-top"),
            &["--intervall", "5"],
            "unknown flag \"--intervall\"",
        ),
    ];
    for (bin, args, message) in cases {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    // `--json --strict` took no file name for `--strict`.
    assert!(!dir.join("--strict").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every binary of the crate that parses flags — the figure harnesses
/// through `ansor_bench::Args`, `trace-report` and `ansor-top` — answers
/// `--help` with its usage on stdout and status 0, and runs nothing.
#[test]
fn help_prints_the_usage_and_exits_0() {
    let bins = [
        env!("CARGO_BIN_EXE_ablation_extras"),
        env!("CARGO_BIN_EXE_fig3_incomplete"),
        env!("CARGO_BIN_EXE_fig6_single_op"),
        env!("CARGO_BIN_EXE_fig7_ablation"),
        env!("CARGO_BIN_EXE_fig8_subgraph"),
        env!("CARGO_BIN_EXE_fig9_networks"),
        env!("CARGO_BIN_EXE_fig10_scheduler"),
        env!("CARGO_BIN_EXE_sensitivity"),
        env!("CARGO_BIN_EXE_table2_objectives"),
        env!("CARGO_BIN_EXE_trace-report"),
        env!("CARGO_BIN_EXE_ansor-top"),
    ];
    for bin in bins {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin)
                .arg(flag)
                .output()
                .expect("the binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}: {stderr}");
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
            assert!(stdout.lines().count() <= 3, "{bin} {flag} ran: {stdout}");
            assert!(stderr.is_empty(), "{bin} {flag}: {stderr}");
        }
    }
}

/// Output piped into a reader that has gone away (`trace-report t.jsonl |
/// head -1`) ends the run with status 0 and no panic message: the pipe's
/// read end is closed before the binary starts, so its first line already
/// finds no reader.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fig7_ablation"))
        .args(["--smoke", "--quiet", "--trace"])
        .arg(&trace)
        .output()
        .expect("fig7_ablation runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let runs: [(&str, Vec<&std::ffi::OsStr>); 2] = [
        (
            env!("CARGO_BIN_EXE_trace-report"),
            vec![trace.as_os_str(), "--explain".as_ref()],
        ),
        (
            env!("CARGO_BIN_EXE_fig3_incomplete"),
            vec!["--smoke".as_ref()],
        ),
    ];
    for (bin, args) in runs {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(&args)
            .stdout(writer)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
