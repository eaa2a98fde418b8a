//! The flags every experiment binary shares (`ansor_bench::Args`) are
//! strict: an unknown flag, a flag given without its value, or a
//! `--faults` spec that does not parse is a usage error — exit status 2
//! and a message naming the flag, before any tuning starts — not a silent
//! run at the defaults.

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
