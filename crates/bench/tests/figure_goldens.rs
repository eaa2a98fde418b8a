//! Each paper-figure binary has one record: its own `--json` output,
//! committed at `--smoke` scale as `results/smoke/<bin>.json` (and at the
//! default scale as `results/<bin>.json`, which CI's `bench-smoke` job
//! compares). Every run is deterministic, so the record is compared byte
//! for byte. A deliberate change of a figure re-blesses its record with the
//! command a mismatch prints.
//!
//! Each binary also checks its paper claims (`ansor_bench::Claim`) and
//! exits 1 when one fails, so asserting a successful run asserts them. At
//! `--smoke` a claim's threshold is the smoke record's own number: several
//! of the paper's claims invert at this scale (fig8 has Ansor best on 2 of
//! 8 cases, and ablation_extras' random model beats the learned one), so a
//! smoke threshold is a tripwire against drift, not the paper's claim. The
//! default-scale thresholds, checked in CI's `bench-smoke`, are.
//!
//! The default fault plan (`--faults default`: transient failures and
//! timeouts, retried or quarantined) must not change what a figure reports:
//! fig6 and fig10 under it write the same bytes as without it.

use std::path::Path;
use std::process::Command;

const FIGURES: [(&str, &str); 9] = [
    ("fig3_incomplete", env!("CARGO_BIN_EXE_fig3_incomplete")),
    ("fig6_single_op", env!("CARGO_BIN_EXE_fig6_single_op")),
    ("fig7_ablation", env!("CARGO_BIN_EXE_fig7_ablation")),
    ("fig8_subgraph", env!("CARGO_BIN_EXE_fig8_subgraph")),
    ("fig9_networks", env!("CARGO_BIN_EXE_fig9_networks")),
    ("fig10_scheduler", env!("CARGO_BIN_EXE_fig10_scheduler")),
    ("table2_objectives", env!("CARGO_BIN_EXE_table2_objectives")),
    ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
    ("ablation_extras", env!("CARGO_BIN_EXE_ablation_extras")),
];

/// Runs `bin` at `--smoke` with `extra` flags and returns `None` if its
/// `--json` output equals the golden, else what differs and how to re-bless.
fn mismatch(bin: &str, exe: &str, extra: &[&str]) -> Option<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure_goldens");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join(format!("{bin}{}.json", extra.join("_")));
    let _ = std::fs::remove_file(&out_path);
    let flags = [&["--smoke"], extra].concat().join(" ");
    let out = Command::new(exe)
        .args(["--smoke", "--quiet", "--json"])
        .arg(&out_path)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    assert!(
        out.status.success(),
        "{bin} {flags} exited with {}: {}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&out_path).expect("the run wrote its record");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/smoke/{bin}.json"));
    let want = std::fs::read_to_string(golden).unwrap_or_default();
    if got == want {
        return None;
    }
    let line = (got.lines().zip(want.lines()))
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Some(format!(
        "{bin} {flags}: differs from results/smoke/{bin}.json at line {}:\n  \
         golden: {}\n  run:    {}\n  \
         re-bless: cargo run --release -p ansor-bench --bin {bin} -- \
         --smoke --json results/smoke/{bin}.json",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of file>")
    ))
}

#[test]
fn every_figure_reproduces_its_smoke_record() {
    let failures: Vec<String> = FIGURES
        .iter()
        .filter_map(|(bin, exe)| mismatch(bin, exe, &[]))
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn the_default_fault_plan_leaves_the_records_unchanged() {
    let failures: Vec<String> = FIGURES
        .iter()
        .filter(|(bin, _)| ["fig6_single_op", "fig10_scheduler"].contains(bin))
        .filter_map(|(bin, exe)| mismatch(bin, exe, &["--faults", "default"]))
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
