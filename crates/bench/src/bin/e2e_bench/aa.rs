//! `--aa K`: the A/A self-check. Runs every workload `K` times twice over
//! (two sets of runs of the same code, alternating, seed `--seed + i` for
//! the `i`-th run of either set), each run a fresh process exactly as the
//! acceptance harness launches it, and reports per end-to-end metric the
//! two medians, their difference in the metric's worse direction, each
//! set's spread (interquartile range over median, across seeds) and the
//! bound. A metric passes when both spreads stay within its bound (the
//! rule that accepts the benchmark) and the difference within *half* of it
//! — exactly zero for the quality metrics, which are exact for fixed code
//! and seeds. A spread above a third of the bound is flagged as a thin
//! margin.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value as Json;

use crate::metrics::{Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

/// Metrics that two runs of the same code and seed must agree on to the
/// last bit.
const EXACT: [&str; 2] = ["mean_best_gflops", "best_gflops_geomean"];

/// One `--trace 0` run of `workload` in a child process: its metrics by
/// name, or what went wrong.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("child exited with {}: {last}", out.status));
    }
    let doc: Json = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    let Json::Object(doc) = doc else {
        return Err("result line is not an object".into());
    };
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let mut values = BTreeMap::new();
    for (name, m) in metrics.iter() {
        let Json::Object(m) = m else { continue };
        if let Some(Json::Number(n)) = m.get("value") {
            values.insert(name.clone(), n.as_f64());
        }
    }
    Ok(values)
}

/// Runs the self-check over `workloads`; prints a table per workload and
/// one JSON document at the end. Returns the process exit code: 0 when
/// every metric of every workload passed.
pub fn run(workloads: &[&Workload], k: usize, first_seed: u64, seconds: f64) -> i32 {
    let mut all_ok = true;
    let mut doc = Vec::new();
    for w in workloads {
        // sets[set][metric] = values over seeds
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for seed in (0..k as u64).map(|i| first_seed.wrapping_add(i)) {
            for set in &mut sets {
                match child_run(w.name, seed, seconds) {
                    Ok(values) => {
                        for (name, v) in values {
                            set.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{} seed {seed}: {e}", w.name);
                        all_ok = false;
                    }
                }
            }
        }
        println!(
            "{:<22} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}",
            w.name, "median A", "median B", "B worse", "spread A", "spread B", "bound"
        );
        let mut rows = Vec::new();
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(def.name), sets[1].get(def.name)) else {
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(a), median(b));
            // Positive when set B is worse than set A.
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (iqr_share(a), iqr_share(b));
            let shift_ok = if EXACT.contains(&def.name) {
                worse == 0.0
            } else {
                worse <= def.bound / 2.0
            };
            let ok = a.len() == k && b.len() == k && shift_ok && sa <= def.bound && sb <= def.bound;
            let thin = sa.max(sb) > def.bound / 3.0;
            all_ok &= ok;
            println!(
                "  {:<20} {:>14.6} {:>14.6} {:>7.2}% {:>8.2}% {:>8.2}% {:>6.1}%{}",
                def.name,
                ma,
                mb,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                def.bound * 100.0,
                match (ok, thin) {
                    (false, _) => "  <-- outside",
                    (true, true) => "  (spread above a third of the bound)",
                    (true, false) => "",
                }
            );
            rows.push(format!(
                "    \"{}\": {{\"median_a\": {ma}, \"median_b\": {mb}, \"b_worse_by\": {worse}, \
                 \"spread_a\": {sa}, \"spread_b\": {sb}, \"bound\": {}, \"ok\": {ok}, \
                 \"spread_within_third_of_bound\": {}, \
                 \"a\": {a:?}, \"b\": {b:?}}}",
                def.name, def.bound, !thin
            ));
        }
        doc.push(format!("  \"{}\": {{\n{}\n  }}", w.name, rows.join(",\n")));
    }
    println!(
        "{{\n\"runs_per_set\": {k},\n\"first_seed\": {first_seed},\n\"seconds\": {seconds},\n\"ok\": {all_ok},\n\"workloads\": {{\n{}\n}}\n}}",
        doc.join(",\n")
    );
    if all_ok {
        0
    } else {
        1
    }
}
