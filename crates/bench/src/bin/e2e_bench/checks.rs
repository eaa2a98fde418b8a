//! Correctness checks that ride along with every run, and the tally of
//! operations attempted and failed.

use std::collections::HashMap;

use ansor_core::{PolicyVariant, TuningSession};
use hwsim::Measurer;
use tensor_ir::{interp, lower, State};

use crate::workloads::{canary_task, policy_results, session_parts, Best, ROUND_TRIALS};

/// Jobs at most this large are executed in the interpreter.
pub const MAX_INTERP_FLOPS: f64 = 1e7;

/// Operations attempted and failed. Every job, every pass comparison and
/// every correctness check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Operations that failed as the benchmark says they do today (each
    /// names the defect where it is checked); attempted, not failed.
    pub known_failures: u64,
}

impl Ops {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }

    /// Counts one operation that documents a known defect of the program:
    /// a failure is reported and tallied apart, and so is the day it
    /// stops failing.
    pub fn known_failure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if ok {
            eprintln!("known failure no longer reproduces: {}", what());
        } else {
            self.known_failures += 1;
            eprintln!("KNOWN FAILURE (not counted as failed): {}", what());
        }
    }

    /// Counts `n` operations that cannot fail once they have returned
    /// (jobs that ran to completion).
    pub fn done(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Replays a best program from its transform history and checks it: same
/// signature, valid, lowers, finite simulated time — and, when the task is
/// small enough to execute, the same output as the naive evaluation of the
/// DAG (the reference is never the lowering under test).
pub fn check_best(ops: &mut Ops, best: &Best, input_seed: u64) {
    let name = &best.name;
    let state = match State::replay(best.dag.clone(), &best.steps) {
        Ok(s) => s,
        Err(e) => {
            ops.check(false, || format!("{name}: best steps do not replay: {e}"));
            return;
        }
    };
    ops.check(state.signature() == best.signature, || {
        format!("{name}: replayed signature differs from the search's")
    });
    ops.check(state.validate().is_ok(), || {
        format!("{name}: replayed best state is invalid")
    });
    let program = match lower(&state) {
        Ok(p) => p,
        Err(e) => {
            ops.check(false, || format!("{name}: best state does not lower: {e}"));
            return;
        }
    };
    let seconds = Measurer::new(best.target.clone()).time_only(&program);
    ops.check(seconds.is_finite() && seconds > 0.0, || {
        format!("{name}: simulated time of the best program is {seconds}")
    });
    if best.dag.flop_count() > MAX_INTERP_FLOPS {
        return;
    }
    let inputs = interp::random_inputs(&best.dag, input_seed);
    // Scheduling may add stages, so node ids shift: match nodes by name.
    let remapped: HashMap<_, _> = inputs
        .iter()
        .filter_map(|(id, data)| {
            let id = program.dag.node_id(&best.dag.nodes[*id].name)?;
            Some((id, data.clone()))
        })
        .collect();
    let (reference, tuned) = match (
        interp::run_naive(&best.dag, &inputs),
        interp::run(&program, &remapped),
    ) {
        (Ok(r), Ok(t)) => (r, t),
        (r, t) => {
            ops.check(false, || {
                format!(
                    "{name}: interpreter failed (naive: {:?}, tuned: {:?})",
                    r.err(),
                    t.err()
                )
            });
            return;
        }
    };
    for out in best.dag.outputs() {
        let node = &best.dag.nodes[out].name;
        let want = reference.get(out);
        let got = program.dag.node_id(node).map(|id| tuned.get(id));
        let same = got.is_some_and(|got| {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(a, b)| (a - b).abs() <= 1e-3 * b.abs().max(1.0))
        });
        ops.check(same, || {
            format!("{name}: output {node} of the best program differs from the naive evaluation")
        });
    }
}

/// Tunes the 64×64×64 matmul canary for one round and checks its best
/// program like any job's (it is always small enough to execute).
pub fn check_canary(ops: &mut Ops, seed: u64) {
    let (task, options, measurer) =
        session_parts(canary_task(), ROUND_TRIALS, seed, PolicyVariant::Full);
    let mut session = TuningSession::new(task, options, measurer, "canary");
    session.run(|_| true);
    ops.done(1);
    match policy_results(session.policy(), 0.0).1 {
        Some(best) => check_best(ops, &best, seed),
        None => {
            ops.check(false, || "canary: no valid program found".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_passes_and_a_wrong_signature_is_caught() {
        ansor_runtime::set_threads(1);
        let mut ops = Ops::default();
        check_canary(&mut ops, 3);
        assert_eq!(ops.failed, 0);
        // job + signature + validate + time + one output
        assert_eq!(ops.attempted, 5);

        let (task, options, measurer) =
            session_parts(canary_task(), ROUND_TRIALS, 3, PolicyVariant::Full);
        let mut session = TuningSession::new(task, options, measurer, "canary");
        session.run(|_| true);
        let mut best = policy_results(session.policy(), 0.0).1.unwrap();
        best.signature ^= 1;
        let mut ops = Ops::default();
        check_best(&mut ops, &best, 3);
        assert_eq!(ops.failed, 1);
    }
}
