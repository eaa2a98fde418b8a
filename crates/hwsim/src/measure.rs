//! The measurer: turns schedule states into "measured" execution times.
//!
//! Mirrors the paper's builder/runner pipeline (Figure 4's Measurer box):
//! programs are lowered ("built") and timed on the simulated machine
//! ("run"). Invalid programs yield errors rather than panics, exactly as a
//! compilation or runtime failure would on real hardware. A measurer is
//! configured by its target and its fault plan alone; timing noise, when a
//! run wants it, is the plan's ([`FaultPlan::noise`]).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ansor_runtime::SigCache;
use serde::{Deserialize, Serialize};
use tensor_ir::{with_analysis, Program, State};

use crate::analytical::{estimate_seconds, seconds_of_statements};
use crate::faults::{FaultOutcome, FaultPlan, INJECTED_PREFIX};
use crate::target::HardwareTarget;

/// Result of measuring one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureResult {
    /// Execution time in seconds; `f64::INFINITY` when the build failed.
    pub seconds: f64,
    /// Error message when the program could not be built.
    pub error: Option<String>,
}

impl MeasureResult {
    /// Whether the measurement succeeded.
    pub fn is_valid(&self) -> bool {
        self.error.is_none() && self.seconds.is_finite()
    }
}

/// Measures programs on a simulated target. Each measurement is one trial —
/// the resource unit of the paper's evaluation (§7.1: "at most 1,000
/// measurement trials") — which the caller's record log counts.
#[derive(Debug, Clone)]
pub struct Measurer {
    /// The simulated hardware.
    pub target: HardwareTarget,
    telemetry: telemetry::Telemetry,
    /// Signature-keyed result cache: duplicate states (mutation clones,
    /// retained-best re-measures across rounds) are never re-lowered or
    /// re-timed. Shared across clones of this measurer. Results are pure
    /// functions of `(state, target, fault plan)`, so serving from cache is
    /// bit-identical to recomputing. A hit still costs its caller a trial,
    /// as in the paper's budget model.
    cache: Arc<SigCache<MeasureResult>>,
    /// Injected-fault plan; `None` measures faithfully. Fault decisions are
    /// pure functions of `(plan, state signature, attempt)`, so results
    /// stay bit-identical across repeats and the result cache stays
    /// transparent (see `crate::faults`).
    faults: Option<FaultPlan>,
    /// Simulated nanoseconds spent on timed-out attempts and retry
    /// backoff, shared across clones. Integer nanoseconds so concurrent
    /// accumulation is order-insensitive (atomic adds commute exactly).
    sim_nanos: Arc<AtomicU64>,
}

/// Maps a measurement-error message onto a small stable category set (one
/// failure counter / trace key per category).
pub fn error_kind(message: &str) -> &'static str {
    if message.starts_with("injected fault: timeout") {
        "timeout"
    } else if message.starts_with("injected fault: cursed") {
        "cursed_hw"
    } else if message.starts_with("injected fault: gave up") {
        "gave_up"
    } else if message.starts_with("injected fault") {
        "transient"
    } else if message.starts_with("lowering error") {
        "lowering"
    } else if message.starts_with("invalid transform") {
        "invalid_transform"
    } else if message.starts_with("split lengths") {
        "bad_split"
    } else if message.starts_with("unknown iterator") {
        "unknown_iter"
    } else if message.starts_with("unknown node") {
        "unknown_node"
    } else if message.starts_with("interpreter error") {
        "interpreter"
    } else {
        "other"
    }
}

impl Measurer {
    /// Entries kept in the measurement cache. Search runs measure a few
    /// thousand distinct programs; 32k entries covers paper-scale budgets
    /// with slack while bounding memory.
    const CACHE_CAPACITY: usize = 1 << 15;

    /// Creates a measurer for a target. Picks up the process-wide default
    /// fault plan (`--faults`; see [`crate::faults`]) — `None` unless a
    /// binary installed one, so library users and tests are unaffected.
    pub fn new(target: HardwareTarget) -> Measurer {
        Measurer {
            target,
            telemetry: telemetry::Telemetry::disabled(),
            cache: Arc::new(SigCache::new(Self::CACHE_CAPACITY)),
            faults: crate::faults::default_plan(),
            sim_nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a measurer with an explicit fault plan (ignores the
    /// process-wide default).
    pub fn with_faults(target: HardwareTarget, plan: FaultPlan) -> Measurer {
        let mut m = Measurer::new(target);
        m.faults = Some(plan);
        m
    }

    /// Installs (or clears) the fault plan on this measurer.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Simulated seconds lost to injected faults so far: timed-out
    /// attempts plus retry backoff. 0.0 without a fault plan. Shared
    /// across clones of this measurer.
    pub fn sim_fault_seconds(&self) -> f64 {
        self.sim_nanos.load(Ordering::SeqCst) as f64 * 1e-9
    }

    /// Raw simulated-fault clock in nanoseconds (for checkpointing).
    pub fn sim_fault_nanos(&self) -> u64 {
        self.sim_nanos.load(Ordering::SeqCst)
    }

    /// Restores the simulated-fault clock from a checkpoint.
    pub fn restore_accounting(&mut self, sim_fault_nanos: u64) {
        self.sim_nanos.store(sim_fault_nanos, Ordering::SeqCst);
    }

    fn add_sim_seconds(&self, seconds: f64) {
        if seconds > 0.0 {
            self.sim_nanos
                .fetch_add((seconds * 1e9) as u64, Ordering::SeqCst);
        }
    }

    /// Lifetime (hits, misses) of the signature-keyed result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Replaces the result cache with a shared one, so several measurers
    /// (e.g. concurrent tuning sessions in a serving daemon) reuse each
    /// other's measurements. A measurer's whole configuration is its
    /// target and its fault plan, and results are pure functions of
    /// `(state, target, fault plan)`, so sharing is only transparent
    /// between measurers with equal targets and plans — callers key shared
    /// caches by both (the serving daemon's warm-store class key does).
    pub fn set_result_cache(&mut self, cache: Arc<SigCache<MeasureResult>>) {
        self.cache = cache;
    }

    /// Installs a telemetry handle: measurement batches are timed under the
    /// `measurement` phase and per-error-category failure counters
    /// (`measure/errors/<kind>`) plus `measure/valid` accumulate.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.telemetry = telemetry;
    }

    /// Builds and measures one state.
    pub fn measure(&mut self, state: &State) -> MeasureResult {
        let _phase = self.telemetry.span("measurement");
        let result = self.measure_cached(state);
        self.record_outcome(std::slice::from_ref(&result));
        result
    }

    /// Accumulates validity / per-error-kind counters for a set of results.
    fn record_outcome(&self, results: &[MeasureResult]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for r in results {
            match &r.error {
                None => self.telemetry.incr("measure/valid", 1),
                Some(e) => {
                    self.telemetry.incr("measure/failed", 1);
                    self.telemetry
                        .incr(&format!("measure/errors/{}", error_kind(e)), 1);
                }
            }
        }
    }

    /// Measures a batch of states, in submission order,
    /// on the calling thread. The paper's measurer builds and runs
    /// candidates in parallel because a real build and run takes seconds;
    /// a simulated measurement takes microseconds, less than handing it to
    /// another thread would cost.
    pub fn measure_batch(&mut self, states: &[State]) -> Vec<MeasureResult> {
        self.measure_all(states)
    }

    /// [`measure_batch`](Measurer::measure_batch) over borrowed states, for
    /// callers whose states live inside other values.
    pub fn measure_batch_refs(&mut self, states: &[&State]) -> Vec<MeasureResult> {
        self.measure_all(states)
    }

    fn measure_all<S: Borrow<State>>(&mut self, states: &[S]) -> Vec<MeasureResult> {
        let _phase = self.telemetry.span("measurement");
        let results: Vec<MeasureResult> = states
            .iter()
            .map(|s| self.measure_cached(s.borrow()))
            .collect();
        self.record_outcome(&results);
        results
    }

    /// [`Measurer::measure_one`] behind the signature-keyed cache:
    /// duplicate programs are served without re-lowering or re-timing.
    fn measure_cached(&self, state: &State) -> MeasureResult {
        let sig = state.signature();
        if let Some(r) = self.cache.get(sig) {
            self.telemetry.incr("measure/cache_hits", 1);
            return r;
        }
        self.telemetry.incr("measure/cache_misses", 1);
        let r = self.measure_one(state);
        self.cache.insert(sig, r.clone());
        r
    }

    /// Builds and times one state, bypassing the cache. The "build" is the analysis of the state's statements — all the machine
    /// model reads — so no `Program` is made.
    fn measure_one(&self, state: &State) -> MeasureResult {
        let phase = self.telemetry.span("lowering");
        let timed = with_analysis(state, |stores| {
            drop(phase);
            seconds_of_statements(stores, &self.target)
        });
        let seconds = match timed {
            Ok(seconds) => seconds,
            // Lowering failures are deterministic program defects, not
            // hardware flakes: never retried, never fault-injected.
            Err(e) => {
                return MeasureResult {
                    seconds: f64::INFINITY,
                    error: Some(e.to_string()),
                }
            }
        };
        let Some(plan) = &self.faults else {
            return MeasureResult {
                seconds,
                error: None,
            };
        };
        self.measure_with_faults(plan, state.signature(), seconds)
    }

    /// Retry loop around one fault-injected measurement: capped exponential
    /// backoff on transient failures and timeouts (charged to the simulated
    /// clock), immediate terminal failure on cursed hardware, give-up after
    /// `max_retries`. Pure in `(plan, signature)`, so results are cacheable.
    fn measure_with_faults(&self, plan: &FaultPlan, signature: u64, base: f64) -> MeasureResult {
        let mut last_kind = "transient";
        for attempt in 0..=plan.max_retries {
            // Liveness tick for /healthz: a measurer stuck in retry/backoff
            // moves no result counters, but this gauge keeps beating, so the
            // exporter can tell "slow" from "wedged". Deterministic — fault
            // draws are pure in (plan, signature, attempt).
            self.telemetry.gauge_add("measure/heartbeat", 1.0);
            if attempt > 0 {
                self.telemetry.incr("measure/retries", 1);
                self.add_sim_seconds(plan.backoff_seconds(attempt));
            }
            match plan.draw(signature, attempt) {
                FaultOutcome::Ok(mult) => {
                    return MeasureResult {
                        seconds: base * mult,
                        error: None,
                    }
                }
                FaultOutcome::Cursed => {
                    return MeasureResult {
                        seconds: f64::INFINITY,
                        error: Some(format!("{INJECTED_PREFIX}: cursed hardware")),
                    }
                }
                FaultOutcome::Transient => last_kind = "transient",
                FaultOutcome::Timeout => {
                    last_kind = "timeout";
                    self.add_sim_seconds(plan.timeout_seconds);
                }
            }
        }
        self.telemetry.incr("measure/gave_up", 1);
        MeasureResult {
            seconds: f64::INFINITY,
            error: Some(format!(
                "{INJECTED_PREFIX}: gave up after {} retries ({last_kind})",
                plan.max_retries
            )),
        }
    }

    /// Times an already-lowered program outside any tuning run (used by
    /// oracle evaluations in the experiment harnesses).
    pub fn time_only(&self, program: &Program) -> f64 {
        estimate_seconds(program, &self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tensor_ir::{DagBuilder, Expr, Reducer, State, Step};

    fn simple_state() -> State {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 64]);
        let w = b.placeholder("B", &[64, 64]);
        b.compute_reduce("C", &[64, 64], &[64], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        State::new(Arc::new(b.build().unwrap()))
    }

    #[test]
    fn measure_times_a_valid_program() {
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        let r = m.measure(&simple_state());
        assert!(r.is_valid());
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn an_unlowerable_state_measures_to_its_lowering_error() {
        // Fails `validate`; and a reduction whose init nest cannot index
        // its output (j fused with k).
        let mut no_loop = simple_state();
        no_loop.stages[2].loop_order.pop();
        let mut no_value = simple_state();
        no_value
            .apply(Step::Fuse {
                node: "C".into(),
                iters: vec!["j".into(), "k".into()],
            })
            .unwrap();
        let tel = telemetry::Telemetry::with_metrics();
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        m.set_telemetry(tel.clone());
        for broken in [no_loop, no_value] {
            // The measurer builds no program, and fails as `lower` does.
            let message = tensor_ir::lower(&broken).unwrap_err().to_string();
            let r = m.measure(&broken);
            assert_eq!(r.seconds, f64::INFINITY);
            assert_eq!(r.error.as_deref(), Some(message.as_str()));
            assert_eq!(error_kind(&message), "lowering");
        }
        assert_eq!(tel.counter_value("measure/errors/lowering"), 2);
    }

    #[test]
    fn batch_matches_one_at_a_time_order_and_values() {
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        // Build 12 distinct states by splitting with different factors.
        let mut states = Vec::new();
        for f in [1i64, 2, 4, 8, 16, 32] {
            for ax in ["i", "j"] {
                let mut st = simple_state();
                if f > 1 {
                    st.apply(Step::Split {
                        node: "C".into(),
                        iter: ax.into(),
                        lengths: vec![f],
                    })
                    .unwrap();
                }
                states.push(st);
            }
        }
        let batch = m.measure_batch(&states);
        assert_eq!(batch.len(), 12);
        let mut m2 = Measurer::new(HardwareTarget::intel_20core());
        for (s, b) in states.iter().zip(&batch) {
            assert_eq!(m2.measure(s).seconds, b.seconds);
        }
    }

    #[test]
    fn duplicate_states_hit_the_cache() {
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        let st = simple_state();
        let first = m.measure(&st);
        let again = m.measure(&st);
        assert_eq!(first, again, "cache must be transparent");
        let (hits, misses) = m.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        // Batches share the same cache.
        let batch = m.measure_batch(&[st.clone(), st]);
        assert_eq!(batch[0], first);
        assert_eq!(m.cache_stats().0, 3);
    }

    fn many_states(n: i64) -> Vec<State> {
        let mut states = Vec::new();
        for f in 0..n {
            let mut st = simple_state();
            if f > 0 {
                st.apply(Step::Split {
                    node: "C".into(),
                    iter: "i".into(),
                    lengths: vec![f],
                })
                .ok();
            }
            states.push(st);
        }
        states
    }

    #[test]
    fn inert_plan_is_byte_identical_to_no_plan() {
        let target = HardwareTarget::intel_20core();
        let mut plain = Measurer::new(target.clone());
        let mut inert = Measurer::with_faults(target, FaultPlan::none());
        for st in many_states(16) {
            assert_eq!(plain.measure(&st), inert.measure(&st));
        }
        assert_eq!(inert.sim_fault_nanos(), 0);
    }

    #[test]
    fn persistent_transient_faults_give_up_after_cap() {
        let plan = FaultPlan {
            transient_prob: 1.0,
            timeout_prob: 0.0,
            cursed_prob: 0.0,
            max_retries: 3,
            ..FaultPlan::default()
        };
        let mut m = Measurer::with_faults(HardwareTarget::intel_20core(), plan);
        let tel = telemetry::Telemetry::with_metrics();
        m.set_telemetry(tel.clone());
        let r = m.measure(&simple_state());
        assert!(!r.is_valid());
        let msg = r.error.as_deref().unwrap();
        assert!(msg.starts_with("injected fault: gave up"), "{msg}");
        assert!(crate::faults::is_terminal_fault(msg));
        assert_eq!(error_kind(msg), "gave_up");
        assert_eq!(tel.counter_value("measure/retries"), 3);
        assert_eq!(tel.counter_value("measure/gave_up"), 1);
        // Backoff 0.1 + 0.2 + 0.4 simulated seconds charged.
        assert!((m.sim_fault_seconds() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn cursed_states_fail_terminally_without_retries() {
        let plan = FaultPlan {
            transient_prob: 0.0,
            timeout_prob: 0.0,
            cursed_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut m = Measurer::with_faults(HardwareTarget::intel_20core(), plan);
        let tel = telemetry::Telemetry::with_metrics();
        m.set_telemetry(tel.clone());
        let r = m.measure(&simple_state());
        let msg = r.error.as_deref().unwrap();
        assert!(msg.starts_with("injected fault: cursed"), "{msg}");
        assert!(crate::faults::is_terminal_fault(msg));
        assert_eq!(error_kind(msg), "cursed_hw");
        assert_eq!(tel.counter_value("measure/retries"), 0);
    }

    #[test]
    fn timeouts_charge_the_simulated_clock() {
        let plan = FaultPlan {
            transient_prob: 0.0,
            timeout_prob: 1.0,
            cursed_prob: 0.0,
            max_retries: 2,
            timeout_seconds: 1.5,
            ..FaultPlan::default()
        };
        let mut m = Measurer::with_faults(HardwareTarget::intel_20core(), plan);
        assert!(!m.measure(&simple_state()).is_valid());
        // 3 timed-out attempts (1.5s each) + backoff 0.1 + 0.2.
        assert!((m.sim_fault_seconds() - 4.8).abs() < 1e-9);
    }

    #[test]
    fn recovered_measurements_equal_fault_free_values() {
        // Default plan has noise 0: any state that eventually succeeds must
        // report exactly its fault-free time, and most states succeed.
        let target = HardwareTarget::intel_20core();
        let mut plain = Measurer::new(target.clone());
        let mut faulty = Measurer::with_faults(target, FaultPlan::default());
        let states = many_states(32);
        let mut valid = 0;
        for st in &states {
            let f = faulty.measure(st);
            if f.is_valid() {
                valid += 1;
                assert_eq!(f.seconds, plain.measure(st).seconds);
            } else {
                assert!(crate::faults::is_terminal_fault(
                    f.error.as_deref().unwrap()
                ));
            }
        }
        assert!(valid >= states.len() / 2, "only {valid} valid");
    }

    #[test]
    fn fault_results_are_cached_and_reproducible() {
        let plan = FaultPlan::default();
        let states = many_states(24);
        let mut m = Measurer::with_faults(HardwareTarget::intel_20core(), plan.clone());
        let batch = m.measure_batch(&states);
        // Same states again: served from cache, bit-identical.
        assert_eq!(m.measure_batch(&states), batch);
        // A fresh measurer (fresh cache) reproduces the results exactly.
        let mut m2 = Measurer::with_faults(HardwareTarget::intel_20core(), plan);
        for (s, b) in states.iter().zip(&batch) {
            assert_eq!(&m2.measure(s), b);
        }
    }

    #[test]
    fn restore_accounting_round_trips() {
        let plan = FaultPlan {
            transient_prob: 0.0,
            timeout_prob: 1.0,
            cursed_prob: 0.0,
            max_retries: 0,
            timeout_seconds: 1.5,
            ..FaultPlan::default()
        };
        let mut m = Measurer::with_faults(HardwareTarget::intel_20core(), plan);
        m.restore_accounting(42_000);
        assert_eq!(m.sim_fault_nanos(), 42_000);
        // The restored clock keeps counting where it left off.
        m.measure(&simple_state());
        assert_eq!(m.sim_fault_nanos(), 1_500_042_000);
    }
}
