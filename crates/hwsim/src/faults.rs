//! Deterministic fault injection for the measurer.
//!
//! Real measurement fleets are flaky: builds fail transiently, runners time
//! out, timing jitters, and the occasional machine is simply broken
//! ("cursed") until it is replaced. AutoTVM and TVM treat these failures as
//! a first-class part of the measurement loop; this module gives the
//! simulated measurer the same adversary, but *deterministically*: every
//! fault decision is a pure function of `(plan seed, program signature,
//! attempt number)` — never of a shared RNG stream, wall clock, or thread
//! interleaving — so fault-injected runs are bit-identical across repeats
//! and across the daemon's concurrent jobs, and a crashed run can be
//! resumed exactly.
//!
//! The zero-probability plan injects nothing and adds no noise, so a
//! measurer carrying it behaves byte-identically to one with no plan at
//! all (verified by property test).
//!
//! See `docs/ROBUSTNESS.md` for the full fault model.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Configuration of the injected fault distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-attempt probability of a transient measurement failure
    /// (flaky build, runner lost). Retrying usually recovers.
    pub transient_prob: f64,
    /// Per-attempt probability that the measurement times out on the
    /// simulated runner. Also transient: retrying usually recovers.
    pub timeout_prob: f64,
    /// Relative standard deviation of per-*attempt* multiplicative
    /// log-normal timing noise (0 = none). The only timing noise a
    /// measurer has: it varies per program and per retry, so re-measuring
    /// the same program jitters, as on real hardware.
    pub noise: f64,
    /// Probability that a program's signature lands on "cursed hardware":
    /// every attempt fails, sticky for the whole run. Cursed states are the
    /// terminal failures the search must learn to quarantine.
    pub cursed_prob: f64,
    /// Maximum retries after the first attempt before giving up.
    pub max_retries: u32,
    /// Simulated seconds charged for a timed-out attempt (the timeout
    /// wall), and the unit for retry backoff accounting.
    pub timeout_seconds: f64,
    /// Seed mixed into every fault decision.
    pub seed: u64,
}

impl Default for FaultPlan {
    /// The canonical stress plan used by `--faults default`: 10% transient
    /// failures, 2% timeouts, 0.5% cursed states, 3 retries, no timing
    /// noise (so recovered measurements equal their fault-free values).
    fn default() -> Self {
        FaultPlan {
            transient_prob: 0.10,
            timeout_prob: 0.02,
            noise: 0.0,
            cursed_prob: 0.005,
            max_retries: 3,
            timeout_seconds: 1.0,
            seed: 0xFA17,
        }
    }
}

/// What the injector decided for one measurement attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOutcome {
    /// The attempt succeeds; multiply the measured time by this factor
    /// (1.0 when `noise == 0`).
    Ok(f64),
    /// The attempt fails transiently; worth retrying.
    Transient,
    /// The attempt times out after `timeout_seconds`; worth retrying.
    Timeout,
    /// The program's signature is on cursed hardware; every attempt fails.
    Cursed,
}

impl FaultPlan {
    /// A plan that injects nothing — the identity element. A measurer with
    /// this plan is byte-identical to one with no plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            transient_prob: 0.0,
            timeout_prob: 0.0,
            noise: 0.0,
            cursed_prob: 0.0,
            max_retries: 3,
            timeout_seconds: 1.0,
            seed: 0,
        }
    }

    /// Whether the plan can ever change a measurement.
    pub fn is_inert(&self) -> bool {
        self.transient_prob <= 0.0
            && self.timeout_prob <= 0.0
            && self.noise <= 0.0
            && self.cursed_prob <= 0.0
    }

    /// Parses a command-line fault spec.
    ///
    /// Accepted forms:
    /// - `none` / `off` — the inert plan;
    /// - `default` — the canonical stress plan ([`FaultPlan::default`]);
    /// - a comma-separated `key=value` list over the plan's fields
    ///   (`transient`, `timeout`, `noise`, `cursed`, `retries`,
    ///   `timeout_secs`, `seed`), starting from the default plan, e.g.
    ///   `--faults transient=0.2,retries=5,seed=7`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        match spec.trim() {
            "none" | "off" => return Ok(FaultPlan::none()),
            "default" => return Ok(FaultPlan::default()),
            _ => {}
        }
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?}: expected key=value"))?;
            let fval = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("fault spec {part:?}: bad number {value:?}"))
            };
            match key.trim() {
                "transient" => plan.transient_prob = fval()?,
                "timeout" => plan.timeout_prob = fval()?,
                "noise" => plan.noise = fval()?,
                "cursed" => plan.cursed_prob = fval()?,
                "retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad integer {value:?}"))?
                }
                "timeout_secs" => plan.timeout_seconds = fval()?,
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad integer {value:?}"))?
                }
                other => return Err(format!("fault spec: unknown key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Whether `signature` lands on cursed hardware under this plan.
    /// Sticky by construction: the answer depends only on the plan and the
    /// signature, so it never changes within a run.
    pub fn is_cursed(&self, signature: u64) -> bool {
        self.cursed_prob > 0.0 && uniform(self.seed, signature, CURSED_SALT) < self.cursed_prob
    }

    /// The injector's decision for attempt `attempt` (0-based) of measuring
    /// the program with the given signature. A pure function of
    /// `(plan, signature, attempt)`.
    pub fn draw(&self, signature: u64, attempt: u32) -> FaultOutcome {
        if self.is_cursed(signature) {
            return FaultOutcome::Cursed;
        }
        let u = uniform(self.seed, signature, FAULT_SALT ^ attempt as u64);
        if u < self.transient_prob {
            return FaultOutcome::Transient;
        }
        if u < self.transient_prob + self.timeout_prob {
            return FaultOutcome::Timeout;
        }
        if self.noise <= 0.0 {
            return FaultOutcome::Ok(1.0);
        }
        // Two independent uniforms → one standard normal (Box–Muller),
        // derived from (signature, attempt) so each retry jitters afresh.
        let u1 = uniform(self.seed, signature, NOISE_SALT ^ attempt as u64).max(1e-12);
        let u2 = uniform(self.seed, signature, NOISE_SALT2 ^ attempt as u64);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        FaultOutcome::Ok((self.noise * z).exp())
    }

    /// Simulated seconds of retry backoff before attempt `attempt`
    /// (capped exponential: `0.1 · 2^(attempt−1)` seconds, at most 5).
    /// Attempt 0 waits nothing.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        (0.1 * (1u64 << (attempt - 1).min(16)) as f64).min(5.0)
    }
}

const CURSED_SALT: u64 = 0xC0_55ED;
const FAULT_SALT: u64 = 0xFA_17;
const NOISE_SALT: u64 = 0x01_5E;
const NOISE_SALT2: u64 = 0x02_5E;

/// Deterministic uniform in `[0, 1)` from a `(seed, signature, salt)`
/// triple — splitmix64 finalization over the mixed words.
fn uniform(seed: u64, signature: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(signature.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Error-message prefix of every injected fault (stable, matched by
/// [`crate::error_kind`] and the search's quarantine logic).
pub const INJECTED_PREFIX: &str = "injected fault";

/// Whether a measurement error message marks a *terminal* injected fault —
/// cursed hardware or retry exhaustion. The search policy quarantines the
/// program's signature so evolution stops resampling it.
pub fn is_terminal_fault(message: &str) -> bool {
    message.starts_with("injected fault: cursed") || message.starts_with("injected fault: gave up")
}

/// Process-wide default plan applied to newly created measurers — the
/// `--faults <spec>` flag of the bench binaries and `ansor-tune`. `None`
/// (the initial state) leaves measurers fault-free, so default runs are
/// bit-identical to builds without this module. Explicit
/// [`crate::Measurer::set_fault_plan`] calls always win over the default.
static DEFAULT_PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Installs (or clears) the process-wide default fault plan.
pub fn set_default_plan(plan: Option<FaultPlan>) {
    *DEFAULT_PLAN.lock().expect("fault plan lock") = plan;
}

/// The current process-wide default fault plan.
pub fn default_plan() -> Option<FaultPlan> {
    DEFAULT_PLAN.lock().expect("fault plan lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_named_specs() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("off").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("default").unwrap(), FaultPlan::default());
        assert!(FaultPlan::none().is_inert());
        assert!(!FaultPlan::default().is_inert());
    }

    #[test]
    fn parse_key_value_spec() {
        let p = FaultPlan::parse("transient=0.2, timeout=0.05,retries=5,seed=9").unwrap();
        assert_eq!(p.transient_prob, 0.2);
        assert_eq!(p.timeout_prob, 0.05);
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.seed, 9);
        // Unset keys keep the default-plan values.
        assert_eq!(p.cursed_prob, FaultPlan::default().cursed_prob);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("transient").is_err());
        assert!(FaultPlan::parse("transient=abc").is_err());
        assert!(FaultPlan::parse("warp_drive=1").is_err());
    }

    #[test]
    fn draws_are_pure_functions() {
        let p = FaultPlan::default();
        for sig in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for attempt in 0..4 {
                assert_eq!(p.draw(sig, attempt), p.draw(sig, attempt));
            }
        }
    }

    #[test]
    fn cursed_is_sticky_and_rare() {
        let p = FaultPlan {
            cursed_prob: 0.01,
            ..FaultPlan::default()
        };
        let mut cursed = 0;
        for sig in 0..10_000u64 {
            if p.is_cursed(sig) {
                cursed += 1;
                // Sticky: every attempt sees the curse.
                for attempt in 0..8 {
                    assert_eq!(p.draw(sig, attempt), FaultOutcome::Cursed);
                }
            }
        }
        assert!((50..200).contains(&cursed), "cursed rate off: {cursed}");
    }

    #[test]
    fn inert_plan_always_draws_clean() {
        let p = FaultPlan::none();
        for sig in 0..1000u64 {
            assert_eq!(p.draw(sig, 0), FaultOutcome::Ok(1.0));
        }
    }

    #[test]
    fn noise_perturbs_every_draw_within_its_spread() {
        let sigma = 0.05;
        let p = FaultPlan {
            noise: sigma,
            ..FaultPlan::none()
        };
        let mut seen = Vec::new();
        for sig in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for attempt in 0..4 {
                let FaultOutcome::Ok(f) = p.draw(sig, attempt) else {
                    panic!("signature {sig} attempt {attempt}: not Ok");
                };
                assert!(
                    f != 1.0 && ((-5.0 * sigma).exp()..=(5.0 * sigma).exp()).contains(&f),
                    "signature {sig} attempt {attempt}: factor {f}"
                );
                // Every program and every retry of one draws afresh.
                assert!(!seen.contains(&f), "factor {f} drawn twice");
                seen.push(f);
            }
        }
    }

    #[test]
    fn fault_rates_match_probabilities() {
        let p = FaultPlan {
            transient_prob: 0.10,
            timeout_prob: 0.02,
            cursed_prob: 0.0,
            ..FaultPlan::default()
        };
        let (mut transient, mut timeout) = (0u32, 0u32);
        for sig in 0..20_000u64 {
            match p.draw(sig, 0) {
                FaultOutcome::Transient => transient += 1,
                FaultOutcome::Timeout => timeout += 1,
                _ => {}
            }
        }
        assert!((1700..2300).contains(&transient), "transient {transient}");
        assert!((300..550).contains(&timeout), "timeout {timeout}");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = FaultPlan::default();
        assert_eq!(p.backoff_seconds(0), 0.0);
        assert_eq!(p.backoff_seconds(1), 0.1);
        assert_eq!(p.backoff_seconds(2), 0.2);
        assert_eq!(p.backoff_seconds(3), 0.4);
        assert_eq!(p.backoff_seconds(40), 5.0);
    }

    #[test]
    fn terminal_fault_classifier() {
        assert!(is_terminal_fault("injected fault: cursed hardware"));
        assert!(is_terminal_fault(
            "injected fault: gave up after 3 retries (transient)"
        ));
        assert!(!is_terminal_fault("injected fault: transient"));
        assert!(!is_terminal_fault("lowering error: bad split"));
    }
}
