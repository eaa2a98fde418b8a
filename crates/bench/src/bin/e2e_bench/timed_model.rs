//! `TimedModel`: a cost model that records a span around every call and
//! otherwise is the model it wraps.
//!
//! The traced run drives `SketchPolicy::tune_round` with this wrapper, so
//! the time a round spends in the cost model (and so, by subtraction, in
//! the search itself) is measured from outside the program.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ansor_core::cost_model::PopulationScores;
use ansor_core::{CostModel, SearchTask};
use tensor_ir::State;

use crate::spans::Tracer;

/// Span names of the six `CostModel` methods.
pub const PREDICT: &str = "CostModel::predict";
/// See [`PREDICT`].
pub const PREDICT_REFS: &str = "CostModel::predict_refs";
/// See [`PREDICT`].
pub const PREDICT_PER_NODE: &str = "CostModel::predict_per_node";
/// See [`PREDICT`].
pub const PREDICT_POPULATION: &str = "CostModel::predict_population";
/// See [`PREDICT`].
pub const UPDATE: &str = "CostModel::update";
/// See [`PREDICT`].
pub const IS_TRAINED: &str = "CostModel::is_trained";

/// Forwards **every** `CostModel` method to `inner` inside a span. A
/// method left to its trait default would silently fall back to `predict`
/// and change both the timing and the call counts, so none is.
pub struct TimedModel<'t, M> {
    /// The wrapped model.
    pub inner: M,
    tracer: &'t Tracer,
    /// States handed to any of the scoring methods so far.
    states_scored: AtomicU64,
}

impl<'t, M: CostModel> TimedModel<'t, M> {
    /// Wraps `inner`; spans go to `tracer`.
    pub fn new(inner: M, tracer: &'t Tracer) -> TimedModel<'t, M> {
        TimedModel {
            inner,
            tracer,
            states_scored: Default::default(),
        }
    }

    /// States handed to the scoring methods so far.
    pub fn states_scored(&self) -> u64 {
        self.states_scored.load(Ordering::Relaxed)
    }

    fn scored(&self, n: usize) {
        // Relaxed: a statistic that publishes no other data.
        self.states_scored.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl<M: CostModel> CostModel for TimedModel<'_, M> {
    fn predict(&self, task: &SearchTask, states: &[State]) -> Vec<f64> {
        self.scored(states.len());
        self.tracer
            .span(PREDICT, || self.inner.predict(task, states))
    }

    fn predict_refs(&self, task: &SearchTask, states: &[&State]) -> Vec<f64> {
        self.scored(states.len());
        self.tracer
            .span(PREDICT_REFS, || self.inner.predict_refs(task, states))
    }

    fn predict_per_node(&self, task: &SearchTask, state: &State) -> HashMap<String, f64> {
        self.scored(1);
        self.tracer.span(PREDICT_PER_NODE, || {
            self.inner.predict_per_node(task, state)
        })
    }

    fn predict_population(&self, task: &SearchTask, states: &[&State]) -> PopulationScores {
        self.scored(states.len());
        self.tracer.span(PREDICT_POPULATION, || {
            self.inner.predict_population(task, states)
        })
    }

    fn update(&mut self, task: &SearchTask, states: &[State], seconds: &[f64]) {
        let (tracer, inner) = (self.tracer, &mut self.inner);
        tracer.span(UPDATE, || inner.update(task, states, seconds));
    }

    fn is_trained(&self) -> bool {
        self.tracer.span(IS_TRAINED, || self.inner.is_trained())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{canary_task, session_parts};
    use ansor_core::{log_fingerprint, LearnedCostModel, SketchPolicy, TuningSession};
    use std::sync::atomic::AtomicU32;

    /// Counts calls per method; every answer is distinguishable from what
    /// the trait defaults would compute from `predict`.
    #[derive(Default)]
    struct Probe {
        calls: [AtomicU32; 6],
    }

    impl Probe {
        fn hit(&self, i: usize) {
            self.calls[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    impl CostModel for Probe {
        fn predict(&self, _: &SearchTask, s: &[State]) -> Vec<f64> {
            self.hit(0);
            vec![1.0; s.len()]
        }
        fn predict_refs(&self, _: &SearchTask, s: &[&State]) -> Vec<f64> {
            self.hit(1);
            vec![2.0; s.len()]
        }
        fn predict_per_node(&self, _: &SearchTask, _: &State) -> HashMap<String, f64> {
            self.hit(2);
            HashMap::from([("probe".to_string(), 3.0)])
        }
        fn predict_population(&self, _: &SearchTask, s: &[&State]) -> PopulationScores {
            self.hit(3);
            (vec![4.0; s.len()], Some(vec![true; s.len()]))
        }
        fn update(&mut self, _: &SearchTask, _: &[State], _: &[f64]) {
            self.hit(4);
        }
        fn is_trained(&self) -> bool {
            self.hit(5);
            true
        }
    }

    #[test]
    fn forwards_every_cost_model_method() {
        let task = canary_task();
        let state = State::new(task.dag.clone());
        let tracer = Tracer::new();
        let mut m = TimedModel::new(Probe::default(), &tracer);
        assert_eq!(m.predict(&task, std::slice::from_ref(&state)), [1.0]);
        assert_eq!(m.predict_refs(&task, &[&state, &state]), [2.0, 2.0]);
        assert_eq!(m.predict_per_node(&task, &state)["probe"], 3.0);
        assert_eq!(
            m.predict_population(&task, &[&state]),
            (vec![4.0], Some(vec![true]))
        );
        m.update(&task, &[], &[]);
        assert!(m.is_trained());
        for (i, c) in m.inner.calls.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "method {i} not forwarded once"
            );
        }
        assert_eq!(m.states_scored(), 1 + 2 + 1 + 1);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                PREDICT,
                PREDICT_REFS,
                PREDICT_PER_NODE,
                PREDICT_POPULATION,
                UPDATE,
                IS_TRAINED
            ]
        );
    }

    #[test]
    fn wrapped_model_leaves_the_log_fingerprint_unchanged() {
        ansor_runtime::set_threads(1);
        let (task, options, measurer) = session_parts(canary_task(), 64, 5, Default::default());
        let mut plain = TuningSession::new(task, options, measurer, "plain");
        plain.run(|_| true);

        let (task, options, mut measurer) = session_parts(canary_task(), 64, 5, Default::default());
        let tracer = Tracer::new();
        let mut policy = SketchPolicy::new(task, options);
        let mut model = TimedModel::new(LearnedCostModel::new(), &tracer);
        while policy.tune_round(&mut model, &mut measurer) > 0 {}

        assert_eq!(policy.trials(), 64);
        assert_eq!(log_fingerprint(&policy.log), log_fingerprint(plain.log()));
        assert_eq!(
            policy.best_seconds().to_bits(),
            plain.best_seconds().to_bits()
        );
        assert!(tracer.spans().iter().any(|s| s.name == UPDATE));
        assert!(model.states_scored() > 0);
    }
}
