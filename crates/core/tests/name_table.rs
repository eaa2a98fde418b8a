//! The interned-name table (`tensor_ir::Name`) never frees a name, so what
//! bounds it is that a name is interned once per process: a tuning session
//! run again — sampling, evolution, mutation, crossover, replay — interns
//! nothing new. One test per binary, because the table is process-wide.

use ansor_core::{
    CostModel, EvolutionConfig, LearnedCostModel, SearchTask, SketchPolicy, TuningOptions,
};
use ansor_workloads::build_case;
use hwsim::{HardwareTarget, Measurer};
use tensor_ir::Name;

/// A 64-trial session of `op` shape 0 at batch 1; returns its trials.
fn session(op: &str, target: HardwareTarget) -> usize {
    let dag = build_case(op, 0, 1).expect("shape 0 exists");
    let task = SearchTask::new(format!("{op}:s0b1"), dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: 64,
        measures_per_round: 16,
        init_population: 24,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            crossover_prob: 0.3,
            ..Default::default()
        },
        seed: 5,
        ..Default::default()
    };
    let mut policy = SketchPolicy::new(task, options);
    let mut model = LearnedCostModel::new();
    let model: &mut dyn CostModel = &mut model;
    let mut measurer = Measurer::new(target);
    while policy.tune_round(model, &mut measurer) > 0 {}
    policy.log.len()
}

#[test]
fn a_session_run_again_interns_no_new_name() {
    // Cache-write and fusion (C2D), rfactor (NRM), the GPU rules (GMM).
    let runs = [
        ("C2D", HardwareTarget::intel_20core()),
        ("NRM", HardwareTarget::intel_20core()),
        ("GMM", HardwareTarget::nvidia_v100()),
    ];
    let before = Name::interned();
    for (op, target) in &runs {
        assert!(session(op, target.clone()) > 0, "{op}");
    }
    let after_first = Name::interned();
    assert!(after_first > before);
    for (op, target) in &runs {
        session(op, target.clone());
    }
    assert_eq!(
        Name::interned(),
        after_first,
        "the second run interned names"
    );
}
