//! Cross-crate integration tests: full tuning pipelines over real
//! workloads, exercising `tensor-ir` → `hwsim` → `ansor-core` together.

use ansor::prelude::*;
use ansor::workloads;

fn options(trials: usize) -> TuningOptions {
    TuningOptions {
        num_measure_trials: trials,
        measures_per_round: 16,
        init_population: 24,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            ..Default::default()
        },
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn tune_conv2d_end_to_end() {
    let dag = workloads::build_case("C2D", 1, 1).unwrap();
    let task = SearchTask::new("conv2d:e2e", dag.clone(), HardwareTarget::intel_20core());
    let mut measurer = Measurer::new(task.target.clone());
    let result = auto_schedule(&task, options(48), &mut measurer);
    let best = result.best.expect("schedule found");
    // The tuned program must beat the naive program by a wide margin.
    let naive = {
        let mut m = Measurer::new(task.target.clone());
        m.measure(&State::new(dag)).seconds
    };
    assert!(
        result.best_seconds * 10.0 < naive,
        "tuned {} vs naive {naive}",
        result.best_seconds
    );
    // And it must still be a valid, lowerable program.
    best.state.validate().unwrap();
    lower(&best.state).unwrap();
}

#[test]
fn tuned_depthwise_conv_is_functionally_correct() {
    // Small depthwise conv: tune briefly, then execute the best program in
    // the interpreter and compare with the naive reference.
    let dag = ansor::workloads::ops::depthwise_conv2d(1, 4, 12, 3, 1, 1);
    let task = SearchTask::new("dep:e2e", dag.clone(), HardwareTarget::intel_20core());
    let mut measurer = Measurer::new(task.target.clone());
    let result = auto_schedule(&task, options(32), &mut measurer);
    let best = result.best.expect("schedule found");
    let program = lower(&best.state).unwrap();

    let inputs = interp::random_inputs(&dag, 9);
    let reference = interp::run_naive(&dag, &inputs).unwrap();
    let bufs = interp::run_scheduled(&dag, &program, &inputs).unwrap();
    let c = dag.node_id("C").unwrap();
    let (out_tuned, out_ref) = (bufs.get(c), reference.get(c));
    assert_eq!(out_tuned.len(), out_ref.len());
    for (a, b) in out_tuned.iter().zip(out_ref) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}

#[test]
fn gpu_tuning_produces_bound_kernels() {
    let dag = workloads::ops::gmm(1, 256, 256, 256);
    let task = SearchTask::new("gmm:gpu", dag, HardwareTarget::nvidia_v100());
    let mut measurer = Measurer::new(task.target.clone());
    let result = auto_schedule(&task, options(32), &mut measurer);
    let best = result.best.expect("schedule found");
    let program = lower(&best.state).unwrap();
    // Every statement of the best GPU program runs under a thread binding.
    for s in tensor_ir::analysis::analyze(&program) {
        assert!(
            s.loops.iter().any(|l| l.ann == Annotation::BindThread),
            "unbound statement in best GPU program"
        );
    }
}

#[test]
fn task_scheduler_tunes_a_small_network() {
    let tasks = workloads::network("dcgan", 1).unwrap();
    let target = HardwareTarget::intel_20core();
    let tune_tasks: Vec<TuneTask> = tasks
        .iter()
        .map(|t| TuneTask {
            task: SearchTask::new(t.name.clone(), t.dag.clone(), target.clone()),
            weight: t.weight,
            dnn: 0,
        })
        .collect();
    let n = tune_tasks.len();
    let mut sched = TaskScheduler::new(
        tune_tasks,
        Objective::WeightedSum,
        options(1_000_000),
        TaskSchedulerConfig::default(),
    );
    let mut measurer = Measurer::new(target);
    sched.tune(n + 3, &mut measurer);
    let lat = sched.dnn_latencies()[0];
    assert!(lat.is_finite() && lat > 0.0);
    // Warm-up must have touched every task.
    assert!(sched.allocations.iter().all(|&a| a >= 1));
    // History objective is monotonically non-increasing for f1.
    let objs: Vec<f64> = sched.history.iter().map(|r| r.objective).collect();
    for w in objs.windows(2) {
        assert!(w[1] <= w[0] + 1e-12);
    }
}

#[test]
fn measured_trials_match_history_lengths() {
    let dag = workloads::ops::gmm(1, 128, 128, 128);
    let task = SearchTask::new("gmm:budget", dag, HardwareTarget::intel_20core());
    let mut measurer = Measurer::new(task.target.clone());
    let result = auto_schedule(&task, options(40), &mut measurer);
    assert_eq!(result.history.len() as u64, measurer.trials());
    assert!(result.history.len() <= 40);
    // best_seconds is the minimum of the history.
    let min = result
        .history
        .iter()
        .map(|r| r.seconds)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(result.best_seconds, min);
}
