//! Integration tests on the task scheduler's gradient machinery
//! (Appendix A) beyond the unit tests: similarity term, ε-greedy
//! exploration, and f4 freezing over a longer horizon.

use std::sync::Arc;

use ansor_core::{
    EvolutionConfig, Objective, SearchTask, Strategy, TaskScheduler, TaskSchedulerConfig, TuneTask,
    TuningOptions,
};
use hwsim::{HardwareTarget, Measurer};
use tensor_ir::{ComputeDag, DagBuilder, Expr, Reducer};

fn mm(n: i64) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, n]);
    let w = b.constant("B", &[n, n]);
    b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    Arc::new(b.build().unwrap())
}

fn options() -> TuningOptions {
    TuningOptions {
        measures_per_round: 8,
        init_population: 12,
        evolution: EvolutionConfig {
            population: 12,
            generations: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn task(tag: &str, name: &str, n: i64) -> SearchTask {
    SearchTask::new(
        format!("{tag}:{name}"),
        mm(n),
        HardwareTarget::intel_20core(),
    )
}

#[test]
fn similarity_term_uses_same_tag_tasks() {
    // Three matmuls share the "matmul" tag; gradients stay finite because
    // V_k comes from the similar tasks, and the large task (most FLOPs,
    // most headroom per the similarity prediction) receives the most units
    // under the weighted-sum objective.
    let tasks = vec![
        TuneTask {
            task: task("matmul", "small", 64),
            weight: 1.0,
            dnn: 0,
        },
        TuneTask {
            task: task("matmul", "mid", 128),
            weight: 1.0,
            dnn: 0,
        },
        TuneTask {
            task: task("matmul", "large", 256),
            weight: 1.0,
            dnn: 0,
        },
    ];
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        options(),
        TaskSchedulerConfig {
            eps: 0.0,
            ..Default::default()
        },
    );
    let mut m = Measurer::new(HardwareTarget::intel_20core());
    sched.tune(12, &mut m);
    assert_eq!(sched.allocations.iter().sum::<u64>(), 12);
    let max_alloc = *sched.allocations.iter().max().unwrap();
    assert_eq!(
        sched.allocations[2], max_alloc,
        "largest task should dominate: {:?}",
        sched.allocations
    );
}

#[test]
fn eps_greedy_spreads_allocations() {
    // With eps = 1.0 every post-warm-up choice is uniform random, so no
    // task can end up starved over enough steps.
    let tasks = vec![
        TuneTask {
            task: task("matmul", "a", 64),
            weight: 100.0,
            dnn: 0,
        },
        TuneTask {
            task: task("matmul", "b", 64),
            weight: 0.001,
            dnn: 0,
        },
    ];
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        options(),
        TaskSchedulerConfig {
            eps: 1.0,
            ..Default::default()
        },
    );
    let mut m = Measurer::new(HardwareTarget::intel_20core());
    sched.tune(12, &mut m);
    assert!(
        sched.allocations.iter().all(|&a| a >= 2),
        "{:?}",
        sched.allocations
    );
}

#[test]
fn exhausted_task_is_skipped_not_fatal() {
    // A 1x1 matmul under the limited space has only a handful of distinct
    // programs; the scheduler must mark it exhausted and keep feeding the
    // big task instead of aborting the whole run.
    let tasks = vec![
        TuneTask {
            task: task("matmul", "tiny", 1),
            weight: 1.0,
            dnn: 0,
        },
        TuneTask {
            task: task("matmul", "big", 256),
            weight: 1.0,
            dnn: 0,
        },
    ];
    let mut opts = options();
    opts.variant = ansor_core::PolicyVariant::LimitedSpace;
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        opts,
        TaskSchedulerConfig {
            eps: 0.5, // force frequent visits to the tiny task
            ..Default::default()
        },
    );
    let mut m = Measurer::new(HardwareTarget::intel_20core());
    sched.tune(24, &mut m);
    // The run completed its units despite the tiny task drying up.
    assert_eq!(
        sched.allocations.iter().sum::<u64>(),
        24,
        "allocations {:?} exhausted {:?}",
        sched.allocations,
        sched.exhausted
    );
    assert!(
        sched.exhausted[0].is_some(),
        "tiny task should be exhausted"
    );
    assert!(sched.exhausted[1].is_none());
    assert!(sched.allocations[1] > sched.allocations[0]);
}

#[test]
fn gradient_strategy_beats_round_robin_early() {
    // One bottleneck among four tasks: at a small budget the gradient
    // scheduler's end-to-end latency must not be worse than round-robin's.
    let make = || {
        vec![
            TuneTask {
                task: task("matmul", "t1", 64),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: task("matmul", "t2", 64),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: task("matmul", "t3", 64),
                weight: 1.0,
                dnn: 0,
            },
            TuneTask {
                task: task("matmul", "bottleneck", 512),
                weight: 4.0,
                dnn: 0,
            },
        ]
    };
    let run = |strategy: Strategy| {
        let mut sched = TaskScheduler::new(
            make(),
            Objective::WeightedSum,
            options(),
            TaskSchedulerConfig {
                strategy,
                eps: 0.0,
                ..Default::default()
            },
        );
        let mut m = Measurer::new(HardwareTarget::intel_20core());
        sched.tune(10, &mut m);
        sched.dnn_latencies()[0]
    };
    let grad = run(Strategy::GradientDescent);
    let rr = run(Strategy::RoundRobin);
    assert!(
        grad <= rr * 1.05,
        "gradient {grad} should not lose to round-robin {rr} early"
    );
}

#[test]
fn scheduler_history_counts_trials_consistently() {
    let tasks = vec![TuneTask {
        task: task("matmul", "solo", 64),
        weight: 1.0,
        dnn: 0,
    }];
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        options(),
        TaskSchedulerConfig::default(),
    );
    let mut m = Measurer::new(HardwareTarget::intel_20core());
    sched.tune(4, &mut m);
    let last = sched.history.last().unwrap();
    assert_eq!(last.total_trials, sched.total_trials());
}
