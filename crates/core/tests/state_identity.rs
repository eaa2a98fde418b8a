//! What a `State` promises the search: its carried signature equals the
//! from-scratch one (replay is the oracle), it shares the task's DAG until
//! a structural step and from then on the one DAG that step derives, and —
//! because the signature names the program, not just the steps — caches
//! shared between tasks never serve one task's entry to another.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{
    generate_sketches, produce_generation, CostModel, EvolutionConfig, Individual,
    LearnedCostModel, RandomModel, SearchTask, SketchPolicy, TuningOptions,
};
use ansor_features::{extract_state_features, extract_state_matrix, ProgramFeatures};
use ansor_workloads::{build_case, ops, winograd_conv2d, OP_CLASSES};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use serde::Serialize;
use tensor_ir::{
    analyze, analyze_state, lower, print_program, Annotation, ComputeDag, Name, State, Step,
};

/// Returns whether the state ran a structural step (is on a derived DAG).
fn check_invariants(task: &SearchTask, state: &State, what: &str) -> bool {
    let replayed = State::replay(task.dag.clone(), &state.steps).expect("steps replay");
    assert_eq!(
        state.signature(),
        replayed.signature(),
        "{what}: carried vs replayed"
    );
    // However the program was made — sampled, mutated, crossed over — it
    // sits on the DAG its replay is handed from the task DAG's memo ...
    assert!(
        Arc::ptr_eq(&state.dag, &replayed.dag),
        "{what}: one DAG per structural step"
    );
    // ... and that DAG is what the same steps derive on a copy of the task
    // DAG, whose memo is empty.
    let unshared = Arc::new(ComputeDag::clone(&task.dag));
    let derived_afresh = State::replay(unshared, &state.steps).expect("steps replay");
    assert_eq!(*state, derived_afresh, "{what}: memo hit vs derivation");
    assert_eq!(
        state.clone().signature(),
        state.signature(),
        "{what}: clone"
    );
    let structural = state.steps.iter().any(Step::is_structural);
    assert_eq!(
        Arc::ptr_eq(&state.dag, &task.dag),
        !structural,
        "{what}: the task's DAG is shared iff no structural step ran"
    );
    let program = lower(state).expect("lowers");
    assert!(
        Arc::ptr_eq(&program.dag, &state.dag),
        "{what}: lower shares the DAG"
    );
    structural
}

/// One target per set of sketch rules: CPU and GPU.
fn targets() -> [HardwareTarget; 2] {
    [
        HardwareTarget::intel_20core(),
        HardwareTarget::nvidia_v100(),
    ]
}

/// Every operator class at shape 0, under the CPU and the GPU sketch rules.
fn operator_cases() -> Vec<(String, Arc<ComputeDag>, HardwareTarget)> {
    OP_CLASSES
        .iter()
        .flat_map(|&op| {
            let dag = || build_case(op, 0, 1).expect("shape 0 exists");
            targets().map(|t| (op.to_string(), dag(), t))
        })
        .collect()
}

/// [`operator_cases`] and Winograd convolution, for its transforms — the
/// deepest inlining chain among the workloads.
fn cases_with_winograd() -> Vec<(String, Arc<ComputeDag>, HardwareTarget)> {
    let mut cases = operator_cases();
    for target in targets() {
        cases.push(("WINO".into(), winograd_conv2d(1, 8, 8, 8), target));
    }
    cases
}

/// The walk the batteries below share: every case × every sketch × 3
/// sampled annotations, then every offspring of a 4-generation evolution
/// over those samples. `visit` sees each program once, in a fixed order.
fn for_every_program(
    cases: Vec<(String, Arc<ComputeDag>, HardwareTarget)>,
    mut visit: impl FnMut(&SearchTask, &State, &str),
) {
    let cfg = AnnotationConfig::default();
    for (i, (op, dag, target)) in cases.into_iter().enumerate() {
        let op = op.as_str();
        let pristine = (*dag).clone();
        let task = SearchTask::new(format!("{op}:s0b1"), dag, target);
        let sketches = generate_sketches(&task);
        let mut rng = StdRng::seed_from_u64(i as u64);
        let mut population = Vec::new();
        for (id, sketch) in sketches.iter().enumerate() {
            for _ in 0..3 {
                if let Some(state) = sample_program(sketch, &task, &cfg, &mut rng) {
                    visit(&task, &state, &format!("{op} sketch {id}"));
                    population.push(Individual::new(state, id));
                }
            }
        }
        if population.is_empty() {
            // The one pair whose annotations all exceed the GPU's limits.
            assert_eq!((op, task.is_gpu()), ("NRM", true), "nothing sampled");
            continue;
        }
        let model = RandomModel::new(7);
        let evo = EvolutionConfig {
            population: population.len(),
            crossover_prob: 0.3,
            ..Default::default()
        };
        for gen in 0..4 {
            let refs: Vec<&State> = population.iter().map(|p| &*p.state).collect();
            let scores = model.predict_refs(&task, &refs);
            let offspring = produce_generation(
                &task,
                &sketches,
                &population,
                &scores,
                &model,
                &evo,
                gen,
                &mut rng,
            );
            population = offspring.into_iter().map(|o| o.individual).collect();
            for ind in &population {
                visit(&task, &ind.state, &format!("{op} generation {gen}"));
            }
        }
        assert_eq!(*task.dag, pristine, "{op}: the task's DAG was written to");
    }
}

/// The search loop never builds a `Program`: `analyze_state` reads the
/// statements' numbers off the `State`. Here it is held, program by
/// program, to the path that does build one — analysis, feature rows and
/// simulated seconds, bit for bit.
#[test]
fn analysis_without_a_program_equals_analysis_of_the_lowered_program() {
    let (mut programs, mut stores, mut deepest) = (0, 0, 0);
    for_every_program(cases_with_winograd(), |task, state, what| {
        let program = lower(state).expect("lowers");
        let from_program = analyze(&program);
        let from_state = analyze_state(state).expect("analyses");
        assert_eq!(from_state, from_program, "{what}: analysis");
        let rows = extract_state_features(state).expect("featurizes");
        let want = ProgramFeatures::extract(&program);
        assert_eq!(rows.buffers, want.buffers, "{what}: row buffers");
        let bits = |m: &ProgramFeatures| -> Vec<u32> {
            m.rows.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&rows), bits(&want), "{what}: feature rows");
        let mut measurer = Measurer::new(task.target.clone());
        assert_eq!(
            measurer.measure(state).seconds.to_bits(),
            measurer.time_only(&program).to_bits(),
            "{what}: simulated seconds"
        );
        programs += 1;
        stores += from_state.len();
        deepest = deepest.max(from_state.iter().map(|s| s.loops.len()).max().unwrap_or(0));
    });
    assert!(
        programs > 1000 && stores > 5 * programs && deepest >= 16,
        "{programs} programs, {stores} statements, deepest nest {deepest}"
    );
}

#[test]
fn signature_and_dag_sharing_hold_for_every_operator_sketch_and_offspring() {
    // States seen that share the task's DAG / sit on a derived one.
    let mut seen = [0usize; 2];
    // The derived DAG first seen for a task's structural steps, and how
    // many later programs with the same steps were found on it.
    let mut derived: HashMap<String, Arc<ComputeDag>> = HashMap::new();
    let mut shared = 0;
    for_every_program(operator_cases(), |task, state, what| {
        let structural = check_invariants(task, state, what);
        seen[structural as usize] += 1;
        if structural {
            let steps: Vec<&Step> = state.steps.iter().filter(|s| s.is_structural()).collect();
            let first = derived
                .entry(format!("{} gpu={} {steps:?}", task.name, task.is_gpu()))
                .or_insert_with(|| state.dag.clone());
            assert!(Arc::ptr_eq(first, &state.dag), "{what}: {steps:?}");
            shared += 1;
        }
    });
    assert!(
        seen[0] > 100 && seen[1] > 100,
        "one side untested: {seen:?}"
    );
    assert!(
        derived.len() > 20 && shared > 4 * derived.len(),
        "{} programs on {} derived DAGs",
        shared,
        derived.len()
    );
}

/// `Step` as it was before its names were interned: the same variants
/// and fields in the same order, every name a `String`.
#[derive(Hash, Serialize)]
enum StringStep {
    Split {
        node: String,
        iter: String,
        lengths: Vec<i64>,
    },
    Fuse {
        node: String,
        iters: Vec<String>,
    },
    Reorder {
        node: String,
        order: Vec<String>,
    },
    ComputeAt {
        node: String,
        target: String,
        prefix_len: usize,
    },
    ComputeInline {
        node: String,
    },
    ComputeRoot {
        node: String,
    },
    CacheWrite {
        node: String,
    },
    Rfactor {
        node: String,
        factor: i64,
    },
    Annotate {
        node: String,
        iter: String,
        ann: Annotation,
    },
    Pragma {
        node: String,
        max_unroll: i64,
    },
    LayoutRewrite {
        node: String,
    },
}

impl From<&Step> for StringStep {
    fn from(step: &Step) -> StringStep {
        let s = |n: &Name| n.to_string();
        let all = |ns: &[Name]| ns.iter().map(s).collect();
        match step {
            Step::Split {
                node,
                iter,
                lengths,
            } => StringStep::Split {
                node: s(node),
                iter: s(iter),
                lengths: lengths.clone(),
            },
            Step::Fuse { node, iters } => StringStep::Fuse {
                node: s(node),
                iters: all(iters),
            },
            Step::Reorder { node, order } => StringStep::Reorder {
                node: s(node),
                order: all(order),
            },
            Step::ComputeAt {
                node,
                target,
                prefix_len,
            } => StringStep::ComputeAt {
                node: s(node),
                target: s(target),
                prefix_len: *prefix_len,
            },
            Step::ComputeInline { node } => StringStep::ComputeInline { node: s(node) },
            Step::ComputeRoot { node } => StringStep::ComputeRoot { node: s(node) },
            Step::CacheWrite { node } => StringStep::CacheWrite { node: s(node) },
            Step::Rfactor { node, factor } => StringStep::Rfactor {
                node: s(node),
                factor: *factor,
            },
            Step::Annotate { node, iter, ann } => StringStep::Annotate {
                node: s(node),
                iter: s(iter),
                ann: *ann,
            },
            Step::Pragma { node, max_unroll } => StringStep::Pragma {
                node: s(node),
                max_unroll: *max_unroll,
            },
            Step::LayoutRewrite { node } => StringStep::LayoutRewrite { node: s(node) },
        }
    }
}

/// Interning the names moved no signature and no byte of a step list: on
/// every program of the walk the carried signature is the fold of the
/// `String` mirror's derived hash from the task DAG's fingerprint, and the
/// steps serialise to the mirror's JSON.
#[test]
fn interned_steps_hash_and_serialise_as_their_string_mirror() {
    // Programs seen: all, on a GPU, with a cache-write, with an rfactor.
    let mut seen = [0usize; 4];
    for_every_program(cases_with_winograd(), |task, state, what| {
        let mirror: Vec<StringStep> = state.steps.iter().map(StringStep::from).collect();
        let signature = mirror.iter().fold(task.dag.fingerprint(), |sig, step| {
            let mut h = DefaultHasher::new();
            sig.hash(&mut h);
            step.hash(&mut h);
            h.finish()
        });
        assert_eq!(state.signature(), signature, "{what}: signature");
        assert_eq!(
            serde_json::to_string(&state.steps).unwrap(),
            serde_json::to_string(&mirror).unwrap(),
            "{what}: JSON"
        );
        let has = |kind: fn(&Step) -> bool| state.steps.iter().any(kind) as usize;
        seen[0] += 1;
        seen[1] += task.is_gpu() as usize;
        seen[2] += has(|s| matches!(s, Step::CacheWrite { .. }));
        seen[3] += has(|s| matches!(s, Step::Rfactor { .. }));
    });
    assert!(
        seen[0] > 1000 && seen[1] > 100 && seen[2] > 100 && seen[3] > 10,
        "programs / gpu / cache-write / rfactor: {seen:?}"
    );
}

const LOWERED_FINGERPRINTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lowered.fingerprints"
);

/// One line per program of the walk: `<what> <fnv1a-64 of the printed
/// program, its statement tree (`Debug`: loop-variable ids, not just
/// names), loop-variable table, unroll pragmas and rewritten layouts>`.
fn lowered_fingerprints() -> String {
    let mut out = String::new();
    for_every_program(operator_cases(), |_, state, what| {
        let program = lower(state).expect("lowers");
        let mut pragmas: Vec<_> = program.pragma_unroll.iter().collect();
        pragmas.sort();
        let text = format!(
            "{}{:?}{:?}{pragmas:?}{:?}",
            print_program(&program),
            program.body,
            program.vars,
            program.layout_rewritten
        );
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        writeln!(out, "{what} {hash:016x}").expect("writing to a String");
    });
    out
}

/// The lowering oracle: the fixture was written by the three-pass `lower`
/// this repository had before the one-traversal rewrite, and any lowering
/// must reproduce it line for line.
#[test]
fn lowering_reproduces_the_committed_fingerprints() {
    let golden = std::fs::read_to_string(LOWERED_FINGERPRINTS).expect("fixture is committed");
    let now = lowered_fingerprints();
    assert!(golden.lines().count() > 500, "fixture is too small");
    for (n, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(want, got, "program {n} lowers differently");
    }
    assert_eq!(golden.lines().count(), now.lines().count());
}

/// `cargo test -p ansor-core --test state_identity -- --ignored bless`
/// rewrites the fixture; only a deliberate change of what `lower` emits
/// justifies it.
#[test]
#[ignore]
fn bless_lowered_fingerprints() {
    std::fs::write(LOWERED_FINGERPRINTS, lowered_fingerprints()).expect("fixture is writable");
}

/// Two tasks behind one measurer and one model, as in a `TaskScheduler`,
/// whose programs share step lists: the second task is fed the first
/// task's measured schedules. Every result that came through a shared
/// cache is audited against a fresh measurement / featurization.
#[test]
fn tasks_sharing_caches_are_never_served_each_others_entries() {
    let target = HardwareTarget::intel_20core();
    // Two matmuls that differ only in their extents.
    let small = SearchTask::new("mm:128", ops::gmm(1, 128, 128, 128), target.clone());
    let large = SearchTask::new("mm:256", ops::gmm(1, 256, 256, 256), target.clone());
    let mut measurer = Measurer::new(target.clone());
    let mut model = LearnedCostModel::new();

    let options = TuningOptions {
        num_measure_trials: 32,
        measures_per_round: 16,
        init_population: 24,
        evolution: EvolutionConfig {
            population: 24,
            generations: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut policy = SketchPolicy::new(small.clone(), options);
    while policy.tune_round(&mut model, &mut measurer) > 0 {}
    assert!(policy.log.len() >= 16, "only {} records", policy.log.len());

    // The same step lists on the other task's DAG: 128 divides 256, so
    // every split still divides.
    let transplanted: Vec<State> = policy
        .log
        .iter()
        .filter_map(|rec| rec.replay(large.dag.clone()).ok())
        .collect();
    assert!(
        transplanted.len() >= 16,
        "only {} replay",
        transplanted.len()
    );
    let served = measurer.measure_batch(&transplanted);
    let (hits_before, _) = model.feature_cache_stats();
    model.predict(&large, &transplanted);
    // Scored twice: the second pass is served from the feature cache
    // whatever the first one found there.
    model.update(
        &large,
        &transplanted,
        &served.iter().map(|r| r.seconds).collect::<Vec<_>>(),
    );
    assert!(model.feature_cache_stats().0 > hits_before);

    let features = model.feature_cache();
    for (task, state, seconds) in policy
        .log
        .iter()
        .map(|rec| (&small, rec.replay(small.dag.clone()).unwrap(), rec.seconds))
        .chain(
            transplanted
                .iter()
                .zip(&served)
                .map(|(s, r)| (&large, s.clone(), r.seconds)),
        )
    {
        assert_eq!(
            seconds.to_bits(),
            // A measurer of its own: nothing cached to be served from.
            Measurer::new(target.clone())
                .measure(&state)
                .seconds
                .to_bits(),
            "{}: the shared measure cache served another program's time",
            task.name
        );
        let cached = features.get(state.signature()).expect("featurized above");
        assert_eq!(
            cached.as_ref().as_ref().map(|block| &block.rows),
            extract_state_matrix(&state).as_ref(),
            "{}: the shared feature cache served another program's rows",
            task.name
        );
    }
}
