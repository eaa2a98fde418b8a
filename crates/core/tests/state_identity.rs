//! What a `State` promises the search: its carried signature equals the
//! from-scratch one (replay is the oracle), it shares the task's DAG until
//! a structural step and from then on the one DAG that step derives, and —
//! because the signature names the program, not just the steps — caches
//! shared between tasks never serve one task's entry to another.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ansor_core::annotate::{sample_program, AnnotationConfig};
use ansor_core::{
    generate_sketches, produce_generation, CostModel, EvolutionConfig, Individual,
    LearnedCostModel, RandomModel, SearchTask, SketchPolicy, TuningOptions,
};
use ansor_features::{extract_state_features, extract_state_matrix, ProgramFeatures};
use ansor_workloads::{build_case, ops, subgraphs, winograd_conv2d, OP_CLASSES};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use serde::Serialize;
use tensor_ir::{
    analyze, analyze_state, interp, lower, print_program, Annotation, ComputeDag, ComputeLoc,
    DagBuilder, Expr, IterKind, Name, NodeId, Reducer, State, Step,
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

/// Matmul `C = A·B` with a constant `B`, and with `relu` a ReLU epilogue
/// `D`.
fn matmul(n: i64, m: i64, k: i64, relu: bool) -> Arc<ComputeDag> {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[n, k]);
    let w = b.constant("B", &[k, m]);
    let c = b.compute_reduce("C", &[n, m], &[k], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    if relu {
        b.compute("D", &[n, m], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
    }
    Arc::new(b.build().expect("valid matmul"))
}

/// Every operator class, Winograd and both subgraphs at shapes the
/// interpreter runs in a millisecond, and matmuls and ConvLayers with
/// extents that do not divide evenly (8×6×12, 12×4×8), a stride of 2 and a
/// batch of 2; each under the CPU and the GPU sketch rules.
fn tiny_cases() -> Vec<(String, Arc<ComputeDag>, HardwareTarget)> {
    let dags = || -> [(&str, Arc<ComputeDag>); 22] {
        [
            ("C1D", ops::conv1d(1, 2, 4, 8, 3, 1, 1)),
            ("C2D", ops::conv2d(1, 2, 4, 6, 3, 2, 1)),
            ("C3D", ops::conv3d(1, 1, 2, 3, 4, 3, 1, 1)),
            ("GMM", ops::gmm(1, 8, 8, 8)),
            ("GRP", ops::group_conv2d(1, 4, 4, 6, 3, 1, 1, 2)),
            ("DIL", ops::dilated_conv2d(1, 2, 4, 6, 3, 1, 2, 2)),
            ("DEP", ops::depthwise_conv2d(1, 4, 6, 3, 1, 1)),
            ("T2D", ops::transposed_conv2d(1, 1, 2, 3, 4, 2, 1)),
            ("CAP", ops::capsule_conv2d(1, 1, 2, 4, 3, 1, 1, 2)),
            ("NRM", ops::matrix_norm(1, 8, 8)),
            ("WINO", winograd_conv2d(1, 1, 2, 4)),
            ("ConvLayer", subgraphs::conv_layer(1, 2, 4, 6, 3, 1, 1)),
            ("TBG", subgraphs::tbg(1, 4, 8)),
            ("MM4x4x4", matmul(4, 4, 4, false)),
            ("MM8x8x8+ReLU", matmul(8, 8, 8, true)),
            ("MM16x8x8", matmul(16, 8, 8, false)),
            ("MM8x6x12+ReLU", matmul(8, 6, 12, true)),
            ("MM12x4x8", matmul(12, 4, 8, false)),
            ("MM16x16x16+ReLU", matmul(16, 16, 16, true)),
            (
                "ConvLayer1x2x4x6k3s1p1",
                subgraphs::conv_layer(1, 2, 4, 6, 3, 1, 1),
            ),
            (
                "ConvLayer1x3x2x8k3s2p1",
                subgraphs::conv_layer(1, 3, 2, 8, 3, 2, 1),
            ),
            (
                "ConvLayer2x2x2x5k1s1p0",
                subgraphs::conv_layer(2, 2, 2, 5, 1, 1, 0),
            ),
        ]
    };
    dags()
        .into_iter()
        .zip(dags())
        .flat_map(|((op, cpu), (_, gpu))| {
            let [c, g] = targets();
            [(op.to_string(), cpu, c), (op.to_string(), gpu, g)]
        })
        .collect()
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

/// Holds programs to what their task's DAG computes: `run_naive` of the
/// task DAG, on inputs drawn once per task.
#[derive(Default)]
struct Oracle {
    /// The task (and target) `inputs` and `reference` belong to.
    task: String,
    inputs: HashMap<NodeId, Vec<f32>>,
    reference: Option<interp::Buffers>,
}

impl Oracle {
    /// Panics unless `state` lowers and its program computes every output
    /// of the task's DAG, value for value, to within 1e-3 (float
    /// re-association). The message carries what reproduces a mismatch:
    /// `what`, the target, the step list as JSON and the lowered program.
    fn check(&mut self, task: &SearchTask, state: &State, what: &str) {
        let key = format!("{} on {}", task.name, task.target.name);
        if self.task != key {
            self.inputs = interp::random_inputs(&task.dag, 0);
            let reference = interp::run_naive(&task.dag, &self.inputs);
            self.reference = Some(reference.expect("the naive program runs"));
            self.task = key;
        }
        let reference = self.reference.as_ref().expect("set above");
        let program = lower(state);
        let run = |p| interp::run_scheduled(&task.dag, p, &self.inputs);
        let mismatch = match program.as_ref().map(run) {
            Err(e) => Some(format!("does not lower: {e}")),
            Ok(Err(e)) => Some(format!("the interpreter failed: {e}")),
            Ok(Ok(got)) => task.dag.outputs().into_iter().find_map(|out| {
                let name = &task.dag.nodes[out].name;
                let (have, want) = (got.get(out), reference.get(out));
                if have.len() != want.len() {
                    return Some(format!(
                        "{name} has {} values, the reference {}",
                        have.len(),
                        want.len()
                    ));
                }
                // A NaN is never close.
                let close = |a: f32, b: f32| (a - b).abs() <= 1e-3;
                let i = have.iter().zip(want).position(|(&a, &b)| !close(a, b))?;
                Some(format!("{name}[{i}] = {}, reference {}", have[i], want[i]))
            }),
        };
        if let Some(mismatch) = mismatch {
            let steps = serde_json::to_string(&state.steps).expect("steps serialise");
            let printed = program
                .as_ref()
                .map_or_else(|_| String::new(), print_program);
            let target = &task.target.name;
            panic!("{what} on {target}: {mismatch}\nsteps: {steps}\nprogram:\n{printed}");
        }
    }
}

/// The value oracle: every program of the walk over [`tiny_cases`] —
/// every sketch rule, CPU and GPU, samples and four generations of
/// offspring — computes what the naive program of its task's DAG computes,
/// including the programs that run on a DAG derived by `cache_write` or
/// `rfactor`.
#[test]
fn every_program_computes_what_its_dag_computes() {
    let mut oracle = Oracle::default();
    let (mut programs, mut derived) = (0, 0);
    let mut pairs = HashSet::new();
    for_every_program(tiny_cases(), |task, state, what| {
        let what = format!("{what} (program {programs} of the walk)");
        oracle.check(task, state, &what);
        programs += 1;
        derived += !Arc::ptr_eq(&state.dag, &task.dag) as usize;
        pairs.insert((task.name.clone(), task.target.name.clone()));
    });
    // Every (case, target) pair but NRM on a GPU, which samples nothing.
    assert_eq!(pairs.len(), tiny_cases().len() - 1, "{pairs:?}");
    assert!(
        programs >= 1400 && derived >= 600,
        "{programs} programs, {derived} on a derived DAG"
    );
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
        let want = ProgramFeatures::of_statements(&from_program);
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
        let hash = fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes());
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

/// `cargo test -p ansor-core --test state_identity -- --ignored
/// bless_lowered_fingerprints` rewrites the fixture; only a deliberate
/// change of what `lower` emits justifies it.
#[test]
#[ignore]
fn bless_lowered_fingerprints() {
    std::fs::write(LOWERED_FINGERPRINTS, lowered_fingerprints()).expect("fixture is writable");
}

/// Changes one field of `step`: its node, an iterator it names, a length,
/// factor, prefix or pragma (hostile values included), its annotation, or
/// its iterator list (an entry replaced or dropped, two swapped). `nodes`
/// and `iters` are the names the program knows.
fn mutate(step: &mut Step, rng: &mut StdRng, nodes: &[Name], iters: &[Name]) {
    const NUMBERS: [i64; 9] = [0, -1, 1, 2, 3, 7, 64, 1 << 20, 1 << 62];
    const ANNOTATIONS: [Annotation; 7] = [
        Annotation::None,
        Annotation::Parallel,
        Annotation::Vectorize,
        Annotation::Unroll,
        Annotation::BindBlock,
        Annotation::BindThread,
        Annotation::BindVthread,
    ];
    let node = nodes[rng.gen_range(0..nodes.len())];
    let iter = iters[rng.gen_range(0..iters.len())];
    let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
    let field = rng.gen_range(0..3);
    match step {
        Step::Split {
            node: n,
            iter: i,
            lengths,
        } => match field {
            0 => *n = node,
            1 => *i = iter,
            _ => {
                let k = rng.gen_range(0..lengths.len());
                lengths[k] = number;
            }
        },
        Step::Fuse {
            node: n,
            iters: list,
        }
        | Step::Reorder {
            node: n,
            order: list,
        } => {
            let (k, j) = (rng.gen_range(0..list.len()), rng.gen_range(0..list.len()));
            match rng.gen_range(0..4) {
                0 => *n = node,
                1 => list[k] = iter,
                2 => {
                    list.remove(k);
                }
                _ => list.swap(k, j),
            }
        }
        Step::ComputeAt {
            node: n,
            target,
            prefix_len,
        } => match field {
            0 => *n = node,
            1 => *target = node,
            _ => *prefix_len = number.unsigned_abs() as usize,
        },
        Step::Rfactor { node: n, factor } => match field {
            0 => *n = node,
            _ => *factor = number,
        },
        Step::Annotate {
            node: n,
            iter: i,
            ann,
        } => match field {
            0 => *n = node,
            1 => *i = iter,
            _ => *ann = ANNOTATIONS[rng.gen_range(0..ANNOTATIONS.len())],
        },
        Step::Pragma {
            node: n,
            max_unroll,
        } => match field {
            0 => *n = node,
            _ => *max_unroll = number,
        },
        Step::ComputeInline { node: n }
        | Step::ComputeRoot { node: n }
        | Step::CacheWrite { node: n }
        | Step::LayoutRewrite { node: n } => *n = node,
    }
}

/// `state`'s step list with one step changed by [`mutate`], and that
/// step's index; `None` for an empty list or a step whose node has no
/// iterators.
fn step_mutant(state: &State, rng: &mut StdRng) -> Option<(usize, Vec<Step>)> {
    if state.steps.is_empty() {
        return None;
    }
    let mut steps = state.steps.clone();
    let k = rng.gen_range(0..steps.len());
    // Names of the program's nodes, and of the iterators the stage of the
    // step's node ever had.
    let nodes: Vec<Name> = state
        .dag
        .nodes
        .iter()
        .map(|n| n.name.as_str().into())
        .collect();
    let sid = state.stage_by_node_name(steps[k].node().as_str());
    let iters: Vec<Name> = sid.map_or_else(Vec::new, |sid| {
        state.stages[sid].iters.iter().map(|i| i.name).collect()
    });
    if iters.is_empty() {
        return None;
    }
    mutate(&mut steps[k], rng, &nodes, &iters);
    Some((k, steps))
}

/// Changes one field of one stage of `state` the way no step would: its
/// placement (at any node, any depth), its loop order (two loops swapped,
/// one dropped, any iterator added), or an iterator's kind.
fn mutate_stage(state: &mut State, rng: &mut StdRng) {
    let n_nodes = state.dag.nodes.len();
    let sid = rng.gen_range(0..state.stages.len());
    let stage = &mut state.stages[sid];
    let n_iters = stage.iters.len().max(1);
    let (k, j) = (rng.gen_range(0..n_iters), rng.gen_range(0..n_iters));
    let order = stage.loop_order.len();
    match rng.gen_range(0..6) {
        0 => {
            stage.loc = ComputeLoc::At {
                target: rng.gen_range(0..n_nodes),
                prefix_len: rng.gen_range(0..5),
            }
        }
        1 => stage.loc = [ComputeLoc::Root, ComputeLoc::Inlined][k % 2],
        2 if order > 0 => stage.loop_order.swap(k % order, j % order),
        3 if order > 0 => {
            stage.loop_order.remove(k % order);
        }
        4 if !stage.iters.is_empty() => stage.loop_order.push(k),
        5 if !stage.iters.is_empty() => {
            let kinds = [IterKind::Space, IterKind::Reduce, IterKind::Mixed];
            stage.iters[k].kind = kinds[j % 3];
        }
        _ => {}
    }
}

/// One function decides whether a state lowers: on every program of the
/// walk; on replays of ~500 of their step lists with one field changed;
/// and on ~500 of them with one field of a stage changed in place (the
/// states no step makes, which `validate` must refuse wherever `lower`
/// would fail), `validate` accepts exactly the states `analyze_state` and
/// `lower` accept, with `lower`'s error, and nothing panics.
#[test]
fn validate_accepts_exactly_the_states_that_lower() {
    let mut rng = StdRng::seed_from_u64(29);
    // Programs; step mutants; of those, replayed; of those, refused; stage
    // mutants; of those, refused.
    let mut seen = [0usize; 6];
    let check = |state: &State, what: &str| {
        let valid = state.validate();
        let analysed = analyze_state(state).map(|_| ());
        let lowered = lower(state).map(|_| ());
        assert_eq!(lowered, analysed, "{what}");
        let want = valid.clone().map_err(|e| match e {
            tensor_ir::Error::Lower(_) => e,
            e => tensor_ir::Error::Lower(e.to_string()),
        });
        assert_eq!(analysed, want, "{what}");
        valid.is_err()
    };
    for_every_program(cases_with_winograd(), |task, state, what| {
        assert!(
            !check(state, what),
            "{what}: a program of the search lowers"
        );
        seen[0] += 1;
        if seen[0] % 2 == 1 {
            let mut mutant = state.clone();
            mutate_stage(&mut mutant, &mut rng);
            seen[4] += 1;
            seen[5] += check(&mutant, &format!("{what}, stages now {:?}", mutant.stages)) as usize;
            return;
        }
        let Some((k, steps)) = step_mutant(state, &mut rng) else {
            return;
        };
        seen[1] += 1;
        if let Ok(mutant) = State::replay(task.dag.clone(), &steps) {
            seen[2] += 1;
            seen[3] += check(&mutant, &format!("{what}, step {k} now {:?}", steps[k])) as usize;
        }
    });
    // A step list that replays lowers: no step mutant is refused.
    let [programs, steps, replayed, refused, stages, stages_refused] = seen;
    assert!(
        programs > 1000 && steps > 450 && replayed > 100 && refused == 0,
        "programs / step mutants / replayed / refused: {seen:?}"
    );
    assert!(
        stages > 450 && stages_refused > 50 && stages - stages_refused > 50,
        "stage mutants / refused: {seen:?}"
    );
}

/// A step list that replays computes what its DAG computes: four seeds
/// of step mutants ([`step_mutant`]) of every program of the walk over
/// [`tiny_cases`] — the step lists a record log, a checkpoint or the warm
/// store may carry — are replayed, and every one that replays goes
/// through the value oracle.
#[test]
fn every_replayed_step_mutant_computes_what_its_dag_computes() {
    let mut rngs: Vec<StdRng> = (0..4).map(StdRng::seed_from_u64).collect();
    let mut oracle = Oracle::default();
    let (mut mutants, mut replayed) = (0, 0);
    for_every_program(tiny_cases(), |task, state, what| {
        for (seed, rng) in rngs.iter_mut().enumerate() {
            let Some((k, steps)) = step_mutant(state, rng) else {
                continue;
            };
            mutants += 1;
            if let Ok(mutant) = State::replay(task.dag.clone(), &steps) {
                replayed += 1;
                let what = format!("{what}, seed {seed}: step {k} now {:?}", steps[k]);
                oracle.check(task, &mutant, &what);
            }
        }
    });
    assert!(
        mutants > 5000 && replayed > 1500,
        "{mutants} mutants, {replayed} replayed"
    );
}

/// A step list as the oracle prints it.
fn steps(json: &str) -> Vec<Step> {
    serde_json::from_str(json).expect("a step list")
}

/// The oracle's verdict on `steps` replayed on a task of `dag` on `target`.
fn replay_and_check(dag: Arc<ComputeDag>, target: HardwareTarget, steps: &[Step]) {
    let task = SearchTask::new("regression", dag, target);
    let state = State::replay(task.dag.clone(), steps).expect("replays");
    Oracle::default().check(&task, &state, "regression");
}

/// A `compute_at` prefix whose loops have the extents of the target's but
/// are other loops: `C.cache` (TBG, a step mutant's reorder) runs `l.1`
/// where `C` runs `j.1`, both of extent 2, so it wrote `C.cache[.., l.1,
/// j.1]` where `C` read `[.., j.1, l.1]` in the same iteration. Matched by
/// extent alone, the list replayed, lowered and computed wrong values; the
/// loops must be the same loops, so it no longer replays.
#[test]
fn a_compute_at_prefix_of_other_loops_with_equal_extents_is_refused() {
    let swapped = r#"[{"CacheWrite":{"node":"C"}},
        {"Split":{"node":"C.cache","iter":"i","lengths":[1,1,1]}},
        {"Split":{"node":"C.cache","iter":"j","lengths":[2,1,1]}},
        {"Split":{"node":"C.cache","iter":"l","lengths":[2,1,1]}},
        {"Split":{"node":"C.cache","iter":"k","lengths":[1]}},
        {"Reorder":{"node":"C.cache","order":["i.0","j.0","l.0","i.1","l.1","j.1",
            "k.0","i.2","j.2","l.2","k.1","i.3","j.3","l.3"]}},
        {"Split":{"node":"C","iter":"i","lengths":[1,1]}},
        {"Split":{"node":"C","iter":"j","lengths":[2,1]}},
        {"Split":{"node":"C","iter":"l","lengths":[2,1]}},
        {"Reorder":{"node":"C","order":["i.0","j.0","l.0","i.1","j.1","l.1",
            "i.2","j.2","l.2"]}},
        {"ComputeAt":{"node":"C.cache","target":"C","prefix_len":6}},
        {"ComputeInline":{"node":"Kt"}},
        {"ComputeInline":{"node":"Qt"}},
        {"Fuse":{"node":"C","iters":["i.0","j.0","l.0"]}},
        {"Fuse":{"node":"C.cache","iters":["i.0","j.0","l.0"]}},
        {"ComputeAt":{"node":"C.cache","target":"C","prefix_len":4}}]"#;
    let in_order = swapped.replace(r#""l.1","j.1""#, r#""j.1","l.1""#);
    let intel = HardwareTarget::intel_20core();
    replay_and_check(subgraphs::tbg(1, 4, 8), intel, &steps(&in_order));
    let refused = "compute_at prefix mismatch at 4: \"l.1\" vs \"j.1\"";
    assert_eq!(
        State::replay(subgraphs::tbg(1, 4, 8), &steps(swapped)),
        Err(tensor_ir::Error::Invalid(refused.into()))
    );
}

/// Inlining a stage that hosts another: in Winograd, `U.cache` computed at
/// `U` and `U` then inlined into `M`. `U`'s loops are never emitted, and
/// `U.cache`'s with them, so `M` read a `U.cache` nobody wrote. Such a
/// list no longer replays; either step alone still computes the
/// reference.
#[test]
fn inlining_a_stage_that_hosts_another_is_refused() {
    let cache_write = r#"{"CacheWrite":{"node":"U"}}"#;
    let compute_at = r#"{"ComputeAt":{"node":"U.cache","target":"U","prefix_len":1}}"#;
    let inline = r#"{"ComputeInline":{"node":"U"}}"#;
    let list = |steps: &[&str]| self::steps(&format!("[{}]", steps.join(",")));
    let (dag, intel) = (|| winograd_conv2d(1, 1, 2, 4), HardwareTarget::intel_20core);
    replay_and_check(dag(), intel(), &list(&[cache_write, compute_at]));
    replay_and_check(dag(), intel(), &list(&[cache_write, inline]));
    let refused = "compute_at target \"U\" is never emitted";
    assert_eq!(
        State::replay(dag(), &list(&[cache_write, compute_at, inline])),
        Err(tensor_ir::Error::Invalid(refused.into()))
    );
}

const FEATURE_ROW_FINGERPRINTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/feature_rows.fingerprints"
);

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per operator × target × program group of the walk (its
/// samples, then each generation): `<op> <target> <group> <fnv1a-64 of
/// every program's row count, feature-row bits and row buffers>`, as the
/// search featurizes them (from the state's analysis).
fn feature_row_fingerprints() -> String {
    let mut groups: Vec<(String, u64)> = Vec::new();
    for_every_program(cases_with_winograd(), |task, state, what| {
        let (op, rest) = what.split_once(' ').expect("`<op> <program>`");
        let rest = if rest.starts_with("sketch") {
            "samples"
        } else {
            rest
        };
        let group = format!("{op} {} {rest}", task.target.name);
        if groups.last().map(|(g, _)| g) != Some(&group) {
            groups.push((group, 0xcbf2_9ce4_8422_2325));
        }
        let hash = &mut groups.last_mut().expect("pushed").1;
        let features = extract_state_features(state).expect("featurizes");
        *hash = fnv1a(*hash, &(features.buffers.len() as u64).to_le_bytes());
        for v in features.rows.data() {
            *hash = fnv1a(*hash, &v.to_bits().to_le_bytes());
        }
        for &b in &features.buffers {
            *hash = fnv1a(*hash, &(b as u64).to_le_bytes());
        }
    });
    groups
        .iter()
        .map(|(group, hash)| format!("{group} {hash:016x}\n"))
        .collect()
}

/// The feature-row oracle: the fixture pins, bit for bit, the rows the
/// search's row writer produces for every program of the walk (Winograd,
/// GPU, cache-write and rfactor programs included).
#[test]
fn feature_rows_reproduce_the_committed_fingerprints() {
    let golden = std::fs::read_to_string(FEATURE_ROW_FINGERPRINTS).expect("fixture is committed");
    let now = feature_row_fingerprints();
    assert!(golden.lines().count() > 100, "fixture is too small");
    for (want, got) in golden.lines().zip(now.lines()) {
        assert_eq!(want, got, "feature rows differ");
    }
    assert_eq!(golden.lines().count(), now.lines().count());
}

/// `cargo test -p ansor-core --test state_identity -- --ignored
/// bless_feature_rows` rewrites the fixture; only a deliberate change of
/// the features justifies it.
#[test]
#[ignore]
fn bless_feature_rows() {
    std::fs::write(FEATURE_ROW_FINGERPRINTS, feature_row_fingerprints())
        .expect("fixture is writable");
}

const SIMULATED_SECONDS_FINGERPRINTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/simulated_seconds.fingerprints"
);

/// One line per program of the walk × machine (a CPU with an L3, one
/// without, a GPU): `<what> <target> <bits of seconds_of_statements>
/// <fnv1a-64 of the bits of every `StoreCost` field, statement by
/// statement>`.
fn simulated_seconds_fingerprints() -> String {
    let machines = [
        HardwareTarget::intel_20core(),
        HardwareTarget::arm_4core(),
        HardwareTarget::nvidia_v100(),
    ];
    let mut out = String::new();
    for_every_program(cases_with_winograd(), |_, state, what| {
        let stores = analyze_state(state).expect("analyses");
        for target in &machines {
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for c in hwsim::cost_of_statements(&stores, target) {
                for v in [
                    c.compute_s,
                    c.l2_s,
                    c.l3_s,
                    c.dram_s,
                    c.overhead_s,
                    c.total_s,
                    c.units_used,
                ] {
                    hash = fnv1a(hash, &v.to_bits().to_le_bytes());
                }
            }
            let seconds = hwsim::seconds_of_statements(&stores, target).to_bits();
            let name = &target.name;
            writeln!(out, "{what} {name} {seconds:016x} {hash:016x}").expect("writing to a String");
        }
    });
    out
}

/// The machine-model oracle: the fixture pins, bit for bit, what the
/// analytical model makes of every statement of every program of the walk
/// on three machines, so a change that is only meant to make the model
/// cheaper must reproduce it unmodified.
#[test]
fn simulated_seconds_reproduce_the_committed_fingerprints() {
    let golden =
        std::fs::read_to_string(SIMULATED_SECONDS_FINGERPRINTS).expect("fixture is committed");
    let now = simulated_seconds_fingerprints();
    assert!(golden.lines().count() > 3000, "fixture is too small");
    for (want, got) in golden.lines().zip(now.lines()) {
        assert_eq!(want, got, "simulated costs differ");
    }
    assert_eq!(golden.lines().count(), now.lines().count());
}

/// `cargo test -p ansor-core --test state_identity -- --ignored
/// bless_simulated_seconds` rewrites the fixture; only a deliberate change
/// of the machine model justifies it.
#[test]
#[ignore]
fn bless_simulated_seconds() {
    std::fs::write(
        SIMULATED_SECONDS_FINGERPRINTS,
        simulated_seconds_fingerprints(),
    )
    .expect("fixture is writable");
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
