//! Random annotation (§4.2): turns incomplete sketches into complete
//! programs.
//!
//! Given a sketch, annotation randomly fills tile sizes (respecting
//! follow-split ties between fused stages), parallelizes outer loops,
//! vectorizes inner loops, unrolls a few inner loops, randomly tweaks
//! computation locations, and rewrites constant-tensor layouts to match the
//! tile structure.

use rand::prelude::*;
use tensor_ir::{Annotation, ComputeLoc, IterInfo, IterKind, Name, Stage, StageId, State, Step};

use crate::search_task::SearchTask;
use crate::sketch::Sketch;

/// Per-node annotation hints (§4.2: "we allow users to give simple hints
/// in the computation definition to adjust the annotation policy").
///
/// Hints are keyed by the node's *base* name (derived stages like
/// `X.cache` inherit `X`'s hints).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationHint {
    /// Never vectorize this node's loops (e.g. gather-heavy bodies).
    pub no_vectorize: bool,
    /// Never parallelize this node's loops.
    pub no_parallel: bool,
    /// Pin the `auto_unroll_max_step` pragma instead of sampling it
    /// (e.g. Winograd transform stages want aggressive unrolling).
    pub unroll_pragma: Option<i64>,
}

/// Annotation policy knobs.
#[derive(Debug, Clone)]
pub struct AnnotationConfig {
    /// Probability of parallelizing a root stage's outer loops (CPU).
    pub parallel_prob: f64,
    /// Probability of vectorizing a stage's innermost spatial loop.
    pub vectorize_prob: f64,
    /// Probability of explicitly unrolling small inner loops.
    pub unroll_prob: f64,
    /// Choices for the `auto_unroll_max_step` pragma (paper's 0/16/64/512).
    pub unroll_pragma_choices: Vec<i64>,
    /// Probability of mutating a tunable computation location.
    pub location_mutation_prob: f64,
    /// User hints, keyed by base node name.
    pub hints: std::collections::HashMap<String, AnnotationHint>,
}

impl Default for AnnotationConfig {
    fn default() -> Self {
        AnnotationConfig {
            parallel_prob: 0.9,
            vectorize_prob: 0.85,
            unroll_prob: 0.4,
            unroll_pragma_choices: vec![0, 16, 64, 512],
            location_mutation_prob: 0.15,
            hints: std::collections::HashMap::new(),
        }
    }
}

/// All divisors of `n`, ascending.
pub fn divisors(n: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            out.push(d);
            if d != n / d {
                out.push(n / d);
            }
        }
        d += 1;
    }
    out.sort_unstable();
    out
}

/// Samples `nparts` inner lengths whose product divides `extent`.
pub fn sample_lengths(extent: i64, nparts: usize, rng: &mut impl Rng) -> Vec<i64> {
    let mut out = vec![1i64; nparts];
    fill_lengths(&divisors(extent), extent, &mut out, rng);
    out
}

/// [`sample_lengths`] into `out`, one slot per inner length, drawing from
/// `divs`: every divisor of `extent` (and possibly of a multiple of it),
/// ascending. A sketch keeps that list per split, so a draw allocates
/// nothing — and draws what `sample_lengths` draws: the divisors of what
/// remains of the extent are the listed ones that divide it, in the same
/// order, under the same weights and the same RNG calls.
pub(crate) fn fill_lengths(divs: &[i64], extent: i64, out: &mut [i64], rng: &mut impl Rng) {
    const INLINE: usize = 8;
    let (mut inline, mut spilled) = ([0usize; INLINE], Vec::new());
    let order = if out.len() <= INLINE {
        &mut inline[..out.len()]
    } else {
        spilled.resize(out.len(), 0);
        &mut spilled[..]
    };
    for (p, slot) in order.iter_mut().enumerate() {
        *slot = p;
    }
    // Fill positions in random order so no level is systematically favored.
    order.shuffle(rng);
    // Bias toward small-to-medium factors: weight 1/sqrt(d).
    let weight = |d: i64| 1.0 / (d as f64).sqrt();
    let mut rem = extent;
    for &p in order.iter() {
        let fits = divs.iter().copied().filter(|&d| rem % d == 0);
        let total: f64 = fits.clone().map(weight).sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = 1;
        for d in fits {
            pick -= weight(d);
            if pick <= 0.0 {
                chosen = d;
                break;
            }
        }
        out[p] = chosen;
        rem /= chosen;
    }
}

/// Derives a follower's lengths from its leader's: the first `nparts - 1`
/// leader lengths are kept, the remaining leader lengths collapse into the
/// follower's innermost length.
pub fn follow_lengths(leader: &[i64], nparts: usize) -> Vec<i64> {
    let mut out = Vec::with_capacity(nparts);
    follow_into(leader, nparts, &mut out);
    out
}

/// [`follow_lengths`] into `out`, which keeps its buffer.
fn follow_into(leader: &[i64], nparts: usize, out: &mut Vec<i64>) {
    assert!(nparts >= 1 && nparts <= leader.len());
    out.clear();
    out.extend_from_slice(&leader[..nparts - 1]);
    out.push(leader[nparts - 1..].iter().product());
}

/// Instantiates a sketch's structural steps with sampled tile sizes,
/// rfactor factors and (occasionally mutated) computation locations.
pub fn instantiate_steps(
    sketch: &Sketch,
    task: &SearchTask,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Vec<Step> {
    let mut steps = sketch.steps.clone();
    // Sample rfactor factors first: splits of the factored axis depend on
    // them.
    for rv in &sketch.rfactors {
        let factor = rv
            .factors()
            .choose(rng)
            .copied()
            .unwrap_or(1.max(rv.extent / 2));
        if let Step::Rfactor { factor: f, .. } = &mut steps[rv.step] {
            *f = factor;
        }
    }
    for sv in &sketch.splits {
        // Tile sizes are written into the copied steps in place; a
        // follower reads its leader's, which come earlier.
        let (before, rest) = steps.split_at_mut(sv.step);
        let Step::Split { lengths, .. } = &mut rest[0] else {
            continue;
        };
        match sv.follow {
            Some(leader) => {
                let Step::Split { lengths: led, .. } = &before[sketch.splits[leader].step] else {
                    unreachable!("a leader is an earlier split");
                };
                follow_into(led, sv.nparts, lengths);
            }
            None => {
                let (divs, extent) = match sv.follow_rfactor {
                    Some(rf) => {
                        let rv = &sketch.rfactors[rf];
                        let Step::Rfactor { factor, .. } = before[rv.step] else {
                            unreachable!("an rfactor precedes the splits of its axis");
                        };
                        (&rv.divisors[..], factor)
                    }
                    None => (&sv.divisors[..], sv.extent),
                };
                lengths.resize(sv.nparts, 1);
                fill_lengths(divs, extent, lengths, rng);
            }
        }
    }
    // Computation-location tweak: occasionally halve the shared prefix so
    // the producer computes a larger tile at a shallower position.
    for &ca in &sketch.compute_ats {
        if rng.gen_bool(cfg.location_mutation_prob) {
            if let Step::ComputeAt { prefix_len, .. } = &mut steps[ca] {
                let halved = (*prefix_len / 2).max(1);
                if !task.is_gpu() {
                    *prefix_len = halved;
                }
            }
        }
    }
    steps
}

/// Resampling attempts before [`sample_program`] gives up on a sketch.
const MAX_RESAMPLE: usize = 10;

/// Maximum GPU threads per block.
const MAX_THREADS: i64 = 1024;

/// Samples one complete program from a sketch. Returns `None` when no valid
/// annotation was found within `MAX_RESAMPLE` (10) attempts.
pub fn sample_program(
    sketch: &Sketch,
    task: &SearchTask,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<State> {
    for _ in 0..MAX_RESAMPLE {
        let steps = instantiate_steps(sketch, task, cfg, rng);
        let Ok(mut state) = State::replay_owned(task.dag.clone(), steps) else {
            continue;
        };
        if annotate_state(&mut state, task, cfg, rng).is_ok() && gpu_limits_ok(&state, task) {
            return Some(state);
        }
    }
    None
}

/// The hints of a node `AnnotationConfig::hints` does not list.
const NO_HINT: AnnotationHint = AnnotationHint {
    no_vectorize: false,
    no_parallel: false,
    unroll_pragma: None,
};

/// Applies the random annotation pass to an instantiated state.
///
/// Stages are visited in order and their loops read by position.
/// Annotation adds no stage, so a stage id stays valid throughout, and a
/// placement changes only from one `compute_at` prefix to another.
pub fn annotate_state(
    state: &mut State,
    task: &SearchTask,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    for sid in 0..state.stages.len() {
        let (nid, loc) = (state.stages[sid].node, state.stages[sid].loc);
        if state.dag.nodes[nid].compute().is_none() || loc == ComputeLoc::Inlined {
            continue;
        }
        let node = state.dag.name_of(nid);
        let base = node.as_str().split('.').next().unwrap_or(node.as_str());
        let hint = cfg.hints.get(base).unwrap_or(&NO_HINT);
        if task.is_gpu() {
            annotate_gpu_stage(state, sid, node, loc, cfg, hint, rng)?;
        } else {
            annotate_cpu_stage(state, sid, node, loc, cfg, hint, rng)?;
        }
        // Unroll pragma for the stage: hinted value wins over sampling.
        let pragma = match hint.unroll_pragma {
            Some(v) => v,
            None => *cfg.unroll_pragma_choices.choose(rng).unwrap_or(&0),
        };
        if pragma > 0 {
            state.apply(Step::Pragma {
                node,
                max_unroll: pragma,
            })?;
        }
        // Layout rewrite: constant inputs of multi-level-tiled stages are
        // repacked to match the tile structure (§4.2).
        let loads_const = state
            .dag
            .producers(nid)
            .iter()
            .any(|&p| state.dag.nodes[p].is_const_placeholder());
        if loads_const && state.stages[sid].loop_order.len() >= 6 {
            state.apply(Step::LayoutRewrite { node })?;
        }
    }
    Ok(())
}

/// How many of the stage's outermost loops are spatial and unannotated.
fn leading_free_loops(stage: &Stage) -> usize {
    stage
        .loop_order
        .iter()
        .take_while(|&&it| {
            let i = &stage.iters[it];
            i.kind == IterKind::Space && i.annotation == Annotation::None
        })
        .count()
}

/// The names of the stage's `n` outermost loops.
fn outer_names(stage: &Stage, n: usize) -> Vec<Name> {
    stage.loop_order[..n]
        .iter()
        .map(|&it| stage.iters[it].name)
        .collect()
}

/// The stage's loop at position `pos` of its nest.
fn loop_at(stage: &Stage, pos: usize) -> &IterInfo {
    &stage.iters[stage.loop_order[pos]]
}

fn annotate_cpu_stage(
    state: &mut State,
    sid: StageId,
    node: Name,
    loc: ComputeLoc,
    cfg: &AnnotationConfig,
    hint: &AnnotationHint,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    if loc == ComputeLoc::Root && !hint.no_parallel && rng.gen_bool(cfg.parallel_prob) {
        parallelize_outer(state, sid, node, rng)?;
    }
    if !hint.no_vectorize {
        vectorize_inner(state, sid, node, cfg, rng)?;
    }
    unroll_small_inner(state, sid, node, cfg, rng)?;
    Ok(())
}

/// Fuses and parallelizes the leading spatial loops of a root stage,
/// keeping any attached producers' shared prefixes consistent.
fn parallelize_outer(
    state: &mut State,
    sid: StageId,
    node: Name,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let leading = leading_free_loops(&state.stages[sid]);
    if leading == 0 {
        return Ok(());
    }
    // The shared-prefix length of a producer computed at this stage.
    let nid = state.stages[sid].node;
    let attached = |s: &Stage| match s.loc {
        ComputeLoc::At { target, prefix_len } if target == nid => Some(prefix_len),
        _ => None,
    };
    let cap = state
        .stages
        .iter()
        .filter_map(attached)
        .min()
        .unwrap_or(leading)
        .min(leading);
    if cap == 0 {
        return Ok(());
    }
    let nf = rng.gen_range(1..=cap);
    if nf >= 2 {
        let iters = outer_names(&state.stages[sid], nf);
        state.apply(Step::Fuse { node, iters })?;
        // Keep shared prefixes loop-for-loop compatible: fuse the same
        // leading loops of every attached producer and refresh its
        // compute_at with the shortened prefix.
        for psid in 0..state.stages.len() {
            let Some(prefix_len) = attached(&state.stages[psid]) else {
                continue;
            };
            let producer = state.dag.name_of(state.stages[psid].node);
            let iters = outer_names(&state.stages[psid], nf);
            state.apply(Step::Fuse {
                node: producer,
                iters,
            })?;
            state.apply(Step::ComputeAt {
                node: producer,
                target: node,
                prefix_len: prefix_len - nf + 1,
            })?;
        }
    }
    // The outermost loop: the fused one, or the single leading loop.
    let iter = loop_at(&state.stages[sid], 0).name;
    state.apply(Step::Annotate {
        node,
        iter,
        ann: Annotation::Parallel,
    })?;
    Ok(())
}

fn vectorize_inner(
    state: &mut State,
    sid: StageId,
    node: Name,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    if !rng.gen_bool(cfg.vectorize_prob) {
        return Ok(());
    }
    let stage = &state.stages[sid];
    let Some(&inner) = stage.loop_order.last() else {
        return Ok(());
    };
    let i = &stage.iters[inner];
    if i.kind == IterKind::Space
        && i.annotation == Annotation::None
        && i.extent > 1
        && i.extent <= 512
    {
        let iter = i.name;
        state.apply(Step::Annotate {
            node,
            iter,
            ann: Annotation::Vectorize,
        })?;
    }
    Ok(())
}

fn unroll_small_inner(
    state: &mut State,
    sid: StageId,
    node: Name,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let n = state.stages[sid].loop_order.len();
    for pos in [n.wrapping_sub(2), n.wrapping_sub(3)] {
        if pos >= n {
            continue;
        }
        let i = loop_at(&state.stages[sid], pos);
        if i.annotation == Annotation::None
            && i.extent > 1
            && i.extent <= 32
            && rng.gen_bool(cfg.unroll_prob)
        {
            let iter = i.name;
            state.apply(Step::Annotate {
                node,
                iter,
                ann: Annotation::Unroll,
            })?;
        }
    }
    Ok(())
}

fn annotate_gpu_stage(
    state: &mut State,
    sid: StageId,
    node: Name,
    loc: ComputeLoc,
    cfg: &AnnotationConfig,
    hint: &AnnotationHint,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let stage = &state.stages[sid];
    let has_bind = stage.loop_order.iter().any(|&it| {
        matches!(
            stage.iters[it].annotation,
            Annotation::BindBlock | Annotation::BindThread
        )
    });
    if loc == ComputeLoc::Root && !has_bind {
        gpu_default_bind(state, sid, node)?;
    }
    if !hint.no_vectorize {
        vectorize_inner(state, sid, node, cfg, rng)?;
    }
    Ok(())
}

/// Default GPU binding for stages the sketch rules left unbound (e.g.
/// rfactor stages and standalone element-wise outputs): fuse the leading
/// spatial loops, split off a thread block and bind.
fn gpu_default_bind(state: &mut State, sid: StageId, node: Name) -> Result<(), tensor_ir::Error> {
    let stage = &state.stages[sid];
    let leading = leading_free_loops(stage);
    if leading == 0 {
        return Ok(());
    }
    let total: i64 = (0..leading).map(|p| loop_at(stage, p).extent).product();
    if leading >= 2 {
        let iters = outer_names(stage, leading);
        state.apply(Step::Fuse { node, iters })?;
    }
    let fused = loop_at(&state.stages[sid], 0).name;
    // Prefer thread counts near 256.
    let threads = divisors(total)
        .into_iter()
        .filter(|&d| d <= MAX_THREADS)
        .min_by_key(|&d| (d - 256).abs())
        .unwrap_or(1);
    if threads > 1 && threads < total {
        state.apply(Step::Split {
            node,
            iter: fused,
            lengths: vec![threads],
        })?;
        state.apply(Step::Annotate {
            node,
            iter: fused.part(0),
            ann: Annotation::BindBlock,
        })?;
        state.apply(Step::Annotate {
            node,
            iter: fused.part(1),
            ann: Annotation::BindThread,
        })?;
    } else {
        state.apply(Step::Annotate {
            node,
            iter: fused,
            ann: Annotation::BindThread,
        })?;
    }
    Ok(())
}

/// Checks GPU thread-count limits on a fully annotated state.
pub fn gpu_limits_ok(state: &State, task: &SearchTask) -> bool {
    if !task.is_gpu() {
        return true;
    }
    for stage in &state.stages {
        if stage.loc != ComputeLoc::Root || state.dag.nodes[stage.node].compute().is_none() {
            continue;
        }
        let threads: i64 = stage
            .loop_order
            .iter()
            .filter(|&&it| stage.iters[it].annotation == Annotation::BindThread)
            .map(|&it| stage.iters[it].extent)
            .product();
        // A kernel must launch at least a couple of real threads (an
        // extent-1 binding is simplified away by lowering) and must not
        // exceed the block-size limit.
        if !(2..=MAX_THREADS).contains(&threads) {
            return false;
        }
        // Virtual threads multiply per-thread work; keep them bounded.
        let vthreads: i64 = stage
            .loop_order
            .iter()
            .filter(|&&it| stage.iters[it].annotation == Annotation::BindVthread)
            .map(|&it| stage.iters[it].extent)
            .product();
        if vthreads > 64 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::generate_sketches;
    use hwsim::HardwareTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tensor_ir::{lower, DagBuilder, Expr, Reducer};

    fn matmul_relu_task(n: i64, target: HardwareTarget) -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[n, n]);
        let w = b.constant("B", &[n, n]);
        let c = b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[n, n], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        SearchTask::new("matmul_relu", Arc::new(b.build().unwrap()), target)
    }

    #[test]
    fn divisors_of_12() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn sampled_lengths_divide_extent() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let l = sample_lengths(96, 3, &mut rng);
            assert_eq!(l.len(), 3);
            assert_eq!(96 % l.iter().product::<i64>(), 0);
        }
    }

    #[test]
    fn follow_lengths_collapse_tail() {
        assert_eq!(follow_lengths(&[4, 2, 8], 2), vec![4, 16]);
        assert_eq!(follow_lengths(&[4, 2], 2), vec![4, 2]);
        assert_eq!(follow_lengths(&[4, 2, 8], 1), vec![64]);
    }

    #[test]
    fn sampled_programs_are_valid_and_diverse() {
        let task = matmul_relu_task(64, HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        let mut ok = 0;
        for _ in 0..40 {
            let sketch = &sketches[rng.gen_range(0..sketches.len())];
            if let Some(state) = sample_program(sketch, &task, &cfg, &mut rng) {
                state.validate().unwrap();
                let prog = lower(&state).unwrap();
                seen.insert(format!("{:?}", state.steps));
                let _ = prog;
                ok += 1;
            }
        }
        assert!(ok >= 30, "only {ok} of 40 samples were valid");
        assert!(seen.len() >= 20, "only {} distinct programs", seen.len());
    }

    #[test]
    fn annotation_hints_are_respected() {
        let task = matmul_relu_task(64, HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        let mut cfg = AnnotationConfig::default();
        cfg.hints.insert(
            "C".into(),
            crate::annotate::AnnotationHint {
                no_vectorize: true,
                no_parallel: true,
                unroll_pragma: Some(7),
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut checked = 0;
        for _ in 0..20 {
            let sk = &sketches[rng.gen_range(0..sketches.len())];
            let Some(state) = sample_program(sk, &task, &cfg, &mut rng) else {
                continue;
            };
            let prog = lower(&state).unwrap();
            // Hints apply to C and its derived stages (C.cache): the
            // pinned pragma and no vectorization of C's own (innermost)
            // loops. The host stage D may still parallelize the shared
            // outer loops — hints govern the hinted node's annotations.
            for st in tensor_ir::analysis::analyze(&prog) {
                let name = &prog.dag.nodes[st.buffer].name;
                if name.starts_with('C') {
                    assert!(
                        st.loops
                            .last()
                            .map(|l| l.ann != tensor_ir::Annotation::Vectorize)
                            .unwrap_or(true),
                        "{name} vectorized despite hint"
                    );
                    assert_eq!(st.pragma_unroll, 7);
                }
                if name.starts_with('D') {
                    // The un-hinted host samples its pragma from the
                    // normal choices, never the pinned value.
                    assert_ne!(st.pragma_unroll, 7);
                }
            }
            checked += 1;
        }
        assert!(checked >= 10);
    }

    /// Why NRM at batch 1 samples nothing on a GPU (ROADMAP item 10): every
    /// kernel of the 2-norm computes a one-element output — the sum `S`
    /// (a single spatial point, whether or not its reduction is factored)
    /// and the square root `N` — so the most threads any binding of their
    /// loops can launch is 1, and `gpu_limits_ok` asks every root kernel
    /// for 2 to 1024. Sketch, replay and annotation all succeed; the limit
    /// alone refuses. At batch 4 the same operator samples.
    #[test]
    fn nrm_at_batch_1_on_a_gpu_fails_only_the_thread_limit() {
        let cfg = AnnotationConfig::default();
        let gpu = |batch| {
            let dag = ansor_workloads::build_case("NRM", 0, batch).expect("NRM shape 0");
            SearchTask::new("NRM", dag, HardwareTarget::nvidia_v100())
        };
        let task = gpu(1);
        let sketches = generate_sketches(&task);
        assert!(sketches.iter().any(|s| !s.rfactors.is_empty()));
        let mut rng = StdRng::seed_from_u64(1);
        for sketch in &sketches {
            assert!(sample_program(sketch, &task, &cfg, &mut rng).is_none());
            for _ in 0..16 {
                let steps = instantiate_steps(sketch, &task, &cfg, &mut rng);
                let mut state = State::replay_owned(task.dag.clone(), steps).expect("replays");
                annotate_state(&mut state, &task, &cfg, &mut rng).expect("annotates");
                assert!(!gpu_limits_ok(&state, &task));
                // Every program holds a one-element kernel, and each such
                // kernel launches one thread. (Others may be refused too,
                // by a draw: `S.rf` with a thread level of 1.)
                let mut one_element = 0;
                for stage in &state.stages {
                    let node = &state.dag.nodes[stage.node];
                    if stage.loc != ComputeLoc::Root || node.compute().is_none() {
                        continue;
                    }
                    let threads: i64 = stage
                        .loop_order
                        .iter()
                        .map(|&it| &stage.iters[it])
                        .filter(|i| i.annotation == Annotation::BindThread)
                        .map(|i| i.extent)
                        .product();
                    if node.num_elements() == 1 {
                        assert_eq!(threads, 1, "{}", node.name);
                        one_element += 1;
                    }
                }
                assert!(one_element > 0);
            }
        }
        let task = gpu(4);
        let sampled = generate_sketches(&task)
            .iter()
            .filter(|s| sample_program(s, &task, &cfg, &mut rng).is_some())
            .count();
        assert!(sampled > 0, "NRM at batch 4 samples on a GPU");
    }

    #[test]
    fn gpu_samples_respect_thread_limits() {
        let task = matmul_relu_task(256, HardwareTarget::nvidia_v100());
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut ok = 0;
        for _ in 0..30 {
            let sketch = &sketches[rng.gen_range(0..sketches.len())];
            if let Some(state) = sample_program(sketch, &task, &cfg, &mut rng) {
                assert!(gpu_limits_ok(&state, &task));
                // Every root stage must end up with thread bindings.
                let prog = lower(&state).unwrap();
                let an = tensor_ir::analysis::analyze(&prog);
                for s in an {
                    let bound = s.loops.iter().any(|l| l.ann == Annotation::BindThread);
                    assert!(bound, "unbound GPU statement");
                }
                ok += 1;
            }
        }
        assert!(ok >= 15, "only {ok} valid GPU samples");
    }
}
