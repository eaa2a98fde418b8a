//! Random annotation (§4.2): turns incomplete sketches into complete
//! programs.
//!
//! Given a sketch, annotation randomly fills tile sizes (respecting
//! follow-split ties between fused stages), parallelizes outer loops,
//! vectorizes inner loops, unrolls a few inner loops, randomly tweaks
//! computation locations, and rewrites constant-tensor layouts to match the
//! tile structure.

use rand::prelude::*;
use tensor_ir::{Annotation, ComputeLoc, IterKind, State, Step};

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
    /// Resampling attempts before giving up on a sketch.
    pub max_resample: usize,
    /// Maximum GPU threads per block.
    pub max_threads: i64,
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
            max_resample: 10,
            max_threads: 1024,
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
    let mut rem = extent;
    let mut out = vec![1i64; nparts];
    // Fill positions in random order so no level is systematically favored.
    let mut order: Vec<usize> = (0..nparts).collect();
    order.shuffle(rng);
    for &p in &order {
        let divs = divisors(rem);
        // Bias toward small-to-medium factors: weight 1/sqrt(d).
        let weights: Vec<f64> = divs.iter().map(|&d| 1.0 / (d as f64).sqrt()).collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = divs[0];
        for (d, w) in divs.iter().zip(&weights) {
            pick -= w;
            if pick <= 0.0 {
                chosen = *d;
                break;
            }
        }
        out[p] = chosen;
        rem /= chosen;
    }
    out
}

/// Derives a follower's lengths from its leader's: the first `nparts - 1`
/// leader lengths are kept, the remaining leader lengths collapse into the
/// follower's innermost length.
pub fn follow_lengths(leader: &[i64], nparts: usize) -> Vec<i64> {
    assert!(nparts >= 1 && nparts <= leader.len());
    let mut out: Vec<i64> = leader[..nparts - 1].to_vec();
    out.push(leader[nparts - 1..].iter().product());
    out
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
    let mut factors: Vec<i64> = Vec::with_capacity(sketch.rfactors.len());
    for rv in &sketch.rfactors {
        let divs: Vec<i64> = divisors(rv.extent)
            .into_iter()
            .filter(|&d| d > 1 && d < rv.extent)
            .collect();
        let factor = divs.choose(rng).copied().unwrap_or(1.max(rv.extent / 2));
        if let Step::Rfactor { factor: f, .. } = &mut steps[rv.step] {
            *f = factor;
        }
        factors.push(factor);
    }
    let mut sampled: Vec<Vec<i64>> = Vec::with_capacity(sketch.splits.len());
    for sv in &sketch.splits {
        let extent = match sv.follow_rfactor {
            Some(rf) => factors[rf],
            None => sv.extent,
        };
        let lengths = match sv.follow {
            Some(leader) => follow_lengths(&sampled[leader], sv.nparts),
            None => sample_lengths(extent, sv.nparts, rng),
        };
        if let Step::Split { lengths: l, .. } = &mut steps[sv.step] {
            *l = lengths.clone();
        }
        sampled.push(lengths);
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

/// Samples one complete program from a sketch. Returns `None` when no valid
/// annotation was found within `cfg.max_resample` attempts.
pub fn sample_program(
    sketch: &Sketch,
    task: &SearchTask,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<State> {
    for _ in 0..cfg.max_resample {
        let steps = instantiate_steps(sketch, task, cfg, rng);
        let Ok(mut state) = State::replay_owned(task.dag.clone(), steps) else {
            continue;
        };
        if annotate_state(&mut state, task, cfg, rng).is_ok() && gpu_limits_ok(&state, task, cfg) {
            return Some(state);
        }
    }
    None
}

/// Applies the random annotation pass to an instantiated state.
pub fn annotate_state(
    state: &mut State,
    task: &SearchTask,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let stage_nodes: Vec<(String, ComputeLoc)> = state
        .stages
        .iter()
        .filter(|s| state.dag.nodes[s.node].compute().is_some())
        .map(|s| (state.dag.nodes[s.node].name.clone(), s.loc))
        .collect();
    for (node, loc) in stage_nodes {
        if loc == ComputeLoc::Inlined {
            continue;
        }
        let base = node.split('.').next().unwrap_or(&node).to_string();
        let hint = cfg.hints.get(&base).cloned().unwrap_or_default();
        if task.is_gpu() {
            annotate_gpu_stage(state, task, &node, loc, cfg, &hint, rng)?;
        } else {
            annotate_cpu_stage(state, &node, loc, cfg, &hint, rng)?;
        }
        // Unroll pragma for the stage: hinted value wins over sampling.
        let pragma = match hint.unroll_pragma {
            Some(v) => v,
            None => *cfg.unroll_pragma_choices.choose(rng).unwrap_or(&0),
        };
        if pragma > 0 {
            state.apply(Step::Pragma {
                node: node.clone(),
                max_unroll: pragma,
            })?;
        }
        // Layout rewrite: constant inputs of multi-level-tiled stages are
        // repacked to match the tile structure (§4.2).
        let sid = state.stage_by_node_name(&node).expect("stage exists");
        let nid = state.stages[sid].node;
        let loads_const = state
            .dag
            .producers(nid)
            .iter()
            .any(|&p| state.dag.nodes[p].is_const_placeholder());
        if loads_const && state.stages[sid].loop_order.len() >= 6 {
            state.apply(Step::LayoutRewrite { node: node.clone() })?;
        }
    }
    Ok(())
}

fn live_loops(state: &State, node: &str) -> Vec<(String, IterKind, i64, Annotation)> {
    let sid = state.stage_by_node_name(node).expect("stage exists");
    let st = &state.stages[sid];
    st.loop_order
        .iter()
        .map(|&it| {
            let i = &st.iters[it];
            (i.name.clone(), i.kind, i.extent, i.annotation)
        })
        .collect()
}

/// Producers computed at `node` and their shared-prefix lengths.
fn attached_producers(state: &State, node: &str) -> Vec<(String, usize)> {
    let nid = state.dag.node_id(node).expect("node exists");
    state
        .stages
        .iter()
        .filter_map(|s| match s.loc {
            ComputeLoc::At { target, prefix_len } if target == nid => {
                Some((state.dag.nodes[s.node].name.clone(), prefix_len))
            }
            _ => None,
        })
        .collect()
}

fn annotate_cpu_stage(
    state: &mut State,
    node: &str,
    loc: ComputeLoc,
    cfg: &AnnotationConfig,
    hint: &AnnotationHint,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    if loc == ComputeLoc::Root && !hint.no_parallel && rng.gen_bool(cfg.parallel_prob) {
        parallelize_outer(state, node, rng)?;
    }
    if !hint.no_vectorize {
        vectorize_inner(state, node, cfg, rng)?;
    }
    unroll_small_inner(state, node, cfg, rng)?;
    Ok(())
}

/// Fuses and parallelizes the leading spatial loops of a root stage,
/// keeping any attached producers' shared prefixes consistent.
fn parallelize_outer(
    state: &mut State,
    node: &str,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let loops = live_loops(state, node);
    let mut leading = 0;
    for (_, kind, _, ann) in &loops {
        if *kind == IterKind::Space && *ann == Annotation::None {
            leading += 1;
        } else {
            break;
        }
    }
    if leading == 0 {
        return Ok(());
    }
    let producers = attached_producers(state, node);
    let cap = producers
        .iter()
        .map(|(_, p)| *p)
        .min()
        .unwrap_or(leading)
        .min(leading);
    if cap == 0 {
        return Ok(());
    }
    let nf = rng.gen_range(1..=cap);
    let fused_name = if nf >= 2 {
        let names: Vec<String> = loops[..nf].iter().map(|(n, ..)| n.clone()).collect();
        state.apply(Step::Fuse {
            node: node.to_string(),
            iters: names.clone(),
        })?;
        // Keep shared prefixes loop-for-loop compatible: fuse the same
        // leading loops of every attached producer and refresh its
        // compute_at with the shortened prefix.
        for (p, prefix_len) in &producers {
            let ploops = live_loops(state, p);
            let pnames: Vec<String> = ploops[..nf].iter().map(|(n, ..)| n.clone()).collect();
            state.apply(Step::Fuse {
                node: p.clone(),
                iters: pnames,
            })?;
            state.apply(Step::ComputeAt {
                node: p.clone(),
                target: node.to_string(),
                prefix_len: prefix_len - nf + 1,
            })?;
        }
        names.join("@")
    } else {
        loops[0].0.clone()
    };
    state.apply(Step::Annotate {
        node: node.to_string(),
        iter: fused_name,
        ann: Annotation::Parallel,
    })?;
    Ok(())
}

fn vectorize_inner(
    state: &mut State,
    node: &str,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    if !rng.gen_bool(cfg.vectorize_prob) {
        return Ok(());
    }
    let loops = live_loops(state, node);
    if let Some((name, kind, extent, ann)) = loops.last() {
        if *kind == IterKind::Space && *ann == Annotation::None && *extent > 1 && *extent <= 512 {
            state.apply(Step::Annotate {
                node: node.to_string(),
                iter: name.clone(),
                ann: Annotation::Vectorize,
            })?;
        }
    }
    Ok(())
}

fn unroll_small_inner(
    state: &mut State,
    node: &str,
    cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let loops = live_loops(state, node);
    let n = loops.len();
    for pos in [n.wrapping_sub(2), n.wrapping_sub(3)] {
        if pos >= n {
            continue;
        }
        let (name, _, extent, ann) = &loops[pos];
        if *ann == Annotation::None && *extent > 1 && *extent <= 32 && rng.gen_bool(cfg.unroll_prob)
        {
            state.apply(Step::Annotate {
                node: node.to_string(),
                iter: name.clone(),
                ann: Annotation::Unroll,
            })?;
        }
    }
    Ok(())
}

fn annotate_gpu_stage(
    state: &mut State,
    _task: &SearchTask,
    node: &str,
    loc: ComputeLoc,
    cfg: &AnnotationConfig,
    hint: &AnnotationHint,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let loops = live_loops(state, node);
    let has_bind = loops
        .iter()
        .any(|(_, _, _, ann)| matches!(ann, Annotation::BindBlock | Annotation::BindThread));
    if loc == ComputeLoc::Root && !has_bind {
        gpu_default_bind(state, node, rng)?;
    }
    if !hint.no_vectorize {
        vectorize_inner(state, node, cfg, rng)?;
    }
    Ok(())
}

/// Default GPU binding for stages the sketch rules left unbound (e.g.
/// rfactor stages and standalone element-wise outputs): fuse the leading
/// spatial loops, split off a thread block and bind.
fn gpu_default_bind(
    state: &mut State,
    node: &str,
    rng: &mut impl Rng,
) -> Result<(), tensor_ir::Error> {
    let loops = live_loops(state, node);
    let mut leading: Vec<(String, i64)> = Vec::new();
    for (name, kind, extent, ann) in &loops {
        if *kind == IterKind::Space && *ann == Annotation::None {
            leading.push((name.clone(), *extent));
        } else {
            break;
        }
    }
    if leading.is_empty() {
        return Ok(());
    }
    let fused = if leading.len() >= 2 {
        state.apply(Step::Fuse {
            node: node.to_string(),
            iters: leading.iter().map(|(n, _)| n.clone()).collect(),
        })?;
        leading
            .iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
            .join("@")
    } else {
        leading[0].0.clone()
    };
    let total: i64 = leading.iter().map(|(_, e)| e).product();
    let divs: Vec<i64> = divisors(total).into_iter().filter(|&d| d <= 1024).collect();
    // Prefer thread counts near 256.
    let threads = *divs.iter().min_by_key(|&&d| (d - 256).abs()).unwrap_or(&1);
    let _ = rng;
    if threads > 1 && threads < total {
        state.apply(Step::Split {
            node: node.to_string(),
            iter: fused.clone(),
            lengths: vec![threads],
        })?;
        state.apply(Step::Annotate {
            node: node.to_string(),
            iter: format!("{fused}.0"),
            ann: Annotation::BindBlock,
        })?;
        state.apply(Step::Annotate {
            node: node.to_string(),
            iter: format!("{fused}.1"),
            ann: Annotation::BindThread,
        })?;
    } else {
        state.apply(Step::Annotate {
            node: node.to_string(),
            iter: fused,
            ann: Annotation::BindThread,
        })?;
    }
    Ok(())
}

/// Checks GPU thread-count limits on a fully annotated state.
pub fn gpu_limits_ok(state: &State, task: &SearchTask, cfg: &AnnotationConfig) -> bool {
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
        if !(2..=cfg.max_threads).contains(&threads) {
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
    use std::collections::HashMap;
    use std::sync::Arc;
    use tensor_ir::{interp, lower, DagBuilder, Expr, Reducer};

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
    fn sampled_programs_compute_correct_results() {
        let task = matmul_relu_task(16, HardwareTarget::intel_20core());
        let inputs = interp::random_inputs(&task.dag, 5);
        let reference = interp::run_naive(&task.dag, &inputs).unwrap();
        let ref_out = reference.get(3).to_vec(); // D
        let sketches = generate_sketches(&task);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut checked = 0;
        for sketch in &sketches {
            for _ in 0..8 {
                let Some(state) = sample_program(sketch, &task, &cfg, &mut rng) else {
                    continue;
                };
                let prog = lower(&state).unwrap();
                // Remap inputs: node ids may have shifted via cache stages.
                let mut in2: HashMap<usize, Vec<f32>> = HashMap::new();
                for (name, orig) in [("A", 0usize), ("B", 1usize)] {
                    let nid = prog.dag.node_id(name).unwrap();
                    in2.insert(nid, inputs[&orig].clone());
                }
                let bufs = interp::run(&prog, &in2).unwrap();
                let d = prog.dag.node_id("D").unwrap();
                let got = bufs.get(d);
                for (g, e) in got.iter().zip(&ref_out) {
                    assert!((g - e).abs() < 1e-3, "{g} vs {e} in {:?}", state.steps);
                }
                checked += 1;
            }
        }
        assert!(checked >= 6, "checked only {checked} programs");
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
                assert!(gpu_limits_ok(&state, &task, &cfg));
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
