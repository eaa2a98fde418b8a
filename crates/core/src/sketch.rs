//! Sketch generation (§4.1): derivation-based enumeration of high-level
//! program structures.
//!
//! A sketch fixes the *structure* of a program — tile levels, fusion,
//! caching, reduction factorization — while leaving tile sizes, annotations
//! and unroll pragmas as free low-level knobs. Sketches are derived by
//! recursively applying the rules of Table 1 to the state σ = (S, i), where
//! `i` walks the DAG from output to input:
//!
//! | # | rule                          | condition                                        |
//! |---|-------------------------------|--------------------------------------------------|
//! | 1 | Skip                          | ¬IsStrictInlinable                               |
//! | 2 | Always Inline                 | IsStrictInlinable                                |
//! | 3 | Multi-level Tiling            | HasDataReuse                                     |
//! | 4 | Multi-level Tiling with Fusion| HasDataReuse ∧ HasFusibleConsumer                |
//! | 5 | Add Cache Stage               | HasDataReuse ∧ ¬HasFusibleConsumer               |
//! | 6 | Reduction Factorization       | HasMoreReductionParallel                         |
//!
//! Users may register additional [`SketchRule`]s (the paper's "User Defined
//! Rule" row) that are tried before the built-ins.
//!
//! CPU tiling uses the paper's "SSRSRS" structure; GPU targets use an
//! "SSSRRS" structure whose first three space levels are fused and bound to
//! `blockIdx`, virtual threads and `threadIdx`.

use std::sync::Arc;

use tensor_ir::{ComputeDag, Name, NodeId, State, Step};

use crate::annotate::divisors;
use crate::search_task::SearchTask;

/// A tunable multi-way split recorded in a sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitVar {
    /// Index of the `Step::Split` inside [`Sketch::steps`].
    pub step: usize,
    /// Extent of the iterator being split.
    pub extent: i64,
    /// Number of inner lengths (the split yields `nparts + 1` loops).
    pub nparts: usize,
    /// When set, this split's lengths are derived from another split's:
    /// `(leader index into Sketch::splits)`. The follower's lengths are the
    /// leader's first `nparts - 1` lengths plus the product of the rest, so
    /// the two stages' outer tile loops match for `compute_at`.
    pub follow: Option<usize>,
    /// When set, the split's extent is not static: it equals the sampled
    /// factor of `Sketch::rfactors[idx]` (the rfactor rule splits the
    /// factored spatial axis `k_i`, whose extent is the tunable factor).
    pub follow_rfactor: Option<usize>,
    /// The divisors of `extent`, ascending, that annotation draws tile
    /// sizes from — computed once, with the sketch. Empty for a split that
    /// does not draw from its own extent: a follower, or a split of an
    /// rfactor axis (it draws from [`RfactorVar::divisors`]).
    pub divisors: Vec<i64>,
}

impl SplitVar {
    /// A split that draws its `nparts` lengths from `extent`'s divisors.
    fn drawn(step: usize, extent: i64, nparts: usize) -> SplitVar {
        SplitVar {
            step,
            extent,
            nparts,
            follow: None,
            follow_rfactor: None,
            divisors: divisors(extent),
        }
    }
}

/// A tunable reduction factorization recorded in a sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct RfactorVar {
    /// Index of the `Step::Rfactor` inside [`Sketch::steps`].
    pub step: usize,
    /// Extent of the reduction axis being factorized.
    pub extent: i64,
    /// The divisors of `extent`, ascending, computed with the sketch.
    pub divisors: Vec<i64>,
}

impl RfactorVar {
    /// The factors annotation chooses from: the divisors strictly between
    /// 1 and the extent.
    pub(crate) fn factors(&self) -> &[i64] {
        self.divisors
            .get(1..self.divisors.len().saturating_sub(1))
            .unwrap_or(&[])
    }
}

/// A generated sketch: structural steps plus the inventory of low-level
/// knobs left open for annotation (§4.2) and evolution (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Sketch {
    /// Structural transform steps; tunable splits carry placeholder
    /// lengths of 1 until annotation patches them.
    pub steps: Vec<Step>,
    /// Tunable splits.
    pub splits: Vec<SplitVar>,
    /// Tunable reduction factorizations.
    pub rfactors: Vec<RfactorVar>,
    /// Indices (into `steps`) of `ComputeAt` steps whose `prefix_len` is a
    /// tunable computation location.
    pub compute_ats: Vec<usize>,
    /// Names of the derivation rules that built this sketch, in application
    /// order: the provenance chain of every candidate derived in it, which
    /// names the sketch by its index. (Rule 1 "skip" applications are
    /// implicit and not recorded.)
    pub rule_chain: Vec<&'static str>,
}

impl Sketch {
    /// Replays the sketch's structural steps, yielding the skeleton state.
    pub fn replay(&self, dag: Arc<ComputeDag>) -> Result<State, tensor_ir::Error> {
        State::replay(dag, &self.steps)
    }
}

/// Outcome of trying one rule on a working state.
pub enum RuleResult {
    /// Condition not met.
    Pass,
    /// Condition met: branch into these successor states and keep trying
    /// later rules on the original state.
    Apply(Vec<Working>),
    /// Condition met: branch into these successors and stop trying rules.
    ApplyAndSkipRest(Vec<Working>),
}

/// Intermediate derivation state σ = (S, i).
#[derive(Debug, Clone)]
pub struct Working {
    /// Partially generated sketch state.
    pub state: State,
    /// Tunable splits recorded so far.
    pub splits: Vec<SplitVar>,
    /// Tunable rfactors recorded so far.
    pub rfactors: Vec<RfactorVar>,
    /// Tunable computation locations recorded so far.
    pub compute_ats: Vec<usize>,
    /// Index of the current working node in `state.dag`.
    pub i: i64,
    /// Derivation-rule names applied so far (appended by the generation
    /// loop, so rule implementations never touch it).
    pub rule_chain: Vec<&'static str>,
}

/// A sketch-derivation rule. Users can implement this trait and pass extra
/// rules to [`generate_sketches_with_rules`] to support special algorithms
/// (the paper's example: Winograd convolution).
pub trait SketchRule {
    /// Short rule name (diagnostics).
    fn name(&self) -> &'static str;
    /// Tries the rule on the current working state.
    fn apply(&self, ws: &Working, task: &SearchTask) -> RuleResult;
}

/// Restrictions on the built-in rule set, used by baseline frameworks with
/// smaller search spaces (e.g. FlexTensor-like templates cannot fuse
/// consumers; manual templates add no cache or rfactor stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Allow Rule 4 (multi-level tiling with consumer fusion).
    pub fusion: bool,
    /// Allow Rule 5 (cache write) and Rule 6 (rfactor).
    pub structural: bool,
}

impl Default for RuleSet {
    fn default() -> Self {
        RuleSet {
            fusion: true,
            structural: true,
        }
    }
}

/// Generates all sketches for a task using the built-in rule set.
pub fn generate_sketches(task: &SearchTask) -> Vec<Sketch> {
    generate_sketches_full(task, &[], RuleSet::default())
}

/// Generates sketches, trying `user_rules` before the built-in rules.
pub fn generate_sketches_with_rules(
    task: &SearchTask,
    user_rules: &[&dyn SketchRule],
) -> Vec<Sketch> {
    generate_sketches_full(task, user_rules, RuleSet::default())
}

/// Generates sketches with user rules and a restricted built-in rule set.
pub fn generate_sketches_full(
    task: &SearchTask,
    user_rules: &[&dyn SketchRule],
    rules: RuleSet,
) -> Vec<Sketch> {
    let mut built_in: Vec<Box<dyn SketchRule>> = vec![Box::new(RuleAlwaysInline)];
    if rules.structural {
        // Rfactor must be tried before tiling rules: a reduction-heavy node
        // with a fusible consumer (e.g. the 2-norm's sqrt) would otherwise
        // be consumed by the fusion rule's ApplyAndSkipRest.
        built_in.push(Box::new(RuleAddRfactor));
    }
    if rules.fusion {
        built_in.push(Box::new(RuleMultiLevelTilingWithFusion));
    }
    if rules.structural {
        built_in.push(Box::new(RuleAddCacheWrite));
    }
    built_in.push(Box::new(RuleMultiLevelTiling));
    let init = Working {
        state: State::new(task.dag.clone()),
        splits: Vec::new(),
        rfactors: Vec::new(),
        compute_ats: Vec::new(),
        i: task.dag.nodes.len() as i64 - 1,
        rule_chain: Vec::new(),
    };
    let mut queue = vec![init];
    let mut done = Vec::new();
    while let Some(ws) = queue.pop() {
        if ws.i < 0 {
            done.push(ws);
            continue;
        }
        let mut applied = false;
        let mut stop = false;
        for rule in user_rules
            .iter()
            .copied()
            .chain(built_in.iter().map(|b| b.as_ref()))
        {
            match rule.apply(&ws, task) {
                RuleResult::Pass => {}
                RuleResult::Apply(mut succ) => {
                    applied = true;
                    for s in &mut succ {
                        s.rule_chain.push(rule.name());
                    }
                    queue.extend(succ);
                }
                RuleResult::ApplyAndSkipRest(mut succ) => {
                    applied = true;
                    stop = true;
                    for s in &mut succ {
                        s.rule_chain.push(rule.name());
                    }
                    queue.extend(succ);
                }
            }
            if stop {
                break;
            }
        }
        if !applied {
            // Rule 1: Skip.
            queue.push(Working { i: ws.i - 1, ..ws });
        }
    }
    done.into_iter()
        .map(|ws| Sketch {
            steps: ws.state.steps,
            splits: ws.splits,
            rfactors: ws.rfactors,
            compute_ats: ws.compute_ats,
            rule_chain: ws.rule_chain,
        })
        .collect()
}

fn node_name(ws: &Working) -> Name {
    ws.state.dag.name_of(ws.i as usize)
}

fn is_inlinable(ws: &Working) -> bool {
    let i = ws.i as usize;
    ws.state.dag.is_strict_inlinable(i) && !ws.state.dag.consumers(i).is_empty()
}

/// Rule 2: always inline strictly-inlinable nodes.
struct RuleAlwaysInline;

impl SketchRule for RuleAlwaysInline {
    fn name(&self) -> &'static str {
        "always-inline"
    }

    fn apply(&self, ws: &Working, _task: &SearchTask) -> RuleResult {
        if !is_inlinable(ws) {
            return RuleResult::Pass;
        }
        let mut next = ws.clone();
        let node = node_name(ws);
        if next.state.apply(Step::ComputeInline { node }).is_err() {
            return RuleResult::Pass;
        }
        next.i -= 1;
        RuleResult::ApplyAndSkipRest(vec![next])
    }
}

/// Part `level` of every axis in `axes`: one tile level of a loop nest.
fn level(axes: &[Name], level: usize) -> impl Iterator<Item = Name> + '_ {
    axes.iter().map(move |a| a.part(level))
}

/// Applies the multi-level tile structure (Rule 3's core): "SSRSRS" on CPU
/// and "SSSRRS" on GPU, where the first three space levels become the
/// blockIdx / vthread / threadIdx bindings. Returns the recorded
/// split-variable indices per spatial axis.
fn apply_multi_level_tiling(
    ws: &mut Working,
    nid: NodeId,
    gpu: bool,
) -> Result<Vec<usize>, tensor_ir::Error> {
    let dag = Arc::clone(&ws.state.dag);
    let node = dag.name_of(nid);
    let spec = dag.nodes[nid]
        .compute()
        .ok_or_else(|| tensor_ir::Error::Invalid("tiling a placeholder".into()))?;
    let (spatial, reduce) = dag.axes(nid).split_at(spec.num_spatial());
    let mut spatial_vars = Vec::new();
    for (a, &iter) in spatial.iter().enumerate() {
        let step_idx = ws.state.steps.len();
        ws.state.apply(Step::Split {
            node,
            iter,
            lengths: vec![1, 1, 1],
        })?;
        spatial_vars.push(ws.splits.len());
        ws.splits.push(SplitVar::drawn(step_idx, spec.shape[a], 3));
    }
    for (a, &iter) in reduce.iter().enumerate() {
        let step_idx = ws.state.steps.len();
        ws.state.apply(Step::Split {
            node,
            iter,
            lengths: vec![1],
        })?;
        ws.splits
            .push(SplitVar::drawn(step_idx, spec.reduce_extents[a], 1));
    }
    // CPU: S S R S R S — (s.0*, s.1*, r.0*, s.2*, r.1*, s.3*).
    // GPU: S S S R R S — (s.0*, s.1*, s.2*, r.0*, r.1*, s.3*), the first
    // three space levels feeding blockIdx / vthread / threadIdx.
    let mut order: Vec<Name> = Vec::new();
    let spatial_levels = if gpu { 3 } else { 2 };
    for lvl in 0..spatial_levels {
        order.extend(level(spatial, lvl));
    }
    order.extend(level(reduce, 0));
    if !gpu {
        order.extend(level(spatial, 2));
    }
    order.extend(level(reduce, 1));
    order.extend(level(spatial, 3));
    ws.state.apply(Step::Reorder { node, order })?;
    Ok(spatial_vars)
}

/// On GPU targets, fuse the first three space levels of `host` and bind
/// them to `blockIdx` / virtual threads / `threadIdx` (the paper's GPU
/// variant of the tile structure).
fn gpu_fuse_and_bind(
    ws: &mut Working,
    host: Name,
    level_names: [Vec<Name>; 3],
) -> Result<(), tensor_ir::Error> {
    use tensor_ir::Annotation;
    for (names, ann) in level_names.into_iter().zip([
        Annotation::BindBlock,
        Annotation::BindVthread,
        Annotation::BindThread,
    ]) {
        let iter = if names.len() >= 2 {
            ws.state.apply(Step::Fuse {
                node: host,
                iters: names.clone(),
            })?;
            Name::fused(&names)
        } else {
            names[0]
        };
        ws.state.apply(Step::Annotate {
            node: host,
            iter,
            ann,
        })?;
    }
    Ok(())
}

/// The names of node `id`'s spatial axes.
fn spatial_axes(dag: &ComputeDag, id: NodeId) -> &[Name] {
    let n = dag.nodes[id].compute().map_or(0, |c| c.num_spatial());
    &dag.axes(id)[..n]
}

/// The three tile levels of `axes` a GPU kernel binds.
fn gpu_levels(axes: &[Name]) -> [Vec<Name>; 3] {
    [0, 1, 2].map(|lvl| level(axes, lvl).collect())
}

/// Rule 4: multi-level tiling with fusion of the (single) element-wise
/// consumer.
struct RuleMultiLevelTilingWithFusion;

impl SketchRule for RuleMultiLevelTilingWithFusion {
    fn name(&self) -> &'static str {
        "multi-level-tiling-with-fusion"
    }

    fn apply(&self, ws: &Working, task: &SearchTask) -> RuleResult {
        let i = ws.i as usize;
        if !ws.state.dag.has_data_reuse(i) {
            return RuleResult::Pass;
        }
        // Follow the element-wise consumer chain through inlined nodes
        // (conv → bn → relu fuses the conv into the relu's loop nest).
        let mut consumer = match ws.state.dag.fusible_consumer(i) {
            Some(c) => c,
            None => return RuleResult::Pass,
        };
        loop {
            let csid = ws.state.stage_of_node(consumer).unwrap();
            match ws.state.stages[csid].loc {
                tensor_ir::ComputeLoc::Root => break,
                tensor_ir::ComputeLoc::Inlined => match ws.state.dag.fusible_consumer(consumer) {
                    Some(c) => consumer = c,
                    None => return RuleResult::Pass,
                },
                _ => return RuleResult::Pass,
            }
        }
        let mut next = ws.clone();
        let node = node_name(ws);
        let cons = next.state.dag.name_of(consumer);
        let result = (|| -> Result<(), tensor_ir::Error> {
            let gpu = task.is_gpu();
            let producer_vars = apply_multi_level_tiling(&mut next, i, gpu)?;
            // Tile the consumer's spatial axes to follow the producer's
            // outer levels (two on CPU, three on GPU).
            let dag = Arc::clone(&next.state.dag);
            let spatial = spatial_axes(&dag, consumer);
            let nparts = if gpu { 3 } else { 2 };
            for (a, &iter) in spatial.iter().enumerate() {
                let step_idx = next.state.steps.len();
                next.state.apply(Step::Split {
                    node: cons,
                    iter,
                    lengths: vec![1; nparts],
                })?;
                next.splits.push(SplitVar {
                    step: step_idx,
                    extent: dag.nodes[consumer].shape()[a],
                    nparts,
                    follow: Some(producer_vars[a]),
                    follow_rfactor: None,
                    divisors: Vec::new(),
                });
            }
            let order = (0..=nparts).flat_map(|lvl| level(spatial, lvl)).collect();
            next.state.apply(Step::Reorder { node: cons, order })?;
            let n = spatial.len();
            if gpu {
                // Fuse+bind the shared three levels on both stages so the
                // compute_at prefix stays loop-for-loop compatible.
                let levels = gpu_levels(spatial);
                if n >= 2 {
                    for level in &levels {
                        next.state.apply(Step::Fuse {
                            node,
                            iters: level.clone(),
                        })?;
                    }
                }
                gpu_fuse_and_bind(&mut next, cons, levels)?;
                let step_idx = next.state.steps.len();
                next.state.apply(Step::ComputeAt {
                    node,
                    target: cons,
                    prefix_len: 3.min(n * 3),
                })?;
                next.compute_ats.push(step_idx);
            } else {
                let step_idx = next.state.steps.len();
                next.state.apply(Step::ComputeAt {
                    node,
                    target: cons,
                    prefix_len: 2 * n,
                })?;
                next.compute_ats.push(step_idx);
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                next.i -= 1;
                RuleResult::ApplyAndSkipRest(vec![next])
            }
            Err(_) => RuleResult::Pass,
        }
    }
}

/// Rule 3: multi-level tiling without fusion.
struct RuleMultiLevelTiling;

impl SketchRule for RuleMultiLevelTiling {
    fn name(&self) -> &'static str {
        "multi-level-tiling"
    }

    fn apply(&self, ws: &Working, task: &SearchTask) -> RuleResult {
        let i = ws.i as usize;
        if !ws.state.dag.has_data_reuse(i) {
            return RuleResult::Pass;
        }
        let mut next = ws.clone();
        let node = node_name(ws);
        let result = (|| -> Result<(), tensor_ir::Error> {
            let gpu = task.is_gpu();
            apply_multi_level_tiling(&mut next, i, gpu)?;
            if gpu {
                let levels = gpu_levels(spatial_axes(&next.state.dag, i));
                gpu_fuse_and_bind(&mut next, node, levels)?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                next.i -= 1;
                RuleResult::ApplyAndSkipRest(vec![next])
            }
            Err(_) => RuleResult::Pass,
        }
    }
}

/// Rule 5: add a cache-write stage when a data-reuse node lacks a fusible
/// consumer; the cache stage then takes the tiling-with-fusion path.
struct RuleAddCacheWrite;

impl SketchRule for RuleAddCacheWrite {
    fn name(&self) -> &'static str {
        "add-cache-write"
    }

    fn apply(&self, ws: &Working, _task: &SearchTask) -> RuleResult {
        let i = ws.i as usize;
        if !ws.state.dag.has_data_reuse(i) || ws.state.dag.has_fusible_consumer(i) {
            return RuleResult::Pass;
        }
        let mut next = ws.clone();
        let node = node_name(ws);
        if next.state.apply(Step::CacheWrite { node }).is_err() {
            return RuleResult::Pass;
        }
        // The cache node now sits at index i; process it next (i' = i).
        RuleResult::Apply(vec![next])
    }
}

/// Rule 6: reduction factorization (rfactor) for reduction-heavy nodes.
struct RuleAddRfactor;

impl SketchRule for RuleAddRfactor {
    fn name(&self) -> &'static str {
        "add-rfactor"
    }

    fn apply(&self, ws: &Working, _task: &SearchTask) -> RuleResult {
        let i = ws.i as usize;
        if !ws.state.dag.has_more_reduction_parallel(i) {
            return RuleResult::Pass;
        }
        let extent = match ws.state.dag.nodes[i].compute() {
            Some(s) if s.reduce_extents.len() == 1 => s.reduce_extents[0],
            _ => return RuleResult::Pass,
        };
        let mut next = ws.clone();
        let node = node_name(ws);
        let step_idx = next.state.steps.len();
        // Placeholder factor 1; annotation samples the real factor.
        if next.state.apply(Step::Rfactor { node, factor: 1 }).is_err() {
            return RuleResult::Pass;
        }
        let rf_idx = next.rfactors.len();
        next.rfactors.push(RfactorVar {
            step: step_idx,
            extent,
            divisors: divisors(extent),
        });
        // Shape the rfactor stage like the paper's Sketch 3: split the
        // factored spatial axis `k_i` and order (spatial…, k_i.0, k_o,
        // k_i.1) so annotation can parallelize k_i.0 and vectorize k_i.1.
        // The rfactor stage is the node inserted at `i`.
        let dag = Arc::clone(&next.state.dag);
        let rf_name = dag.name_of(i);
        let Some(rf_spec) = dag.nodes[i].compute() else {
            next.i -= 1;
            return RuleResult::Apply(vec![next]);
        };
        let n_sp = rf_spec.num_spatial();
        let axes = dag.axes(i);
        let (ki, ko) = (axes[n_sp - 1], axes[n_sp]);
        let split_step = next.state.steps.len();
        let split_ok = next
            .state
            .apply(Step::Split {
                node: rf_name,
                iter: ki,
                lengths: vec![1],
            })
            .is_ok();
        if split_ok {
            next.splits.push(SplitVar {
                step: split_step,
                extent: 1, // dynamic: equals the sampled rfactor factor
                nparts: 1,
                follow: None,
                follow_rfactor: Some(rf_idx),
                divisors: Vec::new(),
            });
            let mut order: Vec<Name> = axes[..n_sp - 1].to_vec();
            order.extend([ki.part(0), ko, ki.part(1)]);
            let _ = next.state.apply(Step::Reorder {
                node: rf_name,
                order,
            });
        }
        next.i -= 1;
        RuleResult::Apply(vec![next])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::HardwareTarget;
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn matmul_relu_task(target: HardwareTarget) -> SearchTask {
        // Figure 5, example input 1: C = A·B; D = relu(C).
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[512, 512]);
        let w = b.placeholder("B", &[512, 512]);
        let c = b.compute_reduce("C", &[512, 512], &[512], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[512, 512], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        SearchTask::new("matmul_relu", Arc::new(b.build().unwrap()), target)
    }

    #[test]
    fn matmul_relu_generates_fused_tiling_sketch() {
        // Paper derivation of Generated Sketch 1:
        //   (S0, i=D) -Rule1-> (S1, i=C) -Rule4-> ... -> Sketch 1
        let task = matmul_relu_task(HardwareTarget::intel_20core());
        let sketches = generate_sketches(&task);
        assert!(!sketches.is_empty());
        // At least one sketch computes C at D with the 10-level loop nest.
        let fused = sketches.iter().find(|s| {
            s.steps
                .iter()
                .any(|st| matches!(st, Step::ComputeAt { node, target, .. } if node == "C" && target == "D"))
        });
        let sketch = fused.expect("rule 4 sketch exists");
        let st = sketch.replay(task.dag.clone()).unwrap();
        let c = st.stage_by_node_name("C").unwrap();
        // 10-level SSRSRS nest: i.0 j.0 i.1 j.1 k.0 i.2 j.2 k.1 i.3 j.3.
        assert_eq!(st.stages[c].loop_order.len(), 10);
        let names: Vec<&str> = st.stages[c]
            .loop_order
            .iter()
            .map(|&it| st.stages[c].iters[it].name.as_str())
            .collect();
        assert_eq!(
            names,
            ["i.0", "j.0", "i.1", "j.1", "k.0", "i.2", "j.2", "k.1", "i.3", "j.3"]
        );
    }

    #[test]
    fn fig5_example2_derivations_cover_cache_and_rfactor() {
        // Figure 5, example input 2: B = relu(A); C = pad(B); E = C·D.
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8, 400]);
        let d = b.placeholder("D", &[512, 4]);
        let relu = b.compute("B", &[8, 400], |ax| {
            Expr::max(
                Expr::load(a, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        let pad = b.compute("C", &[8, 512], |ax| {
            Expr::select(
                Expr::cmp(tensor_ir::CmpOp::Lt, ax[1].clone(), Expr::int(400)),
                Expr::load(relu, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        b.compute_reduce("E", &[8, 4], &[512], Reducer::Sum, |ax| {
            Expr::load(pad, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(d, vec![ax[2].clone(), ax[1].clone()])
        });
        let task = SearchTask::new(
            "pad_matmul",
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        );
        let sketches = generate_sketches(&task);
        // Sketch 2 path: cache write on E, then tiling+fusion of E.cache.
        assert!(
            sketches.iter().any(|s| {
                s.steps.iter().any(|st| matches!(st, Step::CacheWrite { node } if node == "E"))
                    && s.steps.iter().any(|st| matches!(
                        st,
                        Step::ComputeAt { node, target, .. } if node == "E.cache" && target == "E"
                    ))
            }),
            "cache-write sketch missing"
        );
        // Sketch 3 path: rfactor on E.
        assert!(
            sketches.iter().any(|s| s.rfactors.len() == 1
                && s.steps
                    .iter()
                    .any(|st| matches!(st, Step::Rfactor { node, .. } if node == "E"))),
            "rfactor sketch missing"
        );
        // Every sketch is structurally valid and replays.
        for s in &sketches {
            let st = s.replay(task.dag.clone()).unwrap();
            st.validate().unwrap();
        }
    }

    #[test]
    fn pad_is_not_fusible_but_relu_inlines() {
        // The padding node C accesses B with identity indices but its own
        // consumer E reads it with reduction indices, so C inlines into E
        // and B inlines into C.
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8, 512]);
        let relu = b.compute("B", &[8, 512], |ax| {
            Expr::max(
                Expr::load(a, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        let d = b.placeholder("D", &[512, 4]);
        b.compute_reduce("E", &[8, 4], &[512], Reducer::Sum, |ax| {
            Expr::load(relu, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(d, vec![ax[2].clone(), ax[1].clone()])
        });
        let task = SearchTask::new(
            "relu_matmul",
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        );
        let sketches = generate_sketches(&task);
        assert!(sketches.iter().all(|s| {
            s.steps
                .iter()
                .any(|st| matches!(st, Step::ComputeInline { node } if node == "B"))
        }));
    }

    #[test]
    fn gpu_sketches_bind_threads() {
        let task = matmul_relu_task(HardwareTarget::nvidia_v100());
        let sketches = generate_sketches(&task);
        assert!(!sketches.is_empty());
        for s in &sketches {
            let has_bind = s.steps.iter().any(|st| {
                matches!(
                    st,
                    Step::Annotate {
                        ann: tensor_ir::Annotation::BindThread,
                        ..
                    }
                )
            });
            assert!(has_bind, "GPU sketch without thread binding: {:?}", s.steps);
            let st = s.replay(task.dag.clone()).unwrap();
            st.validate().unwrap();
        }
    }

    #[test]
    fn user_rule_is_tried_first() {
        struct MarkerRule;
        impl SketchRule for MarkerRule {
            fn name(&self) -> &'static str {
                "marker"
            }
            fn apply(&self, ws: &Working, _task: &SearchTask) -> RuleResult {
                // Apply a pragma to every compute node, then let the
                // built-ins continue from i-1.
                let i = ws.i as usize;
                if ws.state.dag.nodes[i].compute().is_none() {
                    return RuleResult::Pass;
                }
                let mut next = ws.clone();
                next.state
                    .apply(Step::Pragma {
                        node: node_name(ws),
                        max_unroll: 7,
                    })
                    .unwrap();
                next.i -= 1;
                RuleResult::ApplyAndSkipRest(vec![next])
            }
        }
        let task = matmul_relu_task(HardwareTarget::intel_20core());
        let sketches = generate_sketches_with_rules(&task, &[&MarkerRule]);
        assert!(!sketches.is_empty());
        for s in &sketches {
            assert!(s
                .steps
                .iter()
                .any(|st| matches!(st, Step::Pragma { max_unroll: 7, .. })));
        }
        // The provenance chain records the user rule under its own name.
        for s in &sketches {
            assert!(s.rule_chain.contains(&"marker"));
        }
    }

    #[test]
    fn sketches_record_their_derivation_chain() {
        let task = matmul_relu_task(HardwareTarget::intel_20core());
        let known = [
            "always-inline",
            "add-rfactor",
            "multi-level-tiling-with-fusion",
            "add-cache-write",
            "multi-level-tiling",
        ];
        let sketches = generate_sketches(&task);
        assert!(!sketches.is_empty());
        for (k, s) in sketches.iter().enumerate() {
            assert!(
                !s.rule_chain.is_empty(),
                "sketch {k} has an empty rule chain"
            );
            for r in &s.rule_chain {
                assert!(known.contains(r), "unknown rule name {r}");
            }
        }
        // matmul+relu always admits the fused multi-level tiling sketch.
        assert!(sketches
            .iter()
            .any(|s| s.rule_chain.contains(&"multi-level-tiling-with-fusion")));
    }
}
