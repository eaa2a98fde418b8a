//! Evolutionary fine-tuning (§5.1).
//!
//! Starting from sampled programs (plus good programs from previous
//! measurement rounds), evolution repeatedly selects parents with
//! probability proportional to their cost-model fitness and applies one of
//! the paper's operators:
//!
//! - **tile-size mutation** — move a factor between two levels of one tiled
//!   loop (the product, hence validity, is preserved), updating any
//!   follow-splits so fused stages stay compatible;
//! - **annotation mutation** — resample the parallel / vectorize / unroll
//!   annotations on top of the same tile structure (granularity changes);
//! - **computation-location mutation** — move a `compute_at` to a different
//!   shared-prefix depth;
//! - **node-based crossover** — merge the per-node rewriting-step groups of
//!   two parents, taking each node's steps from the parent whose cost-model
//!   score for that node is higher; merged programs are re-validated by
//!   replaying the steps (out-of-order rewrites that break dependencies are
//!   rejected).
//!
//! A mutation finds the sketch's tunable steps by position, so [`mutate`]
//! first checks that the parent's steps start with its sketch's. Tile-size
//! mutation then edits the parent's whole step list; the other three replay
//! an edited copy of its first `sketch.steps.len()` steps and redraw every
//! annotation on top. Crossover keeps each split's position but not the
//! order of the other steps, so a crossover child can pass the check with
//! an annotation step inside that prefix (see `is_sketch_aligned`).

use std::collections::HashSet;
use std::sync::Arc;

use rand::prelude::*;
use tensor_ir::{State, Step};

use crate::annotate::{annotate_state, follow_lengths, AnnotationConfig};
use crate::cost_model::CostModel;
use crate::lineage::{Lineage, Operator};
use crate::search_task::SearchTask;
use crate::sketch::Sketch;

/// A candidate program: a fully annotated state, the index of the sketch
/// whose steps it starts with (mutation finds the tunable splits there; a
/// wrong index only makes [`mutate`] decline it), and the provenance record
/// of how it was derived. The sketch index is also its one link to the
/// sketch-rule chain that derived it ([`Individual::rules`]).
///
/// The state is built once, by the operator that proposes the candidate,
/// and from then on held behind a shared handle: the population, the
/// best-so-far set, a fallback lane and the policy's retained best all
/// hold the same program, and `clone()` copies the handle and the lineage,
/// never the state.
#[derive(Debug, Clone)]
pub struct Individual {
    /// Complete program state.
    pub state: Arc<State>,
    /// Index into the task's sketch list.
    pub sketch: usize,
    /// Provenance: generating operator, generation, parent signature(s).
    /// Plain data, carried unconditionally.
    pub lineage: Lineage,
}

impl Individual {
    /// Builds an individual with an unknown ([`Operator::Seed`]) lineage —
    /// for callers outside the search loop (tests, benches, baselines).
    pub fn new(state: State, sketch: usize) -> Individual {
        Individual {
            state: Arc::new(state),
            sketch,
            lineage: Lineage::default(),
        }
    }

    /// Stable content signature for deduplication — the key of the
    /// measurement and cost-model score caches (see `ansor-runtime`).
    pub fn signature(&self) -> u64 {
        self.state.signature()
    }

    /// The rule chain of the sketch this candidate was derived in, read from
    /// the task's sketch list; none for an [`Operator::Seed`], whose sketch
    /// index is a guess (a warm start's first aligned sketch).
    pub fn rules<'s>(&self, sketches: &'s [Sketch]) -> &'s [&'static str] {
        match (self.lineage.op, sketches.get(self.sketch)) {
            (Operator::Seed, _) | (_, None) => &[],
            (_, Some(sketch)) => &sketch.rule_chain,
        }
    }
}

/// Evolution hyper-parameters.
#[derive(Debug, Clone)]
pub struct EvolutionConfig {
    /// Population size per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of crossover (vs. mutation) for each offspring.
    pub crossover_prob: f64,
    /// Annotation policy used when re-annotating.
    pub annotation: AnnotationConfig,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            population: 128,
            generations: 4,
            crossover_prob: 0.15,
            annotation: AnnotationConfig::default(),
        }
    }
}

/// Counters describing one [`evolutionary_search_with_stats`] invocation
/// (for the tuning trace's `EvolutionStats` event).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvolutionStats {
    /// Generations actually run.
    pub generations: u64,
    /// Offspring successfully produced by a mutation operator.
    pub mutations_applied: u64,
    /// Offspring successfully produced by crossover.
    pub crossovers_applied: u64,
    /// Best (highest) cost-model score seen across all generations.
    pub best_predicted: f64,
}

/// One lane's result: the individual landing at that population index,
/// plus the flags the fold needs to tally [`EvolutionStats`].
/// `fresh` is false when every operator failed and the lane fell back to
/// its parent (the same program by handle; not tallied).
#[derive(Debug, Clone)]
pub struct Offspring {
    /// The individual produced by this lane.
    pub individual: Individual,
    /// Whether an operator actually produced a new program (vs. falling
    /// back to the parent).
    pub fresh: bool,
}

/// Runs evolutionary search and returns the `top_k` best individuals found
/// (ranked by the cost model, deduplicated) with operator statistics. It
/// skips `banned` signatures (quarantined terminally-failed states — they
/// may still breed, but are never returned as candidates).
///
/// `evolution_seed` is the root of the per-generation offspring RNG
/// streams: generation `g`'s lanes draw from
/// `derive_seed(derive_seed(evolution_seed, g), lane)` (docs/PARALLELISM.md).
/// `rng` only drives tournament picks and crossover decisions.
#[allow(clippy::too_many_arguments)]
pub fn evolutionary_search_with_stats(
    task: &SearchTask,
    sketches: &[Sketch],
    init: Vec<Individual>,
    model: &dyn CostModel,
    cfg: &EvolutionConfig,
    top_k: usize,
    banned: &HashSet<u64>,
    evolution_seed: u64,
    rng: &mut impl Rng,
) -> (Vec<Individual>, EvolutionStats) {
    evolve(
        task,
        sketches,
        init,
        model,
        cfg,
        top_k,
        banned,
        evolution_seed,
        rng,
        &mut |_, _, _| {},
    )
}

/// The search loop proper, with a per-generation `observer` hook
/// `(generation, offspring, stats)` invoked once each generation's
/// offspring are stamped, before they replace the population: the search
/// policy's efficacy funnel counts the fresh ones (a fallback lane's parent
/// may carry any generation number from an earlier round).
#[allow(clippy::too_many_arguments)]
pub(crate) fn evolve(
    task: &SearchTask,
    sketches: &[Sketch],
    init: Vec<Individual>,
    model: &dyn CostModel,
    cfg: &EvolutionConfig,
    top_k: usize,
    banned: &HashSet<u64>,
    evolution_seed: u64,
    rng: &mut impl Rng,
    observer: &mut dyn FnMut(u64, &[Offspring], &EvolutionStats),
) -> (Vec<Individual>, EvolutionStats) {
    assert!(!init.is_empty(), "evolution needs a non-empty population");
    let mut stats = EvolutionStats {
        best_predicted: f64::NEG_INFINITY,
        ..Default::default()
    };
    let mut population = init;
    population.truncate(cfg.population);
    // Best-so-far set across generations.
    let mut best: Vec<(f64, Individual)> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();

    for gen in 0..=cfg.generations {
        let state_refs: Vec<&State> = population.iter().map(|p| &*p.state).collect();
        let scores = model.predict_refs(task, &state_refs);
        // The offspring are bred while the population is still whole; it is
        // then moved, not copied, into the best-so-far set.
        let offspring = (gen < cfg.generations).then(|| {
            let generation_seed = ansor_runtime::derive_seed(evolution_seed, gen as u64);
            produce_generation(
                task,
                sketches,
                &population,
                &scores,
                model,
                cfg,
                generation_seed,
                rng,
            )
        });
        for (ind, score) in population.into_iter().zip(scores) {
            if !score.is_finite() {
                continue;
            }
            let sig = ind.signature();
            if banned.contains(&sig) {
                continue;
            }
            if seen.insert(sig) {
                best.push((score, ind));
            }
        }
        best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        best.truncate(4 * top_k.max(8));
        let Some(mut offspring) = offspring else {
            break;
        };
        stats.generations += 1;
        for off in &mut offspring {
            if off.fresh {
                off.individual.lineage.generation = stats.generations;
                match off.individual.lineage.op {
                    Operator::Crossover => stats.crossovers_applied += 1,
                    _ => stats.mutations_applied += 1,
                }
            }
        }
        observer(stats.generations, &offspring, &stats);
        // A fresh vector, not the offspring's buffer collected in place:
        // that one is sized for the larger `Offspring`.
        population = Vec::with_capacity(offspring.len());
        population.extend(offspring.into_iter().map(|off| off.individual));
    }
    if let Some((score, _)) = best.first() {
        stats.best_predicted = *score;
    }
    best.truncate(top_k);
    (best.into_iter().map(|(_, ind)| ind).collect(), stats)
}

/// Produces one generation of offspring, one per population slot.
///
/// Tournament picks and the crossover-vs-mutation coin are drawn from
/// `rng`; the operators themselves draw from the lane's own stream,
/// `derive_seed(generation_seed, lane)`, so a lane's offspring depends on
/// its index and its picks, never on how many draws other lanes made.
#[allow(clippy::too_many_arguments)]
pub fn produce_generation(
    task: &SearchTask,
    sketches: &[Sketch],
    population: &[Individual],
    scores: &[f64],
    model: &dyn CostModel,
    cfg: &EvolutionConfig,
    generation_seed: u64,
    rng: &mut impl Rng,
) -> Vec<Offspring> {
    // Fitness-proportional selection weights.
    let min = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(f64::INFINITY, f64::min);
    let weights: Vec<f64> = scores
        .iter()
        .map(|&s| if s.is_finite() { s - min + 1e-9 } else { 0.0 })
        .collect();
    let total: f64 = weights.iter().sum();
    let pick = |rng: &mut dyn RngCore| -> usize {
        if total <= 0.0 {
            // Unbiased uniform fallback (rejection sampling via
            // `gen_range`, not `next_u64() % len` which skews low
            // indices for non-power-of-two populations).
            return rng.gen_range(0..population.len());
        }
        let mut t = (rng.next_u64() as f64 / u64::MAX as f64) * total;
        for (i, w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        population.len() - 1
    };
    (0..cfg.population)
        .map(|lane| {
            let parent = &population[pick(rng)];
            let partner = rng
                .gen_bool(cfg.crossover_prob)
                .then(|| &population[pick(rng)]);
            let mut lane_rng =
                StdRng::seed_from_u64(ansor_runtime::derive_seed(generation_seed, lane as u64));
            produce_lane(task, sketches, parent, partner, model, cfg, &mut lane_rng)
        })
        .collect()
}

/// One offspring lane: crossover if planned (falling back to mutation on
/// failure), else mutation; the parent itself if every operator fails.
fn produce_lane(
    task: &SearchTask,
    sketches: &[Sketch],
    parent: &Individual,
    partner: Option<&Individual>,
    model: &dyn CostModel,
    cfg: &EvolutionConfig,
    rng: &mut impl Rng,
) -> Offspring {
    if let Some(partner) = partner {
        if let Some(child) = crossover(task, parent, partner, model) {
            return Offspring {
                individual: child,
                fresh: true,
            };
        }
    }
    match mutate(task, sketches, parent, &cfg.annotation, rng) {
        Some(child) => Offspring {
            individual: child,
            fresh: true,
        },
        // Every operator failed: the lane carries its parent on, by handle
        // and with the parent's lineage.
        None => Offspring {
            individual: parent.clone(),
            fresh: false,
        },
    }
}

/// Applies one random mutation operator; `None` when the mutation failed to
/// produce a valid program, or when the parent's steps do not start with its
/// sketch's (a sketch index that names another sketch or none): the one
/// check every operator relies on to find the sketch's steps in place.
pub fn mutate(
    task: &SearchTask,
    sketches: &[Sketch],
    parent: &Individual,
    ann_cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<Individual> {
    let sketch = sketches.get(parent.sketch)?;
    if !is_sketch_aligned(sketch, &parent.state.steps) {
        return None;
    }
    match rng.gen_range(0..4) {
        0 => mutate_tile_size(task, sketch, parent, rng),
        // Annotation mutation: keep the tile structure, resample annotations.
        1 => {
            let structural = parent.state.steps[..sketch.steps.len()].to_vec();
            let op = Operator::MutateAnnotation;
            reannotate(task, parent, structural, op, ann_cfg, rng)
        }
        2 => mutate_location(task, sketch, parent, ann_cfg, rng),
        _ => mutate_rfactor_or_tile(task, sketch, parent, ann_cfg, rng),
    }
}

/// Whether `steps` starts with the sketch's own steps, tunable splits in
/// place: at least as many steps as the sketch, and each tunable split's
/// index holds a split of the same node and iterator into as many parts.
///
/// Only the splits are compared, so a list whose other steps moved still
/// passes. Crossover makes such lists: it splices a won cluster's steps,
/// annotations included, at the position of the parent's first step of
/// that cluster. On conv sketches, whose last structural step inlines the
/// padding stage, that puts fuse and annotation steps ahead of the inline,
/// and a re-annotating operator, which replays the first
/// `sketch.steps.len()` steps, drops the inline and leaves the padding at
/// root (ROADMAP item 21).
pub(crate) fn is_sketch_aligned(sketch: &Sketch, steps: &[Step]) -> bool {
    steps.len() >= sketch.steps.len()
        && sketch
            .splits
            .iter()
            .all(|sv| match (&steps[sv.step], &sketch.steps[sv.step]) {
                (
                    Step::Split {
                        node,
                        iter,
                        lengths,
                    },
                    Step::Split {
                        node: snode,
                        iter: siter,
                        ..
                    },
                ) => node == snode && iter == siter && lengths.len() == sv.nparts,
                _ => false,
            })
}

/// The lengths of a tunable split, in a step list that [`is_sketch_aligned`]
/// accepts.
fn split_lengths<'a>(steps: &'a [Step], sv: &crate::sketch::SplitVar) -> &'a [i64] {
    match &steps[sv.step] {
        Step::Split { lengths, .. } => lengths,
        _ => unreachable!("a sketch-aligned step list has a split there"),
    }
}

/// Patches follower splits after their leader changed.
fn refresh_followers(sketch: &Sketch, steps: &mut [Step]) {
    for sv in &sketch.splits {
        if let Some(leader) = sv.follow {
            let l = follow_lengths(split_lengths(steps, &sketch.splits[leader]), sv.nparts);
            if let Step::Split { lengths, .. } = &mut steps[sv.step] {
                *lengths = l;
            }
        }
    }
}

/// Tile-size mutation: divide one level of a tiled loop by a factor and
/// multiply it onto another level, keeping the product equal (§5.1).
fn mutate_tile_size(
    task: &SearchTask,
    sketch: &Sketch,
    parent: &Individual,
    rng: &mut impl Rng,
) -> Option<Individual> {
    let leaders: Vec<usize> = (0..sketch.splits.len())
        .filter(|&i| sketch.splits[i].follow.is_none() && sketch.splits[i].follow_rfactor.is_none())
        .collect();
    if leaders.is_empty() {
        return None;
    }
    let &li = leaders.choose(rng)?;
    let sv = &sketch.splits[li];
    let l = split_lengths(&parent.state.steps, sv);
    if l.is_empty() {
        return None;
    }
    // Positions: 0..nparts are the inner lengths; `nparts` denotes the
    // implicit outer part.
    let nparts = l.len();
    let outer = sv.extent / l.iter().product::<i64>();
    let from = rng.gen_range(0..=nparts);
    let to = rng.gen_range(0..=nparts);
    if from == to {
        return None;
    }
    let from_val = if from == nparts { outer } else { l[from] };
    let divs: Vec<i64> = crate::annotate::divisors(from_val)
        .into_iter()
        .filter(|&d| d > 1)
        .collect();
    let &d = divs.choose(rng)?;
    let mut l = l.to_vec();
    if from < nparts {
        l[from] /= d;
    }
    if to < nparts {
        l[to] *= d;
    }
    // (Moves involving the outer part only adjust inner lengths; the outer
    // extent is implicit.)
    // The child's genes: one copy of the parent's, edited, then moved in.
    let mut steps = parent.state.steps.clone();
    if let Step::Split { lengths, .. } = &mut steps[sv.step] {
        *lengths = l;
    }
    refresh_followers(sketch, &mut steps);
    let state = State::replay_owned(task.dag.clone(), steps).ok()?;
    if !crate::annotate::gpu_limits_ok(&state, task) {
        return None;
    }
    Some(mutant(state, Operator::MutateTileSize, parent))
}

/// Computation-location mutation: change a `compute_at`'s shared-prefix
/// depth, then re-annotate on the new structure.
fn mutate_location(
    task: &SearchTask,
    sketch: &Sketch,
    parent: &Individual,
    ann_cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<Individual> {
    if sketch.compute_ats.is_empty() || task.is_gpu() {
        return None;
    }
    let mut structural = parent.state.steps[..sketch.steps.len()].to_vec();
    let &ca = sketch.compute_ats.choose(rng)?;
    let Step::ComputeAt { prefix_len, .. } = &mut structural[ca] else {
        return None;
    };
    let built = match &sketch.steps[ca] {
        Step::ComputeAt { prefix_len, .. } => *prefix_len,
        _ => return None,
    };
    let choices: Vec<usize> = (1..=built).collect();
    *prefix_len = *choices.choose(rng)?;
    let op = Operator::MutateLocation;
    reannotate(task, parent, structural, op, ann_cfg, rng)
}

/// Rfactor-factor mutation (falls back to tile mutation for sketches
/// without an rfactor).
fn mutate_rfactor_or_tile(
    task: &SearchTask,
    sketch: &Sketch,
    parent: &Individual,
    ann_cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<Individual> {
    if sketch.rfactors.is_empty() {
        return mutate_tile_size(task, sketch, parent, rng);
    }
    let rf_idx = rng.gen_range(0..sketch.rfactors.len());
    let rv = &sketch.rfactors[rf_idx];
    let &factor = rv.factors().choose(rng)?;
    let mut structural = parent.state.steps[..sketch.steps.len()].to_vec();
    if let Step::Rfactor { factor: f, .. } = &mut structural[rv.step] {
        *f = factor;
    }
    // Resample splits whose extent is the rfactor factor.
    for sv in &sketch.splits {
        if sv.follow_rfactor == Some(rf_idx) {
            if let Step::Split { lengths, .. } = &mut structural[sv.step] {
                lengths.resize(sv.nparts, 1);
                crate::annotate::fill_lengths(&rv.divisors, factor, lengths, rng);
            }
        }
    }
    let op = Operator::MutateRfactorOrTile;
    reannotate(task, parent, structural, op, ann_cfg, rng)
}

/// The shared tail of the re-annotating operators: replays an edited copy
/// of the parent's first `sketch.steps.len()` steps, redraws every
/// annotation on top, and keeps the result if it fits the GPU's thread
/// limits.
fn reannotate(
    task: &SearchTask,
    parent: &Individual,
    structural: Vec<Step>,
    op: Operator,
    ann_cfg: &AnnotationConfig,
    rng: &mut impl Rng,
) -> Option<Individual> {
    let mut state = State::replay_owned(task.dag.clone(), structural).ok()?;
    annotate_state(&mut state, task, ann_cfg, rng).ok()?;
    if !crate::annotate::gpu_limits_ok(&state, task) {
        return None;
    }
    Some(mutant(state, op, parent))
}

/// Node-based crossover (§5.1): merge per-node step groups from two
/// parents, choosing each node's genes from the parent with the higher
/// per-node cost-model score, then verify by replaying.
pub fn crossover(
    task: &SearchTask,
    a: &Individual,
    b: &Individual,
    model: &dyn CostModel,
) -> Option<Individual> {
    if a.sketch != b.sketch {
        return None; // different high-level structures rarely merge cleanly
    }
    // Steps name nodes of the task's DAG (derived stages by their base
    // node), so genes are grouped by node index; `None` for a step list
    // that names anything else — it could not replay on this task.
    let node_of = |name: &str| task.dag.node_id(name.split('.').next().unwrap_or(name));
    let genes = |steps: &[Step]| -> Option<Vec<usize>> {
        steps.iter().map(|s| node_of(s.base_node())).collect()
    };
    let (genes_a, genes_b) = (genes(&a.state.steps)?, genes(&b.state.steps)?);
    // Cluster nodes that are coupled by compute_at (producer ↔ host): their
    // steps must travel together or tile ties break. A union-find over the
    // nodes either parent schedules; `ABSENT` marks the others.
    const ABSENT: usize = usize::MAX;
    let mut cluster = vec![ABSENT; task.dag.nodes.len()];
    fn root(cluster: &[usize], mut n: usize) -> usize {
        while cluster[n] != n {
            n = cluster[n];
        }
        n
    }
    for (steps, genes) in [(&a.state.steps, &genes_a), (&b.state.steps, &genes_b)] {
        for (s, &base) in steps.iter().zip(genes) {
            if cluster[base] == ABSENT {
                cluster[base] = base;
            }
            if let Step::ComputeAt { target, .. } = s {
                let tbase = node_of(target)?;
                if cluster[tbase] == ABSENT {
                    cluster[tbase] = tbase;
                }
                let (ra, rb) = (root(&cluster, base), root(&cluster, tbase));
                cluster[ra] = rb;
            }
        }
    }
    // From here on every scheduled node points straight at its cluster.
    for n in 0..cluster.len() {
        if cluster[n] != ABSENT {
            cluster[n] = root(&cluster, n);
        }
    }
    let scores_a = model.predict_per_node(task, &a.state);
    let scores_b = model.predict_per_node(task, &b.state);
    // Decide per cluster which parent wins: the members' scores, summed in
    // node order so the sums do not depend on any map's iteration order.
    let mut sums = vec![(0.0f64, 0.0f64); cluster.len()];
    for (node, &c) in task.dag.nodes.iter().zip(&cluster) {
        if c != ABSENT {
            sums[c].0 += scores_a.get(&node.name).copied().unwrap_or(0.0);
            sums[c].1 += scores_b.get(&node.name).copied().unwrap_or(0.0);
        }
    }
    // Indexed by cluster: whether B's genes replace A's.
    let take_b: Vec<bool> = sums.iter().map(|&(sa, sb)| sb > sa).collect();
    if !take_b.contains(&true) {
        return None; // offspring would equal parent A
    }
    // Splice: keep A's steps for A-clusters; replace B-clusters' steps (in
    // B's order) at the position of A's first step of that cluster.
    let mut merged: Vec<Step> = Vec::with_capacity(a.state.steps.len());
    let mut inserted = vec![false; cluster.len()];
    for (s, &base) in a.state.steps.iter().zip(&genes_a) {
        let c = cluster[base];
        if !take_b[c] {
            merged.push(s.clone());
        } else if !std::mem::replace(&mut inserted[c], true) {
            for (bs, &bbase) in b.state.steps.iter().zip(&genes_b) {
                if cluster[bbase] == c {
                    merged.push(bs.clone());
                }
            }
        }
    }
    // Verify the merged gene sequence by replaying it.
    let state = State::replay_owned(task.dag.clone(), merged).ok()?;
    state.validate().ok()?;
    Some(Individual {
        state: Arc::new(state),
        sketch: a.sketch,
        lineage: Lineage {
            op: Operator::Crossover,
            generation: 0, // overwritten by the evolution loop
            parents: vec![a.signature(), b.signature()],
        },
    })
}

/// A mutation offspring: the new state behind its handle, in its parent's
/// sketch, and a lineage of the operator and the parent's signature. The
/// generation number is filled in by the evolution loop (0 for direct
/// `mutate` callers).
fn mutant(state: State, op: Operator, parent: &Individual) -> Individual {
    Individual {
        state: Arc::new(state),
        sketch: parent.sketch,
        lineage: Lineage {
            op,
            generation: 0,
            parents: vec![parent.signature()],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::sample_program;
    use crate::cost_model::{LearnedCostModel, RandomModel};
    use crate::sketch::generate_sketches;
    use hwsim::{HardwareTarget, Measurer};
    use tensor_ir::{DagBuilder, Expr, Reducer};

    fn task() -> SearchTask {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[128, 128]);
        let w = b.constant("B", &[128, 128]);
        let c = b.compute_reduce("C", &[128, 128], &[128], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[128, 128], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        SearchTask::new(
            "mm_relu",
            Arc::new(b.build().unwrap()),
            HardwareTarget::intel_20core(),
        )
    }

    fn init_pop(task: &SearchTask, sketches: &[Sketch], n: usize, seed: u64) -> Vec<Individual> {
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < n {
            let id = rng.gen_range(0..sketches.len());
            if let Some(state) = sample_program(&sketches[id], task, &cfg, &mut rng) {
                out.push(Individual::new(state, id));
            }
        }
        out
    }

    #[test]
    fn mutation_offspring_carry_lineage() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 4, 3);
        let cfg = AnnotationConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen_ops = std::collections::BTreeSet::new();
        for p in &pop {
            for _ in 0..20 {
                if let Some(child) = mutate(&t, &sketches, p, &cfg, &mut rng) {
                    assert_eq!(child.lineage.parents, vec![p.signature()]);
                    assert_ne!(child.lineage.op, Operator::Seed);
                    assert_ne!(child.lineage.op, Operator::Crossover);
                    seen_ops.insert(child.lineage.op.name());
                }
            }
        }
        assert!(
            seen_ops.len() >= 2,
            "expected several operators to fire, saw {seen_ops:?}"
        );
    }

    #[test]
    fn evolution_children_get_generation_numbers_and_proposal_counts() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 16, 9);
        let model = RandomModel::new(0);
        let cfg = EvolutionConfig {
            population: 16,
            generations: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let banned = HashSet::new();
        let mut fresh = 0u64;
        let (best, stats) = evolve(
            &t,
            &sketches,
            pop,
            &model,
            &cfg,
            8,
            &banned,
            42,
            &mut rng,
            &mut |g, offspring, _| {
                for off in offspring.iter().filter(|off| off.fresh) {
                    assert_eq!(off.individual.lineage.generation, g);
                    fresh += 1;
                }
            },
        );
        let applied = stats.mutations_applied + stats.crossovers_applied;
        assert!(applied > 0);
        assert_eq!(fresh, applied, "every applied operator's child is seen");
        // Any non-seed survivor must have a generation within the run and
        // consistent parent counts for its operator.
        for ind in &best {
            assert!(ind.lineage.generation <= stats.generations);
            match ind.lineage.op {
                // init_pop members enter via Individual::new (Seed).
                Operator::Seed | Operator::InitPopulation => {
                    assert!(ind.lineage.parents.is_empty());
                    assert_eq!(ind.lineage.generation, 0);
                }
                Operator::Crossover => assert_eq!(ind.lineage.parents.len(), 2),
                _ => assert_eq!(ind.lineage.parents.len(), 1),
            }
        }
    }

    #[test]
    fn tile_mutation_preserves_validity_and_volume() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut mutated = 0;
        for p in &pop {
            for _ in 0..10 {
                if let Some(child) = mutate_tile_size(&t, &sketches[p.sketch], p, &mut rng) {
                    child.state.validate().unwrap();
                    mutated += 1;
                }
            }
        }
        assert!(mutated > 10, "only {mutated} successful tile mutations");
    }

    #[test]
    fn all_mutation_ops_yield_valid_programs() {
        // NRM on a GPU has rfactor sketches: every operator's children,
        // the rfactor operator's included, keep to the thread limits.
        let dag = ansor_workloads::build_case("NRM", 0, 4).unwrap();
        let nrm = SearchTask::new("NRM", dag, HardwareTarget::nvidia_v100());
        for (t, n) in [(task(), 4), (nrm, 8)] {
            let sketches = generate_sketches(&t);
            let pop = init_pop(&t, &sketches, n, 3);
            let cfg = AnnotationConfig::default();
            let mut rng = StdRng::seed_from_u64(4);
            let (mut ok, mut rfactor) = (0, 0);
            for p in &pop {
                for _ in 0..20 {
                    if let Some(child) = mutate(&t, &sketches, p, &cfg, &mut rng) {
                        child.state.validate().unwrap();
                        tensor_ir::lower(&child.state).unwrap();
                        assert!(crate::annotate::gpu_limits_ok(&child.state, &t));
                        ok += 1;
                        rfactor += (child.lineage.op == Operator::MutateRfactorOrTile
                            && !sketches[child.sketch].rfactors.is_empty())
                            as usize;
                    }
                }
            }
            assert!(ok > 30, "{}: only {ok} successful mutations", t.name);
            assert!(!t.is_gpu() || rfactor > 0, "no rfactor mutant");
        }
    }

    /// `mutate`'s one check: a parent whose sketch index names another
    /// sketch, or none, is declined whichever operator the draw picks.
    #[test]
    fn mutate_declines_a_parent_labeled_with_another_sketch() {
        let dag = ansor_workloads::build_case("GMM", 0, 1).unwrap();
        let t = SearchTask::new("GMM", dag, HardwareTarget::intel_20core());
        let sketches = generate_sketches(&t);
        assert_eq!(sketches.len(), 2);
        let cfg = AnnotationConfig::default();
        let mut ops = std::collections::BTreeSet::new();
        for p in &init_pop(&t, &sketches, 8, 6) {
            let other = 1 - p.sketch;
            assert!(!is_sketch_aligned(&sketches[other], &p.state.steps));
            for seed in 0..16 {
                for label in [other, sketches.len()] {
                    let mislabeled = Individual::new(State::clone(&p.state), label);
                    let mut rng = StdRng::seed_from_u64(seed);
                    assert!(mutate(&t, &sketches, &mislabeled, &cfg, &mut rng).is_none());
                }
                // The same draw on the right label picks these operators.
                let mut rng = StdRng::seed_from_u64(seed);
                if let Some(child) = mutate(&t, &sketches, p, &cfg, &mut rng) {
                    ops.insert((p.sketch, child.lineage.op.name()));
                }
            }
        }
        // Tile-size (also what an rfactor draw does here) and annotation
        // mutations on both sketches, location on the one with a compute_at.
        assert_eq!(ops.len(), 5, "operators exercised: {ops:?}");
    }

    #[test]
    fn crossover_produces_verified_offspring() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 12, 5);
        // Train a quick model so per-node scores differ.
        let mut model = LearnedCostModel::new();
        let mut measurer = Measurer::new(t.target.clone());
        let states: Vec<State> = pop.iter().map(|p| State::clone(&p.state)).collect();
        let secs: Vec<f64> = states.iter().map(|s| measurer.measure(s).seconds).collect();
        model.update(&t, &states, &secs);
        let mut offspring = 0;
        for i in 0..pop.len() {
            for j in 0..pop.len() {
                if i == j || pop[i].sketch != pop[j].sketch {
                    continue;
                }
                if let Some(c) = crossover(&t, &pop[i], &pop[j], &model) {
                    c.state.validate().unwrap();
                    tensor_ir::lower(&c.state).unwrap();
                    offspring += 1;
                }
            }
        }
        assert!(offspring > 5, "only {offspring} crossover offspring");
    }

    #[test]
    fn evolution_improves_over_random_population() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 32, 7);
        // Ground-truth fitness of the initial population.
        let mut measurer = Measurer::new(t.target.clone());
        let init_best = pop
            .iter()
            .map(|p| measurer.measure(&p.state).seconds)
            .fold(f64::INFINITY, f64::min);
        // Train a model on that population, then evolve.
        let mut model = LearnedCostModel::new();
        let states: Vec<State> = pop.iter().map(|p| State::clone(&p.state)).collect();
        let secs: Vec<f64> = states.iter().map(|s| measurer.measure(s).seconds).collect();
        model.update(&t, &states, &secs);
        let cfg = EvolutionConfig {
            population: 32,
            generations: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let (best, _) = evolutionary_search_with_stats(
            &t,
            &sketches,
            pop,
            &model,
            &cfg,
            8,
            &HashSet::new(),
            rng.next_u64(),
            &mut rng,
        );
        assert!(!best.is_empty());
        let evolved_best = best
            .iter()
            .map(|p| measurer.measure(&p.state).seconds)
            .fold(f64::INFINITY, f64::min);
        // The model-guided evolution should not be (much) worse than the
        // random initial population, and usually better.
        assert!(
            evolved_best <= init_best * 1.5,
            "evolved {evolved_best} vs init {init_best}"
        );
    }

    #[test]
    fn evolution_with_random_model_still_returns_candidates() {
        let t = task();
        let sketches = generate_sketches(&t);
        let pop = init_pop(&t, &sketches, 16, 9);
        let model = RandomModel::new(0);
        let cfg = EvolutionConfig {
            population: 16,
            generations: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let (best, _) = evolutionary_search_with_stats(
            &t,
            &sketches,
            pop,
            &model,
            &cfg,
            5,
            &HashSet::new(),
            rng.next_u64(),
            &mut rng,
        );
        assert_eq!(best.len(), 5);
        for b in &best {
            b.state.validate().unwrap();
        }
    }

    /// What `Individual::clone` was before the state sat behind a handle: a
    /// copy that shares nothing with the original.
    fn deep_copy(ind: &Individual) -> Individual {
        Individual {
            state: Arc::new(State::clone(&ind.state)),
            ..ind.clone()
        }
    }

    /// Straight-line oracle for `evolve`: the same picks and per-lane
    /// seeding as `produce_generation`, written independently (all of a
    /// generation's picks drawn before any lane runs, no `predict_refs`).
    /// Any divergence in pick order, lane seeding, result placement, or
    /// stats folding shows up as a population or stats mismatch. It also keeps the copying discipline `evolve` gave
    /// up: the best-so-far set and the fallback lanes hold deep copies, and
    /// the population is scored and pushed before any offspring is bred.
    /// `fallbacks` counts the lanes whose planned crossover failed and fell
    /// back to a mutation.
    #[allow(clippy::too_many_arguments)]
    fn oracle_search(
        task: &SearchTask,
        sketches: &[Sketch],
        init: Vec<Individual>,
        model: &dyn CostModel,
        cfg: &EvolutionConfig,
        top_k: usize,
        banned: &HashSet<u64>,
        evolution_seed: u64,
        rng: &mut impl Rng,
        observer: &mut dyn FnMut(u64, &[Offspring], &EvolutionStats),
        fallbacks: &mut u64,
    ) -> (Vec<Individual>, EvolutionStats) {
        let mut stats = EvolutionStats {
            best_predicted: f64::NEG_INFINITY,
            ..Default::default()
        };
        let mut population = init;
        population.truncate(cfg.population);
        let mut best: Vec<(f64, Individual)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for gen in 0..=cfg.generations {
            let states: Vec<State> = population.iter().map(|p| State::clone(&p.state)).collect();
            // The oracle uses the plain scoring path: the differential test
            // runs a RandomModel, whose `predict_population` defaults to
            // `predict_refs` with no survivor mask, so the two are
            // equivalent by construction.
            let scores = model.predict(task, &states);
            for (ind, &score) in population.iter().zip(&scores) {
                if !score.is_finite() {
                    continue;
                }
                let sig = ind.signature();
                if banned.contains(&sig) {
                    continue;
                }
                if seen.insert(sig) {
                    best.push((score, deep_copy(ind)));
                }
            }
            best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            best.truncate(4 * top_k.max(8));
            if gen == cfg.generations {
                break;
            }
            stats.generations += 1;
            let generation_seed = ansor_runtime::derive_seed(evolution_seed, gen as u64);
            // All of the generation's picks first, then the lanes.
            let min = scores
                .iter()
                .copied()
                .filter(|s| s.is_finite())
                .fold(f64::INFINITY, f64::min);
            let weights: Vec<f64> = scores
                .iter()
                .map(|&s| if s.is_finite() { s - min + 1e-9 } else { 0.0 })
                .collect();
            let total: f64 = weights.iter().sum();
            let pick = |rng: &mut dyn RngCore| -> usize {
                if total <= 0.0 {
                    return rng.gen_range(0..population.len());
                }
                let mut t = (rng.next_u64() as f64 / u64::MAX as f64) * total;
                for (i, w) in weights.iter().enumerate() {
                    t -= w;
                    if t <= 0.0 {
                        return i;
                    }
                }
                population.len() - 1
            };
            let plans: Vec<(usize, Option<usize>)> = (0..cfg.population)
                .map(|_| {
                    let parent = pick(rng);
                    let partner = rng.gen_bool(cfg.crossover_prob).then(|| pick(rng));
                    (parent, partner)
                })
                .collect();
            let mut next = Vec::with_capacity(plans.len());
            for (lane, &(parent_i, partner)) in plans.iter().enumerate() {
                let mut lane_rng =
                    StdRng::seed_from_u64(ansor_runtime::derive_seed(generation_seed, lane as u64));
                let parent = &population[parent_i];
                let mut fell_back = false;
                let child = match partner {
                    Some(b) => match crossover(task, parent, &population[b], model) {
                        Some(c) => Some(c),
                        None => {
                            fell_back = true;
                            mutate(task, sketches, parent, &cfg.annotation, &mut lane_rng)
                        }
                    },
                    None => mutate(task, sketches, parent, &cfg.annotation, &mut lane_rng),
                };
                *fallbacks += fell_back as u64;
                let (individual, fresh) = match child {
                    Some(mut c) => {
                        c.lineage.generation = stats.generations;
                        match c.lineage.op {
                            Operator::Crossover => stats.crossovers_applied += 1,
                            _ => stats.mutations_applied += 1,
                        }
                        (c, true)
                    }
                    None => (deep_copy(parent), false),
                };
                next.push(Offspring { individual, fresh });
            }
            observer(stats.generations, &next, &stats);
            population = next.into_iter().map(|off| off.individual).collect();
        }
        if let Some((score, _)) = best.first() {
            stats.best_predicted = *score;
        }
        best.truncate(top_k);
        (best.into_iter().map(|(_, ind)| ind).collect(), stats)
    }

    /// Per-generation fingerprint of a population: content signature,
    /// sketch index, and full lineage of every slot, in slot order.
    type Fingerprint = Vec<(u64, usize, Lineage)>;

    /// What the observer hook records per generation: each lane's
    /// fingerprint and whether its offspring is fresh, and the stats.
    type GenerationLog = Vec<(u64, Vec<(u64, usize, Lineage, bool)>, EvolutionStats)>;

    fn fingerprint(pop: &[Individual]) -> Fingerprint {
        pop.iter()
            .map(|p| (p.signature(), p.sketch, p.lineage.clone()))
            .collect()
    }

    fn log_to(log: &mut GenerationLog) -> impl FnMut(u64, &[Offspring], &EvolutionStats) + '_ {
        |g, offspring, stats| {
            let lanes = offspring.iter().map(|off| {
                let p = &off.individual;
                (p.signature(), p.sketch, p.lineage.clone(), off.fresh)
            });
            log.push((g, lanes.collect(), stats.clone()));
        }
    }

    #[test]
    fn evolve_matches_an_independently_written_oracle() {
        let t = task();
        let sketches = generate_sketches(&t);
        for seed in [11u64, 29, 73] {
            let pop = init_pop(&t, &sketches, 16, seed);
            let model = RandomModel::new(seed ^ 0xC0DE);
            // crossover_prob high enough that both the crossover and the
            // failure/fallback-to-mutation paths fire.
            let cfg = EvolutionConfig {
                population: 16,
                generations: 3,
                crossover_prob: 0.5,
                ..Default::default()
            };
            let banned: HashSet<u64> = [pop[0].signature()].into_iter().collect();
            let evolution_seed = ansor_runtime::derive_seed(seed, 0xE0);

            let mut evo_gens: GenerationLog = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let (evo_best, evo_stats) = evolve(
                &t,
                &sketches,
                pop.clone(),
                &model,
                &cfg,
                8,
                &banned,
                evolution_seed,
                &mut rng,
                &mut log_to(&mut evo_gens),
            );

            let mut ref_gens: GenerationLog = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fallbacks = 0;
            let (ref_best, ref_stats) = oracle_search(
                &t,
                &sketches,
                pop,
                &model,
                &cfg,
                8,
                &banned,
                evolution_seed,
                &mut rng,
                &mut log_to(&mut ref_gens),
                &mut fallbacks,
            );

            assert_eq!(evo_gens.len(), ref_gens.len(), "seed {seed}");
            for ((eg, ef, es), (rg, rf, rs)) in evo_gens.iter().zip(&ref_gens) {
                assert_eq!(eg, rg, "seed {seed}");
                assert_eq!(ef, rf, "population diverged at gen {eg}, seed {seed}");
                assert_eq!(es, rs, "stats diverged at gen {eg}, seed {seed}");
            }
            assert_eq!(evo_stats, ref_stats, "seed {seed}");
            assert_eq!(
                fingerprint(&evo_best),
                fingerprint(&ref_best),
                "returned candidates diverged, seed {seed}"
            );
            // The configs above must actually exercise the interesting
            // paths, or the differential proves nothing.
            assert!(
                evo_stats.crossovers_applied > 0 && fallbacks > 0,
                "seed {seed}: {} crossovers, {fallbacks} fallbacks to mutation",
                evo_stats.crossovers_applied
            );
            assert!(evo_stats.mutations_applied > 0, "seed {seed}");
        }
    }
}
