//! Schedule state: the loop structure of a partially or fully scheduled
//! program, together with its transform-step history.
//!
//! A [`State`] plays the role of Ansor's program state σ = (S, i): it holds
//! one [`Stage`] per DAG node, each stage owning an iterator-derivation graph
//! that records how its current loop nest was derived from the node's root
//! axes via splits and fusions. The recorded [`Step`]
//! history is the program's "genes" (§5.1): any state can be reproduced by
//! replaying its steps on a fresh state, which is the basis of tile-size
//! mutation and node-based crossover.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dag::{ComputeDag, ComputeSpec, Derivation, Node, NodeKind};
use crate::error::Error;
use crate::expr::{Expr, NodeId};
use crate::name::Name;
use crate::steps::Step;

/// Identifier of a stage (index into [`State::stages`]).
pub type StageId = usize;

/// Identifier of an iterator within a stage's iterator arena.
pub type IterId = usize;

/// Loop iterator classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IterKind {
    /// Spatial (data-parallel) iterator.
    Space,
    /// Reduction iterator.
    Reduce,
    /// Result of fusing spatial and reduction iterators.
    Mixed,
}

/// Loop annotations (§4.2); `Bind*` variants are the GPU thread bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Annotation {
    /// No annotation.
    #[default]
    None,
    /// Multi-core parallel loop (CPU).
    Parallel,
    /// SIMD-vectorized loop.
    Vectorize,
    /// Fully unrolled loop.
    Unroll,
    /// GPU block index binding.
    BindBlock,
    /// GPU thread index binding.
    BindThread,
    /// GPU virtual-thread binding.
    BindVthread,
}

impl Annotation {
    /// Whether this annotation requires a data-parallel (spatial) iterator.
    pub fn requires_space(&self) -> bool {
        matches!(
            self,
            Annotation::Parallel
                | Annotation::Vectorize
                | Annotation::BindBlock
                | Annotation::BindThread
                | Annotation::BindVthread
        )
    }
}

/// How an iterator came to exist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IterSource {
    /// One of the stage's root axes (index into spatial ++ reduce axes).
    Root(usize),
    /// Part `part` (0 = outermost) of splitting `parent` into `nparts`.
    SplitPart {
        /// Iterator that was split.
        parent: IterId,
        /// Which part this is, 0 = outermost.
        part: usize,
    },
    /// Result of fusing the listed iterators (outer to inner).
    Fused(Vec<IterId>),
}

/// A loop iterator node in a stage's derivation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct IterInfo {
    /// Unique (within the stage) display name, e.g. `i.0` or `i.0@j.0`.
    pub name: Name,
    /// Trip count.
    pub extent: i64,
    /// Spatial / reduction / mixed.
    pub kind: IterKind,
    /// Derivation record.
    pub source: IterSource,
    /// Current annotation.
    pub annotation: Annotation,
    /// Set when this iterator has been split: the children's ids, which
    /// are consecutive, outer→inner.
    pub split_children: Option<Range<IterId>>,
    /// Set when this iterator was fused into another: (fused iter, position).
    pub fused_into: Option<(IterId, usize)>,
}

impl IterInfo {
    /// An iterator is live while it has been neither split nor fused away.
    pub fn is_live(&self) -> bool {
        self.split_children.is_none() && self.fused_into.is_none()
    }
}

/// Where a stage's computation is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ComputeLoc {
    /// Emitted at the top level as its own loop nest.
    #[default]
    Root,
    /// Substituted into consumers at load sites; no loops emitted.
    Inlined,
    /// Computed inside another stage's loop nest: the first `prefix_len`
    /// iterators of this stage are identified with the first `prefix_len`
    /// loops of the stage that computes `target` (matching extents).
    At {
        /// Consumer node whose loop nest hosts this stage.
        target: NodeId,
        /// Number of leading iterators shared with the target's nest.
        prefix_len: usize,
    },
}

/// Per-node scheduling state: the node's loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The DAG node this stage computes.
    pub node: NodeId,
    /// Iterator arena; never shrinks.
    pub iters: Vec<IterInfo>,
    /// Root iterators, one per axis (spatial then reduce).
    pub root_iters: Vec<IterId>,
    /// Current loop nest: live iterators, outermost first.
    pub loop_order: Vec<IterId>,
    /// Placement.
    pub loc: ComputeLoc,
    /// `auto_unroll_max_step` pragma (0 = none): the code generator may
    /// unroll inner loops whose body size does not exceed this value.
    pub max_unroll_step: i64,
    /// Whether constant-input layouts were rewritten to match this stage's
    /// tile structure (§4.2).
    pub layout_rewritten: bool,
}

impl Stage {
    /// Creates the naive-loop stage of node `node` of `dag`: one root
    /// iterator per axis of a compute node, none (and inlined) for a
    /// placeholder.
    pub fn new(dag: &ComputeDag, node: NodeId) -> Stage {
        let Some(spec) = dag.nodes[node].compute() else {
            return Stage {
                node,
                iters: vec![],
                root_iters: vec![],
                loop_order: vec![],
                loc: ComputeLoc::Inlined,
                max_unroll_step: 0,
                layout_rewritten: false,
            };
        };
        let n_spatial = spec.num_spatial();
        // Pushed, not collected: splits and fuses go on pushing to the
        // arena, and from an exact-size start (7 axes: 7, 14, 28, 56 slots)
        // a state would hold up to twice what growth from empty holds (8,
        // 16, 32).
        let mut iters = Vec::new();
        for (a, &name) in dag.axes(node).iter().enumerate() {
            iters.push(IterInfo {
                name,
                extent: spec.axis_extent(a),
                kind: if a < n_spatial {
                    IterKind::Space
                } else {
                    IterKind::Reduce
                },
                source: IterSource::Root(a),
                annotation: Annotation::None,
                split_children: None,
                fused_into: None,
            });
        }
        Stage {
            node,
            loop_order: (0..iters.len()).collect(),
            root_iters: (0..iters.len()).collect(),
            iters,
            loc: ComputeLoc::Root,
            max_unroll_step: 0,
            layout_rewritten: false,
        }
    }

    /// Finds a live iterator by name.
    pub fn iter_by_name(&self, name: &str) -> Option<IterId> {
        self.loop_order
            .iter()
            .copied()
            .find(|&i| self.iters[i].name == name)
    }

    /// Position of an iterator in the current loop order.
    pub fn iter_pos(&self, id: IterId) -> Option<usize> {
        self.loop_order.iter().position(|&i| i == id)
    }

    /// Product of the extents of the current loop nest.
    pub fn loop_volume(&self) -> i64 {
        self.loop_order
            .iter()
            .map(|&i| self.iters[i].extent)
            .product()
    }
}

/// A (partially) scheduled program.
///
/// Cloning copies the stages and the steps; the DAG is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// The scheduled DAG: the task's own `Arc`, shared by every state of
    /// the task, until a structural step (`CacheWrite`, `Rfactor`) moves
    /// the state to the DAG with the cache or rfactor node, derived once
    /// per step and shared by every state that runs it
    /// (`ComputeDag::derived`).
    pub dag: Arc<ComputeDag>,
    /// One stage per DAG node, in DAG order.
    pub stages: Vec<Stage>,
    /// Transform history — the program's genes. Written only by
    /// [`State::apply`] and [`State::replay`]/[`State::replay_owned`],
    /// which fold every step into the signature; read freely.
    pub steps: Vec<Step>,
    /// See [`State::signature`].
    signature: u64,
}

impl State {
    /// Creates the initial (naive-program) state for a DAG.
    pub fn new(dag: Arc<ComputeDag>) -> State {
        let stages = (0..dag.nodes.len()).map(|n| Stage::new(&dag, n)).collect();
        State {
            signature: dag.fingerprint(),
            dag,
            stages,
            steps: Vec::new(),
        }
    }

    /// Replays a step sequence on a fresh state for `dag`.
    pub fn replay(dag: Arc<ComputeDag>, steps: &[Step]) -> Result<State, Error> {
        State::replay_owned(dag, steps.to_vec())
    }

    /// [`State::replay`] over a step list the caller gives up: the list
    /// becomes the new state's history without being copied again.
    pub fn replay_owned(dag: Arc<ComputeDag>, steps: Vec<Step>) -> Result<State, Error> {
        let mut s = State::new(dag);
        for step in &steps {
            s.apply_ref(step)?;
        }
        s.steps = steps;
        Ok(s)
    }

    /// Stable content signature of the program: the fingerprint of the DAG
    /// the state started from ([`ComputeDag::fingerprint`]) folded with
    /// every applied step, `sig' = H(sig, step)`. Two states with equal
    /// signatures lower to the same program — also across tasks — so
    /// signature-keyed caches (measurement, features, cost-model scores)
    /// can serve duplicates produced by mutation and crossover without
    /// re-lowering. Reading it is a field load.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The stage computing the node with the given name.
    pub fn stage_by_node_name(&self, name: &str) -> Option<StageId> {
        let id = self.dag.node_id(name)?;
        self.stages.iter().position(|s| s.node == id)
    }

    /// The stage computing the given node.
    pub fn stage_of_node(&self, node: NodeId) -> Option<StageId> {
        self.stages.iter().position(|s| s.node == node)
    }

    /// Applies one transform step, recording it in the history.
    pub fn apply(&mut self, step: Step) -> Result<(), Error> {
        self.apply_ref(&step)?;
        self.steps.push(step);
        Ok(())
    }

    /// Applies `step` and folds it into the signature; the caller records
    /// it in `steps`.
    fn apply_ref(&mut self, step: &Step) -> Result<(), Error> {
        self.apply_inner(step)?;
        let mut h = DefaultHasher::new();
        self.signature.hash(&mut h);
        step.hash(&mut h);
        self.signature = h.finish();
        Ok(())
    }

    fn resolve(&self, node: Name) -> Result<StageId, Error> {
        self.dag
            .find_node(node)
            .and_then(|id| self.stage_of_node(id))
            .ok_or_else(|| Error::UnknownNode(node.to_string()))
    }

    fn resolve_iter(&self, sid: StageId, iter: Name) -> Result<IterId, Error> {
        let stage = &self.stages[sid];
        stage
            .loop_order
            .iter()
            .copied()
            .find(|&i| stage.iters[i].name == iter)
            .ok_or_else(|| Error::UnknownIter {
                node: self.dag.nodes[stage.node].name.clone(),
                iter: iter.to_string(),
            })
    }

    fn apply_inner(&mut self, step: &Step) -> Result<(), Error> {
        match step {
            Step::Split {
                node,
                iter,
                lengths,
            } => {
                let sid = self.resolve(*node)?;
                let it = self.resolve_iter(sid, *iter)?;
                self.split_parts(sid, it, lengths)?;
            }
            Step::Fuse { node, iters } => {
                let sid = self.resolve(*node)?;
                let ids = iters
                    .iter()
                    .map(|&n| self.resolve_iter(sid, n))
                    .collect::<Result<Vec<_>, _>>()?;
                self.check_fusible(sid, &ids)?;
                // The resolved iterators are the ones `iters` names.
                self.fuse_checked(sid, ids, Name::fused(iters));
            }
            Step::Reorder { node, order } => {
                let sid = self.resolve(*node)?;
                let ids = order
                    .iter()
                    .map(|&n| self.resolve_iter(sid, n))
                    .collect::<Result<Vec<_>, _>>()?;
                self.reorder(sid, &ids)?;
            }
            Step::ComputeAt {
                node,
                target,
                prefix_len,
            } => {
                let sid = self.resolve(*node)?;
                let tnode = self
                    .dag
                    .find_node(*target)
                    .ok_or_else(|| Error::UnknownNode(target.to_string()))?;
                self.compute_at(sid, tnode, *prefix_len)?;
            }
            Step::ComputeInline { node } => {
                let sid = self.resolve(*node)?;
                self.compute_inline(sid)?;
            }
            Step::ComputeRoot { node } => {
                let sid = self.resolve(*node)?;
                self.place(sid, ComputeLoc::Root)?;
            }
            Step::CacheWrite { node } => {
                let sid = self.resolve(*node)?;
                self.cache_write(sid)?;
            }
            Step::Rfactor { node, factor } => {
                let sid = self.resolve(*node)?;
                self.rfactor(sid, *factor)?;
            }
            Step::Annotate { node, iter, ann } => {
                let sid = self.resolve(*node)?;
                let it = self.resolve_iter(sid, *iter)?;
                self.annotate(sid, it, *ann)?;
            }
            Step::Pragma { node, max_unroll } => {
                let sid = self.resolve(*node)?;
                self.stages[sid].max_unroll_step = *max_unroll;
            }
            Step::LayoutRewrite { node } => {
                let sid = self.resolve(*node)?;
                self.stages[sid].layout_rewritten = true;
            }
        }
        Ok(())
    }

    /// Splits a live iterator into `lengths.len() + 1` parts. `lengths` are
    /// the extents of the inner parts (outer→inner); the outermost extent is
    /// inferred and all lengths must divide exactly.
    pub fn split(
        &mut self,
        sid: StageId,
        iter: IterId,
        lengths: &[i64],
    ) -> Result<Vec<IterId>, Error> {
        Ok(self.split_parts(sid, iter, lengths)?.collect())
    }

    /// [`State::split`], returning the parts' (consecutive) ids.
    fn split_parts(
        &mut self,
        sid: StageId,
        iter: IterId,
        lengths: &[i64],
    ) -> Result<Range<IterId>, Error> {
        if lengths.is_empty() {
            return Err(Error::Invalid("split needs at least one length".into()));
        }
        let stage = &mut self.stages[sid];
        let pos = stage
            .iter_pos(iter)
            .ok_or_else(|| Error::Invalid("split target not live".into()))?;
        let extent = stage.iters[iter].extent;
        // Saturating: lengths read from a file may overflow, and a
        // saturated product divides no extent.
        let inner = lengths.iter().fold(1i64, |p, &l| p.saturating_mul(l));
        if inner <= 0 || extent % inner != 0 {
            return Err(Error::BadSplit { extent, inner });
        }
        let (kind, base) = (stage.iters[iter].kind, stage.iters[iter].name);
        let parts = stage.iters.len()..stage.iters.len() + lengths.len() + 1;
        for p in 0..parts.len() {
            stage.iters.push(IterInfo {
                name: base.part(p),
                extent: if p == 0 {
                    extent / inner
                } else {
                    lengths[p - 1]
                },
                kind,
                source: IterSource::SplitPart {
                    parent: iter,
                    part: p,
                },
                annotation: Annotation::None,
                split_children: None,
                fused_into: None,
            });
        }
        stage.iters[iter].split_children = Some(parts.clone());
        stage.loop_order.splice(pos..=pos, parts.clone());
        Ok(parts)
    }

    /// Fuses adjacent live iterators (outer→inner order) into one.
    pub fn fuse(&mut self, sid: StageId, ids: &[IterId]) -> Result<IterId, Error> {
        self.check_fusible(sid, ids)?;
        let iters = &self.stages[sid].iters;
        let names: Vec<Name> = ids.iter().map(|&i| iters[i].name).collect();
        Ok(self.fuse_checked(sid, ids.to_vec(), Name::fused(&names)))
    }

    /// Whether `ids` may be fused: at least two live iterators, adjacent
    /// outer→inner.
    fn check_fusible(&self, sid: StageId, ids: &[IterId]) -> Result<(), Error> {
        if ids.len() < 2 {
            return Err(Error::Invalid("fuse needs at least two iterators".into()));
        }
        let stage = &self.stages[sid];
        let pos0 = stage
            .iter_pos(ids[0])
            .ok_or_else(|| Error::Invalid("fuse target not live".into()))?;
        for (off, &id) in ids.iter().enumerate() {
            match stage.iter_pos(id) {
                Some(p) if p == pos0 + off => {}
                _ => return Err(Error::Invalid("fused iterators must be adjacent".into())),
            }
        }
        Ok(())
    }

    /// [`State::fuse`] of iterators [`State::check_fusible`] accepted;
    /// `name` is their names joined.
    fn fuse_checked(&mut self, sid: StageId, ids: Vec<IterId>, name: Name) -> IterId {
        let stage = &mut self.stages[sid];
        let pos0 = stage.iter_pos(ids[0]).expect("checked live");
        let extent = ids.iter().map(|&i| stage.iters[i].extent).product();
        let all = |kind| ids.iter().all(|&i| stage.iters[i].kind == kind);
        let kind = if all(IterKind::Space) {
            IterKind::Space
        } else if all(IterKind::Reduce) {
            IterKind::Reduce
        } else {
            IterKind::Mixed
        };
        let fid = stage.iters.len();
        for (p, &id) in ids.iter().enumerate() {
            stage.iters[id].fused_into = Some((fid, p));
        }
        stage
            .loop_order
            .splice(pos0..pos0 + ids.len(), std::iter::once(fid));
        stage.iters.push(IterInfo {
            name,
            extent,
            kind,
            source: IterSource::Fused(ids),
            annotation: Annotation::None,
            split_children: None,
            fused_into: None,
        });
        fid
    }

    /// Reorders the loop nest; `order` must be a permutation of the live
    /// iterators.
    pub fn reorder(&mut self, sid: StageId, order: &[IterId]) -> Result<(), Error> {
        let stage = &mut self.stages[sid];
        let permutes = order.len() == stage.loop_order.len()
            && order
                .iter()
                .enumerate()
                .all(|(k, i)| stage.loop_order.contains(i) && !order[..k].contains(i));
        if !permutes {
            return Err(Error::Invalid(
                "reorder must permute exactly the live iterators".into(),
            ));
        }
        stage.loop_order.copy_from_slice(order);
        Ok(())
    }

    /// Marks a stage as computed at the loop nest of the stage computing
    /// `target`: the first `prefix_len` iterators of the stage are identified
    /// with the first `prefix_len` loops of the target stage.
    pub fn compute_at(
        &mut self,
        sid: StageId,
        target: NodeId,
        prefix_len: usize,
    ) -> Result<(), Error> {
        if prefix_len == 0 {
            return Err(Error::Invalid("compute_at needs a non-empty prefix".into()));
        }
        self.check_prefix(sid, target, prefix_len)?;
        self.place(sid, ComputeLoc::At { target, prefix_len })
    }

    /// Inlines a strictly-inlinable stage into its consumers.
    pub fn compute_inline(&mut self, sid: StageId) -> Result<(), Error> {
        let node = self.stages[sid].node;
        if !self.dag.is_strict_inlinable(node) {
            return Err(Error::Invalid(format!(
                "node {:?} is not strictly inlinable",
                self.dag.nodes[node].name
            )));
        }
        if self.dag.consumers(node).is_empty() {
            return Err(Error::Invalid("cannot inline an output node".into()));
        }
        self.place(sid, ComputeLoc::Inlined)
    }

    /// Moves stage `sid` to `loc`, unless that leaves a stage computed at
    /// another where [`State::check_host`] refuses it. Only entering or
    /// leaving an inlined placement can do that to a stage other than
    /// `sid`: inlining a stage strands the stages it hosts, and taking one
    /// out of a chain of inlined consumers cuts a producer off its host.
    fn place(&mut self, sid: StageId, loc: ComputeLoc) -> Result<(), Error> {
        let old = std::mem::replace(&mut self.stages[sid].loc, loc);
        if old != ComputeLoc::Inlined && loc != ComputeLoc::Inlined {
            return Ok(());
        }
        let placed = self
            .stages
            .iter()
            .enumerate()
            .try_for_each(|(s, stage)| match stage.loc {
                ComputeLoc::At { target, .. } if self.dag.nodes[stage.node].compute().is_some() => {
                    self.check_host(s, target).map(|_| ())
                }
                _ => Ok(()),
            });
        if placed.is_err() {
            self.stages[sid].loc = old;
        }
        placed
    }

    /// Whether stage `sid` may be computed at the stage computing `target`,
    /// whatever the prefix; returns that stage. It must be emitted: its
    /// placements lead, without passing `sid`, to a root stage that
    /// computes. And it must be where the node is read: its fusible
    /// consumer, or the first consumer along the chain of fusible consumers
    /// that is not inlined. That stage reads the element it writes, at the
    /// same indices, and no other stage reads the node.
    fn check_host(&self, sid: StageId, target: NodeId) -> Result<StageId, Error> {
        let stage_of = |node| {
            self.stage_of_node(node)
                .ok_or_else(|| Error::Invalid("dangling compute_at target".into()))
        };
        let tsid = stage_of(target)?;
        let mut host = tsid;
        // A chain longer than the stages has a cycle, and ends at no root.
        for _ in 0..=self.stages.len() {
            if host == sid {
                return Err(Error::Invalid("compute_at cycle".into()));
            }
            let ComputeLoc::At { target, .. } = self.stages[host].loc else {
                break;
            };
            host = stage_of(target)?;
        }
        let last = &self.stages[host];
        if last.loc != ComputeLoc::Root || self.dag.nodes[last.node].compute().is_none() {
            return Err(Error::Invalid(format!(
                "compute_at target {:?} is never emitted",
                self.dag.nodes[last.node].name
            )));
        }
        let node = self.stages[sid].node;
        let inlined = |n: NodeId| {
            self.stage_of_node(n)
                .is_some_and(|s| self.stages[s].loc == ComputeLoc::Inlined)
        };
        let mut reader = self.dag.fusible_consumer(node);
        while let Some(r) = reader.filter(|&r| r != target && inlined(r)) {
            reader = self.dag.fusible_consumer(r);
        }
        if reader != Some(target) {
            return Err(Error::Invalid(format!(
                "{:?} does not read {:?} element for element",
                self.dag.nodes[target].name, self.dag.nodes[node].name
            )));
        }
        Ok(tsid)
    }

    /// Whether the first `prefix_len` loops of stage `sid` are those of the
    /// stage computing `target` ([`Stage::same_loop`]), position by
    /// position, and spatial here. Equal extents alone are not: `j.1` and
    /// `l.1` of extent 2 are different loops.
    fn check_prefix(&self, sid: StageId, target: NodeId, prefix_len: usize) -> Result<(), Error> {
        let tsid = self.check_host(sid, target)?;
        let (this, tgt) = (&self.stages[sid], &self.stages[tsid]);
        if this.loop_order.len() < prefix_len || tgt.loop_order.len() < prefix_len {
            return Err(Error::Invalid("compute_at prefix too long".into()));
        }
        for p in 0..prefix_len {
            let (a, b) = (this.loop_order[p], tgt.loop_order[p]);
            if !this.same_loop(a, tgt, b) {
                return Err(Error::Invalid(format!(
                    "compute_at prefix mismatch at {p}: {:?} vs {:?}",
                    this.iters[a].name, tgt.iters[b].name
                )));
            }
            if this.iters[a].kind != IterKind::Space {
                return Err(Error::Invalid("compute_at prefix must be spatial".into()));
            }
        }
        Ok(())
    }

    /// Annotates an iterator (parallel / vectorize / unroll / GPU bind).
    pub fn annotate(&mut self, sid: StageId, iter: IterId, ann: Annotation) -> Result<(), Error> {
        let stage = &mut self.stages[sid];
        if stage.iter_pos(iter).is_none() {
            return Err(Error::Invalid("annotate target not live".into()));
        }
        let info = &mut stage.iters[iter];
        if ann.requires_space() && info.kind != IterKind::Space {
            return Err(Error::Invalid(format!(
                "{:?} requires a spatial iterator, got {:?} ({:?})",
                ann, info.name, info.kind
            )));
        }
        info.annotation = ann;
        Ok(())
    }

    /// Adds a cache-write stage (Rule 5): a new node `X.cache` computes the
    /// original body, and `X` becomes an element-wise copy from the cache,
    /// giving `X.cache` a fusible consumer.
    pub fn cache_write(&mut self, sid: StageId) -> Result<NodeId, Error> {
        let node = self.stages[sid].node;
        let spec = self.dag.nodes[node]
            .compute()
            .ok_or(Error::Invalid("cache_write on placeholder".into()))?;
        let dag = self.dag.derived(Derivation::CacheWrite { node }, |nodes| {
            let cache_name = format!("{}.cache", nodes[node].name);
            insert_node_before(nodes, node, cache_name, spec.clone());
            // After insertion, the original node is at `node + 1`.
            let NodeKind::Compute(c) = &mut nodes[node + 1].kind else {
                unreachable!("the cached node computes");
            };
            let n_spatial = c.num_spatial();
            c.body = Expr::Load {
                node,
                indices: (0..n_spatial).map(Expr::axis).collect(),
            };
            c.reduce_extents.clear();
            c.reducer = None;
            c.axis_names.truncate(n_spatial);
        });
        Ok(self.move_to_derived(dag, node))
    }

    /// Factorizes a reduction (Rule 6, rfactor): splits the single reduction
    /// axis `k` by `factor` into `(k_o, k_i)` and materializes partial sums
    /// `X.rf[spatial.., k_i] = reduce_{k_o} body`, leaving `X` to reduce the
    /// `k_i` axis of `X.rf`.
    pub fn rfactor(&mut self, sid: StageId, factor: i64) -> Result<NodeId, Error> {
        let node = self.stages[sid].node;
        let spec = self.dag.nodes[node]
            .compute()
            .ok_or(Error::Invalid("rfactor on placeholder".into()))?;
        if spec.reduce_extents.len() != 1 {
            return Err(Error::Invalid(
                "rfactor requires exactly one reduction axis".into(),
            ));
        }
        let k_extent = spec.reduce_extents[0];
        if factor <= 0 || k_extent % factor != 0 {
            return Err(Error::BadSplit {
                extent: k_extent,
                inner: factor,
            });
        }
        let key = Derivation::Rfactor { node, factor };
        let dag = self.dag.derived(key, |nodes| {
            let n = spec.num_spatial();
            // New body: old Axis(n) (= k) becomes k_o * factor + k_i where
            // k_i = new Axis(n) (spatial) and k_o = new Axis(n + 1) (reduce).
            let substituted = spec.body.map(&mut |e| match e {
                Expr::Axis(a) if a == n => Expr::axis(n + 1) * Expr::int(factor) + Expr::axis(n),
                other => other,
            });
            let mut rf_shape = spec.shape.clone();
            rf_shape.push(factor);
            let k_name = &spec.axis_names[n];
            let mut rf_axis_names: Vec<String> = spec.axis_names[..n].to_vec();
            rf_axis_names.push(format!("{k_name}_i"));
            rf_axis_names.push(format!("{k_name}_o"));
            let rf_spec = ComputeSpec {
                shape: rf_shape,
                reduce_extents: vec![k_extent / factor],
                reducer: spec.reducer,
                body: substituted,
                axis_names: rf_axis_names,
            };
            let rf_name = format!("{}.rf", nodes[node].name);
            insert_node_before(nodes, node, rf_name, rf_spec);
            // The original node, now at `node + 1`, reduces X.rf over k_i.
            let NodeKind::Compute(c) = &mut nodes[node + 1].kind else {
                unreachable!("the factorized node computes");
            };
            c.body = Expr::Load {
                node,
                indices: (0..=n).map(Expr::axis).collect(),
            };
            c.reduce_extents = vec![factor];
            c.axis_names.truncate(n);
            c.axis_names.push(format!("{k_name}_i"));
        });
        Ok(self.move_to_derived(dag, node))
    }

    /// The stage-side half of a structural step. `dag` is this state's DAG
    /// with a compute node inserted at `pos` and the node that was there,
    /// now at `pos + 1`, rewritten: renumbers the stages, gives both nodes
    /// fresh naive stages and moves the state onto `dag`. Returns `pos`.
    fn move_to_derived(&mut self, dag: Arc<ComputeDag>, pos: NodeId) -> NodeId {
        for s in &mut self.stages {
            if s.node >= pos {
                s.node += 1;
            }
            if let ComputeLoc::At { target, .. } = &mut s.loc {
                if *target >= pos {
                    *target += 1;
                }
            }
        }
        let at = self.stage_of_node(pos + 1).expect("stage exists");
        self.stages[at] = Stage::new(&dag, pos + 1);
        self.stages.insert(at, Stage::new(&dag, pos));
        self.dag = dag;
        pos
    }

    /// Whether `lower` accepts this state: `Ok` exactly when it lowers, with
    /// the error lowering would report otherwise (`lower` calls this first
    /// and then cannot fail). Checks the structural invariants, then walks
    /// the stages in `lower`'s emission order and checks that every emitted
    /// stage computes something and that every iterator its statements read
    /// has a value — is bound to an open loop or derives from iterators that
    /// are. An untrained cost model scores by this alone.
    pub fn validate(&self) -> Result<(), Error> {
        self.validate_structure()?;
        for (sid, stage) in self.stages.iter().enumerate() {
            if stage.loc == ComputeLoc::Root && self.dag.nodes[stage.node].compute().is_some() {
                self.validate_emitted(sid, 0)?;
            }
        }
        Ok(())
    }

    /// The invariants every stage must hold, emitted or not.
    fn validate_structure(&self) -> Result<(), Error> {
        for (sid, stage) in self.stages.iter().enumerate() {
            let Some(spec) = self.dag.nodes[stage.node].compute() else {
                continue;
            };
            if stage.loc == ComputeLoc::Inlined {
                // An inlined body is read at its consumers' load indices,
                // which name no reduction axis.
                if !spec.reduce_extents.is_empty() {
                    return Err(Error::Invalid(format!(
                        "stage {:?}: a reduction is inlined",
                        self.dag.nodes[stage.node].name
                    )));
                }
                continue;
            }
            let expect: i64 = spec.spatial_volume() * spec.reduce_volume();
            let got = stage.loop_volume();
            if expect != got {
                return Err(Error::Invalid(format!(
                    "stage {:?}: loop volume {} != iteration domain {}",
                    self.dag.nodes[stage.node].name, got, expect
                )));
            }
            for &i in &stage.loop_order {
                if !stage.iters[i].is_live() {
                    return Err(Error::Invalid(format!(
                        "stage {:?}: dead iterator {:?} in loop order",
                        self.dag.nodes[stage.node].name, stage.iters[i].name
                    )));
                }
            }
            if let ComputeLoc::At { target, prefix_len } = stage.loc {
                self.check_prefix(sid, target, prefix_len)?;
            }
        }
        Ok(())
    }

    /// What `lower` checks as it emits stage `sid` with its first `skip`
    /// loops bound by the stage it is computed at, in `lower`'s order: the
    /// reduction's init nest, the stages attached at each depth of the
    /// compute nest, then the compute nest's store.
    fn validate_emitted(&self, sid: StageId, skip: usize) -> Result<(), Error> {
        let stage = &self.stages[sid];
        let Some(spec) = self.dag.nodes[stage.node].compute() else {
            return Err(Error::Lower("placeholder stage emitted".into()));
        };
        if spec.reducer.is_some() {
            // The init nest opens the prefix and the spatial loops below
            // it, and its store reads the spatial root iterators.
            let open =
                |it: IterId| {
                    stage.loop_order.iter().enumerate().any(|(p, &i)| {
                        i == it && (p < skip || stage.iters[i].kind == IterKind::Space)
                    })
                };
            for &root in &stage.root_iters[..spec.num_spatial()] {
                stage.check_value(root, &open)?;
            }
        }
        // The stages computed at its loops, in the order the compute nest
        // emits them: by the depth they attach at, then in stage order.
        let mut last = None;
        while let Some((pos, psid)) = self
            .stages
            .iter()
            .enumerate()
            .filter_map(|(psid, p)| match p.loc {
                ComputeLoc::At { target, prefix_len }
                    if target == stage.node && prefix_len >= skip =>
                {
                    Some((prefix_len, psid))
                }
                _ => None,
            })
            .filter(|&next| last < Some(next))
            .min()
        {
            self.validate_emitted(psid, pos)?;
            last = Some((pos, psid));
        }
        // The compute nest opens every loop; its statement may read any
        // root iterator.
        let open = |it: IterId| stage.loop_order.contains(&it);
        for &root in &stage.root_iters {
            stage.check_value(root, &open)?;
        }
        Ok(())
    }
}

impl Stage {
    /// Whether iterator `a` of this stage and `b` of `other`, a stage that
    /// reads this one's elements at its own indices, are the same loop:
    /// equal extents, and derived alike — the same root axis, the same
    /// stride within a split of the same loop, or a fuse of the same loops.
    fn same_loop(&self, a: IterId, other: &Stage, b: IterId) -> bool {
        let (x, y) = (&self.iters[a], &other.iters[b]);
        let stride = |stage: &Stage, parent: IterId, part: usize| -> Option<i64> {
            let parts = stage.iters[parent].split_children.clone()?;
            let later = stage.iters.get(parts.start + part + 1..parts.end)?;
            Some(later.iter().map(|c| c.extent).product())
        };
        x.extent == y.extent
            && match (&x.source, &y.source) {
                (IterSource::Root(i), IterSource::Root(j)) => i == j,
                (
                    &IterSource::SplitPart { parent: p, part: i },
                    &IterSource::SplitPart { parent: q, part: j },
                ) => {
                    stride(self, p, i).is_some()
                        && stride(self, p, i) == stride(other, q, j)
                        && self.same_loop(p, other, q)
                }
                (IterSource::Fused(xs), IterSource::Fused(ys)) => {
                    xs.len() == ys.len()
                        && xs
                            .iter()
                            .zip(ys)
                            .all(|(&p, &q)| self.same_loop(p, other, q))
                }
                _ => false,
            }
    }

    /// Whether iterator `it` has a value when the loops of the iterators
    /// `open` accepts are open: it is one of them, or every iterator it
    /// derives from has one (all its split parts, or the fuse it went
    /// into).
    fn check_value(&self, it: IterId, open: &dyn Fn(IterId) -> bool) -> Result<(), Error> {
        if open(it) {
            return Ok(());
        }
        let info = &self.iters[it];
        if let Some(children) = info.split_children.clone() {
            return children
                .into_iter()
                .try_for_each(|c| self.check_value(c, open));
        }
        if let Some((f, part)) = info.fused_into {
            return match &self.iters[f].source {
                IterSource::Fused(parts) if part < parts.len() => self.check_value(f, open),
                _ => Err(Error::Lower("fused_into target is not a fuse node".into())),
            };
        }
        Err(Error::Lower(format!(
            "iterator {:?} has no value (neither live nor derived)",
            info.name
        )))
    }
}

/// Inserts a new compute node immediately before `pos`, renumbering all
/// node ids ≥ `pos` in the nodes and in the loads of their bodies — the
/// DAG-side half of a structural step ([`State::move_to_derived`] is the
/// other).
fn insert_node_before(nodes: &mut Vec<Node>, pos: NodeId, name: String, spec: ComputeSpec) {
    for n in nodes.iter_mut() {
        if let NodeKind::Compute(c) = &mut n.kind {
            c.body = c.body.map(&mut |e| match e {
                Expr::Load { node, indices } if node >= pos => Expr::Load {
                    node: node + 1,
                    indices,
                },
                other => other,
            });
        }
        if n.id >= pos {
            n.id += 1;
        }
    }
    nodes.insert(
        pos,
        Node {
            id: pos,
            name,
            kind: NodeKind::Compute(spec),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::dag::Reducer;

    fn matmul_dag() -> Arc<ComputeDag> {
        matmul_rows(64)
    }

    fn matmul_rows(rows: i64) -> Arc<ComputeDag> {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[rows, 32]);
        let w = b.placeholder("B", &[32, 16]);
        b.compute_reduce("C", &[rows, 16], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn split_preserves_volume_and_names() {
        let mut st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let parts = st.split(sid, i, &[4, 2]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(st.stages[sid].iters[parts[0]].extent, 8);
        assert_eq!(st.stages[sid].iters[parts[1]].extent, 4);
        assert_eq!(st.stages[sid].iters[parts[2]].extent, 2);
        assert_eq!(st.stages[sid].iters[parts[0]].name, "i.0");
        assert_eq!(st.stages[sid].loop_volume(), 64 * 16 * 32);
        st.validate().unwrap();
    }

    #[test]
    fn split_rejects_non_divisor() {
        let mut st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        assert!(st.split(sid, i, &[7]).is_err());
        // Lengths whose product overflows (read from a file, say): refused,
        // not wrapped into a divisor.
        let huge = st.split(sid, i, &[1 << 62, 1 << 62, 2]);
        assert_eq!(
            huge,
            Err(Error::BadSplit {
                extent: 64,
                inner: i64::MAX
            })
        );
        assert!(st.split(sid, i, &[1 << 62, 4, 0]).is_err());
    }

    #[test]
    fn fuse_requires_adjacency() {
        let mut st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let k = st.stages[sid].iter_by_name("k").unwrap();
        // i and k are not adjacent (j is between them).
        assert!(st.fuse(sid, &[i, k]).is_err());
        let j = st.stages[sid].iter_by_name("j").unwrap();
        let f = st.fuse(sid, &[i, j]).unwrap();
        assert_eq!(st.stages[sid].iters[f].extent, 64 * 16);
        assert_eq!(st.stages[sid].iters[f].name, "i@j");
        assert_eq!(st.stages[sid].iters[f].kind, IterKind::Space);
        st.validate().unwrap();
    }

    #[test]
    fn mixed_fuse_blocks_parallel_annotation() {
        let mut st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let j = st.stages[sid].iter_by_name("j").unwrap();
        let k = st.stages[sid].iter_by_name("k").unwrap();
        let f = st.fuse(sid, &[j, k]).unwrap();
        assert_eq!(st.stages[sid].iters[f].kind, IterKind::Mixed);
        assert!(st.annotate(sid, f, Annotation::Parallel).is_err());
        assert!(st.annotate(sid, f, Annotation::Unroll).is_ok());
    }

    #[test]
    fn reorder_checks_permutation() {
        let mut st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let j = st.stages[sid].iter_by_name("j").unwrap();
        let k = st.stages[sid].iter_by_name("k").unwrap();
        assert!(st.reorder(sid, &[k, j]).is_err());
        st.reorder(sid, &[k, j, i]).unwrap();
        assert_eq!(st.stages[sid].loop_order, vec![k, j, i]);
    }

    #[test]
    fn cache_write_splits_node() {
        let mut st = State::new(matmul_dag());
        st.apply(Step::CacheWrite { node: "C".into() }).unwrap();
        assert!(st.dag.node_by_name("C.cache").is_some());
        let c = st.dag.node_by_name("C").unwrap();
        let spec = c.compute().unwrap();
        assert!(spec.reduce_extents.is_empty());
        let cache = st.dag.node_by_name("C.cache").unwrap();
        assert_eq!(cache.compute().unwrap().reduce_extents, vec![32]);
        assert_eq!(st.dag.fusible_consumer(cache.id), Some(c.id));
        st.dag.validate().unwrap();
        st.validate().unwrap();
    }

    #[test]
    fn rfactor_factorizes_reduction() {
        let mut st = State::new(norm_dag());
        st.apply(Step::Rfactor {
            node: "E".into(),
            factor: 16,
        })
        .unwrap();
        let rf = st.dag.node_by_name("E.rf").unwrap();
        assert_eq!(rf.compute().unwrap().shape, vec![4, 16]);
        assert_eq!(rf.compute().unwrap().reduce_extents, vec![32]);
        let e = st.dag.node_by_name("E").unwrap();
        assert_eq!(e.compute().unwrap().reduce_extents, vec![16]);
        st.dag.validate().unwrap();
        st.validate().unwrap();
    }

    fn norm_dag() -> Arc<ComputeDag> {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[4, 512]);
        b.compute_reduce("E", &[4], &[512], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[1].clone()])
                * Expr::load(a, vec![ax[0].clone(), ax[1].clone()])
        });
        Arc::new(b.build().unwrap())
    }

    fn rfactored(dag: &Arc<ComputeDag>, factor: i64) -> State {
        let node = "E".into();
        State::replay(dag.clone(), &[Step::Rfactor { node, factor }]).unwrap()
    }

    #[test]
    fn a_structural_step_derives_its_dag_once_per_key() {
        let dag = norm_dag();
        let pristine = (*dag).clone();
        let first = rfactored(&dag, 16);
        let again = rfactored(&dag, 16);
        let other = rfactored(&dag, 32);
        assert!(Arc::ptr_eq(&first.dag, &again.dag), "one DAG per factor");
        assert_eq!(first, again);
        assert!(!Arc::ptr_eq(&first.dag, &other.dag));
        assert_ne!(first.dag, other.dag, "two factors, two DAGs");
        // A hit is what a miss derives: `pristine` has an empty memo.
        let fresh = rfactored(&Arc::new(pristine.clone()), 16);
        assert!(!Arc::ptr_eq(&first.dag, &fresh.dag));
        assert_eq!(first, fresh);
        assert_ne!(first.dag.fingerprint(), dag.fingerprint());
        assert_eq!(*dag, pristine, "the DAG derived from is not written");
        // A failed step derives nothing.
        let mut st = State::new(dag.clone());
        let sid = st.stage_by_node_name("E").unwrap();
        assert!(st.rfactor(sid, 7).is_err());
        assert!(Arc::ptr_eq(&st.dag, &dag));
    }

    #[test]
    fn an_edited_clone_neither_sees_nor_disturbs_the_memo() {
        let dag = matmul_dag();
        let cache_write = [Step::CacheWrite { node: "C".into() }];
        let derived = State::replay(dag.clone(), &cache_write).unwrap().dag;
        // The clone is edited as a structural step would edit it.
        let mut edited = (*dag).clone();
        edited.nodes_mut()[2].name = "C2".into();
        let edited = Arc::new(edited);
        assert!(State::replay(edited.clone(), &cache_write).is_err());
        let of_edited = State::replay(edited, &[Step::CacheWrite { node: "C2".into() }])
            .unwrap()
            .dag;
        assert!(of_edited.node_by_name("C2.cache").is_some());
        assert!(of_edited.node_by_name("C.cache").is_none());
        // The original still serves what it derived before.
        let again = State::replay(dag, &cache_write).unwrap().dag;
        assert!(Arc::ptr_eq(&derived, &again));
        assert!(again.node_by_name("C.cache").is_some());
    }

    #[test]
    fn threads_racing_on_the_first_derivation_agree() {
        let reference = rfactored(&norm_dag(), 16);
        for _ in 0..8 {
            let dag = norm_dag();
            let barrier = std::sync::Barrier::new(4);
            let states: Vec<State> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            rfactored(&dag, 16)
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for st in &states {
                assert_eq!(*st, reference);
                assert!(
                    Arc::ptr_eq(&st.dag, &states[0].dag),
                    "the first insert wins"
                );
            }
        }
    }

    #[test]
    fn replay_reproduces_state() {
        let dag = matmul_dag();
        let mut st = State::new(dag.clone());
        st.apply(Step::Split {
            node: "C".into(),
            iter: "i".into(),
            lengths: vec![8, 2],
        })
        .unwrap();
        st.apply(Step::Annotate {
            node: "C".into(),
            iter: "i.2".into(),
            ann: Annotation::Vectorize,
        })
        .unwrap();
        let replayed = State::replay(dag, &st.steps).unwrap();
        assert_eq!(replayed.stages, st.stages);
    }

    #[test]
    fn signature_names_the_program_not_just_the_steps() {
        let steps = [
            Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![8, 2],
            },
            Step::Annotate {
                node: "C".into(),
                iter: "i.2".into(),
                ann: Annotation::Vectorize,
            },
        ];
        // An untouched state is named by its DAG alone.
        let dag = matmul_rows(64);
        assert_eq!(State::new(dag.clone()).signature(), dag.fingerprint());
        // Equal DAG content built twice: one program, one signature.
        let a = State::replay(dag, &steps).unwrap();
        let b = State::replay(matmul_rows(64), &steps).unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), State::new(matmul_rows(64)).signature());
        // The same steps on a DAG that differs only in one extent: two.
        let c = State::replay(matmul_rows(128), &steps).unwrap();
        assert_eq!(c.steps, a.steps);
        assert_ne!(c.signature(), a.signature());
        // A failed step leaves no trace in the signature.
        let mut d = a.clone();
        assert!(d
            .apply(Step::Split {
                node: "C".into(),
                iter: "j".into(),
                lengths: vec![7],
            })
            .is_err());
        assert_eq!(d.signature(), a.signature());
    }

    /// `validate`'s verdict and `lower`'s, which it decides.
    fn verdicts(st: &State) -> (Result<(), Error>, Result<(), Error>) {
        (st.validate(), crate::lower::lower(st).map(|_| ()))
    }

    #[test]
    fn validate_refuses_every_state_lowering_cannot_emit() {
        let lowering = |msg: &str| Err(Error::Lower(msg.into()));
        let st = State::new(matmul_dag());
        let sid = st.stage_by_node_name("C").unwrap();
        let [i, j, k] = [0, 1, 2];

        // The init nest opens spatial loops only: a spatial axis fused with
        // the reduction axis has no value there.
        let mut mixed = st.clone();
        let jk = mixed.fuse(sid, &[j, k]).unwrap();
        assert_eq!(mixed.stages[sid].iters[jk].kind, IterKind::Mixed);
        let want = lowering("iterator \"j@k\" has no value (neither live nor derived)");
        assert_eq!(verdicts(&mixed), (want.clone(), want));

        // An iterator recorded as fused into something that is no fuse.
        let mut misfused = st.clone();
        let ij = misfused.fuse(sid, &[i, j]).unwrap();
        misfused.stages[sid].iters[ij].source = IterSource::Root(0);
        let want = lowering("fused_into target is not a fuse node");
        assert_eq!(verdicts(&misfused), (want.clone(), want));

        // A placeholder computed at a loop of a stage that is emitted.
        let mut placed = st.clone();
        placed.stages[0].loc = ComputeLoc::At {
            target: 2,
            prefix_len: 0,
        };
        let want = lowering("placeholder stage emitted");
        assert_eq!(verdicts(&placed), (want.clone(), want));
        // At a stage that is not emitted (the other placeholder), it never
        // is, and the state lowers.
        placed.stages[0].loc = ComputeLoc::At {
            target: 1,
            prefix_len: 0,
        };
        assert_eq!(verdicts(&placed), (Ok(()), Ok(())));

        // A reduction is never inlined: its body reads axes no load names.
        let mut inlined = st.clone();
        inlined.stages[sid].loc = ComputeLoc::Inlined;
        let (valid, lowered) = verdicts(&inlined);
        assert!(matches!(valid, Err(Error::Invalid(_))), "{valid:?}");
        assert_eq!(lowered, Err(Error::Lower(valid.unwrap_err().to_string())));
    }

    /// The placements `compute_at` and `compute_inline` refuse, made in
    /// place: `validate` refuses them too, and `lower` with it.
    #[test]
    fn validate_refuses_a_stage_at_other_loops_or_at_a_stage_never_emitted() {
        // `st` with stage `sid` moved to `loc` in place is refused with `msg`.
        let refused = |st: &State, sid: StageId, loc: ComputeLoc, msg: &str| {
            let mut st = st.clone();
            st.stages[sid].loc = loc;
            let want = Error::Invalid(msg.into());
            let lowered = Err(Error::Lower(want.to_string()));
            assert_eq!(verdicts(&st), (Err(want), lowered));
        };
        let at = |target, prefix_len| ComputeLoc::At { target, prefix_len };
        let cache_write = [Step::CacheWrite { node: "C".into() }];
        let mut st = State::replay(matmul_rows(16), &cache_write).unwrap();
        let (cache, c, [i, j, k]) = (2, 3, [0, 1, 2]);
        // `C.cache` runs `j` outermost and `C` runs `i`, both of extent 16.
        st.reorder(cache, &[j, i, k]).unwrap();
        let mismatch = "compute_at prefix mismatch at 0: \"j\" vs \"i\"";
        let refusal = Err(Error::Invalid(mismatch.into()));
        assert_eq!(st.compute_at(cache, c, 1), refusal);
        refused(&st, cache, at(c, 1), mismatch);
        st.reorder(cache, &[i, j, k]).unwrap();
        st.compute_at(cache, c, 1).unwrap();
        assert_eq!(verdicts(&st), (Ok(()), Ok(())));
        // The host inlined (an output: no step inlines it), or computed at
        // the stage it hosts: `C.cache` is never emitted.
        let never = "compute_at target \"C\" is never emitted";
        refused(&st, c, ComputeLoc::Inlined, never);
        refused(&st, c, at(cache, 1), "compute_at cycle");

        // At a consumer that reads it transposed: `T`'s `i` is `C`'s `j`.
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[16, 16]);
        let c = b.compute_reduce("C", &[16, 16], &[16], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
        });
        b.compute("T", &[16, 16], |ax| {
            Expr::load(c, vec![ax[1].clone(), ax[0].clone()])
        });
        let mut st = State::new(Arc::new(b.build().unwrap()));
        let transposed = "\"T\" does not read \"C\" element for element";
        let refusal = Err(Error::Invalid(transposed.into()));
        assert_eq!(st.compute_at(1, 2, 1), refusal);
        refused(&st, 1, at(2, 1), transposed);
    }
}
