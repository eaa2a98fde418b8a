//! Lowering: turns a scheduled [`State`] into an executable loop-nest
//! [`Program`].
//!
//! The lowered program is what the paper calls a *complete tensor program*:
//! a tree of annotated `for` loops whose leaves are buffer stores. It is the
//! common input of the functional interpreter (`crate::interp`), the feature
//! extractor and the hardware model.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::dag::{ComputeDag, Reducer};
use crate::error::Error;
use crate::expr::{BinOp, CmpOp, Expr, NodeId, UnOp, VarId};
use crate::name::Name;
use crate::state::{
    Annotation, ComputeLoc, IterId, IterInfo, IterKind, IterSource, Stage, StageId, State,
};

/// One statement of a lowered program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// An annotated counting loop `for var in 0..extent`.
    For {
        /// Loop variable.
        var: VarId,
        /// Trip count.
        extent: i64,
        /// Loop annotation.
        ann: Annotation,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A store to a node's buffer. With `reduce: Some(r)` the statement is a
    /// read-modify-write `buf[idx] = r.combine(buf[idx], value)`.
    Store {
        /// Destination buffer (its DAG node).
        buffer: NodeId,
        /// One index expression per buffer dimension.
        indices: Vec<Expr>,
        /// Stored value.
        value: Expr,
        /// Reduction combine, if any.
        reduce: Option<Reducer>,
    },
}

/// Metadata for a loop variable (for printing and analysis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarInfo {
    /// Display name, e.g. `i.1` or `i.0@j.0`.
    pub name: Name,
    /// Trip count.
    pub extent: i64,
    /// Stage the loop belongs to.
    pub stage: StageId,
    /// Spatial / reduce / mixed.
    pub kind: IterKind,
}

/// A lowered, complete tensor program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// The (scheduled) DAG, shared with the state it was lowered from;
    /// buffer shapes come from here.
    pub dag: Arc<ComputeDag>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
    /// Loop-variable table indexed by [`VarId`].
    pub vars: Vec<VarInfo>,
    /// `auto_unroll_max_step` pragma per node.
    pub pragma_unroll: HashMap<NodeId, i64>,
    /// Nodes whose constant-input layout was rewritten (§4.2).
    pub layout_rewritten: Vec<NodeId>,
}

impl Program {
    /// Total floating point operations per program execution.
    pub fn flop_count(&self) -> f64 {
        self.dag.flop_count()
    }

    /// Iterates over all innermost store statements with their enclosing
    /// loop chain `(vars of enclosing loops outer→inner, stmt)`.
    pub fn for_each_store(&self, f: &mut impl FnMut(&[(VarId, i64, Annotation)], &Stmt)) {
        fn walk(
            stmts: &[Stmt],
            chain: &mut Vec<(VarId, i64, Annotation)>,
            f: &mut impl FnMut(&[(VarId, i64, Annotation)], &Stmt),
        ) {
            for s in stmts {
                match s {
                    Stmt::For {
                        var,
                        extent,
                        ann,
                        body,
                    } => {
                        chain.push((*var, *extent, *ann));
                        walk(body, chain, f);
                        chain.pop();
                    }
                    store @ Stmt::Store { .. } => f(chain, store),
                }
            }
        }
        let mut chain = Vec::new();
        walk(&self.body, &mut chain, f);
    }

    /// Number of store statements.
    pub fn num_stores(&self) -> usize {
        let mut n = 0;
        self.for_each_store(&mut |_, _| n += 1);
        n
    }
}

/// Lowers a scheduled state into a complete program.
///
/// One traversal (`walk`): every expression of the result is built
/// exactly once, in its final form — load indices through [`simplify`]'s
/// per-node rule as they are assembled, everything else as written — so
/// lowering allocates little beyond the tree it returns.
pub fn lower(state: &State) -> Result<Program, Error> {
    let tree = walk(state, TreeBuilder::default())?;
    Ok(Program {
        dag: state.dag.clone(),
        body: tree.body,
        vars: tree.vars,
        pragma_unroll: state
            .stages
            .iter()
            .filter(|s| s.max_unroll_step > 0)
            .map(|s| (s.node, s.max_unroll_step))
            .collect(),
        layout_rewritten: state
            .stages
            .iter()
            .filter(|s| s.layout_rewritten)
            .map(|s| s.node)
            .collect(),
    })
}

/// What an open iterator stands for: the variable of its loop, or zero for
/// a length-one loop, which is pinned and never emitted (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Atom {
    /// The loop's variable.
    Var(VarId),
    /// A length-one loop.
    Zero,
}

/// Where in a statement a value is being made.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pos {
    /// Inside a load or store index: a binary node goes through
    /// [`simplify_binary`] and counts as integer arithmetic. Elsewhere it
    /// is kept as written ([`Expr::binary`]) and counts as a float op.
    pub index: bool,
    /// Inside the condition of a `Select`.
    pub guard: bool,
}

impl Pos {
    const VALUE: Pos = Pos {
        index: false,
        guard: false,
    };
    const INDEX: Pos = Pos {
        index: true,
        guard: false,
    };
}

/// What [`walk`] produces from the nest it traverses. The walk owns the
/// structure — which loop opens where, which variable it gets, what every
/// iterator and axis stands for, where producers attach and inline — and a
/// leaf only says what a loop, an access and a scalar value *are*:
/// [`lower`]'s leaf builds the `Program` tree, `analysis::analyze_state`'s
/// computes each statement's numbers without one.
///
/// Values are made operands first, left to right, and handed to the
/// constructor of the node over them.
pub(crate) trait Leaf {
    /// A scalar value.
    type Value;
    /// A load or store whose indices are still being made.
    type Access;
    /// An open loop.
    type Loop;

    /// Opens the loop of `info` (an iterator of stage `sid`) under `ann`.
    /// Variables are numbered in opening order, from zero.
    fn open_loop(
        &mut self,
        var: VarId,
        sid: StageId,
        info: &IterInfo,
        ann: Annotation,
    ) -> Self::Loop;
    /// Closes the innermost open loop.
    fn close_loop(&mut self, lp: Self::Loop);

    /// Starts an access to `node`'s buffer; `rank` indices follow, then
    /// [`Leaf::load`] or [`Leaf::store`].
    fn begin_access(&mut self, node: NodeId, rank: usize) -> Self::Access;
    /// The access's next index.
    fn push_index(&mut self, access: &mut Self::Access, index: Self::Value);
    /// The value loaded by a complete access.
    fn load(&mut self, access: Self::Access, pos: Pos) -> Self::Value;
    /// The statement `stage` stores `value` with, under the open loops.
    fn store(
        &mut self,
        stage: &Stage,
        access: Self::Access,
        value: Self::Value,
        reduce: Option<Reducer>,
    );

    /// The value of an open iterator.
    fn atom(&mut self, atom: Atom, pos: Pos) -> Self::Value;
    /// An integer constant.
    fn int(&mut self, v: i64, pos: Pos) -> Self::Value;
    /// A float constant.
    fn float(&mut self, v: f64, pos: Pos) -> Self::Value;
    /// A binary node; simplified when `pos.index`.
    fn binary(&mut self, op: BinOp, lhs: Self::Value, rhs: Self::Value, pos: Pos) -> Self::Value;
    /// A unary intrinsic.
    fn unary(&mut self, op: UnOp, arg: Self::Value, pos: Pos) -> Self::Value;
    /// A comparison.
    fn cmp(&mut self, op: CmpOp, lhs: Self::Value, rhs: Self::Value, pos: Pos) -> Self::Value;
    /// A selection; `cond` was made with `pos.guard` set.
    fn select(
        &mut self,
        cond: Self::Value,
        then: Self::Value,
        other: Self::Value,
        pos: Pos,
    ) -> Self::Value;
}

/// Traverses the loop nest `state` describes — root stages in order, each
/// reduction's init nest before its compute nest, producers where they are
/// attached — and returns the leaf it fed.
pub(crate) fn walk<L: Leaf>(state: &State, leaf: L) -> Result<L, Error> {
    // `validate` is the whole test: past it, nothing below can fail. Its
    // structural errors become lowering errors; what it refuses as the
    // nest is emitted already is one.
    state.validate().map_err(|e| match e {
        Error::Lower(_) => e,
        e => Error::Lower(e.to_string()),
    })?;
    let mut iter_base = Vec::with_capacity(state.stages.len());
    let mut n_iters = 0;
    for stage in &state.stages {
        iter_base.push(n_iters);
        n_iters += stage.iters.len();
    }
    let mut nest = Nest {
        state,
        leaf,
        n_vars: 0,
        iter_base,
        bindings: vec![None; n_iters],
    };
    for (sid, stage) in state.stages.iter().enumerate() {
        if stage.loc == ComputeLoc::Root && state.dag.nodes[stage.node].compute().is_some() {
            nest.emit_stage(sid, 0);
        }
    }
    Ok(nest.leaf)
}

/// What [`Expr::Axis`] stands for while a compute body is walked.
enum Axes<'e> {
    /// Axis `k` is root iterator `k` of the stage being emitted.
    Stage(StageId),
    /// The body of a producer inlined at a load: axis `k` is the load's
    /// index `k`, itself read under the loading body's axes.
    Inlined(&'e [Expr], &'e Axes<'e>),
}

struct Nest<'a, L> {
    state: &'a State,
    leaf: L,
    /// Loop variables handed out so far.
    n_vars: VarId,
    /// Where each stage's iterators start in `bindings`.
    iter_base: Vec<usize>,
    /// Value of each live iterator once its loop is open. Indexed
    /// `iter_base[stage] + iter`.
    bindings: Vec<Option<Atom>>,
}

impl<'a, L: Leaf> Nest<'a, L> {
    /// Emits one stage's loop nest. The stage's first `skip` iterators are
    /// already bound (a compute-at prefix; 0 for root stages).
    fn emit_stage(&mut self, sid: StageId, skip: usize) {
        let spec = self.state.dag.nodes[self.state.stages[sid].node]
            .compute()
            .expect("`validate` refuses an emitted placeholder stage");
        // Initialize the reduction accumulator over the (emitted) spatial
        // iterators before the compute loops.
        if let Some(reducer) = spec.reducer {
            self.emit_loops(sid, skip, Some(reducer));
        }
        self.emit_loops(sid, skip, None);
    }

    /// Emits the loops of a stage from position `pos` of its loop order
    /// down to its store: the compute nest, or with `init` the nest that
    /// sets the reduction's accumulators to the identity. The init nest
    /// runs over the spatial loops only, with fresh variables of its own
    /// (the compute nest rebinds its iterators as it opens them).
    fn emit_loops(&mut self, sid: StageId, pos: usize, init: Option<Reducer>) {
        let state = self.state;
        let stage = &state.stages[sid];
        if init.is_none() {
            // Producers attached at this depth run before the rest of the
            // nest, their first `pos` iterators bound to this stage's.
            // (`validate` has checked that every compute-at target has a
            // stage.)
            let here = ComputeLoc::At {
                target: stage.node,
                prefix_len: pos,
            };
            for (psid, producer) in state.stages.iter().enumerate() {
                if producer.loc == here {
                    for p in 0..pos {
                        let value = self
                            .bound(sid, stage.loop_order[p])
                            .expect("loops above `pos` are open");
                        self.bind(psid, producer.loop_order[p], value);
                    }
                    self.emit_stage(psid, pos);
                }
            }
        }
        let Some(&it) = stage.loop_order.get(pos) else {
            return self.emit_store(sid, init);
        };
        let info = &stage.iters[it];
        if init.is_some() && info.kind != IterKind::Space {
            return self.emit_loops(sid, pos + 1, init);
        }
        if info.extent == 1 {
            // Length-one loops are simplified away (§4.2): the variable is
            // pinned to zero and no loop is emitted.
            self.bind(sid, it, Atom::Zero);
            return self.emit_loops(sid, pos + 1, init);
        }
        // The init nest inherits parallel/bind/vectorize annotations
        // (accumulators are initialized by the same workers that own
        // them); unrolling is left to the code generator.
        let ann = match info.annotation {
            Annotation::Unroll if init.is_some() => Annotation::None,
            ann => ann,
        };
        let var = self.n_vars;
        self.n_vars += 1;
        self.bind(sid, it, Atom::Var(var));
        let lp = self.leaf.open_loop(var, sid, info, ann);
        self.emit_loops(sid, pos + 1, init);
        self.leaf.close_loop(lp);
    }

    /// The value a live iterator is bound to, if its loop is open.
    fn bound(&self, sid: StageId, it: IterId) -> Option<Atom> {
        self.bindings[self.iter_base[sid] + it]
    }

    fn bind(&mut self, sid: StageId, it: IterId, value: Atom) {
        let slot = self.iter_base[sid] + it;
        self.bindings[slot] = Some(value);
    }

    /// The stage's store under the open loops: its spatial axes as
    /// (simplified) buffer indices, then the reducer's identity (`init`) or
    /// the compute body.
    fn emit_store(&mut self, sid: StageId, init: Option<Reducer>) {
        let stage = &self.state.stages[sid];
        let spec = self.state.dag.nodes[stage.node]
            .compute()
            .expect("emit_stage refuses placeholder stages");
        let n_spatial = spec.num_spatial();
        let mut access = self.leaf.begin_access(stage.node, n_spatial);
        for &root in &stage.root_iters[..n_spatial] {
            let index = self.iter_value(sid, root, Pos::INDEX);
            self.leaf.push_index(&mut access, index);
        }
        let (value, reduce) = match init {
            Some(reducer) => (self.leaf.float(reducer.identity() as f64, Pos::VALUE), None),
            None => (
                self.value(&spec.body, &Axes::Stage(sid), Pos::VALUE),
                spec.reducer,
            ),
        };
        self.leaf.store(stage, access, value, reduce);
    }

    /// The lowered form of a compute-body expression: axes replaced by
    /// their values over live loop variables, inlined producers expanded at
    /// their load sites, every remaining load's indices simplified.
    fn value(&mut self, e: &Expr, axes: &Axes, pos: Pos) -> L::Value {
        let state = self.state;
        match e {
            Expr::FloatConst(v) => self.leaf.float(*v, pos),
            Expr::IntConst(v) => self.leaf.int(*v, pos),
            Expr::LoopVar(v) => self.leaf.atom(Atom::Var(*v), pos),
            Expr::Axis(k) => match axes {
                Axes::Stage(sid) => self.iter_value(*sid, state.stages[*sid].root_iters[*k], pos),
                Axes::Inlined(indices, outer) => self.value(&indices[*k], outer, pos),
            },
            Expr::Load { node, indices } => {
                let inlined = state
                    .stage_of_node(*node)
                    .is_some_and(|s| state.stages[s].loc == ComputeLoc::Inlined);
                match state.dag.nodes[*node].compute() {
                    Some(spec) if inlined => {
                        self.value(&spec.body, &Axes::Inlined(indices, axes), pos)
                    }
                    _ => {
                        let mut access = self.leaf.begin_access(*node, indices.len());
                        let index_pos = Pos { index: true, ..pos };
                        for i in indices {
                            let index = self.value(i, axes, index_pos);
                            self.leaf.push_index(&mut access, index);
                        }
                        self.leaf.load(access, pos)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs = self.value(lhs, axes, pos);
                let rhs = self.value(rhs, axes, pos);
                self.leaf.binary(*op, lhs, rhs, pos)
            }
            Expr::Unary { op, arg } => {
                let arg = self.value(arg, axes, pos);
                self.leaf.unary(*op, arg, pos)
            }
            Expr::Cmp { op, lhs, rhs } => {
                let lhs = self.value(lhs, axes, pos);
                let rhs = self.value(rhs, axes, pos);
                self.leaf.cmp(*op, lhs, rhs, pos)
            }
            Expr::Select { cond, then, other } => {
                let cond = self.value(cond, axes, Pos { guard: true, ..pos });
                let then = self.value(then, axes, pos);
                let other = self.value(other, axes, pos);
                self.leaf.select(cond, then, other, pos)
            }
        }
    }

    /// Value of an iterator over live loop variables. (`validate` has
    /// checked that every iterator a statement reads has one.)
    fn iter_value(&mut self, sid: StageId, it: IterId, pos: Pos) -> L::Value {
        if let Some(atom) = self.bound(sid, it) {
            return self.leaf.atom(atom, pos);
        }
        let iters = &self.state.stages[sid].iters;
        let info = &iters[it];
        let volume = |its: &[IterId]| its.iter().map(|&i| iters[i].extent).product::<i64>();
        if let Some(children) = info.split_children.clone() {
            // value = sum(child_value * stride_of_child), where a child's
            // stride is the volume of the children inside it: one running
            // product, divided by each next child's extent in turn.
            let (first, end) = (children.start, children.end);
            let mut stride: i64 = iters[first + 1..end].iter().map(|c| c.extent).product();
            let mut acc: Option<L::Value> = None;
            for c in children {
                let v = self.iter_value(sid, c, pos);
                let term = if stride == 1 {
                    v
                } else {
                    let stride = self.leaf.int(stride, pos);
                    self.leaf.binary(BinOp::Mul, v, stride, pos)
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => self.leaf.binary(BinOp::Add, a, term, pos),
                });
                if c + 1 < end {
                    stride /= iters[c + 1].extent;
                }
            }
            return acc.expect("split has children");
        }
        let (f, part) = info
            .fused_into
            .expect("`validate`: an iterator without a loop was split or fused");
        let IterSource::Fused(parts) = &iters[f].source else {
            unreachable!("`validate`: an iterator is fused into a fuse");
        };
        let stride = volume(&parts[part + 1..]);
        let fv = self.iter_value(sid, f, pos);
        let divided = if stride == 1 {
            fv
        } else {
            let stride = self.leaf.int(stride, pos);
            self.leaf.binary(BinOp::Div, fv, stride, pos)
        };
        if part == 0 {
            divided
        } else {
            let extent = self.leaf.int(info.extent, pos);
            self.leaf.binary(BinOp::Mod, divided, extent, pos)
        }
    }
}

/// [`lower`]'s leaf: the statement tree and the loop-variable table.
#[derive(Default)]
struct TreeBuilder {
    vars: Vec<VarInfo>,
    /// Statements so far of the innermost open loop (of the program, with
    /// none open).
    body: Vec<Stmt>,
}

impl Leaf for TreeBuilder {
    type Value = Expr;
    type Access = (NodeId, Vec<Expr>);
    /// The loop's header and the body it sits in.
    type Loop = (VarId, i64, Annotation, Vec<Stmt>);

    fn open_loop(
        &mut self,
        var: VarId,
        sid: StageId,
        info: &IterInfo,
        ann: Annotation,
    ) -> Self::Loop {
        debug_assert_eq!(var as usize, self.vars.len());
        self.vars.push(VarInfo {
            name: info.name,
            extent: info.extent,
            stage: sid,
            kind: info.kind,
        });
        (var, info.extent, ann, std::mem::take(&mut self.body))
    }

    fn close_loop(&mut self, (var, extent, ann, outer): Self::Loop) {
        let body = std::mem::replace(&mut self.body, outer);
        self.body.push(Stmt::For {
            var,
            extent,
            ann,
            body,
        });
    }

    fn begin_access(&mut self, node: NodeId, rank: usize) -> Self::Access {
        (node, Vec::with_capacity(rank))
    }

    fn push_index(&mut self, access: &mut Self::Access, index: Expr) {
        access.1.push(index);
    }

    fn load(&mut self, (node, indices): Self::Access, _: Pos) -> Expr {
        Expr::Load { node, indices }
    }

    fn store(
        &mut self,
        _: &Stage,
        (buffer, indices): Self::Access,
        value: Expr,
        reduce: Option<Reducer>,
    ) {
        self.body.push(Stmt::Store {
            buffer,
            indices,
            value,
            reduce,
        });
    }

    fn atom(&mut self, atom: Atom, _: Pos) -> Expr {
        match atom {
            Atom::Var(v) => Expr::LoopVar(v),
            Atom::Zero => Expr::IntConst(0),
        }
    }

    fn int(&mut self, v: i64, _: Pos) -> Expr {
        Expr::IntConst(v)
    }

    fn float(&mut self, v: f64, _: Pos) -> Expr {
        Expr::FloatConst(v)
    }

    // Operands are built first, so a simplified value never exists in
    // unsimplified form.
    fn binary(&mut self, op: BinOp, lhs: Expr, rhs: Expr, pos: Pos) -> Expr {
        if pos.index {
            simplify_binary(op, lhs, rhs)
        } else {
            Expr::binary(op, lhs, rhs)
        }
    }

    fn unary(&mut self, op: UnOp, arg: Expr, _: Pos) -> Expr {
        Expr::unary(op, arg)
    }

    fn cmp(&mut self, op: CmpOp, lhs: Expr, rhs: Expr, _: Pos) -> Expr {
        Expr::cmp(op, lhs, rhs)
    }

    fn select(&mut self, cond: Expr, then: Expr, other: Expr, _: Pos) -> Expr {
        Expr::select(cond, then, other)
    }
}

/// Light algebraic simplification of index expressions: removes `* 1`,
/// `+ 0`, `/ 1` and folds constant arithmetic, bottom-up.
pub fn simplify(e: &Expr) -> Expr {
    e.map(&mut |e| match e {
        Expr::Binary { op, lhs, rhs } => simplify_binary(op, *lhs, *rhs),
        other => other,
    })
}

/// [`simplify`]'s rule for one binary node whose operands are already
/// simplified.
fn simplify_binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let literal = |e: &Expr| match e {
        Expr::IntConst(c) => Some(*c),
        _ => None,
    };
    match Simplified::of(op, literal(&lhs), literal(&rhs)) {
        Simplified::Lhs => lhs,
        Simplified::Rhs => rhs,
        Simplified::Literal(c) => Expr::IntConst(c),
        Simplified::Kept => Expr::binary(op, lhs, rhs),
    }
}

/// What [`simplify`]'s rules make of one binary node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simplified {
    /// The left operand alone.
    Lhs,
    /// The right operand alone.
    Rhs,
    /// An integer literal; both operands are dropped.
    Literal(i64),
    /// The node as written.
    Kept,
}

impl Simplified {
    /// The rule table. All it asks of an operand is whether it is an
    /// integer literal, and which.
    pub(crate) fn of(op: BinOp, lhs: Option<i64>, rhs: Option<i64>) -> Simplified {
        match (op, lhs, rhs) {
            (BinOp::Mul, _, Some(1)) | (BinOp::Add, _, Some(0)) => Simplified::Lhs,
            (BinOp::Mul, Some(1), _) | (BinOp::Add, Some(0), _) => Simplified::Rhs,
            (BinOp::Mul, _, Some(0)) | (BinOp::Mul, Some(0), _) => Simplified::Literal(0),
            (BinOp::Div, _, Some(1)) => Simplified::Lhs,
            (BinOp::Mod, _, Some(1)) => Simplified::Literal(0),
            (op, Some(a), Some(b)) => match op {
                BinOp::Add => Simplified::Literal(a + b),
                BinOp::Sub => Simplified::Literal(a - b),
                BinOp::Mul => Simplified::Literal(a * b),
                BinOp::Div if b != 0 => Simplified::Literal(a / b),
                BinOp::Mod if b != 0 => Simplified::Literal(a % b),
                _ => Simplified::Kept,
            },
            _ => Simplified::Kept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::steps::Step;
    use std::sync::Arc;

    fn matmul_relu() -> Arc<ComputeDag> {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8, 4]);
        let w = b.placeholder("B", &[4, 6]);
        let c = b.compute_reduce("C", &[8, 6], &[4], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[8, 6], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn lower_naive_program() {
        let st = State::new(matmul_relu());
        let prog = lower(&st).unwrap();
        // C: init nest (2 loops) + compute nest (3 loops); D: 2 loops.
        assert_eq!(prog.num_stores(), 3);
        // Outer statements: init-for, compute-for for C, for for D.
        assert_eq!(prog.body.len(), 3);
    }

    #[test]
    fn lower_split_produces_derived_indices() {
        let mut st = State::new(matmul_relu());
        st.apply(Step::Split {
            node: "C".into(),
            iter: "i".into(),
            lengths: vec![2],
        })
        .unwrap();
        let prog = lower(&st).unwrap();
        let mut found_mul = false;
        prog.for_each_store(&mut |_, s| {
            if let Stmt::Store {
                buffer, indices, ..
            } = s
            {
                if prog.dag.nodes[*buffer].name == "C" && !indices.is_empty() {
                    // Index 0 should be i.0 * 2 + i.1.
                    if let Expr::Binary { op: BinOp::Add, .. } = &indices[0] {
                        found_mul = true;
                    }
                }
            }
        });
        assert!(found_mul);
    }

    #[test]
    fn lower_inline_substitutes_body() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8]);
        let r = b.compute("R", &[8], |ax| {
            Expr::max(Expr::load(a, vec![ax[0].clone()]), Expr::float(0.0))
        });
        b.compute("S", &[8], |ax| {
            Expr::load(r, vec![ax[0].clone()]) + Expr::float(1.0)
        });
        let dag = Arc::new(b.build().unwrap());
        let mut st = State::new(dag);
        st.apply(Step::ComputeInline { node: "R".into() }).unwrap();
        let prog = lower(&st).unwrap();
        // Only S's store remains, and it loads A directly.
        assert_eq!(prog.num_stores(), 1);
        prog.for_each_store(&mut |_, s| {
            if let Stmt::Store { value, .. } = s {
                let loads = value.loaded_nodes();
                assert_eq!(loads, vec![0]); // node A
            }
        });
    }

    #[test]
    fn simplify_folds_identities() {
        let e = Expr::LoopVar(0) * Expr::int(1) + Expr::int(0);
        assert_eq!(simplify(&e), Expr::LoopVar(0));
        let e = Expr::int(6) * Expr::int(7);
        assert_eq!(simplify(&e), Expr::IntConst(42));
    }

    #[test]
    fn fused_iterator_lowering_uses_div_mod() {
        let mut st = State::new(matmul_relu());
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let j = st.stages[sid].iter_by_name("j").unwrap();
        st.fuse(sid, &[i, j]).unwrap();
        let prog = lower(&st).unwrap();
        let mut saw_div = false;
        prog.for_each_store(&mut |_, s| {
            if let Stmt::Store { value, .. } = s {
                value.visit(&mut |e| {
                    if matches!(e, Expr::Binary { op: BinOp::Div, .. }) {
                        saw_div = true;
                    }
                });
            }
        });
        assert!(saw_div);
    }
}
