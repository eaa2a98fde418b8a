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

use crate::dag::{ComputeDag, ComputeSpec, Reducer};
use crate::error::Error;
use crate::expr::{BinOp, Expr, NodeId, VarId};
use crate::state::{Annotation, ComputeLoc, IterId, IterKind, IterSource, StageId, State};

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
    pub name: String,
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
/// One traversal: every expression of the result is built exactly once, in
/// its final form — load indices through [`simplify`]'s per-node rule as
/// they are assembled, everything else as written — so lowering allocates
/// little beyond the tree it returns.
pub fn lower(state: &State) -> Result<Program, Error> {
    state.validate().map_err(|e| Error::Lower(e.to_string()))?;
    let mut iter_base = Vec::with_capacity(state.stages.len());
    let mut n_iters = 0;
    for stage in &state.stages {
        iter_base.push(n_iters);
        n_iters += stage.iters.len();
    }
    let mut ctx = LowerCtx {
        state,
        vars: Vec::new(),
        iter_base,
        bindings: vec![None; n_iters],
    };
    let mut body = Vec::new();
    for (sid, stage) in state.stages.iter().enumerate() {
        if stage.loc == ComputeLoc::Root && state.dag.nodes[stage.node].compute().is_some() {
            ctx.emit_stage(sid, 0, &mut body)?;
        }
    }
    Ok(Program {
        dag: state.dag.clone(),
        body,
        vars: ctx.vars,
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

/// How a binary node of the result is made: [`Expr::binary`] where the
/// value is kept as written, [`simplify_binary`] inside a load or store
/// index. Operands are built first, so a simplified value never exists in
/// unsimplified form.
type MakeBinary = fn(BinOp, Expr, Expr) -> Expr;

/// What [`Expr::Axis`] stands for while a compute body is walked.
enum Axes<'e> {
    /// Axis `k` is root iterator `k` of the stage being emitted.
    Stage(StageId),
    /// The body of a producer inlined at a load: axis `k` is the load's
    /// index `k`, itself read under the loading body's axes.
    Inlined(&'e [Expr], &'e Axes<'e>),
}

struct LowerCtx<'a> {
    state: &'a State,
    vars: Vec<VarInfo>,
    /// Where each stage's iterators start in `bindings`.
    iter_base: Vec<usize>,
    /// Value of each live iterator once its loop is open: a loop variable,
    /// or zero for a length-one loop. Indexed `iter_base[stage] + iter`.
    bindings: Vec<Option<Expr>>,
}

impl<'a> LowerCtx<'a> {
    /// Emits one stage's loop nest into `out`. The stage's first `skip`
    /// iterators are already bound (a compute-at prefix; 0 for root stages).
    fn emit_stage(&mut self, sid: StageId, skip: usize, out: &mut Vec<Stmt>) -> Result<(), Error> {
        let spec = self.state.dag.nodes[self.state.stages[sid].node]
            .compute()
            .ok_or_else(|| Error::Lower("placeholder stage emitted".into()))?;
        // Initialize the reduction accumulator over the (emitted) spatial
        // iterators before the compute loops.
        if let Some(reducer) = spec.reducer {
            self.emit_init_nest(sid, skip, reducer, out)?;
        }
        self.emit_loops(sid, skip, out)
    }

    fn emit_init_nest(
        &mut self,
        sid: StageId,
        skip: usize,
        reducer: Reducer,
        out: &mut Vec<Stmt>,
    ) -> Result<(), Error> {
        let stage = &self.state.stages[sid];
        let spatial = || {
            stage.loop_order[skip..]
                .iter()
                .map(|&it| (it, &stage.iters[it]))
                .filter(|(_, info)| info.kind == IterKind::Space)
        };
        // Fresh loop vars for the init nest (the compute nest rebinds its
        // iterators as it opens them); length-one loops are pinned.
        for (it, info) in spatial() {
            let value = if info.extent == 1 {
                Expr::IntConst(0)
            } else {
                Expr::LoopVar(self.fresh_var(sid, it))
            };
            self.bind(sid, it, value);
        }
        let mut nest = Stmt::Store {
            buffer: stage.node,
            indices: self.store_indices(sid)?,
            value: Expr::FloatConst(reducer.identity() as f64),
            reduce: None,
        };
        for (it, info) in spatial().rev() {
            let Some(&Expr::LoopVar(var)) = self.bound(sid, it) else {
                continue; // pinned length-one loop
            };
            // The init nest inherits parallel/bind/vectorize annotations
            // (accumulators are initialized by the same workers that own
            // them); unrolling is left to the code generator.
            let ann = if info.annotation == Annotation::Unroll {
                Annotation::None
            } else {
                info.annotation
            };
            nest = Stmt::For {
                var,
                extent: info.extent,
                ann,
                body: vec![nest],
            };
        }
        out.push(nest);
        Ok(())
    }

    fn emit_loops(&mut self, sid: StageId, pos: usize, out: &mut Vec<Stmt>) -> Result<(), Error> {
        let state = self.state;
        let stage = &state.stages[sid];
        // Producers attached at this depth run before the rest of the nest,
        // their first `pos` iterators bound to this stage's. (`validate`
        // has checked that every compute-at target has a stage.)
        let here = ComputeLoc::At {
            target: stage.node,
            prefix_len: pos,
        };
        for (psid, producer) in state.stages.iter().enumerate() {
            if producer.loc == here {
                for p in 0..pos {
                    let value = self.bound(sid, stage.loop_order[p]).cloned();
                    self.bind(
                        psid,
                        producer.loop_order[p],
                        value.expect("loops above `pos` are open"),
                    );
                }
                self.emit_stage(psid, pos, out)?;
            }
        }
        if pos == stage.loop_order.len() {
            out.push(self.emit_body(sid)?);
            return Ok(());
        }
        let it = stage.loop_order[pos];
        let info = &stage.iters[it];
        if info.extent == 1 {
            // Length-one loops are simplified away (§4.2): the variable is
            // pinned to zero and no loop is emitted.
            self.bind(sid, it, Expr::IntConst(0));
            return self.emit_loops(sid, pos + 1, out);
        }
        let var = self.fresh_var(sid, it);
        self.bind(sid, it, Expr::LoopVar(var));
        let mut body = Vec::new();
        self.emit_loops(sid, pos + 1, &mut body)?;
        out.push(Stmt::For {
            var,
            extent: info.extent,
            ann: info.annotation,
            body,
        });
        Ok(())
    }

    /// The value a live iterator is bound to, if its loop is open.
    fn bound(&self, sid: StageId, it: IterId) -> Option<&Expr> {
        self.bindings[self.iter_base[sid] + it].as_ref()
    }

    fn bind(&mut self, sid: StageId, it: IterId, value: Expr) {
        let slot = self.iter_base[sid] + it;
        self.bindings[slot] = Some(value);
    }

    /// The compute definition of a stage `emit_stage` accepted.
    fn spec(&self, sid: StageId) -> &'a ComputeSpec {
        self.state.dag.nodes[self.state.stages[sid].node]
            .compute()
            .expect("emit_stage refuses placeholder stages")
    }

    fn emit_body(&self, sid: StageId) -> Result<Stmt, Error> {
        let spec = self.spec(sid);
        Ok(Stmt::Store {
            buffer: self.state.stages[sid].node,
            indices: self.store_indices(sid)?,
            value: self.build(&spec.body, &Axes::Stage(sid), Expr::binary)?,
            reduce: spec.reducer,
        })
    }

    /// The stage's spatial axes as (simplified) buffer indices.
    fn store_indices(&self, sid: StageId) -> Result<Vec<Expr>, Error> {
        let roots = &self.state.stages[sid].root_iters;
        (0..self.spec(sid).num_spatial())
            .map(|a| self.iter_value(sid, roots[a], simplify_binary))
            .collect()
    }

    /// Builds the lowered form of a compute-body expression: axes replaced
    /// by their values over live loop variables, inlined producers expanded
    /// at their load sites, every remaining load's indices simplified.
    fn build(&self, e: &Expr, axes: &Axes, make: MakeBinary) -> Result<Expr, Error> {
        Ok(match e {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::LoopVar(_) => e.clone(),
            Expr::Axis(k) => match axes {
                Axes::Stage(sid) => {
                    self.iter_value(*sid, self.state.stages[*sid].root_iters[*k], make)?
                }
                Axes::Inlined(indices, outer) => self.build(&indices[*k], outer, make)?,
            },
            Expr::Load { node, indices } => {
                let inlined = self
                    .state
                    .stage_of_node(*node)
                    .is_some_and(|s| self.state.stages[s].loc == ComputeLoc::Inlined);
                match self.state.dag.nodes[*node].compute() {
                    Some(spec) if inlined => {
                        self.build(&spec.body, &Axes::Inlined(indices, axes), make)?
                    }
                    _ => Expr::Load {
                        node: *node,
                        indices: indices
                            .iter()
                            .map(|i| self.build(i, axes, simplify_binary))
                            .collect::<Result<_, _>>()?,
                    },
                }
            }
            Expr::Binary { op, lhs, rhs } => make(
                *op,
                self.build(lhs, axes, make)?,
                self.build(rhs, axes, make)?,
            ),
            Expr::Unary { op, arg } => Expr::unary(*op, self.build(arg, axes, make)?),
            Expr::Cmp { op, lhs, rhs } => Expr::cmp(
                *op,
                self.build(lhs, axes, make)?,
                self.build(rhs, axes, make)?,
            ),
            Expr::Select { cond, then, other } => Expr::select(
                self.build(cond, axes, make)?,
                self.build(then, axes, make)?,
                self.build(other, axes, make)?,
            ),
        })
    }

    /// Value of an iterator as an expression over live loop variables.
    fn iter_value(&self, sid: StageId, it: IterId, make: MakeBinary) -> Result<Expr, Error> {
        if let Some(e) = self.bound(sid, it) {
            return Ok(e.clone());
        }
        let iters = &self.state.stages[sid].iters;
        let info = &iters[it];
        let volume = |its: &[IterId]| its.iter().map(|&i| iters[i].extent).product::<i64>();
        if let Some(children) = &info.split_children {
            // value = sum(child_value * stride_of_child)
            let mut acc: Option<Expr> = None;
            for (j, &c) in children.iter().enumerate() {
                let stride = volume(&children[j + 1..]);
                let v = self.iter_value(sid, c, make)?;
                let term = if stride == 1 {
                    v
                } else {
                    make(BinOp::Mul, v, Expr::int(stride))
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => make(BinOp::Add, a, term),
                });
            }
            return Ok(acc.expect("split has children"));
        }
        if let Some((f, pos)) = info.fused_into {
            let IterSource::Fused(parts) = &iters[f].source else {
                return Err(Error::Lower("fused_into target is not a fuse node".into()));
            };
            let stride = volume(&parts[pos + 1..]);
            let fv = self.iter_value(sid, f, make)?;
            let divided = if stride == 1 {
                fv
            } else {
                make(BinOp::Div, fv, Expr::int(stride))
            };
            let modded = if pos == 0 {
                divided
            } else {
                make(BinOp::Mod, divided, Expr::int(info.extent))
            };
            return Ok(modded);
        }
        Err(Error::Lower(format!(
            "iterator {:?} has no value (neither live nor derived)",
            info.name
        )))
    }

    fn fresh_var(&mut self, sid: StageId, it: IterId) -> VarId {
        let info = &self.state.stages[sid].iters[it];
        let id = self.vars.len() as VarId;
        self.vars.push(VarInfo {
            name: info.name.clone(),
            extent: info.extent,
            stage: sid,
            kind: info.kind,
        });
        id
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
    match (op, &lhs, &rhs) {
        (BinOp::Mul, _, Expr::IntConst(1)) | (BinOp::Add, _, Expr::IntConst(0)) => lhs,
        (BinOp::Mul, Expr::IntConst(1), _) | (BinOp::Add, Expr::IntConst(0), _) => rhs,
        (BinOp::Mul, _, Expr::IntConst(0)) | (BinOp::Mul, Expr::IntConst(0), _) => {
            Expr::IntConst(0)
        }
        (BinOp::Div, _, Expr::IntConst(1)) => lhs,
        (BinOp::Mod, _, Expr::IntConst(1)) => Expr::IntConst(0),
        (op, &Expr::IntConst(a), &Expr::IntConst(b)) => match op {
            BinOp::Add => Expr::IntConst(a + b),
            BinOp::Sub => Expr::IntConst(a - b),
            BinOp::Mul => Expr::IntConst(a * b),
            BinOp::Div if b != 0 => Expr::IntConst(a / b),
            BinOp::Mod if b != 0 => Expr::IntConst(a % b),
            _ => Expr::binary(op, lhs, rhs),
        },
        _ => Expr::binary(op, lhs, rhs),
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
