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
pub fn lower(state: &State) -> Result<Program, Error> {
    state.validate().map_err(|e| Error::Lower(e.to_string()))?;
    let mut ctx = LowerCtx {
        state,
        vars: Vec::new(),
        bindings: HashMap::new(),
        attach: HashMap::new(),
    };
    // Group compute-at stages under their target stage.
    for (sid, stage) in state.stages.iter().enumerate() {
        if let ComputeLoc::At { target, prefix_len } = stage.loc {
            let tsid = state
                .stage_of_node(target)
                .ok_or_else(|| Error::Lower("dangling compute_at target".into()))?;
            ctx.attach.entry(tsid).or_default().push((sid, prefix_len));
        }
    }
    let mut body = Vec::new();
    for (sid, stage) in state.stages.iter().enumerate() {
        if stage.loc == ComputeLoc::Root && state.dag.nodes[stage.node].compute().is_some() {
            body.extend(ctx.emit_stage(sid, &[])?);
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

struct LowerCtx<'a> {
    state: &'a State,
    vars: Vec<VarInfo>,
    /// Value of each (stage, iterator): a loop var or a prefix substitution.
    bindings: HashMap<(StageId, IterId), Expr>,
    /// target stage → [(producer stage, prefix_len)]
    attach: HashMap<StageId, Vec<(StageId, usize)>>,
}

impl LowerCtx<'_> {
    /// Emits one stage's loop nest. `prefix_vals` are the expressions bound
    /// to the stage's first iterators (empty for root stages).
    fn emit_stage(&mut self, sid: StageId, prefix_vals: &[Expr]) -> Result<Vec<Stmt>, Error> {
        let stage = &self.state.stages[sid];
        for (p, val) in prefix_vals.iter().enumerate() {
            self.bindings
                .insert((sid, stage.loop_order[p]), val.clone());
        }
        let skip = prefix_vals.len();
        let mut out = Vec::new();
        // Initialize the reduction accumulator over the (emitted) spatial
        // iterators before the compute loops.
        let spec = self.state.dag.nodes[stage.node]
            .compute()
            .ok_or_else(|| Error::Lower("placeholder stage emitted".into()))?;
        if let Some(reducer) = spec.reducer {
            let spatial: Vec<IterId> = stage.loop_order[skip..]
                .iter()
                .copied()
                .filter(|&i| stage.iters[i].kind == IterKind::Space)
                .collect();
            let nest = self.emit_init_nest(sid, &spatial, reducer)?;
            out.extend(nest);
        }
        let nest = self.emit_loops(sid, skip)?;
        out.extend(nest);
        Ok(out)
    }

    fn emit_init_nest(
        &mut self,
        sid: StageId,
        spatial: &[IterId],
        reducer: Reducer,
    ) -> Result<Vec<Stmt>, Error> {
        let stage = &self.state.stages[sid];
        // Fresh loop vars for the init nest; length-one loops are pinned.
        let mut saved = Vec::new();
        for &it in spatial {
            let binding = if self.state.stages[sid].iters[it].extent == 1 {
                Expr::IntConst(0)
            } else {
                Expr::LoopVar(self.fresh_var(sid, it))
            };
            saved.push(((sid, it), self.bindings.insert((sid, it), binding)));
        }
        let indices = self.spatial_axis_exprs(sid)?;
        let store = Stmt::Store {
            buffer: stage.node,
            indices,
            value: Expr::FloatConst(reducer.identity() as f64),
            reduce: None,
        };
        let mut body = vec![store];
        for &it in spatial.iter().rev() {
            let Expr::LoopVar(var) = self.bindings[&(sid, it)] else {
                continue; // pinned length-one loop
            };
            // The init nest inherits parallel/bind/vectorize annotations
            // (accumulators are initialized by the same workers that own
            // them); unrolling is left to the code generator.
            let info = &self.state.stages[sid].iters[it];
            let ann = if info.annotation == Annotation::Unroll {
                Annotation::None
            } else {
                info.annotation
            };
            body = vec![Stmt::For {
                var,
                extent: info.extent,
                ann,
                body,
            }];
        }
        // Restore previous bindings (remove the init vars).
        for (key, old) in saved {
            match old {
                Some(v) => {
                    self.bindings.insert(key, v);
                }
                None => {
                    self.bindings.remove(&key);
                }
            }
        }
        Ok(body)
    }

    fn emit_loops(&mut self, sid: StageId, pos: usize) -> Result<Vec<Stmt>, Error> {
        let stage = &self.state.stages[sid];
        let mut out = Vec::new();
        // Producers attached at this depth run before the rest of the nest.
        if let Some(attached) = self.attach.get(&sid).cloned() {
            for (psid, prefix_len) in attached {
                if prefix_len == pos {
                    let vals: Vec<Expr> = (0..prefix_len)
                        .map(|p| {
                            self.bindings[&(sid, self.state.stages[sid].loop_order[p])].clone()
                        })
                        .collect();
                    out.extend(self.emit_stage(psid, &vals)?);
                }
            }
        }
        if pos == stage.loop_order.len() {
            out.push(self.emit_body(sid)?);
            return Ok(out);
        }
        let it = stage.loop_order[pos];
        let info = &stage.iters[it];
        let extent = info.extent;
        let ann = info.annotation;
        if extent == 1 {
            // Length-one loops are simplified away (§4.2): the variable is
            // pinned to zero and no loop is emitted.
            self.bindings.insert((sid, it), Expr::IntConst(0));
            out.extend(self.emit_loops(sid, pos + 1)?);
            return Ok(out);
        }
        let var = self.fresh_var(sid, it);
        self.bindings.insert((sid, it), Expr::LoopVar(var));
        let body = self.emit_loops(sid, pos + 1)?;
        out.push(Stmt::For {
            var,
            extent,
            ann,
            body,
        });
        Ok(out)
    }

    fn emit_body(&mut self, sid: StageId) -> Result<Stmt, Error> {
        let stage = &self.state.stages[sid];
        let spec = self.state.dag.nodes[stage.node].compute().unwrap();
        let n_axes = spec.num_spatial() + spec.num_reduce();
        let axis_exprs: Vec<Expr> = (0..n_axes)
            .map(|a| self.iter_value(sid, stage.root_iters[a]))
            .collect::<Result<Vec<_>, _>>()?;
        let value = self.lower_expr(&spec.body.substitute_axes(&axis_exprs))?;
        let indices = axis_exprs[..spec.num_spatial()]
            .iter()
            .map(simplify)
            .collect();
        Ok(Stmt::Store {
            buffer: stage.node,
            indices,
            value,
            reduce: spec.reducer,
        })
    }

    /// Substitutes inlined-producer loads inside a lowered body expression.
    fn lower_expr(&self, e: &Expr) -> Result<Expr, Error> {
        let mut err = None;
        let out = e.map(&mut |e| match e {
            Expr::Load { node, indices } => {
                let sid = self.state.stage_of_node(node);
                let inlined = sid
                    .map(|s| {
                        self.state.stages[s].loc == ComputeLoc::Inlined
                            && self.state.dag.nodes[node].compute().is_some()
                    })
                    .unwrap_or(false);
                if inlined {
                    let spec = self.state.dag.nodes[node].compute().unwrap();
                    let body = spec.body.substitute_axes(&indices);
                    match self.lower_expr(&body) {
                        Ok(b) => b,
                        Err(e) => {
                            err = Some(e);
                            Expr::FloatConst(0.0)
                        }
                    }
                } else {
                    Expr::Load {
                        node,
                        indices: indices.iter().map(simplify).collect(),
                    }
                }
            }
            other => other,
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Value of an iterator as an expression over live loop variables.
    fn iter_value(&self, sid: StageId, it: IterId) -> Result<Expr, Error> {
        if let Some(e) = self.bindings.get(&(sid, it)) {
            return Ok(e.clone());
        }
        let info = &self.state.stages[sid].iters[it];
        if let Some(children) = &info.split_children {
            // value = sum(child_value * stride_of_child)
            let extents: Vec<i64> = children
                .iter()
                .map(|&c| self.state.stages[sid].iters[c].extent)
                .collect();
            let mut acc: Option<Expr> = None;
            for (j, &c) in children.iter().enumerate() {
                let stride: i64 = extents[j + 1..].iter().product();
                let v = self.iter_value(sid, c)?;
                let term = if stride == 1 {
                    v
                } else {
                    v * Expr::int(stride)
                };
                acc = Some(match acc {
                    None => term,
                    Some(a) => a + term,
                });
            }
            return Ok(acc.expect("split has children"));
        }
        if let Some((f, pos)) = info.fused_into {
            let IterSource::Fused(parts) = &self.state.stages[sid].iters[f].source else {
                return Err(Error::Lower("fused_into target is not a fuse node".into()));
            };
            let stride: i64 = parts[pos + 1..]
                .iter()
                .map(|&p| self.state.stages[sid].iters[p].extent)
                .product();
            let fv = self.iter_value(sid, f)?;
            let divided = if stride == 1 {
                fv
            } else {
                Expr::binary(BinOp::Div, fv, Expr::int(stride))
            };
            let modded = if pos == 0 {
                divided
            } else {
                Expr::binary(BinOp::Mod, divided, Expr::int(info.extent))
            };
            return Ok(modded);
        }
        Err(Error::Lower(format!(
            "iterator {:?} has no value (neither live nor derived)",
            info.name
        )))
    }

    fn spatial_axis_exprs(&self, sid: StageId) -> Result<Vec<Expr>, Error> {
        let stage = &self.state.stages[sid];
        let spec = self.state.dag.nodes[stage.node].compute().unwrap();
        (0..spec.num_spatial())
            .map(|a| {
                self.iter_value(sid, stage.root_iters[a])
                    .map(|e| simplify(&e))
            })
            .collect()
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
/// `+ 0`, `/ 1` and folds constant arithmetic.
pub fn simplify(e: &Expr) -> Expr {
    e.map(&mut |e| match e {
        Expr::Binary { op, lhs, rhs } => match (op, lhs.as_ref(), rhs.as_ref()) {
            (BinOp::Mul, x, Expr::IntConst(1)) | (BinOp::Add, x, Expr::IntConst(0)) => x.clone(),
            (BinOp::Mul, Expr::IntConst(1), x) | (BinOp::Add, Expr::IntConst(0), x) => x.clone(),
            (BinOp::Mul, _, Expr::IntConst(0)) | (BinOp::Mul, Expr::IntConst(0), _) => {
                Expr::IntConst(0)
            }
            (BinOp::Div, x, Expr::IntConst(1)) => x.clone(),
            (BinOp::Mod, _, Expr::IntConst(1)) => Expr::IntConst(0),
            (op, Expr::IntConst(a), Expr::IntConst(b)) => match op {
                BinOp::Add => Expr::IntConst(a + b),
                BinOp::Sub => Expr::IntConst(a - b),
                BinOp::Mul => Expr::IntConst(a * b),
                BinOp::Div if *b != 0 => Expr::IntConst(a / b),
                BinOp::Mod if *b != 0 => Expr::IntConst(a % b),
                _ => Expr::Binary { op, lhs, rhs },
            },
            _ => Expr::Binary { op, lhs, rhs },
        },
        other => other,
    })
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
