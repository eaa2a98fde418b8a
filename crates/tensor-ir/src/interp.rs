//! Functional interpreter for lowered programs.
//!
//! Executes a [`Program`] over real `f32` buffers. This replaces the
//! role LLVM plays in the paper's pipeline for *functional correctness*:
//! every schedule transformation can be verified by checking that the
//! transformed program computes the same values as the naive program.

use std::collections::HashMap;

use crate::dag::{ComputeDag, NodeKind};
use crate::error::Error;
use crate::expr::{BinOp, CmpOp, Expr, NodeId, UnOp};
use crate::lower::{Program, Stmt};

/// A dynamically typed scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    /// Integer (index arithmetic).
    I(i64),
    /// 32-bit float (tensor data).
    F(f32),
}

impl Value {
    fn as_f32(self) -> f32 {
        match self {
            Value::I(v) => v as f32,
            Value::F(v) => v,
        }
    }

    fn as_i64(self) -> Result<i64, Error> {
        match self {
            Value::I(v) => Ok(v),
            Value::F(_) => Err(Error::Interp("expected integer value".into())),
        }
    }

    fn as_bool(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }
}

/// Buffer storage for one program execution: one flat `f32` vector per node.
#[derive(Debug, Clone)]
pub struct Buffers {
    data: Vec<Vec<f32>>,
    shapes: Vec<Vec<i64>>,
}

impl Buffers {
    /// Allocates buffers for every node of the program's DAG: zeroed for
    /// computed tensors and external inputs, pre-filled for constant
    /// tensors with known contents.
    pub fn for_program(program: &Program) -> Buffers {
        let shapes: Vec<Vec<i64>> = program
            .dag
            .nodes
            .iter()
            .map(|n| n.shape().to_vec())
            .collect();
        let data = program
            .dag
            .nodes
            .iter()
            .zip(&shapes)
            .map(|(n, s)| match n.const_data() {
                Some(d) => d.to_vec(),
                None => vec![0.0; s.iter().product::<i64>() as usize],
            })
            .collect();
        Buffers { data, shapes }
    }

    /// Fills an input buffer with the given data.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the node's element count.
    pub fn set_input(&mut self, node: NodeId, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.data[node].len(),
            "input size mismatch for node {node}"
        );
        self.data[node].copy_from_slice(values);
    }

    /// Read access to a node's buffer.
    pub fn get(&self, node: NodeId) -> &[f32] {
        &self.data[node]
    }
}

/// Executes a program. `inputs` maps placeholder node ids to their data;
/// missing placeholders default to zero. Returns the filled buffers.
pub fn run(program: &Program, inputs: &HashMap<NodeId, Vec<f32>>) -> Result<Buffers, Error> {
    let mut bufs = Buffers::for_program(program);
    for (node, data) in inputs {
        bufs.set_input(*node, data);
    }
    let mut env: Vec<i64> = vec![0; program.vars.len()];
    for stmt in &program.body {
        exec(stmt, &mut env, &mut bufs)?;
    }
    Ok(bufs)
}

/// Executes `program`, lowered from a schedule of `dag`, on `inputs` keyed
/// by `dag`'s node ids, and returns its buffers keyed by them too: what
/// [`run_naive`] of `dag` returns wherever the schedule is correct.
/// `cache_write` and `rfactor` run a program on a derived DAG whose node
/// ids are shifted, so inputs and buffers move between the two by name.
pub fn run_scheduled(
    dag: &ComputeDag,
    program: &Program,
    inputs: &HashMap<NodeId, Vec<f32>>,
) -> Result<Buffers, Error> {
    let id = |node: NodeId| {
        let name = &dag.nodes[node].name;
        let missing = || Error::Interp(format!("node {name:?} is not in the program's DAG"));
        program.dag.node_id(name).ok_or_else(missing)
    };
    let moved = inputs
        .iter()
        .map(|(&node, data)| Ok((id(node)?, data.clone())))
        .collect::<Result<_, Error>>()?;
    let mut bufs = run(program, &moved)?;
    let mut out = Buffers {
        data: Vec::new(),
        shapes: Vec::new(),
    };
    for node in 0..dag.nodes.len() {
        let i = id(node)?;
        out.data.push(std::mem::take(&mut bufs.data[i]));
        out.shapes.push(std::mem::take(&mut bufs.shapes[i]));
    }
    Ok(out)
}

/// Executes the naive (unscheduled) program of a DAG and returns its buffers.
///
/// This is the reference used by equivalence tests: any scheduled program for
/// the same DAG must produce identical output buffers.
pub fn run_naive(
    dag: &std::sync::Arc<ComputeDag>,
    inputs: &HashMap<NodeId, Vec<f32>>,
) -> Result<Buffers, Error> {
    let state = crate::state::State::new(dag.clone());
    let program = crate::lower::lower(&state)?;
    run(&program, inputs)
}

fn exec(stmt: &Stmt, env: &mut Vec<i64>, bufs: &mut Buffers) -> Result<(), Error> {
    match stmt {
        Stmt::For {
            var, extent, body, ..
        } => {
            for v in 0..*extent {
                env[*var as usize] = v;
                for s in body {
                    exec(s, env, bufs)?;
                }
            }
            Ok(())
        }
        Stmt::Store {
            buffer,
            indices,
            value,
            reduce,
        } => {
            let flat = flat_index(*buffer, indices, env, bufs)?;
            let v = eval(value, env, bufs)?.as_f32();
            let slot = &mut bufs.data[*buffer][flat];
            *slot = match reduce {
                Some(r) => r.combine(*slot, v),
                None => v,
            };
            Ok(())
        }
    }
}

fn eval(e: &Expr, env: &[i64], bufs: &Buffers) -> Result<Value, Error> {
    Ok(match e {
        Expr::FloatConst(v) => Value::F(*v as f32),
        Expr::IntConst(v) => Value::I(*v),
        Expr::LoopVar(v) => Value::I(env[*v as usize]),
        Expr::Axis(a) => {
            return Err(Error::Interp(format!(
                "unresolved axis {a} in lowered program"
            )))
        }
        Expr::Load { node, indices } => {
            Value::F(bufs.data[*node][flat_index(*node, indices, env, bufs)?])
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, env, bufs)?;
            let r = eval(rhs, env, bufs)?;
            match (l, r) {
                (Value::I(a), Value::I(b)) => Value::I(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(Error::Interp("integer division by zero".into()));
                        }
                        a / b
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(Error::Interp("integer modulo by zero".into()));
                        }
                        a % b
                    }
                    BinOp::Min => a.min(b),
                    BinOp::Max => a.max(b),
                }),
                (l, r) => {
                    let (a, b) = (l.as_f32(), r.as_f32());
                    Value::F(match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        BinOp::Mod => a % b,
                        BinOp::Min => a.min(b),
                        BinOp::Max => a.max(b),
                    })
                }
            }
        }
        Expr::Unary { op, arg } => {
            let v = eval(arg, env, bufs)?.as_f32();
            Value::F(match op {
                UnOp::Neg => -v,
                UnOp::Abs => v.abs(),
                UnOp::Sqrt => v.sqrt(),
                UnOp::Exp => v.exp(),
                UnOp::Tanh => v.tanh(),
                UnOp::Erf => erf_approx(v),
            })
        }
        Expr::Cmp { op, lhs, rhs } => {
            let l = eval(lhs, env, bufs)?;
            let r = eval(rhs, env, bufs)?;
            let b = match (l, r) {
                (Value::I(a), Value::I(b)) => cmp_ord(*op, a.cmp(&b)),
                (l, r) => {
                    let (a, b) = (l.as_f32(), r.as_f32());
                    match op {
                        CmpOp::Lt => a < b,
                        CmpOp::Le => a <= b,
                        CmpOp::Eq => a == b,
                        CmpOp::Ne => a != b,
                        CmpOp::Ge => a >= b,
                        CmpOp::Gt => a > b,
                    }
                }
            };
            Value::I(b as i64)
        }
        Expr::Select { cond, then, other } => {
            if eval(cond, env, bufs)?.as_bool() {
                eval(then, env, bufs)?
            } else {
                eval(other, env, bufs)?
            }
        }
    })
}

/// The offset of `node`'s element at `indices`, evaluated under `env`, in
/// its flat buffer: an error for a wrong arity or an index out of bounds.
fn flat_index(node: NodeId, indices: &[Expr], env: &[i64], bufs: &Buffers) -> Result<usize, Error> {
    let shape = &bufs.shapes[node];
    if indices.len() != shape.len() {
        return Err(Error::Interp(format!(
            "index arity mismatch for node {node}: {} vs {}",
            indices.len(),
            shape.len()
        )));
    }
    let mut flat: i64 = 0;
    for (d, (e, &extent)) in indices.iter().zip(shape).enumerate() {
        let i = eval(e, env, bufs)?.as_i64()?;
        if i < 0 || i >= extent {
            return Err(Error::Interp(format!(
                "index {i} out of bounds for dim {d} (extent {extent}) of node {node}"
            )));
        }
        flat = flat * extent + i;
    }
    Ok(flat as usize)
}

fn cmp_ord(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (CmpOp::Lt, Less)
            | (CmpOp::Le, Less)
            | (CmpOp::Le, Equal)
            | (CmpOp::Eq, Equal)
            | (CmpOp::Ne, Less)
            | (CmpOp::Ne, Greater)
            | (CmpOp::Ge, Greater)
            | (CmpOp::Ge, Equal)
            | (CmpOp::Gt, Greater)
    )
}

/// Abramowitz–Stegun style erf approximation (sufficient for f32 tests).
pub(crate) fn erf_approx(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

/// Generates deterministic pseudo-random input data for every placeholder of
/// a DAG (useful for equivalence testing).
pub fn random_inputs(dag: &ComputeDag, seed: u64) -> HashMap<NodeId, Vec<f32>> {
    let mut out = HashMap::new();
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for n in &dag.nodes {
        if matches!(n.kind, NodeKind::Placeholder { .. }) && n.const_data().is_none() {
            let len = n.num_elements() as usize;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Map to [-1, 1).
                v.push(((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0);
            }
            out.insert(n.id, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::dag::Reducer;
    use crate::lower::lower;
    use crate::state::{Annotation, State};
    use crate::steps::Step;
    use std::sync::Arc;

    fn matmul_relu_dag() -> Arc<ComputeDag> {
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

    fn reference_matmul_relu(a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut d = vec![0.0f32; 8 * 6];
        for i in 0..8 {
            for j in 0..6 {
                let mut acc = 0.0;
                for k in 0..4 {
                    acc += a[i * 4 + k] * b[k * 6 + j];
                }
                d[i * 6 + j] = acc.max(0.0);
            }
        }
        d
    }

    #[test]
    fn naive_program_matches_reference() {
        let dag = matmul_relu_dag();
        let inputs = random_inputs(&dag, 42);
        let bufs = run_naive(&dag, &inputs).unwrap();
        let expect = reference_matmul_relu(&inputs[&0], &inputs[&1]);
        let got = bufs.get(3);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-4, "{g} vs {e}");
        }
    }

    #[test]
    fn scheduled_program_matches_naive() {
        let dag = matmul_relu_dag();
        let inputs = random_inputs(&dag, 7);
        let reference = run_naive(&dag, &inputs).unwrap();

        let mut st = State::new(dag.clone());
        for step in [
            Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![2, 2],
            },
            Step::Split {
                node: "C".into(),
                iter: "j".into(),
                lengths: vec![3],
            },
            Step::Split {
                node: "C".into(),
                iter: "k".into(),
                lengths: vec![2],
            },
            Step::Annotate {
                node: "C".into(),
                iter: "j.1".into(),
                ann: Annotation::Vectorize,
            },
        ] {
            st.apply(step).unwrap();
        }
        let prog = lower(&st).unwrap();
        let bufs = run_scheduled(&dag, &prog, &inputs).unwrap();
        assert_eq!(bufs.get(3), reference.get(3));
        // The matmul intermediate also matches.
        assert_eq!(bufs.get(2), reference.get(2));
    }

    #[test]
    fn scheduled_buffers_are_keyed_by_the_task_dags_node_ids() {
        let dag = matmul_relu_dag();
        let inputs = random_inputs(&dag, 3);
        let reference = run_naive(&dag, &inputs).unwrap();
        let mut st = State::new(dag.clone());
        st.apply(Step::CacheWrite { node: "C".into() }).unwrap();
        let prog = lower(&st).unwrap();
        // C.cache is node 2 of the program: D moved from 3 to 4.
        assert_eq!(run(&prog, &inputs).unwrap().get(4), reference.get(3));
        let bufs = run_scheduled(&dag, &prog, &inputs).unwrap();
        assert_eq!(bufs.get(3), reference.get(3));
        assert_eq!(bufs.get(2), reference.get(2));
    }

    #[test]
    fn rfactor_is_semantics_preserving() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[4, 32]);
        b.compute_reduce("E", &[4], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[1].clone()])
                * Expr::load(a, vec![ax[0].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let inputs = random_inputs(&dag, 11);
        let reference = run_naive(&dag, &inputs).unwrap();
        let mut st = State::new(dag.clone());
        st.apply(Step::Rfactor {
            node: "E".into(),
            factor: 8,
        })
        .unwrap();
        let prog = lower(&st).unwrap();
        let bufs = run_scheduled(&dag, &prog, &inputs).unwrap();
        let (got, expect) = (bufs.get(1), reference.get(1));
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(expect) {
            assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    #[test]
    fn erf_is_close_to_tanh_based_reference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            // erf is odd and bounded by 1.
            assert!(erf_approx(x).abs() <= 1.0);
            assert!((erf_approx(x) + erf_approx(-x)).abs() < 1e-6);
        }
        assert!((erf_approx(1.0) - 0.8427).abs() < 1e-3);
    }
}
