//! Scalar expression AST used in compute definitions and lowered programs.
//!
//! Expressions appear in two phases:
//!
//! 1. **Definition phase**: the body of a compute node refers to its own
//!    iteration axes via [`Expr::Axis`] and to other DAG nodes via
//!    [`Expr::Load`].
//! 2. **Lowered phase**: after lowering, every [`Expr::Axis`] has been
//!    substituted by an expression over loop variables ([`Expr::LoopVar`]).

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// Identifier of a DAG node (index into [`crate::dag::ComputeDag::nodes`]).
pub type NodeId = usize;

/// Identifier of a loop variable introduced during lowering.
pub type VarId = u32;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division for integer operands).
    Div,
    /// Remainder.
    Mod,
    /// Binary minimum.
    Min,
    /// Binary maximum.
    Max,
}

/// Comparison operators producing a boolean value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Greater than or equal.
    Ge,
    /// Greater than.
    Gt,
}

/// Unary intrinsic math functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Hyperbolic tangent.
    Tanh,
    /// Error function approximation (used by GELU in BERT-like workloads).
    Erf,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A 32-bit float constant (stored as `f64` for convenience).
    FloatConst(f64),
    /// An integer constant.
    IntConst(i64),
    /// Reference to an iteration axis of the owning compute node.
    ///
    /// Axes `0..nspatial` are spatial; axes `nspatial..` are reduction axes.
    Axis(usize),
    /// Reference to a loop variable (present only after lowering).
    LoopVar(VarId),
    /// Element load from the output buffer of another DAG node.
    Load {
        /// Producer node.
        node: NodeId,
        /// One index expression per buffer dimension.
        indices: Vec<Expr>,
    },
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary intrinsic.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// Comparison; evaluates to 1.0 / 0.0 when used as a float and to a
    /// boolean when used as a select condition.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Conditional selection `if cond { then } else { other }`.
    Select {
        /// Condition (a comparison or boolean-valued expression).
        cond: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        other: Box<Expr>,
    },
}

// By hand because of `FloatConst`, hashed by bit pattern.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match self {
            Expr::FloatConst(v) => v.to_bits().hash(h),
            Expr::IntConst(v) => v.hash(h),
            Expr::Axis(a) => a.hash(h),
            Expr::LoopVar(v) => v.hash(h),
            Expr::Load { node, indices } => (node, indices).hash(h),
            Expr::Binary { op, lhs, rhs } => (op, lhs, rhs).hash(h),
            Expr::Unary { op, arg } => (op, arg).hash(h),
            Expr::Cmp { op, lhs, rhs } => (op, lhs, rhs).hash(h),
            Expr::Select { cond, then, other } => (cond, then, other).hash(h),
        }
    }
}

impl Expr {
    /// Returns an integer constant expression.
    pub fn int(v: i64) -> Expr {
        Expr::IntConst(v)
    }

    /// Returns a float constant expression.
    pub fn float(v: f64) -> Expr {
        Expr::FloatConst(v)
    }

    /// Returns an axis reference.
    pub fn axis(i: usize) -> Expr {
        Expr::Axis(i)
    }

    /// Builds a load of `node` at the given indices.
    pub fn load(node: NodeId, indices: Vec<Expr>) -> Expr {
        Expr::Load { node, indices }
    }

    /// Builds a binary expression.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds a comparison expression.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds a select expression.
    pub fn select(cond: Expr, then: Expr, other: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(cond),
            then: Box::new(then),
            other: Box::new(other),
        }
    }

    /// Builds a unary intrinsic call.
    pub fn unary(op: UnOp, arg: Expr) -> Expr {
        Expr::Unary {
            op,
            arg: Box::new(arg),
        }
    }

    /// Binary maximum helper.
    pub fn max(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Max, lhs, rhs)
    }

    /// Binary minimum helper.
    pub fn min(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Min, lhs, rhs)
    }

    /// Applies `f` to every sub-expression (post-order), rebuilding the tree.
    pub fn map(&self, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Axis(_) | Expr::LoopVar(_) => {
                self.clone()
            }
            Expr::Load { node, indices } => Expr::Load {
                node: *node,
                indices: indices.iter().map(|e| e.map(f)).collect(),
            },
            Expr::Binary { op, lhs, rhs } => Expr::binary(*op, lhs.map(f), rhs.map(f)),
            Expr::Unary { op, arg } => Expr::unary(*op, arg.map(f)),
            Expr::Cmp { op, lhs, rhs } => Expr::cmp(*op, lhs.map(f), rhs.map(f)),
            Expr::Select { cond, then, other } => {
                Expr::select(cond.map(f), then.map(f), other.map(f))
            }
        };
        f(rebuilt)
    }

    /// Visits every sub-expression (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Axis(_) | Expr::LoopVar(_) => {}
            Expr::Load { indices, .. } => {
                for e in indices {
                    e.visit(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Unary { arg, .. } => arg.visit(f),
            Expr::Select { cond, then, other } => {
                cond.visit(f);
                then.visit(f);
                other.visit(f);
            }
        }
    }

    /// Returns the set of DAG nodes loaded (directly) by this expression.
    pub fn loaded_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Load { node, .. } = e {
                if !out.contains(node) {
                    out.push(*node);
                }
            }
        });
        out
    }

    /// Counts arithmetic operations by class: `(float_ops, int_ops, math_calls)`.
    ///
    /// Index arithmetic inside load indices is counted as integer ops.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        self.count_into(&mut c, false);
        c
    }

    fn count_into(&self, c: &mut OpCounts, in_index: bool) {
        match self {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Axis(_) | Expr::LoopVar(_) => {}
            Expr::Load { indices, .. } => {
                c.loads += 1;
                for e in indices {
                    e.count_into(c, true);
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                if in_index {
                    c.int_ops += 1;
                } else {
                    match op {
                        BinOp::Add => c.float_add += 1,
                        BinOp::Sub => c.float_sub += 1,
                        BinOp::Mul => c.float_mul += 1,
                        BinOp::Div => c.float_div += 1,
                        BinOp::Mod => c.float_mod += 1,
                        BinOp::Min | BinOp::Max => c.float_cmp += 1,
                    }
                }
                lhs.count_into(c, in_index);
                rhs.count_into(c, in_index);
            }
            Expr::Unary { op, arg } => {
                if !in_index {
                    match op {
                        UnOp::Neg | UnOp::Abs => c.float_add += 1,
                        UnOp::Sqrt | UnOp::Exp | UnOp::Tanh | UnOp::Erf => c.math_calls += 1,
                    }
                }
                arg.count_into(c, in_index);
            }
            Expr::Cmp { lhs, rhs, .. } => {
                if in_index {
                    c.int_ops += 1;
                } else {
                    c.float_cmp += 1;
                }
                lhs.count_into(c, in_index);
                rhs.count_into(c, in_index);
            }
            Expr::Select { cond, then, other } => {
                c.selects += 1;
                cond.count_into(c, in_index);
                then.count_into(c, in_index);
                other.count_into(c, in_index);
            }
        }
    }
}

/// Operation counts extracted from a single expression.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Floating-point additions.
    pub float_add: u64,
    /// Floating-point subtractions.
    pub float_sub: u64,
    /// Floating-point multiplications.
    pub float_mul: u64,
    /// Floating-point divisions.
    pub float_div: u64,
    /// Floating-point modulo operations.
    pub float_mod: u64,
    /// Floating-point comparisons (including min/max).
    pub float_cmp: u64,
    /// Intrinsic math function calls (exp, sqrt, ...).
    pub math_calls: u64,
    /// Integer operations (index arithmetic).
    pub int_ops: u64,
    /// Buffer loads.
    pub loads: u64,
    /// Select operations.
    pub selects: u64,
}

impl OpCounts {
    /// Total number of floating point operations.
    pub fn total_flops(&self) -> u64 {
        self.float_add
            + self.float_sub
            + self.float_mul
            + self.float_div
            + self.float_mod
            + self.float_cmp
            + 4 * self.math_calls
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_distinguish_index_math() {
        // load(A, [i*2 + j]) * load(B, [j]) + 1.0
        let e = Expr::load(0, vec![Expr::axis(0) * Expr::int(2) + Expr::axis(1)])
            * Expr::load(1, vec![Expr::axis(1)])
            + Expr::float(1.0);
        let c = e.op_counts();
        assert_eq!(c.float_mul, 1);
        assert_eq!(c.float_add, 1);
        assert_eq!(c.int_ops, 2);
        assert_eq!(c.loads, 2);
    }

    #[test]
    fn loaded_nodes_dedups() {
        let e = Expr::load(7, vec![Expr::axis(0)]) + Expr::load(7, vec![Expr::axis(1)]);
        assert_eq!(e.loaded_nodes(), vec![7]);
    }

    #[test]
    fn max_and_select_builders() {
        let m = Expr::max(Expr::float(0.0), Expr::axis(0));
        assert!(matches!(m, Expr::Binary { op: BinOp::Max, .. }));
        let s = Expr::select(
            Expr::cmp(CmpOp::Lt, Expr::axis(0), Expr::int(4)),
            Expr::float(1.0),
            Expr::float(0.0),
        );
        assert!(matches!(s, Expr::Select { .. }));
    }
}
