//! Pretty-printer producing the paper's pseudo-code style, e.g.
//!
//! ```text
//! parallel i.0@j.0 in range(256):
//!   for k.0 in range(32):
//!     vectorize j.3 in range(16):
//!       C[i, j] += A[i, k] * B[k, j]
//! ```

use std::fmt::Write as _;

use crate::expr::{BinOp, CmpOp, Expr, UnOp};
use crate::lower::{Program, Stmt};
use crate::state::Annotation;

/// Renders a full program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for stmt in &program.body {
        print_stmt(program, stmt, 0, &mut out);
    }
    out
}

fn ann_keyword(ann: Annotation) -> &'static str {
    match ann {
        Annotation::None => "for",
        Annotation::Parallel => "parallel",
        Annotation::Vectorize => "vectorize",
        Annotation::Unroll => "unroll",
        Annotation::BindBlock => "bind_block",
        Annotation::BindThread => "bind_thread",
        Annotation::BindVthread => "bind_vthread",
    }
}

fn print_stmt(program: &Program, stmt: &Stmt, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match stmt {
        Stmt::For {
            var,
            extent,
            ann,
            body,
        } => {
            let name = &program.vars[*var as usize].name;
            let _ = writeln!(
                out,
                "{pad}{} {} in range({extent}):",
                ann_keyword(*ann),
                name
            );
            for s in body {
                print_stmt(program, s, depth + 1, out);
            }
        }
        Stmt::Store {
            buffer,
            indices,
            value,
            reduce,
        } => {
            let name = &program.dag.nodes[*buffer].name;
            let idx = indices
                .iter()
                .map(|e| print_expr(program, e))
                .collect::<Vec<_>>()
                .join(", ");
            let op = match reduce {
                Some(crate::dag::Reducer::Sum) => "+=",
                Some(crate::dag::Reducer::Max) => "max=",
                Some(crate::dag::Reducer::Min) => "min=",
                None => "=",
            };
            let _ = writeln!(
                out,
                "{pad}{name}[{idx}] {op} {}",
                print_expr(program, value)
            );
        }
    }
}

/// Renders an expression using loop-variable names from the program.
pub fn print_expr(program: &Program, e: &Expr) -> String {
    match e {
        Expr::FloatConst(v) => format!("{v:?}"),
        Expr::IntConst(v) => v.to_string(),
        Expr::Axis(a) => format!("axis{a}"),
        Expr::LoopVar(v) => program
            .vars
            .get(*v as usize)
            .map(|i| i.name.to_string())
            .unwrap_or_else(|| format!("v{v}")),
        Expr::Load { node, indices } => {
            let name = &program.dag.nodes[*node].name;
            let idx = indices
                .iter()
                .map(|e| print_expr(program, e))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{name}[{idx}]")
        }
        Expr::Binary { op, lhs, rhs } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "//",
                BinOp::Mod => "%",
                BinOp::Min => {
                    return format!(
                        "min({}, {})",
                        print_expr(program, lhs),
                        print_expr(program, rhs)
                    )
                }
                BinOp::Max => {
                    return format!(
                        "max({}, {})",
                        print_expr(program, lhs),
                        print_expr(program, rhs)
                    )
                }
            };
            format!(
                "({} {o} {})",
                print_expr(program, lhs),
                print_expr(program, rhs)
            )
        }
        Expr::Unary { op, arg } => {
            let f = match op {
                UnOp::Neg => "-",
                UnOp::Abs => "abs",
                UnOp::Sqrt => "sqrt",
                UnOp::Exp => "exp",
                UnOp::Tanh => "tanh",
                UnOp::Erf => "erf",
            };
            format!("{f}({})", print_expr(program, arg))
        }
        Expr::Cmp { op, lhs, rhs } => {
            let o = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Ge => ">=",
                CmpOp::Gt => ">",
            };
            format!(
                "({} {o} {})",
                print_expr(program, lhs),
                print_expr(program, rhs)
            )
        }
        Expr::Select { cond, then, other } => format!(
            "({} if {} else {})",
            print_expr(program, then),
            print_expr(program, cond),
            print_expr(program, other)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::dag::Reducer;
    use crate::lower::lower;
    use crate::state::State;
    use crate::steps::Step;
    use std::sync::Arc;

    #[test]
    fn printed_program_contains_annotations() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[16, 8]);
        let w = b.placeholder("B", &[8, 16]);
        b.compute_reduce("C", &[16, 16], &[8], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let mut st = State::new(dag);
        st.apply(Step::Split {
            node: "C".into(),
            iter: "j".into(),
            lengths: vec![4],
        })
        .unwrap();
        st.apply(Step::Annotate {
            node: "C".into(),
            iter: "j.1".into(),
            ann: crate::state::Annotation::Vectorize,
        })
        .unwrap();
        st.apply(Step::Annotate {
            node: "C".into(),
            iter: "i".into(),
            ann: crate::state::Annotation::Parallel,
        })
        .unwrap();
        let prog = lower(&st).unwrap();
        let text = print_program(&prog);
        assert!(text.contains("parallel i in range(16):"), "{text}");
        assert!(text.contains("vectorize j.1 in range(4):"), "{text}");
        assert!(text.contains("C["), "{text}");
        assert!(text.contains("+="), "{text}");
    }
}
