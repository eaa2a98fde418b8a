//! Tensor expression language, compute DAG and schedulable loop-nest IR.
//!
//! This crate is the substrate under the Ansor reproduction: it plays the
//! role TVM's tensor expression language and schedule IR play in the paper
//! (§2, §4). It provides:
//!
//! - a declarative compute-definition API ([`DagBuilder`], Figure 1 style),
//! - the static predicates used by sketch-generation rules (Table 1),
//! - a schedule [`State`] with a transform-step history — the "genes" used
//!   by evolutionary search (§5.1),
//! - lowering to an annotated loop-nest [`Program`],
//! - a functional interpreter used to verify that every transformation
//!   preserves semantics (replacing LLVM in the paper's pipeline), and
//! - a pretty-printer producing the paper's pseudo-code style.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tensor_ir::{DagBuilder, Expr, Reducer, State, Step, lower, interp};
//!
//! // C[i, j] = sum_k A[i, k] * B[k, j]
//! let mut b = DagBuilder::new();
//! let a = b.placeholder("A", &[32, 16]);
//! let w = b.placeholder("B", &[16, 8]);
//! b.compute_reduce("C", &[32, 8], &[16], Reducer::Sum, |ax| {
//!     Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
//!         * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
//! });
//! let dag = Arc::new(b.build().unwrap());
//!
//! // Tile the i loop and lower to a complete program.
//! let mut state = State::new(dag.clone());
//! state.apply(Step::Split { node: "C".into(), iter: "i".into(), lengths: vec![8] }).unwrap();
//! let program = lower(&state).unwrap();
//!
//! // Execute it.
//! let inputs = interp::random_inputs(&dag, 0);
//! let bufs = interp::run(&program, &inputs).unwrap();
//! assert_eq!(bufs.get(2).len(), 32 * 8);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod dag;
pub mod error;
pub mod expr;
pub mod interp;
pub mod lower;
pub mod name;
pub mod printer;
pub mod state;
pub mod steps;

pub use analysis::{
    analyze, analyze_state, with_analysis, with_footprints, AccessType, BufferAccess, Footprint,
    Footprints, LoopCtx, StoreAnalysis,
};
pub use builder::DagBuilder;
pub use dag::{ComputeDag, ComputeSpec, Node, NodeKind, Reducer};
pub use error::Error;
pub use expr::{BinOp, CmpOp, Expr, NodeId, OpCounts, UnOp, VarId};
pub use lower::{lower, simplify, Program, Stmt, VarInfo};
pub use name::Name;
pub use printer::{print_expr, print_program};
pub use state::{
    Annotation, ComputeLoc, IterId, IterInfo, IterKind, IterSource, Stage, StageId, State,
};
pub use steps::Step;
