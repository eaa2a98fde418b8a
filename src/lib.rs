//! # Ansor, in Rust
//!
//! A from-scratch reproduction of *"Ansor: Generating High-Performance
//! Tensor Programs for Deep Learning"* (Zheng et al., OSDI 2020): an
//! automated tensor-program auto-scheduler built on a hierarchical search
//! space (sketches + annotations), evolutionary fine-tuning with a learned
//! gradient-boosted-tree cost model, and a gradient-descent task scheduler
//! for whole networks.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`ir`] ([`tensor_ir`]) — compute definitions, schedule states,
//!   lowering, functional interpreter;
//! - [`hw`] ([`hwsim`]) — simulated hardware targets and the measurer
//!   (replacing the paper's LLVM + real-machine pipeline; see DESIGN.md);
//! - [`core`] ([`ansor_core`]) — sketch generation, random annotation,
//!   evolutionary search, learned cost model, task scheduler;
//! - [`baselines`] ([`ansor_baselines`]) — AutoTVM-, Halide- and
//!   FlexTensor-like searchers plus a vendor-library stand-in;
//! - [`workloads`] ([`ansor_workloads`]) — the paper's operators,
//!   subgraphs and networks;
//! - [`serve`] ([`ansor_serve`]) — the `ansor-serve` tuning daemon:
//!   wire protocol, server, client, and the persistent warm store.
//!
//! # Quickstart
//!
//! ```
//! use ansor::prelude::*;
//!
//! // C = A x B, followed by ReLU (Figure 1 / Figure 5 of the paper).
//! let mut b = DagBuilder::new();
//! let a = b.placeholder("A", &[256, 256]);
//! let w = b.constant("B", &[256, 256]);
//! let c = b.compute_reduce("C", &[256, 256], &[256], Reducer::Sum, |ax| {
//!     Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
//!         * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
//! });
//! b.compute("D", &[256, 256], |ax| {
//!     Expr::max(Expr::load(c, vec![ax[0].clone(), ax[1].clone()]), Expr::float(0.0))
//! });
//! let dag = std::sync::Arc::new(b.build().unwrap());
//!
//! // Auto-schedule it for the simulated 20-core CPU.
//! let task = SearchTask::new("matmul_relu", dag, HardwareTarget::intel_20core());
//! let mut measurer = Measurer::new(task.target.clone());
//! let options = TuningOptions { num_measure_trials: 64, ..Default::default() };
//! let result = auto_schedule(&task, options, &mut measurer);
//! assert!(result.best_seconds.is_finite());
//! ```

#![warn(missing_docs)]

pub use ansor_baselines as baselines;
pub use ansor_core as core;
pub use ansor_runtime as runtime;
pub use ansor_serve as serve;
pub use ansor_workloads as workloads;
pub use hwsim as hw;
pub use tensor_ir as ir;

pub mod golden;

/// Convenient re-exports for the common tuning workflow.
pub mod prelude {
    pub use ansor_core::{
        auto_schedule, auto_schedule_with_model, generate_sketches, sample_program,
        AnnotationConfig, CostModel, EvolutionConfig, Individual, LearnedCostModel, Objective,
        PolicyVariant, SearchTask, Sketch, SketchPolicy, SketchRule, TaskScheduler,
        TaskSchedulerConfig, TuneTask, TuningOptions, TuningResult,
    };
    pub use hwsim::{HardwareTarget, MeasureResult, Measurer, TargetKind};
    pub use tensor_ir::{
        interp, lower, print_program, Annotation, ComputeDag, DagBuilder, Expr, Reducer, State,
        Step,
    };
}
