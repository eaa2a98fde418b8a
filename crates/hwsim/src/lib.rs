//! Simulated hardware: the analytical machine model, the fault injector
//! and the program measurer.
//!
//! The paper measures candidate tensor programs on real machines (a 20-core
//! Intel Xeon, an ARM Cortex-A53 and an NVIDIA V100) through TVM's code
//! generators. This crate substitutes a deterministic simulated machine:
//! the tuner still only observes `(program → execution time)`, so the
//! search-quality comparisons of the evaluation are preserved (see
//! DESIGN.md, "Substitutions").
//!
//! The analytical model prices each statement from its footprint table
//! (`tensor_ir::analysis::Footprints`), the table the feature extractor
//! reads too; the cache fit and the traffic crossing each cache boundary
//! are this crate's functions over it.
//!
//! A simulated time is a pure function of the program and the target. The
//! one timing noise a run can turn on is the fault plan's
//! ([`FaultPlan::noise`], `--faults noise=…`), drawn per program signature
//! and attempt.

#![warn(missing_docs)]

pub mod analytical;
pub mod faults;
pub mod measure;
pub mod target;

pub use analytical::{
    cost_of_statements, estimate_seconds, explain, seconds_of_statements, StoreCost,
};
pub use faults::{default_plan, is_terminal_fault, set_default_plan, FaultOutcome, FaultPlan};
pub use measure::{error_kind, MeasureResult, Measurer};
pub use target::{HardwareTarget, TargetKind};
