//! Ansor: automated tensor-program generation (OSDI 2020), reproduced in
//! Rust. See the crate modules for the three components of Figure 4:
//! program sampler (`sketch`, `annotate`), performance tuner (`evolution`,
//! `cost_model`, `search_policy`) and task scheduler (`task_scheduler`).

#![warn(missing_docs)]

pub mod annotate;
pub mod checkpoint;
pub mod cost_model;
pub mod evolution;
pub mod lineage;
pub mod records;
pub mod search_policy;
pub mod search_task;
pub mod session;
pub mod sketch;
pub mod task_scheduler;

pub use annotate::{sample_program, AnnotationConfig, AnnotationHint};
pub use checkpoint::{
    BestEntry, ModelCheckpoint, ModelRecord, PolicyCheckpoint, SchedulerCheckpoint,
    SinglePolicyCheckpoint, TuneCheckpoint, CHECKPOINT_VERSION,
};
pub use cost_model::{
    CostModel, FeatureBlock, LearnedCostModel, ModelMemo, RandomModel, TrainedModel,
};
pub use evolution::{
    crossover, evolutionary_search, evolutionary_search_with_stats, mutate, produce_generation,
    EvolutionConfig, EvolutionStats, Individual, Offspring,
};
pub use lineage::{Lineage, Operator};
pub use records::{best_record, load_records, log_fingerprint, save_records, TuningRecordLog};
pub use search_policy::{
    auto_schedule, auto_schedule_with_model, PolicyVariant, SketchPolicy, TuningOptions,
    TuningRecord, TuningResult,
};
pub use search_task::SearchTask;
pub use session::{single_fingerprint, single_task_name, SessionCacheStats, TuningSession};
pub use sketch::{
    generate_sketches, generate_sketches_full, generate_sketches_with_rules, RuleSet, Sketch,
    SketchRule,
};
pub use task_scheduler::{
    Objective, SchedulerRecord, Strategy, TaskScheduler, TaskSchedulerConfig, TuneTask,
};
