//! Tuning-as-a-service for the Ansor reproduction.
//!
//! `ansor-tune` is a batch tool: one process, one search, caches die with
//! the process. This crate turns tuning into a long-running service — the
//! `ansor-serve` daemon hosts N concurrent [`TuningSession`]s
//! (`ansor_core::TuningSession`) over a newline-delimited JSON protocol
//! and keeps a persistent [`WarmStore`] of measurement results,
//! featurizations, and tuning records, so repeat jobs start warm instead
//! of cold. See `docs/SERVING.md` for the protocol reference and the
//! determinism guarantees (a served job is bit-identical to the same seed
//! run through `ansor-tune` cold).
//!
//! Modules:
//!
//! - [`proto`] — wire types and line framing;
//! - [`store`] — the shared warm store (caches + an append-only record log);
//! - [`journal`] — the append-only job journal (the daemon's flight
//!   recorder, replayed on restart);
//! - [`server`] — the daemon (accept loop, bounded job queue, session
//!   workers);
//! - [`client`] — a thin synchronous client.
//!
//! [`TuningSession`]: ansor_core::TuningSession

#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod proto;
pub mod server;
pub mod store;

pub use client::Client;
pub use journal::{JobJournal, JournalEvent, JournalReplay};
pub use proto::{
    CacheDeltas, JobCounters, JobResult, JobSpec, JobStatus, Request, Response, ServerStats,
    TraceChunk, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};
pub use store::{StoreEntry, StoreLoadStats, WarmStore, STORE_VERSION};
