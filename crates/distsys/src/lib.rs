//! # fsm-distsys — the simulated distributed system of the paper's model
//!
//! The paper (Section 2) assumes a set of independent servers, each running
//! one DFSM, all consuming a common totally-ordered event stream from the
//! environment; faults erase (crash) or corrupt (Byzantine) the execution
//! state of up to `f` servers, after which the environment pauses and the
//! surviving states are combined to recover the lost ones.
//!
//! This crate turns that model into runnable infrastructure:
//!
//! * [`Server`] — one DFSM execution with injectable crash/Byzantine faults.
//! * [`Workload`] — scripted or seeded-random event streams (the
//!   environment).
//! * [`FusedSystem`] — originals + Algorithm-2 backups + Algorithm-3
//!   recovery, end to end, with an oracle for verification.
//! * [`ReplicatedSystem`] — the replication baseline for side-by-side
//!   comparison.
//! * [`FaultPlan`] — reproducible fault schedules (crash, corrupt, kill,
//!   restart), seeded by [`Seeded`] and played by
//!   [`run_scenario`](sim::sweep::run_scenario).
//! * [`SensorNetwork`] — the paper's motivating sensor-network scenario,
//!   including the 100-sensor configuration.
//! * [`ParallelServerGroup`] — servers sharded over a few OS worker
//!   threads (one per core but one), with channel-based event-batch
//!   broadcast and report collection, one message per worker each way.
//! * [`Environment`] / [`ServerGroup`] — the execution-environment
//!   abstraction (time, randomness, spawning) with two implementations:
//!   [`OsEnvironment`] (threads, wall clock) and
//!   [`sim::SimEnvironment`] (virtual time, seeded chaos, byte-identical
//!   replay).
//! * [`sim`] — the deterministic simulation runtime and its
//!   [`sweep`](sim::sweep) scenario harness.
//! * [`ingest`] — the batched ingestion front-end: bounded client queues
//!   with backpressure, batches flushed at a size cap or when the queues
//!   run dry, and per-server fault isolation with exponential-backoff
//!   rejoin (the serving path measured by `ingest_bench`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod env;
mod error;
pub mod fault;
pub mod ingest;
pub mod parallel;
pub mod recovery;
pub mod replicated;
pub mod scenario;
pub mod server;
pub mod sim;
pub mod snapshot;
pub mod storage;
pub mod system;
pub mod wal;
pub mod workload;

pub use env::{Environment, GroupConfig, OsClock, OsEnvironment, ServerGroup};
pub use error::{DistsysError, Result};
pub use fault::{FaultKind, FaultPlan, ScheduledFault};
pub use ingest::{ClientHandle, IngestConfig, IngestMetrics, IngestPipeline, LaneStatus};
pub use parallel::ParallelServerGroup;
pub use recovery::{DurabilityConfig, DurableServer, RejoinPath, ReplayStats, REPLAY_CUTOVER};
pub use replicated::{ReplicaGroup, ReplicatedSystem};
pub use scenario::{SensorNetwork, ServeReport};
pub use server::{Server, ServerStatus};
pub use sim::{NetStats, Seeded, SimConfig, SimEnvironment, SimRng, TraceEvent};
pub use storage::{shared, DirStore, MemStore, SharedStore, Store};
pub use system::{ExternalRecovery, FusedSystem, RecoveryOutcome, SystemMetrics};
pub use workload::Workload;
