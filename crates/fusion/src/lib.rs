//! # fsm-fusion-core — fusion-based fault tolerance for finite state machines
//!
//! This crate implements the primary contribution of *"A Fusion-based
//! Approach for Tolerating Faults in Finite State Machines"* (Ogale,
//! Balasubramanian, Garg; IPDPS 2009): given `n` deterministic finite state
//! machines driven by a common event stream, generate a small set of backup
//! machines (a *fusion*) that lets the system recover from `f` crash faults
//! or `⌊f/2⌋` Byzantine faults with far less state than classical
//! replication.
//!
//! ## Concepts (paper section in parentheses)
//!
//! * [`Partition`] and [`closed`] — closed (substitution-property)
//!   partitions of the reachable cross product `⊤` and the machine order
//!   (§2.1).  `Partition` is the one representation every algorithm works
//!   on; the element-scan oracles the tests pin it to live in test-only
//!   code (`tests/support/scan_oracle.rs`).
//! * [`lattice`] — lower covers and the closed partition lattice (§2.1,
//!   Fig. 3).
//! * [`FaultGraph`] — the fault graph `G(⊤, M)`, distances, `dmin`, and the
//!   crash/Byzantine tolerance theorems (§3, Theorems 1–2).
//! * [`set_repr`] — Algorithm 1: the set representation of machine states
//!   (§5, Fig. 5).
//! * [`FusionSession`] / [`FusionConfig`] — the **recommended entry
//!   point**: a session that owns the closure kernel, scratch buffers and
//!   the last initial fault graph (module [`mod@session`]).
//! * [`TopDelta`] / [`FusionSession::update_top`] — **delta-aware
//!   re-fusion** for evolving machine sets: add, remove or extend one
//!   machine and have the product and fault graph updated incrementally
//!   instead of rebuilt (module [`mod@delta`]).
//! * [`generate_fusion`] — Algorithm 2: minimal fusion generation (§5.1,
//!   Theorem 5), one sequential greedy descent shared by the free function
//!   and the session.
//! * [`RecoveryEngine`] — Algorithm 3: vote-based recovery from crash and
//!   Byzantine faults (§5.2, Theorem 6).
//! * [`theory`] — executable forms of Definitions 5–6 and Theorems 3–5.
//! * [`replication`] — the replication baseline the paper compares against.
//! * [`FusionReport`] — the results-table row format of §6.
//!
//! ## Quick example
//!
//! ```
//! use fsm_dfsm::DfsmBuilder;
//! use fsm_fusion_core::{generate_fusion_for_machines, MachineReport, RecoveryEngine};
//! use fsm_fusion_core::set_repr::projection_partitions;
//!
//! // Figure 1: two mod-3 counters (counting 0s and 1s).
//! let mut counters = Vec::new();
//! for (name, event) in [("A", "0"), ("B", "1")] {
//!     let mut b = DfsmBuilder::new(name);
//!     for i in 0..3 {
//!         b.add_state(format!("{name}{i}"));
//!     }
//!     b.set_initial(format!("{name}0"));
//!     for i in 0..3 {
//!         b.add_transition(format!("{name}{i}"), event, format!("{name}{}", (i + 1) % 3));
//!     }
//!     b.add_self_loops(if event == "0" { "1" } else { "0" });
//!     counters.push(b.build().unwrap());
//! }
//!
//! // One backup machine suffices to tolerate one crash fault, and it has
//! // only 3 states (vs. the 9-state cross product).
//! let (product, fusion) = generate_fusion_for_machines(&counters, 1).unwrap();
//! assert_eq!(fusion.machine_sizes(), vec![3]);
//!
//! // Wire up recovery: originals first, then the fusion.
//! let mut engine = RecoveryEngine::new(product.size());
//! for (i, p) in projection_partitions(&product).into_iter().enumerate() {
//!     engine.add_machine(counters[i].name().to_string(), p).unwrap();
//! }
//! engine.add_machine("F1", fusion.partitions[0].clone()).unwrap();
//!
//! // Suppose the true top state is t0 (everything in its initial state) and
//! // machine A crashes: recovery reconstructs A's state from B and F1.
//! let recovery = engine
//!     .recover(&[MachineReport::Crashed, MachineReport::State(0), MachineReport::State(0)])
//!     .unwrap();
//! assert_eq!(recovery.machine_states[0], 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod closed;
pub mod config;
pub mod delta;
mod error;
pub mod fault_graph;
pub mod generate;
pub mod lattice;
pub mod partition;
pub mod recovery;
pub mod replication;
pub mod report;
pub mod search;
pub mod session;
pub mod set_repr;
pub mod theory;

// The test-only oracles (the `n`-state lattice walk and the element
// scans), shared with the workspace's integration tests; they name this
// crate `fsm_fusion_core`, as those do.
#[cfg(test)]
extern crate self as fsm_fusion_core;
#[cfg(test)]
#[path = "../../../tests/support/lattice_oracle.rs"]
mod lattice_oracle;
#[cfg(test)]
#[path = "../../../tests/support/scan_oracle.rs"]
mod scan_oracle;

pub use closed::{
    check_closed, close, is_closed, quotient_machine, CloseScratch, ClosureKernel, QuotientLevel,
    QuotientMerge,
};
pub use config::{Engine, FusionConfig};
pub use delta::{TopDelta, UpdateStats};
pub use error::{FusionError, Result};
pub use fault_graph::FaultGraph;
pub use generate::{
    generate_fusion, generate_fusion_for_machines, FusionGeneration, GenerationStats,
};
pub use lattice::{
    basis, enumerate_lattice, lower_cover, lower_cover_with, ClosedPartitionLattice,
};
pub use partition::{BlockGroups, Partition};
pub use recovery::{recover_top_state, MachineReport, Recovery, RecoveryEngine};
pub use replication::{
    fusion_state_space, replication_backup_count, replication_state_space, BackupComparison,
    FaultModel, ReplicaSet,
};
pub use report::FusionReport;
pub use search::{exhaustive_minimum_fusion, ExhaustiveSearch};
pub use session::{CacheStats, FusionSession};
pub use set_repr::{
    projection_partition, projection_partitions, set_representation, set_representations,
};
pub use theory::{
    fusion_exists, fusion_less_than, inherent_byzantine_tolerance, inherent_crash_tolerance,
    is_fusion, is_minimal_fusion, minimum_backup_count, subset_theorem_holds,
};
