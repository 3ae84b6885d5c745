//! # fsm-fusion — fusion-based fault tolerance for finite state machines
//!
//! An open-source Rust reproduction of *"A Fusion-based Approach for
//! Tolerating Faults in Finite State Machines"* (Vinit Ogale, Bharath
//! Balasubramanian, Vijay K. Garg; IPDPS 2009).
//!
//! This facade crate re-exports the whole workspace so applications can use
//! a single dependency:
//!
//! * [`dfsm`] — the DFSM substrate (machines, builders, execution, the
//!   reachable cross product).
//! * [`fusion`] — the paper's contribution: closed partition lattices,
//!   fault graphs, `(f, m)`-fusion generation (Algorithm 2) and recovery
//!   (Algorithm 3).
//! * [`machines`] — the machine library used by the paper's evaluation
//!   (MESI, TCP, counters, parity checkers, shift registers, dividers,
//!   pattern detectors) plus random machine generation.
//! * [`distsys`] — the distributed system: servers, workloads, fault
//!   injection, fusion-backed and replicated recovery, the sensor-network
//!   scenario, and an [`distsys::Environment`] abstraction with two
//!   runtimes — a threaded [`distsys::OsEnvironment`] and a deterministic,
//!   seeded [`distsys::SimEnvironment`] (virtual clock, scripted message
//!   chaos, byte-identical replay; see [`distsys::sim`]).
//!
//! ## Quickstart
//!
//! The recommended entry point is a [`fusion::FusionSession`] built from a
//! [`fusion::FusionConfig`]: the session reuses its closure kernel and
//! scratch buffers over every generation and lattice walk, and its cached
//! initial fault graph over every generation.
//!
//! ```
//! use fsm_fusion::prelude::*;
//!
//! // The two mod-3 counters of the paper's Figure 1, plus one generated
//! // backup, tolerate one crash fault.  One session serves the whole
//! // pipeline (and any number of systems after this one).
//! let machines = fig1_machines();
//! let mut session = FusionConfig::new().build();
//! let mut system =
//!     FusedSystem::with_session(&machines, 1, FaultModel::Crash, &mut session).unwrap();
//! system.apply_workload(&Workload::from_bits("0110100101"));
//!
//! system.crash(0).unwrap();
//! let outcome = system.recover().unwrap();
//! assert!(outcome.matches_oracle);
//! ```
//!
//! The free functions ([`fusion::generate_fusion`],
//! [`fusion::enumerate_lattice`], `FusedSystem::new`, …) run the same
//! engine once, without a cache, and are pinned bit-identical to the
//! session path by `tests/session_properties.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fsm_dfsm as dfsm;
pub use fsm_distsys as distsys;
pub use fsm_fusion_core as fusion;
pub use fsm_machines as machines;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use fsm_dfsm::{
        Dfsm, DfsmBuilder, Event, Executor, FactorExtension, ReachableProduct, StateId,
    };
    pub use fsm_distsys::sim::sweep::{
        compare_backends, sweep, sweep_recovery, BackendCost, Scenario, SweepReport,
    };
    pub use fsm_distsys::{
        shared, ClientHandle, DirStore, DurabilityConfig, DurableServer, Environment, FaultKind,
        FaultPlan, FusedSystem, GroupConfig, IngestConfig, IngestMetrics, IngestPipeline,
        LaneStatus, MemStore, OsEnvironment, RejoinPath, ReplayStats, ReplicatedSystem, Seeded,
        SensorNetwork, ServeReport, ServerGroup, SharedStore, SimConfig, SimEnvironment, Store,
        TraceEvent, Workload, REPLAY_CUTOVER,
    };
    pub use fsm_fusion_core::{
        generate_fusion, generate_fusion_for_machines, CacheStats, FaultGraph, FaultModel,
        FusionConfig, FusionReport, FusionSession, MachineReport, Partition, RecoveryEngine,
        TopDelta, UpdateStats,
    };
    pub use fsm_machines::{fig1_machines, table1_rows, MachineSet};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let machines = crate::machines::fig1_machines();
        let (product, fusion) = generate_fusion_for_machines(&machines, 1).unwrap();
        assert_eq!(product.size(), 9);
        assert_eq!(fusion.machine_sizes(), vec![3]);
        let mut system = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        system.apply_workload(&Workload::from_bits("01"));
        assert!(system.consistent_with_oracle());
    }

    #[test]
    fn facade_session_surface_composes() {
        let machines = crate::machines::fig1_machines();
        let mut session = FusionConfig::new().build();
        let (product, fusion) = session.generate_fusion_for_machines(&machines, 1).unwrap();
        assert_eq!(product.size(), 9);
        assert_eq!(fusion.machine_sizes(), vec![3]);
        let mut system =
            FusedSystem::with_session(&machines, 1, FaultModel::Crash, &mut session).unwrap();
        system.apply_workload(&Workload::from_bits("01"));
        assert!(system.consistent_with_oracle());
        // The system's generation reused the initial fault graph of the
        // session's first one; a lattice walk leaves the slot alone.
        let stats: CacheStats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats}");
        let top = Partition::singletons(product.size());
        session.lower_cover(product.top(), &top).unwrap();
        assert_eq!(session.cache_stats(), stats);
    }
}
