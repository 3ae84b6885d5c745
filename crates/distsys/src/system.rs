//! The fusion-backed distributed system: original servers plus generated
//! fusion backups, with end-to-end fault injection and recovery.
//!
//! [`FusedSystem`] packages the whole pipeline of the paper:
//!
//! 1. build the reachable cross product of the original machines (§2),
//! 2. run Algorithm 2 to generate the backup machines for the requested
//!    fault count and model (§5.1) — `f` crash faults need `dmin > f`,
//!    `f` Byzantine faults need `dmin > 2f`,
//! 3. execute all machines (originals and backups) against a common event
//!    stream (§2's system model),
//! 4. on faults, collect state reports and run Algorithm 3 to restore every
//!    machine (§5.2).
//!
//! A non-faultable *oracle* copy of `⊤` runs alongside the servers; it is
//! used only to verify that recovery produced the truth (tests, examples and
//! benchmarks check against it), mirroring how the paper argues correctness
//! via the state of the top machine.

use fsm_dfsm::{Dfsm, Event, Executor, ReachableProduct, StateId};
use fsm_fusion_core::{
    generate_fusion, projection_partitions, FaultModel, FusionGeneration, FusionSession,
    MachineReport, Partition, Recovery, RecoveryEngine,
};

use crate::error::{DistsysError, Result};
use crate::server::{Server, ServerStatus};
use crate::workload::Workload;

/// Bookkeeping counters for a running system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemMetrics {
    /// Events broadcast to the servers.
    pub events_processed: usize,
    /// Crash faults injected.
    pub crashes_injected: usize,
    /// Byzantine faults injected.
    pub corruptions_injected: usize,
    /// Successful recoveries.
    pub recoveries: usize,
    /// Recovery attempts that failed (too many faults).
    pub failed_recoveries: usize,
}

/// The outcome of a recovery round.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The raw Algorithm 3 result.
    pub recovery: Recovery,
    /// Servers that were repaired (restored or corrected).
    pub repaired: Vec<usize>,
    /// Whether the recovered top state matches the oracle (always true when
    /// the number of faults was within the tolerated bound).
    pub matches_oracle: bool,
}

/// The outcome of recovering from *externally collected* reports (servers
/// running in an [`Environment`](crate::Environment) rather than inside the
/// [`FusedSystem`]).
#[derive(Debug, Clone)]
pub struct ExternalRecovery {
    /// The correct state of every server, in each machine's own state
    /// numbering — what the external servers should be restored to.
    pub states: Vec<StateId>,
    /// The raw Algorithm 3 result.
    pub recovery: Recovery,
    /// Whether the recovered top state matches the oracle.
    pub matches_oracle: bool,
}

/// A fusion-backed system of servers.
#[derive(Debug, Clone)]
pub struct FusedSystem {
    product: ReachableProduct,
    fusion: FusionGeneration,
    servers: Vec<Server>,
    num_originals: usize,
    engine: RecoveryEngine,
    oracle: Executor,
    fault_model: FaultModel,
    f: usize,
    metrics: SystemMetrics,
    /// Per server: machine state index → block index of its registered
    /// partition.  The recovery engine speaks in partition blocks (whose
    /// canonical numbering need not match the machine's own state ids, e.g.
    /// for MESI under an arbitrary product ordering), so reports and
    /// recovered states are translated through these tables.
    block_of_state: Vec<Vec<usize>>,
    /// Per server: partition block index → machine state.
    state_of_block: Vec<Vec<StateId>>,
}

impl FusedSystem {
    /// Builds a system that tolerates `f` faults of the given model among
    /// the original `machines` (plus their generated backups).
    ///
    /// Uses the environment-configured free-function pipeline
    /// ([`ReachableProduct::new`] + [`generate_fusion`]); deployments that
    /// build several systems — or want explicit engine/cache configuration —
    /// should thread a [`FusionSession`] through
    /// [`FusedSystem::with_session`] instead.
    pub fn new(machines: &[Dfsm], f: usize, fault_model: FaultModel) -> Result<Self> {
        if machines.is_empty() {
            return Err(DistsysError::NoMachines);
        }
        let product = ReachableProduct::new(machines)?;
        let originals = projection_partitions(&product);
        let fusion = generate_fusion(product.top(), &originals, Self::target(fault_model, f))?;
        Self::from_parts(machines, f, fault_model, product, originals, fusion)
    }

    /// [`FusedSystem::new`] through a caller-owned [`FusionSession`]:
    /// Algorithm 2 reuses the session's kernel, scratch and cached initial
    /// fault graph (building several systems over the same machine set —
    /// e.g. per fault model, or a crash/Byzantine pair — builds that graph
    /// once).
    ///
    /// Produces exactly the system [`FusedSystem::new`] builds (pinned by
    /// an equivalence test).
    pub fn with_session(
        machines: &[Dfsm],
        f: usize,
        fault_model: FaultModel,
        session: &mut FusionSession,
    ) -> Result<Self> {
        if machines.is_empty() {
            return Err(DistsysError::NoMachines);
        }
        let product = session.build_product(machines)?;
        let originals = projection_partitions(&product);
        let fusion =
            session.generate_fusion(product.top(), &originals, Self::target(fault_model, f))?;
        Self::from_parts(machines, f, fault_model, product, originals, fusion)
    }

    /// Crash faults need `dmin > f`; Byzantine faults need `dmin > 2f`
    /// (Theorems 1 and 2), so generation targets the adjusted count.
    fn target(fault_model: FaultModel, f: usize) -> usize {
        match fault_model {
            FaultModel::Crash => f,
            FaultModel::Byzantine => 2 * f,
        }
    }

    /// Shared constructor tail: wires servers, recovery engine and
    /// translation tables around an already-generated fusion.
    fn from_parts(
        machines: &[Dfsm],
        f: usize,
        fault_model: FaultModel,
        product: ReachableProduct,
        originals: Vec<Partition>,
        fusion: FusionGeneration,
    ) -> Result<Self> {
        let mut engine = RecoveryEngine::new(product.size());
        let mut servers = Vec::new();
        let mut block_of_state: Vec<Vec<usize>> = Vec::new();
        let mut state_of_block: Vec<Vec<StateId>> = Vec::new();
        for (i, m) in machines.iter().enumerate() {
            engine.add_machine(m.name().to_string(), originals[i].clone())?;
            servers.push(Server::new(m.clone()));
            // The projection partition's canonical block numbering need not
            // coincide with the machine's own state numbering; build both
            // translation tables from the product tuples.
            let mut b_of_s = vec![usize::MAX; m.size()];
            let mut s_of_b = vec![StateId(0); originals[i].num_blocks()];
            for t in 0..product.size() {
                let block = originals[i].block_of(t);
                let state = product.component_state(StateId(t), i);
                b_of_s[state.index()] = block;
                s_of_b[block] = state;
            }
            debug_assert!(b_of_s.iter().all(|&b| b != usize::MAX));
            block_of_state.push(b_of_s);
            state_of_block.push(s_of_b);
        }
        for (i, p) in fusion.partitions.iter().enumerate() {
            engine.add_machine(format!("F{}", i + 1), p.clone())?;
            servers.push(Server::new(fusion.machines[i].clone()));
            // Quotient machines use block indices as their state ids, so the
            // translation is the identity.
            block_of_state.push((0..p.num_blocks()).collect());
            state_of_block.push((0..p.num_blocks()).map(StateId).collect());
        }
        let oracle = Executor::new(product.top().clone());
        Ok(FusedSystem {
            product,
            fusion,
            servers,
            num_originals: machines.len(),
            engine,
            oracle,
            fault_model,
            f,
            metrics: SystemMetrics::default(),
            block_of_state,
            state_of_block,
        })
    }

    /// The reachable cross product of the original machines.
    pub fn product(&self) -> &ReachableProduct {
        &self.product
    }

    /// The generated fusion (partitions, machines, statistics).
    pub fn fusion(&self) -> &FusionGeneration {
        &self.fusion
    }

    /// Number of servers (originals + backups).
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of original machines.
    pub fn num_originals(&self) -> usize {
        self.num_originals
    }

    /// Number of generated backup machines.
    pub fn num_backups(&self) -> usize {
        self.servers.len() - self.num_originals
    }

    /// The fault count the system was provisioned for.
    pub fn fault_budget(&self) -> usize {
        self.f
    }

    /// The fault model the system was provisioned for.
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Access to one server.
    pub fn server(&self, i: usize) -> &Server {
        &self.servers[i]
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Running metrics.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }

    /// Broadcasts one event to every server (and the oracle).
    ///
    /// The reference per-event path; [`FusedSystem::apply_workload`]
    /// processes whole workloads server-at-a-time instead and is pinned
    /// equivalent to repeated `apply_event` calls by a test.
    pub fn apply_event(&mut self, event: &Event) {
        for s in &mut self.servers {
            s.apply(event);
        }
        self.oracle.apply(event);
        self.metrics.events_processed += 1;
    }

    /// Broadcasts a whole workload, batched per server: each server (and
    /// the oracle) consumes the entire event stream in one pass.
    ///
    /// Servers are independent — they share no state and each applies the
    /// same totally ordered stream — so per-server batching produces
    /// exactly the per-event broadcast's final states while touching each
    /// server's cache-resident execution state once per workload instead of
    /// once per event.
    pub fn apply_workload(&mut self, workload: &Workload) {
        for s in &mut self.servers {
            for e in workload {
                s.apply(e);
            }
        }
        for e in workload {
            self.oracle.apply(e);
        }
        self.metrics.events_processed += workload.len();
    }

    /// Crashes server `i` (original or backup).
    pub fn crash(&mut self, i: usize) -> Result<()> {
        self.check_server(i)?;
        self.servers[i].crash();
        self.metrics.crashes_injected += 1;
        Ok(())
    }

    /// Injects a Byzantine fault into server `i`, moving it to `state`.
    pub fn corrupt(&mut self, i: usize, state: StateId) -> Result<()> {
        self.check_server(i)?;
        if state.index() >= self.servers[i].machine().size() {
            return Err(DistsysError::InvalidState {
                server: i,
                state: state.index(),
                size: self.servers[i].machine().size(),
            });
        }
        self.servers[i].corrupt(state);
        self.metrics.corruptions_injected += 1;
        Ok(())
    }

    /// Injects a Byzantine fault that moves server `i` to a state *different
    /// from* its current one (a fault that actually lies).  Returns the
    /// state it was moved to.
    pub fn corrupt_differently(&mut self, i: usize) -> Result<StateId> {
        self.check_server(i)?;
        let size = self.servers[i].machine().size();
        if size < 2 {
            return Err(DistsysError::InvalidState {
                server: i,
                state: 1,
                size,
            });
        }
        let current = self.servers[i].current_state().index();
        let target = StateId((current + 1) % size);
        self.corrupt(i, target)?;
        Ok(target)
    }

    /// The true state of original machine `i` according to the oracle.
    pub fn oracle_state_of(&self, i: usize) -> StateId {
        if i < self.num_originals {
            self.product.component_state(self.oracle.current(), i)
        } else {
            StateId(
                self.fusion.partitions[i - self.num_originals]
                    .block_of(self.oracle.current().index()),
            )
        }
    }

    /// Collects reports from every server (Algorithm 3's input), translating
    /// each server's machine state into the block index of its registered
    /// partition.
    pub fn collect_reports(&self) -> Vec<MachineReport> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, s)| match s.report() {
                MachineReport::Crashed => MachineReport::Crashed,
                MachineReport::State(state) => MachineReport::State(self.block_of_state[i][state]),
            })
            .collect()
    }

    /// Runs recovery (Algorithm 3) and repairs every server: crashed servers
    /// get their state back, Byzantine servers are corrected, healthy
    /// servers are untouched (their state already matches).  The decode is
    /// [`FusedSystem::recover_external`] on the in-process servers'
    /// reports.
    pub fn recover(&mut self) -> Result<RecoveryOutcome> {
        let reports: Vec<MachineReport> = self.servers.iter().map(Server::report).collect();
        let ext = self.recover_external(&reports)?;
        let mut repaired = Vec::new();
        for (i, (server, &correct)) in self.servers.iter_mut().zip(&ext.states).enumerate() {
            if server.status() != ServerStatus::Healthy || server.current_state() != correct {
                server.restore(correct);
                repaired.push(i);
            }
        }
        Ok(RecoveryOutcome {
            recovery: ext.recovery,
            repaired,
            matches_oracle: ext.matches_oracle,
        })
    }

    /// The full machine set (originals then backups) — what an
    /// [`Environment`](crate::Environment) spawns to run this system's
    /// servers externally.
    pub fn all_machines(&self) -> Vec<Dfsm> {
        self.servers.iter().map(|s| s.machine().clone()).collect()
    }

    /// Runs recovery (Algorithm 3) on reports collected from *external*
    /// servers (e.g. a simulated or threaded
    /// [`ServerGroup`](crate::ServerGroup)), translating each reported
    /// machine state into partition blocks and the recovered blocks back
    /// into machine states.
    ///
    /// Unlike [`FusedSystem::recover`] this does not touch the in-process
    /// servers: the caller restores the external group from
    /// [`ExternalRecovery::states`].
    pub fn recover_external(&mut self, reports: &[MachineReport]) -> Result<ExternalRecovery> {
        if reports.len() != self.servers.len() {
            return Err(DistsysError::NoSuchServer {
                server: reports.len(),
                count: self.servers.len(),
            });
        }
        let mut translated = Vec::with_capacity(reports.len());
        for (i, r) in reports.iter().enumerate() {
            translated.push(match r {
                MachineReport::Crashed => MachineReport::Crashed,
                MachineReport::State(state) => {
                    if *state >= self.block_of_state[i].len() {
                        return Err(DistsysError::InvalidState {
                            server: i,
                            state: *state,
                            size: self.block_of_state[i].len(),
                        });
                    }
                    MachineReport::State(self.block_of_state[i][*state])
                }
            });
        }
        let recovery = match self.engine.recover(&translated) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.failed_recoveries += 1;
                return Err(e.into());
            }
        };
        let states = recovery
            .machine_states
            .iter()
            .enumerate()
            .map(|(i, &b)| self.state_of_block[i][b])
            .collect();
        self.metrics.recoveries += 1;
        let matches_oracle = recovery.top_state == self.oracle.current().index();
        Ok(ExternalRecovery {
            states,
            recovery,
            matches_oracle,
        })
    }

    /// Whether every healthy server's state is consistent with the oracle
    /// (useful as a system invariant in tests).
    pub fn consistent_with_oracle(&self) -> bool {
        self.servers.iter().enumerate().all(|(i, s)| {
            s.status() != ServerStatus::Healthy || s.current_state() == self.oracle_state_of(i)
        })
    }

    /// The backup state space `∏ |Fi|` of the generated fusion.
    pub fn fusion_state_space(&self) -> u128 {
        self.fusion.state_space()
    }

    /// The backup state space replication would need for the same fault
    /// budget and model: `(∏ |Mi|)^(copies per machine)`.
    pub fn replication_state_space(&self) -> u128 {
        let sizes: Vec<usize> = self.servers[..self.num_originals]
            .iter()
            .map(|s| s.machine().size())
            .collect();
        let copies = self.fault_model.copies_per_machine(self.f);
        fsm_fusion_core::replication_state_space(&sizes, copies)
    }

    fn check_server(&self, i: usize) -> Result<()> {
        if i >= self.servers.len() {
            return Err(DistsysError::NoSuchServer {
                server: i,
                count: self.servers.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Seeded;
    use fsm_machines::{fig1_machines, mesi, zero_counter_mod3};

    fn fig1_system(f: usize, model: FaultModel) -> FusedSystem {
        FusedSystem::new(&fig1_machines(), f, model).unwrap()
    }

    #[test]
    fn construction_adds_the_expected_number_of_backups() {
        let sys = fig1_system(1, FaultModel::Crash);
        assert_eq!(sys.num_originals(), 2);
        assert_eq!(sys.num_backups(), 1);
        assert_eq!(sys.num_servers(), 3);
        assert_eq!(sys.fault_budget(), 1);
        assert_eq!(sys.fault_model(), FaultModel::Crash);
        assert_eq!(sys.fusion().machine_sizes(), vec![3]);
        assert!(sys.fusion_state_space() < sys.replication_state_space());
    }

    #[test]
    fn with_session_builds_the_identical_system() {
        use fsm_fusion_core::FusionConfig;
        let machines = vec![mesi(), zero_counter_mod3()];
        let w = Seeded(5).workload_over_machines(&machines, 97);
        let mut session = FusionConfig::new().build();
        // Two systems from one session (crash + Byzantine) share the
        // cached fault graph; both must equal the free-function build.
        for model in [FaultModel::Crash, FaultModel::Byzantine] {
            let mut legacy = FusedSystem::new(&machines, 1, model).unwrap();
            let mut sessioned =
                FusedSystem::with_session(&machines, 1, model, &mut session).unwrap();
            assert_eq!(legacy.fusion().partitions, sessioned.fusion().partitions);
            assert_eq!(legacy.num_servers(), sessioned.num_servers());
            legacy.apply_workload(&w);
            sessioned.apply_workload(&w);
            legacy.crash(0).unwrap();
            sessioned.crash(0).unwrap();
            let a = legacy.recover().unwrap();
            let b = sessioned.recover().unwrap();
            assert!(a.matches_oracle && b.matches_oracle);
            assert_eq!(a.repaired, b.repaired);
            for i in 0..legacy.num_servers() {
                assert_eq!(
                    legacy.server(i).current_state(),
                    sessioned.server(i).current_state()
                );
            }
        }
    }

    #[test]
    fn byzantine_provisioning_doubles_the_distance_target() {
        let crash = fig1_system(1, FaultModel::Crash);
        let byz = fig1_system(1, FaultModel::Byzantine);
        assert!(byz.num_backups() > crash.num_backups());
    }

    #[test]
    fn crash_and_recover_restores_the_lost_state() {
        let mut sys = fig1_system(1, FaultModel::Crash);
        sys.apply_workload(&Workload::from_bits("0100110"));
        let true_state = sys.oracle_state_of(0);
        sys.crash(0).unwrap();
        assert_eq!(sys.server(0).status(), ServerStatus::Crashed);
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
        assert!(outcome.repaired.contains(&0));
        assert_eq!(sys.server(0).current_state(), true_state);
        assert_eq!(sys.metrics().recoveries, 1);
        assert!(sys.consistent_with_oracle());
    }

    #[test]
    fn byzantine_fault_is_detected_and_corrected() {
        let mut sys = fig1_system(1, FaultModel::Byzantine);
        sys.apply_workload(&Workload::from_bits("110100101"));
        let victim = 1;
        let true_state = sys.oracle_state_of(victim);
        let forged = sys.corrupt_differently(victim).unwrap();
        assert_ne!(forged, true_state);
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
        assert!(outcome.recovery.suspected_byzantine.contains(&victim));
        assert_eq!(sys.server(victim).current_state(), true_state);
        assert!(sys.consistent_with_oracle());
    }

    #[test]
    fn too_many_crashes_fail_recovery() {
        let mut sys = fig1_system(1, FaultModel::Crash);
        sys.apply_workload(&Workload::from_bits("01"));
        // Crash two machines when only one fault is tolerated; depending on
        // the surviving machine the vote may be ambiguous.
        sys.crash(0).unwrap();
        sys.crash(1).unwrap();
        match sys.recover() {
            Ok(outcome) => {
                // If recovery "succeeded" it may still be wrong — but with
                // this workload the surviving fusion machine alone cannot
                // single out the top state, so we expect failure.
                assert!(!outcome.matches_oracle || outcome.recovery.votes <= 1);
            }
            Err(_) => {
                assert_eq!(sys.metrics().failed_recoveries, 1);
            }
        }
    }

    #[test]
    fn crashing_a_backup_is_also_recoverable() {
        let mut sys = fig1_system(1, FaultModel::Crash);
        sys.apply_workload(&Workload::from_bits("0011010"));
        let backup_index = sys.num_originals();
        sys.crash(backup_index).unwrap();
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
        assert!(sys.consistent_with_oracle());
    }

    #[test]
    fn batched_workload_matches_per_event_reference_path() {
        // apply_workload submits the whole stream per server; the reference
        // path broadcasts event by event.  Final server states, oracle
        // state, metrics and recovery behavior must be identical.
        let machines = vec![mesi(), zero_counter_mod3()];
        let mut batched = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let mut reference = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let w = Seeded(23).workload_over_machines(&machines, 157);
        batched.apply_workload(&w);
        for e in &w {
            reference.apply_event(e);
        }
        assert_eq!(batched.metrics(), reference.metrics());
        assert!(reference.consistent_with_oracle());
        for i in 0..batched.num_servers() {
            assert_eq!(
                batched.server(i).current_state(),
                reference.server(i).current_state(),
                "server {i}"
            );
        }
        assert!(batched.consistent_with_oracle());
        // And recovery behaves the same after a crash on both.
        batched.crash(0).unwrap();
        reference.crash(0).unwrap();
        let b = batched.recover().unwrap();
        let r = reference.recover().unwrap();
        assert!(b.matches_oracle && r.matches_oracle);
        assert_eq!(b.repaired, r.repaired);
    }

    #[test]
    fn events_flow_to_all_servers_and_oracle() {
        let mut sys = fig1_system(1, FaultModel::Crash);
        sys.apply_workload(&Workload::from_bits("000"));
        assert_eq!(sys.metrics().events_processed, 3);
        // 3 zeros: 0-counter at 0 (mod 3), 1-counter untouched.
        assert_eq!(sys.server(0).current_state(), StateId(0));
        assert_eq!(sys.server(1).current_state(), StateId(0));
        assert!(sys.consistent_with_oracle());
        assert_eq!(sys.servers().len(), 3);
    }

    #[test]
    fn heterogeneous_machine_set_roundtrip() {
        let machines = vec![mesi(), zero_counter_mod3()];
        let mut sys = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let w = Seeded(11).workload_over_machines(&machines, 200);
        sys.apply_workload(&w);
        sys.crash(0).unwrap();
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
        assert!(sys.consistent_with_oracle());
    }

    #[test]
    fn error_paths() {
        let mut sys = fig1_system(1, FaultModel::Crash);
        assert!(sys.crash(99).is_err());
        assert!(sys.corrupt(0, StateId(99)).is_err());
        assert!(FusedSystem::new(&[], 1, FaultModel::Crash).is_err());
    }

    #[test]
    fn external_recovery_translates_raw_machine_reports() {
        let machines = vec![mesi(), zero_counter_mod3()];
        let mut sys = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let w = Seeded(17).workload_over_machines(&machines, 321);
        sys.apply_workload(&w);
        // Reports as an external server group would produce them: raw
        // machine states in each machine's own numbering, one crashed.
        let mut reports: Vec<MachineReport> = (0..sys.num_servers())
            .map(|i| MachineReport::State(sys.oracle_state_of(i).index()))
            .collect();
        reports[0] = MachineReport::Crashed;
        let ext = sys.recover_external(&reports).unwrap();
        assert!(ext.matches_oracle);
        for i in 0..sys.num_servers() {
            assert_eq!(ext.states[i], sys.oracle_state_of(i), "server {i}");
        }
        assert_eq!(sys.all_machines().len(), sys.num_servers());
        // Shape and bounds errors.
        assert!(sys.recover_external(&reports[..1]).is_err());
        reports[1] = MachineReport::State(999);
        assert!(sys.recover_external(&reports).is_err());
    }

    #[test]
    fn zero_fault_budget_needs_no_backups_but_still_runs() {
        let mut sys = fig1_system(0, FaultModel::Crash);
        assert_eq!(sys.num_backups(), 0);
        sys.apply_workload(&Workload::from_bits("0101"));
        assert!(sys.consistent_with_oracle());
        let outcome = sys.recover().unwrap();
        assert!(outcome.matches_oracle);
    }
}
