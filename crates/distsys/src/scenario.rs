//! End-to-end scenarios from the paper's motivation sections.
//!
//! The introduction motivates fusion with a sensor network: `n` sensors each
//! run a small DFSM (a mod-3 counter of changes to temperature, pressure,
//! humidity, …).  Replication needs `n` extra sensors to tolerate one crash;
//! fusion needs a *single* 3-state backup.  The conclusion scales the claim
//! up: "to tolerate 5 crash faults among 1000 machines, replication will
//! require 5000 extra machines [whereas fusion] may achieve this with just 5".
//!
//! [`SensorNetwork`] reproduces the scenario in two modes:
//!
//! * **exact** — for small `n`, the backup is produced by Algorithm 2 on the
//!   reachable cross product (3ⁿ states), exactly as the library does for
//!   any machine set;
//! * **analytic** — for large `n` (the paper's 100-sensor network), building
//!   a 3ⁿ-state product is pointless; the backup is the sum-mod-3 counter
//!   over all sensor events, which is the machine Algorithm 2 finds in exact
//!   mode (tests cross-check the two modes on small `n`), and single-sensor
//!   recovery solves `backup − Σ others (mod 3)` directly.

use std::time::Duration;

use fsm_dfsm::{Dfsm, DfsmBuilder, Event, Executor, StateId};
use fsm_fusion_core::{FaultModel, MachineReport};

use crate::env::{Environment, GroupConfig};
use crate::error::{DistsysError, Result};
use crate::ingest::{IngestConfig, IngestMetrics, IngestPipeline};
use crate::sim::Seeded;
use crate::system::FusedSystem;
use crate::workload::Workload;

/// How the sensor-network backup is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorBackupMode {
    /// Run the full pipeline (cross product + Algorithm 2).  Practical for
    /// roughly `n ≤ 8` sensors.
    Exact,
    /// Use the analytically known fusion (the sum-mod-3 counter over every
    /// sensor's event) without building the 3ⁿ-state product.
    Analytic,
}

/// A simulated sensor network of `n` mod-3 counters plus one fused backup.
#[derive(Debug)]
pub struct SensorNetwork {
    /// Per-sensor event names (`sensor0`, `sensor1`, …).
    events: Vec<Event>,
    /// Sensor states (counts mod 3); `None` while crashed.
    sensors: Vec<Option<usize>>,
    /// The fused backup state: sum of all counts mod 3.
    backup: usize,
    mode: SensorBackupMode,
    /// Exact-mode system (kept for cross-checking and recovery).
    exact: Option<FusedSystem>,
    events_processed: usize,
}

impl SensorNetwork {
    /// The modulus of every sensor counter.
    pub const MODULUS: usize = 3;

    /// Creates a sensor network with `n` sensors.
    pub fn new(n: usize, mode: SensorBackupMode) -> Result<Self> {
        Self::build(n, mode, None)
    }

    /// [`SensorNetwork::new`] through a caller-owned
    /// [`fsm_fusion_core::FusionSession`]: exact-mode backup generation
    /// runs on the session's engine and cache
    /// ([`FusedSystem::with_session`]); analytic mode needs no generation,
    /// so the session goes unused there.
    pub fn new_with_session(
        n: usize,
        mode: SensorBackupMode,
        session: &mut fsm_fusion_core::FusionSession,
    ) -> Result<Self> {
        Self::build(n, mode, Some(session))
    }

    fn build(
        n: usize,
        mode: SensorBackupMode,
        session: Option<&mut fsm_fusion_core::FusionSession>,
    ) -> Result<Self> {
        if n == 0 {
            return Err(DistsysError::NoMachines);
        }
        let events: Vec<Event> = (0..n).map(|i| Event::new(format!("sensor{i}"))).collect();
        let exact = match mode {
            SensorBackupMode::Exact => {
                let machines = Self::sensor_machines(n);
                Some(match session {
                    Some(s) => FusedSystem::with_session(&machines, 1, FaultModel::Crash, s)?,
                    None => FusedSystem::new(&machines, 1, FaultModel::Crash)?,
                })
            }
            SensorBackupMode::Analytic => None,
        };
        Ok(SensorNetwork {
            events,
            sensors: vec![Some(0); n],
            backup: 0,
            mode,
            exact,
            events_processed: 0,
        })
    }

    /// The DFSMs the sensors run (used by exact mode and by tests).
    pub fn sensor_machines(n: usize) -> Vec<Dfsm> {
        let alphabet: Vec<String> = (0..n).map(|i| format!("sensor{i}")).collect();
        let alphabet_refs: Vec<&str> = alphabet.iter().map(|s| s.as_str()).collect();
        (0..n)
            .map(|i| {
                fsm_machines::mod_counter(
                    &format!("Sensor{i}"),
                    Self::MODULUS,
                    &format!("sensor{i}"),
                    &alphabet_refs,
                )
            })
            .collect()
    }

    /// Number of sensors.
    pub fn num_sensors(&self) -> usize {
        self.sensors.len()
    }

    /// The backup mode in use.
    pub fn mode(&self) -> SensorBackupMode {
        self.mode
    }

    /// Number of observations processed.
    pub fn events_processed(&self) -> usize {
        self.events_processed
    }

    /// The event name for sensor `i` (an observation on that sensor).
    pub fn event_for(&self, i: usize) -> &Event {
        &self.events[i]
    }

    /// Records one observation on sensor `i`.
    pub fn observe(&mut self, i: usize) -> Result<()> {
        if i >= self.sensors.len() {
            return Err(DistsysError::NoSuchServer {
                server: i,
                count: self.sensors.len(),
            });
        }
        if let Some(state) = self.sensors[i].as_mut() {
            *state = (*state + 1) % Self::MODULUS;
        }
        self.backup = (self.backup + 1) % Self::MODULUS;
        if let Some(sys) = self.exact.as_mut() {
            let e = self.events[i].clone();
            sys.apply_event(&e);
        }
        self.events_processed += 1;
        Ok(())
    }

    /// Records a random observation sequence (uniform over sensors).
    ///
    /// Legacy shim over [`Seeded::observations`]; observes the exact
    /// sequence it always did for a given seed.
    pub fn observe_randomly(&mut self, count: usize, seed: u64) -> Result<()> {
        for i in Seeded(seed).observations(self.sensors.len(), count) {
            self.observe(i)?;
        }
        Ok(())
    }

    /// A workload of `count` random observations (for exact-mode systems or
    /// external replay).
    ///
    /// Legacy shim over [`Seeded::observations`].
    pub fn random_workload(&self, count: usize, seed: u64) -> Workload {
        Workload::scripted(
            Seeded(seed)
                .observations(self.events.len(), count)
                .into_iter()
                .map(|i| self.events[i].clone()),
        )
    }

    /// The current state (count mod 3) of sensor `i`, if it is alive.
    pub fn sensor_state(&self, i: usize) -> Option<usize> {
        self.sensors[i]
    }

    /// The backup machine's state.
    pub fn backup_state(&self) -> usize {
        self.backup
    }

    /// Crashes sensor `i` (its count is lost).
    pub fn crash_sensor(&mut self, i: usize) -> Result<()> {
        if i >= self.sensors.len() {
            return Err(DistsysError::NoSuchServer {
                server: i,
                count: self.sensors.len(),
            });
        }
        self.sensors[i] = None;
        if let Some(sys) = self.exact.as_mut() {
            sys.crash(i)?;
        }
        Ok(())
    }

    /// Recovers every crashed sensor from the surviving sensors and the
    /// fused backup, and returns the recovered states.  At most one sensor
    /// may be crashed (the network is provisioned for a single fault, as in
    /// the paper's example).
    pub fn recover(&mut self) -> Result<Vec<usize>> {
        let crashed: Vec<usize> = (0..self.sensors.len())
            .filter(|&i| self.sensors[i].is_none())
            .collect();
        if crashed.len() > 1 {
            return Err(DistsysError::Fusion(
                fsm_fusion_core::FusionError::AmbiguousRecovery {
                    candidates: crashed.clone(),
                },
            ));
        }
        if let Some(&victim) = crashed.first() {
            let recovered = match self.mode {
                SensorBackupMode::Analytic => {
                    // backup = Σ counts (mod 3)  ⇒  missing = backup − Σ others.
                    let others: usize = self
                        .sensors
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != victim)
                        .map(|(_, s)| s.expect("only one sensor crashed"))
                        .sum();
                    (self.backup + Self::MODULUS * self.sensors.len() - others) % Self::MODULUS
                }
                SensorBackupMode::Exact => {
                    let sys = self.exact.as_mut().expect("exact mode keeps a system");
                    let outcome = sys.recover()?;
                    outcome.recovery.machine_states[victim]
                }
            };
            self.sensors[victim] = Some(recovered);
        }
        Ok(self.sensors.iter().map(|s| s.expect("restored")).collect())
    }

    /// The analytically known fused backup as a real DFSM: a mod-3 counter
    /// over *every* sensor event — the machine Algorithm 2 finds in exact
    /// mode (the cross-mode tests pin this) — so analytic-mode networks can
    /// drive a real server group without building the 3ⁿ-state product.
    pub fn analytic_backup_machine(n: usize) -> Dfsm {
        let mut b = DfsmBuilder::new("FusedSum");
        for s in 0..Self::MODULUS {
            b.add_state_with_output(format!("FusedSum{s}"), s.to_string());
        }
        b.set_initial("FusedSum0");
        for s in 0..Self::MODULUS {
            for i in 0..n {
                b.add_transition(
                    format!("FusedSum{s}"),
                    Event::new(format!("sensor{i}")),
                    format!("FusedSum{}", (s + 1) % Self::MODULUS),
                );
            }
        }
        b.build().expect("the sum counter is a valid DFSM")
    }

    /// The server roster a serving run spawns: every sensor machine plus
    /// the fused backup (Algorithm 2's in exact mode,
    /// [`SensorNetwork::analytic_backup_machine`] otherwise).
    pub fn serving_machines(&self) -> Vec<Dfsm> {
        match &self.exact {
            Some(sys) => sys.all_machines(),
            None => {
                let n = self.num_sensors();
                let mut machines = Self::sensor_machines(n);
                machines.push(Self::analytic_backup_machine(n));
                machines
            }
        }
    }

    /// Serves `workload` from `clients` simulated clients through a fused
    /// server group spawned on `env` — the end-to-end traffic path: events
    /// are pushed round-robin into the bounded client queues of an
    /// [`IngestPipeline`] configured by `config`, applied by the group in
    /// batches, and report collection closes the run.  The one driving
    /// thread both pushes and pumps, so it pumps only when
    /// [`IngestPipeline::push`] finds a queue full, and drains at the end:
    /// a pump after every push would flush one-event batches.  Works
    /// identically on [`crate::OsEnvironment`] (wall clock, real threads)
    /// and [`crate::sim::SimEnvironment`] (virtual time, seeded chaos,
    /// bit-identical replay).
    ///
    /// A server that dies mid-run degrades to a `None` report (the
    /// [`DistsysError::MissingReports`] path) in
    /// [`ServeReport::reports`] without stalling its siblings.
    pub fn serve(
        &self,
        env: &dyn Environment,
        clients: usize,
        workload: &Workload,
        config: &IngestConfig,
    ) -> Result<ServeReport> {
        let machines = self.serving_machines();
        let mut group = env.spawn_group(&machines, &GroupConfig::new());
        let clients = clients.max(1);
        let mut pipeline = IngestPipeline::new(clients, machines.len(), config);
        let start = env.now();
        for (j, event) in workload.iter().enumerate() {
            pipeline.push(group.as_mut(), j % clients, event.clone(), env.now());
        }
        pipeline.drain(group.as_mut(), env.now());
        let reports = group.try_collect_reports();
        let elapsed = env.now().saturating_sub(start);
        let missing: Vec<usize> = reports
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        let events = workload.len();
        let events_per_sec = events as f64 / elapsed.max(Duration::from_nanos(1)).as_secs_f64();
        let metrics = pipeline.metrics();
        let flush_latency_ns = pipeline.take_latency_samples();
        let _ = group.shutdown();
        Ok(ServeReport {
            events,
            clients,
            elapsed,
            events_per_sec,
            metrics,
            reports,
            missing,
            flush_latency_ns,
        })
    }

    /// Backup state space used by fusion (a single 3-state machine) vs. the
    /// replication baseline (`3ⁿ` for one crash fault), as the paper's
    /// introduction argues.
    pub fn backup_state_space_comparison(&self) -> (u128, u128) {
        let fusion = Self::MODULUS as u128;
        let replication = (Self::MODULUS as u128).saturating_pow(self.sensors.len() as u32);
        (fusion, replication)
    }

    /// Verifies the internal consistency invariant: the backup equals the
    /// sum of the (alive) sensor counts mod 3 whenever no sensor is crashed.
    pub fn invariant_holds(&self) -> bool {
        if self.sensors.iter().any(|s| s.is_none()) {
            return true;
        }
        let total: usize = self.sensors.iter().map(|s| s.unwrap()).sum();
        total % Self::MODULUS == self.backup
    }
}

/// What one [`SensorNetwork::serve`] run measured: the first end-to-end
/// serving numbers (events/sec over the environment clock) plus the
/// pipeline's own counters and latency samples.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Events served end to end.
    pub events: usize,
    /// Client queues that fed the pipeline.
    pub clients: usize,
    /// Environment-clock time from first push to final drain (virtual under
    /// the simulator).
    pub elapsed: Duration,
    /// Sustained events per second over `elapsed` (a virtual rate under the
    /// simulator).
    pub events_per_sec: f64,
    /// The pipeline's counters (batches, flush triggers, diversions,
    /// retries).
    pub metrics: IngestMetrics,
    /// Final per-server reports; `None` marks a server that degraded to the
    /// missing-reports path.
    pub reports: Vec<Option<MachineReport>>,
    /// Indices of the servers that never reported.
    pub missing: Vec<usize>,
    /// Enqueue-to-flush latency samples (nanoseconds, flush order, capped
    /// at [`crate::ingest::LATENCY_SAMPLE_CAP`]).
    pub flush_latency_ns: Vec<u64>,
}

/// A reference oracle for scenario tests: replays a workload on a single
/// machine and reports its final state (used to double-check scenario
/// arithmetic against real DFSM execution).
pub fn replay_oracle(machine: &Dfsm, workload: &Workload) -> StateId {
    let mut ex = Executor::new(machine.clone());
    ex.apply_all(workload.iter());
    ex.current()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn analytic_sensor_network_recovers_a_crashed_sensor() {
        let mut net = SensorNetwork::new(100, SensorBackupMode::Analytic).unwrap();
        net.observe_randomly(10_000, 42).unwrap();
        assert!(net.invariant_holds());
        let truth = net.sensor_state(37).unwrap();
        net.crash_sensor(37).unwrap();
        assert_eq!(net.sensor_state(37), None);
        let recovered = net.recover().unwrap();
        assert_eq!(recovered[37], truth);
        assert_eq!(net.sensor_state(37), Some(truth));
        // The paper's headline saving: 3 states of backup vs 3^100.
        let (fusion, replication) = net.backup_state_space_comparison();
        assert_eq!(fusion, 3);
        assert!(replication > 1u128 << 100);
    }

    #[test]
    fn exact_and_analytic_modes_agree_on_small_networks() {
        for seed in 0..5u64 {
            let n = 4;
            let mut exact = SensorNetwork::new(n, SensorBackupMode::Exact).unwrap();
            let mut analytic = SensorNetwork::new(n, SensorBackupMode::Analytic).unwrap();
            // Same observation sequence on both.
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..200 {
                let i = rng.gen_range(0..n);
                exact.observe(i).unwrap();
                analytic.observe(i).unwrap();
            }
            let victim = (seed as usize) % n;
            let truth = exact.sensor_state(victim).unwrap();
            exact.crash_sensor(victim).unwrap();
            analytic.crash_sensor(victim).unwrap();
            assert_eq!(exact.recover().unwrap()[victim], truth, "seed {seed}");
            assert_eq!(analytic.recover().unwrap()[victim], truth, "seed {seed}");
        }
    }

    #[test]
    fn exact_mode_generates_a_three_state_backup() {
        // Algorithm 2 finds the 3-state fused backup the paper promises for
        // the sensor network, no matter how many sensors there are.
        for n in [2usize, 3, 4] {
            let net = SensorNetwork::new(n, SensorBackupMode::Exact).unwrap();
            let sys = net.exact.as_ref().unwrap();
            assert_eq!(sys.num_backups(), 1, "n = {n}");
            assert_eq!(sys.fusion().machine_sizes(), vec![3], "n = {n}");
        }
    }

    #[test]
    fn session_built_networks_match_the_legacy_constructor() {
        use fsm_fusion_core::FusionConfig;
        // One session serves several exact-mode networks back to back; each
        // must carry exactly the backup the legacy constructor generates,
        // and recovery must agree.
        let mut session = FusionConfig::new().build();
        for n in [2usize, 3, 4] {
            let mut legacy = SensorNetwork::new(n, SensorBackupMode::Exact).unwrap();
            let mut sessioned =
                SensorNetwork::new_with_session(n, SensorBackupMode::Exact, &mut session).unwrap();
            assert_eq!(
                legacy.exact.as_ref().unwrap().fusion().partitions,
                sessioned.exact.as_ref().unwrap().fusion().partitions,
                "n = {n}"
            );
            for net in [&mut legacy, &mut sessioned] {
                net.observe_randomly(60, n as u64).unwrap();
            }
            let truth = legacy.sensor_state(0).unwrap();
            legacy.crash_sensor(0).unwrap();
            sessioned.crash_sensor(0).unwrap();
            assert_eq!(legacy.recover().unwrap(), sessioned.recover().unwrap());
            assert_eq!(sessioned.sensor_state(0), Some(truth));
        }
        // Analytic mode accepts a session too (and ignores it).
        let net = SensorNetwork::new_with_session(5, SensorBackupMode::Analytic, &mut session);
        assert!(net.is_ok());
    }

    #[test]
    fn two_crashes_exceed_the_budget() {
        let mut net = SensorNetwork::new(10, SensorBackupMode::Analytic).unwrap();
        net.observe_randomly(100, 1).unwrap();
        net.crash_sensor(1).unwrap();
        net.crash_sensor(2).unwrap();
        assert!(net.recover().is_err());
    }

    #[test]
    fn accessors_and_errors() {
        let mut net = SensorNetwork::new(3, SensorBackupMode::Analytic).unwrap();
        assert_eq!(net.num_sensors(), 3);
        assert_eq!(net.mode(), SensorBackupMode::Analytic);
        assert_eq!(net.event_for(1).name(), "sensor1");
        assert!(net.observe(7).is_err());
        assert!(net.crash_sensor(7).is_err());
        assert!(SensorNetwork::new(0, SensorBackupMode::Analytic).is_err());
        net.observe(0).unwrap();
        assert_eq!(net.events_processed(), 1);
        assert_eq!(net.backup_state(), 1);
        // No crash: recover is a no-op returning all states.
        assert_eq!(net.recover().unwrap(), vec![1, 0, 0]);
    }

    #[test]
    fn analytic_backup_machine_counts_every_sensor_event_mod_3() {
        let n = 4;
        let m = SensorNetwork::analytic_backup_machine(n);
        assert_eq!(m.size(), SensorNetwork::MODULUS);
        let net = SensorNetwork::new(n, SensorBackupMode::Analytic).unwrap();
        let w = net.random_workload(120, 3);
        // The backup counts *every* observation: final state = |w| mod 3.
        assert_eq!(replay_oracle(&m, &w).index(), w.len() % 3);
        // Serving rosters: sensors + the one backup, in both modes.
        assert_eq!(net.serving_machines().len(), n + 1);
        let exact = SensorNetwork::new(3, SensorBackupMode::Exact).unwrap();
        assert_eq!(exact.serving_machines().len(), 4);
    }

    #[test]
    fn serve_runs_the_batched_path_end_to_end_on_both_backends() {
        use crate::env::{Environment, OsEnvironment};
        use crate::sim::SimConfig;
        let n = 3;
        let net = SensorNetwork::new(n, SensorBackupMode::Analytic).unwrap();
        let w = net.random_workload(400, 7);
        let cfg = IngestConfig::new().batch_max(32).queue_cap(64);
        let check = |env: &dyn Environment| {
            let report = net.serve(env, 2, &w, &cfg).unwrap();
            assert_eq!(report.events, 400);
            assert_eq!(report.clients, 2);
            assert!(report.events_per_sec > 0.0);
            assert!(
                report.missing.is_empty(),
                "{}: {:?}",
                env.name(),
                report.missing
            );
            assert_eq!(report.metrics.flushed_events, 400);
            assert!(report.metrics.batches >= 400 / 32);
            assert_eq!(report.flush_latency_ns.len(), 400);
            // Every sensor's served state equals its observation count mod
            // 3; the backup counts everything.
            for i in 0..n {
                let count = w
                    .iter()
                    .filter(|e| e.name() == format!("sensor{i}"))
                    .count();
                assert_eq!(
                    report.reports[i],
                    Some(fsm_fusion_core::MachineReport::State(
                        count % SensorNetwork::MODULUS
                    )),
                    "{}: sensor {i}",
                    env.name()
                );
            }
            assert_eq!(
                report.reports[n],
                Some(fsm_fusion_core::MachineReport::State(
                    400 % SensorNetwork::MODULUS
                ))
            );
        };
        check(&OsEnvironment::seeded(1));
        check(&SimConfig::new(9).build());
    }

    #[test]
    fn serve_replays_bit_identically_under_the_simulator() {
        use crate::sim::SimConfig;
        let net = SensorNetwork::new(3, SensorBackupMode::Exact).unwrap();
        let w = net.random_workload(150, 5);
        let cfg = IngestConfig::new().batch_max(16);
        let run = |seed: u64| {
            let env = SimConfig::new(seed).drop_probability(0.15).build();
            let report = net.serve(&env, 4, &w, &cfg).unwrap();
            (report.reports, env.trace_hash())
        };
        let (r1, h1) = run(3);
        let (r2, h2) = run(3);
        assert_eq!(r1, r2);
        assert_eq!(h1, h2);
        let (_, h3) = run(4);
        assert_ne!(h1, h3);
    }

    #[test]
    fn replay_oracle_matches_scenario_arithmetic() {
        let n = 3;
        let machines = SensorNetwork::sensor_machines(n);
        let mut net = SensorNetwork::new(n, SensorBackupMode::Analytic).unwrap();
        let w = net.random_workload(50, 9);
        for e in &w {
            let i: usize = e.name().trim_start_matches("sensor").parse().unwrap();
            net.observe(i).unwrap();
        }
        for (i, m) in machines.iter().enumerate() {
            assert_eq!(
                replay_oracle(m, &w).index(),
                net.sensor_state(i).unwrap(),
                "sensor {i}"
            );
        }
    }
}
