//! End-to-end scenarios from the paper's motivation sections.
//!
//! The introduction motivates fusion with a sensor network: `n` sensors each
//! run a small DFSM (a mod-3 counter of changes to temperature, pressure,
//! humidity, …).  Replication needs `n` extra sensors to tolerate one crash;
//! fusion needs a *single* 3-state backup.  The conclusion scales the claim
//! up: "to tolerate 5 crash faults among 1000 machines, replication will
//! require 5000 extra machines [whereas fusion] may achieve this with just 5".
//!
//! [`SensorNetwork`] reproduces the scenario at any `n` (the paper's
//! 100-sensor network included) without building the 3ⁿ-state product: the
//! backup is the sum-mod-3 counter over all sensor events, and
//! single-sensor recovery solves `backup − Σ others (mod 3)` directly.  The
//! sum counter is a `(1, 1)`-fusion of the sensors, but not the one
//! Algorithm 2 generates: that backup, also 3 states, counts `sensor0` up
//! and every other sensor down.  Any fusion recovers the same states, which
//! the tests check against [`FusedSystem`](crate::FusedSystem) on
//! [`SensorNetwork::sensor_machines`] for small `n`.

use std::time::Duration;

use fsm_dfsm::{Dfsm, DfsmBuilder, Event};
use fsm_fusion_core::MachineReport;

use crate::env::{Environment, GroupConfig};
use crate::error::{DistsysError, Result};
use crate::ingest::{IngestConfig, IngestMetrics, IngestPipeline};
use crate::sim::Seeded;
use crate::workload::Workload;

/// A simulated sensor network of `n` mod-3 counters plus one fused backup.
#[derive(Debug)]
pub struct SensorNetwork {
    /// Per-sensor event names (`sensor0`, `sensor1`, …).
    events: Vec<Event>,
    /// Sensor states (counts mod 3); `None` while crashed.
    sensors: Vec<Option<usize>>,
    /// The fused backup state: sum of all counts mod 3.
    backup: usize,
    events_processed: usize,
}

impl SensorNetwork {
    /// The modulus of every sensor counter.
    pub const MODULUS: usize = 3;

    /// Creates a sensor network with `n` sensors.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DistsysError::NoMachines);
        }
        Ok(SensorNetwork {
            events: (0..n).map(|i| Event::new(format!("sensor{i}"))).collect(),
            sensors: vec![Some(0); n],
            backup: 0,
            events_processed: 0,
        })
    }

    /// The DFSMs the sensors run.
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

    /// Number of observations processed.
    pub fn events_processed(&self) -> usize {
        self.events_processed
    }

    /// `Err(NoSuchServer)` unless sensor `i` exists.
    fn check_sensor(&self, i: usize) -> Result<()> {
        let count = self.sensors.len();
        (i < count)
            .then_some(())
            .ok_or(DistsysError::NoSuchServer { server: i, count })
    }

    /// Records one observation on sensor `i`.
    pub fn observe(&mut self, i: usize) -> Result<()> {
        self.check_sensor(i)?;
        if let Some(state) = self.sensors[i].as_mut() {
            *state = (*state + 1) % Self::MODULUS;
        }
        self.backup = (self.backup + 1) % Self::MODULUS;
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

    /// A workload of `count` random observations (for server groups or
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

    /// Crashes sensor `i` (its count is lost).
    pub fn crash_sensor(&mut self, i: usize) -> Result<()> {
        self.check_sensor(i)?;
        self.sensors[i] = None;
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
            // backup = Σ counts (mod 3)  ⇒  missing = backup − Σ others.
            let others: usize = self.sensors.iter().flatten().sum();
            let recovered =
                (self.backup + Self::MODULUS * self.sensors.len() - others) % Self::MODULUS;
            self.sensors[victim] = Some(recovered);
        }
        Ok(self.sensors.iter().map(|s| s.expect("restored")).collect())
    }

    /// The network's fused backup as a real DFSM: a mod-3 counter over
    /// *every* sensor event, so a network can drive a real server group
    /// without building the 3ⁿ-state product.  It is a `(1, 1)`-fusion of
    /// [`SensorNetwork::sensor_machines`] (the tests check it on the
    /// product for small `n`), though not the backup Algorithm 2 generates.
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
    /// the fused backup ([`SensorNetwork::analytic_backup_machine`]).
    pub fn serving_machines(&self) -> Vec<Dfsm> {
        let n = self.num_sensors();
        let mut machines = Self::sensor_machines(n);
        machines.push(Self::analytic_backup_machine(n));
        machines
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
        let total: usize = self.sensors.iter().flatten().sum();
        self.sensors.contains(&None) || total % Self::MODULUS == self.backup
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FusedSystem;
    use fsm_dfsm::{Executor, ReachableProduct};
    use fsm_fusion_core::{is_fusion, projection_partitions, FaultModel};

    #[test]
    fn analytic_sensor_network_recovers_a_crashed_sensor() {
        let mut net = SensorNetwork::new(100).unwrap();
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

    /// The sum counter is a fusion of the sensors, and recovering through
    /// it agrees with recovering through Algorithm 2's own backup.
    #[test]
    fn analytic_backup_is_a_fusion_and_recovers_like_algorithm_2() {
        for n in 2..=5usize {
            let sensors = SensorNetwork::sensor_machines(n);
            let mut all = sensors.clone();
            all.push(SensorNetwork::analytic_backup_machine(n));
            let product = ReachableProduct::new(&all).unwrap();
            assert_eq!(product.size(), 3usize.pow(n as u32), "n = {n}");
            let parts = projection_partitions(&product);
            assert!(
                is_fusion(product.size(), &parts[..n], &parts[n..], 1),
                "n = {n}"
            );

            let mut sys = FusedSystem::new(&sensors, 1, FaultModel::Crash).unwrap();
            assert_eq!(sys.fusion().machine_sizes(), vec![3], "n = {n}");
            let mut net = SensorNetwork::new(n).unwrap();
            // The same seeded observations on both.
            sys.apply_workload(&net.random_workload(200, n as u64));
            net.observe_randomly(200, n as u64).unwrap();
            let victim = n / 2;
            net.crash_sensor(victim).unwrap();
            sys.crash(victim).unwrap();
            assert!(sys.recover().unwrap().matches_oracle, "n = {n}");
            let exact = sys.server(victim).current_state().index();
            assert_eq!(net.recover().unwrap()[victim], exact, "n = {n}");
        }
    }

    #[test]
    fn exact_mode_generates_a_three_state_backup() {
        // Algorithm 2 finds a 3-state fused backup for the sensor network,
        // no matter how many sensors there are — but not the sum counter:
        // it counts `sensor0` up and every other sensor down.
        for n in [2usize, 3, 4] {
            let sys =
                FusedSystem::new(&SensorNetwork::sensor_machines(n), 1, FaultModel::Crash).unwrap();
            assert_eq!(sys.fusion().machine_sizes(), vec![3], "n = {n}");
            let backup = &sys.fusion().machines[0];
            let after = |i: usize| backup.run([&Event::new(format!("sensor{i}"))]);
            assert_ne!(after(0), after(1), "n = {n}");
            assert!((2..n).all(|i| after(i) == after(1)), "n = {n}");
        }
    }

    #[test]
    fn two_crashes_exceed_the_budget() {
        let mut net = SensorNetwork::new(10).unwrap();
        net.observe_randomly(100, 1).unwrap();
        net.crash_sensor(1).unwrap();
        net.crash_sensor(2).unwrap();
        assert!(net.recover().is_err());
    }

    #[test]
    fn accessors_and_errors() {
        let mut net = SensorNetwork::new(3).unwrap();
        assert_eq!(net.num_sensors(), 3);
        assert!(net.observe(7).is_err());
        assert!(net.crash_sensor(7).is_err());
        assert!(SensorNetwork::new(0).is_err());
        net.observe(0).unwrap();
        assert_eq!(net.events_processed(), 1);
        assert_eq!(net.backup, 1);
        // No crash: recover is a no-op returning all states.
        assert_eq!(net.recover().unwrap(), vec![1, 0, 0]);
    }

    #[test]
    fn analytic_backup_machine_counts_every_sensor_event_mod_3() {
        let n = 4;
        let m = SensorNetwork::analytic_backup_machine(n);
        assert_eq!(m.size(), SensorNetwork::MODULUS);
        let net = SensorNetwork::new(n).unwrap();
        let w = net.random_workload(120, 3);
        // The backup counts *every* observation: final state = |w| mod 3.
        assert_eq!(m.run(w.iter()).index(), w.len() % 3);
        // Serving roster: sensors + the one backup.
        assert_eq!(net.serving_machines().len(), n + 1);
    }
    #[test]
    fn serve_runs_the_batched_path_end_to_end_on_both_backends() {
        use crate::env::{Environment, OsEnvironment};
        use crate::sim::SimConfig;
        let n = 3;
        let net = SensorNetwork::new(n).unwrap();
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
        let net = SensorNetwork::new(3).unwrap();
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
    fn sensor_machines_match_scenario_arithmetic() {
        let n = 3;
        let machines = SensorNetwork::sensor_machines(n);
        let mut net = SensorNetwork::new(n).unwrap();
        let w = net.random_workload(50, 9);
        for e in &w {
            let i: usize = e.name().trim_start_matches("sensor").parse().unwrap();
            net.observe(i).unwrap();
        }
        for (i, m) in machines.iter().enumerate() {
            assert_eq!(
                Executor::new(m.clone()).apply_all(w.iter()).index(),
                net.sensor_state(i).unwrap(),
                "sensor {i}"
            );
        }
    }
}
