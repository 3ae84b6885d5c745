//! Deterministic simulation of the distributed system, in the style of
//! FoundationDB's simulation testing: a virtual clock, a seeded generator,
//! and an in-memory message network with drop/delay/reorder/duplicate knobs
//! and scripted crash points — all advanced by a single-threaded cooperative
//! scheduler, so any workload × fault-schedule run replays **byte-identical**
//! from one `u64` seed.
//!
//! ```
//! use fsm_distsys::{Environment, GroupConfig, Seeded};
//! use fsm_machines::fig1_machines;
//!
//! let machines = fig1_machines();
//! let run = |seed: u64| {
//!     let env = Seeded(seed).sim().drop_probability(0.2).build();
//!     let mut group = env.spawn_group(&machines, &GroupConfig::new());
//!     let w = Seeded(seed).workload_over_machines(&machines, 40);
//!     group.apply_batch(w.events());
//!     let _ = group.collect_reports();
//!     env.trace_hash()
//! };
//! // Same seed, same world — bit for bit.
//! assert_eq!(run(7), run(7));
//! ```
//!
//! The module's pieces:
//!
//! * [`SimRng`] / [`Seeded`] — the seeded generator and the crate-wide
//!   seeded-construction convention.
//! * [`SimConfig`] — builder for a simulated world (delays, chaos
//!   probabilities, scripted crash points).
//! * [`SimEnvironment`] / [`SimServerGroup`] — the
//!   [`Environment`]/[`ServerGroup`] implementations
//!   backed by the virtual world.
//! * [`NetStats`] / [`TraceEvent`] — observability: what the network did,
//!   and the full replayable history.
//! * [`sweep`] — the scenario harness driving hundreds of seeded
//!   workload × fault-schedule runs and asserting recovery correctness.

mod net;
mod rng;
pub mod sweep;
mod trace;

pub use net::NetStats;
pub use rng::{Seeded, SimRng};
pub use trace::{Trace, TraceEvent};

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use fsm_dfsm::{Dfsm, Event, StateId};
use fsm_fusion_core::MachineReport;
use rand::RngCore;

use crate::env::{Environment, GroupConfig, ServerGroup};
use crate::error::Result;
use crate::recovery::{ReplayStats, ServerCommand};
use crate::server::Server;
use crate::storage::SharedStore;
use net::{Chaos, Payload, SimWorld};

/// Builder for a deterministic simulated world.
///
/// All knobs default to a quiet network: one-way delays of 0.5–5 virtual
/// milliseconds and no drops, duplicates, reorder jitter or crash points.
/// Probabilities are clamped to `[0, 0.9]` — a lossy network must still
/// eventually deliver, or report collection could never converge.
#[derive(Debug, Clone)]
pub struct SimConfig {
    seed: u64,
    min_delay: Duration,
    max_delay: Duration,
    drop: f64,
    duplicate: f64,
    reorder: f64,
    torn: f64,
    crash_points: Vec<(Duration, usize)>,
}

impl SimConfig {
    /// A quiet-network configuration for `seed`.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            min_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(5),
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            torn: 0.0,
            crash_points: Vec::new(),
        }
    }

    /// The seed this world is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the one-way message delay range (virtual time).
    pub fn delay(mut self, min: Duration, max: Duration) -> Self {
        self.min_delay = min;
        self.max_delay = max.max(min);
        self
    }

    /// Probability that a report reply is dropped.
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop = p.clamp(0.0, 0.9);
        self
    }

    /// Probability that a report reply is duplicated.
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate = p.clamp(0.0, 0.9);
        self
    }

    /// Probability that a report reply gets extra jitter pushing it past
    /// later replies.
    pub fn reorder_probability(mut self, p: f64) -> Self {
        self.reorder = p.clamp(0.0, 0.9);
        self
    }

    /// Probability that killing a *durable* process tears the final
    /// write-ahead-log frame (a partial write at the moment of the power
    /// failure).  May go all the way to 1.0 — a torn tail never blocks
    /// recovery, it only drops the final unacknowledged event.
    pub fn torn_write_probability(mut self, p: f64) -> Self {
        self.torn = p.clamp(0.0, 1.0);
        self
    }

    /// Schedules a scripted process kill: server `server` of the first
    /// spawned group dies at virtual time `at` (a power failure — pending
    /// commands are lost with it).
    pub fn crash_point(mut self, at: Duration, server: usize) -> Self {
        self.crash_points.push((at, server));
        self
    }

    /// Builds the simulated environment.
    pub fn build(self) -> SimEnvironment {
        let chaos = Chaos {
            min_delay: self.min_delay.as_nanos() as u64,
            max_delay: self.max_delay.as_nanos() as u64,
            drop: self.drop,
            duplicate: self.duplicate,
            reorder: self.reorder,
            torn: self.torn,
        };
        let crash_points = self
            .crash_points
            .iter()
            .map(|(at, s)| (at.as_nanos() as u64, *s))
            .collect();
        SimEnvironment {
            world: Rc::new(RefCell::new(SimWorld::new(self.seed, chaos, crash_points))),
            seed: self.seed,
        }
    }
}

/// The deterministic environment: virtual clock, seeded randomness and
/// simulated server groups, all sharing one virtual world.
///
/// Single-threaded by construction (`Rc`/`RefCell`, no `Send`): every
/// spawned "process" is cooperatively scheduled by the world's message
/// queue, which is what makes replay exact.
#[derive(Debug)]
pub struct SimEnvironment {
    world: Rc<RefCell<SimWorld>>,
    seed: u64,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld").finish_non_exhaustive()
    }
}

impl SimEnvironment {
    /// The seed this world was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rolling hash over the world's full event trace so far.
    pub fn trace_hash(&self) -> u64 {
        self.world.borrow().trace.hash()
    }

    /// Number of trace events recorded so far.
    pub fn trace_len(&self) -> usize {
        self.world.borrow().trace.len()
    }

    /// A snapshot of the full event trace (cloned; meant for tests and
    /// debugging, not hot paths).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.world.borrow().trace.events().to_vec()
    }

    /// What the network did so far.
    pub fn net_stats(&self) -> NetStats {
        self.world.borrow().stats
    }

    /// Records a caller annotation into the trace (and its hash), so
    /// harnesses can fold decode outcomes into the replay-identity check.
    pub fn note(&self, code: u64, data: &[u64]) {
        self.world.borrow_mut().trace.record(TraceEvent::Note {
            code,
            data: data.to_vec(),
        });
    }

    /// Delivers every message still in flight, at any virtual time.
    pub fn run_until_idle(&self) {
        self.world.borrow_mut().run_until_idle();
    }
}

impl Environment for SimEnvironment {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.world.borrow().now())
    }

    fn sleep(&self, duration: Duration) {
        let mut w = self.world.borrow_mut();
        let target = w.now().saturating_add(duration.as_nanos() as u64);
        w.advance_to(target);
    }

    fn next_u64(&self) -> u64 {
        self.world.borrow_mut().user_rng.next_u64()
    }

    fn spawn_group(&self, machines: &[Dfsm], config: &GroupConfig) -> Box<dyn ServerGroup> {
        let group = self
            .world
            .borrow_mut()
            .spawn_group(machines, config.durability());
        Box::new(SimServerGroup {
            world: Rc::clone(&self.world),
            group,
            collect_timeout: config.collect_timeout.as_nanos() as u64,
        })
    }

    fn store(&self) -> SharedStore {
        self.world.borrow().store.clone()
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

/// A simulated server group: the [`ServerGroup`] implementation whose
/// processes live inside a [`SimEnvironment`]'s world.
pub struct SimServerGroup {
    world: Rc<RefCell<SimWorld>>,
    group: usize,
    collect_timeout: u64,
}

impl SimServerGroup {
    /// Sends server `i` a command no one waits on.
    fn send(&self, i: usize, cmd: ServerCommand) {
        self.world
            .borrow_mut()
            .send_command(self.group, i, Payload::Command(cmd, 0));
    }
}

impl ServerGroup for SimServerGroup {
    fn len(&self) -> usize {
        self.world.borrow().group_len(self.group)
    }

    fn apply_batch(&mut self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let batch: Arc<[Event]> = events.into();
        for i in 0..self.len() {
            self.send(i, ServerCommand::Batch(Arc::clone(&batch)));
        }
    }

    fn apply_batch_to(&mut self, i: usize, events: &[Event]) {
        if !events.is_empty() {
            self.send(i, ServerCommand::Batch(events.into()));
        }
    }

    fn crash(&mut self, i: usize) {
        self.send(i, ServerCommand::Crash);
    }

    fn corrupt(&mut self, i: usize, state: StateId) {
        self.send(i, ServerCommand::Corrupt(state));
    }

    fn restore(&mut self, i: usize, state: StateId) {
        self.send(i, ServerCommand::Restore(state));
    }

    fn kill_process(&mut self, i: usize) {
        self.world
            .borrow_mut()
            .send_command(self.group, i, Payload::Kill);
    }

    fn restart_process(&mut self, i: usize) -> Result<ReplayStats> {
        let mut world = self.world.borrow_mut();
        // Deliver everything in flight first: the kill that took the process
        // down — and any command racing it — must land before the revival,
        // exactly as an operator restarting a crashed node observes it.
        world.run_until_idle();
        world.restart(self.group, i)
    }

    /// Delivers the resync (and everything due before it) and returns the
    /// server's answer.
    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> Result<()> {
        self.world.borrow_mut().resync(self.group, i, seq, state)
    }

    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>> {
        self.world
            .borrow_mut()
            .collect(self.group, self.collect_timeout)
    }

    fn shutdown(self: Box<Self>) -> Vec<Server> {
        self.world.borrow_mut().shutdown_group(self.group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::DEFAULT_COLLECT_TIMEOUT;
    use crate::recovery::DurabilityConfig;
    use fsm_dfsm::Executor;
    use fsm_machines::fig1_machines;

    fn bits(s: &str) -> Vec<Event> {
        s.chars().map(|c| Event::new(c.to_string())).collect()
    }

    #[test]
    fn quiet_sim_group_matches_direct_execution() {
        let machines = fig1_machines();
        let env = SimConfig::new(3).build();
        assert_eq!(env.seed(), 3);
        assert_eq!(env.name(), "sim");
        let mut group = env.spawn_group(&machines, &GroupConfig::new());
        assert_eq!(group.len(), 2);
        assert!(!group.is_empty());
        let events = bits("00110");
        group.apply_batch(&events);
        let reports = group.collect_reports().unwrap();
        assert_eq!(reports[0], MachineReport::State(0));
        assert_eq!(reports[1], MachineReport::State(2));
        // Each server handles the batch as one command, traced once.
        let batch = |e: &TraceEvent| matches!(e, TraceEvent::Handle { events: 5, .. });
        assert_eq!(env.trace_events().iter().filter(|e| batch(e)).count(), 2);
        let servers = group.shutdown();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[0].events_seen(), 5);
        assert!(env.trace_len() > 0);
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let run = |seed: u64| {
            let env = SimConfig::new(seed)
                .drop_probability(0.2)
                .duplicate_probability(0.2)
                .reorder_probability(0.3)
                .build();
            let mut group = env.spawn_group(&fig1_machines(), &GroupConfig::new());
            group.apply_batch(&bits("0110100101"));
            group.crash(0);
            let _ = group.try_collect_reports();
            let _ = group.shutdown();
            (env.trace_hash(), env.trace_events())
        };
        let (h1, t1) = run(99);
        let (h2, t2) = run(99);
        assert_eq!(h1, h2);
        assert_eq!(t1, t2);
        let (h3, _) = run(100);
        assert_ne!(h1, h3);
    }

    #[test]
    fn modeled_crash_reports_crashed_but_killed_process_goes_missing() {
        let env = SimConfig::new(5).build();
        let mut group = env.spawn_group(&fig1_machines(), &GroupConfig::new());
        group.apply_batch(&[Event::new("0")]);
        group.crash(0);
        group.kill_process(1);
        let partial = group.try_collect_reports();
        assert_eq!(partial[0], Some(MachineReport::Crashed));
        assert_eq!(partial[1], None);
        match group.collect_reports() {
            Err(crate::DistsysError::MissingReports { servers }) => assert_eq!(servers, vec![1]),
            other => panic!("expected MissingReports, got {other:?}"),
        }
        let resync = group.resync(1, 1, StateId(0));
        assert!(matches!(
            resync,
            Err(crate::DistsysError::ServerDown { server: 1 })
        ));
        // The killed process has no final value, like a dead thread.
        let servers = group.shutdown();
        assert_eq!(servers.len(), 1);
        assert_eq!(env.net_stats().killed, 1);
    }

    /// Group commit writes a batch's frames in one append, so a power
    /// failure can cut that append anywhere, not just in its final frame.
    /// Recovery must still give a clean prefix that keeps every earlier
    /// append, and replaying the missed suffix must catch the server up.
    #[test]
    fn a_tear_inside_a_batch_append_recovers_a_clean_prefix() {
        let machines = fig1_machines();
        let events = bits("0110100101101");
        let config = GroupConfig::new().durable_with(DurabilityConfig::new().snapshot_every(64));
        let mut mid_batch = 0;
        for seed in 0..16 {
            let env = SimConfig::new(seed).torn_write_probability(1.0).build();
            let mut group = env.spawn_group(&machines, &config);
            group.apply_batch(&events[..3]);
            group.apply_batch(&events[3..]);
            group.kill_process(0);
            let stats = group.restart_process(0).unwrap();
            assert_eq!(env.net_stats().torn_tails, 1, "seed {seed}");
            let acked = stats.acked_seq as usize;
            assert!(
                (3..events.len()).contains(&acked),
                "seed {seed}: acked {acked}"
            );
            mid_batch += usize::from(acked < events.len() - 1);
            let prefix = Executor::new(machines[0].clone()).apply_all(&events[..acked]);
            assert_eq!(stats.state, prefix, "seed {seed}");

            group.apply_batch_to(0, &events[acked..]);
            let reports = group.collect_reports().unwrap();
            let full = Executor::new(machines[0].clone()).apply_all(&events);
            assert_eq!(reports[0], MachineReport::State(full.index()));
        }
        assert!(mid_batch > 0, "no tear cut deeper than the final frame");
    }

    #[test]
    fn scripted_crash_point_kills_at_virtual_time() {
        let env = SimConfig::new(8)
            .crash_point(Duration::from_millis(1), 0)
            .build();
        let mut group = env.spawn_group(&fig1_machines(), &GroupConfig::new());
        // The kill fires at t=1ms regardless of the command FIFO.
        group.apply_batch(&bits("0101"));
        let partial = group.try_collect_reports();
        assert_eq!(partial[0], None);
        assert!(partial[1].is_some());
    }

    #[test]
    fn collection_timeout_advances_virtual_time_not_wall_time() {
        let env = SimConfig::new(4).build();
        let mut group = env.spawn_group(&fig1_machines(), &GroupConfig::new());
        group.kill_process(0);
        let wall = std::time::Instant::now();
        let partial = group.try_collect_reports();
        // The 30s default deadline elapsed virtually, nearly instantly in
        // wall time.
        assert!(wall.elapsed() < Duration::from_secs(5));
        assert!(env.now() >= DEFAULT_COLLECT_TIMEOUT);
        assert_eq!(partial[0], None);
    }

    #[test]
    fn sleep_and_user_rng_are_deterministic() {
        let env = SimConfig::new(12).build();
        let t0 = env.now();
        env.sleep(Duration::from_millis(7));
        assert_eq!(env.now() - t0, Duration::from_millis(7));
        let a = env.next_u64();
        let env2 = SimConfig::new(12).build();
        assert_eq!(env2.next_u64(), a);
        // Notes fold into the hash.
        let before = env.trace_hash();
        env.note(1, &[2, 3]);
        assert_ne!(env.trace_hash(), before);
    }
}
