//! The execution environment abstraction: time, randomness and server-group
//! spawning behind one trait, so the same distributed-system code runs on OS
//! threads ([`OsEnvironment`]) or inside the deterministic simulator
//! ([`SimEnvironment`](crate::sim::SimEnvironment)).
//!
//! The paper's system model separates the machines from the environment that
//! feeds them events; this module makes that separation literal in the API.
//! Code written against [`Environment`] + [`ServerGroup`] never touches
//! `std::thread`, `Instant` or ambient randomness directly, which is what
//! makes byte-identical seeded replay possible.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fsm_dfsm::{Dfsm, Event, StateId};
use fsm_fusion_core::MachineReport;
use rand::RngCore;

use crate::error::{DistsysError, Result};
use crate::parallel::ParallelServerGroup;
use crate::recovery::{DurabilityConfig, ReplayStats};
use crate::server::Server;
use crate::sim::{Seeded, SimRng};
use crate::storage::{shared, MemStore, SharedStore};

/// Default liveness re-check interval during report collection.
pub const DEFAULT_REPORT_POLL: Duration = Duration::from_millis(20);

/// Default hard ceiling on one report collection.
pub const DEFAULT_COLLECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration for spawning a server group: the report-collection poll
/// interval and overall deadline that used to be hardcoded in
/// [`ParallelServerGroup`], plus the optional durability knobs.
///
/// Builders are the only way to set a knob; an unset knob keeps its
/// default.  No environment variable is read, so a group spawned under
/// [`SimEnvironment`](crate::sim::SimEnvironment) replays the same way
/// whatever shell runs it.
///
/// ```
/// use std::time::Duration;
/// use fsm_distsys::GroupConfig;
///
/// let cfg = GroupConfig::new().collect_timeout(Duration::from_secs(5));
/// assert_ne!(cfg, GroupConfig::new());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    pub(crate) report_poll: Duration,
    pub(crate) collect_timeout: Duration,
    durability: Option<DurabilityConfig>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            report_poll: DEFAULT_REPORT_POLL,
            collect_timeout: DEFAULT_COLLECT_TIMEOUT,
            durability: None,
        }
    }
}

impl GroupConfig {
    /// A configuration with every knob at its default:
    /// [`DEFAULT_REPORT_POLL`], [`DEFAULT_COLLECT_TIMEOUT`], no durability.
    pub fn new() -> Self {
        GroupConfig::default()
    }

    /// Sets the report poll interval.
    pub fn report_poll(mut self, poll: Duration) -> Self {
        self.report_poll = poll;
        self
    }

    /// Sets the collection deadline.
    pub fn collect_timeout(mut self, timeout: Duration) -> Self {
        self.collect_timeout = timeout;
        self
    }

    /// Enables durability with default [`DurabilityConfig`] knobs: spawned
    /// servers keep a write-ahead log and periodic snapshots in the
    /// environment's [`SharedStore`], and support
    /// [`ServerGroup::restart_process`] / [`ServerGroup::resync`].
    pub fn durable(self) -> Self {
        self.durable_with(DurabilityConfig::new())
    }

    /// Enables durability with explicit [`DurabilityConfig`] knobs.
    pub fn durable_with(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// The durability configuration, if durability is enabled.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }
}

/// A monotonic clock anchored at environment creation, measuring elapsed
/// time as a [`Duration`].
///
/// Deadline math in [`ParallelServerGroup`] goes through this type instead
/// of raw `Instant::now()` calls, so the collection logic is written against
/// "time since the environment started" — the same timeline the virtual
/// clock of [`SimEnvironment`](crate::sim::SimEnvironment) exposes.
#[derive(Debug, Clone, Copy)]
pub struct OsClock {
    start: Instant,
}

impl OsClock {
    /// A clock starting now.
    pub fn new() -> Self {
        OsClock {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the clock was created.
    pub fn now(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for OsClock {
    fn default() -> Self {
        OsClock::new()
    }
}

/// A group of servers driven through message passing: the abstraction both
/// the threaded runner ([`ParallelServerGroup`]) and the simulated runner
/// ([`SimServerGroup`](crate::sim::SimServerGroup)) implement.
///
/// Events travel only as batches: [`ServerGroup::apply_batch`] and
/// [`ServerGroup::apply_batch_to`] are the two apply commands, and
/// [`ServerGroup::apply_event`] / [`ServerGroup::apply_event_to`] send
/// one-event batches.  Commands (batches, faults, restores) are
/// asynchronous and processed in per-server FIFO order;
/// [`ServerGroup::collect_reports`] is the synchronization point,
/// guaranteeing every previously sent command has been applied by the
/// servers that answer.
pub trait ServerGroup {
    /// Number of servers in the group.
    fn len(&self) -> usize;

    /// Whether the group has no servers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Broadcasts a whole batch of events, in order: one command per
    /// server.  An empty batch sends nothing.
    fn apply_batch(&mut self, events: &[Event]);

    /// Sends a whole batch of events to server `i` only, as one command —
    /// the degraded-mode ingestion path, where healthy lanes receive their
    /// batches individually while a sick sibling's are diverted, and the
    /// rejoin path replaying missed events.  An empty batch sends nothing.
    fn apply_batch_to(&mut self, i: usize, events: &[Event]);

    /// Broadcasts one event: a one-event [`ServerGroup::apply_batch`].
    fn apply_event(&mut self, event: &Event) {
        self.apply_batch(std::slice::from_ref(event));
    }

    /// Sends one event to server `i` only: a one-event
    /// [`ServerGroup::apply_batch_to`].
    fn apply_event_to(&mut self, i: usize, event: &Event) {
        self.apply_batch_to(i, std::slice::from_ref(event));
    }

    /// Injects a modeled crash fault into server `i` (the server stays
    /// reachable and reports [`MachineReport::Crashed`]).
    fn crash(&mut self, i: usize);

    /// Injects a Byzantine fault moving server `i` to `state`.
    fn corrupt(&mut self, i: usize, state: StateId);

    /// Restores server `i` to `state` (after recovery).
    fn restore(&mut self, i: usize, state: StateId);

    /// Kills server `i`'s *process* (its place on a worker thread, or a
    /// simulated process), distinct from the modeled crash fault: a killed
    /// process stops answering entirely, so its report goes missing
    /// instead of reading `Crashed`.  The kill is a command like any other
    /// — pending events are applied first.
    fn kill_process(&mut self, i: usize);

    /// Restarts server `i`'s killed process from its durable state: loads
    /// the latest valid snapshot, replays the WAL suffix (dropping a torn
    /// tail) and brings the process back up, healthy, at the returned
    /// [`ReplayStats::acked_seq`].  Fails with [`DistsysError::ServerUp`]
    /// if the process was never killed and [`DistsysError::NotDurable`] if
    /// the group was spawned without durability (the default
    /// implementation).
    fn restart_process(&mut self, i: usize) -> Result<ReplayStats> {
        Err(DistsysError::NotDurable { server: i })
    }

    /// Adopts a peer-decoded state for server `i` at the group's sequence
    /// number `seq` — the peer-resync path after
    /// [`restart_process`](ServerGroup::restart_process) came back behind
    /// the group.  Durable servers persist a snapshot at `seq` so the
    /// sequence number never regresses; plain servers restore the state and
    /// ignore `seq`.
    ///
    /// Waits for the server's answer.  A failed snapshot returns
    /// [`DistsysError::Storage`] and takes the process down, as a kill
    /// would; a process that is down before it answers fails with
    /// [`DistsysError::ServerDown`].
    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> Result<()>;

    /// Collects a report from every server that answers before the
    /// configured deadline; servers that never answer (dead or wedged
    /// processes, dropped replies) yield `None` at their index.
    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>>;

    /// Collects a report from every server, failing with
    /// [`DistsysError::MissingReports`] naming the servers that never
    /// answered.
    fn collect_reports(&mut self) -> Result<Vec<MachineReport>> {
        let partial = self.try_collect_reports();
        let missing: Vec<usize> = partial
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            Ok(partial.into_iter().map(|r| r.expect("checked")).collect())
        } else {
            Err(DistsysError::MissingReports { servers: missing })
        }
    }

    /// Tears the group down and returns the final `Server` values of every
    /// server whose process can still produce one.  Processes that died
    /// without a final value — servers that panicked on a worker thread,
    /// killed simulated processes — are omitted; a server killed on a
    /// worker thread leaves its shard gracefully and still returns its
    /// value.
    fn shutdown(self: Box<Self>) -> Vec<Server>;
}

/// An execution environment: the clock, randomness and process substrate a
/// distributed run executes on.
///
/// Two implementations exist: [`OsEnvironment`] (OS threads, wall-clock
/// time, entropy-seeded randomness) and
/// [`SimEnvironment`](crate::sim::SimEnvironment) (single-threaded
/// cooperative scheduler, virtual time, seed-derived randomness).  Code
/// parameterized over `&dyn Environment` behaves identically on both up to
/// timing, and *byte-identically* across runs on the simulator.
pub trait Environment {
    /// Elapsed time on this environment's clock (wall-clock since creation,
    /// or virtual time).
    fn now(&self) -> Duration;

    /// Sleeps for `duration` (advances virtual time in the simulator,
    /// delivering any messages that come due).
    fn sleep(&self, duration: Duration);

    /// Draws 64 random bits from the environment's generator.
    fn next_u64(&self) -> u64;

    /// Spawns a server group running `machines`, one logical process each.
    fn spawn_group(&self, machines: &[Dfsm], config: &GroupConfig) -> Box<dyn ServerGroup>;

    /// The environment's durable store: where groups spawned with
    /// [`GroupConfig::durable`] keep their write-ahead logs and snapshots.
    /// In-memory by default for both environments;
    /// [`OsEnvironment::with_store`] mounts real files.
    fn store(&self) -> SharedStore;

    /// A short name for diagnostics (`"os"` or `"sim"`).
    fn name(&self) -> &'static str;

    /// A [`Seeded`] handle drawn from the environment's generator, for
    /// deriving reproducible workloads and fault plans in environment-
    /// agnostic code.
    fn seeded(&self) -> Seeded {
        Seeded(self.next_u64())
    }
}

/// The real-world environment: OS threads, wall-clock time and an
/// entropy-seeded generator — exactly the behavior `ParallelServerGroup`
/// always had, packaged behind [`Environment`].
pub struct OsEnvironment {
    clock: OsClock,
    rng: Mutex<SimRng>,
    store: SharedStore,
    groups_spawned: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for OsEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsEnvironment")
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl OsEnvironment {
    /// An environment with entropy-derived randomness.
    pub fn new() -> Self {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x5EED);
        Self::seeded(h.finish())
    }

    /// An environment whose *randomness* is seed-derived (scheduling and
    /// timing remain OS-driven, so runs are reproducible only in what they
    /// draw, not in how threads interleave — full replay needs
    /// [`SimEnvironment`](crate::sim::SimEnvironment)).
    pub fn seeded(seed: u64) -> Self {
        OsEnvironment {
            clock: OsClock::new(),
            rng: Mutex::new(SimRng::new(seed)),
            store: shared(MemStore::new()),
            groups_spawned: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Replaces the environment's durable store (e.g. a
    /// [`DirStore`](crate::DirStore) for real files on disk).
    pub fn with_store(mut self, store: SharedStore) -> Self {
        self.store = store;
        self
    }
}

impl Default for OsEnvironment {
    fn default() -> Self {
        OsEnvironment::new()
    }
}

impl Environment for OsEnvironment {
    fn now(&self) -> Duration {
        self.clock.now()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    fn next_u64(&self) -> u64 {
        self.rng.lock().expect("rng lock").next_u64()
    }

    fn spawn_group(&self, machines: &[Dfsm], config: &GroupConfig) -> Box<dyn ServerGroup> {
        match config.durability() {
            None => Box::new(ParallelServerGroup::spawn_clocked(
                machines, config, self.clock,
            )),
            Some(durability) => {
                let n = self
                    .groups_spawned
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Box::new(
                    ParallelServerGroup::spawn_durable(
                        machines,
                        config,
                        self.clock,
                        self.store.clone(),
                        &format!("os-g{n}"),
                        durability.clone(),
                    )
                    .expect("durable spawn: could not initialize server storage"),
                )
            }
        }
    }

    fn store(&self) -> SharedStore {
        self.store.clone()
    }

    fn name(&self) -> &'static str {
        "os"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_config_explicit_over_default() {
        let auto = GroupConfig::new();
        assert_eq!(auto, GroupConfig::default());
        assert_eq!(auto.report_poll, DEFAULT_REPORT_POLL);
        assert_eq!(auto.collect_timeout, DEFAULT_COLLECT_TIMEOUT);

        let explicit = auto
            .report_poll(Duration::from_millis(1))
            .collect_timeout(Duration::from_secs(2));
        assert_eq!(explicit.report_poll, Duration::from_millis(1));
        assert_eq!(explicit.collect_timeout, Duration::from_secs(2));
    }

    #[test]
    fn os_environment_spawns_durable_groups_that_rejoin() {
        use fsm_dfsm::Event;
        let env = OsEnvironment::seeded(1);
        let machines = fsm_machines::fig1_machines();
        let mut group = env.spawn_group(&machines, &GroupConfig::new().durable());
        group.apply_event(&Event::new("0"));
        group.apply_event(&Event::new("1"));
        group.kill_process(0);
        let stats = group.restart_process(0).expect("durable group restarts");
        assert_eq!(stats.acked_seq, 2);
        // A durable server snapshots at the group seq.
        group.resync(0, 5, fsm_dfsm::StateId(1)).unwrap();
        // A plain group spawned by the same environment cannot restart.
        let mut plain = env.spawn_group(&machines, &GroupConfig::new());
        plain.kill_process(1);
        assert!(matches!(
            plain.restart_process(1),
            Err(crate::DistsysError::NotDurable { server: 1 })
        ));
        // The environment exposes the store both groups live in.
        assert!(crate::storage::with_store(&env.store(), |_| Ok(())).is_ok());
    }

    #[test]
    fn os_environment_clock_and_rng() {
        let env = OsEnvironment::seeded(42);
        assert_eq!(env.name(), "os");
        let t0 = env.now();
        // The seeded generator matches a bare SimRng with the same seed.
        let mut reference = SimRng::new(42);
        assert_eq!(env.next_u64(), reference.next_u64());
        assert_eq!(env.next_u64(), reference.next_u64());
        let s = env.seeded();
        assert_eq!(s, Seeded(reference.next_u64()));
        assert!(env.now() >= t0);
    }
}
