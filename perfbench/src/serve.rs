//! `serve-steady` and `serve-rejoin`: the paper's sensor network served in
//! an open loop.
//!
//! Four mod-3 sensors and one fused backup run as five servers on their own
//! threads.  A run first measures how fast its group drains: bursts of
//! events pushed at once and applied by every server.  The open loop then
//! offers a fixed share of that capacity: one generator thread `try_push`es
//! a seeded observation stream into an [`IngestPipeline`] at each event's
//! due time, and the driving thread (this thread) pumps the pipeline and
//! floats *marker* report rounds.  Commands reach each server in FIFO order,
//! so once every live server answers a marker requested after `k` events
//! were flushed, all of those events have been applied.  An event's latency
//! runs from its due time to the first such marker.  Marker replies, at
//! least one every [`CHECK_GAP`] events and the last, are checked against
//! an [`Executor`] replay of the same stream after the run.
//!
//! `serve-steady` offers a quarter of its plain group's capacity, then walks
//! a fixed ladder of rates.  `serve-rejoin` offers a third of its durable
//! group's capacity (WAL and snapshots in a [`MemStore`]) and kills servers
//! at seed-derived positions; the benchmark rejoins them itself, alternating
//! log replay (`restart_process` + `mark_up_replay`) and peer decode
//! (`try_collect_reports` → `FusedSystem::recover_external` → `resync` +
//! `mark_up_current`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fsm_dfsm::{Dfsm, Event, Executor, StateId};
use fsm_distsys::{
    shared, DurabilityConfig, DurableServer, FusedSystem, GroupConfig, IngestConfig,
    IngestPipeline, MemStore, OsClock, ParallelServerGroup, ReplayStats, Result, Seeded,
    SensorNetwork, Server, ServerGroup,
};
use fsm_fusion_core::{Engine, FaultModel, FusionConfig, MachineReport};

use crate::report::{
    cpu_jiffies, least_stolen, median, nproc, peak_rss_mb, percentile, rss_mb, steal_share,
    timed_setup, Hist, Outcome,
};
use crate::trace::{self, Layer, Trace};

/// Sensors in the scenario; with the fused backup, five servers.
const SENSORS: usize = 4;
/// `serve-steady`'s ladder of offered rates, in events per second.
pub const LADDER: [f64; 7] = [
    25_000.0,
    50_000.0,
    100_000.0,
    200_000.0,
    400_000.0,
    800_000.0,
    1_600_000.0,
];
/// The nominal rate of `serve-steady`, as a share of the drain capacity the
/// same run measures.  At this share a 256-event batch fills in well under
/// the 2 ms flush interval, so batches flush on size and the latency is set
/// by the program's own costs: the batch fill time (the rate follows the
/// capacity), queueing, dispatch and the DFSM step.  A layer that makes the
/// group drain 20% slower lowers the rate with it and raises the latency by
/// a quarter or more.  The share stays below the rate the open loop
/// sustains on a 2-vCPU host (the ladder finds about a third of capacity).
const STEADY_SHARE: f64 = 0.25;
/// The same share for `serve-rejoin`'s durable group, which drains about a
/// quarter as fast: at this share its batches still mostly flush on size,
/// and a host that turns slow in mid-run does not overload it.
const REJOIN_SHARE: f64 = 0.35;
/// A ladder step is sustained only if its p99 latency stays under this.
const P99_LIMIT_US: f64 = 10_000.0;
/// ... and the generator's p99 lateness stays under this.
const LAG_LIMIT_US: f64 = 2_000.0;
/// The nominal step is cut into windows of this many seconds.  Windows
/// in which the host stole more than [`crate::report::QUIET_STEAL`] of the
/// machine's CPU time are left out (the [`QUIET_MIN`] least stolen always
/// stay).  The end-to-end p50 pools the kept windows' events, and the p99
/// is the lower quartile of their p99s: a stall on the host only ever adds
/// latency, so one moves one window, not the figure, and the quieter
/// windows tell the program's own tail best.
const WINDOW_S: f64 = 0.02;
/// Fewest latency windows kept.
const QUIET_MIN: usize = 25;
/// Interval between host CPU-time readings, in ns (the kernel counts CPU
/// time in 10 ms ticks).
const STEAL_MARK_NS: u64 = 10_000_000;
/// A window's steal is read up to this long past its last due time, while
/// its last events are still being applied.
const WINDOW_TAIL_NS: u64 = 5_000_000;
/// Unmeasured warm-up at the nominal rate before the measured steps.
const WARMUP_S: f64 = 0.4;
/// Events a killed server stays down for before the benchmark rejoins it.
const DOWN_EVENTS: usize = 2_000;
/// Drain bursts that measure the capacity, and events per burst.  The
/// capacity is the upper quartile of the bursts the host stole least from
/// (at least [`QUIET_BURSTS`]): the host only ever slows a burst down, so
/// the fast ones tell the program's speed best.
const BURSTS: usize = 16;
const BURST_EVENTS: usize = 100_000;
const QUIET_BURSTS: usize = 4;
/// Events are drawn from the seed this many at a time, so the stream is
/// never held whole.
const CHUNK: usize = 4_096;
/// A marker's replies are checked when it covers at least this many events
/// more than the last checked one.
const CHECK_GAP: usize = 1_024;
/// How long an idle driving thread waits for a reply before pumping again.
const IDLE_WAIT: Duration = Duration::from_micros(50);
/// Most markers in flight at once.
const MAX_MARKERS: usize = 8;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 41;
/// Give up waiting for servers after this long (a wedged run fails its
/// checks instead of hanging).
const WAIT_LIMIT: Duration = Duration::from_secs(20);

/// The seeded observation stream (sensor indices), drawn chunk by chunk:
/// every `Stream::new(seed)` yields the same sequence.
struct Stream {
    seed: Seeded,
    chunk: u64,
    buf: Vec<usize>,
    pos: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            seed: Seeded(seed).split(0),
            chunk: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self) -> usize {
        if self.pos == self.buf.len() {
            self.buf = self.seed.split(self.chunk).observations(SENSORS, CHUNK);
            self.chunk += 1;
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

/// The events the sensors observe, by index.
fn sensor_events() -> Vec<Event> {
    (0..SENSORS)
        .map(|i| Event::new(format!("sensor{i}")))
        .collect()
}

/// One rate step of the open loop: events `first..first + count`, the
/// first due `start_ns` after the loop starts.
#[derive(Debug, Clone)]
struct Step {
    rate: f64,
    first: usize,
    count: usize,
    start_ns: u64,
    measured: bool,
}

impl Step {
    fn end(&self) -> usize {
        self.first + self.count
    }

    /// Due offset of event `j` from the loop start, in ns.
    fn due_ns(&self, j: usize) -> u64 {
        self.start_ns + ((j - self.first) as f64 * 1e9 / self.rate) as u64
    }
}

/// A planned kill: when `at` events have been flushed, kill `victim`; it
/// rejoins by peer decode if `decode`, else by log replay.
#[derive(Debug, Clone, Copy)]
struct KillPlan {
    at: usize,
    victim: usize,
    decode: bool,
}

/// The open loop a run offers, once its capacity is known.
struct Plan {
    steps: Vec<Step>,
    nominal_step: usize,
    kills: Vec<KillPlan>,
}

impl Plan {
    /// `serve-steady`: warm-up, the nominal step, then the rate ladder.
    fn steady(seconds: f64, nominal: f64, first: usize) -> Plan {
        // A few tenths of a second per ladder step find the sustained rate;
        // the nominal step gets most of the run, for its latency windows.
        let step_s = (seconds * 0.04).min(0.3);
        let mut rates = vec![(nominal, WARMUP_S, false), (nominal, seconds * 0.6, true)];
        rates.extend(LADDER.iter().map(|&rate| (rate, step_s, true)));
        Plan::from_rates(&rates, first)
    }

    /// `serve-rejoin`: warm-up, then the nominal step with seed-derived
    /// kills.
    fn rejoin(seconds: f64, nominal: f64, first: usize, seed: u64) -> Plan {
        let main_s = (seconds * 0.7 - WARMUP_S).max(0.5);
        let mut plan = Plan::from_rates(
            &[(nominal, WARMUP_S, false), (nominal, main_s, true)],
            first,
        );
        // One kill per second of the main step, at a seed-derived point in
        // the first half of its second so the rejoin finishes inside it.
        let main = plan.steps[1].clone();
        let per_kill = (nominal as usize).max(2 * DOWN_EVENTS);
        let kills = (main.count / per_kill).max(1);
        let victims = Seeded(seed).split(1).observations(SENSORS + 1, kills);
        let offsets = Seeded(seed).split(2).observations(per_kill / 2, kills);
        plan.kills = (0..kills)
            .map(|k| KillPlan {
                at: main.first + k * per_kill + offsets[k],
                victim: victims[k],
                decode: k % 2 == 1,
            })
            .collect();
        plan
    }

    fn from_rates(rates: &[(f64, f64, bool)], mut first: usize) -> Plan {
        let mut steps = Vec::new();
        let mut start_ns = 0f64;
        for &(rate, secs, measured) in rates {
            let count = ((rate * secs) as usize).max(1);
            steps.push(Step {
                rate,
                first,
                count,
                start_ns: start_ns as u64,
                measured,
            });
            first += count;
            start_ns += count as f64 * 1e9 / rate;
        }
        Plan {
            steps,
            nominal_step: 1,
            kills: Vec::new(),
        }
    }

    fn open(&self) -> std::ops::Range<usize> {
        self.steps[0].first..self.steps.last().expect("a step").end()
    }

    fn last_due_ns(&self) -> u64 {
        let last = self.steps.last().expect("a step");
        last.due_ns(last.end() - 1)
    }
}

/// The benchmark-side timing decorator around the public [`ServerGroup`]
/// trait: every call the pipeline or the rejoin logic makes into the group
/// is one traced span.
pub struct Timed {
    inner: ParallelServerGroup,
}

impl ServerGroup for Timed {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn apply_event(&mut self, event: &Event) {
        ServerGroup::apply_event(&mut self.inner, event)
    }
    fn apply_event_to(&mut self, i: usize, event: &Event) {
        ServerGroup::apply_event_to(&mut self.inner, i, event)
    }
    fn apply_batch(&mut self, events: &[Event]) {
        trace::span(Layer::ParallelDispatch, || {
            ServerGroup::apply_batch(&mut self.inner, events)
        })
    }
    fn apply_batch_to(&mut self, i: usize, events: &[Event]) {
        trace::span(Layer::ParallelDispatch, || {
            ServerGroup::apply_batch_to(&mut self.inner, i, events)
        })
    }
    fn crash(&mut self, i: usize) {
        ServerGroup::crash(&mut self.inner, i)
    }
    fn corrupt(&mut self, i: usize, state: StateId) {
        ServerGroup::corrupt(&mut self.inner, i, state)
    }
    fn restore(&mut self, i: usize, state: StateId) {
        ServerGroup::restore(&mut self.inner, i, state)
    }
    fn kill_process(&mut self, i: usize) {
        ServerGroup::kill_process(&mut self.inner, i)
    }
    fn restart_process(&mut self, i: usize) -> Result<ReplayStats> {
        trace::span(Layer::RecoveryRestart, || {
            ServerGroup::restart_process(&mut self.inner, i)
        })
    }
    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> Result<()> {
        trace::span(Layer::RecoveryResync, || {
            ServerGroup::resync(&mut self.inner, i, seq, state)
        })
    }
    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>> {
        trace::span(Layer::ParallelCollect, || {
            ServerGroup::try_collect_reports(&mut self.inner)
        })
    }
    fn shutdown(self: Box<Self>) -> Vec<Server> {
        self.inner.shutdown()
    }
}

/// What the serving program sets up before it can take traffic: the
/// group's machines (fused on `serve-rejoin`), its server threads and the
/// pipeline in front of them.
struct Setup {
    machines: Vec<Dfsm>,
    fused: Option<FusedSystem>,
    group: Timed,
    pipeline: IngestPipeline,
}

fn ingest_config() -> IngestConfig {
    IngestConfig::new()
        .queue_cap(1 << 20)
        .batch_max(256)
        .flush_interval(Duration::from_millis(2))
        // The benchmark rejoins servers itself: the backoff probe never
        // fires, so no timer sets the measured rejoin time.
        .retry_base(Duration::from_secs(3_600))
        .retry_cap(Duration::from_secs(3_600))
        .divert_cap(1 << 16)
}

fn group_config() -> GroupConfig {
    GroupConfig::new()
        .report_poll(Duration::from_millis(1))
        .collect_timeout(Duration::from_secs(10))
}

fn set_up(durable: bool) -> Setup {
    let sensors = SensorNetwork::sensor_machines(SENSORS);
    let (machines, fused) = if durable {
        let mut session = FusionConfig::new().engine(Engine::Sequential).build();
        let fused = FusedSystem::with_session(&sensors, 1, FaultModel::Crash, &mut session)
            .expect("the sensor network fuses");
        (fused.all_machines(), Some(fused))
    } else {
        let mut machines = sensors;
        machines.push(SensorNetwork::analytic_backup_machine(SENSORS));
        (machines, None)
    };
    let inner = if durable {
        ParallelServerGroup::spawn_durable(
            &machines,
            &group_config(),
            OsClock::new(),
            shared(MemStore::new()),
            "bench",
            DurabilityConfig::new().snapshot_every(1024),
        )
        .expect("a MemStore-backed group spawns")
    } else {
        ParallelServerGroup::spawn_with(&machines, &group_config())
    };
    let mut group = Timed { inner };
    // One report round: every server thread is up and answering.
    let first = ServerGroup::try_collect_reports(&mut group);
    assert!(first.iter().all(Option::is_some), "every server answers");
    let pipeline = IngestPipeline::new(1, machines.len(), &ingest_config());
    Setup {
        machines,
        fused,
        group,
        pipeline,
    }
}

/// A marker report round in flight.
struct Marker {
    generation: u64,
    /// Events flushed when the round was requested.
    k: usize,
    /// Live servers that must answer.
    need: usize,
    got: usize,
    sent_ns: u64,
    /// Whether its replies go to the checks.
    checked: bool,
    /// The rejoin whose victim's answer closes it, if any.
    rejoin: Option<usize>,
}

/// A state observed after the first `k` events of the stream, checked
/// against the replay after the run (`u32::MAX` when the machine reported
/// no state).
#[derive(Debug, Clone, Copy)]
struct Check {
    k: usize,
    machine: u32,
    state: u32,
}

/// One rejoin the benchmark drove.
struct Rejoin {
    victim: usize,
    decode: bool,
    start_ns: u64,
    done_ns: Option<u64>,
}

/// Latencies of one step's events.
#[derive(Default)]
struct StepLatency {
    all: Hist,
    /// The step's first and last tenth: a growing backlog shows as the
    /// latency climbing between them.
    head: Hist,
    tail: Hist,
    /// Latency of the step's last event.
    last_ns: u64,
}

/// The driving thread's state: the group, the pipeline and every marker,
/// latency and check it accounts for.
struct Driver {
    group: Timed,
    pipeline: IngestPipeline,
    clock: OsClock,
    steps: Vec<Step>,
    nominal_step: usize,
    window_len: usize,
    loop_start_ns: u64,
    up: Vec<bool>,
    markers: VecDeque<Marker>,
    last_marked: usize,
    last_checked: usize,
    /// Every event below this index is applied by every live server.
    completed: usize,
    /// Step holding event `completed` (latencies are recorded in order).
    step_cursor: usize,
    latency: Vec<StepLatency>,
    /// The nominal step's latencies per [`WINDOW_S`] window.
    windows: Vec<Hist>,
    marker_rtt: Hist,
    checks: Vec<Check>,
    rejoins: Vec<Rejoin>,
    frames_replayed: Vec<usize>,
    pumps: u64,
    idle_pumps: u64,
    /// Traced runs: pump self time plus dispatch of every pump that flushed
    /// nominal-step events, weighted by those events, and the events.
    flush_cost: (f64, u64),
    /// A wait for the servers timed out: stop waiting on them.
    wedged: bool,
    /// Host CPU-time readings `(ns since loop start, (steal, total))`.
    steal_marks: Vec<(u64, (u64, u64))>,
    out: Outcome,
}

impl Driver {
    fn now_ns(&self) -> u64 {
        self.clock.now().as_nanos() as u64
    }

    fn flushed(&self) -> usize {
        self.pipeline.metrics().flushed_events as usize
    }

    /// Reads the host's CPU-time counters every [`STEAL_MARK_NS`].
    fn mark_steal(&mut self) {
        let t = self.now_ns().saturating_sub(self.loop_start_ns);
        if self
            .steal_marks
            .last()
            .is_none_or(|&(last, _)| t >= last + STEAL_MARK_NS)
        {
            self.steal_marks.push((t, cpu_jiffies()));
        }
    }

    /// One aggregator pump; floats a marker behind newly flushed events.
    /// Returns whether the pump drained anything.
    fn pump(&mut self) -> bool {
        let flushed = self.flushed();
        let before = flushed + self.pipeline.pending_len();
        let cost = || {
            trace::current(Layer::IngestPump).self_ns
                + trace::current(Layer::ParallelDispatch).total_ns
        };
        let cost_before = if trace::enabled() { cost() } else { 0 };
        let now = self.clock.now();
        let (pipeline, group) = (&mut self.pipeline, &mut self.group);
        trace::span(Layer::IngestPump, || pipeline.pump(group, now));
        let moved = self.flushed() + self.pipeline.pending_len() != before;
        let nominal = self.steps.get(self.nominal_step);
        if trace::enabled() && nominal.is_some_and(|s| (s.first..s.end()).contains(&flushed)) {
            let n = (self.flushed() - flushed) as u64;
            self.flush_cost.0 += (cost() - cost_before) as f64 * n as f64;
            self.flush_cost.1 += n;
        }
        self.pumps += 1;
        if !moved {
            self.idle_pumps += 1;
        }
        if self.flushed() > self.last_marked && self.markers.len() < MAX_MARKERS {
            self.send_marker(None);
        }
        moved
    }

    fn send_marker(&mut self, rejoin: Option<usize>) {
        let k = self.flushed();
        let need = self.up.iter().filter(|u| **u).count();
        let checked =
            rejoin.is_some() || k >= self.last_checked + CHECK_GAP || k == self.open_end();
        if checked {
            self.last_checked = k;
        }
        let sent_ns = self.now_ns();
        let inner = &self.group.inner;
        let generation = trace::span(Layer::ParallelMarker, || inner.request_reports());
        self.markers.push_back(Marker {
            generation,
            k,
            need,
            got: 0,
            sent_ns,
            checked,
            rejoin,
        });
        self.last_marked = k;
    }

    fn open_end(&self) -> usize {
        self.steps.last().map_or(0, Step::end)
    }

    /// Handles every reply already waiting; returns whether there was one.
    fn poll(&mut self) -> bool {
        let mut any = false;
        loop {
            let inner = &self.group.inner;
            let Some(reply) = trace::span(Layer::ParallelReply, || inner.try_recv_report()) else {
                return any;
            };
            self.on_reply(reply);
            any = true;
        }
    }

    fn on_reply(&mut self, (server, generation, report): (usize, u64, MachineReport)) {
        let now = self.now_ns();
        let Some(m) = self.markers.iter_mut().find(|m| m.generation == generation) else {
            return; // a round another collection superseded
        };
        m.got += 1;
        let (k, checked, rejoin) = (m.k, m.checked, m.rejoin);
        if checked {
            self.checks.push(Check {
                k,
                machine: server as u32,
                state: match report {
                    MachineReport::State(s) => s as u32,
                    MachineReport::Crashed => u32::MAX,
                },
            });
        }
        if let Some(r) = rejoin {
            if self.rejoins[r].victim == server {
                self.rejoins[r].done_ns = Some(now);
            }
        }
        while self.markers.front().is_some_and(|m| m.got >= m.need) {
            let m = self.markers.pop_front().expect("front exists");
            self.marker_rtt.record(now.saturating_sub(m.sent_ns));
            self.complete(m.k, now);
        }
    }

    /// Every event below `k` was applied at `now`: records the latencies of
    /// the open-loop events among them.
    fn complete(&mut self, k: usize, now: u64) {
        let Some(open) = self.steps.first().map(|s| s.first) else {
            self.completed = self.completed.max(k);
            return; // the capacity bursts, before the open loop
        };
        let from = self.completed.max(open);
        let to = k.min(self.open_end());
        for j in from..to {
            while j >= self.steps[self.step_cursor].end() {
                self.step_cursor += 1;
            }
            let s = self.step_cursor;
            let step = &self.steps[s];
            let lat = now.saturating_sub(self.loop_start_ns + step.due_ns(j));
            let i = j - step.first;
            let tenth = (step.count / 10).max(1);
            let l = &mut self.latency[s];
            l.all.record(lat);
            if i < tenth {
                l.head.record(lat);
            }
            if i >= step.count.saturating_sub(tenth) {
                l.tail.record(lat);
            }
            if i + 1 == step.count {
                l.last_ns = lat;
            }
            if s == self.nominal_step {
                if let Some(w) = self.windows.get_mut(i / self.window_len) {
                    w.record(lat);
                }
            }
        }
        self.completed = self.completed.max(k);
    }

    /// Waits up to [`IDLE_WAIT`] for a marker reply instead of spinning, so
    /// an idle driving thread leaves both cores to the servers and the
    /// generator; a reply ends the wait at once.
    fn idle_wait(&mut self) {
        if let Some(reply) = self.group.inner.recv_report_timeout(IDLE_WAIT) {
            self.on_reply(reply);
        }
    }

    /// Blocks until every marker in flight completes (false on timeout,
    /// after which the run counts as wedged and stops waiting).
    fn wait_markers(&mut self) -> bool {
        let deadline = Instant::now() + WAIT_LIMIT;
        while !self.markers.is_empty() {
            if self.wedged || Instant::now() > deadline {
                self.wedged = true;
                return false;
            }
            if let Some(reply) = self
                .group
                .inner
                .recv_report_timeout(Duration::from_millis(1))
            {
                self.on_reply(reply);
            }
        }
        true
    }

    /// Kills `victim` through the pipeline; returns the events it acked.
    fn kill(&mut self, victim: usize) -> usize {
        let now = self.clock.now();
        let (pipeline, group) = (&mut self.pipeline, &mut self.group);
        trace::span(Layer::IngestKill, || {
            pipeline.kill_server(group, victim, now)
        });
        self.up[victim] = false;
        self.flushed()
    }

    /// Restarts `victim` from its WAL and checks that no acked event was
    /// lost.
    fn restart(&mut self, victim: usize, acked: usize) {
        match self.group.restart_process(victim) {
            Ok(stats) => {
                self.frames_replayed.push(stats.frames_replayed);
                self.out.check(stats.acked_seq as usize == acked);
                self.checks.push(Check {
                    k: acked,
                    machine: victim as u32,
                    state: stats.state.index() as u32,
                });
            }
            Err(_) => self.out.check(false),
        }
    }

    /// Brings `kill.victim` back, by peer decode or by log replay, and
    /// floats the marker whose answer from the victim ends the rejoin.
    fn rejoin(&mut self, kill: KillPlan, acked: usize, fused: &mut Option<FusedSystem>) {
        let v = kill.victim;
        let start_ns = self.now_ns();
        let id = self.rejoins.len();
        self.rejoins.push(Rejoin {
            victim: v,
            decode: kill.decode,
            start_ns,
            done_ns: None,
        });
        if kill.decode {
            // A collection discards replies to older rounds: settle them.
            let settled = self.wait_markers();
            self.out.check(settled);
            let k = self.flushed();
            let partial = self.group.try_collect_reports();
            self.out.check(
                partial
                    .iter()
                    .enumerate()
                    .all(|(i, r)| r.is_none() == (i == v)),
            );
            let reports: Vec<MachineReport> = partial
                .into_iter()
                .map(|r| r.unwrap_or(MachineReport::Crashed))
                .collect();
            let fused = fused
                .as_mut()
                .expect("serve-rejoin builds the fused system");
            let decoded = trace::span(Layer::SystemDecode, || fused.recover_external(&reports));
            let state = match decoded {
                Ok(rec) => {
                    for (i, s) in rec.states.iter().enumerate() {
                        self.checks.push(Check {
                            k,
                            machine: i as u32,
                            state: s.index() as u32,
                        });
                    }
                    rec.states[v]
                }
                Err(_) => {
                    self.out.check(false);
                    StateId(0)
                }
            };
            self.restart(v, acked);
            let resynced = self.group.resync(v, k as u64, state);
            self.out.check(resynced.is_ok());
            self.out
                .check(self.pipeline.mark_up_current(v) == k - acked);
        } else {
            self.restart(v, acked);
            let k = self.flushed();
            let (pipeline, group) = (&mut self.pipeline, &mut self.group);
            let replayed = trace::span(Layer::IngestBacklogReplay, || {
                pipeline.mark_up_replay(group, v)
            });
            self.out.check(matches!(replayed, Ok(n) if n == k - acked));
        }
        self.up[v] = true;
        self.send_marker(Some(id));
    }

    /// Pushes the stream's next [`BURST_EVENTS`] events at once, drains
    /// them and waits until every server applied them; returns events
    /// applied per second.
    fn burst(&mut self, stream: &mut Stream, names: &[Event]) -> f64 {
        let start = Instant::now();
        let handle = self.pipeline.client(0);
        let now = self.clock.now();
        for _ in 0..BURST_EVENTS {
            let e = names[stream.next()].clone();
            if handle.try_push(e.clone(), now).is_err() {
                self.out.failed += 1;
                self.pipeline.push(&mut self.group, 0, e, now);
            }
        }
        let now = self.clock.now();
        let (pipeline, group) = (&mut self.pipeline, &mut self.group);
        trace::span(Layer::IngestPump, || pipeline.drain(group, now));
        self.send_marker(None);
        let settled = self.wait_markers();
        self.out.check(settled);
        BURST_EVENTS as f64 / start.elapsed().as_secs_f64()
    }
}

/// What the generator thread hands back.
struct Generated {
    /// How late each step's pushes ran, in ns.
    lag: Vec<Hist>,
    refused: u64,
    trace: Trace,
}

/// The generator thread: pushes events `open` of the stream, each at its
/// due time (stamped with it), and records how late it ran.
fn generate(
    handle: fsm_distsys::ClientHandle,
    mut stream: Stream,
    steps: &[Step],
    loop_start_ns: u64,
    clock: OsClock,
    done: &AtomicBool,
) -> Generated {
    let names = sensor_events();
    let mut lag: Vec<Hist> = steps.iter().map(|_| Hist::default()).collect();
    let mut refused = 0;
    for (s, step) in steps.iter().enumerate() {
        let mut j = step.first;
        while j < step.end() {
            let mut now = clock.now().as_nanos() as u64;
            while j < step.end() && loop_start_ns + step.due_ns(j) <= now {
                let due = loop_start_ns + step.due_ns(j);
                let at = Duration::from_nanos(due);
                let e = names[stream.next()].clone();
                let pushed = trace::span(Layer::IngestPush, || handle.try_push(e.clone(), at));
                if pushed.is_err() {
                    refused += 1;
                    handle.push_blocking(e, at);
                }
                lag[s].record(now - due);
                j += 1;
                now = clock.now().as_nanos() as u64;
            }
            if j < step.end() {
                let wait = (loop_start_ns + step.due_ns(j)).saturating_sub(now);
                std::thread::sleep(Duration::from_nanos(wait.min(1_000_000)));
            }
        }
    }
    done.store(true, Ordering::Release);
    Generated {
        lag,
        refused,
        trace: trace::take(),
    }
}

/// Replays the stream through an [`Executor`] per machine and checks every
/// recorded observation against it; returns ns per machine step.
fn verify(seed: u64, machines: &[Dfsm], checks: &mut [Check], out: &mut Outcome) -> f64 {
    checks.sort_by_key(|c| c.k);
    let names = sensor_events();
    let mut stream = Stream::new(seed);
    let mut executors: Vec<Executor> = machines.iter().map(|m| Executor::new(m.clone())).collect();
    let mut at = 0;
    let start = Instant::now();
    for c in checks.iter() {
        while at < c.k {
            let e = &names[stream.next()];
            for x in &mut executors {
                x.apply(e);
            }
            at += 1;
        }
        let state = executors
            .get(c.machine as usize)
            .map(|x| x.current().index() as u32);
        out.check(state == Some(c.state));
    }
    start.elapsed().as_nanos() as f64 / (at.max(1) * machines.len()) as f64
}

/// Machine `m`'s state after the first `k` events of the stream.
fn replay_state(seed: u64, machine: &Dfsm, k: usize) -> StateId {
    let names = sensor_events();
    let mut stream = Stream::new(seed);
    let mut ex = Executor::new(machine.clone());
    for _ in 0..k {
        ex.apply(&names[stream.next()]);
    }
    ex.current()
}

/// Runs `serve-steady`, or `serve-rejoin` when `rejoin` is set.
pub fn run(rejoin: bool, seed: u64, seconds: f64, traced: bool, plant: bool) -> Outcome {
    let (setup, setup_s) = timed_setup(SETUP_REPS, || set_up(rejoin));
    let Setup {
        machines,
        mut fused,
        group,
        pipeline,
    } = setup;
    let servers = machines.len();
    let names = sensor_events();
    let mut stream = Stream::new(seed);
    let clock = OsClock::new();
    // Every buffer the harness keeps is allocated before the resident-set
    // reading below, and none grows with the run: the growth past it is the
    // serving path's own.
    let windows = (seconds * 0.7 / WINDOW_S) as usize + 1;
    let mut d = Driver {
        group,
        pipeline,
        clock,
        steps: Vec::new(),
        nominal_step: 0,
        window_len: 1,
        loop_start_ns: 0,
        up: vec![true; servers],
        markers: VecDeque::new(),
        last_marked: 0,
        last_checked: 0,
        completed: 0,
        step_cursor: 0,
        latency: (0..2 + LADDER.len())
            .map(|_| StepLatency::default())
            .collect(),
        windows: (0..windows).map(|_| Hist::default()).collect(),
        marker_rtt: Hist::default(),
        checks: Vec::with_capacity(1 << 16),
        rejoins: Vec::new(),
        frames_replayed: Vec::new(),
        pumps: 0,
        idle_pumps: 0,
        flush_cost: (0.0, 0),
        wedged: false,
        steal_marks: Vec::with_capacity(1 << 12),
        out: Outcome::default(),
    };
    let base_rss = rss_mb();

    // Capacity: drain bursts, alternately traced when tracing, so the
    // traced run measures its own overhead.
    let mut plain_caps = Vec::new();
    let mut traced_caps = Vec::new();
    for b in 0..BURSTS {
        let on = traced && b % 2 == 0;
        trace::set_enabled(on);
        let jiffies = cpu_jiffies();
        let cap = d.burst(&mut stream, &names);
        if on {
            traced_caps.push(cap);
        } else {
            plain_caps.push((cap, steal_share(jiffies, cpu_jiffies())));
        }
    }
    trace::set_enabled(traced);
    let mut burst_caps: Vec<f64> = plain_caps.iter().map(|&(cap, _)| cap).collect();
    let mut quiet_caps = least_stolen(plain_caps, QUIET_BURSTS);
    quiet_caps.sort_by(f64::total_cmp);
    let capacity = quiet_caps[quiet_caps.len() * 3 / 4];
    let nominal = capacity * if rejoin { REJOIN_SHARE } else { STEADY_SHARE };
    let first = d.flushed();
    let plan = if rejoin {
        Plan::rejoin(seconds, nominal, first, seed)
    } else {
        Plan::steady(seconds, nominal, first)
    };
    let open = plan.open();
    d.steps = plan.steps.clone();
    d.nominal_step = plan.nominal_step;
    d.window_len = ((nominal * WINDOW_S) as usize).max(1);
    d.completed = first;
    // Queue waits of the open loop only (the bursts' are not an event's).
    d.pipeline.take_latency_samples();
    d.loop_start_ns = clock.now().as_nanos() as u64 + 1_000_000;
    let loop_start_ns = d.loop_start_ns;
    let done = AtomicBool::new(false);
    let mut driver_trace = Trace::default();
    let generated = std::thread::scope(|scope| {
        let handle = d.pipeline.client(0);
        let (steps, done) = (&plan.steps, &done);
        let generator =
            scope.spawn(move || generate(handle, stream, steps, loop_start_ns, clock, done));

        let plant_at = plan.steps[plan.nominal_step].first;
        let mut planted = !plant;
        let mut next_kill = 0;
        let mut down: Option<(KillPlan, usize)> = None;
        let deadline_ns = loop_start_ns + plan.last_due_ns() + WAIT_LIMIT.as_nanos() as u64;
        trace::span(Layer::ServePhase, || loop {
            d.mark_steal();
            let moved = d.pump();
            let replied = d.poll();
            let f = d.flushed();
            let drained = done.load(Ordering::Acquire)
                && d.pipeline.queued() == 0
                && d.pipeline.pending_len() == 0;
            if !planted && f >= plant_at {
                // A wrong state the checks must catch: server 0 jumps.
                let right = replay_state(seed, &machines[0], f).index();
                let wrong = (right + 1) % machines[0].size();
                d.group.corrupt(0, StateId(wrong));
                planted = true;
            }
            match down {
                Some((kill, acked)) if f >= acked + DOWN_EVENTS || drained => {
                    d.rejoin(kill, acked, &mut fused);
                    down = None;
                }
                None if next_kill < plan.kills.len()
                    && f >= plan.kills[next_kill].at
                    && d.rejoins.last().is_none_or(|r| r.done_ns.is_some()) =>
                {
                    let kill = plan.kills[next_kill];
                    down = Some((kill, d.kill(kill.victim)));
                    next_kill += 1;
                }
                _ => {}
            }
            if drained && down.is_none() && d.completed >= open.end {
                break;
            }
            if d.wedged || d.now_ns() > deadline_ns {
                break; // wedged: the uncompleted events count as lost
            }
            if !moved && !replied {
                d.idle_wait();
            }
        });
        let t = d.now_ns().saturating_sub(loop_start_ns);
        d.steal_marks.push((t, cpu_jiffies()));
        // A generator blocked on a full queue finishes once pumped.
        while !done.load(Ordering::Acquire) {
            d.pump();
            std::thread::yield_now();
        }
        driver_trace = trace::take();
        generator.join().expect("generator thread")
    });
    trace::set_enabled(false);
    let growth_mb = (peak_rss_mb() - base_rss).max(0.0);

    let metrics = d.pipeline.metrics();
    let mut queue_wait_ns = d.pipeline.take_latency_samples();
    let Driver {
        group,
        mut out,
        latency,
        windows,
        window_len,
        marker_rtt,
        mut checks,
        rejoins,
        frames_replayed,
        pumps,
        idle_pumps,
        flush_cost,
        completed,
        steal_marks,
        ..
    } = d;
    ParallelServerGroup::shutdown(group.inner);
    let step_ns = verify(seed, &machines, &mut checks, &mut out);
    out.check(!checks.is_empty() && checks.iter().any(|c| c.k == open.end));

    // Every offered event was accepted and applied by every live server.
    out.attempted += open.end as u64;
    out.failed += generated.refused + open.end.saturating_sub(completed) as u64;

    let mut trace = generated.trace;
    trace.merge(driver_trace);

    // Per-step latency, generator lateness and the sustained rate.
    let mut steps_json = Vec::new();
    let mut sustained = 0.0;
    let mut all_pass = true;
    for (i, step) in plan.steps.iter().enumerate() {
        let l = &latency[i];
        let (p50, p99) = (l.all.percentile(50.0) / 1e3, l.all.percentile(99.0) / 1e3);
        let lag_p99 = generated.lag[i].percentile(99.0) / 1e3;
        if !step.measured {
            continue;
        }
        // Events per second from the step's first due time to its last
        // event's completion.
        let span_ns = (step.due_ns(step.end() - 1) - step.start_ns)
            .saturating_add(l.last_ns)
            .max(1);
        let achieved = step.count as f64 * 1e9 / span_ns as f64;
        // A growing backlog shows as latency climbing across the step.
        let growing = l.tail.percentile(50.0) > l.head.percentile(50.0) + 1e6;
        let pass = p99 <= P99_LIMIT_US && !growing;
        // A step whose generator fell behind offered less than its rate:
        // it neither sustains nor breaks the ladder.
        let offered = lag_p99 <= LAG_LIMIT_US;
        if i != plan.nominal_step && offered {
            all_pass &= pass;
            if all_pass {
                sustained = step.rate;
            }
        }
        steps_json.push(format!(
            "{{\"rate\":{},\"events\":{},\"achieved_per_s\":{achieved},\"p50_us\":{p50},\"p99_us\":{p99},\"lag_p99_us\":{lag_p99},\"offered\":{offered},\"sustained\":{pass}}}",
            step.rate, step.count
        ));
    }

    // The end-to-end latencies: the nominal step's quiet windows.
    let nominal_step = &plan.steps[plan.nominal_step];
    let tagged: Vec<(&Hist, f64)> = windows
        .iter()
        .enumerate()
        .filter(|(_, w)| w.count() > 0)
        .map(|(c, w)| {
            let from = nominal_step.first + c * window_len;
            let to = (from + window_len - 1).min(nominal_step.end() - 1);
            let span = (
                nominal_step.due_ns(from),
                nominal_step.due_ns(to) + WINDOW_TAIL_NS,
            );
            (w, steal_between(&steal_marks, span))
        })
        .collect();
    let window_count = tagged.len();
    let used = least_stolen(tagged, QUIET_MIN);
    let mut pooled = Hist::default();
    for w in &used {
        pooled.merge(w);
    }
    let mut p99s: Vec<f64> = used.iter().map(|w| w.percentile(99.0) / 1e3).collect();
    p99s.sort_by(f64::total_cmp);
    let p50 = pooled.percentile(50.0) / 1e3;
    let p99 = p99s[p99s.len() / 4];

    out.e2e("setup_s", setup_s, "s");
    out.e2e("p50_latency_us", p50, "us");
    out.e2e("p99_latency_us", p99, "us");
    out.e2e("peak_rss_mb", growth_mb, "MiB");

    // Layer costs on an event's blocking path, from the traced spans: its
    // push, the pump that flushed it (self time plus dispatch), one
    // server's step over that batch, the marker request and the replies
    // that complete it.  Against the event's measured latency.
    let nominal_lat = &latency[plan.nominal_step].all;
    let push = trace.get(Layer::IngestPush);
    let pump = trace.get(Layer::IngestPump);
    let durable_ns = rejoin.then(|| durable_probe(&machines[0], seed));
    let server_event_ns = durable_ns.map_or(step_ns, |(_, apply_ns)| apply_ns);
    let batch_events = metrics.flushed_events as f64 / metrics.batches.max(1) as f64;
    let blocking_ns = push.mean_self_ns()
        + flush_cost.0 / flush_cost.1.max(1) as f64
        + batch_events * server_event_ns
        + trace.get(Layer::ParallelMarker).mean_self_ns()
        + servers as f64 * trace.get(Layer::ParallelReply).mean_self_ns();
    let coverage = if flush_cost.1 == 0 {
        0.0
    } else {
        blocking_ns / nominal_lat.mean().max(1.0)
    };
    // Queue-wait samples run in flush order from the open loop's first event.
    let skip = (nominal_step.first - open.start).min(queue_wait_ns.len());
    let take = nominal_step.count.min(queue_wait_ns.len() - skip);
    let nominal_waits = &mut queue_wait_ns[skip..skip + take];
    let wait_share = nominal_waits.iter().map(|&w| w as f64).sum::<f64>()
        / nominal_waits.len().max(1) as f64
        / nominal_lat.mean().max(1.0);
    let queue_wait_us = percentile(nominal_waits, 50.0) as f64 / 1e3;

    out.layer("ingest.push_ns", push.mean_total_ns(), "ns");
    out.layer("ingest.queue_wait_us", queue_wait_us, "us");
    out.layer("ingest.backpressure", generated.refused as f64, "count");
    out.layer("ingest.pump_ns", pump.mean_self_ns(), "ns");
    out.layer(
        "ingest.idle_pump_ratio",
        idle_pumps as f64 / pumps.max(1) as f64,
        "ratio",
    );
    out.layer("ingest.batch_events", batch_events, "count");
    out.layer(
        "ingest.time_flush_ratio",
        metrics.time_flushes as f64 / metrics.batches.max(1) as f64,
        "ratio",
    );
    out.layer(
        "parallel.dispatch_ns",
        trace.get(Layer::ParallelDispatch).mean_total_ns(),
        "ns",
    );
    out.layer("executor.step_ns", step_ns, "ns");
    out.layer(
        "parallel.marker_rtt_us",
        marker_rtt.percentile(50.0) / 1e3,
        "us",
    );
    if let Some((append_ns, apply_ns)) = durable_ns {
        out.layer("wal.append_ns", append_ns, "ns");
        out.layer("durable.apply_ns", apply_ns, "ns");
    }
    out.layer(
        "recovery.restart_ms",
        trace.get(Layer::RecoveryRestart).mean_total_ns() / 1e6,
        "ms",
    );
    out.layer(
        "recovery.frames_replayed",
        frames_replayed.iter().sum::<usize>() as f64 / frames_replayed.len().max(1) as f64,
        "count",
    );
    out.layer(
        "ingest.backlog_replay_ms",
        trace.get(Layer::IngestBacklogReplay).mean_total_ns() / 1e6,
        "ms",
    );
    out.layer("ingest.diverted", metrics.diverted as f64, "count");
    out.layer(
        "parallel.collect_us",
        trace.get(Layer::ParallelCollect).mean_total_ns() / 1e3,
        "us",
    );
    out.layer(
        "system.decode_us",
        trace.get(Layer::SystemDecode).mean_total_ns() / 1e3,
        "us",
    );
    let rejoin_ms = |decode: bool| {
        let mut ms: Vec<f64> = rejoins
            .iter()
            .filter(|r| r.decode == decode)
            .map(|r| match r.done_ns {
                Some(done) => (done - r.start_ns) as f64 / 1e6,
                None => f64::INFINITY,
            })
            .collect();
        median(&mut ms)
    };
    let (replay_ms, decode_ms) = (rejoin_ms(false), rejoin_ms(true));
    out.layer("rejoin.replay_ms", replay_ms, "ms");
    out.layer("rejoin.decode_ms", decode_ms, "ms");
    for r in &rejoins {
        out.check(r.done_ns.is_some());
    }
    if !rejoin {
        out.layer("ladder.sustained_events_per_s", sustained, "1/s");
    }
    out.layer("serve.drain_events_per_s", capacity, "1/s");
    // The generator's lateness over the nominal step, the step the
    // end-to-end latencies come from (per-step lag is on the info line).
    out.layer(
        "loadgen.lag_us",
        generated.lag[plan.nominal_step].percentile(99.0) / 1e3,
        "us",
    );
    out.layer("trace.coverage", coverage, "ratio");
    let overhead = if traced_caps.is_empty() {
        0.0
    } else {
        (median(&mut burst_caps) / median(&mut traced_caps) - 1.0) * 100.0
    };
    out.layer("trace.overhead_pct", overhead, "%");

    let list = |xs: &[f64]| {
        format!(
            "[{}]",
            xs.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    out.info("nproc", nproc().to_string());
    out.info("generator_threads", "1");
    out.info("driver_threads", "1");
    out.info("servers", servers.to_string());
    out.info("durable", rejoin.to_string());
    out.info("burst_events_per_s", list(&burst_caps));
    out.info(
        "nominal_share",
        (if rejoin { REJOIN_SHARE } else { STEADY_SHARE }).to_string(),
    );
    out.info("nominal_events_per_s", format!("{nominal:.0}"));
    if !rejoin {
        out.info("ladder_events_per_s", list(&LADDER));
    }
    out.info("p99_limit_us", P99_LIMIT_US.to_string());
    out.info("latency_samples", pooled.count().to_string());
    out.info("latency_windows", window_count.to_string());
    out.info("quiet_windows", used.len().to_string());
    out.info("steps", format!("[{}]", steps_json.join(",")));
    out.info("sustained_events_per_s", sustained.to_string());
    out.info("queue_wait_share", json_num(wait_share));
    out.info("checked_observations", checks.len().to_string());
    out.info("rss_after_setup_mb", json_num(base_rss));
    out.info("rejoins", rejoins.len().to_string());
    out.info("rejoin_replay_ms", json_num(replay_ms));
    out.info("rejoin_decode_ms", json_num(decode_ms));
    out.info("bursts", BURSTS.to_string());
    out.info("burst_events", BURST_EVENTS.to_string());
    out.spans = trace.spans;
    out
}

/// A finite JSON number, or `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".into()
    }
}

/// Times the durable write path alone: `wal::append` and
/// `DurableServer::apply` over the stream's first events, in ns per call.
fn durable_probe(machine: &Dfsm, seed: u64) -> (f64, f64) {
    const EVENTS: usize = 100_000;
    let names = sensor_events();
    let mut stream = Stream::new(seed);
    let events: Vec<Event> = (0..EVENTS).map(|_| names[stream.next()].clone()).collect();
    let store = shared(MemStore::new());
    let name = fsm_distsys::wal::wal_name("probe");
    let start = Instant::now();
    for (j, e) in events.iter().enumerate() {
        fsm_distsys::wal::append(&store, &name, j as u64 + 1, e).expect("MemStore append");
    }
    let append_ns = start.elapsed().as_nanos() as f64 / EVENTS as f64;
    let mut server = DurableServer::fresh(
        machine.clone(),
        shared(MemStore::new()),
        "probe",
        &DurabilityConfig::new().snapshot_every(1024),
    )
    .expect("fresh durable server");
    let start = Instant::now();
    for e in &events {
        server.apply(e).expect("MemStore apply");
    }
    let apply_ns = start.elapsed().as_nanos() as f64 / EVENTS as f64;
    (append_ns, apply_ns)
}

/// Host steal share over the due-time span `(from, to)` (ns since the loop
/// start), from the readings that bracket it.
fn steal_between(marks: &[(u64, (u64, u64))], (from, to): (u64, u64)) -> f64 {
    let start = marks.iter().rev().find(|&&(t, _)| t <= from);
    let end = marks.iter().find(|&&(t, _)| t >= to);
    match (start, end) {
        (Some(&(_, a)), Some(&(_, b))) => steal_share(a, b),
        _ => 0.0,
    }
}
