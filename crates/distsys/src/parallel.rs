//! Threaded execution of a server group.
//!
//! The paper's servers are independent processes with no shared state that
//! talk only for recovery.  This module runs a group's servers on a few
//! worker threads: `W = min(servers, max(1, cores − 1))` of them, with
//! server `i` on worker `i mod W`.  One core is left to the thread that
//! drives the group (the ingest pipeline and its report markers): the
//! servers are small machines that step an event in nanoseconds, so a
//! group with a worker per core would have its workers and the driver
//! take turns on the same cores, waking each other for every batch.
//! Setting `W` to the number of cores rather than one less raised the
//! serving benchmark's tail latency on a 2-core host.
//!
//! Each worker is a thin transport around `ProcessServer::handle`, the
//! server step the simulator shares.  It takes one `Command` at a time off
//! its `crossbeam-channel` queue, so the commands for one server are
//! applied in the order they were sent:
//!
//! * a broadcast batch, applied to each live server of the worker's shard
//!   in index order;
//! * a report round, answered with **one** message holding the report of
//!   each live server of the shard (the group unpacks it, so its report
//!   markers still yield one `(server, generation, report)` per server);
//! * a command for one server (a batch of its own, a fault, a restore or
//!   a resync), a kill, or a restarted server to host again.
//!
//! Faults stay per server.  A kill takes its server out of the shard once
//! the commands queued before it are applied; a storage failure stops only
//! the server it hit, the way [`ServerGroup::kill_process`] does; and a
//! panic in one server's `handle` is caught and becomes that server's
//! failure alone.  Its shard-mates keep running.  Each server has a
//! liveness flag that its worker clears *before* it sends any answer that
//! follows the server's failure or kill, so a caller holding such an answer
//! also sees the server down.  Reports go to the group's shared report
//! channel; resync answers and kill acknowledgements go to a separate
//! answer channel, so the report stream carries reports only.
//! [`ServerGroup::restart_process`] waits for the kill's acknowledgement,
//! recovers the server from what it persisted, and hands it back to its
//! worker.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use fsm_dfsm::{Dfsm, Event, StateId};
use fsm_fusion_core::MachineReport;

use crate::env::{GroupConfig, OsClock, ServerGroup};
use crate::error::{DistsysError, Result};
use crate::recovery::{DurabilityConfig, DurableServer, ProcessServer, ReplayStats, ServerCommand};
use crate::server::Server;
use crate::storage::SharedStore;

/// Most broadcast batches a group keeps for its sending thread to free.
const SENT_BATCHES: usize = 64;

/// A `(server, generation, report)` reply, as the report markers yield it.
type Reply = (usize, u64, MachineReport);

/// One worker's answer to a report round: the round's generation and the
/// `(server, report)` of each live server of its shard, in index order.
type Round = (u64, Vec<(usize, MachineReport)>);

/// An answer on the answer channel: a resync's outcome or a kill's
/// acknowledgement, tagged with its ticket.
type Answer = (u64, Result<()>);

/// What the group sends a worker.
enum Command {
    /// Apply a broadcast batch to every live server of the shard.
    Batch(Arc<[Event]>),
    /// Answer a report round, under this generation, for the whole shard.
    Report(u64),
    /// A command for one server and the tag its answer carries back: a
    /// resync's ticket, or 0 when no one waits.
    Server(usize, ServerCommand, u64),
    /// Take a server out of the shard (its process is killed) and
    /// acknowledge under this ticket.
    Kill(usize, u64),
    /// Host a restarted server again (boxed: every queued command is as
    /// large as the largest one).
    Adopt(usize, Box<ProcessServer>),
    /// Shut the worker down.
    Stop,
}

/// One server's place on its worker.
enum Slot {
    Live(ProcessServer),
    /// Killed, or stopped by a storage failure: its last value, which
    /// `shutdown` still returns.
    Down(Server),
    /// Panicked in `handle`: it has no value to return.
    Lost,
}

impl Slot {
    /// Takes a live server down, keeping its value.
    fn retire(&mut self) {
        if let Slot::Live(ps) = mem::replace(self, Slot::Lost) {
            *self = Slot::Down(ps.into_server());
        }
    }
}

/// The servers one worker hosts, and where it sends their answers.
struct Shard {
    /// `(server, slot)` in index order.
    members: Vec<(usize, Slot)>,
    /// The group's liveness flags, one per server.
    alive: Arc<[AtomicBool]>,
    reports: Sender<Round>,
    answers: Sender<Answer>,
}

impl Shard {
    /// The loop every worker runs; returns the `(server, value)` of each
    /// server that did not panic once stopped.
    fn run(mut self, rx: Receiver<Command>) -> Vec<(usize, Server)> {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Command::Batch(events) => {
                    for m in 0..self.members.len() {
                        self.handle(m, ServerCommand::Batch(Arc::clone(&events)), 0);
                    }
                }
                Command::Report(generation) => {
                    let mut round = Vec::with_capacity(self.members.len());
                    for m in 0..self.members.len() {
                        if let Some(report) = self.handle(m, ServerCommand::Report, 0) {
                            round.push((self.members[m].0, report));
                        }
                    }
                    let _ = self.reports.send((generation, round));
                }
                Command::Server(i, cmd, tag) => {
                    let m = self.position(i);
                    self.handle(m, cmd, tag);
                }
                Command::Kill(i, ticket) => {
                    let m = self.position(i);
                    self.members[m].1.retire();
                    self.alive[i].store(false, Ordering::Release);
                    let _ = self.answers.send((ticket, Ok(())));
                }
                Command::Adopt(i, ps) => {
                    let m = self.position(i);
                    self.members[m].1 = Slot::Live(*ps);
                }
                Command::Stop => break,
            }
        }
        self.members
            .into_iter()
            .filter_map(|(i, slot)| match slot {
                Slot::Live(ps) => Some((i, ps.into_server())),
                Slot::Down(server) => Some((i, server)),
                Slot::Lost => None,
            })
            .collect()
    }

    fn position(&self, i: usize) -> usize {
        self.members
            .binary_search_by_key(&i, |&(j, _)| j)
            .expect("commands reach the worker hosting their server")
    }

    /// Runs `cmd` on member `m` if it is live, answers under `tag` when it
    /// is nonzero (a down server answers [`DistsysError::ServerDown`]), and
    /// returns the report a [`ServerCommand::Report`] asks for.
    ///
    /// A storage error takes the server down as a kill would; a panic is
    /// caught and takes it down without a value.  Either way its liveness
    /// flag is cleared before the answer is sent.
    fn handle(&mut self, m: usize, cmd: ServerCommand, tag: u64) -> Option<MachineReport> {
        let (i, slot) = &mut self.members[m];
        let i = *i;
        let outcome = match slot {
            Slot::Live(ps) => {
                let outcome = match catch_unwind(AssertUnwindSafe(|| ps.handle(cmd))) {
                    Ok(outcome) => {
                        if outcome.is_err() {
                            slot.retire();
                        }
                        outcome
                    }
                    Err(_panic) => {
                        *slot = Slot::Lost;
                        Err(DistsysError::ServerDown { server: i })
                    }
                };
                if outcome.is_err() {
                    self.alive[i].store(false, Ordering::Release);
                }
                outcome
            }
            _ => Err(DistsysError::ServerDown { server: i }),
        };
        let (answer, report) = match outcome {
            Ok(report) => (Ok(()), report),
            Err(e) => (Err(e), None),
        };
        if tag != 0 {
            let _ = self.answers.send((tag, answer));
        }
        report
    }
}

/// A worker thread: its command queue and, until it is joined, its handle.
struct Worker {
    commands: Sender<Command>,
    join: Option<thread::JoinHandle<Vec<(usize, Server)>>>,
}

/// How many workers a group of `servers` runs on: one per core but one,
/// which is left to the thread driving the group, and no more than there
/// are servers.
fn worker_count(servers: usize) -> usize {
    servers.min(cores().saturating_sub(1).max(1))
}

/// The cores this process may run on, read once per process: the query
/// parses the cgroup's CPU quota from the file system, some 20 µs a call
/// on Linux, a tenth of setting up a small group.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A group of servers on a few worker threads, driven by broadcast event
/// batches.
///
/// Server `i` runs on worker `i mod W`, where `W = min(servers, max(1,
/// cores − 1))` (see the [module docs](self)).  Its face is
/// [`ServerGroup`]; the inherent methods add what only a threaded group
/// has: spawning, and asynchronous report markers
/// ([`ParallelServerGroup::request_reports`]).  Recovery logic is
/// intentionally not duplicated here: callers collect reports with
/// [`ServerGroup::collect_reports`] and feed them to a
/// [`fsm_fusion_core::RecoveryEngine`], then push the corrected states back
/// with [`ServerGroup::restore`].
pub struct ParallelServerGroup {
    workers: Vec<Worker>,
    /// One flag per server: cleared by its worker when the server is
    /// killed, stopped by a storage failure or panics, and set again by a
    /// restart.  Collection stops waiting for servers whose flag is down.
    alive: Arc<[AtomicBool]>,
    reports: Receiver<Round>,
    /// Replies of report rounds already received from the workers but not
    /// yet handed out by the report markers, one per server.
    replies: RefCell<VecDeque<Reply>>,
    /// Resync answers and kill acknowledgements, tagged with their ticket.
    answers: Receiver<Answer>,
    /// The last tag handed out.  Report rounds, resyncs and kills each draw
    /// a fresh one; a reply tagged with an older generation is stale (a
    /// previous collection gave up on it) and is discarded on receipt.
    generation: AtomicU64,
    /// How often collection re-checks the liveness of servers that have not
    /// reported yet (resolved from [`GroupConfig`]).
    report_poll: Duration,
    /// Hard ceiling on one report collection (and on one resync's or
    /// restart's wait): even a worker that is alive but wedged cannot block
    /// the caller past this.  A healthy server that cannot drain its
    /// backlog within the deadline is reported missing, and its late
    /// answer is discarded by the generation filter.  The default is sized
    /// orders of magnitude above any broadcast backlog the workloads here
    /// produce, so only a genuinely wedged worker hits it.
    collect_timeout: Duration,
    /// The environment clock all deadline math goes through — never raw
    /// `Instant::now()`, so the collection logic reads identically to the
    /// virtual-time implementation in the simulator.
    clock: OsClock,
    /// Durable-group info (store, id prefix, knobs, machines); `None` for
    /// plain groups, which cannot restart.
    durable: Option<DurableGroupInfo>,
    /// Which servers' processes were killed (and not yet restarted).
    down: Vec<bool>,
    /// Per server, the ticket of a kill whose acknowledgement has not been
    /// received yet (0 for none).
    kill_acks: Vec<u64>,
    /// Broadcast batches, oldest first, that the sending thread still holds
    /// a reference to.  It drops each once the workers have released theirs,
    /// so the buffer is freed on the thread that allocated it.  Freed on a
    /// worker thread, a small buffer would stay in that thread's allocator
    /// cache (glibc's per-thread tcache), which only that thread reuses: a
    /// megabyte or more of dead buffers across a group fed small batches.
    /// Capped at [`SENT_BATCHES`], so a slow worker's backlog is let go.
    sent: VecDeque<Arc<[Event]>>,
}

/// What a durable group needs to rebuild a killed server from storage.
struct DurableGroupInfo {
    store: SharedStore,
    prefix: String,
    config: DurabilityConfig,
    /// The machines the group runs, by server.
    machines: Vec<Dfsm>,
}

impl DurableGroupInfo {
    fn server_id(&self, i: usize) -> String {
        format!("{}-s{i}", self.prefix)
    }
}

impl ParallelServerGroup {
    /// Spawns a group of the machines with the default [`GroupConfig`].
    pub fn spawn(machines: &[Dfsm]) -> Self {
        Self::spawn_with(machines, &GroupConfig::new())
    }

    /// Spawns a group of the machines with an explicit [`GroupConfig`].
    pub fn spawn_with(machines: &[Dfsm], config: &GroupConfig) -> Self {
        Self::spawn_clocked(machines, config, OsClock::new())
    }

    /// [`ParallelServerGroup::spawn_with`] on a caller-owned clock, so all
    /// groups of one [`OsEnvironment`](crate::OsEnvironment) share its
    /// timeline.
    pub fn spawn_clocked(machines: &[Dfsm], config: &GroupConfig, clock: OsClock) -> Self {
        Self::spawn_plain(machines, config, clock, worker_count(machines.len()))
    }

    /// A plain group on `workers` workers.
    fn spawn_plain(
        machines: &[Dfsm],
        config: &GroupConfig,
        clock: OsClock,
        workers: usize,
    ) -> Self {
        let servers = machines
            .iter()
            .map(|m| ProcessServer::Plain(Server::new(m.clone())))
            .collect();
        Self::spawn_processes(servers, config, clock, None, workers)
    }

    /// Spawns a *durable* group: each server keeps a write-ahead log and
    /// periodic snapshots under `prefix`-derived ids in `store`, and killed
    /// processes can be brought back with
    /// [`ServerGroup::restart_process`].  Any leftover durable state under
    /// the same ids is wiped first (this is a fresh group, not a recovery).
    pub fn spawn_durable(
        machines: &[Dfsm],
        config: &GroupConfig,
        clock: OsClock,
        store: SharedStore,
        prefix: &str,
        durability: DurabilityConfig,
    ) -> Result<Self> {
        let info = DurableGroupInfo {
            store,
            prefix: prefix.to_string(),
            config: durability,
            machines: machines.to_vec(),
        };
        Self::spawn_durable_on(config, clock, info, worker_count(machines.len()))
    }

    /// A durable group of `info`'s machines on `workers` workers.
    fn spawn_durable_on(
        config: &GroupConfig,
        clock: OsClock,
        info: DurableGroupInfo,
        workers: usize,
    ) -> Result<Self> {
        let servers = info
            .machines
            .iter()
            .enumerate()
            .map(|(i, m)| {
                Ok(ProcessServer::Durable(DurableServer::fresh(
                    m.clone(),
                    info.store.clone(),
                    info.server_id(i),
                    &info.config,
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::spawn_processes(
            servers,
            config,
            clock,
            Some(info),
            workers,
        ))
    }

    /// Deals the servers round-robin onto `workers` workers (at most one
    /// per server) and starts them.
    fn spawn_processes(
        servers: Vec<ProcessServer>,
        config: &GroupConfig,
        clock: OsClock,
        durable: Option<DurableGroupInfo>,
        workers: usize,
    ) -> Self {
        let (report_sender, reports) = unbounded();
        let (answer_sender, answers) = unbounded();
        let n = servers.len();
        let w = workers.max(1).min(n);
        let alive: Arc<[AtomicBool]> = (0..n).map(|_| AtomicBool::new(true)).collect();
        let mut shards: Vec<Vec<(usize, Slot)>> = (0..w).map(|_| Vec::new()).collect();
        for (i, ps) in servers.into_iter().enumerate() {
            shards[i % w].push((i, Slot::Live(ps)));
        }
        let workers = shards
            .into_iter()
            .map(|members| {
                let shard = Shard {
                    members,
                    alive: Arc::clone(&alive),
                    reports: report_sender.clone(),
                    answers: answer_sender.clone(),
                };
                let (commands, rx) = unbounded();
                Worker {
                    commands,
                    join: Some(thread::spawn(move || shard.run(rx))),
                }
            })
            .collect();
        ParallelServerGroup {
            workers,
            alive,
            reports,
            replies: RefCell::new(VecDeque::new()),
            answers,
            generation: AtomicU64::new(0),
            report_poll: config.report_poll,
            collect_timeout: config.collect_timeout,
            clock,
            durable,
            down: vec![false; n],
            kill_acks: vec![0; n],
            sent: VecDeque::new(),
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Sends the worker hosting server `i` a command.  A send to a worker
    /// that is gone fails silently: its servers' absence shows when they do
    /// not answer.
    fn send(&self, i: usize, cmd: Command) {
        assert!(i < self.len(), "server {i} of a group of {}", self.len());
        let _ = self.workers[i % self.workers.len()].commands.send(cmd);
    }

    fn next_tag(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn is_alive(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::Acquire)
    }

    /// Posts a report request to every worker under a fresh generation tag
    /// and returns the tag *without waiting* — the asynchronous half of
    /// report collection.  Because each server's commands are applied in
    /// the order they were sent, once every live server has answered this
    /// generation (drain with [`ParallelServerGroup::try_recv_report`] /
    /// [`ParallelServerGroup::recv_report_timeout`]), every command sent
    /// before the request has been applied.  The ingestion benchmark uses
    /// this as a batch marker to measure enqueue-to-apply latency without
    /// blocking the aggregator.
    ///
    /// Do not interleave with [`ServerGroup::collect_reports`]: each call
    /// bumps the shared generation, and a collection discards replies from
    /// older tags as stale.
    pub fn request_reports(&self) -> u64 {
        let generation = self.next_tag();
        for w in &self.workers {
            let _ = w.commands.send(Command::Report(generation));
        }
        generation
    }

    /// Receives one `(server, generation, report)` reply if one is already
    /// waiting (non-blocking half of [`request_reports`]).
    ///
    /// [`request_reports`]: ParallelServerGroup::request_reports
    pub fn try_recv_report(&self) -> Option<(usize, u64, MachineReport)> {
        let mut replies = self.replies.borrow_mut();
        loop {
            if let Some(reply) = replies.pop_front() {
                return Some(reply);
            }
            let round = self.reports.try_recv().ok()?;
            unpack(&mut replies, round);
        }
    }

    /// Receives one `(server, generation, report)` reply, waiting at most
    /// `timeout` for it.
    pub fn recv_report_timeout(&self, timeout: Duration) -> Option<(usize, u64, MachineReport)> {
        let mut replies = self.replies.borrow_mut();
        let deadline = self.clock.now() + timeout;
        loop {
            if let Some(reply) = replies.pop_front() {
                return Some(reply);
            }
            let left = deadline.saturating_sub(self.clock.now());
            let round = self.reports.recv_timeout(left).ok()?;
            unpack(&mut replies, round);
        }
    }

    /// Stops every worker and returns the final `Server` values (for
    /// inspection in tests) in index order.  Servers that panicked have no
    /// final value and are omitted, matching the recoverable-error contract
    /// of [`ServerGroup::collect_reports`] — a caller that handled
    /// [`DistsysError::MissingReports`] can still tear the group down.
    pub fn shutdown(mut self) -> Vec<Server> {
        self.stop_all()
    }

    /// Stops and joins every worker not joined yet, returning the final
    /// `Server` of each server that did not panic, in index order.
    fn stop_all(&mut self) -> Vec<Server> {
        for w in &self.workers {
            let _ = w.commands.send(Command::Stop);
        }
        let mut servers: Vec<(usize, Server)> = self
            .workers
            .iter_mut()
            .filter_map(|w| w.join.take()?.join().ok())
            .flatten()
            .collect();
        servers.sort_unstable_by_key(|&(i, _)| i);
        servers.into_iter().map(|(_, server)| server).collect()
    }

    /// Waits for the answer tagged `ticket` until the collection deadline,
    /// noting the kill acknowledgements that arrive meanwhile.  `None` if
    /// it does not come.
    fn await_answer(&mut self, ticket: u64) -> Option<Result<()>> {
        let deadline = self.clock.now() + self.collect_timeout;
        loop {
            let left = deadline.saturating_sub(self.clock.now());
            let (tag, answer) = self.answers.recv_timeout(left).ok()?;
            if tag == ticket {
                return Some(answer);
            }
            // A kill's acknowledgement, or the answer to an earlier resync
            // that gave up waiting.
            if let Some(ack) = self.kill_acks.iter_mut().find(|t| **t == tag) {
                *ack = 0;
            }
        }
    }
}

/// Queues a worker's report round as one reply per server.
fn unpack(replies: &mut VecDeque<Reply>, (generation, round): Round) {
    replies.extend(round.into_iter().map(|(i, r)| (i, generation, r)));
}

impl ServerGroup for ParallelServerGroup {
    fn len(&self) -> usize {
        ParallelServerGroup::len(self)
    }

    /// Broadcasts a whole batch of events with **one channel send per
    /// worker**: the events are cloned once into a shared `Arc<[Event]>`
    /// and every worker walks the same slice in order for each of its
    /// servers, so each server ends where applying the events one at a
    /// time would leave it.
    fn apply_batch(&mut self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let batch: Arc<[Event]> = Arc::from(events);
        for w in &self.workers {
            let _ = w.commands.send(Command::Batch(Arc::clone(&batch)));
        }
        // Each worker applies its commands in order, so batches are
        // released oldest first.
        while let Some(oldest) = self.sent.front() {
            if self.sent.len() < SENT_BATCHES && Arc::strong_count(oldest) > 1 {
                break;
            }
            self.sent.pop_front();
        }
        self.sent.push_back(batch);
    }

    fn apply_batch_to(&mut self, i: usize, events: &[Event]) {
        if !events.is_empty() {
            self.send(
                i,
                Command::Server(i, ServerCommand::Batch(Arc::from(events)), 0),
            );
        }
    }

    fn crash(&mut self, i: usize) {
        self.send(i, Command::Server(i, ServerCommand::Crash, 0));
    }

    fn corrupt(&mut self, i: usize, state: StateId) {
        self.send(i, Command::Server(i, ServerCommand::Corrupt(state), 0));
    }

    fn restore(&mut self, i: usize, state: StateId) {
        self.send(i, Command::Server(i, ServerCommand::Restore(state), 0));
    }

    /// Kills server `i`'s process (distinct from the modeled crash fault,
    /// which keeps answering): its worker applies the commands queued
    /// before the kill, then takes the server out of its shard, and the
    /// server's reports go missing.  Its shard-mates keep running.
    fn kill_process(&mut self, i: usize) {
        let ticket = self.next_tag();
        self.send(i, Command::Kill(i, ticket));
        self.down[i] = true;
        self.kill_acks[i] = ticket;
    }

    /// Restarts server `i` from durable state once it was killed or a
    /// storage failure or a panic stopped it: waits for the worker to
    /// acknowledge the kill (so the server's last WAL writes are in the
    /// store), runs [`DurableServer::recover`] against the group's store
    /// (snapshot + WAL-suffix replay, torn tail dropped), and hands the
    /// recovered server back to its worker.
    ///
    /// Fails with [`DistsysError::NotDurable`] on plain groups,
    /// [`DistsysError::ServerUp`] if the server is still running (or its
    /// kill is not acknowledged by the collection deadline), and
    /// [`DistsysError::NoSuchServer`] for an out-of-range index.
    fn restart_process(&mut self, i: usize) -> Result<ReplayStats> {
        if i >= self.len() {
            return Err(DistsysError::NoSuchServer {
                server: i,
                count: self.len(),
            });
        }
        if self.durable.is_none() {
            return Err(DistsysError::NotDurable { server: i });
        }
        if !self.down[i] && self.is_alive(i) {
            return Err(DistsysError::ServerUp { server: i });
        }
        let ticket = self.kill_acks[i];
        if ticket != 0 {
            if self.await_answer(ticket).is_none() {
                return Err(DistsysError::ServerUp { server: i });
            }
            self.kill_acks[i] = 0;
        }
        let info = self.durable.as_ref().expect("checked above");
        let (recovered, stats) = DurableServer::recover(
            info.machines[i].clone(),
            info.store.clone(),
            info.server_id(i),
            &info.config,
        )?;
        // Up before the worker hosts it again, so a collection sent after
        // this waits for its report.
        self.alive[i].store(true, Ordering::Release);
        self.send(
            i,
            Command::Adopt(i, Box::new(ProcessServer::Durable(recovered))),
        );
        self.down[i] = false;
        Ok(stats)
    }

    /// Sends server `i` the resync and waits for its answer, on a channel
    /// of its own so report markers in flight are not disturbed.  The
    /// worker answers every resync: a server that is down before it
    /// answers fails with [`DistsysError::ServerDown`], as does one whose
    /// worker stays silent past the collection deadline.
    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> Result<()> {
        let ticket = self.next_tag();
        self.send(
            i,
            Command::Server(i, ServerCommand::Resync(seq, state), ticket),
        );
        self.await_answer(ticket)
            .unwrap_or(Err(DistsysError::ServerDown { server: i }))
    }

    /// Collects a report from every server.  This is the synchronization
    /// point of the recovery protocol: it waits until every worker has
    /// answered, which also guarantees all previously broadcast events have
    /// been applied (commands are processed in order).
    ///
    /// A server that is down (killed, stopped by a storage failure, or
    /// panicked in `Server::apply`) is left out of its worker's answer and
    /// yields `None`.  The drain polls with a timeout and re-checks the
    /// liveness flags of the servers still outstanding, so it also stops
    /// once every missing server is down — or the overall deadline passes,
    /// for a wedged worker.  Each collection runs under a fresh generation
    /// tag, so a round that arrives *after* its collection gave up (a
    /// slow-but-alive worker) is recognized as stale and discarded by the
    /// next collection instead of being mistaken for its answer.
    ///
    /// All deadline math runs on the group's environment clock
    /// ([`OsClock`]), mirroring how the simulated runner computes the same
    /// deadline on virtual time.
    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>> {
        let generation = self.request_reports();
        // Replies the markers have not handed out yet are from older rounds.
        self.replies.get_mut().clear();
        let n = self.len();
        let mut out: Vec<Option<MachineReport>> = vec![None; n];
        let mut answered = 0;
        let deadline = self.clock.now() + self.collect_timeout;
        while answered < self.workers.len() {
            match self.reports.recv_timeout(self.report_poll) {
                Ok((gen, round)) if gen == generation => {
                    answered += 1;
                    for (i, r) in round {
                        out[i] = Some(r);
                    }
                }
                // Stale round from a collection that already gave up.
                Ok(_) => {}
                Err(_) => {
                    let all_down = (0..n)
                        .filter(|&i| out[i].is_none())
                        .all(|i| !self.is_alive(i));
                    if all_down || self.clock.now() >= deadline {
                        break;
                    }
                }
            }
        }
        out
    }

    fn shutdown(self: Box<Self>) -> Vec<Server> {
        ParallelServerGroup::shutdown(*self)
    }
}

impl Drop for ParallelServerGroup {
    fn drop(&mut self) {
        self.stop_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_fusion_core::{projection_partitions, FaultModel, RecoveryEngine};
    use fsm_machines::{fig1_machines, mod_counter, shift_register};

    /// The two shard shapes the fault tests run under: every server on one
    /// worker, and one worker per server.
    fn shapes(machines: &[Dfsm]) -> [usize; 2] {
        [1, machines.len()]
    }

    fn plain(machines: &[Dfsm], config: &GroupConfig, workers: usize) -> ParallelServerGroup {
        ParallelServerGroup::spawn_plain(machines, config, OsClock::new(), workers)
    }

    fn durable(machines: &[Dfsm], snapshot_every: u64, workers: usize) -> ParallelServerGroup {
        let info = DurableGroupInfo {
            store: crate::storage::shared(crate::storage::MemStore::new()),
            prefix: "t".to_string(),
            config: DurabilityConfig::new().snapshot_every(snapshot_every),
            machines: machines.to_vec(),
        };
        ParallelServerGroup::spawn_durable_on(&GroupConfig::new(), OsClock::new(), info, workers)
            .unwrap()
    }

    fn events(word: &str) -> Vec<Event> {
        word.chars().map(|c| Event::new(c.to_string())).collect()
    }

    /// Four counters, so a two-worker group has two servers per shard.
    fn four_counters() -> Vec<Dfsm> {
        (2..6)
            .map(|m| mod_counter(&format!("C{m}"), m, "1", &["0", "1"]))
            .collect()
    }

    #[test]
    fn worker_count_leaves_a_core_and_never_exceeds_the_servers() {
        assert_eq!(worker_count(0), 0);
        assert_eq!(worker_count(1), 1);
        let online = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(cores(), online);
        assert_eq!(worker_count(64), online.saturating_sub(1).max(1));
        let group = ParallelServerGroup::spawn(&four_counters());
        assert_eq!(group.workers.len(), worker_count(4));
        let empty = ParallelServerGroup::spawn(&[]);
        assert!(empty.is_empty());
        assert!(empty.shutdown().is_empty());
    }

    #[test]
    fn sender_frees_released_batches_and_caps_the_rest() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let batch = events("0110");
        group.apply_batch(&batch);
        group.apply_batch(&batch);
        // A report round is a barrier: every server has applied and let go
        // of both batches, so the next send frees them here.
        group.collect_reports().unwrap();
        group.apply_batch(&batch);
        assert_eq!(group.sent.len(), 1);
        // A batch that is never released stops the oldest-first sweep; the
        // cap still bounds what the group holds.
        let pinned = Arc::clone(group.sent.front().unwrap());
        for _ in 0..2 * SENT_BATCHES {
            group.apply_batch(&batch);
        }
        assert!(group.sent.len() <= SENT_BATCHES);
        drop(pinned);
        let reports = group.collect_reports().unwrap();
        let sent = (3 + 2 * SENT_BATCHES) * 2;
        assert_eq!(reports[0], MachineReport::State(sent % 3));
        assert_eq!(reports[1], MachineReport::State(sent % 3));
        group.shutdown();
    }

    #[test]
    fn parallel_group_applies_events_concurrently() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        assert_eq!(group.len(), 2);
        assert!(!group.is_empty());
        group.apply_batch(&events("00110"));
        let reports = group.collect_reports().unwrap();
        // 3 zeros → 0-counter at 0; 2 ones → 1-counter at 2.
        assert_eq!(reports[0], MachineReport::State(0));
        assert_eq!(reports[1], MachineReport::State(2));
        let servers = group.shutdown();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[0].events_seen(), 5);
    }

    #[test]
    fn apply_batch_matches_per_event_reference_path() {
        // The batched submission (one channel send per worker) must leave
        // every server in exactly the state the sequential per-event oracle
        // (`Server::apply`) reaches, including interleavings with fault
        // commands.
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let events = events("0110100101101");
        group.apply_batch(&events);
        // A second batch after a crash command keeps the per-server command
        // order intact.
        group.crash(1);
        group.apply_batch(&events[..4]);
        let mut oracle: Vec<Server> = machines.iter().cloned().map(Server::new).collect();
        for (i, server) in oracle.iter_mut().enumerate() {
            events.iter().for_each(|e| server.apply(e));
            if i == 1 {
                server.crash();
            }
            events[..4].iter().for_each(|e| server.apply(e));
        }
        let expected: Vec<MachineReport> = oracle.iter().map(Server::report).collect();
        assert_eq!(group.collect_reports().unwrap(), expected);
        // Empty batches are a no-op, not a command.
        group.apply_batch(&[]);
        let servers = group.shutdown();
        assert_eq!(servers.len(), oracle.len());
        for (bs, rs) in servers.iter().zip(&oracle) {
            assert_eq!(bs.current_state(), rs.current_state());
            assert_eq!(bs.events_seen(), rs.events_seen());
        }
    }

    #[test]
    fn batch_to_one_server_and_async_report_markers() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let events = events("01101");
        // The single-lane batch path: one command, one server.
        group.apply_batch_to(0, &events);
        // Empty batches are a no-op on every batch path (no Arc, no send).
        group.apply_batch_to(0, &[]);
        group.apply_batch(&[]);
        // The async marker: request now, drain replies later.  FIFO order
        // guarantees the batch above is applied once server 0 answers.
        assert!(group.try_recv_report().is_none());
        let generation = group.request_reports();
        let mut got: Vec<Option<MachineReport>> = vec![None; 2];
        let mut received = 0;
        while received < 2 {
            let (i, g, r) = group
                .recv_report_timeout(Duration::from_secs(5))
                .expect("live servers answer the marker");
            if g == generation && got[i].is_none() {
                got[i] = Some(r);
                received += 1;
            }
        }
        let expected = machines[0].run(events.iter()).index();
        assert_eq!(got[0], Some(MachineReport::State(expected)));
        assert_eq!(
            got[1],
            Some(MachineReport::State(0)),
            "server 1 saw nothing"
        );
        let _ = group.shutdown();
    }

    #[test]
    fn interleaved_batches_and_markers_reach_each_server_in_order() {
        // Shift registers remember the order of their last bits, so a
        // batch applied out of order shows in the state.
        let machines: Vec<Dfsm> = (0..4).map(|_| shift_register(3)).collect();
        for workers in [1, 2, 4] {
            let mut group = plain(&machines, &GroupConfig::new(), workers);
            let mut oracle: Vec<Vec<Event>> = vec![Vec::new(); 4];
            let mut want: Vec<Vec<(u64, MachineReport)>> = vec![Vec::new(); 4];
            let steps: [(Option<usize>, &str); 6] = [
                (None, "011"),
                (Some(0), "1"),
                (Some(3), "00"),
                (None, "1"),
                (Some(2), "10"),
                (None, "0"),
            ];
            for (target, word) in steps {
                let batch = events(word);
                match target {
                    Some(i) => {
                        group.apply_batch_to(i, &batch);
                        oracle[i].extend(batch);
                    }
                    None => {
                        group.apply_batch(&batch);
                        oracle
                            .iter_mut()
                            .for_each(|o| o.extend(batch.iter().cloned()));
                    }
                }
                let generation = group.request_reports();
                for (w, o) in want.iter_mut().zip(&oracle) {
                    let state = machines[0].run(o.iter()).index();
                    w.push((generation, MachineReport::State(state)));
                }
            }
            // Workers answer independently, but each server answers the
            // rounds in the order they were asked for.
            let mut got: Vec<Vec<(u64, MachineReport)>> = vec![Vec::new(); 4];
            for _ in 0..steps.len() * 4 {
                let (i, g, r) = group
                    .recv_report_timeout(Duration::from_secs(5))
                    .expect("live servers answer every marker");
                got[i].push((g, r));
            }
            assert_eq!(got, want, "{workers} workers");
            assert!(group.try_recv_report().is_none());
            let _ = group.shutdown();
        }
    }

    #[test]
    fn shutdown_returns_servers_in_index_order() {
        let machines = four_counters();
        for workers in [1, 2, 3, 4] {
            let mut group = plain(&machines, &GroupConfig::new(), workers);
            group.apply_batch_to(3, &events("1"));
            group.kill_process(1);
            let servers = group.shutdown();
            let names: Vec<&str> = servers.iter().map(Server::name).collect();
            assert_eq!(names, ["C2", "C3", "C4", "C5"], "{workers} workers");
            assert_eq!(servers[3].events_seen(), 1);
        }
    }

    #[test]
    fn parallel_group_matches_sequential_execution() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let events = events("0101101001");
        group.apply_batch(&events);
        let reports = group.collect_reports().unwrap();
        for (i, m) in machines.iter().enumerate() {
            let expected = m.run(events.iter()).index();
            assert_eq!(reports[i], MachineReport::State(expected));
        }
        drop(group);
    }

    #[test]
    fn parallel_crash_and_recovery_roundtrip() {
        // Full distributed recovery: originals + fusion backup on workers,
        // crash one, rebuild its state with the recovery engine, push the
        // restored state back.
        let machines = fig1_machines();
        let sys = crate::FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let mut all_machines = machines.clone();
        all_machines.extend(sys.fusion().machines.iter().cloned());
        let mut group = ParallelServerGroup::spawn(&all_machines);

        let events = events("011010011");
        group.apply_batch(&events);
        group.crash(0);

        let reports = group.collect_reports().unwrap();
        assert_eq!(reports[0], MachineReport::Crashed);

        let product = sys.product();
        let mut engine = RecoveryEngine::new(product.size());
        for (i, p) in projection_partitions(product).into_iter().enumerate() {
            engine
                .add_machine(machines[i].name().to_string(), p)
                .unwrap();
        }
        for (i, p) in sys.fusion().partitions.iter().enumerate() {
            engine.add_machine(format!("F{i}"), p.clone()).unwrap();
        }
        let recovery = engine.recover(&reports).unwrap();
        let expected = machines[0].run(events.iter()).index();
        assert_eq!(recovery.machine_states[0], expected);

        group.restore(0, StateId(recovery.machine_states[0]));
        let reports = group.collect_reports().unwrap();
        assert_eq!(reports[0], MachineReport::State(expected));
        let _ = group.shutdown();
    }

    #[test]
    fn collect_reports_errors_when_a_server_thread_dies() {
        // Regression test for the report-collection deadlock: a dead
        // server can never answer, so before the liveness tracking it made
        // `collect_reports` block forever.  Kill server 0's *process*
        // out-of-band (not the modeled crash fault, which still answers)
        // and the collection must return an error naming it.
        let machines = fig1_machines();
        for workers in shapes(&machines) {
            let mut group = plain(&machines, &GroupConfig::new(), workers);
            group.apply_batch(&[Event::new("0")]);
            group.kill_process(0);
            match group.collect_reports() {
                Err(crate::DistsysError::MissingReports { servers }) => {
                    assert_eq!(servers, vec![0])
                }
                other => panic!("expected MissingReports, got {other:?}"),
            }
            let resync = group.resync(0, 1, StateId(0));
            assert!(matches!(
                resync,
                Err(DistsysError::ServerDown { server: 0 })
            ));
            // The surviving servers still shut down cleanly and the dead
            // server's final state is still collectable.
            let servers = group.shutdown();
            assert_eq!(servers.len(), 2);
            assert_eq!(servers[1].events_seen(), 1);
        }
    }

    #[test]
    fn try_collect_reports_returns_partial_results_with_configured_timeout() {
        // The GroupConfig knobs replace the old hardcoded constants: a
        // short explicit deadline keeps the partial collection fast, and
        // the surviving server still answers.
        let machines = fig1_machines();
        let config = GroupConfig::new()
            .report_poll(Duration::from_millis(1))
            .collect_timeout(Duration::from_millis(250));
        for workers in shapes(&machines) {
            let mut group = plain(&machines, &config, workers);
            group.apply_batch(&[Event::new("1")]);
            group.kill_process(1);
            let partial = group.try_collect_reports();
            assert!(partial[0].is_some());
            assert_eq!(partial[1], None);
            // A killed server leaves its shard gracefully, so its final
            // Server value is still collectable (unlike a panicked one).
            let servers = group.shutdown();
            assert_eq!(servers.len(), 2);
        }
    }

    #[test]
    fn durable_restart_replays_the_log_and_rejoins() {
        let machines = fig1_machines();
        for workers in shapes(&machines) {
            let mut group = durable(&machines, 3, workers);
            let events = events("011010011");
            group.apply_batch(&events[..5]);
            // A kill is queued behind the batch, so all five events hit the
            // log before the server leaves its shard.
            group.kill_process(0);
            // Events broadcast while a process is down are lost to it — the
            // missed suffix the rejoin replay has to make up.
            group.apply_batch(&events[5..]);
            let stats = group.restart_process(0).unwrap();
            assert_eq!(stats.acked_seq, 5);
            assert_eq!(stats.snapshot_seq, 3); // snapshot_every = 3
            assert_eq!(stats.frames_replayed, 2);
            assert_eq!(stats.state, machines[0].run(events[..5].iter()));
            // Catch the rejoiner up on what it missed.
            group.apply_batch_to(0, &events[5..]);
            let reports = group.collect_reports().unwrap();
            for (i, m) in machines.iter().enumerate() {
                assert_eq!(
                    reports[i],
                    MachineReport::State(m.run(events.iter()).index()),
                    "server {i}"
                );
            }
            let _ = group.shutdown();
        }
    }

    #[test]
    fn durable_resync_adopts_peer_state_at_group_seq() {
        let machines = fig1_machines();
        for workers in shapes(&machines) {
            let mut group = durable(&machines, 32, workers);
            group.apply_batch(&[Event::new("0")]);
            group.resync(0, 10, StateId(2)).unwrap();
            let reports = group.collect_reports().unwrap();
            assert_eq!(reports[0], MachineReport::State(2));
            // The resync snapshotted at the group sequence number, so a
            // kill/restart resumes from seq 10 — never regressing.
            group.kill_process(0);
            let stats = group.restart_process(0).unwrap();
            assert_eq!(stats.acked_seq, 10);
            assert_eq!(stats.state, StateId(2));
            let _ = group.shutdown();
        }
    }

    #[test]
    fn restart_process_error_paths() {
        let machines = fig1_machines();
        for workers in shapes(&machines) {
            // A plain group has nothing to restart from.
            let mut plain = plain(&machines, &GroupConfig::new(), workers);
            plain.kill_process(0);
            assert!(matches!(
                plain.restart_process(0),
                Err(crate::DistsysError::NotDurable { server: 0 })
            ));
            let _ = plain.shutdown();
            // A durable group refuses to restart a live server or a bad
            // index.
            let mut group = durable(&machines, DurabilityConfig::DEFAULT_SNAPSHOT_EVERY, workers);
            assert!(matches!(
                group.restart_process(0),
                Err(crate::DistsysError::ServerUp { server: 0 })
            ));
            assert!(matches!(
                group.restart_process(9),
                Err(crate::DistsysError::NoSuchServer {
                    server: 9,
                    count: 2
                })
            ));
            let _ = group.shutdown();
        }
    }

    #[test]
    fn collect_reports_errors_when_a_server_thread_panics() {
        // Same deadlock through the panic path: the server dies
        // mid-command rather than leaving its shard.  Restoring to an
        // out-of-range state makes the next event application panic inside
        // server 1's `handle` (out-of-bounds transition lookup); the worker
        // catches it and takes that server down alone.
        let machines = fig1_machines();
        for workers in shapes(&machines) {
            let mut group = plain(&machines, &GroupConfig::new(), workers);
            group.restore(1, StateId(usize::MAX));
            group.apply_batch(&[Event::new("1")]);
            match group.collect_reports() {
                Err(crate::DistsysError::MissingReports { servers }) => {
                    assert_eq!(servers, vec![1])
                }
                other => panic!("expected MissingReports, got {other:?}"),
            }
            // Shutdown after a panicked server must not panic the caller:
            // the dead server simply has no final value.
            let servers = group.shutdown();
            assert_eq!(servers.len(), 1);
            assert_eq!(servers[0].name(), machines[0].name());
        }
    }

    #[test]
    fn shard_mates_outlive_a_kill_and_a_panic_and_restarts_rejoin() {
        let machines = four_counters();
        let word = events("1101");
        for workers in [1, 2] {
            let mut group = durable(&machines, 1024, workers);
            group.apply_batch(&word);
            // Server 0 is killed; server 1 panics on its next event.  With
            // two workers each shares its worker with a healthy server.
            group.kill_process(0);
            group.restore(1, StateId(usize::MAX));
            group.apply_batch(&word);
            let reports = group.try_collect_reports();
            assert_eq!(reports[0], None, "{workers} workers");
            assert_eq!(reports[1], None, "{workers} workers");
            for i in [2, 3] {
                let state = machines[i].run(word.iter().chain(&word)).index();
                assert_eq!(reports[i], Some(MachineReport::State(state)));
            }
            // A resync to a server that is down is answered, not waited on.
            assert!(matches!(
                group.resync(1, 8, StateId(0)),
                Err(DistsysError::ServerDown { server: 1 })
            ));
            // Both come back from their logs and rejoin their shards.  The
            // killed server persisted the first batch; the panicking one
            // had logged the second batch before applying it, so its replay
            // includes it.
            let stats = group.restart_process(0).unwrap();
            assert_eq!(stats.acked_seq, word.len() as u64);
            assert_eq!(stats.state, machines[0].run(word.iter()));
            group.apply_batch_to(0, &word);
            let stats = group.restart_process(1).unwrap();
            assert_eq!(stats.acked_seq, 2 * word.len() as u64);
            assert_eq!(stats.state, machines[1].run(word.iter().chain(&word)));
            group.apply_batch(&word);
            let reports = group.collect_reports().unwrap();
            for (i, m) in machines.iter().enumerate() {
                let all = word.iter().chain(&word).chain(&word);
                assert_eq!(
                    reports[i],
                    MachineReport::State(m.run(all).index()),
                    "server {i}"
                );
            }
            assert_eq!(group.shutdown().len(), 4);
        }
    }
}
