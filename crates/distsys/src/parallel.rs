//! Threaded execution of a server group.
//!
//! The paper's servers are independent processes; this module runs each
//! server on its own OS thread, broadcasting events over channels and
//! collecting state reports on demand — a small-scale but faithful model of
//! the deployment the paper assumes (independent servers, no shared state,
//! communication only for recovery).
//!
//! Each thread is a thin transport around `ProcessServer::handle`, the
//! server step the simulator shares: it takes a `ServerCommand` off its
//! `crossbeam-channel` queue, hands it over, and sends back what the
//! command asks for.  Reports go to the group's shared report channel; a
//! resync's answer goes to a separate answer channel, so the report stream
//! carries reports only.  A storage failure stops the thread the way
//! [`ServerGroup::kill_process`] does: its reports go missing and
//! [`ServerGroup::restart_process`] recovers it from what it persisted.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// A `(server, generation, report)` reply on the report channel.
type Reply = (usize, u64, MachineReport);

/// What the group sends a server thread.
enum Command {
    /// A server command and the tag its answer carries back: a report
    /// round's generation, a resync's ticket, or 0 when no one waits.
    Server(ServerCommand, u64),
    /// Shut the thread down.
    Stop,
}

/// The loop every server thread runs; returns the final `Server` value
/// when stopped, or when a storage failure stops it.
fn run_server(
    index: usize,
    mut ps: ProcessServer,
    rx: Receiver<Command>,
    reports: Sender<Reply>,
    answers: Sender<(u64, Result<()>)>,
) -> Server {
    while let Ok(Command::Server(cmd, tag)) = rx.recv() {
        let outcome = ps.handle(cmd);
        let failed = outcome.is_err();
        match outcome {
            Ok(Some(report)) => {
                let _ = reports.send((index, tag, report));
            }
            answer if tag != 0 => {
                let _ = answers.send((tag, answer.map(|_| ())));
            }
            _ => {}
        }
        if failed {
            break;
        }
    }
    ps.into_server()
}

/// A server running on its own thread.
struct ServerHandle {
    commands: Sender<Command>,
    join: Option<thread::JoinHandle<Server>>,
}

impl ServerHandle {
    /// Whether the thread has exited (killed, stopped by a storage
    /// failure, or panicked).
    fn exited(&self) -> bool {
        self.join.as_ref().map_or(true, |j| j.is_finished())
    }
}

/// A group of servers, each on its own thread, driven by broadcast event
/// batches.
///
/// Its face is [`ServerGroup`]; the inherent methods add what only a
/// threaded group has: spawning, and asynchronous report markers
/// ([`ParallelServerGroup::request_reports`]).  Recovery logic is
/// intentionally not duplicated here: callers collect reports with
/// [`ServerGroup::collect_reports`] and feed them to a
/// [`fsm_fusion_core::RecoveryEngine`], then push the corrected states back
/// with [`ServerGroup::restore`].
pub struct ParallelServerGroup {
    handles: Vec<ServerHandle>,
    reports: Receiver<Reply>,
    report_sender: Sender<Reply>,
    /// Resync answers, tagged with their ticket.
    answers: Receiver<(u64, Result<()>)>,
    answer_sender: Sender<(u64, Result<()>)>,
    /// The last tag handed out.  Report rounds and resyncs each draw a fresh
    /// one; a reply tagged with an older generation is stale (a previous
    /// collection gave up on it) and is discarded on receipt.
    generation: AtomicU64,
    /// How often collection re-checks the liveness of servers that have not
    /// reported yet (resolved from [`GroupConfig`]).
    report_poll: Duration,
    /// Hard ceiling on one report collection (and on one resync's wait):
    /// even a server thread that is alive but wedged cannot block the
    /// caller past this.  A healthy server that cannot drain its backlog
    /// within the deadline is reported missing, and its late answer is
    /// discarded by the generation filter.  The default is sized orders of
    /// magnitude above any broadcast backlog the workloads here produce, so
    /// only a genuinely wedged (or dead) thread hits it.
    collect_timeout: Duration,
    /// The environment clock all deadline math goes through — never raw
    /// `Instant::now()`, so the collection logic reads identically to the
    /// virtual-time implementation in the simulator.
    clock: OsClock,
    /// The machines the group runs, kept for restarting killed processes.
    roster: Vec<Dfsm>,
    /// Durable-group info (store, id prefix, knobs); `None` for plain
    /// groups, which cannot restart.
    durable: Option<DurableGroupInfo>,
    /// Which servers' processes were killed (and not yet restarted).
    down: Vec<bool>,
    /// Broadcast batches, oldest first, that the sending thread still holds
    /// a reference to.  It drops each once the servers have released theirs,
    /// so the buffer is freed on the thread that allocated it.  Freed on a
    /// server thread, a small buffer would stay in that thread's allocator
    /// cache (glibc's per-thread tcache), which only that thread reuses: a
    /// megabyte or more of dead buffers across a group fed small batches.
    /// Capped at [`SENT_BATCHES`], so a slow server's backlog is let go.
    sent: VecDeque<Arc<[Event]>>,
}

/// What a durable group needs to rebuild a killed server from storage.
struct DurableGroupInfo {
    store: SharedStore,
    prefix: String,
    config: DurabilityConfig,
}

impl DurableGroupInfo {
    fn server_id(&self, i: usize) -> String {
        format!("{}-s{i}", self.prefix)
    }
}

impl ParallelServerGroup {
    /// Spawns one thread per machine with the default [`GroupConfig`].
    pub fn spawn(machines: &[Dfsm]) -> Self {
        Self::spawn_with(machines, &GroupConfig::new())
    }

    /// Spawns one thread per machine with an explicit [`GroupConfig`].
    pub fn spawn_with(machines: &[Dfsm], config: &GroupConfig) -> Self {
        Self::spawn_clocked(machines, config, OsClock::new())
    }

    /// [`ParallelServerGroup::spawn_with`] on a caller-owned clock, so all
    /// groups of one [`OsEnvironment`](crate::OsEnvironment) share its
    /// timeline.
    pub fn spawn_clocked(machines: &[Dfsm], config: &GroupConfig, clock: OsClock) -> Self {
        let servers = machines
            .iter()
            .map(|m| ProcessServer::Plain(Server::new(m.clone())))
            .collect();
        Self::spawn_processes(machines, servers, config, clock, None)
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
        };
        let servers = machines
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
            machines,
            servers,
            config,
            clock,
            Some(info),
        ))
    }

    fn spawn_processes(
        machines: &[Dfsm],
        servers: Vec<ProcessServer>,
        config: &GroupConfig,
        clock: OsClock,
        durable: Option<DurableGroupInfo>,
    ) -> Self {
        let (report_sender, reports) = unbounded();
        let (answer_sender, answers) = unbounded();
        let n = servers.len();
        let mut group = ParallelServerGroup {
            handles: Vec::with_capacity(n),
            reports,
            report_sender,
            answers,
            answer_sender,
            generation: AtomicU64::new(0),
            report_poll: config.report_poll,
            collect_timeout: config.collect_timeout,
            clock,
            roster: machines.to_vec(),
            durable,
            down: vec![false; n],
            sent: VecDeque::new(),
        };
        for (index, ps) in servers.into_iter().enumerate() {
            let handle = group.spawn_thread(index, ps);
            group.handles.push(handle);
        }
        group
    }

    fn spawn_thread(&self, index: usize, ps: ProcessServer) -> ServerHandle {
        let (tx, rx) = unbounded();
        let reports = self.report_sender.clone();
        let answers = self.answer_sender.clone();
        let join = thread::spawn(move || run_server(index, ps, rx, reports, answers));
        ServerHandle {
            commands: tx,
            join: Some(join),
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Sends server `i` a command no one waits on.  A send to a dead
    /// server's queue fails silently: its absence shows when it does not
    /// answer.
    fn send(&self, i: usize, cmd: ServerCommand) {
        let _ = self.handles[i].commands.send(Command::Server(cmd, 0));
    }

    fn next_tag(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Posts a report request to every server under a fresh generation tag
    /// and returns the tag *without waiting* — the asynchronous half of
    /// report collection.  Because commands are applied in per-server FIFO
    /// order, once every live server has answered this generation (drain
    /// with [`ParallelServerGroup::try_recv_report`] /
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
        for h in &self.handles {
            let _ = h
                .commands
                .send(Command::Server(ServerCommand::Report, generation));
        }
        generation
    }

    /// Receives one `(server, generation, report)` reply if one is already
    /// waiting (non-blocking half of [`request_reports`]).
    ///
    /// [`request_reports`]: ParallelServerGroup::request_reports
    pub fn try_recv_report(&self) -> Option<(usize, u64, MachineReport)> {
        self.reports.try_recv().ok()
    }

    /// Receives one `(server, generation, report)` reply, waiting at most
    /// `timeout` for it.
    pub fn recv_report_timeout(&self, timeout: Duration) -> Option<(usize, u64, MachineReport)> {
        self.reports.recv_timeout(timeout).ok()
    }

    /// Stops all threads and returns the final `Server` values (for
    /// inspection in tests).  Servers whose threads panicked have no final
    /// value and are omitted, matching the recoverable-error contract of
    /// [`ServerGroup::collect_reports`] — a caller that handled
    /// [`DistsysError::MissingReports`] can still tear the group down.
    pub fn shutdown(mut self) -> Vec<Server> {
        self.stop_all()
    }

    /// Stops and joins every thread not joined yet, returning the final
    /// `Server` of each that did not panic.
    fn stop_all(&mut self) -> Vec<Server> {
        for h in &self.handles {
            let _ = h.commands.send(Command::Stop);
        }
        self.handles
            .iter_mut()
            .filter_map(|h| h.join.take()?.join().ok())
            .collect()
    }
}

impl ServerGroup for ParallelServerGroup {
    fn len(&self) -> usize {
        ParallelServerGroup::len(self)
    }

    /// Broadcasts a whole batch of events with **one channel send per
    /// server**: the events are cloned once into a shared `Arc<[Event]>`
    /// and every server thread walks the same slice in order, so each
    /// server ends where applying the events one at a time would leave it.
    fn apply_batch(&mut self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let batch: Arc<[Event]> = Arc::from(events);
        for i in 0..self.handles.len() {
            self.send(i, ServerCommand::Batch(Arc::clone(&batch)));
        }
        // Each server applies its commands in order, so batches are
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
            self.send(i, ServerCommand::Batch(Arc::from(events)));
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

    /// Kills server `i`'s *thread* (distinct from the modeled crash fault,
    /// which keeps answering): pending commands are processed first, then
    /// the thread exits and the server's reports go missing.
    fn kill_process(&mut self, i: usize) {
        let _ = self.handles[i].commands.send(Command::Stop);
        self.down[i] = true;
    }

    /// Restarts server `i`'s thread from durable state once it was killed
    /// or a storage failure stopped it: joins the old thread, runs
    /// [`DurableServer::recover`] against the group's store (snapshot +
    /// WAL-suffix replay, torn tail dropped), and spawns a fresh thread
    /// hosting the recovered server.
    ///
    /// Fails with [`DistsysError::NotDurable`] on plain groups,
    /// [`DistsysError::ServerUp`] if the thread is still running, and
    /// [`DistsysError::NoSuchServer`] for an out-of-range index.
    fn restart_process(&mut self, i: usize) -> Result<ReplayStats> {
        if i >= self.handles.len() {
            return Err(DistsysError::NoSuchServer {
                server: i,
                count: self.handles.len(),
            });
        }
        let Some(info) = &self.durable else {
            return Err(DistsysError::NotDurable { server: i });
        };
        if !self.down[i] && !self.handles[i].exited() {
            return Err(DistsysError::ServerUp { server: i });
        }
        // The thread exits once it drains its queue (behind the Stop of a
        // kill); join it so its final WAL writes are visible before
        // recovery reads the store.
        if let Some(join) = self.handles[i].join.take() {
            let _ = join.join();
        }
        let (recovered, stats) = DurableServer::recover(
            self.roster[i].clone(),
            info.store.clone(),
            info.server_id(i),
            &info.config,
        )?;
        self.handles[i] = self.spawn_thread(i, ProcessServer::Durable(recovered));
        self.down[i] = false;
        Ok(stats)
    }

    /// Sends server `i` the resync and waits for its answer, on a channel
    /// of its own so report markers in flight are not disturbed.  A server
    /// whose thread exits (or stays silent past the collection deadline)
    /// before answering fails with [`DistsysError::ServerDown`].
    fn resync(&mut self, i: usize, seq: u64, state: StateId) -> Result<()> {
        let ticket = self.next_tag();
        let _ = self.handles[i]
            .commands
            .send(Command::Server(ServerCommand::Resync(seq, state), ticket));
        let deadline = self.clock.now() + self.collect_timeout;
        loop {
            match self.answers.recv_timeout(self.report_poll) {
                Ok((t, answer)) if t == ticket => return answer,
                // An earlier resync that gave up waiting.
                Ok(_) => {}
                Err(_) if self.handles[i].exited() || self.clock.now() >= deadline => {
                    // The thread answers before it exits, so its answer
                    // may have landed since the wait timed out.
                    return std::iter::from_fn(|| self.answers.try_recv().ok())
                        .find(|(t, _)| *t == ticket)
                        .map_or(Err(DistsysError::ServerDown { server: i }), |(_, a)| a);
                }
                Err(_) => {}
            }
        }
    }

    /// Collects a report from every server.  This is the synchronization
    /// point of the recovery protocol: it waits until every server has
    /// answered, which also guarantees all previously broadcast events have
    /// been applied (commands are processed in order).
    ///
    /// A server whose thread has died (killed, stopped by a storage
    /// failure, or panicked in `Server::apply`) can never answer; the
    /// group's own clone of the report sender keeps the channel open, so a
    /// plain blocking `recv` would wait forever.  Instead the drain polls
    /// with a timeout and re-checks the join handles of the servers still
    /// outstanding: once every missing server's thread is finished — or
    /// the overall deadline passes — collection gives up and yields `None`
    /// for them.  Each collection runs under a fresh generation tag, so a
    /// reply that arrives *after* its collection gave up (a slow-but-alive
    /// server) is recognized as stale and discarded by the next collection
    /// instead of being mistaken for its answer.
    ///
    /// All deadline math runs on the group's environment clock
    /// ([`OsClock`]), mirroring how the simulated runner computes the same
    /// deadline on virtual time.
    fn try_collect_reports(&mut self) -> Vec<Option<MachineReport>> {
        let generation = self.request_reports();
        let n = self.handles.len();
        let mut out: Vec<Option<MachineReport>> = vec![None; n];
        let mut received = 0;
        let deadline = self.clock.now() + self.collect_timeout;
        while received < n {
            match self.reports.recv_timeout(self.report_poll) {
                Ok((_, gen, _)) if gen != generation => {
                    // Stale reply from a collection that already gave up.
                }
                Ok((i, _, r)) => {
                    if out[i].is_none() {
                        received += 1;
                    }
                    out[i] = Some(r);
                }
                Err(_) => {
                    let all_dead = (0..n)
                        .filter(|&i| out[i].is_none())
                        .all(|i| self.handles[i].exited());
                    if all_dead || self.clock.now() >= deadline {
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
    use fsm_machines::fig1_machines;

    #[test]
    fn sender_frees_released_batches_and_caps_the_rest() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let batch: Vec<Event> = "0110".chars().map(|c| Event::new(c.to_string())).collect();
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
        let events: Vec<Event> = "00110".chars().map(|c| Event::new(c.to_string())).collect();
        group.apply_batch(&events);
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
        // The batched submission (one channel send per server) must leave
        // every server in exactly the state the sequential per-event oracle
        // (`Server::apply`) reaches, including interleavings with fault
        // commands.
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let events: Vec<Event> = "0110100101101"
            .chars()
            .map(|c| Event::new(c.to_string()))
            .collect();
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
        let events: Vec<Event> = "01101".chars().map(|c| Event::new(c.to_string())).collect();
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
    fn parallel_group_matches_sequential_execution() {
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        let word = "0101101001";
        let events: Vec<Event> = word.chars().map(|c| Event::new(c.to_string())).collect();
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
        // Full distributed recovery: originals + fusion backup on threads,
        // crash one, rebuild its state with the recovery engine, push the
        // restored state back.
        let machines = fig1_machines();
        let sys = crate::FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        let mut all_machines = machines.clone();
        all_machines.extend(sys.fusion().machines.iter().cloned());
        let mut group = ParallelServerGroup::spawn(&all_machines);

        let events: Vec<Event> = "011010011"
            .chars()
            .map(|c| Event::new(c.to_string()))
            .collect();
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
        // Regression test for the report-collection deadlock: the group
        // holds its own clone of the report sender, so before the liveness
        // tracking a dead server thread made `collect_reports` block on
        // `recv` forever.  Kill server 0's *thread* out-of-band (not the
        // modeled crash fault, which still answers) and the collection must
        // return an error naming it.
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
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
        // thread's final state is still collectable.
        let servers = group.shutdown();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[1].events_seen(), 1);
    }

    #[test]
    fn try_collect_reports_returns_partial_results_with_configured_timeout() {
        // The GroupConfig knobs replace the old hardcoded constants: a
        // short explicit deadline keeps the partial collection fast, and
        // the surviving server still answers.
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn_with(
            &machines,
            &GroupConfig::new()
                .report_poll(Duration::from_millis(1))
                .collect_timeout(Duration::from_millis(250)),
        );
        group.apply_batch(&[Event::new("1")]);
        group.kill_process(1);
        let partial = group.try_collect_reports();
        assert!(partial[0].is_some());
        assert_eq!(partial[1], None);
        // A Stop-killed thread exits its loop gracefully, so its final
        // Server value is still collectable (unlike a panicked thread).
        let servers = group.shutdown();
        assert_eq!(servers.len(), 2);
    }

    #[test]
    fn durable_restart_replays_the_log_and_rejoins() {
        let machines = fig1_machines();
        let store = crate::storage::shared(crate::storage::MemStore::new());
        let mut group = ParallelServerGroup::spawn_durable(
            &machines,
            &GroupConfig::new(),
            OsClock::new(),
            store,
            "t",
            DurabilityConfig::new().snapshot_every(3),
        )
        .unwrap();
        let events: Vec<Event> = "011010011"
            .chars()
            .map(|c| Event::new(c.to_string()))
            .collect();
        group.apply_batch(&events[..5]);
        // Stop drains the queue first, so all five events hit the log
        // before the thread exits.
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

    #[test]
    fn durable_resync_adopts_peer_state_at_group_seq() {
        let machines = fig1_machines();
        let store = crate::storage::shared(crate::storage::MemStore::new());
        let mut group = ParallelServerGroup::spawn_durable(
            &machines,
            &GroupConfig::new(),
            OsClock::new(),
            store,
            "t",
            DurabilityConfig::new().snapshot_every(32),
        )
        .unwrap();
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

    #[test]
    fn restart_process_error_paths() {
        let machines = fig1_machines();
        // A plain group has nothing to restart from.
        let mut plain = ParallelServerGroup::spawn(&machines);
        plain.kill_process(0);
        assert!(matches!(
            plain.restart_process(0),
            Err(crate::DistsysError::NotDurable { server: 0 })
        ));
        let _ = plain.shutdown();
        // A durable group refuses to restart a live server or a bad index.
        let store = crate::storage::shared(crate::storage::MemStore::new());
        let mut group = ParallelServerGroup::spawn_durable(
            &machines,
            &GroupConfig::new(),
            OsClock::new(),
            store,
            "t",
            DurabilityConfig::new(),
        )
        .unwrap();
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

    #[test]
    fn collect_reports_errors_when_a_server_thread_panics() {
        // Same deadlock through the panic path the issue describes: the
        // thread dies mid-command rather than exiting its loop.  Restoring
        // to an out-of-range state makes the next event application panic
        // inside server 1's thread (out-of-bounds transition lookup).
        let machines = fig1_machines();
        let mut group = ParallelServerGroup::spawn(&machines);
        group.restore(1, StateId(usize::MAX));
        group.apply_batch(&[Event::new("1")]);
        match group.collect_reports() {
            Err(crate::DistsysError::MissingReports { servers }) => {
                assert_eq!(servers, vec![1])
            }
            other => panic!("expected MissingReports, got {other:?}"),
        }
        // Shutdown after a panicked thread must not panic the caller: the
        // dead server simply has no final value.
        let servers = group.shutdown();
        assert_eq!(servers.len(), 1);
        assert_eq!(servers[0].name(), machines[0].name());
    }
}
