//! The simulated world: virtual clock, message network and server
//! processes, all advanced deterministically from one seed.
//!
//! Every interaction between a driver and its servers goes through the
//! message queue: server commands (event batches, faults, restores,
//! resyncs, report requests), process kills and report replies.  Commands
//! model the paper's reliable totally-ordered event broadcast, so they are
//! delayed but never dropped or reordered per-server; report *replies*
//! travel the chaotic network and may be dropped, delayed past other
//! replies, or duplicated, according to the configured knobs.  All of it is
//! scheduled off one SplitMix64 stream, so the same seed replays the same
//! world byte for byte.
//!
//! Delivering a command is a thin transport around
//! [`ProcessServer::handle`], the server step the threaded runner shares,
//! so a durable server here commits batches exactly as it does on threads.
//! Only process kills and torn-tail injection live in the simulator: they
//! act on the process and its store, not on the server.  A storage failure
//! takes the process down as a kill does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fsm_dfsm::{Dfsm, StateId};
use fsm_fusion_core::MachineReport;
use rand::Rng;

use crate::error::{DistsysError, Result};
use crate::recovery::{DurabilityConfig, DurableServer, ProcessServer, ReplayStats, ServerCommand};
use crate::server::Server;
use crate::sim::rng::SimRng;
use crate::sim::trace::{Trace, TraceEvent};
use crate::storage::{shared, MemStore, SharedStore};
use crate::wal;

/// Counters of what the simulated network did — used by tests to assert
/// chaos coverage ("this sweep actually dropped/reordered something").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network (including ones then dropped).
    pub sent: u64,
    /// Messages delivered to a destination.
    pub delivered: u64,
    /// Messages dropped by the chaos knob.
    pub dropped: u64,
    /// Duplicate copies injected by the chaos knob.
    pub duplicated: u64,
    /// Replies delivered after a later-sent reply to the same collector.
    pub reordered: u64,
    /// Simulated processes killed.
    pub killed: u64,
    /// Kills that tore the final write-ahead-log frame (partial-write
    /// injection).
    pub torn_tails: u64,
    /// Killed durable processes brought back up from storage.
    pub restarts: u64,
}

impl NetStats {
    /// Accumulates another run's counters into this one.
    pub fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.killed += other.killed;
        self.torn_tails += other.torn_tails;
        self.restarts += other.restarts;
    }
}

/// Network chaos knobs, resolved from `SimConfig`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chaos {
    /// Minimum one-way message delay, virtual nanoseconds.
    pub min_delay: u64,
    /// Maximum one-way message delay, virtual nanoseconds.
    pub max_delay: u64,
    /// Probability a report reply is dropped.
    pub drop: f64,
    /// Probability a report reply is duplicated.
    pub duplicate: f64,
    /// Probability a report reply gets extra jitter pushing it past later
    /// replies.
    pub reorder: f64,
    /// Probability a kill of a *durable* process tears the final
    /// write-ahead-log frame (partial write at power failure).
    pub torn: f64,
}

/// What a message carries.
pub(crate) enum Payload {
    /// A server command and the tag its answer carries back: a report
    /// round's generation, a resync's ticket, or 0 when no one waits.
    Command(ServerCommand, u64),
    /// Power failure of the destination process.
    Kill,
    Reply {
        server: usize,
        generation: u64,
        report: MachineReport,
        /// Sequence number of the originating send (shared by duplicates),
        /// used for reorder accounting at the collector.
        sent_seq: u64,
    },
}

impl Payload {
    /// The discriminant recorded in `TraceEvent::Send` and
    /// `TraceEvent::Handle`, and so in the trace hash: a value keeps its
    /// meaning once used.
    fn kind(&self) -> u8 {
        match self {
            Payload::Command(ServerCommand::Batch(_), _) => 1,
            Payload::Command(ServerCommand::Crash, _) => 2,
            Payload::Command(ServerCommand::Corrupt(_), _) => 3,
            Payload::Command(ServerCommand::Restore(_), _) => 4,
            Payload::Command(ServerCommand::Report, _) => 5,
            Payload::Reply { .. } => 6,
            Payload::Kill => 7,
            Payload::Command(ServerCommand::Resync(..), _) => 8,
        }
    }
}

/// A message destination: a server's command queue, or a group's report
/// collector.
pub(crate) enum Dest {
    Server { group: usize, server: usize },
    Collector { group: usize },
}

/// A queued message.  Ordering (for the scheduler heap) is by delivery
/// time, tie-broken by the globally unique sequence number — which is what
/// makes the scheduler deterministic.
pub(crate) struct Msg {
    deliver_at: u64,
    seq: u64,
    dest: Dest,
    payload: Payload,
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Msg {}
impl PartialOrd for Msg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Msg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// One simulated process: a server (plain or durable) plus a liveness bit.
struct SimProcess {
    server: ProcessServer,
    alive: bool,
}

/// One spawned server group inside the world.
struct SimGroup {
    processes: Vec<SimProcess>,
    /// The machines the group runs, kept for restarting killed processes.
    machines: Vec<Dfsm>,
    /// Durability knobs if the group was spawned durable.
    durability: Option<DurabilityConfig>,
    /// Per-server FIFO floor: commands to a server are delivered strictly
    /// after every earlier command to it (reliable ordered delivery).
    fifo_floor: Vec<u64>,
    /// Replies received for this group's collector, drained by `collect`.
    inbox: Vec<(usize, u64, MachineReport)>,
    /// The last answer to a tagged command other than a report (a
    /// resync), with its tag; taken by `resync`.
    answer: Option<(u64, Result<()>)>,
    /// The last tag handed out: report rounds and resyncs each draw a
    /// fresh one.
    generation: u64,
    /// Highest originating send-sequence delivered to the collector, for
    /// reorder accounting.
    last_reply_seq: u64,
}

/// The deterministic world: virtual clock, scheduler queue, processes,
/// chaos stream, trace.
pub(crate) struct SimWorld {
    now: u64,
    next_seq: u64,
    chaos: Chaos,
    chaos_rng: SimRng,
    /// A second, independent stream for user-facing draws
    /// (`Environment::next_u64`), so workload generation does not perturb
    /// network scheduling.
    pub(crate) user_rng: SimRng,
    queue: BinaryHeap<Reverse<Msg>>,
    groups: Vec<SimGroup>,
    /// The world's durable store: a deterministic in-memory map shared by
    /// all durable groups.  Held as a separate `Arc` so process code can
    /// write through it without re-borrowing the world.
    pub(crate) store: SharedStore,
    pub(crate) trace: Trace,
    pub(crate) stats: NetStats,
}

impl SimWorld {
    pub(crate) fn new(seed: u64, chaos: Chaos) -> Self {
        SimWorld {
            now: 0,
            next_seq: 0,
            chaos,
            chaos_rng: SimRng::new(seed ^ 0xC4A5_EED0_0000_0001),
            user_rng: SimRng::new(seed ^ 0x0B5E_55ED_0000_0002),
            queue: BinaryHeap::new(),
            groups: Vec::new(),
            store: shared(MemStore::new()),
            trace: Trace::new(),
            stats: NetStats::default(),
        }
    }

    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    pub(crate) fn group_len(&self, group: usize) -> usize {
        self.groups[group].processes.len()
    }

    /// Spawns a group of simulated processes.
    pub(crate) fn spawn_group(
        &mut self,
        machines: &[Dfsm],
        durability: Option<&DurabilityConfig>,
    ) -> usize {
        let id = self.groups.len();
        let processes = machines
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let server = match durability {
                    None => ProcessServer::Plain(Server::new(m.clone())),
                    Some(cfg) => ProcessServer::Durable(
                        DurableServer::fresh(
                            m.clone(),
                            self.store.clone(),
                            format!("sim-g{id}-s{i}"),
                            cfg,
                        )
                        .expect("in-memory store cannot fail on fresh spawn"),
                    ),
                };
                SimProcess {
                    server,
                    alive: true,
                }
            })
            .collect();
        self.groups.push(SimGroup {
            processes,
            machines: machines.to_vec(),
            durability: durability.cloned(),
            fifo_floor: vec![0; machines.len()],
            inbox: Vec::new(),
            answer: None,
            generation: 0,
            last_reply_seq: 0,
        });
        self.trace.record(TraceEvent::Spawn {
            group: id,
            servers: machines.len(),
        });
        id
    }

    fn bump_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn sample_delay(&mut self) -> u64 {
        let Chaos {
            min_delay,
            max_delay,
            ..
        } = self.chaos;
        if max_delay <= min_delay {
            min_delay
        } else {
            self.chaos_rng.gen_range(min_delay..=max_delay)
        }
    }

    /// Sends a command to one server: reliable, per-server FIFO, delayed.
    pub(crate) fn send_command(&mut self, group: usize, server: usize, payload: Payload) {
        let seq = self.bump_seq();
        let delay = self.sample_delay();
        let floor = self.groups[group].fifo_floor[server];
        let deliver_at = (self.now + delay).max(floor + 1);
        self.groups[group].fifo_floor[server] = deliver_at;
        self.stats.sent += 1;
        self.trace.record(TraceEvent::Send {
            seq,
            at: self.now,
            group,
            server,
            kind: payload.kind(),
            deliver_at,
        });
        self.queue.push(Reverse(Msg {
            deliver_at,
            seq,
            dest: Dest::Server { group, server },
            payload,
        }));
    }

    /// Sends a report reply back to the group's collector through the
    /// chaotic network: it may be dropped, jittered past later replies, or
    /// duplicated.
    fn send_reply(&mut self, group: usize, server: usize, generation: u64, report: MachineReport) {
        let seq = self.bump_seq();
        let mut delay = self.sample_delay();
        if self.chaos.reorder > 0.0 && self.chaos_rng.gen_bool(self.chaos.reorder) {
            // Extra jitter of up to 4 max-delays: enough to land after
            // replies sent later.
            delay += self
                .chaos_rng
                .gen_range(0..=self.chaos.max_delay.saturating_mul(4));
        }
        let deliver_at = self.now + delay;
        self.stats.sent += 1;
        self.trace.record(TraceEvent::Send {
            seq,
            at: self.now,
            group,
            server,
            kind: 6,
            deliver_at,
        });
        if self.chaos.drop > 0.0 && self.chaos_rng.gen_bool(self.chaos.drop) {
            self.stats.dropped += 1;
            self.trace.record(TraceEvent::Drop { seq });
        } else {
            self.queue.push(Reverse(Msg {
                deliver_at,
                seq,
                dest: Dest::Collector { group },
                payload: Payload::Reply {
                    server,
                    generation,
                    report: report.clone(),
                    sent_seq: seq,
                },
            }));
        }
        if self.chaos.duplicate > 0.0 && self.chaos_rng.gen_bool(self.chaos.duplicate) {
            let dup = self.bump_seq();
            let dup_delay = self.sample_delay();
            self.stats.duplicated += 1;
            self.trace.record(TraceEvent::Duplicate { orig: seq, dup });
            self.queue.push(Reverse(Msg {
                deliver_at: self.now + dup_delay,
                seq: dup,
                dest: Dest::Collector { group },
                payload: Payload::Reply {
                    server,
                    generation,
                    report,
                    sent_seq: seq,
                },
            }));
        }
    }

    /// Delivers the next due message, if any is scheduled at or before
    /// `limit`.  Returns whether a message was delivered.
    pub(crate) fn step(&mut self, limit: u64) -> bool {
        match self.queue.peek() {
            Some(Reverse(m)) if m.deliver_at <= limit => {}
            _ => return false,
        }
        let Reverse(msg) = self.queue.pop().expect("peeked");
        self.now = self.now.max(msg.deliver_at);
        self.stats.delivered += 1;
        self.trace.record(TraceEvent::Deliver {
            seq: msg.seq,
            at: self.now,
        });
        match msg.dest {
            Dest::Server { group, server } => {
                // A dead process consumes nothing; the message is lost at
                // its door.
                if !self.groups[group]
                    .processes
                    .get(server)
                    .is_some_and(|p| p.alive)
                {
                    return true;
                }
                let kind = msg.payload.kind();
                match msg.payload {
                    Payload::Command(cmd, tag) => self.deliver(group, server, kind, cmd, tag),
                    Payload::Kill => self.kill(group, server),
                    Payload::Reply { .. } => unreachable!("replies go to collectors"),
                }
            }
            Dest::Collector { group } => {
                if let Payload::Reply {
                    server,
                    generation,
                    report,
                    sent_seq,
                } = msg.payload
                {
                    let g = &mut self.groups[group];
                    if sent_seq < g.last_reply_seq {
                        self.stats.reordered += 1;
                        self.trace.record(TraceEvent::Reorder { seq: sent_seq });
                    } else {
                        g.last_reply_seq = sent_seq;
                    }
                    g.inbox.push((server, generation, report));
                }
            }
        }
        true
    }

    /// Hands a command to a live server and sends back what it asks for:
    /// a report travels the chaotic network to the collector, another
    /// tagged command's answer is kept for its waiting caller.  A storage
    /// failure takes the process down.
    fn deliver(&mut self, group: usize, server: usize, kind: u8, cmd: ServerCommand, tag: u64) {
        let ps = &mut self.groups[group].processes[server].server;
        let seen = ps.server().events_seen();
        let outcome = ps.handle(cmd);
        let s = ps.server();
        self.trace.record(TraceEvent::Handle {
            group,
            server,
            kind,
            events: (s.events_seen() - seen) as u64,
            state: match s.report() {
                MachineReport::Crashed => u64::MAX,
                MachineReport::State(state) => state as u64,
            },
        });
        let failed = outcome.is_err();
        match outcome {
            Ok(Some(report)) => self.send_reply(group, server, tag, report),
            answer if tag != 0 => self.groups[group].answer = Some((tag, answer.map(|_| ()))),
            _ => {}
        }
        if failed {
            self.kill(group, server);
        }
    }

    /// A power failure (or a storage failure, which stops the process the
    /// same way): the process dies, and with probability `torn` its last
    /// WAL append is interrupted, leaving any prefix of it on storage.
    fn kill(&mut self, group: usize, server: usize) {
        let p = &mut self.groups[group].processes[server];
        p.alive = false;
        self.stats.killed += 1;
        self.trace.record(TraceEvent::Kill { group, server });
        // Only durable processes draw from the chaos stream here, so
        // plain-group seeds replay exactly as before this knob existed.
        let ProcessServer::Durable(durable) = &p.server else {
            return;
        };
        if self.chaos.torn > 0.0 && self.chaos_rng.gen_bool(self.chaos.torn) {
            let name = wal::wal_name(durable.id());
            let append = durable.last_append_len();
            let dropped = tear_wal_tail(&self.store, &name, append, &mut self.chaos_rng);
            if dropped > 0 {
                self.stats.torn_tails += 1;
                self.trace.record(TraceEvent::TornTail {
                    group,
                    server,
                    dropped: dropped as u64,
                });
            }
        }
    }

    /// Delivers everything currently scheduled, at any time.
    pub(crate) fn run_until_idle(&mut self) {
        while self.step(u64::MAX) {}
    }

    /// Advances the clock to `target`, delivering everything due on the
    /// way.
    pub(crate) fn advance_to(&mut self, target: u64) {
        while self.step(target) {}
        self.now = self.now.max(target);
    }

    /// One full report collection for a group: request a report from every
    /// server, run the world until all have answered or nothing more can
    /// arrive before the (virtual) deadline.  Servers that never answered —
    /// dead processes, or every reply copy dropped — yield `None`.
    ///
    /// Stale replies (from a previous collection that gave up) and
    /// duplicate replies are discarded, exactly like the threaded runner's
    /// generation filter.
    pub(crate) fn collect(&mut self, group: usize, timeout: u64) -> Vec<Option<MachineReport>> {
        let n = self.groups[group].processes.len();
        self.groups[group].generation += 1;
        let generation = self.groups[group].generation;
        self.trace.record(TraceEvent::CollectStart {
            group,
            generation,
            at: self.now,
        });
        for server in 0..n {
            let request = Payload::Command(ServerCommand::Report, generation);
            self.send_command(group, server, request);
        }
        let deadline = self.now.saturating_add(timeout);
        let mut out: Vec<Option<MachineReport>> = vec![None; n];
        let mut received = 0usize;
        loop {
            let replies: Vec<(usize, u64, MachineReport)> =
                self.groups[group].inbox.drain(..).collect();
            for (server, gen, report) in replies {
                if gen == generation && out[server].is_none() {
                    out[server] = Some(report);
                    received += 1;
                }
            }
            if received == n {
                break;
            }
            if !self.step(deadline) {
                // Nothing else can arrive in time: the collection waits out
                // its deadline (virtual time is free) and gives up on the
                // missing servers.
                self.now = self.now.max(deadline);
                break;
            }
        }
        self.trace.record(TraceEvent::CollectDone {
            group,
            generation,
            missing: n - received,
            at: self.now,
        });
        out
    }

    /// Sends server `server` a resync and runs the world until it has been
    /// delivered, returning the server's answer: the snapshot's storage
    /// error, or [`DistsysError::ServerDown`] if the process was dead when
    /// the resync reached it.
    pub(crate) fn resync(
        &mut self,
        group: usize,
        server: usize,
        seq: u64,
        state: StateId,
    ) -> Result<()> {
        self.groups[group].generation += 1;
        let ticket = self.groups[group].generation;
        let cmd = Payload::Command(ServerCommand::Resync(seq, state), ticket);
        self.send_command(group, server, cmd);
        // The resync is the last message sent: deliver up to it.
        let msg = self.next_seq;
        while self.queue.iter().any(|Reverse(m)| m.seq == msg) {
            self.step(u64::MAX);
        }
        match self.groups[group].answer.take() {
            Some((t, answer)) if t == ticket => answer,
            _ => Err(DistsysError::ServerDown { server }),
        }
    }

    /// Restarts a killed durable process from its durable state: snapshot +
    /// WAL-suffix replay (torn tail dropped), then the process is alive
    /// again at the returned [`ReplayStats::acked_seq`].
    pub(crate) fn restart(&mut self, group: usize, server: usize) -> Result<ReplayStats> {
        let (machine, id) = {
            let g = &self.groups[group];
            let Some(p) = g.processes.get(server) else {
                return Err(DistsysError::NoSuchServer {
                    server,
                    count: g.processes.len(),
                });
            };
            if p.alive {
                return Err(DistsysError::ServerUp { server });
            }
            let Some(id) = p.server.durable_id() else {
                return Err(DistsysError::NotDurable { server });
            };
            (g.machines[server].clone(), id.to_string())
        };
        let cfg = self.groups[group]
            .durability
            .clone()
            .expect("durable process implies durable group");
        let (recovered, stats) = DurableServer::recover(machine, self.store.clone(), id, &cfg)?;
        let p = &mut self.groups[group].processes[server];
        p.server = ProcessServer::Durable(recovered);
        p.alive = true;
        self.stats.restarts += 1;
        self.trace.record(TraceEvent::Restart {
            group,
            server,
            acked: stats.acked_seq,
        });
        Ok(stats)
    }

    /// Tears a group down after draining the queue; processes still alive
    /// yield their final `Server` values.
    pub(crate) fn shutdown_group(&mut self, group: usize) -> Vec<Server> {
        self.run_until_idle();
        self.groups[group]
            .processes
            .drain(..)
            .filter(|p| p.alive)
            .map(|p| p.server.into_server())
            .collect()
    }
}

/// Chops a seeded number of bytes off the log's last append of
/// `append_len` bytes (at least one, possibly all of it), modeling a power
/// failure during that append.  Group commit writes a whole batch's frames
/// in one append, so the cut may fall inside any of them.  Returns how many
/// bytes were dropped (0 if there is no append to tear).
fn tear_wal_tail(store: &SharedStore, name: &str, append_len: usize, rng: &mut SimRng) -> usize {
    let len = crate::storage::with_store(store, |s| s.read(name))
        .expect("in-memory store cannot fail")
        .map_or(0, |bytes| bytes.len());
    let start = len.saturating_sub(append_len);
    if start == len {
        return 0;
    }
    // Keep anywhere from none to all-but-one byte of the last append.
    let cut = rng.gen_range(start..len);
    wal::truncate(store, name, cut).expect("in-memory store cannot fail");
    len - cut
}
