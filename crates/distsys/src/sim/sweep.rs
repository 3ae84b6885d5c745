//! The simulation sweep harness: hundreds of seeded scenarios — workload ×
//! fault schedule × network chaos — each run deterministically and checked
//! for recovery correctness.
//!
//! A [`Scenario`] is one run: which machine set runs, whether fusion or
//! plain replication backs it up, the fault model and budget `f`, the
//! workload, a [`FaultPlan`] over modeled crashes, Byzantine corruptions,
//! process kills and restarts, whether the servers are durable, and how
//! hostile the network is.  One `u64` seed fully determines a scenario
//! through one of two generators: [`Scenario::from_seed`] for the fault
//! sweep (crashes, corruptions and kills up to `f`, on either backend) and
//! [`Scenario::recovery_from_seed`] for the crash-recovery sweep (durable
//! fusion groups whose processes are killed under load and restarted).
//!
//! [`run_scenario`], the one player of a [`FaultPlan`], plays any scenario
//! inside a [`SimEnvironment`]: it rejects a malformed plan
//! ([`FaultPlan::validate`]) as a violation, pushes the workload in seeded
//! batches, fires every fault due at a batch's start, catches each
//! restarted process up by log replay or peer decode (checking the recovery
//! invariants as it goes), and at the end decodes whatever is still faulty
//! or down with the machinery the paper prescribes (Algorithm 3 for fusion,
//! a replica vote for replication), restores the live servers and verifies
//! the whole group against the oracle — recording every divergence as a
//! violation.  [`sweep`] and [`sweep_recovery`] aggregate a seed range of
//! either generator into a [`SweepReport`], which CI runs over ≥200 seeds
//! in release mode.

use std::ops::Range;
use std::time::Duration;

use fsm_dfsm::{Dfsm, Event, Executor, StateId};
use fsm_fusion_core::{FaultModel, MachineReport, ReplicaSet};
use rand::Rng;

use crate::env::{Environment, GroupConfig, ServerGroup};
use crate::error::Result;
use crate::fault::{FaultKind, FaultPlan, ScheduledFault};
use crate::recovery::{DurabilityConfig, RejoinPath};
use crate::scenario::SensorNetwork;
use crate::sim::{NetStats, Seeded, SimEnvironment};
use crate::system::FusedSystem;

/// Substream of the scenario seed that draws the scenario parameters.
const STREAM_PARAMS: u64 = 0;
/// Substream that generates the workload.
const STREAM_WORKLOAD: u64 = 1;
/// Substream that generates the fault schedule.
const STREAM_FAULTS: u64 = 2;
/// Substream that draws the kill/rejoin schedule of recovery scenarios.
const STREAM_RECOVERY: u64 = 3;
/// Substream that draws the lengths of the batches the workload is pushed
/// in.
const STREAM_BATCHES: u64 = 4;

/// Longest batch a sweep pushes in one call.
const MAX_BATCH: usize = 16;

/// How often a collection is retried when replies to live servers keep
/// getting dropped.  With per-reply drop probability ≤ 0.3 the chance of a
/// seed exhausting this is ≈ 0.3³² — and being deterministic, any seed that
/// did would fail reproducibly rather than flakily.
const MAX_COLLECT_ATTEMPTS: usize = 32;

/// Trace-note code recording the scenario parameters.
const NOTE_SCENARIO: u64 = 0x5CE0;
/// Trace-note code recording the decode outcome.
const NOTE_VERDICT: u64 = 0xFA57;
/// Trace-note code recording each rejoin decision.
const NOTE_REJOIN: u64 = 0x4E10;

/// Which backup strategy a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Fused backups (Algorithm 2 generation, Algorithm 3 recovery).
    Fusion,
    /// Plain replication (`f` or `2f` extra copies per machine).
    Replication,
}

/// The machine sets scenarios draw from.
#[derive(Debug, Clone, Copy)]
enum MachineSet {
    /// The paper's Figure 1 pair of mod-3 counters.
    Fig1,
    /// A heterogeneous pair: MESI cache-line protocol + mod-3 counter.
    MesiZc3,
    /// A 3-sensor network of mod-3 counters (the motivating scenario).
    Sensors3,
}

impl MachineSet {
    fn machines(self) -> Vec<Dfsm> {
        match self {
            MachineSet::Fig1 => fsm_machines::fig1_machines(),
            MachineSet::MesiZc3 => vec![fsm_machines::mesi(), fsm_machines::zero_counter_mod3()],
            MachineSet::Sensors3 => SensorNetwork::sensor_machines(3),
        }
    }
}

/// The fault-sweep preset table: every (machine set, backend, model,
/// budget) combination [`Scenario::from_seed`] draws from.  Crash presets
/// must satisfy `dmin > f`, Byzantine presets `dmin > 2f`, for the fusion
/// that Algorithm 2 generates.
#[rustfmt::skip]
const PRESETS: &[(&str, MachineSet, Backend, FaultModel, usize)] = {
    use {Backend::*, FaultModel::*, MachineSet::*};
    &[
        ("fig1/fusion/crash/f1", Fig1, Fusion, Crash, 1),
        ("fig1/fusion/crash/f2", Fig1, Fusion, Crash, 2),
        ("fig1/fusion/byz/f1", Fig1, Fusion, Byzantine, 1),
        ("mesi+zc3/fusion/crash/f1", MesiZc3, Fusion, Crash, 1),
        ("mesi+zc3/fusion/byz/f1", MesiZc3, Fusion, Byzantine, 1),
        ("sensors3/fusion/crash/f1", Sensors3, Fusion, Crash, 1),
        ("fig1/replication/crash/f1", Fig1, Replication, Crash, 1),
        ("mesi+zc3/replication/crash/f2", MesiZc3, Replication, Crash, 2),
        ("sensors3/replication/byz/f1", Sensors3, Replication, Byzantine, 1),
    ]
};

/// The recovery preset table: machine set, crash budget, and whether the
/// scenario rolls kills across `f` victims in sequence or kills once.
/// Recovery scenarios run fusion under the crash model only — a rejoining
/// server trusts its own log, which a Byzantine server cannot.
const RECOVERY_PRESETS: &[(&str, MachineSet, usize, bool)] = {
    use MachineSet::*;
    &[
        ("fig1/fusion/crash/f1/rejoin", Fig1, 1, false),
        ("fig1/fusion/crash/f2/rolling", Fig1, 2, true),
        ("mesi+zc3/fusion/crash/f1/rejoin", MesiZc3, 1, false),
        ("sensors3/fusion/crash/f1/rejoin", Sensors3, 1, false),
    ]
};

/// One fully specified simulation scenario, built from a seed by
/// [`Scenario::from_seed`] or [`Scenario::recovery_from_seed`], or by hand
/// from [`Scenario::new`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed the scenario (and its simulated world) is derived from.
    pub seed: u64,
    /// Human-readable preset name (`"fig1/fusion/crash/f1"`, …).
    pub preset: &'static str,
    /// Fusion or replication.
    pub backend: Backend,
    /// Crash or Byzantine faults.
    pub fault_model: FaultModel,
    /// The fault budget the system is provisioned for.
    pub f: usize,
    /// The original machines.
    pub machines: Vec<Dfsm>,
    /// Number of workload events.
    pub workload_len: usize,
    /// The fault schedule, by index into the spawned group (originals
    /// first, then the fused backups or each machine's replicas).  A fault
    /// at position `k` fires after the first `k` events; a
    /// [`FaultKind::Restart`] also catches its server up to the group.
    pub plan: FaultPlan,
    /// Snapshot cadence of the servers; `None` runs plain in-memory
    /// servers, which cannot be restarted.
    pub snapshot_every: Option<u64>,
    /// Probability that a kill tears the last write-ahead-log append.
    pub torn: f64,
    /// Reply drop probability.
    pub drop: f64,
    /// Reply duplication probability.
    pub duplicate: f64,
    /// Reply reorder-jitter probability.
    pub reorder: f64,
    /// The parameters the run records in its trace: each generator records
    /// its own.
    pub note: Vec<u64>,
}

impl Scenario {
    /// A hand-built fusion scenario: `machines` provisioned for `f` faults
    /// of `fault_model`, a `workload_len`-event workload, no faults, plain
    /// in-memory servers and a quiet network.  Set the other fields with
    /// struct-update syntax.
    pub fn new(
        seed: u64,
        machines: Vec<Dfsm>,
        fault_model: FaultModel,
        f: usize,
        workload_len: usize,
    ) -> Scenario {
        Scenario {
            seed,
            preset: "custom",
            backend: Backend::Fusion,
            fault_model,
            f,
            machines,
            workload_len,
            plan: FaultPlan::default(),
            snapshot_every: None,
            torn: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            note: Vec::new(),
        }
    }

    /// Derives a fault-sweep scenario from one seed.  Fault counts never
    /// exceed the preset's budget `f`; crash budgets are split between
    /// modeled crashes and process kills, Byzantine budgets go entirely to
    /// explicit corruptions (a kill would *add* a crash fault on top of `f`
    /// lies).
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = Seeded(seed).split(STREAM_PARAMS).rng();
        let (preset, set, backend, fault_model, f) = PRESETS[rng.gen_range(0..PRESETS.len())];
        let workload_len = rng.gen_range(20..=100usize);
        let budget = rng.gen_range(0..=f);
        let (modeled_crashes, kills, corruptions) = match fault_model {
            FaultModel::Crash => {
                let kills = rng.gen_range(0..=budget);
                (budget - kills, kills, 0)
            }
            FaultModel::Byzantine => (0, 0, budget),
        };
        let drop = rng.gen_range(0..=30u32) as f64 / 100.0;
        let duplicate = rng.gen_range(0..=20u32) as f64 / 100.0;
        let reorder = rng.gen_range(0..=30u32) as f64 / 100.0;
        let mut scenario = Scenario {
            preset,
            backend,
            drop,
            duplicate,
            reorder,
            note: vec![
                matches!(backend, Backend::Replication) as u64,
                matches!(fault_model, FaultModel::Byzantine) as u64,
                f as u64,
                workload_len as u64,
                modeled_crashes as u64,
                kills as u64,
                corruptions as u64,
            ],
            ..Scenario::new(seed, set.machines(), fault_model, f, workload_len)
        };
        // Distinct victims at seeded workload positions.  Crash budgets
        // draw a crash plan and turn its first `kills` entries into process
        // kills; Byzantine budgets draw explicit in-range lies.
        let roster = scenario.servers().map(|(r, _)| r).unwrap_or_default();
        let faults = Seeded(seed).split(STREAM_FAULTS);
        scenario.plan = match fault_model {
            FaultModel::Crash => {
                let mut plan =
                    faults.crash_plan(roster.len(), modeled_crashes + kills, workload_len);
                for fault in plan.faults.iter_mut().take(kills) {
                    fault.kind = FaultKind::Kill;
                }
                plan
            }
            FaultModel::Byzantine => {
                let sizes: Vec<usize> = roster.iter().map(|m| m.size()).collect();
                faults.explicit_corruption_plan(&sizes, corruptions, workload_len)
            }
        };
        scenario
    }

    /// Derives a crash-recovery scenario from one seed: a durable fusion
    /// group under the crash model whose processes are killed under load
    /// and restarted, one at a time, each kill in its own disjoint window
    /// of the workload, so every victim rejoins before the run ends.
    /// Victims may repeat across windows — a server crashing twice is
    /// exactly how sequence regression would show.
    pub fn recovery_from_seed(seed: u64) -> Scenario {
        let mut rng = Seeded(seed).split(STREAM_PARAMS).rng();
        let (preset, set, f, rolling) = RECOVERY_PRESETS[rng.gen_range(0..RECOVERY_PRESETS.len())];
        let workload_len = rng.gen_range(40..=120usize);
        let snapshot_every = rng.gen_range(1..=48u64);
        let torn = rng.gen_range(0..=60u32) as f64 / 100.0;
        let drop = rng.gen_range(0..=20u32) as f64 / 100.0;
        let duplicate = rng.gen_range(0..=15u32) as f64 / 100.0;
        let reorder = rng.gen_range(0..=20u32) as f64 / 100.0;
        let mut scenario = Scenario {
            preset,
            snapshot_every: Some(snapshot_every),
            torn,
            drop,
            duplicate,
            reorder,
            note: vec![
                2, // recovery-scenario marker (0/1 are the plain backends)
                f as u64,
                workload_len as u64,
                rolling as u64,
                snapshot_every,
            ],
            ..Scenario::new(seed, set.machines(), FaultModel::Crash, f, workload_len)
        };
        let Ok((roster, _)) = scenario.servers() else {
            return scenario;
        };
        let mut rng = Seeded(seed).split(STREAM_RECOVERY).rng();
        let kills = if rolling { f.max(1) } else { 1 };
        let span = (workload_len - 1) / kills;
        for k in 0..kills {
            let lo = 1 + k * span;
            let hi = lo + span - 1;
            let kill_pos = rng.gen_range(lo..hi);
            let rejoin_pos = rng.gen_range(kill_pos + 1..=hi);
            let server = rng.gen_range(0..roster.len());
            for (after_event, kind) in [
                (kill_pos, FaultKind::Kill),
                (rejoin_pos, FaultKind::Restart),
            ] {
                scenario.plan.faults.push(ScheduledFault {
                    after_event,
                    server,
                    kind,
                });
            }
        }
        scenario
    }

    /// Process kills the plan schedules.
    pub fn kills(&self) -> usize {
        self.plan
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::Kill)
            .count()
    }

    /// The machines the scenario's group runs (originals first, then the
    /// fused backups or the replicas) and the decoder for their reports.
    fn servers(&self) -> Result<(Vec<Dfsm>, Decoder)> {
        match self.backend {
            Backend::Fusion => {
                let sys = FusedSystem::new(&self.machines, self.f, self.fault_model)?;
                Ok((sys.all_machines(), Decoder::Fusion(Box::new(sys))))
            }
            Backend::Replication => {
                let per = self.fault_model.copies_per_machine(self.f) + 1;
                let roster = self
                    .machines
                    .iter()
                    .flat_map(|m| std::iter::repeat(m).take(per).cloned())
                    .collect();
                let sets = self
                    .machines
                    .iter()
                    .map(|m| ReplicaSet::new(m.clone(), self.f, self.fault_model))
                    .collect();
                Ok((roster, Decoder::Replication(sets)))
            }
        }
    }
}

/// How the reports of a scenario's group are decoded into every server's
/// state.
enum Decoder {
    /// Algorithm 3 over the fused system's partitions.
    Fusion(Box<FusedSystem>),
    /// A vote among each machine's consecutive copies.
    Replication(Vec<ReplicaSet>),
}

impl Decoder {
    /// Every server's state decoded from `reports`.  A silent server
    /// (`None`) is indistinguishable from a crashed one: both are erasures.
    fn decode(
        &mut self,
        reports: &[Option<MachineReport>],
    ) -> std::result::Result<Vec<StateId>, String> {
        match self {
            Decoder::Fusion(sys) => {
                let reports: Vec<MachineReport> = reports
                    .iter()
                    .map(|r| r.clone().unwrap_or(MachineReport::Crashed))
                    .collect();
                sys.recover_external(&reports)
                    .map(|ext| ext.states)
                    .map_err(|e| format!("fusion recovery failed: {e}"))
            }
            Decoder::Replication(sets) => {
                let per = reports.len() / sets.len();
                let mut states = Vec::with_capacity(reports.len());
                for (set, copies) in sets.iter().zip(reports.chunks(per)) {
                    let votes: Vec<Option<usize>> = copies
                        .iter()
                        .map(|r| match r {
                            Some(MachineReport::State(s)) => Some(*s),
                            _ => None,
                        })
                        .collect();
                    let state = set
                        .recover(&votes)
                        .map_err(|e| format!("replication recovery failed: {e}"))?;
                    states.extend(std::iter::repeat(StateId(state)).take(per));
                }
                Ok(states)
            }
        }
    }
}

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario seed.
    pub seed: u64,
    /// The preset that ran.
    pub preset: &'static str,
    /// Fusion or replication.
    pub backend: Backend,
    /// Crash or Byzantine.
    pub fault_model: FaultModel,
    /// The world's rolling trace hash at the end of the run — the replay
    /// identity: running the same seed again must reproduce it bit for bit.
    pub trace_hash: u64,
    /// Number of trace events recorded.
    pub trace_len: usize,
    /// What the network did.
    pub stats: NetStats,
    /// Faults actually injected (restarts are not faults).
    pub injected: usize,
    /// Process kills among them.
    pub kills: usize,
    /// Killed processes brought back up from durable state.
    pub restarts: usize,
    /// Rejoins that caught up by replaying the missed workload suffix.
    pub replays: usize,
    /// Rejoins that adopted a peer-decoded state (Algorithm 3 resync).
    pub peer_resyncs: usize,
    /// Batches a durable server committed in more than one append because
    /// they crossed a snapshot boundary, counted per server.
    pub split_batches: usize,
    /// Virtual nanoseconds the world had consumed when the run finished.
    pub virtual_nanos: u64,
    /// Every detected divergence from the oracle (empty = correct run).
    pub violations: Vec<String>,
}

impl ScenarioOutcome {
    /// Whether the run recovered correctly end to end.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Collects reports, retrying while replies from servers that should
/// answer are missing (dropped); servers for which `silent` holds are not
/// waited for.  Attempts are merged: the servers are quiescent during
/// collection, so a report heard in any attempt is the server's final
/// answer.
fn collect_until_settled(
    group: &mut dyn ServerGroup,
    silent: impl Fn(usize) -> bool,
) -> Vec<Option<MachineReport>> {
    let mut merged = group.try_collect_reports();
    for _ in 1..MAX_COLLECT_ATTEMPTS {
        let settled = merged
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_some() || silent(i));
        if settled {
            break;
        }
        for (slot, heard) in merged.iter_mut().zip(group.try_collect_reports()) {
            if slot.is_none() {
                *slot = heard;
            }
        }
    }
    merged
}

/// Splits the workload `0..len` into the batches a sweep pushes: seeded
/// lengths of 1 to [`MAX_BATCH`] events, cut at every position in `cuts`,
/// so a fault scheduled after event `k` still lands between events `k` and
/// `k + 1`.
fn batch_ranges(seed: u64, len: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut rng = Seeded(seed).split(STREAM_BATCHES).rng();
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let cut = cuts
            .iter()
            .copied()
            .filter(|&c| c > start)
            .fold(len, usize::min);
        let end = (start + rng.gen_range(1..=MAX_BATCH)).min(cut);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs one scenario inside a fresh simulated world and checks it end to
/// end: push the workload in seeded batches (cut at every scheduled
/// fault), fire every fault due at a batch's start, catch each restarted
/// process up, then collect the reports, decode whatever is still faulty or
/// down (fusion's Algorithm 3 or replication's per-machine vote), restore
/// every live server and re-verify against the oracle.
///
/// A restart asserts the recovery invariants: no acked event lost (the
/// acknowledged sequence number equals the kill position, or falls short
/// of it by at most the events of the last append when that append was
/// torn), sequence numbers never regress, every snapshot lands on the
/// server's cadence (a multiple of `snapshot_every` past its last resync),
/// and the replayed state matches an uninterrupted run of the log prefix.
/// The server then catches up by the cheaper of log replay and peer decode
/// ([`RejoinPath::choose`]).
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let env = Seeded(scenario.seed)
        .sim()
        .drop_probability(scenario.drop)
        .duplicate_probability(scenario.duplicate)
        .reorder_probability(scenario.reorder)
        .torn_write_probability(scenario.torn)
        .build();
    let workload = Seeded(scenario.seed)
        .split(STREAM_WORKLOAD)
        .workload_over_machines(&scenario.machines, scenario.workload_len);
    let mut outcome = ScenarioOutcome {
        seed: scenario.seed,
        preset: scenario.preset,
        backend: scenario.backend,
        fault_model: scenario.fault_model,
        trace_hash: 0,
        trace_len: 0,
        stats: NetStats::default(),
        injected: 0,
        kills: 0,
        restarts: 0,
        replays: 0,
        peer_resyncs: 0,
        split_batches: 0,
        virtual_nanos: 0,
        violations: Vec::new(),
    };
    // A malformed plan is reported before anything is spawned.
    let built = match scenario.servers() {
        Ok((roster, decoder)) => {
            let sizes: Vec<usize> = roster.iter().map(Dfsm::size).collect();
            match scenario.plan.validate(&sizes, workload.events().len()) {
                Ok(()) => Ok((roster, decoder)),
                Err(e) => Err(e.to_string()),
            }
        }
        Err(e) => Err(format!("construction failed: {e}")),
    };
    match built {
        Ok((roster, decoder)) => {
            env.note(NOTE_SCENARIO, &scenario.note);
            let mut config = GroupConfig::new().collect_timeout(Duration::from_secs(2));
            if let Some(every) = scenario.snapshot_every {
                config = config.durable_with(DurabilityConfig::new().snapshot_every(every));
            }
            let n = roster.len();
            let mut run = Run {
                scenario,
                events: workload.events(),
                group: env.spawn_group(&roster, &config),
                env: &env,
                oracle: roster.into_iter().map(Executor::new).collect(),
                decoder,
                down: vec![None; n],
                faulty: vec![false; n],
                snapshot_base: vec![0; n],
                last_acked: vec![0; n],
                last_append: vec![0; n],
                torn_seen: 0,
                outcome: &mut outcome,
            };
            run.play();
            run.end();
            let verdict = [outcome.violations.len() as u64, outcome.injected as u64];
            env.note(NOTE_VERDICT, &verdict);
        }
        Err(violation) => {
            env.note(NOTE_VERDICT, &[u64::MAX]);
            outcome.violations.push(violation);
        }
    }
    ScenarioOutcome {
        trace_hash: env.trace_hash(),
        trace_len: env.trace_len(),
        stats: env.net_stats(),
        virtual_nanos: env.now().as_nanos() as u64,
        ..outcome
    }
}

/// A scenario being played: its world, its group, and what the checks
/// compare against.
struct Run<'a> {
    scenario: &'a Scenario,
    env: &'a SimEnvironment,
    events: &'a [Event],
    group: Box<dyn ServerGroup>,
    /// Every server's machine, run on the events pushed so far.
    oracle: Vec<Executor>,
    decoder: Decoder,
    /// Per server: the position it was killed at, while it is down.
    down: Vec<Option<u64>>,
    /// Per server: crashed or corrupted, and not restored since.
    faulty: Vec<bool>,
    /// Per server: its snapshots fall on `base + k * snapshot_every`, where
    /// `base` is its last resync's sequence number (else 0).
    snapshot_base: Vec<u64>,
    /// Per server: the sequence number it was last caught up to.
    last_acked: Vec<u64>,
    /// Per server: the events of its last write-ahead-log append still on
    /// storage — what a kill may tear.
    last_append: Vec<u64>,
    /// Torn tails the world had counted at the last restart.
    torn_seen: u64,
    outcome: &'a mut ScenarioOutcome,
}

impl Run<'_> {
    /// Pushes the workload batch by batch, firing every fault due at a
    /// batch's start.
    fn play(&mut self) {
        let (faults, events) = (&self.scenario.plan.faults, self.events);
        let cuts: Vec<usize> = faults.iter().map(|f| f.after_event).collect();
        let len = events.len();
        let mut next = 0;
        // A last, empty batch fires the faults due after the final event.
        for batch in batch_ranges(self.scenario.seed, len, &cuts)
            .into_iter()
            .chain(std::iter::once(len..len))
        {
            let pos = batch.start as u64;
            while let Some(&fault) = faults.get(next).filter(|f| f.after_event <= batch.start) {
                next += 1;
                let i = fault.server;
                match fault.kind {
                    FaultKind::Crash => {
                        self.group.crash(i);
                        self.faulty[i] = true;
                    }
                    FaultKind::Corrupt(state) => {
                        self.group.corrupt(i, state);
                        self.faulty[i] = true;
                    }
                    FaultKind::Kill => {
                        self.group.kill_process(i);
                        self.down[i] = Some(pos);
                        self.outcome.kills += 1;
                    }
                    FaultKind::Restart => self.restart(i, pos),
                }
                self.outcome.injected += usize::from(fault.kind != FaultKind::Restart);
            }
            if batch.is_empty() {
                continue;
            }
            for i in 0..self.oracle.len() {
                if self.down[i].is_none() {
                    self.book_append(i, pos, batch.end as u64);
                }
            }
            let batch = &events[batch];
            self.group.apply_batch(batch);
            for ex in &mut self.oracle {
                ex.apply_all(batch);
            }
        }
    }

    /// Books the batch `start..end` that live server `i` commits: a healthy
    /// durable server appends it in pieces split at its snapshot
    /// boundaries, an unhealthy one in one piece.
    fn book_append(&mut self, i: usize, start: u64, end: u64) {
        let Some(every) = self.scenario.snapshot_every else {
            return;
        };
        let base = self.snapshot_base[i];
        let last = if self.faulty[i] {
            start
        } else {
            start.max(base + (end - 1 - base) / every * every)
        };
        self.outcome.split_batches += usize::from(last > start);
        self.last_append[i] = end - last;
    }

    /// Brings killed server `victim` back from its durable state, checks
    /// the recovery invariants, and catches it up to the group at `pos`.
    fn restart(&mut self, victim: usize, pos: u64) {
        // Drain the world first: commands queued to the dead process must
        // be dropped *before* it comes back, exactly as a real network
        // flushes in-flight packets to a dead port.
        self.env.run_until_idle();
        // A tear may cut at a frame boundary, leaving a *clean* shorter log
        // — `ReplayStats` then reports no torn bytes, so tears are counted
        // by the world.  One process is down at a time, so a new tear is
        // the victim's.
        let torn_now = self.env.net_stats().torn_tails;
        let torn = torn_now > self.torn_seen;
        self.torn_seen = torn_now;
        let stats = match self.group.restart_process(victim) {
            Ok(stats) => stats,
            Err(e) => {
                let failed = format!("restart of {victim} failed: {e}");
                return self.outcome.violations.push(failed);
            }
        };
        self.outcome.restarts += 1;
        // Recovery rebuilds the state from the log, healing a crash or a
        // corruption the process suffered before it was killed.
        self.faulty[victim] = false;
        let killed_at = self.down[victim].take().unwrap_or(pos);
        let appended = std::mem::take(&mut self.last_append[victim]);
        let acked = stats.acked_seq;
        let violations = &mut self.outcome.violations;
        // No acked event may be lost.  A tear cuts into the append in
        // flight at the kill, none of whose events was acknowledged; every
        // earlier append survives.
        let lost = killed_at.checked_sub(acked);
        if !(lost == Some(0) || (torn && lost.is_some_and(|l| l <= appended))) {
            violations.push(format!(
                "server {victim}: recovered acked {acked} after kill at {killed_at} \
                 (torn {} bytes of a {appended}-event append)",
                stats.torn_tail_bytes
            ));
        }
        if acked < self.last_acked[victim] {
            violations.push(format!(
                "server {victim}: acked regressed {} -> {acked}",
                self.last_acked[victim]
            ));
        }
        // Group commit splits batches at snapshot boundaries, so every
        // snapshot lands on the server's cadence.
        let every = self.scenario.snapshot_every.unwrap_or(1);
        let base = self.snapshot_base[victim];
        if stats.snapshot_seq < base || (stats.snapshot_seq - base) % every != 0 {
            violations.push(format!(
                "server {victim}: snapshot at {} is off the cadence {every} from {base}",
                stats.snapshot_seq
            ));
        }
        // Snapshot + replay must equal an uninterrupted run of the acked
        // prefix.
        let mut prefix = Executor::new(self.oracle[victim].machine().clone());
        let want = prefix.apply_all(self.events.iter().take(acked as usize));
        if stats.state != want {
            violations.push(format!(
                "server {victim}: replayed state {} != prefix oracle {}",
                stats.state.index(),
                want.index()
            ));
        }
        // Catch up to the group: replay the missed suffix from the shared
        // event stream, or decode the current state from live peers when
        // the gap is too wide (Algorithm 3).
        let path = RejoinPath::choose(acked, pos);
        let code = match path {
            RejoinPath::Current => 0,
            RejoinPath::Replay { .. } => 1,
            RejoinPath::PeerDecode { .. } => 2,
        };
        self.env
            .note(NOTE_REJOIN, &[victim as u64, acked, pos, code]);
        match path {
            RejoinPath::Current => {}
            RejoinPath::Replay { .. } => {
                self.outcome.replays += 1;
                self.book_append(victim, acked, pos);
                let missed = &self.events[acked as usize..pos as usize];
                self.group.apply_batch_to(victim, missed);
            }
            RejoinPath::PeerDecode { .. } => {
                self.outcome.peer_resyncs += 1;
                let down = &self.down;
                let mut reports =
                    collect_until_settled(&mut *self.group, |i| i == victim || down[i].is_some());
                reports[victim] = None;
                if let Some(states) = self.decode(&reports, "peer decode") {
                    match self.group.resync(victim, pos, states[victim]) {
                        Ok(()) => self.snapshot_base[victim] = pos,
                        Err(e) => {
                            let failed = format!("resync of {victim} failed: {e}");
                            self.outcome.violations.push(failed);
                        }
                    }
                }
            }
        }
        self.last_acked[victim] = pos;
    }

    /// Decodes every server's state from `reports` and checks it against
    /// the oracle; `None` (with the violations recorded) if the decode
    /// failed or diverged.
    fn decode(&mut self, reports: &[Option<MachineReport>], what: &str) -> Option<Vec<StateId>> {
        let states = match self.decoder.decode(reports) {
            Ok(states) => states,
            Err(e) => {
                self.outcome.violations.push(format!("{what}: {e}"));
                return None;
            }
        };
        let before = self.outcome.violations.len();
        for (i, (state, ex)) in states.iter().zip(&self.oracle).enumerate() {
            if *state != ex.current() {
                self.outcome.violations.push(format!(
                    "{what}: server {i} decoded to {} != oracle {}",
                    state.index(),
                    ex.current().index()
                ));
            }
        }
        (self.outcome.violations.len() == before).then_some(states)
    }

    /// The run's last step: collect, decode whatever is still faulty or
    /// down, restore the live servers (killed processes stay dark, as after
    /// a real power failure), and verify every report against the oracle.
    fn end(&mut self) {
        let down = &self.down;
        let mut reports = collect_until_settled(&mut *self.group, |i| down[i].is_some());
        if self.faulty.contains(&true) || self.down.iter().any(Option::is_some) {
            let Some(states) = self.decode(&reports, "recovery") else {
                return;
            };
            for (i, state) in states.into_iter().enumerate() {
                if self.down[i].is_none() {
                    self.group.restore(i, state);
                }
            }
            let down = &self.down;
            reports = collect_until_settled(&mut *self.group, |i| down[i].is_some());
        }
        for (i, report) in reports.iter().enumerate() {
            let want = self.oracle[i].current().index();
            match report {
                Some(MachineReport::State(s)) if *s == want => {}
                None if self.down[i].is_some() => {}
                other => self.outcome.violations.push(format!(
                    "server {i}: reported {other:?} at the end, expected state {want}"
                )),
            }
        }
    }
}

/// Aggregate results of a seed sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Scenarios run.
    pub scenarios: usize,
    /// Scenarios with no violations.
    pub passed: usize,
    /// Runs on the fusion backend.
    pub fusion_runs: usize,
    /// Runs on the replication backend.
    pub replication_runs: usize,
    /// Runs under the crash fault model.
    pub crash_runs: usize,
    /// Runs under the Byzantine fault model.
    pub byzantine_runs: usize,
    /// Faults injected across all runs.
    pub faults_injected: usize,
    /// Process kills among them.
    pub kills: usize,
    /// Killed processes brought back from durable state.
    pub restarts: usize,
    /// Rejoins that replayed the missed workload suffix from the log.
    pub replays: usize,
    /// Rejoins that adopted a peer-decoded state (Algorithm 3 resync).
    pub peer_resyncs: usize,
    /// Batches a durable server split at a snapshot boundary.
    pub split_batches: usize,
    /// Network chaos counters summed over all runs.
    pub stats: NetStats,
    /// Every violation, tagged with its seed.
    pub violations: Vec<(u64, String)>,
}

impl SweepReport {
    /// Whether every scenario recovered correctly.
    pub fn all_passed(&self) -> bool {
        self.violations.is_empty() && self.passed == self.scenarios
    }

    /// Whether the sweep actually exercised the chaos it is meant to cover:
    /// drops, reorders, kills, and both backends under both fault models.
    pub fn chaos_covered(&self) -> bool {
        self.stats.dropped > 0
            && self.stats.reordered > 0
            && self.stats.duplicated > 0
            && self.kills > 0
            && self.fusion_runs > 0
            && self.replication_runs > 0
            && self.crash_runs > 0
            && self.byzantine_runs > 0
    }

    /// Whether a recovery sweep exercised every rejoin mechanism it gates:
    /// restarts from durable state, log-replay catch-up, peer-decode resync,
    /// at least one torn WAL append survived, and group commit split a
    /// batch at a snapshot boundary.
    pub fn recovery_covered(&self) -> bool {
        self.restarts > 0
            && self.replays > 0
            && self.peer_resyncs > 0
            && self.stats.torn_tails > 0
            && self.split_batches > 0
    }

    fn absorb(&mut self, outcome: &ScenarioOutcome) {
        self.scenarios += 1;
        if outcome.is_ok() {
            self.passed += 1;
        }
        match outcome.backend {
            Backend::Fusion => self.fusion_runs += 1,
            Backend::Replication => self.replication_runs += 1,
        }
        match outcome.fault_model {
            FaultModel::Crash => self.crash_runs += 1,
            FaultModel::Byzantine => self.byzantine_runs += 1,
        }
        self.faults_injected += outcome.injected;
        self.kills += outcome.kills;
        self.restarts += outcome.restarts;
        self.replays += outcome.replays;
        self.peer_resyncs += outcome.peer_resyncs;
        self.split_batches += outcome.split_batches;
        self.stats.absorb(&outcome.stats);
        for v in &outcome.violations {
            self.violations.push((outcome.seed, v.clone()));
        }
    }
}

/// Runs the scenarios `generate` derives from the seeds
/// `first_seed..first_seed + count` and aggregates the results.
fn sweep_with(first_seed: u64, count: usize, generate: fn(u64) -> Scenario) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in first_seed..first_seed + count as u64 {
        report.absorb(&run_scenario(&generate(seed)));
    }
    report
}

/// Runs the fault-sweep scenarios ([`Scenario::from_seed`]) for the seeds
/// `first_seed..first_seed + count` and aggregates the results.
pub fn sweep(first_seed: u64, count: usize) -> SweepReport {
    sweep_with(first_seed, count, Scenario::from_seed)
}

/// Runs the crash-recovery scenarios ([`Scenario::recovery_from_seed`])
/// for the seeds `first_seed..first_seed + count` and aggregates the
/// results.
pub fn sweep_recovery(first_seed: u64, count: usize) -> SweepReport {
    sweep_with(first_seed, count, Scenario::recovery_from_seed)
}

/// Cost counters for one backend across a comparison run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendCost {
    /// Scenarios run on this backend.
    pub runs: usize,
    /// Servers spawned across all runs (originals + backups / replicas).
    pub servers: usize,
    /// Messages handed to the simulated network.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Virtual nanoseconds consumed.
    pub virtual_nanos: u64,
    /// Runs that violated recovery.
    pub violations: usize,
}

impl BackendCost {
    fn absorb(&mut self, outcome: &ScenarioOutcome, servers: usize) {
        self.runs += 1;
        self.servers += servers;
        self.messages_sent += outcome.stats.sent;
        self.messages_delivered += outcome.stats.delivered;
        self.virtual_nanos += outcome.virtual_nanos;
        self.violations += usize::from(!outcome.is_ok());
    }
}

/// Runs the same seeds — identical machine sets, workloads and one modeled
/// crash — once fused and once replicated on a quiet network, and returns
/// the accumulated cost of each backend (message counts and virtual
/// latency).  The paper's overhead argument, measured instead of asserted.
/// The network drops, duplicates and reorders nothing, so the figures
/// measure the backends rather than which replies chaos happened to drop.
pub fn compare_backends(first_seed: u64, count: usize) -> (BackendCost, BackendCost) {
    let mut fusion = BackendCost::default();
    let mut replication = BackendCost::default();
    for seed in first_seed..first_seed + count as u64 {
        let mut rng = Seeded(seed).split(STREAM_PARAMS).rng();
        let set =
            [MachineSet::Fig1, MachineSet::MesiZc3, MachineSet::Sensors3][rng.gen_range(0..3usize)];
        let workload_len = rng.gen_range(20..=100usize);
        for backend in [Backend::Fusion, Backend::Replication] {
            let replicated = matches!(backend, Backend::Replication) as u64;
            let mut scenario = Scenario {
                preset: "compare/crash/f1",
                backend,
                // A fault-sweep note: one modeled crash under f = 1.
                note: vec![replicated, 0, 1, workload_len as u64, 1, 0, 0],
                ..Scenario::new(seed, set.machines(), FaultModel::Crash, 1, workload_len)
            };
            let servers = scenario.servers().map_or(0, |(roster, _)| roster.len());
            scenario.plan = Seeded(seed)
                .split(STREAM_FAULTS)
                .crash_plan(servers, 1, workload_len);
            let outcome = run_scenario(&scenario);
            match backend {
                Backend::Fusion => fusion.absorb(&outcome, servers),
                Backend::Replication => replication.absorb(&outcome, servers),
            }
        }
    }
    (fusion, replication)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_reproducible_and_within_budget() {
        for seed in 0..50u64 {
            let a = Scenario::from_seed(seed);
            let b = Scenario::from_seed(seed);
            assert_eq!(a.preset, b.preset);
            assert_eq!(a.workload_len, b.workload_len);
            assert_eq!(a.plan.faults, b.plan.faults);
            assert!(a.plan.len() <= a.f, "seed {seed}");
            assert!((20..=100).contains(&a.workload_len));
            assert!(a.drop <= 0.30 && a.duplicate <= 0.20 && a.reorder <= 0.30);
        }
    }

    #[test]
    fn same_seed_replays_the_identical_world() {
        for seed in [3u64, 17, 40] {
            let s = Scenario::from_seed(seed);
            let a = run_scenario(&s);
            let b = run_scenario(&s);
            assert_eq!(a.trace_hash, b.trace_hash, "seed {seed}");
            assert_eq!(a.trace_len, b.trace_len, "seed {seed}");
            assert_eq!(a.stats, b.stats, "seed {seed}");
        }
    }

    #[test]
    fn mini_sweep_recovers_every_scenario() {
        let report = sweep(100, 30);
        assert_eq!(report.scenarios, 30);
        assert!(
            report.all_passed(),
            "violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
    }

    #[test]
    fn a_larger_sweep_covers_all_chaos_modes() {
        let report = sweep(0, 60);
        assert!(report.all_passed(), "violations: {:?}", report.violations);
        assert!(report.chaos_covered(), "coverage gap: {report:?}");
        assert!(report.faults_injected > 0);
    }

    #[test]
    fn recovery_scenarios_are_reproducible_and_bounded() {
        for seed in 0..50u64 {
            let a = Scenario::recovery_from_seed(seed);
            let b = Scenario::recovery_from_seed(seed);
            assert_eq!(a.preset, b.preset);
            assert_eq!(a.workload_len, b.workload_len);
            assert_eq!(a.snapshot_every, b.snapshot_every);
            assert!((40..=120).contains(&a.workload_len));
            assert!(a
                .snapshot_every
                .is_some_and(|every| (1..=48).contains(&every)));
            assert!(a.kills() >= 1 && a.kills() <= a.f.max(1));
            assert!(a.torn <= 0.60 && a.drop <= 0.20 && a.reorder <= 0.20);
        }
    }

    #[test]
    fn recovery_scenarios_replay_the_identical_world() {
        for seed in [2u64, 19, 41] {
            let s = Scenario::recovery_from_seed(seed);
            let a = run_scenario(&s);
            let b = run_scenario(&s);
            assert_eq!(a.trace_hash, b.trace_hash, "seed {seed}");
            assert_eq!(a.trace_len, b.trace_len, "seed {seed}");
            assert_eq!(a.stats, b.stats, "seed {seed}");
            assert_eq!(a.restarts, b.restarts, "seed {seed}");
        }
    }

    #[test]
    fn mini_recovery_sweep_loses_no_acked_events() {
        let report = sweep_recovery(0, 40);
        assert_eq!(report.scenarios, 40);
        assert!(
            report.all_passed(),
            "violations: {:?}",
            &report.violations[..report.violations.len().min(5)]
        );
        assert!(report.restarts > 0);
        assert!(
            report.recovery_covered(),
            "coverage gap: restarts {} replays {} peer_resyncs {} torn {} splits {}",
            report.restarts,
            report.replays,
            report.peer_resyncs,
            report.stats.torn_tails,
            report.split_batches
        );
    }

    /// A durable fusion group (fig1, f = 2) under one schedule that neither
    /// generator draws: a modeled crash, then a kill and a restart of
    /// another server, then a final decode of the crashed one.  A short
    /// outage rejoins by log replay; a long one by peer decode with the
    /// crashed server erased too, which takes the whole budget `f = 2`.
    #[test]
    fn a_mixed_schedule_crashes_kills_restarts_and_decodes() {
        let fault = |after_event, server, kind| ScheduledFault {
            after_event,
            server,
            kind,
        };
        for (restart_at, replays, peer_resyncs) in [(15, 1, 0), (45, 0, 1)] {
            let scenario = Scenario {
                preset: "fig1/fusion/crash/f2/mixed",
                plan: FaultPlan {
                    faults: vec![
                        fault(3, 2, FaultKind::Crash),
                        fault(10, 0, FaultKind::Kill),
                        fault(restart_at, 0, FaultKind::Restart),
                    ],
                },
                snapshot_every: Some(8),
                torn: 1.0,
                drop: 0.1,
                duplicate: 0.1,
                reorder: 0.1,
                ..Scenario::new(5, fsm_machines::fig1_machines(), FaultModel::Crash, 2, 60)
            };
            let outcome = run_scenario(&scenario);
            assert!(outcome.is_ok(), "violations: {:?}", outcome.violations);
            assert_eq!(outcome.injected, 2);
            assert_eq!(outcome.kills, 1);
            assert_eq!(outcome.restarts, 1);
            assert_eq!(outcome.replays, replays);
            assert_eq!(outcome.peer_resyncs, peer_resyncs);
            assert!(outcome.split_batches > 0);
        }
    }

    #[test]
    fn backend_comparison_runs_clean_and_counts_costs() {
        let (fusion, replication) = compare_backends(0, 6);
        assert_eq!(fusion.runs, 6);
        assert_eq!(replication.runs, 6);
        assert_eq!(fusion.violations, 0, "fusion runs must recover");
        assert_eq!(replication.violations, 0, "replication runs must recover");
        assert!(fusion.messages_sent > 0 && replication.messages_sent > 0);
        assert!(fusion.virtual_nanos > 0 && replication.virtual_nanos > 0);
        // The whole point of fusion: fewer backup servers than replication
        // for the same budget, hence less report traffic per recovery.
        assert!(fusion.servers <= replication.servers);
        assert!(fusion.messages_sent < replication.messages_sent);
    }
}
