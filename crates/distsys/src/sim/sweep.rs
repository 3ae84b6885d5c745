//! The simulation sweep harness: hundreds of seeded scenarios — workload ×
//! fault schedule × network chaos — each run deterministically and checked
//! for recovery correctness.
//!
//! One `u64` seed fully determines a [`Scenario`]: which machine set runs,
//! whether fusion or plain replication backs it up, the fault model and
//! budget `f`, the workload, which servers suffer modeled crashes /
//! Byzantine corruptions / outright process kills and when, and how hostile
//! the network is.  [`run_scenario`] plays the scenario inside a
//! [`SimEnvironment`], decodes the surviving
//! reports with the same machinery the paper prescribes (Algorithm 3 for
//! fusion, survivor-copy / majority vote for replication), restores the
//! group, and re-verifies — recording every divergence from the oracle as a
//! violation.  [`sweep`] aggregates a seed range into a [`SweepReport`],
//! which CI runs over ≥200 seeds in release mode.

use std::collections::HashSet;
use std::ops::Range;
use std::time::Duration;

use fsm_dfsm::{Dfsm, Executor, StateId};
use fsm_fusion_core::{FaultModel, MachineReport, ReplicaSet};
use rand::Rng;

use crate::env::{Environment, GroupConfig, ServerGroup};
use crate::fault::FaultKind;
use crate::recovery::{DurabilityConfig, RejoinPath};
use crate::scenario::{replay_oracle, SensorNetwork};
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
/// Trace-note code recording each rejoin decision of a recovery scenario.
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

/// The preset table: every (machine set, backend, model, budget) combination
/// the sweep draws from.  Crash presets must satisfy `dmin > f`, Byzantine
/// presets `dmin > 2f`, for the fusion that Algorithm 2 generates.
const PRESETS: &[(&str, MachineSet, Backend, FaultModel, usize)] = &[
    (
        "fig1/fusion/crash/f1",
        MachineSet::Fig1,
        Backend::Fusion,
        FaultModel::Crash,
        1,
    ),
    (
        "fig1/fusion/crash/f2",
        MachineSet::Fig1,
        Backend::Fusion,
        FaultModel::Crash,
        2,
    ),
    (
        "fig1/fusion/byz/f1",
        MachineSet::Fig1,
        Backend::Fusion,
        FaultModel::Byzantine,
        1,
    ),
    (
        "mesi+zc3/fusion/crash/f1",
        MachineSet::MesiZc3,
        Backend::Fusion,
        FaultModel::Crash,
        1,
    ),
    (
        "mesi+zc3/fusion/byz/f1",
        MachineSet::MesiZc3,
        Backend::Fusion,
        FaultModel::Byzantine,
        1,
    ),
    (
        "sensors3/fusion/crash/f1",
        MachineSet::Sensors3,
        Backend::Fusion,
        FaultModel::Crash,
        1,
    ),
    (
        "fig1/replication/crash/f1",
        MachineSet::Fig1,
        Backend::Replication,
        FaultModel::Crash,
        1,
    ),
    (
        "mesi+zc3/replication/crash/f2",
        MachineSet::MesiZc3,
        Backend::Replication,
        FaultModel::Crash,
        2,
    ),
    (
        "sensors3/replication/byz/f1",
        MachineSet::Sensors3,
        Backend::Replication,
        FaultModel::Byzantine,
        1,
    ),
];

/// One fully specified simulation scenario, derived deterministically from a
/// seed by [`Scenario::from_seed`].
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
    /// Modeled crash faults to inject (server answers `Crashed`).
    pub modeled_crashes: usize,
    /// Process kills to inject (server stops answering entirely).
    pub kills: usize,
    /// Byzantine corruptions to inject (explicit in-range lies).
    pub corruptions: usize,
    /// Reply drop probability.
    pub drop: f64,
    /// Reply duplication probability.
    pub duplicate: f64,
    /// Reply reorder-jitter probability.
    pub reorder: f64,
}

impl Scenario {
    /// Derives the full scenario from one seed.  Fault counts never exceed
    /// the preset's budget `f`; crash budgets are split between modeled
    /// crashes and process kills, Byzantine budgets go entirely to explicit
    /// corruptions (a kill would *add* a crash fault on top of `f` lies).
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
        Scenario {
            seed,
            preset,
            backend,
            fault_model,
            f,
            machines: set.machines(),
            workload_len,
            modeled_crashes,
            kills,
            corruptions,
            drop,
            duplicate,
            reorder,
        }
    }

    /// Total faults the scenario injects.
    pub fn total_faults(&self) -> usize {
        self.modeled_crashes + self.kills + self.corruptions
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
    /// Faults actually injected.
    pub injected: usize,
    /// Process kills among them.
    pub kills: usize,
    /// Killed processes brought back up from durable state (recovery
    /// scenarios only; plain scenarios leave killed processes dark).
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

/// Collects reports, retrying while replies to *live* servers are missing
/// (dropped); killed servers are expected to stay silent.  Attempts are
/// merged: the servers are quiescent during collection, so a report heard
/// in any attempt is the server's final answer.
fn collect_until_settled(
    group: &mut dyn ServerGroup,
    killed: &HashSet<usize>,
) -> Vec<Option<MachineReport>> {
    let mut merged = group.try_collect_reports();
    for _ in 1..MAX_COLLECT_ATTEMPTS {
        let settled = merged
            .iter()
            .enumerate()
            .all(|(i, r)| r.is_some() || killed.contains(&i));
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

/// Whether a healthy durable server at sequence number `start`, whose
/// snapshots fall on `base + k * every`, splits a batch ending at `end`:
/// whether a snapshot boundary lies strictly inside it.
fn splits_at_snapshot(base: u64, every: u64, start: u64, end: u64) -> bool {
    let next = start + every - (start - base) % every;
    next < end
}

/// Runs one scenario inside a fresh simulated world and checks it end to
/// end: push the workload in seeded batches (cut at every scheduled fault),
/// inject the schedule, collect the surviving reports, decode (fusion's
/// Algorithm 3 or replication's per-group vote), restore every live server,
/// and re-verify against the oracle.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let env = Seeded(scenario.seed)
        .sim()
        .drop_probability(scenario.drop)
        .duplicate_probability(scenario.duplicate)
        .reorder_probability(scenario.reorder)
        .build();
    let mut violations: Vec<String> = Vec::new();

    let w = Seeded(scenario.seed)
        .split(STREAM_WORKLOAD)
        .workload_over_machines(&scenario.machines, scenario.workload_len);

    // The server roster the group runs, the oracle state every server must
    // end at, and (for fusion) the system holding Algorithm 3.
    let mut fusion_sys: Option<FusedSystem> = None;
    let (roster, expected): (Vec<Dfsm>, Vec<usize>) = match scenario.backend {
        Backend::Fusion => {
            match FusedSystem::new(&scenario.machines, scenario.f, scenario.fault_model) {
                Ok(mut sys) => {
                    sys.apply_workload(&w);
                    let roster = sys.all_machines();
                    let expected = (0..sys.num_servers())
                        .map(|i| sys.oracle_state_of(i).index())
                        .collect();
                    fusion_sys = Some(sys);
                    (roster, expected)
                }
                Err(e) => {
                    env.note(NOTE_VERDICT, &[u64::MAX]);
                    let (seed, preset) = (scenario.seed, scenario.preset);
                    let failed = vec![format!("construction failed: {e}")];
                    let (backend, model) = (scenario.backend, scenario.fault_model);
                    return outcome(&env, seed, preset, backend, model, failed);
                }
            }
        }
        Backend::Replication => {
            let per = scenario.fault_model.copies_per_machine(scenario.f) + 1;
            let mut roster = Vec::new();
            let mut expected = Vec::new();
            for m in &scenario.machines {
                let truth = replay_oracle(m, &w).index();
                for _ in 0..per {
                    roster.push(m.clone());
                    expected.push(truth);
                }
            }
            (roster, expected)
        }
    };
    let n = roster.len();

    env.note(
        NOTE_SCENARIO,
        &[
            matches!(scenario.backend, Backend::Replication) as u64,
            matches!(scenario.fault_model, FaultModel::Byzantine) as u64,
            scenario.f as u64,
            scenario.workload_len as u64,
            scenario.modeled_crashes as u64,
            scenario.kills as u64,
            scenario.corruptions as u64,
        ],
    );

    // Collections stay short: virtual time is free, but there is no point
    // waiting 30 virtual seconds per retry.
    let config = GroupConfig::new().collect_timeout(Duration::from_secs(2));
    let mut group = env.spawn_group(&roster, &config);

    // The fault schedule: distinct victims at seeded workload positions.
    // Crash budgets reuse the crash-plan stream with the first `kills`
    // entries escalated from modeled crash to process kill; Byzantine
    // budgets draw explicit in-range lies.
    let faults = Seeded(scenario.seed).split(STREAM_FAULTS);
    let plan = match scenario.fault_model {
        FaultModel::Crash => {
            faults.crash_plan(n, scenario.modeled_crashes + scenario.kills, w.len())
        }
        FaultModel::Byzantine => {
            let sizes: Vec<usize> = roster.iter().map(|m| m.size()).collect();
            faults.explicit_corruption_plan(&sizes, scenario.corruptions, w.len())
        }
    };
    let mut killed: HashSet<usize> = HashSet::new();
    let mut kill_budget = scenario.kills;
    let mut next_fault = 0usize;
    let mut fire = |group: &mut dyn ServerGroup, upto: usize| {
        while next_fault < plan.faults.len() && plan.faults[next_fault].after_event <= upto {
            let f = plan.faults[next_fault];
            match f.kind {
                FaultKind::Crash if kill_budget > 0 => {
                    kill_budget -= 1;
                    killed.insert(f.server);
                    group.kill_process(f.server);
                }
                FaultKind::Crash => group.crash(f.server),
                FaultKind::Corrupt(state) => group.corrupt(f.server, state),
                FaultKind::Kill => {
                    killed.insert(f.server);
                    group.kill_process(f.server);
                }
                FaultKind::Restart => {
                    if group.restart_process(f.server).is_ok() {
                        killed.remove(&f.server);
                    }
                }
            }
            next_fault += 1;
        }
    };
    let cuts: Vec<usize> = plan.faults.iter().map(|f| f.after_event).collect();
    fire(&mut *group, 0);
    for batch in batch_ranges(scenario.seed, w.len(), &cuts) {
        let end = batch.end;
        group.apply_batch(&w.events()[batch]);
        fire(&mut *group, end);
    }
    let injected = plan.faults.len();

    // Collect the surviving reports and decode them.
    let partial = collect_until_settled(&mut *group, &killed);
    let mut restore_to: Vec<StateId> = vec![StateId(0); n];
    match scenario.backend {
        Backend::Fusion => {
            let sys = fusion_sys.as_mut().expect("fusion backend keeps a system");
            // A silent server is indistinguishable from a crashed one — the
            // decoder treats both as erasures.
            let reports: Vec<MachineReport> = partial
                .iter()
                .map(|r| r.clone().unwrap_or(MachineReport::Crashed))
                .collect();
            match sys.recover_external(&reports) {
                Ok(ext) => {
                    if !ext.matches_oracle {
                        violations.push("recovered top state diverges from oracle".into());
                    }
                    for (i, want) in expected.iter().enumerate() {
                        if ext.states[i].index() != *want {
                            violations.push(format!(
                                "server {i}: recovered state {} != oracle {want}",
                                ext.states[i].index()
                            ));
                        }
                    }
                    restore_to = ext.states;
                }
                Err(e) => violations.push(format!("fusion recovery failed: {e}")),
            }
        }
        Backend::Replication => {
            let per = scenario.fault_model.copies_per_machine(scenario.f) + 1;
            for (mi, m) in scenario.machines.iter().enumerate() {
                let replica_set = ReplicaSet::new(m.clone(), scenario.f, scenario.fault_model);
                let reports: Vec<Option<usize>> = (0..per)
                    .map(|j| match &partial[mi * per + j] {
                        Some(MachineReport::State(s)) => Some(*s),
                        _ => None,
                    })
                    .collect();
                match replica_set.recover(&reports) {
                    Ok(state) => {
                        if state != expected[mi * per] {
                            violations.push(format!(
                                "machine {mi}: recovered state {state} != oracle {}",
                                expected[mi * per]
                            ));
                        }
                        for j in 0..per {
                            restore_to[mi * per + j] = StateId(state);
                        }
                    }
                    Err(e) => violations.push(format!("replication recovery failed: {e}")),
                }
            }
        }
    }

    // Restore every live server and re-verify the whole group against the
    // oracle (killed processes stay dark, as a real power failure would).
    if violations.is_empty() {
        for (i, state) in restore_to.iter().enumerate() {
            if !killed.contains(&i) {
                group.restore(i, *state);
            }
        }
        let verify = collect_until_settled(&mut *group, &killed);
        for (i, r) in verify.iter().enumerate() {
            match r {
                Some(MachineReport::State(s)) if *s == expected[i] => {}
                None if killed.contains(&i) => {}
                other => violations.push(format!(
                    "server {i} after restore: reported {other:?}, expected state {}",
                    expected[i]
                )),
            }
        }
    }

    env.note(NOTE_VERDICT, &[violations.len() as u64, injected as u64]);
    let (seed, preset) = (scenario.seed, scenario.preset);
    ScenarioOutcome {
        injected,
        kills: killed.len(),
        ..outcome(
            &env,
            seed,
            preset,
            scenario.backend,
            scenario.fault_model,
            violations,
        )
    }
}

/// The outcome of a run as `env` ends it, with every fault and rejoin
/// counter at zero for the caller to fill in (a scenario that could not
/// even be constructed keeps them at zero).
fn outcome(
    env: &SimEnvironment,
    seed: u64,
    preset: &'static str,
    backend: Backend,
    fault_model: FaultModel,
    violations: Vec<String>,
) -> ScenarioOutcome {
    ScenarioOutcome {
        seed,
        preset,
        backend,
        fault_model,
        trace_hash: env.trace_hash(),
        trace_len: env.trace_len(),
        stats: env.net_stats(),
        injected: 0,
        kills: 0,
        restarts: 0,
        replays: 0,
        peer_resyncs: 0,
        split_batches: 0,
        virtual_nanos: env.now().as_nanos() as u64,
        violations,
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
    /// at least one torn final WAL frame survived, and group commit split a
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

/// Runs `count` scenarios for the seeds `first_seed..first_seed + count` and
/// aggregates the results.
pub fn sweep(first_seed: u64, count: usize) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in first_seed..first_seed + count as u64 {
        let scenario = Scenario::from_seed(seed);
        let outcome = run_scenario(&scenario);
        report.absorb(&outcome);
    }
    report
}

/// The recovery preset table: machine set, crash budget, and whether the
/// scenario rolls kills across `f` victims in sequence or kills once.
/// Recovery scenarios run fusion under the crash model only — a rejoining
/// server trusts its own log, which a Byzantine server cannot.
const RECOVERY_PRESETS: &[(&str, MachineSet, usize, bool)] = &[
    ("fig1/fusion/crash/f1/rejoin", MachineSet::Fig1, 1, false),
    ("fig1/fusion/crash/f2/rolling", MachineSet::Fig1, 2, true),
    (
        "mesi+zc3/fusion/crash/f1/rejoin",
        MachineSet::MesiZc3,
        1,
        false,
    ),
    (
        "sensors3/fusion/crash/f1/rejoin",
        MachineSet::Sensors3,
        1,
        false,
    ),
];

/// One fully specified crash-recovery scenario: a durable fusion group whose
/// processes get killed under load and rejoin from their write-ahead logs
/// and snapshots.  Derived deterministically from a seed by
/// [`RecoveryScenario::from_seed`].
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// The seed the scenario (and its simulated world) is derived from.
    pub seed: u64,
    /// Human-readable preset name (`"fig1/fusion/crash/f1/rejoin"`, …).
    pub preset: &'static str,
    /// The crash budget the fusion is provisioned for.
    pub f: usize,
    /// The original machines.
    pub machines: Vec<Dfsm>,
    /// Whether kills roll across `f` victims in sequence (one at a time)
    /// instead of killing a single victim once.
    pub rolling: bool,
    /// Number of workload events.
    pub workload_len: usize,
    /// Snapshot cadence of the durable servers.
    pub snapshot_every: u64,
    /// Probability that a kill tears the final WAL frame.
    pub torn: f64,
    /// Reply drop probability.
    pub drop: f64,
    /// Reply duplication probability.
    pub duplicate: f64,
    /// Reply reorder-jitter probability.
    pub reorder: f64,
}

impl RecoveryScenario {
    /// Derives the full recovery scenario from one seed.
    pub fn from_seed(seed: u64) -> RecoveryScenario {
        let mut rng = Seeded(seed).split(STREAM_PARAMS).rng();
        let (preset, set, f, rolling) = RECOVERY_PRESETS[rng.gen_range(0..RECOVERY_PRESETS.len())];
        let workload_len = rng.gen_range(40..=120usize);
        let snapshot_every = rng.gen_range(1..=48u64);
        let torn = rng.gen_range(0..=60u32) as f64 / 100.0;
        let drop = rng.gen_range(0..=20u32) as f64 / 100.0;
        let duplicate = rng.gen_range(0..=15u32) as f64 / 100.0;
        let reorder = rng.gen_range(0..=20u32) as f64 / 100.0;
        RecoveryScenario {
            seed,
            preset,
            f,
            machines: set.machines(),
            rolling,
            workload_len,
            snapshot_every,
            torn,
            drop,
            duplicate,
            reorder,
        }
    }

    /// Kills the scenario schedules (1, or `f` when rolling).
    pub fn kills(&self) -> usize {
        if self.rolling {
            self.f.max(1)
        } else {
            1
        }
    }
}

/// Runs one crash-recovery scenario: spawn a durable fusion group, kill
/// processes at seeded positions under load, bring each back with
/// [`ServerGroup::restart_process`], catch it up via the cheaper of log
/// replay or peer decode ([`RejoinPath::choose`]), and assert the recovery
/// invariants — no acked event lost (the acknowledged sequence number equals
/// the kill position, one less only when the final frame was torn),
/// sequence numbers never regress, every snapshot lands on the server's
/// cadence (a multiple of `snapshot_every` past its last resync), the
/// replayed state matches an uninterrupted run of the log prefix, and the
/// whole group converges on the oracle at the end.
///
/// The workload goes out in seeded batches of 1 to 16 events, cut at every
/// kill and rejoin position, so durable servers commit through group commit
/// and split batches at snapshot boundaries.
pub fn run_recovery_scenario(scenario: &RecoveryScenario) -> ScenarioOutcome {
    let env = Seeded(scenario.seed)
        .sim()
        .drop_probability(scenario.drop)
        .duplicate_probability(scenario.duplicate)
        .reorder_probability(scenario.reorder)
        .torn_write_probability(scenario.torn)
        .build();
    let mut violations: Vec<String> = Vec::new();

    let w = Seeded(scenario.seed)
        .split(STREAM_WORKLOAD)
        .workload_over_machines(&scenario.machines, scenario.workload_len);

    let mut sys = match FusedSystem::new(&scenario.machines, scenario.f, FaultModel::Crash) {
        Ok(sys) => sys,
        Err(e) => {
            env.note(NOTE_VERDICT, &[u64::MAX]);
            let failed = vec![format!("construction failed: {e}")];
            let (backend, model) = (Backend::Fusion, FaultModel::Crash);
            return outcome(&env, scenario.seed, scenario.preset, backend, model, failed);
        }
    };
    let roster = sys.all_machines();
    let n = roster.len();

    env.note(
        NOTE_SCENARIO,
        &[
            2, // recovery-scenario marker (0/1 are the plain backends)
            scenario.f as u64,
            scenario.workload_len as u64,
            scenario.rolling as u64,
            scenario.snapshot_every,
        ],
    );

    let config = GroupConfig::new()
        .collect_timeout(Duration::from_secs(2))
        .durable_with(DurabilityConfig::new().snapshot_every(scenario.snapshot_every));
    let mut group = env.spawn_group(&roster, &config);

    // The kill/rejoin schedule: each kill gets its own disjoint window of
    // the workload, so at most one process is ever down at a time and every
    // victim rejoins before the run ends.
    let mut rng = Seeded(scenario.seed).split(STREAM_RECOVERY).rng();
    let kills = scenario.kills();
    let span = (scenario.workload_len - 1) / kills;
    // (kill_pos, rejoin_pos, victim): kill after `kill_pos` events, rejoin
    // after `rejoin_pos` events.  Victims may repeat across windows — a
    // server crashing twice is exactly how sequence regression would show.
    let schedule: Vec<(usize, usize, usize)> = (0..kills)
        .map(|k| {
            let lo = 1 + k * span;
            let hi = lo + span - 1;
            let kill_pos = rng.gen_range(lo..hi);
            let rejoin_pos = rng.gen_range(kill_pos + 1..=hi);
            (kill_pos, rejoin_pos, rng.gen_range(0..n))
        })
        .collect();

    let mut restarts = 0usize;
    let mut replays = 0usize;
    let mut peer_resyncs = 0usize;
    let mut split_batches = 0usize;
    let every = scenario.snapshot_every;
    // Each server's snapshots fall on `base + k * every`, where `base` is
    // its last resync's sequence number: no modeled fault makes a server
    // skip a snapshot here.
    let mut snapshot_base: Vec<u64> = vec![0; n];
    let mut last_acked: Vec<u64> = vec![0; n];
    let mut torn_seen = 0u64;
    let mut next = 0usize;
    let mut down: Option<(usize, usize, usize)> = None; // (victim, kill_pos, rejoin_pos)

    let cuts: Vec<usize> = schedule.iter().flat_map(|&(k, r, _)| [k, r]).collect();
    for batch in batch_ranges(scenario.seed, w.len(), &cuts) {
        let pos = batch.start;
        if down.is_none() && next < schedule.len() && schedule[next].0 == pos {
            let (kill_pos, rejoin_pos, victim) = schedule[next];
            group.kill_process(victim);
            down = Some((victim, kill_pos, rejoin_pos));
            next += 1;
        }
        if let Some((victim, kill_pos, rejoin_pos)) = down {
            if rejoin_pos == pos {
                // Drain the world first: apply commands queued to the dead
                // process must be dropped *before* it comes back, exactly as
                // a real network flushes in-flight packets to a dead port.
                env.run_until_idle();
                // A torn tail may cut exactly at the final frame's start,
                // leaving a *clean* shorter log — `ReplayStats` then reports
                // no torn bytes, so tears are counted by the world.  Only
                // the victim is down, so any new tear is its own.
                let torn_now = env.net_stats().torn_tails;
                let torn_fired = torn_now > torn_seen;
                torn_seen = torn_now;
                match group.restart_process(victim) {
                    Ok(stats) => {
                        restarts += 1;
                        let acked = stats.acked_seq;
                        let kp = kill_pos as u64;
                        // No acked event may be lost.  A torn final frame
                        // loses exactly the one in-flight write.
                        if !(acked == kp || (torn_fired && acked + 1 == kp)) {
                            violations.push(format!(
                                "server {victim}: recovered acked {acked} after kill at {kp} \
                                 (torn {} bytes)",
                                stats.torn_tail_bytes
                            ));
                        }
                        if acked < last_acked[victim] {
                            violations.push(format!(
                                "server {victim}: acked regressed {} -> {acked}",
                                last_acked[victim]
                            ));
                        }
                        // Group commit splits batches at snapshot
                        // boundaries, so every snapshot lands on the
                        // server's cadence.
                        let base = snapshot_base[victim];
                        if stats.snapshot_seq < base || (stats.snapshot_seq - base) % every != 0 {
                            violations.push(format!(
                                "server {victim}: snapshot at {} is off the cadence \
                                 {every} from {base}",
                                stats.snapshot_seq
                            ));
                        }
                        // Snapshot + replay must equal an uninterrupted run
                        // of the acked prefix.
                        let mut ex = Executor::new(roster[victim].clone());
                        for e in w.iter().take(acked as usize) {
                            ex.apply(e);
                        }
                        if stats.state != ex.current() {
                            violations.push(format!(
                                "server {victim}: replayed state {} != prefix oracle {}",
                                stats.state.index(),
                                ex.current().index()
                            ));
                        }
                        // Catch up to the group: replay the missed suffix
                        // from the shared event stream, or decode the
                        // current state from live peers when the gap is too
                        // wide (Algorithm 3).
                        let path = RejoinPath::choose(acked, pos as u64);
                        env.note(
                            NOTE_REJOIN,
                            &[
                                victim as u64,
                                acked,
                                pos as u64,
                                match path {
                                    RejoinPath::Current => 0,
                                    RejoinPath::Replay { .. } => 1,
                                    RejoinPath::PeerDecode { .. } => 2,
                                },
                            ],
                        );
                        match path {
                            RejoinPath::Current => {}
                            RejoinPath::Replay { .. } => {
                                replays += 1;
                                let base = snapshot_base[victim];
                                split_batches +=
                                    usize::from(splits_at_snapshot(base, every, acked, pos as u64));
                                group.apply_batch_to(victim, &w.events()[acked as usize..pos]);
                            }
                            RejoinPath::PeerDecode { .. } => {
                                peer_resyncs += 1;
                                let stale: HashSet<usize> = [victim].into_iter().collect();
                                let partial = collect_until_settled(&mut *group, &stale);
                                let reports: Vec<MachineReport> = partial
                                    .iter()
                                    .enumerate()
                                    .map(|(i, r)| {
                                        if i == victim {
                                            MachineReport::Crashed
                                        } else {
                                            r.clone().unwrap_or(MachineReport::Crashed)
                                        }
                                    })
                                    .collect();
                                match sys.recover_external(&reports) {
                                    Ok(ext) => {
                                        if !ext.matches_oracle {
                                            violations
                                                .push("peer decode diverged from oracle".into());
                                        }
                                        match group.resync(victim, pos as u64, ext.states[victim]) {
                                            Ok(()) => snapshot_base[victim] = pos as u64,
                                            Err(e) => violations
                                                .push(format!("resync of {victim} failed: {e}")),
                                        }
                                    }
                                    Err(e) => {
                                        violations.push(format!("peer decode failed: {e}"));
                                    }
                                }
                            }
                        }
                        last_acked[victim] = pos as u64;
                    }
                    Err(e) => violations.push(format!("restart of {victim} failed: {e}")),
                }
                down = None;
            }
        }
        let (start, end) = (batch.start as u64, batch.end as u64);
        let dark = down.map(|(victim, ..)| victim);
        split_batches += (0..n)
            .filter(|&i| Some(i) != dark && splits_at_snapshot(snapshot_base[i], every, start, end))
            .count();
        let events = &w.events()[batch];
        group.apply_batch(events);
        events.iter().for_each(|e| sys.apply_event(e));
    }

    // Everyone — including every rejoined process — must converge on the
    // oracle once the stream ends.
    env.run_until_idle();
    let verify = collect_until_settled(&mut *group, &HashSet::new());
    for (i, r) in verify.iter().enumerate() {
        let want = sys.oracle_state_of(i).index();
        match r {
            Some(MachineReport::State(s)) if *s == want => {}
            other => violations.push(format!(
                "server {i} after recovery sweep: reported {other:?}, expected state {want}"
            )),
        }
    }

    env.note(NOTE_VERDICT, &[violations.len() as u64, kills as u64]);
    let (backend, model) = (Backend::Fusion, FaultModel::Crash);
    ScenarioOutcome {
        injected: kills,
        kills,
        restarts,
        replays,
        peer_resyncs,
        split_batches,
        ..outcome(
            &env,
            scenario.seed,
            scenario.preset,
            backend,
            model,
            violations,
        )
    }
}

/// Runs `count` crash-recovery scenarios for the seeds
/// `first_seed..first_seed + count` and aggregates the results.
pub fn sweep_recovery(first_seed: u64, count: usize) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in first_seed..first_seed + count as u64 {
        let scenario = RecoveryScenario::from_seed(seed);
        let outcome = run_recovery_scenario(&scenario);
        report.absorb(&outcome);
    }
    report
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

/// Runs the same seeds — identical machine sets, workloads, chaos knobs and
/// one modeled crash — once fused and once replicated, and returns the
/// accumulated cost of each backend (message counts and virtual latency).
/// The paper's overhead argument, measured instead of asserted.
pub fn compare_backends(first_seed: u64, count: usize) -> (BackendCost, BackendCost) {
    let mut fusion = BackendCost::default();
    let mut replication = BackendCost::default();
    for seed in first_seed..first_seed + count as u64 {
        let mut rng = Seeded(seed).split(STREAM_PARAMS).rng();
        let set =
            [MachineSet::Fig1, MachineSet::MesiZc3, MachineSet::Sensors3][rng.gen_range(0..3usize)];
        let workload_len = rng.gen_range(20..=100usize);
        let drop = rng.gen_range(0..=20u32) as f64 / 100.0;
        let duplicate = rng.gen_range(0..=15u32) as f64 / 100.0;
        let reorder = rng.gen_range(0..=20u32) as f64 / 100.0;
        for backend in [Backend::Fusion, Backend::Replication] {
            let scenario = Scenario {
                seed,
                preset: "compare/crash/f1",
                backend,
                fault_model: FaultModel::Crash,
                f: 1,
                machines: set.machines(),
                workload_len,
                modeled_crashes: 1,
                kills: 0,
                corruptions: 0,
                drop,
                duplicate,
                reorder,
            };
            let servers = match backend {
                Backend::Fusion => FusedSystem::new(&scenario.machines, 1, FaultModel::Crash)
                    .map(|s| s.num_servers())
                    .unwrap_or(0),
                Backend::Replication => {
                    scenario.machines.len() * (FaultModel::Crash.copies_per_machine(1) + 1)
                }
            };
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
            assert_eq!(
                (a.modeled_crashes, a.kills, a.corruptions),
                (b.modeled_crashes, b.kills, b.corruptions)
            );
            assert!(a.total_faults() <= a.f, "seed {seed}");
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
            let a = RecoveryScenario::from_seed(seed);
            let b = RecoveryScenario::from_seed(seed);
            assert_eq!(a.preset, b.preset);
            assert_eq!(a.workload_len, b.workload_len);
            assert_eq!(a.snapshot_every, b.snapshot_every);
            assert!((40..=120).contains(&a.workload_len));
            assert!((1..=48).contains(&a.snapshot_every));
            assert!(a.kills() >= 1 && a.kills() <= a.f.max(1));
            assert!(a.torn <= 0.60 && a.drop <= 0.20 && a.reorder <= 0.20);
        }
    }

    #[test]
    fn recovery_scenarios_replay_the_identical_world() {
        for seed in [2u64, 19, 41] {
            let s = RecoveryScenario::from_seed(seed);
            let a = run_recovery_scenario(&s);
            let b = run_recovery_scenario(&s);
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
    }
}
