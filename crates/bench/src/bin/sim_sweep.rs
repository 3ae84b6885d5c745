//! CI gate: a deterministic simulation sweep over seeded fault scenarios.
//!
//! Run with: `cargo run --release -p fsm-fusion-bench --bin sim_sweep`
//!
//! Drives [`sim_sweep_seeds`] seeded scenarios through the
//! `fsm_distsys::sim` runtime — replication and fusion backends, crash and
//! Byzantine fault models, process kills up to `f`, message drops, reorders
//! and duplicates — and fails the build if any scenario's recovery diverges
//! from the oracle, if the replay spot-check is not bit-identical, or if
//! the sweep never exercised one of the chaos modes (a silent-coverage gap
//! would let the gate rot into a no-op).
//!
//! With `--recovery` it instead runs the crash-recovery sweep: durable
//! fusion groups whose processes are killed under load and rejoin from
//! write-ahead logs and snapshots, gated on the recovery invariants (no
//! acked event lost, sequence numbers never regress, snapshots on their
//! cadence, bit-identical replay) plus rejoin coverage (restarts, log
//! replays, peer-decode resyncs, torn WAL appends and batches split at a
//! snapshot boundary must all have fired).
//!
//! Both sweeps play their scenarios through the one `run_scenario` and push
//! their workloads in seeded batches of 1–16 events, so durable servers run
//! the group-commit write path they serve with.
//!
//! Flags and environment:
//!
//! * `--recovery` — run the crash-recovery sweep instead of the fault sweep.
//! * `--seeds <n>` — override the scenario count (CI uses the default).
//! * `--first <seed>` — first seed of the contiguous range (default 0).
//! * `SIM_SWEEP_SEEDS=<n>` — environment override of the scenario count;
//!   the nightly workflow sets 4096.

use std::process::ExitCode;

use fsm_distsys::sim::sweep::{run_scenario, sweep, sweep_recovery, Scenario, SweepReport};
use fsm_fusion_bench::sim_sweep_seeds;

/// One sweep mode: how it is named, generated, gated and summarised.
struct Mode {
    /// The command line that selects it.
    name: &'static str,
    /// The scenario generator, for the reproduce hint and the replay
    /// spot-check.
    generator: &'static str,
    generate: fn(u64) -> Scenario,
    sweep: fn(u64, usize) -> SweepReport,
    covered: fn(&SweepReport) -> bool,
    /// What the coverage gate demands, for its failure message.
    coverage: &'static str,
    summary: fn(&SweepReport) -> Vec<String>,
    /// The closing line of a passing run.
    passed: &'static str,
}

const FAULT_SWEEP: Mode = Mode {
    name: "sim_sweep",
    generator: "from_seed",
    generate: Scenario::from_seed,
    sweep,
    covered: SweepReport::chaos_covered,
    coverage: "drops, reorders, duplicates, kills, both backends and both fault models",
    summary: |r| {
        vec![
            format!(
                "backends          fusion {} / replication {}",
                r.fusion_runs, r.replication_runs
            ),
            format!(
                "fault models      crash {} / byzantine {}",
                r.crash_runs, r.byzantine_runs
            ),
            format!(
                "faults injected   {} ({} process kills)",
                r.faults_injected, r.kills
            ),
        ]
    },
    passed: "every scenario recovered, every chaos mode fired",
};

const RECOVERY_SWEEP: Mode = Mode {
    name: "sim_sweep --recovery",
    generator: "recovery_from_seed",
    generate: Scenario::recovery_from_seed,
    sweep: sweep_recovery,
    covered: SweepReport::recovery_covered,
    coverage: "restarts, log replays, peer-decode resyncs, torn WAL appends and \
               batches split at a snapshot boundary",
    summary: |r| {
        vec![
            format!(
                "rejoins           {} restarts ({} log replays, {} peer resyncs)",
                r.restarts, r.replays, r.peer_resyncs
            ),
            format!(
                "kills             {} ({} torn WAL tails)",
                r.kills, r.stats.torn_tails
            ),
            format!(
                "group commit      {} batches split at a snapshot boundary",
                r.split_batches
            ),
        ]
    },
    passed: "no acked event lost, every rejoin path fired",
};

fn main() -> ExitCode {
    let mut seeds = sim_sweep_seeds();
    let mut first = 0u64;
    let mut mode = &FAULT_SWEEP;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--recovery" => mode = &RECOVERY_SWEEP,
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return usage(),
            },
            "--first" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => first = n,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    run(mode, first, seeds)
}

fn run(mode: &Mode, first: u64, seeds: usize) -> ExitCode {
    println!("{}: {seeds} scenarios from seed {first}", mode.name);
    let report = (mode.sweep)(first, seeds);
    println!("  passed            {}/{}", report.passed, report.scenarios);
    for line in (mode.summary)(&report) {
        println!("  {line}");
    }
    println!("  network           {:?}", report.stats);

    let mut failed = false;
    if !report.all_passed() {
        failed = true;
        eprintln!(
            "FAIL: {} scenario(s) violated recovery:",
            report.violations.len()
        );
        for (seed, violation) in &report.violations {
            eprintln!("  seed {seed}: {violation}");
        }
        eprintln!(
            "reproduce one with: Scenario::{}(<seed>) + run_scenario",
            mode.generator
        );
    }
    if !(mode.covered)(&report) {
        failed = true;
        eprintln!(
            "FAIL: coverage gap — the sweep must exercise {}",
            mode.coverage
        );
    }

    // Replay spot-check: re-run a handful of seeds and demand bit-identical
    // trace hashes — the determinism contract, enforced in release mode on
    // every CI run, not just under `cargo test`.
    for seed in [first, first + seeds as u64 / 2, first + seeds as u64 - 1] {
        let scenario = (mode.generate)(seed);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        if a.trace_hash != b.trace_hash || a.trace_len != b.trace_len {
            failed = true;
            eprintln!(
                "FAIL: seed {seed} did not replay bit-identically \
                 ({:#018x}/{} vs {:#018x}/{})",
                a.trace_hash, a.trace_len, b.trace_hash, b.trace_len
            );
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        println!("{} passed: {}", mode.name, mode.passed);
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: sim_sweep [--recovery] [--seeds N] [--first SEED]");
    ExitCode::from(2)
}
