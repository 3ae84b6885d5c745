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
//! replays, peer-decode resyncs, torn final WAL frames and batches split at
//! a snapshot boundary must all have fired).
//!
//! Both sweeps push their workloads in seeded batches of 1–16 events, so
//! durable servers run the group-commit write path they serve with.
//!
//! Flags and environment:
//!
//! * `--recovery` — run the crash-recovery sweep instead of the fault sweep.
//! * `--seeds <n>` — override the scenario count (CI uses the default).
//! * `--first <seed>` — first seed of the contiguous range (default 0).
//! * `SIM_SWEEP_SEEDS=<n>` — environment override of the scenario count;
//!   the nightly workflow sets 4096.

use std::process::ExitCode;

use fsm_distsys::sim::sweep::{
    run_recovery_scenario, run_scenario, sweep, sweep_recovery, RecoveryScenario, Scenario,
};
use fsm_fusion_bench::sim_sweep_seeds;

fn main() -> ExitCode {
    let mut seeds = sim_sweep_seeds();
    let mut first = 0u64;
    let mut recovery = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--recovery" => recovery = true,
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

    if recovery {
        recovery_sweep(first, seeds)
    } else {
        fault_sweep(first, seeds)
    }
}

fn fault_sweep(first: u64, seeds: usize) -> ExitCode {
    println!("sim_sweep: {seeds} scenarios from seed {first}");
    let report = sweep(first, seeds);
    println!("  passed            {}/{}", report.passed, report.scenarios);
    println!(
        "  backends          fusion {} / replication {}",
        report.fusion_runs, report.replication_runs
    );
    println!(
        "  fault models      crash {} / byzantine {}",
        report.crash_runs, report.byzantine_runs
    );
    println!(
        "  faults injected   {} ({} process kills)",
        report.faults_injected, report.kills
    );
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
        eprintln!("reproduce one with: Scenario::from_seed(<seed>) + run_scenario");
    }
    if !report.chaos_covered() {
        failed = true;
        eprintln!(
            "FAIL: coverage gap — the sweep must exercise drops, reorders, \
             duplicates, kills, both backends and both fault models"
        );
    }

    // Replay spot-check: re-run a handful of seeds and demand bit-identical
    // trace hashes — the determinism contract, enforced in release mode on
    // every CI run, not just under `cargo test`.
    for seed in [first, first + seeds as u64 / 2, first + seeds as u64 - 1] {
        let scenario = Scenario::from_seed(seed);
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
        println!("sim_sweep passed: every scenario recovered, every chaos mode fired");
        ExitCode::SUCCESS
    }
}

fn recovery_sweep(first: u64, seeds: usize) -> ExitCode {
    println!("sim_sweep --recovery: {seeds} scenarios from seed {first}");
    let report = sweep_recovery(first, seeds);
    println!("  passed            {}/{}", report.passed, report.scenarios);
    println!(
        "  rejoins           {} restarts ({} log replays, {} peer resyncs)",
        report.restarts, report.replays, report.peer_resyncs
    );
    println!(
        "  kills             {} ({} torn WAL tails)",
        report.kills, report.stats.torn_tails
    );
    println!(
        "  group commit      {} batches split at a snapshot boundary",
        report.split_batches
    );
    println!("  network           {:?}", report.stats);

    let mut failed = false;
    if !report.all_passed() {
        failed = true;
        eprintln!(
            "FAIL: {} scenario(s) violated a recovery invariant:",
            report.violations.len()
        );
        for (seed, violation) in &report.violations {
            eprintln!("  seed {seed}: {violation}");
        }
        eprintln!(
            "reproduce one with: RecoveryScenario::from_seed(<seed>) + run_recovery_scenario"
        );
    }
    if !report.recovery_covered() {
        failed = true;
        eprintln!(
            "FAIL: coverage gap — the recovery sweep must exercise restarts, \
             log replays, peer-decode resyncs, torn WAL tails and batches \
             split at a snapshot boundary"
        );
    }

    // Replay spot-check, same contract as the fault sweep: killing and
    // rejoining servers must not cost a single bit of determinism.
    for seed in [first, first + seeds as u64 / 2, first + seeds as u64 - 1] {
        let scenario = RecoveryScenario::from_seed(seed);
        let a = run_recovery_scenario(&scenario);
        let b = run_recovery_scenario(&scenario);
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
        println!("sim_sweep --recovery passed: no acked event lost, every rejoin path fired");
        ExitCode::SUCCESS
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: sim_sweep [--recovery] [--seeds N] [--first SEED]");
    ExitCode::from(2)
}
