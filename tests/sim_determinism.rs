//! Determinism guarantees of the simulation environment.
//!
//! The contract the `sim` module sells is *byte-identical replay*: the same
//! `u64` seed must reproduce the same world — every message, drop, delivery
//! time, fault and recovery — bit for bit, across process runs.  This suite
//! pins that contract from outside the crate:
//!
//! * **Replay** (proptest over seeds): running a sweep scenario twice
//!   produces identical trace hashes, trace lengths and network counters,
//!   and a raw `SimEnvironment` reproduces its full `TraceEvent` history.
//! * **Divergence**: different seeds do diverge (the hash is not a
//!   constant), and across a seed range every chaos mode — drops, reorders,
//!   process kills — actually fires at least once.
//! * **Os/Sim agreement**: a fault-free workload driven through
//!   `&dyn Environment` lands every server in the same final state on the
//!   threaded `OsEnvironment` and the virtual-time `SimEnvironment`.

use std::collections::HashSet;
use std::time::Duration;

use fsm_fusion::distsys::sim::sweep::{run_scenario, Scenario};
use fsm_fusion::machines::mesi;
use fsm_fusion::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed, same world: the rolling trace hash, the event count and
    /// every network counter replay identically.
    #[test]
    fn same_seed_gives_byte_identical_replay(seed in 0u64..5_000) {
        let scenario = Scenario::from_seed(seed);
        let first = run_scenario(&scenario);
        let second = run_scenario(&scenario);
        prop_assert_eq!(first.trace_hash, second.trace_hash);
        prop_assert_eq!(first.trace_len, second.trace_len);
        prop_assert_eq!(first.stats, second.stats);
        prop_assert_eq!(first.injected, second.injected);
        prop_assert_eq!(&first.violations, &second.violations);
    }

    /// Scenario parameters themselves are a pure function of the seed.
    #[test]
    fn scenario_derivation_is_pure(seed in 0u64..100_000) {
        let a = Scenario::from_seed(seed);
        let b = Scenario::from_seed(seed);
        prop_assert_eq!(a.preset, b.preset);
        prop_assert_eq!(a.workload_len, b.workload_len);
        prop_assert_eq!(a.kills(), b.kills());
        prop_assert_eq!(a.drop, b.drop);
        prop_assert_eq!(a.reorder, b.reorder);
    }
}

/// The full `TraceEvent` history — not just its hash — replays identically
/// on a raw `SimEnvironment` under aggressive chaos knobs.
#[test]
fn raw_environment_replays_full_trace() {
    let run = |seed: u64| {
        let env = Seeded(seed)
            .sim()
            .drop_probability(0.3)
            .duplicate_probability(0.2)
            .reorder_probability(0.3)
            .build();
        let machines = vec![mesi(), mesi()];
        let workload = Seeded(seed).split(1).workload_over_machines(&machines, 40);
        let mut group = env.spawn_group(&machines, &GroupConfig::new());
        for event in workload.events() {
            group.apply_event(event);
        }
        let _ = group.try_collect_reports();
        group.shutdown();
        (env.trace_hash(), env.trace_events(), env.net_stats())
    };
    let (hash_a, events_a, stats_a) = run(0xDEAD_BEEF);
    let (hash_b, events_b, stats_b) = run(0xDEAD_BEEF);
    assert_eq!(hash_a, hash_b, "trace hash must replay");
    assert_eq!(events_a, events_b, "full event history must replay");
    assert_eq!(stats_a, stats_b, "network counters must replay");
    assert!(!events_a.is_empty());

    // A different seed produces a different world.
    let (hash_c, _, _) = run(0xDEAD_BEF0);
    assert_ne!(hash_a, hash_c, "distinct seeds must diverge");
}

/// Different seeds explore different worlds: hashes are not constant, and
/// across a modest seed range every chaos mode fires at least once.
#[test]
fn seed_range_covers_drops_reorders_and_crashes() {
    let mut hashes = HashSet::new();
    let (mut drops, mut reorders, mut kills, mut crashes) = (0u64, 0u64, 0u64, 0usize);
    for seed in 0..60 {
        let outcome = run_scenario(&Scenario::from_seed(seed));
        assert!(
            outcome.is_ok(),
            "seed {seed} violated recovery: {:?}",
            outcome.violations
        );
        hashes.insert(outcome.trace_hash);
        drops += outcome.stats.dropped;
        reorders += outcome.stats.reordered;
        kills += outcome.stats.killed;
        crashes += outcome.injected;
    }
    assert!(hashes.len() > 50, "hashes barely diverge: {}", hashes.len());
    assert!(drops > 0, "no scenario dropped a message");
    assert!(reorders > 0, "no scenario reordered a reply");
    assert!(kills > 0, "no scenario killed a process");
    assert!(crashes > 0, "no scenario injected a fault");
}

/// Drives a fault-free workload through any environment and returns the
/// final state index of every server — the environment-agnostic shape the
/// redesign exists to support.
fn final_states(env: &dyn Environment, machines: &[Dfsm], workload: &Workload) -> Vec<usize> {
    let config = GroupConfig::new().collect_timeout(Duration::from_secs(10));
    let mut group = env.spawn_group(machines, &config);
    group.apply_batch(workload.events());
    let reports = group.collect_reports().expect("fault-free run reports");
    group.shutdown();
    reports
        .iter()
        .map(|r| match r {
            MachineReport::State(s) => *s,
            other => panic!("fault-free server reported {other:?}"),
        })
        .collect()
}

/// Fault-free runs agree between the threaded and the simulated runtime:
/// same machines, same workload, same final states.
#[test]
fn os_and_sim_agree_on_fault_free_runs() {
    for seed in [7u64, 99, 4242] {
        let machines = fig1_machines();
        let workload = Seeded(seed).workload_over_machines(&machines, 60);
        let os = OsEnvironment::seeded(seed);
        let sim = Seeded(seed).sim().build();
        let on_os = final_states(&os, &machines, &workload);
        let on_sim = final_states(&sim, &machines, &workload);
        assert_eq!(on_os, on_sim, "seed {seed}: runtimes disagree");

        // Both must also match the in-process oracle executor.
        let mut system = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
        system.apply_workload(&workload);
        let expected: Vec<usize> = (0..machines.len())
            .map(|i| system.oracle_state_of(i).index())
            .collect();
        assert_eq!(on_sim, expected, "seed {seed}: sim diverges from oracle");
    }
}
