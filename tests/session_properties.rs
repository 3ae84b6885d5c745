//! Property tests pinning the `FusionSession` API to the legacy free
//! functions, and its initial-fault-graph slot to bit-identical warm/cold
//! runs.
//!
//! The session path owns state the free functions re-derive per call
//! (kernel, scratch, the last initial fault graph), so the properties here
//! are the contract that keeps the two paths interchangeable:
//!
//! * session `generate_fusion` — at any worker count, with the graph slot
//!   warm or cold — returns exactly the free `generate_fusion`'s
//!   partitions, machines and statistics (everything but wall-clock time),
//!   across repeated `f` sweeps on one session;
//! * session and free lattice walks equal the test-only `n`-state oracle
//!   (`tests/support/lattice_oracle.rs`);
//! * every `ProductBuilder` strategy builds the identical product;
//! * the graph-slot counters behave deterministically: a repeated `f`
//!   sweep is answered entirely from the slot, lattice walks never touch
//!   it, and the config precedence rules pin explicit > environment >
//!   auto-detect.

#[path = "support/lattice_oracle.rs"]
mod lattice_oracle;

use fsm_fusion::fusion::{
    close, enumerate_lattice, lower_cover, projection_partitions, FusionConfig, FusionSession,
};
use fsm_fusion::machines::{random_dfsm, table1_rows, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// A small random machine pair over the shared binary alphabet, matching
/// the families the parallel/bitset property suites use.
fn machine_family(seed: u64) -> Vec<Dfsm> {
    (0..2)
        .map(|i| {
            random_dfsm(
                &format!("M{i}"),
                &RandomDfsmConfig {
                    states: 2 + ((seed as usize + 3 * i) % 3),
                    alphabet: vec!["0".into(), "1".into()],
                    seed: seed.wrapping_add(i as u64 * 7919),
                },
            )
        })
        .collect()
}

/// The lower cover of `p`, free and through `session`, equals the oracle's.
fn check_lower_cover(session: &mut FusionSession, top: &Dfsm, p: &Partition, label: &str) {
    let oracle = lattice_oracle::lower_cover(top, p);
    assert_eq!(lower_cover(top, p).unwrap(), oracle, "{label}: free");
    let walked = session.lower_cover(top, p).unwrap();
    assert_eq!(walked, oracle, "{label}: session");
}

/// The lattice walk of `top` up to `limit` elements, free and through
/// `session`, equals the oracle's (elements and truncation flag).
fn check_lattice(session: &mut FusionSession, top: &Dfsm, limit: usize, label: &str) {
    let oracle = lattice_oracle::enumerate_lattice(top, limit);
    for (walk, path) in [
        (enumerate_lattice(top, limit).unwrap(), "free"),
        (session.enumerate_lattice(top, limit).unwrap(), "session"),
    ] {
        assert_eq!(walk.elements, oracle.elements, "{label}: {path}");
        assert_eq!(walk.truncated, oracle.truncated, "{label}: {path}");
    }
}

/// Asserts a session generation equals a cold sequential one in everything
/// but wall-clock time.
fn assert_same_generation(
    warm: &fsm_fusion::fusion::FusionGeneration,
    cold: &fsm_fusion::fusion::FusionGeneration,
    label: &str,
) {
    assert_eq!(warm.partitions, cold.partitions, "{label}");
    assert_eq!(warm.machine_sizes(), cold.machine_sizes(), "{label}");
    assert_eq!(warm.state_space(), cold.state_space(), "{label}");
    assert_eq!(warm.stats.initial_dmin, cold.stats.initial_dmin, "{label}");
    assert_eq!(warm.stats.final_dmin, cold.stats.final_dmin, "{label}");
    assert_eq!(
        warm.stats.outer_iterations, cold.stats.outer_iterations,
        "{label}"
    );
    assert_eq!(
        warm.stats.descent_steps, cold.stats.descent_steps,
        "{label}"
    );
    assert_eq!(
        warm.stats.candidates_examined, cold.stats.candidates_examined,
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The session path, swept over `f` twice on one session (cold cache,
    /// then warm cache) at any worker count, is bit-identical to the cold
    /// free-function path — reports, stats and partitions.
    #[test]
    fn session_sweeps_are_bit_identical_to_cold_runs(
        seed in 0u64..50_000,
        workers in 1usize..4,
    ) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let mut session = FusionConfig::new().workers(workers).build();
        for sweep in 0..2 {
            for f in 1..=3usize {
                let cold = generate_fusion(product.top(), &originals, f).unwrap();
                let warm = session.generate_fusion(product.top(), &originals, f).unwrap();
                assert_same_generation(&warm, &cold, &format!("sweep {sweep} f {f}"));
            }
        }
    }

    /// The session's product tables are bit-identical to the reference
    /// construction for every strategy (states, names, transitions,
    /// projections — `find_tuple` included).
    #[test]
    fn session_products_match_the_reference_tables(seed in 0u64..50_000) {
        let machines = machine_family(seed);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        for strategy in [
            ProductStrategy::Auto,
            ProductStrategy::Packed,
            ProductStrategy::Parallel,
            ProductStrategy::Reference,
        ] {
            let session = FusionConfig::new().product(strategy).workers(2).build();
            let product = session.build_product(&machines).unwrap();
            assert_eq!(product.size(), reference.size(), "{strategy:?}");
            for t in 0..product.size() {
                let t = StateId(t);
                assert_eq!(product.tuple(t), reference.tuple(t), "{strategy:?}");
                assert_eq!(
                    product.top().state_name(t),
                    reference.top().state_name(t),
                    "{strategy:?}"
                );
            }
            for i in 0..product.arity() {
                assert_eq!(
                    product.projection_blocks(i),
                    reference.projection_blocks(i),
                    "{strategy:?}"
                );
            }
        }
    }

    /// Session and free lattice walks equal the `n`-state oracle — the
    /// whole lattice, the lower cover of `⊤` and that of a random closed
    /// partition (the closure of a few random merges) — with the session
    /// warm from a preceding generation over the same machine.
    #[test]
    fn session_lattices_match_free_functions(seed in 0u64..50_000, merges in 0usize..4) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let (top, n) = (product.top(), product.size());
        let originals = projection_partitions(&product);
        let mut session = FusionConfig::new().build();
        session.generate_fusion(top, &originals, 1).unwrap();
        check_lattice(&mut session, top, 500, "lattice");
        check_lower_cover(&mut session, top, &Partition::singletons(n), "top");
        let mut p = Partition::singletons(n);
        for m in 0..merges {
            p = p.merge_elements((seed as usize + 13 * m) % n, (seed as usize * 31 + 7 * m) % n);
        }
        let current = close(top, &p).unwrap();
        check_lower_cover(&mut session, top, &current, "random closed partition");
    }
}

/// The five Table 1 tops: the lower covers of each row's projections and
/// generated fusion machines, free and through one session, equal the
/// oracle's; so do the lower cover of `⊤` and the first elements of the
/// lattice walk for the tops of at most 176 states.
#[test]
fn table1_tops_match_the_lattice_oracle() {
    let mut session = FusionConfig::new().build();
    let mut tops_walked = 0;
    for row in table1_rows() {
        let product = ReachableProduct::new(&row.machines).unwrap();
        let (top, n) = (product.top(), product.size());
        let originals = projection_partitions(&product);
        let fusion = generate_fusion(top, &originals, row.f).unwrap();
        for (i, p) in originals.iter().chain(&fusion.partitions).enumerate() {
            check_lower_cover(&mut session, top, p, &format!("{}: machine {i}", row.label));
        }
        if n <= 176 {
            let label = format!("{}: top", row.label);
            check_lower_cover(&mut session, top, &Partition::singletons(n), &label);
            check_lattice(&mut session, top, 40, &label);
            tops_walked += 1;
        }
    }
    assert!(tops_walked > 0);
}

/// The `tests/alloc_free.rs`-style steady-state assertion, on the graph
/// slot's counters instead of the allocator: after one generation built
/// the initial fault graph, an `f` sweep over the same `(⊤, originals)` is
/// answered **entirely** from the slot — zero new misses.  Lattice walks in
/// between leave the slot alone and equal the oracle.
#[test]
fn repeated_sweep_is_answered_entirely_from_the_cache() {
    let machines = fig1_machines();
    let mut session = FusionConfig::new().build();
    let (product, _) = session.generate_fusion_for_machines(&machines, 1).unwrap();
    let originals = projection_partitions(&product);
    let top = product.top();
    let warm = session.cache_stats();
    assert_eq!((warm.hits, warm.misses), (0, 1), "{warm}");

    // A walk equals the oracle and leaves the slot alone.
    let oracle = lattice_oracle::enumerate_lattice(top, 500);
    let first = session.enumerate_lattice(top, 500).unwrap();
    assert_eq!(first.elements, oracle.elements);
    assert_eq!(session.cache_stats(), warm);

    // Fusion sweeps hit the graph slot and never rebuild.
    for f in 1..=3 {
        session.generate_fusion(top, &originals, f).unwrap();
    }
    let swept = session.cache_stats();
    assert_eq!(swept.hits, warm.hits + 3, "{swept}");
    assert_eq!(swept.misses, warm.misses, "{swept}");

    // Steady state: the identical walk gives the identical lattice.
    let again = session.enumerate_lattice(top, 500).unwrap();
    assert_eq!(again.elements, first.elements);
    assert_eq!(session.cache_stats(), swept);
}

/// The delta counterpart of the steady-state assertion: `update_top`
/// (`AddMachine`) evolves the kept fault graph instead of dropping it, so
/// sweeps over the evolved `⊤` hit it; walks before and after the delta
/// equal the oracle on the machine installed at the time.
#[test]
fn update_top_remaps_instead_of_clearing() {
    let machines = fig1_machines();
    let mut session = FusionConfig::new().build();
    session.install_top(&machines).unwrap();
    for f in 1..=2 {
        session.generate_top_fusion(f).unwrap();
    }
    let top = session.top_product().unwrap().top().clone();
    let walked = session.enumerate_lattice(&top, 500).unwrap();
    assert_eq!(
        walked.elements,
        lattice_oracle::enumerate_lattice(&top, 500).elements
    );
    let before = session.cache_stats();
    assert_eq!((before.hits, before.misses), (1, 1), "{before}");

    let mut third = fig1_machines().remove(0);
    third = third.renamed("C");
    let delta_stats = session.update_top(TopDelta::AddMachine(third)).unwrap();
    assert!(!delta_stats.graph_rebuilt, "{delta_stats}");
    assert_eq!(delta_stats.closures_remapped, 0, "{delta_stats}");
    assert_eq!(session.cache_stats(), before);

    // Sweeps over the evolved top hit the evolved graph …
    for f in 1..=2 {
        session.generate_top_fusion(f).unwrap();
    }
    let swept = session.cache_stats();
    assert_eq!(swept.hits, before.hits + 2, "{swept}");
    assert_eq!(swept.misses, before.misses, "{swept}");
    // … and walks over it equal the oracle and the free function.
    let evolved = session.top_product().unwrap().top().clone();
    let oracle = lattice_oracle::enumerate_lattice(&evolved, 500);
    let free = enumerate_lattice(&evolved, 500).unwrap();
    assert_eq!(free.elements, oracle.elements);
    for _ in 0..2 {
        let walked = session.enumerate_lattice(&evolved, 500).unwrap();
        assert_eq!(walked.elements, oracle.elements);
        assert_eq!(walked.truncated, oracle.truncated);
    }
    assert_eq!(session.cache_stats(), swept);
}

/// Config precedence regression: explicit > environment snapshot >
/// auto-detect, for the worker count and the product strategy it drives,
/// via the pure `from_env_values` resolution (no process-environment
/// mutation).
#[test]
fn config_precedence_is_explicit_then_env_then_auto() {
    // Auto-detect floor: nothing configured → 1 worker, packed product.
    let auto = FusionConfig::new();
    assert_eq!(auto.resolved_workers(), 1);
    assert_eq!(auto.resolved_product(), ProductStrategy::Packed);

    // Environment beats auto-detect.
    let env = FusionConfig::from_env_values(Some("4"), None, None);
    assert_eq!(env.resolved_workers(), 4);
    assert_eq!(env.resolved_product(), ProductStrategy::Parallel);

    // Explicit beats environment, and the session carries the result.
    let explicit = FusionConfig::from_env_values(Some("8"), None, None).workers(1);
    assert_eq!(explicit.resolved_workers(), 1);
    let session = explicit.build();
    assert_eq!(session.workers(), 1);
    assert_eq!(session.product_strategy(), ProductStrategy::Packed);
}

/// The legacy free functions and system constructors remain available and
/// agree with an explicitly configured session end to end (the "thin shim"
/// contract at the facade level).
#[test]
fn facade_shims_agree_with_sessions_end_to_end() {
    let machines = fig1_machines();
    let mut session = FusionConfig::new().build();

    let (product, via_session) = session.generate_fusion_for_machines(&machines, 1).unwrap();
    let (product_legacy, via_legacy) = generate_fusion_for_machines(&machines, 1).unwrap();
    assert_eq!(product.size(), product_legacy.size());
    assert_eq!(via_session.partitions, via_legacy.partitions);

    let mut legacy = FusedSystem::new(&machines, 1, FaultModel::Crash).unwrap();
    let mut sessioned =
        FusedSystem::with_session(&machines, 1, FaultModel::Crash, &mut session).unwrap();
    let w = Workload::from_bits("0110100101");
    legacy.apply_workload(&w);
    sessioned.apply_workload(&w);
    legacy.crash(0).unwrap();
    sessioned.crash(0).unwrap();
    let a = legacy.recover().unwrap();
    let b = sessioned.recover().unwrap();
    assert!(a.matches_oracle && b.matches_oracle);
    assert_eq!(a.repaired, b.repaired);

    // And the session type is reachable through the prelude.  Both
    // generations went through the graph slot; a lower cover equals the
    // oracle and leaves the slot alone.
    let _: &FusionSession = &session;
    let stats: CacheStats = session.cache_stats();
    assert_eq!(stats.hits + stats.misses, 2, "{stats}");
    let top = Partition::singletons(product.size());
    assert_eq!(
        session.lower_cover(product.top(), &top).unwrap(),
        lattice_oracle::lower_cover(product.top(), &top)
    );
    assert_eq!(session.cache_stats(), stats);
}
