//! Property tests pinning the `FusionSession` API to the legacy free
//! functions, and the closure cache to bit-identical cached/cold runs.
//!
//! The session path owns state the free functions re-derive per call
//! (kernel, scratch, closure + fault-graph cache), so the properties here
//! are the contract that keeps the two paths interchangeable:
//!
//! * session `generate_fusion` — at any worker count, with the cache warm
//!   or cold — returns exactly the free `generate_fusion`'s partitions,
//!   machines and statistics (everything but wall-clock time), across
//!   repeated `f` sweeps on one session;
//! * session lattice walks equal the free-function lattice walks;
//! * every `ProductBuilder` strategy builds the identical product;
//! * the cache-hit counters behave deterministically: a repeated lattice
//!   walk is answered entirely from the cache (the `tests/alloc_free.rs`-
//!   style steady-state assertion), fusion sweeps touch only the cached
//!   initial fault graph, and the config precedence rules pin explicit >
//!   environment > auto-detect.

use fsm_fusion::fusion::{enumerate_lattice, projection_partitions, FusionConfig, FusionSession};
use fsm_fusion::machines::{random_dfsm, RandomDfsmConfig};
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

    /// Session lattice enumeration equals the free-function lattice, with
    /// the cache warm from a preceding generation over the same machine.
    #[test]
    fn session_lattices_match_free_functions(seed in 0u64..50_000) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = projection_partitions(&product);
        let mut session = FusionConfig::new().build();
        // Warm the cache with a generation first — lattice closures must
        // coexist with descent closures in the same cache.
        session.generate_fusion(product.top(), &originals, 1).unwrap();
        let free = enumerate_lattice(product.top(), 500).unwrap();
        let warm = session.enumerate_lattice(product.top(), 500).unwrap();
        assert_eq!(warm.elements, free.elements);
        assert_eq!(warm.truncated, free.truncated);
    }
}

/// The `tests/alloc_free.rs`-style steady-state assertion, on the cache-hit
/// counters instead of the allocator: after one lattice walk warmed the
/// closure cache, an identical walk must be answered **entirely** from the
/// cache — zero new misses, zero new insertions.  Fusion sweeps in between
/// reuse the cached initial fault graph and leave the closure counters
/// alone: the descent scores its candidates on the quotient machine.
#[test]
fn repeated_sweep_is_answered_entirely_from_the_cache() {
    let machines = fig1_machines();
    let mut session = FusionConfig::new().build();
    let (product, _) = session.generate_fusion_for_machines(&machines, 1).unwrap();
    let originals = projection_partitions(&product);
    let top = product.top();

    // Warm-up walk.
    let first = session.enumerate_lattice(top, 500).unwrap();
    let warm = session.cache_stats();
    assert!(warm.insertions > 0);
    assert!(warm.misses > 0);

    // Fusion sweeps hit the graph slot and nothing else.
    for f in 1..=3 {
        session.generate_fusion(top, &originals, f).unwrap();
    }
    let swept = session.cache_stats();
    assert_eq!(swept.graph_hits, warm.graph_hits + 3, "{swept}");
    assert_eq!(swept.graph_misses, warm.graph_misses, "{swept}");
    assert_eq!(
        (swept.hits, swept.misses, swept.insertions),
        (warm.hits, warm.misses, warm.insertions),
        "generate_fusion consulted the closure cache"
    );

    // Steady state: the identical walk re-closes the identical merges.
    let again = session.enumerate_lattice(top, 500).unwrap();
    assert_eq!(again.elements, first.elements);
    let steady = session.cache_stats();
    assert_eq!(
        steady.misses, warm.misses,
        "steady-state walk missed the cache"
    );
    assert_eq!(steady.insertions, warm.insertions);
    assert_eq!(steady.graph_misses, warm.graph_misses);
    assert!(
        steady.hits > warm.hits,
        "steady-state walk did not hit the cache"
    );
    assert_eq!(steady.clears, warm.clears);
    // The default bound is far above this workload, and no delta ran:
    // nothing may have been evicted, in either walk.
    assert_eq!(warm.evicted, 0);
    assert_eq!(steady.evicted, 0);
}

/// The delta counterpart of the steady-state assertion: `update_top`
/// (`AddMachine`) evolves the cached fault graph instead of clearing the
/// cache, and drops the lattice-walk closures, which describe the old `⊤`.
/// Sweeps over the evolved `⊤` hit the evolved graph; a walk over it
/// equals the free-function walk, and a repeated walk is served from the
/// closures the first one stored.
#[test]
fn update_top_remaps_instead_of_clearing() {
    let machines = fig1_machines();
    let mut session = FusionConfig::new().build();
    session.install_top(&machines).unwrap();
    for f in 1..=2 {
        session.generate_top_fusion(f).unwrap();
    }
    let top = session.top_product().unwrap().top().clone();
    session.enumerate_lattice(&top, 500).unwrap();
    let before = session.cache_stats();
    assert!(before.insertions > 0, "{before}");
    assert_eq!(before.evicted, 0);
    assert_eq!(before.clears, 0);

    let mut third = fig1_machines().remove(0);
    third = third.renamed("C");
    let delta_stats = session.update_top(TopDelta::AddMachine(third)).unwrap();
    assert!(!delta_stats.graph_rebuilt, "{delta_stats}");
    assert_eq!(delta_stats.closures_remapped, 0, "{delta_stats}");
    let after_delta = session.cache_stats();
    assert_eq!(
        after_delta.evicted - before.evicted,
        delta_stats.closures_evicted,
        "session counter and UpdateStats disagree"
    );
    assert!(
        delta_stats.closures_evicted > before.insertions,
        "{delta_stats}"
    );
    assert_eq!(after_delta.clears, 0, "{after_delta}");

    // Sweeps over the evolved top hit the evolved graph and leave every
    // closure counter untouched …
    for f in 1..=2 {
        session.generate_top_fusion(f).unwrap();
    }
    let swept = session.cache_stats();
    assert_eq!(
        (swept.hits, swept.misses, swept.insertions),
        (after_delta.hits, after_delta.misses, after_delta.insertions),
        "generate_top_fusion consulted the closure cache"
    );
    assert_eq!(swept.graph_hits, after_delta.graph_hits + 2, "{swept}");
    assert_eq!(swept.graph_misses, after_delta.graph_misses, "{swept}");
    // … a walk over it equals the free function's and starts cold …
    let evolved = session.top_product().unwrap().top().clone();
    let walked = session.enumerate_lattice(&evolved, 500).unwrap();
    let free = enumerate_lattice(&evolved, 500).unwrap();
    assert_eq!(walked.elements, free.elements);
    assert_eq!(walked.truncated, free.truncated);
    let first_walk = session.cache_stats();
    assert_eq!(first_walk.hits, swept.hits, "stale closure served");
    // … and a repeated walk is served from the closures it stored.
    let again = session.enumerate_lattice(&evolved, 500).unwrap();
    assert_eq!(again.elements, free.elements);
    let steady = session.cache_stats();
    assert_eq!(steady.misses, first_walk.misses, "{steady}");
    assert!(steady.hits > first_walk.hits, "{steady}");
    assert_eq!(steady.evicted, after_delta.evicted);
    assert_eq!(steady.clears, 0);
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

    // And the session type is reachable through the prelude.  Generation
    // went through the graph slot only; a lower cover reaches the closures.
    let _: &FusionSession = &session;
    let stats: CacheStats = session.cache_stats();
    assert!(stats.graph_hits + stats.graph_misses > 0, "{stats}");
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
    let top = Partition::singletons(product.size());
    session.lower_cover(product.top(), &top).unwrap();
    let stats = session.cache_stats();
    assert!(stats.hits + stats.misses > 0, "{stats}");
}
