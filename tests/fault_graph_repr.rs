//! Property tests pinning the sparse fault-graph representation to the
//! dense striped one.
//!
//! `FaultGraph` now carries its edge weights in one of two representations
//! (`WeightRepr`): the dense flat upper-triangular matrix with per-stripe
//! histograms, or the sparse deficit rows that store only the pairs some
//! machine still separates incompletely.  `FaultGraph::from_partitions`
//! picks between them from a density estimate.  These properties assert,
//! on random machine families over random tops, that every observable the
//! fusion layer consumes — `dmin`, the weakest-edge set, weight queries,
//! histograms, tolerance bounds, and `speculate` — is bit-identical across
//! both representations and equal to the preserved element-scan reference,
//! including across the automatic density crossover.

use fsm_fusion::fusion::fault_graph::{SPARSE_DENSITY_DIV, SPARSE_MIN_EDGES};
use fsm_fusion::fusion::{FaultGraph, Partition, WeightRepr};
use proptest::prelude::*;

/// Deterministic SplitMix64, so failures reproduce from the case inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pseudo-random partition of `n` elements into at most `max_blocks`
/// blocks.
fn random_partition(seed: u64, n: usize, max_blocks: usize) -> Partition {
    let mut state = seed;
    let assignment: Vec<usize> = (0..n)
        .map(|_| (splitmix(&mut state) as usize) % max_blocks)
        .collect();
    Partition::from_assignment(&assignment)
}

/// Every observable of two fault graphs must agree.
fn assert_graphs_identical(
    a: &FaultGraph,
    b: &FaultGraph,
) -> std::result::Result<(), TestCaseError> {
    let n = a.num_states();
    prop_assert_eq!(n, b.num_states());
    prop_assert_eq!(a.num_edges(), b.num_edges());
    prop_assert_eq!(a.num_machines(), b.num_machines());
    prop_assert_eq!(a.dmin(), b.dmin());
    prop_assert_eq!(a.dmin(), a.dmin_scan());
    prop_assert_eq!(a.weakest_edges(), b.weakest_edges());
    prop_assert_eq!(a.weakest_edges(), a.weakest_edges_scan());
    prop_assert_eq!(a.weight_histogram(), b.weight_histogram());
    prop_assert_eq!(a.max_crash_faults(), b.max_crash_faults());
    prop_assert_eq!(a.max_byzantine_faults(), b.max_byzantine_faults());
    for f in 0..4 {
        prop_assert_eq!(a.tolerates_crash_faults(f), b.tolerates_crash_faults(f));
        prop_assert_eq!(
            a.tolerates_byzantine_faults(f),
            b.tolerates_byzantine_faults(f)
        );
    }
    for i in 0..n {
        for j in (i + 1)..n {
            prop_assert_eq!(a.weight(i, j), b.weight(i, j));
        }
    }
    for w in 0..=(a.num_machines() as u32) {
        prop_assert_eq!(a.edges_with_weight(w), b.edges_with_weight(w));
        prop_assert_eq!(
            a.edges_with_weight_at_most(w),
            b.edges_with_weight_at_most(w)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incrementally grown graphs agree across representations after every
    /// single `add_machine`, and candidate probes (`speculate`,
    /// `addition_increases_dmin`) answer identically throughout.
    #[test]
    fn sparse_and_dense_graphs_agree_while_growing(
        seed in 0u64..100_000,
        n in 1usize..80,
        blocks in 1usize..8,
        machines in 1usize..6,
    ) {
        let mut dense = FaultGraph::with_representation(n, WeightRepr::Dense);
        let mut sparse = FaultGraph::with_representation(n, WeightRepr::Sparse);
        prop_assert_eq!(dense.representation(), WeightRepr::Dense);
        prop_assert_eq!(sparse.representation(), WeightRepr::Sparse);
        for m in 0..machines {
            let p = random_partition(seed.wrapping_add(m as u64 * 101), n, blocks);
            dense.add_machine(&p);
            sparse.add_machine(&p);
            assert_graphs_identical(&dense, &sparse)?;

            let candidate = random_partition(seed ^ ((m as u64) << 9), n, blocks);
            prop_assert_eq!(dense.speculate(&candidate), sparse.speculate(&candidate));
            prop_assert_eq!(
                dense.addition_increases_dmin(&candidate),
                sparse.addition_increases_dmin(&candidate)
            );
            prop_assert_eq!(
                dense.addition_increases_dmin(&candidate),
                dense.addition_increases_dmin_scan(&candidate)
            );
        }
    }

    /// Bulk construction (`from_partitions_with`) equals the incremental
    /// path for both representations, and the auto-selected graph — on
    /// whichever side of the density crossover the family lands — matches
    /// both.  `n` spans several 64-state stripes with a partial tail word,
    /// and the family may be empty.
    #[test]
    fn bulk_auto_and_incremental_construction_agree(
        seed in 0u64..100_000,
        n in 1usize..200,
        blocks in 1usize..8,
        machines in 0usize..6,
    ) {
        let parts: Vec<Partition> = (0..machines)
            .map(|m| random_partition(seed.wrapping_add(m as u64 * 101), n, blocks))
            .collect();
        let mut incremental = FaultGraph::new(n);
        for p in &parts {
            incremental.add_machine(p);
        }
        let auto = FaultGraph::from_partitions(n, &parts);
        assert_graphs_identical(&incremental, &auto)?;
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let bulk = FaultGraph::from_partitions_with(n, &parts, repr);
            prop_assert_eq!(bulk.representation(), repr);
            assert_graphs_identical(&incremental, &bulk)?;
        }
    }

    /// The density-estimate selection rule: sparse is chosen exactly when
    /// the graph is big enough to matter and the estimated stored entries
    /// are at most a `1/SPARSE_DENSITY_DIV` fraction of the edges.
    #[test]
    fn auto_selection_follows_the_density_estimate(
        edges in 1usize..1_000_000,
        est in 0u64..1_000_000,
    ) {
        let est = est as u128;
        // With the size gate disabled, the rule is purely the density test.
        let repr = WeightRepr::auto_for_estimate(edges, est, 0);
        let expect_sparse = est * SPARSE_DENSITY_DIV as u128 <= edges as u128;
        prop_assert_eq!(repr == WeightRepr::Sparse, expect_sparse);
        // Below the size gate, dense always wins.
        if edges < SPARSE_MIN_EDGES {
            prop_assert_eq!(
                WeightRepr::auto_for_estimate(edges, est, SPARSE_MIN_EDGES),
                WeightRepr::Dense
            );
        }
    }
}
