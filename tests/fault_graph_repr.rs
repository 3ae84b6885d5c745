//! Property tests pinning the fault graph's tracked paths to its
//! element-scan reference.
//!
//! `FaultGraph` keeps its edge weights in a flat upper-triangular `u16`
//! matrix with per-stripe (64-column) histograms and cached minima, and
//! builds it three ways: the bulk row pass of `from_partitions`, the
//! word-level `add_machine`, and the preserved per-pair `add_machine_scan`.
//! These properties assert, on random machine families, that every
//! observable the fusion layer consumes — `dmin`, the weakest-edge set,
//! weight queries, histograms, tolerance bounds, and `speculate` — is
//! bit-identical across the three builds and equal to the full-scan
//! queries, with state counts on both sides of the stripe boundaries.

use fsm_fusion::fusion::{FaultGraph, Partition};
use proptest::prelude::*;

/// State counts on both sides of the 64- and 128-state stripe boundaries.
const BOUNDARY_N: [usize; 5] = [63, 64, 65, 127, 129];

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

/// Every observable of two fault graphs must agree, and `a`'s tracked
/// queries must equal its full scans.
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
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A graph grown by `add_machine` agrees with one grown by the
    /// element scan and with a bulk build of the same prefix after every
    /// single add, and `speculate` answers like the clone-add-rescan
    /// reference throughout.
    #[test]
    fn incremental_graph_agrees_with_scans_while_growing(
        seed in 0u64..100_000,
        pick in 0usize..5,
        blocks in 1usize..8,
        machines in 1usize..6,
    ) {
        let n = BOUNDARY_N[pick];
        let mut word = FaultGraph::new(n);
        let mut scan = FaultGraph::new(n);
        let mut parts = Vec::new();
        for m in 0..machines {
            let p = random_partition(seed.wrapping_add(m as u64 * 101), n, blocks);
            word.add_machine(&p);
            scan.add_machine_scan(&p);
            parts.push(p);
            assert_graphs_identical(&word, &scan)?;
            assert_graphs_identical(&word, &FaultGraph::from_partitions(n, &parts))?;

            let candidate = random_partition(seed ^ ((m as u64) << 9), n, blocks);
            prop_assert_eq!(
                word.speculate(&candidate),
                word.addition_increases_dmin_scan(&candidate)
            );
            prop_assert_eq!(
                word.speculate_bitset(&candidate.to_bitset()),
                word.speculate(&candidate)
            );
        }
    }

    /// Bulk construction (`from_partitions`) equals the incremental and the
    /// element-scan paths.  `n` spans several 64-state stripes with a
    /// partial tail word, and the family may be empty.
    #[test]
    fn bulk_and_incremental_construction_agree(
        seed in 0u64..100_000,
        n in 1usize..200,
        blocks in 1usize..8,
        machines in 0usize..6,
    ) {
        let parts: Vec<Partition> = (0..machines)
            .map(|m| random_partition(seed.wrapping_add(m as u64 * 101), n, blocks))
            .collect();
        let mut incremental = FaultGraph::new(n);
        let mut scan = FaultGraph::new(n);
        for p in &parts {
            incremental.add_machine(p);
            scan.add_machine_scan(p);
        }
        let bulk = FaultGraph::from_partitions(n, &parts);
        assert_graphs_identical(&bulk, &incremental)?;
        assert_graphs_identical(&bulk, &scan)?;
    }
}
