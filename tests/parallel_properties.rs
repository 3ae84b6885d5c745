//! Property tests pinning the kept fault-graph index to the per-pair
//! rescans of the test-only scan oracle (`tests/support/scan_oracle.rs`).
//!
//! The kept `dmin` / weakest-edge / speculation queries of `FaultGraph`
//! must agree with the rescans under arbitrary interleavings of machine
//! additions and queries.

#[path = "support/scan_oracle.rs"]
mod scan_oracle;

use fsm_fusion::fusion::{FaultGraph, Partition};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental `dmin` / weakest-edge / speculation queries agree with
    /// the full rescans at every step of an interleaved add/query sequence,
    /// and a bulk build agrees with the same machines added one at a time.
    #[test]
    fn incremental_trackers_agree_with_rescans(
        seed in 0u64..100_000,
        n in 2usize..120,
        blocks in 1usize..9,
        adds in 1usize..6,
    ) {
        let machines: Vec<Partition> = (0..adds)
            .map(|i| random_partition(seed.wrapping_add(i as u64 * 101), n, blocks))
            .collect();
        let mut g = FaultGraph::new(n);
        prop_assert_eq!(g.dmin(), scan_oracle::dmin(n, &[]));
        for (step, p) in machines.iter().enumerate() {
            g.add_machine(p);
            let added = &machines[..=step];
            prop_assert_eq!(g.dmin(), scan_oracle::dmin(n, added));
            prop_assert_eq!(g.weakest_edges(), scan_oracle::weakest_edges(n, added));
            // Speculation against a fresh random candidate and against a
            // machine already in the graph.
            let candidate = random_partition(seed ^ ((step as u64) << 7), n, blocks);
            for c in [&candidate, p] {
                let scan = scan_oracle::addition_increases_dmin(n, added, c);
                prop_assert_eq!(g.speculate(c), scan);
            }
        }
        let bulk = FaultGraph::from_partitions(n, &machines);
        prop_assert_eq!(bulk.dmin(), g.dmin());
        prop_assert_eq!(bulk.weakest_edges(), g.weakest_edges());
        prop_assert_eq!(bulk.weight_histogram(), g.weight_histogram());
    }
}
