//! Property tests pinning the bitset kernel to the element-scan reference.
//!
//! The hot paths (`Partition::le`/`meet`/`join`, `close`, Algorithm 2) were
//! rewritten over the `u64`-word block
//! representation in `fsm_fusion::fusion::bitset`; the pre-refactor
//! element-scan implementations are preserved verbatim in
//! `fsm_fusion::fusion::reference`.  These properties assert, on random
//! partitions and random machine families, that
//!
//! * `BitsetPartition` round-trips with `Partition` (canonical form intact),
//! * every optimized operation agrees with its element-scan twin,
//! * the full Algorithm 2 produces identical fusions through both paths.

use fsm_fusion::fusion::reference;
use fsm_fusion::fusion::{
    close, generate_fusion, BitsetPartition, ClosureKernel, FaultGraph, Partition,
};
use fsm_fusion::machines::{random_dfsm, RandomDfsmConfig};
use fsm_fusion::prelude::*;
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

/// A small random machine pair over the shared binary alphabet, as used by
/// the theory property tests.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Converting to bitset form and back is the identity, and both forms
    /// answer membership queries identically.
    #[test]
    fn bitset_roundtrips_with_partition(seed in 0u64..100_000, n in 1usize..200, blocks in 1usize..12) {
        let p = random_partition(seed, n, blocks);
        let bits = BitsetPartition::from_partition(&p);
        prop_assert_eq!(bits.to_partition(), p.clone());
        prop_assert_eq!(bits.len(), p.len());
        prop_assert_eq!(bits.num_blocks(), p.num_blocks());
        for x in 0..n {
            prop_assert_eq!(bits.block_of(x), p.block_of(x));
        }
        for b in 0..p.num_blocks() {
            prop_assert_eq!(bits.block_ones(b).collect::<Vec<_>>(), p.block(b));
            prop_assert_eq!(bits.block_size(b), p.block(b).len());
        }
    }

    /// `le` agrees across the optimized element pass, the pre-refactor scan
    /// and the word-level bitset kernel — on random pairs and on pairs that
    /// are comparable by construction.
    #[test]
    fn le_agrees_with_scan_and_bitset(seed in 0u64..100_000, n in 2usize..150, blocks in 1usize..10) {
        let p = random_partition(seed, n, blocks);
        let q = random_partition(seed ^ 0xABCD, n, blocks);
        let (bp, bq) = (p.to_bitset(), q.to_bitset());
        prop_assert_eq!(p.le(&q), reference::le_scan(&p, &q));
        prop_assert_eq!(p.le(&q), bp.le(&bq));
        prop_assert_eq!(q.le(&p), bq.le(&bp));
        prop_assert_eq!(p.incomparable(&q), bp.incomparable(&bq));
        // A genuine coarsening, so the `true` branch is exercised too.
        let coarser = p.merge_elements(0, n - 1);
        prop_assert!(coarser.le(&p));
        prop_assert!(reference::le_scan(&coarser, &p));
        prop_assert!(coarser.to_bitset().le(&bp));
        prop_assert_eq!(coarser.lt(&p), coarser.to_bitset().lt(&bp));
    }

    /// `meet` and `join` agree with the element-scan reference and with the
    /// bitset kernel, and canonical forms are preserved.
    #[test]
    fn meet_join_agree_with_scan_and_bitset(seed in 0u64..100_000, n in 1usize..150, blocks in 1usize..10) {
        let p = random_partition(seed, n, blocks);
        let q = random_partition(seed ^ 0x5555, n, blocks);
        let meet = p.meet(&q);
        let join = p.join(&q);
        prop_assert_eq!(meet.clone(), reference::meet_scan(&p, &q));
        prop_assert_eq!(join.clone(), reference::join_scan(&p, &q));
        let (bp, bq) = (p.to_bitset(), q.to_bitset());
        prop_assert_eq!(bp.meet(&bq).to_partition(), meet.clone());
        prop_assert_eq!(bp.join(&bq).to_partition(), join.clone());
        // Lattice laws as a sanity net.
        prop_assert!(meet.le(&p) && meet.le(&q));
        prop_assert!(p.le(&join) && q.le(&join));
    }

    /// The fault-graph add produces exactly the same edge weights as the
    /// per-pair scan.
    #[test]
    fn fault_graph_add_machine_agrees_with_scan(seed in 0u64..100_000, n in 2usize..130, blocks in 1usize..9) {
        let machines: Vec<Partition> = (0..3)
            .map(|i| random_partition(seed.wrapping_add(i * 101), n, blocks))
            .collect();
        let mut word = FaultGraph::new(n);
        let mut scan = FaultGraph::new(n);
        for p in &machines {
            word.add_machine(p);
            scan.add_machine_scan(p);
        }
        prop_assert_eq!(word.num_machines(), scan.num_machines());
        prop_assert_eq!(word.dmin(), scan.dmin());
        prop_assert_eq!(word.weight_histogram(), scan.weight_histogram());
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(word.weight(i, j), scan.weight(i, j));
            }
        }
    }

    /// The flat-array closure kernel computes the same closed partitions as
    /// the pre-refactor `HashMap` fixpoint, on random machine products.
    #[test]
    fn close_agrees_with_close_scan(seed in 0u64..50_000, merges in 0usize..4) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let top = product.top();
        let n = top.size();
        let mut p = Partition::singletons(n);
        let mut state = seed;
        for _ in 0..merges {
            let x = (splitmix(&mut state) as usize) % n;
            let y = (splitmix(&mut state) as usize) % n;
            p = p.merge_elements(x, y);
        }
        let fast = close(top, &p).unwrap();
        let slow = reference::close_scan(top, &p).unwrap();
        prop_assert_eq!(fast.clone(), slow);
        // close_merged through a reusable kernel matches merge + close.
        let kernel = ClosureKernel::new(top);
        for b1 in 0..fast.num_blocks() {
            for b2 in (b1 + 1)..fast.num_blocks() {
                prop_assert_eq!(
                    kernel.close_merged(&fast, b1, b2).unwrap(),
                    reference::close_scan(top, &fast.merge_blocks(b1, b2)).unwrap()
                );
            }
        }
    }

    /// Algorithm 2 end to end: the bitset-kernel implementation generates
    /// exactly the same fusion machines as the pre-refactor element-scan
    /// implementation.
    #[test]
    fn generate_fusion_agrees_with_scan(seed in 0u64..50_000, f in 1usize..3) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = fsm_fusion::fusion::projection_partitions(&product);
        let fast = generate_fusion(product.top(), &originals, f).unwrap();
        let slow = reference::generate_fusion_scan(product.top(), &originals, f).unwrap();
        prop_assert_eq!(fast.partitions, slow.partitions);
        prop_assert_eq!(fast.stats.initial_dmin, slow.stats.initial_dmin);
        prop_assert_eq!(fast.stats.final_dmin, slow.stats.final_dmin);
        prop_assert_eq!(fast.stats.outer_iterations, slow.stats.outer_iterations);
        prop_assert_eq!(fast.stats.candidates_examined, slow.stats.candidates_examined);
    }
}
