//! Property tests pinning the library's partition, closure, fault-graph
//! and Algorithm-2 paths to the element scans of the test-only oracle
//! (`tests/support/scan_oracle.rs`).
//!
//! The library runs map-free single passes, quotient closures and a
//! weakest-edge index; the oracle runs per-element and per-pair scans with
//! tree and hash maps.  These properties assert, on random partitions and
//! random machine families, that
//!
//! * every partition operation agrees with its element-scan twin,
//! * closures and fault-graph observables agree with the scans,
//! * the full Algorithm 2 produces identical fusions through both paths.

#[path = "support/scan_oracle.rs"]
mod scan_oracle;

use fsm_fusion::fusion::{close, generate_fusion, ClosureKernel, FaultGraph, Partition};
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

/// The scans agree with the library on a hand-checked pair.
#[test]
fn scan_implementations_match_small_examples() {
    let p = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
    let q = Partition::from_blocks(4, &[vec![1, 2], vec![0], vec![3]]).unwrap();
    assert_eq!(scan_oracle::le(&p, &q), p.le(&q));
    assert_eq!(scan_oracle::meet(&p, &q), p.meet(&q));
    assert_eq!(scan_oracle::join(&p, &q), p.join(&q));
    assert_eq!(
        scan_oracle::from_assignment(&[7, 9, 2, 7]),
        Partition::from_assignment(&[7, 9, 2, 7])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `le` agrees with the element scan on random pairs and on pairs that
    /// are comparable by construction.
    #[test]
    fn le_agrees_with_scan(seed in 0u64..100_000, n in 2usize..150, blocks in 1usize..10) {
        let p = random_partition(seed, n, blocks);
        let q = random_partition(seed ^ 0xABCD, n, blocks);
        prop_assert_eq!(p.le(&q), scan_oracle::le(&p, &q));
        prop_assert_eq!(q.le(&p), scan_oracle::le(&q, &p));
        // A genuine coarsening, so the `true` branch is exercised too.
        let coarser = p.merge_elements(0, n - 1);
        prop_assert!(coarser.le(&p));
        prop_assert!(scan_oracle::le(&coarser, &p));
    }

    /// `meet` and `join` agree with the element scans, and canonical forms
    /// are preserved.
    #[test]
    fn meet_join_agree_with_scan(seed in 0u64..100_000, n in 1usize..150, blocks in 1usize..10) {
        let p = random_partition(seed, n, blocks);
        let q = random_partition(seed ^ 0x5555, n, blocks);
        let meet = p.meet(&q);
        let join = p.join(&q);
        prop_assert_eq!(meet.clone(), scan_oracle::meet(&p, &q));
        prop_assert_eq!(join.clone(), scan_oracle::join(&p, &q));
        // Lattice laws as a sanity net.
        prop_assert!(meet.le(&p) && meet.le(&q));
        prop_assert!(p.le(&join) && q.le(&join));
    }

    /// The fault-graph adds give exactly the per-pair scan's edge weights,
    /// histogram and `dmin`.
    #[test]
    fn fault_graph_add_machine_agrees_with_scan(seed in 0u64..100_000, n in 2usize..130, blocks in 1usize..9) {
        let machines: Vec<Partition> = (0..3)
            .map(|i| random_partition(seed.wrapping_add(i * 101), n, blocks))
            .collect();
        let mut g = FaultGraph::new(n);
        for p in &machines {
            g.add_machine(p);
        }
        prop_assert_eq!(g.num_machines(), machines.len());
        prop_assert_eq!(g.dmin(), scan_oracle::dmin(n, &machines));
        prop_assert_eq!(g.weight_histogram(), scan_oracle::weight_histogram(n, &machines));
        for i in 0..n {
            for j in (i + 1)..n {
                prop_assert_eq!(g.weight(i, j), scan_oracle::weight(&machines, i, j));
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
        let slow = scan_oracle::close(top, &p);
        prop_assert_eq!(fast.clone(), slow);
        // close_merged through a reusable kernel matches merge + close.
        let kernel = ClosureKernel::new(top);
        for b1 in 0..fast.num_blocks() {
            for b2 in (b1 + 1)..fast.num_blocks() {
                prop_assert_eq!(
                    kernel.close_merged(&fast, b1, b2).unwrap(),
                    scan_oracle::close(top, &fast.merge_blocks(b1, b2))
                );
            }
        }
    }

    /// Algorithm 2 end to end: the library generates exactly the same
    /// fusion machines, with the same statistics, as the element-scan
    /// descent.
    #[test]
    fn generate_fusion_agrees_with_scan(seed in 0u64..50_000, f in 1usize..3) {
        let machines = machine_family(seed);
        let product = ReachableProduct::new(&machines).unwrap();
        let originals = fsm_fusion::fusion::projection_partitions(&product);
        let fast = generate_fusion(product.top(), &originals, f).unwrap();
        let (partitions, stats) = scan_oracle::generate_fusion(product.top(), &originals, f);
        prop_assert_eq!(fast.partitions, partitions);
        prop_assert_eq!(fast.stats.initial_dmin, stats.initial_dmin);
        prop_assert_eq!(fast.stats.final_dmin, stats.final_dmin);
        prop_assert_eq!(fast.stats.outer_iterations, stats.outer_iterations);
        prop_assert_eq!(fast.stats.descent_steps, stats.descent_steps);
        prop_assert_eq!(fast.stats.candidates_examined, stats.candidates_examined);
    }
}
