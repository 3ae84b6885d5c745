//! Pins Algorithm 2's quotient scorer to the `n`-state closure oracle.
//!
//! The descent scores the merge of blocks `b1`, `b2` of a closed partition
//! `current` on the quotient machine `⊤/current`
//! (`ClosureKernel::quotient_level`), abandoning the closure at its first
//! union across a forbidden block pair.  For every block pair of every
//! level checked here:
//!
//! * the quotient verdict equals
//!   `covers_all(close_merged(current, b1, b2), edges)`, and
//! * every closure that ran to completion, once lifted to the states of
//!   `⊤`, equals `close_merged(current, b1, b2)`.
//!
//! Levels come from random closed partitions of random machine products
//! and from the five Table 1 tops (their projections, their generated
//! fusion machines and, for the smaller tops, `⊤` itself).

use fsm_fusion::fusion::{
    close, generate_fusion, projection_partitions, CloseScratch, ClosureKernel, FaultGraph,
    Partition, QuotientMerge,
};
use fsm_fusion::machines::{random_dfsm, table1_rows, RandomDfsmConfig};
use fsm_fusion::prelude::*;
use proptest::prelude::*;

/// How often each outcome occurred over the checked merges.
#[derive(Debug, Default)]
struct Outcomes {
    aborted: usize,
    fails: usize,
    covers: usize,
}

/// Checks every block pair of `current` against the oracle.
fn check_level(
    kernel: &ClosureKernel,
    current: &Partition,
    edges: &[(usize, usize)],
    label: &str,
    seen: &mut Outcomes,
) {
    let mut scratch = CloseScratch::new();
    let mut oracle_scratch = CloseScratch::new();
    let mut closed = Partition::singletons(0);
    let mut lifted = Partition::singletons(0);
    let mut level = kernel.quotient_level(&mut scratch, current, edges).unwrap();
    let k = level.num_blocks();
    assert_eq!(k, current.num_blocks(), "{label}");
    for b1 in 0..k {
        for b2 in (b1 + 1)..k {
            kernel
                .close_merged_into(&mut oracle_scratch, current, b1, b2, &mut closed)
                .unwrap();
            let outcome = level.merge(b1, b2);
            assert_eq!(
                outcome.covers(),
                FaultGraph::covers_all(&closed, edges),
                "{label}: verdict of merging blocks {b1} and {b2}"
            );
            match outcome {
                QuotientMerge::Aborted => seen.aborted += 1,
                QuotientMerge::Fails => seen.fails += 1,
                QuotientMerge::Covers => seen.covers += 1,
            }
            if outcome.completed() {
                level.lift_into(&mut lifted);
                assert_eq!(
                    lifted, closed,
                    "{label}: lifted closure of merging blocks {b1} and {b2}"
                );
            }
        }
    }
}

/// A small random machine family over a shared ternary alphabet.
fn machine_family(seed: u64, count: usize) -> Vec<Dfsm> {
    (0..count)
        .map(|i| {
            random_dfsm(
                &format!("M{i}"),
                &RandomDfsmConfig {
                    states: 2 + ((seed as usize + 3 * i) % 3),
                    alphabet: vec!["0".into(), "1".into(), "2".into()],
                    seed: seed.wrapping_add(i as u64 * 7919),
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random closed `current` partitions (closures of a few random
    /// merges), scored against the weakest edges of the originals' fault
    /// graph — once as they are (some may lie inside a block of `current`,
    /// which fails every merge) and once restricted to the edges `current`
    /// separates, the shape the descent always has — and against a sparse
    /// pseudo-random set of separated state pairs, which more often lets a
    /// closure complete before it joins a forbidden pair.
    #[test]
    fn quotient_verdicts_match_the_closure_oracle(
        seed in 0u64..50_000,
        count in 2usize..4,
        merges in 0usize..4,
    ) {
        let machines = machine_family(seed, count);
        let product = ReachableProduct::new(&machines).unwrap();
        let top = product.top();
        let n = top.size();
        let kernel = ClosureKernel::new(top);
        let originals = projection_partitions(&product);
        let weakest = FaultGraph::from_partitions(n, &originals).weakest_edges();
        let mut p = Partition::singletons(n);
        for m in 0..merges {
            let x = (seed as usize + 13 * m) % n;
            let y = (seed as usize * 31 + 7 * m) % n;
            p = p.merge_elements(x, y);
        }
        let current = close(top, &p).unwrap();
        let separated: Vec<(usize, usize)> = weakest
            .iter()
            .copied()
            .filter(|&(i, j)| current.separates(i, j))
            .collect();
        let sampled: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| current.separates(i, j))
            .filter(|&(i, j)| (seed as usize ^ (i * 31 + j * 17)) % 11 == 0)
            .collect();
        let mut seen = Outcomes::default();
        check_level(&kernel, &current, &weakest, "all weakest edges", &mut seen);
        check_level(&kernel, &current, &separated, "separated edges", &mut seen);
        check_level(&kernel, &current, &sampled, "sampled pairs", &mut seen);
    }
}

/// The five Table 1 tops: each row's projections and generated fusion
/// machines (each against the weakest edges of the graph it was generated
/// for), and `⊤` itself for the tops of at most 176 states.  Together they
/// exercise all three outcomes.
#[test]
fn table1_tops_match_the_closure_oracle() {
    let mut seen = Outcomes::default();
    for row in table1_rows() {
        let product = ReachableProduct::new(&row.machines).unwrap();
        let top = product.top();
        let n = top.size();
        let kernel = ClosureKernel::new(top);
        let originals = projection_partitions(&product);
        let mut graph = FaultGraph::from_partitions(n, &originals);
        let weakest = graph.weakest_edges();
        for (i, p) in originals.iter().enumerate() {
            let label = format!("{}: projection {i}", row.label);
            check_level(&kernel, p, &weakest, &label, &mut seen);
        }
        if n <= 176 {
            let label = format!("{}: top", row.label);
            check_level(
                &kernel,
                &Partition::singletons(n),
                &weakest,
                &label,
                &mut seen,
            );
        }
        let fusion = generate_fusion(top, &originals, row.f).unwrap();
        for (i, p) in fusion.partitions.iter().enumerate() {
            let label = format!("{}: fusion machine {i}", row.label);
            check_level(&kernel, p, &graph.weakest_edges(), &label, &mut seen);
            graph.add_machine(p);
        }
    }
    assert!(seen.aborted > 0, "{seen:?}");
    assert!(seen.fails > 0, "{seen:?}");
    assert!(seen.covers > 0, "{seen:?}");
}
