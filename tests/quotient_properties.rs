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
//!
//! The descent does not rebuild a level from `⊤`: after a covering merge
//! `QuotientLevel::descend` derives the next level from the current one
//! and carries down the merges that failed.  For every level of a descent
//! checked here, the derived level must equal `quotient_level` built on
//! the lifted partition — the same block count and the same verdict for
//! every pair — and both verdicts must equal the closure oracle's, which
//! remembers nothing.  Descents start from random
//! closed partitions, the Table 1 tops and disjoint mod-3 counter families.

use fsm_fusion::fusion::{
    close, generate_fusion, projection_partitions, CloseScratch, ClosureKernel, FaultGraph,
    Partition, QuotientLevel, QuotientMerge,
};
use fsm_fusion::machines::{mod_counter, random_dfsm, table1_rows, RandomDfsmConfig};
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

/// Every pair's verdict on `level`, in the descent's pair order.
fn verdicts(level: &mut QuotientLevel<'_>) -> Vec<bool> {
    let k = level.num_blocks();
    let pairs = (0..k).flat_map(|b1| (b1 + 1..k).map(move |b2| (b1, b2)));
    pairs.map(|(b1, b2)| level.merge(b1, b2).covers()).collect()
}

/// Runs the descent from `start` the way Algorithm 2 does — every level
/// moves to its first covering merge — and checks each derived level
/// against a level built from scratch on the lifted partition and every
/// verdict against the closure oracle.  Returns the number of descend
/// steps taken.
fn check_descent(
    kernel: &ClosureKernel,
    start: &Partition,
    edges: &[(usize, usize)],
    label: &str,
) -> usize {
    let (mut scratch, mut fresh_scratch) = (CloseScratch::new(), CloseScratch::new());
    let mut oracle_scratch = CloseScratch::new();
    let (mut held, mut closed) = (Partition::singletons(0), Partition::singletons(0));
    let mut level = kernel.quotient_level(&mut scratch, start, edges).unwrap();
    let mut steps = 0;
    loop {
        level.lift_level_into(&mut held);
        let label = format!("{label}, level {steps}");
        let mut fresh = kernel
            .quotient_level(&mut fresh_scratch, &held, edges)
            .unwrap();
        assert_eq!(level.num_blocks(), held.num_blocks(), "{label}");
        assert_eq!(fresh.num_blocks(), held.num_blocks(), "{label}");
        // The derived level's verdicts use the memo it carried down and
        // the one it builds while sweeping; the fresh level's only its
        // own; the oracle's none.
        let derived = verdicts(&mut level);
        assert_eq!(derived, verdicts(&mut fresh), "{label}");
        let k = held.num_blocks();
        let pairs = (0..k).flat_map(|b1| (b1 + 1..k).map(move |b2| (b1, b2)));
        for ((b1, b2), &covers) in pairs.clone().zip(&derived) {
            kernel
                .close_merged_into(&mut oracle_scratch, &held, b1, b2, &mut closed)
                .unwrap();
            let oracle = FaultGraph::covers_all(&closed, edges);
            assert_eq!(covers, oracle, "{label}: merging blocks {b1} and {b2}");
        }
        let Some((b1, b2)) = pairs.zip(&derived).find(|(_, &c)| c).map(|(p, _)| p) else {
            return steps;
        };
        assert!(level.merge(b1, b2).covers(), "{label}");
        level.descend();
        steps += 1;
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

    /// Descents from random closed partitions of random machine products,
    /// against the weakest edges they separate (the descent's shape) and
    /// against a sparse pseudo-random set of separated pairs.
    #[test]
    fn derived_levels_match_levels_built_from_top(
        seed in 0u64..50_000,
        count in 2usize..4,
        merges in 0usize..3,
    ) {
        let machines = machine_family(seed, count);
        let product = ReachableProduct::new(&machines).unwrap();
        let top = product.top();
        let n = top.size();
        let kernel = ClosureKernel::new(top);
        let weakest =
            FaultGraph::from_partitions(n, &projection_partitions(&product)).weakest_edges();
        let mut p = Partition::singletons(n);
        for m in 0..merges {
            p = p.merge_elements((seed as usize + 5 * m) % n, (seed as usize * 17 + 3 * m) % n);
        }
        let start = close(top, &p).unwrap();
        let separated: Vec<(usize, usize)> = weakest
            .iter()
            .copied()
            .filter(|&(i, j)| start.separates(i, j))
            .collect();
        let sampled: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| start.separates(i, j))
            .filter(|&(i, j)| (seed as usize ^ (i * 29 + j * 13)) % 7 == 0)
            .collect();
        check_descent(&kernel, &start, &separated, "separated edges");
        check_descent(&kernel, &start, &sampled, "sampled pairs");
    }
}

/// `count` mod-3 counters over disjoint events: `|⊤| = 3^count`.
fn counter_family(count: usize) -> Vec<Dfsm> {
    let alphabet: Vec<String> = (0..count).map(|i| format!("e{i}")).collect();
    let refs: Vec<&str> = alphabet.iter().map(String::as_str).collect();
    (0..count)
        .map(|i| mod_counter(&format!("C{i}"), 3, refs[i], &refs))
        .collect()
}

/// Algorithm 2's first descent from `⊤` over the Table 1 tops and the
/// counter families, plus a descent from each Table 1 projection: every
/// derived level equals the level built from `⊤` on its lifted partition.
#[test]
fn descents_match_levels_built_from_top() {
    let mut steps = 0;
    let rows = table1_rows()
        .into_iter()
        .map(|row| (row.label.to_string(), row.machines));
    let counters = (2..=4).map(|count| (format!("{count} mod-3 counters"), counter_family(count)));
    for (label, machines) in rows.chain(counters) {
        let product = ReachableProduct::new(&machines).unwrap();
        let n = product.size();
        let kernel = ClosureKernel::new(product.top());
        let originals = projection_partitions(&product);
        let weakest = FaultGraph::from_partitions(n, &originals).weakest_edges();
        let top = Partition::singletons(n);
        steps += check_descent(&kernel, &top, &weakest, &format!("{label}: top"));
        for (i, p) in originals.iter().enumerate() {
            let separated: Vec<(usize, usize)> = weakest
                .iter()
                .copied()
                .filter(|&(a, b)| p.separates(a, b))
                .collect();
            let label = format!("{label}: projection {i}");
            steps += check_descent(&kernel, p, &separated, &label);
        }
    }
    assert!(steps > 10, "only {steps} descend steps checked");
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
