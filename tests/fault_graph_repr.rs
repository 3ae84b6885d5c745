//! Property tests pinning the fault graph's weakest-edge index to its
//! per-pair reference.
//!
//! `FaultGraph` stores no weights: it keeps the machines' distinct
//! partitions with their multiplicities, `dmin` and the weakest edges, and
//! finds a level either by hashing block-id signatures or, when that would
//! cost more, by a row sweep.  It is built and evolved four ways: the bulk
//! `from_partitions`, `add_machine`, and the two state remaps.  These
//! properties assert, on random, duplicate-heavy and high-`dmin` families,
//! that every observable the fusion layer consumes — `dmin`, the
//! weakest-edge set, weight queries, histograms, tolerance bounds, and
//! `speculate` — agrees across the builds and with the per-pair scans of
//! the test-only oracle (`tests/support/scan_oracle.rs`), with state counts
//! on both sides of 64 and 128.

#[path = "support/scan_oracle.rs"]
mod scan_oracle;

use std::collections::HashSet;

use fsm_fusion::fusion::{FaultGraph, Partition};
use proptest::prelude::*;

/// State counts on both sides of 64 and 128.
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

/// A partition as coarse as a greedy pass makes it that still separates
/// every weakest edge of `g`: adding it raises `dmin`.
fn covering_partition(g: &FaultGraph, seed: u64) -> Partition {
    let weakest: HashSet<(usize, usize)> = g.weakest_edges().into_iter().collect();
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut assignment = vec![0; g.num_states()];
    let mut state = seed;
    let offset = splitmix(&mut state) as usize;
    for (x, slot) in assignment.iter_mut().enumerate() {
        let fits = |block: &Vec<usize>| {
            block
                .iter()
                .all(|&y| !weakest.contains(&(y.min(x), y.max(x))))
        };
        let b = (0..blocks.len())
            .map(|k| (k + offset) % blocks.len())
            .find(|&k| fits(&blocks[k]))
            .unwrap_or_else(|| {
                blocks.push(Vec::new());
                blocks.len() - 1
            });
        blocks[b].push(x);
        *slot = b;
    }
    Partition::from_assignment(&assignment)
}

/// `p` pulled back along `mapping`: new state `i` sits in the block of
/// old state `mapping[i]`.
fn lift(p: &Partition, mapping: &[u32]) -> Partition {
    let a = p.assignment();
    Partition::from_assignment(&mapping.iter().map(|&x| a[x as usize]).collect::<Vec<_>>())
}

/// Every observable of two fault graphs of the same `machines` must agree,
/// and `a`'s must equal the per-pair scans over `machines`.
fn assert_graphs_identical(
    a: &FaultGraph,
    b: &FaultGraph,
    machines: &[Partition],
) -> std::result::Result<(), TestCaseError> {
    let n = a.num_states();
    prop_assert_eq!(n, b.num_states());
    prop_assert_eq!(a.num_edges(), b.num_edges());
    prop_assert_eq!(a.num_machines(), b.num_machines());
    prop_assert_eq!(a.num_machines(), machines.len());
    prop_assert_eq!(a.dmin(), b.dmin());
    prop_assert_eq!(a.dmin(), scan_oracle::dmin(n, machines));
    prop_assert_eq!(a.weakest_edges(), b.weakest_edges());
    prop_assert_eq!(a.weakest_edges(), scan_oracle::weakest_edges(n, machines));
    prop_assert_eq!(a.weight_histogram(), b.weight_histogram());
    prop_assert_eq!(
        a.weight_histogram(),
        scan_oracle::weight_histogram(n, machines)
    );
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
            prop_assert_eq!(a.weight(i, j), scan_oracle::weight(machines, i, j));
        }
    }
    for w in 0..=(a.num_machines() as u32) {
        prop_assert_eq!(a.edges_with_weight(w), b.edges_with_weight(w));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A graph grown by `add_machine` agrees with the per-pair scans and
    /// with a bulk build of the same prefix after every single add, and
    /// `speculate` answers like the add-and-rescan oracle throughout.
    /// Every other add is a covering machine, so `dmin` rises and a level
    /// is searched.
    #[test]
    fn incremental_graph_agrees_with_scans_while_growing(
        seed in 0u64..100_000,
        pick in 0usize..5,
        blocks in 1usize..8,
        machines in 1usize..6,
    ) {
        let n = BOUNDARY_N[pick];
        let mut word = FaultGraph::new(n);
        let mut parts = Vec::new();
        for m in 0..machines {
            let p = if m % 2 == 1 {
                covering_partition(&word, seed ^ m as u64)
            } else {
                random_partition(seed.wrapping_add(m as u64 * 101), n, blocks)
            };
            let covers = word.speculate(&p);
            prop_assert!(covers || m % 2 == 0);
            let before = word.dmin();
            word.add_machine(&p);
            parts.push(p);
            prop_assert_eq!(word.dmin(), before + u32::from(covers));
            assert_graphs_identical(&word, &FaultGraph::from_partitions(n, &parts), &parts)?;

            let candidate = random_partition(seed ^ ((m as u64) << 9), n, blocks);
            prop_assert_eq!(
                word.speculate(&candidate),
                scan_oracle::addition_increases_dmin(n, &parts, &candidate)
            );
        }
    }

    /// Bulk construction (`from_partitions`) equals the incremental path
    /// and the per-pair scans.  `n` runs from 1 to 199, and the family may
    /// be empty.
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
        for p in &parts {
            incremental.add_machine(p);
        }
        let bulk = FaultGraph::from_partitions(n, &parts);
        assert_graphs_identical(&bulk, &incremental, &parts)?;
    }

    /// Families whose partitions repeat: each of a few random partitions
    /// deployed several times.  The graph merges the copies into one
    /// partition with a multiplicity, and its levels skip the weights no
    /// set of copies can sum to.
    #[test]
    fn duplicate_heavy_families_agree_with_scans(
        seed in 0u64..100_000,
        pick in 0usize..5,
        distinct in 1usize..5,
        copies in 1usize..5,
    ) {
        let n = BOUNDARY_N[pick];
        let mut parts = Vec::new();
        for k in 0..distinct {
            let p = random_partition(seed.wrapping_add(k as u64 * 31), n, 3 + k);
            parts.extend(std::iter::repeat(p).take(copies + k % 2));
        }
        let bulk = FaultGraph::from_partitions(n, &parts);
        let mut incremental = FaultGraph::new(n);
        for p in &parts {
            incremental.add_machine(p);
        }
        assert_graphs_identical(&bulk, &incremental, &parts)?;
    }

    /// Near-singleton families with `dmin ≥ 10`: too many subsets per
    /// level, so the build and the adds compute their levels by the row
    /// sweep.  Both must still equal the per-pair scans.
    #[test]
    fn high_dmin_families_agree_with_scans(
        seed in 0u64..100_000,
        pick in 0usize..5,
        extra in 1usize..4,
    ) {
        let n = BOUNDARY_N[pick];
        let mut parts: Vec<Partition> = (0..16)
            .map(|m| random_partition(seed.wrapping_add(m * 101), n, n))
            .collect();
        let mut g = FaultGraph::from_partitions(n, &parts);
        prop_assert!(g.dmin() >= 10, "dmin {} does not force the sweep", g.dmin());
        prop_assert_eq!(g.dmin(), scan_oracle::dmin(n, &parts));
        prop_assert_eq!(g.weakest_edges(), scan_oracle::weakest_edges(n, &parts));
        for m in 0..extra {
            let p = if m % 2 == 0 {
                covering_partition(&g, seed ^ m as u64)
            } else {
                random_partition(seed ^ ((m as u64) << 7), n, n)
            };
            let covers = g.speculate(&p);
            prop_assert_eq!(covers, scan_oracle::addition_increases_dmin(n, &parts, &p));
            g.add_machine(&p);
            parts.push(p);
            prop_assert_eq!(g.dmin(), scan_oracle::dmin(n, &parts));
            prop_assert_eq!(g.weakest_edges(), scan_oracle::weakest_edges(n, &parts));
        }
    }

    /// `remap_states_adding` along a fibered (surjective) and a bijective
    /// mapping, with a random, a replicated and a covering added machine,
    /// equals a cold build of the lifted machines plus the added one.
    #[test]
    fn remap_states_adding_matches_cold_builds(
        seed in 0u64..100_000,
        pick in 0usize..5,
        n_old in 2usize..30,
        blocks in 2usize..6,
        machines in 1usize..5,
    ) {
        let parts: Vec<Partition> = (0..machines)
            .map(|m| random_partition(seed.wrapping_add(m as u64 * 101), n_old, blocks))
            .collect();
        let g = FaultGraph::from_partitions(n_old, &parts);
        let n_fibered = BOUNDARY_N[pick];
        let mut state = seed;
        let fibered: Vec<u32> = (0..n_fibered)
            .map(|i| if i < n_old { i as u32 } else { (splitmix(&mut state) % n_old as u64) as u32 })
            .collect();
        let mut bijective: Vec<u32> = (0..n_old as u32).collect();
        for i in (1..n_old).rev() {
            bijective.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        for mapping in [fibered, bijective] {
            let n_new = mapping.len();
            let lifted: Vec<Partition> = parts.iter().map(|p| lift(p, &mapping)).collect();
            let cold = FaultGraph::from_partitions(n_new, &lifted);
            let added = [
                random_partition(seed ^ 0xADD, n_new, blocks),
                lifted[0].clone(),
                covering_partition(&cold, seed),
            ];
            for p in &added {
                let (warm, levels) = g.remap_states_adding(&mapping, p);
                let mut all = lifted.clone();
                all.push(p.clone());
                assert_graphs_identical(&warm, &FaultGraph::from_partitions(n_new, &all), &all)?;
                prop_assert_eq!(levels == 0, warm.dmin() <= g.dmin());
            }
        }
    }

    /// `remap_states_removing` along an injective mapping equals a cold
    /// build of the surviving machines lifted onto the smaller space.
    #[test]
    fn remap_states_removing_matches_cold_builds(
        seed in 0u64..100_000,
        pick in 0usize..5,
        blocks in 2usize..6,
        machines in 2usize..6,
    ) {
        let n_old = BOUNDARY_N[pick];
        let mut parts: Vec<Partition> = (0..machines)
            .map(|m| random_partition(seed.wrapping_add(m as u64 * 101), n_old, blocks))
            .collect();
        parts.push(parts[0].clone());
        let g = FaultGraph::from_partitions(n_old, &parts);
        let mut state = seed;
        let mut order: Vec<u32> = (0..n_old as u32).collect();
        for i in (1..n_old).rev() {
            order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let mapping = &order[..n_old / 2 + 1];
        for k in 0..parts.len() {
            let (warm, levels) = g.remap_states_removing(mapping, &parts[k]);
            let survivors: Vec<Partition> = (0..parts.len())
                .filter(|&i| i != k)
                .map(|i| lift(&parts[i], mapping))
                .collect();
            let cold = FaultGraph::from_partitions(mapping.len(), &survivors);
            assert_graphs_identical(&warm, &cold, &survivors)?;
            prop_assert_eq!(levels == 0, warm.dmin() < g.dmin());
        }
    }
}

/// Six mod-3 counters, each deployed as four copies, over their 729-state
/// product: the replication-shaped family of the warm re-fusion workload.
/// `dmin` is 4 (two states differing in one counter are told apart only by
/// its four copies); removing one copy drops it to 3 without a search, and
/// adding the copy back raises it to 4 with one.
#[test]
fn replicated_counters_through_remaps() {
    let n = 729;
    let counter = |c: u32| {
        Partition::from_assignment(&(0..n).map(|x| (x / 3usize.pow(c)) % 3).collect::<Vec<_>>())
    };
    let parts: Vec<Partition> = (0..4).flat_map(|_| (0..6).map(counter)).collect();
    let g = FaultGraph::from_partitions(n, &parts);
    assert_eq!(g.num_machines(), 24);
    assert_eq!(g.dmin(), 4);
    assert_eq!(g.weakest_edges().len(), 6 * 729);
    assert_eq!(g.weakest_edges(), scan_oracle::weakest_edges(n, &parts));

    let identity: Vec<u32> = (0..n as u32).collect();
    let (down, levels) = g.remap_states_removing(&identity, &counter(5));
    assert_eq!(levels, 0);
    assert_eq!(down.dmin(), 3);
    assert_eq!(
        down.weakest_edges(),
        FaultGraph::from_partitions(n, &parts[..23]).weakest_edges()
    );
    assert_eq!(
        down.weakest_edges(),
        scan_oracle::weakest_edges(n, &parts[..23])
    );

    let (up, levels) = down.remap_states_adding(&identity, &counter(5));
    assert_eq!(levels, 1);
    assert_eq!(up.dmin(), 4);
    assert_eq!(up.weakest_edges(), g.weakest_edges());

    // A backup that covers the weakest edges raises dmin by one.
    let mut grown = down.clone();
    grown.add_machine(&Partition::singletons(n));
    assert_eq!(grown.dmin(), 4);
    let mut with_backup = parts[..23].to_vec();
    with_backup.push(Partition::singletons(n));
    assert_eq!(
        grown.weakest_edges(),
        scan_oracle::weakest_edges(n, &with_backup)
    );
}
