//! Exhaustive fusion search (the paper's Section 7 future-work directions).
//!
//! Algorithm 2 is greedy: it returns *a* minimal fusion with the minimum
//! number of machines, but the paper notes two open directions:
//!
//! 1. other machines in the lattice might give a fusion with **less total
//!    state**, and
//! 2. allowing **more backup machines** than the minimum might allow each of
//!    them to be smaller.
//!
//! For small top machines both questions can be answered exactly by
//! enumerating the closed partition lattice and searching over machine
//! combinations.  [`exhaustive_minimum_fusion`] does exactly that, and is
//! used by tests and the ablation benchmarks to quantify how far the greedy
//! Algorithm 2 is from the optimum on the paper's examples.

use fsm_dfsm::Dfsm;

use crate::error::Result;
use crate::fault_graph::FaultGraph;
use crate::lattice::enumerate_lattice;
use crate::partition::Partition;

/// The outcome of an exhaustive search.
#[derive(Debug, Clone)]
pub struct ExhaustiveSearch {
    /// The best fusion found (machines as closed partitions of `⊤`).
    pub partitions: Vec<Partition>,
    /// Product of the machine sizes (the |Fusion| metric being minimized).
    pub state_space: u128,
    /// Number of closed partitions enumerated.
    pub lattice_size: usize,
    /// Number of candidate combinations examined.
    pub combinations_examined: usize,
    /// Whether lattice enumeration hit the limit (in which case the result
    /// is a best-effort optimum over the enumerated part of the lattice).
    pub truncated: bool,
}

/// Exhaustively searches for the `(f, m)`-fusion with the smallest state
/// space (`∏ |Fi|`) using exactly `m` machines drawn from the closed
/// partition lattice of `top` (enumerated up to `lattice_limit` elements).
///
/// Returns `Ok(None)` when no `(f, m)`-fusion exists (Theorem 4) or when the
/// (possibly truncated) lattice contains none.  Intended for small tops —
/// the search is exponential in `m` and in the lattice size.
pub fn exhaustive_minimum_fusion(
    top: &Dfsm,
    originals: &[Partition],
    f: usize,
    m: usize,
    lattice_limit: usize,
) -> Result<Option<ExhaustiveSearch>> {
    let n = top.size();
    let lattice = enumerate_lattice(top, lattice_limit)?;
    // Sort candidates by block count so the depth-first search finds small
    // state spaces early and can prune aggressively.
    let mut candidates: Vec<Partition> = lattice.elements.clone();
    candidates.sort_by_key(|p| p.num_blocks());

    let base = FaultGraph::from_partitions(n, originals);
    let mut best: Option<(u128, Vec<usize>)> = None;
    let mut examined = 0usize;

    // Depth-first search over combinations (with repetition allowed — two
    // copies of the same machine are a legal fusion, e.g. plain replication).
    //
    // `scratch` holds one pre-allocated graph per remaining depth: each tree
    // node refreshes `scratch[0]` from its parent graph with `clone_from`
    // (which reuses the partition and weakest-edge buffers) instead of
    // allocating a fresh clone per candidate, and hands the rest of the
    // slice down.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        candidates: &[Partition],
        start: usize,
        chosen: &mut Vec<usize>,
        graph: &FaultGraph,
        scratch: &mut [FaultGraph],
        m: usize,
        f: usize,
        best: &mut Option<(u128, Vec<usize>)>,
        examined: &mut usize,
    ) {
        let current_space: u128 = chosen.iter().fold(1u128, |acc, &i| {
            acc.saturating_mul(candidates[i].num_blocks() as u128)
        });
        if let Some((best_space, _)) = best {
            if current_space >= *best_space {
                return; // cannot improve
            }
        }
        if chosen.len() == m {
            *examined += 1;
            if graph.tolerates_crash_faults(f) {
                match best {
                    Some((space, _)) if *space <= current_space => {}
                    _ => *best = Some((current_space, chosen.clone())),
                }
            }
            return;
        }
        // Prune: even if all remaining picks were ⊤ (adding 1 to every edge
        // each), dmin can rise by at most the number of remaining picks.
        let remaining = (m - chosen.len()) as u128;
        if (graph.dmin() as u128).saturating_add(remaining) <= f as u128 {
            return;
        }
        // With one pick left and dmin sitting exactly at f, only a machine
        // that raises dmin can complete a fusion; the kept weakest edges
        // answer that with one early-exiting pass (`speculate`), skipping
        // the graph clone and add for every hopeless candidate.
        let last_pick_must_raise = remaining == 1 && graph.dmin() as u128 == f as u128;
        let (g, deeper) = scratch
            .split_first_mut()
            .expect("scratch stack sized to search depth");
        for i in start..candidates.len() {
            if last_pick_must_raise && !graph.speculate(&candidates[i]) {
                continue;
            }
            chosen.push(i);
            g.clone_from(graph);
            g.add_machine(&candidates[i]);
            dfs(candidates, i, chosen, g, deeper, m, f, best, examined);
            chosen.pop();
        }
    }

    let mut chosen = Vec::new();
    // One reusable graph per depth; allocated once for the whole search.
    let mut scratch: Vec<FaultGraph> = (0..m).map(|_| base.clone()).collect();
    dfs(
        &candidates,
        0,
        &mut chosen,
        &base,
        &mut scratch,
        m,
        f,
        &mut best,
        &mut examined,
    );

    Ok(best.map(|(state_space, indices)| ExhaustiveSearch {
        partitions: indices.iter().map(|&i| candidates[i].clone()).collect(),
        state_space,
        lattice_size: lattice.len(),
        combinations_examined: examined,
        truncated: lattice.truncated,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_fusion;
    use crate::set_repr::projection_partitions;
    use crate::theory::{is_fusion, minimum_backup_count};
    use fsm_dfsm::{DfsmBuilder, ReachableProduct};

    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        for i in 0..k {
            b.add_state(format!("{name}{i}"));
        }
        b.set_initial(format!("{name}0"));
        for i in 0..k {
            b.add_transition(
                format!("{name}{i}"),
                event,
                format!("{name}{}", (i + 1) % k),
            );
        }
        b.add_self_loops(if event == "0" { "1" } else { "0" });
        b.build().unwrap()
    }

    fn fig1_setup() -> (ReachableProduct, Vec<Partition>) {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let product = ReachableProduct::new(&[a, b]).unwrap();
        let originals = projection_partitions(&product);
        (product, originals)
    }

    #[test]
    fn exhaustive_search_matches_greedy_on_fig1_single_fault() {
        let (product, originals) = fig1_setup();
        let m = minimum_backup_count(product.size(), &originals, 1);
        let greedy = generate_fusion(product.top(), &originals, 1).unwrap();
        let exact = exhaustive_minimum_fusion(product.top(), &originals, 1, m, 10_000)
            .unwrap()
            .expect("a (1,1)-fusion exists");
        assert!(is_fusion(product.size(), &originals, &exact.partitions, 1));
        // The greedy result is already optimal here: a single 3-state machine.
        assert_eq!(exact.state_space, 3);
        assert_eq!(greedy.state_space(), exact.state_space);
        assert!(!exact.truncated);
        assert!(exact.lattice_size >= 3);
        assert!(exact.combinations_examined >= 1);
    }

    #[test]
    fn exhaustive_search_never_worse_than_greedy() {
        let (product, originals) = fig1_setup();
        for f in 1..=2usize {
            let m = minimum_backup_count(product.size(), &originals, f);
            let greedy = generate_fusion(product.top(), &originals, f).unwrap();
            let exact = exhaustive_minimum_fusion(product.top(), &originals, f, m, 10_000)
                .unwrap()
                .expect("fusion exists");
            assert!(
                exact.state_space <= greedy.state_space(),
                "f = {f}: exhaustive {} vs greedy {}",
                exact.state_space,
                greedy.state_space()
            );
            assert!(is_fusion(product.size(), &originals, &exact.partitions, f));
        }
    }

    #[test]
    fn allowing_more_machines_never_increases_the_optimum() {
        // Section 7: "we may be able to generate smaller machines if the
        // system permits a larger number of backup machines" — with more
        // machines the optimal total state space can only stay equal or grow
        // slowly, but the *largest individual machine* can shrink.  At the
        // very least the search must still find a valid fusion.
        let (product, originals) = fig1_setup();
        let m_min = minimum_backup_count(product.size(), &originals, 1);
        let exact_min = exhaustive_minimum_fusion(product.top(), &originals, 1, m_min, 10_000)
            .unwrap()
            .unwrap();
        let exact_more = exhaustive_minimum_fusion(product.top(), &originals, 1, m_min + 1, 10_000)
            .unwrap()
            .unwrap();
        assert!(is_fusion(
            product.size(),
            &originals,
            &exact_more.partitions,
            1
        ));
        // The largest machine with m+1 backups is never larger than with m.
        let max_min = exact_min
            .partitions
            .iter()
            .map(|p| p.num_blocks())
            .max()
            .unwrap();
        let max_more = exact_more
            .partitions
            .iter()
            .map(|p| p.num_blocks())
            .max()
            .unwrap();
        assert!(max_more <= max_min);
    }

    #[test]
    fn no_fusion_when_theorem4_forbids_it() {
        let (product, originals) = fig1_setup();
        // dmin({A,B}) = 1, so a (2,1)-fusion cannot exist.
        let result = exhaustive_minimum_fusion(product.top(), &originals, 2, 1, 10_000).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn replication_is_found_when_it_is_the_only_option() {
        // With a single original machine and f = 1, the only useful backup
        // in the lattice is (a copy of) the machine itself / ⊤.
        let a = counter("a", "0", 3);
        let product = ReachableProduct::new(&[a]).unwrap();
        let originals = projection_partitions(&product);
        let exact = exhaustive_minimum_fusion(product.top(), &originals, 1, 1, 1_000)
            .unwrap()
            .unwrap();
        assert_eq!(exact.state_space, 3);
    }
}
