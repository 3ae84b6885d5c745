//! Fusion generation (Algorithm 2, Section 5.1).
//!
//! Given the original machines (as closed partitions of `⊤`) and the number
//! of crash faults `f` to tolerate, [`generate_fusion`] produces the
//! smallest set of backup machines `F` such that `dmin(A ∪ F) > f`.
//!
//! The algorithm adds one machine per iteration of the outer loop.  Each
//! machine starts as `⊤` (which always increases `dmin` by one) and is then
//! pushed as far down the closed partition lattice as possible: it moves to
//! a lower-cover machine as long as that machine still *covers* (separates)
//! every weakest edge of the current fault graph, i.e. as long as adding it
//! would still increase `dmin` (the test on line 6 of Algorithm 2).  The
//! descent stops at a machine none of whose lower covers keeps that
//! property; that machine is added to the fusion set.
//!
//! The same fusion tolerates `f` crash faults or `⌊f/2⌋` Byzantine faults
//! (Theorem 2).
//!
//! ## One engine
//!
//! There is a single implementation of the descent: a sequential loop
//! that, at each level, builds the quotient machine `⊤/current` of the
//! closed partition it stands on and scores every candidate merge there
//! ([`crate::closed::QuotientLevel`]).  Because `current` is closed, the
//! closure of "merge blocks `b1`, `b2`" is the congruence that pair
//! generates on the `k`-state quotient, so a candidate costs a worklist
//! union-find over `k` blocks instead of a fixpoint over all `n` states.
//! The closure stops at its first union across a weakest edge — almost
//! every candidate examined fails, most of them in the last level of each
//! descent — and only the candidate the descent keeps is lifted back to
//! an `n`-state [`Partition`].
//!
//! ## Sessions
//!
//! [`generate_fusion`] runs the descent once with fresh buffers, so it
//! pays kernel construction, scratch warm-up and the initial fault graph
//! every time.  Callers that generate more than one fusion — `f` sweeps,
//! table rows, evolving machine sets — should hold a
//! [`crate::FusionSession`] built from a [`crate::FusionConfig`] instead:
//! it owns the kernel and the scratch, keeps the initial fault graph of
//! the last `(⊤, originals)` pair, and is pinned bit-identical to
//! [`generate_fusion`] by `tests/session_properties.rs`.  Lattice walks
//! ([`crate::lower_cover`], [`crate::enumerate_lattice`]) close their
//! merges on the same quotient.

use std::time::Instant;

use fsm_dfsm::{Dfsm, ReachableProduct};

use crate::bitset::BitsetPartition;
use crate::closed::quotient_machine;
use crate::closed::{CloseScratch, ClosureKernel};
use crate::error::Result;
use crate::fault_graph::FaultGraph;
use crate::partition::Partition;
use crate::session::GraphSlot;
use crate::set_repr::projection_partitions;

/// Statistics about a run of Algorithm 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// `dmin` of the original machine set before any backup was added.
    pub initial_dmin: u32,
    /// `dmin` of the system after adding the generated fusion.
    pub final_dmin: u32,
    /// Number of outer-loop iterations (= number of machines generated).
    pub outer_iterations: usize,
    /// Number of lattice-descent steps taken across all iterations.
    pub descent_steps: usize,
    /// Number of candidate lower-cover machines examined.
    pub candidates_examined: usize,
    /// Wall-clock time of the generation, in microseconds.
    pub elapsed_micros: u128,
}

/// The result of fusion generation: backup machines both as partitions of
/// `⊤` and as materialized DFSMs, plus statistics.
#[derive(Debug, Clone)]
pub struct FusionGeneration {
    /// The fusion machines as closed partitions of `⊤`.
    pub partitions: Vec<Partition>,
    /// The fusion machines as DFSMs (quotients of `⊤`).
    pub machines: Vec<Dfsm>,
    /// Statistics about the generation run.
    pub stats: GenerationStats,
}

impl FusionGeneration {
    /// Number of backup machines generated (`m`).
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether no backup machines were needed (the original set was already
    /// fault tolerant enough).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Sizes of the generated machines (number of states of each).
    pub fn machine_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.num_blocks()).collect()
    }

    /// The state space of the fusion backup, `∏ |Fi|` (the quantity the
    /// paper's results table reports as |Fusion|).
    pub fn state_space(&self) -> u128 {
        self.partitions
            .iter()
            .map(|p| p.num_blocks() as u128)
            .product()
    }
}

/// Algorithm 2 over partitions: generates the smallest set of closed
/// partitions `F` of `top` such that `dmin(originals ∪ F) > f`.
///
/// Each descent level is scored on its quotient machine through a
/// [`ClosureKernel`] built once per call (see the [module docs](self)), and
/// the fault graph updates word-at-a-time through the bitset kernel; the
/// pre-refactor element-scan version is preserved as
/// [`crate::reference::generate_fusion_scan`] and pinned equal to this one,
/// statistics included, by `tests/bitset_properties.rs`.
///
/// The descent inner loop is **allocation-free**: one [`CloseScratch`]
/// holds the quotient table, the block union-find and the forbidden
/// block pairs of every level, and one reusable `Partition` receives each
/// kept candidate (`tests/alloc_free.rs` pins the scoring sweep with a
/// counting allocator).  A merge of two blocks joined by a weakest edge
/// fails before any work; [`GenerationStats`] still counts it as examined,
/// so the counters equal those of the plain loop over every pair.
///
/// Repeated callers should hold a session instead (see the
/// [module docs](self)).
pub fn generate_fusion(top: &Dfsm, originals: &[Partition], f: usize) -> Result<FusionGeneration> {
    seq_engine(
        top,
        &ClosureKernel::new(top),
        originals,
        f,
        &mut CloseScratch::new(),
        None,
    )
}

/// The engine body: the greedy descent against a caller-owned kernel and
/// scratch.  [`generate_fusion`] passes fresh buffers and no graph slot;
/// [`crate::FusionSession`] threads its own through, and its
/// initial-fault-graph slot answers an unchanged `(⊤, originals)` pair
/// with a clone instead of a rebuild.
pub(crate) fn seq_engine(
    top: &Dfsm,
    kernel: &ClosureKernel,
    originals: &[Partition],
    f: usize,
    scratch: &mut CloseScratch,
    graph_slot: Option<&mut GraphSlot>,
) -> Result<FusionGeneration> {
    let start = Instant::now();
    let n = top.size();
    // The initial fault graph only depends on (n, originals); a session
    // sweeping f over the same inputs gets a clone of the cached build.
    let mut graph = match graph_slot {
        Some(slot) => slot.initial_graph(n, originals),
        None => FaultGraph::from_partitions(n, originals),
    };
    let mut stats = GenerationStats {
        initial_dmin: graph.dmin(),
        ..Default::default()
    };
    let mut partitions: Vec<Partition> = Vec::new();
    // Search-lifetime buffers: every kept candidate of every descent of
    // every outer iteration is lifted into this one partition.
    let mut candidate = Partition::singletons(n);
    let mut current_bits = BitsetPartition::singletons(0);

    // Loop invariant: `graph` is the fault graph of originals ∪ partitions.
    // Each iteration adds exactly one machine that covers all current
    // weakest edges, so dmin increases by exactly one per iteration and the
    // loop terminates after f + 1 - dmin(originals) iterations (Theorem 4 /
    // Theorem 5; the count is 0 if the originals are already tolerant).
    while !graph.tolerates_crash_faults(f) {
        let weakest = graph.weakest_edges();
        debug_assert!(!weakest.is_empty());
        // Start at ⊤ (the singleton partition), which covers every edge, and
        // descend the closed partition lattice.
        //
        // The paper's inner loop moves to a machine of the *lower cover*
        // whenever one still covers all weakest edges.  Computing the whole
        // lower cover (all pairwise block merges, closed, then filtered for
        // maximality) at every step is O(k²·N·|Σ|) even when the very first
        // candidate works, which dominates the running time for large ⊤.
        // Instead we descend to the *first* closed pairwise-merge that still
        // covers the weakest edges.  This is sound because (a) every such
        // candidate is ≤ some lower-cover machine that also covers the
        // edges, so the paper's descent condition holds whenever ours does,
        // and (b) when no pairwise merge covers the edges, no lower-cover
        // machine does either (every lower-cover machine *is* a closed
        // pairwise merge), so both loops stop at the same condition.  The
        // descent may take larger steps but ends at a machine with the same
        // guarantee: none of its lower covers can replace it.
        let mut current = Partition::singletons(n);
        'descend: loop {
            stats.descent_steps += 1;
            // Every candidate of this level is a merge of two blocks of
            // the closed `current`, so it is scored on the k-state quotient
            // and abandoned at its first union across a weakest edge.  A
            // pair joined by a weakest edge itself fails before any work;
            // the examined-candidate counter still counts it, so the
            // statistics match the plain loop over every pair.
            let mut level = kernel.quotient_level(scratch, &current, &weakest)?;
            let k = level.num_blocks();
            let mut idx = 0usize;
            for b1 in 0..k {
                for b2 in (b1 + 1)..k {
                    idx += 1;
                    if level.merge(b1, b2).covers() {
                        level.lift_into(&mut candidate);
                        stats.candidates_examined += idx;
                        std::mem::swap(&mut current, &mut candidate);
                        continue 'descend;
                    }
                }
            }
            stats.candidates_examined += idx;
            break;
        }
        current_bits.refresh_from_partition(&current);
        graph.add_machine_bitset(&current_bits);
        partitions.push(current);
        stats.outer_iterations += 1;
    }

    stats.final_dmin = graph.dmin();
    stats.elapsed_micros = start.elapsed().as_micros();
    let machines: Result<Vec<Dfsm>> = partitions
        .iter()
        .enumerate()
        .map(|(i, p)| quotient_machine(top, p, &format!("F{}", i + 1)))
        .collect();
    Ok(FusionGeneration {
        partitions,
        machines: machines?,
        stats,
    })
}

/// Convenience wrapper: builds the reachable cross product of `machines`,
/// derives their projection partitions and runs Algorithm 2.
///
/// Returns the product (so callers can reuse `⊤` and the projections) along
/// with the generated fusion.
pub fn generate_fusion_for_machines(
    machines: &[Dfsm],
    f: usize,
) -> Result<(ReachableProduct, FusionGeneration)> {
    let product = ReachableProduct::new(machines)?;
    let originals = projection_partitions(&product);
    let fusion = generate_fusion(product.top(), &originals, f)?;
    Ok((product, fusion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_graph::FaultGraph;
    use crate::set_repr::set_representation;
    use fsm_dfsm::{are_isomorphic, DfsmBuilder};

    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        b.complete_missing_with_self_loops();
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
        let other = if event == "0" { "1" } else { "0" };
        b.add_self_loops(other);
        b.build().unwrap()
    }

    /// The (n0 + n1) mod 3 machine of Fig. 1(iv).
    fn sum_counter() -> Dfsm {
        let mut b = DfsmBuilder::new("F1");
        for i in 0..3 {
            b.add_state(format!("f{i}"));
        }
        b.set_initial("f0");
        for i in 0..3 {
            b.add_transition(format!("f{i}"), "0", format!("f{}", (i + 1) % 3));
            b.add_transition(format!("f{i}"), "1", format!("f{}", (i + 1) % 3));
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_single_fault_fusion_is_a_three_state_machine() {
        // Tolerating one crash fault among the two mod-3 counters requires a
        // single 3-state fusion machine — the paper's {n0 + n1} mod 3 (or an
        // equivalent) — far smaller than the 9-state cross product.
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 1).unwrap();
        assert_eq!(product.size(), 9);
        assert_eq!(fusion.len(), 1);
        assert_eq!(fusion.machine_sizes(), vec![3]);
        assert_eq!(fusion.stats.initial_dmin, 1);
        assert_eq!(fusion.stats.final_dmin, 2);
        // The generated machine is isomorphic to the sum or difference
        // counter of Fig. 1 (both are valid minimal fusions).
        let gen = &fusion.machines[0];
        let sum = sum_counter();
        let sum_part = set_representation(product.top(), &sum).unwrap();
        let diff_part = {
            let mut assignment = Vec::new();
            for t in 0..product.size() {
                let tuple = product.tuple(fsm_dfsm::StateId(t));
                assignment.push(
                    ((tuple[0].index() as i32 - tuple[1].index() as i32).rem_euclid(3)) as usize,
                );
            }
            Partition::from_assignment(&assignment)
        };
        let gen_part = &fusion.partitions[0];
        assert!(
            gen_part == &sum_part || gen_part == &diff_part,
            "generated fusion should be the sum or difference counter, got {gen_part}"
        );
        assert_eq!(gen.size(), 3);
        assert!(are_isomorphic(gen, &sum) || gen.size() == 3);
    }

    #[test]
    fn fig1_two_fault_fusion_needs_two_machines() {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 2).unwrap();
        assert_eq!(fusion.len(), 2);
        // Verify the resulting system really has dmin > 2.
        let mut all = projection_partitions(&product);
        all.extend(fusion.partitions.clone());
        let g = FaultGraph::from_partitions(product.size(), &all);
        assert!(g.tolerates_crash_faults(2));
        assert!(g.tolerates_byzantine_faults(1));
    }

    #[test]
    fn already_tolerant_system_needs_no_backups() {
        // Three identical counters driven by the same event are perfectly
        // correlated: any one of them determines the others, so dmin is 3
        // and the system already tolerates two crash faults.
        let m1 = counter("x", "0", 3);
        let m2 = counter("y", "0", 3);
        let m3 = counter("z", "0", 3);
        let (_, fusion) = generate_fusion_for_machines(&[m1, m2, m3], 2).unwrap();
        assert!(fusion.is_empty());
        assert_eq!(fusion.stats.outer_iterations, 0);
        assert_eq!(fusion.state_space(), 1);
    }

    #[test]
    fn number_of_machines_matches_theorem5_count() {
        // The number of generated machines is f + 1 - dmin(A) (when
        // positive): each added machine raises dmin by exactly one.
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        for f in 1..=3 {
            let (product, fusion) =
                generate_fusion_for_machines(&[a.clone(), b.clone()], f).unwrap();
            let originals = projection_partitions(&product);
            let dmin = FaultGraph::from_partitions(product.size(), &originals).dmin() as usize;
            let expected = (f + 1).saturating_sub(dmin);
            assert_eq!(fusion.len(), expected, "f = {f}");
            assert_eq!(fusion.stats.final_dmin as usize, f + 1, "f = {f}");
        }
    }

    #[test]
    fn each_generated_machine_covers_the_weakest_edges_of_its_iteration() {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 3).unwrap();
        // Replay the generation and check the covering property (Lemma 1
        // setting): machine i must cover the weakest edges of the graph
        // containing the originals and machines 0..i.
        let originals = projection_partitions(&product);
        let mut g = FaultGraph::from_partitions(product.size(), &originals);
        for p in &fusion.partitions {
            let weakest = g.weakest_edges();
            assert!(FaultGraph::covers_all(p, &weakest));
            g.add_machine(p);
        }
    }

    #[test]
    fn generated_machines_never_exceed_top_size() {
        let a = counter("a", "0", 4);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 2).unwrap();
        for size in fusion.machine_sizes() {
            assert!(size <= product.size());
            assert!(size >= 2);
        }
        assert!(fusion.stats.elapsed_micros > 0);
    }

    #[test]
    fn generate_fusion_with_explicit_partitions() {
        // Use the 4-state reconstruction of Fig. 2/3 directly.
        let mut bt = DfsmBuilder::new("top");
        bt.add_states(["t0", "t1", "t2", "t3"]);
        bt.set_initial("t0");
        bt.add_transition("t0", "0", "t1");
        bt.add_transition("t1", "0", "t2");
        bt.add_transition("t2", "0", "t1");
        bt.add_transition("t3", "0", "t1");
        bt.add_transition("t0", "1", "t3");
        bt.add_transition("t1", "1", "t2");
        bt.add_transition("t2", "1", "t0");
        bt.add_transition("t3", "1", "t0");
        let top = bt.build().unwrap();
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        let fusion = generate_fusion(&top, &[a.clone(), b.clone()], 1).unwrap();
        assert_eq!(fusion.len(), 1);
        let g = FaultGraph::from_partitions(4, &[a, b, fusion.partitions[0].clone()]);
        assert!(g.tolerates_crash_faults(1));
    }
}
