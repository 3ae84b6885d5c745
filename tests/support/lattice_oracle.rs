//! Test-only lattice-walk oracle: lower covers and lattice enumeration
//! that close every pairwise block merge with the full `n`-state fixpoint
//! ([`ClosureKernel::close_merged_into`]) instead of on the quotient
//! machine the library walks use.
//!
//! Shared by the integration tests (`mod lattice_oracle;` through a
//! `#[path]` attribute) and by `fsm-fusion-core`'s unit tests, which see
//! their own crate under the `fsm_fusion_core` name.
#![allow(dead_code)]

use std::collections::BTreeSet;

use fsm_dfsm::Dfsm;
use fsm_fusion_core::{
    BitsetPartition, CloseScratch, ClosedPartitionLattice, ClosureKernel, Partition,
};

/// The lower cover of the closed partition `p` of `top`: every pairwise
/// block merge closed over all states, then filtered to the maximal,
/// distinct candidates.
pub fn lower_cover(top: &Dfsm, p: &Partition) -> Vec<Partition> {
    let (kernel, mut scratch) = (ClosureKernel::new(top), CloseScratch::new());
    let k = p.num_blocks();
    let mut candidates: BTreeSet<Partition> = BTreeSet::new();
    let mut closed = Partition::singletons(0);
    for b1 in 0..k {
        for b2 in (b1 + 1)..k {
            kernel
                .close_merged_into(&mut scratch, p, b1, b2, &mut closed)
                .expect("p partitions the states of top");
            if &closed != p && !candidates.contains(&closed) {
                candidates.insert(closed.clone());
            }
        }
    }
    // Keep only the maximal candidates: q is dropped if some other
    // candidate q' satisfies q < q' (q' is strictly finer, i.e. closer to p).
    let all: Vec<Partition> = candidates.into_iter().collect();
    let bits: Vec<BitsetPartition> = all.iter().map(BitsetPartition::from_partition).collect();
    let mut maximal = Vec::new();
    'outer: for (i, q) in bits.iter().enumerate() {
        for (j, other) in bits.iter().enumerate() {
            if i != j && q.lt(other) {
                continue 'outer;
            }
        }
        maximal.push(all[i].clone());
    }
    maximal
}

/// Every closed partition of `top` by breadth-first descent from the
/// singleton partition, stopping after `limit` elements — the same frontier
/// order and truncation rule as the library walk, so truncated walks
/// compare element for element.
pub fn enumerate_lattice(top: &Dfsm, limit: usize) -> ClosedPartitionLattice {
    let mut seen: BTreeSet<Partition> = BTreeSet::new();
    let mut frontier: Vec<Partition> = vec![Partition::singletons(top.size())];
    seen.insert(frontier[0].clone());
    let mut truncated = false;
    'explore: while let Some(p) = frontier.pop() {
        for q in lower_cover(top, &p) {
            if seen.len() >= limit {
                truncated = true;
                break 'explore;
            }
            if seen.insert(q.clone()) {
                frontier.push(q);
            }
        }
    }
    seen.insert(Partition::single_block(top.size()));
    let mut elements: Vec<Partition> = seen.into_iter().collect();
    elements.sort_by(|a, b| b.num_blocks().cmp(&a.num_blocks()).then_with(|| a.cmp(b)));
    ClosedPartitionLattice {
        elements,
        truncated,
    }
}
