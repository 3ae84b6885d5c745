//! The closed partition lattice and lower covers (Section 2.1, Definition 2).
//!
//! The set of all closed partitions of `⊤` forms a lattice under the
//! machine order.  Algorithm 2 never materializes the whole lattice — it
//! only ever asks for the *lower cover* of the machine it is currently
//! considering: the maximal closed partitions strictly less than it.  This
//! module implements lower covers, the basis of the lattice (the lower cover
//! of `⊤`) and, for small machines, full lattice enumeration (used to
//! reproduce the paper's Figure 3 and in tests).
//!
//! Lower-cover computation closes every pairwise block merge of `p` — the
//! same candidate merges Algorithm 2's descent scores — on the quotient
//! machine `⊤/p` ([`crate::closed::QuotientLevel`]): because `p` is closed,
//! each merge closes with a union-find over its `k` blocks instead of a
//! fixpoint over all `n` states of `⊤`.  The free functions and
//! [`crate::FusionSession`] run the same body; a session only keeps the
//! kernel and scratch buffers between calls.

use std::collections::BTreeSet;

use fsm_dfsm::Dfsm;

use crate::closed::{CloseScratch, ClosureKernel};
use crate::error::Result;
use crate::partition::Partition;

/// Computes the lower cover of a closed partition `p` of `top`: the maximal
/// closed partitions strictly less than `p`.
///
/// One-shot form of [`lower_cover_with`]; enumeration loops should build a
/// [`ClosureKernel`] once and reuse it.
///
/// # Errors
///
/// [`crate::FusionError::NotClosed`] when `p` is not closed under `top`,
/// and [`crate::FusionError::PartitionSizeMismatch`] when `p` does not
/// partition `top`'s states — in every build profile.
pub fn lower_cover(top: &Dfsm, p: &Partition) -> Result<Vec<Partition>> {
    lower_cover_with(&ClosureKernel::new(top), p)
}

/// Computes the lower cover of `p` through a pre-built [`ClosureKernel`].
///
/// Every closed partition strictly below `p` merges at least two blocks of
/// `p`; closing each pairwise block merge therefore produces a set of
/// candidates that contains the whole lower cover, from which non-maximal
/// and duplicate candidates are removed.
///
/// # Errors
///
/// The same as [`lower_cover`]: a `p` that is not closed under the
/// kernel's machine is [`crate::FusionError::NotClosed`].
pub fn lower_cover_with(kernel: &ClosureKernel, p: &Partition) -> Result<Vec<Partition>> {
    lower_cover_impl(kernel, p, &mut CloseScratch::new())
}

/// Shared lower-cover body: builds the quotient `⊤/p` once (rejecting a
/// non-closed `p`), closes every pairwise block merge on it and lifts the
/// closure back to the states of `⊤`, then filters to the maximal
/// candidates.  With no forbidden edges every merge completes, and its
/// lift is exactly [`ClosureKernel::close_merged`] of the same blocks.
/// Only candidates actually entering the output set are cloned out of the
/// reused buffer.
pub(crate) fn lower_cover_impl(
    kernel: &ClosureKernel,
    p: &Partition,
    scratch: &mut CloseScratch,
) -> Result<Vec<Partition>> {
    let mut level = kernel.quotient_level(scratch, p, &[])?;
    let k = level.num_blocks();
    let mut candidates: BTreeSet<Partition> = BTreeSet::new();
    let mut closed = Partition::singletons(0);
    for b1 in 0..k {
        for b2 in (b1 + 1)..k {
            level.merge(b1, b2);
            level.lift_into(&mut closed);
            if !candidates.contains(&closed) {
                candidates.insert(closed.clone());
            }
        }
    }
    // Keep only the maximal candidates: q is dropped if some other
    // candidate q' satisfies q < q' (q' is strictly finer, i.e. closer to p).
    // The candidates are distinct, so q' must have more blocks; the other
    // pairs skip the `le` pass.
    let all: Vec<Partition> = candidates.into_iter().collect();
    let below = |q: &Partition| {
        all.iter()
            .any(|other| other.num_blocks() > q.num_blocks() && Partition::le(q, other))
    };
    Ok(all.iter().filter(|q| !below(q)).cloned().collect())
}

/// The basis of the closed partition lattice: the lower cover of `⊤` itself
/// (the machine corresponding to the singleton partition).
pub fn basis(top: &Dfsm) -> Result<Vec<Partition>> {
    lower_cover(top, &Partition::singletons(top.size()))
}

/// A fully enumerated closed partition lattice, for small machines.
///
/// The number of closed partitions can grow exponentially with the size of
/// `⊤`; [`enumerate_lattice`] therefore takes a hard limit and reports
/// whether it was truncated.
#[derive(Debug, Clone)]
pub struct ClosedPartitionLattice {
    /// All closed partitions found, sorted from fine to coarse (by
    /// decreasing number of blocks, ties broken canonically).
    pub elements: Vec<Partition>,
    /// Whether enumeration stopped because the limit was hit.
    pub truncated: bool,
}

impl ClosedPartitionLattice {
    /// Number of closed partitions found.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the lattice is empty (never the case for a valid machine).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The top element (singleton partition).
    pub fn top(&self) -> &Partition {
        &self.elements[0]
    }

    /// The bottom element (single-block partition).
    pub fn bottom(&self) -> &Partition {
        self.elements.last().expect("lattice is never empty")
    }

    /// All `(coarser, finer)` covering pairs, i.e. the Hasse diagram edges;
    /// `finer` covers `coarser` when `coarser < finer` with nothing in
    /// between.
    ///
    /// The order is compared once per pair of elements, into an `L × L`
    /// table the covering test then reads.  The elements are distinct, so
    /// `a < b` holds exactly when `b` has more blocks and `a ≤ b`: pairs
    /// whose block counts do not rise skip the `le` pass.
    pub fn hasse_edges(&self) -> Vec<(usize, usize)> {
        let l = self.elements.len();
        let below: Vec<bool> = (0..l * l)
            .map(|x| {
                let (a, b) = (&self.elements[x / l], &self.elements[x % l]);
                a.num_blocks() < b.num_blocks() && Partition::le(a, b)
            })
            .collect();
        let lt = |i: usize, j: usize| below[i * l + j];
        let mut edges = Vec::new();
        for i in 0..l {
            for j in 0..l {
                // elements[i] < elements[j] with nothing strictly between.
                if lt(i, j) && !(0..l).any(|k| lt(i, k) && lt(k, j)) {
                    edges.push((i, j));
                }
            }
        }
        edges
    }
}

/// Enumerates every closed partition of `top` by breadth-first descent from
/// the singleton partition, stopping after `limit` elements.
///
/// Builds a fresh kernel and scratch per call; repeated enumerations
/// should hold a [`crate::FusionSession`], which keeps both.
pub fn enumerate_lattice(top: &Dfsm, limit: usize) -> Result<ClosedPartitionLattice> {
    enumerate_lattice_impl(
        top,
        &ClosureKernel::new(top),
        limit,
        &mut CloseScratch::new(),
    )
}

/// Shared enumeration body, against a caller-owned kernel and scratch.
pub(crate) fn enumerate_lattice_impl(
    top: &Dfsm,
    kernel: &ClosureKernel,
    limit: usize,
    scratch: &mut CloseScratch,
) -> Result<ClosedPartitionLattice> {
    let mut seen: BTreeSet<Partition> = BTreeSet::new();
    let mut frontier: Vec<Partition> = vec![Partition::singletons(top.size())];
    seen.insert(frontier[0].clone());
    let mut truncated = false;
    'explore: while let Some(p) = frontier.pop() {
        for q in lower_cover_impl(kernel, &p, scratch)? {
            if seen.len() >= limit {
                truncated = true;
                break 'explore;
            }
            if seen.insert(q.clone()) {
                frontier.push(q);
            }
        }
    }
    // Always include bottom, even when truncated, so `bottom()` is
    // meaningful.
    seen.insert(Partition::single_block(top.size()));
    let mut elements: Vec<Partition> = seen.into_iter().collect();
    elements.sort_by(|a, b| b.num_blocks().cmp(&a.num_blocks()).then_with(|| a.cmp(b)));
    Ok(ClosedPartitionLattice {
        elements,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed::is_closed;
    use fsm_dfsm::DfsmBuilder;

    /// Reconstruction of the paper's Fig. 2/3 top machine (4 states).
    fn top4() -> Dfsm {
        let mut b = DfsmBuilder::new("top");
        b.add_states(["t0", "t1", "t2", "t3"]);
        b.set_initial("t0");
        b.add_transition("t0", "0", "t1");
        b.add_transition("t1", "0", "t2");
        b.add_transition("t2", "0", "t1");
        b.add_transition("t3", "0", "t1");
        b.add_transition("t0", "1", "t3");
        b.add_transition("t1", "1", "t2");
        b.add_transition("t2", "1", "t0");
        b.add_transition("t3", "1", "t0");
        b.build().unwrap()
    }

    /// The mod-3 counter pair of Fig. 1 as a 9-state top machine.
    fn top9() -> Dfsm {
        let mut b = DfsmBuilder::new("top9");
        for i in 0..3 {
            for j in 0..3 {
                b.add_state(format!("t{i}{j}"));
            }
        }
        b.set_initial("t00");
        for i in 0..3 {
            for j in 0..3 {
                b.add_transition(format!("t{i}{j}"), "0", format!("t{}{}", (i + 1) % 3, j));
                b.add_transition(format!("t{i}{j}"), "1", format!("t{}{}", i, (j + 1) % 3));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn lower_cover_elements_are_closed_and_strictly_below() {
        let t = top4();
        let top_p = Partition::singletons(4);
        let cover = lower_cover(&t, &top_p).unwrap();
        assert!(!cover.is_empty());
        for q in &cover {
            assert!(is_closed(&t, q));
            assert!(q.lt(&top_p));
        }
        // Elements of the cover are pairwise incomparable.
        for (i, q) in cover.iter().enumerate() {
            for (j, r) in cover.iter().enumerate() {
                if i != j {
                    assert!(q.incomparable(r), "{q} vs {r}");
                }
            }
        }
    }

    #[test]
    fn basis_of_fig3_contains_machines_a_and_b() {
        // In Fig. 3 the basis is {A, B, M1, M2}; at minimum our
        // reconstruction must contain A = {t0,t3 | t1 | t2} and
        // B = {t0 | t1 | t2,t3} as closed partitions ≥ some basis element,
        // and A itself must be maximal (a basis member) because it has 3
        // blocks out of 4 states.
        let t = top4();
        let b = basis(&t).unwrap();
        let a_part = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let b_part = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        assert!(is_closed(&t, &a_part));
        assert!(is_closed(&t, &b_part));
        assert!(b.contains(&a_part), "A should be in the basis: {b:?}");
        assert!(b.contains(&b_part), "B should be in the basis: {b:?}");
    }

    #[test]
    fn enumerate_lattice_top4() {
        let t = top4();
        let lattice = enumerate_lattice(&t, 10_000).unwrap();
        assert!(!lattice.truncated);
        // Top and bottom are present.
        assert!(lattice.top().is_singletons());
        assert!(lattice.bottom().is_single_block());
        // Every element is closed; the lattice is closed under meet.
        for p in &lattice.elements {
            assert!(is_closed(&t, p));
        }
        for p in &lattice.elements {
            for q in &lattice.elements {
                let m = p.meet(q);
                assert!(
                    lattice
                        .elements
                        .contains(&crate::closed::close(&t, &m).unwrap()),
                    "meet closure must stay inside the lattice"
                );
            }
        }
        // The Hasse diagram connects top to bottom, as the definition does.
        let edges = lattice.hasse_edges();
        assert!(!edges.is_empty());
        assert_eq!(edges, crate::lattice_oracle::hasse_edges(&lattice.elements));
    }

    #[test]
    fn enumerate_lattice_respects_limit() {
        let t = top9();
        let lattice = enumerate_lattice(&t, 3).unwrap();
        assert!(lattice.truncated);
        assert!(lattice.len() <= 4); // 3 + forced bottom
    }

    #[test]
    fn fig1_counters_have_sum_counter_in_lattice() {
        // For the mod-3 counter pair, the machine counting (n0 + n1) mod 3
        // corresponds to the closed partition grouping states by (i + j) % 3.
        let t = top9();
        let mut assignment = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                let _ = (i, j);
                assignment.push((i + j) % 3);
            }
        }
        let sum_part = Partition::from_assignment(&assignment);
        assert!(is_closed(&t, &sum_part));
        // And the difference counter (n0 - n1) mod 3 as well (Fig. 1(v)).
        let mut assignment = Vec::new();
        for i in 0..3i32 {
            for j in 0..3i32 {
                assignment.push(((i - j).rem_euclid(3)) as usize);
            }
        }
        let diff_part = Partition::from_assignment(&assignment);
        assert!(is_closed(&t, &diff_part));
        // Both are basis members of the 9-state lattice (3-block maximal
        // closed partitions).
        let b = basis(&t).unwrap();
        assert!(b.contains(&sum_part) || b.iter().any(|p| sum_part.le(p)));
    }

    #[test]
    fn lower_cover_of_a_non_closed_partition_is_a_typed_error() {
        // {t0,t1 | t2 | t3} is not closed: event 0 maps t0 → t1 and
        // t1 → t2, which lie in different blocks.
        let t = top4();
        let open = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        assert!(!is_closed(&t, &open));
        let not_closed = |r: Result<Vec<Partition>>| {
            matches!(r, Err(crate::error::FusionError::NotClosed { .. }))
        };
        assert!(not_closed(lower_cover(&t, &open)));
        assert!(not_closed(lower_cover_with(&ClosureKernel::new(&t), &open)));
        let mut session = crate::config::FusionConfig::new().build();
        assert!(not_closed(session.lower_cover(&t, &open)));
        // The session stays usable after the error.
        let top_p = Partition::singletons(4);
        assert_eq!(
            session.lower_cover(&t, &top_p).unwrap(),
            crate::lattice_oracle::lower_cover(&t, &top_p)
        );
        // A partition of the wrong size is rejected too.
        assert!(matches!(
            lower_cover(&t, &Partition::singletons(3)),
            Err(crate::error::FusionError::PartitionSizeMismatch { .. })
        ));
    }

    #[test]
    fn lower_cover_of_bottom_is_empty() {
        let t = top4();
        let bottom = Partition::single_block(4);
        let cover = lower_cover(&t, &bottom).unwrap();
        assert!(cover.is_empty());
    }
}
