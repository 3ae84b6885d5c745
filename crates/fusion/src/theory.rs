//! The theory of `(f, m)`-fusions (Section 4, Theorems 3–5, Definitions 5–6).
//!
//! These functions are direct, executable versions of the paper's
//! definitions and theorems.  They are used by tests (including property
//! tests) to validate the generation algorithm and by callers that want to
//! reason about an existing backup set rather than generate a new one.

use fsm_dfsm::Dfsm;

use crate::error::Result;
use crate::fault_graph::FaultGraph;
use crate::lattice::lower_cover;
use crate::partition::Partition;

/// Definition 5: `fusions` is an `(f, m)`-fusion of `originals` iff
/// `m = |fusions|` and `dmin(originals ∪ fusions) > f`.
///
/// Answered as a `dmin` query: the levels up to `f` are searched until a
/// pair lighter than `f + 1` turns up, and no weakest-edge list is built.
pub fn is_fusion(
    top_size: usize,
    originals: &[Partition],
    fusions: &[Partition],
    f: usize,
) -> bool {
    FaultGraph::dmin_exceeds(top_size, &[originals, fusions].concat(), f)
}

/// Theorem 4: an `(f, m)`-fusion of `originals` exists iff
/// `m + dmin(originals) > f`.
pub fn fusion_exists(top_size: usize, originals: &[Partition], f: usize, m: usize) -> bool {
    let dmin = FaultGraph::from_partitions(top_size, originals).dmin();
    if dmin == u32::MAX {
        return true;
    }
    (m as u128) + (dmin as u128) > f as u128
}

/// The minimum number of backup machines needed to tolerate `f` crash
/// faults: `max(0, f + 1 − dmin(originals))`.
///
/// Note: the paper's Theorem 5 prose states this count as `f − dmin(A)`,
/// but its own examples (e.g. the `(2,2)`-fusion `{M1, M2}` of `{A, B}` with
/// `dmin = 1`) and Theorem 4 (`m + dmin > f`) require `f + 1 − dmin`, which
/// is what Algorithm 2 produces and what we implement.
pub fn minimum_backup_count(top_size: usize, originals: &[Partition], f: usize) -> usize {
    let dmin = FaultGraph::from_partitions(top_size, originals).dmin();
    if dmin == u32::MAX {
        return 0;
    }
    (f + 1).saturating_sub(dmin as usize)
}

/// Observation 1: the number of crash faults a set of machines tolerates on
/// its own, `dmin − 1`.
pub fn inherent_crash_tolerance(top_size: usize, machines: &[Partition]) -> usize {
    FaultGraph::from_partitions(top_size, machines).max_crash_faults()
}

/// Observation 1: the number of Byzantine faults a set of machines tolerates
/// on its own, `⌊(dmin − 1)/2⌋`.
pub fn inherent_byzantine_tolerance(top_size: usize, machines: &[Partition]) -> usize {
    FaultGraph::from_partitions(top_size, machines).max_byzantine_faults()
}

/// Theorem 3 (subset of a fusion), checkable form: every subset of size
/// `m − t` of an `(f, m)`-fusion is an `(f − t, m − t)`-fusion.
///
/// Returns `true` when the property holds for *every* subset of the given
/// fusion (it always should; this is used by property tests).
pub fn subset_theorem_holds(
    top_size: usize,
    originals: &[Partition],
    fusions: &[Partition],
    f: usize,
) -> bool {
    if !is_fusion(top_size, originals, fusions, f) {
        // Premise violated; the theorem says nothing.
        return true;
    }
    let m = fusions.len();
    // Check all subsets obtained by removing t machines, for every t.
    // Subset count is 2^m, fine for the small fusion sets in practice.
    for mask in 0u32..(1 << m) {
        let subset: Vec<Partition> = (0..m)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| fusions[i].clone())
            .collect();
        let t = m - subset.len();
        if t > f {
            continue;
        }
        if !is_fusion(top_size, originals, &subset, f - t) {
            return false;
        }
    }
    true
}

/// Definition 6: order among `(f, m)`-fusions.  `fa < fb` iff the machines
/// of `fb` can be ordered as `G1..Gm` with `Fi ≤ Gi` for all `i` and at
/// least one strict inequality.  Both sets must have the same size.
///
/// The ordering search tries every pairing (the sets are small), so this is
/// exponential in `m` but `m` is tiny in practice.
pub fn fusion_less_than(fa: &[Partition], fb: &[Partition]) -> bool {
    if fa.len() != fb.len() {
        return false;
    }
    let m = fa.len();
    // Backtracking search for a permutation of fb such that fa[i] ≤ fb[p(i)]
    // for all i with at least one strict.
    fn search(
        fa: &[Partition],
        fb: &[Partition],
        used: &mut Vec<bool>,
        i: usize,
        any_strict: bool,
    ) -> bool {
        if i == fa.len() {
            return any_strict;
        }
        for j in 0..fb.len() {
            if used[j] {
                continue;
            }
            if fa[i].le(&fb[j]) {
                used[j] = true;
                let strict = any_strict || fa[i].lt(&fb[j]);
                if search(fa, fb, used, i + 1, strict) {
                    used[j] = false;
                    return true;
                }
                used[j] = false;
            }
        }
        false
    }
    let mut used = vec![false; m];
    search(fa, fb, &mut used, 0, false)
}

/// Checks whether a fusion is *minimal* (no smaller fusion exists in the
/// Definition 6 order).
///
/// Because the fusion property is monotone in the machine order, it is
/// enough to check single-machine replacements by lower-cover elements: the
/// fusion is minimal iff no `Fi` can be replaced by one of the machines in
/// its lower cover while keeping the set an `(f, m)`-fusion.
pub fn is_minimal_fusion(
    top: &Dfsm,
    originals: &[Partition],
    fusions: &[Partition],
    f: usize,
) -> Result<bool> {
    let n = top.size();
    if !is_fusion(n, originals, fusions, f) {
        return Ok(false);
    }
    for (i, fi) in fusions.iter().enumerate() {
        for candidate in lower_cover(top, fi)? {
            let mut replaced = fusions.to_vec();
            replaced[i] = candidate;
            if is_fusion(n, originals, &replaced, f) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dfsm::DfsmBuilder;

    fn fig3_top() -> Dfsm {
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

    fn a_b() -> (Partition, Partition) {
        (
            Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap(),
            Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap(),
        )
    }

    #[test]
    fn is_fusion_matches_dmin_condition() {
        let (a, b) = a_b();
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        let m2 = Partition::from_blocks(4, &[vec![0], vec![1, 2], vec![3]]).unwrap();
        let originals = vec![a, b];
        // {M1, M2} is a (2,2)-fusion.
        assert!(is_fusion(4, &originals, &[m1.clone(), m2.clone()], 2));
        // {M1} alone is a (1,1)-fusion but not a (2,1)-fusion.
        assert!(is_fusion(4, &originals, std::slice::from_ref(&m1), 1));
        assert!(!is_fusion(4, &originals, &[m1], 2));
        // The empty set is a (0,0)-fusion (dmin = 1 > 0).
        assert!(is_fusion(4, &originals, &[], 0));
        assert!(!is_fusion(4, &originals, &[], 1));
        let _ = m2;
    }

    #[test]
    fn theorem4_existence() {
        let (a, b) = a_b();
        let originals = vec![a, b];
        // dmin({A,B}) = 1: a (2,1)-fusion cannot exist (the paper's own
        // example), but a (2,2)-fusion can.
        assert!(!fusion_exists(4, &originals, 2, 1));
        assert!(fusion_exists(4, &originals, 2, 2));
        assert!(fusion_exists(4, &originals, 1, 1));
        assert!(fusion_exists(4, &originals, 0, 0));
        assert!(!fusion_exists(4, &originals, 1, 0));
        assert_eq!(minimum_backup_count(4, &originals, 2), 2);
        assert_eq!(minimum_backup_count(4, &originals, 1), 1);
        assert_eq!(minimum_backup_count(4, &originals, 0), 0);
    }

    #[test]
    fn existence_check_matches_brute_force_with_top_machines() {
        // Theorem 4's constructive direction: m copies of ⊤ always achieve
        // the bound.
        let (a, b) = a_b();
        let originals = vec![a, b];
        for f in 0..5usize {
            for m in 0..5usize {
                let tops = vec![Partition::singletons(4); m];
                let achievable = is_fusion(4, &originals, &tops, f);
                assert_eq!(
                    achievable,
                    fusion_exists(4, &originals, f, m),
                    "f={f}, m={m}"
                );
            }
        }
    }

    #[test]
    fn inherent_tolerance_matches_observation1() {
        let (a, b) = a_b();
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        assert_eq!(inherent_crash_tolerance(4, &[a.clone(), b.clone()]), 0);
        assert_eq!(
            inherent_crash_tolerance(4, &[a.clone(), b.clone(), m1.clone()]),
            1
        );
        assert_eq!(inherent_byzantine_tolerance(4, &[a, b, m1]), 0);
    }

    #[test]
    fn subset_theorem_on_fig3_fusion() {
        let (a, b) = a_b();
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        let m2 = Partition::from_blocks(4, &[vec![0], vec![1, 2], vec![3]]).unwrap();
        assert!(subset_theorem_holds(4, &[a, b], &[m1, m2], 2));
    }

    #[test]
    fn fusion_order_definition6() {
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        let top = Partition::singletons(4);
        // {M1, ⊤} is greater than {M1, M1} and than {M1, anything ≤ ⊤}.
        assert!(fusion_less_than(
            &[m1.clone(), m1.clone()],
            &[m1.clone(), top.clone()]
        ));
        // Not less than itself.
        assert!(!fusion_less_than(
            &[m1.clone(), top.clone()],
            &[m1.clone(), top.clone()]
        ));
        // Different sizes are incomparable.
        assert!(!fusion_less_than(
            std::slice::from_ref(&m1),
            &[m1.clone(), top]
        ));
        // Incomparable machines make incomparable singleton fusions.
        let other = Partition::from_blocks(4, &[vec![1, 3], vec![0], vec![2]]).unwrap();
        assert!(!fusion_less_than(
            std::slice::from_ref(&m1),
            std::slice::from_ref(&other)
        ));
        assert!(!fusion_less_than(&[other], &[m1]));
    }

    #[test]
    fn paper_example_non_minimal_fusion() {
        // The paper notes that a fusion containing ⊤ is typically not
        // minimal: a smaller machine can replace it (F' = {M1, ⊤} vs.
        // F = {M1, M2} in §4).  Reconstruct the same situation with the
        // fusion Algorithm 2 generates for our top: replace its second
        // machine by ⊤ and check the result is a fusion, is greater in the
        // Definition 6 order, and is no longer minimal.
        let (a, b) = a_b();
        let top = fig3_top();
        let originals = vec![a, b];
        let gen = crate::generate::generate_fusion(&top, &originals, 2).unwrap();
        assert_eq!(gen.len(), 2);
        let mut with_top = gen.partitions.clone();
        with_top[1] = Partition::singletons(4);
        assert!(is_fusion(4, &originals, &with_top, 2));
        if gen.partitions[1] != with_top[1] {
            assert!(fusion_less_than(&gen.partitions, &with_top));
            assert!(!is_minimal_fusion(&top, &originals, &with_top, 2).unwrap());
        }
    }

    #[test]
    fn generated_fusion_is_minimal() {
        use crate::generate::generate_fusion;
        let top = fig3_top();
        let (a, b) = a_b();
        let originals = vec![a, b];
        for f in 1..=2usize {
            let gen = generate_fusion(&top, &originals, f).unwrap();
            assert!(is_fusion(4, &originals, &gen.partitions, f));
            assert!(is_minimal_fusion(&top, &originals, &gen.partitions, f).unwrap());
            assert_eq!(gen.len(), minimum_backup_count(4, &originals, f));
        }
    }
}
