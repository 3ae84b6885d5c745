//! Partitions of a state set (Section 2.1 of the paper).
//!
//! A partition of the state set of the top machine `⊤` groups its states
//! into disjoint blocks.  Every machine that is less than or equal to `⊤`
//! corresponds to a *closed* partition (see [`crate::closed`]); this module
//! provides the partition data structure itself and the order relation the
//! paper defines between machines.
//!
//! Ordering convention (Definition in Section 2.1): `P1 ≤ P2` iff every
//! block of `P2` is contained in a block of `P1`; i.e. `P1` is the *coarser*
//! (less informative) partition.  The top machine corresponds to the finest
//! partition (all singletons) and the bottom machine `⊥` to the single-block
//! partition.
//!
//! `Partition` is the canonical element-indexed form used across the public
//! API; the word-level bitset form used by the hot paths lives in
//! [`crate::bitset`] (see [`Partition::to_bitset`]).  The operations here
//! are map-free single passes; the original `BTreeMap`-based element scans
//! are preserved in [`crate::reference`] for cross-validation.

use std::collections::BTreeMap;
use std::fmt;

use crate::bitset::{join_assignments, BitsetPartition};
use crate::error::{FusionError, Result};

/// A partition of the set `{0, …, n-1}` into disjoint blocks.
///
/// Internally stored as a block index per element, with blocks numbered
/// canonically by order of first occurrence, so two equal partitions always
/// have identical representations (and `PartialEq`/`Hash` behave as set
/// equality of the block structure).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Partition {
    /// `block_of[x]` is the canonical block index of element `x`.
    block_of: Vec<usize>,
    /// Number of blocks.
    num_blocks: usize,
}

impl Partition {
    /// The finest partition: every element in its own block.  Corresponds to
    /// the top machine `⊤` itself.
    pub fn singletons(n: usize) -> Self {
        Partition {
            block_of: (0..n).collect(),
            num_blocks: n,
        }
    }

    /// The coarsest partition: all elements in one block.  Corresponds to
    /// the bottom machine `⊥`.
    pub fn single_block(n: usize) -> Self {
        Partition {
            block_of: vec![0; n.max(1)],
            num_blocks: 1,
        }
    }

    /// Builds a partition from an explicit block assignment
    /// (`assignment[x]` = arbitrary label of the block containing `x`).
    ///
    /// Labels bounded by a small multiple of the element count (the common
    /// case: block indices, union-find roots) are canonicalized through a
    /// dense relabel table in one pass; arbitrary sparse labels fall back to
    /// a `BTreeMap`.
    pub fn from_assignment(assignment: &[usize]) -> Self {
        let n = assignment.len();
        let max_label = match assignment.iter().copied().max() {
            None => {
                return Partition {
                    block_of: Vec::new(),
                    num_blocks: 0,
                }
            }
            Some(m) => m,
        };
        let mut block_of = Vec::with_capacity(n);
        let mut num_blocks = 0usize;
        if max_label < 4 * n {
            let mut table = vec![usize::MAX; max_label + 1];
            for &label in assignment {
                if table[label] == usize::MAX {
                    table[label] = num_blocks;
                    num_blocks += 1;
                }
                block_of.push(table[label]);
            }
        } else {
            let mut canon: BTreeMap<usize, usize> = BTreeMap::new();
            for &label in assignment {
                let next = canon.len();
                block_of.push(*canon.entry(label).or_insert(next));
            }
            num_blocks = canon.len();
        }
        Partition {
            block_of,
            num_blocks,
        }
    }

    /// Builds directly from an assignment that is already canonical
    /// (first-occurrence ordered labels `0..num_blocks`).  Callers must
    /// uphold the invariant; debug builds verify it.
    pub(crate) fn from_canonical_parts(block_of: Vec<usize>, num_blocks: usize) -> Self {
        debug_assert_eq!(
            Partition::from_assignment(&block_of).block_of,
            block_of,
            "assignment is not canonical"
        );
        Partition {
            block_of,
            num_blocks,
        }
    }

    /// In-place counterpart of [`Partition::from_canonical_parts`]: hands the
    /// caller the existing assignment buffer to overwrite, so scratch-reusing
    /// closure loops ([`crate::closed::ClosureKernel::close_merged_into`])
    /// can refresh a `Partition` without allocating.  `fill` must leave the
    /// buffer holding a canonical (first-occurrence ordered) assignment and
    /// return its block count; debug builds verify the invariant.
    pub(crate) fn refresh_canonical_with(&mut self, fill: impl FnOnce(&mut Vec<usize>) -> usize) {
        self.num_blocks = fill(&mut self.block_of);
        // Canonical ⟺ every label is at most one past the running maximum
        // (first occurrences appear in increasing label order).  Checked
        // without allocating so debug builds stay compatible with the
        // counting-allocator test pinning the inner loop
        // (`tests/alloc_free.rs`).
        #[cfg(debug_assertions)]
        {
            let mut next = 0usize;
            for &b in &self.block_of {
                assert!(b <= next, "refreshed assignment is not canonical");
                if b == next {
                    next += 1;
                }
            }
            assert_eq!(next, self.num_blocks, "refreshed block count is wrong");
        }
    }

    /// Builds a partition over `n` elements from explicit blocks.  The
    /// blocks must be disjoint and cover `{0, …, n-1}` exactly.
    pub fn from_blocks(n: usize, blocks: &[Vec<usize>]) -> Result<Self> {
        let mut assignment = vec![usize::MAX; n];
        for (b, block) in blocks.iter().enumerate() {
            for &x in block {
                if x >= n {
                    return Err(FusionError::InvalidPartition(format!(
                        "element {x} out of range 0..{n}"
                    )));
                }
                if assignment[x] != usize::MAX {
                    return Err(FusionError::InvalidPartition(format!(
                        "element {x} appears in more than one block"
                    )));
                }
                assignment[x] = b;
            }
        }
        if let Some(x) = assignment.iter().position(|&b| b == usize::MAX) {
            return Err(FusionError::InvalidPartition(format!(
                "element {x} is not covered by any block"
            )));
        }
        Ok(Self::from_assignment(&assignment))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// Whether the partition is over an empty set.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// Number of blocks.  This is the number of states of the machine the
    /// partition corresponds to (`|M|` in the paper).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// The canonical block index of an element.
    pub fn block_of(&self, x: usize) -> usize {
        self.block_of[x]
    }

    /// The raw block assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.block_of
    }

    /// Whether two elements are in the same block.
    pub fn same_block(&self, x: usize, y: usize) -> bool {
        self.block_of[x] == self.block_of[y]
    }

    /// Whether the partition *separates* (distinguishes) two elements — the
    /// property counted by fault-graph edge weights (Definition 3).
    pub fn separates(&self, x: usize, y: usize) -> bool {
        self.block_of[x] != self.block_of[y]
    }

    /// Converts to the word-level bitset form used by the hot paths
    /// ([`crate::bitset::BitsetPartition`]).  Convert once, compare many
    /// times.
    pub fn to_bitset(&self) -> BitsetPartition {
        BitsetPartition::from_partition(self)
    }

    /// The blocks in compressed (CSR) layout: two flat allocations instead
    /// of the `Vec<Vec<usize>>` that [`Partition::blocks`] builds.  Use this
    /// (or [`Partition::iter_block`]) whenever only block membership is
    /// needed.
    pub fn block_groups(&self) -> BlockGroups {
        let mut counts = vec![0usize; self.num_blocks];
        for &b in &self.block_of {
            counts[b] += 1;
        }
        // offsets[b] is the start of block b; one extra entry marks the end.
        let mut offsets = Vec::with_capacity(self.num_blocks + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..self.num_blocks].to_vec();
        let mut elements = vec![0usize; self.block_of.len()];
        for (x, &b) in self.block_of.iter().enumerate() {
            elements[cursor[b]] = x;
            cursor[b] += 1;
        }
        BlockGroups { offsets, elements }
    }

    /// The blocks as explicit element lists, in canonical block order.
    ///
    /// Allocates one `Vec` per block; callers that only need membership
    /// should prefer [`Partition::block_groups`] or
    /// [`Partition::iter_block`].
    pub fn blocks(&self) -> Vec<Vec<usize>> {
        let groups = self.block_groups();
        groups.iter().map(|b| b.to_vec()).collect()
    }

    /// Iterator over the elements of one block, without allocating.
    pub fn iter_block(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.block_of
            .iter()
            .enumerate()
            .filter(move |&(_, &bb)| bb == b)
            .map(|(x, _)| x)
    }

    /// The elements of one block.
    pub fn block(&self, b: usize) -> Vec<usize> {
        self.iter_block(b).collect()
    }

    /// Whether this is the finest (singleton) partition.
    pub fn is_singletons(&self) -> bool {
        self.num_blocks == self.len()
    }

    /// Whether this is the single-block partition.
    pub fn is_single_block(&self) -> bool {
        self.num_blocks <= 1
    }

    /// Paper order (Definition in Section 2.1): `self ≤ other` iff every
    /// block of `other` is contained in a block of `self`, i.e. `other`
    /// refines `self` (`self` is coarser or equal).
    ///
    /// One sentinel-table pass over the elements.  For amortized use (one
    /// partition compared against many) prefer converting to
    /// [`BitsetPartition`] once and using its word-at-a-time
    /// [`BitsetPartition::le`].
    pub fn le(&self, other: &Partition) -> bool {
        assert_eq!(self.len(), other.len(), "partitions over different sets");
        // other refines self ⟺ whenever other puts x,y together, so does
        // self.  Check via: for each block label of other, all members map
        // to a single block of self.
        let mut rep: Vec<usize> = vec![usize::MAX; other.num_blocks];
        for (&sb, &ob) in self.block_of.iter().zip(&other.block_of) {
            if rep[ob] == usize::MAX {
                rep[ob] = sb;
            } else if rep[ob] != sb {
                return false;
            }
        }
        true
    }

    /// Strict version of [`Partition::le`].
    pub fn lt(&self, other: &Partition) -> bool {
        self.le(other) && self != other
    }

    /// Whether the two partitions are incomparable in the paper's order.
    pub fn incomparable(&self, other: &Partition) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Greatest lower bound in the machine order: the coarsest common
    /// refinement is the *join* of machines; the meet (greatest machine less
    /// than both) is the partition whose blocks are the connected components
    /// of "same block in self OR same block in other".
    pub fn meet(&self, other: &Partition) -> Partition {
        assert_eq!(self.len(), other.len());
        let n = self.len();
        let mut uf = UnionFind::new(n);
        // Union elements that share a block in either partition, tracking
        // the first element seen per block in flat tables.
        let mut first_in_self = vec![usize::MAX; self.num_blocks];
        let mut first_in_other = vec![usize::MAX; other.num_blocks];
        for x in 0..n {
            let sb = self.block_of[x];
            if first_in_self[sb] == usize::MAX {
                first_in_self[sb] = x;
            } else {
                uf.union(x, first_in_self[sb]);
            }
            let ob = other.block_of[x];
            if first_in_other[ob] == usize::MAX {
                first_in_other[ob] = x;
            } else {
                uf.union(x, first_in_other[ob]);
            }
        }
        uf.into_partition()
    }

    /// Least upper bound in the machine order: blocks are the non-empty
    /// intersections of blocks of `self` and `other` (the common
    /// refinement).
    pub fn join(&self, other: &Partition) -> Partition {
        assert_eq!(self.len(), other.len());
        let (assignment, num_blocks) =
            join_assignments(self.len(), self.num_blocks, other.num_blocks, |x| {
                (self.block_of[x], other.block_of[x])
            });
        Partition::from_canonical_parts(assignment, num_blocks)
    }

    /// Returns a new partition with the blocks containing `x` and `y`
    /// merged.
    pub fn merge_elements(&self, x: usize, y: usize) -> Partition {
        let bx = self.block_of[x];
        let by = self.block_of[y];
        if bx == by {
            return self.clone();
        }
        let assignment: Vec<usize> = self
            .block_of
            .iter()
            .map(|&b| if b == by { bx } else { b })
            .collect();
        Partition::from_assignment(&assignment)
    }

    /// Returns a new partition with two whole blocks merged.
    pub fn merge_blocks(&self, b1: usize, b2: usize) -> Partition {
        if b1 == b2 {
            return self.clone();
        }
        let assignment: Vec<usize> = self
            .block_of
            .iter()
            .map(|&b| if b == b2 { b1 } else { b })
            .collect();
        Partition::from_assignment(&assignment)
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Partition{}", self)
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let groups = self.block_groups();
        write!(f, "{{")?;
        for (i, b) in groups.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            let items: Vec<String> = b.iter().map(|x| x.to_string()).collect();
            write!(f, "{}", items.join(","))?;
        }
        write!(f, "}}")
    }
}

/// The blocks of a partition in compressed sparse row (CSR) layout: a flat
/// element array plus per-block offsets.  Built once by
/// [`Partition::block_groups`]; every block is then a slice view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGroups {
    /// `offsets[b]..offsets[b + 1]` is the range of block `b` in `elements`.
    offsets: Vec<usize>,
    /// Elements grouped by block, each block in increasing element order.
    elements: Vec<usize>,
}

impl BlockGroups {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements of block `b`, in increasing order.
    pub fn block(&self, b: usize) -> &[usize] {
        &self.elements[self.offsets[b]..self.offsets[b + 1]]
    }

    /// Iterator over all blocks, in canonical block order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.len()).map(|b| self.block(b))
    }
}

/// A small union-find used by partition closure operations.
///
/// `find` uses iterative path halving, so deep merge chains cannot overflow
/// the stack and the hot closure loops stay allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Re-initializes for `n` elements, reusing the existing buffers.  After
    /// warm-up (first call at a given `n`) this allocates nothing, which is
    /// what lets [`crate::closed::CloseScratch`] keep Algorithm 2's inner
    /// loop allocation-free.
    pub(crate) fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, x: usize, y: usize) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        match self.rank[rx].cmp(&self.rank[ry]) {
            std::cmp::Ordering::Less => self.parent[rx] = ry,
            std::cmp::Ordering::Greater => self.parent[ry] = rx,
            std::cmp::Ordering::Equal => {
                self.parent[ry] = rx;
                self.rank[rx] += 1;
            }
        }
        true
    }

    /// The canonical (first-occurrence ordered) assignment of the current
    /// components, plus the component count.
    pub(crate) fn canonical_assignment(&mut self) -> (Vec<usize>, usize) {
        let mut assignment = Vec::with_capacity(self.parent.len());
        let mut label_of_root = Vec::new();
        let num_blocks = self.canonical_assignment_into(&mut label_of_root, &mut assignment);
        (assignment, num_blocks)
    }

    /// Writes the canonical assignment into `out` (reusing its buffer) and
    /// returns the component count.  `label_of_root` is caller-owned scratch
    /// so repeated calls stay allocation-free once the buffers have grown to
    /// the element count.
    pub(crate) fn canonical_assignment_into(
        &mut self,
        label_of_root: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) -> usize {
        let n = self.parent.len();
        label_of_root.clear();
        label_of_root.resize(n, usize::MAX);
        out.clear();
        out.reserve(n);
        let mut num_blocks = 0usize;
        for x in 0..n {
            let r = self.find(x);
            if label_of_root[r] == usize::MAX {
                label_of_root[r] = num_blocks;
                num_blocks += 1;
            }
            out.push(label_of_root[r]);
        }
        num_blocks
    }

    pub(crate) fn into_partition(mut self) -> Partition {
        let (assignment, num_blocks) = self.canonical_assignment();
        Partition::from_canonical_parts(assignment, num_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_and_single_block() {
        let fine = Partition::singletons(4);
        let coarse = Partition::single_block(4);
        assert_eq!(fine.num_blocks(), 4);
        assert_eq!(coarse.num_blocks(), 1);
        assert!(fine.is_singletons());
        assert!(coarse.is_single_block());
        // coarse ≤ fine in the paper's order (⊥ ≤ ⊤).
        assert!(coarse.le(&fine));
        assert!(!fine.le(&coarse));
        assert!(coarse.lt(&fine));
    }

    #[test]
    fn from_blocks_valid_and_invalid() {
        let p = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        assert_eq!(p.num_blocks(), 3);
        assert!(p.same_block(0, 3));
        assert!(p.separates(0, 1));

        assert!(Partition::from_blocks(3, &[vec![0, 1]]).is_err()); // missing 2
        assert!(Partition::from_blocks(3, &[vec![0, 1], vec![1, 2]]).is_err()); // overlap
        assert!(Partition::from_blocks(3, &[vec![0, 1, 5], vec![2]]).is_err()); // out of range
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let p1 = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let p2 = Partition::from_blocks(4, &[vec![2], vec![1], vec![3, 0]]).unwrap();
        assert_eq!(p1, p2);
        let p3 = Partition::from_assignment(&[7, 9, 2, 7]);
        assert_eq!(p1, p3);
    }

    #[test]
    fn from_assignment_sparse_labels_fall_back() {
        // Labels far above 4n exercise the BTreeMap fallback; canonical form
        // must be identical to the dense path.
        let sparse = Partition::from_assignment(&[1_000_000, 99, 1_000_000, 7]);
        let dense = Partition::from_assignment(&[0, 1, 0, 2]);
        assert_eq!(sparse, dense);
        assert_eq!(Partition::from_assignment(&[]).len(), 0);
        assert_eq!(Partition::from_assignment(&[]).num_blocks(), 0);
    }

    #[test]
    fn le_matches_block_containment() {
        // P1 = {0,3 | 1,2}  (coarser)   P2 = {0,3 | 1 | 2} (finer)
        let p1 = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap();
        let p2 = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        assert!(p1.le(&p2));
        assert!(!p2.le(&p1));
        assert!(p1.lt(&p2));
        // Incomparable pair.
        let q = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
        assert!(q.incomparable(&p2));
    }

    #[test]
    fn meet_and_join_are_lattice_operations() {
        let p = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        let q = Partition::from_blocks(4, &[vec![1, 2], vec![0], vec![3]]).unwrap();
        let meet = p.meet(&q);
        let join = p.join(&q);
        // meet ≤ p, q ≤ join.
        assert!(meet.le(&p) && meet.le(&q));
        assert!(p.le(&join) && q.le(&join));
        // meet merges 0,1,2 transitively.
        assert!(meet.same_block(0, 2));
        assert!(meet.separates(0, 3));
        // join here is the singleton partition.
        assert!(join.is_singletons());
    }

    #[test]
    fn merge_elements_and_blocks() {
        let p = Partition::singletons(4);
        let m = p.merge_elements(1, 3);
        assert_eq!(m.num_blocks(), 3);
        assert!(m.same_block(1, 3));
        assert_eq!(p.merge_elements(2, 2), p);
        let m2 = m.merge_blocks(m.block_of(0), m.block_of(1));
        assert!(m2.same_block(0, 3));
        assert_eq!(m.merge_blocks(0, 0), m);
    }

    #[test]
    fn display_shows_blocks() {
        let p = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let s = format!("{p}");
        assert!(s.contains("0,3"));
        assert!(s.contains('|'));
    }

    #[test]
    fn blocks_roundtrip() {
        let p = Partition::from_blocks(5, &[vec![0, 2, 4], vec![1, 3]]).unwrap();
        let blocks = p.blocks();
        let q = Partition::from_blocks(5, &blocks).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.block(p.block_of(1)), vec![1, 3]);
    }

    #[test]
    fn block_groups_match_blocks() {
        let p = Partition::from_blocks(6, &[vec![0, 2, 4], vec![1, 3], vec![5]]).unwrap();
        let groups = p.block_groups();
        assert_eq!(groups.len(), 3);
        assert!(!groups.is_empty());
        let from_groups: Vec<Vec<usize>> = groups.iter().map(|b| b.to_vec()).collect();
        assert_eq!(from_groups, p.blocks());
        assert_eq!(groups.block(1), &[1, 3]);
        assert_eq!(
            p.iter_block(0).collect::<Vec<_>>(),
            groups.block(0).to_vec()
        );
        // Out-of-range block indices simply yield nothing from iter_block.
        assert_eq!(p.iter_block(17).count(), 0);
    }

    #[test]
    fn bitset_conversion_roundtrips() {
        let p = Partition::from_blocks(5, &[vec![0, 2, 4], vec![1, 3]]).unwrap();
        let bits = p.to_bitset();
        assert_eq!(bits.to_partition(), p);
        assert_eq!(BitsetPartition::from(&p).to_partition(), p);
        assert_eq!(Partition::from(&bits), p);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        let p = uf.into_partition();
        assert!(p.same_block(1, 2));
        assert!(p.separates(0, 4));
        assert_eq!(p.num_blocks(), 2);
    }
}
