//! `u64`-word bitset kernel for partitions (the hot-path representation).
//!
//! Comparing partitions reduces to set algebra over blocks of `⊤` states.
//! This module stores each block as a row of `u64` words ([`BlockMatrix`])
//! so that containment, disjointness and complement enumeration run
//! word-at-a-time instead of element-at-a-time:
//!
//! * `P1 ≤ P2` becomes one subset test (`row & !row' == 0`) per block of
//!   `P2` — `O(B · ⌈n/64⌉)` word operations,
//! * the candidate-scoring loops in [`crate::search`] and [`crate::lattice`]
//!   convert each candidate partition once and then compare it against many
//!   others at word granularity.
//!
//! [`BitsetPartition`] pairs the block rows with the element→block map so
//! both access patterns (by element, by block) are O(1).  Conversions to and
//! from [`Partition`] preserve the canonical first-occurrence block
//! numbering, so `P == Q` exactly when
//! `BitsetPartition::from(&P) == BitsetPartition::from(&Q)`.
//!
//! The element-scan implementations these kernels replaced are preserved in
//! [`crate::reference`] for cross-validation and benchmarking.

use crate::partition::{Partition, UnionFind};

/// Number of bits per bitset word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// A dense matrix of bitset rows: `rows × ⌈cols/64⌉` words of `u64`.
///
/// Row `r` represents a subset of `{0, …, cols-1}`; in a partition context
/// each row is the membership mask of one block.  The storage is one flat
/// allocation, so iterating rows is cache-friendly.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BlockMatrix {
    cols: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BlockMatrix {
    /// A zeroed matrix with `rows` rows over `cols` columns.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        let words = words_for(cols);
        BlockMatrix {
            cols,
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Re-shapes to `rows × cols` and zeroes every bit, reusing the existing
    /// word buffer.  After warm-up at a given shape this allocates nothing.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.cols = cols;
        self.words = words_for(cols);
        self.bits.clear();
        self.bits.resize(rows * self.words, 0);
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.bits.len().checked_div(self.words).unwrap_or(0)
    }

    /// Number of columns (bits per row).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Number of `u64` words per row.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// The words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Sets bit `c` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(c < self.cols);
        self.bits[r * self.words + c / WORD_BITS] |= 1u64 << (c % WORD_BITS);
    }

    /// Whether bit `c` of row `r` is set.
    #[inline]
    pub fn contains(&self, r: usize, c: usize) -> bool {
        debug_assert!(c < self.cols);
        self.bits[r * self.words + c / WORD_BITS] & (1u64 << (c % WORD_BITS)) != 0
    }

    /// Word-at-a-time subset test: whether row `r` of `self` is contained in
    /// row `s` of `other`.
    #[inline]
    pub fn row_is_subset(&self, r: usize, other: &BlockMatrix, s: usize) -> bool {
        debug_assert_eq!(self.words, other.words);
        self.row(r)
            .iter()
            .zip(other.row(s))
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Word-at-a-time disjointness test between row `r` of `self` and row
    /// `s` of `other`.
    #[inline]
    pub fn row_is_disjoint(&self, r: usize, other: &BlockMatrix, s: usize) -> bool {
        debug_assert_eq!(self.words, other.words);
        self.row(r)
            .iter()
            .zip(other.row(s))
            .all(|(&a, &b)| a & b == 0)
    }

    /// Number of set bits in row `r`.
    pub fn row_count(&self, r: usize) -> usize {
        self.row(r).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the set bit positions of row `r`, in increasing order.
    pub fn row_ones(&self, r: usize) -> Ones<'_> {
        Ones::new(self.row(r))
    }
}

/// Iterator over the set bit positions of a row of bitset words.
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    /// Index of the *next* word to load; `current` came from `next_word - 1`.
    next_word: usize,
    current: u64,
}

impl<'a> Ones<'a> {
    /// Iterates the set bits of `words` (bit `i` of word `w` is position
    /// `w * 64 + i`).
    pub fn new(words: &'a [u64]) -> Self {
        Ones {
            words,
            next_word: 0,
            current: 0,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.next_word - 1) * WORD_BITS + bit);
            }
            if self.next_word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.next_word];
            self.next_word += 1;
        }
    }
}

/// A partition of `{0, …, n-1}` in bitset-block form: one [`BlockMatrix`]
/// row per block plus the element→block map, both kept in the same canonical
/// first-occurrence block order as [`Partition`].
///
/// This is the hot-path representation: convert a [`Partition`] once, then
/// run many word-level comparisons or fault-graph updates against it.
/// Conversions preserve canonical form, so equality of `BitsetPartition`s is
/// equality of the underlying partitions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BitsetPartition {
    n: usize,
    /// `block_of[x]` is the canonical block index of element `x`.
    block_of: Vec<u32>,
    /// Row `b` is the membership mask of block `b`.
    blocks: BlockMatrix,
    /// `first[b]` is the smallest element of block `b` (canonical order
    /// makes this also the first occurrence).
    first: Vec<u32>,
}

impl BitsetPartition {
    /// Converts a canonical [`Partition`] into bitset-block form.
    pub fn from_partition(p: &Partition) -> Self {
        Self::from_canonical_assignment(p.assignment(), p.num_blocks())
    }

    /// Builds from an assignment that is already in canonical
    /// first-occurrence order with blocks `0..num_blocks`.
    pub(crate) fn from_canonical_assignment(assignment: &[usize], num_blocks: usize) -> Self {
        let n = assignment.len();
        let mut blocks = BlockMatrix::zeroed(num_blocks, n);
        let mut block_of = Vec::with_capacity(n);
        let mut first = vec![u32::MAX; num_blocks];
        for (x, &b) in assignment.iter().enumerate() {
            debug_assert!(b < num_blocks);
            blocks.set(b, x);
            block_of.push(b as u32);
            if first[b] == u32::MAX {
                first[b] = x as u32;
            }
        }
        BitsetPartition {
            n,
            block_of,
            blocks,
            first,
        }
    }

    /// Converts back to the element-indexed [`Partition`] form.
    pub fn to_partition(&self) -> Partition {
        let assignment: Vec<usize> = self.block_of.iter().map(|&b| b as usize).collect();
        Partition::from_assignment(&assignment)
    }

    /// The finest partition (every element its own block); corresponds to
    /// the top machine `⊤`.
    pub fn singletons(n: usize) -> Self {
        let assignment: Vec<usize> = (0..n).collect();
        Self::from_canonical_assignment(&assignment, n)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the partition is over an empty set.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.first.len()
    }

    /// The canonical block index of an element.
    #[inline]
    pub fn block_of(&self, x: usize) -> usize {
        self.block_of[x] as usize
    }

    /// The membership mask (bitset words) of block `b`.
    #[inline]
    pub fn block_row(&self, b: usize) -> &[u64] {
        self.blocks.row(b)
    }

    /// The block rows as a matrix.
    pub fn block_matrix(&self) -> &BlockMatrix {
        &self.blocks
    }

    /// Number of `u64` words per block row.
    pub fn words_per_row(&self) -> usize {
        self.blocks.words_per_row()
    }

    /// The elements of block `b`, in increasing order.
    pub fn block_ones(&self, b: usize) -> Ones<'_> {
        self.blocks.row_ones(b)
    }

    /// Number of elements in block `b` (one popcount pass over the row).
    pub fn block_size(&self, b: usize) -> usize {
        self.blocks.row_count(b)
    }

    /// Whether two elements share a block.
    #[inline]
    pub fn same_block(&self, x: usize, y: usize) -> bool {
        self.block_of[x] == self.block_of[y]
    }

    /// Whether the partition separates (distinguishes) two elements.
    #[inline]
    pub fn separates(&self, x: usize, y: usize) -> bool {
        self.block_of[x] != self.block_of[y]
    }

    /// Whether this partition separates every one of the given edges — the
    /// bitset-form counterpart of [`crate::FaultGraph::covers_all`] (which
    /// Algorithm 2 itself uses on its canonical [`Partition`] candidates),
    /// for callers that already hold a converted partition.
    pub fn covers_all(&self, edges: &[(usize, usize)]) -> bool {
        edges.iter().all(|&(i, j)| self.separates(i, j))
    }

    /// Paper order, word-at-a-time: `self ≤ other` iff every block of
    /// `other` is contained in a block of `self` (i.e. `other` refines
    /// `self`).  Runs one subset test per block of `other`:
    /// `O(B_other · ⌈n/64⌉)` word operations.
    pub fn le(&self, other: &BitsetPartition) -> bool {
        assert_eq!(self.n, other.n, "partitions over different sets");
        (0..other.num_blocks()).all(|ob| {
            let rep = other.first[ob] as usize;
            let sb = self.block_of[rep] as usize;
            other.blocks.row_is_subset(ob, &self.blocks, sb)
        })
    }

    /// Strict version of [`BitsetPartition::le`].
    pub fn lt(&self, other: &BitsetPartition) -> bool {
        self.le(other) && self.block_of != other.block_of
    }

    /// Whether the two partitions are incomparable in the paper's order.
    pub fn incomparable(&self, other: &BitsetPartition) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Greatest lower bound in the machine order (blocks are the connected
    /// components of "same block in `self` OR same block in `other`"),
    /// seeded from the per-block first elements — no tree maps.
    pub fn meet(&self, other: &BitsetPartition) -> BitsetPartition {
        assert_eq!(self.n, other.n, "partitions over different sets");
        let n = self.n;
        let mut uf = UnionFind::new(n);
        for x in 0..n {
            uf.union(x, self.first[self.block_of[x] as usize] as usize);
            uf.union(x, other.first[other.block_of[x] as usize] as usize);
        }
        let (assignment, num_blocks) = uf.canonical_assignment();
        Self::from_canonical_assignment(&assignment, num_blocks)
    }

    /// Least upper bound in the machine order (blocks are the non-empty
    /// pairwise block intersections), via a dense pair-relabel table.
    pub fn join(&self, other: &BitsetPartition) -> BitsetPartition {
        assert_eq!(self.n, other.n, "partitions over different sets");
        let (joined, num_blocks) =
            join_assignments(self.n, self.num_blocks(), other.num_blocks(), |x| {
                (self.block_of[x] as usize, other.block_of[x] as usize)
            });
        Self::from_canonical_assignment(&joined, num_blocks)
    }
}

impl From<&Partition> for BitsetPartition {
    fn from(p: &Partition) -> Self {
        BitsetPartition::from_partition(p)
    }
}

impl From<&BitsetPartition> for Partition {
    fn from(p: &BitsetPartition) -> Self {
        p.to_partition()
    }
}

/// Shared join kernel: canonical assignment of the common refinement of two
/// canonical assignments (`pair(x)` returns the two block indices of `x`),
/// plus the resulting block count.  Uses a dense `B_a × B_b` relabel table
/// when it fits (the overwhelmingly common case), falling back to a hash
/// map for pathologically large block-count products.
pub(crate) fn join_assignments(
    n: usize,
    a_blocks: usize,
    b_blocks: usize,
    pair: impl Fn(usize) -> (usize, usize),
) -> (Vec<usize>, usize) {
    let mut assignment = Vec::with_capacity(n);
    let mut next = 0usize;
    // 2^22 entries = 32 MiB of usize labels at the worst; beyond that (only
    // possible for n > 2048) use the map fallback.
    const DENSE_LIMIT: usize = 1 << 22;
    if a_blocks.saturating_mul(b_blocks) <= DENSE_LIMIT {
        let mut table = vec![usize::MAX; a_blocks * b_blocks];
        for x in 0..n {
            let (a, b) = pair(x);
            let key = a * b_blocks + b;
            if table[key] == usize::MAX {
                table[key] = next;
                next += 1;
            }
            assignment.push(table[key]);
        }
    } else {
        let mut table: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::with_capacity(n);
        for x in 0..n {
            let label = *table.entry(pair(x)).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            assignment.push(label);
        }
    }
    (assignment, next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(blocks: &[Vec<usize>], n: usize) -> Partition {
        Partition::from_blocks(n, blocks).unwrap()
    }

    #[test]
    fn roundtrip_preserves_canonical_form() {
        let part = p(&[vec![0, 3], vec![1], vec![2, 4]], 5);
        let bits = BitsetPartition::from_partition(&part);
        assert_eq!(bits.len(), 5);
        assert_eq!(bits.num_blocks(), 3);
        assert_eq!(bits.to_partition(), part);
        for x in 0..5 {
            assert_eq!(bits.block_of(x), part.block_of(x));
        }
    }

    #[test]
    fn block_rows_match_membership() {
        let part = p(&[vec![0, 2, 4], vec![1, 3]], 5);
        let bits = BitsetPartition::from_partition(&part);
        assert_eq!(bits.block_ones(0).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(bits.block_ones(1).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(bits.block_size(0), 3);
        assert_eq!(bits.block_size(1), 2);
        assert!(bits.block_matrix().contains(0, 4));
        assert!(!bits.block_matrix().contains(1, 4));
    }

    #[test]
    fn le_agrees_with_partition_le() {
        let coarse = p(&[vec![0, 3], vec![1, 2]], 4);
        let fine = p(&[vec![0, 3], vec![1], vec![2]], 4);
        let other = p(&[vec![0, 1], vec![2, 3]], 4);
        let (bc, bf, bo) = (
            BitsetPartition::from_partition(&coarse),
            BitsetPartition::from_partition(&fine),
            BitsetPartition::from_partition(&other),
        );
        assert!(bc.le(&bf));
        assert!(!bf.le(&bc));
        assert!(bc.lt(&bf));
        assert!(!bc.lt(&bc.clone()));
        assert!(bo.incomparable(&bf));
    }

    #[test]
    fn meet_and_join_agree_with_partition_ops() {
        let a = p(&[vec![0, 1], vec![2], vec![3]], 4);
        let b = p(&[vec![1, 2], vec![0], vec![3]], 4);
        let (ba, bb) = (
            BitsetPartition::from_partition(&a),
            BitsetPartition::from_partition(&b),
        );
        assert_eq!(ba.meet(&bb).to_partition(), a.meet(&b));
        assert_eq!(ba.join(&bb).to_partition(), a.join(&b));
    }

    #[test]
    fn covers_all_matches_separates() {
        let a = p(&[vec![0, 3], vec![1], vec![2]], 4);
        let ba = BitsetPartition::from_partition(&a);
        assert!(ba.covers_all(&[(0, 1), (1, 2)]));
        assert!(!ba.covers_all(&[(0, 3)]));
        assert!(ba.covers_all(&[]));
    }

    #[test]
    fn singletons_and_multiword_rows() {
        // Cross the 64-bit word boundary to exercise multi-word rows.
        let n = 130;
        let fine = BitsetPartition::singletons(n);
        assert_eq!(fine.num_blocks(), n);
        assert_eq!(fine.words_per_row(), 3);
        let mut assignment = vec![0usize; n];
        for (x, a) in assignment.iter_mut().enumerate() {
            *a = x % 2;
        }
        let par = Partition::from_assignment(&assignment);
        let bits = BitsetPartition::from_partition(&par);
        assert_eq!(bits.num_blocks(), 2);
        assert_eq!(bits.block_size(0), 65);
        assert_eq!(bits.block_ones(1).last(), Some(129));
        // parity ≤ singletons in the paper's order.
        assert!(bits.le(&fine));
        assert!(!fine.le(&bits));
    }

    #[test]
    fn ones_iterator_handles_sparse_words() {
        let words = [0u64, 1 << 63, 0, (1 << 0) | (1 << 17)];
        let got: Vec<usize> = Ones::new(&words).collect();
        assert_eq!(got, vec![127, 192, 209]);
        assert_eq!(Ones::new(&[]).count(), 0);
        assert_eq!(Ones::new(&[0, 0]).count(), 0);
    }

    #[test]
    fn empty_partition_is_handled() {
        let empty = Partition::from_assignment(&[]);
        let bits = BitsetPartition::from_partition(&empty);
        assert!(bits.is_empty());
        assert_eq!(bits.num_blocks(), 0);
        assert_eq!(bits.to_partition(), empty);
        assert!(bits.le(&bits.clone()));
    }
}
