//! Closed partitions and quotient machines (Section 2.1).
//!
//! A partition `P` of the state set of a machine `T` is *closed* (a
//! "substitution property" / SP partition) when every event maps each block
//! of `P` into a single block.  A closed partition corresponds to a distinct
//! machine: its states are the blocks of `P`, and its transition function is
//! well defined precisely because `P` is closed.
//!
//! This module provides:
//!
//! * [`is_closed`] — check the closure property,
//! * [`close`] — the finest closed partition coarser than (or equal to) a
//!   given partition, the basic step Algorithm 2 uses when walking down the
//!   closed partition lattice,
//! * [`ClosureKernel`] — a reusable closure engine that caches the machine's
//!   transition table in flat arrays, so each closure is a map-free
//!   fixpoint pass,
//! * [`QuotientLevel`] — the merges of one closed partition closed on its
//!   quotient machine: lattice walks' lower covers and Algorithm 2's
//!   candidate test, which abandons a merge as soon as it joins a
//!   forbidden block pair or a pair whose merge failed before, and
//!   Algorithm 2's descent, which derives each level from the last,
//! * [`quotient_machine`] — materialize the DFSM corresponding to a closed
//!   partition of `⊤`.

use fsm_dfsm::{Dfsm, EventId, StateId, StateInfo};

use crate::error::{FusionError, Result};
use crate::partition::{Partition, UnionFind};

/// Shared guard: the partition must cover exactly the machine's states.
pub(crate) fn check_partition_size(machine: &Dfsm, partition: &Partition) -> Result<()> {
    if partition.len() != machine.size() {
        return Err(FusionError::PartitionSizeMismatch {
            expected: machine.size(),
            actual: partition.len(),
        });
    }
    Ok(())
}

/// Reusable buffers for the closure fixpoint and the quotient scorer, owned
/// by the caller.
///
/// [`ClosureKernel::close_merged`] allocates a fresh union-find, seed table
/// and class→successor map per call — six `⊤`-sized allocations per
/// candidate merge.  [`ClosureKernel::close_merged_into`] and
/// [`ClosureKernel::quotient_level`] thread one `CloseScratch` through
/// every candidate instead.  A [`QuotientLevel`] keeps its quotient table,
/// block union-find, forbidden and failed block pairs and base-to-level map
/// here, and [`QuotientLevel::descend`] rebuilds them in place, so a whole
/// descent reuses one set of buffers sized by the first level.  After the
/// first call at a given machine size (or block count) the buffers are
/// warm, and closures, merges and descend steps run without touching the
/// allocator (pinned by the counting-allocator test `tests/alloc_free.rs`).
///
/// **Ownership / lifecycle.**  The scratch is plain data with no ties to a
/// particular kernel: each search loop (or each [`crate::FusionSession`])
/// owns one and reuses it for its whole lifetime.  It is `Send`, but not
/// meant to be shared — hand each thread its own.
#[derive(Debug, Clone, Default)]
pub struct CloseScratch {
    uf: UnionFind,
    first_of_block: Vec<usize>,
    succ_of_class: Vec<usize>,
    label_of_root: Vec<usize>,
    quotient: QuotientScratch,
}

/// The buffers behind a [`QuotientLevel`]: everything but the base map is
/// sized by the block count `k` of the level, none by the state count.
#[derive(Debug, Clone, Default)]
struct QuotientScratch {
    /// `table[b · |Σ| + e]` = the block event `e` maps block `b` into.
    table: Vec<u32>,
    /// Union-find over the `k` blocks; a merge undoes only the unions of
    /// the one before it.
    uf: UnionFind,
    /// Pending block pairs the congruence still has to join.
    work: Vec<(u32, u32)>,
    /// Block pairs whose merge is known to fail: every forbidden pair and,
    /// while the set is a bitmap, every merge that failed.
    doomed: PairSet,
    /// The deduplicated forbidden block pairs, for the exact verdict.
    forbidden: Vec<(u32, u32)>,
    /// The failed merges `doomed` holds, carried down by a descend step;
    /// at most [`MEMO_PAIRS`].
    failed: Vec<(u32, u32)>,
    /// `of_base[b]` = the level block holding block `b` of the base
    /// partition the level was built from.
    of_base: Vec<u32>,
    /// Label of each union-find root, then the level block each block
    /// moves to, while a merge is lifted or descended into.
    root_label: Vec<u32>,
    relabel: Vec<u32>,
}

/// Least bitmap words a level's pair set may take — 1 MiB, a level of up
/// to ≈ 4,100 blocks — even when a table would be smaller: the bitmap also
/// remembers failed merges, which the table cannot take.
const MEMO_WORDS: usize = 1 << 17;

/// Most failed merges a level carries down to the next: 1 MiB of pairs.
const MEMO_PAIRS: usize = 1 << 17;

/// A set of unordered block pairs `(b1, b2)`, `b1 < b2 < k`, rebuilt for
/// every level, in whichever of two layouts is smaller.
///
/// * A flat upper-triangular **bitmap**: a lookup is one load, and pairs
///   can be added at any time, which is where a level remembers its failed
///   merges.
/// * A sorted adjacency **table**: `partners[start[a]..start[a + 1]]`
///   holds every `b > a` of a pair `(a, b)`, so a lookup is a binary
///   search of one short row.  It is built in one counting-sort pass and
///   cannot grow.  It takes over when the bitmap would outgrow both the
///   table and [`MEMO_WORDS`] — the first level of a descent over a big
///   `⊤`, where `k = |⊤|`: at `|⊤| = 6561` the table takes 236 KB against
///   a 2.7 MB bitmap, at `|⊤| = 59049` 2.6 MB against 218 MB.
#[derive(Debug, Clone, Default)]
struct PairSet {
    k: usize,
    /// Whether the table is in use.
    is_table: bool,
    /// The bitmap; empty while the table is in use.
    words: Vec<u64>,
    /// The table's row starts (`k + 1` of them) and rows.
    start: Vec<u32>,
    partners: Vec<u32>,
}

impl PairSet {
    /// Makes the set hold exactly the pairs of `pairs`, all `(a, b)` with
    /// `a ≠ b < k`, and rewrites `pairs` as their deduplicated list.
    fn fill(&mut self, k: usize, pairs: &mut Vec<(u32, u32)>) {
        self.k = k;
        self.words.clear();
        self.start.clear();
        self.partners.clear();
        let words = (k * k.saturating_sub(1) / 2).div_ceil(64);
        self.is_table = words > MEMO_WORDS.max((k + 1 + pairs.len()).div_ceil(2));
        if !self.is_table {
            self.words.resize(words, 0);
            pairs.retain(|&(a, b)| self.remember(a as usize, b as usize));
            return;
        }
        // Counting sort by the smaller block: count row `r` into
        // `start[r + 2]`, so that after the prefix sums placing each pair
        // at `start[r + 1]` and bumping it leaves `start[r]` at row `r`.
        self.start.resize(k + 2, 0);
        for &(a, b) in pairs.iter() {
            self.start[a.min(b) as usize + 2] += 1;
        }
        for r in 2..k + 2 {
            self.start[r] += self.start[r - 1];
        }
        self.partners.resize(pairs.len(), 0);
        for &(a, b) in pairs.iter() {
            let at = &mut self.start[a.min(b) as usize + 1];
            self.partners[*at as usize] = a.max(b);
            *at += 1;
        }
        self.start.pop();
        // Sort each row and drop repeats, compacting the rows in place.
        pairs.clear();
        let mut kept = 0;
        for r in 0..k {
            let (lo, hi) = (self.start[r] as usize, self.start[r + 1] as usize);
            self.start[r] = kept as u32;
            let row = &mut self.partners[lo..hi];
            // Rows of a row-major input, such as the fault graph's
            // weakest edges, arrive sorted.
            if row.windows(2).any(|w| w[0] > w[1]) {
                row.sort_unstable();
            }
            for i in lo..hi {
                let b = self.partners[i];
                if i == lo || b != self.partners[i - 1] {
                    self.partners[kept] = b;
                    kept += 1;
                    pairs.push((r as u32, b));
                }
            }
        }
        self.start[k] = kept as u32;
        self.partners.truncate(kept);
    }

    /// Word and mask of the pair `{a, b}`, `a ≠ b`, in the bitmap.
    fn bit(&self, a: usize, b: usize) -> (usize, u64) {
        let (b1, b2) = (a.min(b), a.max(b));
        debug_assert!(b1 < b2 && b2 < self.k);
        let idx = b1 * self.k - b1 * (b1 + 1) / 2 + (b2 - b1 - 1);
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Adds `{a, b}`, `a ≠ b`, if the set is a bitmap; returns whether it
    /// was added (the table holds only what it was filled with).
    fn remember(&mut self, a: usize, b: usize) -> bool {
        if self.is_table {
            return false;
        }
        let (w, mask) = self.bit(a, b);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        if self.is_table {
            let (lo, hi) = (a.min(b), a.max(b) as u32);
            let row = self.start[lo] as usize..self.start[lo + 1] as usize;
            self.partners[row].binary_search(&hi).is_ok()
        } else {
            let (w, mask) = self.bit(a, b);
            self.words[w] & mask != 0
        }
    }
}

/// How [`QuotientLevel::merge`] scored one candidate merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotientMerge {
    /// The closure joined a pair whose merge is known to fail and was
    /// abandoned unfinished.
    Aborted,
    /// The closure completed and joins at least one forbidden pair.
    Fails,
    /// The closure completed and separates every forbidden pair.
    Covers,
}

impl QuotientMerge {
    /// Whether the closed merge separates every forbidden edge — the
    /// verdict `FaultGraph::covers_all` gives on the lifted closure.
    pub fn covers(self) -> bool {
        self == QuotientMerge::Covers
    }

    /// Whether the closure ran to its fixpoint, so
    /// [`QuotientLevel::lift_into`] may materialize it and
    /// [`QuotientLevel::descend`] move to it.
    pub fn completed(self) -> bool {
        self != QuotientMerge::Aborted
    }
}

/// One closed partition of `⊤`, prepared for scoring the closed merges of
/// its block pairs against a set of forbidden edges — the test on line 6
/// of Algorithm 2 — and for descending to the merges it keeps.
///
/// Because the level's partition is closed, the closed partitions coarser
/// than it are exactly the congruences of its `k`-state quotient machine,
/// and the closure of "merge blocks `b1`, `b2`" is the congruence the pair
/// generates there.  [`QuotientLevel::merge`] therefore runs a worklist
/// union-find over `k` blocks instead of a fixpoint over all `n` states.
///
/// * **Early abort.**  A merge stops at the first pair it would join
///   whose own merge is known to fail: a forbidden block pair, or — the
///   level's memo — a pair whose merge failed earlier.  The memo is sound
///   because a pair's congruence contains the congruence of every pair it
///   generates, so a merge that joins a failed pair joins what that pair
///   joined.  It lives in the level's pair bitmap, which a level of up to
///   ≈ 4,100 blocks always has (1 MiB); a bigger level whose forbidden
///   pairs fit in a smaller table keeps them there and remembers nothing.
/// * **Descent.**  [`QuotientLevel::descend`] turns the level into the
///   quotient of its last completed merge, derived from the current
///   quotient in `O(k·|Σ| + |forbidden| + |memo|)` plus one pass over the
///   base map, and carries the memo down: a merge that failed above fails
///   below as well.
/// * **Lifting.**  The level keeps the map from the blocks of the base
///   partition it was built from to its own blocks, numbered by first
///   appearance, so [`QuotientLevel::lift_into`] (its last merge) and
///   [`QuotientLevel::lift_level_into`] (the level itself) write a
///   canonical `n`-state [`Partition`] in one pass.
///
/// Built by [`ClosureKernel::quotient_level`]; borrows its buffers from a
/// [`CloseScratch`], so after warm-up at a block count neither building a
/// level, nor scoring its merges, nor descending allocates
/// (`tests/alloc_free.rs`).
#[derive(Debug)]
pub struct QuotientLevel<'a> {
    base: &'a Partition,
    k: usize,
    /// Number of events, the row length of the quotient table.
    events: usize,
    /// Some forbidden edge lies inside one block of the level, so every
    /// merge (which only coarsens) fails.
    joined: bool,
    /// Whether the union-find holds a completed merge, whose classes
    /// `relabel` numbers.
    completed: bool,
    /// Number of classes of the last completed merge.
    classes: usize,
    buf: &'a mut QuotientScratch,
}

impl QuotientLevel<'_> {
    /// Number of blocks of the level's partition (states of the quotient).
    pub fn num_blocks(&self) -> usize {
        self.k
    }

    /// Closes the merge of blocks `b1` and `b2` on the quotient and scores
    /// it against the forbidden edges.
    ///
    /// Every union is checked before it is made: if the pair being joined,
    /// or the two classes' roots, is a forbidden block pair or a merge that
    /// failed before, the closure is certain to join a forbidden pair and
    /// the call returns [`QuotientMerge::Aborted`] at once.  A closure
    /// that runs to its fixpoint gets the exact verdict from one pass over
    /// the deduplicated forbidden pairs.  A merge that fails is
    /// remembered while the level's pair set is a bitmap.  Equal `b1`/`b2`
    /// score the level itself.
    pub fn merge(&mut self, b1: usize, b2: usize) -> QuotientMerge {
        self.completed = false;
        if self.joined {
            return QuotientMerge::Aborted;
        }
        let buf = &mut *self.buf;
        buf.uf.undo();
        let doomed = b1 != b2 && buf.doomed.contains(b1, b2);
        let outcome = if !doomed && buf.close_pair(b1, b2, self.events) {
            self.completed = true;
            self.classes = buf.number_classes(self.k);
            let relabel = &buf.relabel;
            let joins = |&(a, b): &(u32, u32)| relabel[a as usize] == relabel[b as usize];
            if !buf.forbidden.iter().any(joins) {
                return QuotientMerge::Covers;
            }
            QuotientMerge::Fails
        } else {
            QuotientMerge::Aborted
        };
        if b1 != b2 && buf.doomed.remember(b1, b2) && buf.failed.len() < MEMO_PAIRS {
            buf.failed.push((b1 as u32, b2 as u32));
        }
        outcome
    }

    /// Writes the last merged closure, lifted to the elements of the base
    /// partition, into `out` (reusing its buffer).  The result equals
    /// [`ClosureKernel::close_merged`] of the same blocks of the base.
    ///
    /// # Panics
    ///
    /// If the last [`QuotientLevel::merge`] did not complete.
    pub fn lift_into(&self, out: &mut Partition) {
        assert!(self.completed, "lift_into needs a completed merge");
        let (relabel, of_base) = (&self.buf.relabel, &self.buf.of_base);
        let lifted = self.base.assignment().iter();
        out.refresh_canonical_with(|assignment| {
            assignment.clear();
            assignment.extend(lifted.map(|&b| relabel[of_base[b] as usize] as usize));
            self.classes
        });
    }

    /// Writes the level's own partition, lifted to the elements of the
    /// base partition, into `out` (reusing its buffer): after descend
    /// steps, the partition the last kept merge closed to.
    pub fn lift_level_into(&self, out: &mut Partition) {
        let of_base = &self.buf.of_base;
        let lifted = self.base.assignment().iter();
        out.refresh_canonical_with(|assignment| {
            assignment.clear();
            assignment.extend(lifted.map(|&b| of_base[b] as usize));
            self.k
        });
    }

    /// Moves the level to the quotient of its last completed merge, as if
    /// [`ClosureKernel::quotient_level`] had been called on the lifted
    /// merge: the same block count and numbering, the same verdict for
    /// every pair.
    ///
    /// The new level is derived from this one, not from `⊤`: merged blocks
    /// take the number of their first member (canonical numbering, since
    /// the level's own is), the quotient table keeps one row per new
    /// block, and the forbidden and failed pairs are renamed and
    /// deduplicated — `O(k·|Σ| + |forbidden| + |memo|)`, plus one pass
    /// over the map from base blocks to level blocks.  Nothing is
    /// allocated once the scratch is warm.
    ///
    /// # Panics
    ///
    /// If the last [`QuotientLevel::merge`] did not complete.
    pub fn descend(&mut self) {
        assert!(self.completed, "descend needs a completed merge");
        let buf = &mut *self.buf;
        let (k, k2, s) = (self.k, self.classes, self.events);
        let relabel = &buf.relabel;
        // New blocks are numbered in order of their first old block, so
        // row `nb` is written from an old row at or after it: in place.
        let mut next = 0;
        for b in 0..k {
            if relabel[b] as usize == next {
                for e in 0..s {
                    buf.table[next * s + e] = relabel[buf.table[b * s + e] as usize];
                }
                next += 1;
            }
        }
        buf.table.truncate(k2 * s);
        for x in &mut buf.of_base {
            *x = relabel[*x as usize];
        }
        let rename = |&(a, b): &(u32, u32)| (relabel[a as usize], relabel[b as usize]);
        let mut joined = false;
        for pair in &mut buf.forbidden {
            *pair = rename(pair);
            joined |= pair.0 == pair.1;
        }
        if joined {
            buf.forbidden.retain(|&(a, b)| a != b);
        }
        buf.doomed.fill(k2, &mut buf.forbidden);
        // After a covering merge no failed pair is joined: each generates a
        // forbidden pair, which the merge separates.
        let doomed = &mut buf.doomed;
        buf.failed.retain_mut(|pair| {
            *pair = rename(pair);
            pair.0 != pair.1 && doomed.remember(pair.0 as usize, pair.1 as usize)
        });
        buf.uf.reset(k2);
        self.k = k2;
        self.joined = joined;
        self.completed = false;
    }
}

impl QuotientScratch {
    /// Runs the worklist closure of the merge of `b1` and `b2`; returns
    /// `false` as soon as it is about to join a pair in `doomed`.
    fn close_pair(&mut self, b1: usize, b2: usize, s: usize) -> bool {
        let (uf, work, table, doomed) = (&mut self.uf, &mut self.work, &self.table, &self.doomed);
        // Without a forbidden pair no merge fails, so nothing is checked.
        // A bitmap lookup is one load, so a pair is checked as soon as it
        // is queued, before the unions that would follow it; a table
        // lookup is a search, so only pairs about to be joined are.
        let check = !self.forbidden.is_empty();
        let (on_queue, on_join) = (check && !doomed.is_table, check && doomed.is_table);
        work.clear();
        work.push((b1 as u32, b2 as u32));
        while let Some((x, y)) = work.pop() {
            let (x, y) = (x as usize, y as usize);
            let (rx, ry) = (uf.find(x), uf.find(y));
            if rx == ry {
                continue;
            }
            if (on_join && doomed.contains(x, y))
                || (check && (rx, ry) != (x, y) && doomed.contains(rx, ry))
            {
                return false;
            }
            uf.union(rx, ry);
            for (&sx, &sy) in table[x * s..(x + 1) * s]
                .iter()
                .zip(&table[y * s..(y + 1) * s])
            {
                if sx != sy {
                    if on_queue && doomed.contains(sx as usize, sy as usize) {
                        return false;
                    }
                    work.push((sx, sy));
                }
            }
        }
        true
    }

    /// Numbers the union-find's classes over the `k` blocks by first
    /// appearance into `relabel` (block → class) and returns their count.
    fn number_classes(&mut self, k: usize) -> usize {
        self.root_label.clear();
        self.root_label.resize(k, u32::MAX);
        self.relabel.clear();
        let mut next = 0u32;
        for b in 0..k {
            let r = self.uf.find(b);
            if self.root_label[r] == u32::MAX {
                self.root_label[r] = next;
                next += 1;
            }
            self.relabel.push(self.root_label[r]);
        }
        next as usize
    }
}

impl CloseScratch {
    /// A fresh scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reusable closure engine over one machine's transition function.
///
/// Construction copies the transition table into one flat `u32` array
/// (`succ[e · n + x]` is the successor of state `x` on event `e`); every
/// subsequent [`ClosureKernel::close`] / [`ClosureKernel::close_merged`]
/// call is then a union-find fixpoint over flat arrays, with no per-call
/// hash or tree maps; threading a [`CloseScratch`] through
/// [`ClosureKernel::close_merged_into`] makes repeated closures
/// allocation-free as well.  Lattice walks ([`crate::lattice`]) and
/// Algorithm 2's inner loop ([`crate::generate_fusion`]) build the kernel
/// once and close every candidate block merge on the quotient of the
/// closed partition they stand on ([`ClosureKernel::quotient_level`]).
#[derive(Debug, Clone)]
pub struct ClosureKernel {
    n: usize,
    k: usize,
    /// `succ[e * n + x]` = index of the successor of state `x` on event `e`.
    succ: Vec<u32>,
}

impl ClosureKernel {
    /// Builds the kernel for `machine`, caching its transition table.
    pub fn new(machine: &Dfsm) -> Self {
        let n = machine.size();
        let k = machine.alphabet().len();
        let mut succ = Vec::with_capacity(n * k);
        for e in 0..k {
            for x in 0..n {
                succ.push(machine.next(StateId(x), EventId(e)).index() as u32);
            }
        }
        ClosureKernel { n, k, succ }
    }

    /// Number of states of the underlying machine.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of events of the underlying machine.
    pub fn num_events(&self) -> usize {
        self.k
    }

    /// Whether `other` was built over a machine with the identical flat
    /// transition table (same state count, event count and successors).
    ///
    /// Two machines with equal tables have identical closure behavior.
    pub fn same_transitions(&self, other: &ClosureKernel) -> bool {
        self.n == other.n && self.k == other.k && self.succ == other.succ
    }

    /// Whether this kernel was built over a machine with `machine`'s exact
    /// transition table — [`ClosureKernel::same_transitions`] streamed
    /// against the machine itself, with no table allocation.
    ///
    /// This is the test [`crate::FusionSession`] runs on **every** call to
    /// decide whether its kernel is still valid, so it must be cheaper than
    /// building a kernel: it early-exits on the first differing successor.
    pub fn matches_machine(&self, machine: &Dfsm) -> bool {
        if self.n != machine.size() || self.k != machine.alphabet().len() {
            return false;
        }
        let mut succ = self.succ.iter();
        for e in 0..self.k {
            for x in 0..self.n {
                if *succ.next().expect("succ has n*k entries")
                    != machine.next(StateId(x), EventId(e)).index() as u32
                {
                    return false;
                }
            }
        }
        true
    }

    /// The finest closed partition coarser than or equal to `partition`
    /// (see [`close`]).
    pub fn close(&self, partition: &Partition) -> Result<Partition> {
        // Equal block indices make close_merged's extra merge a no-op.
        self.close_merged(partition, 0, 0)
    }

    /// The finest closed partition coarser than or equal to `partition`
    /// with blocks `b1` and `b2` merged — Algorithm 2's candidate step,
    /// without materializing the intermediate merged partition.
    ///
    /// One-shot form of [`ClosureKernel::close_merged_into`]; loops that
    /// score many candidates should thread a [`CloseScratch`] and a reusable
    /// output `Partition` through the `_into` variant instead.
    pub fn close_merged(&self, partition: &Partition, b1: usize, b2: usize) -> Result<Partition> {
        let mut scratch = CloseScratch::new();
        let mut out = Partition::singletons(0);
        self.close_merged_into(&mut scratch, partition, b1, b2, &mut out)?;
        Ok(out)
    }

    /// Scratch-reusing form of [`ClosureKernel::close_merged`]: computes the
    /// finest closed partition coarser than or equal to `partition` with
    /// blocks `b1` and `b2` merged, writing the result into `out` (whose
    /// buffer is reused) and taking every working buffer from `scratch`.
    ///
    /// After the first call at this kernel's machine size the call performs
    /// **no heap allocation** (`tests/alloc_free.rs` pins the property with
    /// a counting allocator); it is the `n`-state closure the quotient
    /// scorer is tested against.
    /// `out`'s previous contents are overwritten; equal `b1`/`b2` make the
    /// extra merge a no-op, so the call then computes the plain closure.
    pub fn close_merged_into(
        &self,
        scratch: &mut CloseScratch,
        partition: &Partition,
        b1: usize,
        b2: usize,
        out: &mut Partition,
    ) -> Result<()> {
        if partition.len() != self.n {
            return Err(FusionError::PartitionSizeMismatch {
                expected: self.n,
                actual: partition.len(),
            });
        }
        let uf = &mut scratch.uf;
        uf.reset(self.n);
        let first_of_block = &mut scratch.first_of_block;
        first_of_block.clear();
        first_of_block.resize(partition.num_blocks(), usize::MAX);
        for x in 0..self.n {
            let b = partition.block_of(x);
            if first_of_block[b] == usize::MAX {
                first_of_block[b] = x;
            } else {
                uf.union(x, first_of_block[b]);
            }
        }
        if b1 != b2 && first_of_block[b1] != usize::MAX && first_of_block[b2] != usize::MAX {
            uf.union(first_of_block[b1], first_of_block[b2]);
        }
        self.close_seeded_into(scratch, out);
        Ok(())
    }

    /// Runs the substitution-property fixpoint on the pre-seeded union-find
    /// in `scratch`: whenever two states share a class, their successors per
    /// event must share a class too.  The per-event class→successor-class
    /// map is a flat sentinel table reset between events.  The canonical
    /// result is written into `out`'s reused buffer.
    fn close_seeded_into(&self, scratch: &mut CloseScratch, out: &mut Partition) {
        let n = self.n;
        let uf = &mut scratch.uf;
        let succ_of_class = &mut scratch.succ_of_class;
        succ_of_class.clear();
        succ_of_class.resize(n, usize::MAX);
        let mut changed = true;
        while changed {
            changed = false;
            for e in 0..self.k {
                let succ = &self.succ[e * n..(e + 1) * n];
                for entry in succ_of_class.iter_mut() {
                    *entry = usize::MAX;
                }
                for (x, &sx) in succ.iter().enumerate() {
                    let cls = uf.find(x);
                    let s = uf.find(sx as usize);
                    let existing = succ_of_class[cls];
                    if existing == usize::MAX {
                        succ_of_class[cls] = s;
                    } else if existing != s && uf.union(existing, s) {
                        // The stored representative may have been merged
                        // earlier in this pass; only a real merge counts as
                        // a change so the fixpoint loop terminates.
                        changed = true;
                    }
                }
            }
        }
        let label_of_root = &mut scratch.label_of_root;
        out.refresh_canonical_with(|buf| uf.canonical_assignment_into(label_of_root, buf));
    }

    /// Prepares the closed partition `current` for scoring its pairwise
    /// block merges on the quotient `⊤/current` (see [`QuotientLevel`]).
    ///
    /// Builds the quotient transition table in one `O(n·|Σ|)` pass that
    /// also checks `current` is closed, and the deduplicated block pairs of
    /// the `forbidden` edges (pairs of states of `⊤`) in `O(|forbidden|)`.
    /// `current` is the level's base partition: lifts write partitions of
    /// its elements.  Returns [`FusionError::PartitionSizeMismatch`] for a
    /// partition of the wrong size and [`FusionError::NotClosed`] for one
    /// that is not closed.  The kernel keeps no alphabet, so that error
    /// names the event by its index, `e{index}`; [`check_closed`] gives its
    /// name.
    pub fn quotient_level<'a>(
        &self,
        scratch: &'a mut CloseScratch,
        current: &'a Partition,
        forbidden: &[(usize, usize)],
    ) -> Result<QuotientLevel<'a>> {
        self.level_over(scratch, current, forbidden.iter().copied())
    }

    /// [`ClosureKernel::quotient_level`] over any list of forbidden edges,
    /// so the descent can read the fault graph's `u32` pairs in place.
    pub(crate) fn level_over<'a>(
        &self,
        scratch: &'a mut CloseScratch,
        current: &'a Partition,
        forbidden: impl Iterator<Item = (usize, usize)>,
    ) -> Result<QuotientLevel<'a>> {
        if current.len() != self.n {
            return Err(FusionError::PartitionSizeMismatch {
                expected: self.n,
                actual: current.len(),
            });
        }
        let k = current.num_blocks();
        let buf = &mut scratch.quotient;
        if let Err((block, e)) = self.fill_quotient_table(current, &mut buf.table) {
            return Err(FusionError::NotClosed {
                block,
                event: format!("e{e}"),
            });
        }
        buf.forbidden.clear();
        let mut joined = false;
        for (i, j) in forbidden {
            let (a, b) = (current.block_of(i), current.block_of(j));
            if a == b {
                joined = true;
            } else {
                buf.forbidden.push((a as u32, b as u32));
            }
        }
        buf.doomed.fill(k, &mut buf.forbidden);
        buf.failed.clear();
        buf.of_base.clear();
        buf.of_base.extend(0..k as u32);
        buf.uf.reset(k);
        // A closure makes at most k - 1 unions and pushes |Σ| pairs per
        // union: reserving that once keeps every merge of this level and
        // of the levels below it allocation-free.
        buf.work.clear();
        buf.work.reserve(1 + self.k * k);
        Ok(QuotientLevel {
            base: current,
            k,
            events: self.k,
            joined,
            completed: false,
            classes: k,
            buf,
        })
    }

    /// Fills `table[b · |Σ| + e]` with the block event `e` maps block `b`
    /// of the `n`-state `partition` into, for its `k` blocks.  Fails with
    /// the first `(block, event)` whose image spans two blocks —
    /// `partition` is then not closed.
    fn fill_quotient_table(
        &self,
        partition: &Partition,
        table: &mut Vec<u32>,
    ) -> std::result::Result<(), (usize, usize)> {
        let (k, s) = (partition.num_blocks(), self.k);
        table.clear();
        table.resize(s * k, u32::MAX);
        for e in 0..s {
            let succ = &self.succ[e * self.n..(e + 1) * self.n];
            for (x, &sx) in succ.iter().enumerate() {
                let b = partition.block_of(x);
                let sb = partition.block_of(sx as usize) as u32;
                let cell = &mut table[b * s + e];
                if *cell == u32::MAX {
                    *cell = sb;
                } else if *cell != sb {
                    return Err((b, e));
                }
            }
        }
        Ok(())
    }

    /// Whether `partition` is closed under the cached transition function.
    pub fn is_closed(&self, partition: &Partition) -> bool {
        partition.len() == self.n && self.fill_quotient_table(partition, &mut Vec::new()).is_ok()
    }
}

/// Checks whether `partition` is closed with respect to `machine`'s
/// transition function: for every event, the image of each block lies inside
/// a single block.
pub fn is_closed(machine: &Dfsm, partition: &Partition) -> bool {
    check_closed(machine, partition).is_ok()
}

/// Like [`is_closed`] but reports the offending block and event.
pub fn check_closed(machine: &Dfsm, partition: &Partition) -> Result<()> {
    check_partition_size(machine, partition)?;
    let k = machine.alphabet().len();
    for e in 0..k {
        // For each block, all successors must share a block.
        let mut image_block: Vec<Option<usize>> = vec![None; partition.num_blocks()];
        for x in 0..machine.size() {
            let b = partition.block_of(x);
            let succ = machine.next(StateId(x), EventId(e)).index();
            let sb = partition.block_of(succ);
            match image_block[b] {
                None => image_block[b] = Some(sb),
                Some(existing) if existing == sb => {}
                Some(_) => {
                    return Err(FusionError::NotClosed {
                        block: b,
                        event: machine
                            .alphabet()
                            .event(EventId(e))
                            .map(|ev| ev.name().to_string())
                            .unwrap_or_else(|| format!("e{e}")),
                    })
                }
            }
        }
    }
    Ok(())
}

/// Computes the finest *closed* partition that is coarser than or equal to
/// `partition` — i.e. the largest machine (in the paper's order the
/// *maximum* closed partition `≤` the given one) obtained by merging blocks
/// until the substitution property holds.
///
/// Lower covers are computed from this step: merge two blocks of a closed
/// partition and re-close the result (on the quotient, see
/// [`QuotientLevel`]).
///
/// One-shot form of [`ClosureKernel::close`]; callers that close many
/// partitions against the same machine should build a [`ClosureKernel`]
/// once instead.  `tests/scan_properties.rs` pins it to a `HashMap`-based
/// fixpoint kept in the test-only scan oracle.
pub fn close(machine: &Dfsm, partition: &Partition) -> Result<Partition> {
    let closed = ClosureKernel::new(machine).close(partition)?;
    debug_assert!(is_closed(machine, &closed));
    debug_assert!(closed.le(partition));
    Ok(closed)
}

/// Materializes the quotient DFSM corresponding to a closed partition of
/// `top`.  Block `b` of the partition becomes state `b` of the quotient; the
/// quotient's alphabet is the same as `top`'s; the initial state is the
/// block containing `top`'s initial state.
pub fn quotient_machine(top: &Dfsm, partition: &Partition, name: &str) -> Result<Dfsm> {
    check_closed(top, partition)?;
    let blocks = partition.block_groups();
    let states: Vec<StateInfo> = blocks
        .iter()
        .map(|b| match b {
            [x] => StateInfo::named(top.state_name(StateId(*x))),
            _ => StateInfo::braced(b.iter().map(|&x| top.state_name(StateId(x)))),
        })
        .collect();
    let k = top.alphabet().len();
    let transitions: Vec<Vec<StateId>> = blocks
        .iter()
        .map(|b| {
            let rep = b[0];
            (0..k)
                .map(|e| StateId(partition.block_of(top.next(StateId(rep), EventId(e)).index())))
                .collect()
        })
        .collect();
    let initial = StateId(partition.block_of(top.initial().index()));
    let m = Dfsm::from_parts(
        name.to_string(),
        states,
        top.alphabet().clone(),
        transitions,
        initial,
    )?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dfsm::DfsmBuilder;

    /// The 4-state machine used as `⊤` in the paper's Figures 2–5 (our
    /// reconstruction): events 0 and 1 over states t0..t3.
    fn top4() -> Dfsm {
        let mut b = DfsmBuilder::new("top");
        b.add_states(["t0", "t1", "t2", "t3"]);
        b.set_initial("t0");
        // event 0: t0→t1, t1→t2, t2→t1, t3→t1
        b.add_transition("t0", "0", "t1");
        b.add_transition("t1", "0", "t2");
        b.add_transition("t2", "0", "t1");
        b.add_transition("t3", "0", "t1");
        // event 1: t0→t3, t1→t2, t2→t0, t3→t0
        b.add_transition("t0", "1", "t3");
        b.add_transition("t1", "1", "t2");
        b.add_transition("t2", "1", "t0");
        b.add_transition("t3", "1", "t0");
        b.build().unwrap()
    }

    #[test]
    fn singleton_and_single_block_partitions_are_closed() {
        let t = top4();
        assert!(is_closed(&t, &Partition::singletons(4)));
        assert!(is_closed(&t, &Partition::single_block(4)));
    }

    #[test]
    fn machine_a_partition_is_closed() {
        // A = {t0,t3 | t1 | t2} (paper Fig. 3 / Fig. 5).
        let t = top4();
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        assert!(is_closed(&t, &a));
    }

    #[test]
    fn non_closed_partition_is_detected() {
        // {t0,t1 | t2 | t3}: on event 0, block {t0,t1} maps to {t1,t2} which
        // spans two blocks.
        let t = top4();
        let p = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        assert!(!is_closed(&t, &p));
        let err = check_closed(&t, &p).unwrap_err();
        assert!(matches!(err, FusionError::NotClosed { .. }));
    }

    #[test]
    fn close_returns_finest_closed_coarsening() {
        let t = top4();
        // Start from merging t0 and t1; closure must also merge whatever is
        // forced, and the result must be closed and ≤ the input.
        let p = Partition::singletons(4).merge_elements(0, 1);
        let c = close(&t, &p).unwrap();
        assert!(is_closed(&t, &c));
        assert!(c.le(&p));
        assert!(c.same_block(0, 1));
        // Closing an already-closed partition is the identity.
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        assert_eq!(close(&t, &a).unwrap(), a);
    }

    #[test]
    fn close_is_idempotent_and_monotone() {
        let t = top4();
        for (x, y) in [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let p = Partition::singletons(4).merge_elements(x, y);
            let c1 = close(&t, &p).unwrap();
            let c2 = close(&t, &c1).unwrap();
            assert_eq!(c1, c2, "close must be idempotent");
            assert!(c1.le(&p));
        }
    }

    #[test]
    fn closure_kernel_matches_one_shot_close() {
        let t = top4();
        let kernel = ClosureKernel::new(&t);
        assert_eq!(kernel.num_states(), 4);
        assert_eq!(kernel.num_events(), 2);
        for (x, y) in [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            let p = Partition::singletons(4).merge_elements(x, y);
            assert_eq!(kernel.close(&p).unwrap(), close(&t, &p).unwrap());
        }
        // close_merged ≡ merge_blocks + close, without the intermediate.
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        for b1 in 0..a.num_blocks() {
            for b2 in (b1 + 1)..a.num_blocks() {
                assert_eq!(
                    kernel.close_merged(&a, b1, b2).unwrap(),
                    close(&t, &a.merge_blocks(b1, b2)).unwrap()
                );
            }
        }
        // is_closed agreement, including the non-closed case.
        let bad = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        assert!(kernel.is_closed(&a));
        assert!(!kernel.is_closed(&bad));
        // Size mismatches are rejected, not asserted.
        assert!(kernel.close(&Partition::singletons(3)).is_err());
        assert!(kernel
            .close_merged(&Partition::singletons(3), 0, 1)
            .is_err());
        assert!(!kernel.is_closed(&Partition::singletons(3)));
    }

    #[test]
    fn quotient_level_matches_close_merged_and_rejects_bad_input() {
        let t = top4();
        let kernel = ClosureKernel::new(&t);
        let mut scratch = CloseScratch::new();
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        // Forbid separating t1 from t2: only merges keeping them apart
        // cover.
        let edges = [(1usize, 2usize)];
        let mut level = kernel.quotient_level(&mut scratch, &a, &edges).unwrap();
        assert_eq!(level.num_blocks(), 3);
        let mut lifted = Partition::singletons(0);
        for b1 in 0..3 {
            for b2 in (b1 + 1)..3 {
                let closed = kernel.close_merged(&a, b1, b2).unwrap();
                let outcome = level.merge(b1, b2);
                assert_eq!(outcome.covers(), closed.separates(1, 2));
                if outcome.completed() {
                    level.lift_into(&mut lifted);
                    assert_eq!(lifted, closed);
                }
            }
        }
        // {t0,t1} maps into {t1,t2} on event 0: the error names block 0
        // and the event by its index.
        let bad = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        match kernel.quotient_level(&mut scratch, &bad, &edges) {
            Err(FusionError::NotClosed { block, event }) => {
                assert_eq!((block, event.as_str()), (0, "e0"));
            }
            other => panic!("expected NotClosed, got {other:?}"),
        }
        assert!(matches!(
            kernel.quotient_level(&mut scratch, &Partition::singletons(3), &edges),
            Err(FusionError::PartitionSizeMismatch { .. })
        ));
    }

    #[test]
    fn quotient_machine_matches_partition_blocks() {
        let t = top4();
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let m = quotient_machine(&t, &a, "A").unwrap();
        assert_eq!(m.size(), 3);
        assert_eq!(m.alphabet().len(), 2);
        // A block is named after its states, a single state plainly.
        assert_eq!(m.state_name(StateId(0)), "{t0,t3}");
        assert_eq!(m.state_name(StateId(1)), "t1");
        // Simulation check: running any word on top and mapping through the
        // partition equals running the word on the quotient.
        let words: Vec<Vec<fsm_dfsm::Event>> = vec![
            vec![],
            vec!["0".into()],
            vec!["0".into(), "1".into(), "1".into()],
            vec!["1".into(), "0".into(), "0".into(), "1".into()],
        ];
        for w in words {
            let t_state = t.run(w.iter());
            let q_state = m.run(w.iter());
            assert_eq!(a.block_of(t_state.index()), q_state.index());
        }
    }

    #[test]
    fn quotient_of_non_closed_partition_fails() {
        let t = top4();
        let p = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        assert!(quotient_machine(&t, &p, "bad").is_err());
    }

    #[test]
    fn size_mismatch_is_reported() {
        let t = top4();
        let p = Partition::singletons(3);
        assert!(matches!(
            close(&t, &p),
            Err(FusionError::PartitionSizeMismatch { .. })
        ));
        assert!(matches!(
            check_closed(&t, &p),
            Err(FusionError::PartitionSizeMismatch { .. })
        ));
    }

    #[test]
    fn pair_set_answers_alike_as_bitmap_and_as_table() {
        // 50 blocks take the bitmap; 20,000 blocks (3.1M bitmap words)
        // the table.  Both must answer like a plain set, in either order
        // of a pair, leave the pairs deduplicated, and reuse across fills.
        for k in [50usize, 20_000] {
            let mut set = PairSet::default();
            set.fill(k, &mut Vec::new());
            assert!(!set.contains(1, 0), "k={k}");
            for round in 0..2u64 {
                let mut seed = round;
                let mut step = || {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (seed >> 33) as u32 % k as u32
                };
                let mut pairs: Vec<(u32, u32)> = (0..300)
                    .map(|_| (step(), step()))
                    .filter(|(a, b)| a != b)
                    .collect();
                let reference: std::collections::HashSet<(u32, u32)> =
                    pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                let given = pairs.clone();
                set.fill(k, &mut pairs);
                assert_eq!(set.is_table, k != 50, "k={k}");
                let mut kept: Vec<(u32, u32)> =
                    pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                kept.sort_unstable();
                kept.dedup();
                assert_eq!(kept.len(), pairs.len(), "k={k}: pairs left repeated");
                assert_eq!(
                    kept.into_iter().collect::<std::collections::HashSet<_>>(),
                    reference
                );
                for a in 0..50 {
                    for b in (0..50).filter(|&b| b != a) {
                        let (x, y) = (a * k / 50, b * k / 50);
                        let pair = (x.min(y) as u32, x.max(y) as u32);
                        assert_eq!(set.contains(x, y), reference.contains(&pair));
                    }
                }
                for &(a, b) in &given {
                    assert!(set.contains(b as usize, a as usize));
                }
                // Only the bitmap takes pairs after the fill.
                let (a, b) = (k - 2, k - 1);
                let absent = !set.contains(a, b);
                assert_eq!(set.remember(a, b), absent && !set.is_table);
                assert_eq!(set.contains(a, b), !absent || !set.is_table);
            }
        }
    }
}
