//! Fault graphs, distance and `dmin` (Section 3, Definitions 3–4,
//! Theorems 1–2).
//!
//! The fault graph `G(⊤, M)` of a set of machines `M` (each `≤ ⊤`) is the
//! complete weighted graph over the states of `⊤` in which the weight of
//! edge `(ti, tj)` is the number of machines in `M` whose partition places
//! `ti` and `tj` in different blocks.  The minimum edge weight `dmin`
//! determines the fault tolerance of the set:
//!
//! * `f` crash faults can be tolerated iff `dmin > f` (Theorem 1),
//! * `f` Byzantine faults can be tolerated iff `dmin > 2f` (Theorem 2).
//!
//! ## Striped incremental `dmin` maintenance
//!
//! Algorithm 2 interleaves machine additions with `dmin` /
//! weakest-edge queries, and the exhaustive search
//! ([`crate::exhaustive_minimum_fusion`]) queries `dmin` at every node of
//! its combination tree.  Rescanning all `n(n-1)/2` edges per query is the
//! dominant query cost at scale, so the graph keeps the flat
//! upper-triangular weight matrix and shards its trackers into **column
//! stripes aligned with the u64 bitset block layout** of
//! [`crate::bitset::BlockMatrix`]: stripe `s` owns the edges whose larger
//! endpoint `j` lies in bitset word `s` (`j / 64 == s`).  In the same
//! word-level pass that updates the weights the graph maintains,
//! *per stripe*:
//!
//! * a weight histogram (`hist[s][w]` = number of stripe-`s` edges of
//!   weight `w`), two in-cache array updates per incremented edge — the
//!   histogram row is resolved once per visited word, and words whose
//!   complement mask is zero (clean stripes of the candidate partition) are
//!   skipped entirely,
//! * a cached per-stripe minimum, advanced over emptied histogram slots
//!   (weights only grow); the global `dmin` is the min over the ~`n/64`
//!   stripe minima, so `dmin` stays `O(1)` per query and `O(n/64)` per add.
//!
//! The stripe minima are what make the queries sub-linear in the edge
//! count: [`FaultGraph::weakest_edges`] and [`FaultGraph::speculate`] visit
//! only the stripes whose cached minimum equals `dmin` — typically a
//! handful out of `n/64` — instead of scanning all `E` edges.  Per-weight
//! *edge buckets* (append an edge to `bucket[w]` when its weight reaches
//! `w`) would make those queries `O(|weakest|)`, but the bucket pushes cost
//! more in the add path than the queries save — Algorithm 2 adds machines
//! `E` edge increments at a time — so the histogram-stripe design wins end
//! to end.  The pre-refactor full scans are preserved as
//! [`FaultGraph::dmin_scan`] / [`FaultGraph::weakest_edges_scan`] /
//! [`FaultGraph::addition_increases_dmin_scan`] for cross-validation
//! (`tests/parallel_properties.rs`, `tests/fault_graph_repr.rs`) and for
//! the `fault_graph_incremental_*` baselines in `BENCH_fusion.json`.
//!
//! The cells are `u16`: a weight never exceeds the machine count, so a
//! graph holds at most [`DENSE_MACHINE_LIMIT`] machines and in exchange
//! halves the matrix, its first-touch page faults and every pass over it.
//! [`FaultGraph::from_partitions`] does not replay the adds: it writes each
//! weight once, row by row, and fills the stripe histograms in the same
//! pass (`fault_graph_build_n6561` in `BENCH_fusion.json`).
//!
//! ## Scale
//!
//! The matrix is `O(n²)`: 43 MB of weights at `n = 6561` and ≈ 3.5 GB at
//! `n = 59049`.  Algorithm 2 reads only `dmin`, the weakest edges and
//! [`FaultGraph::speculate`], so an index that answers those three without
//! storing every weight can replace the matrix behind the same methods.

use crate::bitset::{words_for, BitsetPartition, WORD_BITS};
use crate::partition::Partition;

/// Most machines a fault graph holds: its weights are `u16` cells.
pub const DENSE_MACHINE_LIMIT: usize = u16::MAX as usize;

/// Number of edges in the complete graph over `n` states.
fn edges_in(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
}

/// Index of edge `(i, j)`, `i < j`, in row-major upper-triangular order.
fn edge_index_in(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Edges owned by stripe `s` of an `n`-state graph: column `j`
/// contributes its `j` incident rows `i < j`.
fn stripe_edge_count(n: usize, s: usize) -> usize {
    let lo = s * WORD_BITS;
    let hi = ((s + 1) * WORD_BITS).min(n);
    (lo..hi).sum()
}

/// The smallest weight a stripe histogram counts; `u32::MAX` for an empty
/// (edge-less) stripe.
fn hist_min(sh: &[usize]) -> u32 {
    sh.iter()
        .position(|&c| c > 0)
        .map_or(u32::MAX, |w| w as u32)
}

/// Flat index of edge `(a, a + 1)` for every row `a` of an `n`-state
/// matrix — two adds per lookup instead of per-edge triangular arithmetic.
fn row_bases(n: usize) -> Vec<usize> {
    let mut bases = Vec::with_capacity(n);
    let mut acc = 0usize;
    for a in 0..n {
        bases.push(acc);
        acc += n - a - 1;
    }
    bases
}

/// Panics unless a graph of `machines` machines fits
/// [`DENSE_MACHINE_LIMIT`], instead of letting a weight wrap around.
fn assert_within_limit(machines: usize) {
    assert!(
        machines <= DENSE_MACHINE_LIMIT,
        "a fault graph holds at most {DENSE_MACHINE_LIMIT} machines, not {machines}"
    );
}

/// The fault graph `G(⊤, M)` for machines represented as closed partitions
/// of a `⊤` with `n` states: the flat upper-triangular weight matrix plus
/// its per-stripe histogram trackers (see the module docs).
///
/// Machines can be added incrementally, which is what Algorithm 2 does as
/// it grows the fusion set; the trackers are maintained alongside the
/// weights so [`FaultGraph::dmin`] is `O(1)` and
/// [`FaultGraph::weakest_edges`] / [`FaultGraph::speculate`] touch only the
/// stripes that can contain a weakest edge.
///
/// A graph holds at most [`DENSE_MACHINE_LIMIT`] machines.  Adding a
/// machine past the limit panics rather than wrapping a weight around; the
/// fusion entry points check the count first and report
/// [`crate::FusionError::TooManyMachines`] instead.
#[derive(Debug)]
pub struct FaultGraph {
    n: usize,
    /// Number of machines accumulated so far.
    machines: usize,
    /// Upper-triangular weights, indexed by [`edge_index_in`].  A weight
    /// never exceeds the machine count, which is capped at
    /// [`DENSE_MACHINE_LIMIT`], so a `u16` cell holds it.
    weights: Vec<u16>,
    /// `stripe_hist[s][w]` = number of edges `(i, j)` with `j / 64 == s`
    /// and weight exactly `w` (each row has length `machines + 1`).
    stripe_hist: Vec<Vec<usize>>,
    /// Cached per-stripe minimum weight; `u32::MAX` for edge-less stripes.
    stripe_min: Vec<u32>,
    /// Cached global minimum (min over `stripe_min`); `u32::MAX` when the
    /// graph has no edges.
    min_weight: u32,
}

/// Hand-written so that [`Clone::clone_from`] reuses the destination's
/// weight and histogram buffers: the exhaustive search
/// ([`crate::exhaustive_minimum_fusion`]) refreshes one pre-allocated graph
/// per DFS depth from its parent at every tree node, and the derive's
/// default `clone_from` would reallocate every vector each time.
impl Clone for FaultGraph {
    fn clone(&self) -> Self {
        FaultGraph {
            n: self.n,
            machines: self.machines,
            weights: self.weights.clone(),
            stripe_hist: self.stripe_hist.clone(),
            stripe_min: self.stripe_min.clone(),
            min_weight: self.min_weight,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.machines = source.machines;
        self.weights.clone_from(&source.weights);
        // Vec<Vec<_>>::clone_from reuses both the outer buffer and each
        // overlapping inner buffer.
        self.stripe_hist.clone_from(&source.stripe_hist);
        self.stripe_min.clone_from(&source.stripe_min);
        self.min_weight = source.min_weight;
    }
}

impl FaultGraph {
    /// Creates the fault graph over `n` states with no machines (all edge
    /// weights zero).
    pub fn new(n: usize) -> Self {
        let stripe_hist = (0..words_for(n))
            .map(|s| vec![stripe_edge_count(n, s)])
            .collect();
        Self::from_hists(n, 0, vec![0; edges_in(n)], stripe_hist)
    }

    /// Assembles finished weights and stripe histograms, deriving every
    /// stripe minimum and the global minimum from the histograms.
    fn from_hists(
        n: usize,
        machines: usize,
        weights: Vec<u16>,
        stripe_hist: Vec<Vec<usize>>,
    ) -> Self {
        let stripe_min: Vec<u32> = stripe_hist.iter().map(|sh| hist_min(sh)).collect();
        let min_weight = stripe_min.iter().copied().min().unwrap_or(u32::MAX);
        FaultGraph {
            n,
            machines,
            weights,
            stripe_hist,
            stripe_min,
            min_weight,
        }
    }

    /// Builds a fault graph from a set of machine partitions.
    ///
    /// One pass per row writes each weight once — the number of partitions
    /// whose block of `j` differs from the block of `i` — and counts the
    /// finished row into the stripe histograms one 64-column segment at a
    /// time.  The stripe minima are derived at the end.
    ///
    /// # Panics
    ///
    /// If a partition is not over `n` states, or if there are more than
    /// [`DENSE_MACHINE_LIMIT`] partitions.
    pub fn from_partitions(n: usize, partitions: &[Partition]) -> Self {
        for p in partitions {
            assert_eq!(p.len(), n, "partition over wrong number of states");
        }
        assert_within_limit(partitions.len());
        let m = partitions.len();
        // One contiguous column of block ids per partition, so the row
        // pass compares two flat slices.
        let mut cols: Vec<u32> = Vec::with_capacity(m * n);
        for p in partitions {
            cols.extend(
                p.assignment()
                    .iter()
                    .map(|&b| u32::try_from(b).expect("an n²-edge graph has n < 2³² states")),
            );
        }
        let mut weights = vec![0u16; edges_in(n)];
        // Each stripe counts alternate columns into two halves, so
        // back-to-back equal weights do not serialize on one counter; the
        // halves are folded at the end.
        let mut stripe_hist = vec![vec![0usize; 2 * (m + 1)]; words_for(n)];
        let mut base = 0usize;
        for i in 0..n.saturating_sub(1) {
            let row = &mut weights[base..base + (n - i - 1)];
            // Two partitions per sweep of the row halve its load/store
            // traffic; an odd partition out gets a sweep of its own.
            let mut pairs = cols.chunks_exact(2 * n);
            for pair in pairs.by_ref() {
                let (c0, c1) = pair.split_at(n);
                let (a0, a1) = (c0[i], c1[i]);
                for ((w, &b0), &b1) in row.iter_mut().zip(&c0[i + 1..]).zip(&c1[i + 1..]) {
                    *w += u16::from(b0 != a0) + u16::from(b1 != a1);
                }
            }
            for col in pairs.remainder().chunks_exact(n) {
                let own = col[i];
                for (w, &b) in row.iter_mut().zip(&col[i + 1..]) {
                    *w += u16::from(b != own);
                }
            }
            let mut j = i + 1;
            while j < n {
                let s = j / WORD_BITS;
                let seg_end = ((s + 1) * WORD_BITS).min(n);
                let (even, odd) = stripe_hist[s].split_at_mut(m + 1);
                let mut pairs = row[j - i - 1..seg_end - i - 1].chunks_exact(2);
                for pair in pairs.by_ref() {
                    even[usize::from(pair[0])] += 1;
                    odd[usize::from(pair[1])] += 1;
                }
                for &w in pairs.remainder() {
                    even[usize::from(w)] += 1;
                }
                j = seg_end;
            }
            base += n - i - 1;
        }
        for sh in &mut stripe_hist {
            let (even, odd) = sh.split_at_mut(m + 1);
            for (e, o) in even.iter_mut().zip(odd.iter()) {
                *e += o;
            }
            sh.truncate(m + 1);
        }
        Self::from_hists(n, m, weights, stripe_hist)
    }

    /// Number of `⊤` states (nodes).
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of edges in the complete graph.
    pub fn num_edges(&self) -> usize {
        self.weights.len()
    }

    /// Number of machines accumulated.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Adds a machine: every pair of states the partition separates gains
    /// one unit of weight.
    ///
    /// Converts the partition to its bitset-block form and updates weights
    /// word-at-a-time; see [`FaultGraph::add_machine_bitset`].  The original
    /// per-pair element scan is preserved as
    /// [`FaultGraph::add_machine_scan`].
    pub fn add_machine(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        self.add_machine_bitset(&BitsetPartition::from_partition(p));
    }

    /// Adds a machine given as a pre-converted [`BitsetPartition`] — the
    /// fast path for scoring loops that add the same candidate partitions to
    /// many graph clones (e.g. [`crate::exhaustive_minimum_fusion`]).
    ///
    /// For every state `i` the set of states `j > i` that the machine
    /// separates from `i` is the *complement* of `i`'s block row, so the
    /// update walks `!row` word-at-a-time and bumps exactly the edges whose
    /// weight grows.  The stripe histograms are updated inline (the
    /// histogram row is resolved once per visited word, and words with a
    /// zero mask — clean stripes — are skipped); the stripe minima are
    /// advanced afterwards.
    pub fn add_machine_bitset(&mut self, p: &BitsetPartition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert_within_limit(self.machines + 1);
        let n = self.n;
        let words = words_for(n);
        // One more machine: weights may now reach `machines + 1`.
        for sh in &mut self.stripe_hist {
            sh.push(0);
        }
        let FaultGraph {
            weights,
            stripe_hist,
            ..
        } = self;
        let mut base = 0usize;
        for i in 0..n.saturating_sub(1) {
            let row = p.block_row(p.block_of(i));
            let start = i + 1;
            for (w, &word) in row.iter().enumerate().skip(start / WORD_BITS) {
                let mut mask = !word;
                if w == start / WORD_BITS {
                    mask &= !0u64 << (start % WORD_BITS);
                }
                if w == words - 1 && n % WORD_BITS != 0 {
                    mask &= (1u64 << (n % WORD_BITS)) - 1;
                }
                if mask == 0 {
                    // Clean stripe for this row: no weight in word `w`
                    // moves, so its histogram is untouched.
                    continue;
                }
                let sh = &mut stripe_hist[w];
                while mask != 0 {
                    let j = w * WORD_BITS + mask.trailing_zeros() as usize;
                    let idx = base + (j - start);
                    let old = weights[idx];
                    weights[idx] = old + 1;
                    sh[usize::from(old)] -= 1;
                    sh[usize::from(old) + 1] += 1;
                    mask &= mask - 1;
                }
            }
            base += n - i - 1;
        }
        self.machines += 1;
        self.advance_mins();
    }

    /// The pre-refactor element scan: every `(i, j)` pair tested with
    /// [`Partition::separates`].  Kept for cross-validation (property tests)
    /// and as the `fault_graph_build_scan` baseline in `BENCH_fusion.json`;
    /// use [`FaultGraph::add_machine`] everywhere else.  Faithful to its
    /// pre-refactor behavior, it leaves the trackers to a full rebuild pass
    /// instead of maintaining them inline.
    pub fn add_machine_scan(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert_within_limit(self.machines + 1);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if p.separates(i, j) {
                    self.weights[edge_index_in(self.n, i, j)] += 1;
                }
            }
        }
        self.machines += 1;
        self.rebuild_trackers();
    }

    /// Pulls the graph back along a state mapping onto a new state space
    /// and adds one machine `p` that lives on the *new* space, in one pass
    /// over the new edge set.
    ///
    /// `mapping[i]` names the state of *this* graph that new state `i`
    /// projects onto, so the result is the fault graph of the same
    /// machines lifted through the mapping plus `p`:
    /// `w'(i, j) = w(mapping[i], mapping[j]) + [p separates i and j]`, where
    /// the lifted part is zero when both endpoints collapse onto the same
    /// old state (no machine separates a state from itself).  A surjective
    /// mapping lifts a product extension, which is how a warm `AddMachine`
    /// reuses the old graph.  The separation bit comes from one bitset word
    /// per 64 columns, so adding `p` costs a shift and a mask on top of the
    /// copy.
    ///
    /// Returns the grown graph and the number of new-space stripes in which
    /// `p` separates some pair.
    pub fn remap_states_adding(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        assert_eq!(
            p.len(),
            mapping.len(),
            "partition over wrong number of states"
        );
        assert_within_limit(self.machines + 1);
        let p = BitsetPartition::from_partition(p);
        let n_new = mapping.len();
        let row_base = row_bases(self.n);
        let stripes = words_for(n_new);
        let mut weights = vec![0u16; edges_in(n_new)];
        let mut stripe_hist = vec![vec![0usize; self.machines + 2]; stripes];
        let mut stripe_touched = vec![false; stripes];
        let mut idx = 0usize;
        for (i, &mi) in mapping.iter().enumerate() {
            let a = mi as usize;
            let row = p.block_row(p.block_of(i));
            let mut j = i + 1;
            while j < n_new {
                let s = j / WORD_BITS;
                let seg_end = ((s + 1) * WORD_BITS).min(n_new);
                let sh = &mut stripe_hist[s];
                // Bit `j - s·64` set means `j` shares `i`'s block (not
                // separated); invert once for the whole segment.
                let sep_word = !row[s];
                let mut seg_sep = false;
                for (&mj, bit) in mapping[j..seg_end].iter().zip(j - s * WORD_BITS..) {
                    let sep = (sep_word >> bit) & 1;
                    seg_sep |= sep != 0;
                    let w = self.pulled_weight(&row_base, a, mj as usize) + sep as u16;
                    weights[idx] = w;
                    sh[usize::from(w)] += 1;
                    idx += 1;
                }
                stripe_touched[s] |= seg_sep;
                j = seg_end;
            }
        }
        (
            Self::from_hists(n_new, self.machines + 1, weights, stripe_hist),
            stripe_touched.iter().filter(|&&t| t).count(),
        )
    }

    /// Removes one machine `p` that lives on *this* graph's state space and
    /// pulls the rest back along an injective state mapping, in one pass
    /// over the new (smaller) edge set — the full old edge set is never
    /// walked.
    ///
    /// `w'(i, j) = w(mapping[i], mapping[j]) − [p separates mapping[i] and
    /// mapping[j]]`.  An injective mapping contracts fibers after a machine
    /// is removed: it picks one preimage representative per new state, and
    /// since the surviving machines cannot distinguish preimages, any
    /// choice yields the same graph.
    ///
    /// Returns the contracted graph and the number of new-space stripes
    /// whose weights lost a unit.
    pub fn remap_states_removing(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert!(self.machines > 0, "no machines to remove");
        let p = BitsetPartition::from_partition(p);
        let n_new = mapping.len();
        let row_base = row_bases(self.n);
        let stripes = words_for(n_new);
        let mut weights = vec![0u16; edges_in(n_new)];
        let mut stripe_hist = vec![vec![0usize; self.machines]; stripes];
        let mut stripe_touched = vec![false; stripes];
        let mut idx = 0usize;
        for (i, &mi) in mapping.iter().enumerate() {
            let a = mi as usize;
            let row = p.block_row(p.block_of(a));
            let mut j = i + 1;
            while j < n_new {
                let s = j / WORD_BITS;
                let seg_end = ((s + 1) * WORD_BITS).min(n_new);
                let sh = &mut stripe_hist[s];
                let mut seg_sep = false;
                for &mj in &mapping[j..seg_end] {
                    let b = mj as usize;
                    let w = self.pulled_weight(&row_base, a, b);
                    // Separated by the removed machine: bit `b` clear in
                    // the block row of `a` (never for `a == b`).
                    let sep = !(row[b / WORD_BITS] >> (b % WORD_BITS)) & 1;
                    seg_sep |= sep != 0;
                    debug_assert!(u64::from(w) >= sep, "removing a machine never added");
                    let w = w - sep as u16;
                    weights[idx] = w;
                    sh[usize::from(w)] += 1;
                    idx += 1;
                }
                stripe_touched[s] |= seg_sep;
                j = seg_end;
            }
        }
        (
            Self::from_hists(n_new, self.machines - 1, weights, stripe_hist),
            stripe_touched.iter().filter(|&&t| t).count(),
        )
    }

    /// `w(a, b)` read through a [`row_bases`] table of this graph; zero
    /// for `a == b` (no machine separates a state from itself).
    fn pulled_weight(&self, row_base: &[usize], a: usize, b: usize) -> u16 {
        if a == b {
            return 0;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.weights[row_base[lo] + (hi - lo - 1)]
    }

    /// The distance `d(ti, tj)` between two states (Definition 4).
    ///
    /// # Panics
    ///
    /// If `i` or `j` is not a state of the graph.
    pub fn weight(&self, i: usize, j: usize) -> u32 {
        assert!(
            i < self.n && j < self.n,
            "state out of range for a {}-state fault graph",
            self.n
        );
        if i == j {
            return u32::MAX;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        u32::from(self.weights[edge_index_in(self.n, a, b)])
    }

    /// The minimum edge weight `dmin`, from the incrementally maintained
    /// trackers — `O(1)`.  For a single-state `⊤` there are no edges and no
    /// pair of states to confuse, so every fault count is tolerated; we
    /// represent that as `u32::MAX`.
    pub fn dmin(&self) -> u32 {
        self.min_weight
    }

    /// The pre-refactor `dmin`: a full scan over every stored weight.  Kept
    /// for cross-validation and as the `fault_graph_incremental_dmin_scan`
    /// baseline; use [`FaultGraph::dmin`] everywhere else.
    pub fn dmin_scan(&self) -> u32 {
        self.weights
            .iter()
            .copied()
            .min()
            .map_or(u32::MAX, u32::from)
    }

    /// All edges whose weight equals `dmin` — the "weakest edges" Algorithm 2
    /// must cover with every machine it adds.  One filtered pass confined
    /// to the stripes whose cached minimum equals `dmin`; the result is in
    /// row-major order, matching the scan.
    pub fn weakest_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        // No edges (`min_weight == u32::MAX`): nothing is weakest.
        if let Ok(w) = u16::try_from(self.min_weight) {
            self.visit_edges_at(w, &self.stripes_at(self.min_weight), |i, j| {
                out.push((i, j));
                true
            });
        }
        out
    }

    /// The pre-refactor weakest-edge computation: one full scan for `dmin`
    /// and a second for the edges at that weight.  Kept for cross-validation
    /// and as the `fault_graph_incremental_weakest_scan` baseline; use
    /// [`FaultGraph::weakest_edges`] everywhere else.
    pub fn weakest_edges_scan(&self) -> Vec<(usize, usize)> {
        let d = self.dmin_scan();
        if d == u32::MAX {
            return Vec::new();
        }
        self.edges_with_weight(d)
    }

    /// All edges with exactly the given weight.
    pub fn edges_with_weight(&self, w: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if u32::from(self.weights[idx]) == w {
                    out.push((i, j));
                }
                idx += 1;
            }
        }
        out
    }

    /// Theorem 1: the machine set tolerates `f` crash faults iff
    /// `dmin > f`.
    pub fn tolerates_crash_faults(&self, f: usize) -> bool {
        (self.dmin() as u128) > f as u128
    }

    /// Theorem 2: the machine set tolerates `f` Byzantine faults iff
    /// `dmin > 2f`.
    pub fn tolerates_byzantine_faults(&self, f: usize) -> bool {
        (self.dmin() as u128) > 2 * f as u128
    }

    /// Observation 1: the maximum number of crash faults tolerated,
    /// `dmin − 1`.
    pub fn max_crash_faults(&self) -> usize {
        let d = self.dmin();
        if d == u32::MAX {
            usize::MAX
        } else {
            (d as usize).saturating_sub(1)
        }
    }

    /// Observation 1: the maximum number of Byzantine faults tolerated,
    /// `(dmin − 1) / 2`.
    pub fn max_byzantine_faults(&self) -> usize {
        let d = self.dmin();
        if d == u32::MAX {
            usize::MAX
        } else {
            (d as usize).saturating_sub(1) / 2
        }
    }

    /// Whether a candidate machine separates every one of the given edges.
    /// Adding such a machine increases the weight of each of these edges by
    /// one; when the edges are the weakest edges, this is exactly the
    /// condition under which adding the machine increases `dmin`
    /// (the test on line 6 of Algorithm 2).
    pub fn covers_all(candidate: &Partition, edges: &[(usize, usize)]) -> bool {
        edges.iter().all(|&(i, j)| candidate.separates(i, j))
    }

    /// Would adding `candidate` increase `dmin`?
    ///
    /// Answered from the incremental trackers without materializing a graph
    /// copy: `dmin` grows iff the candidate separates every current weakest
    /// edge (weights move by at most one per added machine), so the check
    /// is one early-exiting pass over the stripes that can hold a weakest
    /// edge, instead of the clone + word-level add + full rescan of
    /// [`FaultGraph::addition_increases_dmin_scan`].
    pub fn speculate(&self, candidate: &Partition) -> bool {
        assert_eq!(
            candidate.len(),
            self.n,
            "partition over wrong number of states"
        );
        self.speculate_with(|i, j| candidate.separates(i, j))
    }

    /// [`FaultGraph::speculate`] for a pre-converted [`BitsetPartition`]
    /// candidate.
    pub fn speculate_bitset(&self, candidate: &BitsetPartition) -> bool {
        assert_eq!(
            candidate.len(),
            self.n,
            "partition over wrong number of states"
        );
        self.speculate_with(|i, j| candidate.separates(i, j))
    }

    /// Single early-exiting pass over the min-weight edges, confined to the
    /// stripes whose minimum equals the global minimum.
    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        // No edges (`min_weight == u32::MAX`): `dmin` is already maximal.
        let Ok(d) = u16::try_from(self.min_weight) else {
            return false;
        };
        self.visit_edges_at(d, &self.stripes_at(self.min_weight), separates)
    }

    /// The pre-refactor direct check: clone the graph, add the machine,
    /// compare `dmin`.  Kept for cross-validation and as the
    /// `fault_graph_incremental_speculate_scan` baseline; use
    /// [`FaultGraph::speculate`] everywhere else.
    pub fn addition_increases_dmin_scan(&self, candidate: &Partition) -> bool {
        let mut g = self.clone();
        g.add_machine(candidate);
        g.dmin_scan() > self.dmin_scan()
    }

    /// A histogram of edge weights, useful for reports and for reproducing
    /// the paper's Figure 4 numbers.  Read from the incrementally
    /// maintained trackers (`O(stripes · machines)`), not a rescan of the
    /// weights.
    pub fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut out = std::collections::BTreeMap::new();
        for sh in &self.stripe_hist {
            for (w, &count) in sh.iter().enumerate() {
                if count > 0 {
                    *out.entry(w as u32).or_insert(0) += count;
                }
            }
        }
        out
    }

    /// Rebuilds every stripe histogram and cached minimum from the raw
    /// weights in one `O(E + stripes·machines)` pass.
    fn rebuild_trackers(&mut self) {
        for sh in &mut self.stripe_hist {
            sh.clear();
            sh.resize(self.machines + 1, 0);
        }
        let n = self.n;
        let mut idx = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                self.stripe_hist[j / WORD_BITS][usize::from(self.weights[idx])] += 1;
                idx += 1;
            }
        }
        for (m, sh) in self.stripe_min.iter_mut().zip(&self.stripe_hist) {
            *m = hist_min(sh);
        }
        self.min_weight = self.stripe_min.iter().copied().min().unwrap_or(u32::MAX);
    }

    /// Advances every stripe minimum past emptied histogram slots (weights
    /// only grow) and refreshes the global minimum.  Untouched stripes cost
    /// one histogram probe each, so the pass is `O(n / 64)` plus the actual
    /// advances.
    fn advance_mins(&mut self) {
        let mut global = u32::MAX;
        for (sh, m) in self.stripe_hist.iter().zip(self.stripe_min.iter_mut()) {
            if *m != u32::MAX {
                let mut d = *m as usize;
                while sh[d] == 0 {
                    d += 1;
                }
                *m = d as u32;
            }
            global = global.min(*m);
        }
        self.min_weight = global;
    }

    /// The stripes whose cached minimum equals `w`, ascending.
    fn stripes_at(&self, w: u32) -> Vec<usize> {
        self.stripe_min
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == w)
            .map(|(s, _)| s)
            .collect()
    }

    /// Calls `visit(i, j)` on every edge of weight `w` in the given
    /// (ascending) stripes, in row-major order, and stops at the first
    /// `false` it returns; returns whether the walk ran to the end.  Each
    /// row segment is first tested for a `w` without branching, so the
    /// segments holding none (most of them) cost one vectorized pass.
    fn visit_edges_at(
        &self,
        w: u16,
        stripes: &[usize],
        mut visit: impl FnMut(usize, usize) -> bool,
    ) -> bool {
        let n = self.n;
        for i in 0..n {
            // `row[j - i - 1]` is the weight of edge (i, j).
            let base = i * n - i * (i + 1) / 2;
            let row = &self.weights[base..base + (n - i - 1)];
            for &s in stripes {
                let lo = (s * WORD_BITS).max(i + 1);
                let hi = ((s + 1) * WORD_BITS).min(n);
                if lo >= hi {
                    continue;
                }
                let seg = &row[lo - i - 1..hi - i - 1];
                if !seg.iter().fold(false, |hit, &x| hit | (x == w)) {
                    continue;
                }
                for (j, &x) in (lo..).zip(seg) {
                    if x == w && !visit(i, j) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Partitions for the paper's Fig. 3 machines over ⊤ = {t0,t1,t2,t3}.
    fn fig3_partitions() -> (Partition, Partition, Partition, Partition) {
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        let m2 = Partition::from_blocks(4, &[vec![0], vec![1, 2], vec![3]]).unwrap();
        (a, b, m1, m2)
    }

    #[test]
    fn fault_graph_of_single_machine_matches_fig4_i() {
        // G({A}): edge (t0,t3) has weight 0, every other edge weight 1.
        let (a, _, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a]);
        assert_eq!(g.weight(0, 3), 0);
        assert_eq!(g.weight(0, 1), 1);
        assert_eq!(g.weight(1, 2), 1);
        assert_eq!(g.weight(2, 3), 1);
        assert_eq!(g.dmin(), 0);
        assert_eq!(g.max_crash_faults(), 0);
        assert_eq!(g.num_machines(), 1);
    }

    #[test]
    fn fault_graph_of_a_and_b_has_dmin_one() {
        // Fig. 4(ii): dmin({A,B}) = 1, so {A,B} cannot tolerate any fault.
        let (a, b, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b]);
        assert_eq!(g.dmin(), 1);
        assert!(!g.tolerates_crash_faults(1));
        assert!(g.tolerates_crash_faults(0));
        assert_eq!(g.weight(0, 1), 2);
        // The weakest edges include (t0,t3) (A cannot tell them apart) and
        // (t2,t3) (B cannot tell them apart).
        let weak = g.weakest_edges();
        assert!(weak.contains(&(0, 3)));
        assert!(weak.contains(&(2, 3)));
    }

    #[test]
    fn adding_machines_increases_weights_monotonically() {
        let (a, b, m1, m2) = fig3_partitions();
        let mut g = FaultGraph::from_partitions(4, &[a.clone(), b.clone()]);
        let before = g.dmin();
        g.add_machine(&m1);
        g.add_machine(&m2);
        assert!(g.dmin() >= before);
        assert_eq!(g.num_machines(), 4);
    }

    #[test]
    fn fig4_iii_tolerates_two_crash_and_one_byzantine() {
        // dmin({A,B,M1,M2}) = 3 in the paper.
        let (a, b, m1, m2) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b, m1, m2]);
        assert_eq!(g.dmin(), 3);
        assert!(g.tolerates_crash_faults(2));
        assert!(!g.tolerates_crash_faults(3));
        assert_eq!(g.max_crash_faults(), 2);
        assert_eq!(g.max_byzantine_faults(), 1);
        assert!(g.tolerates_byzantine_faults(1));
        assert!(!g.tolerates_byzantine_faults(2));
    }

    #[test]
    fn covers_all_and_speculate_agree_with_clone_based_check() {
        let (a, b, m1, m2) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a.clone(), b.clone()]);
        let weak = g.weakest_edges();
        for candidate in [&a, &b, &m1, &m2] {
            let direct = g.addition_increases_dmin_scan(candidate);
            assert_eq!(
                FaultGraph::covers_all(candidate, &weak),
                direct,
                "candidate {candidate}"
            );
            assert_eq!(g.speculate(candidate), direct, "candidate {candidate}");
            assert_eq!(
                g.speculate_bitset(&candidate.to_bitset()),
                direct,
                "candidate {candidate}"
            );
        }
    }

    #[test]
    fn empty_machine_set_has_zero_weights() {
        let g = FaultGraph::new(5);
        assert_eq!(g.dmin(), 0);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.weakest_edges().len(), 10);
        assert_eq!(g.weight_histogram().get(&0), Some(&10));
    }

    #[test]
    fn single_state_top_tolerates_everything() {
        let g = FaultGraph::new(1);
        assert_eq!(g.dmin(), u32::MAX);
        assert!(g.tolerates_crash_faults(100));
        assert!(g.tolerates_byzantine_faults(100));
        assert!(g.weakest_edges().is_empty());
        // With no edges, dmin is already maximal: speculation is negative.
        assert!(!g.speculate(&Partition::singletons(1)));
    }

    #[test]
    fn weight_is_symmetric_and_diagonal_is_max() {
        let (a, b, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b]);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    assert_eq!(g.weight(i, j), u32::MAX);
                } else {
                    assert_eq!(g.weight(i, j), g.weight(j, i));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "state out of range for a 4-state fault graph")]
    fn weight_of_a_state_past_the_graph_panics() {
        // Without the bound check, (0, 4) lands on the flat index of edge
        // (1, 2) and reads its weight.
        let (a, b, _, _) = fig3_partitions();
        FaultGraph::from_partitions(4, &[a, b]).weight(0, 4);
    }

    #[test]
    fn edges_with_weight_filters() {
        let (a, _, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, std::slice::from_ref(&a));
        assert_eq!(g.edges_with_weight(0), vec![(0, 3)]);
        assert_eq!(g.edges_with_weight(1).len(), 5);
        assert!(g.edges_with_weight(2).is_empty());
        let h = g.weight_histogram();
        assert_eq!(h[&0], 1);
        assert_eq!(h[&1], 5);
    }

    #[test]
    fn bitset_add_machine_matches_scan_across_word_boundaries() {
        // 70 states spans two u64 words; mod-3 blocks interleave across the
        // boundary, exercising the first/last-word masking and the stripe
        // split.
        let n = 70;
        let assignment: Vec<usize> = (0..n).map(|x| x % 3).collect();
        let p = Partition::from_assignment(&assignment);
        let singles = Partition::singletons(n);
        let mut word = FaultGraph::new(n);
        word.add_machine(&p);
        word.add_machine_bitset(&singles.to_bitset());
        let mut scan = FaultGraph::new(n);
        scan.add_machine_scan(&p);
        scan.add_machine_scan(&singles);
        assert_same_graph(&word, &scan);
    }

    #[test]
    fn incremental_trackers_match_full_scans() {
        // Interleave tracked adds and queries; the cached dmin and striped
        // weakest edges must match the full rescans at every step.
        let n = 70;
        let machines: Vec<Partition> = (0..4)
            .map(|k| {
                Partition::from_assignment(&(0..n).map(|x| (x + k) % (k + 2)).collect::<Vec<_>>())
            })
            .collect();
        let mut g = FaultGraph::new(n);
        for p in &machines {
            g.add_machine(p);
            assert_eq!(g.dmin(), g.dmin_scan());
            assert_eq!(g.weakest_edges(), g.weakest_edges_scan());
        }
        // And after a bulk build.
        assert_same_graph(&FaultGraph::from_partitions(n, &machines), &g);
    }

    #[test]
    fn clone_from_copies_graphs_of_other_shapes() {
        let (a, b, _, _) = fig3_partitions();
        let small = FaultGraph::from_partitions(4, &[a, b]);
        let big = FaultGraph::from_partitions(70, &delta_family(70));
        let mut g = small.clone();
        g.clone_from(&big);
        assert_same_graph(&g, &big);
        g.clone_from(&small);
        assert_same_graph(&g, &small);
    }

    /// A family of mildly overlapping partitions over `n` states used by
    /// the remap tests below.
    fn delta_family(n: usize) -> Vec<Partition> {
        (0..5)
            .map(|k| {
                Partition::from_assignment(
                    &(0..n)
                        .map(|x| (x * (k + 2) + k) % (k + 3))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// The same graph down to the tracker state, and consistent with the
    /// full scans.
    fn assert_same_graph(a: &FaultGraph, b: &FaultGraph) {
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.num_machines(), b.num_machines());
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.stripe_hist, b.stripe_hist);
        assert_eq!(a.stripe_min, b.stripe_min);
        assert_eq!(a.min_weight, b.min_weight);
        assert_eq!(a.dmin(), a.dmin_scan());
        assert_eq!(a.weakest_edges(), b.weakest_edges());
        assert_eq!(a.weakest_edges(), a.weakest_edges_scan());
        assert_eq!(a.weight_histogram(), b.weight_histogram());
    }

    /// `p` pulled back along `mapping`: new state `i` sits in the block of
    /// old state `mapping[i]`.
    fn lift(p: &Partition, mapping: &[u32]) -> Partition {
        let a = p.assignment();
        Partition::from_assignment(&mapping.iter().map(|&x| a[x as usize]).collect::<Vec<_>>())
    }

    /// Stripes of an `n`-state graph holding a pair `(i, j)`, `i < j`, for
    /// which `sep(i, j)` holds.
    fn stripes_where(n: usize, sep: impl Fn(usize, usize) -> bool) -> usize {
        (0..words_for(n))
            .filter(|&s| {
                (s * WORD_BITS..((s + 1) * WORD_BITS).min(n)).any(|j| (0..j).any(|i| sep(i, j)))
            })
            .count()
    }

    #[test]
    fn remap_states_adding_matches_two_step_sequence() {
        // The fused lift-and-add must be bit-identical to the two steps
        // done cold on the new state space — build the graph of the
        // lifted machines, then add the new one — and report the stripes
        // the added partition separates a pair in.  The surjective mapping
        // (fibers of size > 1) models a product extension.
        let n_old = 10;
        let machines = delta_family(n_old);
        let g = FaultGraph::from_partitions(n_old, &machines);
        for n_new in [63, 64, 65, 127, 129] {
            let mapping: Vec<u32> = (0..n_new)
                .map(|i| ((i * 7 + i / 3) % n_old) as u32)
                .collect();
            let added = &delta_family(n_new)[2];
            let (fused, touched) = g.remap_states_adding(&mapping, added);
            let lifted: Vec<Partition> = machines.iter().map(|p| lift(p, &mapping)).collect();
            let mut two_step = FaultGraph::from_partitions(n_new, &lifted);
            two_step.add_machine(added);
            assert_eq!(fused.num_machines(), machines.len() + 1);
            assert_same_graph(&fused, &two_step);
            assert_eq!(
                touched,
                stripes_where(n_new, |i, j| added.separates(i, j)),
                "n_new={n_new}"
            );
        }
    }

    #[test]
    fn remap_states_removing_matches_two_step_sequence() {
        // The fused remove-and-contract must be bit-identical to the two
        // steps done cold: drop the machine, then build the graph of the
        // survivors lifted onto the contracted space.  The injective,
        // non-surjective mapping models the contraction after a machine
        // removal (representatives only, old fibers dropped).
        for n_new in [63, 64, 65, 127, 129] {
            let n_old = 2 * n_new;
            let machines = delta_family(n_old);
            let g = FaultGraph::from_partitions(n_old, &machines);
            let mapping: Vec<u32> = (0..n_old as u32)
                .rev()
                .filter(|x| x % 4 != 1)
                .take(n_new)
                .collect();
            for k in 0..machines.len() {
                let (fused, touched) = g.remap_states_removing(&mapping, &machines[k]);
                let survivors: Vec<Partition> = (0..machines.len())
                    .filter(|&i| i != k)
                    .map(|i| lift(&machines[i], &mapping))
                    .collect();
                let two_step = FaultGraph::from_partitions(n_new, &survivors);
                assert_eq!(fused.num_machines(), machines.len() - 1);
                assert_same_graph(&fused, &two_step);
                let removed = lift(&machines[k], &mapping);
                assert_eq!(
                    touched,
                    stripes_where(n_new, |i, j| removed.separates(i, j)),
                    "n_new={n_new} k={k}"
                );
            }
        }
    }

    /// Partition `k` of a mixed family over `n` states: modular blocks of
    /// several sizes, plus the two extremes (singletons separate every
    /// pair, one block separates none).
    fn mixed_partition(n: usize, k: usize) -> Partition {
        match k % 6 {
            4 => Partition::from_assignment(&vec![0; n]),
            5 => Partition::singletons(n),
            _ => Partition::from_assignment(
                &(0..n)
                    .map(|x| (x * (k + 1) + k / 3) % (k % 7 + 2))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    #[test]
    fn bulk_dense_build_matches_tracked_adds_tracker_state_included() {
        // Stripe boundaries (63/64/65, 128/129), a partial tail word, the
        // edge-less graphs and the empty family.
        for n in [0, 1, 2, 63, 64, 65, 128, 129, 200] {
            for m in [0, 1, 5, 24] {
                let parts: Vec<Partition> = (0..m).map(|k| mixed_partition(n, k)).collect();
                let bulk = FaultGraph::from_partitions(n, &parts);
                let mut tracked = FaultGraph::new(n);
                for p in &parts {
                    tracked.add_machine_bitset(&p.to_bitset());
                }
                assert_eq!(bulk.num_machines(), tracked.num_machines(), "n={n} m={m}");
                assert_eq!(bulk.weights, tracked.weights, "n={n} m={m}");
                assert_eq!(bulk.stripe_hist, tracked.stripe_hist, "n={n} m={m}");
                assert_eq!(bulk.stripe_min, tracked.stripe_min, "n={n} m={m}");
                assert_eq!(bulk.min_weight, tracked.min_weight, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn dense_graph_fills_to_the_u16_machine_limit() {
        // One edge whose weight reaches u16::MAX exactly: every add up to
        // the limit fits, the bulk build agrees, and dmin reads back as a
        // u32.
        let singles = Partition::singletons(2);
        let parts = vec![singles.clone(); DENSE_MACHINE_LIMIT];
        let bulk = FaultGraph::from_partitions(2, &parts);
        assert_eq!(bulk.dmin(), u32::from(u16::MAX));
        assert_eq!(bulk.weight(0, 1), u32::from(u16::MAX));
        assert_eq!(bulk.weakest_edges(), vec![(0, 1)]);
        let mut g = FaultGraph::from_partitions(2, &parts[1..]);
        g.add_machine(&singles);
        assert_same_graph(&g, &bulk);
    }

    #[test]
    #[should_panic(expected = "holds at most 65535 machines")]
    fn adding_past_the_dense_limit_panics_instead_of_wrapping() {
        let singles = Partition::singletons(2);
        let mut g = FaultGraph::from_partitions(2, &vec![singles.clone(); DENSE_MACHINE_LIMIT]);
        g.add_machine(&singles);
    }

    #[test]
    fn theorem2_example_from_paper_text() {
        // The paper's Section 3 example: {A,B,M1,M2} has dmin = 3, so it
        // tolerates two crash faults but only one Byzantine fault.
        let (a, b, m1, m2) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b, m1, m2]);
        assert_eq!(g.max_crash_faults(), 2);
        assert_eq!(g.max_byzantine_faults(), 1);
    }
}
