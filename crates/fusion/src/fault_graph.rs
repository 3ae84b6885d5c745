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
//! ## Striped incremental `dmin` maintenance (dense representation)
//!
//! Algorithm 2 interleaves machine additions with `dmin` /
//! weakest-edge queries, and the exhaustive search
//! ([`crate::exhaustive_minimum_fusion`]) queries `dmin` at every node of
//! its combination tree.  Rescanning all `n(n-1)/2` edges per query is the
//! dominant query cost at scale, so the dense representation keeps the flat
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
//! The dense cells are `u16`: a weight never exceeds the machine count, so
//! the representation holds at most [`DENSE_MACHINE_LIMIT`] machines and
//! in exchange halves the matrix, its first-touch page faults and every
//! pass over it.  [`FaultGraph::from_partitions`] does not replay the adds:
//! it writes each weight once, row by row, and fills the stripe histograms
//! in the same pass (`fault_graph_build_n6561` in `BENCH_fusion.json`).
//!
//! ## Sparse representation
//!
//! Above ~10⁴ states the dense matrix is the memory wall: `n = 59049`
//! means 1.74 × 10⁹ edges ≈ 3.5 GB of `u16` weights.  The sparse
//! representation ([`WeightRepr::Sparse`]) stores, per state `i`, only the
//! pairs `(i, j)` with a non-zero **deficit** — the number of machines
//! that do *not* separate the pair (`weight = machines − deficit`).  A
//! machine contributes deficit only inside its blocks, so fine partitions
//! (many small blocks — the regime where fusion machines concentrate) stay
//! near-empty: the footprint is `Σ_machines Σ_blocks C(|b|, 2)` entries
//! instead of `n²/2` words.  `dmin = machines − max_deficit` falls out of a
//! deficit histogram whose maximum only grows, and the weakest edges are
//! exactly the stored entries at `max_deficit` (or *all* pairs while
//! `max_deficit == 0`).  [`FaultGraph::from_partitions`] picks the
//! representation automatically from the block-size profile of the input
//! partitions ([`WeightRepr::auto_for`]); both representations answer every
//! query bit-identically (pinned by `tests/fault_graph_repr.rs`).

use crate::bitset::{words_for, BitsetPartition, WORD_BITS};
use crate::partition::Partition;

/// Number of edges in the complete graph over `n` states.
fn edges_in(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
}

/// Index of edge `(i, j)`, `i < j`, in row-major upper-triangular order.
fn edge_index_in(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// How a [`FaultGraph`] stores its edge weights.
///
/// An edge weight is at most the machine count, so each representation
/// caps the machines a graph can hold ([`WeightRepr::machine_limit`]): the
/// dense matrix stores `u16` cells and holds at most
/// [`DENSE_MACHINE_LIMIT`] machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightRepr {
    /// Flat upper-triangular `Vec<u16>` with striped histogram trackers —
    /// the right choice whenever the matrix fits comfortably in RAM.
    Dense,
    /// Per-state sorted deficit rows storing only pairs some machine fails
    /// to separate — the right choice for large `n` with fine partitions.
    Sparse,
}

/// Most machines a dense fault graph holds: its weights are `u16` cells.
pub const DENSE_MACHINE_LIMIT: usize = u16::MAX as usize;

/// Most machines a sparse fault graph holds: its deficits are `u32`.
const SPARSE_MACHINE_LIMIT: usize = u32::MAX as usize;

/// Edge count below which [`WeightRepr::auto_for`] always picks
/// [`WeightRepr::Dense`]: a dense matrix under 4 MiB beats sparse rows on
/// every axis, so sparsity is only worth considering past this floor.
pub const SPARSE_MIN_EDGES: usize = 1 << 20;

/// Density denominator for [`WeightRepr::auto_for`]: sparse is chosen when
/// the estimated stored-entry count is below `edges / SPARSE_DENSITY_DIV`.
/// Each sparse entry is 8 bytes against the dense 2 bytes per edge, so the
/// break-even is `edges / 4`; `edges / 8` leaves headroom for per-row
/// overhead and for deficits accumulating across machines.
pub const SPARSE_DENSITY_DIV: usize = 8;

impl WeightRepr {
    /// The most machines a graph in this representation can hold:
    /// [`DENSE_MACHINE_LIMIT`] for [`WeightRepr::Dense`], `u32::MAX` for
    /// [`WeightRepr::Sparse`].
    pub fn machine_limit(self) -> usize {
        match self {
            WeightRepr::Dense => DENSE_MACHINE_LIMIT,
            WeightRepr::Sparse => SPARSE_MACHINE_LIMIT,
        }
    }

    /// The representation [`FaultGraph::from_partitions`] picks for `n`
    /// states and the given machine partitions: sparse iff the graph is
    /// past [`SPARSE_MIN_EDGES`] *and* the union-bound estimate of stored
    /// deficit entries (`Σ_p Σ_blocks C(|b|, 2)`) is below
    /// `edges / `[`SPARSE_DENSITY_DIV`].
    pub fn auto_for(n: usize, partitions: &[Partition]) -> WeightRepr {
        let est: u128 = partitions.iter().map(|p| same_block_pairs(p) as u128).sum();
        Self::auto_for_estimate(edges_in(n), est, SPARSE_MIN_EDGES)
    }

    /// Pure core of [`WeightRepr::auto_for`], with the edge floor
    /// injectable so the crossover is unit-testable at toy sizes.
    pub fn auto_for_estimate(edges: usize, est_stored: u128, min_edges: usize) -> WeightRepr {
        if edges >= min_edges && est_stored * SPARSE_DENSITY_DIV as u128 <= edges as u128 {
            WeightRepr::Sparse
        } else {
            WeightRepr::Dense
        }
    }
}

/// `Σ_blocks C(|b|, 2)` — the number of pairs `p` does *not* separate,
/// i.e. the deficit entries `p` would contribute to a sparse graph.
fn same_block_pairs(p: &Partition) -> usize {
    let mut sizes = vec![0usize; p.num_blocks()];
    for &b in p.assignment() {
        sizes[b] += 1;
    }
    sizes.iter().map(|&s| s * (s - 1) / 2).sum()
}

/// Dense weights: the flat upper-triangular matrix plus per-stripe
/// histogram trackers (see the module docs).
#[derive(Debug)]
struct DenseWeights {
    n: usize,
    /// Upper-triangular weights, indexed by [`edge_index_in`].  A weight
    /// never exceeds the machine count, which the dense representation caps
    /// at [`DENSE_MACHINE_LIMIT`], so a `u16` cell holds it.
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

impl Clone for DenseWeights {
    fn clone(&self) -> Self {
        DenseWeights {
            n: self.n,
            weights: self.weights.clone(),
            stripe_hist: self.stripe_hist.clone(),
            stripe_min: self.stripe_min.clone(),
            min_weight: self.min_weight,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.weights.clone_from(&source.weights);
        // Vec<Vec<_>>::clone_from reuses both the outer buffer and each
        // overlapping inner buffer.
        self.stripe_hist.clone_from(&source.stripe_hist);
        self.stripe_min.clone_from(&source.stripe_min);
        self.min_weight = source.min_weight;
    }
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

impl DenseWeights {
    fn new(n: usize) -> Self {
        let stripe_hist = (0..words_for(n))
            .map(|s| vec![Self::stripe_edge_count(n, s)])
            .collect();
        Self::from_hists(n, vec![0; edges_in(n)], stripe_hist)
    }

    /// Assembles finished weights and stripe histograms, deriving every
    /// stripe minimum and the global minimum from the histograms.
    fn from_hists(n: usize, weights: Vec<u16>, stripe_hist: Vec<Vec<usize>>) -> Self {
        let stripe_min: Vec<u32> = stripe_hist.iter().map(|sh| hist_min(sh)).collect();
        let min_weight = stripe_min.iter().copied().min().unwrap_or(u32::MAX);
        DenseWeights {
            n,
            weights,
            stripe_hist,
            stripe_min,
            min_weight,
        }
    }

    /// Edges owned by stripe `s`: column `j` contributes its `j` incident
    /// rows `i < j`.
    fn stripe_edge_count(n: usize, s: usize) -> usize {
        let lo = s * WORD_BITS;
        let hi = ((s + 1) * WORD_BITS).min(n);
        (lo..hi).sum()
    }

    /// The bulk build behind [`FaultGraph::from_partitions`]: one pass per
    /// row writes each weight once — the number of partitions whose block
    /// of `j` differs from the block of `i` — and counts the finished row
    /// into the stripe histograms one 64-column segment at a time.  The
    /// stripe minima are derived at the end.
    fn from_partitions(n: usize, partitions: &[Partition]) -> Self {
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
        Self::from_hists(n, weights, stripe_hist)
    }

    /// The word-level add pass.  The per-stripe histograms are updated
    /// inline (the histogram row is resolved once per visited word) and the
    /// stripe minima advanced afterwards.  Returns the number of stripes
    /// whose weights actually moved.
    fn add_bitset(&mut self, p: &BitsetPartition) -> usize {
        let n = self.n;
        let words = words_for(n);
        // One more machine: weights may now reach `machines + 1`.
        for sh in &mut self.stripe_hist {
            sh.push(0);
        }
        let mut touched = vec![false; words];
        let DenseWeights {
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
                touched[w] = true;
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
        self.advance_mins();
        touched.iter().filter(|&&t| t).count()
    }

    /// The inverse of [`DenseWeights::add_bitset`]: every pair the
    /// partition separates loses one unit of weight.  Weights can
    /// *decrease* here, so the grow-only [`DenseWeights::advance_mins`]
    /// does not apply: the stripe minima of touched stripes are recomputed
    /// from their histograms and the global minimum re-derived over all
    /// stripes.  The caller decrements the machine count afterwards; the
    /// now-unreachable top histogram slot is dropped here (it must be empty
    /// — an edge at full weight is separated by *every* machine, including
    /// the one being removed).  Returns the number of touched stripes.
    fn remove_bitset(&mut self, p: &BitsetPartition) -> usize {
        let n = self.n;
        let words = words_for(n);
        let mut touched = vec![false; words];
        let DenseWeights {
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
                    continue;
                }
                touched[w] = true;
                let sh = &mut stripe_hist[w];
                while mask != 0 {
                    let j = w * WORD_BITS + mask.trailing_zeros() as usize;
                    let idx = base + (j - start);
                    let old = weights[idx];
                    debug_assert!(old > 0, "removing a machine that was never added");
                    weights[idx] = old - 1;
                    sh[usize::from(old)] -= 1;
                    sh[usize::from(old) - 1] += 1;
                    mask &= mask - 1;
                }
            }
            base += n - i - 1;
        }
        for sh in &mut self.stripe_hist {
            debug_assert_eq!(
                sh.last().copied(),
                Some(0),
                "full-weight edge survived removal"
            );
            sh.pop();
        }
        let mut global = u32::MAX;
        for (s, sh) in self.stripe_hist.iter().enumerate() {
            if touched[s] {
                self.stripe_min[s] = hist_min(sh);
            }
            global = global.min(self.stripe_min[s]);
        }
        self.min_weight = global;
        touched.iter().filter(|&&t| t).count()
    }

    /// Pulls the weights back along `mapping` onto a new state space:
    /// `w'(i, j) = w(mapping[i], mapping[j])`, zero when both endpoints
    /// collapse onto the same old state (no machine separates a state from
    /// itself).
    ///
    /// This is the hot pass of a warm [`FaultGraph::remap_states`] — every
    /// delta-aware `update_top` walks it over the full new edge set — so
    /// the stripe histograms are filled *during* the copy instead of by a
    /// second [`DenseWeights::rebuild_trackers`] sweep, the old flat index
    /// comes from a precomputed row-base table (two adds, no per-edge
    /// triangular arithmetic), and the inner loop runs stripe-segmented so
    /// each histogram row is resolved once per 64 columns.
    fn remap(&self, mapping: &[u32], machines: usize) -> DenseWeights {
        let n_new = mapping.len();
        let row_base = row_bases(self.n);
        let mut weights = vec![0u16; edges_in(n_new)];
        let mut stripe_hist = vec![vec![0usize; machines + 1]; words_for(n_new)];
        let mut idx = 0usize;
        for (i, &mi) in mapping.iter().enumerate() {
            let a = mi as usize;
            let mut j = i + 1;
            while j < n_new {
                let s = j / WORD_BITS;
                let seg_end = ((s + 1) * WORD_BITS).min(n_new);
                let sh = &mut stripe_hist[s];
                for &mj in &mapping[j..seg_end] {
                    let b = mj as usize;
                    let w = if a != b {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        self.weights[row_base[lo] + (hi - lo - 1)]
                    } else {
                        0
                    };
                    weights[idx] = w;
                    sh[usize::from(w)] += 1;
                    idx += 1;
                }
                j = seg_end;
            }
        }
        DenseWeights::from_hists(n_new, weights, stripe_hist)
    }

    /// [`DenseWeights::remap`] fused with one extra partition over the
    /// *new* state space: `w'(i, j) = w(mapping[i], mapping[j]) + [p
    /// separates i and j]`.  One pass over the new edge set replaces the
    /// remap-then-[`DenseWeights::add_bitset`] pair a warm `AddMachine`
    /// used to pay (each a full edge sweep of its own).  The separation
    /// bit comes from one bitset word per 64 columns, so the fusion costs
    /// a shift and a mask on top of the plain remap.  Also returns the
    /// number of stripes the added partition touched.
    fn remap_adding(
        &self,
        mapping: &[u32],
        p: &BitsetPartition,
        machines: usize,
    ) -> (DenseWeights, usize) {
        let n_new = mapping.len();
        let row_base = row_bases(self.n);
        let stripes = words_for(n_new);
        let mut weights = vec![0u16; edges_in(n_new)];
        let mut stripe_hist = vec![vec![0usize; machines + 2]; stripes];
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
                    let b = mj as usize;
                    let w = if a != b {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        self.weights[row_base[lo] + (hi - lo - 1)]
                    } else {
                        0
                    };
                    let sep = (sep_word >> bit) & 1;
                    seg_sep |= sep != 0;
                    let w = w + sep as u16;
                    weights[idx] = w;
                    sh[usize::from(w)] += 1;
                    idx += 1;
                }
                stripe_touched[s] |= seg_sep;
                j = seg_end;
            }
        }
        (
            DenseWeights::from_hists(n_new, weights, stripe_hist),
            stripe_touched.iter().filter(|&&t| t).count(),
        )
    }

    /// [`DenseWeights::remap`] fused with the removal of one partition
    /// over the *old* state space: `w'(i, j) = w(mapping[i], mapping[j]) −
    /// [p separates mapping[i] and mapping[j]]`.  A warm `RemoveMachine`
    /// used to unbump the full old edge set ([`DenseWeights::remove_bitset`])
    /// and then contract; subtracting during the contraction touches only
    /// the new (smaller) edge set.  Also returns the number of new-space
    /// stripes whose weights lost a unit.
    fn remap_removing(
        &self,
        mapping: &[u32],
        p: &BitsetPartition,
        machines_after: usize,
    ) -> (DenseWeights, usize) {
        let n_new = mapping.len();
        let row_base = row_bases(self.n);
        let stripes = words_for(n_new);
        let mut weights = vec![0u16; edges_in(n_new)];
        let mut stripe_hist = vec![vec![0usize; machines_after + 1]; stripes];
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
                    let w = if a != b {
                        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                        let w = self.weights[row_base[lo] + (hi - lo - 1)];
                        // Separated by the removed machine: bit `b` clear
                        // in the block row of `a`.
                        let sep = !(row[b / WORD_BITS] >> (b % WORD_BITS)) & 1;
                        seg_sep |= sep != 0;
                        debug_assert!(u64::from(w) >= sep, "removing a machine never added");
                        w - sep as u16
                    } else {
                        0
                    };
                    weights[idx] = w;
                    sh[usize::from(w)] += 1;
                    idx += 1;
                }
                stripe_touched[s] |= seg_sep;
                j = seg_end;
            }
        }
        (
            DenseWeights::from_hists(n_new, weights, stripe_hist),
            stripe_touched.iter().filter(|&&t| t).count(),
        )
    }

    /// Bumps a single edge (scan path).  Trackers are left stale; callers
    /// finish with [`DenseWeights::rebuild_trackers`].
    fn bump_pair(&mut self, i: usize, j: usize) {
        let idx = edge_index_in(self.n, i, j);
        self.weights[idx] += 1;
    }

    /// Rebuilds every stripe histogram and cached minimum from the raw
    /// weights in one `O(E + stripes·machines)` pass.
    fn rebuild_trackers(&mut self, machines: usize) {
        for sh in &mut self.stripe_hist {
            sh.clear();
            sh.resize(machines + 1, 0);
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

    /// Edges of weight exactly `w` confined to the given (ascending)
    /// stripes, in row-major order.
    fn edges_with_weight_in_stripes(&self, w: u16, stripes: &[usize]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.visit_edges_at(w, stripes, |i, j| {
            out.push((i, j));
            true
        });
        out
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

    fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
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
}

/// Sparse weights: per-state sorted deficit rows (see the module docs).
///
/// `rows[i]` holds `(j, deficit)` for `j > i`, sorted by `j`, storing only
/// pairs with `deficit > 0` — pairs every machine separates are implicit
/// with weight `machines`.  `deficit_hist[d]` counts stored entries at
/// deficit `d ≥ 1`; `max_deficit` only grows, so
/// `dmin = machines − max_deficit` is `O(1)`.
#[derive(Debug)]
struct SparseWeights {
    n: usize,
    edges: usize,
    rows: Vec<Vec<(u32, u32)>>,
    /// Total stored entries across all rows.
    stored: usize,
    /// `deficit_hist[d]` = stored entries with deficit exactly `d`
    /// (`deficit_hist[0]` is unused; implicit pairs are `edges - stored`).
    deficit_hist: Vec<usize>,
    /// Maximum stored deficit (0 when nothing is stored).
    max_deficit: u32,
    /// Scratch for block-member collection, reused across adds.
    scratch: Vec<u32>,
    /// Scratch for row merges, reused across adds.
    merged: Vec<(u32, u32)>,
}

impl Clone for SparseWeights {
    fn clone(&self) -> Self {
        SparseWeights {
            n: self.n,
            edges: self.edges,
            rows: self.rows.clone(),
            stored: self.stored,
            deficit_hist: self.deficit_hist.clone(),
            max_deficit: self.max_deficit,
            scratch: Vec::new(),
            merged: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.edges = source.edges;
        self.rows.clone_from(&source.rows);
        self.stored = source.stored;
        self.deficit_hist.clone_from(&source.deficit_hist);
        self.max_deficit = source.max_deficit;
    }
}

impl SparseWeights {
    fn new(n: usize) -> Self {
        SparseWeights {
            n,
            edges: edges_in(n),
            rows: vec![Vec::new(); n],
            stored: 0,
            deficit_hist: vec![0],
            max_deficit: 0,
            scratch: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Adds a machine: every *same-block* pair gains one unit of deficit.
    /// Each block's members are collected once (ascending), then merged
    /// into the affected rows; rows and the merge buffer are reused.
    /// Returns the number of rows whose entries moved.
    fn add_bitset(&mut self, p: &BitsetPartition) -> usize {
        let mut rows_touched = 0usize;
        for b in 0..p.num_blocks() {
            self.scratch.clear();
            self.scratch.extend(p.block_ones(b).map(|x| x as u32));
            let mut members = std::mem::take(&mut self.scratch);
            for a in 0..members.len().saturating_sub(1) {
                let i = members[a] as usize;
                self.bump_row(i, &members[a + 1..]);
                rows_touched += 1;
            }
            members.clear();
            self.scratch = members;
        }
        rows_touched
    }

    /// The inverse of [`SparseWeights::add_bitset`]: every *same-block*
    /// pair of the partition loses one unit of deficit; entries reaching
    /// zero are dropped so the stored set stays exactly the positive
    /// deficits (what a cold build would store).  The cached `max_deficit`
    /// can *fall* here, so it is re-derived from the histogram afterwards.
    /// Returns the number of rows whose entries moved.
    fn remove_bitset(&mut self, p: &BitsetPartition) -> usize {
        let mut rows_touched = 0usize;
        for b in 0..p.num_blocks() {
            self.scratch.clear();
            self.scratch.extend(p.block_ones(b).map(|x| x as u32));
            let mut members = std::mem::take(&mut self.scratch);
            for a in 0..members.len().saturating_sub(1) {
                let i = members[a] as usize;
                self.unbump_row(i, &members[a + 1..]);
                rows_touched += 1;
            }
            members.clear();
            self.scratch = members;
        }
        while self.max_deficit > 0 && self.deficit_hist[self.max_deficit as usize] == 0 {
            self.max_deficit -= 1;
        }
        rows_touched
    }

    /// Merge-walks row `i` against `outgoing` (sorted, all `> i`, all
    /// present — the machine being removed was previously added, so every
    /// one of its same-block pairs is stored), decrementing each matched
    /// column and dropping entries that reach deficit zero.
    fn unbump_row(&mut self, i: usize, outgoing: &[u32]) {
        let SparseWeights {
            rows,
            stored,
            deficit_hist,
            merged,
            ..
        } = self;
        let row = &mut rows[i];
        merged.clear();
        let mut y = 0usize;
        for &(c, d) in row.iter() {
            if y < outgoing.len() && outgoing[y] == c {
                y += 1;
                deficit_hist[d as usize] -= 1;
                if d > 1 {
                    merged.push((c, d - 1));
                    deficit_hist[d as usize - 1] += 1;
                } else {
                    *stored -= 1;
                }
            } else {
                merged.push((c, d));
            }
        }
        debug_assert_eq!(y, outgoing.len(), "removed machine pair was never stored");
        std::mem::swap(row, merged);
    }

    /// Pulls the deficit rows back along `mapping` onto a new state space.
    /// A stored entry `(a, b, d)` fans out to every preimage pair; pairs
    /// inside one fiber (both endpoints mapping to the same old state) are
    /// separated by *no* machine, i.e. stored at full deficit `machines`.
    fn remap(&self, mapping: &[u32], machines: usize) -> SparseWeights {
        let n_new = mapping.len();
        let mut preimages: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for (i, &x) in mapping.iter().enumerate() {
            preimages[x as usize].push(i as u32);
        }
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_new];
        for (a, row) in self.rows.iter().enumerate() {
            for &(b, d) in row {
                for &i in &preimages[a] {
                    for &j in &preimages[b as usize] {
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        rows[lo as usize].push((hi, d));
                    }
                }
            }
        }
        if machines > 0 {
            let full = machines as u32;
            for fiber in &preimages {
                for (a, &i) in fiber.iter().enumerate() {
                    for &j in &fiber[a + 1..] {
                        rows[i as usize].push((j, full));
                    }
                }
            }
        }
        let mut stored = 0usize;
        let mut deficit_hist = vec![0usize];
        let mut max_deficit = 0u32;
        for row in &mut rows {
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(_, d) in row.iter() {
                stored += 1;
                bump_hist(&mut deficit_hist, &mut max_deficit, d);
            }
        }
        SparseWeights {
            n: n_new,
            edges: edges_in(n_new),
            rows,
            stored,
            deficit_hist,
            max_deficit,
            scratch: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Merges `incoming` (sorted, all `> i`) into row `i`, bumping the
    /// deficit of present columns and inserting absent ones at deficit 1.
    fn bump_row(&mut self, i: usize, incoming: &[u32]) {
        let SparseWeights {
            rows,
            stored,
            deficit_hist,
            max_deficit,
            merged,
            ..
        } = self;
        let row = &mut rows[i];
        merged.clear();
        let (mut x, mut y) = (0usize, 0usize);
        while x < row.len() || y < incoming.len() {
            if y == incoming.len() || (x < row.len() && row[x].0 < incoming[y]) {
                merged.push(row[x]);
                x += 1;
            } else if x == row.len() || row[x].0 > incoming[y] {
                merged.push((incoming[y], 1));
                *stored += 1;
                bump_hist(deficit_hist, max_deficit, 1);
                y += 1;
            } else {
                let d = row[x].1 + 1;
                merged.push((row[x].0, d));
                deficit_hist[d as usize - 1] -= 1;
                bump_hist(deficit_hist, max_deficit, d);
                x += 1;
                y += 1;
            }
        }
        std::mem::swap(row, merged);
    }

    /// Bumps a single pair's deficit (scan path).
    fn bump_pair(&mut self, i: usize, j: usize) {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let col = j as u32;
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(pos) => {
                let d = row[pos].1 + 1;
                row[pos].1 = d;
                self.deficit_hist[d as usize - 1] -= 1;
                bump_hist(&mut self.deficit_hist, &mut self.max_deficit, d);
            }
            Err(pos) => {
                row.insert(pos, (col, 1));
                self.stored += 1;
                bump_hist(&mut self.deficit_hist, &mut self.max_deficit, 1);
            }
        }
    }

    /// `dmin` given the wrapper's machine count.
    fn dmin(&self, machines: usize) -> u32 {
        if self.edges == 0 {
            return u32::MAX;
        }
        machines as u32 - self.max_deficit
    }

    /// Full-scan `dmin`: the stored deficits are rescanned for the maximum
    /// instead of trusting the cached tracker.
    fn dmin_scan(&self, machines: usize) -> u32 {
        if self.edges == 0 {
            return u32::MAX;
        }
        let max: u32 = self
            .rows
            .iter()
            .flat_map(|r| r.iter().map(|&(_, d)| d))
            .max()
            .unwrap_or(0);
        machines as u32 - max
    }

    /// Edges of weight exactly `w`, row-major.  Weight `machines` means the
    /// *complement* of the stored rows; anything lower is a stored-deficit
    /// filter.
    fn edges_with_weight(&self, machines: usize, w: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if (w as usize) > machines {
            return out;
        }
        let d = (machines - w as usize) as u32;
        if d == 0 {
            for (i, row) in self.rows.iter().enumerate() {
                let mut next = row.iter().peekable();
                for j in (i + 1)..self.n {
                    match next.peek() {
                        Some(&&(c, _)) if c as usize == j => {
                            next.next();
                        }
                        _ => out.push((i, j)),
                    }
                }
            }
        } else {
            for (i, row) in self.rows.iter().enumerate() {
                for &(c, dd) in row {
                    if dd == d {
                        out.push((i, c as usize));
                    }
                }
            }
        }
        out
    }

    /// Edges of weight at most `w`, row-major: stored entries with deficit
    /// `≥ machines − w`, or every pair when the bound covers weight
    /// `machines`.
    fn edges_with_weight_at_most(&self, machines: usize, w: u32) -> Vec<(usize, usize)> {
        if (w as usize) >= machines {
            let mut out = Vec::with_capacity(self.edges);
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    out.push((i, j));
                }
            }
            return out;
        }
        let d0 = (machines - w as usize) as u32;
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            for &(c, dd) in row {
                if dd >= d0 {
                    out.push((i, c as usize));
                }
            }
        }
        out
    }

    /// Early-exiting speculate pass: with a positive `max_deficit` only the
    /// stored entries at the maximum are candidates; at zero every pair is
    /// weakest and the candidate must separate them all.
    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        if self.edges == 0 {
            return false;
        }
        if self.max_deficit == 0 {
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    if !separates(i, j) {
                        return false;
                    }
                }
            }
            return true;
        }
        for (i, row) in self.rows.iter().enumerate() {
            for &(c, d) in row {
                if d == self.max_deficit && !separates(i, c as usize) {
                    return false;
                }
            }
        }
        true
    }

    fn weight_histogram(&self, machines: usize) -> std::collections::BTreeMap<u32, usize> {
        let mut out = std::collections::BTreeMap::new();
        if self.edges > self.stored {
            out.insert(machines as u32, self.edges - self.stored);
        }
        for (d, &count) in self.deficit_hist.iter().enumerate().skip(1) {
            if count > 0 {
                out.insert((machines - d) as u32, count);
            }
        }
        out
    }
}

/// Records a stored entry reaching deficit `d` in the histogram and the
/// cached maximum.
fn bump_hist(hist: &mut Vec<usize>, max_deficit: &mut u32, d: u32) {
    if hist.len() <= d as usize {
        hist.resize(d as usize + 1, 0);
    }
    hist[d as usize] += 1;
    *max_deficit = (*max_deficit).max(d);
}

/// Panics unless a graph of `machines` machines fits `repr`, instead of
/// letting a weight wrap around.
fn assert_within_limit(machines: usize, repr: WeightRepr) {
    let limit = repr.machine_limit();
    assert!(
        machines <= limit,
        "a {repr:?} fault graph holds at most {limit} machines, not {machines}"
    );
}

#[derive(Debug, Clone)]
enum Weights {
    Dense(DenseWeights),
    Sparse(SparseWeights),
}

/// A single-machine change applied to a [`FaultGraph`] in place by
/// [`FaultGraph::apply_delta`] — the graph half of the `delta` subsystem
/// (see [`crate::delta::TopDelta`]).
#[derive(Debug, Clone, Copy)]
pub enum GraphDelta<'a> {
    /// A machine joined the set: its partition's separated pairs each gain
    /// one unit of weight.
    AddPartition(&'a Partition),
    /// A machine left the set: its partition's separated pairs each lose
    /// one unit of weight.  The partition must have been added before
    /// (weights never go negative).
    RemovePartition(&'a Partition),
}

/// The fault graph `G(⊤, M)` for machines represented as closed partitions
/// of a `⊤` with `n` states.
///
/// Two interchangeable weight representations sit behind this type (see
/// the module docs): the striped dense matrix and the sparse deficit rows,
/// selected by [`FaultGraph::with_representation`] or automatically by
/// [`FaultGraph::from_partitions`].  Machines can be added incrementally,
/// which is what Algorithm 2 does as it grows the fusion set; both
/// representations maintain their trackers alongside the weights so
/// [`FaultGraph::dmin`] is `O(1)` and [`FaultGraph::weakest_edges`] /
/// [`FaultGraph::speculate`] touch only the stripes (dense) or stored
/// entries (sparse) that can contain a weakest edge.
///
/// A graph holds at most [`WeightRepr::machine_limit`] machines of its
/// representation: the dense one stores `u16` weights and so caps the
/// count at [`DENSE_MACHINE_LIMIT`].  Adding a machine past the limit panics rather
/// than wrapping a weight around; the fusion entry points check the count
/// first and report [`crate::FusionError::TooManyMachines`] instead.
#[derive(Debug)]
pub struct FaultGraph {
    n: usize,
    /// Number of machines accumulated so far.
    machines: usize,
    weights: Weights,
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
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.machines = source.machines;
        match (&mut self.weights, &source.weights) {
            (Weights::Dense(d), Weights::Dense(s)) => d.clone_from(s),
            (Weights::Sparse(d), Weights::Sparse(s)) => d.clone_from(s),
            (d, s) => *d = s.clone(),
        }
    }
}

impl FaultGraph {
    /// Creates the fault graph over `n` states with no machines (all edge
    /// weights zero), in the dense representation.
    pub fn new(n: usize) -> Self {
        Self::with_representation(n, WeightRepr::Dense)
    }

    /// Creates an empty fault graph in the given representation.
    pub fn with_representation(n: usize, repr: WeightRepr) -> Self {
        let weights = match repr {
            WeightRepr::Dense => Weights::Dense(DenseWeights::new(n)),
            WeightRepr::Sparse => Weights::Sparse(SparseWeights::new(n)),
        };
        FaultGraph {
            n,
            machines: 0,
            weights,
        }
    }

    /// Builds a fault graph from a set of machine partitions, choosing the
    /// representation automatically ([`WeightRepr::auto_for`]).
    ///
    /// Dense bulk path: one pass over the rows writes every weight once,
    /// as the number of partitions that separate the pair, and fills the
    /// stripe histograms segment by segment in the same pass; the stripe
    /// minima are derived at the end.  The sparse trackers are cheap enough
    /// to maintain inline, one partition at a time.
    ///
    /// # Panics
    ///
    /// If a partition is not over `n` states, or if there are more
    /// partitions than the representation holds
    /// ([`WeightRepr::machine_limit`]).
    pub fn from_partitions(n: usize, partitions: &[Partition]) -> Self {
        Self::from_partitions_with(n, partitions, WeightRepr::auto_for(n, partitions))
    }

    /// [`FaultGraph::from_partitions`] with an explicit representation.
    pub fn from_partitions_with(n: usize, partitions: &[Partition], repr: WeightRepr) -> Self {
        for p in partitions {
            assert_eq!(p.len(), n, "partition over wrong number of states");
        }
        assert_within_limit(partitions.len(), repr);
        let weights = match repr {
            WeightRepr::Dense => Weights::Dense(DenseWeights::from_partitions(n, partitions)),
            WeightRepr::Sparse => {
                let mut s = SparseWeights::new(n);
                for p in partitions {
                    s.add_bitset(&BitsetPartition::from_partition(p));
                }
                Weights::Sparse(s)
            }
        };
        FaultGraph {
            n,
            machines: partitions.len(),
            weights,
        }
    }

    /// Which representation this graph stores its weights in.
    pub fn representation(&self) -> WeightRepr {
        match &self.weights {
            Weights::Dense(_) => WeightRepr::Dense,
            Weights::Sparse(_) => WeightRepr::Sparse,
        }
    }

    /// Number of `⊤` states (nodes).
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of edges in the complete graph.
    pub fn num_edges(&self) -> usize {
        match &self.weights {
            Weights::Dense(d) => d.weights.len(),
            Weights::Sparse(s) => s.edges,
        }
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
    /// Dense: for every state `i` the set of states `j > i` that the
    /// machine separates from `i` is the *complement* of `i`'s block row,
    /// so the update walks `!row` word-at-a-time and bumps exactly the
    /// edges whose weight grows; the stripe histograms and cached minima
    /// are maintained in the same pass and words with a zero mask (clean
    /// stripes) are skipped.  Sparse: every *same-block* pair gains one
    /// unit of deficit via sorted row merges.
    pub fn add_machine_bitset(&mut self, p: &BitsetPartition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert_within_limit(self.machines + 1, self.representation());
        match &mut self.weights {
            Weights::Dense(d) => d.add_bitset(p),
            Weights::Sparse(s) => s.add_bitset(p),
        };
        self.machines += 1;
    }

    /// The pre-refactor element scan: every `(i, j)` pair tested with
    /// [`Partition::separates`].  Kept for cross-validation (property tests)
    /// and as the `fault_graph_build_scan` baseline in `BENCH_fusion.json`;
    /// use [`FaultGraph::add_machine`] everywhere else.  Faithful to its
    /// pre-refactor behavior, the dense path leaves the incremental
    /// trackers to a full rebuild pass instead of maintaining them inline.
    pub fn add_machine_scan(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert_within_limit(self.machines + 1, self.representation());
        match &mut self.weights {
            Weights::Dense(d) => {
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if p.separates(i, j) {
                            d.bump_pair(i, j);
                        }
                    }
                }
                self.machines += 1;
                d.rebuild_trackers(self.machines);
            }
            Weights::Sparse(s) => {
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if !p.separates(i, j) {
                            s.bump_pair(i, j);
                        }
                    }
                }
                self.machines += 1;
            }
        }
    }

    /// Applies a single-machine delta in place, recomputing only the
    /// trackers of the stripes (dense) or rows (sparse) the changed
    /// machine's partition actually touches.  Returns that touched count —
    /// the `graph_stripes_touched` figure surfaced in
    /// [`crate::delta::UpdateStats`].
    ///
    /// Adding via [`GraphDelta::AddPartition`] is identical to
    /// [`FaultGraph::add_machine`]; removing via
    /// [`GraphDelta::RemovePartition`] is its exact inverse, leaving the
    /// graph bit-identical to one built from the surviving partitions (the
    /// sparse stored set stays exactly the positive deficits, and the
    /// dense stripe minima are re-derived for touched stripes since
    /// weights can fall).
    pub fn apply_delta(&mut self, delta: GraphDelta<'_>) -> usize {
        match delta {
            GraphDelta::AddPartition(p) => {
                assert_eq!(p.len(), self.n, "partition over wrong number of states");
                assert_within_limit(self.machines + 1, self.representation());
                let touched = match &mut self.weights {
                    Weights::Dense(d) => d.add_bitset(&BitsetPartition::from_partition(p)),
                    Weights::Sparse(s) => s.add_bitset(&BitsetPartition::from_partition(p)),
                };
                self.machines += 1;
                touched
            }
            GraphDelta::RemovePartition(p) => {
                assert_eq!(p.len(), self.n, "partition over wrong number of states");
                assert!(self.machines > 0, "no machines to remove");
                let touched = match &mut self.weights {
                    Weights::Dense(d) => d.remove_bitset(&BitsetPartition::from_partition(p)),
                    Weights::Sparse(s) => s.remove_bitset(&BitsetPartition::from_partition(p)),
                };
                self.machines -= 1;
                touched
            }
        }
    }

    /// Pulls the graph back along a state mapping onto a new state space,
    /// preserving the representation and machine count.
    ///
    /// `mapping[i]` names the state of *this* graph that new state `i`
    /// projects onto, so the result is the fault graph of the same
    /// machines lifted through the mapping:
    /// `w'(i, j) = w(mapping[i], mapping[j])`, zero when both endpoints
    /// collapse onto the same old state (no machine separates a state from
    /// itself).  A surjective mapping lifts a product extension
    /// (`AddMachine` re-uses the old graph before adding the new
    /// projection); an injective one contracts fibers after a machine is
    /// removed (pick one preimage representative per new state — the
    /// surviving machines cannot distinguish preimages, so any choice
    /// yields the same graph).
    pub fn remap_states(&self, mapping: &[u32]) -> FaultGraph {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        let weights = match &self.weights {
            Weights::Dense(d) => Weights::Dense(d.remap(mapping, self.machines)),
            Weights::Sparse(s) => Weights::Sparse(s.remap(mapping, self.machines)),
        };
        FaultGraph {
            n: mapping.len(),
            machines: self.machines,
            weights,
        }
    }

    /// [`FaultGraph::remap_states`] fused with
    /// `apply_delta(GraphDelta::AddPartition(p))`, where `p` lives on the
    /// *new* state space: bit-identical to the two-step sequence, but the
    /// dense representation pays one pass over the new edge set instead of
    /// two.  Returns the remapped-and-grown graph and the touched-stripe
    /// count the two-step sequence would have reported.
    pub fn remap_states_adding(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        assert_eq!(
            p.len(),
            mapping.len(),
            "partition over wrong number of states"
        );
        assert_within_limit(self.machines + 1, self.representation());
        match &self.weights {
            Weights::Dense(d) => {
                let (w, touched) =
                    d.remap_adding(mapping, &BitsetPartition::from_partition(p), self.machines);
                (
                    FaultGraph {
                        n: mapping.len(),
                        machines: self.machines + 1,
                        weights: Weights::Dense(w),
                    },
                    touched,
                )
            }
            Weights::Sparse(_) => {
                let mut g = self.remap_states(mapping);
                let touched = g.apply_delta(GraphDelta::AddPartition(p));
                (g, touched)
            }
        }
    }

    /// [`FaultGraph::remap_states`] fused with
    /// `apply_delta(GraphDelta::RemovePartition(p))` applied *first*, where
    /// `p` lives on *this* graph's state space: bit-identical to
    /// remove-then-contract, but the dense representation subtracts during
    /// the contraction and so touches only the new (smaller) edge set —
    /// never the full old one.  Returns the contracted graph and the
    /// number of new-space stripes that lost weight.
    pub fn remap_states_removing(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert!(self.machines > 0, "no machines to remove");
        match &self.weights {
            Weights::Dense(d) => {
                let (w, touched) = d.remap_removing(
                    mapping,
                    &BitsetPartition::from_partition(p),
                    self.machines - 1,
                );
                (
                    FaultGraph {
                        n: mapping.len(),
                        machines: self.machines - 1,
                        weights: Weights::Dense(w),
                    },
                    touched,
                )
            }
            Weights::Sparse(_) => {
                let mut old = self.clone();
                let touched = old.apply_delta(GraphDelta::RemovePartition(p));
                (old.remap_states(mapping), touched)
            }
        }
    }

    /// The distance `d(ti, tj)` between two states (Definition 4).
    pub fn weight(&self, i: usize, j: usize) -> u32 {
        if i == j {
            return u32::MAX;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        match &self.weights {
            Weights::Dense(d) => u32::from(d.weights[edge_index_in(self.n, a, b)]),
            Weights::Sparse(s) => {
                let deficit = match s.rows[a].binary_search_by_key(&(b as u32), |&(c, _)| c) {
                    Ok(pos) => s.rows[a][pos].1,
                    Err(_) => 0,
                };
                self.machines as u32 - deficit
            }
        }
    }

    /// The minimum edge weight `dmin`, from the incrementally maintained
    /// trackers — `O(1)`.  For a single-state `⊤` there are no edges and no
    /// pair of states to confuse, so every fault count is tolerated; we
    /// represent that as `u32::MAX`.
    pub fn dmin(&self) -> u32 {
        match &self.weights {
            Weights::Dense(d) => d.min_weight,
            Weights::Sparse(s) => s.dmin(self.machines),
        }
    }

    /// The pre-refactor `dmin`: a full scan over every stored weight.  Kept
    /// for cross-validation and as the `fault_graph_incremental_dmin_scan`
    /// baseline; use [`FaultGraph::dmin`] everywhere else.
    pub fn dmin_scan(&self) -> u32 {
        match &self.weights {
            Weights::Dense(d) => d.weights.iter().copied().min().map_or(u32::MAX, u32::from),
            Weights::Sparse(s) => s.dmin_scan(self.machines),
        }
    }

    /// All edges whose weight equals `dmin` — the "weakest edges" Algorithm 2
    /// must cover with every machine it adds.  Dense: one filtered pass
    /// confined to the stripes whose cached minimum equals `dmin`; sparse:
    /// the stored entries at `max_deficit`.  The result is in row-major
    /// order, matching the scan.
    pub fn weakest_edges(&self) -> Vec<(usize, usize)> {
        match &self.weights {
            // No edges (`min_weight == u32::MAX`): nothing is weakest.
            Weights::Dense(d) => match u16::try_from(d.min_weight) {
                Ok(w) => d.edges_with_weight_in_stripes(w, &d.stripes_at(d.min_weight)),
                Err(_) => Vec::new(),
            },
            Weights::Sparse(s) => {
                if s.edges == 0 {
                    return Vec::new();
                }
                s.edges_with_weight(self.machines, s.dmin(self.machines))
            }
        }
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
        match &self.weights {
            Weights::Dense(d) => {
                let mut out = Vec::new();
                let mut idx = 0usize;
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if u32::from(d.weights[idx]) == w {
                            out.push((i, j));
                        }
                        idx += 1;
                    }
                }
                out
            }
            Weights::Sparse(s) => s.edges_with_weight(self.machines, w),
        }
    }

    /// All edges with weight at most `w`.
    pub fn edges_with_weight_at_most(&self, w: u32) -> Vec<(usize, usize)> {
        match &self.weights {
            Weights::Dense(d) => {
                let mut out = Vec::new();
                let mut idx = 0usize;
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if u32::from(d.weights[idx]) <= w {
                            out.push((i, j));
                        }
                        idx += 1;
                    }
                }
                out
            }
            Weights::Sparse(s) => s.edges_with_weight_at_most(self.machines, w),
        }
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
    /// is one early-exiting pass over the stripes (dense) or stored
    /// entries (sparse) that can hold a weakest edge, instead of the
    /// clone + word-level add + full rescan of
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

    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        match &self.weights {
            Weights::Dense(d) => d.speculate_with(separates),
            Weights::Sparse(s) => s.speculate_with(separates),
        }
    }

    /// Would adding `candidate` increase `dmin`?  Tracker-backed; see
    /// [`FaultGraph::speculate`].
    pub fn addition_increases_dmin(&self, candidate: &Partition) -> bool {
        self.speculate(candidate)
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
    /// maintained trackers (`O(stripes · machines)` dense,
    /// `O(max_deficit)` sparse), not a rescan of the weights.
    pub fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        match &self.weights {
            Weights::Dense(d) => d.weight_histogram(),
            Weights::Sparse(s) => s.weight_histogram(self.machines),
        }
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
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], repr);
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
                assert_eq!(
                    g.addition_increases_dmin(candidate),
                    direct,
                    "candidate {candidate}"
                );
            }
        }
    }

    #[test]
    fn empty_machine_set_has_zero_weights() {
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::with_representation(5, repr);
            assert_eq!(g.dmin(), 0);
            assert_eq!(g.num_edges(), 10);
            assert_eq!(g.weakest_edges().len(), 10);
            assert_eq!(g.weight_histogram().get(&0), Some(&10));
        }
    }

    #[test]
    fn single_state_top_tolerates_everything() {
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::with_representation(1, repr);
            assert_eq!(g.dmin(), u32::MAX);
            assert!(g.tolerates_crash_faults(100));
            assert!(g.tolerates_byzantine_faults(100));
            assert!(g.weakest_edges().is_empty());
            // With no edges, dmin is already maximal: speculation is negative.
            assert!(!g.speculate(&Partition::singletons(1)));
        }
    }

    #[test]
    fn weight_is_symmetric_and_diagonal_is_max() {
        let (a, b, _, _) = fig3_partitions();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], repr);
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
    }

    #[test]
    fn edges_with_weight_filters() {
        let (a, _, _, _) = fig3_partitions();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, std::slice::from_ref(&a), repr);
            assert_eq!(g.edges_with_weight(0), vec![(0, 3)]);
            assert_eq!(g.edges_with_weight(1).len(), 5);
            assert_eq!(g.edges_with_weight_at_most(1).len(), 6);
            let h = g.weight_histogram();
            assert_eq!(h[&0], 1);
            assert_eq!(h[&1], 5);
        }
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
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut word = FaultGraph::with_representation(n, repr);
            word.add_machine(&p);
            word.add_machine_bitset(&singles.to_bitset());
            let mut scan = FaultGraph::with_representation(n, repr);
            scan.add_machine_scan(&p);
            scan.add_machine_scan(&singles);
            assert_eq!(word.num_machines(), scan.num_machines());
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(word.weight(i, j), scan.weight(i, j), "edge ({i},{j})");
                }
            }
            assert_eq!(word.dmin(), scan.dmin());
            assert_eq!(word.weight_histogram(), scan.weight_histogram());
        }
    }

    #[test]
    fn incremental_trackers_match_full_scans() {
        // Interleave tracked adds and queries; the cached dmin and striped
        // weakest edges must match the full rescans at every step, in both
        // representations.
        let n = 70;
        let machines: Vec<Partition> = (0..4)
            .map(|k| {
                Partition::from_assignment(&(0..n).map(|x| (x + k) % (k + 2)).collect::<Vec<_>>())
            })
            .collect();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut g = FaultGraph::with_representation(n, repr);
            for p in &machines {
                g.add_machine(p);
                assert_eq!(g.dmin(), g.dmin_scan());
                assert_eq!(g.weakest_edges(), g.weakest_edges_scan());
            }
            // And after a bulk build.
            let bulk = FaultGraph::from_partitions_with(n, &machines, repr);
            assert_eq!(bulk.dmin(), g.dmin());
            assert_eq!(bulk.weakest_edges(), g.weakest_edges());
        }
    }

    #[test]
    fn sparse_and_dense_agree_on_every_observable() {
        let n = 70;
        let machines: Vec<Partition> = (0..5)
            .map(|k| {
                Partition::from_assignment(
                    &(0..n).map(|x| (x * (k + 1)) % (k + 2)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut dense = FaultGraph::with_representation(n, WeightRepr::Dense);
        let mut sparse = FaultGraph::with_representation(n, WeightRepr::Sparse);
        for p in &machines {
            dense.add_machine(p);
            sparse.add_machine(p);
            assert_eq!(dense.dmin(), sparse.dmin());
            assert_eq!(dense.weakest_edges(), sparse.weakest_edges());
            assert_eq!(dense.weight_histogram(), sparse.weight_histogram());
            for w in 0..=dense.num_machines() as u32 {
                assert_eq!(dense.edges_with_weight(w), sparse.edges_with_weight(w));
                assert_eq!(
                    dense.edges_with_weight_at_most(w),
                    sparse.edges_with_weight_at_most(w)
                );
            }
        }
    }

    #[test]
    fn clone_from_across_representations() {
        let (a, b, _, _) = fig3_partitions();
        let dense = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], WeightRepr::Dense);
        let sparse = FaultGraph::from_partitions_with(4, &[a, b], WeightRepr::Sparse);
        let mut g = dense.clone();
        g.clone_from(&sparse);
        assert_eq!(g.representation(), WeightRepr::Sparse);
        assert_eq!(g.dmin(), sparse.dmin());
        g.clone_from(&dense);
        assert_eq!(g.representation(), WeightRepr::Dense);
        assert_eq!(g.weakest_edges(), dense.weakest_edges());
    }

    #[test]
    fn auto_repr_crossover() {
        // Fine partitions over a big-enough graph go sparse; coarse ones
        // (big blocks → dense deficits) and small graphs stay dense.
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 10, 100),
            WeightRepr::Sparse
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 999, 100),
            WeightRepr::Dense
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 125, 100),
            WeightRepr::Sparse
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 126, 100),
            WeightRepr::Dense
        );
        // Below the edge floor the estimate is irrelevant.
        assert_eq!(WeightRepr::auto_for_estimate(99, 0, 100), WeightRepr::Dense);
        // The public selector: singletons separate everything (estimate 0),
        // but 4 states is far below the production floor.
        let fine = vec![Partition::singletons(4)];
        assert_eq!(WeightRepr::auto_for(4, &fine), WeightRepr::Dense);
    }

    /// A family of mildly overlapping partitions over `n` states used by
    /// the delta tests below.
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

    fn assert_same_graph(a: &FaultGraph, b: &FaultGraph) {
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.num_machines(), b.num_machines());
        assert_eq!(a.dmin(), b.dmin());
        assert_eq!(a.dmin(), a.dmin_scan());
        assert_eq!(a.weakest_edges(), b.weakest_edges());
        assert_eq!(a.weakest_edges(), a.weakest_edges_scan());
        assert_eq!(a.weight_histogram(), b.weight_histogram());
        for i in 0..a.num_states() {
            for j in (i + 1)..a.num_states() {
                assert_eq!(a.weight(i, j), b.weight(i, j), "edge ({i},{j})");
            }
        }
    }

    #[test]
    fn apply_delta_add_matches_cold_build() {
        let n = 70;
        let machines = delta_family(n);
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut g = FaultGraph::from_partitions_with(n, &machines[..4], repr);
            let touched = g.apply_delta(GraphDelta::AddPartition(&machines[4]));
            assert!(touched > 0);
            let cold = FaultGraph::from_partitions_with(n, &machines, repr);
            assert_same_graph(&g, &cold);
        }
    }

    #[test]
    fn apply_delta_remove_matches_cold_build() {
        let n = 70;
        let machines = delta_family(n);
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            for k in 0..machines.len() {
                let mut g = FaultGraph::from_partitions_with(n, &machines, repr);
                let touched = g.apply_delta(GraphDelta::RemovePartition(&machines[k]));
                assert!(touched > 0);
                let rest: Vec<Partition> = machines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != k)
                    .map(|(_, p)| p.clone())
                    .collect();
                let cold = FaultGraph::from_partitions_with(n, &rest, repr);
                assert_same_graph(&g, &cold);
            }
        }
    }

    #[test]
    fn apply_delta_sequences_keep_trackers_consistent() {
        // Interleave adds and removes with queries; every intermediate
        // graph must agree with its full rescan and with a cold build.
        let n = 70;
        let machines = delta_family(n);
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut g = FaultGraph::from_partitions_with(n, &machines[..3], repr);
            g.apply_delta(GraphDelta::AddPartition(&machines[3]));
            g.apply_delta(GraphDelta::RemovePartition(&machines[1]));
            g.apply_delta(GraphDelta::AddPartition(&machines[4]));
            g.apply_delta(GraphDelta::RemovePartition(&machines[0]));
            let survivors = vec![
                machines[2].clone(),
                machines[3].clone(),
                machines[4].clone(),
            ];
            let cold = FaultGraph::from_partitions_with(n, &survivors, repr);
            assert_same_graph(&g, &cold);
        }
    }

    #[test]
    fn remap_states_matches_lifted_cold_build() {
        // A surjective mapping (fibers of size > 1) models a product
        // extension: the remapped graph must equal a cold build from the
        // pulled-back partitions.
        let n_old = 10;
        let machines = delta_family(n_old);
        let mapping: Vec<u32> = vec![0, 7, 3, 3, 9, 1, 2, 4, 5, 6, 8, 0, 7, 9];
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(n_old, &machines, repr);
            let remapped = g.remap_states(&mapping);
            assert_eq!(remapped.representation(), repr);
            let lifted: Vec<Partition> = machines
                .iter()
                .map(|p| {
                    let a = p.assignment();
                    Partition::from_assignment(
                        &mapping.iter().map(|&x| a[x as usize]).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let cold = FaultGraph::from_partitions_with(mapping.len(), &lifted, repr);
            assert_same_graph(&remapped, &cold);
        }
    }

    #[test]
    fn remap_states_contracts_with_injective_mapping() {
        // An injective, non-surjective mapping models the contraction after
        // a machine removal: representatives only, old fibers dropped.
        let n_old = 12;
        let machines = delta_family(n_old);
        let mapping: Vec<u32> = vec![1, 4, 6, 11];
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(n_old, &machines, repr);
            let remapped = g.remap_states(&mapping);
            let lifted: Vec<Partition> = machines
                .iter()
                .map(|p| {
                    let a = p.assignment();
                    Partition::from_assignment(
                        &mapping.iter().map(|&x| a[x as usize]).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let cold = FaultGraph::from_partitions_with(mapping.len(), &lifted, repr);
            assert_same_graph(&remapped, &cold);
        }
    }

    #[test]
    fn remap_states_adding_matches_two_step_sequence() {
        // The fused lift-and-add must be bit-identical to remap_states
        // followed by apply_delta(AddPartition), including the
        // touched-stripe count (the added partition lives on the new
        // space in both formulations).
        let n_old = 10;
        let machines = delta_family(n_old);
        let mapping: Vec<u32> = vec![0, 7, 3, 3, 9, 1, 2, 4, 5, 6, 8, 0, 7, 9];
        let added = &delta_family(mapping.len())[2];
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(n_old, &machines, repr);
            let (fused, touched) = g.remap_states_adding(&mapping, added);
            let mut two_step = g.remap_states(&mapping);
            let expected = two_step.apply_delta(GraphDelta::AddPartition(added));
            assert_eq!(touched, expected, "{repr:?}");
            assert_eq!(fused.num_machines(), machines.len() + 1);
            assert_same_graph(&fused, &two_step);
        }
    }

    #[test]
    fn remap_states_removing_matches_two_step_sequence() {
        // The fused remove-and-contract must be bit-identical to
        // apply_delta(RemovePartition) followed by remap_states; the
        // touched count is reported on the new (contracted) space, so
        // only its positivity is pinned here.
        let n_old = 12;
        let machines = delta_family(n_old);
        let mapping: Vec<u32> = vec![1, 4, 6, 11];
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            for k in 0..machines.len() {
                let g = FaultGraph::from_partitions_with(n_old, &machines, repr);
                let (fused, touched) = g.remap_states_removing(&mapping, &machines[k]);
                assert!(touched > 0, "{repr:?} k={k}");
                if repr == WeightRepr::Dense {
                    // Dense reports touched stripes of the *new* space.
                    assert!(touched <= words_for(mapping.len()), "k={k}");
                }
                let mut old = g.clone();
                old.apply_delta(GraphDelta::RemovePartition(&machines[k]));
                let two_step = old.remap_states(&mapping);
                assert_eq!(fused.num_machines(), machines.len() - 1);
                assert_same_graph(&fused, &two_step);
            }
        }
    }

    /// The dense half of a graph, for tracker-level comparisons.
    fn dense_of(g: &FaultGraph) -> &DenseWeights {
        match &g.weights {
            Weights::Dense(d) => d,
            Weights::Sparse(_) => panic!("dense graph expected"),
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
                let bulk = FaultGraph::from_partitions_with(n, &parts, WeightRepr::Dense);
                let mut tracked = FaultGraph::new(n);
                for p in &parts {
                    tracked.add_machine_bitset(&p.to_bitset());
                }
                let (b, t) = (dense_of(&bulk), dense_of(&tracked));
                assert_eq!(bulk.num_machines(), tracked.num_machines(), "n={n} m={m}");
                assert_eq!(b.weights, t.weights, "n={n} m={m}");
                assert_eq!(b.stripe_hist, t.stripe_hist, "n={n} m={m}");
                assert_eq!(b.stripe_min, t.stripe_min, "n={n} m={m}");
                assert_eq!(b.min_weight, t.min_weight, "n={n} m={m}");
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
        assert_eq!(bulk.representation(), WeightRepr::Dense);
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
        g.apply_delta(GraphDelta::AddPartition(&singles));
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
