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
//! ## A weakest-edge index, not a weight matrix
//!
//! Algorithm 2 and Theorems 1–2 read three things from the graph: `dmin`,
//! the weakest edges, and whether a candidate separates all of them.  So
//! [`FaultGraph`] stores no weights: it keeps the machines' *distinct*
//! partitions with their multiplicities, `dmin` and the weakest edges in
//! row-major order — `O(k·n + |weakest|)` memory for `k` distinct
//! partitions over `n` states, where the weights would take 43 MB at
//! `n = 6561`.
//!
//! **Finding a level.**  A pair's weight is `μ(S)`, the total multiplicity
//! of the set `S` of partitions that separate it.  When no pair weighs
//! less than `d`, the pairs of weight `d` are exactly the pairs of states
//! that agree on every partition outside some `S` with `μ(S) = d`, each
//! found once, under its own `S`.  A level search hashes every state's
//! block-id signature over the partitions outside each such `S` and
//! collects the collisions — the multi-index Hamming-space search the
//! journal version of the paper uses for decoding (arXiv:1303.5891),
//! applied to the fault graph.  When the subsets of the levels to search
//! would cost more than a row sweep (random partitions reach `dmin ≈ 14`
//! over 24 machines), the level comes from the sweep instead: one reused
//! `u16` row of weights per state, `O(n²·k)` time and `O(n)` memory.  The
//! choice follows from the inputs; both paths yield the same list.
//!
//! Adding a machine and the state remaps keep the index without a full
//! search (see their docs).  Single weights and the histogram are per-pair
//! [`Partition::separates`] sweeps, independent of both search paths;
//! `tests/fault_graph_repr.rs` pins every path to per-pair scans over the
//! machine list kept in test-only code.

use crate::partition::Partition;

/// Most machines a fault graph holds: the row sweep sums weights in `u16`
/// cells.
pub const DENSE_MACHINE_LIMIT: usize = u16::MAX as usize;

/// Row-sweep cells one level-search probe is worth, as measured on the
/// Table 1 tops and the counter families of `BENCH_fusion.json`.
const PROBE_CELLS: usize = 32;

/// Number of edges in the complete graph over `n` states.
fn edges_in(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
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
/// of a `⊤` with `n` states, kept as a weakest-edge index (see the module
/// docs): [`FaultGraph::dmin`] is `O(1)` and [`FaultGraph::speculate`] one
/// early-exiting pass over the weakest edges.
///
/// Machines can be added incrementally, which is what Algorithm 2 does as
/// it grows the fusion set.  A graph holds at most [`DENSE_MACHINE_LIMIT`]
/// machines: adding one past the limit panics rather than wrapping a
/// weight around; the fusion entry points check the count first and
/// report [`crate::FusionError::TooManyMachines`] instead.
#[derive(Debug)]
pub struct FaultGraph {
    n: usize,
    /// Number of machines (`Σ mult`).
    machines: usize,
    /// The machines' distinct partitions; `mult[c]` machines have
    /// partition `parts[c]`.
    parts: Vec<Partition>,
    mult: Vec<u32>,
    /// The minimum edge weight; `u32::MAX` when the graph has no edges.
    dmin: u32,
    /// Every edge of weight `dmin`, `i < j`, row-major (`n` fits `u32`).
    weakest: Vec<(u32, u32)>,
}

/// Hand-written so that [`Clone::clone_from`] reuses the destination's
/// buffers: the exhaustive search ([`crate::exhaustive_minimum_fusion`])
/// refreshes one graph per DFS depth from its parent at every tree node.
impl Clone for FaultGraph {
    fn clone(&self) -> Self {
        FaultGraph {
            n: self.n,
            machines: self.machines,
            parts: self.parts.clone(),
            mult: self.mult.clone(),
            dmin: self.dmin,
            weakest: self.weakest.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.machines = source.machines;
        self.parts.clone_from(&source.parts);
        self.mult.clone_from(&source.mult);
        self.dmin = source.dmin;
        self.weakest.clone_from(&source.weakest);
    }
}

impl FaultGraph {
    /// Creates the fault graph over `n` states with no machines (all edge
    /// weights zero).
    pub fn new(n: usize) -> Self {
        Self::from_partitions(n, &[])
    }

    /// A graph over `n` states with no machines and no weakest edges yet.
    fn empty(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "{n} states do not fit a fault graph"
        );
        FaultGraph {
            n,
            machines: 0,
            parts: Vec::new(),
            mult: Vec::new(),
            dmin: u32::MAX,
            weakest: Vec::new(),
        }
    }

    /// Builds a fault graph from a set of machine partitions: merges equal
    /// partitions into one with a multiplicity, then searches levels
    /// `0, 1, …` until one is non-empty (see the module docs).
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
        let mut g = Self::empty(n);
        for p in partitions {
            g.insert(p, 1);
        }
        g.search_from(0);
        g
    }

    /// Counts `copies` more machines with partition `p`.
    fn insert(&mut self, p: &Partition, copies: u32) {
        match self.parts.iter().position(|q| q == p) {
            Some(c) => self.mult[c] += copies,
            None => {
                self.parts.push(p.clone());
                self.mult.push(copies);
            }
        }
        self.machines += copies as usize;
    }

    /// Number of `⊤` states (nodes).
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of edges in the complete graph.
    pub fn num_edges(&self) -> usize {
        edges_in(self.n)
    }

    /// Number of machines accumulated.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Adds a machine: every pair of states the partition separates gains
    /// one unit of weight.  The weakest edges it leaves alone stay weakest;
    /// when it separates all of them, `dmin` rises by exactly one and one
    /// level is searched.
    pub fn add_machine(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        assert_within_limit(self.machines + 1);
        self.insert(p, 1);
        self.weakest
            .retain(|&(i, j)| !p.separates(i as usize, j as usize));
        if self.weakest.is_empty() && self.dmin != u32::MAX {
            self.search_from(self.dmin + 1);
        }
    }

    /// Pulls the graph back along a state mapping onto a new state space
    /// and adds one machine `p` that lives on the *new* space.
    ///
    /// New state `i` projects onto old state `mapping[i]`, so
    /// `w'(i, j) = w(mapping[i], mapping[j]) + [p separates i and j]`, the
    /// lifted part zero for a *fiber* pair (both on one old state); a
    /// surjective mapping lifts a product extension (a warm `AddMachine`).
    /// Other pairs weighed more than `dmin` and still do, so the fiber pairs
    /// and the lifted weakest edges show the new lowest level when it is at
    /// most `dmin`; otherwise one level is searched.  Returns the graph and
    /// the number of levels searched.
    pub fn remap_states_adding(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        let n_new = mapping.len();
        assert_eq!(p.len(), n_new, "partition over wrong number of states");
        assert_within_limit(self.machines + 1);
        let mut g = self.lifted(mapping, None);
        g.insert(p, 1);
        let mut fibers = vec![Vec::new(); self.n];
        for (i, &a) in mapping.iter().enumerate() {
            fibers[a as usize].push(i);
        }
        let bound = self.dmin.saturating_add(1);
        let mut offers = Vec::new();
        let mut offer = |w: u32, i: usize, j: usize| {
            if w < bound {
                offers.push((w, i.min(j), i.max(j)));
            }
        };
        for f in &fibers {
            for (x, &i) in f.iter().enumerate() {
                f[x + 1..]
                    .iter()
                    .for_each(|&j| offer(u32::from(p.separates(i, j)), i, j));
            }
        }
        for &(a, b) in &self.weakest {
            for &i in &fibers[a as usize] {
                for &j in &fibers[b as usize] {
                    offer(self.dmin + u32::from(p.separates(i, j)), i, j);
                }
            }
        }
        let levels = g.settle(bound, offers);
        (g, levels)
    }

    /// Removes one machine `p` that lives on *this* graph's state space and
    /// pulls the rest back along an injective state mapping.
    ///
    /// `w'(i, j) = w(mapping[i], mapping[j]) − [p separates mapping[i] and
    /// mapping[j]]`: the mapping picks one representative per new state,
    /// and since the survivors cannot tell preimages apart, any choice
    /// gives the same graph.  Pairs off the weakest edges keep at least
    /// `dmin`, so the weakest edges among representatives that `p`
    /// separates are the new lowest level when there are any; otherwise one
    /// level is searched.  Returns the graph and the levels searched.
    ///
    /// # Panics
    ///
    /// If `p` is not one of the graph's machines.
    pub fn remap_states_removing(&self, mapping: &[u32], p: &Partition) -> (FaultGraph, usize) {
        debug_assert!(mapping.iter().all(|&x| (x as usize) < self.n));
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        let c = self
            .parts
            .iter()
            .position(|q| q == p)
            .expect("p is one of the graph's machines");
        let mut g = self.lifted(mapping, Some(c));
        let mut new_of = vec![usize::MAX; self.n];
        for (i, &a) in mapping.iter().enumerate() {
            new_of[a as usize] = i;
        }
        let mut offers = Vec::new();
        for &(a, b) in &self.weakest {
            let (a, b) = (a as usize, b as usize);
            let (i, j) = (new_of[a], new_of[b]);
            if i != usize::MAX && j != usize::MAX && p.separates(a, b) {
                offers.push((self.dmin - 1, i.min(j), i.max(j)));
            }
        }
        let levels = g.settle(self.dmin, offers);
        (g, levels)
    }

    /// This graph's machines pulled back along `mapping` (new state `i`
    /// sits in the block of old state `mapping[i]`), less one copy of
    /// `parts[drop]`; partitions that become equal merge.
    fn lifted(&self, mapping: &[u32], drop: Option<usize>) -> FaultGraph {
        let mut g = Self::empty(mapping.len());
        for (c, (q, &mu)) in self.parts.iter().zip(&self.mult).enumerate() {
            let copies = mu - u32::from(drop == Some(c));
            if copies > 0 {
                let blocks: Vec<usize> = mapping.iter().map(|&x| q.block_of(x as usize)).collect();
                g.insert(&Partition::from_assignment(&blocks), copies);
            }
        }
        g
    }

    /// Installs the lightest `(weight, i, j)` offers, which hold every
    /// pair lighter than `bound`, or searches from `bound` when there are
    /// none; returns the number of levels searched.
    fn settle(&mut self, bound: u32, offers: Vec<(u32, usize, usize)>) -> usize {
        let Some(w) = offers.iter().map(|o| o.0).min() else {
            return self.search_from(bound);
        };
        let level = offers.into_iter().filter(|o| o.0 == w);
        let pairs: Vec<_> = level.map(|(_, i, j)| (i as u32, j as u32)).collect();
        self.dmin = w;
        self.weakest = row_major(&pairs, self.n);
        0
    }

    /// Sets `dmin` and the weakest edges, given that no pair weighs less
    /// than `floor`; returns the number of levels searched.
    ///
    /// The lightest edge between consecutive states bounds `dmin`, so the
    /// levels up to its weight are all a search can need.  They are
    /// searched by subsets, unless counting or probing the subsets would
    /// cost more than the sweep costs cells; the sweep counts as one level.
    fn search_from(&mut self, floor: u32) -> usize {
        self.weakest.clear();
        self.dmin = u32::MAX;
        let n = self.n;
        if n < 2 {
            return 0;
        }
        let floor = floor as usize;
        let upper = (1..n).map(|i| self.pair_weight(i - 1, i)).min();
        let upper = upper.expect("two states make an edge") as usize;
        let k = self.parts.len().max(1);
        let sweep_cells = edges_in(n).saturating_mul(k);
        // A count table larger than the sweep's `k · n` block ids loses.
        if (k + 1).saturating_mul(upper + 1) > k * n {
            self.sweep();
            return 1;
        }
        let subsets = Subsets::new(&self.mult, upper);
        let count = (floor..=upper).fold(0u64, |t, d| t.saturating_add(subsets.ways(0, d)));
        if count.saturating_mul((n * PROBE_CELLS) as u64) > sweep_cells as u64 {
            self.sweep();
            return 1;
        }
        let mut signatures = Signatures::new(n, &self.parts);
        for d in floor..=upper {
            let pairs = signatures.collisions(&self.parts, &subsets, d);
            if !pairs.is_empty() {
                self.dmin = u32::try_from(d).expect("a weight never exceeds the machine count");
                self.weakest = row_major(&pairs, n);
                return d - floor + 1;
            }
        }
        unreachable!("no pair weighs less than {floor}, yet one weighs {upper}")
    }

    /// The row sweep: one reused `u16` row of weights per state.  Block ids
    /// are below `n`, so up to 2¹⁶ states they compare as `u16`.
    fn sweep(&mut self) {
        if let Some(cols) = self.columns::<u16>() {
            return self.sweep_columns(&cols);
        }
        let cols = self.columns::<u32>().expect("block ids are below n < 2³²");
        self.sweep_columns(&cols);
    }

    /// One column of block ids per partition; `None` if one does not fit.
    fn columns<T: TryFrom<usize>>(&self) -> Option<Vec<T>> {
        let mut cols = Vec::with_capacity(self.parts.len() * self.n);
        for &b in self.parts.iter().flat_map(|p| p.assignment()) {
            cols.push(T::try_from(b).ok()?);
        }
        Some(cols)
    }

    fn sweep_columns<T: Copy + PartialEq>(&mut self, cols: &[T]) {
        let n = self.n;
        let limit = "a graph holds at most DENSE_MACHINE_LIMIT machines";
        let mult: Vec<_> = self
            .mult
            .iter()
            .map(|&m| u16::try_from(m).expect(limit))
            .collect();
        let mut buf = vec![0u16; n];
        let mut best = u32::MAX;
        for i in 0..n - 1 {
            let row = &mut buf[..n - i - 1];
            row.fill(0);
            // Four partitions per pass over the row cut its load/store
            // traffic; the ones left over get a pass each.
            for (quad, mu) in cols.chunks_exact(4 * n).zip(mult.chunks_exact(4)) {
                let c: [&[T]; 4] = std::array::from_fn(|x| &quad[x * n + i..(x + 1) * n]);
                let cells = c[0][1..]
                    .iter()
                    .zip(&c[1][1..])
                    .zip(&c[2][1..])
                    .zip(&c[3][1..]);
                let (a, m) = (c.map(|col| col[0]), [mu[0], mu[1], mu[2], mu[3]]);
                for (w, (((&b0, &b1), &b2), &b3)) in row.iter_mut().zip(cells) {
                    *w += m[0] * u16::from(b0 != a[0]) + m[1] * u16::from(b1 != a[1]);
                    *w += m[2] * u16::from(b2 != a[2]) + m[3] * u16::from(b3 != a[3]);
                }
            }
            let rest = mult.len() / 4 * 4;
            for (col, &mu) in cols.chunks_exact(n).zip(&mult).skip(rest) {
                let own = col[i];
                for (w, &b) in row.iter_mut().zip(&col[i + 1..]) {
                    *w += mu * u16::from(b != own);
                }
            }
            let low = u32::from(*row.iter().min().expect("rows before the last have cells"));
            if low < best {
                best = low;
                self.weakest.clear();
            }
            if low == best {
                let at_best = row
                    .iter()
                    .zip(i + 1..)
                    .filter(|&(&w, _)| u32::from(w) == best);
                self.weakest
                    .extend(at_best.map(|(_, j)| (i as u32, j as u32)));
            }
        }
        self.dmin = best;
    }

    /// The weight of pair `(i, j)`, `i ≠ j`, from the kept partitions.
    fn pair_weight(&self, i: usize, j: usize) -> u32 {
        let parts = self.parts.iter().zip(&self.mult);
        parts
            .map(|(p, &mu)| mu * u32::from(p.separates(i, j)))
            .sum()
    }

    /// Every pair `(i, j)`, `i < j`, in row-major order.
    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| (i + 1..self.n).map(move |j| (i, j)))
    }

    /// The distance `d(ti, tj)` between two states (Definition 4), summed
    /// over the kept partitions in `O(k)`.
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
        self.pair_weight(i, j)
    }

    /// The minimum edge weight `dmin`, kept by every update; `u32::MAX` for
    /// a single-state `⊤`, which has no pair of states to confuse.
    pub fn dmin(&self) -> u32 {
        self.dmin
    }

    /// All edges whose weight equals `dmin` — the "weakest edges" Algorithm 2
    /// must cover with every machine it adds — in row-major order.
    pub fn weakest_edges(&self) -> Vec<(usize, usize)> {
        let edges = self.weakest.iter();
        edges.map(|&(i, j)| (i as usize, j as usize)).collect()
    }

    /// The weakest edges as the graph keeps them, `(i, j)` with `i < j` in
    /// row-major order: what [`FaultGraph::weakest_edges`] copies out.
    pub(crate) fn weakest_pairs(&self) -> &[(u32, u32)] {
        &self.weakest
    }

    /// All edges with exactly the given weight, by a per-pair sweep.
    pub fn edges_with_weight(&self, w: u32) -> Vec<(usize, usize)> {
        let at_w = self.pairs().filter(|&(i, j)| self.pair_weight(i, j) == w);
        at_w.collect()
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
        match self.max_crash_faults() {
            usize::MAX => usize::MAX,
            crash => crash / 2,
        }
    }

    /// Whether a candidate machine separates every one of the given edges:
    /// for the weakest edges, whether adding it increases `dmin` (the test
    /// on line 6 of Algorithm 2).
    pub fn covers_all(candidate: &Partition, edges: &[(usize, usize)]) -> bool {
        edges.iter().all(|&(i, j)| candidate.separates(i, j))
    }

    /// Would adding `candidate` increase `dmin`?  Iff it separates every
    /// weakest edge (weights move by at most one per added machine): one
    /// early-exiting pass over the kept list.
    pub fn speculate(&self, candidate: &Partition) -> bool {
        assert_eq!(
            candidate.len(),
            self.n,
            "partition over wrong number of states"
        );
        // No edges: `dmin` is already maximal.
        let mut edges = self.weakest.iter();
        !self.weakest.is_empty() && edges.all(|&(i, j)| candidate.separates(i as usize, j as usize))
    }

    /// A histogram of edge weights, by a per-pair sweep — for reports and
    /// for reproducing the paper's Figure 4 numbers.
    pub fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut out = std::collections::BTreeMap::new();
        for (i, j) in self.pairs() {
            *out.entry(self.pair_weight(i, j)).or_insert(0) += 1;
        }
        out
    }
}

/// Sorts distinct pairs `(i, j)`, `i < j < n`, into row-major order: a
/// counting sort by row, then each (short) row by column.
fn row_major(pairs: &[(u32, u32)], n: usize) -> Vec<(u32, u32)> {
    let mut start = vec![0usize; n + 1];
    for &(i, _) in pairs {
        start[i as usize + 1] += 1;
    }
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut out = vec![(0, 0); pairs.len()];
    for &(i, j) in pairs {
        out[fill[i as usize]] = (i, j);
        fill[i as usize] += 1;
    }
    for r in 0..n {
        out[start[r]..start[r + 1]].sort_unstable();
    }
    out
}

/// The sets `S` of distinct partitions (by index) by their weight `μ(S)`,
/// up to a bound: counted, and enumerated per weight without trying dead
/// ends.
struct Subsets<'a> {
    mult: &'a [u32],
    upper: usize,
    /// `ways[c · (upper + 1) + w]`: the subsets of partitions `c..` of
    /// weight `w` (saturating).
    ways: Vec<u64>,
}

impl<'a> Subsets<'a> {
    fn new(mult: &'a [u32], upper: usize) -> Self {
        let (k, row) = (mult.len(), upper + 1);
        let mut ways = vec![0u64; (k + 1) * row];
        ways[k * row] = 1;
        for c in (0..k).rev() {
            let m = mult[c] as usize;
            for w in 0..row {
                let with = if w >= m {
                    ways[(c + 1) * row + w - m]
                } else {
                    0
                };
                ways[c * row + w] = ways[(c + 1) * row + w].saturating_add(with);
            }
        }
        Subsets { mult, upper, ways }
    }

    /// Subsets of partitions `c..` of weight `w ≤ upper`.
    fn ways(&self, c: usize, w: usize) -> u64 {
        self.ways[c * (self.upper + 1) + w]
    }

    /// Calls `visit` on every subset of weight `d ≤ upper`, as ascending
    /// indices.
    fn for_each(&self, d: usize, mut visit: impl FnMut(&[usize])) {
        if self.ways(0, d) == 0 {
            return;
        }
        let mut chosen: Vec<usize> = Vec::new();
        let (mut c, mut rest) = (0, d);
        // Invariant: some subset of partitions `c..` weighs `rest`.  Each
        // step takes the first partition that still leads to one.
        loop {
            if rest > 0 {
                let fits = |x: &usize| {
                    let m = self.mult[*x] as usize;
                    m <= rest && self.ways(x + 1, rest - m) > 0
                };
                let next = (c..self.mult.len())
                    .find(fits)
                    .expect("the invariant holds");
                chosen.push(next);
                rest -= self.mult[next] as usize;
                c = next + 1;
                continue;
            }
            visit(&chosen);
            // Backtrack: drop the latest partition and go on without it.
            loop {
                let Some(last) = chosen.pop() else {
                    return;
                };
                rest += self.mult[last] as usize;
                if self.ways(last + 1, rest) > 0 {
                    c = last + 1;
                    break;
                }
            }
        }
    }
}

/// The hashed block-id signatures of a level search: a random word per
/// block of every partition, and per state the sum of its blocks' words.
/// The signature over the partitions outside `S` is that sum less the
/// words of `S`; equal signatures are confirmed block by block.
struct Signatures {
    /// `word[offset[c] + b]` stands for block `b` of partition `c`.
    word: Vec<u64>,
    offset: Vec<usize>,
    full: Vec<u64>,
    /// An open-addressing table from a signature (`key`) to the latest
    /// state of its group (`last`); `prev` links each state to the one
    /// before it in its group.
    key: Vec<u64>,
    last: Vec<u32>,
    prev: Vec<u32>,
}

/// An empty table slot, or the first state of a group.
const NONE: u32 = u32::MAX;

impl Signatures {
    fn new(n: usize, parts: &[Partition]) -> Self {
        let (mut seed, mut word, mut offset) = (0x5EED_F00D_u64, Vec::new(), Vec::new());
        let mut full = vec![0u64; n];
        for p in parts {
            let base = word.len();
            offset.push(base);
            word.extend((0..p.num_blocks()).map(|_| splitmix64(&mut seed)));
            for (s, &b) in full.iter_mut().zip(p.assignment()) {
                *s = s.wrapping_add(word[base + b]);
            }
        }
        let slots = (2 * n).next_power_of_two();
        let (key, last, prev) = (vec![0; slots], vec![NONE; slots], vec![NONE; n]);
        Signatures {
            word,
            offset,
            full,
            key,
            last,
            prev,
        }
    }

    /// Every pair of states that agrees on all partitions outside some
    /// subset of weight `d`, as `(i, j)` with `i < j`, unordered.
    fn collisions(
        &mut self,
        parts: &[Partition],
        subsets: &Subsets<'_>,
        d: usize,
    ) -> Vec<(u32, u32)> {
        let mask = self.last.len() - 1;
        let shift = 64 - self.last.len().trailing_zeros();
        let mut inside = vec![false; parts.len()];
        let mut pairs = Vec::new();
        subsets.for_each(d, |s| {
            self.last.fill(NONE);
            s.iter().for_each(|&c| inside[c] = true);
            for (i, &full) in self.full.iter().enumerate() {
                let words = s
                    .iter()
                    .map(|&c| self.word[self.offset[c] + parts[c].block_of(i)]);
                let sig = words.fold(full, u64::wrapping_sub);
                let mut slot = (sig >> shift) as usize;
                let mut t = self.last[slot];
                while t != NONE {
                    let same =
                        |(p, &skip): (&Partition, &bool)| skip || !p.separates(t as usize, i);
                    if self.key[slot] == sig && parts.iter().zip(&inside).all(same) {
                        break;
                    }
                    slot = (slot + 1) & mask;
                    t = self.last[slot];
                }
                self.key[slot] = sig;
                self.prev[i] = t;
                self.last[slot] = i as u32;
                while t != NONE {
                    pairs.push((t, i as u32));
                    t = self.prev[t as usize];
                }
            }
            s.iter().for_each(|&c| inside[c] = false);
        });
        pairs
    }
}

/// SplitMix64: the next word of a deterministic pseudo-random sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_oracle;

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
        let machines = [a.clone(), b.clone()];
        let g = FaultGraph::from_partitions(4, &machines);
        let weak = g.weakest_edges();
        for candidate in [&a, &b, &m1, &m2] {
            let direct = scan_oracle::addition_increases_dmin(4, &machines, candidate);
            assert_eq!(
                FaultGraph::covers_all(candidate, &weak),
                direct,
                "candidate {candidate}"
            );
            assert_eq!(g.speculate(candidate), direct, "candidate {candidate}");
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
    fn add_machine_matches_the_scan_oracle() {
        // Mod-3 blocks, then the singletons: the second add separates every
        // weakest edge of the first, so dmin rises and a level is searched.
        let n = 70;
        let assignment: Vec<usize> = (0..n).map(|x| x % 3).collect();
        let machines = [
            Partition::from_assignment(&assignment),
            Partition::singletons(n),
        ];
        let mut g = FaultGraph::new(n);
        for p in &machines {
            g.add_machine(p);
        }
        assert_eq!(g.dmin(), 1);
        assert_same_graph(&g, &FaultGraph::from_partitions(n, &machines));
        let scan = scan_oracle::weight_histogram(n, &machines);
        assert_eq!(g.weight_histogram(), scan);
    }

    #[test]
    fn incremental_trackers_match_full_scans() {
        // Interleave adds and queries; the kept dmin and weakest edges
        // must match the per-pair scans at every step.
        let n = 70;
        let machines: Vec<Partition> = (0..4)
            .map(|k| {
                Partition::from_assignment(&(0..n).map(|x| (x + k) % (k + 2)).collect::<Vec<_>>())
            })
            .collect();
        let mut g = FaultGraph::new(n);
        for (k, p) in machines.iter().enumerate() {
            g.add_machine(p);
            let added = &machines[..=k];
            assert_eq!(g.dmin(), scan_oracle::dmin(n, added));
            assert_eq!(g.weakest_edges(), scan_oracle::weakest_edges(n, added));
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

    /// The machines of `g`, each kept partition repeated by its
    /// multiplicity.
    fn machines_of(g: &FaultGraph) -> Vec<Partition> {
        let kept = g.parts.iter().zip(&g.mult);
        kept.flat_map(|(p, &mu)| vec![p.clone(); mu as usize])
            .collect()
    }

    /// The same observables, and `a`'s kept index equal to the per-pair
    /// scans over its machines.
    fn assert_same_graph(a: &FaultGraph, b: &FaultGraph) {
        let (n, machines) = (a.num_states(), machines_of(a));
        assert_eq!(n, b.num_states());
        assert_eq!(a.num_machines(), b.num_machines());
        assert_eq!(a.dmin(), b.dmin());
        assert_eq!(a.dmin(), scan_oracle::dmin(n, &machines));
        assert_eq!(a.weakest_edges(), b.weakest_edges());
        let scan = scan_oracle::weakest_edges(n, &machines);
        assert_eq!(a.weakest_edges(), scan);
        assert_eq!(a.weight_histogram(), b.weight_histogram());
    }

    /// `p` pulled back along `mapping`: new state `i` sits in the block of
    /// old state `mapping[i]`.
    fn lift(p: &Partition, mapping: &[u32]) -> Partition {
        let a = p.assignment();
        Partition::from_assignment(&mapping.iter().map(|&x| a[x as usize]).collect::<Vec<_>>())
    }

    #[test]
    fn remap_states_adding_matches_two_step_sequence() {
        // The lift-and-add must equal the two steps done cold on the new
        // state space: build the graph of the lifted machines, then add
        // the new one.  It searches a level exactly when dmin rose past
        // the kept level.  The surjective mapping (fibers of size > 1)
        // models a product extension; the bijective one a replica joining.
        let n_old = 10;
        let machines = delta_family(n_old);
        let g = FaultGraph::from_partitions(n_old, &machines);
        let bijection: Vec<u32> = (0..n_old as u32).rev().collect();
        let mut cases = vec![(bijection, machines[1].clone())];
        for n_new in [63, 64, 65, 127, 129] {
            let mapping: Vec<u32> = (0..n_new)
                .map(|i| ((i * 7 + i / 3) % n_old) as u32)
                .collect();
            cases.push((mapping, delta_family(n_new)[2].clone()));
        }
        for (mapping, added) in &cases {
            let (fused, levels) = g.remap_states_adding(mapping, added);
            let lifted: Vec<Partition> = machines.iter().map(|p| lift(p, mapping)).collect();
            let mut two_step = FaultGraph::from_partitions(mapping.len(), &lifted);
            two_step.add_machine(added);
            assert_eq!(fused.num_machines(), machines.len() + 1);
            assert_same_graph(&fused, &two_step);
            assert_eq!(levels == 0, fused.dmin() <= g.dmin(), "n={}", mapping.len());
        }
    }

    #[test]
    fn remap_states_removing_matches_two_step_sequence() {
        // The remove-and-contract must equal the two steps done cold: drop
        // the machine, then build the graph of the survivors lifted onto
        // the contracted space.  The injective, non-surjective mapping
        // models the contraction after a machine removal (representatives
        // only, old fibers dropped).  It searches a level exactly when the
        // kept weakest edges cannot show the new dmin: when dmin did not
        // fall.
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
                let (fused, levels) = g.remap_states_removing(&mapping, &machines[k]);
                let survivors: Vec<Partition> = (0..machines.len())
                    .filter(|&i| i != k)
                    .map(|i| lift(&machines[i], &mapping))
                    .collect();
                let two_step = FaultGraph::from_partitions(n_new, &survivors);
                assert_eq!(fused.num_machines(), machines.len() - 1);
                assert_same_graph(&fused, &two_step);
                assert_eq!(levels == 0, fused.dmin() < g.dmin(), "n_new={n_new} k={k}");
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
    fn bulk_build_matches_incremental_adds() {
        // Word boundaries (63/64/65, 128/129), the edge-less graphs and the
        // empty family; 24 machines repeat partitions.
        for n in [0, 1, 2, 63, 64, 65, 128, 129, 200] {
            for m in [0, 1, 5, 24] {
                let parts: Vec<Partition> = (0..m).map(|k| mixed_partition(n, k)).collect();
                let bulk = FaultGraph::from_partitions(n, &parts);
                let mut tracked = FaultGraph::new(n);
                for p in &parts {
                    tracked.add_machine(p);
                }
                assert_eq!(bulk.num_machines(), tracked.num_machines(), "n={n} m={m}");
                assert_eq!(bulk.dmin(), tracked.dmin(), "n={n} m={m}");
                assert_eq!(bulk.weakest_edges(), tracked.weakest_edges(), "n={n} m={m}");
                assert_eq!(
                    bulk.weakest_edges(),
                    scan_oracle::weakest_edges(n, &parts),
                    "n={n} m={m}"
                );
            }
        }
    }

    /// Level `d` of `g` by the subset search alone, row-major.
    fn level_by_subsets(g: &FaultGraph, d: usize) -> Vec<(usize, usize)> {
        let subsets = Subsets::new(&g.mult, d);
        let pairs = Signatures::new(g.n, &g.parts).collisions(&g.parts, &subsets, d);
        row_major(&pairs, g.n)
            .into_iter()
            .map(|(i, j)| (i as usize, j as usize))
            .collect()
    }

    #[test]
    fn level_search_and_row_sweep_return_the_same_list() {
        // Twelve near-singleton partitions of 40 states (dmin is large,
        // the build's choice is the sweep) and four counters of 81 states
        // (dmin 1, the build's choice is the subset search): on each, the
        // sweep and the subset search at dmin give the per-pair scan's
        // list, and the subset search finds nothing below dmin.
        let mut seed = 17u64;
        let near_singletons: Vec<Partition> = (0..12)
            .map(|_| {
                Partition::from_assignment(
                    &(0..40)
                        .map(|_| (splitmix64(&mut seed) % 30) as usize)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let counters: Vec<Partition> = (0..4)
            .map(|c| {
                Partition::from_assignment(
                    &(0..81).map(|x| (x / 3usize.pow(c)) % 3).collect::<Vec<_>>(),
                )
            })
            .collect();
        for (parts, n, low) in [(near_singletons, 40, 8), (counters, 81, 1)] {
            let g = FaultGraph::from_partitions(n, &parts);
            let d = g.dmin() as usize;
            assert!(d >= low, "dmin {d}");
            let scan = scan_oracle::weakest_edges(n, &parts);
            assert_eq!(g.weakest_edges(), scan);
            let mut swept = g.clone();
            swept.sweep();
            assert_eq!(swept.dmin() as usize, d);
            assert_eq!(swept.weakest_edges(), scan);
            // The `u32` block columns that graphs past 2¹⁶ states sweep.
            let mut wide = g.clone();
            wide.sweep_columns(&g.columns::<u32>().unwrap());
            assert_eq!(wide.weakest_edges(), scan);
            assert_eq!(level_by_subsets(&g, d), scan);
            for lower in 0..d {
                assert!(level_by_subsets(&g, lower).is_empty(), "level {lower}");
            }
        }
    }

    #[test]
    fn subsets_enumerate_each_subset_of_a_weight_once() {
        let mult = [3u32, 1, 2, 1, 3];
        let subsets = Subsets::new(&mult, 10);
        for d in 0..=10 {
            let mut seen = Vec::new();
            subsets.for_each(d, |s| seen.push(s.to_vec()));
            let mut expected: Vec<Vec<usize>> = (0u32..32)
                .map(|bits| (0..5).filter(|&c| bits >> c & 1 == 1).collect::<Vec<_>>())
                .filter(|s| s.iter().map(|&c| mult[c] as usize).sum::<usize>() == d)
                .collect();
            assert_eq!(subsets.ways(0, d), expected.len() as u64, "d={d}");
            seen.sort();
            expected.sort();
            assert_eq!(seen, expected, "d={d}");
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
