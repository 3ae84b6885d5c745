//! Test-only element-scan oracles for the partition, closure, fault-graph
//! and Algorithm-2 paths of `fsm-fusion-core`.
//!
//! Each function is the plain per-element or per-pair scan, with tree and
//! hash maps where the library uses flat tables, and depends on no
//! library internals: the fault-graph oracles take the state count and the
//! machines' partitions and count separating machines pair by pair.
//!
//! Shared by the integration tests (`mod scan_oracle;` through a `#[path]`
//! attribute) and by `fsm-fusion-core`'s unit tests, which see their own
//! crate under the `fsm_fusion_core` name.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use fsm_dfsm::{Dfsm, EventId, StateId};
use fsm_fusion_core::{GenerationStats, Partition};

/// A minimal union-find over `0..n`, without ranks or path compression.
struct Components(Vec<usize>);

impl Components {
    fn new(n: usize) -> Self {
        Components((0..n).collect())
    }

    fn find(&self, mut x: usize) -> usize {
        while self.0[x] != x {
            x = self.0[x];
        }
        x
    }

    /// Joins the components of `x` and `y`; whether they were apart.
    fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx != ry {
            self.0[rx] = ry;
        }
        rx != ry
    }

    fn into_partition(self) -> Partition {
        let roots: Vec<usize> = (0..self.0.len()).map(|x| self.find(x)).collect();
        from_assignment(&roots)
    }
}

/// [`Partition::from_assignment`] with a `BTreeMap` relabel.
pub fn from_assignment(assignment: &[usize]) -> Partition {
    let mut canon: BTreeMap<usize, usize> = BTreeMap::new();
    let mut canonical = Vec::with_capacity(assignment.len());
    for &label in assignment {
        let next = canon.len();
        canonical.push(*canon.entry(label).or_insert(next));
    }
    // The labels are already first-occurrence ordered, so the constructor
    // cannot change them.
    Partition::from_assignment(&canonical)
}

/// [`Partition::le`]: one representative per block of `other`, checked
/// element by element.
pub fn le(p: &Partition, other: &Partition) -> bool {
    assert_eq!(p.len(), other.len(), "partitions over different sets");
    let mut rep: Vec<Option<usize>> = vec![None; other.num_blocks()];
    for x in 0..p.len() {
        let ob = other.block_of(x);
        match rep[ob] {
            None => rep[ob] = Some(p.block_of(x)),
            Some(b) if b == p.block_of(x) => {}
            Some(_) => return false,
        }
    }
    true
}

/// [`Partition::meet`]: a union-find seeded through two `BTreeMap`s of
/// first-seen block members.
pub fn meet(p: &Partition, other: &Partition) -> Partition {
    assert_eq!(p.len(), other.len(), "partitions over different sets");
    let mut uf = Components::new(p.len());
    let mut first_in_self: BTreeMap<usize, usize> = BTreeMap::new();
    let mut first_in_other: BTreeMap<usize, usize> = BTreeMap::new();
    for x in 0..p.len() {
        let y = *first_in_self.entry(p.block_of(x)).or_insert(x);
        uf.union(x, y);
        let y = *first_in_other.entry(other.block_of(x)).or_insert(x);
        uf.union(x, y);
    }
    uf.into_partition()
}

/// [`Partition::join`]: block-index pairs relabelled through a `BTreeMap`.
pub fn join(p: &Partition, other: &Partition) -> Partition {
    assert_eq!(p.len(), other.len(), "partitions over different sets");
    let mut canon: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut assignment = Vec::with_capacity(p.len());
    for x in 0..p.len() {
        let next = canon.len();
        let pair = (p.block_of(x), other.block_of(x));
        assignment.push(*canon.entry(pair).or_insert(next));
    }
    from_assignment(&assignment)
}

/// `fsm_fusion_core::close`: a fixpoint with a per-event `HashMap` from
/// class representative to successor-class representative.
///
/// # Panics
///
/// If `partition` does not partition the states of `machine`.
pub fn close(machine: &Dfsm, partition: &Partition) -> Partition {
    let n = machine.size();
    assert_eq!(partition.len(), n, "partition over wrong number of states");
    let mut uf = Components::new(n);
    let mut first_of_block: Vec<Option<usize>> = vec![None; partition.num_blocks()];
    for x in 0..n {
        let first = first_of_block[partition.block_of(x)].get_or_insert(x);
        uf.union(x, *first);
    }
    // Whenever two states share a class, their successors under each event
    // must share a class too.
    let mut changed = true;
    while changed {
        changed = false;
        for e in 0..machine.alphabet().len() {
            let mut succ_of_class: HashMap<usize, usize> = HashMap::with_capacity(n);
            for x in 0..n {
                let succ = uf.find(machine.next(StateId(x), EventId(e)).index());
                let existing = *succ_of_class.entry(uf.find(x)).or_insert(succ);
                changed |= uf.union(existing, succ);
            }
        }
    }
    uf.into_partition()
}

/// The weight of the fault-graph edge `(i, j)`: how many of `machines`
/// separate `i` and `j`.
pub fn weight(machines: &[Partition], i: usize, j: usize) -> u32 {
    machines.iter().filter(|p| p.separates(i, j)).count() as u32
}

/// Every pair `(i, j)`, `i < j < n`, in row-major order.
fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
}

/// `dmin` of the fault graph of `machines` over `n` states, by a per-pair
/// scan; `u32::MAX` when there are fewer than two states.
pub fn dmin(n: usize, machines: &[Partition]) -> u32 {
    let weights = pairs(n).map(|(i, j)| weight(machines, i, j));
    weights.min().unwrap_or(u32::MAX)
}

/// The edges of weight [`dmin`], in row-major order.
pub fn weakest_edges(n: usize, machines: &[Partition]) -> Vec<(usize, usize)> {
    let d = dmin(n, machines);
    let weakest = pairs(n).filter(|&(i, j)| weight(machines, i, j) == d);
    weakest.collect()
}

/// The histogram of edge weights, by a per-pair scan.
pub fn weight_histogram(n: usize, machines: &[Partition]) -> BTreeMap<u32, usize> {
    let mut out = BTreeMap::new();
    for (i, j) in pairs(n) {
        *out.entry(weight(machines, i, j)).or_insert(0) += 1;
    }
    out
}

/// Whether adding `candidate` to `machines` raises [`dmin`].
pub fn addition_increases_dmin(n: usize, machines: &[Partition], candidate: &Partition) -> bool {
    let mut grown = machines.to_vec();
    grown.push(candidate.clone());
    dmin(n, &grown) > dmin(n, machines)
}

/// Algorithm 2 (`fsm_fusion_core::generate_fusion`): the same greedy
/// descent over every pairwise block merge, scoring each candidate with
/// [`close`] against the weakest edges of [`weakest_edges`].
/// Returns the fusion partitions and the statistics (`elapsed_micros` is
/// left 0).
pub fn generate_fusion(
    top: &Dfsm,
    originals: &[Partition],
    f: usize,
) -> (Vec<Partition>, GenerationStats) {
    let n = top.size();
    let mut machines = originals.to_vec();
    let mut stats = GenerationStats {
        initial_dmin: dmin(n, &machines),
        ..Default::default()
    };
    let mut partitions: Vec<Partition> = Vec::new();
    while dmin(n, &machines) as u128 <= f as u128 {
        let weakest = weakest_edges(n, &machines);
        let mut current = Partition::singletons(n);
        'descend: loop {
            stats.descent_steps += 1;
            let k = current.num_blocks();
            for b1 in 0..k {
                for b2 in (b1 + 1)..k {
                    stats.candidates_examined += 1;
                    let candidate = close(top, &current.merge_blocks(b1, b2));
                    if weakest.iter().all(|&(i, j)| candidate.separates(i, j)) {
                        current = candidate;
                        continue 'descend;
                    }
                }
            }
            break;
        }
        machines.push(current.clone());
        partitions.push(current);
        stats.outer_iterations += 1;
    }
    stats.final_dmin = dmin(n, &machines);
    (partitions, stats)
}
