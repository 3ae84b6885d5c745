//! [`FusionSession`] — the stateful, explicitly configured entry point to
//! fusion generation.
//!
//! The free functions ([`crate::generate_fusion`],
//! [`crate::enumerate_lattice`], …) re-derive everything on every call:
//! they rebuild the closure kernel and scratch buffers and recompute every
//! candidate closure from nothing.  A `FusionSession` — built once from a
//! [`FusionConfig`] — owns all of that across calls:
//!
//! * the resolved worker count and product strategy (environment resolved
//!   **once**, at config build, and only as the `Auto` fallback),
//! * one [`CloseScratch`] serving every closure of the session's lifetime,
//! * the [`ClosureKernel`] of the current top machine, rebuilt only when
//!   the top machine actually changes,
//! * a [`fsm_dfsm::ProductBuilder`] configuration for
//!   [`FusionSession::build_product`],
//! * and a **cross-call closure cache** keyed by packed partition
//!   fingerprints: repeated [`FusionSession::lower_cover`] /
//!   [`FusionSession::enumerate_lattice`] walks over the same `⊤` reuse the
//!   lower-cover closures computed by earlier walks instead of running the
//!   fixpoint again.  Cache hits replace a union-find closure fixpoint with
//!   one buffer copy; the cache never changes results, only speed
//!   (`tests/session_properties.rs` pins cached and cold runs
//!   bit-identical).  [`FusionSession::update_top`] drops the cached
//!   closures and evolves only the initial fault graph.
//!
//! Algorithm 2's descent ([`FusionSession::generate_fusion`]) uses only the
//! cache's **initial-fault-graph slot**: an `f` sweep over the same
//! `(⊤, originals)` clones the graph instead of rebuilding it.  Its
//! candidate merges are scored on the quotient machine
//! ([`crate::closed::QuotientLevel`]), which costs less than a cache probe
//! plus an `n`-element copy, so they neither read nor fill the closure
//! cache.
//!
//! ## Quick example
//!
//! ```
//! use fsm_fusion_core::FusionConfig;
//! # use fsm_dfsm::DfsmBuilder;
//! # let mut machines = Vec::new();
//! # for (name, event) in [("A", "0"), ("B", "1")] {
//! #     let mut b = DfsmBuilder::new(name);
//! #     for i in 0..3 { b.add_state(format!("{name}{i}")); }
//! #     b.set_initial(format!("{name}0"));
//! #     for i in 0..3 {
//! #         b.add_transition(format!("{name}{i}"), event, format!("{name}{}", (i + 1) % 3));
//! #     }
//! #     b.add_self_loops(if event == "0" { "1" } else { "0" });
//! #     machines.push(b.build().unwrap());
//! # }
//!
//! // `machines` are the paper's Figure-1 mod-3 counters.
//! let mut session = FusionConfig::new().build();
//! let (product, fusion) = session.generate_fusion_for_machines(&machines, 1).unwrap();
//! assert_eq!(product.size(), 9);
//! assert_eq!(fusion.machine_sizes(), vec![3]);
//!
//! // A second call over the same `⊤` reuses the cached initial fault graph.
//! let originals = fsm_fusion_core::projection_partitions(&product);
//! let again = session.generate_fusion(product.top(), &originals, 2).unwrap();
//! assert_eq!(again.len(), 2);
//! assert_eq!(session.cache_stats().graph_hits, 1);
//!
//! // Lattice walks fill the closure cache; repeating one is answered from it.
//! let top = fsm_fusion_core::Partition::singletons(product.size());
//! let cover = session.lower_cover(product.top(), &top).unwrap();
//! assert_eq!(session.lower_cover(product.top(), &top).unwrap(), cover);
//! assert!(session.cache_stats().hits > 0);
//! ```

use std::collections::HashMap;

use fsm_dfsm::{Dfsm, ProductBuilder, ReachableProduct, StateId};

use crate::closed::{CloseScratch, ClosureKernel};
use crate::config::{CachePolicy, FusionConfig, ProductStrategy};
use crate::delta::{TopDelta, UpdateStats};
use crate::error::{FusionError, Result};
use crate::fault_graph::{FaultGraph, WeightRepr};
use crate::generate::{seq_engine, FusionGeneration};
use crate::lattice::{enumerate_lattice_impl, lower_cover_impl, ClosedPartitionLattice};
use crate::partition::Partition;
use crate::set_repr::projection_partitions;

/// Running counters of the session's closure cache.
///
/// `hits + misses` is the number of cache consultations (one per
/// lower-cover closure while the cache is enabled — Algorithm 2's descent
/// never consults it); `insertions` counts stored closures; `clears`
/// counts whole-cache resets (top machine changed or an explicit
/// [`FusionSession::clear_cache`]); `evicted` counts entries dropped by
/// bound evictions and [`FusionSession::update_top`] deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lower-cover closures answered from the cache.
    pub hits: u64,
    /// Lower-cover closures that had to run the fixpoint.
    pub misses: u64,
    /// Closures stored into the cache.
    pub insertions: u64,
    /// Whole-cache resets.
    pub clears: u64,
    /// Entries (level assignments and merge closures) dropped one level
    /// at a time — oldest first to make room under the element bound, or
    /// all at once by a [`crate::TopDelta`] that changed `⊤`.
    pub evicted: u64,
    /// Initial fault graphs answered from the cached copy (same `⊤` and
    /// same originals as a previous call, e.g. along an `f` sweep).
    pub graph_hits: u64,
    /// Initial fault graphs that had to be rebuilt from the originals.
    pub graph_misses: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "closure cache: {} hits / {} misses, {} inserted, {} evicted, \
             {} clears, graph {} hits / {} misses",
            self.hits,
            self.misses,
            self.insertions,
            self.evicted,
            self.clears,
            self.graph_hits,
            self.graph_misses,
        )
    }
}

/// SplitMix64-style avalanche step for the partition fingerprints.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Packed fingerprint of a partition's canonical block assignment.
fn fingerprint(assignment: &[usize]) -> u64 {
    let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ (assignment.len() as u64);
    for &b in assignment {
        acc = mix(acc ^ (b as u64).wrapping_add(0xA076_1D64_78BD_642F));
    }
    acc
}

/// Cached merges of one lattice level: the closures of pairwise block
/// merges of one closed partition.
struct LevelEntry {
    /// Full canonical assignment of the level's partition, verified on
    /// every lookup so a fingerprint collision can only cost performance
    /// (the colliding level bypasses the cache), never correctness.
    assignment: Vec<u32>,
    /// `(b1 << 32 | b2)` → closed merge.
    merges: HashMap<u64, Partition>,
    /// Insertion order, for oldest-first eviction under the bound.
    seq: u64,
}

impl LevelEntry {
    /// Cached elements this level accounts for: its assignment plus every
    /// stored merge closure.
    fn elements(&self) -> usize {
        self.assignment.len() + self.merges.values().map(Partition::len).sum::<usize>()
    }
}

/// The cross-call closure cache: partition-fingerprint → level entry →
/// per-merge closed partitions, bounded by a total cached-element budget.
pub(crate) struct ClosureCache {
    levels: HashMap<u64, LevelEntry>,
    /// Maximum total cached elements (assignments of levels + merges).
    bound: usize,
    /// Current total cached elements.
    elements: usize,
    /// Monotone insertion counter backing [`LevelEntry::seq`].
    next_seq: u64,
    /// One cached initial fault graph: `(n, originals, graph)`.  Every
    /// generation starts by folding the originals into a fresh graph —
    /// `O(m · n²)` word work that is identical across an `f` sweep — so
    /// the session keeps the last one and clones it out on an exact
    /// originals match (a single slot, deliberately outside the element
    /// bound).
    graph: Option<(usize, Vec<Partition>, FaultGraph)>,
    stats: CacheStats,
}

impl ClosureCache {
    fn new(bound: usize) -> Self {
        ClosureCache {
            levels: HashMap::new(),
            bound,
            elements: 0,
            next_seq: 0,
            graph: None,
            stats: CacheStats::default(),
        }
    }

    /// Evicts whole oldest levels (never the one named by `keep`) until
    /// `needed` more elements fit under the bound.  Returns whether they
    /// do — `false` means the insertion itself is oversized and must be
    /// skipped rather than cold-starting the cache.
    fn evict_until(&mut self, needed: usize, keep: Option<u64>) -> bool {
        while self.elements + needed > self.bound {
            let oldest = self
                .levels
                .iter()
                .filter(|&(fp, _)| Some(*fp) != keep)
                .min_by_key(|&(_, e)| e.seq)
                .map(|(&fp, _)| fp);
            match oldest {
                Some(fp) => {
                    let entry = self.levels.remove(&fp).expect("picked from the map");
                    self.elements -= entry.elements();
                    self.stats.evicted += 1 + entry.merges.len() as u64;
                }
                None => return false,
            }
        }
        true
    }

    /// Drops every cached closure and the cached fault graph (counted in
    /// [`CacheStats::clears`]); the counters themselves survive.
    pub(crate) fn clear(&mut self) {
        self.levels.clear();
        self.elements = 0;
        self.graph = None;
        self.stats.clears += 1;
    }

    /// The fault graph of `originals` over an `n`-state `⊤`: a clone of
    /// the cached copy when `originals` matches the last call **exactly**
    /// (full `Vec<Partition>` equality, so a hit is bit-identical to a
    /// rebuild by construction), a fresh build otherwise.
    pub(crate) fn initial_graph(&mut self, n: usize, originals: &[Partition]) -> FaultGraph {
        if let Some((gn, key, g)) = &self.graph {
            if *gn == n && key.as_slice() == originals {
                self.stats.graph_hits += 1;
                return g.clone();
            }
        }
        let g = FaultGraph::from_partitions(n, originals);
        self.graph = Some((n, originals.to_vec(), g.clone()));
        self.stats.graph_misses += 1;
        g
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resolves the cache key of one lattice level (the closed partition
    /// whose lower cover is being computed), creating the entry on first
    /// sight.  Returns `None` when a fingerprint collision
    /// makes the cache unusable for this level.
    pub(crate) fn level_key(&mut self, current: &Partition) -> Option<u64> {
        let assignment = current.assignment();
        let fp = fingerprint(assignment);
        if let Some(entry) = self.levels.get(&fp) {
            let same = entry.assignment.len() == assignment.len()
                && entry
                    .assignment
                    .iter()
                    .zip(assignment)
                    .all(|(&a, &b)| a as usize == b);
            return same.then_some(fp);
        }
        if !self.evict_until(assignment.len(), None) {
            // The level alone exceeds the whole bound: bypass the cache
            // for this lattice level instead of thrashing.
            return None;
        }
        self.elements += assignment.len();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.levels.insert(
            fp,
            LevelEntry {
                assignment: assignment.iter().map(|&b| b as u32).collect(),
                merges: HashMap::new(),
                seq,
            },
        );
        Some(fp)
    }

    /// Copies the cached closure of merging blocks `b1`/`b2` of the level's
    /// partition into `out`, if present.
    pub(crate) fn lookup(&mut self, level: u64, b1: usize, b2: usize, out: &mut Partition) -> bool {
        let cached = self
            .levels
            .get(&level)
            .and_then(|e| e.merges.get(&Self::merge_key(b1, b2)));
        match cached {
            Some(p) => {
                out.copy_from(p);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Stores the closure of merging blocks `b1`/`b2` of the level's
    /// partition.  A no-op when the level entry vanished in an eviction;
    /// exceeding the bound evicts *oldest levels first* (never the level
    /// being inserted into), and an insert that cannot fit even then is
    /// skipped — a single oversized closure no longer cold-starts every
    /// subsequent sweep.
    pub(crate) fn insert(&mut self, level: u64, b1: usize, b2: usize, closed: &Partition) {
        if !self.levels.contains_key(&level) {
            return;
        }
        if !self.evict_until(closed.len(), Some(level)) {
            return;
        }
        let entry = self.levels.get_mut(&level).expect("checked above");
        entry.merges.insert(Self::merge_key(b1, b2), closed.clone());
        self.elements += closed.len();
        self.stats.insertions += 1;
    }

    fn merge_key(b1: usize, b2: usize) -> u64 {
        ((b1 as u64) << 32) | b2 as u64
    }

    /// Drops every cached closure level — [`FusionSession::update_top`]
    /// changes `⊤`, so no stored closure describes the new machine — and
    /// keeps the initial-fault-graph slot, which the delta evolves instead
    /// of rebuilding.  Dropped entries count as evicted, not as a clear.
    /// Returns the number of entries dropped.
    fn drop_levels(&mut self) -> u64 {
        let dropped: u64 = self
            .levels
            .drain()
            .map(|(_, entry)| 1 + entry.merges.len() as u64)
            .sum();
        self.elements = 0;
        self.stats.evicted += dropped;
        dropped
    }
}

/// The session's installed `⊤`: the machine set, its reachable cross
/// product and the projection partitions — the state
/// [`FusionSession::update_top`] evolves in place.
struct TopState {
    machines: Vec<Dfsm>,
    product: ReachableProduct,
    originals: Vec<Partition>,
}

/// A configured, stateful handle onto fusion generation — see the
/// [module docs](self) for what it owns and caches.
///
/// Build one with [`FusionConfig::build`].  The session is `Send` but not
/// `Sync`: hand each thread its own.
pub struct FusionSession {
    config: FusionConfig,
    workers: usize,
    product: ProductStrategy,
    scratch: CloseScratch,
    cache: Option<ClosureCache>,
    /// The closure kernel of the current top machine, rebuilt only when
    /// the machine's transition table actually changes.
    kernel: Option<ClosureKernel>,
    /// The installed evolving top ([`FusionSession::install_top`]), absent
    /// until one is installed.
    top: Option<TopState>,
}

impl std::fmt::Debug for FusionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionSession")
            .field("workers", &self.workers)
            .field("product", &self.product)
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl FusionSession {
    /// Builds a session from a config (equivalent to
    /// [`FusionConfig::build`]).
    pub fn new(config: FusionConfig) -> Self {
        let workers = config.resolved_workers();
        let product = config.resolved_product();
        let cache = match config.cache_policy() {
            CachePolicy::Disabled => None,
            CachePolicy::Bounded(bound) => Some(ClosureCache::new(bound)),
        };
        FusionSession {
            config,
            workers,
            product,
            scratch: CloseScratch::new(),
            cache,
            kernel: None,
            top: None,
        }
    }

    /// A session with the environment-snapshot configuration
    /// ([`FusionConfig::from_env`]) — what the legacy free functions shim
    /// onto, minus their disabled cache.
    pub fn from_env() -> Self {
        FusionConfig::from_env().build()
    }

    /// The config this session was built from (useful to rebuild an
    /// equivalent session).
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The resolved product strategy (never [`ProductStrategy::Auto`]).
    pub fn product_strategy(&self) -> ProductStrategy {
        self.product
    }

    /// Counters of the closure cache (all zero when the cache is
    /// [`CachePolicy::Disabled`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(ClosureCache::stats)
            .unwrap_or_default()
    }

    /// Drops every cached closure, keeping the counters.
    pub fn clear_cache(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.clear();
        }
    }

    /// The session's configured [`ProductBuilder`] (strategy, workers,
    /// dense-interner limit, streaming memory budget).
    fn product_builder(&self) -> ProductBuilder {
        ProductBuilder::new()
            .strategy(self.product)
            .workers(self.workers)
            .dense_limit(self.config.resolved_dense_limit())
            .mem_budget(self.config.resolved_mem_budget())
    }

    /// Builds the reachable cross product of `machines` with the session's
    /// product strategy, worker count and sizing knobs (dense-interner
    /// limit and streaming memory budget).
    pub fn build_product(&self, machines: &[Dfsm]) -> Result<ReachableProduct> {
        Ok(self.product_builder().build(machines)?)
    }

    /// Algorithm 2 through the session: generates the smallest set of
    /// closed partitions `F` of `top` such that `dmin(originals ∪ F) > f`,
    /// reusing the session's kernel, scratch and cached initial fault
    /// graph (the descent does not consult the closure cache; see the
    /// [module docs](self)).
    ///
    /// Produces exactly the free functions' fusions and statistics
    /// (`tests/session_properties.rs`); only wall-clock time differs.
    pub fn generate_fusion(
        &mut self,
        top: &Dfsm,
        originals: &[Partition],
        f: usize,
    ) -> Result<FusionGeneration> {
        let (kernel, scratch, cache) = self.parts(top);
        seq_engine(top, kernel, originals, f, scratch, cache)
    }

    /// The whole pipeline: builds the reachable cross product with the
    /// session's product strategy, derives the projection partitions and
    /// runs Algorithm 2 (the session form of
    /// [`crate::generate_fusion_for_machines`]).
    pub fn generate_fusion_for_machines(
        &mut self,
        machines: &[Dfsm],
        f: usize,
    ) -> Result<(ReachableProduct, FusionGeneration)> {
        let product = self.build_product(machines)?;
        let originals = projection_partitions(&product);
        let fusion = self.generate_fusion(product.top(), &originals, f)?;
        Ok((product, fusion))
    }

    /// The lower cover of a closed partition `p` of `top` through the
    /// session: each pairwise-merge closure is answered from the closure
    /// cache when an earlier walk stored it.
    pub fn lower_cover(&mut self, top: &Dfsm, p: &Partition) -> Result<Vec<Partition>> {
        let (kernel, scratch, cache) = self.parts(top);
        lower_cover_impl(kernel, p, scratch, cache)
    }

    /// Enumerates the closed partition lattice of `top` through the
    /// session (the session form of [`crate::enumerate_lattice`]).
    pub fn enumerate_lattice(
        &mut self,
        top: &Dfsm,
        limit: usize,
    ) -> Result<ClosedPartitionLattice> {
        let (kernel, scratch, cache) = self.parts(top);
        enumerate_lattice_impl(top, kernel, limit, scratch, cache)
    }

    /// Installs `machines` as the session's evolving `⊤`: builds the
    /// reachable cross product and projection partitions, installs the
    /// closure kernel, and stores everything for
    /// [`FusionSession::update_top`] / [`FusionSession::generate_top_fusion`]
    /// to evolve in place.  Returns the size of the installed product.
    pub fn install_top(&mut self, machines: &[Dfsm]) -> Result<usize> {
        let product = self.build_product(machines)?;
        let originals = projection_partitions(&product);
        self.refresh_kernel(product.top());
        let size = product.size();
        self.top = Some(TopState {
            machines: machines.to_vec(),
            product,
            originals,
        });
        Ok(size)
    }

    /// The reachable cross product of the installed `⊤`, if one is
    /// installed.
    pub fn top_product(&self) -> Option<&ReachableProduct> {
        self.top.as_ref().map(|t| &t.product)
    }

    /// The machine set behind the installed `⊤`, if one is installed.
    pub fn top_machines(&self) -> Option<&[Dfsm]> {
        self.top.as_ref().map(|t| t.machines.as_slice())
    }

    /// Algorithm 2 over the *installed* `⊤`
    /// ([`FusionSession::install_top`] / [`FusionSession::update_top`]) —
    /// the delta-aware form of [`FusionSession::generate_fusion`], sharing
    /// its cache and kernel.
    pub fn generate_top_fusion(&mut self, f: usize) -> Result<FusionGeneration> {
        let top = self.top.take().ok_or_else(|| {
            FusionError::InvalidDelta("no top installed (call install_top first)".into())
        })?;
        let result = self.generate_fusion(top.product.top(), &top.originals, f);
        self.top = Some(top);
        result
    }

    /// Applies one [`TopDelta`] to the installed `⊤` *incrementally*,
    /// reusing — instead of rebuilding — every layer the delta does not
    /// touch:
    ///
    /// * the product interner is stride-extended
    ///   ([`fsm_dfsm::ProductBuilder::extend_factor`]) for
    ///   [`TopDelta::AddMachine`],
    /// * the cached fault graph is pulled back / contracted and re-scored
    ///   only on the touched stripes
    ///   ([`crate::FaultGraph::apply_delta`]),
    /// * the kernel is replaced in place; the cached closures, which only
    ///   lattice walks read, are dropped
    ///   ([`UpdateStats::closures_evicted`]) while the fault graph stays.
    ///
    /// The post-delta session is pinned **bit-identical** — fusion
    /// partitions, generation statistics, product numbering — to a cold
    /// session built on the post-delta machine set
    /// (`tests/delta_properties.rs`).  On error the installed `⊤` is left
    /// unchanged.
    pub fn update_top(&mut self, delta: TopDelta) -> Result<UpdateStats> {
        let top = self.top.as_ref().ok_or_else(|| {
            FusionError::InvalidDelta("no top installed (call install_top first)".into())
        })?;
        // Validate before taking the top so errors leave it untouched.
        match &delta {
            TopDelta::AddMachine(_) => {}
            TopDelta::RemoveMachine(index) => {
                if *index >= top.machines.len() {
                    return Err(FusionError::InvalidDelta(format!(
                        "remove index {index} out of range for {} machines",
                        top.machines.len()
                    )));
                }
                if top.machines.len() == 1 {
                    return Err(FusionError::InvalidDelta(
                        "cannot remove the last machine of the top".into(),
                    ));
                }
            }
            TopDelta::ExtendMachine { index, machine } => {
                if *index >= top.machines.len() {
                    return Err(FusionError::InvalidDelta(format!(
                        "extend index {index} out of range for {} machines",
                        top.machines.len()
                    )));
                }
                let old = &top.machines[*index];
                if machine.size() < old.size() {
                    return Err(FusionError::InvalidDelta(format!(
                        "extension shrinks machine `{}` from {} to {} states",
                        old.name(),
                        old.size(),
                        machine.size()
                    )));
                }
                if let Some(missing) = old
                    .alphabet()
                    .events()
                    .iter()
                    .find(|&e| !machine.alphabet().contains(e))
                {
                    return Err(FusionError::InvalidDelta(format!(
                        "extension of `{}` drops event `{missing}`",
                        old.name()
                    )));
                }
            }
        }
        let top = self.top.take().expect("validated above");
        match delta {
            TopDelta::AddMachine(machine) => self.apply_add(top, machine),
            TopDelta::RemoveMachine(index) => self.apply_remove(top, index),
            TopDelta::ExtendMachine { index, machine } => self.apply_extend(top, index, machine),
        }
    }

    /// [`TopDelta::AddMachine`]: stride-extend the product, pull the
    /// cached graph back along the projection and score only the new
    /// machine's stripes, drop the cached closures.
    fn apply_add(&mut self, top: TopState, machine: Dfsm) -> Result<UpdateStats> {
        let (product, ext) = match self.product_builder().extend_factor(&top.product, &machine) {
            Ok(v) => v,
            Err(e) => {
                self.top = Some(top);
                return Err(e.into());
            }
        };
        let mut machines = top.machines;
        machines.push(machine);
        let originals = projection_partitions(&product);
        let n_new = product.size();
        let mut stats = UpdateStats {
            product_states_reexpanded: ext.reexpanded,
            ..Default::default()
        };
        if let Some(cache) = self.cache.as_mut() {
            let want = WeightRepr::auto_for(n_new, &originals);
            let warm = match cache.graph.take() {
                Some((gn, key, g))
                    if gn == top.product.size()
                        && key.as_slice() == top.originals.as_slice()
                        && g.representation() == want =>
                {
                    Some(g)
                }
                _ => None,
            };
            let g = match warm {
                Some(g) => {
                    // Pull the old graph back along the projection (the
                    // old originals lift to exactly the new ones), then
                    // fold in only the added machine's partition.
                    let (g, touched) = g.remap_states_adding(
                        &ext.mapping,
                        originals.last().expect("just pushed a machine"),
                    );
                    stats.graph_stripes_touched = touched;
                    g
                }
                None => {
                    stats.graph_rebuilt = true;
                    FaultGraph::from_partitions(n_new, &originals)
                }
            };
            cache.graph = Some((n_new, originals.clone(), g));
            stats.closures_evicted = cache.drop_levels();
        } else {
            stats.graph_rebuilt = true;
        }
        // The cache was updated above: replace the kernel without the
        // machine-change reset `refresh_kernel` would apply.
        self.kernel = Some(ClosureKernel::new(product.top()));
        self.top = Some(TopState {
            machines,
            product,
            originals,
        });
        Ok(stats)
    }

    /// [`TopDelta::RemoveMachine`]: rebuild the (smaller) product cold,
    /// subtract the departing machine from the cached graph and contract
    /// it onto representative states, drop the cached closures.
    fn apply_remove(&mut self, top: TopState, index: usize) -> Result<UpdateStats> {
        let mut machines = top.machines.clone();
        machines.remove(index);
        let product = match self.build_product(&machines) {
            Ok(p) => p,
            Err(e) => {
                self.top = Some(top);
                return Err(e);
            }
        };
        let originals = projection_partitions(&product);
        let n_old = top.product.size();
        let n_new = product.size();
        // `rep`: the first old state whose surviving components land on
        // each new state — the contraction representatives.  Every new
        // state has one: a projection of a reachable state is reachable,
        // because ignored-event semantics let the reaching run replay on
        // the survivors.
        let mut rep = vec![u32::MAX; n_new];
        let mut tuple = Vec::with_capacity(top.product.arity() - 1);
        for x in 0..n_old {
            tuple.clear();
            tuple.extend(
                top.product
                    .tuple(StateId(x))
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != index)
                    .map(|(_, &s)| s),
            );
            let u = product
                .find_tuple(&tuple)
                .expect("projection of a reachable state is reachable");
            if rep[u.0] == u32::MAX {
                rep[u.0] = x as u32;
            }
        }
        let mut stats = UpdateStats {
            product_states_reexpanded: n_new,
            ..Default::default()
        };
        if let Some(cache) = self.cache.as_mut() {
            let want = WeightRepr::auto_for(n_new, &originals);
            let warm = match cache.graph.take() {
                Some((gn, key, g))
                    if gn == n_old
                        && key.as_slice() == top.originals.as_slice()
                        && g.representation() == want =>
                {
                    Some(g)
                }
                _ => None,
            };
            let g = match warm {
                Some(g) => {
                    // Subtract the departing machine while contracting onto
                    // representatives: the remaining weights are
                    // fiber-constant, so any representative gives the cold
                    // graph, and the fused pass never walks the full-size
                    // edge set.
                    let (g, touched) = g.remap_states_removing(&rep, &top.originals[index]);
                    stats.graph_stripes_touched = touched;
                    g
                }
                None => {
                    stats.graph_rebuilt = true;
                    FaultGraph::from_partitions(n_new, &originals)
                }
            };
            cache.graph = Some((n_new, originals.clone(), g));
            stats.closures_evicted = cache.drop_levels();
        } else {
            stats.graph_rebuilt = true;
        }
        // The cache was updated above: replace the kernel without the
        // machine-change reset `refresh_kernel` would apply.
        self.kernel = Some(ClosureKernel::new(product.top()));
        self.top = Some(TopState {
            machines,
            product,
            originals,
        });
        Ok(stats)
    }

    /// [`TopDelta::ExtendMachine`]: a grown component changes the
    /// transition structure itself — documented cold rebuild.
    fn apply_extend(&mut self, top: TopState, index: usize, machine: Dfsm) -> Result<UpdateStats> {
        let mut machines = top.machines.clone();
        machines[index] = machine;
        let product = match self.build_product(&machines) {
            Ok(p) => p,
            Err(e) => {
                self.top = Some(top);
                return Err(e);
            }
        };
        let originals = projection_partitions(&product);
        // `refresh_kernel` clears the cache iff the top machine actually
        // changed (an extension that leaves the product identical keeps
        // everything — nothing was invalidated).
        self.refresh_kernel(product.top());
        let size = product.size();
        self.top = Some(TopState {
            machines,
            product,
            originals,
        });
        Ok(UpdateStats {
            product_states_reexpanded: size,
            graph_rebuilt: true,
            cold_rebuild: true,
            ..Default::default()
        })
    }

    /// Refreshes the kernel for `top` and splits the session into the
    /// kernel, scratch and cache every engine call threads through.
    fn parts(
        &mut self,
        top: &Dfsm,
    ) -> (&ClosureKernel, &mut CloseScratch, Option<&mut ClosureCache>) {
        self.refresh_kernel(top);
        (
            self.kernel
                .as_ref()
                .expect("refresh_kernel installs a kernel"),
            &mut self.scratch,
            self.cache.as_mut(),
        )
    }

    /// Installs (or keeps) the closure kernel for `top`.  The closure
    /// cache is only valid for one transition table, so it is cleared when
    /// the machine changes; an unchanged machine keeps kernel and cache
    /// (verified by streaming `top`'s transitions against the stored
    /// kernel — no per-call kernel rebuild).
    fn refresh_kernel(&mut self, top: &Dfsm) {
        if let Some(kernel) = &self.kernel {
            if kernel.matches_machine(top) {
                return;
            }
            // Only an actual machine *change* invalidates cached closures;
            // the very first install finds the cache empty and leaves the
            // counters alone.
            if let Some(cache) = self.cache.as_mut() {
                cache.clear();
            }
        }
        self.kernel = Some(ClosureKernel::new(top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FusionError;
    use crate::generate::generate_fusion;
    use fsm_dfsm::DfsmBuilder;

    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        for i in 0..k {
            b.add_state(format!("{name}{i}"));
        }
        b.set_initial(format!("{name}0"));
        for i in 0..k {
            b.add_transition(
                format!("{name}{i}"),
                event,
                format!("{name}{}", (i + 1) % k),
            );
        }
        let other = if event == "0" { "1" } else { "0" };
        b.add_self_loops(other);
        b.build().unwrap()
    }

    fn fig1_pair() -> Vec<Dfsm> {
        vec![counter("a", "0", 3), counter("b", "1", 3)]
    }

    #[test]
    fn sequential_session_matches_free_function_and_caches_across_f_sweep() {
        let mut session = FusionConfig::new().build();
        let (product, _) = session
            .generate_fusion_for_machines(&fig1_pair(), 1)
            .unwrap();
        let originals = projection_partitions(&product);
        for f in 1..=3 {
            let cold = generate_fusion(product.top(), &originals, f).unwrap();
            let warm = session
                .generate_fusion(product.top(), &originals, f)
                .unwrap();
            assert_eq!(warm.partitions, cold.partitions);
            assert_eq!(warm.stats.initial_dmin, cold.stats.initial_dmin);
            assert_eq!(warm.stats.final_dmin, cold.stats.final_dmin);
            assert_eq!(warm.stats.outer_iterations, cold.stats.outer_iterations);
            assert_eq!(warm.stats.descent_steps, cold.stats.descent_steps);
            assert_eq!(
                warm.stats.candidates_examined,
                cold.stats.candidates_examined
            );
        }
        // The sweep reuses the initial fault graph of the first call, and
        // the descent never consults the closure cache.
        let stats = session.cache_stats();
        assert_eq!((stats.graph_misses, stats.graph_hits), (1, 3), "{stats}");
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
        // Lower-cover walks fill the closure cache and re-walks hit it.
        let top_p = Partition::singletons(product.size());
        let cover = session.lower_cover(product.top(), &top_p).unwrap();
        let filled = session.cache_stats();
        assert!(filled.insertions > 0, "{filled}");
        assert_eq!(filled.hits, 0, "{filled}");
        assert_eq!(session.lower_cover(product.top(), &top_p).unwrap(), cover);
        let rewalked = session.cache_stats();
        assert_eq!(rewalked.hits, filled.misses, "{rewalked}");
        assert_eq!(rewalked.insertions, filled.insertions, "{rewalked}");
    }

    #[test]
    fn changing_the_top_machine_clears_the_cache() {
        let mut session = FusionConfig::new().build();
        let (p1, _) = session
            .generate_fusion_for_machines(&fig1_pair(), 1)
            .unwrap();
        session
            .lower_cover(p1.top(), &Partition::singletons(p1.size()))
            .unwrap();
        let inserted = session.cache_stats().insertions;
        assert!(inserted > 0);
        // The first install is not a clear — only a machine *change* is.
        assert_eq!(session.cache_stats().clears, 0);
        // A different machine set: the cache must reset, not serve stale
        // closures.
        let machines = vec![counter("x", "0", 4), counter("y", "1", 3)];
        let (p2, fusion) = session.generate_fusion_for_machines(&machines, 1).unwrap();
        assert_ne!(p1.size(), p2.size());
        assert_eq!(session.cache_stats().clears, 1);
        let originals = projection_partitions(&p2);
        let cold = generate_fusion(p2.top(), &originals, 1).unwrap();
        assert_eq!(fusion.partitions, cold.partitions);
        let before = session.cache_stats();
        let top_p = Partition::singletons(p2.size());
        assert_eq!(
            session.lower_cover(p2.top(), &top_p).unwrap(),
            crate::lattice::lower_cover(p2.top(), &top_p).unwrap()
        );
        assert_eq!(
            session.cache_stats().hits,
            before.hits,
            "stale closure served"
        );
    }

    #[test]
    fn disabled_cache_counts_nothing_and_still_matches() {
        let mut session = FusionConfig::new().cache(CachePolicy::Disabled).build();
        let (product, fusion) = session
            .generate_fusion_for_machines(&fig1_pair(), 2)
            .unwrap();
        let originals = projection_partitions(&product);
        let cold = generate_fusion(product.top(), &originals, 2).unwrap();
        assert_eq!(fusion.partitions, cold.partitions);
        assert_eq!(session.cache_stats(), CacheStats::default());
    }

    #[test]
    fn tiny_cache_bound_evicts_instead_of_growing() {
        let mut session = FusionConfig::new().cache(CachePolicy::Bounded(32)).build();
        let (product, _) = session
            .generate_fusion_for_machines(&fig1_pair(), 2)
            .unwrap();
        let top = product.top();
        let originals = projection_partitions(&product);
        let warm = session.generate_fusion(top, &originals, 2).unwrap();
        let cold = generate_fusion(top, &originals, 2).unwrap();
        assert_eq!(warm.partitions, cold.partitions);
        let walked = session.enumerate_lattice(top, 500).unwrap();
        let free = crate::lattice::enumerate_lattice(top, 500).unwrap();
        assert_eq!(walked.elements, free.elements);
        // |⊤| = 9 and a 32-element bound: the lattice walk overflows the
        // cache, which must shed *oldest levels* — never reset wholesale
        // (the top machine never changed, so clears stays 0) and never
        // change output.
        let stats = session.cache_stats();
        assert!(stats.evicted > 0, "{stats}");
        assert_eq!(stats.clears, 0, "{stats}");
    }

    #[test]
    fn oversized_insert_is_skipped_not_a_cold_start() {
        // Bound of 6: the 4-element level fits, but a 4-element closure on
        // top of it would need 8.  Eviction can't help (the level being
        // inserted into is exempt), so the insert is skipped and the
        // *level entry itself survives* for future sweeps.
        let mut cache = ClosureCache::new(6);
        let p = Partition::from_assignment(&[0, 1, 2, 3]);
        let key = cache.level_key(&p).unwrap();
        let closed = Partition::from_assignment(&[0, 0, 1, 1]);
        cache.insert(key, 0, 1, &closed);
        let mut out = Partition::singletons(0);
        assert!(
            !cache.lookup(key, 0, 1, &mut out),
            "oversized insert stored"
        );
        assert_eq!(cache.stats.clears, 0);
        // The level is still resolvable — no cold start.
        assert_eq!(cache.level_key(&p), Some(key));

        // A bound-straddling workload: a second level arrives while the
        // first still holds elements.  The oldest level is evicted whole;
        // the new one lands and serves lookups.
        let mut cache = ClosureCache::new(10);
        let first = Partition::from_assignment(&[0, 1, 2, 3]);
        let k1 = cache.level_key(&first).unwrap();
        cache.insert(k1, 0, 1, &Partition::from_assignment(&[0, 0, 1, 2]));
        assert_eq!(cache.elements, 8);
        let second = Partition::from_assignment(&[0, 0, 1, 2]);
        let k2 = cache.level_key(&second).unwrap();
        assert!(!cache.levels.contains_key(&k1), "oldest level not evicted");
        cache.insert(k2, 0, 1, &Partition::from_assignment(&[0, 0, 0, 1]));
        let mut out = Partition::singletons(0);
        assert!(cache.lookup(k2, 0, 1, &mut out));
        let stats = cache.stats;
        assert_eq!(stats.evicted, 2, "{stats}"); // level + its one merge
        assert_eq!(stats.clears, 0, "{stats}");
    }

    #[test]
    fn multi_worker_session_matches_single_worker_session() {
        // More workers only reach the parallel product builder; the
        // descent, and so every fusion and statistic, must not change.
        let machines = vec![
            counter("a", "0", 3),
            counter("b", "1", 3),
            counter("c", "0", 4),
        ];
        let mut one = FusionConfig::new().workers(1).build();
        let mut four = FusionConfig::new().workers(4).build();
        assert_eq!(four.product_strategy(), ProductStrategy::Parallel);
        for f in 1..=2 {
            let (p1, g1) = one.generate_fusion_for_machines(&machines, f).unwrap();
            let (p4, g4) = four.generate_fusion_for_machines(&machines, f).unwrap();
            assert_eq!(p1.size(), p4.size(), "f={f}");
            assert_eq!(g4.partitions, g1.partitions, "f={f}");
            let untimed = |g: &FusionGeneration| crate::GenerationStats {
                elapsed_micros: 0,
                ..g.stats.clone()
            };
            assert_eq!(untimed(&g4), untimed(&g1), "f={f}");
        }
    }

    #[test]
    fn session_lattice_and_lower_cover_match_free_functions() {
        let mut session = FusionConfig::new().workers(2).build();
        let product = session.build_product(&fig1_pair()).unwrap();
        let top = product.top();
        let lattice = session.enumerate_lattice(top, 500).unwrap();
        let free = crate::lattice::enumerate_lattice(top, 500).unwrap();
        assert_eq!(lattice.elements, free.elements);
        assert_eq!(lattice.truncated, free.truncated);
        let top_p = Partition::singletons(top.size());
        assert_eq!(
            session.lower_cover(top, &top_p).unwrap(),
            crate::lattice::lower_cover(top, &top_p).unwrap()
        );
    }

    #[test]
    fn update_top_add_matches_cold_session_and_reuses_layers() {
        let mut warm = FusionConfig::new().build();
        warm.install_top(&fig1_pair()).unwrap();
        let before = warm.generate_top_fusion(1).unwrap();
        assert_eq!(before.machine_sizes(), vec![3]);
        // A lattice walk leaves closures in the cache for the delta to
        // drop.
        let top = warm.top_product().unwrap().top().clone();
        warm.enumerate_lattice(&top, 500).unwrap();
        let cached = warm.cache_stats().insertions;
        assert!(cached > 0);

        let stats = warm
            .update_top(TopDelta::AddMachine(counter("c", "0", 3)))
            .unwrap();
        assert!(!stats.cold_rebuild, "{stats}");
        assert!(!stats.graph_rebuilt, "{stats}");
        assert!(stats.graph_stripes_touched > 0, "{stats}");
        // Every stored closure and its level entry are dropped.
        assert_eq!(stats.closures_remapped, 0, "{stats}");
        assert!(stats.closures_evicted > cached, "{stats}");
        assert_eq!(warm.cache_stats().evicted, stats.closures_evicted);
        assert!(stats.product_states_reexpanded > 0, "{stats}");
        assert_eq!(warm.top_machines().unwrap().len(), 3);

        let mut machines = fig1_pair();
        machines.push(counter("c", "0", 3));
        let mut cold = FusionConfig::new().build();
        cold.install_top(&machines).unwrap();
        for f in 1..=2 {
            let w = warm.generate_top_fusion(f).unwrap();
            let c = cold.generate_top_fusion(f).unwrap();
            assert_eq!(w.partitions, c.partitions, "f={f}");
            assert_eq!(w.stats.initial_dmin, c.stats.initial_dmin, "f={f}");
            assert_eq!(w.stats.final_dmin, c.stats.final_dmin, "f={f}");
            assert_eq!(w.stats.descent_steps, c.stats.descent_steps, "f={f}");
            assert_eq!(
                w.stats.candidates_examined, c.stats.candidates_examined,
                "f={f}"
            );
        }
        // Product numbering is pinned identical to a cold build.
        let (wp, cp) = (warm.top_product().unwrap(), cold.top_product().unwrap());
        assert_eq!(wp.size(), cp.size());
        for x in 0..wp.size() {
            assert_eq!(wp.tuple(StateId(x)), cp.tuple(StateId(x)));
        }
        // No machine-change clear happened on the warm path.
        assert_eq!(warm.cache_stats().clears, 0);
        assert_walks_match_free_functions(&mut warm);
    }

    /// A lattice walk and a lower cover over the session's installed `⊤`
    /// equal the free functions' — no closure from before a delta leaks
    /// into a walk after it.
    fn assert_walks_match_free_functions(session: &mut FusionSession) {
        let top = session.top_product().unwrap().top().clone();
        let walked = session.enumerate_lattice(&top, 500).unwrap();
        let free = crate::lattice::enumerate_lattice(&top, 500).unwrap();
        assert_eq!(walked.elements, free.elements);
        let top_p = Partition::singletons(top.size());
        assert_eq!(
            session.lower_cover(&top, &top_p).unwrap(),
            crate::lattice::lower_cover(&top, &top_p).unwrap()
        );
    }

    #[test]
    fn update_top_remove_matches_cold_session() {
        let mut machines = fig1_pair();
        machines.push(counter("c", "0", 4));
        let mut warm = FusionConfig::new().build();
        warm.install_top(&machines).unwrap();
        warm.generate_top_fusion(1).unwrap();
        let top = warm.top_product().unwrap().top().clone();
        warm.enumerate_lattice(&top, 500).unwrap();

        let stats = warm.update_top(TopDelta::RemoveMachine(2)).unwrap();
        assert!(!stats.cold_rebuild, "{stats}");
        assert!(!stats.graph_rebuilt, "{stats}");
        assert_eq!(stats.closures_remapped, 0, "{stats}");
        assert!(stats.closures_evicted > 0, "{stats}");
        assert_eq!(warm.top_machines().unwrap().len(), 2);
        assert_eq!(warm.top_product().unwrap().size(), 9);

        let mut cold = FusionConfig::new().build();
        cold.install_top(&fig1_pair()).unwrap();
        let w = warm.generate_top_fusion(2).unwrap();
        let c = cold.generate_top_fusion(2).unwrap();
        assert_eq!(w.partitions, c.partitions);
        assert_eq!(w.stats.candidates_examined, c.stats.candidates_examined);
        let (wp, cp) = (warm.top_product().unwrap(), cold.top_product().unwrap());
        for x in 0..wp.size() {
            assert_eq!(wp.tuple(StateId(x)), cp.tuple(StateId(x)));
        }
        assert_walks_match_free_functions(&mut warm);
    }

    #[test]
    fn update_top_extend_is_a_documented_cold_rebuild() {
        let mut warm = FusionConfig::new().build();
        warm.install_top(&fig1_pair()).unwrap();
        warm.generate_top_fusion(1).unwrap();
        let stats = warm
            .update_top(TopDelta::ExtendMachine {
                index: 0,
                machine: counter("a", "0", 4),
            })
            .unwrap();
        assert!(stats.cold_rebuild, "{stats}");
        assert!(stats.graph_rebuilt, "{stats}");
        assert_eq!(warm.top_product().unwrap().size(), 12);

        let mut cold = FusionConfig::new().build();
        cold.install_top(&[counter("a", "0", 4), counter("b", "1", 3)])
            .unwrap();
        let w = warm.generate_top_fusion(1).unwrap();
        let c = cold.generate_top_fusion(1).unwrap();
        assert_eq!(w.partitions, c.partitions);
    }

    #[test]
    fn update_top_rejects_bad_deltas_and_leaves_the_top_installed() {
        let mut session = FusionConfig::new().build();
        assert!(matches!(
            session.update_top(TopDelta::RemoveMachine(0)),
            Err(FusionError::InvalidDelta(_))
        ));
        assert!(matches!(
            session.generate_top_fusion(1),
            Err(FusionError::InvalidDelta(_))
        ));

        session.install_top(&fig1_pair()).unwrap();
        // Out-of-range remove and extend.
        assert!(matches!(
            session.update_top(TopDelta::RemoveMachine(5)),
            Err(FusionError::InvalidDelta(_))
        ));
        assert!(matches!(
            session.update_top(TopDelta::ExtendMachine {
                index: 9,
                machine: counter("a", "0", 3)
            }),
            Err(FusionError::InvalidDelta(_))
        ));
        // An "extension" that shrinks states or drops events.
        assert!(matches!(
            session.update_top(TopDelta::ExtendMachine {
                index: 0,
                machine: counter("a", "0", 2)
            }),
            Err(FusionError::InvalidDelta(_))
        ));
        let mut b = DfsmBuilder::new("a");
        b.add_states(["a0", "a1", "a2", "a3"]);
        b.set_initial("a0");
        for i in 0..4 {
            b.add_transition(format!("a{i}"), "2", format!("a{}", (i + 1) % 4));
        }
        let wrong_alphabet = b.build().unwrap();
        assert!(matches!(
            session.update_top(TopDelta::ExtendMachine {
                index: 0,
                machine: wrong_alphabet
            }),
            Err(FusionError::InvalidDelta(_))
        ));
        // Removing down to one machine is fine; removing the last is not.
        session.update_top(TopDelta::RemoveMachine(1)).unwrap();
        assert!(matches!(
            session.update_top(TopDelta::RemoveMachine(0)),
            Err(FusionError::InvalidDelta(_))
        ));
        // The top survived every rejected delta.
        assert_eq!(session.top_machines().unwrap().len(), 1);
        session.generate_top_fusion(0).unwrap();
    }

    #[test]
    fn fingerprint_collisions_only_bypass_never_corrupt() {
        let mut cache = ClosureCache::new(1 << 16);
        let p = Partition::from_assignment(&[0, 1, 0, 1]);
        let q = Partition::from_assignment(&[0, 0, 1, 1]);
        let key_p = cache.level_key(&p).unwrap();
        // Same partition: same key.
        assert_eq!(cache.level_key(&p), Some(key_p));
        // Different partition: different key (fingerprints differ), and its
        // entry is independent.
        let key_q = cache.level_key(&q).unwrap();
        assert_ne!(key_p, key_q);
        let closed = Partition::from_assignment(&[0, 0, 0, 1]);
        cache.insert(key_p, 0, 1, &closed);
        let mut out = Partition::singletons(0);
        assert!(cache.lookup(key_p, 0, 1, &mut out));
        assert_eq!(out, closed);
        assert!(!cache.lookup(key_q, 0, 1, &mut out));

        // Force an *actual* collision: plant an entry under q's real
        // fingerprint whose assignment belongs to a different partition.
        // level_key(&q) must detect the mismatch and bypass (None), never
        // serve the foreign entry.
        let mut forged = ClosureCache::new(1 << 16);
        forged.levels.insert(
            key_q,
            LevelEntry {
                assignment: p.assignment().iter().map(|&b| b as u32).collect(),
                merges: HashMap::new(),
                seq: 0,
            },
        );
        assert_eq!(forged.level_key(&q), None);
        // A same-length different assignment and a different-length one are
        // both told apart.
        let shorter = Partition::from_assignment(&[0, 1, 0]);
        forged.levels.insert(
            key_q,
            LevelEntry {
                assignment: shorter.assignment().iter().map(|&b| b as u32).collect(),
                merges: HashMap::new(),
                seq: 0,
            },
        );
        assert_eq!(forged.level_key(&q), None);
    }
}
