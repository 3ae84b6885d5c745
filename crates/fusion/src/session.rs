//! [`FusionSession`] — the stateful entry point to fusion generation.
//!
//! The free functions ([`crate::generate_fusion`],
//! [`crate::enumerate_lattice`], …) re-derive everything on every call:
//! they rebuild the closure kernel and scratch buffers and recompute every
//! candidate closure from nothing.  A `FusionSession` — built once with
//! [`FusionConfig::build`] — owns all of that across calls:
//!
//! * one [`CloseScratch`] serving every closure of the session's lifetime,
//! * the [`ClosureKernel`] of the current top machine, rebuilt only when
//!   the top machine actually changes,
//! * the installed `⊤` that [`FusionSession::update_top`] evolves,
//! * and the **initial fault graph** of the last generation: an `f` sweep
//!   over the same `(⊤, originals)` borrows the kept graph instead of
//!   rebuilding it (a generation copies it only to add a backup a later
//!   iteration reads), and [`FusionSession::update_top`] carries it over
//!   to the new `⊤` instead of rebuilding it.
//!
//! Algorithm 2's descent ([`FusionSession::generate_fusion`]) and the
//! lattice walks ([`FusionSession::lower_cover`],
//! [`FusionSession::enumerate_lattice`]) both score pairwise block merges
//! on the quotient machine ([`crate::closed::QuotientLevel`]), so no
//! closure is worth keeping between calls: a quotient merge costs less
//! than probing a cache and copying an `n`-element closure out of it.
//! Session walks run the free functions' body and return their results.
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
//! assert_eq!(session.cache_stats().hits, 1);
//!
//! // Lattice walks reuse the session's kernel and buffers: the basis of
//! // ⊤ is the four 3-state counters (a, b, a + b, a − b) mod 3.
//! let top = fsm_fusion_core::Partition::singletons(product.size());
//! let basis = session.lower_cover(product.top(), &top).unwrap();
//! assert_eq!(basis.len(), 4);
//! assert!(basis.iter().all(|p| p.num_blocks() == 3));
//! ```

use fsm_dfsm::{Dfsm, ReachableProduct, StateId};

use crate::closed::{CloseScratch, ClosureKernel};
use crate::config::FusionConfig;
use crate::delta::{TopDelta, UpdateStats};
use crate::error::{FusionError, Result};
use crate::fault_graph::FaultGraph;
use crate::generate::{check_machine_count, seq_engine, FusionGeneration};
use crate::lattice::{enumerate_lattice_impl, lower_cover_impl, ClosedPartitionLattice};
use crate::partition::Partition;
use crate::set_repr::projection_partitions;

/// Counters of the session's initial-fault-graph slot: generations whose
/// initial fault graph was lent from the kept one (`hits`) or had to be
/// built from the originals (`misses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Initial fault graphs answered from the kept copy (same `⊤` size
    /// and same originals as a previous call, e.g. along an `f` sweep).
    pub hits: u64,
    /// Initial fault graphs that had to be built from the originals.
    pub misses: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "initial fault graph: {} hits / {} misses",
            self.hits, self.misses
        )
    }
}

/// The session's initial-fault-graph slot.  Every generation starts from
/// the fault graph of the originals — a weakest-edge search that is
/// identical across an `f` sweep — so the session keeps the last one and
/// lends it out on an exact originals match.
#[derive(Default)]
pub(crate) struct GraphSlot {
    /// `(n, originals, graph)` of the last generation or delta.
    graph: Option<(usize, Vec<Partition>, FaultGraph)>,
    stats: CacheStats,
}

impl GraphSlot {
    /// The fault graph of `originals` over an `n`-state `⊤`: the kept
    /// graph when `originals` matches it **exactly** (full
    /// `Vec<Partition>` equality, so a hit is bit-identical to a rebuild by
    /// construction), otherwise a fresh build that replaces it.
    pub(crate) fn initial_graph(&mut self, n: usize, originals: &[Partition]) -> &FaultGraph {
        let hit = matches!(
            &self.graph,
            Some((gn, key, _)) if *gn == n && key.as_slice() == originals
        );
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            // Drop the old graph first so two never coexist.
            self.graph = None;
            let g = FaultGraph::from_partitions(n, originals);
            self.graph = Some((n, originals.to_vec(), g));
        }
        &self.graph.as_ref().expect("kept or just built").2
    }

    /// Takes the kept graph if it was built for exactly `(n, originals)` —
    /// the graph a [`TopDelta`] can evolve.
    fn take_matching(&mut self, n: usize, originals: &[Partition]) -> Option<FaultGraph> {
        match self.graph.take() {
            Some((gn, key, g)) if gn == n && key.as_slice() == originals => Some(g),
            _ => None,
        }
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
/// [module docs](self) for what it owns and keeps.
///
/// Build one with [`FusionConfig::build`].  The session is `Send` but not
/// `Sync`: hand each thread its own.
pub struct FusionSession {
    scratch: CloseScratch,
    graph: GraphSlot,
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
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl FusionSession {
    /// Builds a session (equivalent to [`FusionConfig::build`]).
    pub fn new(_config: FusionConfig) -> Self {
        FusionSession {
            scratch: CloseScratch::new(),
            graph: GraphSlot::default(),
            kernel: None,
            top: None,
        }
    }

    /// Counters of the session's initial-fault-graph slot.
    pub fn cache_stats(&self) -> CacheStats {
        self.graph.stats
    }

    /// Builds the reachable cross product of `machines`
    /// ([`ReachableProduct::new`]).
    pub fn build_product(&self, machines: &[Dfsm]) -> Result<ReachableProduct> {
        Ok(ReachableProduct::new(machines)?)
    }

    /// Algorithm 2 through the session: generates the smallest set of
    /// closed partitions `F` of `top` such that `dmin(originals ∪ F) > f`,
    /// reusing the session's kernel, scratch and cached initial fault
    /// graph (see the [module docs](self)).
    ///
    /// Produces exactly the free functions' fusions and statistics
    /// (`tests/session_properties.rs`); only wall-clock time differs.
    pub fn generate_fusion(
        &mut self,
        top: &Dfsm,
        originals: &[Partition],
        f: usize,
    ) -> Result<FusionGeneration> {
        let (kernel, scratch, graph) = self.parts(top);
        seq_engine(top, kernel, originals, f, scratch, Some(graph))
    }

    /// The whole pipeline: builds the reachable cross product, derives the projection partitions and
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
    /// session's kernel and scratch (the session form of
    /// [`crate::lower_cover`]).
    ///
    /// # Errors
    ///
    /// [`FusionError::NotClosed`] when `p` is not closed under `top`, and
    /// [`FusionError::PartitionSizeMismatch`] when `p` does not partition
    /// `top`'s states.
    pub fn lower_cover(&mut self, top: &Dfsm, p: &Partition) -> Result<Vec<Partition>> {
        let (kernel, scratch, _) = self.parts(top);
        lower_cover_impl(kernel, p, scratch)
    }

    /// Enumerates the closed partition lattice of `top` through the
    /// session (the session form of [`crate::enumerate_lattice`]).
    pub fn enumerate_lattice(
        &mut self,
        top: &Dfsm,
        limit: usize,
    ) -> Result<ClosedPartitionLattice> {
        let (kernel, scratch, _) = self.parts(top);
        enumerate_lattice_impl(top, kernel, limit, scratch)
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
    /// its fault-graph slot and kernel.
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
    ///   ([`fsm_dfsm::ReachableProduct::extend_factor`]) for
    ///   [`TopDelta::AddMachine`],
    /// * the cached fault graph is pulled back or contracted with the
    ///   changed machine added or dropped, its weakest edges re-derived
    ///   from the kept ones
    ///   ([`crate::FaultGraph::remap_states_adding`] /
    ///   [`crate::FaultGraph::remap_states_removing`]),
    /// * the kernel is replaced in place.
    ///
    /// The post-delta session is pinned **bit-identical** — fusion
    /// partitions, generation statistics, product numbering — to a cold
    /// session built on the post-delta machine set
    /// (`tests/delta_properties.rs`).  On error the installed `⊤` is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`FusionError::InvalidDelta`] for a delta the installed `⊤` cannot
    /// take, [`FusionError::TooManyMachines`] when an added machine would
    /// push the fault graph past its machine limit
    /// ([`crate::fault_graph::DENSE_MACHINE_LIMIT`]), and product-build errors.
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

    /// [`TopDelta::AddMachine`]: stride-extend the product and pull the
    /// cached graph back along the projection with the new machine
    /// added.
    fn apply_add(&mut self, top: TopState, machine: Dfsm) -> Result<UpdateStats> {
        let (product, ext) = match top.product.extend_factor(&machine) {
            Ok(v) => v,
            Err(e) => {
                self.top = Some(top);
                return Err(e.into());
            }
        };
        let originals = projection_partitions(&product);
        let n_new = product.size();
        if let Err(e) = check_machine_count(originals.len() as u128) {
            self.top = Some(top);
            return Err(e);
        }
        let mut machines = top.machines;
        machines.push(machine);
        let mut stats = UpdateStats {
            product_states_reexpanded: ext.reexpanded,
            ..Default::default()
        };
        let g = match self.graph.take_matching(top.product.size(), &top.originals) {
            Some(g) => {
                // Pull the old graph back along the projection (the old
                // originals lift to exactly the new ones) and add only the
                // new machine's partition.
                let (g, levels) = g.remap_states_adding(
                    &ext.mapping,
                    originals.last().expect("just pushed a machine"),
                );
                stats.graph_stripes_touched = levels;
                g
            }
            None => {
                stats.graph_rebuilt = true;
                FaultGraph::from_partitions(n_new, &originals)
            }
        };
        self.graph.graph = Some((n_new, originals.clone(), g));
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
    /// it onto representative states.
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
        let g = match self.graph.take_matching(n_old, &top.originals) {
            Some(g) => {
                // Drop the departing machine while contracting onto
                // representatives: the remaining partitions are
                // fiber-constant, so any representative gives the cold
                // graph.
                let (g, levels) = g.remap_states_removing(&rep, &top.originals[index]);
                stats.graph_stripes_touched = levels;
                g
            }
            None => {
                stats.graph_rebuilt = true;
                FaultGraph::from_partitions(n_new, &originals)
            }
        };
        self.graph.graph = Some((n_new, originals.clone(), g));
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
    /// kernel, scratch and fault-graph slot every engine call threads
    /// through.
    fn parts(&mut self, top: &Dfsm) -> (&ClosureKernel, &mut CloseScratch, &mut GraphSlot) {
        self.refresh_kernel(top);
        (
            self.kernel
                .as_ref()
                .expect("refresh_kernel installs a kernel"),
            &mut self.scratch,
            &mut self.graph,
        )
    }

    /// Installs (or keeps) the closure kernel for `top`: an unchanged
    /// machine keeps its kernel (verified by streaming `top`'s transitions
    /// against the stored kernel — no per-call kernel rebuild).  The
    /// fault-graph slot needs no reset: it is keyed by the state count and
    /// the originals, which determine the graph on their own.
    fn refresh_kernel(&mut self, top: &Dfsm) {
        if self
            .kernel
            .as_ref()
            .is_some_and(|kernel| kernel.matches_machine(top))
        {
            return;
        }
        self.kernel = Some(ClosureKernel::new(top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FusionError;
    use crate::generate::generate_fusion;
    use crate::lattice_oracle;
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
        // The sweep reuses the initial fault graph of the first call.
        let stats = session.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 3), "{stats}");
        // A lower-cover walk leaves the slot alone and equals the oracle.
        let top_p = Partition::singletons(product.size());
        assert_eq!(
            session.lower_cover(product.top(), &top_p).unwrap(),
            lattice_oracle::lower_cover(product.top(), &top_p)
        );
        assert_eq!(session.cache_stats(), stats);
    }

    #[test]
    fn changing_the_top_machine_clears_the_cache() {
        let mut session = FusionConfig::new().build();
        let (p1, _) = session
            .generate_fusion_for_machines(&fig1_pair(), 1)
            .unwrap();
        let top_p = Partition::singletons(p1.size());
        assert_eq!(
            session.lower_cover(p1.top(), &top_p).unwrap(),
            lattice_oracle::lower_cover(p1.top(), &top_p)
        );
        // A different machine set: the graph slot must not serve the old
        // top's graph, and generation and walks must run on the new
        // machine's kernel, not the stale one.
        let machines = vec![counter("x", "0", 4), counter("y", "1", 3)];
        let (p2, fusion) = session.generate_fusion_for_machines(&machines, 1).unwrap();
        assert_ne!(p1.size(), p2.size());
        let originals = projection_partitions(&p2);
        let cold = generate_fusion(p2.top(), &originals, 1).unwrap();
        assert_eq!(fusion.partitions, cold.partitions);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{stats}");
        let top_p = Partition::singletons(p2.size());
        assert_eq!(
            session.lower_cover(p2.top(), &top_p).unwrap(),
            lattice_oracle::lower_cover(p2.top(), &top_p)
        );
        assert_eq!(
            session.enumerate_lattice(p2.top(), 500).unwrap().elements,
            lattice_oracle::enumerate_lattice(p2.top(), 500).elements
        );
    }

    #[test]
    fn multi_worker_session_matches_single_worker_session() {
        // `workers` is a documented no-op: a session asked for four workers
        // must produce every fusion and statistic of a one-worker session.
        let machines = vec![
            counter("a", "0", 3),
            counter("b", "1", 3),
            counter("c", "0", 4),
        ];
        let mut one = FusionConfig::new().workers(1).build();
        let mut four = FusionConfig::new().workers(4).build();
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
        let mut session = FusionConfig::new().build();
        let product = session.build_product(&fig1_pair()).unwrap();
        let top = product.top();
        let lattice = session.enumerate_lattice(top, 500).unwrap();
        let free = crate::lattice::enumerate_lattice(top, 500).unwrap();
        let oracle = lattice_oracle::enumerate_lattice(top, 500);
        assert_eq!(lattice.elements, oracle.elements);
        assert_eq!(lattice.truncated, oracle.truncated);
        assert_eq!(free.elements, oracle.elements);
        assert_eq!(free.truncated, oracle.truncated);
        let top_p = Partition::singletons(top.size());
        let cover = lattice_oracle::lower_cover(top, &top_p);
        assert_eq!(session.lower_cover(top, &top_p).unwrap(), cover);
        assert_eq!(crate::lattice::lower_cover(top, &top_p).unwrap(), cover);
    }

    #[test]
    fn update_top_add_matches_cold_session_and_reuses_layers() {
        let mut warm = FusionConfig::new().build();
        warm.install_top(&fig1_pair()).unwrap();
        let before = warm.generate_top_fusion(1).unwrap();
        assert_eq!(before.machine_sizes(), vec![3]);

        let stats = warm
            .update_top(TopDelta::AddMachine(counter("c", "0", 3)))
            .unwrap();
        assert!(!stats.cold_rebuild, "{stats}");
        assert!(!stats.graph_rebuilt, "{stats}");
        // The replica leaves the weakest edges of the other counter
        // unseparated, so the kept list shows the new level.
        assert_eq!(stats.graph_stripes_touched, 0, "{stats}");
        assert_eq!(stats.closures_remapped, 0, "{stats}");
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
        // Both sweeps cloned the evolved graph instead of rebuilding it.
        assert_eq!(warm.cache_stats().misses, 1);
        assert_walks_match_oracle(&mut warm);
    }

    /// A lattice walk and a lower cover over the session's installed `⊤`
    /// equal the `n`-state oracle's — the session walks the post-delta
    /// machine, not the one it was installed with.
    fn assert_walks_match_oracle(session: &mut FusionSession) {
        let top = session.top_product().unwrap().top().clone();
        let walked = session.enumerate_lattice(&top, 500).unwrap();
        let oracle = lattice_oracle::enumerate_lattice(&top, 500);
        assert_eq!(walked.elements, oracle.elements);
        assert_eq!(walked.truncated, oracle.truncated);
        let top_p = Partition::singletons(top.size());
        assert_eq!(
            session.lower_cover(&top, &top_p).unwrap(),
            lattice_oracle::lower_cover(&top, &top_p)
        );
    }

    #[test]
    fn update_top_remove_matches_cold_session() {
        let mut machines = fig1_pair();
        machines.push(counter("c", "0", 4));
        let mut warm = FusionConfig::new().build();
        warm.install_top(&machines).unwrap();
        warm.generate_top_fusion(1).unwrap();
        assert_walks_match_oracle(&mut warm);

        let stats = warm.update_top(TopDelta::RemoveMachine(2)).unwrap();
        assert!(!stats.cold_rebuild, "{stats}");
        assert!(!stats.graph_rebuilt, "{stats}");
        assert_eq!(stats.closures_remapped, 0, "{stats}");
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
        assert_walks_match_oracle(&mut warm);
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

    /// A two-state machine: one event `t` toggling between the states.
    fn toggle(name: &str) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        b.add_states([format!("{name}0"), format!("{name}1")]);
        b.set_initial(format!("{name}0"));
        b.add_transition(format!("{name}0"), "t", format!("{name}1"));
        b.add_transition(format!("{name}1"), "t", format!("{name}0"));
        b.build().unwrap()
    }

    #[test]
    fn too_many_machines_surface_as_typed_errors() {
        let limit = crate::fault_graph::DENSE_MACHINE_LIMIT;
        let mut session = FusionConfig::new().build();
        // Two-state ⊤ whose one original separates its only edge: f
        // faults take f backups.
        let top = toggle("t");
        let originals = [Partition::singletons(2)];
        assert_eq!(
            session
                .generate_fusion(&top, &originals, limit)
                .unwrap_err(),
            FusionError::TooManyMachines {
                machines: limit + 1,
                limit
            }
        );
        // The session is unharmed: the same inputs still fuse.
        assert_eq!(
            session.generate_fusion(&top, &originals, 1).unwrap().len(),
            1
        );

        // Installed ⊤ of `limit` lock-step toggles: still two states, and
        // the graph of its originals is exactly full.
        let copies: Vec<Dfsm> = (0..limit).map(|_| toggle("t")).collect();
        assert_eq!(session.install_top(&copies).unwrap(), 2);
        assert_eq!(
            session
                .update_top(TopDelta::AddMachine(toggle("t")))
                .unwrap_err(),
            FusionError::TooManyMachines {
                machines: limit + 1,
                limit
            }
        );
        assert!(matches!(
            session.generate_top_fusion(limit),
            Err(FusionError::TooManyMachines { .. })
        ));
        // The rejected delta left the top installed and usable.
        assert_eq!(session.top_machines().unwrap().len(), limit);
        let fusion = session.generate_top_fusion(0).unwrap();
        assert!(fusion.is_empty());
        assert_eq!(fusion.stats.initial_dmin, u32::from(u16::MAX));
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
}
