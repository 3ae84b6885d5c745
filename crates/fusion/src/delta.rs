//! The `delta` subsystem: incremental re-fusion across *evolving* tops.
//!
//! The paper's construction fixes the machine set `M` once and derives
//! everything — the reachable cross product `⊤` and the fault graph
//! `G(⊤, M)` — from that snapshot.  Deployed fleets evolve: a machine
//! joins, one retires, one grows a state or an event.  Rebuilding a
//! [`crate::FusionSession`] for each change would rebuild the product from
//! scratch and re-run Algorithm 2 against a cold fault graph.
//!
//! [`TopDelta`] names the three edits, and
//! [`crate::FusionSession::update_top`] applies one *incrementally*:
//!
//! * **`AddMachine`** — the packed mixed-radix product interner makes one
//!   more factor a stride extension, not a rebuild
//!   ([`fsm_dfsm::ReachableProduct::extend_factor`]); the old fault graph's
//!   partitions are lifted along the projection, the new machine's is
//!   added, and the new weakest edges are read off the lifted old ones
//!   unless the new machine covers them all
//!   ([`crate::FaultGraph::remap_states_adding`]).
//! * **`RemoveMachine`** — the graph drops the departing machine's
//!   partition while contracting onto representative states, and the
//!   kept weakest edges it separated become the new weakest edges when
//!   there are any ([`crate::FaultGraph::remap_states_removing`]).
//! * **`ExtendMachine`** — a grown component changes the transition
//!   structure itself, so the session falls back to a documented cold
//!   rebuild ([`UpdateStats::cold_rebuild`]).
//!
//! Every path is pinned bit-identical — fusion partitions, generation
//! statistics, product numbering — to a cold session built on the
//! post-delta `⊤` (`tests/delta_properties.rs`, random delta sequences,
//! with lattice walks pinned to a test-only oracle after every step).  [`UpdateStats`] reports what was
//! reused versus recomputed, and `BENCH_fusion.json` tracks the
//! add-one-machine warm-vs-cold ratio as `speedup_update_vs_cold`.

use std::fmt;

use fsm_dfsm::Dfsm;

/// One edit to the machine set behind a session's `⊤` — the argument to
/// [`crate::FusionSession::update_top`].
#[derive(Debug, Clone)]
pub enum TopDelta {
    /// Append a machine to the set.  The product gains one factor (a
    /// stride extension of the packed interner) and the fault graph is
    /// pulled back, its weakest edges re-derived from the kept ones.
    AddMachine(Dfsm),
    /// Remove the machine at this index (the remaining machines keep
    /// their order).  Removing the last machine is an error — a session
    /// needs a non-empty `⊤`.
    RemoveMachine(usize),
    /// Replace the machine at `index` with an *extension* of itself: a
    /// machine with at least as many states whose alphabet contains every
    /// event of the original.  This changes transition structure, so the
    /// update is a documented cold rebuild.
    ExtendMachine {
        /// Which machine grew.
        index: usize,
        /// Its extended replacement.
        machine: Dfsm,
    },
}

impl fmt::Display for TopDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopDelta::AddMachine(m) => write!(f, "add machine `{}`", m.name()),
            TopDelta::RemoveMachine(i) => write!(f, "remove machine #{i}"),
            TopDelta::ExtendMachine { index, machine } => {
                write!(f, "extend machine #{index} to `{}`", machine.name())
            }
        }
    }
}

/// What [`crate::FusionSession::update_top`] reused versus recomputed —
/// the delta-side counterpart of [`crate::CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Cached closures carried across the delta.  Always 0: a session
    /// keeps no closures between calls (lattice walks and Algorithm 2
    /// close merges on the quotient); the field stays for existing
    /// readers.
    pub closures_remapped: u64,
    /// States of the post-delta product that were (re-)expanded while
    /// applying the delta.
    pub product_states_reexpanded: usize,
    /// Weakest-edge levels the delta had to search: 0 when the kept
    /// weakest edges showed the new ones, and when the graph was rebuilt
    /// cold.
    pub graph_stripes_touched: usize,
    /// The fault graph was not carried over from the session's kept one:
    /// the slot held no graph of the pre-delta `⊤`, so it was rebuilt from
    /// the post-delta partitions, or the whole update was a cold rebuild.
    pub graph_rebuilt: bool,
    /// The whole update fell back to a cold rebuild (`ExtendMachine`, or
    /// a delta the warm paths cannot express).
    pub cold_rebuild: bool,
}

impl fmt::Display for UpdateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "update: {} product states re-expanded, {} graph levels searched{}, \
             {} closures remapped{}",
            self.product_states_reexpanded,
            self.graph_stripes_touched,
            if self.graph_rebuilt {
                " (graph rebuilt)"
            } else {
                ""
            },
            self.closures_remapped,
            if self.cold_rebuild {
                " [cold rebuild]"
            } else {
                ""
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dfsm::DfsmBuilder;

    #[test]
    fn display_reads_cleanly() {
        let stats = UpdateStats {
            closures_remapped: 12,
            product_states_reexpanded: 729,
            graph_stripes_touched: 7,
            graph_rebuilt: false,
            cold_rebuild: false,
        };
        let s = stats.to_string();
        assert!(s.contains("729 product states"), "{s}");
        assert!(s.contains("7 graph levels searched"), "{s}");
        assert!(s.contains("12 closures remapped"), "{s}");
        assert!(!s.contains("cold rebuild"), "{s}");

        let cold = UpdateStats {
            cold_rebuild: true,
            graph_rebuilt: true,
            ..Default::default()
        };
        let s = cold.to_string();
        assert!(s.contains("cold rebuild"), "{s}");
        assert!(s.contains("graph rebuilt"), "{s}");

        let mut b = DfsmBuilder::new("Z");
        b.add_state("z0");
        b.set_initial("z0");
        b.add_self_loops("0");
        let m = b.build().unwrap();
        assert_eq!(
            TopDelta::AddMachine(m.clone()).to_string(),
            "add machine `Z`"
        );
        assert_eq!(TopDelta::RemoveMachine(2).to_string(), "remove machine #2");
        assert_eq!(
            TopDelta::ExtendMachine {
                index: 1,
                machine: m
            }
            .to_string(),
            "extend machine #1 to `Z`"
        );
    }
}
