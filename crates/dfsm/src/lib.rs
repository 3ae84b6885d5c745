//! # fsm-dfsm — deterministic finite state machine substrate
//!
//! This crate provides the DFSM model used throughout the fusion-based
//! fault-tolerance library (a reproduction of *"A Fusion-based Approach for
//! Tolerating Faults in Finite State Machines"*, Ogale, Balasubramanian and
//! Garg, IPDPS 2009):
//!
//! * [`Dfsm`] — the machine quadruple `(X, Σ, δ, x0)` of Definition 1, with
//!   a *total* transition function and the convention that events outside a
//!   machine's alphabet are ignored (Section 2's system model).
//! * [`DfsmBuilder`] — checked construction of machines.
//! * [`Executor`] — the mutable execution state that crash faults erase and
//!   Byzantine faults corrupt.
//! * [`ReachableProduct`] — the reachable cross product `R(A)` / `⊤`
//!   (Section 2), the machine every fusion is a quotient of.
//! * [`minimize_by_output`] / [`minimize_by_labels`] — Moore-style
//!   reduction, reflecting the paper's assumption that inputs are "reduced a
//!   priori".
//! * [`isomorphism`] — structural equality of machines up to state renaming,
//!   used to check generated fusions against the paper's hand-derived ones.
//! * [`to_dot`] — Graphviz export.
//!
//! Higher layers:
//!
//! * `fsm-fusion-core` implements closed partitions, fault graphs and the
//!   fusion generation / recovery algorithms on top of this crate.
//! * `fsm-machines` provides the concrete machines used in the paper's
//!   evaluation (MESI, TCP, counters, …).
//! * `fsm-distsys` simulates the distributed system of Section 2.
//!
//! ## Quick example
//!
//! ```
//! use fsm_dfsm::{DfsmBuilder, Event, ReachableProduct};
//!
//! // The two mod-3 counters of the paper's Figure 1.
//! let mut a = DfsmBuilder::new("A");
//! a.add_states(["a0", "a1", "a2"]);
//! a.set_initial("a0");
//! for i in 0..3 {
//!     a.add_transition(format!("a{i}"), "0", format!("a{}", (i + 1) % 3));
//!     a.add_transition(format!("a{i}"), "1", format!("a{i}"));
//! }
//! let mut b = DfsmBuilder::new("B");
//! b.add_states(["b0", "b1", "b2"]);
//! b.set_initial("b0");
//! for i in 0..3 {
//!     b.add_transition(format!("b{i}"), "1", format!("b{}", (i + 1) % 3));
//!     b.add_transition(format!("b{i}"), "0", format!("b{i}"));
//! }
//! let a = a.build().unwrap();
//! let b = b.build().unwrap();
//!
//! // Their reachable cross product has 9 states (Figure 1(iii)).
//! let top = ReachableProduct::new(&[a.clone(), b.clone()]).unwrap();
//! assert_eq!(top.size(), 9);
//!
//! // Running the same events on the product and the parts agrees.
//! let events = [Event::new("0"), Event::new("1"), Event::new("0")];
//! let t = top.top().run(events.iter());
//! assert_eq!(top.component_state(t, 0), a.run(events.iter()));
//! assert_eq!(top.component_state(t, 1), b.run(events.iter()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod dfsm;
mod dot;
mod error;
mod event;
mod executor;
mod isomorphism;
mod minimize;
mod product;
mod state;

pub use builder::DfsmBuilder;
pub use dfsm::Dfsm;
pub use dot::{to_dot, to_dot_default, DotOptions};
pub use error::{DfsmError, Result};
pub use event::{Alphabet, Event, EventId};
pub use executor::Executor;
pub use isomorphism::{are_isomorphic, isomorphism};
pub use minimize::{minimize_by_labels, minimize_by_output, Minimized};
pub use product::{FactorExtension, ReachableProduct};
pub use state::{StateId, StateInfo};
