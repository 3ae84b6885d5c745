//! Error types for the DFSM substrate.

use std::fmt;

use crate::event::Event;
use crate::state::StateId;

/// Errors raised when building or manipulating DFSMs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described by the variant docs and Display impl
pub enum DfsmError {
    /// The machine has no states.
    NoStates,
    /// No initial state was specified.
    NoInitialState,
    /// A state name was used twice.
    DuplicateState(String),
    /// A transition refers to a state that does not exist.
    UnknownState(String),
    /// A transition refers to an event that is not in the alphabet and the
    /// builder was configured to reject implicit alphabet growth.
    UnknownEvent(String),
    /// The transition function is not total: the given state is missing a
    /// transition for the given event.
    MissingTransition { state: String, event: String },
    /// Two conflicting transitions were declared for the same state/event.
    ConflictingTransition {
        state: String,
        event: String,
        existing: String,
        attempted: String,
    },
    /// A state is not reachable from the initial state.  The paper's model
    /// (Section 2) assumes every state is reachable.
    UnreachableState(String),
    /// A state id is out of range for the machine.
    StateOutOfRange { state: StateId, size: usize },
    /// An event was applied that the machine cannot interpret (only possible
    /// through the strict application API; the lenient API ignores it).
    EventNotInAlphabet(Event),
    /// A machine claimed to be less than or equal to another is not
    /// (Algorithm 1 detected an inconsistency during lock-step simulation).
    NotLessOrEqual { reason: String },
}

impl fmt::Display for DfsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsmError::NoStates => write!(f, "machine has no states"),
            DfsmError::NoInitialState => write!(f, "machine has no initial state"),
            DfsmError::DuplicateState(s) => write!(f, "duplicate state name `{s}`"),
            DfsmError::UnknownState(s) => write!(f, "unknown state `{s}`"),
            DfsmError::UnknownEvent(e) => write!(f, "unknown event `{e}`"),
            DfsmError::MissingTransition { state, event } => {
                write!(f, "missing transition from `{state}` on event `{event}`")
            }
            DfsmError::ConflictingTransition {
                state,
                event,
                existing,
                attempted,
            } => write!(
                f,
                "conflicting transition from `{state}` on `{event}`: already goes to `{existing}`, attempted `{attempted}`"
            ),
            DfsmError::UnreachableState(s) => write!(f, "state `{s}` is unreachable"),
            DfsmError::StateOutOfRange { state, size } => {
                write!(f, "state {state} out of range for machine of size {size}")
            }
            DfsmError::EventNotInAlphabet(e) => {
                write!(f, "event `{e}` is not in the machine's alphabet")
            }
            DfsmError::NotLessOrEqual { reason } => {
                write!(f, "machine is not less than or equal to the reference machine: {reason}")
            }
        }
    }
}

impl std::error::Error for DfsmError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DfsmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DfsmError::MissingTransition {
            state: "a0".into(),
            event: "0".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("a0"));
        assert!(msg.contains('0'));

        let e = DfsmError::ConflictingTransition {
            state: "s".into(),
            event: "e".into(),
            existing: "x".into(),
            attempted: "y".into(),
        };
        assert!(e.to_string().contains("conflicting"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&DfsmError::NoStates);
    }
}
