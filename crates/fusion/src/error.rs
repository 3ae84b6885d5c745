//! Error types for the fusion library.

use std::fmt;

/// Errors raised by the fusion algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described by the variant docs and Display impl
pub enum FusionError {
    /// A partition was built over the wrong number of elements.
    PartitionSizeMismatch { expected: usize, actual: usize },
    /// A partition's blocks do not cover every element exactly once.
    InvalidPartition(String),
    /// A partition is not closed under the machine's transition function.
    NotClosed { block: usize, event: String },
    /// A machine claimed to be ≤ top is not (Algorithm 1 found an
    /// inconsistency).
    NotLessOrEqual(String),
    /// No `(f, m)`-fusion exists for the requested parameters
    /// (Theorem 4: requires `m + dmin(A) > f`).
    NoFusionExists { f: usize, m: usize, dmin: usize },
    /// Recovery could not determine a unique state of the top machine
    /// (more faults occurred than the fusion tolerates).
    AmbiguousRecovery { candidates: Vec<usize> },
    /// Recovery was attempted with every machine crashed.
    NothingToRecoverFrom,
    /// A report referenced a block or machine index that does not exist.
    InvalidReport(String),
    /// A [`crate::TopDelta`] that cannot be applied to the session's
    /// installed `⊤` (index out of range, no top installed, removing the
    /// last machine, or an extension that shrinks a machine's states or
    /// alphabet).
    InvalidDelta(String),
    /// A fusion would put more machines (originals plus backups) into one
    /// fault graph than it holds
    /// ([`crate::fault_graph::DENSE_MACHINE_LIMIT`]; its weights are `u16`).
    TooManyMachines { machines: usize, limit: usize },
    /// An underlying DFSM error.
    Dfsm(fsm_dfsm::DfsmError),
}

impl fmt::Display for FusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusionError::PartitionSizeMismatch { expected, actual } => write!(
                f,
                "partition covers {actual} elements but the machine has {expected} states"
            ),
            FusionError::InvalidPartition(msg) => write!(f, "invalid partition: {msg}"),
            FusionError::NotClosed { block, event } => write!(
                f,
                "partition is not closed: block {block} is split by event `{event}`"
            ),
            FusionError::NotLessOrEqual(msg) => {
                write!(f, "machine is not less than or equal to top: {msg}")
            }
            FusionError::NoFusionExists { f: faults, m, dmin } => write!(
                f,
                "no ({faults},{m})-fusion exists: m + dmin = {} must exceed f = {faults}",
                m + dmin
            ),
            FusionError::AmbiguousRecovery { candidates } => write!(
                f,
                "recovery is ambiguous between {} candidate states (too many faults)",
                candidates.len()
            ),
            FusionError::NothingToRecoverFrom => {
                write!(f, "recovery attempted with no surviving machine state")
            }
            FusionError::InvalidReport(msg) => write!(f, "invalid recovery report: {msg}"),
            FusionError::InvalidDelta(msg) => write!(f, "invalid top delta: {msg}"),
            FusionError::TooManyMachines { machines, limit } => write!(
                f,
                "{machines} machines exceed the fault graph's limit of {limit}"
            ),
            FusionError::Dfsm(e) => write!(f, "dfsm error: {e}"),
        }
    }
}

impl std::error::Error for FusionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FusionError::Dfsm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fsm_dfsm::DfsmError> for FusionError {
    fn from(e: fsm_dfsm::DfsmError) -> Self {
        FusionError::Dfsm(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, FusionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FusionError::NoFusionExists {
            f: 3,
            m: 1,
            dmin: 1,
        };
        let s = e.to_string();
        assert!(s.contains("(3,1)"));
        let e = FusionError::AmbiguousRecovery {
            candidates: vec![0, 3],
        };
        assert!(e.to_string().contains("2 candidate"));
        let e = FusionError::TooManyMachines {
            machines: 65_536,
            limit: 65_535,
        };
        assert!(e.to_string().contains("65536 machines"));
    }

    #[test]
    fn dfsm_error_conversion() {
        let e: FusionError = fsm_dfsm::DfsmError::NoStates.into();
        assert!(matches!(e, FusionError::Dfsm(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
