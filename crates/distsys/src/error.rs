//! Error types for the distributed-system simulation.

use std::fmt;

/// Errors raised by the simulated distributed system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described by the variant docs and Display impl
pub enum DistsysError {
    /// A system was built with no machines.
    NoMachines,
    /// A fault or query referenced a server that does not exist.
    NoSuchServer { server: usize, count: usize },
    /// A Byzantine fault tried to move a server to a state it does not have.
    InvalidState {
        server: usize,
        state: usize,
        size: usize,
    },
    /// Report collection gave up on servers that went down (killed,
    /// stopped by a storage failure, or panicked) or stayed unresponsive
    /// past the collection deadline without reporting.
    MissingReports {
        /// Indices of the servers that never reported.
        servers: Vec<usize>,
    },
    /// A fault plan names a server or state the group does not have, kills
    /// a server that is down, restarts one that is up, or is out of
    /// `after_event` order (`FaultPlan::validate`).
    MalformedPlan {
        /// Index of the first offending fault in the plan.
        fault: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A resync's server was down, or went down, before answering.
    ServerDown { server: usize },
    /// A restart targeted a server whose process is still up.
    ServerUp { server: usize },
    /// A restart or resync targeted a server that has no durable state
    /// (the group was spawned without durability).
    NotDurable { server: usize },
    /// A client pushed into a full ingestion queue: the typed, non-blocking
    /// face of backpressure (`ClientHandle::try_push`).
    Backpressure {
        /// The client whose queue is full.
        client: usize,
        /// The queue's fixed capacity.
        capacity: usize,
    },
    /// The diverted backlog for a down server overflowed and was dropped,
    /// so a rejoin replay can no longer catch it up; rejoin must go through
    /// peer resync instead.
    BacklogLost {
        /// The server whose backlog was dropped.
        server: usize,
        /// How many diverted events were lost.
        dropped: u64,
    },
    /// Durable storage failed (I/O error, corrupt blob, poisoned lock, or a
    /// log that cannot be replayed).
    Storage {
        /// Human-readable description of what failed.
        message: String,
    },
    /// An error from the fusion layer (generation or recovery).
    Fusion(fsm_fusion_core::FusionError),
    /// An error from the DFSM layer.
    Dfsm(fsm_dfsm::DfsmError),
}

impl fmt::Display for DistsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistsysError::NoMachines => write!(f, "a system needs at least one machine"),
            DistsysError::NoSuchServer { server, count } => {
                write!(f, "server {server} does not exist (system has {count})")
            }
            DistsysError::InvalidState {
                server,
                state,
                size,
            } => write!(
                f,
                "state {state} is out of range for server {server} (machine has {size} states)"
            ),
            DistsysError::MissingReports { servers } => write!(
                f,
                "servers {servers:?} never reported (down or unresponsive)"
            ),
            DistsysError::MalformedPlan { fault, reason } => {
                write!(f, "malformed plan: fault {fault}: {reason}")
            }
            DistsysError::ServerDown { server } => {
                write!(f, "server {server} is already down")
            }
            DistsysError::ServerUp { server } => {
                write!(f, "server {server} is still up; kill it before restarting")
            }
            DistsysError::NotDurable { server } => write!(
                f,
                "server {server} has no durable state; spawn the group with durability enabled"
            ),
            DistsysError::Backpressure { client, capacity } => write!(
                f,
                "client {client}'s queue is full (capacity {capacity}); \
                 the aggregator is behind — retry after a pump or block"
            ),
            DistsysError::BacklogLost { server, dropped } => write!(
                f,
                "server {server} lost {dropped} diverted events (divert buffer overflow); \
                 rejoin via peer resync, not replay"
            ),
            DistsysError::Storage { message } => write!(f, "storage error: {message}"),
            DistsysError::Fusion(e) => write!(f, "fusion error: {e}"),
            DistsysError::Dfsm(e) => write!(f, "dfsm error: {e}"),
        }
    }
}

impl std::error::Error for DistsysError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistsysError::Fusion(e) => Some(e),
            DistsysError::Dfsm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fsm_fusion_core::FusionError> for DistsysError {
    fn from(e: fsm_fusion_core::FusionError) -> Self {
        DistsysError::Fusion(e)
    }
}

impl From<fsm_dfsm::DfsmError> for DistsysError {
    fn from(e: fsm_dfsm::DfsmError) -> Self {
        DistsysError::Dfsm(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DistsysError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(DistsysError::NoMachines.to_string().contains("machine"));
        let e: DistsysError = fsm_dfsm::DfsmError::NoStates.into();
        assert!(matches!(e, DistsysError::Dfsm(_)));
        let e: DistsysError = fsm_fusion_core::FusionError::NothingToRecoverFrom.into();
        assert!(matches!(e, DistsysError::Fusion(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = DistsysError::NoSuchServer {
            server: 5,
            count: 3,
        };
        assert!(e.to_string().contains('5'));
        let e = DistsysError::MissingReports {
            servers: vec![0, 2],
        };
        assert!(e.to_string().contains("[0, 2]"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn recovery_variants_display() {
        assert!(DistsysError::ServerDown { server: 1 }
            .to_string()
            .contains("already down"));
        assert!(DistsysError::ServerUp { server: 2 }
            .to_string()
            .contains("still up"));
        assert!(DistsysError::NotDurable { server: 0 }
            .to_string()
            .contains("durable"));
        let e = DistsysError::MalformedPlan {
            fault: 2,
            reason: "server 1 is up".into(),
        };
        assert_eq!(e.to_string(), "malformed plan: fault 2: server 1 is up");
        let e = DistsysError::Storage {
            message: "disk on fire".into(),
        };
        assert!(e.to_string().contains("disk on fire"));
    }

    #[test]
    fn ingest_variants_display() {
        let e = DistsysError::Backpressure {
            client: 3,
            capacity: 64,
        };
        assert!(e.to_string().contains("client 3"));
        assert!(e.to_string().contains("64"));
        let e = DistsysError::BacklogLost {
            server: 1,
            dropped: 42,
        };
        assert!(e.to_string().contains("server 1"));
        assert!(e.to_string().contains("42"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
