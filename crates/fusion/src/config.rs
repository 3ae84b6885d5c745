//! [`FusionConfig`], the builder of a [`FusionSession`].
//!
//! A session has nothing left to configure: there is one Algorithm-2
//! engine (the sequential descent) and one product construction (the
//! packed BFS of [`fsm_dfsm::ReachableProduct::new`]), and the environment
//! is never read.  [`FusionConfig::engine`] and [`FusionConfig::workers`]
//! remain as documented no-ops so that code written against them keeps
//! compiling.
//!
//! Build the session with [`FusionConfig::build`].

use crate::session::FusionSession;

/// The Algorithm-2 / lattice engine a [`FusionSession`] runs.
///
/// There is only one engine, the sequential descent, so this type no
/// longer selects anything; it stays so that code written against
/// [`FusionConfig::engine`] keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The single-threaded greedy descent ([`crate::generate_fusion`]).
    #[default]
    Sequential,
}

/// Builder for a [`FusionSession`].
///
/// ```
/// use fsm_fusion_core::FusionConfig;
///
/// let session = FusionConfig::new().build();
/// assert_eq!(session.cache_stats().hits, 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionConfig;

impl FusionConfig {
    /// The (only) configuration.
    pub fn new() -> Self {
        Self
    }

    /// Accepts an [`Engine`] and returns the config unchanged: with one
    /// engine there is nothing left to select.
    pub fn engine(self, _engine: Engine) -> Self {
        self
    }

    /// Accepts a worker count and returns the config unchanged: the
    /// product build and Algorithm 2 both run on the calling thread.
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Builds the [`FusionSession`].
    pub fn build(self) -> FusionSession {
        FusionSession::new(self)
    }
}
