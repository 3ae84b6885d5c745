//! Explicit configuration for a [`FusionSession`]: [`FusionConfig`] and
//! the knobs it bundles.
//!
//! A [`FusionConfig`] makes every choice explicit and resolves the
//! environment **once**, at [`FusionConfig::from_env`]:
//!
//! * the worker count for the parallel product builder,
//! * [`ProductStrategy`] (re-exported from [`fsm_dfsm`]) — how the
//!   reachable cross product is constructed, together with its sizing
//!   knobs: the dense-interner limit ([`FusionConfig::dense_limit`],
//!   `FSM_FUSION_DENSE_LIMIT`) and the streaming build's memory budget
//!   ([`FusionConfig::mem_budget`], `FSM_FUSION_MEM_BUDGET`),
//! * [`CachePolicy`] — whether the session keeps a cross-call closure
//!   cache, and how large it may grow.
//!
//! **Precedence.**  Explicit builder calls beat the environment snapshot,
//! which beats the defaults: a worker count set through
//! [`FusionConfig::workers`] wins even on a config created by
//! [`FusionConfig::from_env`], and likewise for the sizing knobs.
//! The pure resolution rules are pinned by unit tests here (no environment
//! mutation needed) and by `tests/session_properties.rs`.
//!
//! Build the configured session with [`FusionConfig::build`].

pub use fsm_dfsm::ProductStrategy;
use fsm_dfsm::{parse_byte_size, parse_workers, DEFAULT_DENSE_LIMIT, DEFAULT_MEM_BUDGET};

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

/// How a [`FusionSession`]'s cross-call closure cache behaves.  The cache
/// holds lower-cover closures of lattice walks and the initial fault graph
/// of the last generation; Algorithm 2's candidate merges never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: every lower-cover closure and every initial fault graph is
    /// recomputed, exactly like the free functions.
    Disabled,
    /// Keep closures across calls, bounded to this many cached **elements**
    /// (entries × `|⊤|`, i.e. roughly `8 × bound` bytes).  When an
    /// insertion would exceed the bound, whole lattice levels are evicted
    /// *oldest first* (counted in [`crate::CacheStats::evicted`]) until it
    /// fits; an insertion that cannot fit even then is skipped, so a
    /// single oversized closure never cold-starts subsequent sweeps.
    Bounded(usize),
}

impl CachePolicy {
    /// The default bound: 4 Mi cached elements (≈ 32 MiB of assignments),
    /// which holds several thousand cached closures at `|⊤| = 729`.
    pub const DEFAULT_BOUND: usize = 1 << 22;
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::Bounded(Self::DEFAULT_BOUND)
    }
}

/// Builder for a [`FusionSession`]: worker count, product-builder strategy
/// and cache policy, with the environment consulted only when (and once,
/// at the moment) [`FusionConfig::from_env`] is used.
///
/// ```
/// use fsm_fusion_core::{CachePolicy, FusionConfig, ProductStrategy};
///
/// let session = FusionConfig::new()
///     .workers(2)
///     .cache(CachePolicy::Bounded(1 << 20))
///     .build();
/// assert_eq!(session.product_strategy(), ProductStrategy::Parallel);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FusionConfig {
    workers: Option<usize>,
    env_workers: Option<usize>,
    dense_limit: Option<u64>,
    env_dense_limit: Option<u64>,
    mem_budget: Option<u64>,
    env_mem_budget: Option<u64>,
    product: ProductStrategy,
    cache: CachePolicy,
}

impl FusionConfig {
    /// A config with the explicit defaults: one worker,
    /// [`ProductStrategy::Auto`], the default bounded cache — and **no**
    /// environment consultation, ever.
    pub fn new() -> Self {
        Self::default()
    }

    /// A config whose `Auto` fallbacks are snapshotted from the environment
    /// **now**: `FSM_FUSION_WORKERS` (worker count, the same convention as
    /// [`fsm_dfsm::configured_workers`]) and the product-builder sizing knobs
    /// `FSM_FUSION_DENSE_LIMIT` / `FSM_FUSION_MEM_BUDGET` (the
    /// [`fsm_dfsm::parse_byte_size`] convention).  Later changes to the
    /// environment do not affect the config, and explicit builder calls
    /// still take precedence.
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("FSM_FUSION_WORKERS").ok().as_deref(),
            std::env::var("FSM_FUSION_DENSE_LIMIT").ok().as_deref(),
            std::env::var("FSM_FUSION_MEM_BUDGET").ok().as_deref(),
        )
    }

    /// The pure form of [`FusionConfig::from_env`]: resolution from
    /// explicit variable values, so the precedence rules are testable
    /// without mutating the process environment.
    pub fn from_env_values(
        workers: Option<&str>,
        dense_limit: Option<&str>,
        mem_budget: Option<&str>,
    ) -> Self {
        FusionConfig {
            env_workers: workers.map(parse_workers),
            env_dense_limit: dense_limit.and_then(parse_byte_size),
            env_mem_budget: mem_budget.and_then(parse_byte_size),
            ..Self::default()
        }
    }

    /// Accepts an [`Engine`] and returns the config unchanged: with one
    /// engine there is nothing left to select.
    pub fn engine(self, _engine: Engine) -> Self {
        self
    }

    /// Sets the worker count explicitly, overriding any environment
    /// snapshot (clamped to at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the product-builder strategy (default
    /// [`ProductStrategy::Auto`]).
    pub fn product(mut self, strategy: ProductStrategy) -> Self {
        self.product = strategy;
        self
    }

    /// Sets the product builder's dense-interner limit (a full-product
    /// *state count*) explicitly, overriding any `FSM_FUSION_DENSE_LIMIT`
    /// snapshot.
    pub fn dense_limit(mut self, limit: u64) -> Self {
        self.dense_limit = Some(limit);
        self
    }

    /// Sets the streaming product builder's resident-memory budget
    /// (bytes) explicitly, overriding any `FSM_FUSION_MEM_BUDGET`
    /// snapshot.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Sets the closure-cache policy (default
    /// [`CachePolicy::Bounded`] at [`CachePolicy::DEFAULT_BOUND`]).
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// The worker count this config resolves to:
    /// **explicit > environment snapshot > 1**.
    ///
    /// An `auto` environment value resolves through
    /// [`fsm_dfsm::configured_workers`]'s convention at snapshot time, so the count
    /// is already concrete here.
    pub fn resolved_workers(&self) -> usize {
        self.workers.or(self.env_workers).unwrap_or(1).max(1)
    }

    /// The product strategy this config resolves to (never
    /// [`ProductStrategy::Auto`]): the configured strategy, with `Auto`
    /// picking [`ProductStrategy::Parallel`] iff more than one worker is
    /// resolved.
    pub fn resolved_product(&self) -> ProductStrategy {
        match self.product {
            ProductStrategy::Auto if self.resolved_workers() > 1 => ProductStrategy::Parallel,
            ProductStrategy::Auto => ProductStrategy::Packed,
            explicit => explicit,
        }
    }

    /// The dense-interner limit this config resolves to:
    /// **explicit > environment snapshot >
    /// [`fsm_dfsm::DEFAULT_DENSE_LIMIT`]**.
    pub fn resolved_dense_limit(&self) -> u64 {
        self.dense_limit
            .or(self.env_dense_limit)
            .unwrap_or(DEFAULT_DENSE_LIMIT)
    }

    /// The streaming memory budget this config resolves to:
    /// **explicit > environment snapshot >
    /// [`fsm_dfsm::DEFAULT_MEM_BUDGET`]**.
    pub fn resolved_mem_budget(&self) -> u64 {
        self.mem_budget
            .or(self.env_mem_budget)
            .unwrap_or(DEFAULT_MEM_BUDGET)
    }

    /// The configured cache policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache
    }

    /// Builds the configured [`FusionSession`].
    pub fn build(self) -> FusionSession {
        FusionSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_explicit_beats_env_beats_default() {
        // Workers: explicit > env > auto-detect (1).
        assert_eq!(FusionConfig::new().resolved_workers(), 1);
        let env = FusionConfig::from_env_values(Some("4"), None, None);
        assert_eq!(env.resolved_workers(), 4);
        assert_eq!(env.clone().workers(2).resolved_workers(), 2);
        assert_eq!(env.clone().workers(1).resolved_workers(), 1);
        // The engine setter selects nothing: the config is unchanged.
        let pinned = env.clone().engine(Engine::Sequential);
        assert_eq!(pinned.resolved_workers(), env.resolved_workers());
        assert_eq!(pinned.resolved_product(), env.resolved_product());
    }

    #[test]
    fn product_strategy_resolution_follows_workers() {
        assert_eq!(
            FusionConfig::new().resolved_product(),
            ProductStrategy::Packed
        );
        assert_eq!(
            FusionConfig::new().workers(3).resolved_product(),
            ProductStrategy::Parallel
        );
        assert_eq!(
            FusionConfig::new()
                .product(ProductStrategy::Reference)
                .resolved_product(),
            ProductStrategy::Reference
        );
    }

    #[test]
    fn unparseable_env_values_fall_back() {
        let c = FusionConfig::from_env_values(Some("bogus"), None, None);
        assert_eq!(c.resolved_workers(), 1);
        assert_eq!(c.resolved_product(), ProductStrategy::Packed);
    }

    #[test]
    fn sizing_knobs_follow_the_same_precedence() {
        use fsm_dfsm::{DEFAULT_DENSE_LIMIT, DEFAULT_MEM_BUDGET};

        // Defaults come from the dfsm crate's compiled-in constants.
        let c = FusionConfig::new();
        assert_eq!(c.resolved_dense_limit(), DEFAULT_DENSE_LIMIT);
        assert_eq!(c.resolved_mem_budget(), DEFAULT_MEM_BUDGET);

        // Environment snapshots use the byte-size grammar...
        let env = FusionConfig::from_env_values(None, Some("4k"), Some("64m"));
        assert_eq!(env.resolved_dense_limit(), 4 << 10);
        assert_eq!(env.resolved_mem_budget(), 64 << 20);

        // ...explicit builder calls beat them...
        let explicit = env.clone().dense_limit(100).mem_budget(1 << 16);
        assert_eq!(explicit.resolved_dense_limit(), 100);
        assert_eq!(explicit.resolved_mem_budget(), 1 << 16);

        // ...and unparseable env values fall through to the defaults.
        let bad = FusionConfig::from_env_values(None, Some("bogus"), Some("-3"));
        assert_eq!(bad.resolved_dense_limit(), DEFAULT_DENSE_LIMIT);
        assert_eq!(bad.resolved_mem_budget(), DEFAULT_MEM_BUDGET);
    }

    #[test]
    fn cache_policy_default_is_bounded() {
        assert_eq!(
            FusionConfig::new().cache_policy(),
            CachePolicy::Bounded(CachePolicy::DEFAULT_BOUND)
        );
        let c = FusionConfig::new().cache(CachePolicy::Disabled);
        assert_eq!(c.cache_policy(), CachePolicy::Disabled);
    }
}
