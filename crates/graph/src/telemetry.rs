//! The engine's telemetry bundle: preregistered `ns-obs` handles for the
//! per-round phase breakdown.
//!
//! [`crate::sharded_engine::ShardedMixingEngine`] carries an
//! `Option<EngineTelemetry>` (default `None` — the no-op path).  Attaching
//! one adds phase span timers and counters around the existing round
//! structure; it never draws randomness, never branches on recorded values
//! and never touches engine state, so an instrumented run is **bitwise
//! identical** to a bare one (pinned against the golden round traces by
//! `tests/golden_round_traces.rs`, and on the graph zoo by
//! `tests/observability.rs`).  All recording writes into slots registered
//! up front: steady-state rounds stay allocation-free with telemetry
//! attached (audited by `tests/engine_allocations.rs`).

use ns_obs::{Clock, Counter, Histogram, MetricsRegistry};

/// Metric names the engine registers (the README's catalogue).
pub mod names {
    /// Decide-phase duration per round (holder sweeps + draws), ns.
    pub const DECIDE_NS: &str = "ns_round_decide_ns";
    /// Exchange-phase duration per round (delivered walkers' position
    /// writes), ns.
    pub const EXCHANGE_NS: &str = "ns_round_exchange_ns";
    /// Merge-phase duration per round (counting-sort bucket rebuild), ns.
    pub const MERGE_NS: &str = "ns_round_merge_ns";
    /// Walkers whose drawn move bounced off an unavailable recipient.
    pub const MASK_BOUNCES: &str = "ns_round_mask_bounces";
    /// Rounds executed.
    pub const ROUNDS_TOTAL: &str = "ns_rounds_total";
}

/// Preregistered phase-timing handles of the engine's round phases.
/// Clone-cheap (`Arc` bumps).
#[derive(Clone, Debug)]
pub struct EngineTelemetry {
    pub(crate) clock: Clock,
    pub(crate) decide_ns: Histogram,
    pub(crate) exchange_ns: Histogram,
    pub(crate) merge_ns: Histogram,
    pub(crate) mask_bounces: Counter,
    pub(crate) rounds: Counter,
}

impl EngineTelemetry {
    /// Registers (or re-binds) the engine metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        EngineTelemetry {
            clock: registry.clock().clone(),
            decide_ns: registry.histogram(names::DECIDE_NS),
            exchange_ns: registry.histogram(names::EXCHANGE_NS),
            merge_ns: registry.histogram(names::MERGE_NS),
            mask_bounces: registry.counter(names::MASK_BOUNCES),
            rounds: registry.counter(names::ROUNDS_TOTAL),
        }
    }
}
