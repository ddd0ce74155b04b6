//! `ns-obs` — the workspace's telemetry layer.
//!
//! Everything the runtime reports about itself flows through this crate:
//!
//! * [`MetricsRegistry`] — preregistered, lock-free metric slots
//!   (monotonic [`Counter`]s, [`Gauge`]s, fixed-bucket log2
//!   [`Histogram`]s).  Registration takes a mutex and may allocate;
//!   **recording never does** — every hot-path update is one relaxed
//!   atomic op on a slot created at setup time, so the counting-allocator
//!   audits (`tests/*_allocations.rs`) hold with telemetry enabled.
//! * [`Clock`] — the pluggable time source behind span timers: a real
//!   monotonic clock for production and a deterministic [`FakeClock`]
//!   for tests, so timing-dependent telemetry is testable bit for bit.
//! * [`TraceWriter`] — a bounded ring of fixed-size structured events
//!   ([`TraceEvent`]), recorded allocation-free and serialized to JSONL
//!   only on explicit [`TraceWriter::flush_to`].  The line schema is
//!   documented in the README and machine-checked by [`schema`].
//! * [`human`] — the grep-stable `[ns:<topic>]` line renderer the
//!   examples print progress through (see the [`say!`] macro).
//!
//! The design invariant the rest of the workspace leans on: telemetry is
//! **inert**.  Observers only read state and write into their own atomic
//! slots — they never touch RNG streams, engine state or control flow —
//! so a run with full telemetry attached is bitwise identical to a run
//! with none (pinned against the golden round traces by
//! `tests/golden_round_traces.rs`, and on a graph zoo and a durable run by
//! `tests/observability.rs`).
//!
//! Environment knobs (consumed by the durable runtime and the bench
//! bins, centralized here): `NS_OBS` enables telemetry where it is
//! opt-in, `NS_OBS_TRACE` overrides the trace output path, `NS_OBS_RING`
//! sizes the event ring (default [`trace::DEFAULT_RING_CAPACITY`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod human;
pub mod registry;
pub mod schema;
pub mod trace;

pub use clock::{Clock, FakeClock};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, SpanTimer};
pub use trace::{TraceEvent, TraceWriter};

/// Whether telemetry is enabled by the environment (`NS_OBS=1`).
///
/// Components where telemetry is opt-in (the durable runtime, the bench
/// bins) consult this once at setup; components that receive an explicit
/// registry ignore it.
pub fn env_enabled() -> bool {
    std::env::var("NS_OBS").is_ok_and(|v| flag_on(&v))
}

/// Whether the value of an on/off environment variable turns it on: `1`,
/// `true` or `on`.  Anything else, `0` and `off` included, is off.
pub fn flag_on(value: &str) -> bool {
    matches!(value, "1" | "true" | "on")
}

/// Ring capacity for new [`TraceWriter`]s: `NS_OBS_RING` if set and
/// positive, [`trace::DEFAULT_RING_CAPACITY`] otherwise.
pub fn env_ring_capacity() -> usize {
    std::env::var("NS_OBS_RING")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c > 0)
        .unwrap_or(trace::DEFAULT_RING_CAPACITY)
}

/// Trace output path override (`NS_OBS_TRACE`), if any.
pub fn env_trace_path() -> Option<std::path::PathBuf> {
    std::env::var_os("NS_OBS_TRACE").map(std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_on_values_turn_a_flag_on() {
        for on in ["1", "true", "on"] {
            assert!(flag_on(on), "{on}");
        }
        for off in ["0", "false", "off", "", "yes", "TRUE", " 1"] {
            assert!(!flag_on(off), "{off:?}");
        }
    }
}
