//! Durable-runtime telemetry: WAL latency histograms, the log's length and
//! snapshot/replay accounting over the `ns-obs` registry.
//!
//! Same contract as the engine and service bundles: preregistered slots,
//! relaxed atomic recording, no effect on any durable byte — a run with
//! telemetry attached writes the identical WAL, snapshots and ledger.
//! The trace side (round events, snapshot/recover events, the admission
//! audit) funnels through the service layer's shared
//! [`network_shuffle::telemetry::AuditSink`] so one `trace.jsonl` carries
//! the whole story in record order.

use ns_obs::{Clock, Gauge, Histogram, MetricsRegistry};

/// Metric names the durable runtime registers (the README's catalogue).
pub mod names {
    /// WAL record append latency (header and payload written to the file),
    /// ns.
    pub const WAL_APPEND_NS: &str = "ns_wal_append_ns";
    /// WAL fsync latency — every sync, eager or group boundary, ns.
    pub const WAL_FSYNC_NS: &str = "ns_wal_fsync_ns";
    /// Latency of the syncs closing a round group commit, ns.
    pub const WAL_GROUP_COMMIT_NS: &str = "ns_wal_group_commit_ns";
    /// WAL length in bytes after the latest append.
    pub const WAL_LEN_BYTES: &str = "ns_wal_len_bytes";
    /// Snapshot capture-and-write latency, ns.
    pub const SNAPSHOT_WRITE_NS: &str = "ns_snapshot_write_ns";
    /// Recovery replay latency (scan + snapshot load + round re-execution),
    /// ns.
    pub const REPLAY_NS: &str = "ns_replay_ns";
}

/// Preregistered handles for the durable runtime.  Clone-cheap (`Arc`
/// bumps).
#[derive(Clone, Debug)]
pub struct StoreTelemetry {
    pub(crate) clock: Clock,
    pub(crate) wal_append_ns: Histogram,
    pub(crate) wal_fsync_ns: Histogram,
    pub(crate) group_commit_ns: Histogram,
    pub(crate) wal_len: Gauge,
    pub(crate) snapshot_write_ns: Histogram,
    pub(crate) replay_ns: Histogram,
}

impl StoreTelemetry {
    /// Registers (or re-binds) the durable-runtime metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        StoreTelemetry {
            clock: registry.clock().clone(),
            wal_append_ns: registry.histogram(names::WAL_APPEND_NS),
            wal_fsync_ns: registry.histogram(names::WAL_FSYNC_NS),
            group_commit_ns: registry.histogram(names::WAL_GROUP_COMMIT_NS),
            wal_len: registry.gauge(names::WAL_LEN_BYTES),
            snapshot_write_ns: registry.histogram(names::SNAPSHOT_WRITE_NS),
            replay_ns: registry.histogram(names::REPLAY_NS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_catalogue_round_trips() {
        let registry = MetricsRegistry::new();
        let t = StoreTelemetry::register(&registry);
        t.wal_append_ns.record(1000);
        t.wal_len.set(4096);
        let rendered = registry.render();
        assert!(rendered.contains("histogram ns_wal_append_ns count=1"));
        assert!(rendered.contains("gauge ns_wal_len_bytes 4096"));
    }
}
