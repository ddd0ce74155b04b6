//! # ns-store — the durable runtime
//!
//! A small storage layer that makes a network-shuffle epoch
//! crash-recoverable:
//!
//! - [`checksum`] / [`codec`] — CRC-32 and the fixed little-endian codec
//!   every on-disk byte goes through;
//! - [`wal`] — the length-prefixed, checksummed write-ahead log, one
//!   append-only file;
//! - [`records`] — the logical record set (admissions, schedule, rounds,
//!   snapshot/finalize markers);
//! - [`snapshot`] — atomic snapshot / meta / budget-ledger files;
//! - [`durable`] — [`DurableCoordinator`], the WAL-before-state wrapper
//!   around [`network_shuffle::prelude::ShuffleCoordinator`] with group
//!   commit, periodic snapshots and checked replay recovery.
//!
//! ## The recovery invariant, and its scope
//!
//! Every exchange round is a pure function of the logged inputs (admitted
//! batches, realized outage schedule, configuration) and the per-shard
//! deterministic RNG streams.  [`DurableCoordinator::recover`] therefore
//! reconstructs — **bit for bit** — engine positions, bucket orders, RNG
//! stream positions, tracked accountant rows, traffic metrics, the live
//! quote and ledger charges, by loading the newest valid snapshot and
//! re-executing the logged round tail (each round checked against its
//! record's RNG clocks, draw mode and outage mask; any disagreement fails
//! closed as [`StoreError::ReplayDiverged`]).
//!
//! Outside that scope, deliberately: envelope *bytes* (the simulated PKI is
//! process-local, so replayed admissions re-seal payloads under the
//! recovering process's fresh curator key — the opened payloads, which are
//! all the protocol observes, are identical) and wall-clock concerns like
//! fsync timing, which bound *how much tail is replayed*, never *what state
//! is reached*.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod codec;
pub mod durable;
pub mod error;
pub mod records;
pub mod snapshot;
pub mod telemetry;
pub mod wal;

pub use durable::{DurableConfig, DurableCoordinator};
pub use error::{Result, StoreError};

/// Convenient re-exports of the crate's public surface.
pub mod prelude {
    pub use crate::durable::{
        DurableConfig, DurableCoordinator, METRICS_FILE, TRACE_FILE, WAL_FILE,
    };
    pub use crate::error::{Result, StoreError};
    pub use crate::records::WalRecord;
    pub use crate::snapshot::{
        load_ledger, load_meta, load_snapshot, save_ledger, snapshot_path, StoreMeta,
    };
    pub use crate::telemetry::StoreTelemetry;
    pub use crate::wal::{scan_wal, TailStatus, WalScan, WalWriter};
}
