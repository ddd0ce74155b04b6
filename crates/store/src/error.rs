//! Error type for the durable runtime.

use std::fmt;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Errors produced by the durable runtime.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error from the WAL or snapshot layer.
    Io(std::io::Error),
    /// On-disk bytes failed validation — bad magic, checksum mismatch,
    /// impossible lengths.  Corruption is *expected* input (a torn tail, a
    /// flipped bit); the recovery path reports it instead of loading
    /// garbage.
    Corrupt(String),
    /// The store was driven through an invalid state transition (admitting
    /// after the exchange started, recovering a finalized epoch, ...).
    InvalidState(String),
    /// A replayed record contradicts the recomputed run — the recovered
    /// engine is not re-living the logged history.  This is the bitwise
    /// recovery invariant failing closed.
    ReplayDiverged(String),
    /// An error bubbled up from the protocol layer.
    Core(network_shuffle::error::Error),
    /// An error bubbled up from the DP substrate (budget ledgers).
    Dp(ns_dp::DpError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            StoreError::ReplayDiverged(msg) => write!(f, "replay diverged: {msg}"),
            StoreError::Core(e) => write!(f, "protocol error: {e}"),
            StoreError::Dp(e) => write!(f, "dp error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Core(e) => Some(e),
            StoreError::Dp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<network_shuffle::error::Error> for StoreError {
    fn from(e: network_shuffle::error::Error) -> Self {
        StoreError::Core(e)
    }
}

impl From<ns_graph::GraphError> for StoreError {
    fn from(e: ns_graph::GraphError) -> Self {
        StoreError::Core(e.into())
    }
}

impl From<ns_dp::DpError> for StoreError {
    fn from(e: ns_dp::DpError) -> Self {
        StoreError::Dp(e)
    }
}
