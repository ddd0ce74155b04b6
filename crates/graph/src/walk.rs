//! Walk configuration shared by the engines and the protocol layer.
//!
//! Every report performs an independent random walk: in each round, each
//! report held at node `u` is forwarded to a uniformly random neighbour of
//! `u` (Algorithms 1 and 2 of the paper), or — in the lazy walk — stays
//! put with a fixed probability, which models temporarily unavailable
//! users (Section 4.5) and also restores ergodicity on bipartite graphs.
//! [`WalkConfig`] names such a walk (rounds and laziness), and
//! [`validate_laziness`] is the one domain rule every layer that accepts
//! a laziness checks against.  The walks themselves run on
//! [`crate::mixing_engine::MixingEngine`] (walker order) and
//! [`crate::sharded_engine::ShardedMixingEngine`] (holder order).

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// Checks the shared laziness-domain invariant `laziness ∈ [0, 1)`.
///
/// Every layer that accepts a laziness parameter (the walk configuration
/// here, the protocol simulation configuration in the core crate) validates
/// against this single helper so the rule and its message cannot drift.
///
/// # Errors
///
/// Returns the human-readable violation message, to be wrapped in the
/// caller's error type.
pub fn validate_laziness(laziness: f64) -> std::result::Result<(), String> {
    if (0.0..1.0).contains(&laziness) {
        Ok(())
    } else {
        Err(format!("laziness must be in [0, 1), got {laziness}"))
    }
}

/// Configuration of a walk simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WalkConfig {
    /// Number of communication rounds `t`.
    pub rounds: usize,
    /// Probability that a report stays at its current holder in a round
    /// (0 for the simple walk of Algorithms 1 and 2).
    pub laziness: f64,
}

impl WalkConfig {
    /// A simple (non-lazy) walk of `rounds` rounds.
    pub fn simple(rounds: usize) -> Self {
        WalkConfig {
            rounds,
            laziness: 0.0,
        }
    }

    /// A lazy walk of `rounds` rounds with the given stay probability.
    pub fn lazy(rounds: usize, laziness: f64) -> Self {
        WalkConfig { rounds, laziness }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)`.
    pub fn validate(&self) -> Result<()> {
        validate_laziness(self.laziness).map_err(GraphError::InvalidParameters)
    }
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig::simple(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(WalkConfig::lazy(5, 1.0).validate().is_err());
        assert!(WalkConfig::lazy(5, -0.1).validate().is_err());
        assert!(WalkConfig::lazy(5, 0.3).validate().is_ok());
        assert!(WalkConfig::simple(5).validate().is_ok());
        assert!(validate_laziness(f64::NAN).is_err());
    }
}
