//! The laziness rule shared by the engine and the protocol layer.
//!
//! Every report performs an independent random walk: in each round, each
//! report held at node `u` is forwarded to a uniformly random neighbour of
//! `u` (Algorithms 1 and 2 of the paper), or — in the lazy walk — stays
//! put with a fixed probability, which models temporarily unavailable
//! users (Section 4.5) and also restores ergodicity on bipartite graphs.
//! [`validate_laziness`] is the one domain rule every layer that accepts
//! a laziness checks against.  The walks themselves run on
//! [`crate::sharded_engine::ShardedMixingEngine`].

/// Checks the shared laziness-domain invariant `laziness ∈ [0, 1)`.
///
/// Every layer that accepts a laziness parameter (the engine's round
/// checks here, the protocol simulation configuration in the core crate)
/// validates against this single helper so the rule and its message cannot
/// drift.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laziness_validation() {
        assert!(validate_laziness(1.0).is_err());
        assert!(validate_laziness(-0.1).is_err());
        assert!(validate_laziness(0.3).is_ok());
        assert!(validate_laziness(0.0).is_ok());
        assert!(validate_laziness(f64::NAN).is_err());
    }
}
