//! Empirical (Monte-Carlo) estimation of the accountant's graph inputs.
//!
//! The closed-form theorems consume `Σ_i P_i^G(t)²`.  The
//! [`crate::accountant::graph_accountant`] obtains it from the spectral
//! bound (worst case) or by exact distribution evolution (single origin, or
//! all origins through the batched ensemble kernel).  This module provides
//! the remaining route: estimate the position distribution of reports by
//! running the actual walk many times and counting where reports end up.
//! This is useful
//!
//! * as an independent cross-check of the analytical machinery (the test
//!   suite compares all the routes), and
//! * for settings where the transition structure is only available as a
//!   black-box simulator (e.g. dynamic graphs, availability-dependent
//!   routing), which the paper lists as future work.
//!
//! Trials run on the engine the protocol simulation runs on, the 1-shard
//! [`ns_graph::sharded_engine::ShardedMixingEngine`] — one walker per
//! origin, all origins per run — so a single run already provides `n`
//! samples.

use crate::error::{Error, Result};
use ns_graph::partition::Partition;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::walk::validate_laziness;
use ns_graph::Graph;
use serde::{Deserialize, Serialize};

/// Result of a Monte-Carlo estimation of the position-distribution moments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalMixing {
    /// Estimated `Σ_i P_i(t)²`, averaged over all report origins.
    pub sum_p_squared: f64,
    /// Estimated support ratio `ρ*` (max over min positive empirical
    /// probability), averaged over origins.  Biased low when the number of
    /// trials is small relative to `n`.
    pub support_ratio: f64,
    /// Number of walk trials used.
    pub trials: usize,
    /// Number of rounds simulated.
    pub rounds: usize,
}

/// Estimates `Σ_i P_i(t)²` by simulating `trials` independent executions of
/// the exchange phase (every user's report walks for `rounds` rounds) and
/// counting, per origin, where the report ended up.
///
/// The estimator of `Σ_i P_i²` from `T` samples per origin is the unbiased
/// collision estimator `(Σ_i c_i(c_i−1)) / (T(T−1))` where `c_i` counts how
/// often the report landed on user `i`; it is averaged over all origins.
///
/// Results depend only on `seed`: trial `k` runs the 1-shard holder-order
/// engine in [`DrawMode::Fast`] on its own ChaCha8 stream, seeded from
/// `seed` and `k`.
///
/// # Errors
///
/// * [`Error::InvalidConfiguration`] if `trials < 2` or
///   `laziness ∉ [0, 1)`;
/// * graph validation errors from the engine.
pub fn estimate_mixing(
    graph: &Graph,
    rounds: usize,
    laziness: f64,
    trials: usize,
    seed: u64,
) -> Result<EmpiricalMixing> {
    if trials < 2 {
        return Err(Error::InvalidConfiguration(format!(
            "the collision estimator needs at least 2 trials, got {trials}"
        )));
    }
    validate_laziness(laziness).map_err(Error::InvalidConfiguration)?;
    let partition = Partition::single_shard(graph)?;
    let n = graph.node_count();

    // counts[origin][holder] would be n*n; store per-origin sparse counts via
    // a flat Vec<u32> only when n is small, otherwise accumulate collision
    // statistics streamingly per origin using a HashMap.
    let mut counts: Vec<std::collections::HashMap<usize, u32>> =
        vec![std::collections::HashMap::new(); n];

    // Each trial is one batched engine run over all n walkers at once.
    for trial in 0..trials {
        let trial_seed = seed.wrapping_add(trial as u64).wrapping_mul(0x9e37_79b9);
        let mut engine = ShardedMixingEngine::one_walker_per_node(graph, &partition, trial_seed)?;
        engine.set_draw_mode(DrawMode::Fast);
        for _ in 0..rounds {
            engine.step(laziness, None, &mut ())?;
        }
        for (origin, &holder) in engine.positions().iter().enumerate() {
            *counts[origin].entry(holder as usize).or_insert(0) += 1;
        }
    }

    let t = trials as f64;
    let mut sum_p_sq_total = 0.0;
    let mut ratio_total = 0.0;
    for per_origin in &counts {
        let collisions: f64 = per_origin
            .values()
            .map(|&c| f64::from(c) * (f64::from(c) - 1.0))
            .sum();
        sum_p_sq_total += collisions / (t * (t - 1.0));
        let max = per_origin.values().copied().max().unwrap_or(0) as f64;
        let min = per_origin
            .values()
            .copied()
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(1) as f64;
        ratio_total += max / min;
    }

    Ok(EmpiricalMixing {
        sum_p_squared: sum_p_sq_total / n as f64,
        support_ratio: ratio_total / n as f64,
        trials,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{NetworkShuffleAccountant, Scenario};
    use ns_graph::generators::{complete, random_regular};
    use ns_graph::rng::seeded_rng;

    #[test]
    fn validates_inputs() {
        let g = complete(5).unwrap();
        assert!(estimate_mixing(&g, 3, 0.0, 1, 1).is_err());
        assert!(estimate_mixing(&g, 3, 1.0, 10, 1).is_err());
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(estimate_mixing(&empty, 3, 0.0, 10, 1).is_err());
    }

    #[test]
    fn estimates_depend_only_on_the_seed() {
        let g = random_regular(60, 4, &mut seeded_rng(6)).unwrap();
        let run = || estimate_mixing(&g, 6, 0.2, 20, 31).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.sum_p_squared.to_bits(), b.sum_p_squared.to_bits());
        assert_eq!(a.support_ratio.to_bits(), b.support_ratio.to_bits());
    }

    #[test]
    fn complete_graph_estimate_matches_uniform_limit() {
        let n = 20usize;
        let g = complete(n).unwrap();
        let est = estimate_mixing(&g, 8, 0.0, 400, 7).unwrap();
        // Limit is 1/n = 0.05; the collision estimator is unbiased, allow
        // Monte-Carlo slack.
        assert!(
            (est.sum_p_squared - 1.0 / n as f64).abs() < 0.01,
            "{}",
            est.sum_p_squared
        );
        assert_eq!(est.trials, 400);
        assert_eq!(est.rounds, 8);
    }

    #[test]
    fn estimate_agrees_with_exact_symmetric_computation() {
        let g = random_regular(60, 6, &mut seeded_rng(3)).unwrap();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let rounds = 12;
        let (exact, _) = accountant
            .sum_p_squared(Scenario::Symmetric { origin: 0 }, rounds)
            .unwrap();
        // The empirical estimate averages over all origins; on a random
        // regular graph per-origin values are close to each other, so the
        // average should be close to the single-origin exact value.
        let est = estimate_mixing(&g, rounds, 0.0, 600, 9).unwrap();
        let relative = (est.sum_p_squared - exact).abs() / exact;
        assert!(
            relative < 0.25,
            "empirical {} vs exact {exact}",
            est.sum_p_squared
        );
    }

    #[test]
    fn estimate_stays_below_the_spectral_bound() {
        let g = random_regular(80, 8, &mut seeded_rng(4)).unwrap();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        for &rounds in &[2usize, 5, 15] {
            let (bound, _) = accountant
                .sum_p_squared(Scenario::Stationary, rounds)
                .unwrap();
            let est = estimate_mixing(&g, rounds, 0.0, 300, 11).unwrap();
            assert!(
                est.sum_p_squared <= bound * 1.1 + 0.01,
                "rounds {rounds}: empirical {} above bound {bound}",
                est.sum_p_squared
            );
        }
    }

    #[test]
    fn estimate_agrees_with_exact_ensemble_average_on_irregular_graph() {
        // On an irregular graph the empirical estimator averages over all
        // origins, so its target is the mean of the exact per-origin
        // ensemble moments — not any single origin.
        let g = ns_graph::generators::barabasi_albert(70, 3, &mut seeded_rng(8)).unwrap();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let rounds = 10;
        let moments = accountant.exact_moments(rounds).unwrap();
        let exact_mean: f64 = moments
            .iter()
            .map(|stats| stats.sum_of_squares)
            .sum::<f64>()
            / moments.len() as f64;
        let est = estimate_mixing(&g, rounds, 0.0, 800, 17).unwrap();
        let relative = (est.sum_p_squared - exact_mean).abs() / exact_mean;
        assert!(
            relative < 0.2,
            "empirical {} vs exact ensemble mean {exact_mean}",
            est.sum_p_squared
        );
    }

    #[test]
    fn lazy_estimate_mixes_slower() {
        let g = random_regular(80, 6, &mut seeded_rng(5)).unwrap();
        let rounds = 4;
        let crisp = estimate_mixing(&g, rounds, 0.0, 300, 13).unwrap();
        let lazy = estimate_mixing(&g, rounds, 0.6, 300, 13).unwrap();
        assert!(
            lazy.sum_p_squared > crisp.sum_p_squared,
            "lazy walk should be less mixed after the same number of rounds"
        );
    }
}
