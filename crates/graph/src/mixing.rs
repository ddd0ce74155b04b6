//! Mixing-time estimates and the finite-time bound on `Σ_i P_i(t)²`.
//!
//! From Section 4.1 / Eq. 5 of the paper: with spectral gap `α`, the graph
//! total-variation distance after `t` rounds satisfies
//! `TV_G(P(t), π) ≤ √n (1 − α)^t`, so `t ≈ α⁻¹ log n` rounds suffice for the
//! walk to be within `≈ 1/√n` of stationarity.  Eq. 7 gives the matching
//! bound on the accountant's input: `Σ_i P_i(t)² ≤ Σ_i π_i² + (1 − α)^{2t}`.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use crate::spectral::{SpectralAnalysis, SpectralOptions};

/// The paper's stopping rule `t = ⌊α⁻¹ log n⌉` (natural logarithm), as the
/// number of communication rounds to run before reporting to the curator.
///
/// Returns at least 1 round.  A non-positive spectral gap (non-ergodic walk)
/// yields `usize::MAX` to signal that the walk never mixes.
pub fn mixing_time(spectral_gap: f64, n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    if spectral_gap <= 0.0 {
        return usize::MAX;
    }
    let t = (n as f64).ln() / spectral_gap;
    (t.round() as usize).max(1)
}

/// Upper bound `√n (1 − α)^t` on the graph total-variation distance between
/// `P(t)` and the stationary distribution (Eq. 5).
pub fn tv_bound(spectral_gap: f64, n: usize, t: usize) -> f64 {
    let base = (1.0 - spectral_gap).clamp(0.0, 1.0);
    (n as f64).sqrt() * base.powi(t as i32)
}

/// Upper bound on `Σ_i P_i(t)²` from Eq. 7:
/// `Σ_i π_i² + (1 − α)^{2t}`.
///
/// `stationary_sum_of_squares` is `Σ_i π_i² = Γ_G / n`.
pub fn sum_p_squared_bound(stationary_sum_of_squares: f64, spectral_gap: f64, t: usize) -> f64 {
    let base = (1.0 - spectral_gap).clamp(0.0, 1.0);
    stationary_sum_of_squares + base.powi(2 * t as i32)
}

/// Everything the privacy accountant needs to know about a graph's mixing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixingProfile {
    /// Number of nodes `n`.
    pub node_count: usize,
    /// The spectral gap `α`.
    pub spectral_gap: f64,
    /// `Σ_i π_i²` at stationarity (`Γ_G / n`).
    pub stationary_sum_of_squares: f64,
    /// The mixing-time stopping rule `⌊α⁻¹ log n⌉`.
    pub mixing_time: usize,
}

impl MixingProfile {
    /// Computes the mixing profile of the simple random walk on `graph`.
    ///
    /// # Errors
    ///
    /// Degenerate graphs (empty, isolated nodes) are rejected; a connected
    /// bipartite graph is *not* rejected but will report a (numerically)
    /// zero spectral gap and an unbounded mixing time.
    pub fn compute(graph: &Graph, options: SpectralOptions) -> Result<Self> {
        Self::compute_lazy(graph, 0.0, options)
    }

    /// Computes the mixing profile of a lazy random walk.
    ///
    /// # Errors
    ///
    /// Same as [`MixingProfile::compute`]; also rejects `laziness ∉ [0, 1)`.
    pub fn compute_lazy(graph: &Graph, laziness: f64, options: SpectralOptions) -> Result<Self> {
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let spectral = SpectralAnalysis::try_compute(graph, laziness, options)?;
        let gap = spectral.spectral_gap();
        let pi_sq = crate::stationary::stationary_sum_of_squares(graph)?;
        Ok(MixingProfile {
            node_count: n,
            spectral_gap: gap,
            stationary_sum_of_squares: pi_sq,
            mixing_time: mixing_time(gap, n),
        })
    }

    /// The Eq. 7 bound on `Σ_i P_i(t)²` after `t` rounds.
    pub fn sum_p_squared_bound(&self, t: usize) -> f64 {
        sum_p_squared_bound(self.stationary_sum_of_squares, self.spectral_gap, t)
    }

    /// The Eq. 7 bound clamped to its trivial ceiling of 1 (a sum of squared
    /// probabilities never exceeds 1) — the form the accountant consumes, and
    /// the bound the exact ensemble route is measured against.
    pub fn sum_p_squared_bound_clamped(&self, t: usize) -> f64 {
        self.sum_p_squared_bound(t).min(1.0)
    }

    /// The Eq. 5 bound on `TV_G(P(t), π)` after `t` rounds.
    pub fn tv_bound(&self, t: usize) -> f64 {
        tv_bound(self.spectral_gap, self.node_count, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn mixing_time_scales_with_log_n_over_gap() {
        assert_eq!(mixing_time(0.5, 1), 1);
        let t = mixing_time(0.01, 20_000);
        let expected = (20_000f64).ln() / 0.01;
        assert!((t as f64 - expected).abs() <= 1.0);
        assert_eq!(mixing_time(0.0, 100), usize::MAX);
        assert_eq!(mixing_time(-0.3, 100), usize::MAX);
    }

    #[test]
    fn tv_bound_decays_geometrically() {
        let b0 = tv_bound(0.1, 100, 0);
        let b1 = tv_bound(0.1, 100, 1);
        let b10 = tv_bound(0.1, 100, 10);
        assert!((b0 - 10.0).abs() < 1e-12);
        assert!((b1 - 9.0).abs() < 1e-12);
        assert!(b10 < b1);
    }

    #[test]
    fn sum_p_squared_bound_approaches_stationary_value() {
        let pi_sq = 0.001;
        let early = sum_p_squared_bound(pi_sq, 0.05, 1);
        let late = sum_p_squared_bound(pi_sq, 0.05, 500);
        assert!(early > pi_sq);
        assert!((late - pi_sq).abs() < 1e-9);
        assert!(late >= pi_sq);
    }

    #[test]
    fn profile_of_complete_graph() {
        let g = generators::complete(50).unwrap();
        let profile = MixingProfile::compute(&g, SpectralOptions::default()).unwrap();
        assert_eq!(profile.node_count, 50);
        assert!((profile.stationary_sum_of_squares - 1.0 / 50.0).abs() < 1e-12);
        assert!(profile.spectral_gap > 0.9);
        assert!(profile.mixing_time <= 5);
        assert!(profile.sum_p_squared_bound(10) >= profile.stationary_sum_of_squares);
    }

    #[test]
    fn bound_is_actually_an_upper_bound_on_exact_trajectory() {
        let mut rng = crate::rng::seeded_rng(11);
        let g = generators::random_regular(200, 6, &mut rng).unwrap();
        let profile = MixingProfile::compute(&g, SpectralOptions::default()).unwrap();
        let transition = crate::transition::TransitionMatrix::new(&g).unwrap();
        let mut row = crate::ensemble::DistributionEnsemble::point_masses(200, &[0]).unwrap();
        let start = row.row_stats(0);
        let tracked = row.advance_tracked(&transition, 60);
        let exact = std::iter::once(&start).chain(tracked.row(0));
        for (t, value) in exact.map(|stats| stats.sum_of_squares).enumerate() {
            let bound = profile.sum_p_squared_bound(t);
            assert!(
                value <= bound + 1e-9,
                "t = {t}: exact {value} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn bipartite_graph_reports_unbounded_mixing_time() {
        let g = generators::cycle(6).unwrap();
        let profile = MixingProfile::compute(&g, SpectralOptions::default()).unwrap();
        // The gap is zero up to numerical error, so the estimated mixing time
        // is either usize::MAX (exact zero) or astronomically large.
        assert!(
            profile.mixing_time > 1_000_000,
            "mixing_time = {}",
            profile.mixing_time
        );
        let lazy = MixingProfile::compute_lazy(&g, 0.5, SpectralOptions::default()).unwrap();
        assert!(lazy.mixing_time < 1_000);
    }

    #[test]
    fn rejects_empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(MixingProfile::compute(&g, SpectralOptions::default()).is_err());
    }
}
