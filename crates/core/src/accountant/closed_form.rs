//! Closed-form central-DP guarantees of network shuffling
//! (Theorems 5.3, 5.4, 5.5, 5.6 and 6.1 of the paper).
//!
//! All formulas take `Σ_i P_i^G(t)²` — the sum of squared position
//! probabilities of a report at the reporting time — as an input; how that
//! quantity is obtained (spectral bound vs. exact tracking) is the caller's
//! concern (see [`crate::accountant::graph_accountant`]).
//!
//! A note on Theorem 6.1 as printed: its statement writes
//! `ε₁ = √((n−1) Σ P_i²) + …`, while its own proof (and Theorem 5.3, which
//! it supports) derive `ε₁ = √((1 − 1/n) Σ P_i²) + …` from Lemma 5.1 via
//! `‖L‖₂/n`.  We implement the proof's version, which is also the one that
//! reproduces the paper's numerical figures.

use crate::error::{Error, Result};
use crate::protocol::ProtocolKind;
use ns_dp::conversion::{approximate_to_pure, union_bound_delta};
use ns_dp::types::PrivacyGuarantee;
use ns_graph::ensemble::RowStats;

/// Parameters shared by all the accounting formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountantParams {
    /// Number of users `n`.
    pub n: usize,
    /// Pure LDP parameter `ε₀` of the local randomizer.
    pub epsilon_0: f64,
    /// Composition slack `δ` (the `log(1/δ)` terms in the theorems).
    pub delta: f64,
    /// Failure probability `δ₂` of the load-concentration bound (Lemma 5.1).
    pub delta_2: f64,
}

impl AccountantParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] for `n < 2`, non-positive `ε₀`, or
    /// `δ`/`δ₂` outside `(0, 1)`.
    pub fn new(n: usize, epsilon_0: f64, delta: f64, delta_2: f64) -> Result<Self> {
        if n < 2 {
            return Err(Error::InvalidConfiguration(format!(
                "n must be at least 2, got {n}"
            )));
        }
        if !epsilon_0.is_finite() || epsilon_0 <= 0.0 {
            return Err(Error::InvalidConfiguration(format!(
                "epsilon_0 must be positive, got {epsilon_0}"
            )));
        }
        for (name, value) in [("delta", delta), ("delta_2", delta_2)] {
            if !value.is_finite() || value <= 0.0 || value >= 1.0 {
                return Err(Error::InvalidConfiguration(format!(
                    "{name} must be in (0, 1), got {value}"
                )));
            }
        }
        Ok(AccountantParams {
            n,
            epsilon_0,
            delta,
            delta_2,
        })
    }

    /// Convenience constructor with the δ = δ₂ = 10⁻⁶ defaults used by the
    /// paper's numerical section.
    ///
    /// # Errors
    ///
    /// See [`AccountantParams::new`].
    pub fn with_defaults(n: usize, epsilon_0: f64) -> Result<Self> {
        Self::new(n, epsilon_0, 1e-6, 1e-6)
    }
}

fn validate_sum_p_squared(n: usize, sum_p_squared: f64) -> Result<f64> {
    // For a probability vector over n users, 1/n <= sum of squares <= 1.
    if !sum_p_squared.is_finite() || sum_p_squared <= 0.0 || sum_p_squared > 1.0 + 1e-9 {
        return Err(Error::InvalidConfiguration(format!(
            "sum of squared position probabilities must be in (0, 1], got {sum_p_squared}"
        )));
    }
    if sum_p_squared < 1.0 / n as f64 - 1e-9 {
        return Err(Error::InvalidConfiguration(format!(
            "sum of squared position probabilities {sum_p_squared} is below the minimum 1/n"
        )));
    }
    Ok(sum_p_squared.min(1.0))
}

/// The `ε₁` quantity of Theorems 5.3/5.4: the high-probability bound on
/// `‖L‖₂ / n` from Lemma 5.1 (optionally inflated by the support ratio `ρ*`
/// of the symmetric analysis).
fn epsilon_1(params: &AccountantParams, sum_p_squared: f64, rho_star: f64) -> f64 {
    let n = params.n as f64;
    ((1.0 - 1.0 / n) * rho_star * rho_star * sum_p_squared).sqrt()
        + ((1.0 / params.delta_2).ln() / n).sqrt()
}

/// Shared body of Theorems 5.3 and 5.4 at a given pure LDP level `ε₀`.
fn all_protocol_epsilon_at(
    epsilon_0: f64,
    params: &AccountantParams,
    sum_p_squared: f64,
    rho_star: f64,
) -> f64 {
    let eps1 = epsilon_1(params, sum_p_squared, rho_star);
    let amplification = (epsilon_0.exp() - 1.0).powi(2) * (4.0 * epsilon_0).exp();
    amplification * eps1 * eps1 / 2.0
        + eps1 * (2.0 * amplification * (1.0 / params.delta).ln()).sqrt()
}

/// Shared body of Theorems 5.5 and 5.6 at a given pure LDP level `ε₀`.
fn single_protocol_epsilon_at(
    epsilon_0: f64,
    params: &AccountantParams,
    sum_p_squared: f64,
) -> f64 {
    let e = epsilon_0.exp();
    (2.0 * epsilon_0).exp() * (e - 1.0).powi(2) / 2.0 * sum_p_squared
        + e * (e - 1.0) * (2.0 * (1.0 / params.delta).ln() * sum_p_squared).sqrt()
}

/// Theorem 5.3 / 5.4 (protocol `A_all`).
///
/// * Stationary scenario (Theorem 5.3): pass `rho_star = 1.0` and the Eq. 7
///   bound on `Σ_i P_i²`.
/// * Symmetric scenario (Theorem 5.4): pass the exact `Σ_i P_i(t)²` of the
///   tracked position distribution and its support ratio `ρ*`.
///
/// Returns the `(ε, δ + δ₂)` central guarantee.
///
/// # Errors
///
/// [`Error::InvalidConfiguration`] on out-of-range inputs.
pub fn all_protocol_epsilon(
    params: &AccountantParams,
    sum_p_squared: f64,
    rho_star: f64,
) -> Result<PrivacyGuarantee> {
    let sum_p_squared = validate_sum_p_squared(params.n, sum_p_squared)?;
    if !rho_star.is_finite() || rho_star < 1.0 {
        return Err(Error::InvalidConfiguration(format!(
            "support ratio rho* must be >= 1, got {rho_star}"
        )));
    }
    let epsilon = all_protocol_epsilon_at(params.epsilon_0, params, sum_p_squared, rho_star);
    Ok(PrivacyGuarantee::new(
        epsilon,
        params.delta + params.delta_2,
    )?)
}

/// Theorem 5.5 / 5.6 (protocol `A_single`).
///
/// The same closed form covers the stationary scenario (with the Eq. 7 bound
/// on `Σ_i P_i²`) and the symmetric scenario (with the exact value).
/// Returns the `(ε, δ)` central guarantee.
///
/// # Errors
///
/// [`Error::InvalidConfiguration`] on out-of-range inputs.
pub fn single_protocol_epsilon(
    params: &AccountantParams,
    sum_p_squared: f64,
) -> Result<PrivacyGuarantee> {
    let sum_p_squared = validate_sum_p_squared(params.n, sum_p_squared)?;
    let epsilon = single_protocol_epsilon_at(params.epsilon_0, params, sum_p_squared);
    Ok(PrivacyGuarantee::new(epsilon, params.delta)?)
}

/// The central guarantee `protocol` earns from one report's accounting
/// moments: [`all_protocol_epsilon`] on `(Σ_i P_i², ρ*)` for `A_all`,
/// [`single_protocol_epsilon`] on `Σ_i P_i²` for `A_single` — the one rule
/// the offline and the streaming accountant apply to every origin.
///
/// # Errors
///
/// [`Error::InvalidConfiguration`] on out-of-range inputs.
pub(crate) fn guarantee_from_stats(
    protocol: ProtocolKind,
    params: &AccountantParams,
    stats: &RowStats,
) -> Result<PrivacyGuarantee> {
    match protocol {
        ProtocolKind::All => {
            all_protocol_epsilon(params, stats.sum_of_squares, stats.support_ratio)
        }
        ProtocolKind::Single => single_protocol_epsilon(params, stats.sum_of_squares),
    }
}

/// Approximate-DP corollary of Theorems 5.3/5.4: the local randomizer is
/// `(ε₀, δ₀)`-DP, which Lemma 5.2 converts into an `8ε₀`-pure surrogate at
/// total-variation distance `δ₁`, yielding
/// `(ε', δ + δ₂ + n (e^{ε'} + 1) δ₁)` with `ε'` the pure formula at `8ε₀`.
///
/// # Errors
///
/// Fails if `δ₀` exceeds the Lemma 5.2 threshold or any parameter is out of
/// range.
pub fn all_protocol_epsilon_approx(
    params: &AccountantParams,
    sum_p_squared: f64,
    rho_star: f64,
    delta_0: f64,
    delta_1: f64,
) -> Result<PrivacyGuarantee> {
    let sum_p_squared = validate_sum_p_squared(params.n, sum_p_squared)?;
    if !rho_star.is_finite() || rho_star < 1.0 {
        return Err(Error::InvalidConfiguration(format!(
            "support ratio rho* must be >= 1, got {rho_star}"
        )));
    }
    let surrogate = approximate_to_pure(params.epsilon_0, delta_0, delta_1)?;
    let epsilon_prime = all_protocol_epsilon_at(surrogate.epsilon, params, sum_p_squared, rho_star);
    let delta_prime = params.delta
        + params.delta_2
        + union_bound_delta(params.n, epsilon_prime, surrogate.tv_distance);
    Ok(PrivacyGuarantee::new(
        epsilon_prime,
        delta_prime.min(1.0 - f64::EPSILON),
    )?)
}

/// Approximate-DP corollary of Theorems 5.5/5.6 for protocol `A_single`.
///
/// # Errors
///
/// Same as [`all_protocol_epsilon_approx`].
pub fn single_protocol_epsilon_approx(
    params: &AccountantParams,
    sum_p_squared: f64,
    delta_0: f64,
    delta_1: f64,
) -> Result<PrivacyGuarantee> {
    let sum_p_squared = validate_sum_p_squared(params.n, sum_p_squared)?;
    let surrogate = approximate_to_pure(params.epsilon_0, delta_0, delta_1)?;
    let epsilon_prime = single_protocol_epsilon_at(surrogate.epsilon, params, sum_p_squared);
    let delta_prime = params.delta
        + params.delta_2
        + union_bound_delta(params.n, epsilon_prime, surrogate.tv_distance);
    Ok(PrivacyGuarantee::new(
        epsilon_prime,
        delta_prime.min(1.0 - f64::EPSILON),
    )?)
}

/// The trivial central guarantee `(ε₀, 0)` that holds with no amplification
/// at all (every ε₀-LDP collection is ε₀-DP centrally).  Useful as the
/// fallback when the amplified bound exceeds ε₀, e.g. for very small graphs.
pub fn ldp_fallback(params: &AccountantParams) -> PrivacyGuarantee {
    PrivacyGuarantee::pure(params.epsilon_0).expect("validated at construction")
}

/// The tighter of the amplified guarantee and the LDP fallback, compared on
/// ε (the fallback has δ = 0, so it dominates whenever its ε is smaller).
pub fn best_of(amplified: PrivacyGuarantee, params: &AccountantParams) -> PrivacyGuarantee {
    let fallback = ldp_fallback(params);
    if fallback.epsilon <= amplified.epsilon {
        fallback
    } else {
        amplified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, eps0: f64) -> AccountantParams {
        AccountantParams::with_defaults(n, eps0).unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(AccountantParams::new(1, 1.0, 1e-6, 1e-6).is_err());
        assert!(AccountantParams::new(10, 0.0, 1e-6, 1e-6).is_err());
        assert!(AccountantParams::new(10, 1.0, 0.0, 1e-6).is_err());
        assert!(AccountantParams::new(10, 1.0, 1e-6, 1.0).is_err());
        assert!(AccountantParams::new(10, 1.0, 1e-6, 1e-6).is_ok());
    }

    #[test]
    fn sum_p_squared_validation() {
        let p = params(100, 1.0);
        assert!(all_protocol_epsilon(&p, 0.0, 1.0).is_err());
        assert!(all_protocol_epsilon(&p, 1.5, 1.0).is_err());
        // Below 1/n is impossible for a probability vector.
        assert!(all_protocol_epsilon(&p, 0.001, 1.0).is_err());
        assert!(all_protocol_epsilon(&p, 0.02, 1.0).is_ok());
        assert!(all_protocol_epsilon(&p, 0.02, 0.5).is_err());
        assert!(single_protocol_epsilon(&p, f64::NAN).is_err());
    }

    #[test]
    fn single_protocol_matches_hand_computation() {
        // n = 10_000, eps0 = 1, sum P^2 = 10 / n (Gamma = 10), delta = 1e-6.
        let p = params(10_000, 1.0);
        let s = 10.0 / 10_000.0;
        let e = 1.0f64.exp();
        let expected = (2.0f64).exp() * (e - 1.0).powi(2) / 2.0 * s
            + e * (e - 1.0) * (2.0 * (1e6f64).ln() * s).sqrt();
        let got = single_protocol_epsilon(&p, s).unwrap();
        assert!((got.epsilon - expected).abs() < 1e-12);
        assert!((got.delta - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn all_protocol_matches_hand_computation() {
        let p = params(10_000, 0.5);
        let s = 2.0 / 10_000.0;
        let n = 10_000f64;
        let eps1 = ((1.0 - 1.0 / n) * s).sqrt() + ((1e6f64).ln() / n).sqrt();
        let a = (0.5f64.exp() - 1.0).powi(2) * (2.0f64).exp();
        let expected = a * eps1 * eps1 / 2.0 + eps1 * (2.0 * a * (1e6f64).ln()).sqrt();
        let got = all_protocol_epsilon(&p, s, 1.0).unwrap();
        assert!((got.epsilon - expected).abs() < 1e-12);
        assert!((got.delta - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn amplification_improves_with_population_and_mixing() {
        // Larger n (smaller sum P^2) gives a smaller central epsilon.
        let eps0 = 0.5;
        let small = single_protocol_epsilon(&params(1_000, eps0), 1.0 / 1_000.0).unwrap();
        let large = single_protocol_epsilon(&params(1_000_000, eps0), 1.0 / 1_000_000.0).unwrap();
        assert!(large.epsilon < small.epsilon);

        // A less-mixed distribution (larger sum P^2) gives a larger epsilon.
        let p = params(100_000, eps0);
        let mixed = all_protocol_epsilon(&p, 1.0 / 100_000.0, 1.0).unwrap();
        let unmixed = all_protocol_epsilon(&p, 0.01, 1.0).unwrap();
        assert!(mixed.epsilon < unmixed.epsilon);
    }

    #[test]
    fn single_beats_all_at_large_epsilon0() {
        // Figure 7's qualitative claim: at large eps0 the A_single bound is
        // smaller than the A_all bound.
        let p = params(100_000, 3.0);
        let s = 5.0 / 100_000.0;
        let all = all_protocol_epsilon(&p, s, 1.0).unwrap();
        let single = single_protocol_epsilon(&p, s).unwrap();
        assert!(
            single.epsilon < all.epsilon,
            "single {} vs all {}",
            single.epsilon,
            all.epsilon
        );
    }

    #[test]
    fn rho_star_only_penalizes_the_all_protocol() {
        let p = params(50_000, 1.0);
        let s = 3.0 / 50_000.0;
        let base = all_protocol_epsilon(&p, s, 1.0).unwrap();
        let skewed = all_protocol_epsilon(&p, s, 2.0).unwrap();
        assert!(skewed.epsilon > base.epsilon);
    }

    #[test]
    fn approx_variants_pay_in_epsilon_and_delta() {
        let p = params(100_000, 0.25);
        let s = 2.0 / 100_000.0;
        let pure = all_protocol_epsilon(&p, s, 1.0).unwrap();
        let delta_1 = 1e-12;
        let threshold = ns_dp::conversion::delta0_threshold(0.25, delta_1).unwrap();
        let approx = all_protocol_epsilon_approx(&p, s, 1.0, threshold / 2.0, delta_1).unwrap();
        assert!(approx.epsilon > pure.epsilon);
        assert!(approx.delta > pure.delta);
        // Too-large delta_0 is rejected.
        assert!(all_protocol_epsilon_approx(&p, s, 1.0, threshold * 10.0, delta_1).is_err());

        let single_pure = single_protocol_epsilon(&p, s).unwrap();
        let single_approx =
            single_protocol_epsilon_approx(&p, s, threshold / 2.0, delta_1).unwrap();
        assert!(single_approx.epsilon > single_pure.epsilon);
    }

    #[test]
    fn fallback_picks_the_tighter_guarantee() {
        let p = params(100, 2.0);
        // Tiny population: the amplified bound is worse than eps0.
        let amplified = all_protocol_epsilon(&p, 1.0 / 100.0, 1.0).unwrap();
        assert!(amplified.epsilon > 2.0);
        let best = best_of(amplified, &p);
        assert_eq!(best.epsilon, 2.0);
        assert!(best.is_pure());

        // Huge population: amplification wins.
        let p = params(1_000_000, 0.5);
        let amplified = single_protocol_epsilon(&p, 1.0 / 1_000_000.0).unwrap();
        let best = best_of(amplified, &p);
        assert!(best.epsilon < 0.5);
    }
}
