//! Spectral analysis of the normalized adjacency matrix.
//!
//! Section 4.1 of the paper characterizes the mixing behaviour of the random
//! walk through the eigenvalues `1 = α₁ ≥ α₂ ≥ … ≥ αₙ > −1` of the
//! normalized adjacency matrix `N = B^{-1/2} A B^{-1/2}` (which is similar to
//! the transition matrix `A B⁻¹`, so they share eigenvalues).  The quantity
//! that enters the privacy bounds is the *spectral gap*
//!
//! ```text
//! α = min(1 − α₂, 1 − |αₙ|)
//! ```
//!
//! together with the convergence estimate `TV_G(P(t), π) ≤ √n (1 − α)^t`
//! and the finite-time bound `Σ_i P_i(t)² ≤ Σ_i π_i² + (1 − α)^{2t}` (Eq. 7).
//!
//! Eigenvalues are estimated by shifted power iteration with deflation of the
//! known top eigenvector `e₁ ∝ √deg`, which costs `O(m)` per iteration and
//! handles the graph sizes of Table 4 (up to ~10⁶ nodes) comfortably.

use crate::error::{GraphError, Result};
use crate::graph::Graph;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Options controlling the power-iteration eigensolver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralOptions {
    /// Maximum number of power iterations per eigenvalue.
    pub max_iterations: usize,
    /// Convergence tolerance on the Rayleigh quotient between iterations.
    pub tolerance: f64,
    /// Seed for the random starting vector.
    pub seed: u64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions {
            max_iterations: 5_000,
            tolerance: 1e-10,
            seed: 0x5EED_57EC,
        }
    }
}

/// Result of a spectral analysis of a graph's random walk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralAnalysis {
    /// Second-largest eigenvalue `α₂` of the normalized adjacency matrix.
    pub alpha_2: f64,
    /// Smallest eigenvalue `αₙ`.
    pub alpha_n: f64,
    /// Laziness applied to the walk (0 for the simple walk).  Lazy
    /// eigenvalues are `laziness + (1 − laziness)·α`.
    pub laziness: f64,
    /// Number of power iterations actually used (max over the two solves).
    pub iterations: usize,
}

impl SpectralAnalysis {
    /// Computes the spectral analysis of the simple random walk on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is degenerate; use [`SpectralAnalysis::try_compute`]
    /// for a fallible version.
    pub fn compute(graph: &Graph, options: SpectralOptions) -> Self {
        Self::try_compute(graph, 0.0, options)
            .expect("graph must be non-empty with no isolated node")
    }

    /// Computes the spectral analysis of a (possibly lazy) random walk.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyGraph`] / [`GraphError::IsolatedNode`] for
    ///   degenerate graphs.
    /// * [`GraphError::InvalidParameters`] if `laziness ∉ [0, 1)`.
    pub fn try_compute(graph: &Graph, laziness: f64, options: SpectralOptions) -> Result<Self> {
        if !(0.0..1.0).contains(&laziness) {
            return Err(GraphError::InvalidParameters(format!(
                "laziness must be in [0, 1), got {laziness}"
            )));
        }
        let n = graph.node_count();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        if n == 1 {
            // A single node with no self-loop: the walk is trivially already
            // stationary; define the gap as 1.
            return Ok(SpectralAnalysis {
                alpha_2: 0.0,
                alpha_n: 0.0,
                laziness,
                iterations: 0,
            });
        }

        let operator = NormalizedAdjacency::new(graph);
        let mut rng = crate::rng::seeded_rng(options.seed);

        // alpha_2 via power iteration on (I + N) / 2 with e1 deflated.
        let (mu_plus, it1) = operator.dominant_deflated(
            |op, x, y| {
                op.apply(x, y);
                for (yi, xi) in y.iter_mut().zip(x.iter()) {
                    *yi = 0.5 * (*yi + *xi);
                }
            },
            true,
            &mut rng,
            options,
        );
        let alpha_2_simple = (2.0 * mu_plus - 1.0).clamp(-1.0, 1.0);

        // alpha_n via power iteration on (I - N) / 2 (no deflation needed:
        // its top eigenvalue (1 - alpha_n)/2 is attained away from e1 unless
        // the graph is a single edge, which the deflation also handles).
        let (mu_minus, it2) = operator.dominant_deflated(
            |op, x, y| {
                op.apply(x, y);
                for (yi, xi) in y.iter_mut().zip(x.iter()) {
                    *yi = 0.5 * (*xi - *yi);
                }
            },
            false,
            &mut rng,
            options,
        );
        let alpha_n_simple = (1.0 - 2.0 * mu_minus).clamp(-1.0, 1.0);

        // Laziness shifts every eigenvalue towards +1.
        let alpha_2 = laziness + (1.0 - laziness) * alpha_2_simple;
        let alpha_n = laziness + (1.0 - laziness) * alpha_n_simple;

        Ok(SpectralAnalysis {
            alpha_2,
            alpha_n,
            laziness,
            iterations: it1.max(it2),
        })
    }

    /// The spectral gap `α = min(1 − α₂, 1 − |αₙ|)`.
    ///
    /// Returns a value clamped to `[0, 1]`; a gap of (numerically) zero
    /// indicates a non-ergodic walk (disconnected or bipartite graph).
    pub fn spectral_gap(&self) -> f64 {
        let gap = (1.0 - self.alpha_2).min(1.0 - self.alpha_n.abs());
        gap.clamp(0.0, 1.0)
    }
}

/// Implicit normalized adjacency operator `N = B^{-1/2} A B^{-1/2}`, over a
/// copy of the graph's CSR with `u32` neighbour ids.
struct NormalizedAdjacency {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    inv_sqrt_degree: Vec<f64>,
    /// `√deg / ‖√deg‖` — the top eigenvector `e₁`.
    top_eigenvector: Vec<f64>,
}

impl NormalizedAdjacency {
    fn new(graph: &Graph) -> Self {
        let (offsets, neighbors) = graph.csr_parts();
        let inv_sqrt_degree: Vec<f64> = graph
            .nodes()
            .map(|u| 1.0 / (graph.degree(u) as f64).sqrt())
            .collect();
        let mut top: Vec<f64> = graph
            .nodes()
            .map(|u| (graph.degree(u) as f64).sqrt())
            .collect();
        let norm = top.iter().map(|x| x * x).sum::<f64>().sqrt();
        for x in &mut top {
            *x /= norm;
        }
        NormalizedAdjacency {
            offsets: offsets.to_vec(),
            neighbors: neighbors.to_vec(),
            inv_sqrt_degree,
            top_eigenvector: top,
        }
    }

    fn node_count(&self) -> usize {
        self.inv_sqrt_degree.len()
    }

    /// `y = N x`.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for yi in y.iter_mut() {
            *yi = 0.0;
        }
        for (i, (&x_i, &inv_sqrt)) in x.iter().zip(self.inv_sqrt_degree.iter()).enumerate() {
            let xi = x_i * inv_sqrt;
            if xi == 0.0 {
                continue;
            }
            for &j in &self.neighbors[self.offsets[i]..self.offsets[i + 1]] {
                let j = j as usize;
                y[j] += xi * self.inv_sqrt_degree[j];
            }
        }
    }

    /// Power iteration for the dominant eigenvalue of the operator defined by
    /// `step` (a non-negative shift of ±N), optionally deflating `e₁`.
    /// Returns `(eigenvalue_of_shifted_operator, iterations)`.
    fn dominant_deflated<F>(
        &self,
        step: F,
        deflate: bool,
        rng: &mut impl Rng,
        options: SpectralOptions,
    ) -> (f64, usize)
    where
        F: Fn(&Self, &[f64], &mut [f64]),
    {
        let n = self.node_count();
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut y = vec![0.0; n];
        let mut previous = f64::NAN;
        let mut iterations = 0;

        for it in 1..=options.max_iterations {
            iterations = it;
            if deflate {
                project_out(&mut x, &self.top_eigenvector);
            }
            normalize(&mut x);
            step(self, &x, &mut y);
            if deflate {
                project_out(&mut y, &self.top_eigenvector);
            }
            // Rayleigh quotient of the shifted operator.
            let value: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            std::mem::swap(&mut x, &mut y);
            if (value - previous).abs() <= options.tolerance * value.abs().max(1.0) && it > 8 {
                return (value, it);
            }
            previous = value;
        }
        (previous, iterations)
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    } else {
        // Degenerate: restart from a deterministic vector.
        for (i, v) in x.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        normalize(x);
    }
}

fn project_out(x: &mut [f64], direction: &[f64]) {
    let dot: f64 = x.iter().zip(direction.iter()).map(|(a, b)| a * b).sum();
    for (xi, di) in x.iter_mut().zip(direction.iter()) {
        *xi -= dot * di;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn analyse(g: &Graph) -> SpectralAnalysis {
        SpectralAnalysis::compute(g, SpectralOptions::default())
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n: eigenvalues 1 and -1/(n-1) with multiplicity n-1.
        let n = 10usize;
        let g = generators::complete(n).unwrap();
        let s = analyse(&g);
        let expected = -1.0 / (n as f64 - 1.0);
        assert!(
            (s.alpha_2 - expected).abs() < 1e-6,
            "alpha_2 = {}",
            s.alpha_2
        );
        assert!(
            (s.alpha_n - expected).abs() < 1e-6,
            "alpha_n = {}",
            s.alpha_n
        );
        let expected_gap = 1.0 - 1.0 / (n as f64 - 1.0);
        assert!((s.spectral_gap() - expected_gap).abs() < 1e-6);
    }

    #[test]
    fn odd_cycle_spectrum() {
        // C_n: eigenvalues cos(2 pi k / n).
        let n = 9usize;
        let g = generators::cycle(n).unwrap();
        let s = analyse(&g);
        let alpha_2 = (2.0 * std::f64::consts::PI / n as f64).cos();
        let alpha_n = (2.0 * std::f64::consts::PI * 4.0 / n as f64).cos();
        assert!(
            (s.alpha_2 - alpha_2).abs() < 1e-5,
            "alpha_2 = {}",
            s.alpha_2
        );
        assert!(
            (s.alpha_n - alpha_n).abs() < 1e-5,
            "alpha_n = {}",
            s.alpha_n
        );
    }

    #[test]
    fn even_cycle_is_bipartite_with_zero_gap() {
        let g = generators::cycle(8).unwrap();
        let s = analyse(&g);
        assert!((s.alpha_n + 1.0).abs() < 1e-5);
        assert!(s.spectral_gap() < 1e-4);
    }

    #[test]
    fn star_spectrum() {
        // Star: eigenvalues 1, 0 (multiplicity n-2), -1.
        let g = generators::star(12).unwrap();
        let s = analyse(&g);
        assert!(s.alpha_2.abs() < 1e-5, "alpha_2 = {}", s.alpha_2);
        assert!((s.alpha_n + 1.0).abs() < 1e-5, "alpha_n = {}", s.alpha_n);
        assert!(s.spectral_gap() < 1e-4);
    }

    #[test]
    fn laziness_shifts_eigenvalues_and_restores_ergodicity() {
        let g = generators::cycle(8).unwrap();
        let simple = analyse(&g);
        let lazy = SpectralAnalysis::try_compute(&g, 0.5, SpectralOptions::default()).unwrap();
        assert!(lazy.spectral_gap() > 0.05);
        assert!(lazy.alpha_n > simple.alpha_n);
        // Eigenvalue transform check: lazy alpha_2 = 0.5 + 0.5 * simple alpha_2.
        assert!((lazy.alpha_2 - (0.5 + 0.5 * simple.alpha_2)).abs() < 1e-6);
    }

    #[test]
    fn random_regular_graph_has_healthy_gap() {
        let mut rng = crate::rng::seeded_rng(3);
        let g = generators::random_regular(400, 8, &mut rng).unwrap();
        let s = analyse(&g);
        // Friedman: alpha_2 ~ 2 sqrt(k-1)/k ≈ 0.66 for k = 8; allow slack.
        assert!(s.alpha_2 < 0.85, "alpha_2 = {}", s.alpha_2);
        assert!(s.spectral_gap() > 0.1);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(SpectralAnalysis::try_compute(&empty, 0.0, SpectralOptions::default()).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(SpectralAnalysis::try_compute(&isolated, 0.0, SpectralOptions::default()).is_err());
        let path = generators::path(4).unwrap();
        assert!(SpectralAnalysis::try_compute(&path, 1.5, SpectralOptions::default()).is_err());
    }

    #[test]
    fn single_node_graph_is_trivially_mixed() {
        let g = Graph::from_edges(1, &[]).unwrap();
        // A single node has degree zero, so it is rejected as isolated;
        // document that behaviour here.
        assert!(SpectralAnalysis::try_compute(&g, 0.0, SpectralOptions::default()).is_err());
    }
}
