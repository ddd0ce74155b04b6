//! Degree statistics and the graph irregularity measure `Γ_G`.
//!
//! The paper's privacy theorems depend on the graph only through
//! `Σ_i (P_i^G)²`.  At stationarity `P^G = π^G = k / 2m`, so
//!
//! ```text
//! Γ_G = n · Σ_i π_i²  =  n · Σ_i k_i² / (Σ_i k_i)²  =  ⟨k²⟩ / ⟨k⟩²
//! ```
//!
//! which is the normalized second moment of the degree distribution (Table 2
//! of the paper).  `Γ_G = 1` exactly for regular graphs and grows with degree
//! heterogeneity; Table 4 reports `Γ_G ≈ 5.0` for the Facebook page network
//! and `≈ 36.9` for the Enron e-mail graph.

use crate::graph::Graph;
use serde::{Deserialize, Serialize};

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Number of nodes `n`.
    pub node_count: usize,
    /// Number of undirected edges `m`.
    pub edge_count: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree `⟨k⟩ = 2m / n`.
    pub mean_degree: f64,
    /// Second moment of the degree distribution `⟨k²⟩`.
    pub second_moment: f64,
    /// Irregularity measure `Γ_G = ⟨k²⟩ / ⟨k⟩² = n Σ_i π_i²`.
    pub irregularity: f64,
}

impl DegreeStats {
    /// Computes degree statistics for `graph`.
    ///
    /// Returns `None` for the empty graph or a graph with no edges, for
    /// which `Γ_G` is undefined.
    pub fn compute(graph: &Graph) -> Option<Self> {
        let n = graph.node_count();
        if n == 0 || graph.edge_count() == 0 {
            return None;
        }
        let degrees = graph.degrees();
        let min_degree = *degrees.iter().min().expect("non-empty");
        let max_degree = *degrees.iter().max().expect("non-empty");
        let sum: f64 = degrees.iter().map(|&k| k as f64).sum();
        let sum_sq: f64 = degrees.iter().map(|&k| (k as f64) * (k as f64)).sum();
        let mean = sum / n as f64;
        let second_moment = sum_sq / n as f64;
        let irregularity = second_moment / (mean * mean);
        Some(DegreeStats {
            node_count: n,
            edge_count: graph.edge_count(),
            min_degree,
            max_degree,
            mean_degree: mean,
            second_moment,
            irregularity,
        })
    }
}

/// `Σ_i P_i²` of a distribution — the quantity the privacy theorems consume.
/// `n` times it is the irregularity `Γ_G = n Σ_i π_i²` at the stationary
/// distribution, and the time-dependent `Γ_G(t)` at a position distribution.
pub fn sum_of_squares(p: &[f64]) -> f64 {
    p.iter().map(|x| x * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn regular_graph_has_unit_irregularity() {
        let g = generators::cycle(10).unwrap();
        let stats = DegreeStats::compute(&g).unwrap();
        assert!((stats.irregularity - 1.0).abs() < 1e-12);
        assert_eq!(stats.min_degree, 2);
        assert_eq!(stats.max_degree, 2);
        assert!((stats.mean_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn star_graph_irregularity_matches_formula() {
        // Star on n nodes: one hub of degree n-1, n-1 leaves of degree 1.
        // <k> = 2(n-1)/n, <k^2> = ((n-1)^2 + (n-1))/n = (n-1)n/n = n-1.
        // Gamma = (n-1) / (2(n-1)/n)^2 = n^2 / (4(n-1)).
        let n = 11usize;
        let g = generators::star(n).unwrap();
        let stats = DegreeStats::compute(&g).unwrap();
        let expected = (n * n) as f64 / (4.0 * (n as f64 - 1.0));
        assert!((stats.irregularity - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_and_edgeless_graphs_have_no_stats() {
        assert!(DegreeStats::compute(&Graph::from_edges(0, &[]).unwrap()).is_none());
        assert!(DegreeStats::compute(&Graph::from_edges(5, &[]).unwrap()).is_none());
    }

    #[test]
    fn irregularity_from_uniform_distribution_is_one() {
        let p = vec![0.25; 4];
        assert!((4.0 * sum_of_squares(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn irregularity_from_point_mass_is_n() {
        let mut p = vec![0.0; 8];
        p[3] = 1.0;
        assert!((8.0 * sum_of_squares(&p) - 8.0).abs() < 1e-12);
        assert!((sum_of_squares(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_agree_with_stationary_distribution_route() {
        let g = generators::star(7).unwrap();
        let stats = DegreeStats::compute(&g).unwrap();
        let pi = crate::stationary::stationary_distribution(&g).unwrap();
        let gamma = pi.len() as f64 * sum_of_squares(&pi);
        assert!((stats.irregularity - gamma).abs() < 1e-9);
    }
}
