//! Stationary distribution of the simple random walk.
//!
//! For an ergodic graph the walk converges to `π_i = k_i / 2m` (Section 4.1);
//! for a k-regular graph this is the uniform distribution `1/n`.

use crate::error::{GraphError, Result};
use crate::graph::Graph;

/// Returns the stationary distribution `π = k / 2m` of the simple random
/// walk on `graph`.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] if the graph has no nodes.
/// * [`GraphError::IsolatedNode`] if some node has degree zero (its
///   stationary mass would be zero and the walk from it is undefined).
pub fn stationary_distribution(graph: &Graph) -> Result<Vec<f64>> {
    let n = graph.node_count();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if let Some(u) = graph.find_isolated_node() {
        return Err(GraphError::IsolatedNode(u));
    }
    let two_m = (2 * graph.edge_count()) as f64;
    Ok(graph
        .nodes()
        .map(|u| graph.degree(u) as f64 / two_m)
        .collect())
}

/// `Σ_i π_i²` for the stationary distribution — the asymptotic value of the
/// quantity bounded in Eq. 7 of the paper (equal to `Γ_G / n`).
pub fn stationary_sum_of_squares(graph: &Graph) -> Result<f64> {
    Ok(crate::degree::sum_of_squares(&stationary_distribution(
        graph,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn regular_graph_stationary_is_uniform() {
        let g = generators::complete(6).unwrap();
        let pi = stationary_distribution(&g).unwrap();
        for &p in &pi {
            assert!((p - 1.0 / 6.0).abs() < 1e-12);
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_graph_hub_has_half_the_mass() {
        let g = generators::star(5).unwrap();
        let pi = stationary_distribution(&g).unwrap();
        // Hub is node 0 with degree 4 out of 2m = 8.
        assert!((pi[0] - 0.5).abs() < 1e-12);
        for &p in &pi[1..] {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_is_fixed_point_of_transition() {
        let g = generators::star(6).unwrap();
        let pi = stationary_distribution(&g).unwrap();
        let m = crate::transition::TransitionMatrix::new(&g).unwrap();
        let mut next = vec![0.0; pi.len()];
        crate::transition::TransitionModel::propagate_round_into(&m, 0, &pi, &mut next);
        for (a, b) in pi.iter().zip(next.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_on_degenerate_graphs() {
        assert_eq!(
            stationary_distribution(&Graph::from_edges(0, &[]).unwrap()),
            Err(GraphError::EmptyGraph)
        );
        assert_eq!(
            stationary_distribution(&Graph::from_edges(3, &[(0, 1)]).unwrap()),
            Err(GraphError::IsolatedNode(2))
        );
    }

    #[test]
    fn sum_of_squares_matches_gamma_over_n() {
        let g = generators::star(9).unwrap();
        let s = stationary_sum_of_squares(&g).unwrap();
        let stats = crate::degree::DegreeStats::compute(&g).unwrap();
        assert!((s - stats.irregularity / 9.0).abs() < 1e-12);
    }
}
