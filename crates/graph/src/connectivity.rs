//! Connectivity and bipartiteness analysis.
//!
//! Theorem 4.3 of the paper: a random walk on `G` is ergodic (converges to
//! the stationary distribution from any start) if and only if `G` is
//! connected and not bipartite.  The functions here decide both conditions
//! and extract the largest connected component, which is how the paper
//! preprocesses its real-world datasets (Table 4 uses the largest connected
//! subgraph of each network).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Assigns each node a component id in `0..component_count` via BFS.
///
/// Returns `(component_of_node, component_count)`.  The empty graph yields
/// `(vec![], 0)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut component = vec![usize::MAX; n];
    let mut next_component = 0usize;
    let mut queue = VecDeque::new();

    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = next_component;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if component[v] == usize::MAX {
                    component[v] = next_component;
                    queue.push_back(v);
                }
            }
        }
        next_component += 1;
    }
    (component, next_component)
}

/// Returns `true` if the graph is connected.
///
/// The empty graph is considered connected (vacuously); a single node is
/// connected.
pub fn is_connected(graph: &Graph) -> bool {
    let (_, count) = connected_components(graph);
    count <= 1
}

/// Returns `true` if the graph is bipartite (2-colourable).
///
/// Bipartite graphs never mix under the simple random walk because the walk
/// alternates between the two sides; the paper's remedy is a lazy walk
/// ([`crate::transition::TransitionMatrix::with_laziness`]).
pub fn is_bipartite(graph: &Graph) -> bool {
    let n = graph.node_count();
    let mut color = vec![u8::MAX; n];
    let mut queue = VecDeque::new();

    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if color[v] == u8::MAX {
                    color[v] = 1 - color[u];
                    queue.push_back(v);
                } else if color[v] == color[u] {
                    return false;
                }
            }
        }
    }
    true
}

/// Extracts the largest connected component as a new graph.
///
/// Returns the component graph together with the mapping
/// `new_id -> original_id`.  Ties between equally-sized components are broken
/// towards the component containing the smallest original node id, which
/// keeps the operation deterministic.
pub fn largest_connected_component(graph: &Graph) -> (Graph, Vec<NodeId>) {
    let n = graph.node_count();
    if n == 0 {
        return (Graph::from_edges(0, &[]).expect("empty graph"), Vec::new());
    }
    let (component, count) = connected_components(graph);
    let mut sizes = vec![0usize; count];
    for &c in &component {
        sizes[c] += 1;
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(idx, _)| idx)
        .expect("at least one component");

    let mut old_to_new = vec![usize::MAX; n];
    let mut new_to_old = Vec::new();
    for u in 0..n {
        if component[u] == best {
            old_to_new[u] = new_to_old.len();
            new_to_old.push(u);
        }
    }

    let mut builder = crate::builder::GraphBuilder::new(new_to_old.len());
    for (u, v) in graph.edges() {
        if component[u] == best && component[v] == best {
            builder
                .add_edge(old_to_new[u], old_to_new[v])
                .expect("remapped edge endpoints are in range");
        }
    }
    (builder.build(), new_to_old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disjoint_triangles() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn single_node_and_empty_graph_are_connected() {
        assert!(is_connected(&Graph::from_edges(1, &[]).unwrap()));
        assert!(is_connected(&Graph::from_edges(0, &[]).unwrap()));
    }

    #[test]
    fn isolated_node_breaks_connectivity() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn bipartiteness_of_cycles() {
        assert!(is_bipartite(&generators::cycle(4).unwrap()));
        assert!(is_bipartite(&generators::cycle(10).unwrap()));
        assert!(!is_bipartite(&generators::cycle(5).unwrap()));
        assert!(!is_bipartite(&generators::cycle(11).unwrap()));
    }

    #[test]
    fn star_and_path_are_bipartite_complete_is_not() {
        assert!(is_bipartite(&generators::star(6).unwrap()));
        assert!(is_bipartite(&generators::path(5).unwrap()));
        assert!(!is_bipartite(&generators::complete(4).unwrap()));
    }

    #[test]
    fn largest_component_extraction() {
        // Component A: 0-1-2 triangle; component B: 3-4 edge; isolated: 5.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.node_count(), 3);
        assert_eq!(lcc.edge_count(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        assert!(lcc.is_connected());
    }

    #[test]
    fn largest_component_of_connected_graph_is_identity() {
        let g = generators::complete(5).unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.node_count(), 5);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
        assert_eq!(lcc.edge_count(), g.edge_count());
    }

    #[test]
    fn largest_component_of_empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let (lcc, map) = largest_connected_component(&g);
        assert_eq!(lcc.node_count(), 0);
        assert!(map.is_empty());
    }
}
