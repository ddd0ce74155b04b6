//! Incremental construction of [`Graph`]s with deduplication.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, NodeId};

/// Builds an undirected [`Graph`] edge by edge.
///
/// The builder tolerates duplicate edge insertions (they are collapsed into a
/// single undirected edge) but rejects self-loops and out-of-range endpoints,
/// because neither has a meaning in the communication-network model of the
/// paper: a user does not relay a report to herself in one hop (laziness is
/// modelled explicitly by the walk's laziness,
/// [`crate::transition::TransitionMatrix::with_laziness`]).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    /// Directed half-edges; mirrored on build.
    adjacency: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            node_count: n,
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Duplicate insertions are ignored.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if either endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        if u >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                node_count: self.node_count,
            });
        }
        if v >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                node_count: self.node_count,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.adjacency[u].push(v);
        self.adjacency[v].push(u);
        Ok(())
    }

    /// Returns `true` if the edge `(u, v)` has already been added.
    ///
    /// Linear in `deg(u)`; intended for generators that must avoid duplicate
    /// edges while building sparse graphs.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.node_count && self.adjacency[u].contains(&v)
    }

    /// Current degree of node `u` counting edges added so far.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency[u].len()
    }

    /// Number of distinct undirected edges added so far.
    ///
    /// Duplicates inserted via [`GraphBuilder::add_edge`] are only collapsed
    /// at [`GraphBuilder::build`] time, so this count deduplicates on the fly
    /// and is `O(m log m)`.
    pub fn edge_count(&self) -> usize {
        let mut count = 0;
        for (u, nbrs) in self.adjacency.iter().enumerate() {
            let mut higher: Vec<_> = nbrs.iter().copied().filter(|&v| v > u).collect();
            higher.sort_unstable();
            higher.dedup();
            count += higher.len();
        }
        count
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    ///
    /// Adjacency lists are sorted and deduplicated, so the resulting graph is
    /// simple regardless of how many times each edge was inserted.
    pub fn build(self) -> Graph {
        let n = self.node_count;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        for mut nbrs in self.adjacency {
            nbrs.sort_unstable();
            nbrs.dedup();
            neighbors.extend(nbrs.iter().map(|&v| v as u32));
            offsets.push(neighbors.len());
        }
        Graph::from_csr(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.edge_count(), 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loops_and_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(0, 0), Err(GraphError::SelfLoop(0)));
        assert_eq!(
            b.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange {
                node: 5,
                node_count: 2
            })
        );
        assert_eq!(
            b.add_edge(7, 1),
            Err(GraphError::NodeOutOfRange {
                node: 7,
                node_count: 2
            })
        );
    }

    #[test]
    fn has_edge_and_degree_track_insertions() {
        let mut b = GraphBuilder::new(4);
        assert!(!b.has_edge(0, 1));
        b.add_edge(0, 1).unwrap();
        assert!(b.has_edge(0, 1));
        assert!(b.has_edge(1, 0));
        assert_eq!(b.degree(0), 1);
        assert_eq!(b.degree(2), 0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
