//! Compact CSR representation of an undirected graph.
//!
//! The communication network of network shuffling is an undirected graph: if
//! user `u` can send a report to `v` then `v` can send one to `u` (Section
//! 4.1 of the paper).  The graph is stored in compressed sparse row form:
//! a flat `neighbors` array plus per-node offsets.  This keeps the memory
//! footprint at `2m + n + 1` words and makes neighbour iteration and random
//! neighbour sampling O(1)/O(deg) with good cache behaviour, which matters
//! because the walk engine touches every edge-endpoint once per round.

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of a node (user) in the communication graph.
///
/// Nodes are always the dense range `0..n`; dataset loaders are responsible
/// for remapping arbitrary external ids to this range.
pub type NodeId = usize;

/// An immutable undirected graph in CSR (compressed sparse row) form.
///
/// Construct one through [`crate::builder::GraphBuilder`], a generator in
/// [`crate::generators`], or [`Graph::from_edges`].
///
/// Neighbour ids are stored as `u32` (checked at construction:
/// `n < 2^32`), which halves the memory bandwidth of the round kernel's
/// neighbour gather — the dominant traffic of every walk at scale — while
/// [`NodeId`] stays `usize` at the API boundaries that deal in single
/// nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `offsets[i]..offsets[i+1]` indexes the neighbours of node `i`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists; length `2m`, compressed to u32.
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an undirected edge list.
    ///
    /// Duplicate edges and self-loops are rejected by the builder; use
    /// [`crate::builder::GraphBuilder`] if the input may contain them.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] on
    /// malformed input.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut builder = crate::builder::GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Internal constructor from prepared CSR arrays.
    ///
    /// `offsets` must have length `n + 1`, be non-decreasing, start at 0 and
    /// end at `neighbors.len()`; callers inside this crate guarantee this.
    /// The u32 compression bound (`n < 2^32`) is enforced here, so every
    /// construction path — builder, generators, dynamic snapshots — is
    /// covered by one check.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        assert!(
            offsets.len() - 1 <= u32::MAX as usize,
            "graphs are limited to 2^32 - 1 nodes (u32-compressed CSR)"
        );
        Graph { offsets, neighbors }
    }

    /// The raw CSR arrays `(offsets, neighbors)` — used by the round
    /// kernel's prefetched gather and the walk and spectral operators'
    /// CSR copies.
    pub(crate) fn csr_parts(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of nodes `n` in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree (number of neighbours) of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }

    /// The neighbours of node `u` as a slice of compressed (u32) node ids,
    /// in ascending order.
    ///
    /// The ids are plain node ids, only stored narrow; widen with
    /// `as usize` where a [`NodeId`] is needed.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    ///
    /// Runs in `O(log deg(u))` by binary search over the sorted adjacency
    /// list of the lower-degree endpoint.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Iterates over every node id `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count()
    }

    /// Iterates over every undirected edge exactly once as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .map(|&v| v as NodeId)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The degree sequence `k = (k(1), ..., k(n))`.
    pub fn degrees(&self) -> Vec<usize> {
        self.nodes().map(|u| self.degree(u)).collect()
    }

    /// Minimum degree over all nodes; `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.nodes().map(|u| self.degree(u)).min()
    }

    /// Maximum degree over all nodes; `None` for the empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.nodes().map(|u| self.degree(u)).max()
    }

    /// Returns `true` if every node has the same degree `k` (a k-regular
    /// graph, the "symmetric distribution" scenario of Section 4.2).
    pub fn is_regular(&self) -> bool {
        match (self.min_degree(), self.max_degree()) {
            (Some(lo), Some(hi)) => lo == hi,
            _ => true,
        }
    }

    /// Returns the id of a node with degree zero, if any.
    ///
    /// Isolated nodes make the random-walk transition matrix undefined, so
    /// analyses reject them up front.
    pub fn find_isolated_node(&self) -> Option<NodeId> {
        self.nodes().find(|&u| self.degree(u) == 0)
    }

    /// Convenience wrapper around [`crate::connectivity::is_connected`].
    pub fn is_connected(&self) -> bool {
        crate::connectivity::is_connected(self)
    }

    /// Convenience wrapper around [`crate::connectivity::is_bipartite`].
    pub fn is_bipartite(&self) -> bool {
        crate::connectivity::is_bipartite(self)
    }

    /// Validates that the graph supports an ergodic (simple, non-lazy)
    /// random walk: non-empty, no isolated nodes, connected and
    /// non-bipartite (Theorem 4.3 of the paper).
    ///
    /// # Errors
    ///
    /// Returns the first violated requirement as a [`GraphError`].
    pub fn check_ergodic(&self) -> Result<()> {
        if self.node_count() == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if let Some(u) = self.find_isolated_node() {
            return Err(GraphError::IsolatedNode(u));
        }
        if !self.is_connected() {
            return Err(GraphError::Disconnected);
        }
        if self.is_bipartite() {
            return Err(GraphError::Bipartite);
        }
        Ok(())
    }

    /// Samples a neighbour of `u` uniformly at random.
    ///
    /// Returns `None` if `u` is isolated.  This is the per-report transition
    /// step of Algorithms 1 and 2: the next holder is chosen u.a.r. among the
    /// sender's neighbours.
    pub fn random_neighbor<R: rand::Rng + ?Sized>(&self, u: NodeId, rng: &mut R) -> Option<NodeId> {
        let nbrs = self.neighbors(u);
        if nbrs.is_empty() {
            None
        } else {
            Some(nbrs[rng.gen_range(0..nbrs.len())] as NodeId)
        }
    }

    /// Total memory used by the CSR arrays in bytes (diagnostic; used by the
    /// Table 3 complexity experiment).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * self.offsets.len()
            + std::mem::size_of::<u32>() * self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for (u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn has_edge_rejects_absent_and_out_of_range() {
        let g = triangle_plus_tail();
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let mut sorted = edges.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn regularity_detection() {
        let g = triangle_plus_tail();
        assert!(!g.is_regular());
        let cycle = crate::generators::cycle(5).unwrap();
        assert!(cycle.is_regular());
    }

    #[test]
    fn ergodicity_check_distinguishes_cases() {
        // Triangle + tail: connected, not bipartite -> ergodic.
        assert!(triangle_plus_tail().check_ergodic().is_ok());
        // Even cycle: bipartite.
        let c4 = crate::generators::cycle(4).unwrap();
        assert_eq!(c4.check_ergodic(), Err(GraphError::Bipartite));
        // Two disjoint edges: disconnected (and bipartite, but connectivity
        // is checked first).
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.check_ergodic(), Err(GraphError::Disconnected));
        // Isolated node.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert_eq!(g.check_ergodic(), Err(GraphError::IsolatedNode(3)));
        // Empty graph.
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.check_ergodic(), Err(GraphError::EmptyGraph));
    }

    #[test]
    fn random_neighbor_stays_in_adjacency() {
        let g = triangle_plus_tail();
        let mut rng = crate::rng::seeded_rng(1);
        for _ in 0..100 {
            let v = g.random_neighbor(2, &mut rng).unwrap();
            assert!(g.neighbors(2).contains(&(v as u32)));
        }
        let isolated = Graph::from_edges(2, &[]).unwrap();
        assert!(isolated.random_neighbor(0, &mut rng).is_none());
    }

    #[test]
    fn rebuilding_from_edge_iterator_is_lossless() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        let g2 = Graph::from_edges(g.node_count(), &edges).unwrap();
        assert_eq!(g, g2);
    }
}
