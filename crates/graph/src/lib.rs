//! Graph and random-walk substrate for the network-shuffling reproduction.
//!
//! The privacy analysis of network shuffling (Liew et al., SIGMOD 2022) models
//! the exchange of locally-randomized reports between users as a random walk
//! on an undirected communication graph `G = (V, E)`.  Everything the privacy
//! accountant needs from the graph is provided by this crate:
//!
//! * a compact CSR representation of undirected graphs ([`Graph`]),
//! * generators for the graph families studied in the paper
//!   ([`generators`]): k-regular, Erdős–Rényi, Barabási–Albert,
//!   Watts–Strogatz, Chung–Lu configuration models and several classic
//!   topologies,
//! * connectivity / bipartiteness checks that decide ergodicity of the walk
//!   ([`connectivity`], Theorem 4.3 of the paper),
//! * the transition matrix `M = A B⁻¹` and the evolution of the position
//!   probability distribution `P(t+1) = Mᵀ P(t)` ([`transition`],
//!   [`distribution`]),
//! * batched evolution of whole *ensembles* of position distributions — one
//!   per report origin — through a blocked, lane-interleaved kernel behind
//!   the [`transition::TransitionModel`] trait, enabling exact multi-origin
//!   accounting on irregular graphs ([`ensemble`]),
//! * the stationary distribution `k / 2m` and the irregularity measure
//!   `Γ_G = n · Σ_i π_i²` ([`stationary`], [`degree`]),
//! * spectral-gap estimation via deflated power iteration ([`spectral`]) and
//!   the mixing-time rule `t ≈ α⁻¹ log n` ([`mixing`]),
//! * one round kernel ([`round`]) behind two engines: walker-order rounds
//!   over struct-of-arrays state with per-round availability masks
//!   ([`mixing_engine`]), and the holder-order engine below,
//! * time-varying topologies: a dynamic-graph delta layer with cached CSR
//!   snapshots, availability-masked transition operators and per-round
//!   operator schedules that drive the ensemble kernel through products of
//!   distinct per-round transitions ([`dynamic`]),
//! * a sharded runtime: a deterministic degree-balanced graph partitioner
//!   producing a node → shard assignment with cut and balance metrics
//!   ([`partition`]), and the holder-order round executor with per-shard
//!   ChaCha8 streams, one set of holder buckets over global node ids and
//!   one counting-sort merge per round, streaming per-round traffic
//!   metrics; under a 1-shard partition it is the monolithic protocol
//!   round ([`sharded_engine`]),
//! * the walk configuration (rounds, laziness) shared by both engines and
//!   the protocol layer ([`walk`]),
//! * simple edge-list I/O ([`io`]).
//!
//! # Example
//!
//! ```
//! use ns_graph::generators::random_regular;
//! use ns_graph::prelude::*;
//!
//! let mut rng = ns_graph::rng::seeded_rng(7);
//! let g = random_regular(1_000, 8, &mut rng).unwrap();
//! assert!(g.is_connected());
//! let spectrum = ns_graph::spectral::SpectralAnalysis::compute(&g, Default::default());
//! let t_mix = ns_graph::mixing::mixing_time(spectrum.spectral_gap(), g.node_count());
//! assert!(t_mix > 0);
//! ```

// `deny` rather than `forbid`: the distribution-ensemble gather kernels in
// `transition.rs` (`TransitionMatrix::propagate_fixed` and its AVX2
// instantiation `propagate_gather8_avx2`) carry audited
// `allow(unsafe_code)` blocks — unchecked CSR/neighbour indexing and
// raw-pointer lane loads justified by construction invariants, plus an
// x86-64 prefetch hint.  Everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod connectivity;
pub mod degree;
pub mod distribution;
pub mod dynamic;
pub mod ensemble;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod mixing;
pub mod mixing_engine;
pub mod partition;
pub mod rng;
pub mod round;
pub mod sharded_engine;
pub mod spectral;
pub mod stationary;
pub mod telemetry;
pub mod transition;
pub mod walk;

pub use builder::GraphBuilder;
pub use error::{GraphError, Result};
pub use graph::{Graph, NodeId};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::connectivity::{
        connected_components, is_bipartite, largest_connected_component,
    };
    pub use crate::degree::DegreeStats;
    pub use crate::distribution::PositionDistribution;
    pub use crate::dynamic::{DynTransition, DynamicGraph, MaskedTransition, TimeVaryingModel};
    pub use crate::ensemble::{DistributionEnsemble, EnsembleTrajectory, RowStats};
    pub use crate::error::{GraphError, Result};
    pub use crate::graph::{Graph, NodeId};
    pub use crate::mixing::{mixing_time, sum_p_squared_bound, tv_bound};
    pub use crate::mixing_engine::MixingEngine;
    pub use crate::partition::{IntraShardTransition, Partition, Shard};
    pub use crate::sharded_engine::{
        shard_stream, EngineCheckpoint, RoundObserver, RoundStats, ShardCheckpoint,
        ShardedMixingEngine,
    };
    pub use crate::spectral::{SpectralAnalysis, SpectralOptions};
    pub use crate::stationary::stationary_distribution;
    pub use crate::transition::{BlackBoxModel, TransitionMatrix, TransitionModel};
    pub use crate::walk::WalkConfig;
}
