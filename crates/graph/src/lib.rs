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
//! * the one walk operator `M = A B⁻¹`, with or without an availability
//!   mask (a dark or out-of-shard recipient bounces the report back), and
//!   the evolution of the position probability distribution
//!   `P(t+1) = Mᵀ P(t)` ([`transition`]),
//! * batched evolution of whole *ensembles* of position distributions — one
//!   per report origin — through that operator's blocked, lane-interleaved
//!   pull kernel, enabling exact multi-origin accounting on irregular graphs
//!   ([`ensemble`]); one round of it can run as shared work split by
//!   destination range, beside a persistent [`worker`] thread,
//! * the stationary distribution `k / 2m` and the irregularity measure
//!   `Γ_G = n · Σ_i π_i²` ([`stationary`], [`degree`]),
//! * spectral-gap estimation via deflated power iteration ([`spectral`]) and
//!   the mixing-time rule `t ≈ α⁻¹ log n` ([`mixing`]),
//! * time-varying topologies: a dynamic-graph delta layer with cached CSR
//!   snapshots and per-round schedules of availability-masked walk
//!   operators sharing one CSR, which drive the ensemble kernel through
//!   products of distinct per-round transitions ([`dynamic`]),
//! * a sharded runtime: a deterministic degree-balanced graph partitioner
//!   producing a node → shard assignment with cut and balance metrics
//!   ([`partition`]), and the one engine, the holder-order round executor
//!   over the round kernel ([`round`]), with per-shard ChaCha8 streams,
//!   per-round availability masks, one set of holder buckets over global
//!   node ids and one counting-sort merge per round, streaming per-round
//!   traffic metrics; under a 1-shard partition it is the monolithic
//!   protocol round ([`sharded_engine`]),
//! * the laziness rule shared by the engine and the protocol layer
//!   ([`walk`]),
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

// `deny` rather than `forbid`: these items carry audited
// `allow(unsafe_code)`, each justified where it stands —
// * the walk operator's one pull body in `transition.rs`
//   (`TransitionMatrix::pull`, generic over the lane vector and over masked
//   or not), its AVX2 and AVX-512F instantiations (`pull_avx2`,
//   `pull_avx512`, `#[target_feature]` functions) and their dispatch
//   (`pull_runs`): unchecked CSR/neighbour indexing, raw-pointer lane loads
//   and stores into the interleaved output chunk, justified by construction
//   invariants and the checks of their one checked entry (`pull_range`),
//   plus an x86-64 prefetch hint;
// * the lane vectors in `simd.rs` (`[f64; W]`, `Avx2x2`, `Avx512`): raw
//   unaligned loads and stores and `std::arch` intrinsics whose contract is
//   a host that runs their instruction set;
// * the moments fold's calls into its AVX2 and AVX-512F compilations
//   (`ensemble::block_stats_in`), made after checking the host runs them;
// * the round kernel's prefetch hint (`round::prefetch_read`);
// * the worker's hand-off (`Worker::join`), which erases the lifetime of
//   the job it lends the worker thread and cannot return before the worker
//   is done with it.
// Everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod connectivity;
pub mod degree;
pub mod dynamic;
pub mod ensemble;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod mixing;
pub mod partition;
pub mod rng;
pub mod round;
pub mod sharded_engine;
mod simd;
pub mod spectral;
pub mod stationary;
pub mod telemetry;
pub mod transition;
pub mod walk;
pub mod worker;

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
    pub use crate::dynamic::{DynamicGraph, TimeVaryingModel};
    pub use crate::ensemble::{DistributionEnsemble, EnsembleTrajectory, RowStats};
    pub use crate::error::{GraphError, Result};
    pub use crate::graph::{Graph, NodeId};
    pub use crate::mixing::{mixing_time, sum_p_squared_bound, tv_bound};
    pub use crate::partition::{Partition, Shard};
    pub use crate::sharded_engine::{
        shard_stream, EngineCheckpoint, RoundObserver, RoundStats, ShardCheckpoint,
        ShardedMixingEngine,
    };
    pub use crate::spectral::{SpectralAnalysis, SpectralOptions};
    pub use crate::stationary::stationary_distribution;
    pub use crate::transition::{DarkCounts, TransitionMatrix, TransitionModel};
}
