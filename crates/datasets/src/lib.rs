//! Synthetic stand-ins for the real-world datasets evaluated in the paper.
//!
//! Table 4 of the paper evaluates network shuffling on five real networks
//! (Facebook pages, Twitch, Deezer, Enron e-mail, Google web).  The privacy
//! theorems depend on a graph only through its size `n`, its irregularity
//! `Γ_G = ⟨k²⟩/⟨k⟩²` and its spectral gap, so this crate generates synthetic
//! graphs calibrated to the *same `n` and `Γ_G`* as the originals (largest
//! connected component, as in the paper).
//!
//! The crate also provides the Gaussian-mixture workload of the paper's
//! private mean-estimation study (Section 5.6 / Figure 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod workload;

pub use catalog::{Dataset, DatasetSpec, GeneratedDataset};
pub use workload::{MeanEstimationWorkload, WorkloadConfig};
