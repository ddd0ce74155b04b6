//! Micro-benchmarks of the spectral-gap estimation used by the accountant.

use ns_bench::timer::bench;
use ns_graph::generators::{barabasi_albert, random_regular};
use ns_graph::rng::seeded_rng;
use ns_graph::spectral::{SpectralAnalysis, SpectralOptions};

fn main() {
    for n in [1_000usize, 5_000] {
        let regular = random_regular(n, 8, &mut seeded_rng(1)).expect("graph");
        bench(&format!("spectral_gap/regular_k8/{n}"), || {
            SpectralAnalysis::compute(&regular, SpectralOptions::default()).spectral_gap()
        });
        let scale_free = barabasi_albert(n, 5, &mut seeded_rng(2)).expect("graph");
        bench(&format!("spectral_gap/barabasi_albert_m5/{n}"), || {
            SpectralAnalysis::compute(&scale_free, SpectralOptions::default()).spectral_gap()
        });
    }
}
