//! Micro-benchmark of one round of a single origin's position distribution
//! — a 1-row `DistributionEnsemble`, which steps through the walk
//! operator's scalar scatter — plus its accounting moments: the per-round
//! cost that backs the Table 3 complexity claims.  Engine rounds are timed
//! by the `mixing_engine` bench.

use ns_bench::timer::bench;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::generators::random_regular;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;

fn main() {
    for n in [1_000usize, 10_000] {
        let graph = random_regular(n, 8, &mut seeded_rng(4)).expect("graph");
        let transition = TransitionMatrix::new(&graph).expect("transition");
        let mut dist = DistributionEnsemble::point_masses(n, &[0]).expect("dist");
        bench(&format!("distribution_update/propagate/{n}"), || {
            dist.advance(&transition, 1);
            dist.row_stats(0).sum_of_squares
        });
    }
}
