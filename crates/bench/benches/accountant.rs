//! Micro-benchmarks of the privacy accountant (closed forms and sweeps).

use network_shuffle::prelude::*;
use ns_bench::timer::bench;
use ns_graph::generators::random_regular;
use ns_graph::rng::seeded_rng;

fn main() {
    let params = AccountantParams::with_defaults(100_000, 1.0).expect("params");
    let sum_p_sq = 5.0 / 100_000.0;
    bench("closed_form_all", || {
        all_protocol_epsilon(&params, sum_p_sq, 1.0).expect("eps")
    });
    bench("closed_form_single", || {
        single_protocol_epsilon(&params, sum_p_sq).expect("eps")
    });

    let graph = random_regular(5_000, 8, &mut seeded_rng(1)).expect("graph");
    bench("graph_accountant/construct_n5000", || {
        NetworkShuffleAccountant::new(&graph).expect("accountant")
    });
    let accountant = NetworkShuffleAccountant::new(&graph).expect("accountant");
    let params = AccountantParams::with_defaults(5_000, 1.0).expect("params");
    bench("graph_accountant/epsilon_vs_rounds_symmetric_50", || {
        accountant
            .epsilon_vs_rounds(
                ProtocolKind::All,
                Scenario::Symmetric { origin: 0 },
                &params,
                50,
            )
            .expect("sweep")
    });
}
