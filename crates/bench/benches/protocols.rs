//! Micro-benchmarks of full protocol executions (Table 3's measured side).

use network_shuffle::prelude::*;
use ns_bench::timer::bench;
use ns_graph::generators::random_regular;
use ns_graph::rng::seeded_rng;

fn main() {
    for n in [500usize, 2_000] {
        let graph = random_regular(n, 8, &mut seeded_rng(1)).expect("graph");
        let payloads: Vec<u32> = (0..n as u32).collect();
        bench(&format!("protocol_run/a_all_20_rounds/{n}"), || {
            run_protocol(
                &graph,
                payloads.clone(),
                SimulationConfig::all(20, 7),
                |_| 0u32,
            )
            .expect("run")
            .collected
            .report_count()
        });
        bench(&format!("protocol_run/a_single_20_rounds/{n}"), || {
            run_protocol(
                &graph,
                payloads.clone(),
                SimulationConfig::single(20, 7),
                |_| 0u32,
            )
            .expect("run")
            .collected
            .dummy_count()
        });
    }
}
