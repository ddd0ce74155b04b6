//! Parity tests for the batched mixing engine.
//!
//! The refactor's contract: the struct-of-arrays engine must be a drop-in
//! replacement for the historical per-client round loop — same seed, same
//! submissions, same metrics.

use network_shuffle::prelude::*;
use network_shuffle::simulation::reference::run_protocol_reference;
use network_shuffle::simulation::SimulationOutcome;
use rand::Rng;

fn curator_view<P: Copy>(outcome: &SimulationOutcome<P>) -> Vec<(usize, usize, bool, P)> {
    outcome
        .collected
        .reports_with_submitter()
        .map(|(submitter, report)| (submitter, report.origin, report.is_dummy, report.payload))
        .collect()
}

/// Protocol layer: batched engine path vs. per-client reference loop, across
/// protocols, laziness levels and seeds — identical submissions (submitter,
/// origin, dummy flag, payload) and identical traffic metrics.
#[test]
fn protocol_outcomes_match_reference_loop() {
    let mut graph_rng = ns_graph::rng::seeded_rng(2);
    let graph = ns_graph::generators::random_regular(300, 8, &mut graph_rng).unwrap();
    let cases = [
        (ProtocolKind::All, 0.0, 25, 101u64),
        (ProtocolKind::All, 0.3, 25, 102),
        (ProtocolKind::Single, 0.0, 25, 103),
        (ProtocolKind::Single, 0.3, 25, 104),
        (ProtocolKind::All, 0.0, 0, 105),
        (ProtocolKind::Single, 0.0, 0, 106),
    ];
    for (protocol, laziness, rounds, seed) in cases {
        let config = SimulationConfig {
            rounds,
            laziness,
            protocol,
            seed,
        };
        let payloads: Vec<u32> = (0..300).collect();
        let batched = run_protocol(&graph, payloads.clone(), config, |_| u32::MAX).unwrap();
        let reference = run_protocol_reference(&graph, payloads, config, |_| u32::MAX).unwrap();
        assert_eq!(
            curator_view(&batched),
            curator_view(&reference),
            "submission divergence: {protocol} laziness={laziness} rounds={rounds} seed={seed}"
        );
        assert_eq!(
            batched.metrics, reference.metrics,
            "metrics divergence: {protocol} laziness={laziness} rounds={rounds} seed={seed}"
        );
    }
}

/// The dummy-payload RNG threading is part of the parity contract too: the
/// randomizer wrapper must hand both paths the same dummy stream.
#[test]
fn protocol_parity_includes_dummy_consuming_closures() {
    let mut graph_rng = ns_graph::rng::seeded_rng(3);
    let graph = ns_graph::generators::random_regular(120, 4, &mut graph_rng).unwrap();
    let config = SimulationConfig::single(15, 77);
    let payloads: Vec<u32> = (0..120).collect();
    // A dummy closure that *draws from the simulation RNG*, so any
    // divergence in draw order between the paths becomes visible.
    let batched = run_protocol(&graph, payloads.clone(), config, |rng| rng.gen::<u32>()).unwrap();
    let reference =
        run_protocol_reference(&graph, payloads, config, |rng| rng.gen::<u32>()).unwrap();
    assert_eq!(curator_view(&batched), curator_view(&reference));
    assert_eq!(batched.metrics, reference.metrics);
}
