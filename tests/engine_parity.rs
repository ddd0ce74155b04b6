//! Parity tests for the batched mixing engine.
//!
//! The refactor's contract: the struct-of-arrays engine must be a drop-in
//! replacement for the historical per-object round loops — same seed, same
//! trajectories, same submissions, same metrics.

use network_shuffle::prelude::*;
use network_shuffle::simulation::reference::run_protocol_reference;
use network_shuffle::simulation::SimulationOutcome;
use ns_graph::mixing_engine::MixingEngine;
use ns_graph::walk::WalkConfig;
use ns_graph::NodeId;
use rand::Rng;

/// The pre-refactor walk step, kept verbatim as the old behaviour.
fn legacy_walk_step<R: Rng + ?Sized>(
    graph: &ns_graph::Graph,
    positions: &mut [NodeId],
    laziness: f64,
    rng: &mut R,
) {
    for pos in positions.iter_mut() {
        if laziness > 0.0 && rng.gen::<f64>() < laziness {
            continue;
        }
        let nbrs = graph.neighbors(*pos);
        *pos = nbrs[rng.gen_range(0..nbrs.len())] as NodeId;
    }
}

/// Walk layer: the engine's walker-order rounds reproduce the pre-refactor
/// walk trajectories draw for draw.
#[test]
fn walk_engine_positions_match_legacy_loop() {
    let mut graph_rng = ns_graph::rng::seeded_rng(1);
    let graph = ns_graph::generators::random_regular(800, 6, &mut graph_rng).unwrap();
    for (seed, laziness, rounds) in [(7u64, 0.0, 40), (8, 0.25, 40), (9, 0.7, 15)] {
        let mut engine = MixingEngine::one_walker_per_node(&graph).unwrap();
        let mut engine_rng = ns_graph::rng::seeded_rng(seed);
        engine
            .run(WalkConfig::lazy(rounds, laziness), &mut engine_rng)
            .unwrap();

        let mut legacy: Vec<NodeId> = graph.nodes().collect();
        let mut legacy_rng = ns_graph::rng::seeded_rng(seed);
        for _ in 0..rounds {
            legacy_walk_step(&graph, &mut legacy, laziness, &mut legacy_rng);
        }
        let widened: Vec<NodeId> = engine.positions().iter().map(|&p| p as NodeId).collect();
        assert_eq!(
            widened.as_slice(),
            legacy.as_slice(),
            "divergence at seed={seed} laziness={laziness}"
        );
    }
}

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
