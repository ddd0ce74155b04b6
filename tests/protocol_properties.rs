//! Property-based tests of the protocol and walk invariants.
//!
//! Random graphs are drawn through the shared strategy module
//! (`tests/common`): degree-bounded regular graphs for the protocol
//! properties, connected G(n, p) components for the transition-matrix
//! invariants.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::generators::random_regular;
use ns_graph::transition::TransitionMatrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `A_all` conserves reports: every origin appears exactly once at the
    /// curator, regardless of graph, rounds, laziness or seed.
    #[test]
    fn a_all_conserves_reports(
        graph in strategies::degree_bounded(10..120, 3..8),
        rounds in 0usize..25,
        laziness in 0.0f64..0.9,
        seed in 0u64..1_000,
    ) {
        let n = graph.node_count();
        let payloads: Vec<u32> = (0..n as u32).collect();
        let config = SimulationConfig { rounds, laziness, protocol: ProtocolKind::All, seed };
        let outcome = run_protocol(&graph, payloads, config, |_| u32::MAX).unwrap();
        prop_assert_eq!(outcome.collected.report_count(), n);
        prop_assert_eq!(outcome.collected.dummy_count(), 0);
        let mut origins: Vec<usize> =
            outcome.collected.reports_with_submitter().map(|(_, r)| r.origin).collect();
        origins.sort_unstable();
        prop_assert_eq!(origins, (0..n).collect::<Vec<_>>());
        // Load vector sums to n and matches the submissions.
        let load = outcome.collected.load_vector(n);
        prop_assert_eq!(load.iter().sum::<usize>(), n);
    }

    /// `A_single` sends exactly one report per user; genuine + dummy = n and
    /// no genuine origin is duplicated.
    #[test]
    fn a_single_sends_exactly_one_report_each(
        graph in strategies::degree_bounded(10..120, 3..8),
        rounds in 1usize..25,
        seed in 0u64..1_000,
    ) {
        let n = graph.node_count();
        let payloads: Vec<u32> = (0..n as u32).collect();
        let outcome =
            run_protocol(&graph, payloads, SimulationConfig::single(rounds, seed), |_| 0).unwrap();
        prop_assert_eq!(outcome.collected.report_count(), n);
        for submission in outcome.collected.submissions() {
            prop_assert_eq!(submission.len(), 1);
        }
        let genuine: Vec<usize> = outcome
            .collected
            .reports_with_submitter()
            .filter(|(_, r)| !r.is_dummy)
            .map(|(_, r)| r.origin)
            .collect();
        let mut dedup = genuine.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), genuine.len(), "a genuine report was duplicated");
        prop_assert_eq!(genuine.len() + outcome.collected.dummy_count(), n);
    }

    /// Traffic accounting: under `A_all` with no laziness, total relay
    /// messages equal reports × rounds, and the server stores exactly n
    /// reports.
    #[test]
    fn traffic_metrics_match_conservation_laws(
        graph in strategies::degree_bounded(10..100, 3..6),
        rounds in 0usize..20,
        seed in 0u64..500,
    ) {
        let n = graph.node_count();
        let outcome = run_protocol(
            &graph,
            vec![0u8; n],
            SimulationConfig::all(rounds, seed),
            |_| 0,
        )
        .unwrap();
        prop_assert_eq!(outcome.metrics.total_messages(), n * rounds);
        prop_assert_eq!(outcome.metrics.server_reports, n);
        prop_assert!(outcome.metrics.max_peak_reports() >= 1);
    }

    /// The transition matrix conserves probability mass and keeps every
    /// entry non-negative, for arbitrary connected graphs and laziness: one
    /// origin's distribution, stepped as a 1-row ensemble.
    #[test]
    fn transition_preserves_probability(
        graph in strategies::connected_gnp(5..200, 0.05..0.5),
        laziness in 0.0f64..0.95,
        origin_choice in 0usize..10_000,
    ) {
        prop_assume!(graph.node_count() >= 2);
        let transition = TransitionMatrix::with_laziness(&graph, laziness).unwrap();
        let origin = origin_choice % graph.node_count();
        let mut dist = DistributionEnsemble::point_masses(graph.node_count(), &[origin]).unwrap();
        for _ in 0..10 {
            dist.advance(&transition, 1);
            let row = dist.row_groups(&[0, 1]).concat();
            let total: f64 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(row.iter().all(|&x| x >= -1e-15));
            let sum_of_squares = dist.row_stats(0).sum_of_squares;
            prop_assert!(sum_of_squares <= 1.0 + 1e-9);
            prop_assert!(sum_of_squares >= 1.0 / graph.node_count() as f64 - 1e-9);
        }
    }

    /// Determinism: identical seeds produce identical curator views.
    #[test]
    fn simulation_is_deterministic(
        graph in strategies::degree_bounded(10..80, 3..6),
        rounds in 1usize..15,
        seed in 0u64..300,
    ) {
        let n = graph.node_count();
        let run = || {
            let outcome = run_protocol(
                &graph,
                (0..n as u32).collect(),
                SimulationConfig::single(rounds, seed),
                |_| 7,
            )
            .unwrap();
            outcome
                .collected
                .reports_with_submitter()
                .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Non-proptest regression: an adversary observing a zero-round run links
/// everything; a well-mixed run links almost nothing.  (Kept outside the
/// proptest block because it needs a specific, larger configuration.)
#[test]
fn anonymity_improves_with_rounds() {
    let graph = random_regular(300, 8, &mut ns_graph::rng::seeded_rng(5)).unwrap();
    let before = run_protocol(&graph, vec![0u8; 300], SimulationConfig::all(0, 1), |_| 0).unwrap();
    let after = run_protocol(&graph, vec![0u8; 300], SimulationConfig::all(60, 1), |_| 0).unwrap();
    let rate = |outcome: &SimulationOutcome<u8>| {
        AdversaryView::from_submissions(outcome.collected.submissions())
            .linkage_stats(&graph)
            .return_rate()
    };
    assert_eq!(rate(&before), 1.0);
    assert!(
        rate(&after) < 0.05,
        "return rate after mixing = {}",
        rate(&after)
    );
}
