//! Integration tests for the churn runtime: static-schedule degeneracy,
//! mass conservation under time-varying schedules, and the
//! dropout-vs-laziness parity the paper asserts.
//!
//! Acceptance contract of the time-varying refactor:
//!
//! * a [`TimeVaryingModel`] with a constant schedule reproduces the static
//!   [`TransitionMatrix`] ensemble results **bitwise**;
//! * the engine's masked rounds with a fully-available mask are **bitwise**
//!   the static rounds (RNG stream included), so the churn protocol path
//!   degenerates to the classic one exactly;
//! * i.i.d. dropout simulated through the engine matches the equivalent
//!   lazy walk's moment trajectory within sampling tolerance — the
//!   laziness-equivalence that justifies `DropoutModel::as_laziness`.

mod common;

use common::strategies;
use network_shuffle::prelude::*;
use ns_graph::distribution::PositionDistribution;
use ns_graph::dynamic::{DynTransition, TimeVaryingModel};
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::mixing_engine::MixingEngine;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use proptest::prelude::*;
use std::sync::Arc;

/// Constant schedules degenerate to the static matrix bitwise.
#[test]
fn constant_schedule_is_bitwise_static() {
    let g = ns_graph::generators::barabasi_albert(300, 3, &mut seeded_rng(1)).unwrap();
    let matrix = TransitionMatrix::with_laziness(&g, 0.2).unwrap();
    let schedule = TimeVaryingModel::constant(Arc::new(matrix.clone())).unwrap();
    let origins: Vec<usize> = (0..300).step_by(2).collect();
    let rounds = 12;

    let mut static_ensemble = DistributionEnsemble::point_masses(300, &origins).unwrap();
    let static_trajectory = static_ensemble.advance_tracked(&matrix, rounds);
    let mut scheduled = DistributionEnsemble::point_masses(300, &origins).unwrap();
    let scheduled_trajectory = scheduled.advance_tracked(&schedule, rounds);
    assert_eq!(static_ensemble, scheduled);
    assert_eq!(static_trajectory, scheduled_trajectory);
}

/// The masked engine path with everyone available reproduces the classic
/// protocol run bit for bit — submissions, origins, dummies and traffic
/// metrics — including with intrinsic laziness (the "schedule degenerates
/// to static" case of the dropout parity).
#[test]
fn fully_available_outages_reproduce_the_classic_protocol_bitwise() {
    let g = ns_graph::generators::random_regular(80, 5, &mut seeded_rng(2)).unwrap();
    let schedule = OutageSchedule::fully_available(80, 14).unwrap();
    for (protocol, laziness) in [
        (ProtocolKind::All, 0.0),
        (ProtocolKind::All, 0.3),
        (ProtocolKind::Single, 0.0),
        (ProtocolKind::Single, 0.3),
    ] {
        let config = SimulationConfig {
            rounds: 14,
            laziness,
            protocol,
            seed: 99,
        };
        let payloads: Vec<u32> = (0..80).collect();
        let classic = run_protocol(&g, payloads.clone(), config, |_| 7).unwrap();
        let churn = run_protocol_under_outages(&g, payloads, config, &schedule, |_| 7).unwrap();
        let view = |o: &SimulationOutcome<u32>| {
            o.collected
                .reports_with_submitter()
                .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
                .collect::<Vec<_>>()
        };
        assert_eq!(view(&classic), view(&churn));
        assert_eq!(classic.metrics, churn.metrics);
    }
}

/// Statistical parity for `DropoutModel`: a report walked through the
/// engine under realized i.i.d. dropout masks has the same per-round moment
/// trajectory as the equivalent lazy walk, within Monte-Carlo tolerance.
#[test]
fn iid_dropout_through_the_engine_matches_the_lazy_walk_moments() {
    let n = 100;
    let g = ns_graph::generators::random_regular(n, 6, &mut seeded_rng(3)).unwrap();
    let dropout = DropoutModel::new(0.35).unwrap();
    let rounds = 6;
    let origin = 17;
    let trials = 3_000;

    // Empirical per-round distribution of one report's position across
    // trials, each trial with fresh i.i.d. availability masks and no
    // intrinsic laziness (all staying comes from failed deliveries).
    let outage = dropout.outage_model();
    let mut counts = vec![vec![0u32; n]; rounds];
    for trial in 0..trials {
        let schedule = outage
            .sample_schedule(n, rounds, 1_000 + trial as u64)
            .unwrap();
        let mut engine = MixingEngine::with_starts(&g, vec![origin]).unwrap();
        let mut rng = seeded_rng(500_000 + trial as u64);
        for (t, round_counts) in counts.iter_mut().enumerate() {
            engine.step_masked(0.0, schedule.mask(t), &mut rng).unwrap();
            round_counts[engine.position(0)] += 1;
        }
    }

    // Exact trajectory of the equivalent lazy walk.
    let lazy = TransitionMatrix::with_laziness(&g, dropout.as_laziness()).unwrap();
    let mut exact = PositionDistribution::point_mass(n, origin).unwrap();
    for (t, round_counts) in counts.iter().enumerate() {
        exact.step(&lazy);
        let empirical: Vec<f64> = round_counts
            .iter()
            .map(|&c| c as f64 / trials as f64)
            .collect();
        // Total-variation distance of the realized distribution (the
        // un-halved L1 of Definition 4.4)…
        let tv = exact.tv_distance(&empirical);
        assert!(tv < 0.25, "round {}: TV distance {tv}", t + 1);
        // …and the accounting moment itself.
        let empirical_sum_sq: f64 = empirical.iter().map(|p| p * p).sum();
        let exact_sum_sq = exact.sum_of_squares();
        assert!(
            (empirical_sum_sq - exact_sum_sq).abs() / exact_sum_sq < 0.2,
            "round {}: empirical sum of squares {empirical_sum_sq} vs exact {exact_sum_sq}",
            t + 1
        );
    }
    // And the exact accountant agrees: the masked-operator expectation
    // argument means the i.i.d. schedule's *average* operator is the lazy
    // walk, so after several rounds the lazy trajectory must have left the
    // point mass far behind (sanity that the walk actually mixed here).
    assert!(exact.sum_of_squares() < 0.15);
}

/// The laziness equivalence is an expectation over masks, and the exact
/// operator algebra shows it directly: averaging `MaskedTransition` over
/// many i.i.d. masks converges to the lazy matrix row by row.
#[test]
fn averaged_masked_operators_converge_to_the_lazy_matrix() {
    let n = 60;
    let g = ns_graph::generators::random_regular(n, 4, &mut seeded_rng(4)).unwrap();
    let q = 0.3;
    let lazy = TransitionMatrix::with_laziness(&g, q).unwrap();
    let trials = 2_000;
    let mut rng = seeded_rng(5);
    use rand::Rng;
    let p: Vec<f64> = {
        // A fixed non-degenerate input distribution.
        let mut v = vec![0.0; n];
        v[0] = 0.5;
        v[n / 2] = 0.25;
        v[n - 1] = 0.25;
        v
    };
    let mut mean = vec![0.0f64; n];
    let mut out = vec![0.0f64; n];
    for _ in 0..trials {
        let mask: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= q).collect();
        let masked = ns_graph::dynamic::MaskedTransition::new(&g, mask, 0.0).unwrap();
        ns_graph::transition::TransitionModel::propagate_into(&masked, &p, &mut out);
        for (m, &o) in mean.iter_mut().zip(out.iter()) {
            *m += o;
        }
    }
    for m in mean.iter_mut() {
        *m /= trials as f64;
    }
    let expected = lazy.propagate(&p);
    let l1: f64 = mean
        .iter()
        .zip(expected.iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(l1 < 0.05, "operator expectation L1 gap {l1}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scheduled ensembles conserve mass under *genuinely time-varying*
    /// schedules: distinct per-round masked operators on graphs from every
    /// strategy family.
    #[test]
    fn scheduled_ensembles_conserve_mass(
        graph in strategies::graph_zoo(40..160),
        rounds in 1usize..10,
        dark_stride in 2usize..6,
        laziness_pct in 0usize..50,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 8);
        prop_assume!(graph.find_isolated_node().is_none());
        let laziness = laziness_pct as f64 / 100.0;
        // A schedule of distinct masks: round t blacks out every
        // (dark_stride + t)-th node.
        let masks: Vec<Vec<bool>> = (0..rounds)
            .map(|t| {
                (0..n)
                    .map(|u| u % (dark_stride + t) != 0)
                    .collect()
            })
            .collect();
        let model = TimeVaryingModel::from_availability(&graph, laziness, &masks).unwrap();
        let origins: Vec<usize> = (0..n).step_by(3).collect();
        let mut ensemble = DistributionEnsemble::point_masses(n, &origins).unwrap();
        ensemble.advance(&model, rounds);
        // Mass stays conserved through the whole scheduled product.
        for row in 0..ensemble.sources() {
            let sum: f64 = ensemble.row(row).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}

/// End-to-end: an accountant with an attached cycled day/night schedule
/// quotes a worse (or equal) exact guarantee than the static walk at the
/// same budget, and the scheduled run stays deterministic.
#[test]
fn scheduled_accounting_is_deterministic_and_dominated_by_outages() {
    let g = ns_graph::generators::random_regular(150, 4, &mut seeded_rng(6)).unwrap();
    let accountant = NetworkShuffleAccountant::new(&g).unwrap();
    let mut night = vec![true; 150];
    for slot in night.iter_mut().take(50) {
        *slot = false;
    }
    let day_op = ns_graph::dynamic::MaskedTransition::new(&g, vec![true; 150], 0.0).unwrap();
    let night_op = ns_graph::dynamic::MaskedTransition::new(&g, night, 0.0).unwrap();
    let schedule = TimeVaryingModel::cycling(vec![
        Arc::new(day_op) as DynTransition,
        Arc::new(night_op) as DynTransition,
    ])
    .unwrap();
    let churned = accountant.clone().with_schedule(schedule).unwrap();
    let params = AccountantParams::with_defaults(150, 1.0).unwrap();
    let rounds = 10;
    let static_eps = accountant
        .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)
        .unwrap()
        .epsilon;
    let churn_eps = churned
        .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)
        .unwrap()
        .epsilon;
    assert!(churn_eps >= static_eps);
    // Determinism of the scheduled exact sweep.
    let sweep_a = churned
        .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Exact, &params, rounds)
        .unwrap();
    let sweep_b = churned
        .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Exact, &params, rounds)
        .unwrap();
    assert_eq!(sweep_a, sweep_b);
    assert_eq!(sweep_a.last().unwrap().1, churn_eps);
}
