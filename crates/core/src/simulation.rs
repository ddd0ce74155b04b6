//! End-to-end, round-based simulation of network shuffling.
//!
//! This module ties the pieces together exactly as in Figure 3 of the paper:
//!
//! 1. the curator generates her envelope key pair;
//! 2. every user randomizes her value (the caller supplies the already
//!    randomized payloads, so any [`ns_dp::LocalRandomizer`] can be used),
//!    seals it for the curator and becomes the initial holder of her own
//!    report;
//! 3. for `t` rounds, every held report is relayed to a uniformly random
//!    neighbour (synchronous rounds: all sends of a round are collected
//!    before any delivery, so a report moves exactly once per round);
//! 4. at the final round every user uploads according to the chosen protocol
//!    (`A_all` or `A_single`), and the curator decrypts and aggregates.
//!
//! The exchange phase runs on the holder-order engine,
//! [`ns_graph::sharded_engine::ShardedMixingEngine`], under the 1-shard
//! partition ([`Partition::single_shard`]) — the same engine the sharded
//! coordinator steps, with shard 0's stream `SimRng::seed_from_u64(seed)`
//! as the protocol RNG.  The curator-sealed envelopes live in a flat arena
//! keyed by report id (= origin), the engine moves report ids between
//! holders with one counting-sort merge per round, and the Table 3 traffic
//! metrics stream out of the engine's
//! [`RoundObserver`](ns_graph::sharded_engine::RoundObserver) hook instead
//! of being collected per client afterwards.  The final round is one
//! routine shared with [`crate::service::ShuffleCoordinator::finalize`].
//! The historical per-client
//! message-passing loop — one [`Client`](crate::protocol::client::Client) object per user, with
//! per-hop end-to-end envelopes — is preserved verbatim in
//! [`mod@reference`]; it is the
//! semantic baseline the engine is tested against (same seed, identical
//! submissions and metrics) and the comparison subject for the engine
//! benchmarks.
//!
//! Holder-order rounds in the engine consume the RNG draw-for-draw like the
//! reference loop, so the two paths produce bit-identical outcomes for any
//! `(graph, seed, rounds, laziness, protocol)`.

use crate::crypto::Envelope;
use crate::error::{Error, Result};
use crate::metrics::{TrafficMetrics, TrafficRecorder};
use crate::protocol::client::{FinalizeChoice, FinalizePolicy, SealedSubmission};
use crate::protocol::ProtocolKind;
use crate::report::Report;
use crate::server::{CollectedReports, Curator};
use ns_graph::partition::Partition;
use ns_graph::rng::SimRng;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::walk::validate_laziness;
use ns_graph::Graph;
use rand_chacha::rand_core::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of communication rounds `t` before reporting to the curator.
    pub rounds: usize,
    /// Per-round probability that a report stays at its holder (lazy walk,
    /// Section 4.5); 0 for the plain protocol.
    pub laziness: f64,
    /// Which reporting protocol the users run.
    pub protocol: ProtocolKind,
    /// Seed for the simulation RNG (reports' walks and final-round choices).
    pub seed: u64,
}

impl SimulationConfig {
    /// A plain `A_all` run with the given number of rounds.
    pub fn all(rounds: usize, seed: u64) -> Self {
        SimulationConfig {
            rounds,
            laziness: 0.0,
            protocol: ProtocolKind::All,
            seed,
        }
    }

    /// A plain `A_single` run with the given number of rounds.
    pub fn single(rounds: usize, seed: u64) -> Self {
        SimulationConfig {
            rounds,
            laziness: 0.0,
            protocol: ProtocolKind::Single,
            seed,
        }
    }

    /// Validates the configuration (shared laziness-domain rule from the
    /// graph substrate).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if `laziness ∉ [0, 1)`.
    pub fn validate(&self) -> Result<()> {
        validate_laziness(self.laziness).map_err(Error::InvalidConfiguration)
    }
}

/// Result of one protocol run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome<P> {
    /// What the curator collected (decrypted submissions).
    pub collected: CollectedReports<P>,
    /// Traffic and memory measurements for the run.
    pub metrics: TrafficMetrics,
}

fn validate_run_inputs<P>(
    graph: &Graph,
    payloads: &[P],
    config: &SimulationConfig,
) -> Result<usize> {
    config.validate()?;
    let n = graph.node_count();
    if n == 0 {
        return Err(ns_graph::GraphError::EmptyGraph.into());
    }
    if let Some(u) = graph.find_isolated_node() {
        return Err(ns_graph::GraphError::IsolatedNode(u).into());
    }
    if payloads.len() != n {
        return Err(Error::InvalidConfiguration(format!(
            "expected {n} payloads (one per user), got {}",
            payloads.len()
        )));
    }
    Ok(n)
}

/// Runs one complete network-shuffling protocol execution on the batched
/// holder-order engine (the 1-shard `ShardedMixingEngine`).
///
/// `payloads[i]` is user `i`'s already locally-randomized report payload;
/// `make_dummy` produces a dummy payload for `A_single` users who end the
/// exchange phase empty-handed (it is ignored under `A_all`).
///
/// Report `i` is sealed for the curator once, stored in a flat arena at
/// index `i`, and only its *id* moves between holders during the exchange
/// phase.  The per-hop end-to-end envelopes of the wire protocol are not
/// materialized here — routing is correct by construction inside the engine;
/// the full two-layer envelope exchange (including misdelivery detection)
/// is exercised by [`reference::run_protocol_reference`] and the client
/// unit tests.
///
/// # Errors
///
/// * graph validation errors (empty graph, isolated node),
/// * [`Error::InvalidConfiguration`] if `payloads.len() != n` or the config
///   is invalid.
pub fn run_protocol<P: Clone>(
    graph: &Graph,
    payloads: Vec<P>,
    config: SimulationConfig,
    make_dummy: impl FnMut(&mut SimRng) -> P,
) -> Result<SimulationOutcome<P>> {
    run_protocol_inner(graph, payloads, config, None, make_dummy)
}

/// [`run_protocol`] under a realized outage schedule: round `t` of the
/// exchange phase runs with `outages.mask(t)` — a report whose chosen
/// recipient is unavailable stays put, and the failed delivery is not
/// counted as traffic.  With a fully-available schedule this reproduces
/// [`run_protocol`] bit for bit (same RNG stream, same submissions, same
/// metrics); see `tests/churn.rs`.
///
/// # Errors
///
/// Same as [`run_protocol`], plus [`Error::InvalidConfiguration`] if the
/// schedule's node count differs from the graph's.
pub fn run_protocol_under_outages<P: Clone>(
    graph: &Graph,
    payloads: Vec<P>,
    config: SimulationConfig,
    outages: &crate::faults::OutageSchedule,
    make_dummy: impl FnMut(&mut SimRng) -> P,
) -> Result<SimulationOutcome<P>> {
    if outages.node_count() != graph.node_count() {
        return Err(Error::InvalidConfiguration(format!(
            "outage schedule covers {} users but the graph has {}",
            outages.node_count(),
            graph.node_count()
        )));
    }
    run_protocol_inner(graph, payloads, config, Some(outages), make_dummy)
}

fn run_protocol_inner<P: Clone>(
    graph: &Graph,
    payloads: Vec<P>,
    config: SimulationConfig,
    outages: Option<&crate::faults::OutageSchedule>,
    make_dummy: impl FnMut(&mut SimRng) -> P,
) -> Result<SimulationOutcome<P>> {
    let n = validate_run_inputs(graph, &payloads, &config)?;

    // Key setup (Figure 3): the curator's envelope key pair.  Per-user
    // end-to-end keys only exist on the wire; the arena path has no
    // per-hop envelopes to seal with them.
    let curator = Curator::new();

    // Local randomization: report i sits at arena slot i, sealed once.
    let mut arena: Vec<Option<Envelope<Report<P>>>> = payloads
        .into_iter()
        .enumerate()
        .map(|(origin, payload)| {
            Some(Envelope::seal(
                curator.public_key(),
                Report::genuine(origin, payload),
            ))
        })
        .collect();

    // Exchange phase: holder-order rounds on the 1-shard engine, metrics
    // streamed.
    let partition = Partition::single_shard(graph)?;
    let mut engine = ShardedMixingEngine::one_walker_per_node(graph, &partition, config.seed)?;
    let mut recorder = TrafficRecorder::new(n);
    for t in 0..config.rounds {
        let mask = outages.map(|schedule| schedule.mask(t));
        engine.step(config.laziness, mask, &mut recorder)?;
    }

    let collected = collect_final_round(
        &mut engine,
        &mut arena,
        &curator,
        config.protocol,
        make_dummy,
    )?;
    let metrics = recorder.into_metrics(collected.report_count());
    Ok(SimulationOutcome { collected, metrics })
}

/// The final round (Figure 3, step 4), shared by [`run_protocol`] and
/// [`crate::service::ShuffleCoordinator::finalize`]: every user, in id
/// order, submits what she holds by the protocol's rule, drawing her
/// choice — and, under `A_single` with nothing held, her dummy payload —
/// from her shard's stream.  `arena[w]` holds walker `w`'s sealed report
/// and gives it up when submitted; submissions stream into the curator
/// without an intermediate buffer.
pub(crate) fn collect_final_round<P>(
    engine: &mut ShardedMixingEngine<'_>,
    arena: &mut [Option<Envelope<Report<P>>>],
    curator: &Curator,
    protocol: ProtocolKind,
    mut make_dummy: impl FnMut(&mut SimRng) -> P,
) -> Result<CollectedReports<P>> {
    let n = engine.graph().node_count();
    let partition = engine.partition();
    let policy: FinalizePolicy = protocol.into();
    let mut take = |report: u32| {
        arena[report as usize]
            .take()
            .expect("a report is submitted once")
    };
    curator.collect_from((0..n).map(|submitter| {
        let shard = partition.shard_of(submitter);
        let held = engine.held_by(submitter).len();
        let reports = match policy.choose(held, engine.shard_rng_mut(shard)) {
            FinalizeChoice::All => engine.held_by(submitter).iter().map(|&r| take(r)).collect(),
            FinalizeChoice::Dummy => {
                let dummy = Report::dummy(submitter, make_dummy(engine.shard_rng_mut(shard)));
                vec![Envelope::seal(curator.public_key(), dummy)]
            }
            FinalizeChoice::Pick(index) => vec![take(engine.held_by(submitter)[index])],
        };
        SealedSubmission { submitter, reports }
    }))
}

/// Convenience wrapper: runs the protocol with payloads produced by applying
/// a local randomizer to raw per-user values.
///
/// The randomizer is applied with an RNG derived from `config.seed`, so the
/// whole experiment remains reproducible from a single seed.
///
/// # Errors
///
/// Propagates randomizer and simulation errors, including, under `A_single`,
/// the randomizer's error for a `dummy_value` outside its domain (checked
/// before any round runs; `A_all` never draws a dummy).
pub fn run_protocol_with_randomizer<A, X>(
    graph: &Graph,
    values: &[X],
    randomizer: &A,
    config: SimulationConfig,
    dummy_value: &X,
) -> Result<SimulationOutcome<A::Output>>
where
    A: ns_dp::LocalRandomizer<Input = X>,
    A::Output: Clone,
{
    let n = graph.node_count();
    if values.len() != n {
        return Err(Error::InvalidConfiguration(format!(
            "expected {n} values (one per user), got {}",
            values.len()
        )));
    }
    let mut randomize_rng = SimRng::seed_from_u64(config.seed ^ 0x5eed_0f0a_1100_u64);
    let mut payloads = Vec::with_capacity(n);
    for value in values {
        payloads.push(randomizer.randomize(value, &mut randomize_rng)?);
    }
    // Dummy payloads are fresh randomizations of the dummy value, as in
    // Algorithm 2 line 10 (`A_ldp(0)`).  Only `A_single` draws them; it
    // randomizes the value once up front, on a copy of the dummy stream, so
    // a value outside the domain is refused before any round runs and the
    // stream the dummies draw from is untouched.
    let dummy_seed = config.seed ^ 0xd0_0d1e5_u64;
    let mut dummy_rng = SimRng::seed_from_u64(dummy_seed);
    if config.protocol == ProtocolKind::Single {
        randomizer.randomize(dummy_value, &mut dummy_rng.clone())?;
    }
    run_protocol(graph, payloads, config, move |_rng| {
        randomizer
            .randomize(dummy_value, &mut dummy_rng)
            .expect("the dummy value was randomized before the rounds")
    })
}

/// Estimates, by Monte-Carlo simulation, the expected number of users that
/// hold no report after `rounds` rounds — the number of dummy reports
/// `A_single` will inject (the paper reports 7,080 for the Twitch graph).
///
/// Trial `k` runs the 1-shard holder-order engine in [`DrawMode::Fast`],
/// seeded with `seed + k`, so results depend only on `seed`.
///
/// # Errors
///
/// [`Error::InvalidConfiguration`] if `trials == 0` or
/// `laziness ∉ [0, 1)`; engine construction errors for graphs the walk
/// cannot run on.
pub fn expected_empty_holders(
    graph: &Graph,
    rounds: usize,
    laziness: f64,
    trials: usize,
    seed: u64,
) -> Result<f64> {
    if trials == 0 {
        return Err(Error::InvalidConfiguration(
            "expected_empty_holders needs at least 1 trial, got 0".into(),
        ));
    }
    validate_laziness(laziness).map_err(Error::InvalidConfiguration)?;
    let partition = Partition::single_shard(graph)?;
    let mut total_empty = 0usize;
    for trial in 0..trials {
        let mut engine = ShardedMixingEngine::one_walker_per_node(
            graph,
            &partition,
            seed.wrapping_add(trial as u64),
        )?;
        engine.set_draw_mode(DrawMode::Fast);
        for _ in 0..rounds {
            engine.step(laziness, None, &mut ())?;
        }
        total_empty += engine.load_vector().iter().filter(|&&l| l == 0).count();
    }
    Ok(total_empty as f64 / trials as f64)
}

/// The historical per-client simulation, preserved as the semantic baseline.
///
/// One [`Client`](crate::protocol::client::Client) object per user, a fresh `in_flight` vector of doubly-
/// enveloped messages per round, and per-message routing — exactly the wire
/// protocol of Section 4.4, at the cost of an allocation-heavy hot loop.
/// The batched engine path in [`run_protocol`] is required (and tested) to
/// reproduce this loop's outcomes bit for bit; benchmarks measure its
/// speedup against this baseline.
pub mod reference {
    use super::*;
    use crate::crypto::{KeyPair, Pki};
    use crate::protocol::client::Client;

    /// Runs the protocol through the per-client message-passing loop.
    ///
    /// Same contract as [`run_protocol`]; kept for parity tests, benchmarks
    /// and as executable documentation of the wire protocol.
    ///
    /// # Errors
    ///
    /// Same as [`run_protocol`].
    pub fn run_protocol_reference<P: Clone>(
        graph: &Graph,
        payloads: Vec<P>,
        config: SimulationConfig,
        mut make_dummy: impl FnMut(&mut SimRng) -> P,
    ) -> Result<SimulationOutcome<P>> {
        let n = validate_run_inputs(graph, &payloads, &config)?;
        let mut rng = SimRng::seed_from_u64(config.seed);

        // Key setup (Figure 3): curator + one end-to-end key pair per user.
        let curator = Curator::new();
        let mut pki = Pki::new();
        pki.register_curator(curator.public_key());
        let user_keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate()).collect();
        for key in &user_keys {
            pki.register_user(key.public);
        }

        // Client construction and local randomization.
        let mut clients: Vec<Client<P>> = Vec::with_capacity(n);
        for (id, payload) in payloads.into_iter().enumerate() {
            let mut client = Client::new(
                id,
                user_keys[id],
                curator.public_key(),
                graph.neighbors(id).iter().map(|&v| v as usize).collect(),
            )?;
            client.submit_own_report(payload);
            clients.push(client);
        }

        // Synchronous relay rounds.
        let peer_key = |id: usize| user_keys[id].public;
        for _ in 0..config.rounds {
            let mut in_flight = Vec::with_capacity(n);
            for client in clients.iter_mut() {
                in_flight.extend(client.relay_round(peer_key, config.laziness, &mut rng));
            }
            for (destination, message) in in_flight {
                clients
                    .get_mut(destination)
                    .ok_or(Error::UnknownUser(destination))?
                    .receive(message)?;
            }
        }

        // Final round: submissions to the curator.
        let policy = config.protocol.into();
        let mut submissions = Vec::with_capacity(n);
        let mut messages_per_user = Vec::with_capacity(n);
        let mut peak_reports_per_user = Vec::with_capacity(n);
        for client in clients.iter_mut() {
            submissions.push(client.finalize(policy, &mut make_dummy, &mut rng));
            messages_per_user.push(client.messages_sent());
            peak_reports_per_user.push(client.peak_held());
        }

        let collected = curator.collect(submissions)?;
        let metrics = TrafficMetrics {
            user_count: n,
            rounds: config.rounds,
            messages_per_user,
            peak_reports_per_user,
            server_reports: collected.report_count(),
        };
        Ok(SimulationOutcome { collected, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryView;
    use ns_dp::mechanisms::RandomizedResponse;
    use ns_graph::generators;

    #[test]
    fn all_protocol_conserves_reports() {
        let g = generators::random_regular(60, 4, &mut ns_graph::rng::seeded_rng(1)).unwrap();
        let payloads: Vec<u32> = (0..60).collect();
        let outcome = run_protocol(&g, payloads, SimulationConfig::all(15, 7), |_| 999).unwrap();
        // Every genuine report reaches the curator exactly once.
        assert_eq!(outcome.collected.report_count(), 60);
        assert_eq!(outcome.collected.dummy_count(), 0);
        let mut origins: Vec<usize> = outcome
            .collected
            .reports_with_submitter()
            .map(|(_, r)| r.origin)
            .collect();
        origins.sort_unstable();
        assert_eq!(origins, (0..60).collect::<Vec<_>>());
        // Payload i was produced by user i in this setup.
        for (_, report) in outcome.collected.reports_with_submitter() {
            assert_eq!(report.payload as usize, report.origin);
        }
    }

    #[test]
    fn single_protocol_sends_exactly_one_report_per_user() {
        let g = generators::random_regular(50, 4, &mut ns_graph::rng::seeded_rng(2)).unwrap();
        let payloads: Vec<u32> = (0..50).collect();
        let outcome =
            run_protocol(&g, payloads, SimulationConfig::single(12, 3), |_| 12345).unwrap();
        assert_eq!(outcome.collected.report_count(), 50);
        assert_eq!(outcome.collected.submissions().len(), 50);
        for s in outcome.collected.submissions() {
            assert_eq!(s.len(), 1);
        }
        // There are both dummies (users who held nothing) and dropped
        // genuine reports (users who held several).
        let dummies = outcome.collected.dummy_count();
        assert!(dummies > 0, "expected some dummies after mixing");
        let genuine = outcome.collected.report_count() - dummies;
        assert!(genuine < 50);
        for (_, report) in outcome.collected.reports_with_submitter() {
            if report.is_dummy {
                assert_eq!(report.payload, 12345);
            }
        }
    }

    #[test]
    fn metrics_reflect_traffic_and_memory() {
        let g = generators::random_regular(40, 4, &mut ns_graph::rng::seeded_rng(3)).unwrap();
        let rounds = 10;
        let payloads: Vec<u32> = vec![0; 40];
        let outcome = run_protocol(&g, payloads, SimulationConfig::all(rounds, 5), |_| 0).unwrap();
        let m = &outcome.metrics;
        assert_eq!(m.user_count, 40);
        assert_eq!(m.rounds, rounds);
        // Report conservation: total messages = 40 reports * rounds moves.
        assert_eq!(m.total_messages(), 40 * rounds);
        assert!(m.max_peak_reports() >= 1);
        assert!(m.mean_peak_reports() >= 1.0);
        assert_eq!(m.server_reports, 40);
    }

    #[test]
    fn zero_rounds_means_no_anonymity() {
        // Without exchange rounds every user submits her own report, so the
        // adversary links every report to its origin.
        let g = generators::complete(10).unwrap();
        let payloads: Vec<u32> = (0..10).collect();
        let outcome = run_protocol(&g, payloads, SimulationConfig::all(0, 1), |_| 0).unwrap();
        let view = AdversaryView::from_submissions(outcome.collected.submissions());
        let stats = view.linkage_stats(&g);
        assert_eq!(stats.returned_to_origin, 10);
        assert!((stats.return_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_breaks_most_origin_links() {
        let g = generators::random_regular(100, 6, &mut ns_graph::rng::seeded_rng(4)).unwrap();
        let payloads: Vec<u32> = (0..100).collect();
        let outcome = run_protocol(&g, payloads, SimulationConfig::all(40, 11), |_| 0).unwrap();
        let view = AdversaryView::from_submissions(outcome.collected.submissions());
        let stats = view.linkage_stats(&g);
        // After mixing, the return rate should be near 1/n = 1%, certainly
        // far below 20%.
        assert!(
            stats.return_rate() < 0.2,
            "return rate = {}",
            stats.return_rate()
        );
    }

    #[test]
    fn configuration_and_input_validation() {
        let g = generators::complete(5).unwrap();
        let bad_config = SimulationConfig {
            laziness: 1.0,
            ..SimulationConfig::all(3, 0)
        };
        assert!(run_protocol(&g, vec![0u32; 5], bad_config, |_| 0).is_err());
        assert!(run_protocol(&g, vec![0u32; 4], SimulationConfig::all(3, 0), |_| 0).is_err());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(
            run_protocol(&isolated, vec![0u32; 3], SimulationConfig::all(3, 0), |_| 0).is_err()
        );
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(run_protocol(
            &empty,
            Vec::<u32>::new(),
            SimulationConfig::all(3, 0),
            |_| 0
        )
        .is_err());
        // The reference loop enforces the same contract.
        assert!(reference::run_protocol_reference(&g, vec![0u32; 5], bad_config, |_| 0).is_err());
        assert!(reference::run_protocol_reference(
            &empty,
            Vec::<u32>::new(),
            SimulationConfig::all(3, 0),
            |_| 0
        )
        .is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::random_regular(30, 4, &mut ns_graph::rng::seeded_rng(5)).unwrap();
        let run = |seed| {
            let payloads: Vec<u32> = (0..30).collect();
            let outcome =
                run_protocol(&g, payloads, SimulationConfig::all(8, seed), |_| 0).unwrap();
            outcome
                .collected
                .reports_with_submitter()
                .map(|(s, r)| (s, r.origin))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn randomizer_wrapper_applies_ldp_before_shuffling() {
        let g = generators::random_regular(40, 4, &mut ns_graph::rng::seeded_rng(6)).unwrap();
        let rr = RandomizedResponse::new(3, 2.0).unwrap();
        let values: Vec<usize> = (0..40).map(|i| i % 3).collect();
        let outcome = run_protocol_with_randomizer(
            &g,
            &values,
            &rr,
            SimulationConfig::single(10, 9),
            &0usize,
        )
        .unwrap();
        assert_eq!(outcome.collected.report_count(), 40);
        for payload in outcome.collected.all_payloads() {
            assert!(*payload < 3);
        }
        // Mismatched value count is rejected.
        assert!(run_protocol_with_randomizer(
            &g,
            &values[..10],
            &rr,
            SimulationConfig::single(10, 9),
            &0usize,
        )
        .is_err());
        // Some user ends empty-handed and draws a dummy, so a dummy value
        // outside the domain is an error, not a panic; `A_all` never draws
        // a dummy and accepts any value.
        assert!(outcome.collected.dummy_count() > 0);
        let single = SimulationConfig::single(10, 9);
        let refused = run_protocol_with_randomizer(&g, &values, &rr, single, &7usize);
        assert!(matches!(refused, Err(Error::Dp(_))), "{refused:?}");
        let all = SimulationConfig::all(10, 9);
        assert!(run_protocol_with_randomizer(&g, &values, &rr, all, &7usize).is_ok());
    }

    #[test]
    fn expected_empty_holders_matches_occupancy_heuristic() {
        // After good mixing on a regular graph, the load is approximately a
        // balls-into-bins allocation, so the empty fraction is ≈ (1-1/n)^n
        // ≈ e^{-1} ≈ 0.368.
        let g = generators::random_regular(200, 6, &mut ns_graph::rng::seeded_rng(7)).unwrap();
        let empty = expected_empty_holders(&g, 60, 0.0, 5, 123).unwrap();
        let fraction = empty / 200.0;
        assert!(
            (fraction - 0.368).abs() < 0.08,
            "empty fraction = {fraction}"
        );
    }

    #[test]
    fn expected_empty_holders_rejects_zero_trials_and_bad_laziness() {
        let g = generators::random_regular(20, 4, &mut ns_graph::rng::seeded_rng(9)).unwrap();
        for (trials, laziness) in [(0, 0.0), (3, 1.0)] {
            assert!(matches!(
                expected_empty_holders(&g, 5, laziness, trials, 1),
                Err(Error::InvalidConfiguration(_))
            ));
        }
    }

    #[test]
    fn expected_empty_holders_depends_only_on_the_seed() {
        let g = generators::random_regular(120, 4, &mut ns_graph::rng::seeded_rng(10)).unwrap();
        let run = || expected_empty_holders(&g, 15, 0.2, 3, 77).unwrap();
        assert_eq!(run().to_bits(), run().to_bits());
    }

    /// The engine path must reproduce the reference loop bit for bit; the
    /// exhaustive version (more sizes, both protocols, metrics) lives in
    /// `tests/engine_parity.rs`.
    #[test]
    fn engine_path_matches_reference_loop() {
        let g = generators::random_regular(48, 4, &mut ns_graph::rng::seeded_rng(8)).unwrap();
        for config in [
            SimulationConfig::all(12, 21),
            SimulationConfig::single(12, 21),
        ] {
            let payloads: Vec<u32> = (0..48).collect();
            let engine = run_protocol(&g, payloads.clone(), config, |_| 7).unwrap();
            let reference = reference::run_protocol_reference(&g, payloads, config, |_| 7).unwrap();
            let view = |o: &SimulationOutcome<u32>| {
                o.collected
                    .reports_with_submitter()
                    .map(|(s, r)| (s, r.origin, r.is_dummy, r.payload))
                    .collect::<Vec<_>>()
            };
            assert_eq!(view(&engine), view(&reference));
            assert_eq!(engine.metrics, reference.metrics);
        }
    }
}
