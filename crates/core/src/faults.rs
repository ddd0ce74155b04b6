//! Fault tolerance: dropout models, realized outage schedules and their
//! relation to lazy random walks (Section 4.5).
//!
//! In practice some users are temporarily unavailable (battery, network
//! outage) and cannot *receive* a report in a given round; a report whose
//! chosen recipient is unavailable stays put.  The paper collapses all of
//! this to a single lazy-walk constant.  This module keeps both views:
//!
//! * [`DropoutModel`] — the paper's reduction: i.i.d. per-round dropout with
//!   probability `q` is *exactly* the lazy walk with laziness `q` (see the
//!   equivalence notes below), so the whole static accounting stack applies
//!   unchanged.
//! * [`OutageModel`] / [`OutageSchedule`] — the churn runtime: a generator
//!   of *realized* per-round availability masks covering three outage
//!   classes, which drive the engine's masked rounds
//!   ([`ns_graph::sharded_engine::ShardedMixingEngine::step`]) and,
//!   through [`OutageSchedule::time_varying_model`], the exact per-user
//!   accounting on the realized schedule
//!   ([`crate::accountant::NetworkShuffleAccountant::with_schedule`]).
//!
//! # The three churn models
//!
//! | model | availability process | laziness-equivalent? |
//! |-------|----------------------|----------------------|
//! | [`OutageModel::Iid`] | every user, every round: down w.p. `q`, independently | **exact**: the marginal one-round transition of each report is the lazy walk with `λ = q`, so per-user moments and guarantees coincide |
//! | [`OutageModel::MarkovOnOff`] | per-user two-state chain: up→down w.p. `fail`, down→up w.p. `recover` (started at stationarity) | **not exact**: single-round marginals match `λ = fail/(fail+recover)`, but outages persist across rounds — a report parked next to a down neighbour tends to stay parked — so bursty churn mixes *slower* than its average suggests |
//! | [`OutageModel::RegionBlackout`] | a fixed node set is dark during a round window | **not exact**: deterministic and adversarial; probability mass piles up at the blackout boundary and no laziness constant reproduces the realized trajectory |
//!
//! When the equivalence is not exact, the honest route is to account on the
//! realized schedule: build the masks, lift them into a
//! [`TimeVaryingModel`], and let the exact ensemble route evolve every
//! origin through the actual product of per-round operators.

use crate::accountant::{AccountantParams, NetworkShuffleAccountant, Scenario};
use crate::error::{Error, Result};
use crate::protocol::ProtocolKind;
use crate::simulation::{run_protocol, SimulationConfig, SimulationOutcome};
use ns_dp::types::PrivacyGuarantee;
use ns_graph::dynamic::TimeVaryingModel;
use ns_graph::rng::SimRng;
use ns_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A simple independent-dropout model: in every round, each user is
/// unavailable with probability `dropout_probability`, independently of
/// everything else.  A report whose chosen recipient is unavailable stays
/// put, which is exactly a lazy walk with laziness equal to the dropout
/// probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropoutModel {
    /// Per-round, per-user unavailability probability.
    pub dropout_probability: f64,
}

impl DropoutModel {
    /// Creates a dropout model.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the probability is outside `[0, 1)`.
    pub fn new(dropout_probability: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&dropout_probability) {
            return Err(Error::InvalidConfiguration(format!(
                "dropout probability must be in [0, 1), got {dropout_probability}"
            )));
        }
        Ok(DropoutModel {
            dropout_probability,
        })
    }

    /// The equivalent lazy-walk stay probability.
    ///
    /// This equivalence is *exact* for the i.i.d. model (and only for it):
    /// each round, a report's chosen recipient is unavailable with
    /// probability `q` independently of the choice, so the report's marginal
    /// transition kernel is precisely the lazy walk with `λ = q`.  Distinct
    /// reports are correlated through the shared masks (two reports aiming
    /// at the same dark node both stay), but the per-user accounting
    /// consumes only marginal position distributions, so the guarantees
    /// coincide.  For correlated or scheduled outages see [`OutageModel`] —
    /// there the equivalence breaks and only the realized schedule is
    /// faithful.
    pub fn as_laziness(&self) -> f64 {
        self.dropout_probability
    }

    /// The realized-schedule generator of the same i.i.d. process, for
    /// driving the engine's masked rounds or cross-checking the laziness
    /// reduction (see `tests/churn.rs`).
    pub fn outage_model(&self) -> OutageModel {
        OutageModel::Iid {
            dropout_probability: self.dropout_probability,
        }
    }

    /// Builds a privacy accountant for the lazy walk induced by this model.
    ///
    /// # Errors
    ///
    /// Graph validation errors.
    pub fn accountant(&self, graph: &Graph) -> Result<NetworkShuffleAccountant> {
        NetworkShuffleAccountant::with_laziness(graph, self.as_laziness())
    }

    /// Central guarantee under dropouts, at the (dropout-adjusted) mixing
    /// time.  Dropouts slow mixing, so for a fixed round budget the
    /// guarantee degrades; running to the adjusted mixing time recovers it.
    ///
    /// # Errors
    ///
    /// Accountant construction or parameter validation errors.
    pub fn central_guarantee_at_mixing_time(
        &self,
        graph: &Graph,
        protocol: ProtocolKind,
        params: &AccountantParams,
    ) -> Result<PrivacyGuarantee> {
        self.accountant(graph)?.central_guarantee_at_mixing_time(
            protocol,
            Scenario::Stationary,
            params,
        )
    }

    /// Runs the protocol simulation under this dropout model.
    ///
    /// # Errors
    ///
    /// Simulation errors.
    pub fn run_protocol<P: Clone>(
        &self,
        graph: &Graph,
        payloads: Vec<P>,
        rounds: usize,
        protocol: ProtocolKind,
        seed: u64,
        make_dummy: impl FnMut(&mut ns_graph::rng::SimRng) -> P,
    ) -> Result<SimulationOutcome<P>> {
        let config = SimulationConfig {
            rounds,
            laziness: self.as_laziness(),
            protocol,
            seed,
        };
        run_protocol(graph, payloads, config, make_dummy)
    }
}

/// A generator of per-round availability masks: which users are reachable in
/// each exchange round.  See the [module docs](self) for the three models
/// and their relation to laziness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutageModel {
    /// Independent dropout: every user is down in every round with the same
    /// probability, independently across users and rounds.
    Iid {
        /// Per-round, per-user unavailability probability, in `[0, 1)`.
        dropout_probability: f64,
    },
    /// Bursty churn: each user runs an independent two-state Markov chain,
    /// failing with probability `fail` per up-round and recovering with
    /// probability `recover` per down-round.  Chains start from their
    /// stationary distribution, so every round's *marginal* unavailability
    /// is `fail / (fail + recover)` — but outages persist across rounds.
    MarkovOnOff {
        /// Up → down transition probability, in `[0, 1)`.
        fail: f64,
        /// Down → up transition probability, in `(0, 1]`.
        recover: f64,
    },
    /// Adversarial regional outage: the listed nodes are dark for every
    /// round `t` with `from_round <= t < until_round`, deterministically.
    RegionBlackout {
        /// The nodes that go dark.
        region: Vec<NodeId>,
        /// First dark round (0-based, inclusive).
        from_round: usize,
        /// First round the region is back up (exclusive).
        until_round: usize,
    },
}

impl OutageModel {
    /// Validates the model's parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] on out-of-range probabilities or an
    /// empty/inverted blackout window.
    pub fn validate(&self) -> Result<()> {
        match self {
            OutageModel::Iid {
                dropout_probability,
            } => {
                if !(0.0..1.0).contains(dropout_probability) {
                    return Err(Error::InvalidConfiguration(format!(
                        "dropout probability must be in [0, 1), got {dropout_probability}"
                    )));
                }
            }
            OutageModel::MarkovOnOff { fail, recover } => {
                if !(0.0..1.0).contains(fail) {
                    return Err(Error::InvalidConfiguration(format!(
                        "fail probability must be in [0, 1), got {fail}"
                    )));
                }
                if !(*recover > 0.0 && *recover <= 1.0) {
                    return Err(Error::InvalidConfiguration(format!(
                        "recover probability must be in (0, 1], got {recover}"
                    )));
                }
            }
            OutageModel::RegionBlackout {
                from_round,
                until_round,
                ..
            } => {
                if from_round >= until_round {
                    return Err(Error::InvalidConfiguration(format!(
                        "blackout window [{from_round}, {until_round}) is empty"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The long-run average unavailability of one user — the laziness a
    /// static analysis would plug in.  Exact only for [`OutageModel::Iid`]
    /// (see the module docs); for the other models it is the honest scalar
    /// summary whose inadequacy the churn experiments quantify.
    ///
    /// For [`OutageModel::RegionBlackout`] the average is over `rounds`
    /// rounds of a protocol run (`region_fraction × window_overlap`).
    pub fn mean_unavailability(&self, n: usize, rounds: usize) -> f64 {
        match self {
            OutageModel::Iid {
                dropout_probability,
            } => *dropout_probability,
            OutageModel::MarkovOnOff { fail, recover } => fail / (fail + recover),
            OutageModel::RegionBlackout {
                region,
                from_round,
                until_round,
            } => {
                if n == 0 || rounds == 0 {
                    return 0.0;
                }
                let dark_rounds = (*until_round).min(rounds).saturating_sub(*from_round);
                (region.len() as f64 / n as f64) * (dark_rounds as f64 / rounds as f64)
            }
        }
    }

    /// Samples the realized availability masks for `n` users over `rounds`
    /// rounds.  Deterministic in `seed` (the blackout model ignores it).
    ///
    /// # Errors
    ///
    /// Parameter validation errors, plus
    /// [`Error::InvalidConfiguration`] if a blackout region node is `>= n`
    /// or `rounds == 0`.
    pub fn sample_schedule(&self, n: usize, rounds: usize, seed: u64) -> Result<OutageSchedule> {
        self.validate()?;
        if n == 0 || rounds == 0 {
            return Err(Error::InvalidConfiguration(
                "an outage schedule needs at least one user and one round".into(),
            ));
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let masks = match self {
            OutageModel::Iid {
                dropout_probability,
            } => (0..rounds)
                .map(|_| {
                    (0..n)
                        .map(|_| rng.gen::<f64>() >= *dropout_probability)
                        .collect()
                })
                .collect(),
            OutageModel::MarkovOnOff { fail, recover } => {
                let stationary_down = fail / (fail + recover);
                let mut up: Vec<bool> = (0..n)
                    .map(|_| rng.gen::<f64>() >= stationary_down)
                    .collect();
                let mut masks = Vec::with_capacity(rounds);
                for _ in 0..rounds {
                    for state in up.iter_mut() {
                        let flip = rng.gen::<f64>();
                        *state = if *state {
                            flip >= *fail
                        } else {
                            flip < *recover
                        };
                    }
                    masks.push(up.clone());
                }
                masks
            }
            OutageModel::RegionBlackout {
                region,
                from_round,
                until_round,
            } => {
                if let Some(&bad) = region.iter().find(|&&u| u >= n) {
                    return Err(Error::InvalidConfiguration(format!(
                        "blackout region node {bad} is out of range for {n} users"
                    )));
                }
                let mut dark = vec![true; n];
                for &u in region {
                    dark[u] = false;
                }
                (0..rounds)
                    .map(|t| {
                        if (*from_round..*until_round).contains(&t) {
                            dark.clone()
                        } else {
                            vec![true; n]
                        }
                    })
                    .collect()
            }
        };
        OutageSchedule::from_masks(masks)
    }
}

/// A realized availability history: one mask per exchange round.
///
/// This is the interface between churn generation and everything that
/// consumes churn — the engine's masked rounds, the churn-aware protocol
/// simulation ([`crate::simulation::run_protocol_under_outages`]) and the
/// exact accountant via [`OutageSchedule::time_varying_model`].
///
/// Each mask is stored once, shared: cloning the schedule and lifting it
/// into per-round operators ([`OutageSchedule::time_varying_model`]) hold
/// the same buffers instead of copies.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSchedule {
    node_count: usize,
    /// `masks[t][u]` — is user `u` reachable in round `t`?
    masks: Vec<Arc<[bool]>>,
}

impl OutageSchedule {
    /// Wraps explicit masks (all of the same length, at least one round).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] on an empty or ragged mask sequence.
    pub fn from_masks(masks: Vec<Vec<bool>>) -> Result<Self> {
        let Some(first) = masks.first() else {
            return Err(Error::InvalidConfiguration(
                "an outage schedule needs at least one round".into(),
            ));
        };
        let node_count = first.len();
        if node_count == 0 || masks.iter().any(|m| m.len() != node_count) {
            return Err(Error::InvalidConfiguration(
                "outage masks must be non-empty and all of the same length".into(),
            ));
        }
        let masks = masks.into_iter().map(Arc::from).collect();
        Ok(OutageSchedule { node_count, masks })
    }

    /// The fully-available schedule (the static degeneracy) over `rounds`
    /// rounds.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if `n == 0` or `rounds == 0`.
    pub fn fully_available(n: usize, rounds: usize) -> Result<Self> {
        if n == 0 || rounds == 0 {
            return Err(Error::InvalidConfiguration(
                "an outage schedule needs at least one user and one round".into(),
            ));
        }
        Self::from_masks(vec![vec![true; n]; rounds])
    }

    /// Number of users each mask covers.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of explicitly scheduled rounds.
    pub fn rounds(&self) -> usize {
        self.masks.len()
    }

    /// The mask of round `t`; past the end the last mask holds (the outage
    /// state persists), mirroring [`TimeVaryingModel`]'s hold semantics.
    pub fn mask(&self, round: usize) -> &[bool] {
        &self.masks[round.min(self.masks.len() - 1)]
    }

    /// All per-round masks, in round order — the raw history the durable
    /// log records.  Lifting a schedule onto the walk goes through
    /// [`OutageSchedule::time_varying_model`], or [`OutageSchedule::mask`]
    /// per round for a mask combined with another (a shard's membership).
    pub fn masks(&self) -> ScheduleMasks<'_> {
        ScheduleMasks(&self.masks)
    }

    /// Fraction of users available in round `t`.
    pub fn available_fraction(&self, round: usize) -> f64 {
        let mask = self.mask(round);
        mask.iter().filter(|&&up| up).count() as f64 / mask.len() as f64
    }

    /// Lifts the schedule into the exact per-round operator product on
    /// `graph`: one masked walk operator
    /// ([`ns_graph::transition::TransitionMatrix::masked`]) per round, all
    /// sharing one CSR copy, with the engine-matching semantics
    /// (unavailable recipient ⇒ the report stays put), plus the intrinsic
    /// `laziness` of the walk.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] on a node-count mismatch; operator
    /// construction errors otherwise.
    pub fn time_varying_model(&self, graph: &Graph, laziness: f64) -> Result<TimeVaryingModel> {
        if graph.node_count() != self.node_count {
            return Err(Error::InvalidConfiguration(format!(
                "outage schedule covers {} users but the graph has {}",
                self.node_count,
                graph.node_count()
            )));
        }
        TimeVaryingModel::from_availability(graph, laziness, &self.masks).map_err(Into::into)
    }
}

/// An [`OutageSchedule`]'s per-round masks, borrowed in round order.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleMasks<'a>(&'a [Arc<[bool]>]);

impl<'a> ScheduleMasks<'a> {
    /// The masks, borrowed, in round order — what the durable log encodes.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [bool]> {
        self.0.iter().map(|mask| &**mask)
    }

    /// Owned copies, one vector per round — the form a decoded log record
    /// holds.
    pub fn to_vec(self) -> Vec<Vec<bool>> {
        self.iter().map(<[bool]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_graph::generators;
    use ns_graph::rng::seeded_rng;

    #[test]
    fn validation() {
        assert!(DropoutModel::new(0.0).is_ok());
        assert!(DropoutModel::new(0.5).is_ok());
        assert!(DropoutModel::new(1.0).is_err());
        assert!(DropoutModel::new(-0.1).is_err());
        assert_eq!(DropoutModel::new(0.3).unwrap().as_laziness(), 0.3);
    }

    #[test]
    fn dropouts_slow_mixing_but_not_the_limit() {
        let g = generators::random_regular(400, 6, &mut seeded_rng(1)).unwrap();
        let reliable = DropoutModel::new(0.0).unwrap().accountant(&g).unwrap();
        let flaky = DropoutModel::new(0.4).unwrap().accountant(&g).unwrap();
        // The lazy walk has a smaller spectral gap, hence a longer mixing time.
        assert!(flaky.mixing_time() > reliable.mixing_time());
        // But the stationary distribution (and thus the asymptotic epsilon)
        // is unchanged.
        let params = AccountantParams::with_defaults(400, 1.0).unwrap();
        let e_reliable = reliable
            .central_guarantee_at_mixing_time(ProtocolKind::Single, Scenario::Stationary, &params)
            .unwrap();
        let e_flaky = flaky
            .central_guarantee_at_mixing_time(ProtocolKind::Single, Scenario::Stationary, &params)
            .unwrap();
        assert!((e_reliable.epsilon - e_flaky.epsilon).abs() / e_reliable.epsilon < 0.05);
    }

    #[test]
    fn fixed_round_budget_degrades_under_dropouts() {
        let g = generators::random_regular(400, 6, &mut seeded_rng(2)).unwrap();
        let params = AccountantParams::with_defaults(400, 1.0).unwrap();
        let rounds = 10;
        let reliable = DropoutModel::new(0.0)
            .unwrap()
            .accountant(&g)
            .unwrap()
            .central_guarantee(ProtocolKind::All, Scenario::Stationary, &params, rounds)
            .unwrap();
        let flaky = DropoutModel::new(0.5)
            .unwrap()
            .accountant(&g)
            .unwrap()
            .central_guarantee(ProtocolKind::All, Scenario::Stationary, &params, rounds)
            .unwrap();
        assert!(flaky.epsilon >= reliable.epsilon);
    }

    #[test]
    fn bipartite_graphs_work_with_dropouts() {
        // The even cycle is bipartite: the plain accountant rejects it, the
        // dropout (lazy) accountant accepts it.
        let g = generators::cycle(12).unwrap();
        assert!(NetworkShuffleAccountant::new(&g).is_err());
        assert!(DropoutModel::new(0.25).unwrap().accountant(&g).is_ok());
    }

    #[test]
    fn simulation_under_dropouts_conserves_reports() {
        let g = generators::random_regular(50, 4, &mut seeded_rng(3)).unwrap();
        let model = DropoutModel::new(0.3).unwrap();
        let outcome = model
            .run_protocol(&g, (0..50u32).collect(), 12, ProtocolKind::All, 99, |_| 0)
            .unwrap();
        assert_eq!(outcome.collected.report_count(), 50);
        // With laziness, fewer messages are sent than reports * rounds.
        assert!(outcome.metrics.total_messages() < 50 * 12);
    }

    #[test]
    fn outage_models_validate_parameters() {
        assert!(OutageModel::Iid {
            dropout_probability: 1.0
        }
        .validate()
        .is_err());
        assert!(OutageModel::MarkovOnOff {
            fail: 0.2,
            recover: 0.0
        }
        .validate()
        .is_err());
        assert!(OutageModel::MarkovOnOff {
            fail: 1.2,
            recover: 0.5
        }
        .validate()
        .is_err());
        assert!(OutageModel::RegionBlackout {
            region: vec![0],
            from_round: 5,
            until_round: 5
        }
        .validate()
        .is_err());
        // Out-of-range region nodes are caught at sampling time.
        let bad = OutageModel::RegionBlackout {
            region: vec![99],
            from_round: 0,
            until_round: 2,
        };
        assert!(bad.sample_schedule(10, 5, 0).is_err());
        assert!(OutageModel::Iid {
            dropout_probability: 0.1
        }
        .sample_schedule(0, 5, 0)
        .is_err());
    }

    #[test]
    fn iid_schedule_hits_the_expected_unavailability() {
        let model = OutageModel::Iid {
            dropout_probability: 0.3,
        };
        let schedule = model.sample_schedule(2_000, 40, 7).unwrap();
        assert_eq!(schedule.rounds(), 40);
        assert_eq!(schedule.node_count(), 2_000);
        let mean_down: f64 = (0..40)
            .map(|t| 1.0 - schedule.available_fraction(t))
            .sum::<f64>()
            / 40.0;
        assert!(
            (mean_down - 0.3).abs() < 0.02,
            "mean unavailability {mean_down}"
        );
        assert_eq!(model.mean_unavailability(2_000, 40), 0.3);
        // Deterministic in the seed.
        assert_eq!(schedule, model.sample_schedule(2_000, 40, 7).unwrap());
        assert_ne!(schedule, model.sample_schedule(2_000, 40, 8).unwrap());
    }

    #[test]
    fn markov_schedule_is_bursty_but_stationary_on_average() {
        let model = OutageModel::MarkovOnOff {
            fail: 0.05,
            recover: 0.2,
        };
        let schedule = model.sample_schedule(3_000, 60, 11).unwrap();
        let pi_down = model.mean_unavailability(3_000, 60);
        assert!((pi_down - 0.2).abs() < 1e-12);
        let mean_down: f64 = (0..60)
            .map(|t| 1.0 - schedule.available_fraction(t))
            .sum::<f64>()
            / 60.0;
        assert!((mean_down - pi_down).abs() < 0.02, "mean down {mean_down}");
        // Burstiness: a user that is down now is far more likely than the
        // stationary rate to be down next round.
        let mut down_now = 0usize;
        let mut down_next = 0usize;
        for t in 0..59 {
            for u in 0..3_000 {
                if !schedule.mask(t)[u] {
                    down_now += 1;
                    if !schedule.mask(t + 1)[u] {
                        down_next += 1;
                    }
                }
            }
        }
        let persistence = down_next as f64 / down_now as f64;
        assert!(
            persistence > 0.7,
            "persistence {persistence} not bursty (stationary rate {pi_down})"
        );
    }

    #[test]
    fn blackout_schedule_is_deterministic_and_windowed() {
        let model = OutageModel::RegionBlackout {
            region: (0..25).collect(),
            from_round: 2,
            until_round: 5,
        };
        let schedule = model.sample_schedule(100, 8, 0).unwrap();
        for t in 0..8 {
            let dark = (2..5).contains(&t);
            assert_eq!(schedule.mask(t)[0], !dark, "round {t}");
            assert!(schedule.mask(t)[99], "round {t}: outside region");
        }
        // Past the schedule end, the last mask holds.
        assert_eq!(schedule.mask(100), schedule.mask(7));
        let expected = (25.0 / 100.0) * (3.0 / 8.0);
        assert!((model.mean_unavailability(100, 8) - expected).abs() < 1e-12);
    }

    #[test]
    fn schedule_lifts_into_a_time_varying_model() {
        let g = generators::random_regular(60, 4, &mut seeded_rng(4)).unwrap();
        let schedule = OutageModel::Iid {
            dropout_probability: 0.2,
        }
        .sample_schedule(60, 6, 3)
        .unwrap();
        let model = schedule.time_varying_model(&g, 0.1).unwrap();
        assert_eq!(model.schedule_len(), 6);
        assert_eq!(
            ns_graph::transition::TransitionModel::node_count(&model),
            60
        );
        // Node-count mismatch is rejected.
        let small = generators::cycle(5).unwrap();
        assert!(schedule.time_varying_model(&small, 0.1).is_err());
    }

    #[test]
    fn scheduled_operators_share_the_schedule_masks() {
        let g = generators::random_regular(60, 4, &mut seeded_rng(4)).unwrap();
        let schedule = OutageModel::MarkovOnOff {
            fail: 0.2,
            recover: 0.3,
        }
        .sample_schedule(60, 5, 8)
        .unwrap();
        let model = schedule.time_varying_model(&g, 0.1).unwrap();
        let clone = schedule.clone();
        for t in 0..5 {
            let held = model.operator(t).availability().expect("a masked operator");
            assert_eq!(held, schedule.mask(t));
            assert_eq!(
                held.as_ptr(),
                schedule.mask(t).as_ptr(),
                "round {t}'s operator copied its mask"
            );
            assert_eq!(clone.mask(t).as_ptr(), schedule.mask(t).as_ptr());
        }
        let copies = schedule.masks().to_vec();
        assert_eq!(copies.len(), 5);
        assert!(copies
            .iter()
            .enumerate()
            .all(|(t, mask)| mask[..] == *schedule.mask(t)));
    }

    #[test]
    fn from_masks_rejects_ragged_or_empty_input() {
        assert!(OutageSchedule::from_masks(vec![]).is_err());
        assert!(OutageSchedule::from_masks(vec![vec![]]).is_err());
        assert!(OutageSchedule::from_masks(vec![vec![true], vec![true, false]]).is_err());
        let ok = OutageSchedule::fully_available(5, 3).unwrap();
        assert_eq!(ok.rounds(), 3);
        assert_eq!(ok.available_fraction(0), 1.0);
        assert!(OutageSchedule::fully_available(0, 3).is_err());
    }
}
