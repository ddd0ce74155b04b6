//! Graph-aware privacy accounting.
//!
//! [`NetworkShuffleAccountant`] derives the `Σ_i P_i(t)²` input of the
//! closed-form theorems from an actual communication graph:
//!
//! * **Stationary scenario** (any connected, non-bipartite graph): the Eq. 7
//!   spectral bound `Σ_i π_i² + (1 − α)^{2t}` computed from the graph's
//!   stationary distribution and spectral gap.  This is the worst-case bound
//!   plotted in Figures 4 and 6.
//! * **Symmetric scenario** (k-regular graphs / peer-discovery designs): the
//!   exact position distribution of a report started at a chosen origin is
//!   evolved round by round, giving the exact `Σ_i P_i(t)²` and support
//!   ratio `ρ*` used by Theorems 5.4 and 5.6 and plotted in Figure 5.
//! * **Exact scenario** (any ergodic graph): *every* origin's position
//!   distribution is evolved through the batched
//!   [`ns_graph::ensemble`] kernel, giving each user her exact
//!   `(Σ_i P_i(t)², ρ*)` — and hence a per-user ε — where the spectral
//!   route can only bound the worst case.  Origins are streamed through
//!   bounded-memory batches, so the route scales to 100k+-node graphs.

use crate::accountant::closed_form::{guarantee_from_stats, AccountantParams};
use crate::error::{Error, Result};
use crate::protocol::ProtocolKind;
use ns_dp::types::PrivacyGuarantee;
use ns_graph::dynamic::TimeVaryingModel;
use ns_graph::ensemble::{self, DistributionEnsemble, RowStats};
use ns_graph::mixing::MixingProfile;
use ns_graph::spectral::SpectralOptions;
use ns_graph::transition::{TransitionMatrix, TransitionModel};
use ns_graph::{Graph, NodeId};

/// Which analysis scenario of Section 4.2 to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Any ergodic graph, analysed through the worst-case spectral bound on
    /// `Σ_i P_i(t)²` (Theorems 5.3 / 5.5).
    Stationary,
    /// A (near-)regular graph analysed by exactly tracking the position
    /// distribution of a report originating at `origin`
    /// (Theorems 5.4 / 5.6).  For vertex-transitive graphs the origin is
    /// irrelevant.
    Symmetric {
        /// The user whose report's position distribution is tracked.
        origin: NodeId,
    },
    /// Any ergodic graph, analysed by exactly evolving the position
    /// distributions of **all** `n` origins with the batched ensemble
    /// kernel.  Guarantees quote the worst user, so they hold for every
    /// user while staying exact.  When the accountant carries a
    /// [`TimeVaryingModel`] (see
    /// [`NetworkShuffleAccountant::with_schedule`]) the evolution follows
    /// the realized per-round operator schedule — churn-aware exact
    /// accounting.  Pre-mixing this is far tighter than the
    /// stationary bound; note that on heterogeneous graphs the Eq. 7 bound
    /// (derived for regular graphs) can even slightly *under*-estimate the
    /// worst user — at `t = 1` a degree-1 origin's report sits on its only
    /// neighbour with probability 1 — which is exactly why the exact route
    /// exists.
    Exact,
}

/// Privacy accountant bound to a specific communication graph.
///
/// Optionally carries a [`TimeVaryingModel`] — the realized per-round
/// operator schedule of a churning deployment (see
/// [`NetworkShuffleAccountant::with_schedule`]).  When attached, the exact
/// routes ([`Scenario::Exact`], [`Scenario::Symmetric`],
/// [`NetworkShuffleAccountant::exact_moments`] and friends) evolve origins
/// through the schedule's product of
/// per-round transitions instead of powers of the static matrix; the
/// spectral/stationary route keeps quoting the static worst case, which is
/// precisely the gap the churn experiments measure.
#[derive(Debug, Clone)]
pub struct NetworkShuffleAccountant {
    node_count: usize,
    mixing: MixingProfile,
    transition: TransitionMatrix,
    laziness: f64,
    /// Realized round schedule for the exact routes; `None` = static walk.
    schedule: Option<TimeVaryingModel>,
}

impl NetworkShuffleAccountant {
    /// Builds an accountant for the simple random walk on `graph`.
    ///
    /// # Errors
    ///
    /// The graph must support an ergodic walk (connected, non-bipartite, no
    /// isolated nodes); bipartite graphs are accepted only with laziness via
    /// [`NetworkShuffleAccountant::with_laziness`].
    pub fn new(graph: &Graph) -> Result<Self> {
        Self::with_laziness(graph, 0.0)
    }

    /// Builds an accountant for a lazy random walk (stay probability
    /// `laziness`), which models user dropouts (Section 4.5) and restores
    /// ergodicity on bipartite graphs.
    ///
    /// # Errors
    ///
    /// Graph/laziness validation errors.
    pub fn with_laziness(graph: &Graph, laziness: f64) -> Result<Self> {
        if graph.node_count() < 2 {
            return Err(Error::InvalidConfiguration(
                "network shuffling requires at least two users".into(),
            ));
        }
        if let Some(u) = graph.find_isolated_node() {
            return Err(ns_graph::GraphError::IsolatedNode(u).into());
        }
        if !graph.is_connected() {
            return Err(ns_graph::GraphError::Disconnected.into());
        }
        if laziness == 0.0 && graph.is_bipartite() {
            return Err(ns_graph::GraphError::Bipartite.into());
        }
        let mixing = MixingProfile::compute_lazy(graph, laziness, SpectralOptions::default())?;
        let transition = TransitionMatrix::with_laziness(graph, laziness)?;
        Ok(NetworkShuffleAccountant {
            node_count: graph.node_count(),
            mixing,
            transition,
            laziness,
            schedule: None,
        })
    }

    /// Attaches the realized round schedule of a time-varying deployment:
    /// every exact route — [`Scenario::Exact`] *and* the single-origin
    /// [`Scenario::Symmetric`] — then accounts on `schedule`'s per-round
    /// operators (round `t` of the walk applies `schedule.operator(t)`), so
    /// per-user guarantees reflect the churn that actually happened rather
    /// than the static worst case.  Only [`Scenario::Stationary`] keeps
    /// quoting the static spectral bound (by design: it is the planning-time
    /// reference the churn experiments measure against).  A constant schedule of the accountant's own
    /// transition matrix reproduces the static exact results bitwise (the
    /// degeneracy pinned down by `tests/churn.rs`).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfiguration`] if the schedule's node count differs
    /// from the graph's.
    pub fn with_schedule(mut self, schedule: TimeVaryingModel) -> Result<Self> {
        if schedule.node_count() != self.node_count {
            return Err(Error::InvalidConfiguration(format!(
                "schedule covers {} users but the accountant graph has {}",
                schedule.node_count(),
                self.node_count
            )));
        }
        self.schedule = Some(schedule);
        Ok(self)
    }

    /// The attached round schedule, if any.
    pub fn schedule(&self) -> Option<&TimeVaryingModel> {
        self.schedule.as_ref()
    }

    /// The model the exact routes evolve origins through: the attached
    /// schedule when present, the static matrix otherwise.
    fn exact_model(&self) -> &dyn TransitionModel {
        match &self.schedule {
            Some(model) => model,
            None => &self.transition,
        }
    }

    /// Number of users `n`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The walk's laziness.
    pub fn laziness(&self) -> f64 {
        self.laziness
    }

    /// The graph's mixing profile (spectral gap, `Σ π²`, mixing time).
    pub fn mixing_profile(&self) -> &MixingProfile {
        &self.mixing
    }

    /// The transition matrix the accountant evolves distributions under.
    pub fn transition(&self) -> &TransitionMatrix {
        &self.transition
    }

    /// The paper's stopping rule `t = ⌊α⁻¹ log n⌉`.
    pub fn mixing_time(&self) -> usize {
        self.mixing.mixing_time
    }

    /// `Σ_i P_i(t)²` (and the support ratio `ρ*`) after `rounds` rounds
    /// under the given scenario.
    ///
    /// For [`Scenario::Exact`] the returned pair is the component-wise
    /// worst over all origins (largest `Σ_i P_i²`, largest `ρ*`), which is
    /// a valid — if slightly conservative — input for a guarantee covering
    /// every user; use [`NetworkShuffleAccountant::exact_moments`] for the
    /// full per-origin breakdown.
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] if the symmetric origin is out of range.
    pub fn sum_p_squared(&self, scenario: Scenario, rounds: usize) -> Result<(f64, f64)> {
        match scenario {
            Scenario::Stationary => Ok((self.mixing.sum_p_squared_bound_clamped(rounds), 1.0)),
            Scenario::Symmetric { origin } => {
                let mut ensemble = DistributionEnsemble::point_masses(self.node_count, &[origin])?;
                ensemble.advance(self.exact_model(), rounds);
                let stats = ensemble.row_stats(0);
                Ok((stats.sum_of_squares, stats.support_ratio))
            }
            Scenario::Exact => {
                let moments = self.exact_moments(rounds)?;
                let mut worst_sum_sq = 0.0f64;
                let mut worst_ratio = 1.0f64;
                for stats in &moments {
                    worst_sum_sq = worst_sum_sq.max(stats.sum_of_squares);
                    worst_ratio = worst_ratio.max(stats.support_ratio);
                }
                Ok((worst_sum_sq, worst_ratio))
            }
        }
    }

    /// The exact accounting moments `(Σ_i P_i(t)², ρ*)` of **every** origin
    /// after `rounds` rounds, computed by the batched ensemble kernel in
    /// bounded-memory batches (entry `o` belongs to user `o`'s report).
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] on degenerate graphs (cannot happen for a
    /// successfully constructed accountant).
    pub fn exact_moments(&self, rounds: usize) -> Result<Vec<RowStats>> {
        Ok(ensemble::all_origin_moments(self.exact_model(), rounds)?)
    }

    /// The per-origin central guarantees of the exact scenario: entry `o`
    /// is the `(ε, δ)` enjoyed by user `o`'s report after `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn per_origin_guarantees(
        &self,
        protocol: ProtocolKind,
        params: &AccountantParams,
        rounds: usize,
    ) -> Result<Vec<PrivacyGuarantee>> {
        self.check_population(params)?;
        self.exact_moments(rounds)?
            .iter()
            .map(|stats| guarantee_from_stats(protocol, params, stats))
            .collect()
    }

    /// The worst user's exact guarantee after `rounds` rounds: the origin
    /// whose report is hardest to hide and its `(ε, δ)`.  This is what
    /// [`Scenario::Exact`] quotes through
    /// [`NetworkShuffleAccountant::central_guarantee`].
    ///
    /// # Errors
    ///
    /// Parameter validation errors from the closed forms.
    pub fn worst_user_guarantee(
        &self,
        protocol: ProtocolKind,
        params: &AccountantParams,
        rounds: usize,
    ) -> Result<(NodeId, PrivacyGuarantee)> {
        let guarantees = self.per_origin_guarantees(protocol, params, rounds)?;
        let worst = guarantees
            .into_iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.epsilon.total_cmp(&b.epsilon))
            .expect("accountants require n >= 2");
        Ok(worst)
    }

    /// Shared `params.n == node_count` validation.
    fn check_population(&self, params: &AccountantParams) -> Result<()> {
        if params.n != self.node_count {
            return Err(Error::InvalidConfiguration(format!(
                "accountant graph has {} users but params.n = {}",
                self.node_count, params.n
            )));
        }
        Ok(())
    }

    /// The central `(ε, δ)` guarantee after `rounds` rounds for the given
    /// protocol and scenario.
    ///
    /// Under [`Scenario::Exact`] this is the worst user's exact guarantee
    /// (each origin's ε is evaluated from its own moments, then maximized),
    /// so it holds for the entire population.
    ///
    /// # Errors
    ///
    /// Parameter or graph validation errors.
    pub fn central_guarantee(
        &self,
        protocol: ProtocolKind,
        scenario: Scenario,
        params: &AccountantParams,
        rounds: usize,
    ) -> Result<PrivacyGuarantee> {
        self.check_population(params)?;
        if scenario == Scenario::Exact {
            return self
                .worst_user_guarantee(protocol, params, rounds)
                .map(|(_, guarantee)| guarantee);
        }
        let (sum_of_squares, support_ratio) = self.sum_p_squared(scenario, rounds)?;
        let stats = RowStats {
            sum_of_squares,
            support_ratio,
        };
        guarantee_from_stats(protocol, params, &stats)
    }

    /// The central guarantee at the paper's default stopping time
    /// `t = ⌊α⁻¹ log n⌉`.
    ///
    /// # Errors
    ///
    /// See [`NetworkShuffleAccountant::central_guarantee`].
    pub fn central_guarantee_at_mixing_time(
        &self,
        protocol: ProtocolKind,
        scenario: Scenario,
        params: &AccountantParams,
    ) -> Result<PrivacyGuarantee> {
        let t = self.mixing_time();
        if t == usize::MAX {
            return Err(Error::InvalidConfiguration(
                "the walk does not mix (zero spectral gap); add laziness".into(),
            ));
        }
        self.central_guarantee(protocol, scenario, params, t)
    }

    /// Sweeps the central ε over `1..=max_rounds` rounds — the
    /// privacy-vs-communication trade-off curves of Figures 4 and 5.
    ///
    /// The symmetric scenario is evolved incrementally, so the sweep costs
    /// `O(max_rounds · m)` rather than `O(max_rounds² · m)`.  The exact
    /// scenario likewise reuses **one** tracked ensemble pass over all
    /// origins: every round's worst-user ε comes from the same evolution,
    /// at `O(n · max_rounds · m)` total instead of per sweep point.
    ///
    /// # Errors
    ///
    /// Parameter or graph validation errors.
    pub fn epsilon_vs_rounds(
        &self,
        protocol: ProtocolKind,
        scenario: Scenario,
        params: &AccountantParams,
        max_rounds: usize,
    ) -> Result<Vec<(usize, f64)>> {
        self.check_population(params)?;
        let mut out = Vec::with_capacity(max_rounds);
        match scenario {
            Scenario::Stationary => {
                for t in 1..=max_rounds {
                    let stats = RowStats {
                        sum_of_squares: self.mixing.sum_p_squared_bound_clamped(t),
                        support_ratio: 1.0,
                    };
                    let guarantee = guarantee_from_stats(protocol, params, &stats)?;
                    out.push((t, guarantee.epsilon));
                }
            }
            Scenario::Symmetric { origin } => {
                let mut ensemble = DistributionEnsemble::point_masses(self.node_count, &[origin])?;
                let trajectory = ensemble.advance_tracked(self.exact_model(), max_rounds);
                for (t, stats) in trajectory.row(0).iter().enumerate() {
                    let guarantee = guarantee_from_stats(protocol, params, stats)?;
                    out.push((t + 1, guarantee.epsilon));
                }
            }
            Scenario::Exact => {
                let mut worst = vec![f64::NEG_INFINITY; max_rounds];
                let model = self.exact_model();
                ensemble::all_origin_trajectories(model, max_rounds, |_, trajectory| {
                    for row in 0..trajectory.sources() {
                        for (t, stats) in trajectory.row(row).iter().enumerate() {
                            let epsilon = guarantee_from_stats(protocol, params, stats)?.epsilon;
                            if epsilon > worst[t] {
                                worst[t] = epsilon;
                            }
                        }
                    }
                    Ok::<_, Error>(())
                })?;
                out.extend(worst.into_iter().enumerate().map(|(t, eps)| (t + 1, eps)));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_graph::generators;
    use ns_graph::rng::seeded_rng;

    fn regular_graph(n: usize, k: usize, seed: u64) -> Graph {
        generators::random_regular(n, k, &mut seeded_rng(seed)).unwrap()
    }

    #[test]
    fn rejects_non_ergodic_graphs() {
        let bipartite = generators::cycle(8).unwrap();
        assert!(NetworkShuffleAccountant::new(&bipartite).is_err());
        assert!(NetworkShuffleAccountant::with_laziness(&bipartite, 0.3).is_ok());

        let disconnected =
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(NetworkShuffleAccountant::new(&disconnected).is_err());

        let tiny = Graph::from_edges(1, &[]).unwrap();
        assert!(NetworkShuffleAccountant::new(&tiny).is_err());
    }

    #[test]
    fn stationary_sum_p_squared_decreases_with_rounds() {
        let g = regular_graph(500, 6, 1);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let (early, rho_e) = accountant.sum_p_squared(Scenario::Stationary, 1).unwrap();
        let (late, rho_l) = accountant.sum_p_squared(Scenario::Stationary, 200).unwrap();
        assert!(late < early);
        assert_eq!(rho_e, 1.0);
        assert_eq!(rho_l, 1.0);
        // In the limit the bound approaches Gamma / n = 1/n for a regular graph.
        assert!((late - 1.0 / 500.0).abs() < 1e-6);
    }

    #[test]
    fn symmetric_scenario_tracks_exact_distribution() {
        let g = regular_graph(300, 8, 2);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let (t1, _) = accountant
            .sum_p_squared(Scenario::Symmetric { origin: 0 }, 1)
            .unwrap();
        // After one round the report is uniform over the 8 neighbours.
        assert!((t1 - 1.0 / 8.0).abs() < 1e-12);
        let (t50, rho) = accountant
            .sum_p_squared(Scenario::Symmetric { origin: 0 }, 50)
            .unwrap();
        assert!(t50 < 2.0 / 300.0, "sum P^2 after mixing = {t50}");
        assert!(rho >= 1.0);
        // Out-of-range origin is rejected.
        assert!(accountant
            .sum_p_squared(Scenario::Symmetric { origin: 300 }, 1)
            .is_err());
    }

    #[test]
    fn central_guarantee_amplifies_on_large_graphs() {
        let g = regular_graph(2_000, 8, 3);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(2_000, 0.5).unwrap();
        let guarantee = accountant
            .central_guarantee_at_mixing_time(ProtocolKind::Single, Scenario::Stationary, &params)
            .unwrap();
        assert!(guarantee.epsilon < 0.5, "epsilon = {}", guarantee.epsilon);
        assert!(guarantee.epsilon > 0.0);
    }

    #[test]
    fn epsilon_vs_rounds_is_decreasing_for_stationary_bound() {
        let g = regular_graph(400, 6, 4);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(400, 1.0).unwrap();
        let sweep = accountant
            .epsilon_vs_rounds(ProtocolKind::All, Scenario::Stationary, &params, 50)
            .unwrap();
        assert_eq!(sweep.len(), 50);
        for window in sweep.windows(2) {
            assert!(
                window[1].1 <= window[0].1 + 1e-12,
                "stationary bound must be monotone"
            );
        }
    }

    #[test]
    fn symmetric_sweep_converges_to_the_stationary_value() {
        let g = regular_graph(400, 8, 5);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(400, 1.0).unwrap();
        let exact = accountant
            .epsilon_vs_rounds(
                ProtocolKind::Single,
                Scenario::Symmetric { origin: 3 },
                &params,
                80,
            )
            .unwrap();
        let bound = accountant
            .epsilon_vs_rounds(ProtocolKind::Single, Scenario::Stationary, &params, 80)
            .unwrap();
        // At the end of the sweep both approaches agree (the walk has mixed).
        let exact_final = exact.last().unwrap().1;
        let bound_final = bound.last().unwrap().1;
        assert!((exact_final - bound_final).abs() / bound_final < 0.05);
        // And the exact value never exceeds the worst-case bound once both
        // have settled (allowing slack in the pre-mixing regime).
        assert!(exact_final <= bound_final * 1.05);
    }

    #[test]
    fn faster_mixing_graphs_amplify_sooner() {
        // Figure 5's qualitative claim: larger k converges faster.
        let params = AccountantParams::with_defaults(500, 1.0).unwrap();
        let sparse = regular_graph(500, 4, 6);
        let dense = regular_graph(500, 20, 7);
        let sparse_sweep = NetworkShuffleAccountant::new(&sparse)
            .unwrap()
            .epsilon_vs_rounds(
                ProtocolKind::All,
                Scenario::Symmetric { origin: 0 },
                &params,
                10,
            )
            .unwrap();
        let dense_sweep = NetworkShuffleAccountant::new(&dense)
            .unwrap()
            .epsilon_vs_rounds(
                ProtocolKind::All,
                Scenario::Symmetric { origin: 0 },
                &params,
                10,
            )
            .unwrap();
        // After 10 rounds the dense graph has the smaller epsilon.
        assert!(dense_sweep[9].1 < sparse_sweep[9].1);
    }

    #[test]
    fn mismatched_population_is_rejected() {
        let g = regular_graph(100, 4, 8);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(200, 1.0).unwrap();
        for scenario in [Scenario::Stationary, Scenario::Exact] {
            assert!(accountant
                .central_guarantee(ProtocolKind::All, scenario, &params, 10)
                .is_err());
            assert!(accountant
                .epsilon_vs_rounds(ProtocolKind::All, scenario, &params, 10)
                .is_err());
        }
        assert!(accountant
            .per_origin_guarantees(ProtocolKind::All, &params, 10)
            .is_err());
    }

    #[test]
    fn exact_scenario_agrees_with_symmetric_per_origin() {
        // The exact ensemble restricted to one origin must reproduce the
        // symmetric route bit for bit; the worst-user pair dominates every
        // single origin.
        let g = regular_graph(120, 6, 11);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let rounds = 15;
        let moments = accountant.exact_moments(rounds).unwrap();
        assert_eq!(moments.len(), 120);
        let (worst_sum_sq, worst_rho) = accountant.sum_p_squared(Scenario::Exact, rounds).unwrap();
        for (origin, stats) in moments.iter().enumerate() {
            let (sum_sq, rho) = accountant
                .sum_p_squared(Scenario::Symmetric { origin }, rounds)
                .unwrap();
            assert_eq!(stats.sum_of_squares, sum_sq, "origin {origin}");
            assert_eq!(stats.support_ratio, rho, "origin {origin}");
            assert!(worst_sum_sq >= sum_sq);
            assert!(worst_rho >= rho);
        }
    }

    #[test]
    fn worst_user_guarantee_is_the_maximum_per_origin_epsilon() {
        // A two-degree-class graph has genuinely different per-origin
        // guarantees, so the worst user is a real maximum, not a tie.
        let g = ns_graph::generators::two_degree_class(40, 4, 12).unwrap();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(accountant.node_count(), 1.0).unwrap();
        let rounds = 10;
        let per_origin = accountant
            .per_origin_guarantees(ProtocolKind::Single, &params, rounds)
            .unwrap();
        let (worst_origin, worst) = accountant
            .worst_user_guarantee(ProtocolKind::Single, &params, rounds)
            .unwrap();
        assert_eq!(per_origin.len(), accountant.node_count());
        for (origin, guarantee) in per_origin.iter().enumerate() {
            assert!(
                guarantee.epsilon <= worst.epsilon,
                "origin {origin} exceeds the quoted worst user"
            );
        }
        assert_eq!(per_origin[worst_origin].epsilon, worst.epsilon);
        let via_scenario = accountant
            .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)
            .unwrap();
        assert_eq!(via_scenario.epsilon, worst.epsilon);
    }

    #[test]
    fn exact_sweep_reuses_one_pass_and_matches_pointwise_evaluation() {
        let g = regular_graph(90, 4, 13);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let params = AccountantParams::with_defaults(90, 1.0).unwrap();
        let sweep = accountant
            .epsilon_vs_rounds(ProtocolKind::All, Scenario::Exact, &params, 12)
            .unwrap();
        assert_eq!(sweep.len(), 12);
        for &(t, eps) in &[sweep[0], sweep[5], sweep[11]] {
            let direct = accountant
                .central_guarantee(ProtocolKind::All, Scenario::Exact, &params, t)
                .unwrap();
            assert_eq!(eps, direct.epsilon, "sweep diverges at t = {t}");
        }
    }

    #[test]
    fn constant_schedule_reproduces_static_exact_accounting_bitwise() {
        let g = ns_graph::generators::two_degree_class(30, 4, 14).unwrap();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let schedule = TimeVaryingModel::new(vec![accountant.transition().clone()]).unwrap();
        let scheduled = accountant.clone().with_schedule(schedule).unwrap();
        let rounds = 8;
        assert_eq!(
            accountant.exact_moments(rounds).unwrap(),
            scheduled.exact_moments(rounds).unwrap()
        );
        let params = AccountantParams::with_defaults(accountant.node_count(), 1.0).unwrap();
        for protocol in [ProtocolKind::All, ProtocolKind::Single] {
            assert_eq!(
                accountant
                    .epsilon_vs_rounds(protocol, Scenario::Exact, &params, rounds)
                    .unwrap(),
                scheduled
                    .epsilon_vs_rounds(protocol, Scenario::Exact, &params, rounds)
                    .unwrap()
            );
            assert_eq!(
                accountant
                    .worst_user_guarantee(protocol, &params, rounds)
                    .unwrap(),
                scheduled
                    .worst_user_guarantee(protocol, &params, rounds)
                    .unwrap()
            );
            // The symmetric (single-origin) route is schedule-aware too and
            // degenerates identically.
            assert_eq!(
                accountant
                    .epsilon_vs_rounds(protocol, Scenario::Symmetric { origin: 3 }, &params, rounds)
                    .unwrap(),
                scheduled
                    .epsilon_vs_rounds(protocol, Scenario::Symmetric { origin: 3 }, &params, rounds)
                    .unwrap()
            );
        }
        assert_eq!(
            accountant
                .sum_p_squared(Scenario::Symmetric { origin: 7 }, rounds)
                .unwrap(),
            scheduled
                .sum_p_squared(Scenario::Symmetric { origin: 7 }, rounds)
                .unwrap()
        );
    }

    #[test]
    fn blackout_schedule_worsens_the_exact_guarantee() {
        // A third of the network dark for the first rounds: the realized
        // schedule mixes slower than the static walk, so the worst user's
        // exact epsilon after the same budget must be at least the static
        // one (strictly greater here).
        let g = regular_graph(120, 4, 15);
        let n = g.node_count();
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let rounds = 8;
        let mut dark = vec![true; n];
        for slot in dark.iter_mut().take(n / 3) {
            *slot = false;
        }
        let masks: Vec<Vec<bool>> = (0..rounds)
            .map(|t| if t < 5 { dark.clone() } else { vec![true; n] })
            .collect();
        let schedule = TimeVaryingModel::from_availability(&g, 0.0, &masks).unwrap();
        let churned = accountant.clone().with_schedule(schedule).unwrap();
        let params = AccountantParams::with_defaults(n, 1.0).unwrap();
        let static_eps = accountant
            .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)
            .unwrap()
            .epsilon;
        let churn_eps = churned
            .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)
            .unwrap()
            .epsilon;
        assert!(
            churn_eps > static_eps,
            "blackout epsilon {churn_eps} not above static {static_eps}"
        );
        // The symmetric route sees the schedule as well: a dark origin's
        // report mixes slower than the static walk says.
        let dark_origin = 0;
        let (static_sum_sq, _) = accountant
            .sum_p_squared(
                Scenario::Symmetric {
                    origin: dark_origin,
                },
                rounds,
            )
            .unwrap();
        let (churn_sum_sq, _) = churned
            .sum_p_squared(
                Scenario::Symmetric {
                    origin: dark_origin,
                },
                rounds,
            )
            .unwrap();
        assert!(
            churn_sum_sq > static_sum_sq,
            "blackout sum P^2 {churn_sum_sq} not above static {static_sum_sq}"
        );
        // The stationary route is oblivious to the schedule.
        assert_eq!(
            accountant
                .central_guarantee(ProtocolKind::Single, Scenario::Stationary, &params, rounds)
                .unwrap()
                .epsilon,
            churned
                .central_guarantee(ProtocolKind::Single, Scenario::Stationary, &params, rounds)
                .unwrap()
                .epsilon
        );
    }

    #[test]
    fn schedule_node_count_mismatch_is_rejected() {
        let g = regular_graph(50, 4, 16);
        let accountant = NetworkShuffleAccountant::new(&g).unwrap();
        let other = regular_graph(20, 4, 17);
        let schedule = TimeVaryingModel::new(vec![TransitionMatrix::new(&other).unwrap()]).unwrap();
        assert!(accountant.with_schedule(schedule).is_err());
    }

    #[test]
    fn mixing_time_guarantee_requires_positive_gap() {
        let bipartite = generators::cycle(10).unwrap();
        let accountant = NetworkShuffleAccountant::with_laziness(&bipartite, 0.4).unwrap();
        let params = AccountantParams::with_defaults(10, 1.0).unwrap();
        // Lazy walk on a small cycle mixes, so this succeeds.
        let guarantee = accountant
            .central_guarantee_at_mixing_time(ProtocolKind::Single, Scenario::Stationary, &params)
            .unwrap();
        assert!(guarantee.epsilon > 0.0);
    }
}
