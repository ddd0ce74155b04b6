//! The privacy accountant: Theorems 5.3–5.6 and 6.1 of the paper.
//!
//! The accountant answers the question the whole system exists to answer:
//! *given that every user applied an ε₀-LDP randomizer and the reports were
//! exchanged for `t` rounds on graph `G`, what `(ε, δ)` guarantee does the
//! collection enjoy in the central model?*
//!
//! The theorems consume the graph only through `Σ_i P_i^G(t)²` (and, for
//! the `A_all` analysis, the support ratio `ρ*`).  Four routes derive those
//! quantities, from cheapest to most informative:
//!
//! | route | scenario | applies to | cost | what you get |
//! |-------|----------|------------|------|--------------|
//! | spectral bound (Eq. 7) | [`Scenario::Stationary`] | any ergodic graph | `O(1)` per `t` after one spectral analysis | worst-case bound, can be loose pre-mixing |
//! | exact single origin | [`Scenario::Symmetric`] | (near-)regular graphs, or one chosen user | `O(t·m)` | exact `Σ P²`/`ρ*` for that origin |
//! | exact ensemble | [`Scenario::Exact`] | any ergodic graph — static, or a realized churn schedule attached via [`NetworkShuffleAccountant::with_schedule`] | `O(n·t·m)` via the batched [`ns_graph::ensemble`] kernel | exact per-user moments and the worst user's ε, on the walk that actually ran |
//! | empirical | [`estimate_mixing`] | black-box / dynamic transition structures | `trials · O(t·(n+m))` on the 1-shard holder-order engine | unbiased Monte-Carlo estimate, averaged over origins |
//!
//! The routes cross-validate each other: the ensemble restricted to one row
//! reproduces the symmetric route bit for bit, the exact values sit clearly
//! below the spectral bound through the pre-mixing regime (and within a
//! fraction of a percent of it at stationarity), and the empirical
//! estimator converges to the ensemble's origin-average.  On heterogeneous
//! graphs the worst origin can even exceed the regular-graph-derived Eq. 7
//! bound — at `t = 1` a degree-1 user's report sits on her only neighbour
//! with probability 1 — which is why per-user guarantees need the exact
//! ensemble route rather than the bound.
//!
//! Module map:
//!
//! * [`closed_form`] — the raw formulas, taking `Σ_i P_i²` as an input;
//! * [`graph_accountant`] — the graph-bound layer implementing the first
//!   three routes and the ε-vs-rounds sweeps for the figures;
//! * [`empirical`] — the Monte-Carlo route;
//! * [`planning`] — the inverse questions a deployment asks: how many rounds
//!   are enough, and how large an ε₀ still meets a central target.

pub mod closed_form;
pub mod empirical;
pub mod graph_accountant;
pub mod planning;

pub use closed_form::{
    all_protocol_epsilon, all_protocol_epsilon_approx, single_protocol_epsilon,
    single_protocol_epsilon_approx, AccountantParams,
};
pub use empirical::{estimate_mixing, EmpiricalMixing};
pub use graph_accountant::{NetworkShuffleAccountant, Scenario};
pub use ns_graph::ensemble::RowStats;
pub use planning::{epsilon_0_for_central_target, rounds_for_target_epsilon};
