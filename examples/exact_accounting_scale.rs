//! Exact multi-origin accounting on a large irregular graph.
//!
//! ```text
//! cargo run --release --example exact_accounting_scale
//! NS_EXACT_N=100000 cargo run --release --example exact_accounting_scale
//! ```
//!
//! Builds a Chung–Lu graph with a heterogeneous expected-degree sequence —
//! the setting where the spectral bound is a worst case over users and the
//! symmetric (single-origin) route does not represent anyone but its chosen
//! origin — and runs `Scenario::Exact`: every user's position distribution
//! is evolved to the mixing time through the batched ensemble kernel,
//! yielding the exact per-user `Σ_i P_i(t)²` and the worst user's central ε.
//!
//! The default population (`n = 10_000`) finishes in well under a minute on
//! one core.  Set `NS_EXACT_N` to scale up: `NS_EXACT_N=100000` is the
//! 100k-user demonstration (all 100k origins evolved exactly — an
//! `O(n · t · m)` computation; expect tens of minutes on one core).

use network_shuffle::prelude::*;
use ns_graph::connectivity::largest_connected_component;
use ns_obs::say;
use std::time::Instant;

const TOPIC: &str = "exact_accounting_scale";

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::var("NS_EXACT_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let epsilon_0 = 1.0;

    // Chung–Lu stand-in: expected degrees from 3 to 12, mean ~ 6.
    let weights: Vec<f64> = (0..n)
        .map(|i| 3.0 + 9.0 * ((i % 10) as f64) / 9.0)
        .collect();
    let mut rng = ns_graph::rng::seeded_rng(20220408);
    let graph = largest_connected_component(&ns_graph::generators::chung_lu(&weights, &mut rng)?).0;
    let n = graph.node_count();
    let stats = ns_graph::degree::DegreeStats::compute(&graph).expect("non-trivial graph");
    say!(
        TOPIC,
        "Chung-Lu stand-in: n = {n}, m = {}, degrees {}..{}, Gamma_G = {:.3}",
        stats.edge_count,
        stats.min_degree,
        stats.max_degree,
        stats.irregularity
    );

    let accountant = NetworkShuffleAccountant::new(&graph)?;
    let rounds = accountant.mixing_time();
    say!(
        TOPIC,
        "spectral gap = {:.4}, stopping rule t = {rounds} rounds",
        accountant.mixing_profile().spectral_gap
    );

    let params = AccountantParams::with_defaults(n, epsilon_0)?;
    // Two horizons: mid-mixing, where users genuinely differ, and the
    // stopping time, where everyone has converged.  `NS_EXACT_T` overrides
    // both with a single horizon (handy for large-n runs, where the full
    // mixing-time pass is an `O(n · t_mix · m)` commitment).
    let horizons: Vec<usize> = match std::env::var("NS_EXACT_T")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(t) => vec![t],
        None => vec![(rounds / 3).max(1), rounds],
    };
    for t in horizons {
        let start = Instant::now();
        let per_origin = accountant.per_origin_guarantees(ProtocolKind::Single, &params, t)?;
        let elapsed = start.elapsed().as_secs_f64();
        let (worst_origin, worst) = per_origin
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.epsilon.total_cmp(&b.epsilon))
            .expect("non-empty population");
        let best = per_origin
            .iter()
            .map(|g| g.epsilon)
            .fold(f64::INFINITY, f64::min);
        let mean = per_origin.iter().map(|g| g.epsilon).sum::<f64>() / n as f64;
        let bound = accountant
            .central_guarantee(ProtocolKind::Single, Scenario::Stationary, &params, t)?
            .epsilon;
        println!();
        say!(
            TOPIC,
            "t = {t}: exact ensemble pass over all origins in {elapsed:.1} s \
             ({:.2} M origin-rounds/s)",
            n as f64 * t as f64 / elapsed / 1e6
        );
        say!(
            TOPIC,
            "  per-user epsilon (A_single, eps0 = {epsilon_0}): worst user {worst_origin} \
             (degree {}) at {:.4}, mean {mean:.4}, best {best:.4}",
            graph.degree(worst_origin),
            worst.epsilon
        );
        say!(
            TOPIC,
            "  stationary worst-case bound at t = {t}: {bound:.4} \
             (exact worst user / bound = {:.3})",
            worst.epsilon / bound
        );
    }
    println!();
    say!(
        TOPIC,
        "the exact route prices every user individually: low-degree users mix slower and\n\
         carry a measurably larger epsilon, which the one-number spectral bound cannot see."
    );
    Ok(())
}
