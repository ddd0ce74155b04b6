//! Churn-tolerant deployment: exact accounting on the network you actually
//! had, not the one you planned.
//!
//! ```text
//! cargo run --release --example churn_deployment
//! # CI smoke run / scaling probe at a custom population:
//! NS_CHURN_N=300 cargo run --release --example churn_deployment
//! ```
//!
//! A 800-user deployment (`NS_CHURN_N` overrides the population, mirroring
//! `NS_SHARD_N`/`NS_SCALE_N`) plans for 25% average unavailability with the
//! paper's lazy-walk reduction, then experiences three different outage
//! processes with that *same* average:
//!
//! * i.i.d. dropout — the reduction's home turf (exact),
//! * bursty Markov on-off churn — outages persist for ~6 rounds,
//! * a regional blackout — a quarter of the network dark for the whole budget.
//!
//! For each realized schedule the exact accountant evolves **every**
//! origin's position distribution through the actual product of per-round
//! masked operators and quotes the worst user's ε, exposing how far the
//! static quote drifts.  The example then replays the blackout through the
//! protocol engine (failed deliveries stay put, are never counted as
//! traffic) and finishes with live topology churn: edges rewiring under a
//! `DynamicGraph` whose per-round CSR snapshots feed one persistent 1-shard
//! engine through `ShardedMixingEngine::retarget`.

use network_shuffle::prelude::*;
use ns_graph::dynamic::DynamicGraph;
use ns_graph::generators::barabasi_albert;
use ns_graph::partition::Partition;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_obs::say;
use rand::Rng;
use std::borrow::Cow;

const TOPIC: &str = "churn_deployment";

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::var("NS_CHURN_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(800);
    let epsilon_0 = 1.0;
    let seed = 20220408;
    let mean_down = 0.25;

    // 1. The planned deployment: static graph, lazy-walk churn model.
    let mut rng = ns_graph::rng::seeded_rng(seed);
    let graph = barabasi_albert(n, 4, &mut rng)?;
    let accountant = NetworkShuffleAccountant::new(&graph)?;
    let rounds = accountant.mixing_time();
    let params = AccountantParams::with_defaults(n, epsilon_0)?;
    let planned = DropoutModel::new(mean_down)?
        .accountant(&graph)?
        .central_guarantee(ProtocolKind::Single, Scenario::Stationary, &params, rounds)?;
    let exact_static = accountant
        .central_guarantee(ProtocolKind::Single, Scenario::Exact, &params, rounds)?
        .epsilon;
    say!(
        TOPIC,
        "deployment: n = {n}, m = {} edges, t = {rounds} rounds (static mixing time)",
        graph.edge_count()
    );
    say!(
        TOPIC,
        "planned quote (lazy bound, q = {mean_down}):   eps = {:.3}",
        planned.epsilon
    );
    say!(
        TOPIC,
        "exact static worst user (no churn):    eps = {exact_static:.3}"
    );

    // 2. Three realized outage processes with the same 25% average.
    let scenarios = [
        (
            "iid dropout",
            OutageModel::Iid {
                dropout_probability: mean_down,
            },
        ),
        (
            "bursty markov",
            // fail/(fail+recover) = 0.25, mean outage length ~6 rounds.
            OutageModel::MarkovOnOff {
                fail: 1.0 / 18.0,
                recover: 1.0 / 6.0,
            },
        ),
        (
            "region blackout",
            // A quarter of the network dark for the whole budget — the same
            // 25% mean unavailability as the other two scenarios, but
            // concentrated: reports can never settle there, so the position
            // distributions pile up on the surviving three quarters.
            OutageModel::RegionBlackout {
                region: (0..n / 4).collect(),
                from_round: 0,
                until_round: rounds,
            },
        ),
    ];
    println!();
    say!(
        TOPIC,
        "realized churn, same {mean_down} average unavailability, worst user after t = {rounds}:"
    );
    for (name, model) in &scenarios {
        let schedule = model.sample_schedule(n, rounds, seed)?;
        let churned = accountant
            .clone()
            .with_schedule(schedule.time_varying_model(&graph, 0.0)?)?;
        let (worst_user, guarantee) =
            churned.worst_user_guarantee(ProtocolKind::Single, &params, rounds)?;
        let vs_plan = guarantee.epsilon / planned.epsilon;
        say!(TOPIC,
            "  {name:<16} exact worst user {worst_user:>3}: eps = {:>8.3}  ({}{:.2}x the planned quote)",
            guarantee.epsilon,
            if vs_plan >= 1.0 { "" } else { "1/" },
            if vs_plan >= 1.0 { vs_plan } else { 1.0 / vs_plan },
        );
    }

    // 3. Replay the blackout through the protocol engine: reports whose
    // recipient is dark stay put and no message is counted.
    let blackout = scenarios[2].1.sample_schedule(n, rounds, seed)?;
    let config = SimulationConfig::single(rounds, seed);
    let clear = run_protocol(&graph, vec![0u8; n], config, |_| 0)?;
    let dark = run_protocol_under_outages(&graph, vec![0u8; n], config, &blackout, |_| 0)?;
    println!();
    say!(TOPIC,
        "protocol replay (A_single, {rounds} rounds): {} relay messages clear-sky, {} under the blackout",
        clear.metrics.total_messages(),
        dark.metrics.total_messages()
    );
    assert!(dark.metrics.total_messages() < clear.metrics.total_messages());

    // 4. Live topology churn: 1% of edges rewire every round.  The dynamic
    // graph takes each edit in O(deg) and each round's CSR snapshot is
    // materialized up front, so ONE engine walks the whole history,
    // retargeting between rounds — positions and the round counter carry
    // over.
    let mut dynamic = DynamicGraph::from_graph(&graph)?;
    let mut walk_rng = ns_graph::rng::seeded_rng(seed ^ 0xd15c0);
    let mut rewired = 0usize;
    let mut snapshots = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // Rewire: drop a random existing edge, add a random absent one.
        for _ in 0..graph.edge_count() / 100 {
            let (u, v) = loop {
                let u = walk_rng.gen_range(0..n);
                let v = walk_rng.gen_range(0..n);
                if u != v
                    && dynamic.has_edge(u, v)
                    && dynamic.degree(u) > 1
                    && dynamic.degree(v) > 1
                {
                    break (u, v);
                }
            };
            let (a, b) = loop {
                let a = walk_rng.gen_range(0..n);
                let b = walk_rng.gen_range(0..n);
                if a != b && !dynamic.has_edge(a, b) {
                    break (a, b);
                }
            };
            dynamic.remove_edge(u, v)?;
            dynamic.add_edge(a, b)?;
            rewired += 1;
        }
        snapshots.push(dynamic.snapshot().clone());
    }
    let partition = Partition::single_shard(&snapshots[0])?;
    let mut engine =
        ShardedMixingEngine::one_walker_per_node(&snapshots[0], &partition, walk_rng.gen())?;
    for snapshot in &snapshots {
        engine.retarget(Cow::Borrowed(snapshot))?;
        engine.step(0.0, None, &mut ())?;
    }
    assert_eq!(engine.round(), rounds);
    let empty = engine.load_vector().iter().filter(|&&x| x == 0).count();
    say!(
        TOPIC,
        "live rewiring: {rewired} edges swapped across {rounds} rounds ({} edges now), \
         {empty} of {n} users hold no report after the walk",
        dynamic.edge_count()
    );
    println!();
    say!(
        TOPIC,
        "takeaway: the i.i.d. quote transfers, correlated/scheduled churn does not — account on\n\
         the realized schedule (NetworkShuffleAccountant::with_schedule) before quoting eps."
    );
    Ok(())
}
