//! The sharded shuffle runtime at scale: shard-count scaling plus a live
//! mid-run privacy quote.
//!
//! ```text
//! cargo run --release --example sharded_deployment
//! # CI smoke run at a small population:
//! NS_SHARD_N=5000 cargo run --release --example sharded_deployment
//! ```
//!
//! Builds a million-user Twitch-calibrated stand-in (same irregularity
//! target `Γ_G = 7.584` as the paper's Twitch graph, scaled up so the
//! largest connected component holds over a million users; `NS_SHARD_N`
//! overrides the requested size), then:
//!
//! 1. sweeps the shard count: partition quality (edge-cut fraction, shard
//!    imbalance), estimated per-shard working set, and measured exchange
//!    throughput (rounds/s) of the multi-shard engine;
//! 2. runs the full [`ShuffleCoordinator`] loop on the partitioned
//!    deployment — batch admission, exchange rounds with **live worst-user
//!    ε quotes from the streaming accountant mid-run**, upload gating on a
//!    target budget, and finalization to the curator;
//! 3. replays a **regional blackout through the sharded runtime** (the
//!    unified round kernel composes sharding × masking): masked sharded
//!    rounds bounce deliveries to dark recipients back through the return
//!    exchange, the streaming accountant evolves through the round's actual
//!    masked operator, and — with every origin tracked — the live mid-run
//!    quote is checked **exactly equal** to the offline
//!    `NetworkShuffleAccountant::with_schedule` route on the same realized
//!    schedule, round after round.

use network_shuffle::prelude::*;
use ns_graph::partition::Partition;
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::Graph;
use ns_obs::say;
use std::time::Instant;

const TOPIC: &str = "sharded_deployment";

/// Estimated bytes a shard would have to hold in a distributed deployment:
/// a local CSR over its intra-shard edges (offsets plus u32 neighbours), a
/// frontier table of `(local node, peer shard, peer local)` entries, one per
/// cut-edge incidence, and its slice of the walker state.
fn shard_working_set(graph: &Graph, partition: &Partition, shard: usize) -> usize {
    let nodes = partition.shard(shard).nodes();
    let (mut intra, mut cut) = (0usize, 0usize);
    for &u in nodes {
        for &v in graph.neighbors(u) {
            if partition.shard_of(v as usize) == shard {
                intra += 1;
            } else {
                cut += 1;
            }
        }
    }
    let word = std::mem::size_of::<usize>();
    (nodes.len() + 1) * word
        + intra * std::mem::size_of::<u32>()
        + cut * 3 * word
        + std::mem::size_of_val(nodes)
}

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // The generator keeps the largest connected component, which sheds
    // ~13% of the requested Chung–Lu population at this degree profile —
    // the default request is padded so the surviving graph stays >= 1M.
    let n: usize = std::env::var("NS_SHARD_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_160_000);
    let rounds_per_config = 20;
    let seed = 20220408;

    say!(
        TOPIC,
        "generating a Twitch-calibrated stand-in at n = {n} (Gamma target 7.584) ..."
    );
    let start = Instant::now();
    let graph = ns_datasets::catalog::generate_with_targets(n, 7.584, 10.0, seed)?;
    let n = graph.node_count();
    say!(
        TOPIC,
        "  n = {n}, m = {} edges, degrees {}..{} ({:.1?})",
        graph.edge_count(),
        graph.min_degree().unwrap_or(0),
        graph.max_degree().unwrap_or(0),
        start.elapsed()
    );

    // 1. Shard-count scaling sweep.
    println!();
    say!(
        TOPIC,
        "shard-count scaling ({rounds_per_config} exchange rounds per configuration):"
    );
    say!(
        TOPIC,
        "{:>7}  {:>9}  {:>10}  {:>14}  {:>12}  {:>13}",
        "shards",
        "edge cut",
        "imbalance",
        "partition time",
        "rounds/s",
        "max shard MB"
    );
    for k in [1usize, 2, 4, 8] {
        if k > n {
            continue;
        }
        let t0 = Instant::now();
        let partition = Partition::new(&graph, k)?;
        let partition_time = t0.elapsed();
        let max_shard_bytes = (0..k)
            .map(|s| shard_working_set(&graph, &partition, s))
            .max()
            .unwrap_or(0);
        let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, &partition, seed)?;
        let t1 = Instant::now();
        for _ in 0..rounds_per_config {
            engine.step(0.0, None, &mut ())?;
        }
        let elapsed = t1.elapsed().as_secs_f64();
        say!(
            TOPIC,
            "{k:>7}  {:>8.2}%  {:>10.3}  {:>13.0?}  {:>12.2}  {:>13.1}",
            100.0 * partition.edge_cut_fraction(),
            partition.max_shard_imbalance(),
            partition_time,
            rounds_per_config as f64 / elapsed,
            max_shard_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    // 2. The coordinator loop with live mid-run quotes and upload gating.
    let shard_count = 4.min(n);
    let epsilon_0 = 2.0;
    let partition = Partition::new(&graph, shard_count)?;
    let config = CoordinatorConfig {
        seed,
        laziness: 0.0,
        protocol: ProtocolKind::Single,
        tracked_per_shard: 2,
        draw_mode: DrawMode::Compat,
    };
    let params = AccountantParams::with_defaults(n, epsilon_0)?;
    // The asymptotic quote: at stationarity every report's Σ P² is the
    // collision probability Σ π² = Σ d²/(2m)² of the stationary walk, so
    // the upload gate can be set a hair above that floor without any
    // spectral analysis.
    let two_m = (2 * graph.edge_count()) as f64;
    let stationary_sum_sq: f64 = graph
        .nodes()
        .map(|u| (graph.degree(u) as f64 / two_m).powi(2))
        .sum();
    let floor_epsilon =
        network_shuffle::accountant::single_protocol_epsilon(&params, stationary_sum_sq)?.epsilon;
    let target_epsilon = 1.05 * floor_epsilon;
    println!();
    say!(
        TOPIC,
        "coordinator on {shard_count} shards (A_single, eps0 = {epsilon_0}, \
         {} tracked origins): stationary floor eps = {floor_epsilon:.4}, \
         gate uploads at eps <= {target_epsilon:.4}",
        config.tracked_per_shard * shard_count
    );

    let mut coordinator: ShuffleCoordinator<'_, u32> =
        ShuffleCoordinator::new(&graph, &partition, config)?;
    // Reports arrive in batches (here: four quarters of the population).
    let batch_size = n.div_ceil(4);
    for batch_start in (0..n).step_by(batch_size) {
        let batch: Vec<(usize, u32)> = (batch_start..(batch_start + batch_size).min(n))
            .map(|u| (u, (u % 16) as u32))
            .collect();
        coordinator.admit(batch)?;
    }
    say!(
        TOPIC,
        "  admitted {} reports in 4 batches",
        coordinator.report_count()
    );
    coordinator.begin_exchange()?;

    // Live quotes mid-run: the operator polls the streaming accountant
    // without stopping the exchange.
    let run_start = Instant::now();
    for checkpoint in [2usize, 4, 8] {
        coordinator.run_rounds(checkpoint - coordinator.round())?;
        let (origin, quote) = coordinator.live_quote(&params)?;
        say!(
            TOPIC,
            "  round {:>3}: live worst-user quote eps = {:.4} (user {origin}, degree {})",
            coordinator.round(),
            quote.epsilon,
            graph.degree(origin)
        );
    }
    // Gate the uploads on the target budget.
    let (rounds, quote) = coordinator.run_until_epsilon(&params, target_epsilon, 120)?;
    if quote.epsilon <= target_epsilon {
        say!(
            TOPIC,
            "  round {rounds:>3}: target met (eps = {:.4} <= {target_epsilon:.4}) — releasing \
             uploads [{:.1?} of exchange]",
            quote.epsilon,
            run_start.elapsed()
        );
    } else {
        say!(
            TOPIC,
            "  round {rounds:>3}: budget exhausted at eps = {:.4} — holding uploads",
            quote.epsilon
        );
    }
    let per_shard = coordinator
        .accountant()
        .shard_quotes(ProtocolKind::Single, &params)?;
    for (s, (origin, guarantee)) in per_shard.iter().enumerate() {
        say!(
            TOPIC,
            "    shard {s}: worst tracked user {origin} at eps = {:.4}",
            guarantee.epsilon
        );
    }

    let outcome = coordinator.finalize(|_| 0)?;
    say!(
        TOPIC,
        "  finalized: {} reports at the curator ({} dummies), {:.1} mean messages/user",
        outcome.collected.report_count(),
        outcome.collected.dummy_count(),
        outcome.metrics.mean_messages_per_user()
    );

    // 3. Sharded under a blackout: the composed masked x sharded path, with
    // the live quote cross-checked against the offline schedule accountant.
    // All-origin tracking costs O(n^2) memory, so this segment runs on a
    // smaller stand-in of the same degree profile.
    let blackout_n = n.min(1_800);
    let small = ns_datasets::catalog::generate_with_targets(blackout_n, 7.584, 10.0, seed + 1)?;
    let bn = small.node_count();
    let blackout_shards = 4.min(bn);
    let small_partition = Partition::new(&small, blackout_shards)?;
    let blackout_rounds = 16usize;
    let model = OutageModel::RegionBlackout {
        region: (0..bn / 4).collect(),
        from_round: 0,
        until_round: blackout_rounds / 2,
    };
    println!();
    say!(
        TOPIC,
        "sharded under a blackout (n = {bn}, {blackout_shards} shards, all {bn} origins \
         tracked): a quarter of the network dark for rounds 0..{}",
        blackout_rounds / 2
    );
    let mut dark: ShuffleCoordinator<'_, u32> = ShuffleCoordinator::new(
        &small,
        &small_partition,
        CoordinatorConfig {
            seed,
            laziness: 0.0,
            protocol: ProtocolKind::Single,
            tracked_per_shard: usize::MAX,
            draw_mode: DrawMode::Compat,
        },
    )?;
    let schedule = dark.sample_outages(&model, blackout_rounds, seed)?.clone();
    // The offline reference: the exact accountant on the same realized
    // schedule — the gold standard the live quote must reproduce.
    let offline = NetworkShuffleAccountant::new(&small)?
        .with_schedule(schedule.time_varying_model(&small, 0.0)?)?;
    let small_params = AccountantParams::with_defaults(bn, epsilon_0)?;
    dark.admit_population((0..bn as u32).collect())?;
    dark.begin_exchange()?;
    for checkpoint in [2usize, blackout_rounds / 2, blackout_rounds] {
        dark.run_rounds(checkpoint - dark.round())?;
        let (origin, live) = dark.live_quote(&small_params)?;
        let (_, exact) =
            offline.worst_user_guarantee(ProtocolKind::Single, &small_params, dark.round())?;
        assert_eq!(
            live.epsilon, exact.epsilon,
            "live quote must equal the offline schedule accountant exactly"
        );
        say!(TOPIC,
            "  round {:>3}: live eps = {:.4} (user {origin}) == offline with_schedule eps = {:.4}  [{}]",
            dark.round(),
            live.epsilon,
            exact.epsilon,
            if dark.round() <= blackout_rounds / 2 {
                "blackout"
            } else {
                "recovered"
            }
        );
    }
    let dark_outcome = dark.finalize(|_| 0)?;
    say!(
        TOPIC,
        "  finalized under churn: {} reports ({} dummies), {} relay messages \
         (failed deliveries bounce and are never counted)",
        dark_outcome.collected.report_count(),
        dark_outcome.collected.dummy_count(),
        dark_outcome.metrics.total_messages()
    );

    println!();
    say!(
        TOPIC,
        "the partition quality table prices shard-local deployments (edge cut = cross-shard\n\
         traffic) while the streaming accountant turns rounds into live per-user guarantees —\n\
         uploads release the moment the worst tracked user clears the budget, not at a\n\
         precomputed round count. And because every runtime executes the one round kernel,\n\
         the same machinery keeps quoting exactly when shards run under a blackout."
    );
    Ok(())
}
