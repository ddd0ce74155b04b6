//! Long-horizon churn soak: does the incremental runtime hold the line
//! where the static one decays?
//!
//! ```text
//! cargo run --release -p ns-bench --bin churn_soak
//! NS_SOAK_N=400 NS_SOAK_ROUNDS=30 cargo run --release -p ns-bench --bin churn_soak
//! ```
//!
//! Two experiments, one file (`BENCH_churn_soak.json`, override with
//! `NS_SOAK_OUT`):
//!
//! 1. **Delta micro-bench** — the accountant's critical-path kernel, in
//!    isolation: dense ensemble advance vs the per-column correction
//!    ([`DistributionEnsemble::correct_columns`]) at affected-column
//!    fractions 1–50% on the soak topology, warm buffers, identical
//!    tracked-row shape.  This is the `speedup` the delta path buys at a
//!    given churn radius; the acceptance line is ≥ 5× at a 5% affected
//!    fraction.
//!
//! 2. **Markov churn soak** — `NS_SOAK_ROUNDS` rounds over a planted
//!    8-community graph whose nodes keep drifting between communities
//!    (`NS_SOAK_CHURN` movers per 1000 nodes per round, each rewired
//!    toward its new community).  Both arms run the full stack — sharded
//!    engine with per-round retargeting, streaming accountant priced on
//!    the realized masked operator — under **identical** churn streams:
//!
//!    * `off` is HEAD's behaviour: the round-0 partition forever, a dense
//!      accountant advance on the critical path of every round;
//!    * `on` is the incremental runtime: speculative advance off the
//!      critical path + sparse column correction on it, and every
//!      `NS_SOAK_EPOCH` rounds a bounded online refinement
//!      ([`Partition::refined_assignment`]) migrated into the live engine
//!      ([`ShardedMixingEngine::migrate`]), movers masked for one
//!      round so the accountant prices the exchange.
//!
//!    The emitted per-arm series (live edge-cut fraction + critical-path
//!    rounds/s, sampled per epoch) is the headline: `off` decays in cut
//!    while `on` holds ~flat at a fraction of the critical-path cost.
//!
//! Env knobs: `NS_SOAK_N` (nodes, default 100k), `NS_SOAK_ROUNDS`
//! (default 1000), `NS_SOAK_CHURN` (movers/1000 nodes/round, default 2),
//! `NS_SOAK_EPOCH` (repartition cadence, default 25), `NS_SOAK_OUT`.

use ns_graph::delta::affected_columns;
use ns_graph::dynamic::{DynTransition, DynamicGraph};
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::partition::Partition;
use ns_graph::rng::{seeded_rng, SimRng};
use ns_graph::round::DrawMode;
use ns_graph::sharded_engine::ShardedMixingEngine;
use ns_graph::{Graph, NodeId};
use rand::Rng;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const LAZINESS: f64 = 0.2;
const TRACKED_PER_SHARD: usize = 4;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Planted 8-community topology in O(n·d): every node draws ~3 partners
/// from its own community and 1 from a random other one, plus a ring edge
/// inside the community so no node can end up isolated.  (The library's
/// stochastic block model is O(n²) per pair probe — unusable at soak n.)
fn planted_communities(n: usize, communities: &[usize], rng: &mut SimRng) -> Graph {
    let k = SHARDS;
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for (u, &c) in communities.iter().enumerate() {
        members[c].push(u);
    }
    let mut edges: std::collections::HashSet<(NodeId, NodeId)> = std::collections::HashSet::new();
    let push = |edges: &mut std::collections::HashSet<(NodeId, NodeId)>, u: NodeId, v: NodeId| {
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    };
    for c in 0..k {
        let m = &members[c];
        for (i, &u) in m.iter().enumerate() {
            // Community ring: guarantees degree ≥ 2 inside the community.
            push(&mut edges, u, m[(i + 1) % m.len()]);
            // ~3 intra partners.
            for _ in 0..3 {
                push(&mut edges, u, m[rng.gen_range(0..m.len())]);
            }
            // 1 inter partner.
            let other = (c + 1 + rng.gen_range(0..k - 1)) % k;
            let om = &members[other];
            push(&mut edges, u, om[rng.gen_range(0..om.len())]);
        }
    }
    let list: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
    Graph::from_edges(n, &list).expect("planted graph")
}

/// One churn round: `movers` nodes relocate to a fresh community — most of
/// their old-community edges drop (degree-guarded) and four edges wire
/// into the new one, so the mover's neighbourhood majority genuinely
/// flips.  Returns the touched nodes (the dirty set this wave creates).
/// Pure function of `(rng, communities, graph-edge-state)` — availability
/// never feeds back, so the `off` and `on` arms replay identical streams.
fn churn_round(
    dg: &mut DynamicGraph,
    communities: &mut [usize],
    members: &mut [Vec<NodeId>],
    rng: &mut SimRng,
    movers: usize,
) -> Vec<NodeId> {
    let n = dg.node_count();
    for _ in 0..movers {
        let u = rng.gen_range(0..n);
        let old = communities[u];
        let new = (old + 1 + rng.gen_range(0..SHARDS - 1)) % SHARDS;
        // Drop the mover's edges outside the new community (degree-guarded
        // on both endpoints, so nobody can approach isolation).
        let old_neighbors: Vec<NodeId> = dg
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&v| communities[v] != new)
            .collect();
        for v in old_neighbors {
            if dg.degree(u) > 2 && dg.degree(v) > 2 {
                dg.remove_edge(u, v).expect("remove");
            }
        }
        // Wire four edges into the new community.
        for _ in 0..4 {
            let m = &members[new];
            let v = m[rng.gen_range(0..m.len())];
            if u != v {
                let _ = dg.add_edge(u, v).expect("add");
            }
        }
        // Book-keeping: move u between the community member lists.
        let slot = members[old].iter().position(|&x| x == u).expect("member");
        members[old].swap_remove(slot);
        members[new].push(u);
        communities[u] = new;
    }
    dg.dirty_list().to_vec()
}

/// Part 1: dense advance vs per-column correction on warm, well-mixed
/// tracked rows — the two critical-path kernels the runtime chooses
/// between, at a sweep of affected-column fractions.
fn delta_microbench(graph: &Graph, out: &mut Vec<String>) -> f64 {
    let n = graph.node_count();
    let mut dg = DynamicGraph::from_graph(graph).expect("dynamic");
    let op: DynTransition = Arc::new(dg.masked_operator(LAZINESS).expect("operator"));
    let rows = SHARDS * TRACKED_PER_SHARD;
    let origins: Vec<NodeId> = (0..rows).map(|r| r * (n / rows)).collect();
    let mut ens = DistributionEnsemble::point_masses(n, &origins).expect("ensemble");
    // Mix until the rows are dense — the steady-state shape both kernels see.
    ens.advance_auto(op.as_ref(), 30);
    let mut prev = Vec::new();
    let mut prev_il = Vec::new();

    // Dense baseline, best of 3.  The speculative advance is the same dense
    // kernel (plus the off-critical interleave, timed separately below).
    let reps = 3;
    let mut dense_s = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        ens.speculate_auto(op.as_ref(), &mut prev);
        dense_s = dense_s.min(start.elapsed().as_secs_f64());
    }
    // The transpose that rides along with speculation, for the record.
    let start = Instant::now();
    ns_graph::ensemble::interleave_rows(rows, n, &prev, &mut prev_il);
    let interleave_s = start.elapsed().as_secs_f64();
    println!(
        "delta micro: speculation interleave overlay {:.3}ms (off critical path)",
        interleave_s * 1e3
    );

    let mut col_rng = seeded_rng(0x50AC);
    let mut speedup_at_5pct = 0.0;
    for &pct in &[1usize, 2, 5, 10, 25, 50] {
        let want = (n * pct / 100).max(1);
        // A contiguous window starting at a random offset: clustered the way
        // a churn neighbourhood is, covering `pct`% of the columns.
        let start_col = col_rng.gen_range(0..n);
        let mut columns: Vec<NodeId> = (0..want).map(|i| (start_col + i) % n).collect();
        columns.sort_unstable();
        let mut correct_s = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            ens.correct_columns_interleaved(op.as_ref(), &columns, &prev_il);
            correct_s = correct_s.min(start.elapsed().as_secs_f64());
        }
        let speedup = dense_s / correct_s;
        if pct == 5 {
            speedup_at_5pct = speedup;
        }
        println!(
            "delta micro: affected={pct}% dense={:.3}ms correct={:.3}ms speedup={:.1}x",
            dense_s * 1e3,
            correct_s * 1e3,
            speedup
        );
        out.push(format!(
            "  {{\"bench\": \"delta_advance\", \"n\": {n}, \"affected_pct\": {pct}, \
             \"dense_ms\": {:.4}, \"correct_ms\": {:.4}, \"speedup\": {:.2}}}",
            dense_s * 1e3,
            correct_s * 1e3,
            speedup
        ));
    }
    speedup_at_5pct
}

struct EpochSample {
    round: usize,
    cut_fraction: f64,
    critical_rounds_per_s: f64,
}

struct ArmResult {
    arm: &'static str,
    samples: Vec<EpochSample>,
    wall_s: f64,
    critical_s: f64,
    offcritical_s: f64,
    migrations: usize,
    movers_total: usize,
    /// Cut of the true-final-communities partition on the final topology.
    oracle_cut: f64,
}

/// Part 2: one soak arm.  `incremental = false` replays HEAD (static
/// round-0 partition, dense accounting on the critical path);
/// `incremental = true` runs the delta + online-repartitioning runtime.
/// Both consume bitwise-identical churn streams.
#[allow(clippy::too_many_arguments)]
fn soak_arm(
    graph: &Graph,
    communities0: &[usize],
    incremental: bool,
    n: usize,
    rounds: usize,
    movers_per_round: usize,
    epoch: usize,
    seed: u64,
    registry: &ns_obs::MetricsRegistry,
) -> ArmResult {
    use network_shuffle::service::StreamingAccountant;

    let arm = if incremental { "on" } else { "off" };
    let mut communities: Vec<usize> = communities0.to_vec();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); SHARDS];
    for (u, &c) in communities.iter().enumerate() {
        members[c].push(u);
    }
    let assignment: Vec<u32> = communities.iter().map(|&c| c as u32).collect();
    let partition0 = Partition::from_assignment(graph, SHARDS, assignment).expect("partition");
    let mut partition = partition0.clone();
    let mut dg = DynamicGraph::from_graph(graph).expect("dynamic");
    let mut churn_rng = seeded_rng(seed);

    let mut engine = ShardedMixingEngine::one_walker_per_node(graph, &partition0, seed ^ 0xE0E0)
        .expect("engine");
    engine.set_draw_mode(DrawMode::Fast);
    // The engine owns its topology from here on: the borrowed `graph` and
    // `partition0` stay untouched while the owned copies track the churn.
    engine
        .retarget(Cow::Owned(graph.clone()))
        .expect("retarget");
    let mut pending_unmask: Vec<NodeId> = Vec::new();
    engine
        .migrate(Cow::Owned(partition0.clone()), &mut pending_unmask)
        .expect("initial migrate");
    assert!(pending_unmask.is_empty(), "round-0 migration moves nobody");

    let op0: DynTransition = Arc::new(dg.masked_operator(LAZINESS).expect("operator"));
    let schedule = ns_graph::dynamic::TimeVaryingModel::constant(op0).expect("schedule");
    let mut accountant =
        StreamingAccountant::with_schedule(graph, &partition, schedule, TRACKED_PER_SHARD)
            .expect("accountant");
    // Both arms run instrumented: the engine's phase timers and the delta
    // accountant's speculate/commit counters land in the registry whose
    // snapshot closes BENCH_churn_soak.json.
    engine.set_telemetry(Some(ns_graph::telemetry::EngineTelemetry::register(
        registry,
    )));
    accountant.set_telemetry(Some(
        network_shuffle::telemetry::AccountantTelemetry::register(registry),
    ));

    let mut samples = Vec::new();
    let mut critical_s = 0.0f64;
    let mut offcritical_s = 0.0f64;
    let mut epoch_critical_s = 0.0f64;
    let mut rounds_in_window = 0usize;
    let mut epoch_seeds: Vec<NodeId> = Vec::new();
    let mut migrations = 0usize;
    let mut movers_total = 0usize;
    let mut mask = vec![true; n];
    let wall_start = Instant::now();

    for round in 0..rounds {
        // Off the critical path: speculate under the operator we hold,
        // before this round's churn has landed.
        if incremental {
            let t = Instant::now();
            accountant.speculate_round();
            offcritical_s += t.elapsed().as_secs_f64();
        }

        // Movers masked last round come back before new churn lands.
        let mut touched: Vec<NodeId> = std::mem::take(&mut pending_unmask);
        for &u in &touched {
            dg.set_available(u, true).expect("unmask");
            mask[u] = true;
        }

        // The churn wave (identical stream in both arms).
        touched.extend(churn_round(
            &mut dg,
            &mut communities,
            &mut members,
            &mut churn_rng,
            movers_per_round,
        ));
        epoch_seeds.extend(touched.iter().copied());

        // Epoch boundary, incremental arm: refine the partition online and
        // migrate the engine; the movers go dark for this round.
        if incremental && round > 0 && round % epoch == 0 {
            epoch_seeds.sort_unstable();
            epoch_seeds.dedup();
            let budget = movers_per_round * epoch * 2;
            let (refined, moved) = partition
                .refined_assignment(&dg, &epoch_seeds, budget)
                .expect("refine");
            epoch_seeds.clear();
            if !moved.is_empty() {
                let next =
                    Partition::from_assignment(dg.snapshot(), SHARDS, refined).expect("partition");
                // `pending_unmask` was emptied at the top of the round.
                engine
                    .migrate(Cow::Owned(next.clone()), &mut pending_unmask)
                    .expect("migrate");
                partition = next;
                migrations += 1;
                movers_total += pending_unmask.len();
                for &u in &pending_unmask {
                    dg.set_available(u, false).expect("mask");
                    mask[u] = false;
                    touched.push(u);
                }
            }
        }

        // Realize this round's operator and price it.
        let realized: DynTransition = Arc::new(dg.masked_operator(LAZINESS).expect("operator"));
        let snapshot = dg.snapshot().clone();
        let t = Instant::now();
        if incremental {
            let columns = affected_columns(&snapshot, &touched);
            accountant.commit_round(realized.clone(), &columns);
        } else {
            accountant.commit_round(realized.clone(), &[]);
        }
        let dt = t.elapsed().as_secs_f64();
        critical_s += dt;
        epoch_critical_s += dt;

        // Move the walkers over the live topology.
        engine.retarget(Cow::Owned(snapshot)).expect("retarget");
        engine.step(LAZINESS, Some(&mask), &mut ()).expect("round");

        rounds_in_window += 1;
        // Sample at the END of each epoch-boundary round — right *after*
        // the incremental arm's migration, so the series shows the quality
        // the repartitioned steady state holds, not the sawtooth's low
        // point one round before the next refinement.
        if round % epoch == 0 || round + 1 == rounds {
            let cut = partition.live_edge_cut_fraction(&dg).expect("cut");
            samples.push(EpochSample {
                round: round + 1,
                cut_fraction: cut,
                critical_rounds_per_s: rounds_in_window as f64 / epoch_critical_s.max(1e-12),
            });
            epoch_critical_s = 0.0;
            rounds_in_window = 0;
        }
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    // Oracle floor: the cut a partition tracking the *true* final
    // communities would pay on the final topology — the best any online
    // refinement could hope to hold.
    let oracle: Vec<u32> = communities.iter().map(|&c| c as u32).collect();
    let oracle_cut = Partition::from_assignment(dg.snapshot(), SHARDS, oracle)
        .expect("oracle partition")
        .live_edge_cut_fraction(&dg)
        .expect("oracle cut");
    let stats = accountant.worst_stats();
    eprintln!(
        "arm={arm} rounds={rounds} wall={wall_s:.1}s critical={critical_s:.1}s \
         offcritical={offcritical_s:.1}s migrations={migrations} movers={movers_total} \
         oracle_cut={oracle_cut:.4} worst_l2={:.3e}",
        stats.sum_of_squares
    );
    ArmResult {
        arm,
        samples,
        wall_s,
        critical_s,
        offcritical_s,
        migrations,
        movers_total,
        oracle_cut,
    }
}

fn main() {
    let n = env_usize("NS_SOAK_N", 100_000);
    let rounds = env_usize("NS_SOAK_ROUNDS", 1000);
    let churn_permille = env_usize("NS_SOAK_CHURN", 2);
    let epoch = env_usize("NS_SOAK_EPOCH", 25).max(1);
    let out_path = ns_bench::bench_output_path("NS_SOAK_OUT", "BENCH_churn_soak.json");
    let movers_per_round = (n * churn_permille / 1000).max(1);

    let mut build_rng = seeded_rng(0x50A4);
    let communities: Vec<usize> = (0..n).map(|u| u * SHARDS / n).collect();
    eprintln!("building planted {SHARDS}-community graph: n={n}");
    let graph = planted_communities(n, &communities, &mut build_rng);
    eprintln!(
        "graph ready: {} nodes, {} edges; churn {movers_per_round} movers/round, epoch {epoch}",
        graph.node_count(),
        graph.edge_count()
    );

    let registry = ns_obs::MetricsRegistry::new();
    let mut entries: Vec<String> = Vec::new();
    let speedup_5 = delta_microbench(&graph, &mut entries);

    // NS_SOAK_ROUNDS=0 runs the micro-bench alone.
    for incremental in [false, true].into_iter().filter(|_| rounds > 0) {
        let r = soak_arm(
            &graph,
            &communities,
            incremental,
            n,
            rounds,
            movers_per_round,
            epoch,
            0xC4A2,
            &registry,
        );
        let first = &r.samples[0];
        let last = r.samples.last().expect("samples");
        println!(
            "soak arm={}: cut {:.4} -> {:.4} (oracle {:.4}), critical rounds/s {:.1} -> {:.1}, \
             migrations={} movers={}",
            r.arm,
            first.cut_fraction,
            last.cut_fraction,
            r.oracle_cut,
            first.critical_rounds_per_s,
            last.critical_rounds_per_s,
            r.migrations,
            r.movers_total
        );
        let series: Vec<String> = r
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"round\": {}, \"cut_fraction\": {:.5}, \"critical_rounds_per_s\": {:.2}}}",
                    s.round, s.cut_fraction, s.critical_rounds_per_s
                )
            })
            .collect();
        entries.push(format!(
            "  {{\"bench\": \"churn_soak\", \"arm\": \"{}\", \"n\": {n}, \"rounds\": {rounds}, \
             \"movers_per_round\": {movers_per_round}, \"epoch\": {epoch}, \
             \"wall_s\": {:.2}, \"critical_s\": {:.2}, \"offcritical_s\": {:.2}, \
             \"migrations\": {}, \"movers_total\": {}, \"oracle_cut_fraction\": {:.5}, \
             \"series\": [{}]}}",
            r.arm,
            r.wall_s,
            r.critical_s,
            r.offcritical_s,
            r.migrations,
            r.movers_total,
            r.oracle_cut,
            series.join(", ")
        ));
    }

    println!("delta speedup at 5% affected: {speedup_5:.1}x");
    ns_bench::write_bench_json(&out_path, &entries, &registry).expect("write output");
    eprintln!("wrote {}", out_path.display());
}
