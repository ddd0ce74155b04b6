//! The batched mixing engine at scale: one million walkers, streaming metrics.
//!
//! ```text
//! cargo run --release --example mixing_engine_scale
//! # with data-parallel rounds:
//! cargo run --release --features parallel --example mixing_engine_scale
//! # CI smoke run at a small population:
//! NS_SCALE_N=20000 cargo run --release --example mixing_engine_scale
//! # lane-buffered draw mode (one u64 per walker; statistically equivalent):
//! NS_SCALE_MODE=fast cargo run --release --example mixing_engine_scale
//! ```
//!
//! Where the quickstart example runs the full protocol (crypto envelopes,
//! curator, accountant), this one exercises the round engines directly: a
//! million-node regular graph and 30 exchange rounds over flat
//! struct-of-arrays state.  Serially it runs the protocol's holder-order
//! rounds on the 1-shard `ShardedMixingEngine`, with a custom
//! `RoundObserver` that watches the load distribution converge toward the
//! balls-into-bins limit while the rounds execute — no post-hoc pass over a
//! million client objects.  With `parallel` it runs `MixingEngine`'s
//! data-parallel walker-order rounds instead.

use ns_graph::generators::random_regular;
#[cfg(feature = "parallel")]
use ns_graph::mixing_engine::MixingEngine;
#[cfg(not(feature = "parallel"))]
use ns_graph::partition::Partition;
use ns_graph::rng::seeded_rng;
use ns_graph::round::DrawMode;
#[cfg(not(feature = "parallel"))]
use ns_graph::sharded_engine::{RoundObserver, RoundStats, ShardedMixingEngine};
#[cfg(feature = "parallel")]
use ns_graph::walk::WalkConfig;
use ns_obs::say;
use std::time::Instant;

const TOPIC: &str = "mixing_engine_scale";

/// Streams a per-round summary of the load vector.
#[cfg(not(feature = "parallel"))]
struct LoadWatcher;

#[cfg(not(feature = "parallel"))]
impl RoundObserver for LoadWatcher {
    fn on_round(&mut self, stats: &RoundStats<'_>) {
        if !stats.round.is_multiple_of(5) {
            return;
        }
        let n = stats.load.len() as f64;
        let empty = stats.load.iter().filter(|&&l| l == 0).count() as f64;
        let max = stats.load.iter().max().copied().unwrap_or(0);
        say!(
            TOPIC,
            "round {:>2}: {:>5.1}% empty holders (e^-1 = 36.8% at stationarity), max load {}",
            stats.round,
            100.0 * empty / n,
            max
        );
    }
}

fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
    // `NS_SCALE_N` overrides the population (mirroring `NS_EXACT_N` in
    // `exact_accounting_scale.rs`) so CI can smoke-run this at small n.
    let n: usize = std::env::var("NS_SCALE_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    // `NS_SCALE_MODE=fast` switches the engine to the lane-buffered draw
    // mode (see `ns_graph::round::DrawMode`); the default `compat` consumes
    // the RNG draw-for-draw like the historical loop.
    let mode = match std::env::var("NS_SCALE_MODE").as_deref() {
        Ok("fast") => DrawMode::Fast,
        _ => DrawMode::Compat,
    };
    let rounds = 30;
    say!(
        TOPIC,
        "generating a {n}-node 8-regular communication graph ..."
    );
    let mut rng = seeded_rng(7);
    let graph = random_regular(n, 8, &mut rng)?;

    #[cfg(feature = "parallel")]
    let (engine, start) = {
        let mut engine = MixingEngine::one_walker_per_node(&graph)?;
        engine.set_draw_mode(mode);
        say!(
            TOPIC,
            "running {rounds} data-parallel walker-order rounds ..."
        );
        let start = Instant::now();
        engine.run_parallel(WalkConfig::simple(rounds), 42)?;
        (engine, start)
    };
    #[cfg(not(feature = "parallel"))]
    let partition = Partition::single_shard(&graph)?;
    #[cfg(not(feature = "parallel"))]
    let (engine, start) = {
        let mut engine = ShardedMixingEngine::one_walker_per_node(&graph, &partition, 42)?;
        engine.set_draw_mode(mode);
        say!(
            TOPIC,
            "running {rounds} holder-order rounds with streaming metrics ..."
        );
        let start = Instant::now();
        for _ in 0..rounds {
            engine.step(0.0, None, &mut LoadWatcher)?;
        }
        (engine, start)
    };

    let elapsed = start.elapsed();
    let load = engine.load_vector();
    let empty = load.iter().filter(|&&l| l == 0).count();
    say!(
        TOPIC,
        "moved {n} reports x {rounds} rounds in {elapsed:.2?} \
         ({:.1} M report-moves/s)",
        (n * rounds) as f64 / elapsed.as_secs_f64() / 1e6
    );
    say!(
        TOPIC,
        "final load: {:.1}% empty holders, max {} reports at one node",
        100.0 * empty as f64 / n as f64,
        load.iter().max().unwrap()
    );
    Ok(())
}
