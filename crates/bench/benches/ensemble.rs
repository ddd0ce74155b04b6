//! Blocked distribution-ensemble kernel vs. the naive per-origin loop.
//!
//! On a 100k-node Chung–Lu graph, a batch of rows is evolved either through
//! the blocked interleaved kernel (`DistributionEnsemble::advance`) or
//! through the naive loop — one full `propagate_round_into` CSR sweep per
//! row per round.  Three cases:
//!
//! * 64 rows under the static walk (eight 8-lane blocks);
//! * 8 rows under the static walk (one block, the unmasked 8-lane pull);
//! * 8 rows under a bursty Markov on/off outage schedule (fail 0.01,
//!   recover 0.04: a fifth of the users dark in each round) through
//!   `TimeVaryingModel`, the masked 8-lane pull a churning deployment's
//!   accountant runs every round.
//!
//! The rows and the operators are built outside the timer; both routes
//! then take turns on the shared timer (`ns_bench::timer`), one call being
//! one `ROUNDS`-round advance.  Both routes keep evolving the same rows, so
//! once both have advanced equally often their rows must agree bit for bit
//! (the bench panics otherwise).  Each case prints the median and quartiles
//! of both routes and the ratio of the medians.
//!
//! Interpreting the ratio: the blocked kernel streams the CSR arrays once
//! per 8 rows instead of once per row and gathers 8 lanes per edge into
//! one register accumulator (one AVX-512F vector on hosts that have it,
//! else two AVX2 vectors), so its advantage scales with how
//! much the naive loop pays for re-streaming the graph.  On hosts whose
//! last-level cache swallows the whole problem (CSR + both buffers), the
//! naive loop pays little and the gap narrows to the SIMD factor; and the
//! sparsity short-cut of the scalar scatter (zero-mass nodes are skipped)
//! flatters the naive loop while rows are still concentrated.

use network_shuffle::faults::OutageModel;
use ns_bench::timer::{alternating, SAMPLES};
use ns_graph::connectivity::largest_connected_component;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::{TransitionMatrix, TransitionModel};
use ns_graph::Graph;

const NODES: usize = 100_000;
/// Rounds per timed advance: the accounting horizon (≈ the mixing time of
/// the benchmark graph).
const ROUNDS: usize = 20;

/// A 100k-node Chung–Lu graph with a mildly heavy-tailed expected-degree
/// sequence (mean ≈ 6) — the irregular-topology setting the exact
/// accounting route exists for.
fn graph() -> Graph {
    let weights: Vec<f64> = (0..NODES)
        .map(|i| 3.0 + 9.0 * ((i % 10) as f64) / 9.0)
        .collect();
    let raw = ns_graph::generators::chung_lu(&weights, &mut seeded_rng(1)).expect("graph");
    largest_connected_component(&raw).0
}

/// `rows` origins spread evenly over the nodes.
fn origins(n: usize, rows: usize) -> Vec<usize> {
    (0..rows).map(|i| i * (n / rows)).collect()
}

/// A way of evolving a batch of rows.
trait Route {
    /// Evolves every row by `rounds` rounds.
    fn advance(&mut self, rounds: usize);
    /// Rounds evolved so far.
    fn time(&self) -> usize;
    /// The rows, row-major.
    fn rows(&self) -> Vec<f64>;
}

/// Every row in one ensemble, 8 to an interleaved block.
struct Blocked<'a, M: ?Sized> {
    model: &'a M,
    ensemble: DistributionEnsemble,
}

impl<M: TransitionModel + ?Sized> Route for Blocked<'_, M> {
    fn advance(&mut self, rounds: usize) {
        self.ensemble.advance(self.model, rounds);
    }

    fn time(&self) -> usize {
        self.ensemble.time()
    }

    fn rows(&self) -> Vec<f64> {
        self.ensemble
            .row_groups(&[0, self.ensemble.sources()])
            .concat()
    }
}

/// Each row evolved on its own: one full sweep of the operator per row per
/// round.
struct Naive<'a, M: ?Sized> {
    model: &'a M,
    rows: Vec<Vec<f64>>,
    scratch: Vec<f64>,
    time: usize,
}

impl<M: TransitionModel + ?Sized> Route for Naive<'_, M> {
    fn advance(&mut self, rounds: usize) {
        for row in &mut self.rows {
            for t in 0..rounds {
                self.model
                    .propagate_round_into(self.time + t, row, &mut self.scratch);
                std::mem::swap(row, &mut self.scratch);
            }
        }
        self.time += rounds;
    }

    fn time(&self) -> usize {
        self.time
    }

    fn rows(&self) -> Vec<f64> {
        self.rows.concat()
    }
}

/// Point masses on `origins` over `n` nodes, both ways.
fn routes<'a, M: TransitionModel + ?Sized>(
    model: &'a M,
    origins: &[usize],
) -> (Blocked<'a, M>, Naive<'a, M>) {
    let n = model.node_count();
    let ensemble = DistributionEnsemble::point_masses(n, origins).expect("ensemble");
    let rows = origins
        .iter()
        .map(|&origin| {
            let mut row = vec![0.0; n];
            row[origin] = 1.0;
            row
        })
        .collect();
    let naive = Naive {
        model,
        rows,
        scratch: vec![0.0; n],
        time: 0,
    };
    (Blocked { model, ensemble }, naive)
}

/// Times `blocked` against `naive` by the protocol in the module docs and
/// prints one line.
fn compare(case: &str, rows: usize, blocked: &mut dyn Route, naive: &mut dyn Route) {
    let mut advance_blocked = || blocked.advance(ROUNDS);
    let mut advance_naive = || naive.advance(ROUNDS);
    let spreads = alternating(&mut [&mut advance_blocked as &mut dyn FnMut(), &mut advance_naive]);
    // A route the timer ran in batches has advanced more often.
    while blocked.time() < naive.time() {
        blocked.advance(ROUNDS);
    }
    while naive.time() < blocked.time() {
        naive.advance(ROUNDS);
    }
    let same = blocked
        .rows()
        .iter()
        .zip(naive.rows())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        same,
        "{case}: the blocked rows diverged from the naive rows"
    );
    let (b, v) = (spreads[0], spreads[1]);
    println!(
        "speedup: {case}, {rows} rows: blocked ensemble {b} vs naive per-origin {v} -> {:.2}x \
         (median [quartiles] of {SAMPLES} alternating advances of {ROUNDS} rounds; rows bitwise equal)",
        v.median / b.median
    );
}

fn main() {
    let graph = graph();
    let n = graph.node_count();
    let walk = TransitionMatrix::new(&graph).expect("transition");
    // Masks for the warm-up and every timed advance of a route the timer
    // runs advance by advance; the schedule holds its last mask after that.
    let schedule = OutageModel::MarkovOnOff {
        fail: 0.01,
        recover: 0.04,
    }
    .sample_schedule(n, (SAMPLES + 1) * ROUNDS, 7)
    .expect("schedule")
    .time_varying_model(&graph, 0.0)
    .expect("operator schedule");
    println!("ensemble bench: n = {n}, m = {}", graph.edge_count());
    for (case, rows) in [("unmasked", 64), ("unmasked", 8)] {
        let (mut blocked, mut naive) = routes(&walk, &origins(n, rows));
        compare(case, rows, &mut blocked, &mut naive);
    }
    let (mut blocked, mut naive) = routes(&schedule, &origins(n, 8));
    compare("masked Markov on/off", 8, &mut blocked, &mut naive);
}
