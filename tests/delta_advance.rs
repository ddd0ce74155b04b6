//! The dense masked ensemble advance under edge churn.
//!
//! A churning deployment evolves its tracked distributions one dense round
//! at a time under each round's realized masked walk operator
//! ([`TransitionMatrix::masked`]).  These tests pin that path and the
//! layers under it:
//!
//! * a blessed golden trace (`tests/golden/delta_advance.txt`, regenerate
//!   with `NS_BLESS=1`): a fixed churn scenario records, per round, the
//!   columns the round's edits can reach and every tracked row as raw f64
//!   bit patterns;
//! * the walk operator's pull kernel, masked and unmasked, in the bodies
//!   the host dispatches to (on x86-64, 8-lane runs take AVX-512F or AVX2;
//!   `transition.rs`'s unit tests call every body the host runs), over
//!   whole blocks and destination ranges, lane by lane against the scalar
//!   scatter reference;
//! * [`DynamicGraph`] snapshots after a small and a large wave of edits
//!   against a from-scratch build of the same edge set.

mod common;

use common::strategies;
use ns_graph::dynamic::DynamicGraph;
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::rng::seeded_rng;
use ns_graph::transition::TransitionMatrix;
use ns_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One churn wave: toggles up to `edge_moves` random edges (removals are
/// skipped when they would isolate an endpoint) and flips the availability
/// of `flips` random nodes.  Returns the **touched** nodes: both endpoints
/// of every edit applied, plus every flipped node.
fn churn_wave<R: Rng>(
    dg: &mut DynamicGraph,
    rng: &mut R,
    edge_moves: usize,
    flips: usize,
) -> Vec<NodeId> {
    let n = dg.node_count();
    let mut touched = Vec::new();
    for _ in 0..edge_moves {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let applied = if dg.has_edge(u, v) {
            dg.degree(u) > 1 && dg.degree(v) > 1 && dg.remove_edge(u, v).unwrap()
        } else {
            dg.add_edge(u, v).unwrap()
        };
        if applied {
            touched.extend([u, v]);
        }
    }
    for _ in 0..flips {
        let u = rng.gen_range(0..n);
        dg.set_available(u, !dg.is_available(u)).unwrap();
        touched.push(u);
    }
    touched
}

/// The columns a wave can change: the touched nodes plus their neighbours
/// in the realized `snapshot`, sorted and deduplicated.
fn touched_columns(snapshot: &Graph, touched: &[NodeId]) -> Vec<NodeId> {
    let mut columns = touched.to_vec();
    for &u in touched {
        columns.extend(snapshot.neighbors(u).iter().map(|&v| v as NodeId));
    }
    columns.sort_unstable();
    columns.dedup();
    columns
}

/// The snapshot after a small wave of edits and after a large one, each
/// equal to a from-scratch build of the edge set the test maintains.
#[test]
fn snapshots_match_a_from_scratch_build_after_each_wave() {
    let g = ns_graph::generators::barabasi_albert(120, 3, &mut seeded_rng(8)).unwrap();
    let n = g.node_count();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
    let mut rng = seeded_rng(9);
    for (wave, edits) in [(0, 6), (1, 120)] {
        for _ in 0..edits {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            let edge = (u.min(v), u.max(v));
            if edges.contains(&edge) {
                if dg.degree(u) > 1 && dg.degree(v) > 1 {
                    assert!(dg.remove_edge(u, v).unwrap());
                    edges.remove(&edge);
                }
            } else {
                assert!(dg.add_edge(u, v).unwrap());
                edges.insert(edge);
            }
        }
        let expected = Graph::from_edges(n, &edges.iter().copied().collect::<Vec<_>>()).unwrap();
        assert_eq!(dg.snapshot(), &expected, "wave {wave}");
        assert_eq!(dg.edge_count(), edges.len());
    }
}

const GOLDEN_PATH: &str = "tests/golden/delta_advance.txt";

/// Blessed goldens for the dense masked advance under churn: a fixed churn
/// scenario records, per round, the columns the round's edits can reach
/// and every tracked row after the dense advance under the round's
/// realized operator, as raw f64 bit patterns (regenerate with
/// `NS_BLESS=1 cargo test --test delta_advance`).
fn build_delta_trace() -> String {
    let mut out = String::new();
    let g = ns_graph::generators::barabasi_albert(64, 3, &mut seeded_rng(21)).unwrap();
    let n = g.node_count();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let origins: Vec<NodeId> = (0..n).step_by(5).collect();
    let mut dense = DistributionEnsemble::point_masses(n, &origins).unwrap();
    let mut rng = seeded_rng(22);
    writeln!(out, "# delta-advance goldens n={n} laziness=0.2").unwrap();
    for round in 1..=5 {
        let touched = churn_wave(&mut dg, &mut rng, 10, 3);
        let realized = dg.masked_operator(0.2).unwrap();
        let columns = touched_columns(dg.snapshot(), &touched);
        dense.advance(&realized, 1);
        write!(out, "round {round} columns").unwrap();
        for &c in &columns {
            write!(out, " {c}").unwrap();
        }
        out.push('\n');
        for (r, row) in dense.row_groups(&[0, origins.len()])[0]
            .chunks(n)
            .enumerate()
        {
            write!(out, "round {round} row {r}").unwrap();
            for &p in row {
                write!(out, " {:016x}", p.to_bits()).unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn delta_advance_reproduces_blessed_goldens() {
    let trace = build_delta_trace();
    if std::env::var("NS_BLESS").is_ok() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(GOLDEN_PATH, &trace).unwrap();
        eprintln!("blessed {GOLDEN_PATH} ({} bytes)", trace.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|_| {
        panic!("{GOLDEN_PATH} missing; regenerate with NS_BLESS=1 from a proven-exact build")
    });
    for (line_no, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "delta trace diverged from the goldens at line {}",
            line_no + 1
        );
    }
    assert_eq!(
        trace.lines().count(),
        golden.lines().count(),
        "delta trace length diverged from the golden file"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The walk operator's range kernel, directly: every lane of an
    /// interleaved step — the whole block (the range `0..n`), and
    /// destination ranges of it (empty, one node, ending at `n`, and one
    /// drawn at random), each written as its own interleaved chunk — is
    /// bitwise the scalar scatter reference
    /// ([`TransitionModel::propagate_round_into`]), compared through
    /// `to_bits` so a `-0.0` for `0.0` would fail.  Covers lane counts 1–9
    /// and 16 (every compile-time width and ragged split; 8-lane runs take
    /// the body this host dispatches to, and `transition.rs`'s unit tests
    /// call every body the host runs directly), laziness 0 and 0.15, no
    /// mask, and masks from all-available to all-dark with dark point-mass
    /// origins, each step prepared through `prepare_round`, over three
    /// evolving steps from point masses mixed with dense random rows.
    #[test]
    fn pull_kernel_matches_the_scalar_scatter_per_lane(
        graph in strategies::graph_zoo(20..70),
        seed in 0u64..1_000,
    ) {
        use ns_graph::transition::{DarkCounts, TransitionModel};
        let n = graph.node_count();
        prop_assume!(n >= 4);
        prop_assume!(graph.find_isolated_node().is_none());
        let mut rng = seeded_rng(seed);
        for laziness in [0.0, 0.15] {
            // `None` is the unmasked operator.
            for dark in [None, Some(0.0), Some(0.2), Some(0.7), Some(1.0)] {
                for lanes in (1..=9).chain([16]) {
                    // Lanes alternate between point masses and dense random
                    // distributions; the first origin is always dark unless
                    // the mask is all-available.
                    let origins: Vec<NodeId> = (0..lanes).map(|_| rng.gen_range(0..n)).collect();
                    let op = match dark {
                        None => TransitionMatrix::with_laziness(&graph, laziness).unwrap(),
                        Some(dark) => {
                            let mut mask: Vec<bool> =
                                (0..n).map(|_| rng.gen::<f64>() >= dark).collect();
                            if dark > 0.0 {
                                mask[origins[0]] = false;
                            }
                            TransitionMatrix::masked(&graph, mask, laziness).unwrap()
                        }
                    };
                    let mut rows: Vec<Vec<f64>> = origins
                        .iter()
                        .enumerate()
                        .map(|(lane, &origin)| {
                            let mut row = vec![0.0; n];
                            if lane % 2 == 0 {
                                row[origin] = 1.0;
                            } else {
                                for x in row.iter_mut() {
                                    *x = if rng.gen::<f64>() < 0.3 { 0.0 } else { rng.gen::<f64>() };
                                }
                                let total: f64 = row.iter().sum();
                                row.iter_mut().for_each(|x| *x /= total);
                            }
                            row
                        })
                        .collect();
                    let mut counts = DarkCounts::default();
                    for step in 0..3 {
                        let input: Vec<f64> =
                            (0..n).flat_map(|i| rows.iter().map(move |row| row[i])).collect();
                        op.prepare_round(step, &mut counts);
                        let mut block = vec![f64::NAN; lanes * n];
                        op.propagate_round_interleaved_range(0, lanes, &input, 0..n, &mut block, &counts);
                        let (a, b) = (rng.gen_range(0..n + 1), rng.gen_range(0..n + 1));
                        let one = rng.gen_range(0..n);
                        let mut outputs = vec![(0..n, block)];
                        for nodes in [a..a, one..one + 1, a.min(b)..n, a.min(b)..a.max(b)] {
                            let mut chunk = vec![f64::NAN; nodes.len() * lanes];
                            op.propagate_round_interleaved_range(0, lanes, &input, nodes.clone(), &mut chunk, &counts);
                            outputs.push((nodes, chunk));
                        }
                        for (lane, row) in rows.iter_mut().enumerate() {
                            let mut want = vec![f64::NAN; n];
                            op.propagate_round_into(0, row, &mut want);
                            for (nodes, out) in &outputs {
                                for j in nodes.clone() {
                                    prop_assert_eq!(
                                        want[j].to_bits(),
                                        out[(j - nodes.start) * lanes + lane].to_bits(),
                                        "destinations {:?}: lane {} of {} diverged at node {} (step {}, dark {:?}, laziness {})",
                                        nodes, lane, lanes, j, step, dark, laziness
                                    );
                                }
                            }
                            *row = want;
                        }
                    }
                }
            }
        }
    }
}
