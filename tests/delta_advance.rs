//! Exactness of the delta-incremental ensemble advance.
//!
//! The incremental churn runtime advances tracked ensembles speculatively
//! under the operator it already holds and then repairs only the columns
//! the realized operator could have changed
//! ([`DistributionEnsemble::correct_columns`] over
//! [`ns_graph::delta::affected_columns`]).  The contract these tests pin is
//! **f64-exactness**: the corrected state equals the dense advance under
//! the realized operator bit for bit — every `f64` compared through
//! `to_bits` — across churn intensities from "nothing changed" to "every
//! row dirty" (the dense-fallback boundary), on every strategy family of
//! the shared graph zoo, in both feature configurations (the root test
//! target builds ns-graph with `parallel`, the graph crate's own CI leg
//! without).  That exactness is what lets the streaming accountant's live
//! quote stay *exact* under churn while skipping the dense propagate.
//!
//! Also here: the per-graph snapshot rebuild threshold (satellite of the
//! same change) — both extreme settings must produce identical snapshots —
//! and a blessed golden trace of the corrected ensembles
//! (`tests/golden/delta_advance.txt`, regenerate with `NS_BLESS=1`).

mod common;

use common::strategies;
use ns_graph::delta::affected_columns;
use ns_graph::dynamic::{DynamicGraph, MaskedTransition};
use ns_graph::ensemble::DistributionEnsemble;
use ns_graph::rng::seeded_rng;
use ns_graph::NodeId;
use proptest::prelude::*;
use rand::Rng;
use std::fmt::Write as _;

/// One churn wave: toggles up to `edge_moves` random edges (removals are
/// skipped when they would isolate an endpoint) and flips the availability
/// of `flips` random nodes.  Returns the **touched** set — the dirty list
/// captured *before* any snapshot plus the availability flips — exactly
/// what the runtime feeds to [`affected_columns`].
fn churn_wave<R: Rng>(
    dg: &mut DynamicGraph,
    rng: &mut R,
    edge_moves: usize,
    flips: usize,
) -> Vec<NodeId> {
    let n = dg.node_count();
    let mut flipped = Vec::new();
    for _ in 0..edge_moves {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        if dg.has_edge(u, v) {
            if dg.degree(u) > 1 && dg.degree(v) > 1 {
                dg.remove_edge(u, v).unwrap();
            }
        } else {
            dg.add_edge(u, v).unwrap();
        }
    }
    for _ in 0..flips {
        let u = rng.gen_range(0..n);
        dg.set_available(u, !dg.is_available(u)).unwrap();
        flipped.push(u);
    }
    let mut touched: Vec<NodeId> = dg.dirty_list().to_vec();
    touched.extend(flipped);
    touched
}

/// Bitwise equality of two ensembles' tracked rows.
fn rows_bitwise_equal(a: &DistributionEnsemble, b: &DistributionEnsemble) -> bool {
    a.sources() == b.sources()
        && (0..a.sources()).all(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole exactness property, over the shared zoo: for every
    /// churn intensity — including zero churn (empty correction) and the
    /// everything-dirty regime past the dense-fallback boundary — both
    /// incremental routes (sparse column correction, dense recompute from
    /// the retained pre-round state) equal the dense advance under the
    /// realized operator bit for bit, round after round.
    #[test]
    fn delta_advance_is_bitwise_the_dense_advance(
        graph in strategies::graph_zoo(30..90),
        seed in 0u64..1_000,
        laziness_pct in 0usize..40,
        churn_scale in 0usize..4,
    ) {
        let n = graph.node_count();
        prop_assume!(n >= 10);
        prop_assume!(graph.find_isolated_node().is_none());
        let laziness = laziness_pct as f64 / 100.0;
        let mut dg = DynamicGraph::from_graph(&graph).unwrap();
        let mut rng = seeded_rng(seed);
        let origins: Vec<NodeId> = (0..n).step_by(4).collect();
        let mut dense = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let mut corrected = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let mut recomputed = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let mut interleaved = DistributionEnsemble::point_masses(n, &origins).unwrap();
        let mut held: MaskedTransition = dg.masked_operator(laziness).unwrap();
        let mut prev_c = Vec::new();
        let mut prev_r = Vec::new();
        let mut prev_i = Vec::new();
        let mut prev_i_il = Vec::new();
        // churn_scale 0 leaves the operator untouched; 3 dirties most rows,
        // crossing any sensible dense-fallback threshold.
        let edge_moves = churn_scale * n / 3;
        let flips = churn_scale * 2;
        for _round in 0..5 {
            let touched = churn_wave(&mut dg, &mut rng, edge_moves, flips);
            let realized = dg.masked_operator(laziness).unwrap();
            let columns = affected_columns(dg.snapshot(), &touched);
            dense.advance_auto(&realized, 1);
            corrected.advance_corrected(&held, &realized, &columns, &mut prev_c);
            recomputed.speculate_auto(&held, &mut prev_r);
            recomputed.recompute_from(&realized, &prev_r);
            interleaved.speculate_interleaved(&held, &mut prev_i, &mut prev_i_il);
            interleaved.correct_columns_interleaved(&realized, &columns, &prev_i_il);
            prop_assert!(
                rows_bitwise_equal(&dense, &corrected),
                "sparse column correction diverged from the dense advance"
            );
            prop_assert!(
                rows_bitwise_equal(&dense, &recomputed),
                "dense recompute-from-speculation diverged from the dense advance"
            );
            prop_assert!(
                rows_bitwise_equal(&dense, &interleaved),
                "interleaved-layout correction diverged from the dense advance"
            );
            prop_assert_eq!(dense.time(), corrected.time());
            held = realized;
        }
    }
}

/// Zero churn means an empty affected set, and the correction must then be
/// a no-op on a bitwise level: speculation under the held operator already
/// *is* the realized round.
#[test]
fn empty_delta_needs_no_correction() {
    let g = ns_graph::generators::random_regular(60, 4, &mut seeded_rng(7)).unwrap();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let origins: Vec<NodeId> = (0..60).step_by(3).collect();
    let mut dense = DistributionEnsemble::point_masses(60, &origins).unwrap();
    let mut corrected = DistributionEnsemble::point_masses(60, &origins).unwrap();
    let held = dg.masked_operator(0.15).unwrap();
    let mut prev = Vec::new();
    for _ in 0..8 {
        let realized = dg.masked_operator(0.15).unwrap();
        dense.advance_auto(&realized, 1);
        corrected.advance_corrected(&held, &realized, &[], &mut prev);
        assert!(rows_bitwise_equal(&dense, &corrected));
    }
}

/// Satellite: the snapshot rebuild threshold is now a per-graph tunable,
/// and *any* setting must produce identical snapshots — `0.0` (always
/// rebuild from the adjacency lists) and `1.0` (always patch the previous
/// CSR) are the two extreme code paths.
#[test]
fn rebuild_threshold_settings_produce_identical_snapshots() {
    let g = ns_graph::generators::barabasi_albert(120, 3, &mut seeded_rng(8)).unwrap();
    let mut rebuilds = DynamicGraph::from_graph(&g)
        .unwrap()
        .with_rebuild_dirty_fraction(0.0)
        .unwrap();
    let mut patches = DynamicGraph::from_graph(&g)
        .unwrap()
        .with_rebuild_dirty_fraction(1.0)
        .unwrap();
    assert_eq!(rebuilds.rebuild_dirty_fraction(), 0.0);
    assert_eq!(patches.rebuild_dirty_fraction(), 1.0);
    assert_eq!(
        DynamicGraph::from_graph(&g)
            .unwrap()
            .rebuild_dirty_fraction(),
        ns_graph::dynamic::REBUILD_DIRTY_FRACTION
    );
    let mut rng = seeded_rng(9);
    for _wave in 0..6 {
        // Same deterministic edit stream applied to both graphs.
        let ops: Vec<(usize, usize)> = (0..40)
            .map(|_| (rng.gen_range(0..120), rng.gen_range(0..120)))
            .collect();
        for &(u, v) in &ops {
            if u == v {
                continue;
            }
            for dg in [&mut rebuilds, &mut patches] {
                if dg.has_edge(u, v) {
                    if dg.degree(u) > 1 && dg.degree(v) > 1 {
                        dg.remove_edge(u, v).unwrap();
                    }
                } else {
                    dg.add_edge(u, v).unwrap();
                }
            }
        }
        assert_eq!(rebuilds.snapshot(), patches.snapshot());
    }
    // The knob validates its range.
    assert!(DynamicGraph::from_graph(&g)
        .unwrap()
        .with_rebuild_dirty_fraction(1.5)
        .is_err());
    assert!(DynamicGraph::from_graph(&g)
        .unwrap()
        .with_rebuild_dirty_fraction(f64::NAN)
        .is_err());
}

const GOLDEN_PATH: &str = "tests/golden/delta_advance.txt";

/// Blessed goldens for the delta advance: a fixed churn scenario records,
/// per round, the affected-column set and every corrected tracked row as
/// raw f64 bit patterns.  The builder *also* asserts the corrected state
/// equals the dense advance, so the golden file doubles as checked-in
/// evidence of the exactness contract on a concrete trace (regenerate with
/// `NS_BLESS=1 cargo test --test delta_advance`).
fn build_delta_trace() -> String {
    let mut out = String::new();
    let g = ns_graph::generators::barabasi_albert(64, 3, &mut seeded_rng(21)).unwrap();
    let n = g.node_count();
    let mut dg = DynamicGraph::from_graph(&g).unwrap();
    let origins: Vec<NodeId> = (0..n).step_by(5).collect();
    let mut dense = DistributionEnsemble::point_masses(n, &origins).unwrap();
    let mut corrected = DistributionEnsemble::point_masses(n, &origins).unwrap();
    let mut held = dg.masked_operator(0.2).unwrap();
    let mut prev = Vec::new();
    let mut rng = seeded_rng(22);
    writeln!(out, "# delta-advance goldens n={n} laziness=0.2").unwrap();
    for round in 1..=5 {
        let touched = churn_wave(&mut dg, &mut rng, 10, 3);
        let realized = dg.masked_operator(0.2).unwrap();
        let columns = affected_columns(dg.snapshot(), &touched);
        dense.advance_auto(&realized, 1);
        corrected.advance_corrected(&held, &realized, &columns, &mut prev);
        assert!(
            rows_bitwise_equal(&dense, &corrected),
            "golden scenario lost exactness at round {round}"
        );
        write!(out, "round {round} columns").unwrap();
        for &c in &columns {
            write!(out, " {c}").unwrap();
        }
        out.push('\n');
        for (r, _) in origins.iter().enumerate() {
            write!(out, "round {round} row {r}").unwrap();
            for &p in corrected.row(r) {
                write!(out, " {:016x}", p.to_bits()).unwrap();
            }
            out.push('\n');
        }
        held = realized;
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

    /// The masked operator's fused pull kernel, directly: every lane of an
    /// interleaved step — written back interleaved and written row-major —
    /// is bitwise the scalar scatter reference
    /// ([`MaskedTransition::propagate_into`]), compared through `to_bits`
    /// so a `-0.0` for `0.0` would fail.  Covers lane counts 1–9 and 16
    /// (every compile-time width and ragged split), laziness 0 and 0.15,
    /// and masks from all-available to all-dark with dark point-mass
    /// origins, over three evolving steps from point masses mixed with
    /// dense random rows.
    #[test]
    fn masked_pull_kernel_matches_the_scalar_scatter_per_lane(
        graph in strategies::graph_zoo(20..70),
        seed in 0u64..1_000,
    ) {
        use ns_graph::transition::TransitionModel;
        let n = graph.node_count();
        prop_assume!(n >= 4);
        prop_assume!(graph.find_isolated_node().is_none());
        let mut rng = seeded_rng(seed);
        for laziness in [0.0, 0.15] {
            for dark in [0.0, 0.2, 0.7, 1.0] {
                for lanes in (1..=9).chain([16]) {
                    // Lanes alternate between point masses and dense random
                    // distributions; the first origin is always dark unless
                    // the mask is all-available.
                    let origins: Vec<NodeId> = (0..lanes).map(|_| rng.gen_range(0..n)).collect();
                    let mut mask: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() >= dark).collect();
                    if dark > 0.0 {
                        mask[origins[0]] = false;
                    }
                    let op = MaskedTransition::new(&graph, mask, laziness).unwrap();
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
                    for step in 0..3 {
                        let flat: Vec<f64> = rows.concat();
                        let mut input = Vec::new();
                        ns_graph::ensemble::interleave_rows(lanes, n, &flat, &mut input);
                        let mut interleaved = vec![f64::NAN; lanes * n];
                        op.propagate_interleaved(lanes, &input, &mut interleaved);
                        let mut row_major = vec![f64::NAN; lanes * n];
                        op.propagate_round_interleaved_rows(0, lanes, &input, &mut row_major);
                        for (lane, row) in rows.iter_mut().enumerate() {
                            let mut want = vec![f64::NAN; n];
                            op.propagate_into(row, &mut want);
                            for (i, w) in want.iter().enumerate() {
                                prop_assert_eq!(
                                    w.to_bits(),
                                    interleaved[i * lanes + lane].to_bits(),
                                    "interleaved lane {} of {} diverged at node {} (step {}, dark {}, laziness {})",
                                    lane, lanes, i, step, dark, laziness
                                );
                                prop_assert_eq!(
                                    w.to_bits(),
                                    row_major[lane * n + i].to_bits(),
                                    "row-major lane {} of {} diverged at node {} (step {}, dark {}, laziness {})",
                                    lane, lanes, i, step, dark, laziness
                                );
                            }
                            *row = want;
                        }
                    }
                }
            }
        }
    }
}

/// The column form of every operator equals the dense kernel column by
/// column — directly, without the ensemble on top (the contract
/// [`ns_graph::transition::TransitionModel::propagate_round_columns`]
/// documents).
#[test]
fn per_column_kernels_match_the_dense_kernels_bitwise() {
    use ns_graph::transition::{TransitionMatrix, TransitionModel};
    let g = ns_graph::generators::random_regular(50, 6, &mut seeded_rng(31)).unwrap();
    let n = g.node_count();
    let p: Vec<f64> = {
        let mut rng = seeded_rng(32);
        let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|x| x / total).collect()
    };
    let mask: Vec<bool> = (0..n).map(|u| u % 5 != 0).collect();
    let lazy = TransitionMatrix::with_laziness(&g, 0.3).unwrap();
    let masked = MaskedTransition::new(&g, mask, 0.3).unwrap();
    let all_columns: Vec<NodeId> = (0..n).collect();
    for model in [&lazy as &dyn TransitionModel, &masked] {
        let mut full = vec![0.0f64; n];
        model.propagate_round_into(0, &p, &mut full);
        let mut cols = vec![0.0f64; n];
        model.propagate_round_columns(0, &p, &mut cols, &all_columns);
        for (j, (a, b)) in full.iter().zip(&cols).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "column {j} diverged between the dense and per-column kernels"
            );
        }
        // The row-blocked form equals the per-row form bit for bit — at
        // every block-remainder shape (1 row, full blocks, ragged tail).
        for rows in [1usize, 3, 8, 11] {
            let block: Vec<f64> = (0..rows)
                .flat_map(|r| p.iter().map(move |&x| x / (r + 1) as f64))
                .collect();
            let mut per_row = vec![0.0f64; rows * n];
            for (prev_row, out_row) in block.chunks(n).zip(per_row.chunks_mut(n)) {
                model.propagate_round_columns(0, prev_row, out_row, &all_columns);
            }
            let mut blocked = vec![0.0f64; rows * n];
            model.propagate_round_columns_rows(0, rows, &block, &mut blocked, &all_columns);
            for (i, (a, b)) in per_row.iter().zip(&blocked).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "entry {i} diverged between per-row and row-blocked kernels ({rows} rows)"
                );
            }
            // ... and so does the interleaved-input form, whose transpose is
            // a pure copy.
            let mut block_il = Vec::new();
            ns_graph::ensemble::interleave_rows(rows, n, &block, &mut block_il);
            for (r, row) in block.chunks(n).enumerate() {
                for (i, &x) in row.iter().enumerate() {
                    assert_eq!(x.to_bits(), block_il[i * rows + r].to_bits());
                }
            }
            let mut il_out = vec![0.0f64; rows * n];
            model.propagate_round_columns_rows_interleaved(
                0,
                rows,
                &block_il,
                &mut il_out,
                &all_columns,
            );
            for (i, (a, b)) in per_row.iter().zip(&il_out).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "entry {i} diverged between per-row and interleaved kernels ({rows} rows)"
                );
            }
        }
    }
}
