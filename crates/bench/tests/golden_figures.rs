//! Golden-figure regression tests: small-n variants of the Figure 4 and
//! Figure 6 computations are regenerated inside `cargo test` and compared
//! **bit for bit** against checked-in CSVs, so accountant refactors cannot
//! silently shift the paper outputs.
//!
//! The variants run at [`FigScale::Reduced`]`(40)` — every dataset divided
//! as far as its Chung–Lu calibration allows (`max_reduced_divisor`),
//! independent of the `NS_BENCH_SCALE` environment override — and the whole
//! pipeline is deterministic: seeded generators, deterministic spectral
//! iteration and closed-form accounting.
//!
//! To regenerate after an *intentional* change, write
//! `fig4_table(FigScale::Reduced(40)).csv_string()` (and the fig6
//! equivalent) over the files in `tests/golden/` and review the diff.

use ns_bench::{fig4_table, fig6_table, FigScale};

/// Line-by-line comparison so a drift points at the first diverging row
/// instead of dumping two whole CSVs.
fn assert_csv_matches(actual: &str, golden: &str, name: &str) {
    for (line, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "{name}: line {} diverged from the golden CSV",
            line + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{name}: row count diverged from the golden CSV"
    );
}

#[test]
fn fig4_small_scale_matches_golden_csv() {
    let table = fig4_table(FigScale::Reduced(40));
    assert_csv_matches(
        &table.csv_string(),
        include_str!("golden/fig4_reduced40.csv"),
        "fig4",
    );
}

#[test]
fn fig6_small_scale_matches_golden_csv() {
    let table = fig6_table(FigScale::Reduced(40));
    assert_csv_matches(
        &table.csv_string(),
        include_str!("golden/fig6_reduced40.csv"),
        "fig6",
    );
}
