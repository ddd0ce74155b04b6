//! Shared infrastructure for the experiment harness.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` named after it (`table3`, `fig4`, …); this library holds the
//! pieces they share: dataset caching with sensible default scaling, simple
//! table/CSV emitters, and the common parameter grids.  [`timer`] is the one
//! timer of the micro-benchmarks in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timer;

use network_shuffle::accountant::closed_form::AccountantParams;
use network_shuffle::accountant::NetworkShuffleAccountant;
use network_shuffle::protocol::ProtocolKind;
use ns_datasets::{Dataset, GeneratedDataset};
use std::io::Write;
use std::path::PathBuf;

/// Default δ used throughout the experiments (also the paper's choice of
/// "δ smaller than 1/n" for the populations considered).
pub const DELTA: f64 = 1e-6;

/// Seed used by all experiment binaries so results are reproducible.
pub const SEED: u64 = 20220408; // arXiv submission date of the paper.

/// The environment-independent base divisor of a dataset: the four smaller
/// graphs are generated at full scale; the Google web graph is scaled down
/// 10× (full scale is supported but takes several minutes of spectral
/// analysis).
pub fn base_scale_divisor(dataset: Dataset) -> usize {
    match dataset {
        Dataset::Google => 10,
        _ => 1,
    }
}

/// Returns the scale divisor to apply to a dataset.
///
/// Defaults to [`base_scale_divisor`].  Set `NS_BENCH_SCALE` to a positive
/// integer `k` to further divide every dataset by `k` (useful for smoke
/// tests), or to `full` to force full scale everywhere.
///
/// # Panics
///
/// Panics if `NS_BENCH_SCALE` is set to anything else.
pub fn scale_divisor(dataset: Dataset) -> usize {
    scaled_divisor(
        base_scale_divisor(dataset),
        std::env::var("NS_BENCH_SCALE").ok().as_deref(),
    )
}

/// The divisor an `NS_BENCH_SCALE` setting makes of a dataset's `base`
/// divisor; `None` is the variable unset.
fn scaled_divisor(base: usize, setting: Option<&str>) -> usize {
    match setting {
        None => base,
        Some(full) if full.eq_ignore_ascii_case("full") => 1,
        Some(k) => match k.parse::<usize>() {
            Ok(k) if k > 0 => base * k,
            _ => panic!("NS_BENCH_SCALE must be `full` or a positive integer, not {k:?}"),
        },
    }
}

/// Whether `NS_BENCH_FAST` asks for a binary's reduced smoke-run variant:
/// on for the values `NS_OBS` accepts ([`ns_obs::flag_on`]), off when unset
/// or set to anything else.
pub fn fast_mode() -> bool {
    std::env::var("NS_BENCH_FAST").is_ok_and(|v| ns_obs::flag_on(&v))
}

/// Generates (or regenerates) a dataset stand-in at the default scale.
///
/// # Panics
///
/// Panics if generation fails — experiment binaries treat that as fatal.
pub fn dataset_graph(dataset: Dataset) -> GeneratedDataset {
    let divisor = scale_divisor(dataset);
    dataset.generate_scaled(divisor, SEED).unwrap_or_else(|e| {
        panic!("failed to generate {dataset} stand-in (divisor {divisor}): {e}")
    })
}

/// A dataset stand-in paired with the privacy accountant of its ergodic
/// walk — the starting point of almost every accountant experiment.
pub struct DatasetAccountant {
    /// The generated graph plus its spec/achieved statistics.
    pub generated: GeneratedDataset,
    /// The accountant bound to `generated.graph`.
    pub accountant: NetworkShuffleAccountant,
}

impl DatasetAccountant {
    /// The dataset's display name.
    pub fn name(&self) -> &'static str {
        self.generated.spec.name
    }
}

/// Generates one dataset at the default scale and binds an accountant to
/// it — the construction boilerplate shared by the figure/ablation
/// binaries.  Emits nothing on stdout, so callers control their own
/// per-dataset log lines.
///
/// # Panics
///
/// Panics if generation fails or the stand-in is not ergodic — experiment
/// binaries treat both as fatal.
pub fn dataset_accountant(dataset: Dataset) -> DatasetAccountant {
    let generated = dataset_graph(dataset);
    let accountant = NetworkShuffleAccountant::new(&generated.graph).expect("ergodic graph");
    DatasetAccountant {
        generated,
        accountant,
    }
}

/// The largest extra divisor at which each dataset's Chung–Lu calibration
/// still hits its Table 4 irregularity target: high-Γ degree sequences
/// (Enron especially) are not realizable at small `n`, so the reproducible
/// small-scale variants clamp here instead of failing.
pub fn max_reduced_divisor(dataset: Dataset) -> usize {
    match dataset {
        Dataset::Facebook | Dataset::Deezer => 40,
        Dataset::Twitch | Dataset::Google => 20,
        Dataset::Enron => 2,
    }
}

/// [`dataset_accountant`] at an explicit, environment-independent scale:
/// the dataset is divided by `base_scale_divisor(dataset) * extra_divisor`
/// (clamped to [`max_reduced_divisor`]) regardless of `NS_BENCH_SCALE`.
/// This is the entry point of the golden figure-regression tests, which
/// need bit-reproducible small-n variants.
///
/// # Panics
///
/// See [`dataset_accountant`].
pub fn dataset_accountant_scaled(dataset: Dataset, extra_divisor: usize) -> DatasetAccountant {
    let divisor =
        base_scale_divisor(dataset) * extra_divisor.clamp(1, max_reduced_divisor(dataset));
    let generated = dataset.generate_scaled(divisor, SEED).unwrap_or_else(|e| {
        panic!("failed to generate {dataset} stand-in (divisor {divisor}): {e}")
    });
    let accountant = NetworkShuffleAccountant::new(&generated.graph).expect("ergodic graph");
    DatasetAccountant {
        generated,
        accountant,
    }
}

/// [`dataset_accountant`] over a list of datasets.
///
/// # Panics
///
/// See [`dataset_accountant`].
pub fn dataset_accountants(datasets: impl IntoIterator<Item = Dataset>) -> Vec<DatasetAccountant> {
    datasets.into_iter().map(dataset_accountant).collect()
}

/// A figure's tabular output: headers, rows and the per-dataset diagnostic
/// lines the binaries print above the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (stringified cells, one inner vec per row).
    pub rows: Vec<Vec<String>>,
    /// Free-form diagnostic lines (dataset sizes, spectral gaps, …).
    pub notes: Vec<String>,
}

impl FigTable {
    /// The exact CSV serialization [`write_csv`] would produce — the
    /// bit-for-bit comparison unit of the golden regression tests.
    pub fn csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// How a figure computation scales its datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigScale {
    /// The environment-aware default ([`scale_divisor`]).
    Default,
    /// `base_scale_divisor * k`, ignoring the environment — the
    /// reproducible small-n variant used by the golden tests.
    Reduced(usize),
}

impl FigScale {
    fn accountant(self, dataset: Dataset) -> DatasetAccountant {
        match self {
            FigScale::Default => dataset_accountant(dataset),
            FigScale::Reduced(extra) => dataset_accountant_scaled(dataset, extra),
        }
    }
}

/// The Figure 4 computation (central ε of `A_all` under the stationary
/// bound vs. communication rounds, ε₀ = 2, Facebook/Twitch/Deezer) as a
/// reusable table — the `fig4` binary prints and persists it, the golden
/// regression test pins its small-scale variant bit for bit.
pub fn fig4_table(scale: FigScale) -> FigTable {
    let epsilon_0 = 2.0;
    let datasets = [Dataset::Facebook, Dataset::Twitch, Dataset::Deezer];

    // Sweep points: log-spaced rounds up to ~2x the largest mixing time.
    let sweeps: Vec<DatasetAccountant> = datasets
        .into_iter()
        .map(|dataset| scale.accountant(dataset))
        .collect();
    let max_mixing = sweeps
        .iter()
        .map(|da| da.accountant.mixing_time())
        .max()
        .unwrap_or(0);
    let max_rounds = (2 * max_mixing).max(10);
    let checkpoints: Vec<usize> = {
        let mut t = 1usize;
        let mut out = Vec::new();
        while t <= max_rounds {
            out.push(t);
            t = ((t as f64) * 1.6).ceil() as usize;
        }
        out.push(max_rounds);
        out.dedup();
        out
    };

    let mut notes = Vec::new();
    let mut columns: Vec<Vec<(usize, f64)>> = Vec::new();
    for da in &sweeps {
        let accountant = &da.accountant;
        let params = AccountantParams::new(accountant.node_count(), epsilon_0, DELTA, DELTA)
            .expect("valid params");
        let sweep = accountant
            .epsilon_vs_rounds(
                network_shuffle::protocol::ProtocolKind::All,
                network_shuffle::accountant::Scenario::Stationary,
                &params,
                max_rounds,
            )
            .expect("sweep");
        notes.push(format!(
            "{}: n = {}, spectral gap = {:.4}, mixing time = {}",
            da.name(),
            accountant.node_count(),
            accountant.mixing_profile().spectral_gap,
            accountant.mixing_time()
        ));
        columns.push(sweep);
    }

    let mut rows = Vec::new();
    for &t in &checkpoints {
        let mut row = vec![t.to_string()];
        for column in &columns {
            row.push(fmt(column[t - 1].1));
        }
        rows.push(row);
    }

    FigTable {
        headers: std::iter::once("rounds t".to_string())
            .chain(sweeps.iter().map(|da| format!("{} eps", da.name())))
            .collect(),
        rows,
        notes,
    }
}

/// The Figure 6 computation (amplified ε vs. ε₀ for the five datasets,
/// `A_all` at each graph's mixing time) as a reusable table; see
/// [`fig4_table`] for the split between binary and golden test.
pub fn fig6_table(scale: FigScale) -> FigTable {
    let epsilon_grid = linspace(0.1, 1.2, 12);

    let accountants: Vec<DatasetAccountant> = Dataset::ALL
        .into_iter()
        .map(|dataset| scale.accountant(dataset))
        .collect();
    let notes = accountants
        .iter()
        .map(|da| {
            format!(
                "{}: n = {}, Gamma = {:.3}, mixing time = {}",
                da.name(),
                da.accountant.node_count(),
                da.generated.achieved.irregularity,
                da.accountant.mixing_time()
            )
        })
        .collect();

    let headers: Vec<String> = std::iter::once("eps0".to_string())
        .chain(accountants.iter().map(|da| format!("{} eps", da.name())))
        .collect();

    let mut rows = Vec::new();
    for &eps0 in &epsilon_grid {
        let mut row = vec![fmt(eps0)];
        for da in &accountants {
            row.push(fmt(epsilon_at_mixing_time(
                &da.accountant,
                network_shuffle::protocol::ProtocolKind::All,
                eps0,
            )));
        }
        rows.push(row);
    }

    FigTable {
        headers,
        rows,
        notes,
    }
}

/// Central ε at the graph's mixing time under the stationary bound with the
/// experiment-default δs — the sweep kernel of the ε₀-grid figures.
///
/// # Panics
///
/// Panics on parameter or accountant errors (fatal in experiment binaries).
pub fn epsilon_at_mixing_time(
    accountant: &NetworkShuffleAccountant,
    protocol: ProtocolKind,
    epsilon_0: f64,
) -> f64 {
    let params = AccountantParams::new(accountant.node_count(), epsilon_0, DELTA, DELTA)
        .expect("valid params");
    accountant
        .central_guarantee_at_mixing_time(
            protocol,
            network_shuffle::accountant::Scenario::Stationary,
            &params,
        )
        .expect("guarantee")
        .epsilon
}

/// Prints a fixed-width table with a header row and a separator.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain([h.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let render = |cells: &[String]| {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", render(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", render(row));
    }
}

/// Writes rows as a CSV file under `results/` (created on demand) and
/// returns the path.  Failures are printed but not fatal — the tables are
/// always also printed to stdout.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Option<PathBuf> {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(format!("{name}.csv"));
    let mut file = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: could not create {}: {e}", path.display());
            return None;
        }
    };
    let mut write_line = |cells: &[String]| writeln!(file, "{}", cells.join(","));
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    if write_line(&header_cells).is_err() {
        return None;
    }
    for row in rows {
        if write_line(row).is_err() {
            return None;
        }
    }
    println!("wrote results/{name}.csv");
    Some(path)
}

/// Formats a float with 4 significant-ish decimals for table cells.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// An inclusive linear grid of `points` values from `lo` to `hi`.
pub fn linspace(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    if points <= 1 {
        return vec![lo];
    }
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints() {
        let g = linspace(0.2, 2.0, 10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.2).abs() < 1e-12);
        assert!((g[9] - 2.0).abs() < 1e-12);
        assert_eq!(linspace(1.0, 2.0, 1), vec![1.0]);
    }

    #[test]
    fn fmt_covers_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(0.1234567).starts_with("0.1235"));
        assert!(fmt(12345.0).contains('e'));
        assert!(fmt(1e-7).contains('e'));
    }

    #[test]
    fn scale_settings_parse_to_divisors() {
        assert_eq!(base_scale_divisor(Dataset::Twitch), 1);
        assert_eq!(base_scale_divisor(Dataset::Google), 10);
        assert_eq!(scaled_divisor(10, None), 10);
        assert_eq!(scaled_divisor(10, Some("full")), 1);
        assert_eq!(scaled_divisor(10, Some("FULL")), 1);
        assert_eq!(scaled_divisor(1, Some("4")), 4);
        assert_eq!(scaled_divisor(10, Some("4")), 40);
    }

    #[test]
    fn unparsable_scale_settings_panic_naming_the_variable() {
        for setting in ["0", "quarter", "-4", "2.5", ""] {
            let panic =
                std::panic::catch_unwind(|| scaled_divisor(1, Some(setting))).expect_err(setting);
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains("NS_BENCH_SCALE"), "{message}");
        }
    }
}
