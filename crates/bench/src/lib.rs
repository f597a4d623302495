//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `experiments` binary (see `src/bin/experiments.rs`) drives the
//! sweeps; this library provides dataset handles, a method registry, and
//! plain-text table rendering so every figure prints the same rows/series
//! the paper plots.

#![warn(missing_docs)]

pub mod compare;

use partsj::partsj_join;
use std::time::Duration;
use tsj_datagen::{
    collection_stats, sentiment_like, swissprot_like, synthetic, treebank_like, CollectionStats,
    SyntheticParams,
};
use tsj_ted::JoinOutcome;
use tsj_tree::Tree;

/// The four evaluation datasets of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Swissprot-like: 100K flat medium trees in the paper.
    Swissprot,
    /// Treebank-like: 50K small deep trees.
    Treebank,
    /// Sentiment-like: 10K binarized sentiment parses.
    Sentiment,
    /// Zaki-style synthetic trees with Table 1 defaults.
    Synthetic,
}

impl Dataset {
    /// All four datasets in the paper's presentation order.
    pub const ALL: [Dataset; 4] = [
        Dataset::Swissprot,
        Dataset::Treebank,
        Dataset::Sentiment,
        Dataset::Synthetic,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Swissprot => "Swissprot",
            Dataset::Treebank => "Treebank",
            Dataset::Sentiment => "Sentiment",
            Dataset::Synthetic => "Synthetic",
        }
    }

    /// Paper cardinality of the full dataset.
    pub fn paper_cardinality(self) -> usize {
        match self {
            Dataset::Swissprot => 100_000,
            Dataset::Treebank => 50_000,
            Dataset::Sentiment => 10_000,
            Dataset::Synthetic => 10_000,
        }
    }

    /// Harness default cardinality (laptop scale; multiply with `--scale`).
    pub fn default_cardinality(self) -> usize {
        match self {
            Dataset::Swissprot => 2_000,
            Dataset::Treebank => 1_500,
            Dataset::Sentiment => 1_000,
            Dataset::Synthetic => 1_000,
        }
    }

    /// Generates `n` trees deterministically.
    pub fn generate(self, n: usize, seed: u64) -> Vec<Tree> {
        match self {
            Dataset::Swissprot => swissprot_like(n, seed),
            Dataset::Treebank => treebank_like(n, seed),
            Dataset::Sentiment => sentiment_like(n, seed),
            Dataset::Synthetic => synthetic(n, &SyntheticParams::default(), seed),
        }
    }

    /// The statistics the paper reports for the dataset:
    /// `(avg size, #labels, avg depth, max depth)`.
    pub fn paper_stats(self) -> (f64, usize, f64, u32) {
        match self {
            Dataset::Swissprot => (62.37, 84, 2.65, 4),
            Dataset::Treebank => (45.12, 218, 6.93, 35),
            Dataset::Sentiment => (37.31, 5, 10.84, 30),
            Dataset::Synthetic => (80.0, 20, 5.0, 5),
        }
    }
}

/// One join method registered with the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The STR baseline (traversal-string bound).
    Str,
    /// The SET baseline (binary branch bound).
    Set,
    /// PartSJ, the paper's method (`PRT` in the figures).
    Prt,
}

impl Method {
    /// The three compared methods in the paper's order.
    pub const ALL: [Method; 3] = [Method::Str, Method::Set, Method::Prt];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Method::Str => "STR",
            Method::Set => "SET",
            Method::Prt => "PRT",
        }
    }

    /// Runs the method.
    pub fn run(self, trees: &[Tree], tau: u32) -> JoinOutcome {
        match self {
            Method::Str => tsj_baselines::str_join(trees, tau),
            Method::Set => tsj_baselines::set_join(trees, tau),
            Method::Prt => partsj_join(trees, tau),
        }
    }
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// One stage's counter from a stats breakdown; `0` when the method ran
/// without that stage (the STR/SET baselines, or a disabled toggle).
pub fn stage_count(stats: &tsj_ted::JoinStats, stage: &str) -> u64 {
    stats
        .stage_counts
        .iter()
        .find(|c| c.stage == stage)
        .map_or(0, |c| c.count)
}

/// Renders rows as an aligned plain-text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let mut out = String::new();
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Realized-vs-paper statistics row for the dataset description table.
pub fn stats_row(dataset: Dataset, stats: &CollectionStats) -> Vec<String> {
    let (p_size, p_labels, p_depth, p_max) = dataset.paper_stats();
    vec![
        dataset.name().to_string(),
        format!("{}", stats.cardinality),
        format!("{:.2} (paper {:.2})", stats.avg_size, p_size),
        format!("{} (paper {})", stats.distinct_labels, p_labels),
        format!("{:.2} (paper {:.2})", stats.avg_depth, p_depth),
        format!("{} (paper {})", stats.max_depth, p_max),
    ]
}

/// Convenience wrapper: generate a dataset and compute its stats.
pub fn dataset_with_stats(dataset: Dataset, n: usize, seed: u64) -> (Vec<Tree>, CollectionStats) {
    let trees = dataset.generate(n, seed);
    let stats = collection_stats(&trees);
    (trees, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_generate() {
        for dataset in Dataset::ALL {
            let trees = dataset.generate(40, 1);
            assert_eq!(trees.len(), 40);
        }
    }

    #[test]
    fn methods_agree_on_tiny_input() {
        let trees = Dataset::Synthetic.generate(60, 3);
        let expected = Method::Prt.run(&trees, 2);
        for method in [Method::Str, Method::Set] {
            assert_eq!(method.run(&trees, 2).pairs, expected.pairs);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let table = render_table(
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('a'));
    }
}
