//! # vmqs-bench
//!
//! The benchmark harness: Criterion micro-benchmarks (under `benches/`),
//! the `experiments` driver that regenerates every table and chart of
//! the evaluation under `results/` (see DESIGN.md §4 and §4b for the
//! experiment index), and beside it in `src/bin/` the `bench_e2e`
//! throughput benchmark and the repo benchmark (`vmqs_benchmark/`).
//!
//! This library crate carries the small amount of shared code the
//! driver uses: seed averaging, table printing and SVG charts.

#![warn(missing_docs)]

use vmqs_workload::ExpRow;

pub mod plot;

/// Seeds every experiment averages over (the paper reports single runs;
/// averaging a few seeds makes the reproduced shapes stable).
pub const SEEDS: [u64; 3] = [42, 43, 44];

/// Averages the numeric fields of several rows (labels come from the
/// first).
pub fn average_rows(rows: &[ExpRow]) -> ExpRow {
    assert!(!rows.is_empty());
    let n = rows.len() as f64;
    let mut out = rows[0].clone();
    out.trimmed_response = rows.iter().map(|r| r.trimmed_response).sum::<f64>() / n;
    out.mean_response = rows.iter().map(|r| r.mean_response).sum::<f64>() / n;
    out.avg_overlap = rows.iter().map(|r| r.avg_overlap).sum::<f64>() / n;
    out.makespan = rows.iter().map(|r| r.makespan).sum::<f64>() / n;
    out.mean_blocked = rows.iter().map(|r| r.mean_blocked).sum::<f64>() / n;
    out.exact_hits = (rows.iter().map(|r| r.exact_hits).sum::<u64>() as f64 / n) as u64;
    out.partial_hits = (rows.iter().map(|r| r.partial_hits).sum::<u64>() as f64 / n) as u64;
    out
}

/// Prints a titled fixed-width table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_rows_averages() {
        let a = ExpRow {
            strategy: "FIFO".to_string(),
            op: "subsample".to_string(),
            threads: 2,
            ds_mb: 64,
            trimmed_response: 1.5,
            mean_response: 2.0,
            avg_overlap: 0.25,
            makespan: 30.0,
            mean_blocked: 0.5,
            exact_hits: 10,
            partial_hits: 4,
        };
        let b = ExpRow {
            trimmed_response: a.trimmed_response + 2.0,
            makespan: a.makespan + 4.0,
            exact_hits: a.exact_hits + 3,
            ..a.clone()
        };
        let avg = average_rows(&[a.clone(), b]);
        assert!((avg.trimmed_response - (a.trimmed_response + 1.0)).abs() < 1e-9);
        assert!((avg.makespan - (a.makespan + 2.0)).abs() < 1e-9);
        // Counts are averaged and truncated.
        assert_eq!((avg.exact_hits, avg.partial_hits), (11, 4));
        assert_eq!((avg.strategy.as_str(), avg.threads), ("FIFO", 2));
    }
}
