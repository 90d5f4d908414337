//! # vmqs-bench
//!
//! The benchmark harness: Criterion micro-benchmarks (under `benches/`)
//! and one binary per figure/table of the paper's evaluation (under
//! `src/bin/`, see DESIGN.md §4 for the experiment index).
//!
//! This library crate carries the small amount of shared code the
//! experiment binaries use: multi-seed averaging and table printing.

#![warn(missing_docs)]

use vmqs_core::Strategy;
use vmqs_microscope::VmOp;
use vmqs_sim::SubmissionMode;
use vmqs_workload::{run_paper_experiment, ExpRow};

pub mod plot;

/// Seeds every experiment averages over (the paper reports single runs;
/// averaging a few seeds makes the reproduced shapes stable).
pub const SEEDS: [u64; 3] = [42, 43, 44];

/// Runs the paper workload for each seed and averages the aggregate
/// metrics into one row.
pub fn averaged_run(
    strategy: Strategy,
    op: VmOp,
    threads: usize,
    ds_mb: u64,
    ps_mb: u64,
    mode: SubmissionMode,
) -> ExpRow {
    let rows: Vec<ExpRow> = SEEDS
        .iter()
        .map(|&seed| run_paper_experiment(strategy, op, threads, ds_mb, ps_mb, mode, seed).1)
        .collect();
    average_rows(&rows)
}

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

/// The thread counts swept by Fig. 4.
pub const FIG4_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// The Data Store sizes (MB) swept by Figs. 5–7.
pub const DS_SWEEP_MB: [u64; 5] = [32, 64, 128, 192, 256];

/// Standard Page Space budget (MB) from §5.
pub const PS_MB: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_rows_averages() {
        let (_, a) = run_paper_experiment(
            Strategy::Fifo,
            VmOp::Subsample,
            2,
            64,
            32,
            SubmissionMode::Interactive,
            42,
        );
        let mut b = a.clone();
        b.trimmed_response = a.trimmed_response + 2.0;
        b.makespan = a.makespan + 4.0;
        let avg = average_rows(&[a.clone(), b]);
        assert!((avg.trimmed_response - (a.trimmed_response + 1.0)).abs() < 1e-9);
        assert!((avg.makespan - (a.makespan + 2.0)).abs() < 1e-9);
    }
}
