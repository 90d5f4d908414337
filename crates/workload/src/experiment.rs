//! Experiment harness: table rows for simulated experiments,
//! laptop-scale threaded-engine runs, and CSV output.

use vmqs_core::{EngineConfig, Strategy};
use vmqs_server::{QueryRecord, QueryServer, ServerConfig};
use vmqs_sim::SimReport;

/// One row of an experiment table (one configuration's aggregate results).
#[derive(Clone, Debug)]
pub struct ExpRow {
    /// Ranking strategy name.
    pub strategy: String,
    /// VM processing function.
    pub op: String,
    /// Query threads.
    pub threads: usize,
    /// Data Store budget in MB.
    pub ds_mb: u64,
    /// 95%-trimmed mean response time (virtual seconds).
    pub trimmed_response: f64,
    /// Mean response time (virtual seconds).
    pub mean_response: f64,
    /// Average achieved overlap in `[0, 1]`.
    pub avg_overlap: f64,
    /// Total time to finish the whole workload (virtual seconds).
    pub makespan: f64,
    /// Mean time queries spent blocked on executing dependencies.
    pub mean_blocked: f64,
    /// Exact cache hits.
    pub exact_hits: u64,
    /// Partial cache hits.
    pub partial_hits: u64,
}

impl ExpRow {
    /// CSV header matching [`ExpRow::to_csv`].
    pub fn csv_header() -> &'static str {
        "strategy,op,threads,ds_mb,trimmed_response_s,mean_response_s,avg_overlap,makespan_s,mean_blocked_s,exact_hits,partial_hits"
    }

    /// Serializes the row as CSV.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{:.3},{:.3},{:.4},{:.3},{:.3},{},{}",
            self.strategy,
            self.op,
            self.threads,
            self.ds_mb,
            self.trimmed_response,
            self.mean_response,
            self.avg_overlap,
            self.makespan,
            self.mean_blocked,
            self.exact_hits,
            self.partial_hits
        )
    }

    /// Builds a row from a finished simulation of any application; `op`
    /// names its processing function.
    pub fn from_report<S>(
        report: &SimReport<S>,
        strategy: Strategy,
        op: &str,
        threads: usize,
        ds_mb: u64,
    ) -> Self {
        let s = report.response_summary();
        ExpRow {
            strategy: strategy.name().to_string(),
            op: op.to_string(),
            threads,
            ds_mb,
            trimmed_response: report.trimmed_mean_response(),
            mean_response: s.mean,
            avg_overlap: report.average_overlap(),
            makespan: report.makespan,
            mean_blocked: report.mean_blocked(),
            exact_hits: report.ds_stats.exact_hits,
            partial_hits: report.ds_stats.partial_hits,
        }
    }
}

/// Runs a workload on the *real threaded engine*, emulating interactive
/// clients with one OS thread each (each waits for its previous answer
/// before submitting the next query). Returns records in completion order.
pub fn run_server_interactive(
    server: &QueryServer,
    streams: Vec<vmqs_sim::ClientStream>,
) -> Vec<QueryRecord> {
    std::thread::scope(|scope| {
        for cs in &streams {
            scope.spawn(move || {
                for q in &cs.queries {
                    // A failed query (e.g. shutdown) ends this client.
                    if server.submit(*q).wait().is_err() {
                        break;
                    }
                }
            });
        }
    });
    server.records()
}

/// Runs a workload on the real threaded engine as one batch. A query
/// that fails or times out has no record.
pub fn run_server_batch(
    server: &QueryServer,
    queries: Vec<vmqs_microscope::VmQuery>,
) -> Vec<QueryRecord> {
    for h in server.submit_batch(queries) {
        drop(h.wait());
    }
    server.records()
}

/// Convenience constructor for a laptop-scale threaded server matched to
/// [`WorkloadConfig::small`](crate::WorkloadConfig::small).
pub fn small_server(strategy: Strategy, threads: usize) -> QueryServer {
    let cfg = ServerConfig::new(
        EngineConfig::small()
            .with_strategy(strategy)
            .with_threads(threads)
            .with_ds_budget(8 << 20)
            .with_ps_budget(4 << 20),
    );
    QueryServer::new(
        cfg,
        std::sync::Arc::new(vmqs_storage::SyntheticSource::new()),
    )
}

/// Writes rows to a CSV file (creating parent directories), returning the
/// path for convenience.
pub fn write_csv(
    path: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<String> {
    use std::io::Write;
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(path.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{flatten_to_batch, generate, WorkloadConfig};
    use vmqs_microscope::VmOp;
    use vmqs_sim::{run_sim, SimConfig, SubmissionMode};

    /// One paper-scale simulated run: the §5 workload (16 clients × 16
    /// queries, 8/6/2 dataset split) under `strategy`, `op`, `threads`,
    /// and a Data Store budget of `ds_mb` megabytes.
    fn run_paper_experiment(
        strategy: Strategy,
        op: VmOp,
        threads: usize,
        ds_mb: u64,
        mode: SubmissionMode,
        seed: u64,
    ) -> (SimReport, ExpRow) {
        let streams = generate(&WorkloadConfig::paper(op, seed));
        let streams = match mode {
            SubmissionMode::Interactive => streams,
            SubmissionMode::Batch => flatten_to_batch(&streams),
        };
        let cfg = SimConfig::new(
            EngineConfig::paper_baseline()
                .with_strategy(strategy)
                .with_threads(threads)
                .with_ds_budget(ds_mb << 20),
        )
        .with_mode(mode);
        let report = run_sim(cfg, streams);
        let row = ExpRow::from_report(&report, strategy, op.name(), threads, ds_mb);
        (report, row)
    }

    #[test]
    fn paper_experiment_runs_and_summarizes() {
        let (report, row) = run_paper_experiment(
            Strategy::Fifo,
            VmOp::Subsample,
            4,
            64,
            SubmissionMode::Interactive,
            42,
        );
        assert_eq!(report.records.len(), 256);
        assert_eq!(row.threads, 4);
        assert_eq!(row.ds_mb, 64);
        assert!(row.trimmed_response > 0.0);
        assert!(row.makespan > 0.0);
        assert!((0.0..=1.0).contains(&row.avg_overlap));
    }

    #[test]
    fn caching_helps_even_fifo() {
        // The paper's E1 observation in miniature: FIFO with a data store
        // beats FIFO without one.
        let (with, _) = run_paper_experiment(
            Strategy::Fifo,
            VmOp::Subsample,
            4,
            128,
            SubmissionMode::Interactive,
            42,
        );
        let (without, _) = run_paper_experiment(
            Strategy::Fifo,
            VmOp::Subsample,
            4,
            0,
            SubmissionMode::Interactive,
            42,
        );
        assert!(
            with.makespan < without.makespan,
            "caching on ({}) must beat caching off ({})",
            with.makespan,
            without.makespan
        );
        assert!(with.average_overlap() > 0.0);
        assert_eq!(without.average_overlap(), 0.0);
    }

    #[test]
    fn row_csv_roundtrip_format() {
        let (_, row) = run_paper_experiment(
            Strategy::Sjf,
            VmOp::Average,
            2,
            32,
            SubmissionMode::Batch,
            1,
        );
        let line = row.to_csv();
        assert_eq!(
            line.split(',').count(),
            ExpRow::csv_header().split(',').count()
        );
        assert!(line.starts_with("SJF,average,2,32,"));
    }

    #[test]
    fn write_csv_creates_file() {
        let path = std::env::temp_dir()
            .join(format!("vmqs_csv_{}", std::process::id()))
            .join("test.csv");
        let p = write_csv(
            path.to_str().unwrap(),
            "a,b",
            vec!["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn threaded_interactive_run_completes() {
        let cfg = WorkloadConfig::small(VmOp::Subsample, 9);
        let streams = generate(&cfg);
        let total: usize = streams.iter().map(|s| s.queries.len()).sum();
        let server = small_server(Strategy::Cnbf, 2);
        let records = run_server_interactive(&server, streams);
        assert_eq!(records.len(), total);
        server.shutdown();
    }

    #[test]
    fn threaded_batch_run_completes() {
        let cfg = WorkloadConfig::small(VmOp::Average, 10);
        let streams = generate(&cfg);
        let queries: Vec<_> = streams.iter().flat_map(|s| s.queries.clone()).collect();
        let server = small_server(Strategy::Sjf, 2);
        let records = run_server_batch(&server, queries.clone());
        assert_eq!(records.len(), queries.len());
        assert_eq!(server.summary().completed, queries.len());
        server.shutdown();
    }

    #[test]
    fn batch_runner_returns_when_every_query_times_out() {
        let cfg = WorkloadConfig::small(VmOp::Subsample, 11);
        let queries: Vec<_> = generate(&cfg)
            .iter()
            .flat_map(|s| s.queries.clone())
            .take(6)
            .collect();
        let server = QueryServer::new(
            ServerConfig::small().with_query_timeout(Some(std::time::Duration::ZERO)),
            std::sync::Arc::new(vmqs_storage::SyntheticSource::new()),
        );
        let records = run_server_batch(&server, queries.clone());
        assert!(records.is_empty(), "a timed-out query has no record");
        let sum = server.summary();
        assert_eq!(sum.timed_out, queries.len(), "zero deadline cancels all");
        assert_eq!(sum.completed + sum.failed, 0);
        server.shutdown();
    }
}
