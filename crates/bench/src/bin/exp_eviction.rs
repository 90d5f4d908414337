//! Ablation: Data Store eviction policy (LRU vs largest-first vs MRU)
//! under the scarce-cache configuration where eviction decisions matter
//! most.

use vmqs_bench::{average_rows, print_table, PS_MB, SEEDS};
use vmqs_core::Strategy;
use vmqs_datastore::EvictionPolicy;
use vmqs_microscope::VmOp;
use vmqs_sim::{run_sim, SimConfig, SubmissionMode};
use vmqs_workload::{generate, write_csv, ExpRow, WorkloadConfig};

fn run(op: VmOp, policy: EvictionPolicy) -> ExpRow {
    let rows: Vec<ExpRow> = SEEDS
        .iter()
        .map(|&seed| {
            let streams = generate(&WorkloadConfig::paper(op, seed));
            let cfg = SimConfig::paper_baseline()
                .with_strategy(Strategy::Cnbf)
                .with_threads(4)
                .with_ds_budget(32 << 20)
                .with_ps_budget(PS_MB << 20)
                .with_mode(SubmissionMode::Interactive)
                .with_cache_policy(policy);
            let report = run_sim(cfg, streams);
            ExpRow::from_report(&report, Strategy::Cnbf, op, 4, 32)
        })
        .collect();
    average_rows(&rows)
}

fn main() {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for op in [VmOp::Subsample, VmOp::Average] {
        for (name, policy) in [
            ("LRU", EvictionPolicy::Lru),
            ("LargestFirst", EvictionPolicy::LargestFirst),
            ("MRU", EvictionPolicy::Mru),
        ] {
            let row = run(op, policy);
            csv.push(format!("{name},{}", row.to_csv()));
            rows.push(vec![
                name.to_string(),
                op.name().to_string(),
                format!("{:.2}", row.trimmed_response),
                format!("{:.1}", row.makespan),
                format!("{:.3}", row.avg_overlap),
                row.exact_hits.to_string(),
            ]);
        }
    }
    print_table(
        "Ablation: DS eviction policy (CNBF, DS = 32 MB, 4 threads)",
        &[
            "policy",
            "op",
            "t-mean resp (s)",
            "makespan (s)",
            "overlap",
            "exact hits",
        ],
        &rows,
    );
    write_csv(
        "results/exp_eviction.csv",
        &format!("policy,{}", ExpRow::csv_header()),
        csv,
    )
    .expect("write csv");
    println!("wrote results/exp_eviction.csv");
}
