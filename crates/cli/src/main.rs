//! `vmqsctl` — command-line interface to the VMQS reproduction.
//!
//! ```text
//! vmqsctl render    render a microscope region through the real server to a PPM
//! vmqsctl mip       render a volume projection to a PGM
//! vmqsctl simulate  run a paper-scale simulated experiment and print the summary
//! vmqsctl demo      a short guided tour of the multi-query optimizations
//! ```

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
vmqsctl — multi-query scheduling for data visualization workloads

USAGE:
  vmqsctl render   --x N --y N --w N --h N [--zoom N] [--op subsample|average]
                   [--slide-width N] [--slide-height N] [--out FILE.ppm]
                   [--strategy NAME] [--graft]
                   [--cache-policy lru|cost] [--spill-dir DIR]
                   [--tier2-budget MB]
                   [--fault-rate F] [--fault-seed N] [--query-timeout-ms N]
                   [--max-pending N] [--client-rate QPS]
                   [--degrade-threshold F] [--shed-threshold F]
                   [--hang-timeout-ms N] [--restart-budget N]
                   [--quarantine-limit N] [--chaos-seed N]
                   [--chaos-poison-rate F] [--chaos-panic-at N]
                   [--trace-out FILE.json] [--metrics-out FILE.prom]
      Render a Virtual Microscope window through the real threaded server
      (deterministic synthetic slide data). --fault-rate injects seeded
      transient read faults (retried with bounded backoff);
      --query-timeout-ms cancels the query at its deadline. --trace-out
      writes the typed scheduler-event log as JSON; --metrics-out writes
      the metrics registry in Prometheus text format. --max-pending bounds
      the admission queue (excess submissions are rejected with a
      retry-after hint); --client-rate caps each client's sustained
      queries/second; --degrade-threshold and --shed-threshold set the
      pressure levels (0..1, against the --max-pending bound) at which
      queries are downgraded to their cheaper plan or shed. --graft lets
      queries subscribe to in-flight producers instead of recomputing.
      --cache-policy picks the Data Store eviction policy ('cost' keeps
      the entries that save the most recomputation per byte); --spill-dir
      enables the restorable tier-2 spill store in that directory,
      capped at --tier2-budget MB (default 64). --hang-timeout-ms cancels
      a query whose execution outlives it; --restart-budget bounds the
      replacement workers spawned after compute panics (default 8), and
      --quarantine-limit the panics one query may cause before it fails
      (default 3). --chaos-poison-rate makes that share of queries panic
      on every attempt and --chaos-panic-at panics the Nth compute, both
      drawn from --chaos-seed (default 42).

  vmqsctl mip      --x N --y N --w N --h N --z0 N --z1 N [--lod N]
                   [--op mip|avgproj] [--out FILE.pgm]
      Render a 3-D volume projection through the real kernels.

  vmqsctl simulate [--strategy FIFO|MUF|FF|CF|CNBF|SJF|HYBRID]
                   [--graft] [--op subsample|average]
                   [--threads N] [--ds-mb N] [--ps-mb N] [--seed N] [--batch]
                   [--cache-policy lru|cost] [--tier2-budget MB]
                   [--fault-rate F] [--fault-seed N]
                   [--max-pending N] [--client-rate QPS]
                   [--degrade-threshold F] [--shed-threshold F]
                   [--hang-timeout-ms N] [--restart-budget N]
                   [--quarantine-limit N] [--chaos-seed N]
                   [--chaos-poison-rate F] [--chaos-panic-at N]
                   [--trace-out FILE.json] [--metrics-out FILE.prom]
      Run the paper's 16-client x 16-query workload in the discrete-event
      simulator and print the summary row. --fault-rate charges seeded
      transient faults their retry latency in virtual time. The overload
      knobs run the same admission ladder as `render`, in virtual time.
      --trace-out / --metrics-out export the same event-log JSON and
      Prometheus metrics as `render`, stamped with virtual time.
      --graft mirrors the threaded server's in-flight grafting.
      --cache-policy and --tier2-budget mirror `render`'s cache
      hierarchy; the simulator charges tier-2 re-heats their disk
      latency in virtual time (it has no --spill-dir). The containment
      options mirror `render`'s, with the hang limit in virtual time.

  vmqsctl demo
      A short guided tour: exact hits, projection, sub-queries.
";

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let rest: Vec<String> = argv.collect();
    let parsed = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match cmd.as_str() {
        "render" => commands::render(&parsed),
        "mip" => commands::mip(&parsed),
        "simulate" => commands::simulate(&parsed),
        "demo" => commands::demo(&parsed),
        "help" | "--help" | "-h" | "" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
