//! Subcommand implementations.

use crate::args::{parse_strategy, ArgError, Args};
use std::error::Error;
use std::sync::Arc;
use vmqs_core::{DatasetId, OverloadConfig, Rect, Strategy};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_server::{QueryServer, ServerConfig};
use vmqs_sim::{run_sim, SimConfig, SubmissionMode};
use vmqs_storage::{ChaosConfig, DataSource, FaultConfig, FaultInjectingSource, SyntheticSource};
use vmqs_volume::{VolOp, VolQuery, VolumeDataset};
use vmqs_workload::{flatten_to_batch, generate, ExpRow, WorkloadConfig};

type CliResult = Result<(), Box<dyn Error>>;

fn parse_vm_op(s: &str) -> Result<VmOp, String> {
    match s {
        "subsample" => Ok(VmOp::Subsample),
        "average" => Ok(VmOp::Average),
        other => Err(format!("unknown op '{other}' (subsample|average)")),
    }
}

/// The byte count of `--name mb`. A plain `<< 20` drops the high bits of
/// a huge value without a word and runs with some other budget.
fn mb_to_bytes(name: &str, mb: u64) -> Result<u64, ArgError> {
    mb.checked_mul(1 << 20)
        .ok_or_else(|| ArgError::Invalid(name.into(), mb.to_string()))
}

/// Parses the shared fault-injection options (`--fault-rate`,
/// `--fault-seed`) into a [`FaultConfig`].
fn parse_faults(args: &Args) -> Result<FaultConfig, Box<dyn Error>> {
    let rate: f64 = args.get_or("fault-rate", 0.0)?;
    let seed: u64 = args.get_or("fault-seed", 42)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate must lie in [0, 1], got {rate}").into());
    }
    Ok(FaultConfig::transient(rate, seed))
}

/// Parses the shared overload-management options (`--max-pending`,
/// `--client-rate`, `--degrade-threshold`, `--shed-threshold`) into an
/// [`OverloadConfig`]. All default off.
fn parse_overload(args: &Args) -> Result<OverloadConfig, Box<dyn Error>> {
    let max_pending: usize = args.get_or("max-pending", 0)?;
    let client_rate: f64 = args.get_or("client-rate", 0.0)?;
    let degrade: f64 = args.get_or("degrade-threshold", f64::INFINITY)?;
    let shed: f64 = args.get_or("shed-threshold", f64::INFINITY)?;
    if client_rate < 0.0 {
        return Err(format!("--client-rate must be non-negative, got {client_rate}").into());
    }
    for (name, v) in [("degrade-threshold", degrade), ("shed-threshold", shed)] {
        if v < 0.0 || v.is_nan() {
            return Err(format!("--{name} must be a non-negative pressure level, got {v}").into());
        }
    }
    if (degrade <= 1.0 || shed <= 1.0) && max_pending == 0 {
        return Err(
            "--degrade-threshold/--shed-threshold need --max-pending (pressure is \
             measured against the admission bound)"
                .into(),
        );
    }
    Ok(OverloadConfig {
        max_pending,
        client_rate,
        degrade_threshold: degrade,
        shed_threshold: shed,
    })
}

/// Parses the shared cache-hierarchy options (DESIGN.md §14):
/// `--cache-policy lru|cost` picks the Data Store eviction
/// policy, `--spill-dir` points the tier-2 spill store at a directory,
/// and `--tier2-budget` caps it in MB (default 64 once a directory is
/// given). Returns `(policy, spill_dir, tier2_bytes)`; the policy is
/// `None` when the flag is absent so callers keep their config default.
/// `on_disk` is set by the real server, whose tier 2 lives in
/// `--spill-dir`; the simulator models tier-2 latency on virtual
/// payloads, takes a budget alone and has no `--spill-dir`.
type CacheOptions = (
    Option<vmqs_datastore::EvictionPolicy>,
    Option<std::path::PathBuf>,
    u64,
);

fn parse_cache(args: &Args, on_disk: bool) -> Result<CacheOptions, Box<dyn Error>> {
    use vmqs_datastore::EvictionPolicy;
    let policy = match args.get("cache-policy") {
        None => None,
        Some("lru") => Some(EvictionPolicy::Lru),
        Some("cost") => Some(EvictionPolicy::CostBased),
        Some(other) => return Err(format!("unknown cache policy '{other}' (lru|cost)").into()),
    };
    let spill_dir = if on_disk {
        args.get("spill-dir").map(std::path::PathBuf::from)
    } else {
        None
    };
    let tier2_mb: u64 = args.get_or("tier2-budget", if spill_dir.is_some() { 64 } else { 0 })?;
    if on_disk && tier2_mb > 0 && spill_dir.is_none() {
        return Err("--tier2-budget needs --spill-dir (the tier-2 store lives on disk)".into());
    }
    Ok((policy, spill_dir, mb_to_bytes("tier2-budget", tier2_mb)?))
}

/// Parses the failure-containment options (DESIGN.md §15):
/// `--hang-timeout-ms` arms the hang watchdog (wall clock on the server,
/// virtual time in the simulator), `--restart-budget` and
/// `--quarantine-limit` bound worker respawns and poison-query retries,
/// and the `--chaos-*` family drives the seeded fault injector:
/// `--chaos-seed`, `--chaos-poison-rate`, `--chaos-panic-at`. Returns
/// `(chaos, hang_timeout_ms, restart_budget, quarantine_limit)`. The
/// spill-write crash and frame bit-flip kill-points have no option: they
/// fire only inside a frame write, which no single `vmqsctl` query makes.
type ContainmentOptions = (ChaosConfig, Option<u64>, usize, u32);

fn parse_containment(args: &Args) -> Result<ContainmentOptions, Box<dyn Error>> {
    let rate: f64 = args.get_or("chaos-poison-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--chaos-poison-rate must lie in [0, 1], got {rate}").into());
    }
    let nth = |name: &str| -> Result<Option<u64>, Box<dyn Error>> {
        Ok(match args.get(name) {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value '{v}' for --{name}"))?,
            ),
        })
    };
    let chaos = ChaosConfig::none()
        .with_seed(args.get_or("chaos-seed", 42)?)
        .with_poison_rate(rate)
        .with_panic_at_compute(nth("chaos-panic-at")?);
    let hang = match nth("hang-timeout-ms")? {
        Some(0) => return Err("--hang-timeout-ms must be positive".into()),
        other => other,
    };
    let restart: usize = args.get_or("restart-budget", 8)?;
    let quarantine: u32 = args.get_or("quarantine-limit", 3)?;
    if quarantine == 0 {
        return Err("--quarantine-limit must be at least 1".into());
    }
    Ok((chaos, hang, restart, quarantine))
}

/// Parses `--strategy`, defaulting to CNBF.
fn parse_strategy_arg(args: &Args) -> Result<Strategy, Box<dyn Error>> {
    match args.get("strategy") {
        None => Ok(Strategy::Cnbf),
        Some(s) => Ok(parse_strategy(s).ok_or(format!("unknown strategy '{s}'"))?),
    }
}

/// `vmqsctl render` — render a microscope window through the real server.
pub fn render(args: &Args) -> CliResult {
    let sw: u32 = args.get_or("slide-width", 8192)?;
    let sh: u32 = args.get_or("slide-height", 8192)?;
    let x: u32 = args.get_or("x", 0)?;
    let y: u32 = args.get_or("y", 0)?;
    let w: u32 = args.get_or("w", 1024)?;
    let h: u32 = args.get_or("h", 1024)?;
    let zoom: u32 = args.get_positive("zoom", 1)?;
    let op = parse_vm_op(args.get("op").unwrap_or("subsample"))?;
    let out = args.get("out").unwrap_or("render.ppm");
    let fault = parse_faults(args)?;
    let overload = parse_overload(args)?;
    let strategy = parse_strategy_arg(args)?;
    let (policy, spill_dir, tier2_bytes) = parse_cache(args, true)?;
    // Negative sentinel = no timeout; `--query-timeout-ms 0` is a valid
    // (immediately expiring) deadline.
    let timeout_ms: i64 = args.get_or("query-timeout-ms", -1)?;
    let (chaos, hang_ms, restart_budget, quarantine_limit) = parse_containment(args)?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let graft = args.flag("graft");
    args.reject_unread()?;

    let slide = SlideDataset::new(DatasetId(0), sw, sh);
    let query = VmQuery::new(slide, Rect::new(x, y, w, h), zoom, op);
    let source: Arc<dyn DataSource> = if fault.is_noop() {
        Arc::new(SyntheticSource::new())
    } else {
        Arc::new(FaultInjectingSource::new(SyntheticSource::new(), fault))
    };
    let mut cfg = ServerConfig::small()
        .with_strategy(strategy)
        .with_graft(graft)
        .with_retry_seed(fault.seed)
        .with_observability(trace_out.is_some())
        .with_spill_dir(spill_dir)
        .with_tier2_budget(tier2_bytes)
        .with_overload(overload)
        .with_chaos(chaos)
        .with_hang_timeout(hang_ms.map(std::time::Duration::from_millis))
        .with_restart_budget(restart_budget)
        .with_quarantine_limit(quarantine_limit);
    if let Some(p) = policy {
        cfg = cfg.with_cache_policy(p);
    }
    if timeout_ms >= 0 {
        cfg = cfg.with_query_timeout(Some(std::time::Duration::from_millis(timeout_ms as u64)));
    }
    let server = QueryServer::new(cfg, source);
    let res = match server.submit(query).wait() {
        Ok(res) => res,
        Err(e) => {
            server.shutdown();
            return Err(e.into());
        }
    };
    let img = vmqs_microscope::RgbImage {
        width: res.width,
        height: res.height,
        data: res.image.to_vec(),
    };
    img.write_ppm(out)?;
    println!(
        "rendered {}x{} ({} op, zoom {zoom}) in {:?} -> {out}",
        res.width,
        res.height,
        op.name(),
        res.record.exec_time
    );
    println!(
        "pages read: {}, answered via {:?}",
        res.record.pages_requested, res.record.path
    );
    if !fault.is_noop() {
        let ps = server.ps_stats();
        println!(
            "io faults: {}, retries: {}, failed reads: {}",
            ps.read_faults, ps.read_retries, ps.failed_reads
        );
    }
    if overload.enabled() {
        let sum = server.summary();
        println!(
            "overload: {} rejected, {} shed, {} degraded",
            sum.rejected, sum.shed, sum.degraded
        );
    }
    if tier2_bytes > 0 {
        let sum = server.summary();
        println!(
            "tier 2: {} spilled, {} restored, {} restore failures",
            sum.spilled, sum.restored, sum.restore_failures
        );
    }
    if !chaos.is_noop() || hang_ms.is_some() {
        let sum = server.summary();
        println!(
            "containment: {} worker panics, {} restarts, {} quarantined, {} hung",
            sum.worker_panics, sum.worker_restarts, sum.quarantined, sum.hung
        );
    }
    if let Some(path) = trace_out {
        let events = server.events();
        std::fs::write(path, vmqs_obs::events_to_json(&events))?;
        println!("wrote {} events -> {path}", events.len());
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, server.metrics().to_prometheus())?;
        println!("wrote metrics -> {path}");
    }
    server.shutdown();
    Ok(())
}

/// `vmqsctl mip` — render a volume projection through the real kernels.
pub fn mip(args: &Args) -> CliResult {
    let x: u32 = args.get_or("x", 0)?;
    let y: u32 = args.get_or("y", 0)?;
    let w: u32 = args.get_or("w", 256)?;
    let h: u32 = args.get_or("h", 256)?;
    let z0: u32 = args.get_or("z0", 0)?;
    let z1: u32 = args.get_or("z1", 128)?;
    let lod: u32 = args.get_positive("lod", 1)?;
    let op = match args.get("op").unwrap_or("mip") {
        "mip" => VolOp::Mip,
        "avgproj" => VolOp::AvgProj,
        other => return Err(format!("unknown op '{other}' (mip|avgproj)").into()),
    };
    let out = args.get("out").unwrap_or("projection.pgm");
    args.reject_unread()?;

    let volume = VolumeDataset::new(DatasetId(1), 1024, 1024, 512);
    let query = VolQuery::new(volume, Rect::new(x, y, w, h), z0, z1, lod, op);
    let src = SyntheticSource::new();
    let img = vmqs_volume::kernels::compute_from_bricks(&query, |idx| {
        Arc::new(
            vmqs_storage::DataSource::read_page(&src, volume.id, idx, vmqs_volume::PAGE_SIZE)
                .expect("synthetic source cannot fail"),
        )
    });
    img.write_pgm(out)?;
    println!(
        "rendered {}x{} {} projection of depth [{z0},{z1}) -> {out}",
        img.width,
        img.height,
        op.name()
    );
    Ok(())
}

/// `vmqsctl simulate` — one paper-scale simulated configuration.
pub fn simulate(args: &Args) -> CliResult {
    let strategy = parse_strategy_arg(args)?;
    let op = parse_vm_op(args.get("op").unwrap_or("subsample"))?;
    let threads: usize = args.get_positive("threads", 4)?;
    let ds_mb: u64 = args.get_or("ds-mb", 64)?;
    let ds_bytes = mb_to_bytes("ds-mb", ds_mb)?;
    let ps_bytes = mb_to_bytes("ps-mb", args.get_or("ps-mb", 32)?)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let mode = if args.flag("batch") {
        SubmissionMode::Batch
    } else {
        SubmissionMode::Interactive
    };
    let fault = parse_faults(args)?;
    let overload = parse_overload(args)?;
    // The simulator models tier 2 in virtual time: the budget applies,
    // and there is no directory (payloads are virtual).
    let (policy, _, tier2_bytes) = parse_cache(args, false)?;
    let (chaos, hang_ms, restart_budget, quarantine_limit) = parse_containment(args)?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let graft = args.flag("graft");
    args.reject_unread()?;

    let streams = generate(&WorkloadConfig::paper(op, seed));
    let streams = match mode {
        SubmissionMode::Interactive => streams,
        SubmissionMode::Batch => flatten_to_batch(&streams),
    };
    let mut cfg = SimConfig::paper_baseline()
        .with_strategy(strategy)
        .with_threads(threads)
        .with_ds_budget(ds_bytes)
        .with_ps_budget(ps_bytes)
        .with_mode(mode)
        .with_faults(fault)
        .with_graft(graft)
        .with_tier2_budget(tier2_bytes)
        .with_observe(trace_out.is_some())
        .with_overload(overload)
        .with_chaos(chaos)
        .with_hang_timeout(hang_ms.map(|ms| ms as f64 / 1000.0))
        .with_restart_budget(restart_budget)
        .with_quarantine_limit(quarantine_limit);
    if let Some(p) = policy {
        cfg = cfg.with_cache_policy(p);
    }
    let report = run_sim(cfg, streams);
    let row = ExpRow::from_report(&report, strategy, op.name(), threads, ds_mb);
    println!("{}", ExpRow::csv_header());
    println!("{}", row.to_csv());
    println!();
    println!("queries:          {}", report.records.len());
    println!(
        "trimmed response: {:>8.2} s",
        report.trimmed_mean_response()
    );
    println!("makespan:         {:>8.2} s", report.makespan);
    println!("average overlap:  {:>8.3}", report.average_overlap());
    println!(
        "disk:             {} requests, {:.1} MB, {:.1} s busy",
        report.disk_stats.requests,
        report.disk_stats.bytes as f64 / (1 << 20) as f64,
        report.disk_stats.busy_time
    );
    if !fault.is_noop() {
        println!(
            "io faults:        {} injected, {} retries charged",
            report.ps_stats.read_faults, report.ps_stats.read_retries
        );
    }
    if overload.enabled() {
        println!(
            "overload:         {} rejected, {} shed, {} degraded",
            report.rejected, report.shed, report.degraded
        );
    }
    if graft {
        println!("grafted answers:  {}", report.grafted);
    }
    if tier2_bytes > 0 {
        println!(
            "tier 2:           {} spilled, {} restored, {} restore failures",
            report.spilled, report.restored, report.restore_failures
        );
    }
    if !chaos.is_noop() || hang_ms.is_some() {
        println!(
            "containment:      {} worker panics, {} restarts, {} quarantined, {} hung, {} failed",
            report.worker_panics,
            report.worker_restarts,
            report.quarantined,
            report.hung,
            report.failed
        );
    }
    if let Some(path) = trace_out {
        std::fs::write(path, vmqs_obs::events_to_json(&report.events))?;
        println!("wrote {} events -> {path}", report.events.len());
    }
    if let Some(path) = metrics_out {
        std::fs::write(path, report.metrics.to_prometheus())?;
        println!("wrote metrics -> {path}");
    }
    Ok(())
}

/// `vmqsctl demo` — a fixed guided tour.
pub fn demo(args: &Args) -> CliResult {
    args.reject_unread()?;
    let slide = SlideDataset::new(DatasetId(0), 4000, 4000);
    let server = QueryServer::new(ServerConfig::small(), Arc::new(SyntheticSource::new()));
    let q1 = VmQuery::new(slide, Rect::new(0, 0, 1024, 1024), 2, VmOp::Subsample);
    let q2 = VmQuery::new(slide, Rect::new(512, 0, 1024, 1024), 2, VmOp::Subsample);
    println!("1) fresh render:");
    let r1 = server.submit(q1).wait()?;
    println!(
        "   {:?}, {} pages",
        r1.record.path, r1.record.pages_requested
    );
    println!("2) identical repeat:");
    let r2 = server.submit(q1).wait()?;
    println!(
        "   {:?}, {} pages",
        r2.record.path, r2.record.pages_requested
    );
    println!("3) half-overlapping pan:");
    let r3 = server.submit(q2).wait()?;
    println!(
        "   {:?}, reuse {:.0}%, {} pages",
        r3.record.path,
        100.0 * r3.record.covered_fraction,
        r3.record.pages_requested
    );
    server.shutdown();

    println!("\nsimulated paper workload (CNBF vs FIFO, batch):");
    for strategy in [Strategy::Fifo, Strategy::Cnbf] {
        let streams = flatten_to_batch(&generate(&WorkloadConfig::paper(VmOp::Subsample, 42)));
        let cfg = SimConfig::paper_baseline()
            .with_strategy(strategy)
            .with_mode(SubmissionMode::Batch);
        let report = run_sim(cfg, streams);
        println!(
            "   {:>4}: 256 queries in {:.1} s (overlap {:.2})",
            strategy.name(),
            report.makespan,
            report.average_overlap()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_datastore::EvictionPolicy;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn cache_flags_parse_together() {
        let a = args("--cache-policy cost --spill-dir /tmp/x --tier2-budget 128");
        let (p, dir, t2) = parse_cache(&a, true).unwrap();
        assert_eq!(p, Some(EvictionPolicy::CostBased));
        assert_eq!(dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(t2, 128 << 20);
    }

    #[test]
    fn spill_dir_defaults_tier2_budget() {
        let (_, dir, t2) = parse_cache(&args("--spill-dir /tmp/x"), true).unwrap();
        assert!(dir.is_some());
        assert_eq!(t2, 64 << 20);
    }

    #[test]
    fn tier2_budget_needs_dir_only_on_the_real_server() {
        assert!(parse_cache(&args("--tier2-budget 32"), true).is_err());
        let (_, _, t2) = parse_cache(&args("--tier2-budget 32"), false).unwrap();
        assert_eq!(t2, 32 << 20);
    }

    #[test]
    fn every_policy_name_parses_and_typos_are_rejected() {
        for (name, want) in [
            ("lru", EvictionPolicy::Lru),
            ("cost", EvictionPolicy::CostBased),
        ] {
            let a = args(&format!("--cache-policy {name}"));
            assert_eq!(parse_cache(&a, true).unwrap().0, Some(want), "{name}");
        }
        // The two retired policies (EXPERIMENTS.md X4) are typos now.
        for name in ["fancy", "mru", "largest"] {
            let a = args(&format!("--cache-policy {name}"));
            assert!(parse_cache(&a, true).is_err(), "{name}");
        }
        // Absent flag keeps the config default.
        assert_eq!(parse_cache(&args(""), true).unwrap().0, None);
    }

    #[test]
    fn containment_flags_default_off() {
        let (chaos, hang, restart, quarantine) = parse_containment(&args("")).unwrap();
        assert!(chaos.is_noop());
        assert_eq!(hang, None);
        assert_eq!(restart, 8);
        assert_eq!(quarantine, 3);
    }

    #[test]
    fn containment_flags_parse_together() {
        let a = args(
            "--hang-timeout-ms 250 --restart-budget 2 --quarantine-limit 1 \
             --chaos-seed 7 --chaos-poison-rate 0.1 --chaos-panic-at 3",
        );
        let (chaos, hang, restart, quarantine) = parse_containment(&a).unwrap();
        assert!(!chaos.is_noop());
        assert_eq!(chaos.seed, 7);
        assert!(chaos.compute_should_panic(3, u64::MAX));
        assert_eq!(
            (chaos.crash_spill_write, chaos.bit_flip_frame),
            (None, None)
        );
        assert_eq!(hang, Some(250));
        assert_eq!(restart, 2);
        assert_eq!(quarantine, 1);
    }

    #[test]
    fn containment_flags_reject_bad_values() {
        assert!(parse_containment(&args("--chaos-poison-rate 1.5")).is_err());
        assert!(parse_containment(&args("--hang-timeout-ms 0")).is_err());
        assert!(parse_containment(&args("--hang-timeout-ms banana")).is_err());
        assert!(parse_containment(&args("--quarantine-limit 0")).is_err());
    }
}
