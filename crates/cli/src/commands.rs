//! Subcommand implementations.

use crate::args::{parse_strategy, ArgError, Args};
use std::error::Error;
use std::sync::Arc;
use std::time::Duration;
use vmqs_core::{
    ChaosConfig, DatasetId, EngineConfig, EvictionPolicy, OverloadConfig, Rect, Strategy,
};
use vmqs_microscope::{SlideDataset, VmOp, VmQuery};
use vmqs_server::{QueryServer, ServerConfig};
use vmqs_sim::{run_sim, SimConfig, SubmissionMode};
use vmqs_storage::{DataSource, FaultConfig, FaultInjectingSource, SyntheticSource};
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

/// Parses the options `render` and `simulate` share into the settings
/// both engines share, over `base`:
///
/// * `--strategy`, `--graft`, and `--trace-out`, whose presence turns the
///   event log on;
/// * the overload options ([`parse_overload`]);
/// * the cache hierarchy (DESIGN.md §14): `--cache-policy lru|cost`
///   (absent keeps `base`'s policy) and `--tier2-budget` in MB
///   (`tier2_default_mb` when absent);
/// * failure containment (DESIGN.md §15): `--hang-timeout-ms` arms the
///   hang watchdog (wall clock on the server, virtual time in the
///   simulator), `--restart-budget` and `--quarantine-limit` bound worker
///   respawns and poison-query retries, and `--chaos-seed`,
///   `--chaos-poison-rate` and `--chaos-panic-at` drive the seeded fault
///   injector. The spill-write crash and frame bit-flip kill-points have
///   no option: they fire only inside a frame write, which no single
///   `vmqsctl` query makes.
fn parse_engine(
    args: &Args,
    base: EngineConfig,
    tier2_default_mb: u64,
) -> Result<EngineConfig, Box<dyn Error>> {
    let mut engine = base
        .with_strategy(parse_strategy_arg(args)?)
        .with_overload(parse_overload(args)?)
        .with_graft(args.flag("graft"))
        .with_observe(args.get("trace-out").is_some());
    match args.get("cache-policy") {
        None => {}
        Some("lru") => engine = engine.with_cache_policy(EvictionPolicy::Lru),
        Some("cost") => engine = engine.with_cache_policy(EvictionPolicy::CostBased),
        Some(other) => return Err(format!("unknown cache policy '{other}' (lru|cost)").into()),
    }
    let tier2_mb: u64 = args.get_or("tier2-budget", tier2_default_mb)?;
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
        other => other.map(Duration::from_millis),
    };
    let quarantine: u32 = args.get_or("quarantine-limit", 3)?;
    if quarantine == 0 {
        return Err("--quarantine-limit must be at least 1".into());
    }
    Ok(engine
        .with_tier2_budget(mb_to_bytes("tier2-budget", tier2_mb)?)
        .with_chaos(chaos)
        .with_hang_timeout(hang)
        .with_restart_budget(args.get_or("restart-budget", 8)?)
        .with_quarantine_limit(quarantine))
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
    // The real server's tier 2 lives in `--spill-dir`.
    let spill_dir = args.get("spill-dir").map(std::path::PathBuf::from);
    let engine = parse_engine(
        args,
        EngineConfig::small(),
        if spill_dir.is_some() { 64 } else { 0 },
    )?;
    if engine.tier2_budget > 0 && spill_dir.is_none() {
        return Err("--tier2-budget needs --spill-dir (the tier-2 store lives on disk)".into());
    }
    // Negative sentinel = no timeout; `--query-timeout-ms 0` is a valid
    // (immediately expiring) deadline.
    let timeout_ms: i64 = args.get_or("query-timeout-ms", -1)?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    args.reject_unread()?;

    let slide = SlideDataset::new(DatasetId(0), sw, sh);
    let query = VmQuery::new(slide, Rect::new(x, y, w, h), zoom, op);
    let source: Arc<dyn DataSource> = if fault.is_noop() {
        Arc::new(SyntheticSource::new())
    } else {
        Arc::new(FaultInjectingSource::new(SyntheticSource::new(), fault))
    };
    let cfg = ServerConfig::new(engine)
        .with_retry_seed(fault.seed)
        .with_spill_dir(spill_dir)
        .with_query_timeout((timeout_ms >= 0).then(|| Duration::from_millis(timeout_ms as u64)));
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
    let tally = server.summary().tally;
    if engine.overload.enabled() {
        println!(
            "overload: {} rejected, {} shed, {} degraded",
            tally.rejected, tally.shed, tally.degraded
        );
    }
    if engine.tier2_budget > 0 {
        println!(
            "tier 2: {} spilled, {} restored, {} restore failures",
            tally.spilled,
            tally.restored,
            server.ds_stats().restore_failures
        );
    }
    if !engine.chaos.is_noop() || engine.hang_timeout.is_some() {
        println!(
            "containment: {} worker panics, {} restarts, {} quarantined, {} hung",
            tally.worker_panics, tally.worker_restarts, tally.quarantined, tally.hung
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
    // The simulator models tier 2 in virtual time: a budget alone
    // applies, and there is no directory (payloads are virtual).
    let engine = parse_engine(args, EngineConfig::paper_baseline(), 0)?
        .with_threads(threads)
        .with_ds_budget(ds_bytes)
        .with_ps_budget(ps_bytes);
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    args.reject_unread()?;

    let streams = generate(&WorkloadConfig::paper(op, seed));
    let streams = match mode {
        SubmissionMode::Interactive => streams,
        SubmissionMode::Batch => flatten_to_batch(&streams),
    };
    let cfg = SimConfig::new(engine).with_mode(mode).with_faults(fault);
    let report = run_sim(cfg, streams);
    let row = ExpRow::from_report(&report, engine.strategy, op.name(), threads, ds_mb);
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
    let tally = report.tally;
    if engine.overload.enabled() {
        println!(
            "overload:         {} rejected, {} shed, {} degraded",
            tally.rejected, tally.shed, tally.degraded
        );
    }
    if engine.graft {
        println!("grafted answers:  {}", report.grafted);
    }
    if engine.tier2_budget > 0 {
        println!(
            "tier 2:           {} spilled, {} restored, {} restore failures",
            tally.spilled, tally.restored, report.ds_stats.restore_failures
        );
    }
    if !engine.chaos.is_noop() || engine.hang_timeout.is_some() {
        println!(
            "containment:      {} worker panics, {} restarts, {} quarantined, {} hung, {} failed",
            tally.worker_panics, tally.worker_restarts, tally.quarantined, tally.hung, tally.failed
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
        let cfg = SimConfig::new(EngineConfig::paper_baseline().with_strategy(strategy))
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

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    /// `render`'s reading: the budget defaults to 64 MB once a directory
    /// is given.
    fn render_engine(a: &Args) -> Result<EngineConfig, Box<dyn Error>> {
        let default_mb = if a.get("spill-dir").is_some() { 64 } else { 0 };
        parse_engine(a, EngineConfig::small(), default_mb)
    }

    #[test]
    fn cache_flags_parse_together() {
        let e = render_engine(&args(
            "--cache-policy cost --spill-dir /tmp/x --tier2-budget 128",
        ))
        .unwrap();
        assert_eq!(e.ds_policy, EvictionPolicy::CostBased);
        assert_eq!(e.tier2_budget, 128 << 20);
    }

    #[test]
    fn spill_dir_defaults_tier2_budget() {
        let e = render_engine(&args("--spill-dir /tmp/x")).unwrap();
        assert_eq!(e.tier2_budget, 64 << 20);
        assert_eq!(render_engine(&args("")).unwrap().tier2_budget, 0);
    }

    #[test]
    fn tier2_budget_needs_dir_only_on_the_real_server() {
        let a = args("--tier2-budget 32 --out /tmp/never.ppm");
        let err = render(&a).unwrap_err().to_string();
        assert!(err.contains("--spill-dir"), "{err}");
        let e = parse_engine(
            &args("--tier2-budget 32"),
            EngineConfig::paper_baseline(),
            0,
        );
        assert_eq!(e.unwrap().tier2_budget, 32 << 20);
    }

    #[test]
    fn every_policy_name_parses_and_typos_are_rejected() {
        for (name, want) in [
            ("lru", EvictionPolicy::Lru),
            ("cost", EvictionPolicy::CostBased),
        ] {
            let a = args(&format!("--cache-policy {name}"));
            assert_eq!(render_engine(&a).unwrap().ds_policy, want, "{name}");
        }
        // The two retired policies (EXPERIMENTS.md X4) are typos now.
        for name in ["fancy", "mru", "largest"] {
            let a = args(&format!("--cache-policy {name}"));
            assert!(render_engine(&a).is_err(), "{name}");
        }
        // Absent flag keeps the base's policy.
        let base = EngineConfig::small().with_cache_policy(EvictionPolicy::CostBased);
        let e = parse_engine(&args(""), base, 0).unwrap();
        assert_eq!(e.ds_policy, EvictionPolicy::CostBased);
    }

    #[test]
    fn containment_flags_default_off() {
        let e = render_engine(&args("")).unwrap();
        assert!(e.chaos.is_noop());
        let base = EngineConfig {
            chaos: e.chaos,
            ..EngineConfig::small()
        };
        assert_eq!(e, base, "no option, no change");
        assert_eq!(e.hang_timeout, None);
        assert_eq!((e.restart_budget, e.quarantine_limit), (8, 3));
    }

    #[test]
    fn containment_flags_parse_together() {
        let a = args(
            "--hang-timeout-ms 250 --restart-budget 2 --quarantine-limit 1 \
             --chaos-seed 7 --chaos-poison-rate 0.1 --chaos-panic-at 3",
        );
        let e = render_engine(&a).unwrap();
        assert!(!e.chaos.is_noop());
        assert_eq!(e.chaos.seed, 7);
        assert!(e.chaos.compute_should_panic(3, u64::MAX));
        assert_eq!(
            (e.chaos.crash_spill_write, e.chaos.bit_flip_frame),
            (None, None)
        );
        assert_eq!(e.hang_timeout, Some(Duration::from_millis(250)));
        assert_eq!((e.restart_budget, e.quarantine_limit), (2, 1));
    }

    #[test]
    fn containment_flags_reject_bad_values() {
        assert!(render_engine(&args("--chaos-poison-rate 1.5")).is_err());
        assert!(render_engine(&args("--hang-timeout-ms 0")).is_err());
        assert!(render_engine(&args("--hang-timeout-ms banana")).is_err());
        assert!(render_engine(&args("--quarantine-limit 0")).is_err());
    }
}
