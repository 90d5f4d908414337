//! The repository benchmark: four paper-shaped workloads against the real
//! threaded `QueryServer`, seven end-to-end metrics, and a per-layer
//! ledger timed from outside the program. See README.md in this
//! directory for the metric glossary and how to run, compare and trace.
//!
//! ```text
//! vmqs_benchmark [--seed N] [--seconds S] [--smoke] [--out PATH]
//!     every workload, each in its own process, untraced then traced
//! vmqs_benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S]
//!     one pass of one workload; last stdout line is the result object
//! vmqs_benchmark --compare A.json B.json [--bounds BENCHMARK.json]
//! ```

mod compare;
mod json;
mod layers;
mod ledger;
mod measure;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

use vmqs_core::clock;
use vmqs_server::QueryServer;
use vmqs_storage::SyntheticSource;

use json::{obj, Json};
use layers::{TimedExecutor, TimedSource};
use ledger::{LayerInputs, END_TO_END, PER_LAYER};
use measure::{count_mismatches, run_pass, PassCfg, PassOut, SpillRoot};
use spans::Recorder;
use workloads::{check_shape, Kind, Scale, ShapeFacts};

/// Default length of one run's timed phase; `BENCHMARK.json`'s
/// `run_seconds`.
const RUN_SECONDS: f64 = 24.0;
/// Fewer response samples than this leave under ten beyond p99.
const MIN_SAMPLES: usize = 1000;
/// Queries whose spans the Chrome trace keeps (aggregates cover all).
const TRACE_QUERIES: usize = 5000;

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
}

const USAGE: &str = "usage: vmqs_benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out PATH] [--trace-out PATH] | --compare A.json B.json [--bounds PATH]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        trace_out: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv;
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&flag, &mut it)?;
                a.workload =
                    Some(Kind::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = value(&flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--bounds" => a.bounds = PathBuf::from(value(&flag, &mut it)?),
            "--compare" => {
                let first = value(&flag, &mut it)?;
                let second = value(&flag, &mut it)?;
                a.compare = Some((PathBuf::from(first), PathBuf::from(second)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Server threads: every workload runs at `min(nproc, 4)`.
fn workers() -> usize {
    nproc().min(4)
}

/// Build outputs and traces go under the cargo target directory, which
/// `.gitignore` already excludes.
fn artefact_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("vmqs_benchmark")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One pass of one workload, as the contract's result object plus the
/// header that proves what was measured.
struct Report {
    kind: Kind,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, unit, value)` in report order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    header: Json,
}

impl Report {
    fn metrics_json(&self) -> Json {
        obj(self.metrics.iter().map(|(name, unit, value)| {
            (
                name.to_string(),
                obj([
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        }))
    }

    /// The contract's last stdout line.
    fn result_line(&self) -> String {
        obj([
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), self.metrics_json()),
        ])
        .render()
    }
}

struct RunOpts {
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace_out: Option<PathBuf>,
}

fn shape_facts(pass: &PassOut) -> ShapeFacts {
    let c = &pass.counters;
    let lookups = (c.ds_exact_hits + c.ds_partial_hits + c.ds_misses) as f64;
    let share = |n: u64| {
        if lookups == 0.0 {
            0.0
        } else {
            n as f64 / lookups
        }
    };
    ShapeFacts {
        hit_ratio: share(c.ds_exact_hits + c.ds_partial_hits),
        exact_hit_ratio: share(c.ds_exact_hits),
        evictions: c.ds_evicted,
        pages_read: c.ps_pages_fetched,
        spilled: c.ds_spilled,
        restored: c.ds_restored,
        restore_failures: c.ds_restore_failures,
    }
}

/// The workload's shape assertion, with the counters it looked at when it
/// fails.
fn checked_shape(kind: Kind, pass: &PassOut) -> Result<(), String> {
    check_shape(kind, &shape_facts(pass)).map_err(|e| format!("{e}\n{:?}", pass.counters))
}

fn header(kind: Kind, opts: &RunOpts, pass: &PassOut) -> Json {
    let num = |n: f64| Json::Num(n);
    obj([
        ("workload".to_string(), Json::Str(kind.name().into())),
        ("seed".to_string(), num(opts.seed as f64)),
        ("seconds".to_string(), num(opts.seconds)),
        ("smoke".to_string(), Json::Bool(opts.scale.smoke)),
        ("nproc".to_string(), num(nproc() as f64)),
        ("workers".to_string(), num(workers() as f64)),
        ("clients".to_string(), num(kind.clients() as f64)),
        (
            "timed_queries".to_string(),
            num(pass.phase.attempted as f64),
        ),
        ("batches".to_string(), num(pass.batches as f64)),
        ("host_steal_pct".to_string(), num(pass.host_steal_pct)),
        (
            "input_hash".to_string(),
            Json::Str(format!("{:016x}", pass.inputs.hash)),
        ),
        (
            "rustc".to_string(),
            Json::Str(command_line("rustc", &["--version"])),
        ),
        (
            "commit".to_string(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// The untraced pass: observability off, no decorators. Its numbers are
/// the end-to-end metrics.
fn run_untraced(kind: Kind, opts: &RunOpts) -> Result<Report, String> {
    let spill = SpillRoot::under(&artefact_dir());
    let make = || {
        QueryServer::new(
            kind.server_config(workers(), Some(spill.fresh_dir())),
            Arc::new(SyntheticSource::new()),
        )
    };
    let pass = run_pass(
        &PassCfg {
            kind,
            seed: opts.seed,
            scale: opts.scale,
            seconds: opts.seconds,
            sessions: opts.scale.sessions(),
            rec: None,
        },
        &make,
    )?;
    checked_shape(kind, &pass)?;
    let smallest = pass
        .phase
        .windows
        .iter()
        .map(|w| w.response_ms.len())
        .min()
        .unwrap_or(0);
    if smallest < MIN_SAMPLES {
        // Not an error: a machine slowed from outside must still get its
        // (flagged) numbers out.
        println!(
            "WARNING: a window has only {smallest} response samples; p99 has fewer than ten beyond it"
        );
    }
    let mismatched = count_mismatches(&pass.phase.samples);
    println!(
        "verified {} sampled answers against reference_render: {mismatched} differ",
        pass.phase.samples.len()
    );
    println!(
        "response samples: {} in {} windows, at least {smallest} per window (p99 has {} beyond it); metrics are means over the middle half of the windows",
        pass.phase.completed,
        pass.phase.windows.len(),
        smallest / 100
    );
    println!(
        "throughput per window (1/s): {}",
        pass.phase
            .windows
            .iter()
            .map(|w| format!("{:.0}", w.response_ms.len() as f64 / w.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let values = ledger::end_to_end(&pass);
    let failed = pass.phase.failed + mismatched;
    Ok(Report {
        kind,
        traced: false,
        correct: failed == 0,
        attempted: pass.phase.attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|(name, unit, _)| (*name, *unit, values[name]))
            .collect(),
        header: header(kind, opts, &pass),
    })
}

/// End of the `n`-th client-observed query of the timed phase: spans that
/// start later are left out of the trace file.
fn trace_cutoff_ns(lanes: &[spans::Lane], since_ns: u64, n: usize) -> u64 {
    let mut ends: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.name == "wait" && s.start_ns >= since_ns)
        .map(|s| s.end_ns)
        .collect();
    ends.sort_unstable();
    ends.get(n.saturating_sub(1))
        .or(ends.last())
        .copied()
        .unwrap_or(u64::MAX)
}

/// The traced pass: the traced threaded pass (A counters + B decorators)
/// between two short untraced passes that give the overhead baseline,
/// then the (C) replay. None of its numbers feed the end-to-end metrics.
fn run_traced(kind: Kind, opts: &RunOpts) -> Result<Report, String> {
    let spill = SpillRoot::under(&artefact_dir());
    let cfg = |seconds: f64, rec| PassCfg {
        kind,
        seed: opts.seed,
        scale: opts.scale,
        seconds,
        sessions: 1,
        rec,
    };
    // Untraced, traced, untraced: equal lengths, so all three walk the
    // same prefix of the inputs, and the overhead baseline is the mean of
    // the passes on either side (a process speeds up as it warms).
    let share = 0.3;
    let plain_pass = || {
        run_pass(&cfg(opts.seconds * share, None), &|| {
            QueryServer::new(
                kind.server_config(workers(), Some(spill.fresh_dir())),
                Arc::new(SyntheticSource::new()),
            )
        })
    };
    let qps = |p: &PassOut| p.phase.completed as f64 / p.phase.wall_s;
    let before = plain_pass()?;

    let rec = Recorder::new();
    let traced = run_pass(&cfg(opts.seconds * share, Some(&rec)), &|| {
        QueryServer::with_app(
            kind.server_config(workers(), Some(spill.fresh_dir()))
                .with_observability(true),
            TimedExecutor::new(Arc::clone(&rec)),
            Arc::new(TimedSource::new(SyntheticSource::new(), Arc::clone(&rec))),
        )
    })?;
    checked_shape(kind, &traced)?;
    let lanes = rec.lanes();
    let after = plain_pass()?;
    let plain_qps = (qps(&before) + qps(&after)) / 2.0;

    let t = clock::now();
    let rebuilt = vmqs_obs::timeline::latencies(&traced.events).len();
    let timeline_rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    if rebuilt as u64 != traced.counters.completed {
        return Err(format!(
            "event log rebuilt {rebuilt} latencies for {} completed queries",
            traced.counters.completed
        ));
    }

    let replay = layers::replay(
        kind,
        &traced.inputs.timed,
        opts.scale.replay_queries(kind),
        workers(),
        &spill.fresh_dir(),
    )?;
    let values = ledger::per_layer(&LayerInputs {
        workers: workers(),
        plain_qps,
        traced: &traced,
        lanes: &lanes,
        lanes_since_ns: rec.ns(traced.timed_start),
        replay: &replay,
        timeline_rebuild_ms,
        // Read in the first pass, before any tracing buffer exists; a
        // run too short to reach the checkpoint (smoke) reads it now.
        peak_rss_mb: before.phase.rss_mb.unwrap_or_else(measure::peak_rss_mb),
    });

    let trace_path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| artefact_dir().join(format!("trace_{}.json", kind.name())));
    // The replay lane has its own time origin and is short: keep it whole.
    let mut replay_lane = replay.lane.clone();
    replay_lane.label = "layer-replay".into();
    let since = rec.ns(traced.timed_start);
    let window = since..=trace_cutoff_ns(&lanes, since, TRACE_QUERIES);
    let mut to_write: Vec<_> = lanes.iter().map(|l| (l, window.clone())).collect();
    to_write.push((&replay_lane, 0..=u64::MAX));
    let written = spans::write_chrome_trace(&trace_path, &to_write)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "trace: {written} spans of the first {TRACE_QUERIES} queries -> {} (open in https://ui.perfetto.dev)",
        trace_path.display()
    );
    println!(
        "exec_time attribution: execute + read_page spans + engine overhead cover {:.1} %, unattributed (blocked on a dependency) {:.1} %",
        100.0 * (1.0 - ledger::unattributed_share(&traced)),
        100.0 * ledger::unattributed_share(&traced)
    );
    println!(
        "storage numbers are this sandbox's: SyntheticSource fills pages on the CPU, no disk is read"
    );

    let passes = [&before, &traced, &after];
    let mismatched: u64 = passes
        .iter()
        .map(|p| count_mismatches(&p.phase.samples))
        .sum();
    let failed = passes.iter().map(|p| p.phase.failed).sum::<u64>() + mismatched;
    Ok(Report {
        kind,
        traced: true,
        correct: failed == 0,
        attempted: passes.iter().map(|p| p.phase.attempted).sum(),
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit, ..)| (*name, *unit, values[name]))
            .collect(),
        header: header(kind, opts, &traced),
    })
}

fn print_report(r: &Report) {
    println!(
        "== {} ({}) ==",
        r.kind.name(),
        if r.traced {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    if let Some(h) = r.header.as_obj() {
        for (k, v) in h {
            println!("  {k:<14} {}", v.render());
        }
    }
    if r.header.get("host_steal_pct").and_then(Json::as_f64) > Some(5.0) {
        println!("  WARNING: the hypervisor took more than 5 % of this machine's CPU time during the timed phase; expect these numbers to be off");
    }
    println!(
        "  operations: {} attempted, {} succeeded, {} failed",
        r.attempted,
        r.attempted - r.failed.min(r.attempted),
        r.failed
    );
    for (name, unit, value) in &r.metrics {
        let tag = PER_LAYER
            .iter()
            .find(|m| m.0 == *name)
            .map_or(String::new(), |m| {
                format!("  [{:?}, {}]", m.3, if m.4 { "exact" } else { "timing" })
            });
        println!("  {name:<44} {value:>16.4} {unit}{tag}");
    }
}

fn run_one(kind: Kind, traced: bool, opts: &RunOpts) -> Result<Report, String> {
    if traced {
        run_traced(kind, opts)
    } else {
        run_untraced(kind, opts)
    }
}

/// Result document of one or more passes, the shape `--compare` reads.
fn result_doc(reports: &[Report], opts: &RunOpts) -> Json {
    let mut workloads: std::collections::BTreeMap<String, Json> = Default::default();
    for r in reports {
        let entry = workloads
            .entry(r.kind.name().to_string())
            .or_insert_with(|| obj([]));
        if let Json::Obj(m) = entry {
            let section = if r.traced { "per_layer" } else { "end_to_end" };
            m.insert(section.to_string(), r.metrics_json());
            m.insert(format!("{section}_header"), r.header.clone());
            m.insert(
                format!("{section}_attempted"),
                Json::Num(r.attempted as f64),
            );
            m.insert(format!("{section}_failed"), Json::Num(r.failed as f64));
        }
    }
    doc_of(workloads, opts)
}

fn doc_of(workloads: std::collections::BTreeMap<String, Json>, opts: &RunOpts) -> Json {
    obj([
        ("benchmark".to_string(), Json::Str("vmqs_benchmark".into())),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("smoke".to_string(), Json::Bool(opts.scale.smoke)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
}

fn write_doc(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Every workload, each pass in a fresh process so `setup_s` and
/// `process.peak_rss_mb` are per workload; merges the children's documents.
/// Each traced child writes its trace to the default per-workload path.
fn run_all(out: Option<PathBuf>, opts: &RunOpts) -> Result<bool, String> {
    if opts.scale.smoke {
        println!(
            "*** SMOKE RUN: about 1/30 of the work; numbers are NOT comparable with a full run ***"
        );
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = artefact_dir();
    let mut merged: std::collections::BTreeMap<String, Json> = Default::default();
    let mut all_correct = true;
    for kind in workloads::ALL {
        for trace in ["0", "1"] {
            let part = dir.join(format!("part_{}_{trace}.json", kind.name()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .arg("--out")
                .arg(&part);
            if opts.scale.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {status}",
                    kind.name()
                ));
            }
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("read {}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text)?;
            let entry = doc
                .get("workloads")
                .and_then(|w| w.get(kind.name()))
                .and_then(Json::as_obj)
                .ok_or("child wrote no workload entry")?;
            all_correct &= entry
                .iter()
                .filter(|(k, _)| k.ends_with("_failed"))
                .all(|(_, v)| v.as_f64() == Some(0.0));
            if let Json::Obj(m) = merged
                .entry(kind.name().to_string())
                .or_insert_with(|| obj([]))
            {
                m.extend(entry.clone());
            }
        }
    }
    let out = out.unwrap_or_else(|| dir.join("result.json"));
    write_doc(&out, &doc_of(merged, opts))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::run(&args.bounds, a, b);
    }
    // Refuse to measure garbage.
    if cfg!(debug_assertions) {
        return Err("debug build: run with --release".into());
    }
    if nproc() < 2 {
        return Err("needs at least 2 cores: the server's workers must run in parallel".into());
    }
    let scale = Scale { smoke: args.smoke };
    let opts = RunOpts {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS }),
        scale,
        trace_out: args.trace_out.clone(),
    };
    let Some(kind) = args.workload else {
        return run_all(args.out, &opts);
    };
    if scale.smoke {
        println!("*** SMOKE RUN: numbers are NOT comparable with a full run ***");
    }
    let reports: Vec<Report> = match args.trace {
        Some(traced) => vec![run_one(kind, traced, &opts)?],
        None => vec![run_one(kind, false, &opts)?, run_one(kind, true, &opts)?],
    };
    for r in &reports {
        print_report(r);
    }
    if let Some(out) = &args.out {
        write_doc(out, &result_doc(&reports, &opts))?;
    }
    // The contract's result object is the last line of stdout.
    if let [only] = reports.as_slice() {
        println!("{}", only.result_line());
    }
    Ok(reports.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("vmqs_benchmark: failed operations or a worse metric (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("vmqs_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke path, in process: what a later CI job and
    /// `cargo test -p vmqs-bench` exercise.
    #[test]
    fn smoke_cached_replay_reports_every_metric_and_no_failures() {
        let opts = RunOpts {
            seed: 42,
            seconds: 0.3,
            scale: Scale { smoke: true },
            trace_out: Some(
                std::env::temp_dir().join(format!("vmqs_bench_smoke_{}.json", std::process::id())),
            ),
        };
        let e2e = run_one(Kind::CachedReplay, false, &opts).expect("untraced smoke pass");
        assert!(e2e.correct && e2e.failed == 0 && e2e.attempted > 0);
        assert_eq!(
            e2e.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert!(e2e.metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0));

        let layers = run_one(Kind::CachedReplay, true, &opts).expect("traced smoke pass");
        let _ = std::fs::remove_file(opts.trace_out.as_ref().unwrap());
        assert!(layers.correct);
        assert_eq!(layers.metrics.len(), PER_LAYER.len());
        let get = |name: &str| layers.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(get("datastore.exact_hit_ratio") >= 0.99);
        assert_eq!(get("storage.pages_read"), 0.0);
        assert_eq!(get("workload.distinct_queries"), 128.0);

        let line = Json::parse(&e2e.result_line()).unwrap();
        assert_eq!(line.as_obj().unwrap().len(), 4);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let doc = result_doc(&[e2e, layers], &opts);
        let w = doc.get("workloads").unwrap().get("cached_replay").unwrap();
        assert!(w.get("end_to_end").is_some() && w.get("per_layer").is_some());
    }

    #[test]
    fn argument_errors_name_the_flag() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("nope"));
        assert!(parse(&["--trace", "2"]).unwrap_err().contains("--trace"));
        assert!(parse(&["--seconds", "0"])
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        let a = parse(&[
            "--workload",
            "zipf_spill",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Kind::ZipfSpill));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(2.0), Some(true)));
    }
}
