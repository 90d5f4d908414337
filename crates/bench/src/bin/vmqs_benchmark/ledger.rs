//! Metric definitions and the arithmetic that turns a pass's raw
//! observations into named numbers. README.md is the glossary: for every
//! name it says which end-to-end metric it should move on which workload.

use std::collections::BTreeMap;

use vmqs_core::stats::{mean, percentile, trimmed_mean_95};
use vmqs_core::QuerySpec;
use vmqs_server::AnswerPath;

use crate::layers::{ReplayOut, PIPELINE_LAYERS};
use crate::measure::PassOut;
use crate::spans::{totals_by_name, Lane, NameTotals};

/// `(name, unit, better)` of the end-to-end metrics, in report order.
/// `BENCHMARK.json` carries the same list plus each metric's bound.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("throughput_qps", "1/s", "higher"),
    ("response_p50_ms", "ms", "lower"),
    ("response_p95_ms", "ms", "lower"),
    ("response_p99_ms", "ms", "lower"),
    ("response_trimmed_mean_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Counters and records the server already exposes (timed-phase delta).
    A,
    /// Decorator spans of the traced threaded pass.
    B,
    /// The single-threaded layer replay.
    C,
    /// The operating system's accounting of this process.
    Os,
}

/// `(name, unit, better, source, exact)`. `exact` marks counts that
/// repeat bit-for-bit for one seed (replay counts, generator counts);
/// everything else is a timing or depends on thread interleaving.
pub const PER_LAYER: [(&str, &str, &str, Source, bool); 72] = [
    ("server.queue_wait_ms_p50", "ms", "lower", Source::A, false),
    ("server.queue_wait_ms_p95", "ms", "lower", Source::A, false),
    ("server.exec_ms_p50", "ms", "lower", Source::A, false),
    ("server.exec_ms_p95", "ms", "lower", Source::A, false),
    ("server.blocked_ms_mean", "ms", "lower", Source::A, false),
    ("server.submit_us_p50", "us", "lower", Source::B, false),
    (
        "server.engine_overhead_us_mean",
        "us",
        "lower",
        Source::B,
        false,
    ),
    (
        "server.worker_busy_share",
        "ratio",
        "higher",
        Source::A,
        false,
    ),
    ("server.path_exact", "count", "higher", Source::A, false),
    ("server.path_partial", "count", "higher", Source::A, false),
    ("server.path_full", "count", "lower", Source::A, false),
    ("server.grafted", "count", "higher", Source::A, false),
    (
        "server.duplicate_full_computes",
        "count",
        "lower",
        Source::A,
        false,
    ),
    ("server.avg_overlap", "ratio", "higher", Source::A, false),
    ("server.relookups", "count", "lower", Source::A, false),
    (
        "server.relookup_useful_ratio",
        "ratio",
        "higher",
        Source::A,
        false,
    ),
    (
        "server.blocked_fallbacks",
        "count",
        "lower",
        Source::A,
        false,
    ),
    ("core.graph_insert_us_p50", "us", "lower", Source::C, false),
    ("core.graph_dequeue_us_p50", "us", "lower", Source::C, false),
    (
        "core.graph_mark_cached_us_p50",
        "us",
        "lower",
        Source::C,
        false,
    ),
    (
        "core.graph_overlap_evals_per_insert",
        "count",
        "lower",
        Source::C,
        true,
    ),
    (
        "core.graph_edges_per_insert",
        "count",
        "lower",
        Source::C,
        true,
    ),
    (
        "core.graph_reranks_per_query",
        "count",
        "lower",
        Source::C,
        true,
    ),
    ("core.graph_self_share", "ratio", "lower", Source::C, false),
    ("core.shard_imbalance", "ratio", "lower", Source::C, true),
    ("datastore.lookup_us_p50", "us", "lower", Source::C, false),
    ("datastore.lookup_us_p95", "us", "lower", Source::C, false),
    ("datastore.insert_us_p50", "us", "lower", Source::C, false),
    ("datastore.hit_ratio", "ratio", "higher", Source::A, false),
    (
        "datastore.exact_hit_ratio",
        "ratio",
        "higher",
        Source::A,
        false,
    ),
    (
        "datastore.partial_useful_ratio",
        "ratio",
        "higher",
        Source::A,
        false,
    ),
    ("datastore.evictions", "count", "lower", Source::A, false),
    (
        "datastore.bytes_evicted_mb",
        "MiB",
        "lower",
        Source::A,
        false,
    ),
    ("datastore.rejected", "count", "lower", Source::A, false),
    ("datastore.unprofitable", "count", "lower", Source::A, false),
    ("datastore.spilled", "count", "lower", Source::A, false),
    ("datastore.restored", "count", "higher", Source::A, false),
    (
        "datastore.restore_failures",
        "count",
        "lower",
        Source::A,
        false,
    ),
    ("datastore.recomputed_mb", "MiB", "lower", Source::A, false),
    ("datastore.self_share", "ratio", "lower", Source::C, false),
    ("pagespace.hit_ratio", "ratio", "higher", Source::A, false),
    ("pagespace.dedup_waits", "count", "lower", Source::A, false),
    (
        "pagespace.pages_per_run",
        "count",
        "higher",
        Source::A,
        false,
    ),
    ("pagespace.evictions", "count", "lower", Source::A, false),
    (
        "pagespace.pages_requested_per_query",
        "count",
        "lower",
        Source::A,
        false,
    ),
    (
        "pagespace.fetch_us_per_page",
        "us",
        "lower",
        Source::C,
        false,
    ),
    ("pagespace.hit_read_us_p50", "us", "lower", Source::C, false),
    ("pagespace.self_share", "ratio", "lower", Source::C, false),
    ("storage.read_page_us_p50", "us", "lower", Source::B, false),
    ("storage.pages_read", "count", "lower", Source::B, false),
    ("storage.read_mb", "MiB", "lower", Source::B, false),
    (
        "storage.read_busy_share",
        "ratio",
        "lower",
        Source::B,
        false,
    ),
    ("storage.read_faults", "count", "lower", Source::A, false),
    (
        "storage.spill_write_us_p50",
        "us",
        "lower",
        Source::C,
        false,
    ),
    ("storage.spill_read_us_p50", "us", "lower", Source::C, false),
    ("storage.spill_written_mb", "MiB", "lower", Source::A, false),
    ("microscope.execute_ms_p50", "ms", "lower", Source::B, false),
    ("microscope.execute_ms_p95", "ms", "lower", Source::B, false),
    (
        "microscope.execute_busy_share",
        "ratio",
        "lower",
        Source::B,
        false,
    ),
    (
        "microscope.kernel_ns_per_out_px_average",
        "ns",
        "lower",
        Source::C,
        false,
    ),
    (
        "microscope.kernel_ns_per_out_px_subsample",
        "ns",
        "lower",
        Source::C,
        false,
    ),
    (
        "microscope.project_ns_per_out_px",
        "ns",
        "lower",
        Source::C,
        false,
    ),
    (
        "microscope.kernel_threads",
        "count",
        "higher",
        Source::C,
        true,
    ),
    ("microscope.self_share", "ratio", "lower", Source::C, false),
    ("obs.overhead_pct", "%", "lower", Source::B, false),
    ("obs.events_per_query", "count", "lower", Source::A, false),
    ("obs.timeline_rebuild_ms", "ms", "lower", Source::C, false),
    ("sim.wall_us_per_query", "us", "lower", Source::C, false),
    (
        "sim.predicted_qps_ratio",
        "ratio",
        "higher",
        Source::C,
        false,
    ),
    ("workload.generate_ms", "ms", "lower", Source::C, false),
    (
        "workload.distinct_queries",
        "count",
        "higher",
        Source::C,
        true,
    ),
    ("process.peak_rss_mb", "MiB", "lower", Source::Os, false),
];

pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Mean of the middle half: the lowest and the highest quarter of the
/// values are dropped (rounded down, so fewer than four values are all
/// kept). Like a median it ignores the windows a burst of interference
/// hit; unlike one it averages over the rest, so windows that differ
/// because their queries differ pull it less.
fn midmean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = sorted.len() / 4;
    mean(&sorted[drop..sorted.len() - drop])
}

/// The response-time and throughput numbers of the untraced pass: each
/// computed per window and reported as the `midmean` over the windows of
/// all sessions. Percentiles and the trimmed mean are
/// `vmqs_core::stats`'s, not a second copy.
pub fn end_to_end(pass: &PassOut) -> Values {
    let windows: Vec<_> = pass
        .phase
        .windows
        .iter()
        .filter(|w| !w.response_ms.is_empty())
        .collect();
    let over_windows = |f: &dyn Fn(&crate::measure::Window) -> f64| -> f64 {
        midmean(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    Values::from([
        (
            "throughput_qps",
            over_windows(&|w| ratio(w.response_ms.len() as f64, w.wall_s)),
        ),
        (
            "response_p50_ms",
            over_windows(&|w| percentile(&w.response_ms, 50.0)),
        ),
        (
            "response_p95_ms",
            over_windows(&|w| percentile(&w.response_ms, 95.0)),
        ),
        (
            "response_p99_ms",
            over_windows(&|w| percentile(&w.response_ms, 99.0)),
        ),
        (
            "response_trimmed_mean_ms",
            over_windows(&|w| trimmed_mean_95(&w.response_ms)),
        ),
        ("setup_s", median(&pass.setup_s)),
    ])
}

pub struct LayerInputs<'a> {
    pub workers: usize,
    /// Throughput of the short untraced pass the traced one is compared to.
    pub plain_qps: f64,
    pub traced: &'a PassOut,
    /// (B) lanes of the traced pass, and where its timed phase starts
    /// on the recorder's clock.
    pub lanes: &'a [Lane],
    pub lanes_since_ns: u64,
    pub replay: &'a ReplayOut,
    pub timeline_rebuild_ms: f64,
    /// `VmHWM` at the fixed-work checkpoint of the first untraced pass.
    pub peak_rss_mb: f64,
}

/// Share of `exec_time` the (B) spans and the engine overhead do not
/// explain: time blocked on an in-flight dependency.
pub fn unattributed_share(pass: &PassOut) -> f64 {
    let exec: f64 = pass.records.iter().map(|r| r.exec_time.as_secs_f64()).sum();
    let blocked: f64 = pass
        .records
        .iter()
        .map(|r| r.blocked_time.as_secs_f64())
        .sum();
    ratio(blocked, exec)
}

pub fn per_layer(inp: &LayerInputs<'_>) -> Values {
    let pass = inp.traced;
    let c = &pass.counters;
    let recs = &pass.records;
    let n = recs.len() as f64;
    let wall = pass.phase.wall_s;
    let capacity_s = inp.workers as f64 * wall;
    let ms = |f: fn(&vmqs_server::QueryRecord) -> std::time::Duration| -> Vec<f64> {
        recs.iter().map(|r| f(r).as_secs_f64() * 1e3).collect()
    };
    let queue = ms(|r| r.wait_time);
    let exec = ms(|r| r.exec_time);
    let blocked = ms(|r| r.blocked_time);
    let path = |p: AnswerPath| recs.iter().filter(|r| r.path == p).count() as f64;

    let b = totals_by_name(inp.lanes, inp.lanes_since_ns);
    let none = NameTotals::default();
    let execute = b.get("execute").unwrap_or(&none);
    let read = b.get("read_page").unwrap_or(&none);
    let exec_total_s: f64 = exec.iter().sum::<f64>() / 1e3;
    let blocked_total_s: f64 = blocked.iter().sum::<f64>() / 1e3;

    let rp = totals_by_name(std::slice::from_ref(&inp.replay.lane), 0);
    let r = |name: &str| rp.get(name).unwrap_or(&none);
    let pipeline_self_ns: u64 = PIPELINE_LAYERS
        .iter()
        .flat_map(|(_, names)| names.iter())
        .map(|n| r(n).self_ns)
        .sum();
    let layer_share = |layer: &str| {
        let own: u64 = PIPELINE_LAYERS
            .iter()
            .filter(|(l, _)| *l == layer)
            .flat_map(|(_, names)| names.iter())
            .map(|n| r(n).self_ns)
            .sum();
        ratio(own as f64, pipeline_self_ns as f64)
    };
    let g = &inp.replay.graph;
    let px = |name: &str| {
        inp.replay
            .kernel_px
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, p)| *p as f64)
    };
    let ns_per_px = |name: &str| ratio(r(name).total_ns as f64, px(name));

    let lookups = (c.ds_exact_hits + c.ds_partial_hits + c.ds_misses) as f64;
    let recomputed: f64 = recs
        .iter()
        .filter(|r| matches!(r.path, AnswerPath::PartialReuse | AnswerPath::FullCompute))
        .map(|r| r.spec.qoutsize().saturating_sub(r.reused_bytes) as f64)
        .sum::<f64>()
        + 0.0; // an empty float sum is -0.0
    let traced_qps = ratio(pass.phase.completed as f64, wall);
    const MIB: f64 = (1u64 << 20) as f64;

    let v = Values::from([
        ("server.queue_wait_ms_p50", median(&queue)),
        ("server.queue_wait_ms_p95", percentile(&queue, 95.0)),
        ("server.exec_ms_p50", median(&exec)),
        ("server.exec_ms_p95", percentile(&exec, 95.0)),
        ("server.blocked_ms_mean", mean(&blocked)),
        ("server.submit_us_p50", median(&pass.phase.submit_us)),
        (
            "server.engine_overhead_us_mean",
            ratio(
                (exec_total_s - blocked_total_s - execute.total_ns as f64 / 1e9) * 1e6,
                n,
            ),
        ),
        ("server.worker_busy_share", ratio(exec_total_s, capacity_s)),
        ("server.path_exact", path(AnswerPath::ExactHit)),
        ("server.path_partial", path(AnswerPath::PartialReuse)),
        ("server.path_full", path(AnswerPath::FullCompute)),
        ("server.grafted", path(AnswerPath::Grafted)),
        (
            "server.duplicate_full_computes",
            c.duplicate_full_computes as f64,
        ),
        (
            "server.avg_overlap",
            mean(&recs.iter().map(|r| r.covered_fraction).collect::<Vec<_>>()),
        ),
        ("server.relookups", c.relookups as f64),
        (
            "server.relookup_useful_ratio",
            ratio(c.relookup_hits as f64, c.relookups as f64),
        ),
        ("server.blocked_fallbacks", c.blocked_fallbacks as f64),
        (
            "core.graph_insert_us_p50",
            median(&r("graph.insert").durs_in(1e3)),
        ),
        (
            "core.graph_dequeue_us_p50",
            median(&r("graph.dequeue").durs_in(1e3)),
        ),
        (
            "core.graph_mark_cached_us_p50",
            median(&r("graph.mark_cached").durs_in(1e3)),
        ),
        (
            "core.graph_overlap_evals_per_insert",
            ratio(g.overlap_evals as f64, g.inserted as f64),
        ),
        (
            "core.graph_edges_per_insert",
            ratio(g.edges_created as f64, g.inserted as f64),
        ),
        (
            "core.graph_reranks_per_query",
            ratio(g.reranks as f64, g.inserted as f64),
        ),
        ("core.graph_self_share", layer_share("core")),
        ("core.shard_imbalance", inp.replay.shard_imbalance),
        (
            "datastore.lookup_us_p50",
            median(&r("ds.lookup").durs_in(1e3)),
        ),
        (
            "datastore.lookup_us_p95",
            percentile(&r("ds.lookup").durs_in(1e3), 95.0),
        ),
        (
            "datastore.insert_us_p50",
            median(&r("ds.insert").durs_in(1e3)),
        ),
        (
            "datastore.hit_ratio",
            ratio((c.ds_exact_hits + c.ds_partial_hits) as f64, lookups),
        ),
        (
            "datastore.exact_hit_ratio",
            ratio(c.ds_exact_hits as f64, lookups),
        ),
        (
            "datastore.partial_useful_ratio",
            ratio(path(AnswerPath::PartialReuse), c.ds_partial_hits as f64),
        ),
        ("datastore.evictions", c.ds_evicted as f64),
        (
            "datastore.bytes_evicted_mb",
            c.ds_bytes_evicted as f64 / MIB,
        ),
        ("datastore.rejected", c.ds_rejected as f64),
        ("datastore.unprofitable", c.ds_unprofitable as f64),
        ("datastore.spilled", c.ds_spilled as f64),
        ("datastore.restored", c.ds_restored as f64),
        ("datastore.restore_failures", c.ds_restore_failures as f64),
        ("datastore.recomputed_mb", recomputed / MIB),
        ("datastore.self_share", layer_share("datastore")),
        (
            "pagespace.hit_ratio",
            ratio(c.ps_hits as f64, (c.ps_hits + c.ps_misses) as f64),
        ),
        ("pagespace.dedup_waits", c.ps_dedup_waits as f64),
        (
            "pagespace.pages_per_run",
            ratio(c.ps_pages_fetched as f64, c.ps_runs_issued as f64),
        ),
        ("pagespace.evictions", c.ps_evictions as f64),
        (
            "pagespace.pages_requested_per_query",
            ratio(recs.iter().map(|r| r.pages_requested as f64).sum(), n),
        ),
        (
            "pagespace.fetch_us_per_page",
            ratio(
                r("ps.fetch_pages").self_ns as f64 / 1e3,
                inp.replay.ps.pages_fetched as f64,
            ),
        ),
        (
            "pagespace.hit_read_us_p50",
            median(&r("ps.read_page").durs_in(1e3)),
        ),
        ("pagespace.self_share", layer_share("pagespace")),
        ("storage.read_page_us_p50", median(&read.durs_in(1e3))),
        ("storage.pages_read", read.count as f64),
        (
            "storage.read_mb",
            read.count as f64 * vmqs_microscope::PAGE_SIZE as f64 / MIB,
        ),
        (
            "storage.read_busy_share",
            ratio(read.total_ns as f64 / 1e9, capacity_s),
        ),
        ("storage.read_faults", c.ps_read_faults as f64),
        (
            "storage.spill_write_us_p50",
            median(&r("spill.write").durs_in(1e3)),
        ),
        (
            "storage.spill_read_us_p50",
            median(&r("spill.read").durs_in(1e3)),
        ),
        ("storage.spill_written_mb", c.ds_bytes_spilled as f64 / MIB),
        ("microscope.execute_ms_p50", median(&execute.durs_in(1e6))),
        (
            "microscope.execute_ms_p95",
            percentile(&execute.durs_in(1e6), 95.0),
        ),
        (
            "microscope.execute_busy_share",
            ratio(execute.self_ns as f64 / 1e9, capacity_s),
        ),
        (
            "microscope.kernel_ns_per_out_px_average",
            ns_per_px("kernel.average"),
        ),
        (
            "microscope.kernel_ns_per_out_px_subsample",
            ns_per_px("kernel.subsample"),
        ),
        (
            "microscope.project_ns_per_out_px",
            ns_per_px("kernel.project"),
        ),
        (
            "microscope.kernel_threads",
            vmqs_microscope::kernels::kernel_threads() as f64,
        ),
        ("microscope.self_share", layer_share("microscope")),
        (
            "obs.overhead_pct",
            100.0 * ratio(inp.plain_qps - traced_qps, inp.plain_qps),
        ),
        ("obs.events_per_query", ratio(pass.events.len() as f64, n)),
        ("obs.timeline_rebuild_ms", inp.timeline_rebuild_ms),
        (
            "sim.wall_us_per_query",
            ratio(inp.replay.sim_wall_s * 1e6, inp.replay.queries as f64),
        ),
        (
            "sim.predicted_qps_ratio",
            ratio(
                ratio(inp.replay.queries as f64, inp.replay.sim_makespan_s),
                inp.plain_qps,
            ),
        ),
        ("workload.generate_ms", pass.generate_ms),
        ("workload.distinct_queries", pass.inputs.distinct as f64),
        ("process.peak_rss_mb", inp.peak_rss_mb),
    ]);
    debug_assert_eq!(v.len(), PER_LAYER.len());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn percentiles_and_trimmed_mean_are_the_core_stats_functions() {
        let mut pass = empty_pass();
        let window = |scale: f64| crate::measure::Window {
            wall_s: 4.0,
            response_ms: (1..=200).map(|i| f64::from(i) * scale).collect(),
        };
        // Five windows: the fastest and the slowest are dropped, and each
        // metric is the mean over the other three (scales 1, 2, 3).
        pass.phase.windows = [0.5, 1.0, 2.0, 3.0, 40.0].into_iter().map(window).collect();
        pass.setup_s = vec![3.0, 1.0, 2.0];
        let v = end_to_end(&pass);
        let mid = |f: &dyn Fn(&[f64]) -> f64| {
            mean(&[1, 2, 3].map(|i| f(&pass.phase.windows[i].response_ms)))
        };
        assert_eq!(v["response_p50_ms"], mid(&|r| percentile(r, 50.0)));
        assert_eq!(v["response_p99_ms"], mid(&|r| percentile(r, 99.0)));
        assert_eq!(v["response_trimmed_mean_ms"], mid(&trimmed_mean_95));
        // 2.5 % trimmed from each tail of 1..=200 leaves 6..=195.
        assert_eq!(v["response_trimmed_mean_ms"], 100.5 * 2.0);
        assert_eq!(v["throughput_qps"], 50.0);
        assert_eq!(v["setup_s"], 2.0);
        assert_eq!(v.len(), END_TO_END.len());
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(midmean(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        // 15 windows, as in a full run: 3 + 3 dropped, 9 kept.
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(midmean(&xs), 8.0);
        let mut burst = xs.clone();
        burst[14] = 1e9;
        assert_eq!(midmean(&burst), 8.0);
    }

    fn empty_pass() -> PassOut {
        PassOut {
            inputs: crate::workloads::generate_inputs(
                crate::workloads::Kind::CachedReplay,
                1,
                crate::workloads::Scale { smoke: true },
            ),
            setup_s: Vec::new(),
            generate_ms: 0.0,
            phase: Default::default(),
            counters: Default::default(),
            records: Vec::new(),
            events: Vec::new(),
            batches: 0,
            timed_start: vmqs_core::clock::now(),
            host_steal_pct: 0.0,
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }

    /// `BENCHMARK.json` at the repository root is the contract later
    /// changes are measured against; it must name exactly the metrics and
    /// workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        // The manifest dir is this directory when built as its own
        // package and `crates/bench` when built as a `vmqs-bench` binary.
        let own_package = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let bench_crate = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = [own_package, bench_crate]
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |m: (&str, &str, &str)| (m.0.to_string(), m.1.to_string(), m.2.to_string());
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(|m| own(*m)).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER
                .iter()
                .map(|m| own((m.0, m.1, m.2)))
                .collect::<Vec<_>>()
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::ALL.map(|k| k.name()).to_vec());
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
