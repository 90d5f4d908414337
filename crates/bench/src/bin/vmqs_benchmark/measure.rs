//! Load generation and measurement against the real threaded
//! `QueryServer`: closed-loop clients, the paused batch, timed-phase
//! counter deltas and answer verification.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vmqs_core::{clock, ClientId, QueryId};
use vmqs_microscope::kernels::reference_render;
use vmqs_microscope::VmQuery;
use vmqs_obs::EventRecord;
use vmqs_server::{AppExecutor, QueryRecord, QueryServer};

use crate::spans::Recorder;
use crate::workloads::{
    combine_hashes, generate_inputs, session_seed, spec_key, Inputs, Kind, Scale, SpecKey,
};

/// One answer in this many is kept for byte-exact verification.
const SAMPLE_EVERY: usize = 64;
/// Answer bytes a pass may keep alive for verification (split evenly over
/// its sessions, or an eighth per batch). Bounds both
/// peak RSS and the reference-render time after the timed phase.
const SAMPLE_BYTES: usize = 12 << 20;

/// Windows each session's timed slice is cut into. Each end-to-end metric
/// is computed per window and reported as the mean of the middle half of
/// the windows of all sessions, so a burst of interference from outside
/// the process moves few of them.
pub const WINDOWS_PER_SESSION: usize = 3;

/// One slice of a timed phase: a third of a session's timed slice, or one
/// whole batch.
#[derive(Default)]
pub struct Window {
    pub wall_s: f64,
    /// Submit -> reply of each query that completed in the window, ms.
    pub response_ms: Vec<f64>,
}

/// What one timed (or warm-up) phase observed from the client side.
#[derive(Default)]
pub struct PhaseOut {
    pub wall_s: f64,
    pub windows: Vec<Window>,
    /// Replies that arrived, including those after the last window.
    pub completed: u64,
    /// Client-side cost of `submit_from`, microseconds.
    pub submit_us: Vec<f64>,
    pub attempted: u64,
    /// `Err` from `wait()` (a missing reply is `Err(Shutdown)`).
    pub failed: u64,
    pub samples: Vec<(VmQuery, Arc<[u8]>)>,
    /// Peak RSS (MiB) when the phase reached its memory checkpoint.
    pub rss_mb: Option<f64>,
}

impl PhaseOut {
    fn absorb(&mut self, other: PhaseOut) {
        self.rss_mb = self.rss_mb.or(other.rss_mb);
        self.wall_s += other.wall_s;
        self.windows.extend(other.windows);
        self.completed += other.completed;
        self.submit_us.extend(other.submit_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.samples.extend(other.samples);
    }
}

pub enum Stop {
    /// Run each client's list once (warm-up).
    Once,
    /// Cycle each client's list until this much time has passed.
    After(Duration),
}

/// Keeps every `SAMPLE_EVERY`-th answer of a phase (or of a batch), while
/// the phase's byte budget lasts.
struct Sampler<'a> {
    budget: &'a AtomicUsize,
    kept: Vec<(VmQuery, Arc<[u8]>)>,
}

impl<'a> Sampler<'a> {
    fn new(budget: &'a AtomicUsize) -> Self {
        Sampler {
            budget,
            kept: Vec::new(),
        }
    }

    fn offer(&mut self, i: usize, spec: &VmQuery, image: &Arc<[u8]>) {
        if !i.is_multiple_of(SAMPLE_EVERY) {
            return;
        }
        // Relaxed: the budget guards no other data.
        let claimed = self
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(image.len())
            });
        if claimed.is_ok() {
            self.kept.push((*spec, Arc::clone(image)));
        }
    }
}

/// Closed loop: one OS thread per client that only submits, waits for the
/// reply and is otherwise parked in `recv`, so the runnable threads are
/// the server's workers.
///
/// `rss_after`: the client that receives the phase's `rss_after`-th reply
/// reads the process's peak RSS. The server keeps a record per completed
/// query, so memory at the end of a fixed-time run grows with throughput;
/// read at a fixed amount of work, a faster commit is not billed for
/// having served more.
pub fn run_closed_loop<A: AppExecutor<Spec = VmQuery>>(
    server: &QueryServer<A>,
    lists: &[Vec<VmQuery>],
    stop: Stop,
    rss_after: Option<usize>,
    sample_bytes: usize,
    rec: Option<&Recorder>,
) -> PhaseOut {
    struct ClientOut {
        first: Instant,
        last: Instant,
        /// `(reply instant, response ms)` of each completed query.
        replies: Vec<(Instant, f64)>,
        out: PhaseOut,
    }
    let barrier = Barrier::new(lists.len());
    let replies_so_far = AtomicUsize::new(0);
    let stop = &stop;
    let sample_budget = AtomicUsize::new(sample_bytes);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let barrier = &barrier;
                let replies_so_far = &replies_so_far;
                let sample_budget = &sample_budget;
                std::thread::Builder::new()
                    .name(format!("client-{c}"))
                    .spawn_scoped(s, move || {
                        let client = ClientId(c as u64);
                        let mut out = PhaseOut::default();
                        let mut replies = Vec::new();
                        let mut sampler = Sampler::new(sample_budget);
                        barrier.wait();
                        let first = clock::now();
                        let mut last = first;
                        let mut i = 0usize;
                        loop {
                            match stop {
                                Stop::Once if i >= list.len() => break,
                                Stop::After(d) if last - first >= *d => break,
                                _ => {}
                            }
                            let spec = &list[i % list.len()];
                            let t0 = clock::now();
                            let handle = server.submit_from(client, *spec);
                            let t1 = clock::now();
                            let id = handle.id.raw();
                            let reply = handle.wait();
                            let t2 = clock::now();
                            last = t2;
                            // Relaxed: a statistic, publishes no data.
                            let nth = replies_so_far.fetch_add(1, Ordering::Relaxed) + 1;
                            out.attempted += 1;
                            out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                            match reply {
                                Ok(r) => {
                                    replies.push((t2, (t2 - t0).as_secs_f64() * 1e3));
                                    sampler.offer(nth - 1, spec, &r.image);
                                }
                                Err(_) => out.failed += 1,
                            }
                            if let Some(rec) = rec {
                                let p = rec.record("query", id, t0, t2, None);
                                rec.record("submit", id, t0, t1, Some(p));
                                rec.record("wait", id, t1, t2, Some(p));
                            }
                            i += 1;
                            if rss_after == Some(nth) {
                                out.rss_mb = Some(peak_rss_mb());
                            }
                        }
                        out.samples = sampler.kept;
                        ClientOut {
                            first,
                            last,
                            replies,
                            out,
                        }
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let first = outs.iter().map(|o| o.first).min();
    let last = outs.iter().map(|o| o.last).max();
    let mut total = PhaseOut::default();
    let (Some(first), Some(last)) = (first, last) else {
        return total;
    };
    // A timed phase is cut into equal windows; queries still in flight at
    // the deadline reply after the last one and count only in the totals.
    let (count, window_s) = match stop {
        Stop::Once => (1, (last - first).as_secs_f64().max(f64::MIN_POSITIVE)),
        Stop::After(d) => (
            WINDOWS_PER_SESSION,
            d.as_secs_f64() / WINDOWS_PER_SESSION as f64,
        ),
    };
    total.windows = (0..count)
        .map(|_| Window {
            wall_s: window_s,
            response_ms: Vec::new(),
        })
        .collect();
    for o in outs {
        total.completed += o.replies.len() as u64;
        for (at, ms) in o.replies {
            let w = ((at - first).as_secs_f64() / window_s) as usize;
            if let Some(win) = total.windows.get_mut(w) {
                win.response_ms.push(ms);
            }
        }
        total.absorb(o.out);
    }
    // Clients overlap in time: the phase's wall clock is first submit to
    // last reply, not the sum `absorb` accumulated.
    total.wall_s = (last - first).as_secs_f64();
    total
}

/// The paper's batch: every query submitted by one caller against paused
/// workers, then released; timed from the first `submit` to the last
/// reply. Per-query response times are the server's own submit ->
/// completion stamps (`QueryRecord::response_time`): a single caller
/// draining handles in order cannot observe each completion instant.
pub fn run_batch<A: AppExecutor<Spec = VmQuery>>(
    server: &QueryServer<A>,
    batch: &[VmQuery],
    rec: Option<&Recorder>,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let mut response_ms = Vec::with_capacity(batch.len());
    let sample_budget = AtomicUsize::new(SAMPLE_BYTES / 8);
    let mut sampler = Sampler::new(&sample_budget);
    let start = clock::now();
    let mut handles = Vec::with_capacity(batch.len());
    for spec in batch {
        let t0 = clock::now();
        let h = server.submit_from(ClientId(0), *spec);
        let t1 = clock::now();
        out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        if let Some(rec) = rec {
            rec.record("submit", h.id.raw(), t0, t1, None);
        }
        handles.push(h);
    }
    server.resume_workers();
    for (i, (h, spec)) in handles.into_iter().zip(batch).enumerate() {
        let t1 = clock::now();
        let id = h.id.raw();
        out.attempted += 1;
        match h.wait() {
            Ok(r) => {
                response_ms.push(r.record.response_time().as_secs_f64() * 1e3);
                sampler.offer(i, spec, &r.image);
            }
            Err(_) => out.failed += 1,
        }
        if let Some(rec) = rec {
            rec.record("wait", id, t1, clock::now(), None);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.completed = response_ms.len() as u64;
    // A batch is its own window.
    out.windows.push(Window {
        wall_s: out.wall_s,
        response_ms,
    });
    out.samples = sampler.kept;
    out
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Monotone server counters; the timed phase is `after.minus(before)`.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            pub fn minus(self, before: Counters) -> Counters {
                Counters { $($field: self.$field - before.$field),* }
            }
            pub fn plus(self, other: Counters) -> Counters {
                Counters { $($field: self.$field + other.$field),* }
            }
        }
    };
}

counters! {
    completed, failed,
    ds_exact_hits, ds_partial_hits, ds_misses, ds_evicted, ds_bytes_evicted, ds_rejected,
    ds_unprofitable, ds_spilled, ds_bytes_spilled, ds_restored, ds_restore_failures,
    ps_hits, ps_misses, ps_dedup_waits, ps_evictions, ps_runs_issued, ps_pages_fetched,
    ps_read_faults,
    graph_inserted, graph_dequeued, graph_swapped_out, graph_edges_created, graph_reranks,
    graph_overlap_evals,
    relookups, relookup_hits, blocked_fallbacks, duplicate_full_computes,
}

impl Counters {
    pub fn snapshot<A: AppExecutor>(server: &QueryServer<A>) -> Counters {
        let ds = server.ds_stats();
        let ps = server.ps_stats();
        let g = server.graph_stats();
        let s = server.summary();
        let (relookups, relookup_hits) = server.relookup_stats();
        Counters {
            completed: s.completed as u64,
            failed: (s.failed + s.timed_out + s.rejected + s.shed) as u64,
            ds_exact_hits: ds.exact_hits,
            ds_partial_hits: ds.partial_hits,
            ds_misses: ds.misses,
            ds_evicted: ds.evicted,
            ds_bytes_evicted: ds.bytes_evicted,
            ds_rejected: ds.rejected,
            ds_unprofitable: ds.unprofitable,
            ds_spilled: ds.spilled,
            ds_bytes_spilled: ds.bytes_spilled,
            ds_restored: ds.restored,
            ds_restore_failures: ds.restore_failures,
            ps_hits: ps.hits,
            ps_misses: ps.misses,
            ps_dedup_waits: ps.dedup_waits,
            ps_evictions: ps.evictions,
            ps_runs_issued: ps.runs_issued,
            ps_pages_fetched: ps.pages_fetched,
            ps_read_faults: ps.read_faults,
            graph_inserted: g.inserted,
            graph_dequeued: g.dequeued,
            graph_swapped_out: g.swapped_out,
            graph_edges_created: g.edges_created,
            graph_reranks: g.reranks,
            graph_overlap_evals: g.overlap_evals,
            relookups,
            relookup_hits,
            blocked_fallbacks: server.blocked_fallbacks(),
            duplicate_full_computes: s.duplicate_full_computes,
        }
    }
}

/// `VmHWM` of this process in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs since boot, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor took from this machine between two
/// `cpu_jiffies` readings, in percent: a run measured while the host is
/// oversubscribed says so in its header.
fn steal_pct(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Compares every kept answer with `reference_render`; returns how many
/// differ. References are memoized per predicate.
pub fn count_mismatches(samples: &[(VmQuery, Arc<[u8]>)]) -> u64 {
    let mut reference: HashMap<SpecKey, Vec<u8>> = HashMap::new();
    let mut bad = 0;
    for (spec, image) in samples {
        let want = reference
            .entry(spec_key(spec))
            .or_insert_with(|| reference_render(spec).data);
        if want[..] != image[..] {
            bad += 1;
        }
    }
    bad
}

/// A spill directory named after this process, removed on every exit path
/// that unwinds or returns.
pub struct SpillRoot {
    root: PathBuf,
    next: AtomicUsize,
}

impl SpillRoot {
    /// `base` is the benchmark's artefact directory: a run reads and
    /// writes only inside its checkout.
    pub fn under(base: &std::path::Path) -> SpillRoot {
        // Unique per instance as well as per process: tests build several
        // roots concurrently in one process.
        static INSTANCE: AtomicUsize = AtomicUsize::new(0);
        SpillRoot {
            root: base.join(format!(
                "spill_{}_{}",
                std::process::id(),
                INSTANCE.fetch_add(1, Ordering::Relaxed)
            )),
            next: AtomicUsize::new(0),
        }
    }

    /// A directory no earlier server of this process used: a new server
    /// would otherwise adopt its predecessor's frames at start-up.
    pub fn fresh_dir(&self) -> PathBuf {
        self.root
            .join(format!("s{}", self.next.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything one pass (its sessions' set-ups and timed slices) produced.
pub struct PassOut {
    /// Inputs of the first session; `hash` covers every session's.
    pub inputs: Inputs,
    /// One entry per session: generation + construction + warm-up.
    pub setup_s: Vec<f64>,
    pub generate_ms: f64,
    pub phase: PhaseOut,
    /// Timed-phase deltas (warm-up excluded).
    pub counters: Counters,
    /// Records of the timed phase only.
    pub records: Vec<QueryRecord>,
    /// Events of the timed phase only; empty with observability off.
    pub events: Vec<EventRecord>,
    pub batches: usize,
    /// When the first set-up ended: spans that start earlier belong to
    /// its warm-up.
    pub timed_start: Instant,
    /// CPU time stolen by the hypervisor during the pass, percent.
    pub host_steal_pct: f64,
}

pub struct PassCfg<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub scale: Scale,
    /// Timed seconds of the whole pass, split evenly over its sessions.
    pub seconds: f64,
    /// Independent trials: each generates inputs from its own sub-seed,
    /// builds a fresh server, warms it up (one `setup_s` sample) and is
    /// timed for `seconds / sessions`. One seed's sharing structure (where
    /// its hotspots fall) moves throughput by several percent; a run
    /// averages over several. A batch pass repeats only the set-up this
    /// often: its timed batches are already fresh-server trials.
    pub sessions: usize,
    pub rec: Option<&'a Recorder>,
}

/// Runs the pass's sessions against servers built by `make_server`;
/// checks conservation and the graph invariants before shutting each
/// server down.
pub fn run_pass<A: AppExecutor<Spec = VmQuery>>(
    cfg: &PassCfg<'_>,
    make_server: &dyn Fn() -> QueryServer<A>,
) -> Result<PassOut, String> {
    let sessions = cfg.sessions.max(1);
    let jiffies_before = cpu_jiffies();
    // Generate, construct, warm up; returns the set-up's duration too.
    let set_up = |session: usize| -> Result<(Inputs, QueryServer<A>, f64, f64), String> {
        // A batch's sessions repeat one set-up; its seed moves the raster.
        let seed = if cfg.kind.is_batch() {
            cfg.seed
        } else {
            session_seed(cfg.seed, session)
        };
        let t = clock::now();
        let inputs = generate_inputs(cfg.kind, seed, cfg.scale);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let server = make_server();
        let w = if cfg.kind.is_batch() {
            run_batch(&server, &inputs.warmup[0], None)
        } else {
            let mut w = run_closed_loop(&server, &inputs.prime, Stop::Once, None, 0, None);
            w.absorb(run_closed_loop(
                &server,
                &inputs.warmup,
                Stop::Once,
                None,
                0,
                None,
            ));
            w
        };
        if w.failed > 0 {
            return Err(format!("{} warm-up queries failed", w.failed));
        }
        Ok((inputs, server, generate_ms, t.elapsed().as_secs_f64()))
    };

    let (inputs, server, generate_ms, first_setup_s) = set_up(0)?;
    let mut out = PassOut {
        inputs,
        setup_s: vec![first_setup_s],
        generate_ms,
        phase: PhaseOut::default(),
        counters: Counters::default(),
        records: Vec::new(),
        events: Vec::new(),
        batches: 0,
        timed_start: clock::now(),
        host_steal_pct: 0.0,
    };
    let mut servers_done = 0u64;
    let mut finish = |server: QueryServer<A>,
                      before: Counters,
                      events_before: usize,
                      phase: PhaseOut,
                      out: &mut PassOut|
     -> Result<(), String> {
        server.drain();
        let delta = Counters::snapshot(&server).minus(before);
        if phase.attempted != delta.completed + delta.failed {
            return Err(format!(
                "conservation broken: {} submitted, {} completed + {} failed",
                phase.attempted, delta.completed, delta.failed
            ));
        }
        server.check_invariants();
        out.records
            .extend(server.records().into_iter().skip(before.completed as usize));
        // Every fresh server numbers its queries from 1 again; keep them
        // apart in the merged log.
        let server_tag = servers_done << 32;
        servers_done += 1;
        out.events.extend(
            server
                .events()
                .into_iter()
                .skip(events_before)
                .map(|mut e| {
                    e.query = QueryId(e.query.raw() + server_tag);
                    e
                }),
        );
        out.counters = out.counters.plus(delta);
        out.phase.absorb(phase);
        server.shutdown();
        Ok(())
    };

    if cfg.kind.is_batch() {
        // The warm-up servers only warm the process (threads, allocator,
        // page-fill code paths); every timed batch gets a fresh, paused,
        // cold server, so batches are identical trials.
        server.shutdown();
        for session in 1..sessions {
            let (_, server, _, setup_s) = set_up(session)?;
            server.shutdown();
            out.setup_s.push(setup_s);
        }
        let batches = std::mem::take(&mut out.inputs.timed);
        for batch in &batches {
            if out.phase.wall_s >= cfg.seconds {
                break;
            }
            let server = make_server();
            let mut phase = run_batch(&server, batch, cfg.rec);
            // Memory is read after the first batch: a fixed amount of work.
            if out.batches == 0 {
                phase.rss_mb = Some(peak_rss_mb());
            }
            finish(server, Counters::default(), 0, phase, &mut out)?;
            out.batches += 1;
        }
        out.inputs.timed = batches;
    } else {
        let slice = Duration::from_secs_f64(cfg.seconds / sessions as f64);
        // The first session's set-up is done; its inputs live in `out`.
        let mut first = Some((server, None));
        for session in 0..sessions {
            let (server, inputs) = match first.take() {
                Some(first) => first,
                None => {
                    let (inputs, server, _, setup_s) = set_up(session)?;
                    out.setup_s.push(setup_s);
                    out.inputs.hash = combine_hashes(out.inputs.hash, inputs.hash);
                    (server, Some(inputs))
                }
            };
            let timed = inputs.as_ref().map_or(&out.inputs.timed, |i| &i.timed);
            let before = Counters::snapshot(&server);
            let events_before = server.events().len();
            let phase = run_closed_loop(
                &server,
                timed,
                Stop::After(slice),
                Some(cfg.kind.rss_checkpoint()),
                SAMPLE_BYTES / sessions,
                cfg.rec,
            );
            finish(server, before, events_before, phase, &mut out)?;
        }
    }
    out.host_steal_pct = steal_pct(jiffies_before, cpu_jiffies());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmqs_core::{DatasetId, Rect};
    use vmqs_microscope::{SlideDataset, VmOp};
    use vmqs_server::ServerConfig;
    use vmqs_storage::SyntheticSource;

    fn tile(i: u32) -> VmQuery {
        let slide = SlideDataset::new(DatasetId(0), 1024, 1024);
        VmQuery::new(slide, Rect::new(i * 32, 0, 32, 32), 1, VmOp::Subsample)
    }

    #[test]
    fn timed_phase_deltas_exclude_the_warmup() {
        let server = QueryServer::new(
            ServerConfig::small().with_threads(2),
            Arc::new(SyntheticSource::new()),
        );
        let warm: Vec<Vec<VmQuery>> = vec![(0..4).map(tile).collect()];
        let w = run_closed_loop(&server, &warm, Stop::Once, None, 0, None);
        assert_eq!((w.attempted, w.failed), (4, 0));
        let before = Counters::snapshot(&server);
        assert_eq!(before.completed, 4);
        assert_eq!(before.ds_misses, 4);

        // Replaying the same four tiles: exact hits only.
        let t = run_closed_loop(&server, &warm, Stop::Once, None, 0, None);
        let delta = Counters::snapshot(&server).minus(before);
        assert_eq!(delta.completed, t.attempted);
        assert_eq!(delta.ds_exact_hits, 4);
        assert_eq!(delta.ds_misses, 0, "warm-up misses must not leak in");
        assert_eq!(delta.ps_pages_fetched, 0);
        assert_eq!(delta.plus(before), Counters::snapshot(&server));
        assert_eq!(server.records().len() - before.completed as usize, 4);
        server.shutdown();
    }

    #[test]
    fn sampled_answers_are_checked_against_the_reference() {
        let server = QueryServer::new(
            ServerConfig::small().with_threads(2),
            Arc::new(SyntheticSource::new()),
        );
        let list: Vec<Vec<VmQuery>> = vec![(0..3).map(tile).collect()];
        let out = run_closed_loop(&server, &list, Stop::Once, None, 1 << 20, None);
        server.shutdown();
        assert_eq!(out.samples.len(), 1, "index 0 of 3 is the 1-in-64 sample");
        assert_eq!(count_mismatches(&out.samples), 0);
        let mut broken = out.samples.clone();
        let mut bytes = broken[0].1.to_vec();
        bytes[0] ^= 1;
        broken[0].1 = bytes.into();
        assert_eq!(count_mismatches(&broken), 1);
    }

    #[test]
    fn batch_runs_against_a_paused_server_and_reports_server_side_latency() {
        let server = QueryServer::new(
            ServerConfig::small()
                .with_threads(2)
                .with_start_paused(true),
            Arc::new(SyntheticSource::new()),
        );
        let batch: Vec<VmQuery> = (0..8).map(tile).collect();
        let out = run_batch(&server, &batch, None);
        assert_eq!((out.attempted, out.failed), (8, 0));
        assert_eq!((out.windows.len(), out.completed), (1, 8));
        let ms = &out.windows[0].response_ms;
        assert!(ms.len() == 8 && ms.iter().all(|&ms| ms <= out.wall_s * 1e3));
        server.shutdown();
    }

    #[test]
    fn steal_share_is_a_percentage_of_elapsed_cpu_time() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((60, 2000))), 5.0);
        assert_eq!(steal_pct(None, Some((60, 2000))), 0.0);
        assert_eq!(steal_pct(Some((10, 1000)), Some((10, 1000))), 0.0);
    }

    #[test]
    fn spill_root_hands_out_distinct_dirs_and_cleans_up() {
        let root = SpillRoot::under(&std::env::temp_dir());
        let (a, b) = (root.fresh_dir(), root.fresh_dir());
        assert_ne!(a, b);
        std::fs::create_dir_all(&a).unwrap();
        let parent = a.parent().unwrap().to_path_buf();
        drop(root);
        assert!(!parent.exists());
    }
}
