//! In-memory span recorder, self-time arithmetic and Chrome trace export.
//!
//! Every span is recorded by the benchmark's own code around a call into
//! a public function of the system (choosing-metrics §4): the system
//! itself carries no span instrumentation yet (ROADMAP item 1). Spans
//! live in per-thread lanes, so recording takes one uncontended lock and
//! never synchronizes two measured threads with each other.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vmqs_core::clock;
use vmqs_core::sync::Mutex;

/// One recorded interval: `(name, start, end, parent, query)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same lane.
    pub parent: Option<u32>,
    /// The query the span belongs to; 0 when the call site cannot know
    /// (a `DataSource::read_page` inherits its parent's in the export).
    pub query: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread, in start order.
#[derive(Clone, Debug, Default)]
pub struct Lane {
    pub label: String,
    pub spans: Vec<Span>,
    /// Stack of currently open span indices (innermost last).
    open: Vec<u32>,
}

static NEXT_RECORDER: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// This thread's lane in the recorder it last recorded into.
    static MY_LANE: RefCell<Option<(usize, Arc<Mutex<Lane>>)>> = const { RefCell::new(None) };
}

pub struct Recorder {
    id: usize,
    origin: Instant,
    all: Mutex<Vec<Arc<Mutex<Lane>>>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            origin: clock::now(),
            all: Mutex::new(Vec::new()),
        })
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn my_lane(&self) -> Arc<Mutex<Lane>> {
        MY_LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some((id, lane)) = slot.as_ref() {
                if *id == self.id {
                    return Arc::clone(lane);
                }
            }
            let mut all = self.all.lock();
            let label = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{}", all.len()), str::to_string);
            let lane = Arc::new(Mutex::new(Lane {
                label,
                ..Lane::default()
            }));
            all.push(Arc::clone(&lane));
            *slot = Some((self.id, Arc::clone(&lane)));
            lane
        })
    }

    /// Opens a span on the calling thread; it closes when the guard drops.
    /// Spans opened while it is open become its children.
    pub fn enter(&self, name: &'static str, query: u64) -> SpanGuard {
        let lane = self.my_lane();
        let idx = {
            let mut l = lane.lock();
            let idx = l.spans.len() as u32;
            let parent = l.open.last().copied();
            l.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                query,
            });
            l.open.push(idx);
            // Stamp the start after the bookkeeping so a reallocating
            // push is not billed to the measured call.
            l.spans[idx as usize].start_ns = self.ns(clock::now());
            idx
        };
        SpanGuard {
            lane,
            idx,
            origin: self.origin,
        }
    }

    /// Records an already-measured interval on the calling thread's lane
    /// and returns its index (usable as a later span's `parent`).
    pub fn record(
        &self,
        name: &'static str,
        query: u64,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        let lane = self.my_lane();
        let mut l = lane.lock();
        l.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            query,
        });
        (l.spans.len() - 1) as u32
    }

    /// Snapshot of every lane recorded so far.
    pub fn lanes(&self) -> Vec<Lane> {
        self.all.lock().iter().map(|l| l.lock().clone()).collect()
    }
}

pub struct SpanGuard {
    lane: Arc<Mutex<Lane>>,
    idx: u32,
    origin: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = clock::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let mut l = self.lane.lock();
        l.spans[self.idx as usize].end_ns = end;
        l.open.retain(|&i| i != self.idx);
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (children never overlap: one thread, one stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            child_ns[p as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-name totals over a set of lanes.
#[derive(Clone, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's full duration, for percentiles.
    pub durs_ns: Vec<u64>,
}

impl NameTotals {
    pub fn durs_in(&self, unit_ns: f64) -> Vec<f64> {
        self.durs_ns.iter().map(|&d| d as f64 / unit_ns).collect()
    }
}

/// Totals over the spans that start at or after `since_ns` (a pass's
/// warm-up runs under the same recorder and must not be counted).
pub fn totals_by_name(lanes: &[Lane], since_ns: u64) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for lane in lanes {
        let selfs = self_times_ns(&lane.spans);
        for (s, self_ns) in lane.spans.iter().zip(selfs) {
            if s.start_ns < since_ns {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
            t.durs_ns.push(s.dur_ns());
        }
    }
    out
}

/// Writes the lanes as Chrome trace-event JSON (complete events,
/// `"ph":"X"`, one `tid` per lane), loadable in Perfetto. Of each lane
/// only spans that start inside its `[from, to]` window are written, so a
/// long run exports its first few thousand timed queries rather than its
/// warm-up and hundreds of megabytes.
pub fn write_chrome_trace(
    path: &std::path::Path,
    lanes: &[(&Lane, std::ops::RangeInclusive<u64>)],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    let mut written = 0usize;
    let mut first = true;
    let mut sep = |f: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        if !first {
            writeln!(f, ",")?;
        }
        first = false;
        Ok(())
    };
    for (tid, (lane, window)) in lanes.iter().enumerate() {
        sep(&mut f)?;
        write!(
            f,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            lane.label.replace(['"', '\\'], "_")
        )?;
        for s in &lane.spans {
            if !window.contains(&s.start_ns) {
                continue;
            }
            // A span that does not know its query shows its nearest
            // ancestor's, so one request's slices share an identifier.
            let mut query = s.query;
            let mut up = s.parent;
            while query == 0 {
                let Some(p) = up else { break };
                query = lane.spans[p as usize].query;
                up = lane.spans[p as usize].parent;
            }
            sep(&mut f)?;
            write!(
                f,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"query\": {query}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )?;
            written += 1;
        }
    }
    writeln!(f, "\n]}}")?;
    f.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // execute [0,100) with two adjacent reads [10,30) [30,45) and a
        // nested grandchild [12,20) inside the first read.
        let spans = vec![
            span("execute", 0, 100, None),
            span("read_page", 10, 30, Some(0)),
            span("fill", 12, 20, Some(1)),
            span("read_page", 30, 45, Some(0)),
            span("execute", 200, 260, None),
        ];
        let selfs = self_times_ns(&spans);
        // Only *direct* children are subtracted: 100 - 20 - 15.
        assert_eq!(selfs, vec![65, 12, 8, 15, 60]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(selfs[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 15, 40, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn guards_nest_by_thread_and_lanes_are_per_thread() {
        let rec = Recorder::new();
        {
            let _outer = rec.enter("outer", 7);
            let _inner = rec.enter("inner", 0);
        }
        let _sib = rec.enter("sibling", 8);
        drop(_sib);
        let r2 = Arc::clone(&rec);
        std::thread::spawn(move || drop(r2.enter("other", 9)))
            .join()
            .unwrap();
        let lanes = rec.lanes();
        assert_eq!(lanes.len(), 2);
        let main = &lanes[0].spans;
        assert_eq!(main.len(), 3);
        assert_eq!(main[0].parent, None);
        assert_eq!(main[1].parent, Some(0));
        assert_eq!(main[2].parent, None);
        assert!(main[0].start_ns <= main[1].start_ns && main[1].end_ns <= main[0].end_ns);
        let totals = totals_by_name(&lanes, 0);
        assert!(totals_by_name(&lanes, u64::MAX).is_empty());
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["outer"].self_ns, main[0].dur_ns() - main[1].dur_ns());
        assert_eq!(totals["other"].count, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_inherits_query_ids() {
        let lane = Lane {
            label: "worker".into(),
            spans: vec![
                Span {
                    query: 42,
                    ..span("execute", 1_000, 9_000, None)
                },
                span("read_page", 2_000, 3_000, Some(0)),
                span("late", 50_000, 60_000, None),
            ],
            open: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!("vmqs_bench_trace_{}", std::process::id()));
        let path = dir.join("t.json");
        let n = write_chrome_trace(&path, &[(&lane, 0..=10_000)]).unwrap();
        assert_eq!(n, 2, "the span past the cutoff is dropped");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = crate::json::Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let read = &events[2];
        assert_eq!(read.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            read.get("args").unwrap().get("query").unwrap().as_f64(),
            Some(42.0)
        );
    }
}
