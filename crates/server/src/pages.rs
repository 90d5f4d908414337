//! Thread-safe Page Space Manager front-end for the real execution engine.
//!
//! Wraps the engine-agnostic [`PageCacheCore`] with a mutex and condition
//! variable and performs actual reads through a [`DataSource`]. Concurrent
//! queries needing the same page block on the in-flight fetch instead of
//! issuing duplicates, and the batch path ([`PageSpaceSession::fetch`])
//! reads merged runs so the I/O-request merging of the paper is exercised
//! for real. A batch returns a handle to every page it asked for, taken at
//! the moment the page was found, read or received, so an executor never
//! looks a page up a second time and a query larger than the whole budget
//! still reads each of its pages once.
//!
//! ## Failure model
//!
//! Reads can fail: transient faults are retried under the configured
//! [`RetryPolicy`] (bounded exponential backoff, deterministic jitter),
//! permanent faults surface immediately, and every wait is bounded by the
//! caller's deadline when one is set (see [`PageSpaceSession`]). On any
//! failure the front-end releases **all** in-flight claims this caller
//! still holds — a failed fetch never strands peers waiting on pages the
//! failed query had claimed.
//!
//! ## Deadline semantics: queue wait consumes the budget
//!
//! A query's deadline is anchored at **submission**, not at dequeue
//! ([`crate::ServerConfig::query_timeout`]), so time spent in the
//! admission queue deliberately consumes the I/O budget a
//! [`PageSpaceSession`] enforces. This is the client-facing reading of a
//! timeout — "answer me within T" — and it is what makes the deadline an
//! overload backstop: under a long queue, stale queries cancel at dequeue
//! (before any page I/O) instead of occupying a worker to produce an
//! answer nobody is waiting for. The engine re-checks the deadline first
//! thing after dequeue, so a fully queue-spent budget costs zero reads.
//! Callers who want a pure execution budget should bound admission
//! instead (`max_pending`, DESIGN.md §10), which keeps queue waits — and
//! therefore the consumed budget — short. Covered by the engine test
//! `deadline_is_anchored_at_submit_so_queue_wait_counts`.

// A panic here takes down a worker or a submitter: every `unwrap` /
// `expect` outside the tests needs an `#[expect(.., reason)]` saying why
// it cannot fire.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{deadline_error, is_deadline};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vmqs_core::clock;
use vmqs_core::sync::atomic::{AtomicUsize, Ordering};
use vmqs_core::sync::{lockdep, Arc, Condvar, LockClass, Mutex};
use vmqs_core::{DatasetId, QueryId};
use vmqs_obs::{EventKind, Obs};
use vmqs_pagespace::{PageCacheCore, PageData, PageKey, PsStats, RetryPolicy};
use vmqs_storage::{is_transient, DataSource};

/// Shared Page Space Manager.
pub struct SharedPageSpace {
    core: Mutex<PageCacheCore>,
    resident_cv: Condvar,
    /// Threads blocked on `resident_cv`, changed only with `core` locked:
    /// a completed fetch notifies only when someone is there to hear it.
    /// (The core's per-page waiter count cannot say so: it is lost when a
    /// claim is aborted and re-claimed while its waiters still sleep.)
    sleepers: AtomicUsize,
    source: Arc<dyn DataSource>,
    page_size: usize,
    retry: RetryPolicy,
    retry_seed: u64,
    /// Event sink: `PageRead` events go to `obs.log`. Unset for
    /// standalone use. The counters stay in the core's [`PsStats`], which
    /// the engine exports as the `vmqs_ps_*` series at snapshot time.
    obs: Option<Arc<Obs>>,
}

impl SharedPageSpace {
    /// Creates a page space of `budget_bytes` over `source` with the
    /// default I/O retry policy.
    pub fn new(budget_bytes: u64, page_size: usize, source: Arc<dyn DataSource>) -> Self {
        SharedPageSpace::with_retry(
            budget_bytes,
            page_size,
            source,
            RetryPolicy::default_io(),
            0,
        )
    }

    /// Creates a page space with an explicit retry policy and jitter seed.
    pub fn with_retry(
        budget_bytes: u64,
        page_size: usize,
        source: Arc<dyn DataSource>,
        retry: RetryPolicy,
        retry_seed: u64,
    ) -> Self {
        SharedPageSpace::with_retry_obs(budget_bytes, page_size, source, retry, retry_seed, None)
    }

    /// Like [`SharedPageSpace::with_retry`], additionally wiring an
    /// observability handle that receives `PageRead` events.
    pub fn with_retry_obs(
        budget_bytes: u64,
        page_size: usize,
        source: Arc<dyn DataSource>,
        retry: RetryPolicy,
        retry_seed: u64,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        SharedPageSpace {
            core: Mutex::ranked(
                LockClass::PagesCore,
                PageCacheCore::new(budget_bytes, page_size as u64),
            ),
            resident_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            source,
            page_size,
            retry,
            retry_seed,
            obs,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PsStats {
        self.core.lock().stats()
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Opens a deadline-scoped view for one query's reads. All fetches and
    /// waits through the session fail with a deadline error once
    /// `deadline` passes; `None` never times out.
    pub fn session(&self, deadline: Option<Instant>) -> PageSpaceSession<'_> {
        PageSpaceSession {
            ps: self,
            deadline,
            query: None,
        }
    }

    /// Like [`SharedPageSpace::session`], attributing the session's reads
    /// to `query` so `PageRead` events carry the owning query's id.
    pub fn session_for(&self, query: QueryId, deadline: Option<Instant>) -> PageSpaceSession<'_> {
        PageSpaceSession {
            ps: self,
            deadline,
            query: Some(query),
        }
    }

    /// Fetches a batch of chunks (pages) of one dataset, blocking until all
    /// are resident or fetched by this caller; duplicate in-flight pages
    /// are awaited rather than re-read. Reads happen outside the lock, run
    /// by run. Equivalent to a session with no deadline.
    pub fn fetch_pages(&self, dataset: DatasetId, indices: &[u64]) -> std::io::Result<()> {
        self.fetch_until(dataset, indices, None, None).map(drop)
    }

    /// Reads one page, fetching it if necessary.
    pub fn read_page(&self, dataset: DatasetId, index: u64) -> std::io::Result<Arc<Vec<u8>>> {
        self.read_page_until(dataset, index, None, None)
    }

    /// Emits a `PageRead` event for `query` when the event log is on.
    fn note_page_read(&self, query: Option<QueryId>, cached: bool, retried: bool) {
        if let (Some(obs), Some(q)) = (&self.obs, query) {
            obs.log.log(q, EventKind::PageRead { cached, retried });
        }
    }

    /// One page read against the backing source, retrying transient
    /// faults under the policy; returns the bytes plus the number of
    /// retries that were needed. Fault/retry accounting lands in
    /// [`PsStats`]; no locks are held across reads or backoff sleeps.
    fn read_with_retry(
        &self,
        page: PageKey,
        deadline: Option<Instant>,
    ) -> std::io::Result<(Vec<u8>, u32)> {
        let mut attempt: u32 = 0;
        loop {
            if deadline.is_some_and(|d| clock::now() >= d) {
                self.core.lock().note_failed_read();
                return Err(deadline_error());
            }
            lockdep::assert_unheld(
                &[
                    LockClass::ShardState,
                    LockClass::Store,
                    LockClass::PagesCore,
                ],
                "device read",
            );
            match self
                .source
                .read_page(page.dataset, page.index, self.page_size)
            {
                Ok(bytes) => return Ok((bytes, attempt)),
                Err(e) => {
                    self.core.lock().note_read_fault();
                    if !is_transient(&e) || is_deadline(&e) || attempt >= self.retry.max_retries {
                        self.core.lock().note_failed_read();
                        return Err(e);
                    }
                    attempt += 1;
                    self.core.lock().note_read_retry();
                    // Jitter stream decorrelates by page so concurrent
                    // retriers don't thundering-herd the device, while
                    // staying deterministic per (seed, page, attempt).
                    let seed = self
                        .retry_seed
                        .wrapping_add(page.index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        ^ page.dataset.raw();
                    let mut delay = self.retry.backoff_delay(attempt, seed);
                    if let Some(d) = deadline {
                        // Never sleep past the deadline; the loop head
                        // converts an expired deadline into a typed error.
                        delay = delay.min(d.saturating_duration_since(clock::now()));
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Releases every in-flight claim in `claimed` that this caller has
    /// not completed, and wakes waiters so they can take over or fail.
    fn release_claims(&self, claimed: &[PageKey]) {
        if claimed.is_empty() {
            return;
        }
        let mut core = self.core.lock();
        for &p in claimed {
            core.abort_fetch(p);
        }
        drop(core);
        self.resident_cv.notify_all();
    }

    /// Resident bytes of `page`, recency untouched (the plan that found it
    /// resident already refreshed it).
    fn resident_bytes(core: &PageCacheCore, page: PageKey) -> Option<Arc<Vec<u8>>> {
        match core.peek(page) {
            Some(PageData::Bytes(b)) => Some(Arc::clone(b)),
            _ => None,
        }
    }

    /// Deadline-aware batch fetch returning one handle per entry of
    /// `indices`, in order; see [`PageSpaceSession::fetch`].
    fn fetch_until(
        &self,
        dataset: DatasetId,
        indices: &[u64],
        deadline: Option<Instant>,
        query: Option<QueryId>,
    ) -> std::io::Result<Vec<Arc<Vec<u8>>>> {
        let keys: Vec<PageKey> = indices.iter().map(|&i| PageKey::new(dataset, i)).collect();
        // Hits are taken under the lock that planned them, so no eviction
        // can come between.
        let (plan, mut got) = {
            let mut core = self.core.lock();
            let plan = core.plan_read(&keys);
            let hits = plan.pages.iter();
            let got: HashMap<PageKey, Arc<Vec<u8>>> = hits
                .filter_map(|(k, _)| Some((*k, Self::resident_bytes(&core, *k)?)))
                .collect();
            (plan, got)
        };

        if self.obs.as_ref().is_some_and(|o| o.log.enabled()) {
            // Already-resident and peer-in-flight pages are satisfied from
            // the cache from this query's perspective; MustFetch pages get
            // their event after the read so `retried` is known.
            for _ in 0..plan.pages.len() - plan.fetch_count() {
                self.note_page_read(query, true, false);
            }
        }

        // Every MustFetch page is now claimed (in-flight) by this caller;
        // on any failure all still-unfetched claims must be released.
        let claimed: Vec<PageKey> = plan.fetch_runs.iter().flat_map(|r| r.pages()).collect();
        for (done, &page) in claimed.iter().enumerate() {
            // Read this caller's merged runs outside the lock.
            match self.read_with_retry(page, deadline) {
                Ok((bytes, attempts)) => {
                    self.note_page_read(query, false, attempts > 0);
                    let bytes = Arc::new(bytes);
                    let mut core = self.core.lock();
                    core.complete_fetch(page, PageData::Bytes(Arc::clone(&bytes)));
                    let wake = self.sleepers.load(Ordering::Relaxed) > 0;
                    drop(core);
                    if wake {
                        self.resident_cv.notify_all();
                    }
                    got.insert(page, bytes);
                }
                Err(e) => {
                    self.release_claims(&claimed[done..]);
                    return Err(e);
                }
            }
        }

        // Take the pages other callers were fetching.
        for page in plan.waits() {
            let mut core = self.core.lock();
            let bytes = loop {
                if let Some(bytes) = Self::resident_bytes(&core, page) {
                    break bytes;
                }
                if !core.is_in_flight(page) {
                    // The other fetch was aborted (or the page was fetched
                    // and already evicted); take over the fetch ourselves.
                    drop(core);
                    let own = self.fetch_until(dataset, &[page.index], deadline, query)?;
                    break own.into_iter().next().ok_or_else(lost_page)?;
                }
                let left = match deadline.map(|d| d.saturating_duration_since(clock::now())) {
                    Some(Duration::ZERO) => {
                        core.note_failed_read();
                        return Err(deadline_error());
                    }
                    left => left,
                };
                // `sleepers` changes only under the `core` lock, so a
                // completer either sees this waiter or this waiter sees its
                // page resident above.
                self.sleepers.fetch_add(1, Ordering::Relaxed);
                match left {
                    None => self.resident_cv.wait(&mut core),
                    Some(left) => drop(self.resident_cv.wait_for(&mut core, left)),
                }
                self.sleepers.fetch_sub(1, Ordering::Relaxed);
            };
            got.insert(page, bytes);
        }

        keys.iter()
            .map(|k| got.get(k).cloned().ok_or_else(lost_page))
            .collect()
    }

    /// Deadline-aware single-page read; see [`SharedPageSpace::read_page`].
    fn read_page_until(
        &self,
        dataset: DatasetId,
        index: u64,
        deadline: Option<Instant>,
        query: Option<QueryId>,
    ) -> std::io::Result<Arc<Vec<u8>>> {
        if let Some(PageData::Bytes(b)) = self.core.lock().get(PageKey::new(dataset, index)) {
            return Ok(b);
        }
        let page = self.fetch_until(dataset, &[index], deadline, query)?;
        page.into_iter().next().ok_or_else(lost_page)
    }
}

/// A planned page ended the fetch without a handle: a Page Space bug, kept
/// an error so the worker path stays panic-free.
fn lost_page() -> std::io::Error {
    std::io::Error::other("page space lost a fetched page")
}

/// A deadline-scoped view of the Page Space for one query's execution.
/// Application executors read through this instead of the raw
/// [`SharedPageSpace`], so every I/O wait — source reads, backoff sleeps,
/// waits on peers' in-flight fetches — observes the query's deadline.
pub struct PageSpaceSession<'a> {
    ps: &'a SharedPageSpace,
    deadline: Option<Instant>,
    query: Option<QueryId>,
}

impl PageSpaceSession<'_> {
    /// The absolute deadline, when one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(clock::now()))
    }

    /// Fails with a deadline error once the deadline has passed; cheap
    /// enough for applications to call between compute stages.
    pub fn check_deadline(&self) -> std::io::Result<()> {
        match self.deadline {
            Some(d) if clock::now() >= d => Err(deadline_error()),
            _ => Ok(()),
        }
    }

    /// Fetches a batch of pages of one dataset and returns one handle per
    /// entry of `indices`, in order: resident pages are cloned under the
    /// lock that planned the read, pages this caller reads are kept from
    /// the read that produced them, and pages a peer is already fetching
    /// are taken when that fetch lands. The handles stay valid whatever
    /// the Page Space evicts afterwards, so a query whose footprint
    /// exceeds the budget still reads each page once. On any failure every
    /// claim this caller still holds is released.
    pub fn fetch(&self, dataset: DatasetId, indices: &[u64]) -> std::io::Result<Vec<Arc<Vec<u8>>>> {
        self.ps
            .fetch_until(dataset, indices, self.deadline, self.query)
    }

    /// [`PageSpaceSession::fetch`] for its effect on the Page Space alone.
    pub fn fetch_pages(&self, dataset: DatasetId, indices: &[u64]) -> std::io::Result<()> {
        self.fetch(dataset, indices).map(drop)
    }

    /// Single-page read; see [`SharedPageSpace::read_page`].
    pub fn read_page(&self, dataset: DatasetId, index: u64) -> std::io::Result<Arc<Vec<u8>>> {
        self.ps
            .read_page_until(dataset, index, self.deadline, self.query)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Barrier;
    use vmqs_storage::{FaultConfig, FaultInjectingSource, SyntheticSource};

    /// Records every page index read (to verify duplicate elimination),
    /// optionally slowing reads down so concurrent requests really
    /// overlap, and optionally failing one page for good.
    #[derive(Default)]
    pub(crate) struct CountingSource {
        inner: SyntheticSource,
        log: std::sync::Mutex<Vec<u64>>,
        delay: Duration,
        bad_page: Option<u64>,
    }

    impl CountingSource {
        fn slow() -> Self {
            CountingSource {
                delay: Duration::from_millis(5),
                ..Default::default()
            }
        }

        pub(crate) fn reads(&self) -> u64 {
            self.log.lock().unwrap().len() as u64
        }

        /// Page indices read, sorted.
        pub(crate) fn pages_read(&self) -> Vec<u64> {
            let mut pages = self.log.lock().unwrap().clone();
            pages.sort_unstable();
            pages
        }
    }

    impl DataSource for CountingSource {
        fn read_page(
            &self,
            dataset: DatasetId,
            index: u64,
            page_size: usize,
        ) -> std::io::Result<Vec<u8>> {
            self.log.lock().unwrap().push(index);
            std::thread::sleep(self.delay);
            if self.bad_page == Some(index) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "bad sector",
                ));
            }
            self.inner.read_page(dataset, index, page_size)
        }
    }

    fn synthetic(index: u64) -> Vec<u8> {
        SyntheticSource::new()
            .read_page(DatasetId(0), index, 256)
            .unwrap()
    }

    #[test]
    fn fetch_hands_back_every_page_once_read_even_when_none_stays_resident() {
        // Two pages of budget, ten pages asked for (out of order, one
        // twice): the fetch evicts its own pages as it goes, yet every
        // handle is right and the source saw each page exactly once.
        let src = Arc::new(CountingSource::default());
        let ps = SharedPageSpace::new(512, 256, src.clone());
        let asked = [7u64, 0, 3, 9, 1, 8, 2, 3, 6, 5, 4];
        let pages = ps.session(None).fetch(DatasetId(0), &asked).unwrap();
        assert_eq!(pages.len(), asked.len());
        for (page, index) in pages.iter().zip(asked) {
            assert_eq!(**page, synthetic(index), "page {index}");
        }
        assert_eq!(src.pages_read(), (0..10).collect::<Vec<_>>());
        assert!(ps.stats().evictions >= 8);
        // Hits come back as handles too, without a source read.
        let again = ps.session(None).fetch(DatasetId(0), &[9, 9]).unwrap();
        assert!(Arc::ptr_eq(&again[0], &again[1]));
        assert_eq!(src.reads(), 10);
    }

    #[test]
    fn fault_in_the_middle_of_a_fetch_releases_every_claim() {
        let src = Arc::new(CountingSource {
            bad_page: Some(3),
            ..Default::default()
        });
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        let session = ps.session(None);
        let e = session
            .fetch(DatasetId(0), &[0, 1, 2, 3, 4, 5])
            .unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(src.pages_read(), [0, 1, 2, 3], "reads stop at the fault");
        // Pages 0..3 landed; the claims on 3, 4 and 5 are gone, so a
        // second attempt plans them as its own fetches, not as waits.
        let before = ps.stats();
        assert!(session.fetch(DatasetId(0), &[0, 1, 2, 3, 4, 5]).is_err());
        let after = ps.stats();
        assert_eq!(after.hits - before.hits, 3);
        assert_eq!(after.misses - before.misses, 3);
        assert_eq!(after.dedup_waits, before.dedup_waits);
        assert_eq!(session.fetch(DatasetId(0), &[4, 5]).unwrap().len(), 2);
    }

    #[test]
    fn expired_deadline_fails_fetch_without_a_source_read() {
        let src = Arc::new(CountingSource::default());
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        let late = ps.session(Some(clock::now() - Duration::from_millis(1)));
        let e = late.fetch(DatasetId(0), &[0, 1, 2]).unwrap_err();
        assert!(is_deadline(&e));
        assert_eq!(src.reads(), 0);
        // Its claims are released: an unbounded caller reads all three.
        let before = ps.stats();
        assert_eq!(
            ps.session(None)
                .fetch(DatasetId(0), &[0, 1, 2])
                .unwrap()
                .len(),
            3
        );
        assert_eq!(ps.stats().dedup_waits, before.dedup_waits);
        assert_eq!(src.pages_read(), [0, 1, 2]);
    }

    #[test]
    fn overlapping_fetches_read_each_shared_page_once() {
        let src = Arc::new(CountingSource::slow());
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for range in [0u64..8, 4..12] {
                let (ps, start) = (&ps, &start);
                s.spawn(move || {
                    let asked: Vec<u64> = range.collect();
                    start.wait();
                    let pages = ps.session(None).fetch(DatasetId(0), &asked).unwrap();
                    for (page, index) in pages.iter().zip(asked) {
                        assert_eq!(**page, synthetic(index), "page {index}");
                    }
                });
            }
        });
        assert_eq!(src.pages_read(), (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn waiter_orphaned_by_an_aborted_claim_is_still_woken() {
        /// The first read blocks until released and then fails for good;
        /// later reads are slow and succeed.
        struct FailFirst {
            gate: std::sync::Mutex<Option<std::sync::mpsc::Receiver<()>>>,
            reads: std::sync::atomic::AtomicU64,
        }
        impl DataSource for FailFirst {
            fn read_page(&self, d: DatasetId, i: u64, size: usize) -> std::io::Result<Vec<u8>> {
                self.reads.fetch_add(1, Ordering::SeqCst);
                if let Some(gate) = self.gate.lock().unwrap().take() {
                    gate.recv().unwrap();
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "bad"));
                }
                std::thread::sleep(Duration::from_millis(20));
                SyntheticSource::new().read_page(d, i, size)
            }
        }
        let (release, gate) = std::sync::mpsc::channel();
        let src = Arc::new(FailFirst {
            gate: std::sync::Mutex::new(Some(gate)),
            reads: Default::default(),
        });
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        let until = |done: &dyn Fn(PsStats) -> bool| {
            while !done(ps.stats()) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        std::thread::scope(|s| {
            let claimant = s.spawn(|| ps.session(None).fetch(DatasetId(0), &[0]));
            until(&|st| st.misses == 1);
            // Two waiters on the claim. When it aborts, one takes the fetch
            // over and the other goes back to sleep on a claim that never
            // counted it; a lost wake-up leaves it asleep until its
            // deadline, which the elapsed time shows.
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        ps.session(Some(clock::now() + Duration::from_secs(10)))
                            .fetch(DatasetId(0), &[0])
                    })
                })
                .collect();
            until(&|st| st.dedup_waits == 2);
            let released = clock::now();
            release.send(()).unwrap();
            assert!(claimant.join().unwrap().is_err());
            for w in waiters {
                assert_eq!(*w.join().unwrap().unwrap()[0], synthetic(0));
            }
            assert!(released.elapsed() < Duration::from_secs(5));
        });
        assert_eq!(
            src.reads.load(Ordering::SeqCst),
            2,
            "one failed, one takeover"
        );
    }

    #[test]
    fn read_page_returns_source_bytes() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        let a = ps.read_page(DatasetId(1), 3).unwrap();
        let b = SyntheticSource::new()
            .read_page(DatasetId(1), 3, 256)
            .unwrap();
        assert_eq!(*a, b);
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let src = Arc::new(CountingSource::default());
        let ps = SharedPageSpace::new(1 << 20, 256, src.clone());
        for _ in 0..5 {
            ps.read_page(DatasetId(0), 7).unwrap();
        }
        assert_eq!(src.reads(), 1);
        assert_eq!(ps.stats().misses, 1);
    }

    #[test]
    fn concurrent_readers_deduplicate_io() {
        let src = Arc::new(CountingSource::slow());
        let ps = Arc::new(SharedPageSpace::new(1 << 20, 256, src.clone()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ps = Arc::clone(&ps);
            handles.push(std::thread::spawn(move || {
                ps.read_page(DatasetId(0), 42).unwrap()
            }));
        }
        let results: Vec<Arc<Vec<u8>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        // All eight threads were satisfied by a single disk read. (The
        // dedup_waits/hits split depends on how the threads interleave —
        // under heavy load they may serialize and hit via `get` — so the
        // read count is the only scheduling-independent invariant.)
        assert_eq!(src.reads(), 1);
    }

    #[test]
    fn fetch_pages_merges_runs() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 10, 11]).unwrap();
        let s = ps.stats();
        assert_eq!(s.runs_issued, 2);
        assert_eq!(s.pages_fetched, 6);
    }

    #[test]
    fn eviction_pressure_still_serves_reads() {
        // Capacity of 2 pages; read 10 distinct pages repeatedly.
        let ps = SharedPageSpace::new(512, 256, Arc::new(SyntheticSource::new()));
        for round in 0..3 {
            for i in 0..10u64 {
                let got = ps.read_page(DatasetId(0), i).unwrap();
                let want = SyntheticSource::new()
                    .read_page(DatasetId(0), i, 256)
                    .unwrap();
                assert_eq!(*got, want, "round {round} page {i}");
            }
        }
        assert!(ps.stats().evictions > 0);
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // 60% transient rate with 8 retries: every page clears eventually,
        // and data is byte-identical to the clean source.
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(0.6, 42));
        let policy = RetryPolicy {
            max_retries: 16,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
            jitter: 0.25,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 1);
        for i in 0..20u64 {
            let got = ps.read_page(DatasetId(3), i).unwrap();
            let want = SyntheticSource::new()
                .read_page(DatasetId(3), i, 256)
                .unwrap();
            assert_eq!(*got, want, "page {i}");
        }
        let s = ps.stats();
        assert!(s.read_faults > 0, "60% rate must inject something");
        assert_eq!(s.read_retries, s.read_faults, "every fault was retried");
        assert_eq!(s.failed_reads, 0);
    }

    #[test]
    fn permanent_faults_fail_without_retry() {
        let faulty = FaultInjectingSource::new(
            SyntheticSource::new(),
            FaultConfig {
                permanent_rate: 1.0,
                ..FaultConfig::none()
            },
        );
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(faulty));
        let e = ps.read_page(DatasetId(0), 0).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        let s = ps.stats();
        assert_eq!(s.read_retries, 0, "permanent faults must not be retried");
        assert_eq!(s.failed_reads, 1);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(1.0, 7));
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(1),
            max_delay: Duration::from_micros(4),
            jitter: 0.0,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 0);
        let e = ps.read_page(DatasetId(0), 5).unwrap_err();
        assert!(is_transient(&e));
        let s = ps.stats();
        assert_eq!(s.read_retries, 3);
        assert_eq!(s.read_faults, 4, "initial attempt + 3 retries");
        assert_eq!(s.failed_reads, 1);
    }

    #[test]
    fn failed_fetch_releases_all_claims() {
        // Page 0 permanently poisoned (rate 1.0 poisons everything); a
        // batch fetch of pages 0..6 must fail AND leave no page in-flight,
        // so a later caller on a different source path can claim them.
        let faulty = FaultInjectingSource::new(
            SyntheticSource::new(),
            FaultConfig {
                permanent_rate: 1.0,
                ..FaultConfig::none()
            },
        );
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(faulty));
        assert!(ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 4, 5]).is_err());
        // All claims released: a retrying caller re-plans every page as
        // MustFetch (misses grow by 6), none as InFlightElsewhere.
        let before = ps.stats();
        assert!(ps.fetch_pages(DatasetId(0), &[0, 1, 2, 3, 4, 5]).is_err());
        let after = ps.stats();
        assert_eq!(after.misses - before.misses, 6);
        assert_eq!(after.dedup_waits, before.dedup_waits);
    }

    #[test]
    fn session_deadline_cancels_reads() {
        let ps = SharedPageSpace::new(1 << 20, 256, Arc::new(SyntheticSource::new()));
        let session = ps.session(Some(clock::now() - Duration::from_millis(1)));
        let e = session.read_page(DatasetId(0), 0).unwrap_err();
        assert!(crate::error::is_deadline(&e));
        assert!(session.check_deadline().is_err());
        assert_eq!(session.remaining(), Some(Duration::ZERO));
        // An unbounded session still works.
        let free = ps.session(None);
        assert!(free.check_deadline().is_ok());
        assert!(free.read_page(DatasetId(0), 0).is_ok());
    }

    #[test]
    fn deadline_bounds_retry_backoff() {
        // Permanent 100% transient faults + huge backoff: the deadline must
        // cut the retry loop short rather than sleeping the full schedule.
        let faulty =
            FaultInjectingSource::new(SyntheticSource::new(), FaultConfig::transient(1.0, 1));
        let policy = RetryPolicy {
            max_retries: 1000,
            base_delay: Duration::from_secs(1),
            max_delay: Duration::from_secs(1),
            jitter: 0.0,
        };
        let ps = SharedPageSpace::with_retry(1 << 20, 256, Arc::new(faulty), policy, 0);
        let session = ps.session(Some(clock::now() + Duration::from_millis(20)));
        let t0 = clock::now();
        let e = session.read_page(DatasetId(0), 0).unwrap_err();
        assert!(t0.elapsed() < Duration::from_millis(500));
        assert!(crate::error::is_deadline(&e));
    }
}
