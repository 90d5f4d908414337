//! Loom models for the concurrency-critical primitives behind
//! `vmqs_core::sync`.
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release --test loom
//! ```
//!
//! Each model exhaustively explores thread interleavings (including
//! coherence-admissible stale reads of relaxed atomics) within the
//! preemption bound and fails on any schedule that violates its
//! assertion. The orderings these models pin down are documented at the
//! primitive (`Histogram::observe`, the Page Space claim protocol, the
//! engine's wakeup handshakes); weakening any of them makes the matching
//! model fail — see `docs/loom-counterexamples.md` for the recorded
//! counterexamples. Data Store entries have no model: their phase is a
//! plain field written only through `&mut DataStore`.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use vmqs_core::DatasetId;
use vmqs_obs::{Counter, Histogram};
use vmqs_pagespace::{PageCacheCore, PageData, PageDisposition, PageKey};

fn key() -> PageKey {
    PageKey::new(DatasetId(1), 0)
}

/// Duplicate elimination: however three requesters for the same page
/// interleave, exactly one receives `MustFetch`; everyone else hits the
/// cache or waits on the in-flight claim.
#[test]
fn claim_dedup_single_fetch() {
    loom::model(|| {
        let core = Arc::new(Mutex::new(PageCacheCore::new(4096, 1024)));
        let fetches = Arc::new(AtomicUsize::new(0));

        let worker = |core: Arc<Mutex<PageCacheCore>>, fetches: Arc<AtomicUsize>| {
            move || {
                let disp = {
                    let mut g = core.lock();
                    g.plan_read(&[key()]).pages[0].1.clone()
                };
                if disp == PageDisposition::MustFetch {
                    fetches.fetch_add(1, Ordering::SeqCst);
                    core.lock().complete_fetch(key(), PageData::Virtual);
                }
            }
        };
        let t1 = thread::spawn(worker(core.clone(), fetches.clone()));
        let t2 = thread::spawn(worker(core.clone(), fetches.clone()));
        worker(core.clone(), fetches.clone())();
        t1.join().unwrap();
        t2.join().unwrap();

        assert_eq!(
            fetches.load(Ordering::SeqCst),
            1,
            "duplicate elimination must admit exactly one fetcher"
        );
        assert!(core.lock().is_resident(key()));
    });
}

/// Claim hand-off: the first fetcher fails, releases its claim
/// (`abort_fetch`) and must notify waiters before exiting; the waiter
/// then takes the claim over and completes the fetch. Dropping the
/// notify after the abort strands the waiter forever — the model
/// reports it as a deadlock (lost wakeup).
#[test]
fn claim_release_wakes_waiter() {
    loom::model(|| {
        let core = Arc::new(Mutex::new(PageCacheCore::new(4096, 1024)));
        let cv = Arc::new(Condvar::new());
        let fail_once = Arc::new(AtomicBool::new(true));

        let reader =
            |core: Arc<Mutex<PageCacheCore>>, cv: Arc<Condvar>, fail_once: Arc<AtomicBool>| {
                move || {
                    let mut guard = core.lock();
                    loop {
                        let disp = guard.plan_read(&[key()]).pages[0].1.clone();
                        match disp {
                            PageDisposition::Hit => break,
                            PageDisposition::InFlightElsewhere => cv.wait(&mut guard),
                            PageDisposition::MustFetch => {
                                // Simulated I/O happens outside the lock.
                                drop(guard);
                                let failed = fail_once.swap(false, Ordering::SeqCst);
                                guard = core.lock();
                                if failed {
                                    // Release the claim and give up; waiters
                                    // must be woken so one can take over.
                                    guard.abort_fetch(key());
                                    cv.notify_all();
                                    break;
                                }
                                guard.complete_fetch(key(), PageData::Virtual);
                                cv.notify_all();
                                break;
                            }
                        }
                    }
                }
            };
        let t1 = thread::spawn(reader(core.clone(), cv.clone(), fail_once.clone()));
        let t2 = thread::spawn(reader(core.clone(), cv.clone(), fail_once.clone()));
        t1.join().unwrap();
        t2.join().unwrap();

        let g = core.lock();
        // The claim was released exactly once and re-taken exactly once:
        // the survivor's fetch is resident and no stale claim remains.
        assert!(
            g.is_resident(key()),
            "second reader must take over the claim"
        );
        assert!(!g.is_in_flight(key()), "claim leaked after abort/complete");
    });
}

/// Snapshot consistency: every sample a snapshot counts is present in
/// its buckets (`sum(buckets) >= count`), the invariant `quantile`
/// needs to never report +Inf spuriously. Holds because `observe`
/// increments the bucket before the `Release` count increment and
/// `snapshot` reads the count (Acquire) before the buckets.
#[test]
fn histogram_snapshot() {
    loom::model(|| {
        let h = Arc::new(Histogram::new());

        let t1 = {
            let h = h.clone();
            thread::spawn(move || h.observe(0.5))
        };
        let t2 = {
            let h = h.clone();
            thread::spawn(move || h.observe(0.5))
        };

        // Concurrent snapshot: may see 0, 1 or 2 samples, but never a
        // count ahead of the buckets.
        let s = h.snapshot();
        let bucket_sum: u64 = s.buckets.iter().sum();
        assert!(
            bucket_sum >= s.count,
            "snapshot count {} ahead of bucket sum {}",
            s.count,
            bucket_sum
        );

        t1.join().unwrap();
        t2.join().unwrap();
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
    });
}

/// Counter reads are coherent: per-thread reads of one counter never go
/// backwards, never exceed the true total, and joins make all
/// increments visible.
#[test]
fn counter_snapshot_bound() {
    loom::model(|| {
        let c = Arc::new(Counter::default());

        let t1 = {
            let c = c.clone();
            thread::spawn(move || c.inc())
        };
        let t2 = {
            let c = c.clone();
            thread::spawn(move || c.inc())
        };

        let a = c.get();
        let b = c.get();
        assert!(b >= a, "counter read went backwards: {a} then {b}");
        assert!(b <= 2, "counter exceeds true total");

        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(c.get(), 2, "join must make all increments visible");
    });
}

/// The sharded engine's idle/wakeup protocol (DESIGN.md §12): the
/// submitter enqueues and increments `total_waiting` under the shard
/// lock, then reads `sleepers`; the worker increments `sleepers` under
/// the idle lock and re-checks `total_waiting` before waiting. The two
/// Dekker-style SeqCst pairs plus the idle-mutex bridge on every notify
/// guarantee the worker always receives the submitted query — dropping
/// the worker's re-check, the submitter's `sleepers` read, or the
/// bridge loses the wakeup, which the model reports as a deadlock.
#[test]
fn engine_idle_wakeup_no_lost_submit() {
    loom::model(|| {
        let shard = Arc::new(Mutex::new(Vec::<u64>::new()));
        let total_waiting = Arc::new(AtomicUsize::new(0));
        let sleepers = Arc::new(AtomicUsize::new(0));
        let idle = Arc::new(Mutex::new(()));
        let work_cv = Arc::new(Condvar::new());

        let submitter = {
            let (shard, total_waiting, sleepers, idle, work_cv) = (
                shard.clone(),
                total_waiting.clone(),
                sleepers.clone(),
                idle.clone(),
                work_cv.clone(),
            );
            thread::spawn(move || {
                // `Core::admit`: enqueue + counter under the shard lock...
                {
                    let mut s = shard.lock();
                    s.push(7);
                    total_waiting.fetch_add(1, Ordering::SeqCst);
                }
                // ...then `Core::wake`, bridging through the idle mutex.
                if sleepers.load(Ordering::SeqCst) > 0 {
                    let _g = idle.lock();
                    work_cv.notify_one();
                }
            })
        };

        // `worker_loop` + `idle_sleep`, reduced to one shard.
        let got = loop {
            if total_waiting.load(Ordering::SeqCst) == 0 {
                let mut g = idle.lock();
                sleepers.fetch_add(1, Ordering::SeqCst);
                // The re-check under the idle lock is load-bearing: the
                // submitter's wake either sees our sleeper registration
                // or we see its counter increment.
                if total_waiting.load(Ordering::SeqCst) == 0 {
                    work_cv.wait(&mut g);
                }
                sleepers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let mut s = shard.lock();
            if let Some(v) = s.pop() {
                total_waiting.fetch_sub(1, Ordering::SeqCst);
                break v;
            }
        };
        assert_eq!(got, 7, "worker must receive the submitted query");
        submitter.join().unwrap();
    });
}

/// Worker-death back-out (DESIGN.md §15): a query parked in
/// `wait_for_peer` checked its peer EXECUTING under the shard lock, and
/// re-reads that state only when the shard's `done_cv` is notified. So a
/// worker that dies mid-compute moves its query out of EXECUTING under
/// the same lock (requeued to WAITING, or retired) and *then* notifies
/// `done_cv`: on the terminal arms through `answer`, on the requeue arm
/// directly. The waiter, a dependency blocker or a graft consumer alike,
/// always wakes and computes for itself. Dropping the notify strands it
/// forever (loom reports the lost wakeup as a deadlock).
#[test]
fn worker_death_backout_wakes_waiter() {
    loom::model(|| {
        // The shard's view of the peer: EXECUTING until the back-out.
        let executing = Arc::new(Mutex::new(true));
        let done_cv = Arc::new(Condvar::new());

        let dying = {
            let (executing, done_cv) = (executing.clone(), done_cv.clone());
            thread::spawn(move || {
                // `on_worker_panic` under the shard lock: the query
                // leaves EXECUTING...
                *executing.lock() = false;
                // ...and the lock released, every arm notifies `done_cv`.
                done_cv.notify_all();
            })
        };

        // `wait_for_peer`: the predicate is read, and the wait entered,
        // under the shard lock the dying worker must take to change it.
        let mut g = executing.lock();
        while *g {
            done_cv.wait(&mut g);
        }
        drop(g);
        dying.join().unwrap();
    });
}

/// The engine's work-queue handshake (mutex + condvar, notify after
/// push): the consumer always receives the item. Removing the notify is
/// a lost wakeup, which the model reports as a deadlock.
#[test]
fn work_queue_no_lost_wakeup() {
    loom::model(|| {
        let q = Arc::new(Mutex::new(Vec::<u64>::new()));
        let cv = Arc::new(Condvar::new());

        let consumer = {
            let (q, cv) = (q.clone(), cv.clone());
            thread::spawn(move || {
                let mut g = q.lock();
                while g.is_empty() {
                    cv.wait(&mut g);
                }
                g.pop().unwrap()
            })
        };
        {
            let mut g = q.lock();
            g.push(7);
            cv.notify_one();
        }
        assert_eq!(consumer.join().unwrap(), 7);
    });
}
