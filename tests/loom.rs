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
//! counterexamples. A Data Store entry's phase is a plain field written
//! only through `&mut DataStore`; what has models is tier 2, whose frame
//! files are written, read and unlinked outside the store's lock.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::collections::HashSet;
use vmqs_core::spec::testutil::IntervalSpec;
use vmqs_core::{BlobId, DatasetId, QueryId};
use vmqs_datastore::{DataStore, EvictionPolicy, EvictionRecord, Payload, SpillRequest};
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
///
/// Before it parks, the worker polls `total_waiting` `spin_polls` times
/// (`Core::spin_for_work`, its window cut to a few polls). A spinner is
/// not a sleeper, so a submission during the spin notifies no one and
/// the spinner must find it; one after the last poll meets the park
/// sequence above, unchanged.
fn idle_wakeup_delivers_the_submission(spin_polls: usize) {
    loom::model(move || {
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

        // `worker_entry` + `idle_sleep`, reduced to one shard.
        let got = loop {
            if total_waiting.load(Ordering::SeqCst) == 0 {
                // `spin_for_work`: poll, and go back for the work found.
                let found = (0..spin_polls).any(|_| {
                    loom::hint::spin_loop();
                    total_waiting.load(Ordering::SeqCst) != 0
                });
                if found {
                    continue;
                }
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

/// A worker that cannot spin (another one is, or every core is taken)
/// parks at once.
#[test]
fn engine_idle_wakeup_no_lost_submit() {
    idle_wakeup_delivers_the_submission(0);
}

/// The spinning worker: two polls, then the park.
#[test]
fn engine_spin_then_park_no_lost_submit() {
    idle_wakeup_delivers_the_submission(2);
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

/// `Core::answer` notifies `done_cv` only while `parked` is nonzero. The
/// waiter raises `parked` under the shard lock before it reads its peer's
/// state; the publisher changes that state under the same lock and reads
/// `parked` after releasing it. Either the waiter saw the change and never
/// parked, or the lock ordered its registration before the publisher's
/// (Relaxed) load, which then sees it and notifies. Reading `parked`
/// before taking the lock, or raising it after the wait began, strands
/// the waiter (loom reports the lost wakeup as a deadlock).
#[test]
fn answer_notifies_whenever_a_waiter_is_parked() {
    loom::model(|| {
        let executing = Arc::new(Mutex::new(true));
        let parked = Arc::new(AtomicUsize::new(0));
        let done_cv = Arc::new(Condvar::new());

        let publisher = {
            let (executing, parked, done_cv) = (executing.clone(), parked.clone(), done_cv.clone());
            thread::spawn(move || {
                // `publish` (or `retire`) under the shard lock...
                *executing.lock() = false;
                // ...then `answer`, holding no lock.
                if parked.load(Ordering::Relaxed) > 0 {
                    done_cv.notify_all();
                }
            })
        };

        // `wait_for_peer`.
        let mut g = executing.lock();
        parked.fetch_add(1, Ordering::Relaxed);
        while *g {
            done_cv.wait(&mut g);
        }
        parked.fetch_sub(1, Ordering::Relaxed);
        drop(g);
        publisher.join().unwrap();
    });
}

/// A spill directory: the blobs whose frame file is on disk.
type Frames = vmqs_core::sync::Mutex<HashSet<BlobId>>;
type Store = vmqs_core::sync::Mutex<DataStore<IntervalSpec>>;

/// No RESTORABLE entry has lost both copies: with its bytes gone, its
/// frame is on disk. Read under the store lock.
fn assert_bytes_or_frame(ds: &DataStore<IntervalSpec>, frames: &Frames, blob: BlobId) {
    let Some(e) = ds.get(blob) else { return };
    if e.restorable() && e.payload.len().is_none() {
        assert!(
            frames.lock().contains(&blob),
            "{blob} is RESTORABLE with neither its bytes nor its frame"
        );
    }
}

/// The engine's `write_frames` for the one write a blob gets: the frame
/// is written (renamed into place) outside the store lock and lands under
/// it; a blob gone by then has its frame unlinked after the lock.
fn write_and_land(store: &Store, frames: &Frames, req: &SpillRequest<IntervalSpec>) {
    frames.lock().insert(req.blob);
    let mut ds = store.lock();
    let landed = ds.frame_landed(req.blob);
    assert_bytes_or_frame(&ds, frames, req.blob);
    drop(ds);
    if !landed {
        frames.lock().remove(&req.blob);
    }
}

/// The tier-2 landing rule (DESIGN.md §14), over the real Data Store: a
/// blob's one frame is written after the store lock that first demoted
/// it, and the entry keeps its bytes until [`DataStore::frame_landed`].
/// Blob `a` is demoted (its single writer racing everything below),
/// re-heated — from its attached bytes, or from its frame if that landed
/// first — and demoted again, which asks for no second write. A
/// re-demotion that treats the frame in flight as landed lets the bytes
/// go before the frame is on disk, and the model reports `a` RESTORABLE
/// with neither copy.
#[test]
fn spill_landing_never_loses_a_frame() {
    loom::model(|| {
        let store: Arc<Store> = Arc::new(vmqs_core::sync::Mutex::new(
            DataStore::with_policy(100, 64, EvictionPolicy::Lru).with_tier2(1000),
        ));
        let frames: Arc<Frames> = Arc::new(vmqs_core::sync::Mutex::new(HashSet::new()));
        let put = |ds: &mut DataStore<IntervalSpec>, q: u64| {
            let (s, bytes) = (
                IntervalSpec::new(q * 1000, 100, 1),
                Payload::Bytes([7; 100].into()),
            );
            ds.insert_costed(QueryId(q), s, 100, 1.0, bytes, &mut Vec::new())
                .unwrap()
        };
        let (a, first) = {
            let mut ds = store.lock();
            let a = put(&mut ds, 1);
            put(&mut ds, 2);
            (a, ds.take_pending_spills())
        };
        let req = first[0].clone();
        assert!(req.payload.is_some(), "the first demotion writes");
        let writer = {
            let (store, frames) = (store.clone(), frames.clone());
            thread::spawn(move || write_and_land(&store, &frames, &req))
        };
        {
            let mut ds = store.lock();
            let from_frame = ds.get(a).unwrap().payload.len().is_none();
            if from_frame {
                assert!(frames.lock().contains(&a), "restore found no frame");
            }
            let bytes = Payload::Bytes([7; 100].into());
            assert!(ds.restore(a, bytes, &mut Vec::new()));
            // Restoring demoted `b`; a third entry demotes `a` again.
            ds.take_pending_spills();
            put(&mut ds, 3);
            let second = ds.take_pending_spills();
            assert!(second[0].payload.is_none(), "a second write of a");
            assert_bytes_or_frame(&ds, &frames, a);
        }
        writer.join().unwrap();
        let ds = store.lock();
        assert!(
            ds.get(a).unwrap().payload.len().is_none(),
            "the frame landed"
        );
        assert_bytes_or_frame(&ds, &frames, a);
    });
}

/// [`assert_bytes_or_frame`] for every entry.
fn assert_all_bytes_or_frames(ds: &DataStore<IntervalSpec>, frames: &Frames) {
    for e in ds.entries() {
        assert_bytes_or_frame(ds, frames, e.id);
    }
}

/// What the engine does after a critical section (`write_frames`): the
/// frames its demotions ask for are written and landed, then the frames
/// of the blobs it dropped for good are unlinked.
fn settle(
    store: &Store,
    frames: &Frames,
    spills: &[SpillRequest<IntervalSpec>],
    evicted: &[EvictionRecord<IntervalSpec>],
) {
    for req in spills.iter().filter(|r| r.payload.is_some()) {
        write_and_land(store, frames, req);
    }
    for r in evicted.iter().filter(|r| r.had_frame) {
        frames.lock().remove(&r.blob);
    }
}

/// The engine's `try_restore` of `spec` in its three steps: probe under
/// the store lock, taking the bytes if the frame is still in flight;
/// read the frame with no lock held; promote under the lock only if the
/// blob is still RESTORABLE. A read that finds no frame is the engine's
/// `NotFound`: no restore failure if the blob has left the store, else
/// `restore_failed` (which drops only a RESTORABLE entry).
fn restore_off_lock(store: &Store, frames: &Frames, spec: &IntervalSpec) {
    let probe = {
        let ds = store.lock();
        let blob = ds.lookup_restorable_exact(spec).map(|m| m.0);
        blob.map(|b| (b, ds.get(b).unwrap().payload.len().is_some()))
    };
    let Some((blob, attached)) = probe else {
        return;
    };
    let read_ok = attached || frames.lock().contains(&blob);
    let mut evicted = Vec::new();
    let spills = {
        let mut ds = store.lock();
        if !read_ok {
            if ds.get(blob).is_some() {
                evicted.extend(ds.restore_failed(blob));
            }
        } else if ds.get(blob).is_some_and(|e| e.restorable()) {
            let bytes = Payload::Bytes([1; 100].into());
            if ds.restore(blob, bytes, &mut evicted) {
                let e = ds.get(blob);
                assert!(
                    e.is_some_and(|e| !e.restorable()),
                    "{blob} promoted, not FULL"
                );
            }
        }
        assert_all_bytes_or_frames(&ds, frames);
        ds.take_pending_spills()
    };
    settle(store, frames, &spills, &evicted);
}

/// Tier-2 restores read frames outside the store lock (DESIGN.md §14),
/// over the real Data Store. `a` is demoted and its one frame is in
/// flight; two restorers of `a` race a thread that lands that frame and
/// then inserts two entries, which overflows tier 2 onto `a` (the
/// cheapest entry): it is dropped and its frame unlinked after the lock.
/// However they interleave, no restore reads a frame that is not there
/// for a live entry, so no live entry is dropped as unreadable
/// (`restore_failures` stays 0: no frame in the model is bad), no blob
/// is promoted unless it is RESTORABLE in the store, and no RESTORABLE
/// entry without its bytes is missing its frame. A restorer that reads
/// the frame even when the probe found the bytes attached reads a frame
/// still being written, fails, and drops a live entry.
#[test]
fn restore_reads_frame_outside_the_lock() {
    loom::model(|| {
        let store: Arc<Store> = Arc::new(vmqs_core::sync::Mutex::new(
            DataStore::with_policy(100, 64, EvictionPolicy::CostBased).with_tier2(200),
        ));
        let frames: Arc<Frames> = Arc::new(vmqs_core::sync::Mutex::new(HashSet::new()));
        let spec = |q: u64| IntervalSpec::new(q * 1000, 100, 1);
        let put = move |ds: &mut DataStore<IntervalSpec>,
                        q: u64,
                        cost: f64,
                        evicted: &mut Vec<EvictionRecord<IntervalSpec>>| {
            let bytes = Payload::Bytes([q as u8; 100].into());
            ds.insert_costed(QueryId(q), spec(q), 100, cost, bytes, evicted)
                .unwrap();
        };
        let first = {
            let mut ds = store.lock();
            put(&mut ds, 1, 0.001, &mut Vec::new());
            put(&mut ds, 2, 1.0, &mut Vec::new());
            ds.take_pending_spills()
        };
        assert!(first[0].payload.is_some(), "a's one write");
        let shrink = {
            let (store, frames) = (store.clone(), frames.clone());
            thread::spawn(move || {
                write_and_land(&store, &frames, &first[0]);
                let mut evicted = Vec::new();
                let spills = {
                    let mut ds = store.lock();
                    put(&mut ds, 3, 1.0, &mut evicted);
                    put(&mut ds, 4, 1.0, &mut evicted);
                    assert_all_bytes_or_frames(&ds, &frames);
                    ds.take_pending_spills()
                };
                settle(&store, &frames, &spills, &evicted);
            })
        };
        let peer = {
            let (store, frames) = (store.clone(), frames.clone());
            thread::spawn(move || restore_off_lock(&store, &frames, &spec(1)))
        };
        restore_off_lock(&store, &frames, &spec(1));
        shrink.join().unwrap();
        peer.join().unwrap();
        let ds = store.lock();
        assert!(ds.lookup_restorable_exact(&spec(1)).is_none(), "a left");
        assert_eq!(ds.stats().restore_failures, 0, "a live entry was dropped");
        assert_all_bytes_or_frames(&ds, &frames);
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
