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
//! primitive (`EntryState`, `Histogram::observe`, the Page Space claim
//! protocol); weakening any of them makes the matching model fail — see
//! `docs/loom-counterexamples.md` for the recorded counterexamples.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use vmqs_core::DatasetId;
use vmqs_datastore::{EntryState, Phase};
use vmqs_obs::{Counter, Histogram};
use vmqs_pagespace::{PageCacheCore, PageData, PageDisposition, PageKey};

fn key() -> PageKey {
    PageKey::new(DatasetId(1), 0)
}

/// Publish protocol: a reader that observes FULL (Acquire) must also
/// observe the payload bytes the producer wrote before the Release
/// publish. Weakening `EntryState::publish` to `Relaxed` lets the
/// reader see FULL with a stale (zero) payload.
#[test]
fn ds_entry_publish() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));

        let producer = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                assert!(st.publish());
            })
        };
        let reader = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                if st.is_visible() {
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "observed FULL but not the committed payload"
                    );
                }
            })
        };
        producer.join().unwrap();
        reader.join().unwrap();
        assert!(st.is_visible());
    });
}

/// Store-buffering protocol between `pin` and `try_swap_out`: an entry
/// must never be reclaimed while a reader holds a pin, and a pinned
/// reader must see the committed payload. The ghost `in_use` counter
/// (SeqCst RMWs only, so it is never stale) records the true overlap;
/// weakening either SeqCst cross-check to `Relaxed` lets the evictor
/// reclaim under an active reader.
#[test]
fn ds_entry_no_read_after_swapout() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        let in_use = Arc::new(AtomicU64::new(0));

        let producer = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                assert!(st.publish());
            })
        };
        let evictor = {
            let (st, in_use) = (st.clone(), in_use.clone());
            thread::spawn(move || {
                if st.try_swap_out() {
                    // We own the payload now: no reader may be pinned.
                    assert_eq!(
                        in_use.fetch_add(0, Ordering::SeqCst),
                        0,
                        "entry reclaimed while a reader held a pin"
                    );
                }
            })
        };
        let reader = {
            let (st, payload, in_use) = (st.clone(), payload.clone(), in_use.clone());
            thread::spawn(move || {
                if st.pin() {
                    in_use.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(payload.load(Ordering::Relaxed), 42);
                    in_use.fetch_sub(1, Ordering::SeqCst);
                    st.unpin();
                }
            })
        };
        producer.join().unwrap();
        evictor.join().unwrap();
        reader.join().unwrap();
    });
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

/// Striped pins (DESIGN.md §12): readers pinning *different* stripes
/// are all visible to the evictor, because `try_swap_out` marks
/// SWAPPED_OUT first and then scans every stripe with the same SeqCst
/// store-buffering cross-check the single-counter protocol used. An
/// entry is never reclaimed while any stripe holds a pin, and a reader
/// whose `pin_at` returned true always sees the committed payload.
/// Scanning only stripe 0 — or weakening either SeqCst — reclaims
/// under the stripe-5 reader in some interleaving.
#[test]
fn ds_entry_striped_pins_block_swapout() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        let in_use = Arc::new(AtomicU64::new(0));
        // The entry is committed before the race: the model is about
        // pins vs eviction, not publish (covered by `ds_entry_publish`).
        payload.store(42, Ordering::Relaxed);
        assert!(st.publish());

        let reader = |stripe: usize| {
            let (st, payload, in_use) = (st.clone(), payload.clone(), in_use.clone());
            thread::spawn(move || {
                if st.pin_at(stripe) {
                    in_use.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "pinned reader must see the committed payload"
                    );
                    in_use.fetch_sub(1, Ordering::SeqCst);
                    st.unpin_at(stripe);
                }
            })
        };
        let t1 = reader(1);
        let t2 = reader(5);
        let evictor = {
            let (st, in_use) = (st.clone(), in_use.clone());
            thread::spawn(move || {
                if st.try_swap_out() {
                    assert_eq!(
                        in_use.fetch_add(0, Ordering::SeqCst),
                        0,
                        "entry reclaimed while a striped reader held a pin"
                    );
                }
            })
        };
        t1.join().unwrap();
        t2.join().unwrap();
        evictor.join().unwrap();
    });
}

/// Graft handshake (DESIGN.md §13), the lost-wakeup half: the
/// subscriber *increments the subscriber count, then checks the phase*;
/// the producer *publishes, then checks the subscriber count* — a
/// store-buffering pair with SeqCst on all four accesses. In every
/// interleaving at least one side observes the other: either the
/// subscriber sees FULL (and reads the committed payload immediately),
/// or the producer sees a nonzero subscriber count (and wakes the
/// waiter). Weakening the subscriber's phase cross-check to `Relaxed`
/// admits the schedule where the consumer commits to waiting while the
/// producer decides nobody is listening — a graft that sleeps forever.
#[test]
fn ds_entry_graft_no_lost_wakeup() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        // The producer opened the in-flight entry to grafts before the race.
        assert!(st.make_subscribable());

        let producer = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                assert!(st.publish());
                // The engine broadcasts the shard condvar only when a
                // subscriber is attached; returns whether it would wake.
                st.subscribers() > 0
            })
        };
        let consumer = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || match st.subscribe() {
                // Saw the in-flight phase: commits to waiting for the
                // producer's wake. The subscription stays held.
                Phase::Subscribable => true,
                ph => {
                    // The publish already landed: the payload must be
                    // readable right now, no wait needed.
                    assert_eq!(ph, Phase::Full, "entry left the graft protocol");
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "observed FULL but not the committed payload"
                    );
                    st.unsubscribe();
                    false
                }
            })
        };
        let producer_would_wake = producer.join().unwrap();
        let consumer_waits = consumer.join().unwrap();
        assert!(
            !consumer_waits || producer_would_wake,
            "lost wakeup: consumer committed to waiting but the producer saw zero subscribers"
        );
    });
}

/// Graft handshake (DESIGN.md §13), the lifetime half: a held
/// subscription blocks `try_swap_out` exactly like a read pin, so the
/// published payload cannot be reclaimed in the window between the
/// producer's publish and the subscriber's read. The ghost `in_use`
/// counter spans the subscriber's whole read section; dropping the
/// subscriber-count check from `try_swap_out` lets the evictor reclaim
/// the entry while the grafting consumer is still reading it.
#[test]
fn ds_entry_graft_no_read_after_swapout() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        let in_use = Arc::new(AtomicU64::new(0));
        // The consumer attached while the producer was still in flight —
        // the subscription is held across the whole race below.
        assert!(st.make_subscribable());
        assert_eq!(st.subscribe(), Phase::Subscribable);

        let producer = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                payload.store(42, Ordering::Relaxed);
                assert!(st.publish());
            })
        };
        let evictor = {
            let (st, in_use) = (st.clone(), in_use.clone());
            thread::spawn(move || {
                if st.try_swap_out() {
                    // We own the payload now: no subscriber may be reading.
                    assert_eq!(
                        in_use.fetch_add(0, Ordering::SeqCst),
                        0,
                        "entry reclaimed while a grafting consumer was reading"
                    );
                }
            })
        };
        // The subscribed consumer (this thread) reads as soon as the
        // publish lands; the subscription alone must hold the entry.
        in_use.fetch_add(1, Ordering::SeqCst);
        if st.is_visible() {
            assert_eq!(
                payload.load(Ordering::Relaxed),
                42,
                "grafting consumer read a stale payload"
            );
        }
        in_use.fetch_sub(1, Ordering::SeqCst);
        st.unsubscribe();

        producer.join().unwrap();
        evictor.join().unwrap();
    });
}

/// Spill protocol (DESIGN.md §14), the pin half: `try_spill` runs the
/// same mark-then-cross-check store-buffering protocol as
/// `try_swap_out` — RESTORABLE first, then every pin stripe and the
/// subscriber count, all SeqCst — so a successful spill proves no
/// reader holds the payload it is about to move to disk. The ghost
/// `in_use` counter records the true overlap; weakening either side's
/// SeqCst to `Relaxed` lets the spiller detach the payload under an
/// active reader (counterexample #9).
#[test]
fn ds_entry_pin_blocks_spill() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        let in_use = Arc::new(AtomicU64::new(0));
        // Committed before the race: the model is about pins vs spill.
        payload.store(42, Ordering::Relaxed);
        assert!(st.publish());

        let reader = {
            let (st, payload, in_use) = (st.clone(), payload.clone(), in_use.clone());
            thread::spawn(move || {
                if st.pin_at(3) {
                    in_use.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "pinned reader must see the in-memory payload"
                    );
                    in_use.fetch_sub(1, Ordering::SeqCst);
                    st.unpin_at(3);
                }
            })
        };
        let spiller = {
            let (st, in_use) = (st.clone(), in_use.clone());
            thread::spawn(move || {
                if st.try_spill() {
                    // We own the payload now and may move it to disk: no
                    // reader may be pinned.
                    assert_eq!(
                        in_use.fetch_add(0, Ordering::SeqCst),
                        0,
                        "entry spilled while a reader held a pin"
                    );
                }
            })
        };
        reader.join().unwrap();
        spiller.join().unwrap();
    });
}

/// Spill protocol (DESIGN.md §14), the lifetime half: once `try_spill`
/// succeeds the in-memory payload is detached, and *no* pin may succeed
/// until a `restore` republishes the bytes — a reader either pinned
/// before the spill (and the spill backed out) or observes RESTORABLE
/// in `pin_at` and backs off. The model detaches the payload after a
/// successful spill; any schedule in which a pin still reads it trips
/// the assertion (counterexample #10).
#[test]
fn ds_entry_no_read_after_spill_without_restore() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        payload.store(42, Ordering::Relaxed);
        assert!(st.publish());

        let spiller = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                if st.try_spill() {
                    // Exclusive ownership: move the bytes out (ghost
                    // detach — the store swaps the payload to Virtual).
                    payload.store(0, Ordering::Relaxed);
                }
            })
        };
        let reader = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                if st.pin() {
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "read a detached payload: pin succeeded after spill without restore"
                    );
                    st.unpin();
                }
            })
        };
        spiller.join().unwrap();
        reader.join().unwrap();
    });
}

/// Restore protocol (DESIGN.md §14): RESTORABLE → FULL republishes with
/// a SeqCst CAS, so a flash crowd of restorers re-heating the same
/// entry resolves to exactly one winner, and a reader whose pin
/// observes FULL also observes the re-attached payload (the restorer
/// writes the bytes *before* the CAS). Weakening the CAS to `Relaxed`
/// lets a reader pin the entry before the re-attached payload is
/// visible (counterexample #11).
#[test]
fn ds_entry_restore_publishes_exactly_once() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        let payload = Arc::new(AtomicU64::new(0));
        let winners = Arc::new(AtomicU64::new(0));
        // Spilled before the race: committed, demoted, payload detached.
        assert!(st.publish());
        assert!(st.try_spill());

        let restorer = || {
            let (st, payload, winners) = (st.clone(), payload.clone(), winners.clone());
            thread::spawn(move || {
                // Re-attach the bytes read back from tier 2, then CAS.
                payload.store(42, Ordering::Relaxed);
                if st.restore() {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        let r1 = restorer();
        let r2 = restorer();
        let reader = {
            let (st, payload) = (st.clone(), payload.clone());
            thread::spawn(move || {
                if st.pin() {
                    assert_eq!(
                        payload.load(Ordering::Relaxed),
                        42,
                        "pin observed FULL before the restored payload"
                    );
                    st.unpin();
                }
            })
        };
        r1.join().unwrap();
        r2.join().unwrap();
        reader.join().unwrap();
        assert_eq!(
            winners.load(Ordering::SeqCst),
            1,
            "exactly one restorer must win the republish"
        );
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

/// Worker-death back-out of a CLAIMED entry (DESIGN.md §15): a producer
/// that panics while holding a SUBSCRIBABLE reservation must (a) kill
/// the entry with `force_swap_out` *before* the graph transition that
/// ends the wait — so no subscriber, racing or late, can mistake the
/// corpse for in-flight or FULL — and (b) notify the shard condvar
/// after the producer leaves EXECUTING, so a subscriber blocked on that
/// state always re-checks its predicate. Dropping the notify strands
/// the subscriber forever (loom reports the lost wakeup as a deadlock);
/// dropping the `force_swap_out` leaves the aborted entry looking
/// SUBSCRIBABLE after the producer's terminal, which the model's
/// post-wake phase assertion catches (counterexample #12).
#[test]
fn worker_death_backout_wakes_subscriber() {
    loom::model(|| {
        let st = Arc::new(EntryState::new());
        // The producer opened its reservation to grafts before the race.
        assert!(st.make_subscribable());
        // The shard's view of the producer: EXECUTING until the back-out.
        let executing = Arc::new(Mutex::new(true));
        let done_cv = Arc::new(Condvar::new());

        let dying = {
            let (st, executing, done_cv) = (st.clone(), executing.clone(), done_cv.clone());
            thread::spawn(move || {
                // `DataStore::abort` (inner unwind guard): SWAPPED_OUT
                // before the entry is removed.
                st.force_swap_out();
                // `on_worker_panic` under the shard lock: the query
                // leaves EXECUTING...
                *executing.lock() = false;
                // ...and `answer` notifies the shard's `done_cv`.
                done_cv.notify_all();
            })
        };

        // The grafting consumer (engine's graft wait loop): subscribe,
        // and while the producer is EXECUTING, wait for its terminal.
        match st.subscribe() {
            Phase::Subscribable => {
                let mut g = executing.lock();
                while *g {
                    done_cv.wait(&mut g);
                }
                drop(g);
                // The producer died: the entry must be visibly dead —
                // never FULL (nothing was committed) and never still
                // SUBSCRIBABLE (no one will ever commit it) — so the
                // consumer falls back to computing for itself.
                assert!(
                    !st.is_visible(),
                    "subscriber saw FULL on an aborted reservation"
                );
                assert_ne!(
                    st.phase(),
                    Phase::Subscribable,
                    "aborted reservation still looks in-flight"
                );
                st.unsubscribe();
            }
            ph => {
                // Subscribe raced the abort: the entry already left the
                // graft protocol and `subscribe` released the count.
                assert_ne!(ph, Phase::Full, "aborted entry can never be FULL");
            }
        }
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
