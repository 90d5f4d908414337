//! Synchronization facade for every concurrency-critical primitive in
//! the workspace, and the lock-order contract those primitives check.
//!
//! Code that participates in a loom model — the Data Store entry state
//! machine, the Page Space in-flight claim dedup, the metrics registry
//! counters, and the engine's lock/condvar fabric — must import its
//! primitives from here instead of `std::sync` directly:
//!
//! * In a normal build this is `std::sync::Arc`, `std::sync::atomic`,
//!   and the non-poisoning `Mutex` / `Condvar` / `RwLock` wrappers over
//!   `std::sync` defined below: `lock()` / `read()` / `write()` return
//!   the guard itself and `Condvar::wait` takes `&mut MutexGuard`. A
//!   poisoned std lock is recovered transparently — a panic while
//!   holding a lock in one query thread must not wedge the whole server.
//! * Under `RUSTFLAGS="--cfg loom"` it re-exports the vendored loom
//!   model checker's primitives instead. Outside `loom::model` those
//!   pass through to std, so the whole regular test suite still runs;
//!   inside a model every operation becomes a scheduling point and the
//!   `tests/loom.rs` models explore interleavings exhaustively.
//!
//! The two families expose the same API as far as callers use it, so
//! switching is purely a matter of which `--cfg` is active.
//!
//! Every production lock is built with `Mutex::ranked` /
//! `RwLock::ranked` and carries a [`LockClass`]. In debug builds the
//! [`lockdep`] checks each acquisition against the locks the thread
//! already holds; in release builds and under loom it compiles to
//! nothing.

#[cfg(loom)]
pub use loom::sync::{
    Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub use self::unpoisoned::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub use std::sync::Arc;

/// The workspace's lock classes, in the order a thread may take them: a
/// thread only acquires a class above every class it already holds, and
/// never two locks of one class at once. This enum is the only copy of
/// the table (`docs/lock-order.md` explains it); the discriminant is the
/// level. Levels are sparse so a new class can slot in without
/// renumbering, and the leaves (never held across another acquisition)
/// sit at the high end in an arbitrary but fixed order, so the first
/// nesting anyone adds is checked rather than guessed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `Core::drain_mx` in the server engine: `drain` parks on it.
    Drain = 5,
    /// `Core::admission`, the per-client token buckets, held only while
    /// the admission ladder asks for a token.
    Admission = 10,
    /// A shard's `ShardLock` in the server engine. Never two at once,
    /// whatever the instances: a worker waits only on the `done_cv` of
    /// the one shard lock it owns (DESIGN.md §13).
    ShardState = 30,
    /// `Core::store`, the Data Store. No tier-2 frame call (write, read or
    /// unlink) runs under it.
    Store = 40,
    /// `SharedPageSpace::core`, the Page Space's claim table and pages.
    PagesCore = 50,
    /// `Core::metrics`, the completed-query records.
    Metrics = 60,
    /// The `EventLog`'s striped record buffers. Taken under `Store` when
    /// a lookup emits `LookupHit`.
    Events = 72,
    /// The `MetricsRegistry`'s counter, histogram and gauge maps.
    ObsRegistry = 76,
    /// The storage layer's maps: `FileSource`'s file handles and
    /// `FaultInjectingSource`'s read attempts.
    Storage = 80,
    /// `Core::idle`, where idle workers park.
    Idle = 88,
    /// `Core::respawned`, the handles of replacement workers.
    Respawned = 92,
}

/// The debug-build lock checker.
///
/// Each thread keeps a stack of the locks it holds. Before blocking on
/// an acquisition it panics, naming the stack, if the lock's class is at
/// or below a class already held (a descending pair, two locks of one
/// class, a second read of one `RwLock`, relocking a mutex the thread
/// holds), or if the acquisition nests an unclassed lock with a classed
/// one, in either order. Unclassed locks nested only with each other are
/// not tracked. `assert_unheld` marks the calls that must not run
/// under given classes. A guard's drop takes its own entry off the
/// stack, so guards may drop in any order.
///
/// It checks every path the tests run, at any call depth, and nothing
/// else. Release builds and loom builds compile it out.
pub mod lockdep {
    use super::LockClass;
    use std::sync::atomic::{AtomicU64, Ordering};

    static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

    /// Panics if the calling thread holds a lock of any class in
    /// `classes`: `what` is about to block (a file read, a kernel call)
    /// and must not do so under them.
    #[inline]
    pub fn assert_unheld(classes: &[LockClass], what: &str) {
        #[cfg(all(debug_assertions, not(loom)))]
        checked::assert_unheld(classes, what);
        #[cfg(not(all(debug_assertions, not(loom))))]
        let _ = (classes, what);
    }

    /// Violations found in this process so far, including those whose
    /// panic a supervisor caught. Always 0 where the lockdep is compiled
    /// out.
    pub fn violations() -> u64 {
        VIOLATIONS.load(Ordering::SeqCst)
    }

    #[cfg(all(debug_assertions, not(loom)))]
    pub(super) use checked::{acquire, release};

    #[cfg(all(debug_assertions, not(loom)))]
    mod checked {
        use super::{LockClass, VIOLATIONS};
        use std::cell::RefCell;
        use std::sync::atomic::Ordering;

        thread_local! {
            /// The locks this thread holds, oldest first: class (`None`
            /// when unclassed) and address.
            static HELD: RefCell<Vec<(Option<LockClass>, usize)>> =
                const { RefCell::new(Vec::new()) };
        }

        /// Counts a violation and panics with it. A thread already
        /// unwinding only counts it: a second panic would abort.
        fn violation(msg: String) {
            VIOLATIONS.fetch_add(1, Ordering::SeqCst);
            if std::thread::panicking() {
                eprintln!("lockdep: {msg}");
            } else {
                panic!("lockdep: {msg}");
            }
        }

        fn name(class: Option<LockClass>) -> String {
            class.map_or_else(|| "unclassed".to_string(), |c| format!("{c:?}"))
        }

        /// Checks that the thread may block on the lock at `addr`, then
        /// pushes it on the held stack.
        pub(crate) fn acquire(class: Option<LockClass>, addr: usize) {
            let clash = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                let bad = held.iter().any(|&(h, _)| match (h, class) {
                    (Some(h), Some(c)) => h >= c,
                    (None, None) => false,
                    _ => true,
                });
                if bad {
                    let stack: Vec<String> = held.iter().map(|&(h, _)| name(h)).collect();
                    return Some(format!(
                        "acquiring {} while holding [{}]",
                        name(class),
                        stack.join(", ")
                    ));
                }
                held.push((class, addr));
                None
            });
            if let Ok(Some(msg)) = clash {
                violation(msg);
            }
        }

        /// Pops the newest entry for the lock at `addr`.
        pub(crate) fn release(addr: usize) {
            // `try_with`: a guard may drop while thread locals are torn down.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|&(_, a)| a == addr) {
                    held.remove(i);
                }
            });
        }

        pub(super) fn assert_unheld(classes: &[LockClass], what: &str) {
            let hit = HELD.with_borrow(|held| {
                held.iter()
                    .find_map(|&(h, _)| h.filter(|h| classes.contains(h)))
            });
            if let Some(class) = hit {
                violation(format!("{what} while holding {class:?}"));
            }
        }
    }
}

#[cfg(not(loom))]
mod unpoisoned {
    use super::LockClass;
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;
    use std::time::{Duration, Instant};

    /// A lock's class as the lockdep sees it (`None`: unclassed);
    /// zero-sized in release builds.
    #[derive(Clone, Copy, Debug, Default)]
    struct Class {
        #[cfg(debug_assertions)]
        class: Option<LockClass>,
    }

    impl Class {
        const fn of(class: Option<LockClass>) -> Class {
            let _ = class;
            Class {
                #[cfg(debug_assertions)]
                class,
            }
        }
    }

    /// A guard's entry on the lockdep's held stack, popped when the
    /// guard drops; zero-sized in release builds.
    #[derive(Debug)]
    struct Held {
        #[cfg(debug_assertions)]
        addr: usize,
    }

    impl Held {
        /// Checks and records an acquisition of `lock`; call it before
        /// blocking on the lock itself.
        #[inline]
        fn acquire<L: ?Sized>(lock: &L, class: Class) -> Held {
            let addr = std::ptr::from_ref(lock).cast::<()>() as usize;
            #[cfg(debug_assertions)]
            super::lockdep::acquire(class.class, addr);
            let _ = (class, addr);
            Held {
                #[cfg(debug_assertions)]
                addr,
            }
        }
    }

    #[cfg(debug_assertions)]
    impl Drop for Held {
        fn drop(&mut self) {
            super::lockdep::release(self.addr);
        }
    }

    /// A mutual exclusion primitive (non-poisoning facade over
    /// [`std::sync::Mutex`]).
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        class: Class,
        inner: std::sync::Mutex<T>,
    }

    /// RAII guard of a locked [`Mutex`].
    ///
    /// Holds an `Option` internally so [`Condvar::wait`] can temporarily
    /// take the underlying std guard by value; the option is `Some` at
    /// every point user code can observe. The lock stays on the
    /// lockdep's held stack through a wait.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T: ?Sized> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        _held: Held,
    }

    impl<T> Mutex<T> {
        /// Creates an unclassed mutex: the lockdep only checks that it
        /// is never held together with a classed lock.
        #[inline]
        pub const fn new(value: T) -> Self {
            Mutex {
                class: Class::of(None),
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Creates a mutex of lock class `class`.
        #[inline]
        pub const fn ranked(class: LockClass, value: T) -> Self {
            Mutex {
                class: Class::of(Some(class)),
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking until available.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let held = Held::acquire(self, self.class);
            MutexGuard {
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
                _held: held,
            }
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present outside wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present outside wait")
        }
    }

    /// A condition variable usable with [`MutexGuard`].
    #[derive(Debug, Default)]
    pub struct Condvar(std::sync::Condvar);

    /// Result of a timed wait: whether the wait timed out.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// True when the wait returned because the timeout elapsed.
        #[inline]
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    impl Condvar {
        /// Creates a condition variable.
        #[inline]
        pub const fn new() -> Self {
            Condvar(std::sync::Condvar::new())
        }

        /// Atomically releases the guard's mutex and waits for a
        /// notification; the lock is re-acquired before returning.
        #[inline]
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let inner = guard.inner.take().expect("guard present outside wait");
            guard.inner = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
        }

        /// Like [`Condvar::wait`], with a timeout.
        #[inline]
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            let inner = guard.inner.take().expect("guard present outside wait");
            let (inner, res) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.inner = Some(inner);
            WaitTimeoutResult(res.timed_out())
        }

        /// Like [`Condvar::wait`], waiting until a deadline.
        #[inline]
        pub fn wait_until<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            deadline: Instant,
        ) -> WaitTimeoutResult {
            self.wait_for(
                guard,
                deadline.saturating_duration_since(crate::clock::now()),
            )
        }

        /// Wakes one waiter.
        #[inline]
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wakes all waiters.
        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// A reader-writer lock (non-poisoning facade over
    /// [`std::sync::RwLock`]).
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized> {
        class: Class,
        inner: std::sync::RwLock<T>,
    }

    /// Shared read access to an [`RwLock`].
    #[derive(Debug)]
    pub struct RwLockReadGuard<'a, T: ?Sized> {
        inner: std::sync::RwLockReadGuard<'a, T>,
        _held: Held,
    }

    /// Exclusive write access to an [`RwLock`].
    #[derive(Debug)]
    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        inner: std::sync::RwLockWriteGuard<'a, T>,
        _held: Held,
    }

    impl<T> RwLock<T> {
        /// Creates an unclassed reader-writer lock (see [`Mutex::new`]).
        #[inline]
        pub const fn new(value: T) -> Self {
            RwLock {
                class: Class::of(None),
                inner: std::sync::RwLock::new(value),
            }
        }

        /// Creates a reader-writer lock of lock class `class`. A thread
        /// may hold one guard of the class at a time, read or write.
        #[inline]
        pub const fn ranked(class: LockClass, value: T) -> Self {
            RwLock {
                class: Class::of(Some(class)),
                inner: std::sync::RwLock::new(value),
            }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared read access.
        #[inline]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let held = Held::acquire(self, self.class);
            RwLockReadGuard {
                inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
                _held: held,
            }
        }

        /// Acquires exclusive write access.
        #[inline]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let held = Held::acquire(self, self.class);
            RwLockWriteGuard {
                inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
                _held: held,
            }
        }
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }
}

/// Atomic types and orderings (loom-modeled under `--cfg loom`).
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Spin-wait hint, a yield to the model scheduler under loom.
pub mod hint {
    #[cfg(loom)]
    pub use loom::hint::spin_loop;

    #[cfg(not(loom))]
    pub use std::hint::spin_loop;
}

/// Thread spawn/join routed through the model scheduler under loom.
pub mod thread {
    #[cfg(loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};

    #[cfg(not(loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex underneath");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn rwlock_many_readers_one_writer() {
        let l = Arc::new(RwLock::new(0u32));
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 0);
        }
        *l.write() += 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn timed_waits_time_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        let past = crate::clock::now();
        assert!(cv.wait_until(&mut g, past).timed_out());
    }

    /// Runs `f`, which must panic, and returns the lockdep's message.
    #[cfg(all(debug_assertions, not(loom)))]
    fn lockdep_panic(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the lockdep should have panicked");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("lockdep: "), "{msg}");
        msg
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn descending_pair_panics() {
        let store = Mutex::ranked(LockClass::Store, ());
        let shard = Mutex::ranked(LockClass::ShardState, ());
        let msg = lockdep_panic(|| {
            let _s = store.lock();
            let _g = shard.lock();
        });
        assert_eq!(msg, "lockdep: acquiring ShardState while holding [Store]");
        // The ascending order is fine, and the panic left nothing held.
        let _g = shard.lock();
        let _s = store.lock();
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn ascending_pair_is_clean() {
        let admission = Mutex::ranked(LockClass::Admission, ());
        let shard = Mutex::ranked(LockClass::ShardState, ());
        let metrics = Mutex::ranked(LockClass::Metrics, 0);
        let _a = admission.lock();
        let _g = shard.lock();
        *metrics.lock() += 1;
        assert_eq!(*metrics.lock(), 1);
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn seeded_violations_each_panic() {
        let admission = Mutex::ranked(LockClass::Admission, ());
        let shards = [
            Mutex::ranked(LockClass::ShardState, ()),
            Mutex::ranked(LockClass::ShardState, ()),
        ];
        let store = RwLock::ranked(LockClass::Store, ());
        let lock_admission_inner = || drop(admission.lock());
        let msg = lockdep_panic(|| {
            let _s = store.write();
            let _a = admission.lock();
        });
        assert_eq!(msg, "lockdep: acquiring Admission while holding [Store]");
        let msg = lockdep_panic(|| {
            let _a = shards[0].lock();
            let _b = shards[1].lock();
        });
        assert_eq!(
            msg,
            "lockdep: acquiring ShardState while holding [ShardState]"
        );
        // The callee's acquisition is checked at whatever depth it runs.
        let msg = lockdep_panic(|| {
            let _s = store.write();
            lock_admission_inner();
        });
        assert_eq!(msg, "lockdep: acquiring Admission while holding [Store]");
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn dropped_guard_leaves_the_stack() {
        let store = RwLock::ranked(LockClass::Store, ());
        let admission = Mutex::ranked(LockClass::Admission, ());
        let s = store.write();
        drop(s);
        let _a = admission.lock();
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn guard_leaving_scope_leaves_the_stack() {
        let store = RwLock::ranked(LockClass::Store, ());
        let admission = Mutex::ranked(LockClass::Admission, ());
        {
            let _s = store.write();
        }
        let _a = admission.lock();
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn relocking_after_a_drop_is_clean() {
        let m = Mutex::ranked(LockClass::ShardState, 0);
        let mut g = m.lock();
        *g += 1;
        drop(g);
        g = m.lock();
        assert_eq!(*g, 1);
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn two_locks_of_one_class_panic() {
        let (a, b) = (
            Mutex::ranked(LockClass::ShardState, ()),
            Mutex::ranked(LockClass::ShardState, ()),
        );
        let msg = lockdep_panic(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(msg.contains("acquiring ShardState while holding [ShardState]"));
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn relocking_one_mutex_panics_before_deadlocking() {
        let m = Mutex::ranked(LockClass::Metrics, 0);
        let msg = lockdep_panic(|| {
            let _g = m.lock();
            let _again = m.lock();
        });
        assert!(msg.contains("acquiring Metrics while holding [Metrics]"));
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn second_read_of_one_rwlock_class_panics() {
        let l = RwLock::ranked(LockClass::Store, 0);
        let msg = lockdep_panic(|| {
            let _r1 = l.read();
            let _r2 = l.read();
        });
        assert!(msg.contains("acquiring Store while holding [Store]"));
        let msg = lockdep_panic(|| {
            let _r = l.read();
            let _w = l.write();
        });
        assert!(msg.contains("acquiring Store while holding [Store]"));
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn unclassed_lock_nested_with_classed_panics() {
        let plain = Mutex::new(());
        let events = Mutex::ranked(LockClass::Events, ());
        let msg = lockdep_panic(|| {
            let _p = plain.lock();
            let _e = events.lock();
        });
        assert!(msg.contains("acquiring Events while holding [unclassed]"));
        let msg = lockdep_panic(|| {
            let _e = events.lock();
            let _p = plain.lock();
        });
        assert!(msg.contains("acquiring unclassed while holding [Events]"));
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn unclassed_locks_alone_are_untracked() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let l = RwLock::new(());
        {
            let _a = a.lock();
            let _b = b.lock();
            let _r1 = l.read();
            let _r2 = l.read();
        }
        {
            let _b = b.lock();
            let _a = a.lock();
        }
        // None of them is left on the stack.
        drop(Mutex::ranked(LockClass::Drain, ()).lock());
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn guards_dropped_out_of_order_leave_the_stack_right() {
        let drain = Mutex::ranked(LockClass::Drain, ());
        let admission = Mutex::ranked(LockClass::Admission, ());
        let store = RwLock::ranked(LockClass::Store, ());
        let (d, a, s) = (drain.lock(), admission.lock(), store.write());
        drop(a);
        drop(d);
        lockdep::assert_unheld(&[LockClass::Drain, LockClass::Admission], "probe");
        let msg = lockdep_panic(|| lockdep::assert_unheld(&[LockClass::Store], "probe"));
        assert_eq!(msg, "lockdep: probe while holding Store");
        let msg = lockdep_panic(|| drop(Mutex::ranked(LockClass::ShardState, ()).lock()));
        assert!(msg.contains("acquiring ShardState while holding [Store]"));
        drop(Mutex::ranked(LockClass::Metrics, ()).lock());
        drop(s);
        drop(drain.lock());
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn condvar_wait_returns_with_the_class_held() {
        let m = Mutex::ranked(LockClass::Idle, ());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(1)).timed_out());
        let msg = lockdep_panic(|| lockdep::assert_unheld(&[LockClass::Idle], "probe"));
        assert_eq!(msg, "lockdep: probe while holding Idle");
        drop(g);
        lockdep::assert_unheld(&[LockClass::Idle], "probe");
    }

    #[test]
    #[cfg(all(debug_assertions, not(loom)))]
    fn violation_on_a_caught_panic_is_still_counted() {
        let before = lockdep::violations();
        let store = Mutex::ranked(LockClass::Store, ());
        let shard = Mutex::ranked(LockClass::ShardState, ());
        // A worker's supervisor catches the panic; the count keeps it.
        lockdep_panic(|| {
            let _s = store.lock();
            let _g = shard.lock();
        });
        assert!(lockdep::violations() > before);
    }

    #[test]
    #[cfg(not(any(debug_assertions, loom)))]
    fn lockdep_compiles_out_of_release() {
        use std::mem::size_of;
        assert_eq!(size_of::<Mutex<u64>>(), size_of::<std::sync::Mutex<u64>>());
        assert_eq!(
            size_of::<MutexGuard<'static, u64>>(),
            size_of::<std::sync::MutexGuard<'static, u64>>()
        );
        assert_eq!(
            size_of::<RwLock<u64>>(),
            size_of::<std::sync::RwLock<u64>>()
        );
        assert_eq!(
            size_of::<RwLockReadGuard<'static, u64>>(),
            size_of::<std::sync::RwLockReadGuard<'static, u64>>()
        );
        assert_eq!(
            size_of::<RwLockWriteGuard<'static, u64>>(),
            size_of::<std::sync::RwLockWriteGuard<'static, u64>>()
        );
        assert_eq!(lockdep::violations(), 0);
    }
}
