//! Synchronization facade for every concurrency-critical primitive in
//! the workspace.
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

#[cfg(loom)]
pub use loom::sync::{
    Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub use self::unpoisoned::{Condvar, Mutex, MutexGuard, RwLock, WaitTimeoutResult};

#[cfg(not(loom))]
pub use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(loom))]
mod unpoisoned {
    use std::ops::{Deref, DerefMut};
    use std::sync::PoisonError;
    use std::time::{Duration, Instant};

    /// A mutual exclusion primitive (non-poisoning facade over
    /// [`std::sync::Mutex`]).
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    /// RAII guard of a locked [`Mutex`].
    ///
    /// Holds an `Option` internally so [`Condvar::wait`] can temporarily
    /// take the underlying std guard by value; the option is `Some` at
    /// every point user code can observe.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

    impl<T> Mutex<T> {
        /// Creates a mutex.
        #[inline]
        pub const fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking until available.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        #[inline]
        fn deref(&self) -> &T {
            self.0.as_ref().expect("guard present outside wait")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        #[inline]
        fn deref_mut(&mut self) -> &mut T {
            self.0.as_mut().expect("guard present outside wait")
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
            let inner = guard.0.take().expect("guard present outside wait");
            guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
        }

        /// Like [`Condvar::wait`], with a timeout.
        #[inline]
        pub fn wait_for<T>(
            &self,
            guard: &mut MutexGuard<'_, T>,
            timeout: Duration,
        ) -> WaitTimeoutResult {
            let inner = guard.0.take().expect("guard present outside wait");
            let (inner, res) = self
                .0
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            guard.0 = Some(inner);
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
    /// [`std::sync::RwLock`]); its guards are the std guards.
    #[derive(Debug, Default)]
    pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        /// Creates a reader-writer lock.
        #[inline]
        pub const fn new(value: T) -> Self {
            RwLock(std::sync::RwLock::new(value))
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared read access.
        #[inline]
        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires exclusive write access.
        #[inline]
        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(PoisonError::into_inner)
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
}
