//! Model-checked `Mutex`, `Condvar`, and `RwLock` with the vendored
//! parking_lot shim's ergonomics (non-poisoning, `Condvar::wait` taking
//! `&mut MutexGuard`), so `vmqs-core::sync` can re-export either family
//! unchanged.
//!
//! Inside `loom::model`, acquisition order and condvar wakeups are
//! scheduling decisions explored by the runtime; each lock carries a
//! vector clock so unlock→lock is a release/acquire edge. Untimed
//! condvar waits that can never be woken are reported as deadlocks
//! (lost-wakeup detection); timed waits are woken *as timeouts* only
//! when the model would otherwise deadlock, which keeps the state space
//! small without masking missing notifications on untimed waits.
//!
//! Outside a model everything passes straight through to `std`.

pub use std::sync::Arc;

use crate::rt::{self, Execution, VClock};
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

pub mod atomic {
    //! Re-export of the model-checked atomics (std layout of
    //! `loom::sync::atomic`).
    pub use crate::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

/// Per-model bookkeeping of one lock, rebuilt lazily each iteration.
#[derive(Debug)]
struct LockCell {
    /// Execution uid the cell belongs to; stale cells are reset.
    uid: u64,
    /// Runtime object id (for block/wake bookkeeping).
    obj: usize,
    /// Active readers (always 0 for a plain mutex).
    readers: usize,
    /// Exclusive holder present?
    locked: bool,
    /// Clock released by the last unlock; joined by the next acquirer.
    clock: VClock,
}

/// Returns the cell for the current execution, resetting stale state.
fn cell<'a>(slot: &'a mut Option<LockCell>, exec: &Arc<Execution>) -> &'a mut LockCell {
    let stale = slot.as_ref().map(|c| c.uid != exec.uid).unwrap_or(true);
    if stale {
        *slot = Some(LockCell {
            uid: exec.uid,
            obj: exec.new_object(),
            readers: 0,
            locked: false,
            clock: VClock::default(),
        });
    }
    slot.as_mut().unwrap()
}

/// A mutual exclusion primitive; model-checked inside `loom::model`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    ctl: StdMutex<Option<LockCell>>,
    inner: StdMutex<T>,
}

/// RAII guard of a locked [`Mutex`].
///
/// Holds an `Option` internally so [`Condvar::wait`] can temporarily take
/// the underlying std guard by value; the option is `Some` at every point
/// user code can observe.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            ctl: StdMutex::new(None),
            inner: StdMutex::new(value),
        }
    }

    /// Creates a mutex, ignoring `class`: the lock class a
    /// `vmqs_core::sync` lockdep checks in debug builds, which does not
    /// run inside loom builds.
    pub const fn ranked<C: Copy>(class: C, value: T) -> Self {
        let _ = class;
        Mutex::new(value)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Model-side acquisition: blocks (cooperatively) until the lock is
    /// free, then joins the releasing thread's clock.
    fn model_lock(&self, exec: &Arc<Execution>, tid: usize) {
        loop {
            exec.sched_point(tid);
            let (admitted, obj) = {
                let mut slot = self.ctl.lock().unwrap();
                let c = cell(&mut slot, exec);
                if c.locked {
                    (false, c.obj)
                } else {
                    c.locked = true;
                    exec.join_clock(tid, &c.clock);
                    (true, c.obj)
                }
            };
            if admitted {
                return;
            }
            exec.block_on_mutex(tid, obj);
        }
    }

    /// Model-side release: publishes the holder's clock and wakes
    /// blocked acquirers. Safe to call during unwinding (never panics).
    fn model_unlock(&self, exec: &Arc<Execution>, tid: usize) {
        let obj = {
            let mut slot = self.ctl.lock().unwrap();
            let c = cell(&mut slot, exec);
            c.locked = false;
            c.clock = exec.clock_of(tid);
            c.obj
        };
        exec.wake_lock_waiters(obj);
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some((exec, tid)) = rt::current() {
            self.model_lock(&exec, tid);
        }
        // In-model acquisitions reach this point holding the modeled
        // lock, so the std lock below is uncontended.
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if let Some((exec, tid)) = rt::current() {
            exec.sched_point(tid);
            let admitted = {
                let mut slot = self.ctl.lock().unwrap();
                let c = cell(&mut slot, &exec);
                if c.locked {
                    false
                } else {
                    c.locked = true;
                    exec.join_clock(tid, &c.clock);
                    true
                }
            };
            if !admitted {
                return None;
            }
            return Some(MutexGuard {
                lock: self,
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            });
        }
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                lock: self,
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Std guard first: a parked model thread must never be holding
        // the (real) std mutex when another model thread acquires it.
        drop(self.inner.take());
        if let Some((exec, tid)) = rt::current() {
            self.lock.model_unlock(&exec, tid);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable usable with [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    ctl: StdMutex<Option<CvCell>>,
    native: std::sync::Condvar,
}

#[derive(Debug)]
struct CvCell {
    uid: u64,
    obj: usize,
}

/// Result of a timed wait: whether the wait timed out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            ctl: StdMutex::new(None),
            native: std::sync::Condvar::new(),
        }
    }

    fn obj(&self, exec: &Arc<Execution>) -> usize {
        let mut slot = self.ctl.lock().unwrap();
        let stale = slot.as_ref().map(|c| c.uid != exec.uid).unwrap_or(true);
        if stale {
            *slot = Some(CvCell {
                uid: exec.uid,
                obj: exec.new_object(),
            });
        }
        slot.as_ref().unwrap().obj
    }

    /// In-model wait: releases the guard's mutex, parks on the modeled
    /// wait queue, re-acquires on wakeup. Returns true on (modeled)
    /// timeout.
    fn model_wait<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        exec: &Arc<Execution>,
        tid: usize,
        timed: bool,
    ) -> bool {
        let cv = self.obj(exec);
        drop(guard.inner.take());
        guard.lock.model_unlock(exec, tid);
        let timed_out = exec.condvar_wait(tid, cv, timed);
        guard.lock.model_lock(exec, tid);
        guard.inner = Some(
            guard
                .lock
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        timed_out
    }

    /// Atomically releases the guard's mutex and waits for a
    /// notification; the lock is re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some((exec, tid)) = rt::current() {
            self.model_wait(guard, &exec, tid, false);
            return;
        }
        let inner = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(
            self.native
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Like [`Condvar::wait`], with a timeout. In a model the timeout
    /// fires only when every thread would otherwise be blocked.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        if let Some((exec, tid)) = rt::current() {
            return WaitTimeoutResult(self.model_wait(guard, &exec, tid, true));
        }
        let inner = guard.inner.take().expect("guard present outside wait");
        let (inner, res) = match self.native.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    /// Like [`Condvar::wait`], waiting until a deadline.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        if let Some((exec, tid)) = rt::current() {
            return WaitTimeoutResult(self.model_wait(guard, &exec, tid, true));
        }
        // Passthrough timed wait outside a model.
        #[allow(clippy::disallowed_methods)]
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Wakes one waiter (FIFO inside a model).
    pub fn notify_one(&self) -> bool {
        if let Some((exec, tid)) = rt::current() {
            exec.sched_point(tid);
            exec.condvar_notify(self.obj(&exec), 1);
            return true;
        }
        self.native.notify_one();
        true
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) -> usize {
        if let Some((exec, tid)) = rt::current() {
            exec.sched_point(tid);
            exec.condvar_notify(self.obj(&exec), usize::MAX);
            return 0;
        }
        self.native.notify_all();
        0
    }
}

/// A reader-writer lock; model-checked inside `loom::model`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    ctl: StdMutex<Option<LockCell>>,
    inner: std::sync::RwLock<T>,
}

/// Shared-read guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

/// Exclusive-write guard of an [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            ctl: StdMutex::new(None),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Creates a reader-writer lock, ignoring `class` (see
    /// [`Mutex::ranked`]).
    pub const fn ranked<C: Copy>(class: C, value: T) -> Self {
        let _ = class;
        RwLock::new(value)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Try-admit under the model; `write` selects exclusive access.
    /// Returns the object id on refusal.
    fn model_try(&self, exec: &Arc<Execution>, tid: usize, write: bool) -> Result<(), usize> {
        let mut slot = self.ctl.lock().unwrap();
        let c = cell(&mut slot, exec);
        let ok = if write {
            !c.locked && c.readers == 0
        } else {
            !c.locked
        };
        if !ok {
            return Err(c.obj);
        }
        if write {
            c.locked = true;
        } else {
            c.readers += 1;
        }
        exec.join_clock(tid, &c.clock);
        Ok(())
    }

    fn model_acquire(&self, exec: &Arc<Execution>, tid: usize, write: bool) {
        let this = &self;
        exec.acquire_when(tid, self.obj_id(exec), write, || {
            this.model_try(exec, tid, write).is_ok()
        });
    }

    fn obj_id(&self, exec: &Arc<Execution>) -> usize {
        let mut slot = self.ctl.lock().unwrap();
        cell(&mut slot, exec).obj
    }

    /// Release one hold; joins the releaser's clock into the lock clock
    /// so every later acquirer (reader or writer) is ordered after it.
    fn model_release(&self, exec: &Arc<Execution>, tid: usize, write: bool) {
        let obj = {
            let mut slot = self.ctl.lock().unwrap();
            let c = cell(&mut slot, exec);
            if write {
                c.locked = false;
            } else {
                c.readers = c.readers.saturating_sub(1);
            }
            let released = exec.clock_of(tid);
            c.clock.join(&released);
            c.obj
        };
        exec.wake_lock_waiters(obj);
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some((exec, tid)) = rt::current() {
            self.model_acquire(&exec, tid, false);
        }
        RwLockReadGuard {
            lock: self,
            inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some((exec, tid)) = rt::current() {
            self.model_acquire(&exec, tid, true);
        }
        RwLockWriteGuard {
            lock: self,
            inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        if let Some((exec, tid)) = rt::current() {
            exec.sched_point(tid);
            if self.model_try(&exec, tid, false).is_err() {
                return None;
            }
            return Some(RwLockReadGuard {
                lock: self,
                inner: Some(self.inner.read().unwrap_or_else(PoisonError::into_inner)),
            });
        }
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                lock: self,
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        if let Some((exec, tid)) = rt::current() {
            exec.sched_point(tid);
            if self.model_try(&exec, tid, true).is_err() {
                return None;
            }
            return Some(RwLockWriteGuard {
                lock: self,
                inner: Some(self.inner.write().unwrap_or_else(PoisonError::into_inner)),
            });
        }
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard {
                lock: self,
                inner: Some(g),
            }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                lock: self,
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((exec, tid)) = rt::current() {
            self.lock.model_release(&exec, tid, false);
        }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((exec, tid)) = rt::current() {
            self.lock.model_release(&exec, tid, true);
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside release")
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside release")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside release")
    }
}
