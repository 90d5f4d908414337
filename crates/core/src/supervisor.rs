//! Worker-pool supervision bookkeeping (DESIGN.md §15): how many
//! replacement workers may still be started, how many workers are alive,
//! and whether the pool has died. Both engines ask the one question —
//! [`Supervisor::on_worker_death`] — when a compute panics: the threaded
//! server from the dying thread (several may die at once, hence atomics),
//! the simulator for a virtual worker slot. Spawning the replacement,
//! failing the stranded queries and every event stay with the driver.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What becomes of a worker whose compute panicked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFate {
    /// A restart-budget token was claimed: the driver starts a replacement
    /// (and calls [`Supervisor::retire`] if it cannot).
    Respawn,
    /// The budget is spent; the pool carries on with one worker fewer.
    Retire,
    /// The budget is spent and this was the last live worker: nothing
    /// WAITING will ever run. Returned to exactly one caller, after the
    /// [`Supervisor::pool_dead`] latch is set.
    PoolDead,
}

/// Restart budget, live-worker count and pool-dead latch of one pool.
#[derive(Debug)]
pub struct Supervisor {
    restarts_left: AtomicUsize,
    live: AtomicUsize,
    pool_dead: AtomicBool,
}

impl Supervisor {
    /// A pool of `workers` that may start `restart_budget` replacements
    /// over its lifetime.
    pub fn new(workers: usize, restart_budget: usize) -> Self {
        Supervisor {
            restarts_left: AtomicUsize::new(restart_budget),
            live: AtomicUsize::new(workers),
            pool_dead: AtomicBool::new(false),
        }
    }

    /// A worker died: claims a restart token if one is left, otherwise
    /// retires the worker.
    pub fn on_worker_death(&self) -> WorkerFate {
        let mut left = self.restarts_left.load(Ordering::SeqCst);
        while left > 0 {
            match self.restarts_left.compare_exchange(
                left,
                left - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return WorkerFate::Respawn,
                Err(now) => left = now,
            }
        }
        self.retire()
    }

    /// A worker leaves for good, or a worker the pool was sized for (or
    /// granted as a replacement) could not be started.
    pub fn retire(&self) -> WorkerFate {
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.pool_dead.store(true, Ordering::SeqCst);
            WorkerFate::PoolDead
        } else {
            WorkerFate::Retire
        }
    }

    /// Workers currently alive (a replacement counts as its predecessor).
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// True once the last worker has retired: queued work would wait
    /// forever, so drivers refuse new queries and fail the WAITING ones.
    pub fn pool_dead(&self) -> bool {
        self.pool_dead.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn budget_of_n_yields_n_respawns_then_retirements() {
        let s = Supervisor::new(3, 2);
        assert_eq!(s.on_worker_death(), WorkerFate::Respawn);
        assert_eq!(s.on_worker_death(), WorkerFate::Respawn);
        assert_eq!(s.live_workers(), 3, "a replacement keeps the pool whole");
        assert_eq!(s.on_worker_death(), WorkerFate::Retire);
        assert_eq!(s.on_worker_death(), WorkerFate::Retire);
        assert!(!s.pool_dead());
        assert_eq!(s.on_worker_death(), WorkerFate::PoolDead);
        assert!(s.pool_dead());
        assert_eq!(s.live_workers(), 0);
    }

    #[test]
    fn a_replacement_that_cannot_start_retires_its_slot() {
        let s = Supervisor::new(1, 1);
        assert_eq!(s.on_worker_death(), WorkerFate::Respawn);
        assert_eq!(s.retire(), WorkerFate::PoolDead);
        assert!(s.pool_dead());
    }

    #[test]
    fn pool_death_is_reported_once_by_the_last_of_eight_racing_retirees() {
        for budget in [0, 3] {
            let s = Arc::new(Supervisor::new(8, budget));
            let start = Arc::new(Barrier::new(8));
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    let (s, start) = (Arc::clone(&s), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        // Each worker keeps dying until it stays dead.
                        let mut fates = Vec::new();
                        loop {
                            let fate = s.on_worker_death();
                            fates.push(fate);
                            if fate != WorkerFate::Respawn {
                                // The latch is set before the last
                                // retiree learns its fate.
                                assert!(fate != WorkerFate::PoolDead || s.pool_dead());
                                return fates;
                            }
                        }
                    })
                })
                .collect();
            let fates: Vec<WorkerFate> = racers
                .into_iter()
                .flat_map(|r| r.join().expect("racer"))
                .collect();
            let count = |f| fates.iter().filter(|&&x| x == f).count();
            assert_eq!(count(WorkerFate::Respawn), budget);
            assert_eq!(count(WorkerFate::Retire), 7);
            assert_eq!(count(WorkerFate::PoolDead), 1);
            assert!(s.pool_dead());
        }
    }
}
