//! The simulated disk: a single FCFS queueing server.
//!
//! Every merged I/O run from every query thread goes through this one
//! server, so concurrent queries contend here exactly as the paper's
//! threads contended for the SMP's local disks: "for many threads the I/O
//! subsystem cannot keep up with the amount of requests it receives" (§5) —
//! which is what bends the Fig. 4 curves back up past ~4 threads.

use vmqs_storage::DiskModel;

/// Aggregate disk counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// I/O requests serviced (merged runs).
    pub requests: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total busy time (seconds).
    pub busy_time: f64,
    /// Total time requests spent queued before service (seconds).
    pub queue_time: f64,
}

/// Independent disks in the simulator's farm. I/O throughput scales up to
/// this many concurrent streams; beyond it, seek thrash sets in.
/// Calibrated to 4, matching the paper's observed optimum at 4 query
/// threads for the I/O-bound workload.
pub(crate) const N_DISKS: usize = 4;

/// A disk farm: `k` independent FCFS servers (spindles) in virtual time.
///
/// Requests go to the earliest-free disk, so I/O throughput scales up to
/// `k` concurrent streams. Beyond that, competing sequential streams
/// interleave on the same spindles and each request pays extra positioning
/// cost (seek thrash) proportional to the oversubscription. Together these
/// produce the paper's observed optimum near the farm's parallelism and
/// the degradation past it.
#[derive(Clone, Debug)]
pub struct DiskQueue {
    model: DiskModel,
    free_at: Vec<f64>,
    stats: DiskStats,
}

impl DiskQueue {
    /// Creates a single idle disk.
    pub fn new(model: DiskModel) -> Self {
        DiskQueue::with_servers(model, 1)
    }

    /// Creates a farm of `servers` identical disks.
    pub fn with_servers(model: DiskModel, servers: usize) -> Self {
        assert!(servers >= 1, "at least one disk required");
        DiskQueue {
            model,
            free_at: vec![0.0; servers],
            stats: DiskStats::default(),
        }
    }

    /// Number of independent disks.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a request of `bytes` at time `now` from a single stream;
    /// returns its completion time.
    pub fn submit(&mut self, now: f64, bytes: u64) -> f64 {
        self.submit_streams(now, bytes, 1)
    }

    /// Submits a request while `streams` queries are concurrently doing
    /// I/O. When streams exceed the farm's parallelism, positioning cost
    /// grows with the oversubscription factor: the heads shuttle between
    /// the interleaved sequential runs of competing queries. This is what
    /// makes "the I/O subsystem … not keep up" beyond the paper's
    /// ~4-thread sweet spot (§5).
    pub fn submit_streams(&mut self, now: f64, bytes: u64, streams: usize) -> f64 {
        let k = self.free_at.len();
        let thrash = (streams.max(1) as f64 / k as f64).max(1.0);
        let service = self.model.seek_time * thrash + bytes as f64 / self.model.bandwidth;
        // Earliest-free disk; ties broken by index for determinism.
        let (disk, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(i.cmp(j)))
            .expect("at least one disk");
        let start = self.free_at[disk].max(now);
        let end = start + service;
        self.free_at[disk] = end;
        self.stats.requests += 1;
        self.stats.bytes += bytes;
        self.stats.busy_time += service;
        self.stats.queue_time += start - now;
        end
    }

    /// Mean outstanding work per disk at time `now`, in seconds — the
    /// congestion signal consumed by I/O-aware scheduling policies
    /// (paper §6, extension (3): "incorporation of low level metrics …
    /// into the query scheduling model").
    pub fn backlog(&self, now: f64) -> f64 {
        self.free_at
            .iter()
            .map(|&f| (f - now).max(0.0))
            .sum::<f64>()
            / self.free_at.len() as f64
    }

    /// Time at which some disk becomes idle.
    pub fn free_at(&self) -> f64 {
        self.free_at.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Mean per-disk utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            0.0
        } else {
            (self.stats.busy_time / (horizon * self.free_at.len() as f64)).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskQueue {
        DiskQueue::new(DiskModel::new(0.01, 1000.0))
    }

    #[test]
    fn idle_disk_services_immediately() {
        let mut d = disk();
        let end = d.submit(5.0, 1000);
        assert!((end - (5.0 + 0.01 + 1.0)).abs() < 1e-12);
        assert_eq!(d.stats().queue_time, 0.0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = disk();
        let e1 = d.submit(0.0, 1000); // ends at 1.01
        let e2 = d.submit(0.0, 1000); // queues behind, ends at 2.02
        assert!(e2 > e1);
        assert!((e2 - 2.02).abs() < 1e-12);
        assert!((d.stats().queue_time - 1.01).abs() < 1e-12);
    }

    #[test]
    fn later_arrival_after_idle_gap() {
        let mut d = disk();
        d.submit(0.0, 1000);
        // Arrives after the disk went idle.
        let end = d.submit(10.0, 0);
        assert!((end - 10.01).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_streams_pay_extra_seeks() {
        let mut a = disk();
        let mut b = disk();
        let e1 = a.submit_streams(0.0, 1000, 1);
        let e8 = b.submit_streams(0.0, 1000, 8);
        assert!((e8 - e1 - 0.07).abs() < 1e-12, "8x thrash on one disk");
        // Zero streams clamps to one.
        let mut c = disk();
        assert_eq!(c.submit_streams(0.0, 0, 0), 0.01);
    }

    #[test]
    fn farm_parallelizes_up_to_server_count() {
        let mut farm = DiskQueue::with_servers(DiskModel::new(0.01, 1000.0), 4);
        assert_eq!(farm.servers(), 4);
        // Four requests at t=0 all finish at the single-request time.
        let ends: Vec<f64> = (0..4).map(|_| farm.submit_streams(0.0, 1000, 4)).collect();
        for e in &ends {
            assert!((e - 1.01).abs() < 1e-12);
        }
        // The fifth queues behind one of them.
        let e5 = farm.submit_streams(0.0, 1000, 4);
        assert!(e5 > 2.0);
    }

    #[test]
    fn farm_absorbs_streams_up_to_parallelism_without_thrash() {
        let mut farm = DiskQueue::with_servers(DiskModel::new(0.01, 1000.0), 4);
        // 4 streams on 4 disks: no thrash multiplier.
        let e = farm.submit_streams(0.0, 1000, 4);
        assert!((e - 1.01).abs() < 1e-12);
        // 8 streams on 4 disks: 2x seek.
        let mut farm2 = DiskQueue::with_servers(DiskModel::new(0.01, 1000.0), 4);
        let e2 = farm2.submit_streams(0.0, 1000, 8);
        assert!((e2 - 1.02).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_servers_rejected() {
        DiskQueue::with_servers(DiskModel::circa_2002(), 0);
    }

    #[test]
    fn backlog_measures_outstanding_work() {
        let mut d = DiskQueue::with_servers(DiskModel::new(0.0, 1000.0), 2);
        assert_eq!(d.backlog(0.0), 0.0);
        d.submit(0.0, 1000); // 1 s on disk 0
        assert!((d.backlog(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.backlog(10.0), 0.0); // long past completion
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        d.submit(0.0, 500);
        d.submit(0.0, 500);
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes, 1000);
        assert!((s.busy_time - 1.02).abs() < 1e-12);
        assert!(d.utilization(2.0) > 0.5);
        assert_eq!(d.utilization(0.0), 0.0);
    }
}
