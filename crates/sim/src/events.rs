//! The event queue driving the simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vmqs_core::{ClientId, QueryId};

/// Simulation events, generic over the application's predicate type.
#[derive(Clone, Debug)]
pub enum Event<S> {
    /// A client submits a query.
    Arrival {
        /// Submitting client.
        client: ClientId,
        /// The query predicate.
        spec: S,
        /// Index of the query within the client's stream.
        seq_in_client: usize,
    },
    /// A previously blocked query resumes execution (its dependency
    /// finished).
    Resume {
        /// The query to resume.
        id: QueryId,
    },
    /// A query finishes executing.
    Completion {
        /// The finished query.
        id: QueryId,
    },
    /// The hang watchdog's deadline for one execution span (DESIGN.md
    /// §15): pushed at dequeue when `EngineConfig::hang_timeout` is set. If
    /// the query is still in that same span when this fires, it is
    /// cancelled as hung; a span that already completed (or was requeued
    /// by a panic) makes this a no-op.
    HangDeadline {
        /// The query whose span is being watched.
        id: QueryId,
    },
}

struct Scheduled<S> {
    time: f64,
    seq: u64,
    event: Event<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}

impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Ties break
        // by insertion order (earlier-scheduled first), making runs fully
        // deterministic.
        other
            .time
            .partial_cmp(&self.time)
            .expect("non-finite event time")
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<S> {
    heap: BinaryHeap<Scheduled<S>>,
    seq: u64,
}

impl<S> Default for EventQueue<S> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<S> EventQueue<S> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: f64, event: Event<S>) {
        assert!(time.is_finite(), "non-finite event time");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event<S>)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Peeks at the earliest pending event without removing it.
    pub fn peek(&self) -> Option<(f64, &Event<S>)> {
        self.heap.peek().map(|s| (s.time, &s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(2.0, Event::Completion { id: QueryId(2) });
        q.push(1.0, Event::Completion { id: QueryId(1) });
        q.push(3.0, Event::Completion { id: QueryId(3) });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Completion { id } => id.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        for i in 0..5 {
            q.push(7.0, Event::Resume { id: QueryId(i) });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Resume { id } => id.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_time() {
        EventQueue::<()>::new().push(f64::NAN, Event::Resume { id: QueryId(0) });
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Event::Resume { id: QueryId(0) });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
