//! A minimal discrete-event scheduler.
//!
//! Used by the churn-storm test (`rdfmesh-core`'s `churn_storm.rs`) to
//! interleave node joins, failures, maintenance rounds and queries on a
//! virtual clock, and by the transport tests. Events fire in time
//! order; ties break by insertion sequence, which keeps runs reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event carrying a caller-defined payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first order.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event queue over virtual time.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: BinaryHeap<Scheduled<E>>,
    clock: SimTime,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler { queue: BinaryHeap::new(), clock: SimTime::ZERO, seq: 0 }
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedules `event` at absolute time `at`. Events scheduled in the
    /// past fire "now" (at the current clock) — they cannot rewind time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.clock);
        self.queue.push(Scheduled { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Schedules `event` after a delay from the current clock.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.clock + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Deliberately an inherent method rather than `Iterator::next`:
    /// popping mutates the simulation clock, which iterator adapters
    /// would hide.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.queue.pop().map(|s| {
            self.clock = s.at;
            (s.at, s.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Runs every pending event through `f`, which may schedule more.
    /// Stops when the queue drains or after `max_events` (runaway guard).
    pub fn run<F: FnMut(SimTime, E, &mut Scheduler<E>)>(&mut self, max_events: usize, mut f: F) {
        for _ in 0..max_events {
            let Some((at, event)) = self.next() else { return };
            // Temporarily move the queue out so the callback can schedule.
            f(at, event, self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime(30), "c");
        s.schedule_at(SimTime(10), "a");
        s.schedule_at(SimTime(20), "b");
        let mut order = Vec::new();
        while let Some((t, e)) = s.next() {
            order.push((t.0, e));
        }
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(s.now(), SimTime(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime(5), 1);
        s.schedule_at(SimTime(5), 2);
        s.schedule_at(SimTime(5), 3);
        let got: Vec<i32> = std::iter::from_fn(|| s.next().map(|(_, e)| e)).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn past_events_fire_at_current_clock() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime(100), "later");
        s.next();
        s.schedule_at(SimTime(10), "past");
        let (t, e) = s.next().unwrap();
        assert_eq!(e, "past");
        assert_eq!(t, SimTime(100));
    }

    #[test]
    fn run_allows_rescheduling() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime(1), 0u32);
        let mut fired = Vec::new();
        s.run(100, |_t, n, sched| {
            fired.push(n);
            if n < 4 {
                sched.schedule_in(SimTime(10), n + 1);
            }
        });
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.now(), SimTime(41));
    }

    #[test]
    fn run_respects_event_budget() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime(1), ());
        let mut count = 0;
        s.run(10, |_t, (), sched| {
            count += 1;
            sched.schedule_in(SimTime(1), ()); // infinite ping
        });
        assert_eq!(count, 10);
    }
}
