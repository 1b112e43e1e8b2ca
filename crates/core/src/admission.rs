//! Admission control for the live multi-query coordinator.
//!
//! The coordinator state machine (`live.rs`) handles any number of
//! in-flight queries, but the process still has finite memory, threads,
//! and socket budget. [`Admission`] bounds the blast radius the way
//! loaded services do: a window of `max_inflight` concurrently executing
//! queries, a bounded wait queue of `queue_depth` arrivals behind it,
//! and outright rejection beyond that — so overload turns into fast
//! `503 Retry-After` responses instead of a pile-up of queries that all
//! blow their deadline together (see docs/EXECUTION.md).
//!
//! A rejected query consumes nothing: no query id, no coordinator
//! event, no solution round. Admission is checked once per *execution*
//! (one SPARQL query = one permit covering all its solution rounds),
//! not per round, so an admitted query can never be starved mid-plan.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rdfmesh_net::lock;

use crate::config::LiveConfig;
use crate::stats::LiveStats;

/// Counts of the admission window at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionLoad {
    /// Executions currently holding a permit.
    pub inflight: usize,
    /// Arrivals currently waiting for a permit.
    pub queued: usize,
}

#[derive(Debug)]
struct Inner {
    max_inflight: usize,
    queue_depth: usize,
    load: Mutex<AdmissionLoad>,
    freed: Condvar,
}

/// A bounded in-flight window plus bounded wait queue gating query
/// executions (cloned handles share one window).
#[derive(Debug, Clone)]
pub struct Admission {
    inner: Arc<Inner>,
    stats: Arc<LiveStats>,
}

/// Held for the duration of one admitted query execution; dropping it
/// releases the in-flight slot and wakes one queued waiter.
#[derive(Debug)]
pub struct Permit {
    inner: Arc<Inner>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut load = lock(&self.inner.load);
        load.inflight = load.inflight.saturating_sub(1);
        drop(load);
        self.inner.freed.notify_one();
    }
}

impl Admission {
    /// A window sized by [`LiveConfig::max_inflight`] and
    /// [`LiveConfig::queue_depth`], recording admitted/queued/rejected
    /// into `stats` (and through it the `live.*` metrics).
    pub fn new(cfg: &LiveConfig, stats: Arc<LiveStats>) -> Admission {
        Admission {
            inner: Arc::new(Inner {
                max_inflight: cfg.max_inflight.max(1),
                queue_depth: cfg.queue_depth,
                load: Mutex::new(AdmissionLoad::default()),
                freed: Condvar::new(),
            }),
            stats,
        }
    }

    /// Acquires an execution permit, waiting in the bounded queue up to
    /// `wait_limit` for a slot. Returns the suggested retry-after delay
    /// when rejected (queue full, or the wait outlived `wait_limit`).
    pub fn acquire(&self, wait_limit: Duration) -> Result<Permit, Duration> {
        let deadline = Instant::now() + wait_limit;
        let mut load = lock(&self.inner.load);
        if load.inflight < self.inner.max_inflight {
            load.inflight += 1;
            self.stats.add_admitted(1);
            return Ok(Permit { inner: Arc::clone(&self.inner) });
        }
        if load.queued >= self.inner.queue_depth {
            drop(load);
            self.stats.add_rejected(1);
            return Err(retry_after(wait_limit));
        }
        load.queued += 1;
        self.stats.add_queued(1);
        loop {
            let now = Instant::now();
            if now >= deadline {
                load.queued -= 1;
                drop(load);
                self.stats.add_rejected(1);
                return Err(retry_after(wait_limit));
            }
            let (next, _) = self
                .inner
                .freed
                .wait_timeout(load, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            load = next;
            if load.inflight < self.inner.max_inflight {
                load.queued -= 1;
                load.inflight += 1;
                // A freed slot may wake one waiter while another slot
                // frees concurrently: pass the signal on so no waiter
                // sleeps next to an open slot.
                if load.inflight < self.inner.max_inflight && load.queued > 0 {
                    self.inner.freed.notify_one();
                }
                self.stats.add_admitted(1);
                return Ok(Permit { inner: Arc::clone(&self.inner) });
            }
        }
    }

    /// The current in-flight / queued occupancy.
    pub fn load(&self) -> AdmissionLoad {
        *lock(&self.inner.load)
    }
}

/// How long a rejected client should back off before resubmitting: half
/// the wait limit it was given (one query deadline at the endpoint),
/// floored at one second so the HTTP header never rounds down to zero.
fn retry_after(wait_limit: Duration) -> Duration {
    (wait_limit / 2).max(Duration::from_secs(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(max_inflight: usize, queue_depth: usize) -> Admission {
        let cfg = LiveConfig { max_inflight, queue_depth, ..LiveConfig::default() };
        Admission::new(&cfg, Arc::new(LiveStats::default()))
    }

    #[test]
    fn admits_up_to_window_then_rejects_past_queue() {
        let a = gate(2, 0);
        let p1 = a.acquire(Duration::from_millis(10)).unwrap();
        let _p2 = a.acquire(Duration::from_millis(10)).unwrap();
        assert_eq!(a.load(), AdmissionLoad { inflight: 2, queued: 0 });
        // Window full, queue depth 0: immediate rejection with a
        // non-zero retry hint.
        let err = a.acquire(Duration::from_millis(10)).unwrap_err();
        assert!(err >= Duration::from_secs(1));
        drop(p1);
        let _p3 = a.acquire(Duration::from_millis(10)).unwrap();
    }

    #[test]
    fn queued_waiter_gets_the_freed_slot() {
        let a = gate(1, 4);
        let p = a.acquire(Duration::from_millis(10)).unwrap();
        let b = a.clone();
        let waiter = std::thread::spawn(move || b.acquire(Duration::from_secs(5)));
        while a.load().queued == 0 {
            std::thread::yield_now();
        }
        drop(p);
        let handed_over = waiter.join().unwrap().expect("freed slot goes to the waiter");
        assert_eq!(a.load(), AdmissionLoad { inflight: 1, queued: 0 });
        drop(handed_over);
        assert_eq!(a.load(), AdmissionLoad { inflight: 0, queued: 0 });
    }

    #[test]
    fn queue_wait_expires_into_rejection() {
        let a = gate(1, 4);
        let _p = a.acquire(Duration::from_millis(10)).unwrap();
        let err = a.acquire(Duration::from_millis(20)).unwrap_err();
        assert!(err >= Duration::from_secs(1));
        assert_eq!(a.load(), AdmissionLoad { inflight: 1, queued: 0 });
    }

    #[test]
    fn stats_track_every_outcome() {
        let stats = Arc::new(LiveStats::default());
        let cfg = LiveConfig { max_inflight: 1, queue_depth: 0, ..LiveConfig::default() };
        let a = Admission::new(&cfg, Arc::clone(&stats));
        let p = a.acquire(Duration::from_millis(10)).unwrap();
        assert!(a.acquire(Duration::from_millis(10)).is_err());
        drop(p);
        let snap = stats.snapshot();
        assert_eq!((snap.admitted, snap.rejected, snap.queued), (1, 1, 0));
    }
}
