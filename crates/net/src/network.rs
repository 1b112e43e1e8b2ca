//! The cost-accounting network model.
//!
//! The paper's optimization objectives are *total inter-site data
//! transmission* and *response time* (Sect. IV-C, Sect. V). [`Network`]
//! makes both first-class: every message transfer is charged
//!
//! ```text
//! arrival = depart + latency(from, to) + bytes / bandwidth
//! ```
//!
//! and recorded in [`NetStats`]. Executors thread departure/arrival
//! times through their control flow, so parallel fan-out (all sub-queries
//! leave at the same instant) and sequential chains (each hop waits for
//! its predecessor) yield honest critical-path response times.
//!
//! Local (same-node) deliveries are free: the paper's optimizations are
//! exactly about converting remote transfers into local ones.

use std::cell::RefCell;

use crate::latency::LatencyModel;
use crate::stats::NetStats;
use crate::time::SimTime;

/// Identifies a node (site) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A simulated network connecting nodes with configurable link costs.
#[derive(Debug)]
pub struct Network {
    latency: LatencyModel,
    /// Link throughput in bytes per microsecond (e.g. 12.5 ≈ 100 Mbit/s).
    bytes_per_micro: f64,
    stats: RefCell<NetStats>,
    /// Extra metrics counter every sent byte is also charged to while
    /// set — lets executors split traffic into classes (e.g. bytes spent
    /// on cache-hit vs cache-miss query paths).
    byte_class: RefCell<Option<&'static str>>,
}

impl Network {
    /// A network with the given latency model and link bandwidth
    /// (bytes per microsecond).
    pub fn new(latency: LatencyModel, bytes_per_micro: f64) -> Self {
        assert!(bytes_per_micro > 0.0, "bandwidth must be positive");
        Network {
            latency,
            bytes_per_micro,
            stats: RefCell::new(NetStats::default()),
            byte_class: RefCell::new(None),
        }
    }

    /// Sets (or clears, with `None`) the metrics counter name that every
    /// subsequently sent byte is *additionally* charged to while the
    /// metrics registry is enabled. Executors use this to attribute
    /// traffic to query-path classes — e.g. `net.bytes.cache_hit_path`
    /// vs `net.bytes.cache_miss_path` — without touching each send site.
    pub fn set_byte_class(&self, class: Option<&'static str>) {
        *self.byte_class.borrow_mut() = class;
    }

    /// A convenient default: uniform 1 ms latency, ~12.5 bytes/µs
    /// (≈100 Mbit/s) — commodity LAN/WLAN numbers for the ad-hoc setting.
    pub fn lan() -> Self {
        Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5)
    }

    /// The configured link bandwidth in bytes per microsecond.
    pub fn bandwidth(&self) -> f64 {
        self.bytes_per_micro
    }

    /// The one-way latency between two nodes.
    pub fn latency(&self, from: NodeId, to: NodeId) -> SimTime {
        if from == to {
            SimTime::ZERO
        } else {
            self.latency.between(from, to)
        }
    }

    /// Transfer duration for a payload of `bytes` between two nodes
    /// (zero when local).
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: usize) -> SimTime {
        if from == to {
            return SimTime::ZERO;
        }
        let wire = (bytes as f64 / self.bytes_per_micro).ceil() as u64;
        self.latency(from, to) + SimTime::micros(wire)
    }

    /// Sends `bytes` from `from` to `to`, departing at `depart`. Returns
    /// the arrival time and records the message in the statistics.
    ///
    /// A same-node "send" is free and unrecorded: data that stays on a
    /// site does not cross the network.
    pub fn send(&self, from: NodeId, to: NodeId, bytes: usize, depart: SimTime) -> SimTime {
        if from == to {
            return depart;
        }
        let arrival = depart + self.transfer_time(from, to, bytes);
        self.stats.borrow_mut().record(from, to, bytes, arrival);
        // Observability: charge the active query trace (if any) and the
        // process-wide registry. Both are cheap no-ops when idle.
        rdfmesh_obs::charge_current(bytes as u64);
        let metrics = rdfmesh_obs::metrics();
        metrics.add("net.messages", 1);
        metrics.add("net.bytes", bytes as u64);
        metrics.observe("net.message_bytes", bytes as u64);
        if let Some(class) = *self.byte_class.borrow() {
            metrics.add(class, bytes as u64);
        }
        arrival
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> NetStats {
        self.stats.borrow().clone()
    }

    /// Clears the statistics (between experiment runs).
    pub fn reset(&self) {
        *self.stats.borrow_mut() = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn send_charges_latency_plus_wire_time() {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(2)), 10.0);
        // 1000 bytes at 10 B/us = 100 us wire time.
        let arrival = net.send(NodeId(1), NodeId(2), 1000, SimTime::ZERO);
        assert_eq!(arrival, SimTime(2100));
        let s = net.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.total_bytes, 1000);
    }

    #[test]
    fn local_send_is_free_and_unrecorded() {
        let net = Network::lan();
        let arrival = net.send(NodeId(3), NodeId(3), 1_000_000, SimTime(42));
        assert_eq!(arrival, SimTime(42));
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.stats().total_bytes, 0);
    }

    #[test]
    fn parallel_sends_overlap_but_bytes_add() {
        let net = Network::lan();
        let t0 = SimTime::ZERO;
        let a1 = net.send(NodeId(1), NodeId(2), 100, t0);
        let a2 = net.send(NodeId(1), NodeId(3), 100, t0);
        // Parallel fan-out: both arrive at the same time.
        assert_eq!(a1, a2);
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().total_bytes, 200);
        // A chain would serialize: same payloads, later completion.
        net.reset();
        let b1 = net.send(NodeId(1), NodeId(2), 100, t0);
        let b2 = net.send(NodeId(2), NodeId(3), 100, b1);
        assert!(b2 > a1);
    }

    #[test]
    fn reset_clears_everything() {
        let net = Network::lan();
        net.send(NodeId(1), NodeId(2), 10, SimTime::ZERO);
        net.reset();
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.stats().total_bytes, 0);
        assert!(net.stats().per_node.is_empty());
    }

    #[test]
    fn per_link_latency_model() {
        let mut links = HashMap::new();
        links.insert((NodeId(1), NodeId(2)), SimTime::millis(5));
        let net = Network::new(
            LatencyModel::PerLink { default: SimTime::millis(1), links },
            f64::INFINITY,
        );
        assert_eq!(net.latency(NodeId(1), NodeId(2)), SimTime::millis(5));
        assert_eq!(net.latency(NodeId(2), NodeId(1)), SimTime::millis(5)); // symmetric
        assert_eq!(net.latency(NodeId(1), NodeId(3)), SimTime::millis(1));
    }
}
