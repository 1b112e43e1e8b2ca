//! # rdfmesh-net — network substrate
//!
//! Two substrates behind one set of node identities:
//!
//! * [`Network`] — a deterministic cost model charging every inter-site
//!   message `latency + bytes/bandwidth`, with per-node statistics. The
//!   distributed query executors run on this to measure the paper's two
//!   objectives (total inter-site bytes, response time) exactly.
//! * [`Cluster`] — one thread per node running the same protocols under
//!   real concurrency, over either of two wires: std's channels
//!   ([`Cluster::spawn`]) or framed TCP sockets
//!   ([`Cluster::spawn_loopback`], [`Cluster::bind`]), so nodes can also
//!   run as separate OS processes (`docs/DEPLOYMENT.md`). The `Outbox`
//!   contract and the [`FaultPlan`] are the same on both.
//!
//! Plus a small discrete-event [`Scheduler`] for churn experiments, the
//! one poison rule for locks ([`lock`], [`rlock`], [`wlock`]), and the
//! one socket under a deadline ([`DeadlineStream`]) that the wire's
//! reader and the HTTP endpoint share.

#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod latency;
pub mod network;
pub mod sched;
pub mod stats;
mod sync;
pub mod tcp;
pub mod time;

pub use cluster::{Cluster, ClusterStats, Envelope, Handler, Outbox};
pub use fault::FaultPlan;
pub use sync::{lock, rlock, wlock};
pub use tcp::{DeadlineStream, TcpCluster, TransportSnapshot, WireFault, WireMsg};
pub use latency::LatencyModel;
pub use network::{Network, NodeId};
pub use sched::Scheduler;
pub use stats::{NetStats, NodeTraffic};
pub use time::SimTime;
