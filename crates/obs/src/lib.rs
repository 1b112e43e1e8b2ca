//! Query-lifecycle observability for rdfmesh: a span-based query tracer
//! and a process-wide metrics registry.
//!
//! The paper evaluates every strategy by exactly two quantities — total
//! inter-site bytes and response time (Sect. IV). This crate makes both
//! *decomposable*: a [`QueryTrace`] breaks them down over the Fig. 3
//! pipeline (parse → optimize → key resolution → shipping → local
//! execution → post-processing) with an exactness guarantee — per-phase
//! bytes and times **sum to the query totals exactly**, because every
//! wire charge lands on precisely one open span and time is attributed
//! by a monotone frontier clock.
//!
//! The [`metrics()`] registry is orthogonal: process-wide counters and
//! log-bucketed histograms accumulated across queries (index hops,
//! providers contacted, intermediate-solution sizes, dead-provider
//! timeouts, …). It is disabled by default; when disabled every
//! recording call is a single relaxed atomic load and a branch, so
//! instrumented hot paths pay no measurable cost.
//!
//! Both the trace and the registry export as a human-readable table and
//! as JSON lines. See `docs/OBSERVABILITY.md` for the full phase and
//! metric catalog with a worked end-to-end example.

#![warn(missing_docs)]

mod counters;
pub mod json;
mod metrics;
pub mod names;
mod trace;

pub use metrics::{metrics, Histogram, MetricsRegistry, Snapshot};
pub use trace::{
    advance_current, begin_current, charge_current, count_current, end_current, phase,
    set_current, with_current, PhaseBreakdown, QueryTrace, Span, SpanId, TraceGuard,
};
