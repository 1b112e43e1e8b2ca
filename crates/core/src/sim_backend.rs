//! [`MeshBackend`] over the deterministic simulated overlay.
//!
//! `SimBackend` owns everything the pre-IR engine did between "optimized
//! algebra in" and "final materialization out": cache-aware index
//! lookups, the three primitive shipping strategies, flooding, the ASK
//! probe, the range index, dead-provider timeouts and purges, join-site
//! selection, and materialization transfers. Every message that carries
//! a sub-query or solutions is charged to the simulated network at the
//! codec length of the [`LiveMsg`] frame the mesh sends for it — a
//! `SubQuerySol` or a `Solutions` — so a simulated byte is a mesh byte.
//! Executing an [`ExecPlan`](crate::ExecPlan) through this backend is
//! deterministic (locked by the `exec_golden` fixture in rdfmesh-bench).
//! A bind step's keyed round and a multiway round are the mesh's own
//! coordinator and storage roles, run over the simulated network by one
//! role runner (`run_round`). The primitive legs keep the paper's
//! topology (Basic fan-out, chains, the flood), which the mesh does not
//! all have; only their frames are the mesh's. What the mesh never sends
//! in the simulator's shape — Chord finger hops, ASK's bare ack — keeps
//! the fixed schedule of [`rdfmesh_overlay::wire`].

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use rdfmesh_cache::{QueryCache, ResultEntry};
use rdfmesh_net::{NodeId, Scheduler, SimTime, WireMsg};
use rdfmesh_obs::{names, phase, SpanId};
use rdfmesh_overlay::{wire, Located, Overlay, Provider};
use rdfmesh_rdf::{SharedStore, Term, TriplePattern, Variable};
use rdfmesh_sparql::{expr::Expression, Rows};

use crate::config::{DistStrategy, ExecConfig, JoinSiteStrategy, LiveConfig, PrimitiveStrategy};
use crate::engine::EngineError;
use crate::exec::{self, collect_patterns, Mat, MeshBackend, OpKind, PrimitiveOp};
use crate::live::{Action, CoordinatorCore, LiveMsg, LiveStorage, QueryId, SendKey};
use crate::planner::PatternRow;
use crate::provider;
use crate::stats::{LiveStats, LiveStatsSnapshot};

/// A sub-query as a storage node receives it (Fig. 3): the pattern and
/// the filter pushed to the source (Sect. IV-G).
#[derive(Clone, Copy)]
struct SubQuery<'q> {
    pattern: &'q TriplePattern,
    filter: Option<&'q Expression>,
}

impl SubQuery<'_> {
    /// The length of the [`LiveMsg::SubQuerySol`] frame the mesh ships
    /// the sub-query in. Its query id and return address are fixed-width,
    /// so their values do not change it.
    fn frame_len(&self) -> usize {
        let (qid, reply_to) = (QueryId(0), NodeId(0));
        let (pattern, filter) = (self.pattern.clone(), self.filter.cloned());
        let frame = LiveMsg::SubQuerySol { qid, pattern, filter, bound: None, reply_to };
        frame.encode_wire().len()
    }

    fn answer(&self, store: &SharedStore) -> Rows {
        store.with(|store| provider::answer(store, self.pattern, self.filter, None).to_rows())
    }
}

/// The length of the [`LiveMsg::SubQuerySol`] frame that ships `pattern`
/// and its pushed `filter` to a provider.
pub(crate) fn subquery_len(pattern: &TriplePattern, filter: Option<&Expression>) -> usize {
    SubQuery { pattern, filter }.frame_len()
}

/// What a chain hop's forwarding list adds to it: 8 B per provider on
/// the list. The mesh has no chain frame to take this length from.
pub(crate) fn forwarding_list_len(providers: usize) -> usize {
    8 * providers
}

/// The length of the [`LiveMsg::Solutions`] frame that ships `rows`. The
/// batch is lent to the frame for the encoding and handed back.
pub(crate) fn solutions_len(rows: &mut Rows) -> usize {
    let frame = LiveMsg::Solutions { qid: QueryId(0), solutions: std::mem::take(rows) };
    let len = frame.encode_wire().len();
    let LiveMsg::Solutions { solutions, .. } = frame else { unreachable!("built above") };
    *rows = solutions;
    len
}

/// What the sender of an [`SimBackend::exchange`] gets back, which is
/// what decides how the reply leg is priced.
#[derive(Clone, Copy)]
enum Reply {
    /// The node's solutions, shipped to the named node.
    Solutions(NodeId),
    /// A bare ack to the named node: an ASK probe, whose witnesses are
    /// not intermediate results.
    Ack(NodeId),
    /// Nothing: the solutions ride on with the next chain hop.
    Forwarded,
}

/// Which lookup leg [`SimBackend::resolve`] runs: who asks the two-level
/// index, through which key, and whether the answer waits on it.
#[derive(Clone, Copy)]
enum Leg<'q> {
    /// A sub-query leaving the initiator with the filter pushed to its
    /// sources: a storage-node initiator first forwards it to its entry
    /// index node, which fans the filtered sub-query out.
    Primitive(Option<&'q Expression>),
    /// The same through the numeric range index: the providers of the
    /// buckets overlapping `[lo, hi]` under the predicate, the bounding
    /// filter shipped.
    Range(&'q Term, f64, f64, &'q Expression),
    /// A role-run round's lookup, sent by the coordinator to its entry
    /// index node: nothing to forward.
    Step,
    /// The planner reading statistics: the row in the dataset, and no step
    /// of the answer's key resolution.
    Statistics,
}

/// What a lookup leg found.
enum Resolved {
    /// The key's location-table row, where and when it was read.
    Row(Located),
    /// No key — the all-variable pattern: callers flood, from when the
    /// sub-query stood at the entry node.
    Keyless(SimTime),
}

/// The answer to a pattern no provider in the dataset holds: empty, at
/// the index node that said so.
fn nowhere(located: &Located) -> Mat {
    Mat { solutions: Rows::new(), site: located.index_node, ready: located.arrival }
}

fn shipping_span(label: &str, at: SimTime) -> Option<SpanId> {
    rdfmesh_obs::begin_current(phase::SHIPPING, label, at.0)
}

/// A role-run round's lookup and overall deadlines, in simulated time:
/// far enough that a lossless simulated network always answers first —
/// a backstop, not a knob.
const BACKSTOP: Duration = Duration::from_secs(3600);

/// Whether `msg` is addressed to the storage role (every [`LiveMsg`] has
/// exactly one recipient role; the index answers `Lookup`, the
/// coordinator everything else).
fn for_storage(msg: &LiveMsg) -> bool {
    matches!(
        msg,
        LiveMsg::SubQuerySol { .. }
            | LiveMsg::ShuffleExec { .. }
            | LiveMsg::ShufflePart { .. }
            | LiveMsg::PartialExec { .. }
            | LiveMsg::MultiDone { .. }
    )
}

/// The simulated-overlay backend: executes plan operators against the
/// in-process [`Overlay`], charging all traffic to its virtual network.
///
/// Borrows the overlay mutably so it can purge stale index entries when
/// storage nodes time out (Sect. III-D).
pub struct SimBackend<'a> {
    pub(crate) overlay: &'a mut Overlay,
    pub(crate) cfg: ExecConfig,
    pub(crate) initiator: NodeId,
    /// `FROM` clause of the running query: when non-empty, only storage
    /// nodes publishing one of these graph IRIs belong to the dataset
    /// (Sect. IV-A). Empty = the union of all providers.
    pub(crate) dataset_graphs: Vec<rdfmesh_rdf::Iri>,
    /// The initiator's cache stack, when attached. `None` reproduces the
    /// uncached engine exactly.
    pub(crate) cache: Option<&'a mut QueryCache>,
}

impl<'a> SimBackend<'a> {
    /// Creates a backend over the overlay with the given configuration.
    pub fn new(overlay: &'a mut Overlay, cfg: ExecConfig) -> Self {
        SimBackend {
            overlay,
            cfg,
            initiator: NodeId(0),
            dataset_graphs: Vec::new(),
            cache: None,
        }
    }

    /// Like [`SimBackend::new`], but with the initiator's [`QueryCache`]
    /// attached (see `Engine::with_cache`).
    pub fn with_cache(
        overlay: &'a mut Overlay,
        cfg: ExecConfig,
        cache: &'a mut QueryCache,
    ) -> Self {
        SimBackend { cache: Some(cache), ..SimBackend::new(overlay, cfg) }
    }

    // ---- the query's counters -------------------------------------------
    //
    // Each count goes to the query's trace, the simulator's only record of
    // what a query cost (see `QueryStats::from_trace`), and is mirrored into
    // the process-wide registry.

    fn note_provider_contacted(&mut self) {
        rdfmesh_obs::count_current("providers_contacted", 1);
        let metrics = rdfmesh_obs::metrics();
        metrics.add("engine.providers_contacted", 1);
        metrics.add(
            match self.cfg.primitive {
                PrimitiveStrategy::Basic => "engine.subqueries.basic",
                PrimitiveStrategy::Chained => "engine.subqueries.chained",
                PrimitiveStrategy::FrequencyOrdered => "engine.subqueries.frequency_ordered",
            },
            1,
        );
    }

    /// Forwards a sub-query from a storage-node initiator to its entry
    /// index node (one `SubQuerySol` frame, filter included), under a
    /// shipping span. An index-node initiator is its own entry and
    /// forwards nothing.
    fn forward_to_entry(&mut self, entry: NodeId, sub: SubQuery<'_>, depart: SimTime) -> SimTime {
        if entry == self.initiator {
            return depart;
        }
        let span = shipping_span(&format!("forward {} -> {}", self.initiator, entry), depart);
        let t = self.overlay.net.send(self.initiator, entry, sub.frame_len(), depart);
        self.close_shipping(span, t, &[]);
        t
    }

    fn note_intermediates(&mut self, n: usize) {
        rdfmesh_obs::count_current("intermediate_solutions", n as u64);
        rdfmesh_obs::metrics().observe("engine.intermediate_solutions", n as u64);
    }

    /// Records local query execution at a storage node as a zero-width
    /// span: the simulator charges no compute time for local matching, so
    /// the span marks the event (which node, how many solutions) without
    /// moving the clock or claiming bytes.
    fn note_local_exec(&self, node: NodeId, solutions: usize, at: SimTime) {
        let span = rdfmesh_obs::begin_current(
            phase::LOCAL_EXEC,
            &format!("{node}: {solutions} solutions"),
            at.0,
        );
        rdfmesh_obs::end_current(span, at.0);
    }

    /// Ends a shipping span at `at`, advances the frontier there, and
    /// purges the providers that missed their ack inside it.
    fn close_shipping(&mut self, span: Option<SpanId>, at: SimTime, dead: &[NodeId]) {
        rdfmesh_obs::end_current(span, at.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, at.0);
        self.handle_dead(dead);
    }

    /// One sub-query to one storage node, priced. The request is charged
    /// and the contact counted; a live node runs `work` on its store and
    /// its `reply` is charged — solutions as their `Solutions` frame; a
    /// dead one costs the sender the query-ack timeout (Sect. III-D).
    /// Returns what the node computed — `None` when it is dead, for the
    /// caller to purge — and when the sender holds the reply or gives up
    /// on it.
    fn exchange(
        &mut self,
        (from, to): (NodeId, NodeId),
        bytes: usize,
        depart: SimTime,
        reply: Reply,
        work: impl FnOnce(&SharedStore) -> Rows,
    ) -> (Option<Rows>, SimTime) {
        let sent = self.contact((from, to), bytes, depart);
        let Some(node) = self.overlay.storage_node(to) else {
            return (None, sent + self.cfg.ack_timeout);
        };
        let mut rows = work(&node.store);
        self.note_local_exec(to, rows.len(), sent);
        let done = match reply {
            Reply::Ack(back) => self.overlay.net.send(to, back, wire::ACK, sent),
            Reply::Forwarded => {
                self.note_intermediates(rows.len());
                sent
            }
            Reply::Solutions(back) => {
                self.note_intermediates(rows.len());
                self.overlay.net.send(to, back, solutions_len(&mut rows), sent)
            }
        };
        (Some(rows), done)
    }

    /// One frame to storage node `to`, charged, and the contact counted.
    fn contact(&mut self, (from, to): (NodeId, NodeId), bytes: usize, depart: SimTime) -> SimTime {
        self.note_provider_contacted();
        self.overlay.net.send(from, to, bytes, depart)
    }

    pub(crate) fn check_initiator(&self, addr: NodeId) -> Result<(), EngineError> {
        if self.overlay.chord_id_of(addr).is_some() || self.overlay.is_storage_alive(addr) {
            Ok(())
        } else {
            Err(EngineError::UnknownInitiator(addr))
        }
    }

    /// The planner's statistics pass: every triple pattern of the query
    /// with its location-table row's frequencies in the query's dataset —
    /// `None` for the keyless pattern — each row read once. The reads are
    /// charged: statistics live at remote index nodes.
    pub(crate) fn statistics(
        &mut self,
        pattern: &rdfmesh_sparql::GraphPattern,
    ) -> Result<Vec<PatternRow>, EngineError> {
        let mut tps = Vec::new();
        collect_patterns(pattern, &mut tps);
        let mut rows = Vec::with_capacity(tps.len());
        for tp in tps {
            let row = match self.resolve(&tp, SimTime::ZERO, Leg::Statistics)? {
                Resolved::Row(row) => Some(row.providers.iter().map(|p| p.frequency).collect()),
                Resolved::Keyless(_) => None,
            };
            rows.push((tp, row));
        }
        Ok(rows)
    }

    /// The index node through which `addr` reaches the ring: itself if it
    /// is an index node, otherwise the index node it is attached to (one
    /// charged hop).
    pub(crate) fn entry_index(&self, addr: NodeId) -> Result<NodeId, EngineError> {
        if self.overlay.chord_id_of(addr).is_some() {
            return Ok(addr);
        }
        let storage = self
            .overlay
            .storage_node(addr)
            .ok_or(EngineError::UnknownInitiator(addr))?;
        self.overlay
            .addr_of(storage.attached_to)
            .ok_or(EngineError::UnknownInitiator(addr))
    }

    /// The lookup leg of Fig. 2, for every caller: reach the entry index
    /// node (forwarding the sub-query there when the leg starts at a
    /// storage node), resolve the pattern's key to its location-table
    /// row through the cache stack, count the hops, keep the providers
    /// inside the dataset, and — unless the planner is only reading
    /// statistics — advance key resolution to the row's arrival.
    fn resolve(
        &mut self,
        pattern: &TriplePattern,
        depart: SimTime,
        leg: Leg<'_>,
    ) -> Result<Resolved, EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let depart = match leg {
            Leg::Primitive(filter) => {
                self.forward_to_entry(entry, SubQuery { pattern, filter }, depart)
            }
            Leg::Range(.., filter) => {
                self.forward_to_entry(entry, SubQuery { pattern, filter: Some(filter) }, depart)
            }
            Leg::Step | Leg::Statistics => depart,
        };
        let located = match leg {
            Leg::Range(predicate, lo, hi, _) => {
                self.overlay.locate_numeric_range(entry, predicate, lo, hi, depart)?
            }
            _ => self.locate_cached(entry, pattern, depart)?,
        };
        let Some(mut located) = located else { return Ok(Resolved::Keyless(depart)) };
        rdfmesh_obs::count_current("index_hops", located.hops as u64);
        if !matches!(leg, Leg::Statistics) {
            rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
        }
        located.providers.retain(|p| self.in_scope(p.node));
        Ok(Resolved::Row(located))
    }

    // ---- cache-aware index lookup (rdfmesh-cache) ----------------------

    /// Resolves providers for `pattern` like [`Overlay::locate`], but
    /// consults the attached cache stack first and fills it on a cold
    /// walk. A provider-set hit costs zero messages (the initiator's
    /// entry node fans sub-queries out itself); a routing hit costs one
    /// direct [`wire::LOOKUP_STEP`] message to the remembered owner
    /// instead of the O(log N) ring walk. Lookup traffic is classed as
    /// cache-hit vs cache-miss bytes in the metrics registry.
    fn locate_cached(
        &mut self,
        entry: NodeId,
        pattern: &TriplePattern,
        depart: SimTime,
    ) -> Result<Option<Located>, EngineError> {
        if self.cache.is_none() {
            return Ok(self.overlay.locate(entry, pattern, depart)?);
        }
        let Some(key) = self.overlay.index_key_for(pattern) else {
            // All-variable pattern: no key to cache under; callers flood.
            return Ok(None);
        };
        let epoch = self.overlay.ring_epoch();
        let version = self.overlay.key_version(key.id);
        let mut provider_hit = None;
        let mut route_hit = None;
        if let Some(cache) = self.cache.as_mut() {
            provider_hit = cache.lookup_providers(key.id, version, epoch);
            if provider_hit.is_none() {
                route_hit = cache.lookup_route(key.id, epoch);
            }
        }
        if let Some((_, providers)) = provider_hit {
            // Both index levels short-circuited: the initiator knows the
            // row, so sub-queries fan out from its own entry node.
            return Ok(Some(Located { key, index_node: entry, providers, hops: 0, arrival: depart }));
        }
        if let Some(owner) = route_hit {
            self.overlay.net.set_byte_class(Some(names::NET_BYTES_CACHE_HIT_PATH));
            let arrival = self.overlay.net.send(entry, owner, wire::LOOKUP_STEP, depart);
            self.overlay.net.set_byte_class(None);
            let providers = self.overlay.providers_for_key(owner, key.id);
            if let Some(cache) = self.cache.as_mut() {
                cache.store_providers(key.id, owner, providers.clone(), version, epoch);
            }
            let hops = usize::from(owner != entry);
            return Ok(Some(Located { key, index_node: owner, providers, hops, arrival }));
        }
        self.overlay.net.set_byte_class(Some(names::NET_BYTES_CACHE_MISS_PATH));
        let located = self.overlay.locate(entry, pattern, depart);
        self.overlay.net.set_byte_class(None);
        let located = located?;
        if let Some(loc) = &located {
            // The routing cache remembers the *authoritative* owner, not
            // a hot-replica holder the walk may have stopped at: a later
            // routing hit reads the row at the remembered node directly.
            let owner = self.overlay.owner_addr(key.id).unwrap_or(loc.index_node);
            if let Some(cache) = self.cache.as_mut() {
                cache.store_route(key.id, owner, epoch);
                cache.store_providers(key.id, loc.index_node, loc.providers.clone(), version, epoch);
            }
        }
        Ok(located)
    }

    /// Serves `pattern` from the result cache when a coherent entry
    /// exists: version and epoch must match and every provider recorded
    /// at fill time must still be alive (a cold query would lose a dead
    /// provider's solutions to a timeout, so a cached result that still
    /// counts them must not be served).
    fn result_cache_get(&mut self, pattern: &TriplePattern, depart: SimTime) -> Option<Mat> {
        let key = self.overlay.index_key_for(pattern)?;
        let version = self.overlay.key_version(key.id);
        let epoch = self.overlay.ring_epoch();
        let overlay = &*self.overlay;
        let cache = self.cache.as_mut()?;
        let solutions =
            cache.lookup_result(pattern, version, epoch, &|n| overlay.is_storage_alive(n))?;
        Some(Mat { solutions, site: self.initiator, ready: depart })
    }

    /// Offers a finished primitive materialization for result-cache
    /// admission. When admitted and the result lives elsewhere, the
    /// initiator pulls a private copy (one charged transfer, off the
    /// response-time critical path) so later hits serve locally.
    fn result_cache_store(&mut self, pattern: &TriplePattern, providers: &[NodeId], mat: &Mat) {
        let Some(key) = self.overlay.index_key_for(pattern) else { return };
        let version = self.overlay.key_version(key.id);
        let epoch = self.overlay.ring_epoch();
        // Record only providers still alive: dead ones were purged during
        // execution (and contributed nothing), so the snapshot's liveness
        // set matches what a cold re-run would contact.
        let alive: Vec<NodeId> = providers
            .iter()
            .copied()
            .filter(|n| self.overlay.is_storage_alive(*n))
            .collect();
        let mut solutions = mat.solutions.clone();
        let bytes = solutions_len(&mut solutions);
        let Some(cache) = self.cache.as_mut() else { return };
        let admitted = cache.store_result(
            pattern.clone(),
            ResultEntry {
                solutions,
                providers: alive,
                key: key.id,
                version,
                epoch,
                bytes,
            },
        );
        if admitted && mat.site != self.initiator {
            self.overlay.net.send(mat.site, self.initiator, bytes, mat.ready);
        }
    }

    // ---- primitive queries (Sect. IV-C) --------------------------------

    /// Evaluates a single triple pattern (with an optional source-side
    /// filter) across the network. `end_hint` asks chained strategies to
    /// end their provider sequence at the given site when it is itself a
    /// provider — the Sect. IV-D overlap optimization.
    pub(crate) fn primitive(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        depart: SimTime,
        end_hint: Option<NodeId>,
    ) -> Result<Mat, EngineError> {
        // Result-cache fast path: an unfiltered, dataset-free primitive
        // pattern may be answered entirely at the initiator.
        let cacheable =
            self.cache.is_some() && filter.is_none() && self.dataset_graphs.is_empty();
        if cacheable {
            if let Some(hit) = self.result_cache_get(pattern, depart) {
                self.note_intermediates(hit.solutions.len());
                return Ok(hit);
            }
        }
        let located = match self.resolve(pattern, depart, Leg::Primitive(filter))? {
            Resolved::Row(located) => located,
            Resolved::Keyless(at) => return self.flood(pattern, filter, at),
        };
        let found = located.providers.len() as u64;
        rdfmesh_obs::metrics().observe("engine.providers_per_pattern", found);
        if located.providers.is_empty() {
            return Ok(nowhere(&located));
        }
        let Located { index_node: assembly, arrival: t0, mut providers, .. } = located;

        let provider_nodes: Vec<NodeId> = providers.iter().map(|p| p.node).collect();
        let sub = SubQuery { pattern, filter };
        let mat = match self.cfg.primitive {
            PrimitiveStrategy::Basic => self.primitive_basic(sub, assembly, &providers, t0),
            PrimitiveStrategy::Chained => {
                providers.sort_by_key(|p| p.node);
                self.primitive_chain(sub, assembly, providers, t0, end_hint)
            }
            PrimitiveStrategy::FrequencyOrdered => {
                // Ascending frequency: the largest contributor is last, so
                // its contribution never transits (Sect. IV-C further
                // optimization).
                providers.sort_by_key(|p| (p.frequency, p.node));
                self.primitive_chain(sub, assembly, providers, t0, end_hint)
            }
        };
        if cacheable {
            self.result_cache_store(pattern, &provider_nodes, &mat);
        }
        Ok(mat)
    }

    /// Basic scheme: parallel fan-out from the assembly index node. The
    /// sub-query leaves `assembly` for every provider at `t0` and the
    /// answers gather there.
    fn primitive_basic(
        &mut self,
        sub: SubQuery<'_>,
        assembly: NodeId,
        providers: &[Provider],
        t0: SimTime,
    ) -> Mat {
        let span =
            shipping_span(&format!("basic fan-out to {} providers", providers.len()), t0);
        let legs: Vec<_> = providers.iter().map(|p| (assembly, p.node, t0)).collect();
        self.fan_out(span, sub, &legs, assembly, t0)
    }

    /// The parallel fan-out Basic and the flood share: `sub`, charged as
    /// its `SubQuerySol` frame, leaves on every `(from, to, depart)` leg,
    /// and each live node's answer is shipped to `back`, where the union
    /// gathers. Closes `span` when the last answer is in (never before
    /// `depart`), purging the nodes that never acked.
    fn fan_out(
        &mut self,
        span: Option<SpanId>,
        sub: SubQuery<'_>,
        legs: &[(NodeId, NodeId, SimTime)],
        back: NodeId,
        depart: SimTime,
    ) -> Mat {
        let bytes = sub.frame_len();
        let mut union = Rows::new();
        let mut ready = depart;
        let mut dead = Vec::new();
        for &(from, to, at) in legs {
            let reply = Reply::Solutions(back);
            let (rows, at) = self.exchange((from, to), bytes, at, reply, |s| sub.answer(s));
            ready = ready.max(at);
            match rows {
                Some(rows) => union.append(rows),
                None => dead.push(to),
            }
        }
        self.close_shipping(span, ready, &dead);
        Mat { solutions: union.distinct(), site: back, ready }
    }

    /// Chained schemes: the sub-query and accumulated mappings travel
    /// through the provider sequence, each provider adding its own
    /// solutions; the last node holds the result.
    fn primitive_chain(
        &mut self,
        sub: SubQuery<'_>,
        assembly: NodeId,
        mut providers: Vec<Provider>,
        t0: SimTime,
        end_hint: Option<NodeId>,
    ) -> Mat {
        // Overlap optimization: rotate the hinted site to the end of the
        // sequence so the join with the waiting materialization is local.
        if let Some(hint) = end_hint {
            if let Some(pos) = providers.iter().position(|p| p.node == hint) {
                let hinted = providers.remove(pos);
                providers.push(hinted);
            }
        }
        // The mesh has no chain frame. A hop is charged as the sub-query's
        // `SubQuerySol` frame, plus 8 B per provider on the forwarding
        // list, plus the `Solutions` frame of the accumulation so far.
        let bytes = sub.frame_len() + forwarding_list_len(providers.len());
        let span = shipping_span(&format!("chain through {} providers", providers.len()), t0);
        let mut acc = Rows::new();
        let (mut cursor, mut t) = (assembly, t0);
        let mut dead = Vec::new();
        for p in &providers {
            let payload = bytes + solutions_len(&mut acc);
            let (rows, at) =
                self.exchange((cursor, p.node), payload, t, Reply::Forwarded, |s| sub.answer(s));
            t = at;
            match rows {
                Some(rows) => {
                    acc.append(rows);
                    acc = acc.distinct();
                    cursor = p.node;
                }
                // The sender detects the missing ack and skips to the
                // next node in the list.
                None => dead.push(p.node),
            }
        }
        self.close_shipping(span, t, &dead);
        Mat { solutions: acc, site: cursor, ready: t }
    }

    /// Existence test for one pattern: providers are probed in
    /// descending-frequency order (most likely witness first) and probing
    /// stops at the first hit. Returns the answer and its arrival time at
    /// the initiator.
    pub(crate) fn ask_primitive(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
    ) -> Result<(bool, SimTime), EngineError> {
        let located = match self.resolve(pattern, SimTime::ZERO, Leg::Primitive(filter))? {
            Resolved::Row(located) => located,
            Resolved::Keyless(at) => {
                let mat = self.flood(pattern, filter, at)?;
                let mat = self.deliver(mat);
                return Ok((!mat.solutions.is_empty(), mat.ready));
            }
        };
        let Located { index_node: assembly, arrival, mut providers, .. } = located;
        providers.sort_by_key(|p| (std::cmp::Reverse(p.frequency), p.node));
        let sub = SubQuery { pattern, filter };
        let bytes = sub.frame_len();
        let span =
            shipping_span(&format!("ask probe of {} providers", providers.len()), arrival);
        let mut t = arrival;
        let mut dead = Vec::new();
        let mut answer = false;
        for p in &providers {
            let reply = Reply::Ack(assembly);
            let (rows, at) = self.exchange((assembly, p.node), bytes, t, reply, |s| sub.answer(s));
            t = at;
            match rows {
                // Witness found: its ack is back at the assembly, done.
                Some(rows) if !rows.is_empty() => {
                    answer = true;
                    break;
                }
                Some(_) => {}
                None => dead.push(p.node),
            }
        }
        self.handle_dead(&dead);
        let ready = self.overlay.net.send(assembly, self.initiator, wire::ACK, t);
        self.close_shipping(span, ready, &[]);
        Ok((answer, ready))
    }

    /// Attempts the range-index fast path: pattern `(?s, p, ?o)` with a
    /// filter bounding numeric `?o`. Returns `None` (fall back to the
    /// standard path) when the shape doesn't match or the overlay has no
    /// bucket index.
    fn try_primitive_range(
        &mut self,
        pattern: &TriplePattern,
        filter: &Expression,
        depart: SimTime,
    ) -> Result<Option<Mat>, EngineError> {
        let Some(buckets) = self.overlay.numeric_buckets() else { return Ok(None) };
        // Shape: bound predicate, variable object (subject may be either).
        let Some(predicate) = pattern.predicate.as_const() else { return Ok(None) };
        let Some(obj_var) = pattern.object.as_var() else { return Ok(None) };
        let Some((lo, hi)) = crate::exec::extract_numeric_range(filter, obj_var) else {
            return Ok(None);
        };
        let lo = lo.max(buckets.min);
        let hi = hi.min(buckets.max);
        if lo > hi {
            return Ok(Some(Mat {
                solutions: Rows::new(),
                site: self.initiator,
                ready: depart,
            }));
        }
        let leg = Leg::Range(predicate, lo, hi, filter);
        let Resolved::Row(located) = self.resolve(pattern, depart, leg)? else { return Ok(None) };
        if located.providers.is_empty() {
            return Ok(Some(nowhere(&located)));
        }
        // Basic-style fan-out with the filter shipped to the sources.
        let sub = SubQuery { pattern, filter: Some(filter) };
        let (assembly, t0) = (located.index_node, located.arrival);
        Ok(Some(self.primitive_basic(sub, assembly, &located.providers, t0)))
    }

    /// Flooding fallback for the all-variable pattern `(?s, ?p, ?o)`:
    /// every index node forwards the sub-query to its attached storage
    /// nodes in the dataset, and their answers assemble at the entry node.
    fn flood(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let sub = SubQuery { pattern, filter };
        let bytes = sub.frame_len();
        let span = shipping_span("flood all storage nodes", depart);
        let mut legs = Vec::new();
        for index in self.overlay.index_nodes() {
            let at_index = self.overlay.net.send(entry, index, bytes, depart);
            let Some(index_id) = self.overlay.chord_id_of(index) else { continue };
            for s in self.overlay.storage_nodes() {
                let attached = self.overlay.storage_node(s).map(|n| n.attached_to);
                if attached == Some(index_id) && self.in_scope(s) {
                    legs.push((index, s, at_index));
                }
            }
        }
        Ok(self.fan_out(span, sub, &legs, entry, depart))
    }

    /// Whether storage node `node` belongs to the query's dataset: every
    /// node does unless `FROM` clauses name graphs, then those publishing
    /// one of them (Sect. IV-A).
    fn in_scope(&self, node: NodeId) -> bool {
        self.dataset_graphs.is_empty()
            || self
                .overlay
                .storage_node(node)
                .and_then(|n| n.graph.as_ref())
                .is_some_and(|g| self.dataset_graphs.contains(g))
    }

    fn handle_dead(&mut self, dead: &[NodeId]) {
        let metrics = rdfmesh_obs::metrics();
        for &d in dead {
            rdfmesh_obs::count_current("dead_providers", 1);
            metrics.add("engine.dead_provider_timeouts", 1);
            self.overlay.purge_storage_entries(d);
        }
    }

    // ---- the role runner ------------------------------------------------

    /// One round of the mesh's own protocol, run rather than priced: the
    /// coordinator (`CoordinatorCore`, at the initiator, with its entry
    /// index node as index) takes `submit` — a bind step's keyed
    /// `SubmitSol` or a `SubmitMulti` — and it and one `LiveStorage` per
    /// peer play the round over the simulated network, in time order.
    /// Every frame is charged at its codec length and delivered when it
    /// arrives, every exec frame counts as a contact, and the coordinator
    /// is woken at each of its due times (`next_wake`), on the simulated
    /// clock. The overlay stands in for the index
    /// role: a `Lookup` is answered by `SimBackend::resolve` (Chord hops,
    /// replicas, cache and `FROM` scope included), with the overlay's own
    /// location-table frequencies, and the `Providers` reply travels from
    /// the index node that read the row. A frame to a dead storage node is
    /// charged and refused, and the coordinator hears of it as it hears of
    /// a crashed peer on the mesh, through `on_send_failed`; with no
    /// retries that peer is declared dead at once. Its `ProviderDead`
    /// notices go uncharged: the overlay is purged of every failed
    /// provider when the round finishes. The whole round is one shipping
    /// span, `label`; its lookups are key resolution.
    fn run_round(
        &mut self,
        submit: LiveMsg,
        label: &str,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        let me = self.initiator;
        let index = self.entry_index(me)?;
        let mut flood = self.overlay.storage_nodes();
        flood.retain(|s| self.in_scope(*s));
        flood.sort();
        let cfg = LiveConfig {
            ack_timeout: Duration::from_micros(self.cfg.ack_timeout.0),
            lookup_timeout: BACKSTOP,
            query_deadline: BACKSTOP,
            retries: 0,
            ..LiveConfig::default()
        };
        let stats = Arc::new(LiveStats::default());
        let (space, flood) = (self.overlay.ring().space(), Arc::new(RwLock::new(flood)));
        let mut coordinator =
            CoordinatorCore::new(me, index, cfg, space, flood, Arc::clone(&stats));
        let mut storages: HashMap<NodeId, LiveStorage> = HashMap::new();
        // A frame `(from, to, msg)`, or `None`: the coordinator's wake-up.
        let mut events = Scheduler::new();
        events.schedule_at(depart, Some((me, me, submit)));
        let span = shipping_span(label, depart);
        // The latest lookup answer: the round cannot be ready earlier.
        let mut resolved = depart;
        // The due time the latest wake-up was scheduled for.
        let mut armed = None;
        loop {
            let (now, event) = events.next().expect("the overall deadline finishes every round");
            let clock = Duration::from_micros(now.0);
            // Dispatch by variant, not address: the initiator may be a peer.
            let (actor, coordinating, actions) = match event {
                None => (me, true, coordinator.on_wake(clock)),
                Some((_, _, LiveMsg::Lookup { qid, pattern, reply_to })) => {
                    let Resolved::Row(row) = self.resolve(&pattern, now, Leg::Step)? else {
                        unreachable!("the coordinator floods a keyless pattern, looking nothing up")
                    };
                    let providers = row.providers.iter().map(|p| (p.node, p.frequency)).collect();
                    let answer = LiveMsg::Providers { qid, pattern, providers };
                    let bytes = answer.encode_wire().len();
                    let at = self.overlay.net.send(row.index_node, reply_to, bytes, row.arrival);
                    resolved = resolved.max(at);
                    events.schedule_at(at, Some((row.index_node, reply_to, answer)));
                    continue;
                }
                Some((from, to, msg)) if for_storage(&msg) => {
                    let store = &self.overlay.storage_node(to).expect("refused when dead").store;
                    let node = storages.entry(to).or_insert_with(|| {
                        LiveStorage::new(to, store.clone(), Arc::clone(&stats))
                    });
                    (to, false, node.on_event(from, msg))
                }
                Some((from, _, msg)) => (me, true, coordinator.on_event(clock, from, msg)),
            };
            let mut actions = VecDeque::from(actions);
            while let Some(action) = actions.pop_front() {
                let (to, msg, bytes) = match action {
                    // Uncharged: the overlay purges every failed provider
                    // when the round finishes.
                    Action::Send { msg: LiveMsg::ProviderDead { .. }, .. } => continue,
                    Action::Send { to, msg } => {
                        let bytes = msg.encode_wire().len();
                        (to, msg, bytes)
                    }
                    // What the storage role wrote is what it is charged.
                    Action::SendEncoded { to, frame } => {
                        let msg = LiveMsg::decode_wire(&frame).expect("a role's own frame decodes");
                        (to, msg, frame.len())
                    }
                    Action::Finish { answer, .. } => {
                        let LiveStatsSnapshot { solutions_shipped, shuffle_parts, .. } =
                            stats.snapshot();
                        self.note_intermediates((solutions_shipped + shuffle_parts) as usize);
                        let ready = resolved.max(now);
                        self.close_shipping(span, ready, &answer.failed_providers);
                        return Ok(Mat { solutions: answer.solutions, site: me, ready });
                    }
                };
                let arrival = match msg {
                    LiveMsg::SubQuerySol { .. }
                    | LiveMsg::ShuffleExec { .. }
                    | LiveMsg::PartialExec { .. } => self.contact((actor, to), bytes, now),
                    _ => self.overlay.net.send(actor, to, bytes, now),
                };
                // A dead storage node refuses the frame, as a
                // crashed peer's transport does on the mesh.
                if !for_storage(&msg) || self.overlay.is_storage_alive(to) {
                    events.schedule_at(arrival, Some((actor, to, msg)));
                } else if coordinating {
                    let failed = coordinator.on_send_failed(clock, to, SendKey::of(&msg));
                    actions.extend(failed);
                }
            }
            if let Some(due) = coordinator.next_wake().filter(|due| armed != Some(*due)) {
                armed = Some(due);
                events.schedule_at(SimTime(due.as_micros() as u64), None);
            }
        }
    }

    // ---- binary operations & join site selection (Sect. II, IV-E/F) ----

    /// Applies the configured join-site strategy, sizing each operand as
    /// the `Solutions` frame it would be shipped in.
    fn select_site(&self, op: &OpKind, left: &mut Mat, right: &mut Mat) -> NodeId {
        if left.site == right.site {
            return left.site; // shared node: the Sect. IV-F free case
        }
        match self.cfg.join_site {
            JoinSiteStrategy::QuerySite => self.initiator,
            JoinSiteStrategy::MoveSmall => {
                // Ship the smaller solution set to the larger one's site.
                // Left joins compare sizes too, as Sect. IV-E says: the
                // mandatory side is not moved for free.
                if solutions_len(&mut left.solutions) >= solutions_len(&mut right.solutions) {
                    left.site
                } else {
                    right.site
                }
            }
            JoinSiteStrategy::ThirdSite => {
                // Candidates: both operand sites and the query site; pick
                // the one minimizing the time until the join's output is
                // home: the slower operand's trip in, then the output's
                // trip to the initiator (sized by joining here, as the
                // site will).
                let lb = solutions_len(&mut left.solutions);
                let rb = solutions_len(&mut right.solutions);
                let mut output = op.apply(left.solutions.clone(), right.solutions.clone());
                let ob = solutions_len(&mut output);
                let transfer = |from: NodeId, to: NodeId, bytes| match from == to {
                    true => SimTime::ZERO,
                    false => self.overlay.net.transfer_time(from, to, bytes),
                };
                let candidates = [left.site, right.site, self.initiator];
                *candidates
                    .iter()
                    .min_by_key(|&&c| {
                        let (lt, rt) = (transfer(left.site, c, lb), transfer(right.site, c, rb));
                        let home = transfer(c, self.initiator, ob);
                        (lt.max(rt) + home, lt + rt + home, c.0)
                    })
                    .expect("non-empty candidates")
            }
        }
    }

    /// Moves a materialization to `site`, charging its `Solutions` frame.
    fn ship(&mut self, mut mat: Mat, site: NodeId) -> Mat {
        if mat.site == site {
            return mat;
        }
        let bytes = solutions_len(&mut mat.solutions);
        let label = format!("ship {} solutions {} -> {}", mat.solutions.len(), mat.site, site);
        let span = shipping_span(&label, mat.ready);
        let ready = self.overlay.net.send(mat.site, site, bytes, mat.ready);
        self.close_shipping(span, ready, &[]);
        Mat { solutions: mat.solutions, site, ready }
    }
}

// Result accumulation: the dataset of an unscoped query is "the union of
// all triples stored in all storage nodes" (Sect. IV-A) — a *set* — so
// identical solutions arising from triples replicated at several
// providers collapse. That deduplication (the in-network aggregation
// benefit of the chained schemes, footnote 13) is `Rows::distinct`, a
// first-seen-order filter over the batch's id cells.

impl<'a> MeshBackend for SimBackend<'a> {
    type Error = EngineError;

    fn home(&self) -> NodeId {
        self.initiator
    }

    fn exec_primitive(
        &mut self,
        op: &PrimitiveOp,
        depart: SimTime,
        hint: Option<NodeId>,
        use_range: bool,
    ) -> Result<Mat, EngineError> {
        if use_range && op.try_range {
            if let Some(filter) = &op.filter {
                // Range-index fast path: a numeric range over the object
                // variable contacts only the overlapping buckets'
                // providers.
                if let Some(mat) = self.try_primitive_range(&op.pattern, filter, depart)? {
                    return Ok(mat);
                }
            }
        }
        self.primitive(&op.pattern, op.filter.as_ref(), depart, hint)
    }

    /// The shared bind step, as the mesh takes it: the intermediate moves
    /// to the initiator, whose coordinator keeps the rows, and the keyed
    /// round is the roles' (`run_round`).
    fn exec_bound(&mut self, pattern: &TriplePattern, current: Mat) -> Result<Mat, EngineError> {
        let current = self.deliver(current);
        exec::bind_step(pattern, current.solutions, |keys| {
            let (qid, pattern, bound) = (QueryId(0), pattern.clone(), Some(keys));
            let submit = LiveMsg::SubmitSol { qid, pattern, filter: None, bound };
            self.run_round(submit, "bind-step round", current.ready)
        })
    }

    fn exec_binary(&mut self, op: &OpKind, mut left: Mat, mut right: Mat) -> Mat {
        let site = self.select_site(op, &mut left, &mut right);
        let (l, r) = (self.ship(left, site), self.ship(right, site));
        let ready = l.ready.max(r.ready);
        let solutions = op.apply(l.solutions, r.solutions);
        self.note_intermediates(solutions.len());
        Mat { solutions, site, ready }
    }

    /// One-round multiway BGP join (the [`crate::exec::ExecNode::MultiJoin`]
    /// operator), run on the mesh's roles (`run_round`), not priced.
    fn exec_multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        let (patterns, join_vars) = (patterns.to_vec(), join_vars.to_vec());
        let submit = LiveMsg::SubmitMulti { qid: QueryId(0), patterns, join_vars, strategy };
        self.run_round(submit, &format!("{strategy} round"), depart)
    }

    /// The runtime half of the Sect. IV-D/IV-F site optimization: locate
    /// both patterns' providers (charged lookups) and pick the common
    /// provider with the largest combined frequency, mirroring the
    /// paper's preference for the node with the most target triples
    /// ("either D1 or D2 can be selected as the storage node at which the
    /// final result is generated"). The compile-time guards (overlap
    /// awareness, both operands single primitives) live in
    /// `planner::compile`.
    fn exec_common_site(
        &mut self,
        ta: &TriplePattern,
        tb: &TriplePattern,
    ) -> Result<Option<NodeId>, EngineError> {
        let Resolved::Row(la) = self.resolve(ta, SimTime::ZERO, Leg::Statistics)? else {
            return Ok(None);
        };
        let Resolved::Row(lb) = self.resolve(tb, SimTime::ZERO, Leg::Statistics)? else {
            return Ok(None);
        };
        let mut best: Option<(u64, NodeId)> = None;
        for pa in &la.providers {
            if let Some(pb) = lb.providers.iter().find(|pb| pb.node == pa.node) {
                let combined = pa.frequency + pb.frequency;
                if best.is_none_or(|(f, _)| combined > f) {
                    best = Some((combined, pa.node));
                }
            }
        }
        Ok(best.map(|(_, node)| node))
    }

    fn deliver(&mut self, mat: Mat) -> Mat {
        self.ship(mat, self.initiator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::{LatencyModel, Network};
    use rdfmesh_rdf::{TermPattern, Triple};
    use rdfmesh_sparql::expr::wire::put_expr;

    const INDEX: NodeId = NodeId(1000);
    /// Three providers of `foaf:knows`, and a storage node holding only
    /// names, which no `knows` leg involves.
    const PROVIDERS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];
    const BYSTANDER: NodeId = NodeId(4);

    fn person(n: usize) -> Term {
        Term::iri(&format!("http://example.org/person/{n}"))
    }

    fn knows() -> Term {
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS)
    }

    fn overlay() -> Overlay {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
        let mut o = Overlay::new(32, 4, 2, net);
        for i in 0..3 {
            let addr = NodeId(INDEX.0 + i);
            let pos = o.ring().space().hash(&addr.0.to_be_bytes());
            o.add_index_node(addr, pos).unwrap();
        }
        // Provider i knows persons i+1..=i+3, and every provider holds
        // `person 0 knows person 1`, so a chain's deduplication has work
        // to do.
        for (i, &p) in PROVIDERS.iter().enumerate() {
            let triples: Vec<Triple> = (0..3)
                .map(|j| Triple::new(person(i), knows(), person(i + j + 1)))
                .chain([Triple::new(person(0), knows(), person(1))])
                .collect();
            o.add_storage_node(p, NodeId(INDEX.0 + i as u64), triples).unwrap();
        }
        let name = Term::iri(rdfmesh_rdf::vocab::foaf::NAME);
        let names = vec![Triple::new(person(9), name, Term::literal("Nine"))];
        o.add_storage_node(BYSTANDER, INDEX, names).unwrap();
        o
    }

    fn knows_pattern() -> TriplePattern {
        TriplePattern::new(TermPattern::var("x"), knows(), TermPattern::var("y"))
    }

    fn backend(o: &mut Overlay, primitive: PrimitiveStrategy) -> SimBackend<'_> {
        o.net.reset();
        let mut sim = SimBackend::new(o, ExecConfig { primitive, ..ExecConfig::default() });
        sim.initiator = INDEX;
        sim
    }

    /// `pattern`'s primitive leg under `primitive`, from an index node.
    fn gather(o: &mut Overlay, primitive: PrimitiveStrategy, pattern: &TriplePattern) -> Mat {
        backend(o, primitive).primitive(pattern, None, SimTime::ZERO, None).unwrap()
    }

    /// What the mesh's storage role at `node` is sent for `request` and
    /// sends back, both at their codec length, and the rows it answers.
    fn mesh_leg(o: &Overlay, node: NodeId, request: LiveMsg) -> (usize, usize, Rows) {
        let store = o.storage_node(node).unwrap().store.clone();
        let mut storage = LiveStorage::new(node, store, Arc::new(LiveStats::default()));
        let sent = request.encode_wire().len();
        let actions = storage.on_event(INDEX, request);
        let [Action::SendEncoded { frame, .. }] = &actions[..] else {
            panic!("one encoded frame, got {actions:?}")
        };
        let Ok(LiveMsg::Solutions { solutions, .. }) = LiveMsg::decode_wire(frame) else {
            panic!("a Solutions frame")
        };
        (sent, frame.len(), solutions)
    }

    fn bare(pattern: &TriplePattern, filter: Option<&Expression>) -> LiveMsg {
        let (pattern, filter) = (pattern.clone(), filter.cloned());
        LiveMsg::SubQuerySol { qid: QueryId(7), pattern, filter, bound: None, reply_to: INDEX }
    }

    /// (bytes in, bytes out) of `node` on the simulated network.
    fn traffic(o: &Overlay, node: NodeId) -> (usize, usize) {
        let t = o.net.stats().per_node.get(&node).copied().unwrap_or_default();
        (t.bytes_in as usize, t.bytes_out as usize)
    }

    #[test]
    fn a_basic_gather_charges_the_mesh_frames() {
        let mut o = overlay();
        gather(&mut o, PrimitiveStrategy::Basic, &knows_pattern());
        for p in PROVIDERS {
            let (sent, reply, _) = mesh_leg(&o, p, bare(&knows_pattern(), None));
            assert_eq!(traffic(&o, p), (sent, reply), "provider {p}");
        }
    }

    #[test]
    fn a_chain_hop_charges_the_sub_query_the_forwarding_list_and_the_accumulation() {
        let mut o = overlay();
        gather(&mut o, PrimitiveStrategy::Chained, &knows_pattern());
        // Chained visits the providers in node order.
        let mut acc = Rows::new();
        for p in PROVIDERS {
            let (sent, _, rows) = mesh_leg(&o, p, bare(&knows_pattern(), None));
            let carried = LiveMsg::Solutions { qid: QueryId(7), solutions: acc.clone() };
            let hop = sent + 8 * PROVIDERS.len() + carried.encode_wire().len();
            assert_eq!(traffic(&o, p).0, hop, "hop into provider {p}");
            acc.append(rows);
            acc = acc.distinct();
        }
    }

    #[test]
    fn a_flood_charges_the_mesh_frames() {
        let mut o = overlay();
        let (s, p, obj) = (TermPattern::var("s"), TermPattern::var("p"), TermPattern::var("o"));
        let all = TriplePattern::new(s, p, obj);
        let mat = gather(&mut o, PrimitiveStrategy::Basic, &all);
        assert_eq!(mat.solutions.len(), 3 * 3 + 1, "every distinct triple, flooded");
        for p in PROVIDERS.into_iter().chain([BYSTANDER]) {
            let (sent, reply, _) = mesh_leg(&o, p, bare(&all, None));
            assert_eq!(traffic(&o, p), (sent, reply), "storage node {p}");
        }
    }

    #[test]
    fn a_ship_charges_the_solutions_frame() {
        let mut o = overlay();
        let (_, reply, rows) = mesh_leg(&o, PROVIDERS[1], bare(&knows_pattern(), None));
        let mat = Mat { solutions: rows, site: PROVIDERS[1], ready: SimTime::ZERO };
        let shipped = backend(&mut o, PrimitiveStrategy::Basic).ship(mat, PROVIDERS[2]);
        assert_eq!(shipped.site, PROVIDERS[2]);
        assert_eq!(traffic(&o, PROVIDERS[1]), (0, reply));
        assert_eq!(o.net.stats().messages, 1);
    }

    #[test]
    fn a_keyed_round_charges_the_mesh_frames() {
        let mut o = overlay();
        // One key against providers holding three or four `knows`
        // triples each: move-small sends every provider the key.
        let x = Variable::new("x");
        let mut keys = Rows::new();
        keys.push_bindings([(&x, &person(0))]);
        let current = Mat { solutions: keys.clone(), site: INDEX, ready: SimTime::ZERO };
        let mut sim = backend(&mut o, PrimitiveStrategy::Basic);
        sim.exec_bound(&knows_pattern(), current).unwrap();
        for p in PROVIDERS {
            let bound = Some(keys.to_solutions());
            let request = LiveMsg::SubQuerySol {
                qid: QueryId(7),
                pattern: knows_pattern(),
                filter: None,
                bound,
                reply_to: INDEX,
            };
            let (sent, reply, _) = mesh_leg(&o, p, request);
            assert_eq!(traffic(&o, p), (sent, reply), "provider {p}");
        }
    }

    #[test]
    fn the_forward_hop_carries_the_pushed_filter() {
        let mut o = overlay();
        let filter = Expression::Bound(Variable::new("y"));
        let mut forward = |filter: Option<&Expression>| {
            let mut sim = backend(&mut o, PrimitiveStrategy::Basic);
            sim.initiator = BYSTANDER;
            sim.primitive(&knows_pattern(), filter, SimTime::ZERO, None).unwrap();
            traffic(&o, BYSTANDER).1
        };
        let (bare, filtered) = (forward(None), forward(Some(&filter)));
        let mut encoded = Vec::new();
        put_expr(&mut encoded, &filter);
        assert_eq!(filtered, bare + encoded.len());
    }
}
