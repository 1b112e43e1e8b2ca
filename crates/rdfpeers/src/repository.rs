//! The RDFPeers repository (Cai & Frank, WWW 2004).
//!
//! The baseline the paper differentiates itself from: a *storage*
//! network, not a location index. Every shared triple is **moved onto
//! the ring** and stored at three places — the successors of `hash(s)`,
//! `hash(p)` and `hash(o)` — so the node answering a query holds the
//! matching triples itself. Numeric objects hash with the
//! locality-preserving function so value ranges occupy contiguous arcs.
//!
//! Implemented against the same Chord substrate and network cost model
//! as the hybrid overlay, so §E12 can compare the two architectures
//! byte-for-byte: an answer is charged as the solution set the mesh's
//! `Solutions` frames carry ([`rdfmesh_sparql::solution::wire`]). Triples
//! moving onto, around and off the ring — which the hybrid design never
//! does — are charged at their N-Triples length.

use std::collections::BTreeMap;

use rdfmesh_chord::{ChordRing, Id, RingError};
use rdfmesh_net::{Network, NodeId, SimTime};
use rdfmesh_rdf::{Literal, SharedStore, Term, TermPattern, Triple, TriplePattern, TripleRef};
use rdfmesh_sparql::{solution::wire, Rows};

use crate::lphash::LocalityHash;

/// Cost of publishing triples into the repository.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Ring routing messages.
    pub routing_messages: usize,
    /// Total bytes shipped (routing + the triples themselves, ×3 copies).
    pub bytes: u64,
    /// Triple copies stored on ring nodes.
    pub stored_copies: usize,
}

/// Result of a query, with its routing cost.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Matching triples (deduplicated).
    pub matches: Vec<Triple>,
    /// Ring hops taken.
    pub hops: usize,
    /// Simulated completion time at the initiator.
    pub finished: SimTime,
}

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfPeersError {
    /// Underlying ring failure.
    Ring(RingError),
    /// The address does not name a ring member.
    UnknownNode(NodeId),
    /// The pattern has no bound attribute to route on.
    Unroutable,
}

impl From<RingError> for RdfPeersError {
    fn from(e: RingError) -> Self {
        RdfPeersError::Ring(e)
    }
}

impl std::fmt::Display for RdfPeersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdfPeersError::Ring(e) => write!(f, "ring error: {e}"),
            RdfPeersError::UnknownNode(n) => write!(f, "unknown node {n}"),
            RdfPeersError::Unroutable => write!(f, "pattern has no bound attribute"),
        }
    }
}

impl std::error::Error for RdfPeersError {}

const LOOKUP_STEP: usize = 48;
const CANDIDATE_BYTES: usize = 40;

/// The bytes of `matches` shipped as an answer: the encoded solution set
/// of the bindings `pattern`'s variables take in them, as a `Solutions`
/// frame of the mesh carries it.
fn answer_bytes(pattern: &TriplePattern, matches: &[Triple]) -> usize {
    let mut rows = Rows::new();
    for t in matches {
        let positions = [
            (&pattern.subject, &t.subject),
            (&pattern.predicate, &t.predicate),
            (&pattern.object, &t.object),
        ];
        let bindings = positions.into_iter().filter_map(|(tp, term)| Some((tp.as_var()?, term)));
        rows.push_bindings(bindings);
    }
    wire::rows_encoded_len(&rows)
}

/// The DHT-resident RDF repository.
#[derive(Debug)]
pub struct RdfPeers {
    ring: ChordRing,
    addr: BTreeMap<Id, NodeId>,
    stores: BTreeMap<Id, SharedStore>,
    lp: LocalityHash,
    /// The shared cost-accounting network.
    pub net: Network,
}

impl RdfPeers {
    /// A repository over `bits`-bit ids; numeric objects map
    /// order-preservingly from `[num_min, num_max]`.
    pub fn new(bits: u32, net: Network, num_min: f64, num_max: f64) -> Self {
        let ring = ChordRing::new(bits, 4);
        let lp = LocalityHash::new(ring.space(), num_min, num_max);
        RdfPeers {
            ring,
            addr: BTreeMap::new(),
            stores: BTreeMap::new(),
            lp,
            net,
        }
    }

    /// Adds a ring node.
    pub fn add_node(&mut self, addr: NodeId, position: Id) -> Result<(), RdfPeersError> {
        let bootstrap = self.addr.keys().next().copied();
        self.ring.join(position, bootstrap)?;
        self.ring.stabilize_until_converged(128);
        self.addr.insert(position, addr);
        self.stores.insert(position, SharedStore::memory());
        // Keys the new node now owns migrate from its successor.
        let succ = self.ring.node(position)?.successor();
        if succ != position {
            let space = self.ring.space();
            let pred = self.ring.node(position)?.predecessor.unwrap_or(succ);
            let mut moving: Vec<Triple> = Vec::new();
            self.stores[&succ].for_each_triple(|t| {
                if self.keys_of(t).iter().any(|&k| space.in_open_closed(k, pred, position)) {
                    moving.push(t.to_triple());
                }
            });
            // A triple stays at the successor if it also has a key there;
            // re-place every copy of the moving triples.
            let mut bytes = 0usize;
            for t in &moving {
                self.stores[&succ].remove(t);
                bytes += t.serialized_len();
            }
            if bytes > 0 {
                let from = self.addr[&succ];
                self.net.send(from, addr, bytes, SimTime::ZERO);
            }
            for t in moving {
                for k in self.keys_of(&t) {
                    let owner = self.ring.ideal_owner(k)?;
                    self.stores[&owner].insert(&t);
                }
            }
        }
        Ok(())
    }

    /// Ring size.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the repository has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Per-node stored triple counts (storage load, §E12).
    pub fn storage_load(&self) -> Vec<(NodeId, usize)> {
        self.addr.iter().map(|(id, &a)| (a, self.stores[id].len())).collect()
    }

    /// Total stored triple copies across the ring.
    pub fn total_copies(&self) -> usize {
        self.stores.values().map(SharedStore::len).sum()
    }

    fn hash_term(&self, tag: &str, term: &Term) -> Id {
        // Numeric objects use the locality-preserving hash (Sect. II).
        if tag == "O" {
            if let Some(n) = term.as_literal().and_then(Literal::as_f64) {
                return self.lp.hash(n);
            }
        }
        self.ring.space().hash_parts(&[tag, &term.to_string()])
    }

    fn keys_of<'a>(&self, t: impl Into<TripleRef<'a>>) -> [Id; 3] {
        let t = t.into();
        [self.hash_term("S", t.subject), self.hash_term("P", t.predicate), self.hash_term("O", t.object)]
    }

    /// Stores `triples` published by `provider` (any network address):
    /// each triple is routed and **stored** at the successors of
    /// `hash(s)`, `hash(p)` and `hash(o)`.
    pub fn store(
        &mut self,
        provider: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<StoreReport, RdfPeersError> {
        let Some(&entry) = self.addr.values().next() else {
            return Err(RdfPeersError::UnknownNode(provider));
        };
        let entry_id = *self.addr.iter().find(|(_, &a)| a == entry).map(|(id, _)| id).expect("exists");
        let mut report = StoreReport::default();
        for t in triples {
            let t_bytes = t.serialized_len();
            for k in self.keys_of(&t) {
                let path = self.ring.lookup_path_from(entry_id, k)?;
                let owner = *path.last().expect("non-empty");
                let mut at = self.net.send(provider, entry, LOOKUP_STEP, SimTime::ZERO);
                report.bytes += LOOKUP_STEP as u64;
                for pair in path.windows(2) {
                    at = self.net.send(self.addr[&pair[0]], self.addr[&pair[1]], LOOKUP_STEP, at);
                    report.routing_messages += 1;
                    report.bytes += LOOKUP_STEP as u64;
                }
                // The triple itself travels provider → owner.
                self.net.send(provider, self.addr[&owner], t_bytes, at);
                report.bytes += t_bytes as u64;
                if self.stores.get_mut(&owner).expect("member").insert(&t) {
                    report.stored_copies += 1;
                }
            }
        }
        Ok(report)
    }

    /// Resolves a single triple pattern: routes on the most selective
    /// bound attribute, matches at the owning node, returns the matches
    /// to `initiator`.
    pub fn query(
        &self,
        initiator: NodeId,
        pattern: &TriplePattern,
    ) -> Result<QueryReport, RdfPeersError> {
        let (tag, term) = if let Some(t) = pattern.subject.as_const() {
            ("S", t)
        } else if let Some(t) = pattern.object.as_const() {
            ("O", t)
        } else if let Some(t) = pattern.predicate.as_const() {
            ("P", t)
        } else {
            return Err(RdfPeersError::Unroutable);
        };
        let key = self.hash_term(tag, term);
        let Some(&entry_id) = self.addr.keys().next() else {
            return Err(RdfPeersError::UnknownNode(initiator));
        };
        let path = self.ring.lookup_path_from(entry_id, key)?;
        let owner = *path.last().expect("non-empty");
        let mut at = self.net.send(initiator, self.addr[&entry_id], LOOKUP_STEP, SimTime::ZERO);
        for pair in path.windows(2) {
            at = self.net.send(self.addr[&pair[0]], self.addr[&pair[1]], LOOKUP_STEP, at);
        }
        let matches = self.stores[&owner].match_pattern(pattern);
        let bytes = answer_bytes(pattern, &matches);
        let finished = self.net.send(self.addr[&owner], initiator, bytes, at);
        Ok(QueryReport { matches, hops: path.len() - 1, finished })
    }

    /// The RDFPeers conjunctive algorithm: all patterns share the subject
    /// variable; candidate subjects resolve for the first pattern and the
    /// candidate set travels from owner to owner, intersecting at each
    /// (paper Sect. II: "a recursive algorithm that seeks the candidate
    /// subjects for each predicate recursively and intersects the
    /// candidate subjects within the network").
    pub fn subject_join(
        &self,
        initiator: NodeId,
        patterns: &[(Term, Term)], // (predicate, object) pairs
    ) -> Result<(Vec<Term>, SimTime), RdfPeersError> {
        if patterns.is_empty() {
            return Ok((Vec::new(), SimTime::ZERO));
        }
        let Some(&entry_id) = self.addr.keys().next() else {
            return Err(RdfPeersError::UnknownNode(initiator));
        };
        let mut candidates: Option<Vec<Term>> = None;
        let mut cursor = initiator;
        let mut at = SimTime::ZERO;
        for (p, o) in patterns {
            let key = self.hash_term("O", o);
            let path = self.ring.lookup_path_from(entry_id, key)?;
            let owner = *path.last().expect("non-empty");
            // Candidates (if any) travel to the owner with the request.
            let carry = candidates.as_ref().map_or(0, |c| c.len() * CANDIDATE_BYTES);
            at = self.net.send(cursor, self.addr[&owner], LOOKUP_STEP + carry, at);
            let pat = TriplePattern::new(TermPattern::var("s"), p.clone(), o.clone());
            let local: Vec<Term> =
                self.stores[&owner].match_pattern(&pat).into_iter().map(|t| t.subject).collect();
            candidates = Some(match candidates {
                None => local,
                Some(prev) => prev.into_iter().filter(|s| local.contains(s)).collect(),
            });
            cursor = self.addr[&owner];
            if candidates.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let result = candidates.unwrap_or_default();
        let finished =
            self.net.send(cursor, initiator, result.len() * CANDIDATE_BYTES + 16, at);
        Ok((result, finished))
    }

    /// A range query `(?s, p, ?o)` with `o ∈ [lo, hi]`: walks the
    /// contiguous arc of owners that locality-preserving hashing maps the
    /// range onto, collecting matches at each (paper Sect. II).
    pub fn range_query(
        &self,
        initiator: NodeId,
        predicate: &Term,
        lo: f64,
        hi: f64,
    ) -> Result<QueryReport, RdfPeersError> {
        let (start_id, end_id) = self.lp.range(lo, hi);
        let Some(&entry_id) = self.addr.keys().next() else {
            return Err(RdfPeersError::UnknownNode(initiator));
        };
        let path = self.ring.lookup_path_from(entry_id, start_id)?;
        let mut owner = *path.last().expect("non-empty");
        let mut at = self.net.send(initiator, self.addr[&entry_id], LOOKUP_STEP, SimTime::ZERO);
        for pair in path.windows(2) {
            at = self.net.send(self.addr[&pair[0]], self.addr[&pair[1]], LOOKUP_STEP, at);
        }
        let mut hops = path.len() - 1;
        let mut matches: Vec<Triple> = Vec::new();
        let space = self.ring.space();
        let collect = |store: &SharedStore, matches: &mut Vec<Triple>| {
            store.for_each_triple(|t| {
                if t.predicate == predicate {
                    let value = t.object.as_literal().and_then(Literal::as_f64);
                    if value.is_some_and(|v| v >= lo && v <= hi) {
                        let t = t.to_triple();
                        if !matches.contains(&t) {
                            matches.push(t);
                        }
                    }
                }
            });
        };
        let (s, o) = (TermPattern::var("s"), TermPattern::var("o"));
        let pattern = TriplePattern::new(s, predicate.clone(), o);
        let acc_bytes = |matches: &[Triple]| answer_bytes(&pattern, matches);
        loop {
            collect(&self.stores[&owner], &mut matches);
            // Done when this node's range covers the end of the arc.
            let next = self.ring.node(owner)?.successor();
            if owner == end_owner(&self.ring, end_id)? || next == owner {
                break;
            }
            // Continue along the ring only while the successor can still
            // own part of the arc. Accumulated matches travel with the
            // walk, so every hop pays for what it carries.
            let next_owns_end = space.in_open_closed(end_id, owner, next);
            let next_in_arc = space.in_open(next, owner, end_id);
            if next_owns_end || next_in_arc {
                at = self.net.send(
                    self.addr[&owner],
                    self.addr[&next],
                    LOOKUP_STEP + acc_bytes(&matches),
                    at,
                );
                hops += 1;
                owner = next;
                if next_owns_end {
                    collect(&self.stores[&owner], &mut matches);
                    break;
                }
            } else {
                break;
            }
        }
        let finished = self.net.send(self.addr[&owner], initiator, acc_bytes(&matches), at);
        Ok(QueryReport { matches, hops, finished })
    }

    /// Graceful node departure: every triple copy it stored must move to
    /// its successor (the architectural cost the paper's design avoids).
    /// Returns the bytes shipped.
    pub fn depart(&mut self, addr: NodeId) -> Result<u64, RdfPeersError> {
        let id = *self
            .addr
            .iter()
            .find(|(_, &a)| a == addr)
            .map(|(id, _)| id)
            .ok_or(RdfPeersError::UnknownNode(addr))?;
        let store = self.stores.remove(&id).unwrap_or_default();
        let succ = self.ring.node(id)?.successor();
        self.ring.leave(id)?;
        self.addr.remove(&id);
        self.ring.stabilize_until_converged(128);
        let mut bytes = 0u64;
        if succ != id {
            let to = &self.stores[&succ];
            store.for_each_triple(|t| {
                let t = t.to_triple();
                bytes += t.serialized_len() as u64;
                to.insert(&t);
            });
            if bytes > 0 {
                self.net.send(addr, self.addr[&succ], bytes as usize, SimTime::ZERO);
            }
        }
        Ok(bytes)
    }
}

fn end_owner(ring: &ChordRing, end: Id) -> Result<Id, RdfPeersError> {
    Ok(ring.ideal_owner(end)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::LatencyModel;

    fn net() -> Network {
        Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5)
    }

    fn repo() -> RdfPeers {
        let mut r = RdfPeers::new(16, net(), 0.0, 100.0);
        for (i, pos) in [(1u64, 0u64), (2, 16000), (3, 32000), (4, 48000)] {
            r.add_node(NodeId(i), Id(pos)).unwrap();
        }
        r
    }

    fn t(s: &str, p: &str, o: Term) -> Triple {
        Triple::new(
            Term::iri(&format!("http://e/{s}")),
            Term::iri(&format!("http://e/{p}")),
            o,
        )
    }

    #[test]
    fn store_places_three_copies() {
        let mut r = repo();
        let report = r
            .store(NodeId(99), vec![t("a", "knows", Term::iri("http://e/b"))])
            .unwrap();
        // Three places, but with 4 ring nodes two keys may share an
        // owner, which stores a single copy.
        assert!((2..=3).contains(&report.stored_copies), "{report:?}");
        assert_eq!(r.total_copies(), report.stored_copies);
        assert!(report.bytes > 0);
    }

    #[test]
    fn query_routes_on_bound_attribute() {
        let mut r = repo();
        r.store(
            NodeId(99),
            vec![
                t("a", "knows", Term::iri("http://e/b")),
                t("c", "knows", Term::iri("http://e/b")),
                t("a", "likes", Term::iri("http://e/d")),
            ],
        )
        .unwrap();
        // (?s, knows, b): route on the object.
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            Term::iri("http://e/knows"),
            Term::iri("http://e/b"),
        );
        let report = r.query(NodeId(99), &pat).unwrap();
        assert_eq!(report.matches.len(), 2);
        // (a, ?p, ?o): route on the subject.
        let pat = TriplePattern::new(
            Term::iri("http://e/a"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert_eq!(r.query(NodeId(99), &pat).unwrap().matches.len(), 2);
        // All-variable pattern is unroutable.
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert!(matches!(r.query(NodeId(99), &pat), Err(RdfPeersError::Unroutable)));
    }

    #[test]
    fn subject_join_intersects_candidates() {
        let mut r = repo();
        r.store(
            NodeId(99),
            vec![
                t("a", "type", Term::iri("http://e/Person")),
                t("b", "type", Term::iri("http://e/Person")),
                t("a", "lives", Term::iri("http://e/Paris")),
                t("c", "lives", Term::iri("http://e/Paris")),
            ],
        )
        .unwrap();
        let (subjects, _) = r
            .subject_join(
                NodeId(99),
                &[
                    (Term::iri("http://e/type"), Term::iri("http://e/Person")),
                    (Term::iri("http://e/lives"), Term::iri("http://e/Paris")),
                ],
            )
            .unwrap();
        assert_eq!(subjects, vec![Term::iri("http://e/a")]);
    }

    #[test]
    fn subject_join_short_circuits_on_empty() {
        let mut r = repo();
        r.store(NodeId(99), vec![t("a", "p", Term::iri("http://e/x"))]).unwrap();
        let (subjects, _) = r
            .subject_join(
                NodeId(99),
                &[
                    (Term::iri("http://e/p"), Term::iri("http://e/nothere")),
                    (Term::iri("http://e/q"), Term::iri("http://e/x")),
                ],
            )
            .unwrap();
        assert!(subjects.is_empty());
    }

    #[test]
    fn range_query_collects_numeric_arc() {
        let mut r = repo();
        let age = |n: i64| Term::Literal(Literal::integer(n));
        r.store(
            NodeId(99),
            vec![
                t("a", "age", age(10)),
                t("b", "age", age(25)),
                t("c", "age", age(40)),
                t("d", "age", age(75)),
                t("e", "other", age(30)),
            ],
        )
        .unwrap();
        let report = r
            .range_query(NodeId(99), &Term::iri("http://e/age"), 20.0, 50.0)
            .unwrap();
        let mut got: Vec<String> = report.matches.iter().map(|t| t.subject.to_string()).collect();
        got.sort();
        assert_eq!(got, ["<http://e/b>", "<http://e/c>"]);
    }

    #[test]
    fn range_query_full_span() {
        let mut r = repo();
        let age = |n: i64| Term::Literal(Literal::integer(n));
        r.store(
            NodeId(99),
            vec![t("a", "age", age(1)), t("b", "age", age(50)), t("c", "age", age(99))],
        )
        .unwrap();
        let report =
            r.range_query(NodeId(99), &Term::iri("http://e/age"), 0.0, 100.0).unwrap();
        assert_eq!(report.matches.len(), 3);
    }

    #[test]
    fn departure_moves_stored_triples() {
        let mut r = repo();
        r.store(
            NodeId(99),
            (0..20)
                .map(|i| t(&format!("s{i}"), "p", Term::iri(&format!("http://e/o{i}"))))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let before = r.total_copies();
        let loads = r.storage_load();
        let (victim, victim_load) = loads.iter().find(|(_, l)| *l > 0).copied().unwrap();
        let bytes = r.depart(victim).unwrap();
        assert!(bytes > 0, "a loaded node must ship its triples");
        assert_eq!(r.total_copies(), before, "no copies lost on graceful departure");
        assert!(victim_load > 0);
        // Queries still work.
        let pat = TriplePattern::new(
            Term::iri("http://e/s3"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert_eq!(r.query(NodeId(99), &pat).unwrap().matches.len(), 1);
    }

    #[test]
    fn node_join_migrates_keys() {
        let mut r = repo();
        r.store(
            NodeId(99),
            (0..30)
                .map(|i| t(&format!("s{i}"), "p", Term::iri(&format!("http://e/o{i}"))))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let before = r.total_copies();
        r.add_node(NodeId(5), Id(40000)).unwrap();
        assert!(r.total_copies() >= before, "copies may only be re-placed, not lost");
        for i in 0..30 {
            let pat = TriplePattern::new(
                Term::iri(&format!("http://e/s{i}")),
                TermPattern::var("p"),
                TermPattern::var("o"),
            );
            assert_eq!(r.query(NodeId(99), &pat).unwrap().matches.len(), 1, "s{i}");
        }
    }
}
