//! Wire codec for [`LiveMsg`] — the byte layout socket transports ship.
//!
//! The live protocol was designed against an in-process cluster, so its
//! messages carry rich payloads (patterns, expressions, solution sets).
//! This module flattens each variant that crosses a wire into the
//! length-checked primitives of [`rdfmesh_rdf::codec`] (solution sets
//! through [`rdfmesh_sparql::solution::wire`]) — one tag byte followed by
//! the variant's fields — so an [`rdfmesh_net::Cluster`] on its socket
//! wire can carry the identical protocol between OS processes.
//! `docs/DEPLOYMENT.md` documents the full frame and payload layout.
//!
//! The codec carries only what crosses a wire. The commands a process
//! gives its own coordinator — [`LiveMsg::SubmitSol`],
//! [`LiveMsg::SubmitMulti`], [`LiveMsg::Deadline`] — have no tag and no
//! decoder: every transport hands an envelope a node addresses to itself
//! to that node's mailbox, so no peer can submit a round at, or expire a
//! round of, somebody else's coordinator.
//!
//! Decoding is paranoid by construction: every read is bounds-checked by
//! [`Reader`], unknown tags are rejected, and trailing bytes fail the
//! decode — a malformed or truncated frame from the network can never
//! turn into a half-parsed message.

use rdfmesh_net::{NodeId, WireFault, WireMsg};
use rdfmesh_rdf::codec::{put_str, put_term, put_u32, put_u64, DecodeError, Reader};
use rdfmesh_rdf::{TermPattern, TriplePattern, Variable};
use rdfmesh_sparql::expr::wire::{put_expr, read_expr};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::solution::wire::{put_rows, put_solutions, read_rows, read_solutions};
use rdfmesh_sparql::{Rows, Solution};

use crate::live::{LiveMsg, QueryId};

// One tag byte per `LiveMsg` variant that crosses a wire. The gaps are
// retired numbers, never reused: 1, 2, 5, 6, 16, 17 went with wire
// version 4 (the triple round, the singleton submit, the multiway lookup
// pair), 10, 12, 13, 14, 15 with version 5 (the local commands and the
// batch frames). A frame carrying one is refused as an unknown tag.
const TAG_LOOKUP: u8 = 3;
const TAG_PROVIDERS: u8 = 4;
const TAG_SUB_QUERY_SOL: u8 = 7;
const TAG_SOLUTIONS: u8 = 8;
const TAG_PROVIDER_DEAD: u8 = 9;
const TAG_PUBLISH: u8 = 11;
// Multiway distribution strategies: HyperCube shuffle and
// partial-evaluation-and-assembly. Lone chained-query frames never use
// these tags.
const TAG_SHUFFLE_EXEC: u8 = 18;
const TAG_SHUFFLE_PART: u8 = 19;
const TAG_PARTIAL_EXEC: u8 = 20;
const TAG_PARTIAL_MATCHES: u8 = 21;
const TAG_MULTI_DONE: u8 = 22;

// Pattern positions: variable (name string) or constant (tagged term).
const POS_VAR: u8 = 0;
const POS_CONST: u8 = 1;

// What a local command encodes to, should one be sent off-node anyway:
// a tag never assigned, so every decoder refuses the frame.
const NOT_ON_THE_WIRE: u8 = 0;

// `Option<_>` presence flags.
const ABSENT: u8 = 0;
const PRESENT: u8 = 1;

fn fault(e: DecodeError) -> WireFault {
    WireFault(e.0)
}

fn put_term_pattern(out: &mut Vec<u8>, tp: &TermPattern) {
    match tp {
        TermPattern::Var(v) => {
            out.push(POS_VAR);
            put_str(out, v.as_str());
        }
        TermPattern::Const(t) => {
            out.push(POS_CONST);
            put_term(out, t);
        }
    }
}

fn read_term_pattern(r: &mut Reader<'_>) -> Result<TermPattern, DecodeError> {
    match r.u8()? {
        POS_VAR => Ok(TermPattern::Var(Variable::new(r.str()?))),
        POS_CONST => Ok(TermPattern::Const(r.term()?)),
        _ => Err(DecodeError("unknown term-pattern tag")),
    }
}

fn put_pattern(out: &mut Vec<u8>, p: &TriplePattern) {
    put_term_pattern(out, &p.subject);
    put_term_pattern(out, &p.predicate);
    put_term_pattern(out, &p.object);
}

fn read_pattern(r: &mut Reader<'_>) -> Result<TriplePattern, DecodeError> {
    let subject = read_term_pattern(r)?;
    let predicate = read_term_pattern(r)?;
    let object = read_term_pattern(r)?;
    Ok(TriplePattern::new(subject, predicate, object))
}

fn put_node_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u64(out, id.0);
    }
}

fn read_node_ids(r: &mut Reader<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let count = r.u32_count(NODE_ID_LEN)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(NodeId(r.u64()?));
    }
    Ok(ids)
}

// Every list is `[u32 count]` then its items, and every decoder reads
// the count through `Reader::u32_count` with the smallest encoding of one
// item: a count the frame's remaining bytes cannot hold is refused before
// anything is allocated for it.

/// The wire size of one frequency entry, `[u64 id][u32 frequency]`.
const ENTRY_LEN: usize = 12;
/// The wire size of a node id.
const NODE_ID_LEN: usize = 8;
/// The smallest pattern: three variables with empty names.
const PATTERN_MIN_LEN: usize = 3 * (1 + 4);
/// The smallest variable: an empty name.
const VAR_MIN_LEN: usize = 4;
/// The smallest solution set: no column, no row.
const SOLUTION_SET_MIN_LEN: usize = 2;

/// `[u32 count]` then `count` entries `[u64 id][u32 frequency]`: a
/// location-table row's `(provider, frequency)`, or a publication's
/// `(key, frequency)`. A frequency beyond `u32::MAX` is written as
/// `u32::MAX`, which can only make the move-small choice dearer.
fn put_entries(out: &mut Vec<u8>, entries: impl ExactSizeIterator<Item = (u64, u64)>) {
    put_u32(out, entries.len() as u32);
    for (id, frequency) in entries {
        put_u64(out, id);
        put_u32(out, u32::try_from(frequency).unwrap_or(u32::MAX));
    }
}

/// The inverse of [`put_entries`], each id read through `id`.
fn read_entries<A>(r: &mut Reader<'_>, id: fn(u64) -> A) -> Result<Vec<(A, u64)>, DecodeError> {
    let count = r.u32_count(ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push((id(r.u64()?), u64::from(r.u32()?)));
    }
    Ok(entries)
}

fn put_opt_expr(out: &mut Vec<u8>, filter: &Option<Expression>) {
    match filter {
        None => out.push(ABSENT),
        Some(expr) => {
            out.push(PRESENT);
            put_expr(out, expr);
        }
    }
}

fn read_opt_expr(r: &mut Reader<'_>) -> Result<Option<Expression>, DecodeError> {
    match r.u8()? {
        ABSENT => Ok(None),
        PRESENT => Ok(Some(read_expr(r)?)),
        _ => Err(DecodeError("unknown option flag")),
    }
}

fn put_opt_solutions(out: &mut Vec<u8>, bound: &Option<Vec<Solution>>) {
    match bound {
        None => out.push(ABSENT),
        Some(sols) => {
            out.push(PRESENT);
            put_solutions(out, sols);
        }
    }
}

fn read_opt_solutions(r: &mut Reader<'_>) -> Result<Option<Vec<Solution>>, DecodeError> {
    match r.u8()? {
        ABSENT => Ok(None),
        PRESENT => Ok(Some(read_solutions(r)?)),
        _ => Err(DecodeError("unknown option flag")),
    }
}

fn put_patterns(out: &mut Vec<u8>, patterns: &[TriplePattern]) {
    put_u32(out, patterns.len() as u32);
    for p in patterns {
        put_pattern(out, p);
    }
}

fn read_patterns(r: &mut Reader<'_>) -> Result<Vec<TriplePattern>, DecodeError> {
    let count = r.u32_count(PATTERN_MIN_LEN)?;
    let mut patterns = Vec::with_capacity(count);
    for _ in 0..count {
        patterns.push(read_pattern(r)?);
    }
    Ok(patterns)
}

fn put_vars(out: &mut Vec<u8>, vars: &[Variable]) {
    put_u32(out, vars.len() as u32);
    for v in vars {
        put_str(out, v.as_str());
    }
}

fn read_vars(r: &mut Reader<'_>) -> Result<Vec<Variable>, DecodeError> {
    let count = r.u32_count(VAR_MIN_LEN)?;
    let mut vars = Vec::with_capacity(count);
    for _ in 0..count {
        vars.push(Variable::new(r.str()?));
    }
    Ok(vars)
}

fn put_solution_sets(out: &mut Vec<u8>, sets: &[Rows]) {
    put_u32(out, sets.len() as u32);
    for set in sets {
        put_rows(out, set);
    }
}

fn read_solution_sets(r: &mut Reader<'_>) -> Result<Vec<Rows>, DecodeError> {
    let count = r.u32_count(SOLUTION_SET_MIN_LEN)?;
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        sets.push(read_rows(r)?);
    }
    Ok(sets)
}

// Rough per-item encoded sizes feeding [`size_hint`]. They only have to
// land within a reallocation or two of the truth; patterns and header
// fields fit in `BASE_HINT`, solutions dominate everything else.
const BASE_HINT: usize = 96;
// A row of the compact solution frame: an id and a short front-coded
// suffix per new term, one byte per repeated one.
const SOLUTION_HINT: usize = 12;

fn solutions_hint(rows: usize) -> usize {
    rows * SOLUTION_HINT
}

/// Estimates the encoded size of `msg` so [`WireMsg::encode_wire`] can
/// allocate once up front instead of growing a fresh empty `Vec`
/// through repeated doublings — a bind round's frame starts in the
/// kilobytes.
fn size_hint(msg: &LiveMsg) -> usize {
    match msg {
        LiveMsg::SubQuerySol { bound, .. } => {
            BASE_HINT + solutions_hint(bound.as_ref().map_or(0, Vec::len))
        }
        LiveMsg::Solutions { solutions, .. } => BASE_HINT + solutions_hint(solutions.len()),
        LiveMsg::Providers { providers, .. } => BASE_HINT + providers.len() * ENTRY_LEN,
        LiveMsg::Publish { keys, .. } => BASE_HINT + keys.len() * ENTRY_LEN,
        LiveMsg::ShuffleExec { patterns, peers, .. } => {
            16 + patterns.len() * BASE_HINT + peers.len() * 8
        }
        LiveMsg::PartialExec { patterns, .. } => 16 + patterns.len() * BASE_HINT,
        LiveMsg::ShufflePart { parts: sets, .. } | LiveMsg::PartialMatches { per_pattern: sets, .. } => {
            16 + sets.iter().map(|s| 8 + solutions_hint(s.len())).sum::<usize>()
        }
        LiveMsg::Lookup { .. }
        | LiveMsg::ProviderDead { .. }
        | LiveMsg::MultiDone { .. }
        | LiveMsg::SubmitSol { .. }
        | LiveMsg::SubmitMulti { .. }
        | LiveMsg::Deadline { .. } => BASE_HINT,
    }
}

impl WireMsg for LiveMsg {
    fn encode_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(size_hint(self));
        match self {
            LiveMsg::Lookup { qid, pattern, reply_to } => {
                out.push(TAG_LOOKUP);
                put_u64(&mut out, qid.0);
                put_pattern(&mut out, pattern);
                put_u64(&mut out, reply_to.0);
            }
            LiveMsg::Providers { qid, pattern, providers } => {
                out.push(TAG_PROVIDERS);
                put_u64(&mut out, qid.0);
                put_pattern(&mut out, pattern);
                put_entries(&mut out, providers.iter().map(|(p, f)| (p.0, *f)));
            }
            LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to } => {
                out.push(TAG_SUB_QUERY_SOL);
                put_u64(&mut out, qid.0);
                put_pattern(&mut out, pattern);
                put_opt_expr(&mut out, filter);
                put_opt_solutions(&mut out, bound);
                put_u64(&mut out, reply_to.0);
            }
            LiveMsg::Solutions { qid, solutions } => {
                out.push(TAG_SOLUTIONS);
                put_u64(&mut out, qid.0);
                put_rows(&mut out, solutions);
            }
            LiveMsg::ProviderDead { pattern, provider } => {
                out.push(TAG_PROVIDER_DEAD);
                put_pattern(&mut out, pattern);
                put_u64(&mut out, provider.0);
            }
            LiveMsg::Publish { keys, provider } => {
                out.push(TAG_PUBLISH);
                put_entries(&mut out, keys.iter().copied());
                put_u64(&mut out, provider.0);
            }
            LiveMsg::ShuffleExec { qid, round, patterns, join_vars, peers, reply_to } => {
                out.push(TAG_SHUFFLE_EXEC);
                put_u64(&mut out, qid.0);
                put_u32(&mut out, *round);
                put_patterns(&mut out, patterns);
                put_vars(&mut out, join_vars);
                put_node_ids(&mut out, peers);
                put_u64(&mut out, reply_to.0);
            }
            LiveMsg::ShufflePart { qid, round, parts } => {
                out.push(TAG_SHUFFLE_PART);
                put_u64(&mut out, qid.0);
                put_u32(&mut out, *round);
                put_solution_sets(&mut out, parts);
            }
            LiveMsg::PartialExec { qid, patterns, reply_to } => {
                out.push(TAG_PARTIAL_EXEC);
                put_u64(&mut out, qid.0);
                put_patterns(&mut out, patterns);
                put_u64(&mut out, reply_to.0);
            }
            LiveMsg::PartialMatches { qid, per_pattern } => {
                out.push(TAG_PARTIAL_MATCHES);
                put_u64(&mut out, qid.0);
                put_solution_sets(&mut out, per_pattern);
            }
            LiveMsg::MultiDone { qid } => {
                out.push(TAG_MULTI_DONE);
                put_u64(&mut out, qid.0);
            }
            LiveMsg::SubmitSol { .. } | LiveMsg::SubmitMulti { .. } | LiveMsg::Deadline { .. } => {
                out.push(NOT_ON_THE_WIRE);
            }
        }
        out
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8().map_err(fault)? {
            TAG_LOOKUP => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let pattern = read_pattern(&mut r).map_err(fault)?;
                let reply_to = NodeId(r.u64().map_err(fault)?);
                LiveMsg::Lookup { qid, pattern, reply_to }
            }
            TAG_PROVIDERS => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let pattern = read_pattern(&mut r).map_err(fault)?;
                let providers = read_entries(&mut r, NodeId).map_err(fault)?;
                LiveMsg::Providers { qid, pattern, providers }
            }
            TAG_SUB_QUERY_SOL => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let pattern = read_pattern(&mut r).map_err(fault)?;
                let filter = read_opt_expr(&mut r).map_err(fault)?;
                let bound = read_opt_solutions(&mut r).map_err(fault)?;
                let reply_to = NodeId(r.u64().map_err(fault)?);
                LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to }
            }
            TAG_SOLUTIONS => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let solutions = read_rows(&mut r).map_err(fault)?;
                LiveMsg::Solutions { qid, solutions }
            }
            TAG_PROVIDER_DEAD => {
                let pattern = read_pattern(&mut r).map_err(fault)?;
                let provider = NodeId(r.u64().map_err(fault)?);
                LiveMsg::ProviderDead { pattern, provider }
            }
            TAG_PUBLISH => {
                let keys = read_entries(&mut r, |key| key).map_err(fault)?;
                let provider = NodeId(r.u64().map_err(fault)?);
                LiveMsg::Publish { keys, provider }
            }
            TAG_SHUFFLE_EXEC => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let round = r.u32().map_err(fault)?;
                let patterns = read_patterns(&mut r).map_err(fault)?;
                let join_vars = read_vars(&mut r).map_err(fault)?;
                let peers = read_node_ids(&mut r).map_err(fault)?;
                let reply_to = NodeId(r.u64().map_err(fault)?);
                LiveMsg::ShuffleExec { qid, round, patterns, join_vars, peers, reply_to }
            }
            TAG_SHUFFLE_PART => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let round = r.u32().map_err(fault)?;
                let parts = read_solution_sets(&mut r).map_err(fault)?;
                LiveMsg::ShufflePart { qid, round, parts }
            }
            TAG_PARTIAL_EXEC => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let patterns = read_patterns(&mut r).map_err(fault)?;
                let reply_to = NodeId(r.u64().map_err(fault)?);
                LiveMsg::PartialExec { qid, patterns, reply_to }
            }
            TAG_PARTIAL_MATCHES => {
                let qid = QueryId(r.u64().map_err(fault)?);
                let per_pattern = read_solution_sets(&mut r).map_err(fault)?;
                LiveMsg::PartialMatches { qid, per_pattern }
            }
            TAG_MULTI_DONE => LiveMsg::MultiDone { qid: QueryId(r.u64().map_err(fault)?) },
            _ => return Err(WireFault("unknown live-message tag")),
        };
        r.finish().map_err(fault)?;
        Ok(msg)
    }
}

#[cfg(test)]
pub(crate) use tests::{allocated_by, peak_by, ALLOC_PER_FRAME_BYTE};

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Literal, Term};
    use rdfmesh_sparql::expr::ComparisonOp;
    use rdfmesh_sparql::solution::wire::encode as wire_encode;

    fn pattern() -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://example.org/knows"),
            TermPattern::Const(Term::Literal(Literal::lang("Bob", "en"))),
        )
    }

    fn solution() -> Solution {
        Solution::from_pairs([
            (Variable::new("x"), Term::iri("http://example.org/alice")),
            (Variable::new("age"), Term::literal("42")),
        ])
    }

    fn batch(solutions: &[Solution]) -> Rows {
        Rows::from_solutions(solutions)
    }

    fn filter() -> Expression {
        Expression::Compare(
            ComparisonOp::Gt,
            Box::new(Expression::Var(Variable::new("age"))),
            Box::new(Expression::Const(Term::literal("30"))),
        )
    }

    fn round_trip(msg: &LiveMsg) -> LiveMsg {
        LiveMsg::decode_wire(&msg.encode_wire()).expect("round trip decodes")
    }

    /// At least one instance of every `LiveMsg` variant that crosses a
    /// wire, fields populated.
    fn messages() -> Vec<LiveMsg> {
        vec![
            LiveMsg::Lookup { qid: QueryId(10), pattern: pattern(), reply_to: NodeId(u64::MAX) },
            LiveMsg::Providers {
                qid: QueryId(11),
                pattern: pattern(),
                providers: vec![(NodeId(1), 400), (NodeId(2), 3)],
            },
            LiveMsg::Providers { qid: QueryId(12), pattern: pattern(), providers: Vec::new() },
            LiveMsg::SubQuerySol {
                qid: QueryId(14),
                pattern: pattern(),
                filter: Some(filter()),
                bound: Some(vec![solution(), Solution::new()]),
                reply_to: NodeId(4),
            },
            LiveMsg::Solutions { qid: QueryId(15), solutions: batch(&[solution()]) },
            LiveMsg::ProviderDead { pattern: pattern(), provider: NodeId(5) },
            LiveMsg::Publish {
                keys: vec![(3, 1), (99, 6), (u64::MAX, u32::MAX.into())],
                provider: NodeId(7),
            },
            LiveMsg::ShuffleExec {
                qid: QueryId(35),
                round: 2,
                patterns: vec![pattern(), pattern()],
                join_vars: vec![Variable::new("x"), Variable::new("age")],
                peers: vec![NodeId(1), NodeId(2), NodeId(3)],
                reply_to: NodeId(u64::MAX),
            },
            LiveMsg::ShufflePart {
                qid: QueryId(36),
                round: 1,
                parts: vec![
                    batch(&[solution()]),
                    Rows::new(),
                    batch(&[solution(), Solution::new()]),
                ],
            },
            LiveMsg::PartialExec {
                qid: QueryId(37),
                patterns: vec![pattern(), pattern(), pattern()],
                reply_to: NodeId(4),
            },
            LiveMsg::PartialMatches {
                qid: QueryId(38),
                per_pattern: vec![batch(&[solution(), solution()]), Rows::unit()],
            },
            LiveMsg::MultiDone { qid: QueryId(39) },
            // What an OPTIONAL answers: rows of three domains, unbound cells.
            LiveMsg::Solutions { qid: QueryId(40), solutions: batch(&optional_rows()) },
            // One long body in every row: the encoder defines it again.
            LiveMsg::Solutions { qid: QueryId(41), solutions: batch(&redefining_rows()) },
            // Keys that start with the unit row, twice.
            LiveMsg::SubQuerySol {
                qid: QueryId(42),
                pattern: pattern(),
                filter: None,
                bound: Some(vec![Solution::new(), solution(), Solution::new()]),
                reply_to: NodeId(4),
            },
        ]
    }

    /// `?x` always, `?name` on two rows, `?age` on one: the rows of
    /// `?x a ?t OPTIONAL { ?x name ?name OPTIONAL { ?x age ?age } }`.
    fn optional_rows() -> Vec<Solution> {
        let row = |x: &str, name: Option<&str>, age: Option<&str>| {
            let x = (Variable::new("x"), Term::iri(&format!("http://example.org/{x}")));
            let name = name.map(|n| (Variable::new("name"), Term::literal(n)));
            let age = age.map(|a| (Variable::new("age"), Term::literal(a)));
            Solution::from_pairs(std::iter::once(x).chain(name).chain(age))
        };
        vec![
            row("alice", Some("Alice"), None),
            row("bob", None, None),
            row("carol", Some("Carol"), Some("42")),
            row("alice", Some("Alice"), None),
        ]
    }

    /// 200 rows binding `?x` to one 100-byte literal: a bare id copies 101
    /// bytes and buys 64, so the budget runs out and the term is spelled
    /// out again under a second id.
    fn redefining_rows() -> Vec<Solution> {
        let long = Term::literal(&"r".repeat(100));
        vec![Solution::from_pairs([(Variable::new("x"), long)]); 200]
    }

    /// The commands a process gives its own coordinator: no tag, no
    /// decoder.
    fn local_commands() -> Vec<LiveMsg> {
        use crate::config::DistStrategy;
        use crate::live::DeadlineStage;
        vec![
            LiveMsg::SubmitSol {
                qid: QueryId(19),
                pattern: pattern(),
                filter: Some(filter()),
                bound: Some(batch(&[solution(), Solution::new()])),
            },
            LiveMsg::SubmitMulti {
                qid: QueryId(30),
                patterns: vec![pattern(), pattern()],
                join_vars: vec![Variable::new("x")],
                strategy: DistStrategy::HyperCube,
            },
            LiveMsg::Deadline {
                qid: QueryId(16),
                stage: DeadlineStage::Lookup { slot: 7, attempt: 1 },
            },
            LiveMsg::Deadline {
                qid: QueryId(17),
                stage: DeadlineStage::Ack { provider: NodeId(6), attempt: 2, generation: 3 },
            },
            LiveMsg::Deadline { qid: QueryId(18), stage: DeadlineStage::Overall },
        ]
    }

    /// The tags wire version 4 retired — the triple round (`Submit` 1,
    /// `SubQuery` 5, `Matches` 6), the singleton `SubmitSol` 2 and the
    /// multiway lookup pair (`MultiLookup` 16, `MultiProviders` 17) —
    /// and those version 5 did: the local commands (`Deadline` 10, the
    /// batched submit 12, `SubmitMulti` 15) and the batched sub-query
    /// and reply (13, 14).
    const RETIRED_TAGS: [u8; 11] = [1, 2, 5, 6, 10, 12, 13, 14, 15, 16, 17];

    /// `messages()` as wire version 6 encodes them. Every entry is the
    /// bytes version 4 wrote, except the two non-empty frames that carry
    /// the location table's frequency column, which version 6 added: the
    /// `Providers` row (second entry) and the `Publish` (seventh). The
    /// last three — mixed domains, a term defined twice, keys led by the
    /// unit row — were pinned by the encoder over `Solution` values, before
    /// solution sets became id-row batches.
    const PINNED: [&str; 15] = [
        "030a00000000000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656effffffffffffffff",
        "040b00000000000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e02000000010000000000000090010000020000000000000003000000",
        "040c00000000000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e00000000",
        "070e00000000000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e0105040003000000616765010202000000333001020361676501780201020002343202000018687474703a2f2f6578616d706c652e6f72672f616c69636500000400000000000000",
        "080f00000000000000020361676501780101020002343202000018687474703a2f2f6578616d706c652e6f72672f616c696365",
        "09000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e0500000000000000",
        "0b03000000030000000000000001000000630000000000000006000000ffffffffffffffffffffffff0700000000000000",
        "1223000000000000000200000002000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e0200000001000000780300000061676503000000010000000000000002000000000000000300000000000000ffffffffffffffff",
        "1324000000000000000100000003000000020361676501780101020002343202000018687474703a2f2f6578616d706c652e6f72672f616c6963650000020361676501780201020002343202000018687474703a2f2f6578616d706c652e6f72672f616c6963650000",
        "14250000000000000003000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e0400000000000000",
        "15260000000000000002000000020361676501780201020002343202000018687474703a2f2f6578616d706c652e6f72672f616c6963650102000100",
        "162700000000000000",
        "08280000000000000003046e616d650178036167650401020005416c69636502000018687474703a2f2f6578616d706c652e6f72672f616c696365000003001303626f6200040200054361726f6c050013056361726f6c060200023432010200",
        "082900000000000000010178c801010200647272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727272727201010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010101010102025c087272727272727272020202020202020202020202",
        "072a00000000000000000100000078010018000000687474703a2f2f6578616d706c652e6f72672f6b6e6f7773010303000000426f6202000000656e00010203616765017803000001020002343202000018687474703a2f2f6578616d706c652e6f72672f616c69636500000400000000000000",
    ];

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn every_variant_round_trips() {
        let mut tags = std::collections::BTreeSet::new();
        for msg in messages() {
            let back = round_trip(&msg);
            // LiveMsg carries Expression which is not PartialEq across the
            // board; compare via the canonical wire bytes instead.
            assert_eq!(back.encode_wire(), msg.encode_wire(), "round trip preserves {msg:?}");
            tags.insert(msg.encode_wire()[0]);
        }
        assert_eq!(tags.len(), 11, "one tag per variant on the wire: {tags:?}");
        assert!(RETIRED_TAGS.iter().all(|t| !tags.contains(t)));
    }

    #[test]
    fn every_tag_keeps_its_pinned_bytes() {
        let now: Vec<Vec<u8>> = messages().iter().map(LiveMsg::encode_wire).collect();
        let pinned: Vec<Vec<u8>> = PINNED.iter().map(|hex| unhex(hex)).collect();
        assert_eq!(now, pinned);
        for bytes in pinned {
            let decoded = LiveMsg::decode_wire(&bytes).expect("a pinned frame decodes");
            assert_eq!(decoded.encode_wire(), bytes);
        }
    }

    #[test]
    fn a_term_the_frame_defines_twice_decodes_to_one_id() {
        let frame = unhex(PINNED[13]);
        assert!(frame.windows(2).any(|w| w == [2, 2]), "id 2 spelled out as a plain literal");
        let Ok(LiveMsg::Solutions { solutions, .. }) = LiveMsg::decode_wire(&frame) else {
            panic!("the pinned frame decodes to a Solutions frame")
        };
        assert_eq!(solutions.len(), 200);
        assert_eq!(solutions.distinct(), redefining_rows()[..1].to_vec(), "one term, one row");
    }

    #[test]
    fn local_commands_encode_to_a_frame_every_decoder_refuses() {
        for msg in local_commands() {
            assert_eq!(
                LiveMsg::decode_wire(&msg.encode_wire()).unwrap_err(),
                WireFault("unknown live-message tag"),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn unknown_and_retired_tags_are_rejected() {
        assert!(LiveMsg::decode_wire(&[0xEE]).is_err());
        assert!(LiveMsg::decode_wire(&[]).is_err());
        // No compat path: whatever body follows a retired tag — none,
        // every valid body of the current set (among them the layouts
        // tags 1 and 16 used to share with `Lookup`), the layouts wire
        // version 4 gave the tags version 5 retired, or noise — the
        // frame is refused for its tag.
        let forged = super::wire_v4::retired(QueryId(1), &pattern());
        let tags: Vec<u8> = forged.iter().map(|bytes| bytes[0]).collect();
        assert_eq!(tags, [10, 12, 13, 14, 15], "each version 4 layout under its own tag");
        let mut bodies: Vec<Vec<u8>> = vec![vec![0]];
        bodies.extend(messages().iter().map(LiveMsg::encode_wire));
        bodies.extend(forged);
        let mut noise = 0x2013_u64;
        for len in [1, 2, 9, 17, 64, 300] {
            bodies.push(
                (0..len)
                    .map(|_| {
                        noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        (noise >> 56) as u8
                    })
                    .collect(),
            );
        }
        for tag in RETIRED_TAGS {
            for body in &bodies {
                let mut bytes = body.clone();
                bytes[0] = tag;
                assert_eq!(
                    LiveMsg::decode_wire(&bytes).unwrap_err(),
                    WireFault("unknown live-message tag"),
                    "tag {tag} over the body {body:?}"
                );
            }
        }
    }

    #[test]
    fn frames_reject_truncated_and_overlong_bodies() {
        for msg in messages() {
            let bytes = msg.encode_wire();
            // Every truncated prefix must fail, never half-parse.
            for len in 0..bytes.len() {
                assert!(
                    LiveMsg::decode_wire(&bytes[..len]).is_err(),
                    "truncation at {len}/{} must not decode {msg:?}",
                    bytes.len()
                );
            }
            // An over-long body (trailing garbage) must fail `finish()`.
            let mut long = bytes.clone();
            long.push(0);
            assert!(
                LiveMsg::decode_wire(&long).is_err(),
                "trailing byte must not decode {msg:?}"
            );
        }
    }

    /// Deterministic single-byte fuzz: every corruption of every frame
    /// either fails cleanly or decodes to *some* valid frame — the
    /// decoder must never panic, over-read, or loop on adversarial
    /// input (lengths and tags are the dangerous bytes).
    #[test]
    fn mutated_frames_never_panic() {
        for msg in messages() {
            let bytes = msg.encode_wire();
            for i in 0..bytes.len() {
                for delta in [1u8, 0x7f, 0xff] {
                    let mut mutated = bytes.clone();
                    mutated[i] = mutated[i].wrapping_add(delta);
                    let _ = LiveMsg::decode_wire(&mutated);
                }
            }
        }
    }

    /// Counts the bytes the current thread asks the allocator for, so a
    /// test can bound what decoding one frame costs, and the bytes it
    /// holds live, so a test can bound a pass's peak. Per thread, because
    /// the harness runs the other tests of this binary beside it.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Bytes allocated minus bytes freed on this thread (a block
        /// another thread allocated and this one frees counts negative).
        static LIVE: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
        /// The highest `LIVE` since [`peak_by`] last reset it.
        static PEAK: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
    }

    /// Books `grown` bytes more asked for (a realloc's new size), of
    /// which `live` (negative when freed) change what the thread holds.
    fn count(grown: usize, live: isize) {
        // `try_with`: the allocator outlives a dying thread's locals.
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + grown));
        let _ = LIVE.try_with(|l| {
            l.set(l.get() + live);
            let _ = PEAK.try_with(|p| p.set(p.get().max(l.get())));
        });
    }

    // SAFETY: every request is handed to `System` unchanged; the only
    // addition is thread-local integers with no destructor and no
    // allocation of their own, so they cannot re-enter the allocator.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            count(layout.size(), layout.size() as isize);
            // SAFETY: the caller's contract, passed through.
            unsafe { std::alloc::System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            count(0, -(layout.size() as isize));
            // SAFETY: the caller's contract, passed through.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
            count(new, new as isize - layout.size() as isize);
            // SAFETY: the caller's contract, passed through.
            unsafe { std::alloc::System.realloc(ptr, layout, new) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// What decoding a frame may allocate per byte of it, unless a test
    /// states a larger budget: a 12-byte frequency entry decodes to 16
    /// bytes, and a count the frame cannot hold costs nothing.
    pub(crate) const ALLOC_PER_FRAME_BYTE: usize = 4;

    /// Runs `f`, returning its result and the bytes it asked the
    /// allocator for on this thread.
    pub(crate) fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = ALLOCATED.with(std::cell::Cell::get);
        let out = f();
        (out, ALLOCATED.with(std::cell::Cell::get) - before)
    }

    /// Runs `f`, returning its result and the most bytes this thread held
    /// at once during it beyond what it held before — `f`'s peak heap,
    /// its result included.
    pub(crate) fn peak_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = LIVE.with(std::cell::Cell::get);
        PEAK.with(|p| p.set(before));
        let out = f();
        (out, (PEAK.with(std::cell::Cell::get) - before).max(0) as usize)
    }

    /// One field of a solution-set frame, by the role a decoder gives it.
    #[derive(Clone, Debug)]
    enum Field {
        /// `nvars` / `nrows`.
        Count(usize),
        /// A cell's term id.
        Id(usize),
        /// A dictionary entry's kind byte.
        Kind(u8),
        /// A literal entry's head length, or an entry's shared-prefix length.
        Prefix(usize),
        /// A name's or a suffix's length, then that many bytes.
        Bytes(usize, &'static [u8]),
    }

    fn varint(out: &mut Vec<u8>, n: usize) {
        rdfmesh_rdf::codec::put_varint(out, n as u64);
    }

    fn serialize(fields: &[Field]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in fields {
            match f {
                Field::Count(n) | Field::Id(n) | Field::Prefix(n) => varint(&mut out, *n),
                Field::Kind(k) => out.push(*k),
                Field::Bytes(len, bytes) => {
                    varint(&mut out, *len);
                    out.extend_from_slice(bytes);
                }
            }
        }
        out
    }

    /// A set that exercises every field role — unbound cells, a repeated
    /// term, front-coded neighbours, a typed literal — and its frame,
    /// field by field.
    fn labelled_frame() -> (Vec<Solution>, Vec<Field>) {
        let int = rdfmesh_rdf::Iri::new("http://e/int").unwrap();
        let row = |a: &str, k: &str, s: &str| {
            Solution::from_pairs([
                (Variable::new("a"), Term::iri(a)),
                (Variable::new("k"), Term::Literal(Literal::typed(k, int.clone()))),
                (Variable::new("s"), Term::iri(s)),
            ])
        };
        let set = vec![
            row("http://e/p1", "3", "http://e/s1"),
            row("http://e/p1", "4", "http://e/s2"),
            Solution::from_pairs([(Variable::new("s"), Term::iri("http://e/s3"))]),
        ];
        use Field::*;
        let fields = vec![
            Count(3),
            Bytes(1, b"a"),
            Bytes(1, b"k"),
            Bytes(1, b"s"),
            Count(3),
            // Row 1: three first occurrences.
            Id(1), Kind(0), Prefix(0), Bytes(11, b"http://e/p1"),
            Id(2), Kind(4), Prefix(12), Prefix(0), Bytes(13, b"http://e/int3"),
            Id(3), Kind(0), Prefix(0), Bytes(11, b"http://e/s1"),
            // Row 2: a repeat, then two entries sharing all but a byte.
            Id(1),
            Id(4), Kind(4), Prefix(12), Prefix(12), Bytes(1, b"4"),
            Id(5), Kind(0), Prefix(10), Bytes(1, b"2"),
            // Row 3: two unbound cells.
            Id(0),
            Id(0),
            Id(6), Kind(0), Prefix(10), Bytes(1, b"3"),
        ];
        (set, fields)
    }

    /// Every solution-carrying frame family around `set`.
    fn carriers(set: &[Solution]) -> Vec<LiveMsg> {
        vec![
            LiveMsg::SubQuerySol {
                qid: QueryId(2),
                pattern: pattern(),
                filter: Some(filter()),
                bound: Some(set.to_vec()),
                reply_to: NodeId(3),
            },
            LiveMsg::Solutions { qid: QueryId(3), solutions: batch(set) },
            LiveMsg::ShufflePart {
                qid: QueryId(8),
                round: 1,
                parts: vec![batch(set), Rows::new()],
            },
            LiveMsg::PartialMatches { qid: QueryId(9), per_pattern: vec![batch(set)] },
        ]
    }

    /// Structure-aware fuzz of the compact solution frame: starting from
    /// a valid frame whose every field is labelled, each count, id,
    /// prefix length, kind byte and string length is pushed to the
    /// values a decoder is most likely to mishandle, inside every frame
    /// family that carries a solution set. Each mutant must be refused,
    /// or decode to a message that is itself valid — and either way
    /// decoding must not allocate out of proportion to the frame.
    #[test]
    fn structurally_mutated_solution_frames_are_refused_or_valid_and_cheap() {
        // The worst mutant of this corpus costs 46 B per frame byte (a
        // decoded row is a `BTreeMap` leaf of name and term clones); a
        // count or length trusted before it was checked against the
        // bytes that remain would cost mega- to exabytes.
        const ALLOC_PER_FRAME_BYTE: usize = 64;
        let (set, fields) = labelled_frame();
        let valid = serialize(&fields);
        assert_eq!(valid, wire_encode(&set), "the labels describe what the encoder writes");

        let huge = [usize::MAX, u32::MAX as usize, 1 << 20, 255, 128, 127];
        let mut mutants: Vec<Vec<u8>> = Vec::new();
        for (i, field) in fields.iter().enumerate() {
            let with = |f: Field| {
                let mut copy = fields.clone();
                copy[i] = f;
                serialize(&copy)
            };
            match field {
                Field::Count(n) => {
                    for v in huge.into_iter().chain([0, n + 1, n * 2, n.saturating_sub(1)]) {
                        mutants.push(with(Field::Count(v)));
                    }
                }
                Field::Id(n) => {
                    for v in huge.into_iter().chain([0, 1, n + 1, n + 2, 7, 8]) {
                        mutants.push(with(Field::Id(v)));
                    }
                }
                Field::Prefix(n) => {
                    for v in huge.into_iter().chain([0, n + 1, n.saturating_sub(1), 9, 11, 14]) {
                        mutants.push(with(Field::Prefix(v)));
                    }
                }
                Field::Kind(_) => {
                    for v in [0, 1, 2, 3, 4, 5, 0x80, 0xff] {
                        mutants.push(with(Field::Kind(v)));
                    }
                }
                Field::Bytes(len, bytes) => {
                    for v in huge.into_iter().chain([0, len + 1, len.saturating_sub(1)]) {
                        mutants.push(with(Field::Bytes(v, bytes)));
                    }
                }
            }
        }
        // A prefix that ends inside a code point (`é` = C3 A9), which
        // the suffix completes (`è` = C3 A8) or does not.
        for suffix in [b"\xa8".as_slice(), b"a", b""] {
            let mut copy = fields.clone();
            copy[17] = Field::Bytes(12, b"http://e/s\xc3\xa9");
            copy[26] = Field::Prefix(11);
            copy[27] = Field::Bytes(suffix.len(), suffix);
            mutants.push(serialize(&copy));
        }

        let (mut refused, mut accepted) = (0, 0);
        for carrier in carriers(&set) {
            let frame = carrier.encode_wire();
            let at = frame
                .windows(valid.len())
                .position(|w| w == valid)
                .expect("the carrier embeds the set's frame verbatim");
            for mutant in &mutants {
                let mut bytes = frame[..at].to_vec();
                bytes.extend_from_slice(mutant);
                bytes.extend_from_slice(&frame[at + valid.len()..]);
                let before = ALLOCATED.with(std::cell::Cell::get);
                let decoded = LiveMsg::decode_wire(&bytes);
                let allocated = ALLOCATED.with(std::cell::Cell::get) - before;
                assert!(
                    allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(),
                    "decoding a {} B frame allocated {allocated} B",
                    bytes.len()
                );
                match decoded {
                    Err(_) => refused += 1,
                    Ok(msg) => {
                        accepted += 1;
                        let canonical = msg.encode_wire();
                        let again =
                            LiveMsg::decode_wire(&canonical).expect("a decoded message is valid");
                        assert_eq!(again.encode_wire(), canonical);
                    }
                }
            }
        }
        assert!(refused > accepted && accepted > 0, "{refused} refused, {accepted} accepted");
    }

    /// Structure-aware fuzz of the two frames that carry the location
    /// table's frequency column, `Providers` (`tag qid pattern count
    /// entries`) and `Publish` (`tag count entries provider`): the count
    /// is pushed to the values a decoder is most likely to trust, and
    /// each entry's id and frequency to their extremes. Every mutant must
    /// be refused or decode to a valid message, and no count may make the
    /// decoder allocate beyond what the frame can hold — the pattern's
    /// few terms aside, a 12-byte entry decodes to 16 bytes.
    #[test]
    fn structurally_mutated_index_frames_are_refused_or_valid_and_cheap() {
        let frames = [
            LiveMsg::Providers {
                qid: QueryId(11),
                pattern: pattern(),
                providers: vec![(NodeId(1), 400), (NodeId(2), 3)],
            },
            LiveMsg::Publish { keys: vec![(3, 1), (99, 6)], provider: NodeId(7) },
        ];
        let (mut refused, mut accepted) = (0, 0);
        for msg in frames {
            let frame = msg.encode_wire();
            let (count_at, n) = match &msg {
                LiveMsg::Providers { providers, .. } => {
                    (frame.len() - 4 - ENTRY_LEN * providers.len(), providers.len())
                }
                LiveMsg::Publish { keys, .. } => (1, keys.len()),
                _ => unreachable!("the two index frames"),
            };
            let mut mutants = Vec::new();
            for count in [0, n - 1, n + 1, 2 * n, 127, 255, 1 << 20, u32::MAX as usize] {
                let mut bytes = frame.clone();
                bytes[count_at..count_at + 4].copy_from_slice(&(count as u32).to_le_bytes());
                mutants.push(bytes);
            }
            for entry in 0..n {
                let at = count_at + 4 + ENTRY_LEN * entry;
                for value in [0, 1, u64::MAX] {
                    let mut id = frame.clone();
                    id[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    let mut frequency = frame.clone();
                    frequency[at + 8..at + 12].copy_from_slice(&(value as u32).to_le_bytes());
                    mutants.extend([id, frequency]);
                }
            }
            for bytes in mutants {
                let before = ALLOCATED.with(std::cell::Cell::get);
                let decoded = LiveMsg::decode_wire(&bytes);
                let allocated = ALLOCATED.with(std::cell::Cell::get) - before;
                assert!(
                    allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(),
                    "decoding a {} B frame allocated {allocated} B",
                    bytes.len()
                );
                match decoded {
                    Err(_) => refused += 1,
                    Ok(msg) => {
                        accepted += 1;
                        let canonical = msg.encode_wire();
                        assert_eq!(canonical, bytes, "a decoded mutant re-encodes to itself");
                    }
                }
            }
        }
        assert!(refused > 0 && accepted > 0, "{refused} refused, {accepted} accepted");
        // A count beyond the field's width is written as its maximum.
        let huge = LiveMsg::Publish { keys: vec![(5, u64::MAX)], provider: NodeId(7) };
        let LiveMsg::Publish { keys, .. } = round_trip(&huge) else { panic!("a Publish") };
        assert_eq!(keys, vec![(5, u64::from(u32::MAX))]);
    }

    /// Each list's unit is the smallest encoding of one of its items, as
    /// its encoder writes it.
    #[test]
    fn every_list_unit_is_its_smallest_item() {
        let item_len = |put: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            put(&mut out);
            out.len() - 4
        };
        let v = || TermPattern::var("");
        let smallest = [TriplePattern::new(v(), v(), v())];
        assert_eq!(item_len(&|out| put_node_ids(out, &[NodeId(0)])), NODE_ID_LEN);
        assert_eq!(item_len(&|out| put_patterns(out, &smallest)), PATTERN_MIN_LEN);
        assert_eq!(item_len(&|out| put_vars(out, &[Variable::new("")])), VAR_MIN_LEN);
        assert_eq!(item_len(&|out| put_solution_sets(out, &[Rows::new()])), SOLUTION_SET_MIN_LEN);
        assert_eq!(item_len(&|out| put_entries(out, [(0, 0)].into_iter())), ENTRY_LEN);
    }

    /// Per list, a frame that ends right after a count of `u32::MAX`: it
    /// is refused for that count before anything is allocated for it.
    #[test]
    fn a_count_the_frame_cannot_hold_is_refused_before_allocating() {
        let head = |tag: u8| {
            let mut bytes = vec![tag];
            put_u64(&mut bytes, 7);
            bytes
        };
        let then = |mut bytes: Vec<u8>, u32s: &[u32]| {
            u32s.iter().for_each(|&n| put_u32(&mut bytes, n));
            bytes
        };
        let mut providers = head(TAG_PROVIDERS);
        put_pattern(&mut providers, &pattern());
        let max = u32::MAX;
        let frames = [
            ("PartialExec patterns", then(head(TAG_PARTIAL_EXEC), &[max])),
            ("ShuffleExec patterns", then(head(TAG_SHUFFLE_EXEC), &[2, max])),
            ("ShuffleExec vars", then(head(TAG_SHUFFLE_EXEC), &[2, 0, max])),
            ("ShuffleExec peers", then(head(TAG_SHUFFLE_EXEC), &[2, 0, 0, max])),
            ("ShufflePart sets", then(head(TAG_SHUFFLE_PART), &[1, max])),
            ("PartialMatches sets", then(head(TAG_PARTIAL_MATCHES), &[max])),
            ("Providers entries", then(providers, &[max])),
            ("Publish entries", then(vec![TAG_PUBLISH], &[max])),
        ];
        for (list, bytes) in frames {
            let (decoded, allocated) = allocated_by(|| LiveMsg::decode_wire(&bytes));
            assert_eq!(decoded.unwrap_err(), WireFault("count exceeds the bytes left"), "{list}");
            assert!(
                allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(),
                "{list}: decoding a {} B frame allocated {allocated} B",
                bytes.len()
            );
        }
    }

    /// Frames written to make a decoder copy: one name or one body,
    /// then as many one-byte cells referencing it as fit. What they can
    /// cost is a row per byte — a `Solution` is a `BTreeMap` leaf,
    /// ≈ 0.9 KiB however little it binds — plus the 64 B of copies per
    /// byte the frame's budget allows; never the frame length squared.
    #[test]
    fn solution_frames_built_to_amplify_cost_a_row_per_byte_at_most() {
        const ALLOC_PER_FRAME_BYTE: usize = 1024 + 64;
        // `[{?name -> "body"}, then `ids` more rows of the bare id 1]`.
        let frame = |name: usize, body: usize, ids: usize| {
            let mut set = vec![1];
            varint(&mut set, name);
            set.extend(std::iter::repeat_n(b'n', name));
            varint(&mut set, 1 + ids);
            set.extend([1, 2, 0]);
            varint(&mut set, body);
            set.extend(std::iter::repeat_n(b'b', body));
            set.extend(std::iter::repeat_n(1, ids));
            let mut bytes = vec![TAG_SOLUTIONS];
            put_u64(&mut bytes, 7);
            bytes.extend(set);
            bytes
        };
        let cost = |bytes: &[u8]| {
            let before = ALLOCATED.with(std::cell::Cell::get);
            let decoded = LiveMsg::decode_wire(bytes);
            let allocated = ALLOCATED.with(std::cell::Cell::get) - before;
            assert!(
                allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(),
                "decoding a {} B frame allocated {allocated} B",
                bytes.len()
            );
            (decoded.is_ok(), allocated)
        };
        // Half the frame one name, half of it cells that would clone it.
        assert!(!cost(&frame(20_000, 1, 20_000)).0, "a name beyond MAX_NAME");
        // The longest name allowed, then a 1 KiB body: refused once the
        // copies outrun the budget, a few dozen rows in — most of what
        // was allocated by then is the row vector, 24 B per row to come.
        for hostile in [frame(256, 1, 40_000), frame(1, 1024, 40_000)] {
            let (ok, allocated) = cost(&hostile);
            assert!(!ok && allocated < 32 * hostile.len(), "{allocated} B");
        }
        // Inside the budget every row is materialized: the worst a
        // frame can do, and linear.
        let (ok, small) = cost(&frame(1, 60, 10_000));
        let (_, large) = cost(&frame(1, 60, 40_000));
        assert!(ok && large < 5 * small, "{small} B for 10 k rows, {large} B for 40 k");
    }

    /// 1 000 `(?s, ?a)` rows of `?s ub:advisor ?a` over five generated
    /// departments: unique subjects that differ in a few trailing bytes,
    /// ten advisors per department repeated twenty times each.
    fn advisor_rows() -> Vec<Solution> {
        use rdfmesh_workload::university::{department_triples, ub, UniversityConfig};
        let config = UniversityConfig {
            professors_per_department: 10,
            students_per_department: 200,
            ..UniversityConfig::default()
        };
        let advisor = Term::iri(ub::ADVISOR);
        let rows: Vec<Solution> = (0..5)
            .flat_map(|d| department_triples(&config, d))
            .filter(|t| t.predicate == advisor)
            .map(|t| {
                Solution::from_pairs([
                    (Variable::new("s"), t.subject),
                    (Variable::new("a"), t.object),
                ])
            })
            .collect();
        assert_eq!(rows.len(), 1000);
        rows
    }

    #[test]
    fn advisor_rows_cost_at_most_sixteen_bytes_each() {
        // The layout this one replaced spent 92 B on such a row. Pinned
        // so a later change cannot quietly give the win back.
        let rows = advisor_rows();
        let frame = LiveMsg::Solutions { qid: QueryId(1), solutions: batch(&rows) }.encode_wire();
        assert!(frame.len() <= 16 * rows.len(), "{} B for {} rows", frame.len(), rows.len());
    }

    #[test]
    fn encode_presizes_close_to_the_truth() {
        // The size hint is an allocation optimization, not a format
        // promise — but a hint below a quarter of the real size would
        // mean the pre-sizing buys nothing, and one above four times it
        // wastes what it was meant to save, so pin it loosely: on a
        // small bind round, and on one large reply.
        let round = LiveMsg::SubQuerySol {
            qid: QueryId(1),
            pattern: pattern(),
            filter: Some(filter()),
            bound: Some(vec![solution(), solution()]),
            reply_to: NodeId(1),
        };
        let reply = LiveMsg::Solutions { qid: QueryId(1), solutions: batch(&advisor_rows()) };
        for msg in [round, reply] {
            let (hint, encoded) = (super::size_hint(&msg), msg.encode_wire().len());
            assert!(hint * 4 >= encoded, "hint {hint} too far below encoded size {encoded}");
            assert!(hint <= encoded * 4, "hint {hint} too far above encoded size {encoded}");
        }
    }

    #[test]
    fn corrupted_option_flag_is_rejected() {
        let round = LiveMsg::SubQuerySol {
            qid: QueryId(2),
            pattern: pattern(),
            filter: None,
            bound: None,
            reply_to: NodeId(1),
        };
        let mut bytes = round.encode_wire();
        // The filter's flag: before the bound's and the 8 B `reply_to`.
        let flag = bytes.len() - 10;
        bytes[flag] = 9;
        assert!(LiveMsg::decode_wire(&bytes).is_err(), "invalid option flag must fail");
    }
}

/// Payloads as wire version 4 laid out the five tags version 5 retired,
/// for the tests that forge them at a decoder or a listener.
#[cfg(test)]
pub(crate) mod wire_v4 {
    use super::*;

    /// What any stranger can do: connect to `listener`, finish the
    /// handshake, and write each payload in an envelope `node` → `node`.
    /// The connection closes when the returned stream drops.
    pub(crate) fn forge_at(
        listener: std::net::SocketAddr,
        node: NodeId,
        payloads: &[Vec<u8>],
    ) -> std::net::TcpStream {
        use rdfmesh_net::tcp::{encode_frame, write_handshake, KIND_ENVELOPE};
        use std::io::Write;
        let mut peer = std::net::TcpStream::connect(listener).expect("listener accepts");
        write_handshake(&mut peer).expect("handshake written");
        for payload in payloads {
            let mut body = Vec::new();
            put_u64(&mut body, node.0);
            put_u64(&mut body, node.0);
            body.extend_from_slice(payload);
            peer.write_all(&encode_frame(KIND_ENVELOPE, &body)).expect("frame written");
        }
        peer
    }

    /// `Deadline{qid, Overall}`, tag 10.
    pub(crate) fn deadline_overall(qid: QueryId) -> Vec<u8> {
        let mut out = vec![10];
        put_u64(&mut out, qid.0);
        out.push(2);
        out
    }

    fn put_round(out: &mut Vec<u8>, qid: QueryId, pattern: &TriplePattern) {
        put_u32(out, 1);
        put_u64(out, qid.0);
        put_pattern(out, pattern);
        out.extend([ABSENT, ABSENT]);
    }

    /// A batched submit of one unfiltered, unbound round, tag 12.
    pub(crate) fn submit_sol_batch(qid: QueryId, pattern: &TriplePattern) -> Vec<u8> {
        let mut out = vec![12];
        put_round(&mut out, qid, pattern);
        out
    }

    /// `SubmitMulti` over `pattern` twice, partial evaluation, tag 15.
    pub(crate) fn submit_multi(qid: QueryId, pattern: &TriplePattern) -> Vec<u8> {
        let mut out = vec![15];
        put_u64(&mut out, qid.0);
        put_patterns(&mut out, &[pattern.clone(), pattern.clone()]);
        put_vars(&mut out, &[]);
        out.push(2);
        out
    }

    /// One valid version 4 payload per retired tag, in tag order.
    pub(crate) fn retired(qid: QueryId, pattern: &TriplePattern) -> Vec<Vec<u8>> {
        let mut sub_query_batch = vec![13];
        put_round(&mut sub_query_batch, qid, pattern);
        put_u64(&mut sub_query_batch, u64::MAX);
        let mut solutions_batch = vec![14];
        put_u32(&mut solutions_batch, 1);
        put_u64(&mut solutions_batch, qid.0);
        put_solutions(&mut solutions_batch, &[Solution::new()]);
        vec![
            deadline_overall(qid),
            submit_sol_batch(qid, pattern),
            sub_query_batch,
            solutions_batch,
            submit_multi(qid, pattern),
        ]
    }
}
