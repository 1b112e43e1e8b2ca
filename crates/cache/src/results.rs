//! The sub-query result cache: `primitive triple pattern → solutions`.
//!
//! A hit answers a primitive pattern entirely at the initiator — no
//! lookup, no provider contact, no result shipping. Because results are
//! the most expensive entries to keep coherent, admission is guarded by
//! a TinyLFU-style frequency sketch: a candidate only enters a full
//! cache if its estimated request popularity beats the eviction
//! victim's, so one-off patterns cannot wash out a hot working set.
//!
//! Validity is the strictest of the three layers: the snapshot must
//! match the key's row version *and* the ring epoch *and* every
//! provider recorded at fill time must still be alive. The liveness
//! check mirrors cold-path semantics — a cold query that contacts a
//! silently failed provider times out and loses that provider's
//! solutions, so a cached result taken while it was alive must not be
//! served after it dies.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use rdfmesh_chord::Id;
use rdfmesh_net::NodeId;
use rdfmesh_rdf::TriplePattern;
use rdfmesh_sparql::Rows;

use crate::sketch::FrequencySketch;
use crate::Miss;

/// One cached primitive-pattern result.
#[derive(Debug, Clone)]
pub struct ResultEntry {
    /// The solutions produced for the pattern.
    pub solutions: Rows,
    /// Storage nodes whose triples contributed; all must still be alive
    /// for the entry to be served.
    pub providers: Vec<NodeId>,
    /// The index key the pattern resolved to.
    pub key: Id,
    /// Row version observed at fill time.
    pub version: u64,
    /// Ring epoch observed at fill time.
    pub epoch: u64,
    /// Serialized size charged against the byte budget.
    pub bytes: usize,
}

/// Deterministic 64-bit hash of a pattern for the frequency sketch.
/// `DefaultHasher::new()` uses fixed SipHash keys, so the same pattern
/// hashes identically across runs and processes.
fn pattern_hash(pattern: &TriplePattern) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pattern.hash(&mut h);
    h.finish()
}

/// A byte-budgeted map from primitive patterns to result snapshots with
/// sketch-gated admission.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<TriplePattern, ResultEntry>,
    order: VecDeque<TriplePattern>,
    used_bytes: usize,
    budget_bytes: usize,
    sketch: FrequencySketch,
}

impl ResultCache {
    /// An empty cache bounded by `budget_bytes` of serialized results.
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            used_bytes: 0,
            budget_bytes,
            sketch: FrequencySketch::new(1024),
        }
    }

    /// Records one request for `pattern` in the popularity sketch. Called
    /// on every attempt (hit or miss) so admission sees true demand.
    pub fn touch(&mut self, pattern: &TriplePattern) {
        self.sketch.record(pattern_hash(pattern));
    }

    /// The cached solutions for `pattern`, if the snapshot is still
    /// coherent: version and epoch match and every recorded provider
    /// satisfies `alive`. Stale entries are dropped, not served.
    pub fn get(
        &mut self,
        pattern: &TriplePattern,
        version: u64,
        epoch: u64,
        alive: &dyn Fn(NodeId) -> bool,
    ) -> Result<Rows, Miss> {
        let Some(e) = self.entries.get(pattern) else {
            return Err(Miss::Absent);
        };
        let fresh =
            e.version == version && e.epoch == epoch && e.providers.iter().all(|&n| alive(n));
        if fresh {
            return Ok(e.solutions.clone());
        }
        if let Some(dropped) = self.entries.remove(pattern) {
            self.used_bytes -= dropped.bytes;
        }
        Err(Miss::Stale)
    }

    /// Offers a result for admission. Returns `true` if stored; `false`
    /// if it was too large for the whole budget or lost the popularity
    /// contest against an eviction victim.
    pub fn insert(&mut self, pattern: TriplePattern, entry: ResultEntry) -> bool {
        if entry.bytes > self.budget_bytes {
            return false;
        }
        if let Some(old) = self.entries.remove(&pattern) {
            self.used_bytes -= old.bytes;
        }
        let candidate = self.sketch.estimate(pattern_hash(&pattern));
        while self.used_bytes + entry.bytes > self.budget_bytes {
            let Some(victim) = self.order.front().cloned() else { break };
            if !self.entries.contains_key(&victim) {
                // Already dropped by validate-on-use; discard the slot.
                self.order.pop_front();
                continue;
            }
            if self.sketch.estimate(pattern_hash(&victim)) >= candidate {
                // The resident entry is at least as popular: reject the
                // candidate rather than churn the working set.
                return false;
            }
            self.order.pop_front();
            if let Some(evicted) = self.entries.remove(&victim) {
                self.used_bytes -= evicted.bytes;
            }
        }
        self.used_bytes += entry.bytes;
        self.order.push_back(pattern.clone());
        self.entries.insert(pattern, entry);
        true
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Drops every entry (the popularity sketch is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::TermPattern;

    fn pat(n: u64) -> TriplePattern {
        TriplePattern {
            subject: TermPattern::var(&format!("s{n}")),
            predicate: TermPattern::var(&format!("p{n}")),
            object: TermPattern::var(&format!("o{n}")),
        }
    }

    fn entry(bytes: usize) -> ResultEntry {
        ResultEntry {
            solutions: Rows::new(),
            providers: vec![NodeId(1)],
            key: Id(1),
            version: 0,
            epoch: 0,
            bytes,
        }
    }

    #[test]
    fn version_epoch_and_liveness_gate_hits() {
        let mut c = ResultCache::new(1024);
        assert!(c.insert(pat(1), entry(100)));
        let all_alive: &dyn Fn(NodeId) -> bool = &|_| true;
        assert!(c.get(&pat(1), 0, 0, all_alive).is_ok());
        // Stale version drops the entry.
        assert_eq!(c.get(&pat(1), 1, 0, all_alive), Err(Miss::Stale));
        assert_eq!(c.get(&pat(1), 0, 0, all_alive), Err(Miss::Absent));
        assert_eq!(c.used_bytes(), 0);
        // A dead recorded provider also drops it.
        assert!(c.insert(pat(2), entry(100)));
        let n1_dead: &dyn Fn(NodeId) -> bool = &|n| n != NodeId(1);
        assert_eq!(c.get(&pat(2), 0, 0, n1_dead), Err(Miss::Stale));
    }

    #[test]
    fn sketch_admission_protects_popular_victim() {
        let mut c = ResultCache::new(100);
        // Make pat(1) popular, then resident.
        for _ in 0..5 {
            c.touch(&pat(1));
        }
        assert!(c.insert(pat(1), entry(100)));
        // An unpopular candidate cannot displace it...
        c.touch(&pat(2));
        assert!(!c.insert(pat(2), entry(100)));
        assert!(c.get(&pat(1), 0, 0, &|_| true).is_ok());
        // ...but a more popular one can.
        for _ in 0..10 {
            c.touch(&pat(3));
        }
        assert!(c.insert(pat(3), entry(100)));
        assert_eq!(c.get(&pat(1), 0, 0, &|_| true), Err(Miss::Absent));
    }

    #[test]
    fn oversized_entry_rejected_outright() {
        let mut c = ResultCache::new(50);
        assert!(!c.insert(pat(1), entry(51)));
        assert!(c.is_empty());
    }
}
