//! The triple index: a set of id triples kept in three permutations.
//!
//! SPO, POS and OSP orders together answer all eight triple-pattern kinds
//! of Sect. IV-C with one range scan each. [`Plan`] is the one mapping
//! from a pattern to that scan — a permutation, an inclusive key range and
//! the repeated-variable check — shared by every store that keeps id
//! triples, in memory ([`TripleIndex`]) or in sorted segments.

use std::collections::BTreeSet;

use crate::dictionary::Dictionary;
use crate::triple::{PatternKind, RepeatedVars, TermPattern, TriplePattern};

/// Three term ids, in some permutation's component order.
pub type IdTriple = (u32, u32, u32);

/// The smallest id component.
pub const ID_MIN: u32 = 0;
/// The largest id component.
pub const ID_MAX: u32 = u32::MAX;

/// The component order of a key in some index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perm {
    /// `(subject, predicate, object)`
    Spo,
    /// `(predicate, object, subject)`
    Pos,
    /// `(object, subject, predicate)`
    Osp,
}

impl Perm {
    /// The three permutations, in index order.
    pub const ALL: [Perm; 3] = [Perm::Spo, Perm::Pos, Perm::Osp];

    /// The component order in lowercase: `"spo"`, `"pos"` or `"osp"`.
    pub fn name(self) -> &'static str {
        match self {
            Perm::Spo => "spo",
            Perm::Pos => "pos",
            Perm::Osp => "osp",
        }
    }

    /// Reorders an SPO key into this permutation's component order.
    pub fn encode(self, (s, p, o): IdTriple) -> IdTriple {
        match self {
            Perm::Spo => (s, p, o),
            Perm::Pos => (p, o, s),
            Perm::Osp => (o, s, p),
        }
    }

    /// Recovers the SPO key from a key in this permutation's order.
    pub fn decode(self, (a, b, c): IdTriple) -> IdTriple {
        match self {
            Perm::Spo => (a, b, c),
            Perm::Pos => (c, a, b),
            Perm::Osp => (b, c, a),
        }
    }
}

/// How to answer a pattern from a triple index: the keys of `perm` in
/// `lo..=hi`, decoded to SPO, that [`Plan::admits`].
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The permutation scanned.
    pub perm: Perm,
    /// The first key of the range, in `perm` order.
    pub lo: IdTriple,
    /// The last key of the range, in `perm` order.
    pub hi: IdTriple,
    repeated: RepeatedVars,
}

impl Plan {
    /// The plan for `pattern`, its constants resolved in `dict`; `None`
    /// when a constant is not even in the dictionary, so nothing matches.
    pub fn new(dict: &Dictionary, pattern: &TriplePattern) -> Option<Plan> {
        // Outer None: an unknown constant. Inner None: a variable.
        let id = |tp: &TermPattern| match tp {
            TermPattern::Var(_) => Some(None),
            TermPattern::Const(t) => dict.id(t).map(|id| Some(id.0)),
        };
        let (s, p, o) = (id(&pattern.subject)?, id(&pattern.predicate)?, id(&pattern.object)?);
        let (perm, bound) = match pattern.kind() {
            PatternKind::SPO | PatternKind::SP | PatternKind::S | PatternKind::None => {
                (Perm::Spo, [s, p, o])
            }
            PatternKind::PO | PatternKind::P => (Perm::Pos, [p, o, s]),
            PatternKind::SO | PatternKind::O => (Perm::Osp, [o, s, p]),
        };
        // The bound components lead in `perm` order; the rest span all ids.
        let [a, b, c] = bound;
        let lo = (a.unwrap_or(ID_MIN), b.unwrap_or(ID_MIN), c.unwrap_or(ID_MIN));
        let hi = (a.unwrap_or(ID_MAX), b.unwrap_or(ID_MAX), c.unwrap_or(ID_MAX));
        Some(Plan { perm, lo, hi, repeated: pattern.repeated_vars() })
    }

    /// True if the pattern repeats a variable, so a range key may still be
    /// rejected by [`Plan::admits`].
    pub fn filters(&self) -> bool {
        self.repeated.any()
    }

    /// Whether the SPO key honours the pattern's repeated variables
    /// (`?x p ?x`). Interning is bijective, so this compares integers.
    pub fn admits(&self, (s, p, o): IdTriple) -> bool {
        self.repeated.consistent(s, p, o)
    }
}

/// A set of id triples, indexed in all three permutations.
#[derive(Debug, Default, Clone)]
pub struct TripleIndex {
    /// The keys in each permutation's order, in [`Perm::ALL`] order.
    sets: [BTreeSet<IdTriple>; 3],
}

impl TripleIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the SPO key `spo`. Returns `true` if it was not present.
    pub fn insert(&mut self, spo: IdTriple) -> bool {
        let added = self.sets[Perm::Spo as usize].insert(spo);
        if added {
            for perm in [Perm::Pos, Perm::Osp] {
                self.sets[perm as usize].insert(perm.encode(spo));
            }
        }
        added
    }

    /// Removes the SPO key `spo`. Returns `true` if it was present.
    pub fn remove(&mut self, spo: IdTriple) -> bool {
        let removed = self.sets[Perm::Spo as usize].remove(&spo);
        if removed {
            for perm in [Perm::Pos, Perm::Osp] {
                self.sets[perm as usize].remove(&perm.encode(spo));
            }
        }
        removed
    }

    /// True if the SPO key `spo` is present.
    pub fn contains(&self, spo: IdTriple) -> bool {
        self.sets[Perm::Spo as usize].contains(&spo)
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.sets.iter_mut().for_each(BTreeSet::clear);
    }

    /// Number of triples held.
    pub fn len(&self) -> usize {
        self.sets[Perm::Spo as usize].len()
    }

    /// True if the index holds no triple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every SPO key, ascending.
    pub fn iter(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.sets[Perm::Spo as usize].iter().copied()
    }

    /// The keys of `perm` in `lo..=hi`, ascending, in `perm` order.
    pub fn range(
        &self,
        perm: Perm,
        lo: IdTriple,
        hi: IdTriple,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        self.sets[perm as usize].range(lo..=hi).copied()
    }

    /// Invokes `f` with the SPO key of every triple `plan` matches.
    pub fn scan(&self, plan: &Plan, mut f: impl FnMut(IdTriple)) {
        for key in self.range(plan.perm, plan.lo, plan.hi) {
            let spo = plan.perm.decode(key);
            if plan.admits(spo) {
                f(spo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn perms_round_trip() {
        for perm in Perm::ALL {
            assert_eq!(perm.decode(perm.encode((1, 2, 3))), (1, 2, 3));
        }
        assert_eq!(Perm::Pos.encode((1, 2, 3)), (2, 3, 1));
        assert_eq!(Perm::Osp.encode((1, 2, 3)), (3, 1, 2));
    }

    #[test]
    fn every_permutation_follows_inserts_and_removes() {
        let mut index = TripleIndex::new();
        assert!(index.insert((1, 2, 3)));
        assert!(!index.insert((1, 2, 3)));
        assert!(index.insert((3, 2, 1)));
        for perm in Perm::ALL {
            let all: Vec<_> = index.range(perm, (0, 0, 0), (ID_MAX, ID_MAX, ID_MAX)).collect();
            assert_eq!(all.len(), 2, "{perm:?}");
            assert!(all.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(index.remove((1, 2, 3)));
        assert!(!index.remove((1, 2, 3)));
        assert!(!index.contains((1, 2, 3)) && index.contains((3, 2, 1)));
        assert_eq!(index.range(Perm::Osp, (1, 0, 0), (1, ID_MAX, ID_MAX)).count(), 1);
        index.clear();
        assert!(index.is_empty());
    }

    #[test]
    fn plans_bind_the_leading_components() {
        let mut dict = Dictionary::new();
        let [a, p] =
            [dict.intern(&Term::iri("http://e/a")).0, dict.intern(&Term::iri("http://e/p")).0];
        let v = TermPattern::var;
        let iri = |s: &str| Term::iri(&format!("http://e/{s}"));
        let plan = |pattern| Plan::new(&dict, &pattern).map(|p| (p.perm, p.lo, p.hi));
        assert_eq!(
            plan(TriplePattern::new(v("s"), iri("p"), iri("a"))),
            Some((Perm::Pos, (p, a, ID_MIN), (p, a, ID_MAX)))
        );
        assert_eq!(
            plan(TriplePattern::new(iri("a"), v("p"), iri("a"))),
            Some((Perm::Osp, (a, a, ID_MIN), (a, a, ID_MAX)))
        );
        assert_eq!(
            plan(TriplePattern::new(iri("a"), iri("p"), iri("a"))),
            Some((Perm::Spo, (a, p, a), (a, p, a)))
        );
        assert_eq!(plan(TriplePattern::new(v("s"), iri("nope"), v("o"))), None);
        let repeated = Plan::new(&dict, &TriplePattern::new(v("x"), iri("p"), v("x"))).unwrap();
        assert!(repeated.filters() && repeated.admits((a, p, a)) && !repeated.admits((a, p, p)));
    }
}
