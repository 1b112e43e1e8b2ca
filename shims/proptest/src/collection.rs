//! Strategies for collections of generated elements.

use std::collections::{BTreeMap, BTreeSet};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive-exclusive size range for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        assert!(self.lo < self.hi, "empty collection size range");
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        SizeRange { lo: r.start, hi: r.end }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() + 1 }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

/// A `Vec` of elements drawn from `element`, sized within `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `BTreeSet` of distinct elements drawn from `element`, sized within
/// `size` (best effort: tiny value spaces may cap the reachable size).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size: size.into() }
}

/// See [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let n = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < n && attempts < n * 64 + 256 {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}

/// A `BTreeMap` with keys from `keys` and values from `values`, sized
/// within `size` (best effort under key collisions).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy { keys, values, size: size.into() }
}

/// See [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = self.size.pick(rng);
        let mut map = BTreeMap::new();
        let mut attempts = 0usize;
        while map.len() < n && attempts < n * 64 + 256 {
            map.insert(self.keys.generate(rng), self.values.generate(rng));
            attempts += 1;
        }
        map
    }
}
