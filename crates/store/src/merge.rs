//! Multi-level shadow merge: the one resolution rule for reads,
//! compaction, and bulk rebuilds.
//!
//! The levelled store answers "is key `k` live?" by consulting sources
//! newest-first: the write overlay shadows every sealed level, and a
//! newer level shadows an older one. Within a single source *rank*, an
//! add wins over a tombstone for the same key (a merged level may carry
//! both: the add from its newer constituent re-asserting a key the
//! older constituent had deleted).
//!
//! [`ShadowMerge`] streams that rule over any number of strictly-sorted
//! key sources: it yields each distinct key exactly once, paired with
//! the winning entry's verdict (`true` = live add, `false` = tombstone).
//! Scans keep only the `true`s; compactions write both streams out.
//! When one source alone has keys — a scan of a bulk-loaded store, one
//! level and an empty overlay — there is nothing to shadow, and its keys
//! pass straight through with no heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::segment::Key;

/// One sorted key stream feeding a [`ShadowMerge`].
pub(crate) struct ShadowSource<'a> {
    /// Shadowing priority: lower ranks win. The overlay is rank 0,
    /// level *i* (newest-first) is rank *i + 1*.
    pub rank: u32,
    /// Whether this stream's keys are tombstones.
    pub is_del: bool,
    /// The strictly increasing keys.
    pub iter: Box<dyn Iterator<Item = Key> + 'a>,
}

/// Heap entry ordering: key asc, then rank asc, then adds before dels —
/// so the first entry popped for a key is its winning verdict.
type Entry = Reverse<(Key, u32, bool, usize)>;

/// Streams `(key, live)` pairs, one per distinct key across all
/// sources, resolved newest-rank-first with add-beats-del inside a rank.
pub(crate) struct ShadowMerge<'a> {
    sources: Vec<ShadowSource<'a>>,
    heap: BinaryHeap<Entry>,
    /// The one source that had keys when the merge began, if only one
    /// had: the heap holds at most its first key, the rest are read
    /// straight from it.
    lone: Option<usize>,
}

impl<'a> ShadowMerge<'a> {
    pub(crate) fn new(sources: Vec<ShadowSource<'a>>) -> ShadowMerge<'a> {
        let mut merge = ShadowMerge { sources, heap: BinaryHeap::new(), lone: None };
        for i in 0..merge.sources.len() {
            merge.refill(i);
        }
        if let [Reverse((.., i))] = merge.heap.as_slice() {
            merge.lone = Some(*i);
        }
        merge
    }

    /// Whether the keys pass straight through from one source.
    #[cfg(test)]
    pub(crate) fn passes_through(&self) -> bool {
        self.lone.is_some()
    }

    fn refill(&mut self, i: usize) {
        let src = &mut self.sources[i];
        if let Some(k) = src.iter.next() {
            self.heap.push(Reverse((k, src.rank, src.is_del, i)));
        }
    }
}

impl Iterator for ShadowMerge<'_> {
    /// `(key, live)`: `true` when the winning entry is an add.
    type Item = (Key, bool);

    fn next(&mut self) -> Option<(Key, bool)> {
        if let (Some(i), true) = (self.lone, self.heap.is_empty()) {
            let src = &mut self.sources[i];
            return src.iter.next().map(|key| (key, !src.is_del));
        }
        let Reverse((key, _, is_del, src)) = self.heap.pop()?;
        if self.lone.is_some() {
            return Some((key, !is_del));
        }
        self.refill(src);
        // Shadowed entries for the same key from older ranks.
        while let Some(&Reverse((k, _, _, s))) = self.heap.peek() {
            if k != key {
                break;
            }
            self.heap.pop();
            self.refill(s);
        }
        Some((key, !is_del))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rank: u32, is_del: bool, keys: Vec<Key>) -> ShadowSource<'static> {
        ShadowSource { rank, is_del, iter: Box::new(keys.into_iter()) }
    }

    fn k(n: u32) -> Key {
        (n, 0, 0)
    }

    #[test]
    fn newer_rank_shadows_older() {
        // Overlay deletes key 1; level 1 added keys 1 and 2.
        let got: Vec<_> = ShadowMerge::new(vec![
            src(0, true, vec![k(1)]),
            src(1, false, vec![k(1), k(2)]),
        ])
        .collect();
        assert_eq!(got, vec![(k(1), false), (k(2), true)]);
    }

    #[test]
    fn add_beats_del_within_a_rank() {
        // A merged level carrying both verdicts for key 3: live.
        let got: Vec<_> = ShadowMerge::new(vec![
            src(1, false, vec![k(3)]),
            src(1, true, vec![k(3)]),
        ])
        .collect();
        assert_eq!(got, vec![(k(3), true)]);
    }

    #[test]
    fn three_levels_resolve_in_order() {
        // key 5: added at oldest, deleted mid, re-added newest → live;
        // key 6: added oldest, deleted mid → dead;
        // key 7: only oldest → live.
        let got: Vec<_> = ShadowMerge::new(vec![
            src(1, false, vec![k(5)]),
            src(2, true, vec![k(5), k(6)]),
            src(3, false, vec![k(5), k(6), k(7)]),
        ])
        .collect();
        assert_eq!(got, vec![(k(5), true), (k(6), false), (k(7), true)]);
    }

    #[test]
    fn a_lone_source_passes_through_and_two_take_the_merge() {
        // Empty sources beside it do not count: the overlay of a
        // bulk-loaded store is one.
        let lone = || vec![src(0, false, vec![]), src(1, false, vec![k(1), k(2), k(3)])];
        let merge = ShadowMerge::new(lone());
        assert!(merge.passes_through());
        assert_eq!(merge.collect::<Vec<_>>(), vec![(k(1), true), (k(2), true), (k(3), true)]);
        let dels = ShadowMerge::new(vec![src(2, true, vec![k(4), k(5)])]);
        assert!(dels.passes_through());
        assert_eq!(dels.collect::<Vec<_>>(), vec![(k(4), false), (k(5), false)]);
        let mut two = lone();
        two.push(src(0, true, vec![k(2)]));
        let merge = ShadowMerge::new(two);
        assert!(!merge.passes_through());
        assert_eq!(merge.collect::<Vec<_>>(), vec![(k(1), true), (k(2), false), (k(3), true)]);
    }

    #[test]
    fn empty_sources_yield_nothing() {
        assert_eq!(ShadowMerge::new(vec![]).next(), None);
        assert_eq!(ShadowMerge::new(vec![src(0, false, vec![])]).next(), None);
    }
}
