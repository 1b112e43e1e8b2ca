//! Chord identifiers and modular interval arithmetic.
//!
//! Identifiers live on a ring of size `2^m` for a configurable bit width
//! `m ≤ 64` (the paper's Fig. 1 uses a 4-bit identifier space). All the
//! interval tests Chord needs — open/closed variants that wrap around
//! zero — are centralized here.

use std::fmt;

use crate::hash::{sha1_u64, Sha1};

/// An identifier on the Chord ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u64);

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The identifier space `[0, 2^m)` with its modular arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpace {
    bits: u32,
}

impl IdSpace {
    /// An `m`-bit identifier space. Panics unless `1 ≤ m ≤ 64`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "id space must be 1..=64 bits");
        IdSpace { bits }
    }

    /// The bit width `m`.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The ring size `2^m` (saturating at `u64::MAX` for m = 64).
    pub fn size(self) -> u128 {
        1u128 << self.bits
    }

    fn mask(self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Truncates a raw value into the space.
    pub fn id(self, value: u64) -> Id {
        Id(value & self.mask())
    }

    /// Hashes arbitrary bytes into the space (SHA-1, truncated).
    pub fn hash(self, data: &[u8]) -> Id {
        self.id(sha1_u64(data))
    }

    /// Hashes a multi-part key: parts are length-prefixed so that
    /// `("ab","c")` and `("a","bc")` hash differently. This is the
    /// `Hash(si, pi)` of the paper's two-level index.
    /// The parts stream into the hasher; nothing is concatenated.
    pub fn hash_parts(self, parts: &[&str]) -> Id {
        let mut hasher = Sha1::new();
        for p in parts {
            hasher.update(&(p.len() as u64).to_be_bytes());
            hasher.update(p.as_bytes());
        }
        self.id(hasher.finish_u64())
    }

    /// `id + 2^k mod 2^m` — the k-th finger start.
    pub fn finger_start(self, id: Id, k: u32) -> Id {
        debug_assert!(k < self.bits);
        self.id(id.0.wrapping_add(1u64 << k))
    }

    /// `a + d mod 2^m`.
    pub fn add(self, a: Id, d: u64) -> Id {
        self.id(a.0.wrapping_add(d))
    }

    /// Clockwise distance from `a` to `b`.
    pub fn distance(self, a: Id, b: Id) -> u64 {
        b.0.wrapping_sub(a.0) & self.mask()
    }

    /// `x ∈ (a, b)` on the ring (exclusive both ends). Empty when
    /// `a == b`... except that on a ring, `(a, a)` is everything but `a`,
    /// which is the convention Chord's routing requires.
    pub fn in_open(self, x: Id, a: Id, b: Id) -> bool {
        if a == b {
            return x != a;
        }
        let d_ab = self.distance(a, b);
        let d_ax = self.distance(a, x);
        d_ax > 0 && d_ax < d_ab
    }

    /// `x ∈ (a, b]` on the ring. When `a == b` the interval is the whole
    /// ring, so every `x` qualifies (single-node ring owns every key).
    pub fn in_open_closed(self, x: Id, a: Id, b: Id) -> bool {
        if a == b {
            return true;
        }
        let d_ab = self.distance(a, b);
        let d_ax = self.distance(a, x);
        d_ax > 0 && d_ax <= d_ab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_masks_high_bits() {
        let s = IdSpace::new(4);
        assert_eq!(s.id(16), Id(0));
        assert_eq!(s.id(31), Id(15));
        assert_eq!(s.size(), 16);
    }

    #[test]
    fn open_closed_interval_without_wrap() {
        let s = IdSpace::new(4);
        assert!(s.in_open_closed(Id(5), Id(3), Id(7)));
        assert!(s.in_open_closed(Id(7), Id(3), Id(7)));
        assert!(!s.in_open_closed(Id(3), Id(3), Id(7)));
        assert!(!s.in_open_closed(Id(8), Id(3), Id(7)));
    }

    #[test]
    fn intervals_wrap_around_zero() {
        let s = IdSpace::new(4);
        // (12, 4]: 13,14,15,0,1,2,3,4
        for x in [13, 14, 15, 0, 1, 2, 3, 4] {
            assert!(s.in_open_closed(Id(x), Id(12), Id(4)), "{x}");
        }
        for x in [12, 5, 8, 11] {
            assert!(!s.in_open_closed(Id(x), Id(12), Id(4)), "{x}");
        }
    }

    #[test]
    fn degenerate_interval_is_full_ring() {
        let s = IdSpace::new(4);
        // Single-node ring: everything in (n, n].
        assert!(s.in_open_closed(Id(3), Id(7), Id(7)));
        assert!(s.in_open_closed(Id(7), Id(7), Id(7)));
        // Open version excludes the endpoint only.
        assert!(s.in_open(Id(3), Id(7), Id(7)));
        assert!(!s.in_open(Id(7), Id(7), Id(7)));
    }

    #[test]
    fn open_interval_excludes_both_ends() {
        let s = IdSpace::new(4);
        assert!(s.in_open(Id(5), Id(3), Id(7)));
        assert!(!s.in_open(Id(3), Id(3), Id(7)));
        assert!(!s.in_open(Id(7), Id(3), Id(7)));
    }

    #[test]
    fn finger_starts_wrap() {
        let s = IdSpace::new(4);
        assert_eq!(s.finger_start(Id(15), 0), Id(0));
        assert_eq!(s.finger_start(Id(12), 3), Id(4));
        assert_eq!(s.finger_start(Id(1), 2), Id(5));
    }

    #[test]
    fn distance_is_clockwise() {
        let s = IdSpace::new(4);
        assert_eq!(s.distance(Id(14), Id(2)), 4);
        assert_eq!(s.distance(Id(2), Id(14)), 12);
        assert_eq!(s.distance(Id(5), Id(5)), 0);
    }

    #[test]
    fn hash_parts_hashes_the_length_prefixed_concatenation() {
        let s = IdSpace::new(64);
        let mut buf = Vec::new();
        for p in ["SP", "<http://e/alice>", "", "\"v\"@en"] {
            buf.extend_from_slice(&(p.len() as u64).to_be_bytes());
            buf.extend_from_slice(p.as_bytes());
        }
        assert_eq!(s.hash_parts(&["SP", "<http://e/alice>", "", "\"v\"@en"]), s.hash(&buf));
    }

    #[test]
    fn hash_parts_distinguishes_boundaries() {
        let s = IdSpace::new(32);
        assert_ne!(s.hash_parts(&["ab", "c"]), s.hash_parts(&["a", "bc"]));
        assert_eq!(s.hash_parts(&["ab", "c"]), s.hash_parts(&["ab", "c"]));
    }

    #[test]
    fn full_width_space() {
        let s = IdSpace::new(64);
        assert_eq!(s.id(u64::MAX), Id(u64::MAX));
        assert!(s.in_open_closed(Id(0), Id(u64::MAX), Id(0)));
    }
}
