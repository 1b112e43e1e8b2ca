//! The one byte codec: the primitives every byte format of rdfmesh is
//! written in and read back through — the socket frames (solution sets,
//! expressions, the live protocol's messages, membership control) and
//! the persistent store's files (segment blocks and footers, the WAL, the
//! dictionary log).
//!
//! Writers append to a `Vec<u8>`: little-endian `u32` / `u64`, LEB128
//! varints, `u32`-length-prefixed strings and tagged terms. [`Reader`] is
//! their checked inverse: every read validates its bounds and returns a
//! [`DecodeError`] instead of panicking, and a count is refused when the
//! bytes left cannot hold that many items ([`Reader::bounded`]), so what
//! a decoder allocates for a count is bounded by its input. Bytes from a
//! socket or a disk are hostile until a reader has accepted them.
//! `docs/DEPLOYMENT.md` (frames) and `docs/STORAGE.md` (files) give the
//! layouts built from these primitives.

use crate::term::{BlankNode, Iri, Literal, LiteralKind, Term};

/// Bytes that do not decode: truncated, inconsistent or of an unknown
/// kind. Converts into an `io::Error` of kind `InvalidData`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(
    /// What was wrong with the bytes.
    pub &'static str,
);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for std::io::Error {
    fn from(e: DecodeError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

// Term kind tags: the byte a term's encoding starts with.
const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_PLAIN: u8 = 2;
const TAG_LANG: u8 = 3;
const TAG_TYPED: u8 = 4;

/// Whether a term of kind `kind` has a head (language tag or datatype).
#[inline]
pub fn has_head(kind: u8) -> bool {
    matches!(kind, TAG_LANG | TAG_TYPED)
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// `n` as LEB128 — 7 bits per byte, low group first, high bit set on
/// every byte but the last — written into `buf`; returns the bytes used.
/// For encoders that write through something other than a `Vec<u8>`.
#[inline]
pub fn leb128(mut n: u64, buf: &mut [u8; 10]) -> &[u8] {
    let mut len = 0;
    while n >= 0x80 {
        buf[len] = n as u8 | 0x80;
        n >>= 7;
        len += 1;
    }
    buf[len] = n as u8;
    &buf[..=len]
}

/// Appends `n` as LEB128 (inverse of [`Reader::varint`]).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(leb128(n, &mut [0; 10]));
}

/// A term as its kind tag and its body in two pieces, `head ++ tail`:
/// `head` is the language tag or datatype IRI of a tagged / typed
/// literal and empty for every other kind, `tail` the IRI, label or
/// lexical form. [`build_term`] is the inverse.
#[inline]
pub fn term_parts(term: &Term) -> (u8, &[u8], &[u8]) {
    let (kind, head, tail) = match term {
        Term::Iri(iri) => (TAG_IRI, "", iri.as_str()),
        Term::Blank(b) => (TAG_BLANK, "", b.as_str()),
        Term::Literal(lit) => match lit.kind() {
            LiteralKind::Plain => (TAG_PLAIN, "", lit.lexical()),
            LiteralKind::LanguageTagged(tag) => (TAG_LANG, tag.as_str(), lit.lexical()),
            LiteralKind::Typed(dt) => (TAG_TYPED, dt.as_str(), lit.lexical()),
        },
    };
    (kind, head.as_bytes(), tail.as_bytes())
}

/// Validates and builds a term from its kind tag and the two pieces
/// [`term_parts`] splits it into.
pub fn build_term(kind: u8, head: &str, tail: &str) -> Result<Term, DecodeError> {
    match kind {
        TAG_IRI => Ok(Term::Iri(Iri::new(tail).map_err(|_| DecodeError("invalid IRI"))?)),
        TAG_BLANK => {
            Ok(Term::Blank(BlankNode::new(tail).map_err(|_| DecodeError("invalid blank node"))?))
        }
        TAG_PLAIN => Ok(Term::Literal(Literal::plain(tail))),
        TAG_LANG => Ok(Term::Literal(Literal::lang(tail, head))),
        TAG_TYPED => {
            let dt = Iri::new(head).map_err(|_| DecodeError("invalid datatype"))?;
            Ok(Term::Literal(Literal::typed(tail, dt)))
        }
        _ => Err(DecodeError("unknown term tag")),
    }
}

/// Appends a tagged RDF term standing alone — a pattern constant, an
/// expression operand: its tag byte, its tail, and its head if it has
/// one, each piece a `u32`-length-prefixed string (inverse of
/// [`Reader::term`]).
pub fn put_term(out: &mut Vec<u8>, term: &Term) {
    let (kind, head, tail) = term_parts(term);
    out.push(kind);
    put_bytes(out, tail);
    if has_head(kind) {
        put_bytes(out, head);
    }
}

/// Checks that `bytes` are UTF-8.
pub fn utf8(bytes: &[u8]) -> Result<&str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError("invalid UTF-8"))
}

/// A checked cursor over bytes from outside: every read validates its
/// bounds and returns a [`DecodeError`] instead of panicking, so a
/// malformed or truncated frame or file is rejected, never trusted.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes read so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads `len` raw bytes.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if len > self.remaining() {
            return Err(DecodeError("truncated"));
        }
        let chunk = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(chunk)
    }

    /// Reads `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("N-byte slice"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let byte = *self.bytes.get(self.pos).ok_or(DecodeError("truncated"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        utf8(self.take(len)?)
    }

    /// Reads a LEB128 integer (inverse of [`put_varint`]); one wider than
    /// a `usize` is an error.
    #[inline]
    pub fn varint(&mut self) -> Result<usize, DecodeError> {
        let mut value = 0usize;
        for shift in (0..usize::BITS).step_by(7) {
            let byte = self.u8()?;
            let bits = usize::from(byte & 0x7F);
            if (bits << shift) >> shift != bits {
                break;
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError("varint overflow"))
    }

    /// The count rule: `n` items that each occupy at least `unit` bytes
    /// of what is left to read, or an error if the remaining bytes cannot
    /// hold them — which makes `n` safe to allocate for.
    pub fn bounded(&self, n: usize, unit: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(unit) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError("count exceeds the bytes left")),
        }
    }

    /// Reads a LEB128 count under the count rule ([`Reader::bounded`]).
    pub fn count(&mut self, unit: usize) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        self.bounded(n, unit)
    }

    /// Reads a little-endian `u32` count under the count rule
    /// ([`Reader::bounded`]) — the live protocol's lists count this way.
    pub fn u32_count(&mut self, unit: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        self.bounded(n, unit)
    }

    /// Reads a tagged RDF term (inverse of [`put_term`]).
    pub fn term(&mut self) -> Result<Term, DecodeError> {
        let kind = self.u8()?;
        let tail = self.str()?;
        let head = if has_head(kind) { self.str()? } else { "" };
        build_term(kind, head, tail)
    }

    /// Asserts the bytes were consumed exactly: trailing bytes are a
    /// framing error, not padding.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_boundary_values() {
        let samples = [0, 1, 127, 128, 129, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        let mut buf = Vec::new();
        for &v in &samples {
            put_varint(&mut buf, v);
        }
        assert_eq!(buf[..4], [0, 1, 0x7F, 0x80]);
        let mut r = Reader::new(&buf);
        for &v in &samples {
            assert_eq!(r.varint().map(|n| n as u64), Ok(v));
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_overflow_are_errors() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        assert!(Reader::new(&buf[..1]).varint().is_err());
        let wide = [&[0xFF; 9][..], &[0x7F]].concat();
        assert_eq!(Reader::new(&wide).varint(), Err(DecodeError("varint overflow")));
        assert!(Reader::new(&[1, 2, 3]).u32().is_err());
        assert!(Reader::new(&[]).u8().is_err());
        let mut r = Reader::new(&[1, 0, 0, 0]);
        assert!(r.str().is_err(), "length beyond the bytes");
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut r = Reader::new(&[3, 9, 9, 9]);
        assert_eq!(r.count(1), Ok(3));
        assert!(Reader::new(&[3, 9, 9, 9]).count(2).is_err());
        let r = Reader::new(&[0; 30]);
        assert_eq!(r.bounded(10, 3), Ok(10));
        assert!(r.bounded(11, 3).is_err());
        assert!(r.bounded(usize::MAX, 2).is_err(), "overflowing product");
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(r.u32_count(1).is_err());
    }

    #[test]
    fn terms_round_trip_through_their_parts() {
        let terms = [
            Term::iri("http://e/a"),
            Term::blank("b0"),
            Term::literal("plain"),
            Term::from(Literal::lang("chat", "fr")),
            Term::from(Literal::typed("42", Iri::new("http://e/int").unwrap())),
        ];
        let mut out = Vec::new();
        for t in &terms {
            put_term(&mut out, t);
            let (kind, head, tail) = term_parts(t);
            assert_eq!(&build_term(kind, utf8(head).unwrap(), utf8(tail).unwrap()).unwrap(), t);
        }
        let mut r = Reader::new(&out);
        for t in &terms {
            assert_eq!(&r.term().unwrap(), t);
        }
        r.finish().unwrap();
        assert!(build_term(9, "", "x").is_err());
        assert!(build_term(TAG_IRI, "", "not an iri").is_err());
        let err: std::io::Error = DecodeError("x").into();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
