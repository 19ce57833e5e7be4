//! Encoded and term-level triples.

use crate::oid::Oid;
use crate::term::Term;

/// A dictionary-encoded triple. 24 bytes, `Copy`; the unit of bulk loading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    pub s: Oid,
    pub p: Oid,
    pub o: Oid,
}

impl Triple {
    pub fn new(s: Oid, p: Oid, o: Oid) -> Triple {
        Triple { s, p, o }
    }

    /// Sort keys: SPO, and the two orders the permutation indexes keep.
    #[inline]
    pub fn key_spo(&self) -> (Oid, Oid, Oid) {
        (self.s, self.p, self.o)
    }
    #[inline]
    pub fn key_pso(&self) -> (Oid, Oid, Oid) {
        (self.p, self.s, self.o)
    }
    #[inline]
    pub fn key_pos(&self) -> (Oid, Oid, Oid) {
        (self.p, self.o, self.s)
    }
}

/// A triple of parsed terms, as produced by the N-Triples parser and the
/// synthetic data generators, before dictionary encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermTriple {
    pub s: Term,
    pub p: Term,
    pub o: Term,
}

impl TermTriple {
    pub fn new(s: Term, p: Term, o: Term) -> TermTriple {
        TermTriple { s, p, o }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<Triple>(), 24);
        let t = Triple::new(Oid::iri(1), Oid::iri(2), Oid::iri(3));
        let u = t; // Copy
        assert_eq!(t, u);
    }

    #[test]
    fn permutation_keys() {
        let t = Triple::new(Oid::iri(1), Oid::iri(2), Oid::iri(3));
        assert_eq!(t.key_pso(), (Oid::iri(2), Oid::iri(1), Oid::iri(3)));
        assert_eq!(t.key_pos(), (Oid::iri(2), Oid::iri(3), Oid::iri(1)));
    }
}
