//! The in-memory staging area: parsed, dictionary-encoded triples.

use sordf_model::{ntriples, Dictionary, FxHashMap, ModelError, Oid, Term, TermTriple, Triple};

/// A dictionary plus the encoded triples, in parse order. This is the input
/// to both store builders and to schema discovery.
#[derive(Debug, Default, Clone)]
pub struct TripleSet {
    pub dict: Dictionary,
    pub triples: Vec<Triple>,
}

impl TripleSet {
    pub fn new() -> TripleSet {
        TripleSet::default()
    }

    /// Number of loaded triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Encode and add one term triple. Blank nodes are *skolemized* into
    /// IRIs (`urn:sordf:blank:<label>`) so that blank subjects participate
    /// in subject clustering like any other subject.
    pub fn add(&mut self, t: &TermTriple) -> Result<(), ModelError> {
        let enc = self.encode(t)?;
        self.triples.push(enc);
        Ok(())
    }

    /// Encode one term triple against this set's dictionary *without*
    /// adding it to the base triples — the write path of the delta store
    /// (new IRIs/strings are interned; the triple itself lands in a delta
    /// run, not in the base set).
    pub fn encode(&mut self, t: &TermTriple) -> Result<Triple, ModelError> {
        encode_triple_skolemized(&self.dict, t)
    }

    /// Load an N-Triples document.
    pub fn load_ntriples(&mut self, text: &str) -> Result<usize, ModelError> {
        let parsed = ntriples::parse_document(text)?;
        for t in &parsed {
            self.add(t)?;
        }
        Ok(parsed.len())
    }

    /// Bulk-add term triples (from a generator).
    pub fn extend_terms<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a TermTriple>,
    ) -> Result<usize, ModelError> {
        let mut n = 0;
        for t in triples {
            self.add(t)?;
            n += 1;
        }
        Ok(n)
    }

    /// A copy of the triples sorted in SPO order (the order schema discovery
    /// and the clustered builder require).
    pub fn sorted_spo(&self) -> Vec<Triple> {
        let mut v = self.triples.clone();
        v.sort_unstable_by_key(|t| t.key_spo());
        v
    }

    /// Deduplicate identical triples (RDF graphs are sets).
    pub fn dedup(&mut self) {
        self.triples.sort_unstable_by_key(|t| t.key_spo());
        self.triples.dedup();
    }
}

/// Encode one term against a bare dictionary, skolemizing blank nodes into
/// IRIs the same way [`TripleSet::add`] does — the write path of a live
/// generation interns against the generation's dictionary directly, without
/// owning a `TripleSet`.
pub fn encode_term_skolemized(dict: &Dictionary, t: &Term) -> Result<Oid, ModelError> {
    match t {
        Term::Blank(label) => Ok(dict.encode_iri(&Term::skolem_blank_iri(label))),
        other => dict.encode_term(other),
    }
}

/// Encode one term triple against a bare dictionary (see
/// [`encode_term_skolemized`]).
pub fn encode_triple_skolemized(dict: &Dictionary, t: &TermTriple) -> Result<Triple, ModelError> {
    let s = encode_term_skolemized(dict, &t.s)?;
    let p = encode_term_skolemized(dict, &t.p)?;
    let o = encode_term_skolemized(dict, &t.o)?;
    Ok(Triple::new(s, p, o))
}

/// Look one term up without interning, skolemizing blank nodes the way the
/// encode path does (shared scheme: [`Term::skolem_blank_iri`]).
pub fn term_oid_skolemized(dict: &Dictionary, t: &Term) -> Option<Oid> {
    match t {
        Term::Blank(label) => dict.iri_oid(&Term::skolem_blank_iri(label)),
        other => dict.term_oid(other),
    }
}

/// Distinct predicates a [`BatchResolver`] remembers. Real batches use a
/// handful; the bound only keeps a hostile batch of all-different
/// predicates from growing a second dictionary.
const PRED_CACHE: usize = 256;

/// Resolves the terms of **one write batch** to OIDs. A batch arrives
/// grouped by subject over a handful of predicates, and on a store-sized
/// dictionary every pool lookup is a cache miss: so the previous triple's
/// subject is compared before it is looked up again, and predicates resolve
/// through a small per-batch table. Objects go to the dictionary as they
/// are. Shared by every write path — insert, bulk load, delete.
#[must_use = "a resolver caches across the batch; resolve triples through one instance"]
pub struct BatchResolver<'d, 't> {
    dict: &'d Dictionary,
    subject: Option<(&'t Term, Oid)>,
    preds: FxHashMap<&'t str, Oid>,
}

impl<'d, 't> BatchResolver<'d, 't> {
    pub fn new(dict: &'d Dictionary) -> BatchResolver<'d, 't> {
        BatchResolver {
            dict,
            subject: None,
            preds: FxHashMap::default(),
        }
    }

    /// Encode one triple of the batch, interning unseen terms (blank nodes
    /// skolemized, see [`encode_term_skolemized`]).
    pub fn encode(&mut self, t: &'t TermTriple) -> Result<Triple, ModelError> {
        self.resolve(t, encode_term_skolemized)
    }

    /// Look one triple of the batch up without interning; `None` when one
    /// of its terms is unknown (it then matches nothing stored).
    pub fn lookup(&mut self, t: &'t TermTriple) -> Option<Triple> {
        self.resolve(t, |dict, term| term_oid_skolemized(dict, term).ok_or(()))
            .ok()
    }

    fn resolve<E>(
        &mut self,
        t: &'t TermTriple,
        term: impl Fn(&Dictionary, &Term) -> Result<Oid, E>,
    ) -> Result<Triple, E> {
        let s = match self.subject {
            Some((prev, oid)) if *prev == t.s => oid,
            _ => {
                let oid = term(self.dict, &t.s)?;
                self.subject = Some((&t.s, oid));
                oid
            }
        };
        let p = match &t.p {
            Term::Iri(iri) => match self.preds.get(iri.as_str()) {
                Some(&oid) => oid,
                None => {
                    let oid = term(self.dict, &t.p)?;
                    if self.preds.len() < PRED_CACHE {
                        self.preds.insert(iri, oid);
                    }
                    oid
                }
            },
            other => term(self.dict, other)?,
        };
        Ok(Triple::new(s, p, term(self.dict, &t.o)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_resolver_equals_term_by_term_resolution() {
        let parsed = ntriples::parse_document(
            r#"<http://e/s1> <http://e/p> <http://e/o> .
<http://e/s1> <http://e/q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/s1> <http://e/p> "plain" .
_:b <http://e/p> <http://e/s1> .
_:b <http://e/q> "chat"@fr .
<http://e/s1> <http://e/q> _:b ."#,
        )
        .unwrap();
        let (by_term, batched) = (Dictionary::new(), Dictionary::new());
        let mut resolver = BatchResolver::new(&batched);
        for t in &parsed {
            let want = encode_triple_skolemized(&by_term, t).unwrap();
            assert_eq!(resolver.encode(t).unwrap(), want);
        }
        assert_eq!(batched.pool_counts(), by_term.pool_counts());
        // Lookups: known triples resolve to the same OIDs, nothing interns.
        let mut resolver = BatchResolver::new(&batched);
        for t in &parsed {
            let want = encode_triple_skolemized(&by_term, t).unwrap();
            assert_eq!(resolver.lookup(t), Some(want));
        }
        let unknown = TermTriple::new(
            Term::iri("http://e/s1"),
            Term::iri("http://e/never"),
            Term::str("plain"),
        );
        assert_eq!(resolver.lookup(&unknown), None);
        assert_eq!(
            resolver.lookup(&parsed[0]).map(|t| t.s),
            batched.iri_oid("http://e/s1")
        );
        assert_eq!(batched.pool_counts(), by_term.pool_counts());
    }

    #[test]
    fn load_and_encode() {
        let mut ts = TripleSet::new();
        let n = ts
            .load_ntriples(
                r#"<http://e/s1> <http://e/p> <http://e/o> .
<http://e/s1> <http://e/q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b <http://e/p> <http://e/s1> ."#,
            )
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(ts.len(), 3);
        // Blank skolemized to an IRI.
        assert!(ts.dict.iri_oid("urn:sordf:blank:b").is_some());
        assert_eq!(ts.triples[1].o, Oid::from_int(42).unwrap());
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut ts = TripleSet::new();
        ts.load_ntriples(
            "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> <http://e/p> <http://e/o> .",
        )
        .unwrap();
        assert_eq!(ts.len(), 2);
        ts.dedup();
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn sorted_spo_is_sorted() {
        let mut ts = TripleSet::new();
        ts.load_ntriples(
            "<http://e/b> <http://e/p> <http://e/o> .\n<http://e/a> <http://e/p> <http://e/o> .",
        )
        .unwrap();
        let sorted = ts.sorted_spo();
        assert!(sorted.windows(2).all(|w| w[0].key_spo() <= w[1].key_spo()));
        // Original parse order untouched.
        assert_ne!(ts.triples[0].s, ts.triples[1].s);
    }
}
