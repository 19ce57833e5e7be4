//! Generation pinning: the immutable unit a query executes against.
//!
//! A [`StoreGeneration`] bundles everything one *physical generation* of the
//! store consists of — the dictionary, and either the staging triple list
//! or the store layouts built over it. It is immutable once published, with
//! one carefully-scoped exception: the dictionary keeps growing *within* a
//! generation (inserts intern new terms, strictly append-only, through the
//! dictionary's own internal pool locks), which never invalidates an OID a
//! reader already holds.
//!
//! Queries pin a [`GenerationHandle`] (an `Arc` clone) plus a delta view at
//! query start and never look back at shared mutable state: a concurrent
//! reorganization builds a *new* `StoreGeneration` — with its own,
//! renumbered dictionary — and swaps the handle; in-flight queries keep the
//! old generation alive until they drop their pins. Readers never block on
//! a rebuild, and since the dictionary interns through `&self` (lock-free
//! reads, short internal writer locks per pool), a pinned dictionary never
//! blocks interning writers either — pins are plain `Arc` clones.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;

use sordf_columnar::BufferPool;
use sordf_model::{Dictionary, Oid, Triple};
use sordf_schema::EmergentSchema;

use crate::baseline::BaselineStore;
use crate::clustered::ClusteredStore;
use crate::delta::DeltaView;
use crate::reorg::{ClusterSpec, ReorgReport};

/// One physical generation of the store. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct StoreGeneration {
    /// The dictionary this generation's OIDs are numbered by. Append-only
    /// within the generation (interning goes through the dictionary's
    /// internal pool locks, `&self`); replaced wholesale — never renumbered
    /// in place — by a generation swap.
    pub dict: Arc<Dictionary>,
    /// The staging list: the base triples in load order, encoded under
    /// `dict`'s numbering, while no layout is built — **empty once one is**.
    /// A built generation holds each triple once, in its layouts, and reads
    /// its base back from them ([`Self::base`]).
    pub triples: Arc<Vec<Triple>>,
    /// Exhaustive permutation indexes (ParseOrder scheme), if built.
    pub baseline: Option<Arc<BaselineStore>>,
    /// The frozen emergent schema, if discovered.
    pub schema: Option<Arc<EmergentSchema>>,
    /// Sparse CS tables over parse-order OIDs (with the schema they use).
    pub cs_parse_order: Option<(Arc<ClusteredStore>, Arc<EmergentSchema>)>,
    /// The fully self-organized store (clustered OIDs, dense segments).
    pub clustered: Option<Arc<ClusteredStore>>,
    /// Clustering spec used for the clustered build (kept for reporting).
    pub spec: ClusterSpec,
    /// The clustering report, if self-organized.
    pub reorg_report: Option<ReorgReport>,
    /// String-pool size at the last string sort: interning past this
    /// watermark breaks string-OID value order until the next swap.
    pub strings_sorted_len: usize,
}

/// The shared handle queries clone at query start and a swap replaces
/// atomically (under the owner's state lock).
pub type GenerationHandle = Arc<StoreGeneration>;

impl StoreGeneration {
    /// A staging generation: dictionary + triples, nothing built yet.
    pub fn staging(dict: Dictionary, triples: Vec<Triple>) -> StoreGeneration {
        StoreGeneration {
            dict: Arc::new(dict),
            triples: Arc::new(triples),
            baseline: None,
            schema: None,
            cs_parse_order: None,
            clustered: None,
            spec: ClusterSpec::none(),
            reorg_report: None,
            strings_sorted_len: 0,
        }
    }

    /// Has any store layout been built over this generation?
    pub fn any_built(&self) -> bool {
        self.baseline.is_some() || self.cs_parse_order.is_some() || self.clustered.is_some()
    }

    /// The layout a built generation reads its base from: the clustered
    /// store, else the CS tables, else the baseline.
    fn base_layout(&self) -> Option<&dyn BaseLayout> {
        match (&self.clustered, &self.cs_parse_order, &self.baseline) {
            (Some(store), _, _) | (None, Some((store, _)), _) => Some(&**store),
            (None, None, Some(store)) => Some(&**store),
            (None, None, None) => None,
        }
    }

    /// Number of base triples, duplicates included.
    pub fn n_base(&self) -> usize {
        self.base_layout()
            .map_or(self.triples.len(), |layout| layout.n_triples())
    }

    /// The base triples: SPO-sorted, enumerated from a layout, once one is
    /// built; the staging list, in load order, before.
    pub fn base(&self, pool: &BufferPool) -> Cow<'_, [Triple]> {
        match self.base_layout() {
            Some(layout) => Cow::Owned(layout.triples_spo(pool)),
            None => Cow::Borrowed(&self.triples),
        }
    }

    /// How many times the base holds `t` (bulk loads keep duplicates).
    pub fn base_occurrences(&self, pool: &BufferPool, t: Triple) -> usize {
        match self.base_layout() {
            Some(layout) => layout.occurrences(pool, t),
            None => self.triples.iter().filter(|&&x| x == t).count(),
        }
    }

    /// Append the base triples of subject `s` to `out`, in SPO order.
    pub fn base_of_subject(&self, pool: &BufferPool, s: Oid, out: &mut Vec<Triple>) {
        match self.base_layout() {
            Some(layout) => layout.of_subject(pool, s, out),
            None => {
                let from = out.len();
                out.extend(self.triples.iter().filter(|t| t.s == s));
                out[from..].sort_unstable();
            }
        }
    }

    /// Pin this generation's dictionary: an `Arc` clone that keeps the
    /// dictionary alive for the pin's lifetime. Pins are free — they hold
    /// no lock, so they never block (or are blocked by) interning writers.
    pub fn pin_dict(&self) -> DictPin {
        DictPin::new(Arc::clone(&self.dict))
    }

    /// Check this generation's cross-structure invariants; panics (via
    /// `assert!`) on violation. Debug/stress builds call this after every
    /// build and swap — it is deliberately cheap enough (nothing per triple
    /// or per page) to run there unconditionally.
    pub fn debug_validate(&self) {
        assert!(
            !self.any_built() || self.triples.is_empty(),
            "a built generation holds its triples in its layouts alone, not \
             in a staging list"
        );
        let n = self.n_base();
        if let Some(baseline) = &self.baseline {
            assert_eq!(
                baseline.len(),
                n,
                "the baseline holds what the other layouts hold"
            );
        }
        assert!(
            self.strings_sorted_len <= self.dict.n_strings(),
            "strings_sorted_len {} exceeds string pool size {} — the sort \
             watermark may only lag the (append-only) pool, never lead it",
            self.strings_sorted_len,
            self.dict.n_strings()
        );
        for (store, label) in [
            (
                self.cs_parse_order.as_ref().map(|(c, _)| c),
                "cs_parse_order",
            ),
            (self.clustered.as_ref(), "clustered"),
        ] {
            let Some(store) = store else { continue };
            assert_eq!(
                store.n_triples(),
                n,
                "{label} store triple count must match the base triple set \
                 (regular + irregular partitions are exhaustive)"
            );
            let n_classes = match label {
                "cs_parse_order" => self
                    .cs_parse_order
                    .as_ref()
                    .map(|(_, s)| s.classes.len())
                    .unwrap_or(0),
                _ => self.schema.as_ref().map(|s| s.classes.len()).unwrap_or(0),
            };
            for seg in &store.segments {
                assert!(
                    (seg.class.0 as usize) < n_classes,
                    "{label} segment references class {} outside its schema \
                     ({} classes)",
                    seg.class.0,
                    n_classes
                );
            }
        }
    }
}

/// A built layout read back as the generation's base. A layout holds each
/// triple once (the clustered and CS-table stores in a segment's column or
/// side table, or among the irregular triples), so any built one can
/// enumerate the whole base and find a triple's or a subject's copies in it.
pub trait BaseLayout {
    /// Number of stored triples, duplicates included.
    fn n_triples(&self) -> usize;

    /// Every stored triple in SPO order, duplicates included.
    fn triples_spo(&self, pool: &BufferPool) -> Vec<Triple>;

    /// How many times the layout holds `t`.
    fn occurrences(&self, pool: &BufferPool, t: Triple) -> usize;

    /// Append the triples of subject `s` to `out`, in SPO order.
    fn of_subject(&self, pool: &BufferPool, s: Oid, out: &mut Vec<Triple>);
}

/// The triples of the SPO-sorted `base` that `view` leaves visible, in base
/// order. The view's tombstones are put in SPO order once and subtracted by
/// a merge cursor — O(base + tombstones · log), no per-triple probe — which
/// relies on the base being SPO-sorted whenever a delta exists (writes reach
/// a delta store only over a built generation, whose base
/// [`StoreGeneration::base`] enumerates in SPO order).
pub fn visible_base(
    base: impl Iterator<Item = Triple>,
    view: Option<&DeltaView>,
) -> impl Iterator<Item = Triple> {
    let mut dead: Vec<Triple> = view.map_or_else(Vec::new, |v| v.tombstones().to_vec());
    dead.sort_unstable();
    let mut at = 0usize;
    base.filter(move |b| {
        while dead.get(at).is_some_and(|d| d < b) {
            at += 1;
        }
        dead.get(at) != Some(b)
    })
}

/// Fold `view` into `base`: the base with the view's tombstones filtered
/// out and its visible inserts merged in, under the base's numbering. This
/// is what a rebuild works from — in the background over a pinned
/// generation's base (the dictionary is not copied: a renumbering builds
/// the next one from the pinned one, `Dictionary::renumbered`), or
/// recovery's over a snapshot and the log behind it. Over an SPO-sorted base
/// (any built generation's) the result is SPO-sorted: folding filters the
/// base in place and merges the (small) inserts in, not a sort of the whole.
pub fn fold_delta(mut base: Vec<Triple>, view: Option<&DeltaView>) -> Vec<Triple> {
    let Some(v) = view else {
        return base;
    };
    let mut dead: Vec<Triple> = v.tombstones().to_vec();
    dead.sort_unstable();
    let mut at = 0usize;
    base.retain(|b| {
        while dead.get(at).is_some_and(|d| d < b) {
            at += 1;
        }
        dead.get(at) != Some(b)
    });
    base.extend_from_slice(v.inserts());
    // The sorted base and the insert runs: the run-adaptive stable sort
    // merges them.
    base.sort();
    base
}

/// An owned pin on a generation's dictionary: an `Arc` clone that keeps
/// the dictionary alive for the pin's lifetime, so a query can carry one
/// pinned `&Dictionary` through parsing and execution without borrowing
/// from the database's internal state. Holds no lock — the dictionary's
/// interning is interior-mutable, so pinned readers and interning writers
/// proceed independently.
#[must_use = "bind the DictPin for the query's lifetime; it keeps the pinned dictionary alive"]
pub struct DictPin {
    dict: Arc<Dictionary>,
}

impl DictPin {
    /// Pin `dict`.
    pub fn new(dict: Arc<Dictionary>) -> DictPin {
        DictPin { dict }
    }
}

impl Deref for DictPin {
    type Target = Dictionary;

    fn deref(&self) -> &Dictionary {
        &self.dict
    }
}

impl std::fmt::Debug for DictPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DictPin").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple_set::TripleSet;
    use sordf_model::{Oid, Term, TermTriple};

    fn sample_generation() -> StoreGeneration {
        let mut ts = TripleSet::new();
        for i in 0..4u64 {
            ts.add(&TermTriple::new(
                Term::iri(format!("http://e/s{i}")),
                Term::iri("http://e/p"),
                Term::int(i as i64),
            ))
            .unwrap();
        }
        StoreGeneration::staging(ts.dict, ts.triples)
    }

    #[test]
    fn dict_pin_outlives_generation_handle() {
        let gen = Arc::new(sample_generation());
        let pin = gen.pin_dict();
        let s0 = pin.iri_oid("http://e/s0").unwrap();
        // Drop every other handle: the pin alone keeps the dictionary alive.
        drop(gen);
        assert_eq!(pin.iri_oid("http://e/s0"), Some(s0));
    }

    #[test]
    fn concurrent_pins_and_interning_coexist() {
        let gen = sample_generation();
        let a = gen.pin_dict();
        let b = gen.pin_dict();
        assert_eq!(a.n_iris(), b.n_iris());
        // A held pin does not block interning — the pool grows in place and
        // both pins observe the new entry.
        let fresh = gen.dict.encode_iri("http://e/fresh");
        assert_eq!(a.iri_oid("http://e/fresh"), Some(fresh));
    }

    #[test]
    fn fold_applies_tombstones_and_inserts() {
        let gen = sample_generation();
        let p = gen.dict.iri_oid("http://e/p").unwrap();
        let s0 = gen.dict.iri_oid("http://e/s0").unwrap();
        let mut delta = crate::delta::DeltaStore::new();
        let extra = Triple::new(s0, p, Oid::from_int(99).unwrap());
        let _ = delta.insert_run(vec![extra]);
        let _ = delta.delete(&[Triple::new(s0, p, Oid::from_int(0).unwrap())]);
        let folded = fold_delta(gen.triples.to_vec(), delta.current_view());
        assert_eq!(folded.len(), 4, "one deleted, one inserted");
        assert!(folded.contains(&extra));
        assert!(
            folded.windows(2).all(|w| w[0] <= w[1]),
            "a sorted base folds into a sorted set"
        );
        // No view: a plain clone.
        assert_eq!(fold_delta(gen.triples.to_vec(), None).len(), 4);
    }
}
