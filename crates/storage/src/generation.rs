//! Generation pinning: the immutable unit a query executes against.
//!
//! A [`StoreGeneration`] bundles everything one *physical generation* of the
//! store consists of — the dictionary, the base triples and whichever store
//! layouts have been built over them. It is immutable once published, with
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

use std::ops::Deref;
use std::sync::Arc;

use sordf_model::{Dictionary, Triple};
use sordf_schema::EmergentSchema;

use crate::base::BaseTriples;
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
    /// Base triples, encoded under `dict`'s numbering: the load-order list
    /// while staging, **SPO-sorted and packed on every built generation**
    /// ([`BaseTriples`]; [`Self::debug_validate`] holds the two together).
    /// Every builder reads it sorted, and the packed form lets a delete batch
    /// find its base-resident triples by binary search.
    pub triples: Arc<BaseTriples>,
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
            triples: Arc::new(BaseTriples::Staging(triples)),
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
        assert_eq!(
            self.any_built(),
            matches!(*self.triples, BaseTriples::Packed(_)),
            "a built generation's base is SPO-sorted and packed (delete \
             resolution binary-searches it), a staging one is its load-order list"
        );
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
                self.triples.len(),
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

/// The triples of the SPO-sorted `base` that `view` leaves visible, in base
/// order. The view's tombstones are put in SPO order once and subtracted by
/// a merge cursor — O(base + tombstones · log), no per-triple probe — which
/// relies on the base being SPO-sorted whenever a delta exists (writes reach
/// a delta store only over a built generation, whose base is packed and
/// streams here one decoded block at a time).
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
/// generation's triples (the dictionary is not copied: a renumbering builds
/// the next one from the pinned one, `Dictionary::renumbered`), or
/// recovery's over a snapshot and the log behind it. Over an SPO-sorted base (any built
/// generation's) the result is SPO-sorted: folding is one merge with the
/// (small, sorted here) inserts, not a sort of the whole.
pub fn fold_delta(
    base: impl ExactSizeIterator<Item = Triple>,
    view: Option<&DeltaView>,
) -> Vec<Triple> {
    let Some(v) = view else {
        return base.collect();
    };
    let mut inserts = v.inserts().to_vec();
    inserts.sort_unstable();
    let mut inserts = inserts.into_iter().peekable();
    let mut t = Vec::with_capacity(base.len() + inserts.len());
    for b in visible_base(base, view) {
        while let Some(i) = inserts.next_if(|&i| i < b) {
            t.push(i);
        }
        t.push(b);
    }
    t.extend(inserts);
    t
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
        let folded = fold_delta(gen.triples.iter(), delta.current_view());
        assert_eq!(folded.len(), 4, "one deleted, one inserted");
        assert!(folded.contains(&extra));
        assert!(
            folded.windows(2).all(|w| w[0] <= w[1]),
            "a sorted base folds into a sorted set"
        );
        // No view: a plain clone.
        assert_eq!(fold_delta(gen.triples.iter(), None).len(), 4);
    }
}
