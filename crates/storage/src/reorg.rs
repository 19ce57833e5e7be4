//! Subject clustering: the OID reorganization of §II-B.
//!
//! "Given the discovered CS's, to obtain real locality we would like to
//! order the OIDs in a meaningful way. For S OIDs: we group them by
//! characteristic sets; within a characteristic set, we can then further
//! sub-order them on some index keys. … Similarly, the O OIDs used for
//! literals should be ordered in a way that is meaningful to SPARQL value
//! comparison semantics."
//!
//! [`reorganize`] permutes the IRI dictionary so that every class's subjects
//! occupy one dense OID range (sub-ordered by an optional per-class sort-key
//! property), sorts the string-literal pool lexicographically, rewrites all
//! triples, and updates the schema's subject assignment in place.
//!
//! Since every IRI and string is renumbered here anyway, this is also where
//! the dictionary sheds entries no triple references any more (terms of
//! deleted triples): they get no new number. Checkpoints dump the
//! dictionary as it is and recovery reloads it entry for entry, so without
//! this a long-lived store would carry — in memory and on disk — every term
//! it ever saw.

use crate::triple_set::TripleSet;
use sordf_model::{Dictionary, FxHashMap, Oid, Triple, TypeTag};
use sordf_schema::{ClassId, EmergentSchema};

/// Physical clustering choices. Sort keys are identified by **column
/// index** within the class (stable across OID reorganization, unlike
/// predicate OIDs, which get renumbered along with every other IRI).
#[derive(Debug, Clone, Default)]
pub struct ClusterSpec {
    /// Per class: the column whose values sub-order the class's subjects
    /// (Table I sub-orders LINEITEM on `shipdate`, ORDERS on `orderdate`).
    pub sort_keys: FxHashMap<ClassId, usize>,
}

impl ClusterSpec {
    /// No sub-ordering: subjects grouped by class only.
    pub fn none() -> ClusterSpec {
        ClusterSpec::default()
    }

    /// Sub-order one class by the given column index.
    pub fn with_sort_key(mut self, class: ClassId, col: usize) -> ClusterSpec {
        self.sort_keys.insert(class, col);
        self
    }

    /// Sub-order one class by the column storing `pred`.
    pub fn with_sort_pred(self, schema: &EmergentSchema, class: ClassId, pred: Oid) -> ClusterSpec {
        match schema.class(class).column_of(pred) {
            Some(col) => self.with_sort_key(class, col),
            None => self,
        }
    }

    /// Heuristic choice: sub-order each class by its first non-nullable
    /// date column, falling back to dateTime / integer / decimal columns.
    /// (A production system would use workload analysis here, as the paper
    /// acknowledges; dates are TPC-H's natural clustering keys.)
    pub fn auto(schema: &EmergentSchema) -> ClusterSpec {
        let mut spec = ClusterSpec::none();
        for class in &schema.classes {
            let pick = |ty: TypeTag| {
                class
                    .columns
                    .iter()
                    .position(|c| {
                        c.ty == ty && Some(c.pred) != schema.type_pred && c.presence > 0.99
                    })
                    .or_else(|| {
                        class
                            .columns
                            .iter()
                            .position(|c| c.ty == ty && Some(c.pred) != schema.type_pred)
                    })
            };
            if let Some(col) = [TypeTag::Date, TypeTag::DateTime, TypeTag::Int, TypeTag::Dec]
                .into_iter()
                .find_map(pick)
            {
                spec.sort_keys.insert(class.id, col);
            }
        }
        spec
    }
}

/// What [`reorganize`] did, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReorgReport {
    /// Subjects placed into dense class ranges.
    pub n_subjects_clustered: u64,
    /// IRIs in the renumbered dictionary (subjects + predicates + other
    /// objects; unreferenced entries are gone).
    pub n_iris: u64,
    /// String literals re-numbered into lexicographic order.
    pub n_strings_sorted: u64,
    /// First subject OID payload of each class (ascending by ClassId).
    pub class_bases: Vec<u64>,
}

/// Perform subject clustering and literal re-numbering on an owned set, in
/// place: [`reorganize_from`] with the set's own dictionary as the source.
pub fn reorganize(
    ts: &mut TripleSet,
    schema: &mut EmergentSchema,
    spec: &ClusterSpec,
) -> ReorgReport {
    let (dict, report) = reorganize_from(&ts.dict, &mut ts.triples, schema, spec);
    ts.dict = dict;
    report
}

/// Subject clustering and literal re-numbering: build the renumbered
/// dictionary **from** `dict` — which may be shared and pinned; it is only
/// read — and rewrite `triples` and `schema` to it.
///
/// Afterwards: class `c`'s subjects are exactly the IRI OIDs
/// `[report.class_bases[c], report.class_bases[c] + n_subjects(c))`;
/// string-literal OID order equals lexicographic order; `triples` are
/// rewritten (their order preserved); `schema.assignment` keys are
/// remapped; IRIs and strings no triple references are not in the returned
/// dictionary.
pub fn reorganize_from(
    dict: &Dictionary,
    triples: &mut [Triple],
    schema: &mut EmergentSchema,
    spec: &ClusterSpec,
) -> (Dictionary, ReorgReport) {
    // Which pool entries some triple still references. Sized once: what a
    // shared dictionary gains from here on is not part of the renumbering.
    let mut live_iri = vec![false; dict.n_iris()];
    let mut live_str = vec![false; dict.n_strings()];
    for t in triples.iter() {
        for o in [t.s, t.p, t.o].into_iter().filter(|o| !o.is_null()) {
            match o.tag() {
                TypeTag::Iri => live_iri[o.payload() as usize] = true,
                TypeTag::Str => live_str[o.payload() as usize] = true,
                _ => {}
            }
        }
    }

    // 1. Collect sort-key values (smallest matching-type object per subject).
    let mut key_of: FxHashMap<Oid, u64> = FxHashMap::default();
    if !spec.sort_keys.is_empty() {
        // (class, predicate) -> expected tag
        let mut keyed: FxHashMap<(ClassId, Oid), TypeTag> = FxHashMap::default();
        for (&class, &col) in &spec.sort_keys {
            let cdef = schema.class(class);
            if let Some(c) = cdef.columns.get(col) {
                keyed.insert((class, c.pred), c.ty);
            }
        }
        // One class lookup per subject where the triples come grouped by
        // subject (every caller but the parse-order test rigs).
        let mut current: Option<(Oid, Option<ClassId>)> = None;
        for t in triples.iter() {
            let class = match current {
                Some((s, class)) if s == t.s => class,
                _ => {
                    let class = schema.class_of(t.s);
                    current = Some((t.s, class));
                    class
                }
            };
            let Some(class) = class else {
                continue;
            };
            let Some(&ty) = keyed.get(&(class, t.p)) else {
                continue;
            };
            if !t.o.is_null() && t.o.tag() == ty {
                key_of
                    .entry(t.s)
                    .and_modify(|k| *k = (*k).min(t.o.raw()))
                    .or_insert(t.o.raw());
            }
        }
    }

    // 2. Order subjects: by class, then (has key, key, old payload).
    let n_classes = schema.classes.len();
    let mut per_class: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_classes];
    for (&s, &class) in &schema.assignment {
        assert!(
            s.is_iri(),
            "subjects must be (skolemized) IRIs for clustering"
        );
        let key = key_of.get(&s).copied().unwrap_or(u64::MAX);
        per_class[class.0 as usize].push((key, s.payload()));
    }
    for list in per_class.iter_mut() {
        list.sort_unstable();
    }

    // 3. Dense new numbering: class ranges first, every other referenced
    //    IRI after; the unreferenced stay `DROPPED`.
    let mut new_of_old = vec![Dictionary::DROPPED; live_iri.len()];
    let mut next = 0u64;
    let mut class_bases = Vec::with_capacity(n_classes);
    let mut n_subjects_clustered = 0u64;
    for list in &per_class {
        class_bases.push(next);
        for &(_, old) in list {
            new_of_old[old as usize] = next;
            next += 1;
            n_subjects_clustered += 1;
        }
    }
    for (slot, &live) in new_of_old.iter_mut().zip(&live_iri) {
        if live && *slot == Dictionary::DROPPED {
            *slot = next;
            next += 1;
        }
    }
    let n_iris = next;

    // 4. Build the renumbered pools.
    let (new_dict, str_map) = dict.renumbered(&new_of_old, &live_str);

    // 5. Rewrite every triple.
    let remap = |o: Oid| -> Oid {
        if o.is_null() {
            return o;
        }
        match o.tag() {
            TypeTag::Iri => Oid::iri(new_of_old[o.payload() as usize]),
            TypeTag::Str => Oid::string(str_map[o.payload() as usize]),
            _ => o,
        }
    };
    for t in triples.iter_mut() {
        t.s = remap(t.s);
        t.p = remap(t.p);
        t.o = remap(t.o);
    }

    // 6. Remap every OID the schema holds: the subject assignment, the
    //    predicate of each column/side table (predicates are IRIs and were
    //    renumbered like everything else), and stale IRI/string stats.
    let old_assignment = std::mem::take(&mut schema.assignment);
    schema.assignment = old_assignment
        .into_iter()
        .map(|(s, c)| (remap(s), c))
        .collect();
    // `rdf:type` is looked up in the dictionary, not in the data: it may be
    // an entry no triple uses any more.
    schema.type_pred = schema
        .type_pred
        .filter(|p| live_iri[p.payload() as usize])
        .map(remap);
    for class in schema.classes.iter_mut() {
        for col in class.columns.iter_mut() {
            col.pred = remap(col.pred);
            if matches!(col.ty, TypeTag::Iri | TypeTag::Str) {
                col.stats.min = None; // refreshed by the clustered builder
                col.stats.max = None;
            }
        }
        for mp in class.multi_props.iter_mut() {
            mp.pred = remap(mp.pred);
            if matches!(mp.ty, TypeTag::Iri | TypeTag::Str) {
                mp.stats.min = None;
                mp.stats.max = None;
            }
        }
        class.reindex();
    }

    let report = ReorgReport {
        n_subjects_clustered,
        n_iris,
        n_strings_sorted: new_dict.n_strings() as u64,
        class_bases,
    };
    (new_dict, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::Term;
    use sordf_schema::SchemaConfig;

    /// Two classes: items (with a date) and tags; interleaved parse order.
    fn make_ts() -> TripleSet {
        let mut ts = TripleSet::new();
        let mut add = |s: String, p: &str, o: Term| {
            ts.add(&sordf_model::TermTriple::new(
                Term::iri(s),
                Term::iri(format!("http://e/{p}")),
                o,
            ))
            .unwrap();
        };
        // Interleave items and tags so parse order is maximally unhelpful;
        // give items *descending* dates so sub-ordering must reorder them.
        for i in 0..10u64 {
            add(
                format!("http://e/item{i}"),
                "price",
                Term::int(100 - i as i64),
            );
            add(
                format!("http://e/item{i}"),
                "sold",
                Term::date(&format!("1996-01-{:02}", 28 - i * 2)),
            );
            add(
                format!("http://e/tag{i}"),
                "label",
                Term::str(format!("tag-{}", 9 - i)),
            );
        }
        ts
    }

    fn discover(ts: &TripleSet) -> EmergentSchema {
        let spo = ts.sorted_spo();
        sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default())
    }

    #[test]
    fn subjects_become_dense_ranges() {
        let mut ts = make_ts();
        let mut schema = discover(&ts);
        let report = reorganize(&mut ts, &mut schema, &ClusterSpec::none());
        assert_eq!(report.n_subjects_clustered, 20);
        assert_eq!(report.class_bases.len(), 2);
        // Every class's subjects occupy exactly [base, base + n).
        for class in &schema.classes {
            let base = report.class_bases[class.id.0 as usize];
            let mut payloads: Vec<u64> = schema
                .assignment
                .iter()
                .filter(|&(_, &c)| c == class.id)
                .map(|(s, _)| s.payload())
                .collect();
            payloads.sort_unstable();
            let expect: Vec<u64> = (base..base + class.n_subjects).collect();
            assert_eq!(payloads, expect, "class {}", class.name);
        }
    }

    #[test]
    fn triples_decode_identically_after_reorg() {
        let mut ts = make_ts();
        let decode_all = |ts: &TripleSet| -> Vec<(Term, Term, Term)> {
            let mut v: Vec<_> = ts
                .triples
                .iter()
                .map(|t| {
                    (
                        ts.dict.decode(t.s).unwrap(),
                        ts.dict.decode(t.p).unwrap(),
                        ts.dict.decode(t.o).unwrap(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        let before = decode_all(&ts);
        let mut schema = discover(&ts);
        reorganize(&mut ts, &mut schema, &ClusterSpec::none());
        let after = decode_all(&ts);
        assert_eq!(before, after, "reorganization must be a bijective renaming");
    }

    #[test]
    fn unreferenced_terms_leave_the_dictionary() {
        let mut ts = make_ts();
        // Terms of triples that are gone: interned, referenced by nothing.
        ts.dict.encode_iri("http://e/retired-subject");
        ts.dict
            .encode_value(&sordf_model::Value::str("retired label"))
            .unwrap();
        let (n_iris, n_strings) = (ts.dict.n_iris(), ts.dict.n_strings());
        let mut schema = discover(&ts);
        let report = reorganize(&mut ts, &mut schema, &ClusterSpec::none());
        assert_eq!(ts.dict.n_iris(), n_iris - 1);
        assert_eq!(ts.dict.n_strings(), n_strings - 1);
        assert_eq!(report.n_iris, ts.dict.n_iris() as u64);
        assert_eq!(ts.dict.iri_oid("http://e/retired-subject"), None);
        assert_eq!(ts.dict.string_oid("retired label"), None);
        // Everything still referenced decodes.
        for t in &ts.triples {
            for o in [t.s, t.p, t.o] {
                ts.dict.decode(o).unwrap();
            }
        }
    }

    #[test]
    fn sort_key_orders_subjects_by_date() {
        let mut ts = make_ts();
        let mut schema = discover(&ts);
        let sold = ts.dict.iri_oid("http://e/sold").unwrap();
        let item_class = schema
            .classes
            .iter()
            .find(|c| c.column_of(sold).is_some())
            .map(|c| c.id)
            .unwrap();
        let spec = ClusterSpec::none().with_sort_pred(&schema, item_class, sold);
        reorganize(&mut ts, &mut schema, &spec);
        // Walk item subjects in OID order; their sold dates must ascend.
        let sold_new = ts.dict.iri_oid("http://e/sold").unwrap();
        let mut dates: Vec<(u64, u64)> = ts
            .triples
            .iter()
            .filter(|t| t.p == sold_new)
            .map(|t| (t.s.payload(), t.o.raw()))
            .collect();
        dates.sort_unstable();
        assert!(
            dates.windows(2).all(|w| w[0].1 <= w[1].1),
            "dates ascend with subject OID"
        );
    }

    #[test]
    fn string_literals_sorted_lexicographically() {
        let mut ts = make_ts();
        let mut schema = discover(&ts);
        reorganize(&mut ts, &mut schema, &ClusterSpec::none());
        // tag-0 < tag-1 < ... must hold on OIDs now.
        let get = |s: &str| ts.dict.string_oid(s).unwrap();
        for i in 0..9 {
            assert!(get(&format!("tag-{i}")) < get(&format!("tag-{}", i + 1)));
        }
    }

    #[test]
    fn auto_spec_picks_date_column() {
        let ts = make_ts();
        let schema = discover(&ts);
        let spec = ClusterSpec::auto(&schema);
        let sold = ts.dict.iri_oid("http://e/sold").unwrap();
        assert!(spec.sort_keys.iter().any(|(&class, &col)| {
            schema.class(class).columns.get(col).map(|c| c.pred) == Some(sold)
        }));
    }
}
