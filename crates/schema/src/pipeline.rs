//! The end-to-end schema discovery pipeline.

use crate::config::SchemaConfig;
use crate::types::{ClassDef, ClassId, ColumnDef, EmergentSchema, ForeignKey, MultiPropDef};
use crate::{cs, finetune, fk, merge, naming, stats, typing};
use sordf_model::{Dictionary, FxHashMap, Triple};

/// Discover the emergent relational schema of a dataset.
///
/// `triples_spo` must be sorted by (subject, predicate, object); the storage
/// loader keeps an SPO permutation anyway, so discovery costs no extra sort.
pub fn discover(triples_spo: &[Triple], dict: &Dictionary, cfg: &SchemaConfig) -> EmergentSchema {
    debug_assert!(
        triples_spo
            .windows(2)
            .all(|w| w[0].key_spo() <= w[1].key_spo()),
        "discover() requires SPO-sorted triples"
    );

    // Stages 1-5: one pass over every triple, then the member CSs'
    // counts, and the subjects of conflicted and IRI-referencing classes.
    let profile = cs::Profile::new(triples_spo);
    let merged = merge::generalize(&profile.css, cfg);
    let typed = typing::type_classes(&profile, merged, cfg);
    let shaped = finetune::shape_multiplicity(typed, cfg);
    let (edges, _, ref_stats) = fk::discover_fks(&profile, &shaped, cfg);

    // Stage 6: retention with indirect support. A class is kept if its own
    // support reaches the threshold, or if references *from kept classes*
    // push it over ("we add incoming links to the CS to the tally").
    let n = shaped.len();
    let mut kept: Vec<bool> = shaped
        .iter()
        .map(|c| !c.props.is_empty() && c.support() >= cfg.min_support)
        .collect();
    loop {
        let mut incoming = vec![0u64; n];
        for ci in 0..n {
            if !kept[ci] {
                continue;
            }
            for st in &ref_stats[ci] {
                for (&target, &n_refs) in &st.per_target {
                    incoming[target as usize] += n_refs;
                }
            }
        }
        let mut changed = false;
        for ci in 0..n {
            if !kept[ci]
                && !shaped[ci].props.is_empty()
                && shaped[ci].support() + incoming[ci] >= cfg.min_support
            {
                kept[ci] = true;
                changed = true;
            }
        }
        if !changed {
            // Record the final tally for reporting.
            let mut schema_classes = build_classes(&shaped, &edges, &kept, &incoming, cfg);
            let mut assignment = FxHashMap::default();
            let mut class_of = vec![u32::MAX; profile.n_subjects()];
            for (new_id, class) in schema_classes.iter().enumerate() {
                let old = class.id.0 as usize; // temporarily holds the old index
                for &ord in &shaped[old].subjects {
                    assignment.insert(profile.subject(ord), ClassId(new_id as u32));
                    class_of[ord as usize] = new_id as u32;
                }
            }
            for (new_id, class) in schema_classes.iter_mut().enumerate() {
                class.id = ClassId(new_id as u32);
            }
            let mut schema = EmergentSchema {
                classes: schema_classes,
                assignment,
                type_pred: None,
                coverage: 0.0,
                n_triples: triples_spo.len() as u64,
            };
            naming::assign_names(&mut schema, &profile, &class_of, dict);
            stats::compute_stats(&mut schema, &profile, &class_of);
            return schema;
        }
    }
}

/// Materialize [`ClassDef`]s for kept classes. The returned defs carry the
/// *old* class index in `id` (remapped by the caller); FK targets are
/// rewritten to new ids, edges to dropped classes removed.
fn build_classes(
    shaped: &[finetune::ShapedClass],
    edges: &[Vec<Option<fk::FkEdge>>],
    kept: &[bool],
    incoming: &[u64],
    cfg: &SchemaConfig,
) -> Vec<ClassDef> {
    // Old index -> new id, in descending-support order for stable output.
    let mut order: Vec<usize> = (0..shaped.len()).filter(|&i| kept[i]).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(shaped[i].support()), i));
    let mut new_of_old: FxHashMap<usize, u32> = FxHashMap::default();
    for (new_id, &old) in order.iter().enumerate() {
        new_of_old.insert(old, new_id as u32);
    }

    order
        .iter()
        .map(|&old| {
            let c = &shaped[old];
            let support = c.support().max(1);
            let map_fk = |e: &Option<fk::FkEdge>| -> Option<ForeignKey> {
                e.as_ref().and_then(|e| {
                    new_of_old.get(&(e.target as usize)).map(|&t| ForeignKey {
                        target: ClassId(t),
                        strength: e.strength,
                        one_to_one: e.one_to_one && cfg.unify_one_to_one,
                    })
                })
            };
            let mut columns = Vec::new();
            let mut multi_props = Vec::new();
            for (pi, prop) in c.props.iter().enumerate() {
                let presence = prop.n_with as f64 / support as f64;
                if prop.multi {
                    multi_props.push(MultiPropDef {
                        pred: prop.pred,
                        name: String::new(),
                        ty: prop.ty,
                        mean_multiplicity: prop.mean_mult,
                        fk: map_fk(&edges[old][pi]),
                        stats: Default::default(),
                    });
                } else {
                    columns.push(ColumnDef {
                        pred: prop.pred,
                        name: String::new(),
                        ty: prop.ty,
                        presence,
                        nullable: presence < 1.0 - 1e-9,
                        fk: map_fk(&edges[old][pi]),
                        stats: Default::default(),
                    });
                }
            }
            let mut def = ClassDef {
                id: ClassId(old as u32), // old index; caller remaps
                name: String::new(),
                columns,
                multi_props,
                n_subjects: c.support(),
                indirect_support: incoming[old],
                col_index: FxHashMap::default(),
                multi_index: FxHashMap::default(),
            };
            def.reindex();
            def
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::{Oid, Term, TypeTag, Value};

    /// Build the paper's Fig. 2 DBLP-like dataset: inproceedings with
    /// type/creator/title/partOf, conferences with type/title/issued, plus
    /// irregularities.
    fn dblp_like() -> (Vec<Triple>, Dictionary) {
        let mut dict = Dictionary::new();
        let mut triples = Vec::new();
        let ex = |s: &str| format!("http://example.org/{s}");
        let mut add = |dict: &mut Dictionary, s: &str, p: &str, o: Term| {
            let s = dict.encode_iri(&ex(s));
            let p = if p == "type" {
                dict.encode_iri(sordf_model::vocab::RDF_TYPE)
            } else {
                dict.encode_iri(&ex(p))
            };
            let o = dict.encode_term(&o).unwrap();
            triples.push(Triple::new(s, p, o));
        };
        for i in 0..12 {
            let s = format!("inproc{i}");
            add(&mut dict, &s, "type", Term::iri(ex("inproceeding")));
            add(
                &mut dict,
                &s,
                "creator",
                Term::iri(ex(&format!("author{}", i % 5))),
            );
            add(&mut dict, &s, "title", Term::str(format!("Paper {i}")));
            add(
                &mut dict,
                &s,
                "partOf",
                Term::iri(ex(&format!("conf{}", i % 3))),
            );
        }
        // Multi-valued creator on one paper (Fig. 2's {author3, author4}).
        add(&mut dict, "inproc0", "creator", Term::iri(ex("author4")));
        for c in 0..3 {
            let s = format!("conf{c}");
            add(&mut dict, &s, "type", Term::iri(ex("Conference")));
            add(&mut dict, &s, "title", Term::str(format!("conference{c}")));
            add(&mut dict, &s, "issued", Term::int(2010 + c as i64));
        }
        // Irregularities: a stray webpage and a dangling property.
        add(&mut dict, "webpage1", "url", Term::str("index.php"));
        add(&mut dict, "conf2", "homepage", Term::iri(ex("webpage1")));
        triples.sort_by_key(|t| t.key_spo());
        (triples, dict)
    }

    #[test]
    fn discovers_fig2_structure() {
        let (triples, dict) = dblp_like();
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        // Two main classes: inproceeding and conference.
        assert!(
            schema.classes.len() >= 2,
            "classes: {:?}",
            schema.classes.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
        let inproc = schema
            .class_by_name("inproceeding")
            .expect("inproceeding table");
        let conf = schema
            .class_by_name("conference")
            .expect("conference table");
        assert_eq!(inproc.n_subjects, 12);
        assert_eq!(conf.n_subjects, 3);
        // partOf is an FK from inproceeding to conference.
        let part_of = inproc
            .columns
            .iter()
            .find(|c| c.name == "partof")
            .expect("partOf column");
        let fk = part_of.fk.expect("partOf should be a foreign key");
        assert_eq!(schema.class(fk.target).name, "conference");
        // issued is an int column on conference.
        let issued = conf.columns.iter().find(|c| c.name == "issued").unwrap();
        assert_eq!(issued.ty, TypeTag::Int);
        // Coverage is high but below 1.0 (irregular webpage/homepage triples).
        assert!(
            schema.coverage > 0.8 && schema.coverage < 1.0,
            "coverage {}",
            schema.coverage
        );
    }

    #[test]
    fn ddl_renders_names_and_fks() {
        let (triples, dict) = dblp_like();
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        let ddl = schema.render_ddl(&dict);
        assert!(ddl.contains("CREATE TABLE inproceeding"), "{ddl}");
        assert!(ddl.contains("REFERENCES conference"), "{ddl}");
    }

    #[test]
    fn small_referenced_class_rescued_by_indirect_support() {
        let dict = Dictionary::new();
        let mut triples = Vec::new();
        let p_ref = dict.encode_iri("http://e/ref");
        let p_a = dict.encode_iri("http://e/a");
        let p_b = dict.encode_iri("http://e/b");
        // 20 sources all referencing the same 2 targets; targets' own support
        // (2) is below min_support=3, but 20 incoming links rescue them.
        for s in 0..20u64 {
            let subj = dict.encode_iri(&format!("http://e/s{s}"));
            let target = dict.encode_iri(&format!("http://e/t{}", s % 2));
            triples.push(Triple::new(subj, p_ref, target));
            triples.push(Triple::new(subj, p_a, Oid::from_int(s as i64).unwrap()));
        }
        for t in 0..2u64 {
            let subj = dict.encode_iri(&format!("http://e/t{t}"));
            let o = dict
                .encode_value(&Value::str(format!("target{t}")))
                .unwrap();
            triples.push(Triple::new(subj, p_b, o));
        }
        triples.sort_by_key(|t| t.key_spo());
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        assert_eq!(schema.classes.len(), 2, "target class must be rescued");
        let target_class = schema.classes.iter().find(|c| c.n_subjects == 2).unwrap();
        assert!(target_class.indirect_support >= 20);
        // And without references it would be dropped:
        let alone: Vec<Triple> = triples.iter().copied().filter(|t| t.p == p_b).collect();
        let schema2 = discover(&alone, &dict, &SchemaConfig::default());
        assert!(schema2.classes.is_empty());
    }

    #[test]
    fn fully_regular_data_has_full_coverage() {
        let dict = Dictionary::new();
        let p1 = dict.encode_iri("http://e/p1");
        let p2 = dict.encode_iri("http://e/p2");
        let mut triples = Vec::new();
        for s in 0..100u64 {
            let subj = dict.encode_iri(&format!("http://e/s{s}"));
            triples.push(Triple::new(subj, p1, Oid::from_int(s as i64).unwrap()));
            triples.push(Triple::new(
                subj,
                p2,
                Oid::from_date_days(s as i64).unwrap(),
            ));
        }
        triples.sort_by_key(|t| t.key_spo());
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        assert_eq!(schema.classes.len(), 1);
        assert_eq!(schema.coverage, 1.0);
        assert_eq!(schema.classes[0].columns.len(), 2);
        assert!(!schema.classes[0].columns[0].nullable);
    }

    #[test]
    fn stats_are_populated() {
        let (triples, dict) = dblp_like();
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        let conf = schema.class_by_name("conference").unwrap();
        let issued = conf.columns.iter().find(|c| c.name == "issued").unwrap();
        assert_eq!(issued.stats.n_nonnull, 3);
        assert_eq!(issued.stats.n_distinct, 3);
        assert_eq!(issued.stats.min, Some(Oid::from_int(2010).unwrap().raw()));
        assert_eq!(issued.stats.max, Some(Oid::from_int(2012).unwrap().raw()));
    }

    #[test]
    fn summary_selects_keyword_plus_fk_closure() {
        let (triples, dict) = dblp_like();
        let schema = discover(&triples, &dict, &SchemaConfig::default());
        let summary = crate::summary::summarize(&schema, 1, &["inproceeding"]);
        // inproceeding seeds; conference pulled in via partOf FK.
        let names: Vec<&str> = summary
            .selected
            .iter()
            .map(|&c| schema.class(c).name.as_str())
            .collect();
        assert!(names.contains(&"inproceeding"));
        assert!(names.contains(&"conference"));
        let rendered = summary.render(&schema, &dict);
        assert!(rendered.contains("via FK"), "{rendered}");
    }
}
