//! Foreign-key discovery between classes.
//!
//! "As a URI property of one CS always refers in the object field to members
//! of one other CS, this is a foreign key between these two CS's." We count,
//! per IRI-typed column, which class its (placed) object values belong to;
//! a single target class covering enough of the references becomes an FK
//! edge. Reference counts also feed *indirect support* — the paper's trick
//! of adding incoming links to a CS's tally so that small-but-referenced
//! classes survive retention.

use crate::config::SchemaConfig;
use crate::cs::Profile;
use crate::finetune::ShapedClass;
use crate::types::{place_subject, ClassId, PredHome, TripleHome};
use sordf_model::{FxHashMap, FxHashSet, Oid, TypeTag};

/// Raw per-property reference statistics.
#[derive(Debug, Clone, Default)]
pub struct RefStats {
    /// Placed IRI references, total.
    pub n_refs: u64,
    /// References per target class index.
    pub per_target: FxHashMap<u32, u64>,
    /// Distinct placed object values.
    pub n_distinct: u64,
}

/// A discovered FK edge candidate on (class, prop index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FkEdge {
    pub target: u32,
    pub strength: f64,
    pub one_to_one: bool,
}

/// Result of `discover_fks`: per-class per-prop optional FK edges, the
/// per-class incoming-reference tally used for retention, and the raw
/// per-class per-prop reference statistics.
pub type FkDiscovery = (Vec<Vec<Option<FkEdge>>>, Vec<u64>, Vec<Vec<RefStats>>);

/// Compute reference statistics and FK edges for every IRI-typed property.
/// Returns per-class per-prop optional edges, plus the per-class incoming
/// reference tally used for retention. Walks the subjects of the classes
/// that have an IRI property, placing their triples by the storage rule.
pub(crate) fn discover_fks(
    profile: &Profile,
    classes: &[ShapedClass],
    cfg: &SchemaConfig,
) -> FkDiscovery {
    // Subject ordinal -> class index.
    let mut class_of = vec![0u32; profile.n_subjects()];
    for (ci, c) in classes.iter().enumerate() {
        for &ord in &c.subjects {
            class_of[ord as usize] = ci as u32;
        }
    }

    let mut stats: Vec<Vec<RefStats>> = classes
        .iter()
        .map(|c| vec![RefStats::default(); c.props.len()])
        .collect();
    let mut distinct: Vec<Vec<FxHashSet<Oid>>> = classes
        .iter()
        .map(|c| vec![FxHashSet::default(); c.props.len()])
        .collect();

    for (ci, class) in classes.iter().enumerate() {
        // The IRI properties, as the placement rule stores them; every
        // other triple is irregular here and ignored.
        let class_id = ClassId(ci as u32);
        let homes: Vec<PredHome> = class
            .props
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ty == TypeTag::Iri)
            .map(|(pi, p)| {
                let home = if p.multi {
                    TripleHome::Multi {
                        class: class_id,
                        mp: pi,
                    }
                } else {
                    TripleHome::Column {
                        class: class_id,
                        col: pi,
                    }
                };
                (p.pred, p.ty, home)
            })
            .collect();
        if homes.is_empty() {
            continue;
        }
        for &ord in &class.subjects {
            place_subject(&homes, profile.range(ord), &mut |t, home| {
                let (TripleHome::Column { col: pi, .. } | TripleHome::Multi { mp: pi, .. }) = home
                else {
                    return;
                };
                let st = &mut stats[ci][pi];
                st.n_refs += 1;
                if let Some(ord) = profile.ordinal(t.o) {
                    *st.per_target.entry(class_of[ord as usize]).or_insert(0) += 1;
                }
                distinct[ci][pi].insert(t.o);
            });
        }
    }

    let mut incoming = vec![0u64; classes.len()];
    let mut edges: Vec<Vec<Option<FkEdge>>> =
        classes.iter().map(|c| vec![None; c.props.len()]).collect();
    for (ci, class) in classes.iter().enumerate() {
        for pi in 0..class.props.len() {
            let st = &mut stats[ci][pi];
            st.n_distinct = distinct[ci][pi].len() as u64;
            if st.n_refs == 0 {
                continue;
            }
            let Some((&target, &n)) = st
                .per_target
                .iter()
                .max_by_key(|&(t, &n)| (n, u32::MAX - *t))
            else {
                continue;
            };
            for (&t, &n_refs) in st.per_target.iter() {
                incoming[t as usize] += n_refs;
            }
            let strength = n as f64 / st.n_refs as f64;
            if strength + 1e-9 < cfg.fk_threshold {
                continue;
            }
            // 1-1: every source has exactly one distinct target, all refs hit
            // the target class, and they saturate it.
            let one_to_one = cfg.unify_one_to_one
                && !class.props[pi].multi
                && n == st.n_refs
                && st.n_distinct == st.n_refs
                && st.n_refs == classes[target as usize].subjects.len() as u64;
            edges[ci][pi] = Some(FkEdge {
                target,
                strength,
                one_to_one,
            });
        }
    }
    (edges, incoming, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finetune::shape_multiplicity;
    use crate::merge::generalize;
    use crate::typing::type_classes;
    use sordf_model::Triple;

    fn pipeline(
        triples: &mut [Triple],
        cfg: &SchemaConfig,
    ) -> (Vec<ShapedClass>, Vec<Vec<Option<FkEdge>>>, Vec<u64>) {
        triples.sort_by_key(|t| t.key_spo());
        let profile = Profile::new(triples);
        let merged = generalize(&profile.css, cfg);
        let typed = type_classes(&profile, merged, cfg);
        let shaped = shape_multiplicity(typed, cfg);
        let (edges, incoming, _) = discover_fks(&profile, &shaped, cfg);
        (shaped, edges, incoming)
    }

    /// Orders (subjects 0..N) reference customers (subjects 1000..1000+M)
    /// via p_cust; customers have p_name.
    fn orders_customers(n_orders: u64, n_cust: u64) -> Vec<Triple> {
        let p_cust = Oid::iri(5000);
        let p_date = Oid::iri(5001);
        let p_name = Oid::iri(5002);
        let mut triples = Vec::new();
        for s in 0..n_orders {
            triples.push(Triple::new(
                Oid::iri(s),
                p_cust,
                Oid::iri(1000 + s % n_cust),
            ));
            triples.push(Triple::new(
                Oid::iri(s),
                p_date,
                Oid::from_date_days(s as i64).unwrap(),
            ));
        }
        for c in 0..n_cust {
            triples.push(Triple::new(Oid::iri(1000 + c), p_name, Oid::string(c)));
        }
        triples
    }

    #[test]
    fn fk_detected_between_classes() {
        let mut triples = orders_customers(100, 10);
        let (shaped, edges, incoming) = pipeline(&mut triples, &SchemaConfig::default());
        assert_eq!(shaped.len(), 2);
        let (oi, _) = shaped
            .iter()
            .enumerate()
            .find(|(_, c)| c.subjects.len() == 100)
            .expect("orders class");
        let pi = shaped[oi]
            .props
            .iter()
            .position(|p| p.pred == Oid::iri(5000))
            .unwrap();
        let edge = edges[oi][pi].expect("fk edge");
        assert_eq!(edge.strength, 1.0);
        assert!(!edge.one_to_one, "10 customers shared by 100 orders is N:1");
        assert_eq!(incoming[edge.target as usize], 100);
    }

    #[test]
    fn one_to_one_link_flagged() {
        let mut triples = orders_customers(50, 50); // each order -> its own customer
        let (shaped, edges, _) = pipeline(&mut triples, &SchemaConfig::default());
        let (oi, _) = shaped
            .iter()
            .enumerate()
            .find(|(_, c)| c.props.iter().any(|p| p.pred == Oid::iri(5000)))
            .unwrap();
        let pi = shaped[oi]
            .props
            .iter()
            .position(|p| p.pred == Oid::iri(5000))
            .unwrap();
        assert!(edges[oi][pi].unwrap().one_to_one);
    }

    #[test]
    fn scattered_references_are_not_fks() {
        // p_ref points half to class B, half to class C -> no 0.8-dominant target.
        let p_ref = Oid::iri(5000);
        let p_b = Oid::iri(5001);
        let p_c = Oid::iri(5002);
        let mut triples = Vec::new();
        for s in 0..40u64 {
            let target = if s % 2 == 0 { 1000 + s } else { 2000 + s };
            triples.push(Triple::new(Oid::iri(s), p_ref, Oid::iri(target)));
            triples.push(Triple::new(
                Oid::iri(s),
                Oid::iri(5009),
                Oid::from_int(1).unwrap(),
            ));
        }
        for s in 0..40u64 {
            if s % 2 == 0 {
                triples.push(Triple::new(Oid::iri(1000 + s), p_b, Oid::string(s)));
            } else {
                triples.push(Triple::new(
                    Oid::iri(2000 + s),
                    p_c,
                    Oid::from_int(2).unwrap(),
                ));
            }
        }
        let (shaped, edges, _) = pipeline(&mut triples, &SchemaConfig::default());
        let (oi, _) = shaped
            .iter()
            .enumerate()
            .find(|(_, c)| c.props.iter().any(|p| p.pred == p_ref))
            .unwrap();
        let pi = shaped[oi]
            .props
            .iter()
            .position(|p| p.pred == p_ref)
            .unwrap();
        assert_eq!(edges[oi][pi], None);
    }

    #[test]
    fn references_to_literals_are_ignored() {
        let p = Oid::iri(5000);
        let mut triples: Vec<Triple> = (0..20)
            .map(|s| Triple::new(Oid::iri(s), p, Oid::from_int(s as i64).unwrap()))
            .collect();
        let (_, edges, incoming) = pipeline(&mut triples, &SchemaConfig::default());
        assert!(edges[0].iter().all(|e| e.is_none()));
        assert!(incoming.iter().all(|&n| n == 0));
    }
}
