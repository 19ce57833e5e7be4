//! Multiplicity fine-tuning: `0..n` attributes become `0..1` columns or are
//! split off into side tables (the paper's "schema fine-tuning").

use crate::config::SchemaConfig;
use crate::typing::TypedClass;
use sordf_model::{Oid, TypeTag};

/// A property's final storage shape within a class.
#[derive(Debug, Clone)]
pub struct ShapedProp {
    pub pred: Oid,
    pub ty: TypeTag,
    /// Subjects having ≥1 matching-type value.
    pub n_with: u64,
    /// Mean matching values per subject that has the property.
    pub mean_mult: f64,
    /// True → side table of (s, o) pairs; false → single-valued column.
    pub multi: bool,
}

/// A class with multiplicity-resolved properties.
#[derive(Debug, Clone)]
pub struct ShapedClass {
    pub props: Vec<ShapedProp>,
    /// Member subjects (profile ordinals).
    pub subjects: Vec<u32>,
}

impl ShapedClass {
    pub fn support(&self) -> u64 {
        self.subjects.len() as u64
    }
}

/// Decide, for every (class, property), between a `0..1` column (extra
/// values demoted to the irregular store) and a multi-value side table —
/// arithmetic over the object counts the typing stage carries.
pub fn shape_multiplicity(typed: Vec<TypedClass>, cfg: &SchemaConfig) -> Vec<ShapedClass> {
    typed
        .into_iter()
        .map(|c| {
            let props = c
                .props
                .iter()
                .zip(&c.col_types)
                .zip(&c.counts)
                .map(|((&pred, &ty), counts)| {
                    let tag = ty as usize;
                    let n_with = counts.groups_with[tag];
                    let (mean, frac_multi) = if n_with == 0 {
                        (0.0, 0.0)
                    } else {
                        (
                            counts.objects[tag] as f64 / n_with as f64,
                            counts.groups_multi[tag] as f64 / n_with as f64,
                        )
                    };
                    ShapedProp {
                        pred,
                        ty,
                        n_with,
                        mean_mult: mean,
                        multi: frac_multi > cfg.multi_split_frac || mean > cfg.multi_split_mean,
                    }
                })
                .collect();
            ShapedClass {
                props,
                subjects: c.subjects,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::Profile;
    use crate::merge::generalize;
    use crate::typing::type_classes;
    use sordf_model::Triple;

    fn run(triples: &mut [Triple], cfg: &SchemaConfig) -> Vec<ShapedClass> {
        triples.sort_by_key(|t| t.key_spo());
        let profile = Profile::new(triples);
        let merged = generalize(&profile.css, cfg);
        let typed = type_classes(&profile, merged, cfg);
        shape_multiplicity(typed, cfg)
    }

    #[test]
    fn single_valued_stays_single() {
        let p = Oid::iri(100);
        let mut triples: Vec<Triple> = (0..50)
            .map(|s| Triple::new(Oid::iri(s), p, Oid::from_int(s as i64).unwrap()))
            .collect();
        let shaped = run(&mut triples, &SchemaConfig::default());
        assert_eq!(shaped.len(), 1);
        assert!(!shaped[0].props[0].multi);
        assert_eq!(shaped[0].props[0].n_with, 50);
        assert_eq!(shaped[0].props[0].mean_mult, 1.0);
    }

    #[test]
    fn widely_multivalued_splits_off() {
        // Every subject has 3 authors -> side table.
        let p = Oid::iri(100);
        let mut triples = Vec::new();
        for s in 0..50u64 {
            for a in 0..3u64 {
                triples.push(Triple::new(Oid::iri(s), p, Oid::iri(1000 + s * 3 + a)));
            }
        }
        let shaped = run(&mut triples, &SchemaConfig::default());
        assert!(shaped[0].props[0].multi);
        assert_eq!(shaped[0].props[0].mean_mult, 3.0);
    }

    #[test]
    fn rare_duplicates_stay_single_valued() {
        // 2% of subjects have a second value: frac_multi 0.02 <= 0.10.
        let p = Oid::iri(100);
        let mut triples = Vec::new();
        for s in 0..100u64 {
            triples.push(Triple::new(Oid::iri(s), p, Oid::from_int(1).unwrap()));
        }
        triples.push(Triple::new(Oid::iri(7), p, Oid::from_int(2).unwrap()));
        triples.push(Triple::new(Oid::iri(8), p, Oid::from_int(2).unwrap()));
        let shaped = run(&mut triples, &SchemaConfig::default());
        assert!(!shaped[0].props[0].multi);
    }

    #[test]
    fn mismatched_types_do_not_count_toward_multiplicity() {
        // Every subject has one int + one string for p; declared type int
        // (strings are exceptions) -> still single-valued.
        let p = Oid::iri(100);
        let q = Oid::iri(101);
        let mut triples = Vec::new();
        for s in 0..100u64 {
            triples.push(Triple::new(
                Oid::iri(s),
                p,
                Oid::from_int(s as i64).unwrap(),
            ));
            triples.push(Triple::new(Oid::iri(s), q, Oid::from_int(0).unwrap()));
        }
        // minority string noise on p for 10 subjects
        for s in 0..10u64 {
            triples.push(Triple::new(Oid::iri(s), p, Oid::string(s)));
        }
        let shaped = run(&mut triples, &SchemaConfig::default());
        let prop = shaped[0].props.iter().find(|pr| pr.pred == p).unwrap();
        assert_eq!(prop.ty, TypeTag::Int);
        assert!(!prop.multi, "string noise must not force a side table");
    }
}
