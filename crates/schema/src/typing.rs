//! Typed properties: declare a type per column, split CS variants.
//!
//! After generalization, each class column gets a *declared type* from the
//! object-type histogram of its property. "For literal objects, we look at
//! the atomic type. In case of URI objects, we type them using initial CS
//! membership" — the FK stage handles the URI-target part; here we settle the
//! atomic tag. When a property's dominant tag is not dominant enough, the
//! class is split into **variants**, one per frequent type signature, "the
//! advantage being in faster processing of each CS variant, as the types of
//! the columns are known and homogeneous".

use crate::config::SchemaConfig;
use crate::cs::{runs_by, ExactCs, Profile, TagCounts};
use crate::merge::MergedClass;
use sordf_model::{FxHashMap, Oid, Triple, TypeTag};

/// A class whose columns carry declared types. May be a variant of a merged
/// class (several `TypedClass`es can share an origin).
#[derive(Debug, Clone)]
pub struct TypedClass {
    /// Kept properties, ascending.
    pub props: Vec<Oid>,
    /// Declared type per property.
    pub col_types: Vec<TypeTag>,
    /// Subjects having each property (within this variant).
    pub presence: Vec<u64>,
    /// Member subjects (profile ordinals).
    pub subjects: Vec<u32>,
    /// Object counts per property (within this variant), for the
    /// multiplicity stage.
    pub(crate) counts: Vec<TagCounts>,
}

impl TypedClass {
    pub fn support(&self) -> u64 {
        self.subjects.len() as u64
    }
}

/// (dominant tag, its fraction of all counted objects); ties → smaller tag.
fn dominant(objects: &[u64; 8]) -> (TypeTag, f64) {
    let (best, &n) = objects
        .iter()
        .enumerate()
        .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
        .unwrap();
    let total = objects.iter().sum::<u64>().max(1);
    (
        TypeTag::from_u8(best as u8).unwrap(),
        n as f64 / total as f64,
    )
}

/// Majority tag within one (s, p) object group (ties → smaller tag).
fn group_majority_tag(group: &[Triple]) -> Option<TypeTag> {
    let mut counts = [0u32; 8];
    for t in group {
        if !t.o.is_null() {
            counts[t.o.tag() as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
        .map(|(i, _)| TypeTag::from_u8(i as u8).unwrap())
}

/// The object counts of a merged class per kept property: the sums over its
/// member CSs (a merged class is a union of whole CSs).
fn member_counts(class: &MergedClass, css: &[ExactCs]) -> Vec<TagCounts> {
    let mut counts = vec![TagCounts::default(); class.props.len()];
    for &m in &class.members {
        let cs = &css[m];
        for (pi, p) in class.props.iter().enumerate() {
            if let Ok(k) = cs.props.binary_search(p) {
                counts[pi].add(&cs.counts[k]);
            }
        }
    }
    counts
}

/// Calls `f(prop index, group)` for each (s, p) group of `run` whose
/// predicate is in `props` (both ascending).
fn for_each_kept_group(props: &[Oid], run: &[Triple], mut f: impl FnMut(usize, &[Triple])) {
    let mut pi = 0;
    for group in runs_by(run, |t| t.p) {
        let p = group[0].p;
        while pi < props.len() && props[pi] < p {
            pi += 1;
        }
        if pi < props.len() && props[pi] == p {
            f(pi, group);
        }
    }
}

/// Assign declared column types and split type-incoherent classes into
/// variants.
pub(crate) fn type_classes(
    profile: &Profile,
    merged: Vec<MergedClass>,
    cfg: &SchemaConfig,
) -> Vec<TypedClass> {
    let mut out: Vec<TypedClass> = Vec::new();
    for class in merged {
        let counts = member_counts(&class, &profile.css);
        let doms: Vec<(TypeTag, f64)> = counts.iter().map(|c| dominant(&c.objects)).collect();
        let conflicted: Vec<usize> = doms
            .iter()
            .enumerate()
            .filter(|(_, &(_, frac))| frac + 1e-9 < cfg.type_dominance)
            .map(|(i, _)| i)
            .collect();
        if conflicted.is_empty() {
            out.push(TypedClass {
                col_types: doms.iter().map(|&(t, _)| t).collect(),
                presence: class.presence,
                props: class.props,
                subjects: class.subjects,
                counts,
            });
            continue;
        }
        out.extend(split_variants(profile, class, &doms, &conflicted, cfg));
    }
    out
}

/// Split one class into per-type-signature variants: the only stage that
/// walks a class's subjects, and only a conflicted class's.
fn split_variants(
    profile: &Profile,
    class: MergedClass,
    doms: &[(TypeTag, f64)],
    conflicted: &[usize],
    cfg: &SchemaConfig,
) -> Vec<TypedClass> {
    // Per subject, its signature over the conflicted props. Missing props
    // default to the dominant tag, so sparse subjects join the main variant.
    let default_sig: Vec<u8> = conflicted.iter().map(|&pi| doms[pi].0 as u8).collect();
    let mut groups: FxHashMap<Vec<u8>, Vec<u32>> = FxHashMap::default();
    for &ord in &class.subjects {
        let mut sig = default_sig.clone();
        for_each_kept_group(&class.props, profile.range(ord), |pi, group| {
            if let Ok(slot) = conflicted.binary_search(&pi) {
                if let Some(tag) = group_majority_tag(group) {
                    sig[slot] = tag as u8;
                }
            }
        });
        groups.entry(sig).or_default().push(ord);
    }
    let mut groups: Vec<(Vec<u8>, Vec<u32>)> = groups.into_iter().collect();
    // Deterministic: biggest first, then signature bytes.
    groups.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));

    let min_variant = ((class.subjects.len() as f64 * cfg.variant_min_frac).ceil() as usize).max(2);
    let mut variants: Vec<(Vec<u8>, Vec<u32>)> = Vec::new();
    let mut leftovers: Vec<u32> = Vec::new();
    for (sig, subjects) in groups {
        if variants.is_empty() || subjects.len() >= min_variant {
            variants.push((sig, subjects));
        } else {
            leftovers.extend(subjects);
        }
    }
    // Small groups fold into the largest variant; their mismatching triples
    // become irregular exceptions at placement time.
    variants[0].1.extend(leftovers);

    // Presence and object counts per variant.
    variants
        .into_iter()
        .map(|(sig, subjects)| {
            let col_types = (0..class.props.len())
                .map(|pi| match conflicted.binary_search(&pi) {
                    Ok(slot) => TypeTag::from_u8(sig[slot]).unwrap(),
                    Err(_) => doms[pi].0,
                })
                .collect();
            let mut presence = vec![0u64; class.props.len()];
            let mut counts = vec![TagCounts::default(); class.props.len()];
            for &ord in &subjects {
                for_each_kept_group(&class.props, profile.range(ord), |pi, group| {
                    presence[pi] += 1;
                    counts[pi].add_group(group);
                });
            }
            TypedClass {
                props: class.props.clone(),
                col_types,
                presence,
                subjects,
                counts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::generalize;

    fn run(triples: &mut [Triple], cfg: &SchemaConfig) -> Vec<TypedClass> {
        triples.sort_by_key(|t| t.key_spo());
        let profile = Profile::new(triples);
        let merged = generalize(&profile.css, cfg);
        type_classes(&profile, merged, cfg)
    }

    fn str_oid(n: u64) -> Oid {
        Oid::string(n)
    }

    #[test]
    fn homogeneous_types_pass_through() {
        let p_name = Oid::iri(100);
        let p_age = Oid::iri(101);
        let mut triples = Vec::new();
        for s in 0..20 {
            triples.push(Triple::new(Oid::iri(s), p_name, str_oid(s)));
            triples.push(Triple::new(
                Oid::iri(s),
                p_age,
                Oid::from_int(s as i64).unwrap(),
            ));
        }
        let typed = run(&mut triples, &SchemaConfig::default());
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].col_types, vec![TypeTag::Str, TypeTag::Int]);
        assert_eq!(typed[0].presence, vec![20, 20]);
    }

    #[test]
    fn minority_type_noise_does_not_split() {
        // 95 subjects with int age, 5 with string age: dominance 0.95 >= 0.8.
        let p = Oid::iri(100);
        let mut triples = Vec::new();
        for s in 0..95 {
            triples.push(Triple::new(
                Oid::iri(s),
                p,
                Oid::from_int(s as i64).unwrap(),
            ));
        }
        for s in 95..100 {
            triples.push(Triple::new(Oid::iri(s), p, str_oid(s)));
        }
        let typed = run(&mut triples, &SchemaConfig::default());
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].col_types, vec![TypeTag::Int]);
        assert_eq!(typed[0].support(), 100);
    }

    #[test]
    fn balanced_types_split_into_variants() {
        // 60 subjects with a date `issued`, 40 with a string `issued`.
        let p = Oid::iri(100);
        let q = Oid::iri(101); // common prop keeps them in one merged class
        let mut triples = Vec::new();
        for s in 0..60 {
            triples.push(Triple::new(
                Oid::iri(s),
                p,
                Oid::from_date_days(s as i64).unwrap(),
            ));
            triples.push(Triple::new(Oid::iri(s), q, str_oid(s)));
        }
        for s in 60..100 {
            triples.push(Triple::new(Oid::iri(s), p, str_oid(s)));
            triples.push(Triple::new(Oid::iri(s), q, str_oid(s)));
        }
        let typed = run(&mut triples, &SchemaConfig::default());
        assert_eq!(typed.len(), 2, "should split into two variants");
        let date_variant = typed
            .iter()
            .find(|t| t.col_types[0] == TypeTag::Date)
            .unwrap();
        let str_variant = typed
            .iter()
            .find(|t| t.col_types[0] == TypeTag::Str)
            .unwrap();
        assert_eq!(date_variant.support(), 60);
        assert_eq!(str_variant.support(), 40);
        // The non-conflicted column keeps its type in both variants.
        assert_eq!(date_variant.col_types[1], TypeTag::Str);
        assert_eq!(str_variant.col_types[1], TypeTag::Str);
    }

    #[test]
    fn tiny_variant_folds_into_main() {
        // 97 int vs 3 string at dominance threshold 0.99 -> conflicted, but
        // the string group (3 < 15% of 100) folds into the main variant.
        let p = Oid::iri(100);
        let mut triples = Vec::new();
        for s in 0..97 {
            triples.push(Triple::new(Oid::iri(s), p, Oid::from_int(1).unwrap()));
        }
        for s in 97..100 {
            triples.push(Triple::new(Oid::iri(s), p, str_oid(s)));
        }
        let cfg = SchemaConfig {
            type_dominance: 0.99,
            ..SchemaConfig::default()
        };
        let typed = run(&mut triples, &cfg);
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].support(), 100);
        assert_eq!(typed[0].col_types, vec![TypeTag::Int]);
    }

    #[test]
    fn subjects_missing_conflicted_prop_join_dominant_variant() {
        let p = Oid::iri(100); // conflicted prop (only on some subjects)
        let q = Oid::iri(101);
        let mut triples = Vec::new();
        for s in 0..50 {
            triples.push(Triple::new(Oid::iri(s), p, Oid::from_int(1).unwrap()));
            triples.push(Triple::new(Oid::iri(s), q, str_oid(s)));
        }
        for s in 50..80 {
            triples.push(Triple::new(Oid::iri(s), p, str_oid(s)));
            triples.push(Triple::new(Oid::iri(s), q, str_oid(s)));
        }
        // 20 subjects with only q (missing p): should join the int variant.
        for s in 80..100 {
            triples.push(Triple::new(Oid::iri(s), q, str_oid(s)));
        }
        let cfg = SchemaConfig {
            nullable_min_presence: 0.05,
            ..SchemaConfig::default()
        };
        let typed = run(&mut triples, &cfg);
        let int_variant = typed
            .iter()
            .find(|t| t.col_types[0] == TypeTag::Int)
            .unwrap();
        assert_eq!(int_variant.support(), 70); // 50 int + 20 missing
    }
}
