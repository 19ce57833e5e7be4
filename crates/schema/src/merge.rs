//! Generalization: merging exact characteristic sets into classes.
//!
//! The original CS algorithm creates a different CS for each unique property
//! combination; real data therefore produces thousands of mostly-similar
//! CSs. Following the paper, we merge a CS into an existing class when a
//! large fraction of its properties already occur there, and keep an
//! attribute as a NULLABLE (`0..1`) column "if a significant minority
//! fraction of the subjects has at least one occurrence". Attributes below
//! that minority threshold are dropped from the class — their triples remain
//! in the irregular store.

use crate::config::SchemaConfig;
use crate::cs::ExactCs;
use sordf_model::{FxHashMap, FxHashSet, Oid};

/// A class produced by generalization: the union of one or more exact CSs.
#[derive(Debug, Clone)]
pub struct MergedClass {
    /// Kept properties, ascending.
    pub props: Vec<Oid>,
    /// For each kept property: number of member subjects having it.
    pub presence: Vec<u64>,
    /// Member exact CSs (indices into the input), in merge order.
    pub members: Vec<usize>,
    /// All member subjects (profile ordinals), member by member.
    pub subjects: Vec<u32>,
}

impl MergedClass {
    pub fn support(&self) -> u64 {
        self.subjects.len() as u64
    }
}

struct Group {
    union: FxHashSet<Oid>,
    /// prop → number of subjects having it.
    counts: FxHashMap<Oid, u64>,
    members: Vec<usize>,
    subjects: Vec<u32>,
}

/// Merge exact CSs (must be sorted by descending support, as
/// the profile holds them) into generalized classes.
pub fn generalize(css: &[ExactCs], cfg: &SchemaConfig) -> Vec<MergedClass> {
    let mut groups: Vec<Group> = Vec::new();
    for (ci, cs) in css.iter().enumerate() {
        let mut best: Option<(usize, f64, u64)> = None; // (group, score, size)
        for (gi, g) in groups.iter().enumerate() {
            let inter = cs.props.iter().filter(|p| g.union.contains(p)).count();
            // Two ways in: the CS is (mostly) contained in the group's
            // property union, or the two sets are similar overall (Jaccard) —
            // the latter admits CSs with a few *extra* properties, which
            // become low-presence columns or irregular triples.
            let containment = inter as f64 / cs.props.len() as f64;
            let union_size = cs.props.len() + g.union.len() - inter;
            let jaccard = inter as f64 / union_size as f64;
            let frac = containment.max(jaccard);
            let admissible =
                containment + 1e-9 >= cfg.merge_overlap || jaccard + 1e-9 >= cfg.merge_jaccard;
            if !admissible {
                continue;
            }
            let size = g.subjects.len() as u64;
            let better = match best {
                None => true,
                Some((_, bf, bs)) => frac > bf + 1e-9 || ((frac - bf).abs() <= 1e-9 && size > bs),
            };
            if better {
                best = Some((gi, frac, size));
            }
        }
        match best {
            Some((gi, _, _)) => {
                let g = &mut groups[gi];
                let support = cs.support();
                for &p in &cs.props {
                    g.union.insert(p);
                    *g.counts.entry(p).or_insert(0) += support;
                }
                g.members.push(ci);
                g.subjects.extend_from_slice(&cs.subjects);
            }
            None => {
                let mut counts = FxHashMap::default();
                let support = cs.support();
                for &p in &cs.props {
                    counts.insert(p, support);
                }
                groups.push(Group {
                    union: cs.props.iter().copied().collect(),
                    counts,
                    members: vec![ci],
                    subjects: cs.subjects.clone(),
                });
            }
        }
    }

    groups
        .into_iter()
        .map(|g| {
            let total = g.subjects.len() as u64;
            let mut kept: Vec<(Oid, u64)> = g
                .counts
                .into_iter()
                .filter(|&(_, n)| n as f64 / total as f64 + 1e-9 >= cfg.nullable_min_presence)
                .collect();
            kept.sort_by_key(|&(p, _)| p);
            MergedClass {
                props: kept.iter().map(|&(p, _)| p).collect(),
                presence: kept.iter().map(|&(_, n)| n).collect(),
                members: g.members,
                subjects: g.subjects,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cs(props: &[u64], n_subjects: u32, first_subject: u32) -> ExactCs {
        ExactCs {
            props: props.iter().map(|&p| Oid::iri(p)).collect(),
            subjects: (first_subject..first_subject + n_subjects).collect(),
            counts: vec![Default::default(); props.len()],
        }
    }

    #[test]
    fn subset_cs_merges_into_superset() {
        let css = vec![cs(&[1, 2, 3], 100, 0), cs(&[1, 2], 10, 100)];
        let merged = generalize(&css, &SchemaConfig::default());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].support(), 110);
        // prop 3 present in 100/110 subjects -> kept as nullable.
        assert_eq!(merged[0].props.len(), 3);
    }

    #[test]
    fn disjoint_css_stay_separate() {
        let css = vec![cs(&[1, 2], 50, 0), cs(&[8, 9], 50, 100)];
        let merged = generalize(&css, &SchemaConfig::default());
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn rare_extra_attribute_is_dropped() {
        // 1000 subjects {1,2}; 5 subjects {1,2,7}: prop 7 presence 5/1005 < 5%.
        let css = vec![cs(&[1, 2], 1000, 0), cs(&[1, 2, 7], 5, 2000)];
        let merged = generalize(&css, &SchemaConfig::default());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].props, vec![Oid::iri(1), Oid::iri(2)]);
        assert_eq!(merged[0].support(), 1005);
    }

    #[test]
    fn significant_minority_attribute_is_kept_nullable() {
        // 100 subjects {1,2}; 30 subjects {1,2,7}: presence 30/130 ≈ 23%.
        let css = vec![cs(&[1, 2], 100, 0), cs(&[1, 2, 7], 30, 2000)];
        let merged = generalize(&css, &SchemaConfig::default());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].props, vec![Oid::iri(1), Oid::iri(2), Oid::iri(7)]);
        let idx7 = merged[0]
            .props
            .iter()
            .position(|&p| p == Oid::iri(7))
            .unwrap();
        assert_eq!(merged[0].presence[idx7], 30);
    }

    #[test]
    fn below_overlap_threshold_does_not_merge() {
        // {1,2,3,4,5} vs {1,6,7,8,9}: overlap 1/5 = 0.2 < 0.8.
        let css = vec![cs(&[1, 2, 3, 4, 5], 100, 0), cs(&[1, 6, 7, 8, 9], 50, 500)];
        let merged = generalize(&css, &SchemaConfig::default());
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn exact_cs_config_never_merges() {
        let css = vec![cs(&[1, 2, 3], 100, 0), cs(&[1, 2], 90, 500)];
        let merged = generalize(&css, &SchemaConfig::exact_cs());
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn prefers_group_with_higher_overlap() {
        // {1,2,3,4} and {5,6,7,8} exist; {1,2,3,9} overlaps 3/4 with first.
        let cfg = SchemaConfig {
            merge_overlap: 0.7,
            ..SchemaConfig::default()
        };
        let css = vec![
            cs(&[1, 2, 3, 4], 100, 0),
            cs(&[5, 6, 7, 8], 100, 200),
            cs(&[1, 2, 3, 9], 10, 400),
        ];
        let merged = generalize(&css, &cfg);
        assert_eq!(merged.len(), 2);
        let big = merged.iter().find(|m| m.support() == 110).unwrap();
        assert!(big.props.contains(&Oid::iri(1)));
    }
}
