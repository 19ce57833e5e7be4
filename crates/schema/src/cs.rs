//! Exact characteristic-set extraction (Neumann & Moerkotte, ICDE 2011),
//! and the profile every later discovery stage works from.
//!
//! The characteristic set of a subject `s` is the set of distinct predicates
//! occurring with `s`. Subjects sharing a characteristic set form the raw
//! material from which classes are generalized.
//!
//! `Profile::new` is the one pass over the whole triple list: besides each
//! subject's exact CS it records the subject's triple range and, per (exact
//! CS, property), how many objects of each type tag occur and in how many
//! (s, p) groups. A merged class is a union of whole CSs, so typing and
//! multiplicity shaping are sums over its member CSs; only the stages that
//! need single values (type-variant signatures, FK targets, `rdf:type`
//! names, statistics) walk subject ranges again.

use sordf_model::{FxHashMap, Oid, Triple};

/// Per (exact CS, property) object counts by type tag. Additive: a class's
/// counts are the sums of its member CSs'.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TagCounts {
    /// Non-null objects of each tag.
    pub(crate) objects: [u64; 8],
    /// (s, p) groups with at least one object of each tag.
    pub(crate) groups_with: [u64; 8],
    /// (s, p) groups with more than one object of each tag.
    pub(crate) groups_multi: [u64; 8],
}

impl TagCounts {
    /// Count one (s, p) group, objects ascending: each tag's objects are
    /// one run (the NULL sentinel sorts last).
    pub(crate) fn add_group(&mut self, group: &[Triple]) {
        let tag_of = |t: &Triple| (!t.o.is_null()).then(|| t.o.tag() as usize);
        for run in runs_by(group, tag_of) {
            if let Some(tag) = tag_of(&run[0]) {
                self.objects[tag] += run.len() as u64;
                self.groups_with[tag] += 1;
                self.groups_multi[tag] += u64::from(run.len() > 1);
            }
        }
    }

    pub(crate) fn add(&mut self, other: &TagCounts) {
        for tag in 0..8 {
            self.objects[tag] += other.objects[tag];
            self.groups_with[tag] += other.groups_with[tag];
            self.groups_multi[tag] += other.groups_multi[tag];
        }
    }
}

/// One exact characteristic set with its member subjects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCs {
    /// Distinct predicates, ascending.
    pub props: Vec<Oid>,
    /// Member subjects as profile ordinals, ascending (SPO order).
    pub subjects: Vec<u32>,
    /// Object counts per property, aligned with `props`.
    pub(crate) counts: Vec<TagCounts>,
}

impl ExactCs {
    /// Number of subjects with exactly this property set.
    pub fn support(&self) -> u64 {
        self.subjects.len() as u64
    }
}

/// Split SPO-sorted `triples` into maximal runs that agree on `key`: the
/// subjects of a triple list, or the (s, p) groups of one subject.
pub(crate) fn runs_by<K: PartialEq>(
    triples: &[Triple],
    key: impl Fn(&Triple) -> K,
) -> impl Iterator<Item = &[Triple]> {
    let mut rest = triples;
    std::iter::from_fn(move || {
        let k = key(rest.first()?);
        let n = rest.iter().position(|t| key(t) != k).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(n);
        rest = tail;
        Some(run)
    })
}

/// The one pass over the triple list that discovery starts from.
pub(crate) struct Profile<'a> {
    triples: &'a [Triple],
    /// Distinct subjects in SPO order; a subject's ordinal is its index.
    subjects: Vec<Oid>,
    /// Subject `i`'s triples are `triples[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Exact CSs, descending support, ties broken by property list.
    pub(crate) css: Vec<ExactCs>,
    /// IRI payload − `iri_base` → ordinal (`u32::MAX`: not a subject).
    /// Empty when the IRI subjects are too sparse for a table; lookups then
    /// fall back to a binary search, as they do for other subjects.
    by_payload: Vec<u32>,
    iri_base: u64,
}

impl<'a> Profile<'a> {
    /// Profile SPO-sorted triples.
    pub(crate) fn new(triples_spo: &'a [Triple]) -> Profile<'a> {
        debug_assert!(
            triples_spo
                .windows(2)
                .all(|w| w[0].key_spo() <= w[1].key_spo()),
            "input must be SPO-sorted"
        );
        let mut subjects = Vec::new();
        let mut starts = Vec::new();
        let mut css: Vec<ExactCs> = Vec::new();
        let mut cs_of_props: FxHashMap<Vec<Oid>, usize> = FxHashMap::default();
        let mut props = Vec::new();
        let mut groups = Vec::new();
        let mut start = 0;
        for run in runs_by(triples_spo, |t| t.s) {
            let ord = subjects.len() as u32;
            subjects.push(run[0].s);
            starts.push(start);
            start += run.len();
            props.clear();
            groups.clear();
            for group in runs_by(run, |t| t.p) {
                props.push(group[0].p);
                groups.push(group);
            }
            let ci = match cs_of_props.get(&props[..]) {
                Some(&ci) => ci,
                None => {
                    cs_of_props.insert(props.clone(), css.len());
                    css.push(ExactCs {
                        props: props.clone(),
                        subjects: Vec::new(),
                        counts: vec![TagCounts::default(); props.len()],
                    });
                    css.len() - 1
                }
            };
            let cs = &mut css[ci];
            cs.subjects.push(ord);
            for (counts, group) in cs.counts.iter_mut().zip(&groups) {
                counts.add_group(group);
            }
        }
        starts.push(triples_spo.len());
        css.sort_by(|a, b| {
            b.support()
                .cmp(&a.support())
                .then_with(|| a.props.cmp(&b.props))
        });

        // IRI subjects sort first (their tag is 0) and ascend by payload.
        let n_iri = subjects.partition_point(|s| s.is_iri());
        let (mut by_payload, mut iri_base) = (Vec::new(), 0);
        if n_iri > 0 {
            iri_base = subjects[0].payload();
            let span = subjects[n_iri - 1].payload() - iri_base + 1;
            if span <= 4 * n_iri as u64 + 1024 {
                by_payload = vec![u32::MAX; span as usize];
                for (ord, s) in subjects[..n_iri].iter().enumerate() {
                    by_payload[(s.payload() - iri_base) as usize] = ord as u32;
                }
            }
        }
        Profile {
            triples: triples_spo,
            subjects,
            starts,
            css,
            by_payload,
            iri_base,
        }
    }

    /// Number of distinct subjects.
    pub(crate) fn n_subjects(&self) -> usize {
        self.subjects.len()
    }

    /// The subject with ordinal `ord`.
    pub(crate) fn subject(&self, ord: u32) -> Oid {
        self.subjects[ord as usize]
    }

    /// The triples of subject `ord`, SPO-sorted.
    pub(crate) fn range(&self, ord: u32) -> &'a [Triple] {
        let i = ord as usize;
        &self.triples[self.starts[i]..self.starts[i + 1]]
    }

    /// The ordinal of `s`, if it is a subject.
    pub(crate) fn ordinal(&self, s: Oid) -> Option<u32> {
        if s.is_iri() && !self.by_payload.is_empty() {
            let i = s.payload().wrapping_sub(self.iri_base);
            return self
                .by_payload
                .get(usize::try_from(i).ok()?)
                .copied()
                .filter(|&ord| ord != u32::MAX);
        }
        self.subjects.binary_search(&s).ok().map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Oid::iri(s), Oid::iri(p), Oid::iri(o))
    }

    fn sorted(mut v: Vec<Triple>) -> Vec<Triple> {
        v.sort_by_key(|t| t.key_spo());
        v
    }

    #[test]
    fn groups_subjects_by_property_set() {
        // s0, s1: {p1, p2}; s2: {p1}; s3: {p1, p2}
        let triples = sorted(vec![
            t(0, 1, 100),
            t(0, 2, 101),
            t(1, 1, 102),
            t(1, 2, 103),
            t(2, 1, 104),
            t(3, 1, 105),
            t(3, 2, 106),
        ]);
        let profile = Profile::new(&triples);
        let css = &profile.css;
        assert_eq!(css.len(), 2);
        // Largest CS first.
        assert_eq!(css[0].props, vec![Oid::iri(1), Oid::iri(2)]);
        assert_eq!(css[0].support(), 3);
        assert_eq!(css[0].subjects, vec![0, 1, 3]);
        assert_eq!(css[1].props, vec![Oid::iri(1)]);
        assert_eq!(css[1].subjects, vec![2]);
        assert_eq!(profile.subject(2), Oid::iri(2));
        assert_eq!(profile.range(1), &triples[2..4]);
    }

    #[test]
    fn duplicate_predicates_count_once() {
        // s0 has p1 twice (multi-valued) -> CS is still {p1}.
        let triples = sorted(vec![t(0, 1, 100), t(0, 1, 101)]);
        let profile = Profile::new(&triples);
        assert_eq!(profile.css.len(), 1);
        assert_eq!(profile.css[0].props, vec![Oid::iri(1)]);
        let counts = profile.css[0].counts[0];
        assert_eq!(counts.objects[0], 2);
        assert_eq!(counts.groups_with[0], 1);
        assert_eq!(counts.groups_multi[0], 1);
    }

    #[test]
    fn every_subject_assigned_exactly_once() {
        let triples = sorted(vec![
            t(0, 1, 9),
            t(1, 2, 9),
            t(2, 1, 9),
            t(2, 3, 9),
            t(3, 1, 9),
        ]);
        let profile = Profile::new(&triples);
        let mut all: Vec<u32> = profile
            .css
            .iter()
            .flat_map(|c| c.subjects.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let profile = Profile::new(&[]);
        assert!(profile.css.is_empty());
        assert_eq!(profile.n_subjects(), 0);
        assert_eq!(profile.ordinal(Oid::iri(0)), None);
    }

    #[test]
    fn ordinals_by_table_and_by_search() {
        // Dense IRI subjects use the table; blank subjects and IRIs far
        // apart fall back to the binary search.
        let mut triples = vec![t(10, 1, 9), t(12, 1, 9), t(11, 1, 9)];
        triples.push(Triple::new(Oid::blank(3), Oid::iri(1), Oid::iri(9)));
        let dense = sorted(triples.clone());
        let profile = Profile::new(&dense);
        assert!(!profile.by_payload.is_empty());
        for (ord, s) in [Oid::iri(10), Oid::iri(11), Oid::iri(12), Oid::blank(3)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(profile.ordinal(s), Some(ord as u32));
        }
        assert_eq!(profile.ordinal(Oid::iri(9)), None);
        assert_eq!(profile.ordinal(Oid::iri(13)), None);
        assert_eq!(profile.ordinal(Oid::blank(4)), None);

        triples.push(t(1 << 40, 1, 9));
        let sparse = sorted(triples);
        let profile = Profile::new(&sparse);
        assert!(profile.by_payload.is_empty());
        assert_eq!(profile.ordinal(Oid::iri(1 << 40)), Some(3));
        assert_eq!(profile.ordinal(Oid::blank(3)), Some(4));
        assert_eq!(profile.ordinal(Oid::iri(9)), None);
    }

    #[test]
    fn deterministic_order() {
        let triples = sorted(vec![t(0, 1, 9), t(1, 2, 9)]);
        assert_eq!(Profile::new(&triples).css, Profile::new(&triples).css);
    }
}
