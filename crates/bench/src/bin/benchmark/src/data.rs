//! Inputs: the seeded RDF-H dataset, its base / held-out split and the
//! write batches. The product sees only what is generated here.

use sordf_model::{Term, TermTriple};
use sordf_rdfh::gen::NS;
use sordf_rdfh::RdfhConfig;
use std::time::Instant;

/// SplitMix64: the benchmark's own generator, so schedules and constants do
/// not depend on the product's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub struct Dataset {
    pub triples: Vec<TermTriple>,
    pub n_customer: u64,
    pub n_orders: u64,
    pub datagen_s: f64,
}

pub fn generate(sf: f64, seed: u64) -> Dataset {
    let t = Instant::now();
    let data = sordf_rdfh::generate(&RdfhConfig { sf, seed });
    Dataset {
        triples: data.triples,
        n_customer: data.n_customer,
        n_orders: data.n_orders,
        datagen_s: t.elapsed().as_secs_f64(),
    }
}

/// One subject in five is held out of the bulk load and arrives through the
/// write path instead (FNV-1a of the subject IRI, so the split is a property
/// of the data, not of its order).
pub fn is_held_out(subject_iri: &str) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in subject_iri.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % 5 == 0
}

pub fn customer_iri(key: u64) -> String {
    format!("{NS}customer{key}")
}

pub fn order_iri(key: u64) -> String {
    format!("{NS}order{key}")
}

/// Predicates no bulk-loaded subject carries. Every tenth held-out subject
/// brings a companion subject made of these alone: the incremental assigner
/// finds no class whose properties overlap, so the companion counts as
/// unmatched and its triples land irregular. (One such triple on an
/// existing shape would not do: a subject routes to a class as long as 80%
/// of its properties are the class's.)
pub fn unseen_predicates() -> [Term; 2] {
    [
        Term::iri(format!("{NS}bench_note")),
        Term::iri(format!("{NS}bench_rank")),
    ]
}

pub struct Split {
    /// The 80% that is bulk-loaded.
    pub base: Vec<TermTriple>,
    /// The 20% held out, as batches of whole subjects in seeded order.
    pub batches: Vec<Vec<TermTriple>>,
}

/// Split by subject and cut the held-out part into batches of about
/// `batch_triples` triples (a batch ends at the first subject boundary at or
/// past that size).
pub fn split(triples: Vec<TermTriple>, seed: u64, batch_triples: usize) -> Split {
    let mut base = Vec::with_capacity(triples.len());
    // The generator emits each subject's triples contiguously, except an
    // order's total price, which trails its lineitems: group by subject.
    let mut subjects: Vec<Vec<TermTriple>> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for t in triples {
        let held = t.s.as_iri().is_some_and(is_held_out);
        if !held {
            base.push(t);
            continue;
        }
        let slot = *index.entry(t.s.clone()).or_insert_with(|| {
            subjects.push(Vec::new());
            subjects.len() - 1
        });
        subjects[slot].push(t);
    }
    let [note, rank] = unseen_predicates();
    for (i, s) in subjects.iter_mut().enumerate() {
        if i % 10 == 0 {
            let companion = Term::iri(format!("{}/note", s[0].s.as_iri().unwrap_or_default()));
            s.push(TermTriple::new(
                companion.clone(),
                note.clone(),
                Term::str(format!("note {i}")),
            ));
            s.push(TermTriple::new(
                companion,
                rank.clone(),
                Term::int(i as i64),
            ));
        }
    }
    Rng::new(seed ^ 0x5eed_ba7c).shuffle(&mut subjects);
    let mut batches = Vec::new();
    let mut batch = Vec::with_capacity(batch_triples + 16);
    for s in subjects {
        batch.extend(s);
        if batch.len() >= batch_triples {
            batches.push(std::mem::replace(
                &mut batch,
                Vec::with_capacity(batch_triples + 16),
            ));
        }
    }
    if !batch.is_empty() {
        batches.push(batch);
    }
    Split { base, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = split(generate(0.0005, 3).triples, 3, 100);
        let b = split(generate(0.0005, 3).triples, 3, 100);
        assert_eq!(a.base, b.base);
        assert_eq!(a.batches, b.batches);
        let c = split(generate(0.0005, 4).triples, 4, 100);
        assert_ne!(a.batches, c.batches);
    }

    #[test]
    fn batches_hold_whole_held_out_subjects() {
        let all = generate(0.0005, 1).triples;
        let n = all.len();
        let s = split(all, 1, 100);
        let held: usize = s.batches.iter().map(Vec::len).sum();
        // Two extra triples beside every tenth held-out subject.
        assert!(held + s.base.len() > n && held + s.base.len() < n + held / 10);
        assert!((0.1..0.3).contains(&(held as f64 / n as f64)));
        let mut seen = std::collections::HashSet::new();
        for b in &s.batches {
            let mut in_batch = std::collections::HashSet::new();
            for t in b {
                let iri = t.s.as_iri().unwrap();
                assert!(is_held_out(iri.trim_end_matches("/note")));
                assert_eq!(iri.ends_with("/note"), unseen_predicates().contains(&t.p));
                in_batch.insert(t.s.clone());
            }
            for subject in in_batch {
                assert!(seen.insert(subject), "a subject spans two batches");
            }
        }
        assert!(s.base.iter().all(|t| !is_held_out(t.s.as_iri().unwrap())));
        let companions = s
            .batches
            .iter()
            .flatten()
            .filter(|t| t.p == unseen_predicates()[0])
            .count();
        assert!(companions > 0);
    }
}
