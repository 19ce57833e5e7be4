//! A built generation's base, read back from its layouts, against a
//! `Vec<Triple>` model.
//!
//! A built generation keeps no triple list: rebuilds, deletes, checkpoints
//! and counts read the base from the layout that holds it. For generated
//! loads — empty and one-triple loads, duplicate triples, subject runs over
//! many predicates, regular classes with multi-valued properties, one wide
//! class, a class shape per subject, subjects with gaps, type exceptions,
//! blank subjects and subjects no class takes — each layout (dense CS
//! segments after renumbering, sparse CS segments over parse-order OIDs,
//! the baseline's permutation indexes) must answer what the sorted load
//! answers: `triples_spo` is the load in SPO order, duplicates included;
//! `occurrences` counts a triple as often as the load holds it; and
//! `of_subject` lists a subject's triples in SPO order. The delta fold over
//! the enumeration matches the model's too.

use std::sync::Arc;

use proptest::prelude::*;
use sordf_columnar::{BufferPool, DiskManager};
use sordf_model::{Oid, Term, TermTriple, Triple};
use sordf_schema::SchemaConfig;
use sordf_storage::{
    build_clustered, fold_delta, reorganize, BaseLayout, BaselineStore, ClusterSpec, DeltaStore,
    TripleSet,
};

/// splitmix64: a load is built from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn pred(i: u64) -> Term {
    Term::iri(format!("http://p/{i}"))
}

/// A subject: mostly an IRI, now and then a blank node.
fn subject(rng: &mut Mix, i: u64) -> Term {
    if rng.below(8) == 0 {
        Term::Blank(format!("b{i}"))
    } else {
        Term::iri(format!("http://s/{i}"))
    }
}

/// An object of the predicate's usual type, or now and then of another (a
/// type exception), from a domain of `domain` values.
fn object(rng: &mut Mix, p: u64, domain: u64) -> Term {
    let v = rng.below(domain);
    let kind = if rng.below(12) == 0 {
        rng.below(5)
    } else {
        p % 5
    };
    match kind {
        0 => Term::int(v as i64 - 3),
        1 => Term::str(format!("v{v}")),
        2 => Term::date(&format!("1996-{:02}-{:02}", v % 12 + 1, v % 28 + 1)),
        3 => Term::iri(format!("http://o/{v}")),
        _ => Term::Blank(format!("o{v}")),
    }
}

/// A predicate sequence: some of `preds` in order, some multi-valued.
fn sequence(rng: &mut Mix, preds: &[u64], min: usize) -> Vec<u64> {
    let mut seq = Vec::new();
    for &p in preds {
        if seq.len() < min || rng.below(3) == 0 {
            let values = if rng.below(4) == 0 {
                2 + rng.below(3)
            } else {
                1
            };
            seq.extend((0..values).map(|_| p));
        }
    }
    seq
}

/// One load of the given shape:
/// * 0, 1 — empty, one triple;
/// * 2 — a few subjects over three predicates and four values: duplicates
///   and shared objects;
/// * 3 — long subject runs over 400 predicates;
/// * 4 — short and long runs over up to 40 predicates;
/// * 5 — regular classes: runs of subjects sharing one to three predicate
///   sequences with multi-valued properties;
/// * 6 — one class of 3 to 13 predicates;
/// * 7 — every subject with a predicate set of its own (the bits of a
///   counter);
/// * 8 — subjects with gaps over a few sequences.
///
/// Every shape but the first two repeats a tenth of its triples.
fn load(seed: u64, shape: u8) -> Vec<TermTriple> {
    let mut rng = Mix(seed);
    let mut out = Vec::new();
    let push = |out: &mut Vec<TermTriple>, rng: &mut Mix, s: &Term, p: u64, domain: u64| {
        out.push(TermTriple::new(s.clone(), pred(p), object(rng, p, domain)));
    };
    match shape {
        0 => {}
        1 => push(&mut out, &mut rng, &Term::iri("http://s/0"), 0, 4),
        2..=4 => {
            let (n, n_preds, domain) = match shape {
                2 => (rng.below(60), 3, 4),
                3 => (1500 + rng.below(1500), 400, 1 << 20),
                _ => (rng.below(2000), 1 + rng.below(40), 1 << 12),
            };
            let mut id = 0;
            while (out.len() as u64) < n {
                // Subjects in no particular order, some more than once.
                let i = rng.below(n / 4 + 8) + id;
                let s = subject(&mut rng, i);
                let run = if rng.below(6) == 0 {
                    rng.below(400)
                } else {
                    1 + rng.below(12)
                };
                for _ in 0..run.min(n - out.len() as u64) {
                    let p = rng.below(n_preds);
                    push(&mut out, &mut rng, &s, p, domain);
                }
                id += 1;
            }
        }
        _ => {
            let preds: Vec<u64> = (0..12).collect();
            let n = 400 + rng.below(1600) as usize;
            let mut id = rng.below(1 << 20);
            let seqs: Vec<Vec<u64>> = (0..1 + rng.below(3))
                .map(|_| sequence(&mut rng, &preds, if shape == 8 { 1 } else { 3 }))
                .collect();
            let width = 3 + rng.below(11) as usize;
            let wide: Vec<u64> = (0..width).map(|i| preds[i * preds.len() / width]).collect();
            let mut counter = 1u64;
            while out.len() < n {
                let seq: Vec<u64> = match shape {
                    5 | 8 => seqs[rng.below(seqs.len() as u64) as usize].clone(),
                    6 => wide.clone(),
                    _ => {
                        counter = counter % ((1 << preds.len()) - 1) + 1;
                        preds
                            .iter()
                            .copied()
                            .filter(|&p| counter >> p & 1 == 1)
                            .collect()
                    }
                };
                let s = subject(&mut rng, id);
                for &p in &seq {
                    push(&mut out, &mut rng, &s, p, 1 << 10);
                }
                id += if shape == 8 { 1 + rng.below(1000) } else { 1 };
            }
        }
    }
    // A tenth again: duplicates of column values, side-table pairs and
    // irregular triples alike.
    if shape >= 2 {
        let n = out.len();
        for _ in 0..n / 10 {
            let t = out[rng.below(n as u64) as usize].clone();
            out.push(t);
        }
    }
    out
}

/// The three layouts over one load, each with the SPO-sorted load under
/// its own numbering.
struct Built {
    _dm: Arc<DiskManager>,
    pool: BufferPool,
    layouts: Vec<(&'static str, Box<dyn BaseLayout>, Vec<Triple>)>,
}

fn build(terms: &[TermTriple]) -> Built {
    let dm = Arc::new(DiskManager::temp().unwrap());
    let mut ts = TripleSet::new();
    ts.extend_terms(terms).unwrap();
    let spo = ts.sorted_spo();
    let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
    let spec = ClusterSpec::auto(&schema);
    let mut layouts = Vec::new();
    let mut sparse_schema = schema.clone();
    let sparse = build_clustered(&dm, &spo, &mut sparse_schema, &spec, false);
    layouts.push((
        "sparse",
        Box::new(sparse) as Box<dyn BaseLayout>,
        spo.clone(),
    ));
    let baseline = BaselineStore::build(&dm, &spo);
    layouts.push(("baseline", Box::new(baseline), spo));
    reorganize(&mut ts, &mut schema, &spec);
    let spo = ts.sorted_spo();
    let dense = build_clustered(&dm, &spo, &mut schema, &spec, true);
    layouts.push(("dense", Box::new(dense), spo));
    let pool = BufferPool::new(Arc::clone(&dm), 256);
    Built {
        _dm: dm,
        pool,
        layouts,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_layout_enumerates_and_finds_what_the_load_holds(
        seed in any::<u64>(),
        shape in 0u8..9,
        probe_seed in any::<u64>(),
    ) {
        let terms = load(seed, shape);
        let built = build(&terms);
        let pool = &built.pool;
        for (name, layout, v) in &built.layouts {
            prop_assert_eq!(v.len(), terms.len());
            prop_assert!(&layout.triples_spo(pool) == v, "{} enumerates the sorted load", name);

            // Subjects present (the first, the last, a sample), their
            // neighbours, and one below every OID.
            let mut rng = Mix(probe_seed);
            let mut subjects: Vec<Oid> = v.iter().map(|t| t.s).collect();
            subjects.dedup();
            let mut probes = vec![Oid::iri(0)];
            for i in (0..24).map(|_| rng.below(subjects.len() as u64) as usize).chain([0, subjects.len().max(1) - 1]) {
                if let Some(&s) = subjects.get(i) {
                    probes.extend([s, Oid::from_raw(s.raw() + 1), Oid::from_raw(s.raw().saturating_sub(1))]);
                }
            }
            for s in probes {
                let want: Vec<Triple> = v.iter().copied().filter(|t| t.s == s).collect();
                let mut got = Vec::new();
                layout.of_subject(pool, s, &mut got);
                prop_assert_eq!(got, want, "{} subject {:?}", name, s);
            }

            for _ in 0..64.min(v.len()) {
                let t = v[rng.below(v.len() as u64) as usize];
                let count = v.iter().filter(|&&x| x == t).count();
                prop_assert_eq!(layout.occurrences(pool, t), count, "{} {:?}", name, t);
                for absent in [
                    Triple::new(t.s, t.p, Oid::from_raw(t.o.raw() ^ 1)),
                    Triple::new(Oid::from_raw(t.s.raw() ^ 1), t.p, t.o),
                    Triple::new(t.s, Oid::from_raw(t.p.raw() ^ 1), t.o),
                ] {
                    let count = v.iter().filter(|&&x| x == absent).count();
                    prop_assert_eq!(layout.occurrences(pool, absent), count, "{} {:?}", name, absent);
                }
            }

            // The delta fold over the enumeration: tombstones on base
            // triples (duplicates die together) and on absent ones, inserts
            // new and repeated.
            let mut delta = DeltaStore::new();
            let mut inserted: Vec<Triple> = (0..rng.below(20))
                .map(|i| Triple::new(Oid::iri(1 << 40 | i), Oid::iri(7), Oid::from_int(i as i64).unwrap()))
                .collect();
            inserted.extend(v.first().copied());
            let _ = delta.insert_run(inserted);
            let dead: Vec<Triple> = (0..rng.below(30).min(v.len() as u64))
                .map(|_| v[rng.below(v.len() as u64) as usize])
                .chain([Triple::new(Oid::iri(1), Oid::iri(2), Oid::iri(3))])
                .collect();
            let _ = delta.delete(&dead);
            let view = delta.current_view();
            let mut want: Vec<Triple> = v
                .iter()
                .copied()
                .filter(|&t| !view.is_some_and(|d| d.is_deleted(t)))
                .collect();
            want.extend(view.map_or(&[][..], |d| d.inserts()));
            want.sort_unstable();
            prop_assert_eq!(fold_delta(layout.triples_spo(pool), view), want, "{} fold", name);
        }
    }
}
