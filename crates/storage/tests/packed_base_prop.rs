//! The packed base of a built generation against a `Vec<Triple>` oracle.
//!
//! For generated SPO-sorted lists — empty and one-triple bases, duplicate
//! triples, subject runs longer than a block (so they straddle block
//! boundaries), objects and subjects of every `TypeTag`, raw values next to
//! `u64::MAX` (the FOR codec's in-band NULL code must never swallow a real
//! value), more than 256 distinct predicates (wider than a byte, in the
//! predicate table and inside one block) — every answer of the packed base
//! must equal the one the sorted slice gives: iteration, `of_subject`,
//! `occurrences`, `contains`, and the delta fold (`visible_base`,
//! `fold_delta`) under tombstones and inserts.
//!
//! A block stores each subject once with the id of its shape (the
//! sequence of its predicates there), so the lists also come in the forms
//! that stress the shape table: regular classes of consecutive subjects
//! sharing one to three predicate sequences with multi-valued properties;
//! one class whose subjects every block boundary cuts in two; blocks in
//! which every subject has a shape of its own; subjects with gaps and of
//! mixed tags. Every base's parts sum to its heap bytes.

use proptest::prelude::*;
use sordf_model::oid::PAYLOAD_MASK;
use sordf_model::{Oid, Triple, TypeTag};
use sordf_storage::base::BLOCK;
use sordf_storage::{fold_delta, visible_base, BaseTriples, DeltaStore, PackedTriples};

/// splitmix64: the lists are built from one generated seed.
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

/// An OID drawn from one of a few value shapes: dense small payloads of
/// any tag, any payload of any tag, or raw words at the top of the range.
fn oid(rng: &mut Mix, domain: u64) -> Oid {
    match rng.below(8) {
        0 => Oid::from_raw(u64::MAX - rng.below(3)),
        1 => Oid::new(
            TypeTag::ALL[rng.below(8) as usize],
            rng.next() & PAYLOAD_MASK,
        ),
        2 | 3 => Oid::new(TypeTag::ALL[rng.below(8) as usize], rng.below(domain)),
        _ => Oid::new(TypeTag::Iri, 1000 + rng.below(domain)),
    }
}

/// One SPO-sorted base of the given shape.
fn base(seed: u64, shape: u8) -> Vec<Triple> {
    let mut rng = Mix(seed);
    if shape >= 6 {
        return classes(&mut rng, shape);
    }
    let (n, n_preds, domain) = match shape {
        0 => (0, 1, 1),
        1 => (1, 1, 4),
        // Small domains: many duplicates and shared objects.
        2 => (rng.below(60) as usize, 3, 4),
        // Long subject runs over many predicates.
        3 => (
            2 * BLOCK + rng.below(3 * BLOCK as u64) as usize,
            400,
            1 << 20,
        ),
        _ => (
            rng.below(3 * BLOCK as u64) as usize,
            1 + rng.below(40),
            1 << 12,
        ),
    };
    let preds: Vec<Oid> = (0..n_preds).map(|i| Oid::iri(i * 3 + 7)).collect();
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let s = oid(&mut rng, domain);
        // Mostly short runs, now and then one longer than a block.
        let run = if rng.below(6) == 0 {
            rng.below(2 * BLOCK as u64) as usize
        } else {
            1 + rng.below(12) as usize
        };
        for _ in 0..run.min(n - v.len()) {
            let t = Triple::new(s, preds[rng.below(n_preds) as usize], oid(&mut rng, domain));
            v.push(t);
            if rng.below(10) == 0 && v.len() < n {
                v.push(t); // a duplicate
            }
        }
    }
    v.sort_unstable();
    v
}

/// A predicate sequence: sorted predicates, some multi-valued.
fn sequence(rng: &mut Mix, preds: &[Oid], min: usize) -> Vec<Oid> {
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

/// The class-like shapes of [`base`]:
/// * 6 — regular classes: runs of consecutive subjects, each sharing one
///   to three predicate sequences with multi-valued properties;
/// * 7 — one class of 3 to 13 triples a subject, so block boundaries cut
///   a subject's shape in two;
/// * 8 — every subject of a block with a shape of its own (its predicates
///   are the bits of a counter);
/// * 9 — subjects with gaps and of mixed tags, over a few sequences.
fn classes(rng: &mut Mix, shape: u8) -> Vec<Triple> {
    let n = BLOCK + rng.below(3 * BLOCK as u64) as usize;
    let preds: Vec<Oid> = (0..12).map(|i| Oid::iri(i * 5 + 3)).collect();
    let mut v = Vec::with_capacity(n + 64);
    let mut payload = rng.below(1 << 20);
    let push = |v: &mut Vec<Triple>, rng: &mut Mix, s: Oid, seq: &[Oid]| {
        v.extend(seq.iter().map(|&p| Triple::new(s, p, oid(rng, 1 << 10))));
    };
    match shape {
        6 => {
            while v.len() < n {
                let seqs: Vec<Vec<Oid>> = (0..1 + rng.below(3))
                    .map(|_| sequence(rng, &preds, 3))
                    .collect();
                for _ in 0..1 + rng.below(200) {
                    let seq = &seqs[rng.below(seqs.len() as u64) as usize];
                    push(&mut v, rng, Oid::iri(payload), seq);
                    payload += 1;
                }
            }
        }
        7 => {
            let width = 3 + rng.below(11) as usize;
            let seq: Vec<Oid> = (0..width).map(|i| preds[i * preds.len() / width]).collect();
            while v.len() < n {
                push(&mut v, rng, Oid::iri(payload), &seq);
                payload += 1;
            }
        }
        8 => {
            let mut counter = 1u64;
            while v.len() < n {
                let seq: Vec<Oid> = (0..preds.len())
                    .filter(|&i| counter >> i & 1 == 1)
                    .map(|i| preds[i])
                    .collect();
                push(&mut v, rng, Oid::iri(payload), &seq);
                payload += 1;
                counter = counter % ((1 << preds.len()) - 1) + 1;
            }
        }
        _ => {
            let seqs: Vec<Vec<Oid>> = (0..4).map(|_| sequence(rng, &preds, 1)).collect();
            while v.len() < n {
                let tag = TypeTag::ALL[rng.below(8) as usize];
                let seq = &seqs[rng.below(seqs.len() as u64) as usize];
                push(&mut v, rng, Oid::new(tag, payload), seq);
                payload += 1 + rng.below(1000);
            }
        }
    }
    v.sort_unstable();
    v
}

fn rows_of(v: &[Triple], s: Oid) -> Vec<Triple> {
    v.iter().copied().filter(|t| t.s == s).collect()
}

/// Triples as raw words, for comparison: an OID at the top of the range has
/// no valid tag, and `Oid`'s `Debug` would refuse to print it.
fn raw(v: impl IntoIterator<Item = Triple>) -> Vec<[u64; 3]> {
    v.into_iter()
        .map(|t| [t.s.raw(), t.p.raw(), t.o.raw()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_packed_base_answers_what_the_slice_answers(
        seed in any::<u64>(),
        shape in 0u8..10,
        probe_seed in any::<u64>(),
    ) {
        let v = base(seed, shape);
        let packed = PackedTriples::from_sorted(&v);
        prop_assert_eq!(packed.len(), v.len());
        let parts = packed.bytes_by_part();
        prop_assert_eq!(parts.total(), packed.heap_bytes());
        if shape == 7 {
            // One shared shape: subjects and shapes take less than a
            // subject run of one FOR value a triple would (9+ bits here).
            let per_triple = (parts.subjects + parts.shapes) as f64 / v.len() as f64;
            prop_assert!(per_triple < 0.75, "{:?} over {} triples", parts, v.len());
        }
        prop_assert_eq!(packed.iter().len(), v.len());
        let base = BaseTriples::Packed(packed);
        prop_assert_eq!(raw(base.iter()), raw(v.iter().copied()));
        prop_assert!(base.as_slice().as_ref() == v.as_slice());

        // Lookups: every subject present, its neighbours, the extremes.
        let mut subjects: Vec<Oid> = v.iter().map(|t| t.s).collect();
        subjects.dedup();
        let mut probes = subjects.clone();
        for s in &subjects {
            probes.push(Oid::from_raw(s.raw().wrapping_add(1)));
            probes.push(Oid::from_raw(s.raw().wrapping_sub(1)));
        }
        probes.extend([Oid::from_raw(0), Oid::from_raw(u64::MAX)]);
        for s in probes {
            let mut got = Vec::new();
            base.of_subject(s, &mut got);
            prop_assert_eq!(raw(got), raw(rows_of(&v, s)), "subject {:#x}", s.raw());
        }
        let mut rng = Mix(probe_seed);
        for _ in 0..64.min(v.len()) {
            let t = v[rng.below(v.len() as u64) as usize];
            let count = v.iter().filter(|&&x| x == t).count();
            prop_assert_eq!(base.occurrences(t), count);
            prop_assert!(base.contains(t));
            let absent = Triple::new(t.s, t.p, Oid::from_raw(t.o.raw() ^ 1));
            prop_assert_eq!(base.contains(absent), v.contains(&absent));
        }

        // The delta fold: tombstones on base triples (duplicates die
        // together) and on absent ones, inserts new and repeated.
        let mut delta = DeltaStore::new();
        let mut inserted: Vec<Triple> = (0..rng.below(20))
            .map(|_| Triple::new(oid(&mut rng, 64), Oid::iri(7), oid(&mut rng, 64)))
            .collect();
        if let Some(&t) = v.first() {
            inserted.push(t);
        }
        let _ = delta.insert_run(inserted);
        let dead: Vec<Triple> = (0..rng.below(30).min(v.len() as u64))
            .map(|_| v[rng.below(v.len() as u64) as usize])
            .chain([Triple::new(Oid::iri(1), Oid::iri(2), Oid::iri(3))])
            .collect();
        let _ = delta.delete(&dead);
        let view = delta.current_view();
        let want_visible: Vec<Triple> = v
            .iter()
            .copied()
            .filter(|&t| !view.is_some_and(|d| d.is_deleted(t)))
            .collect();
        prop_assert_eq!(raw(visible_base(base.iter(), view)), raw(want_visible.clone()));
        let mut want_folded = want_visible;
        want_folded.extend(view.map_or(&[][..], |d| d.inserts()));
        want_folded.sort_unstable();
        prop_assert_eq!(raw(fold_delta(base.iter(), view)), raw(want_folded));
        prop_assert_eq!(raw(fold_delta(base.iter(), None)), raw(v));
    }
}

#[test]
fn more_than_a_byte_of_predicates_in_one_block() {
    let v: Vec<Triple> = (0..BLOCK as u64)
        .map(|i| {
            Triple::new(
                Oid::iri(1 + i / 700),
                Oid::iri(i % 300),
                Oid::from_int(i as i64).unwrap(),
            )
        })
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let base = BaseTriples::Packed(PackedTriples::from_sorted(&v));
    assert_eq!(base.iter().collect::<Vec<_>>(), v.clone());
    for s in [1, 2] {
        let mut rows = Vec::new();
        base.of_subject(Oid::iri(s), &mut rows);
        assert_eq!(rows, rows_of(&v, Oid::iri(s)));
    }
}
