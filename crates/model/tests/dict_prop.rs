//! The dictionary against a model: one `Vec<String>` plus a `HashMap` per
//! pool.
//!
//! Seeded histories interleave interning, lookups, decodes (to terms, and
//! as display text appended to a buffer), renumberings
//! that drop entries (sized before some late interns, which must stay out),
//! `sort_strings`, and a dump reloaded through `from_pools` — whole, or a
//! prefix extended by `append_entry` the way recovery replays a log. After
//! every step that rebuilds a pool, every entry is decoded and looked up,
//! and so are absent keys on both sides of every entry. The keys include
//! IRIs that are proper prefixes of each other, non-ASCII and empty
//! strings, language-tagged literals, and runs long enough to cross
//! front-coded group boundaries; tails are interned after a freeze and then
//! frozen again.

use std::collections::HashMap;

use proptest::prelude::*;
use sordf_model::dict::FC_GROUP;
use sordf_model::{DictPool, Dictionary, Literal, Oid, Term, TypeTag, Value};

/// splitmix64: a history is drawn from one generated seed.
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

    fn pick<'a, T>(&mut self, v: &'a [T]) -> &'a T {
        &v[self.below(v.len() as u64) as usize]
    }
}

/// Pieces that make keys prefixes of each other, share long prefixes, or
/// carry multi-byte characters.
const PIECES: &[&str] = &[
    "",
    "a",
    "ab",
    "b",
    "é",
    "日本",
    "\u{7f}",
    "\u{10ffff}",
    "http://e/",
    "http://e/a",
    "/",
];

/// A key: mostly numbered under a shared prefix (long sorted runs that
/// cross group boundaries), sometimes glued from [`PIECES`].
fn word(rng: &mut Mix, domain: u64) -> String {
    if rng.below(3) > 0 {
        return format!("http://e/n{}", rng.below(domain));
    }
    (0..rng.below(4)).map(|_| *rng.pick(PIECES)).collect()
}

/// The text a pool holds for `term` (what a dump writes): a language tag
/// follows its lexical form after a NUL.
fn pool_key(term: &Term) -> (DictPool, String) {
    match term {
        Term::Iri(s) => (DictPool::Iris, s.clone()),
        Term::Blank(s) => (DictPool::Blanks, s.clone()),
        Term::Literal(Literal {
            value: Value::Str { lexical, lang },
        }) => match lang {
            None => (DictPool::Strings, lexical.clone()),
            Some(l) => (DictPool::Strings, format!("{lexical}\u{0}{l}")),
        },
        Term::Literal(_) => unreachable!("only pooled terms are generated"),
    }
}

fn term_of(pool: DictPool, key: &str) -> Term {
    match pool {
        DictPool::Iris => Term::iri(key),
        DictPool::Blanks => Term::blank(key),
        DictPool::Strings => {
            let (lexical, lang) = match key.split_once('\u{0}') {
                Some((lex, lang)) => (lex, Some(lang.to_string())),
                None => (key, None),
            };
            Term::literal(Value::Str {
                lexical: lexical.to_string(),
                lang,
            })
        }
    }
}

/// What a result shows for the entry `key` of `pool`: `<iri>`, `_:label`,
/// a string's lexical form without its language tag.
fn display(pool: DictPool, key: &str) -> String {
    match pool {
        DictPool::Iris => format!("<{key}>"),
        DictPool::Blanks => format!("_:{key}"),
        DictPool::Strings => key.split('\u{0}').next().unwrap_or("").to_string(),
    }
}

fn oid_of(pool: DictPool, i: u64) -> Oid {
    match pool {
        DictPool::Iris => Oid::iri(i),
        DictPool::Blanks => Oid::blank(i),
        DictPool::Strings => Oid::string(i),
    }
}

fn random_term(rng: &mut Mix, domain: u64) -> Term {
    let w = word(rng, domain);
    match rng.below(4) {
        0 | 1 => Term::iri(w),
        2 => Term::blank(w),
        _ => Term::literal(Value::Str {
            lexical: w,
            lang: rng
                .pick(&[None, Some("en"), Some("fr-be")])
                .map(str::to_string),
        }),
    }
}

/// The model: each pool's entries in index order and their indexes, plus
/// how long the sorted string run is.
#[derive(Default)]
struct Model {
    entries: [Vec<String>; 3],
    index: [HashMap<String, u64>; 3],
    strings_frozen: usize,
}

impl Model {
    fn lookup(&self, pool: DictPool, key: &str) -> Option<u64> {
        self.index[pool as usize].get(key).copied()
    }

    fn intern(&mut self, pool: DictPool, key: &str) -> u64 {
        if let Some(i) = self.lookup(pool, key) {
            return i;
        }
        let p = pool as usize;
        let i = self.entries[p].len() as u64;
        self.entries[p].push(key.to_string());
        self.index[p].insert(key.to_string(), i);
        i
    }

    fn set(&mut self, pool: DictPool, entries: Vec<String>) {
        let p = pool as usize;
        self.index[p] = entries
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u64))
            .collect();
        self.entries[p] = entries;
    }
}

fn dump(d: &Dictionary, pool: DictPool, from: u64) -> Vec<String> {
    let mut out = Vec::new();
    d.try_for_each_entry_from(pool, from, |s| {
        out.push(s.to_string());
        Ok::<(), ()>(())
    })
    .unwrap();
    out
}

/// Every entry decodes and resolves to its index; keys just below and just
/// above every entry resolve exactly when the model holds them.
fn check(d: &Dictionary, m: &Model) {
    assert_eq!(
        d.pool_counts(),
        DictPool::ALL.map(|p| m.entries[p as usize].len() as u64)
    );
    assert_eq!(d.n_strings_frozen(), m.strings_frozen);
    for pool in DictPool::ALL {
        let entries = &m.entries[pool as usize];
        assert_eq!(&dump(d, pool, 0), entries, "{pool:?} dump");
        let from = entries.len() as u64 / 3;
        assert_eq!(
            dump(d, pool, from),
            entries[from as usize..],
            "{pool:?} dump from {from}"
        );
        for (i, key) in entries.iter().enumerate() {
            let oid = oid_of(pool, i as u64);
            let term = term_of(pool, key);
            assert_eq!(d.decode(oid).unwrap(), term, "{pool:?} decode {i}");
            // The positional decode into a buffer appends the entry's
            // display text to what the buffer holds.
            let mut text = String::from("«");
            d.push_display(oid, &mut text).unwrap();
            assert_eq!(
                text,
                format!("«{}", display(pool, key)),
                "{pool:?} text {i}"
            );
            assert_eq!(d.term_oid(&term), Some(oid), "{pool:?} lookup {key:?}");
            if pool == DictPool::Iris {
                assert_eq!(d.iri_str(oid).unwrap(), *key);
                assert_eq!(d.iri_oid(key), Some(oid));
            }
            let mut chars = key.chars();
            chars.next_back();
            let below = chars.as_str().to_string();
            let bumped: String = match key.chars().last() {
                Some(c) => chars
                    .as_str()
                    .chars()
                    .chain(char::from_u32(c as u32 + 1))
                    .collect(),
                None => "\u{1}".to_string(),
            };
            for probe in [below, format!("{key}\u{1}"), format!("{key}a"), bumped] {
                let want = m.lookup(pool, &probe).map(|i| oid_of(pool, i));
                assert_eq!(
                    d.term_oid(&term_of(pool, &probe)),
                    want,
                    "{pool:?} probe {probe:?}"
                );
            }
        }
        let past = oid_of(pool, entries.len() as u64);
        assert!(d.decode(past).is_err(), "{pool:?} decodes past its end");
        let mut text = String::from("«");
        assert!(d.push_display(past, &mut text).is_err());
        assert_eq!(text, "«", "{pool:?}: a failed decode appends nothing");
    }
    // The sorted run is sorted: string OIDs below it compare like values.
    let run = &m.entries[DictPool::Strings as usize][..m.strings_frozen];
    assert!(run.windows(2).all(|w| w[0] < w[1]), "string run unsorted");
}

/// A renumbering of the dictionary as a reorganization makes it: IRIs
/// dropped now and then, the rest shuffled; strings dropped now and then,
/// the rest sorted. The maps are sized before `late` more terms are
/// interned, which the result must not hold.
fn renumber(d: &Dictionary, m: &mut Model, rng: &mut Mix, late: &[Term]) -> Dictionary {
    let n_iris = m.entries[DictPool::Iris as usize].len();
    let n_strings = m.entries[DictPool::Strings as usize].len();
    let drops = rng.below(3) > 0;
    let keep = |rng: &mut Mix| !drops || rng.below(4) > 0;
    let kept_iris: Vec<usize> = (0..n_iris).filter(|_| keep(rng)).collect();
    let live_str: Vec<bool> = (0..n_strings).map(|_| keep(rng)).collect();
    for t in late {
        d.encode_term(t).unwrap();
    }
    let mut order = kept_iris.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut iri_map = vec![Dictionary::DROPPED; n_iris];
    for (new, &old) in order.iter().enumerate() {
        iri_map[old] = new as u64;
    }
    let (next, str_map) = d.renumbered(&iri_map, &live_str);

    let old_iris = std::mem::take(&mut m.entries[DictPool::Iris as usize]);
    let iris = order.iter().map(|&old| old_iris[old].clone()).collect();
    m.set(DictPool::Iris, iris);
    let old_strings = std::mem::take(&mut m.entries[DictPool::Strings as usize]);
    let mut strings: Vec<String> = (0..n_strings)
        .filter(|&i| live_str[i])
        .map(|i| old_strings[i].clone())
        .collect();
    strings.sort();
    for (old, &new) in str_map.iter().enumerate() {
        match live_str[old] {
            true => assert_eq!(strings[new as usize], old_strings[old], "string map"),
            false => assert_eq!(new, Dictionary::DROPPED, "string map"),
        }
    }
    m.strings_frozen = strings.len();
    m.set(DictPool::Strings, strings);
    // Blank nodes survive a renumbering as they are, late ones included.
    for t in late {
        if let Term::Blank(label) = t {
            m.intern(DictPool::Blanks, label);
        }
    }
    next
}

/// Dump, then reload: the whole dump frozen, or a prefix of it extended
/// by `append_entry` the way recovery folds a log into a snapshot.
fn reload(d: &Dictionary, rng: &mut Mix) -> Dictionary {
    let pools = DictPool::ALL.map(|p| dump(d, p, 0));
    let frozen = d.n_strings_frozen();
    let cut = DictPool::ALL.map(|p| {
        let n = pools[p as usize].len() as u64;
        let floor = if p == DictPool::Strings {
            frozen as u64
        } else {
            0
        };
        match rng.below(2) {
            0 => n,
            _ => floor + rng.below(n - floor + 1),
        }
    });
    let [iris, blanks, strings] = pools.clone().map(Some);
    let prefix =
        |v: Option<Vec<String>>, p: DictPool| v.unwrap()[..cut[p as usize] as usize].to_vec();
    let back = Dictionary::from_pools(
        prefix(iris, DictPool::Iris),
        prefix(blanks, DictPool::Blanks),
        prefix(strings, DictPool::Strings),
        frozen,
    )
    .unwrap();
    for p in DictPool::ALL {
        for (i, e) in pools[p as usize]
            .iter()
            .enumerate()
            .skip(cut[p as usize] as usize)
        {
            back.append_entry(p, i as u64, e).unwrap();
        }
    }
    assert_eq!(back.pool_counts(), d.pool_counts());
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn the_dictionary_answers_what_the_model_answers(seed in any::<u64>(), steps in 50usize..400) {
        let mut rng = Mix(seed);
        // Small domains make repeats; large ones long sorted runs.
        let domain = *rng.pick(&[8, 64, 1000]);
        let mut d = Dictionary::new();
        let mut m = Model::default();
        for _ in 0..steps {
            match rng.below(40) {
                0 => {
                    let late: Vec<Term> =
                        (0..rng.below(4)).map(|_| random_term(&mut rng, domain)).collect();
                    d = renumber(&d, &mut m, &mut rng, &late);
                    check(&d, &m);
                }
                1 => {
                    let map = d.sort_strings();
                    let old = std::mem::take(&mut m.entries[DictPool::Strings as usize]);
                    let mut sorted = old.clone();
                    sorted.sort();
                    for (i, &new) in map.iter().enumerate() {
                        prop_assert_eq!(&sorted[new as usize], &old[i]);
                    }
                    m.strings_frozen = sorted.len();
                    m.set(DictPool::Strings, sorted);
                    check(&d, &m);
                }
                2 => {
                    d = reload(&d, &mut rng);
                    check(&d, &m);
                }
                3..=10 => {
                    // A lookup, present or absent: nothing is interned.
                    let t = random_term(&mut rng, domain);
                    let (pool, key) = pool_key(&t);
                    let want = m.lookup(pool, &key).map(|i| oid_of(pool, i));
                    prop_assert_eq!(d.term_oid(&t), want);
                    prop_assert_eq!(d.pool_counts()[pool as usize], m.entries[pool as usize].len() as u64);
                }
                11..=14 => {
                    // A decode of any index, present or one past the end.
                    let pool = *rng.pick(&DictPool::ALL);
                    let n = m.entries[pool as usize].len() as u64;
                    let i = rng.below(n + 1);
                    let got = d.decode(oid_of(pool, i)).ok();
                    let want = m.entries[pool as usize].get(i as usize).map(|k| term_of(pool, k));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let t = random_term(&mut rng, domain);
                    let (pool, key) = pool_key(&t);
                    let oid = d.encode_term(&t).unwrap();
                    prop_assert_eq!(oid, oid_of(pool, m.intern(pool, &key)));
                    prop_assert_eq!(oid.tag() == TypeTag::Iri, pool == DictPool::Iris);
                }
            }
        }
        d = renumber(&d, &mut m, &mut rng, &[]);
        check(&d, &m);
        d = reload(&d, &mut rng);
        check(&d, &m);
    }
}

/// One long run in every pool, renumbered twice without a tail in between,
/// reloaded, then grown and frozen again.
#[test]
fn long_runs_refreeze_across_group_boundaries() {
    let mut rng = Mix(7);
    let d = Dictionary::new();
    let mut m = Model::default();
    for i in 0..FC_GROUP * 9 + 3 {
        for t in [
            Term::iri(format!("http://e/{i}")),
            Term::blank(format!("b{i}")),
            Term::str(format!("s{}", i * 37 % 101)),
        ] {
            let (pool, key) = pool_key(&t);
            assert_eq!(
                d.encode_term(&t).unwrap(),
                oid_of(pool, m.intern(pool, &key))
            );
        }
    }
    check(&d, &m);
    let mut d = renumber(&d, &mut m, &mut rng, &[]);
    check(&d, &m);
    for round in 0..3 {
        d = renumber(&d, &mut m, &mut rng, &[]);
        check(&d, &m);
        d = reload(&d, &mut rng);
        check(&d, &m);
        for i in 0..FC_GROUP + round {
            let t = Term::iri(format!("http://e/{i}x{round}"));
            assert_eq!(
                d.encode_term(&t).unwrap(),
                Oid::iri(m.intern(DictPool::Iris, &pool_key(&t).1))
            );
        }
        check(&d, &m);
    }
}
