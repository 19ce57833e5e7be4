//! Property-based tests (proptest) over the core invariants:
//!
//! * OID inline encodings are order-preserving and roundtrip;
//! * the N-Triples writer/parser roundtrip is the identity;
//! * dictionary encoding roundtrips arbitrary terms;
//! * subject clustering (reorganize) is a bijective renaming: the decoded
//!   triple set is unchanged, and query answers are invariant across all
//!   plan schemes and storage generations on random graphs (the
//!   correctness matrix's, `harness`);
//! * the emergent schema's placement partitions the triples.

mod harness;

use proptest::prelude::*;
use sordf_model::{ntriples, Dictionary, Oid, Term, TermTriple, Triple, Value};
use sordf_schema::{SchemaConfig, TripleHome};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-10_000_000i64..10_000_000).prop_map(Value::Decimal),
        (-30_000i64..60_000).prop_map(Value::Date),
        (-4_000_000_000i64..4_000_000_000).prop_map(Value::DateTime),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..40).prop_map(|i| Term::iri(format!("http://t/e{i}"))),
        arb_value().prop_map(Term::literal),
    ]
}

fn arb_triple() -> impl Strategy<Value = TermTriple> {
    (
        (0u32..25).prop_map(|i| Term::iri(format!("http://t/s{i}"))),
        (0u32..6).prop_map(|i| Term::iri(format!("http://t/p{i}"))),
        arb_term(),
    )
        .prop_map(|(s, p, o)| TermTriple::new(s, p, o))
}

/// A raw (subject, predicate, object) draw for the placement property:
/// small numbers, so subjects repeat and groups turn multi-valued.
fn arb_raw_triple() -> impl Strategy<Value = (u32, u32, u32)> {
    (0u32..24, 0u32..5, 0u32..60)
}

/// IRI subjects, blank ones, and two IRIs far from the rest.
fn raw_subject(i: u32) -> Oid {
    match i {
        0..=13 => Oid::iri(i as u64),
        14..=21 => Oid::blank(i as u64),
        _ => Oid::iri((1 << 40) + i as u64),
    }
}

/// Objects of mixed types: subjects (FK candidates), ints, strings, dates.
fn raw_object(i: u32) -> Oid {
    match i % 4 {
        0 => raw_subject(i / 4 % 24),
        1 => Oid::from_int(i as i64 % 7).unwrap(),
        2 => Oid::string(i as u64 % 5),
        _ => Oid::from_date_days(i as i64).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oid_int_roundtrip_and_order(a in -4_000_000_000i64..4_000_000_000, b in -4_000_000_000i64..4_000_000_000) {
        let (oa, ob) = (Oid::from_int(a).unwrap(), Oid::from_int(b).unwrap());
        prop_assert_eq!(oa.as_int(), a);
        prop_assert_eq!(a.cmp(&b), oa.cmp(&ob));
    }

    #[test]
    fn oid_date_roundtrip_and_order(a in -100_000i64..100_000, b in -100_000i64..100_000) {
        let (oa, ob) = (Oid::from_date_days(a).unwrap(), Oid::from_date_days(b).unwrap());
        prop_assert_eq!(oa.as_date_days(), a);
        prop_assert_eq!(a.cmp(&b), oa.cmp(&ob));
    }

    #[test]
    fn decimal_lexical_roundtrip(u in -10_000_000i64..10_000_000) {
        let text = sordf_model::term::format_decimal(u);
        prop_assert_eq!(sordf_model::term::parse_decimal(&text), Some(u));
    }

    #[test]
    fn date_lexical_roundtrip(days in -100_000i64..100_000) {
        let text = sordf_model::date::format_date(days);
        prop_assert_eq!(sordf_model::date::parse_date(&text).unwrap(), days);
    }

    #[test]
    fn dictionary_roundtrips_terms(terms in proptest::collection::vec(arb_term(), 1..30)) {
        let dict = Dictionary::new();
        let oids: Vec<Oid> = terms.iter().map(|t| dict.encode_term(t).unwrap()).collect();
        for (t, o) in terms.iter().zip(&oids) {
            prop_assert_eq!(&dict.decode(*o).unwrap(), t);
        }
    }

    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..30)) {
        let mut buf = Vec::new();
        ntriples::write_document(&mut buf, &triples).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = ntriples::parse_document(&text).unwrap();
        prop_assert_eq!(parsed, triples);
    }
}

proptest! {
    // Heavier end-to-end properties with fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Self-organization never changes the logical graph.
    #[test]
    fn reorganize_is_a_bijective_renaming(triples in proptest::collection::vec(arb_triple(), 1..80)) {
        let mut ts = sordf_storage::TripleSet::new();
        ts.extend_terms(&triples).unwrap();
        ts.dedup();
        let decode = |ts: &sordf_storage::TripleSet| -> Vec<(Term, Term, Term)> {
            let mut v: Vec<_> = ts.triples.iter().map(|t| (
                ts.dict.decode(t.s).unwrap(),
                ts.dict.decode(t.p).unwrap(),
                ts.dict.decode(t.o).unwrap(),
            )).collect();
            v.sort();
            v
        };
        let before = decode(&ts);
        let spo = ts.sorted_spo();
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &sordf_schema::SchemaConfig::default());
        let spec = sordf_storage::ClusterSpec::auto(&schema);
        sordf_storage::reorganize(&mut ts, &mut schema, &spec);
        prop_assert_eq!(decode(&ts), before);
    }

    /// Placement is a partition: every triple gets exactly one home, no
    /// (class, column, subject) gets two, the schema's coverage is the
    /// regular share and every column's `n_nonnull` counts its homes. The
    /// graphs mix IRI subjects with blank ones and with IRIs far apart (the
    /// paths by which discovery finds a subject without its dense table),
    /// and carry multi-valued and mixed-type groups.
    #[test]
    fn placement_is_a_partition(
        triples in proptest::collection::vec(arb_raw_triple(), 1..120),
        exact in any::<bool>(),
    ) {
        let mut spo: Vec<Triple> = triples.iter().map(|&(s, p, o)| {
            Triple::new(raw_subject(s), Oid::iri(100 + p as u64), raw_object(o))
        }).collect();
        spo.sort_by_key(|t| t.key_spo());
        spo.dedup();
        let cfg = if exact { SchemaConfig::exact_cs() } else { SchemaConfig::default() };
        let schema = sordf_schema::discover(&spo, &Dictionary::new(), &cfg);

        let mut placed = Vec::new();
        let mut column_homes = std::collections::HashSet::new();
        let mut col_count = std::collections::HashMap::new();
        let mut multi_count = std::collections::HashMap::new();
        schema.place_triples(&spo, |t, home| {
            placed.push(t);
            match home {
                TripleHome::Column { class, col } => {
                    assert!(column_homes.insert((class, col, t.s)), "two homes in one cell: {t:?}");
                    *col_count.entry((class, col)).or_insert(0u64) += 1;
                }
                TripleHome::Multi { class, mp } => {
                    *multi_count.entry((class, mp)).or_insert(0u64) += 1;
                }
                TripleHome::Irregular => {}
            }
        });
        prop_assert_eq!(&placed, &spo);
        let regular: u64 = col_count.values().chain(multi_count.values()).sum();
        prop_assert_eq!(schema.coverage.to_bits(), (regular as f64 / spo.len() as f64).to_bits());
        for c in &schema.classes {
            for (col, def) in c.columns.iter().enumerate() {
                prop_assert_eq!(def.stats.n_nonnull, col_count.get(&(c.id, col)).copied().unwrap_or(0));
            }
            for (mp, def) in c.multi_props.iter().enumerate() {
                prop_assert_eq!(def.stats.n_nonnull, multi_count.get(&(c.id, mp)).copied().unwrap_or(0));
            }
        }
    }
}

/// Query answers are invariant under plan scheme, storage generation, zone
/// maps, executor, plan and write history on random graphs: seeded graphs
/// of the correctness matrix's generator (`harness`), each with generated
/// writes and five generated queries of any shape, in every cell.
#[test]
fn query_equivalence_on_random_graphs() {
    let n = harness::random_graphs(0..3, 5, |_| true);
    eprintln!("random graphs: {n} comparisons");
}

/// **The pushdown admits what the reference keeps, and decides exactly what
/// it drops**, per term. Every generated filter on one variable (six random
/// graphs, forty generated queries each) is compiled from its SPARQL text
/// and pushed by the engine's one rule (`Pushdown`) into a star that binds
/// its variable as an object, and into one that binds it as the subject.
/// Then, for every term of the graph's value pool (its subjects, predicates
/// and objects) and its OID: if the term-level reference keeps the term,
/// the restriction admits the OID (soundness; of a subject, asked of IRIs
/// only, the one kind a subject is); and if the filter left the residual
/// set, an OID the restriction admits is a term the reference keeps
/// (exactness). On the parse-order numbering (strings in load order) and on
/// the dense layout's value-ordered one.
#[test]
fn pushdown_admits_what_the_reference_keeps() {
    use harness::{reference::keeps_term, term_text, Layout, NS};
    use rand::{rngs::StdRng, SeedableRng};
    use sordf_engine::{prepare, star::Pushdown, ExecConfig, ExecContext, Expr};
    let mut checks = 0usize;
    for seed in 0..6 {
        let base = harness::random_graph(&mut StdRng::seed_from_u64(seed));
        let idx = harness::Index::new(&base);
        let mut rng = StdRng::seed_from_u64(seed);
        let filters: Vec<harness::Filter> = (0..40)
            .flat_map(|_| harness::generate_query(&mut rng, &idx).filters)
            .filter(|f| f.vars().len() == 1)
            .collect();
        let mut pool: Vec<&Term> = base.iter().flat_map(|t| [&t.s, &t.p, &t.o]).collect();
        pool.sort();
        pool.dedup();
        let rig = harness::rig(&base, &[Layout::Dense]);
        for layout in [Layout::Sparse, Layout::Dense] {
            let (dict, storage) = rig.layer(layout);
            let cx = ExecContext::new(&rig.pool, dict, storage, ExecConfig::default());
            let oids: Vec<Oid> = (pool.iter())
                .map(|t| sordf_storage::term_oid_skolemized(dict, t).unwrap())
                .collect();
            for f in &filters {
                let v = &f.vars()[0];
                for on_subject in [false, true] {
                    let pattern = match on_subject {
                        false => format!("?x <{NS}qty> ?{v}"),
                        true => format!("?{v} <{NS}qty> ?x"),
                    };
                    let text = format!("SELECT * WHERE {{ {pattern} . FILTER({f}) }}");
                    let (_, lp) = prepare(&sordf_sparql::parse_sparql(&text, dict).unwrap());
                    let refs: Vec<&Expr> = lp.filters.iter().collect();
                    let pd = Pushdown::new(&cx, &lp.stars[0], &refs);
                    let r = if on_subject {
                        pd.subject
                    } else {
                        pd.objects[0]
                    };
                    let exact = pd.residual.is_empty();
                    for (t, oid) in pool.iter().zip(&oids) {
                        let (keeps, admits) = (keeps_term(f, t), r.accepts(oid.raw()));
                        let subject_kind = matches!(t, Term::Iri(_) | Term::Blank(_));
                        let at = || {
                            let side = if on_subject { "subject" } else { "object" };
                            format!(
                                "{layout:?}, seed {seed}, {text}: the {side} {}",
                                term_text(t)
                            )
                        };
                        assert!(
                            !keeps || admits || (on_subject && !subject_kind),
                            "unsound: {}",
                            at()
                        );
                        assert!(!exact || !admits || keeps, "inexact: {}", at());
                        checks += 1;
                    }
                }
            }
        }
    }
    eprintln!("pushdown: {checks} term checks");
}
