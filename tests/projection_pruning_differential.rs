//! Needed-variable pruning in the correctness matrix (`harness`): a plan
//! step binds only the variables something later reads, and a column whose
//! zone map already decides a page is not even pinned when nothing reads
//! it. None of that may change which rows a star or a plan produces: a
//! pruned answer is the all-variables answer projected, in every cell. And
//! one cached plan answers a query shape whose constants decide whether a
//! filter is pushed exactly or stays residual.

mod harness;

use harness::*;
use sordf::{Database, ExecConfig, Generation, QueryRequest};
use sordf_engine::{prepare, ExecContext, Expr, StorageRef};

/// One-star queries that select a subset (or only count) over dirty data:
/// base exceptions, multi-valued and uncovered properties.
#[test]
fn pruned_stars_are_full_stars_projected() {
    let data = sordf_datagen::dirty(&sordf_datagen::DirtyConfig::with_irregularity(0.35, 60));
    let shape = |b: &Bgp| b.subjects().len() == 1 && b.select != Select::All;
    let input = shaped_input(
        "dirty data 0.35",
        30,
        data,
        Writes::default(),
        Vec::new(),
        4,
        shape,
    );
    let n = run_matrix(&input);
    eprintln!("pruned stars: {n} comparisons");
}

/// Chains whose select list drops a link variable: under every star order
/// and join strategy the link lives exactly as long as a later step needs
/// it.
#[test]
fn link_variables_live_as_long_as_needed() {
    let n = random_graphs(20..21, 2, |b| {
        let selected = |v: &str| match &b.select {
            Select::All => true,
            Select::Count => false,
            Select::Vars(vs) | Select::Distinct(vs) => vs.iter().any(|x| x == v),
            Select::Group(k, x) | Select::Product(k, x) => k == v || x == v,
        };
        b.links()
            .iter()
            .any(|l| l.starts_with('?') && !selected(&l[1..]))
    });
    eprintln!("dropped links: {n} comparisons");
}

/// One query shape, two constant types: `?ship >= <date>` is pushed exactly
/// (no residual), `?ship >= <integer>` stays residual and makes the star
/// bind `?ship`. The plan cache serves both from one plan, so which
/// variables a step binds cannot be part of the plan.
#[test]
fn one_cached_plan_serves_both_constant_types() {
    let data = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.002)).triples;
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data).unwrap();
    db.self_organize().unwrap();
    // The wanted answers: the baseline of a fresh bulk load, whose plan
    // cache serves neither query from the other's plan.
    let fresh = Database::in_temp_dir().unwrap();
    fresh.load_terms(&data).unwrap();
    fresh.build_baseline().unwrap();
    let text = |bound: &str| {
        format!(
            "PREFIX r: <{}> SELECT (COUNT(*) AS ?n) (SUM(?q) AS ?s) WHERE {{ ?li r:lineitem_shipdate ?ship . \
             ?li r:lineitem_quantity ?q . FILTER(?ship >= {bound}) }}",
            sordf_rdfh::gen::NS
        )
    };
    let (by_date, by_number) = (
        text(r#""1996-01-01"^^xsd:date"#),
        text(r#""17"^^xsd:integer"#),
    );
    let want = |t: &str| {
        let req = QueryRequest::sparql(t).generation(Generation::Baseline);
        fresh.execute(&req).unwrap().results.render(&fresh.dict())
    };
    let run = |t: &str| {
        let req = QueryRequest::sparql(t);
        db.execute(&req).unwrap().results.render(&db.dict())
    };
    let (want_date, want_number) = (want(&by_date), want(&by_number));
    assert!(want_date != want_number && want_date[0][0] != "0");
    for (first, second, want) in [
        (&by_date, &by_number, &want_number),
        (&by_number, &by_date, &want_date),
    ] {
        let _ = run(first);
        let before = db.plan_cache_stats();
        assert_eq!(run(second), *want);
        assert!(
            db.plan_cache_stats().hits > before.hits,
            "the second constant is answered from the first one's plan"
        );
    }
    // The types decide the residual: the date bound leaves none.
    let (store, schema, dict) = (
        db.clustered_store().unwrap(),
        db.schema().unwrap(),
        db.dict(),
    );
    let cx = ExecContext::new(
        db.buffer_pool(),
        &dict,
        StorageRef::Clustered {
            store: &store,
            schema: &schema,
        },
        ExecConfig::default(),
    );
    for (t, residual) in [(&by_date, 0), (&by_number, 1)] {
        let (_, lp) = prepare(&sordf_sparql::parse_sparql(t, &dict).unwrap());
        let refs: Vec<&Expr> = lp.filters.iter().collect();
        assert_eq!(
            sordf_engine::star::residual_filters(&cx, &lp.stars[0], &refs).len(),
            residual,
            "{t}"
        );
    }
}
