//! Fig. 1's architecture claim: SQL and SPARQL frontends over the same
//! self-organized store must agree.

use sordf::{Database, Error, Generation, ParallelConfig, QueryRequest};
use sordf_model::{Term, TermTriple};
use sordf_rdfh::{generate, RdfhConfig};

const Q6_SQL: &str = "SELECT SUM(lineitem_extendedprice * lineitem_discount) AS revenue \
     FROM lineitem \
     WHERE lineitem_shipdate >= DATE '1994-01-01' \
       AND lineitem_shipdate < DATE '1995-01-01' \
       AND lineitem_discount BETWEEN 0.05 AND 0.07 \
       AND lineitem_quantity < 24";

const FK_JOIN_SQL: &str = "SELECT COUNT(*) AS n FROM order o \
     JOIN customer c ON o.order_custkey = c.subject \
     WHERE customer_mktsegment = 'BUILDING'";

/// Every SQL statement this file runs against the bulk-loaded store.
const SQL_CATALOG: &[&str] = &[
    Q6_SQL,
    FK_JOIN_SQL,
    "SELECT type FROM customer",
    "SELECT customer_name FROM customer",
];

fn rdfh_db() -> Database {
    let data = generate(&RdfhConfig::new(0.001));
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data.triples).unwrap();
    db.self_organize().unwrap();
    db
}

#[test]
fn q6_sql_equals_sparql() {
    let db = rdfh_db();
    let sparql = db
        .query(sordf_rdfh::query(sordf_rdfh::QueryId::Q6))
        .unwrap();
    let sql = db.sql(Q6_SQL).unwrap();
    assert_eq!(sparql.render(&db.dict()), sql.render(&db.dict()));
}

#[test]
fn fk_join_counts_agree() {
    let db = rdfh_db();
    let sparql = db
        .query(
            r#"PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
               SELECT (COUNT(*) AS ?n) WHERE {
                 ?o rdfh:order_custkey ?c .
                 ?c rdfh:customer_mktsegment "BUILDING" .
               }"#,
        )
        .unwrap();
    let sql = db.sql(FK_JOIN_SQL).unwrap();
    assert_eq!(sparql.render(&db.dict()), sql.render(&db.dict()));
    let n: f64 = sparql.render(&db.dict())[0][0].parse().unwrap();
    assert!(n > 0.0, "the join must find orders");
}

#[test]
fn sql_segment_restriction_prevents_class_leaks() {
    // customer_name and supplier_name are different predicates, but both
    // classes have a 'type' column; a scan of `customer` must never return
    // suppliers even when only shared-name columns are referenced.
    let db = rdfh_db();
    let customers = db.sql("SELECT type FROM customer").unwrap();
    let schema = db.schema().unwrap();
    let n_cust = schema.class_by_name("customer").unwrap().n_subjects as usize;
    assert_eq!(customers.len(), n_cust);
}

#[test]
fn sql_view_sees_pending_inserts() {
    // A subject inserted after self_organize() lives in the delta, outside
    // every class segment's dense OID range. The incremental assigner routes
    // it to `customer` (full property-set match), and the SQL compiler must
    // widen the segment restriction so the row is visible *before* the next
    // reorganization — while still excluding unrouted (irregular) subjects.
    let db = rdfh_db();
    let n_before = db.sql("SELECT customer_name FROM customer").unwrap().len();

    let ns = "http://lod2.eu/schemas/rdfh#";
    let subj = Term::iri(format!("{ns}customer999999"));
    let pred = |p: &str| Term::iri(format!("{ns}{p}"));
    db.insert_terms(&[
        TermTriple::new(
            subj.clone(),
            Term::iri(sordf_model::vocab::RDF_TYPE),
            Term::iri(format!("{ns}customer")),
        ),
        TermTriple::new(
            subj.clone(),
            pred("customer_name"),
            Term::str("Customer#999999"),
        ),
        TermTriple::new(
            subj.clone(),
            pred("customer_mktsegment"),
            Term::str("BUILDING"),
        ),
        TermTriple::new(
            subj.clone(),
            pred("customer_nationkey"),
            Term::iri(format!("{ns}nation0")),
        ),
        TermTriple::new(
            subj.clone(),
            pred("customer_acctbal"),
            Term::decimal_f64(1.5),
        ),
    ])
    .unwrap();
    // An irregular subject (no class matches) must stay outside the view.
    db.insert_terms(&[TermTriple::new(
        Term::iri(format!("{ns}mystery1")),
        pred("mystery_prop"),
        Term::str("x"),
    )])
    .unwrap();

    let rows = db.sql("SELECT customer_name FROM customer").unwrap();
    assert_eq!(rows.len(), n_before + 1, "routed insert joins the SQL view");
    let hit = db
        .sql("SELECT customer_mktsegment FROM customer WHERE customer_name = 'Customer#999999'")
        .unwrap();
    assert_eq!(hit.render(&db.dict()), vec![vec!["BUILDING".to_string()]]);

    // SQL and SPARQL still agree over the live (base + delta) data.
    let sparql = db
        .query(
            r#"PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
               SELECT (COUNT(*) AS ?n) WHERE { ?c rdfh:customer_name ?x }"#,
        )
        .unwrap();
    let n: usize = sparql.render(&db.dict())[0][0].parse().unwrap();
    assert_eq!(n, rows.len(), "SPARQL and SQL see the same customers");
}

#[test]
fn sql_requests_honour_parallel_and_refuse_other_generations() {
    // SQL goes through the same pipeline as SPARQL: `parallel` reaches the
    // engine (tiny morsels, so this scale really splits) and changes no
    // answer; a generation the SQL view cannot read is an error, not a
    // silent run on the clustered store.
    let db = rdfh_db();
    let par = ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 16,
    };
    for &sql in SQL_CATALOG {
        let seq = db.execute(&QueryRequest::sql(sql)).unwrap();
        let split = db.execute(&QueryRequest::sql(sql).parallel(par)).unwrap();
        assert!(!seq.results.is_empty(), "{sql}");
        assert_eq!(
            seq.results.canonical(&seq.pin),
            split.results.canonical(&split.pin),
            "parallel SQL diverged: {sql}"
        );
        let pinned = db
            .execute(&QueryRequest::sql(sql).generation(Generation::Clustered))
            .unwrap();
        assert_eq!(
            seq.results.canonical(&seq.pin),
            pinned.results.canonical(&pinned.pin),
        );
    }
    db.build_baseline().unwrap();
    for generation in [Generation::Baseline, Generation::CsParseOrder] {
        let err = db
            .execute(&QueryRequest::sql(Q6_SQL).generation(generation))
            .unwrap_err();
        assert!(matches!(err, Error::State(_)), "{generation:?}: {err}");
        assert_eq!(err.code(), "invalid_state");
        assert!(err.to_string().contains("clustered"), "{err}");
    }
}

#[test]
fn sql_errors_are_reported() {
    let db = rdfh_db();
    assert!(db.sql("SELECT nope FROM lineitem").is_err());
    assert!(db.sql("SELECT * FROM not_a_table").is_err());
    assert!(db.sql("SELEKT x FROM lineitem").is_err());
}
