//! The engine's core differential questions, one fixed query each over one
//! fixture — items referencing orders, a nullable attribute, a fully
//! irregular subject and a type exception — run in every cell of the
//! correctness matrix (`harness`) with generated writes. The row counts
//! asserted are the fixture's known answers on the fresh baseline. Fig. 4's
//! join counts and the RDFscan operator stats are checked on the same
//! fixture.

mod harness;

use harness::*;
use sordf_engine::{ExecConfig, ExecContext, PlanScheme};
use sordf_model::{Term, TermTriple};

fn fixture() -> Vec<TermTriple> {
    let mut t = Vec::new();
    for i in 0..120usize {
        let s = e(format!("item{i}"));
        t.push(triple(s.clone(), "qty", Term::int((i % 30) as i64)));
        let price = 10.0 + (i % 7) as f64 * 2.5;
        t.push(triple(s.clone(), "price", Term::decimal_f64(price)));
        let sold = format!("1996-{:02}-{:02}", i % 12 + 1, i * 7 % 28 + 1);
        t.push(triple(s.clone(), "sold", Term::date(&sold)));
        t.push(triple(s.clone(), "ok", e(format!("order{}", i % 25))));
        if i % 3 == 0 {
            // A nullable attribute, present on a third of the items.
            t.push(triple(s, "flag", Term::str(format!("F{}", i % 2))));
        }
    }
    for o in 0..25usize {
        let s = e(format!("order{o}"));
        let odate = format!("1996-{:02}-15", o % 12 + 1);
        t.push(triple(s.clone(), "odate", Term::date(&odate)));
        let status = if o % 2 == 0 { "open" } else { "closed" };
        t.push(triple(s, "status", Term::str(status)));
    }
    // Noise: one fully irregular subject and one type exception.
    t.push(triple(e("weird"), "zzz", Term::str("irregular")));
    t.push(triple(e("item0"), "qty", Term::str("n/a")));
    t
}

/// `body` (prefix `e:` declared) in every cell; the rows of its answer on
/// the fresh baseline of the fixture, without the header.
fn agree(body: &str) -> Rows {
    let q = Query::Text(format!("PREFIX e: <{NS}> {body}"));
    let input = input(
        "differential fixture",
        7,
        fixture(),
        Writes::default(),
        vec![q],
        0,
    );
    let n = run_matrix(&input);
    eprintln!("fixture query: {n} comparisons");
    fresh_answer(&input)[1..].to_vec()
}

#[test]
fn single_pattern_scan() {
    assert_eq!(agree("SELECT * WHERE { ?s e:status ?o }").len(), 25);
}

#[test]
fn star_three_props() {
    let rows = agree("SELECT * WHERE { ?s e:qty ?qty . ?s e:price ?price . ?s e:sold ?sold }");
    // 120 items; item0 contributes two qty bindings (int + string exception).
    assert_eq!(rows.len(), 121);
}

#[test]
fn star_with_date_range_filter() {
    let rows = agree(
        r#"SELECT * WHERE { ?s e:qty ?qty . ?s e:sold ?sold .
           FILTER(?sold >= "1996-03-01"^^xsd:date && ?sold <= "1996-05-31"^^xsd:date) }"#,
    );
    // Months 3..5: 30 items (i % 12 in {2, 3, 4}).
    assert_eq!(rows.len(), 30);
}

#[test]
fn star_with_constant_object() {
    let rows = agree(r#"SELECT * WHERE { ?o e:status "open" . ?o e:odate ?odate }"#);
    assert_eq!(rows.len(), 13, "orders 0, 2, …, 24 are open");
}

#[test]
fn two_star_fk_join() {
    let rows = agree("SELECT * WHERE { ?s e:qty ?qty . ?s e:ok ?ord . ?ord e:status ?status }");
    // Every item joins its order; item0's qty exception doubles one row.
    assert_eq!(rows.len(), 121);
}

#[test]
fn fk_join_with_selective_filters_on_both_stars() {
    let rows = agree(
        r#"SELECT * WHERE { ?s e:sold ?sold . ?s e:ok ?ord . ?ord e:odate ?odate .
           FILTER(?sold < "1996-04-01"^^xsd:date && ?odate >= "1996-06-01"^^xsd:date) }"#,
    );
    assert!(!rows.is_empty());
}

#[test]
fn aggregation_group_by_status() {
    let rows = agree(
        "SELECT ?status (COUNT(?qty) AS ?n) (SUM(?qty) AS ?total) WHERE { ?s e:qty ?qty . \
         ?s e:ok ?ord . ?ord e:status ?status } GROUP BY ?status ORDER BY ?status",
    );
    assert_eq!(rows.len(), 2, "two status groups: {rows:?}");
}

#[test]
fn distinct_and_limit() {
    let rows = agree("SELECT DISTINCT ?qty WHERE { ?s e:qty ?qty }");
    assert_eq!(rows.len(), 31, "30 distinct ints + 1 string");
}

#[test]
fn nullable_attribute_star() {
    let rows = agree("SELECT * WHERE { ?s e:flag ?flag . ?s e:qty ?qty }");
    // 40 items have flags; item0 has a flag and two qty values.
    assert_eq!(rows.len(), 41);
}

#[test]
fn irregular_subject_reachable() {
    let rows = agree("SELECT ?z WHERE { ?w e:zzz ?z }");
    assert_eq!(rows.len(), 1);
    assert!(rows[0][0].contains("irregular"), "{rows:?}");
}

#[test]
fn constant_subject_star() {
    let rows = agree("SELECT ?qty WHERE { e:item5 e:qty ?qty }");
    assert_eq!(rows, [["5"]]);
}

#[test]
fn q6_style_aggregate() {
    let rows = agree(
        r#"SELECT (SUM(?price * ?qty) AS ?revenue) WHERE { ?s e:price ?price . ?s e:qty ?qty .
           ?s e:sold ?sold . FILTER(?sold >= "1996-01-01"^^xsd:date && ?sold < "1996-07-01"^^xsd:date
           && ?qty < "20"^^xsd:integer) }"#,
    );
    assert_eq!(rows.len(), 1);
    let revenue: f64 = rows[0][0].parse().unwrap();
    assert!(revenue > 0.0, "rows: {rows:?}");
}

/// A context on the dense layout of `rig`.
fn dense_cx<'a>(rig: &'a Rig, scheme: PlanScheme, zonemaps: bool) -> ExecContext<'a> {
    let (dict, storage) = rig.layer(Layout::Dense);
    ExecContext::new(
        &rig.pool,
        dict,
        storage,
        ExecConfig {
            scheme,
            zonemaps,
            ..Default::default()
        },
    )
}

/// Fig. 4a: the Default plan of a four-property star pays three merge
/// self-joins, RDFscan none.
#[test]
fn explain_join_counts_match_fig4() {
    let rig = rig(&fixture(), &[Layout::Dense]);
    let star = format!(
        "PREFIX e: <{NS}> SELECT * WHERE {{ ?s e:qty ?a . ?s e:price ?b . ?s e:sold ?c . ?s e:flag ?d }}"
    );
    let q = sordf_sparql::parse_sparql(&star, rig.layer(Layout::Dense).0).unwrap();
    let default = sordf_engine::explain(&dense_cx(&rig, PlanScheme::Default, false), &q);
    assert_eq!(
        (default.intra_star_joins, default.cross_star_joins),
        (3, 0),
        "{}",
        default.text
    );
    let rdfscan = sordf_engine::explain(&dense_cx(&rig, PlanScheme::RdfScanJoin, true), &q);
    assert_eq!(rdfscan.intra_star_joins, 0, "{}", rdfscan.text);
}

/// An RDFscan run counts its scans and no merge self-join.
#[test]
fn rdfscan_stats_record_operator_use() {
    let rig = rig(&fixture(), &[Layout::Dense]);
    let star = format!("PREFIX e: <{NS}> SELECT * WHERE {{ ?s e:qty ?q . ?s e:sold ?d }}");
    let q = sordf_sparql::parse_sparql(&star, rig.layer(Layout::Dense).0).unwrap();
    let cx = dense_cx(&rig, PlanScheme::RdfScanJoin, true);
    let _ = sordf_engine::execute(&cx, &q);
    let stats = cx.stats.snapshot();
    assert!(stats.rdf_scans >= 1 && stats.merge_joins == 0, "{stats:?}");
}

/// Numbers compare by value across `xsd:integer` and `xsd:decimal`: a
/// filter with a number of one type keeps the values of the other that
/// pass. The mixed-numeric table's three filters run in every cell of the
/// matrix (the facade's baseline and organized store among them) against
/// the term-level reference, whose answers (`a b e`, `b c d e`, `b e`)
/// `tests/reference.rs` pins by hand.
#[test]
fn numeric_filters_compare_integers_with_decimals() {
    let triples: Vec<TermTriple> = [
        ("a", Term::decimal_f64(2.5)),
        ("b", Term::int(3)),
        ("c", Term::int(9)),
        ("d", Term::decimal_f64(12.5)),
        ("e", Term::decimal_f64(3.0)),
    ]
    .into_iter()
    .map(|(s, o)| triple(e(s), "v", o))
    .collect();
    let xsd = "http://www.w3.org/2001/XMLSchema#";
    let filters = [
        format!("?v < \"8\"^^<{xsd}integer>"),
        format!("?v > \"2.6\"^^<{xsd}decimal>"),
        format!("?v = \"3\"^^<{xsd}integer>"),
    ];
    let queries = (filters.iter())
        .map(|f| {
            Query::Bgp(Bgp {
                patterns: vec![["?s".into(), format!("<{NS}v>"), "?v".into()]],
                filters: vec![Filter::parse(f)],
                select: Select::Vars(vec!["s".into()]),
            })
        })
        .collect();
    run_matrix(&input(
        "numeric filters",
        7,
        triples,
        Writes::default(),
        queries,
        0,
    ));
}
