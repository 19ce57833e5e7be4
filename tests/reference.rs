//! The term-level reference (`harness::reference`) pinned by hand: one small
//! case per rule of its module doc and per row of its conventions table,
//! each with the answer written out, and the answers of the saved cases
//! under `tests/matrix_cases/`.

mod harness;

use harness::reference::{sums_agree, Graph};
use harness::*;
use sordf_model::{Term, TermTriple};

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

fn int(v: i64) -> String {
    format!("\"{v}\"^^<{XSD}integer>")
}

fn dec(v: &str) -> String {
    format!("\"{v}\"^^<{XSD}decimal>")
}

fn date(d: &str) -> String {
    format!("\"{d}\"^^<{XSD}date>")
}

/// Triples from (subject, predicate) local names and objects.
fn graph(triples: &[(&str, &str, Term)]) -> Vec<TermTriple> {
    triples
        .iter()
        .map(|(s, p, o)| triple(e(s), p, o.clone()))
        .collect()
}

/// The reference's answer, header first (`show`n).
fn run(triples: &[TermTriple], patterns: &[&str], filters: &[&str], select: Select) -> Vec<String> {
    let bgp = Bgp {
        patterns: patterns
            .iter()
            .map(|p| {
                let w: Vec<&str> = p.splitn(3, ' ').collect();
                [w[0].into(), format!("<{NS}{}>", w[1]), w[2].into()]
            })
            .collect(),
        filters: filters.iter().map(|f| Filter::parse(f)).collect(),
        select,
    };
    show(&Graph::new(triples).answer(&bgp, &bgp.select))
}

/// `rows` in canonical order, a row's cells joined by spaces, an IRI
/// `<http://m/x>` written `:x`.
fn show(rows: &Rows) -> Vec<String> {
    let short = |c: &String| match c.strip_prefix(&format!("<{NS}")) {
        Some(local) => format!(":{}", local.trim_end_matches('>')),
        None => c.clone(),
    };
    (canonical(rows).iter())
        .map(|r| r.iter().map(short).collect::<Vec<_>>().join(" "))
        .collect()
}

/// Every filter rule on `?s v ?v` over one pool of values of every kind,
/// bound to subjects `a`, `b`, `c`, … in order: the subjects each filter
/// keeps.
#[test]
fn filters_keep_what_sparql_keeps() {
    let pool = [
        Term::decimal_f64(2.5),
        Term::int(3),
        Term::int(9),
        Term::decimal_f64(12.5),
        Term::decimal_f64(3.0),
        Term::str("n/a"),
        Term::date("1996-01-02"),
        Term::str("apple"),
        Term::str("pear"),
        Term::str("Zebra"),
        e("x"),
        Term::str("8"),
        Term::int(8),
        Term::decimal_f64(8.0),
        Term::date("1996-02-01"),
    ];
    let triples: Vec<TermTriple> = (pool.iter().enumerate())
        .map(|(k, o)| triple(e((b'a' + k as u8) as char), "v", o.clone()))
        .collect();
    let cases = [
        // Numbers by value across integer and decimal (the mixed-numeric
        // table); anything else is a type error for `<`.
        (format!("?v < {}", int(8)), ":a :b :e"),
        ("?v < 8".into(), ":a :b :e"),
        (format!("?v > {}", dec("2.6")), ":b :c :d :e :m :n"),
        (format!("?v = {}", int(3)), ":b :e"),
        ("?v = 8".into(), ":m :n"),
        // Convention: `!=` across types holds (term inequality); numbers
        // equal by value do not differ. `=` across types is false.
        (
            format!("?v != {}", dec("3")),
            ":a :c :d :f :g :h :i :j :k :l :m :n :o",
        ),
        ("?v != 8".into(), ":a :b :c :d :e :f :g :h :i :j :k :l :o"),
        ("?v = \"8\"".into(), ":l"),
        (format!("?v = <{NS}x>"), ":k"),
        // IRIs have no order.
        ("?v < ?s".into(), ""),
        // Strings by text, in code point order; dates by day.
        ("?v >= \"n\"".into(), ":f :i"),
        ("?v < \"pear\"".into(), ":f :h :j :l"),
        (format!("?v <= {}", date("1997-01-01")), ":g :o"),
        (format!("?v >= {}", date("1996-02-01")), ":o"),
        // A disjunction keeps what either side keeps, a type error on the
        // other side notwithstanding.
        ("?v < 5 || ?v = \"n/a\"".into(), ":a :b :e :f"),
    ];
    for (filter, want) in cases {
        let got = run(
            &triples,
            &["?s v ?v"],
            &[&filter],
            Select::Vars(vec!["s".into()]),
        );
        assert_eq!(got[1..].join(" "), want, "{filter}");
    }
}

/// Patterns match by term equality (`3` is not `3.0`), a repeated predicate
/// crosses its values, linked stars join, and two variables compare like a
/// variable and a constant.
#[test]
fn patterns_join_on_terms() {
    let t = graph(&[
        ("b", "v", Term::int(3)),
        ("e", "v", Term::decimal_f64(3.0)),
        ("s", "w", Term::int(1)),
        ("s", "w", Term::int(2)),
        ("s", "tag", e("t")),
        ("t", "label", Term::str("red")),
        ("u", "tag", e("t2")),
        ("a", "lo", Term::int(2)),
        ("a", "hi", Term::decimal_f64(2.5)),
        ("c", "lo", e("x")),
        ("c", "hi", e("y")),
    ]);
    let three = format!("?s v {}", int(3));
    assert_eq!(run(&t, &[&three], &[], Select::All), ["s", ":b"]);
    let twice = ["?s w ?a", "?s w ?b"];
    assert_eq!(run(&t, &twice, &[], Select::Count), ["n", "4"]);
    let chain = ["?s tag ?t", "?t label ?l"];
    assert_eq!(run(&t, &chain, &[], Select::All), ["s t l", ":s :t red"]);
    let (lo_hi, s) = (["?s lo ?l", "?s hi ?h"], || Select::Vars(vec!["s".into()]));
    assert_eq!(run(&t, &lo_hi, &["?l < ?h"], s()), ["s", ":a"]);
    assert_eq!(run(&t, &lo_hi, &["?l != ?h"], s()), ["s", ":a", ":c"]);
}

/// COUNT(*) and DISTINCT; MIN and MAX by IRI text and, over mixed kinds,
/// IRIs < strings < numbers < dates; SUM over the numbers only, SUM(?a *
/// ?b) skipping a non-number (conventions); literals printed by their
/// lexical form.
#[test]
fn aggregates_by_the_conventions() {
    let t = graph(&[
        ("a", "v", Term::date("1996-01-01")),
        ("a", "v", Term::int(5)),
        ("a", "v", Term::decimal_f64(2.5)),
        ("a", "v", Term::str("x y")),
        ("a", "v", e("zz")),
        ("a", "v", e("b")),
        ("b", "v", Term::int(2)),
        ("b", "v", Term::int(9)),
        ("b", "v", Term::decimal_f64(3.0)),
        ("c", "v", Term::decimal_f64(2.5)),
        ("p", "x", Term::int(2)),
        ("p", "y", Term::int(3)),
        ("q", "x", Term::decimal_f64(2.5)),
        ("q", "y", Term::int(2)),
        ("r", "x", Term::str("x")),
        ("r", "y", Term::int(4)),
    ]);
    let v = ["?s v ?v"];
    let group = Select::Group("s".into(), "v".into());
    let want = [
        "s n lo hi t",
        ":a 6 :b 1996-01-01 7.5000",
        ":b 3 2 9 14",
        ":c 1 2.5 2.5 2.5000",
    ];
    assert_eq!(run(&t, &v, &[], group), want);
    assert_eq!(run(&t, &v, &[], Select::Count), ["n", "10"]);
    let distinct = run(
        &t,
        &v,
        &["?s != <http://m/a>"],
        Select::Distinct(vec!["v".into()]),
    );
    assert_eq!(distinct, ["v", "2", "2.5", "3", "9"]);
    let product = Select::Product("a".into(), "b".into());
    assert_eq!(run(&t, &["?s x ?a", "?s y ?b"], &[], product), ["r", "11"]);
}

/// Convention: an aggregate without GROUP BY over no solution answers no
/// row; grouping over none answers no group.
#[test]
fn an_aggregate_over_nothing_has_no_row() {
    let t = graph(&[("a", "v", Term::int(1))]);
    let (v, none) = (["?s v ?v"], ["?v > 5"]);
    assert_eq!(run(&t, &v, &none, Select::Count), ["n"]);
    let product = Select::Product("v".into(), "v".into());
    assert_eq!(run(&t, &v, &none, product), ["r"]);
    let group = Select::Group("s".into(), "v".into());
    assert_eq!(run(&t, &v, &none, group), ["s n lo hi t"]);
}

/// Convention: a blank node is the IRI the store skolemizes it to.
#[test]
fn blank_nodes_are_their_skolem_iris() {
    let t = [TermTriple::new(Term::blank("b1"), e("v"), Term::int(1))];
    let got = run(&t, &["?s v ?v"], &[], Select::All);
    assert_eq!(got, ["s v", "<urn:sordf:blank:b1> 1"]);
}

/// Printed sums agree within the tolerance, and only within it.
#[test]
fn sums_agree_within_the_tolerance() {
    assert!(sums_agree("3", "3.0000"));
    assert!(sums_agree("2.5000", "2.5001"));
    assert!(!sums_agree("2.5000", "2.5002"));
    assert!(sums_agree("1000000000000", "1000000000000.0010"));
    assert!(!sums_agree("100", "101"));
}

/// The saved cases answer what their comments record, and their filters
/// read back as written.
#[test]
fn saved_cases_answer_what_they_record() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/matrix_cases");
    let case = |name: &str| {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        for f in text.lines().filter_map(|l| l.strip_prefix("@filter ")) {
            assert_eq!(Filter::parse(f).to_string(), f);
        }
        let input = Input::parse(name, &text);
        let Query::Bgp(b) = &input.queries[0] else {
            unreachable!("{name} holds a generated query")
        };
        show(&Graph::new(&input.logical(History::None)).answer(b, &b.select))
    };
    assert_eq!(case("iri_less_than.case"), ["v1 v6"]);
    let min_max = [
        "v0 n lo hi t",
        ":tag0 2 :s112 :s114 0",
        ":tag1 1 :s113 :s113 0",
    ];
    assert_eq!(case("iri_min_max.case"), min_max);
    let exception = ["s0 v0", ":s29 3", ":s39 0"];
    assert_eq!(case("sort_key_exception.case"), exception);
}
