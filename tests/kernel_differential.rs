//! The column kernels behind RDFscan / RDFjoin against the rowwise oracle.
//!
//! A clean run — the rows between two dirty rows of a segment — is evaluated
//! column-at-a-time: each column's restriction and NULL check narrow a
//! selection vector, then every output column is copied (the whole run
//! passed) or gathered (part of it did); residual filters are evaluated in
//! batch over the rows the run emitted; filters are enforced by the star
//! that binds their variables and only cross-star ones at the tail of the
//! plan. Every boundary of that is laid out here in one three-page class:
//! NULLs on the first and last row of pages and of runs, runs of length 0,
//! 1 and a few rows (15, 16, 17) up to whole pages, runs that pass
//! whole, in part and not at all, `=` and a range on one column, a constant
//! object, residual filters of every pushdown status — on dense and sparse
//! segments, page-at-a-time (RDFscan) and candidate-driven (RDFjoin), with
//! and without dirty rows. Every answer is compared **byte for byte, row
//! order included**, between the kernels at one worker, at three workers,
//! and the value-at-a-time rowwise oracle.
//!
//! The filter-ownership rule — re-applying every filter to a star's unpruned
//! table removes no row — is checked here over the same catalog
//! (`filters_are_enforced_once`), and so is what a scan covers without
//! reading: which column pages a zone map decides without a pin
//! (`zone_map_decisions`).

use sordf::{Database, ExecConfig, Generation, ParallelConfig, QueryRequest};
use sordf_model::{Term, TermTriple};

/// Values per 64 KiB page.
const PAGE: usize = 8192;
/// Two full pages and a partial third.
const N_ROW: usize = 2 * PAGE + 500;
/// Candidate sources of the RDFjoin shapes.
const N_REF: usize = 3000;

/// Rows made dirty (tombstone + refill of `b`) once the delta is applied.
/// Between them: runs of length 0 (300|301), 1 (302), 15, 16 and 17, and
/// long runs to the page ends.
const DIRTY: [usize; 6] = [300, 301, 303, 319, 336, 354];

fn iri(local: &str) -> Term {
    Term::iri(format!("http://ex/{local}"))
}

/// Does row `i` lack `a` in the bulk load? The first and last row of every
/// page and of every run between [`DIRTY`] rows, plus a sprinkling.
fn lacks_a(i: usize) -> bool {
    let page_edges = [0, PAGE - 1, PAGE, 2 * PAGE - 1, 2 * PAGE, N_ROW - 1];
    let run_edges = [302, 304, 318, 320, 335, 337, 353, 355];
    page_edges.contains(&i) || run_edges.contains(&i) || i % 97 == 5
}

/// `b` cycles through 0..7 without ever being 3: `?b = 3` passes every
/// zone map and selects nothing.
fn b_of(i: usize) -> i64 {
    match i % 7 {
        3 => 4,
        v => v as i64,
    }
}

fn row(i: usize, p: &str, o: Term) -> TermTriple {
    TermTriple::new(iri(&format!("row{i:05}")), iri(p), o)
}

/// `day` of row `i`: ascends strictly with `i` (twelve months of 28 days),
/// so the dense layout's sort key keeps rows in `i` order, as parse order
/// does for the sparse one.
fn day_of(i: usize) -> String {
    format!(
        "{}-{:02}-{:02}",
        1900 + i / 336,
        i / 28 % 12 + 1,
        i % 28 + 1
    )
}

fn row_triples(i: usize) -> Vec<TermTriple> {
    let mut t = vec![
        row(i, "day", Term::date(&day_of(i))),
        row(i, "b", Term::int(b_of(i))),
        // Mostly integers, every 50th a decimal: `?m >= 5` pushed as a raw
        // OID range lets every decimal through; the value says otherwise.
        row(
            i,
            "m",
            if i % 50 == 7 {
                Term::decimal_f64(2.5)
            } else {
                Term::int((i % 11) as i64)
            },
        ),
    ];
    if !lacks_a(i) {
        t.push(row(i, "a", Term::int((i % 40) as i64)));
    }
    if i % 211 != 9 {
        t.push(row(
            i,
            "tag",
            Term::str(["pear", "apple", "zebra", "fig"][i % 4]),
        ));
    }
    t
}

fn ref_triples(k: usize) -> Vec<TermTriple> {
    let s = iri(&format!("ref{k:05}"));
    // Targets stride the whole class and hit every special row.
    let special = [
        0,
        PAGE - 1,
        PAGE,
        N_ROW - 1,
        300,
        301,
        302,
        303,
        304,
        318,
        319,
        320,
    ];
    let target = special.get(k).copied().unwrap_or((k * 37) % N_ROW);
    vec![
        TermTriple::new(s.clone(), iri("to"), iri(&format!("row{target:05}"))),
        TermTriple::new(s, iri("w"), Term::int((k % 5) as i64)),
    ]
}

/// Rows first, in `i` order: a subject's parse-order OID is assigned where
/// its IRI first appears, and a ref naming it earlier would move it.
fn base_triples() -> Vec<TermTriple> {
    (0..N_ROW)
        .flat_map(row_triples)
        .chain((0..N_REF).flat_map(ref_triples))
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    Dense,
    Sparse,
}

fn build(layout: Layout) -> (Database, Generation) {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&base_triples()).unwrap();
    match layout {
        Layout::Dense => {
            db.self_organize().unwrap();
            (db, Generation::Clustered)
        }
        Layout::Sparse => {
            db.build_cs_tables().unwrap();
            (db, Generation::CsParseOrder)
        }
    }
}

const PREFIX: &str = "PREFIX e: <http://ex/>\n";

/// (name, SPARQL). Integer bounds are typed literals where they should be
/// pushed into the scan, bare numbers where they should stay residual.
fn catalog() -> Vec<(&'static str, String)> {
    let q = |body: &str| format!("{PREFIX}{body}");
    vec![
        // Whole runs pass: no selection vector.
        ("all_pass", q("SELECT ?s ?b ?d WHERE { ?s e:b ?b . ?s e:day ?d }")),
        // NULLs select part of a run.
        ("nulls", q("SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b }")),
        ("nulls_three", q("SELECT ?s ?a ?t ?b WHERE { ?s e:a ?a . ?s e:tag ?t . ?s e:b ?b }")),
        // `=` and a range on one column, consistent and contradictory.
        (
            "eq_and_range",
            q(r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b .
                 FILTER(?a = "5"^^xsd:integer && ?a >= "3"^^xsd:integer && ?a <= "9"^^xsd:integer) }"#),
        ),
        (
            "eq_outside_range",
            q(r#"SELECT ?s ?a WHERE { ?s e:a ?a . ?s e:b ?b .
                 FILTER(?a = "5"^^xsd:integer && ?a >= "6"^^xsd:integer) }"#),
        ),
        // Two restricted columns narrow one selection.
        (
            "two_ranges",
            q(r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b .
                 FILTER(?a >= "10"^^xsd:integer && ?a < "30"^^xsd:integer
                        && ?b >= "1"^^xsd:integer && ?b <= "4"^^xsd:integer) }"#),
        ),
        // Inside every zone map, matched by no row.
        (
            "nothing_selected",
            q(r#"SELECT ?s ?a WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?b = "3"^^xsd:integer) }"#),
        ),
        ("const_object", q("SELECT ?s ?a WHERE { ?s e:b 2 . ?s e:a ?a }")),
        // Residual filters: two variables, bare numbers, `!=`, a string
        // order, a disjunction — evaluated in batch over each clean run.
        ("residual_vars", q("SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a < ?b) }")),
        (
            "residual_numbers",
            q("SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a < 24 && ?b != 1 && ?a * ?b > 6) }"),
        ),
        (
            "residual_strings",
            q(r#"SELECT ?s ?t WHERE { ?s e:tag ?t . ?s e:b ?b . FILTER(?t > "banana" || ?b = 0) }"#),
        ),
        (
            "residual_and_pushed",
            q(r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b .
                 FILTER(?a >= "20"^^xsd:integer && ?a != ?b && ?b < 5) }"#),
        ),
        // A numeric constant against a column of two numeric types.
        (
            "mixed_numeric",
            q(r#"SELECT ?s ?m WHERE { ?s e:m ?m . ?s e:b ?b . FILTER(?m >= "5"^^xsd:integer) }"#),
        ),
        // Aggregation over the kernels' output.
        (
            "grouped",
            q("SELECT ?b (SUM(?a) AS ?t) (COUNT(*) AS ?n) (MIN(?tag) AS ?lo) WHERE {
                 ?s e:a ?a . ?s e:b ?b . ?s e:tag ?tag } GROUP BY ?b ORDER BY ?b"),
        ),
        // RDFjoin: candidates drive the row star (gathered batches).
        (
            "join_rows",
            q(r#"SELECT ?r ?s ?a ?b WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:a ?a . ?s e:b ?b .
                 FILTER(?w = "1"^^xsd:integer) }"#),
        ),
        (
            "join_rows_residual",
            q(r#"SELECT ?r ?s ?a WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:a ?a . ?s e:b ?b .
                 FILTER(?w <= "2"^^xsd:integer && ?a > ?b) }"#),
        ),
        // A filter no single star binds: `?w` is the ref's, `?b` the row's.
        (
            "cross_star",
            q("SELECT ?r ?s ?w ?b WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:b ?b . FILTER(?w < ?b) }"),
        ),
    ]
}

fn par3() -> ParallelConfig {
    ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 64,
    }
}

/// One query under the three executors, which must agree byte for byte.
fn answer(db: &Database, generation: Generation, what: &str, text: &str) -> Vec<Vec<String>> {
    let dict = db.dict();
    let exec = |req: QueryRequest| {
        db.execute(&req.generation(generation))
            .unwrap_or_else(|e| panic!("{what}: {e}"))
            .results
            .render(&dict)
    };
    let one = exec(QueryRequest::sparql(text));
    let three = exec(QueryRequest::sparql(text).parallel(par3()));
    let rowwise = exec(QueryRequest::sparql(text).config(ExecConfig {
        rowwise: true,
        ..Default::default()
    }));
    assert!(
        one == rowwise,
        "{what}: the kernels differ from the rowwise oracle"
    );
    assert!(one == three, "{what}: three workers differ from one");
    one
}

/// **A filter is enforced once, by the star that binds all its variables**
/// — the rule that lets the tail of a plan apply cross-star filters only.
/// Checked on the unpruned form over the catalog: a star evaluated with all
/// its variables loses no row when every filter is applied to it again.
/// (The executor itself binds only what is read, so it cannot re-check: a
/// pruned filter variable would read NULL.) Reads the clustered generation
/// through the facade's storage handles, which carry no pending delta —
/// `planner_differential` holds the rule with one.
fn filters_are_enforced_once(db: &Database) {
    use sordf_engine::{ExecContext, Expr, StorageRef};
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
    for (name, text) in catalog() {
        let query = sordf_sparql::parse_sparql(&text, &dict).unwrap();
        let (_, lp) = sordf_engine::prepare(&query);
        let filters: Vec<&Expr> = lp.filters.iter().collect();
        for step in &sordf_engine::optimize(&cx, &lp).steps {
            let star = &lp.stars[step.star];
            let mut table = sordf_engine::eval_star(&cx, star, step.access, &filters, None, None);
            let bound = table.len();
            sordf_engine::star::apply_filters(&cx, &mut table, &filters);
            assert_eq!(
                table.len(),
                bound,
                "{name}: star {} left one of its filters unenforced",
                step.star
            );
        }
    }
}

/// What one traced run of `text` covered: result rows, row-pages scanned,
/// column pages a zone map decided without a pin, buffer-pool requests.
fn covered(
    db: &Database,
    generation: Generation,
    zonemaps: bool,
    text: &str,
) -> (usize, u64, u64, u64) {
    let config = ExecConfig {
        zonemaps,
        ..Default::default()
    };
    let resp = db
        .execute(
            &QueryRequest::sparql(format!("{PREFIX}{text}"))
                .generation(generation)
                .config(config)
                .traced(true),
        )
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let (stats, pool) = (resp.stats.unwrap(), resp.pool.unwrap());
    (
        resp.results.len(),
        stats.pages_scanned,
        stats.column_pages_skipped,
        pool.hits + pool.misses,
    )
}

/// **A column is decided per page from its zone map before it is pinned**:
/// a page without a dirty row whose statistics say "all present, all inside
/// the restriction" is neither pinned nor decoded for a column nothing
/// reads. `dirty`: the scenario's tombstones and inserts are pending (`b`
/// on page 0, `a` on pages 1 and 2).
fn zone_map_decisions(db: &Database, generation: Generation, layout: Layout, dirty: bool) {
    let what = |q: &str| format!("{layout:?} dirty={dirty} {q}");
    let run = |q: &str| covered(db, generation, true, q);
    // `b` and `day` hold a value on every row: three pages, two columns,
    // nothing to read but the subject — unless a row of the page is dirty,
    // whose tombstone / exception needs the base values.
    let unread = "SELECT ?s WHERE { ?s e:b ?b . ?s e:day ?d }";
    let read = "SELECT ?s ?b ?d WHERE { ?s e:b ?b . ?s e:day ?d }";
    let (rows, pages, skipped, requests) = run(unread);
    assert_eq!((rows, pages), (N_ROW, 3), "{}", what(unread));
    assert_eq!(skipped, if dirty { 4 } else { 6 }, "{}", what(unread));
    // Every column page decided is a pool request not made.
    let (_, _, read_skipped, read_requests) = run(read);
    assert_eq!(read_skipped, 0, "{}", what(read));
    assert_eq!(read_requests - requests, skipped, "{}", what(unread));
    // No column read at all: the rows are still counted.
    let counted = "SELECT (COUNT(*) AS ?n) WHERE { ?s e:b ?b . ?s e:day ?d }";
    let (_, pages, count_skipped, _) = run(counted);
    assert_eq!((pages, count_skipped), (3, skipped), "{}", what(counted));

    // `a` lacks a value on the first and last row of every page: a page
    // with one NULL must be pinned. `b` beside it is decided where clean.
    let nulls = "SELECT ?s WHERE { ?s e:a ?a . ?s e:b ?b }";
    let (_, pages, skipped, _) = run(nulls);
    assert_eq!(pages, 3, "{}", what(nulls));
    assert_eq!(skipped, if dirty { 0 } else { 3 }, "{}", what(nulls));

    // A restriction from the middle of page 1 on: page 0 is not scanned
    // (sort-key narrowing on the dense layout, a zone-map skip on the
    // sparse one), page 1 straddles the bound and is pinned for `day`, page
    // 2 lies inside it and is decided — the restriction is a date, pushed
    // exactly, so nothing reads `?d` afterwards. `b` is decided on both.
    let from = PAGE + 100;
    let bounded = format!(
        r#"SELECT ?s WHERE {{ ?s e:b ?b . ?s e:day ?d . FILTER(?d >= "{}"^^xsd:date) }}"#,
        day_of(from)
    );
    let (rows, pages, skipped, _) = run(&bounded);
    assert_eq!(
        (rows, pages, skipped),
        (N_ROW - from, 2, 3),
        "{}",
        what(&bounded)
    );
    // With zone maps switched off only a NULL count may decide: `day` is
    // pinned wherever it is scanned — the sparse layout, without a sort key
    // to narrow by, scans page 0 too — and `b` still is not, except on the
    // page with dirty rows.
    let (rows, pages, skipped, _) = covered(db, generation, false, &bounded);
    let (scanned, decided) = match (layout, dirty) {
        (Layout::Dense, _) => (2, 2),
        (Layout::Sparse, false) => (3, 3),
        (Layout::Sparse, true) => (3, 2),
    };
    assert_eq!(
        (rows, pages, skipped),
        (N_ROW - from, scanned, decided),
        "{} zonemaps off",
        what(&bounded)
    );

    // A sort-key-narrowed range inside one page (rows 1000..=1100 of page
    // 0): the page statistics cover more than the range, so `day` straddles
    // and is pinned, while `b` passes whole for any part of the page.
    let inside = format!(
        r#"SELECT ?s WHERE {{ ?s e:b ?b . ?s e:day ?d .
           FILTER(?d >= "{}"^^xsd:date && ?d <= "{}"^^xsd:date) }}"#,
        day_of(1000),
        day_of(1100)
    );
    let (rows, pages, skipped, _) = run(&inside);
    assert_eq!((rows, pages), (101, 1), "{}", what(&inside));
    // Dense: the scan is narrowed to rows 1000..=1100, which are clean even
    // when page 0 has dirty rows elsewhere. Sparse: the whole page is
    // scanned, dirty rows included.
    let decided = if dirty && layout == Layout::Sparse {
        0
    } else {
        1
    };
    assert_eq!(skipped, decided, "{}", what(&inside));
}

fn index_of(rendered: &str) -> usize {
    let digits: String = rendered.chars().filter(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no index in {rendered}"))
}

/// Segment row order is `i` order: what puts the fixture's NULLs and dirty
/// rows on the page and run edges they are meant for.
fn assert_in_row_order(layout: Layout, order: &[usize]) {
    assert_eq!(order.len(), N_ROW, "{layout:?}: one row per subject");
    if let Some(at) = (0..N_ROW).find(|&i| order[i] != i) {
        panic!("{layout:?}: row {at} holds subject {}", order[at]);
    }
}

fn scenario(layout: Layout) {
    let (db, generation) = build(layout);
    if layout == Layout::Dense {
        filters_are_enforced_once(&db);
    }
    let cat = catalog();
    let run = |when: &str| -> Vec<Vec<Vec<String>>> {
        cat.iter()
            .map(|(name, text)| answer(&db, generation, &format!("{layout:?} {when} {name}"), text))
            .collect()
    };
    let by_name = |answers: &[Vec<Vec<String>>], name: &str| -> Vec<Vec<String>> {
        answers[cat
            .iter()
            .position(|(n, _)| *n == name)
            .expect("catalog entry")]
        .clone()
    };

    // ---- no dirty row: every page is one clean run --------------------------
    let clean = run("clean");
    // The fixture is laid out as intended: segment row order is `i` order,
    // so the NULLs sit on the page and run edges.
    let order: Vec<usize> = by_name(&clean, "all_pass")
        .iter()
        .map(|r| index_of(&r[0]))
        .collect();
    assert_in_row_order(layout, &order);
    let with_a = by_name(&clean, "nulls");
    assert_eq!(with_a.len(), (0..N_ROW).filter(|&i| !lacks_a(i)).count());
    assert!(by_name(&clean, "nothing_selected").is_empty());
    assert!(by_name(&clean, "eq_outside_range").is_empty());
    let eq = by_name(&clean, "eq_and_range");
    assert!(
        !eq.is_empty() && eq.iter().all(|r| r[1] == "5"),
        "{layout:?}: ?a = 5"
    );
    // The decimal 2.5 passes the pushed raw range and fails the value test.
    let mixed = by_name(&clean, "mixed_numeric");
    assert!(!mixed.is_empty(), "{layout:?}: integers >= 5 exist");
    assert!(
        mixed
            .iter()
            .all(|r| r[1].parse::<f64>().is_ok_and(|m| m >= 5.0)),
        "{layout:?}: `?m >= 5` by value"
    );
    // The cross-star filter filters.
    let cross = by_name(&clean, "cross_star");
    assert!(
        !cross.is_empty() && cross.len() < N_REF,
        "{layout:?}: ?w < ?b removes rows"
    );
    for r in &cross {
        assert!(
            r[2].parse::<i64>().unwrap() < r[3].parse::<i64>().unwrap(),
            "{r:?}"
        );
    }

    zone_map_decisions(&db, generation, layout, false);

    // The join shapes are candidate-driven: RDFjoin gathers the row star's
    // columns for the refs' targets.
    for name in ["join_rows", "join_rows_residual"] {
        let text = &cat.iter().find(|(n, _)| *n == name).expect("entry").1;
        let plan = db
            .explain_with(text, generation, ExecConfig::default())
            .unwrap();
        assert!(
            plan.text.contains("RDFjoin"),
            "{layout:?} {name}: {}",
            plan.text
        );
    }

    // ---- dirty rows cut the pages into runs ---------------------------------
    let mut deletes = Vec::new();
    let mut inserts = Vec::new();
    for &i in &DIRTY {
        deletes.push(row(i, "b", Term::int(b_of(i))));
        inserts.push(row(i, "b", Term::int(6)));
    }
    // A second value beside the base one, and a row that loses `a` for good.
    inserts.push(row(2 * PAGE + 10, "a", Term::int(39)));
    deletes.push(row(PAGE + 1, "a", Term::int(((PAGE + 1) % 40) as i64)));
    db.delete_triples(&deletes).unwrap();
    db.insert_terms(&inserts).unwrap();
    db.validate_invariants();
    let dirty = run("dirty");
    zone_map_decisions(&db, generation, layout, true);
    let order: Vec<usize> = by_name(&dirty, "all_pass")
        .iter()
        .map(|r| index_of(&r[0]))
        .collect();
    assert_in_row_order(layout, &order);
    assert_eq!(
        by_name(&dirty, "nulls").len(),
        with_a.len() + 1 - 1,
        "{layout:?}: one binding more, one row less"
    );
    assert_eq!(
        by_name(&dirty, "all_pass")
            .iter()
            .filter(|r| r[1] == "6")
            .count(),
        (0..N_ROW)
            .filter(|&i| DIRTY.contains(&i) || b_of(i) == 6)
            .count()
    );
}

#[test]
fn dense_segments() {
    scenario(Layout::Dense);
}

#[test]
fn sparse_segments() {
    scenario(Layout::Sparse);
}
