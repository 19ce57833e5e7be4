//! The column kernels behind RDFscan / RDFjoin on the kernel fixture: one
//! class of two full pages and a partial third, NULLs of `a` on the first
//! and last row of every page and of every run between the dirty rows, runs
//! of length 0, 1, 15, 16 and 17, and refs that drive RDFjoin. Its catalog
//! runs at three workers byte for byte like one worker on dense and sparse
//! segments, clean and dirty, and equals the baseline of a fresh bulk load
//! canonically; segment row order is index order (what puts the NULLs on
//! the edges); and which column pages a zone map decides without a pin is
//! counted exactly.

mod harness;

use harness::*;
use sordf::{Database, ExecConfig, Generation, QueryRequest};
use sordf_engine::PlanScheme;
use sordf_model::{Term, TermTriple};
use std::sync::OnceLock;

const N_ROW: usize = 2 * PAGE + 500;
const DIRTY: [usize; 6] = [300, 301, 303, 319, 336, 354];

fn lacks_a(i: usize) -> bool {
    let edges = [
        0,
        PAGE - 1,
        PAGE,
        2 * PAGE - 1,
        2 * PAGE,
        N_ROW - 1,
        302,
        304,
        318,
        320,
        335,
        337,
        353,
        355,
    ];
    edges.contains(&i) || i % 97 == 5
}

/// Never 3: `?b = 3` passes every zone map and selects nothing.
fn b_of(i: usize) -> i64 {
    [0, 1, 2, 4, 4, 5, 6][i % 7]
}

fn row(i: usize, p: &str, o: Term) -> TermTriple {
    triple(e(format!("row{i:05}")), p, o)
}

/// Ascends strictly with `i`: the dense sort key keeps index order.
fn day_of(i: usize) -> String {
    format!(
        "{}-{:02}-{:02}",
        1900 + i / 336,
        i / 28 % 12 + 1,
        i % 28 + 1
    )
}

fn base() -> Vec<TermTriple> {
    let mut t = Vec::new();
    for i in 0..N_ROW {
        t.push(row(i, "day", Term::date(&day_of(i))));
        t.push(row(i, "b", Term::int(b_of(i))));
        // Every 50th a decimal: `?m >= 5` pushed as a raw range lets it by.
        t.push(row(
            i,
            "m",
            if i % 50 == 7 {
                Term::decimal_f64(2.5)
            } else {
                Term::int((i % 11) as i64)
            },
        ));
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
    }
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
    for k in 0..3000 {
        let target = special.get(k).copied().unwrap_or(k * 37 % N_ROW);
        t.push(triple(
            e(format!("ref{k:05}")),
            "to",
            e(format!("row{target:05}")),
        ));
        t.push(triple(
            e(format!("ref{k:05}")),
            "w",
            Term::int((k % 5) as i64),
        ));
    }
    t
}

const CATALOG: [&str; 15] = [
    "SELECT ?s ?b ?d WHERE { ?s e:b ?b . ?s e:day ?d }",
    "SELECT ?s ?a ?t ?b WHERE { ?s e:a ?a . ?s e:tag ?t . ?s e:b ?b }",
    r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a = "5"^^xsd:integer && ?a >= "3"^^xsd:integer && ?a <= "9"^^xsd:integer) }"#,
    r#"SELECT ?s ?a WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a = "5"^^xsd:integer && ?a >= "6"^^xsd:integer) }"#,
    r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a >= "10"^^xsd:integer && ?a < "30"^^xsd:integer && ?b >= "1"^^xsd:integer && ?b <= "4"^^xsd:integer) }"#,
    r#"SELECT ?s ?a WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?b = "3"^^xsd:integer) }"#,
    "SELECT ?s ?a WHERE { ?s e:b 2 . ?s e:a ?a }",
    "SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a < 24 && ?b != 1 && ?a * ?b > 6) }",
    r#"SELECT ?s ?t WHERE { ?s e:tag ?t . ?s e:b ?b . FILTER(?t > "banana" || ?b = 0) }"#,
    r#"SELECT ?s ?a ?b WHERE { ?s e:a ?a . ?s e:b ?b . FILTER(?a >= "20"^^xsd:integer && ?a != ?b && ?b < 5) }"#,
    r#"SELECT ?s ?m WHERE { ?s e:m ?m . ?s e:b ?b . FILTER(?m >= "5"^^xsd:integer) }"#,
    "SELECT ?b (SUM(?a) AS ?t) (COUNT(*) AS ?n) (MIN(?tag) AS ?lo) WHERE { ?s e:a ?a . ?s e:b ?b . ?s e:tag ?tag } GROUP BY ?b ORDER BY ?b",
    r#"SELECT ?r ?s ?a ?b WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:a ?a . ?s e:b ?b . FILTER(?w = "1"^^xsd:integer) }"#,
    r#"SELECT ?r ?s ?a WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:a ?a . ?s e:b ?b . FILTER(?w <= "2"^^xsd:integer && ?a > ?b) }"#,
    "SELECT ?r ?s ?w ?b WHERE { ?r e:to ?s . ?r e:w ?w . ?s e:b ?b . FILTER(?w < ?b) }",
];

/// Result rows, row-pages scanned, column pages decided, pool requests.
fn covered(
    db: &Database,
    generation: Generation,
    zonemaps: bool,
    text: &str,
) -> (usize, u64, u64, u64) {
    let resp = traced(db, generation, zonemaps, text);
    let (stats, pool) = (resp.stats.unwrap(), resp.pool.unwrap());
    (
        resp.results.len(),
        stats.pages_scanned,
        stats.column_pages_skipped,
        pool.hits + pool.misses,
    )
}

/// **A column is decided per page from its zone map before it is
/// pinned**: a page without a dirty row whose statistics say "all
/// present, all inside the restriction" is neither pinned nor decoded
/// for a column nothing reads. `dirty`: `b` on page 0 and `a` on pages 1
/// and 2 have pending writes.
fn zone_map_decisions(db: &Database, generation: Generation, dense: bool, dirty: bool) {
    let what = |q: &str| format!("dense={dense} dirty={dirty} {q}");
    let run = |q: &str| covered(db, generation, true, q);
    let unread = "SELECT ?s WHERE { ?s e:b ?b . ?s e:day ?d }";
    let (rows, pages, skipped, requests) = run(unread);
    assert_eq!(
        (rows, pages, skipped),
        (N_ROW, 3, if dirty { 4 } else { 6 }),
        "{}",
        what(unread)
    );
    // Every column page decided is a pool request not made.
    let (_, _, read_skipped, read_requests) =
        run("SELECT ?s ?b ?d WHERE { ?s e:b ?b . ?s e:day ?d }");
    assert_eq!(
        (read_skipped, read_requests - requests),
        (0, skipped),
        "{}",
        what(unread)
    );
    let counted = "SELECT (COUNT(*) AS ?n) WHERE { ?s e:b ?b . ?s e:day ?d }";
    let (_, pages, count_skipped, _) = run(counted);
    assert_eq!((pages, count_skipped), (3, skipped), "{}", what(counted));
    // A page with one NULL of `a` is pinned; `b` beside it is decided
    // where clean.
    let nulls = "SELECT ?s WHERE { ?s e:a ?a . ?s e:b ?b }";
    let (_, pages, skipped, _) = run(nulls);
    assert_eq!(
        (pages, skipped),
        (3, if dirty { 0 } else { 3 }),
        "{}",
        what(nulls)
    );
    // From the middle of page 1 on: page 0 is not scanned, page 1
    // straddles the bound and is pinned for `day`, page 2 is decided;
    // `b` is decided on both.
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
    // Zone maps off: only a NULL count decides; the sparse layout, with
    // no sort key to narrow by, scans page 0 too.
    let (rows, pages, skipped, _) = covered(db, generation, false, &bounded);
    let want = match (dense, dirty) {
        (true, _) => (2, 2),
        (false, false) => (3, 3),
        (false, true) => (3, 2),
    };
    assert_eq!(
        (rows, pages, skipped),
        (N_ROW - from, want.0, want.1),
        "{} zone maps off",
        what(&bounded)
    );
    // A sort-key range inside page 0: `day` straddles and is pinned, `b`
    // passes whole; the sparse layout scans the page's dirty rows too.
    let inside = format!(
        r#"SELECT ?s WHERE {{ ?s e:b ?b . ?s e:day ?d . FILTER(?d >= "{}"^^xsd:date && ?d <= "{}"^^xsd:date) }}"#,
        day_of(1000),
        day_of(1100)
    );
    let (rows, pages, skipped, _) = run(&inside);
    assert_eq!(
        (rows, pages, skipped),
        (101, 1, u64::from(dense || !dirty)),
        "{}",
        what(&inside)
    );
}

/// The catalog's canonical answers on the baseline of a fresh bulk load.
fn fresh(triples: &[TermTriple]) -> Vec<Vec<String>> {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(triples).unwrap();
    db.build_baseline().unwrap();
    let run = |text: &str| {
        let req = QueryRequest::sparql(format!("PREFIX e: <{NS}> {text}"))
            .generation(Generation::Baseline)
            .config(config(PlanScheme::Default, false));
        db.execute(&req).unwrap().results.canonical(&db.dict())
    };
    CATALOG.iter().map(|t| run(t)).collect()
}

/// The kernel fixture on one layout: the catalog, clean and dirty.
fn scenario(dense: bool) {
    let (mut del, mut ins): (Vec<_>, Vec<_>) = DIRTY
        .iter()
        .map(|&i| (row(i, "b", Term::int(b_of(i))), row(i, "b", Term::int(6))))
        .unzip();
    ins.push(row(2 * PAGE + 10, "a", Term::int(39)));
    del.push(row(PAGE + 1, "a", Term::int(((PAGE + 1) % 40) as i64)));
    let mut dirty_triples: Vec<TermTriple> =
        base().into_iter().filter(|t| !del.contains(t)).collect();
    dirty_triples.extend(ins.iter().cloned());
    // Both tests need both references: built once, side by side.
    static REFERENCES: OnceLock<[Vec<Vec<String>>; 2]> = OnceLock::new();
    let references = REFERENCES.get_or_init(|| {
        std::thread::scope(|s| {
            let clean = s.spawn(|| fresh(&base()));
            let dirty = fresh(&dirty_triples);
            [clean.join().unwrap(), dirty]
        })
    });
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&base()).unwrap();
    let generation = if dense {
        Generation::Clustered
    } else {
        Generation::CsParseOrder
    };
    match dense {
        true => drop(db.self_organize().unwrap()),
        false => db.build_cs_tables().unwrap(),
    }
    for dirty in [false, true] {
        if dirty {
            db.delete_triples(&del).unwrap();
            db.insert_terms(&ins).unwrap();
        }
        let dict = db.dict();
        for (text, reference) in CATALOG.iter().zip(&references[dirty as usize]) {
            let text = format!("PREFIX e: <{NS}> {text}");
            let exec = |exec: Exec| {
                let mut req = QueryRequest::sparql(text.as_str())
                    .generation(generation)
                    .config(config(PlanScheme::RdfScanJoin, true));
                if exec == Exec::Three {
                    req = req.parallel(par3());
                }
                db.execute(&req).unwrap().results.render(&dict)
            };
            let one = exec(Exec::One);
            assert!(
                exec(Exec::Three) == one,
                "dense={dense} dirty={dirty}: {text}"
            );
            let mut canonical: Vec<String> = one.iter().map(|r| r.join("\t")).collect();
            canonical.sort();
            assert_eq!(canonical, *reference, "dense={dense} dirty={dirty}: {text}");
        }
        // Segment row order is index order.
        let all = db
            .execute(
                &QueryRequest::sparql(format!("PREFIX e: <{NS}> {}", CATALOG[0]))
                    .generation(generation),
            )
            .unwrap();
        let order: Vec<String> = all
            .results
            .render(&dict)
            .into_iter()
            .map(|r| r[0].clone())
            .collect();
        assert_eq!(
            order,
            (0..N_ROW)
                .map(|i| format!("<{NS}row{i:05}>"))
                .collect::<Vec<_>>(),
            "dense={dense} dirty={dirty}"
        );
        zone_map_decisions(&db, generation, dense, dirty);
        // The join shapes are candidate-driven.
        for text in &CATALOG[12..14] {
            let plan = db
                .explain_with(
                    &format!("PREFIX e: <{NS}> {text}"),
                    generation,
                    ExecConfig::default(),
                )
                .unwrap();
            assert!(plan.text.contains("RDFjoin"), "{}", plan.text);
        }
    }
}

#[test]
fn dense_segments() {
    scenario(true);
}

#[test]
fn sparse_segments() {
    scenario(false);
}
