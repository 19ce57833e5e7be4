//! The row-granular delta merge of RDFscan against its two oracles.
//!
//! A star scan over a class segment evaluates the clean runs between *dirty*
//! rows (rows a tombstone or an exception touches) column-at-a-time and only
//! the dirty rows one by one; pruning follows the rows (a column rules a page
//! out only when no exception of that column binds one of the page's rows)
//! and is blocked per segment, only where a pending insert can attach to one
//! of the segment's rows. Every boundary of that
//! scheme is exercised here over a two-class fixture with three pages per
//! segment, on dense (clustered) and sparse (CS tables over parse-order
//! OIDs) segments, and every cell is compared
//!
//! * byte for byte (row order included) between the vectorized kernels with
//!   one worker, with three workers, and the value-at-a-time rowwise oracle
//!   on the same live store, and
//! * canonically against a fresh bulk load of the same logical triple set
//!   (and, for the pruning regression, the exhaustive-index baseline).

use sordf::{Database, ExecConfig, Generation, ParallelConfig, QueryRequest, Snapshot};
use sordf_engine::context::StatsSnapshot;
use sordf_model::{Term, TermTriple};

/// Values per 64 KiB page.
const PAGE: usize = 8192;
/// Subjects per class: two full pages and a partial third.
const N_ITEM: usize = 2 * PAGE + 700;
const N_PART: usize = 2 * PAGE + 300;

fn iri(local: &str) -> Term {
    Term::iri(format!("http://ex/{local}"))
}

/// Day `d` (0-based) of the three years from 1995-01-01.
fn date_of(d: usize) -> String {
    let mut year = 1995;
    let mut d = d;
    loop {
        let leap = year % 4 == 0;
        let len = if leap { 366 } else { 365 };
        if d < len {
            let months = [
                31,
                if leap { 29 } else { 28 },
                31,
                30,
                31,
                30,
                31,
                31,
                30,
                31,
                30,
                31,
            ];
            let mut m = 0;
            while d >= months[m] {
                d -= months[m];
                m += 1;
            }
            return format!("{year}-{:02}-{:02}", m + 1, d + 1);
        }
        d -= len;
        year += 1;
    }
}

/// `sold` day of subject `i` of a class with `n` subjects: ascending in `i`,
/// so parse order (the sparse layout) and sort-key order (the dense layout)
/// both cluster it, and `batch` / `weight` (= day / 10) with it — which is
/// what gives their zone maps something to prune.
fn day_of(i: usize, n: usize) -> usize {
    i * 1000 / n
}

/// Does item `i` lack its (sort-key) `sold` value in the bulk load?
fn item_lacks_sold(i: usize) -> bool {
    i % 997 == 500
}

/// One triple of an item / part subject.
fn item(i: usize, p: &str, o: Term) -> TermTriple {
    TermTriple::new(iri(&format!("item{i}")), iri(p), o)
}

fn part(i: usize, p: &str, o: Term) -> TermTriple {
    TermTriple::new(iri(&format!("part{i}")), iri(p), o)
}

fn item_qty(i: usize) -> TermTriple {
    item(i, "qty", Term::int((i % 50) as i64))
}

fn item_triples(i: usize) -> Vec<TermTriple> {
    let day = day_of(i % N_ITEM, N_ITEM);
    let mut t = vec![
        item_qty(i),
        item(i, "batch", Term::int((day / 10) as i64)),
        item(i, "ofpart", iri(&format!("part{}", (i * 13) % N_PART))),
    ];
    if !item_lacks_sold(i) {
        t.push(item(i, "sold", Term::date(&date_of(day))));
    }
    t
}

fn part_triples(i: usize) -> Vec<TermTriple> {
    let day = day_of(i % N_PART, N_PART);
    vec![
        part(i, "sold", Term::date(&date_of(day))),
        part(i, "weight", Term::int((day / 10) as i64)),
        part(i, "size", Term::int((i % 20) as i64)),
    ]
}

/// A part that carries a second `weight` value in the bulk load. A column
/// holds one value per row, so the other is an irregular *exception* with no
/// delta involved: its row is dirty from the start, and the `weight` zone map
/// of its page excludes the exception's value, so `weight` must not rule the
/// page out (`part_exception_on_second_column`). The scenario never inserts
/// a `size` or `weight`; `a_blocked_first_column_keeps_a_base_exception_on_the_second`
/// does, which blocks pruning on `size` and leaves `weight` to decide.
const TWO_WEIGHTS: usize = PAGE + 100;

/// The bulk load, the two classes interleaved so that their sparse segments
/// interleave in subject space.
fn base_triples() -> Vec<TermTriple> {
    let mut out = vec![part(TWO_WEIGHTS, "weight", Term::int(205))];
    for i in 0..N_ITEM.max(N_PART) {
        if i < N_ITEM {
            out.extend(item_triples(i));
        }
        if i < N_PART {
            out.extend(part_triples(i));
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    Dense,
    Sparse,
}

impl Layout {
    fn generation(self) -> Generation {
        match self {
            Layout::Dense => Generation::Clustered,
            Layout::Sparse => Generation::CsParseOrder,
        }
    }
}

fn build(triples: &[TermTriple], layout: Layout) -> Database {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(triples).unwrap();
    match layout {
        Layout::Dense => {
            db.self_organize().unwrap();
        }
        Layout::Sparse => db.build_cs_tables().unwrap(),
    }
    db
}

const PREFIX: &str = "PREFIX e: <http://ex/>\n";

/// The query catalog: (name, SPARQL). Every RDFscan shape the merge has to
/// get right — unrestricted, sort-key narrowed, zone-map pruned on one and
/// on two columns, both classes, a residual filter (every row per-row), a
/// constant object, an aggregate, and a candidate-driven join (RDFjoin).
/// Integer bounds are typed literals: a bare `40` is a number, not a term,
/// and stays a residual filter instead of a pushed restriction.
fn catalog() -> Vec<(&'static str, String)> {
    let q = |body: &str| format!("{PREFIX}{body}");
    vec![
        (
            "item_all",
            q("SELECT ?s ?q ?b WHERE { ?s e:qty ?q . ?s e:batch ?b }"),
        ),
        (
            "item_sold_range",
            q(r#"SELECT ?s ?d ?q WHERE { ?s e:sold ?d . ?s e:qty ?q .
                 FILTER(?d >= "1996-03-01"^^xsd:date && ?d < "1996-05-01"^^xsd:date) }"#),
        ),
        (
            "item_sold_early",
            q(
                r#"SELECT ?s ?d ?q ?b WHERE { ?s e:sold ?d . ?s e:qty ?q . ?s e:batch ?b .
                 FILTER(?d < "1995-01-20"^^xsd:date) }"#,
            ),
        ),
        (
            "item_batch_zone",
            q(r#"SELECT ?s ?b ?q WHERE { ?s e:batch ?b . ?s e:qty ?q .
                 FILTER(?b >= "40"^^xsd:integer && ?b <= "42"^^xsd:integer) }"#),
        ),
        (
            "item_two_restricted",
            q(r#"SELECT ?s ?b ?q WHERE { ?s e:batch ?b . ?s e:qty ?q .
                 FILTER(?b >= "0"^^xsd:integer && ?b <= "60"^^xsd:integer
                        && ?q >= "10"^^xsd:integer && ?q <= "12"^^xsd:integer) }"#),
        ),
        (
            // `size` is the first restricted column and never prunes; the
            // `weight` range holds only the base exception of `TWO_WEIGHTS`,
            // on a page whose `weight` zone map excludes it.
            "part_exception_on_second_column",
            q(r#"SELECT ?s ?z ?w WHERE { ?s e:size ?z . ?s e:weight ?w .
                 FILTER(?z >= "0"^^xsd:integer && ?z <= "19"^^xsd:integer
                        && ?w >= "200"^^xsd:integer && ?w <= "210"^^xsd:integer) }"#),
        ),
        (
            "item_qty_const",
            q("SELECT ?s ?b WHERE { ?s e:qty 7 . ?s e:batch ?b }"),
        ),
        (
            "item_residual",
            q("SELECT ?s ?q ?b WHERE { ?s e:qty ?q . ?s e:batch ?b . FILTER(?q < ?b) }"),
        ),
        (
            "part_sold_range",
            q(r#"SELECT ?s ?d ?w WHERE { ?s e:sold ?d . ?s e:weight ?w .
                 FILTER(?d >= "1996-03-01"^^xsd:date && ?d < "1996-05-01"^^xsd:date) }"#),
        ),
        (
            "part_weight_zone",
            q(r#"SELECT ?s ?w ?z WHERE { ?s e:weight ?w . ?s e:size ?z .
                 FILTER(?w >= "40"^^xsd:integer && ?w <= "42"^^xsd:integer) }"#),
        ),
        (
            "both_sold",
            q(r#"SELECT ?s ?d WHERE { ?s e:sold ?d .
                 FILTER(?d >= "1997-09-20"^^xsd:date) }"#),
        ),
        (
            "item_agg",
            q(
                r#"SELECT (COUNT(*) AS ?n) (SUM(?q) AS ?t) WHERE { ?s e:qty ?q . ?s e:batch ?b .
                 FILTER(?b <= "30"^^xsd:integer) }"#,
            ),
        ),
        (
            "item_join_part",
            q(
                r#"SELECT ?i ?q ?p ?z WHERE { ?i e:qty ?q . ?i e:ofpart ?p . ?p e:weight ?w .
                 ?p e:size ?z . FILTER(?w = "41"^^xsd:integer) }"#,
            ),
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

fn request(layout: Layout, text: &str, snap: Option<Snapshot>) -> QueryRequest {
    let mut req = QueryRequest::sparql(text).generation(layout.generation());
    if let Some(s) = snap {
        req = req.snapshot(s);
    }
    req
}

/// One query on the live store under the three executors; asserts they agree
/// byte for byte and returns the canonical form.
fn live_answer(
    db: &Database,
    layout: Layout,
    name: &str,
    text: &str,
    snap: Option<Snapshot>,
    when: &str,
) -> Vec<String> {
    let dict = db.dict();
    let exec = |req: QueryRequest| {
        db.execute(&req)
            .unwrap_or_else(|e| panic!("{layout:?} {when} {name}: {e}"))
            .results
    };
    let one = exec(request(layout, text, snap));
    let three = exec(request(layout, text, snap).parallel(par3()));
    let rowwise = exec(request(layout, text, snap).config(ExecConfig {
        rowwise: true,
        ..Default::default()
    }));
    assert_eq!(
        one.render(&dict),
        rowwise.render(&dict),
        "{layout:?} {when} {name}: vectorized differs from the rowwise oracle"
    );
    assert_eq!(
        one.render(&dict),
        three.render(&dict),
        "{layout:?} {when} {name}: three workers differ from one"
    );
    one.canonical(&dict)
}

/// Every catalog query on the live store (all executors agreeing) against a
/// fresh bulk load of `logical`. Returns the reference answers.
fn assert_matches_bulk_load(
    live: &Database,
    logical: &[TermTriple],
    layout: Layout,
    snap: Option<Snapshot>,
    when: &str,
) -> Vec<Vec<String>> {
    let reference = build(logical, layout);
    if snap.is_none() {
        assert_eq!(live.n_triples(), reference.n_triples(), "{layout:?} {when}");
    }
    catalog()
        .iter()
        .map(|(name, text)| {
            let want = reference
                .execute(&request(layout, text, None))
                .unwrap()
                .results
                .canonical(&reference.dict());
            let got = live_answer(live, layout, name, text, snap, when);
            assert_eq!(
                got, want,
                "{layout:?} {when} {name}: differs from a fresh bulk load"
            );
            want
        })
        .collect()
}

fn stats(db: &Database, layout: Layout, text: &str) -> StatsSnapshot {
    db.execute(&request(layout, text, None).traced(true))
        .unwrap()
        .stats
        .expect("traced")
}

/// Index of the subject a rendered `<http://ex/item123>` names.
fn index_of(rendered: &str) -> usize {
    rendered
        .trim_end_matches('>')
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no subject index in {rendered}"))
}

/// Subject indices in segment row order: an unrestricted star over two
/// always-present columns emits exactly one row per segment row, in order.
fn row_order(db: &Database, layout: Layout, text: &str, n: usize) -> Vec<usize> {
    let rs = db.execute(&request(layout, text, None)).unwrap().results;
    let rows: Vec<usize> = rs
        .render(&db.dict())
        .iter()
        .map(|r| index_of(&r[0]))
        .collect();
    assert_eq!(rows.len(), n, "{layout:?}: one result row per segment row");
    rows
}

fn minus(all: &[TermTriple], remove: &[TermTriple]) -> Vec<TermTriple> {
    let dead: std::collections::HashSet<&TermTriple> = remove.iter().collect();
    all.iter().filter(|t| !dead.contains(t)).cloned().collect()
}

fn scenario(layout: Layout) {
    let base = base_triples();
    let live = build(&base, layout);
    let cat = catalog();
    let text_of = |name: &str| {
        &cat.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no query {name}"))
            .1
    };
    // No delta: the executors agree and the store answers like itself.
    let no_delta = assert_matches_bulk_load(&live, &base, layout, None, "no delta");
    let second_col = cat
        .iter()
        .position(|(n, _)| *n == "part_exception_on_second_column")
        .expect("catalog entry");
    assert_eq!(
        no_delta[second_col].len(),
        1,
        "{layout:?}: the base exception binds although its page's zone map misses it"
    );
    let items = row_order(&live, layout, text_of("item_all"), N_ITEM);
    let parts = row_order(
        &live,
        layout,
        &format!("{PREFIX}SELECT ?s ?d ?z WHERE {{ ?s e:sold ?d . ?s e:size ?z }}"),
        N_PART,
    );
    let zone_before = stats(&live, layout, text_of("item_batch_zone"));
    let part_range_before = stats(&live, layout, text_of("part_sold_range"));
    assert!(
        zone_before.zonemap_pages_skipped > 0,
        "{layout:?}: the zone-map query must prune something to begin with"
    );

    // ---- Step 1: inserts for brand-new subjects only ----------------------
    // Their `batch` values sit inside the zone-map query's range, so they
    // must show up — through the irregular branch — while the class scan
    // prunes exactly as it did with no delta: new subjects lie past every
    // segment and block nothing.
    let mut new_items: Vec<TermTriple> = Vec::new();
    for k in 0..40 {
        let i = N_ITEM + k;
        new_items.push(item(i, "qty", Term::int((k % 50) as i64)));
        new_items.push(item(i, "batch", Term::int(40 + (k % 3) as i64)));
        new_items.push(item(i, "ofpart", iri(&format!("part{}", k * 7))));
        new_items.push(item(i, "sold", Term::date("1996-03-15")));
    }
    for batch in new_items.chunks(new_items.len() / 4) {
        live.insert_terms(batch).unwrap();
    }
    let zone_after = stats(&live, layout, text_of("item_batch_zone"));
    assert_eq!(
        (zone_after.zonemap_pages_skipped, zone_after.pages_scanned),
        (zone_before.zonemap_pages_skipped, zone_before.pages_scanned),
        "{layout:?}: inserts for brand-new subjects must not change what the class scan prunes"
    );
    let mut logical: Vec<TermTriple> = base.iter().chain(&new_items).cloned().collect();
    let step1 = live.snapshot();
    let step1_answers = assert_matches_bulk_load(&live, &logical, layout, None, "new subjects");

    // ---- Step 2: tombstones and exceptions on chosen rows ------------------
    let (first, last) = (items[0], items[N_ITEM - 1]);
    let (page0_last, page1_first) = (items[PAGE - 1], items[PAGE]);
    let (page1_last, page2_first) = (items[2 * PAGE - 1], items[2 * PAGE]);
    let mut deletes: Vec<TermTriple> = Vec::new();
    let mut inserts: Vec<TermTriple> = Vec::new();
    // Every property of a row tombstoned: the row vanishes — first and last
    // row of the segment (and of their pages).
    deletes.extend(item_triples(first));
    deletes.extend(item_triples(last));
    // One property tombstoned, nothing refills it: the row vanishes from the
    // stars that need the property — last row of page 0, first of page 2.
    deletes.push(item_qty(page0_last));
    deletes.push(item_qty(page2_first));
    // One property tombstoned and an exception refills it: the row stays,
    // with the new value — first row of page 1, last row of page 1.
    for i in [page1_first, page1_last] {
        deletes.push(item_qty(i));
        inserts.push(item(i, "qty", Term::int(11)));
    }
    // A second value beside an untouched base value: two bindings.
    let doubled = items[PAGE / 2];
    inserts.push(item(doubled, "qty", Term::int(12)));
    // Dirty rows in the other class too: mid-page tombstone, page boundary.
    deletes.extend(part_triples(parts[PAGE + 17]));
    deletes.push(part(
        parts[PAGE - 1],
        "size",
        Term::int((parts[PAGE - 1] % 20) as i64),
    ));
    live.delete_triples(&deletes).unwrap();
    live.insert_terms(&inserts).unwrap();
    // Delete-then-reinsert of the same triple: the tombstone keeps hiding the
    // base occurrence, the re-insert is visible — exactly one binding.
    let again = item_qty(items[PAGE + PAGE / 2]);
    live.delete_triples(std::slice::from_ref(&again)).unwrap();
    live.insert_terms(std::slice::from_ref(&again)).unwrap();
    // A pending insert fills a base NULL of the sort-key column, inside the
    // item segment, with a value the narrowed queries select — on the
    // segment's last page (NULLs sort last on the dense segment; among the
    // highest parse-order subjects on the sparse one), whose `sold` zone map
    // excludes that value.
    let hollow = *items[2 * PAGE..]
        .iter()
        .find(|&&i| item_lacks_sold(i) && i != last)
        .expect("an item without sold on the last page");
    let filler = item(hollow, "sold", Term::date("1996-04-02"));
    live.insert_terms(std::slice::from_ref(&filler)).unwrap();
    live.validate_invariants();

    logical = minus(&logical, &deletes);
    logical.extend(inserts.iter().cloned());
    logical.push(filler.clone());
    let _ = assert_matches_bulk_load(&live, &logical, layout, None, "dirty rows");

    // The filled row is there (narrowing stayed blocked for the item
    // segment), and so is the doubled binding.
    let dict = live.dict();
    let ranged = live
        .execute(&request(layout, text_of("item_sold_range"), None))
        .unwrap()
        .results
        .render(&dict);
    assert!(
        ranged.iter().any(|r| index_of(&r[0]) == hollow),
        "{layout:?}: the insert that filled a NULL sort key must be found"
    );
    let all = live
        .execute(&request(layout, text_of("item_all"), None))
        .unwrap()
        .results
        .render(&dict);
    let bindings = |i: usize| all.iter().filter(|r| index_of(&r[0]) == i).count();
    assert_eq!(bindings(doubled), 2, "{layout:?}: base value + exception");
    assert_eq!(bindings(items[PAGE + PAGE / 2]), 1, "{layout:?}: re-insert");
    assert_eq!(bindings(first), 0, "{layout:?}: fully tombstoned row");
    assert_eq!(bindings(page0_last), 0, "{layout:?}: qty tombstoned");
    assert_eq!(bindings(page1_first), 1, "{layout:?}: qty refilled");

    // Pruning is blocked per segment: the insert on `sold` sits among the
    // items, so the part segment keeps narrowing on its own `sold` sort key
    // (dense layout; sparse segments interleave and have no sort key).
    if layout == Layout::Dense {
        let part_range_after = stats(&live, layout, text_of("part_sold_range"));
        assert!(
            part_range_after.rows_scanned < (N_ITEM + N_PART) as u64,
            "the part segment must stay narrowed ({} rows scanned, {} before the delta)",
            part_range_after.rows_scanned,
            part_range_before.rows_scanned
        );
        assert!(
            part_range_after.rows_scanned > part_range_before.rows_scanned,
            "the item segment must have given up narrowing"
        );
    }

    // ---- Step 3: a historical snapshot -------------------------------------
    // `view_at(step 1)` is rebuilt from the runs and tombstones, not served
    // from the cached view: it must answer like the step-1 bulk load.
    for ((name, text), want) in cat.iter().zip(&step1_answers) {
        let got = live_answer(
            &live,
            layout,
            name,
            text,
            Some(step1),
            "at the step-1 snapshot",
        );
        assert_eq!(
            &got, want,
            "{layout:?} {name}: the step-1 snapshot differs from the step-1 bulk load"
        );
    }
}

/// A pending `size` insert on a part subject blocks pruning on `size`, the
/// first restricted column of `part_exception_on_second_column`; `weight`,
/// whose zone map excludes the page of `TWO_WEIGHTS`, must still not rule
/// that page out, because the base exception on `weight` binds one of its
/// rows. Checked against a fresh bulk load and the exhaustive-index
/// baseline, which no zone map prunes.
#[test]
fn a_blocked_first_column_keeps_a_base_exception_on_the_second() {
    let name = "part_exception_on_second_column";
    let cat = catalog();
    let text = &cat
        .iter()
        .find(|(n, _)| *n == name)
        .expect("catalog entry")
        .1;
    let pending = part(3, "size", Term::int(19));
    let mut logical = base_triples();
    logical.push(pending.clone());
    let baseline = {
        let db = Database::in_temp_dir().unwrap();
        db.load_terms(&logical).unwrap();
        db.build_baseline().unwrap();
        let req = QueryRequest::sparql(text.as_str()).generation(Generation::Baseline);
        db.execute(&req).unwrap().results.canonical(&db.dict())
    };
    assert_eq!(baseline.len(), 1, "the exception binds one row");
    for layout in [Layout::Dense, Layout::Sparse] {
        let live = build(&base_triples(), layout);
        live.insert_terms(std::slice::from_ref(&pending)).unwrap();
        let got = live_answer(&live, layout, name, text, None, "size pending");
        let fresh = build(&logical, layout);
        let want = fresh
            .execute(&request(layout, text, None))
            .unwrap()
            .results
            .canonical(&fresh.dict());
        assert_eq!(got, want, "{layout:?}: differs from a fresh bulk load");
        assert_eq!(got, baseline, "{layout:?}: differs from the baseline");
    }
}

/// Sort-key narrowing binary-searches a dense segment's rows by the values
/// its sort-key column stores. A subject with a second value of that
/// predicate keeps the smaller one in the column and the other as an
/// irregular exception, with no delta involved; a restriction can select
/// the exception while the stored value misses it, so narrowing must not
/// drop that row. Checked on both layouts against the exhaustive-index
/// baseline.
#[test]
fn a_base_exception_on_the_sort_key_survives_narrowing() {
    let mut triples: Vec<TermTriple> = (0..200)
        .flat_map(|i| {
            [
                item(i, "qty", Term::int((i % 50) as i64)),
                item(i, "sold", Term::date(&date_of(365 + i))),
            ]
        })
        .collect();
    triples.push(item(50, "sold", Term::date("1998-06-01")));
    let name = "sort_key_exception";
    let text = format!(
        r#"{PREFIX}SELECT ?s ?d WHERE {{ ?s e:qty ?q . ?s e:sold ?d .
             FILTER(?d >= "1998-01-01"^^xsd:date) }}"#
    );
    let baseline = {
        let db = Database::in_temp_dir().unwrap();
        db.load_terms(&triples).unwrap();
        db.build_baseline().unwrap();
        let req = QueryRequest::sparql(text.as_str()).generation(Generation::Baseline);
        db.execute(&req).unwrap().results.canonical(&db.dict())
    };
    assert_eq!(baseline.len(), 1, "item50's second date binds");
    assert!(baseline[0].contains("item50"), "{baseline:?}");
    for layout in [Layout::Dense, Layout::Sparse] {
        let live = build(&triples, layout);
        let got = live_answer(&live, layout, name, &text, None, "no delta");
        assert_eq!(got, baseline, "{layout:?}: differs from the baseline");
    }
}

#[test]
fn dense_segments_merge_row_granular() {
    scenario(Layout::Dense);
}

#[test]
fn sparse_segments_merge_row_granular() {
    scenario(Layout::Sparse);
}
