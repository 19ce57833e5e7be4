//! The row-granular delta merge of RDFscan in the correctness matrix
//! (`harness`). A star scan over a class segment evaluates the clean runs
//! between dirty rows (rows a tombstone or an exception touches)
//! column-at-a-time and the dirty rows one by one; pruning follows the rows
//! and is blocked per segment, only where a pending insert can attach to
//! one of the segment's rows. The page fixture (`pages`: items over two
//! zone-map pages, interleaved parts, page-edge tombstones and refills, a
//! filled sort-key NULL, delete-then-reinsert, new items) runs in every cell
//! of each layout, and the two wrong answers this scheme once gave run as
//! fixed inputs.

mod harness;

use harness::*;
use sordf_model::{Term, TermTriple};

#[test]
fn dense_segments_merge_row_granular() {
    let n = run_matrix_in(&pages(), |c| c.layout == Layout::Dense);
    eprintln!("pages, dense: {n} comparisons");
}

/// The sparse layout and the baseline over the same parse-order numbering.
#[test]
fn sparse_segments_merge_row_granular() {
    let n = run_matrix_in(&pages(), |c| c.layout != Layout::Dense);
    eprintln!("pages, sparse and baseline: {n} comparisons");
}

/// A pending `size` insert on part 3 blocks pruning on `size`, the first
/// restricted column of the page fixture's third query; `weight`, whose
/// zone map excludes part 100's second weight, must still not rule that
/// page out, because the base exception binds one of its rows. The engine
/// cells of every history, so with and without the insert pending.
#[test]
fn a_blocked_first_column_keeps_a_base_exception_on_the_second() {
    let all = pages();
    let input = Input {
        queries: vec![all.queries[2].clone()],
        ..all
    };
    let rows = fresh_answer(&input);
    assert_eq!(rows.len(), 2, "the exception binds one row: {rows:?}");
    assert!(rows[1][0].contains("part100"), "{rows:?}");
    assert!(input
        .writes
        .inserts
        .contains(&triple(e("part3"), "size", Term::int(19))));
    let n = run_matrix_in(&input, |c| !c.facade());
    eprintln!("blocked first column: {n} comparisons");
}

/// Sort-key narrowing binary-searches a dense segment's rows by the values
/// its sort-key column stores. A subject with a second value of that
/// predicate keeps the smaller one in the column and the other as a base
/// exception; a restriction can select the exception while the stored
/// value misses it, so narrowing must not drop that row.
#[test]
fn a_base_exception_on_the_sort_key_survives_narrowing() {
    let item = |i: usize| e(format!("item{i}"));
    let mut base: Vec<TermTriple> = (0..200)
        .flat_map(|i| {
            [
                triple(item(i), "qty", Term::int((i % 50) as i64)),
                triple(item(i), "sold", Term::date(&day(365 + i))),
            ]
        })
        .collect();
    base.push(triple(item(50), "sold", Term::date("1998-06-01")));
    let q = Query::Text(format!(
        r#"PREFIX e: <{NS}> SELECT ?s ?d WHERE {{ ?s e:qty ?q . ?s e:sold ?d .
           FILTER(?d >= "1998-01-01"^^xsd:date) }}"#
    ));
    let input = input("sort-key exception", 4, base, Writes::default(), vec![q], 0);
    let rows = fresh_answer(&input);
    assert_eq!(rows.len(), 2, "item50's second date binds: {rows:?}");
    assert!(rows[1][0].contains("item50"), "{rows:?}");
    let n = run_matrix(&input);
    eprintln!("sort-key exception: {n} comparisons");
}

/// Generated queries reach the two exceptions a page decision can drop
/// (`paged_graph`: items over two zone-map pages): a filter on the dense
/// segment's sort key that selects a subject's second `date` of another
/// type — sort-key narrowing reads only the stored dates and must give up —
/// and one on `qty` whose constant only a base exception matches — the
/// page's zone map misses it, and the page must still be read. One
/// generated query of each shape whose answer holds such a row, in every
/// cell.
#[test]
fn generated_filters_keep_exceptions_of_another_type() {
    let base = paged_graph();
    let graph = harness::reference::Graph::new(&base);
    let shaped = |seed, pred: &str, tag: &str| {
        let pred = format!("<{NS}{pred}>");
        let shape = |b: &Bgp| {
            let object_of = |v: &String| {
                (b.patterns.iter()).any(|[_, p, o]| *p == pred && *o == format!("?{v}"))
            };
            let another_type = |f: &Filter| match f {
                Filter::Cmp(v, Op::Eq, Rhs::Const(c)) => {
                    object_of(v) && !term_text(c).contains(tag)
                }
                _ => false,
            };
            b.filters.iter().any(another_type) && graph.answer(b, &Select::All).len() > 1
        };
        shaped_input(
            "paged graph",
            seed,
            base.clone(),
            Writes::default(),
            Vec::new(),
            1,
            shape,
        )
    };
    let sort_key = shaped(21, "date", "#date");
    let zoned = shaped(22, "qty", "#integer");
    let input = Input {
        queries: [sort_key.queries.clone(), zoned.queries].concat(),
        ..sort_key
    };
    let n = run_matrix(&input);
    eprintln!("paged graph: {n} comparisons");
}
