//! Delete resolution against a naive reference.
//!
//! `delete_triples` decides which targets are visible by lookups in the
//! built layout — a column cell, a side-table range, the irregular triples —
//! plus the delta view. This suite replays one script of inserts and
//! deletes — mixing every kind of target the resolver distinguishes, in
//! every home a layout gives a triple — against each layout and against a
//! model that
//! knows nothing of bases, deltas or order: a plain list of visible triples
//! scanned in full per delete. Counts must agree batch by batch, and the
//! visible set must agree at three points: with the writes pending, after
//! `reorganize_now()` folded them into a fresh sorted base, and after a
//! durable reopen rebuilt the store from its snapshot and log.

use sordf::{Database, SyncPolicy};
use sordf_model::{Term, TermTriple};
use std::path::PathBuf;

const PREDS: [&str; 5] = ["qty", "sold", "tag", "note", "odd"];

fn tt(s: &str, p: &str, o: Term) -> TermTriple {
    TermTriple::new(
        Term::iri(format!("http://ex/{s}")),
        Term::iri(format!("http://ex/{p}")),
        o,
    )
}

fn item(i: u64) -> [TermTriple; 3] {
    let s = format!("item{i}");
    [
        tt(&s, "qty", Term::int((i % 10) as i64)),
        tt(
            &s,
            "sold",
            Term::date(&format!("1996-01-{:02}", i % 28 + 1)),
        ),
        tt(&s, "tag", Term::str(format!("tag-{}", i % 7))),
    ]
}

/// Item `i`'s multi-valued `note`s (every other item has two or three): a
/// side table's values.
fn notes(i: u64) -> Vec<TermTriple> {
    let n = if i % 2 == 0 { 2 + i % 4 / 2 } else { 0 };
    (0..n)
        .map(|k| {
            tt(
                &format!("item{i}"),
                "note",
                Term::str(format!("note-{}", (i + k) % 9)),
            )
        })
        .collect()
}

/// A `qty` of another type: an exception the clustered layouts keep among
/// the irregular triples.
fn odd_qty(i: u64) -> TermTriple {
    tt(&format!("item{i}"), "qty", Term::str(format!("n/a-{i}")))
}

/// A subject no class takes, with a property of its own.
fn loner(i: u64) -> TermTriple {
    tt(&format!("loner{i}"), "odd", Term::int(i as i64))
}

/// 60 regular subjects with side-table values; item 3's `qty` and item 5's
/// `tag` are loaded twice, item 7 has a second `qty`, every tenth item a
/// `qty` of another type, and two subjects are irregular.
fn base_data() -> Vec<TermTriple> {
    let mut out: Vec<TermTriple> = (0..60).flat_map(item).collect();
    out.extend((0..60).flat_map(notes));
    out.push(item(3)[0].clone());
    out.push(item(5)[2].clone());
    out.push(tt("item7", "qty", Term::int(70)));
    out.extend((0..60).step_by(10).map(odd_qty));
    out.extend([loner(0), loner(1)]);
    out
}

/// The naive reference: every visible occurrence, in no particular order.
#[derive(Default)]
struct Model(Vec<TermTriple>);

impl Model {
    fn insert(&mut self, batch: &[TermTriple]) {
        self.0.extend_from_slice(batch);
    }

    /// RDF set semantics: every occurrence of each target goes; the count is
    /// of distinct targets that were visible.
    fn delete(&mut self, batch: &[TermTriple]) -> usize {
        let mut distinct: Vec<&TermTriple> = Vec::new();
        for t in batch {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let hit = distinct.iter().filter(|t| self.0.contains(t)).count();
        self.0.retain(|t| !batch.contains(t));
        hit
    }
}

#[derive(Clone, Copy, Debug)]
enum Layout {
    Baseline,
    CsParseOrder,
    Clustered,
}

fn build(db: &Database, layout: Layout) {
    match layout {
        Layout::Baseline => db.build_baseline().unwrap(),
        Layout::CsParseOrder => db.build_cs_tables().unwrap(),
        Layout::Clustered => {
            db.self_organize().unwrap();
        }
    }
}

/// Every visible `(s, o)` of every predicate, canonically rendered.
fn visible(db: &Database) -> Vec<Vec<String>> {
    PREDS
        .iter()
        .map(|p| {
            db.query(&format!("SELECT ?s ?o WHERE {{ ?s <http://ex/{p}> ?o . }}"))
                .unwrap_or_else(|e| panic!("scan of {p}: {e}"))
                .canonical(&db.dict())
        })
        .collect()
}

/// The store must hold exactly what the model does: the same number of
/// occurrences, and the same rows as a fresh bulk load of the model.
fn assert_matches(db: &Database, model: &Model, layout: Layout, when: &str) {
    db.validate_invariants();
    assert_eq!(
        db.n_triples(),
        model.0.len(),
        "{layout:?} {when}: visible occurrences"
    );
    let reference = Database::in_temp_dir().unwrap();
    reference.load_terms(&model.0).unwrap();
    reference.build_baseline().unwrap();
    assert_eq!(
        visible(db),
        visible(&reference),
        "{layout:?} {when}: visible set differs from the naive reference"
    );
}

fn delete(db: &Database, model: &mut Model, batch: &[TermTriple], layout: Layout, what: &str) {
    let want = model.delete(batch);
    let got = db.delete_triples(batch).unwrap();
    assert_eq!(got, want, "{layout:?}: count of {what}");
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sordf-delres-{tag}-{}", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(layout: Layout) {
    let dir = temp_dir(&format!("{layout:?}"));
    let _c = Cleanup(dir.clone());
    let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
    let mut model = Model::default();
    db.load_terms(&base_data()).unwrap();
    model.insert(&base_data());
    build(&db, layout);
    assert_matches(&db, &model, layout, "freshly built");
    if let Some(store) = db.clustered_store() {
        assert!(
            store.irregular.len() >= 8,
            "exceptions, a second value and the loners are irregular"
        );
    }

    // Targets that were never there: a term the dictionary has not seen in
    // each position, and known terms in a combination no triple has.
    let unknown = [
        tt("nobody", "qty", Term::int(1)),
        tt("item1", "never-a-predicate", Term::int(1)),
        tt("item1", "tag", Term::str("never-a-string")),
        tt("item1", "qty", Term::int(999)),
        tt("item1", "tag", Term::str("tag-6")),
    ];

    // 1. Base-resident targets, one of them twice in the batch, one of them
    //    twice in the base, in every home — a column, a side table, an
    //    exception, a second value, a loner — beside the unknowns.
    let mut batch = vec![
        item(0)[0].clone(),
        item(3)[0].clone(),
        item(9)[1].clone(),
        item(59)[2].clone(),
        item(0)[0].clone(),
        notes(2)[1].clone(),
        odd_qty(10),
        tt("item7", "qty", Term::int(70)),
        loner(1),
        tt("item4", "note", Term::str("never-a-note")),
    ];
    batch.extend_from_slice(&unknown);
    delete(&db, &mut model, &batch, layout, "base-resident + unknown");
    delete(&db, &mut model, &unknown, layout, "unknowns alone");

    // 2. A batch of new subjects lands in the delta; delete some of it,
    //    some more of the base, and what step 1 already tombstoned.
    let fresh: Vec<TermTriple> = (100..110).flat_map(item).collect();
    db.insert_terms(&fresh).unwrap();
    model.insert(&fresh);
    let batch = vec![
        item(100)[0].clone(),
        item(105)[2].clone(),
        item(20)[1].clone(),
        item(0)[0].clone(),
        item(3)[0].clone(),
        notes(2)[1].clone(),
        notes(4)[0].clone(),
        odd_qty(10),
    ];
    delete(&db, &mut model, &batch, layout, "delta + base + tombstoned");

    // 3. Deleted, then inserted again: visible again, deletable again, and
    //    after a second re-insert it stays.
    let back = [item(0)[0].clone(), item(100)[0].clone()];
    db.insert_terms(&back).unwrap();
    model.insert(&back);
    delete(&db, &mut model, &back[..1], layout, "re-inserted");
    delete(&db, &mut model, &back[..1], layout, "deleted twice");
    db.insert_terms(&back[..1]).unwrap();
    model.insert(&back[..1]);
    // The other duplicated base triple goes last, with a delta copy of it
    // on top: every occurrence, wherever it lives, counts once.
    db.insert_terms(&[item(5)[2].clone()]).unwrap();
    model.insert(&[item(5)[2].clone()]);
    delete(
        &db,
        &mut model,
        &[item(5)[2].clone()],
        layout,
        "base twice + delta once",
    );
    assert_matches(&db, &model, layout, "with the writes pending");

    // The fold: what was delta-resident is base-resident now, what was
    // tombstoned is nowhere.
    db.reorganize_now().unwrap();
    assert_matches(&db, &model, layout, "after reorganize_now");
    let batch = vec![
        item(101)[1].clone(),
        item(0)[0].clone(),
        item(30)[0].clone(),
        item(3)[0].clone(),
        item(105)[2].clone(),
        unknown[0].clone(),
        notes(6)[2].clone(),
        odd_qty(20),
        loner(0),
    ];
    delete(&db, &mut model, &batch, layout, "after the fold");
    db.insert_terms(&[item(3)[0].clone()]).unwrap();
    model.insert(&[item(3)[0].clone()]);
    assert_matches(&db, &model, layout, "after the fold, writes pending");

    // An un-checkpointed stop: the reopened store is the reorganization's
    // snapshot plus the logged tail.
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_matches(&db, &model, layout, "after Database::open");
    let batch = vec![
        item(3)[0].clone(),
        item(102)[0].clone(),
        item(40)[2].clone(),
        item(30)[0].clone(),
        unknown[2].clone(),
    ];
    delete(&db, &mut model, &batch, layout, "after the reopen");
    assert_matches(&db, &model, layout, "after the reopen, writes pending");
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_matches(&db, &model, layout, "after a checkpointed reopen");
}

#[test]
fn baseline_only() {
    run(Layout::Baseline);
}

#[test]
fn cs_parse_order() {
    run(Layout::CsParseOrder);
}

#[test]
fn clustered() {
    run(Layout::Clustered);
}
