//! One correctness matrix: every input answers every query alike in every
//! cell (the cells and comparisons are `harness`'s module docs).
//!
//! This binary runs `sordf_datagen::dirty` and the printed cases under
//! `tests/matrix_cases/`, and makes one check that is not about an answer:
//! pruning blocked per segment. The other files that include the harness run the inputs of
//! the questions they are named for: the seeded random graphs of any shape
//! in `properties`, RDF-H's engine cells in `rdfh_differential` and its
//! facade cells in `updates_differential`, the page fixture in
//! `delta_merge_differential`.

mod harness;

use harness::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sordf::{Database, Generation};
use sordf_model::{Term, TermTriple};

#[test]
fn dirty_data_agrees_in_every_cell() {
    let data = sordf_datagen::dirty(&sordf_datagen::DirtyConfig::with_irregularity(0.35, 60));
    let n = run_matrix(&input(
        "dirty data 0.35",
        2,
        data,
        Writes::default(),
        Vec::new(),
        6,
    ));
    eprintln!("dirty: {n} comparisons");
}

/// The saved inputs under `tests/matrix_cases/` (`*.case`).
fn saved() -> Vec<Input> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/matrix_cases");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "case") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push(Input::parse(
                &name,
                &std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    out
}

/// Every printed case saved under `tests/matrix_cases/` (`*.case`) runs as
/// a fixed input; and a printed input parses back to itself.
#[test]
fn printed_cases_agree_in_every_cell() {
    let generated = input(
        "random graph",
        9,
        random_graph(&mut StdRng::seed_from_u64(9)),
        Writes::default(),
        Vec::new(),
        3,
    );
    let reparsed = Input::parse("random graph", &generated.print());
    assert_eq!(reparsed, generated, "a printed case reads back as itself");
    let n: usize = saved().iter().map(run_matrix).sum();
    eprintln!("printed cases: {n} comparisons");
}

/// Pruning is blocked per segment, only where a pending insert can attach
/// to a row: brand-new subjects change nothing the class scan prunes, and a
/// `sold` insert among the items leaves the parts narrowed on their own
/// sort key while the items give narrowing up.
#[test]
fn pruning_is_blocked_per_segment_only() {
    let input = pages();
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&input.base).unwrap();
    db.self_organize().unwrap();
    let zone = r#"SELECT ?s ?b WHERE { ?s e:batch ?b . FILTER(?b >= "97"^^xsd:integer) }"#;
    let parts = r#"SELECT ?s ?w WHERE { ?s e:sold ?d . ?s e:weight ?w . FILTER(?d >= "1991-02-01"^^xsd:date) }"#;
    let stats = |q| traced(&db, Generation::Clustered, true, q).stats.unwrap();
    let (zone_before, parts_before) = (stats(zone), stats(parts));
    assert!(
        zone_before.zonemap_pages_skipped > 0,
        "the zone-map query prunes to begin with"
    );
    let fresh: Vec<TermTriple> = input
        .writes
        .inserts
        .iter()
        .filter(|t| t.s == e("item8600"))
        .cloned()
        .collect();
    assert!(!fresh.is_empty());
    db.insert_terms(&fresh).unwrap();
    let zone_after = stats(zone);
    assert_eq!(
        (zone_after.zonemap_pages_skipped, zone_after.pages_scanned),
        (zone_before.zonemap_pages_skipped, zone_before.pages_scanned),
        "inserts for brand-new subjects change nothing the class scan prunes"
    );
    db.insert_terms(&[triple(e("item8476"), "sold", Term::date("1991-03-01"))])
        .unwrap();
    let parts_after = stats(parts);
    assert!(
        parts_after.rows_scanned < (PAGE + 800) as u64,
        "the part segment stays narrowed: {parts_after:?}"
    );
    assert!(
        parts_after.rows_scanned > parts_before.rows_scanned,
        "the item segment gives narrowing up"
    );
}
