//! A database that lives — inserts, tombstones, re-inserts, a snapshot
//! taken before the tombstones, `reorganize_now`, a durable reopen — answers
//! every RDF-H catalog query exactly like a fresh bulk load of the same
//! logical triples: the facade cells of the correctness matrix (`harness`)
//! over RDF-H at sf 0.0001, every layout, executor, scheme, zone map
//! setting and projection (its engine cells are `matrix`'s). Two fifths of
//! the subjects arrive as inserts, so the drift is real: the default
//! reorganization policy fires on it, and the reorganized store answers
//! alike too.
//! The facade asserts that every tombstone hits and the triple count after
//! each history, and validates the store's invariants after the writes and
//! after each reorganization or reopen.

mod harness;

use harness::*;
use sordf::ReorgPolicy;
use sordf_model::TermTriple;

/// Deterministic subject bucketing (FNV-1a over the subject's debug form).
fn subject_bucket(t: &TermTriple, buckets: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in format!("{:?}", t.s).as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h % buckets
}

/// RDF-H whose subjects of two buckets in five (B) are inserted after the
/// bulk load of the rest (A), beside the generated writes — more than the
/// default policy's 4 096 pending writes at this scale; every 13th triple
/// of A and every 7th of B is tombstoned, every fifth of those A
/// tombstones re-inserted.
fn drifted_rdfh() -> Input {
    let all = rdfh();
    let (b, a): (Vec<TermTriple>, Vec<TermTriple>) = all
        .base
        .iter()
        .cloned()
        .partition(|t| subject_bucket(t, 5) < 2);
    assert!(!a.is_empty() && !b.is_empty());
    let deletes: Vec<TermTriple> = a
        .iter()
        .step_by(13)
        .chain(b.iter().step_by(7))
        .cloned()
        .collect();
    let mut w = all.writes.clone();
    w.reinserts.extend(a.iter().step_by(13 * 5).cloned());
    w.inserts.extend(b);
    w.deletes.extend(deletes);
    Input {
        queries: all.queries.clone(),
        ..Input::new("rdfh sf 0.0001, two fifths inserted", all.seed, a, w)
    }
}

#[test]
fn updates_match_fresh_bulk_load() {
    let input = drifted_rdfh();
    let n = run_matrix_in(&input, |c| c.facade());
    eprintln!("rdfh through the facade: {n} comparisons");

    // The unorganized inserts dominate the irregular share; the default
    // policy fires, brings the share to the bulk-load level and collapses
    // the delta, and every answer stays the fresh bulk load's.
    let live = facade(&input, true, History::Both);
    let db = &live.db;
    let before = db.drift_stats();
    assert!(before.n_delta_inserts > 0 && before.n_tombstones > 0);
    assert!(
        before.irregular_ratio() > 0.1,
        "the pending inserts are irregular: {:.4}",
        before.irregular_ratio()
    );
    let outcome = db.maybe_reorganize(&ReorgPolicy::default()).unwrap();
    assert!(
        outcome.fired,
        "two fifths of the data pending trip the default policy"
    );
    let after = outcome.irregular_ratio_after.expect("an organized store");
    assert!(
        after < 0.01,
        "the irregular share falls from {:.4} to {after:.4}",
        before.irregular_ratio()
    );
    assert_eq!(db.drift_stats().n_delta_inserts, 0, "the delta collapsed");
    eprintln!(
        "irregular share {:.4} -> {after:.4}",
        before.irregular_ratio()
    );
    db.validate_invariants();
    let references = reference_answers(&input, History::Both);
    let cell = base_cell(true, Layout::Dense, History::Reorganized);
    for (qi, q) in input.queries.iter().enumerate() {
        let store = Store::Facade {
            db,
            layout: Layout::Dense,
            at: None,
        };
        let got = answers(&store, q, &cell, None);
        if let Err(m) = check(&got, &references[qi], qi, q) {
            panic!("after maybe_reorganize: {}", shrink(&input, &m));
        }
    }
}
