//! The cached current [`DeltaView`](sordf_storage::DeltaView) is maintained
//! by ordered splices — an insert run merges in, a delete batch closes up
//! the equal-ranges it kills and opens gaps for the tombstones it adds. For
//! arbitrary scripts of inserts and deletes it must equal
//! what `view_at(current)` rebuilds from the runs and tombstones from
//! scratch, after every step, and every historical snapshot must keep
//! answering what it answered when it was current.

use proptest::prelude::*;
use sordf_model::{Oid, Triple};
use sordf_storage::{DeltaStore, DeltaView};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Triple>),
    Delete(Vec<Triple>),
}

/// Triples from a small domain, so that scripts keep hitting the same
/// triples: duplicates inside a run, deletes of delta inserts, of base-only
/// triples and of already tombstoned ones, re-inserts after deletes.
fn triple() -> impl Strategy<Value = Triple> {
    (0u64..6, 0u64..3, 0u64..3)
        .prop_map(|(s, p, o)| Triple::new(Oid::iri(s), Oid::iri(10 + p), Oid::iri(20 + o)))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(triple(), 1..8).prop_map(Op::Insert),
        proptest::collection::vec(triple(), 1..8).prop_map(Op::Insert),
        proptest::collection::vec(triple(), 1..6).prop_map(Op::Delete),
        proptest::collection::vec(triple(), 1..6).prop_map(Op::Delete),
    ]
}

fn assert_same(a: &DeltaView, b: &DeltaView, what: &str) {
    assert_eq!(a.seq(), b.seq(), "{what}: sequence");
    assert_eq!(a.inserts(), b.inserts(), "{what}: visible inserts");
    assert_eq!(a.tombstones(), b.tombstones(), "{what}: tombstones");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn incremental_view_equals_rebuild(script in proptest::collection::vec(op(), 1..24)) {
        let mut store = DeltaStore::new();
        // (snapshot, the view that was current at it).
        let mut history = Vec::new();
        for op in script {
            match op {
                Op::Insert(batch) => {
                    let _ = store.insert_run(batch);
                }
                Op::Delete(batch) => {
                    let _ = store.delete(&batch);
                }
            }
            store.debug_validate();
            let rebuilt = store.view_at(store.snapshot());
            match store.current_view() {
                Some(cached) => assert_same(cached, &rebuilt, "cached vs rebuilt"),
                None => prop_assert!(rebuilt.is_empty()),
            }
            // The list-only view answers membership like the lists say.
            for t in rebuilt.tombstones() {
                prop_assert!(rebuilt.is_deleted(*t));
                prop_assert!(rebuilt.tombstones_for(t.p, None).contains(t));
            }
            prop_assert!(rebuilt.tombstones().windows(2).all(|w| w[0].key_pso() < w[1].key_pso()));
            prop_assert!(rebuilt.inserts().windows(2).all(|w| w[0].key_pso() <= w[1].key_pso()));
            for (snap, then) in &history {
                assert_same(&store.view_at(*snap), then, "historical snapshot");
            }
            history.push((store.snapshot(), rebuilt));
        }
    }
}
