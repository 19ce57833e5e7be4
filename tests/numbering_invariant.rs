//! The numbering invariant of the durable pair, as a property: after any
//! sequence of bulk loads, inserts, deletes, checkpoints, synchronous and
//! background reorganizations (with writes landing mid-rebuild),
//! self-organizations, baseline and CS-table builds and reopens — every
//! caller of the one builder — **the committed snapshot's dictionary
//! pools followed by the log's dictionary appends are the live dictionary,
//! entry for entry, and every logged OID resolves under them** — the pair on
//! disk is always in the one numbering the live store hands out. Whoever
//! renumbers (a reorganization, a self-organization, recovery's rebuild)
//! must have committed a new pair; a log that outlived its numbering would
//! show up here as an entry under the wrong index or an OID past a pool.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use sordf::{Database, Error, SyncPolicy};
use sordf_model::{DictPool, Dictionary, Term, TermTriple};
use sordf_storage::{Manifest, StoreSnapshot, WalWriter};

#[derive(Debug, Clone)]
enum Op {
    Load(Vec<TermTriple>),
    Insert(Vec<TermTriple>),
    DeleteTriples(Vec<TermTriple>),
    DeleteSubject(u32),
    Checkpoint,
    ReorganizeNow,
    /// `reorganize_async` with this batch inserted while it runs.
    ReorganizeAsync(Vec<TermTriple>),
    SelfOrganize,
    BuildBaseline,
    BuildCsTables,
    Reopen,
}

fn subject(i: u32) -> Term {
    if i % 7 == 3 {
        Term::blank(format!("b{i}"))
    } else {
        Term::iri(format!("http://n/s{i}"))
    }
}

fn arb_triple() -> impl Strategy<Value = TermTriple> {
    let object = prop_oneof![
        (0u32..30).prop_map(|i| Term::iri(format!("http://n/o{i}"))),
        (0u32..40).prop_map(|i| Term::str(format!("label {i:02}"))),
        (0i64..50).prop_map(Term::int),
        (0u32..30).prop_map(subject),
    ];
    (0u32..30, 0u32..4, object)
        .prop_map(|(s, p, o)| TermTriple::new(subject(s), Term::iri(format!("http://n/p{p}")), o))
}

fn arb_batch() -> impl Strategy<Value = Vec<TermTriple>> {
    proptest::collection::vec(arb_triple(), 1..12)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_batch().prop_map(Op::Load),
        arb_batch().prop_map(Op::Insert),
        arb_batch().prop_map(Op::Insert),
        arb_batch().prop_map(Op::DeleteTriples),
        (0u32..30).prop_map(Op::DeleteSubject),
        (0u32..2).prop_map(|_| Op::Checkpoint),
        (0u32..2).prop_map(|_| Op::ReorganizeNow),
        arb_batch().prop_map(Op::ReorganizeAsync),
        (0u32..2).prop_map(|_| Op::SelfOrganize),
        (0u32..2).prop_map(|_| Op::BuildBaseline),
        (0u32..2).prop_map(|_| Op::BuildCsTables),
        (0u32..2).prop_map(|_| Op::Reopen),
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — unique temp names only.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sordf-numbering-{tag}-{}-{n}", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pool(dict: &Dictionary, pool: DictPool) -> Vec<String> {
    let mut out = Vec::new();
    dict.try_for_each_entry(pool, |s| {
        out.push(s.to_string());
        Ok::<(), ()>(())
    })
    .unwrap();
    out
}

/// Read the committed pair back the way recovery does and hold it against
/// the live dictionary.
fn assert_pair_is_in_the_live_numbering(dir: &Path, db: &Database, after: &str) {
    let m = Manifest::read(dir).unwrap().expect("a committed pair");
    let snap = StoreSnapshot::read_from(&Manifest::snap_path(dir, m.snap_file)).unwrap();
    // A copy: the reader truncates torn tails, the live log is not ours.
    let copy = dir.join("wal.copy-under-test");
    std::fs::copy(Manifest::wal_path(dir, m.wal_file), &copy).unwrap();
    // The reader itself rejects appends that do not start where the pool
    // ends and OIDs that do not resolve under the pools so far.
    let (_, records) = WalWriter::open_recover(&copy, snap.dict.pool_counts())
        .unwrap_or_else(|e| panic!("after {after}: the log does not follow the snapshot: {e}"));
    std::fs::remove_file(&copy).unwrap();
    if let Some(first) = records.first() {
        assert_eq!(first.seq, m.base_seq + 1, "after {after}");
    }
    for rec in &records {
        rec.append_to(&snap.dict)
            .unwrap_or_else(|e| panic!("after {after}: {e}"));
    }
    let live = db.dict();
    for p in DictPool::ALL {
        assert_eq!(
            pool(&snap.dict, p),
            pool(&live, p),
            "after {after}: snapshot {p:?} + log appends are not the live pool"
        );
    }
}

fn run(ops: Vec<Op>) {
    let dir = temp_dir("case");
    let _c = Cleanup(dir.clone());
    let mut db = Database::create_durable(&dir, SyncPolicy::Never).unwrap();
    // A store that refuses an operation in its current state (nothing built
    // yet, a rebuild with pending writes) is not what is under test.
    let tolerate = |r: Result<(), Error>| match r {
        Ok(()) | Err(Error::State(_)) => {}
        Err(e) => panic!("{e}"),
    };
    for (i, op) in ops.into_iter().enumerate() {
        let label = format!("op {i} {op:?}");
        match op {
            Op::Load(b) => tolerate(db.load_terms(&b).map(|_| ())),
            Op::Insert(b) => tolerate(db.insert_terms(&b).map(|_| ())),
            Op::DeleteTriples(b) => tolerate(db.delete_triples(&b).map(|_| ())),
            Op::DeleteSubject(s) => tolerate(
                db.delete_matching(Some(&subject(s)), None, None)
                    .map(|_| ()),
            ),
            Op::Checkpoint => tolerate(db.checkpoint()),
            Op::ReorganizeNow => tolerate(db.reorganize_now()),
            Op::ReorganizeAsync(b) => match db.reorganize_async() {
                Ok(rebuild) => {
                    tolerate(db.insert_terms(&b).map(|_| ()));
                    tolerate(rebuild.wait().map(|_| ()));
                }
                Err(e) => tolerate(Err(e)),
            },
            Op::SelfOrganize => tolerate(db.self_organize().map(|_| ())),
            Op::BuildBaseline => tolerate(db.build_baseline()),
            Op::BuildCsTables => tolerate(db.build_cs_tables()),
            Op::Reopen => {
                drop(db);
                db = Database::open(&dir).unwrap();
            }
        }
        assert_pair_is_in_the_live_numbering(&dir, &db, &label);
        db.validate_invariants();
    }
    // And the pair recovers to what the store holds.
    let want = db.n_triples();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.n_triples(), want);
    assert_pair_is_in_the_live_numbering(&dir, &db, "the final reopen");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_committed_pair_is_always_in_the_live_numbering(
        ops in proptest::collection::vec(arb_op(), 1..14)
    ) {
        run(ops);
    }
}

/// The shapes the generator reaches only by luck, spelled out: a swap with
/// catch-up writes that intern new terms — one that renumbers, one over
/// parse-order layouts that does not — a load on top of an organized store,
/// recovery of each, twice over.
#[test]
fn renumbering_paths_each_commit_their_own_pair() {
    let t = |s: u32, p: u32, o: Term| {
        TermTriple::new(subject(s), Term::iri(format!("http://n/p{p}")), o)
    };
    let base: Vec<TermTriple> = (0..20)
        .flat_map(|s| {
            [
                t(s, 0, Term::int(s as i64)),
                t(s, 1, Term::str(format!("label {s:02}"))),
            ]
        })
        .collect();
    let fresh = |k: u32| {
        vec![
            t(100 + k, 0, Term::int(1)),
            t(100 + k, 1, Term::str(format!("new {k}"))),
        ]
    };
    run(vec![
        Op::Load(base.clone()),
        Op::SelfOrganize,
        Op::Insert(fresh(0)),
        Op::ReorganizeAsync(fresh(1)),
        Op::Reopen,
        Op::Insert(fresh(2)),
        Op::DeleteTriples(fresh(0)),
        Op::Reopen,
        Op::Reopen,
        Op::Load(fresh(3)),
        Op::BuildCsTables,
        Op::BuildBaseline,
        Op::Insert(fresh(4)),
        Op::ReorganizeAsync(fresh(5)),
        Op::Reopen,
        Op::SelfOrganize,
        Op::ReorganizeNow,
        Op::Checkpoint,
        Op::DeleteSubject(3),
        Op::Reopen,
    ]);
}
