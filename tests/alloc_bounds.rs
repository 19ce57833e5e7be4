//! Allocation bounds, counted by a global allocator that wraps the system
//! one: every block it hands out, the bytes live, and the most bytes live
//! at once since the last reset.
//!
//! * Serializing a result writes each value's text from the dictionary
//!   straight into the response body: a 1,500-row string column costs a
//!   handful of blocks for the body and one scratch buffer, not one or
//!   more per value.
//! * The peak transient of a rebuild, a checkpoint and an open — the heap
//!   they hold at once above what was live when they started — per triple
//!   of the store, at RDF-H sf 0.001. The bounds are the numbers measured
//!   when this test was written plus a margin of a half; lower them as the
//!   rebuild streams more of its base.
//!
//! The two tests take one lock, so neither counts the other's blocks.

use parking_lot::Mutex;
use sordf::{Database, QueryRequest, SyncPolicy};
use sordf_model::{Term, TermTriple};
use sordf_rdfh::{generate, RdfhConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grown(bytes: usize) {
    // ordering: Relaxed — counters only; the test reads them after the
    // measured call returned on its own thread.
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrunk(bytes: usize) {
    // ordering: Relaxed — see `grown`.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrunk(layout.size());
            grown(new_size);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Blocks handed out by `f`, and the peak bytes it held at once above what
/// was live when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    // ordering: Relaxed — see `grown`.
    let (blocks, live) = (BLOCKS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    let out = f();
    let blocks = BLOCKS.load(Ordering::Relaxed) - blocks;
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(live);
    (out, blocks, peak)
}

#[test]
fn serializing_a_string_column_allocates_per_body_not_per_value() {
    let _one = ONE_AT_A_TIME.lock();
    let n = 1_500;
    let triples: Vec<TermTriple> = (0..n)
        .map(|i| {
            TermTriple::new(
                Term::iri(format!("http://e/c{i}")),
                Term::iri("http://e/name"),
                Term::str(format!("Customer#{i:09}")),
            )
        })
        .collect();
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&triples).unwrap();
    db.self_organize().unwrap();
    let resp = db
        .execute(&QueryRequest::sparql(
            "SELECT ?n WHERE { ?c <http://e/name> ?n }",
        ))
        .unwrap();
    assert_eq!(resp.results.len(), n);
    let (json, json_blocks, _) = measure(|| sordf_server::render_json(&resp, false));
    let (tsv, tsv_blocks, _) = measure(|| sordf_server::render_tsv(&resp));
    assert!(json.body.len() > 20 * n && tsv.body.len() > 18 * n);
    eprintln!("{n} string values: JSON {json_blocks} blocks, TSV {tsv_blocks} blocks");
    for (what, blocks) in [("JSON", json_blocks), ("TSV", tsv_blocks)] {
        assert!(
            blocks * 50 < n,
            "{what}: {blocks} blocks for {n} values (bound: one per 50)"
        );
    }
}

#[test]
fn rebuild_checkpoint_and_open_stay_within_their_peak_transients() {
    let _one = ONE_AT_A_TIME.lock();
    let data = generate(&RdfhConfig::new(0.001));
    let dir = std::env::temp_dir().join(format!("sordf-alloc-bounds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::create_durable(&dir, SyncPolicy::Never).unwrap();
    db.load_terms(&data.triples).unwrap();
    let per_triple = |peak: usize| peak as f64 / data.triples.len() as f64;

    let (organized, _, organize) = measure(|| db.self_organize());
    organized.unwrap();
    // Five percent more, pending in the delta: the first twentieth of the
    // load again, under new subjects.
    let extra: Vec<TermTriple> = data.triples[..data.triples.len() / 20]
        .iter()
        .map(|t| {
            let s =
                t.s.as_iri()
                    .map_or(t.s.clone(), |s| Term::iri(format!("{s}/new")));
            TermTriple::new(s, t.p.clone(), t.o.clone())
        })
        .collect();
    db.insert_terms(&extra).unwrap();
    let (checkpointed, _, checkpoint) = measure(|| db.checkpoint());
    checkpointed.unwrap();
    let (reorganized, _, reorganize) = measure(|| db.reorganize_now());
    reorganized.unwrap();
    drop(db);
    let (opened, _, open) = measure(|| Database::open(&dir));
    drop(opened.unwrap());
    let _ = std::fs::remove_dir_all(&dir);

    // Bytes a triple above the live heap; the bounds are 1.5x what this
    // test measured when it was written (see the module docs).
    let measured = [
        ("self_organize", per_triple(organize), 1.5 * 44.5),
        ("checkpoint", per_triple(checkpoint), 1.5 * 76.7),
        ("reorganize_now", per_triple(reorganize), 1.5 * 77.2),
        ("open", per_triple(open), 1.5 * 60.9),
    ];
    for (call, got, bound) in measured {
        eprintln!("{call}: peak transient {got:.1} B a triple (bound {bound:.1})");
    }
    for (call, got, bound) in measured {
        assert!(got < bound, "{call}: {got:.1} B a triple, bound {bound:.1}");
    }
}
