//! Crash-recovery differential suite: a durable database killed at random
//! points (and, with `--features crash_points`, at *every* labeled
//! WAL/snapshot/manifest boundary) must recover to a state that equals a
//! prefix of the write history — and the prefix must cover every write that
//! was acknowledged before the kill.
//!
//! Mechanics: the parent test re-execs its own test binary to run
//! [`child_writer_process`] against a shared directory. The child opens
//! (recovering on every respawn), organizes on first contact, then appends
//! deterministic batches — each one `insert_terms` call, so one WAL record —
//! printing `ACK <i>` only after the call returns (under
//! [`SyncPolicy::Always`] that means the record is fsync'd). Interleaved
//! `reorganize_now` and `checkpoint` calls exercise the swap and rotation
//! protocols under fire. The parent SIGKILLs the child after a ramped
//! delay, reopens the directory, and checks the invariant:
//!
//! * recovered batches form a contiguous prefix `0..k`;
//! * `k` is at least one past the highest acknowledged batch;
//! * the triple count is exactly what that prefix implies (nothing torn,
//!   nothing duplicated — replaying a `Load`/`Insert` record twice would
//!   show up here).
//!
//! Every reopen here is a rebuild from disk: an OID-level snapshot
//! (dictionary pools + raw triples) extended and folded with the OID-level
//! log behind it, the layouts built once over the result, and a fresh pair
//! committed before the handle is returned. The deterministic matrix aborts
//! the writer not only at the first hit of each label (which, for the
//! snapshot labels, is the *empty* snapshot of a fresh directory) but also
//! at later hits — inside the first checkpoint that carries data, inside a
//! rebuild's staged `snap.tmp`, inside a checkpoint taken with writes
//! pending — so a kill between a snapshot's fsync and the manifest rename
//! that would adopt it is covered for each kind of snapshot; and at every
//! label inside **recovery's own checkpoint**, where a kill must leave the
//! pair it was recovering from (or, past the rename, the fresh one)
//! recoverable. The same feature arms I/O failure points: an append that
//! meets `ENOSPC`, an fsync that fails, a recovery checkpoint that cannot
//! be written, a build whose snapshot cannot be committed (it must install
//! nothing).

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use sordf::{Database, SyncPolicy};
use sordf_model::{Term, TermTriple};

const MARKER: &str = "http://ex/recovery/marker";
const N_BATCHES: usize = 60;
/// Triples per batch besides the marker.
const FILLERS: usize = 5;
const CHILD_ENV: &str = "SORDF_RECOVERY_CHILD";

fn base_data() -> Vec<TermTriple> {
    let mut triples = Vec::new();
    for i in 0..40u64 {
        let s = format!("http://ex/item{i}");
        triples.push(TermTriple::new(
            Term::iri(s.clone()),
            Term::iri("http://ex/qty"),
            Term::int((i % 10) as i64),
        ));
        triples.push(TermTriple::new(
            Term::iri(s),
            Term::iri("http://ex/sold"),
            Term::date(&format!("1996-01-{:02}", (i % 28) + 1)),
        ));
    }
    triples
}

fn batch(i: usize) -> Vec<TermTriple> {
    // Zero-padded so no subject IRI is a prefix of another (the contiguity
    // check below matches rendered rows by substring).
    let s = format!("http://ex/recovery/b{i:04}");
    let mut out = vec![TermTriple::new(
        Term::iri(s.clone()),
        Term::iri(MARKER),
        Term::int(i as i64),
    )];
    for j in 0..FILLERS {
        out.push(TermTriple::new(
            Term::iri(s.clone()),
            Term::iri(format!("http://ex/recovery/p{j}")),
            Term::int((i * FILLERS + j) as i64),
        ));
    }
    out
}

/// Count of recovered batches, asserting they form a contiguous prefix and
/// that the store holds exactly the triples that prefix implies.
fn verify_prefix(db: &Database, min_batches: i64) -> usize {
    if db.schema().is_none() {
        // Killed before the first self_organize checkpoint committed: no
        // layouts recovered, so no batch can have been acknowledged yet.
        assert!(
            min_batches < 0,
            "acknowledged batches but no organized layout recovered"
        );
        return 0;
    }
    let rs = db
        .query(&format!("SELECT ?s ?i WHERE {{ ?s <{MARKER}> ?i . }}"))
        .expect("marker query");
    let k = rs.len();
    let rows = rs.canonical(&db.dict());
    for i in 0..k {
        let s = format!("http://ex/recovery/b{i:04}");
        assert!(
            rows.iter().any(|r| r.contains(&s)),
            "batches are not a contiguous prefix: {k} markers but batch {i} missing\n{rows:?}"
        );
    }
    assert!(
        (k as i64) > min_batches,
        "lost acknowledged writes: {} acked, only {k} batches recovered",
        min_batches + 1
    );
    assert_eq!(
        db.n_triples(),
        base_data().len() + k * (1 + FILLERS),
        "triple count disagrees with a clean prefix of {k} batches"
    );
    db.validate_invariants();
    k
}

/// The re-exec'd writer. A no-op unless [`CHILD_ENV`] points at the target
/// directory (so plain `cargo test` skips it).
#[test]
fn child_writer_process() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let dir = PathBuf::from(dir);
    let db = Database::open(&dir).expect("child open");
    if db.schema().is_none() {
        if db.n_triples() == 0 {
            db.load_terms(&base_data()).expect("child base load");
        }
        db.self_organize().expect("child organize");
        println!("ORG");
    }
    let done = db
        .query(&format!("SELECT ?s WHERE {{ ?s <{MARKER}> ?i . }}"))
        .expect("child marker query")
        .len();
    for i in done..N_BATCHES {
        db.insert_terms(&batch(i)).expect("child insert");
        // Acknowledged: under SyncPolicy::Always the WAL record is on disk.
        println!("ACK {i}");
        if i % 6 == 2 {
            db.reorganize_now().expect("child reorganize");
        }
        if i % 9 == 4 {
            db.checkpoint().expect("child checkpoint");
        }
    }
    println!("DONE");
}

enum Event {
    Ack(i64),
    Done,
    Eof,
}

/// `crash_point` is `(label, n)`: abort at the `n`-th hit of `label`.
fn spawn_child(dir: &Path, crash_point: Option<(&str, u32)>) -> (Child, mpsc::Receiver<Event>) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("child_writer_process")
        .arg("--exact")
        .arg("--nocapture")
        .env(CHILD_ENV, dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match crash_point {
        Some((label, hit)) => cmd
            .env("SORDF_CRASH_POINT", label)
            .env("SORDF_CRASH_HITS", hit.to_string()),
        None => cmd
            .env_remove("SORDF_CRASH_POINT")
            .env_remove("SORDF_CRASH_HITS"),
    };
    let mut child = cmd.spawn().expect("spawn child");
    let stdout = child.stdout.take().expect("child stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let reader = std::io::BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if let Some(n) = line.strip_prefix("ACK ") {
                if let Ok(n) = n.trim().parse::<i64>() {
                    let _ = tx.send(Event::Ack(n));
                }
            } else if line.trim() == "DONE" {
                let _ = tx.send(Event::Done);
            }
        }
        let _ = tx.send(Event::Eof);
    });
    (child, rx)
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — unique temp names only.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sordf-recovery-{tag}-{}-{n}", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The crash loop: SIGKILL the writer at pseudo-random (schedule-jittered)
/// points, verifying the prefix invariant after every kill. A killed
/// writer is respawned and resumes from the recovered prefix; once it
/// completes, the directory is wiped and a fresh cycle starts, until
/// enough mid-run kills have been witnessed. The delay ramps slowly so a
/// completion (and thus termination) is guaranteed.
#[test]
fn crash_loop_loses_no_acknowledged_write() {
    let dir = temp_dir("loop");
    let _c = Cleanup(dir.clone());
    let mut max_ack: i64 = -1;
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut kills = 0u32;
    let mut completions = 0u32;
    // Adaptive kill window: a completion means the kill landed too late
    // (shrink it), a mid-run kill means it landed (grow it back toward a
    // completion) — so the schedule brackets the child's actual runtime at
    // any build speed. A fixed ramp cannot: release children finish in
    // single-digit milliseconds, debug children in hundreds.
    let mut window_us: u64 = 20_000;
    for iter in 0u64.. {
        assert!(
            iter < 150,
            "crash loop made no progress ({kills} kills, {completions} completions)"
        );
        if kills >= 5 && completions >= 1 {
            break;
        }
        let (mut child, rx) = spawn_child(&dir, None);
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let delay = window_us / 2 + (lcg >> 33) % window_us.max(1);
        std::thread::sleep(Duration::from_micros(delay));
        child.kill().expect("kill child");
        child.wait().expect("reap child");
        let mut done = false;
        // Drain everything the child got out before the kill.
        while let Ok(ev) = rx.recv_timeout(Duration::from_secs(10)) {
            match ev {
                Event::Ack(n) => max_ack = max_ack.max(n),
                Event::Done => done = true,
                Event::Eof => break,
            }
        }
        let db = Database::open(&dir).expect("parent reopen");
        let k = verify_prefix(&db, max_ack);
        drop(db);
        if done {
            assert_eq!(k, N_BATCHES, "DONE printed but batches missing");
            completions += 1;
            window_us = (window_us / 3).max(500);
            // Fresh cycle: wipe so the next writer starts from zero (a
            // resumed writer has ever less work and outruns the kill).
            std::fs::remove_dir_all(&dir).expect("wipe between cycles");
            max_ack = -1;
        } else {
            // The next spawn resumes from k; keep the floor monotone.
            max_ack = max_ack.max(k as i64 - 1);
            kills += 1;
            window_us = window_us.saturating_mul(3) / 2;
        }
    }
    assert!(
        kills >= 5 && completions >= 1,
        "kills={kills} completions={completions}"
    );
}

/// Later hits of the snapshot-path labels. In the child's script the first
/// `snap.*` / `manifest.*` hit is `init_durable` committing the empty
/// snapshot; the second is the checkpoint `self_organize` commits (the
/// first snapshot holding a dictionary and triples); the third is the
/// staged `snap.tmp` of the first `reorganize_now` (adopted by the swap's
/// manifest rename); the fourth an explicit checkpoint with inserts
/// pending. `checkpoint.*` and `swap.*` count from their first data-bearing
/// commit, so their second hit is a later round of the same protocol.
#[cfg(feature = "crash_points")]
const LATER_HITS: &[(&str, u32)] = &[
    ("snap.pre_sync", 2),
    ("snap.pre_sync", 3),
    ("snap.pre_sync", 4),
    ("snap.post_sync", 2),
    ("snap.post_sync", 3),
    ("snap.post_sync", 4),
    ("manifest.pre_rename", 2),
    ("manifest.pre_rename", 3),
    ("checkpoint.pre_manifest", 2),
    ("swap.pre_manifest", 2),
];

/// Deterministic fault coverage: abort the writer at every labeled crash
/// point (WAL append/sync, snapshot sync, manifest rename, checkpoint and
/// swap commit) — first hit of each, plus [`LATER_HITS`] — then recover and
/// verify, then let it run to completion. Needs the `crash_points` feature,
/// which compiles the labels in.
#[cfg(feature = "crash_points")]
#[test]
fn every_crash_point_recovers() {
    let cases = sordf::CRASH_POINTS
        .iter()
        .map(|&label| (label, 1))
        .chain(LATER_HITS.iter().copied());
    for (label, hit) in cases {
        let dir = temp_dir(&format!("{}-{hit}", label.replace('.', "-")));
        let _c = Cleanup(dir.clone());
        let (mut child, rx) = spawn_child(&dir, Some((label, hit)));
        let status = child.wait().expect("reap child");
        let mut max_ack: i64 = -1;
        while let Ok(ev) = rx.recv_timeout(Duration::from_secs(60)) {
            match ev {
                Event::Ack(n) => max_ack = max_ack.max(n),
                Event::Done | Event::Eof => break,
            }
        }
        assert!(
            !status.success(),
            "hit {hit} of crash point {label} never came (writer exited cleanly)"
        );
        {
            let db = Database::open(&dir)
                .unwrap_or_else(|e| panic!("recovery after abort at {label} hit {hit}: {e}"));
            verify_prefix(&db, max_ack);
        }
        finish_cleanly(&dir, max_ack, &format!("{label} hit {hit}"));
    }
}

/// A clean rerun of the writer must finish the job from wherever an abort
/// left it.
#[cfg(feature = "crash_points")]
fn finish_cleanly(dir: &Path, max_ack: i64, after: &str) {
    let (mut child, rx) = spawn_child(dir, None);
    let status = child.wait().expect("reap clean child");
    assert!(status.success(), "clean rerun after {after} failed");
    drop(rx);
    let db = Database::open(dir).expect("final open");
    let k = verify_prefix(&db, max_ack);
    assert_eq!(
        k, N_BATCHES,
        "clean rerun after {after} left batches missing"
    );
}

/// An organized durable store holding `n` acknowledged batches, all of them
/// in the log behind the `self_organize` checkpoint, stopped without a
/// checkpoint: what the next open has to recover.
#[cfg(feature = "crash_points")]
fn stopped_store(dir: &Path, n: usize) {
    let db = Database::create_durable(dir, SyncPolicy::Always).unwrap();
    db.load_terms(&base_data()).unwrap();
    db.self_organize().unwrap();
    for i in 0..n {
        db.insert_terms(&batch(i)).unwrap();
    }
}

/// Recovery commits a fresh pair before it returns, so it has crash points
/// of its own: every label its checkpoint passes. A reopening process
/// killed there must leave a directory the next open recovers in full —
/// from the *old* pair (untouched: recovery only reads it) up to the
/// manifest rename, from the fresh pair after it.
#[cfg(feature = "crash_points")]
#[test]
fn a_crash_inside_recoverys_checkpoint_leaves_a_recoverable_pair() {
    use sordf_storage::Manifest;
    const ACKED: usize = 7;
    // (label, does the fresh pair's manifest survive the kill?)
    let cases = [
        ("snap.pre_sync", false),
        ("snap.post_sync", false),
        ("checkpoint.pre_manifest", false),
        ("manifest.pre_rename", false),
        ("manifest.post_rename", true),
        ("checkpoint.post_manifest", true),
    ];
    for (label, committed) in cases {
        let dir = temp_dir(&format!("recovery-{}", label.replace('.', "-")));
        let _c = Cleanup(dir.clone());
        stopped_store(&dir, ACKED);
        let old = Manifest::read(&dir).unwrap().unwrap();
        // The child's first act is `Database::open`: in an existing
        // directory the first hit of each label is recovery's checkpoint.
        let (mut child, rx) = spawn_child(&dir, Some((label, 1)));
        let status = child.wait().expect("reap child");
        assert!(!status.success(), "{label} never came inside recovery");
        assert!(
            !matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(Event::Ack(_))),
            "{label}: the child wrote before recovery's checkpoint"
        );
        let now = Manifest::read(&dir).unwrap().unwrap();
        if committed {
            assert_eq!(now.snap_file, old.snap_file + 1, "{label}: fresh pair");
        } else {
            assert_eq!(now, old, "{label}: the old pair is still the live one");
        }
        {
            let db = Database::open(&dir)
                .unwrap_or_else(|e| panic!("reopen after abort at {label} in recovery: {e}"));
            assert_eq!(verify_prefix(&db, ACKED as i64 - 1), ACKED, "{label}");
        }
        finish_cleanly(&dir, ACKED as i64 - 1, &format!("{label} inside recovery"));
    }
}

/// `ENOSPC` on a log append and a failing log fsync: the write is rejected,
/// durability is disabled (the store stays usable in memory), and the
/// directory recovers to a prefix that covers every acknowledged batch.
#[cfg(feature = "crash_points")]
#[test]
fn a_failed_append_or_sync_rejects_the_write_and_disables_durability() {
    use sordf_columnar::fault::arm_io_fault;
    const ENOSPC: i32 = 28;
    const EIO: i32 = 5;
    for (label, errno) in [("wal.append", ENOSPC), ("wal.sync", EIO)] {
        let dir = temp_dir(&format!("iofault-{}", label.replace('.', "-")));
        let _c = Cleanup(dir.clone());
        stopped_store(&dir, 0);
        let markers = |db: &Database| {
            db.query(&format!("SELECT ?s WHERE {{ ?s <{MARKER}> ?i . }}"))
                .unwrap()
                .len()
        };
        {
            let db = Database::open(&dir).unwrap();
            db.insert_terms(&batch(0)).unwrap();
            db.insert_terms(&batch(1)).unwrap();
            arm_io_fault(&dir, label, errno, 1);
            let err = db.insert_terms(&batch(2)).expect_err(label);
            assert!(matches!(err, sordf::Error::Io(_)), "{label}: {err}");
            assert_eq!(markers(&db), 2, "{label}: a rejected write is not applied");
            assert!(!db.is_durable(), "{label}: durability is disabled");
            // The store stays usable; what it accepts now is not logged.
            db.insert_terms(&batch(2)).unwrap();
            assert_eq!(markers(&db), 3);
        }
        // Batches 0 and 1 were acknowledged by a durable store. The
        // rejected record never reached the file (`wal.append`) or reached
        // it unacknowledged (`wal.sync`): either way a prefix.
        let db = Database::open(&dir).unwrap();
        let k = verify_prefix(&db, 1);
        assert!(k <= 3, "{label}: {k} batches recovered");
        if label == "wal.append" {
            assert_eq!(k, 2, "nothing of the failed append is in the log");
        }
    }
}

/// A `MANIFEST` rename that succeeded, followed by a directory fsync that
/// failed (`EIO`): the new pair is live in the directory, but a crash may
/// still bring the old one back, so the store can log into neither. The
/// build fails and durability is disabled: the store stays usable in
/// memory, and a write it acknowledges from then on is held in memory only
/// — it is logged nowhere and is lost on reopen, as a write whose log
/// append failed is. A reopen, from whichever pair the directory holds,
/// answers like exactly the writes acknowledged before the failure.
#[cfg(feature = "crash_points")]
#[test]
fn a_failed_directory_sync_after_the_manifest_rename_disables_durability() {
    use sordf_columnar::fault::arm_io_fault;
    use sordf_storage::Manifest;
    const EIO: i32 = 5;
    let dir = temp_dir("iofault-manifest-dir-sync");
    let _c = Cleanup(dir.clone());
    {
        let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
        db.load_terms(&base_data()).unwrap();
        for i in 0..3 {
            db.insert_terms(&batch(i)).unwrap();
        }
        let before = Manifest::read(&dir).unwrap().unwrap();
        arm_io_fault(&dir, "manifest.dir_sync", EIO, 1);
        let err = db
            .self_organize()
            .expect_err("the directory fsync was told to fail");
        assert!(matches!(err, sordf::Error::Io(_)), "{err}");
        assert!(!db.is_durable(), "durability is disabled after the rename");
        let after = Manifest::read(&dir).unwrap().unwrap();
        assert_eq!(after.snap_file, before.snap_file + 1, "the rename happened");
        // What the store accepts now is acknowledged but not logged, into
        // either pair.
        db.insert_terms(&batch(3)).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap().unwrap(), after);
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(verify_prefix(&db, 2), 3, "the batches acknowledged durably");
    // Batch 2 was logged before the failure, batch 3 only held in memory.
    for (i, rows) in [(2, 1), (3, 0)] {
        for p in [MARKER, "http://ex/recovery/p0"] {
            let q = format!("SELECT ?o WHERE {{ <http://ex/recovery/b{i:04}> <{p}> ?o . }}");
            assert_eq!(db.query(&q).unwrap().len(), rows, "batch {i}, <{p}>");
        }
    }
    assert!(db.is_durable());
}

/// The same failures inside recovery's checkpoint fail that `open` and
/// nothing else: the pair it was recovering from is still the live one,
/// and the next open recovers every acknowledged write from it.
#[cfg(feature = "crash_points")]
#[test]
fn a_failed_recovery_checkpoint_fails_the_open_and_keeps_the_old_pair() {
    use sordf_columnar::fault::arm_io_fault;
    use sordf_storage::Manifest;
    for (label, errno) in [("snap.write", 28), ("snap.sync", 5)] {
        let dir = temp_dir(&format!("iofault-{}", label.replace('.', "-")));
        let _c = Cleanup(dir.clone());
        stopped_store(&dir, 4);
        let old = Manifest::read(&dir).unwrap().unwrap();
        arm_io_fault(&dir, label, errno, 1);
        let err = Database::open(&dir).err().expect(label);
        assert!(matches!(err, sordf::Error::Io(_)), "{label}: {err}");
        assert_eq!(Manifest::read(&dir).unwrap().unwrap(), old, "{label}");
        let db = Database::open(&dir).unwrap();
        assert_eq!(verify_prefix(&db, 3), 4, "{label}");
        assert!(db.is_durable());
    }
}

/// A build publishes by committing its pair *before* it installs the
/// generation. One whose snapshot cannot be written (`ENOSPC`) or synced
/// (`EIO`) fails and installs nothing: the store stays unorganized, in the
/// numbering of the pair on disk, so a write acknowledged after the failure
/// is logged in that numbering and recovers as itself. (A store that
/// installed first would log it renumbered into the old pair's log, and it
/// would read back as some other triple.) A failing `build_baseline` builds
/// no baseline.
#[cfg(feature = "crash_points")]
#[test]
fn a_failed_publish_commit_installs_nothing() {
    use sordf::{Generation, QueryRequest};
    use sordf_columnar::fault::arm_io_fault;
    use sordf_storage::Manifest;
    let queries = [
        "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . }",
        "SELECT ?s ?d WHERE { ?s <http://ex/sold> ?d . }",
    ];
    let answers = |db: &Database| queries.map(|q| db.query(q).unwrap().canonical(&db.dict()));
    let late = TermTriple::new(
        Term::iri("http://ex/new1"),
        Term::iri("http://ex/qty"),
        Term::int(99),
    );
    let want = {
        let db = Database::in_temp_dir().unwrap();
        db.load_terms(&base_data()).unwrap();
        db.insert_terms(std::slice::from_ref(&late)).unwrap();
        db.self_organize().unwrap();
        answers(&db)
    };
    assert_eq!(want[0].len(), 41);
    for (label, errno) in [("snap.write", 28), ("snap.sync", 5)] {
        let dir = temp_dir(&format!("publish-{}", label.replace('.', "-")));
        let _c = Cleanup(dir.clone());
        {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&base_data()).unwrap();
            let before = Manifest::read(&dir).unwrap().unwrap();
            arm_io_fault(&dir, label, errno, 1);
            let err = db.self_organize().expect_err(label);
            assert!(matches!(err, sordf::Error::Io(_)), "{label}: {err}");
            assert!(db.schema().is_none(), "{label}: nothing was installed");
            assert_eq!(Manifest::read(&dir).unwrap().unwrap(), before, "{label}");
            assert!(
                db.is_durable(),
                "{label}: a failed publish keeps durability"
            );
            db.insert_terms(std::slice::from_ref(&late)).unwrap();
        }
        let db = Database::open(&dir).unwrap();
        db.self_organize().unwrap();
        assert_eq!(answers(&db), want, "{label}: not the acknowledged set");
    }
    let dir = temp_dir("publish-baseline");
    let _c = Cleanup(dir.clone());
    let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
    db.load_terms(&base_data()).unwrap();
    arm_io_fault(&dir, "snap.write", 28, 1);
    let err = db
        .build_baseline()
        .expect_err("the stream was told to fail");
    assert!(matches!(err, sordf::Error::Io(_)), "{err}");
    let baseline = QueryRequest::sparql(queries[0]).generation(Generation::Baseline);
    assert!(
        matches!(db.execute(&baseline), Err(sordf::Error::State(_))),
        "a failed build_baseline left a baseline behind"
    );
    db.build_baseline().unwrap();
    assert_eq!(db.execute(&baseline).unwrap().results.len(), 40);
}

/// A checkpoint dumps the dictionary entry for entry and recovery reloads
/// it the same way: on a store whose layouts keep load-order OIDs (nothing
/// re-clusters on reopen) every term has the OID it had before the stop —
/// including terms interned by batches that were deleted again, which a
/// term-level snapshot would have forgotten and renumbered around.
#[test]
fn reopen_preserves_oid_numbering() {
    let dir = temp_dir("numbering");
    let _c = Cleanup(dir.clone());
    let mut terms: Vec<Term> = Vec::new();
    let before: Vec<_> = {
        let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
        db.load_terms(&base_data()).unwrap();
        db.build_baseline().unwrap();
        for i in 0..4 {
            db.insert_terms(&batch(i)).unwrap();
        }
        db.delete_triples(&batch(1)).unwrap();
        db.checkpoint().unwrap();
        db.insert_terms(&batch(4)).unwrap();
        for t in base_data()
            .iter()
            .step_by(7)
            .chain(&batch(1))
            .chain(&batch(3))
        {
            terms.extend([t.s.clone(), t.p.clone(), t.o.clone()]);
        }
        let dict = db.dict();
        terms.iter().map(|t| dict.term_oid(t)).collect()
    };
    assert!(before.iter().all(Option::is_some));
    let db = Database::open(&dir).unwrap();
    let dict = db.dict();
    let after: Vec<_> = terms.iter().map(|t| dict.term_oid(t)).collect();
    assert_eq!(after, before, "OIDs moved across the reopen");
    assert_eq!(
        db.n_triples(),
        base_data().len() + 4 * (1 + FILLERS),
        "batches 0, 2, 3 and 4 are live"
    );
}

/// A rebuild whose staged snapshot dies mid-way (the third frame meets
/// `ENOSPC` while the columns are being built beside it): the error
/// surfaces, the claim is released, `snap.tmp` is gone, the old generation
/// and the old pair stay live, and the next rebuild goes through.
#[cfg(feature = "crash_points")]
#[test]
fn a_snapshot_stream_that_fails_midway_abandons_the_rebuild() {
    use sordf_columnar::fault::arm_io_fault;
    use sordf_storage::Manifest;
    let dir = temp_dir("iofault-rebuild");
    let _c = Cleanup(dir.clone());
    stopped_store(&dir, 0);
    let db = Database::open(&dir).unwrap();
    for i in 0..3 {
        db.insert_terms(&batch(i)).unwrap();
    }
    let before = Manifest::read(&dir).unwrap().unwrap();
    arm_io_fault(&dir, "snap.write", 28, 3);
    let err = db
        .reorganize_now()
        .expect_err("the stream was told to fail");
    assert!(matches!(err, sordf::Error::Io(_)), "{err}");
    assert!(!db.reorg_in_flight(), "claim released");
    assert!(!dir.join("snap.tmp").exists(), "staging file removed");
    assert_eq!(Manifest::read(&dir).unwrap().unwrap(), before);
    assert!(db.is_durable(), "a failed rebuild does not cost durability");
    assert_eq!(verify_prefix(&db, 2), 3);
    db.reorganize_now().unwrap();
    db.insert_terms(&batch(3)).unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(verify_prefix(&db, 3), 4);
}

/// The clustered twin. Reopening a clustered store re-clusters, so OIDs may
/// move — what must hold instead is the numbering invariant: the pair a
/// reopened store *commits* is in the numbering its handle hands out, and
/// the next log is written in that numbering. A second reopen (which folds
/// that log into that snapshot, OID for OID) would scramble the answers
/// otherwise.
#[test]
fn a_reopened_clustered_store_commits_the_numbering_it_logs_in() {
    use sordf_storage::{Manifest, StoreSnapshot};
    let dir = temp_dir("numbering-clustered");
    let _c = Cleanup(dir.clone());
    {
        let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
        db.load_terms(&base_data()).unwrap();
        db.self_organize().unwrap();
        for i in 0..3 {
            db.insert_terms(&batch(i)).unwrap();
        }
        db.delete_triples(&batch(1)).unwrap();
    }
    // Every visible triple, decoded, predicate by predicate.
    let rows = |db: &Database| {
        let mut preds = vec!["http://ex/qty".to_string(), "http://ex/sold".into()];
        preds.push(MARKER.into());
        preds.extend((0..FILLERS).map(|j| format!("http://ex/recovery/p{j}")));
        let mut rows = Vec::new();
        for p in preds {
            let rs = db
                .query(&format!("SELECT ?s ?o WHERE {{ ?s <{p}> ?o . }}"))
                .expect("dump");
            rows.extend(
                rs.canonical(&db.dict())
                    .into_iter()
                    .map(|r| format!("{p} {r}")),
            );
        }
        rows.sort();
        rows
    };
    let want = {
        let db = Database::open(&dir).unwrap();
        // The committed snapshot is the handle's dictionary, entry for
        // entry: same terms under the same OIDs.
        let m = Manifest::read(&dir).unwrap().unwrap();
        let snap = StoreSnapshot::read_from(&Manifest::snap_path(&dir, m.snap_file)).unwrap();
        let live = db.dict();
        assert_eq!(snap.dict.pool_counts(), live.pool_counts());
        for t in base_data().iter().chain(&batch(0)).chain(&batch(2)) {
            for term in [&t.s, &t.p, &t.o] {
                assert_eq!(snap.dict.term_oid(term), live.term_oid(term), "{term:?}");
            }
        }
        assert_eq!(
            db.drift_stats().n_delta_inserts,
            0,
            "recovered with an empty delta"
        );
        // Writes after the reopen are logged in that numbering...
        db.insert_terms(&batch(3)).unwrap();
        db.delete_triples(&batch(0)).unwrap();
        rows(&db)
    };
    // ...so a second reopen, folding them into that snapshot, agrees.
    let db = Database::open(&dir).unwrap();
    assert_eq!(rows(&db), want);
    assert_eq!(db.n_triples(), base_data().len() + 2 * (1 + FILLERS));
}

/// Generation GC: sustained write → reorganize cycles must not grow the
/// page file without bound. The swapped-out generation's extents return to
/// the free list when its last pin drops, and the next build reuses them —
/// so the high-water mark plateaus after the first couple of swaps.
#[test]
fn generation_gc_bounds_page_file_growth() {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&base_data()).unwrap();
    db.self_organize().unwrap();
    let mut high_water = Vec::new();
    for round in 0..7usize {
        db.insert_terms(&batch(round)).unwrap();
        db.reorganize_now().unwrap();
        high_water.push(db.disk_pages().0);
    }
    let after_two = high_water[1];
    let final_hw = *high_water.last().unwrap();
    assert!(
        final_hw <= after_two + 8,
        "page file grows without bound across swaps: {high_water:?}"
    );
    let (hw, free) = db.disk_pages();
    assert!(
        free > 0 && (free as u64) < hw,
        "free list should hold the retired generation's pages: hw={hw} free={free}"
    );
    // The durable round-trip of that same churn: open a durable store, do
    // the cycles, and make sure recovery agrees with the live answers.
    let dir = temp_dir("gc-durable");
    let _c = Cleanup(dir.clone());
    let want = {
        let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
        db.load_terms(&base_data()).unwrap();
        db.self_organize().unwrap();
        for round in 0..5usize {
            db.insert_terms(&batch(round)).unwrap();
            db.reorganize_now().unwrap();
        }
        db.n_triples()
    };
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.n_triples(), want, "durable churn survived reopen");
}
