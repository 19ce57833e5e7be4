//! The durable side of a database: the write-ahead log, the committed
//! (snapshot, log) pair and recovery.
//!
//! One invariant governs the pair: **it is in one numbering, and whoever
//! renumbers commits a new pair.** A snapshot is staged first
//! ([`Stage::write`]) — under its final numbered name by a caller that holds
//! the state lock until it commits, under `snap.tmp` by a rebuild that writes
//! it off-lock — and [`commit_pair`] adopts it: the one commit every publish
//! of a generation, every [`Database::checkpoint`] and recovery go through.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sordf_columnar::{crash_point, DiskManager};
use sordf_model::{Dictionary, FxHashSet, Triple};
use sordf_schema::SchemaConfig;
use sordf_storage::{
    fold_delta, visible_base, DeltaStore, LayoutFlags, LogRecord, Manifest, PoolCounts,
    SnapshotHeader, StoreGeneration, StoreSnapshot, SyncPolicy, WalKind, WalWriter,
};

use crate::build::{build, layouts_of, publish};
use crate::{Database, Error, State};

/// The durable side of a database opened with [`Database::open`] /
/// [`Database::create_durable`]: the live write-ahead log plus manifest
/// bookkeeping. Lives inside the state lock, so logging an applied write
/// and applying it are one atomic step with respect to other writers.
pub(crate) struct DurableState {
    /// The durable directory (MANIFEST, `snap.<N>`, `wal.<N>`, data.db).
    pub(crate) dir: PathBuf,
    /// The live log (`wal.<wal_file>`), positioned to append.
    pub(crate) wal: WalWriter,
    /// When appends are fsync'd (the acknowledgment barrier).
    policy: SyncPolicy,
    /// Number of the live snapshot file.
    snap_file: u64,
    /// Number of the live WAL file.
    wal_file: u64,
    /// Log sequence of the last appended record. Advances by exactly one
    /// per applied write batch, in lockstep with the delta sequence while
    /// the store is organized — the generation swap relies on that to
    /// rotate the WAL down to exactly the catch-up suffix.
    pub(crate) seq: u64,
    /// The logged watermark: how many entries of each dictionary pool the
    /// committed pair (snapshot + log so far) holds. The next record
    /// appends everything interned past it.
    logged: PoolCounts,
}

/// Where one snapshot is staged, and the log sequence it covers.
#[derive(Clone)]
pub(crate) struct Stage {
    pub(crate) path: PathBuf,
    pub(crate) base_seq: u64,
}

/// A snapshot written out and synced, not yet committed.
pub(crate) struct Staged {
    pub(crate) path: PathBuf,
    base_seq: u64,
    /// What it holds of each dictionary pool: the watermark the log behind
    /// it appends from.
    pub(crate) pools: PoolCounts,
}

impl Stage {
    /// The next numbered snapshot of `d`, covering everything logged so
    /// far — for a caller that holds the state lock until it commits, so
    /// the number cannot be taken meanwhile.
    pub(crate) fn in_place(d: &DurableState) -> Stage {
        Stage {
            path: Manifest::snap_path(&d.dir, d.snap_file + 1),
            base_seq: d.seq,
        }
    }

    /// Stream `dict`'s pools and `triples` out as a snapshot recording
    /// `flags` and `schema_cfg`, and fsync it. A stream that fails takes its
    /// file with it.
    pub(crate) fn write(
        self,
        flags: LayoutFlags,
        schema_cfg: &SchemaConfig,
        dict: &Dictionary,
        triples: impl Iterator<Item = Triple>,
    ) -> Result<Staged, Error> {
        let header = SnapshotHeader {
            base_seq: self.base_seq,
            flags,
            schema_cfg: schema_cfg.clone(),
        };
        match StoreSnapshot::write_to(&self.path, &header, dict, triples) {
            Ok(pools) => Ok(Staged {
                path: self.path,
                base_seq: self.base_seq,
                pools,
            }),
            Err(e) => {
                // Best-effort: a leftover is overwritten by the next stage
                // under its name and swept by the next commit.
                let _ = fs::remove_file(&self.path);
                Err(Error::Io(e))
            }
        }
    }
}

/// Commit `staged` as the live pair of `durable` (a no-op on a store that
/// is not durable): move it to the next snapshot number (when it was staged
/// under another name), write `catch_up` — batches under `dict`, each with
/// what `dict` interned for it past the snapshot's pools — as the next log
/// and sync it, then rename the manifest over. Until that rename the
/// previous pair is the live one and `durable` is untouched, so a failure
/// anywhere before it leaves the previous pair live and consistent; after
/// it, `durable` follows the new pair. A directory fsync that fails after
/// the rename leaves either pair live after a crash, so nothing can be
/// logged safely any more: durability is disabled, as after a failed log
/// append ([`log_write`]).
pub(crate) fn commit_pair(
    durable: &mut Option<DurableState>,
    staged: Staged,
    dict: &Dictionary,
    catch_up: &[(WalKind, Vec<Triple>)],
) -> Result<(), Error> {
    let Some(d) = durable.as_mut() else {
        return Ok(());
    };
    let snap_n = d.snap_file + 1;
    let wal_n = d.wal_file + 1;
    let snap_path = Manifest::snap_path(&d.dir, snap_n);
    // A rebuild staged off-lock, under `snap.tmp`: its commit is a swap.
    let swap = staged.path != snap_path;
    if swap {
        fs::rename(&staged.path, &snap_path)?;
    }
    let mut wal = WalWriter::create(&Manifest::wal_path(&d.dir, wal_n))?;
    let mut logged = staged.pools;
    let mut seq = staged.base_seq;
    for (kind, triples) in catch_up {
        seq += 1;
        wal.append_batch(seq, *kind, dict, &mut logged, triples)?;
    }
    wal.sync()?;
    if swap {
        crash_point!("swap.pre_manifest");
    } else {
        crash_point!("checkpoint.pre_manifest");
    }
    let m = Manifest {
        snap_file: snap_n,
        wal_file: wal_n,
        base_seq: staged.base_seq,
    };
    if let Err(e) = m.commit(&d.dir)? {
        *durable = None;
        return Err(Error::Io(e));
    }
    if swap {
        crash_point!("swap.post_manifest");
    } else {
        crash_point!("checkpoint.post_manifest");
    }
    debug_assert_eq!(
        d.seq, seq,
        "catch-up records must cover every logged write since the snapshot"
    );
    d.wal = wal;
    d.snap_file = snap_n;
    d.wal_file = wal_n;
    d.logged = logged;
    // Best-effort: the new pair is committed whatever happens here, and the
    // next commit sweeps what this one leaves.
    let _ = m.remove_orphans(&d.dir);
    Ok(())
}

/// Append one write batch to the WAL *before* it is applied in-memory — the
/// OIDs the caller already resolved, preceded by whatever the dictionary
/// interned since the last logged watermark — honoring the sync policy
/// (under [`SyncPolicy::Always`] the return IS the durability
/// acknowledgment). No-op on non-durable databases. On failure the write is
/// rejected and durability is disabled for the rest of the process: the
/// record may or may not have reached the log, so continuing to log around
/// it could silently diverge the log from the applied state — the caller
/// sees the error, the in-memory store stays usable, and the on-disk state
/// remains a consistent (possibly stale) prefix.
pub(crate) fn log_write(st: &mut State, kind: WalKind, batch: &[Triple]) -> Result<(), Error> {
    let Some(d) = st.durable.as_mut() else {
        return Ok(());
    };
    let seq = d.seq + 1;
    match d
        .wal
        .append_batch(seq, kind, &st.gen.dict, &mut d.logged, batch)
        .and_then(|_| d.wal.maybe_sync(d.policy))
    {
        Ok(()) => {
            d.seq = seq;
            Ok(())
        }
        Err(e) => {
            st.durable = None;
            Err(Error::Io(e))
        }
    }
}

/// Fold a log into the snapshot it follows, at OID level: extend `dict`
/// with every record's appends (each entry must land on exactly the index
/// the record names) and apply the batches to `triples` the way the live
/// calls did — inserts and deletes of a built store through a
/// [`DeltaStore`], folded out by [`fold_delta`]; a load into the base behind
/// whatever was pending (the staging store gets the order the live one had),
/// clearing the layout flags as the live call invalidated the layouts; a
/// staged delete out of the base. Returns the triples the log leaves visible
/// (SPO-sorted while layouts are recorded) and the layouts to build over
/// them. Nothing is parsed, encoded or routed.
fn fold_log(
    dict: &Dictionary,
    mut triples: Vec<Triple>,
    mut flags: LayoutFlags,
    m: &Manifest,
    records: Vec<LogRecord>,
) -> Result<(Vec<Triple>, LayoutFlags), Error> {
    if records.first().is_some_and(|r| r.seq != m.base_seq + 1) {
        return Err(Error::State(format!(
            "wal.{} does not continue snap.{}: it starts at sequence {}, the snapshot covers {}",
            m.wal_file, m.snap_file, records[0].seq, m.base_seq
        )));
    }
    let built = |f: &LayoutFlags| f.baseline || f.cs_parse_order || f.clustered;
    // A checkpoint taken with inserts pending streams them behind the
    // sorted base; the fold (like every builder) wants one sorted list.
    if built(&flags) && !triples.windows(2).all(|w| w[0] <= w[1]) {
        triples.sort_unstable();
    }
    let mut delta = DeltaStore::new();
    for rec in records {
        rec.append_to(dict)?;
        match rec.kind {
            WalKind::Insert if built(&flags) => {
                let _ = delta.insert_run(rec.triples);
            }
            WalKind::Delete if built(&flags) => {
                let _ = delta.delete(&rec.triples);
            }
            WalKind::Delete => {
                let gone: FxHashSet<Triple> = rec.triples.into_iter().collect();
                triples.retain(|t| !gone.contains(t));
            }
            // An insert into a store with nothing built is a load (the
            // live call logs it as one).
            WalKind::Insert | WalKind::Load => {
                // What a load over pending writes leaves the live store with:
                // the visible base, the pending inserts behind it in run
                // order, then the batch.
                if !delta.is_empty() {
                    let mut kept: Vec<Triple> =
                        visible_base(triples.into_iter(), delta.current_view()).collect();
                    kept.extend(delta.visible_inserts());
                    triples = kept;
                    delta = DeltaStore::new();
                }
                triples.extend(rec.triples);
                flags = LayoutFlags::default();
            }
        }
    }
    // Writes still pending over recorded layouts merge into the sorted base.
    if !delta.is_empty() {
        triples = fold_delta(triples, delta.current_view());
    }
    Ok((triples, flags))
}

impl Database {
    /// Open (or create) a **durable** database in `dir` with the strictest
    /// policy, [`SyncPolicy::Always`]: every write batch is fsync'd to the
    /// write-ahead log before the call returns, so an acknowledged write
    /// survives any crash. An existing directory is recovered: the live
    /// snapshot is reloaded, every intact log record behind it is folded in
    /// (the log is cut at the first torn frame), the recorded layouts are
    /// built once over the result and a fresh snapshot + log pair is
    /// committed — the returned store is organized and its delta is empty.
    pub fn open(dir: &Path) -> Result<Database, Error> {
        fs::create_dir_all(dir)?;
        match Manifest::read(dir)? {
            None => Database::init_durable(dir, SyncPolicy::Always),
            Some(m) => Database::recover(dir, m),
        }
    }

    /// Create a **fresh** durable database in `dir` (which must not already
    /// hold one). Use [`Database::open`] to recover an existing directory.
    pub fn create_durable(dir: &Path, policy: SyncPolicy) -> Result<Database, Error> {
        fs::create_dir_all(dir)?;
        if Manifest::path(dir).exists() {
            return Err(Error::State(format!(
                "{} already holds a durable database; use Database::open",
                dir.display()
            )));
        }
        Database::init_durable(dir, policy)
    }

    /// Commit the empty initial checkpoint (`snap.0` + `wal.0` + MANIFEST)
    /// so any later crash finds a committed state to recover to.
    // lock-order: acquires(db_state)
    fn init_durable(dir: &Path, policy: SyncPolicy) -> Result<Database, Error> {
        let db = Database::with_disk(Arc::new(DiskManager::create(&dir.join("data.db"))?));
        let header = SnapshotHeader {
            base_seq: 0,
            flags: LayoutFlags::default(),
            schema_cfg: SchemaConfig::default(),
        };
        let logged = StoreSnapshot::write_to(
            &Manifest::snap_path(dir, 0),
            &header,
            &Dictionary::new(),
            std::iter::empty(),
        )?;
        let wal = WalWriter::create(&Manifest::wal_path(dir, 0))?;
        let m = Manifest {
            snap_file: 0,
            wal_file: 0,
            base_seq: 0,
        };
        m.commit(dir)??;
        // A half-created directory may hold leftovers from a crash before
        // the first commit.
        m.remove_orphans(dir)?;
        db.inner.state.lock().durable = Some(DurableState {
            dir: dir.to_path_buf(),
            wal,
            policy,
            snap_file: 0,
            wal_file: 0,
            seq: 0,
            logged,
        });
        Ok(db)
    }

    /// Recovery is a rebuild whose pin is the disk: the snapshot's
    /// dictionary (entry for entry) extended by the log's appends, the
    /// log's batches folded into the snapshot's triples at OID level
    /// ([`fold_log`]), and one build of the recorded layouts over the folded
    /// set, published like any other — its snapshot committed as a fresh
    /// pair (building a clustered layout renumbers) before the generation is
    /// installed and the handle returned. Until that commit the old pair is
    /// only read, so a crash (or a failed write) anywhere in here leaves it
    /// as it was found: the next open starts over from it.
    // lock-order: acquires(db_state)
    fn recover(dir: &Path, m: Manifest) -> Result<Database, Error> {
        let snap = StoreSnapshot::read_from(&Manifest::snap_path(dir, m.snap_file))?;
        let (wal, records) = WalWriter::open_recover(
            &Manifest::wal_path(dir, m.wal_file),
            snap.dict.pool_counts(),
        )?;
        // The page file is a derived cache: recovery rebuilds every column
        // from the folded triples, so it starts from scratch.
        let db = Database::with_disk(Arc::new(DiskManager::create(&dir.join("data.db"))?));
        let seq = m.base_seq + records.len() as u64;
        let (triples, layouts) =
            fold_log(&snap.dict, snap.triples, snap.header.flags, &m, records)?;
        let d = DurableState {
            dir: dir.to_path_buf(),
            wal,
            policy: SyncPolicy::Always,
            snap_file: m.snap_file,
            wal_file: m.wal_file,
            seq,
            // Set by the commit: the fresh snapshot's counts.
            logged: PoolCounts::default(),
        };
        let mut st = db.inner.state.lock();
        st.schema_cfg = snap.header.schema_cfg;
        let from = StoreGeneration::staging(snap.dict, Vec::new());
        let stage = Some(Stage::in_place(&d));
        let built = build(&db.inner.dm, &from, triples, layouts, &st.schema_cfg, stage)?;
        st.durable = Some(d);
        publish(&mut st, built, None)?;
        drop(st);
        Ok(db)
    }

    /// Is this database durable (opened via [`Database::open`] /
    /// [`Database::create_durable`])?
    // lock-order: acquires(db_state)
    pub fn is_durable(&self) -> bool {
        self.inner.state.lock().durable.is_some()
    }

    /// Force any policy-deferred WAL tail to stable storage (a no-op under
    /// [`SyncPolicy::Always`], and on non-durable databases).
    // lock-order: acquires(db_state)
    pub fn flush_wal(&self) -> Result<(), Error> {
        if let Some(d) = self.inner.state.lock().durable.as_mut() {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Write a full checkpoint: stage a snapshot of the current visible
    /// triples (base merged with the delta) and commit it with a fresh,
    /// empty WAL, bounding both recovery replay time and log size. The
    /// in-memory state is untouched — on recovery the checkpointed delta
    /// simply starts out folded into the base, which is logically
    /// equivalent. A failure leaves the previous pair live and durability
    /// enabled. Errors on non-durable databases.
    // lock-order: acquires(db_state, dict)
    pub fn checkpoint(&self) -> Result<(), Error> {
        let mut st = self.inner.state.lock();
        let st = &mut *st;
        let Some(d) = st.durable.as_ref() else {
            return Err(Error::State("not a durable database".into()));
        };
        let base = st.gen.base(&self.inner.pool);
        let visible = visible_base(base.iter().copied(), st.delta.current_view())
            .chain(st.delta.visible_inserts());
        let staged =
            Stage::in_place(d).write(layouts_of(&st.gen), &st.schema_cfg, &st.gen.dict, visible)?;
        commit_pair(&mut st.durable, staged, &st.gen.dict, &[])
    }
}
