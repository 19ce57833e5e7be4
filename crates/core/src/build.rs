//! Building and publishing a generation — "Building a generation" in the
//! crate docs: [`build`], [`publish`], and the paths that call them, which
//! differ only in what they build from and how long they hold the state
//! lock:
//!
//! * `self_organize`, `build_cs_tables` and `build_baseline` build one
//!   layout under the state lock over the current base, pending writes
//!   folded in, and keep the others — unless the build renumbers, which
//!   leaves the parse-order layouts behind (`DbInner::build_layout`).
//! * `reorganize_now`, `maybe_reorganize` and `reorganize_async` pin the
//!   generation, rebuild every layout it has off-lock, and publish with the
//!   writes that arrived meanwhile (the swap protocol below).
//! * Recovery folds the log into the snapshot and builds the layouts the
//!   snapshot records (`durability::recover`).

use std::fs;
use std::sync::Arc;
use std::thread;

use sordf_columnar::{BufferPool, DiskManager};
use sordf_model::{Dictionary, TermTriple, Triple};
use sordf_schema::{DriftStats, EmergentSchema, SchemaConfig};
use sordf_storage::{
    build_clustered, fold_delta, reorganize_from, BaselineStore, ClusterSpec, DeltaStore,
    DeltaView, DeltaWrite, GenerationHandle, LayoutFlags, StoreGeneration, WalKind,
};

use crate::durability::{commit_pair, Stage, Staged};
use crate::{
    encode_batch, panic_message, route_inserts, unroute_retired, Database, DbInner, Error,
    Generation, ReorgOutcome, ReorgPolicy, State, WriteState,
};

/// The staging name a rebuild's snapshot is written under: it is written
/// off-lock, and its number is only decided at the swap.
pub(crate) const SNAP_TMP: &str = "snap.tmp";

/// A built generation, not yet published.
pub(crate) struct Built {
    pub(crate) gen: StoreGeneration,
    /// The result's snapshot, staged for [`publish`] to commit.
    pub(crate) staged: Option<Staged>,
}

/// The layouts `gen` has built.
pub(crate) fn layouts_of(gen: &StoreGeneration) -> LayoutFlags {
    LayoutFlags {
        baseline: gen.baseline.is_some(),
        cs_parse_order: gen.cs_parse_order.is_some(),
        clustered: gen.clustered.is_some(),
    }
}

/// Build `layouts` over `triples` (see the [module docs](self)), starting
/// from the generation `from`, whose dictionary numbers them; `triples` are
/// SPO-sorted whenever a layout is asked for, in load order otherwise. On a
/// durable store `stage` says where the result's snapshot goes.
///
/// A clustered layout renumbers: schema discovery, subject clustering and a
/// fresh dictionary built *from* `from`'s, which is only read; the triples
/// are then sorted again, every layout is built over the new numbering, and
/// `from`'s layouts are left behind. Without one the build keeps the layouts
/// of `from` it does not rebuild, and shares its dictionary — the live one,
/// which writers may intern into while an off-lock rebuild runs; it is
/// append-only, so the OIDs the build reads never move, and a swap that does
/// not renumber keeps every OID the store handed out. CS tables take the
/// clustered layout's frozen schema when there is one and discover their own
/// otherwise.
pub(crate) fn build(
    dm: &Arc<DiskManager>,
    from: &StoreGeneration,
    mut triples: Vec<Triple>,
    layouts: LayoutFlags,
    schema_cfg: &SchemaConfig,
    stage: Option<Stage>,
) -> Result<Built, Error> {
    debug_assert!(
        layouts == LayoutFlags::default() || triples.windows(2).all(|w| w[0] <= w[1]),
        "layouts are built over SPO-sorted triples"
    );
    let mut clustering = None;
    let mut gen = if layouts.clustered {
        let mut schema = sordf_schema::discover(&triples, &from.dict, schema_cfg);
        let spec = ClusterSpec::auto(&schema);
        let (dict, report) = reorganize_from(&from.dict, &mut triples, &mut schema, &spec);
        sort_renumbered(&mut triples);
        clustering = Some(schema);
        StoreGeneration {
            // The string pool was just sorted: OID order equals value order
            // for everything interned so far.
            strings_sorted_len: dict.n_strings(),
            spec,
            reorg_report: Some(report),
            ..StoreGeneration::staging(dict, Vec::new())
        }
    } else {
        from.clone()
    };
    let flags = LayoutFlags {
        baseline: layouts.baseline || gen.baseline.is_some(),
        cs_parse_order: layouts.cs_parse_order || gen.cs_parse_order.is_some(),
        clustered: layouts.clustered || gen.clustered.is_some(),
    };
    // Dictionary and triples are final: what is published is what the
    // snapshot holds. It streams out before any page is allocated, so a
    // failed stream leaves nothing to free.
    let staged = match stage {
        Some(stage) => Some(stage.write(flags, schema_cfg, &gen.dict, triples.iter().copied())?),
        None => None,
    };
    if let Some(mut schema) = clustering {
        let store = build_clustered(dm, &triples, &mut schema, &gen.spec, true);
        gen.clustered = Some(Arc::new(store));
        gen.schema = Some(Arc::new(schema));
    }
    if layouts.cs_parse_order {
        let base = match (&gen.clustered, &gen.schema) {
            (Some(_), Some(schema)) => Arc::clone(schema),
            _ => Arc::new(sordf_schema::discover(&triples, &gen.dict, schema_cfg)),
        };
        let mut schema = (*base).clone();
        let spec = ClusterSpec::auto(&schema);
        let store = build_clustered(dm, &triples, &mut schema, &spec, false);
        gen.cs_parse_order = Some((Arc::new(store), Arc::new(schema)));
        gen.schema = Some(base);
    }
    if layouts.baseline {
        gen.baseline = Some(Arc::new(BaselineStore::build(dm, &triples)));
    }
    // A built generation holds its triples in its layouts alone (see
    // `StoreGeneration::triples`).
    gen.triples = Arc::new(if gen.any_built() { Vec::new() } else { triples });
    Ok(Built { gen, staged })
}

/// Sort a renumbered triple list, choosing the sort by how sorted it
/// already is (one pass counting descents). A first organization renumbers
/// a load-order list — many short runs, where the pattern-defeating sort is
/// the faster — while a rebuild or recovery renumbers what was clustered
/// before: one long run with the folded-in writes behind it, which the
/// run-adaptive sort merges in about a pass. Measured on RDF-H sf 0.01
/// (0.82 M triples): a first organization has 31 K descents and sorts in
/// 40 ms unstable against 52 ms stable; a rebuild has 0.7-0.9 K and sorts
/// in 7-8 ms stable against 40 ms unstable.
fn sort_renumbered(triples: &mut [Triple]) {
    let descents = triples.windows(2).filter(|w| w[0] > w[1]).count();
    if descents <= triples.len() / 64 {
        triples.sort();
    } else {
        triples.sort_unstable();
    }
}

/// What a publish carries into the new generation's delta: the writes that
/// arrived since a rebuild pinned its input, re-encoded under the built
/// dictionary ([`fold_catch_up`]).
pub(crate) struct CatchUp {
    delta: DeltaStore,
    write: Option<WriteState>,
    /// The same writes as the fresh log holds them (durable stores).
    log: Vec<(WalKind, Vec<Triple>)>,
}

/// What a publish replaced, moved out from under the state lock so a caller
/// that is done with the lock can free it after releasing it.
pub(crate) type Superseded = (GenerationHandle, DeltaStore, Option<WriteState>);

/// Publish a built generation: commit its staged snapshot with a fresh log
/// holding the catch-up writes as the live pair (durable stores), then
/// install the generation and the catch-up delta — with no catch-up (a
/// build that held the state lock throughout), an empty delta continuing
/// the sequence. The commit comes first — whoever renumbers commits a new
/// pair — so a failed commit returns before anything is installed.
pub(crate) fn publish(
    st: &mut State,
    built: Built,
    catch_up: Option<CatchUp>,
) -> Result<Superseded, Error> {
    let CatchUp { delta, write, log } = catch_up.unwrap_or_else(|| CatchUp {
        delta: DeltaStore::with_base_seq(st.delta.seq()),
        write: None,
        log: Vec::new(),
    });
    if let Some(staged) = built.staged {
        commit_pair(&mut st.durable, staged, &built.gen.dict, &log)?;
    }
    let superseded = (
        std::mem::replace(&mut st.gen, Arc::new(built.gen)),
        std::mem::replace(&mut st.delta, delta),
        std::mem::replace(&mut st.write, write),
    );
    #[cfg(debug_assertions)]
    {
        st.gen.debug_validate();
        st.delta.debug_validate();
    }
    st.epoch += 1;
    Ok(superseded)
}

impl DbInner {
    /// Build one layout over the current base under the state lock and
    /// publish it — a no-op when it is built — and return the generation
    /// then current. A clustered build folds pending writes into the base
    /// first: it renumbers, so it replaces every layout. A parse-order one
    /// refuses them: the new layout would disagree with the surviving ones
    /// about the visible data.
    // lock-order: acquires(db_state)
    fn build_layout(&self, layout: Generation) -> Result<GenerationHandle, Error> {
        let mut st = self.state.lock();
        let st = &mut *st;
        let have = layouts_of(&st.gen);
        let layouts = LayoutFlags {
            baseline: layout == Generation::Baseline,
            cs_parse_order: layout == Generation::CsParseOrder,
            clustered: layout == Generation::Clustered,
        };
        if (layouts.baseline && have.baseline)
            || (layouts.cs_parse_order && have.cs_parse_order)
            || (layouts.clustered && have.clustered)
        {
            return Ok(Arc::clone(&st.gen));
        }
        if !layouts.clustered && !st.delta.is_empty() {
            return Err(Error::State(format!(
                "building {layout:?} with pending writes: call reorganize_now() (or maybe_reorganize) first"
            )));
        }
        let base = st.gen.base(&self.pool).into_owned();
        let mut triples = fold_delta(base, st.delta.current_view());
        // A staging base is in load order.
        if !triples.windows(2).all(|w| w[0] <= w[1]) {
            triples.sort_unstable();
        }
        let stage = st.durable.as_ref().map(Stage::in_place);
        let built = build(&self.dm, &st.gen, triples, layouts, &st.schema_cfg, stage)?;
        publish(st, built, None)?;
        Ok(Arc::clone(&st.gen))
    }
}

impl Database {
    /// Build the exhaustive-index baseline (Table I's "ParseOrder" scheme).
    pub fn build_baseline(&self) -> Result<(), Error> {
        self.inner.build_layout(Generation::Baseline).map(drop)
    }

    /// Build CS tables *without* renumbering OIDs (sparse segments) — the
    /// "RDFscan on ParseOrder" configuration.
    pub fn build_cs_tables(&self) -> Result<(), Error> {
        self.inner.build_layout(Generation::CsParseOrder).map(drop)
    }

    /// Self-organize: fold pending writes into the base, discover the
    /// schema, cluster subject OIDs, sort literal OIDs, and rebuild storage
    /// as dense CS segments, clustered by [`ClusterSpec::auto`]. The
    /// parse-order layouts hold the old OIDs and are dropped.
    pub fn self_organize(&self) -> Result<Arc<EmergentSchema>, Error> {
        let gen = self.inner.build_layout(Generation::Clustered)?;
        // sordf-lint: allow(L3) — a clustered generation always carries the schema it was built from.
        Ok(gen.schema.clone().unwrap())
    }

    /// Adaptive reorganization: evaluate `policy` against the current
    /// [`DriftStats`] and, when a threshold fires, rebuild every live
    /// generation (schema re-discovery, subject re-clustering, fresh column
    /// segments) over the merged base + delta and swap it in behind the
    /// query API. Runs **synchronously** on the calling thread; concurrent
    /// queries keep executing against their pinned generation throughout,
    /// and writes that land mid-rebuild are folded into the fresh delta at
    /// the swap. For the non-blocking variant see
    /// [`Database::reorganize_async`].
    pub fn maybe_reorganize(&self, policy: &ReorgPolicy) -> Result<ReorgOutcome, Error> {
        let drift = self.inner.drift_stats();
        let Some(reason) = policy.trigger_reason(&drift) else {
            return Ok(ReorgOutcome {
                fired: false,
                swapped: false,
                reason: None,
                drift_before: drift,
                irregular_ratio_after: None,
                report: None,
            });
        };
        let pin = begin_rebuild(&self.inner)?;
        run_rebuild(&self.inner, pin, Some(reason), drift)
    }

    /// Unconditional synchronous reorganization: fold the pending delta into
    /// the base set and rebuild whatever generations were built (a clustered
    /// database re-runs discovery + clustering; a baseline/CS database
    /// rebuilds its indexes over the merged data).
    pub fn reorganize_now(&self) -> Result<(), Error> {
        let drift = self.inner.drift_stats();
        let pin = begin_rebuild(&self.inner)?;
        let outcome = run_rebuild(&self.inner, pin, None, drift)?;
        if outcome.swapped {
            Ok(())
        } else {
            Err(Error::State(
                "reorganization superseded by a concurrent bulk load".into(),
            ))
        }
    }

    /// Start an **asynchronous, unconditional** reorganization: pin the
    /// current generation + write snapshot, build the next generation on a
    /// worker thread, then swap it in (folding writes that arrived during
    /// the rebuild into the fresh delta). Queries and writes proceed
    /// throughout; the returned [`BackgroundReorg`] handle observes
    /// completion. The swap happens even if the handle is dropped.
    ///
    /// Errors if nothing is built yet or another rebuild is in flight.
    pub fn reorganize_async(&self) -> Result<BackgroundReorg, Error> {
        let drift = self.inner.drift_stats();
        let pin = begin_rebuild(&self.inner)?;
        Ok(spawn_rebuild(&self.inner, pin, None, drift))
    }

    /// Is a (sync or async) rebuild currently in flight?
    // lock-order: acquires(db_state)
    pub fn reorg_in_flight(&self) -> bool {
        self.inner.state.lock().rebuild.is_some()
    }
}

// ---- the background rebuild + swap protocol --------------------------------

/// Everything a rebuild works from, captured under one state lock: the
/// pinned generation, the delta view at the pin, and the epoch that must
/// still hold at swap time.
#[must_use = "a RebuildPin claims the single rebuild slot; dropping it without finish/release leaks the claim"]
pub(crate) struct RebuildPin {
    gen: GenerationHandle,
    view: Option<Arc<DeltaView>>,
    pin_seq: u64,
    pub(crate) epoch: u64,
    schema_cfg: SchemaConfig,
    /// Where the rebuild stages its snapshot (durable stores): under
    /// [`SNAP_TMP`], covering the log up to the pin — the pinned fold holds
    /// exactly those writes, and the swap's log carries exactly the ones
    /// after it.
    stage: Option<Stage>,
}

/// Claim the (single) rebuild slot and pin the rebuild's input.
// lock-order: acquires(db_state)
pub(crate) fn begin_rebuild(inner: &DbInner) -> Result<RebuildPin, Error> {
    let mut st = inner.state.lock();
    if !st.gen.any_built() {
        return Err(Error::State(
            "no storage built; load data and call self_organize()".into(),
        ));
    }
    if st.rebuild.is_some() {
        return Err(Error::State("a reorganization is already in flight".into()));
    }
    st.rebuild = Some(st.epoch);
    Ok(RebuildPin {
        gen: Arc::clone(&st.gen),
        view: st.delta.current_view_arc(),
        pin_seq: st.delta.seq(),
        epoch: st.epoch,
        schema_cfg: st.schema_cfg.clone(),
        stage: st.durable.as_ref().map(|d| Stage {
            path: d.dir.join(SNAP_TMP),
            base_seq: d.seq,
        }),
    })
}

/// Release a rebuild claim without swapping (build error / panic path).
// lock-order: acquires(db_state)
pub(crate) fn release_rebuild_claim(inner: &DbInner, epoch: u64) {
    let mut st = inner.state.lock();
    if st.rebuild == Some(epoch) {
        st.rebuild = None;
    }
}

/// The heavy lifting, entirely off-lock: read the pinned generation's base
/// back from its layouts, fold the pinned delta into it — SPO-sorted, a
/// sorted base merged with the inserts — and build every layout the pinned
/// generation had. This is what runs for the full rebuild duration while
/// readers and writers proceed against the live store.
pub(crate) fn build_generation(
    dm: &Arc<DiskManager>,
    pool: &BufferPool,
    pin: &RebuildPin,
) -> Result<Built, Error> {
    let triples = fold_delta(pin.gen.base(pool).into_owned(), pin.view.as_deref());
    let layouts = layouts_of(&pin.gen);
    build(
        dm,
        &pin.gen,
        triples,
        layouts,
        &pin.schema_cfg,
        pin.stage.clone(),
    )
}

/// Carry a catch-up batch across a swap: decode it under the dictionary it
/// was written in, encode it under the built one (interning terms first
/// seen during the rebuild).
fn reencode(old: &Dictionary, new: &Dictionary, triples: &[Triple]) -> Result<Vec<Triple>, Error> {
    let mut terms = Vec::with_capacity(triples.len());
    for t in triples {
        terms.push(TermTriple::new(
            old.decode(t.s)?,
            old.decode(t.p)?,
            old.decode(t.o)?,
        ));
    }
    encode_batch(new, &terms)
}

/// Fold every write that arrived during the rebuild into a fresh delta
/// store: decoded under the current generation's dictionary, re-encoded
/// under the built one, replayed in sequence order (so snapshots taken at
/// or after the pin survive the swap) and re-routed against the new schema.
fn fold_catch_up(st: &State, pin: &RebuildPin, built: &Built) -> Result<CatchUp, Error> {
    let mut out = CatchUp {
        delta: DeltaStore::with_base_seq(pin.pin_seq),
        write: None,
        log: Vec::new(),
    };
    // The batches as the fresh log will hold them. Skipped when durability
    // lapsed mid-rebuild (a failed log append disables it) — the disk then
    // keeps its last consistent state.
    let logged = built.staged.is_some() && st.durable.is_some();
    // The current generation's dictionary is the append-only one the rebuild
    // pinned, grown in place by concurrent interns: it holds every term
    // interned during the rebuild. Decoding is lock-free.
    let (old, new) = (st.gen.dict.as_ref(), built.gen.dict.as_ref());
    for (seq, w) in st.delta.writes_since(pin.pin_seq) {
        let applied = match w {
            DeltaWrite::Insert(triples) => {
                let mut enc = reencode(old, new, &triples)?;
                enc.sort_unstable();
                if logged {
                    out.log.push((WalKind::Insert, enc.clone()));
                }
                route_inserts(
                    &mut out.write,
                    built.gen.schema.as_deref(),
                    &st.schema_cfg,
                    &enc,
                );
                out.delta.insert_run(enc)
            }
            DeltaWrite::Delete(triples) => {
                let enc = reencode(old, new, &triples)?;
                let applied = out.delta.delete(&enc);
                unroute_retired(&mut out.write, out.delta.current_view(), &enc);
                if logged {
                    out.log.push((WalKind::Delete, enc));
                }
                applied
            }
        };
        debug_assert_eq!(
            applied.seq(),
            seq,
            "catch-up replay must preserve sequencing"
        );
    }
    if built.gen.clustered.is_some() && new.n_strings() > built.gen.strings_sorted_len {
        // Catch-up inserts interned strings past the freshly sorted pool.
        out.delta.set_strings_appended();
    }
    Ok(out)
}

/// The swap: fold the catch-up writes and publish the built generation.
/// This is the only moment writers wait on a reorganization —
/// O(catch-up writes), not O(rebuild). Returns `false` when the rebuild was
/// superseded (a bulk load / explicit build invalidated the pinned epoch).
// lock-order: acquires(db_state, dict)
pub(crate) fn finish_rebuild(
    inner: &DbInner,
    pin: RebuildPin,
    built: Built,
) -> Result<bool, Error> {
    // What the swap supersedes — the old generation handle (base triples,
    // dictionary, column handles), delta and routing state — is freed after
    // the lock: releasing the last handle of a store-sized generation is
    // milliseconds nobody should wait behind.
    let superseded;
    {
        let mut st = inner.state.lock();
        if st.rebuild == Some(pin.epoch) {
            st.rebuild = None;
        }
        if st.epoch != pin.epoch {
            if let Some(staged) = &built.staged {
                // Best-effort: the orphaned staging snapshot is simply
                // overwritten by the next rebuild.
                let _ = fs::remove_file(&staged.path);
            }
            return Ok(false);
        }
        let catch_up = fold_catch_up(&st, &pin, &built)?;
        superseded = publish(&mut st, built, Some(catch_up))?;
    }
    drop(pin);
    drop(superseded);
    Ok(true)
}

/// One full rebuild: build off-lock, then swap. Shared by the synchronous
/// entry points (which run it inline) and the background worker.
fn run_rebuild(
    inner: &DbInner,
    pin: RebuildPin,
    reason: Option<String>,
    drift_before: DriftStats,
) -> Result<ReorgOutcome, Error> {
    // The build — the staged snapshot included, so the swap itself stays
    // O(catch-up), never O(data) — runs off-lock.
    let built = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        build_generation(&inner.dm, &inner.pool, &pin)
    })) {
        Ok(Ok(b)) => b,
        Ok(Err(e)) => {
            release_rebuild_claim(inner, pin.epoch);
            return Err(e);
        }
        Err(payload) => {
            release_rebuild_claim(inner, pin.epoch);
            return Err(Error::Exec(panic_message(payload)));
        }
    };
    let irregular_ratio_after = built
        .gen
        .clustered
        .as_ref()
        .map(|store| store.irregular.len() as f64 / store.n_triples().max(1) as f64);
    let report = built.gen.reorg_report.clone();
    let epoch = pin.epoch;
    match finish_rebuild(inner, pin, built) {
        Ok(true) => Ok(ReorgOutcome {
            fired: true,
            swapped: true,
            reason,
            drift_before,
            irregular_ratio_after,
            report,
        }),
        Ok(false) => Ok(ReorgOutcome {
            fired: true,
            swapped: false,
            reason,
            drift_before,
            irregular_ratio_after: None,
            report: None,
        }),
        Err(e) => {
            release_rebuild_claim(inner, epoch);
            Err(e)
        }
    }
}

/// Spawn `run_rebuild` on a worker thread.
fn spawn_rebuild(
    inner: &Arc<DbInner>,
    pin: RebuildPin,
    reason: Option<String>,
    drift_before: DriftStats,
) -> BackgroundReorg {
    let inner = Arc::clone(inner);
    let thread = thread::Builder::new()
        .name("sordf-reorg".into())
        .spawn(move || run_rebuild(&inner, pin, reason, drift_before))
        // sordf-lint: allow(L3) — thread spawn fails only on resource exhaustion; a reorg that cannot start is fatal by design.
        .expect("spawn reorg thread");
    BackgroundReorg { thread }
}

/// Handle on an in-flight background reorganization (see
/// [`Database::reorganize_async`]). The swap completes whether or not the
/// handle is waited on; the handle is how callers observe the outcome and
/// sequence tests deterministically.
#[must_use = "the swap completes regardless, but dropping the handle discards the outcome (including build errors)"]
pub struct BackgroundReorg {
    thread: thread::JoinHandle<Result<ReorgOutcome, Error>>,
}

impl BackgroundReorg {
    /// Has the rebuild (including its swap) finished?
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Block until the rebuild + swap complete and return the outcome.
    pub fn wait(self) -> Result<ReorgOutcome, Error> {
        match self.thread.join() {
            Ok(outcome) => outcome,
            Err(payload) => Err(Error::Exec(panic_message(payload))),
        }
    }
}
