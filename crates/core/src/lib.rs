//! # sordf — self-organizing structured RDF
//!
//! The facade crate of the workspace: a single [`Database`] type that walks
//! through the paper's whole lifecycle.
//!
//! ```
//! use sordf::{Database, ExecConfig, PlanScheme};
//!
//! let mut db = Database::in_temp_dir().unwrap();
//! db.load_ntriples(r#"
//!     <http://ex/book1> <http://ex/has_author> <http://ex/author1> .
//!     <http://ex/book1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book1> <http://ex/isbn_no> "1-56619-909-3" .
//!     <http://ex/book2> <http://ex/has_author> <http://ex/author2> .
//!     <http://ex/book2> <http://ex/in_year> "1997"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book2> <http://ex/isbn_no> "1-56619-909-4" .
//!     <http://ex/book3> <http://ex/has_author> <http://ex/author1> .
//!     <http://ex/book3> <http://ex/in_year> "1998"^^<http://www.w3.org/2001/XMLSchema#integer> .
//!     <http://ex/book3> <http://ex/isbn_no> "1-56619-909-5" .
//! "#).unwrap();
//!
//! // Self-organize: discover the emergent schema, cluster subjects,
//! // rebuild storage as CS segments.
//! db.self_organize().unwrap();
//! assert_eq!(db.schema().unwrap().classes.len(), 1);
//!
//! let rs = db.query("SELECT ?a ?n WHERE { ?b <http://ex/has_author> ?a . \
//!                     ?b <http://ex/isbn_no> ?n . }").unwrap();
//! assert_eq!(rs.len(), 3);
//! ```
//!
//! The database keeps up to three physical generations, matching the axes of
//! the paper's Table I:
//!
//! 1. a **baseline** exhaustive-index store over parse-order OIDs,
//! 2. optional **CS tables in parse order** ([`Database::build_cs_tables`]),
//! 3. the **clustered** generation after [`Database::self_organize`]
//!    (subject-clustered OIDs, sorted literals, dense segments).
//!
//! Queries run against the newest built generation by default; benchmarks
//! pin a generation + plan scheme through [`QueryRequest`].
//!
//! The store stays organized **as data keeps arriving**: after
//! [`Database::self_organize`], [`Database::insert_ntriples`] and
//! [`Database::delete_matching`] write through an in-memory delta store
//! (sorted insert runs + tombstones, snapshot-sequenced — see
//! [`Database::snapshot`] / [`Database::query_snapshot`]) that every query
//! merges with the base generations, and
//! [`Database::maybe_reorganize`] re-runs discovery + clustering over the
//! merged data when a [`ReorgPolicy`] threshold fires — swapping a fresh
//! generation in behind the same query API.
//!
//! ## Building a generation
//!
//! One builder serves every path that makes a generation (the `build`
//! module): [`Database::self_organize`], [`Database::build_cs_tables`] and
//! [`Database::build_baseline`] under the state lock, the reorganizations
//! off it, and recovery. It builds the layouts asked for in the fixed order
//! clustered → CS tables → baseline over one SPO-sorted triple list,
//! renumbering only for a clustered layout, and on a durable store streams
//! the result's snapshot out before any page is allocated. One publish step
//! then **commits before it installs**: the snapshot becomes the live pair
//! (with a fresh log holding the writes that arrived during the build), and
//! only then does the generation replace the current one. A commit that
//! fails abandons the build — the error is returned, and the previous
//! generation and the previous pair stay live, so every write acknowledged
//! afterwards is logged in the numbering the disk holds.
//!
//! ## Background reorganization
//!
//! Reorganization happens **off the write path**: every query *pins* the
//! current [`StoreGeneration`] (an `Arc` of dictionary + base triples +
//! built stores) plus a delta view at query start and never re-reads shared
//! state. [`Database::reorganize_async`] builds the next generation on a
//! worker thread against that pinned snapshot while reads *and writes*
//! continue, then publishes it — folding every write that arrived during
//! the rebuild into the fresh generation's delta store (decoded under the
//! old dictionary, re-encoded under the new one, replayed in sequence order
//! so snapshots taken at or after the rebuild pin survive the swap).
//! Readers never block on a rebuild; writers stall only for the short swap
//! and catch-up fold, never for the rebuild itself. Synchronous
//! [`Database::reorganize_now`] / [`Database::maybe_reorganize`] run the
//! same pin → build → swap protocol inline on the calling thread. These
//! three are the only ways to reorganize: nothing rebuilds on its own.
//!
//! ## Durability
//!
//! [`Database::create_durable`] / [`Database::open`] put the whole
//! lifecycle on disk (the `durability` module): every acknowledged write
//! batch is write-ahead logged (and, under [`SyncPolicy::Always`], fsynced)
//! *before* any in-memory structure sees it; [`Database::checkpoint`]
//! snapshots the visible triples and rotates the log; every published
//! generation rotates the snapshot/WAL pair; and [`Database::open`]
//! recovers the exact acknowledged prefix after a crash at any point.
//! Snapshot and log are both OID-level — the dictionary's pools plus
//! triples as integers; a log record carries the dictionary entries its
//! batch interned and the batch as raw OIDs — under one invariant: **the
//! committed pair (snapshot, log) is in one numbering, and whoever
//! renumbers commits a new pair.** Recovery is therefore a rebuild whose
//! pin is the disk: the snapshot's dictionary extended by the log's
//! appends, the log's batches folded into the snapshot's triples, and one
//! build of the recorded layouts over the result, published like any other
//! — its pair committed before the handle accepts a write. A reopened store
//! is organized, its delta is empty, and decoded results are identical.
//! The labeled [`CRASH_POINTS`] (and the I/O failure points of
//! `sordf_columnar::fault`) and the `crash_points` cargo feature arm the
//! fault-injection harness behind `tests/recovery_differential.rs`.

use std::io;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use sordf_columnar::{BufferPool, DiskManager, PoolStats};
pub use sordf_engine::planner::{PlanInfo, StepInfo};
pub use sordf_engine::{CancellationToken, ExecConfig, ParallelConfig, PlanScheme, StopReason};
use sordf_model::{
    ntriples, Dictionary, FxHashMap, FxHashSet, ModelError, Oid, Term, TermTriple, Triple,
};
use sordf_schema::{ClassId, IncrementalAssigner};
pub use sordf_schema::{DriftStats, EmergentSchema, SchemaConfig};
use sordf_storage::{
    term_oid_skolemized, visible_base, BatchResolver, ClusteredStore, DeltaStore, DeltaView,
    GenerationHandle, ReorgReport, WalKind,
};
pub use sordf_storage::{DictPin, Snapshot, StoreGeneration, SyncPolicy};

mod build;
mod durability;
mod query;
pub use build::BackgroundReorg;
use durability::{log_write, DurableState};
use query::PlanCache;
pub use query::{PlanCacheStats, QueryLang, QueryRequest, QueryResponse};

/// Every labeled crash point in the durable write paths, in rough lifecycle
/// order. The fault-injection harness iterates this catalog, killing a
/// writer process at each point (`SORDF_CRASH_POINT=<label>`, requires the
/// `crash_points` cargo feature) and asserting recovery loses no
/// acknowledged write. See `sordf_columnar::crash_point`.
pub const CRASH_POINTS: &[&str] = &[
    "wal.pre_append",
    "wal.post_append",
    "wal.pre_sync",
    "wal.post_sync",
    "snap.pre_sync",
    "snap.post_sync",
    "manifest.pre_rename",
    "manifest.post_rename",
    "checkpoint.pre_manifest",
    "checkpoint.post_manifest",
    "swap.pre_manifest",
    "swap.post_manifest",
];

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum Error {
    Io(io::Error),
    Model(ModelError),
    Sparql(sordf_sparql::ParseError),
    Sql(String),
    State(String),
    /// The execution engine failed mid-query (e.g. a page read kept failing
    /// after retries). The query is lost; the database stays usable.
    Exec(String),
    /// The request's deadline passed mid-query ([`QueryRequest::timeout`] or
    /// a token deadline). The engine stopped within one page of work; the
    /// database stays usable.
    Timeout,
    /// The request's [`CancellationToken`] was cancelled (client disconnect,
    /// explicit revoke). The engine stopped within one page of work.
    Cancelled,
    /// Admission control rejected the request before execution: too many
    /// queries already in flight, or the server is draining for shutdown.
    /// Retry after backing off.
    Overloaded(String),
}

impl Error {
    /// A stable machine-readable code for this error, independent of the
    /// human-readable message. API front ends key on these: the HTTP server
    /// maps `parse_error`/`sql_error`/`invalid_state` to 400, `timeout` to
    /// 408, `cancelled` to 499, `overloaded` to 503 and the rest to 500.
    pub fn code(&self) -> &'static str {
        match self {
            Error::Io(_) => "io_error",
            Error::Model(_) => "data_error",
            Error::Sparql(_) => "parse_error",
            Error::Sql(_) => "sql_error",
            Error::State(_) => "invalid_state",
            Error::Exec(_) => "exec_error",
            Error::Timeout => "timeout",
            Error::Cancelled => "cancelled",
            Error::Overloaded(_) => "overloaded",
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Model(e) => write!(f, "data error: {e}"),
            Error::Sparql(e) => write!(f, "{e}"),
            Error::Sql(e) => write!(f, "SQL error: {e}"),
            Error::State(e) => write!(f, "invalid state: {e}"),
            Error::Exec(e) => write!(f, "execution failed: {e}"),
            Error::Timeout => write!(f, "query timed out"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::Overloaded(e) => write!(f, "server overloaded: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Error {
        Error::Model(e)
    }
}

impl From<sordf_sparql::ParseError> for Error {
    fn from(e: sordf_sparql::ParseError) -> Error {
        Error::Sparql(e)
    }
}

/// Which storage generation a query should run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// Exhaustive permutation indexes, parse-order OIDs.
    Baseline,
    /// CS tables with parse-order OIDs (sparse segments).
    CsParseOrder,
    /// Fully self-organized: clustered OIDs, dense segments.
    Clustered,
}

/// Thresholds that drive adaptive reorganization ([`Database::maybe_reorganize`]).
/// The decision reads [`DriftStats`]: reorganize once enough writes have
/// accumulated **and** one of the drift ratios crossed its bound.
#[derive(Debug, Clone, Copy)]
pub struct ReorgPolicy {
    /// Minimum accumulated writes (inserts + tombstones) before a
    /// reorganization is even considered — reorganizing a near-empty delta
    /// is all cost, no locality.
    pub min_delta_triples: u64,
    /// Fire when (inserts + tombstones) / base exceeds this.
    pub max_delta_ratio: f64,
    /// Fire when the irregular-triple ratio (base irregular + unorganized
    /// delta, over all visible triples) exceeds this.
    pub max_irregular_ratio: f64,
    /// Fire when the fraction of delta subjects the incremental assigner
    /// could not route to any existing class exceeds this — the emergent
    /// schema itself has drifted and discovery must re-run.
    pub max_unmatched_ratio: f64,
}

impl Default for ReorgPolicy {
    fn default() -> ReorgPolicy {
        ReorgPolicy {
            min_delta_triples: 4096,
            max_delta_ratio: 0.10,
            max_irregular_ratio: 0.25,
            max_unmatched_ratio: 0.50,
        }
    }
}

impl ReorgPolicy {
    /// Fire on any pending write — tests and interactive use.
    pub fn eager() -> ReorgPolicy {
        ReorgPolicy {
            min_delta_triples: 1,
            max_delta_ratio: 0.0,
            max_irregular_ratio: 0.0,
            max_unmatched_ratio: 0.0,
        }
    }

    /// Why this policy fires on `drift`, or `None` to keep accumulating.
    pub fn trigger_reason(&self, drift: &DriftStats) -> Option<String> {
        let writes = drift.n_delta_inserts + drift.n_tombstones;
        if writes < self.min_delta_triples {
            return None;
        }
        if drift.delta_ratio() > self.max_delta_ratio {
            return Some(format!(
                "delta ratio {:.4} > {:.4}",
                drift.delta_ratio(),
                self.max_delta_ratio
            ));
        }
        if drift.irregular_ratio() > self.max_irregular_ratio {
            return Some(format!(
                "irregular ratio {:.4} > {:.4}",
                drift.irregular_ratio(),
                self.max_irregular_ratio
            ));
        }
        if drift.unmatched_subjects > 0 && drift.unmatched_ratio() > self.max_unmatched_ratio {
            return Some(format!(
                "unmatched subject ratio {:.4} > {:.4}",
                drift.unmatched_ratio(),
                self.max_unmatched_ratio
            ));
        }
        None
    }
}

/// What a reorganization ([`Database::maybe_reorganize`],
/// [`Database::reorganize_async`]) decided and did.
#[derive(Debug, Clone)]
pub struct ReorgOutcome {
    /// Did the policy fire (or was the reorganization unconditional)?
    pub fired: bool,
    /// Was a fresh generation actually swapped in? `false` when the rebuild
    /// was superseded by a concurrent bulk load / explicit build, which
    /// invalidated the snapshot it was built from.
    pub swapped: bool,
    /// The policy threshold that fired, if any.
    pub reason: Option<String>,
    /// Drift at decision time.
    pub drift_before: DriftStats,
    /// Irregular-triple ratio of the fresh clustered generation (only when
    /// swapped and the database is organized).
    pub irregular_ratio_after: Option<f64>,
    /// The clustering report of the fresh generation, if swapped.
    pub report: Option<ReorgReport>,
}

/// Write-path bookkeeping between reorganizations: the incremental CS
/// assigner plus the routing decisions it made for delta-new subjects.
struct WriteState {
    assigner: IncrementalAssigner,
    /// Delta-new subjects (not in the base assignment): the union of their
    /// inserted property sets, sorted + deduplicated.
    pending_props: FxHashMap<Oid, Vec<Oid>>,
    /// Subjects the assigner routed to an existing class. Shared with the
    /// SQL requests that pinned it: a reader clones the pointer, a writer
    /// copies the table only while a reader still holds the old one.
    pending_class: Arc<FxHashMap<Oid, ClassId>>,
    /// Pending delta triples per class (base-assigned or routed subjects).
    per_class_fill: Vec<u64>,
}

/// The mutable core the state lock protects. Everything a query needs is
/// cloned *out* of here at query start (generation handle + delta view);
/// writers mutate under the lock; a generation swap replaces `gen` and
/// `delta` wholesale.
struct State {
    /// The current generation. Queries clone the handle; rebuilds pin it.
    gen: GenerationHandle,
    /// Pending writes since the last (re)build: insert runs + tombstones,
    /// snapshot-sequenced. Queries merge this with the base generations.
    delta: DeltaStore,
    /// Incremental CS routing state for the pending writes.
    write: Option<WriteState>,
    /// The schema configuration of the last discovery — reused for
    /// incremental routing admissibility and for re-discovery during
    /// reorganization, so a custom config survives the lifecycle.
    schema_cfg: SchemaConfig,
    /// Bumped whenever `gen` is replaced or its base content changes. A
    /// rebuild records the epoch it pinned; the swap refuses (is
    /// *superseded*) if the epoch moved, because its input snapshot no
    /// longer describes the base.
    epoch: u64,
    /// The epoch claimed by an in-flight rebuild (`None` when idle). At
    /// most one rebuild runs at a time.
    rebuild: Option<u64>,
    /// WAL + manifest when the database is durable; `None` for in-memory /
    /// cache-only databases (and while recovery rebuilds the layouts: it
    /// commits the recovered state once, as a fresh pair, at the end).
    durable: Option<DurableState>,
}

/// Shared interior of [`Database`]: everything queries, writers and the
/// background rebuild worker touch.
struct DbInner {
    dm: Arc<DiskManager>,
    pool: BufferPool,
    state: Mutex<State>,
    /// Optimized physical plans keyed on query *shape* (normalized BGP +
    /// select/filter structure with constants abstracted + generation +
    /// scheme + zone maps). Epoch-stamped: a generation swap or base change
    /// bumps [`State::epoch`], and the first lookup under the new epoch
    /// clears the cache — cached plans reference OIDs of the pinned
    /// dictionary, which a swap renumbers. Pending delta writes do *not*
    /// bump the epoch: a cached plan stays correct under writes (the plan
    /// is executable against any snapshot), merely possibly stale-optimal
    /// until the next swap re-plans with drift-adjusted statistics.
    plans: Mutex<PlanCache>,
    /// Operator counters summed over every query executed through this
    /// handle's store ([`Database::scan_stats`]).
    scans: sordf_engine::ExecStats,
}

/// Per-component resident-byte accounting (see [`Database::memory_stats`]):
/// page bytes and the allocated capacity of every in-memory structure;
/// allocator rounding and the internal slack of hash tables (buckets past
/// what their `capacity()` reports) are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Dictionary pools: IRIs, blank nodes and string literals — each a
    /// front-coded frozen run (with its rank maps) plus an append tail and
    /// the tail's hash index.
    pub dict_bytes: u64,
    /// The staging triple list: the capacity of the load-order
    /// `Vec<Triple>` while nothing is built, 0 once a layout is — a built
    /// generation holds each triple once, in its layouts
    /// (`StoreGeneration::triples`).
    pub base_triples_bytes: u64,
    /// Encoded column/index pages across every built layout (baseline
    /// permutations, CS tables, clustered segments and their irregular
    /// remainders) — the bytes a full scan must touch.
    pub column_bytes: u64,
    /// What those same pages would occupy under plain (uncompressed)
    /// encoding; `column_plain_bytes / column_bytes` is the column-store
    /// compression ratio.
    pub column_plain_bytes: u64,
    /// Pending delta writes (insert runs + tombstones).
    pub delta_bytes: u64,
    /// Visible triples backing the `bytes_per_triple` ratio.
    pub n_triples: u64,
    /// Column bytes split by layout family (`column_bytes` is their sum):
    /// baseline permutations, CS-table segments, clustered segments, and
    /// the irregular remainders of both table stores.
    pub classes: [ClassBytes; 4],
    /// Allocated bytes of the front-coded frozen string run — the
    /// dictionary-side analogue of `column_bytes` (0 before the first
    /// string sort).
    pub dict_string_bytes: u64,
    /// What that frozen run would occupy stored as plain `String`s.
    pub dict_string_plain_bytes: u64,
}

/// Encoded vs plain-counterfactual bytes of one column layout family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBytes {
    /// Layout family: `baseline`, `cs_tables`, `clustered` or `irregular`.
    pub name: &'static str,
    /// Bytes the encoded pages occupy.
    pub encoded: u64,
    /// Bytes the same pages would occupy unencoded.
    pub plain: u64,
}

impl ClassBytes {
    /// Compression ratio (`plain / encoded`); 1.0 when the class is empty.
    pub fn ratio(&self) -> f64 {
        if self.encoded == 0 {
            1.0
        } else {
            self.plain as f64 / self.encoded as f64
        }
    }
}

impl MemoryStats {
    /// Everything accounted, summed.
    pub fn total_bytes(&self) -> u64 {
        self.dict_bytes + self.base_triples_bytes + self.column_bytes + self.delta_bytes
    }

    /// Resident bytes per visible triple (the paper's headline storage
    /// metric); 0.0 on an empty store.
    pub fn bytes_per_triple(&self) -> f64 {
        if self.n_triples == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.n_triples as f64
        }
    }

    /// Column-store compression ratio (`plain / encoded`); 1.0 when nothing
    /// is built.
    pub fn column_compression_ratio(&self) -> f64 {
        if self.column_bytes == 0 {
            1.0
        } else {
            self.column_plain_bytes as f64 / self.column_bytes as f64
        }
    }
}

/// What one query pins at query start: a generation handle, a pin on that
/// generation's dictionary and the delta view of its write snapshot.
/// Everything is owned/shared — a concurrent swap cannot invalidate it.
#[must_use = "bind the Pin for the query's lifetime; it keeps the pinned generation alive"]
struct Pin {
    gen: GenerationHandle,
    dict: DictPin,
    delta: Option<Arc<DeltaView>>,
    /// The [`State::epoch`] observed at pin time (plan-cache stamping).
    epoch: u64,
}

impl DbInner {
    /// Pin the current generation + delta view (or a historical view for a
    /// pinned snapshot). The state lock is held only long enough to clone
    /// two `Arc`s (plus O(delta) when materializing a historical view).
    // lock-order: acquires(db_state, dict)
    fn pin(&self, snap: Option<Snapshot>) -> Pin {
        let (gen, delta, epoch) = {
            let st = self.state.lock();
            let delta = match snap {
                Some(s) if s.seq() != st.delta.seq() => {
                    let v = st.delta.view_at(s);
                    if v.is_empty() {
                        None
                    } else {
                        Some(Arc::new(v))
                    }
                }
                _ => st.delta.current_view_arc(),
            };
            (Arc::clone(&st.gen), delta, st.epoch)
        };
        let dict = gen.pin_dict();
        Pin {
            gen,
            dict,
            delta,
            epoch,
        }
    }

    /// [`pin`](Self::pin), plus a share of the incremental assigner's
    /// routing table (delta-new subject → class). The SQL compiler uses it
    /// to widen each table's segment restriction so pending inserts stay
    /// visible; both are captured under one state-lock acquisition so the
    /// routing is consistent with the pinned delta view, and the lock is
    /// held for pointer clones only, however many subjects are routed.
    // lock-order: acquires(db_state, dict)
    fn pin_with_routing(&self, snap: Option<Snapshot>) -> (Pin, Arc<FxHashMap<Oid, ClassId>>) {
        let (gen, delta, epoch, routed) = {
            let st = self.state.lock();
            let delta = match snap {
                Some(s) if s.seq() != st.delta.seq() => {
                    let v = st.delta.view_at(s);
                    if v.is_empty() {
                        None
                    } else {
                        Some(Arc::new(v))
                    }
                }
                _ => st.delta.current_view_arc(),
            };
            let routed = st
                .write
                .as_ref()
                .map(|w| Arc::clone(&w.pending_class))
                .unwrap_or_default();
            (Arc::clone(&st.gen), delta, st.epoch, routed)
        };
        let dict = gen.pin_dict();
        (
            Pin {
                gen,
                dict,
                delta,
                epoch,
            },
            routed,
        )
    }

    // lock-order: acquires(db_state)
    fn drift_stats(&self) -> DriftStats {
        drift_stats_locked(&self.state.lock())
    }
}

/// The self-organizing RDF database.
///
/// Thread-safe with interior mutability: queries take `&self` and *pin*
/// the generation they run against; writes also take `&self` and serialize
/// on an internal state lock.
pub struct Database {
    inner: Arc<DbInner>,
}

impl Database {
    /// A database backed by a temp file (deleted on drop).
    pub fn in_temp_dir() -> Result<Database, Error> {
        Ok(Database::with_disk(Arc::new(DiskManager::temp()?)))
    }

    /// A database backed by the given file (truncated).
    pub fn create(path: &Path) -> Result<Database, Error> {
        Ok(Database::with_disk(Arc::new(DiskManager::create(path)?)))
    }

    fn with_disk(dm: Arc<DiskManager>) -> Database {
        let pool = BufferPool::new(Arc::clone(&dm), 4096); // 256 MiB cache
        Database {
            inner: Arc::new(DbInner {
                dm,
                pool,
                plans: Mutex::new(PlanCache::default()),
                scans: sordf_engine::ExecStats::default(),
                state: Mutex::new(State {
                    gen: Arc::new(StoreGeneration::staging(Dictionary::new(), Vec::new())),
                    delta: DeltaStore::new(),
                    write: None,
                    schema_cfg: SchemaConfig::default(),
                    epoch: 0,
                    rebuild: None,
                    durable: None,
                }),
            }),
        }
    }

    /// Number of insert runs currently in the delta store.
    // lock-order: acquires(db_state)
    pub fn delta_runs(&self) -> usize {
        self.inner.state.lock().delta.n_runs()
    }

    // ---- loading -----------------------------------------------------------

    /// Bulk-load an N-Triples document into the staging set. Collapses any
    /// pending delta writes into the base first, then invalidates built
    /// stores (the next build sees everything). For incremental writes after
    /// a build, use [`Database::insert_ntriples`].
    pub fn load_ntriples(&self, text: &str) -> Result<usize, Error> {
        let parsed = ntriples::parse_document(text)?;
        self.load_terms(&parsed)
    }

    /// Bulk-load term triples from a generator. Same semantics as
    /// [`Database::load_ntriples`].
    // lock-order: acquires(db_state)
    pub fn load_terms(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        load_terms_locked(&mut st, &self.inner.pool, triples)
    }

    /// Number of visible triples: base triples minus tombstoned ones, plus
    /// visible delta inserts.
    // lock-order: acquires(db_state)
    pub fn n_triples(&self) -> usize {
        let st = self.inner.state.lock();
        match st.delta.current_view() {
            None => st.gen.n_base(),
            Some(view) => {
                // O(tombstones · log base): each tombstone hides every
                // occurrence the base holds (none, for a tombstone that only
                // ever killed delta inserts), found by a lookup in the
                // layout.
                let pool = &self.inner.pool;
                let deleted_base: usize = view
                    .tombstones()
                    .iter()
                    .map(|&t| st.gen.base_occurrences(pool, t))
                    .sum();
                st.gen.n_base() - deleted_base + view.n_inserts()
            }
        }
    }

    /// Pin the current generation's dictionary. Holding a pin never blocks
    /// (or deadlocks) anything: the dictionary interns through `&self`
    /// (append-only pools, lock-free reads), so writers grow it in place
    /// while pins are open, and a generation swap installs a new dictionary
    /// outright. A pin observes terms interned into its generation after it
    /// was taken (the OIDs it already resolved never move); it stops
    /// following the live store only once a swap replaces the generation.
    // lock-order: acquires(db_state)
    pub fn dict(&self) -> DictPin {
        let gen = Arc::clone(&self.inner.state.lock().gen);
        gen.pin_dict()
    }

    // ---- writes (the delta path) -------------------------------------------

    /// Insert an N-Triples document. Before any generation is built this is
    /// plain staging ([`Database::load_ntriples`]); afterwards the triples
    /// land in the delta store — sorted in-memory runs the query engine
    /// merges with the base scans — and each inserted subject is routed
    /// against the discovered schema for drift tracking. No built column is
    /// touched; call [`Database::maybe_reorganize`] (or let a background
    /// reorganization run) to fold the delta into a fresh organized
    /// generation when drift warrants it.
    pub fn insert_ntriples(&self, text: &str) -> Result<usize, Error> {
        let parsed = ntriples::parse_document(text)?;
        self.insert_terms(&parsed)
    }

    /// Insert term triples (the [`Database::insert_ntriples`] of generators).
    // lock-order: acquires(db_state)
    pub fn insert_terms(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        if triples.is_empty() {
            return Ok(0);
        }
        let mut st = self.inner.state.lock();
        if !st.gen.any_built() {
            return load_terms_locked(&mut st, &self.inner.pool, triples);
        }
        let st = &mut *st;
        let mut encoded = encode_batch(&st.gen.dict, triples)?;
        // Write-ahead: the batch reaches the log (and, under Always, the
        // disk) before any in-memory structure sees it.
        log_write(st, WalKind::Insert, &encoded)?;
        // SPO order groups the batch by subject for the router, and is the
        // order the delta run is kept in anyway.
        encoded.sort_unstable();
        let strings_appended =
            st.gen.clustered.is_some() && st.gen.dict.n_strings() > st.gen.strings_sorted_len;
        route_inserts(
            &mut st.write,
            st.gen.schema.as_deref(),
            &st.schema_cfg,
            &encoded,
        );
        if strings_appended {
            st.delta.set_strings_appended();
        }
        let _ = st.delta.insert_run(encoded);
        Ok(triples.len())
    }

    /// Delete exact triples (RDF set semantics: every visible occurrence of
    /// each triple is removed). Unknown terms match nothing. Deletes are
    /// tombstones — base columns are untouched; scans filter. Returns the
    /// number of distinct triples actually deleted.
    // lock-order: acquires(db_state, dict)
    pub fn delete_triples(&self, triples: &[TermTriple]) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        // A triple with an unknown term matches nothing stored.
        let mut resolver = BatchResolver::new(&st.gen.dict);
        let mut targets: Vec<Triple> = triples.iter().filter_map(|t| resolver.lookup(t)).collect();
        targets.sort_unstable();
        targets.dedup();
        delete_encoded_locked(&mut st, &self.inner.pool, targets)
    }

    /// Delete every visible triple matching the pattern (`None` = wildcard).
    /// Returns the number of distinct triples deleted. With a bound subject
    /// on a built generation the candidates are that subject's range of the
    /// base (a lookup in the built layout) and of the pending inserts; a
    /// pattern with an unbound subject passes over the whole base and
    /// delta.
    // lock-order: acquires(db_state, dict)
    pub fn delete_matching(
        &self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Result<usize, Error> {
        let mut st = self.inner.state.lock();
        let (s, p, o) = {
            let dict = st.gen.dict.as_ref();
            let enc = |t: Option<&Term>| -> Result<Option<Oid>, ()> {
                match t {
                    None => Ok(None),
                    Some(term) => match term_oid_skolemized(dict, term) {
                        Some(oid) => Ok(Some(oid)),
                        None => Err(()), // unknown term: nothing can match
                    },
                }
            };
            match (enc(s), enc(p), enc(o)) {
                (Ok(s), Ok(p), Ok(o)) => (s, p, o),
                _ => return Ok(0),
            }
        };
        let matches = |t: &Triple| {
            s.map_or(true, |x| t.s == x)
                && p.map_or(true, |x| t.p == x)
                && o.map_or(true, |x| t.o == x)
        };
        let pool = &self.inner.pool;
        let mut targets: Vec<Triple> = {
            let view = st.delta.current_view();
            let visible = |t: &Triple| view.map_or(true, |d| !d.is_deleted(*t)) && matches(t);
            let (mut targets, pending) = match s {
                Some(s) => {
                    let mut rows = Vec::new();
                    st.gen.base_of_subject(pool, s, &mut rows);
                    rows.retain(visible);
                    (rows, view.map(|d| d.inserts_of_subject(s)))
                }
                None => (
                    st.gen.base(pool).iter().copied().filter(visible).collect(),
                    view.map(|d| d.inserts().to_vec()),
                ),
            };
            targets.extend(pending.unwrap_or_default().into_iter().filter(matches));
            targets
        };
        targets.sort_unstable();
        targets.dedup();
        delete_encoded_locked(&mut st, pool, targets)
    }

    /// A snapshot of the current write sequence. Queries pinned to it via
    /// [`Database::query_snapshot`] see exactly the writes applied so far —
    /// later inserts and deletes are invisible to them (MVCC-lite: the delta
    /// store keeps every version until a reorganization folds it into the
    /// base; snapshots taken at or after a background rebuild's pin stay
    /// valid across the swap, older ones are clamped to the fold point).
    // lock-order: acquires(db_state)
    pub fn snapshot(&self) -> Snapshot {
        self.inner.state.lock().delta.snapshot()
    }

    /// Incremental-routing drift statistics: how far the live data has
    /// diverged from the organized base generation.
    pub fn drift_stats(&self) -> DriftStats {
        self.inner.drift_stats()
    }

    /// Per-component resident-byte accounting of the current state: the
    /// dictionary, the staging triple list, every built layout's encoded pages
    /// (with their plain-encoding counterfactual for the compression
    /// ratio) and the pending delta. See [`MemoryStats`].
    // lock-order: acquires(db_state)
    pub fn memory_stats(&self) -> MemoryStats {
        let st = self.inner.state.lock();
        let class = |name, encoded: usize, plain: usize| ClassBytes {
            name,
            encoded: encoded as u64,
            plain: plain as u64,
        };
        let mut classes = [
            class("baseline", 0, 0),
            class("cs_tables", 0, 0),
            class("clustered", 0, 0),
            class("irregular", 0, 0),
        ];
        if let Some(b) = &st.gen.baseline {
            classes[0] = class("baseline", b.used_bytes(), b.plain_bytes());
        }
        let cs = st.gen.cs_parse_order.iter().map(|(s, _)| (1usize, s));
        let clustered = st.gen.clustered.iter().map(|s| (2usize, s));
        for (i, store) in cs.chain(clustered) {
            classes[i].encoded += store.segment_used_bytes() as u64;
            classes[i].plain += store.segment_plain_bytes() as u64;
            classes[3].encoded += store.irregular.used_bytes() as u64;
            classes[3].plain += store.irregular.plain_bytes() as u64;
        }
        let (dict_enc, dict_plain) = st.gen.dict.string_front_coding_bytes();
        MemoryStats {
            dict_bytes: st.gen.dict.approx_bytes().total(),
            base_triples_bytes: (st.gen.triples.capacity() * std::mem::size_of::<Triple>()) as u64,
            column_bytes: classes.iter().map(|c| c.encoded).sum(),
            column_plain_bytes: classes.iter().map(|c| c.plain).sum(),
            delta_bytes: st.delta.approx_bytes(),
            n_triples: st.gen.n_base() as u64
                + st.delta.current_view().map_or(0, |v| v.n_inserts() as u64),
            classes,
            dict_string_bytes: dict_enc,
            dict_string_plain_bytes: dict_plain,
        }
    }

    /// The discovered schema, if any.
    // lock-order: acquires(db_state)
    pub fn schema(&self) -> Option<Arc<EmergentSchema>> {
        self.inner.state.lock().gen.schema.clone()
    }

    /// The clustering report, if self-organized.
    // lock-order: acquires(db_state)
    pub fn reorg_report(&self) -> Option<ReorgReport> {
        self.inner.state.lock().gen.reorg_report.clone()
    }

    /// The clustered store, if self-organized.
    // lock-order: acquires(db_state)
    pub fn clustered_store(&self) -> Option<Arc<ClusteredStore>> {
        self.inner.state.lock().gen.clustered.clone()
    }

    /// Render the SQL view of the emergent schema.
    pub fn ddl(&self) -> Result<String, Error> {
        let pin = self.inner.pin(None);
        let schema = pin
            .gen
            .schema
            .as_ref()
            .ok_or(Error::State("no schema discovered yet".into()))?;
        Ok(schema.render_ddl(&pin.dict))
    }

    // ---- querying ----------------------------------------------------------

    /// Drop the page cache: the next query runs *cold*.
    pub fn drop_cache(&self) {
        self.inner.pool.clear();
    }

    /// Buffer pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// Operator counters summed over every query executed since this store
    /// was opened: rows and row-pages the scans *covered* (`rows_scanned`,
    /// `pages_scanned`), pages and column pages their zone maps spared
    /// (`zonemap_pages_skipped`, `column_pages_skipped`), joins by kind.
    /// What `GET /status` reports under `"scans"`.
    pub fn scan_stats(&self) -> sordf_engine::context::StatsSnapshot {
        self.inner.scans.snapshot()
    }

    /// Page-file occupancy as `(high-water page count, free-listed pages)`.
    /// The difference is the pages holding live column data — the number
    /// the generation GC keeps bounded across rebuild swaps (a swapped-out
    /// generation's extents return to the free list when its last pin
    /// drops, and new builds reuse them).
    pub fn disk_pages(&self) -> (u64, usize) {
        (self.inner.dm.n_pages(), self.inner.dm.n_free_pages())
    }

    /// The underlying buffer pool (advanced use: custom execution contexts,
    /// benchmark instrumentation).
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    /// Run every structural invariant checker over the live state: buffer
    /// pool accounting, generation/dictionary consistency and delta-store
    /// ordering. Panics on any violation. Debug builds run these
    /// automatically on the write path; stress tests call this explicitly
    /// so release-mode runs are covered too.
    // lock-order: acquires(db_state)
    pub fn validate_invariants(&self) {
        self.inner.pool.check_invariants();
        let st = self.inner.state.lock();
        st.gen.debug_validate();
        st.delta.debug_validate();
    }
}

impl Drop for Database {
    // lock-order: acquires(db_state)
    fn drop(&mut self) {
        // A clean shutdown flushes any policy-deferred WAL tail; a failure
        // here only widens the loss window back to what the policy already
        // allowed, so it is not surfaced from Drop.
        if let Some(d) = self.inner.state.lock().durable.as_mut() {
            let _ = d.wal.sync();
        }
    }
}

// ---- state helpers (all run under the state lock) --------------------------

/// The newest generation built in `gen`.
fn newest_generation(gen: &StoreGeneration) -> Result<Generation, Error> {
    if gen.clustered.is_some() {
        Ok(Generation::Clustered)
    } else if gen.cs_parse_order.is_some() {
        Ok(Generation::CsParseOrder)
    } else if gen.baseline.is_some() {
        Ok(Generation::Baseline)
    } else {
        Err(Error::State(
            "no storage built; load data and call self_organize()".into(),
        ))
    }
}

fn drift_stats_locked(st: &State) -> DriftStats {
    let n_base_irregular = match (&st.gen.clustered, &st.gen.cs_parse_order) {
        (Some(store), _) => store.irregular.len() as u64,
        (None, Some((store, _))) => store.irregular.len() as u64,
        _ => 0,
    };
    let view = st.delta.current_view();
    let (matched, pending, fill) = match &st.write {
        Some(w) => (
            w.pending_class.len() as u64,
            w.pending_props.len() as u64,
            w.per_class_fill.clone(),
        ),
        None => (0, 0, Vec::new()),
    };
    DriftStats {
        n_base_triples: st.gen.n_base() as u64,
        n_base_irregular,
        n_delta_inserts: view.map_or(0, |v| v.n_inserts() as u64),
        n_tombstones: st.delta.n_tombstones() as u64,
        matched_subjects: matched,
        unmatched_subjects: pending.saturating_sub(matched),
        per_class_fill: fill,
    }
}

/// Encode one write batch under `dict`, interning unseen terms. The
/// dictionary interns through `&self` (append-only pools behind short
/// internal writer locks, lock-free reads), so a pin held anywhere — even
/// on the writing thread itself — can never block or deadlock a writer:
/// the pools grow in place and pinned readers simply observe the appended
/// entries, while every OID they already resolved stays put.
fn encode_batch(dict: &Dictionary, triples: &[TermTriple]) -> Result<Vec<Triple>, Error> {
    let mut resolver = BatchResolver::new(dict);
    let mut encoded = Vec::with_capacity(triples.len());
    for t in triples {
        encoded.push(resolver.encode(t)?);
    }
    Ok(encoded)
}

/// Stage `triples` into the base set: read a built base back into a
/// staging list with pending writes folded in — the visible base in SPO
/// order, then the visible inserts in run order — append, and invalidate
/// built stores (the next build sees everything).
fn load_terms_locked(
    st: &mut State,
    pool: &BufferPool,
    triples: &[TermTriple],
) -> Result<usize, Error> {
    let encoded = encode_batch(&st.gen.dict, triples)?;
    // Log after the encode proves the batch well-formed (so recovery can
    // never trip over a record the live path rejected) but before any
    // visible mutation.
    log_write(st, WalKind::Load, &encoded)?;
    if st.gen.any_built() {
        let base = st.gen.base(pool).into_owned();
        let kept = if st.delta.is_empty() {
            base
        } else {
            let mut kept: Vec<Triple> =
                visible_base(base.into_iter(), st.delta.current_view()).collect();
            kept.extend(st.delta.visible_inserts());
            st.delta = DeltaStore::new();
            kept
        };
        Arc::make_mut(&mut st.gen).triples = Arc::new(kept);
    }
    let gen = Arc::make_mut(&mut st.gen);
    Arc::make_mut(&mut gen.triples).extend(encoded);
    gen.baseline = None;
    gen.schema = None;
    gen.cs_parse_order = None;
    gen.clustered = None;
    gen.reorg_report = None;
    st.write = None;
    st.epoch += 1;
    Ok(triples.len())
}

/// Delete already-encoded triples that are currently visible: tombstones on
/// a built generation, plain removal while staging.
fn delete_encoded_locked(
    st: &mut State,
    pool: &BufferPool,
    targets: Vec<Triple>,
) -> Result<usize, Error> {
    if targets.is_empty() {
        return Ok(0);
    }
    if !st.gen.any_built() {
        return delete_staged_locked(st, targets);
    }
    // A target is visible when it sits in the base untombstoned or among
    // the delta's visible inserts: a lookup of its subject's home in the
    // built layout (a column cell, a side-table range, the irregular
    // triples) and a binary search of the delta — O(batch · log n),
    // whatever the store holds.
    let view = st.delta.current_view();
    let visible: Vec<Triple> = targets
        .into_iter()
        .filter(|&t| {
            (st.gen.base_occurrences(pool, t) > 0 && !view.is_some_and(|d| d.is_deleted(t)))
                || view.is_some_and(|d| {
                    d.insert_pairs_for(t.p, Some((t.s.raw(), t.s.raw())))
                        .any(|(_, o)| o == t.o)
                })
        })
        .collect();
    if visible.is_empty() {
        return Ok(0);
    }
    // Log the *resolved* visible triples, as they are: recovery tombstones
    // exactly this set, and zero-match deletes (skipped above) never
    // consume a log sequence — keeping the log and the delta advancing in
    // lockstep.
    log_write(st, WalKind::Delete, &visible)?;
    let n = visible.len();
    let _ = st.delta.delete(&visible);
    unroute_retired(&mut st.write, st.delta.current_view(), &visible);
    Ok(n)
}

/// Un-route the delta-new subjects of a delete batch whose last pending
/// triple just went: with nothing of theirs left in the delta they are no
/// longer drift ([`DriftStats`] counts the routing tables) and no longer
/// belong in the table the SQL view widens its segment restrictions with.
/// A subject that keeps some pending triple keeps its route.
fn unroute_retired(write: &mut Option<WriteState>, view: Option<&DeltaView>, deleted: &[Triple]) {
    let Some(w) = write else { return };
    let mut prev = None;
    for t in deleted {
        // Batches arrive grouped by subject: one look per group.
        if prev.replace(t.s) == Some(t.s) {
            continue;
        }
        let Some(props) = w.pending_props.get(&t.s) else {
            continue; // base-assigned subject: never routed
        };
        let s = t.s.raw();
        if !props
            .iter()
            .any(|&p| view.is_some_and(|v| v.has_inserts_in(p, s, s)))
        {
            w.pending_props.remove(&t.s);
            if w.pending_class.contains_key(&t.s) {
                Arc::make_mut(&mut w.pending_class).remove(&t.s);
            }
        }
    }
}

/// Staging mode (nothing built, base in load order): remove the targets
/// from the base set directly.
fn delete_staged_locked(st: &mut State, targets: Vec<Triple>) -> Result<usize, Error> {
    log_write(st, WalKind::Delete, &targets)?;
    let set: FxHashSet<Triple> = targets.into_iter().collect();
    let gen = Arc::make_mut(&mut st.gen);
    let triples = Arc::make_mut(&mut gen.triples);
    let before = triples.len();
    triples.retain(|t| !set.contains(t));
    st.epoch += 1;
    Ok(before - triples.len())
}

/// Route one insert batch's subjects through the incremental assigner
/// (drift bookkeeping only — queries read delta triples through the merged
/// scans regardless of routing). `encoded` is SPO-sorted, so each subject
/// is one run of it. Shared by the live write path and the catch-up fold of
/// a generation swap (which replays against the *new* schema).
fn route_inserts(
    write: &mut Option<WriteState>,
    schema: Option<&EmergentSchema>,
    cfg: &SchemaConfig,
    encoded: &[Triple],
) {
    let Some(schema) = schema else { return };
    let w = write.get_or_insert_with(|| WriteState {
        assigner: IncrementalAssigner::new(schema),
        pending_props: FxHashMap::default(),
        pending_class: Arc::default(),
        per_class_fill: vec![0; schema.classes.len()],
    });
    debug_assert!(encoded.windows(2).all(|w| w[0] <= w[1]));
    let mut rest = encoded;
    while let Some(first) = rest.first() {
        let run;
        (run, rest) = rest.split_at(rest.partition_point(|t| t.s == first.s));
        let (s, n) = (first.s, run.len() as u64);
        if let Some(cid) = schema.class_of(s) {
            // Known subject: its delta triples will cluster back into
            // its class at the next reorganization.
            w.per_class_fill[cid.0 as usize] += n;
            continue;
        }
        let mut props: Vec<Oid> = run.iter().map(|t| t.p).collect();
        props.dedup(); // sorted within the run
        let merged: Vec<Oid> = match w.pending_props.get_mut(&s) {
            Some(prev) => {
                prev.extend(props);
                prev.sort_unstable();
                prev.dedup();
                prev.clone()
            }
            None => {
                w.pending_props.insert(s, props.clone());
                props
            }
        };
        match w.assigner.route(&merged, cfg) {
            Some(cid) => {
                if w.pending_class.get(&s) != Some(&cid) {
                    Arc::make_mut(&mut w.pending_class).insert(s, cid);
                }
                w.per_class_fill[cid.0 as usize] += n;
            }
            None => {
                if w.pending_class.contains_key(&s) {
                    Arc::make_mut(&mut w.pending_class).remove(&s);
                }
            }
        }
    }
}

/// Render a panic payload as a message (best effort).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

/// Compile-time thread-safety audit: one `Database` serves concurrent
/// queries *and writes* from many threads (shared pool, per-query pins),
/// and the background-reorg machinery crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<StoreGeneration>();
    assert_send::<BackgroundReorg>();
    assert_send::<Error>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{
        begin_rebuild, build_generation, finish_rebuild, release_rebuild_claim, Built, SNAP_TMP,
    };
    use sordf_model::{DictPool, Term};
    use sordf_storage::{BaseLayout, Manifest};
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

    fn sample_triples() -> Vec<TermTriple> {
        let mut triples = Vec::new();
        for i in 0..50u64 {
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

    fn sample_db() -> Database {
        let db = Database::in_temp_dir().unwrap();
        db.load_terms(&sample_triples()).unwrap();
        db
    }

    #[test]
    fn lifecycle_and_query() {
        let db = sample_db();
        db.build_baseline().unwrap();
        let rs = db
            .execute(
                &QueryRequest::sparql(
                    "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }",
                )
                .generation(Generation::Baseline)
                .config(ExecConfig {
                    scheme: PlanScheme::Default,
                    zonemaps: false,
                    ..Default::default()
                }),
            )
            .unwrap()
            .results;
        assert_eq!(rs.len(), 5);

        db.self_organize().unwrap();
        let rs2 = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs2.len(), 5);
        assert!(db.schema().unwrap().coverage > 0.99);
        assert!(db.reorg_report().is_some());
    }

    #[test]
    fn cold_vs_hot_pool_stats() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s WHERE { ?s <http://ex/qty> ?q . FILTER(?q < 5) }";
        db.drop_cache();
        let req = QueryRequest::sparql(q)
            .generation(Generation::Clustered)
            .traced(true);
        let cold = db.execute(&req).unwrap();
        let hot = db.execute(&req).unwrap();
        assert!(cold.pool.unwrap().misses > 0, "cold run must read pages");
        assert_eq!(hot.pool.unwrap().misses, 0, "hot run must be fully cached");
        assert_eq!(cold.results.len(), hot.results.len());
    }

    #[test]
    fn execute_maps_tripped_tokens_to_typed_errors() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . }";
        // An already-expired deadline fails before any execution work.
        let err = db
            .execute(&QueryRequest::sparql(q).timeout(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout), "{err}");
        assert_eq!(err.code(), "timeout");
        // Explicit cancellation wins, even with an expired deadline attached.
        let token = CancellationToken::new();
        token.cancel();
        let err = db
            .execute(
                &QueryRequest::sparql(q)
                    .cancel(token)
                    .timeout(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        assert_eq!(err.code(), "cancelled");
        // An untripped token leaves the query unharmed, and tracing works
        // through the same entry point.
        let resp = db
            .execute(
                &QueryRequest::sparql(q)
                    .cancel(CancellationToken::new())
                    .timeout(Duration::from_secs(3600))
                    .traced(true),
            )
            .unwrap();
        assert_eq!(resp.results.len(), 50);
        assert!(resp.stats.unwrap().rows_scanned >= 50);
    }

    #[test]
    fn query_before_build_errors() {
        let db = Database::in_temp_dir().unwrap();
        assert!(matches!(
            db.query("SELECT ?s WHERE { ?s <http://x/p> ?o . }"),
            Err(Error::State(_))
        ));
    }

    #[test]
    fn ddl_rendering() {
        let db = sample_db();
        db.self_organize().unwrap();
        let ddl = db.ddl().unwrap();
        assert!(ddl.contains("CREATE TABLE"), "{ddl}");
        assert!(ddl.contains("qty"), "{ddl}");
    }

    #[test]
    fn plan_cache_hits_shapes_and_swap_invalidation() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let s0 = db.plan_cache_stats();
        db.query(q).unwrap();
        db.query(q).unwrap();
        let s1 = db.plan_cache_stats();
        assert_eq!(s1.misses - s0.misses, 1, "first run optimizes");
        assert!(s1.hits > s0.hits, "second run is a cache hit");
        assert!(s1.entries >= 1);

        // Same shape, different constant: constants are abstracted out of
        // the cache key, so this reuses the cached plan.
        db.query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 7) }")
            .unwrap();
        let s2 = db.plan_cache_stats();
        assert_eq!(s2.misses, s1.misses, "same shape never re-optimizes");
        assert!(s2.hits > s1.hits);

        // SQL runs the same pipeline: two queries differing only in a
        // literal are one miss, then one hit.
        let table = db.schema().unwrap().classes[0].name.clone();
        let sql = |n: u32| format!("SELECT qty FROM {table} WHERE qty = {n}");
        assert_eq!(db.sql(&sql(3)).unwrap().len(), 5);
        let sql_first = db.plan_cache_stats();
        assert_eq!(sql_first.misses, s2.misses + 1, "the SQL shape optimizes");
        assert_eq!(sql_first.hits, s2.hits);
        assert_eq!(db.sql(&sql(7)).unwrap().len(), 5);
        let s2 = db.plan_cache_stats();
        assert_eq!(
            s2.misses, sql_first.misses,
            "same SQL shape: no re-optimize"
        );
        assert_eq!(s2.hits, sql_first.hits + 1);

        // A delta write does NOT invalidate (cached plans stay correct,
        // possibly stale-optimal)...
        db.insert_ntriples(
            r#"<http://ex/itemX> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/itemX> <http://ex/sold> "1996-03-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.query(q).unwrap();
        let s3 = db.plan_cache_stats();
        assert_eq!(s3.invalidations, s2.invalidations);
        assert!(s3.hits > s2.hits);

        // ...but a background generation swap bumps the epoch and the next
        // lookup clears the cache and re-optimizes.
        let outcome = db.reorganize_async().unwrap().wait().unwrap();
        assert!(outcome.swapped, "nothing raced, the swap must land");
        db.query(q).unwrap();
        let s4 = db.plan_cache_stats();
        assert_eq!(
            s4.invalidations,
            s3.invalidations + 1,
            "swap invalidates the plan cache"
        );
        assert_eq!(s4.misses, s3.misses + 1, "post-swap run re-optimizes");
        assert_eq!(db.query(q).unwrap().len(), 6, "3 old + new itemX");
        assert_eq!(db.sql(&sql(3)).unwrap().len(), 6);
        let s5 = db.plan_cache_stats();
        assert_eq!(
            s5.misses,
            s4.misses + 1,
            "the swap dropped the SQL plan too"
        );
        assert_eq!(s5.invalidations, s4.invalidations);
    }

    #[test]
    fn memory_stats_accounts_components() {
        let db = sample_db();
        // String literals so the front-coded dictionary run is non-trivial.
        let labels: Vec<TermTriple> = (0..50u64)
            .map(|i| {
                TermTriple::new(
                    Term::iri(format!("http://ex/item{i}")),
                    Term::iri("http://ex/label"),
                    Term::str(format!("common-prefix-label-{i:04}")),
                )
            })
            .collect();
        db.load_terms(&labels).unwrap();
        let staged = db.memory_stats();
        assert!(staged.dict_bytes > 0, "staged dictionary accounted");
        assert!(staged.base_triples_bytes > 0, "the staging list accounted");
        assert_eq!(staged.column_bytes, 0, "nothing built yet");
        assert_eq!(staged.column_compression_ratio(), 1.0);

        db.self_organize().unwrap();
        let built = db.memory_stats();
        assert!(built.column_bytes > 0, "clustered segments accounted");
        assert!(
            built.column_plain_bytes >= built.column_bytes,
            "encoded pages never exceed their plain counterfactual"
        );
        assert_eq!(
            built.classes.iter().map(|c| c.encoded).sum::<u64>(),
            built.column_bytes,
            "classes partition the column bytes"
        );
        let clustered = built.classes[2];
        assert_eq!(clustered.name, "clustered");
        assert!(clustered.encoded > 0 && clustered.ratio() >= 1.0);
        assert_eq!(built.classes[0].encoded, 0, "no baseline built here");
        assert!(
            built.dict_string_bytes > 0 && built.dict_string_bytes < built.dict_string_plain_bytes,
            "front-coded strings accounted and smaller than plain"
        );
        assert!(built.bytes_per_triple() > 0.0);
        assert_eq!(
            built.base_triples_bytes, 0,
            "a built store keeps no copy of its triples beside its layouts"
        );
        assert_eq!(built.n_triples as usize, db.n_triples());
        assert_eq!(built.delta_bytes, 0, "no pending writes");

        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        let m = db.memory_stats();
        assert!(m.delta_bytes > 0, "pending writes accounted");
        assert_eq!(m.n_triples as usize, db.n_triples());
        assert_eq!(
            m.total_bytes(),
            m.dict_bytes + m.base_triples_bytes + m.column_bytes + m.delta_bytes
        );
    }

    #[test]
    fn insert_delete_after_organize() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        assert_eq!(db.query(q).unwrap().len(), 5);

        // Insert two more subjects with qty 3 (one schema-conforming with
        // both class properties, one qty-only).
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new2> <http://ex/color> <http://ex/red> .
<http://ex/new2> <http://ex/shape> <http://ex/round> .
<http://ex/new2> <http://ex/size> <http://ex/big> ."#,
        )
        .unwrap();
        assert_eq!(
            db.query(q).unwrap().len(),
            7,
            "inserts visible without rebuild"
        );

        // Delete one of the original qty=3 triples.
        let victim = TermTriple::new(
            Term::iri("http://ex/item3"),
            Term::iri("http://ex/qty"),
            Term::int(3),
        );
        assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 1);
        assert_eq!(
            db.query(q).unwrap().len(),
            6,
            "tombstone filters the base value"
        );
        // Deleting again is a no-op (already invisible).
        assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 0);

        // Parallel execution sees the identical merged store.
        let par = db
            .execute(&QueryRequest::sparql(q).parallel(ParallelConfig {
                workers: 2,
                min_morsel_pages: 1,
                min_morsel_rows: 1,
            }))
            .unwrap()
            .results;
        assert_eq!(
            par.canonical(&db.dict()),
            db.query(q).unwrap().canonical(&db.dict())
        );

        let drift = db.drift_stats();
        assert_eq!(drift.n_delta_inserts, 6);
        assert_eq!(drift.n_tombstones, 1);
        assert_eq!(
            drift.matched_subjects, 1,
            "new1 has the class's property set"
        );
        assert_eq!(
            drift.unmatched_subjects, 1,
            "new2's property set fits no class"
        );
    }

    /// Deletes un-route: a delta-new subject leaves the routing tables (and
    /// the drift counts, and the SQL view's widened restriction) when its
    /// last pending triple is retired, and stays while any remains.
    #[test]
    fn retiring_a_subjects_last_pending_triple_unroutes_it() {
        let db = sample_db();
        db.self_organize().unwrap();
        let new1 = [
            TermTriple::new(
                Term::iri("http://ex/new1"),
                Term::iri("http://ex/qty"),
                Term::int(3),
            ),
            TermTriple::new(
                Term::iri("http://ex/new1"),
                Term::iri("http://ex/sold"),
                Term::date("1996-02-01"),
            ),
        ];
        let new2 = [TermTriple::new(
            Term::iri("http://ex/new2"),
            Term::iri("http://ex/color"),
            Term::iri("http://ex/red"),
        )];
        db.insert_terms(&new1).unwrap();
        db.insert_terms(&new2).unwrap();
        let routed = |db: &Database| {
            let d = db.drift_stats();
            (d.matched_subjects, d.unmatched_subjects)
        };
        assert_eq!(routed(&db), (1, 1));
        let table = db.schema().unwrap().classes[0].name.clone();
        let sql = format!("SELECT qty FROM {table} WHERE qty = 3");
        let count = |db: &Database| db.sql(&sql).unwrap().len();
        let with_new1 = count(&db);
        assert_eq!(with_new1, 6, "five base rows + the routed new1");

        // One of new1's two triples goes: still pending, still routed.
        assert_eq!(db.delete_triples(&new1[..1]).unwrap(), 1);
        assert_eq!(routed(&db), (1, 1));
        // The last one goes: un-routed. new2 is untouched.
        assert_eq!(db.delete_triples(&new1[1..]).unwrap(), 1);
        assert_eq!(routed(&db), (0, 1));
        assert_eq!(count(&db), 5, "the SQL view no longer admits new1");
        // A pattern delete with a bound subject retires new2 the same way.
        assert_eq!(
            db.delete_matching(Some(&Term::iri("http://ex/new2")), None, None)
                .unwrap(),
            1
        );
        assert_eq!(routed(&db), (0, 0));
        // Re-inserting routes again.
        db.insert_terms(&new1).unwrap();
        assert_eq!(routed(&db), (1, 0));
        assert_eq!(count(&db), with_new1);
    }

    /// `n_triples` counts what tombstones hide by equal-range lookups in the
    /// sorted base — duplicates included, delta-only tombstones excluded —
    /// and a bound-subject `delete_matching` finds base and delta triples
    /// without a pass over either.
    #[test]
    fn n_triples_and_bound_subject_deletes_use_the_sorted_base() {
        let db = Database::in_temp_dir().unwrap();
        let mut triples = sample_triples();
        let dup = triples[0].clone();
        triples.push(dup.clone()); // bulk loads keep duplicates
        db.load_terms(&triples).unwrap();
        db.self_organize().unwrap();
        let n0 = db.n_triples();
        assert_eq!(n0, triples.len());

        // Tombstoning a duplicated base triple hides both occurrences.
        assert_eq!(db.delete_triples(std::slice::from_ref(&dup)).unwrap(), 1);
        assert_eq!(db.n_triples(), n0 - 2);
        // A tombstone that only ever killed a delta insert hides no base row.
        let fresh = TermTriple::new(
            Term::iri("http://ex/fresh"),
            Term::iri("http://ex/qty"),
            Term::int(1),
        );
        db.insert_terms(std::slice::from_ref(&fresh)).unwrap();
        assert_eq!(db.n_triples(), n0 - 1);
        assert_eq!(db.delete_triples(std::slice::from_ref(&fresh)).unwrap(), 1);
        assert_eq!(db.n_triples(), n0 - 2);

        // Bound subject: every visible triple of item3 (base) plus one
        // pending insert on it; other subjects untouched.
        let item3 = Term::iri("http://ex/item3");
        let base_of_item3 = triples.iter().filter(|t| t.s == item3).count();
        assert!(base_of_item3 > 0 && dup.s != item3);
        db.insert_terms(&[TermTriple::new(
            item3.clone(),
            Term::iri("http://ex/note"),
            Term::str("pending"),
        )])
        .unwrap();
        let before = db.n_triples();
        assert_eq!(
            db.delete_matching(Some(&item3), None, None).unwrap(),
            base_of_item3 + 1
        );
        assert_eq!(db.n_triples(), before - base_of_item3 - 1);
        // Subject and predicate bound, nothing left to match.
        assert_eq!(
            db.delete_matching(Some(&item3), Some(&Term::iri("http://ex/qty")), None)
                .unwrap(),
            0
        );
        assert_eq!(
            db.query("SELECT ?p ?o WHERE { <http://ex/item3> ?p ?o }")
                .map(|r| r.len())
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn snapshots_pin_write_history() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let snap0 = db.snapshot();
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        let snap1 = db.snapshot();
        db.delete_matching(None, Some(&Term::iri("http://ex/qty")), Some(&Term::int(3)))
            .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 0, "all qty=3 deleted");
        assert_eq!(
            db.query_snapshot(q, snap1).unwrap().len(),
            6,
            "pre-delete snapshot"
        );
        assert_eq!(
            db.query_snapshot(q, snap0).unwrap().len(),
            5,
            "pre-insert snapshot"
        );
        // Current snapshot equals the live query.
        assert_eq!(db.query_snapshot(q, db.snapshot()).unwrap().len(), 0);
    }

    #[test]
    fn maybe_reorganize_collapses_delta() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        let before = db.query(q).unwrap().canonical(&db.dict());
        let n_before = db.n_triples();

        // A lenient policy does not fire on two writes.
        let calm = db.maybe_reorganize(&ReorgPolicy::default()).unwrap();
        assert!(!calm.fired);

        let outcome = db.maybe_reorganize(&ReorgPolicy::eager()).unwrap();
        assert!(outcome.fired, "eager policy fires on any pending write");
        assert!(
            outcome.swapped,
            "nothing raced: the fresh generation swapped in"
        );
        assert!(outcome.report.is_some());
        assert_eq!(
            outcome.irregular_ratio_after,
            Some(0.0),
            "delta fully clustered in"
        );
        assert_eq!(db.n_triples(), n_before, "logical content unchanged");
        assert_eq!(db.drift_stats().n_delta_inserts, 0, "delta collapsed");
        assert_eq!(
            db.query(q).unwrap().canonical(&db.dict()),
            before,
            "results preserved"
        );
        // The new subject now lives in a class segment.
        let s = db.dict().iri_oid("http://ex/new1").unwrap();
        assert!(db.schema().unwrap().class_of(s).is_some());
        // Nothing pending: eager policy has nothing to do.
        assert!(!db.maybe_reorganize(&ReorgPolicy::eager()).unwrap().fired);
    }

    #[test]
    fn string_inserts_disable_oid_order_pushdown() {
        let db = Database::in_temp_dir().unwrap();
        let mut triples = Vec::new();
        for (i, label) in ["apple", "banana", "cherry", "damson"].iter().enumerate() {
            let s = format!("http://ex/thing{i}");
            triples.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/label"),
                Term::str(*label),
            ));
            triples.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/rank"),
                Term::int(i as i64),
            ));
        }
        db.load_terms(&triples).unwrap();
        db.self_organize().unwrap();
        let q = r#"SELECT ?s WHERE { ?s <http://ex/label> ?l . FILTER(?l < "banana") }"#;
        assert_eq!(db.query(q).unwrap().len(), 1, "only apple");
        // "azure" sorts between apple and banana but its OID is appended at
        // the end of the pool: an OID-range pushdown would miss it.
        db.insert_ntriples(
            r#"<http://ex/thing9> <http://ex/label> "azure" .
<http://ex/thing9> <http://ex/rank> "9"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 2, "apple and azure");
        // After reorganization the pool is re-sorted and pushdown is safe again.
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().len(), 2);
    }

    #[test]
    fn rebuilds_with_pending_writes_are_refused() {
        let db = sample_db();
        db.build_baseline().unwrap();
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert!(matches!(db.build_cs_tables(), Err(Error::State(_))));
        // self_organize collapses the pending writes instead of refusing.
        db.self_organize().unwrap();
        let rs = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs.len(), 6);
    }

    #[test]
    fn reorganize_rebuilds_every_live_generation() {
        let db = sample_db();
        db.self_organize().unwrap();
        db.build_cs_tables().unwrap();
        db.build_baseline().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        db.reorganize_now().unwrap();
        for generation in [
            Generation::Baseline,
            Generation::CsParseOrder,
            Generation::Clustered,
        ] {
            let rs = db
                .execute(&QueryRequest::sparql(q).generation(generation))
                .unwrap()
                .results;
            assert_eq!(rs.len(), 6, "{generation:?} must survive the reorg");
        }
    }

    #[test]
    fn baseline_generation_supports_writes() {
        let db = sample_db();
        db.build_baseline().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        assert_eq!(db.query(q).unwrap().len(), 5);
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        assert_eq!(db.query(q).unwrap().len(), 5, "one in, one out");
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().len(), 5, "rebuilt baseline agrees");
        assert!(
            db.clustered_store().is_none(),
            "reorg does not force organization"
        );
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        // Mirror of the crate-level doc example.
        let db = Database::in_temp_dir().unwrap();
        db.load_ntriples(
            r#"<http://ex/book1> <http://ex/has_author> <http://ex/author1> .
<http://ex/book1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book1> <http://ex/isbn_no> "1-56619-909-3" ."#,
        )
        .unwrap();
        db.self_organize().unwrap();
        let rs = db
            .query(
                "SELECT ?a ?n WHERE { ?b <http://ex/has_author> ?a . ?b <http://ex/isbn_no> ?n . }",
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
    }

    // ---- background reorganization -----------------------------------------

    #[test]
    fn async_reorg_swaps_and_preserves_answers() {
        let db = sample_db();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let before = db.query(q).unwrap().canonical(&db.dict());
        let handle = db.reorganize_async().unwrap();
        // Queries keep answering while the rebuild runs (pinned generation);
        // the swap may land right behind this one, so it is decoded under
        // the dictionary it ran against, not one taken afterwards.
        let during = db.execute(&QueryRequest::sparql(q)).unwrap();
        assert_eq!(during.results.canonical(&during.pin), before);
        drop(during);
        let outcome = handle.wait().unwrap();
        assert!(outcome.fired && outcome.swapped);
        assert_eq!(outcome.irregular_ratio_after, Some(0.0));
        assert_eq!(
            db.drift_stats().n_delta_inserts,
            0,
            "delta folded into the base"
        );
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), before);
        assert!(!db.reorg_in_flight());
        // Nothing pending: the eager policy has nothing to do.
        assert!(!db.maybe_reorganize(&ReorgPolicy::eager()).unwrap().fired);
    }

    /// The heart of the swap protocol, deterministically: pin + build, let
    /// writes land *mid-rebuild*, then swap — the catch-up writes must be
    /// folded into the fresh delta (re-encoded under the renumbered
    /// dictionary) and stay visible, snapshots taken mid-rebuild included.
    #[test]
    fn catch_up_writes_fold_across_swap() {
        let db = sample_db();
        // Add a second class with a sorted string column, so the swap's
        // string-pool handling is observable.
        let mut labelled = Vec::new();
        for (i, label) in ["apple", "banana", "cherry", "damson"].iter().enumerate() {
            let s = format!("http://ex/thing{i}");
            labelled.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/label"),
                Term::str(*label),
            ));
            labelled.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/rank"),
                Term::int(i as i64),
            ));
        }
        db.load_terms(&labelled).unwrap();
        db.self_organize().unwrap();
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        let lq = r#"SELECT ?s WHERE { ?s <http://ex/label> ?l . FILTER(?l < "banana") }"#;
        assert_eq!(
            db.query(lq).unwrap().len(),
            1,
            "only apple before any write"
        );
        db.insert_ntriples(
            r#"<http://ex/pre1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/pre1> <http://ex/sold> "1996-02-02"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();

        // Pin and build — but do not swap yet.
        let pin = begin_rebuild(&db.inner).unwrap();
        let built = build_generation(&db.inner.dm, &db.inner.pool, &pin).unwrap();

        // Writes that arrive *during* the rebuild: an insert with a fresh
        // string literal (interned only in the old dictionary), a
        // conforming insert, and a delete of a base triple.
        db.insert_ntriples(
            r#"<http://ex/mid1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/mid1> <http://ex/sold> "1996-02-03"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex/thing9> <http://ex/label> "azure" .
<http://ex/thing9> <http://ex/rank> "9"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        let mid_snap = db.snapshot();
        let want = db.query(q).unwrap().canonical(&db.dict());

        // Swap: catch-up fold must decode under the old dict, re-encode
        // under the new one and replay in order.
        assert!(finish_rebuild(&db.inner, pin, built).unwrap());

        assert_eq!(
            db.query(q).unwrap().canonical(&db.dict()),
            want,
            "post-swap sees catch-up"
        );
        let drift = db.drift_stats();
        assert_eq!(
            drift.n_delta_inserts, 4,
            "mid-rebuild inserts pending in the fresh delta"
        );
        assert_eq!(
            drift.n_tombstones, 2,
            "item3's two triples replayed as tombstones"
        );
        assert_eq!(
            drift.matched_subjects, 2,
            "mid1 + thing9 routed against the *new* schema"
        );
        // "azure" was interned during the rebuild: string order pushdown
        // must be disabled until the next reorg, so the filter still sees it.
        assert_eq!(db.query(lq).unwrap().len(), 2, "apple and azure");
        // The mid-rebuild snapshot survives the swap (sequence preserved).
        assert_eq!(
            db.query_snapshot(q, mid_snap)
                .unwrap()
                .canonical(&db.dict()),
            want
        );
        // The pre-swap generation's data fully folded: one more reorg
        // clusters the catch-up writes in and changes nothing.
        db.reorganize_now().unwrap();
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), want);
        assert_eq!(db.query(lq).unwrap().len(), 2);
        assert_eq!(db.drift_stats().n_delta_inserts, 0);
    }

    /// Regression: a class sub-ordered by a date column must not sort-key
    /// narrow (or zone-map prune) on that column's *base* values while the
    /// delta holds inserts for the predicate — a pending insert can fill a
    /// NULL (or out-of-range) base value, and narrowing would silently drop
    /// the row's exception bindings.
    #[test]
    fn delta_fill_survives_sort_key_narrowing() {
        let db = Database::in_temp_dir().unwrap();
        let mut triples = Vec::new();
        for i in 0..40u64 {
            let s = format!("http://ex/item{i}");
            triples.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/qty"),
                Term::int(i as i64),
            ));
            // item39 misses its date: a NULL in the (sorted) date column.
            if i < 39 {
                triples.push(TermTriple::new(
                    Term::iri(s),
                    Term::iri("http://ex/sold"),
                    Term::date(&format!("1996-01-{:02}", (i % 28) + 1)),
                ));
            }
        }
        db.load_terms(&triples).unwrap();
        db.self_organize().unwrap();
        // Fill the NULL through the delta with an in-range date.
        db.insert_ntriples(
            r#"<http://ex/item39> <http://ex/sold> "1996-01-05"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
        )
        .unwrap();
        let q = r#"SELECT ?s ?d WHERE { ?s <http://ex/qty> ?q . ?s <http://ex/sold> ?d .
            FILTER(?d <= "1996-01-10"^^<http://www.w3.org/2001/XMLSchema#date>) }"#;
        let reference = db
            .execute(
                &QueryRequest::sparql(q)
                    .generation(Generation::Clustered)
                    .config(ExecConfig {
                        scheme: PlanScheme::Default,
                        zonemaps: true,
                        ..Default::default()
                    }),
            )
            .unwrap()
            .results
            .canonical(&db.dict());
        for zonemaps in [true, false] {
            let exec = ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps,
                ..Default::default()
            };
            let got = db
                .execute(
                    &QueryRequest::sparql(q)
                        .generation(Generation::Clustered)
                        .config(exec),
                )
                .unwrap()
                .results
                .canonical(&db.dict());
            assert_eq!(got, reference, "zonemaps={zonemaps}");
            assert!(
                got.iter().any(|row| row.contains("item39")),
                "delta-filled row must not be narrowed away (zonemaps={zonemaps})"
            );
        }
        // The morsel-parallel path shares the prepared scan.
        let par = db
            .execute(&QueryRequest::sparql(q).parallel(ParallelConfig {
                workers: 2,
                min_morsel_pages: 1,
                min_morsel_rows: 1,
            }))
            .unwrap()
            .results;
        assert_eq!(par.canonical(&db.dict()), reference);
    }

    #[test]
    fn superseded_rebuild_is_abandoned() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = begin_rebuild(&db.inner).unwrap();
        let built = build_generation(&db.inner.dm, &db.inner.pool, &pin).unwrap();
        // A bulk load invalidates the pinned epoch: the swap must refuse.
        db.load_ntriples(
            r#"<http://ex/late> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert!(
            !finish_rebuild(&db.inner, pin, built).unwrap(),
            "superseded"
        );
        assert!(!db.reorg_in_flight());
        db.self_organize().unwrap();
        let rs = db
            .query("SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }")
            .unwrap();
        assert_eq!(rs.len(), 6, "the load won; the stale rebuild left no trace");
    }

    /// Regression (review finding): holding a `DictPin` across a write on
    /// the *same thread* must not deadlock — the dictionary interns through
    /// `&self`, so the pools grow in place under an open pin. The pin
    /// observes the appended terms (its generation's dictionary is append-
    /// only), and a generation swap never waits on it.
    #[test]
    fn dict_pin_held_across_writes_does_not_deadlock() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = db.dict();
        let n_before = pin.n_iris();
        let item3 = pin.iri_oid("http://ex/item3").unwrap();
        // sordf-lint: allow(L1) — this regression test deliberately holds the pin
        // across writes to assert the wait-free interning contract.
        db.insert_ntriples(
            r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        // sordf-lint: allow(L1) — deliberate: same wait-free-interning regression check.
        db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
            .unwrap();
        // sordf-lint: allow(L1) — deliberate: same wait-free-interning regression check.
        db.load_ntriples(
            r#"<http://ex/new2> <http://ex/qty> "4"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        // The generation's dictionary grew in place: the open pin sees the
        // appended terms, and every OID it already resolved stayed put.
        assert_eq!(pin.n_iris(), n_before + 2);
        assert!(pin.iri_oid("http://ex/new1").is_some());
        assert_eq!(pin.iri_oid("http://ex/item3"), Some(item3));
        drop(pin);
        let fresh = db.dict();
        // sordf-lint: allow(L1) — deliberate: reorganizing while `fresh` is held
        // asserts the swap never waits on an existing pin.
        db.self_organize().unwrap();
        // The swap installed a renumbered dictionary; `fresh` kept its
        // pre-swap snapshot alive and consistent.
        assert!(fresh.iri_oid("http://ex/new2").is_some());
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";
        // 5 originals − item3 (deleted) + new1 (inserted) = 5.
        assert_eq!(db.query(q).unwrap().len(), 5, "writes all landed");
    }

    #[test]
    fn only_one_rebuild_at_a_time() {
        let db = sample_db();
        db.self_organize().unwrap();
        let pin = begin_rebuild(&db.inner).unwrap();
        assert!(db.reorg_in_flight());
        assert!(matches!(db.reorganize_async(), Err(Error::State(_))));
        assert!(matches!(db.reorganize_now(), Err(Error::State(_))));
        let built = build_generation(&db.inner.dm, &db.inner.pool, &pin).unwrap();
        assert!(finish_rebuild(&db.inner, pin, built).unwrap());
        assert!(!db.reorg_in_flight());
        db.reorganize_now().unwrap();
    }

    // ---- durability ---------------------------------------------------------

    fn durable_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — unique temp names only.
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sordf-core-{tag}-{}-{n}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            // sordf-lint: allow(L7) — best-effort temp cleanup in a test.
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const DQ: &str = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . FILTER(?q = 3) }";

    #[test]
    fn durable_writes_survive_reopen() {
        let dir = durable_dir("reopen");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            assert!(db.is_durable());
            db.load_terms(&sample_triples()).unwrap();
            db.self_organize().unwrap();
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-01"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
            )
            .unwrap();
            let victim = TermTriple::new(
                Term::iri("http://ex/item3"),
                Term::iri("http://ex/qty"),
                Term::int(3),
            );
            assert_eq!(db.delete_triples(std::slice::from_ref(&victim)).unwrap(), 1);
            db.query(DQ).unwrap().canonical(&db.dict())
        };
        // Re-open from disk: the checkpoint restores the organized base and
        // the WAL suffix replays the insert and the delete.
        let db = Database::open(&dir).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
        // The recovered database accepts (and logs) further writes.
        db.insert_ntriples(
            r#"<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
        )
        .unwrap();
        assert_eq!(db.query(DQ).unwrap().len(), want.len() + 1);
    }

    #[test]
    fn checkpoint_rotates_the_wal_and_bounds_replay() {
        let dir = durable_dir("checkpoint");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&sample_triples()).unwrap();
            db.build_baseline().unwrap();
            // build_baseline checkpointed: the pair rotated past (0, 0).
            let m = Manifest::read(&dir).unwrap().unwrap();
            assert!(m.snap_file >= 1 && m.wal_file >= 1);
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            )
            .unwrap();
            db.checkpoint().unwrap();
            let m2 = Manifest::read(&dir).unwrap().unwrap();
            assert_eq!(m2.snap_file, m.snap_file + 1);
            assert_eq!(m2.wal_file, m.wal_file + 1);
            // Post-checkpoint writes land in the fresh WAL.
            db.insert_ntriples(
                r#"<http://ex/new2> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            )
            .unwrap();
            db.query(DQ).unwrap().canonical(&db.dict())
        };
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
    }

    #[test]
    fn background_swap_rotates_the_durable_pair() {
        let dir = durable_dir("swap");
        let _c = Cleanup(dir.clone());
        let want = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&sample_triples()).unwrap();
            db.self_organize().unwrap();
            let m = Manifest::read(&dir).unwrap().unwrap();
            db.insert_ntriples(
                r#"<http://ex/new1> <http://ex/qty> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/new1> <http://ex/sold> "1996-02-02"^^<http://www.w3.org/2001/XMLSchema#date> ."#,
            )
            .unwrap();
            db.reorganize_now().unwrap();
            // The swap committed a fresh snapshot + WAL pair.
            let m2 = Manifest::read(&dir).unwrap().unwrap();
            assert_eq!(m2.snap_file, m.snap_file + 1);
            assert_eq!(m2.wal_file, m.wal_file + 1);
            assert!(!dir.join(SNAP_TMP).exists(), "staging file renamed away");
            db.query(DQ).unwrap().canonical(&db.dict())
        };
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.query(DQ).unwrap().canonical(&db.dict()), want);
        assert!(
            db.clustered_store().is_some(),
            "recovery rebuilt the organized layout"
        );
    }

    #[test]
    fn a_load_over_pending_writes_recovers_in_the_live_staging_order() {
        let dir = durable_dir("staging-order");
        let _c = Cleanup(dir.clone());
        let live = {
            let db = Database::create_durable(&dir, SyncPolicy::Always).unwrap();
            db.load_terms(&sample_triples()).unwrap();
            db.self_organize().unwrap();
            // Two runs on subjects inside the base, the second sorting
            // before the first, and a delete out of the base: all pending
            // when the load collapses them.
            for s in ["item5", "item1"] {
                db.insert_ntriples(&format!(
                    r#"<http://ex/{s}> <http://ex/qty> "99"^^<http://www.w3.org/2001/XMLSchema#integer> ."#
                ))
                .unwrap();
            }
            db.delete_matching(Some(&Term::iri("http://ex/item3")), None, None)
                .unwrap();
            db.load_terms(&[TermTriple::new(
                Term::iri("http://ex/loaded"),
                Term::iri("http://ex/qty"),
                Term::int(7),
            )])
            .unwrap();
            let st = db.inner.state.lock();
            Arc::clone(&st.gen.triples)
        };
        let db = Database::open(&dir).unwrap();
        let st = db.inner.state.lock();
        assert!(!st.gen.any_built(), "the load cleared the layouts");
        assert_eq!(st.gen.triples, live, "same numbering, same order");
    }

    /// A durable, organized store with every layout built, two classes (one
    /// with sorted strings) and a pending delta of inserts, new strings and
    /// deletes — prepared identically on every call.
    fn store_to_rebuild(dir: &Path) -> Database {
        let db = Database::create_durable(dir, SyncPolicy::Never).unwrap();
        let mut data = sample_triples();
        for (i, label) in ["pear", "apple", "cherry", "banana"].iter().enumerate() {
            let s = format!("http://ex/thing{i}");
            data.push(TermTriple::new(
                Term::iri(s.clone()),
                Term::iri("http://ex/label"),
                Term::str(*label),
            ));
            data.push(TermTriple::new(
                Term::iri(s),
                Term::iri("http://ex/rank"),
                Term::int(i as i64),
            ));
        }
        db.load_terms(&data).unwrap();
        db.build_baseline().unwrap();
        db.build_cs_tables().unwrap();
        db.self_organize().unwrap();
        db.build_cs_tables().unwrap();
        db.build_baseline().unwrap();
        for i in 0..12 {
            db.insert_ntriples(&format!(
                r#"<http://ex/late{i}> <http://ex/qty> "{}"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/late{i}> <http://ex/sold> "1996-03-{:02}"^^<http://www.w3.org/2001/XMLSchema#date> .
<http://ex/thing{}> <http://ex/label> "late label {}" ."#,
                i % 10,
                i + 1,
                i + 10,
                11 - i
            ))
            .unwrap();
        }
        db.delete_matching(Some(&Term::iri("http://ex/item7")), None, None)
            .unwrap();
        db.delete_matching(Some(&Term::iri("http://ex/late3")), None, None)
            .unwrap();
        db
    }

    /// Everything a rebuild produces, rendered: dictionary pools, the base as
    /// the layouts enumerate it, schema (names, statistics, coverage), layouts
    /// (page ids, encodings, zone maps), every page of the page file, and the
    /// staged snapshot.
    fn built_image(db: &Database, dir: &Path, built: &Built) -> Vec<String> {
        let gen = &built.gen;
        let mut image = Vec::new();
        for pool in DictPool::ALL {
            let mut entries = Vec::new();
            gen.dict
                .try_for_each_entry(pool, |s| {
                    entries.push(s.to_string());
                    Ok::<(), ()>(())
                })
                .unwrap();
            image.push(format!("{pool:?} {entries:?}"));
        }
        image.push(format!("frozen {}", gen.dict.n_strings_frozen()));
        // The base as each layout enumerates it, and the staging list a
        // built generation no longer holds.
        let layouts: [Option<&dyn BaseLayout>; 3] = [
            gen.clustered.as_deref().map(|s| s as _),
            gen.cs_parse_order.as_ref().map(|(s, _)| &**s as _),
            gen.baseline.as_deref().map(|s| s as _),
        ];
        for layout in layouts.into_iter().flatten() {
            image.push(format!("{:?}", layout.triples_spo(&db.inner.pool)));
        }
        image.push(format!("{:?}", gen.triples));
        image.push(format!("{:?}", gen.schema));
        image.push(format!("{:?}", gen.clustered));
        image.push(format!("{:?}", gen.cs_parse_order));
        image.push(format!("{:?}", gen.baseline));
        let pools = built.staged.as_ref().map(|s| s.pools);
        image.push(format!("{:?} {:?}", gen.reorg_report, pools));
        db.inner.dm.flush().unwrap();
        image.push(format!("{:?}", fs::read(dir.join("data.db")).unwrap()));
        image.push(format!("{:?}", fs::read(dir.join(SNAP_TMP)).unwrap()));
        image
    }

    #[test]
    fn a_rebuild_is_deterministic_to_the_byte() {
        let queries = [
            "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . ?s <http://ex/sold> ?d . }",
            r#"SELECT ?s ?l WHERE { ?s <http://ex/label> ?l . FILTER(?l < "cherry") }"#,
        ];
        let mut images = Vec::new();
        for run in 0..2 {
            let dir = durable_dir(&format!("determinism-{run}"));
            let _c = Cleanup(dir.clone());
            let db = store_to_rebuild(&dir);
            let pin = begin_rebuild(&db.inner).unwrap();
            let built = build_generation(&db.inner.dm, &db.inner.pool, &pin).unwrap();
            let mut image = built_image(&db, &dir, &built);
            assert!(finish_rebuild(&db.inner, pin, built).unwrap());
            // What the swap committed and what the store answers.
            let m = Manifest::read(&dir).unwrap().unwrap();
            image.push(format!("{m:?}"));
            image.push(format!(
                "{:?}",
                fs::read(Manifest::snap_path(&dir, m.snap_file)).unwrap()
            ));
            for q in queries {
                image.push(format!("{:?}", db.query(q).unwrap().canonical(&db.dict())));
            }
            images.push(image);
        }
        let (first, second) = (&images[0], &images[1]);
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(second).enumerate() {
            assert!(
                a == b,
                "part {i} differs between two rebuilds of one history"
            );
        }
    }

    #[test]
    fn a_failed_snapshot_stream_abandons_the_rebuild_cleanly() {
        let dir = durable_dir("snapfail");
        let _c = Cleanup(dir.clone());
        let db = store_to_rebuild(&dir);
        let q = "SELECT ?s ?q WHERE { ?s <http://ex/qty> ?q . }";
        let want = db.query(q).unwrap().canonical(&db.dict());
        let before = Manifest::read(&dir).unwrap().unwrap();
        // The staging name is taken by a directory: the stream cannot even
        // open its file.
        fs::create_dir(dir.join(SNAP_TMP)).unwrap();
        let pin = begin_rebuild(&db.inner).unwrap();
        assert!(matches!(
            build_generation(&db.inner.dm, &db.inner.pool, &pin),
            Err(Error::Io(_))
        ));
        release_rebuild_claim(&db.inner, pin.epoch);
        // Through the public entry point: the error surfaces, the claim is
        // released, the old generation and the old pair stay live.
        assert!(db.reorganize_now().is_err());
        assert!(!db.reorg_in_flight(), "the rebuild claim is released");
        assert_eq!(Manifest::read(&dir).unwrap().unwrap(), before);
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), want);
        db.validate_invariants();
        // With the obstacle gone the next rebuild goes through.
        fs::remove_dir(dir.join(SNAP_TMP)).unwrap();
        db.reorganize_now().unwrap();
        assert!(!dir.join(SNAP_TMP).exists());
        assert_eq!(db.query(q).unwrap().canonical(&db.dict()), want);
    }

    #[test]
    fn create_durable_refuses_an_existing_store() {
        let dir = durable_dir("refuse");
        let _c = Cleanup(dir.clone());
        drop(Database::create_durable(&dir, SyncPolicy::Always).unwrap());
        assert!(matches!(
            Database::create_durable(&dir, SyncPolicy::Always),
            Err(Error::State(_))
        ));
        // But open recovers it fine.
        Database::open(&dir).unwrap();
    }
}
