//! Execution context: storage handles, configuration, runtime counters.

use crate::cancel::CancellationToken;
use crate::parallel::ParallelConfig;
use sordf_columnar::BufferPool;
use sordf_model::Dictionary;
use sordf_schema::EmergentSchema;
use sordf_storage::{BaselineStore, ClusteredStore, DeltaView};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which plan scheme the planner uses for star patterns — the "Query Plan"
/// axis of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanScheme {
    /// Per-property index scans + merge self-joins (triple-store classic).
    Default,
    /// RDFscan for base stars, RDFjoin for candidate-driven stars.
    RdfScanJoin,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub scheme: PlanScheme,
    /// Use zone maps: page skipping within scans and min/max restriction
    /// pushdown across star joins (the "ZoneMaps" axis of Table I).
    pub zonemaps: bool,
    /// Maximum `|left| * |right|` a cartesian product (disconnected BGP)
    /// may materialize before the query fails. A cross join is almost
    /// always an authoring mistake; the budget turns a silent O(n·m) blowup
    /// into an explicit error naming the fix.
    pub cross_join_budget: u64,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: true,
            cross_join_budget: 1_000_000,
        }
    }
}

/// The storage generation a query runs against.
pub enum StorageRef<'a> {
    /// Exhaustive permutation indexes over all triples (ParseOrder).
    Baseline(&'a BaselineStore),
    /// CS segments + irregular remainder (ParseOrder-sparse or Clustered).
    Clustered {
        store: &'a ClusteredStore,
        schema: &'a EmergentSchema,
    },
}

impl<'a> StorageRef<'a> {
    pub fn schema(&self) -> Option<&'a EmergentSchema> {
        match self {
            StorageRef::Baseline(_) => None,
            StorageRef::Clustered { schema, .. } => Some(schema),
        }
    }
}

/// Runtime operator counters — the numbers behind the paper's Fig. 4
/// (join-effort reduction) and the locality reporting of the harnesses.
///
/// Counters are relaxed atomics so one context can be shared across morsel
/// workers (`ExecContext` is `Sync`); partial counts from workers sum
/// naturally, at no cost on the single-threaded path.
#[derive(Debug, Default)]
pub struct ExecStats {
    pub merge_joins: AtomicU64,
    pub hash_joins: AtomicU64,
    pub rdf_scans: AtomicU64,
    pub rdf_joins: AtomicU64,
    pub property_scans: AtomicU64,
    pub rows_scanned: AtomicU64,
    pub rows_emitted: AtomicU64,
    pub zonemap_pages_skipped: AtomicU64,
    /// Row-pages the chunked scan kernels covered — the complement of
    /// `zonemap_pages_skipped`, and the work measure the cancellation
    /// differential tests bound: a cancelled query's page count must stop
    /// growing within one poll interval. A covered page is evaluated, but
    /// not every column of it is read: see `column_pages_skipped`.
    pub pages_scanned: AtomicU64,
    /// Column pages of covered row-pages that were neither pinned nor
    /// decoded, because the page's zone map already decided that every row
    /// passes the column and nothing reads its values (for RDFjoin: column
    /// gathers skipped on the same evidence, per batch of candidates).
    pub column_pages_skipped: AtomicU64,
}

impl ExecStats {
    // ordering: Relaxed for every counter access in this impl — these are
    // independent statistics with no cross-counter consistency requirement;
    // per-query totals become exact at the thread joins (scope exit), which
    // synchronize for us.
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Read one counter (tests, ad-hoc reporting).
    // ordering: Relaxed — see the impl-top note.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Total join operators executed.
    pub fn total_joins(&self) -> u64 {
        self.snapshot().total_joins()
    }

    // ordering: Relaxed — see the impl-top note; reset races with nothing
    // (callers reset between queries, not during one).
    pub fn reset(&self) {
        self.merge_joins.store(0, Ordering::Relaxed);
        self.hash_joins.store(0, Ordering::Relaxed);
        self.rdf_scans.store(0, Ordering::Relaxed);
        self.rdf_joins.store(0, Ordering::Relaxed);
        self.property_scans.store(0, Ordering::Relaxed);
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.rows_emitted.store(0, Ordering::Relaxed);
        self.zonemap_pages_skipped.store(0, Ordering::Relaxed);
        self.pages_scanned.store(0, Ordering::Relaxed);
        self.column_pages_skipped.store(0, Ordering::Relaxed);
    }

    /// Add a finished query's counts to these (the facade's running totals
    /// behind `/status`).
    // ordering: Relaxed — see the impl-top note.
    pub fn absorb(&self, q: &StatsSnapshot) {
        for (total, n) in [
            (&self.merge_joins, q.merge_joins),
            (&self.hash_joins, q.hash_joins),
            (&self.rdf_scans, q.rdf_scans),
            (&self.rdf_joins, q.rdf_joins),
            (&self.property_scans, q.property_scans),
            (&self.rows_scanned, q.rows_scanned),
            (&self.rows_emitted, q.rows_emitted),
            (&self.zonemap_pages_skipped, q.zonemap_pages_skipped),
            (&self.pages_scanned, q.pages_scanned),
            (&self.column_pages_skipped, q.column_pages_skipped),
        ] {
            total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A plain-old-data copy of the counters.
    // ordering: Relaxed — see the impl-top note; a snapshot taken after the
    // query's worker scope exits observes every bump via the joins.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            merge_joins: self.merge_joins.load(Ordering::Relaxed),
            hash_joins: self.hash_joins.load(Ordering::Relaxed),
            rdf_scans: self.rdf_scans.load(Ordering::Relaxed),
            rdf_joins: self.rdf_joins.load(Ordering::Relaxed),
            property_scans: self.property_scans.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            rows_emitted: self.rows_emitted.load(Ordering::Relaxed),
            zonemap_pages_skipped: self.zonemap_pages_skipped.load(Ordering::Relaxed),
            pages_scanned: self.pages_scanned.load(Ordering::Relaxed),
            column_pages_skipped: self.column_pages_skipped.load(Ordering::Relaxed),
        }
    }
}

/// Copyable snapshot of [`ExecStats`], reported by the facade and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub merge_joins: u64,
    pub hash_joins: u64,
    pub rdf_scans: u64,
    pub rdf_joins: u64,
    pub property_scans: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub zonemap_pages_skipped: u64,
    pub pages_scanned: u64,
    pub column_pages_skipped: u64,
}

impl StatsSnapshot {
    /// Total join operators executed.
    pub fn total_joins(&self) -> u64 {
        self.merge_joins + self.hash_joins + self.rdf_joins
    }
}

/// Everything an operator needs at runtime.
pub struct ExecContext<'a> {
    pub pool: &'a BufferPool,
    pub dict: &'a Dictionary,
    pub storage: StorageRef<'a>,
    /// The delta view this query reads (its write snapshot), *pinned*: the
    /// context owns a share of the view, so the query stays consistent even
    /// when a concurrent writer or generation swap moves the store on —
    /// writers copy-on-write the cached view, they never mutate a pinned
    /// one. `None` when no writes are pending — every scan then skips all
    /// merge work. When set, property scans union the view's insert runs
    /// with base storage and filter its tombstones out of every
    /// base-resident value (the merged-source contract every scan
    /// shares).
    delta: Option<Arc<DeltaView>>,
    /// Cooperative interrupt for this query, polled by the operators at
    /// bounded-work boundaries (see [`crate::cancel`]). `None` (the
    /// embedded-library default) makes every poll a no-op branch.
    cancel: Option<CancellationToken>,
    pub config: ExecConfig,
    /// How many workers evaluate this query's morsels (default: one — the
    /// whole query runs inline on the calling thread).
    pub parallel: ParallelConfig,
    pub stats: ExecStats,
}

/// Compile-time thread-safety audit: a context (storage handles + atomic
/// counters) must be shareable across morsel workers, and the storage layer
/// across concurrent queries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BufferPool>();
    assert_send_sync::<sordf_columnar::DiskManager>();
    assert_send_sync::<BaselineStore>();
    assert_send_sync::<ClusteredStore>();
    assert_send_sync::<EmergentSchema>();
    assert_send_sync::<Dictionary>();
    assert_send_sync::<DeltaView>();
    assert_send_sync::<ExecStats>();
    assert_send_sync::<ExecContext<'static>>();
};

impl<'a> ExecContext<'a> {
    pub fn new(
        pool: &'a BufferPool,
        dict: &'a Dictionary,
        storage: StorageRef<'a>,
        config: ExecConfig,
    ) -> ExecContext<'a> {
        ExecContext {
            pool,
            dict,
            storage,
            delta: None,
            cancel: None,
            config,
            parallel: ParallelConfig::with_workers(1),
            stats: ExecStats::default(),
        }
    }

    /// Evaluate this query's morsels on `parallel.workers` threads (see
    /// [`crate::parallel`]); results do not depend on the worker count.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> ExecContext<'a> {
        self.parallel = parallel;
        self
    }

    /// Pin a delta view (the query's write snapshot) to this context. Empty
    /// views are dropped so the scan paths keep their zero-cost no-delta
    /// fast path.
    pub fn with_delta(mut self, delta: Option<Arc<DeltaView>>) -> ExecContext<'a> {
        self.delta = delta.filter(|d| !d.is_empty());
        self
    }

    /// The pinned delta view, if any (see [`ExecContext::with_delta`]).
    #[inline]
    pub fn delta(&self) -> Option<&DeltaView> {
        self.delta.as_deref()
    }

    /// Attach a cancellation token; operators will poll it at bounded-work
    /// boundaries and unwind to the query boundary when it trips.
    pub fn with_cancel(mut self, cancel: Option<CancellationToken>) -> ExecContext<'a> {
        self.cancel = cancel;
        self
    }

    /// The attached cancellation token, if any.
    #[inline]
    pub fn cancel_token(&self) -> Option<&CancellationToken> {
        self.cancel.as_ref()
    }

    /// Poll the cancellation token (no-op without one). Raises the
    /// [`crate::cancel::QueryInterrupted`] sentinel panic when tripped —
    /// call only from operator code below the facade's query boundary.
    #[inline]
    pub fn check_cancelled(&self) {
        if let Some(t) = &self.cancel {
            t.check();
        }
    }

    /// Are string OIDs ordered by value? True after clustering (the string
    /// pool is sorted), false on parse-order storage — ordered string
    /// comparisons must decode in that case.
    pub fn strings_value_ordered(&self) -> bool {
        // Inserts after the last reorganization may have interned new
        // strings at the end of the pool, breaking the sorted order until
        // the next reorganization re-sorts it.
        if self.delta().is_some_and(|d| d.strings_appended) {
            return false;
        }
        // Sparse clustered stores keep parse-order string OIDs too; only the
        // reorganized (dense) store sorts the pool. We detect via segments.
        match &self.storage {
            StorageRef::Baseline(_) => false,
            StorageRef::Clustered { store, .. } => store.segments.iter().all(|s| {
                matches!(
                    s.subjects,
                    sordf_storage::clustered::SubjectIds::Dense { .. }
                )
            }),
        }
    }
}
