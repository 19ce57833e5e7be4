//! Sharded LRU buffer pool over a [`DiskManager`].
//!
//! The pool is the only path from operators to stored pages, which makes the
//! paper's cold/hot distinction reproducible: a *cold* run calls
//! [`BufferPool::clear`] first (every page fault goes to the file), a *hot*
//! run reuses the warm cache. The stats counters double as the locality
//! metric ("pages touched") reported by the benchmark harnesses.
//!
//! # Threading model
//!
//! The pool is `Send + Sync` and built for concurrent readers: morsel workers
//! and concurrent queries share one pool. The page map is split into lock
//! *shards* keyed by a `PageId` hash — each shard owns its slice of the
//! capacity and its own LRU order, so two workers touching different pages
//! almost never contend on the same mutex. Counters are relaxed atomics and
//! page reads happen outside any lock; when two threads miss on the same page
//! simultaneously, both read it and the loser adopts the winner's frame
//! (never leaving a stale LRU entry behind — see `try_get`).
//!
//! # Page recycling
//!
//! Page ids are recycled by generation GC ([`DiskManager::free_pages`]), so
//! a cached frame for a freed id would silently serve stale data once the id
//! is reallocated. The pool therefore registers an invalidation hook with
//! its disk manager on construction: freed pages are dropped from the cache
//! *before* they enter the free list. The pool's internals live behind an
//! `Arc` so the hook holds only a `Weak` — a dropped pool prunes itself from
//! the manager's hook list instead of leaking.

use crate::disk::{DiskManager, PageId};
use parking_lot::Mutex;
use sordf_model::ModelError;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use sordf_model::fxhash::FxHashMap;

/// Default maximum number of lock shards. [`BufferPool::new`] scales the
/// actual count with capacity (one shard per [`MIN_PAGES_PER_SHARD`] pages,
/// capped here) so that small pools keep a near-global LRU instead of
/// splitting a tiny budget into thrash-prone slivers.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// Capacity granted per shard before another shard is worth its skew: below
/// this, partitioning the LRU costs more in premature evictions (a hot set
/// hashing into one shard's sliver) than the extra mutex relieves.
pub const MIN_PAGES_PER_SHARD: usize = 32;

/// Cumulative pool counters (monotone; use deltas around a query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests satisfied from the cache.
    pub hits: u64,
    /// Page requests that had to read the file.
    pub misses: u64,
    /// Pages evicted to stay within capacity.
    pub evictions: u64,
}

impl PoolStats {
    /// Stats delta since `earlier`. Saturating: counters are relaxed atomics
    /// bumped by concurrent threads, so a snapshot pair taken mid-update can
    /// observe one counter "ahead" of the other — a delta must clamp at zero
    /// instead of panicking in debug builds.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A pinned page: wraps the page buffer and derefs to its full value slice.
/// Holding a guard does not block eviction — the data simply stays alive
/// until the last guard drops.
#[must_use = "dropping a PageGuard releases the pin; bind it for the scan's lifetime"]
pub struct PageGuard {
    data: Arc<Vec<u64>>,
}

impl std::ops::Deref for PageGuard {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.data
    }
}

struct Frame {
    data: Arc<Vec<u64>>,
    last_used: u64,
}

struct ShardInner {
    frames: FxHashMap<PageId, Frame>,
    /// (last_used, page) ordered set driving LRU eviction.
    lru: BTreeSet<(u64, PageId)>,
    tick: u64,
}

/// One lock shard: a slice of the capacity with its own LRU order.
struct Shard {
    capacity: usize,
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(ShardInner {
                frames: FxHashMap::default(),
                lru: BTreeSet::new(),
                tick: 0,
            }),
        }
    }
}

/// The shared pool state. Lives behind an `Arc` so the disk manager's
/// free-page invalidation hook can hold a `Weak` reference (see the
/// [module docs](self)); all real logic lives here, [`BufferPool`] is the
/// thin public handle.
struct PoolInner {
    disk: Arc<DiskManager>,
    capacity: usize,
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The sharded LRU page cache. See the [module docs](self). Cheap to pass
/// by reference; internally one `Arc` to the shared state.
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// A pool caching at most `capacity` pages (64 KiB each). The shard
    /// count scales with capacity — one shard per [`MIN_PAGES_PER_SHARD`]
    /// pages, at most [`DEFAULT_POOL_SHARDS`] — so small pools keep a
    /// near-global LRU while large pools get contention relief.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> BufferPool {
        let shards = (capacity / MIN_PAGES_PER_SHARD).clamp(1, DEFAULT_POOL_SHARDS);
        BufferPool::with_shards(disk, capacity, shards)
    }

    /// A pool with an explicit shard count. `n_shards = 1` restores the
    /// single global LRU (strict LRU semantics across all pages — used by
    /// eviction-order tests); more shards trade strictness of the global
    /// recency order for lower lock contention. Capacity is split across
    /// shards (remainder pages go to the first shards).
    pub fn with_shards(disk: Arc<DiskManager>, capacity: usize, n_shards: usize) -> BufferPool {
        assert!(capacity > 0, "pool capacity must be positive");
        assert!(n_shards > 0, "pool must have at least one shard");
        assert!(n_shards <= capacity, "more shards than capacity pages");
        let base = capacity / n_shards;
        let rem = capacity % n_shards;
        let shards: Box<[Shard]> = (0..n_shards)
            .map(|i| Shard::new(base + usize::from(i < rem)))
            .collect();
        let inner = Arc::new(PoolInner {
            disk: Arc::clone(&disk),
            capacity,
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        // Freed (recyclable) pages must leave the cache before their ids are
        // reused; the Weak lets a dropped pool prune itself from the hook list.
        let weak: Weak<PoolInner> = Arc::downgrade(&inner);
        disk.register_invalidate_hook(Box::new(move |pages| match weak.upgrade() {
            Some(pool) => {
                pool.invalidate(pages);
                true
            }
            None => false,
        }));
        BufferPool { inner }
    }

    /// The disk manager this pool reads from.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.inner.disk
    }

    /// Pin a page for slice access. One pin per page is the contract of
    /// vectorized operators: the guard keeps the data alive (even across
    /// eviction), so a scan pays the pool's lock + lookup once per 8192
    /// values instead of once per value.
    pub fn pin(&self, id: PageId) -> PageGuard {
        PageGuard { data: self.get(id) }
    }

    /// Fetch a page, from cache or disk. The returned `Arc` stays valid even
    /// if the page is evicted while in use.
    ///
    /// Panics if the page cannot be read after retries; use
    /// [`BufferPool::try_get`] where a read failure must be recoverable
    /// (the `sordf` facade catches this at the query boundary, so one bad
    /// read fails one query, not the process).
    pub fn get(&self, id: PageId) -> Arc<Vec<u64>> {
        self.try_get(id)
            // sordf-lint: allow(L3) — the documented contract of this API:
            // infallible callers opt into the panic; fallible ones use try_get.
            .unwrap_or_else(|e| panic!("buffer pool: {e}"))
    }

    /// Fetch a page, surfacing read failures as [`ModelError::PageRead`]
    /// after a bounded, capped-exponential-backoff retry loop (transient
    /// I/O errors are retried rather than poisoning any pool state — no
    /// lock is held across the read).
    // lock-order: acquires(pool_shard)
    pub fn try_get(&self, id: PageId) -> Result<Arc<Vec<u64>>, ModelError> {
        self.inner.try_get(id)
    }

    /// Drop every cached page — the next run is *cold*.
    // lock-order: acquires(pool_shard)
    pub fn clear(&self) {
        for shard in self.inner.shards.iter() {
            let mut inner = shard.inner.lock();
            inner.frames.clear();
            inner.lru.clear();
        }
    }

    /// Drop the cached frames of exactly `pages` (recycled ids). Called via
    /// the disk manager's free-page hook; also usable directly by tests.
    // lock-order: acquires(pool_shard)
    pub fn invalidate(&self, pages: &[PageId]) {
        self.inner.invalidate(pages);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        // ordering: Relaxed — statistics snapshot; the three loads need not
        // be mutually consistent (PoolStats::since clamps at zero for that).
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of pages currently cached.
    // lock-order: acquires(pool_shard)
    pub fn cached_pages(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.inner.lock().frames.len())
            .sum()
    }

    /// Pool capacity in pages (summed across shards).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of lock shards.
    pub fn n_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Assert the internal invariants of every shard (debug/test hook):
    /// `frames` and `lru` describe the same page set, every LRU entry carries
    /// the live recency of its frame, no recency tick exceeds the shard's
    /// clock, every cached page hashes to the shard caching it, and no shard
    /// exceeds its capacity slice. Panics with a description on violation.
    // lock-order: acquires(pool_shard)
    pub fn check_invariants(&self) {
        for (si, shard) in self.inner.shards.iter().enumerate() {
            let inner = shard.inner.lock();
            assert_eq!(
                inner.frames.len(),
                inner.lru.len(),
                "shard {si}: frames ({}) and lru ({}) diverged",
                inner.frames.len(),
                inner.lru.len()
            );
            assert!(
                inner.frames.len() <= shard.capacity.max(1),
                "shard {si}: {} frames exceed shard capacity {}",
                inner.frames.len(),
                shard.capacity
            );
            for &(t, id) in &inner.lru {
                let frame_tick = inner.frames.get(&id).map(|f| f.last_used);
                assert_eq!(
                    frame_tick,
                    Some(t),
                    "shard {si}: LRU entry ({t}, {id:?}) diverged from frames \
                     (frame tick {frame_tick:?})"
                );
                assert!(
                    t <= inner.tick,
                    "shard {si}: LRU tick {t} is ahead of the shard clock {}",
                    inner.tick
                );
                assert!(
                    std::ptr::eq(self.inner.shard_of(id), shard),
                    "shard {si}: caches page {id:?} that hashes to another shard"
                );
            }
            for (id, frame) in &inner.frames {
                assert!(
                    frame.last_used <= inner.tick,
                    "shard {si}: frame {id:?} tick {} is ahead of the shard clock {}",
                    frame.last_used,
                    inner.tick
                );
            }
        }
    }
}

impl PoolInner {
    /// The shard owning a page. Fibonacci hashing spreads sequential page
    /// ids (columns allocate pages contiguously) across shards, so one
    /// scanning worker cycles through locks instead of hammering one.
    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    // lock-order: acquires(pool_shard)
    fn try_get(&self, id: PageId) -> Result<Arc<Vec<u64>>, ModelError> {
        // ordering: Relaxed — hits/misses/evictions are monotone statistics
        // counters, read only via saturating deltas; the shard mutex carries
        // every happens-before edge the cache state itself needs.
        let shard = self.shard_of(id);
        {
            let mut inner = shard.inner.lock();
            let tick = inner.tick + 1;
            inner.tick = tick;
            if let Some(frame) = inner.frames.get_mut(&id) {
                let old = frame.last_used;
                frame.last_used = tick;
                let data = Arc::clone(&frame.data);
                inner.lru.remove(&(old, id));
                inner.lru.insert((tick, id));
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(data);
            }
        }
        // Miss: read outside the lock so concurrent readers are not
        // serialized on I/O (double reads of the same page are possible and
        // resolved below).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(self.read_page_retrying(id)?);
        let mut inner = shard.inner.lock();
        let tick = inner.tick + 1;
        inner.tick = tick;
        if let Some(frame) = inner.frames.get_mut(&id) {
            // A concurrent miss inserted this page while we were reading.
            // Adopt that frame and refresh its recency; inserting a second
            // frame here would overwrite the winner's but leave its stale
            // (last_used, id) entry dangling in the LRU set — a later
            // eviction would then remove a live frame while the dangling
            // entry survives, diverging `frames` from `lru`.
            let old = frame.last_used;
            frame.last_used = tick;
            let data = Arc::clone(&frame.data);
            inner.lru.remove(&(old, id));
            inner.lru.insert((tick, id));
            return Ok(data);
        }
        while inner.frames.len() >= shard.capacity.max(1) {
            if let Some(&(t, victim)) = inner.lru.iter().next() {
                inner.lru.remove(&(t, victim));
                inner.frames.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                break;
            }
        }
        inner.frames.insert(
            id,
            Frame {
                data: Arc::clone(&data),
                last_used: tick,
            },
        );
        inner.lru.insert((tick, id));
        Ok(data)
    }

    /// Read a page with a *bounded* retry loop: transient errors back off
    /// exponentially (100 µs doubling, capped at 5 ms) so a persistently
    /// failing page surfaces [`ModelError::PageRead`] after ~6 attempts in
    /// well under a second instead of spinning a query thread, while a
    /// genuinely transient hiccup gets room to clear.
    fn read_page_retrying(&self, id: PageId) -> Result<Vec<u64>, ModelError> {
        const ATTEMPTS: u32 = 6;
        const BASE_BACKOFF_US: u64 = 100;
        const MAX_BACKOFF_US: u64 = 5_000;
        let mut last_err = None;
        for attempt in 0..ATTEMPTS {
            match self.disk.read_page(id) {
                Ok(vals) => return Ok(vals),
                Err(e) => {
                    // Only plausibly-transient errors are worth retrying; a
                    // short read (truncated / never-written page) or a
                    // NotFound can never succeed on the second attempt.
                    let transient = matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                    );
                    last_err = Some(e);
                    if !transient {
                        break;
                    }
                    if attempt + 1 < ATTEMPTS {
                        let us = (BASE_BACKOFF_US << attempt).min(MAX_BACKOFF_US);
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                }
            }
        }
        Err(ModelError::PageRead {
            page: id.0,
            msg: last_err.map(|e| e.to_string()).unwrap_or_default(),
        })
    }

    // lock-order: acquires(pool_shard)
    fn invalidate(&self, pages: &[PageId]) {
        for &id in pages {
            let shard = self.shard_of(id);
            let mut inner = shard.inner.lock();
            if let Some(frame) = inner.frames.remove(&id) {
                inner.lru.remove(&(frame.last_used, id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CountingFault;

    fn pool_with_pages(n_pages: u64, capacity: usize) -> (BufferPool, Vec<PageId>) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let ids: Vec<PageId> = (0..n_pages)
            .map(|i| {
                let id = dm.alloc_page();
                dm.write_page(id, &[i * 100]).unwrap();
                id
            })
            .collect();
        (BufferPool::new(dm, capacity), ids)
    }

    /// Like `pool_with_pages` but with one global LRU shard, for tests that
    /// assert strict cross-page eviction order.
    fn single_shard_pool(n_pages: u64, capacity: usize) -> (BufferPool, Vec<PageId>) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let ids: Vec<PageId> = (0..n_pages)
            .map(|i| {
                let id = dm.alloc_page();
                dm.write_page(id, &[i * 100]).unwrap();
                id
            })
            .collect();
        (BufferPool::with_shards(dm, capacity, 1), ids)
    }

    #[test]
    fn hit_after_miss() {
        let (pool, ids) = pool_with_pages(1, 4);
        assert_eq!(pool.get(ids[0])[0], 0);
        assert_eq!(pool.get(ids[0])[0], 0);
        let s = pool.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (pool, ids) = single_shard_pool(3, 2);
        pool.get(ids[0]);
        pool.get(ids[1]);
        pool.get(ids[0]); // 0 now more recent than 1
        pool.get(ids[2]); // evicts 1
        assert_eq!(pool.cached_pages(), 2);
        let before = pool.stats();
        pool.get(ids[0]); // still cached
        assert_eq!(pool.stats().hits, before.hits + 1);
        pool.get(ids[1]); // was evicted -> miss
        assert_eq!(pool.stats().misses, before.misses + 1);
        pool.check_invariants();
    }

    #[test]
    fn clear_makes_next_access_cold() {
        let (pool, ids) = pool_with_pages(2, 4);
        pool.get(ids[0]);
        pool.get(ids[1]);
        pool.clear();
        assert_eq!(pool.cached_pages(), 0);
        let before = pool.stats();
        pool.get(ids[0]);
        assert_eq!(pool.stats().since(&before).misses, 1);
    }

    #[test]
    fn data_survives_eviction_for_holders() {
        let (pool, ids) = single_shard_pool(3, 1);
        let held = pool.get(ids[0]);
        pool.get(ids[1]);
        pool.get(ids[2]);
        // ids[0] has been evicted but our Arc is still valid.
        assert_eq!(held[0], 0);
        assert!(pool.stats().evictions >= 2);
    }

    #[test]
    fn stats_delta() {
        let (pool, ids) = pool_with_pages(2, 4);
        let t0 = pool.stats();
        pool.get(ids[0]);
        pool.get(ids[0]);
        let d = pool.stats().since(&t0);
        assert_eq!((d.misses, d.hits), (1, 1));
    }

    #[test]
    fn stats_delta_saturates_on_torn_snapshots() {
        // A snapshot pair taken around concurrent updates can observe the
        // "later" snapshot behind the earlier one per counter; the delta
        // clamps at zero instead of panicking on underflow.
        let newer = PoolStats {
            hits: 5,
            misses: 2,
            evictions: 0,
        };
        let older = PoolStats {
            hits: 7,
            misses: 1,
            evictions: 3,
        };
        let d = newer.since(&older);
        assert_eq!((d.hits, d.misses, d.evictions), (0, 1, 0));
    }

    #[test]
    fn capacity_splits_across_shards() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let pool = BufferPool::with_shards(dm, 10, 4);
        assert_eq!(pool.capacity(), 10);
        assert_eq!(pool.n_shards(), 4);
        let per_shard: usize = pool.inner.shards.iter().map(|s| s.capacity).sum();
        assert_eq!(per_shard, 10);
        assert!(pool
            .inner
            .shards
            .iter()
            .all(|s| s.capacity == 2 || s.capacity == 3));
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        // Tiny pools keep a single global LRU; big pools cap at the default.
        assert_eq!(BufferPool::new(Arc::clone(&dm), 2).n_shards(), 1);
        assert_eq!(BufferPool::new(Arc::clone(&dm), 31).n_shards(), 1);
        assert_eq!(BufferPool::new(Arc::clone(&dm), 64).n_shards(), 2);
        assert_eq!(
            BufferPool::new(Arc::clone(&dm), 4096).n_shards(),
            DEFAULT_POOL_SHARDS
        );
    }

    #[test]
    fn sharded_pool_respects_total_capacity() {
        let (pool, ids) = pool_with_pages(64, 8);
        for &id in &ids {
            pool.get(id);
        }
        assert!(
            pool.cached_pages() <= pool.capacity(),
            "{} cached > capacity {}",
            pool.cached_pages(),
            pool.capacity()
        );
        pool.check_invariants();
    }

    #[test]
    fn missing_page_surfaces_error_not_panic() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let pool = BufferPool::new(dm, 4);
        // Never allocated or written: the read fails with a short read.
        let err = pool.try_get(PageId(999)).unwrap_err();
        match err {
            ModelError::PageRead { page, .. } => assert_eq!(page, 999),
            other => panic!("unexpected error {other:?}"),
        }
        // The failure left no partial state behind.
        assert_eq!(pool.cached_pages(), 0);
        pool.check_invariants();
    }

    #[test]
    fn transient_read_faults_are_retried_with_backoff() {
        let (pool, ids) = pool_with_pages(1, 4);
        // Two transient failures, then success: the bounded backoff loop
        // must absorb them without surfacing an error.
        pool.disk()
            .set_fault(Some(Arc::new(CountingFault::fail_reads(
                2,
                std::io::ErrorKind::WouldBlock,
            ))));
        assert_eq!(pool.get(ids[0])[0], 0);
        pool.disk().set_fault(None);
        pool.check_invariants();
    }

    #[test]
    fn persistent_read_fault_surfaces_bounded_page_read_error() {
        let (pool, ids) = pool_with_pages(1, 4);
        // More transient failures than the retry budget: the loop must give
        // up with PageRead instead of spinning, and consume exactly its
        // bounded attempt budget.
        let fault = Arc::new(CountingFault::fail_reads(
            1_000,
            std::io::ErrorKind::WouldBlock,
        ));
        pool.disk().set_fault(Some(fault));
        let t0 = std::time::Instant::now();
        let err = pool.try_get(ids[0]).unwrap_err();
        assert!(matches!(err, ModelError::PageRead { .. }));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "retry loop must be bounded"
        );
        pool.disk().set_fault(None);
        assert_eq!(pool.get(ids[0])[0], 0, "recovers once the fault clears");
        pool.check_invariants();
    }

    #[test]
    fn non_transient_read_fault_fails_fast() {
        let (pool, ids) = pool_with_pages(1, 4);
        pool.disk()
            .set_fault(Some(Arc::new(CountingFault::fail_reads(
                1,
                std::io::ErrorKind::NotFound,
            ))));
        let err = pool.try_get(ids[0]).unwrap_err();
        assert!(matches!(err, ModelError::PageRead { .. }));
        // A single injected fault consumed: no retries burned the budget.
        pool.disk().set_fault(None);
        assert_eq!(pool.get(ids[0])[0], 0);
    }

    #[test]
    fn freed_pages_are_invalidated_through_the_hook() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let pool = BufferPool::new(Arc::clone(&dm), 8);
        let id = dm.alloc_page();
        dm.write_page(id, &[41]).unwrap();
        assert_eq!(pool.get(id)[0], 41);
        assert_eq!(pool.cached_pages(), 1);
        // Free + reallocate the id with different content: the hook must
        // have dropped the stale frame, so the pool re-reads from disk.
        dm.free_pages(&[id]);
        assert_eq!(pool.cached_pages(), 0, "freed page left the cache");
        let id2 = dm.alloc_page();
        assert_eq!(id2, id, "the id was recycled");
        dm.write_page(id2, &[42]).unwrap();
        assert_eq!(pool.get(id2)[0], 42, "no stale frame served");
        pool.check_invariants();
    }

    #[test]
    fn dropped_pool_prunes_its_hook() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let id = dm.alloc_page();
        dm.write_page(id, &[7]).unwrap();
        {
            let pool = BufferPool::new(Arc::clone(&dm), 8);
            pool.get(id);
        }
        // The pool is gone; freeing must not fire into a dead hook (the
        // Weak upgrade fails and the hook self-prunes).
        dm.free_pages(&[id]);
        dm.free_pages(&[dm.alloc_page()]);
    }

    /// The PR-3 regression: two threads missing on the same page both insert;
    /// before the fix the second `frames.insert` overwrote the first frame
    /// but left its stale `(last_used, id)` entry in the LRU set, so a later
    /// eviction removed a live frame while a dangling entry survived. Hammer
    /// one hot page (plus eviction pressure) from 8 threads through a
    /// capacity-2 pool and assert the frames/LRU invariants hold throughout.
    #[test]
    fn concurrent_misses_keep_frames_and_lru_aligned() {
        for n_shards in [1, 2] {
            let dm = Arc::new(DiskManager::temp().unwrap());
            let ids: Vec<PageId> = (0..4u64)
                .map(|i| {
                    let id = dm.alloc_page();
                    dm.write_page(id, &[i * 100]).unwrap();
                    id
                })
                .collect();
            let pool = BufferPool::with_shards(dm, 2, n_shards);
            std::thread::scope(|s| {
                for t in 0..8usize {
                    let pool = &pool;
                    let ids = &ids;
                    s.spawn(move || {
                        for i in 0..2000usize {
                            // Everyone hammers the hot page; half the threads
                            // interleave other pages to force evictions and
                            // re-misses of the hot page.
                            let id = if t % 2 == 0 || i % 3 == 0 {
                                ids[0]
                            } else {
                                ids[1 + (i + t) % 3]
                            };
                            let data = pool.get(id);
                            let want = ids.iter().position(|&x| x == id).unwrap() as u64 * 100;
                            assert_eq!(data[0], want, "corrupt frame for {id:?}");
                            if i % 64 == 0 {
                                pool.check_invariants();
                            }
                        }
                    });
                }
            });
            pool.check_invariants();
            assert!(pool.cached_pages() <= pool.capacity());
        }
    }
}
