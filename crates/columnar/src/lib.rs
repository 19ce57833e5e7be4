//! # sordf-columnar
//!
//! The paged columnar storage substrate underneath the `sordf` RDF store —
//! the stand-in for the MonetDB kernel's BAT storage in this reproduction.
//!
//! * [`DiskManager`] — page-granular file I/O (64 KiB pages of 8192 u64s).
//! * [`BufferPool`] — an LRU page cache with `Arc` handout and
//!   hit/miss/read statistics. "Cold" runs in the paper's Table I are
//!   reproduced by [`BufferPool::clear`]: every page the next run touches is
//!   a file read.
//! * [`Column`] / [`ColumnBuilder`] — immutable u64 columns stored across
//!   pages, with per-page [`ZoneMap`]s (min/max/null-count) built at write
//!   time, chunked access for vectorized operators, and binary search over
//!   sorted columns.
//!
//! Every access to stored data in the engine goes through a [`BufferPool`],
//! so the paper's locality arguments (how many pages a plan touches) are
//! directly measurable via [`PoolStats`].

pub mod column;
pub mod compress;
pub mod disk;
pub mod fault;
pub mod pool;
pub mod zonemap;

pub use column::Chunk;
pub use column::{Column, ColumnBuilder};
pub use compress::PageEnc;
pub use disk::{DiskManager, PageId, PageLease, PAGE_BYTES, VALS_PER_PAGE};
pub use fault::{CountingFault, DiskFault, WriteFault};
pub use pool::{BufferPool, PageGuard, PoolStats, DEFAULT_POOL_SHARDS, MIN_PAGES_PER_SHARD};
pub use zonemap::{PageStats, ZoneMap};

/// Compile-time thread-safety audit: the shared storage layer must be
/// usable from morsel workers and concurrent queries without wrappers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DiskManager>();
    assert_send_sync::<BufferPool>();
    assert_send_sync::<Column>();
    assert_send_sync::<Chunk>();
    assert_send_sync::<PageGuard>();
    assert_send_sync::<ZoneMap>();
};
