//! Immutable paged u64 columns.
//!
//! A [`Column`] is built once (bulk load / reorganization) and then only
//! read. Values are raw u64s — in sordf these are tagged OIDs, with
//! `u64::MAX` as the NULL sentinel. Zone maps are collected during the build
//! at zero extra cost.

use crate::compress::{self, PageEnc};
use crate::disk::{DiskManager, PageId, VALS_PER_PAGE};
use crate::pool::{BufferPool, PageGuard};
use crate::zonemap::{PageStats, ZoneMap};
use std::ops::Range;
use std::sync::Arc;

/// The NULL sentinel stored in columns for missing values
/// (`sordf_model::Oid::NULL` has the same representation).
pub const NULL_SENTINEL: u64 = u64::MAX;

/// One page worth of NULL sentinels. Pages whose zone-map entry records zero
/// non-null values store exactly this content, so chunks over them can be
/// served from here without a buffer-pool request.
static NULL_PAGE: [u64; VALS_PER_PAGE] = [NULL_SENTINEL; VALS_PER_PAGE];

/// Append-only builder; call [`ColumnBuilder::finish`] to seal the column.
/// Each page is encoded as the size heuristic of [`crate::compress`] picks:
/// FOR or constant where they shrink it, plain otherwise.
pub struct ColumnBuilder<'a> {
    disk: &'a DiskManager,
    buf: Vec<u64>,
    pages: Vec<PageId>,
    stats: Vec<PageStats>,
    encs: Vec<PageEnc>,
    used_words: usize,
    cur: PageStats,
    len: usize,
    n_nulls: usize,
}

impl<'a> ColumnBuilder<'a> {
    pub fn new(disk: &'a DiskManager) -> ColumnBuilder<'a> {
        ColumnBuilder {
            disk,
            buf: Vec::with_capacity(VALS_PER_PAGE),
            pages: Vec::new(),
            stats: Vec::new(),
            encs: Vec::new(),
            used_words: 0,
            cur: PageStats::empty(),
            len: 0,
            n_nulls: 0,
        }
    }

    /// Append one value (`NULL_SENTINEL` for NULL).
    #[inline]
    pub fn push(&mut self, v: u64) {
        if v == NULL_SENTINEL {
            self.n_nulls += 1;
        } else {
            self.cur.add(v);
        }
        self.buf.push(v);
        self.len += 1;
        if self.buf.len() == VALS_PER_PAGE {
            self.flush_page();
        }
    }

    /// Append many values.
    pub fn extend_from_slice(&mut self, vs: &[u64]) {
        for &v in vs {
            self.push(v);
        }
    }

    fn flush_page(&mut self) {
        // Per-page encoding choice: the size heuristic picks the layout,
        // and the encoded image (when one exists) is what hits the disk.
        let (enc, image) = compress::choose(&self.buf);
        self.used_words += enc.used_words(self.buf.len());
        let id = self.disk.alloc_page();
        self.disk
            .write_page(id, image.as_deref().unwrap_or(&self.buf))
            // sordf-lint: allow(L3) — push() is an infallible bulk-load API
            // by design; a failed page write during a build is fatal (the
            // half-built column could never be read back).
            .expect("column page write failed");
        self.pages.push(id);
        self.stats.push(self.cur);
        self.encs.push(enc);
        self.cur = PageStats::empty();
        self.buf.clear();
    }

    /// Seal the column.
    pub fn finish(mut self) -> Column {
        if !self.buf.is_empty() {
            self.flush_page();
        }
        Column {
            pages: Arc::new(self.pages),
            encs: Arc::new(self.encs),
            used_words: self.used_words,
            len: self.len,
            n_nulls: self.n_nulls,
            zonemap: Arc::new(ZoneMap::new(self.stats)),
        }
    }
}

/// An immutable on-disk column of u64 values. Cheap to clone (all internals
/// shared); reads go through a [`BufferPool`].
#[derive(Debug, Clone)]
pub struct Column {
    pages: Arc<Vec<PageId>>,
    /// Per-page encoding, aligned with `pages`.
    encs: Arc<Vec<PageEnc>>,
    /// Total 64-bit words the pages actually use (compressed footprint).
    used_words: usize,
    len: usize,
    n_nulls: usize,
    zonemap: Arc<ZoneMap>,
}

/// Backing storage of a [`Chunk`]: a pinned pool page (plain layout), a
/// block decoded from an encoded page, or the shared NULL buffer for pages
/// the zone map proves are entirely NULL.
enum ChunkData {
    Pinned(PageGuard),
    /// The decode-into-register-block path: values of a FOR or constant
    /// page materialized for this chunk's local range.
    Decoded(Vec<u64>),
    AllNull,
}

std::thread_local! {
    /// Reusable decode buffers for encoded chunks. Scan loops materialize
    /// one page per chunk; without reuse every chunk pays a 64 KiB
    /// alloc + free, which on hot scans costs as much as the decode itself.
    /// Buffers return here when their [`Chunk`] drops (capped so an
    /// occasional burst of live chunks cannot pin memory forever).
    static DECODE_SCRATCH: std::cell::RefCell<Vec<Vec<u64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Most chunks a scan holds live at once is one per joined column; 16
/// covers the widest star the engine plans with headroom.
const DECODE_SCRATCH_MAX: usize = 16;

fn scratch_take() -> Vec<u64> {
    DECODE_SCRATCH
        .with(|s| s.borrow_mut().pop())
        .map(|mut v| {
            v.clear();
            v
        })
        .unwrap_or_default()
}

fn scratch_put(v: Vec<u64>) {
    if v.capacity() == 0 {
        return;
    }
    DECODE_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < DECODE_SCRATCH_MAX {
            s.push(v);
        }
    });
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if let ChunkData::Decoded(v) = std::mem::replace(&mut self.data, ChunkData::AllNull) {
            scratch_put(v);
        }
    }
}

/// One page worth of column values, with its global position.
pub struct Chunk {
    /// Global index of `values()[0]`.
    pub start: usize,
    data: ChunkData,
    local: Range<usize>,
}

impl Chunk {
    /// The values of this chunk.
    #[inline]
    pub fn values(&self) -> &[u64] {
        match &self.data {
            ChunkData::Pinned(g) => &g[self.local.clone()],
            ChunkData::Decoded(v) => v,
            ChunkData::AllNull => &NULL_PAGE[self.local.clone()],
        }
    }

    /// True when the whole page holds only NULL sentinels (served without a
    /// pool request).
    #[inline]
    pub fn is_all_null(&self) -> bool {
        matches!(self.data, ChunkData::AllNull)
    }
}

impl Column {
    /// Build a column directly from a slice (convenience for loading).
    pub fn from_slice(disk: &DiskManager, vals: &[u64]) -> Column {
        let mut b = ColumnBuilder::new(disk);
        b.extend_from_slice(vals);
        b.finish()
    }

    /// An empty column (no pages).
    pub fn empty() -> Column {
        Column {
            pages: Arc::new(Vec::new()),
            encs: Arc::new(Vec::new()),
            used_words: 0,
            len: 0,
            n_nulls: 0,
            zonemap: Arc::new(ZoneMap::default()),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of NULL sentinels stored.
    pub fn n_nulls(&self) -> usize {
        self.n_nulls
    }

    /// Number of pages the column spans.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// The backing page ids, in column order. Used by store builders to
    /// assemble a [`crate::PageLease`] so a dropped store returns its
    /// extents to the disk manager's free list.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    /// The column's zone map (one entry per page).
    pub fn zonemap(&self) -> &ZoneMap {
        &self.zonemap
    }

    /// Encoding of page `p`.
    pub fn page_enc(&self, p: usize) -> PageEnc {
        self.encs[p]
    }

    /// Bytes the column's pages actually use — the compressed footprint a
    /// full scan must read, as opposed to `n_pages() * PAGE_BYTES` of
    /// allocated extent.
    pub fn used_bytes(&self) -> usize {
        self.used_words * 8
    }

    /// Bytes the same values would use uncompressed (8 per value).
    pub fn plain_bytes(&self) -> usize {
        self.len * 8
    }

    /// Page counts by encoding: `(plain, for, const)`.
    pub fn encoding_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for e in self.encs.iter() {
            match e {
                PageEnc::Plain => counts.0 += 1,
                PageEnc::For { .. } => counts.1 += 1,
                PageEnc::Const { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// Random access to one value. Prefer [`Column::chunks`] in hot paths.
    #[inline]
    pub fn value(&self, pool: &BufferPool, idx: usize) -> u64 {
        assert!(
            idx < self.len,
            "column index {idx} out of bounds (len {})",
            self.len
        );
        let p = idx / VALS_PER_PAGE;
        match self.encs[p] {
            PageEnc::Plain => pool.get(self.pages[p])[idx % VALS_PER_PAGE],
            PageEnc::Const { value } => value,
            PageEnc::For { base, width } => {
                compress::for_get(&pool.get(self.pages[p]), base, width, idx % VALS_PER_PAGE)
            }
        }
    }

    /// Global row range covered by page `p`, clamped to the column length.
    #[inline]
    pub fn page_rows(&self, p: usize) -> Range<usize> {
        let start = p * VALS_PER_PAGE;
        start..(start + VALS_PER_PAGE).min(self.len)
    }

    /// Pin the part of page `p` covering local rows `local`, serving all-NULL
    /// pages from the shared sentinel buffer — and constant pages from
    /// column metadata — without touching the pool. Encoded pages decode
    /// their local range into a register block here; plain pages hand out
    /// the pinned slice directly.
    fn pin_local(&self, pool: &BufferPool, p: usize, local: Range<usize>) -> Chunk {
        let start = p * VALS_PER_PAGE + local.start;
        if self.zonemap.page(p).n_nonnull == 0 {
            return Chunk {
                start,
                data: ChunkData::AllNull,
                local,
            };
        }
        let data = match self.encs[p] {
            PageEnc::Plain => ChunkData::Pinned(pool.pin(self.pages[p])),
            PageEnc::Const { value } => {
                let mut vals = scratch_take();
                vals.resize(local.len(), value);
                ChunkData::Decoded(vals)
            }
            PageEnc::For { base, width } => {
                let page = pool.pin(self.pages[p]);
                let mut vals = scratch_take();
                compress::for_decode_range(&page, base, width, local.start, local.end, &mut vals);
                ChunkData::Decoded(vals)
            }
        };
        Chunk { start, data, local }
    }

    /// Pin one whole page (clamped to the column length) as a [`Chunk`].
    pub fn pin_page(&self, pool: &BufferPool, p: usize) -> Chunk {
        let rows = self.page_rows(p);
        self.pin_local(
            pool,
            p,
            rows.start - p * VALS_PER_PAGE..rows.end - p * VALS_PER_PAGE,
        )
    }

    /// Pin the part of page `p` that falls inside `range` (global rows).
    /// Lets operators drive a page loop themselves — e.g. to pin several
    /// aligned columns' pages in lockstep — while zone-map checks happen
    /// before this call. `range` must overlap page `p`.
    pub fn pin_page_in(&self, pool: &BufferPool, p: usize, range: Range<usize>) -> Chunk {
        let page_start = p * VALS_PER_PAGE;
        let rows = self.page_rows(p);
        let start = range.start.max(rows.start);
        let end = range.end.min(rows.end);
        debug_assert!(start <= end, "range {range:?} does not overlap page {p}");
        self.pin_local(pool, p, start - page_start..end - page_start)
    }

    /// Iterate page-aligned chunks covering `range`.
    pub fn chunks<'c>(
        &'c self,
        pool: &'c BufferPool,
        range: Range<usize>,
    ) -> impl Iterator<Item = Chunk> + 'c {
        let range = range.start.min(self.len)..range.end.min(self.len);
        ChunkIter {
            col: self,
            pool,
            next: range.start,
            end: range.end,
        }
    }

    /// Run `f` over page-aligned chunks covering `range` — each page is
    /// pinned exactly once for the duration of its callback.
    pub fn for_each_chunk(
        &self,
        pool: &BufferPool,
        range: Range<usize>,
        mut f: impl FnMut(&Chunk),
    ) {
        for chunk in self.chunks(pool, range) {
            f(&chunk);
        }
    }

    /// Run `f` over the page-aligned chunks of two columns that share page
    /// geometry (equal lengths, built page-parallel — e.g. the (s, o)
    /// columns of a side table or two keys of a permutation index), pinning
    /// one page of each per step.
    pub fn for_each_chunk_pair(
        a: &Column,
        b: &Column,
        pool: &BufferPool,
        range: Range<usize>,
        mut f: impl FnMut(&Chunk, &Chunk),
    ) {
        debug_assert_eq!(a.len, b.len, "paired columns must share page geometry");
        let mut bc = b.chunks(pool, range.clone());
        for ac in a.chunks(pool, range) {
            // sordf-lint: allow(L3) — the debug_assert above states the
            // invariant: equal-length columns yield equal chunk sequences.
            let bc = bc.next().expect("paired columns share page geometry");
            f(&ac, &bc);
        }
    }

    /// Like [`Column::for_each_chunk`], but consult `keep(page, stats)`
    /// *before* each page is pinned; pages rejected there are skipped without
    /// ever being requested from the pool (zone-map pruning at chunk
    /// granularity).
    pub fn for_each_chunk_pruned(
        &self,
        pool: &BufferPool,
        range: Range<usize>,
        mut keep: impl FnMut(usize, &PageStats) -> bool,
        mut f: impl FnMut(&Chunk),
    ) {
        let range = range.start.min(self.len)..range.end.min(self.len);
        if range.start >= range.end {
            return;
        }
        let first_page = range.start / VALS_PER_PAGE;
        let last_page = (range.end - 1) / VALS_PER_PAGE;
        for p in first_page..=last_page {
            if !keep(p, self.zonemap.page(p)) {
                continue;
            }
            let page_start = p * VALS_PER_PAGE;
            let local = range.start.max(page_start) - page_start
                ..range.end.min(page_start + VALS_PER_PAGE) - page_start;
            f(&self.pin_local(pool, p, local));
        }
    }

    /// Fetch the values at `rows` (ascending row indices), pinning each page
    /// once across consecutive rows. All-NULL pages are answered from the
    /// zone map without a pool request. The workhorse of RDFjoin.
    pub fn gather(&self, pool: &BufferPool, rows: &[usize]) -> Vec<u64> {
        let mut out = Vec::with_capacity(rows.len());
        let mut cur_page = usize::MAX;
        let mut page: Option<PageGuard> = None;
        let mut enc = PageEnc::Plain;
        for &r in rows {
            debug_assert!(r < self.len);
            let p = r / VALS_PER_PAGE;
            if p != cur_page {
                cur_page = p;
                // All-NULL pages answer from the zone map, constant pages
                // from encoding metadata; only plain/FOR pages need a pin.
                enc = if self.zonemap.page(p).n_nonnull == 0 {
                    PageEnc::Const {
                        value: NULL_SENTINEL,
                    }
                } else {
                    self.encs[p]
                };
                page = (!matches!(enc, PageEnc::Const { .. })).then(|| pool.pin(self.pages[p]));
            }
            out.push(match (enc, &page) {
                (PageEnc::Const { value }, _) => value,
                (PageEnc::Plain, Some(g)) => g[r % VALS_PER_PAGE],
                (PageEnc::For { base, width }, Some(g)) => {
                    compress::for_get(g, base, width, r % VALS_PER_PAGE)
                }
                // A page is pinned exactly when its encoding needs one.
                _ => unreachable!("unpinned non-constant page in gather"),
            });
        }
        out
    }

    /// Materialize a range into a Vec (tests / small results).
    pub fn to_vec(&self, pool: &BufferPool, range: Range<usize>) -> Vec<u64> {
        let mut out = Vec::with_capacity(range.len());
        for chunk in self.chunks(pool, range) {
            out.extend_from_slice(chunk.values());
        }
        out
    }

    /// For an ascending-sorted column: first index with `value >= v`.
    /// Uses the zone map to locate the page, then searches within it.
    pub fn lower_bound(&self, pool: &BufferPool, v: u64) -> usize {
        self.search(pool, |x| x < v)
    }

    /// For an ascending-sorted column: first index with `value > v`.
    pub fn upper_bound(&self, pool: &BufferPool, v: u64) -> usize {
        self.search(pool, |x| x <= v)
    }

    /// Partition point within `range` of a column whose values are sorted
    /// *within that range*: first index where `pred(value)` is false.
    /// Used by permutation indexes where the secondary column is sorted only
    /// inside runs of equal primary values.
    ///
    /// Page-hoisted: a first binary search over *pages* probes one value per
    /// narrowing step (the last in-range value of the middle page), then the
    /// boundary page is pinned once and searched as a slice — `O(log pages)`
    /// pool requests instead of `O(log rows)`.
    pub fn partition_point_in(
        &self,
        pool: &BufferPool,
        range: Range<usize>,
        pred: impl Fn(u64) -> bool,
    ) -> usize {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        if start >= end {
            return start;
        }
        // Find the page holding the partition point: the first in-range page
        // whose last in-range value fails the predicate (if every page
        // passes, the answer is `end`).
        let first_page = start / VALS_PER_PAGE;
        let last_page = (end - 1) / VALS_PER_PAGE;
        if first_page == last_page {
            let page_start = first_page * VALS_PER_PAGE;
            let chunk = self.pin_local(pool, first_page, start - page_start..end - page_start);
            return chunk.start + chunk.values().partition_point(|&x| pred(x));
        }
        let (mut lo_p, mut hi_p) = (first_page, last_page + 1);
        while lo_p < hi_p {
            let mid = lo_p + (hi_p - lo_p) / 2;
            let page_last = ((mid + 1) * VALS_PER_PAGE).min(end) - 1;
            if pred(self.value(pool, page_last)) {
                lo_p = mid + 1;
            } else {
                hi_p = mid;
            }
        }
        if lo_p > last_page {
            return end;
        }
        // Pin the boundary page once and finish with a slice search over its
        // in-range part.
        let page_start = lo_p * VALS_PER_PAGE;
        let local =
            start.max(page_start) - page_start..end.min(page_start + VALS_PER_PAGE) - page_start;
        let chunk = self.pin_local(pool, lo_p, local);
        chunk.start + chunk.values().partition_point(|&x| pred(x))
    }

    /// First index in `range` with `value >= v` (range-sorted column).
    pub fn lower_bound_in(&self, pool: &BufferPool, range: Range<usize>, v: u64) -> usize {
        self.partition_point_in(pool, range, |x| x < v)
    }

    /// First index in `range` with `value > v` (range-sorted column).
    pub fn upper_bound_in(&self, pool: &BufferPool, range: Range<usize>, v: u64) -> usize {
        self.partition_point_in(pool, range, |x| x <= v)
    }

    /// Generic partition point: first index where `pred(value)` is false,
    /// given that `pred` is monotone (true-prefix) over the sorted column.
    fn search(&self, pool: &BufferPool, pred: impl Fn(u64) -> bool) -> usize {
        if self.len == 0 {
            return 0;
        }
        // Find the first page whose max fails the predicate.
        let zm = &self.zonemap;
        let mut lo_page = 0usize;
        let mut hi_page = self.pages.len();
        while lo_page < hi_page {
            let mid = (lo_page + hi_page) / 2;
            let st = zm.page(mid);
            // A page with only NULLs cannot appear in sorted index columns;
            // treat its max conservatively.
            let page_max = if st.n_nonnull > 0 {
                st.max
            } else {
                NULL_SENTINEL
            };
            if pred(page_max) {
                lo_page = mid + 1;
            } else {
                hi_page = mid;
            }
        }
        if lo_page == self.pages.len() {
            return self.len;
        }
        let chunk = self.pin_page(pool, lo_page);
        chunk.start + chunk.values().partition_point(|&x| pred(x))
    }
}

struct ChunkIter<'c> {
    col: &'c Column,
    pool: &'c BufferPool,
    next: usize,
    end: usize,
}

impl Iterator for ChunkIter<'_> {
    type Item = Chunk;

    fn next(&mut self) -> Option<Chunk> {
        if self.next >= self.end {
            return None;
        }
        let page_idx = self.next / VALS_PER_PAGE;
        let page_start = page_idx * VALS_PER_PAGE;
        let local_start = self.next - page_start;
        let local_end = (self.end - page_start).min(VALS_PER_PAGE);
        let chunk = self
            .col
            .pin_local(self.pool, page_idx, local_start..local_end);
        self.next = page_start + local_end;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(vals: &[u64]) -> (Arc<DiskManager>, BufferPool, Column) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let col = Column::from_slice(&dm, vals);
        let pool = BufferPool::new(Arc::clone(&dm), 64);
        (dm, pool, col)
    }

    #[test]
    fn roundtrip_multi_page() {
        let vals: Vec<u64> = (0..3 * VALS_PER_PAGE as u64 + 17).collect();
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.len(), vals.len());
        assert_eq!(col.n_pages(), 4);
        assert_eq!(col.to_vec(&pool, 0..vals.len()), vals);
        assert_eq!(col.value(&pool, 0), 0);
        assert_eq!(col.value(&pool, vals.len() - 1), vals.len() as u64 - 1);
    }

    #[test]
    fn chunk_boundaries() {
        let vals: Vec<u64> = (0..2 * VALS_PER_PAGE as u64).collect();
        let (_dm, pool, col) = setup(&vals);
        let lo = VALS_PER_PAGE - 5;
        let hi = VALS_PER_PAGE + 5;
        let chunks: Vec<(usize, Vec<u64>)> = col
            .chunks(&pool, lo..hi)
            .map(|c| (c.start, c.values().to_vec()))
            .collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].0, lo);
        assert_eq!(
            chunks[0].1,
            (lo as u64..VALS_PER_PAGE as u64).collect::<Vec<_>>()
        );
        assert_eq!(chunks[1].0, VALS_PER_PAGE);
        assert_eq!(
            chunks[1].1,
            (VALS_PER_PAGE as u64..hi as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bounds_on_sorted_column() {
        let vals: Vec<u64> = (0..20_000u64).map(|i| i * 2).collect(); // evens
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.lower_bound(&pool, 0), 0);
        assert_eq!(col.lower_bound(&pool, 9), 5); // first value >= 9 is 10 at idx 5
        assert_eq!(col.lower_bound(&pool, 10), 5);
        assert_eq!(col.upper_bound(&pool, 10), 6);
        assert_eq!(col.lower_bound(&pool, 40_000), 20_000);
        assert_eq!(col.upper_bound(&pool, 39_998), 20_000);
    }

    #[test]
    fn bounds_with_duplicates() {
        let mut vals = vec![5u64; 10_000];
        vals.extend(vec![7u64; 10_000]);
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.lower_bound(&pool, 5), 0);
        assert_eq!(col.upper_bound(&pool, 5), 10_000);
        assert_eq!(col.lower_bound(&pool, 6), 10_000);
        assert_eq!(col.lower_bound(&pool, 7), 10_000);
        assert_eq!(col.upper_bound(&pool, 7), 20_000);
    }

    #[test]
    fn gather_across_pages() {
        let vals: Vec<u64> = (0..2 * VALS_PER_PAGE as u64 + 100).map(|i| i * 3).collect();
        let (_dm, pool, col) = setup(&vals);
        let rows = vec![
            0,
            5,
            VALS_PER_PAGE - 1,
            VALS_PER_PAGE,
            2 * VALS_PER_PAGE + 50,
        ];
        let got = col.gather(&pool, &rows);
        let expect: Vec<u64> = rows.iter().map(|&r| vals[r]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn range_restricted_bounds() {
        // Two runs: [10,20,30,...] then [5,15,25,...]; each run sorted.
        let mut vals: Vec<u64> = (0..1000).map(|i| 10 + i * 10).collect();
        vals.extend((0..1000).map(|i| 5 + i * 10));
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.lower_bound_in(&pool, 0..1000, 25), 2); // 30 at idx 2
        assert_eq!(col.upper_bound_in(&pool, 0..1000, 30), 3);
        assert_eq!(col.lower_bound_in(&pool, 1000..2000, 25), 1002);
        assert_eq!(col.lower_bound_in(&pool, 1000..2000, 0), 1000);
        assert_eq!(col.upper_bound_in(&pool, 1000..2000, 99_999), 2000);
    }

    #[test]
    fn null_tracking_and_zonemap() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let mut b = ColumnBuilder::new(&dm);
        b.push(10);
        b.push(NULL_SENTINEL);
        b.push(30);
        let col = b.finish();
        assert_eq!(col.n_nulls(), 1);
        let st = col.zonemap().page(0);
        assert_eq!((st.min, st.max, st.n_nonnull), (10, 30, 2));
    }

    #[test]
    fn empty_column() {
        let (_dm, pool, col) = setup(&[]);
        assert!(col.is_empty());
        assert_eq!(col.lower_bound(&pool, 5), 0);
        assert_eq!(col.chunks(&pool, 0..0).count(), 0);
    }

    #[test]
    fn chunk_range_edges() {
        // 3 full pages + a 17-value tail.
        let vals: Vec<u64> = (0..3 * VALS_PER_PAGE as u64 + 17).collect();
        let (_dm, pool, col) = setup(&vals);
        let cases: Vec<Range<usize>> = vec![
            0..0,                                 // empty at start
            VALS_PER_PAGE..VALS_PER_PAGE,         // empty on a boundary
            col.len()..col.len(),                 // empty at end
            5..9,                                 // inside one page
            0..VALS_PER_PAGE,                     // exactly one page
            VALS_PER_PAGE..2 * VALS_PER_PAGE,     // page-aligned interior
            VALS_PER_PAGE - 1..VALS_PER_PAGE + 1, // straddles a boundary
            7..2 * VALS_PER_PAGE + 3,             // mid-page to mid-page
            3 * VALS_PER_PAGE..col.len(),         // the partial tail page
            0..col.len(),                         // everything
            col.len() - 1..col.len() + 100,       // end clamped past len
        ];
        for r in cases {
            let want: Vec<u64> = vals[r.start.min(vals.len())..r.end.min(vals.len())].to_vec();
            let mut got = Vec::new();
            let mut expect_start = r.start.min(vals.len());
            col.for_each_chunk(&pool, r.clone(), |c| {
                assert_eq!(c.start, expect_start, "chunk start for {r:?}");
                expect_start += c.values().len();
                got.extend_from_slice(c.values());
            });
            assert_eq!(got, want, "range {r:?}");
        }
    }

    #[test]
    fn all_null_pages_skip_the_pool() {
        // Page 0: all NULL. Page 1: data. Page 2 (partial): all NULL.
        let mut vals = vec![NULL_SENTINEL; VALS_PER_PAGE];
        vals.extend((0..VALS_PER_PAGE as u64).map(|i| i * 2));
        vals.extend(vec![NULL_SENTINEL; 100]);
        let (_dm, pool, col) = setup(&vals);
        let before = pool.stats();
        let got = col.to_vec(&pool, 0..vals.len());
        assert_eq!(got, vals);
        let d = pool.stats().since(&before);
        assert_eq!(d.hits + d.misses, 1, "only the non-NULL page is requested");

        // Chunks report the fast path.
        let flags: Vec<bool> = col
            .chunks(&pool, 0..vals.len())
            .map(|c| c.is_all_null())
            .collect();
        assert_eq!(flags, vec![true, false, true]);

        // gather over the NULL pages also stays out of the pool.
        let before = pool.stats();
        let rows: Vec<usize> = vec![0, 1, 2 * VALS_PER_PAGE + 5, 2 * VALS_PER_PAGE + 99];
        assert_eq!(col.gather(&pool, &rows), vec![NULL_SENTINEL; 4]);
        let d = pool.stats().since(&before);
        assert_eq!(d.hits + d.misses, 0);
    }

    #[test]
    fn chunked_scan_requests_one_page_per_page() {
        let vals: Vec<u64> = (0..4 * VALS_PER_PAGE as u64).collect();
        let (_dm, pool, col) = setup(&vals);
        let before = pool.stats();
        let mut n = 0u64;
        col.for_each_chunk(&pool, 0..col.len(), |c| n += c.values().len() as u64);
        assert_eq!(n, vals.len() as u64);
        let d = pool.stats().since(&before);
        assert_eq!(
            d.hits + d.misses,
            4,
            "one pool request per page, not per value"
        );
    }

    #[test]
    fn pruned_chunks_never_pin_rejected_pages() {
        let vals: Vec<u64> = (0..4 * VALS_PER_PAGE as u64).collect();
        let (_dm, pool, col) = setup(&vals);
        // Keep only pages overlapping [2.5 pages, 3.2 pages).
        let lo = (2 * VALS_PER_PAGE + VALS_PER_PAGE / 2) as u64;
        let hi = (3 * VALS_PER_PAGE + VALS_PER_PAGE / 5) as u64;
        let before = pool.stats();
        let mut got = Vec::new();
        let mut skipped = 0;
        col.for_each_chunk_pruned(
            &pool,
            0..col.len(),
            |_, st| {
                let keep = st.overlaps(lo, hi);
                if !keep {
                    skipped += 1;
                }
                keep
            },
            |c| got.extend(c.values().iter().copied().filter(|&v| v >= lo && v <= hi)),
        );
        assert_eq!(skipped, 2);
        let want: Vec<u64> = (lo..=hi).collect();
        assert_eq!(got, want);
        let d = pool.stats().since(&before);
        assert_eq!(d.hits + d.misses, 2, "pruned pages are never requested");
    }

    #[test]
    fn partition_point_pins_pages_not_values() {
        let vals: Vec<u64> = (0..16 * VALS_PER_PAGE as u64).map(|i| i * 2).collect();
        let (_dm, pool, col) = setup(&vals);
        for probe in [
            0u64,
            77,
            VALS_PER_PAGE as u64 * 13 + 5,
            vals.len() as u64 * 2,
        ] {
            let before = pool.stats();
            let got = col.lower_bound_in(&pool, 0..col.len(), probe);
            let want = vals.partition_point(|&x| x < probe);
            assert_eq!(got, want, "probe {probe}");
            let d = pool.stats().since(&before);
            // ceil(log2(16 pages + 1)) probes + the final pinned page —
            // versus log2(131072 rows) = 17 per-value probes before hoisting.
            assert!(
                d.hits + d.misses <= 6,
                "{} pool requests for probe {probe}",
                d.hits + d.misses
            );
        }
        // Single-page ranges resolve with exactly one pool request.
        let before = pool.stats();
        let r = 10..200;
        assert_eq!(
            col.upper_bound_in(&pool, r.clone(), 100),
            vals[r].partition_point(|&x| x <= 100) + 10
        );
        let d = pool.stats().since(&before);
        assert_eq!(d.hits + d.misses, 1);
    }

    #[test]
    fn partition_point_in_empty_and_clamped_ranges() {
        let vals: Vec<u64> = (0..2 * VALS_PER_PAGE as u64).collect();
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.lower_bound_in(&pool, 5..5, 0), 5);
        // Inverted ranges are degenerate; the partition point is `start`,
        // matching the plain binary-search behavior.
        let inverted = Range {
            start: 100,
            end: 50,
        };
        assert_eq!(col.lower_bound_in(&pool, inverted, 0), 100);
        // Range end past len is clamped.
        assert_eq!(
            col.lower_bound_in(&pool, 0..col.len() + 999, u64::MAX),
            col.len()
        );
    }

    #[test]
    fn sorted_runs_compress_and_read_back() {
        // Clustered-OID shape: sorted, small per-page range → FOR pages.
        let vals: Vec<u64> = (0..3 * VALS_PER_PAGE as u64 + 500)
            .map(|i| 1_000_000 + i)
            .collect();
        let (_dm, pool, col) = setup(&vals);
        let (plain, forp, cst) = col.encoding_counts();
        assert_eq!((plain, cst), (0, 0), "sorted runs should all pack");
        assert_eq!(forp, col.n_pages());
        assert!(
            col.used_bytes() * 3 < col.plain_bytes(),
            "FOR should shrink a dense run >= 3x: {} vs {}",
            col.used_bytes(),
            col.plain_bytes()
        );
        // Every access path decodes transparently.
        assert_eq!(col.to_vec(&pool, 0..vals.len()), vals);
        assert_eq!(
            col.value(&pool, VALS_PER_PAGE + 17),
            vals[VALS_PER_PAGE + 17]
        );
        let rows = [
            0usize,
            5,
            VALS_PER_PAGE - 1,
            VALS_PER_PAGE,
            3 * VALS_PER_PAGE + 499,
        ];
        assert_eq!(
            col.gather(&pool, &rows),
            rows.iter().map(|&r| vals[r]).collect::<Vec<_>>()
        );
        assert_eq!(col.lower_bound(&pool, 1_000_000 + 12345), 12345);
    }

    #[test]
    fn constant_pages_skip_the_pool() {
        // A full page of one repeated value is served from metadata.
        let vals = vec![99u64; VALS_PER_PAGE + 10];
        let (_dm, pool, col) = setup(&vals);
        let (_, _, cst) = col.encoding_counts();
        assert_eq!(cst, 2);
        let before = pool.stats();
        assert_eq!(col.to_vec(&pool, 0..vals.len()), vals);
        assert_eq!(col.value(&pool, 3), 99);
        assert_eq!(col.gather(&pool, &[0, VALS_PER_PAGE + 1]), vec![99, 99]);
        let d = pool.stats().since(&before);
        assert_eq!(d.hits + d.misses, 0, "constant pages never hit the pool");
    }

    #[test]
    fn compressed_matches_plain_on_mixed_content() {
        // NULL-ridden, unsorted, with wide outliers: every page class at
        // once, read back equal to the plain values it was built from.
        let mut vals = Vec::new();
        for i in 0..(2 * VALS_PER_PAGE + 700) as u64 {
            vals.push(match i % 7 {
                0 => NULL_SENTINEL,
                1 => 5,
                2 => u64::MAX - 2 - i, // wide range → plain page
                _ => 1_000 + (i % 50),
            });
        }
        let (_dm, pool, col) = setup(&vals);
        assert_eq!(col.to_vec(&pool, 0..vals.len()), vals);
        assert_eq!(col.n_nulls(), vals.len().div_ceil(7));
        let rows: Vec<usize> = (0..vals.len()).step_by(97).collect();
        let want: Vec<u64> = rows.iter().map(|&r| vals[r]).collect();
        assert_eq!(col.gather(&pool, &rows), want);
        for idx in [0, 1, VALS_PER_PAGE, 2 * VALS_PER_PAGE + 699] {
            assert_eq!(col.value(&pool, idx), vals[idx]);
        }
    }

    #[test]
    fn zonemap_matches_contents() {
        let vals: Vec<u64> = (0..VALS_PER_PAGE as u64 * 2).collect();
        let (_dm, _pool, col) = setup(&vals);
        let zm = col.zonemap();
        assert_eq!(zm.page(0).min, 0);
        assert_eq!(zm.page(0).max, VALS_PER_PAGE as u64 - 1);
        assert_eq!(zm.page(1).min, VALS_PER_PAGE as u64);
        assert_eq!(zm.candidate_pages(3, 5), vec![0]);
    }
}
