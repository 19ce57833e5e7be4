//! Sorted permutation projections of the triple table.
//!
//! A [`PermIndex`] stores one (S,P,O) order as three aligned
//! paged columns, sorted lexicographically by (key0, key1, key2). Prefix
//! lookups use zone-map-assisted binary search: `range1(a)` finds the run of
//! rows with key0 = a, `range2(a, b)` narrows to key1 = b, and
//! `range2_between` supports range predicates on the second key — the
//! access pattern of a `POS` scan with an object range restriction.

use sordf_columnar::{BufferPool, Column, ColumnBuilder, DiskManager};
use sordf_model::{Oid, Triple};
use std::ops::Range;

/// A sort order of a permutation projection: the two that lead with the
/// predicate, the only ones a plan reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    Pso,
    Pos,
}

impl Order {
    /// Every order, in the position [`crate::BaselineStore`] builds it.
    pub const ALL: [Order; 2] = [Order::Pso, Order::Pos];

    /// The sort key of a triple under this order.
    #[inline]
    pub fn key(self, t: &Triple) -> (Oid, Oid, Oid) {
        match self {
            Order::Pso => t.key_pso(),
            Order::Pos => t.key_pos(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Order::Pso => "PSO",
            Order::Pos => "POS",
        }
    }
}

/// A triple projection sorted under one [`Order`].
#[derive(Debug, Clone)]
pub struct PermIndex {
    pub order: Order,
    /// The three key columns in sort-major order (e.g. for PSO:
    /// `cols[0]` = P, `cols[1]` = S, `cols[2]` = O).
    cols: [Column; 3],
    len: usize,
    /// Each distinct key0 with its first row, ascending: the runs the
    /// projection is cut into (for PSO, one per predicate).
    runs: Vec<(Oid, usize)>,
}

impl PermIndex {
    /// Build from triples; sorts a scratch copy internally.
    pub fn build(disk: &DiskManager, triples: &[Triple], order: Order) -> PermIndex {
        let mut keys: Vec<(Oid, Oid, Oid)> = triples.iter().map(|t| order.key(t)).collect();
        keys.sort_unstable();
        let mut builders = [
            ColumnBuilder::new(disk),
            ColumnBuilder::new(disk),
            ColumnBuilder::new(disk),
        ];
        for &(a, b, c) in &keys {
            builders[0].push(a.raw());
            builders[1].push(b.raw());
            builders[2].push(c.raw());
        }
        let mut runs: Vec<(Oid, usize)> = Vec::new();
        for (i, &(a, _, _)) in keys.iter().enumerate() {
            if runs.last().map_or(true, |&(last, _)| last != a) {
                runs.push((a, i));
            }
        }
        let [b0, b1, b2] = builders;
        PermIndex {
            order,
            cols: [b0.finish(), b1.finish(), b2.finish()],
            len: keys.len(),
            runs,
        }
    }

    /// Each distinct key0 and its rows, ascending.
    pub fn runs(&self) -> impl Iterator<Item = (Oid, Range<usize>)> + '_ {
        self.runs.iter().enumerate().map(|(i, &(a, start))| {
            let end = self.runs.get(i + 1).map_or(self.len, |&(_, e)| e);
            (a, start..end)
        })
    }

    /// Rows where key0 == `a`, found in the run list without a page read.
    pub fn run_of(&self, a: Oid) -> Range<usize> {
        let i = self.runs.partition_point(|&(x, _)| x < a);
        match self.runs.get(i) {
            Some(&(x, start)) if x == a => {
                start..self.runs.get(i + 1).map_or(self.len, |&(_, e)| e)
            }
            _ => 0..0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The i-th key column (0 = sort-major).
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// Bytes a full scan of this projection must touch (encoded size).
    pub fn used_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.used_bytes()).sum()
    }

    /// Bytes the projection would occupy without page compression.
    pub fn plain_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.plain_bytes()).sum()
    }

    /// Rows where key0 == `a`.
    pub fn range1(&self, pool: &BufferPool, a: Oid) -> Range<usize> {
        let lo = self.cols[0].lower_bound(pool, a.raw());
        let hi = self.cols[0].upper_bound(pool, a.raw());
        lo..hi
    }

    /// Rows where key0 == `a` and key1 == `b`.
    pub fn range2(&self, pool: &BufferPool, a: Oid, b: Oid) -> Range<usize> {
        let r = self.range1(pool, a);
        let lo = self.cols[1].lower_bound_in(pool, r.clone(), b.raw());
        let hi = self.cols[1].upper_bound_in(pool, r, b.raw());
        lo..hi
    }

    /// Rows where key0 == `a` and `lo <= key1 <= hi` (inclusive).
    pub fn range2_between(&self, pool: &BufferPool, a: Oid, lo: Oid, hi: Oid) -> Range<usize> {
        let r = self.range1(pool, a);
        let start = self.cols[1].lower_bound_in(pool, r.clone(), lo.raw());
        let end = self.cols[1].upper_bound_in(pool, r, hi.raw());
        start..end.max(start)
    }

    /// Materialize `(key1, key2)` pairs of a row range. Chunk-at-a-time:
    /// the two columns share page geometry, so their chunks pair up in
    /// lockstep, one pin per page per column.
    pub fn pairs(&self, pool: &BufferPool, range: Range<usize>) -> Vec<(Oid, Oid)> {
        let mut out = Vec::with_capacity(range.len());
        Column::for_each_chunk_pair(&self.cols[1], &self.cols[2], pool, range, |c1, c2| {
            out.extend(
                c1.values()
                    .iter()
                    .zip(c2.values())
                    .map(|(&a, &b)| (Oid::from_raw(a), Oid::from_raw(b))),
            );
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Oid::iri(s), Oid::iri(p), Oid::iri(o))
    }

    fn setup(triples: &[Triple], order: Order) -> (Arc<DiskManager>, BufferPool, PermIndex) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let idx = PermIndex::build(&dm, triples, order);
        let pool = BufferPool::new(Arc::clone(&dm), 128);
        (dm, pool, idx)
    }

    #[test]
    fn pso_prefix_lookup() {
        let triples = vec![t(1, 10, 100), t(2, 10, 101), t(3, 11, 102), t(1, 11, 103)];
        let (_dm, pool, idx) = setup(&triples, Order::Pso);
        let r = idx.range1(&pool, Oid::iri(10));
        assert_eq!(r, 0..2);
        assert_eq!(
            idx.pairs(&pool, r),
            vec![(Oid::iri(1), Oid::iri(100)), (Oid::iri(2), Oid::iri(101))]
        );
        let r11 = idx.range1(&pool, Oid::iri(11));
        assert_eq!(
            idx.pairs(&pool, r11),
            vec![(Oid::iri(1), Oid::iri(103)), (Oid::iri(3), Oid::iri(102))]
        );
        assert!(idx.range1(&pool, Oid::iri(99)).is_empty());
    }

    #[test]
    fn pos_object_range() {
        // p=10 with objects 100..200 step 10 over subjects 0..10
        let triples: Vec<Triple> = (0..10).map(|i| t(i, 10, 100 + i * 10)).collect();
        let (_dm, pool, idx) = setup(&triples, Order::Pos);
        let r = idx.range2_between(&pool, Oid::iri(10), Oid::iri(120), Oid::iri(150));
        let pairs = idx.pairs(&pool, r);
        // key1 = O, key2 = S under POS
        assert_eq!(
            pairs.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            vec![Oid::iri(120), Oid::iri(130), Oid::iri(140), Oid::iri(150)]
        );
    }

    #[test]
    fn range2_finds_a_key_pair() {
        let triples = vec![t(1, 10, 5), t(1, 10, 6), t(1, 11, 7), t(2, 10, 5)];
        let (_dm, pool, idx) = setup(&triples, Order::Pso);
        assert_eq!(idx.range2(&pool, Oid::iri(10), Oid::iri(1)).len(), 2);
    }

    #[test]
    fn all_orders_agree_on_membership() {
        let triples: Vec<Triple> = (0..200).map(|i| t(i % 7, 10 + i % 3, 100 + i)).collect();
        let dm = Arc::new(DiskManager::temp().unwrap());
        let pool = BufferPool::new(Arc::clone(&dm), 256);
        for order in Order::ALL {
            let idx = PermIndex::build(&dm, &triples, order);
            assert_eq!(idx.len(), triples.len(), "{}", order.name());
            for t in triples.iter().take(20) {
                let (a, b, c) = order.key(t);
                let rows = idx.range2(&pool, a, b);
                assert!(idx.pairs(&pool, rows).contains(&(b, c)), "{}", order.name());
            }
        }
    }

    #[test]
    fn runs_are_the_key0_ranges() {
        let triples: Vec<Triple> = (0..300).map(|i| t(i % 7, 10 + i % 4, 100 + i)).collect();
        let (_dm, pool, idx) = setup(&triples, Order::Pso);
        let runs: Vec<_> = idx.runs().collect();
        assert_eq!(runs.len(), 4);
        for (p, rows) in runs {
            assert_eq!(rows, idx.range1(&pool, p));
            assert_eq!(idx.run_of(p), rows);
        }
        assert!(idx.run_of(Oid::iri(9)).is_empty());
        assert!(idx.run_of(Oid::iri(99)).is_empty());
    }

    #[test]
    fn empty_index() {
        let (_dm, pool, idx) = setup(&[], Order::Pso);
        assert!(idx.is_empty());
        assert!(idx.range1(&pool, Oid::iri(1)).is_empty());
    }
}
