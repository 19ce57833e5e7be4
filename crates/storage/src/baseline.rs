//! The permutation-indexed triple table: the baseline store (MonetDB+HSP /
//! RDF-3X layout) and the irregular remainder of a clustered database.

use crate::generation::BaseLayout;
use crate::perm::{Order, PermIndex};
use sordf_columnar::{BufferPool, DiskManager, PageLease};
use sordf_model::{Oid, Triple};
use std::ops::Range;
use std::sync::Arc;

/// Sorted permutation projections over one triple table: the orders the
/// engine reads, PSO (a predicate's subject-sorted pairs) and POS (a
/// predicate's object-sorted pairs).
///
/// This is the paper's baseline: "current state-of-the-art RDF stores such
/// as RDF-3X create exhaustive indexes for all permutations" — plenty of
/// access paths, none of which gives the locality of a clustered relational
/// table. Every plan over it starts from a predicate, so the four orders
/// that lead with a subject or an object would be built and never read.
/// The same structure (over far fewer triples) stores the *irregular*
/// remainder of a clustered database.
#[derive(Debug, Clone)]
pub struct BaselineStore {
    /// One projection per [`Order`], at its position in [`Order::ALL`].
    perms: [PermIndex; 2],
    n_triples: usize,
    /// Leases this store's pages from the disk manager: when the last clone
    /// (i.e. the last generation pin referencing this store) drops, the
    /// pages return to the free list. Shared across clones so the extent is
    /// freed exactly once.
    _lease: Arc<PageLease>,
}

impl BaselineStore {
    /// Build every projection.
    pub fn build(disk: &Arc<DiskManager>, triples: &[Triple]) -> BaselineStore {
        let perms = Order::ALL.map(|o| PermIndex::build(disk, triples, o));
        let mut pages = Vec::new();
        for perm in &perms {
            for i in 0..3 {
                pages.extend_from_slice(perm.col(i).page_ids());
            }
        }
        BaselineStore {
            perms,
            n_triples: triples.len(),
            _lease: Arc::new(PageLease::new(Arc::clone(disk), pages)),
        }
    }

    /// Bytes a scan of every projection must touch (encoded size).
    pub fn used_bytes(&self) -> usize {
        self.perms.iter().map(|p| p.used_bytes()).sum()
    }

    /// Bytes the store would occupy without page compression.
    pub fn plain_bytes(&self) -> usize {
        self.perms.iter().map(|p| p.plain_bytes()).sum()
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.n_triples
    }

    pub fn is_empty(&self) -> bool {
        self.n_triples == 0
    }

    /// The projection sorted under `order`.
    pub fn perm(&self, order: Order) -> &PermIndex {
        &self.perms[order as usize]
    }

    /// All (s, o) pairs for predicate `p`, s-sorted (a PSO scan).
    pub fn scan_p(&self, pool: &BufferPool, p: Oid) -> Vec<(Oid, Oid)> {
        let idx = self.perm(Order::Pso);
        let r = idx.range1(pool, p);
        idx.pairs(pool, r)
    }

    /// Append every stored triple to `out` in PSO order: one SPO-sorted run
    /// per predicate.
    pub(crate) fn push_pso(&self, pool: &BufferPool, out: &mut Vec<Triple>) {
        let pso = self.perm(Order::Pso);
        let all = 0..self.n_triples;
        let (s, o) = (
            pso.col(1).to_vec(pool, all.clone()),
            pso.col(2).to_vec(pool, all),
        );
        out.reserve(self.n_triples);
        for (p, rows) in pso.runs() {
            out.extend(rows.map(|i| Triple::new(Oid::from_raw(s[i]), p, Oid::from_raw(o[i]))));
        }
    }

    /// The objects of subject `s` among a predicate's PSO rows `run`.
    fn objects_in(&self, pool: &BufferPool, run: Range<usize>, s: Oid) -> Vec<u64> {
        let pso = self.perm(Order::Pso);
        let lo = pso.col(1).lower_bound_in(pool, run.clone(), s.raw());
        let hi = pso.col(1).upper_bound_in(pool, run, s.raw());
        pso.col(2).to_vec(pool, lo..hi)
    }

    /// All subjects with `p = o`, sorted (a POS lookup).
    pub fn subjects_pq(&self, pool: &BufferPool, p: Oid, o: Oid) -> Vec<Oid> {
        let idx = self.perm(Order::Pos);
        let r = idx.range2(pool, p, o);
        idx.col(2)
            .to_vec(pool, r)
            .into_iter()
            .map(Oid::from_raw)
            .collect()
    }
}

impl BaseLayout for BaselineStore {
    fn n_triples(&self) -> usize {
        self.n_triples
    }

    /// Every stored triple in SPO order, duplicates included: the PSO
    /// projection's predicate runs, merged.
    fn triples_spo(&self, pool: &BufferPool) -> Vec<Triple> {
        let mut out = Vec::new();
        self.push_pso(pool, &mut out);
        // Each predicate's run is already SPO-sorted: the run-adaptive
        // stable sort merges them.
        out.sort();
        out
    }

    /// How many times the store holds `t`.
    fn occurrences(&self, pool: &BufferPool, t: Triple) -> usize {
        let run = self.perm(Order::Pso).run_of(t.p);
        let objects = self.objects_in(pool, run, t.s);
        objects.into_iter().filter(|&o| o == t.o.raw()).count()
    }

    /// Append the triples of subject `s` to `out`, in SPO order: one search
    /// of the subject in each predicate's run.
    fn of_subject(&self, pool: &BufferPool, s: Oid, out: &mut Vec<Triple>) {
        for (p, run) in self.perm(Order::Pso).runs() {
            let objects = self.objects_in(pool, run, s);
            out.extend(
                objects
                    .into_iter()
                    .map(|o| Triple::new(s, p, Oid::from_raw(o))),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Oid::iri(s), Oid::iri(p), Oid::iri(o))
    }

    fn setup(triples: &[Triple]) -> (Arc<DiskManager>, BufferPool, BaselineStore) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = BaselineStore::build(&dm, triples);
        let pool = BufferPool::new(Arc::clone(&dm), 256);
        (dm, pool, store)
    }

    #[test]
    fn pso_scan() {
        let triples = vec![t(1, 10, 100), t(2, 10, 101), t(1, 11, 102)];
        let (_dm, pool, store) = setup(&triples);
        assert_eq!(store.len(), 3);
        assert!(store.scan_p(&pool, Oid::iri(9)).is_empty());
        let scan = store.scan_p(&pool, Oid::iri(10));
        assert_eq!(
            scan,
            vec![(Oid::iri(1), Oid::iri(100)), (Oid::iri(2), Oid::iri(101))]
        );
    }

    #[test]
    fn enumeration_and_lookups_answer_what_the_triples_hold() {
        let mut triples = vec![
            t(2, 10, 100),
            t(1, 11, 102),
            t(1, 10, 100),
            t(1, 10, 100),
            t(3, 12, 5),
        ];
        let (_dm, pool, store) = setup(&triples);
        triples.sort_unstable();
        assert_eq!(
            store.triples_spo(&pool),
            triples,
            "SPO order, duplicates kept"
        );
        assert_eq!(store.occurrences(&pool, t(1, 10, 100)), 2);
        assert_eq!(store.occurrences(&pool, t(1, 10, 101)), 0);
        assert_eq!(store.occurrences(&pool, t(1, 13, 100)), 0);
        let mut rows = Vec::new();
        store.of_subject(&pool, Oid::iri(1), &mut rows);
        assert_eq!(rows, [t(1, 10, 100), t(1, 10, 100), t(1, 11, 102)]);
        rows.clear();
        store.of_subject(&pool, Oid::iri(4), &mut rows);
        assert!(rows.is_empty());
    }

    #[test]
    fn pos_lookup() {
        let triples = vec![t(1, 10, 100), t(2, 10, 100), t(3, 10, 101)];
        let (_dm, pool, store) = setup(&triples);
        assert_eq!(
            store.subjects_pq(&pool, Oid::iri(10), Oid::iri(100)),
            vec![Oid::iri(1), Oid::iri(2)]
        );
        assert!(store
            .subjects_pq(&pool, Oid::iri(10), Oid::iri(999))
            .is_empty());
    }
}
