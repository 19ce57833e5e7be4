//! The delta store: writes after `self_organize()`.
//!
//! The paper's store is *self-organizing* — structure is discovered from the
//! data and then maintained as data keeps arriving. Physically, though, the
//! clustered generation is immutable: columns, side tables and permutation
//! indexes are built once. The [`DeltaStore`] closes that gap with the
//! classic differential-store design (MonetDB itself keeps per-column
//! insert/delete deltas next to the read-optimized BATs):
//!
//! * **Insert runs** — every write batch becomes one sorted in-memory run of
//!   encoded triples. Runs are never merged into base columns; the query
//!   engine unions them with the base scans (see `sordf_engine::scan`).
//! * **Tombstones** — deletes never touch base pages either; a tombstone
//!   records the deleted `(s, p, o)` and the engine filters matching base
//!   (and earlier-delta) values out of every scan.
//! * **MVCC-lite snapshot sequencing** — every write batch gets a
//!   monotonically increasing sequence number. A [`Snapshot`] is just a
//!   sequence number; a reader at snapshot `S` sees exactly the runs with
//!   `seq <= S`, minus the tombstones with `seq <= S` (a tombstone only
//!   kills versions inserted *before* it, so delete-then-reinsert behaves
//!   like a version chain). There is no write-ahead log and no garbage
//!   collection: the delta lives until the next reorganization collapses it
//!   into a fresh base generation.
//!
//! A [`DeltaView`] is the read-side materialization of one snapshot: two
//! (p, s, o)-sorted lists — the visible inserted triples and the applicable
//! tombstones (distinct). Everything a reader asks of the view is a binary
//! search or a borrowed sub-slice of one of them: membership
//! ([`DeltaView::is_deleted`]), a predicate's pairs in a subject range
//! ([`DeltaView::tombstones_for`], [`DeltaView::insert_pairs_for`]), and
//! whether a pending insert can attach to a subject range at all
//! ([`DeltaView::has_inserts_in`], the segment-scoped pruning rule of the
//! star scans). There is no hash set beside the lists: a reader that pins
//! the view while a writer moves on costs one copy of two vectors. The store
//! caches the view of the *current* sequence and maintains it per write batch
//! by ordered splices located by binary search (an insert run is one sorted
//! merge) — so queries never pay the merge — and builds historical views on
//! demand.

use sordf_model::{FxHashMap, Oid, Triple};
use std::sync::Arc;

/// A point in the write sequence. Obtained from [`DeltaStore::snapshot`];
/// queries pinned to a snapshot see exactly the writes applied up to it.
#[must_use = "a Snapshot identifies the writes a reader may see; bind it (or `let _ =` it) rather than silently dropping the visibility point"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Snapshot(u64);

impl Snapshot {
    /// The raw sequence number (0 = base only, before any delta write).
    pub fn seq(&self) -> u64 {
        self.0
    }
}

/// One write batch's inserts, SPO-sorted.
#[derive(Debug, Clone)]
struct DeltaRun {
    seq: u64,
    /// Inserted triples, sorted by (s, p, o). Duplicates are kept — RDF-H
    /// style bulk loads keep duplicate triples too, and the engine's
    /// placement rules give each occurrence a home.
    triples: Vec<Triple>,
}

/// The read-side materialization of one snapshot.
#[derive(Debug, Clone, Default)]
pub struct DeltaView {
    seq: u64,
    /// Visible inserted triples, sorted by (p, s, o) — the order property
    /// scans consume. A run triple is visible unless a *later* tombstone
    /// (still within the snapshot) deleted it.
    inserts_pso: Vec<Triple>,
    /// The distinct tombstones applicable at this snapshot, strictly sorted
    /// by (p, s, o): membership is a binary search, a predicate's tombstones
    /// in a subject range are a sub-slice.
    tombs_pso: Vec<Triple>,
    /// True when string literals were interned after the last string-pool
    /// sort: string OID order no longer equals lexicographic order, so the
    /// engine must stop pushing ordered string comparisons into scans.
    pub strings_appended: bool,
}

impl DeltaView {
    /// The snapshot this view materializes.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// No visible inserts and no applicable tombstones?
    pub fn is_empty(&self) -> bool {
        self.inserts_pso.is_empty() && self.tombs_pso.is_empty()
    }

    /// Number of visible inserted triples.
    pub fn n_inserts(&self) -> usize {
        self.inserts_pso.len()
    }

    /// Number of applicable tombstones.
    pub fn n_tombstones(&self) -> usize {
        self.tombs_pso.len()
    }

    /// Is this exact triple deleted at the view's snapshot? (Base-resident
    /// occurrences only — visible delta inserts already had their
    /// tombstones applied during view construction.)
    #[inline]
    pub fn is_deleted(&self, t: Triple) -> bool {
        self.tombs_pso
            .binary_search_by_key(&t.key_pso(), |x| x.key_pso())
            .is_ok()
    }

    /// All applicable tombstones, strictly sorted by (p, s, o).
    pub fn tombstones(&self) -> &[Triple] {
        &self.tombs_pso
    }

    /// The tombstones of predicate `p`, optionally restricted to a subject
    /// range — a borrowed slice, sorted by (s, o). Empty for most predicates
    /// most of the time, which is what lets scans skip the subtraction.
    pub fn tombstones_for(&self, p: Oid, s_range: Option<(u64, u64)>) -> &[Triple] {
        slice_for(&self.tombs_pso, p, s_range)
    }

    /// Is any insert for predicate `p` pending on a subject in
    /// `[s_lo, s_hi]`? While this is true for a segment's subject range,
    /// star scans must not narrow or prune that segment on `p`'s *base*
    /// column values (sort key ranges, zone maps): the insert may supply the
    /// matching value for a row whose base value is NULL or out of range,
    /// and dropping the row would drop its exception bindings with it.
    /// Inserts for subjects outside the range cannot attach to any of the
    /// segment's rows and block nothing.
    pub fn has_inserts_in(&self, p: Oid, s_lo: u64, s_hi: u64) -> bool {
        let at = self
            .inserts_pso
            .partition_point(|t| (t.p, t.s.raw()) < (p, s_lo));
        self.inserts_pso
            .get(at)
            .is_some_and(|t| t.p == p && t.s.raw() <= s_hi)
    }

    /// Visible inserted `(s, o)` pairs of predicate `p`, optionally
    /// restricted to a subject range, sorted by (s, o).
    pub fn insert_pairs_for(
        &self,
        p: Oid,
        s_range: Option<(u64, u64)>,
    ) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        slice_for(&self.inserts_pso, p, s_range)
            .iter()
            .map(|t| (t.s, t.o))
    }

    /// All visible inserted triples, sorted by (p, s, o).
    pub fn inserts(&self) -> &[Triple] {
        &self.inserts_pso
    }

    /// The visible inserted triples of subject `s`, by hopping from one
    /// predicate's run of the (p, s, o)-sorted list to the next:
    /// O(predicates · log delta), not a pass over the delta.
    pub fn inserts_of_subject(&self, s: Oid) -> Vec<Triple> {
        let mut out = Vec::new();
        let mut rest = &self.inserts_pso[..];
        while let Some(first) = rest.first() {
            let p = first.p;
            let run_end = rest.partition_point(|t| t.p <= p);
            out.extend_from_slice(slice_for(&rest[..run_end], p, Some((s.raw(), s.raw()))));
            rest = &rest[run_end..];
        }
        out
    }

    /// Visible insert counts per predicate, ascending by predicate — the
    /// drift adjustment the optimizer's statistics view folds into its
    /// cardinality estimates (pending writes inflate per-predicate counts).
    /// One ordered walk over the PSO-sorted inserts.
    pub fn insert_counts_by_pred(&self) -> Vec<(Oid, u64)> {
        let mut out: Vec<(Oid, u64)> = Vec::new();
        for t in &self.inserts_pso {
            match out.last_mut() {
                Some((p, n)) if *p == t.p => *n += 1,
                _ => out.push((t.p, 1)),
            }
        }
        out
    }
}

/// Union of two (p, s, o)-sorted triple lists, order preserved.
fn merge_pso(a: Vec<Triple>, b: Vec<Triple>) -> Vec<Triple> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].key_pso() <= b[j].key_pso() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The (p, s)-bounded slice of a (p, s, o)-sorted triple list.
fn slice_for(pso: &[Triple], p: Oid, s_range: Option<(u64, u64)>) -> &[Triple] {
    let lo = pso.partition_point(|t| t.p < p);
    let hi = pso.partition_point(|t| t.p <= p);
    let mut slice = &pso[lo..hi];
    if let Some((s_lo, s_hi)) = s_range {
        let a = slice.partition_point(|t| t.s.raw() < s_lo);
        let b = slice.partition_point(|t| t.s.raw() <= s_hi);
        slice = &slice[a..b.max(a)];
    }
    slice
}

/// Remove every occurrence of each `batch` triple from `list` (both
/// (p, s, o)-sorted, `batch` distinct): the equal-ranges are located by
/// binary search and closed up in one left-to-right pass over the tail.
fn remove_sorted(list: &mut Vec<Triple>, batch: &[Triple]) {
    let mut write = 0usize; // end of the kept prefix
    let mut read = 0usize; // start of the not-yet-moved remainder
    for t in batch {
        let key = t.key_pso();
        let lo = read + list[read..].partition_point(|x| x.key_pso() < key);
        let hi = lo + list[lo..].partition_point(|x| x.key_pso() <= key);
        if lo == hi {
            continue;
        }
        list.copy_within(read..lo, write);
        write += lo - read;
        read = hi;
    }
    if read == write {
        return; // nothing matched
    }
    list.copy_within(read.., write);
    let kept = write + (list.len() - read);
    list.truncate(kept);
}

/// Insert the `batch` triples not yet in `list` (both (p, s, o)-sorted and
/// distinct; `list` stays distinct): positions are located by binary search,
/// then the tail is moved once, right to left, opening the gaps in place.
fn insert_sorted(list: &mut Vec<Triple>, batch: &[Triple]) {
    // (position in the old list, triple), ascending in both.
    let mut fresh: Vec<(usize, Triple)> = Vec::with_capacity(batch.len());
    let mut from = 0usize;
    for &t in batch {
        let key = t.key_pso();
        let at = from + list[from..].partition_point(|x| x.key_pso() < key);
        from = at;
        if list.get(at) != Some(&t) {
            fresh.push((at, t));
        }
    }
    let Some(&(_, filler)) = fresh.first() else {
        return;
    };
    let mut read = list.len(); // end of the not-yet-moved old prefix
    list.resize(read + fresh.len(), filler);
    let mut write = list.len(); // start of the finished suffix
    for &(at, t) in fresh.iter().rev() {
        list.copy_within(at..read, write - (read - at));
        write -= read - at;
        read = at;
        write -= 1;
        list[write] = t;
    }
}

/// One write batch, as replayed across a generation swap: the catch-up fold
/// decodes these under the old dictionary, re-encodes them under the new
/// generation's (renumbered) dictionary and replays them into the fresh
/// delta store in sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaWrite {
    /// One insert batch (a whole [`DeltaStore::insert_run`] call).
    Insert(Vec<Triple>),
    /// One delete batch (a whole [`DeltaStore::delete`] call).
    Delete(Vec<Triple>),
}

/// Sorted in-memory insert runs + a tombstone set, with snapshot
/// sequencing. See the [module docs](self).
#[derive(Debug, Default)]
pub struct DeltaStore {
    runs: Vec<DeltaRun>,
    /// Tombstones in application order: (seq, triple).
    tombstones: Vec<(u64, Triple)>,
    /// Sequence of the latest applied write batch (== `base_seq` while the
    /// store holds no writes).
    seq: u64,
    /// The sequence this store starts at: every write folded into the base
    /// generation carries a sequence `<= base_seq`. 0 for a store over a
    /// bulk-loaded base; a store installed by a generation swap continues
    /// the pre-swap numbering so snapshots taken at or after the rebuild
    /// pin stay meaningful across the swap.
    base_seq: u64,
    /// Set by the owner when inserts interned new string literals (see
    /// [`DeltaView::strings_appended`]).
    strings_appended: bool,
    /// Cached view of the current sequence (`None` while empty), shared
    /// with in-flight queries that pinned it (copy-on-write under them).
    current: Option<Arc<DeltaView>>,
}

impl DeltaStore {
    pub fn new() -> DeltaStore {
        DeltaStore::default()
    }

    /// A store whose sequence numbering continues from `base_seq` — the
    /// delta installed by a generation swap, whose base already contains
    /// every write up to (and including) `base_seq`.
    pub fn with_base_seq(base_seq: u64) -> DeltaStore {
        DeltaStore {
            seq: base_seq,
            base_seq,
            ..DeltaStore::default()
        }
    }

    /// The current sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The sequence this store starts at (see [`DeltaStore::with_base_seq`]).
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// A snapshot of the current state.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.seq)
    }

    /// No runs and no tombstones at all?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.tombstones.is_empty()
    }

    /// Total inserted triples across all runs (including later-deleted ones).
    pub fn n_inserted(&self) -> usize {
        self.runs.iter().map(|r| r.triples.len()).sum()
    }

    /// Total tombstones recorded.
    pub fn n_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    /// Number of insert runs currently held: one per insert batch since the
    /// last reorganization.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// Approximate resident bytes of the pending writes: run triples plus
    /// sequenced tombstones (allocator slack not counted).
    pub fn approx_bytes(&self) -> u64 {
        let triple = std::mem::size_of::<Triple>() as u64;
        self.n_inserted() as u64 * triple
            + self.tombstones.len() as u64 * (triple + std::mem::size_of::<u64>() as u64)
    }

    /// Record that inserts interned new string literals; propagated into
    /// every view built from now on.
    pub fn set_strings_appended(&mut self) {
        self.strings_appended = true;
        if let Some(v) = &mut self.current {
            Arc::make_mut(v).strings_appended = true;
        }
    }

    /// Apply one insert batch as a new sorted run. Returns the snapshot at
    /// which the batch is visible. The cached current view is maintained
    /// *incrementally* — one sorted merge of the batch, not a rebuild of the
    /// whole delta — so N small batches cost O(total delta) overall, not
    /// O(total delta · N).
    pub fn insert_run(&mut self, mut triples: Vec<Triple>) -> Snapshot {
        if triples.is_empty() {
            return self.snapshot();
        }
        triples.sort_unstable_by_key(|t| t.key_spo());
        self.seq += 1;
        // A fresh run cannot be killed by existing tombstones (their seqs
        // all precede it), so the view merge is a plain sorted union.
        let mut run_pso = triples.clone();
        run_pso.sort_unstable_by_key(|t| t.key_pso());
        let seq = self.seq;
        let cur = self.current_mut();
        cur.seq = seq;
        cur.inserts_pso = merge_pso(std::mem::take(&mut cur.inserts_pso), run_pso);
        self.runs.push(DeltaRun { seq, triples });
        #[cfg(debug_assertions)]
        self.debug_validate();
        self.snapshot()
    }

    /// Apply one delete batch: tombstone each triple. Tombstones kill base
    /// occurrences and any delta version inserted before this batch; a later
    /// re-insert of the same triple is visible again. The cached view is
    /// maintained incrementally: every currently visible insert of a
    /// tombstoned triple predates the tombstone, so the batch's equal-ranges
    /// in `inserts_pso` (found by binary search) drop out in one ordered
    /// splice, and the tombstones not yet listed splice into `tombs_pso` the
    /// same way — O(batch · log delta) to locate plus one move of the tail,
    /// with no probe over the rest of the delta.
    pub fn delete(&mut self, triples: &[Triple]) -> Snapshot {
        if triples.is_empty() {
            return self.snapshot();
        }
        self.seq += 1;
        let seq = self.seq;
        self.tombstones.extend(triples.iter().map(|&t| (seq, t)));
        let mut batch = triples.to_vec();
        batch.sort_unstable_by_key(|t| t.key_pso());
        batch.dedup();
        let cur = self.current_mut();
        cur.seq = seq;
        remove_sorted(&mut cur.inserts_pso, &batch);
        insert_sorted(&mut cur.tombs_pso, &batch);
        #[cfg(debug_assertions)]
        self.debug_validate();
        self.snapshot()
    }

    /// Check the store's structural invariants; panics (via `assert!`) on
    /// violation. Rebuilds the current view from the runs and tombstones
    /// (O(delta · log delta)) — debug builds run it after every write batch,
    /// stress tests call it directly.
    pub fn debug_validate(&self) {
        assert!(
            self.seq >= self.base_seq,
            "sequence {} ran behind base_seq {}",
            self.seq,
            self.base_seq
        );
        let mut prev_seq = self.base_seq;
        for run in &self.runs {
            assert!(
                run.seq > prev_seq && run.seq <= self.seq,
                "run seq {} outside the ascending range ({}, {}]",
                run.seq,
                prev_seq,
                self.seq
            );
            prev_seq = run.seq;
            assert!(
                run.triples
                    .windows(2)
                    .all(|w| w[0].key_spo() <= w[1].key_spo()),
                "run {} is not SPO-sorted",
                run.seq
            );
        }
        let mut prev_tomb = self.base_seq;
        for &(tseq, _) in &self.tombstones {
            assert!(
                tseq >= prev_tomb && tseq > self.base_seq && tseq <= self.seq,
                "tombstone seq {} outside the non-decreasing range ({}, {}]",
                tseq,
                self.base_seq,
                self.seq
            );
            prev_tomb = tseq;
        }
        if let Some(cur) = &self.current {
            assert_eq!(cur.seq, self.seq, "cached view lags the store's sequence");
            assert!(
                cur.inserts_pso
                    .windows(2)
                    .all(|w| w[0].key_pso() <= w[1].key_pso()),
                "cached view inserts are not PSO-sorted"
            );
            assert!(
                cur.tombs_pso
                    .windows(2)
                    .all(|w| w[0].key_pso() < w[1].key_pso()),
                "cached view tombstones are not strictly PSO-sorted"
            );
            // The set-less view is exactly what a from-scratch rebuild
            // yields: every recorded tombstone listed once, and no visible
            // insert that a later tombstone killed.
            let rebuilt = self.view_at(self.snapshot());
            assert_eq!(
                cur.tombs_pso, rebuilt.tombs_pso,
                "cached tombstones diverged from the recorded ones"
            );
            assert_eq!(
                cur.inserts_pso, rebuilt.inserts_pso,
                "cached visible inserts diverged from the runs minus later tombstones"
            );
        }
    }

    /// The cached current view, created on first write. Callers assign its
    /// `seq` right after their own sequence bump. Copy-on-write: a view
    /// pinned by an in-flight query is cloned, never mutated under it.
    fn current_mut(&mut self) -> &mut DeltaView {
        let strings_appended = self.strings_appended;
        Arc::make_mut(self.current.get_or_insert_with(|| {
            Arc::new(DeltaView {
                strings_appended,
                ..DeltaView::default()
            })
        }))
    }

    /// The cached view of the current sequence (`None` while the store is
    /// empty — queries then skip all delta work).
    pub fn current_view(&self) -> Option<&DeltaView> {
        self.current.as_deref()
    }

    /// The cached current view as a shared handle — what a query *pins* at
    /// query start: later writes copy-on-write the cache and never mutate
    /// the pinned view.
    pub fn current_view_arc(&self) -> Option<Arc<DeltaView>> {
        self.current.clone()
    }

    /// Build the view of an arbitrary snapshot (clamped to this store's
    /// sequence range — history at or before `base_seq` has been folded
    /// into the base generation and cannot be subtracted back out).
    /// O(delta size); the current sequence is served from the cache by
    /// [`DeltaStore::current_view`].
    pub fn view_at(&self, snap: Snapshot) -> DeltaView {
        let seq = snap.seq().min(self.seq).max(self.base_seq);
        // Per triple: ascending tombstone sequences (within the snapshot).
        let mut tomb_seqs: FxHashMap<Triple, Vec<u64>> = FxHashMap::default();
        for &(tseq, t) in &self.tombstones {
            if tseq <= seq {
                tomb_seqs.entry(t).or_default().push(tseq);
            }
        }
        let mut inserts: Vec<Triple> = Vec::new();
        for run in &self.runs {
            if run.seq > seq {
                continue;
            }
            for &t in &run.triples {
                // Visible unless some tombstone landed after this run.
                let dead = tomb_seqs
                    .get(&t)
                    .is_some_and(|seqs| seqs.last().is_some_and(|&ts| ts > run.seq));
                if !dead {
                    inserts.push(t);
                }
            }
        }
        inserts.sort_unstable_by_key(|t| t.key_pso());
        let mut tombs_pso: Vec<Triple> = tomb_seqs.into_keys().collect();
        tombs_pso.sort_unstable_by_key(|t| t.key_pso());
        DeltaView {
            seq,
            inserts_pso: inserts,
            tombs_pso,
            strings_appended: self.strings_appended,
        }
    }

    /// The triples a collapse must append to the base set: all inserts still
    /// visible at the current sequence, in run order.
    pub fn visible_inserts(&self) -> Vec<Triple> {
        // Walk runs (not the PSO-sorted view) to preserve batch order.
        let mut tomb_seqs: FxHashMap<Triple, u64> = FxHashMap::default();
        for &(tseq, t) in &self.tombstones {
            let e = tomb_seqs.entry(t).or_insert(tseq);
            *e = (*e).max(tseq);
        }
        let mut out = Vec::with_capacity(self.n_inserted());
        for run in &self.runs {
            for &t in &run.triples {
                if tomb_seqs.get(&t).map_or(true, |&ts| ts <= run.seq) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Every write batch applied after sequence `seq`, in sequence order —
    /// the writes a generation swap must fold into the fresh delta store
    /// (the rebuild pinned `seq`; everything later arrived *during* the
    /// rebuild). Each batch keeps its original sequence number, so a replay
    /// into [`DeltaStore::with_base_seq`]`(seq)` reproduces the numbering
    /// exactly (every write bumps the sequence by one).
    pub fn writes_since(&self, seq: u64) -> Vec<(u64, DeltaWrite)> {
        let mut out: Vec<(u64, DeltaWrite)> = self
            .runs
            .iter()
            .filter(|r| r.seq > seq)
            .map(|r| (r.seq, DeltaWrite::Insert(r.triples.clone())))
            .collect();
        let mut batch: Vec<Triple> = Vec::new();
        let mut batch_seq = 0u64;
        for &(tseq, t) in self.tombstones.iter().filter(|&&(s, _)| s > seq) {
            if tseq != batch_seq && !batch.is_empty() {
                out.push((batch_seq, DeltaWrite::Delete(std::mem::take(&mut batch))));
            }
            batch_seq = tseq;
            batch.push(t);
        }
        if !batch.is_empty() {
            out.push((batch_seq, DeltaWrite::Delete(batch)));
        }
        out.sort_by_key(|&(s, _)| s);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Oid::iri(s), Oid::iri(p), Oid::iri(o))
    }

    #[test]
    fn empty_store_has_no_view() {
        let d = DeltaStore::new();
        assert!(d.is_empty());
        assert!(d.current_view().is_none());
        assert_eq!(d.snapshot().seq(), 0);
        let v = d.view_at(d.snapshot());
        assert!(v.is_empty());
    }

    #[test]
    fn insert_then_view() {
        let mut d = DeltaStore::new();
        let snap = d.insert_run(vec![t(2, 10, 5), t(1, 10, 4), t(1, 11, 9)]);
        assert_eq!(snap.seq(), 1);
        let v = d.current_view().unwrap();
        assert_eq!(v.n_inserts(), 3);
        let pairs: Vec<_> = v.insert_pairs_for(Oid::iri(10), None).collect();
        assert_eq!(
            pairs,
            vec![(Oid::iri(1), Oid::iri(4)), (Oid::iri(2), Oid::iri(5))]
        );
        // Subject-range narrowing.
        let narrowed: Vec<_> = v
            .insert_pairs_for(Oid::iri(10), Some((Oid::iri(2).raw(), Oid::iri(2).raw())))
            .collect();
        assert_eq!(narrowed, vec![(Oid::iri(2), Oid::iri(5))]);
    }

    #[test]
    fn tombstones_filter_base_but_not_later_inserts() {
        let mut d = DeltaStore::new();
        let base_triple = t(7, 10, 3);
        let _ = d.delete(&[base_triple]); // seq 1
        let v1 = d.current_view().unwrap().clone();
        assert!(v1.is_deleted(base_triple));
        assert_eq!(v1.tombstones_for(Oid::iri(10), None), &[base_triple]);
        assert!(v1.tombstones_for(Oid::iri(11), None).is_empty());

        // Re-insert after the delete: visible again as a delta insert.
        let _ = d.insert_run(vec![base_triple]); // seq 2
        let v2 = d.current_view().unwrap();
        assert_eq!(v2.n_inserts(), 1);
        // The tombstone still applies to the *base* occurrence.
        assert!(v2.is_deleted(base_triple));
    }

    #[test]
    fn tombstone_kills_earlier_delta_insert() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(1, 10, 2)]); // seq 1
        let _ = d.delete(&[t(1, 10, 2)]); // seq 2
        let v = d.current_view().unwrap();
        assert_eq!(v.n_inserts(), 0, "insert at seq 1 deleted at seq 2");
        assert!(v.is_deleted(t(1, 10, 2)));
        assert!(d.visible_inserts().is_empty());
    }

    #[test]
    fn snapshots_pin_history() {
        let mut d = DeltaStore::new();
        let s1 = d.insert_run(vec![t(1, 10, 2)]);
        let s2 = d.delete(&[t(1, 10, 2)]);
        let s3 = d.insert_run(vec![t(1, 10, 2)]);

        let v1 = d.view_at(s1);
        assert_eq!(v1.n_inserts(), 1);
        assert!(!v1.is_deleted(t(1, 10, 2)));

        let v2 = d.view_at(s2);
        assert_eq!(v2.n_inserts(), 0);
        assert!(v2.is_deleted(t(1, 10, 2)));

        let v3 = d.view_at(s3);
        assert_eq!(v3.n_inserts(), 1, "re-insert visible");
        assert_eq!(d.visible_inserts(), vec![t(1, 10, 2)]);

        // Snapshot 0 = base only.
        assert!(d.view_at(Snapshot(0)).is_empty());
    }

    #[test]
    fn tombstones_for_range_is_a_borrowed_sorted_slice() {
        let mut d = DeltaStore::new();
        let _ = d.delete(&[t(5, 10, 2), t(3, 10, 1), t(4, 11, 9), t(5, 10, 1)]);
        let v = d.current_view().unwrap();
        let from4 = Some((Oid::iri(4).raw(), u64::MAX));
        assert_eq!(
            v.tombstones_for(Oid::iri(10), from4),
            &[t(5, 10, 1), t(5, 10, 2)]
        );
        assert_eq!(v.tombstones_for(Oid::iri(10), None).len(), 3);
        assert!(v.tombstones_for(Oid::iri(12), None).is_empty());
        // Membership is a binary search over the same list.
        assert!(v.is_deleted(t(4, 11, 9)));
        assert!(!v.is_deleted(t(4, 11, 8)));
        assert!(!v.is_deleted(t(4, 10, 9)));
    }

    #[test]
    fn has_inserts_in_is_scoped_to_the_subject_range() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(5, 10, 1), t(9, 10, 1), t(7, 11, 1)]);
        let v = d.current_view().unwrap();
        let r = |s: u64| Oid::iri(s).raw();
        assert!(v.has_inserts_in(Oid::iri(10), r(5), r(5)));
        assert!(v.has_inserts_in(Oid::iri(10), r(0), r(6)));
        assert!(v.has_inserts_in(Oid::iri(10), r(6), r(9)));
        assert!(
            !v.has_inserts_in(Oid::iri(10), r(6), r(8)),
            "between the two"
        );
        assert!(
            !v.has_inserts_in(Oid::iri(10), r(10), u64::MAX),
            "past both"
        );
        assert!(!v.has_inserts_in(Oid::iri(10), r(0), r(4)), "before both");
        // Another predicate's insert inside the range does not count.
        assert!(!v.has_inserts_in(Oid::iri(10), r(7), r(7)));
        assert!(v.has_inserts_in(Oid::iri(11), r(7), r(7)));
        assert!(!v.has_inserts_in(Oid::iri(12), 0, u64::MAX));
    }

    /// The ordered splices behind `delete`: equal-ranges (duplicates
    /// included) close up, fresh tombstones open gaps, at the front, in the
    /// middle and at the end of the lists, and repeats change nothing.
    #[test]
    fn delete_splices_both_lists_in_order() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![
            t(1, 10, 1),
            t(2, 10, 2),
            t(2, 10, 2),
            t(3, 10, 3),
            t(4, 11, 4),
            t(5, 12, 5),
        ]);
        // First, a duplicated middle entry and the last; one base-only.
        let _ = d.delete(&[t(5, 12, 5), t(2, 10, 2), t(1, 10, 1), t(8, 11, 8)]);
        let v = d.current_view().unwrap();
        assert_eq!(v.inserts(), &[t(3, 10, 3), t(4, 11, 4)]);
        assert_eq!(
            v.tombstones(),
            &[t(1, 10, 1), t(2, 10, 2), t(8, 11, 8), t(5, 12, 5)]
        );
        // A repeat plus fresh tombstones before, between and after.
        let _ = d.delete(&[t(2, 10, 2), t(0, 9, 0), t(3, 10, 3), t(9, 13, 9)]);
        let v = d.current_view().unwrap();
        assert_eq!(v.inserts(), &[t(4, 11, 4)]);
        assert_eq!(
            v.tombstones(),
            &[
                t(0, 9, 0),
                t(1, 10, 1),
                t(2, 10, 2),
                t(3, 10, 3),
                t(8, 11, 8),
                t(5, 12, 5),
                t(9, 13, 9)
            ]
        );
        // Nothing new, nothing visible to kill: both lists unchanged.
        let _ = d.delete(&[t(1, 10, 1)]);
        let v = d.current_view().unwrap();
        assert_eq!(v.inserts(), &[t(4, 11, 4)]);
        assert_eq!(v.n_tombstones(), 7);
        d.debug_validate();
    }

    /// A reader's pinned view is never mutated: the writer's splice works on
    /// a copy (two vectors, no set).
    #[test]
    fn pinned_view_survives_a_delete() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(1, 10, 1), t(2, 10, 2)]);
        let pinned = d.current_view_arc().unwrap();
        let _ = d.delete(&[t(1, 10, 1)]);
        assert_eq!(pinned.inserts(), &[t(1, 10, 1), t(2, 10, 2)]);
        assert!(!pinned.is_deleted(t(1, 10, 1)));
        let cur = d.current_view().unwrap();
        assert_eq!(cur.inserts(), &[t(2, 10, 2)]);
        assert!(cur.is_deleted(t(1, 10, 1)));
    }

    #[test]
    fn duplicates_are_kept() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(1, 10, 2), t(1, 10, 2)]);
        assert_eq!(d.current_view().unwrap().n_inserts(), 2);
    }

    /// The incrementally maintained current view must equal a from-scratch
    /// materialization after any mix of inserts, deletes and re-inserts.
    #[test]
    fn cached_view_matches_rebuild() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(3, 10, 1), t(1, 11, 2), t(2, 10, 9)]);
        let _ = d.delete(&[t(1, 11, 2), t(9, 9, 9)]); // one delta kill, one base-only
        let _ = d.insert_run(vec![t(1, 11, 2), t(1, 10, 5)]); // re-insert + new
        let _ = d.delete(&[t(2, 10, 9)]);
        let _ = d.insert_run(vec![t(2, 10, 9), t(2, 10, 9)]); // re-insert duplicated
        let cached = d.current_view().unwrap();
        let rebuilt = d.view_at(d.snapshot());
        assert_eq!(cached.seq(), rebuilt.seq());
        assert_eq!(cached.inserts_pso, rebuilt.inserts_pso);
        assert_eq!(cached.tombs_pso, rebuilt.tombs_pso);
    }

    #[test]
    fn writes_since_replays_into_base_seq_store() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(1, 10, 2)]); // seq 1
        let _ = d.delete(&[t(1, 10, 2), t(5, 10, 9)]); // seq 2
        let _ = d.insert_run(vec![t(3, 10, 4)]); // seq 3
        let _ = d.insert_run(vec![t(4, 10, 4)]); // seq 4

        // Everything after seq 1, in order, with original sequence numbers.
        let writes = d.writes_since(1);
        assert_eq!(
            writes,
            vec![
                (2, DeltaWrite::Delete(vec![t(1, 10, 2), t(5, 10, 9)])),
                (3, DeltaWrite::Insert(vec![t(3, 10, 4)])),
                (4, DeltaWrite::Insert(vec![t(4, 10, 4)])),
            ]
        );
        assert!(d.writes_since(4).is_empty());

        // Replaying into a base-seq store reproduces the numbering, so
        // snapshots taken at or after the pin survive the swap.
        let mut replay = DeltaStore::with_base_seq(1);
        assert_eq!(replay.base_seq(), 1);
        for (seq, w) in writes {
            match w {
                DeltaWrite::Insert(ts) => assert_eq!(replay.insert_run(ts).seq(), seq),
                DeltaWrite::Delete(ts) => assert_eq!(replay.delete(&ts).seq(), seq),
            }
        }
        assert_eq!(replay.seq(), d.seq());
        let v3 = replay.view_at(Snapshot(3));
        assert_eq!(
            v3.n_inserts(),
            1,
            "seq-3 insert visible, seq-1 folded into base"
        );
        // History at or before the base is clamped up to the base.
        assert_eq!(replay.view_at(Snapshot(0)).seq(), 1);
    }

    #[test]
    fn strings_appended_propagates() {
        let mut d = DeltaStore::new();
        let _ = d.insert_run(vec![t(1, 10, 2)]);
        assert!(!d.current_view().unwrap().strings_appended);
        d.set_strings_appended();
        assert!(d.current_view().unwrap().strings_appended);
        let _ = d.insert_run(vec![t(2, 10, 2)]);
        assert!(d.current_view().unwrap().strings_appended);
    }
}
