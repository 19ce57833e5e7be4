//! The optimizer-facing statistics snapshot.
//!
//! The emergent schema already maintains everything a cost-based planner
//! needs — per-class cardinalities, per-column `n_distinct`/min/max, fill
//! factors — but scattered across [`crate::ClassDef`]/[`crate::ColumnDef`]
//! internals.
//! [`StatsView`] packages one coherent, cheap view of it for the engine's
//! optimizer, *drift-adjusted*: per-predicate pending-insert counts (the
//! delta the query's snapshot will merge) inflate the estimates, so a store
//! that has absorbed many writes since its last reorganization plans
//! accordingly instead of trusting stale base statistics.
//!
//! Construction is O(pending predicates); every lookup is a binary search
//! or a schema-index walk — no locks, no allocation beyond the pending
//! vector handed in.

use crate::types::EmergentSchema;
use sordf_model::Oid;

/// A borrowed statistics snapshot over a (possibly absent) emergent schema
/// plus the pending-write counts of the query's delta view.
#[derive(Debug, Clone)]
pub struct StatsView<'a> {
    schema: Option<&'a EmergentSchema>,
    /// `(predicate, visible pending inserts)`, sorted by predicate.
    pending: Vec<(Oid, u64)>,
}

impl Default for StatsView<'_> {
    fn default() -> StatsView<'static> {
        StatsView::new(None)
    }
}

impl<'a> StatsView<'a> {
    /// A view over base statistics only (no pending writes).
    pub fn new(schema: Option<&'a EmergentSchema>) -> StatsView<'a> {
        StatsView {
            schema,
            pending: Vec::new(),
        }
    }

    /// Attach per-predicate pending-insert counts (sorted by predicate, as
    /// produced by `DeltaView::insert_counts_by_pred`).
    pub fn with_pending(mut self, pending: Vec<(Oid, u64)>) -> StatsView<'a> {
        debug_assert!(pending.windows(2).all(|w| w[0].0 <= w[1].0));
        self.pending = pending;
        self
    }

    pub fn schema(&self) -> Option<&'a EmergentSchema> {
        self.schema
    }

    /// Visible pending inserts for one predicate.
    pub fn pending_for(&self, pred: Oid) -> u64 {
        match self.pending.binary_search_by_key(&pred, |&(p, _)| p) {
            Ok(i) => self.pending[i].1,
            Err(_) => 0,
        }
    }

    /// Base (schema-resident) triples with this predicate: the summed
    /// non-null counts of every class column and multi-prop holding it.
    /// Excludes the irregular store and pending writes — storage-side
    /// counts live with the storage, not the schema.
    pub fn regular_pred_cardinality(&self, pred: Oid) -> u64 {
        let Some(schema) = self.schema else { return 0 };
        let mut n = 0u64;
        for (class, ci) in schema.classes_with_column(pred) {
            n += schema.class(class).columns[ci].stats.n_nonnull;
        }
        for (class, mi) in schema.classes_with_multi(pred) {
            n += schema.class(class).multi_props[mi].stats.n_nonnull;
        }
        n
    }

    /// Distinct values of this predicate's object column, summed over
    /// classes (an upper bound: classes may share values), inflated by the
    /// pending count — new writes may all carry new values.
    pub fn distinct_for_pred(&self, pred: Oid) -> u64 {
        let Some(schema) = self.schema else { return 0 };
        let mut d = 0u64;
        for (class, ci) in schema.classes_with_column(pred) {
            d += schema.class(class).columns[ci].stats.n_distinct;
        }
        for (class, mi) in schema.classes_with_multi(pred) {
            d += schema.class(class).multi_props[mi].stats.n_distinct;
        }
        d + self.pending_for(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_lookup_and_totals() {
        let sv = StatsView::new(None).with_pending(vec![
            (Oid::iri(3), 5),
            (Oid::iri(7), 2),
            (Oid::iri(9), 1),
        ]);
        assert!(sv.schema().is_none());
        assert_eq!(sv.pending_for(Oid::iri(7)), 2);
        assert_eq!(sv.pending_for(Oid::iri(4)), 0);
        assert_eq!(sv.regular_pred_cardinality(Oid::iri(3)), 0);
    }
}
