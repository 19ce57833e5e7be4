//! Cardinality estimation: characteristic sets vs. independence.
//!
//! The paper motivates CS-awareness with exactly this: "being unaware of
//! structural correlations (e.g., availability of <isbn_no> causes the
//! occurrence of <has_author> almost a certainty) makes it difficult to
//! estimate the join hit ratio between triple patterns". The CS estimator
//! (after Neumann & Moerkotte) knows those correlations by construction; the
//! independence estimator multiplies per-pattern selectivities and divides
//! by the subject domain — systematically underestimating star results.

use crate::context::{ExecContext, StorageRef};
use crate::expr::Expr;
use crate::query::VarOrOid;
use crate::scan::ORestrict;
use crate::star::{restrict_for_var, Star};
use crate::table::VarId;
use sordf_schema::{ColStats, StatsView};
use sordf_storage::Order;

/// Selectivity of a pushed restriction against column statistics.
pub(crate) fn restrict_selectivity(r: &ORestrict, stats: &ColStats) -> f64 {
    if r.is_none() {
        return 1.0;
    }
    if r.is_point() {
        return 1.0 / stats.n_distinct.max(1) as f64;
    }
    match (stats.min, stats.max) {
        (Some(min), Some(max)) if max > min => {
            let (lo, hi) = r.bounds_within(min, max);
            let lo = lo.max(min) as f64;
            let hi = hi.min(max) as f64;
            if hi < lo {
                0.0
            } else {
                ((hi - lo) / (max - min) as f64).clamp(0.0, 1.0)
            }
        }
        _ => 0.5,
    }
}

/// CS-based estimate: sum over classes covering the whole star.
/// Returns `None` on storage without a discovered schema.
pub fn estimate_star_cs(cx: &ExecContext, star: &Star, filters: &[&Expr]) -> Option<f64> {
    let StorageRef::Clustered { schema, .. } = &cx.storage else {
        return None;
    };
    let strings_ordered = cx.strings_value_ordered();
    let mut total = 0.0;
    for class in &schema.classes {
        let mut card = class.n_subjects as f64;
        let mut covers_all = true;
        for prop in &star.props {
            let restrict = match prop.o {
                VarOrOid::Const(c) => ORestrict::eq(c),
                VarOrOid::Var(v) => restrict_for_var(filters, v, strings_ordered),
            };
            if let Some(ci) = class.column_of(prop.pred) {
                let col = &class.columns[ci];
                // presence = P(subject has the property at all)
                card *= col.presence * restrict_selectivity(&restrict, &col.stats);
            } else if let Some(mi) = class.multi_of(prop.pred) {
                let mp = &class.multi_props[mi];
                card *= mp.mean_multiplicity * restrict_selectivity(&restrict, &mp.stats);
            } else {
                covers_all = false;
                break;
            }
        }
        if covers_all {
            total += card;
        }
    }
    Some(total)
}

/// Independence-assumption estimate (what a schema-oblivious triple store
/// does): product of per-pattern cardinalities over |subject domain|^(k-1).
pub fn estimate_star_independence(cx: &ExecContext, star: &Star, filters: &[&Expr]) -> f64 {
    let strings_ordered = cx.strings_value_ordered();
    let domain = cx.dict.n_iris().max(1) as f64;
    let mut est = 1.0f64;
    let mut k = 0usize;
    for prop in &star.props {
        // |pattern| ≈ triples with this predicate × filter selectivity.
        let n_pred = match &cx.storage {
            StorageRef::Baseline(store) => store.perm(Order::Pso).range1(cx.pool, prop.pred).len(),
            StorageRef::Clustered { store, schema } => {
                let mut n = store
                    .irregular
                    .perm(Order::Pso)
                    .range1(cx.pool, prop.pred)
                    .len();
                for (class, ci) in schema.classes_with_column(prop.pred) {
                    n += schema.class(class).columns[ci].stats.n_nonnull as usize;
                }
                for (class, mi) in schema.classes_with_multi(prop.pred) {
                    n += schema.class(class).multi_props[mi].stats.n_nonnull as usize;
                }
                n
            }
        } as f64;
        let restrict = match prop.o {
            VarOrOid::Const(_) => 0.001f64, // generic point-selectivity guess
            VarOrOid::Var(v) => {
                let r = restrict_for_var(filters, v, strings_ordered);
                if r.is_none() {
                    1.0
                } else if r.is_point() {
                    0.001
                } else {
                    0.3 // generic range guess — the point of the ablation
                }
            }
        };
        est *= n_pred * restrict;
        k += 1;
    }
    if k > 1 {
        est /= domain.powi(k as i32 - 1);
    }
    est.max(0.0)
}

/// Best available estimate (CS when a schema exists).
pub fn estimate_star(cx: &ExecContext, star: &Star, filters: &[&Expr]) -> f64 {
    estimate_star_cs(cx, star, filters)
        .unwrap_or_else(|| estimate_star_independence(cx, star, filters))
}

// ---- optimizer-facing estimates (drift-adjusted via StatsView) -------------

/// The statistics snapshot the optimizer costs a query against: the pinned
/// generation's schema statistics plus the per-predicate pending-insert
/// counts of the query's delta view (drift adjustment — pending writes
/// inflate the estimates).
pub fn stats_view<'a>(cx: &'a ExecContext) -> StatsView<'a> {
    let sv = StatsView::new(cx.storage.schema());
    match cx.delta() {
        Some(d) => sv.with_pending(d.insert_counts_by_pred()),
        None => sv,
    }
}

/// Triples carrying `pred` visible to this query: base storage (clustered
/// class columns + irregular remainder, or the baseline PSO index) plus the
/// delta view's pending inserts.
pub fn pred_cardinality(cx: &ExecContext, sv: &StatsView, pred: sordf_model::Oid) -> f64 {
    let base = match &cx.storage {
        StorageRef::Baseline(store) => store.perm(Order::Pso).range1(cx.pool, pred).len() as u64,
        StorageRef::Clustered { store, .. } => {
            store.irregular.perm(Order::Pso).range1(cx.pool, pred).len() as u64
                + sv.regular_pred_cardinality(pred)
        }
    };
    (base + sv.pending_for(pred)) as f64
}

/// [`estimate_star`] inflated by the delta: a pending subject can only
/// satisfy the whole star if every property got a pending (or base) value,
/// so the scarcest pending predicate bounds the extra rows.
pub fn estimate_star_with(cx: &ExecContext, sv: &StatsView, star: &Star, filters: &[&Expr]) -> f64 {
    let base = estimate_star(cx, star, filters);
    let bonus = star
        .props
        .iter()
        .map(|p| sv.pending_for(p.pred) as f64)
        .fold(f64::INFINITY, f64::min);
    base + if bonus.is_finite() { bonus } else { 0.0 }
}

/// Estimated distinct values a star binds for `v`, clamped to `[1, rows]`.
/// The subject variable is near-unique per row; an object variable gets the
/// summed per-class `n_distinct` of its column (plus pending inserts). On
/// schemaless storage the row estimate itself is the only bound.
pub fn estimate_distinct(
    cx: &ExecContext,
    sv: &StatsView,
    star: &Star,
    v: VarId,
    star_rows: f64,
) -> f64 {
    let rows = star_rows.max(1.0);
    if v == star.subject_var {
        return rows;
    }
    if cx.storage.schema().is_some() {
        let mut d = 0.0f64;
        for prop in &star.props {
            if prop.o == VarOrOid::Var(v) {
                d += sv.distinct_for_pred(prop.pred) as f64;
            }
        }
        if d > 0.0 {
            return d.clamp(1.0, rows);
        }
    }
    rows
}

/// Join hit ratio from CS column statistics: for each shared variable the
/// containment assumption (`|L ⋈ R| = |L|·|R| / max(d_L, d_R)`) divides the
/// cross product by the larger distinct count — the "per-class presence ×
/// n_distinct overlap" estimate the structural correlations make accurate.
pub fn estimate_join_rows(l_rows: f64, r_rows: f64, key_distincts: &[(f64, f64)]) -> f64 {
    let mut j = l_rows.max(0.0) * r_rows.max(0.0);
    for &(dl, dr) in key_distincts {
        j /= dl.max(dr).max(1.0);
    }
    j
}
