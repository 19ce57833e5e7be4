//! The executor of physical plans: candidate-driven RDFjoins, zone-map
//! cross-table pushdown (§II-D), multi-variable hash joins and guarded
//! cross products — driven by the cost-based [`crate::optimizer`].
//!
//! The pipeline is prepare → optimize → execute: [`crate::plan::prepare`]
//! normalizes the query into a [`LogicalPlan`], [`crate::optimizer::optimize`]
//! lowers it to a [`PhysicalPlan`] (star order, access path and join
//! strategy per step), and [`execute_physical`] interprets the steps —
//! every star through the one morsel evaluator
//! (`eval_star_into`), with the worker count taken from
//! the [`ExecContext`].
//!
//! **What a step emits.** Each step binds only the variables of its star
//! that something after it reads (`step_reads`, once per
//! request): the select list and GROUP BY, the cross-star filters of the
//! tail, the link and join variables of this and later steps — plus, added
//! when the star is evaluated, the variables of its own residual filters. A
//! join keeps a column only while a later step or the select list reads it.
//! The last step feeds the select list's fold (`Fold`): a
//! single-star plan streams its scan into it a page at a time and never
//! holds its bindings; a joined plan folds the table of its final join
//! through the same code.

use crate::agg::{Finalize, ResultSet};
use crate::context::{ExecContext, StatsSnapshot};
use crate::expr::Expr;
use crate::join::hash_join_on;
use crate::optimizer::optimize;
use crate::parallel::eval_star_into;
use crate::plan::{
    prepare, step_reads, JoinStrategy, LogicalPlan, PhysicalPlan, StarAccess, StepReads,
};
use crate::query::Query;
use crate::star::{apply_filters, StarCall};
use crate::table::{Table, VarId};

/// One step of an explained plan: the operator choices and the optimizer's
/// expectations, plus (after EXPLAIN ANALYZE) what actually happened.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// Star index (into the logical plan's star list).
    pub star: usize,
    /// The star's subject variable name.
    pub subject: String,
    /// Triple patterns in the star.
    pub n_props: usize,
    /// Chosen access path (EXPLAIN operator name).
    pub access: &'static str,
    /// Chosen join strategy (EXPLAIN operator name).
    pub join: &'static str,
    /// All join variables (names), not just the primary link.
    pub join_vars: Vec<String>,
    /// Estimated rows of the star's own scan.
    pub est_star_rows: f64,
    /// Estimated rows bound after joining with the prefix.
    pub est_rows: f64,
    /// Cost the optimizer charged to this step.
    pub cost: f64,
    /// Rows actually bound after this step (EXPLAIN ANALYZE only).
    pub actual_rows: Option<u64>,
}

/// A description of the chosen plan (Fig. 4's join-effort numbers plus the
/// optimizer's per-step choices).
#[derive(Debug, Clone)]
pub struct PlanInfo {
    pub scheme: crate::context::PlanScheme,
    pub n_stars: usize,
    /// Index order in which stars are evaluated.
    pub star_order: Vec<usize>,
    /// Merge self-joins inside stars (paid by IdxScan+MergeJoin steps).
    pub intra_star_joins: u64,
    /// Joins linking stars (both schemes pay these).
    pub cross_star_joins: u64,
    /// Estimated cardinality per star, in evaluation order.
    pub estimates: Vec<f64>,
    /// Per-step operator choices, in evaluation order.
    pub steps: Vec<StepInfo>,
    /// Total cost of the chosen plan (the quantity the optimizer minimized).
    pub total_cost: f64,
    /// What the execution covered and what its zone maps spared it (EXPLAIN
    /// ANALYZE only): the context's operator counters after the run.
    pub scans: Option<StatsSnapshot>,
    /// Human-readable plan text.
    pub text: String,
}

/// Execute a query end to end: prepare → optimize → execute.
pub fn execute(cx: &ExecContext, query: &Query) -> ResultSet {
    let (q, lp) = prepare(query);
    let pp = optimize(cx, &lp);
    execute_physical(cx, &q, &lp, &pp, None)
}

/// Execute an already-optimized physical plan of the normalized query `q`
/// (the plan-cache fast path skips prepare's optimizer half) into its
/// result. For a fixed plan the result is identical for every worker count
/// of `cx` (SUM/AVG to within one ulp — see [`crate::parallel`]). `actuals`,
/// when given, receives the bound row count after every step (EXPLAIN
/// ANALYZE); steps short-circuited by an empty prefix record 0.
///
/// Every step binds only what is read after it (`step_reads`), and **the
/// last step streams into the select list**: a single-star plan never
/// materializes its bindings — the scan folds each page's rows into the
/// aggregates or the projected rows (`Fold`) — and a joined
/// plan folds its final join's table through the same code.
pub fn execute_physical(
    cx: &ExecContext,
    q: &Query,
    lp: &LogicalPlan,
    pp: &PhysicalPlan,
    actuals: Option<&mut Vec<u64>>,
) -> ResultSet {
    let select = Finalize::new(q);
    let reads = step_reads(&select.reads(), lp, pp);
    let fold = match &pp.steps[..] {
        // One star. (Its filters are its own: the tail has nothing to apply
        // when there is nothing to join.)
        [step] => {
            cx.check_cancelled();
            let filters: Vec<&Expr> = lp.filters.iter().collect();
            let call = StarCall::new(cx, &lp.stars[step.star], &filters, Some(&reads.star[0]));
            let fold = eval_star_into(cx, &call, step.access, None, || {
                select.fold(cx, &call.emit.vars)
            });
            if let Some(a) = actuals {
                a.push(fold.rows());
            }
            fold
        }
        _ => select.fold_table(cx, &run_steps(cx, lp, pp, &reads, actuals)),
    };
    select.finish(cx, fold)
}

/// Evaluate the plan's steps into the final binding table, which binds (at
/// least) the variables `reads` says are read after the last join.
pub(crate) fn run_steps(
    cx: &ExecContext,
    lp: &LogicalPlan,
    pp: &PhysicalPlan,
    reads: &StepReads,
    mut actuals: Option<&mut Vec<u64>>,
) -> Table {
    let filter_refs: Vec<&Expr> = lp.filters.iter().collect();
    let mut result: Option<Table> = None;

    for (i, step) in pp.steps.iter().enumerate() {
        // Per-step cancellation poll: joins between stars can dominate a
        // query even when every scan underneath already polls per page.
        cx.check_cancelled();
        let star = &lp.stars[step.star];
        // What the prefix passes into this star's evaluation: the distinct
        // values of the link variable, as candidates or as a range.
        let link_vals = match (&result, &step.join) {
            (
                Some(res),
                JoinStrategy::Candidates { var }
                | JoinStrategy::SubjectRange { var }
                | JoinStrategy::ObjectRange { var },
            ) => {
                // sordf-lint: allow(L3) — the optimizer only picks a link var bound by the prefix, and `reads` keeps it.
                res.distinct_col(res.col_of(*var).unwrap())
            }
            _ => Vec::new(),
        };
        let bounds = link_vals.first().zip(link_vals.last());
        let (mut filters, mut candidates) = (&filter_refs[..], None);
        let (in_range, narrowed);
        match (&step.join, bounds) {
            // RDFjoin: the prefix's distinct link values drive the star's
            // evaluation directly.
            (JoinStrategy::Candidates { .. }, _) if result.is_some() => {
                candidates = Some(&link_vals[..]);
            }
            // Zone-map pushdown: restrict the link variable — the probed
            // star's subject (its scans' subject range), or an object column
            // of this star, typically an FK (§II-D's sideways information
            // passing: POS ranges / zone-map page skipping, e.g. a shipdate
            // restriction on LINEITEM reaching ORDERS through l_orderkey's
            // zone maps) — to the [min, max] of the already-bound values.
            // The range is of raw OIDs, whatever their type: the join
            // matches OIDs.
            (
                JoinStrategy::SubjectRange { var } | JoinStrategy::ObjectRange { var },
                Some((lo, hi)),
            ) => {
                in_range = Expr::InRange(Box::new(Expr::Var(*var)), *lo, *hi);
                narrowed = [&filter_refs[..], &[&in_range]].concat();
                filters = &narrowed[..];
            }
            _ => {}
        }
        let call = StarCall::new(cx, star, filters, Some(&reads.star[i]));
        let star_table = eval_star_into(cx, &call, step.access, candidates, || {
            Table::empty(call.emit.vars.clone())
        });

        let keep = &reads.keep[i];
        result = Some(match result {
            None => star_table,
            Some(res) => {
                if step.join_vars.is_empty() {
                    cross_join(cx, &res, &star_table, keep)
                } else {
                    // Join on *all* shared variables — stars sharing both
                    // subject and object variables must agree on every one.
                    hash_join_on(cx, &res, &star_table, &step.join_vars, Some(keep))
                }
            }
        });
        // sordf-lint: allow(L3) — `result` was assigned Some(..) directly above.
        let cur = result.as_ref().unwrap();
        if let Some(a) = actuals.as_deref_mut() {
            a.push(cur.len() as u64);
        }
        if cur.is_empty() {
            break;
        }
    }
    if let Some(a) = actuals {
        // An empty prefix short-circuits: the skipped joins bind 0 rows.
        a.resize(pp.steps.len(), 0);
    }

    let mut table = result.unwrap_or_default();
    // Every star already enforced the filters it binds; only what no single
    // star can decide is left (see `tail_filters`; the rule itself is held
    // by the `filters_are_enforced_once` tests over the differential
    // catalogs, which re-apply every filter to the unpruned star tables).
    apply_filters(cx, &mut table, &reads.tail);
    table
}

/// Cartesian product for disconnected BGPs, guarded by
/// [`crate::context::ExecConfig::cross_join_budget`]: a disconnected BGP
/// multiplies result sizes, so an oversized product fails the query instead
/// of silently going O(n·m). Built column-wise — a left value repeated once
/// per right row, a right column tiled once per left row — over the
/// variables in `keep`.
fn cross_join(cx: &ExecContext, left: &Table, right: &Table, keep: &[VarId]) -> Table {
    let pairs = left.len() as u128 * right.len() as u128;
    if pairs > cx.config.cross_join_budget as u128 {
        // sordf-lint: allow(L3) — deliberate query-boundary failure; the
        // facade's catch_unwind turns this into Error::Exec.
        panic!(
            "cross join of {} x {} rows exceeds cross_join_budget={}; \
             connect the patterns with a shared variable or raise the budget",
            left.len(),
            right.len(),
            cx.config.cross_join_budget
        );
    }
    let (n, m) = (left.len(), right.len());
    let (mut vars, mut cols) = (Vec::new(), Vec::new());
    for (v, col) in left.vars.iter().zip(&left.cols) {
        if keep.contains(v) {
            vars.push(*v);
            let mut out = Vec::with_capacity(n * m);
            col.iter().for_each(|&x| out.resize(out.len() + m, x));
            cols.push(out);
        }
    }
    for (v, col) in right.vars.iter().zip(&right.cols) {
        if keep.contains(v) {
            vars.push(*v);
            cols.push(col.repeat(n));
        }
    }
    Table::from_cols(vars, cols, n * m)
}

/// Build the EXPLAIN description of an optimized plan. `actuals`, when
/// given, carries the per-step bound row counts of an actual execution.
fn plan_info(
    q: &Query,
    lp: &LogicalPlan,
    pp: &PhysicalPlan,
    actuals: Option<&[u64]>,
    scans: Option<StatsSnapshot>,
) -> PlanInfo {
    let var_name = |v: crate::table::VarId| {
        q.vars
            .get(v.0 as usize)
            .map(|s| s.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let steps: Vec<StepInfo> = pp
        .steps
        .iter()
        .enumerate()
        .map(|(pos, st)| StepInfo {
            star: st.star,
            subject: var_name(lp.stars[st.star].subject_var),
            n_props: lp.stars[st.star].props.len(),
            access: st.access.label(),
            join: st.join.label(),
            join_vars: st.join_vars.iter().map(|&v| var_name(v)).collect(),
            est_star_rows: st.est_star_rows,
            est_rows: st.est_rows,
            cost: st.cost,
            actual_rows: actuals.and_then(|a| a.get(pos).copied()),
        })
        .collect();

    // Fig. 4's join-effort accounting: every IdxScan+MergeJoin step pays
    // props-1 merge self-joins; RDFscan steps pay none.
    let intra: u64 = steps
        .iter()
        .filter(|s| s.access == StarAccess::PropMerge.label())
        .map(|s| s.n_props.saturating_sub(1) as u64)
        .sum();
    let cross = lp.stars.len().saturating_sub(1) as u64;

    let mut text = String::new();
    use std::fmt::Write;
    let _ = writeln!(
        text,
        "plan: {:?}, zonemaps={}, {} star(s), {} intra-star join(s), {} cross-star join(s), cost {:.1}",
        pp.scheme,
        pp.zonemaps,
        lp.stars.len(),
        intra,
        cross,
        pp.total_cost,
    );
    for (pos, s) in steps.iter().enumerate() {
        let join = if s.join_vars.is_empty() {
            s.join.to_string()
        } else {
            format!("{}(?{})", s.join, s.join_vars.join(", ?"))
        };
        let _ = write!(
            text,
            "  star {} [{}]: subject {}, {} patterns, join {}, cost {:.1}, est {:.1} rows",
            pos, s.access, s.subject, s.n_props, join, s.cost, s.est_rows,
        );
        match s.actual_rows {
            Some(n) => {
                let _ = writeln!(text, ", actual {n} rows");
            }
            None => {
                let _ = writeln!(text);
            }
        }
    }
    if let Some(s) = &scans {
        let _ = writeln!(
            text,
            "  scans: {} rows on {} pages covered, {} pages skipped by zone maps, \
             {} column pages decided without a pin",
            s.rows_scanned, s.pages_scanned, s.zonemap_pages_skipped, s.column_pages_skipped,
        );
    }

    PlanInfo {
        scheme: pp.scheme,
        n_stars: lp.stars.len(),
        star_order: pp.star_order(),
        intra_star_joins: intra,
        cross_star_joins: cross,
        estimates: steps.iter().map(|s| s.est_star_rows).collect(),
        steps,
        total_cost: pp.total_cost,
        scans,
        text,
    }
}

/// Describe the chosen plan without executing it.
pub fn explain(cx: &ExecContext, query: &Query) -> PlanInfo {
    let (q, lp) = prepare(query);
    let pp = optimize(cx, &lp);
    plan_info(&q, &lp, &pp, None, None)
}

/// Execute the chosen plan and describe it with per-step actual
/// cardinalities alongside the estimates (EXPLAIN ANALYZE).
pub fn explain_analyze(cx: &ExecContext, query: &Query) -> (PlanInfo, ResultSet) {
    let (q, lp) = prepare(query);
    let pp = optimize(cx, &lp);
    let mut actuals = Vec::with_capacity(pp.steps.len());
    let rs = execute_physical(cx, &q, &lp, &pp, Some(&mut actuals));
    let scans = Some(cx.stats.snapshot());
    (plan_info(&q, &lp, &pp, Some(&actuals), scans), rs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ExecConfig, StorageRef};
    use crate::table::VarId;
    use sordf_columnar::{BufferPool, DiskManager};
    use sordf_model::{Dictionary, Oid};
    use std::sync::Arc;

    fn small_table(var: u16, n: u64) -> Table {
        let mut t = Table::empty(vec![VarId(var)]);
        for i in 0..n {
            t.push_row(&[Oid::iri(i + 1)]);
        }
        t
    }

    /// The filter-ownership rule: the tail keeps exactly what no single star
    /// binds; a star keeps residual what its pushed restricts do not decide
    /// exactly.
    #[test]
    fn tail_keeps_only_cross_star_filters() {
        use crate::expr::CmpOp;
        use crate::query::{TriplePattern, VarOrOid};
        use crate::star::{tail_filters, Pushdown};
        let mut q = Query::default();
        let (s, a, t, b) = (q.var("s"), q.var("a"), q.var("t"), q.var("b"));
        for (subj, pred, obj) in [(s, 1, a), (t, 2, b)] {
            q.patterns.push(TriplePattern {
                s: VarOrOid::Var(subj),
                p: Oid::iri(pred),
                o: VarOrOid::Var(obj),
            });
        }
        let date = Oid::from_date_days(9_000).unwrap();
        let int = Oid::from_int(5).unwrap();
        let var = Expr::Var;
        q.filters = vec![
            Expr::cmp(var(a), CmpOp::Lt, var(b)), // spans both stars
            Expr::cmp(var(a), CmpOp::Ge, Expr::Const(date)), // pushed, exact
            Expr::cmp(var(b), CmpOp::Ge, Expr::Const(int)), // pushed as a raw range, confirmed
            Expr::cmp(var(b), CmpOp::Ne, Expr::Const(int)), // never pushed
            Expr::cmp(var(b), CmpOp::Eq, Expr::Const(int)), // pushed, exact
            Expr::cmp(var(a), CmpOp::Lt, Expr::Num(24.0)), // not `var CMP const`
            Expr::cmp(var(a), CmpOp::Eq, var(s)), // two variables, one star
        ];
        let (_, lp) = prepare(&q);
        assert_eq!(tail_filters(&lp.stars, &lp.filters), vec![&q.filters[0]]);

        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = sordf_storage::BaselineStore::build(&dm, &[]);
        let pool = BufferPool::new(Arc::clone(&dm), 16);
        let dict = Dictionary::new();
        let cx = ExecContext::new(
            &pool,
            &dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        let refs: Vec<&Expr> = lp.filters.iter().collect();
        let star_of = |subject| {
            lp.stars
                .iter()
                .find(|st| st.subject_var == subject)
                .unwrap()
        };
        assert_eq!(
            Pushdown::new(&cx, star_of(s), &refs).residual,
            vec![&q.filters[5], &q.filters[6]]
        );
        assert_eq!(
            Pushdown::new(&cx, star_of(t), &refs).residual,
            vec![&q.filters[2], &q.filters[3]]
        );
    }

    #[test]
    fn cross_join_within_budget_and_over_budget() {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = sordf_storage::BaselineStore::build(&dm, &[]);
        let pool = Box::leak(Box::new(BufferPool::new(Arc::clone(&dm), 16)));
        let dict = Box::leak(Box::new(Dictionary::new()));
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig {
                cross_join_budget: 12,
                ..ExecConfig::default()
            },
        );
        let left = small_table(0, 3);
        let right = small_table(1, 4);
        // 3 x 4 = 12 pairs: exactly at the budget — allowed.
        let both = [VarId(0), VarId(1)];
        let out = cross_join(&cx, &left, &right, &both);
        assert_eq!(out.len(), 12);
        assert_eq!(out.vars, both);
        // Left values repeat per right row, right values tile.
        assert_eq!(out.row(0), vec![Oid::iri(1), Oid::iri(1)]);
        assert_eq!(out.row(1), vec![Oid::iri(1), Oid::iri(2)]);
        assert_eq!(out.row(4), vec![Oid::iri(2), Oid::iri(1)]);
        assert_eq!(out.row(11), vec![Oid::iri(3), Oid::iri(4)]);
        // Nothing read after the join: the product keeps its rows, no column.
        let counted = cross_join(&cx, &left, &right, &[]);
        assert_eq!((counted.len(), counted.vars.len()), (12, 0));

        // 3 x 5 = 15 pairs: over budget — fails loudly instead of running.
        let right5 = small_table(1, 5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cross_join(&cx, &left, &right5, &both)
        }));
        assert!(err.is_err(), "over-budget cross join must not run");
        let msg = err
            .unwrap_err()
            .downcast::<String>()
            .map(|b| *b)
            .unwrap_or_default();
        assert!(
            msg.contains("cross_join_budget"),
            "panic names the budget: {msg}"
        );
    }
}
