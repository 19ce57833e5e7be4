//! The memoized cost-based optimizer: logical → physical lowering.
//!
//! Lowers a [`LogicalPlan`] to a [`PhysicalPlan`] by dynamic programming
//! over star subsets (the classic DP-size join enumeration, volcano-style
//! memoization keyed on the subset bitmask): `best[S]` is the cheapest way
//! to have joined exactly the stars in `S`. The bound-variable set of a
//! prefix depends only on *which* stars it contains, never on their order,
//! so subset memoization is sound. Beyond [`MAX_DP_STARS`] stars the
//! enumeration falls back to a greedy walk driven by the *same* cost model.
//!
//! ## Cost model
//!
//! Everything is derived from characteristic-set statistics through
//! [`cardest`]: per-star cardinalities come from `estimate_star_cs` (which
//! knows the structural correlations the paper is about), join hit ratios
//! from the containment assumption over per-column `n_distinct`
//! ([`cardest::estimate_join_rows`]), and all counts are drift-adjusted —
//! pending delta writes inflate them via [`cardest::stats_view`].
//!
//! Per step the model charges scan work plus join work, in abstract
//! row-touch units:
//!
//! * **RDFscan**: covered segment rows (zone maps shrink a class's share to
//!   `sel + 0.1`, floor 0.1, when a restricted property is one of its
//!   columns) plus the irregular/pending remainder of every property.
//! * **IdxScan+MergeJoin**: the summed per-property cardinalities — every
//!   property stream is scanned and merged. Both scans charge every row a
//!   decode surcharge (`SCAN_DECODE_CPU`).
//! * **RDFjoin (candidate-driven)**: one probe per candidate
//!   (`C_PROBE` ≈ binary search + row fetch) plus the matching fraction
//!   `d_link / d_star` of the scan.
//! * **Zone-map range pushdown** (subject or object): the scan and the
//!   probed star shrink to the candidate fraction plus a page-granularity
//!   residual, then a hash join.
//! * **Hash join**: full scan + build/probe of both sides.
//! * **Cross join**: full scan plus the `|L|·|R|` materialization — chosen
//!   only for genuinely disconnected components.
//!
//! Choices are enumerated in preference order and replaced only on strictly
//! lower cost, so ties resolve to the paper's operators (RDFscan, RDFjoin,
//! pushdown) and plans stay deterministic.

use crate::cardest::{
    self, estimate_distinct, estimate_join_rows, estimate_star_with, pred_cardinality,
    restrict_selectivity,
};
use crate::context::{ExecContext, PlanScheme, StorageRef};
use crate::expr::Expr;
use crate::plan::{JoinStrategy, LogicalPlan, PhysicalPlan, PhysicalStep, StarAccess};
use crate::star::{Pushdown, Star};
use crate::table::VarId;
use sordf_model::FxHashMap;
use sordf_schema::StatsView;
use sordf_storage::Order;

/// DP join enumeration is O(2^n · n²); beyond this the greedy fallback
/// (same cost model, locally cheapest next star) takes over.
pub const MAX_DP_STARS: usize = 12;

/// Cost of one candidate probe in an RDFjoin (binary search + row fetch),
/// relative to touching one row in a scan.
const C_PROBE: f64 = 8.0;

/// Residual fraction a zone-map range pushdown cannot skip: pruning is
/// page-granular and candidate ranges are rarely perfectly clustered.
const ZM_RESIDUAL: f64 = 0.1;

/// Per-row CPU surcharge of a scan over frame-of-reference pages: positional
/// decode is a shift+mask per value on top of the load.
const SCAN_DECODE_CPU: f64 = 1.1;

/// Precomputed per-star quantities the cost model reuses across the
/// exponential enumeration.
struct StarStats {
    /// Estimated result rows of the star alone (filters applied,
    /// drift-adjusted).
    rows: f64,
    /// Scan cost via per-property IdxScan+MergeJoin.
    scan_prop: f64,
    /// Scan cost via RDFscan (`None` on non-clustered storage).
    scan_rdf: Option<f64>,
    /// Estimated distinct values per bound variable.
    distinct: FxHashMap<VarId, f64>,
    /// Bound variables (subject + object vars), for shared-var discovery.
    vars: Vec<VarId>,
}

/// Everything the enumeration needs, borrowed once.
struct OptCtx<'a, 'cx> {
    cx: &'a ExecContext<'cx>,
    lp: &'a LogicalPlan,
    stats: Vec<StarStats>,
}

impl<'a, 'cx> OptCtx<'a, 'cx> {
    fn new(cx: &'a ExecContext<'cx>, lp: &'a LogicalPlan) -> OptCtx<'a, 'cx> {
        let sv = cardest::stats_view(cx);
        let filter_refs: Vec<&Expr> = lp.filters.iter().collect();
        let stats = lp
            .stars
            .iter()
            .map(|star| star_stats(cx, &sv, star, &filter_refs))
            .collect();
        OptCtx { cx, lp, stats }
    }

    /// Distinct estimate of `v` within a star-set prefix: the tightest
    /// bound any member star provides, capped by the prefix's row count.
    /// Depends only on the *set* (`picked`), never on join order.
    fn prefix_distinct(&self, picked: &[bool], prefix_rows: f64, v: VarId) -> f64 {
        let mut d = f64::INFINITY;
        for (i, ss) in self.stats.iter().enumerate() {
            if picked[i] {
                if let Some(&sd) = ss.distinct.get(&v) {
                    d = d.min(sd);
                }
            }
        }
        if d.is_finite() {
            d.min(prefix_rows.max(1.0))
        } else {
            prefix_rows.max(1.0)
        }
    }

    /// Build the cheapest step joining `star` onto the prefix described by
    /// `(picked, prefix_rows)` (an all-false `picked` seeds the plan).
    /// Returns the step and the estimated rows after it.
    fn make_step(&self, picked: &[bool], prefix_rows: f64, star_idx: usize) -> (PhysicalStep, f64) {
        let star = &self.lp.stars[star_idx];
        let ss = &self.stats[star_idx];
        let scheme = self.cx.config.scheme;
        let zonemaps = self.cx.config.zonemaps;

        // Shared variables with the prefix, subject first, then prop order
        // (the order the legacy link detection used).
        let seed = !picked.iter().any(|&p| p);
        let in_prefix = |v: VarId| {
            (0..self.lp.stars.len()).any(|i| picked[i] && self.stats[i].vars.contains(&v))
        };
        let mut join_vars: Vec<VarId> = Vec::new();
        if !seed {
            for &v in &ss.vars {
                if in_prefix(v) && !join_vars.contains(&v) {
                    join_vars.push(v);
                }
            }
        }

        // Legal access paths, preferred first.
        let accesses: &[StarAccess] = match (scheme, ss.scan_rdf.is_some()) {
            (PlanScheme::RdfScanJoin, true) => &[StarAccess::RdfScan, StarAccess::PropMerge],
            _ => &[StarAccess::PropMerge],
        };
        // Legal join strategies for the primary link, preferred first.
        let strategies: Vec<JoinStrategy> = if seed {
            vec![JoinStrategy::Seed]
        } else if join_vars.is_empty() {
            vec![JoinStrategy::Cross]
        } else if join_vars.contains(&star.subject_var) {
            let v = star.subject_var;
            match scheme {
                PlanScheme::RdfScanJoin => {
                    vec![
                        JoinStrategy::Candidates { var: v },
                        JoinStrategy::Hash { var: v },
                    ]
                }
                PlanScheme::Default if zonemaps => {
                    vec![
                        JoinStrategy::SubjectRange { var: v },
                        JoinStrategy::Hash { var: v },
                    ]
                }
                PlanScheme::Default => vec![JoinStrategy::Hash { var: v }],
            }
        } else {
            // First shared object variable in property order.
            let v = star
                .props
                .iter()
                .find_map(|p| p.o.as_var().filter(|v| join_vars.contains(v)))
                // sordf-lint: allow(L3) — join_vars is non-empty and every
                // non-subject bound var is an object var of some property.
                .unwrap();
            if zonemaps {
                vec![
                    JoinStrategy::ObjectRange { var: v },
                    JoinStrategy::Hash { var: v },
                ]
            } else {
                vec![JoinStrategy::Hash { var: v }]
            }
        };

        let key_distincts: Vec<(f64, f64)> = join_vars
            .iter()
            .map(|&v| {
                (
                    self.prefix_distinct(picked, prefix_rows, v),
                    ss.distinct.get(&v).copied().unwrap_or(ss.rows.max(1.0)),
                )
            })
            .collect();
        let join_rows = estimate_join_rows(prefix_rows, ss.rows, &key_distincts);

        let mut best: Option<(PhysicalStep, f64)> = None;
        for &access in accesses {
            let sc = match access {
                StarAccess::RdfScan => ss.scan_rdf.unwrap_or(ss.scan_prop),
                StarAccess::PropMerge => ss.scan_prop,
            };
            for strategy in &strategies {
                let link_d = strategy.var().map(|v| {
                    (
                        self.prefix_distinct(picked, prefix_rows, v),
                        ss.distinct.get(&v).copied().unwrap_or(ss.rows.max(1.0)),
                    )
                });
                let (cost, rows) = match strategy {
                    JoinStrategy::Seed => (sc, ss.rows),
                    JoinStrategy::Candidates { .. } => {
                        // sordf-lint: allow(L3) — strategy carries a var.
                        let (dl, ds) = link_d.unwrap();
                        let frac = (dl / ds.max(1.0)).clamp(0.0, 1.0);
                        (
                            dl * C_PROBE + sc * frac + prefix_rows + join_rows,
                            join_rows,
                        )
                    }
                    JoinStrategy::SubjectRange { .. } | JoinStrategy::ObjectRange { .. } => {
                        // sordf-lint: allow(L3) — strategy carries a var.
                        let (dl, ds) = link_d.unwrap();
                        let frac = (dl / ds.max(1.0) + ZM_RESIDUAL).clamp(ZM_RESIDUAL, 1.0);
                        (
                            sc * frac + prefix_rows + ss.rows * frac + join_rows,
                            join_rows,
                        )
                    }
                    JoinStrategy::Hash { .. } => {
                        (sc + prefix_rows + ss.rows + join_rows, join_rows)
                    }
                    JoinStrategy::Cross => {
                        let out = prefix_rows * ss.rows;
                        (sc + out, out)
                    }
                };
                let replace = match &best {
                    None => true,
                    Some((b, _)) => cost < b.cost,
                };
                if replace {
                    best = Some((
                        PhysicalStep {
                            star: star_idx,
                            access,
                            join: strategy.clone(),
                            join_vars: join_vars.clone(),
                            est_star_rows: ss.rows,
                            est_rows: rows,
                            cost,
                        },
                        rows,
                    ));
                }
            }
        }
        // sordf-lint: allow(L3) — both `accesses` and `strategies` are
        // non-empty by construction, so a best combination always exists.
        best.unwrap()
    }
}

/// Per-star statistics for the cost model (see module docs).
fn star_stats(cx: &ExecContext, sv: &StatsView, star: &Star, filters: &[&Expr]) -> StarStats {
    let pd = Pushdown::new(cx, star, filters);
    let rows = estimate_star_with(cx, sv, star, &pd).max(0.0);

    // IdxScan+MergeJoin: every property stream is scanned end to end. Every
    // scanned row pays the decode surcharge of its page.
    let scan_prop: f64 = star
        .props
        .iter()
        .map(|p| pred_cardinality(cx, sv, p.pred))
        .sum::<f64>()
        .max(1.0)
        * SCAN_DECODE_CPU;

    // RDFscan: covered segment rows (zone-map-narrowed) + the irregular and
    // pending remainders of every property.
    let scan_rdf = match &cx.storage {
        StorageRef::Baseline(_) => None,
        StorageRef::Clustered { store, schema } => {
            let mut cost = 0.0f64;
            for class in &schema.classes {
                let mut covers_all = true;
                let mut zm_sel = 1.0f64;
                for (prop, restrict) in star.props.iter().zip(&pd.objects) {
                    let stats = if let Some(ci) = class.column_of(prop.pred) {
                        &class.columns[ci].stats
                    } else if let Some(mi) = class.multi_of(prop.pred) {
                        &class.multi_props[mi].stats
                    } else {
                        covers_all = false;
                        break;
                    };
                    if !restrict.is_none() {
                        zm_sel = zm_sel.min(restrict_selectivity(restrict, stats));
                    }
                }
                if covers_all {
                    let factor = if cx.config.zonemaps {
                        (zm_sel + ZM_RESIDUAL).clamp(ZM_RESIDUAL, 1.0)
                    } else {
                        1.0
                    };
                    cost += class.n_subjects as f64 * factor;
                }
            }
            for p in &star.props {
                cost += store
                    .irregular
                    .perm(Order::Pso)
                    .range1(cx.pool, p.pred)
                    .len() as f64
                    + sv.pending_for(p.pred) as f64;
            }
            Some(cost.max(1.0) * SCAN_DECODE_CPU)
        }
    };

    let vars = star.bound_vars();
    let mut distinct = FxHashMap::default();
    for &v in &vars {
        distinct.insert(v, estimate_distinct(cx, sv, star, v, rows));
    }
    StarStats {
        rows,
        scan_prop,
        scan_rdf,
        distinct,
        vars,
    }
}

/// One memo entry of the subset DP: the cheapest plan covering this mask.
struct MemoEntry {
    cost: f64,
    rows: f64,
    prev: u64,
    step: PhysicalStep,
}

/// Optimize: pick star order, access paths and join strategies by cost.
pub fn optimize(cx: &ExecContext, lp: &LogicalPlan) -> PhysicalPlan {
    let n = lp.stars.len();
    if n == 0 {
        return PhysicalPlan {
            scheme: cx.config.scheme,
            zonemaps: cx.config.zonemaps,
            steps: Vec::new(),
            total_cost: 0.0,
        };
    }
    let octx = OptCtx::new(cx, lp);
    if n > MAX_DP_STARS {
        return greedy(cx, &octx, n);
    }

    // Bottom-up subset DP: extend every reachable mask by every absent
    // star; ascending mask order visits every subset before its supersets.
    let full: u64 = (1u64 << n) - 1;
    let mut memo: Vec<Option<MemoEntry>> = (0..=full).map(|_| None).collect();
    let none_picked = vec![false; n];
    for i in 0..n {
        let (step, rows) = octx.make_step(&none_picked, 0.0, i);
        memo[1usize << i] = Some(MemoEntry {
            cost: step.cost,
            rows,
            prev: 0,
            step,
        });
    }
    for mask in 1..=full {
        let Some((cost, rows)) = memo[mask as usize].as_ref().map(|e| (e.cost, e.rows)) else {
            continue;
        };
        let picked: Vec<bool> = (0..n).map(|i| mask & (1u64 << i) != 0).collect();
        for i in 0..n {
            let bit = 1u64 << i;
            if mask & bit != 0 {
                continue;
            }
            let (step, new_rows) = octx.make_step(&picked, rows, i);
            let cand_cost = cost + step.cost;
            let slot = &mut memo[(mask | bit) as usize];
            let replace = match slot.as_ref() {
                None => true,
                Some(e) => cand_cost < e.cost,
            };
            if replace {
                *slot = Some(MemoEntry {
                    cost: cand_cost,
                    rows: new_rows,
                    prev: mask,
                    step,
                });
            }
        }
    }

    // Reconstruct the step chain from the full mask backwards.
    let mut steps_rev: Vec<PhysicalStep> = Vec::with_capacity(n);
    let mut mask = full;
    let mut total_cost = 0.0;
    while mask != 0 {
        // sordf-lint: allow(L3) — every reachable mask (and `full` in
        // particular, via the chain of extensions from the seeds) has an
        // entry: the DP extends every populated subset by every absent star.
        let e = memo[mask as usize].take().unwrap();
        if mask == full {
            total_cost = e.cost;
        }
        mask = e.prev;
        steps_rev.push(e.step);
    }
    steps_rev.reverse();
    PhysicalPlan {
        scheme: cx.config.scheme,
        zonemaps: cx.config.zonemaps,
        steps: steps_rev,
        total_cost,
    }
}

/// Greedy fallback for very wide BGPs: repeatedly take the locally
/// cheapest next step under the same cost model.
fn greedy(cx: &ExecContext, octx: &OptCtx, n: usize) -> PhysicalPlan {
    let mut picked = vec![false; n];
    let mut rows = 0.0f64;
    let mut steps = Vec::with_capacity(n);
    let mut total_cost = 0.0;
    while steps.len() < n {
        let mut best: Option<(PhysicalStep, f64)> = None;
        for i in 0..n {
            if picked[i] {
                continue;
            }
            let cand = octx.make_step(&picked, rows, i);
            let replace = match &best {
                None => true,
                Some((b, _)) => cand.0.cost < b.cost,
            };
            if replace {
                best = Some(cand);
            }
        }
        // sordf-lint: allow(L3) — the loop runs while unpicked stars
        // remain, so a candidate always exists.
        let (step, new_rows) = best.unwrap();
        picked[step.star] = true;
        rows = new_rows;
        total_cost += step.cost;
        steps.push(step);
    }
    PhysicalPlan {
        scheme: cx.config.scheme,
        zonemaps: cx.config.zonemaps,
        steps,
        total_cost,
    }
}

/// Lower with a *forced* star order (differential tests, plan-quality
/// benchmarks): per-edge strategy and access selection is identical to
/// [`optimize`], only the order is imposed.
pub fn optimize_with_order(cx: &ExecContext, lp: &LogicalPlan, order: &[usize]) -> PhysicalPlan {
    debug_assert_eq!(order.len(), lp.stars.len());
    let octx = OptCtx::new(cx, lp);
    let mut picked = vec![false; lp.stars.len()];
    let mut rows = 0.0f64;
    let mut steps = Vec::with_capacity(order.len());
    let mut total_cost = 0.0;
    for &i in order {
        let (step, new_rows) = octx.make_step(&picked, rows, i);
        picked[i] = true;
        rows = new_rows;
        total_cost += step.cost;
        steps.push(step);
    }
    PhysicalPlan {
        scheme: cx.config.scheme,
        zonemaps: cx.config.zonemaps,
        steps,
        total_cost,
    }
}
