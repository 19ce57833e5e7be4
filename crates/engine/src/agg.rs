//! Result finalization: projection, grouping/aggregation, DISTINCT,
//! ORDER BY, LIMIT — and the typed result set handed to frontends.

use crate::context::ExecContext;
use crate::expr::{compare, AggFunc, EvalValue};
use crate::parallel::{run_tasks, split_range};
use crate::query::{Query, SelectItem};
use crate::table::{Table, VarId};
use sordf_model::{Dictionary, FxHashMap, Oid};

/// One output value: a term OID, a computed number, or NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum OutVal {
    Oid(Oid),
    Num(f64),
    Null,
}

impl OutVal {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            OutVal::Num(n) => Some(*n),
            OutVal::Oid(o) => o.numeric_f64(),
            OutVal::Null => None,
        }
    }

    /// Render for display: decodes OIDs through the dictionary.
    pub fn render(&self, dict: &Dictionary) -> String {
        match self {
            OutVal::Null => "NULL".to_string(),
            OutVal::Num(n) => {
                if (n.fract()).abs() < 1e-9 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n:.4}")
                }
            }
            OutVal::Oid(o) => match dict.decode(*o) {
                Ok(sordf_model::Term::Iri(iri)) => format!("<{iri}>"),
                Ok(sordf_model::Term::Blank(b)) => format!("_:{b}"),
                Ok(sordf_model::Term::Literal(l)) => l.value.lexical(),
                Err(_) => format!("{o:?}"),
            },
        }
    }
}

/// Total order over output values (NULLs last, numbers by value, terms by
/// SPARQL-ish value comparison).
pub fn cmp_outval(a: &OutVal, b: &OutVal, dict: &Dictionary) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (OutVal::Null, OutVal::Null) => Ordering::Equal,
        (OutVal::Null, _) => Ordering::Greater,
        (_, OutVal::Null) => Ordering::Less,
        (OutVal::Num(x), OutVal::Num(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (OutVal::Oid(x), OutVal::Oid(y)) => {
            compare(&EvalValue::Oid(*x), &EvalValue::Oid(*y), dict).unwrap_or(x.cmp(y))
        }
        (a, b) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            _ => Ordering::Equal,
        },
    }
}

/// The final, typed query result. Stored row-major in one flat buffer —
/// materializing a result costs one allocation, not one per row.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    pub columns: Vec<String>,
    /// Row-major values; length is `n_rows * columns.len()`.
    vals: Vec<OutVal>,
    n_rows: usize,
}

impl ResultSet {
    /// An empty result with the given header.
    pub fn new(columns: Vec<String>) -> ResultSet {
        ResultSet {
            columns,
            vals: Vec::new(),
            n_rows: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.n_rows
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One row as a value slice.
    pub fn row(&self, i: usize) -> &[OutVal] {
        let nc = self.columns.len();
        &self.vals[i * nc..(i + 1) * nc]
    }

    /// Iterate rows as value slices.
    pub fn rows(&self) -> impl Iterator<Item = &[OutVal]> {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Append one row (must match the column count).
    pub fn push_row(&mut self, row: impl IntoIterator<Item = OutVal>) {
        let before = self.vals.len();
        self.vals.extend(row);
        debug_assert_eq!(self.vals.len() - before, self.columns.len());
        self.n_rows += 1;
    }

    /// Render all rows as strings (header excluded).
    pub fn render(&self, dict: &Dictionary) -> Vec<Vec<String>> {
        self.rows()
            .map(|r| r.iter().map(|v| v.render(dict)).collect())
            .collect()
    }

    /// A canonical sorted text form for differential testing: two result
    /// sets are equivalent iff this matches.
    pub fn canonical(&self, dict: &Dictionary) -> Vec<String> {
        let mut rows: Vec<String> = self
            .render(dict)
            .into_iter()
            .map(|r| r.join("\t"))
            .collect();
        rows.sort();
        rows
    }
}

/// Neumaier-compensated running sum. Storage generations scan rows in
/// different orders; naive `f64` accumulation makes SUM/AVG answers depend on
/// that order in the last ulps, which breaks differential testing across
/// configurations. Compensation keeps the result order-insensitive to within
/// one ulp of the exact sum, provided no intermediate overflows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CompensatedSum {
    sum: f64,
    compensation: f64,
}

impl CompensatedSum {
    fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Fold another compensated sum into this one. Adding the partial's sum
    /// through the compensated path and carrying its compensation keeps the
    /// merged total order-insensitive to within one ulp — the property that
    /// lets per-span aggregation partials merge in any order and still
    /// agree with the one-span accumulation.
    fn merge(&mut self, other: &CompensatedSum) {
        self.add(other.sum);
        self.compensation += other.compensation;
    }

    fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

/// Aggregate accumulator.
enum AggState {
    Count(u64),
    Sum(CompensatedSum),
    Avg(CompensatedSum, u64),
    Min(Option<OutVal>),
    Max(Option<OutVal>),
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(CompensatedSum::default()),
            AggFunc::Avg => AggState::Avg(CompensatedSum::default(), 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn add(&mut self, v: EvalValue, dict: &Dictionary) {
        let out = match &v {
            EvalValue::Oid(o) if o.is_null() => return,
            EvalValue::Oid(o) => OutVal::Oid(*o),
            // A NaN is an evaluation error (e.g. arithmetic on a non-numeric
            // term); SPARQL aggregates skip errored rows.
            EvalValue::Num(n) if n.is_nan() => return,
            EvalValue::Num(n) => OutVal::Num(*n),
            EvalValue::Bool(b) => OutVal::Num(*b as i64 as f64),
        };
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(s) => s.add(out.as_f64().unwrap_or(0.0)),
            AggState::Avg(s, n) => {
                if let Some(x) = out.as_f64() {
                    s.add(x);
                    *n += 1;
                }
            }
            AggState::Min(best) => {
                let better = best.as_ref().map_or(true, |b| {
                    cmp_outval(&out, b, dict) == std::cmp::Ordering::Less
                });
                if better {
                    *best = Some(out);
                }
            }
            AggState::Max(best) => {
                let better = best.as_ref().map_or(true, |b| {
                    cmp_outval(&out, b, dict) == std::cmp::Ordering::Greater
                });
                if better {
                    *best = Some(out);
                }
            }
        }
    }

    /// Fold a partial accumulator (from another row range) into this one.
    /// COUNT/MIN/MAX merge exactly; SUM/AVG merge through the compensated
    /// path, order-insensitive to within one ulp.
    fn merge(&mut self, other: AggState, dict: &Dictionary) {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::Sum(s), AggState::Sum(o)) => s.merge(&o),
            (AggState::Avg(s, n), AggState::Avg(o, m)) => {
                s.merge(&o);
                *n += m;
            }
            (AggState::Min(best), AggState::Min(Some(o))) => {
                let better = best.as_ref().map_or(true, |b| {
                    cmp_outval(&o, b, dict) == std::cmp::Ordering::Less
                });
                if better {
                    *best = Some(o);
                }
            }
            (AggState::Max(best), AggState::Max(Some(o))) => {
                let better = best.as_ref().map_or(true, |b| {
                    cmp_outval(&o, b, dict) == std::cmp::Ordering::Greater
                });
                if better {
                    *best = Some(o);
                }
            }
            (AggState::Min(_), AggState::Min(None)) | (AggState::Max(_), AggState::Max(None)) => {}
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    fn finish(self) -> OutVal {
        match self {
            AggState::Count(n) => OutVal::Num(n as f64),
            AggState::Sum(s) => OutVal::Num(s.value()),
            AggState::Avg(s, n) => {
                if n == 0 {
                    OutVal::Null
                } else {
                    OutVal::Num(s.value() / n as f64)
                }
            }
            AggState::Min(b) | AggState::Max(b) => b.unwrap_or(OutVal::Null),
        }
    }
}

/// Effective select list: all pattern vars when empty.
fn effective_select(query: &Query) -> Vec<SelectItem> {
    if query.select.is_empty() {
        query
            .pattern_vars()
            .into_iter()
            .map(SelectItem::Var)
            .collect()
    } else {
        query.select.clone()
    }
}

/// Dense VarId -> column map, resolved once — per-row lookups must not
/// re-scan the table's variable list per access.
fn var_col_map(table: &Table) -> Vec<Option<usize>> {
    let n_var_ids = table
        .vars
        .iter()
        .map(|v| v.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut var_col: Vec<Option<usize>> = vec![None; n_var_ids];
    for (c, v) in table.vars.iter().enumerate() {
        var_col[v.0 as usize] = Some(c);
    }
    var_col
}

/// Fresh accumulators for a select list (placeholders for non-aggregates).
fn new_agg_states(select: &[SelectItem]) -> Vec<AggState> {
    select
        .iter()
        .map(|s| match s {
            SelectItem::Agg { func, .. } => AggState::new(*func),
            _ => AggState::new(AggFunc::Count), // placeholder
        })
        .collect()
}

/// Accumulate a row range of the binding table into single-group (no GROUP
/// BY) aggregate states — the partial-aggregation unit [`finalize`] runs per
/// row span before merging with [`AggState::merge`].
fn accumulate_single_group(
    cx: &ExecContext,
    select: &[SelectItem],
    table: &Table,
    var_col: &[Option<usize>],
    rows: std::ops::Range<usize>,
    states: &mut [AggState],
) {
    for i in rows {
        let lk = |v: VarId| -> Oid {
            var_col
                .get(v.0 as usize)
                .copied()
                .flatten()
                .map(|c| table.cols[c][i])
                .unwrap_or(Oid::NULL)
        };
        for (s, state) in select.iter().zip(states.iter_mut()) {
            if let SelectItem::Agg { expr, .. } = s {
                state.add(expr.eval(&lk, cx.dict), cx.dict);
            }
        }
    }
}

/// Render finished single-group states as the one-row result set.
fn single_group_result(
    cx: &ExecContext,
    query: &Query,
    select: &[SelectItem],
    states: Vec<AggState>,
) -> ResultSet {
    let columns: Vec<String> = select
        .iter()
        .map(|s| s.name(&query.vars).to_string())
        .collect();
    let mut rs = ResultSet::new(columns);
    let lk = |_: VarId| Oid::NULL;
    rs.push_row(select.iter().zip(states).map(|(s, state)| match s {
        SelectItem::Agg { .. } => state.finish(),
        SelectItem::Var(_) => OutVal::Null,
        SelectItem::Expr { expr, .. } => match expr.eval(&lk, cx.dict) {
            EvalValue::Oid(o) if o.is_null() => OutVal::Null,
            EvalValue::Oid(o) => OutVal::Oid(o),
            EvalValue::Num(n) => OutVal::Num(n),
            EvalValue::Bool(b) => OutVal::Num(b as i64 as f64),
        },
    }));
    rs
}

/// Apply SELECT / GROUP BY / DISTINCT / ORDER BY / LIMIT to the raw binding
/// table.
pub fn finalize(cx: &ExecContext, query: &Query, table: &Table) -> ResultSet {
    let select = effective_select(query);
    let columns: Vec<String> = select
        .iter()
        .map(|s| s.name(&query.vars).to_string())
        .collect();

    let var_col = var_col_map(table);
    let lookup_at = |i: usize| {
        let var_col = &var_col;
        move |v: VarId| -> Oid {
            var_col
                .get(v.0 as usize)
                .copied()
                .flatten()
                .map(|c| table.cols[c][i])
                .unwrap_or(Oid::NULL)
        }
    };

    let mut rs = ResultSet::new(columns);
    if query.has_aggregates() && query.group_by.is_empty() && !table.is_empty() {
        // Single-group fast path (Q6-style whole-table aggregates): one
        // accumulator vector and one tight pass over the columns per row
        // span, no hashing. One worker (or a small table) is one span;
        // otherwise per-span partials merge in span order (SUM/AVG through
        // the compensated accumulator — order-insensitive to within one ulp).
        let par = &cx.parallel;
        let spans = split_range(0..table.len(), par.workers, par.min_morsel_rows);
        let mut partials = run_tasks(cx.cancel_token(), par.workers, spans.len(), |i| {
            let mut states = new_agg_states(&select);
            accumulate_single_group(cx, &select, table, &var_col, spans[i].clone(), &mut states);
            states
        })
        .into_iter();
        // sordf-lint: allow(L3) — split_range on a non-empty row range yields
        // at least one span, so there is always a first partial.
        let mut states = partials.next().expect("non-empty table has one partial");
        for partial in partials {
            for (s, o) in states.iter_mut().zip(partial) {
                s.merge(o, cx.dict);
            }
        }
        rs = single_group_result(cx, query, &select, states);
    } else if query.has_aggregates() {
        // Hash grouping on the GROUP BY key.
        let mut groups: FxHashMap<Vec<Oid>, Vec<AggState>> = FxHashMap::default();
        let mut order: Vec<Vec<Oid>> = Vec::new();
        for i in 0..table.len() {
            let lk = lookup_at(i);
            let key: Vec<Oid> = query.group_by.iter().map(|&v| lk(v)).collect();
            let states = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                select
                    .iter()
                    .map(|s| match s {
                        SelectItem::Agg { func, .. } => AggState::new(*func),
                        _ => AggState::new(AggFunc::Count), // placeholder
                    })
                    .collect()
            });
            for (s, state) in select.iter().zip(states.iter_mut()) {
                if let SelectItem::Agg { expr, .. } = s {
                    state.add(expr.eval(&lk, cx.dict), cx.dict);
                }
            }
        }
        for key in order {
            // sordf-lint: allow(L3) — `order` holds exactly the keys of `groups`, each removed once.
            let states = groups.remove(&key).unwrap();
            let kv: FxHashMap<VarId, Oid> = query
                .group_by
                .iter()
                .copied()
                .zip(key.iter().copied())
                .collect();
            let lk = |v: VarId| kv.get(&v).copied().unwrap_or(Oid::NULL);
            rs.push_row(select.iter().zip(states).map(|(s, state)| match s {
                SelectItem::Agg { .. } => state.finish(),
                SelectItem::Var(v) => {
                    let o = lk(*v);
                    if o.is_null() {
                        OutVal::Null
                    } else {
                        OutVal::Oid(o)
                    }
                }
                SelectItem::Expr { expr, .. } => match expr.eval(&lk, cx.dict) {
                    EvalValue::Oid(o) if o.is_null() => OutVal::Null,
                    EvalValue::Oid(o) => OutVal::Oid(o),
                    EvalValue::Num(n) => OutVal::Num(n),
                    EvalValue::Bool(b) => OutVal::Num(b as i64 as f64),
                },
            }));
        }
    } else {
        // Projection: resolve each select item to a column (or expression)
        // once, then sweep the columns directly — no per-row variable lookup.
        enum Item<'a> {
            Col(usize),
            Missing,
            Expr(&'a crate::expr::Expr),
        }
        let items: Vec<Item> = select
            .iter()
            .map(|s| match s {
                SelectItem::Var(v) => match var_col.get(v.0 as usize).copied().flatten() {
                    Some(c) => Item::Col(c),
                    None => Item::Missing,
                },
                SelectItem::Expr { expr, .. } | SelectItem::Agg { expr, .. } => Item::Expr(expr),
            })
            .collect();
        rs.vals.reserve(table.len() * items.len());
        for i in 0..table.len() {
            rs.push_row(items.iter().map(|item| match item {
                Item::Col(c) => {
                    let o = table.cols[*c][i];
                    if o.is_null() {
                        OutVal::Null
                    } else {
                        OutVal::Oid(o)
                    }
                }
                Item::Missing => OutVal::Null,
                Item::Expr(expr) => match expr.eval(&lookup_at(i), cx.dict) {
                    EvalValue::Oid(o) if o.is_null() => OutVal::Null,
                    EvalValue::Oid(o) => OutVal::Oid(o),
                    EvalValue::Num(n) => OutVal::Num(n),
                    EvalValue::Bool(b) => OutVal::Num(b as i64 as f64),
                },
            }));
        }
    }

    apply_modifiers(cx, query, &mut rs);
    rs
}

/// The DISTINCT / ORDER BY / LIMIT tail of [`finalize`].
fn apply_modifiers(cx: &ExecContext, query: &Query, rs: &mut ResultSet) {
    let nc = rs.columns.len();
    if query.distinct {
        let mut kept: Vec<OutVal> = Vec::new();
        let mut n_kept = 0usize;
        for i in 0..rs.n_rows {
            let row = rs.row(i);
            let dup = (0..n_kept).any(|k| &kept[k * nc..(k + 1) * nc] == row);
            if !dup {
                kept.extend_from_slice(row);
                n_kept += 1;
            }
        }
        rs.vals = kept;
        rs.n_rows = n_kept;
    }

    if !rs.is_empty() && !query.order_by.is_empty() {
        let mut idx: Vec<usize> = (0..rs.n_rows).collect();
        idx.sort_by(|&a, &b| {
            for key in &query.order_by {
                let ord = cmp_outval(
                    &rs.vals[a * nc + key.output],
                    &rs.vals[b * nc + key.output],
                    cx.dict,
                );
                let ord = if key.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let mut sorted = Vec::with_capacity(rs.vals.len());
        for &i in &idx {
            sorted.extend_from_slice(rs.row(i));
        }
        rs.vals = sorted;
    }

    if let Some(limit) = query.limit {
        if rs.n_rows > limit {
            rs.n_rows = limit;
            rs.vals.truncate(limit * nc);
        }
    }
}
