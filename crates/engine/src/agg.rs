//! Result finalization: projection, grouping/aggregation, DISTINCT,
//! ORDER BY, LIMIT — and the typed result set handed to frontends.
//!
//! Everything here runs column-at-a-time over chunks of
//! [`crate::expr::BATCH_ROWS`] rows of binding columns, through the one batch
//! evaluator ([`Expr::eval_batch`]). The select list of a request
//! (`Finalize`) is *folded* over the bindings (`Fold`), and **there is
//! one accumulate path with two drivers**: `Fold::consume` takes rows of a
//! binding table — either the page-sized buffer a streamed star scan emits
//! into and flushes after every page (the last step of a single-star plan:
//! Q1, Q6, the star joins never materialize their 60 K-row bindings), or
//! spans of a materialized table (a joined plan's final join; [`finalize`]).
//! Per chunk, an aggregating select list gives the rows dense group ids (the
//! GROUP BY key; ids in first-seen order; no GROUP BY is the empty key, so a
//! whole-table aggregate is the one-group case of the same code — a handful
//! of groups is matched column-at-a-time, without a data-dependent branch),
//! evaluates each aggregate's argument once into a typed column, and folds
//! that column into `accumulators[group id]` in row order — the values and
//! the order a row-at-a-time loop would feed each group, so SUM/AVG are
//! bit-identical to it at one worker, where one fold takes every page in
//! order. Several workers fold morsels (or spans) independently and the
//! folds merge in morsel order (exact for COUNT/MIN/MAX, within one ulp for
//! SUM/AVG through the compensated accumulator), grouped or not. A plain
//! select list projects each chunk straight into the result rows. Group keys
//! are kept as columns, so the grouped output is projected by the same
//! chunked code as a plain SELECT.
//!
//! The row-at-a-time formulation this replaced lives on as the
//! `#[cfg(test)]` oracle at the bottom of this file; the `reference`
//! tests compare the two cell by cell, over materialized tables and over
//! plans as they execute.

use crate::context::ExecContext;
use crate::expr::{batches, AggFunc, BatchEval, Col, EvalValue, Expr, TermOrder};
use crate::join::RowChains;
use crate::parallel::{run_tasks, split_range};
use crate::query::{Query, SelectItem};
use crate::star::StarSink;
use crate::table::{Table, VarId};
use sordf_model::fxhash::FxHasher;
use sordf_model::{Dictionary, FxHashMap, Oid, TypeTag};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hasher;
use std::ops::Range;

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
        let mut out = String::new();
        self.push_display(dict, &mut out);
        out
    }

    /// Append what [`OutVal::render`] returns to `out`: a term's text read
    /// in place from the dictionary ([`Dictionary::push_display`]), a
    /// number formatted, `NULL`. Nothing is allocated but `out`'s growth.
    pub fn push_display(&self, dict: &Dictionary, out: &mut String) {
        use std::fmt::Write;
        // Formatting into a `String` cannot fail.
        let _ = match self {
            OutVal::Null => {
                out.push_str("NULL");
                Ok(())
            }
            OutVal::Num(n) if n.fract().abs() < 1e-9 && n.abs() < 1e15 => {
                write!(out, "{}", *n as i64)
            }
            OutVal::Num(n) => write!(out, "{n:.4}"),
            OutVal::Oid(o) => match dict.push_display(*o, out) {
                Ok(()) => Ok(()),
                Err(_) => write!(out, "{o:?}"),
            },
        };
    }
}

/// Total order over output values (NULLs last, numbers by value, terms by
/// [`TermOrder::sort`]).
pub fn cmp_outval(a: &OutVal, b: &OutVal, dict: &Dictionary) -> Ordering {
    cmp_outval_in(a, b, TermOrder::by_text(dict))
}

/// [`cmp_outval`] under a term order that may know string OIDs compare raw.
fn cmp_outval_in(a: &OutVal, b: &OutVal, order: TermOrder) -> Ordering {
    match (a, b) {
        (OutVal::Null, OutVal::Null) => Ordering::Equal,
        (OutVal::Null, _) => Ordering::Greater,
        (_, OutVal::Null) => Ordering::Less,
        (OutVal::Num(x), OutVal::Num(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (OutVal::Oid(x), OutVal::Oid(y)) => order.sort(*x, *y),
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
    /// sets are equivalent iff this matches. One `String` per row, each
    /// value appended to it in place.
    pub fn canonical(&self, dict: &Dictionary) -> Vec<String> {
        let mut rows: Vec<String> = self
            .rows()
            .map(|r| {
                let mut line = String::new();
                for (j, v) in r.iter().enumerate() {
                    if j > 0 {
                        line.push('\t');
                    }
                    v.push_display(dict, &mut line);
                }
                line
            })
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

/// MIN/MAX step: `v` replaces `best` when it orders `want` of it (ties keep
/// the first seen).
fn keep_best(best: &mut Option<OutVal>, v: OutVal, want: Ordering, order: TermOrder) {
    if best
        .as_ref()
        .map_or(true, |b| cmp_outval_in(&v, b, order) == want)
    {
        *best = Some(v);
    }
}

/// One aggregate of the select list: its accumulators, one per dense group
/// id. NULLs and evaluation errors (`NaN`) are skipped by every function;
/// a non-numeric term adds 0 to SUM and is skipped by AVG.
enum AggVec {
    Count(Vec<u64>),
    Sum(Vec<CompensatedSum>),
    Avg(Vec<(CompensatedSum, u64)>),
    /// MIN (`want` = `Less`) or MAX (`Greater`).
    Best {
        best: Vec<Option<OutVal>>,
        want: Ordering,
    },
}

impl AggVec {
    fn new(f: AggFunc) -> AggVec {
        match f {
            AggFunc::Count => AggVec::Count(Vec::new()),
            AggFunc::Sum => AggVec::Sum(Vec::new()),
            AggFunc::Avg => AggVec::Avg(Vec::new()),
            AggFunc::Min => AggVec::Best {
                best: Vec::new(),
                want: Ordering::Less,
            },
            AggFunc::Max => AggVec::Best {
                best: Vec::new(),
                want: Ordering::Greater,
            },
        }
    }

    fn push_group(&mut self) {
        match self {
            AggVec::Count(c) => c.push(0),
            AggVec::Sum(s) => s.push(CompensatedSum::default()),
            AggVec::Avg(s) => s.push((CompensatedSum::default(), 0)),
            AggVec::Best { best, .. } => best.push(None),
        }
    }

    /// Fold one chunk of argument values into their groups, in row order:
    /// `gids[i]` is the group of the chunk's row `i`.
    fn accumulate(&mut self, gids: &[u32], col: &Col, order: TermOrder) {
        match col {
            Col::Oid(s) => self.add_terms(gids, |i| s[i], order),
            Col::Const(EvalValue::Oid(o)) => self.add_terms(gids, |_| *o, order),
            Col::Num(v) => self.add_nums(gids, |i| v[i], order),
            Col::Const(EvalValue::Num(x)) => self.add_nums(gids, |_| *x, order),
            Col::Bool(v) => self.add_nums(gids, |i| v[i] as i64 as f64, order),
            Col::Const(EvalValue::Bool(b)) => self.add_nums(gids, |_| *b as i64 as f64, order),
        }
    }

    /// `val(i)` is row `i`'s computed number; `NaN` rows are skipped.
    fn add_nums(&mut self, gids: &[u32], val: impl Fn(usize) -> f64, order: TermOrder) {
        let rows = gids.iter().map(|&g| g as usize).enumerate();
        match self {
            AggVec::Count(c) => rows.for_each(|(i, g)| c[g] += u64::from(!val(i).is_nan())),
            AggVec::Sum(s) => rows.for_each(|(i, g)| {
                let x = val(i);
                if !x.is_nan() {
                    s[g].add(x);
                }
            }),
            AggVec::Avg(s) => rows.for_each(|(i, g)| {
                let x = val(i);
                if !x.is_nan() {
                    s[g].0.add(x);
                    s[g].1 += 1;
                }
            }),
            AggVec::Best { best, want } => rows.for_each(|(i, g)| {
                let x = val(i);
                if !x.is_nan() {
                    keep_best(&mut best[g], OutVal::Num(x), *want, order);
                }
            }),
        }
    }

    /// `val(i)` is row `i`'s term; NULL rows are skipped.
    fn add_terms(&mut self, gids: &[u32], val: impl Fn(usize) -> Oid, order: TermOrder) {
        let rows = gids.iter().map(|&g| g as usize).enumerate();
        match self {
            AggVec::Count(c) => rows.for_each(|(i, g)| c[g] += u64::from(!val(i).is_null())),
            AggVec::Sum(s) => rows.for_each(|(i, g)| {
                let o = val(i);
                if !o.is_null() {
                    s[g].add(o.numeric_f64().unwrap_or(0.0));
                }
            }),
            AggVec::Avg(s) => rows.for_each(|(i, g)| {
                if let Some(x) = val(i).numeric_f64() {
                    s[g].0.add(x);
                    s[g].1 += 1;
                }
            }),
            AggVec::Best { best, want } => rows.for_each(|(i, g)| {
                let o = val(i);
                if !o.is_null() {
                    keep_best(&mut best[g], OutVal::Oid(o), *want, order);
                }
            }),
        }
    }

    /// Fold group `og` of a partial (another row span) into group `g`.
    /// COUNT/MIN/MAX merge exactly; SUM/AVG merge through the compensated
    /// path, order-insensitive to within one ulp.
    fn merge_group(&mut self, g: usize, other: &AggVec, og: usize, order: TermOrder) {
        match (self, other) {
            (AggVec::Count(c), AggVec::Count(o)) => c[g] += o[og],
            (AggVec::Sum(s), AggVec::Sum(o)) => s[g].merge(&o[og]),
            (AggVec::Avg(s), AggVec::Avg(o)) => {
                s[g].0.merge(&o[og].0);
                s[g].1 += o[og].1;
            }
            (AggVec::Best { best, want }, AggVec::Best { best: o, .. }) => {
                if let Some(v) = &o[og] {
                    keep_best(&mut best[g], v.clone(), *want, order);
                }
            }
            // Partials are built from one select list, so kinds line up.
            _ => debug_assert!(false, "merging mismatched aggregates"),
        }
    }

    fn finish(&self, g: usize) -> OutVal {
        match self {
            AggVec::Count(c) => OutVal::Num(c[g] as f64),
            AggVec::Sum(s) => OutVal::Num(s[g].value()),
            AggVec::Avg(s) => match s[g] {
                (_, 0) => OutVal::Null,
                (sum, n) => OutVal::Num(sum.value() / n as f64),
            },
            AggVec::Best { best, .. } => best[g].clone().unwrap_or(OutVal::Null),
        }
    }
}

/// The groups of one row span: dense ids in first-seen order, the key of
/// each group column-wise (one column per GROUP BY variable — a binding
/// table of the groups), and the aggregates' accumulators.
struct Groups {
    index: FxHashMap<Box<[Oid]>, u32>,
    keys: Vec<Vec<Oid>>,
    n: usize,
    aggs: Vec<AggVec>,
    /// Scratch of [`assign`](Self::assign): which rows match one group.
    hit: Vec<bool>,
}

impl Groups {
    fn new(n_keys: usize, funcs: impl Iterator<Item = AggFunc>) -> Groups {
        Groups {
            index: FxHashMap::default(),
            keys: vec![Vec::new(); n_keys],
            n: 0,
            aggs: funcs.map(AggVec::new).collect(),
            hit: Vec::new(),
        }
    }

    /// The id of the group keyed `key`, a new one on first sight. The lookup
    /// borrows `key`; only a new group copies it.
    fn gid_of(&mut self, key: &[Oid]) -> u32 {
        if let Some(&g) = self.index.get(key) {
            return g;
        }
        let g = self.n as u32;
        self.index.insert(key.into(), g);
        for (col, &k) in self.keys.iter_mut().zip(key) {
            col.push(k);
        }
        self.aggs.iter_mut().for_each(AggVec::push_group);
        self.n += 1;
        g
    }

    /// While there are at most this many groups, a chunk's rows are matched
    /// against the group keys column-at-a-time ([`match_group`](Self::match_group)).
    const MATCHED_GROUPS: usize = 8;

    /// Group ids of rows `rows` into `gids`. `key_cols` are the binding
    /// table's GROUP BY columns (`None`: the table does not bind the
    /// variable, its key component is NULL).
    ///
    /// A handful of groups — Q1 has four, and changes key on every other
    /// row — is matched without a data-dependent branch: every group is
    /// matched once against the rows not yet assigned when it became known,
    /// one compare pass per key column and one select pass; the first row
    /// left without an id is a new group (ids stay first-seen), matched in
    /// turn against the rows after it. (The row-by-row loop cost Q1 0.5 ms
    /// per 59 K rows, nearly all of it mispredicted "same key as the row
    /// before?" branches — a linear probe of the keys instead of the hash
    /// made it 0.8.) Past [`MATCHED_GROUPS`](Self::MATCHED_GROUPS) the rest
    /// of the chunk goes row by row: a row keyed like the one before it —
    /// sorted or clustered input — takes its id, another one a hash lookup.
    fn assign(
        &mut self,
        key_cols: &[Option<&[Oid]>],
        rows: Range<usize>,
        key: &mut Vec<Oid>,
        gids: &mut Vec<u32>,
    ) {
        const UNKNOWN: u32 = u32::MAX;
        gids.clear();
        if key_cols.is_empty() {
            let g = self.gid_of(&[]);
            gids.resize(rows.len(), g);
            return;
        }
        gids.resize(rows.len(), UNKNOWN);
        let at = |c: &Option<&[Oid]>, i: usize| c.map_or(Oid::NULL, |c| c[i]);
        let mut key_of = |groups: &mut Groups, i: usize| {
            key.clear();
            key.extend(key_cols.iter().map(|c| at(c, i)));
            groups.gid_of(key)
        };
        // Offsets below `from` have their id; groups below `matched` have
        // been matched against every offset from `from` on.
        let (mut from, mut matched) = (0, 0);
        while self.n <= Self::MATCHED_GROUPS {
            for g in matched..self.n {
                self.match_group(g, key_cols, rows.start + from..rows.end, &mut gids[from..]);
            }
            matched = self.n;
            let Some(first) = gids[from..].iter().position(|&g| g == UNKNOWN) else {
                return;
            };
            from += first;
            gids[from] = key_of(self, rows.start + from);
            from += 1;
        }
        for off in from..rows.len() {
            if gids[off] == UNKNOWN {
                let i = rows.start + off;
                gids[off] = if off > 0 && key_cols.iter().all(|c| at(c, i) == at(c, i - 1)) {
                    gids[off - 1]
                } else {
                    key_of(self, i)
                };
            }
        }
    }

    /// Give the rows of `rows` keyed like group `g` its id (`gids` is
    /// aligned with `rows`; other rows keep what they have).
    fn match_group(
        &mut self,
        g: usize,
        key_cols: &[Option<&[Oid]>],
        rows: Range<usize>,
        gids: &mut [u32],
    ) {
        let hit = &mut self.hit;
        hit.clear();
        hit.resize(rows.len(), true);
        for (col, group_keys) in key_cols.iter().zip(&self.keys) {
            let k = group_keys[g];
            match col {
                Some(col) => hit
                    .iter_mut()
                    .zip(&col[rows.clone()])
                    .for_each(|(h, &v)| *h &= v == k),
                None if k.is_null() => {}
                None => hit.fill(false),
            }
        }
        for (gid, &h) in gids.iter_mut().zip(hit.iter()) {
            *gid = if h { g as u32 } else { *gid };
        }
    }

    /// Fold a later span's groups into these, keeping first-seen order
    /// (spans are contiguous and merged in order, so a group new to `self`
    /// was first seen after all of `self`'s).
    fn merge(&mut self, other: &Groups, order: TermOrder) {
        let mut key = Vec::with_capacity(other.keys.len());
        for og in 0..other.n {
            key.clear();
            key.extend(other.keys.iter().map(|c| c[og]));
            let g = self.gid_of(&key) as usize;
            for (a, o) in self.aggs.iter_mut().zip(&other.aggs) {
                a.merge_group(g, o, og, order);
            }
        }
    }
}

/// The select list of a query, resolved once per request — what the last
/// step of a plan folds its rows into ([`fold`](Self::fold)), and what turns
/// the folded state into the result ([`finish`](Self::finish)).
pub(crate) struct Finalize<'q> {
    query: &'q Query,
    /// Effective select list: all pattern vars when the query's is empty.
    select: Cow<'q, [SelectItem]>,
}

/// The aggregates of a select list, in order.
fn aggregates(select: &[SelectItem]) -> impl Iterator<Item = (AggFunc, &Expr)> {
    select.iter().filter_map(|s| match s {
        SelectItem::Agg { func, expr, .. } => Some((*func, expr)),
        _ => None,
    })
}

impl<'q> Finalize<'q> {
    pub(crate) fn new(query: &'q Query) -> Finalize<'q> {
        let select = if query.select.is_empty() {
            Cow::Owned(
                query
                    .pattern_vars()
                    .into_iter()
                    .map(SelectItem::Var)
                    .collect(),
            )
        } else {
            Cow::Borrowed(&query.select[..])
        };
        Finalize { query, select }
    }

    /// The variables the select list and GROUP BY read off the bindings.
    pub(crate) fn reads(&self) -> Vec<VarId> {
        let mut out = self.query.group_by.clone();
        for item in self.select.iter() {
            match item {
                SelectItem::Var(v) if out.contains(v) => {}
                SelectItem::Var(v) => out.push(*v),
                SelectItem::Expr { expr, .. } | SelectItem::Agg { expr, .. } => expr.vars(&mut out),
            }
        }
        out
    }

    /// An empty fold over binding rows laid out as `vars`.
    pub(crate) fn fold<'f, 'd>(&'f self, cx: &ExecContext<'d>, vars: &[VarId]) -> Fold<'f, 'd> {
        let state = if self.query.has_aggregates() {
            let funcs = aggregates(&self.select).map(|(f, _)| f);
            FoldState::Groups(Groups::new(self.query.group_by.len(), funcs))
        } else {
            FoldState::Rows(ResultSet::default())
        };
        Fold {
            chunk: Table::empty(vars.to_vec()),
            rows: 0,
            over: FoldOver {
                select: &self.select,
                group_by: &self.query.group_by,
                ev: BatchEval::new(cx, vars),
                state,
                key: Vec::new(),
                gids: Vec::new(),
            },
        }
    }

    /// Fold a materialized binding table: one span per worker (one for a
    /// small table), the spans' folds merged in span order.
    pub(crate) fn fold_table<'f, 'd>(
        &'f self,
        cx: &ExecContext<'d>,
        table: &Table,
    ) -> Fold<'f, 'd> {
        let par = &cx.parallel;
        let spans = split_range(0..table.len(), par.workers, par.min_morsel_rows);
        let mut folds = run_tasks(cx.cancel_token(), par.workers, spans.len(), |i| {
            let mut fold = self.fold(cx, &table.vars);
            fold.consume(table, spans[i].clone());
            fold
        })
        .into_iter();
        // An empty table has no span and folds to nothing: no groups — also
        // without GROUP BY — and no rows.
        let mut fold = folds.next().unwrap_or_else(|| self.fold(cx, &table.vars));
        folds.for_each(|later| fold.absorb(later));
        fold
    }

    /// The result of a finished fold: groups become rows (keys and finished
    /// aggregates, projected by the same chunked code as plain bindings),
    /// then DISTINCT / ORDER BY / LIMIT.
    pub(crate) fn finish(&self, cx: &ExecContext, fold: Fold) -> ResultSet {
        let columns: Vec<String> = self
            .select
            .iter()
            .map(|s| s.name(&self.query.vars).to_string())
            .collect();
        let mut rs = match fold.over.state {
            FoldState::Rows(rs) => ResultSet { columns, ..rs },
            FoldState::Groups(groups) => {
                let mut rs = ResultSet::new(columns);
                let mut ev = BatchEval::new(cx, &self.query.group_by);
                let (keys, aggs) = (&groups.keys[..], Some(&groups.aggs[..]));
                project_rows(&mut ev, &self.select, keys, 0..groups.n, aggs, &mut rs);
                rs
            }
        };
        apply_modifiers(cx, self.query, &mut rs);
        rs
    }
}

/// The select list folded over binding rows, a chunk at a time: the state one
/// morsel (or one span of a materialized table) accumulates. **There is one
/// accumulate path** — [`consume`](Self::consume) — and two drivers of it: a
/// streamed star scan, which emits each page's rows into this fold's reused
/// page-sized buffer and flushes ([`StarSink`]), and
/// [`Finalize::fold_table`] over a materialized table.
pub(crate) struct Fold<'q, 'd> {
    /// The buffer a streamed scan emits into; empty between pages.
    chunk: Table,
    /// Rows consumed so far.
    rows: u64,
    over: FoldOver<'q, 'd>,
}

/// What a [`Fold`] folds into (apart from the streaming buffer, so that the
/// buffer can be read while this is written).
struct FoldOver<'q, 'd> {
    select: &'q [SelectItem],
    group_by: &'q [VarId],
    ev: BatchEval<'d>,
    state: FoldState,
    key: Vec<Oid>,
    gids: Vec<u32>,
}

enum FoldState {
    /// An aggregating select list: the groups seen so far.
    Groups(Groups),
    /// A plain one: the projected rows so far (header filled in at the end).
    Rows(ResultSet),
}

impl FoldOver<'_, '_> {
    /// Fold rows `rows` of `cols` in: per chunk of [`crate::expr::BATCH_ROWS`]
    /// rows, either group ids once and every aggregate's argument folded
    /// into its accumulators, or the select list projected.
    fn consume(&mut self, cols: &[Vec<Oid>], rows: Range<usize>) {
        let FoldOver {
            select,
            group_by,
            ev,
            state,
            key,
            gids,
        } = self;
        match state {
            FoldState::Rows(rs) => project_rows(ev, select, cols, rows, None, rs),
            FoldState::Groups(groups) => {
                let order = ev.order();
                let key_cols: Vec<Option<&[Oid]>> = group_by
                    .iter()
                    .map(|&v| ev.col_of(v).map(|c| cols[c].as_slice()))
                    .collect();
                for chunk in batches(rows) {
                    groups.assign(&key_cols, chunk.clone(), key, gids);
                    for (agg, (_, arg)) in groups.aggs.iter_mut().zip(aggregates(select)) {
                        let col = arg.eval_batch(ev, cols, chunk.clone());
                        agg.accumulate(gids, &col, order);
                        ev.recycle(col);
                    }
                }
            }
        }
    }
}

impl Fold<'_, '_> {
    /// Fold rows `rows` of `table` (laid out as this fold's variables) in.
    pub(crate) fn consume(&mut self, table: &Table, rows: Range<usize>) {
        self.rows += rows.len() as u64;
        self.over.consume(&table.cols, rows);
    }

    /// Rows consumed so far (this fold's and the ones it absorbed).
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }
}

impl StarSink for Fold<'_, '_> {
    fn buffer(&mut self) -> &mut Table {
        &mut self.chunk
    }

    fn flush(&mut self, _: &ExecContext) {
        self.rows += self.chunk.len() as u64;
        self.over.consume(&self.chunk.cols, 0..self.chunk.len());
        self.chunk.clear();
    }

    /// Fold in the rows after this fold's: groups keep first-seen order and
    /// merge exactly for COUNT/MIN/MAX, within one ulp for SUM/AVG; plain
    /// rows concatenate.
    fn absorb(&mut self, later: Self) {
        self.rows += later.rows;
        match (&mut self.over.state, later.over.state) {
            (FoldState::Groups(groups), FoldState::Groups(other)) => {
                groups.merge(&other, self.over.ev.order());
            }
            (FoldState::Rows(rs), FoldState::Rows(mut other)) => {
                rs.vals.append(&mut other.vals);
                rs.n_rows += other.n_rows;
            }
            // Folds of one select list are of one kind.
            _ => debug_assert!(false, "absorbing a fold of another kind"),
        }
    }
}

/// The output form of one evaluated value.
fn out_of(v: EvalValue) -> OutVal {
    match v {
        EvalValue::Oid(o) if o.is_null() => OutVal::Null,
        EvalValue::Oid(o) => OutVal::Oid(o),
        EvalValue::Num(n) => OutVal::Num(n),
        EvalValue::Bool(b) => OutVal::Num(b as i64 as f64),
    }
}

/// Append rows `rows` of a binding table (`cols`, laid out as `ev`'s
/// variables: the query's bindings, or the group keys of an aggregated
/// query, whose row `g` also takes the finished aggregates of group `g`)
/// to `rs`, projected through the select list a chunk of rows at a time and
/// within a chunk item by item — a column sweep or one batch evaluation per
/// item, no per-row variable lookup.
fn project_rows(
    ev: &mut BatchEval,
    select: &[SelectItem],
    cols: &[Vec<Oid>],
    rows: Range<usize>,
    aggs: Option<&[AggVec]>,
    rs: &mut ResultSet,
) {
    let nc = select.len();
    let base = rs.n_rows;
    rs.vals.resize((base + rows.len()) * nc, OutVal::Null);
    rs.n_rows += rows.len();
    for chunk in batches(rows.clone()) {
        // Row-major cells of this chunk; item `c` writes every `nc`-th.
        let at = base + (chunk.start - rows.start);
        let cells = &mut rs.vals[at * nc..(at + chunk.len()) * nc];
        let mut finished = aggs.map(|a| a.iter());
        for (c, item) in select.iter().enumerate() {
            let column = cells.iter_mut().skip(c).step_by(nc);
            let expr = match (item, finished.as_mut()) {
                (SelectItem::Agg { .. }, Some(aggs)) => {
                    if let Some(agg) = aggs.next() {
                        column
                            .zip(chunk.clone())
                            .for_each(|(cell, g)| *cell = agg.finish(g));
                    }
                    continue;
                }
                (SelectItem::Var(v), _) => {
                    // An unbound variable stays NULL.
                    if let Some(ci) = ev.col_of(*v) {
                        for (cell, &o) in column.zip(&cols[ci][chunk.clone()]) {
                            if !o.is_null() {
                                *cell = OutVal::Oid(o);
                            }
                        }
                    }
                    continue;
                }
                (SelectItem::Expr { expr, .. } | SelectItem::Agg { expr, .. }, _) => expr,
            };
            let col = expr.eval_batch(ev, cols, chunk.clone());
            match &col {
                Col::Oid(s) => column
                    .zip(s.iter())
                    .for_each(|(cell, &o)| *cell = out_of(EvalValue::Oid(o))),
                Col::Num(v) => column.zip(v).for_each(|(cell, &n)| *cell = OutVal::Num(n)),
                Col::Bool(v) => column
                    .zip(v)
                    .for_each(|(cell, &b)| *cell = out_of(EvalValue::Bool(b))),
                Col::Const(e) => {
                    let v = out_of(e.clone());
                    column.for_each(|cell| *cell = v.clone());
                }
            }
            ev.recycle(col);
        }
    }
}

/// Apply SELECT / GROUP BY / DISTINCT / ORDER BY / LIMIT to a materialized
/// binding table.
pub fn finalize(cx: &ExecContext, query: &Query, table: &Table) -> ResultSet {
    let select = Finalize::new(query);
    select.finish(cx, select.fold_table(cx, table))
}

/// The DISTINCT / ORDER BY / LIMIT tail of [`finalize`].
fn apply_modifiers(cx: &ExecContext, query: &Query, rs: &mut ResultSet) {
    let nc = rs.columns.len();
    if query.distinct {
        distinct_rows(rs);
    }

    if !rs.is_empty() && !query.order_by.is_empty() {
        let order = TermOrder::of(cx);
        // Where string OIDs do not order by text, decode every string sort
        // key once up front instead of twice per comparison.
        let texts: Vec<Vec<Option<sordf_model::Term>>> = if order.strings_ordered() {
            Vec::new()
        } else {
            query
                .order_by
                .iter()
                .map(|key| {
                    (0..rs.n_rows)
                        .map(|i| match &rs.vals[i * nc + key.output] {
                            OutVal::Oid(o) if !o.is_null() && o.tag() == TypeTag::Str => {
                                order.dict().decode(*o).ok()
                            }
                            _ => None,
                        })
                        .collect()
                })
                .collect()
        };
        let mut idx: Vec<usize> = (0..rs.n_rows).collect();
        idx.sort_by(|&a, &b| {
            for (k, key) in query.order_by.iter().enumerate() {
                let (va, vb) = (&rs.vals[a * nc + key.output], &rs.vals[b * nc + key.output]);
                let ord = match texts.get(k).map(|t| (&t[a], &t[b])) {
                    Some((Some(ta), Some(tb))) => ta.cmp(tb),
                    _ => cmp_outval_in(va, vb, order),
                };
                let ord = if key.ascending { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
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

/// DISTINCT: keep the first occurrence of every row, in order. Rows are
/// found through a hash of their bit patterns and confirmed with `==`, so
/// equality is exactly [`OutVal`]'s (`0.0 == -0.0`, hence hashed alike; a
/// `NaN` equals nothing, so a row holding one is never a duplicate).
fn distinct_rows(rs: &mut ResultSet) {
    let nc = rs.columns.len();
    let hash_of = |row: &[OutVal]| {
        let mut h = FxHasher::default();
        for v in row {
            match v {
                OutVal::Oid(o) => h.write_u64(o.raw()),
                OutVal::Num(n) if *n == 0.0 => h.write_u64(0),
                OutVal::Num(n) => h.write_u64(n.to_bits()),
                OutVal::Null => h.write_u8(2),
            }
        }
        h.finish()
    };
    // Kept rows are compacted to the front of `vals` as they are found, so
    // a kept row's id is its final position.
    let mut kept = RowChains::new(rs.n_rows);
    let mut n_kept = 0usize;
    for i in 0..rs.n_rows {
        let h = hash_of(rs.row(i));
        if kept.candidates(h).any(|k| rs.row(k) == rs.row(i)) {
            continue;
        }
        kept.insert(h, n_kept);
        if n_kept != i {
            for j in 0..nc {
                rs.vals.swap(n_kept * nc + j, i * nc + j);
            }
        }
        n_kept += 1;
    }
    rs.n_rows = n_kept;
    rs.vals.truncate(n_kept * nc);
}

/// The row-at-a-time formulation of [`finalize`] that the batch path
/// replaced, kept as the oracle of the tests below: scalar [`Expr::eval`]
/// per aggregate and row, `Vec<Oid>` group keys, an `OutVal` per value.
#[cfg(test)]
mod reference {
    use super::*;

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
                    let better = best
                        .as_ref()
                        .map_or(true, |b| cmp_outval(&out, b, dict) == Ordering::Less);
                    if better {
                        *best = Some(out);
                    }
                }
                AggState::Max(best) => {
                    let better = best
                        .as_ref()
                        .map_or(true, |b| cmp_outval(&out, b, dict) == Ordering::Greater);
                    if better {
                        *best = Some(out);
                    }
                }
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

    /// [`finalize`](super::finalize) as it was before the batch evaluator: one
    /// pass, one row at a time, one tree walk per aggregate and row.
    pub(super) fn finalize_reference(cx: &ExecContext, query: &Query, table: &Table) -> ResultSet {
        let select = Finalize::new(query).select.into_owned();
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
            let mut states = new_agg_states(&select);
            accumulate_single_group(cx, &select, table, &var_col, 0..table.len(), &mut states);
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
                Expr(&'a Expr),
            }
            let items: Vec<Item> = select
                .iter()
                .map(|s| match s {
                    SelectItem::Var(v) => match var_col.get(v.0 as usize).copied().flatten() {
                        Some(c) => Item::Col(c),
                        None => Item::Missing,
                    },
                    SelectItem::Expr { expr, .. } | SelectItem::Agg { expr, .. } => {
                        Item::Expr(expr)
                    }
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

    /// The DISTINCT / ORDER BY / LIMIT tail: quadratic DISTINCT, a decode per
    /// string comparison.
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
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
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
}

#[cfg(test)]
mod tests {
    use super::reference::finalize_reference;
    use super::*;
    use crate::context::{ExecConfig, StorageRef};
    use crate::expr::tests::{expr_from, term_pool};
    use crate::expr::{ArithOp, CmpOp, BATCH_ROWS};
    use crate::optimizer::optimize;
    use crate::parallel::ParallelConfig;
    use crate::plan::prepare;
    use crate::query::{OrderKey, TriplePattern, VarOrOid};
    use proptest::prelude::*;
    use sordf_columnar::{BufferPool, DiskManager};
    use sordf_rdfh::gen::NS;
    use sordf_storage::{build_clustered, reorganize, ClusterSpec, TripleSet};
    use std::sync::Arc;

    /// Three workers, spans of a few dozen rows: every aggregation merges.
    fn three_workers() -> ParallelConfig {
        ParallelConfig {
            workers: 3,
            min_morsel_pages: 1,
            min_morsel_rows: 40,
        }
    }

    fn ulps_apart(a: f64, b: f64) -> u64 {
        if a == b || (a.is_nan() && b.is_nan()) {
            return 0;
        }
        // Map the bit patterns onto a line where adjacent floats differ by 1.
        let line = |x: f64| {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        line(a).abs_diff(line(b))
    }

    /// Cell-by-cell equality; numbers within `ulps` (0: by bits, NaNs alike).
    fn assert_same(what: &str, got: &ResultSet, want: &ResultSet, ulps: u64) {
        assert_eq!(got.columns, want.columns, "{what}: header");
        assert_eq!(got.len(), want.len(), "{what}: row count");
        for (r, (g, w)) in got.rows().zip(want.rows()).enumerate() {
            for (c, (g, w)) in g.iter().zip(w).enumerate() {
                let same = match (g, w) {
                    (OutVal::Num(x), OutVal::Num(y)) if ulps == 0 => {
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
                    }
                    (OutVal::Num(x), OutVal::Num(y)) => ulps_apart(*x, *y) <= ulps,
                    _ => g == w,
                };
                assert!(same, "{what}: row {r} col {c}: got {g:?}, want {w:?}");
            }
        }
    }

    /// The batch `finalize` against the row-at-a-time oracle: bit-identical
    /// at one worker, SUM/AVG within one ulp when three workers merge spans.
    /// Returns the one-worker result.
    fn check(what: &str, cx: &ExecContext, query: &Query, table: &Table) -> ResultSet {
        let want = finalize_reference(cx, query, table);
        let got = finalize(cx, query, table);
        assert_same(&format!("{what} (1 worker)"), &got, &want, 0);
        let cx3 = ExecContext::new(
            cx.pool,
            cx.dict,
            match &cx.storage {
                StorageRef::Baseline(s) => StorageRef::Baseline(s),
                StorageRef::Clustered { store, schema } => StorageRef::Clustered { store, schema },
            },
            cx.config,
        )
        .with_parallel(three_workers());
        // Within an ulp a sort key can tie differently; order-insensitive
        // queries only (every catalog query orders by distinct keys).
        let got3 = finalize(&cx3, query, table);
        assert_same(&format!("{what} (3 workers)"), &got3, &want, 1);
        got
    }

    // ---- hand-built tables, no storage behind them -------------------------

    struct Synth {
        _dm: Arc<DiskManager>,
        pool: BufferPool,
        store: sordf_storage::BaselineStore,
    }

    fn synth() -> Synth {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = sordf_storage::BaselineStore::build(&dm, &[]);
        let pool = BufferPool::new(Arc::clone(&dm), 16);
        Synth {
            _dm: dm,
            pool,
            store,
        }
    }

    impl Synth {
        fn cx<'a>(&'a self, dict: &'a Dictionary) -> ExecContext<'a> {
            ExecContext::new(
                &self.pool,
                dict,
                StorageRef::Baseline(&self.store),
                ExecConfig::default(),
            )
        }
    }

    fn table_of(n_vars: u16, rows: impl IntoIterator<Item = Vec<Oid>>) -> Table {
        let mut t = Table::empty((0..n_vars).map(VarId).collect());
        for r in rows {
            t.push_row(&r);
        }
        t
    }

    fn agg(func: AggFunc, expr: Expr) -> SelectItem {
        SelectItem::Agg {
            func,
            expr,
            name: format!("{func:?}"),
        }
    }

    fn query_of(n_vars: u16, select: Vec<SelectItem>, group_by: &[u16]) -> Query {
        Query {
            vars: (0..n_vars).map(|v| format!("v{v}")).collect(),
            select,
            group_by: group_by.iter().map(|&v| VarId(v)).collect(),
            ..Query::default()
        }
    }

    fn int(v: i64) -> Oid {
        Oid::from_int(v).unwrap()
    }

    fn var(v: u16) -> Expr {
        Expr::Var(VarId(v))
    }

    fn arith(l: Expr, op: ArithOp, r: Expr) -> Expr {
        Expr::Arith(Box::new(l), op, Box::new(r))
    }

    #[test]
    fn zero_rows_have_no_groups() {
        let (s, dict) = (synth(), Dictionary::new());
        let cx = s.cx(&dict);
        let t = table_of(2, []);
        for group_by in [&[][..], &[0][..]] {
            let q = query_of(2, vec![agg(AggFunc::Count, Expr::Num(1.0))], group_by);
            assert!(check("zero rows", &cx, &q, &t).is_empty());
        }
    }

    #[test]
    fn nulls_non_numerics_and_division() {
        let (s, (dict, _)) = (synth(), term_pool(false));
        let cx = s.cx(&dict);
        let pear = dict.string_oid("pear").unwrap();
        // v0: NULL, a string, numbers of both types; v1: divisors with zeros.
        let t = table_of(
            2,
            [
                vec![Oid::NULL, int(1)],
                vec![pear, int(0)],
                vec![int(4), int(0)],
                vec![Oid::from_decimal_unscaled(25_000).unwrap(), int(2)],
                vec![int(0), int(0)],
            ],
        );
        let q = query_of(
            2,
            vec![
                agg(AggFunc::Sum, var(0)),
                agg(AggFunc::Avg, var(0)),
                agg(AggFunc::Count, var(0)),
                agg(AggFunc::Count, Expr::Num(1.0)),
                agg(AggFunc::Sum, arith(var(0), ArithOp::Div, var(1))),
                agg(AggFunc::Count, arith(var(0), ArithOp::Div, var(1))),
                agg(AggFunc::Min, arith(var(0), ArithOp::Div, var(1))),
            ],
            &[],
        );
        let rs = check("nulls", &cx, &q, &t);
        let n = |v: f64| OutVal::Num(v);
        // SUM counts the string as 0, AVG skips it (3 numbers), COUNT skips
        // only the NULL; 0/0 and pear/0 are errors and skipped, 4/0 is +inf
        // and counted (MIN sees 1.25 and +inf) — the compensated SUM of an
        // infinity is not finite, here as in the oracle.
        let row = rs.row(0);
        assert_eq!(row[..4], [n(6.5), n(6.5 / 3.0), n(4.0), n(5.0)]);
        assert!(matches!(row[4], OutVal::Num(x) if !x.is_finite()));
        assert_eq!(row[5..], [n(2.0), n(1.25)]);
    }

    #[test]
    fn min_max_over_unsorted_strings_and_mixed_terms() {
        let (s, (dict, pool)) = (synth(), term_pool(false));
        let cx = s.cx(&dict);
        let strings =
            ["pear", "apple", "zebra", "fig", "Apple"].map(|t| dict.string_oid(t).unwrap());
        let t = table_of(1, strings.iter().map(|&o| vec![o]));
        let q = query_of(
            1,
            vec![agg(AggFunc::Min, var(0)), agg(AggFunc::Max, var(0))],
            &[],
        );
        let rs = check("strings", &cx, &q, &t);
        // By text, though "pear" has the smallest OID.
        assert_eq!(
            rs.row(0),
            [OutVal::Oid(strings[4]), OutVal::Oid(strings[2])]
        );
        // Equal by value, different terms: the first seen stays.
        let fives = [int(5), Oid::from_decimal_unscaled(50_000).unwrap()];
        for first in [0, 1] {
            let t = table_of(1, [vec![fives[first]], vec![fives[1 - first]]]);
            let rs = check("ties", &cx, &q, &t);
            assert_eq!(
                rs.row(0),
                [OutVal::Oid(fives[first]), OutVal::Oid(fives[first])]
            );
        }
        // Every kind of term at once, in two orders.
        for rev in [false, true] {
            let mut terms = pool.clone();
            if rev {
                terms.reverse();
            }
            check(
                "mixed",
                &cx,
                &q,
                &table_of(1, terms.into_iter().map(|o| vec![o])),
            );
        }
    }

    #[test]
    fn groups_across_chunk_boundaries() {
        let (s, dict) = (synth(), Dictionary::new());
        let cx = s.cx(&dict);
        let select = || {
            vec![
                SelectItem::Var(VarId(0)),
                agg(AggFunc::Sum, var(1)),
                agg(AggFunc::Count, Expr::Num(1.0)),
                SelectItem::Expr {
                    expr: arith(var(0), ArithOp::Mul, Expr::Num(2.0)),
                    name: "twice".into(),
                },
            ]
        };
        let n = 3 * BATCH_ROWS as i64 + 17;
        // One group; more groups than a chunk holds (every row its own, then
        // each seen again); keys first seen only in the last chunk.
        let one = table_of(2, (0..n).map(|i| vec![int(7), int(i)]));
        let many = table_of(2, (0..2 * n).map(|i| vec![int(i % n), int(i)]));
        let late = table_of(
            2,
            (0..n).map(|i| {
                vec![
                    int(if i < 3 * BATCH_ROWS as i64 {
                        i % 5
                    } else {
                        100 + i
                    }),
                    int(i),
                ]
            }),
        );
        for (what, t, groups) in [("one", one, 1), ("many", many, n), ("late", late, 5 + 17)] {
            let q = query_of(2, select(), &[0]);
            assert_eq!(check(what, &cx, &q, &t).len() as i64, groups, "{what}");
        }
        // An unbound GROUP BY variable is a NULL key: one group.
        let q = query_of(3, select(), &[2]);
        assert_eq!(
            check("unbound", &cx, &q, &table_of(2, [vec![int(1), int(2)]])).len(),
            1
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Generated select lists — SUM/AVG/COUNT/MIN/MAX over variables,
        /// constants, nested arithmetic, comparisons, `COUNT(*)`, plain
        /// variables and expressions over the group key — on tables of
        /// mixed-type terms spanning several chunks, with and without GROUP
        /// BY, DISTINCT, ORDER BY and LIMIT.
        #[test]
        fn generated_select_lists(
            codes in proptest::collection::vec(0u32..1000, 8..96),
            cells in proptest::collection::vec(0usize..64, 0..40),
            n_rows in 0usize..(2 * BATCH_ROWS + 300),
            shape in 0u32..64,
        ) {
            let s = synth();
            let (dict, pool) = term_pool(false);
            let cx = s.cx(&dict);
            const N_VARS: u16 = 4; // the table binds 0..3
            // Rows cycle through a short random pattern, so groups repeat.
            let period = cells.len() / 3;
            let t = table_of(3, (0..n_rows.min(period * 4000)).map(|i| {
                (0..3).map(|c| pool[cells[(i % period) * 3 + c] % pool.len()]).collect()
            }));
            let mut codes = codes.iter().copied();
            let group_by: Vec<u16> = match shape % 4 {
                0 => vec![],
                1 => vec![0],
                2 => vec![1, 0],
                _ => vec![2, 3],
            };
            const FUNCS: [AggFunc; 5] =
                [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
            let mut select = Vec::new();
            for i in 0..1 + (shape as usize / 4) % 5 {
                let c = codes.next().unwrap_or(0) as usize;
                select.push(match c % 8 {
                    0 => agg(AggFunc::Count, Expr::Num(1.0)),
                    1 if !group_by.is_empty() => SelectItem::Var(VarId(group_by[0])),
                    2 if !group_by.is_empty() => SelectItem::Expr {
                        expr: arith(var(group_by[0]), ArithOp::Add, Expr::Num(1.0)),
                        name: format!("e{i}"),
                    },
                    _ => agg(FUNCS[c / 8 % 5], expr_from(&mut codes, &pool, N_VARS, 3)),
                });
            }
            if !select.iter().any(|s| matches!(s, SelectItem::Agg { .. })) {
                select.push(agg(AggFunc::Sum, var(1)));
            }
            let mut q = query_of(N_VARS, select, &group_by);
            q.distinct = shape & 16 != 0;
            if shape & 32 != 0 {
                // Order by every output, so that no two rows tie.
                q.order_by = (0..q.select.len())
                    .map(|output| OrderKey { output, ascending: output % 2 == 0 })
                    .collect();
                q.limit = Some(7);
            }
            let want = finalize_reference(&cx, &q, &t);
            assert_same("generated (1 worker)", &finalize(&cx, &q, &t), &want, 0);
            if q.order_by.is_empty() {
                let cx3 = s.cx(&dict).with_parallel(three_workers());
                assert_same("generated (3 workers)", &finalize(&cx3, &q, &t), &want, 1);
            }
        }

        /// Plain projection with DISTINCT / ORDER BY / LIMIT: the hashed
        /// DISTINCT keeps the rows the quadratic one kept, the sort with
        /// strings decoded once orders like the decode-per-comparison sort.
        #[test]
        fn generated_projections(
            codes in proptest::collection::vec(0u32..1000, 4..48),
            cells in proptest::collection::vec(0usize..64, 0..90),
            shape in 0u32..16,
        ) {
            let s = synth();
            let (dict, pool) = term_pool(false);
            let cx = s.cx(&dict);
            let t = table_of(3, cells.chunks_exact(3).cycle().take(cells.len() / 3 * 9).map(|r| {
                r.iter().map(|&c| pool[c % pool.len()]).collect()
            }));
            let mut codes = codes.iter().copied();
            let mut select = vec![SelectItem::Var(VarId(0)), SelectItem::Var(VarId(3))];
            for i in 0..shape % 3 {
                select.push(SelectItem::Expr {
                    expr: expr_from(&mut codes, &pool, 4, 3),
                    name: format!("e{i}"),
                });
            }
            let mut q = query_of(4, select, &[]);
            q.distinct = shape & 4 != 0;
            if shape & 8 != 0 {
                q.order_by = (0..q.select.len())
                    .rev()
                    .map(|output| OrderKey { output, ascending: output % 2 == 1 })
                    .collect();
                q.limit = Some(11);
            }
            // A stable sort over equal keys keeps input order in both.
            assert_same("projection", &finalize(&cx, &q, &t), &finalize_reference(&cx, &q, &t), 0);
        }
    }

    // ---- the RDF-H catalog on the sf 0.001 rig -----------------------------

    struct Rig {
        _dm: Arc<DiskManager>,
        pool: BufferPool,
        dict: Dictionary,
        store: sordf_storage::ClusteredStore,
        schema: sordf_schema::EmergentSchema,
        a_customer: Oid,
        an_order: Oid,
    }

    /// RDF-H at sf 0.001, self-organized the way `Database::self_organize`
    /// does it: discover, renumber, build the dense clustered store.
    fn rdfh_rig() -> Rig {
        rdfh_rig_at(0.001)
    }

    fn rdfh_rig_at(sf: f64) -> Rig {
        let data = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(sf));
        let mut ts = TripleSet::new();
        ts.extend_terms(&data.triples).unwrap();
        let mut schema = sordf_schema::discover(
            &ts.sorted_spo(),
            &ts.dict,
            &sordf_schema::SchemaConfig::default(),
        );
        let spec = ClusterSpec::auto(&schema);
        reorganize(&mut ts, &mut schema, &spec);
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = build_clustered(&dm, &ts.sorted_spo(), &mut schema, &spec, true);
        let subject_with = |p: &str| {
            let p = ts.dict.iri_oid(&format!("{NS}{p}")).unwrap();
            ts.triples.iter().find(|t| t.p == p).unwrap().s
        };
        Rig {
            pool: BufferPool::new(Arc::clone(&dm), 1024),
            _dm: dm,
            a_customer: subject_with("customer_name"),
            an_order: subject_with("order_orderdate"),
            dict: ts.dict,
            store,
            schema,
        }
    }

    /// A query under construction: `bgp` takes `?s predicate ?o` lines, an
    /// object being a variable, a `"string"` or `<a>` / `<o>` for the rig's
    /// sample customer / order (so does a subject).
    struct Build<'a> {
        rig: &'a Rig,
        q: Query,
    }

    impl Build<'_> {
        fn term(&mut self, t: &str) -> VarOrOid {
            match (t.strip_prefix('?'), t) {
                (Some(name), _) => VarOrOid::Var(self.q.var(name)),
                (_, "<a>") => VarOrOid::Const(self.rig.a_customer),
                (_, "<o>") => VarOrOid::Const(self.rig.an_order),
                // A string the scale did not generate matches nothing.
                _ => VarOrOid::Const(
                    self.rig
                        .dict
                        .string_oid(t.trim_matches('"'))
                        .unwrap_or(Oid::string(sordf_model::oid::PAYLOAD_MASK)),
                ),
            }
        }

        fn bgp(mut self, lines: &str) -> Self {
            for line in lines.lines().map(str::trim).filter(|l| !l.is_empty()) {
                let mut parts = line.splitn(3, ' ');
                let (s, p, o) = (
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                    parts.next().unwrap(),
                );
                let p = self.rig.dict.iri_oid(&format!("{NS}{p}")).unwrap();
                let (s, o) = (self.term(s), self.term(o));
                self.q.patterns.push(TriplePattern { s, p, o });
            }
            self
        }

        fn v(&mut self, name: &str) -> Expr {
            Expr::Var(self.q.var(name))
        }

        /// `?var OP "yyyy-mm-dd"^^xsd:date`
        fn date_filter(mut self, name: &str, op: CmpOp, date: &str) -> Self {
            let days = sordf_model::date::parse_date(date).unwrap();
            let c = Expr::Const(Oid::from_date_days(days).unwrap());
            let f = Expr::cmp(self.v(name), op, c);
            self.q.filters.push(f);
            self
        }

        /// `?var OP number` — a bare numeric bound (RDF-H Q6).
        fn num_filter(mut self, name: &str, op: CmpOp, n: f64) -> Self {
            let f = Expr::cmp(self.v(name), op, Expr::Num(n));
            self.q.filters.push(f);
            self
        }

        fn select_var(mut self, name: &str) -> Self {
            let v = self.q.var(name);
            self.q.select.push(SelectItem::Var(v));
            self
        }

        fn select_agg(mut self, func: AggFunc, expr: impl FnOnce(&mut Self) -> Expr) -> Self {
            let expr = expr(&mut self);
            let name = format!("a{}", self.q.select.len());
            self.q.select.push(SelectItem::Agg { func, expr, name });
            self
        }

        fn group_by(mut self, names: &[&str]) -> Self {
            self.q.group_by = names.iter().map(|n| self.q.var(n)).collect();
            self
        }

        fn order_by(mut self, keys: &[(usize, bool)], limit: Option<usize>) -> Self {
            self.q.order_by = keys
                .iter()
                .map(|&(output, ascending)| OrderKey { output, ascending })
                .collect();
            self.q.limit = limit;
            self
        }

        /// `?extendedprice * (1 - ?discount)`
        fn disc_price(&mut self) -> Expr {
            let one_minus = arith(Expr::Num(1.0), ArithOp::Sub, self.v("discount"));
            arith(self.v("extendedprice"), ArithOp::Mul, one_minus)
        }
    }

    /// The six RDF-H queries and the benchmark catalog's other shapes
    /// (`crates/bench/src/bin/benchmark/src/catalog.rs`), as the SPARQL
    /// frontend builds them.
    fn catalog(rig: &Rig) -> Vec<(&'static str, Query)> {
        let new = || Build {
            rig,
            q: Query::default(),
        };
        let lineitem_star = |props: &[&str]| -> String {
            props
                .iter()
                .map(|p| format!("?s lineitem_{p} ?o_{p}\n"))
                .collect()
        };
        let six = [
            "quantity",
            "extendedprice",
            "discount",
            "tax",
            "shipmode",
            "returnflag",
        ];
        let q6_window = |from, to| {
            new()
                .bgp(
                    "?li lineitem_shipdate ?d
                     ?li lineitem_extendedprice ?price
                     ?li lineitem_discount ?disc",
                )
                .date_filter("d", CmpOp::Ge, from)
                .date_filter("d", CmpOp::Lt, to)
                .select_agg(AggFunc::Sum, |b| {
                    arith(b.v("price"), ArithOp::Mul, b.v("disc"))
                })
                .q
        };
        vec![
            (
                "Q1",
                new()
                    .bgp(
                        "?li lineitem_returnflag ?returnflag
                         ?li lineitem_linestatus ?linestatus
                         ?li lineitem_quantity ?quantity
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount
                         ?li lineitem_tax ?tax
                         ?li lineitem_shipdate ?shipdate",
                    )
                    .date_filter("shipdate", CmpOp::Le, "1998-09-02")
                    .select_var("returnflag")
                    .select_var("linestatus")
                    .select_agg(AggFunc::Sum, |b| b.v("quantity"))
                    .select_agg(AggFunc::Sum, |b| b.v("extendedprice"))
                    .select_agg(AggFunc::Sum, |b| b.disc_price())
                    .select_agg(AggFunc::Sum, |b| {
                        let one_plus = arith(Expr::Num(1.0), ArithOp::Add, b.v("tax"));
                        arith(b.disc_price(), ArithOp::Mul, one_plus)
                    })
                    .select_agg(AggFunc::Avg, |b| b.v("quantity"))
                    .select_agg(AggFunc::Count, |_| Expr::Num(1.0))
                    .group_by(&["returnflag", "linestatus"])
                    .order_by(&[(0, true), (1, true)], None)
                    .q,
            ),
            (
                "Q3",
                new()
                    .bgp(
                        "?c customer_mktsegment \"BUILDING\"
                         ?o order_custkey ?c
                         ?o order_orderdate ?orderdate
                         ?o order_shippriority ?shippriority
                         ?li lineitem_orderkey ?o
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount
                         ?li lineitem_shipdate ?shipdate",
                    )
                    .date_filter("orderdate", CmpOp::Lt, "1995-03-15")
                    .date_filter("shipdate", CmpOp::Gt, "1995-03-15")
                    .select_var("o")
                    .select_agg(AggFunc::Sum, |b| b.disc_price())
                    .select_var("orderdate")
                    .select_var("shippriority")
                    .group_by(&["o", "orderdate", "shippriority"])
                    .order_by(&[(1, false), (2, true)], Some(10))
                    .q,
            ),
            (
                "Q5",
                new()
                    .bgp(
                        "?c customer_nationkey ?n
                         ?n nation_name ?nname
                         ?o order_custkey ?c
                         ?o order_orderdate ?orderdate
                         ?li lineitem_orderkey ?o
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount",
                    )
                    .date_filter("orderdate", CmpOp::Ge, "1994-01-01")
                    .date_filter("orderdate", CmpOp::Lt, "1995-01-01")
                    .select_var("nname")
                    .select_agg(AggFunc::Sum, |b| b.disc_price())
                    .group_by(&["nname"])
                    .order_by(&[(1, false)], None)
                    .q,
            ),
            (
                "Q6",
                new()
                    .bgp(
                        "?li lineitem_shipdate ?shipdate
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount
                         ?li lineitem_quantity ?quantity",
                    )
                    .date_filter("shipdate", CmpOp::Ge, "1994-01-01")
                    .date_filter("shipdate", CmpOp::Lt, "1995-01-01")
                    .num_filter("discount", CmpOp::Ge, 0.05)
                    .num_filter("discount", CmpOp::Le, 0.07)
                    .num_filter("quantity", CmpOp::Lt, 24.0)
                    .select_agg(AggFunc::Sum, |b| {
                        arith(b.v("extendedprice"), ArithOp::Mul, b.v("discount"))
                    })
                    .q,
            ),
            (
                "Q10",
                new()
                    .bgp(
                        "?c customer_name ?cname
                         ?o order_custkey ?c
                         ?o order_orderdate ?orderdate
                         ?li lineitem_orderkey ?o
                         ?li lineitem_returnflag \"R\"
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount",
                    )
                    .date_filter("orderdate", CmpOp::Ge, "1993-10-01")
                    .date_filter("orderdate", CmpOp::Lt, "1994-01-01")
                    .select_var("c")
                    .select_var("cname")
                    .select_agg(AggFunc::Sum, |b| b.disc_price())
                    .group_by(&["c", "cname"])
                    .order_by(&[(2, false)], Some(20))
                    .q,
            ),
            (
                "Q14",
                new()
                    .bgp(
                        "?li lineitem_partkey ?p
                         ?li lineitem_extendedprice ?extendedprice
                         ?li lineitem_discount ?discount
                         ?li lineitem_shipdate ?shipdate
                         ?p part_type \"PROMO BURNISHED NICKEL\"",
                    )
                    .date_filter("shipdate", CmpOp::Ge, "1995-09-01")
                    .date_filter("shipdate", CmpOp::Lt, "1995-10-01")
                    .select_agg(AggFunc::Sum, |b| b.disc_price())
                    .select_agg(AggFunc::Count, |_| Expr::Num(1.0))
                    .q,
            ),
            (
                "starjoin6",
                new().bgp(&lineitem_star(&six)).select_var("s").q,
            ),
            (
                "starjoin4_sparse",
                new().bgp(&lineitem_star(&six[..4])).select_var("s").q,
            ),
            ("q6_36mo", q6_window("1994-01-01", "1997-01-01")),
            ("q6_3mo", q6_window("1995-04-01", "1995-07-01")),
            (
                "cust_lookup",
                new()
                    .bgp("<a> customer_name ?name\n<a> customer_mktsegment ?segment")
                    .select_var("name")
                    .select_var("segment")
                    .q,
            ),
            (
                "order_items",
                new()
                    .bgp(
                        "?li lineitem_orderkey <o>
                         ?li lineitem_quantity ?quantity
                         ?li lineitem_extendedprice ?price",
                    )
                    .select_var("li")
                    .select_var("quantity")
                    .select_var("price")
                    .q,
            ),
            (
                "cust_names",
                new().bgp("?c customer_name ?n").select_var("n").q,
            ),
            // A star nothing reads a column of: rows without bindings.
            (
                "count_only",
                new()
                    .bgp(&lineitem_star(&six))
                    .select_agg(AggFunc::Count, |_| Expr::Num(1.0))
                    .q,
            ),
            // The subject read, a range pushed exactly: the restricted
            // column is decided by its zone maps wherever a page lies inside.
            (
                "shipped_since",
                new()
                    .bgp("?li lineitem_shipdate ?d\n?li lineitem_quantity ?quantity")
                    .date_filter("d", CmpOp::Ge, "1995-01-01")
                    .select_var("li")
                    .q,
            ),
        ]
    }

    #[test]
    fn rdfh_catalog_matches_reference() {
        let rig = rdfh_rig();
        let cx = ExecContext::new(
            &rig.pool,
            &rig.dict,
            StorageRef::Clustered {
                store: &rig.store,
                schema: &rig.schema,
            },
            ExecConfig::default(),
        );
        assert!(
            cx.strings_value_ordered(),
            "the rig's string pool is sorted"
        );
        for (name, query) in catalog(&rig) {
            let (q, lp) = prepare(&query);
            let pp = optimize(&cx, &lp);
            let reads = crate::plan::step_reads(&Finalize::new(&q).reads(), &lp, &pp);
            let table = crate::planner::run_steps(&cx, &lp, &pp, &reads, None);
            let rs = check(name, &cx, &q, &table);
            // The plan as it executes — a single star streams its pages into
            // the fold, never holding `table` — answers the same: by bits at
            // one worker, within one ulp when three workers' folds merge.
            let streamed = crate::planner::execute_physical(&cx, &q, &lp, &pp, None);
            assert_same(&format!("{name} (executed)"), &streamed, &rs, 0);
            let cx3 = ExecContext::new(
                &rig.pool,
                &rig.dict,
                StorageRef::Clustered {
                    store: &rig.store,
                    schema: &rig.schema,
                },
                ExecConfig::default(),
            )
            .with_parallel(three_workers());
            let streamed3 = crate::planner::execute_physical(&cx3, &q, &lp, &pp, None);
            assert_same(&format!("{name} (executed, 3 workers)"), &streamed3, &rs, 1);
            // Every shape but the promo type (absent at this scale) answers.
            assert_eq!(rs.is_empty(), table.is_empty(), "{name}");
            assert!(!table.is_empty() || name == "Q14", "{name} binds rows");
        }
    }

    /// The streamed last step still polls the token per page: a sink that
    /// cancels the query when it is handed its first page stops the scan
    /// before a second page is pinned.
    #[test]
    fn streamed_scan_stops_within_a_page_of_cancellation() {
        use crate::cancel::{interrupted, CancellationToken, StopReason};
        use crate::parallel::eval_star_into;
        use crate::plan::StarAccess;
        use crate::star::StarCall;

        struct CancelAtFirstPage(Table, CancellationToken);
        impl StarSink for CancelAtFirstPage {
            fn buffer(&mut self) -> &mut Table {
                &mut self.0
            }
            fn flush(&mut self, _: &ExecContext) {
                self.1.cancel();
            }
            fn absorb(&mut self, _: Self) {}
        }

        // Three pages of lineitems.
        let rig = rdfh_rig_at(0.003);
        let token = CancellationToken::new();
        let cx = ExecContext::new(
            &rig.pool,
            &rig.dict,
            StorageRef::Clustered {
                store: &rig.store,
                schema: &rig.schema,
            },
            ExecConfig::default(),
        )
        .with_cancel(Some(token.clone()));
        let query = Build {
            rig: &rig,
            q: Query::default(),
        }
        .bgp("?li lineitem_quantity ?quantity\n?li lineitem_discount ?discount")
        .q;
        let (_, lp) = prepare(&query);
        let call = StarCall::new(&cx, &lp.stars[0], &[], Some(&[]));
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eval_star_into(&cx, &call, StarAccess::RdfScan, None, None, || {
                CancelAtFirstPage(Table::empty(Vec::new()), token.clone())
            });
        }))
        .unwrap_err();
        assert_eq!(interrupted(stopped.as_ref()), Some(StopReason::Cancelled));
        let stats = cx.stats.snapshot();
        assert_eq!(stats.pages_scanned, 1, "one page was covered");
        assert_eq!(
            stats.column_pages_skipped, 2,
            "and neither column of it read"
        );
    }
}
