//! Value-at-a-time reference implementations of the hot scan paths.
//!
//! This module preserves the pre-vectorization execution strategy — every
//! stored value is fetched through [`Column::value`] (one buffer-pool
//! request per value) and binary searches probe the pool per comparison. It
//! is the differential oracle: the vectorized operators in [`crate::scan`]
//! and [`crate::star`] must return byte-identical tables to these originals
//! on arbitrary data (see the engine's proptest suite). It never consults a
//! zone map — a sound prune cannot change an answer, so the oracle reads
//! every row and the kernels' pruning is checked against it.
//!
//! The executor reaches this module only through
//! [`crate::context::ExecConfig::rowwise`]; it is reference code, kept
//! deliberately row-at-a-time. Do not "optimize" it.

use crate::context::{ExecContext, ExecStats, StorageRef};
use crate::expr::Expr;
use crate::scan::{ORestrict, SRange, Source};
use crate::star::{
    effective_subject_range, emit_combinations, extend_from_sorted, intersect_ranges,
    prop_restrict, residual_filters, sort_key_narrows, subject_filter_range, Covered, Emit, Star,
};
use crate::table::Table;
use sordf_columnar::{BufferPool, Column};
use sordf_model::{Oid, Triple};
use sordf_storage::clustered::SubjectIds;
use sordf_storage::{BaselineStore, ClassSegment, Order, PermIndex};
use std::ops::Range;

/// Row-at-a-time partition point: one pool request per probed value.
fn pp_rowwise(
    col: &Column,
    pool: &BufferPool,
    range: Range<usize>,
    pred: impl Fn(u64) -> bool,
) -> usize {
    let (mut lo, mut hi) = (range.start, range.end.min(col.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(col.value(pool, mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn lower_bound_rw(col: &Column, pool: &BufferPool, range: Range<usize>, v: u64) -> usize {
    pp_rowwise(col, pool, range, |x| x < v)
}

fn upper_bound_rw(col: &Column, pool: &BufferPool, range: Range<usize>, v: u64) -> usize {
    pp_rowwise(col, pool, range, |x| x <= v)
}

/// Rows of a permutation index with key0 == `a`.
fn range1_rw(idx: &PermIndex, pool: &BufferPool, a: Oid) -> Range<usize> {
    let full = 0..idx.len();
    lower_bound_rw(idx.col(0), pool, full.clone(), a.raw())
        ..upper_bound_rw(idx.col(0), pool, full, a.raw())
}

fn range2_rw(idx: &PermIndex, pool: &BufferPool, a: Oid, b: Oid) -> Range<usize> {
    let r = range1_rw(idx, pool, a);
    lower_bound_rw(idx.col(1), pool, r.clone(), b.raw())
        ..upper_bound_rw(idx.col(1), pool, r, b.raw())
}

fn range2_between_rw(idx: &PermIndex, pool: &BufferPool, a: Oid, lo: Oid, hi: Oid) -> Range<usize> {
    let r = range1_rw(idx, pool, a);
    let start = lower_bound_rw(idx.col(1), pool, r.clone(), lo.raw());
    let end = upper_bound_rw(idx.col(1), pool, r, hi.raw());
    start..end.max(start)
}

/// Materialize `(key1, key2)` pairs one value at a time.
fn pairs_rw(idx: &PermIndex, pool: &BufferPool, range: Range<usize>) -> Vec<(Oid, Oid)> {
    range
        .map(|i| {
            (
                Oid::from_raw(idx.col(1).value(pool, i)),
                Oid::from_raw(idx.col(2).value(pool, i)),
            )
        })
        .collect()
}

fn subject_at_rw(seg: &ClassSegment, pool: &BufferPool, row: usize) -> Oid {
    match &seg.subjects {
        SubjectIds::Dense { base } => Oid::iri(base + row as u64),
        SubjectIds::Sparse { subjects } => Oid::from_raw(subjects.value(pool, row)),
    }
}

fn row_of_rw(seg: &ClassSegment, pool: &BufferPool, s: Oid) -> Option<usize> {
    if !s.is_iri() {
        return None;
    }
    match &seg.subjects {
        SubjectIds::Dense { base } => {
            let p = s.payload();
            (p >= *base && p < base + seg.n as u64).then(|| (p - *base) as usize)
        }
        SubjectIds::Sparse { subjects } => {
            let i = lower_bound_rw(subjects, pool, 0..subjects.len(), s.raw());
            (i < seg.n && subjects.value(pool, i) == s.raw()).then_some(i)
        }
    }
}

/// Value-at-a-time [`crate::scan::scan_property`].
pub fn scan_property_rowwise(
    cx: &ExecContext,
    p: Oid,
    restrict: &ORestrict,
    s_range: SRange,
    source: Source,
) -> Vec<(Oid, Oid)> {
    // Per-scan cancellation poll: the rowwise executor is the differential
    // oracle, but timeout tests drive it too.
    cx.check_cancelled();
    ExecStats::bump(&cx.stats.property_scans, 1);
    let mut out = match (&cx.storage, source) {
        (StorageRef::Baseline(store), _) => scan_baseline_rw(cx, store, p, restrict, s_range),
        (StorageRef::Clustered { store, .. }, Source::IrregularOnly) => {
            scan_baseline_rw(cx, &store.irregular, p, restrict, s_range)
        }
        (StorageRef::Clustered { store, schema }, Source::Full) => {
            let mut pairs = Vec::new();
            for (class, coli) in schema.classes_with_column(p) {
                scan_segment_column_rw(
                    cx,
                    store.segment(class),
                    coli,
                    restrict,
                    s_range,
                    &mut pairs,
                );
            }
            for (class, mi) in schema.classes_with_multi(p) {
                scan_multi_table_rw(cx, store.segment(class), mi, restrict, s_range, &mut pairs);
            }
            pairs.extend(scan_baseline_rw(cx, &store.irregular, p, restrict, s_range));
            pairs
        }
    };
    // Same merged-source contract as the vectorized scan: tombstones filter
    // base pairs, visible delta inserts are unioned in.
    crate::scan::apply_delta_pairs(cx, p, restrict, s_range, &mut out);
    out.sort_unstable();
    ExecStats::bump(&cx.stats.rows_scanned, out.len() as u64);
    out
}

fn scan_baseline_rw(
    cx: &ExecContext,
    store: &BaselineStore,
    p: Oid,
    restrict: &ORestrict,
    s_range: SRange,
) -> Vec<(Oid, Oid)> {
    let pool = cx.pool;
    if let Some(eq) = restrict.eq {
        let idx = store.perm(Order::Pos);
        let mut r = range2_rw(idx, pool, p, eq);
        if let Some((lo, hi)) = s_range {
            let start = lower_bound_rw(idx.col(2), pool, r.clone(), lo);
            let end = upper_bound_rw(idx.col(2), pool, r.clone(), hi);
            r = start..end.max(start);
        }
        return r
            .map(|i| (Oid::from_raw(idx.col(2).value(pool, i)), eq))
            .collect();
    }
    if restrict.range.is_some() {
        let idx = store.perm(Order::Pos);
        return restrict
            .spans()
            .flat_map(|(lo, hi)| {
                range2_between_rw(idx, pool, p, Oid::from_raw(lo), Oid::from_raw(hi))
            })
            .map(|i| {
                (
                    Oid::from_raw(idx.col(2).value(pool, i)),
                    Oid::from_raw(idx.col(1).value(pool, i)),
                )
            })
            .filter(|&(s, _)| s_range.map_or(true, |(lo, hi)| s.raw() >= lo && s.raw() <= hi))
            .collect();
    }
    let idx = store.perm(Order::Pso);
    let mut r = range1_rw(idx, pool, p);
    if let Some((lo, hi)) = s_range {
        let start = lower_bound_rw(idx.col(1), pool, r.clone(), lo);
        let end = upper_bound_rw(idx.col(1), pool, r.clone(), hi);
        r = start..end.max(start);
    }
    pairs_rw(idx, pool, r)
}

fn scan_segment_column_rw(
    cx: &ExecContext,
    seg: &ClassSegment,
    coli: usize,
    restrict: &ORestrict,
    s_range: SRange,
    out: &mut Vec<(Oid, Oid)>,
) {
    let pool = cx.pool;
    let col = &seg.columns[coli];
    let mut rows = 0..seg.n;
    if let Some((lo, hi)) = s_range {
        match &seg.subjects {
            SubjectIds::Dense { base } => {
                let lo_oid = Oid::from_raw(lo);
                let hi_oid = Oid::from_raw(hi);
                if hi_oid < Oid::iri(0) || lo_oid > Oid::iri(sordf_model::oid::PAYLOAD_MASK) {
                    return;
                }
                let lo_p = if lo_oid < Oid::iri(0) {
                    0
                } else {
                    lo_oid.payload()
                }
                .max(*base);
                let hi_p = if hi_oid > Oid::iri(sordf_model::oid::PAYLOAD_MASK) {
                    sordf_model::oid::PAYLOAD_MASK
                } else {
                    hi_oid.payload()
                }
                .min(base + seg.n as u64 - 1);
                if lo_p > hi_p {
                    return;
                }
                rows = (lo_p - base) as usize..(hi_p - base + 1) as usize;
            }
            SubjectIds::Sparse { subjects } => {
                let start = lower_bound_rw(subjects, pool, 0..subjects.len(), lo);
                let end = upper_bound_rw(subjects, pool, 0..subjects.len(), hi);
                if start >= end {
                    return;
                }
                rows = start..end;
            }
        }
    }
    let (olo, ohi) = restrict.bounds();
    if !restrict.is_none() && seg.sorted_by == Some(coli) {
        let r = lower_bound_rw(col, pool, 0..col.len(), olo)
            ..upper_bound_rw(col, pool, 0..col.len(), ohi);
        rows = rows.start.max(r.start)..rows.end.min(r.end);
    }
    for row in rows {
        let v = col.value(pool, row);
        if v != sordf_columnar::column::NULL_SENTINEL && restrict.accepts(v) {
            out.push((subject_at_rw(seg, pool, row), Oid::from_raw(v)));
        }
    }
}

fn scan_multi_table_rw(
    cx: &ExecContext,
    seg: &ClassSegment,
    mi: usize,
    restrict: &ORestrict,
    s_range: SRange,
    out: &mut Vec<(Oid, Oid)>,
) {
    let pool = cx.pool;
    let table = &seg.multi[mi];
    let mut rows = 0..table.s.len();
    if let Some((lo, hi)) = s_range {
        let start = lower_bound_rw(&table.s, pool, 0..table.s.len(), lo);
        let end = upper_bound_rw(&table.s, pool, 0..table.s.len(), hi);
        rows = start..end.max(start);
    }
    for i in rows {
        let o = table.o.value(pool, i);
        if restrict.accepts(o) {
            out.push((Oid::from_raw(table.s.value(pool, i)), Oid::from_raw(o)));
        }
    }
}

/// Value-at-a-time star evaluator dispatching on the physical plan's
/// chosen access path — the rowwise counterpart of
/// [`crate::parallel::eval_star`], which calls it when
/// [`crate::context::ExecConfig::rowwise`] is set.
pub fn eval_star_rowwise(
    cx: &ExecContext,
    star: &Star,
    access: crate::plan::StarAccess,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
) -> Table {
    cx.check_cancelled();
    match access {
        crate::plan::StarAccess::PropMerge => {
            eval_star_default_rowwise(cx, star, filters, candidates, s_range, Source::Full)
        }
        crate::plan::StarAccess::RdfScan => {
            eval_star_rdfscan_rowwise(cx, star, filters, candidates, s_range)
        }
    }
}

/// Value-at-a-time IdxScan+MergeJoin star.
pub fn eval_star_default_rowwise(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
    source: Source,
) -> Table {
    let s_range = intersect_ranges(subject_filter_range(star, filters), s_range);
    let s_range = match star.subject_const {
        Some(c) => intersect_ranges(Some((c.raw(), c.raw())), s_range),
        None => s_range,
    };

    let mut streams: Vec<(usize, Vec<(Oid, Oid)>)> = star
        .props
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let restrict = prop_restrict(cx, p, filters);
            let mut pairs = scan_property_rowwise(cx, p.pred, &restrict, s_range, source);
            if let Some(c) = candidates {
                pairs = crate::join::semi_join_pairs(&pairs, c);
            }
            (i, pairs)
        })
        .collect();
    streams.sort_by_key(|(_, s)| s.len());
    if streams[0].1.is_empty() {
        return Table::empty(star.bound_vars());
    }

    let mut vars = vec![star.subject_var];
    let (first_idx, first) = &streams[0];
    let first_is_var = matches!(star.props[*first_idx].o, crate::query::VarOrOid::Var(_));
    if let crate::query::VarOrOid::Var(v) = star.props[*first_idx].o {
        vars.push(v);
    }
    let mut table = Table::empty(vars);
    for &(s, o) in first {
        if first_is_var {
            table.push_row(&[s, o]);
        } else {
            table.push_row(&[s]);
        }
    }
    table.sorted_by = Some(0);

    for (idx, pairs) in streams.iter().skip(1) {
        match star.props[*idx].o {
            crate::query::VarOrOid::Var(v) => {
                table = crate::join::merge_join_pairs(cx, &table, 0, pairs, v);
            }
            crate::query::VarOrOid::Const(_) => {
                ExecStats::bump(&cx.stats.merge_joins, 1);
                let subjects: Vec<Oid> = pairs.iter().map(|&(s, _)| s).collect();
                let key = table.cols[0].clone();
                let mask: Vec<bool> = key
                    .iter()
                    .map(|s| subjects.binary_search(s).is_ok())
                    .collect();
                table.retain_rows(&mask);
            }
        }
        if table.is_empty() {
            break;
        }
    }
    let residual = residual_filters(cx, star, filters);
    crate::star::apply_filters(cx, &mut table, &residual);
    crate::star::canonical_layout(star, table)
}

/// Value-at-a-time RDFscan / RDFjoin star.
pub fn eval_star_rdfscan_rowwise(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
) -> Table {
    let StorageRef::Clustered { store, schema } = &cx.storage else {
        return eval_star_default_rowwise(cx, star, filters, candidates, s_range, Source::Full);
    };
    let s_range = intersect_ranges(subject_filter_range(star, filters), s_range);

    let out_vars = star.bound_vars();
    let mut result = Table::empty(out_vars.clone());

    let mut covering_classes: Vec<bool> = vec![false; schema.classes.len()];
    for class in &schema.classes {
        let covered: Vec<Covered> = star
            .props
            .iter()
            .map(|p| {
                if let Some(i) = class.column_of(p.pred) {
                    Covered::Col(i)
                } else if let Some(i) = class.multi_of(p.pred) {
                    Covered::Multi(i)
                } else {
                    Covered::Uncovered
                }
            })
            .collect();
        let n_covered = covered
            .iter()
            .filter(|c| !matches!(c, Covered::Uncovered))
            .count();
        if n_covered == 0 {
            continue;
        }
        covering_classes[class.id.0 as usize] = true;
        let seg = store.segment(class.id);
        if seg.n == 0 {
            continue;
        }
        let t = scan_class_star_rw(cx, star, filters, candidates, s_range, seg, &covered);
        if !t.is_empty() {
            result.append(t);
        }
    }

    let mut irr = eval_star_default_rowwise(
        cx,
        star,
        filters,
        candidates,
        s_range,
        Source::IrregularOnly,
    );
    if !irr.is_empty() {
        // sordf-lint: allow(L3) — every irregular star table carries the star's subject var.
        let sc = irr.col_of(star.subject_var).expect("subject col");
        let mask: Vec<bool> = irr.cols[sc]
            .iter()
            .map(|&s| {
                schema
                    .class_of(s)
                    .map_or(true, |cid| !covering_classes[cid.0 as usize])
            })
            .collect();
        irr.retain_rows(&mask);
        if !irr.is_empty() {
            result.append(irr.project(&out_vars));
        }
    }
    result
}

/// Value-at-a-time RDFscan over one class segment (pre-vectorization code:
/// row-id materialization, per-row `Column::value` fetches, per-row
/// `subject_at`).
fn scan_class_star_rw(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
    seg: &ClassSegment,
    covered: &[Covered],
) -> Table {
    let pool = cx.pool;
    if candidates.is_some() {
        ExecStats::bump(&cx.stats.rdf_joins, 1);
    } else {
        ExecStats::bump(&cx.stats.rdf_scans, 1);
    }

    let rows: Vec<usize> = match candidates {
        Some(cands) => {
            let mut rows: Vec<usize> = cands
                .iter()
                .filter(|&&s| s_range.map_or(true, |(lo, hi)| s.raw() >= lo && s.raw() <= hi))
                .filter_map(|&s| row_of_rw(seg, pool, s))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        }
        None => {
            let mut range = 0..seg.n;
            if let Some((lo, hi)) = effective_subject_range(star, s_range) {
                match &seg.subjects {
                    SubjectIds::Dense { base } => {
                        let lo_p = Oid::from_raw(lo).payload().max(*base);
                        let hi_p = Oid::from_raw(hi).payload().min(base + seg.n as u64 - 1);
                        if lo_p > hi_p {
                            return Table::empty(star.bound_vars());
                        }
                        range = (lo_p - base) as usize..(hi_p - base + 1) as usize;
                    }
                    SubjectIds::Sparse { subjects } => {
                        let start = lower_bound_rw(subjects, pool, 0..subjects.len(), lo);
                        let end = upper_bound_rw(subjects, pool, 0..subjects.len(), hi);
                        range = start..end.max(start);
                    }
                }
            }
            for (pi, cov) in covered.iter().enumerate() {
                let Covered::Col(ci) = cov else { continue };
                if seg.sorted_by != Some(*ci) {
                    continue;
                }
                let restrict = prop_restrict(cx, &star.props[pi], filters);
                // Pending inserts and base exceptions on this segment's
                // subjects forbid narrowing on stored values (see
                // `star::sort_key_narrows`).
                if restrict.is_none() || !sort_key_narrows(cx, star.props[pi].pred, seg) {
                    continue;
                }
                let (lo, hi) = restrict.bounds();
                let col = &seg.columns[*ci];
                let r = lower_bound_rw(col, pool, 0..col.len(), lo)
                    ..upper_bound_rw(col, pool, 0..col.len(), hi);
                range = range.start.max(r.start)..range.end.min(r.end);
            }
            if range.start >= range.end {
                return Table::empty(star.bound_vars());
            }
            range.collect()
        }
    };
    if rows.is_empty() {
        return Table::empty(star.bound_vars());
    }
    ExecStats::bump(&cx.stats.rows_scanned, rows.len() as u64);

    let (s_lo, s_hi) = (
        subject_at_rw(seg, pool, rows[0]).raw(),
        // sordf-lint: allow(L3) — callers pass a non-empty candidate row list (rows[0] read above).
        subject_at_rw(seg, pool, *rows.last().unwrap()).raw(),
    );

    enum Access {
        Col {
            vals: Vec<u64>,
            exceptions: Vec<(Oid, Oid)>,
            restrict: ORestrict,
        },
        Multi {
            pairs: Vec<(Oid, Oid)>,
            exceptions: Vec<(Oid, Oid)>,
        },
        Irr {
            pairs: Vec<(Oid, Oid)>,
        },
    }

    let accesses: Vec<Access> = star
        .props
        .iter()
        .zip(covered)
        .map(|(prop, cov)| {
            let restrict = prop_restrict(cx, prop, filters);
            let irr = || {
                scan_property_rowwise(
                    cx,
                    prop.pred,
                    &restrict,
                    Some((s_lo, s_hi)),
                    Source::IrregularOnly,
                )
            };
            match cov {
                Covered::Col(ci) => {
                    // Row-at-a-time gather: one pool request per row.
                    let mut vals: Vec<u64> = rows
                        .iter()
                        .map(|&r| seg.columns[*ci].value(pool, r))
                        .collect();
                    // Tombstoned column values behave exactly like NULLs.
                    if let Some(d) = cx.delta() {
                        if !d.tombstones_for(prop.pred, None).is_empty() {
                            for (ri, &row) in rows.iter().enumerate() {
                                let v = vals[ri];
                                if v != sordf_columnar::column::NULL_SENTINEL
                                    && d.is_deleted(Triple::new(
                                        subject_at_rw(seg, pool, row),
                                        prop.pred,
                                        Oid::from_raw(v),
                                    ))
                                {
                                    vals[ri] = sordf_columnar::column::NULL_SENTINEL;
                                }
                            }
                        }
                    }
                    Access::Col {
                        vals,
                        exceptions: irr(),
                        restrict,
                    }
                }
                Covered::Multi(mi) => {
                    let table = &seg.multi[*mi];
                    let lo = lower_bound_rw(&table.s, pool, 0..table.s.len(), s_lo);
                    let hi = upper_bound_rw(&table.s, pool, 0..table.s.len(), s_hi);
                    let pairs = (lo..hi)
                        .map(|i| {
                            (
                                Oid::from_raw(table.s.value(pool, i)),
                                Oid::from_raw(table.o.value(pool, i)),
                            )
                        })
                        .filter(|&(s, o)| {
                            restrict.accepts(o.raw())
                                && cx
                                    .delta()
                                    .map_or(true, |d| !d.is_deleted(Triple::new(s, prop.pred, o)))
                        })
                        .collect();
                    Access::Multi {
                        pairs,
                        exceptions: irr(),
                    }
                }
                Covered::Uncovered => Access::Irr { pairs: irr() },
            }
        })
        .collect();

    // The oracle binds every variable of the star.
    let emit = Emit::all(star);
    let mut out = Table::empty(emit.vars.clone());
    let star_filters = residual_filters(cx, star, filters);

    let pure_columns = star_filters.is_empty()
        && accesses.iter().all(|a| match a {
            Access::Col { exceptions, .. } => exceptions.is_empty(),
            _ => false,
        });
    if pure_columns {
        let col_vals: Vec<(&Vec<u64>, &ORestrict, Option<usize>)> = accesses
            .iter()
            .zip(&emit.props)
            .map(|(a, &pos)| match a {
                Access::Col { vals, restrict, .. } => (vals, restrict, pos),
                _ => unreachable!(),
            })
            .collect();
        'fast: for (ri, &row) in rows.iter().enumerate() {
            for &(vals, restrict, _) in &col_vals {
                let v = vals[ri];
                if v == sordf_columnar::column::NULL_SENTINEL || !restrict.accepts(v) {
                    continue 'fast;
                }
            }
            out.cols[0].push(subject_at_rw(seg, pool, row));
            for &(vals, _, pos) in &col_vals {
                if let Some(pos) = pos {
                    out.cols[pos].push(Oid::from_raw(vals[ri]));
                }
            }
            out.grow(1);
        }
        ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
        return out;
    }

    let mut value_lists: Vec<Vec<Oid>> = vec![Vec::new(); star.props.len()];
    let (mut row_buf, mut counter) = (Vec::new(), Vec::new());
    'rows: for (ri, &row) in rows.iter().enumerate() {
        let s = subject_at_rw(seg, pool, row);
        for (pi, access) in accesses.iter().enumerate() {
            let list = &mut value_lists[pi];
            list.clear();
            match access {
                Access::Col {
                    vals,
                    exceptions,
                    restrict,
                } => {
                    let v = vals[ri];
                    if v != sordf_columnar::column::NULL_SENTINEL && restrict.accepts(v) {
                        list.push(Oid::from_raw(v));
                    }
                    extend_from_sorted(list, exceptions, s);
                }
                Access::Multi { pairs, exceptions } => {
                    extend_from_sorted(list, pairs, s);
                    extend_from_sorted(list, exceptions, s);
                }
                Access::Irr { pairs } => {
                    extend_from_sorted(list, pairs, s);
                }
            }
            if list.is_empty() {
                continue 'rows;
            }
        }
        emit_combinations(
            cx,
            star,
            &emit,
            &star_filters,
            s,
            &value_lists,
            &mut row_buf,
            &mut counter,
            &mut out,
        );
    }
    ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
    out
}
