//! Star-pattern evaluation: the Default self-join plan and RDFscan/RDFjoin.
//!
//! A *star* is the set of triple patterns sharing one subject. The Default
//! scheme evaluates it with one property scan per pattern and subject merge
//! joins (Fig. 4's left-hand plans). RDFscan answers the whole star from one
//! class segment's aligned columns — "eliminating all join effort when
//! producing a star that stems from a single CS" — consulting the irregular
//! store only for exceptions and uncovered properties. RDFjoin is RDFscan
//! driven by a stream of candidate subjects (Fig. 4b, cf. Pivot Index Scan).

use crate::context::{ExecContext, ExecStats};
use crate::expr::{CmpOp, Expr};
use crate::parallel::ParallelConfig;
use crate::query::{Query, VarOrOid};
use crate::scan::{scan_property, ORestrict, SRange, Source};
use crate::table::{Table, VarId};
use sordf_model::{Oid, TypeTag};
use sordf_storage::clustered::SubjectIds;
use sordf_storage::ClassSegment;

/// One property of a star.
#[derive(Debug, Clone, Copy)]
pub struct StarProp {
    pub pred: Oid,
    pub o: VarOrOid,
}

/// A subject-grouped set of patterns.
#[derive(Debug, Clone)]
pub struct Star {
    /// Variable bound to the subject (a fresh hidden variable when the
    /// subject is a constant).
    pub subject_var: VarId,
    /// The constant subject, if any.
    pub subject_const: Option<Oid>,
    pub props: Vec<StarProp>,
}

impl Star {
    /// Variables this star binds (subject + object variables).
    pub fn bound_vars(&self) -> Vec<VarId> {
        let mut out = vec![self.subject_var];
        for p in &self.props {
            if let VarOrOid::Var(v) = p.o {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Canonical output layout: subject column first, then one column per
    /// variable-object property in pattern order.
    pub fn output_vars(&self) -> Vec<VarId> {
        let mut out = vec![self.subject_var];
        for p in &self.props {
            if let VarOrOid::Var(v) = p.o {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Group a query's patterns into stars. Repeated object variables within a
/// star (and objects equal to the subject variable) are rewritten to fresh
/// variables plus equality filters, so each star column is independent.
pub fn stars_of(query: &mut Query) -> (Vec<Star>, Vec<Expr>) {
    let mut stars: Vec<Star> = Vec::new();
    let mut key_of: Vec<(VarOrOid, usize)> = Vec::new();
    let mut extra_filters = Vec::new();
    let patterns = query.patterns.clone();
    for pat in &patterns {
        let star_idx = match key_of.iter().find(|(k, _)| *k == pat.s) {
            Some(&(_, i)) => i,
            None => {
                let subject_var = match pat.s {
                    VarOrOid::Var(v) => v,
                    VarOrOid::Const(_) => query.var(&format!("_s{}", stars.len())),
                };
                stars.push(Star {
                    subject_var,
                    subject_const: match pat.s {
                        VarOrOid::Const(c) => Some(c),
                        VarOrOid::Var(_) => None,
                    },
                    props: Vec::new(),
                });
                key_of.push((pat.s, stars.len() - 1));
                stars.len() - 1
            }
        };
        let star = &mut stars[star_idx];
        let o = match pat.o {
            VarOrOid::Var(v) => {
                let clash =
                    v == star.subject_var || star.props.iter().any(|p| p.o == VarOrOid::Var(v));
                if clash {
                    let fresh = query.var(&format!("_eq{}_{}", star_idx, star.props.len()));
                    extra_filters.push(Expr::cmp(Expr::Var(fresh), CmpOp::Eq, Expr::Var(v)));
                    VarOrOid::Var(fresh)
                } else {
                    VarOrOid::Var(v)
                }
            }
            c => c,
        };
        star.props.push(StarProp { pred: pat.p, o });
    }
    (stars, extra_filters)
}

/// Filters whose variables are all bound by `vars`.
pub fn filters_bound_by<'f>(filters: &'f [Expr], vars: &[VarId]) -> Vec<&'f Expr> {
    filters
        .iter()
        .filter(|f| {
            let mut fv = Vec::new();
            f.vars(&mut fv);
            fv.iter().all(|v| vars.contains(v))
        })
        .collect()
}

/// Derive a pushable object restriction for `v` from the filters.
pub fn restrict_for_var(filters: &[&Expr], v: VarId, strings_ordered: bool) -> ORestrict {
    let mut lo = 0u64;
    let mut hi = u64::MAX;
    let mut eq: Option<Oid> = None;
    for f in filters {
        let Some((fv, op, c)) = f.as_var_cmp() else {
            continue;
        };
        if fv != v || c.is_null() {
            continue;
        }
        // Ordered comparisons on parse-order string OIDs are not
        // OID-order-compatible; leave them to the post-filter.
        if c.tag() == TypeTag::Str && !strings_ordered && op != CmpOp::Eq {
            continue;
        }
        match op {
            CmpOp::Eq => eq = Some(eq.map_or(c, |prev| if prev == c { c } else { Oid::NULL })),
            CmpOp::Ge => lo = lo.max(c.raw()),
            CmpOp::Gt => lo = lo.max(c.raw().saturating_add(1)),
            CmpOp::Le => hi = hi.min(c.raw()),
            CmpOp::Lt => hi = hi.min(c.raw().saturating_sub(1)),
            CmpOp::Ne => {}
        }
    }
    if eq == Some(Oid::NULL) {
        // Conflicting equalities: empty restriction.
        return ORestrict {
            eq: None,
            range: Some((1, 0)),
        };
    }
    if let Some(c) = eq {
        if c.raw() < lo || c.raw() > hi {
            return ORestrict {
                eq: None,
                range: Some((1, 0)),
            };
        }
        return ORestrict::eq(c);
    }
    if lo == 0 && hi == u64::MAX {
        ORestrict::none()
    } else {
        ORestrict {
            eq: None,
            range: Some((lo, hi)),
        }
    }
}

/// The restriction to push into a property's scan.
pub(crate) fn prop_restrict(cx: &ExecContext, prop: &StarProp, filters: &[&Expr]) -> ORestrict {
    match prop.o {
        VarOrOid::Const(c) => ORestrict::eq(c),
        VarOrOid::Var(v) => restrict_for_var(filters, v, cx.strings_value_ordered()),
    }
}

/// Do pending delta inserts forbid base-value narrowing/pruning (sort-key
/// row ranges, zone-map page skips) for `pred`'s column? A pending insert
/// may supply the matching value for a subject whose base column value is
/// NULL or out of range; dropping that row on base evidence would drop the
/// exception bindings with it. Shared by the vectorized and rowwise star
/// paths — their byte-identity contract depends on pruning identically.
pub(crate) fn delta_blocks_pruning(cx: &ExecContext, pred: Oid) -> bool {
    cx.delta().is_some_and(|d| d.has_inserts_for(pred))
}

/// Apply filters to a table (post-filtering; always sound).
pub fn apply_filters(cx: &ExecContext, table: &mut Table, filters: &[&Expr]) {
    if filters.is_empty() || table.is_empty() {
        return;
    }
    let applicable = filters_bound_by_refs(filters, &table.vars);
    if applicable.is_empty() {
        return;
    }
    let n = table.len();
    let mut mask = vec![true; n];
    for (i, keep) in mask.iter_mut().enumerate() {
        let lookup = |v: VarId| {
            table
                .col_of(v)
                .map(|c| table.cols[c][i])
                .unwrap_or(Oid::NULL)
        };
        for f in &applicable {
            if !f.eval(&lookup, cx.dict).as_bool() {
                *keep = false;
                break;
            }
        }
    }
    table.retain_rows(&mask);
}

pub(crate) fn filters_bound_by_refs<'f>(filters: &[&'f Expr], vars: &[VarId]) -> Vec<&'f Expr> {
    filters
        .iter()
        .filter(|f| {
            let mut fv = Vec::new();
            f.vars(&mut fv);
            fv.iter().all(|v| vars.contains(v))
        })
        .copied()
        .collect()
}

/// Effective subject range of a Default-scheme star: constant subject,
/// caller-provided range, and any pushable range filters on the subject
/// variable (the SQL frontend restricts table scans to class segments this
/// way).
pub(crate) fn default_scan_range(star: &Star, filters: &[&Expr], s_range: SRange) -> SRange {
    let s_range = intersect_ranges(subject_filter_range(star, filters), s_range);
    match star.subject_const {
        Some(c) => intersect_ranges(Some((c.raw(), c.raw())), s_range),
        None => s_range,
    }
}

/// Scan one property's (subject, object) stream for a Default-scheme star —
/// pushes the property's restriction and semi-joins against candidates.
/// The unit of work the morsel executor fans out per property.
pub(crate) fn scan_star_prop(
    cx: &ExecContext,
    star: &Star,
    prop_idx: usize,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
    source: Source,
) -> Vec<(Oid, Oid)> {
    let p = &star.props[prop_idx];
    let restrict = prop_restrict(cx, p, filters);
    let mut pairs = scan_property(cx, p.pred, &restrict, s_range, source);
    if let Some(c) = candidates {
        pairs = crate::join::semi_join_pairs(&pairs, c);
    }
    pairs
}

/// Join per-property streams into the star's binding table (the self-join
/// pipeline of the Default scheme) and apply residual filters. Streams must
/// be `(property index, (s, o)-sorted pairs)` in pattern order.
pub(crate) fn join_star_streams(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    mut streams: Vec<(usize, Vec<(Oid, Oid)>)>,
) -> Table {
    // Join smallest-first (classic heuristic).
    streams.sort_by_key(|(_, s)| s.len());
    if streams[0].1.is_empty() {
        // Nothing can match; skip the join pipeline entirely.
        let mut vars = vec![star.subject_var];
        for p in &star.props {
            if let VarOrOid::Var(v) = p.o {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        return Table::empty(vars);
    }

    // Seed table from the first stream, built column-at-a-time.
    let mut vars = vec![star.subject_var];
    let (first_idx, first) = &streams[0];
    let first_is_var = matches!(star.props[*first_idx].o, VarOrOid::Var(_));
    if let VarOrOid::Var(v) = star.props[*first_idx].o {
        vars.push(v);
    }
    let mut table = Table::empty(vars);
    table.cols[0] = first.iter().map(|&(s, _)| s).collect();
    if first_is_var {
        table.cols[1] = first.iter().map(|&(_, o)| o).collect();
    }
    table.sorted_by = Some(0);

    for (idx, pairs) in streams.iter().skip(1) {
        match star.props[*idx].o {
            VarOrOid::Var(v) => {
                table = crate::join::merge_join_pairs(cx, &table, 0, pairs, v);
            }
            VarOrOid::Const(_) => {
                // Semi-join: keep rows whose subject appears in the stream.
                // Both sides are subject-sorted, so one merge pass replaces
                // the per-row binary search.
                ExecStats::bump(&cx.stats.merge_joins, 1);
                let key = &table.cols[0];
                let mut mask = vec![false; key.len()];
                let mut j = 0usize;
                for (i, s) in key.iter().enumerate() {
                    while j < pairs.len() && pairs[j].0 < *s {
                        j += 1;
                    }
                    mask[i] = j < pairs.len() && pairs[j].0 == *s;
                }
                table.retain_rows(&mask);
            }
        }
        if table.is_empty() {
            break;
        }
    }
    // Skip re-evaluating filters the pushed restricts already enforced.
    let residual = residual_filters(cx, star, filters);
    apply_filters(cx, &mut table, &residual);
    table
}

/// How a star property maps onto one class.
pub(crate) enum Covered {
    Col(usize),
    Multi(usize),
    Uncovered,
}

/// How each star property maps onto `class`, plus how many properties the
/// class covers at all.
pub(crate) fn class_coverage(class: &sordf_schema::ClassDef, star: &Star) -> (Vec<Covered>, usize) {
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
    (covered, n_covered)
}

/// The irregular branch of RDFscan: of a star fully answered from the
/// irregular store (`irr`), keep the subjects in no covering class — the
/// class scans already produced the others — projected onto the star layout.
pub(crate) fn uncovered_rows(
    mut irr: Table,
    star: &Star,
    schema: &sordf_schema::EmergentSchema,
    covering_classes: &[bool],
    out_vars: &[VarId],
) -> Table {
    if irr.is_empty() {
        return Table::empty(out_vars.to_vec());
    }
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
    if irr.is_empty() {
        return Table::empty(out_vars.to_vec());
    }
    irr.project(out_vars)
}

/// A prepared scan over one class segment: page-at-a-time (RDFscan) or
/// candidate-driven (RDFjoin). Produced by [`prepare_star_scans`]; the
/// morsel executor cuts [`span`](Self::span) into morsels and runs each
/// through [`scan`](Self::scan).
pub(crate) enum ClassScanPrep<'a> {
    Chunks(ChunkScanPrep<'a>),
    Rows(RowScanPrep<'a>),
}

impl ClassScanPrep<'_> {
    /// The scan's whole span — touched pages (RDFscan) or candidate rows
    /// (RDFjoin) — and the smallest morsel worth cutting from it.
    pub(crate) fn span(&self, par: &ParallelConfig) -> (std::ops::Range<usize>, usize) {
        match self {
            ClassScanPrep::Chunks(p) => (p.first_page..p.last_page + 1, par.min_morsel_pages),
            ClassScanPrep::Rows(p) => (0..p.rows.len(), par.min_morsel_rows),
        }
    }

    /// Execute any sub-range of [`span`](Self::span). Concatenating the
    /// outputs of consecutive sub-ranges yields exactly the whole-span
    /// table — the order-stability contract morsels rely on.
    pub(crate) fn scan(&self, cx: &ExecContext, span: std::ops::Range<usize>) -> Table {
        match self {
            ClassScanPrep::Chunks(p) => scan_chunk_pages(cx, p, span),
            ClassScanPrep::Rows(p) => scan_row_range(cx, p, span),
        }
    }
}

/// Select the classes covering at least one star property and prepare one
/// scan per non-empty segment, **in schema class order**. Returns the
/// covering-class mask (for the irregular branch) and the preps. This is
/// the single source of segment enumeration: results are byte-identical
/// across worker counts because every run visits exactly these segments in
/// exactly this order.
pub(crate) fn prepare_star_scans<'a>(
    cx: &ExecContext,
    star: &'a Star,
    filters: &[&'a Expr],
    candidates: Option<&[Oid]>,
    s_range: SRange,
    store: &'a sordf_storage::ClusteredStore,
    schema: &sordf_schema::EmergentSchema,
) -> (Vec<bool>, Vec<ClassScanPrep<'a>>) {
    let mut covering_classes: Vec<bool> = vec![false; schema.classes.len()];
    let mut preps: Vec<ClassScanPrep<'a>> = Vec::new();
    for class in &schema.classes {
        let (covered, n_covered) = class_coverage(class, star);
        if n_covered == 0 {
            continue;
        }
        covering_classes[class.id.0 as usize] = true;
        let seg = store.segment(class.id);
        if seg.n == 0 {
            continue;
        }
        match candidates {
            Some(cands) => {
                if let Some(p) = prepare_row_scan(cx, star, filters, cands, s_range, seg, &covered)
                {
                    preps.push(ClassScanPrep::Rows(p));
                }
            }
            None => {
                if let Some(p) = prepare_chunk_scan(cx, star, filters, s_range, seg, &covered) {
                    preps.push(ClassScanPrep::Chunks(p));
                }
            }
        }
    }
    (covering_classes, preps)
}

/// Per-property access resolved against one class segment. Column values are
/// *not* materialized here — the chunk path reads them straight from pinned
/// pages; only side-table pairs and irregular exceptions (small, subject-
/// sorted lists) are collected up front. Pending writes surface here too:
/// delta inserts arrive through the exception lists (they are scanned with
/// `Source::IrregularOnly`, which unions the delta runs), and `deleted`
/// carries the tombstoned (s, o) pairs the kernels must filter out of the
/// aligned column values.
pub(crate) enum Access {
    /// Aligned column + sorted exceptions + tombstoned pairs.
    Col {
        ci: usize,
        exceptions: Vec<(Oid, Oid)>,
        deleted: Vec<(Oid, Oid)>,
        restrict: ORestrict,
    },
    /// Multi table pairs in subject range (sorted by s) + exceptions.
    Multi {
        pairs: Vec<(Oid, Oid)>,
        exceptions: Vec<(Oid, Oid)>,
    },
    /// Only irregular pairs (uncovered property).
    Irr { pairs: Vec<(Oid, Oid)> },
}

/// Is `(s, v)` in the sorted tombstoned-pair list?
#[inline]
pub(crate) fn pair_deleted(deleted: &[(Oid, Oid)], s: Oid, v: u64) -> bool {
    !deleted.is_empty() && deleted.binary_search(&(s, Oid::from_raw(v))).is_ok()
}

/// Build the per-property accesses for subjects in `[s_lo, s_hi]`.
fn build_accesses(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    seg: &ClassSegment,
    covered: &[Covered],
    s_lo: u64,
    s_hi: u64,
) -> Vec<Access> {
    let pool = cx.pool;
    star.props
        .iter()
        .zip(covered)
        .map(|(prop, cov)| {
            let restrict = prop_restrict(cx, prop, filters);
            let irr = || {
                scan_property(
                    cx,
                    prop.pred,
                    &restrict,
                    Some((s_lo, s_hi)),
                    Source::IrregularOnly,
                )
            };
            // Tombstoned (s, o) pairs for this predicate in the subject
            // range — the kernels filter these out of base column values.
            let deleted = || match cx.delta() {
                Some(d) if d.has_tombstones_for(prop.pred) => {
                    d.deleted_pairs_for(prop.pred, s_lo, s_hi)
                }
                _ => Vec::new(),
            };
            match cov {
                Covered::Col(ci) => Access::Col {
                    ci: *ci,
                    exceptions: irr(),
                    deleted: deleted(),
                    restrict,
                },
                Covered::Multi(mi) => {
                    let table = &seg.multi[*mi];
                    let lo = table.s.lower_bound(pool, s_lo);
                    let hi = table.s.upper_bound(pool, s_hi);
                    let del = deleted();
                    let mut pairs = Vec::new();
                    sordf_columnar::Column::for_each_chunk_pair(
                        &table.s,
                        &table.o,
                        pool,
                        lo..hi,
                        |sc, oc| {
                            pairs.extend(
                                sc.values()
                                    .iter()
                                    .zip(oc.values())
                                    .filter(|&(&s, &o)| {
                                        restrict.accepts(o)
                                            && !pair_deleted(&del, Oid::from_raw(s), o)
                                    })
                                    .map(|(&s, &o)| (Oid::from_raw(s), Oid::from_raw(o))),
                            );
                        },
                    );
                    Access::Multi {
                        pairs,
                        exceptions: irr(),
                    }
                }
                Covered::Uncovered => Access::Irr { pairs: irr() },
            }
        })
        .collect()
}

/// Prepared state for a candidate-driven (RDFjoin) class scan: resolved row
/// ids, their subjects, and the per-property accesses. [`scan_row_range`]
/// executes any contiguous sub-range of `rows` independently — the RDFjoin
/// morsel.
pub(crate) struct RowScanPrep<'a> {
    star: &'a Star,
    seg: &'a ClassSegment,
    rows: Vec<usize>,
    subjects: Vec<Oid>,
    accesses: Vec<Access>,
    out_vars: Vec<VarId>,
    out_pos: Vec<Option<usize>>,
    star_filters: Vec<&'a Expr>,
    pure_columns: bool,
}

/// Resolve candidates to segment rows and build the shared scan state.
/// Returns `None` when no candidate falls into this segment.
fn prepare_row_scan<'a>(
    cx: &ExecContext,
    star: &'a Star,
    filters: &[&'a Expr],
    cands: &[Oid],
    s_range: SRange,
    seg: &'a ClassSegment,
    covered: &[Covered],
) -> Option<RowScanPrep<'a>> {
    let pool = cx.pool;
    ExecStats::bump(&cx.stats.rdf_joins, 1);

    let mut rows: Vec<usize> = cands
        .iter()
        .filter(|&&s| s_range.map_or(true, |(lo, hi)| s.raw() >= lo && s.raw() <= hi))
        .filter_map(|&s| seg.row_of(pool, s))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    if rows.is_empty() {
        return None;
    }
    ExecStats::bump(&cx.stats.rows_scanned, rows.len() as u64);

    // Batched subject materialization (one pin per subject page on sparse
    // segments — previously one pool request per row).
    let subjects = seg.subjects_at(pool, &rows);
    // sordf-lint: allow(L3) — `rows` is non-empty on this path, so `subjects` is too.
    let (s_lo, s_hi) = (subjects[0].raw(), subjects.last().unwrap().raw());
    let accesses = build_accesses(cx, star, filters, seg, covered, s_lo, s_hi);

    let out_vars = star.output_vars();
    let star_filters = residual_filters(cx, star, filters);
    let out_pos = out_positions(star, &out_vars);
    let pure_columns = star_filters.is_empty()
        && accesses.iter().all(|a| match a {
            Access::Col {
                exceptions,
                deleted,
                ..
            } => exceptions.is_empty() && deleted.is_empty(),
            _ => false,
        });
    Some(RowScanPrep {
        star,
        seg,
        rows,
        subjects,
        accesses,
        out_vars,
        out_pos,
        star_filters,
        pure_columns,
    })
}

/// Evaluate the star for the candidate rows in `rr` (indices into the
/// prepared row list). Column values are gathered batch-wise (one pin per
/// touched page). Concatenating the outputs of consecutive ranges yields
/// exactly the full-range table — the order-stability contract morsels
/// rely on.
fn scan_row_range(cx: &ExecContext, prep: &RowScanPrep, rr: std::ops::Range<usize>) -> Table {
    let pool = cx.pool;
    let star = prep.star;
    let seg = prep.seg;
    let rows = &prep.rows[rr.clone()];
    let subjects = &prep.subjects[rr];
    let accesses = &prep.accesses;
    let out_pos = &prep.out_pos;
    let star_filters = &prep.star_filters;
    let mut out = Table::empty(prep.out_vars.clone());
    if rows.is_empty() {
        return out;
    }
    // Per-morsel cancellation poll (morsels bound this range's size).
    cx.check_cancelled();
    // Gather each column once, aligned with this range's `rows`.
    let gathered: Vec<Option<Vec<u64>>> = accesses
        .iter()
        .map(|a| match a {
            Access::Col { ci, .. } => Some(seg.columns[*ci].gather(pool, rows)),
            _ => None,
        })
        .collect();

    if prep.pure_columns {
        let col_vals: Vec<(&Vec<u64>, &ORestrict, Option<usize>)> = accesses
            .iter()
            .zip(&gathered)
            .zip(out_pos)
            .map(|((a, g), &pos)| match a {
                // sordf-lint: allow(L3) — gather always fills the slot of a Col access (same match arms).
                Access::Col { restrict, .. } => (g.as_ref().unwrap(), restrict, pos),
                _ => unreachable!(),
            })
            .collect();
        'fast: for (ri, &s) in subjects.iter().enumerate() {
            for &(vals, restrict, _) in &col_vals {
                let v = vals[ri];
                if v == sordf_columnar::column::NULL_SENTINEL || !restrict.accepts(v) {
                    continue 'fast;
                }
            }
            out.cols[0].push(s);
            for &(vals, _, pos) in &col_vals {
                if let Some(pos) = pos {
                    out.cols[pos].push(Oid::from_raw(vals[ri]));
                }
            }
        }
        ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
        return out;
    }

    let mut value_lists: Vec<Vec<Oid>> = vec![Vec::new(); star.props.len()];
    'rows: for (ri, &s) in subjects.iter().enumerate() {
        for (pi, access) in accesses.iter().enumerate() {
            let list = &mut value_lists[pi];
            list.clear();
            match access {
                Access::Col {
                    exceptions,
                    deleted,
                    restrict,
                    ..
                } => {
                    // sordf-lint: allow(L3) — gather always fills the slot of a Col access (same match arms).
                    let v = gathered[pi].as_ref().unwrap()[ri];
                    if v != sordf_columnar::column::NULL_SENTINEL
                        && restrict.accepts(v)
                        && !pair_deleted(deleted, s, v)
                    {
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
                continue 'rows; // pattern requires presence
            }
        }
        emit_combinations(cx, star, star_filters, s, &value_lists, &mut out);
    }
    ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
    out
}

/// Prepared state for a page-at-a-time (RDFscan) class scan: the narrowed
/// row range, per-property accesses, and zone-map pruning plan.
/// [`scan_chunk_pages`] executes any page sub-range independently — the
/// RDFscan morsel.
pub(crate) struct ChunkScanPrep<'a> {
    star: &'a Star,
    seg: &'a ClassSegment,
    range: std::ops::Range<usize>,
    accesses: Vec<Access>,
    out_vars: Vec<VarId>,
    out_pos: Vec<Option<usize>>,
    star_filters: Vec<&'a Expr>,
    pure_columns: bool,
    prune_cols: Vec<(usize, u64, u64)>,
    first_page: usize,
    last_page: usize,
}

/// Narrow the row range and build the shared scan state for one segment.
/// Returns `None` when the subject/sort-key restrictions leave no rows.
fn prepare_chunk_scan<'a>(
    cx: &ExecContext,
    star: &'a Star,
    filters: &[&'a Expr],
    s_range: SRange,
    seg: &'a ClassSegment,
    covered: &[Covered],
) -> Option<ChunkScanPrep<'a>> {
    use sordf_columnar::VALS_PER_PAGE;
    let pool = cx.pool;
    ExecStats::bump(&cx.stats.rdf_scans, 1);

    // ---- Row range -------------------------------------------------------
    let mut range = 0..seg.n;
    if let Some((lo, hi)) = effective_subject_range(star, s_range) {
        match &seg.subjects {
            SubjectIds::Dense { base } => {
                let lo_p = Oid::from_raw(lo).payload().max(*base);
                let hi_p = Oid::from_raw(hi).payload().min(base + seg.n as u64 - 1);
                if lo_p > hi_p {
                    return None;
                }
                range = (lo_p - base) as usize..(hi_p - base + 1) as usize;
            }
            SubjectIds::Sparse { subjects } => {
                let start = subjects.lower_bound(pool, lo);
                let end = subjects.upper_bound(pool, hi);
                range = start..end.max(start);
            }
        }
    }
    // Sort-key narrowing: if the segment is sub-ordered by a column this
    // star restricts, binary-search the row range. Unsound while the delta
    // holds inserts for the predicate — a pending insert can supply the
    // matching value for a row whose *base* value is NULL or out of range,
    // and narrowing would drop that row's exception bindings — so those
    // predicates scan the full range until a reorganization folds them in.
    // (The rowwise reference applies the identical rule; byte-identity.)
    for (pi, cov) in covered.iter().enumerate() {
        let Covered::Col(ci) = cov else { continue };
        if seg.sorted_by != Some(*ci) {
            continue;
        }
        let restrict = prop_restrict(cx, &star.props[pi], filters);
        if restrict.is_none() || delta_blocks_pruning(cx, star.props[pi].pred) {
            continue;
        }
        let (lo, hi) = restrict.bounds();
        if let Some(r) = seg.sorted_row_range(pool, *ci, lo, hi) {
            range = range.start.max(r.start)..range.end.min(r.end);
        }
    }
    if range.start >= range.end {
        return None;
    }

    // ---- Accesses --------------------------------------------------------
    let (s_lo, s_hi) = (
        seg.subject_at(pool, range.start).raw(),
        seg.subject_at(pool, range.end - 1).raw(),
    );
    let accesses = build_accesses(cx, star, filters, seg, covered, s_lo, s_hi);

    let out_vars = star.output_vars();
    // Filters of the form `var CMP const` on this star's single-bound
    // variables are already enforced by the pushed restricts (column checks,
    // exception scans, s_range); only the rest needs per-row evaluation.
    let star_filters = residual_filters(cx, star, filters);
    let out_pos = out_positions(star, &out_vars);

    // Fast path: pure aligned columns, no exceptions / side tables /
    // uncovered props, no residual filters — the common case on regular
    // data, and the code path that makes RDFscan "CPU efficient".
    let pure_columns = star_filters.is_empty()
        && accesses.iter().all(|a| match a {
            Access::Col {
                exceptions,
                deleted,
                ..
            } => exceptions.is_empty() && deleted.is_empty(),
            _ => false,
        });

    // Zone-map pruning setup. The pure path may prune on *every* restricted
    // column (each row must pass every column check anyway); the general
    // path must prune exactly like the value-at-a-time original — on the
    // first restricted covered non-sort-key column only — because a pruned
    // page also suppresses that page's exception/side-table bindings.
    let zm_on = cx.config.zonemaps;
    let prune_cols: Vec<(usize, u64, u64)> = if !zm_on {
        Vec::new()
    } else {
        // A pruned page suppresses that page's exception bindings too, so a
        // column whose predicate has pending delta inserts must not prune
        // (same rule as sort-key narrowing above; mirrored in the rowwise
        // reference).
        let mut cols: Vec<(usize, u64, u64)> = accesses
            .iter()
            .enumerate()
            .filter_map(|(pi, a)| match a {
                Access::Col { ci, restrict, .. }
                    if !restrict.is_none()
                        && seg.sorted_by != Some(*ci)
                        && !delta_blocks_pruning(cx, star.props[pi].pred) =>
                {
                    let (lo, hi) = restrict.bounds();
                    Some((*ci, lo, hi))
                }
                _ => None,
            })
            .collect();
        if !pure_columns {
            cols.truncate(1);
        }
        cols
    };

    let first_page = range.start / VALS_PER_PAGE;
    let last_page = (range.end - 1) / VALS_PER_PAGE;
    Some(ChunkScanPrep {
        star,
        seg,
        range,
        accesses,
        out_vars,
        out_pos,
        star_filters,
        pure_columns,
        prune_cols,
        first_page,
        last_page,
    })
}

/// RDFscan kernel: evaluate the star page-at-a-time over the pages in
/// `pages` (clamped to the prepared range). Every covered column's page is
/// pinned exactly once per touched page (subject pages of sparse segments in
/// lockstep); zone-map pruning and the all-NULL fast path run *before* pages
/// are pinned, so skipped pages cost no pool traffic; values are read from
/// contiguous slices, with no row-id or column materialization.
/// Concatenating the outputs of consecutive page ranges yields exactly the
/// full-range table — the order-stability contract morsels rely on.
fn scan_chunk_pages(
    cx: &ExecContext,
    prep: &ChunkScanPrep,
    pages: std::ops::Range<usize>,
) -> Table {
    use sordf_columnar::VALS_PER_PAGE;
    let pool = cx.pool;
    let star = prep.star;
    let seg = prep.seg;
    let range = &prep.range;
    let accesses = &prep.accesses;
    let out_pos = &prep.out_pos;
    let star_filters = &prep.star_filters;
    let pure_columns = prep.pure_columns;
    let prune_cols = &prep.prune_cols;

    let mut out = Table::empty(prep.out_vars.clone());
    let first_page = pages.start.max(prep.first_page);
    let last_page = (pages.end.saturating_sub(1)).min(prep.last_page);
    if first_page > last_page {
        return out;
    }
    let mut rows_scanned = 0u64;
    let mut value_lists: Vec<Vec<Oid>> = vec![Vec::new(); star.props.len()];

    'pages: for p in first_page..=last_page {
        // Per-page cancellation poll — the bounded-work boundary of the
        // RDFscan kernel.
        cx.check_cancelled();
        // Pre-pin pruning: zone-map misses and (on the pure path) pages
        // where a required column is entirely NULL.
        for &(ci, lo, hi) in prune_cols {
            if !seg.columns[ci].zonemap().page(p).overlaps(lo, hi) {
                ExecStats::bump(&cx.stats.zonemap_pages_skipped, 1);
                continue 'pages;
            }
        }
        if pure_columns {
            let all_present = accesses.iter().all(|a| match a {
                Access::Col { ci, .. } => seg.columns[*ci].zonemap().page(p).n_nonnull > 0,
                _ => true,
            });
            if !all_present {
                // A required column is all-NULL on this page: no row can
                // match, and the page is skipped without being pinned.
                continue;
            }
        }

        // Pin this page of every covered column (and the subject column of a
        // sparse segment) in lockstep.
        let chunks: Vec<Option<sordf_columnar::Chunk>> = accesses
            .iter()
            .map(|a| match a {
                Access::Col { ci, .. } => {
                    Some(seg.columns[*ci].pin_page_in(pool, p, range.clone()))
                }
                _ => None,
            })
            .collect();
        let chunk_start = range.start.max(p * VALS_PER_PAGE);
        let chunk_len = range.end.min((p + 1) * VALS_PER_PAGE) - chunk_start;
        rows_scanned += chunk_len as u64;
        ExecStats::bump(&cx.stats.pages_scanned, 1);
        let subj_chunk = match &seg.subjects {
            SubjectIds::Dense { .. } => None,
            SubjectIds::Sparse { subjects } => Some(subjects.pin_page_in(pool, p, range.clone())),
        };
        let subject_of = |i: usize| -> Oid {
            match (&seg.subjects, &subj_chunk) {
                (SubjectIds::Dense { base }, _) => Oid::iri(base + (chunk_start + i) as u64),
                (SubjectIds::Sparse { .. }, Some(c)) => Oid::from_raw(c.values()[i]),
                (SubjectIds::Sparse { .. }, None) => unreachable!(),
            }
        };

        if pure_columns {
            let col_slices: Vec<(&[u64], &ORestrict, Option<usize>)> = accesses
                .iter()
                .zip(&chunks)
                .zip(out_pos)
                .map(|((a, c), &pos)| match a {
                    // sordf-lint: allow(L3) — a chunk is fetched for every Col access (same match arms).
                    Access::Col { restrict, .. } => (c.as_ref().unwrap().values(), restrict, pos),
                    _ => unreachable!(),
                })
                .collect();
            'fast: for i in 0..chunk_len {
                for &(vals, restrict, _) in &col_slices {
                    let v = vals[i];
                    if v == sordf_columnar::column::NULL_SENTINEL || !restrict.accepts(v) {
                        continue 'fast;
                    }
                }
                out.cols[0].push(subject_of(i));
                for &(vals, _, pos) in &col_slices {
                    if let Some(pos) = pos {
                        out.cols[pos].push(Oid::from_raw(vals[i]));
                    }
                }
            }
            continue;
        }

        // General path: per-row value lists over the pinned slices (hoisted
        // out of the row loop once per page).
        let col_slices: Vec<Option<&[u64]>> = chunks
            .iter()
            .map(|c| c.as_ref().map(|c| c.values()))
            .collect();
        'rows: for i in 0..chunk_len {
            let s = subject_of(i);
            for (pi, access) in accesses.iter().enumerate() {
                let list = &mut value_lists[pi];
                list.clear();
                match access {
                    Access::Col {
                        exceptions,
                        deleted,
                        restrict,
                        ..
                    } => {
                        // sordf-lint: allow(L3) — a slice is built for every Col access (same match arms).
                        let v = col_slices[pi].unwrap()[i];
                        if v != sordf_columnar::column::NULL_SENTINEL
                            && restrict.accepts(v)
                            && !pair_deleted(deleted, s, v)
                        {
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
                    continue 'rows; // pattern requires presence
                }
            }
            emit_combinations(cx, star, star_filters, s, &value_lists, &mut out);
        }
    }
    ExecStats::bump(&cx.stats.rows_scanned, rows_scanned);
    ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
    out
}

/// Position of each property's output column (subject is column 0).
fn out_positions(star: &Star, out_vars: &[VarId]) -> Vec<Option<usize>> {
    star.props
        .iter()
        .map(|p| match p.o {
            VarOrOid::Var(v) => out_vars.iter().position(|&x| x == v),
            VarOrOid::Const(_) => None,
        })
        .collect()
}

/// Append the objects of all pairs with subject `s` (pairs sorted by s).
pub(crate) fn extend_from_sorted(list: &mut Vec<Oid>, pairs: &[(Oid, Oid)], s: Oid) {
    let start = pairs.partition_point(|&(ps, _)| ps < s);
    for &(ps, o) in &pairs[start..] {
        if ps != s {
            break;
        }
        list.push(o);
    }
}

/// Emit the cross product of per-property value lists for one subject,
/// filtered by the star-local filters.
pub(crate) fn emit_combinations(
    cx: &ExecContext,
    star: &Star,
    filters: &[&Expr],
    s: Oid,
    lists: &[Vec<Oid>],
    out: &mut Table,
) {
    // Common case: all singletons.
    let mut row: Vec<Oid> = Vec::with_capacity(out.vars.len());
    let mut idx = vec![0usize; lists.len()];
    loop {
        row.clear();
        row.push(s);
        for (pi, p) in star.props.iter().enumerate() {
            let v = lists[pi][idx[pi]];
            match p.o {
                VarOrOid::Var(var) => {
                    // Respect the canonical layout (vars may repeat... they
                    // don't — stars_of rewrites duplicates).
                    // sordf-lint: allow(L3) — stars_of rewrites duplicate vars, so the var appears in out.vars.
                    let pos = out.vars.iter().position(|&x| x == var).unwrap();
                    if pos == row.len() {
                        row.push(v);
                    } else if pos < row.len() {
                        row[pos] = v;
                    } else {
                        while row.len() < pos {
                            row.push(Oid::NULL);
                        }
                        row.push(v);
                    }
                }
                VarOrOid::Const(c) => {
                    if v != c {
                        // restrict already filtered; defensive.
                        row.clear();
                        break;
                    }
                }
            }
        }
        if !row.is_empty() {
            while row.len() < out.vars.len() {
                row.push(Oid::NULL);
            }
            let passes = filters.iter().all(|f| {
                let lookup = |v: VarId| {
                    out.vars
                        .iter()
                        .position(|&x| x == v)
                        .map(|i| row[i])
                        .unwrap_or(Oid::NULL)
                };
                f.eval(&lookup, cx.dict).as_bool()
            });
            if passes {
                out.push_row(&row);
            }
        }
        // Advance the mixed-radix counter.
        let mut k = lists.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < lists[k].len() {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Star-local filters minus those fully enforced by pushed restricts:
/// `var CMP const` (non-`!=`, and not an ordered comparison on unsorted
/// string OIDs) on a variable bound by exactly one property — the scan layer
/// already applied these via [`ORestrict`] / subject ranges.
pub(crate) fn residual_filters<'f>(
    cx: &ExecContext,
    star: &Star,
    filters: &[&'f Expr],
) -> Vec<&'f Expr> {
    filters_bound_by_refs(filters, &star.bound_vars())
        .into_iter()
        .filter(|f| match f.as_var_cmp() {
            Some((v, op, c)) => {
                let enforced_cmp = !(c.is_null()
                    || (c.tag() == TypeTag::Str && !cx.strings_value_ordered() && op != CmpOp::Eq))
                    && op != CmpOp::Ne;
                let single_binding = v == star.subject_var
                    || star
                        .props
                        .iter()
                        .filter(|p| p.o == VarOrOid::Var(v))
                        .count()
                        == 1;
                !(enforced_cmp && single_binding)
            }
            None => true,
        })
        .collect()
}

/// Range filters on the subject variable itself (OID-range form).
pub(crate) fn subject_filter_range(star: &Star, filters: &[&Expr]) -> SRange {
    // Subject OIDs are IRIs; IRI "ordering" is only meaningful as raw OID
    // ranges (used by the SQL frontend for class-segment restriction), so
    // push them unconditionally.
    let r = restrict_for_var(filters, star.subject_var, true);
    if r.is_none() {
        None
    } else {
        Some(r.bounds())
    }
}

pub(crate) fn effective_subject_range(star: &Star, s_range: SRange) -> SRange {
    match star.subject_const {
        Some(c) => intersect_ranges(Some((c.raw(), c.raw())), s_range),
        None => s_range,
    }
}

pub(crate) fn intersect_ranges(a: SRange, b: SRange) -> SRange {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((al, ah)), Some((bl, bh))) => Some((al.max(bl), ah.min(bh))),
    }
}
