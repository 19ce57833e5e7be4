//! Star-pattern evaluation: the Default self-join plan and RDFscan/RDFjoin.
//!
//! A *star* is the set of triple patterns sharing one subject. The Default
//! scheme evaluates it with one property scan per pattern and subject merge
//! joins (Fig. 4's left-hand plans). RDFscan answers the whole star from one
//! class segment's aligned columns — "eliminating all join effort when
//! producing a star that stems from a single CS" — consulting the irregular
//! store only for exceptions and uncovered properties. RDFjoin is RDFscan
//! driven by a stream of candidate subjects (Fig. 4b, cf. Pivot Index Scan).
//!
//! Both kernels merge pending writes at row granularity. Resolving a star
//! against a segment (`SegmentStar`) yields the segment's *dirty rows*:
//! the rows an irregular exception, a delta insert or a tombstone touches.
//! One loop evaluates the clean runs between them column-at-a-time — the
//! positional pass that makes RDFscan "CPU efficient" — and only the dirty
//! rows through per-row value lists, so reading a store with a pending delta
//! costs what the delta touches, and with none it is one clean run per page.
//! Pruning is scoped the same way: a column rules a page out only when no
//! exception of that column binds a row of the page (none does on a page
//! without dirty rows), and a pending insert blocks base-value narrowing
//! only on the segments whose subject range it falls into
//! (`delta_blocks_pruning`).
//!
//! **A scan binds what is read, and reads what it must.** One evaluation of a
//! star (`StarCall`) emits only the variables something after it reads —
//! the select list, a later join, a cross-star filter — plus those of its
//! own residual filters (`Emit`; the subject too is just a variable: a
//! star nothing reads a column of emits rows and no column). A property the
//! query only *mentions* still has to hold for a row to bind, but on a page
//! without dirty rows **its zone map usually decides that before the page is
//! pinned** (`page_passes_whole`): all rows present and inside the
//! restriction means the column passes whole, and a column that passes
//! whole and is not read is neither pinned nor decoded — it costs its
//! summary, not its values (`column_pages_skipped`). A page with a dirty row
//! pins every column as before: the exception / tombstone rows need the
//! base values. Bag semantics are untouched: a dirty row still enumerates
//! every combination of a multi-valued property, only the binding is
//! dropped. The rows go to a `StarSink`, a page at a time: a table that
//! accumulates them (a step that is joined later), or the select list's
//! fold, which consumes and clears them (the last step of a single-star
//! plan never materializes its bindings).
//!
//! A clean run is a selection-vector kernel (`emit_clean_run`): each
//! column's restriction, folded with the NULL check into one inclusive value
//! range, is tested in a branch-free pass that narrows the vector of
//! surviving offsets (a column its zone map decided is not tested); the
//! emitted columns are then appended in one sweep each — a slice copy when
//! the whole run passed (no vector is built for it), a gather otherwise. The
//! star's residual filters are evaluated by the batch evaluator
//! ([`crate::expr::BatchEval`]) over the rows the run just emitted, so a
//! residual filter costs a pass over a chunk, not the per-row path for every
//! row.
//!
//! **Filters are enforced once, by the star that binds all their
//! variables**: pushed into the scans as a restriction ([`ORestrict`], a
//! subject range) or applied star-locally (`residual_filters`) on every
//! access path. The tail of a plan applies only what no single star can
//! decide (`tail_filters`).

use crate::context::{ExecContext, ExecStats, StorageRef};
use crate::expr::{batches, BatchEval, CmpOp, Expr};
use crate::parallel::ParallelConfig;
use crate::query::{Query, VarOrOid};
use crate::scan::{column_bounds, scan_property, ORestrict, SRange, Source};
use crate::table::{Table, VarId};
use sordf_model::oid::{DECIMAL_ONE, PAYLOAD_MASK};
use sordf_model::{Oid, Triple, TypeTag};
use sordf_storage::clustered::SubjectIds;
use sordf_storage::{ClassSegment, Order};

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
    /// The variables this star binds, in its canonical output layout: the
    /// subject first, then one per variable-object property in pattern order.
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
}

/// What one evaluation of a star binds: the subset of
/// [`Star::bound_vars`] something reads, in canonical order, and where the
/// subject and each property's object land in it (`None`: not bound — a
/// constant object, or a variable nothing reads).
#[derive(Debug)]
pub(crate) struct Emit {
    pub(crate) vars: Vec<VarId>,
    pub(crate) subject: Option<usize>,
    pub(crate) props: Vec<Option<usize>>,
}

impl Emit {
    /// The layout binding the star variables `wanted` holds for.
    fn of(star: &Star, wanted: impl Fn(VarId) -> bool) -> Emit {
        let mut vars = star.bound_vars();
        vars.retain(|&v| wanted(v));
        let pos = |v: VarId| vars.iter().position(|&x| x == v);
        Emit {
            subject: pos(star.subject_var),
            props: star
                .props
                .iter()
                .map(|p| p.o.as_var().and_then(pos))
                .collect(),
            vars,
        }
    }

    /// Every variable of the star.
    fn all(star: &Star) -> Emit {
        Emit::of(star, |_| true)
    }
}

/// One evaluation of one star — what every segment scan of it shares. The
/// emitted variables are the ones the plan reads after this step (`needed`;
/// `None`: all of them) **plus the variables of the star's own residual
/// filters**, resolved here and not in the plan because which filters stay
/// residual depends on the query's constants (a date bound is pushed
/// exactly, a bare number is confirmed by value), and one cached plan serves
/// every constant.
pub(crate) struct StarCall<'a> {
    pub(crate) star: &'a Star,
    /// Every filter conjunct of the query: the pushed restrictions derive
    /// from the ones on this star's variables.
    pub(crate) filters: &'a [&'a Expr],
    /// Star-local filters the pushed restricts do not already enforce.
    pub(crate) residual: Vec<&'a Expr>,
    pub(crate) emit: Emit,
}

impl<'a> StarCall<'a> {
    pub(crate) fn new(
        cx: &ExecContext,
        star: &'a Star,
        filters: &'a [&'a Expr],
        needed: Option<&[VarId]>,
    ) -> StarCall<'a> {
        let residual = residual_filters(cx, star, filters);
        let emit = match needed {
            None => Emit::all(star),
            Some(needed) => {
                let mut read = needed.to_vec();
                residual.iter().for_each(|f| f.vars(&mut read));
                Emit::of(star, |v| read.contains(&v))
            }
        };
        StarCall {
            star,
            filters,
            residual,
            emit,
        }
    }
}

/// Where a star evaluation's rows go. The kernels emit a page's rows into
/// [`buffer`](Self::buffer) and then [`flush`](Self::flush): a materializing
/// sink (a [`Table`]) lets them accumulate, a streaming one
/// ([`crate::agg::Fold`]) folds them into the select list and clears the
/// buffer, so the last step of a plan never holds more than a page of
/// bindings.
pub(crate) trait StarSink: Send + Sized {
    /// The table rows are emitted into, laid out as the call's [`Emit`].
    fn buffer(&mut self) -> &mut Table;
    /// The buffer holds a page's worth of new rows.
    fn flush(&mut self, cx: &ExecContext);
    /// Take a whole table of rows (laid out like the buffer) as one chunk.
    fn take(&mut self, cx: &ExecContext, rows: Table) {
        self.buffer().append(rows);
        self.flush(cx);
    }
    /// Fold in the sink of the morsel after this one's.
    fn absorb(&mut self, later: Self);
}

impl StarSink for Table {
    fn buffer(&mut self) -> &mut Table {
        self
    }

    fn flush(&mut self, _: &ExecContext) {}

    fn absorb(&mut self, later: Table) {
        if !later.is_empty() {
            self.append(later);
        }
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

/// A raw OID range, inclusive; empty when `lo > hi`.
type Span = (u64, u64);

const NO_SPAN: Span = (1, 0);

/// The raw OIDs of one type tag.
fn tag_span(tag: TypeTag) -> Span {
    (Oid::new(tag, 0).raw(), Oid::new(tag, PAYLOAD_MASK).raw())
}

/// The terms of `c`'s own type tag with `term op c`: within a tag, raw
/// order is value order. (`c` is not an IRI: those have no order.)
fn own_span(op: CmpOp, c: Oid) -> Span {
    let (min, max) = tag_span(c.tag());
    let r = c.raw();
    match op {
        CmpOp::Eq => (r, r),
        CmpOp::Lt => (min, r - 1),
        CmpOp::Le => (min, r),
        CmpOp::Gt => (r + 1, max),
        CmpOp::Ge => (r, max),
        CmpOp::Ne => (min, max),
    }
}

/// The numbers `x` with `x op c`, for a numeric constant `c`: one span in
/// each numeric tag, as [`crate::expr::TermOrder::holds`] decides — `c`'s
/// own tag by raw order, the other one by `f64` value.
fn numeric_spans(op: CmpOp, c: Oid) -> [Span; 2] {
    let x = c.numeric_f64().unwrap_or(f64::NAN);
    [TypeTag::Int, TypeTag::Dec].map(|tag| {
        if tag == c.tag() {
            return own_span(op, c);
        }
        let (min, max) = tag_span(tag);
        // The raw OIDs of the first value not below `x` and above it.
        let ge = min + first_rejected(tag, x, |v| v < x);
        let gt = min + first_rejected(tag, x, |v| v <= x);
        match op {
            CmpOp::Eq => (ge, gt - 1),
            CmpOp::Lt => (min, ge - 1),
            CmpOp::Le => (min, gt - 1),
            CmpOp::Gt => (gt, max),
            CmpOp::Ge => (ge, max),
            CmpOp::Ne => (min, max),
        }
    })
}

/// The first payload of numeric `tag` whose value `below` rejects, or
/// `PAYLOAD_MASK + 1`. A value ascends with its payload, so `below` holds
/// for a prefix of them: the search gallops out from the payload of `x`,
/// near the boundary, and bisects the bracket it finds.
fn first_rejected(tag: TypeTag, x: f64, below: impl Fn(f64) -> bool) -> u64 {
    let end = PAYLOAD_MASK + 1;
    let below_at = |p: u64| p < end && Oid::new(tag, p).numeric_f64().is_some_and(&below);
    let guess = match tag {
        TypeTag::Int => Oid::from_int(x as i64),
        _ => Oid::from_decimal_unscaled((x * DECIMAL_ONE as f64) as i64),
    }
    .map_or(if x < 0.0 { 0 } else { end }, |o| o.payload());
    // Bracket: every payload below `lo` is below, `hi` is rejected.
    let (mut lo, mut hi, mut step) = (guess, guess, 1u64);
    if below_at(guess) {
        while below_at(hi) {
            lo = hi + 1;
            hi = hi.saturating_add(step).min(end);
            step *= 2;
        }
    } else {
        while lo > 0 && !below_at(lo - 1) {
            hi = lo - 1;
            lo = hi.saturating_sub(step);
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below_at(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `a ∩ b`, each a union of at most two disjoint ascending spans. The
/// unions [`restrict_for_var`] builds hold at most one span per numeric
/// tag, so the result fits in two as well; a third would widen the second
/// to their hull (more, never fewer, terms).
fn intersect_spans(a: [Span; 2], b: [Span; 2]) -> [Span; 2] {
    let mut out = [NO_SPAN; 2];
    let mut n = 0;
    for x in a {
        for y in b {
            let z = (x.0.max(y.0), x.1.min(y.1));
            if z.0 > z.1 {
                continue;
            }
            if n < 2 {
                out[n] = z;
                n += 1;
            } else {
                out[1] = (out[1].0.min(z.0), out[1].1.max(z.1));
            }
        }
    }
    out
}

/// Derive a pushable object restriction for `v` from the filters: what
/// every filter on `v` admits, as at most two raw ranges. A comparison with
/// a number admits both numeric types (`"2.5"^^xsd:decimal < 3`), one range
/// in each tag. An ordered one stays a residual filter
/// ([`residual_filters`]) that confirms by value what the ranges let
/// through; `=` is exact, its ranges holding just the numbers equal to it.
pub fn restrict_for_var(filters: &[&Expr], v: VarId, strings_ordered: bool) -> ORestrict {
    let empty = ORestrict::range(1, 0);
    let mut spans = [(0, u64::MAX), NO_SPAN];
    let mut eq: Option<Oid> = None;
    for f in filters {
        let admitted = if let Some((fv, from, to)) = f.as_var_range() {
            if fv != v {
                continue;
            }
            [(from.raw(), to.raw()), NO_SPAN]
        } else {
            let Some((fv, op, c)) = f.as_var_cmp() else {
                continue;
            };
            if fv != v || c.is_null() || op == CmpOp::Ne {
                continue;
            }
            // Ordered comparisons on parse-order string OIDs are not
            // OID-order-compatible; leave them to the post-filter.
            if c.tag() == TypeTag::Str && !strings_ordered && op != CmpOp::Eq {
                continue;
            }
            match (op, c.tag()) {
                (_, TypeTag::Int | TypeTag::Dec) => numeric_spans(op, c),
                (CmpOp::Eq, _) => {
                    eq = Some(eq.map_or(c, |prev| if prev == c { c } else { Oid::NULL }));
                    continue;
                }
                // An IRI or a blank node has no order: a type error on
                // every row.
                (_, TypeTag::Iri | TypeTag::Blank) => return empty,
                // Only values of the constant's own type compare with it.
                _ => [own_span(op, c), NO_SPAN],
            }
        };
        spans = intersect_spans(spans, admitted);
    }
    let [first, second] = spans;
    if first.0 > first.1 || eq == Some(Oid::NULL) {
        // Nothing passes every filter, or conflicting equalities.
        return empty;
    }
    if let Some(c) = eq {
        let inside = spans.iter().any(|&(lo, hi)| lo <= c.raw() && c.raw() <= hi);
        return if inside { ORestrict::eq(c) } else { empty };
    }
    if first == (0, u64::MAX) {
        return ORestrict::none();
    }
    ORestrict {
        eq: None,
        range: Some(first),
        also: (second.0 <= second.1).then_some(second),
    }
}

/// The restriction to push into a property's scan.
fn prop_restrict(cx: &ExecContext, prop: &StarProp, filters: &[&Expr]) -> ORestrict {
    match prop.o {
        VarOrOid::Const(c) => ORestrict::eq(c),
        VarOrOid::Var(v) => restrict_for_var(filters, v, cx.strings_value_ordered()),
    }
}

/// Do pending delta inserts forbid base-value narrowing/pruning (sort-key
/// row ranges, zone-map page skips) of `seg` on `pred`'s column? Only an
/// insert that can attach to one of the segment's rows does: it may supply
/// the matching value for a subject whose base column value is NULL or out
/// of range, and dropping that row on base evidence would drop the
/// exception bindings with it. So the rule is scoped to the segment — an
/// insert for `pred` on a subject inside the segment's subject range
/// (conservative for sparse segments, whose ranges interleave). Brand-new
/// subjects, which is most of what ingest adds, lie past every segment and
/// block nothing. The one definition RDFscan's narrowing and page pruning
/// go by.
fn delta_blocks_pruning(cx: &ExecContext, pred: Oid, seg: &ClassSegment) -> bool {
    let Some(delta) = cx.delta() else {
        return false;
    };
    if seg.n == 0 {
        return false;
    }
    let (first, last) = (
        seg.subject_at(cx.pool, 0).raw(),
        seg.subject_at(cx.pool, seg.n - 1).raw(),
    );
    delta.has_inserts_in(pred, first, last)
}

/// May a scan narrow `seg`'s rows by binary search on its sort-key column,
/// which stores `pred`? Narrowing reads only the values the column stores,
/// so it is sound only while no row can bind a value other than its stored
/// one: no insert for `pred` is pending on the segment
/// ([`delta_blocks_pruning`]), and no base exception of `pred` — a second
/// value, or one of another type, which the build keeps in the irregular
/// store — binds one of the segment's subjects. Either could match the
/// restriction where the stored value misses it, and narrowing would drop
/// the row with its exception. The check is a binary search of the
/// irregular store's PSO index for `pred` over the segment's subject range
/// (no page is pinned when the store is empty); the one rule RDFscan
/// narrows by.
fn sort_key_narrows(cx: &ExecContext, pred: Oid, seg: &ClassSegment) -> bool {
    let StorageRef::Clustered { store, .. } = &cx.storage else {
        return false;
    };
    if seg.n == 0 || delta_blocks_pruning(cx, pred, seg) {
        return false;
    }
    let pool = cx.pool;
    let (first, last) = (
        seg.subject_at(pool, 0).raw(),
        seg.subject_at(pool, seg.n - 1).raw(),
    );
    let pso = store.irregular.perm(Order::Pso);
    let rows = pso.range1(pool, pred);
    let subjects = pso.col(1);
    subjects.lower_bound_in(pool, rows.clone(), first) == subjects.upper_bound_in(pool, rows, last)
}

/// Apply filters to a table (post-filtering; always sound), a chunk at a
/// time through the batch evaluator; a table every row of which passes is
/// not touched.
pub fn apply_filters(cx: &ExecContext, table: &mut Table, filters: &[&Expr]) {
    if filters.is_empty() || table.is_empty() {
        return;
    }
    let applicable = filters_bound_by_refs(filters, &table.vars);
    if applicable.is_empty() {
        return;
    }
    let mut ev = BatchEval::new(cx, &table.vars);
    retain_passing(&applicable, 0, &mut ev, &mut Vec::new(), table);
}

/// Drop the rows of `table` from `from` on that fail a filter, keeping
/// order: the keep-mask of each chunk comes from the batch evaluator, and
/// the passing rows are compacted in place.
fn retain_passing(
    filters: &[&Expr],
    from: usize,
    ev: &mut BatchEval,
    mask: &mut Vec<bool>,
    table: &mut Table,
) {
    let mut kept = from;
    for chunk in batches(from..table.len()) {
        ev.filter_mask(filters, &table.cols, chunk.clone(), mask);
        if kept == chunk.start && !mask.contains(&false) {
            kept = chunk.end;
            continue;
        }
        // `kept <= chunk.start`: passing rows only ever move down.
        for col in table.cols.iter_mut() {
            let mut k = kept;
            for (i, &keep) in chunk.clone().zip(mask.iter()) {
                col[k] = col[i];
                k += usize::from(keep);
            }
        }
        kept += mask.iter().filter(|&&keep| keep).count();
    }
    table.truncate(kept);
}

/// The filters the tail of a plan still has to apply once every star is
/// joined. **A filter is owned by the star that binds all its variables**:
/// every access path enforces it there, as a pushed restrict or as a
/// star-local residual ([`residual_filters`]), so it is enforced once and
/// never re-evaluated over the joined table. What is left for the tail is
/// what no single star can decide — a filter spanning stars (`?a < ?b`).
pub(crate) fn tail_filters<'f>(stars: &[Star], filters: &'f [Expr]) -> Vec<&'f Expr> {
    let star_vars: Vec<Vec<VarId>> = stars.iter().map(Star::bound_vars).collect();
    filters
        .iter()
        .filter(|f| !star_vars.iter().any(|bound| binds_all(bound, f)))
        .collect()
}

/// Are all of `f`'s variables among `vars`?
fn binds_all(vars: &[VarId], f: &Expr) -> bool {
    let mut fv = Vec::new();
    f.vars(&mut fv);
    fv.iter().all(|v| vars.contains(v))
}

/// Filters whose variables are all bound by `vars`.
pub(crate) fn filters_bound_by_refs<'f>(filters: &[&'f Expr], vars: &[VarId]) -> Vec<&'f Expr> {
    filters
        .iter()
        .filter(|f| binds_all(vars, f))
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
/// pipeline of the Default scheme), apply residual filters and lay the
/// columns out canonically. Streams must be `(property index, (s, o)-sorted
/// pairs)` in pattern order.
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
        return Table::empty(star.bound_vars());
    }

    // Seed table from the first stream, built column-at-a-time.
    let (first_idx, first) = &streams[0];
    let mut vars = vec![star.subject_var];
    let mut cols = vec![first.iter().map(|&(s, _)| s).collect()];
    if let VarOrOid::Var(v) = star.props[*first_idx].o {
        vars.push(v);
        cols.push(first.iter().map(|&(_, o)| o).collect());
    }
    let mut table = Table::from_cols(vars, cols, first.len());
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
    canonical_layout(star, table)
}

/// A star's joined streams in the star's canonical layout: the pipeline
/// adds columns in join order, and stops early — short of some — when the
/// table runs empty.
fn canonical_layout(star: &Star, table: Table) -> Table {
    let vars = star.bound_vars();
    if table.is_empty() {
        return Table::empty(vars);
    }
    table.project(&vars)
}

/// How a star property maps onto one class.
enum Covered {
    Col(usize),
    Multi(usize),
    Uncovered,
}

/// How each star property maps onto `class`, plus how many properties the
/// class covers at all.
fn class_coverage(class: &sordf_schema::ClassDef, star: &Star) -> (Vec<Covered>, usize) {
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

    /// Execute any sub-range of [`span`](Self::span) into `sink`. The rows
    /// of consecutive sub-ranges, in order, are exactly the whole span's —
    /// the order-stability contract morsels rely on.
    pub(crate) fn scan(
        &self,
        cx: &ExecContext,
        span: std::ops::Range<usize>,
        sink: &mut impl StarSink,
    ) {
        match self {
            ClassScanPrep::Chunks(p) => scan_chunk_pages(cx, p, span, sink),
            ClassScanPrep::Rows(p) => scan_row_range(cx, p, span, sink),
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
    cx: &'a ExecContext,
    call: &'a StarCall<'a>,
    candidates: Option<&[Oid]>,
    s_range: SRange,
    store: &'a sordf_storage::ClusteredStore,
    schema: &sordf_schema::EmergentSchema,
) -> (Vec<bool>, Vec<ClassScanPrep<'a>>) {
    let mut covering_classes: Vec<bool> = vec![false; schema.classes.len()];
    let mut preps: Vec<ClassScanPrep<'a>> = Vec::new();
    for class in &schema.classes {
        let (covered, n_covered) = class_coverage(class, call.star);
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
                if let Some(p) = prepare_row_scan(cx, call, cands, s_range, seg, &covered) {
                    preps.push(ClassScanPrep::Rows(p));
                }
            }
            None => {
                if let Some(p) = prepare_chunk_scan(cx, call, s_range, seg, &covered) {
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
/// borrows the view's tombstones for the predicate in the scan's subject
/// range. Exceptions and tombstones are what make a row *dirty* (see
/// [`DirtyRows`]); the kernels consult them on those rows only.
pub(crate) enum Access<'a> {
    /// Aligned column + sorted exceptions + tombstoned triples.
    Col {
        ci: usize,
        exceptions: Vec<(Oid, Oid)>,
        /// One predicate's tombstones, (s, o)-sorted: a slice of the view.
        deleted: &'a [Triple],
        restrict: ORestrict,
        /// `restrict` over present values ([`present_bounds`]).
        bounds: (u64, u64),
    },
    /// Multi table pairs in subject range (sorted by s) + exceptions.
    Multi {
        pairs: Vec<(Oid, Oid)>,
        exceptions: Vec<(Oid, Oid)>,
    },
    /// Only irregular pairs (uncovered property).
    Irr { pairs: Vec<(Oid, Oid)> },
}

/// Is `(s, v)` among one predicate's (s, o)-sorted tombstones?
#[inline]
fn pair_deleted(deleted: &[Triple], s: Oid, v: u64) -> bool {
    deleted
        .binary_search_by_key(&(s, Oid::from_raw(v)), |t| (t.s, t.o))
        .is_ok()
}

/// Build the per-property accesses for subjects in `[s_lo, s_hi]`.
fn build_accesses<'a>(
    cx: &'a ExecContext,
    star: &Star,
    filters: &[&Expr],
    seg: &ClassSegment,
    covered: &[Covered],
    s_lo: u64,
    s_hi: u64,
) -> Vec<Access<'a>> {
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
            // This predicate's tombstones in the subject range — the
            // kernels filter them out of base column values.
            let deleted: &[Triple] = cx
                .delta()
                .map_or(&[], |d| d.tombstones_for(prop.pred, Some((s_lo, s_hi))));
            match cov {
                Covered::Col(ci) => Access::Col {
                    ci: *ci,
                    exceptions: irr(),
                    deleted,
                    bounds: present_bounds(&restrict, &seg.columns[*ci]),
                    restrict,
                },
                Covered::Multi(mi) => {
                    let table = &seg.multi[*mi];
                    let lo = table.s.lower_bound(pool, s_lo);
                    let hi = table.s.upper_bound(pool, s_hi);
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
                                            && !pair_deleted(deleted, Oid::from_raw(s), o)
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

/// The rows of a prepared scan that must take the per-row path
/// ([`SegmentStar::emit_dirty_row`]); every other row is *clean* — its
/// bindings are exactly its aligned column values — and is evaluated
/// column-at-a-time in the runs between dirty rows ([`emit_clean_run`]).
/// Positions are segment rows for a chunk scan and indices into the
/// candidate row list for a row scan. With nothing pending and no irregular
/// exceptions the list is empty and a scan is one clean run per page.
enum DirtyRows {
    /// Ascending positions of the rows an exception or a tombstone touches:
    /// the cost of merging the delta is proportional to this list.
    Rows(Vec<usize>),
    /// Every row — the star has a multi-valued or uncovered property, whose
    /// bindings are not a column the column-at-a-time run can read.
    All,
}

impl DirtyRows {
    /// Cursor value for a scan starting at position `from`.
    fn seek(&self, from: usize) -> usize {
        match self {
            DirtyRows::Rows(rows) => rows.partition_point(|&r| r < from),
            DirtyRows::All => 0,
        }
    }

    /// The first dirty position `>= from` (`usize::MAX` when there is none),
    /// advancing `cursor` past everything before it. `from` must not
    /// decrease between calls on one cursor.
    #[inline]
    fn next_from(&self, cursor: &mut usize, from: usize) -> usize {
        match self {
            DirtyRows::Rows(rows) => {
                while rows.get(*cursor).is_some_and(|&r| r < from) {
                    *cursor += 1;
                }
                rows.get(*cursor).copied().unwrap_or(usize::MAX)
            }
            DirtyRows::All => from,
        }
    }
}

/// Buffers a morsel reuses across its rows and runs.
struct RowScratch<'d> {
    /// Per property: the values binding the current subject (dirty rows).
    lists: Vec<Vec<Oid>>,
    row: Vec<Oid>,
    counter: Vec<usize>,
    /// Clean runs: the selection vector (offsets of the rows still passing).
    sel: Vec<u32>,
    /// Clean runs: the residual filters' evaluator and keep-mask.
    batch: BatchEval<'d>,
    mask: Vec<bool>,
}

/// One star resolved against one class segment — what the page-at-a-time
/// and the candidate-driven kernel share: the per-property accesses, the
/// call (output layout, residual filters) and the dirty rows.
struct SegmentStar<'a> {
    call: &'a StarCall<'a>,
    seg: &'a ClassSegment,
    accesses: Vec<Access<'a>>,
    dirty: DirtyRows,
}

impl<'a> SegmentStar<'a> {
    /// Resolve the call's star against `seg` for subjects in `[s_lo, s_hi]`.
    /// `positions_of` maps the ascending, distinct subjects an exception or
    /// a tombstone touches to the kernel's row positions (ascending).
    fn resolve(
        cx: &'a ExecContext,
        call: &'a StarCall<'a>,
        seg: &'a ClassSegment,
        covered: &[Covered],
        (s_lo, s_hi): (u64, u64),
        positions_of: impl FnOnce(&[Oid]) -> Vec<usize>,
    ) -> SegmentStar<'a> {
        let accesses = build_accesses(cx, call.star, call.filters, seg, covered, s_lo, s_hi);

        // Clean rows exist only where every access is an aligned column;
        // there, the dirty rows are the subjects of the exceptions and
        // tombstones. Residual filters do not make a row dirty: clean runs
        // evaluate them in batch over the rows they emit.
        let mut touched: Vec<Oid> = Vec::new();
        let all_columns = accesses.iter().all(|a| match a {
            Access::Col {
                exceptions,
                deleted,
                ..
            } => {
                touched.extend(exceptions.iter().map(|&(s, _)| s));
                touched.extend(deleted.iter().map(|t| t.s));
                true
            }
            _ => false,
        });
        let dirty = if all_columns {
            touched.sort_unstable();
            touched.dedup();
            DirtyRows::Rows(positions_of(&touched))
        } else {
            DirtyRows::All
        };
        SegmentStar {
            call,
            seg,
            accesses,
            dirty,
        }
    }

    fn scratch<'d>(&self, cx: &ExecContext<'d>) -> RowScratch<'d> {
        RowScratch {
            lists: vec![Vec::new(); self.accesses.len()],
            row: Vec::new(),
            counter: Vec::new(),
            sel: Vec::new(),
            batch: BatchEval::new(cx, &self.call.emit.vars),
            mask: Vec::new(),
        }
    }

    /// What [`emit_clean_run`] reads: per aligned column its values (`vals`
    /// yields, in access order, one slice per access and whether its zone
    /// map already decided that every value passes), the restriction folded
    /// into value bounds, and the output position. A column that is decided
    /// and not emitted has nothing left to contribute and is left out — its
    /// slice may be empty, the page was never pinned. Only consulted where
    /// clean rows exist, i.e. when every access is an aligned column.
    fn clean_run_columns<'v>(
        &'v self,
        vals: impl Iterator<Item = (&'v [u64], bool)>,
    ) -> Vec<CleanCol<'v>> {
        self.accesses
            .iter()
            .zip(vals)
            .zip(&self.call.emit.props)
            .filter_map(|((a, (vals, whole)), &pos)| match a {
                Access::Col {
                    bounds: (lo, hi), ..
                } if !(whole && pos.is_none()) => Some(CleanCol {
                    vals,
                    lo: *lo,
                    hi: *hi,
                    whole,
                    pos,
                }),
                _ => None,
            })
            .collect()
    }

    /// The per-row path: collect each property's values for subject `s` —
    /// the aligned column value (`col_value(property index)`) unless NULL,
    /// rejected or tombstoned, then the subject's exception / side-table /
    /// irregular pairs — and emit their combinations. This is what a dirty
    /// row pays.
    fn emit_dirty_row(
        &self,
        cx: &ExecContext,
        s: Oid,
        col_value: impl Fn(usize) -> u64,
        scratch: &mut RowScratch,
        out: &mut Table,
    ) {
        for (pi, access) in self.accesses.iter().enumerate() {
            let list = &mut scratch.lists[pi];
            list.clear();
            match access {
                Access::Col {
                    exceptions,
                    deleted,
                    restrict,
                    ..
                } => {
                    let v = col_value(pi);
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
                return; // pattern requires presence
            }
        }
        emit_combinations(
            cx,
            self.call.star,
            &self.call.emit,
            &self.call.residual,
            s,
            &scratch.lists,
            &mut scratch.row,
            &mut scratch.counter,
            out,
        );
    }

    /// Evaluate positions `from .. from + len` of a scan (`from` in the
    /// dirty rows' coordinates; values and subjects are addressed by the
    /// offset `0..len`): clean runs column-at-a-time through `cols`, dirty
    /// rows one by one through `col_value(property index, offset)`. Each row
    /// meets the residual filters once — a dirty row inside
    /// [`emit_combinations`], a clean run's rows in one batch after the run.
    #[allow(clippy::too_many_arguments)]
    fn emit_span(
        &self,
        cx: &ExecContext,
        cursor: &mut usize,
        (from, len): (usize, usize),
        cols: &[CleanCol],
        col_value: impl Fn(usize, usize) -> u64,
        subjects: Subjects,
        scratch: &mut RowScratch,
        out: &mut Table,
    ) {
        let subject_pos = self.call.emit.subject;
        let mut i = 0usize;
        while i < len {
            let d = self.dirty.next_from(cursor, from + i).min(from + len) - from;
            if d > i {
                let before = out.len();
                emit_clean_run(cols, i..d, subjects, subject_pos, &mut scratch.sel, out);
                if !self.call.residual.is_empty() {
                    let RowScratch { batch, mask, .. } = scratch;
                    retain_passing(&self.call.residual, before, batch, mask, out);
                }
            }
            if d < len {
                self.emit_dirty_row(cx, subjects.at(d), |pi| col_value(pi, d), scratch, out);
            }
            i = d + 1;
        }
    }
}

/// Resolve ascending `subjects` to the rows of `seg` inside `range`:
/// `s − base` on a dense segment, one forward lower-bound walk over the
/// subject column on a sparse one. Subjects the segment does not hold (an
/// irregular subject, a delta-new one, a tombstone outside the narrowed
/// range) resolve to nothing.
fn rows_of_subjects(
    cx: &ExecContext,
    seg: &ClassSegment,
    range: &std::ops::Range<usize>,
    subjects: &[Oid],
) -> Vec<usize> {
    let mut rows = Vec::with_capacity(subjects.len());
    match &seg.subjects {
        SubjectIds::Dense { base } => {
            let (lo, hi) = (base + range.start as u64, base + range.end as u64);
            rows.extend(
                subjects
                    .iter()
                    .filter(|s| s.is_iri() && (lo..hi).contains(&s.payload()))
                    .map(|s| (s.payload() - base) as usize),
            );
        }
        SubjectIds::Sparse { subjects: col } => {
            let mut from = range.start;
            for s in subjects {
                from = col.lower_bound_in(cx.pool, from..range.end, s.raw());
                if from >= range.end {
                    break;
                }
                if col.value(cx.pool, from) == s.raw() {
                    rows.push(from);
                }
            }
        }
    }
    rows
}

/// The subjects of the positions a span addresses by offset.
#[derive(Clone, Copy)]
enum Subjects<'a> {
    /// A dense segment: offset `i` is the IRI with payload `first + i`.
    Dense { first: u64 },
    /// A pinned page of a sparse segment's subject column.
    Raw(&'a [u64]),
    /// The materialized subjects of an RDFjoin candidate range.
    Oids(&'a [Oid]),
}

impl Subjects<'_> {
    #[inline]
    fn at(&self, i: usize) -> Oid {
        match self {
            Subjects::Dense { first } => Oid::iri(first + i as u64),
            Subjects::Raw(vals) => Oid::from_raw(vals[i]),
            Subjects::Oids(oids) => oids[i],
        }
    }

    /// Append the subjects of `offsets` (ascending, in range) to `out`.
    fn extend(&self, out: &mut Vec<Oid>, offsets: impl Iterator<Item = usize>) {
        match self {
            Subjects::Dense { first } => out.extend(offsets.map(|i| Oid::iri(first + i as u64))),
            Subjects::Raw(vals) => out.extend(offsets.map(|i| Oid::from_raw(vals[i]))),
            Subjects::Oids(oids) => out.extend(offsets.map(|i| oids[i])),
        }
    }
}

/// One aligned column of a clean run: the values aligned with the span's
/// offsets (a pinned page slice or a gathered batch), the inclusive bounds a
/// binding value lies in, whether a zone map already decided that every
/// value does (`whole`: no test pass is needed), and the output column
/// (`None`: a constant object, or a variable nothing reads).
struct CleanCol<'v> {
    vals: &'v [u64],
    lo: u64,
    hi: u64,
    whole: bool,
    pos: Option<usize>,
}

/// A restriction as one inclusive `[lo, hi]` over the *present* values of
/// `col` ([`column_bounds`]: exact, as a column holds one type tag), NULL
/// (the largest raw value) cut off. `lo > hi` when nothing can pass.
fn present_bounds(restrict: &ORestrict, col: &sordf_columnar::Column) -> (u64, u64) {
    let (lo, hi) = column_bounds(restrict, col);
    (lo, hi.min(sordf_columnar::column::NULL_SENTINEL - 1))
}

/// Does the zone map of `col`'s page `p` decide that **every** row of the
/// page binds — no NULL among them and every value inside `[lo, hi]`
/// ([`present_bounds`])? Then the column passes any run of the page whole:
/// a column nothing reads need not even be pinned, one that is read skips
/// its test pass. The statistics cover the whole page, so they hold for any
/// part of it (a partial last page, a sort-key-narrowed range).
fn page_passes_whole(col: &sordf_columnar::Column, p: usize, (lo, hi): (u64, u64)) -> bool {
    let stats = col.zonemap().page(p);
    stats.n_nonnull as usize == col.page_rows(p).len() && stats.min >= lo && stats.max <= hi
}

/// [`page_passes_whole`] for every page at once: a column without a NULL
/// whose value range lies inside the bounds.
fn column_passes_whole(col: &sordf_columnar::Column, (lo, hi): (u64, u64)) -> bool {
    let zm = col.zonemap();
    col.n_nulls() == 0
        && zm.global_min().is_some_and(|min| min >= lo)
        && zm.global_max().is_some_and(|max| max <= hi)
}

/// Column-at-a-time evaluation of a clean run, offsets `rows` of `cols`. A
/// row binds iff every column's value is present and within its bounds.
/// The run is tested column by column — each test a branch-free pass that
/// narrows the selection vector `sel` of surviving offsets; a column its
/// zone map decided (`whole`) is not tested at all — and then every emitted
/// column is appended in one sweep: a slice copy when the whole run passed
/// (no selection vector is ever built for it: the usual fate of an
/// unrestricted page), a gather through `sel` otherwise. The subject goes to
/// column `subject_pos`, if anything reads it. Output order is offset order.
/// Runs of any length take this one path, down to the single row between two
/// dirty ones: one counting pass and one `extend` per column.
fn emit_clean_run(
    cols: &[CleanCol],
    rows: std::ops::Range<usize>,
    subjects: Subjects,
    subject_pos: Option<usize>,
    sel: &mut Vec<u32>,
    out: &mut Table,
) {
    // `selected`: `sel` holds the surviving offsets (relative to
    // `rows.start`, ascending); until a column rejects a row, all survive.
    let n = rows.len();
    let mut selected = false;
    for c in cols {
        if c.lo > c.hi {
            return;
        }
        if c.whole {
            continue;
        }
        let vals = &c.vals[rows.clone()];
        // `lo <= v <= hi` as one unsigned compare.
        let (lo, width) = (c.lo, c.hi - c.lo);
        let passes = |v: u64| v.wrapping_sub(lo) <= width;
        if selected {
            // Narrow in place; `k <= j`, so a slot is read before it is
            // overwritten, and every offset in `sel` is `< n == vals.len()`.
            let mut k = 0usize;
            for j in 0..sel.len() {
                let i = sel[j];
                sel[k] = i;
                k += usize::from(passes(vals[i as usize]));
            }
            sel.truncate(k);
        } else {
            let n_pass = vals.iter().filter(|&&v| passes(v)).count();
            if n_pass == n {
                continue;
            }
            // First rejection: build the vector. `k <= i < n`, so the store
            // is in bounds; a failing row's slot is overwritten by the next.
            sel.clear();
            sel.resize(n, 0);
            let mut k = 0usize;
            for (i, &v) in vals.iter().enumerate() {
                sel[k] = i as u32;
                k += usize::from(passes(v));
            }
            sel.truncate(n_pass);
            selected = true;
        }
        if selected && sel.is_empty() {
            return;
        }
    }

    let base = rows.start;
    if selected {
        if let Some(pos) = subject_pos {
            subjects.extend(&mut out.cols[pos], sel.iter().map(|&i| base + i as usize));
        }
        for c in cols {
            if let Some(pos) = c.pos {
                let vals = &c.vals[rows.clone()];
                out.cols[pos].extend(sel.iter().map(|&i| Oid::from_raw(vals[i as usize])));
            }
        }
        out.grow(sel.len());
    } else {
        if let Some(pos) = subject_pos {
            subjects.extend(&mut out.cols[pos], rows.clone());
        }
        for c in cols {
            if let Some(pos) = c.pos {
                out.cols[pos].extend(c.vals[rows.clone()].iter().map(|&v| Oid::from_raw(v)));
            }
        }
        out.grow(n);
    }
}

/// Prepared state for a candidate-driven (RDFjoin) class scan: resolved row
/// ids and their subjects; dirty positions are indices into `rows`.
/// [`scan_row_range`] executes any contiguous sub-range of `rows`
/// independently — the RDFjoin morsel.
pub(crate) struct RowScanPrep<'a> {
    on: SegmentStar<'a>,
    rows: Vec<usize>,
    subjects: Vec<Oid>,
    /// Per access: does its column pass whole ([`column_passes_whole`])?
    whole: Vec<bool>,
}

/// Per access of `on`, whether `decide` says its aligned column passes
/// whole; never for the other kinds of access, and with zone maps switched
/// off only presence — the NULL count, no min/max — may decide.
fn whole_columns(
    cx: &ExecContext,
    on: &SegmentStar,
    decide: impl Fn(&sordf_columnar::Column, (u64, u64)) -> bool,
) -> Vec<bool> {
    on.accesses
        .iter()
        .map(|a| match a {
            Access::Col {
                ci,
                restrict,
                bounds,
                ..
            } => {
                (cx.config.zonemaps || restrict.is_none()) && decide(&on.seg.columns[*ci], *bounds)
            }
            _ => false,
        })
        .collect()
}

/// Resolve candidates to segment rows and build the shared scan state.
/// Returns `None` when no candidate falls into this segment.
fn prepare_row_scan<'a>(
    cx: &'a ExecContext,
    call: &'a StarCall<'a>,
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
    let s_bounds = (subjects[0].raw(), subjects.last().unwrap().raw());
    // Candidates ascend with their rows, so the dirty ones fall out of one
    // merge walk against the ascending touched subjects.
    let on = SegmentStar::resolve(cx, call, seg, covered, s_bounds, |touched| {
        let mut at = 0usize;
        let mut hits = Vec::new();
        for (ri, s) in subjects.iter().enumerate() {
            while touched.get(at).is_some_and(|t| t < s) {
                at += 1;
            }
            if touched.get(at) == Some(s) {
                hits.push(ri);
            }
        }
        hits
    });
    let whole = whole_columns(cx, &on, column_passes_whole);
    Some(RowScanPrep {
        on,
        rows,
        subjects,
        whole,
    })
}

/// Evaluate the star for the candidate rows in `rr` (indices into the
/// prepared row list), a page's worth of candidates at a time: column
/// values are gathered batch-wise (one pin per touched page) — except a
/// column that passes whole, nothing reads and no dirty candidate of the
/// batch needs — clean candidates are evaluated column-at-a-time in the runs
/// between dirty ones, and the batch's rows are flushed to the sink. The
/// rows of consecutive ranges, in order, are exactly the full range's — the
/// order-stability contract morsels rely on.
fn scan_row_range(
    cx: &ExecContext,
    prep: &RowScanPrep,
    rr: std::ops::Range<usize>,
    sink: &mut impl StarSink,
) {
    let on = &prep.on;
    let mut scratch = on.scratch(cx);
    let mut cursor = on.dirty.seek(rr.start);
    let mut emitted = 0u64;
    let mut at = rr.start;
    while at < rr.end {
        // Per-batch cancellation poll — the bounded-work boundary of the
        // RDFjoin kernel.
        cx.check_cancelled();
        let batch = at..rr.end.min(at + sordf_columnar::VALS_PER_PAGE);
        let rows = &prep.rows[batch.clone()];
        let clean_batch = on.dirty.next_from(&mut cursor, batch.start) >= batch.end;
        // Gather each column once, aligned with this batch's `rows`.
        let gathered: Vec<Vec<u64>> = on
            .accesses
            .iter()
            .zip(&prep.whole)
            .zip(&on.call.emit.props)
            .map(|((a, &whole), pos)| match a {
                Access::Col { .. } if clean_batch && whole && pos.is_none() => {
                    ExecStats::bump(&cx.stats.column_pages_skipped, 1);
                    Vec::new()
                }
                Access::Col { ci, .. } => on.seg.columns[*ci].gather(cx.pool, rows),
                _ => Vec::new(),
            })
            .collect();
        let cols = on.clean_run_columns(
            gathered
                .iter()
                .map(Vec::as_slice)
                .zip(prep.whole.iter().copied()),
        );
        let out = sink.buffer();
        let before = out.len();
        on.emit_span(
            cx,
            &mut cursor,
            (batch.start, rows.len()),
            &cols,
            |pi, i| gathered[pi][i],
            Subjects::Oids(&prep.subjects[batch.clone()]),
            &mut scratch,
            out,
        );
        emitted += (out.len() - before) as u64;
        sink.flush(cx);
        at = batch.end;
    }
    ExecStats::bump(&cx.stats.rows_emitted, emitted);
}

/// Prepared state for a page-at-a-time (RDFscan) class scan: the narrowed
/// row range (dirty positions are segment rows inside it) and the zone-map
/// pruning plan. [`scan_chunk_pages`] executes any page sub-range
/// independently — the RDFscan morsel.
pub(crate) struct ChunkScanPrep<'a> {
    on: SegmentStar<'a>,
    range: std::ops::Range<usize>,
    /// Per access: how its column may rule a page out before the page is
    /// pinned ([`PageRule`]); `None` for an access that never does.
    rules: Vec<Option<PageRule>>,
    /// Per access: may a zone map decide its column for a page
    /// ([`page_passes_whole`])?
    decidable: Vec<bool>,
    first_page: usize,
    last_page: usize,
}

/// How one aligned column may rule a page out: when its page is all-NULL,
/// or (`zone`: a restricted column that is not the sort key, zone maps on)
/// when the page's zone map misses the restriction. A column with an insert
/// pending on this segment has no rule ([`delta_blocks_pruning`]).
struct PageRule {
    ci: usize,
    zone: Option<(u64, u64)>,
}

/// Does an exception of `access` bind a subject in `[lo, hi]` (raw)? Binary
/// search over the subject-sorted exception list.
fn has_exception_in(access: &Access, (lo, hi): (u64, u64)) -> bool {
    let Access::Col { exceptions, .. } = access else {
        return false;
    };
    let i = exceptions.partition_point(|&(s, _)| s.raw() < lo);
    exceptions.get(i).is_some_and(|&(s, _)| s.raw() <= hi)
}

/// Narrow the row range and build the shared scan state for one segment.
/// Returns `None` when the subject/sort-key restrictions leave no rows.
fn prepare_chunk_scan<'a>(
    cx: &'a ExecContext,
    call: &'a StarCall<'a>,
    s_range: SRange,
    seg: &'a ClassSegment,
    covered: &[Covered],
) -> Option<ChunkScanPrep<'a>> {
    use sordf_columnar::VALS_PER_PAGE;
    let pool = cx.pool;
    let (star, filters) = (call.star, call.filters);
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
    // star restricts, binary-search the row range — unless a pending insert
    // or a base exception of the predicate binds one of the segment's rows
    // (`sort_key_narrows`): it can supply the matching value for a row whose
    // stored value is NULL or out of range, and narrowing would drop the row
    // with it, so such a segment scans its full range.
    for (pi, cov) in covered.iter().enumerate() {
        let Covered::Col(ci) = cov else { continue };
        if seg.sorted_by != Some(*ci) {
            continue;
        }
        let restrict = prop_restrict(cx, &star.props[pi], filters);
        if restrict.is_none() || !sort_key_narrows(cx, star.props[pi].pred, seg) {
            continue;
        }
        let (lo, hi) = column_bounds(&restrict, &seg.columns[*ci]);
        if let Some(r) = seg.sorted_row_range(pool, *ci, lo, hi) {
            range = range.start.max(r.start)..range.end.min(r.end);
        }
    }
    if range.start >= range.end {
        return None;
    }

    // ---- Accesses and dirty rows -------------------------------------------
    let s_bounds = (
        seg.subject_at(pool, range.start).raw(),
        seg.subject_at(pool, range.end - 1).raw(),
    );
    let on = SegmentStar::resolve(cx, call, seg, covered, s_bounds, |touched| {
        rows_of_subjects(cx, seg, &range, touched)
    });

    // Page rules. A ruled-out page suppresses the exception bindings of its
    // rows along with them, so a column with an insert pending on this
    // segment gets none (the rule of sort-key narrowing above), and the
    // kernel checks the column's exceptions per page.
    let rules = on
        .accesses
        .iter()
        .enumerate()
        .map(|(pi, a)| match a {
            Access::Col { ci, restrict, .. }
                if !delta_blocks_pruning(cx, star.props[pi].pred, seg) =>
            {
                let zoned = cx.config.zonemaps && !restrict.is_none();
                Some(PageRule {
                    ci: *ci,
                    zone: (zoned && seg.sorted_by != Some(*ci))
                        .then(|| column_bounds(restrict, &seg.columns[*ci])),
                })
            }
            _ => None,
        })
        .collect();
    let decidable = whole_columns(cx, &on, |_, _| true);

    let first_page = range.start / VALS_PER_PAGE;
    let last_page = (range.end - 1) / VALS_PER_PAGE;
    Some(ChunkScanPrep {
        on,
        range,
        rules,
        decidable,
        first_page,
        last_page,
    })
}

/// RDFscan kernel: evaluate the star page-at-a-time over the pages in
/// `pages` (clamped to the prepared range), flushing each page's rows to the
/// sink. Zone-map pruning and the all-NULL skip run *before* pages are
/// pinned, so skipped pages cost no pool traffic; values are read from
/// contiguous slices, with no row-id or column materialization.
///
/// **A column is decided per page from its zone map before it is pinned**
/// ([`page_passes_whole`]): when the page statistics say every row is
/// present and inside the restriction, the column passes whole. If nothing
/// reads it either — a property the query only mentions — its page is
/// neither pinned nor decoded (`column_pages_skipped`); if something does,
/// it is pinned for its values but skips its test pass. That holds on pages
/// without dirty rows; a page with one pins every column exactly as before,
/// because its exception / tombstone rows need the base values — which is
/// also why pending inserts need no new rule here: a decided page has no
/// dirty row, so nothing pending can bind on it. Otherwise every covered
/// column's page is pinned exactly once per touched page (the subject page
/// of a sparse segment in lockstep, when the subject is read or a row is
/// dirty).
///
/// One loop serves every segment: the clean runs between dirty rows are
/// evaluated column-at-a-time, the dirty rows one by one — so a merged scan
/// costs what the delta touches, and with no dirty row a page is a single
/// clean run. **A page is ruled out only when no row of it can bind**: a
/// column whose zone map misses its restriction, or whose page is all-NULL,
/// rules the page out unless an exception of that column binds one of its
/// rows — none does on a clean page, and on a dirty page a binary search of
/// the column's exceptions for the page's subject range decides. Every
/// column with a [`PageRule`] applies it on every page.
///
/// The rows of consecutive page ranges, in order, are exactly the full
/// range's — the order-stability contract morsels rely on.
fn scan_chunk_pages(
    cx: &ExecContext,
    prep: &ChunkScanPrep,
    pages: std::ops::Range<usize>,
    sink: &mut impl StarSink,
) {
    use sordf_columnar::VALS_PER_PAGE;
    let pool = cx.pool;
    let on = &prep.on;
    let seg = on.seg;
    let range = &prep.range;
    let emit = &on.call.emit;

    let first_page = pages.start.max(prep.first_page);
    let last_page = (pages.end.saturating_sub(1)).min(prep.last_page);
    if first_page > last_page {
        return;
    }
    let (mut rows_scanned, mut rows_emitted) = (0u64, 0u64);
    let mut scratch = on.scratch(cx);
    let mut cursor = on.dirty.seek(first_page * VALS_PER_PAGE);

    'pages: for p in first_page..=last_page {
        // Per-page cancellation poll — the bounded-work boundary of the
        // RDFscan kernel.
        cx.check_cancelled();
        let chunk_start = range.start.max(p * VALS_PER_PAGE);
        let chunk_end = range.end.min((p + 1) * VALS_PER_PAGE);
        let clean_page = on.dirty.next_from(&mut cursor, chunk_start) >= chunk_end;

        // Pre-pin pruning: zone-map misses, then pages where a required
        // column is entirely NULL — each only where no exception of the
        // column binds a row of the page.
        let page_subjects = match &seg.subjects {
            SubjectIds::Dense { base } => (
                Oid::iri(base + chunk_start as u64).raw(),
                Oid::iri(base + chunk_end as u64 - 1).raw(),
            ),
            SubjectIds::Sparse { subjects } => {
                let st = subjects.zonemap().page(p);
                (st.min, st.max)
            }
        };
        let may_rule_out =
            |pi: usize| clean_page || !has_exception_in(&on.accesses[pi], page_subjects);
        for (pi, rule) in prep.rules.iter().enumerate() {
            let Some(PageRule {
                ci,
                zone: Some((lo, hi)),
            }) = *rule
            else {
                continue;
            };
            if !seg.columns[ci].zonemap().page(p).overlaps(lo, hi) && may_rule_out(pi) {
                ExecStats::bump(&cx.stats.zonemap_pages_skipped, 1);
                continue 'pages;
            }
        }
        let all_null = prep.rules.iter().enumerate().any(|(pi, rule)| {
            rule.as_ref()
                .is_some_and(|r| seg.columns[r.ci].zonemap().page(p).n_nonnull == 0)
                && may_rule_out(pi)
        });
        if all_null {
            // No row can match: the page is skipped without being pinned.
            continue;
        }

        // Decide what the zone maps can, then pin this page of every column
        // still needed (and the subject column of a sparse segment) in
        // lockstep.
        let chunks: Vec<(Option<sordf_columnar::Chunk>, bool)> = on
            .accesses
            .iter()
            .zip(&prep.decidable)
            .zip(&emit.props)
            .map(|((a, &decidable), pos)| match a {
                Access::Col { ci, bounds, .. } => {
                    let col = &seg.columns[*ci];
                    let whole = decidable && page_passes_whole(col, p, *bounds);
                    if whole && clean_page && pos.is_none() {
                        ExecStats::bump(&cx.stats.column_pages_skipped, 1);
                        (None, true)
                    } else {
                        (Some(col.pin_page_in(pool, p, range.clone())), whole)
                    }
                }
                _ => (None, false),
            })
            .collect();
        rows_scanned += (chunk_end - chunk_start) as u64;
        ExecStats::bump(&cx.stats.pages_scanned, 1);
        let subj_chunk = match &seg.subjects {
            SubjectIds::Sparse { subjects } if emit.subject.is_some() || !clean_page => {
                Some(subjects.pin_page_in(pool, p, range.clone()))
            }
            _ => None,
        };
        let subjects = match (&subj_chunk, &seg.subjects) {
            (Some(c), _) => Subjects::Raw(c.values()),
            (None, SubjectIds::Dense { base }) => Subjects::Dense {
                first: base + chunk_start as u64,
            },
            // Nothing reads the subject and no row of the page is dirty.
            (None, SubjectIds::Sparse { .. }) => Subjects::Raw(&[]),
        };
        // Per access, this page's values (empty where nothing was pinned).
        let page_vals: Vec<&[u64]> = chunks
            .iter()
            .map(|(c, _)| c.as_ref().map_or(&[][..], |c| c.values()))
            .collect();
        let cols = on.clean_run_columns(
            page_vals
                .iter()
                .copied()
                .zip(chunks.iter().map(|&(_, whole)| whole)),
        );
        let out = sink.buffer();
        let before = out.len();
        on.emit_span(
            cx,
            &mut cursor,
            (chunk_start, chunk_end - chunk_start),
            &cols,
            |pi, i| page_vals[pi][i],
            subjects,
            &mut scratch,
            out,
        );
        rows_emitted += (out.len() - before) as u64;
        sink.flush(cx);
    }
    ExecStats::bump(&cx.stats.rows_scanned, rows_scanned);
    ExecStats::bump(&cx.stats.rows_emitted, rows_emitted);
}

/// Append the objects of all pairs with subject `s` (pairs sorted by s).
fn extend_from_sorted(list: &mut Vec<Oid>, pairs: &[(Oid, Oid)], s: Oid) {
    let start = pairs.partition_point(|&(ps, _)| ps < s);
    for &(ps, o) in &pairs[start..] {
        if ps != s {
            break;
        }
        list.push(o);
    }
}

/// Emit the cross product of per-property value lists for one subject,
/// filtered by the star-local filters, into the columns `emit` lays out —
/// every combination is a row whether or not anything reads its bindings
/// (bag semantics). `row` and `counter` are scratch buffers the caller
/// reuses across subjects.
#[allow(clippy::too_many_arguments)]
fn emit_combinations(
    cx: &ExecContext,
    star: &Star,
    emit: &Emit,
    filters: &[&Expr],
    s: Oid,
    lists: &[Vec<Oid>],
    row: &mut Vec<Oid>,
    counter: &mut Vec<usize>,
    out: &mut Table,
) {
    row.clear();
    row.resize(out.vars.len(), Oid::NULL);
    if let Some(pos) = emit.subject {
        row[pos] = s;
    }
    // Common case: every property has exactly one value — one row, no
    // counter.
    if lists.iter().all(|l| l.len() == 1) {
        if bind_row(star, &emit.props, |pi| lists[pi][0], row) {
            push_if_passes(cx, filters, row, out);
        }
        return;
    }
    counter.clear();
    counter.resize(lists.len(), 0);
    loop {
        if bind_row(star, &emit.props, |pi| lists[pi][counter[pi]], row) {
            push_if_passes(cx, filters, row, out);
        }
        // Advance the mixed-radix counter.
        let mut k = lists.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            counter[k] += 1;
            if counter[k] < lists[k].len() {
                break;
            }
            counter[k] = 0;
        }
    }
}

/// Bind one combination (`pick(pi)` = the chosen value of property `pi`)
/// into its output columns. False when a constant-object property picked
/// another value — the pushed restrict already filtered those; defensive.
#[inline]
fn bind_row(
    star: &Star,
    out_pos: &[Option<usize>],
    pick: impl Fn(usize) -> Oid,
    row: &mut [Oid],
) -> bool {
    for (pi, (p, pos)) in star.props.iter().zip(out_pos).enumerate() {
        let v = pick(pi);
        match (pos, p.o) {
            (Some(pos), _) => row[*pos] = v,
            (None, VarOrOid::Const(c)) if v != c => return false,
            (None, _) => {}
        }
    }
    true
}

/// Append `row` unless a star-local filter rejects it.
#[inline]
fn push_if_passes(cx: &ExecContext, filters: &[&Expr], row: &[Oid], out: &mut Table) {
    if !filters.is_empty() {
        let lookup = |v: VarId| out.col_of(v).map_or(Oid::NULL, |i| row[i]);
        if !filters.iter().all(|f| f.eval(&lookup, cx.dict).as_bool()) {
            return;
        }
    }
    out.push_row(row);
}

/// Star-local filters minus those fully enforced by pushed restricts:
/// `var CMP const` or `var IN [lo, hi]` on a variable bound by exactly one
/// property, where the
/// scan layer's [`ORestrict`] / subject range decides exactly what the
/// comparison does. That is every such comparison except `!=` (never
/// pushed), an ordered comparison on unsorted string OIDs (never pushed) and
/// an ordered comparison with a numeric constant: it is pushed as one range
/// per numeric tag ([`restrict_for_var`]) *and* stays residual — the star
/// confirms by value the rows the ranges let through.
pub fn residual_filters<'f>(cx: &ExecContext, star: &Star, filters: &[&'f Expr]) -> Vec<&'f Expr> {
    let single_binding = |v: VarId| {
        v == star.subject_var
            || star
                .props
                .iter()
                .filter(|p| p.o == VarOrOid::Var(v))
                .count()
                == 1
    };
    filters_bound_by_refs(filters, &star.bound_vars())
        .into_iter()
        .filter(|f| {
            let pushed = match (f.as_var_cmp(), f.as_var_range()) {
                (Some((v, op, c)), _) => {
                    let exact = match op {
                        CmpOp::Eq => !c.is_null(),
                        CmpOp::Ne => false,
                        _ => {
                            let unsorted_string =
                                c.tag() == TypeTag::Str && !cx.strings_value_ordered();
                            !(c.is_null() || unsorted_string || c.numeric_f64().is_some())
                        }
                    };
                    exact.then_some(v)
                }
                // A raw range is what the scan layer applies.
                (None, Some((v, ..))) => Some(v),
                (None, None) => None,
            };
            !pushed.is_some_and(single_binding)
        })
        .collect()
}

/// Range filters on the subject variable itself (OID-range form): the SQL
/// frontend's class-segment restriction ([`Expr::InRange`]), or a
/// comparison that no IRI passes.
pub(crate) fn subject_filter_range(star: &Star, filters: &[&Expr]) -> SRange {
    let r = restrict_for_var(filters, star.subject_var, true);
    if r.is_none() {
        None
    } else {
        Some(r.bounds())
    }
}

fn effective_subject_range(star: &Star, s_range: SRange) -> SRange {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_columnar::column::NULL_SENTINEL;
    use sordf_columnar::{Column, DiskManager, PageEnc, VALS_PER_PAGE};

    /// Bounds of an unrestricted column: any present value.
    const ANY: (u64, u64) = (0, NULL_SENTINEL - 1);

    /// A number's span in each numeric tag holds exactly the values the
    /// evaluator keeps: probed at and around every boundary and at both
    /// ends of each tag, for constants small, fractional and so large that
    /// `f64` rounds them.
    #[test]
    fn numeric_spans_admit_what_the_evaluator_keeps() {
        let dict = sordf_model::Dictionary::new();
        let order = crate::expr::TermOrder::by_text(&dict);
        let big = (1i64 << 53) + 1;
        let mut consts: Vec<Oid> = [0, 8, -3, big, -big, (1 << 59) - 1, -(1 << 59)]
            .into_iter()
            .map(|i| Oid::from_int(i).unwrap())
            .collect();
        consts.extend(
            [26_000, -1, 30_000, 25_000, big, -big, (1 << 59) - 1]
                .into_iter()
                .map(|u| Oid::from_decimal_unscaled(u).unwrap()),
        );
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        for c in consts {
            for op in ops {
                let spans = numeric_spans(op, c);
                for (tag, (lo, hi)) in [TypeTag::Int, TypeTag::Dec].into_iter().zip(spans) {
                    let min = Oid::new(tag, 0).raw();
                    let mut probes = vec![0, 1, PAYLOAD_MASK - 1, PAYLOAD_MASK];
                    for edge in [lo, hi] {
                        let p = edge.saturating_sub(min).min(PAYLOAD_MASK);
                        probes.extend((p.saturating_sub(3)..=p + 3).filter(|&q| q <= PAYLOAD_MASK));
                    }
                    for p in probes {
                        let o = Oid::new(tag, p);
                        assert_eq!(
                            (lo..=hi).contains(&o.raw()),
                            order.holds(o, op, c),
                            "{o:?} {op:?} {c:?}"
                        );
                    }
                }
            }
        }
    }

    /// The per-page decision the RDFscan kernel takes before it pins a
    /// column: partial last page, one NULL, a restriction straddling the
    /// page's range, constant and all-NULL pages.
    #[test]
    fn zone_map_decides_a_column_page() {
        let dm = DiskManager::temp().unwrap();
        // Page 0: 100..=139 cycling, all present. Page 1: the same with one
        // NULL. Page 2 (partial, 300 rows): 500..=509, all present.
        let mut vals: Vec<u64> = (0..VALS_PER_PAGE as u64).map(|i| 100 + i % 40).collect();
        vals.extend((0..VALS_PER_PAGE as u64).map(|i| 100 + i % 40));
        vals[VALS_PER_PAGE + 17] = NULL_SENTINEL;
        vals.extend((0..300u64).map(|i| 500 + i % 10));
        let col = Column::from_slice(&dm, &vals);
        assert_eq!(col.n_pages(), 3);
        // All present and inside: decided, whatever part of the page a
        // sort-key-narrowed range then reads.
        assert!(page_passes_whole(&col, 0, ANY));
        assert!(page_passes_whole(&col, 0, (100, 139)));
        assert!(page_passes_whole(&col, 0, (0, 139)));
        // The restriction straddles the page's minimum / maximum.
        assert!(!page_passes_whole(&col, 0, (101, 139)));
        assert!(!page_passes_whole(&col, 0, (100, 138)));
        assert!(!page_passes_whole(&col, 0, (200, 300)));
        // Nothing can pass (`lo > hi`).
        assert!(!page_passes_whole(&col, 0, (1, 0)));
        // One NULL among 8192 rows: not decided, even unrestricted.
        assert!(!page_passes_whole(&col, 1, ANY));
        // The partial last page counts its own rows, not a full page's.
        assert_eq!(col.page_rows(2).len(), 300);
        assert!(page_passes_whole(&col, 2, ANY));
        assert!(page_passes_whole(&col, 2, (500, 509)));
        assert!(!page_passes_whole(&col, 2, (500, 508)));
        // A column with a NULL anywhere is never decided as a whole.
        assert!(!column_passes_whole(&col, ANY));

        // A constant page is served from metadata; its zone map decides it
        // like any other. An all-NULL page binds no row at all.
        let mut vals = vec![7u64; VALS_PER_PAGE];
        vals.extend(vec![NULL_SENTINEL; VALS_PER_PAGE]);
        let col = Column::from_slice(&dm, &vals);
        assert_eq!(col.page_enc(0), PageEnc::Const { value: 7 });
        assert!(page_passes_whole(&col, 0, ANY));
        assert!(page_passes_whole(&col, 0, (7, 7)));
        assert!(!page_passes_whole(&col, 0, (8, 9)));
        assert!(!page_passes_whole(&col, 1, ANY));

        // Column level (RDFjoin): no NULL and the global range inside.
        let col = Column::from_slice(&dm, &[5, 9, 7, 6]);
        assert!(column_passes_whole(&col, ANY));
        assert!(column_passes_whole(&col, (5, 9)));
        assert!(!column_passes_whole(&col, (6, 9)));
        assert!(!column_passes_whole(&Column::empty(), ANY));
    }

    /// An equality and a range fold into one interval of present values;
    /// of a number's two spans, the one in the column's type tag.
    #[test]
    fn present_bounds_fold_restrictions() {
        let dm = DiskManager::temp().unwrap();
        let int = |i: i64| Oid::from_int(i).unwrap().raw();
        let col = Column::from_slice(&dm, &[int(5), int(9)]);
        assert_eq!(present_bounds(&ORestrict::none(), &col), ANY);
        let eq = ORestrict::eq(Oid::from_int(5).unwrap());
        assert_eq!(present_bounds(&eq, &col), (int(5), int(5)));
        let range = ORestrict::range(10, u64::MAX);
        assert_eq!(present_bounds(&range, &col), (10, NULL_SENTINEL - 1));
        let below_8 = ORestrict {
            also: Some((Oid::from_decimal_unscaled(-1).unwrap().raw(), u64::MAX)),
            ..ORestrict::range(int(-3), int(7))
        };
        assert_eq!(present_bounds(&below_8, &col), (int(-3), int(7)));
        let all_null = Column::from_slice(&dm, &[NULL_SENTINEL]);
        assert_eq!(present_bounds(&below_8, &all_null).0, int(-3));
    }

    /// An `Emit` lays out exactly the wanted variables, in canonical order.
    #[test]
    fn emit_binds_only_what_is_wanted() {
        let star = Star {
            subject_var: VarId(0),
            subject_const: None,
            props: vec![
                StarProp {
                    pred: Oid::iri(1),
                    o: VarOrOid::Var(VarId(3)),
                },
                StarProp {
                    pred: Oid::iri(2),
                    o: VarOrOid::Const(Oid::iri(9)),
                },
                StarProp {
                    pred: Oid::iri(3),
                    o: VarOrOid::Var(VarId(1)),
                },
            ],
        };
        let all = Emit::all(&star);
        assert_eq!(all.vars, vec![VarId(0), VarId(3), VarId(1)]);
        assert_eq!(
            (all.subject, &all.props[..]),
            (Some(0), &[Some(1), None, Some(2)][..])
        );
        let some = Emit::of(&star, |v| v == VarId(1));
        assert_eq!(some.vars, vec![VarId(1)]);
        assert_eq!(
            (some.subject, &some.props[..]),
            (None, &[None, None, Some(0)][..])
        );
        let none = Emit::of(&star, |_| false);
        assert!(none.vars.is_empty() && none.subject.is_none());
    }
}
