//! Per-property access paths: s-sorted (subject, object) streams.
//!
//! This is the "IdxScan" of the paper's Fig. 4. On baseline storage a
//! property scan is a PSO/POS prefix lookup; on clustered storage the
//! stream is stitched together from the class segments that store the
//! property (the aligned "stretches" of the clustered PSO table) plus the
//! irregular remainder. Object restrictions use the POS permutation, the
//! segment sort order, or zone maps, depending on what is available.
//!
//! When the context carries a [`sordf_storage::DeltaView`] (pending writes),
//! every property scan becomes a *merged source*: the predicate's tombstones
//! (a borrowed, (s, o)-sorted slice of the view) are subtracted from the
//! base-resident pairs by a merge cursor and the view's visible insert runs
//! are unioned in (`apply_delta_pairs`) before the stream is sorted — so
//! downstream operators see one (s, o)-sorted stream regardless of how many
//! physical sources contributed, and a predicate without tombstones pays
//! two binary searches to learn that.

use crate::context::{ExecContext, ExecStats, StorageRef};
use sordf_model::{Oid, Triple};
use sordf_storage::clustered::SubjectIds;
use sordf_storage::{BaselineStore, Order};

/// Object-side restriction pushed into a scan (raw OID bounds, inclusive):
/// one value (`eq`), or one range plus, for a bound on a number, a second
/// one (`also`). A number compares by value with both numeric types, which
/// are two tags (`Int`, `Dec`), so its bound admits one range in each.
#[derive(Debug, Clone, Copy, Default)]
pub struct ORestrict {
    pub eq: Option<Oid>,
    pub range: Option<(u64, u64)>,
    /// A second admitted range above `range` and disjoint from it; only set
    /// with `range`.
    pub also: Option<(u64, u64)>,
}

impl ORestrict {
    pub fn none() -> ORestrict {
        ORestrict::default()
    }

    pub fn eq(o: Oid) -> ORestrict {
        ORestrict {
            eq: Some(o),
            ..ORestrict::default()
        }
    }

    /// The raw OIDs in `[lo, hi]`.
    pub fn range(lo: u64, hi: u64) -> ORestrict {
        ORestrict {
            range: Some((lo, hi)),
            ..ORestrict::default()
        }
    }

    pub fn is_none(&self) -> bool {
        self.eq.is_none() && self.range.is_none()
    }

    /// Does a raw value pass?
    #[inline]
    pub fn accepts(&self, v: u64) -> bool {
        if let Some(eq) = self.eq {
            if v != eq.raw() {
                return false;
            }
        }
        if let Some((lo, hi)) = self.range {
            if (v < lo || v > hi) && !self.also.is_some_and(|(lo, hi)| v >= lo && v <= hi) {
                return false;
            }
        }
        true
    }

    /// The admitted raw ranges: the equality as a one-value range, else
    /// `range` and `also`; everything when unrestricted.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u64)> {
        let first = match (self.eq, self.range) {
            (Some(eq), _) => (eq.raw(), eq.raw()),
            (None, Some(r)) => r,
            (None, None) => (0, u64::MAX),
        };
        std::iter::once(first).chain(self.also.filter(|_| self.eq.is_none()))
    }

    /// Effective raw bounds: the hull of the spans.
    pub fn bounds(&self) -> (u64, u64) {
        self.spans()
            .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)))
    }

    /// The hull of the spans that meet `[min, max]`: on values inside it,
    /// as exact as the restriction itself — a column holds the values of
    /// one type tag, so its global zone map picks the one span that applies
    /// (zone-map pruning, sort-key narrowing, estimates). `(1, 0)` when no
    /// span meets it.
    pub fn bounds_within(&self, min: u64, max: u64) -> (u64, u64) {
        self.spans()
            .filter(|&(lo, hi)| lo <= max && hi >= min)
            .fold((1, 0), |(lo, hi), (a, b)| {
                if lo > hi {
                    (a, b)
                } else {
                    (lo.min(a), hi.max(b))
                }
            })
    }

    /// Does only a handful of single values pass (an equality, or a number's
    /// `=`)? Estimates treat it as a point.
    pub fn is_point(&self) -> bool {
        self.eq.is_some() || (!self.is_none() && self.spans().all(|(lo, hi)| lo == hi))
    }
}

/// Subject-side restriction (raw OID bounds, inclusive) — used by the
/// zone-map cross-table pushdown.
pub(crate) type SRange = Option<(u64, u64)>;

/// Which part of the storage to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Everything (segments + irregular, or the whole baseline store).
    Full,
    /// Only the irregular triple table of a clustered store.
    IrregularOnly,
}

/// Scan all (s, o) pairs of predicate `p`, restricted by `restrict` on the
/// object and `s_range` on the subject. The result is sorted by (s, o).
pub(crate) fn scan_property(
    cx: &ExecContext,
    p: Oid,
    restrict: &ORestrict,
    s_range: SRange,
    source: Source,
) -> Vec<(Oid, Oid)> {
    cx.check_cancelled();
    ExecStats::bump(&cx.stats.property_scans, 1);
    let mut out = match (&cx.storage, source) {
        (StorageRef::Baseline(store), _) => scan_baseline(cx, store, p, restrict, s_range),
        (StorageRef::Clustered { store, .. }, Source::IrregularOnly) => {
            scan_baseline(cx, &store.irregular, p, restrict, s_range)
        }
        (StorageRef::Clustered { store, schema }, Source::Full) => {
            let mut pairs = Vec::new();
            for (class, coli) in schema.classes_with_column(p) {
                scan_segment_column(
                    cx,
                    store.segment(class),
                    coli,
                    restrict,
                    s_range,
                    &mut pairs,
                );
            }
            for (class, mi) in schema.classes_with_multi(p) {
                scan_multi_table(cx, store.segment(class), mi, restrict, s_range, &mut pairs);
            }
            pairs.extend(scan_baseline(cx, &store.irregular, p, restrict, s_range));
            pairs
        }
    };
    apply_delta_pairs(cx, p, restrict, s_range, &mut out);
    // Segments were appended in class order; different sources may
    // interleave in subject space (sparse segments, irregular exceptions,
    // delta runs).
    out.sort_unstable();
    ExecStats::bump(&cx.stats.rows_scanned, out.len() as u64);
    out
}

/// Merge the context's delta view into one property's (s, o) stream: drop
/// base-resident pairs the view tombstones, then union the visible insert
/// runs (restricted like the base scan); callers sort afterwards. Delta
/// triples are logically irregular — they belong to
/// both `Source::Full` and `Source::IrregularOnly` streams, which is what
/// routes them into RDFscan's exception lists for subjects that live inside
/// class segments.
fn apply_delta_pairs(
    cx: &ExecContext,
    p: Oid,
    restrict: &ORestrict,
    s_range: SRange,
    out: &mut Vec<(Oid, Oid)>,
) {
    let Some(delta) = cx.delta() else { return };
    subtract_tombstones(out, delta.tombstones_for(p, s_range));
    out.extend(
        delta
            .insert_pairs_for(p, s_range)
            .filter(|&(_, o)| restrict.accepts(o.raw())),
    );
}

/// Drop from `pairs` every pair listed in `tombs` (one predicate's
/// tombstones, (s, o)-sorted and distinct). `pairs` is a concatenation of
/// physical sources, each (s, o)-ascending except the (o, s)-ordered POS
/// range path: a cursor into `tombs` advances with the pairs while they
/// ascend — one merge pass per source — and is re-seated by binary search
/// wherever the order breaks (a source boundary, or nearly every step of a
/// POS range). No pair is hashed, and with no tombstones nothing is touched.
fn subtract_tombstones(pairs: &mut Vec<(Oid, Oid)>, tombs: &[Triple]) {
    if tombs.is_empty() {
        return;
    }
    let mut at = 0usize; // invariant after each step: lower bound of the pair in `tombs`
    let mut prev = (Oid::from_raw(0), Oid::from_raw(0));
    pairs.retain(|&pair| {
        if pair < prev {
            at = tombs.partition_point(|t| (t.s, t.o) < pair);
        } else {
            while tombs.get(at).is_some_and(|t| (t.s, t.o) < pair) {
                at += 1;
            }
        }
        prev = pair;
        !tombs.get(at).is_some_and(|t| (t.s, t.o) == pair)
    });
}

/// Property scan against a permutation-indexed store.
fn scan_baseline(
    cx: &ExecContext,
    store: &BaselineStore,
    p: Oid,
    restrict: &ORestrict,
    s_range: SRange,
) -> Vec<(Oid, Oid)> {
    let pool = cx.pool;
    if let Some(eq) = restrict.eq {
        // POS: exact object lookup, subjects sorted.
        let idx = store.perm(Order::Pos);
        let mut r = idx.range2(pool, p, eq);
        if let Some((lo, hi)) = s_range {
            let start = idx.col(2).lower_bound_in(pool, r.clone(), lo);
            let end = idx.col(2).upper_bound_in(pool, r.clone(), hi);
            r = start..end.max(start);
        }
        let mut out = Vec::with_capacity(r.len());
        idx.col(2).for_each_chunk(pool, r, |c| {
            out.extend(c.values().iter().map(|&s| (Oid::from_raw(s), eq)));
        });
        return out;
    }
    if restrict.range.is_some() {
        // POS range scans, one per span: pairs arrive (o, s)-sorted; caller
        // re-sorts.
        let idx = store.perm(Order::Pos);
        let mut out = Vec::new();
        for (lo, hi) in restrict.spans() {
            let r = idx.range2_between(pool, p, Oid::from_raw(lo), Oid::from_raw(hi));
            out.reserve(r.len());
            sordf_columnar::Column::for_each_chunk_pair(
                idx.col(2),
                idx.col(1),
                pool,
                r,
                |sc, oc| {
                    out.extend(
                        sc.values()
                            .iter()
                            .zip(oc.values())
                            .filter(|&(&s, _)| s_range.map_or(true, |(lo, hi)| s >= lo && s <= hi))
                            .map(|(&s, &o)| (Oid::from_raw(s), Oid::from_raw(o))),
                    );
                },
            );
        }
        return out;
    }
    // Plain PSO scan.
    let idx = store.perm(Order::Pso);
    let mut r = idx.range1(pool, p);
    if let Some((lo, hi)) = s_range {
        let start = idx.col(1).lower_bound_in(pool, r.clone(), lo);
        let end = idx.col(1).upper_bound_in(pool, r.clone(), hi);
        r = start..end.max(start);
    }
    idx.pairs(pool, r)
}

/// Extract (subject, value) pairs from one class segment column.
fn scan_segment_column(
    cx: &ExecContext,
    seg: &sordf_storage::ClassSegment,
    coli: usize,
    restrict: &ORestrict,
    s_range: SRange,
    out: &mut Vec<(Oid, Oid)>,
) {
    let pool = cx.pool;
    let col = &seg.columns[coli];
    // Row range from the subject restriction.
    let mut rows = 0..seg.n;
    if let Some((lo, hi)) = s_range {
        match &seg.subjects {
            SubjectIds::Dense { base } => {
                let lo_oid = Oid::from_raw(lo);
                let hi_oid = Oid::from_raw(hi);
                // The range may span non-IRI tags; clamp to the IRI space.
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
                let start = subjects.lower_bound(pool, lo);
                let end = subjects.upper_bound(pool, hi);
                if start >= end {
                    return;
                }
                rows = start..end;
            }
        }
    }
    // Row range from the object restriction when the segment is sub-ordered
    // by this very column.
    let (olo, ohi) = column_bounds(restrict, col);
    if !restrict.is_none() {
        if let Some(r) = seg.sorted_row_range(pool, coli, olo, ohi) {
            rows = rows.start.max(r.start)..rows.end.min(r.end);
        }
    }
    if rows.start >= rows.end {
        return;
    }
    // Page-at-a-time scan. The zone-map check (and the all-NULL fast path)
    // runs *before* a page is pinned, so pruned pages cost no pool request;
    // the subject column of a sparse segment shares the value column's page
    // geometry and is pinned in lockstep.
    let use_zonemaps = cx.config.zonemaps && !restrict.is_none();
    let row_range = rows.clone();
    col.for_each_chunk_pruned(
        pool,
        rows,
        |_, st| {
            // Runs once per page before it is pinned: the per-chunk
            // cancellation poll of the property scans.
            cx.check_cancelled();
            if st.n_nonnull == 0 {
                // Only NULL sentinels here; nothing can be emitted.
                return false;
            }
            if use_zonemaps && !st.overlaps(olo, ohi) {
                ExecStats::bump(&cx.stats.zonemap_pages_skipped, 1);
                return false;
            }
            ExecStats::bump(&cx.stats.pages_scanned, 1);
            true
        },
        |chunk| match &seg.subjects {
            SubjectIds::Dense { base } => {
                let s0 = base + chunk.start as u64;
                for (i, &v) in chunk.values().iter().enumerate() {
                    if v != sordf_columnar::column::NULL_SENTINEL && restrict.accepts(v) {
                        out.push((Oid::iri(s0 + i as u64), Oid::from_raw(v)));
                    }
                }
            }
            SubjectIds::Sparse { subjects } => {
                let p = chunk.start / sordf_columnar::VALS_PER_PAGE;
                let subj = subjects.pin_page_in(pool, p, row_range.clone());
                for (&v, &s) in chunk.values().iter().zip(subj.values()) {
                    if v != sordf_columnar::column::NULL_SENTINEL && restrict.accepts(v) {
                        out.push((Oid::from_raw(s), Oid::from_raw(v)));
                    }
                }
            }
        },
    );
}

/// `restrict`'s bounds on the values of `col` ([`ORestrict::bounds_within`]
/// its global zone map; the hull when it holds no value).
pub(crate) fn column_bounds(restrict: &ORestrict, col: &sordf_columnar::Column) -> (u64, u64) {
    let zm = col.zonemap();
    match zm.global_min().zip(zm.global_max()) {
        Some((min, max)) => restrict.bounds_within(min, max),
        None => restrict.bounds(),
    }
}

/// Extract pairs from a multi-valued side table.
fn scan_multi_table(
    cx: &ExecContext,
    seg: &sordf_storage::ClassSegment,
    mi: usize,
    restrict: &ORestrict,
    s_range: SRange,
    out: &mut Vec<(Oid, Oid)>,
) {
    let pool = cx.pool;
    let table = &seg.multi[mi];
    let mut rows = 0..table.s.len();
    if let Some((lo, hi)) = s_range {
        let start = table.s.lower_bound(pool, lo);
        let end = table.s.upper_bound(pool, hi);
        rows = start..end.max(start);
    }
    if rows.start >= rows.end {
        return;
    }
    // (s, o) columns share page geometry; pin both in lockstep per page.
    sordf_columnar::Column::for_each_chunk_pair(&table.s, &table.o, pool, rows, |sc, oc| {
        for (&s, &o) in sc.values().iter().zip(oc.values()) {
            if restrict.accepts(o) {
                out.push((Oid::from_raw(s), Oid::from_raw(o)));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ExecConfig, PlanScheme};
    use sordf_columnar::{BufferPool, DiskManager};
    use sordf_model::Term;
    use sordf_schema::SchemaConfig;
    use sordf_storage::{build_clustered, reorganize, ClusterSpec, TripleSet};
    use std::sync::Arc;

    struct Fixture {
        _dm: Arc<DiskManager>,
        pool: BufferPool,
        ts: TripleSet,
        baseline: sordf_storage::BaselineStore,
        clustered: sordf_storage::ClusteredStore,
        schema: sordf_schema::EmergentSchema,
    }

    fn fixture() -> Fixture {
        let mut ts = TripleSet::new();
        let mut add = |s: String, p: &str, o: Term| {
            ts.add(&sordf_model::TermTriple::new(
                Term::iri(s),
                Term::iri(format!("http://e/{p}")),
                o,
            ))
            .unwrap();
        };
        for i in 0..200u64 {
            add(
                format!("http://e/item{i}"),
                "qty",
                Term::int((i % 50) as i64),
            );
            add(
                format!("http://e/item{i}"),
                "sold",
                Term::date(&format!("1996-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
            );
        }
        // An irregular exception: one extra string-typed qty.
        add("http://e/item0".into(), "qty", Term::str("n/a"));

        let dm = Arc::new(DiskManager::temp().unwrap());
        let spo = ts.sorted_spo();
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
        let spec = ClusterSpec::auto(&schema);
        reorganize(&mut ts, &mut schema, &spec);
        let spo = ts.sorted_spo();
        // Both stores over the same (reorganized) OIDs so that one dict
        // serves both contexts in these unit tests.
        let baseline = sordf_storage::BaselineStore::build(&dm, &spo);
        let clustered = build_clustered(&dm, &spo, &mut schema, &spec, true);
        let pool = BufferPool::new(Arc::clone(&dm), 1024);
        Fixture {
            _dm: dm,
            pool,
            ts,
            baseline,
            clustered,
            schema,
        }
    }

    fn cx<'a>(f: &'a Fixture, clustered: bool) -> ExecContext<'a> {
        let storage = if clustered {
            StorageRef::Clustered {
                store: &f.clustered,
                schema: &f.schema,
            }
        } else {
            StorageRef::Baseline(&f.baseline)
        };
        ExecContext::new(
            &f.pool,
            &f.ts.dict,
            storage,
            ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps: true,
                ..Default::default()
            },
        )
    }

    /// NOTE: baseline was built *before* reorganization, so its OIDs differ
    /// from the clustered store's. Counting and value-distribution checks
    /// remain comparable; exact OID equality does not.
    #[test]
    fn full_scan_counts_agree() {
        let f = fixture();
        let c = cx(&f, true);
        let qty_new = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let pairs = scan_property(&c, qty_new, &ORestrict::none(), None, Source::Full);
        assert_eq!(pairs.len(), 201, "200 ints + 1 string exception");
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "sorted by (s,o)");
    }

    #[test]
    fn eq_restrict() {
        let f = fixture();
        let c = cx(&f, true);
        let qty = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let five = Oid::from_int(5).unwrap();
        let pairs = scan_property(&c, qty, &ORestrict::eq(five), None, Source::Full);
        assert_eq!(pairs.len(), 4, "i % 50 == 5 for 4 of 200");
        assert!(pairs.iter().all(|&(_, o)| o == five));
    }

    #[test]
    fn range_restrict_on_sorted_segment() {
        let f = fixture();
        let c = cx(&f, true);
        let sold = f.ts.dict.iri_oid("http://e/sold").unwrap();
        let lo = Oid::from_date_days(sordf_model::date::parse_date("1996-03-01").unwrap()).unwrap();
        let hi = Oid::from_date_days(sordf_model::date::parse_date("1996-04-30").unwrap()).unwrap();
        let r = ORestrict::range(lo.raw(), hi.raw());
        let pairs = scan_property(&c, sold, &r, None, Source::Full);
        // Months 3 and 4 -> 2/12 of 200 ≈ 33 subjects (months cycle i%12).
        let expect = (0..200u64)
            .filter(|i| (i % 12) + 1 == 3 || (i % 12) + 1 == 4)
            .count();
        assert_eq!(pairs.len(), expect);
        assert!(pairs.iter().all(|&(_, o)| o >= lo && o <= hi));
    }

    #[test]
    fn baseline_range_restrict_matches_clustered() {
        let f = fixture();
        let sold_results: Vec<usize> = [false, true]
            .iter()
            .map(|&clu| {
                let c = cx(&f, clu);
                let sold = f.ts.dict.iri_oid("http://e/sold").unwrap();
                let lo = Oid::from_date_days(sordf_model::date::parse_date("1996-06-01").unwrap())
                    .unwrap();
                let hi = Oid::from_date_days(sordf_model::date::parse_date("1996-06-30").unwrap())
                    .unwrap();
                let r = ORestrict::range(lo.raw(), hi.raw());
                scan_property(&c, sold, &r, None, Source::Full).len()
            })
            .collect();
        assert_eq!(sold_results[0], sold_results[1]);
    }

    #[test]
    fn s_range_restricts_subjects() {
        let f = fixture();
        let c = cx(&f, true);
        let qty = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let all = scan_property(&c, qty, &ORestrict::none(), None, Source::Full);
        let mid_lo = all[50].0.raw();
        let mid_hi = all[99].0.raw();
        let some = scan_property(
            &c,
            qty,
            &ORestrict::none(),
            Some((mid_lo, mid_hi)),
            Source::Full,
        );
        assert!(some
            .iter()
            .all(|&(s, _)| s.raw() >= mid_lo && s.raw() <= mid_hi));
        assert_eq!(some.len(), 50);
    }

    #[test]
    fn irregular_only_source() {
        let f = fixture();
        let c = cx(&f, true);
        let qty = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let irr = scan_property(&c, qty, &ORestrict::none(), None, Source::IrregularOnly);
        assert_eq!(irr.len(), 1, "only the string exception is irregular");
    }

    #[test]
    fn delta_merges_into_scans() {
        let f = fixture();
        let qty = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let base = {
            let c = cx(&f, true);
            scan_property(&c, qty, &ORestrict::none(), None, Source::Full)
        };
        // Delete one base triple, insert one brand-new subject, and insert a
        // second value for an existing subject.
        let (s0, o0) = base[0];
        let (s1, _) = base[1];
        let new_s = Oid::iri(900_000);
        let seven = Oid::from_int(7).unwrap();
        let mut delta = sordf_storage::DeltaStore::new();
        let _ = delta.delete(&[Triple::new(s0, qty, o0)]);
        let _ = delta.insert_run(vec![
            Triple::new(new_s, qty, seven),
            Triple::new(s1, qty, seven),
        ]);
        let view = delta.current_view_arc().unwrap();
        // The base without the tombstone, with both inserts, (s, o)-sorted.
        let mut want: Vec<(Oid, Oid)> = base[1..].to_vec();
        want.extend([(new_s, seven), (s1, seven)]);
        want.sort_unstable();

        for clustered in [false, true] {
            let c = cx(&f, clustered).with_delta(Some(view.clone()));
            let merged = scan_property(&c, qty, &ORestrict::none(), None, Source::Full);
            assert_eq!(merged, want, "clustered={clustered}");
            // Restrictions apply to delta pairs too.
            let only7 = scan_property(&c, qty, &ORestrict::eq(seven), None, Source::Full);
            assert!(only7.contains(&(new_s, seven)));
            assert!(only7.iter().all(|&(_, o)| o == seven));
            // Subject ranges narrow delta pairs.
            let none = scan_property(
                &c,
                qty,
                &ORestrict::none(),
                Some((new_s.raw() + 1, u64::MAX)),
                Source::Full,
            );
            assert!(!none.contains(&(new_s, seven)));
        }
        // Delta triples are logically irregular: IrregularOnly sees them.
        let c = cx(&f, true).with_delta(Some(view.clone()));
        let irr = scan_property(&c, qty, &ORestrict::none(), None, Source::IrregularOnly);
        assert!(irr.contains(&(new_s, seven)));
        assert!(irr.contains(&(s1, seven)));
    }

    #[test]
    fn zonemap_skips_pages_on_selective_scan() {
        let f = fixture();
        let c = cx(&f, true);
        let sold = f.ts.dict.iri_oid("http://e/sold").unwrap();
        // Tiny range on the *non-sort* column qty to force zone-map pruning
        // (sold is the sort key; qty pages are unordered).
        let _ = sold;
        let qty = f.ts.dict.iri_oid("http://e/qty").unwrap();
        let v = Oid::from_int(3).unwrap();
        let r = ORestrict::range(v.raw(), v.raw());
        let pairs = scan_property(&c, qty, &r, None, Source::Full);
        assert_eq!(pairs.len(), 4);
        // 200 rows fit in one page, so nothing skippable here — just make
        // sure the counter exists and nothing crashed with zonemaps on.
        let _ = ExecStats::get(&c.stats.zonemap_pages_skipped);
    }
}
