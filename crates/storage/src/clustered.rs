//! CS-clustered storage: per-class column segments + irregular remainder.
//!
//! "The core idea of our novel RDF storage proposal is to store RDF data
//! that has been recognized as conforming to a characteristic set together
//! in an aligned way, such that for a whole stretch of subjects we get
//! aligned stretches of Objects" (§II-C). Missing `0..1` values are NULL
//! sentinels; multi-valued properties live in (subject, object) side tables;
//! everything the schema calls irregular stays in a small exhaustive-index
//! triple table, so each (s,p,o) has exactly one home.
//!
//! Two subject layouts exist, matching Table I's "Scheme" axis:
//! * **Dense** (Clustered) — after [`crate::reorganize`], a class's subjects
//!   are the implicit OID range `[base, base+n)`; the subject column costs
//!   no storage and row↔subject conversion is O(1).
//! * **Sparse** (ParseOrder) — subjects keep their parse-order OIDs; the
//!   segment stores an explicit sorted subject column. RDFscan still works,
//!   but locality and zone-map clustering benefits are lost.

use crate::baseline::BaselineStore;
use crate::generation::BaseLayout;
use crate::reorg::ClusterSpec;
use sordf_columnar::column::NULL_SENTINEL;
use sordf_columnar::disk::VALS_PER_PAGE;
use sordf_columnar::{BufferPool, Chunk, Column, DiskManager};
use sordf_model::{Oid, Triple};
use sordf_schema::{ClassId, EmergentSchema, TripleHome};

/// A multi-valued property's side table: (s, o) pairs sorted by (s, o).
#[derive(Debug, Clone)]
pub struct MultiTable {
    /// The property.
    pub p: Oid,
    pub s: Column,
    pub o: Column,
}

impl MultiTable {
    /// Row range of one subject's values.
    pub fn rows_of(&self, pool: &BufferPool, s: Oid) -> std::ops::Range<usize> {
        let lo = self.s.lower_bound(pool, s.raw());
        let hi = self.s.upper_bound(pool, s.raw());
        lo..hi
    }
}

/// How a segment identifies its subjects.
#[derive(Debug, Clone)]
pub enum SubjectIds {
    /// Subjects are exactly the IRI payload range `[base, base+n)`.
    Dense { base: u64 },
    /// Explicit ascending subject column (parse-order OIDs).
    Sparse { subjects: Column },
}

/// One class's aligned columnar storage.
#[derive(Debug, Clone)]
pub struct ClassSegment {
    pub class: ClassId,
    pub n: usize,
    pub subjects: SubjectIds,
    /// Aligned value columns, same order as `ClassDef::columns`.
    pub columns: Vec<Column>,
    /// The property of each column.
    pub preds: Vec<Oid>,
    /// Side tables, same order as `ClassDef::multi_props`.
    pub multi: Vec<MultiTable>,
    /// Column index the segment rows are sub-ordered by, if any
    /// (dense layout only; enables binary search on that column).
    pub sorted_by: Option<usize>,
}

impl ClassSegment {
    /// The subject OID of a row.
    #[inline]
    pub fn subject_at(&self, pool: &BufferPool, row: usize) -> Oid {
        match &self.subjects {
            SubjectIds::Dense { base } => Oid::iri(base + row as u64),
            SubjectIds::Sparse { subjects } => Oid::from_raw(subjects.value(pool, row)),
        }
    }

    /// Subject OIDs of `rows` (ascending), pinning each subject page once —
    /// the batched counterpart of [`ClassSegment::subject_at`] for
    /// candidate-driven scans.
    pub fn subjects_at(&self, pool: &BufferPool, rows: &[usize]) -> Vec<Oid> {
        match &self.subjects {
            SubjectIds::Dense { base } => rows.iter().map(|&r| Oid::iri(base + r as u64)).collect(),
            SubjectIds::Sparse { subjects } => subjects
                .gather(pool, rows)
                .into_iter()
                .map(Oid::from_raw)
                .collect(),
        }
    }

    /// The row of a subject, if it belongs to this segment.
    pub fn row_of(&self, pool: &BufferPool, s: Oid) -> Option<usize> {
        if !s.is_iri() {
            return None;
        }
        match &self.subjects {
            SubjectIds::Dense { base } => {
                let p = s.payload();
                (p >= *base && p < base + self.n as u64).then(|| (p - base) as usize)
            }
            SubjectIds::Sparse { subjects } => {
                let i = subjects.lower_bound(pool, s.raw());
                (i < self.n && subjects.value(pool, i) == s.raw()).then_some(i)
            }
        }
    }

    /// Subject payload range for dense segments.
    pub fn dense_range(&self) -> Option<std::ops::Range<u64>> {
        match &self.subjects {
            SubjectIds::Dense { base } => Some(*base..base + self.n as u64),
            SubjectIds::Sparse { .. } => None,
        }
    }

    /// Row range whose `sorted_by` column values lie in `[lo, hi]` (raw OID
    /// bounds). Only meaningful when the segment is sub-ordered.
    pub fn sorted_row_range(
        &self,
        pool: &BufferPool,
        col: usize,
        lo: u64,
        hi: u64,
    ) -> Option<std::ops::Range<usize>> {
        if self.sorted_by != Some(col) {
            return None;
        }
        let c = &self.columns[col];
        Some(c.lower_bound(pool, lo)..c.upper_bound(pool, hi))
    }

    /// The first subject, if any (a segment's subjects ascend).
    fn first_subject(&self, pool: &BufferPool) -> Option<Oid> {
        (self.n > 0).then(|| self.subject_at(pool, 0))
    }

    /// Columns and side tables in predicate order: the order a subject's
    /// triples take.
    fn slots(&self) -> Vec<(Oid, Slot)> {
        let columns = self
            .preds
            .iter()
            .enumerate()
            .map(|(c, &p)| (p, Slot::Column(c)));
        let multi = self
            .multi
            .iter()
            .enumerate()
            .map(|(m, t)| (t.p, Slot::Multi(m)));
        let mut slots: Vec<(Oid, Slot)> = columns.chain(multi).collect();
        slots.sort_unstable_by_key(|&(p, _)| p);
        slots
    }

    /// Append the segment's triples to `out` in SPO order, row by row: a
    /// page of every column pinned at a time, the side tables decoded whole
    /// and read by a cursor each.
    fn push_spo(&self, pool: &BufferPool, out: &mut Vec<Triple>) {
        let slots = self.slots();
        let multi: Vec<(Vec<u64>, Vec<u64>)> = self
            .multi
            .iter()
            .map(|m| {
                (
                    m.s.to_vec(pool, 0..m.s.len()),
                    m.o.to_vec(pool, 0..m.o.len()),
                )
            })
            .collect();
        let mut next = vec![0usize; multi.len()];
        for page in 0..self.n.div_ceil(VALS_PER_PAGE) {
            let rows = page * VALS_PER_PAGE..self.n.min((page + 1) * VALS_PER_PAGE);
            let chunks: Vec<Chunk> = self
                .columns
                .iter()
                .map(|c| c.pin_page(pool, page))
                .collect();
            let (base, subjects) = match &self.subjects {
                SubjectIds::Dense { base } => (*base, None),
                SubjectIds::Sparse { subjects } => (0, Some(subjects.pin_page(pool, page))),
            };
            for (i, row) in rows.enumerate() {
                let s = subjects.as_ref().map_or(Oid::iri(base + row as u64), |c| {
                    Oid::from_raw(c.values()[i])
                });
                for &(p, slot) in &slots {
                    match slot {
                        Slot::Column(c) => {
                            let o = chunks[c].values()[i];
                            if o != NULL_SENTINEL {
                                out.push(Triple::new(s, p, Oid::from_raw(o)));
                            }
                        }
                        Slot::Multi(m) => {
                            let ((ms, mo), at) = (&multi[m], &mut next[m]);
                            while ms.get(*at) == Some(&s.raw()) {
                                out.push(Triple::new(s, p, Oid::from_raw(mo[*at])));
                                *at += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Where a segment keeps one property of its subjects.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Column(usize),
    Multi(usize),
}

/// The clustered database: segments + irregular remainder.
#[derive(Debug, Clone)]
pub struct ClusteredStore {
    /// One segment per schema class, indexed by `ClassId`.
    pub segments: Vec<ClassSegment>,
    /// Exhaustive-index store over the irregular triples only.
    pub irregular: BaselineStore,
    /// Triples stored in segments (columns + side tables).
    pub n_regular: usize,
    /// Leases the *segment* pages (the irregular store leases its own):
    /// freed when the last clone drops. Shared across clones so the extent
    /// is freed exactly once.
    _lease: std::sync::Arc<sordf_columnar::PageLease>,
}

impl ClusteredStore {
    pub fn segment(&self, class: ClassId) -> &ClassSegment {
        &self.segments[class.0 as usize]
    }

    /// Total triples stored (regular + irregular).
    pub fn n_triples(&self) -> usize {
        self.n_regular + self.irregular.len()
    }

    /// The segment and row of subject `s`, if a class holds it.
    fn locate(&self, pool: &BufferPool, s: Oid) -> Option<(&ClassSegment, usize)> {
        self.segments
            .iter()
            .find_map(|seg| Some((seg, seg.row_of(pool, s)?)))
    }

    /// Bytes a scan of the segment columns must touch (encoded size),
    /// excluding the irregular store (accounted separately).
    pub fn segment_used_bytes(&self) -> usize {
        let mut n = 0;
        for seg in &self.segments {
            if let SubjectIds::Sparse { subjects } = &seg.subjects {
                n += subjects.used_bytes();
            }
            n += seg.columns.iter().map(|c| c.used_bytes()).sum::<usize>();
            n += seg
                .multi
                .iter()
                .map(|m| m.s.used_bytes() + m.o.used_bytes())
                .sum::<usize>();
        }
        n
    }

    /// Bytes the segments would occupy without page compression.
    pub fn segment_plain_bytes(&self) -> usize {
        let mut n = 0;
        for seg in &self.segments {
            if let SubjectIds::Sparse { subjects } = &seg.subjects {
                n += subjects.plain_bytes();
            }
            n += seg.columns.iter().map(|c| c.plain_bytes()).sum::<usize>();
            n += seg
                .multi
                .iter()
                .map(|m| m.s.plain_bytes() + m.o.plain_bytes())
                .sum::<usize>();
        }
        n
    }
}

impl BaseLayout for ClusteredStore {
    fn n_triples(&self) -> usize {
        ClusteredStore::n_triples(self)
    }

    /// Every stored triple in SPO order, duplicates included: each
    /// segment's rows (columns and side tables in predicate order), merged
    /// with the irregular triples.
    fn triples_spo(&self, pool: &BufferPool) -> Vec<Triple> {
        let mut segments: Vec<(Oid, &ClassSegment)> = self
            .segments
            .iter()
            .filter_map(|seg| Some((seg.first_subject(pool)?, seg)))
            .collect();
        segments.sort_unstable_by_key(|&(first, _)| first);
        let mut out = Vec::with_capacity(self.n_triples());
        for (_, seg) in segments {
            seg.push_spo(pool, &mut out);
        }
        self.irregular.push_pso(pool, &mut out);
        // Sorted runs: the segments (one run when dense, whose classes are
        // disjoint subject ranges) and one per irregular predicate. The
        // run-adaptive stable sort merges them.
        out.sort();
        out
    }

    /// How many times the store holds `t`: at most once in its subject's
    /// column, any number of times in a side table, and in the irregular
    /// triples.
    fn occurrences(&self, pool: &BufferPool, t: Triple) -> usize {
        let regular = match self.locate(pool, t.s) {
            Some((seg, row)) => {
                if let Some(c) = seg.preds.iter().position(|&p| p == t.p) {
                    usize::from(seg.columns[c].value(pool, row) == t.o.raw())
                } else if let Some(m) = seg.multi.iter().find(|m| m.p == t.p) {
                    let rows = m.rows_of(pool, t.s);
                    m.o.to_vec(pool, rows)
                        .into_iter()
                        .filter(|&o| o == t.o.raw())
                        .count()
                } else {
                    0
                }
            }
            None => 0,
        };
        regular + self.irregular.occurrences(pool, t)
    }

    /// Append the triples of subject `s` to `out`, in SPO order.
    fn of_subject(&self, pool: &BufferPool, s: Oid, out: &mut Vec<Triple>) {
        let from = out.len();
        if let Some((seg, row)) = self.locate(pool, s) {
            for (col, &p) in seg.columns.iter().zip(&seg.preds) {
                let o = col.value(pool, row);
                if o != NULL_SENTINEL {
                    out.push(Triple::new(s, p, Oid::from_raw(o)));
                }
            }
            for m in &seg.multi {
                let rows = m.rows_of(pool, s);
                let os = m.o.to_vec(pool, rows);
                out.extend(
                    os.into_iter()
                        .map(|o| Triple::new(s, m.p, Oid::from_raw(o))),
                );
            }
        }
        self.irregular.of_subject(pool, s, out);
        out[from..].sort_unstable();
    }
}

/// Build a clustered store from SPO-sorted triples.
///
/// * `dense` = true: subjects were renumbered by [`crate::reorganize`]
///   (class ranges are contiguous) — Table I's "Clustered" scheme.
/// * `dense` = false: parse-order OIDs; explicit subject columns —
///   Table I's "ParseOrder" scheme with CS tables.
///
/// Refreshes `schema` column statistics (min/max/non-null) from the built
/// columns' zone maps, so stats stay valid after reorganization.
pub fn build_clustered(
    disk: &std::sync::Arc<DiskManager>,
    triples_spo: &[Triple],
    schema: &mut EmergentSchema,
    spec: &ClusterSpec,
    dense: bool,
) -> ClusteredStore {
    debug_assert!(
        triples_spo
            .windows(2)
            .all(|w| w[0].key_spo() <= w[1].key_spo()),
        "build_clustered() requires SPO-sorted triples"
    );
    let n_classes = schema.classes.len();

    // Per-class subject row mapping.
    let mut subjects_per_class: Vec<Vec<u64>> = vec![Vec::new(); n_classes];
    for (&s, &class) in &schema.assignment {
        subjects_per_class[class.0 as usize].push(s.raw());
    }
    for v in subjects_per_class.iter_mut() {
        v.sort_unstable();
    }
    if dense {
        // Contiguity check: clustering must have produced dense ranges.
        for (ci, subs) in subjects_per_class.iter().enumerate() {
            if let (Some(&first), Some(&last)) = (subs.first(), subs.last()) {
                let span = Oid::from_raw(last).payload() - Oid::from_raw(first).payload() + 1;
                assert_eq!(
                    span as usize,
                    subs.len(),
                    "class {ci} subject OIDs are not contiguous; run reorganize() first"
                );
            }
        }
    }

    // Staging buffers.
    let mut col_data: Vec<Vec<Vec<u64>>> = schema
        .classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            vec![
                vec![sordf_columnar::column::NULL_SENTINEL; subjects_per_class[ci].len()];
                c.columns.len()
            ]
        })
        .collect();
    let mut multi_data: Vec<Vec<Vec<(u64, u64)>>> = schema
        .classes
        .iter()
        .map(|c| vec![Vec::new(); c.multi_props.len()])
        .collect();
    let mut irregular: Vec<Triple> = Vec::new();
    let mut n_regular = 0usize;

    // A dense class's row is its subject's payload minus the class base.
    // Placement walks subjects in SPO order, which is a sparse class's row
    // order too: there the row is a cursor that only moves forward.
    // Side-table pairs arrive in (s, o) order.
    let bases: Vec<u64> = subjects_per_class
        .iter()
        .map(|subs| subs.first().map_or(0, |&s| Oid::from_raw(s).payload()))
        .collect();
    let mut cursors = vec![0usize; n_classes];
    schema.place_triples(triples_spo, |t, home| match home {
        TripleHome::Column { class, col } => {
            let ci = class.0 as usize;
            let row = if dense {
                (t.s.payload() - bases[ci]) as usize
            } else {
                let (subs, row) = (&subjects_per_class[ci], &mut cursors[ci]);
                while subs[*row] < t.s.raw() {
                    *row += 1;
                }
                *row
            };
            col_data[ci][col][row] = t.o.raw();
            n_regular += 1;
        }
        TripleHome::Multi { class, mp } => {
            multi_data[class.0 as usize][mp].push((t.s.raw(), t.o.raw()));
            n_regular += 1;
        }
        TripleHome::Irregular => irregular.push(t),
    });

    // Materialize segments.
    let mut segments = Vec::with_capacity(n_classes);
    for (ci, class) in schema.classes.iter_mut().enumerate() {
        let subs = &subjects_per_class[ci];
        let n = subs.len();
        let subjects = if dense {
            SubjectIds::Dense { base: bases[ci] }
        } else {
            SubjectIds::Sparse {
                subjects: Column::from_slice(disk, subs),
            }
        };
        let mut columns = Vec::with_capacity(class.columns.len());
        let preds = class.columns.iter().map(|c| c.pred).collect();
        for (coli, data) in col_data[ci].iter().enumerate() {
            let col = Column::from_slice(disk, data);
            // Refresh schema stats from the physical column.
            let stats = &mut class.columns[coli].stats;
            stats.n_nonnull = (col.len() - col.n_nulls()) as u64;
            stats.min = col.zonemap().global_min();
            stats.max = col.zonemap().global_max();
            columns.push(col);
        }
        let mut multi = Vec::with_capacity(class.multi_props.len());
        for (mi, pairs) in multi_data[ci].iter().enumerate() {
            debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
            let s_col =
                Column::from_slice(disk, &pairs.iter().map(|&(s, _)| s).collect::<Vec<_>>());
            let o_col =
                Column::from_slice(disk, &pairs.iter().map(|&(_, o)| o).collect::<Vec<_>>());
            let stats = &mut class.multi_props[mi].stats;
            stats.n_nonnull = pairs.len() as u64;
            stats.min = o_col.zonemap().global_min();
            stats.max = o_col.zonemap().global_max();
            multi.push(MultiTable {
                p: class.multi_props[mi].pred,
                s: s_col,
                o: o_col,
            });
        }
        let sorted_by = if dense {
            spec.sort_keys
                .get(&class.id)
                .copied()
                .filter(|&c| c < columns.len())
        } else {
            None
        };
        segments.push(ClassSegment {
            class: class.id,
            n,
            subjects,
            columns,
            preds,
            multi,
            sorted_by,
        });
    }

    let irregular_store = BaselineStore::build(disk, &irregular);
    let mut pages = Vec::new();
    for seg in &segments {
        if let SubjectIds::Sparse { subjects } = &seg.subjects {
            pages.extend_from_slice(subjects.page_ids());
        }
        for col in &seg.columns {
            pages.extend_from_slice(col.page_ids());
        }
        for mt in &seg.multi {
            pages.extend_from_slice(mt.s.page_ids());
            pages.extend_from_slice(mt.o.page_ids());
        }
    }
    ClusteredStore {
        segments,
        irregular: irregular_store,
        n_regular,
        _lease: std::sync::Arc::new(sordf_columnar::PageLease::new(
            std::sync::Arc::clone(disk),
            pages,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorg::reorganize;
    use crate::triple_set::TripleSet;
    use sordf_model::Term;
    use sordf_schema::SchemaConfig;
    use std::sync::Arc;

    fn make_ts() -> TripleSet {
        let mut ts = TripleSet::new();
        let mut add = |s: String, p: &str, o: Term| {
            ts.add(&sordf_model::TermTriple::new(
                Term::iri(s),
                Term::iri(format!("http://e/{p}")),
                o,
            ))
            .unwrap();
        };
        for i in 0..20u64 {
            add(
                format!("http://e/item{i}"),
                "price",
                Term::int(i as i64 * 10),
            );
            add(
                format!("http://e/item{i}"),
                "sold",
                Term::date(&format!("1996-01-{:02}", (i % 28) + 1)),
            );
            if i % 5 == 0 {
                // type-noise second value for price -> irregular exception
                add(
                    format!("http://e/item{i}"),
                    "price",
                    Term::str(format!("n/a-{i}")),
                );
            }
            if i % 2 == 0 {
                // multi-valued tags (>10% of subjects have 2) -> side table
                add(
                    format!("http://e/item{i}"),
                    "tag",
                    Term::iri(format!("http://e/t{}", i % 3)),
                );
                add(
                    format!("http://e/item{i}"),
                    "tag",
                    Term::iri(format!("http://e/t{}", (i + 1) % 3)),
                );
            } else {
                add(
                    format!("http://e/item{i}"),
                    "tag",
                    Term::iri(format!("http://e/t{}", i % 3)),
                );
            }
        }
        ts
    }

    fn build(
        dense: bool,
    ) -> (
        Arc<DiskManager>,
        BufferPool,
        EmergentSchema,
        ClusteredStore,
        TripleSet,
    ) {
        let mut ts = make_ts();
        let spo = ts.sorted_spo();
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
        let spec = ClusterSpec::auto(&schema);
        if dense {
            reorganize(&mut ts, &mut schema, &spec);
        }
        let spo = ts.sorted_spo();
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = build_clustered(&dm, &spo, &mut schema, &spec, dense);
        let pool = BufferPool::new(Arc::clone(&dm), 256);
        (dm, pool, schema, store, ts)
    }

    #[test]
    fn dense_segments_roundtrip_subjects() {
        let (_dm, pool, schema, store, _ts) = build(true);
        let seg = &store.segments[0];
        assert_eq!(seg.n as u64, schema.classes[0].n_subjects);
        for row in 0..seg.n {
            let s = seg.subject_at(&pool, row);
            assert_eq!(seg.row_of(&pool, s), Some(row));
        }
        assert!(seg.dense_range().is_some());
    }

    #[test]
    fn sparse_segments_roundtrip_subjects() {
        let (_dm, pool, _schema, store, _ts) = build(false);
        let seg = &store.segments[0];
        for row in 0..seg.n {
            let s = seg.subject_at(&pool, row);
            assert_eq!(seg.row_of(&pool, s), Some(row));
        }
        assert!(seg.dense_range().is_none());
        assert_eq!(seg.row_of(&pool, Oid::iri(999_999)), None);
    }

    /// Everything a build stores, decoded: (class, column or side table,
    /// subject, object) homes and the irregular triples, sorted.
    type Decoded = (Vec<(u32, String, Term, Term)>, Vec<(Term, Term, Term)>);

    fn decode_store(pool: &BufferPool, store: &ClusteredStore, ts: &TripleSet) -> Decoded {
        let term = |o: u64| ts.dict.decode(Oid::from_raw(o)).unwrap();
        let mut homes = Vec::new();
        for seg in &store.segments {
            for (col, c) in seg.columns.iter().enumerate() {
                for (row, v) in c.to_vec(pool, 0..seg.n).into_iter().enumerate() {
                    if v != sordf_columnar::column::NULL_SENTINEL {
                        let s = seg.subject_at(pool, row).raw();
                        homes.push((seg.class.0, format!("col{col}"), term(s), term(v)));
                    }
                }
            }
            for (mp, m) in seg.multi.iter().enumerate() {
                let (ss, os) = (
                    m.s.to_vec(pool, 0..m.s.len()),
                    m.o.to_vec(pool, 0..m.o.len()),
                );
                for (s, o) in ss.into_iter().zip(os) {
                    homes.push((seg.class.0, format!("multi{mp}"), term(s), term(o)));
                }
            }
        }
        let mut irregular = Vec::new();
        for p in ["price", "sold", "tag"] {
            let p = ts.dict.iri_oid(&format!("http://e/{p}")).unwrap();
            for (s, o) in store.irregular.scan_p(pool, p) {
                irregular.push((term(s.raw()), term(p.raw()), term(o.raw())));
            }
        }
        homes.sort();
        irregular.sort();
        (homes, irregular)
    }

    #[test]
    fn every_triple_has_exactly_one_home() {
        let mut decoded = Vec::new();
        for dense in [false, true] {
            let (_dm, pool, _schema, store, ts) = build(dense);
            assert_eq!(store.n_triples(), ts.len(), "dense={dense}");
            let (homes, irregular) = decode_store(&pool, &store, &ts);
            assert_eq!(homes.len(), store.n_regular, "dense={dense}");
            assert_eq!(irregular.len(), store.irregular.len(), "dense={dense}");
            decoded.push((homes, irregular));
        }
        // Both layouts place every triple alike: the same column contents
        // and the same irregular triples.
        assert_eq!(decoded[0], decoded[1]);
        assert!(!decoded[0].1.is_empty(), "the fixture has exceptions");
    }

    #[test]
    fn both_layouts_read_back_the_sorted_load() {
        for dense in [false, true] {
            let (_dm, pool, _schema, store, ts) = build(dense);
            let spo = ts.sorted_spo();
            assert_eq!(store.triples_spo(&pool), spo, "dense={dense}");
            for &t in &spo {
                let n = spo.iter().filter(|&&x| x == t).count();
                assert_eq!(store.occurrences(&pool, t), n, "dense={dense} {t:?}");
                let mut rows = Vec::new();
                store.of_subject(&pool, t.s, &mut rows);
                let want: Vec<Triple> = spo.iter().copied().filter(|x| x.s == t.s).collect();
                assert_eq!(rows, want, "dense={dense}");
            }
        }
    }

    #[test]
    fn sorted_segment_supports_range_rows() {
        let (_dm, pool, schema, store, ts) = build(true);
        let sold = ts.dict.iri_oid("http://e/sold").unwrap();
        let class = schema
            .classes
            .iter()
            .find(|c| c.column_of(sold).is_some())
            .unwrap();
        let col = class.column_of(sold).unwrap();
        let seg = store.segment(class.id);
        assert_eq!(seg.sorted_by, Some(col));
        let lo = Oid::from_date_days(sordf_model::date::parse_date("1996-01-05").unwrap()).unwrap();
        let hi = Oid::from_date_days(sordf_model::date::parse_date("1996-01-10").unwrap()).unwrap();
        let rows = seg
            .sorted_row_range(&pool, col, lo.raw(), hi.raw())
            .unwrap();
        // Verify against a full scan.
        let vals = seg.columns[col].to_vec(&pool, 0..seg.n);
        let expect = vals
            .iter()
            .filter(|&&v| v >= lo.raw() && v <= hi.raw())
            .count();
        assert_eq!(rows.len(), expect);
        assert!(expect > 0);
        // All values inside the range, sorted.
        let in_range = seg.columns[col].to_vec(&pool, rows);
        assert!(in_range.windows(2).all(|w| w[0] <= w[1]));
        assert!(in_range.iter().all(|&v| v >= lo.raw() && v <= hi.raw()));
    }

    #[test]
    fn multi_table_lookup() {
        let (_dm, pool, schema, store, ts) = build(true);
        let tag = ts.dict.iri_oid("http://e/tag").unwrap();
        let class = schema
            .classes
            .iter()
            .find(|c| c.multi_of(tag).is_some())
            .expect("tag class");
        let mp = class.multi_of(tag).unwrap();
        let seg = store.segment(class.id);
        let table = &seg.multi[mp];
        // Sum of per-subject rows equals table length.
        let mut total = 0;
        for row in 0..seg.n {
            let s = seg.subject_at(&pool, row);
            total += table.rows_of(&pool, s).len();
        }
        assert_eq!(total, table.s.len());
        assert!(total >= 30, "20 subjects, half with 2 tags");
    }

    #[test]
    fn irregular_store_holds_type_exceptions() {
        let (_dm, pool, _schema, store, ts) = build(true);
        let price = ts.dict.iri_oid("http://e/price").unwrap();
        // The 4 string-typed price values are exceptions to the INT column.
        let exceptions = store.irregular.scan_p(&pool, price);
        assert_eq!(exceptions.len(), 4);
        assert!(exceptions
            .iter()
            .all(|&(_, o)| o.tag() == sordf_model::TypeTag::Str));
    }
}
