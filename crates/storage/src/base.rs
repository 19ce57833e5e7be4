//! The base triple list of a generation, and its packed form.
//!
//! While nothing is built, a generation's base is a plain `Vec<Triple>` in
//! load order ([`BaseTriples::Staging`]): bulk loads append to it and staged
//! deletes remove from it. Every built generation holds it SPO-sorted and
//! packed ([`BaseTriples::Packed`]) — the form deletes binary-search,
//! checkpoints stream and rebuilds fold the delta into.
//!
//! ## The packed form
//!
//! [`PackedTriples`] cuts the sorted list into blocks of [`BLOCK`] triples.
//! A block is packed runs (`sordf_columnar::compress::pack_run`: the page
//! codec's constant / FOR / plain choice, per run) laid end to end in one
//! word arena:
//!
//! ```text
//! [S][K][P][O 0][O 1]...[O m-1]
//! ```
//!
//! * `S` — the subjects, one per triple: sorted, so one narrow FOR range.
//! * `K` — the block's `m` distinct predicates, in order of first
//!   appearance, as indexes into one base-wide predicate table.
//! * `P` — per triple, the position in `K` of its predicate.
//! * `O j` — the objects of the block's triples with predicate `K[j]`, in
//!   order. One predicate's objects share a type and usually a range, so
//!   they pack narrow where a mixed object run would not.
//!
//! A directory holds each block's first triple and arena position. A
//! subject's triples are found by binary search of the directory and then
//! of the packed `S` run, which is never decoded; only the `P` prefix that
//! ranks them and their own objects are. Whatever streams the base decodes
//! one block at a time.

use std::borrow::Cow;

use sordf_columnar::compress::{pack_run, PackedRun};
use sordf_model::{FxHashMap, Oid, Triple};

/// Triples per block of a [`PackedTriples`]. Larger blocks pack tighter
/// (fewer run headers per triple) and cost a lookup a longer `P` prefix.
pub const BLOCK: usize = 1024;

/// A generation's base triples. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseTriples {
    /// Load order, while no layout is built.
    Staging(Vec<Triple>),
    /// SPO-sorted and packed: what every built generation holds.
    Packed(PackedTriples),
}

impl BaseTriples {
    /// Number of triples (duplicates included).
    pub fn len(&self) -> usize {
        match self {
            BaseTriples::Staging(v) => v.len(),
            BaseTriples::Packed(p) => p.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every triple, in the base's order; a packed base decodes one block
    /// at a time.
    pub fn iter(&self) -> BaseIter<'_> {
        match self {
            BaseTriples::Staging(v) => BaseIter::Staging(v.iter()),
            BaseTriples::Packed(p) => BaseIter::Packed(p.iter()),
        }
    }

    /// The triples as one slice: borrowed while staging, decoded from a
    /// packed base — the transient working set a layout builder reads.
    pub fn as_slice(&self) -> Cow<'_, [Triple]> {
        match self {
            BaseTriples::Staging(v) => Cow::Borrowed(v),
            BaseTriples::Packed(p) => Cow::Owned(p.iter().collect()),
        }
    }

    /// The load-order list bulk loads append to and staged deletes remove
    /// from; a packed base is decoded into it first.
    pub fn staging_mut(&mut self) -> &mut Vec<Triple> {
        if let BaseTriples::Packed(p) = self {
            *self = BaseTriples::Staging(p.iter().collect());
        }
        match self {
            BaseTriples::Staging(v) => v,
            BaseTriples::Packed(_) => unreachable!("converted to staging above"),
        }
    }

    /// Append the triples of subject `s` to `out`, in SPO order: a binary
    /// search of a packed base, a pass over a staging one.
    pub fn of_subject(&self, s: Oid, out: &mut Vec<Triple>) {
        match self {
            BaseTriples::Packed(p) => p.of_subject(s, out),
            BaseTriples::Staging(v) => {
                let from = out.len();
                out.extend(v.iter().filter(|t| t.s == s));
                out[from..].sort_unstable();
            }
        }
    }

    /// How many times the base holds `t` (bulk loads keep duplicates).
    pub fn occurrences(&self, t: Triple) -> usize {
        SubjectRows::new(self).occurrences(t)
    }

    /// Is `t` among the base triples?
    pub fn contains(&self, t: Triple) -> bool {
        self.occurrences(t) > 0
    }

    /// Heap bytes of every buffer the base holds (their capacities).
    pub fn heap_bytes(&self) -> usize {
        match self {
            BaseTriples::Staging(v) => v.capacity() * std::mem::size_of::<Triple>(),
            BaseTriples::Packed(p) => p.heap_bytes(),
        }
    }
}

/// Iterator over a [`BaseTriples`].
pub enum BaseIter<'a> {
    Staging(std::slice::Iter<'a, Triple>),
    Packed(Iter<'a>),
}

impl Iterator for BaseIter<'_> {
    type Item = Triple;

    #[inline]
    fn next(&mut self) -> Option<Triple> {
        match self {
            BaseIter::Staging(it) => it.next().copied(),
            BaseIter::Packed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            BaseIter::Staging(it) => it.size_hint(),
            BaseIter::Packed(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for BaseIter<'_> {}

/// Resolves a batch of triples in subject order against a base: each
/// subject's triples are found (and decoded) once, however many of the
/// batch share the subject.
pub struct SubjectRows<'a> {
    base: &'a BaseTriples,
    subject: Option<Oid>,
    rows: Vec<Triple>,
}

impl<'a> SubjectRows<'a> {
    pub fn new(base: &'a BaseTriples) -> SubjectRows<'a> {
        SubjectRows {
            base,
            subject: None,
            rows: Vec::new(),
        }
    }

    /// The base's triples of subject `s`, SPO-sorted.
    fn of(&mut self, s: Oid) -> &[Triple] {
        if self.subject != Some(s) {
            self.rows.clear();
            self.base.of_subject(s, &mut self.rows);
            self.subject = Some(s);
        }
        &self.rows
    }

    /// How many times the base holds `t`.
    pub fn occurrences(&mut self, t: Triple) -> usize {
        let rows = self.of(t.s);
        let lo = rows.partition_point(|x| *x < t);
        rows[lo..].partition_point(|x| *x <= t)
    }
}

/// An SPO-sorted triple list packed into blocks. See the
/// [module docs](self#the-packed-form).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedTriples {
    len: usize,
    /// Every predicate of the base, in order of first appearance: what `K`
    /// runs index.
    preds: Vec<Oid>,
    /// First triple of every block.
    firsts: Vec<Triple>,
    /// Arena position of every block's image.
    starts: Vec<usize>,
    arena: Vec<u64>,
}

/// One block's runs up to its first object run.
struct Block<'a> {
    s: PackedRun<'a>,
    k: PackedRun<'a>,
    p: PackedRun<'a>,
    /// Arena position of object run 0.
    o_at: usize,
}

/// Buffers a block decode reuses.
#[derive(Default)]
struct Scratch {
    s: Vec<u64>,
    k: Vec<u64>,
    p: Vec<u64>,
    o: Vec<u64>,
    /// Per `K` position: the next unread object in `o`.
    next: Vec<usize>,
}

impl PackedTriples {
    /// Pack an SPO-sorted list.
    pub fn from_sorted(triples: &[Triple]) -> PackedTriples {
        debug_assert!(
            triples.windows(2).all(|w| w[0] <= w[1]),
            "the packed base is SPO-sorted"
        );
        // The predicate table, in order of first appearance, and the
        // block-local position of each (`usize::MAX`: not in this block).
        let mut preds: Vec<Oid> = Vec::new();
        let mut index: FxHashMap<Oid, usize> = FxHashMap::default();
        let mut local: Vec<usize> = Vec::new();
        let n_blocks = triples.len().div_ceil(BLOCK);
        let mut firsts = Vec::with_capacity(n_blocks);
        let mut starts = Vec::with_capacity(n_blocks);
        let mut arena = Vec::with_capacity(triples.len() / 2);
        let (mut k, mut vals, mut objs, mut bounds) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for block in triples.chunks(BLOCK) {
            firsts.push(block[0]);
            starts.push(arena.len());
            vals.clear();
            vals.extend(block.iter().map(|t| t.s.raw()));
            pack_run(&vals, &mut arena);
            // `K` in order of first appearance in the block.
            k.clear();
            vals.clear();
            for t in block {
                let g = *index.entry(t.p).or_insert_with(|| {
                    preds.push(t.p);
                    local.push(usize::MAX);
                    preds.len() - 1
                });
                if local[g] == usize::MAX {
                    local[g] = k.len();
                    k.push(g as u64);
                }
                vals.push(local[g] as u64);
            }
            pack_run(&k, &mut arena);
            pack_run(&vals, &mut arena);
            // Objects grouped by `K` position, stable (a counting sort).
            bounds.clear();
            bounds.resize(k.len() + 1, 0usize);
            for &j in &vals {
                bounds[j as usize + 1] += 1;
            }
            for j in 0..k.len() {
                bounds[j + 1] += bounds[j];
            }
            objs.clear();
            objs.resize(block.len(), 0u64);
            for (t, &j) in block.iter().zip(&vals) {
                let at = &mut bounds[j as usize];
                objs[*at] = t.o.raw();
                *at += 1;
            }
            // `bounds[j]` is now the end of group `j`, so group `j` is
            // `bounds[j - 1]..bounds[j]`.
            let mut from = 0;
            for &to in &bounds[..k.len()] {
                pack_run(&objs[from..to], &mut arena);
                from = to;
            }
            for &g in &k {
                local[g as usize] = usize::MAX;
            }
        }
        arena.shrink_to_fit();
        PackedTriples {
            len: triples.len(),
            preds,
            firsts,
            starts,
            arena,
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every triple in SPO order, decoded one block at a time.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            base: self,
            block: 0,
            rows: Vec::with_capacity(BLOCK.min(self.len)),
            at: 0,
            left: self.len,
            scratch: Scratch::default(),
        }
    }

    /// Heap bytes of every buffer this holds (their capacities).
    pub fn heap_bytes(&self) -> usize {
        self.preds.capacity() * std::mem::size_of::<Oid>()
            + self.firsts.capacity() * std::mem::size_of::<Triple>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
            + self.arena.capacity() * std::mem::size_of::<u64>()
    }

    fn block(&self, b: usize) -> Block<'_> {
        let (s, at) = PackedRun::at(&self.arena, self.starts[b]);
        let (k, at) = PackedRun::at(&self.arena, at);
        let (p, o_at) = PackedRun::at(&self.arena, at);
        Block { s, k, p, o_at }
    }

    /// Append block `b`'s triples to `out`.
    fn decode_block(&self, b: usize, sc: &mut Scratch, out: &mut Vec<Triple>) {
        let block = self.block(b);
        let n = block.s.len();
        sc.s.clear();
        block.s.decode_range(0, n, &mut sc.s);
        sc.k.clear();
        block.k.decode_range(0, block.k.len(), &mut sc.k);
        sc.p.clear();
        block.p.decode_range(0, n, &mut sc.p);
        sc.o.clear();
        sc.next.clear();
        let mut at = block.o_at;
        for _ in 0..sc.k.len() {
            sc.next.push(sc.o.len());
            let (run, next) = PackedRun::at(&self.arena, at);
            run.decode_range(0, run.len(), &mut sc.o);
            at = next;
        }
        out.extend(sc.s.iter().zip(&sc.p).map(|(&s, &j)| {
            let j = j as usize;
            let o = sc.o[sc.next[j]];
            sc.next[j] += 1;
            Triple::new(
                Oid::from_raw(s),
                self.preds[sc.k[j] as usize],
                Oid::from_raw(o),
            )
        }));
    }

    /// Append the triples of subject `s` to `out`, in SPO order.
    pub fn of_subject(&self, s: Oid, out: &mut Vec<Triple>) {
        // The last block starting before `s` may end in it; later blocks
        // hold it while they start with it.
        let first = self.firsts.partition_point(|f| f.s < s).saturating_sub(1);
        for b in first..self.firsts.len() {
            if self.firsts[b].s > s {
                break;
            }
            let block = self.block(b);
            let n = block.s.len();
            let lo = block.s.partition_point(0, n, |x| x < s.raw());
            let hi = block.s.partition_point(lo, n, |x| x <= s.raw());
            self.decode_rows(&block, lo, hi, s, out);
            if hi < n {
                break;
            }
        }
    }

    /// Append rows `lo..hi` of `block`, all of subject `s`, to `out`. A
    /// row's object is its rank among the block's rows of its predicate, so
    /// the `P` prefix up to `hi` is decoded; the objects are read in place.
    fn decode_rows(&self, block: &Block<'_>, lo: usize, hi: usize, s: Oid, out: &mut Vec<Triple>) {
        if lo == hi {
            return;
        }
        let mut k = Vec::with_capacity(block.k.len());
        block.k.decode_range(0, block.k.len(), &mut k);
        let mut p = Vec::with_capacity(hi);
        block.p.decode_range(0, hi, &mut p);
        let mut rank = vec![0usize; k.len()];
        for &j in &p[..lo] {
            rank[j as usize] += 1;
        }
        let mut runs = Vec::with_capacity(k.len());
        let mut at = block.o_at;
        for _ in 0..k.len() {
            let (run, next) = PackedRun::at(&self.arena, at);
            runs.push(run);
            at = next;
        }
        out.extend(p[lo..].iter().map(|&j| {
            let j = j as usize;
            let o = runs[j].get(rank[j]);
            rank[j] += 1;
            Triple::new(s, self.preds[k[j] as usize], Oid::from_raw(o))
        }));
    }
}

/// Iterator over a [`PackedTriples`], one decoded block at a time.
pub struct Iter<'a> {
    base: &'a PackedTriples,
    /// The next block to decode.
    block: usize,
    rows: Vec<Triple>,
    at: usize,
    left: usize,
    scratch: Scratch,
}

impl Iterator for Iter<'_> {
    type Item = Triple;

    #[inline]
    fn next(&mut self) -> Option<Triple> {
        if self.at == self.rows.len() {
            if self.block == self.base.starts.len() {
                return None;
            }
            self.rows.clear();
            self.at = 0;
            self.base
                .decode_block(self.block, &mut self.scratch, &mut self.rows);
            self.block += 1;
        }
        let t = self.rows[self.at];
        self.at += 1;
        self.left -= 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::TypeTag;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(Oid::iri(s), Oid::iri(p), Oid::from_raw(o))
    }

    #[test]
    fn a_packed_base_round_trips_and_answers_lookups() {
        let mut v = Vec::new();
        for s in 0..700u64 {
            for p in 0..(s % 5 + 1) {
                v.push(t(s, 100 + p, s * 7 + p));
            }
        }
        // One subject across several blocks, duplicates included.
        for i in 0..3000u64 {
            v.push(t(5000, 100 + (i / 2) % 3, i / 2));
        }
        v.push(Triple::new(
            Oid::iri(6000),
            Oid::iri(1),
            Oid::new(TypeTag::Date, 12),
        ));
        v.sort_unstable();
        let packed = PackedTriples::from_sorted(&v);
        assert_eq!(packed.len(), v.len());
        assert_eq!(packed.iter().collect::<Vec<_>>(), v);
        assert!(
            packed.heap_bytes() < v.len() * 8,
            "{} B",
            packed.heap_bytes()
        );
        let base = BaseTriples::Packed(packed);
        for s in [0u64, 3, 699, 700, 4999, 5000, 6000, 7000] {
            let mut rows = Vec::new();
            base.of_subject(Oid::iri(s), &mut rows);
            let want: Vec<Triple> = v.iter().copied().filter(|t| t.s == Oid::iri(s)).collect();
            assert_eq!(rows, want, "subject {s}");
        }
        assert_eq!(
            base.occurrences(t(5000, 101, 1)),
            2,
            "duplicates are counted"
        );
        assert_eq!(base.occurrences(t(699, 104, 699 * 7 + 4)), 1);
        assert!(!base.contains(t(5000, 101, 0)));
    }

    #[test]
    fn empty_and_staging_bases() {
        let empty = BaseTriples::Packed(PackedTriples::from_sorted(&[]));
        assert_eq!(empty.iter().count(), 0);
        assert!(!empty.contains(t(1, 1, 1)));
        let mut staged = BaseTriples::Staging(vec![t(2, 1, 1), t(1, 1, 1), t(2, 0, 5)]);
        let mut rows = Vec::new();
        staged.of_subject(Oid::iri(2), &mut rows);
        assert_eq!(
            rows,
            [t(2, 0, 5), t(2, 1, 1)],
            "SPO order while staging too"
        );
        let mut packed = BaseTriples::Packed(PackedTriples::from_sorted(&[t(1, 1, 1)]));
        packed.staging_mut().push(t(0, 0, 0));
        assert_eq!(packed, BaseTriples::Staging(vec![t(1, 1, 1), t(0, 0, 0)]));
        staged.staging_mut().clear();
        assert!(staged.is_empty());
    }
}
