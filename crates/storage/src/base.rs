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
//! [U][I][L][B][K][O 0][O 1]...[O m-1]
//! ```
//!
//! * `U` — the block's distinct subjects, in order: one narrow FOR range,
//!   each subject stored once however many triples it has.
//! * `I` — per subject, the id of its shape.
//! * `L`, `B` — the block's shape table. A subject's shape is the sequence
//!   of `K` positions of its triples in the block, a multi-valued
//!   predicate repeated; `L` holds each shape's length, `B` their bodies
//!   end to end. Subjects of one characteristic set share a shape, so a
//!   block of a regular class holds a handful of shapes.
//! * `K` — the block's `m` distinct predicates, in order of first
//!   appearance, as indexes into one base-wide predicate table.
//! * `O j` — the objects of the block's triples with predicate `K[j]`, in
//!   order. One predicate's objects share a type and usually a range, so
//!   they pack narrow where a mixed object run would not.
//!
//! A block decodes as: for each subject `U[i]`, one triple per entry `j` of
//! its shape `I[i]`, with predicate `K[j]` and the next unread object of
//! run `O j`. A subject split by a block boundary has a shape in each
//! block, over its triples there.
//!
//! A directory holds each block's first subject and arena position. A
//! lookup of subject `s` reads, per block that may hold it:
//!
//! 1. the directory, binary-searched for the first such block;
//! 2. `U`, binary-searched in place for `s`'s index `i`;
//! 3. `I` up to `i`, and the part of `L` and `B` those ids use (ids number
//!    shapes in order of first appearance): the shapes of the `i` subjects
//!    before `s` count, per predicate, the block's objects that come before
//!    its own — its rank in each `O` run;
//! 4. `s`'s shape, each object read in place at its rank.
//!
//! Whatever streams the base decodes one block at a time.

use std::borrow::Cow;

use sordf_columnar::compress::{pack_run, PackedRun};
use sordf_model::{FxHashMap, Oid, Triple};

/// Triples per block of a [`PackedTriples`]. Larger blocks pack tighter
/// (fewer run headers per triple) and cost a lookup a longer `I` prefix.
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

    /// [`BaseTriples::heap_bytes`], by part. A staging list's subject,
    /// predicate and object columns count as subjects, predicates and
    /// objects.
    pub fn bytes_by_part(&self) -> BaseBytes {
        match self {
            BaseTriples::Staging(v) => {
                let column = v.capacity() * std::mem::size_of::<Oid>();
                BaseBytes {
                    subjects: column,
                    predicates: column,
                    objects: column,
                    ..BaseBytes::default()
                }
            }
            BaseTriples::Packed(p) => p.bytes_by_part(),
        }
    }
}

/// Heap bytes of a base, by what they hold (see the
/// [module docs](self#the-packed-form)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseBytes {
    /// The `U` runs.
    pub subjects: usize,
    /// The `I`, `L` and `B` runs.
    pub shapes: usize,
    /// The `K` runs and the base-wide predicate table.
    pub predicates: usize,
    /// The `O` runs.
    pub objects: usize,
    /// Each block's first subject and arena position.
    pub directory: usize,
}

impl BaseBytes {
    /// Every part, summed.
    pub fn total(&self) -> usize {
        self.subjects + self.shapes + self.predicates + self.objects + self.directory
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
/// batch share the subject, into buffers every lookup of the batch reuses.
pub struct SubjectRows<'a> {
    base: &'a BaseTriples,
    subject: Option<Oid>,
    rows: Vec<Triple>,
    lookup: Lookup<'a>,
}

impl<'a> SubjectRows<'a> {
    pub fn new(base: &'a BaseTriples) -> SubjectRows<'a> {
        SubjectRows {
            base,
            subject: None,
            rows: Vec::new(),
            lookup: Lookup::default(),
        }
    }

    /// The base's triples of subject `s`, SPO-sorted.
    fn of(&mut self, s: Oid) -> &[Triple] {
        if self.subject != Some(s) {
            self.rows.clear();
            let base: &'a BaseTriples = self.base;
            match base {
                BaseTriples::Packed(p) => p.rows_of(s, &mut self.lookup, &mut self.rows),
                BaseTriples::Staging(_) => base.of_subject(s, &mut self.rows),
            }
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
    /// First subject of every block.
    firsts: Vec<Oid>,
    /// Arena position of every block's image.
    starts: Vec<usize>,
    arena: Vec<u64>,
}

/// One block's runs up to its first object run.
struct Block<'a> {
    u: PackedRun<'a>,
    i: PackedRun<'a>,
    l: PackedRun<'a>,
    b: PackedRun<'a>,
    k: PackedRun<'a>,
    /// Arena position of object run 0.
    o_at: usize,
}

/// The shape table of the block being packed: shape `h` is
/// `body[at[h]..at[h] + len[h]]`, and `sig[h]` its [`signature`].
#[derive(Default)]
struct ShapeTable {
    len: Vec<u64>,
    at: Vec<usize>,
    sig: Vec<u64>,
    body: Vec<u64>,
}

/// A shape's length and the set of its `K` positions (modulo 53) in one
/// word: two shapes that differ here differ, and comparing words is
/// cheaper than comparing slices.
fn signature(rows: &[u64]) -> u64 {
    // The length is at most `BLOCK`, 2^10: it takes the low 11 bits.
    debug_assert!(rows.len() < 1 << 11);
    rows.iter()
        .fold(rows.len() as u64, |sig, &j| sig | 1 << (11 + j % 53))
}

impl ShapeTable {
    fn clear(&mut self) {
        self.len.clear();
        self.at.clear();
        self.sig.clear();
        self.body.clear();
    }

    fn shape(&self, h: usize) -> &[u64] {
        &self.body[self.at[h]..self.at[h] + self.len[h] as usize]
    }

    /// The id of the shape `rows`, added when new. The previous subject's
    /// shape is tried first (a class's subjects are consecutive), then
    /// every other whose signature matches, by comparing slices: nothing
    /// is hashed.
    fn id_of(&mut self, rows: &[u64], prev: Option<u64>) -> u64 {
        if let Some(h) = prev {
            if self.shape(h as usize) == rows {
                return h;
            }
        }
        let sig = signature(rows);
        let mut from = 0;
        while let Some(d) = self.sig[from..].iter().position(|&x| x == sig) {
            let h = from + d;
            if self.shape(h) == rows {
                return h as u64;
            }
            from = h + 1;
        }
        self.len.push(rows.len() as u64);
        self.at.push(self.body.len());
        self.sig.push(sig);
        self.body.extend_from_slice(rows);
        (self.len.len() - 1) as u64
    }
}

/// Buffers a block decode reuses.
#[derive(Default)]
struct Scratch {
    u: Vec<u64>,
    i: Vec<u64>,
    l: Vec<u64>,
    b: Vec<u64>,
    k: Vec<u64>,
    o: Vec<u64>,
    /// Per `K` position: its predicate, and the next unread object in `o`.
    preds: Vec<Oid>,
    next: Vec<usize>,
}

/// Buffers a subject lookup reuses.
#[derive(Default)]
struct Lookup<'a> {
    i: Vec<u64>,
    l: Vec<u64>,
    b: Vec<u64>,
    k: Vec<u64>,
    /// Per shape: how many subjects before the one looked up have it.
    seen: Vec<usize>,
    /// Per `K` position: the rank of the next object to read.
    rank: Vec<usize>,
    runs: Vec<PackedRun<'a>>,
}

/// Replace `out` with every value of `run`.
fn decode_all(run: PackedRun<'_>, out: &mut Vec<u64>) {
    out.clear();
    run.decode_range(0, run.len(), out);
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
        let mut arena = Vec::with_capacity(triples.len() / 3);
        let (mut k, mut pos, mut subjects, mut ids, mut objs, mut bounds) = (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let mut shapes = ShapeTable::default();
        for block in triples.chunks(BLOCK) {
            firsts.push(block[0].s);
            starts.push(arena.len());
            // `K` in order of first appearance in the block, and each
            // triple's position in it.
            k.clear();
            pos.clear();
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
                pos.push(local[g] as u64);
            }
            // `U` and `I`: one shape per run of equal subjects.
            subjects.clear();
            ids.clear();
            shapes.clear();
            let mut from = 0;
            for to in 1..=block.len() {
                if to == block.len() || block[to].s != block[from].s {
                    subjects.push(block[from].s.raw());
                    let id = shapes.id_of(&pos[from..to], ids.last().copied());
                    ids.push(id);
                    from = to;
                }
            }
            pack_run(&subjects, &mut arena);
            pack_run(&ids, &mut arena);
            pack_run(&shapes.len, &mut arena);
            pack_run(&shapes.body, &mut arena);
            pack_run(&k, &mut arena);
            // Objects grouped by `K` position, stable (a counting sort).
            bounds.clear();
            bounds.resize(k.len() + 1, 0usize);
            for &j in &pos {
                bounds[j as usize + 1] += 1;
            }
            for j in 0..k.len() {
                bounds[j + 1] += bounds[j];
            }
            objs.clear();
            objs.resize(block.len(), 0u64);
            for (t, &j) in block.iter().zip(&pos) {
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
            scratch: Box::default(),
        }
    }

    /// Heap bytes of every buffer this holds (their capacities).
    pub fn heap_bytes(&self) -> usize {
        self.preds.capacity() * std::mem::size_of::<Oid>()
            + self.firsts.capacity() * std::mem::size_of::<Oid>()
            + self.starts.capacity() * std::mem::size_of::<usize>()
            + self.arena.capacity() * std::mem::size_of::<u64>()
    }

    /// [`PackedTriples::heap_bytes`], by part: every run of every block is
    /// measured where it lies in the arena.
    pub fn bytes_by_part(&self) -> BaseBytes {
        let word = std::mem::size_of::<u64>();
        let mut parts = BaseBytes {
            predicates: self.preds.capacity() * std::mem::size_of::<Oid>(),
            directory: self.firsts.capacity() * std::mem::size_of::<Oid>()
                + self.starts.capacity() * std::mem::size_of::<usize>(),
            ..BaseBytes::default()
        };
        for (b, &start) in self.starts.iter().enumerate() {
            let mut at = start;
            parts.subjects += next_run(&self.arena, &mut at) * word;
            for _ in 0..3 {
                parts.shapes += next_run(&self.arena, &mut at) * word;
            }
            parts.predicates += next_run(&self.arena, &mut at) * word;
            let end = self.starts.get(b + 1).copied().unwrap_or(self.arena.len());
            parts.objects += (end - at) * word;
        }
        parts
    }

    fn block(&self, b: usize) -> Block<'_> {
        let (u, at) = PackedRun::at(&self.arena, self.starts[b]);
        let (i, at) = PackedRun::at(&self.arena, at);
        let (l, at) = PackedRun::at(&self.arena, at);
        let (b, at) = PackedRun::at(&self.arena, at);
        let (k, o_at) = PackedRun::at(&self.arena, at);
        Block {
            u,
            i,
            l,
            b,
            k,
            o_at,
        }
    }

    /// Append block `b`'s triples to `out`.
    fn decode_block(&self, b: usize, sc: &mut Scratch, out: &mut Vec<Triple>) {
        let block = self.block(b);
        decode_all(block.u, &mut sc.u);
        decode_all(block.i, &mut sc.i);
        decode_all(block.l, &mut sc.l);
        decode_all(block.b, &mut sc.b);
        decode_all(block.k, &mut sc.k);
        sc.o.clear();
        sc.next.clear();
        let mut at = block.o_at;
        for _ in 0..sc.k.len() {
            sc.next.push(sc.o.len());
            let (run, next) = PackedRun::at(&self.arena, at);
            run.decode_range(0, run.len(), &mut sc.o);
            at = next;
        }
        sc.preds.clear();
        sc.preds
            .extend(sc.k.iter().map(|&g| self.preds[g as usize]));
        // Each shape's body, as a `B` range: `L` read as ends.
        let mut end = 0;
        for n in &mut sc.l {
            end += *n;
            *n = end;
        }
        out.reserve(sc.o.len());
        for (&s, &h) in sc.u.iter().zip(&sc.i) {
            let h = h as usize;
            let from = if h == 0 { 0 } else { sc.l[h - 1] as usize };
            for &j in &sc.b[from..sc.l[h] as usize] {
                let j = j as usize;
                let o = sc.o[sc.next[j]];
                sc.next[j] += 1;
                out.push(Triple::new(Oid::from_raw(s), sc.preds[j], Oid::from_raw(o)));
            }
        }
    }

    /// Append the triples of subject `s` to `out`, in SPO order.
    pub fn of_subject(&self, s: Oid, out: &mut Vec<Triple>) {
        self.rows_of(s, &mut Lookup::default(), out);
    }

    /// [`PackedTriples::of_subject`] into buffers the caller keeps.
    fn rows_of<'a>(&'a self, s: Oid, sc: &mut Lookup<'a>, out: &mut Vec<Triple>) {
        // The last block starting before `s` may end in it; later blocks
        // hold it while they start with it.
        let first = self.firsts.partition_point(|&f| f < s).saturating_sub(1);
        for b in first..self.firsts.len() {
            if self.firsts[b] > s {
                break;
            }
            let block = self.block(b);
            let n = block.u.len();
            let i = block.u.partition_point(0, n, |x| x < s.raw());
            if i == n {
                continue;
            }
            if block.u.get(i) != s.raw() {
                break;
            }
            self.subject_rows(&block, i, s, sc, out);
            if i + 1 < n {
                break;
            }
        }
    }

    /// Append the triples of `s`, subject `i` of `block`, to `out`: the
    /// shapes of subjects `0..i` rank its objects, which are read in place.
    fn subject_rows<'a>(
        &'a self,
        block: &Block<'a>,
        i: usize,
        s: Oid,
        sc: &mut Lookup<'a>,
        out: &mut Vec<Triple>,
    ) {
        sc.i.clear();
        block.i.decode_range(0, i + 1, &mut sc.i);
        // Shape ids number shapes in order of first appearance, so subjects
        // `0..=i` use only the first `used` shapes of the table.
        let used = sc.i.iter().max().map_or(0, |&h| h as usize + 1);
        sc.l.clear();
        block.l.decode_range(0, used, &mut sc.l);
        let body_len = sc.l.iter().sum::<u64>() as usize;
        sc.b.clear();
        block.b.decode_range(0, body_len, &mut sc.b);
        decode_all(block.k, &mut sc.k);
        sc.seen.clear();
        sc.seen.resize(used, 0);
        for &h in &sc.i[..i] {
            sc.seen[h as usize] += 1;
        }
        sc.rank.clear();
        sc.rank.resize(sc.k.len(), 0);
        let (mut from, mut body) = (0, 0..0);
        for (h, &n) in sc.l.iter().enumerate() {
            let shape = from..from + n as usize;
            if sc.seen[h] > 0 {
                for &j in &sc.b[shape.clone()] {
                    sc.rank[j as usize] += sc.seen[h];
                }
            }
            if h as u64 == sc.i[i] {
                body = shape.clone();
            }
            from = shape.end;
        }
        sc.runs.clear();
        let mut at = block.o_at;
        for _ in 0..sc.k.len() {
            let (run, next) = PackedRun::at(&self.arena, at);
            sc.runs.push(run);
            at = next;
        }
        out.extend(sc.b[body].iter().map(|&j| {
            let j = j as usize;
            let o = sc.runs[j].get(sc.rank[j]);
            sc.rank[j] += 1;
            Triple::new(s, self.preds[sc.k[j] as usize], Oid::from_raw(o))
        }));
    }
}

/// Words of the run at `*at`, and `*at` moved past it.
fn next_run(arena: &[u64], at: &mut usize) -> usize {
    let (_, next) = PackedRun::at(arena, *at);
    let words = next - *at;
    *at = next;
    words
}

/// Iterator over a [`PackedTriples`], one decoded block at a time.
pub struct Iter<'a> {
    base: &'a PackedTriples,
    /// The next block to decode.
    block: usize,
    rows: Vec<Triple>,
    at: usize,
    left: usize,
    /// Boxed, so that an iterator (and a `BaseIter`) stays a few words.
    scratch: Box<Scratch>,
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

    #[test]
    fn the_parts_of_a_base_sum_to_its_heap_bytes() {
        // One class of 4 000 subjects sharing a shape with a multi-valued
        // predicate, then subjects with shapes of their own.
        let mut v = Vec::new();
        for s in 0..4000u64 {
            v.extend([t(s, 10, s), t(s, 11, 5), t(s, 11, 6), t(s, 12, s * 3)]);
        }
        for s in 4000..4100u64 {
            v.extend((0..s % 7).map(|p| t(s, 20 + p * (s % 3), s)));
        }
        v.sort_unstable();
        let packed = PackedTriples::from_sorted(&v);
        let parts = packed.bytes_by_part();
        assert_eq!(parts.total(), packed.heap_bytes(), "{parts:?}");
        assert!(parts.objects > 0 && parts.directory > 0, "{parts:?}");
        // A subject is stored once, its shape as a few bits.
        let per_triple = |b: usize| b as f64 / v.len() as f64;
        assert!(per_triple(parts.subjects) < 0.5, "{parts:?}");
        assert!(per_triple(parts.shapes) < 0.2, "{parts:?}");
        let staged = BaseTriples::Staging(v);
        assert_eq!(staged.bytes_by_part().total(), staged.heap_bytes());
        assert_eq!(
            BaseTriples::Packed(packed).bytes_by_part(),
            parts,
            "a packed base reports its own parts"
        );
    }
}
