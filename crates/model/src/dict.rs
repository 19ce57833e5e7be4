//! Dictionary encoding between RDF terms and [`Oid`]s.
//!
//! Three pools are kept: IRIs, blank nodes and string literals. All other
//! literal types inline their value into the OID payload and never touch the
//! dictionary. Pools assign indices in order of first appearance — the
//! "ParseOrder" OID assignment the paper starts from. Subject clustering
//! later *remaps* IRI indices (grouping subjects by characteristic set) and
//! sorts the string pool so that string OID order equals lexicographic
//! order; [`Dictionary::renumbered`] builds the dictionary of such a
//! reorganization ([`Dictionary::sort_strings`] is the string half alone).
//!
//! # Physical layout
//!
//! All three pools are one type, split into a **frozen run** rebuilt at
//! reorganization time and a **concurrent append-only tail** for everything
//! interned after it:
//!
//! * The frozen run holds its entries **lexicographically sorted and
//!   front-coded** (`FrontCoded`): the run is chopped into groups of
//!   [`FC_GROUP`], each group storing its leader in full and every follower
//!   as (shared-prefix-length, suffix), the prefix cut back to a character
//!   boundary: every piece is whole UTF-8, so an entry is put together
//!   inside a caller's `String` ([`Dictionary::push_display`] writes a
//!   result value's text that way). Lookups binary-search the group
//!   leaders, so the run needs *no* hash index and holds no second copy of
//!   any entry — it costs its compressed bytes.
//! * Where OID order is not sorted order (IRIs, numbered by cluster; blank
//!   nodes, by first appearance) the run carries two `u32` maps, the rank
//!   of each OID in the run and the OID of each rank: a lookup is a search
//!   plus one map load, a decode one map load plus a walk inside one group.
//!   The string pool is frozen sorted — string OID order *is* value order —
//!   so it carries no maps.
//! * The tail (`AppendTail`) is a chunked spine whose published entries
//!   never move: readers resolve OIDs **without taking any lock**, and
//!   interning appends behind a short per-pool writer lock. A reader
//!   holding a pinned dictionary snapshot therefore never blocks an
//!   interning writer and vice versa — the pool grows in place. Only tail
//!   entries are hash-indexed.
//!
//! Interning consequently takes `&self`: the dictionary is shared as a
//! plain `Arc` and mutated through interior mutability, with the writer
//! lock ordered *after* the store's state lock (`db_state → dict →
//! pool_shard`).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::error::ModelError;
use crate::fxhash::FxHashMap;
use crate::oid::{Oid, TypeTag};
use crate::term::{Literal, Term, Value};

// ---- varint helpers (front-coded group framing) ----------------------------

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &[u8], mut pos: usize) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[pos];
        pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return (v, pos);
        }
        shift += 7;
    }
}

/// A piece of a front-coded image: a leader or a suffix, each whole UTF-8
/// (shared prefixes end on character boundaries).
fn whole_utf8(piece: &[u8]) -> &str {
    std::str::from_utf8(piece).expect("front-coded pieces are whole UTF-8")
}

/// Entries per front-coded group: one full leader + `FC_GROUP - 1`
/// prefix-delta followers. Small enough that positional decode (walk the
/// group) stays a handful of byte copies, large enough that the leader
/// overhead amortizes.
pub const FC_GROUP: usize = 16;

/// A frozen, sorted, front-coded string run. See the [module docs](self).
#[derive(Debug, Default, Clone)]
struct FrontCoded {
    /// Concatenated group images: leader as `varint(len) bytes`, followers
    /// as `varint(shared) varint(suffix_len) suffix_bytes`.
    arena: Arc<Vec<u8>>,
    /// Byte offset of each group image in `arena`.
    groups: Arc<Vec<u32>>,
    len: usize,
    /// Total decoded bytes (the plain `Vec<String>` cost), for ratio
    /// reporting.
    plain_bytes: u64,
}

/// Appends a sorted, duplicate-free run entry by entry into a
/// [`FrontCoded`] image.
#[derive(Default)]
struct FrontCodedBuilder {
    arena: Vec<u8>,
    groups: Vec<u32>,
    prev: String,
    len: usize,
    plain_bytes: u64,
}

impl FrontCodedBuilder {
    fn push(&mut self, e: &str) {
        debug_assert!(self.len == 0 || self.prev.as_str() < e, "sorted, unique");
        if self.len % FC_GROUP == 0 {
            let start = u32::try_from(self.arena.len()).expect("front-coded arena overflow");
            self.groups.push(start);
            write_varint(&mut self.arena, e.len() as u64);
            self.arena.extend_from_slice(e.as_bytes());
        } else {
            // The shared prefix ends on a character boundary, so every
            // suffix is whole UTF-8 and a follower is rebuilt inside a
            // `String` ([`FrontCoded::push_entry`]).
            let mut shared = self
                .prev
                .bytes()
                .zip(e.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            while !e.is_char_boundary(shared) {
                shared -= 1;
            }
            write_varint(&mut self.arena, shared as u64);
            write_varint(&mut self.arena, (e.len() - shared) as u64);
            self.arena.extend_from_slice(&e.as_bytes()[shared..]);
        }
        self.prev.clear();
        self.prev.push_str(e);
        self.len += 1;
        self.plain_bytes += e.len() as u64;
    }

    /// The image, at exactly its size: what it costs is what it holds.
    fn finish(mut self) -> FrontCoded {
        self.arena.shrink_to_fit();
        self.groups.shrink_to_fit();
        FrontCoded {
            arena: Arc::new(self.arena),
            groups: Arc::new(self.groups),
            len: self.len,
            plain_bytes: self.plain_bytes,
        }
    }
}

impl FrontCoded {
    /// Build from a lexicographically sorted, duplicate-free run.
    fn from_sorted<'a>(entries: impl IntoIterator<Item = &'a str>) -> FrontCoded {
        let mut b = FrontCodedBuilder::default();
        for e in entries {
            b.push(e);
        }
        b.finish()
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Positional decode: a group leader borrows from the arena, a follower
    /// is rebuilt ([`FrontCoded::push_entry`]).
    fn get(&self, i: usize) -> Option<Cow<'_, str>> {
        if i >= self.len {
            return None;
        }
        if i % FC_GROUP == 0 {
            return Some(Cow::Borrowed(whole_utf8(self.leader_bytes(i / FC_GROUP))));
        }
        let mut s = String::new();
        self.push_entry(i, &mut s);
        Some(Cow::Owned(s))
    }

    /// Positional decode into the caller's buffer: entry `i` is appended to
    /// `out`, and nothing is allocated but `out`'s growth. A leader is
    /// copied from the arena. A follower is put together from arena pieces
    /// in one walk of its group: the entry so far is a stack of pieces, and
    /// each follower pops the pieces its shared prefix cuts off and pushes
    /// its suffix. Only the pieces of entry `i` are copied, and every cut is
    /// a character boundary. `false` when `i` is out of range.
    fn push_entry(&self, i: usize, out: &mut String) -> bool {
        if i >= self.len {
            return false;
        }
        let (len, leader) = read_varint(&self.arena, self.groups[i / FC_GROUP] as usize);
        // Piece `k` starts at byte `at[k]` of the entry and at `from[k]` in
        // the arena; it runs to the next piece's start, the last to `end`.
        let (mut from, mut at) = ([0usize; FC_GROUP], [0usize; FC_GROUP]);
        from[0] = leader;
        let mut n = 1;
        let mut end = len as usize;
        let mut pos = leader + end;
        for _ in 0..i % FC_GROUP {
            let (shared, p) = read_varint(&self.arena, pos);
            let (slen, p) = read_varint(&self.arena, p);
            let shared = shared as usize;
            while n > 1 && at[n - 1] >= shared {
                n -= 1;
            }
            (from[n], at[n]) = (p, shared);
            n += 1;
            end = shared + slen as usize;
            pos = p + slen as usize;
        }
        for k in 0..n {
            let stop = if k + 1 < n { at[k + 1] } else { end };
            out.push_str(whole_utf8(&self.arena[from[k]..from[k] + stop - at[k]]));
        }
        true
    }

    /// Visit every entry in rank order: one sequential pass over the
    /// arena, each group decoded once (positional [`FrontCoded::get`] would
    /// re-walk a group per follower).
    fn try_for_each<E>(&self, mut f: impl FnMut(&str) -> Result<(), E>) -> Result<(), E> {
        let mut cur = String::new();
        for (g, &start) in self.groups.iter().enumerate() {
            let (len, mut pos) = read_varint(&self.arena, start as usize);
            cur.clear();
            cur.push_str(whole_utf8(&self.arena[pos..pos + len as usize]));
            pos += len as usize;
            let in_group = (self.len - g * FC_GROUP).min(FC_GROUP);
            for r in 0..in_group {
                if r > 0 {
                    let (shared, p) = read_varint(&self.arena, pos);
                    let (slen, p) = read_varint(&self.arena, p);
                    cur.truncate(shared as usize);
                    cur.push_str(whole_utf8(&self.arena[p..p + slen as usize]));
                    pos = p + slen as usize;
                }
                f(&cur)?;
            }
        }
        Ok(())
    }

    /// The group leader's bytes, borrowed straight from the arena.
    fn leader_bytes(&self, g: usize) -> &[u8] {
        let (len, pos) = read_varint(&self.arena, self.groups[g] as usize);
        &self.arena[pos..pos + len as usize]
    }

    /// Binary search the sorted run for the rank of `key`: group leaders
    /// first, then a delta walk inside the one candidate group. Nothing is
    /// decoded or allocated. The walk tracks `lcp`, how many leading bytes
    /// the key shares with the entry before (which sorts below the key). A
    /// follower that shares more than `lcp` bytes with that entry differs
    /// from the key exactly where it did, so it sorts below the key too; one
    /// that shares `shared <= lcp` bytes agrees with the key on those, and
    /// is compared from byte `shared` on. (A shared prefix is cut back to a
    /// character boundary, so it may be shorter than the entries' common
    /// prefix.)
    fn search(&self, key: &str) -> Option<usize> {
        let key = key.as_bytes();
        // The candidate group is the last whose leader is <= key.
        let (mut lo, mut hi) = (0usize, self.groups.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.leader_bytes(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let g = lo.checked_sub(1)?;
        let common = |a: &[u8], b: &[u8]| a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let (len, start) = read_varint(&self.arena, self.groups[g] as usize);
        let mut pos = start + len as usize;
        let leader = &self.arena[start..pos];
        if leader == key {
            return Some(g * FC_GROUP);
        }
        let mut lcp = common(leader, key);
        let in_group = (self.len - g * FC_GROUP).min(FC_GROUP);
        for r in 1..in_group {
            let (shared, p) = read_varint(&self.arena, pos);
            let (slen, p) = read_varint(&self.arena, p);
            let suffix = &self.arena[p..p + slen as usize];
            pos = p + slen as usize;
            let shared = shared as usize;
            if shared > lcp {
                continue;
            }
            let rest = &key[shared..];
            let c = common(suffix, rest);
            if c == suffix.len() && c == rest.len() {
                return Some(g * FC_GROUP + r);
            }
            // Below the key when it ends first (a proper prefix of the key)
            // or has the smaller byte where they part; the run is sorted,
            // so the first entry above the key ends the search.
            let below = c == suffix.len() || (c < rest.len() && suffix[c] < rest[c]);
            if !below {
                return None;
            }
            lcp = shared + c;
        }
        None
    }

    /// Allocated bytes of the encoded image.
    fn heap_bytes(&self) -> u64 {
        (self.arena.capacity() + self.groups.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

// ---- the concurrent append tail --------------------------------------------

/// Chunk-doubling spine: chunk `k` holds `TAIL_FIRST << k` slots, so entries
/// never move once published and 40 chunks cover ~7·10¹³ entries.
const TAIL_FIRST: usize = 64;
const TAIL_SPINE: usize = 40;

/// Append-only string storage with lock-free readers. Writers must be
/// externally serialized (the owning pool's writer lock); readers only need
/// `&self` and never block. See the [module docs](self).
struct AppendTail {
    spine: [OnceLock<Box<[OnceLock<String>]>>; TAIL_SPINE],
    /// Entries `< published` are fully written and immutable.
    published: AtomicU64,
}

impl Default for AppendTail {
    fn default() -> AppendTail {
        AppendTail {
            spine: std::array::from_fn(|_| OnceLock::new()),
            published: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for AppendTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendTail")
            .field("len", &self.len())
            .finish()
    }
}

impl Clone for AppendTail {
    fn clone(&self) -> AppendTail {
        let out = AppendTail::default();
        for t in 0..self.len() {
            // The source entry below `published` is immutable; the clone is
            // exclusively owned here, satisfying push's writer contract.
            if let Some(s) = self.get(t) {
                out.push(s.to_string());
            }
        }
        out
    }
}

impl AppendTail {
    fn locate(t: u64) -> (usize, usize) {
        let n = t / TAIL_FIRST as u64 + 1;
        let k = (u64::BITS - 1 - n.leading_zeros()) as usize;
        let start = TAIL_FIRST as u64 * ((1u64 << k) - 1);
        (k, (t - start) as usize)
    }

    fn len(&self) -> u64 {
        // ordering: Acquire — pairs with the Release in `push`; any entry
        // below the loaded count is fully initialized.
        self.published.load(Ordering::Acquire)
    }

    fn get(&self, t: u64) -> Option<&str> {
        // ordering: Acquire — pairs with the Release in `push`; the bound
        // guarantees the chunk and slot reads below see initialized data.
        if t >= self.published.load(Ordering::Acquire) {
            return None;
        }
        let (k, off) = Self::locate(t);
        self.spine[k]
            .get()
            .and_then(|c| c[off].get())
            .map(String::as_str)
    }

    /// Append one entry, returning its tail index. Callers must hold the
    /// pool's writer lock — `push` assumes it is the only writer.
    fn push(&self, s: String) -> u64 {
        // ordering: Relaxed — the pool writer lock serializes all pushes;
        // this thread either published the current count itself or observed
        // it through the lock's critical section.
        let t = self.published.load(Ordering::Relaxed);
        let (k, off) = Self::locate(t);
        let chunk = self.spine[k].get_or_init(|| {
            (0..TAIL_FIRST << k)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        let set = chunk[off].set(s);
        debug_assert!(set.is_ok(), "tail slot {t} written twice");
        // ordering: Release — publishes the entry written above to readers
        // that Acquire-load a count > t.
        self.published.store(t + 1, Ordering::Release);
        t
    }

    /// Allocated bytes: the slots of every allocated chunk plus each
    /// published entry's heap capacity.
    fn heap_bytes(&self) -> u64 {
        let mut b = 0usize;
        for (k, chunk) in self.spine.iter().enumerate() {
            if let Some(chunk) = chunk.get() {
                b += (TAIL_FIRST << k) * std::mem::size_of::<OnceLock<String>>();
                b += chunk
                    .iter()
                    .filter_map(OnceLock::get)
                    .map(String::capacity)
                    .sum::<usize>();
            }
        }
        b as u64
    }
}

/// Allocated bytes of a tail's hash index, as far as the public API shows
/// them: a `(key, value)` slot and one control byte for each entry the table
/// can hold without growing (`capacity()`), and each key's heap capacity.
/// The table's internal slack — buckets past its load factor, trailing
/// control bytes — is not counted.
fn index_heap_bytes(index: &FxHashMap<String, u64>) -> u64 {
    let table = index.capacity() * (std::mem::size_of::<(String, u64)>() + 1);
    let keys: usize = index.keys().map(String::capacity).sum();
    (table + keys) as u64
}

// ---- the pool --------------------------------------------------------------

/// Where the OIDs of a frozen run sit in it, when OID order is not sorted
/// order. Both maps are dense over `0..run.len()`.
#[derive(Debug)]
struct RankMaps {
    rank_of_oid: Vec<u32>,
    oid_of_rank: Vec<u32>,
}

impl RankMaps {
    /// The maps of a run whose rank `r` holds OID `oid_of_rank[r]`; `None`
    /// when that is the identity (OID order is sorted order). Panics unless
    /// the OIDs are exactly `0..oid_of_rank.len()`.
    fn new(oid_of_rank: Vec<u32>) -> Option<Arc<RankMaps>> {
        if oid_of_rank
            .iter()
            .enumerate()
            .all(|(r, &o)| r == o as usize)
        {
            return None;
        }
        let mut rank_of_oid = vec![u32::MAX; oid_of_rank.len()];
        for (r, &oid) in oid_of_rank.iter().enumerate() {
            let slot = &mut rank_of_oid[oid as usize];
            assert_eq!(*slot, u32::MAX, "OID {oid} given two ranks");
            *slot = r as u32;
        }
        Some(Arc::new(RankMaps {
            rank_of_oid,
            oid_of_rank,
        }))
    }
}

/// An interning pool: a frozen sorted front-coded run (with [`RankMaps`]
/// where OID order differs) plus a concurrent, hash-indexed append tail.
/// See the [module docs](self).
#[derive(Debug, Default)]
struct Pool {
    run: FrontCoded,
    ranks: Option<Arc<RankMaps>>,
    tail: AppendTail,
    /// `entry -> index` over *tail* entries only. Writer lock for
    /// interning; plain reads for lookups.
    index: RwLock<FxHashMap<String, u64>>,
}

impl Clone for Pool {
    fn clone(&self) -> Pool {
        // Locking the index excludes interning writers, so `tail` and the
        // map are cloned as one coherent snapshot.
        // lock-order: acquires(pool_shard)
        let index = self.index.read();
        Pool {
            run: self.run.clone(),
            ranks: self.ranks.clone(),
            tail: self.tail.clone(),
            index: RwLock::new(index.clone()),
        }
    }
}

impl Pool {
    /// A pool whose only entries are `run`, rank `r` holding OID
    /// `oid_of_rank[r]`.
    fn frozen(run: FrontCoded, oid_of_rank: Vec<u32>) -> Pool {
        Pool {
            run,
            ranks: RankMaps::new(oid_of_rank),
            ..Pool::default()
        }
    }

    fn oid_of_rank(&self, rank: usize) -> u64 {
        self.ranks
            .as_ref()
            .map_or(rank as u64, |m| u64::from(m.oid_of_rank[rank]))
    }

    /// Intern with `&self`: the frozen run is searched without a lock; the
    /// writer lock covers the tail's map insert and publish.
    // lock-order: acquires(pool_shard)
    fn intern(&self, s: &str) -> u64 {
        if let Some(i) = self.lookup(s) {
            return i;
        }
        let mut index = self.index.write();
        if let Some(&i) = index.get(s) {
            return i;
        }
        let i = self.run.len() as u64 + self.tail.push(s.to_string());
        index.insert(s.to_string(), i);
        i
    }

    // lock-order: acquires(pool_shard)
    fn lookup(&self, s: &str) -> Option<u64> {
        match self.run.search(s) {
            Some(rank) => Some(self.oid_of_rank(rank)),
            None => self.index.read().get(s).copied(),
        }
    }

    /// The rank of entry `i` in the frozen run, if it is there.
    fn rank(&self, i: u64) -> Option<usize> {
        (i < self.run.len() as u64).then(|| {
            self.ranks
                .as_ref()
                .map_or(i as usize, |m| m.rank_of_oid[i as usize] as usize)
        })
    }

    /// Lock-free decode. A frozen entry is one map load plus a walk inside
    /// its group (a follower is rebuilt, so it allocates); group leaders and
    /// tail entries borrow.
    fn get(&self, i: u64) -> Option<Cow<'_, str>> {
        match self.rank(i) {
            Some(rank) => self.run.get(rank),
            None => self.tail.get(i - self.run.len() as u64).map(Cow::Borrowed),
        }
    }

    /// Append entry `i` to `out`, read in place: a frozen entry through
    /// [`FrontCoded::push_entry`], a tail entry copied. `false` when the
    /// pool does not hold `i`.
    fn push_entry(&self, i: u64, out: &mut String) -> bool {
        match self.rank(i) {
            Some(rank) => self.run.push_entry(rank, out),
            None => self
                .tail
                .get(i - self.run.len() as u64)
                .map(|s| out.push_str(s))
                .is_some(),
        }
    }

    /// Entries `a` and `b` in text order: by rank when both are frozen (the
    /// run is sorted), by their strings otherwise.
    fn cmp_entries(&self, a: u64, b: u64) -> Option<std::cmp::Ordering> {
        match (self.rank(a), self.rank(b)) {
            (Some(x), Some(y)) => Some(x.cmp(&y)),
            _ => Some(self.get(a)?.cmp(&self.get(b)?)),
        }
    }

    fn len(&self) -> usize {
        self.run.len() + self.tail.len() as usize
    }

    /// The entries `old < n` that `keep` keeps, as one sorted front-coded
    /// run, and the old OID of each of its ranks: the frozen run decoded in
    /// one sequential pass, merged with the sorted kept tail. Reads this
    /// pool in place and builds no `String` per entry; covers its first `n`
    /// entries, so what a shared pool gained since the caller sized `n` is
    /// not part of the result.
    fn sorted_run(&self, n: usize, keep: impl Fn(usize) -> bool) -> (FrontCoded, Vec<u32>) {
        assert!(n <= self.len(), "renumbering larger than the pool");
        assert!(u32::try_from(n).is_ok(), "pool too large for u32 ranks");
        let frozen = self.run.len();
        let mut tail: Vec<(&str, u32)> = (frozen..n)
            .filter(|&old| keep(old))
            // sordf-lint: allow(L3) — old < n <= len, so the entry exists.
            .map(|old| {
                (
                    self.tail
                        .get((old - frozen) as u64)
                        .expect("entry below len"),
                    old as u32,
                )
            })
            .collect();
        tail.sort_unstable();
        let mut tail = tail.into_iter().peekable();
        let mut run = FrontCodedBuilder::default();
        let mut old_of_rank = Vec::new();
        let mut rank = 0;
        self.run
            .try_for_each(|s| {
                let old = self.oid_of_rank(rank) as usize;
                rank += 1;
                if old < n && keep(old) {
                    while let Some((t, t_old)) = tail.next_if(|&(t, _)| t < s) {
                        run.push(t);
                        old_of_rank.push(t_old);
                    }
                    run.push(s);
                    old_of_rank.push(old as u32);
                }
                Ok(())
            })
            .unwrap_or_else(|never: std::convert::Infallible| match never {});
        for (t, t_old) in tail {
            run.push(t);
            old_of_rank.push(t_old);
        }
        (run.finish(), old_of_rank)
    }

    /// A pool holding this one's first `new_of_old.len()` entries
    /// renumbered, everything frozen: entry `old` gets OID `new_of_old[old]`,
    /// or leaves the pool when that is [`Dictionary::DROPPED`]; the
    /// surviving targets must be exactly `0..survivors`.
    fn renumbered(&self, new_of_old: &[u64]) -> Pool {
        let (run, old_of_rank) = self.sorted_run(new_of_old.len(), |old| {
            new_of_old[old] != Dictionary::DROPPED
        });
        let oid_of_rank = old_of_rank
            .iter()
            .map(|&old| new_of_old[old as usize] as u32)
            .collect();
        Pool::frozen(run, oid_of_rank)
    }

    /// A pool holding the entries `live` marks, everything frozen, numbered
    /// in sorted order, plus `new_of_old` ([`Dictionary::DROPPED`] for an
    /// entry left out). Covers this pool's first `live.len()` entries.
    fn sorted(&self, live: &[bool]) -> (Pool, Vec<u64>) {
        let (run, old_of_rank) = self.sorted_run(live.len(), |old| live[old]);
        let mut new_of_old = vec![Dictionary::DROPPED; live.len()];
        for (rank, &old) in old_of_rank.iter().enumerate() {
            new_of_old[old as usize] = rank as u64;
        }
        let pool = Pool {
            run,
            ..Pool::default()
        };
        (pool, new_of_old)
    }

    /// A pool whose entries are exactly `entries` in that index order: the
    /// first `frozen` as the sorted run, the rest as the tail. `None` when an
    /// entry repeats (two indexes for one term).
    fn from_entries(entries: Vec<String>, frozen: usize) -> Option<Pool> {
        if frozen > entries.len() || u32::try_from(frozen).is_err() {
            return None;
        }
        let mut order: Vec<u32> = (0..frozen as u32).collect();
        order.sort_unstable_by(|&a, &b| entries[a as usize].cmp(&entries[b as usize]));
        if order
            .windows(2)
            .any(|w| entries[w[0] as usize] == entries[w[1] as usize])
        {
            return None;
        }
        let run = FrontCoded::from_sorted(order.iter().map(|&i| entries[i as usize].as_str()));
        let pool = Pool::frozen(run, order);
        for s in entries.into_iter().skip(frozen) {
            let before = pool.len();
            if pool.intern(&s) != before as u64 {
                return None;
            }
        }
        Some(pool)
    }

    /// Visit the entries from index `from` on, in index order (those
    /// published when the tail walk starts: the pool may be interned into
    /// meanwhile).
    fn try_for_each_from<E>(
        &self,
        from: u64,
        mut f: impl FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        let frozen = self.run.len();
        let from_frozen = (from as usize).min(frozen);
        match &self.ranks {
            // The run decodes front to back only; skip what precedes `from`.
            None if from_frozen < frozen => {
                let mut rank = 0;
                self.run.try_for_each(|s| {
                    rank += 1;
                    if rank > from_frozen {
                        f(s)
                    } else {
                        Ok(())
                    }
                })?;
            }
            // Index order is not rank order: decode the run once, then read
            // it in index order.
            Some(m) if from_frozen < frozen => {
                let mut text = String::new();
                let mut ends = Vec::with_capacity(frozen);
                self.run
                    .try_for_each(|s| {
                        text.push_str(s);
                        ends.push(text.len());
                        Ok(())
                    })
                    .unwrap_or_else(|never: std::convert::Infallible| match never {});
                for &rank in &m.rank_of_oid[from_frozen..] {
                    let r = rank as usize;
                    let start = if r == 0 { 0 } else { ends[r - 1] };
                    f(&text[start..ends[r]])?;
                }
            }
            _ => {}
        }
        for t in (from.max(frozen as u64) - frozen as u64)..self.tail.len() {
            // sordf-lint: allow(L3) — t < tail len, so the entry exists.
            f(self.tail.get(t).expect("entry below len"))?;
        }
        Ok(())
    }

    /// Allocated bytes: the run's arena and group offsets, both maps, the
    /// tail's chunks and entries, and the tail index.
    fn heap_bytes(&self) -> u64 {
        let maps = self.ranks.as_ref().map_or(0, |m| {
            (m.rank_of_oid.capacity() + m.oid_of_rank.capacity()) * std::mem::size_of::<u32>()
        });
        // lock-order: acquires(pool_shard)
        let index = self.index.read();
        self.run.heap_bytes() + maps as u64 + self.tail.heap_bytes() + index_heap_bytes(&index)
    }
}

/// A language-tagged string literal as stored in the string pool.
/// The pool key encodes the language tag (if any) after a `\u{0}` separator,
/// which cannot occur in either component.
fn str_key<'a>(lexical: &'a str, lang: Option<&str>) -> Cow<'a, str> {
    match lang {
        None => Cow::Borrowed(lexical),
        Some(l) => Cow::Owned(format!("{lexical}\u{0}{l}")),
    }
}

fn split_str_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('\u{0}') {
        Some((lex, lang)) => (lex, Some(lang)),
        None => (key, None),
    }
}

/// The value an OID of an inline type (integer, decimal, date, dateTime,
/// boolean) carries in its payload; `None` for a dictionary-backed tag.
fn inline_value(oid: Oid) -> Option<Value> {
    Some(match oid.tag() {
        TypeTag::Int => Value::Int(oid.as_int()),
        TypeTag::Dec => Value::Decimal(oid.as_decimal_unscaled()),
        TypeTag::Date => Value::Date(oid.as_date_days()),
        TypeTag::DateTime => Value::DateTime(oid.as_datetime_secs()),
        TypeTag::Bool => Value::Bool(oid.as_bool()),
        TypeTag::Iri | TypeTag::Blank | TypeTag::Str => return None,
    })
}

/// Per-pool heap bytes: the allocated capacity of everything a pool holds
/// (front-coded arena, group offsets, rank maps, tail chunks and entries,
/// the tail's hash table and keys). The hash table counts a slot and a
/// control byte per entry of its `capacity()`, not its internal slack;
/// allocator rounding is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictMemory {
    pub iris: u64,
    pub blanks: u64,
    pub strings: u64,
}

impl DictMemory {
    pub fn total(&self) -> u64 {
        self.iris + self.blanks + self.strings
    }
}

/// Bidirectional term ↔ OID mapping. See the [module docs](self).
///
/// Interning takes `&self` — the dictionary is designed to be shared via
/// `Arc` and grown in place while readers hold clones of that `Arc`; an OID
/// a reader resolved once stays resolvable forever (pools are append-only
/// between the explicit reorganization calls, which take `&mut self`).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    iris: Pool,
    blanks: Pool,
    strings: Pool,
}

/// One of the dictionary's three interning pools, in the order a snapshot
/// dumps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictPool {
    Iris,
    Blanks,
    Strings,
}

impl DictPool {
    /// The three pools, in the order snapshots and log records list them.
    pub const ALL: [DictPool; 3] = [DictPool::Iris, DictPool::Blanks, DictPool::Strings];
}

impl Dictionary {
    /// The `new_of_old` value of an entry a renumbering discards (see
    /// [`Dictionary::renumbered`]).
    pub const DROPPED: u64 = u64::MAX;

    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Rebuild a dictionary from dumped pools: entry `i` of each vector gets
    /// index `i` again, so every OID encoded under the dumped dictionary
    /// decodes identically under this one. IRIs and blank nodes are frozen
    /// whole; the first `strings_frozen` strings must be the strictly sorted
    /// run. Errors when a pool repeats an entry or the run is unsorted — a
    /// dump this crate wrote never does either.
    pub fn from_pools(
        iris: Vec<String>,
        blanks: Vec<String>,
        strings: Vec<String>,
        strings_frozen: usize,
    ) -> Result<Dictionary, ModelError> {
        let bad = |what: &str| ModelError::BadDictionary(what.to_string());
        let whole = |entries: Vec<String>| {
            let n = entries.len();
            Pool::from_entries(entries, n)
        };
        let sorted = strings
            .get(..strings_frozen)
            .is_some_and(|run| run.windows(2).all(|w| w[0] < w[1]));
        Ok(Dictionary {
            iris: whole(iris).ok_or_else(|| bad("duplicate IRI"))?,
            blanks: whole(blanks).ok_or_else(|| bad("duplicate blank node"))?,
            strings: sorted
                .then(|| Pool::from_entries(strings, strings_frozen))
                .flatten()
                .ok_or_else(|| bad("string pool unsorted or duplicated"))?,
        })
    }

    /// Visit the entries of `pool` in index order (entry `i` is the text
    /// behind OID payload `i`) — what a snapshot dumps and
    /// [`Dictionary::from_pools`] reads back. A pool interned into
    /// meanwhile is visited up to some point of its growth; count the
    /// visits rather than asking for the size separately.
    pub fn try_for_each_entry<E>(
        &self,
        pool: DictPool,
        f: impl FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.try_for_each_entry_from(pool, 0, f)
    }

    /// [`Dictionary::try_for_each_entry`] starting at index `from` — the
    /// entries a log record appends when the committed snapshot + log
    /// already hold the first `from`.
    pub fn try_for_each_entry_from<E>(
        &self,
        pool: DictPool,
        from: u64,
        f: impl FnMut(&str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.pool(pool).try_for_each_from(from, f)
    }

    fn pool(&self, pool: DictPool) -> &Pool {
        match pool {
            DictPool::Iris => &self.iris,
            DictPool::Blanks => &self.blanks,
            DictPool::Strings => &self.strings,
        }
    }

    /// Append `entry` to `pool` as exactly index `index` — how recovery
    /// extends a snapshot's dictionary with a log record's appends. Errors
    /// when the pool is not `index` entries long or already holds the entry
    /// (it would then have two indexes): a log this crate wrote does neither.
    pub fn append_entry(&self, pool: DictPool, index: u64, entry: &str) -> Result<(), ModelError> {
        let bad = |what: &str| {
            ModelError::BadDictionary(format!("appended {pool:?} entry {index}: {what}"))
        };
        if self.pool_counts()[pool as usize] != index {
            return Err(bad("not the pool's next index"));
        }
        if self.pool(pool).intern(entry) == index {
            Ok(())
        } else {
            Err(bad("the pool already holds it"))
        }
    }

    /// Entry counts of the three pools in [`DictPool`] order (IRIs, blank
    /// nodes, strings).
    pub fn pool_counts(&self) -> [u64; 3] {
        DictPool::ALL.map(|p| self.pool(p).len() as u64)
    }

    /// Length of the sorted, front-coded string run (0 before the first
    /// string sort): string OIDs below it compare like their values.
    pub fn n_strings_frozen(&self) -> usize {
        self.strings.run.len()
    }

    /// Intern an IRI, returning its OID (ParseOrder assignment on first use).
    pub fn encode_iri(&self, iri: &str) -> Oid {
        Oid::iri(self.iris.intern(iri))
    }

    /// Intern a blank node label.
    pub fn encode_blank(&self, label: &str) -> Oid {
        Oid::blank(self.blanks.intern(label))
    }

    /// Encode a literal value. Inlinable types never touch the pools.
    pub fn encode_value(&self, v: &Value) -> Result<Oid, ModelError> {
        match v {
            Value::Str { lexical, lang } => Ok(Oid::string(
                self.strings.intern(&str_key(lexical, lang.as_deref())),
            )),
            Value::Int(i) => Oid::from_int(*i),
            Value::Decimal(u) => Oid::from_decimal_unscaled(*u),
            Value::Date(d) => Oid::from_date_days(*d),
            Value::DateTime(s) => Oid::from_datetime_secs(*s),
            Value::Bool(b) => Ok(Oid::from_bool(*b)),
        }
    }

    /// Encode any term.
    pub fn encode_term(&self, t: &Term) -> Result<Oid, ModelError> {
        match t {
            Term::Iri(iri) => Ok(self.encode_iri(iri)),
            Term::Blank(label) => Ok(self.encode_blank(label)),
            Term::Literal(Literal { value }) => self.encode_value(value),
        }
    }

    /// Look up an IRI without interning.
    pub fn iri_oid(&self, iri: &str) -> Option<Oid> {
        self.iris.lookup(iri).map(Oid::iri)
    }

    /// Look up a plain string literal without interning.
    pub fn string_oid(&self, lexical: &str) -> Option<Oid> {
        self.strings.lookup(lexical).map(Oid::string)
    }

    /// Look up any term without interning.
    pub fn term_oid(&self, t: &Term) -> Option<Oid> {
        match t {
            Term::Iri(iri) => self.iri_oid(iri),
            Term::Blank(label) => self.blanks.lookup(label).map(Oid::blank),
            Term::Literal(Literal { value }) => match value {
                Value::Str { lexical, lang } => self
                    .strings
                    .lookup(&str_key(lexical, lang.as_deref()))
                    .map(Oid::string),
                // Inline values encode without touching the pools.
                other => self.encode_value(other).ok(),
            },
        }
    }

    /// The IRI string behind an IRI OID: borrowed for a group leader or a
    /// tail entry, rebuilt for a front-coded follower.
    pub fn iri_str(&self, oid: Oid) -> Result<Cow<'_, str>, ModelError> {
        debug_assert_eq!(oid.tag(), TypeTag::Iri);
        self.iris
            .get(oid.payload())
            .ok_or(ModelError::UnknownOid(oid.raw()))
    }

    /// Two IRIs, or two blank nodes, in the order of their text — the same
    /// whatever the numbering — read from the frozen run's ranks where both
    /// are in it. `None` for any other pair, and for an OID the dictionary
    /// does not hold.
    pub fn cmp_text(&self, a: Oid, b: Oid) -> Option<std::cmp::Ordering> {
        if a.is_null() || b.is_null() {
            return None;
        }
        let pool = match (a.tag(), b.tag()) {
            (TypeTag::Iri, TypeTag::Iri) => &self.iris,
            (TypeTag::Blank, TypeTag::Blank) => &self.blanks,
            _ => return None,
        };
        pool.cmp_entries(a.payload(), b.payload())
    }

    /// Decode any OID back to a term.
    pub fn decode(&self, oid: Oid) -> Result<Term, ModelError> {
        if oid.is_null() {
            return Err(ModelError::UnknownOid(oid.raw()));
        }
        let missing = || ModelError::UnknownOid(oid.raw());
        Ok(match oid.tag() {
            TypeTag::Iri => Term::Iri(
                self.iris
                    .get(oid.payload())
                    .ok_or_else(missing)?
                    .into_owned(),
            ),
            TypeTag::Blank => Term::Blank(
                self.blanks
                    .get(oid.payload())
                    .ok_or_else(missing)?
                    .into_owned(),
            ),
            TypeTag::Str => {
                let key = self.strings.get(oid.payload()).ok_or_else(missing)?;
                let (lex, lang) = split_str_key(&key);
                Term::Literal(Literal::new(Value::Str {
                    lexical: lex.to_string(),
                    lang: lang.map(str::to_string),
                }))
            }
            _ => Term::Literal(Literal::new(inline_value(oid).ok_or_else(missing)?)),
        })
    }

    /// Append the display text of `oid` to `out`: `<iri>`, `_:label`, or a
    /// literal's lexical form ([`Value::push_lexical`]; a string's language
    /// tag is dropped). The text of [`Dictionary::decode`]'s term, read in
    /// place: a frozen entry is copied from its front-coded group, or
    /// rebuilt inside `out`; a tail entry is copied; an inline value is
    /// formatted. Nothing is allocated but `out`'s growth. On an OID the
    /// dictionary does not hold, `out` is left as it was.
    pub fn push_display(&self, oid: Oid, out: &mut String) -> Result<(), ModelError> {
        if oid.is_null() {
            return Err(ModelError::UnknownOid(oid.raw()));
        }
        let start = out.len();
        let found = match oid.tag() {
            TypeTag::Iri => {
                out.push('<');
                let found = self.iris.push_entry(oid.payload(), out);
                out.push('>');
                found
            }
            TypeTag::Blank => {
                out.push_str("_:");
                self.blanks.push_entry(oid.payload(), out)
            }
            TypeTag::Str => {
                let found = self.strings.push_entry(oid.payload(), out);
                // The pool key carries a language tag after a NUL.
                if let Some(nul) = out.as_bytes()[start..].iter().position(|&b| b == 0) {
                    out.truncate(start + nul);
                }
                found
            }
            _ => inline_value(oid).map(|v| v.push_lexical(out)).is_some(),
        };
        if found {
            Ok(())
        } else {
            out.truncate(start);
            Err(ModelError::UnknownOid(oid.raw()))
        }
    }

    /// Number of interned IRIs.
    pub fn n_iris(&self) -> usize {
        self.iris.len()
    }

    /// Number of interned blank nodes.
    pub fn n_blanks(&self) -> usize {
        self.blanks.len()
    }

    /// Number of interned string literals.
    pub fn n_strings(&self) -> usize {
        self.strings.len()
    }

    /// Heap bytes per pool (see [`DictMemory`]).
    pub fn approx_bytes(&self) -> DictMemory {
        DictMemory {
            iris: self.iris.heap_bytes(),
            blanks: self.blanks.heap_bytes(),
            strings: self.strings.heap_bytes(),
        }
    }

    /// `(encoded, plain)` bytes of the front-coded (frozen) string run —
    /// the dictionary-side compression ratio the benches report. `(0, 0)`
    /// before the first [`Dictionary::sort_strings`].
    pub fn string_front_coding_bytes(&self) -> (u64, u64) {
        (self.strings.run.heap_bytes(), self.strings.run.plain_bytes)
    }

    /// The dictionary a reorganization publishes, built **from** this one
    /// without touching it. The IRI pool is renumbered by a
    /// subject-clustering permutation, `iri_new_of_old[old_index] =
    /// new_index`: the caller rewrites every stored `Oid::iri(i)` to
    /// `Oid::iri(iri_new_of_old[i])`; an entry mapped to
    /// [`Dictionary::DROPPED`] leaves the pool — the caller vouches that no
    /// stored OID references it — and the remaining targets must be dense.
    /// The strings `live_str` keeps are sorted and front-coded (as
    /// [`Dictionary::sort_strings`]); the rest map to `DROPPED`. Returns the
    /// new dictionary and the string pool's `new_of_old`. A shared, pinned
    /// dictionary can be renumbered this way without first deep-cloning hash
    /// indexes and tail strings the renumbering discards; the maps' lengths
    /// say how much of each pool the renumbering covers, so entries a
    /// concurrent writer interns meanwhile stay out of it.
    pub fn renumbered(&self, iri_new_of_old: &[u64], live_str: &[bool]) -> (Dictionary, Vec<u64>) {
        let (strings, str_map) = self.strings.sorted(live_str);
        let dict = Dictionary {
            iris: self.iris.renumbered(iri_new_of_old),
            blanks: self.blanks.clone(),
            strings,
        };
        (dict, str_map)
    }

    /// Sort the string-literal pool lexicographically so that string OID
    /// order equals value order (enabling range predicates on string OIDs),
    /// rebuilding it front-coded. Returns `new_of_old` for the caller to
    /// rewrite stored OIDs.
    pub fn sort_strings(&mut self) -> Vec<u64> {
        let (strings, new_of_old) = self.strings.sorted(&vec![true; self.strings.len()]);
        self.strings = strings;
        new_of_old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Neighbours that share part of a multi-byte character: the shared
    /// prefix is cut back to a character boundary, and every entry decodes,
    /// positionally into a buffer and in the sequential walk, and is found.
    #[test]
    fn front_coded_prefixes_end_on_character_boundaries() {
        let mut sorted: Vec<String> = ["aé", "aê", "aê日", "aê本", "日本", "本", "\u{10ffff}"]
            .iter()
            .flat_map(|s| (0..5).map(move |i| format!("{s}{}", "ê".repeat(i))))
            .collect();
        sorted.sort();
        sorted.dedup();
        let fc = FrontCoded::from_sorted(sorted.iter().map(String::as_str));
        let mut walked = Vec::new();
        fc.try_for_each(|s| {
            walked.push(s.to_string());
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(walked, sorted);
        for (i, e) in sorted.iter().enumerate() {
            let mut out = String::from("x");
            assert!(fc.push_entry(i, &mut out));
            assert_eq!(out, format!("x{e}"), "decode {i}");
            assert_eq!(fc.get(i).unwrap(), e.as_str());
            assert_eq!(fc.search(e), Some(i), "search {e}");
        }
        assert!(!fc.push_entry(sorted.len(), &mut String::new()));
    }

    #[test]
    fn iri_interning_is_stable() {
        let d = Dictionary::new();
        let a = d.encode_iri("http://ex.org/a");
        let b = d.encode_iri("http://ex.org/b");
        let a2 = d.encode_iri("http://ex.org/a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.iri_str(a).unwrap(), "http://ex.org/a");
        assert_eq!(d.n_iris(), 2);
    }

    #[test]
    fn term_roundtrip() {
        let d = Dictionary::new();
        let terms = [
            Term::iri("http://ex.org/x"),
            Term::blank("b0"),
            Term::str("hello"),
            Term::Literal(Literal::new(Value::Str {
                lexical: "bonjour".into(),
                lang: Some("fr".into()),
            })),
            Term::int(-42),
            Term::decimal_f64(13.37),
            Term::date("1996-02-29"),
            Term::literal(Value::Bool(true)),
            Term::literal(Value::DateTime(123_456_789)),
        ];
        for t in &terms {
            let oid = d.encode_term(t).unwrap();
            assert_eq!(&d.decode(oid).unwrap(), t, "roundtrip {t:?}");
        }
    }

    #[test]
    fn lang_tags_distinguish_literals() {
        let d = Dictionary::new();
        let plain = d
            .encode_value(&Value::Str {
                lexical: "chat".into(),
                lang: None,
            })
            .unwrap();
        let fr = d
            .encode_value(&Value::Str {
                lexical: "chat".into(),
                lang: Some("fr".into()),
            })
            .unwrap();
        assert_ne!(plain, fr);
    }

    #[test]
    fn string_sorting_orders_oids() {
        let mut d = Dictionary::new();
        let banana = d.encode_value(&Value::str("banana")).unwrap();
        let apple = d.encode_value(&Value::str("apple")).unwrap();
        let cherry = d.encode_value(&Value::str("cherry")).unwrap();
        // Parse order: banana < apple < cherry by OID, wrong lexicographically.
        assert!(banana < apple);
        let map = d.sort_strings();
        let remap = |o: Oid| Oid::string(map[o.payload() as usize]);
        let (a, b, c) = (remap(apple), remap(banana), remap(cherry));
        assert!(a < b && b < c);
        assert_eq!(d.decode(a).unwrap(), Term::str("apple"));
        assert_eq!(d.decode(c).unwrap(), Term::str("cherry"));
    }

    #[test]
    fn iri_permutation_reorders_pool() {
        let d = Dictionary::new();
        let x = d.encode_iri("x");
        let y = d.encode_iri("y");
        assert_eq!((x.payload(), y.payload()), (0, 1));
        let (d, _) = d.renumbered(&[1, 0], &[]); // swap
        assert_eq!(d.iri_str(Oid::iri(1)).unwrap(), "x");
        assert_eq!(d.iri_str(Oid::iri(0)).unwrap(), "y");
        assert_eq!(d.iri_oid("x"), Some(Oid::iri(1)));
    }

    #[test]
    fn dropped_entries_leave_the_pools() {
        let d = Dictionary::new();
        for iri in ["a", "dead", "b"] {
            d.encode_iri(iri);
        }
        for s in ["pear", "gone", "apple"] {
            d.encode_value(&Value::str(s)).unwrap();
        }
        let (d, map) = d.renumbered(&[1, Dictionary::DROPPED, 0], &[true, false, true]);
        assert_eq!(d.n_iris(), 2);
        assert_eq!(d.iri_oid("a"), Some(Oid::iri(1)));
        assert_eq!(d.iri_oid("b"), Some(Oid::iri(0)));
        assert_eq!(d.iri_oid("dead"), None);
        assert_eq!(map, vec![1, Dictionary::DROPPED, 0]);
        assert_eq!(d.n_strings(), 2);
        assert_eq!(d.string_oid("gone"), None);
        assert_eq!(d.decode(Oid::string(0)).unwrap(), Term::str("apple"));
    }

    fn dump(d: &Dictionary, pool: DictPool) -> Vec<String> {
        let mut out = Vec::new();
        d.try_for_each_entry(pool, |s| {
            out.push(s.to_string());
            Ok::<(), ()>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn pools_roundtrip_with_identical_oids() {
        // A frozen sorted run spanning several front-coded groups plus a
        // tail interned after the sort, in all three pools.
        let d = Dictionary::new();
        for i in 0..FC_GROUP * 2 + 3 {
            d.encode_value(&Value::str(format!("sorted-{i:04}")))
                .unwrap();
            d.encode_iri(&format!("http://e/{i}"));
        }
        d.encode_blank("b0");
        let reversed: Vec<u64> = (0..d.n_iris() as u64).rev().collect();
        let (d, _) = d.renumbered(&reversed, &vec![true; d.n_strings()]);
        let late = [
            d.encode_value(&Value::str("aaa-late")).unwrap(),
            d.encode_iri("http://e/late"),
            d.encode_blank("b1"),
        ];
        let back = Dictionary::from_pools(
            dump(&d, DictPool::Iris),
            dump(&d, DictPool::Blanks),
            dump(&d, DictPool::Strings),
            d.n_strings_frozen(),
        )
        .unwrap();
        assert_eq!(back.n_strings_frozen(), FC_GROUP * 2 + 3);
        for i in 0..d.n_iris() as u64 {
            assert_eq!(back.decode(Oid::iri(i)), d.decode(Oid::iri(i)));
        }
        for i in 0..d.n_strings() as u64 {
            assert_eq!(back.decode(Oid::string(i)), d.decode(Oid::string(i)));
        }
        for oid in late {
            let term = d.decode(oid).unwrap();
            assert_eq!(back.term_oid(&term), Some(oid), "lookup {term:?}");
        }
        // The same physical shape as a freshly renumbered dictionary
        // holding the same entries: nothing extra becomes resident.
        let (fresh, _) = d.renumbered(&(0..d.n_iris() as u64).collect::<Vec<_>>(), &[]);
        assert_eq!(back.approx_bytes().iris, fresh.approx_bytes().iris);
        assert_eq!(back.approx_bytes().strings, d.approx_bytes().strings);
    }

    #[test]
    fn renumbered_covers_what_its_maps_cover() {
        let d = Dictionary::new();
        for i in 0..40 {
            d.encode_iri(&format!("http://e/{i}"));
            d.encode_value(&Value::str(format!("s-{:03}", (i * 7) % 40)))
                .unwrap();
        }
        d.encode_blank("b0");
        // Reverse the IRIs, dropping every fifth; keep two strings in three.
        let mut want_iris = Vec::new();
        let iri_map: Vec<u64> = (0..40)
            .rev()
            .map(|i| {
                if i % 5 == 0 {
                    Dictionary::DROPPED
                } else {
                    want_iris.push(format!("http://e/{}", 39 - i));
                    want_iris.len() as u64 - 1
                }
            })
            .collect();
        let live: Vec<bool> = (0..40).map(|i| i % 3 != 0).collect();
        let mut want_strings: Vec<String> = (0..40)
            .filter(|i| live[*i])
            .map(|i| format!("s-{:03}", (i * 7) % 40))
            .collect();
        want_strings.sort();
        // A writer interns into the shared dictionary after the maps were
        // sized: the renumbering covers exactly what the maps cover.
        d.encode_iri("http://e/late");
        d.encode_value(&Value::str("late")).unwrap();
        let (got, str_map) = d.renumbered(&iri_map, &live);
        assert_eq!(dump(&got, DictPool::Iris), want_iris);
        assert_eq!(dump(&got, DictPool::Blanks), ["b0"]);
        assert_eq!(dump(&got, DictPool::Strings), want_strings);
        for (old, &new) in str_map.iter().enumerate() {
            match live[old] {
                true => assert_eq!(
                    want_strings[new as usize],
                    format!("s-{:03}", (old * 7) % 40)
                ),
                false => assert_eq!(new, Dictionary::DROPPED),
            }
        }
        assert_eq!(got.n_strings_frozen(), want_strings.len());
        assert_eq!(got.iri_oid("http://e/late"), None);
        assert_eq!(got.iri_oid("http://e/1"), Some(Oid::iri(iri_map[1])));
        assert_eq!(d.n_iris(), 41, "the source dictionary is untouched");
    }

    #[test]
    fn appended_entries_must_be_contiguous_and_new() {
        let mut d = Dictionary::new();
        for s in ["b", "a"] {
            d.encode_value(&Value::str(s)).unwrap();
        }
        d.sort_strings();
        d.encode_value(&Value::str("tail")).unwrap();
        assert_eq!(d.pool_counts(), [0, 0, 3]);
        // The entries from an index on: across the frozen run and the tail.
        let from = |i| {
            let mut out = Vec::new();
            d.try_for_each_entry_from(DictPool::Strings, i, |s| {
                out.push(s.to_string());
                Ok::<(), ()>(())
            })
            .unwrap();
            out
        };
        assert_eq!(from(0), ["a", "b", "tail"]);
        assert_eq!(from(1), ["b", "tail"]);
        assert_eq!(from(2), ["tail"]);
        assert!(from(3).is_empty());
        d.append_entry(DictPool::Strings, 3, "next").unwrap();
        d.append_entry(DictPool::Iris, 0, "http://e/x").unwrap();
        // A gap, a repeat of the same index, and an entry the pool holds.
        assert!(d.append_entry(DictPool::Iris, 2, "http://e/y").is_err());
        assert!(d.append_entry(DictPool::Iris, 0, "http://e/z").is_err());
        assert!(d.append_entry(DictPool::Strings, 4, "a").is_err());
        assert!(d.append_entry(DictPool::Blanks, 0, "b0").is_ok());
    }

    #[test]
    fn malformed_pools_are_rejected() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(Dictionary::from_pools(s(&["a", "a"]), vec![], vec![], 0).is_err());
        assert!(Dictionary::from_pools(vec![], s(&["b", "b"]), vec![], 0).is_err());
        // Frozen run out of order, repeated, or longer than the pool.
        assert!(Dictionary::from_pools(vec![], vec![], s(&["b", "a"]), 2).is_err());
        assert!(Dictionary::from_pools(vec![], vec![], s(&["a", "a"]), 2).is_err());
        assert!(Dictionary::from_pools(vec![], vec![], s(&["a"]), 2).is_err());
        // A tail entry repeating a frozen or an earlier tail entry.
        assert!(Dictionary::from_pools(vec![], vec![], s(&["a", "b", "a"]), 2).is_err());
        assert!(Dictionary::from_pools(vec![], vec![], s(&["a", "z", "z"]), 1).is_err());
        assert!(Dictionary::from_pools(vec![], vec![], s(&["b", "a"]), 0).is_ok());
    }

    #[test]
    fn unknown_oid_is_an_error() {
        let d = Dictionary::new();
        assert!(d.decode(Oid::iri(99)).is_err());
        assert!(d.decode(Oid::NULL).is_err());
    }

    #[test]
    fn term_oid_does_not_intern() {
        let d = Dictionary::new();
        assert_eq!(d.term_oid(&Term::iri("nope")), None);
        assert_eq!(d.n_iris(), 0);
        // Inline literals are found without dictionary state.
        assert_eq!(d.term_oid(&Term::int(7)), Some(Oid::from_int(7).unwrap()));
    }

    #[test]
    fn front_coding_roundtrips_and_searches() {
        // Multiple groups, shared prefixes, a leader-only last group.
        let entries: Vec<String> = (0..FC_GROUP * 3 + 1)
            .map(|i| format!("http://example.org/entity/node{i:05}"))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort();
        let fc = FrontCoded::from_sorted(sorted.iter().map(String::as_str));
        assert_eq!(fc.len(), sorted.len());
        for (i, e) in sorted.iter().enumerate() {
            assert_eq!(fc.get(i).unwrap().as_ref(), e, "decode {i}");
            assert_eq!(fc.search(e), Some(i), "search {e}");
        }
        assert_eq!(fc.search("http://example.org/aaa"), None);
        assert_eq!(fc.search("zzz"), None);
        assert_eq!(fc.search(""), None);
        assert!(fc.get(sorted.len()).is_none());
        // Shared prefixes compress: the encoded image is smaller than plain.
        assert!(fc.heap_bytes() < fc.plain_bytes);
    }

    #[test]
    fn front_coded_search_equals_a_plain_sorted_search() {
        // Short alphabets make prefixes of each other, shared prefixes of
        // every length and near misses on both sides of every entry.
        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut word = |max: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = (lcg >> 60) % max;
            (0..len)
                .map(|i| [b'a', b'b', b'\xc3'][((lcg >> (i * 2)) % 3) as usize] as char)
                .collect::<String>()
        };
        let mut sorted: Vec<String> = (0..400).map(|_| word(9)).collect();
        sorted.sort();
        sorted.dedup();
        let fc = FrontCoded::from_sorted(sorted.iter().map(String::as_str));
        for (i, e) in sorted.iter().enumerate() {
            assert_eq!(fc.search(e), Some(i), "present {e:?}");
        }
        for _ in 0..4000 {
            let probe = word(11);
            let want = sorted.binary_search(&probe).ok();
            assert_eq!(fc.search(&probe), want, "probe {probe:?}");
        }
    }

    #[test]
    fn front_coded_pool_still_interns_after_sort() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            d.encode_value(&Value::str(format!("value-{i:03}")))
                .unwrap();
        }
        d.sort_strings();
        // Known strings resolve through the front-coded run, not the tail.
        let o = d.string_oid("value-042").unwrap();
        assert_eq!(d.decode(o).unwrap(), Term::str("value-042"));
        // New strings land in the tail and resolve too.
        let n = d.encode_value(&Value::str("aaa-new")).unwrap();
        assert_eq!(d.decode(n).unwrap(), Term::str("aaa-new"));
        assert_eq!(d.encode_value(&Value::str("aaa-new")).unwrap(), n);
        assert_eq!(d.n_strings(), 101);
        let (enc, plain) = d.string_front_coding_bytes();
        assert!(
            enc > 0 && enc < plain,
            "front coding shrinks ({enc} vs {plain})"
        );
    }

    #[test]
    fn append_tail_chunk_boundaries() {
        let tail = AppendTail::default();
        // Cross the first two chunk boundaries (64, 192).
        for i in 0..300u64 {
            assert_eq!(tail.push(format!("e{i}")), i);
        }
        assert_eq!(tail.len(), 300);
        for i in 0..300u64 {
            assert_eq!(tail.get(i), Some(format!("e{i}").as_str()));
        }
        assert_eq!(tail.get(300), None);
    }

    #[test]
    fn shared_interning_is_concurrent() {
        // Interning through a shared Arc: readers decode while writers
        // intern; no locks are held across the API boundary.
        let d = Arc::new(Dictionary::new());
        let base = d.encode_iri("http://ex.org/base");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let oid = d.encode_iri(&format!("http://ex.org/t{}/{}", t, i % 50));
                        assert!(d.iri_str(oid).is_ok());
                        assert_eq!(d.iri_str(base).unwrap(), "http://ex.org/base");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 4 threads × 50 distinct + base.
        assert_eq!(d.n_iris(), 201);
    }

    #[test]
    fn dict_memory_counts_allocated_capacities() {
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A frozen run whose OID order is not sorted order. One group: the
        // leader "a" (1 + 1 bytes), "ab" (shared 1, suffix "b": 3 bytes),
        // "b" (shared 0, suffix "b": 3 bytes); one group offset; two maps
        // of three u32 each.
        let d = Dictionary::from_pools(owned(&["b", "a", "ab"]), vec![], vec![], 0).unwrap();
        let frozen = 8 + 4 + 2 * 3 * 4;
        assert_eq!(d.approx_bytes().iris, frozen);
        // A sorted run carries no maps.
        let d2 = Dictionary::from_pools(vec![], vec![], owned(&["a", "ab", "b"]), 3).unwrap();
        assert_eq!(d2.approx_bytes().strings, 8 + 4);
        // One tail entry: the first chunk's slots and the entry's heap
        // bytes, then the hash index — a (String, u64) slot and a control
        // byte for each entry it can hold — with its key's heap bytes.
        d.encode_iri("http://");
        let slots = (TAIL_FIRST * std::mem::size_of::<OnceLock<String>>()) as u64;
        let cap = d.iris.index.read().capacity();
        assert!(cap >= 1);
        let table = (cap * (std::mem::size_of::<(String, u64)>() + 1)) as u64;
        assert_eq!(d.approx_bytes().iris, frozen + slots + 7 + table + 7);
        assert_eq!(d.approx_bytes().blanks, 0);
    }

    #[test]
    fn a_renumbering_into_sorted_order_drops_the_maps() {
        let d = Dictionary::new();
        for i in 0..FC_GROUP * 2 + 5 {
            d.encode_iri(&format!("http://e/{i}"));
        }
        let n = d.n_iris() as u64;
        let reversed: Vec<u64> = (0..n).rev().collect();
        let (a, _) = d.renumbered(&reversed, &[]);
        assert!(a.iris.ranks.is_some());
        let mut sorted: Vec<(String, u64)> = (0..n)
            .map(|i| (a.iri_str(Oid::iri(i)).unwrap().into_owned(), i))
            .collect();
        sorted.sort();
        let mut to_sorted = vec![0; n as usize];
        for (rank, (_, oid)) in sorted.iter().enumerate() {
            to_sorted[*oid as usize] = rank as u64;
        }
        let (b, _) = a.renumbered(&to_sorted, &[]);
        assert!(b.iris.ranks.is_none());
        assert_eq!(b.approx_bytes().iris, b.iris.run.heap_bytes());
        for (rank, (iri, _)) in sorted.iter().enumerate() {
            assert_eq!(b.iri_oid(iri), Some(Oid::iri(rank as u64)));
            assert_eq!(b.iri_str(Oid::iri(rank as u64)).unwrap(), *iri);
        }
    }

    #[test]
    fn dict_memory_accounting_is_positive() {
        let mut d = Dictionary::new();
        d.encode_iri("http://ex.org/a");
        d.encode_blank("b0");
        d.encode_value(&Value::str("hello")).unwrap();
        let m = d.approx_bytes();
        assert!(m.iris > 0 && m.blanks > 0 && m.strings > 0);
        assert_eq!(m.total(), m.iris + m.blanks + m.strings);
        // Sorting shrinks the string pool: the hash index over the frozen
        // run disappears entirely.
        let before = d.approx_bytes().strings;
        d.sort_strings();
        assert!(d.approx_bytes().strings < before);
    }
}
