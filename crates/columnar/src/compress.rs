//! Per-page lightweight compression: frame-of-reference + bit-packing.
//!
//! Every [`crate::Column`] page holds up to [`VALS_PER_PAGE`] logical u64
//! values, but it does not have to *store* 64 bits per value. Sorted and
//! clustered OID runs — the dominant content of a self-organized store —
//! have tiny per-page value ranges, so a frame-of-reference (FOR) page
//! stores one 64-bit base plus fixed-width bit-packed deltas and shrinks
//! the bytes a scan must touch by 3–8x. The engine never sees this: chunk
//! iteration decodes pages into register-sized blocks, and point access
//! (`gather`, binary search) decodes single positions in O(1).
//!
//! ## Page layouts
//!
//! A page's encoding is chosen at build time by a size heuristic and
//! recorded both in the column's in-memory [`PageEnc`] table and in the
//! page's own header word (so pages are self-describing on disk):
//!
//! ```text
//! Plain:  [v0][v1]...[v8191]                      (no header)
//! FOR:    [header][base][packed deltas...]        (header tag = 1)
//! Const:  [header][value]                         (header tag = 2)
//! ```
//!
//! The header word packs `tag | width << 8 | count << 16`. FOR deltas are
//! `value - base`, packed LSB-first at a fixed `width` of 1..=63 bits;
//! NULLs are stored in-band as the all-ones delta code `(1 << width) - 1`,
//! so a FOR page is only chosen when `max - base` is strictly below that
//! code. A `Const` page stores one repeated value (possibly the NULL
//! sentinel) — it is served straight from column metadata, without a
//! buffer-pool request.
//!
//! ## Packed runs
//!
//! The same choice also packs short runs held in memory, many to one word
//! arena ([`pack_run`], read back through [`PackedRun`]) — the form of the
//! SPO-sorted base triple list. A run image is the page image with its
//! header word always present, so a run is self-describing where it lies:
//!
//! ```text
//! Plain:  [header][v0][v1]...                     (header tag = 0)
//! FOR:    [header][base][packed deltas...]        (header tag = 1)
//! Const:  [header][value]                         (header tag = 2)
//! ```
//!
//! All byte-level page layout knowledge lives in this module and
//! `column.rs`; everything else goes through [`crate::Chunk`], the column
//! accessors and [`PackedRun`] (lint rule L8 enforces this).

use crate::disk::VALS_PER_PAGE;

/// The NULL sentinel (same value as `column::NULL_SENTINEL`; redeclared here
/// to keep this module free of circular imports).
const NULL: u64 = u64::MAX;

/// Header tag of a plain packed run (a plain *page* has no header).
pub const TAG_PLAIN: u64 = 0;
/// Header tag of a frame-of-reference page.
pub const TAG_FOR: u64 = 1;
/// Header tag of a constant (run-length) page.
pub const TAG_CONST: u64 = 2;

/// Words a FOR page spends before packed data: header + base.
const FOR_PREFIX_WORDS: usize = 2;

/// How one column page is encoded. Carried in column metadata (one entry
/// per page) so readers know the layout before touching the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEnc {
    /// Raw u64 values, no header — for pages that neither FOR nor a
    /// constant would shrink.
    Plain,
    /// Frame-of-reference: `base` + `width`-bit deltas, NULL in-band as the
    /// all-ones delta code.
    For { base: u64, width: u8 },
    /// Every row holds `value` (which may be the NULL sentinel). Served
    /// from metadata alone — no disk page access.
    Const { value: u64 },
}

impl PageEnc {
    /// Words of the 64 KiB page this encoding actually uses for `count`
    /// values — the "bytes a scan must touch" behind
    /// `Column::used_bytes` and the store's compression ratio.
    pub fn used_words(&self, count: usize) -> usize {
        match self {
            PageEnc::Plain => count,
            PageEnc::For { width, .. } => FOR_PREFIX_WORDS + packed_words(count, *width),
            PageEnc::Const { .. } => FOR_PREFIX_WORDS,
        }
    }
}

/// Words needed to bit-pack `count` values at `width` bits each.
#[inline]
pub fn packed_words(count: usize, width: u8) -> usize {
    (count * width as usize).div_ceil(64)
}

/// Pack the page header word.
#[inline]
fn header(tag: u64, width: u8, count: usize) -> u64 {
    debug_assert!(count <= VALS_PER_PAGE);
    tag | (width as u64) << 8 | (count as u64) << 16
}

/// The narrowest delta width (1..=63) whose in-band NULL code stays above
/// `range = max - base`, i.e. the smallest `w` with `range < (1 << w) - 1`.
/// `None` when no width below 64 bits can hold the range.
fn width_for(range: u64) -> Option<u8> {
    (1..=63u8).find(|&w| range < (1u64 << w) - 1)
}

/// Choose the encoding for one page of values by the size heuristic: the
/// cheapest self-describing layout that is strictly smaller than plain.
/// Returns the chosen encoding plus the encoded page image to write (`None`
/// for plain — the caller writes the raw values).
pub fn choose(vals: &[u64]) -> (PageEnc, Option<Vec<u64>>) {
    debug_assert!(!vals.is_empty() && vals.len() <= VALS_PER_PAGE);
    let mut image = Vec::new();
    let enc = encode_into(vals, vals.len(), &mut image);
    (enc, (enc != PageEnc::Plain).then_some(image))
}

/// The size heuristic behind pages and runs alike: append to `out` the
/// cheapest self-describing image of `vals` that is strictly smaller than
/// `plain_words` (what storing them plain costs), or nothing for plain.
fn encode_into(vals: &[u64], plain_words: usize, out: &mut Vec<u64>) -> PageEnc {
    let first = vals[0];
    if vals.iter().all(|&v| v == first) {
        out.extend([header(TAG_CONST, 0, vals.len()), first]);
        return PageEnc::Const { value: first };
    }
    // Frame of reference over the non-null values.
    let mut min = u64::MAX;
    let mut max = 0u64;
    for &v in vals {
        if v != NULL {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if min > max {
        // All NULL (but not uniform — unreachable given the Const check
        // above; kept for safety).
        out.extend([header(TAG_CONST, 0, vals.len()), NULL]);
        return PageEnc::Const { value: NULL };
    }
    let Some(width) = width_for(max - min) else {
        return PageEnc::Plain;
    };
    let enc = PageEnc::For { base: min, width };
    let used = enc.used_words(vals.len());
    if used >= plain_words {
        // Packing would not shrink the page (short tails, wide ranges).
        return PageEnc::Plain;
    }
    out.reserve(used);
    out.extend([header(TAG_FOR, width, vals.len()), min]);
    // Word-at-a-time, the mirror of `for_decode_range`: `acc` holds the
    // `filled` low bits of the word being packed.
    let w = width as u32;
    let mask = (1u64 << width) - 1;
    let (mut acc, mut filled) = (0u64, 0u32);
    for &v in vals {
        let delta = if v == NULL { mask } else { v - min };
        acc |= delta << filled;
        filled += w;
        if filled >= 64 {
            out.push(acc);
            filled -= 64;
            // The bits of `delta` that did not fit start the next word.
            acc = if filled == 0 {
                0
            } else {
                delta >> (w - filled)
            };
        }
    }
    if filled > 0 {
        out.push(acc);
    }
    enc
}

/// Append `vals` to `arena` as one packed run (see the
/// [module docs](self#packed-runs)): the page codec's own constant / FOR /
/// plain choice, charging plain its header word. Runs hold at most a page
/// of values.
pub fn pack_run(vals: &[u64], arena: &mut Vec<u64>) {
    debug_assert!(vals.len() <= VALS_PER_PAGE);
    if vals.is_empty() || encode_into(vals, vals.len() + 1, arena) == PageEnc::Plain {
        arena.push(header(TAG_PLAIN, 0, vals.len()));
        arena.extend_from_slice(vals);
    }
}

/// One packed run inside a word arena, read in place: point access, range
/// decode and binary search on the packed words, as a column page is.
#[derive(Debug, Clone, Copy)]
pub struct PackedRun<'a> {
    enc: PageEnc,
    len: usize,
    /// The run's image, header word first.
    words: &'a [u64],
}

impl<'a> PackedRun<'a> {
    /// The run whose header word is `arena[at]`, and the arena position
    /// just past its image (where the next run starts).
    pub fn at(arena: &'a [u64], at: usize) -> (PackedRun<'a>, usize) {
        let h = arena[at];
        let (width, len) = ((h >> 8) as u8, (h >> 16) as usize);
        let enc = match h & 0xff {
            TAG_CONST => PageEnc::Const {
                value: arena[at + 1],
            },
            TAG_FOR => PageEnc::For {
                base: arena[at + 1],
                width,
            },
            _ => PageEnc::Plain,
        };
        let n_words = match enc {
            PageEnc::Plain => 1 + len,
            enc => enc.used_words(len),
        };
        let words = &arena[at..at + n_words];
        (PackedRun { enc, len, words }, at + n_words)
    }

    /// Values in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the run hold no values?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value `i`, decoded in O(1).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        match self.enc {
            PageEnc::Plain => self.words[1 + i],
            PageEnc::For { base, width } => for_get(self.words, base, width, i),
            PageEnc::Const { value } => value,
        }
    }

    /// Append values `lo..hi` to `out`.
    pub fn decode_range(&self, lo: usize, hi: usize, out: &mut Vec<u64>) {
        debug_assert!(lo <= hi && hi <= self.len);
        match self.enc {
            PageEnc::Plain => out.extend_from_slice(&self.words[1 + lo..1 + hi]),
            PageEnc::For { base, width } => for_decode_range(self.words, base, width, lo, hi, out),
            PageEnc::Const { value } => out.resize(out.len() + hi - lo, value),
        }
    }

    /// First position in `lo..hi` where `pred(value)` is false, given `pred`
    /// is monotone over the run — a binary search on the packed words.
    pub fn partition_point(&self, lo: usize, hi: usize, pred: impl Fn(u64) -> bool) -> usize {
        debug_assert!(lo <= hi && hi <= self.len);
        match self.enc {
            PageEnc::Plain => lo + self.words[1 + lo..1 + hi].partition_point(|&v| pred(v)),
            PageEnc::For { base, width } => {
                for_partition_point(self.words, base, width, lo, hi, pred)
            }
            PageEnc::Const { value } => {
                if lo < hi && pred(value) {
                    hi
                } else {
                    lo
                }
            }
        }
    }
}

/// Decode position `i` of a FOR page in O(1). `words` is the full page
/// image (header + base + packed deltas).
#[inline]
pub fn for_get(words: &[u64], base: u64, width: u8, i: usize) -> u64 {
    let mask = (1u64 << width) - 1;
    let bit = i * width as usize;
    let (word, shift) = (bit / 64, (bit % 64) as u32);
    let mut delta = words[FOR_PREFIX_WORDS + word] >> shift;
    if shift as usize + width as usize > 64 {
        delta |= words[FOR_PREFIX_WORDS + word + 1] << (64 - shift);
    }
    let delta = delta & mask;
    if delta == mask {
        NULL
    } else {
        base + delta
    }
}

/// Decode positions `lo..hi` of a FOR page into `out` — the
/// decode-into-register-block step chunked scans run per page.
///
/// This is the hottest loop of scan-on-compressed execution, so it unpacks
/// word-at-a-time: a register window (`cur`/`avail`) is refilled once per
/// packed word, and every value between refills costs only a mask, a
/// compare and an add — no per-value position arithmetic or wide loads.
pub fn for_decode_range(
    words: &[u64],
    base: u64,
    width: u8,
    lo: usize,
    hi: usize,
    out: &mut Vec<u64>,
) {
    debug_assert!(lo <= hi);
    let n = hi - lo;
    if n == 0 {
        return;
    }
    let w = width as usize;
    let mask = (1u64 << width) - 1;
    let packed = &words[FOR_PREFIX_WORDS..];
    let bit = lo * w;
    let mut wi = bit >> 6;
    let shift = bit & 63;
    // Window of undecoded bits: `avail` low bits of `cur` are valid.
    let mut cur = packed[wi] >> shift;
    let mut avail = 64 - shift;
    out.extend((0..n).map(|_| {
        let delta = if avail >= w {
            let d = cur & mask;
            cur >>= w;
            avail -= w;
            d
        } else {
            // Straddles the word boundary: splice the next word's low bits
            // onto the `avail` bits still in the window.
            wi += 1;
            let next = packed[wi];
            let d = (cur | next << avail) & mask;
            cur = next >> (w - avail);
            avail = 64 - (w - avail);
            d
        };
        if delta == mask {
            NULL
        } else {
            base + delta
        }
    }));
}

/// First position in `lo..hi` of a FOR page where `pred(value)` is false,
/// given `pred` is monotone (true-prefix) over the positions — O(log n)
/// binary search decoding one position per step.
pub fn for_partition_point(
    words: &[u64],
    base: u64,
    width: u8,
    lo: usize,
    hi: usize,
    pred: impl Fn(u64) -> bool,
) -> usize {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(for_get(words, base, width, mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: &[u64]) -> PageEnc {
        let (enc, image) = choose(vals);
        match enc {
            PageEnc::Plain => assert!(image.is_none()),
            PageEnc::Const { value } => {
                assert!(vals.iter().all(|&v| v == value));
                assert_eq!(image.unwrap().len(), 2);
            }
            PageEnc::For { base, width } => {
                let mut page = image.unwrap();
                assert!(page.len() < vals.len(), "FOR must shrink the page");
                page.resize(VALS_PER_PAGE, 0); // as read_page would return it
                for (i, &v) in vals.iter().enumerate() {
                    assert_eq!(for_get(&page, base, width, i), v, "position {i}");
                }
                let mut dec = Vec::new();
                for_decode_range(&page, base, width, 0, vals.len(), &mut dec);
                assert_eq!(dec, vals);
                // Partial ranges decode identically.
                let (lo, hi) = (vals.len() / 3, 2 * vals.len() / 3);
                let mut part = Vec::new();
                for_decode_range(&page, base, width, lo, hi, &mut part);
                assert_eq!(part, &vals[lo..hi]);
            }
        }
        enc
    }

    #[test]
    fn sequential_run_packs_narrow() {
        let vals: Vec<u64> = (1000..1000 + VALS_PER_PAGE as u64).collect();
        match roundtrip(&vals) {
            PageEnc::For { base, width } => {
                assert_eq!(base, 1000);
                assert_eq!(width, 14, "8191 range needs 14 bits with in-band NULL");
            }
            other => panic!("expected FOR, got {other:?}"),
        }
    }

    #[test]
    fn nulls_are_in_band() {
        let mut vals: Vec<u64> = (0..4096).map(|i| 7 + i % 100).collect();
        vals.extend(std::iter::repeat_n(NULL, 4096));
        match roundtrip(&vals) {
            PageEnc::For { base, width } => {
                assert_eq!(base, 7);
                assert!(width >= 7, "NULL code must clear the 0..=99 range");
            }
            other => panic!("expected FOR, got {other:?}"),
        }
    }

    #[test]
    fn constant_and_all_null_pages() {
        assert!(matches!(
            roundtrip(&vec![42u64; VALS_PER_PAGE]),
            PageEnc::Const { value: 42 }
        ));
        assert!(matches!(
            roundtrip(&vec![NULL; 100]),
            PageEnc::Const { value: NULL }
        ));
        assert!(matches!(roundtrip(&[7]), PageEnc::Const { value: 7 }));
    }

    #[test]
    fn wide_or_tiny_pages_stay_plain() {
        // Range too wide for any width <= 63.
        assert!(matches!(roundtrip(&[0, u64::MAX - 1]), PageEnc::Plain));
        // A short tail where the 2-word prefix erases the packing win.
        assert!(matches!(roundtrip(&[1, 2, 3]), PageEnc::Plain));
    }

    #[test]
    fn width_boundary_values() {
        // range == mask - 1 for width w fits; range == mask needs w + 1.
        for w in [1u8, 7, 13, 31, 62] {
            let mask = (1u64 << w) - 1;
            assert_eq!(width_for(mask - 1), Some(w));
            assert_eq!(width_for(mask), Some(w + 1));
        }
        assert_eq!(width_for((1u64 << 63) - 1), None, "63-bit range overflows");
        assert_eq!(width_for(u64::MAX - 1), None);
        assert_eq!(width_for(0), Some(1));
    }

    #[test]
    fn packed_crossing_word_boundaries() {
        // width 63 forces nearly every value to straddle two words.
        let vals: Vec<u64> = (0..VALS_PER_PAGE as u64)
            .map(|i| i * ((1u64 << 49) / VALS_PER_PAGE as u64))
            .collect();
        match roundtrip(&vals) {
            PageEnc::For { width, .. } => assert!(width >= 40),
            other => panic!("expected FOR, got {other:?}"),
        }
    }

    #[test]
    fn partition_point_matches_slice_search() {
        let vals: Vec<u64> = (0..VALS_PER_PAGE as u64).map(|i| 50 + i * 3).collect();
        let (enc, image) = choose(&vals);
        let PageEnc::For { base, width } = enc else {
            panic!("expected FOR")
        };
        let mut page = image.unwrap();
        page.resize(VALS_PER_PAGE, 0);
        for probe in [0u64, 49, 50, 51, 5000, u64::MAX - 1] {
            let got = for_partition_point(&page, base, width, 0, vals.len(), |x| x < probe);
            assert_eq!(got, vals.partition_point(|&x| x < probe), "probe {probe}");
        }
        // Sub-range searches (secondary sort keys are run-sorted).
        let got = for_partition_point(&page, base, width, 100, 200, |x| x < 500);
        assert_eq!(got, 150);
    }

    #[test]
    fn packed_runs_share_one_arena() {
        let runs: Vec<Vec<u64>> = vec![
            vec![],
            vec![7],
            vec![NULL; 5],
            (10..1034).collect(),
            vec![0, u64::MAX - 1, 3],
            vec![u64::MAX - 2, NULL, u64::MAX - 1],
            vec![1, 2],
        ];
        let mut arena = Vec::new();
        for r in &runs {
            pack_run(r, &mut arena);
        }
        let mut at = 0;
        for r in &runs {
            let (run, next) = PackedRun::at(&arena, at);
            assert_eq!(run.len(), r.len());
            assert!(next - at <= r.len() + 1, "never dearer than plain");
            let mut all = Vec::new();
            run.decode_range(0, run.len(), &mut all);
            assert_eq!(&all, r);
            for (i, &v) in r.iter().enumerate() {
                assert_eq!(run.get(i), v);
            }
            if r.windows(2).all(|w| w[0] <= w[1]) {
                for &probe in r.iter().chain(&[0, 9, 500, u64::MAX]) {
                    let want = r.partition_point(|&x| x < probe);
                    assert_eq!(run.partition_point(0, r.len(), |x| x < probe), want);
                }
            }
            at = next;
        }
        assert_eq!(at, arena.len());
        // A sequential run packs to its width, not to 64 bits a value.
        assert!(arena.len() < 200, "{} words", arena.len());
    }
}
