//! Property-based differential tests for the page-compression layer, both
//! against the raw input values:
//!
//! * **Page level** — for arbitrary value runs, [`compress::choose`] must
//!   produce an image that decodes byte-identically back through
//!   [`compress::for_get`] / [`compress::for_decode_range`], and
//!   [`compress::for_partition_point`] must agree with the slice
//!   `partition_point` on sorted runs.
//! * **Column level** — a [`Column`] built from a slice must return that
//!   slice through every accessor the engine and the store layouts call on
//!   a column: `len`, `n_nulls`, `n_pages`, `page_rows`, `zonemap`,
//!   `to_vec`, `for_each_chunk`, `for_each_chunk_pruned`,
//!   `for_each_chunk_pair`, `pin_page_in`, `gather`, `value`, and the
//!   binary searches `lower_bound`, `upper_bound`, `lower_bound_in`,
//!   `upper_bound_in`.
//!
//! Deterministic edge-case tests cover the shapes the generator is unlikely
//! to hit: empty columns, all-NULL pages, single-value pages, and ranges too
//! wide for any packed width — each at both levels, page and column.

use proptest::prelude::*;
use sordf_columnar::column::NULL_SENTINEL;
use sordf_columnar::compress::{self, PageEnc};
use sordf_columnar::{BufferPool, Column, DiskManager, VALS_PER_PAGE};
use std::sync::Arc;

/// Round-trip one logical page through `choose` and the FOR decoders,
/// asserting the decoded values are identical to the input whatever
/// encoding the size heuristic picked.
fn assert_page_roundtrip(vals: &[u64]) -> PageEnc {
    let (enc, image) = compress::choose(vals);
    match enc {
        PageEnc::Plain => assert!(image.is_none(), "plain pages carry no image"),
        PageEnc::Const { value } => {
            assert!(
                vals.iter().all(|&v| v == value),
                "Const page must be uniform"
            );
            assert_eq!(image.unwrap().len(), 2, "Const image is header + value");
        }
        PageEnc::For { base, width } => {
            let mut page = image.unwrap();
            assert_eq!(page.len(), enc.used_words(vals.len()));
            assert!(
                page.len() < vals.len(),
                "FOR must be strictly smaller than plain"
            );
            // Pages come back from the buffer pool zero-padded to full size.
            page.resize(VALS_PER_PAGE, 0);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(compress::for_get(&page, base, width, i), v, "pos {i}");
            }
            let mut dec = Vec::new();
            compress::for_decode_range(&page, base, width, 0, vals.len(), &mut dec);
            assert_eq!(dec, vals, "full-range decode");
            let (lo, hi) = (vals.len() / 4, vals.len() - vals.len() / 3);
            let mut part = Vec::new();
            compress::for_decode_range(&page, base, width, lo, hi, &mut part);
            assert_eq!(part, &vals[lo..hi], "partial-range decode {lo}..{hi}");
        }
    }
    enc
}

/// Build a column from `vals` and assert every accessor the engine uses
/// returns them. `probes` drive the binary-search comparison (only
/// meaningful when `vals` is sorted; pass `sorted = true` then).
fn assert_column_differential(vals: &[u64], probes: &[u64], sorted: bool) {
    let dm = Arc::new(DiskManager::temp().unwrap());
    let col = Column::from_slice(&dm, vals);
    let pool = BufferPool::new(Arc::clone(&dm), 64);

    assert_eq!(col.len(), vals.len());
    let nulls = vals.iter().filter(|&&v| v == NULL_SENTINEL).count();
    assert_eq!(col.n_nulls(), nulls);
    assert_eq!(col.n_pages(), vals.len().div_ceil(VALS_PER_PAGE));
    assert_eq!(col.plain_bytes(), vals.len() * 8);
    // Compression never grows the column beyond the 2-word Const/FOR page
    // prefix a 1-value tail page pays (plain stores 1 word there).
    assert!(
        col.used_bytes() <= col.plain_bytes().max(16),
        "compression grew the column: {} > {}",
        col.used_bytes(),
        col.plain_bytes()
    );

    // Full materialization (the chunk iterator every scan drives), then each
    // chunked entry point over an interior range that cuts pages, and the
    // page geometry and statistics the kernels read before pinning.
    assert_eq!(col.to_vec(&pool, 0..vals.len()), vals, "to_vec vs input");
    let mid = vals.len() / 7..vals.len() - vals.len() / 9;
    let want_mid = &vals[mid.clone()];
    let mut got = Vec::new();
    col.for_each_chunk(&pool, mid.clone(), |c| got.extend_from_slice(c.values()));
    assert_eq!(got, want_mid, "for_each_chunk");
    got.clear();
    col.for_each_chunk_pruned(
        &pool,
        mid.clone(),
        |_, _| true,
        |c| got.extend_from_slice(c.values()),
    );
    assert_eq!(got, want_mid, "for_each_chunk_pruned");
    got.clear();
    Column::for_each_chunk_pair(&col, &col, &pool, mid.clone(), |a, b| {
        assert_eq!(a.values(), b.values());
        got.extend_from_slice(a.values());
    });
    assert_eq!(got, want_mid, "for_each_chunk_pair");
    got.clear();
    if !mid.is_empty() {
        for p in mid.start / VALS_PER_PAGE..=(mid.end - 1) / VALS_PER_PAGE {
            got.extend_from_slice(col.pin_page_in(&pool, p, mid.clone()).values());
        }
    }
    assert_eq!(got, want_mid, "pin_page_in");
    for p in 0..col.n_pages() {
        let page = &vals[col.page_rows(p)];
        let present: Vec<u64> = page
            .iter()
            .copied()
            .filter(|&v| v != NULL_SENTINEL)
            .collect();
        let st = col.zonemap().page(p);
        assert_eq!(st.n_nonnull as usize, present.len(), "page {p} count");
        if let (Some(&min), Some(&max)) = (present.iter().min(), present.iter().max()) {
            assert_eq!((st.min, st.max), (min, max), "page {p} bounds");
        }
    }
    // Gather and point access across page boundaries (first/last of each
    // page plus strides).
    let mut rows: Vec<usize> = (0..vals.len()).step_by(vals.len() / 13 + 1).collect();
    for p in 0..col.n_pages() {
        let r = col.page_rows(p);
        rows.push(r.start);
        rows.push(r.end - 1);
    }
    rows.sort_unstable();
    let want: Vec<u64> = rows.iter().map(|&i| vals[i]).collect();
    assert_eq!(col.gather(&pool, &rows), want, "gather");
    for &i in rows.iter() {
        assert_eq!(col.value(&pool, i), vals[i], "value({i})");
    }

    // Sorted binary search is only contractual for NULL-free columns (the
    // clustered index columns): zone-map page maxima ignore NULLs, so a
    // mixed value+NULL page is outside the search contract.
    if sorted && nulls == 0 {
        for &probe in probes {
            let expect_lo = vals.partition_point(|&x| x < probe);
            let expect_hi = vals.partition_point(|&x| x <= probe);
            assert_eq!(col.lower_bound(&pool, probe), expect_lo, "lb({probe})");
            assert_eq!(col.upper_bound(&pool, probe), expect_hi, "ub({probe})");
            // Sub-range search (run-local secondary keys).
            let (lo, hi) = (vals.len() / 5, vals.len() - vals.len() / 5);
            assert_eq!(
                col.lower_bound_in(&pool, lo..hi, probe),
                lo + vals[lo..hi].partition_point(|&x| x < probe),
                "lb_in({probe})"
            );
            assert_eq!(
                col.upper_bound_in(&pool, lo..hi, probe),
                lo + vals[lo..hi].partition_point(|&x| x <= probe),
                "ub_in({probe})"
            );
        }
    }
}

/// A sorted OID-like run: small strides from a base, NULLs (which sort
/// last as `u64::MAX`) appended at the tail.
fn sorted_run() -> impl Strategy<Value = Vec<u64>> {
    (
        0u64..1 << 40,
        1u64..512,
        16usize..3 * VALS_PER_PAGE,
        0usize..200,
    )
        .prop_map(|(base, step, n, nulls)| {
            let mut v: Vec<u64> = (0..n as u64).map(|i| base + i * step).collect();
            v.resize(v.len() + nulls, NULL_SENTINEL);
            v
        })
}

/// A clustered (unsorted) run around a base with interleaved NULLs — the
/// shape of non-key property columns after subject clustering.
fn clustered_run() -> impl Strategy<Value = Vec<u64>> {
    (
        0u64..1 << 50,
        proptest::collection::vec((0u64..100_000, 0u32..10), 16..2 * VALS_PER_PAGE),
    )
        .prop_map(|(base, cells)| {
            cells
                .into_iter()
                .map(|(d, tag)| if tag == 0 { NULL_SENTINEL } else { base + d })
                .collect()
        })
}

/// Full-range random values — wide pages the heuristic must leave plain.
fn random_run() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 1..VALS_PER_PAGE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn page_roundtrip_sorted(vals in sorted_run()) {
        for page in vals.chunks(VALS_PER_PAGE) {
            assert_page_roundtrip(page);
        }
    }

    #[test]
    fn page_roundtrip_clustered(vals in clustered_run()) {
        for page in vals.chunks(VALS_PER_PAGE) {
            assert_page_roundtrip(page);
        }
    }

    #[test]
    fn page_roundtrip_random(vals in random_run()) {
        assert_page_roundtrip(&vals);
    }

    #[test]
    fn page_partition_point_matches_slice(
        (base, step, n) in (0u64..1 << 40, 1u64..512, 64usize..VALS_PER_PAGE),
        raw_probes in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let vals: Vec<u64> = (0..n as u64).map(|i| base + i * step).collect();
        let (enc, image) = compress::choose(&vals);
        // The stride keeps the range far below 63 bits, so FOR always wins.
        let PageEnc::For { base, width } = enc else {
            panic!("expected FOR for base {base} step {step} n {n}, got {enc:?}")
        };
        let mut page = image.unwrap();
        page.resize(VALS_PER_PAGE, 0);
        // Mix raw 64-bit probes with in-range ones so both tails get hit.
        for probe in raw_probes.iter().map(|&p| p % (base + n as u64 * step + 2))
            .chain(raw_probes.iter().copied())
        {
            prop_assert_eq!(
                compress::for_partition_point(&page, base, width, 0, vals.len(), |x| x < probe),
                vals.partition_point(|&x| x < probe),
                "probe {}", probe
            );
        }
    }

    #[test]
    fn column_differential_sorted(
        (base, step, n) in (0u64..1 << 40, 1u64..512, 16usize..3 * VALS_PER_PAGE),
        raw_probes in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        // NULL-free: sorted index columns never hold NULLs (search contract).
        let vals: Vec<u64> = (0..n as u64).map(|i| base + i * step).collect();
        let span = *vals.last().unwrap();
        let probes: Vec<u64> = raw_probes.iter().map(|&p| base + p % (span - base + 2))
            .chain([0, base, span, u64::MAX]).collect();
        assert_column_differential(&vals, &probes, true);
    }

    #[test]
    fn column_differential_sorted_null_tail(vals in sorted_run()) {
        // NULLs sort last; access paths must still agree even though the
        // sorted-search contract no longer applies.
        assert_column_differential(&vals, &[], true);
    }

    #[test]
    fn column_differential_clustered(vals in clustered_run()) {
        assert_column_differential(&vals, &[], false);
    }

    #[test]
    fn column_differential_random(vals in random_run()) {
        assert_column_differential(&vals, &[], false);
    }
}

#[test]
fn empty_column_both_encodings() {
    assert_column_differential(&[], &[], true);
    let dm = Arc::new(DiskManager::temp().unwrap());
    let c = Column::from_slice(&dm, &[]);
    assert_eq!(c.len(), 0);
    assert_eq!(c.n_pages(), 0);
    assert_eq!(c.used_bytes(), 0);
}

#[test]
fn all_null_pages_both_encodings() {
    // One partial page, one exact page, and a multi-page run of NULLs.
    for n in [1, 100, VALS_PER_PAGE, VALS_PER_PAGE + 7] {
        let vals = vec![NULL_SENTINEL; n];
        assert_page_roundtrip(&vals[..n.min(VALS_PER_PAGE)]);
        assert_column_differential(&vals, &[0, 1, u64::MAX], true);
    }
}

#[test]
fn single_value_pages_both_encodings() {
    for v in [0u64, 42, u64::MAX - 1] {
        assert!(matches!(
            assert_page_roundtrip(&[v]),
            PageEnc::Const { value } if value == v
        ));
    }
    let vals = vec![7u64; VALS_PER_PAGE + 3];
    assert_column_differential(&vals, &[6, 7, 8], true);
}

#[test]
fn overflow_width_pages_stay_plain() {
    // Ranges >= 2^63 - 1 cannot pack below 64 bits: the page must fall back
    // to plain and still round-trip through the column layer.
    let vals: Vec<u64> = (0..256).map(|i| i * (u64::MAX / 257)).collect();
    assert!(matches!(assert_page_roundtrip(&vals), PageEnc::Plain));
    assert_column_differential(&vals, &[0, u64::MAX / 2, u64::MAX], true);

    // Near-sentinel values: base close to u64::MAX with NULLs in-band.
    let mut near_max: Vec<u64> = (0..512).map(|i| u64::MAX - 600 + i).collect();
    near_max.push(NULL_SENTINEL);
    assert_page_roundtrip(&near_max);
    assert_column_differential(&near_max, &[u64::MAX - 601, u64::MAX - 300], true);
}
