//! Per-page zone maps (Netezza-style min/max summaries).
//!
//! Built for free while a column is written, zone maps let scans skip pages
//! that cannot contain matches for a range predicate. The paper uses them on
//! the clustered store to push a `shipdate` restriction to the referenced
//! `ORDERS` subject range and vice versa (Table I's "ZoneMaps = Yes" rows).

/// Summary of one page of a column. Min/max are computed over **non-null**
/// values; a page of only NULL sentinels has `n_nonnull == 0` and an
/// inverted (min > max) range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStats {
    pub min: u64,
    pub max: u64,
    pub n_nonnull: u32,
}

impl PageStats {
    /// Stats of an empty/all-null page.
    pub fn empty() -> PageStats {
        PageStats {
            min: u64::MAX,
            max: 0,
            n_nonnull: 0,
        }
    }

    /// Fold one non-null value into the stats.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.n_nonnull += 1;
    }

    /// Could this page contain a value in `[lo, hi]`?
    #[inline]
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.n_nonnull > 0 && self.min <= hi && self.max >= lo
    }
}

/// The zone map of a whole column: one [`PageStats`] per page.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    pages: Vec<PageStats>,
}

impl ZoneMap {
    pub fn new(pages: Vec<PageStats>) -> ZoneMap {
        ZoneMap { pages }
    }

    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    pub fn page(&self, i: usize) -> &PageStats {
        &self.pages[i]
    }

    /// Indices of pages that may contain values in `[lo, hi]`.
    pub fn candidate_pages(&self, lo: u64, hi: u64) -> Vec<usize> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, st)| st.overlaps(lo, hi))
            .map(|(i, _)| i)
            .collect()
    }

    /// Overall min over non-null values, if any.
    pub fn global_min(&self) -> Option<u64> {
        self.pages
            .iter()
            .filter(|p| p.n_nonnull > 0)
            .map(|p| p.min)
            .min()
    }

    /// Overall max over non-null values, if any.
    pub fn global_max(&self) -> Option<u64> {
        self.pages
            .iter()
            .filter(|p| p.n_nonnull > 0)
            .map(|p| p.max)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zm(ranges: &[(u64, u64)]) -> ZoneMap {
        ZoneMap::new(
            ranges
                .iter()
                .map(|&(min, max)| PageStats {
                    min,
                    max,
                    n_nonnull: 10,
                })
                .collect(),
        )
    }

    #[test]
    fn overlap_logic() {
        let st = PageStats {
            min: 10,
            max: 20,
            n_nonnull: 5,
        };
        assert!(st.overlaps(15, 18));
        assert!(st.overlaps(0, 10));
        assert!(st.overlaps(20, 99));
        assert!(!st.overlaps(0, 9));
        assert!(!st.overlaps(21, 99));
    }

    #[test]
    fn all_null_page_never_overlaps() {
        let st = PageStats::empty();
        assert!(!st.overlaps(0, u64::MAX));
    }

    #[test]
    fn candidate_pruning() {
        let z = zm(&[(0, 9), (10, 19), (20, 29), (30, 39)]);
        assert_eq!(z.candidate_pages(12, 22), vec![1, 2]);
        assert_eq!(z.candidate_pages(100, 200), Vec::<usize>::new());
        assert_eq!(z.global_min(), Some(0));
        assert_eq!(z.global_max(), Some(39));
    }

    #[test]
    fn stats_accumulate() {
        let mut st = PageStats::empty();
        for v in [5u64, 3, 9] {
            st.add(v);
        }
        assert_eq!((st.min, st.max, st.n_nonnull), (3, 9, 3));
    }
}
