//! The benchmark's statistics: nearest-rank percentiles, the
//! "ten samples beyond" rule, the tail as a median over blocks, and
//! geometric-mean aggregation over classes.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// Fewest samples for which percentile `p` has [`MIN_SAMPLES_BEYOND`]
/// samples beyond it (200 for p95).
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
        .unwrap_or(usize::MAX)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (nearest-rank p50) of unsorted values; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Samples in a block of [`block_percentile`] where the workload has no
/// unit of its own: a block's p95 is its 38th.
pub const BLOCK: usize = 40;

/// Percentile `p` as a caller meets it at a typical moment of the run: the
/// samples, in the order they were taken, are cut into blocks of `block`,
/// and the median over the blocks of each block's nearest-rank `p` is
/// reported. A neighbour's burst of half a second on the shared host moves
/// the whole-run p95 of a ten-second run by a third; here it moves one block
/// in twenty. Fewer samples than one block are taken whole.
pub fn block_percentile(in_time_order: &[f64], p: f64, block: usize) -> f64 {
    let per_block: Vec<f64> = in_time_order
        .chunks_exact(block.max(1))
        .map(|block| {
            let mut v = block.to_vec();
            sort(&mut v);
            percentile(&v, p)
        })
        .collect();
    if per_block.is_empty() {
        let mut v = in_time_order.to_vec();
        sort(&mut v);
        return percentile(&v, p);
    }
    median(&per_block)
}

/// Geometric mean, so that any one class moving by x% moves the aggregate
/// by the same x%^(1/n) whatever the class's absolute latency. `NaN` when
/// empty or when a value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 285.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(min_samples_for(99.0), 1000);
    }

    #[test]
    fn geomean_moves_with_any_class() {
        let base = geomean(&[1.0, 10.0, 100.0]);
        assert!((base - 10.0).abs() < 1e-9);
        // Doubling the cheapest class moves the aggregate exactly as much as
        // doubling the dearest one.
        let cheap = geomean(&[2.0, 10.0, 100.0]);
        let dear = geomean(&[1.0, 10.0, 200.0]);
        assert!((cheap - dear).abs() < 1e-9);
        assert!((cheap / base - 2f64.powf(1.0 / 3.0)).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn block_percentile_ignores_a_burst() {
        // Ten quiet blocks of 1..=40 and one where everything took 100.
        let mut v: Vec<f64> = (0..400).map(|i| f64::from(i % 40 + 1)).collect();
        assert_eq!(block_percentile(&v, 95.0, BLOCK), 38.0);
        v.extend([100.0; 40]);
        assert_eq!(block_percentile(&v, 95.0, BLOCK), 38.0);
        let mut whole = v.clone();
        sort(&mut whole);
        assert_eq!(percentile(&whole, 95.0), 100.0);
        // A tail that is in every block stays.
        let v: Vec<f64> = (0..400)
            .map(|i| if i % 10 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(block_percentile(&v, 95.0, BLOCK), 9.0);
        assert_eq!(block_percentile(&v, 95.0, 10), 9.0);
        // Short inputs are taken whole; a partial last block is left out.
        assert_eq!(block_percentile(&[3.0, 1.0, 2.0], 95.0, BLOCK), 3.0);
        assert_eq!(block_percentile(&[3.0, 1.0, 2.0], 95.0, 2), 3.0);
        assert!(block_percentile(&[], 95.0, BLOCK).is_nan());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
