//! Order statistics for latency samples, and the result digest.

/// A percentile is only reported where at least this many samples lie
/// beyond it; a higher request is lowered to the highest rank that does.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the samples at or below it. Above the median the rank is
/// lowered until [`SAMPLES_BEYOND`] samples lie beyond it (so `p = 0.95`
/// needs 200 samples to be a true p95), but never below the median's rank.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let mut r = rank(p);
    if p > 0.5 {
        r = r.min(n.saturating_sub(SAMPLES_BEYOND)).max(rank(0.5));
    }
    Some(sorted[r - 1])
}

/// The highest of the usual tail percentiles that `n` samples support under
/// the [`SAMPLES_BEYOND`] rule.
pub fn supported_tail(n: usize) -> f64 {
    // (percentile, per-mille of the samples beyond it)
    [(0.999, 1), (0.99, 10), (0.95, 50), (0.9, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond / 1000 >= SAMPLES_BEYOND)
        .map_or(0.5, |(p, _)| p)
}

/// Median of unordered values (mean of the two middle ones for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continued from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_full_sample() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), Some(500));
        assert_eq!(percentile(&s, 0.95), Some(950));
        assert_eq!(percentile(&s, 0.99), Some(990));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7], 0.95), Some(7));
    }

    #[test]
    fn tail_is_lowered_until_ten_samples_lie_beyond() {
        // 200 samples: rank 190 leaves exactly ten beyond, a true p95.
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&s, 0.95), Some(190));
        // 100 samples: p95 would leave five beyond, so rank 90 is used.
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.95), Some(90));
        // Too few samples for any tail: falls back to the median's rank.
        let s: Vec<u64> = (1..=12).collect();
        assert_eq!(percentile(&s, 0.95), percentile(&s, 0.5));
        // The median itself is never lowered.
        assert_eq!(percentile(&s, 0.5), Some(6));
    }

    #[test]
    fn supported_tail_follows_the_sample_count() {
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(199), 0.9);
        assert_eq!(supported_tail(50), 0.5);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"cd");
        assert_eq!(a, fnv1a(FNV_OFFSET, b"abcd"));
        assert_ne!(a, fnv1a(FNV_OFFSET, b"cdab"));
    }
}
