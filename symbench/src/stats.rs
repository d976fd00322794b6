//! Order statistics with the benchmark's tail rule.
//!
//! A tail percentile is only as good as the samples beyond it, so a
//! requested percentile is lowered until at least [`MIN_TAIL`] samples lie
//! above it: 2000 latencies support p99 (20 beyond), 500 support only
//! p98. The percentile actually used is reported next to the value.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// A percentile as reported: which one was used, its value, and the
/// sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile used (≤ the one requested).
    pub p: f64,
    /// Value at that percentile (nearest rank).
    pub value: f64,
    /// Samples.
    pub n: usize,
}

/// The highest percentile ≤ `want` that leaves at least [`MIN_TAIL`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    if n <= MIN_TAIL {
        return None;
    }
    let cap = 100.0 * (n - MIN_TAIL) as f64 / n as f64;
    Some(want.min(cap))
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The requested percentile of `values` under the tail rule. Falls back
/// to the median when the sample cannot support any tail; `None` only
/// for an empty sample.
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = supported_percentile(v.len(), want).unwrap_or(50.0);
    Some(Tail {
        p,
        value: v[rank(v.len(), p)],
        n: v.len(),
    })
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Percentile of a fixed-bucket histogram, interpolated linearly inside
/// the bucket holding the nearest-rank sample as if its samples were
/// spread evenly between the bucket's bounds (the first bucket starts at
/// 0; the overflow bucket reports the last bound). `None` when the
/// histogram is empty.
pub fn bucket_percentile(bounds: &[u64], counts: &[u64], p: f64) -> Option<f64> {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return None;
    }
    let want = rank(n as usize, p) as u64 + 1;
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        if seen + c >= want {
            let Some(&hi) = bounds.get(i) else { break };
            let lo = if i == 0 { 0 } else { bounds[i - 1] };
            let frac = (want - seen) as f64 / c as f64;
            return Some(lo as f64 + (hi - lo) as f64 * frac);
        }
        seen += c;
    }
    bounds.last().map(|&b| b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 2000 samples: p99 leaves 20 beyond, so it is reported as asked.
        assert_eq!(supported_percentile(2000, 99.0), Some(99.0));
        // 1000 samples: p99 leaves exactly 10 beyond — still supported.
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        // 500 samples: p99 would leave 5; the rule lowers it to p98.
        assert_eq!(supported_percentile(500, 99.0), Some(98.0));
        // Too few samples for any tail.
        assert_eq!(supported_percentile(10, 90.0), None);
    }

    #[test]
    fn tail_value_leaves_min_tail_beyond() {
        for n in [11usize, 37, 100, 500, 999, 1000, 2001] {
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&values, 99.0).unwrap();
            let beyond = values.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= MIN_TAIL, "n={n}: {beyond} beyond p{}", t.p);
            assert!(t.p <= 99.0);
            // The highest such percentile: one rank higher would break it.
            if t.p < 99.0 {
                assert_eq!(beyond, MIN_TAIL, "n={n}");
            }
        }
    }

    #[test]
    fn median_and_unsupported_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        let t = tail(&[5.0, 1.0, 3.0], 99.0).unwrap();
        assert_eq!((t.p, t.value, t.n), (50.0, 3.0, 3));
        assert!(tail(&[], 50.0).is_none());
    }

    #[test]
    fn bucket_percentile_interpolates_inside_the_bucket() {
        let bounds = [10, 20, 30];
        let counts = [5, 4, 1, 0];
        // Rank 5 of 10 is the last sample of the first bucket: its bound.
        assert_eq!(bucket_percentile(&bounds, &counts, 50.0), Some(10.0));
        // Rank 3 of 10 is three fifths into [0, 10].
        assert_eq!(bucket_percentile(&bounds, &counts, 25.0), Some(6.0));
        // Rank 7 is two quarters into (10, 20].
        assert_eq!(bucket_percentile(&bounds, &counts, 70.0), Some(15.0));
        assert_eq!(bucket_percentile(&bounds, &counts, 99.0), Some(30.0));
        // The overflow bucket has no upper bound: the last one is reported.
        assert_eq!(bucket_percentile(&bounds, &[0, 0, 0, 2], 50.0), Some(30.0));
        assert_eq!(bucket_percentile(&bounds, &[0, 0, 0, 0], 50.0), None);
    }
}
