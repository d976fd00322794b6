//! Sample statistics for experiments: [`Series`] retains every sample for
//! exact percentiles; the experiment harness uses it for latency
//! distributions (sample counts are modest).

use serde::{Deserialize, Serialize};

/// A sample series retaining every value; supports exact percentiles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { samples: Vec::new() }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Exact percentile by nearest-rank (`q` in `[0, 1]`); `None` when empty.
    ///
    /// Clones and sorts the samples on every call; use [`Series::percentiles`]
    /// when several quantiles of the same series are needed.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.percentiles(std::slice::from_ref(&q)).pop().flatten()
    }

    /// Exact nearest-rank percentiles for several `q`s at once, sorting the
    /// samples a single time. Returns one entry per requested quantile;
    /// every entry is `None` when the series is empty.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        if self.samples.is_empty() {
            return vec![None; qs.len()];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        qs.iter()
            .map(|&q| {
                let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
                    .clamp(1, sorted.len());
                Some(sorted[rank - 1])
            })
            .collect()
    }

    /// Median (p50).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Raw access to the samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_percentiles_exact() {
        let mut s = Series::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.max(), Some(100.0));
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn series_empty() {
        let s = Series::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn series_batch_percentiles_match_per_call() {
        let mut s = Series::new();
        for i in (1..=500).rev() {
            s.add(i as f64 * 0.5);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let batch = s.percentiles(&qs);
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(*got, s.percentile(*q), "q={q}");
        }
        assert_eq!(Series::new().percentiles(&qs), vec![None; qs.len()]);
    }
}
