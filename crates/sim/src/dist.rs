//! Probability distributions used by the workload generators and schedulers.
//!
//! The Figure 3 experiment needs Poisson request arrivals and Pareto/Zipf
//! topic popularity; tool-call latencies use log-normal delays. Everything
//! draws from the crate's own deterministic [`Rng`].

use crate::rng::Rng;
use crate::time::SimDuration;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (events/sec).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "lambda must be positive");
        Exponential { lambda }
    }

    /// Samples a value in seconds.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }
}

/// A homogeneous Poisson arrival process with rate `lambda` (arrivals/sec).
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    interarrival: Exponential,
}

impl PoissonProcess {
    /// Creates a process with the given arrival rate in events per second.
    pub fn new(lambda: f64) -> Self {
        PoissonProcess {
            interarrival: Exponential::new(lambda),
        }
    }

    /// Samples the gap to the next arrival.
    pub fn next_gap(&self, rng: &mut Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.interarrival.sample(rng))
    }
}

/// Pareto (type I) distribution with shape `alpha` and scale `xm > 0`.
///
/// Smaller `alpha` means a heavier tail. The paper sweeps the "Pareto index"
/// of topic popularity; see [`Zipf`] for the rank-popularity form used there.
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    alpha: f64,
    xm: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0` and `xm > 0`.
    pub fn new(alpha: f64, xm: f64) -> Self {
        assert!(alpha > 0.0 && xm > 0.0, "alpha and xm must be positive");
        Pareto { alpha, xm }
    }

    /// Samples a value (always `>= xm`).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        self.xm / rng.next_f64_open().powf(1.0 / self.alpha)
    }
}

/// Zipf-like rank popularity over `n` items derived from a Pareto tail.
///
/// Item `i` (0-based rank) receives weight `(i + 1)^-s`. The Figure 3 sweep
/// uses `s` as the "Pareto index": small `s` flattens popularity, large `s`
/// concentrates requests on the top-ranked topics. We expose the same
/// convention as the paper's narrative: *small index ⇒ few topics dominate*
/// is obtained by mapping the paper's index through [`Zipf::from_pareto_index`],
/// which inverts the axis (see that constructor's docs).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s.is_finite() && s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Maps the paper's Pareto index `alpha` onto a Zipf exponent.
    ///
    /// A Pareto-distributed popularity with shape `alpha` induces a rank-size
    /// law with Zipf exponent `s = 1/alpha`: heavy tails (small `alpha`)
    /// concentrate mass on top ranks (large `s`). This keeps the experiment
    /// axis identical to the paper ("Symphony outperforms ... when the Pareto
    /// index is small").
    pub fn from_pareto_index(n: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0, "Pareto index must be positive");
        Zipf::new(n, 1.0 / alpha)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if there are no ranks (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a 0-based rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        // First index whose cumulative mass exceeds u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of the 0-based rank `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mass(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Total mass of the top `k` ranks (clamped to the rank count).
    pub fn top_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// Log-normal distribution parameterised by the mean and sigma of `ln X`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and shape `sigma > 0` of `ln X`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal from its own mean and an approximate coefficient
    /// of variation, convenient for "tool latency ~50ms ± spread" configs.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `cv > 0`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv > 0.0, "mean and cv must be positive");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// Samples a value.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.next_gaussian()).exp()
    }
}

/// Categorical distribution over arbitrary weights.
#[derive(Debug, Clone)]
pub struct Categorical {
    cdf: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative or non-finite,
    /// or all weights are zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be non-negative");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for v in &mut cdf {
            *v /= acc;
        }
        Categorical { cdf }
    }

    /// Samples a 0-based category index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let mut rng = Rng::new(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn poisson_gap_mean_matches_rate() {
        let p = PoissonProcess::new(100.0);
        let mut rng = Rng::new(2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap={mean}");
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let d = Pareto::new(2.0, 3.0);
        let mut rng = Rng::new(3);
        let n = 100_000;
        let mut min = f64::MAX;
        let mut mean = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            min = min.min(x);
            mean += x / n as f64;
        }
        assert!(min >= 3.0);
        // Analytical mean alpha*xm/(alpha-1) = 6.
        assert!((mean - 6.0).abs() < 0.3, "mean={mean}");
    }

    #[test]
    fn zipf_rank_order_and_masses() {
        let z = Zipf::new(10, 1.0);
        assert!(z.mass(0) > z.mass(1));
        assert!(z.mass(1) > z.mass(5));
        let total: f64 = (0..10).map(|i| z.mass(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((z.top_mass(10) - 1.0).abs() < 1e-12);
        assert_eq!(z.top_mass(0), 0.0);
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let z = Zipf::new(5, 0.0);
        for i in 0..5 {
            assert!((z.mass(i) - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_mass() {
        let z = Zipf::new(20, 1.2);
        let mut rng = Rng::new(4);
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.mass(i)).abs() < 0.01,
                "rank {i}: empirical {emp} vs mass {}",
                z.mass(i)
            );
        }
    }

    #[test]
    fn pareto_index_mapping_inverts_axis() {
        // Small Pareto index -> heavy concentration on the top ranks.
        let heavy = Zipf::from_pareto_index(100, 0.5);
        let flat = Zipf::from_pareto_index(100, 4.0);
        assert!(heavy.top_mass(20) > flat.top_mass(20));
        assert!(heavy.top_mass(20) > 0.8);
    }

    #[test]
    fn lognormal_mean_cv() {
        let d = LogNormal::from_mean_cv(0.05, 0.5);
        let mut rng = Rng::new(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.05).abs() < 0.002, "mean={mean}");
    }

    #[test]
    fn categorical_frequencies() {
        let c = Categorical::new(&[1.0, 3.0, 0.0, 6.0]);
        let mut rng = Rng::new(6);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight category must never be drawn");
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[3] as f64 / n as f64 - 0.6).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }
}
