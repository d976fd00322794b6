//! Watermarked sampling (Kirchenbauer et al., cited as §2.3's example of
//! "policy-based generation").
//!
//! The watermark partitions the vocabulary per step into a *green list*
//! seeded by the previous token and boosts green tokens' logits by `delta`.
//! A detector later scores a token sequence by its green fraction. Prompt
//! APIs cannot express this (it needs the full distribution every step);
//! in Symphony it is twenty lines of LIP-side code over `pred`.

use symphony_model::{Dist, TokenId};

/// Watermark parameters.
#[derive(Debug, Clone, Copy)]
pub struct Watermark {
    /// Fraction of the vocabulary in the green list (`gamma`).
    pub gamma: f64,
    /// Multiplicative boost applied to green-token probabilities
    /// (`exp(delta)` in logit terms).
    pub boost: f64,
    /// Hash key identifying this watermark.
    pub key: u64,
    /// Vocabulary size over which green lists are drawn.
    pub vocab: u32,
}

impl Watermark {
    /// A typical configuration: a quarter of the vocabulary, logit bias 2.
    pub fn new(key: u64, vocab: u32) -> Self {
        Watermark {
            gamma: 0.25,
            boost: (2.0f64).exp(),
            key,
            vocab,
        }
    }

    fn mix(&self, prev: TokenId, token: TokenId) -> u64 {
        let mut z = self
            .key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((prev as u64) << 32 | token as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns `true` if `token` is green given the previous token.
    pub fn is_green(&self, prev: TokenId, token: TokenId) -> bool {
        let u = (self.mix(prev, token) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.gamma
    }

    /// Applies the watermark bias to a distribution.
    pub fn bias(&self, dist: &Dist, prev: TokenId) -> Dist {
        let entries: Vec<(TokenId, f64)> = dist
            .entries()
            .iter()
            .map(|&(t, p)| {
                let w = if self.is_green(prev, t) { p * self.boost } else { p };
                (t, w)
            })
            .collect();
        // Tail mass is mostly non-green; approximate by boosting gamma of it.
        let tail_w = dist.tail_mass() * (1.0 - self.gamma + self.gamma * self.boost);
        Dist::from_weights(entries, tail_w, dist.tail_tokens())
    }

    /// Detector: the z-score of the green fraction over a token sequence
    /// (`> ~4` is decisive for watermarked text of moderate length).
    pub fn detect(&self, tokens: &[TokenId]) -> f64 {
        if tokens.len() < 2 {
            return 0.0;
        }
        let n = (tokens.len() - 1) as f64;
        let greens = tokens
            .windows(2)
            .filter(|w| self.is_green(w[0], w[1]))
            .count() as f64;
        (greens - self.gamma * n) / (n * self.gamma * (1.0 - self.gamma)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_model::{ModelConfig, Surrogate};
    use symphony_sim::Rng;

    fn model() -> Surrogate {
        Surrogate::new(ModelConfig::tiny().with_mean_output_tokens(100_000), 3)
    }

    /// Greedy generation with/without bias; the detector must separate them.
    #[test]
    fn watermark_is_detectable_and_absent_from_clean_text() {
        let m = model();
        let fpr = m.fingerprinter();
        let wm = Watermark::new(0xBEEF, 1_900);
        let mut rng = Rng::new(4);

        let mut generate = |watermarked: bool| -> Vec<TokenId> {
            let mut fp = m.context_of(&[5, 6, 7]);
            let mut prev = 7u32;
            let mut out = Vec::new();
            for pos in 3u32..303 {
                let d = m.next_dist(fp);
                let d = if watermarked { wm.bias(&d, prev) } else { d };
                let t = d.top_p(0.9).sample_with(rng.next_f64(), 1_900);
                out.push(t);
                fp = fpr.advance(fp, t, pos);
                prev = t;
            }
            out
        };

        let clean = generate(false);
        let marked = generate(true);
        let z_clean = wm.detect(&clean);
        let z_marked = wm.detect(&marked);
        assert!(z_clean < 3.0, "clean text should not trigger: z={z_clean}");
        assert!(z_marked > 4.0, "watermark should be decisive: z={z_marked}");
        assert!(z_marked > z_clean + 3.0);
    }

    #[test]
    fn green_list_fraction_close_to_gamma() {
        let wm = Watermark::new(1, 10_000);
        let greens = (0..10_000u32).filter(|&t| wm.is_green(42, t)).count();
        let frac = greens as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn bias_preserves_normalisation_and_boosts_green() {
        let m = model();
        let d = m.next_dist(m.context_of(&[1, 2]));
        let wm = Watermark::new(7, 1_900);
        let b = wm.bias(&d, 2);
        assert!((b.total_mass() - 1.0).abs() < 1e-9);
        // Some green entry must have gained probability.
        let gained = d
            .entries()
            .iter()
            .any(|&(t, p)| wm.is_green(2, t) && b.prob(t) > p);
        let _ = gained; // With few entries all could be red; check fraction-wise.
        let green_mass_before: f64 = d
            .entries()
            .iter()
            .filter(|&&(t, _)| wm.is_green(2, t))
            .map(|&(_, p)| p)
            .sum();
        let green_mass_after: f64 = b
            .entries()
            .iter()
            .filter(|&&(t, _)| wm.is_green(2, t))
            .map(|&(_, p)| p)
            .sum();
        assert!(green_mass_after >= green_mass_before);
    }

    #[test]
    fn detector_neutral_on_short_input() {
        let wm = Watermark::new(1, 100);
        assert_eq!(wm.detect(&[]), 0.0);
        assert_eq!(wm.detect(&[5]), 0.0);
    }

    #[test]
    fn different_keys_do_not_cross_detect() {
        let m = model();
        let fpr = m.fingerprinter();
        let wm_a = Watermark::new(0xAAAA, 1_900);
        let wm_b = Watermark::new(0xBBBB, 1_900);
        let mut rng = Rng::new(9);
        let mut fp = m.context_of(&[9, 8]);
        let mut prev = 8u32;
        let mut out = Vec::new();
        for pos in 2..302u32 {
            let d = wm_a.bias(&m.next_dist(fp), prev);
            let t = d.top_p(0.9).sample_with(rng.next_f64(), 1_900);
            out.push(t);
            fp = fpr.advance(fp, t, pos);
            prev = t;
        }
        assert!(wm_a.detect(&out) > 4.0);
        assert!(wm_b.detect(&out) < 3.0, "key B must not detect key A's mark");
    }
}
