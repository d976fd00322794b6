//! Speculative-decoding verification helpers.
//!
//! §4.1: "For speculative decoding, LIPs pass multiple input tokens (draft
//! tokens) to the pred system call and verify them by inspecting the
//! distributions of the tokens." These helpers implement the inspection; the
//! LIP passes the draft through one multi-token `pred`, verifies, and
//! truncates its KV file back to the accepted prefix with `kv_truncate`.

use symphony_model::{Dist, TokenId};

/// Greedy verification: accept the longest draft prefix where every token
/// equals the target's argmax.
///
/// `prior` is the target distribution *before* the first draft token;
/// `after[i]` is the target distribution after `draft[..=i]` (exactly what
/// `pred(kv, draft)` returns). Returns `(accepted, next)` where `next` is
/// the target's correction token for the first rejected position (or the
/// token the target would emit after a fully accepted draft).
pub fn verify_greedy(draft: &[TokenId], prior: &Dist, after: &[Dist]) -> (usize, TokenId) {
    assert_eq!(draft.len(), after.len(), "one dist per draft token");
    for (i, &tok) in draft.iter().enumerate() {
        let target = if i == 0 { prior } else { &after[i - 1] };
        if target.argmax() != tok {
            return (i, target.argmax());
        }
    }
    (draft.len(), after[draft.len() - 1].argmax())
}

/// Stochastic verification (Leviathan et al.): accept `draft[i]` with
/// probability `min(1, p_target / p_draft)` using the uniform draws in `us`;
/// on rejection the caller should resample from the target distribution at
/// the rejected position.
///
/// Returns `(accepted, rejected_at_dist)`: the accepted prefix length, and
/// the target distribution at the first rejected position (`None` if all
/// accepted).
pub fn verify_stochastic(
    draft: &[TokenId],
    draft_probs: &[f64],
    prior: &Dist,
    after: &[Dist],
    us: &[f64],
) -> (usize, Option<Dist>) {
    assert_eq!(draft.len(), after.len(), "one dist per draft token");
    assert_eq!(draft.len(), draft_probs.len(), "one prob per draft token");
    assert_eq!(draft.len(), us.len(), "one draw per draft token");
    for (i, &tok) in draft.iter().enumerate() {
        let target = if i == 0 { prior } else { &after[i - 1] };
        let p_t = target.prob(tok);
        let p_d = draft_probs[i].max(1e-12);
        if us[i] >= (p_t / p_d).min(1.0) {
            return (i, Some(target.clone()));
        }
    }
    (draft.len(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist_peaked(tok: TokenId) -> Dist {
        Dist::from_weights(vec![(tok, 9.0), (tok + 1, 1.0)], 0.0, 0)
    }

    #[test]
    fn greedy_accepts_matching_prefix() {
        let prior = dist_peaked(10);
        let after = vec![dist_peaked(20), dist_peaked(30), dist_peaked(40)];
        // Draft matches argmaxes 10, 20, 30.
        let (n, next) = verify_greedy(&[10, 20, 30], &prior, &after);
        assert_eq!(n, 3);
        assert_eq!(next, 40, "bonus token from the last distribution");
    }

    #[test]
    fn greedy_rejects_at_first_mismatch() {
        let prior = dist_peaked(10);
        let after = vec![dist_peaked(20), dist_peaked(30)];
        let (n, next) = verify_greedy(&[10, 99], &prior, &after);
        assert_eq!(n, 1);
        assert_eq!(next, 20, "correction is the target argmax at the reject");
    }

    #[test]
    fn greedy_rejects_immediately() {
        let prior = dist_peaked(10);
        let after = vec![dist_peaked(20)];
        let (n, next) = verify_greedy(&[55], &prior, &after);
        assert_eq!(n, 0);
        assert_eq!(next, 10);
    }

    #[test]
    fn stochastic_always_accepts_when_target_agrees() {
        // p_target >= p_draft everywhere -> ratio >= 1 -> accept any draw.
        let prior = dist_peaked(10);
        let after = vec![dist_peaked(20), dist_peaked(30)];
        let (n, rej) = verify_stochastic(&[10, 20], &[0.5, 0.5], &prior, &after, &[0.99, 0.99]);
        assert_eq!(n, 2);
        assert!(rej.is_none());
    }

    #[test]
    fn stochastic_rejects_overconfident_draft() {
        // Draft claimed prob 1.0 for a token the target gives ~0.
        let prior = dist_peaked(10);
        let after = vec![dist_peaked(20), dist_peaked(30)];
        let (n, rej) = verify_stochastic(&[99, 20], &[1.0, 0.5], &prior, &after, &[0.5, 0.5]);
        assert_eq!(n, 0);
        assert_eq!(rej.unwrap().argmax(), 10);
    }

    #[test]
    fn stochastic_low_draw_accepts_marginal_token() {
        // ratio = p_t/p_d = 0.1/0.5 = 0.2; draw 0.1 accepts, draw 0.3 rejects.
        let prior = dist_peaked(10); // p(11) = 0.1
        let after = [dist_peaked(20)];
        let (n1, _) = verify_stochastic(&[11], &[0.5], &prior, &after[..1], &[0.1]);
        assert_eq!(n1, 1);
        let (n2, _) = verify_stochastic(&[11], &[0.5], &prior, &after[..1], &[0.3]);
        assert_eq!(n2, 0);
    }

    #[test]
    #[should_panic(expected = "one dist per draft token")]
    fn mismatched_lengths_panic() {
        verify_greedy(&[1, 2], &dist_peaked(1), &[dist_peaked(2)]);
    }
}
