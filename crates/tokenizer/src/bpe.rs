//! BPE trainer, encoder and decoder.
//!
//! Training operates on a word histogram: each distinct pre-token is one
//! symbol sequence weighted by its count. Each merge picks the pair with the
//! highest count (a pair's count is its adjacent occurrences summed over
//! words, times each word's count), breaking ties on the smaller pair, and
//! stops once the best count is below 2 or the merge budget is spent. A
//! merge rewrites a word left to right without overlap, so `aaa` becomes
//! `[aa, a]`.
//!
//! The trainer is incremental. It counts every pair once, keeps an index
//! from each pair to the words that contained it (entries may be stale and
//! are re-checked), and keeps the pairs in an ordered set keyed on
//! `(count, Reverse(pair))` so the best pair is the set's last element.
//! A merge touches only the words holding the merged pair: it subtracts
//! each such word's pairs, rewrites the word, adds its new pairs back, and
//! re-keys the pairs whose count changed. One merge therefore costs
//! O(L + k log P), where L is the total length of the words holding the
//! pair, k the number of pairs whose count changed and P the number of
//! distinct pairs, instead of a rescan of the whole histogram. This keeps
//! training the default vocabulary at first use cheap.
//!
//! Encoding splits text into pre-tokens (a run of whitespace is glued to the
//! following word, GPT-style) and applies merges greedily in rank order;
//! per-word results are memoised.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use parking_lot_shim::Mutex;

use crate::corpus::CorpusGen;
use crate::vocab::{SpecialTokens, TokenId, Vocab, BYTE_TOKENS};

/// Minimal internal shim so this crate stays dependency-free: a tiny wrapper
/// over `std::sync::Mutex` with the `parking_lot`-style infallible `lock`.
mod parking_lot_shim {
    /// A mutex whose `lock` never returns a poisoned error.
    #[derive(Debug, Default)]
    pub(super) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub(super) fn new(v: T) -> Self {
            Mutex(std::sync::Mutex::new(v))
        }

        /// Locks, recovering from poisoning (state is a plain cache here).
        pub(super) fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
    }
}

/// A trained byte-pair encoder.
#[derive(Debug)]
pub struct Bpe {
    vocab: Vocab,
    /// Merge rank by pair: lower rank merges first.
    ranks: HashMap<(TokenId, TokenId), (u32, TokenId)>,
    /// Encoded-word memo; keyed by the raw pre-token bytes.
    cache: Mutex<HashMap<Vec<u8>, Vec<TokenId>>>,
}

impl Bpe {
    /// Trains a BPE model on `text`, learning up to `num_merges` merges.
    ///
    /// Training is deterministic: ties in pair frequency break on the
    /// lexicographically smaller pair.
    pub fn train(text: &str, num_merges: usize) -> Self {
        let merges = learn_merges(word_histogram(text), num_merges);
        let mut merge_expansions: Vec<Vec<u8>> = Vec::with_capacity(merges.len());
        let mut ranks = HashMap::with_capacity(merges.len());
        for (rank, &(a, b)) in merges.iter().enumerate() {
            let mut bytes = expansion_of(a, &merge_expansions);
            bytes.extend(expansion_of(b, &merge_expansions));
            merge_expansions.push(bytes);
            ranks.insert((a, b), (rank as u32, (BYTE_TOKENS + rank) as TokenId));
        }
        Bpe {
            vocab: Vocab::new(merge_expansions),
            ranks,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The shared default tokenizer, trained once on the synthetic corpus.
    pub fn default_tokenizer() -> &'static Bpe {
        static DEFAULT: OnceLock<Bpe> = OnceLock::new();
        DEFAULT.get_or_init(|| {
            let corpus = CorpusGen::new(0xC0FFEE).training_corpus(400);
            Bpe::train(&corpus, 1500)
        })
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Convenience accessor for the special tokens.
    pub fn specials(&self) -> SpecialTokens {
        self.vocab.specials()
    }

    /// Encodes text into token IDs (never emits special tokens).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut out = Vec::new();
        for word in pretokenize(text.as_bytes()) {
            if let Some(hit) = self.cache.lock().get(word) {
                out.extend_from_slice(hit);
                continue;
            }
            let ids = self.encode_word(word);
            self.cache.lock().insert(word.to_vec(), ids.clone());
            out.extend(ids);
        }
        out
    }

    /// Applies merges to a single pre-token.
    fn encode_word(&self, word: &[u8]) -> Vec<TokenId> {
        let mut sym: Vec<TokenId> = word.iter().map(|&b| b as TokenId).collect();
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(u32, usize, TokenId)> = None;
            for (i, w) in sym.windows(2).enumerate() {
                if let Some(&(rank, id)) = self.ranks.get(&(w[0], w[1])) {
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, i, id));
                    }
                }
            }
            let Some((_, i, id)) = best else { break };
            sym[i] = id;
            sym.remove(i + 1);
        }
        sym
    }

    /// Decodes token IDs back into a string (lossy only on invalid UTF-8
    /// boundaries, which cannot arise from `encode` output).
    pub fn decode(&self, tokens: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &t in tokens {
            if let Some(b) = self.vocab.get(t) {
                if !self.vocab.is_special(t) {
                    bytes.extend_from_slice(b);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Decodes a single token for streaming output, rendering specials as
    /// their `<|name|>` placeholder.
    pub fn decode_token(&self, token: TokenId) -> String {
        match self.vocab.get(token) {
            Some(b) => String::from_utf8_lossy(b).into_owned(),
            None => format!("<|invalid:{token}|>"),
        }
    }
}

/// An adjacent symbol pair, the unit BPE merges.
type Pair = (TokenId, TokenId);

/// Each distinct pre-token of `text` as a byte-symbol sequence with its
/// count, sorted by bytes.
fn word_histogram(text: &str) -> Vec<(Vec<TokenId>, u64)> {
    let mut word_counts: HashMap<&[u8], u64> = HashMap::new();
    for word in pretokenize(text.as_bytes()) {
        *word_counts.entry(word).or_insert(0) += 1;
    }
    let mut words: Vec<(Vec<TokenId>, u64)> = word_counts
        .into_iter()
        .map(|(w, c)| (w.iter().map(|&b| b as TokenId).collect(), c))
        .collect();
    words.sort_unstable();
    words
}

/// Byte expansion of `id`, given the expansions of the merges so far.
fn expansion_of(id: TokenId, merges: &[Vec<u8>]) -> Vec<u8> {
    if (id as usize) < BYTE_TOKENS {
        vec![id as u8]
    } else {
        merges[id as usize - BYTE_TOKENS].clone()
    }
}

/// Learns up to `num_merges` merges from a word histogram, in rank order;
/// merge `i` creates token `BYTE_TOKENS + i`.
fn learn_merges(mut words: Vec<(Vec<TokenId>, u64)>, num_merges: usize) -> Vec<Pair> {
    let mut counts: HashMap<Pair, u64> = HashMap::new();
    // Words that held each pair when it was indexed; re-checked on use.
    let mut holders: HashMap<Pair, Vec<usize>> = HashMap::new();
    for (i, (sym, n)) in words.iter().enumerate() {
        for w in sym.windows(2) {
            *counts.entry((w[0], w[1])).or_insert(0) += n;
            let list = holders.entry((w[0], w[1])).or_default();
            if list.last() != Some(&i) {
                list.push(i);
            }
        }
    }
    let mut queue: BTreeSet<(u64, Reverse<Pair>)> =
        counts.iter().map(|(&p, &c)| (c, Reverse(p))).collect();

    let mut merges = Vec::with_capacity(num_merges);
    // Count of each pair touched by the current merge, before it.
    let mut before: HashMap<Pair, u64> = HashMap::new();
    while merges.len() < num_merges {
        let Some(&(count, Reverse(pair))) = queue.last() else {
            break;
        };
        if count < 2 {
            break;
        }
        let new_id = (BYTE_TOKENS + merges.len()) as TokenId;
        merges.push(pair);

        let mut held = holders.remove(&pair).unwrap_or_default();
        held.sort_unstable();
        held.dedup();
        for i in held {
            let (sym, n) = &mut words[i];
            if !sym.windows(2).any(|w| (w[0], w[1]) == pair) {
                continue;
            }
            for w in sym.windows(2) {
                let c = counts.entry((w[0], w[1])).or_insert(0);
                before.entry((w[0], w[1])).or_insert(*c);
                *c -= *n;
            }
            merge_word(sym, pair, new_id);
            for w in sym.windows(2) {
                let c = counts.entry((w[0], w[1])).or_insert(0);
                before.entry((w[0], w[1])).or_insert(*c);
                *c += *n;
                // Only pairs with the new token are new to this word.
                if w[0] == new_id || w[1] == new_id {
                    let list = holders.entry((w[0], w[1])).or_default();
                    if list.last() != Some(&i) {
                        list.push(i);
                    }
                }
            }
        }
        for (p, old) in before.drain() {
            let new = counts.get(&p).copied().unwrap_or(0);
            if new == old {
                continue;
            }
            queue.remove(&(old, Reverse(p)));
            if new == 0 {
                counts.remove(&p);
            } else {
                queue.insert((new, Reverse(p)));
            }
        }
    }
    merges
}

/// Replaces each occurrence of `pair` in `sym` with `id`, left to right
/// without overlap.
fn merge_word(sym: &mut Vec<TokenId>, (a, b): Pair, id: TokenId) {
    let (mut read, mut write) = (0, 0);
    while read < sym.len() {
        if read + 1 < sym.len() && sym[read] == a && sym[read + 1] == b {
            sym[write] = id;
            read += 2;
        } else {
            sym[write] = sym[read];
            read += 1;
        }
        write += 1;
    }
    sym.truncate(write);
}

/// Splits bytes into pre-tokens: each pre-token is an optional whitespace run
/// followed by a maximal non-whitespace run (or a trailing whitespace run).
fn pretokenize(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= bytes.len() {
            return None;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        Some(&bytes[start..i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original trainer, kept as the reference the incremental one must
    /// match: it recounts every pair of every word for each merge.
    fn train_naive(text: &str, num_merges: usize) -> Bpe {
        // Histogram of pre-tokens.
        let mut word_counts: HashMap<Vec<u8>, u64> = HashMap::new();
        for word in pretokenize(text.as_bytes()) {
            *word_counts.entry(word.to_vec()).or_insert(0) += 1;
        }
        // Each distinct word as a mutable symbol sequence.
        let mut words: Vec<(Vec<TokenId>, u64)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.iter().map(|&b| b as TokenId).collect(), c))
            .collect();
        // Deterministic iteration order.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        let mut merge_expansions: Vec<Vec<u8>> = Vec::with_capacity(num_merges);
        let mut ranks: HashMap<(TokenId, TokenId), (u32, TokenId)> = HashMap::new();
        let expansion_of = |id: TokenId, merges: &Vec<Vec<u8>>| -> Vec<u8> {
            if (id as usize) < BYTE_TOKENS {
                vec![id as u8]
            } else {
                merges[id as usize - BYTE_TOKENS].clone()
            }
        };

        for rank in 0..num_merges {
            // Count adjacent pairs across all words.
            let mut pair_counts: HashMap<(TokenId, TokenId), u64> = HashMap::new();
            for (sym, count) in &words {
                for w in sym.windows(2) {
                    *pair_counts.entry((w[0], w[1])).or_insert(0) += count;
                }
            }
            let best = pair_counts
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some((pair, _)) = best else { break };

            let new_id = (BYTE_TOKENS + merge_expansions.len()) as TokenId;
            let mut bytes = expansion_of(pair.0, &merge_expansions);
            bytes.extend(expansion_of(pair.1, &merge_expansions));
            merge_expansions.push(bytes);
            ranks.insert(pair, (rank as u32, new_id));

            // Apply the merge to every word.
            for (sym, _) in &mut words {
                let mut i = 0;
                while i + 1 < sym.len() {
                    if sym[i] == pair.0 && sym[i + 1] == pair.1 {
                        sym[i] = new_id;
                        sym.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
        }

        Bpe {
            vocab: Vocab::new(merge_expansions),
            ranks,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Fails unless `a` and `b` have the same merge ranks and vocabulary.
    fn assert_same_model(a: &Bpe, b: &Bpe) -> Result<(), TestCaseError> {
        prop_assert_eq!(&a.ranks, &b.ranks);
        prop_assert_eq!(a.vocab().len(), b.vocab().len());
        for id in 0..a.vocab().len() as TokenId {
            prop_assert_eq!(a.vocab().get(id), b.vocab().get(id));
        }
        Ok(())
    }

    /// Merge pairs in rank order.
    fn merge_list(bpe: &Bpe) -> Vec<(u32, Pair, TokenId)> {
        let mut merges: Vec<_> = bpe.ranks.iter().map(|(&p, &(r, id))| (r, p, id)).collect();
        merges.sort_unstable();
        merges
    }

    proptest! {
        /// The incremental trainer learns exactly the reference's merges.
        /// Few-letter alphabets give repeated-symbol words (`aaaa`) and many
        /// tied counts; budgets range from zero to past exhaustion.
        #[test]
        fn incremental_matches_naive_on_random_text(
            text in "[ab \n]{0,300}",
            wide in "[a-e \t]{0,600}",
            merges in 0usize..80,
        ) {
            for t in [&text, &wide] {
                assert_same_model(&Bpe::train(t, merges), &train_naive(t, merges))?;
            }
        }

        /// Same on corpus-like text, with budgets that run out before the
        /// best count drops below 2.
        #[test]
        fn incremental_matches_naive_on_corpus(seed in 0u64..1000, merges in 0usize..300) {
            let corpus = CorpusGen::new(seed).training_corpus(3);
            assert_same_model(&Bpe::train(&corpus, merges), &train_naive(&corpus, merges))?;
        }
    }

    #[test]
    fn repeated_symbols_merge_left_to_right() {
        let bpe = Bpe::train("aaa aaa", 1);
        let aa = BYTE_TOKENS as TokenId;
        assert_eq!(
            merge_list(&bpe),
            vec![(0, (b'a' as TokenId, b'a' as TokenId), aa)]
        );
        assert_eq!(bpe.encode("aaa"), vec![aa, b'a' as TokenId]);
    }

    #[test]
    fn budget_can_run_out_before_counts_do() {
        let text = "the cat sat on the mat the cat sat on the mat";
        let unbounded = merge_list(&Bpe::train(text, 1000));
        let capped = merge_list(&Bpe::train(text, 3));
        assert!(unbounded.len() > 3);
        assert_eq!(capped, unbounded[..3]);
    }

    /// Pins the default tokenizer's merge list: FNV-1a 64 over each merge's
    /// pair (two little-endian u32s) in rank order. The value was computed
    /// from the original trainer.
    #[test]
    fn default_tokenizer_merges_match_pinned_digest() {
        let merges = merge_list(Bpe::default_tokenizer());
        assert_eq!(merges.len(), 1144);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, &(rank, (a, b), id)) in merges.iter().enumerate() {
            assert_eq!((rank as usize, id as usize), (i, BYTE_TOKENS + i));
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x5e6c_acce_934d_2cc1);
    }

    fn small() -> Bpe {
        Bpe::train("the cat sat on the mat the cat sat on the mat the theme", 50)
    }

    #[test]
    fn roundtrip_basic() {
        let bpe = small();
        for s in [
            "the cat sat",
            "  leading spaces",
            "trailing  ",
            "unicode: héllo wörld 模型",
            "",
            "\n\t mixed\nwhitespace ",
        ] {
            assert_eq!(bpe.decode(&bpe.encode(s)), s, "roundtrip failed for {s:?}");
        }
    }

    #[test]
    fn merges_compress_common_words() {
        let bpe = small();
        let with_merges = bpe.encode("the cat sat on the mat").len();
        let raw_bytes = "the cat sat on the mat".len();
        assert!(
            with_merges < raw_bytes,
            "expected compression: {with_merges} tokens vs {raw_bytes} bytes"
        );
    }

    #[test]
    fn encoding_is_deterministic_and_cached() {
        let bpe = small();
        let a = bpe.encode("the cat sat on the mat");
        let b = bpe.encode("the cat sat on the mat");
        assert_eq!(a, b);
    }

    #[test]
    fn training_is_deterministic() {
        let a = Bpe::train("abc abc abd abd abe", 20);
        let b = Bpe::train("abc abc abd abd abe", 20);
        assert_eq!(a.vocab().len(), b.vocab().len());
        assert_eq!(a.encode("abc abd"), b.encode("abc abd"));
    }

    #[test]
    fn never_emits_specials() {
        let bpe = small();
        let s = bpe.specials();
        let ids = bpe.encode("<|eos|> the <|bos|>");
        assert!(ids.iter().all(|&t| t < s.bos));
        // Specials survive as literal text.
        assert_eq!(bpe.decode(&ids), "<|eos|> the <|bos|>");
    }

    #[test]
    fn decode_skips_specials_but_decode_token_renders_them() {
        let bpe = small();
        let s = bpe.specials();
        assert_eq!(bpe.decode(&[s.eos]), "");
        assert_eq!(bpe.decode_token(s.eos), "<|eos|>");
        assert_eq!(bpe.decode_token(9_999_999), "<|invalid:9999999|>");
    }

    #[test]
    fn zero_merges_is_byte_fallback() {
        let bpe = Bpe::train("anything", 0);
        let ids = bpe.encode("hi");
        assert_eq!(ids, vec![b'h' as TokenId, b'i' as TokenId]);
    }

    #[test]
    fn default_tokenizer_trains_and_roundtrips() {
        let bpe = Bpe::default_tokenizer();
        assert!(bpe.vocab().merge_count() > 500);
        let text = "retrieval augmented generation with cached context";
        assert_eq!(bpe.decode(&bpe.encode(text)), text);
        // Common corpus words should compress well below byte length.
        assert!(bpe.encode(text).len() < text.len() / 2);
    }

    #[test]
    fn pretokenize_partitions_input() {
        let input = b"  ab cd \t e ";
        let parts: Vec<&[u8]> = pretokenize(input).collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, input.len());
        let joined: Vec<u8> = parts.concat();
        assert_eq!(joined, input);
    }
}
