//! Model-based property tests for the KV store.
//!
//! A shadow model (`Vec<KvEntry>` per live file) tracks the expected contents
//! while random operation sequences run against the real store. After every
//! operation the store's internal invariants ([`KvStore::verify`]) must hold
//! and the contents must match the shadow — including across copy-on-write
//! forks, truncation, extraction, merging and tier migration.

use std::collections::BTreeMap;

use proptest::prelude::*;
use symphony_kvfs::{FileId, KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_model::CtxFingerprint;

#[derive(Debug, Clone)]
enum Op {
    Create,
    Append { file: usize, count: usize },
    Fork { file: usize },
    Remove { file: usize },
    Truncate { file: usize, frac: f64 },
    Extract { file: usize, a: f64, b: f64 },
    Merge { a: usize, b: usize },
    SwapOut { file: usize },
    SwapIn { file: usize },
    Demote { file: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Create),
        6 => (0usize..8, 1usize..12).prop_map(|(file, count)| Op::Append { file, count }),
        3 => (0usize..8).prop_map(|file| Op::Fork { file }),
        2 => (0usize..8).prop_map(|file| Op::Remove { file }),
        2 => (0usize..8, 0.0f64..1.0).prop_map(|(file, frac)| Op::Truncate { file, frac }),
        2 => (0usize..8, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(file, a, b)| Op::Extract { file, a, b }),
        2 => (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Merge { a, b }),
        1 => (0usize..8).prop_map(|file| Op::SwapOut { file }),
        1 => (0usize..8).prop_map(|file| Op::SwapIn { file }),
        1 => (0usize..8).prop_map(|file| Op::Demote { file }),
    ]
}

fn entry(i: u32) -> KvEntry {
    KvEntry::new(i, i, CtxFingerprint(0x1234_5678_u64 ^ i as u64))
}

/// Picks the `idx`-th live file (wrapping), if any.
fn pick(model: &BTreeMap<u64, Vec<KvEntry>>, idx: usize) -> Option<FileId> {
    if model.is_empty() {
        return None;
    }
    let keys: Vec<u64> = model.keys().copied().collect();
    Some(FileId(keys[idx % keys.len()]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_shadow_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let owner = OwnerId(1);
        let mut store = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 256,
            // A tight DRAM tier so swap-out exercises the disk spill path.
            cpu_pages: 8,
            disk_pages: 256,
            bytes_per_token: 1,
        });
        let mut model: BTreeMap<u64, Vec<KvEntry>> = BTreeMap::new();
        let mut next_token = 0u32;

        for op in ops {
            match op {
                Op::Create => {
                    let f = store.create(owner).unwrap();
                    model.insert(f.0, Vec::new());
                }
                Op::Append { file, count } => {
                    if let Some(f) = pick(&model, file) {
                        let new: Vec<KvEntry> =
                            (0..count as u32).map(|i| entry(next_token + i)).collect();
                        next_token += count as u32;
                        // Appending to a CPU-resident partial tail is an
                        // expected error; swap in first to keep the op alive.
                        let _ = store.swap_in(f, owner);
                        store.append(f, owner, &new).unwrap();
                        model.get_mut(&f.0).unwrap().extend(new);
                    }
                }
                Op::Fork { file } => {
                    if let Some(f) = pick(&model, file) {
                        let g = store.fork(f, owner).unwrap();
                        let contents = model[&f.0].clone();
                        model.insert(g.0, contents);
                    }
                }
                Op::Remove { file } => {
                    if let Some(f) = pick(&model, file) {
                        store.remove(f, owner).unwrap();
                        model.remove(&f.0);
                    }
                }
                Op::Truncate { file, frac } => {
                    if let Some(f) = pick(&model, file) {
                        let len = model[&f.0].len();
                        let new_len = (len as f64 * frac) as usize;
                        let _ = store.swap_in(f, owner);
                        store.truncate(f, owner, new_len).unwrap();
                        model.get_mut(&f.0).unwrap().truncate(new_len);
                    }
                }
                Op::Extract { file, a, b } => {
                    if let Some(f) = pick(&model, file) {
                        let len = model[&f.0].len();
                        let (mut lo, mut hi) =
                            ((len as f64 * a) as usize, (len as f64 * b) as usize);
                        if lo > hi {
                            std::mem::swap(&mut lo, &mut hi);
                        }
                        if lo < hi {
                            let range = lo..hi;
                            let g = store.extract(f, owner, &[range]).unwrap();
                            model.insert(g.0, model[&f.0][lo..hi].to_vec());
                        }
                    }
                }
                Op::Merge { a, b } => {
                    if let (Some(fa), Some(fb)) = (pick(&model, a), pick(&model, b)) {
                        if !model[&fa.0].is_empty() || !model[&fb.0].is_empty() {
                            let g = store.merge(&[fa, fb], owner).unwrap();
                            let mut joined = model[&fa.0].clone();
                            joined.extend(model[&fb.0].iter().copied());
                            model.insert(g.0, joined);
                        }
                    }
                }
                Op::SwapOut { file } => {
                    if let Some(f) = pick(&model, file) {
                        // May fail if shared pages already moved; both fine.
                        let _ = store.swap_out(f, owner);
                    }
                }
                Op::SwapIn { file } => {
                    if let Some(f) = pick(&model, file) {
                        let _ = store.swap_in(f, owner);
                    }
                }
                Op::Demote { file } => {
                    if let Some(f) = pick(&model, file) {
                        // May fail only if the disk tier fills; both fine.
                        let _ = store.demote_to_disk(f, owner);
                    }
                }
            }

            // Invariants after every operation.
            store.verify().unwrap();
            for (&id, expected) in &model {
                let got = store.read_all_unchecked(FileId(id)).unwrap();
                prop_assert_eq!(&got, expected, "file {} contents diverged", id);
            }
        }

        // Tear everything down: the pool must drain to zero.
        let ids: Vec<u64> = model.keys().copied().collect();
        for id in ids {
            store.remove(FileId(id), owner).unwrap();
        }
        store.verify().unwrap();
        prop_assert_eq!(store.gpu_pages_used(), 0);
        prop_assert_eq!(store.cpu_pages_used(), 0);
        prop_assert_eq!(store.disk_pages_used(), 0);
        prop_assert_eq!(store.live_pages(), 0);
    }
}
