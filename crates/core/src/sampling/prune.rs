//! Runtime context pruning over `kv_extract` (§4.2).
//!
//! "This capability benefits inference speedup techniques like runtime
//! context pruning, by removing invalid or unimportant tokens from files."
//! [`StreamingWindow`] implements the attention-sinks recipe (keep the
//! first `sink` tokens plus a sliding window of the most recent ones): when
//! a file outgrows the budget, the LIP extracts `sink + tail` into a fresh
//! file and continues on it. The extracted entries keep their original
//! positions and fingerprints — the approximate-reuse semantics of
//! streaming attention.

use symphony_kvfs::FileId;

use crate::syscall::Ctx;
use crate::types::SysError;

/// Attention-sink streaming-window policy.
#[derive(Debug, Clone, Copy)]
pub struct StreamingWindow {
    /// Always-kept prefix length (the attention sink).
    pub sink: usize,
    /// Recent-token window length.
    pub window: usize,
    /// Prune once the file exceeds `sink + window + slack` tokens (slack
    /// amortises extraction cost).
    pub slack: usize,
}

impl StreamingWindow {
    /// A window with 4 sink tokens and the given recent window.
    pub fn new(window: usize) -> Self {
        StreamingWindow {
            sink: 4,
            window,
            slack: window / 2,
        }
    }

    /// Token budget at which pruning triggers.
    pub fn trigger_len(&self) -> usize {
        self.sink + self.window + self.slack
    }

    /// Prunes `kv` if it exceeds the budget: returns the (possibly new)
    /// file to continue on. On prune, the original file is removed and the
    /// returned file holds `sink` head entries plus `window` tail entries.
    pub fn maybe_prune(&self, ctx: &mut Ctx, kv: FileId) -> Result<FileId, SysError> {
        let len = ctx.kv_len(kv)?;
        if len <= self.trigger_len() || len <= self.sink + self.window {
            return Ok(kv);
        }
        let tail_start = len - self.window;
        let pruned = if self.sink == 0 {
            // kv_extract takes a slice of ranges; a sinkless prune keeps one.
            #[allow(clippy::single_range_in_vec_init)]
            let ranges = [tail_start..len];
            ctx.kv_extract(kv, &ranges)?
        } else {
            ctx.kv_extract(kv, &[0..self.sink.min(tail_start), tail_start..len])?
        };
        ctx.kv_remove(kv)?;
        Ok(pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};

    #[test]
    fn long_generation_stays_within_budget() {
        let mut kernel = Kernel::new(KernelConfig::for_tests());
        let pid = kernel.spawn_process("stream", "", |ctx| {
            let policy = StreamingWindow::new(32);
            let mut kv = ctx.kv_create()?;
            let mut dist = ctx
                .pred_positions(kv, &[1, 2, 3, 4, 5, 6, 7, 8], 0)?
                .pop()
                .ok_or(SysError::BadArgument)?;
            let mut max_len = 0usize;
            for pos in 8u32..308 {
                let t = dist.entries()[1].0; // avoid EOS-heavy argmax path
                dist = ctx.pred(kv, &[(t, pos)])?.remove(0);
                kv = policy.maybe_prune(ctx, kv)?;
                max_len = max_len.max(ctx.kv_len(kv)?);
            }
            // Budget: never beyond trigger + 1 appended token.
            assert!(
                max_len <= policy.trigger_len() + 1,
                "window exceeded: {max_len}"
            );
            // The sink survives at the front with original positions.
            let head = ctx.kv_read(kv, 0, 4)?;
            assert_eq!(head[0].position, 0);
            assert_eq!(head[0].token, 1);
            assert_eq!(head[3].position, 3);
            // Positions jump across the pruned gap (discontiguous layout).
            let entries = ctx.kv_read(kv, 0, ctx.kv_len(kv)?)?;
            assert!(entries[4].position > 4);
            Ok(())
        });
        kernel.run();
        assert!(kernel.record(pid).unwrap().status.is_ok());
        kernel.store().verify().unwrap();
    }

    #[test]
    fn short_files_are_untouched() {
        let mut kernel = Kernel::new(KernelConfig::for_tests());
        let pid = kernel.spawn_process("short", "", |ctx| {
            let policy = StreamingWindow::new(64);
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3], 0)?;
            let same = policy.maybe_prune(ctx, kv)?;
            assert_eq!(same, kv, "no prune below the budget");
            Ok(())
        });
        kernel.run();
        assert!(kernel.record(pid).unwrap().status.is_ok());
    }

    #[test]
    fn pruned_memory_is_reclaimed() {
        let mut kernel = Kernel::new(KernelConfig::for_tests());
        let pid = kernel.spawn_process("reclaim", "", |ctx| {
            let policy = StreamingWindow { sink: 2, window: 8, slack: 2 };
            let mut kv = ctx.kv_create()?;
            let tokens: Vec<(u32, u32)> = (0..40).map(|i| (i + 1, i)).collect();
            ctx.pred(kv, &tokens)?;
            let before = ctx.kv_stat(kv)?.pages;
            kv = policy.maybe_prune(ctx, kv)?;
            let after = ctx.kv_stat(kv)?.pages;
            assert!(after < before, "pruning must shrink pages: {after} vs {before}");
            assert_eq!(ctx.kv_len(kv)?, 10);
            Ok(())
        });
        kernel.run();
        assert!(kernel.record(pid).unwrap().status.is_ok());
        // After exit everything is reclaimed.
        assert_eq!(kernel.store().gpu_pages_used(), 0);
    }
}
