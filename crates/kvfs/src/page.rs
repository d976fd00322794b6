//! Pages and the three-tier page pool.
//!
//! A page holds up to `page_tokens` KV entries and lives in exactly one
//! memory tier. Pages are reference-counted: [`crate::store::KvStore::fork`]
//! shares pages between files and copies only on divergence (copy-on-write
//! of the mutable tail). The pool enforces per-tier capacity; allocation
//! failure is an explicit error so callers can run eviction policies — the
//! central mechanism/policy split the paper argues for.

use symphony_model::CtxFingerprint;
use symphony_tokenizer::TokenId;

use crate::error::KvError;

/// Default tokens per page, matching vLLM's common block size.
pub const PAGE_TOKENS_DEFAULT: usize = 16;

/// One cached token: the token, its absolute position, and the fingerprint
/// of the context *up to and including* this token (the surrogate for the
/// token's K/V tensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntry {
    /// Token ID.
    pub token: TokenId,
    /// Absolute position in the context (discontiguous layouts are legal).
    pub position: u32,
    /// Rolling context fingerprint after this token.
    pub fingerprint: CtxFingerprint,
}

impl KvEntry {
    /// Creates an entry.
    pub fn new(token: TokenId, position: u32, fingerprint: CtxFingerprint) -> Self {
        KvEntry {
            token,
            position,
            fingerprint,
        }
    }
}

/// Identifier of a page slot in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// The memory tier a page resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// GPU HBM — required for `pred`.
    Gpu,
    /// CPU DRAM — swap space for blocked or cold files.
    Cpu,
    /// NVMe disk — second-level spill and the persistence tier. Pages on
    /// disk survive a journal snapshot/restore cycle; swapping them back
    /// in is charged against the device's NVMe lane rather than PCIe.
    Disk,
}

/// A page slot.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    pub entries: Vec<KvEntry>,
    pub refcount: u32,
    pub tier: Tier,
}

/// The three-tier page pool.
#[derive(Debug)]
pub(crate) struct PagePool {
    slots: Vec<Option<Page>>,
    free: Vec<u32>,
    page_tokens: usize,
    gpu_capacity: usize,
    cpu_capacity: usize,
    disk_capacity: usize,
    gpu_used: usize,
    cpu_used: usize,
    disk_used: usize,
    /// Pages whose content or tier changed since the last
    /// [`PagePool::take_dirty`] drain. `None` (the default) disables
    /// tracking entirely so the hot paths pay only an `Option` check;
    /// the store enables it when a delta journal is opened.
    dirty: Option<std::collections::BTreeSet<u32>>,
}

impl PagePool {
    pub(crate) fn new(
        page_tokens: usize,
        gpu_capacity: usize,
        cpu_capacity: usize,
        disk_capacity: usize,
    ) -> Self {
        assert!(page_tokens > 0, "page size must be positive");
        PagePool {
            slots: Vec::new(),
            free: Vec::new(),
            page_tokens,
            gpu_capacity,
            cpu_capacity,
            disk_capacity,
            gpu_used: 0,
            cpu_used: 0,
            disk_used: 0,
            dirty: None,
        }
    }

    /// Starts tracking content/tier changes for delta journalling.
    pub(crate) fn enable_dirty_tracking(&mut self) {
        self.dirty = Some(std::collections::BTreeSet::new());
    }

    /// Drains the dirty set, returning the still-live page ids in
    /// ascending order. Empty when tracking is disabled.
    pub(crate) fn take_dirty(&mut self) -> Vec<u32> {
        match self.dirty.as_mut() {
            Some(d) => {
                let drained = std::mem::take(d);
                drained
                    .into_iter()
                    .filter(|&i| {
                        (i as usize) < self.slots.len() && self.slots[i as usize].is_some()
                    })
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Marks a page dirty for the next delta drain (no-op while disabled).
    /// Content mutations that bypass `alloc`/`migrate`/`copy_entries_into`
    /// — direct `page_mut(..).entries` edits in the store — must call this.
    pub(crate) fn mark_dirty(&mut self, id: PageId) {
        if let Some(d) = self.dirty.as_mut() {
            d.insert(id.0);
        }
    }

    pub(crate) fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    pub(crate) fn gpu_used(&self) -> usize {
        self.gpu_used
    }

    pub(crate) fn cpu_used(&self) -> usize {
        self.cpu_used
    }

    pub(crate) fn disk_used(&self) -> usize {
        self.disk_used
    }

    pub(crate) fn gpu_capacity(&self) -> usize {
        self.gpu_capacity
    }

    fn tier_full(&self, tier: Tier) -> Option<KvError> {
        match tier {
            Tier::Gpu if self.gpu_used >= self.gpu_capacity => Some(KvError::NoGpuMemory),
            Tier::Cpu if self.cpu_used >= self.cpu_capacity => Some(KvError::NoCpuMemory),
            Tier::Disk if self.disk_used >= self.disk_capacity => Some(KvError::NoDiskMemory),
            _ => None,
        }
    }

    fn add_used(&mut self, tier: Tier) {
        match tier {
            Tier::Gpu => self.gpu_used += 1,
            Tier::Cpu => self.cpu_used += 1,
            Tier::Disk => self.disk_used += 1,
        }
    }

    fn sub_used(&mut self, tier: Tier) {
        match tier {
            Tier::Gpu => self.gpu_used -= 1,
            Tier::Cpu => self.cpu_used -= 1,
            Tier::Disk => self.disk_used -= 1,
        }
    }

    /// Allocates an empty page in `tier` with refcount 1.
    pub(crate) fn alloc(&mut self, tier: Tier) -> Result<PageId, KvError> {
        if let Some(err) = self.tier_full(tier) {
            return Err(err);
        }
        let page = Page {
            entries: Vec::with_capacity(self.page_tokens),
            refcount: 1,
            tier,
        };
        self.add_used(tier);
        let id = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(page);
            PageId(idx)
        } else {
            self.slots.push(Some(page));
            PageId((self.slots.len() - 1) as u32)
        };
        self.mark_dirty(id);
        Ok(id)
    }

    /// Increments a page's refcount (a new file now references it).
    pub(crate) fn retain(&mut self, id: PageId) {
        self.page_mut(id).refcount += 1;
    }

    /// Decrements a page's refcount, freeing the slot at zero.
    pub(crate) fn release(&mut self, id: PageId) {
        let tier;
        {
            let page = self.page_mut(id);
            debug_assert!(page.refcount > 0, "release of dead page");
            page.refcount -= 1;
            if page.refcount > 0 {
                return;
            }
            tier = page.tier;
        }
        self.slots[id.0 as usize] = None;
        self.free.push(id.0);
        self.sub_used(tier);
        if let Some(d) = self.dirty.as_mut() {
            // A freed slot has no content to journal; if it is reallocated
            // later, `alloc` re-marks it.
            d.remove(&id.0);
        }
    }

    /// Moves a page between tiers; returns the number of tokens moved.
    pub(crate) fn migrate(&mut self, id: PageId, to: Tier) -> Result<usize, KvError> {
        let from = self.page(id).tier;
        if from == to {
            return Ok(0);
        }
        if let Some(err) = self.tier_full(to) {
            return Err(err);
        }
        self.sub_used(from);
        self.add_used(to);
        let page = self.page_mut(id);
        page.tier = to;
        let moved = page.entries.len();
        self.mark_dirty(id);
        Ok(moved)
    }

    /// Installs a page with a known id, content and refcount — journal
    /// restore only. Grows the slot vector as needed; fails with the
    /// tier's out-of-memory error when the configured capacity cannot
    /// hold another page, and refuses to overwrite a live slot.
    pub(crate) fn install(
        &mut self,
        id: PageId,
        tier: Tier,
        entries: Vec<KvEntry>,
        refcount: u32,
    ) -> Result<(), KvError> {
        if let Some(err) = self.tier_full(tier) {
            return Err(err);
        }
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].is_some() {
            return Err(KvError::JournalTorn);
        }
        self.slots[idx] = Some(Page {
            entries,
            refcount,
            tier,
        });
        self.add_used(tier);
        Ok(())
    }

    /// Finishes a journal restore: fixes the slot-vector length and the
    /// free-slot order. With `free: Some(_)` the recorded snapshot order
    /// is adopted verbatim (byte-identical allocation behaviour); with
    /// `None` a canonical order is rebuilt — every empty slot, highest
    /// index pushed last, so `alloc` reuses the lowest index first.
    pub(crate) fn finish_restore(&mut self, slots_len: usize, free: Option<Vec<u32>>) {
        if slots_len > self.slots.len() {
            self.slots.resize_with(slots_len, || None);
        }
        self.free = match free {
            Some(order) => order,
            None => {
                let mut rebuilt: Vec<u32> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_none())
                    .map(|(i, _)| i as u32)
                    .collect();
                rebuilt.reverse();
                rebuilt
            }
        };
    }

    /// The free-slot stack in allocation-stack order (journal snapshot).
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Total slot-vector length including empty slots (journal snapshot).
    pub(crate) fn slots_len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn page(&self, id: PageId) -> &Page {
        // Page ids are kernel-internal, never user-supplied; a dangling id
        // is a kvfs refcount bug that `Store::verify()` catches in tests,
        // and propagating an error here would poison every caller signature.
        self.slots[id.0 as usize]
            .as_ref()
            .expect("dangling page id") // lint:allow(k1): internal id, see above
    }

    pub(crate) fn page_mut(&mut self, id: PageId) -> &mut Page {
        // Same invariant as `page` above — ids come from `alloc` and are
        // released exactly once; `verify()` guards this in every test.
        self.slots[id.0 as usize]
            .as_mut()
            .expect("dangling page id") // lint:allow(k1): internal id, see above
    }

    /// Copies `src`'s entries into `dst` in place (copy-on-write divergence).
    /// Splits the slot borrow so the hot CoW path copies entry data exactly
    /// once, with no intermediate `Vec` allocation.
    pub(crate) fn copy_entries_into(&mut self, src: PageId, dst: PageId) {
        debug_assert_ne!(src, dst, "CoW copy onto the source page");
        let (a, b) = (src.0 as usize, dst.0 as usize);
        let (src_slot, dst_slot) = if a < b {
            let (l, r) = self.slots.split_at_mut(b);
            (&l[a], &mut r[0])
        } else {
            let (l, r) = self.slots.split_at_mut(a);
            (&r[0], &mut l[b])
        };
        // Same invariant as `page`/`page_mut`: ids are kernel-internal.
        let src_page = src_slot.as_ref().expect("dangling page id"); // lint:allow(k1): internal id
        let dst_page = dst_slot.as_mut().expect("dangling page id"); // lint:allow(k1): internal id
        dst_page.entries.clear();
        dst_page.entries.extend_from_slice(&src_page.entries);
        self.mark_dirty(dst);
    }

    /// Number of live pages (for invariant checks).
    pub(crate) fn live_pages(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Iterates over live pages.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageId, &Page)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|p| (PageId(i as u32), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u32) -> KvEntry {
        KvEntry::new(i, i, CtxFingerprint(i as u64))
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut pool = PagePool::new(4, 2, 1, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        let _b = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(pool.alloc(Tier::Gpu), Err(KvError::NoGpuMemory));
        assert_eq!(pool.gpu_used(), 2);
        pool.release(a);
        assert_eq!(pool.gpu_used(), 1);
        pool.alloc(Tier::Gpu).unwrap();
        let _c = pool.alloc(Tier::Cpu).unwrap();
        assert_eq!(pool.alloc(Tier::Cpu), Err(KvError::NoCpuMemory));
    }

    #[test]
    fn refcounting_frees_at_zero() {
        let mut pool = PagePool::new(4, 8, 0, 0);
        let p = pool.alloc(Tier::Gpu).unwrap();
        pool.retain(p);
        pool.release(p);
        assert_eq!(pool.live_pages(), 1, "still one reference");
        pool.release(p);
        assert_eq!(pool.live_pages(), 0);
        assert_eq!(pool.gpu_used(), 0);
    }

    #[test]
    fn slot_reuse_after_free() {
        let mut pool = PagePool::new(4, 8, 0, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        pool.release(a);
        let b = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(a, b, "freed slot should be reused");
    }

    #[test]
    fn migrate_moves_between_tiers() {
        let mut pool = PagePool::new(4, 2, 2, 0);
        let p = pool.alloc(Tier::Gpu).unwrap();
        pool.page_mut(p).entries.push(entry(1));
        pool.page_mut(p).entries.push(entry(2));
        let moved = pool.migrate(p, Tier::Cpu).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(pool.gpu_used(), 0);
        assert_eq!(pool.cpu_used(), 1);
        assert_eq!(pool.page(p).tier, Tier::Cpu);
        // No-op migration.
        assert_eq!(pool.migrate(p, Tier::Cpu).unwrap(), 0);
    }

    #[test]
    fn migrate_respects_destination_capacity() {
        let mut pool = PagePool::new(4, 2, 1, 0);
        let a = pool.alloc(Tier::Gpu).unwrap();
        let b = pool.alloc(Tier::Gpu).unwrap();
        pool.migrate(a, Tier::Cpu).unwrap();
        assert_eq!(pool.migrate(b, Tier::Cpu), Err(KvError::NoCpuMemory));
    }

    #[test]
    fn disk_tier_allocates_and_migrates() {
        let mut pool = PagePool::new(4, 1, 1, 1);
        let p = pool.alloc(Tier::Gpu).unwrap();
        pool.page_mut(p).entries.push(entry(7));
        assert_eq!(pool.migrate(p, Tier::Disk).unwrap(), 1);
        assert_eq!(pool.page(p).tier, Tier::Disk);
        assert_eq!(pool.disk_used(), 1);
        assert_eq!(pool.gpu_used(), 0);
        // Disk full: second page cannot spill.
        let q = pool.alloc(Tier::Gpu).unwrap();
        assert_eq!(pool.migrate(q, Tier::Disk), Err(KvError::NoDiskMemory));
        // Zero-capacity disk rejects allocation outright.
        let mut no_disk = PagePool::new(4, 1, 1, 0);
        assert_eq!(no_disk.alloc(Tier::Disk), Err(KvError::NoDiskMemory));
    }

    #[test]
    fn install_rebuilds_pool_state() {
        let mut pool = PagePool::new(4, 4, 0, 4);
        pool.install(PageId(2), Tier::Gpu, vec![entry(1)], 2).unwrap();
        pool.install(PageId(0), Tier::Disk, vec![entry(2)], 1).unwrap();
        assert_eq!(pool.gpu_used(), 1);
        assert_eq!(pool.disk_used(), 1);
        assert_eq!(pool.page(PageId(2)).refcount, 2);
        // Double-install of a live slot is a journal inconsistency.
        assert_eq!(
            pool.install(PageId(2), Tier::Gpu, vec![], 1),
            Err(KvError::JournalTorn)
        );
        pool.finish_restore(3, None);
        // Slot 1 is the only hole; canonical order allocates it first.
        assert_eq!(pool.free_list(), &[1]);
        assert_eq!(pool.alloc(Tier::Gpu).unwrap(), PageId(1));
    }
}
