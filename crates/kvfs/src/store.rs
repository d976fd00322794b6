//! The KV file store: namespace, access control, quotas, and the
//! fork/extract/merge operations of §4.2.

use std::collections::BTreeMap;

use symphony_model::CtxFingerprint;
use symphony_telemetry::{Counter, Gauge, MetricsRegistry};

use crate::error::KvError;
use crate::journal::{self, JournalHeader, JournalWriter, Record, RestoreReport};
use crate::page::{KvEntry, PageId, PagePool, Tier, PAGE_TOKENS_DEFAULT};

/// A tenant identity (a Symphony process, a baseline engine, or "the admin").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

impl OwnerId {
    /// The administrative owner: passes every permission check.
    pub const ADMIN: OwnerId = OwnerId(0);
}

/// A KV file identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Non-owner permission bits ("system prompts might be readable by all LIPs
/// but writable only by the admin", §4.2). The owner always has full access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mode {
    /// Any owner may read.
    pub read_all: bool,
    /// Any owner may write (append/truncate/remove/swap/pin).
    pub write_all: bool,
}

impl Mode {
    /// Owner-private file.
    pub const PRIVATE: Mode = Mode {
        read_all: false,
        write_all: false,
    };

    /// World-readable, owner-writable — the shared-prefix publishing mode.
    pub const SHARED_READ: Mode = Mode {
        read_all: true,
        write_all: false,
    };
}

/// Where a file's pages currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// No pages (empty file).
    Empty,
    /// All pages in GPU HBM; `pred` may use the file.
    Gpu,
    /// No pages in GPU HBM, at least one in CPU DRAM (the rest may be on
    /// disk) — swap-in crosses PCIe, possibly plus the NVMe lane.
    Cpu,
    /// Every page spilled to the disk tier; swap-in crosses the NVMe lane.
    Disk,
    /// Pages split between GPU and lower tiers (mid-swap).
    Mixed,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct KvStoreConfig {
    /// Tokens per page.
    pub page_tokens: usize,
    /// GPU-tier capacity in pages.
    pub gpu_pages: usize,
    /// CPU-tier capacity in pages.
    pub cpu_pages: usize,
    /// Disk-tier capacity in pages (0 disables the disk tier).
    pub disk_pages: usize,
    /// KV bytes per token (for byte-denominated statistics).
    pub bytes_per_token: u64,
}

impl KvStoreConfig {
    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 64,
            cpu_pages: 64,
            disk_pages: 64,
            bytes_per_token: 1024,
        }
    }

    /// Sizes the pools from byte budgets and a model's per-token KV size.
    ///
    /// Policy: a *nonzero* byte budget always yields at least one page —
    /// integer truncation used to turn a budget smaller than one page into
    /// a zero-page tier whose every allocation failed with a confusing
    /// out-of-memory error. A zero budget stays zero (tier disabled).
    pub fn from_bytes(
        gpu_kv_bytes: u64,
        cpu_kv_bytes: u64,
        disk_kv_bytes: u64,
        bytes_per_token: u64,
        page_tokens: usize,
    ) -> Self {
        assert!(bytes_per_token > 0 && page_tokens > 0);
        let page_bytes = bytes_per_token * page_tokens as u64;
        let pages = |budget_bytes: u64| {
            if budget_bytes == 0 {
                0
            } else {
                ((budget_bytes / page_bytes) as usize).max(1)
            }
        };
        KvStoreConfig {
            page_tokens,
            gpu_pages: pages(gpu_kv_bytes),
            cpu_pages: pages(cpu_kv_bytes),
            disk_pages: pages(disk_kv_bytes),
            bytes_per_token,
        }
    }
}

impl Default for KvStoreConfig {
    fn default() -> Self {
        KvStoreConfig {
            page_tokens: PAGE_TOKENS_DEFAULT,
            gpu_pages: 4096,
            cpu_pages: 16_384,
            disk_pages: 65_536,
            bytes_per_token: 819_200,
        }
    }
}

/// Public snapshot of one file's metadata.
#[derive(Debug, Clone)]
pub struct FileStat {
    /// File ID.
    pub id: FileId,
    /// Owning tenant.
    pub owner: OwnerId,
    /// Entry (token) count.
    pub len: usize,
    /// Page count.
    pub pages: usize,
    /// Whether the file is pinned against eviction/swap.
    pub pinned: bool,
    /// Holder of the exclusive write lock, if any.
    pub locked_by: Option<OwnerId>,
    /// Tier placement.
    pub residency: Residency,
    /// Logical last-access stamp (monotone counter, for LRU policies).
    pub last_access: u64,
    /// Paths linked to this file.
    pub links: usize,
}

#[derive(Debug)]
struct FileMeta {
    pages: Vec<crate::page::PageId>,
    len: usize,
    owner: OwnerId,
    mode: Mode,
    pinned: bool,
    lock: Option<OwnerId>,
    last_access: u64,
    links: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct Quota {
    used_pages: usize,
    limit_pages: Option<usize>,
}

/// Cumulative store statistics — a point-in-time snapshot of the store's
/// counters in the unified metrics registry (`kvfs.*`).
#[derive(Debug, Default, Clone, Copy)]
pub struct KvStats {
    /// Tokens moved out of GPU HBM (to DRAM or disk).
    pub swapped_out_tokens: u64,
    /// Tokens moved back into GPU HBM (from DRAM or disk).
    pub swapped_in_tokens: u64,
    /// Tokens that landed on the disk tier (CPU-pressure spill or demote).
    pub disk_spilled_tokens: u64,
    /// Tokens read back from the disk tier.
    pub disk_loaded_tokens: u64,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// Entries copied by `extract`/`merge`.
    pub copied_entries: u64,
}

/// Live counter handles into the metrics registry backing [`KvStats`].
#[derive(Debug, Clone)]
struct KvCounters {
    swapped_out_tokens: Counter,
    swapped_in_tokens: Counter,
    disk_spilled_tokens: Counter,
    disk_loaded_tokens: Counter,
    cow_copies: Counter,
    copied_entries: Counter,
    compactions: Counter,
    journal_bytes: Gauge,
    journal_frames_page_write: Gauge,
    journal_frames_file_meta: Gauge,
    journal_frames_link: Gauge,
    journal_frames_quota: Gauge,
    journal_frames_pool_state: Gauge,
}

impl KvCounters {
    fn register(registry: &MetricsRegistry) -> Self {
        KvCounters {
            swapped_out_tokens: registry.counter("kvfs.swapped_out_tokens"),
            swapped_in_tokens: registry.counter("kvfs.swapped_in_tokens"),
            disk_spilled_tokens: registry.counter("kvfs.disk_spilled_tokens"),
            disk_loaded_tokens: registry.counter("kvfs.disk_loaded_tokens"),
            cow_copies: registry.counter("kvfs.cow_copies"),
            copied_entries: registry.counter("kvfs.copied_entries"),
            compactions: registry.counter("kvfs.compactions"),
            journal_bytes: registry.gauge("kvfs.journal_bytes"),
            journal_frames_page_write: registry.gauge("kvfs.journal_frames.page_write"),
            journal_frames_file_meta: registry.gauge("kvfs.journal_frames.file_meta"),
            journal_frames_link: registry.gauge("kvfs.journal_frames.link"),
            journal_frames_quota: registry.gauge("kvfs.journal_frames.quota"),
            journal_frames_pool_state: registry.gauge("kvfs.journal_frames.pool_state"),
        }
    }
}

/// Token-move breakdown of one swap operation, split by the lane the bytes
/// crossed: `dram_tokens` moved over PCIe (GPU↔CPU), `disk_tokens` crossed
/// the NVMe lane (anything↔disk). Callers charge each lane's cost model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwapReport {
    /// Tokens moved between GPU HBM and CPU DRAM (PCIe traffic).
    pub dram_tokens: usize,
    /// Tokens moved to or from the disk tier (NVMe traffic).
    pub disk_tokens: usize,
}

impl SwapReport {
    /// Total tokens moved, regardless of lane.
    pub fn total(&self) -> usize {
        self.dram_tokens + self.disk_tokens
    }
}

/// Change tracking for incremental journal persistence.
///
/// The dirty sets say *which* live entities changed since the last
/// [`KvStore::take_delta`] drain; the shadow maps remember the namespace,
/// live-file set, and quota limits as the journal last described them, so
/// the drain can emit a structural diff (removes, unlinks, links, quota
/// changes) instead of logging every operation. Entities born and removed
/// between drains never touch the diff at all.
#[derive(Debug, Default)]
struct DeltaLog {
    /// Live file ids whose metadata changed since the last drain.
    dirty_files: std::collections::BTreeSet<u64>,
    /// Live file ids as of the last drain.
    shadow_files: std::collections::BTreeSet<u64>,
    /// Namespace as of the last drain.
    shadow_namespace: BTreeMap<String, u64>,
    /// Per-owner quota limits as of the last drain.
    shadow_quotas: BTreeMap<u64, Option<u64>>,
}

/// The KV file store.
#[derive(Debug)]
pub struct KvStore {
    pool: PagePool,
    files: BTreeMap<u64, FileMeta>,
    next_file: u64,
    namespace: BTreeMap<String, FileId>,
    quotas: BTreeMap<OwnerId, Quota>,
    access_clock: u64,
    bytes_per_token: u64,
    counters: KvCounters,
    /// `Some` while an incremental journal is attached (see
    /// [`KvStore::enable_delta_log`]); `None` keeps every mutation path at
    /// its original cost.
    delta: Option<DeltaLog>,
}

impl KvStore {
    /// Creates an empty store with a private metrics registry.
    pub fn new(config: KvStoreConfig) -> Self {
        KvStore::with_registry(config, &MetricsRegistry::new())
    }

    /// Creates an empty store whose counters live in `registry` under the
    /// `kvfs.*` names, so the embedding kernel can snapshot them alongside
    /// every other subsystem.
    pub fn with_registry(config: KvStoreConfig, registry: &MetricsRegistry) -> Self {
        KvStore {
            pool: PagePool::new(
                config.page_tokens,
                config.gpu_pages,
                config.cpu_pages,
                config.disk_pages,
            ),
            files: BTreeMap::new(),
            next_file: 1,
            namespace: BTreeMap::new(),
            quotas: BTreeMap::new(),
            access_clock: 0,
            bytes_per_token: config.bytes_per_token,
            counters: KvCounters::register(registry),
            delta: None,
        }
    }

    // ---- accounting ------------------------------------------------------

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.pool.page_tokens()
    }

    /// GPU pages in use.
    pub fn gpu_pages_used(&self) -> usize {
        self.pool.gpu_used()
    }

    /// Free GPU pages.
    pub fn gpu_pages_free(&self) -> usize {
        self.pool.gpu_capacity() - self.pool.gpu_used()
    }

    /// CPU pages in use.
    pub fn cpu_pages_used(&self) -> usize {
        self.pool.cpu_used()
    }

    /// Disk pages in use.
    pub fn disk_pages_used(&self) -> usize {
        self.pool.disk_used()
    }

    /// Total live pages across all tiers.
    pub fn live_pages(&self) -> usize {
        self.pool.live_pages()
    }

    /// KV bytes per token (byte-denominated statistics).
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Cumulative statistics (a snapshot of the `kvfs.*` counters).
    pub fn stats(&self) -> KvStats {
        KvStats {
            swapped_out_tokens: self.counters.swapped_out_tokens.get(),
            swapped_in_tokens: self.counters.swapped_in_tokens.get(),
            disk_spilled_tokens: self.counters.disk_spilled_tokens.get(),
            disk_loaded_tokens: self.counters.disk_loaded_tokens.get(),
            cow_copies: self.counters.cow_copies.get(),
            copied_entries: self.counters.copied_entries.get(),
        }
    }

    /// Sets an owner's page quota (`None` = unlimited).
    pub fn set_quota(&mut self, owner: OwnerId, limit_pages: Option<usize>) {
        self.quotas.entry(owner).or_default().limit_pages = limit_pages;
    }

    /// Pages currently charged to an owner.
    pub fn quota_used(&self, owner: OwnerId) -> usize {
        self.quotas.get(&owner).map_or(0, |q| q.used_pages)
    }

    fn charge(&mut self, owner: OwnerId, pages: usize) -> Result<(), KvError> {
        let q = self.quotas.entry(owner).or_default();
        if let Some(limit) = q.limit_pages {
            if q.used_pages + pages > limit {
                return Err(KvError::QuotaExceeded);
            }
        }
        q.used_pages += pages;
        Ok(())
    }

    fn credit(&mut self, owner: OwnerId, pages: usize) {
        let q = self.quotas.entry(owner).or_default();
        debug_assert!(q.used_pages >= pages, "quota underflow");
        q.used_pages = q.used_pages.saturating_sub(pages);
    }

    // ---- permission helpers ----------------------------------------------

    fn meta(&self, id: FileId) -> Result<&FileMeta, KvError> {
        self.files.get(&id.0).ok_or(KvError::NotFound)
    }

    fn meta_mut(&mut self, id: FileId) -> Result<&mut FileMeta, KvError> {
        // Every metadata mutation flows through here (or `touch`), which is
        // what makes the delta log's dirty-file set complete.
        if let Some(d) = self.delta.as_mut() {
            d.dirty_files.insert(id.0);
        }
        self.files.get_mut(&id.0).ok_or(KvError::NotFound)
    }

    fn check_read(&self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if caller == OwnerId::ADMIN || caller == m.owner || m.mode.read_all {
            Ok(())
        } else {
            Err(KvError::PermissionDenied)
        }
    }

    fn check_write(&self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if !(caller == OwnerId::ADMIN || caller == m.owner || m.mode.write_all) {
            return Err(KvError::PermissionDenied);
        }
        match m.lock {
            Some(holder) if holder != caller => Err(KvError::Locked),
            _ => Ok(()),
        }
    }

    fn touch(&mut self, id: FileId) {
        self.access_clock += 1;
        let clock = self.access_clock;
        if let Some(m) = self.files.get_mut(&id.0) {
            m.last_access = clock;
            // `last_access` is journalled state: reads dirty the file too.
            if let Some(d) = self.delta.as_mut() {
                d.dirty_files.insert(id.0);
            }
        }
    }

    // ---- lifecycle ---------------------------------------------------------

    /// Creates an empty file owned by `owner` with [`Mode::PRIVATE`].
    pub fn create(&mut self, owner: OwnerId) -> Result<FileId, KvError> {
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            id.0,
            FileMeta {
                pages: Vec::new(),
                len: 0,
                owner,
                mode: Mode::PRIVATE,
                pinned: false,
                lock: None,
                last_access: 0,
                links: 0,
            },
        );
        self.touch(id);
        Ok(id)
    }

    /// Sets a file's permission mode (owner or admin only).
    pub fn chmod(&mut self, id: FileId, caller: OwnerId, mode: Mode) -> Result<(), KvError> {
        let m = self.meta(id)?;
        if caller != OwnerId::ADMIN && caller != m.owner {
            return Err(KvError::PermissionDenied);
        }
        self.meta_mut(id)?.mode = mode;
        Ok(())
    }

    /// Removes a file, releasing its pages and any namespace links.
    pub fn remove(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        let meta = self.files.remove(&id.0).ok_or(KvError::NotFound)?;
        for p in &meta.pages {
            self.pool.release(*p);
        }
        self.credit(meta.owner, meta.pages.len());
        self.namespace.retain(|_, v| *v != id);
        Ok(())
    }

    // ---- namespace ---------------------------------------------------------

    /// Links a path to a file so other processes can [`KvStore::open`] it.
    pub fn link(&mut self, id: FileId, path: &str, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        if self.namespace.contains_key(path) {
            return Err(KvError::AlreadyExists);
        }
        self.namespace.insert(path.to_string(), id);
        self.meta_mut(id)?.links += 1;
        Ok(())
    }

    /// Removes a path (the file itself survives).
    pub fn unlink(&mut self, path: &str, caller: OwnerId) -> Result<(), KvError> {
        let id = *self.namespace.get(path).ok_or(KvError::NotFound)?;
        self.check_write(id, caller)?;
        self.namespace.remove(path);
        self.meta_mut(id)?.links -= 1;
        Ok(())
    }

    /// Resolves a path to a file ID, checking read permission.
    pub fn open(&mut self, path: &str, caller: OwnerId) -> Result<FileId, KvError> {
        let id = *self.namespace.get(path).ok_or(KvError::NotFound)?;
        self.check_read(id, caller)?;
        self.touch(id);
        Ok(id)
    }

    /// Resolves a path without permission checks or access stamping.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.namespace.get(path).copied()
    }

    // ---- locks -------------------------------------------------------------

    /// Takes the exclusive write lock (idempotent for the holder).
    pub fn lock(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_read(id, caller)?;
        let m = self.meta_mut(id)?;
        match m.lock {
            None => {
                m.lock = Some(caller);
                Ok(())
            }
            Some(holder) if holder == caller => Ok(()),
            Some(_) => Err(KvError::Locked),
        }
    }

    /// Releases the exclusive write lock.
    pub fn unlock(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        let m = self.meta_mut(id)?;
        match m.lock {
            Some(holder) if holder == caller => {
                m.lock = None;
                Ok(())
            }
            Some(_) => Err(KvError::NotLockHolder),
            None => Err(KvError::NotLockHolder),
        }
    }

    // ---- content -----------------------------------------------------------

    /// Entry count.
    pub fn len(&self, id: FileId) -> Result<usize, KvError> {
        Ok(self.meta(id)?.len)
    }

    /// Returns `true` if the file has no entries.
    pub fn is_empty(&self, id: FileId) -> Result<bool, KvError> {
        Ok(self.meta(id)?.len == 0)
    }

    /// Fingerprint of the last entry (the context `pred` continues from).
    pub fn tail_fingerprint(&self, id: FileId) -> Result<Option<CtxFingerprint>, KvError> {
        let m = self.meta(id)?;
        Ok(m.pages.last().and_then(|&p| {
            self.pool.page(p).entries.last().map(|e| e.fingerprint)
        }))
    }

    /// Position following the last entry (0 for an empty file).
    pub fn next_position(&self, id: FileId) -> Result<u32, KvError> {
        let m = self.meta(id)?;
        Ok(m
            .pages
            .last()
            .and_then(|&p| self.pool.page(p).entries.last())
            .map_or(0, |e| e.position + 1))
    }

    /// Reads `count` entries starting at entry index `start`.
    pub fn read(
        &mut self,
        id: FileId,
        caller: OwnerId,
        start: usize,
        count: usize,
    ) -> Result<Vec<KvEntry>, KvError> {
        self.check_read(id, caller)?;
        let m = self.meta(id)?;
        if start + count > m.len {
            return Err(KvError::BadRange);
        }
        let mut out = Vec::with_capacity(count);
        let pt = self.pool.page_tokens();
        let mut idx = start;
        while out.len() < count {
            let page = m.pages[idx / pt];
            let within = idx % pt;
            let entries = &self.pool.page(page).entries;
            let take = (count - out.len()).min(entries.len() - within);
            out.extend_from_slice(&entries[within..within + take]);
            idx += take;
        }
        self.touch(id);
        Ok(out)
    }

    /// Reads the whole file (no permission check; kernel/executor internal).
    pub fn read_all_unchecked(&self, id: FileId) -> Result<Vec<KvEntry>, KvError> {
        let m = self.meta(id)?;
        let mut out = Vec::with_capacity(m.len);
        for &p in &m.pages {
            out.extend_from_slice(&self.pool.page(p).entries);
        }
        Ok(out)
    }

    /// Returns `true` if appending `n` entries would fit in the GPU tier
    /// (capacity only; quota is still checked by [`KvStore::append`]).
    /// Executors use this to fail fast before computing model outputs.
    pub fn can_append(&self, id: FileId, n: usize) -> Result<bool, KvError> {
        let pt = self.pool.page_tokens();
        let m = self.meta(id)?;
        let (tail_free, tail_shared) = match m.pages.last() {
            Some(&p) => {
                let page = self.pool.page(p);
                (pt - page.entries.len(), page.refcount > 1)
            }
            None => (0, false),
        };
        let cow = usize::from(n > 0 && tail_free > 0 && tail_shared);
        let new_pages = n.saturating_sub(tail_free).div_ceil(pt);
        Ok(self.pool.gpu_used() + new_pages + cow <= self.pool.gpu_capacity())
    }

    /// Appends entries, copy-on-writing a shared tail page if needed.
    ///
    /// Allocation needs are checked up front, so a failed append leaves the
    /// file unchanged. New pages are allocated in the GPU tier; the file's
    /// existing tail must be GPU-resident.
    pub fn append(
        &mut self,
        id: FileId,
        caller: OwnerId,
        entries: &[KvEntry],
    ) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        if entries.is_empty() {
            return Ok(());
        }
        let pt = self.pool.page_tokens();
        let (tail_free, tail_shared, tail_tier) = {
            let m = self.meta(id)?;
            match m.pages.last() {
                Some(&p) => {
                    let page = self.pool.page(p);
                    (
                        pt - page.entries.len(),
                        page.refcount > 1,
                        Some(page.tier),
                    )
                }
                None => (0, false, None),
            }
        };
        if let Some(t) = tail_tier {
            if t != Tier::Gpu && tail_free > 0 {
                return Err(KvError::NotResident);
            }
        }
        let writes_into_tail = tail_free > 0;
        let cow_pages = usize::from(writes_into_tail && tail_shared);
        let overflow = entries.len().saturating_sub(tail_free);
        let new_pages = overflow.div_ceil(pt);
        // Upfront capacity and quota checks (COW replaces a page in this
        // file, so quota only grows by `new_pages`).
        if self.pool.gpu_used() + new_pages + cow_pages > self.pool.gpu_capacity() {
            return Err(KvError::NoGpuMemory);
        }
        let owner = self.meta(id)?.owner;
        self.charge(owner, new_pages)?;

        // COW the tail if it is shared and we are about to write into it.
        // (`tail_free > 0` implies the file has a tail page, and the
        // capacity check above reserved the COW page — a `BadRange` or
        // `NoGpuMemory` here would mean the accounting itself is broken,
        // so it surfaces as a typed error, not a panic.)
        if cow_pages == 1 {
            let old = *self.meta(id)?.pages.last().ok_or(KvError::BadRange)?;
            let copy = self.pool.alloc(Tier::Gpu)?;
            self.pool.copy_entries_into(old, copy);
            self.pool.release(old);
            *self
                .meta_mut(id)?
                .pages
                .last_mut()
                .ok_or(KvError::BadRange)? = copy;
            self.counters.cow_copies.inc();
        }

        let mut remaining = entries;
        if writes_into_tail {
            let take = remaining.len().min(tail_free);
            let tail = *self.meta(id)?.pages.last().ok_or(KvError::BadRange)?;
            self.pool
                .page_mut(tail)
                .entries
                .extend_from_slice(&remaining[..take]);
            self.pool.mark_dirty(tail);
            remaining = &remaining[take..];
        }
        while !remaining.is_empty() {
            let p = self.pool.alloc(Tier::Gpu)?;
            let take = remaining.len().min(pt);
            self.pool
                .page_mut(p)
                .entries
                .extend_from_slice(&remaining[..take]);
            self.meta_mut(id)?.pages.push(p);
            remaining = &remaining[take..];
        }
        self.meta_mut(id)?.len += entries.len();
        self.touch(id);
        Ok(())
    }

    /// Truncates the file to `new_len` entries, releasing now-empty pages.
    ///
    /// A shared boundary page is copy-on-written so the other references keep
    /// their full contents.
    pub fn truncate(&mut self, id: FileId, caller: OwnerId, new_len: usize) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        let m = self.meta(id)?;
        if new_len > m.len {
            return Err(KvError::BadRange);
        }
        if new_len == m.len {
            return Ok(());
        }
        let pt = self.pool.page_tokens();
        let keep_pages = new_len.div_ceil(pt);
        let owner = m.owner;
        let drop_pages: Vec<_> = self.meta(id)?.pages[keep_pages..].to_vec();
        let dropped = drop_pages.len();
        for p in drop_pages {
            self.pool.release(p);
        }
        self.meta_mut(id)?.pages.truncate(keep_pages);
        self.credit(owner, dropped);
        // Trim within the boundary page.
        let within = new_len % pt;
        if within != 0 || new_len == 0 {
            if let Some(&last) = self.meta(id)?.pages.last() {
                if self.pool.page(last).refcount > 1 {
                    let copy = self.pool.alloc(Tier::Gpu)?;
                    self.pool.copy_entries_into(last, copy);
                    self.pool.release(last);
                    *self.meta_mut(id)?.pages.last_mut().ok_or(KvError::BadRange)? = copy;
                    self.counters.cow_copies.inc();
                }
                let last = *self.meta(id)?.pages.last().ok_or(KvError::BadRange)?;
                self.pool.page_mut(last).entries.truncate(within);
                self.pool.mark_dirty(last);
            }
        }
        self.meta_mut(id)?.len = new_len;
        self.touch(id);
        Ok(())
    }

    // ---- fork / extract / merge ---------------------------------------------

    /// Clones a file by sharing all of its pages (copy-on-write).
    ///
    /// The clone is owned by `caller` and starts private and unpinned. This
    /// is the `kv_fork` of the paper's Figure 2: parallel generation threads
    /// fork a shared prefix "without duplicating the actual tensors".
    pub fn fork(&mut self, id: FileId, caller: OwnerId) -> Result<FileId, KvError> {
        self.check_read(id, caller)?;
        let (pages, len) = {
            let m = self.meta(id)?;
            (m.pages.clone(), m.len)
        };
        self.charge(caller, pages.len())?;
        for &p in &pages {
            self.pool.retain(p);
        }
        let new = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(
            new.0,
            FileMeta {
                pages,
                len,
                owner: caller,
                mode: Mode::PRIVATE,
                pinned: false,
                lock: None,
                last_access: 0,
                links: 0,
            },
        );
        self.touch(new);
        Ok(new)
    }

    /// Builds a new file from entry ranges of an existing file.
    ///
    /// Entries are copied (not shared): an extracted file models *pruned*
    /// context (§4.2's runtime context pruning), whose entries keep the
    /// fingerprints computed under the original context — the approximate-
    /// reuse semantics of techniques like attention sinks.
    pub fn extract(
        &mut self,
        id: FileId,
        caller: OwnerId,
        ranges: &[core::ops::Range<usize>],
    ) -> Result<FileId, KvError> {
        self.check_read(id, caller)?;
        let len = self.meta(id)?.len;
        let mut picked = Vec::new();
        for r in ranges {
            if r.start > r.end || r.end > len {
                return Err(KvError::BadRange);
            }
            let chunk = self.read(id, caller, r.start, r.end - r.start)?;
            picked.extend(chunk);
        }
        if picked.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let new = self.create(caller)?;
        match self.append(new, caller, &picked) {
            Ok(()) => {
                self.counters.copied_entries.add(picked.len() as u64);
                Ok(new)
            }
            Err(e) => {
                let _ = self.remove(new, caller);
                Err(e)
            }
        }
    }

    /// Concatenates several files into a new one (entries copied).
    pub fn merge(&mut self, ids: &[FileId], caller: OwnerId) -> Result<FileId, KvError> {
        if ids.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let mut all = Vec::new();
        for &id in ids {
            self.check_read(id, caller)?;
            all.extend(self.read_all_unchecked(id)?);
        }
        if all.is_empty() {
            return Err(KvError::EmptyInput);
        }
        let new = self.create(caller)?;
        match self.append(new, caller, &all) {
            Ok(()) => {
                self.counters.copied_entries.add(all.len() as u64);
                Ok(new)
            }
            Err(e) => {
                let _ = self.remove(new, caller);
                Err(e)
            }
        }
    }

    // ---- pinning and tiers ---------------------------------------------------

    /// Pins a file: it may not be swapped out or removed by non-owners.
    pub fn pin(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        self.meta_mut(id)?.pinned = true;
        Ok(())
    }

    /// Unpins a file.
    pub fn unpin(&mut self, id: FileId, caller: OwnerId) -> Result<(), KvError> {
        self.check_write(id, caller)?;
        self.meta_mut(id)?.pinned = false;
        Ok(())
    }

    /// Where the file's pages live.
    pub fn residency(&self, id: FileId) -> Result<Residency, KvError> {
        let m = self.meta(id)?;
        if m.pages.is_empty() {
            return Ok(Residency::Empty);
        }
        let (mut gpu, mut disk) = (0usize, 0usize);
        for &p in &m.pages {
            match self.pool.page(p).tier {
                Tier::Gpu => gpu += 1,
                Tier::Cpu => {}
                Tier::Disk => disk += 1,
            }
        }
        Ok(if gpu == m.pages.len() {
            Residency::Gpu
        } else if gpu > 0 {
            Residency::Mixed
        } else if disk == m.pages.len() {
            Residency::Disk
        } else {
            // No GPU pages; at least one DRAM page (any disk remainder is
            // still off-GPU, so the file is equally non-resident).
            Residency::Cpu
        })
    }

    /// Swaps all GPU pages out of HBM; returns the per-lane token counts
    /// (for PCIe/NVMe timing). Pages go to CPU DRAM first; under CPU
    /// pressure they spill one level further to the disk tier. Shared
    /// pages move too — swap is a whole-page property. Pages already off
    /// the GPU stay where they are.
    ///
    /// When the disk tier is disabled (zero capacity) a full DRAM surfaces
    /// as [`KvError::NoCpuMemory`], exactly as it did before the disk tier
    /// existed.
    pub fn swap_out(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        if self.meta(id)?.pinned {
            return Err(KvError::Pinned);
        }
        // Split borrow: the page table is read-only while the pool migrates,
        // so the per-call `pages.clone()` this path used to do is unneeded.
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let mut report = SwapReport::default();
        for &p in &m.pages {
            if pool.page(p).tier != Tier::Gpu {
                continue;
            }
            match pool.migrate(p, Tier::Cpu) {
                Ok(n) => report.dram_tokens += n,
                Err(KvError::NoCpuMemory) => match pool.migrate(p, Tier::Disk) {
                    Ok(n) => report.disk_tokens += n,
                    Err(KvError::NoDiskMemory) => return Err(KvError::NoCpuMemory),
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        self.counters.swapped_out_tokens.add(report.total() as u64);
        self.counters
            .disk_spilled_tokens
            .add(report.disk_tokens as u64);
        Ok(report)
    }

    /// Demotes every page of a file to the disk tier (cold persistence or
    /// DRAM reclaim). Unlike [`KvStore::swap_out`], pinned files are
    /// eligible: pinning protects a file from being *dropped* or chosen by
    /// eviction policies, not from an explicit demotion to durable storage
    /// — a demoted pinned file keeps all its pages and its pin.
    pub fn demote_to_disk(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let mut report = SwapReport::default();
        let mut left_gpu = 0usize;
        for &p in &m.pages {
            let from = pool.page(p).tier;
            if from == Tier::Disk {
                continue;
            }
            let n = pool.migrate(p, Tier::Disk)?;
            if from == Tier::Gpu {
                left_gpu += n;
            }
            report.disk_tokens += n;
        }
        self.counters.swapped_out_tokens.add(left_gpu as u64);
        self.counters
            .disk_spilled_tokens
            .add(report.disk_tokens as u64);
        Ok(report)
    }

    /// Swaps all pages back into the GPU tier; returns the per-lane token
    /// counts (disk pages cross the NVMe lane, DRAM pages cross PCIe).
    pub fn swap_in(&mut self, id: FileId, caller: OwnerId) -> Result<SwapReport, KvError> {
        self.check_write(id, caller)?;
        let (files, pool) = (&self.files, &mut self.pool);
        let m = files.get(&id.0).ok_or(KvError::NotFound)?;
        let mut report = SwapReport::default();
        for &p in &m.pages {
            let from = pool.page(p).tier;
            let n = pool.migrate(p, Tier::Gpu)?;
            match from {
                Tier::Disk => report.disk_tokens += n,
                Tier::Cpu | Tier::Gpu => report.dram_tokens += n,
            }
        }
        self.counters.swapped_in_tokens.add(report.total() as u64);
        self.counters
            .disk_loaded_tokens
            .add(report.disk_tokens as u64);
        self.touch(id);
        Ok(report)
    }

    /// Preemption eviction hook: swaps out the least-recently-used
    /// GPU-resident file to free pages, skipping pinned, locked and
    /// `exclude`d files (the scheduler excludes files of sequences still
    /// executing). Returns the victim and the per-lane token counts, or
    /// `None` when no file is evictable. Deterministic: ties on
    /// `last_access` break by file id.
    pub fn evict_lru(&mut self, exclude: &[FileId]) -> Option<(FileId, SwapReport)> {
        // Scan the file table directly instead of materialising a full
        // `list_files()` stat vector: this runs on the preemption hot path.
        // A file with any GPU page is exactly the old `Gpu | Mixed`
        // residency filter.
        let pool = &self.pool;
        let victim = self
            .files
            .iter()
            .filter(|&(id, m)| {
                !m.pinned
                    && m.lock.is_none()
                    && !exclude.contains(&FileId(*id))
                    && m.pages.iter().any(|&p| pool.page(p).tier == Tier::Gpu)
            })
            .min_by_key(|&(id, m)| (m.last_access, *id))
            .map(|(&id, _)| FileId(id))?;
        // The victim just passed the evictability filter, so `swap_out`
        // should succeed; if it does not, report "nothing evictable"
        // rather than panicking mid-preemption (lint rule k1).
        let moved = self.swap_out(victim, OwnerId::ADMIN).ok()?;
        Some((victim, moved))
    }

    /// Releases every lock held by `owner` (kernel cleanup when a process
    /// exits or crashes). Returns the number of locks released.
    pub fn release_locks(&mut self, owner: OwnerId) -> usize {
        let mut released = 0;
        for (id, m) in self.files.iter_mut() {
            if m.lock == Some(owner) {
                m.lock = None;
                released += 1;
                if let Some(d) = self.delta.as_mut() {
                    d.dirty_files.insert(*id);
                }
            }
        }
        released
    }

    // ---- persistence -----------------------------------------------------------

    /// Starts incremental change tracking for delta journalling. Call at
    /// the moment the journal's base snapshot is taken: from here on,
    /// [`KvStore::take_delta`] returns records that replay the store's
    /// changes on top of that snapshot. Idempotent-ish only in the sense
    /// that re-enabling resets tracking to "nothing changed since now".
    pub fn enable_delta_log(&mut self) {
        self.pool.enable_dirty_tracking();
        let mut d = DeltaLog::default();
        self.reset_delta_shadow(&mut d);
        self.delta = Some(d);
    }

    fn reset_delta_shadow(&self, d: &mut DeltaLog) {
        d.dirty_files.clear();
        d.shadow_files = self.files.keys().copied().collect();
        d.shadow_namespace = self
            .namespace
            .iter()
            .map(|(p, id)| (p.clone(), id.0))
            .collect();
        d.shadow_quotas = self
            .quotas
            .iter()
            .map(|(o, q)| (o.0, q.limit_pages.map(|l| l as u64)))
            .collect();
    }

    /// Drains the changes since the last drain (or since
    /// [`KvStore::enable_delta_log`]) as an ordered record batch that,
    /// appended to the journal, replays to the store's current state:
    /// dirty pages, dirty file metadata, then a structural diff against
    /// the shadow state — removes, unlinks, links, quota changes — and a
    /// trailing [`Record::PoolState`] so append-only histories restore
    /// with byte-identical allocator state. Returns an empty batch when
    /// nothing changed or tracking is disabled.
    pub fn take_delta(&mut self) -> Vec<Record> {
        let Some(mut d) = self.delta.take() else {
            return Vec::new();
        };
        let mut recs = Vec::new();
        for p in self.pool.take_dirty() {
            let page = self.pool.page(crate::page::PageId(p));
            recs.push(Record::PageWrite {
                page: p,
                tier: page.tier,
                entries: page.entries.clone(),
            });
        }
        for &id in &d.dirty_files {
            let Some(m) = self.files.get(&id) else {
                continue; // dirtied, then removed: the diff below covers it
            };
            recs.push(Record::FileMeta {
                id,
                owner: m.owner.0,
                len: m.len as u64,
                read_all: m.mode.read_all,
                write_all: m.mode.write_all,
                pinned: m.pinned,
                lock: m.lock.map(|o| o.0),
                last_access: m.last_access,
                pages: m.pages.iter().map(|p| p.0).collect(),
            });
        }
        // Structural diff. Removes come first (replay drops a removed
        // file's namespace entries itself), then unlinks of surviving
        // stale paths, then links — so a re-pointed path never collides.
        let mut removed = std::collections::BTreeSet::new();
        for &id in &d.shadow_files {
            if !self.files.contains_key(&id) {
                recs.push(Record::Remove { file: id });
                removed.insert(id);
            }
        }
        for (path, &old_id) in &d.shadow_namespace {
            let stale = self.namespace.get(path).is_none_or(|cur| cur.0 != old_id);
            if stale && !removed.contains(&old_id) {
                recs.push(Record::Unlink { path: path.clone() });
            }
        }
        for (path, id) in &self.namespace {
            if d.shadow_namespace.get(path) != Some(&id.0) {
                recs.push(Record::Link {
                    path: path.clone(),
                    id: id.0,
                });
            }
        }
        for (owner, q) in &self.quotas {
            let limit = q.limit_pages.map(|l| l as u64);
            if d.shadow_quotas.get(&owner.0).copied().unwrap_or(None) != limit {
                recs.push(Record::Quota {
                    owner: owner.0,
                    limit,
                });
            }
        }
        if !recs.is_empty() {
            recs.push(Record::PoolState {
                slots_len: self.pool.slots_len() as u32,
                free: self.pool.free_list().to_vec(),
            });
        }
        self.reset_delta_shadow(&mut d);
        self.delta = Some(d);
        recs
    }

    /// Bumps the `kvfs.compactions` counter (the kernel calls this when
    /// its journal handle compacts).
    pub fn note_compaction(&self) {
        self.counters.compactions.inc();
    }

    /// Points the `kvfs.journal_bytes` gauge at an externally-managed
    /// journal's size (delta journals grow between snapshots, so the
    /// snapshot-sized value set by [`KvStore::journal_bytes`] goes stale).
    pub fn set_journal_len_metric(&self, bytes: u64) {
        self.counters.journal_bytes.set(bytes as i64);
    }

    /// Serialises the whole store as a journal record sequence: every live
    /// page, every file's metadata, every namespace link, every quota
    /// limit, and the pool's exact slot geometry. Replaying the bytes with
    /// [`KvStore::restore_from_journal_bytes`] under the same config
    /// rebuilds a byte-identical store (its own `journal_bytes` matches).
    pub fn journal_bytes(&self) -> Vec<u8> {
        let mut w = JournalWriter::new(&JournalHeader {
            page_tokens: self.pool.page_tokens() as u64,
            bytes_per_token: self.bytes_per_token,
            next_file: self.next_file,
            access_clock: self.access_clock,
        });
        let mut pages = 0i64;
        for (pid, page) in self.pool.iter() {
            w.append(&Record::PageWrite {
                page: pid.0,
                tier: page.tier,
                entries: page.entries.clone(),
            });
            pages += 1;
        }
        for (&id, m) in &self.files {
            w.append(&Record::FileMeta {
                id,
                owner: m.owner.0,
                len: m.len as u64,
                read_all: m.mode.read_all,
                write_all: m.mode.write_all,
                pinned: m.pinned,
                lock: m.lock.map(|o| o.0),
                last_access: m.last_access,
                pages: m.pages.iter().map(|p| p.0).collect(),
            });
        }
        for (path, id) in &self.namespace {
            w.append(&Record::Link {
                path: path.clone(),
                id: id.0,
            });
        }
        let mut quotas = 0i64;
        for (&owner, q) in &self.quotas {
            if let Some(limit) = q.limit_pages {
                w.append(&Record::Quota {
                    owner: owner.0,
                    limit: Some(limit as u64),
                });
                quotas += 1;
            }
        }
        w.append(&Record::PoolState {
            slots_len: self.pool.slots_len() as u32,
            free: self.pool.free_list().to_vec(),
        });
        let bytes = w.finish();
        // Growth observability: gauge the size and per-tag frame mix of the
        // latest snapshot so unbounded journals show up as a number, not an
        // out-of-disk surprise.
        self.counters.journal_bytes.set(bytes.len() as i64);
        self.counters.journal_frames_page_write.set(pages);
        self.counters
            .journal_frames_file_meta
            .set(self.files.len() as i64);
        self.counters
            .journal_frames_link
            .set(self.namespace.len() as i64);
        self.counters.journal_frames_quota.set(quotas);
        self.counters.journal_frames_pool_state.set(1);
        bytes
    }

    /// Restores a store from a journal file. I/O errors surface as
    /// [`KvError::JournalTorn`] (an unreadable journal and a torn one get
    /// the same cold-start handling from callers).
    pub fn restore_from_journal(
        path: &std::path::Path,
        config: KvStoreConfig,
        registry: &MetricsRegistry,
    ) -> Result<(KvStore, RestoreReport), KvError> {
        let bytes = std::fs::read(path).map_err(|_| KvError::JournalTorn)?;
        KvStore::restore_from_journal_bytes(config, registry, &bytes)
    }

    /// Replays journal bytes into a fresh store.
    ///
    /// A torn tail (crash mid-append) is truncate-and-continue: the longest
    /// valid record prefix is replayed and the tear is reported as
    /// `RestoreReport::torn = Some(KvError::JournalTorn)`. Hard failures —
    /// an unusable header, mismatched geometry
    /// ([`KvError::JournalIncompatible`]), or a restoring config too small
    /// to hold the journal's pages — fail the whole restore with a typed
    /// error. Cumulative `kvfs.*` counters are process-lifetime metrics and
    /// start at zero in the restored store.
    pub fn restore_from_journal_bytes(
        config: KvStoreConfig,
        registry: &MetricsRegistry,
        bytes: &[u8],
    ) -> Result<(KvStore, RestoreReport), KvError> {
        let (header, records, tail_torn) = journal::read_journal(bytes)?;
        if header.page_tokens != config.page_tokens as u64
            || header.bytes_per_token != config.bytes_per_token
        {
            return Err(KvError::JournalIncompatible);
        }

        struct StagedFile {
            pages: Vec<u32>,
            len: usize,
            owner: OwnerId,
            mode: Mode,
            pinned: bool,
            lock: Option<OwnerId>,
            last_access: u64,
        }

        let pt = config.page_tokens;
        let mut staged_pages: BTreeMap<u32, (Tier, Vec<KvEntry>)> = BTreeMap::new();
        let mut staged_files: BTreeMap<u64, StagedFile> = BTreeMap::new();
        let mut namespace: BTreeMap<String, FileId> = BTreeMap::new();
        let mut limits: BTreeMap<OwnerId, Option<usize>> = BTreeMap::new();
        let mut pool_state: Option<(usize, Vec<u32>)> = None;
        let mut torn = tail_torn;

        // An inconsistent record body (a file referencing unwritten pages,
        // a truncate past the end, ...) is treated exactly like a torn
        // frame: keep what replayed cleanly, stop there.
        'replay: for rec in records {
            // Any page/file mutation invalidates an earlier PoolState
            // snapshot record — its free list no longer matches.
            match &rec {
                Record::Link { .. }
                | Record::Unlink { .. }
                | Record::Quota { .. }
                | Record::PoolState { .. }
                | Record::End => {}
                _ => pool_state = None,
            }
            match rec {
                Record::PageWrite {
                    page,
                    tier,
                    entries,
                } => {
                    if entries.len() > pt {
                        torn = true;
                        break 'replay;
                    }
                    staged_pages.insert(page, (tier, entries));
                }
                Record::FileMeta {
                    id,
                    owner,
                    len,
                    read_all,
                    write_all,
                    pinned,
                    lock,
                    last_access,
                    pages,
                } => {
                    let mut total = 0usize;
                    for p in &pages {
                        match staged_pages.get(p) {
                            Some((_, entries)) => total += entries.len(),
                            None => {
                                torn = true;
                                break 'replay;
                            }
                        }
                    }
                    if total != len as usize {
                        torn = true;
                        break 'replay;
                    }
                    staged_files.insert(
                        id,
                        StagedFile {
                            pages,
                            len: len as usize,
                            owner: OwnerId(owner),
                            mode: Mode {
                                read_all,
                                write_all,
                            },
                            pinned,
                            lock: lock.map(OwnerId),
                            last_access,
                        },
                    );
                }
                Record::Link { path, id } => {
                    if !staged_files.contains_key(&id) || namespace.contains_key(&path) {
                        torn = true;
                        break 'replay;
                    }
                    namespace.insert(path, FileId(id));
                }
                Record::Unlink { path } => {
                    if namespace.remove(&path).is_none() {
                        torn = true;
                        break 'replay;
                    }
                }
                Record::Remove { file } => {
                    if staged_files.remove(&file).is_none() {
                        torn = true;
                        break 'replay;
                    }
                    namespace.retain(|_, v| v.0 != file);
                }
                Record::Truncate { file, new_len } => {
                    let new_len = new_len as usize;
                    let (pages_now, len_now) = match staged_files.get(&file) {
                        Some(f) => (f.pages.clone(), f.len),
                        None => {
                            torn = true;
                            break 'replay;
                        }
                    };
                    if new_len > len_now {
                        torn = true;
                        break 'replay;
                    }
                    let keep = new_len.div_ceil(pt).min(pages_now.len());
                    let mut new_pages = pages_now[..keep].to_vec();
                    let within = new_len % pt;
                    if within != 0 {
                        if let Some(&last) = new_pages.last() {
                            // Copy-on-write a boundary page other staged
                            // files still reference in full.
                            let refs: usize = staged_files
                                .values()
                                .map(|f| f.pages.iter().filter(|&&p| p == last).count())
                                .sum();
                            let boundary = if refs > 1 {
                                let fresh =
                                    staged_pages.keys().next_back().map_or(0, |&m| m + 1);
                                match staged_pages.get(&last) {
                                    Some(src) => {
                                        let copy = src.clone();
                                        staged_pages.insert(fresh, copy);
                                    }
                                    None => {
                                        torn = true;
                                        break 'replay;
                                    }
                                }
                                if let Some(slot) = new_pages.last_mut() {
                                    *slot = fresh;
                                }
                                fresh
                            } else {
                                last
                            };
                            match staged_pages.get_mut(&boundary) {
                                Some((_, entries)) => entries.truncate(within),
                                None => {
                                    torn = true;
                                    break 'replay;
                                }
                            }
                        }
                    }
                    if let Some(f) = staged_files.get_mut(&file) {
                        f.pages = new_pages;
                        f.len = new_len;
                    }
                }
                Record::Quota { owner, limit } => {
                    limits.insert(OwnerId(owner), limit.map(|l| l as usize));
                }
                Record::PoolState { slots_len, free } => {
                    pool_state = Some((slots_len as usize, free));
                }
                // `read_journal` consumes the terminator; nothing to do.
                Record::End => {}
            }
        }

        // Reference counts from the final staged file set; pages no file
        // references any more (truncated or removed tails) are dropped.
        let mut refs: BTreeMap<u32, u32> = BTreeMap::new();
        for f in staged_files.values() {
            for &p in &f.pages {
                *refs.entry(p).or_insert(0) += 1;
            }
        }
        let dropped_pages = staged_pages.keys().any(|p| !refs.contains_key(p));

        let mut store = KvStore::with_registry(config, registry);
        let mut pages_restored = 0usize;
        let mut tokens_restored = 0usize;
        for (&pid, (tier, entries)) in &staged_pages {
            let Some(&rc) = refs.get(&pid) else { continue };
            store
                .pool
                .install(PageId(pid), *tier, entries.clone(), rc)?;
            pages_restored += 1;
            tokens_restored += entries.len();
        }

        let mut max_file = 0u64;
        let mut per_owner: BTreeMap<OwnerId, usize> = BTreeMap::new();
        for (&id, f) in &staged_files {
            max_file = max_file.max(id);
            *per_owner.entry(f.owner).or_insert(0) += f.pages.len();
        }
        for (id, f) in staged_files {
            store.files.insert(
                id,
                FileMeta {
                    pages: f.pages.iter().map(|&p| PageId(p)).collect(),
                    len: f.len,
                    owner: f.owner,
                    mode: f.mode,
                    pinned: f.pinned,
                    lock: f.lock,
                    last_access: f.last_access,
                    links: 0,
                },
            );
        }
        for (path, id) in namespace {
            if let Some(m) = store.files.get_mut(&id.0) {
                m.links += 1;
            }
            store.namespace.insert(path, id);
        }
        for (owner, used) in per_owner {
            store.quotas.entry(owner).or_default().used_pages = used;
        }
        for (owner, limit) in limits {
            store.quotas.entry(owner).or_default().limit_pages = limit;
        }
        store.next_file = header.next_file.max(max_file + 1);
        // Delta batches appended after the base snapshot carry access times
        // newer than the base header's clock; never let the clock run
        // behind a restored `last_access` or post-restore touches would
        // reuse timestamps and scramble LRU ordering.
        let max_access = store.files.values().map(|m| m.last_access).max().unwrap_or(0);
        store.access_clock = header.access_clock.max(max_access);

        // Adopt the recorded free-slot order only when it still exactly
        // describes the restored pool; otherwise rebuild canonically.
        let installed = pages_restored;
        let usable_state = pool_state.filter(|(slots_len, free)| {
            !dropped_pages
                && *slots_len >= store.pool.slots_len()
                && free.len() == slots_len - installed
                && free
                    .iter()
                    .all(|&f| (f as usize) < *slots_len && !refs.contains_key(&f))
        });
        match usable_state {
            Some((slots_len, free)) => store.pool.finish_restore(slots_len, Some(free)),
            None => store.pool.finish_restore(0, None),
        }

        // Belt and braces: a restored store must satisfy every invariant
        // `verify` checks; a failure here is a journal-layer bug and the
        // store cannot be trusted.
        store.verify().map_err(|_| KvError::JournalTorn)?;

        // Growth observability survives recovery: gauge the journal we
        // just replayed (size and frame mix) so post-restore registries
        // report journal state without waiting for the next snapshot.
        store.counters.journal_bytes.set(bytes.len() as i64);
        store
            .counters
            .journal_frames_page_write
            .set(pages_restored as i64);
        store
            .counters
            .journal_frames_file_meta
            .set(store.files.len() as i64);
        store
            .counters
            .journal_frames_link
            .set(store.namespace.len() as i64);
        store.counters.journal_frames_quota.set(
            store
                .quotas
                .values()
                .filter(|q| q.limit_pages.is_some())
                .count() as i64,
        );
        store.counters.journal_frames_pool_state.set(1);

        let report = RestoreReport {
            files: store.files.len(),
            pages: pages_restored,
            tokens: tokens_restored,
            links: store.namespace.len(),
            torn: torn.then_some(KvError::JournalTorn),
        };
        Ok((store, report))
    }

    // ---- introspection ---------------------------------------------------------

    /// Snapshot of one file.
    pub fn stat(&self, id: FileId) -> Result<FileStat, KvError> {
        let m = self.meta(id)?;
        Ok(FileStat {
            id,
            owner: m.owner,
            len: m.len,
            pages: m.pages.len(),
            pinned: m.pinned,
            locked_by: m.lock,
            residency: self.residency(id)?,
            last_access: m.last_access,
            links: m.links,
        })
    }

    /// Snapshots of all files, in file-ID order (deterministic).
    pub fn list_files(&self) -> Vec<FileStat> {
        // Every key in `files` has metadata by construction; `filter_map`
        // instead of unwrapping keeps introspection total (lint rule k1).
        self.files
            .keys()
            .filter_map(|&k| self.stat(FileId(k)).ok())
            .collect()
    }

    /// Checks internal invariants; returns a description of the first
    /// violation. Tests call this after every mutation sequence.
    pub fn verify(&self) -> Result<(), String> {
        // Refcounts must equal the number of file references.
        let mut refs: BTreeMap<crate::page::PageId, u32> = BTreeMap::new();
        for m in self.files.values() {
            for &p in &m.pages {
                *refs.entry(p).or_insert(0) += 1;
            }
        }
        let mut live = 0;
        for (pid, page) in self.pool.iter() {
            live += 1;
            let expected = refs.get(&pid).copied().unwrap_or(0);
            if page.refcount != expected {
                return Err(format!(
                    "page {pid:?}: refcount {} but {} file references",
                    page.refcount, expected
                ));
            }
            if page.refcount == 0 {
                return Err(format!("page {pid:?} is live with refcount 0"));
            }
        }
        if live != refs.len() {
            return Err(format!(
                "{live} live pages but {} referenced pages",
                refs.len()
            ));
        }
        // File lengths must match page contents.
        for (idf, m) in &self.files {
            let total: usize = m
                .pages
                .iter()
                .map(|&p| self.pool.page(p).entries.len())
                .sum();
            if total != m.len {
                return Err(format!(
                    "file {idf}: len {} but pages hold {total} entries",
                    m.len
                ));
            }
            // Only the last page may be partially filled.
            for (i, &p) in m.pages.iter().enumerate() {
                let n = self.pool.page(p).entries.len();
                if i + 1 < m.pages.len() && n != self.pool.page_tokens() {
                    return Err(format!("file {idf}: interior page {i} not full ({n})"));
                }
            }
        }
        // Quota accounting must match file ownership.
        let mut per_owner: BTreeMap<OwnerId, usize> = BTreeMap::new();
        for m in self.files.values() {
            *per_owner.entry(m.owner).or_insert(0) += m.pages.len();
        }
        for (&owner, q) in &self.quotas {
            let expected = per_owner.get(&owner).copied().unwrap_or(0);
            if q.used_pages != expected {
                return Err(format!(
                    "owner {owner:?}: quota used {} but owns {expected} pages",
                    q.used_pages
                ));
            }
        }
        for (&owner, &used) in &per_owner {
            if used > 0 && !self.quotas.contains_key(&owner) {
                return Err(format!("owner {owner:?} owns pages but has no quota record"));
            }
        }
        // Namespace must point at live files.
        for (path, id) in &self.namespace {
            if !self.files.contains_key(&id.0) {
                return Err(format!("path {path:?} points at dead file {id:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u64) -> CtxFingerprint {
        CtxFingerprint(x)
    }

    fn entries(range: core::ops::Range<u32>) -> Vec<KvEntry> {
        range.map(|i| KvEntry::new(i, i, fp(i as u64))).collect()
    }

    fn store() -> KvStore {
        KvStore::new(KvStoreConfig::for_tests())
    }

    const U1: OwnerId = OwnerId(1);
    const U2: OwnerId = OwnerId(2);

    #[test]
    fn create_append_read() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        assert_eq!(s.len(f).unwrap(), 10);
        let got = s.read(f, U1, 3, 4).unwrap();
        assert_eq!(got, entries(3..7));
        assert_eq!(s.tail_fingerprint(f).unwrap(), Some(fp(9)));
        assert_eq!(s.next_position(f).unwrap(), 10);
        s.verify().unwrap();
    }

    #[test]
    fn read_bad_range() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..5)).unwrap();
        assert_eq!(s.read(f, U1, 3, 4), Err(KvError::BadRange));
    }

    #[test]
    fn fork_shares_pages_cow_on_append() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap(); // exactly 2 pages of 4
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let pages_before = s.gpu_pages_used();
        let g = s.fork(f, U2).unwrap();
        assert_eq!(s.gpu_pages_used(), pages_before, "fork allocates nothing");
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..8));
        // Append to the fork: tail page is full, so no COW, just a new page.
        s.append(g, U2, &entries(8..9)).unwrap();
        assert_eq!(s.gpu_pages_used(), pages_before + 1);
        // The original is untouched.
        assert_eq!(s.len(f).unwrap(), 8);
        assert_eq!(s.len(g).unwrap(), 9);
        s.verify().unwrap();
    }

    #[test]
    fn cow_on_shared_partial_tail() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..6)).unwrap(); // page0 full, page1 half
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let g = s.fork(f, U2).unwrap();
        let before = s.gpu_pages_used();
        s.append(g, U2, &entries(6..7)).unwrap();
        // COW of the shared tail page: one extra page in the pool.
        assert_eq!(s.gpu_pages_used(), before + 1);
        assert_eq!(s.stats().cow_copies, 1);
        assert_eq!(s.read_all_unchecked(f).unwrap(), entries(0..6));
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..7));
        s.verify().unwrap();
    }

    #[test]
    fn remove_releases_shared_pages_correctly() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        let g = s.fork(f, U2).unwrap();
        s.remove(f, U1).unwrap();
        // Pages survive via g.
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..8));
        assert_eq!(s.gpu_pages_used(), 2);
        s.remove(g, U2).unwrap();
        assert_eq!(s.gpu_pages_used(), 0);
        s.verify().unwrap();
    }

    #[test]
    fn append_out_of_memory_is_atomic() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 2,
            cpu_pages: 0,
            disk_pages: 0,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        assert_eq!(s.append(f, U1, &entries(4..12)), Err(KvError::NoGpuMemory));
        assert_eq!(s.len(f).unwrap(), 4, "failed append must not mutate");
        s.verify().unwrap();
    }

    #[test]
    fn quota_enforced_and_released() {
        let mut s = store();
        s.set_quota(U1, Some(2));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap(); // 2 pages
        assert_eq!(s.append(f, U1, &entries(8..9)), Err(KvError::QuotaExceeded));
        assert_eq!(s.quota_used(U1), 2);
        s.remove(f, U1).unwrap();
        assert_eq!(s.quota_used(U1), 0);
        s.verify().unwrap();
    }

    #[test]
    fn fork_charges_the_forker() {
        let mut s = store();
        s.set_quota(U2, Some(1));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        assert_eq!(s.fork(f, U2), Err(KvError::QuotaExceeded));
        s.set_quota(U2, Some(2));
        let g = s.fork(f, U2).unwrap();
        assert_eq!(s.quota_used(U2), 2);
        s.remove(g, U2).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn permissions() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        // Private by default.
        assert_eq!(s.read(f, U2, 0, 1), Err(KvError::PermissionDenied));
        assert_eq!(s.append(f, U2, &entries(4..5)), Err(KvError::PermissionDenied));
        // World-readable.
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        assert!(s.read(f, U2, 0, 1).is_ok());
        assert_eq!(s.append(f, U2, &entries(4..5)), Err(KvError::PermissionDenied));
        // Admin bypasses everything.
        assert!(s.read(f, OwnerId::ADMIN, 0, 1).is_ok());
        assert!(s.append(f, OwnerId::ADMIN, &entries(4..5)).is_ok());
        // Only owner/admin can chmod.
        assert_eq!(s.chmod(f, U2, Mode::PRIVATE), Err(KvError::PermissionDenied));
        s.verify().unwrap();
    }

    #[test]
    fn locks_exclude_other_writers() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.chmod(f, U1, Mode { read_all: true, write_all: true }).unwrap();
        s.lock(f, U2).unwrap();
        assert_eq!(s.append(f, U1, &entries(0..1)), Err(KvError::Locked));
        assert!(s.append(f, U2, &entries(0..1)).is_ok());
        assert_eq!(s.unlock(f, U1), Err(KvError::NotLockHolder));
        s.unlock(f, U2).unwrap();
        assert!(s.append(f, U1, &entries(1..2)).is_ok());
        assert_eq!(s.unlock(f, U1), Err(KvError::NotLockHolder));
        // Re-lock is idempotent for the holder.
        s.lock(f, U1).unwrap();
        s.lock(f, U1).unwrap();
        s.verify().unwrap();
    }

    #[test]
    fn namespace_link_open_unlink() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        s.link(f, "sys/prompt.kv", U1).unwrap();
        assert_eq!(s.link(f, "sys/prompt.kv", U1), Err(KvError::AlreadyExists));
        assert_eq!(s.open("sys/prompt.kv", U2).unwrap(), f);
        assert_eq!(s.open("missing", U2), Err(KvError::NotFound));
        // U2 cannot unlink a file it cannot write.
        assert_eq!(s.unlink("sys/prompt.kv", U2), Err(KvError::PermissionDenied));
        s.unlink("sys/prompt.kv", U1).unwrap();
        assert_eq!(s.lookup("sys/prompt.kv"), None);
        s.verify().unwrap();
    }

    #[test]
    fn remove_clears_namespace() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.link(f, "a", U1).unwrap();
        s.link(f, "b", U1).unwrap();
        s.remove(f, U1).unwrap();
        assert_eq!(s.lookup("a"), None);
        assert_eq!(s.lookup("b"), None);
        s.verify().unwrap();
    }

    #[test]
    fn extract_copies_ranges() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        let e = s.extract(f, U1, &[0..2, 6..9]).unwrap();
        let got = s.read_all_unchecked(e).unwrap();
        let mut want = entries(0..2);
        want.extend(entries(6..9));
        assert_eq!(got, want);
        // Positions are preserved (discontiguous layout).
        assert_eq!(got[2].position, 6);
        let past_end = 4..20;
        assert_eq!(s.extract(f, U1, &[past_end]), Err(KvError::BadRange));
        assert_eq!(s.extract(f, U1, &[]), Err(KvError::EmptyInput));
        s.verify().unwrap();
    }

    #[test]
    fn merge_concatenates() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        s.append(a, U1, &entries(0..3)).unwrap();
        s.append(b, U1, &entries(10..13)).unwrap();
        let m = s.merge(&[a, b], U1).unwrap();
        let got = s.read_all_unchecked(m).unwrap();
        assert_eq!(got.len(), 6);
        assert_eq!(got[3].token, 10);
        assert_eq!(s.merge(&[], U1), Err(KvError::EmptyInput));
        s.verify().unwrap();
    }

    #[test]
    fn truncate_releases_pages_and_cows_shared_boundary() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap(); // 3 pages (4+4+2)
        let g = s.fork(f, U1).unwrap();
        s.truncate(f, U1, 3).unwrap(); // boundary inside shared page 0
        assert_eq!(s.len(f).unwrap(), 3);
        assert_eq!(s.read_all_unchecked(f).unwrap(), entries(0..3));
        // g still intact.
        assert_eq!(s.read_all_unchecked(g).unwrap(), entries(0..10));
        s.truncate(f, U1, 0).unwrap();
        assert_eq!(s.len(f).unwrap(), 0);
        assert_eq!(s.truncate(g, U1, 11), Err(KvError::BadRange));
        s.verify().unwrap();
    }

    #[test]
    fn swap_out_and_in_move_tokens() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!(out.total(), 10);
        assert_eq!(out.disk_tokens, 0, "DRAM had room; nothing spills");
        assert_eq!(s.residency(f).unwrap(), Residency::Cpu);
        assert_eq!(s.gpu_pages_used(), 0);
        assert_eq!(s.cpu_pages_used(), 3);
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.total(), 10);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        assert_eq!(s.stats().swapped_out_tokens, 10);
        assert_eq!(s.stats().swapped_in_tokens, 10);
        s.verify().unwrap();
    }

    #[test]
    fn pinned_files_refuse_swap_out() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.pin(f, U1).unwrap();
        assert_eq!(s.swap_out(f, U1), Err(KvError::Pinned));
        s.unpin(f, U1).unwrap();
        assert!(s.swap_out(f, U1).is_ok());
        s.verify().unwrap();
    }

    #[test]
    fn append_to_swapped_file_requires_residency() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..6)).unwrap(); // partial tail
        s.swap_out(f, U1).unwrap();
        assert_eq!(s.append(f, U1, &entries(6..7)), Err(KvError::NotResident));
        s.swap_in(f, U1).unwrap();
        assert!(s.append(f, U1, &entries(6..7)).is_ok());
        s.verify().unwrap();
    }

    #[test]
    fn stat_and_list_files() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..5)).unwrap();
        s.pin(f, U1).unwrap();
        s.link(f, "x", U1).unwrap();
        let st = s.stat(f).unwrap();
        assert_eq!(st.len, 5);
        assert_eq!(st.pages, 2);
        assert!(st.pinned);
        assert_eq!(st.links, 1);
        assert_eq!(st.owner, U1);
        let g = s.create(U2).unwrap();
        let list = s.list_files();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].id, f);
        assert_eq!(list[1].id, g);
    }

    #[test]
    fn last_access_ordering_supports_lru() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        s.append(a, U1, &entries(0..1)).unwrap();
        s.append(b, U1, &entries(0..1)).unwrap();
        // Touch a after b.
        let _ = s.read(a, U1, 0, 1).unwrap();
        let sa = s.stat(a).unwrap().last_access;
        let sb = s.stat(b).unwrap().last_access;
        assert!(sa > sb, "a was accessed more recently");
    }

    #[test]
    fn evict_lru_picks_least_recent_and_respects_filters() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U1).unwrap();
        let c = s.create(U2).unwrap();
        s.append(a, U1, &entries(0..4)).unwrap();
        s.append(b, U1, &entries(0..4)).unwrap();
        s.append(c, U2, &entries(0..4)).unwrap();
        // Touch a so b becomes the LRU file.
        let _ = s.read(a, U1, 0, 1).unwrap();
        let (victim, moved) = s.evict_lru(&[]).unwrap();
        assert_eq!(victim, b);
        assert_eq!(moved.total(), 4);
        assert_eq!(s.residency(b).unwrap(), Residency::Cpu);
        // Already-swapped files are no longer candidates; with c excluded
        // and b on CPU, the only remaining candidate is a.
        let (victim, _) = s.evict_lru(&[c]).unwrap();
        assert_eq!(victim, a);
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_skips_pinned_and_locked() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U2).unwrap();
        s.append(a, U1, &entries(0..2)).unwrap();
        s.append(b, U2, &entries(0..2)).unwrap();
        s.pin(a, U1).unwrap();
        s.lock(b, U2).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "pinned and locked are immune");
        s.unlock(b, U2).unwrap();
        assert_eq!(s.evict_lru(&[]).unwrap().0, b);
        assert_eq!(s.evict_lru(&[]), None, "nothing left on the GPU");
        s.verify().unwrap();
    }

    #[test]
    fn evict_lru_on_empty_store_is_none() {
        let mut s = store();
        assert_eq!(s.evict_lru(&[]), None, "no files at all");
        let f = s.create(U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "empty file is not GPU-resident");
        s.remove(f, U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None);
    }

    #[test]
    fn list_files_total_after_removal() {
        let mut s = store();
        let a = s.create(U1).unwrap();
        let b = s.create(U2).unwrap();
        s.remove(a, U1).unwrap();
        let listed: Vec<FileId> = s.list_files().iter().map(|st| st.id).collect();
        assert_eq!(listed, vec![b], "stat never panics on a stale id");
    }

    #[test]
    fn swap_out_spills_to_disk_under_cpu_pressure() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 4,
            cpu_pages: 1,
            disk_pages: 4,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..12)).unwrap(); // 3 pages
        let out = s.swap_out(f, U1).unwrap();
        assert_eq!(out.dram_tokens, 4, "one page fits in DRAM");
        assert_eq!(out.disk_tokens, 8, "the rest spills to disk");
        assert_eq!(s.cpu_pages_used(), 1);
        assert_eq!(s.disk_pages_used(), 2);
        assert_eq!(s.residency(f).unwrap(), Residency::Cpu);
        assert_eq!(s.stats().disk_spilled_tokens, 8);
        // Swap back in: disk pages cross the NVMe lane.
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.dram_tokens, 4);
        assert_eq!(back.disk_tokens, 8);
        assert_eq!(s.stats().disk_loaded_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        s.verify().unwrap();
    }

    #[test]
    fn swap_out_without_disk_tier_matches_old_error() {
        let mut s = KvStore::new(KvStoreConfig {
            page_tokens: 4,
            gpu_pages: 4,
            cpu_pages: 1,
            disk_pages: 0,
            bytes_per_token: 1,
        });
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..12)).unwrap();
        assert_eq!(s.swap_out(f, U1), Err(KvError::NoCpuMemory));
        s.verify().unwrap();
    }

    #[test]
    fn demote_to_disk_keeps_pinned_files_and_their_pin() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..8)).unwrap();
        s.pin(f, U1).unwrap();
        // Pinned files refuse eviction-style swap-out but accept an
        // explicit demotion to durable storage.
        assert_eq!(s.swap_out(f, U1), Err(KvError::Pinned));
        let moved = s.demote_to_disk(f, U1).unwrap();
        assert_eq!(moved.disk_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Disk);
        assert!(s.stat(f).unwrap().pinned, "demotion never drops the pin");
        assert_eq!(s.len(f).unwrap(), 8, "demotion never drops pages");
        let back = s.swap_in(f, U1).unwrap();
        assert_eq!(back.disk_tokens, 8);
        assert_eq!(s.residency(f).unwrap(), Residency::Gpu);
        s.verify().unwrap();
    }

    #[test]
    fn disk_resident_files_are_not_evict_candidates() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..4)).unwrap();
        s.demote_to_disk(f, U1).unwrap();
        assert_eq!(s.evict_lru(&[]), None, "disk files free no GPU pages");
    }

    #[test]
    fn from_bytes_floors_nonzero_budgets_to_one_page() {
        // A budget smaller than one page (4 tokens × 2 bytes = 8 bytes per
        // page) used to truncate to a zero-page tier.
        let c = KvStoreConfig::from_bytes(7, 100, 3, 2, 4);
        assert_eq!(c.gpu_pages, 1, "nonzero budget floors to one page");
        assert_eq!(c.cpu_pages, 12);
        assert_eq!(c.disk_pages, 1);
        // Zero stays zero: the tier is disabled, not floored.
        let off = KvStoreConfig::from_bytes(64, 0, 0, 2, 4);
        assert_eq!(off.cpu_pages, 0);
        assert_eq!(off.disk_pages, 0);
    }

    #[test]
    fn journal_round_trip_restores_byte_identical_store() {
        let mut s = store();
        s.set_quota(U1, Some(32));
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        s.chmod(f, U1, Mode::SHARED_READ).unwrap();
        s.pin(f, U1).unwrap();
        s.link(f, "rag/doc.kv", U1).unwrap();
        let g = s.fork(f, U2).unwrap(); // CoW sharing survives the journal
        s.append(g, U2, &entries(10..13)).unwrap();
        let h = s.create(U2).unwrap();
        s.append(h, U2, &entries(0..5)).unwrap();
        s.demote_to_disk(h, U2).unwrap();
        s.lock(g, U2).unwrap();
        let bytes = s.journal_bytes();
        let (r, report) =
            KvStore::restore_from_journal_bytes(KvStoreConfig::for_tests(), &MetricsRegistry::new(), &bytes)
                .unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.links, 1);
        assert_eq!(report.torn, None);
        r.verify().unwrap();
        assert_eq!(r.journal_bytes(), bytes, "restore is byte-identical");
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..10));
        assert_eq!(r.lookup("rag/doc.kv"), Some(f));
        assert!(r.stat(f).unwrap().pinned);
        assert_eq!(r.stat(g).unwrap().locked_by, Some(U2));
        assert_eq!(r.residency(h).unwrap(), Residency::Disk);
        assert_eq!(
            r.gpu_pages_used(),
            s.gpu_pages_used(),
            "CoW sharing restored, not deep-copied"
        );
        // Fresh allocation continues where the snapshot left off.
        let mut r = r;
        let next = r.create(U1).unwrap();
        assert!(next.0 > h.0);
        r.verify().unwrap();
    }

    #[test]
    fn journal_replays_incremental_mutation_records() {
        // Snapshot a store, then append incremental records by hand and
        // check replay applies them with store semantics.
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        let g = s.fork(f, U1).unwrap();
        s.link(f, "a", U1).unwrap();
        let bytes = s.journal_bytes();
        // Rebuild the record stream without the End terminator, then tack
        // on a truncate (CoW boundary) and an unlink.
        let (header, mut records, torn) = crate::journal::read_journal(&bytes).unwrap();
        assert!(!torn);
        records.push(Record::Truncate { file: g.0, new_len: 5 });
        records.push(Record::Unlink { path: "a".to_string() });
        let mut w = JournalWriter::new(&header);
        for r in &records {
            w.append(r);
        }
        let (r, report) = KvStore::restore_from_journal_bytes(
            KvStoreConfig::for_tests(),
            &MetricsRegistry::new(),
            &w.finish(),
        )
        .unwrap();
        assert_eq!(report.torn, None);
        r.verify().unwrap();
        assert_eq!(r.len(g).unwrap(), 5);
        assert_eq!(r.read_all_unchecked(g).unwrap(), entries(0..5));
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..10), "CoW protected");
        assert_eq!(r.lookup("a"), None);
        assert_eq!(r.stat(f).unwrap().links, 0);
    }

    #[test]
    fn torn_journal_restores_valid_prefix() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        s.append(f, U1, &entries(0..10)).unwrap();
        s.link(f, "keep", U1).unwrap();
        let bytes = s.journal_bytes();
        // Tear the tail mid-record: everything before the cut that parses
        // cleanly must be restored, and the tear must be typed.
        let cut = bytes.len() - 7;
        let (r, report) = KvStore::restore_from_journal_bytes(
            KvStoreConfig::for_tests(),
            &MetricsRegistry::new(),
            &bytes[..cut],
        )
        .unwrap();
        assert_eq!(report.torn, Some(KvError::JournalTorn));
        r.verify().unwrap();
        assert_eq!(r.read_all_unchecked(f).unwrap(), entries(0..10));
    }

    #[test]
    fn journal_geometry_mismatch_is_incompatible() {
        let s = store();
        let bytes = s.journal_bytes();
        let mut other = KvStoreConfig::for_tests();
        other.page_tokens = 8;
        assert_eq!(
            KvStore::restore_from_journal_bytes(other, &MetricsRegistry::new(), &bytes)
                .err(),
            Some(KvError::JournalIncompatible)
        );
    }

    #[test]
    fn empty_file_edge_cases() {
        let mut s = store();
        let f = s.create(U1).unwrap();
        assert!(s.is_empty(f).unwrap());
        assert_eq!(s.tail_fingerprint(f).unwrap(), None);
        assert_eq!(s.next_position(f).unwrap(), 0);
        assert_eq!(s.residency(f).unwrap(), Residency::Empty);
        assert_eq!(s.read(f, U1, 0, 0).unwrap(), vec![]);
        s.append(f, U1, &[]).unwrap();
        assert!(s.is_empty(f).unwrap());
        s.verify().unwrap();
    }
}
