//! KVFS — the KV-cache file system (§4.2 of the paper).
//!
//! Symphony "treats the KV cache as files, enabling it to persist beyond a
//! single process's lifecycle, share across multiple processes, and allow
//! LIPs to dynamically manipulate it." This crate implements that file
//! system:
//!
//! - **Pages** ([`page`]): token-granular KV state is stored in fixed-size
//!   pages (PagedAttention-style) drawn from a ref-counted pool with three
//!   tiers — GPU HBM, CPU DRAM, and NVMe disk.
//! - **Files** ([`store`]): a file is an ordered sequence of
//!   `(token, position, fingerprint)` entries across pages. Files support
//!   POSIX-flavoured operations (create/open/link/unlink/remove), the
//!   specialised operations the paper names (`fork` with copy-on-write,
//!   `extract`, `merge`), exclusive write locks, owner/mode access control,
//!   pinning, and explicit tier swapping (GPU↔CPU with second-level spill
//!   to disk under DRAM pressure).
//! - **Quotas**: per-owner page budgets so one tenant cannot exhaust HBM.
//! - **Journal** ([`journal`]): an append-only, checksummed record format
//!   that persists the store across process restarts
//!   ([`store::KvStore::journal_bytes`] /
//!   [`store::KvStore::restore_from_journal`]), with truncate-and-continue
//!   recovery from torn tail records. See `docs/KVFS.md`.
//!
//! The store is a plain single-threaded value (`&mut self` API): the Symphony
//! kernel serialises all system calls, so interior locking would only hide
//! bugs. Every structural operation preserves the page-accounting invariant
//! checked by [`store::KvStore::verify`], which the property tests hammer.
//!
//! # Examples
//!
//! ```
//! use symphony_kvfs::{KvStore, KvStoreConfig, KvEntry, OwnerId};
//! use symphony_model::CtxFingerprint;
//!
//! let mut store = KvStore::new(KvStoreConfig::for_tests());
//! let owner = OwnerId(1);
//! let f = store.create(owner).unwrap();
//! store
//!     .append(f, owner, &[KvEntry::new(42, 0, CtxFingerprint(7))])
//!     .unwrap();
//! let clone = store.fork(f, owner).unwrap();
//! assert_eq!(store.len(clone).unwrap(), 1);
//! // Copy-on-write: the clone shares the page until one side appends.
//! assert_eq!(store.gpu_pages_used(), 1);
//! ```

pub mod error;
pub mod journal;
pub mod page;
pub mod store;

pub use error::KvError;
pub use journal::{
    Journal, JournalConfig, JournalHeader, JournalWriter, Record, RestoreReport,
};
pub use page::{KvEntry, PageId, Tier, PAGE_TOKENS_DEFAULT};
pub use store::{
    FileId, FileStat, KvStats, KvStore, KvStoreConfig, Mode, OwnerId, Residency, SwapReport,
};
