//! The kernel write-ahead log: crash-tolerant serving state.
//!
//! The KVFS journal makes KV pages durable; this module makes the
//! *kernel* durable — process table, tool side-effects, IPC traffic and
//! pred results — so a mid-run crash costs bounded re-execution instead of
//! every in-flight program. The WAL is a `SYMW` log in the shared format
//! of [`symphony_sim::log`], the same code the KVFS journal (`SYMJ`) runs
//! on: one header layout, frame walk, torn-tail cut and file handle, two
//! tag spaces. This module owns only its tags (32+), their payload codec,
//! the seed in its header, and the checkpoint schedule. Unlike the
//! journal, the WAL has no terminator: any frame boundary is a complete
//! log.
//!
//! # Durability classes
//!
//! Frames split into two classes, and the split is what makes the
//! checkpoint interval a real knob:
//!
//! - **Synchronous** (written through before the effect is observable):
//!   process spawn/exit, tool effects, IPC sends/receives, name lookups
//!   and `now` reads. These are small and must never be lost — a
//!   re-executed LIP that cannot find its tool call in the log would fire
//!   the tool twice.
//! - **Buffered** (written at checkpoints): pred results, which carry
//!   whole token distributions. A crash loses the buffer; the recovered
//!   LIP re-executes those preds on the GPU. Wasted work therefore
//!   scales with the checkpoint interval, which E14 measures.
//!
//! "Written" means handed to the OS with `write(2)`; nothing calls
//! `fsync`. That survives a crash of the kernel process, which is the
//! fault the kernel models, but not power loss.
//!
//! # Recovery model
//!
//! LIPs are closures on OS threads — there is no portable way to
//! snapshot one mid-flight. Recovery instead *re-executes* every
//! unfinished program from its start with the same pid, main tid and
//! per-thread RNG stream, answering every journalled syscall effect from
//! the log (same tool results, same IPC data, same pred distributions —
//! bit-exact via [`Dist::from_normalized_parts`]) so the re-execution
//! deterministically reaches the pre-crash state without re-firing
//! side effects, then falls through to live execution. Sequence numbers
//! per `(pid, effect kind)` key the replay maps.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use symphony_kvfs::KvError;
use symphony_model::Dist;
use symphony_sim::frame::{push_opt_u64, push_str, push_u32, push_u64, Cursor};
use symphony_sim::log::{Format, HeaderError, LogFile, Walk};
use symphony_sim::{SimDuration, SimTime};

use crate::resilience::BreakerStateView;
use crate::types::{ExitStatus, Limits, ProcessUsage, SysError};

/// WAL file magic: "SYMW" (sibling of the KVFS journal's "SYMJ").
pub const WAL_MAGIC: [u8; 4] = *b"SYMW";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Default virtual-time spacing between checkpoints.
pub const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(5);

/// The WAL's log format: no terminator, the kernel seed in the header.
const FORMAT: Format<1> = Format {
    magic: WAL_MAGIC,
    version: WAL_VERSION,
    terminator: &[],
};

const TAG_PROC_SPAWN: u8 = 32;
const TAG_PROC_EXIT: u8 = 33;
const TAG_TOOL_EFFECT: u8 = 34;
const TAG_IPC_SEND: u8 = 35;
const TAG_IPC_RECV: u8 = 36;
const TAG_LOOKUP: u8 = 37;
const TAG_NOW: u8 = 38;
const TAG_PRED_EFFECT: u8 = 39;
const TAG_CHECKPOINT: u8 = 40;
const TAG_PROC_SCHED: u8 = 41;

/// Enables the kernel WAL: where it lives and how often buffered pred
/// frames are checkpointed to disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// WAL file path. Created (truncating any previous log) by
    /// `Kernel::new`; appended to by `Kernel::recover`.
    pub path: PathBuf,
    /// Virtual-time interval between checkpoints. Shorter intervals lose
    /// less pred work to a crash but write more often. A checkpoint hands
    /// the buffered pred frames to the OS (`write(2)`, no `fsync`): they
    /// survive a kernel-process crash, not power loss.
    pub checkpoint_every: SimDuration,
}

impl WalConfig {
    /// A config at the default checkpoint interval.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        WalConfig {
            path: path.into(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Overrides the checkpoint interval.
    pub fn with_checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = every;
        self
    }
}

/// Why a WAL could not be read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// `KernelConfig::wal` is `None` — there is nothing to recover from.
    Disabled,
    /// The file is missing or its header is unusable.
    Unreadable,
    /// Magic/version mismatch, or the log was written under a different
    /// kernel seed (replay would diverge).
    Incompatible,
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Disabled => write!(f, "kernel WAL is not configured"),
            WalError::Unreadable => write!(f, "kernel WAL missing or header unusable"),
            WalError::Incompatible => write!(f, "kernel WAL incompatible (magic/version/seed)"),
        }
    }
}

/// What `Kernel::resume_programs` recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unfinished programs re-admitted for deterministic re-execution.
    pub resumed: usize,
    /// Finished programs restored as records without re-execution.
    pub finished: usize,
    /// Unfinished programs whose image could not be resolved; recorded as
    /// crashed.
    pub lost: usize,
    /// Valid frames read from the log.
    pub frames: u64,
    /// WAL bytes read.
    pub wal_bytes: u64,
    /// Whether a torn tail was truncated.
    pub torn: bool,
    /// The virtual clock restored from the last durable frame.
    pub clock: SimTime,
}

// ---- records ---------------------------------------------------------------

/// One journalled kernel effect. Every payload starts with the virtual
/// time it was recorded at, which recovery uses to restore the clock.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    ProcSpawn {
        at: SimTime,
        pid: u64,
        main_tid: u64,
        durable: bool,
        name: String,
        args: String,
        limits: Limits,
    },
    ProcExit {
        at: SimTime,
        pid: u64,
        status: ExitStatus,
        output: String,
        usage: ProcessUsage,
    },
    ToolEffect {
        at: SimTime,
        pid: u64,
        seq: u64,
        latency_ns: u64,
        fired: bool,
        result: Result<String, SysError>,
    },
    IpcSend {
        at: SimTime,
        from: u64,
        to: u64,
        seq: u64,
        ok: bool,
        delivered: bool,
        data: String,
    },
    IpcRecv {
        at: SimTime,
        pid: u64,
        seq: u64,
        from: u64,
        data: String,
    },
    Lookup {
        at: SimTime,
        pid: u64,
        seq: u64,
        found: Option<u64>,
    },
    NowEffect {
        at: SimTime,
        pid: u64,
        seq: u64,
        t: SimTime,
    },
    PredEffect {
        at: SimTime,
        pid: u64,
        seq: u64,
        dists: Vec<Dist>,
    },
    Checkpoint {
        at: SimTime,
        next_pid: u64,
        next_tid: u64,
        breakers: Vec<(String, BreakerStateView)>,
    },
    /// A program admitted for a *future* arrival. Journalled at schedule
    /// time so a crash before the arrival event fires does not silently
    /// drop the program; superseded by `ProcSpawn` once it starts. The
    /// main tid is pre-assigned at schedule time so the program's
    /// per-thread RNG stream is identical whether or not a crash
    /// intervened before it started.
    ProcSched {
        at: SimTime,
        pid: u64,
        main_tid: u64,
        arrival: SimTime,
        durable: bool,
        name: String,
        args: String,
        limits: Limits,
    },
}

impl WalRecord {
    pub(crate) fn at(&self) -> SimTime {
        match self {
            WalRecord::ProcSpawn { at, .. }
            | WalRecord::ProcExit { at, .. }
            | WalRecord::ToolEffect { at, .. }
            | WalRecord::IpcSend { at, .. }
            | WalRecord::IpcRecv { at, .. }
            | WalRecord::Lookup { at, .. }
            | WalRecord::NowEffect { at, .. }
            | WalRecord::PredEffect { at, .. }
            | WalRecord::Checkpoint { at, .. }
            | WalRecord::ProcSched { at, .. } => *at,
        }
    }
}

// ---- error codecs ----------------------------------------------------------

const KV_ERRORS: &[KvError] = &[
    KvError::NoGpuMemory,
    KvError::NoCpuMemory,
    KvError::NoDiskMemory,
    KvError::NotFound,
    KvError::AlreadyExists,
    KvError::PermissionDenied,
    KvError::Locked,
    KvError::NotLockHolder,
    KvError::QuotaExceeded,
    KvError::BadRange,
    KvError::NotResident,
    KvError::Pinned,
    KvError::EmptyInput,
    KvError::JournalTorn,
    KvError::JournalIncompatible,
];

fn encode_kv_error(e: KvError) -> u8 {
    KV_ERRORS.iter().position(|k| *k == e).unwrap_or(3) as u8
}

fn decode_kv_error(b: u8) -> KvError {
    KV_ERRORS
        .get(b as usize)
        .copied()
        .unwrap_or(KvError::NotFound)
}

/// Re-materialises a `&'static str` error payload. Known kernel constants
/// come back as themselves; anything else is leaked once per distinct
/// string, which is bounded by the (small, fixed) set of payloads the
/// kernel can produce.
fn intern(s: String) -> &'static str {
    for known in [
        "tool",
        "gpu.pred",
        "kv.swap_in",
        "syscalls",
        "pred_tokens",
        "tool_calls",
        "threads",
    ] {
        if s == known {
            return known;
        }
    }
    Box::leak(s.into_boxed_str())
}

fn encode_sys_error(out: &mut Vec<u8>, e: &SysError) {
    let (kind, payload): (u8, &str) = match e {
        SysError::Kv(k) => {
            out.push(0);
            out.push(encode_kv_error(*k));
            push_str(out, "");
            return;
        }
        SysError::NotFound => (1, ""),
        SysError::NoSuchTool(name) => (2, name.as_str()),
        SysError::BadArgument => (3, ""),
        SysError::ThreadFailed => (4, ""),
        SysError::ToolFailed(msg) => (5, msg.as_str()),
        SysError::Timeout => (6, ""),
        SysError::DeadlineExceeded => (7, ""),
        SysError::Unavailable => (8, ""),
        SysError::Busy => (9, ""),
        SysError::Fault(site) => (10, site),
        SysError::LimitExceeded(what) => (11, what),
        SysError::Shutdown => (12, ""),
        SysError::Internal(what) => (13, what),
        SysError::Cancelled => (14, ""),
    };
    out.push(kind);
    out.push(0);
    push_str(out, payload);
}

fn decode_sys_error(c: &mut Cursor<'_>) -> Option<SysError> {
    let kind = c.u8()?;
    let kv = c.u8()?;
    let payload = c.str()?;
    Some(match kind {
        0 => SysError::Kv(decode_kv_error(kv)),
        1 => SysError::NotFound,
        2 => SysError::NoSuchTool(payload),
        3 => SysError::BadArgument,
        4 => SysError::ThreadFailed,
        5 => SysError::ToolFailed(payload),
        6 => SysError::Timeout,
        7 => SysError::DeadlineExceeded,
        8 => SysError::Unavailable,
        9 => SysError::Busy,
        10 => SysError::Fault(intern(payload)),
        11 => SysError::LimitExceeded(intern(payload)),
        12 => SysError::Shutdown,
        13 => SysError::Internal(intern(payload)),
        14 => SysError::Cancelled,
        _ => return None,
    })
}

fn encode_limits(out: &mut Vec<u8>, l: &Limits) {
    push_opt_u64(out, l.max_syscalls);
    push_opt_u64(out, l.max_pred_tokens);
    push_opt_u64(out, l.max_tool_calls);
    push_opt_u64(out, l.max_threads.map(u64::from));
    push_opt_u64(out, l.kv_quota_pages.map(|p| p as u64));
    push_opt_u64(out, l.tool_timeout.map(|d| d.as_nanos()));
    push_opt_u64(out, l.deadline.map(|d| d.as_nanos()));
}

fn decode_limits(c: &mut Cursor<'_>) -> Option<Limits> {
    Some(Limits {
        max_syscalls: c.opt_u64()?,
        max_pred_tokens: c.opt_u64()?,
        max_tool_calls: c.opt_u64()?,
        max_threads: c.opt_u64()?.map(|v| v as u32),
        kv_quota_pages: c.opt_u64()?.map(|v| v as usize),
        tool_timeout: c.opt_u64()?.map(SimDuration::from_nanos),
        deadline: c.opt_u64()?.map(SimDuration::from_nanos),
    })
}

// ---- record codec ----------------------------------------------------------

fn record_tag(rec: &WalRecord) -> u8 {
    match rec {
        WalRecord::ProcSpawn { .. } => TAG_PROC_SPAWN,
        WalRecord::ProcExit { .. } => TAG_PROC_EXIT,
        WalRecord::ToolEffect { .. } => TAG_TOOL_EFFECT,
        WalRecord::IpcSend { .. } => TAG_IPC_SEND,
        WalRecord::IpcRecv { .. } => TAG_IPC_RECV,
        WalRecord::Lookup { .. } => TAG_LOOKUP,
        WalRecord::NowEffect { .. } => TAG_NOW,
        WalRecord::PredEffect { .. } => TAG_PRED_EFFECT,
        WalRecord::Checkpoint { .. } => TAG_CHECKPOINT,
        WalRecord::ProcSched { .. } => TAG_PROC_SCHED,
    }
}

fn encode_payload(rec: &WalRecord, out: &mut Vec<u8>) {
    push_u64(out, rec.at().as_nanos());
    match rec {
        WalRecord::ProcSpawn {
            pid,
            main_tid,
            durable,
            name,
            args,
            limits,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *main_tid);
            out.push(u8::from(*durable));
            push_str(out, name);
            push_str(out, args);
            encode_limits(out, limits);
        }
        WalRecord::ProcExit {
            pid,
            status,
            output,
            usage,
            ..
        } => {
            push_u64(out, *pid);
            match status {
                ExitStatus::Ok => out.push(0),
                ExitStatus::Crashed => out.push(1),
                ExitStatus::Error(e) => {
                    out.push(2);
                    encode_sys_error(out, e);
                }
            }
            push_str(out, output);
            push_u64(out, usage.syscalls);
            push_u64(out, usage.pred_calls);
            push_u64(out, usage.pred_tokens);
            push_u64(out, usage.emitted_tokens);
            push_u64(out, usage.tool_calls);
            push_u32(out, usage.threads_spawned);
        }
        WalRecord::ToolEffect {
            pid,
            seq,
            latency_ns,
            fired,
            result,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            push_u64(out, *latency_ns);
            out.push(u8::from(*fired));
            match result {
                Ok(text) => {
                    out.push(0);
                    push_str(out, text);
                }
                Err(e) => {
                    out.push(1);
                    encode_sys_error(out, e);
                }
            }
        }
        WalRecord::IpcSend {
            from,
            to,
            seq,
            ok,
            delivered,
            data,
            ..
        } => {
            push_u64(out, *from);
            push_u64(out, *to);
            push_u64(out, *seq);
            out.push(u8::from(*ok));
            out.push(u8::from(*delivered));
            push_str(out, data);
        }
        WalRecord::IpcRecv {
            pid,
            seq,
            from,
            data,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            push_u64(out, *from);
            push_str(out, data);
        }
        WalRecord::Lookup {
            pid, seq, found, ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            push_opt_u64(out, *found);
        }
        WalRecord::NowEffect { pid, seq, t, .. } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            push_u64(out, t.as_nanos());
        }
        WalRecord::PredEffect {
            pid, seq, dists, ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *seq);
            push_u32(out, dists.len() as u32);
            for d in dists {
                let entries = d.entries();
                push_u32(out, entries.len() as u32);
                for &(tok, p) in entries {
                    push_u32(out, tok);
                    push_u64(out, p.to_bits());
                }
                push_u64(out, d.tail_mass().to_bits());
                push_u32(out, d.tail_tokens());
            }
        }
        WalRecord::Checkpoint {
            next_pid,
            next_tid,
            breakers,
            ..
        } => {
            push_u64(out, *next_pid);
            push_u64(out, *next_tid);
            push_u32(out, breakers.len() as u32);
            for (tool, state) in breakers {
                push_str(out, tool);
                match state {
                    BreakerStateView::Closed {
                        consecutive_failures,
                    } => {
                        out.push(0);
                        push_u64(out, u64::from(*consecutive_failures));
                    }
                    BreakerStateView::Open { until } => {
                        out.push(1);
                        push_u64(out, until.as_nanos());
                    }
                    BreakerStateView::HalfOpen => {
                        out.push(2);
                        push_u64(out, 0);
                    }
                }
            }
        }
        WalRecord::ProcSched {
            pid,
            main_tid,
            arrival,
            durable,
            name,
            args,
            limits,
            ..
        } => {
            push_u64(out, *pid);
            push_u64(out, *main_tid);
            push_u64(out, arrival.as_nanos());
            out.push(u8::from(*durable));
            push_str(out, name);
            push_str(out, args);
            encode_limits(out, limits);
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let at = SimTime::from_nanos(c.u64()?);
    let rec = match tag {
        TAG_PROC_SPAWN => WalRecord::ProcSpawn {
            at,
            pid: c.u64()?,
            main_tid: c.u64()?,
            durable: c.u8()? != 0,
            name: c.str()?,
            args: c.str()?,
            limits: decode_limits(&mut c)?,
        },
        TAG_PROC_EXIT => {
            let pid = c.u64()?;
            let status = match c.u8()? {
                0 => ExitStatus::Ok,
                1 => ExitStatus::Crashed,
                2 => ExitStatus::Error(decode_sys_error(&mut c)?),
                _ => return None,
            };
            WalRecord::ProcExit {
                at,
                pid,
                status,
                output: c.str()?,
                usage: ProcessUsage {
                    syscalls: c.u64()?,
                    pred_calls: c.u64()?,
                    pred_tokens: c.u64()?,
                    emitted_tokens: c.u64()?,
                    tool_calls: c.u64()?,
                    threads_spawned: c.u32()?,
                },
            }
        }
        TAG_TOOL_EFFECT => {
            let pid = c.u64()?;
            let seq = c.u64()?;
            let latency_ns = c.u64()?;
            let fired = c.u8()? != 0;
            let result = match c.u8()? {
                0 => Ok(c.str()?),
                1 => Err(decode_sys_error(&mut c)?),
                _ => return None,
            };
            WalRecord::ToolEffect {
                at,
                pid,
                seq,
                latency_ns,
                fired,
                result,
            }
        }
        TAG_IPC_SEND => WalRecord::IpcSend {
            at,
            from: c.u64()?,
            to: c.u64()?,
            seq: c.u64()?,
            ok: c.u8()? != 0,
            delivered: c.u8()? != 0,
            data: c.str()?,
        },
        TAG_IPC_RECV => WalRecord::IpcRecv {
            at,
            pid: c.u64()?,
            seq: c.u64()?,
            from: c.u64()?,
            data: c.str()?,
        },
        TAG_LOOKUP => WalRecord::Lookup {
            at,
            pid: c.u64()?,
            seq: c.u64()?,
            found: c.opt_u64()?,
        },
        TAG_NOW => WalRecord::NowEffect {
            at,
            pid: c.u64()?,
            seq: c.u64()?,
            t: SimTime::from_nanos(c.u64()?),
        },
        TAG_PRED_EFFECT => {
            let pid = c.u64()?;
            let seq = c.u64()?;
            let n = c.u32()? as usize;
            let mut dists = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                let ne = c.u32()? as usize;
                let mut entries = Vec::with_capacity(ne.min(payload.len()));
                for _ in 0..ne {
                    let tok = c.u32()?;
                    let p = f64::from_bits(c.u64()?);
                    if !p.is_finite() || p < 0.0 {
                        return None;
                    }
                    entries.push((tok, p));
                }
                let tail_mass = f64::from_bits(c.u64()?);
                let tail_tokens = c.u32()?;
                if entries.is_empty() || !tail_mass.is_finite() || tail_mass < 0.0 {
                    return None;
                }
                let total: f64 = entries.iter().map(|e| e.1).sum::<f64>() + tail_mass;
                if (total - 1.0).abs() >= 1e-6 {
                    return None;
                }
                for w in entries.windows(2) {
                    if !(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)) {
                        return None;
                    }
                }
                dists.push(Dist::from_normalized_parts(entries, tail_mass, tail_tokens));
            }
            WalRecord::PredEffect {
                at,
                pid,
                seq,
                dists,
            }
        }
        TAG_CHECKPOINT => {
            let next_pid = c.u64()?;
            let next_tid = c.u64()?;
            let n = c.u32()? as usize;
            let mut breakers = Vec::with_capacity(n.min(payload.len()));
            for _ in 0..n {
                let tool = c.str()?;
                let kind = c.u8()?;
                let value = c.u64()?;
                let state = match kind {
                    0 => BreakerStateView::Closed {
                        consecutive_failures: value as u32,
                    },
                    1 => BreakerStateView::Open {
                        until: SimTime::from_nanos(value),
                    },
                    2 => BreakerStateView::HalfOpen,
                    _ => return None,
                };
                breakers.push((tool, state));
            }
            WalRecord::Checkpoint {
                at,
                next_pid,
                next_tid,
                breakers,
            }
        }
        TAG_PROC_SCHED => WalRecord::ProcSched {
            at,
            pid: c.u64()?,
            main_tid: c.u64()?,
            arrival: SimTime::from_nanos(c.u64()?),
            durable: c.u8()? != 0,
            name: c.str()?,
            args: c.str()?,
            limits: decode_limits(&mut c)?,
        },
        _ => return None,
    };
    c.done().then_some(rec)
}

/// Human-readable name for a WAL frame tag (unknown tags are possible in
/// logs written by newer kernels).
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_PROC_SPAWN => "proc_spawn",
        TAG_PROC_EXIT => "proc_exit",
        TAG_TOOL_EFFECT => "tool_effect",
        TAG_IPC_SEND => "ipc_send",
        TAG_IPC_RECV => "ipc_recv",
        TAG_LOOKUP => "lookup",
        TAG_NOW => "now",
        TAG_PRED_EFFECT => "pred_effect",
        TAG_CHECKPOINT => "checkpoint",
        TAG_PROC_SCHED => "proc_sched",
        _ => "unknown",
    }
}

/// Parses WAL bytes and counts valid frames per tag — the journal-growth
/// observability hook `exp_recovery` reports, answering "what is this log
/// made of" without replaying it. Each record is decoded and dropped, so
/// counting keeps no more than one record in memory.
pub fn frame_counts(bytes: &[u8]) -> Result<BTreeMap<&'static str, u64>, WalError> {
    let mut counts = BTreeMap::new();
    walk_wal(bytes, |rec| {
        *counts.entry(tag_name(record_tag(&rec))).or_insert(0u64) += 1;
    })?;
    Ok(counts)
}

fn encode(rec: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload(rec, &mut payload);
    payload
}

/// Checks the header, then decodes the longest valid record prefix frame
/// by frame, borrowing each payload from `bytes` and handing each record
/// to `visit`. The walk's one header field is the writing kernel's seed;
/// its length is where to reopen the file for appending. An unknown tag or
/// malformed payload ends the valid prefix exactly like a torn frame —
/// forward-compatible and crash-safe in the same code path.
pub(crate) fn walk_wal(bytes: &[u8], mut visit: impl FnMut(WalRecord)) -> Result<Walk<1>, WalError> {
    FORMAT
        .walk(bytes, |tag, payload| {
            decode_payload(tag, payload).map(&mut visit).is_some()
        })
        .map_err(|e| match e {
            HeaderError::Incompatible => WalError::Incompatible,
            HeaderError::Short | HeaderError::Corrupt => WalError::Unreadable,
        })
}

// ---- writer ----------------------------------------------------------------

/// The kernel's open WAL: the shared log handle plus the checkpoint
/// schedule. Synchronous frames are written as they come; buffered pred
/// frames wait in the handle until a checkpoint.
#[derive(Debug)]
pub(crate) struct WalState {
    log: LogFile,
    /// Checkpoint spacing on the virtual clock.
    pub(crate) checkpoint_every: SimDuration,
    /// Next checkpoint due at this virtual time.
    pub(crate) next_checkpoint_at: SimTime,
}

impl WalState {
    /// Creates (truncating) the WAL for a fresh kernel.
    pub(crate) fn create(config: &WalConfig, seed: u64) -> std::io::Result<Self> {
        let log = LogFile::create(&config.path, &FORMAT.header([seed]), FORMAT.terminator)?;
        Ok(Self::with_log(log, config, SimTime::ZERO))
    }

    /// Opens the WAL for appending after recovery. `durable_len` is how
    /// many bytes of the existing file were valid; a torn tail past it is
    /// truncated so new frames land on a clean boundary.
    pub(crate) fn open_append(
        config: &WalConfig,
        durable_len: u64,
        clock: SimTime,
    ) -> std::io::Result<Self> {
        let log = LogFile::open(&config.path, durable_len, FORMAT.terminator)?;
        Ok(Self::with_log(log, config, clock))
    }

    fn with_log(log: LogFile, config: &WalConfig, clock: SimTime) -> Self {
        // A zero interval would make the checkpoint catch-up loop spin.
        let every = config.checkpoint_every.max(SimDuration::from_nanos(1));
        WalState {
            log,
            checkpoint_every: every,
            next_checkpoint_at: clock + every,
        }
    }

    /// Writes one synchronous frame through, ahead of buffered pred frames.
    pub(crate) fn append_sync(&mut self, rec: &WalRecord) -> std::io::Result<()> {
        self.log.append(record_tag(rec), &encode(rec))
    }

    /// Buffers one pred frame for the next checkpoint.
    pub(crate) fn buffer_pred(&mut self, rec: &WalRecord) {
        self.log.buffer(record_tag(rec), &encode(rec));
    }

    /// Writes the buffered pred frames and the checkpoint frame. Returns
    /// the number of frames written.
    pub(crate) fn checkpoint(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        self.buffer_pred(rec);
        self.log.flush()
    }

    /// An injected crash: the buffered pred frames are lost.
    pub(crate) fn crash(&mut self) {
        self.log.drop_buffer();
    }

    /// Bytes written to the file, header included (the buffer excluded).
    pub(crate) fn bytes_written(&self) -> u64 {
        self.log.durable_len()
    }
}

// ---- replay state ----------------------------------------------------------

/// One journalled process, assembled from its spawn (and maybe exit)
/// frames.
#[derive(Debug, Clone)]
pub(crate) struct ReplayProc {
    pub(crate) name: String,
    pub(crate) args: String,
    pub(crate) spawned_at: SimTime,
    pub(crate) main_tid: u64,
    pub(crate) limits: Limits,
    pub(crate) durable: bool,
    pub(crate) exit: Option<ReplayExit>,
}

/// A journalled process exit.
#[derive(Debug, Clone)]
pub(crate) struct ReplayExit {
    pub(crate) at: SimTime,
    pub(crate) status: ExitStatus,
    pub(crate) output: String,
    pub(crate) usage: ProcessUsage,
}

/// A program journalled as scheduled but (per the log) never started.
#[derive(Debug, Clone)]
pub(crate) struct ReplaySched {
    pub(crate) name: String,
    pub(crate) args: String,
    pub(crate) main_tid: u64,
    pub(crate) arrival: SimTime,
    pub(crate) limits: Limits,
    pub(crate) durable: bool,
}

/// A journalled whole-tool-call outcome.
#[derive(Debug, Clone)]
pub(crate) struct ToolOutcomeRec {
    pub(crate) latency_ns: u64,
    pub(crate) result: Result<String, SysError>,
}

/// A journalled IPC send, kept in journal (= delivery) order for mailbox
/// reconstruction.
#[derive(Debug, Clone)]
pub(crate) struct SendRec {
    pub(crate) to: u64,
    pub(crate) delivered: bool,
    pub(crate) data: String,
    pub(crate) from: u64,
}

/// Everything recovery needs, keyed for O(log n) replay hits.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    pub(crate) clock: SimTime,
    pub(crate) next_pid: u64,
    pub(crate) next_tid: u64,
    pub(crate) procs: BTreeMap<u64, ReplayProc>,
    /// Scheduled-but-never-started programs (no `ProcSpawn` frame).
    pub(crate) scheduled: BTreeMap<u64, ReplaySched>,
    pub(crate) tools: BTreeMap<(u64, u64), ToolOutcomeRec>,
    /// `(from, seq)` → whether the send succeeded (suppresses re-sends).
    pub(crate) send_results: BTreeMap<(u64, u64), bool>,
    /// Successful sends in journal order (mailbox reconstruction).
    pub(crate) sends: Vec<SendRec>,
    pub(crate) recvs: BTreeMap<(u64, u64), (u64, String)>,
    pub(crate) lookups: BTreeMap<(u64, u64), Option<u64>>,
    pub(crate) nows: BTreeMap<(u64, u64), SimTime>,
    pub(crate) preds: BTreeMap<(u64, u64), Vec<Dist>>,
    pub(crate) breakers: Vec<(String, BreakerStateView)>,
    pub(crate) frames: u64,
    pub(crate) wal_bytes: u64,
    pub(crate) torn: bool,
    /// `(from, seq)` of every send already in `sends`.
    send_keys_seen: BTreeSet<(u64, u64)>,
}

impl Replay {
    /// Count of journalled recvs per receiver, used to skip the consumed
    /// prefix when rebuilding mailboxes.
    pub(crate) fn recv_counts(&self) -> BTreeMap<u64, usize> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for &(pid, _) in self.recvs.keys() {
            *counts.entry(pid).or_default() += 1;
        }
        counts
    }

    /// Folds one record into the replay maps, in log order. Re-journalled
    /// frames from a previous recovery are idempotent: later frames for
    /// the same key simply overwrite identical content.
    pub(crate) fn fold(&mut self, rec: WalRecord) {
        self.frames += 1;
        self.clock = self.clock.max(rec.at());
        match rec {
            WalRecord::ProcSpawn {
                at,
                pid,
                main_tid,
                durable,
                name,
                args,
                limits,
            } => {
                self.next_pid = self.next_pid.max(pid + 1);
                self.next_tid = self.next_tid.max(main_tid + 1);
                self.procs.entry(pid).or_insert(ReplayProc {
                    name,
                    args,
                    spawned_at: at,
                    main_tid,
                    limits,
                    durable,
                    exit: None,
                });
            }
            WalRecord::ProcExit {
                at,
                pid,
                status,
                output,
                usage,
            } => {
                if let Some(p) = self.procs.get_mut(&pid) {
                    p.exit = Some(ReplayExit {
                        at,
                        status,
                        output,
                        usage,
                    });
                }
            }
            WalRecord::ToolEffect {
                pid,
                seq,
                latency_ns,
                result,
                ..
            } => {
                self.tools
                    .insert((pid, seq), ToolOutcomeRec { latency_ns, result });
            }
            WalRecord::IpcSend {
                from,
                to,
                seq,
                ok,
                delivered,
                data,
                ..
            } => {
                self.send_results.insert((from, seq), ok);
                // Journal order is delivery order; only first sight counts
                // (a recovered run re-journals nothing, but belt and braces).
                if ok && delivered && self.send_keys_seen.insert((from, seq)) {
                    self.sends.push(SendRec {
                        to,
                        delivered,
                        data,
                        from,
                    });
                }
            }
            WalRecord::IpcRecv {
                pid,
                seq,
                from,
                data,
                ..
            } => {
                self.recvs.insert((pid, seq), (from, data));
            }
            WalRecord::Lookup {
                pid, seq, found, ..
            } => {
                self.lookups.insert((pid, seq), found);
            }
            WalRecord::NowEffect { pid, seq, t, .. } => {
                self.nows.insert((pid, seq), t);
            }
            WalRecord::PredEffect {
                pid, seq, dists, ..
            } => {
                self.preds.insert((pid, seq), dists);
            }
            WalRecord::Checkpoint {
                next_pid,
                next_tid,
                breakers,
                ..
            } => {
                self.next_pid = self.next_pid.max(next_pid);
                self.next_tid = self.next_tid.max(next_tid);
                self.breakers = breakers;
            }
            WalRecord::ProcSched {
                pid,
                main_tid,
                arrival,
                durable,
                name,
                args,
                limits,
                ..
            } => {
                self.next_pid = self.next_pid.max(pid + 1);
                self.next_tid = self.next_tid.max(main_tid + 1);
                self.scheduled.entry(pid).or_insert(ReplaySched {
                    name,
                    args,
                    main_tid,
                    arrival,
                    limits,
                    durable,
                });
            }
        }
    }

    /// Ends the fold once the walk has covered `wal_bytes` of the log.
    pub(crate) fn finish(&mut self, wal_bytes: u64, torn: bool) {
        self.wal_bytes = wal_bytes;
        self.torn = torn;
        // A spawn frame supersedes the schedule frame for the same pid.
        let procs = &self.procs;
        self.scheduled.retain(|pid, _| !procs.contains_key(pid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_sim::frame::{append_frame, FRAME_OVERHEAD};

    const HEADER_LEN: usize = Format::<1>::HEADER_LEN;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::ProcSpawn {
                at: SimTime::from_nanos(10),
                pid: 1,
                main_tid: 7,
                durable: true,
                name: "agent0".into(),
                args: "x=1".into(),
                limits: Limits {
                    max_syscalls: Some(100),
                    deadline: Some(SimDuration::from_millis(5)),
                    ..Limits::default()
                },
            },
            WalRecord::ToolEffect {
                at: SimTime::from_nanos(20),
                pid: 1,
                seq: 0,
                latency_ns: 1_000_000,
                fired: true,
                result: Ok("searched: q".into()),
            },
            WalRecord::ToolEffect {
                at: SimTime::from_nanos(25),
                pid: 1,
                seq: 1,
                latency_ns: 500,
                fired: false,
                result: Err(SysError::Timeout),
            },
            WalRecord::IpcSend {
                at: SimTime::from_nanos(30),
                from: 1,
                to: 2,
                seq: 0,
                ok: true,
                delivered: true,
                data: "hello".into(),
            },
            WalRecord::IpcRecv {
                at: SimTime::from_nanos(31),
                pid: 2,
                seq: 0,
                from: 1,
                data: "hello".into(),
            },
            WalRecord::Lookup {
                at: SimTime::from_nanos(32),
                pid: 1,
                seq: 0,
                found: Some(2),
            },
            WalRecord::NowEffect {
                at: SimTime::from_nanos(33),
                pid: 1,
                seq: 0,
                t: SimTime::from_nanos(33),
            },
            WalRecord::PredEffect {
                at: SimTime::from_nanos(40),
                pid: 1,
                seq: 0,
                dists: vec![Dist::from_weights(vec![(3, 2.0), (9, 1.0)], 1.0, 64)],
            },
            WalRecord::Checkpoint {
                at: SimTime::from_nanos(50),
                next_pid: 3,
                next_tid: 9,
                breakers: vec![
                    (
                        "search".into(),
                        BreakerStateView::Closed {
                            consecutive_failures: 2,
                        },
                    ),
                    (
                        "flaky".into(),
                        BreakerStateView::Open {
                            until: SimTime::from_nanos(99),
                        },
                    ),
                ],
            },
            WalRecord::ProcExit {
                at: SimTime::from_nanos(60),
                pid: 1,
                status: ExitStatus::Error(SysError::Fault("tool")),
                output: "partial".into(),
                usage: ProcessUsage {
                    syscalls: 12,
                    pred_calls: 1,
                    pred_tokens: 4,
                    emitted_tokens: 2,
                    tool_calls: 2,
                    threads_spawned: 1,
                },
            },
            WalRecord::ProcSched {
                at: SimTime::from_nanos(61),
                pid: 4,
                main_tid: 11,
                arrival: SimTime::from_nanos(900),
                durable: true,
                name: "late-agent".into(),
                args: "y=2".into(),
                limits: Limits::default(),
            },
        ]
    }

    fn wal_bytes(records: &[WalRecord], seed: u64) -> Vec<u8> {
        let mut buf = FORMAT.header([seed]);
        for r in records {
            append_frame(&mut buf, record_tag(r), &encode(r));
        }
        buf
    }

    /// Every record the walk visits, and the walk.
    fn read(bytes: &[u8]) -> Result<(Vec<WalRecord>, Walk<1>), WalError> {
        let mut records = Vec::new();
        let walk = walk_wal(bytes, |rec| records.push(rec))?;
        Ok((records, walk))
    }

    #[test]
    fn round_trips_every_record_type() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 42);
        let (back, walk) = read(&bytes).unwrap();
        assert_eq!(walk.fields, [42]);
        assert_eq!(walk.len, bytes.len() as u64);
        assert!(!walk.torn);
        assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            match (a, b) {
                // Dist has no PartialEq on purpose-equal float compare; the
                // pred record is checked field-by-field below.
                (WalRecord::PredEffect { .. }, WalRecord::PredEffect { .. }) => {}
                _ => assert_eq!(a, b),
            }
        }
        let (WalRecord::PredEffect { dists: orig, .. }, WalRecord::PredEffect { dists: got, .. }) =
            (&recs[7], &back[7])
        else {
            panic!("expected pred records at index 7");
        };
        assert_eq!(orig.len(), got.len());
        assert_eq!(orig[0].entries(), got[0].entries());
        assert_eq!(orig[0].tail_mass().to_bits(), got[0].tail_mass().to_bits());
        assert_eq!(orig[0].tail_tokens(), got[0].tail_tokens());
    }

    #[test]
    fn truncation_at_every_byte_keeps_valid_prefix() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 7);
        // Frame boundaries: cutting exactly there is a clean (un-torn) log.
        let mut boundaries = vec![HEADER_LEN];
        let mut off = HEADER_LEN;
        for r in &recs {
            off += FRAME_OVERHEAD + encode(r).len();
            boundaries.push(off);
        }
        for cut in HEADER_LEN..bytes.len() {
            let (prefix, walk) = read(&bytes[..cut]).unwrap();
            assert_eq!(walk.fields, [7]);
            let on_boundary = boundaries.contains(&cut);
            assert_eq!(walk.torn, !on_boundary, "cut at {cut}");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(prefix.len(), whole, "cut at {cut}");
            let last_boundary = boundaries.iter().filter(|&&b| b <= cut).max().unwrap();
            assert_eq!(walk.len, *last_boundary as u64, "cut at {cut}");
            assert_eq!(
                frame_counts(&bytes[..cut]),
                Ok(counts_of(&prefix)),
                "cut at {cut}"
            );
        }
        // Cuts inside the header are unreadable, not torn.
        for cut in 0..HEADER_LEN {
            assert_eq!(read(&bytes[..cut]), Err(WalError::Unreadable));
            assert_eq!(frame_counts(&bytes[..cut]), Err(WalError::Unreadable));
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = wal_bytes(&[], 1);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(read(&wrong_magic), Err(WalError::Incompatible));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(read(&wrong_version), Err(WalError::Incompatible));
        let mut bad_crc = bytes;
        bad_crc[9] ^= 0xff;
        assert_eq!(read(&bad_crc), Err(WalError::Unreadable));
    }

    #[test]
    fn unknown_tag_truncates_like_a_tear() {
        let mut bytes = wal_bytes(&sample_records()[..2], 3);
        append_frame(&mut bytes, 250, b"future record type");
        let (records, walk) = read(&bytes).unwrap();
        assert_eq!(records.len(), 2);
        assert!(walk.len < bytes.len() as u64);
        assert!(walk.torn);
        assert_eq!(frame_counts(&bytes), Ok(counts_of(&records)));
    }

    /// Per-tag record counts, the way `frame_counts` reports them.
    fn counts_of(records: &[WalRecord]) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for rec in records {
            *counts.entry(tag_name(record_tag(rec))).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn replay_maps_key_by_pid_and_seq() {
        let recs = sample_records();
        let bytes = wal_bytes(&recs, 5);
        let mut r = Replay::default();
        let walk = walk_wal(&bytes, |rec| r.fold(rec)).unwrap();
        r.finish(walk.len, walk.torn);
        assert_eq!((r.frames, r.wal_bytes), (recs.len() as u64, bytes.len() as u64));
        assert_eq!(r.clock, SimTime::from_nanos(61));
        assert_eq!(r.next_pid, 5);
        assert_eq!(r.procs.len(), 1);
        assert!(r.procs[&1].exit.is_some());
        assert!(r.tools.contains_key(&(1, 0)));
        assert!(matches!(r.tools[&(1, 1)].result, Err(SysError::Timeout)));
        assert!(r.send_results[&(1, 0)]);
        assert_eq!(r.sends.len(), 1);
        assert_eq!(r.recvs[&(2, 0)], (1, "hello".into()));
        assert_eq!(r.lookups[&(1, 0)], Some(2));
        assert_eq!(r.nows[&(1, 0)], SimTime::from_nanos(33));
        assert_eq!(r.preds[&(1, 0)].len(), 1);
        assert_eq!(r.breakers.len(), 2);
        assert_eq!(r.recv_counts()[&2], 1);
        assert_eq!(r.scheduled.len(), 1);
        assert_eq!(r.scheduled[&4].arrival, SimTime::from_nanos(900));
        assert_eq!(r.scheduled[&4].main_tid, 11);
        assert_eq!(r.next_tid, 12, "sched main tid raises the tid floor");
    }

    #[test]
    fn sys_error_round_trip_covers_static_payloads() {
        let errors = [
            SysError::Kv(KvError::QuotaExceeded),
            SysError::NoSuchTool("webs".into()),
            SysError::ToolFailed("500".into()),
            SysError::Fault("gpu.pred"),
            SysError::LimitExceeded("pred_tokens"),
            SysError::Internal("some invariant"),
            SysError::Busy,
        ];
        for e in errors {
            let mut buf = Vec::new();
            encode_sys_error(&mut buf, &e);
            let mut c = Cursor::new(&buf);
            assert_eq!(decode_sys_error(&mut c).unwrap(), e);
            assert!(c.done());
        }
    }

    #[test]
    fn wal_state_buffers_preds_until_checkpoint() {
        let dir = std::env::temp_dir().join(format!("symwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.wal");
        let cfg = WalConfig::new(&path);
        let mut w = WalState::create(&cfg, 9).unwrap();
        w.append_sync(&sample_records()[0]).unwrap();
        w.buffer_pred(&sample_records()[7]);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(w.bytes_written(), on_disk.len() as u64);
        let (recs, _) = read(&on_disk).unwrap();
        assert_eq!(recs.len(), 1, "pred not durable before checkpoint");
        let flushed = w
            .checkpoint(&WalRecord::Checkpoint {
                at: SimTime::from_nanos(99),
                next_pid: 2,
                next_tid: 2,
                breakers: vec![],
            })
            .unwrap();
        assert_eq!(flushed, 2);
        let on_disk = std::fs::read(&path).unwrap();
        let (recs, walk) = read(&on_disk).unwrap();
        assert!(!walk.torn);
        assert_eq!(recs.len(), 3, "spawn + pred + checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }
}
