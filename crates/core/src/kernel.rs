//! The Symphony kernel: process table, event loop, syscall dispatch, the
//! two-level scheduler, and I/O with KV offload.
//!
//! # Determinism
//!
//! LIPs run on real OS threads, but the kernel is the only scheduler: it
//! delivers one reply, then blocks until *that* thread's next syscall (or
//! exit) arrives before touching anything else. Combined with the virtual
//! clock and seeded RNG streams, a whole serving run replays bit-identically
//! — the integration tests compare the recorded telemetry event streams of
//! same-seed runs for equality.
//!
//! # Events
//!
//! The telemetry bus is the kernel's only event record. With
//! [`KernelConfig::telemetry`] on it records every event, causal edges
//! included; with it off no event is constructed at all.
//!
//! # Process lifecycle
//!
//! A pid enters the process table in one function, `Kernel::admit`. Every
//! public spawn and schedule call goes through it, and so does every
//! recovery path: re-execution, a re-scheduled arrival, a restored exit and
//! a lost image. `Proc::durable` is the only record of whether a process
//! journals its effects. A process's last thread exit runs
//! `finalize_process`. The structures keyed by pid or tid, and when each
//! entry goes away:
//!
//! - `records`: a `ProcessRecord` per admitted pid, kept after exit as the
//!   history behind [`Kernel::records`]. Never pruned.
//! - `procs`: a `Proc` per pid admitted live, marked `finished` at
//!   finalize. Never removed.
//! - `names`: name → unfinished pids. A pid is inserted at admission and
//!   removed at finalize; `lookup_process` answers the highest.
//! - `threads`: a `ThreadState` per tid, kept after exit so `join` can
//!   read the status. Never removed.
//! - `cqueue` hints: per-pid MLFQ service and static cost hints, dropped
//!   at finalize.
//! - store quotas: one per pid admitted with `Limits::kv_quota_pages`.
//!   Never removed.
//! - pending `DeadlineCheck` events: one per pid with a deadline, queued
//!   at admission. It stays in the event queue until it fires, and does
//!   nothing once the process has finished.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use std::sync::mpsc::{channel, Receiver, Sender};
use symphony_gpu::{DeviceSpec, ExecError, GpuExecutor, GpuMetrics, PredRequest, PredResult};
use symphony_kvfs::{
    FileId, KvError, KvStats, KvStore, KvStoreConfig, Mode, OwnerId, Residency, RestoreReport,
    SwapReport,
};
use symphony_model::surrogate::VocabInfo;
use symphony_model::{Dist, ModelConfig, Surrogate, TokenId};
use symphony_sim::{EventQueue, IdSlab, RetryPolicy, Rng, SimDuration, SimTime};
use symphony_telemetry::{
    export_chrome_trace, export_chrome_trace_with_flows, latency_bounds_ns, percent_bounds,
    Collector, Counter, EdgeKind, EventBus, EventKind, Gauge, Histogram, MetricsRegistry,
    MetricsSnapshot, SwapDir, TimedEvent,
};
use symphony_tokenizer::Bpe;

use crate::faults::{FaultInjector, FaultPlan, FaultStats, ToolFaultKind};
use crate::resilience::{
    AdmissionPolicy, BreakerBank, BreakerPolicy, BreakerVerdict, ResilienceCounters,
    ResilienceStats,
};
use crate::sched::{
    BatchPolicy, ContinuousConfig, Decision, ExecMode, InferScheduler, ProgramQueue,
};
use crate::syscall::{thread_main, Ctx, LipFn, SysReply, Syscall, UpCall};
use crate::tools::{ToolOutcome, ToolRegistry, ToolSpec};
use crate::types::{ExitStatus, Limits, Pid, ProcessRecord, ProcessUsage, SysError, Tid};
use crate::wal::{self, RecoveryReport, WalConfig, WalError, WalRecord, WalState};

/// A re-constructible program body for crash recovery. Unlike the plain
/// `FnOnce` closures accepted by [`Kernel::spawn_process`], an image can be
/// invoked again after a kernel crash, so [`Kernel::resume_programs`] can
/// re-execute the program deterministically from its start while answering
/// journalled syscall effects from the WAL.
pub type ProgramImage = Arc<dyn Fn(&mut Ctx) -> Result<(), SysError> + Send + Sync + 'static>;

/// Kernel construction parameters.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Served model shape (drives cost and KV footprint).
    pub model: ModelConfig,
    /// Seed of the surrogate model's behaviour.
    pub model_seed: u64,
    /// Simulated accelerator.
    pub device: DeviceSpec,
    /// Batch inference scheduling policy (§4.4). Only consulted in
    /// [`ExecMode::Static`]; the continuous executor admits at iteration
    /// boundaries instead of closing pool snapshots.
    pub batch_policy: BatchPolicy,
    /// How the GPU loop forms batches: run-to-completion snapshots
    /// ([`ExecMode::Static`]) or iteration-level continuous batching with
    /// chunked prefill and KVFS preemption ([`ExecMode::Continuous`]).
    pub exec: ExecMode,
    /// Global cap on requests per GPU batch.
    pub max_batch: usize,
    /// Tokens per KVFS page.
    pub page_tokens: usize,
    /// Host-memory KV swap space in bytes.
    pub cpu_swap_bytes: u64,
    /// NVMe disk-tier KV spill space in bytes. Zero disables the disk tier:
    /// DRAM exhaustion surfaces as `NoCpuMemory` exactly as before.
    pub disk_swap_bytes: u64,
    /// Restore the KV store from this journal at boot when the file exists
    /// (warm restart); [`Kernel::persist_kv`] writes it at shutdown.
    pub journal_path: Option<std::path::PathBuf>,
    /// Overrides the device-derived GPU KV budget (tests use tiny pools).
    pub gpu_kv_bytes_override: Option<u64>,
    /// Virtual CPU cost charged per system call.
    pub syscall_cost: SimDuration,
    /// Offload a process's KV files to host memory while it waits on I/O.
    pub offload_on_io_wait: bool,
    /// Only offload for tool calls at least this slow.
    pub offload_min_latency: SimDuration,
    /// Kernel RNG seed (tool latencies, LIP thread RNG streams).
    pub seed: u64,
    /// Default per-process limits.
    pub default_limits: Limits,
    /// Record typed telemetry events, causal edges (spawn/IPC/join/tool/
    /// preempt, per-batch pred executions, replay hits) included, so the
    /// stream exports to Chrome traces and rebuilds into per-program span
    /// DAGs (`symphony_telemetry::TraceForest`). When `false` (the default)
    /// the event bus is a no-op: no event is ever constructed.
    pub telemetry: bool,
    /// Cap on events retained by the telemetry bus; beyond it, emissions
    /// are dropped and counted under `telemetry.events_dropped`. `None`
    /// (the default) keeps everything.
    pub telemetry_capacity: Option<usize>,
    /// Fault-injection plan (all-zero = no faults, no extra RNG draws).
    pub faults: FaultPlan,
    /// Kernel-wide tool retry policy; a [`ToolSpec::with_retry`] overrides
    /// it per tool. `None` means one attempt.
    pub tool_retry: Option<RetryPolicy>,
    /// Per-tool circuit breaker; `None` disables breaking.
    pub breaker: Option<BreakerPolicy>,
    /// `pred` admission control under KV-pool pressure; `None` disables
    /// shedding and requeueing (KV exhaustion surfaces as `Kv(NoGpuMemory)`).
    pub admission: Option<AdmissionPolicy>,
    /// Kernel write-ahead log for crash tolerance; `None` disables
    /// journalling (and [`Kernel::recover`] fails with
    /// [`WalError::Disabled`]).
    pub wal: Option<WalConfig>,
}

impl KernelConfig {
    /// Small, fast configuration for unit tests: tiny model, test device,
    /// immediate batching, zero syscall cost.
    pub fn for_tests() -> Self {
        KernelConfig {
            model: ModelConfig::tiny(),
            model_seed: 7,
            device: DeviceSpec::test_device(),
            batch_policy: BatchPolicy::Immediate,
            exec: ExecMode::Static,
            max_batch: 64,
            page_tokens: 4,
            cpu_swap_bytes: 4_000_000,
            // No disk tier in tests by default: golden traces and capacity
            // assertions depend on the two-tier behaviour.
            disk_swap_bytes: 0,
            journal_path: None,
            gpu_kv_bytes_override: None,
            syscall_cost: SimDuration::ZERO,
            offload_on_io_wait: false,
            offload_min_latency: SimDuration::from_millis(10),
            seed: 42,
            default_limits: Limits::default(),
            telemetry: false,
            telemetry_capacity: None,
            faults: FaultPlan::none(),
            tool_retry: None,
            breaker: None,
            admission: None,
            wal: None,
        }
    }

    /// The paper's evaluation setup: Llama-13B on an A100-80G with adaptive
    /// batching.
    pub fn paper_setup() -> Self {
        KernelConfig {
            model: ModelConfig::llama_13b(),
            model_seed: 13,
            device: DeviceSpec::a100_80g(),
            batch_policy: BatchPolicy::Adaptive {
                target_batch: 16,
                max_wait: SimDuration::from_millis(10),
            },
            exec: ExecMode::Static,
            max_batch: 64,
            page_tokens: 16,
            cpu_swap_bytes: 256_000_000_000,
            disk_swap_bytes: 1_000_000_000_000,
            journal_path: None,
            gpu_kv_bytes_override: None,
            syscall_cost: SimDuration::from_micros(2),
            offload_on_io_wait: true,
            offload_min_latency: SimDuration::from_millis(20),
            seed: 42,
            default_limits: Limits::default(),
            telemetry: false,
            telemetry_capacity: None,
            faults: FaultPlan::none(),
            tool_retry: None,
            breaker: None,
            admission: None,
            wal: None,
        }
    }
}

/// Kernel events on the virtual clock.
enum Event {
    /// Deliver a reply to a parked thread.
    Resume(Tid, SysReply),
    /// A GPU batch finished.
    BatchDone { batch_id: u64 },
    /// An I/O (tool) completion. `issued_at` is when the call entered the
    /// kernel (the causal tool edge's source time).
    IoDone {
        tid: Tid,
        result: Result<String, SysError>,
        issued_at: SimTime,
    },
    /// Re-evaluate the batch scheduler.
    BatchTimer,
    /// A scheduled program arrival. `main_tid` is pre-assigned for durable
    /// programs so their per-thread RNG stream survives a crash before the
    /// arrival fires.
    SpawnProgram {
        pid: Pid,
        args: String,
        f: LipFn,
        main_tid: Option<Tid>,
    },
    /// A process's wall-clock deadline passed: fail its blocked receivers.
    DeadlineCheck { pid: Pid },
    /// Re-pool a `pred` that was backed off after KV-pool exhaustion.
    RequeuePred { pred: PendingPred },
}

struct ThreadState {
    pid: Pid,
    reply_tx: Sender<SysReply>,
    handle: Option<crate::lip_pool::JobHandle>,
    status: Option<ExitStatus>,
    join_waiters: Vec<Tid>,
    /// Name of the syscall this thread is currently parked in, for the
    /// telemetry `sys:*` span (closed when the reply is delivered).
    open_syscall: Option<&'static str>,
}

/// Per-process monotone sequence numbers for journalled syscall effects.
/// Each effectful syscall class draws the next id from its own stream; on
/// recovery the re-executed program draws the same ids in the same order,
/// which is how WAL records are matched back to their call sites (and how
/// tool side-effects are deduplicated).
#[derive(Debug, Clone, Copy, Default)]
struct EffectSeqs {
    tool: u64,
    send: u64,
    recv: u64,
    lookup: u64,
    now: u64,
    pred: u64,
}

struct Proc {
    main_tid: Tid,
    args: String,
    live_threads: u32,
    /// Undelivered messages: `(sender, payload, sent_at, sender_tid)`. The
    /// send context feeds the causal IPC edge when a later `recv` pops the
    /// entry; `sender_tid` 0 marks a mailbox rebuilt from the WAL (the
    /// pre-crash sender thread is unknown, so no edge is emitted).
    mailbox: VecDeque<(Pid, String, SimTime, u64)>,
    /// Threads parked in `recv`, with the effect-sequence id their eventual
    /// delivery will be journalled under.
    recv_waiters: VecDeque<(Tid, u64)>,
    limits: Limits,
    io_waiting: u32,
    offloaded: Vec<FileId>,
    finished: bool,
    /// Absolute virtual deadline (spawn time + `Limits::deadline`).
    deadline_at: Option<SimTime>,
    /// Deadline already detected (counts once per process).
    deadline_hit: bool,
    /// Cancelled from outside ([`Kernel::cancel_process`]): every
    /// subsequent syscall fails with [`SysError::Cancelled`].
    cancelled: bool,
    /// First `pred` completion observed (TTFT recorded).
    ttft_done: bool,
    /// Completion time of the last `pred` (inter-token latency).
    last_pred_done: Option<SimTime>,
    /// Effect-sequence counters for WAL journalling/replay.
    seqs: EffectSeqs,
    /// `true` for processes spawned via the durable API (journalled to the
    /// WAL and resumable after a crash).
    durable: bool,
}

/// What [`Kernel::admit`] enters into the process table.
enum Admit {
    /// A process that will run: spawned, scheduled, or re-admitted by
    /// recovery. A durable one journals its spawn and effects.
    Live { limits: Limits, durable: bool },
    /// An outcome recovery already knows: journalled as exited, or lost
    /// because the program's image did not resolve.
    Exited(wal::ReplayExit),
}

struct PendingPred {
    tid: Tid,
    req: PredRequest,
    /// Times this request was requeued after KV-pool exhaustion.
    requeues: u32,
    /// When the `pred` first joined the pool (queue-delay metric; preserved
    /// across requeues so the delay covers the whole wait).
    enqueued_at: SimTime,
    /// Owning program (MLFQ service accounting).
    pid: Pid,
    /// `true` when issued by the program's main thread: a blocking,
    /// critical-path `pred`. Spawned threads' preds are treated as
    /// speculative/background work by the program-aware queue.
    critical: bool,
    // ---- continuous-executor progress (unused in static mode) ----
    /// Input tokens already executed in earlier iterations.
    done: usize,
    /// Distributions accumulated across chunks, delivered when `done`
    /// reaches the request length.
    dists: Vec<symphony_model::Dist>,
    /// File length at first admission, for rollback when a later chunk
    /// faults (a failed `pred` must leave no partial work, as in static
    /// mode).
    start_len: usize,
    /// Queue delay observed (first admission only).
    delay_recorded: bool,
    /// Effect-sequence id for the WAL `PredEffect` record of this call.
    seq: u64,
}

/// Ensure LIP-thread panics (crash tests, shutdown unwinds) do not spam
/// stderr: the hook suppresses output for threads named `lip-*`.
fn install_quiet_lip_panics() {
    use std::sync::OnceLock;
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_lip = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("lip-"));
            if !is_lip {
                default(info);
            }
        }));
    });
}

/// Kernel-level latency/occupancy metrics in the unified registry.
struct KernelMetrics {
    /// Virtual time from process spawn to its first `pred` completion.
    ttft_ns: Histogram,
    /// Virtual time between consecutive `pred` completions of a process.
    inter_token_ns: Histogram,
    /// Virtual time a `pred` waited in the pool before batch launch.
    queue_delay_ns: Histogram,
    /// Batch size as a percentage of `max_batch`, one sample per batch.
    batch_occupancy_pct: Histogram,
    /// Whole-tool-call virtual latency (all attempts plus backoff).
    tool_latency_ns: Histogram,
    /// GPU KV pages in use, sampled after each batch.
    gpu_pages_used: Gauge,
    /// Disk-tier KV pages in use, sampled after each batch.
    disk_pages_used: Gauge,
    /// KV files swapped out to free GPU pages for an executing sequence
    /// (continuous executor only).
    preemptions: Counter,
    /// Prefill chunks executed by the continuous executor (requests that
    /// spanned more than one iteration).
    prefill_chunks: Counter,
    /// `finish_io` observed `io_waiting == 0` for the owning process — a
    /// bookkeeping bug (the decrement is clamped; this makes it visible).
    io_waiting_underflow: Counter,
    /// Successful `Kernel::recover` boots.
    recoveries: Counter,
    /// WAL frames replayed across all recoveries.
    replayed_frames: Counter,
    /// WAL checkpoints written.
    checkpoints: Counter,
    /// Durable bytes in the kernel WAL (header + synced frames).
    wal_bytes: Gauge,
    /// Admission-time static cost hints installed on the scheduler
    /// ([`Kernel::set_cost_hint`]).
    cost_hints: Counter,
    /// Wall-clock DES throughput of the latest [`Kernel::run`]: events
    /// processed per real second. Observability only — never read back
    /// into scheduling, so it cannot perturb determinism.
    events_per_sec: Gauge,
}

impl KernelMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        KernelMetrics {
            ttft_ns: registry.histogram("kernel.ttft_ns", &latency_bounds_ns()),
            inter_token_ns: registry.histogram("kernel.inter_token_ns", &latency_bounds_ns()),
            queue_delay_ns: registry.histogram("sched.queue_delay_ns", &latency_bounds_ns()),
            batch_occupancy_pct: registry.histogram("gpu.batch_occupancy_pct", &percent_bounds()),
            tool_latency_ns: registry.histogram("tools.call_latency_ns", &latency_bounds_ns()),
            gpu_pages_used: registry.gauge("kvfs.gpu_pages_used"),
            disk_pages_used: registry.gauge("kvfs.disk_pages_used"),
            preemptions: registry.counter("sched.preemptions"),
            prefill_chunks: registry.counter("sched.prefill_chunks"),
            io_waiting_underflow: registry.counter("kernel.io_waiting_underflow"),
            recoveries: registry.counter("kernel.recoveries"),
            replayed_frames: registry.counter("kernel.replayed_frames"),
            checkpoints: registry.counter("kernel.checkpoints"),
            wal_bytes: registry.gauge("kernel.wal_bytes"),
            cost_hints: registry.counter("sched.cost_hints"),
            events_per_sec: registry.gauge("sim.events_per_sec"),
        }
    }
}

/// The Symphony kernel.
pub struct Kernel {
    // Substrate.
    store: KvStore,
    /// Warm-restart report when the store was restored from a journal.
    restored: Option<RestoreReport>,
    gpu: GpuExecutor,
    tokenizer: &'static Bpe,
    tools: ToolRegistry,
    // Scheduling.
    events: EventQueue<Event>,
    ready: VecDeque<(Tid, SysReply)>,
    sched: InferScheduler<PendingPred>,
    exec: ExecMode,
    /// Continuous-mode wait queue (FIFO or program-aware MLFQ).
    cqueue: ProgramQueue<PendingPred>,
    /// Continuous-mode sequences admitted to the GPU, carried across
    /// iterations until they finish, fail or are preempted.
    active: Vec<PendingPred>,
    gpu_busy: bool,
    pending_batches: IdSlab<Vec<(Tid, SysReply)>>,
    next_batch: u64,
    timer_armed_until: Option<SimTime>,
    // Processes and threads.
    threads: IdSlab<ThreadState>,
    next_tid: u64,
    procs: IdSlab<Proc>,
    next_pid: u64,
    records: IdSlab<ProcessRecord>,
    /// Unfinished processes by name (see "Process lifecycle").
    names: BTreeMap<String, BTreeSet<Pid>>,
    /// Processes finalized since boot; [`Kernel::run`] reports the
    /// difference across one call.
    exited: usize,
    live_threads: usize,
    // Plumbing.
    up_tx: Sender<UpCall>,
    up_rx: Receiver<UpCall>,
    rng: Rng,
    // Telemetry.
    registry: MetricsRegistry,
    bus: EventBus,
    kmetrics: KernelMetrics,
    // Resilience.
    injector: FaultInjector,
    breakers: Option<BreakerBank>,
    admission: Option<AdmissionPolicy>,
    tool_retry: Option<RetryPolicy>,
    res_counters: ResilienceCounters,
    // Config extracts.
    syscall_cost: SimDuration,
    offload_on_io_wait: bool,
    offload_min_latency: SimDuration,
    default_limits: Limits,
    max_batch: usize,
    /// Open incremental KV journal ([`Kernel::open_kv_journal`]): deltas
    /// appended by [`Kernel::persist_kv_delta`], bounded by compaction.
    kv_journal: Option<symphony_kvfs::Journal>,
    // Crash tolerance.
    /// Open write-ahead log (`None` when journalling is disabled).
    wal: Option<WalState>,
    /// Journalled state being replayed after `recover`; consulted by
    /// effectful syscalls to answer from the log instead of re-firing.
    replay: Option<wal::Replay>,
    /// `resume_programs` already ran (it must run at most once).
    programs_resumed: bool,
    /// Syscall boundaries crossed (crash-injection kill-points).
    syscall_boundaries: u64,
    /// Set when an injected kernel crash fired; the run loop halts.
    crashed: Option<u64>,
    // Serving.
    /// Streaming upcall sink: invoked synchronously on `emit`/`emit_tokens`
    /// and process exit so a front door (crates/serve) can forward output
    /// incrementally instead of polling finished records. `None` costs one
    /// branch per emit.
    session_sink: Option<SessionSink>,
}

/// Incremental session notifications delivered to a [`SessionSink`].
///
/// Events fire in virtual-time order, synchronously from the kernel event
/// loop, which is what makes a serving front door deterministic: the same
/// run yields the same event sequence byte for byte.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// A process appended `text` to its output via `emit`/`emit_tokens`.
    Emitted {
        /// Emitting process.
        pid: Pid,
        /// Virtual emission time.
        at: SimTime,
        /// The appended text chunk.
        text: String,
        /// Tokens in the chunk (0 for plain-text `emit`).
        tokens: u64,
    },
    /// A process finished and its record is final.
    Exited {
        /// Exiting process.
        pid: Pid,
        /// Virtual exit time.
        at: SimTime,
        /// Final status.
        status: ExitStatus,
        /// Final resource usage.
        usage: ProcessUsage,
    },
}

/// Callback receiving [`SessionEvent`]s (see [`Kernel::set_session_sink`]).
pub type SessionSink = Box<dyn FnMut(SessionEvent) + Send>;

impl Kernel {
    /// Builds a kernel from a configuration.
    pub fn new(config: KernelConfig) -> Self {
        Self::build(config, None)
    }

    /// Boots a kernel from the write-ahead log at `config.wal.path`,
    /// restoring the virtual clock, pid/tid allocators, circuit-breaker
    /// state and the durable process table. In-flight durable programs are
    /// *not* re-executed yet — call [`Kernel::resume_programs`] with their
    /// program images, then [`Kernel::run`].
    ///
    /// The returned report counts candidates: `resumed` is the number of
    /// in-flight programs awaiting [`Kernel::resume_programs`], `finished`
    /// the completed ones restored as records, `lost` always zero here
    /// (images are only resolved at resume time).
    pub fn recover(config: KernelConfig) -> Result<(Self, RecoveryReport), WalError> {
        let wal_cfg = config.wal.clone().ok_or(WalError::Disabled)?;
        let bytes = std::fs::read(&wal_cfg.path).map_err(|_| WalError::Unreadable)?;
        let mut replay = wal::Replay::default();
        let walk = wal::walk_wal(&bytes, |rec| replay.fold(rec))?;
        if walk.fields != [config.seed] {
            return Err(WalError::Incompatible);
        }
        replay.finish(walk.len, walk.torn);
        let report = RecoveryReport {
            resumed: replay.procs.values().filter(|p| p.exit.is_none()).count()
                + replay.scheduled.len(),
            finished: replay.procs.values().filter(|p| p.exit.is_some()).count(),
            lost: 0,
            frames: replay.frames,
            wal_bytes: replay.wal_bytes,
            torn: replay.torn,
            clock: replay.clock,
        };
        let kernel = Self::build(config, Some(replay));
        Ok((kernel, report))
    }

    fn build(config: KernelConfig, replay: Option<wal::Replay>) -> Self {
        install_quiet_lip_panics();
        let tokenizer = Bpe::default_tokenizer();
        let model = Surrogate::new(config.model, config.model_seed)
            .with_vocab(VocabInfo::from_tokenizer(tokenizer));
        let gpu_kv_bytes = config
            .gpu_kv_bytes_override
            .unwrap_or_else(|| config.device.kv_budget_bytes(&config.model));
        let registry = MetricsRegistry::new();
        let store_config = KvStoreConfig::from_bytes(
            gpu_kv_bytes,
            config.cpu_swap_bytes,
            config.disk_swap_bytes,
            config.model.kv_bytes_per_token(),
            config.page_tokens,
        );
        // Warm restart: replay the journal when one exists at the configured
        // path. Any failure (missing file, incompatible geometry) falls back
        // to a cold store — a serving kernel must boot either way.
        let mut restored = None;
        let store = match config
            .journal_path
            .as_deref()
            .filter(|p| p.exists())
            .and_then(|p| KvStore::restore_from_journal(p, store_config, &registry).ok())
        {
            Some((store, report)) => {
                restored = Some(report);
                store
            }
            None => KvStore::with_registry(store_config, &registry),
        };
        let (up_tx, up_rx) = channel();
        let wal_config = config.wal.clone();
        let mut kernel = Kernel {
            store,
            restored,
            gpu: GpuExecutor::with_registry(config.device, model, &registry),
            tokenizer,
            tools: ToolRegistry::new(),
            events: EventQueue::new(),
            ready: VecDeque::new(),
            sched: InferScheduler::new(config.batch_policy, config.max_batch),
            exec: config.exec,
            cqueue: ProgramQueue::new(match config.exec {
                ExecMode::Static => crate::sched::QueueDiscipline::Fifo,
                ExecMode::Continuous(c) => c.discipline,
            }),
            active: Vec::new(),
            gpu_busy: false,
            pending_batches: IdSlab::new(),
            next_batch: 0,
            timer_armed_until: None,
            threads: IdSlab::new(),
            next_tid: 1,
            procs: IdSlab::new(),
            next_pid: 1,
            records: IdSlab::new(),
            names: BTreeMap::new(),
            exited: 0,
            live_threads: 0,
            up_tx,
            up_rx,
            rng: Rng::new(config.seed),
            bus: {
                // The drop counter registers unconditionally so metrics
                // snapshots are identical with telemetry on or off.
                let dropped = registry.counter("telemetry.events_dropped");
                if config.telemetry {
                    let mut bus = EventBus::recording();
                    bus.set_capacity(config.telemetry_capacity);
                    bus.set_drop_counter(dropped);
                    bus
                } else {
                    EventBus::disabled()
                }
            },
            kmetrics: KernelMetrics::register(&registry),
            injector: FaultInjector::with_registry(config.faults, config.seed, &registry),
            breakers: config
                .breaker
                .map(|p| BreakerBank::with_registry(p, &registry)),
            admission: config.admission,
            tool_retry: config.tool_retry,
            res_counters: ResilienceCounters::register(&registry),
            registry,
            syscall_cost: config.syscall_cost,
            offload_on_io_wait: config.offload_on_io_wait,
            offload_min_latency: config.offload_min_latency,
            default_limits: config.default_limits,
            max_batch: config.max_batch,
            kv_journal: None,
            wal: None,
            replay: None,
            programs_resumed: false,
            syscall_boundaries: 0,
            crashed: None,
            session_sink: None,
        };
        if let Some(r) = replay {
            // Restore the virtual clock and allocators so re-executed
            // programs see identical pids, tids (hence RNG streams) and
            // scheduling decisions.
            kernel.events.advance_to(r.clock);
            kernel.next_pid = kernel.next_pid.max(r.next_pid);
            kernel.next_tid = kernel.next_tid.max(r.next_tid);
            if let Some(bank) = kernel.breakers.as_mut() {
                bank.import_states(r.breakers.clone());
            }
            kernel.kmetrics.recoveries.inc();
            kernel.kmetrics.replayed_frames.add(r.frames);
            if let Some(cfg) = &wal_config {
                let w = WalState::open_append(cfg, r.wal_bytes, r.clock)
                    // lint:allow(k1): an unusable WAL at recovery boot is unrecoverable
                    .expect("reopen kernel WAL");
                kernel.kmetrics.wal_bytes.set(w.bytes_written() as i64);
                kernel.wal = Some(w);
            }
            kernel.replay = Some(r);
        } else if let Some(cfg) = &wal_config {
            let w = WalState::create(cfg, config.seed)
                // lint:allow(k1): WAL creation failing at kernel boot is unrecoverable
                .expect("create kernel WAL");
            kernel.kmetrics.wal_bytes.set(w.bytes_written() as i64);
            kernel.wal = Some(w);
        }
        kernel
    }

    // ---- setup API ------------------------------------------------------------

    /// Registers a server-side tool.
    pub fn register_tool(&mut self, name: &str, spec: ToolSpec) {
        self.tools.register(name, spec);
    }

    /// Preloads a KV file under `path` as the admin (e.g. a shared system
    /// prompt), computing its fingerprint chain without charging GPU time —
    /// the moral equivalent of shipping precomputed KV with the deployment.
    pub fn preload_kv(
        &mut self,
        path: &str,
        tokens: &[TokenId],
        mode: Mode,
        pinned: bool,
    ) -> Result<FileId, SysError> {
        let fpr = self.gpu.model().fingerprinter();
        let mut fp = fpr.origin();
        let entries: Vec<symphony_kvfs::KvEntry> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                fp = fpr.advance(fp, t, i as u32);
                symphony_kvfs::KvEntry::new(t, i as u32, fp)
            })
            .collect();
        let f = self.store.create(OwnerId::ADMIN)?;
        self.store.append(f, OwnerId::ADMIN, &entries)?;
        self.store.chmod(f, OwnerId::ADMIN, mode)?;
        if pinned {
            self.store.pin(f, OwnerId::ADMIN)?;
        }
        self.store.link(f, path, OwnerId::ADMIN)?;
        Ok(f)
    }

    /// The warm-restart report when this kernel booted from a journal
    /// (`KernelConfig::journal_path`); `None` after a cold start.
    pub fn restored(&self) -> Option<&RestoreReport> {
        self.restored.as_ref()
    }

    /// Snapshots the KV store to an append-only journal at `path` for a
    /// later warm restart. Returns `Ok(true)` when the journal landed
    /// complete; under an injected `kv.journal_write` fault the write is
    /// torn mid-record (the tail third is lost) and `Ok(false)` is returned
    /// — replay will recover the valid prefix.
    pub fn persist_kv(&mut self, path: &std::path::Path) -> std::io::Result<bool> {
        let mut bytes = self.store.journal_bytes();
        let torn = self.injector.journal_write();
        if torn {
            let cut = bytes.len() - bytes.len() / 3;
            bytes.truncate(cut);
            let at = self.events.now();
            self.bus.emit(at, || EventKind::FaultInjected {
                site: "kv.journal_write",
            });
        }
        std::fs::write(path, bytes)?;
        Ok(!torn)
    }

    /// Opens an incremental KV journal at `path`: writes the current store
    /// as its base snapshot and starts delta tracking. From here on,
    /// [`Kernel::persist_kv_delta`] appends only what changed, and the
    /// journal is rewritten snapshot-equivalent whenever it crosses
    /// `config.compact_threshold_bytes` — so its size is bounded by the
    /// threshold plus one delta batch, not by history length.
    pub fn open_kv_journal(
        &mut self,
        path: &std::path::Path,
        config: symphony_kvfs::JournalConfig,
    ) -> std::io::Result<()> {
        let snapshot = self.store.journal_bytes();
        let journal = symphony_kvfs::Journal::create(path, &snapshot, config)?;
        self.store.enable_delta_log();
        self.store.set_journal_len_metric(journal.bytes());
        self.kv_journal = Some(journal);
        Ok(())
    }

    /// Appends the store's changes since the last call to the open KV
    /// journal, flushes them to disk, and compacts when the journal has
    /// crossed its threshold. Returns `Ok(true)` when a compaction ran;
    /// a no-op `Ok(false)` without an open journal.
    pub fn persist_kv_delta(&mut self) -> std::io::Result<bool> {
        let Some(journal) = self.kv_journal.as_mut() else {
            return Ok(false);
        };
        for rec in self.store.take_delta() {
            journal.append(&rec)?;
        }
        journal.flush()?;
        let mut compacted = false;
        if journal.needs_compaction() {
            let snapshot = self.store.journal_bytes();
            journal.compact(&snapshot)?;
            self.store.note_compaction();
            compacted = true;
        }
        self.store.set_journal_len_metric(journal.bytes());
        Ok(compacted)
    }

    /// Spawns a LIP immediately (at the current virtual time) with the
    /// default limits.
    pub fn spawn_process<F>(&mut self, name: &str, args: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        self.spawn_process_with_limits(name, args, self.default_limits, f)
    }

    /// Spawns a LIP immediately with explicit limits.
    pub fn spawn_process_with_limits<F>(
        &mut self,
        name: &str,
        args: &str,
        limits: Limits,
        f: F,
    ) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        self.spawn(name, args, limits, false, Box::new(f))
    }

    /// Schedules a LIP to arrive at a future virtual time (workload driving).
    pub fn schedule_process<F>(&mut self, at: SimTime, name: &str, args: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) -> Result<(), SysError> + Send + 'static,
    {
        self.schedule(at, name, args, self.default_limits, false, Box::new(f))
    }

    /// Installs an admission-time static cost hint for a program: the
    /// verifier's upper bound on critical-path pred tokens
    /// ([`EffectSummary::service_estimate`] in `symphony-lipscript`), or
    /// `None` when the bound is statically unbounded. The continuous
    /// executor's MLFQ adds the hint to observed service when picking a
    /// queue level, so known-cheap programs keep top priority and
    /// unbounded ones start at the bottom of the ladder. A no-op beyond
    /// bookkeeping under FIFO or the batch executor.
    pub fn set_cost_hint(&mut self, pid: Pid, est_service_tokens: Option<u64>) {
        self.cqueue.set_static_hint(pid.0, est_service_tokens);
        self.kmetrics.cost_hints.inc();
    }

    // ---- durable (crash-tolerant) process API ---------------------------------

    /// Spawns a durable LIP immediately: its spawn and effectful syscalls
    /// are journalled to the WAL so [`Kernel::recover`] +
    /// [`Kernel::resume_programs`] can re-execute it deterministically
    /// after a crash. The image must be re-invocable; see [`ProgramImage`].
    pub fn spawn_durable(&mut self, name: &str, args: &str, image: ProgramImage) -> Pid {
        let f: LipFn = Box::new(move |ctx| image(ctx));
        self.spawn(name, args, self.default_limits, true, f)
    }

    /// Schedules a durable LIP for a future virtual arrival. The schedule
    /// itself is journalled — with a main thread id pre-assigned *now*, so
    /// the program's per-thread RNG stream is identical whether or not a
    /// crash intervenes before it starts — and a crash before the arrival
    /// does not drop the program.
    pub fn schedule_durable(
        &mut self,
        at: SimTime,
        name: &str,
        args: &str,
        image: ProgramImage,
    ) -> Pid {
        let f: LipFn = Box::new(move |ctx| image(ctx));
        self.schedule(at, name, args, self.default_limits, true, f)
    }

    // ---- process lifecycle -----------------------------------------------------

    /// Admits a new process and starts its main thread now.
    fn spawn(&mut self, name: &str, args: &str, limits: Limits, durable: bool, f: LipFn) -> Pid {
        let pid = self.alloc_pid();
        self.admit(
            pid,
            name,
            self.events.now(),
            Admit::Live { limits, durable },
        );
        self.start_process(pid, args.to_string(), f, None);
        pid
    }

    /// Admits a new process whose main thread starts at `at`. A durable
    /// schedule pre-assigns the main tid and journals it: recovery
    /// re-admits the program from that frame and must fork the same
    /// per-thread RNG stream.
    fn schedule(
        &mut self,
        at: SimTime,
        name: &str,
        args: &str,
        limits: Limits,
        durable: bool,
        f: LipFn,
    ) -> Pid {
        let pid = self.alloc_pid();
        self.admit(pid, name, at, Admit::Live { limits, durable });
        let mut main_tid = None;
        if durable {
            let tid = Tid(self.next_tid);
            self.next_tid += 1;
            self.wal_append(WalRecord::ProcSched {
                at: self.events.now(),
                pid: pid.0,
                main_tid: tid.0,
                arrival: at,
                durable: true,
                name: name.to_string(),
                args: args.to_string(),
                limits,
            });
            main_tid = Some(tid);
        }
        self.events.schedule(
            at,
            Event::SpawnProgram {
                pid,
                args: args.to_string(),
                f,
                main_tid,
            },
        );
        pid
    }

    fn alloc_pid(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// The one place a pid enters the process table: every spawn and
    /// schedule, and every recovery path, comes through here. A live
    /// process gets its record, its `names` entry, its store quota, its
    /// deadline check and its [`Proc`]; an outcome restored by recovery
    /// gets its final record only.
    fn admit(&mut self, pid: Pid, name: &str, spawned_at: SimTime, admit: Admit) {
        let mut record = ProcessRecord {
            pid,
            name: name.to_string(),
            spawned_at,
            exited_at: None,
            status: ExitStatus::Ok,
            output: String::new(),
            usage: ProcessUsage::default(),
        };
        let (limits, durable) = match admit {
            Admit::Live { limits, durable } => (limits, durable),
            Admit::Exited(exit) => {
                record.exited_at = Some(exit.at);
                record.status = exit.status;
                record.output = exit.output;
                record.usage = exit.usage;
                self.records.insert(pid.0, record);
                return;
            }
        };
        self.records.insert(pid.0, record);
        self.names.entry(name.to_string()).or_default().insert(pid);
        if let Some(q) = limits.kv_quota_pages {
            self.store.set_quota(OwnerId(pid.0), Some(q));
        }
        let deadline_at = limits.deadline.map(|d| spawned_at + d);
        if let Some(t) = deadline_at {
            // A re-admitted program may already be past its deadline; the
            // check then fires at the restored clock.
            self.events
                .schedule(t.max(self.events.now()), Event::DeadlineCheck { pid });
        }
        self.procs.insert(
            pid.0,
            Proc {
                main_tid: Tid(0),
                args: String::new(),
                live_threads: 0,
                mailbox: VecDeque::new(),
                recv_waiters: VecDeque::new(),
                limits,
                io_waiting: 0,
                offloaded: Vec::new(),
                finished: false,
                deadline_at,
                deadline_hit: false,
                cancelled: false,
                ttft_done: false,
                last_pred_done: None,
                seqs: EffectSeqs::default(),
                durable,
            },
        );
    }

    /// Starts an admitted process's main thread, under `main_tid` when one
    /// was pre-assigned. A durable spawn is journalled, except when
    /// recovery re-executes a program whose spawn frame is already durable.
    fn start_process(&mut self, pid: Pid, args: String, f: LipFn, main_tid: Option<Tid>) {
        // `admit` inserted the process; a miss would mean the caller
        // passed a foreign pid. Degrade to a no-op instead of panicking.
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "start_process: unknown pid {}", pid.0);
            return;
        };
        proc.args = args.clone();
        if self.bus.is_enabled() {
            let name = self.records[pid.0].name.clone();
            let at = self.events.now();
            self.bus
                .emit(at, move || EventKind::ProcessSpawn { pid: pid.0, name });
        }
        let tid = self.spawn_thread(pid, args, f, main_tid);
        let Some(proc) = self.procs.get_mut(pid.0) else {
            return;
        };
        proc.main_tid = tid;
        let replayed = self
            .replay
            .as_ref()
            .is_some_and(|r| r.procs.contains_key(&pid.0));
        if proc.durable && !replayed {
            let rec = WalRecord::ProcSpawn {
                at: self.events.now(),
                pid: pid.0,
                main_tid: tid.0,
                durable: true,
                name: self.records[pid.0].name.clone(),
                args: proc.args.clone(),
                limits: proc.limits,
            };
            self.wal_append(rec);
        }
    }

    /// Spawns a LIP thread, under `tid` when one is pre-assigned (recovery
    /// re-admission and journalled schedules, where tid identity pins the
    /// RNG stream).
    fn spawn_thread(&mut self, pid: Pid, args: String, f: LipFn, tid: Option<Tid>) -> Tid {
        let tid = tid.unwrap_or_else(|| {
            let t = Tid(self.next_tid);
            self.next_tid += 1;
            t
        });
        let (reply_tx, reply_rx) = channel();
        let ctx = Ctx::new(
            tid,
            pid,
            args,
            self.up_tx.clone(),
            reply_rx,
            self.rng.fork(tid.0),
            self.tokenizer.specials(),
        );
        let handle = crate::lip_pool::spawn_lip(Box::new(move || thread_main(ctx, f)));
        self.threads.insert(
            tid.0,
            ThreadState {
                pid,
                reply_tx,
                handle: Some(handle),
                status: None,
                join_waiters: Vec::new(),
                open_syscall: None,
            },
        );
        let at = self.events.now();
        self.bus.emit(at, || EventKind::ThreadSpawn {
            pid: pid.0,
            tid: tid.0,
        });
        if let Some(proc) = self.procs.get_mut(pid.0) {
            proc.live_threads += 1;
        }
        if let Some(r) = self.records.get_mut(pid.0) {
            r.usage.threads_spawned += 1;
        }
        self.live_threads += 1;
        self.ready.push_back((tid, SysReply::Start));
        tid
    }

    // ---- recovery --------------------------------------------------------------

    /// Re-admits journalled programs after [`Kernel::recover`]. `resolve`
    /// maps a program name to its image: unfinished programs re-execute
    /// deterministically from their start (journalled effects answer their
    /// syscalls up to the crash point), finished programs are restored as
    /// records without re-execution, and unresolvable programs are recorded
    /// as crashed. Returns the final recovery report; a second call (or a
    /// call on a non-recovered kernel) is a no-op reporting zeros.
    pub fn resume_programs<F>(&mut self, resolve: F) -> RecoveryReport
    where
        F: Fn(&str) -> Option<ProgramImage>,
    {
        let empty = RecoveryReport {
            resumed: 0,
            finished: 0,
            lost: 0,
            frames: 0,
            wal_bytes: 0,
            torn: false,
            clock: self.events.now(),
        };
        if self.programs_resumed {
            return empty;
        }
        let Some(replay) = self.replay.as_ref() else {
            return empty;
        };
        self.programs_resumed = true;
        let procs: Vec<(u64, wal::ReplayProc)> =
            replay.procs.iter().map(|(k, v)| (*k, v.clone())).collect();
        let scheduled: Vec<(u64, wal::ReplaySched)> = replay
            .scheduled
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let sends = replay.sends.clone();
        let mut to_skip = replay.recv_counts();
        let (frames, wal_bytes, torn, clock) =
            (replay.frames, replay.wal_bytes, replay.torn, replay.clock);
        // An unfinished program whose image does not resolve is recorded
        // as crashed at the restored clock.
        let crashed = wal::ReplayExit {
            at: self.events.now(),
            status: ExitStatus::Crashed,
            output: String::new(),
            usage: ProcessUsage::default(),
        };
        let (mut resumed, mut finished, mut lost) = (0, 0, 0);
        for (pid, rp) in procs {
            let pid = Pid(pid);
            if let Some(exit) = rp.exit {
                // Completed before the crash: its outputs are already
                // durable, so it is restored as a record only.
                self.admit(pid, &rp.name, rp.spawned_at, Admit::Exited(exit));
                finished += 1;
                continue;
            }
            let Some(image) = resolve(&rp.name) else {
                self.admit(pid, &rp.name, rp.spawned_at, Admit::Exited(crashed.clone()));
                lost += 1;
                continue;
            };
            // Re-execute under the original pid and main tid, so the
            // program draws the same RNG stream and allocates the same
            // identifiers as the pre-crash run.
            let live = Admit::Live {
                limits: rp.limits,
                durable: rp.durable,
            };
            self.admit(pid, &rp.name, rp.spawned_at, live);
            let f: LipFn = Box::new(move |ctx| image(ctx));
            self.start_process(pid, rp.args, f, Some(Tid(rp.main_tid)));
            resumed += 1;
        }
        for (pid, rs) in scheduled {
            let pid = Pid(pid);
            let Some(image) = resolve(&rs.name) else {
                self.admit(pid, &rs.name, rs.arrival, Admit::Exited(crashed.clone()));
                lost += 1;
                continue;
            };
            // A journalled arrival that had not started by the crash;
            // arrivals already in the past fire at the restored clock.
            let live = Admit::Live {
                limits: rs.limits,
                durable: rs.durable,
            };
            self.admit(pid, &rs.name, rs.arrival, live);
            let f: LipFn = Box::new(move |ctx| image(ctx));
            self.events.schedule(
                rs.arrival.max(self.events.now()),
                Event::SpawnProgram {
                    pid,
                    args: rs.args,
                    f,
                    main_tid: Some(Tid(rs.main_tid)),
                },
            );
            resumed += 1;
        }
        // Rebuild mailboxes: delivered sends in journal order, minus the
        // prefix each receiver already consumed (journalled recvs replay
        // from the log, not from the mailbox).
        for s in sends {
            if !s.delivered {
                continue;
            }
            if let Some(n) = to_skip.get_mut(&s.to) {
                if *n > 0 {
                    *n -= 1;
                    continue;
                }
            }
            if let Some(p) = self.procs.get_mut(s.to) {
                p.mailbox.push_back((Pid(s.from), s.data, SimTime::ZERO, 0));
            }
        }
        let at = self.events.now();
        let resumed_u = resumed as u64;
        self.bus.emit(at, move || EventKind::KernelRecovery {
            resumed: resumed_u,
            replayed_frames: frames,
        });
        RecoveryReport {
            resumed,
            finished,
            lost,
            frames,
            wal_bytes,
            torn,
            clock,
        }
    }

    // ---- WAL plumbing ----------------------------------------------------------

    /// Appends one synchronous frame (no-op when the WAL is disabled).
    fn wal_append(&mut self, rec: WalRecord) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        w.append_sync(&rec)
            // lint:allow(k1): a failed WAL write silently voids durability
            .expect("kernel WAL append");
        self.kmetrics.wal_bytes.set(w.bytes_written() as i64);
    }

    /// Buffers a bulky pred frame for the next checkpoint (no-op when the
    /// WAL is disabled).
    fn wal_buffer_pred(&mut self, rec: WalRecord) {
        if let Some(w) = self.wal.as_mut() {
            w.buffer_pred(&rec);
        }
    }

    /// Writes a checkpoint frame (flushing buffered pred frames) when the
    /// virtual clock has passed the next checkpoint boundary.
    fn maybe_checkpoint(&mut self) {
        let now = self.events.now();
        if self.wal.as_ref().is_none_or(|w| now < w.next_checkpoint_at) {
            return;
        }
        let breakers = self
            .breakers
            .as_ref()
            .map(|b| b.export_states())
            .unwrap_or_default();
        let rec = WalRecord::Checkpoint {
            at: now,
            next_pid: self.next_pid,
            next_tid: self.next_tid,
            breakers,
        };
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        let frames = w
            .checkpoint(&rec)
            // lint:allow(k1): a failed WAL write silently voids durability
            .expect("kernel WAL checkpoint");
        while w.next_checkpoint_at <= now {
            w.next_checkpoint_at += w.checkpoint_every;
        }
        let wal_bytes = w.bytes_written();
        self.kmetrics.checkpoints.inc();
        self.kmetrics.wal_bytes.set(wal_bytes as i64);
        self.bus
            .emit(now, move || EventKind::WalCheckpoint { frames, wal_bytes });
    }

    /// An injected kernel crash: halt the run loop, dropping buffered
    /// (unflushed) pred frames exactly as a real crash would.
    fn crash_now(&mut self, boundary: u64) {
        let at = self.events.now();
        self.bus
            .emit(at, move || EventKind::KernelCrash { boundary });
        if let Some(w) = self.wal.as_mut() {
            w.crash();
        }
        self.crashed = Some(boundary);
    }

    /// `true` when `pid`'s effectful syscalls are journalled.
    fn is_durable(&self, pid: Pid) -> bool {
        self.procs.get(pid.0).is_some_and(|p| p.durable)
    }

    /// Rebuilds the KV entries a replayed `pred` appended pre-crash, so
    /// later live `pred`s against the same file see identical contents.
    /// Charges no GPU time (the work was already paid for before the
    /// crash). Returns `false` if the file state does not admit the append
    /// (the caller then falls back to live execution).
    fn replay_pred_append(
        &mut self,
        file: FileId,
        owner: OwnerId,
        tokens: &[(TokenId, u32)],
    ) -> bool {
        let fpr = self.gpu.model().fingerprinter();
        let mut fp = match self.store.tail_fingerprint(file) {
            Ok(Some(fp)) => fp,
            Ok(None) => fpr.origin(),
            Err(_) => return false,
        };
        let entries: Vec<symphony_kvfs::KvEntry> = tokens
            .iter()
            .map(|&(t, p)| {
                fp = fpr.advance(fp, t, p);
                symphony_kvfs::KvEntry::new(t, p, fp)
            })
            .collect();
        self.store.append(file, owner, &entries).is_ok()
    }

    /// The kill-point that halted this kernel, when an injected crash fired.
    pub fn crashed(&self) -> Option<u64> {
        self.crashed
    }

    /// Syscall boundaries crossed so far — the kill-point space the
    /// chaos sweep iterates with `FaultPlan::crash_at_boundary`.
    pub fn syscall_boundaries(&self) -> u64 {
        self.syscall_boundaries
    }

    /// Tool-handler invocations in this kernel. Replayed tool calls answer
    /// from the WAL without re-invoking handlers, so summing this across a
    /// crashed run and its recovery must equal the crash-free count
    /// (exactly-once side-effects).
    pub fn tool_invocations(&self) -> u64 {
        self.tools.invocations()
    }

    /// WAL frames replayed by `recover` across this kernel's lifetime.
    pub fn replayed_frames(&self) -> u64 {
        self.registry
            .counter_value("kernel.replayed_frames")
            .unwrap_or(0)
    }

    // ---- introspection ----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Discrete events processed by the kernel's virtual clock since boot.
    /// The numerator of the `sim.events_per_sec` throughput metric the
    /// `exp_bench` harness reports.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed()
    }

    /// The record for a process (live or exited).
    pub fn record(&self, pid: Pid) -> Option<&ProcessRecord> {
        self.records.get(pid.0)
    }

    /// All process records, in PID order.
    pub fn records(&self) -> impl Iterator<Item = &ProcessRecord> {
        self.records.values()
    }

    /// GPU executor metrics.
    pub fn gpu_metrics(&self) -> GpuMetrics {
        self.gpu.metrics()
    }

    /// KV store statistics.
    pub fn kv_stats(&self) -> KvStats {
        self.store.stats()
    }

    /// Sequences preempted (KV swapped out) by the continuous executor to
    /// free GPU pages. Always 0 in [`ExecMode::Static`].
    pub fn preemptions(&self) -> u64 {
        self.registry
            .counter_value("sched.preemptions")
            .unwrap_or(0)
    }

    /// Prefill chunks executed by the continuous executor (requests that
    /// spanned more than one GPU iteration).
    pub fn prefill_chunks(&self) -> u64 {
        self.registry
            .counter_value("sched.prefill_chunks")
            .unwrap_or(0)
    }

    /// Static cost hints installed via [`Kernel::set_cost_hint`].
    pub fn cost_hints(&self) -> u64 {
        self.registry.counter_value("sched.cost_hints").unwrap_or(0)
    }

    /// Injected-fault counters for this run.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Resilience counters (retries, timeouts, breaker trips, shedding).
    /// A snapshot of the `resilience.*` registry counters; the breaker bank
    /// increments the same entries, so no merging is needed.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.res_counters.snapshot()
    }

    /// The unified metrics registry (counters, gauges, histograms for every
    /// subsystem: `kernel.*`, `sched.*`, `gpu.*`, `kvfs.*`, `tools.*`,
    /// `faults.*`, `resilience.*`).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A point-in-time snapshot of every registered metric, in name order.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Telemetry events recorded so far (empty unless
    /// [`KernelConfig::telemetry`] was set or a memory collector installed).
    pub fn telemetry_events(&self) -> &[TimedEvent] {
        self.bus.events()
    }

    /// Telemetry events constructed so far — stays 0 while the bus is
    /// disabled, which is the zero-cost property the tests assert.
    pub fn telemetry_constructed(&self) -> u64 {
        self.bus.constructed()
    }

    /// Replaces the telemetry collector, returning the old one (tests use
    /// this to install a counting collector mid-run).
    pub fn set_event_collector(&mut self, collector: Collector) -> Collector {
        self.bus.set_collector(collector)
    }

    /// Renders the recorded telemetry events as Chrome trace-event JSON
    /// (Perfetto-loadable). Deterministic: same-seed runs export
    /// byte-identical traces.
    pub fn export_chrome_trace(&self) -> String {
        export_chrome_trace(self.bus.events())
    }

    /// Like [`Kernel::export_chrome_trace`], but renders the causal events
    /// as Perfetto flow arrows (spawn, IPC, join, tool and preemption edges
    /// across tracks).
    pub fn export_chrome_trace_with_flows(&self) -> String {
        export_chrome_trace_with_flows(self.bus.events())
    }

    /// Telemetry events discarded by the bus capacity cap
    /// ([`KernelConfig::telemetry_capacity`]); 0 while unbounded.
    pub fn events_dropped(&self) -> u64 {
        self.bus.dropped()
    }

    /// Read access to the KV store (tests and harnesses).
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// LIP threads that are still alive (blocked or runnable).
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// The tokenizer used by this kernel.
    pub fn tokenizer(&self) -> &'static Bpe {
        self.tokenizer
    }

    // ---- main loop -------------------------------------------------------------

    /// Runs the kernel until no thread is runnable and no event is pending.
    ///
    /// Returns the number of processes that exited during the run. If
    /// [`Kernel::live_threads`] is non-zero afterwards, the remaining threads
    /// are deadlocked (e.g. blocked in `recv_msg` with no sender).
    pub fn run(&mut self) -> usize {
        let exited_before = self.exited;
        // lint:allow(d1): sim.events_per_sec measures real host throughput — the gauge is observation-only and is never read back into simulation state
        let wall_start = std::time::Instant::now();
        let events_before = self.events.events_processed();
        loop {
            while let Some((tid, reply)) = self.ready.pop_front() {
                if self.crashed.is_some() {
                    break;
                }
                self.resume(tid, reply);
            }
            if self.crashed.is_some() {
                break;
            }
            self.maybe_launch_batch();
            if !self.ready.is_empty() {
                continue;
            }
            match self.events.pop() {
                Some((_, ev)) => self.handle_event(ev),
                None => break,
            }
            self.maybe_checkpoint();
        }
        let processed = self.events.events_processed() - events_before;
        let secs = wall_start.elapsed().as_secs_f64();
        if processed > 0 && secs > 0.0 {
            self.kmetrics
                .events_per_sec
                .set((processed as f64 / secs) as i64);
        }
        self.exited - exited_before
    }

    fn resume(&mut self, tid: Tid, reply: SysReply) {
        let (pid, open) = {
            let Some(ts) = self.threads.get_mut(tid.0) else {
                return;
            };
            if ts.status.is_some() {
                return; // Thread already exited (e.g. killed reply raced).
            }
            if ts.reply_tx.send(reply).is_err() {
                return;
            }
            (ts.pid, ts.open_syscall.take())
        };
        // Every reply delivery funnels through here, so this is the single
        // point where a thread's syscall span closes and the CPU is handed
        // back to it.
        let at = self.events.now();
        if let Some(name) = open {
            self.bus.emit(at, || EventKind::SyscallExit {
                pid: pid.0,
                tid: tid.0,
                name,
            });
        }
        self.bus
            .emit(at, || EventKind::SchedDispatch { tid: tid.0 });
        let up = self
            .up_rx
            .recv()
            // lint:allow(k1): the kernel holds up_tx, so the channel cannot close
            .expect("a resumed LIP thread must issue a syscall or exit");
        match up {
            UpCall::Syscall { tid, call } => self.handle_syscall(tid, call),
            UpCall::Exited { tid, status } => self.handle_exit(tid, status),
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Resume(tid, reply) => self.ready.push_back((tid, reply)),
            Event::BatchDone { batch_id } => {
                self.gpu_busy = false;
                // Results are recorded at launch; an unknown id would mean a
                // duplicate BatchDone. Drop it rather than panic the kernel.
                let Some(results) = self.pending_batches.remove(batch_id) else {
                    debug_assert!(false, "BatchDone for unknown batch {batch_id}");
                    return;
                };
                let now = self.events.now();
                self.bus.emit(now, || EventKind::BatchEnd { id: batch_id });
                for (tid, reply) in results {
                    // Token-latency metrics: a delivered distribution is a
                    // decoded token from the process's point of view.
                    if matches!(reply, SysReply::Dists(_)) {
                        if let Some(ts) = self.threads.get(tid.0) {
                            let pid = ts.pid;
                            let spawned_at = self.records.get(pid.0).map(|r| r.spawned_at);
                            if let (Some(proc), Some(spawned_at)) =
                                (self.procs.get_mut(pid.0), spawned_at)
                            {
                                if !proc.ttft_done {
                                    proc.ttft_done = true;
                                    self.kmetrics.ttft_ns.observe((now - spawned_at).as_nanos());
                                } else if let Some(prev) = proc.last_pred_done {
                                    self.kmetrics
                                        .inter_token_ns
                                        .observe((now - prev).as_nanos());
                                }
                                proc.last_pred_done = Some(now);
                            }
                        }
                    }
                    self.ready.push_back((tid, reply));
                }
            }
            Event::IoDone {
                tid,
                result,
                issued_at,
            } => self.finish_io(tid, result, issued_at),
            Event::BatchTimer => {
                self.timer_armed_until = None;
            }
            Event::SpawnProgram {
                pid,
                args,
                f,
                main_tid,
            } => {
                self.start_process(pid, args, f, main_tid);
            }
            Event::DeadlineCheck { pid } => self.enforce_deadline(pid),
            Event::RequeuePred { pred } => self.enqueue_pred(pred),
        }
    }

    /// Installs the streaming upcall sink. Subsequent `emit`/`emit_tokens`
    /// completions and process exits invoke it synchronously with
    /// [`SessionEvent`]s, in virtual-time order.
    pub fn set_session_sink(&mut self, sink: SessionSink) {
        self.session_sink = Some(sink);
    }

    /// Emits a telemetry event stamped with the current virtual time on
    /// the kernel's bus. Lets layers above the kernel (the serving front
    /// door) interleave their spans with kernel events in one trace.
    pub fn emit_event(&mut self, f: impl FnOnce() -> EventKind) {
        let at = self.events.now();
        self.bus.emit(at, f);
    }

    /// Cancels a running process from outside (session teardown at the
    /// serving layer). Mirrors deadline enforcement: threads blocked in
    /// `recv_msg` are woken with [`SysError::Cancelled`], and every
    /// subsequent syscall from any of the process's threads fails with the
    /// same error, driving the program to a prompt, typed exit. Returns
    /// `false` if the pid is unknown or already finished.
    pub fn cancel_process(&mut self, pid: Pid) -> bool {
        let Some(proc) = self.procs.get_mut(pid.0) else {
            return false;
        };
        if proc.finished || proc.cancelled {
            return false;
        }
        proc.cancelled = true;
        let waiters = std::mem::take(&mut proc.recv_waiters);
        for (w, _seq) in waiters {
            self.complete(w, SysReply::Err(SysError::Cancelled));
        }
        true
    }

    fn notify_session(&mut self, ev: SessionEvent) {
        if let Some(sink) = self.session_sink.as_mut() {
            sink(ev);
        }
    }

    /// Fires when a process's deadline passes: mark it, and fail its
    /// threads blocked in `recv_msg` (other blocked threads — pooled
    /// `pred`s, in-flight I/O, sleeps — already have completions scheduled
    /// and hit the syscall-entry deadline check on their next call).
    fn enforce_deadline(&mut self, pid: Pid) {
        let Some(proc) = self.procs.get_mut(pid.0) else {
            return;
        };
        if proc.finished {
            return;
        }
        let first_hit = !proc.deadline_hit;
        proc.deadline_hit = true;
        let waiters = std::mem::take(&mut proc.recv_waiters);
        if first_hit {
            self.res_counters.deadline_kills.inc();
            let at = self.events.now();
            self.bus.emit(at, || EventKind::DeadlineHit { pid: pid.0 });
        }
        for (w, _seq) in waiters {
            self.complete(w, SysReply::Err(SysError::DeadlineExceeded));
        }
    }

    // ---- batch scheduling --------------------------------------------------------

    fn maybe_launch_batch(&mut self) {
        if let ExecMode::Continuous(cfg) = self.exec {
            self.maybe_launch_iteration(cfg);
            return;
        }
        match self.sched.decide(self.events.now(), !self.gpu_busy) {
            Decision::LaunchNow => self.launch_batch(),
            Decision::WaitUntil(t) => {
                let already = self.timer_armed_until.is_some_and(|a| a <= t);
                if !already {
                    self.events.schedule(t, Event::BatchTimer);
                    self.timer_armed_until = Some(t);
                }
            }
            Decision::Idle => {}
        }
    }

    fn launch_batch(&mut self) {
        let mut pending = self.sched.take_batch();
        debug_assert!(!pending.is_empty());
        let now = self.events.now();
        let mut members = Vec::with_capacity(pending.len());
        let mut requests = Vec::with_capacity(pending.len());
        for p in &mut pending {
            self.kmetrics
                .queue_delay_ns
                .observe((now - p.enqueued_at).as_nanos());
            members.push((p.pid, p.tid, p.enqueued_at));
            // The executor borrows each request's tokens and hands the
            // request back with its result.
            let tokens = std::mem::take(&mut p.req.tokens);
            requests.push(PredRequest { tokens, ..p.req });
        }
        self.launch_gpu(requests, &members, move |k, _batch_id, results| {
            (k.settle_batch(pending, results), SimDuration::ZERO)
        });
    }

    /// Turns a static batch's results into replies, in pool order.
    fn settle_batch(
        &mut self,
        pending: Vec<PendingPred>,
        results: Vec<(PredRequest, Result<PredResult, ExecError>)>,
    ) -> Vec<(Tid, SysReply)> {
        let mut replies = Vec::with_capacity(pending.len());
        for (mut p, (req, res)) in pending.into_iter().zip(results) {
            p.req = req;
            let reply = match res {
                Err(ExecError::Kv(KvError::NoGpuMemory)) => {
                    match self.kv_exhausted(p.tid, p.requeues) {
                        Some(reply) => reply,
                        None => {
                            self.requeue_later(p);
                            continue;
                        }
                    }
                }
                res => self.pred_reply(p.pid, p.seq, res.map(|r| r.dists)),
            };
            replies.push((p.tid, reply));
        }
        replies
    }

    /// Runs one GPU launch for either executor and schedules its
    /// completion. `members[k]` is `(pid, tid, enqueued_at)` of
    /// `requests[k]`. In order: one fault draw per request (an all-zero
    /// plan draws nothing), the executor call, the batch-occupancy sample
    /// and the `BatchBegin`/`PredExec`/`KvCow` events; then `settle` gets
    /// the batch id and every request back with its result, and returns
    /// the replies plus any extra (swap) time the launch occupies; last
    /// the page gauges and the `BatchDone` event.
    fn launch_gpu<S>(
        &mut self,
        requests: Vec<PredRequest>,
        members: &[(Pid, Tid, SimTime)],
        settle: S,
    ) where
        S: FnOnce(
            &mut Self,
            u64,
            Vec<(PredRequest, Result<PredResult, ExecError>)>,
        ) -> (Vec<(Tid, SysReply)>, SimDuration),
    {
        let now = self.events.now();
        let faulted: Vec<bool> = requests
            .iter()
            .map(|_| self.injector.pred_request())
            .collect();
        for f in &faulted {
            if *f {
                self.bus
                    .emit(now, || EventKind::FaultInjected { site: "gpu.pred" });
            }
        }
        let cow_before = self.store.stats().cow_copies;
        let (results, report) =
            self.gpu
                .execute_batch_with_faults(&mut self.store, &requests, &faulted);
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let occupancy_pct = (requests.len() * 100 / self.max_batch.max(1)).min(100) as u32;
        self.kmetrics
            .batch_occupancy_pct
            .observe(occupancy_pct as u64);
        let n_requests = requests.len() as u32;
        let new_tokens = report.new_tokens;
        self.bus.emit(now, || EventKind::BatchBegin {
            id: batch_id,
            requests: n_requests,
            occupancy_pct,
            new_tokens,
        });
        // One scheduler→GPU hop per member (a chunked prefill hops once
        // per chunk, which is exactly its service pattern). Batched
        // emission: one reserve and one capacity check for the launch.
        self.bus.emit_batch(now, requests.len(), |k| {
            let (pid, tid, enqueued_at) = members[k];
            EventKind::PredExec {
                pid: pid.0,
                tid: tid.0,
                batch: batch_id,
                tokens: requests[k].tokens.len() as u32,
                enqueued_at,
            }
        });
        let cow_delta = self.store.stats().cow_copies - cow_before;
        if cow_delta > 0 {
            self.bus
                .emit(now, || EventKind::KvCow { copies: cow_delta });
        }
        let (replies, extra) = settle(self, batch_id, requests.into_iter().zip(results).collect());
        self.kmetrics
            .gpu_pages_used
            .set(self.store.gpu_pages_used() as i64);
        self.kmetrics
            .disk_pages_used
            .set(self.store.disk_pages_used() as i64);
        self.pending_batches.insert(batch_id, replies);
        self.gpu_busy = true;
        self.events
            .schedule(now + extra + report.duration, Event::BatchDone { batch_id });
    }

    /// The reply a finished `pred` delivers. A durable process's
    /// distributions are buffered as a WAL `PredEffect` frame first.
    fn pred_reply(&mut self, pid: Pid, seq: u64, result: Result<Vec<Dist>, ExecError>) -> SysReply {
        match result {
            Ok(dists) => {
                if self.is_durable(pid) {
                    self.wal_buffer_pred(WalRecord::PredEffect {
                        at: self.events.now(),
                        pid: pid.0,
                        seq,
                        dists: dists.clone(),
                    });
                }
                SysReply::Dists(dists)
            }
            Err(ExecError::Kv(e)) => SysReply::Err(SysError::Kv(e)),
            Err(ExecError::NotResident) => SysReply::Err(SysError::Kv(KvError::NotResident)),
            Err(ExecError::EmptyRequest) => SysReply::Err(SysError::BadArgument),
            Err(ExecError::Faulted) => SysReply::Err(SysError::Fault("gpu.pred")),
        }
    }

    /// A `pred` the KV pool could not fit. With admission control on it is
    /// backed off (`None`: the caller re-pools it with
    /// [`Kernel::requeue_later`]) while its retry budget lasts, then shed
    /// as `Busy`; without, it fails with `Kv(NoGpuMemory)`.
    fn kv_exhausted(&mut self, tid: Tid, requeues: u32) -> Option<SysReply> {
        let now = self.events.now();
        match self.admission {
            Some(a) if requeues < a.max_retries => {
                self.res_counters.preds_requeued.inc();
                self.bus.emit(now, || EventKind::PredRequeue {
                    tid: tid.0,
                    attempt: requeues + 1,
                });
                None
            }
            Some(_) => {
                self.res_counters.preds_shed.inc();
                self.bus.emit(now, || EventKind::PredShed { tid: tid.0 });
                Some(SysReply::Err(SysError::Busy))
            }
            None => Some(SysReply::Err(SysError::Kv(KvError::NoGpuMemory))),
        }
    }

    /// Re-pools a backed-off `pred` after the admission retry delay.
    fn requeue_later(&mut self, mut pred: PendingPred) {
        pred.requeues += 1;
        let delay = self.admission.map(|a| a.retry_delay).unwrap_or_default();
        let at = self.events.now() + delay;
        self.events.schedule(at, Event::RequeuePred { pred });
    }

    /// Pools a `pred` in whichever queue the execution mode uses.
    fn enqueue_pred(&mut self, pred: PendingPred) {
        match self.exec {
            ExecMode::Static => self.sched.on_arrival(self.events.now(), pred),
            ExecMode::Continuous(_) => self.cqueue.push(pred.pid.0, pred.critical, pred),
        }
    }

    // ---- continuous (iteration-level) executor ---------------------------------

    /// Waiting `pred`s in whichever queue the execution mode uses.
    fn pred_queue_len(&self) -> usize {
        match self.exec {
            ExecMode::Static => self.sched.pool_len(),
            ExecMode::Continuous(_) => self.cqueue.len(),
        }
    }

    /// Iteration-level admission: runs one GPU iteration whenever the GPU
    /// is idle and work is admitted or waiting.
    fn maybe_launch_iteration(&mut self, cfg: ContinuousConfig) {
        if self.gpu_busy {
            return;
        }
        if self.active.is_empty() && self.cqueue.is_empty() {
            return;
        }
        let now = self.events.now();
        // Iteration boundary: let the current virtual instant drain first.
        // Replies and syscalls cascade at one instant (per-syscall cost can
        // be zero), so launching mid-cascade would fragment same-time
        // arrivals into single-request iterations.
        if self.events.peek_time() == Some(now) {
            return;
        }
        // Admit from the wait queue — the program-aware (or FIFO) order.
        while self.active.len() < self.max_batch {
            let Some(mut pred) = self.cqueue.pop() else {
                break;
            };
            if !pred.delay_recorded {
                pred.delay_recorded = true;
                self.kmetrics
                    .queue_delay_ns
                    .observe((now - pred.enqueued_at).as_nanos());
            }
            if pred.done == 0 {
                pred.start_len = self.store.len(pred.req.file).unwrap_or(0);
            }
            self.active.push(pred);
        }
        if self.active.is_empty() {
            return;
        }
        self.launch_iteration(cfg);
    }

    /// Picks the preemption victim among active peers of `i`: the
    /// lowest-priority (highest MLFQ level, then latest-arrived) sequence
    /// whose KV is GPU-resident and neither pinned nor locked. Sequences in
    /// `retire` or `preempted` are already leaving the active set.
    fn lowest_priority_peer(
        &self,
        i: usize,
        retire: &[usize],
        preempted: &[usize],
    ) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(j, s)| {
                *j != i
                    && !retire.contains(j)
                    && !preempted.contains(j)
                    && matches!(
                        self.store.residency(s.req.file),
                        Ok(Residency::Gpu | Residency::Mixed)
                    )
                    && self
                        .store
                        .stat(s.req.file)
                        .is_ok_and(|st| !st.pinned && st.locked_by.is_none())
            })
            .max_by_key(|(j, s)| {
                (
                    self.cqueue.level_for(s.pid.0, s.critical),
                    s.enqueued_at,
                    *j,
                )
            })
            .map(|(j, _)| j)
    }

    /// Virtual time to move one swap's traffic: DRAM-tier tokens cross
    /// PCIe, disk-tier tokens additionally cross the (slower) NVMe lane.
    fn swap_cost(&self, moved: SwapReport) -> SimDuration {
        let bpt = self.store.bytes_per_token();
        self.gpu.swap_time(moved.dram_tokens as u64, bpt)
            + self.gpu.disk_swap_time(moved.disk_tokens as u64, bpt)
    }

    /// Runs one token iteration: swap admitted-but-evicted KV back in,
    /// execute one chunk of every resident sequence, retire finished
    /// sequences, and recover from KV exhaustion by preempting.
    fn launch_iteration(&mut self, cfg: ContinuousConfig) {
        let now = self.events.now();
        let chunk = cfg.chunk_tokens.unwrap_or(usize::MAX).max(1);
        // PCIe/NVMe time for swaps performed on behalf of this iteration is
        // charged to the iteration's duration.
        let mut swap_extra = SimDuration::ZERO;

        // 1. Bring non-resident participants' KV back to the GPU (files
        // evicted by an earlier preemption, or swapped while their owner
        // was between `pred`s). A swap-in is only worth its PCIe time if
        // the sequence can then actually *run*, so require headroom for
        // the file plus its next chunk — otherwise the swapped-in file
        // refills exactly the pages a preemption just freed and the
        // iteration appends nothing, forever. Make headroom by evicting
        // idle LRU files first, then by preempting the lowest-priority
        // resident peer.
        let pt = self.store.page_tokens().max(1);
        let mut preempted: Vec<usize> = Vec::new();
        for i in 0..self.active.len() {
            if preempted.contains(&i) {
                continue;
            }
            let (file, spid, stid, need_pages) = {
                let s = &self.active[i];
                let take = (s.req.tokens.len() - s.done).min(chunk);
                let len = self.store.len(s.req.file).unwrap_or(0);
                (
                    s.req.file,
                    s.pid,
                    s.tid,
                    len.div_ceil(pt) + take.div_ceil(pt),
                )
            };
            if matches!(
                self.store.residency(file),
                Ok(Residency::Gpu | Residency::Empty)
            ) {
                continue;
            }
            while self.store.gpu_pages_free() < need_pages {
                let exclude: Vec<FileId> = self
                    .active
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| !preempted.contains(j))
                    .map(|(_, s)| s.req.file)
                    .collect();
                if let Some((victim, moved)) = self.store.evict_lru(&exclude) {
                    swap_extra += self.swap_cost(moved);
                    self.kmetrics.preemptions.inc();
                    self.bus.emit(now, || EventKind::Preempt {
                        file: victim.0,
                        tokens: moved.total() as u64,
                        victim_tid: 0,
                    });
                    continue;
                }
                let Some(j) = self.lowest_priority_peer(i, &[], &preempted) else {
                    break;
                };
                let (vfile, vtid, vpid) = (
                    self.active[j].req.file,
                    self.active[j].tid,
                    self.active[j].pid,
                );
                match self.store.swap_out(vfile, OwnerId::ADMIN) {
                    Ok(moved) => {
                        swap_extra += self.swap_cost(moved);
                        self.kmetrics.preemptions.inc();
                        self.bus.emit(now, || EventKind::Preempt {
                            file: vfile.0,
                            tokens: moved.total() as u64,
                            victim_tid: vtid.0,
                        });
                        // Swap dependency: the victim's eviction funds
                        // this sequence's swap-in.
                        self.bus.emit(now, || EventKind::CausalEdge {
                            edge: EdgeKind::Preempt,
                            src_pid: vpid.0,
                            src_tid: vtid.0,
                            src_at: now,
                            dst_pid: spid.0,
                            dst_tid: stid.0,
                        });
                        preempted.push(j);
                    }
                    Err(_) => break,
                }
            }
            if self.store.gpu_pages_free() < need_pages {
                continue; // cannot fit this iteration; retry later
            }
            if let Ok(moved) = self.store.swap_in(file, OwnerId::ADMIN) {
                swap_extra += self.swap_cost(moved);
                self.bus.emit(now, || EventKind::KvSwap {
                    pid: spid.0,
                    tid: stid.0,
                    file: file.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::In,
                });
            }
        }

        // 2. One slice per resident sequence, at most `chunk` tokens.
        let mut parts: Vec<usize> = Vec::new();
        let mut members = Vec::new();
        let mut requests: Vec<PredRequest> = Vec::new();
        for (i, s) in self.active.iter().enumerate() {
            if !matches!(
                self.store.residency(s.req.file),
                Ok(Residency::Gpu | Residency::Empty)
            ) {
                continue;
            }
            let take = (s.req.tokens.len() - s.done).min(chunk);
            requests.push(PredRequest {
                file: s.req.file,
                owner: s.req.owner,
                tokens: s.req.tokens[s.done..s.done + take].to_vec(),
            });
            members.push((s.pid, s.tid, s.enqueued_at));
            parts.push(i);
        }
        if parts.is_empty() {
            return;
        }

        // 3. Launch; phases 4–6 settle the results.
        self.launch_gpu(requests, &members, move |k, batch_id, results| {
            k.settle_iteration(batch_id, results, &parts, preempted, chunk, swap_extra)
        });
    }

    /// Phases 4–6 of [`Kernel::launch_iteration`]: applies the results of
    /// the iteration members `parts` (active indices, in launch order).
    /// Returns the replies and the iteration's swap time, which phase 5
    /// adds to `swap_extra`.
    fn settle_iteration(
        &mut self,
        batch_id: u64,
        results: Vec<(PredRequest, Result<PredResult, ExecError>)>,
        parts: &[usize],
        mut preempted: Vec<usize>,
        chunk: usize,
        mut swap_extra: SimDuration,
    ) -> (Vec<(Tid, SysReply)>, SimDuration) {
        let now = self.events.now();
        // 4. Apply results: accumulate chunk progress, retire finished or
        // terminally failed sequences, collect KV-exhausted ones.
        let mut replies: Vec<(Tid, SysReply)> = Vec::new();
        let mut retire: Vec<usize> = Vec::new();
        let mut failed_mem: Vec<usize> = Vec::new();
        for ((req, res), &i) in results.into_iter().zip(parts) {
            let take = req.tokens.len();
            match res {
                Ok(r) => {
                    let s = &mut self.active[i];
                    s.dists.extend(r.dists);
                    s.done += take;
                    let total = s.req.tokens.len();
                    if s.done < total || take < total {
                        self.kmetrics.prefill_chunks.inc();
                        let (ctid, ctk, cdone, ctotal) =
                            (s.tid.0, take as u32, s.done as u32, total as u32);
                        self.bus.emit(now, || EventKind::ChunkExec {
                            tid: ctid,
                            batch: batch_id,
                            tokens: ctk,
                            done: cdone,
                            total: ctotal,
                        });
                    }
                    let (cpid, ccrit, cseq, ctid) = (s.pid, s.critical, s.seq, s.tid);
                    let finished_dists = if s.done == total {
                        Some(std::mem::take(&mut s.dists))
                    } else {
                        None
                    };
                    if let Some(dists) = finished_dists {
                        let reply = self.pred_reply(cpid, cseq, Ok(dists));
                        replies.push((ctid, reply));
                        retire.push(i);
                    }
                    self.cqueue.charge(cpid.0, ccrit, take as u64);
                }
                Err(ExecError::Kv(KvError::NoGpuMemory)) => failed_mem.push(i),
                Err(e) => {
                    self.roll_back(i);
                    let (spid, sseq, stid) = {
                        let s = &self.active[i];
                        (s.pid, s.seq, s.tid)
                    };
                    let reply = self.pred_reply(spid, sseq, Err(e));
                    replies.push((stid, reply));
                    retire.push(i);
                }
            }
        }

        // 5. KV exhaustion: free pages by evicting idle files, then by
        // preempting the lowest-priority co-running sequence; only when
        // nothing is evictable fall back to admission-control requeue/shed
        // (static-mode semantics). `preempted` carries over phase 1's
        // swap-in victims so phase 6 requeues them too.
        let mut requeued: Vec<usize> = Vec::new();
        for &i in &failed_mem {
            if preempted.contains(&i) {
                continue; // became a victim of an earlier recovery
            }
            let file = self.active[i].req.file;
            let need = (self.active[i].req.tokens.len() - self.active[i].done).min(chunk);
            loop {
                if self.store.can_append(file, need).unwrap_or(false) {
                    break;
                }
                let exclude: Vec<FileId> = self
                    .active
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| !retire.contains(j) && !preempted.contains(j))
                    .map(|(_, s)| s.req.file)
                    .collect();
                if let Some((victim, moved)) = self.store.evict_lru(&exclude) {
                    swap_extra += self.swap_cost(moved);
                    self.kmetrics.preemptions.inc();
                    self.bus.emit(now, || EventKind::Preempt {
                        file: victim.0,
                        tokens: moved.total() as u64,
                        victim_tid: 0,
                    });
                    continue;
                }
                // No idle victim left: preempt the lowest-priority peer
                // (highest MLFQ level, then latest arrival).
                let Some(j) = self.lowest_priority_peer(i, &retire, &preempted) else {
                    break; // nothing evictable at all
                };
                let vfile = self.active[j].req.file;
                let vtid = self.active[j].tid;
                match self.store.swap_out(vfile, OwnerId::ADMIN) {
                    Ok(moved) => {
                        swap_extra += self.swap_cost(moved);
                        self.kmetrics.preemptions.inc();
                        self.bus.emit(now, || EventKind::Preempt {
                            file: vfile.0,
                            tokens: moved.total() as u64,
                            victim_tid: vtid.0,
                        });
                        preempted.push(j);
                    }
                    Err(_) => break,
                }
            }
            if self.store.can_append(file, need).unwrap_or(false) {
                continue; // stays active; next iteration makes progress
            }
            let (stid, srequeues) = (self.active[i].tid, self.active[i].requeues);
            match self.kv_exhausted(stid, srequeues) {
                None => requeued.push(i),
                Some(reply) => {
                    self.roll_back(i);
                    replies.push((stid, reply));
                    retire.push(i);
                }
            }
        }

        // 6. Rebuild the active set: drop retired sequences, move preempted
        // and requeued ones back to the wait queue (keeping their chunk
        // progress — preemption only changes timing, never results).
        let mut kept = Vec::with_capacity(self.active.len());
        for (j, s) in std::mem::take(&mut self.active).into_iter().enumerate() {
            if retire.contains(&j) {
                continue;
            }
            if preempted.contains(&j) {
                let (spid, scrit) = (s.pid.0, s.critical);
                self.cqueue.push_front(spid, scrit, s);
            } else if requeued.contains(&j) {
                self.requeue_later(s);
            } else {
                kept.push(s);
            }
        }
        self.active = kept;
        (replies, swap_extra)
    }

    /// A failed continuous-mode `pred` leaves no partial work behind,
    /// exactly as in static mode: truncate what its earlier chunks
    /// appended.
    fn roll_back(&mut self, i: usize) {
        let s = &self.active[i];
        if s.done > 0 {
            let _ = self.store.truncate(s.req.file, s.req.owner, s.start_len);
        }
    }

    // ---- syscall dispatch -----------------------------------------------------------

    /// Schedules a reply after the per-syscall CPU charge.
    fn complete(&mut self, tid: Tid, reply: SysReply) {
        let at = self.events.now() + self.syscall_cost;
        self.events.schedule(at, Event::Resume(tid, reply));
    }

    /// Draws `pid`'s next effect sequence number from one syscall class's
    /// stream (`seq_of`) and, for a durable process, looks that call up in
    /// the replayed journal (`journal`). Every journalled syscall enters
    /// through here; `None` when `pid` is not in the process table.
    fn journalled<T: Clone>(
        &mut self,
        pid: Pid,
        seq_of: fn(&mut EffectSeqs) -> &mut u64,
        journal: fn(&wal::Replay) -> &BTreeMap<(u64, u64), T>,
    ) -> Option<(u64, Option<T>)> {
        let proc = self.procs.get_mut(pid.0)?;
        let next = seq_of(&mut proc.seqs);
        let seq = *next;
        *next += 1;
        let hit = match &self.replay {
            Some(r) if proc.durable => journal(r).get(&(pid.0, seq)).cloned(),
            _ => None,
        };
        Some((seq, hit))
    }

    /// Answers a syscall from the WAL effect journal during recovery
    /// replay — the recovery-replay phase bucket.
    fn answer_from_journal(&mut self, pid: Pid, tid: Tid, sys: &'static str, reply: SysReply) {
        let at = self.events.now();
        self.bus.emit(at, || EventKind::ReplayAnswered {
            pid: pid.0,
            tid: tid.0,
            sys,
        });
        self.complete(tid, reply);
    }

    fn owner_of(&self, tid: Tid) -> Option<(Pid, OwnerId)> {
        let pid = self.threads.get(tid.0)?.pid;
        Some((pid, OwnerId(pid.0)))
    }

    fn handle_syscall(&mut self, tid: Tid, call: Syscall) {
        // A syscall from a thread the kernel no longer tracks has no owner
        // to charge or answer; drop it instead of panicking the kernel.
        let Some((pid, owner)) = self.owner_of(tid) else {
            debug_assert!(false, "syscall from unknown tid {}", tid.0);
            return;
        };
        // Crash injection: every syscall boundary is a kill-point. The
        // crash fires *before* the syscall executes, so a handler either
        // ran and journalled its effect pre-crash, or did neither —
        // effects are atomic with their WAL frames under this model.
        self.syscall_boundaries += 1;
        if self.injector.kernel_crash(self.syscall_boundaries) {
            self.crash_now(self.syscall_boundaries);
            return;
        }
        // Open a syscall span; `resume` closes it when the reply is
        // delivered back to the LIP.
        let sys_name = call.name();
        let sys_at = self.events.now();
        self.bus.emit(sys_at, || EventKind::SyscallEnter {
            pid: pid.0,
            tid: tid.0,
            name: sys_name,
        });
        if let Some(ts) = self.threads.get_mut(tid.0) {
            ts.open_syscall = Some(sys_name);
        }
        // Fails the syscall with a typed error when a bookkeeping lookup
        // that "cannot" miss does miss (lint rule k1: no kernel panics).
        macro_rules! sys {
            ($opt:expr, $what:literal) => {
                match $opt {
                    Some(v) => v,
                    None => {
                        self.complete(tid, SysReply::Err(SysError::Internal($what)));
                        return;
                    }
                }
            };
        }

        // Global syscall accounting and limit.
        let (syscalls_so_far, max_syscalls) = {
            let rec = sys!(self.records.get_mut(pid.0), "process record missing");
            rec.usage.syscalls += 1;
            (rec.usage.syscalls, self.procs[pid.0].limits.max_syscalls)
        };
        if let Some(max) = max_syscalls {
            if syscalls_so_far > max {
                self.complete(tid, SysReply::Err(SysError::LimitExceeded("syscalls")));
                return;
            }
        }
        // Wall-clock deadline: once past it, every syscall fails.
        if let Some(t) = self.procs[pid.0].deadline_at {
            if self.events.now() >= t {
                let proc = sys!(self.procs.get_mut(pid.0), "process missing");
                if !proc.deadline_hit {
                    proc.deadline_hit = true;
                    self.res_counters.deadline_kills.inc();
                    self.bus
                        .emit(sys_at, || EventKind::DeadlineHit { pid: pid.0 });
                }
                self.complete(tid, SysReply::Err(SysError::DeadlineExceeded));
                return;
            }
        }
        // Cancellation: like a deadline hit, once set every syscall fails.
        if self.procs[pid.0].cancelled {
            self.complete(tid, SysReply::Err(SysError::Cancelled));
            return;
        }

        macro_rules! kv {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => {
                        self.complete(tid, SysReply::Err(SysError::Kv(e)));
                        return;
                    }
                }
            };
        }

        match call {
            Syscall::Pred { kv, tokens } => {
                if tokens.is_empty() {
                    self.complete(tid, SysReply::Err(SysError::BadArgument));
                    return;
                }
                // Bounded admission queue: shed before accounting the work.
                if let Some(adm) = self.admission {
                    if self.pred_queue_len() >= adm.max_queue {
                        self.res_counters.preds_shed.inc();
                        self.bus.emit(sys_at, || EventKind::PredShed { tid: tid.0 });
                        self.complete(tid, SysReply::Err(SysError::Busy));
                        return;
                    }
                }
                let limit = self.procs[pid.0].limits.max_pred_tokens;
                let rec = sys!(self.records.get_mut(pid.0), "process record missing");
                rec.usage.pred_calls += 1;
                rec.usage.pred_tokens += tokens.len() as u64;
                if let Some(max) = limit {
                    if rec.usage.pred_tokens > max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("pred_tokens")));
                        return;
                    }
                }
                let n_tokens = tokens.len() as u32;
                let pool = self.pred_queue_len() as u32;
                self.bus.emit(sys_at, || EventKind::PredEnqueue {
                    tid: tid.0,
                    tokens: n_tokens,
                    pool,
                });
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.pred, |r| &r.preds),
                    "process missing"
                );
                // Recovery replay: a pred whose distributions were durable
                // at the crash answers from the log, rebuilding its KV
                // append without charging GPU time.
                if let Some(dists) = hit.filter(|d| d.len() == tokens.len()) {
                    if self.replay_pred_append(kv, owner, &tokens) {
                        self.answer_from_journal(pid, tid, sys_name, SysReply::Dists(dists));
                        return;
                    }
                }
                let critical = self.procs[pid.0].main_tid == tid;
                let pending = PendingPred {
                    tid,
                    req: PredRequest {
                        file: kv,
                        owner,
                        tokens,
                    },
                    requeues: 0,
                    enqueued_at: self.events.now(),
                    pid,
                    critical,
                    done: 0,
                    dists: Vec::new(),
                    start_len: 0,
                    delay_recorded: false,
                    seq,
                };
                self.enqueue_pred(pending);
                // Thread stays parked; the batch scheduler will resume it.
            }
            Syscall::KvCreate => {
                let f = kv!(self.store.create(owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_create",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvOpen { path } => {
                let f = kv!(self.store.open(&path, owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_open",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvLink { kv, path } => {
                kv!(self.store.link(kv, &path, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnlink { path } => {
                kv!(self.store.unlink(&path, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvFork { kv } => {
                let f = kv!(self.store.fork(kv, owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_fork",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvRemove { kv } => {
                kv!(self.store.remove(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvLen { kv } => {
                let n = kv!(self.store.len(kv));
                self.complete(tid, SysReply::Len(n));
            }
            Syscall::KvNextPos { kv } => {
                let p = kv!(self.store.next_position(kv));
                self.complete(tid, SysReply::Pos(p));
            }
            Syscall::KvTruncate { kv, len } => {
                kv!(self.store.truncate(kv, owner, len));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvExtract { kv, ranges } => {
                let f = kv!(self.store.extract(kv, owner, &ranges));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_extract",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvMerge { kvs } => {
                let f = kv!(self.store.merge(&kvs, owner));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_merge",
                    file: f.0,
                });
                self.complete(tid, SysReply::Handle(f));
            }
            Syscall::KvRead { kv, start, count } => {
                let e = kv!(self.store.read(kv, owner, start, count));
                self.bus.emit(sys_at, || EventKind::KvOp {
                    pid: pid.0,
                    tid: tid.0,
                    op: "kv_read",
                    file: kv.0,
                });
                self.complete(tid, SysReply::Entries(e));
            }
            Syscall::KvPin { kv } => {
                kv!(self.store.pin(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnpin { kv } => {
                kv!(self.store.unpin(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvLock { kv } => {
                kv!(self.store.lock(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvUnlock { kv } => {
                kv!(self.store.unlock(kv, owner));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvChmod { kv, mode } => {
                kv!(self.store.chmod(kv, owner, mode));
                self.complete(tid, SysReply::Unit);
            }
            Syscall::KvStat { kv } => {
                let s = kv!(self.store.stat(kv));
                self.complete(tid, SysReply::Stat(Box::new(s)));
            }
            Syscall::KvSwapOut { kv } => {
                let moved = kv!(self.store.swap_out(kv, owner));
                self.bus.emit(sys_at, || EventKind::KvSwap {
                    pid: pid.0,
                    tid: tid.0,
                    file: kv.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::Out,
                });
                let cost = self.swap_cost(moved);
                let at = self.events.now() + self.syscall_cost + cost;
                self.events.schedule(at, Event::Resume(tid, SysReply::Unit));
            }
            Syscall::KvSwapIn { kv } => {
                // Injected PCIe/host-memory fault: the transfer fails, the
                // file stays swapped out, and the LIP may retry.
                if self.injector.swap_in() {
                    self.bus
                        .emit(sys_at, || EventKind::FaultInjected { site: "kv.swap_in" });
                    self.complete(tid, SysReply::Err(SysError::Fault("kv.swap_in")));
                    return;
                }
                let moved = kv!(self.store.swap_in(kv, owner));
                self.bus.emit(sys_at, || EventKind::KvSwap {
                    pid: pid.0,
                    tid: tid.0,
                    file: kv.0,
                    tokens: moved.total() as u64,
                    disk_tokens: moved.disk_tokens as u64,
                    dir: SwapDir::In,
                });
                let cost = self.swap_cost(moved);
                let at = self.events.now() + self.syscall_cost + cost;
                self.events.schedule(at, Event::Resume(tid, SysReply::Unit));
            }
            Syscall::Spawn { f } => {
                let proc = &self.procs[pid.0];
                if let Some(max) = proc.limits.max_threads {
                    if proc.live_threads >= max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("threads")));
                        return;
                    }
                }
                // Sibling threads inherit the process's args string.
                let args = self.procs[pid.0].args.clone();
                let new_tid = self.spawn_thread(pid, args, f, None);
                self.bus.emit(sys_at, || EventKind::CausalEdge {
                    edge: EdgeKind::Spawn,
                    src_pid: pid.0,
                    src_tid: tid.0,
                    src_at: sys_at,
                    dst_pid: pid.0,
                    dst_tid: new_tid.0,
                });
                self.complete(tid, SysReply::NewTid(new_tid));
            }
            Syscall::Join { tid: target } => match self.threads.get_mut(target.0) {
                None => self.complete(tid, SysReply::Err(SysError::NotFound)),
                Some(ts) => match &ts.status {
                    Some(status) => {
                        let s = status.clone();
                        self.complete(tid, SysReply::Joined(s));
                    }
                    None => ts.join_waiters.push(tid),
                },
            },
            Syscall::CallTool { name, args } => {
                let proc = sys!(self.procs.get_mut(pid.0), "process missing");
                if let Some(max) = proc.limits.max_tool_calls {
                    if self.records[pid.0].usage.tool_calls >= max {
                        self.complete(tid, SysReply::Err(SysError::LimitExceeded("tool_calls")));
                        return;
                    }
                }
                // Unknown tool: typed error before any RNG draw, so adding
                // a tool elsewhere never shifts unrelated latency streams.
                if !self.tools.contains(&name) {
                    self.complete(tid, SysReply::Err(SysError::NoSuchTool(name)));
                    return;
                }
                sys!(self.records.get_mut(pid.0), "process record missing")
                    .usage
                    .tool_calls += 1;
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.tool, |r| &r.tools),
                    "process missing"
                );
                let now = self.events.now();
                // Recovery replay: a journalled outcome answers without
                // re-invoking the handler — the side-effect already happened
                // pre-crash, and firing it again would double it. The
                // breaker re-learns the outcome (post-checkpoint reports
                // were lost with the crash) unless the journalled result
                // was itself a breaker rejection.
                if let Some(rec) = hit {
                    if !matches!(rec.result, Err(SysError::Unavailable)) {
                        if let Some(bank) = self.breakers.as_mut() {
                            bank.report(
                                &name,
                                rec.result.is_ok(),
                                now + SimDuration::from_nanos(rec.latency_ns),
                            );
                        }
                    }
                    let reply = match rec.result {
                        Ok(s) => SysReply::Text(s),
                        Err(e) => SysReply::Err(e),
                    };
                    self.answer_from_journal(pid, tid, sys_name, reply);
                    return;
                }
                // Circuit breaker: fast-fail while open (no latency charge
                // beyond the syscall cost — that is the point of breaking).
                if let Some(bank) = self.breakers.as_mut() {
                    match bank.admit(&name, now) {
                        BreakerVerdict::Allow | BreakerVerdict::AllowTrial => {}
                        BreakerVerdict::Reject => {
                            if self.bus.is_enabled() {
                                let tool = name.clone();
                                self.bus.emit(now, || EventKind::BreakerReject {
                                    pid: pid.0,
                                    tid: tid.0,
                                    tool,
                                });
                            }
                            if self.is_durable(pid) {
                                self.wal_append(WalRecord::ToolEffect {
                                    at: now,
                                    pid: pid.0,
                                    seq,
                                    latency_ns: 0,
                                    fired: false,
                                    result: Err(SysError::Unavailable),
                                });
                            }
                            self.complete(tid, SysReply::Err(SysError::Unavailable));
                            return;
                        }
                    }
                }
                // Per-tool policy overrides the kernel-wide default.
                let policy = self
                    .tools
                    .retry_policy(&name)
                    .or(self.tool_retry)
                    .unwrap_or_default();
                let timeout = self.procs[pid.0].limits.tool_timeout;
                // All attempts are planned synchronously: the virtual time
                // the call occupies is the sum of per-attempt charges
                // (latency clamped to the timeout) plus backoff delays, and
                // one IoDone at the end delivers the final result.
                let mut total = SimDuration::ZERO;
                let mut failures = 0u32;
                let final_result = loop {
                    let fault = self.injector.tool_attempt();
                    if fault.is_some() {
                        self.bus
                            .emit(now, || EventKind::FaultInjected { site: "tool" });
                    }
                    // Existence was checked above and the registry is
                    // append-only; if the lookup fails anyway, that error
                    // becomes the call's final result instead of a panic.
                    let (latency, outcome) = match self.tools.invoke(&name, &args, &mut self.rng) {
                        Ok(v) => v,
                        Err(e) => break Err(e),
                    };
                    let mut eff_latency = match fault {
                        Some(ToolFaultKind::Hang) => latency * self.injector.stall_factor(),
                        _ => latency,
                    };
                    let mut attempt_result = match fault {
                        Some(ToolFaultKind::Fail) => Err(SysError::Fault("tool")),
                        _ => match outcome {
                            ToolOutcome::Ok(s) => Ok(s),
                            ToolOutcome::Failed(msg) => Err(SysError::ToolFailed(msg)),
                        },
                    };
                    if let Some(to) = timeout {
                        if eff_latency > to {
                            eff_latency = to;
                            attempt_result = Err(SysError::Timeout);
                            self.res_counters.tool_timeouts.inc();
                        }
                    }
                    total += eff_latency;
                    match attempt_result {
                        Ok(s) => break Ok(s),
                        Err(e) => {
                            failures += 1;
                            if policy.should_retry(failures) {
                                self.res_counters.tool_retries.inc();
                                if self.bus.is_enabled() {
                                    let tool = name.clone();
                                    self.bus.emit(now, || EventKind::ToolRetry {
                                        pid: pid.0,
                                        tid: tid.0,
                                        tool,
                                        failures,
                                    });
                                }
                                total += policy.backoff_after(failures, &mut self.rng);
                            } else {
                                self.res_counters.tool_calls_exhausted.inc();
                                break Err(e);
                            }
                        }
                    }
                };
                if let Some(bank) = self.breakers.as_mut() {
                    let trips_before = bank.trips();
                    bank.report(&name, final_result.is_ok(), now + total);
                    if bank.trips() > trips_before && self.bus.is_enabled() {
                        let tool = name.clone();
                        self.bus.emit(now, || EventKind::BreakerTrip { tool });
                    }
                }
                self.kmetrics.tool_latency_ns.observe(total.as_nanos());
                if self.bus.is_enabled() {
                    let tool = name.clone();
                    let attempts = failures + u32::from(final_result.is_ok());
                    let latency_ns = total.as_nanos();
                    self.bus.emit(now, || EventKind::ToolInvoke {
                        pid: pid.0,
                        tid: tid.0,
                        tool,
                        attempts,
                        latency_ns,
                    });
                }
                // The handler fired and its outcome is decided: make it
                // durable *now*, atomically with the effect under the
                // syscall-boundary crash model, so recovery never re-fires
                // the tool (exactly-once side-effects).
                if self.is_durable(pid) {
                    self.wal_append(WalRecord::ToolEffect {
                        at: now,
                        pid: pid.0,
                        seq,
                        latency_ns: total.as_nanos(),
                        fired: true,
                        result: final_result.clone(),
                    });
                }
                self.begin_io(pid, total);
                self.events.schedule(
                    now + total,
                    Event::IoDone {
                        tid,
                        result: final_result,
                        issued_at: now,
                    },
                );
            }
            Syscall::SendMsg { to, data } => {
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.send, |r| &r.send_results),
                    "process missing"
                );
                // Recovery replay: the delivery (if any) happened pre-crash
                // and is already in the rebuilt mailbox or a journalled
                // recv; re-delivering would duplicate the message.
                if let Some(ok) = hit {
                    let reply = if ok {
                        SysReply::Unit
                    } else {
                        SysReply::Err(SysError::NotFound)
                    };
                    self.answer_from_journal(pid, tid, sys_name, reply);
                    return;
                }
                let ok = self.procs.get(to.0).is_some_and(|t| !t.finished);
                // Injected drop (drawn only for a live target): the message
                // vanishes in flight. The sender still sees success — IPC is
                // at-most-once, like UDP — so resilient LIPs need
                // acks/timeouts, which the chaos tests exercise.
                let delivered = ok && !self.injector.ipc_send();
                if ok && !delivered {
                    self.bus.emit(sys_at, || EventKind::IpcDrop {
                        from: pid.0,
                        to: to.0,
                    });
                }
                // Delivery wakes a parked receiver or queues in the mailbox.
                let mut waiter = None;
                if delivered {
                    let target = sys!(self.procs.get_mut(to.0), "ipc target missing");
                    waiter = target.recv_waiters.pop_front();
                    if waiter.is_none() {
                        target.mailbox.push_back((pid, data.clone(), sys_at, tid.0));
                    }
                }
                // Journal the send when either endpoint is durable: the
                // sender's replay needs the result; the receiver's mailbox
                // rebuild needs the payload.
                if self.is_durable(pid) || self.is_durable(to) {
                    self.wal_append(WalRecord::IpcSend {
                        at: sys_at,
                        from: pid.0,
                        to: to.0,
                        seq,
                        ok,
                        delivered,
                        data: data.clone(),
                    });
                }
                if !ok {
                    self.complete(tid, SysReply::Err(SysError::NotFound));
                    return;
                }
                if let Some((wtid, rseq)) = waiter {
                    if self.is_durable(to) {
                        self.wal_append(WalRecord::IpcRecv {
                            at: sys_at,
                            pid: to.0,
                            seq: rseq,
                            from: pid.0,
                            data: data.clone(),
                        });
                    }
                    // Direct delivery: this send wakes the parked recv.
                    self.bus.emit(sys_at, || EventKind::CausalEdge {
                        edge: EdgeKind::Ipc,
                        src_pid: pid.0,
                        src_tid: tid.0,
                        src_at: sys_at,
                        dst_pid: to.0,
                        dst_tid: wtid.0,
                    });
                    self.complete(wtid, SysReply::Msg { from: pid, data });
                }
                self.complete(tid, SysReply::Unit);
            }
            Syscall::Recv => {
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.recv, |r| &r.recvs),
                    "process missing"
                );
                if let Some((from, data)) = hit {
                    let from = Pid(from);
                    self.answer_from_journal(pid, tid, sys_name, SysReply::Msg { from, data });
                    return;
                }
                let delivered = {
                    let proc = sys!(self.procs.get_mut(pid.0), "process missing");
                    match proc.mailbox.pop_front() {
                        Some(m) => Some(m),
                        None => {
                            proc.recv_waiters.push_back((tid, seq));
                            None
                        }
                    }
                };
                if let Some((from, data, sent_at, sender_tid)) = delivered {
                    if self.is_durable(pid) {
                        self.wal_append(WalRecord::IpcRecv {
                            at: sys_at,
                            pid: pid.0,
                            seq,
                            from: from.0,
                            data: data.clone(),
                        });
                    }
                    if sender_tid != 0 {
                        // Mailbox hit: the buffered send (at `sent_at`) is
                        // what answers this recv.
                        self.bus.emit(sys_at, || EventKind::CausalEdge {
                            edge: EdgeKind::Ipc,
                            src_pid: from.0,
                            src_tid: sender_tid,
                            src_at: sent_at,
                            dst_pid: pid.0,
                            dst_tid: tid.0,
                        });
                    }
                    self.complete(tid, SysReply::Msg { from, data });
                }
            }
            Syscall::LookupProcess { name } => {
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.lookup, |r| &r.lookups),
                    "process missing"
                );
                if let Some(found) = hit {
                    let reply = SysReply::MaybePid(found.map(Pid));
                    self.answer_from_journal(pid, tid, sys_name, reply);
                    return;
                }
                // `names` holds unfinished processes only; the most
                // recently admitted one answers.
                let found = self.names.get(&name).and_then(|pids| pids.last()).copied();
                if self.is_durable(pid) {
                    self.wal_append(WalRecord::Lookup {
                        at: sys_at,
                        pid: pid.0,
                        seq,
                        found: found.map(|p| p.0),
                    });
                }
                self.complete(tid, SysReply::MaybePid(found));
            }
            Syscall::Sleep { dur } => {
                let at = self.events.now() + dur;
                self.events.schedule(at, Event::Resume(tid, SysReply::Unit));
            }
            Syscall::Emit { text } => {
                sys!(self.records.get_mut(pid.0), "process record missing")
                    .output
                    .push_str(&text);
                if self.session_sink.is_some() {
                    self.notify_session(SessionEvent::Emitted {
                        pid,
                        at: sys_at,
                        text,
                        tokens: 0,
                    });
                }
                self.complete(tid, SysReply::Unit);
            }
            Syscall::EmitTokens { tokens } => {
                let text = self.tokenizer.decode(&tokens);
                let rec = sys!(self.records.get_mut(pid.0), "process record missing");
                rec.output.push_str(&text);
                rec.usage.emitted_tokens += tokens.len() as u64;
                if self.session_sink.is_some() {
                    let n = tokens.len() as u64;
                    self.notify_session(SessionEvent::Emitted {
                        pid,
                        at: sys_at,
                        text,
                        tokens: n,
                    });
                }
                self.complete(tid, SysReply::Unit);
            }
            Syscall::Tokenize { text } => {
                let tokens = self.tokenizer.encode(&text);
                self.complete(tid, SysReply::Tokens(tokens));
            }
            Syscall::Detokenize { tokens } => {
                let text = self.tokenizer.decode(&tokens);
                self.complete(tid, SysReply::Text(text));
            }
            Syscall::Now => {
                let (seq, hit) = sys!(
                    self.journalled(pid, |s| &mut s.now, |r| &r.nows),
                    "process missing"
                );
                // Replayed `now` returns the *original* observation: the
                // recovered clock starts past the crash point, and a LIP
                // branching on time must see the same values it saw before.
                if let Some(t) = hit {
                    self.answer_from_journal(pid, tid, sys_name, SysReply::Time(t));
                    return;
                }
                let t = self.events.now();
                if self.is_durable(pid) {
                    self.wal_append(WalRecord::NowEffect {
                        at: sys_at,
                        pid: pid.0,
                        seq,
                        t,
                    });
                }
                self.complete(tid, SysReply::Time(t));
            }
        }
    }

    // ---- I/O with KV offload (§4.3) ------------------------------------------------

    fn begin_io(&mut self, pid: Pid, latency: SimDuration) {
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "begin_io: unknown pid {}", pid.0);
            return;
        };
        proc.io_waiting += 1;
        if !self.offload_on_io_wait || latency < self.offload_min_latency {
            return;
        }
        // Offload the process's GPU-resident, unpinned files to host memory.
        let owner = OwnerId(pid.0);
        let victims: Vec<FileId> = self
            .store
            .list_files()
            .into_iter()
            .filter(|s| s.owner == owner && !s.pinned && s.residency == Residency::Gpu)
            .map(|s| s.id)
            .collect();
        for f in victims {
            if self.store.swap_out(f, owner).is_ok() {
                if let Some(proc) = self.procs.get_mut(pid.0) {
                    proc.offloaded.push(f);
                }
                let at = self.events.now();
                self.bus.emit(at, || EventKind::KvOffload {
                    pid: pid.0,
                    file: f.0,
                });
            }
        }
    }

    fn finish_io(&mut self, tid: Tid, result: Result<String, SysError>, issued_at: SimTime) {
        let Some(ts) = self.threads.get(tid.0) else {
            return;
        };
        let pid = ts.pid;
        // Tool edge: the call issued at `issued_at` is what lets this
        // thread resume now.
        let at = self.events.now();
        self.bus.emit(at, || EventKind::CausalEdge {
            edge: EdgeKind::Tool,
            src_pid: pid.0,
            src_tid: tid.0,
            src_at: issued_at,
            dst_pid: pid.0,
            dst_tid: tid.0,
        });
        // A missing process record still must not swallow the reply: skip
        // the offload bookkeeping but deliver the result to the thread.
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "finish_io: unknown pid {}", pid.0);
            let reply = match result {
                Ok(s) => SysReply::Text(s),
                Err(e) => SysReply::Err(e),
            };
            self.ready.push_back((tid, reply));
            return;
        };
        // An underflow here means an IoDone fired for a process that never
        // entered `begin_io` — a bookkeeping bug that a silent clamp would
        // hide (and with it the offload-restore trigger below).
        let underflow = proc.io_waiting == 0;
        debug_assert!(!underflow, "finish_io: io_waiting underflow pid={}", pid.0);
        proc.io_waiting = proc.io_waiting.saturating_sub(1);
        if underflow {
            self.kmetrics.io_waiting_underflow.inc();
        }
        let proc = match self.procs.get_mut(pid.0) {
            Some(p) => p,
            None => return,
        };
        let mut restored = SwapReport::default();
        if proc.io_waiting == 0 && !proc.offloaded.is_empty() {
            let files = std::mem::take(&mut proc.offloaded);
            let owner = OwnerId(pid.0);
            for f in files {
                // Injected restore fault: the file stays in host memory.
                // The LIP's next `pred` on it sees `Kv(NotResident)` and
                // can swap it in explicitly — containment, not a crash.
                if self.injector.swap_in() {
                    let at = self.events.now();
                    self.bus
                        .emit(at, || EventKind::FaultInjected { site: "kv.restore" });
                    continue;
                }
                if let Ok(moved) = self.store.swap_in(f, owner) {
                    restored.dram_tokens += moved.dram_tokens;
                    restored.disk_tokens += moved.disk_tokens;
                }
            }
        }
        let reply = match result {
            Ok(s) => SysReply::Text(s),
            Err(e) => SysReply::Err(e),
        };
        let restore_tokens = restored.total();
        if restore_tokens > 0 {
            // The thread pays the PCIe (and NVMe, for disk-spilled pages)
            // restore time before resuming.
            let cost = self.swap_cost(restored);
            let at = self.events.now();
            self.bus.emit(at, || EventKind::KvRestore {
                pid: pid.0,
                tokens: restore_tokens as u64,
            });
            self.events
                .schedule(self.events.now() + cost, Event::Resume(tid, reply));
        } else {
            self.ready.push_back((tid, reply));
        }
    }

    // ---- exit and cleanup --------------------------------------------------------

    fn handle_exit(&mut self, tid: Tid, status: ExitStatus) {
        let (pid, waiters, handle) = {
            // An exit from a thread the kernel never tracked has nothing to
            // clean up; the count is only decremented on a real exit.
            let Some(ts) = self.threads.get_mut(tid.0) else {
                debug_assert!(false, "exit from unknown tid {}", tid.0);
                return;
            };
            ts.status = Some(status.clone());
            (
                ts.pid,
                std::mem::take(&mut ts.join_waiters),
                ts.handle.take(),
            )
        };
        self.live_threads -= 1;
        if let Some(h) = handle {
            h.join();
        }
        for w in waiters {
            // Join edge: this thread's exit unblocks the joiner.
            let at = self.events.now();
            let threads = &self.threads;
            self.bus.emit(at, || EventKind::CausalEdge {
                edge: EdgeKind::Join,
                src_pid: pid.0,
                src_tid: tid.0,
                src_at: at,
                dst_pid: threads.get(w.0).map_or(pid.0, |t| t.pid.0),
                dst_tid: w.0,
            });
            self.complete(w, SysReply::Joined(status.clone()));
        }
        let Some(proc) = self.procs.get_mut(pid.0) else {
            debug_assert!(false, "exit for unknown pid {}", pid.0);
            return;
        };
        proc.live_threads -= 1;
        let is_main = proc.main_tid == tid;
        let process_done = proc.live_threads == 0;
        if is_main {
            if let Some(rec) = self.records.get_mut(pid.0) {
                rec.status = status.clone();
            }
        }
        let at = self.events.now();
        let ok = status.is_ok();
        self.bus.emit(at, || EventKind::ThreadExit {
            pid: pid.0,
            tid: tid.0,
            ok,
        });
        if process_done {
            self.finalize_process(pid);
        }
    }

    /// Reclaims a finished process's resources: releases its locks and
    /// removes its *unnamed* KV files. Files published under a path persist
    /// beyond the process lifetime (§4.2).
    fn finalize_process(&mut self, pid: Pid) {
        let owner = OwnerId(pid.0);
        self.store.release_locks(owner);
        self.cqueue.forget(pid.0);
        let victims: Vec<FileId> = self
            .store
            .list_files()
            .into_iter()
            .filter(|s| s.owner == owner && s.links == 0)
            .map(|s| s.id)
            .collect();
        for f in victims {
            let _ = self.store.remove(f, OwnerId::ADMIN);
        }
        let mut durable = false;
        if let Some(proc) = self.procs.get_mut(pid.0) {
            proc.finished = true;
            proc.mailbox.clear();
            durable = proc.durable;
        }
        let now = self.events.now();
        let Some(rec) = self.records.get_mut(pid.0) else {
            debug_assert!(false, "finalize for unknown pid {}", pid.0);
            return;
        };
        rec.exited_at = Some(now);
        self.exited += 1;
        if let Some(pids) = self.names.get_mut(&rec.name) {
            pids.remove(&pid);
            if pids.is_empty() {
                self.names.remove(&rec.name);
            }
        }
        let ok = rec.status.is_ok();
        if durable {
            // A durable exit frame makes the whole program's outcome
            // durable: recovery restores it as a record, no re-execution.
            let exit = WalRecord::ProcExit {
                at: now,
                pid: pid.0,
                status: rec.status.clone(),
                output: rec.output.clone(),
                usage: rec.usage,
            };
            self.wal_append(exit);
        }
        self.bus
            .emit(now, || EventKind::ProcessExit { pid: pid.0, ok });
        if self.session_sink.is_some() {
            let (status, usage) = match self.records.get(pid.0) {
                Some(rec) => (rec.status.clone(), rec.usage),
                None => return,
            };
            self.notify_session(SessionEvent::Exited {
                pid,
                at: now,
                status,
                usage,
            });
        }
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // Unblock every parked LIP thread (their recv fails once the reply
        // sender drops), then join the OS threads.
        let mut threads = std::mem::take(&mut self.threads);
        let mut handles = Vec::new();
        for (_, ts) in threads.drain() {
            drop(ts.reply_tx);
            if let Some(h) = ts.handle {
                handles.push(h);
            }
        }
        for h in handles {
            h.join();
        }
    }
}
