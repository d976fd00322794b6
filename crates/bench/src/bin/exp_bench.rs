//! BENCH — the raw-speed trajectory harness (ROADMAP item 4).
//!
//! Micro benchmarks time the individual hot structures (event queue, KVFS
//! operations, MLFQ dispatch, journal encode/replay) and macro benchmarks
//! time whole serving runs (a shared-prompt agent fleet on the continuous
//! executor, the Fig-3-shaped RAG program on the batch executor), reporting
//! real ops/sec, `sim.events_per_sec` and p99 wall-clock per scenario.
//!
//! Results land in `results/BENCH_tier1.json`, keyed by mode (`full` or
//! `--smoke`), so successive PRs accumulate a perf trajectory in-repo. The
//! `--check <baseline>` gate re-reads a checked-in baseline and fails the
//! run when any scenario regresses by more than 20% — normalized against a
//! fixed arithmetic calibration loop measured in the same process, so the
//! gate tracks *relative* speed and survives moving between machines. Every
//! scenario reports its best-of-N repetition: the work is deterministic, so
//! the minimum wall time is the signal and the spread is host noise.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_bench [-- --smoke]`
//! Gate: `... --bin exp_bench -- --smoke --check results/BENCH_tier1.json`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;
use serde_json::Value;
use symphony::sampling::{self, GenOpts};
use symphony::{
    BatchPolicy, ContinuousConfig, Ctx, ExecMode, Kernel, KernelConfig, MlfqConfig, Mode,
    ProgramQueue, QueueDiscipline, SimDuration, SimTime, SysError, ToolOutcome, ToolSpec,
};
use symphony_bench::{ExpArgs, Table};
use symphony_kvfs::{KvEntry, KvStore, KvStoreConfig, OwnerId};
use symphony_sim::{EventQueue, Rng};

/// Regression tolerance of the `--check` gate: a scenario may lose at most
/// this fraction of its baseline (calibration-normalized) throughput.
const GATE_TOLERANCE: f64 = 0.20;

#[derive(Debug, Clone, Serialize)]
struct MicroResult {
    name: String,
    /// Operations performed (the unit is scenario-specific and stable).
    ops: u64,
    wall_ms: f64,
    ops_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct MacroResult {
    name: String,
    runs: usize,
    completed: usize,
    /// Kernel events processed per run (identical across runs — the
    /// simulation is deterministic; only the wall clock varies).
    events: u64,
    /// Generated tokens per run.
    tokens: u64,
    p50_wall_ms: f64,
    p99_wall_ms: f64,
    events_per_sec: f64,
    tokens_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ModeResults {
    /// Ops/sec of the fixed arithmetic calibration loop: the
    /// machine-speed denominator the regression gate divides by.
    calibration_ops_per_sec: f64,
    micro: Vec<MicroResult>,
    r#macro: Vec<MacroResult>,
}

// ---- timing helpers -------------------------------------------------------

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64().max(1e-9)
}

/// How many times each micro scenario repeats; the fastest repetition is
/// reported. Host noise (a busy neighbour, a scheduler hiccup) only ever
/// slows a run down, so the minimum wall time is the signal and everything
/// above it is interference — best-of-N keeps the `--check` gate from
/// tripping on a loaded machine.
const MICRO_REPS: usize = 3;

/// Times `f` (which reports how many operations it performed), keeping the
/// fastest of [`MICRO_REPS`] repetitions.
fn time_micro(name: &str, f: impl Fn() -> u64) -> MicroResult {
    let mut best: Option<MicroResult> = None;
    for _ in 0..MICRO_REPS {
        let start = Instant::now();
        let ops = f();
        let wall = secs(start);
        let r = MicroResult {
            name: name.to_string(),
            ops,
            wall_ms: wall * 1e3,
            ops_per_sec: ops as f64 / wall,
        };
        if best.as_ref().is_none_or(|b| r.ops_per_sec > b.ops_per_sec) {
            best = Some(r);
        }
    }
    best.expect("MICRO_REPS > 0")
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

// ---- calibration ----------------------------------------------------------

/// A fixed integer workload (FNV-1a over a counter stream). Pure ALU work
/// with no allocation: its ops/sec measures the machine, not the codebase,
/// so `bench / calibration` is a machine-independent speed ratio.
fn calibration() -> MicroResult {
    time_micro("calibration", || {
        let n: u64 = 40_000_000;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..n {
            h ^= i;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        std::hint::black_box(h);
        n
    })
}

// ---- micro: event queue ---------------------------------------------------

/// Schedule/pop cycles through the DES heap with a live horizon of `live`
/// events, mimicking a kernel run (every pop schedules a successor).
fn micro_event_queue(rounds: u64, live: u64) -> MicroResult {
    time_micro("event_queue", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(0xE7E7);
        for i in 0..live {
            q.schedule(SimTime::from_nanos(rng.next_u64() % 1_000_000), i);
        }
        let mut ops = live;
        for _ in 0..rounds {
            let Some((t, v)) = q.pop() else { break };
            let dt = 1 + rng.next_u64() % 10_000;
            q.schedule(t + SimDuration::from_nanos(dt), v);
            ops += 2;
        }
        std::hint::black_box(q.now());
        ops
    })
}

// ---- micro: KVFS operations -----------------------------------------------

/// The KVFS hot loop: create → append pages → fork (CoW) → append to the
/// fork (CoW copy) → swap out/in → remove, across a live file population.
fn micro_kvfs_ops(rounds: u64) -> MicroResult {
    time_micro("kvfs_ops", || {
        let cfg = KvStoreConfig {
            page_tokens: 16,
            bytes_per_token: 1024,
            gpu_pages: 4096,
            cpu_pages: 8192,
            disk_pages: 0,
        };
        let mut store = KvStore::new(cfg);
        let owner = OwnerId(1);
        let entries: Vec<KvEntry> = (0..64u32)
            .map(|i| KvEntry::new(i, i, symphony_model::CtxFingerprint(u64::from(i).wrapping_mul(0x9E37_79B9))))
            .collect();
        let mut ops = 0u64;
        let mut live: Vec<symphony_kvfs::FileId> = Vec::new();
        for r in 0..rounds {
            let f = store.create(owner).expect("create");
            store.append(f, owner, &entries).expect("append");
            let g = store.fork(f, owner).expect("fork");
            // Divergent append to the fork: exercises the CoW copy path on
            // the shared tail page.
            store.append(g, owner, &entries[..8]).expect("cow append");
            store.swap_out(f, owner).expect("swap_out");
            store.swap_in(f, owner).expect("swap_in");
            ops += 6;
            live.push(f);
            live.push(g);
            // Keep ~64 files live so lookups see a realistic table.
            while live.len() > 64 {
                let dead = live.remove((r % 64) as usize);
                store.remove(dead, owner).expect("remove");
                ops += 1;
            }
        }
        for f in live {
            store.remove(f, owner).expect("drain");
        }
        debug_assert!(store.verify().is_ok());
        ops
    })
}

// ---- micro: scheduler dispatch --------------------------------------------

/// MLFQ push/pop/charge cycles over a large program population — the
/// continuous executor's per-iteration admission path.
fn micro_sched_dispatch(rounds: u64, programs: u64) -> MicroResult {
    time_micro("sched_dispatch", || {
        let mut q: ProgramQueue<u64> = ProgramQueue::new(QueueDiscipline::Mlfq(MlfqConfig {
            levels: 4,
            quantum_tokens: 512,
        }));
        let mut rng = Rng::new(0x5C4E);
        let mut ops = 0u64;
        for r in 0..rounds {
            // A burst of arrivals across the program population...
            for _ in 0..8 {
                let pid = 1 + rng.next_u64() % programs;
                q.push(pid, true, r);
                ops += 1;
            }
            // ...then dispatch and charge them, like one GPU iteration.
            for _ in 0..8 {
                if q.pop().is_some() {
                    let pid = 1 + rng.next_u64() % programs;
                    q.charge(pid, true, 16);
                    ops += 2;
                }
            }
        }
        std::hint::black_box(q.len());
        ops
    })
}

// ---- micro: journal encode + replay ---------------------------------------

/// Snapshot-journal encode and restore round trips over a populated store;
/// ops counts bytes moved (encode + decode), so `ops_per_sec` is B/s.
fn micro_journal(rounds: u64) -> MicroResult {
    time_micro("journal_roundtrip", || {
        let cfg = KvStoreConfig {
            page_tokens: 16,
            bytes_per_token: 1024,
            gpu_pages: 4096,
            cpu_pages: 4096,
            disk_pages: 0,
        };
        let mut store = KvStore::new(cfg);
        let owner = OwnerId(1);
        for fidx in 0..48u32 {
            let f = store.create(owner).expect("create");
            let entries: Vec<KvEntry> = (0..96u32)
                .map(|i| KvEntry::new(i, i, symphony_model::CtxFingerprint(u64::from(fidx * 96 + i))))
                .collect();
            store.append(f, owner, &entries).expect("append");
            if fidx % 3 == 0 {
                store.link(f, &format!("bench/doc{fidx}.kv"), owner).expect("link");
            }
        }
        let registry = symphony::MetricsRegistry::new();
        let mut bytes_moved = 0u64;
        for _ in 0..rounds {
            let bytes = store.journal_bytes();
            bytes_moved += bytes.len() as u64;
            let (r, _report) = KvStore::restore_from_journal_bytes(cfg, &registry, &bytes)
                .expect("restore");
            bytes_moved += bytes.len() as u64;
            std::hint::black_box(r.gpu_pages_used());
        }
        bytes_moved
    })
}

// ---- macro scenarios ------------------------------------------------------

struct MacroRun {
    completed: usize,
    failed: usize,
    events: u64,
    tokens: u64,
}

/// One agent session: fork the published system prompt if present,
/// otherwise fetch + prefill + publish it (pinned), then answer in a
/// handful of decode steps — `exp_persist`'s fleet shape.
fn agent_lip(ctx: &mut Ctx) -> Result<(), SysError> {
    let kv = match ctx.kv_open("agent/system.kv") {
        Ok(sys) => ctx.kv_fork(sys)?,
        Err(_) => {
            let text = ctx.call_tool("fetch-system", "")?;
            let toks = ctx.tokenize(&text)?;
            let f = ctx.kv_create()?;
            ctx.pred_positions(f, &toks, 0)?;
            if ctx.kv_link(f, "agent/system.kv").is_ok() {
                ctx.kv_chmod(f, Mode::SHARED_READ)?;
                ctx.kv_pin(f)?;
                ctx.kv_fork(f)?
            } else {
                f
            }
        }
    };
    let task = ctx.tokenize(&ctx.args())?;
    sampling::generate(
        ctx,
        kv,
        &task,
        &GenOpts {
            max_tokens: 24,
            emit: false,
            ..Default::default()
        },
    )?;
    ctx.kv_remove(kv)?;
    Ok(())
}

/// Agent fleet on the continuous executor with MLFQ and a KV pool tight
/// enough to force preemption — the kernel-bound serving shape.
fn run_agent_fleet(agents: usize) -> MacroRun {
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: Some(32),
        discipline: QueueDiscipline::Mlfq(MlfqConfig {
            levels: 4,
            quantum_tokens: 256,
        }),
    });
    cfg.max_batch = 16;
    cfg.syscall_cost = SimDuration::from_micros(2);
    let mut kernel = Kernel::new(cfg);
    let sys_text = std::sync::Arc::new("You are a careful planning agent. ".repeat(24));
    {
        let sys = sys_text.clone();
        kernel.register_tool(
            "fetch-system",
            ToolSpec::fixed(SimDuration::from_millis(40), move |_| {
                ToolOutcome::Ok(sys.as_ref().clone())
            }),
        );
    }
    let mut pids = Vec::with_capacity(agents);
    for i in 0..agents {
        let at = SimTime::ZERO + SimDuration::from_millis(5 * i as u64);
        let args = format!("plan step {i} for the deployment rollout");
        pids.push(kernel.schedule_process(at, &format!("agent{i}"), &args, agent_lip));
    }
    kernel.run();
    summarize(&kernel, &pids)
}

/// RAG over a topic corpus on the batch executor: fork a published
/// document prefix on hit, retrieve + prefill + publish on miss — the
/// Fig-3 program shape at bench scale.
fn rag_lip(ctx: &mut Ctx) -> Result<(), SysError> {
    let args = ctx.args();
    let mut parts = args.splitn(2, '|');
    let topic: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(SysError::BadArgument)?;
    let query = parts.next().ok_or(SysError::BadArgument)?.to_string();
    let path = format!("rag/doc{topic}.kv");
    let kv = match ctx.kv_open(&path) {
        Ok(doc) => ctx.kv_fork(doc)?,
        Err(_) => {
            let text = ctx.call_tool("retrieve", &topic.to_string())?;
            let doc_tokens = ctx.tokenize(&text)?;
            let f = ctx.kv_create()?;
            ctx.pred_positions(f, &doc_tokens, 0)?;
            if ctx.kv_link(f, &path).is_ok() {
                ctx.kv_chmod(f, Mode::SHARED_READ)?;
                ctx.kv_fork(f)?
            } else {
                f
            }
        }
    };
    let q = ctx.tokenize(&format!("\n{query}"))?;
    let out = sampling::generate(
        ctx,
        kv,
        &q,
        &GenOpts {
            max_tokens: 16,
            temperature: 0.0,
            emit: false,
            ..Default::default()
        },
    )?;
    ctx.emit_tokens(&out.tokens)?;
    ctx.kv_remove(kv)?;
    Ok(())
}

fn run_rag(requests: usize, topics: usize) -> MacroRun {
    let mut cfg = KernelConfig::for_tests();
    cfg.batch_policy = BatchPolicy::Immediate;
    cfg.max_batch = 32;
    cfg.cpu_swap_bytes = 64_000_000;
    cfg.syscall_cost = SimDuration::from_micros(2);
    let mut kernel = Kernel::new(cfg);
    let doc_text = |t: usize| format!("document about topic {t}. ").repeat(20);
    kernel.register_tool(
        "retrieve",
        ToolSpec::fixed(SimDuration::from_millis(20), move |args| {
            match args.parse::<usize>() {
                Ok(t) => ToolOutcome::Ok(doc_text(t)),
                Err(_) => ToolOutcome::Failed(format!("bad topic: {args}")),
            }
        }),
    );
    let mut rng = Rng::new(0xBA6);
    let mut pids = Vec::with_capacity(requests);
    for i in 0..requests {
        // Zipf-ish skew: low topics are hot, mirroring the Fig-3 regime
        // where retained document KV pays off.
        let draw = rng.next_u64() as usize;
        let topic = (draw % topics).min(draw % 7);
        let at = SimTime::ZERO + SimDuration::from_millis(2 * i as u64);
        let args = format!("{topic}|what changed in revision {i}?");
        pids.push(kernel.schedule_process(at, &format!("rag{i}"), &args, rag_lip));
    }
    kernel.run();
    summarize(&kernel, &pids)
}

fn summarize(kernel: &Kernel, pids: &[symphony::Pid]) -> MacroRun {
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut tokens = 0u64;
    for &pid in pids {
        let rec = kernel.record(pid).expect("record");
        if rec.exited_at.is_some() && rec.status.is_ok() {
            completed += 1;
            tokens += rec.usage.pred_tokens;
        } else {
            failed += 1;
        }
    }
    MacroRun {
        completed,
        failed,
        events: kernel.events_processed(),
        tokens,
    }
}

/// Runs a macro scenario `runs` times. Throughput comes from the *fastest*
/// run (the simulation is deterministic, so every run does identical work
/// and anything above the minimum wall time is host interference — same
/// rationale as [`MICRO_REPS`]); p50/p99 still summarise the whole spread.
fn time_macro(name: &str, runs: usize, f: impl Fn() -> MacroRun) -> MacroResult {
    let mut walls_ms: Vec<f64> = Vec::with_capacity(runs);
    let mut last: Option<MacroRun> = None;
    for _ in 0..runs {
        let start = Instant::now();
        let run = f();
        let wall = secs(start);
        assert_eq!(run.failed, 0, "{name}: macro run had failures");
        if let Some(prev) = &last {
            assert_eq!(
                prev.events, run.events,
                "{name}: non-deterministic event count across runs"
            );
        }
        walls_ms.push(wall * 1e3);
        last = Some(run);
    }
    let run = last.expect("at least one run");
    walls_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let best_secs = walls_ms[0] / 1e3;
    MacroResult {
        name: name.to_string(),
        runs,
        completed: run.completed,
        events: run.events,
        tokens: run.tokens,
        p50_wall_ms: percentile(&walls_ms, 0.50),
        p99_wall_ms: percentile(&walls_ms, 0.99),
        events_per_sec: run.events as f64 / best_secs,
        tokens_per_sec: run.tokens as f64 / best_secs,
    }
}

// ---- report + gate --------------------------------------------------------

/// `BENCH_tier1.json` layout: `{"schema", "modes": {"full": ..., "smoke":
/// ...}}` — one section per mode, merged on write so a full run and a smoke
/// run can coexist in the checked-in baseline.
const SCHEMA: &str = "symphony-bench-tier1/v1";

/// The report `existing` becomes with `modes.<mode>` set to `section`:
/// other modes' sections are kept; an absent or unreadable report starts
/// afresh.
fn merge_report(existing: Option<&str>, mode: &str, section: Value) -> String {
    let mut modes = match existing.map(serde_json::from_str::<Value>) {
        Some(Ok(Value::Object(mut doc))) => match doc.remove("modes") {
            Some(Value::Object(modes)) => modes,
            _ => BTreeMap::new(),
        },
        _ => BTreeMap::new(),
    };
    modes.insert(mode.to_string(), section);
    let doc = Value::Object(BTreeMap::from([
        ("schema".to_string(), Value::String(SCHEMA.to_string())),
        ("modes".to_string(), Value::Object(modes)),
    ]));
    serde_json::to_string_pretty(&doc).expect("serialisable") + "\n"
}

fn merge_and_write(path: &Path, mode: &str, section: Value) {
    let existing = std::fs::read_to_string(path).ok();
    let out = merge_report(existing.as_deref(), mode, section);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    match std::fs::write(path, &out) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warn: write {}: {e}", path.display()),
    }
}

/// What the gate compares in one mode section: each scenario's throughput
/// (micro `ops_per_sec`, macro `events_per_sec`) and the calibration
/// ops/sec they are normalized by. The calibration entry is the
/// denominator, not a scenario.
#[derive(Debug, Clone, PartialEq)]
struct Rates {
    calibration: f64,
    scenarios: Vec<(String, f64)>,
}

impl Rates {
    /// Reads a [`ModeResults`]-shaped section, naming the first entry that
    /// lacks a field.
    fn from_section(section: &Value) -> Result<Rates, String> {
        let calibration = section
            .get("calibration_ops_per_sec")
            .and_then(Value::as_f64)
            .ok_or("no calibration_ops_per_sec")?;
        let mut scenarios = Vec::new();
        for (list, rate_key) in [("micro", "ops_per_sec"), ("macro", "events_per_sec")] {
            let entries = section
                .get(list)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("no '{list}' list"))?;
            for (i, entry) in entries.iter().enumerate() {
                let name = entry
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{list}[{i}] has no name"))?;
                let rate = entry
                    .get(rate_key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{list} entry '{name}' has no {rate_key}"))?;
                if name != "calibration" {
                    scenarios.push((name.to_string(), rate));
                }
            }
        }
        Ok(Rates {
            calibration,
            scenarios,
        })
    }

    /// Reads `modes.<mode>` of a `BENCH_tier1.json` report.
    fn from_report(text: &str, mode: &str) -> Result<Rates, String> {
        let doc = serde_json::from_str::<Value>(text).map_err(|e| e.to_string())?;
        let section = doc
            .get("modes")
            .and_then(|modes| modes.get(mode))
            .ok_or_else(|| format!("no '{mode}' section"))?;
        Rates::from_section(section).map_err(|e| format!("'{mode}' section: {e}"))
    }
}

/// The regression gate: compares fresh calibration-normalized throughput
/// against the baseline's, failing on a drop beyond [`GATE_TOLERANCE`] or a
/// baseline scenario the fresh run lacks.
fn check_against(base: &Rates, fresh: &Rates) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut compared = 0;
    for (name, base_rate) in &base.scenarios {
        let Some((_, fresh_rate)) = fresh.scenarios.iter().find(|(n, _)| n == name) else {
            failures.push(format!("scenario '{name}' missing from this run"));
            continue;
        };
        let base_norm = base_rate / base.calibration;
        let fresh_norm = fresh_rate / fresh.calibration;
        let ratio = fresh_norm / base_norm;
        compared += 1;
        eprintln!("gate: {name}: {:.2}x of baseline (normalized)", ratio);
        if ratio < 1.0 - GATE_TOLERANCE {
            failures.push(format!(
                "{name} regressed to {:.0}% of baseline (normalized {:.3e} vs {:.3e})",
                ratio * 100.0,
                fresh_norm,
                base_norm
            ));
        }
    }
    if compared == 0 && failures.is_empty() {
        return Err("baseline held no comparable scenarios".into());
    }
    if failures.is_empty() {
        eprintln!("gate: OK ({compared} scenarios within {:.0}%)", GATE_TOLERANCE * 100.0);
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let smoke = ExpArgs::from_args().smoke;
    let mode = if smoke { "smoke" } else { "full" };
    // `--check <baseline>` and `--out <path>` belong to this binary alone.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_after = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(PathBuf::from)
    };
    let check = path_after("--check");
    let out = path_after("--out").unwrap_or_else(|| PathBuf::from("results/BENCH_tier1.json"));

    // Scale factors: smoke keeps CI latency low, full is the trajectory run.
    let (eq_rounds, kv_rounds, sd_rounds, j_rounds) = if smoke {
        (400_000, 6_000, 120_000, 40)
    } else {
        (4_000_000, 40_000, 1_000_000, 250)
    };
    let (agents, rag_reqs, macro_runs) = if smoke { (48, 96, 3) } else { (192, 384, 5) };

    eprintln!("BENCH ({mode}): calibration ...");
    let cal = calibration();
    eprintln!("BENCH: micro ...");
    let micro = vec![
        cal.clone(),
        micro_event_queue(eq_rounds, 4_096),
        micro_kvfs_ops(kv_rounds),
        micro_sched_dispatch(sd_rounds, 512),
        micro_journal(j_rounds),
    ];
    eprintln!("BENCH: macro agent_fleet ...");
    let fleet = time_macro("agent_fleet", macro_runs, || run_agent_fleet(agents));
    eprintln!("BENCH: macro rag ...");
    let rag = time_macro("rag", macro_runs, || run_rag(rag_reqs, 24));
    let macros = vec![fleet, rag];

    let mut t1 = Table::new(
        &format!("BENCH micro ({mode})"),
        &["scenario", "ops", "wall ms", "ops/sec"],
    );
    for m in &micro {
        t1.row(vec![
            m.name.clone(),
            m.ops.to_string(),
            format!("{:.1}", m.wall_ms),
            format!("{:.3e}", m.ops_per_sec),
        ]);
    }
    t1.print();
    let mut t2 = Table::new(
        &format!("BENCH macro ({mode})"),
        &["scenario", "done", "events", "p50 ms", "p99 ms", "events/sec", "tok/sec"],
    );
    for m in &macros {
        t2.row(vec![
            m.name.clone(),
            m.completed.to_string(),
            m.events.to_string(),
            format!("{:.1}", m.p50_wall_ms),
            format!("{:.1}", m.p99_wall_ms),
            format!("{:.3e}", m.events_per_sec),
            format!("{:.3e}", m.tokens_per_sec),
        ]);
    }
    t2.print();

    let results = ModeResults {
        calibration_ops_per_sec: cal.ops_per_sec,
        micro,
        r#macro: macros,
    };

    let section = serde_json::to_value(&results).expect("serialisable");
    let gate = check.map(|baseline| {
        let fresh = Rates::from_section(&section).expect("own results are well-formed");
        std::fs::read_to_string(&baseline)
            .map_err(|e| e.to_string())
            .and_then(|text| Rates::from_report(&text, mode))
            .map_err(|e| format!("{}: {e}", baseline.display()))
            .and_then(|base| check_against(&base, &fresh))
    });
    merge_and_write(&out, mode, section);
    if let Some(Err(msg)) = gate {
        eprintln!("BENCH gate FAILED: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../../results/BENCH_tier1.json");

    fn smoke() -> Rates {
        Rates::from_report(BASELINE, "smoke").expect("checked-in smoke section")
    }

    #[test]
    fn checked_in_baseline_parses_to_the_gated_scenarios() {
        let smoke = smoke();
        assert_eq!(smoke.calibration, 761333095.0106968);
        let pinned = [
            ("event_queue", 18299691.03158655),
            ("kvfs_ops", 5685745.155119098),
            ("sched_dispatch", 128053714.2646769),
            ("journal_roundtrip", 258829362.14646995),
            ("agent_fleet", 17848.557223032225),
            ("rag", 29845.052616112687),
        ];
        assert_eq!(
            smoke.scenarios,
            pinned.map(|(n, r)| (n.to_string(), r)).to_vec()
        );
        let full = Rates::from_report(BASELINE, "full").expect("checked-in full section");
        let names = |r: &Rates| {
            r.scenarios
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&full), names(&smoke));
    }

    #[test]
    fn normalized_drop_fails_naming_the_scenario() {
        let base = smoke();
        assert_eq!(check_against(&base, &base), Ok(()));
        let mut fresh = base.clone();
        fresh.scenarios[4].1 *= 0.75;
        let err = check_against(&base, &fresh).expect_err("a 25% drop fails");
        assert_eq!(
            err,
            "agent_fleet regressed to 75% of baseline (normalized 1.758e-5 vs 2.344e-5)"
        );
    }

    #[test]
    fn uniform_host_slowdown_passes() {
        let base = smoke();
        let fresh = Rates {
            calibration: base.calibration * 0.5,
            scenarios: base
                .scenarios
                .iter()
                .map(|(n, r)| (n.clone(), r * 0.5))
                .collect(),
        };
        assert_eq!(check_against(&base, &fresh), Ok(()));
    }

    #[test]
    fn baseline_scenario_missing_from_the_run_fails() {
        let base = smoke();
        let mut fresh = base.clone();
        fresh.scenarios.retain(|(n, _)| n != "kvfs_ops");
        assert_eq!(
            check_against(&base, &fresh),
            Err("scenario 'kvfs_ops' missing from this run".to_string())
        );
    }

    #[test]
    fn entry_without_a_rate_is_named() {
        let text = BASELINE.replacen("\"events_per_sec\"", "\"events_per_min\"", 1);
        assert_eq!(
            Rates::from_report(&text, "smoke"),
            Err("'smoke' section: macro entry 'agent_fleet' has no events_per_sec".to_string())
        );
        assert_eq!(
            Rates::from_report(BASELINE, "tiny"),
            Err("no 'tiny' section".to_string())
        );
    }

    #[test]
    fn merge_write_keeps_the_other_mode() {
        let results = ModeResults {
            calibration_ops_per_sec: 1e9,
            micro: vec![MicroResult {
                name: "calibration".to_string(),
                ops: 1_000,
                wall_ms: 0.001,
                ops_per_sec: 1e9,
            }],
            r#macro: Vec::new(),
        };
        let section = serde_json::to_value(&results).expect("serialisable");
        assert_eq!(
            Rates::from_section(&section),
            Ok(Rates {
                calibration: 1e9,
                scenarios: Vec::new()
            })
        );
        let old = serde_json::from_str::<Value>(BASELINE).expect("baseline parses");
        let merged = merge_report(Some(BASELINE), "smoke", section.clone());
        let doc = serde_json::from_str::<Value>(&merged).expect("merged report parses");
        let modes = doc.get("modes").expect("modes");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(modes.get("smoke"), Some(&section));
        assert_eq!(
            modes.get("full"),
            old.get("modes").and_then(|m| m.get("full"))
        );
        // No earlier report: only this run's mode.
        let alone = serde_json::from_str::<Value>(&merge_report(None, "full", section.clone()))
            .expect("fresh report parses");
        let only_full = Value::Object(BTreeMap::from([("full".to_string(), section)]));
        assert_eq!(alone.get("modes"), Some(&only_full));
    }
}
