//! Kernel crash/recovery chaos tests.
//!
//! The centrepiece kills the kernel at *every* syscall boundary of a small
//! agent workload (pred loops, a deterministic tool, IPC to a collector,
//! `now`/`lookup` effects), recovers from the WAL, and asserts the union of
//! crashed + recovered execution is indistinguishable from an uninterrupted
//! run: byte-equal per-program outputs, equal exit statuses, and — via a
//! shared side-effect counter inside the tool handler — **zero duplicated
//! tool effects** (exactly-once).
//!
//! Workload constraints these tests respect (documented in
//! `docs/RESILIENCE.md`): single main thread per LIP, args-deterministic
//! tool handlers, no admission shedding, and the collector sorts received
//! messages so live-tail delivery order (which may legally differ during
//! replay, when journalled tool calls complete instantly) cannot leak into
//! outputs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symphony::sampling::{self, GenOpts};
use symphony::{
    ExitStatus, FaultPlan, Kernel, KernelConfig, ProgramImage, SimDuration, SimTime, SysError,
    ToolOutcome, ToolSpec, WalConfig,
};

/// Unique-per-process temp path so parallel test runs don't collide.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-recovery-{}-{}", std::process::id(), name))
}

const AGENTS: usize = 3;

/// Deterministic tool: output depends only on args; latency is fixed. The
/// shared counter observes real handler firings (replayed calls must not
/// re-fire it).
fn search_tool(fired: Arc<AtomicU64>) -> ToolSpec {
    ToolSpec::fixed(SimDuration::from_millis(4), move |args| {
        fired.fetch_add(1, Ordering::SeqCst);
        ToolOutcome::Ok(format!("doc({args})"))
    })
}

/// Research-agent LIP: greedy-decode a few tokens, consult the tool, stamp
/// the virtual clock, and report to the collector.
fn agent_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let prompt = ctx.tokenize(&format!("investigate topic {args} thoroughly"))?;
        let kv = ctx.kv_create()?;
        let gen = sampling::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 5, temperature: 0.0, ..Default::default() },
        )?;
        let answer = ctx.detokenize(&gen.tokens)?;
        let doc = ctx.call_tool("search", &args)?;
        // Exercise the `now` effect class, but keep the observed value out
        // of the output: virtual timing is NOT part of the equivalence
        // contract (a live tail runs on a clock that skipped replayed
        // latencies), only control flow and data are.
        let t = ctx.now()?;
        assert!(t >= SimTime::ZERO);
        ctx.emit(&format!("{args}:{answer}|{doc}"))?;
        let sink = ctx.lookup_process("sink")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(sink, &format!("done-{args}"))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

/// Collector LIP: receives one report per agent, sorts (delivery order is
/// not part of the equivalence contract), and emits the digest.
fn sink_image() -> ProgramImage {
    Arc::new(|ctx| {
        let mut got = Vec::new();
        for _ in 0..AGENTS {
            got.push(ctx.recv_msg()?.data);
        }
        got.sort();
        ctx.emit(&got.join(","))?;
        Ok(())
    })
}

/// Late-arriving LIP used by the scheduled-durability tests.
fn late_image() -> ProgramImage {
    Arc::new(|ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let gen = sampling::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 4, temperature: 0.0, ..Default::default() },
        )?;
        ctx.emit(&format!("late:{}", ctx.detokenize(&gen.tokens)?))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

fn resolver(name: &str) -> Option<ProgramImage> {
    match name {
        "sink" => Some(sink_image()),
        "late" => Some(late_image()),
        n if n.starts_with("agent") => Some(agent_image()),
        _ => None,
    }
}

fn config(wal: &std::path::Path, crash_at: Option<u64>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(wal).with_checkpoint_every(SimDuration::from_millis(3)));
    cfg.faults = FaultPlan { crash_at_boundary: crash_at, ..FaultPlan::default() };
    cfg
}

/// Spawns the fleet: the collector first (agents look it up by name), then
/// the agents, then a scheduled program that arrives late in the run.
fn spawn_fleet(k: &mut Kernel) {
    k.spawn_durable("sink", "", sink_image());
    for i in 0..AGENTS {
        k.spawn_durable(&format!("agent{i}"), &format!("{i}"), agent_image());
    }
    k.schedule_durable(
        SimTime::ZERO + SimDuration::from_millis(20),
        "late",
        "a question that arrives later",
        late_image(),
    );
}

/// (name → (output, ok)) for every finished program.
fn outcomes(k: &Kernel) -> BTreeMap<String, (String, bool)> {
    k.records()
        .filter(|r| r.exited_at.is_some())
        .map(|r| (r.name.clone(), (r.output.clone(), r.status.is_ok())))
        .collect()
}

struct Baseline {
    outcomes: BTreeMap<String, (String, bool)>,
    boundaries: u64,
    invocations: u64,
    fired: u64,
}

fn run_baseline(path: &std::path::Path) -> Baseline {
    let fired = Arc::new(AtomicU64::new(0));
    let mut k = Kernel::new(config(path, None));
    k.register_tool("search", search_tool(fired.clone()));
    spawn_fleet(&mut k);
    k.run();
    assert!(k.crashed().is_none());
    let b = Baseline {
        outcomes: outcomes(&k),
        boundaries: k.syscall_boundaries(),
        invocations: k.tool_invocations(),
        fired: fired.load(Ordering::SeqCst),
    };
    assert_eq!(b.outcomes.len(), AGENTS + 2, "fleet + sink + late all finish");
    assert!(b.outcomes.values().all(|(_, ok)| *ok));
    b
}

/// The tentpole chaos sweep: for every syscall boundary `b`, crash there,
/// recover, and demand full equivalence with the uninterrupted run.
#[test]
fn kill_at_every_syscall_boundary_recovers_equivalently() {
    let base_path = tmp("sweep-base.wal");
    let baseline = run_baseline(&base_path);
    assert!(baseline.boundaries > 20, "workload exercises a real kill-point space");

    for b in 1..=baseline.boundaries {
        let path = tmp(&format!("sweep-{b}.wal"));
        let fired = Arc::new(AtomicU64::new(0));

        // Run until the injected crash.
        let crashed_invocations = {
            let mut k = Kernel::new(config(&path, Some(b)));
            k.register_tool("search", search_tool(fired.clone()));
            spawn_fleet(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(b), "kill-point {b} fires");
            k.tool_invocations()
        };

        // Recover: journalled effects replay, the tail re-executes live.
        let (mut k, report) = Kernel::recover(config(&path, None)).expect("recoverable WAL");
        k.register_tool("search", search_tool(fired.clone()));
        let resumed = k.resume_programs(resolver);
        assert_eq!(resumed.lost, 0, "boundary {b}: every image resolves");
        assert_eq!(report.frames, resumed.frames);
        k.run();
        assert!(k.crashed().is_none());

        assert_eq!(
            outcomes(&k),
            baseline.outcomes,
            "boundary {b}: outputs and statuses match the uninterrupted run"
        );
        assert_eq!(
            crashed_invocations + k.tool_invocations(),
            baseline.invocations,
            "boundary {b}: exactly-once tool invocations across crash + recovery"
        );
        assert_eq!(
            fired.load(Ordering::SeqCst),
            baseline.fired,
            "boundary {b}: no tool handler fired twice"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&base_path).ok();
}

/// Two independent crash+recover sequences with identical configs are
/// byte-identical — recovery itself is deterministic.
#[test]
fn recovery_is_deterministic() {
    let run = |tag: &str| {
        let path = tmp(&format!("det-{tag}.wal"));
        {
            let mut k = Kernel::new(config(&path, Some(17)));
            k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
            spawn_fleet(&mut k);
            k.run();
            assert_eq!(k.crashed(), Some(17));
        }
        let mut cfg = config(&path, None);
        cfg.telemetry = true;
        let (mut k, _) = Kernel::recover(cfg).unwrap();
        k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
        k.resume_programs(resolver);
        k.run();
        let out = (outcomes(&k), k.telemetry_events().to_vec());
        std::fs::remove_file(&path).ok();
        out
    };
    assert_eq!(run("a"), run("b"));
}

/// A clean shutdown leaves a WAL from which recovery restores every record
/// as *finished* — nothing re-executes, and the records survive verbatim.
#[test]
fn clean_run_recovers_as_finished_records() {
    let path = tmp("clean.wal");
    let baseline = run_baseline(&path);

    let (mut k, report) = Kernel::recover(config(&path, None)).unwrap();
    k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
    let resumed = k.resume_programs(resolver);
    assert_eq!(resumed.resumed, 0, "nothing was in flight");
    assert_eq!(resumed.finished, AGENTS + 2);
    assert_eq!(resumed.lost, 0);
    assert!(!report.torn);
    k.run();
    assert_eq!(outcomes(&k), baseline.outcomes);
    assert_eq!(k.tool_invocations(), 0, "finished programs never re-execute");
    std::fs::remove_file(&path).ok();
}

/// A durable program *scheduled* for a future arrival survives a crash that
/// lands before it starts: the journalled schedule re-admits it with its
/// pre-assigned thread id, so its output matches the crash-free run.
#[test]
fn scheduled_program_survives_crash_before_arrival() {
    let base_path = tmp("sched-base.wal");
    let baseline = run_baseline(&base_path);
    let late_baseline = baseline.outcomes.get("late").cloned().expect("late ran");

    let path = tmp("sched-crash.wal");
    {
        // Boundary 2 lands well before the 20ms arrival of "late".
        let mut k = Kernel::new(config(&path, Some(2)));
        k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
        spawn_fleet(&mut k);
        k.run();
        assert_eq!(k.crashed(), Some(2));
        assert!(k.records().all(|r| r.name != "late" || r.exited_at.is_none()));
    }
    let (mut k, _) = Kernel::recover(config(&path, None)).unwrap();
    k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
    k.resume_programs(resolver);
    k.run();
    assert_eq!(outcomes(&k).get("late"), Some(&late_baseline));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&base_path).ok();
}

/// An unresolvable image cannot be re-executed: recovery records the
/// program as crashed rather than silently dropping it, and everything
/// else still completes.
#[test]
fn unresolvable_image_is_recorded_as_crashed() {
    let path = tmp("lost.wal");
    {
        let mut k = Kernel::new(config(&path, Some(30)));
        k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
        spawn_fleet(&mut k);
        k.run();
        assert_eq!(k.crashed(), Some(30));
    }
    let (mut k, _) = Kernel::recover(config(&path, None)).unwrap();
    k.register_tool("search", search_tool(Arc::new(AtomicU64::new(0))));
    let resumed =
        k.resume_programs(|name| if name == "sink" { None } else { resolver(name) });
    assert_eq!(resumed.lost, 1, "the sink's image is gone");
    let lost = k
        .records()
        .find(|r| r.name == "sink")
        .expect("lost program still has a record");
    assert!(matches!(lost.status, ExitStatus::Crashed));
    std::fs::remove_file(&path).ok();
}

/// Recovering without a WAL config, or from a missing file, fails with the
/// typed errors rather than panicking.
#[test]
fn recover_error_paths_are_typed() {
    let cfg = KernelConfig::for_tests();
    assert!(matches!(Kernel::recover(cfg), Err(symphony::WalError::Disabled)));

    let cfg = config(&tmp("never-created.wal"), None);
    assert!(matches!(Kernel::recover(cfg), Err(symphony::WalError::Unreadable)));
}
