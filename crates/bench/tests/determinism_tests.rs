//! Determinism regression tests over the experiment setups.
//!
//! Every experiment binary leans on the same guarantee: a `(seed, config,
//! workload)` triple replays bit-identically. These tests rebuild the
//! `exp_toolcalls` and `exp_chat` setups in miniature, run each twice with
//! the same seed, and require identical per-process outputs and aggregate
//! stats — the regression net under the fault-injection subsystem, whose
//! RNG streams must not perturb fault-free runs.

use symphony::sampling::{generate, GenOpts};
use symphony::{Kernel, KernelConfig, SimDuration, TimedEvent, ToolOutcome, ToolSpec};
use symphony_workloads::ChatWorkload;

/// One process record: (name, status_ok, output, syscalls, pred_tokens,
/// tool_calls, latency_ns).
type ProcRow = (String, bool, String, u64, u64, u64, Option<u64>);

/// Everything observable about a finished run, comparable with `==`.
#[derive(Debug, PartialEq)]
struct RunDigest {
    events: Vec<TimedEvent>,
    procs: Vec<ProcRow>,
    gpu_ok: u64,
    gpu_new_tokens: u64,
    kv_cow_copies: u64,
}

fn digest(k: &Kernel) -> RunDigest {
    RunDigest {
        events: k.telemetry_events().to_vec(),
        procs: k
            .records()
            .map(|r| {
                (
                    r.name.clone(),
                    r.status.is_ok(),
                    r.output.clone(),
                    r.usage.syscalls,
                    r.usage.pred_tokens,
                    r.usage.tool_calls,
                    r.latency().map(|d| d.as_nanos()),
                )
            })
            .collect(),
        gpu_ok: k.gpu_metrics().requests_ok,
        gpu_new_tokens: k.gpu_metrics().tokens,
        kv_cow_copies: k.kv_stats().cow_copies,
    }
}

/// The test config with telemetry on, so a digest holds the event stream.
fn config(seed: u64) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = true;
    cfg
}

/// The `exp_toolcalls` setup: an agent interleaving generation segments
/// with server-side tool calls (E2's `server-lip` mode, scaled down).
fn toolcalls_run(seed: u64) -> RunDigest {
    let mut k = Kernel::new(config(seed));
    k.register_tool(
        "api",
        ToolSpec::new(SimDuration::from_millis(25), |args| {
            ToolOutcome::Ok(format!("api result for {args}"))
        }),
    );
    for p in 0..3u64 {
        k.spawn_process(&format!("agent{p}"), "", move |ctx| {
            let opts = GenOpts {
                max_tokens: 8,
                temperature: 0.0,
                emit: false,
                ..Default::default()
            };
            let kv = ctx.kv_create()?;
            let mut next = ctx.tokenize("an agent plan with several lookups")?;
            for i in 0..4 {
                generate(ctx, kv, &next, &opts)?;
                let result = ctx.call_tool("api", &format!("call {i}"))?;
                next = ctx.tokenize(&result)?;
            }
            let out = generate(ctx, kv, &next, &opts)?;
            ctx.emit_tokens(&out.tokens)?;
            Ok(())
        });
    }
    k.run();
    digest(&k)
}

/// The `exp_chat` setup: multi-round sessions with retained KV (E9's
/// `retained` mode, scaled down), driven by the ChatWorkload generator.
fn chat_run(seed: u64) -> RunDigest {
    let mut k = Kernel::new(config(seed));
    let mut wl = ChatWorkload::new(4.0, SimDuration::from_millis(500), 40, 0xC4A7);
    for i in 0..4 {
        let session = wl.next_session();
        k.spawn_process(&format!("chat{i}"), "", move |ctx| {
            let opts = GenOpts {
                max_tokens: 16,
                temperature: 0.0,
                emit: false,
                ..Default::default()
            };
            let kv = ctx.kv_create()?;
            let mut lat = Vec::new();
            for (turn, gap) in session.turns.iter().zip(&session.gaps) {
                ctx.sleep(*gap)?;
                let t0 = ctx.now()?;
                let user = ctx.tokenize(&format!("\nuser: {turn}\nassistant:"))?;
                generate(ctx, kv, &user, &opts)?;
                lat.push(format!("{:.3}", ctx.now()?.duration_since(t0).as_millis_f64()));
            }
            ctx.kv_remove(kv)?;
            ctx.emit(&lat.join(","))?;
            Ok(())
        });
    }
    k.run();
    digest(&k)
}

#[test]
fn exp_toolcalls_setup_is_deterministic() {
    let a = toolcalls_run(42);
    let b = toolcalls_run(42);
    assert!(a.procs.iter().all(|p| p.1), "all agents finish: {a:?}");
    assert!(a.procs.iter().all(|p| p.5 == 4), "4 tool calls each");
    assert_eq!(a, b, "same seed must replay bit-identically");
}

#[test]
fn exp_chat_setup_is_deterministic() {
    let a = chat_run(42);
    let b = chat_run(42);
    assert!(a.procs.iter().all(|p| p.1), "all sessions finish: {a:?}");
    assert!(a.gpu_new_tokens > 0, "work actually happened");
    assert_eq!(a, b, "same seed must replay bit-identically");
}

#[test]
fn seed_changes_the_run() {
    // The guarantee is meaningful only if the seed actually steers the run:
    // tool latencies and LIP RNG streams derive from it.
    assert_ne!(toolcalls_run(1).events, toolcalls_run(2).events);
}

#[test]
fn error_paths_are_deterministic_too() {
    // Determinism must hold for failing runs as well: a process that
    // exhausts a limit exits with the same typed error at the same virtual
    // time in both runs.
    fn run() -> RunDigest {
        let mut k = Kernel::new(config(KernelConfig::for_tests().seed));
        let limits = symphony::Limits {
            max_pred_tokens: Some(10),
            ..Default::default()
        };
        k.spawn_process_with_limits("capped", "", limits, |ctx| {
            let kv = ctx.kv_create()?;
            for pos in 0..32u32 {
                ctx.pred(kv, &[(1 + pos, pos)])?;
            }
            Ok(())
        });
        k.run();
        digest(&k)
    }
    let (a, b) = (run(), run());
    assert!(!a.procs[0].1, "the capped process must fail");
    assert_eq!(a, b);
}

#[test]
fn workload_generator_is_deterministic() {
    let mut a = ChatWorkload::new(4.0, SimDuration::from_millis(500), 40, 9);
    let mut b = ChatWorkload::new(4.0, SimDuration::from_millis(500), 40, 9);
    for _ in 0..5 {
        let (sa, sb) = (a.next_session(), b.next_session());
        assert_eq!(sa.turns, sb.turns);
        assert_eq!(sa.gaps, sb.gaps);
    }
}
