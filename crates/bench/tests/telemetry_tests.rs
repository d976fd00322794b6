//! Telemetry regression tests over the `exp_toolcalls` setup.
//!
//! Three guarantees, each load-bearing for the observability layer:
//!
//! 1. **Determinism** — same seed ⇒ byte-identical Chrome trace export,
//!    so a trace file is itself a regression artifact (the CI golden
//!    trace depends on this).
//! 2. **Well-formedness** — syscall and batch spans nest properly and the
//!    stream is monotone on the virtual clock, so Perfetto renders real
//!    intervals rather than garbage.
//! 3. **Zero cost when disabled** — a telemetry-off run constructs zero
//!    events and produces bit-identical kernel results, so the default
//!    path pays only a branch.

use symphony::sampling::{generate, GenOpts};
use symphony::{
    Collector, EventKind, Kernel, KernelConfig, MetricsSnapshot, SimDuration, ToolOutcome,
    ToolSpec,
};

/// Everything observable about a finished run, comparable with `==`.
#[derive(Debug, PartialEq)]
struct RunDigest {
    metrics: MetricsSnapshot,
    procs: Vec<(String, bool, String, u64, u64, Option<u64>)>,
    gpu_ok: u64,
    gpu_new_tokens: u64,
    kv_cow_copies: u64,
}

fn digest(k: &Kernel) -> RunDigest {
    let mut metrics = k.metrics_snapshot();
    // `sim.events_per_sec` is a wall-clock throughput gauge, deliberately
    // outside the determinism contract.
    metrics.entries.retain(|(name, _)| name != "sim.events_per_sec");
    RunDigest {
        metrics,
        procs: k
            .records()
            .map(|r| {
                (
                    r.name.clone(),
                    r.status.is_ok(),
                    r.output.clone(),
                    r.usage.syscalls,
                    r.usage.pred_tokens,
                    r.latency().map(|d| d.as_nanos()),
                )
            })
            .collect(),
        gpu_ok: k.gpu_metrics().requests_ok,
        gpu_new_tokens: k.gpu_metrics().tokens,
        kv_cow_copies: k.kv_stats().cow_copies,
    }
}

/// The `exp_toolcalls` setup in miniature (E2's `server-lip` mode):
/// agents interleaving generation segments with server-side tool calls.
fn toolcalls_kernel(seed: u64, telemetry: bool) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = telemetry;
    let mut k = Kernel::new(cfg);
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
    k
}

fn run_traced(seed: u64) -> (Kernel, String) {
    let mut k = toolcalls_kernel(seed, true);
    k.run();
    let trace = k.export_chrome_trace();
    (k, trace)
}

#[test]
fn same_seed_exports_byte_identical_trace() {
    let (ka, a) = run_traced(42);
    let (_, b) = run_traced(42);
    assert!(ka.telemetry_constructed() > 0, "events were recorded");
    assert_eq!(a, b, "same seed must export byte-identical traces");
    // And the trace actually carries the expected tracks.
    for needle in [
        "\"name\":\"kernel\"",
        "\"name\":\"scheduler\"",
        "\"name\":\"gpu\"",
        "\"name\":\"batches\"",
        "\"name\":\"agent0 (pid 1)\"",
        "\"name\":\"main\"",
        "sys:pred",
        "gpu_batch",
        "tool:api",
    ] {
        assert!(a.contains(needle), "trace missing {needle}");
    }
}

#[test]
fn trace_export_parses_as_json() {
    let (_, trace) = run_traced(7);
    let v = serde_json::from_str::<serde_json::Value>(&trace).expect("Perfetto-loadable JSON");
    let serde_json::Value::Object(o) = v else {
        panic!("expected top-level object");
    };
    let Some(serde_json::Value::Array(events)) = o.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    assert!(events.len() > 100, "substantial event stream");
}

#[test]
fn spans_nest_well_formed() {
    let mut k = toolcalls_kernel(13, true);
    k.run();
    let events = k.telemetry_events();
    assert!(!events.is_empty());
    // Global monotonicity on the virtual clock.
    for pair in events.windows(2) {
        assert!(pair[0].at <= pair[1].at, "timestamps must be non-decreasing");
    }
    // Per-thread syscall spans balance and match by name; batch spans
    // balance by id on the GPU track.
    use std::collections::BTreeMap;
    let mut sys_stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut batch_stack: Vec<u64> = Vec::new();
    let mut sys_spans = 0u64;
    let mut batch_spans = 0u64;
    for ev in events {
        match &ev.kind {
            EventKind::SyscallEnter { tid, name, .. } => {
                sys_stacks.entry(*tid).or_default().push(name);
            }
            EventKind::SyscallExit { tid, name, .. } => {
                let open = sys_stacks
                    .get_mut(tid)
                    .and_then(|s| s.pop())
                    .unwrap_or_else(|| panic!("exit without enter on tid {tid}"));
                assert_eq!(open, *name, "mismatched syscall span on tid {tid}");
                sys_spans += 1;
            }
            EventKind::BatchBegin { id, .. } => batch_stack.push(*id),
            EventKind::BatchEnd { id } => {
                assert_eq!(batch_stack.pop(), Some(*id), "mismatched batch span");
                batch_spans += 1;
            }
            _ => {}
        }
    }
    for (tid, stack) in &sys_stacks {
        assert!(stack.is_empty(), "unclosed syscall span on tid {tid}: {stack:?}");
    }
    assert!(batch_stack.is_empty(), "unclosed batch span: {batch_stack:?}");
    assert!(sys_spans > 10, "syscall spans recorded: {sys_spans}");
    assert!(batch_spans > 5, "batch spans recorded: {batch_spans}");
}

#[test]
fn disabled_telemetry_is_zero_cost_and_changes_nothing() {
    let mut off = toolcalls_kernel(42, false);
    off.run();
    let mut on = toolcalls_kernel(42, true);
    on.run();
    // The disabled bus did no event work at all: not one closure ran.
    assert_eq!(off.telemetry_constructed(), 0, "disabled bus constructed events");
    assert!(off.telemetry_events().is_empty());
    assert!(on.telemetry_constructed() > 0);
    // And observing changed nothing the kernel computes, metrics included.
    assert_eq!(digest(&off), digest(&on), "telemetry must be observation-only");
}

#[test]
fn counting_collector_counts_without_storing() {
    let mut k = toolcalls_kernel(42, false);
    k.set_event_collector(Collector::Counting(0));
    k.run();
    let constructed = k.telemetry_constructed();
    assert!(constructed > 0, "counting collector constructs events");
    assert!(k.telemetry_events().is_empty(), "but stores none");
    match k.set_event_collector(Collector::Null) {
        Collector::Counting(n) => assert_eq!(n, constructed),
        other => panic!("expected counting collector back, got {other:?}"),
    }
    // Counting observes the same run the disabled kernel computes.
    let mut off = toolcalls_kernel(42, false);
    off.run();
    assert_eq!(digest(&off), digest(&k));
}

/// A tiny fixed-seed run whose exported trace is checked into the repo.
/// Regenerate after intentional format/instrumentation changes with:
/// `UPDATE_GOLDEN=1 cargo test -p symphony-bench --test telemetry_tests golden`
#[test]
fn golden_trace_matches() {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = 0x90_1D;
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "api",
        ToolSpec::fixed(SimDuration::from_millis(10), |args| {
            ToolOutcome::Ok(format!("ok: {args}"))
        }),
    );
    k.spawn_process("tiny", "", |ctx| {
        let kv = ctx.kv_create()?;
        let prompt = ctx.tokenize("golden trace fixture")?;
        let out = generate(
            ctx,
            kv,
            &prompt,
            &GenOpts {
                max_tokens: 4,
                temperature: 0.0,
                emit: false,
                ..Default::default()
            },
        )?;
        ctx.call_tool("api", "q")?;
        ctx.emit_tokens(&out.tokens)?;
        ctx.kv_remove(kv)?;
        Ok(())
    });
    k.run();
    assert_eq!(k.events_dropped(), 0, "golden run must not drop events");
    let trace = k.export_chrome_trace();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/tiny_trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden/");
        std::fs::write(&path, &trace).expect("write golden");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {}: {e}", path.display()));
    assert_eq!(
        trace,
        golden,
        "trace drifted from the golden fixture; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
