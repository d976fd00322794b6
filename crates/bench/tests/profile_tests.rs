//! Causal-tracing invariants behind `exp_profile` (E15).
//!
//! Two guarantees the critical-path layer leans on:
//!
//! 1. **Single-rootedness** — every syscall span the kernel emits lands in
//!    exactly one thread of exactly one root program when the event stream
//!    is reconstructed into a forest: no span is dropped, duplicated, or
//!    shared between programs. Checked property-style over randomised
//!    fleet shapes.
//! 2. **Byte-stable reports** — the same seed produces the same span
//!    forest and therefore the same critical-path report, byte for byte.
//!    A checked-in golden fixture catches attribution drift the way the
//!    golden Chrome traces catch event drift.
//!
//! Bless the fixture after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p symphony-bench --test profile_tests`.

use proptest::prelude::*;
use symphony::{
    analyze, build_forest, render_report, Ctx, EventKind, Kernel, KernelConfig, SimDuration,
    SimTime, SysError, ToolOutcome, ToolSpec,
};

/// A miniature of the E15 fleet: a coordinator that collects one IPC
/// report per worker, workers that prefill/decode, fetch evidence on a
/// helper thread, swap their KV across the tool call, and report back.
fn fleet_kernel(workers: usize, decode: usize, tool_ms: u64, seed: u64) -> Kernel {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "search",
        ToolSpec::fixed(SimDuration::from_millis(tool_ms), |args| {
            ToolOutcome::Ok(format!("hits for {args}"))
        }),
    );
    k.spawn_process("coordinator", &workers.to_string(), move |ctx| {
        let n: usize = ctx.args().parse().map_err(|_| SysError::BadArgument)?;
        let kv = ctx.kv_create()?;
        let prompt = ctx.tokenize("collect the fleet's findings")?;
        let toks: Vec<(u32, u32)> =
            prompt.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        let mut dist = ctx.pred(kv, &toks)?.pop().ok_or(SysError::BadArgument)?;
        for pos in (toks.len() as u32..).take(n) {
            ctx.recv_msg()?;
            let tok = dist.argmax();
            dist = ctx.pred(kv, &[(tok, pos)])?.remove(0);
        }
        ctx.kv_remove(kv)?;
        Ok(())
    });
    for i in 0..workers {
        let at = SimTime::ZERO + SimDuration::from_millis(2 * i as u64 + 1);
        k.schedule_process(at, &format!("worker{i}"), "", move |ctx| {
            worker(ctx, i, decode)
        });
    }
    k
}

fn worker(ctx: &mut Ctx, seed: usize, decode: usize) -> Result<(), SysError> {
    let kv = ctx.kv_create()?;
    let prompt = ctx.tokenize(&format!("investigate lead {seed}"))?;
    let toks: Vec<(u32, u32)> =
        prompt.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
    let mut dist = ctx.pred(kv, &toks)?.pop().ok_or(SysError::BadArgument)?;
    let mut pos = toks.len() as u32;
    let helper = ctx.spawn(move |hctx| {
        hctx.call_tool("search", &format!("evidence {seed}"))?;
        Ok(())
    })?;
    for _ in 0..decode {
        let tok = dist.argmax();
        dist = ctx.pred(kv, &[(tok, pos)])?.remove(0);
        pos += 1;
    }
    ctx.kv_swap_out(kv)?;
    ctx.join(helper)?;
    ctx.kv_swap_in(kv)?;
    let tok = dist.argmax();
    ctx.pred(kv, &[(tok, pos)])?;
    let coord = ctx.lookup_process("coordinator")?.ok_or(SysError::NotFound)?;
    ctx.send_msg(coord, &format!("report {seed}"))?;
    ctx.kv_remove(kv)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every emitted syscall span reaches exactly one root program: the
    /// forest's span count equals the stream's `SyscallEnter` count (none
    /// lost, none duplicated), program pids are unique (none shared), and
    /// the phase buckets of every program partition its e2e latency.
    #[test]
    fn every_span_reaches_exactly_one_root_program(
        workers in 1usize..4,
        decode in 1usize..5,
        tool_ms in 1u64..20,
        seed in 0u64..1_000,
    ) {
        let mut k = fleet_kernel(workers, decode, tool_ms, seed);
        k.run();
        prop_assert_eq!(k.events_dropped(), 0);
        for rec in k.records() {
            prop_assert!(rec.status.is_ok(), "{}: {:?}", rec.name, rec.status);
        }
        let enters = k
            .telemetry_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SyscallEnter { .. }))
            .count();
        let forest = build_forest(k.telemetry_events());
        prop_assert_eq!(forest.span_count(), enters, "spans lost or duplicated");
        let mut pids: Vec<u64> = forest.programs.iter().map(|p| p.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        prop_assert_eq!(pids.len(), forest.programs.len(), "pid owned by two programs");
        prop_assert_eq!(forest.programs.len(), workers + 1);
        for b in analyze(&forest) {
            prop_assert_eq!(
                b.attributed_ns(),
                b.total_ns,
                "{}: buckets must partition e2e latency",
                b.name
            );
        }
    }
}

/// Same seed ⇒ same forest ⇒ same critical-path report bytes, pinned by
/// a checked-in fixture.
#[test]
fn golden_critical_path_report_matches() {
    let run = || {
        let mut k = fleet_kernel(2, 3, 7, 0xE15);
        k.run();
        let forest = build_forest(k.telemetry_events());
        render_report(&analyze(&forest))
    };
    let report = run();
    assert_eq!(report, run(), "same seed must render identical reports");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/profile_report.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden/");
        std::fs::write(&path, &report).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden report {}: {e}", path.display()));
    assert_eq!(
        report, golden,
        "critical-path report drifted from the golden fixture; if intentional, \
         re-bless with UPDATE_GOLDEN=1"
    );
}
