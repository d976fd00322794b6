//! Chaos suite for the fault-injection & resilience subsystem.
//!
//! Three properties are asserted throughout:
//!
//! 1. **Containment** — injected faults fail the offending operation (or
//!    process) with a *typed* [`SysError`]; siblings keep running and no
//!    panic escapes a LIP.
//! 2. **Determinism** — two kernels with identical seeds and fault plans
//!    produce byte-identical outputs, telemetry event streams and stats,
//!    and an all-zero plan is byte-identical to the resilience machinery
//!    being switched off entirely.
//! 3. **Exact accounting** — a retried tool call occupies exactly the sum
//!    of its per-attempt charges plus backoff delays on the virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symphony::{
    AdmissionPolicy, BreakerPolicy, ExitStatus, FaultPlan, Kernel, KernelConfig, Limits,
    RetryPolicy, SimDuration, SysError, TimedEvent, ToolOutcome, ToolSpec,
};

// ---- exact virtual-time accounting -----------------------------------------

#[test]
fn exhausted_retries_charge_exact_virtual_time() {
    let mut cfg = KernelConfig::for_tests();
    // 3 attempts, backoffs 10 ms then 20 ms, no jitter: exact arithmetic.
    cfg.tool_retry = Some(RetryPolicy::exponential(3, SimDuration::from_millis(10)).without_jitter());
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "down",
        ToolSpec::fixed(SimDuration::from_millis(7), |_| {
            ToolOutcome::Failed("503".into())
        }),
    );
    let pid = k.spawn_process("caller", "", |ctx| {
        let before = ctx.now()?;
        let err = ctx.call_tool("down", "").unwrap_err();
        assert_eq!(err, SysError::ToolFailed("503".into()));
        let elapsed = ctx.now()?.duration_since(before);
        // 3 × 7 ms attempts + (10 + 20) ms backoff = 51 ms, exactly.
        assert_eq!(elapsed, SimDuration::from_millis(51), "elapsed={elapsed}");
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    let rs = k.resilience_stats();
    assert_eq!(rs.tool_retries, 2);
    assert_eq!(rs.tool_calls_exhausted, 1);
    assert_eq!(rs.tool_timeouts, 0);
}

#[test]
fn successful_retry_charges_failed_attempts_too() {
    let mut cfg = KernelConfig::for_tests();
    cfg.tool_retry = Some(RetryPolicy::exponential(5, SimDuration::from_millis(4)).without_jitter());
    let mut k = Kernel::new(cfg);
    // Fails twice, then succeeds.
    let calls = Arc::new(AtomicU64::new(0));
    let c = calls.clone();
    k.register_tool(
        "flaky",
        ToolSpec::fixed(SimDuration::from_millis(3), move |_| {
            if c.fetch_add(1, Ordering::SeqCst) < 2 {
                ToolOutcome::Failed("503".into())
            } else {
                ToolOutcome::Ok("finally".into())
            }
        }),
    );
    let pid = k.spawn_process("caller", "", |ctx| {
        let before = ctx.now()?;
        assert_eq!(ctx.call_tool("flaky", "")?, "finally");
        let elapsed = ctx.now()?.duration_since(before);
        // 3 × 3 ms attempts + (4 + 8) ms backoff = 21 ms.
        assert_eq!(elapsed, SimDuration::from_millis(21), "elapsed={elapsed}");
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    assert_eq!(calls.load(Ordering::SeqCst), 3);
    let rs = k.resilience_stats();
    assert_eq!(rs.tool_retries, 2);
    assert_eq!(rs.tool_calls_exhausted, 0, "the call ultimately succeeded");
}

#[test]
fn tool_timeout_clamps_each_attempt() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    k.register_tool(
        "slow",
        ToolSpec::fixed(SimDuration::from_millis(500), |_| ToolOutcome::Ok("late".into())),
    );
    let limits = Limits {
        tool_timeout: Some(SimDuration::from_millis(20)),
        ..Default::default()
    };
    let pid = k.spawn_process_with_limits("impatient", "", limits, |ctx| {
        let before = ctx.now()?;
        assert_eq!(ctx.call_tool("slow", "").unwrap_err(), SysError::Timeout);
        // Charged the timeout, not the full 500 ms latency.
        assert_eq!(
            ctx.now()?.duration_since(before),
            SimDuration::from_millis(20)
        );
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok());
    assert_eq!(k.resilience_stats().tool_timeouts, 1);
}

// ---- deadlines --------------------------------------------------------------

#[test]
fn deadline_wakes_blocked_receiver_with_typed_error() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let limits = Limits {
        deadline: Some(SimDuration::from_millis(10)),
        ..Default::default()
    };
    // Nobody ever sends to this process: without a deadline it would be a
    // deadlock the kernel merely reports; with one it is woken and killed.
    let doomed = k.spawn_process_with_limits("doomed", "", limits, |ctx| {
        ctx.recv_msg()?;
        Ok(())
    });
    let healthy = k.spawn_process("healthy", "", |ctx| {
        ctx.sleep(SimDuration::from_millis(50))?;
        ctx.emit("fine")?;
        Ok(())
    });
    k.run();
    let rec = k.record(doomed).unwrap();
    assert_eq!(rec.status, ExitStatus::Error(SysError::DeadlineExceeded));
    assert_eq!(
        rec.exited_at.unwrap().duration_since(rec.spawned_at),
        SimDuration::from_millis(10)
    );
    assert!(k.record(healthy).unwrap().status.is_ok());
    assert_eq!(k.resilience_stats().deadline_kills, 1);
    assert_eq!(k.live_threads(), 0, "no thread left behind");
}

#[test]
fn deadline_fails_syscalls_after_expiry() {
    let mut k = Kernel::new(KernelConfig::for_tests());
    let limits = Limits {
        deadline: Some(SimDuration::from_millis(5)),
        ..Default::default()
    };
    let pid = k.spawn_process_with_limits("slowpoke", "", limits, |ctx| {
        ctx.emit("started;")?;
        ctx.sleep(SimDuration::from_millis(20))?;
        // Past the deadline: every further syscall fails.
        assert_eq!(ctx.emit("too late").unwrap_err(), SysError::DeadlineExceeded);
        Err(SysError::DeadlineExceeded)
    });
    k.run();
    let rec = k.record(pid).unwrap();
    assert_eq!(rec.status, ExitStatus::Error(SysError::DeadlineExceeded));
    assert_eq!(rec.output, "started;");
}

// ---- circuit breaker ---------------------------------------------------------

#[test]
fn breaker_opens_fast_fails_then_recovers() {
    let mut cfg = KernelConfig::for_tests();
    cfg.breaker = Some(BreakerPolicy::new(3, SimDuration::from_millis(100)));
    let mut k = Kernel::new(cfg);
    // Down for the first 3 calls that reach it, healthy afterwards.
    let calls = Arc::new(AtomicU64::new(0));
    let c = calls.clone();
    k.register_tool(
        "api",
        ToolSpec::fixed(SimDuration::from_millis(2), move |_| {
            if c.fetch_add(1, Ordering::SeqCst) < 3 {
                ToolOutcome::Failed("503".into())
            } else {
                ToolOutcome::Ok("200".into())
            }
        }),
    );
    let pid = k.spawn_process("client", "", |ctx| {
        // Three failures trip the breaker.
        for _ in 0..3 {
            assert!(matches!(
                ctx.call_tool("api", "").unwrap_err(),
                SysError::ToolFailed(_)
            ));
        }
        // Now fast-failed without touching the tool.
        assert_eq!(ctx.call_tool("api", "").unwrap_err(), SysError::Unavailable);
        assert_eq!(ctx.call_tool("api", "").unwrap_err(), SysError::Unavailable);
        // Wait out the cooldown: the half-open trial goes through and the
        // (now healthy) tool closes the breaker again.
        ctx.sleep(SimDuration::from_millis(150))?;
        assert_eq!(ctx.call_tool("api", "")?, "200");
        assert_eq!(ctx.call_tool("api", "")?, "200");
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
    assert_eq!(calls.load(Ordering::SeqCst), 5, "two calls never reached the tool");
    let rs = k.resilience_stats();
    assert_eq!(rs.breaker_trips, 1);
    assert_eq!(rs.breaker_rejections, 2);
}

// ---- admission control -------------------------------------------------------

#[test]
fn kv_pressure_requeues_then_succeeds() {
    let mut cfg = KernelConfig::for_tests();
    // Pool of 16 pages × 4 tokens: one hog can exhaust it.
    cfg.gpu_kv_bytes_override =
        Some(16 * 4 * cfg.model.kv_bytes_per_token());
    cfg.admission = Some(AdmissionPolicy {
        max_queue: 64,
        retry_delay: SimDuration::from_millis(5),
        max_retries: 40,
    });
    let mut k = Kernel::new(cfg);
    // The hog fills most of the pool, holds it briefly, then exits (its
    // files are reclaimed).
    k.spawn_process("hog", "", |ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..56).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        ctx.sleep(SimDuration::from_millis(60))?;
        Ok(())
    });
    // The victim arrives during the squeeze and needs more than remains.
    let victim = k.spawn_process("victim", "", |ctx| {
        ctx.sleep(SimDuration::from_millis(1))?;
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        ctx.emit("made it")?;
        Ok(())
    });
    k.run();
    let rec = k.record(victim).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.output, "made it");
    assert!(
        k.resilience_stats().preds_requeued > 0,
        "the victim must have been backed off at least once: {:?}",
        k.resilience_stats()
    );
}

#[test]
fn exhausted_requeues_shed_with_busy() {
    let mut cfg = KernelConfig::for_tests();
    cfg.gpu_kv_bytes_override =
        Some(16 * 4 * cfg.model.kv_bytes_per_token());
    cfg.admission = Some(AdmissionPolicy {
        max_queue: 64,
        retry_delay: SimDuration::from_millis(2),
        max_retries: 3,
    });
    let mut k = Kernel::new(cfg);
    // The hog pins the pool and never lets go (until exit at 500 ms).
    k.spawn_process("hog", "", |ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..56).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        ctx.sleep(SimDuration::from_millis(500))?;
        Ok(())
    });
    let victim = k.spawn_process("victim", "", |ctx| {
        ctx.sleep(SimDuration::from_millis(1))?;
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, i)).collect();
        assert_eq!(ctx.pred(kv, &tokens).unwrap_err(), SysError::Busy);
        Ok(())
    });
    k.run();
    assert!(k.record(victim).unwrap().status.is_ok());
    let rs = k.resilience_stats();
    assert_eq!(rs.preds_requeued, 3, "all requeue budget used: {rs:?}");
    assert!(rs.preds_shed >= 1, "then shed: {rs:?}");
}

// ---- fault containment -------------------------------------------------------

#[test]
fn pred_faults_are_contained_and_retryable() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan {
        pred_fault_rate: 0.05,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    // A defensive LIP retries transient pred faults; with 60 preds at 5%
    // and 5 tries each, it survives with overwhelming probability (and the
    // run is seeded, so "overwhelming" means "always, for this seed").
    let tough = k.spawn_process("tough", "", |ctx| {
        let kv = ctx.kv_create()?;
        for pos in 0..60u32 {
            let tok = (pos % 50) + 1;
            let mut tries = 0;
            loop {
                match ctx.pred(kv, &[(tok, pos)]) {
                    Ok(_) => break,
                    Err(SysError::Fault(site)) if tries < 5 => {
                        assert_eq!(site, "gpu.pred");
                        tries += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        assert_eq!(ctx.kv_len(kv)?, 60, "every token eventually landed");
        Ok(())
    });
    k.run();
    let rec = k.record(tough).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    let fs = k.fault_stats();
    assert!(fs.pred_faults > 0, "faults must actually fire: {fs:?}");
    assert_eq!(
        k.gpu_metrics().requests_faulted,
        fs.pred_faults,
        "injector and GPU agree"
    );
    // Faulted work left no partial KV state behind.
    k.store().verify().unwrap();
}

#[test]
fn swap_in_faults_surface_typed_and_are_retryable() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan {
        swap_in_fault_rate: 0.5,
        ..FaultPlan::default()
    };
    let mut k = Kernel::new(cfg);
    let pid = k.spawn_process("swapper", "", |ctx| {
        let kv = ctx.kv_create()?;
        let tokens: Vec<(u32, u32)> = (0..12).map(|i| (i + 1, i)).collect();
        ctx.pred(kv, &tokens)?;
        for _ in 0..10 {
            ctx.kv_swap_out(kv)?;
            let mut tries = 0;
            loop {
                match ctx.kv_swap_in(kv) {
                    Ok(()) => break,
                    Err(SysError::Fault("kv.swap_in")) if tries < 20 => tries += 1,
                    Err(e) => return Err(e),
                }
            }
            // Swapped back in: pred works again.
            ctx.pred(kv, &[(99, ctx.kv_next_pos(kv)?)])?;
        }
        Ok(())
    });
    k.run();
    assert!(k.record(pid).unwrap().status.is_ok(), "{:?}", k.record(pid).unwrap().status);
    assert!(k.fault_stats().swap_in_failures > 0);
    k.store().verify().unwrap();
}

#[test]
fn unprotected_process_fails_typed_while_siblings_survive() {
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan::tools_only(1.0); // every tool attempt faults
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "api",
        ToolSpec::fixed(SimDuration::from_millis(1), |_| ToolOutcome::Ok("ok".into())),
    );
    // No retry policy: the very first injected fault kills this call.
    let naive = k.spawn_process("naive", "", |ctx| {
        ctx.call_tool("api", "")?;
        Ok(())
    });
    let sibling = k.spawn_process("sibling", "", |ctx| {
        let kv = ctx.kv_create()?;
        ctx.pred(kv, &[(1, 0), (2, 1), (3, 2)])?;
        ctx.emit("untouched")?;
        Ok(())
    });
    k.run();
    assert_eq!(
        k.record(naive).unwrap().status,
        ExitStatus::Error(SysError::Fault("tool"))
    );
    let rec = k.record(sibling).unwrap();
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    assert_eq!(rec.output, "untouched");
    // The failed process's resources were reclaimed.
    assert_eq!(k.store().gpu_pages_used(), 0);
}

// ---- determinism -------------------------------------------------------------

/// A mixed workload exercising preds, tool calls with retries, swaps and
/// IPC under an aggressive fault plan. Returns everything observable.
fn chaos_run(seed: u64) -> (Vec<TimedEvent>, Vec<(String, String, bool)>, String) {
    let mut cfg = KernelConfig::for_tests();
    cfg.seed = seed;
    cfg.telemetry = true;
    cfg.faults = FaultPlan {
        tool_fault_rate: 0.15,
        tool_hang_fraction: 0.3,
        tool_stall_factor: 20.0,
        pred_fault_rate: 0.02,
        swap_in_fault_rate: 0.1,
        ipc_drop_rate: 0.2,
        journal_write_fault_rate: 0.0,
        ..FaultPlan::default()
    };
    cfg.tool_retry =
        Some(RetryPolicy::exponential(4, SimDuration::from_millis(5)));
    cfg.breaker = Some(BreakerPolicy::new(5, SimDuration::from_millis(50)));
    cfg.admission = Some(AdmissionPolicy::bounded(128));
    cfg.default_limits = Limits {
        tool_timeout: Some(SimDuration::from_millis(200)),
        deadline: Some(SimDuration::from_secs(30)),
        ..Default::default()
    };
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "search",
        ToolSpec::new(SimDuration::from_millis(20), |args| {
            ToolOutcome::Ok(format!("results:{args}"))
        }),
    );
    for i in 0..10u64 {
        let name = format!("worker-{i}");
        k.spawn_process(&name, &i.to_string(), |ctx| {
            let kv = ctx.kv_create()?;
            let mut pos = 0u32;
            for round in 0..8u32 {
                // Generation with LIP-level fault retry.
                let tok = (round % 40) + 1;
                let mut tries = 0;
                loop {
                    match ctx.pred(kv, &[(tok, pos)]) {
                        Ok(_) => break,
                        Err(SysError::Fault(_)) | Err(SysError::Busy) if tries < 8 => tries += 1,
                        Err(e) => return Err(e),
                    }
                }
                pos += 1;
                // Server-side tool call under kernel retry + breaker.
                match ctx.call_tool("search", "q") {
                    Ok(_) | Err(SysError::Fault(_)) | Err(SysError::Timeout)
                    | Err(SysError::Unavailable) | Err(SysError::ToolFailed(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            ctx.emit(&format!("done pos={pos}"))?;
            Ok(())
        });
    }
    k.run();
    let procs: Vec<(String, String, bool)> = k
        .records()
        .map(|r| (r.name.clone(), r.output.clone(), r.status.is_ok()))
        .collect();
    let fs = k.fault_stats();
    let rs = k.resilience_stats();
    let summary = format!(
        "{fs:?} {rs:?} gpu_faulted={} tools={}",
        k.gpu_metrics().requests_faulted,
        k.gpu_metrics().requests_ok,
    );
    (k.telemetry_events().to_vec(), procs, summary)
}

#[test]
fn chaos_same_seed_runs_are_byte_identical() {
    let (ev1, procs1, stats1) = chaos_run(0xC4A05);
    let (ev2, procs2, stats2) = chaos_run(0xC4A05);
    assert_eq!(ev1, ev2, "event streams diverged");
    assert_eq!(procs1, procs2, "per-process outputs diverged");
    assert_eq!(stats1, stats2, "stats diverged");
    // The chaos actually happened (tool faults fired) and was recorded.
    assert!(!stats1.contains("tool_failures: 0"), "{stats1}");
}

#[test]
fn chaos_run_contains_all_failures() {
    let (_, procs, summary) = chaos_run(7);
    assert_eq!(procs.len(), 10);
    let survivors = procs.iter().filter(|(_, _, ok)| *ok).count();
    assert!(
        survivors >= 8,
        "defensive LIPs should mostly survive: {survivors}/10 ({summary})"
    );
}

#[test]
fn different_seeds_diverge() {
    let (ev1, ..) = chaos_run(1);
    let (ev2, ..) = chaos_run(2);
    assert_ne!(ev1, ev2, "fault schedule must depend on the seed");
}

#[test]
fn zero_rate_plan_is_identical_to_machinery_off() {
    fn run(resilience_on: bool) -> (Vec<TimedEvent>, Vec<String>) {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        if resilience_on {
            // Machinery armed, but nothing ever fails or queues deep
            // enough to engage it: must be byte-identical to off.
            cfg.faults = FaultPlan::none();
            cfg.tool_retry =
                Some(RetryPolicy::exponential(5, SimDuration::from_millis(10)));
            cfg.breaker = Some(BreakerPolicy::new(3, SimDuration::from_millis(50)));
            cfg.admission = Some(AdmissionPolicy::bounded(1024));
        }
        let mut k = Kernel::new(cfg);
        k.register_tool(
            "echo",
            ToolSpec::new(SimDuration::from_millis(10), |a| ToolOutcome::Ok(a.into())),
        );
        for i in 0..4u64 {
            k.spawn_process(&format!("p{i}"), "", |ctx| {
                let kv = ctx.kv_create()?;
                let mut dist = ctx
                    .pred_positions(kv, &[1, 2, 3, 4], 0)?
                    .pop()
                    .ok_or(SysError::BadArgument)?;
                for pos in 4..12u32 {
                    let t = ctx.sample(&dist);
                    dist = ctx.pred(kv, &[(t, pos)])?.remove(0);
                    ctx.emit_tokens(&[t])?;
                }
                ctx.call_tool("echo", "ping")?;
                Ok(())
            });
        }
        k.run();
        (
            k.telemetry_events().to_vec(),
            k.records().map(|r| r.output.clone()).collect(),
        )
    }
    assert_eq!(run(false), run(true));
}
