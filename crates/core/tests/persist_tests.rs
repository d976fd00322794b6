//! Warm-restart persistence tests: journal snapshot at shutdown, replay at
//! boot, golden-trace equivalence against a cold kernel, and torn-tail
//! recovery under fault injection.

use symphony::sampling::{self, GenOpts};
use symphony::{FaultPlan, Kernel, KernelConfig, Mode, TimedEvent};
use symphony_kvfs::KvError;

/// Unique-per-process temp path so parallel test runs don't collide.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("symphony-persist-{}-{}", std::process::id(), name))
}

const SYS_TEXT: &str = "system prompt shared by every request in the fleet ";

fn preload(k: &mut Kernel) -> usize {
    let tokens = k.tokenizer().encode(&SYS_TEXT.repeat(8));
    k.preload_kv("sys.kv", &tokens, Mode::SHARED_READ, true).unwrap();
    tokens.len()
}

/// The same RAG-style workload run against either kernel: fork the shared
/// prefix, generate a short answer, drop the fork.
fn rag_workload(k: &mut Kernel) -> (String, Vec<TimedEvent>) {
    let mut pids = Vec::new();
    for i in 0..3 {
        let args = format!("question number {i}");
        pids.push(k.spawn_process(&format!("rag{i}"), &args, |ctx| {
            let prefix = ctx.kv_open("sys.kv")?;
            let kv = ctx.kv_fork(prefix)?;
            let q = ctx.tokenize(&ctx.args())?;
            sampling::generate(ctx, kv, &q, &GenOpts { max_tokens: 16, ..Default::default() })?;
            ctx.kv_remove(kv)?;
            Ok(())
        }));
    }
    k.run();
    for &p in &pids {
        assert!(k.record(p).unwrap().status.is_ok());
    }
    (k.export_chrome_trace(), k.telemetry_events().to_vec())
}

#[test]
fn warm_restart_restores_pinned_prefix() {
    let path = tmp("warm.journal");
    let n_sys = {
        let mut cold = Kernel::new(KernelConfig::for_tests());
        let n = preload(&mut cold);
        assert!(cold.restored().is_none(), "cold start has no restore report");
        assert!(cold.persist_kv(&path).unwrap(), "unfaulted journal lands complete");
        n
    };

    let mut cfg = KernelConfig::for_tests();
    cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(cfg);
    let report = *warm.restored().expect("journal replayed at boot");
    assert_eq!(report.files, 1);
    assert_eq!(report.links, 1);
    assert_eq!(report.tokens, n_sys);
    assert_eq!(report.torn, None);
    let f = warm.store().lookup("sys.kv").expect("namespace restored");
    assert!(warm.store().stat(f).unwrap().pinned, "pin survives restart");
    warm.store().verify().unwrap();

    // The restored prefix is live: a fork starts at the full prefix length.
    let n = n_sys as u32;
    let pid = warm.spawn_process("reuse", "the question", move |ctx| {
        let prefix = ctx.kv_open("sys.kv")?;
        let kv = ctx.kv_fork(prefix)?;
        assert_eq!(ctx.kv_next_pos(kv)?, n);
        let q = ctx.tokenize(&ctx.args())?;
        sampling::generate(ctx, kv, &q, &GenOpts { max_tokens: 8, ..Default::default() })?;
        Ok(())
    });
    warm.run();
    assert!(warm.record(pid).unwrap().status.is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn restored_kernel_matches_fresh_kernel_trace() {
    // Acceptance criterion: the golden trace of a post-restore run is
    // byte-identical to a no-restart run for the same workload suffix.
    let path = tmp("golden.journal");
    {
        let mut seed = Kernel::new(KernelConfig::for_tests());
        preload(&mut seed);
        assert!(seed.persist_kv(&path).unwrap());
    }

    let mut cfg = KernelConfig::for_tests();
    cfg.telemetry = true;
    let mut fresh = Kernel::new(cfg.clone());
    preload(&mut fresh);

    let mut warm_cfg = cfg;
    warm_cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(warm_cfg);
    assert!(warm.restored().is_some());

    let (fresh_trace, fresh_events) = rag_workload(&mut fresh);
    let (warm_trace, warm_events) = rag_workload(&mut warm);
    assert_eq!(fresh_trace, warm_trace, "chrome traces must be byte-identical");
    assert_eq!(fresh_events, warm_events, "event streams must match");
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_write_is_recovered_on_replay() {
    let path = tmp("torn.journal");
    let mut cfg = KernelConfig::for_tests();
    cfg.faults = FaultPlan { journal_write_fault_rate: 1.0, ..FaultPlan::none() };
    cfg.telemetry = true;
    let mut k = Kernel::new(cfg);
    preload(&mut k);
    assert!(!k.persist_kv(&path).unwrap(), "injected fault must tear the tail");
    assert_eq!(k.fault_stats().journal_write_failures, 1);
    assert!(
        k.export_chrome_trace().contains("journal_write"),
        "fault site must be visible in telemetry"
    );

    // Replay of the torn file: no panic, typed tear detail, valid prefix
    // only, and the kernel still boots and serves.
    let mut warm_cfg = KernelConfig::for_tests();
    warm_cfg.journal_path = Some(path.clone());
    let mut warm = Kernel::new(warm_cfg);
    if let Some(report) = warm.restored() {
        assert_eq!(report.torn, Some(KvError::JournalTorn));
        assert!(report.files <= 1);
    }
    warm.store().verify().unwrap();
    let pid = warm.spawn_process("after-tear", "still serving", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        sampling::generate(ctx, kv, &prompt, &GenOpts { max_tokens: 8, ..Default::default() })?;
        ctx.kv_remove(kv)?;
        Ok(())
    });
    warm.run();
    assert!(warm.record(pid).unwrap().status.is_ok());
    std::fs::remove_file(&path).ok();
}
