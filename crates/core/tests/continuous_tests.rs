//! Continuous (iteration-level) batching end-to-end: the executor may
//! change *when* tokens are computed — chunked prefill, preemption, MLFQ
//! ordering — but never *what* any program observes.

use symphony::sampling::{self, GenOpts};
use symphony::{
    ContinuousConfig, ExecMode, Kernel, KernelConfig, MlfqConfig, Pid, QueueDiscipline,
    SimDuration, TimedEvent,
};

fn continuous(chunk: Option<usize>, discipline: QueueDiscipline) -> ExecMode {
    ExecMode::Continuous(ContinuousConfig {
        chunk_tokens: chunk,
        discipline,
    })
}

/// A small mixed workload: staggered arrivals, longish prompts, greedy
/// decode. Returns the per-process outputs in spawn order.
fn run_workload(mut cfg: KernelConfig) -> (Kernel, Vec<Pid>) {
    cfg.syscall_cost = SimDuration::from_micros(1);
    let mut k = Kernel::new(cfg);
    let mut pids = Vec::new();
    for i in 0..6u64 {
        let at = symphony::SimTime::ZERO + SimDuration::from_millis(i * 2);
        let args = format!(
            "request {i}: the quick brown fox jumps over the lazy dog and \
             keeps going for a while to make the prefill worth chunking"
        );
        pids.push(k.schedule_process(at, &format!("p{i}"), &args, |ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            sampling::generate(
                ctx,
                kv,
                &prompt,
                &GenOpts {
                    max_tokens: 10,
                    ..Default::default()
                },
            )?;
            ctx.kv_remove(kv)?;
            Ok(())
        }));
    }
    k.run();
    (k, pids)
}

fn outputs(k: &Kernel, pids: &[Pid]) -> Vec<String> {
    pids.iter()
        .map(|&p| {
            let rec = k.record(p).unwrap();
            assert!(rec.status.is_ok(), "{:?}", rec.status);
            rec.output.clone()
        })
        .collect()
}

#[test]
fn continuous_modes_agree_with_static_outputs() {
    // Same seed, same programs: run-to-completion, unchunked continuous,
    // and chunked continuous must produce identical generations.
    let (ks, pids) = run_workload(KernelConfig::for_tests());

    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(None, QueueDiscipline::Fifo);
    let (kc, pidc) = run_workload(cfg);

    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(Some(8), QueueDiscipline::Fifo);
    let (kk, pidk) = run_workload(cfg);

    let want = outputs(&ks, &pids);
    assert_eq!(outputs(&kc, &pidc), want, "continuous changed outputs");
    assert_eq!(outputs(&kk, &pidk), want, "chunking changed outputs");
    // The chunked run actually split prefills.
    assert!(kk.prefill_chunks() > 0, "expected chunked prefill iterations");
    assert_eq!(ks.prefill_chunks(), 0, "static mode never chunks");
    kk.store().verify().unwrap();
}

#[test]
fn continuous_mode_is_deterministic() {
    fn once(chunk: Option<usize>, discipline: QueueDiscipline) -> (Vec<TimedEvent>, Vec<String>) {
        let mut cfg = KernelConfig::for_tests();
        cfg.exec = continuous(chunk, discipline);
        cfg.telemetry = true;
        let (k, pids) = run_workload(cfg);
        let out = outputs(&k, &pids);
        (k.telemetry_events().to_vec(), out)
    }
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Mlfq(MlfqConfig::default()),
    ] {
        let (ev1, out1) = once(Some(8), discipline);
        let (ev2, out2) = once(Some(8), discipline);
        assert_eq!(ev1, ev2, "event streams differ ({discipline:?})");
        assert_eq!(out1, out2);
    }
}

#[test]
fn iteration_interleaves_decode_with_chunked_prefill() {
    // A decoder that is already running must keep producing tokens while a
    // late long prefill is being chunked: more batches than either program
    // alone needs, and both finish.
    let mut cfg = KernelConfig::for_tests();
    cfg.exec = continuous(Some(4), QueueDiscipline::Fifo);
    cfg.syscall_cost = SimDuration::from_micros(1);
    let mut k = Kernel::new(cfg);
    let early = k.spawn_process("decoder", "short start", |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        sampling::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts { max_tokens: 24, ..Default::default() },
        )?;
        Ok(())
    });
    let late_at = symphony::SimTime::ZERO + SimDuration::from_millis(1);
    let late = k.schedule_process(late_at, "prefiller", "", |ctx| {
        let kv = ctx.kv_create()?;
        let long: Vec<u32> = (1..=40).collect();
        ctx.pred_positions(kv, &long, 0)?;
        Ok(())
    });
    k.run();
    assert!(k.record(early).unwrap().status.is_ok());
    assert!(k.record(late).unwrap().status.is_ok());
    // 40 tokens at chunk 4 is ten prefill iterations.
    assert!(
        k.prefill_chunks() >= 10,
        "expected >= 10 chunk iterations, got {}",
        k.prefill_chunks()
    );
    assert!(k.gpu_metrics().batches >= 10);
}

#[test]
fn preemption_under_tiny_pool_completes_everyone() {
    // Four programs whose combined KV exceeds the GPU pool: the executor
    // must preempt (swap KV out) rather than fail anyone, and preemption
    // must not change any output.
    fn cfg(exec: ExecMode) -> KernelConfig {
        let mut c = KernelConfig::for_tests();
        // 18 pages of 4 tokens: about two of the four programs fit at once.
        c.gpu_kv_bytes_override = Some(18 * 4 * 512);
        c.exec = exec;
        c
    }
    fn run(c: KernelConfig) -> (Kernel, Vec<Pid>) {
        let mut k = Kernel::new(c);
        let mut pids = Vec::new();
        for i in 0..4u64 {
            let filler = "the cache fills up with many tokens ".repeat(3);
            let args = format!("program {i}: {filler}");
            pids.push(k.spawn_process(&format!("p{i}"), &args, |ctx| {
                let prompt = ctx.tokenize(&ctx.args())?;
                let kv = ctx.kv_create()?;
                sampling::generate(
                    ctx,
                    kv,
                    &prompt,
                    &GenOpts { max_tokens: 8, ..Default::default() },
                )?;
                Ok(())
            }));
        }
        k.run();
        (k, pids)
    }
    // Baseline outputs from an unconstrained static run.
    let (base, base_pids) = run(KernelConfig::for_tests());
    let want = outputs(&base, &base_pids);

    let (k, pids) = run(cfg(continuous(Some(8), QueueDiscipline::Fifo)));
    assert_eq!(outputs(&k, &pids), want, "preemption changed outputs");
    assert!(
        k.preemptions() > 0,
        "pool is too small for all four programs; expected preemptions"
    );
    let stats = k.kv_stats();
    assert!(stats.swapped_out_tokens > 0);
    k.store().verify().unwrap();
}

#[test]
fn mlfq_serves_fresh_programs_ahead_of_long_runners() {
    // Program-aware scheduling: a program that has already consumed lots
    // of critical-path service drops to a lower MLFQ level, so a fresh
    // program whose pred arrives *after* the long-runner's next pred still
    // goes first (non-clairvoyant shortest-remaining-first). A coordinator
    // releases both contenders at the same virtual instant; with zero
    // syscall cost the long program's pred lands in the queue first, so
    // FIFO and MLFQ genuinely disagree on the order.
    fn finish_order(discipline: QueueDiscipline) -> (symphony::SimTime, symphony::SimTime) {
        let mut cfg = KernelConfig::for_tests();
        cfg.exec = continuous(Some(4), discipline);
        cfg.max_batch = 1; // one admission slot: queue order decides
        let mut k = Kernel::new(cfg);
        let coord = k.spawn_process("coord", "", |ctx| {
            let ready = ctx.recv_msg()?;
            let short = ctx
                .lookup_process("short")?
                .ok_or(symphony::SysError::NotFound)?;
            ctx.send_msg(ready.from, "go")?;
            ctx.send_msg(short, "go")?;
            Ok(())
        });
        let long = k.spawn_process("long", "", move |ctx| {
            let kv = ctx.kv_create()?;
            // Accrue 32 tokens of critical-path service: two quanta.
            let warmup: Vec<u32> = (1..=32).collect();
            ctx.pred_positions(kv, &warmup, 0)?;
            ctx.send_msg(coord, "ready")?;
            ctx.recv_msg()?;
            let more: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, 32 + i)).collect();
            ctx.pred(kv, &more)?;
            Ok(())
        });
        let short = k.spawn_process("short", "", |ctx| {
            ctx.recv_msg()?;
            let kv = ctx.kv_create()?;
            ctx.pred_positions(kv, &[1, 2, 3], 0)?;
            Ok(())
        });
        k.run();
        let l = k.record(long).unwrap();
        let s = k.record(short).unwrap();
        assert!(l.status.is_ok(), "{:?}", l.status);
        assert!(s.status.is_ok(), "{:?}", s.status);
        (s.exited_at.unwrap(), l.exited_at.unwrap())
    }

    let (s, l) = finish_order(QueueDiscipline::Mlfq(MlfqConfig {
        levels: 3,
        quantum_tokens: 16,
    }));
    assert!(
        s < l,
        "MLFQ should serve the fresh program first (short {s:?}, long {l:?})"
    );
    let (s, l) = finish_order(QueueDiscipline::Fifo);
    assert!(
        l < s,
        "FIFO control: the earlier-queued long pred goes first \
         (short {s:?}, long {l:?})"
    );
}
