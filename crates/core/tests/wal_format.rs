//! Pins the kernel WAL's on-disk bytes. A fixed-seed durable run that
//! crosses several checkpoints (so buffered pred frames reach the file)
//! must write exactly the log it wrote when this digest was taken: any
//! change to the header, the frame codec, a record payload or the order
//! in which sync and buffered frames land fails here first.

use std::sync::Arc;

use symphony::sampling::{self, GenOpts};
use symphony::{
    Kernel, KernelConfig, ProgramImage, SimDuration, SysError, ToolOutcome, ToolSpec, WalConfig,
};
use symphony_sim::frame::fnv1a;

/// Decodes a few tokens, calls the tool and reports to the collector.
fn worker_image() -> ProgramImage {
    Arc::new(|ctx| {
        let args = ctx.args();
        let prompt = ctx.tokenize(&format!("pin the log for {args}"))?;
        let kv = ctx.kv_create()?;
        let gen = sampling::generate(
            ctx,
            kv,
            &prompt,
            &GenOpts {
                max_tokens: 6,
                temperature: 0.0,
                ..Default::default()
            },
        )?;
        let doc = ctx.call_tool("lookup", &args)?;
        let _ = ctx.now()?;
        ctx.emit(&format!("{args}={}|{doc}", ctx.detokenize(&gen.tokens)?))?;
        let to = ctx.lookup_process("collector")?.ok_or(SysError::NotFound)?;
        ctx.send_msg(to, &format!("w{args}"))?;
        ctx.kv_remove(kv)?;
        Ok(())
    })
}

fn collector_image() -> ProgramImage {
    Arc::new(|ctx| {
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(ctx.recv_msg()?.data);
        }
        got.sort();
        ctx.emit(&got.join("+"))?;
        Ok(())
    })
}

#[test]
fn durable_run_writes_the_pinned_wal() {
    let path = std::env::temp_dir().join(format!("symphony-walformat-{}.wal", std::process::id()));
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(&path).with_checkpoint_every(SimDuration::from_millis(2)));
    let mut k = Kernel::new(cfg);
    k.register_tool(
        "lookup",
        ToolSpec::fixed(SimDuration::from_millis(3), |args| {
            ToolOutcome::Ok(format!("hit:{args}"))
        }),
    );
    k.spawn_durable("collector", "", collector_image());
    k.spawn_durable("worker0", "0", worker_image());
    k.spawn_durable("worker1", "1", worker_image());
    k.run();
    let bytes = std::fs::read(&path).expect("wal written");
    std::fs::remove_file(&path).ok();

    let counts = symphony::wal::frame_counts(&bytes).expect("readable wal");
    assert!(
        counts.get("checkpoint").copied().unwrap_or(0) >= 1,
        "{counts:?}"
    );
    assert!(
        counts.get("pred_effect").copied().unwrap_or(0) >= 1,
        "{counts:?}"
    );
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (11_770, 0x08d6_4c29),
        "{counts:?}"
    );
}
