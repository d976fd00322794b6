//! E8 — §6 sandbox cost: LipScript vs native LIPs.
//!
//! The same autoregressive loop runs as a native Rust LIP and as an
//! interpreted LipScript program. Virtual-time behaviour is identical (both
//! issue the same syscalls); the interpreter's cost is host CPU, which we
//! report as wall-clock per generated token, plus the fuel/memory the §6
//! accounting attributes to the guest.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_lipscript`

use serde::Serialize;
use symphony::{Kernel, KernelConfig, SysError};
use symphony_bench::{write_json, Table};
use symphony_lipscript::{InterpLimits, Interpreter};

const RUNS: usize = 16;
const MAX_TOKENS: usize = 64;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    tokens: u64,
    virtual_ms_per_token: f64,
    wall_us_per_token: f64,
    syscalls: u64,
    fuel_per_token: f64,
}

const SCRIPT: &str = r#"
let prompt = tokenize(args());
let kv = kv_create();
let dists = pred(kv, prompt, 0);
let d = dists[len(dists) - 1];
let pos = len(prompt);
let n = 0;
while (n < 64) {
    let t = argmax(d);
    if (t == eos()) { break; }
    emit_token(t);
    d = pred(kv, [t], pos)[0];
    pos = pos + 1;
    n = n + 1;
}
kv_remove(kv);
"#;

fn run_mode(lipscript: bool) -> Point {
    let mut cfg = KernelConfig::for_tests();
    cfg.model = cfg.model.with_mean_output_tokens(100_000);
    let mut kernel = Kernel::new(cfg);
    let fuel_total = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut pids = Vec::new();
    for i in 0..RUNS {
        let args = format!("a prompt for measurement case number {i}");
        if lipscript {
            let fuel = fuel_total.clone();
            pids.push(kernel.spawn_process(&format!("ls{i}"), &args, move |ctx| {
                let program = std::sync::Arc::new(
                    symphony_lipscript::parse::parse(SCRIPT)
                        .map_err(|e| SysError::ToolFailed(e.to_string()))?,
                );
                let mut interp = Interpreter::new(program, InterpLimits::default());
                let r = interp
                    .run(ctx)
                    .map(|_| ())
                    .map_err(|e| SysError::ToolFailed(e.to_string()));
                fuel.fetch_add(interp.fuel_used(), std::sync::atomic::Ordering::Relaxed);
                r
            }));
        } else {
            pids.push(kernel.spawn_process(&format!("rs{i}"), &args, |ctx| {
                let prompt = ctx.tokenize(&ctx.args())?;
                let kv = ctx.kv_create()?;
                let mut d = ctx
                    .pred_positions(kv, &prompt, 0)?
                    .pop()
                    .ok_or(SysError::BadArgument)?;
                for pos in (prompt.len() as u32..).take(MAX_TOKENS) {
                    let t = d.argmax();
                    if t == ctx.eos() {
                        break;
                    }
                    ctx.emit_tokens(&[t])?;
                    d = ctx.pred(kv, &[(t, pos)])?.remove(0);
                }
                ctx.kv_remove(kv)?;
                Ok(())
            }));
        }
    }
    let wall = std::time::Instant::now();
    kernel.run();
    let wall = wall.elapsed();

    let mut tokens = 0u64;
    let mut syscalls = 0u64;
    let mut virt = symphony_sim::Series::new();
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        tokens += rec.usage.emitted_tokens;
        syscalls += rec.usage.syscalls;
        virt.add(rec.latency().expect("exited").as_millis_f64() / rec.usage.emitted_tokens as f64);
    }
    Point {
        mode: if lipscript { "lipscript" } else { "native" }.to_string(),
        tokens,
        virtual_ms_per_token: virt.mean(),
        wall_us_per_token: wall.as_micros() as f64 / tokens.max(1) as f64,
        syscalls,
        fuel_per_token: fuel_total.load(std::sync::atomic::Ordering::Relaxed) as f64
            / tokens.max(1) as f64,
    }
}

fn main() {
    let mut table = Table::new(
        "E8 — interpreter overhead: the same generation loop, native vs LipScript",
        &["mode", "tokens", "virtual ms/token", "wall us/token", "syscalls", "fuel/token"],
    );
    let mut results = Vec::new();
    for lipscript in [false, true] {
        eprintln!("E8: lipscript={lipscript} ...");
        let p = run_mode(lipscript);
        table.row(vec![
            p.mode.clone(),
            p.tokens.to_string(),
            format!("{:.3}", p.virtual_ms_per_token),
            format!("{:.1}", p.wall_us_per_token),
            p.syscalls.to_string(),
            format!("{:.0}", p.fuel_per_token),
        ]);
        results.push(p);
    }
    table.print();
    println!("\nShape check: virtual time per token is identical (same syscalls); the");
    println!("sandbox costs host CPU only, and fuel accounting quantifies guest work.");
    write_json("exp_lipscript", &results);
}
