//! E2 — §2.2 communication overhead: server-side vs client-side function
//! calling.
//!
//! One agent task interleaves generation with `n` tool calls. Three
//! execution models, all on the same substrate:
//!
//! - `server-lip`: the LIP calls tools inside the server (no round trips).
//! - `client-stateful`: the client executes each tool; every call costs one
//!   network round trip, but server-side state (KV) survives.
//! - `client-prompt`: a stateless prompt API — each round trip also
//!   re-prefills the whole accumulated context (no cache).
//!
//! Expected shape: the gap grows linearly in the number of calls; the
//! stateless variant adds recompute on top of the round trips.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_toolcalls`

use serde::Serialize;
use symphony::sampling::{generate, GenOpts};
use symphony::{
    Ctx, Kernel, KernelConfig, MetricsSnapshot, SimDuration, SysError, ToolOutcome, ToolSpec,
};
use symphony_bench::{write_json_with_metrics, ExpArgs, Table, TelemetryOpts};

const RTT: SimDuration = SimDuration::from_millis(40);
const TOOL_LATENCY: SimDuration = SimDuration::from_millis(25);
const SEGMENT_TOKENS: usize = 16;
const PROMPT: &str = "an agent plan with several external lookups and calculations";

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    calls: usize,
    latency_ms: f64,
    pred_tokens: u64,
}

fn gen_opts() -> GenOpts {
    GenOpts {
        max_tokens: SEGMENT_TOKENS,
        temperature: 0.0,
        emit: false,
        ..Default::default()
    }
}

/// Server-side: tools run inside the serving system, KV persists.
fn server_lip(ctx: &mut Ctx, calls: usize) -> Result<(), SysError> {
    let kv = ctx.kv_create()?;
    let mut next = ctx.tokenize(PROMPT)?;
    for i in 0..calls {
        generate(ctx, kv, &next, &gen_opts())?;
        let result = ctx.call_tool("api", &format!("call {i}"))?;
        next = ctx.tokenize(&result)?;
    }
    generate(ctx, kv, &next, &gen_opts())?;
    Ok(())
}

/// Client-executed tools with a stateful server: one RTT per call, KV kept.
fn client_stateful(ctx: &mut Ctx, calls: usize) -> Result<(), SysError> {
    let kv = ctx.kv_create()?;
    let mut next = ctx.tokenize(PROMPT)?;
    for i in 0..calls {
        generate(ctx, kv, &next, &gen_opts())?;
        // Round trip to the client, which runs the tool, and back.
        ctx.sleep(RTT)?;
        let result = ctx.call_tool("api", &format!("call {i}"))?;
        ctx.sleep(RTT)?;
        next = ctx.tokenize(&result)?;
    }
    generate(ctx, kv, &next, &gen_opts())?;
    Ok(())
}

/// Stateless prompt API: each round recreates the whole context.
fn client_prompt(ctx: &mut Ctx, calls: usize) -> Result<(), SysError> {
    let mut transcript = ctx.tokenize(PROMPT)?;
    for i in 0..calls {
        // Fresh request: re-prefill everything accumulated so far.
        let kv = ctx.kv_create()?;
        let out = generate(ctx, kv, &transcript, &gen_opts())?;
        transcript.extend(&out.tokens);
        ctx.kv_remove(kv)?;
        ctx.sleep(RTT)?;
        let result = ctx.call_tool("api", &format!("call {i}"))?;
        ctx.sleep(RTT)?;
        transcript.extend(ctx.tokenize(&result)?);
    }
    let kv = ctx.kv_create()?;
    generate(ctx, kv, &transcript, &gen_opts())?;
    Ok(())
}

/// Runs one `(mode, calls)` point. The designated run may record events
/// for the Perfetto export; recording never changes results — the bus
/// only observes.
fn run_mode(
    mode: &str,
    calls: usize,
    telemetry: &TelemetryOpts,
    designated: bool,
) -> (Point, Option<MetricsSnapshot>) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(1_000); // segments end by cap
    cfg.telemetry = telemetry.record(designated);
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "api",
        ToolSpec::fixed(TOOL_LATENCY, |args| ToolOutcome::Ok(format!("api result for {args}"))),
    );
    let mode_owned = mode.to_string();
    let pid = kernel.spawn_process(mode, &calls.to_string(), move |ctx| {
        let calls: usize = ctx.args().parse().map_err(|_| SysError::BadArgument)?;
        match mode_owned.as_str() {
            "server-lip" => server_lip(ctx, calls),
            "client-stateful" => client_stateful(ctx, calls),
            "client-prompt" => client_prompt(ctx, calls),
            _ => Err(SysError::BadArgument),
        }
    });
    kernel.run();
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{mode}: {:?}", rec.status);
    let point = Point {
        mode: mode.to_string(),
        calls,
        latency_ms: rec.latency().expect("exited").as_millis_f64(),
        pred_tokens: rec.usage.pred_tokens,
    };
    let snap = telemetry.export_designated(&kernel, designated);
    (point, snap)
}

fn main() {
    let opts = ExpArgs::from_args().telemetry;
    let modes = ["server-lip", "client-stateful", "client-prompt"];
    let call_counts = [1usize, 2, 4, 8, 16];
    let designated_calls = *call_counts.last().expect("non-empty");
    let mut results = Vec::new();
    let mut captured: Option<MetricsSnapshot> = None;
    let mut table = Table::new(
        "E2 — function calling: server-side vs client round trips (RTT 40ms)",
        &["calls", "server-lip", "client-stateful", "client-prompt", "prompt pred-tokens"],
    );
    for &calls in &call_counts {
        eprintln!("E2: {calls} calls ...");
        let pts: Vec<Point> = modes
            .iter()
            .map(|m| {
                // The designated telemetry run: server-lip at max calls.
                let designated = *m == "server-lip" && calls == designated_calls;
                let (pt, snap) = run_mode(m, calls, &opts, designated);
                if designated {
                    captured = snap;
                }
                pt
            })
            .collect();
        table.row(vec![
            calls.to_string(),
            format!("{:.0}ms", pts[0].latency_ms),
            format!("{:.0}ms (+{:.0})", pts[1].latency_ms, pts[1].latency_ms - pts[0].latency_ms),
            format!("{:.0}ms (+{:.0})", pts[2].latency_ms, pts[2].latency_ms - pts[0].latency_ms),
            format!("{} vs {} (lip)", pts[2].pred_tokens, pts[0].pred_tokens),
        ]);
        results.extend(pts);
    }
    table.print();
    println!("\nShape check: client-stateful − server-lip ≈ 2·RTT·calls = round-trip overhead.");
    let metrics = captured.as_ref().filter(|_| opts.metrics);
    write_json_with_metrics("exp_toolcalls", &results, metrics);
}
