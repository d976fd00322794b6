//! E11 — resilience under injected tool faults (`docs/RESILIENCE.md`).
//!
//! A fleet of agents interleaves generation with tool calls while the
//! kernel's fault injector fails or hangs tool attempts at a swept rate.
//! Three resilience configurations, same substrate, same seed:
//!
//! - `no-retry`: the kernel passes failures straight through; an agent
//!   whose call fails aborts its task.
//! - `retry4`: kernel-level retry, 4 attempts with exponential backoff
//!   (5 ms base) — the LIP code is unchanged.
//! - `retry4+breaker`: retries plus a per-tool circuit breaker
//!   (3 consecutive failed calls open it for 200 ms).
//!
//! Hung attempts (25% of injected faults, 20× stall) are clamped by a
//! 100 ms per-attempt timeout, so the sweep also exercises the deadline
//! machinery. Expected shape: goodput collapses with rate under
//! `no-retry`, while `retry4` holds it near 100% until the per-call
//! failure probability (rate⁴) becomes visible; retries buy that goodput
//! with latency (backoff + re-attempts) — graceful degradation, not a
//! free lunch. The breaker only engages at extreme rates, converting
//! slow repeated failure into fast `Unavailable`.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_faults`

use serde::Serialize;
use symphony::sampling::{generate, GenOpts};
use symphony::{
    BreakerPolicy, FaultPlan, Kernel, KernelConfig, Limits, RetryPolicy, SimDuration, SysError,
    ToolOutcome, ToolSpec,
};
use symphony_bench::{write_json_with_metrics, ExpArgs, Table, TelemetryOpts};

const AGENTS: usize = 24;
const CALLS_PER_AGENT: usize = 4;
const TOOL_LATENCY: SimDuration = SimDuration::from_millis(25);
const TOOL_TIMEOUT: SimDuration = SimDuration::from_millis(100);
const SEED: u64 = 0xE11;

#[derive(Debug, Clone, Serialize)]
struct Point {
    policy: String,
    fault_rate: f64,
    ok: usize,
    total: usize,
    mean_ok_latency_ms: f64,
    injected_failures: u64,
    injected_hangs: u64,
    tool_retries: u64,
    tool_timeouts: u64,
    calls_exhausted: u64,
    breaker_trips: u64,
    breaker_rejections: u64,
}

fn run_cell(
    policy: &str,
    fault_rate: f64,
    telemetry: &TelemetryOpts,
    designated: bool,
) -> (Point, Option<symphony::MetricsSnapshot>) {
    let mut cfg = KernelConfig::paper_setup();
    cfg.seed = SEED;
    cfg.telemetry = telemetry.record(designated);
    cfg.model = cfg.model.with_mean_output_tokens(1_000); // segments end by cap
    cfg.faults = FaultPlan {
        tool_fault_rate: fault_rate,
        tool_hang_fraction: 0.25,
        tool_stall_factor: 20.0,
        ..FaultPlan::default()
    };
    match policy {
        "no-retry" => {}
        "retry4" => cfg.tool_retry = Some(RetryPolicy::exponential(4, SimDuration::from_millis(5))),
        "retry4+breaker" => {
            cfg.tool_retry = Some(RetryPolicy::exponential(4, SimDuration::from_millis(5)));
            cfg.breaker = Some(BreakerPolicy::new(3, SimDuration::from_millis(200)));
        }
        other => panic!("unknown policy {other}"),
    }
    let mut kernel = Kernel::new(cfg);
    kernel.register_tool(
        "api",
        ToolSpec::fixed(TOOL_LATENCY, |args| {
            ToolOutcome::Ok(format!("api result for {args}"))
        }),
    );
    let limits = Limits {
        tool_timeout: Some(TOOL_TIMEOUT),
        ..Limits::default()
    };
    let mut pids = Vec::new();
    for a in 0..AGENTS {
        let pid = kernel.spawn_process_with_limits(&format!("agent{a}"), "", limits, |ctx| {
            let opts = GenOpts {
                max_tokens: 8,
                temperature: 0.0,
                emit: false,
                ..Default::default()
            };
            let kv = ctx.kv_create()?;
            let mut next = ctx.tokenize("an agent plan with several lookups")?;
            for i in 0..CALLS_PER_AGENT {
                generate(ctx, kv, &next, &opts)?;
                // Any tool failure — Fault, Timeout, Unavailable — aborts
                // the task: resilience lives in the kernel, not the LIP.
                let result = ctx.call_tool("api", &format!("call {i}"))?;
                next = ctx.tokenize(&result)?;
            }
            generate(ctx, kv, &next, &opts)?;
            Ok::<(), SysError>(())
        });
        pids.push(pid);
    }
    kernel.run();
    let (mut ok, mut lat_sum) = (0usize, 0.0f64);
    for &pid in &pids {
        let rec = kernel.record(pid).expect("spawned above");
        if rec.status.is_ok() {
            ok += 1;
            lat_sum += rec.latency().expect("exited").as_millis_f64();
        }
    }
    let fs = kernel.fault_stats();
    let rs = kernel.resilience_stats();
    let snap = telemetry.export_designated(&kernel, designated);
    let point = Point {
        policy: policy.to_string(),
        fault_rate,
        ok,
        total: AGENTS,
        mean_ok_latency_ms: if ok > 0 { lat_sum / ok as f64 } else { f64::NAN },
        injected_failures: fs.tool_failures,
        injected_hangs: fs.tool_hangs,
        tool_retries: rs.tool_retries,
        tool_timeouts: rs.tool_timeouts,
        calls_exhausted: rs.tool_calls_exhausted,
        breaker_trips: rs.breaker_trips,
        breaker_rejections: rs.breaker_rejections,
    };
    (point, snap)
}

fn main() {
    let opts = ExpArgs::from_args().telemetry;
    let policies = ["no-retry", "retry4", "retry4+breaker"];
    let rates = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let designated_rate = 0.2; // mid-sweep: faults fire, goodput still high
    let mut results = Vec::new();
    let mut captured: Option<symphony::MetricsSnapshot> = None;
    let mut table = Table::new(
        "E11 — tool-fault resilience: goodput / mean latency (24 agents × 4 calls)",
        &["fault rate", "no-retry", "retry4", "retry4+breaker", "retries", "timeouts", "trips/rej"],
    );
    for &rate in &rates {
        eprintln!("E11: fault rate {rate} ...");
        let pts: Vec<Point> = policies
            .iter()
            .map(|p| {
                // The designated telemetry run: retry4+breaker mid-sweep.
                let designated = *p == "retry4+breaker" && rate == designated_rate;
                let (pt, snap) = run_cell(p, rate, &opts, designated);
                if let Some(s) = snap {
                    captured = Some(s);
                }
                pt
            })
            .collect();
        let cell = |p: &Point| {
            if p.ok > 0 {
                format!("{}/{} {:.0}ms", p.ok, p.total, p.mean_ok_latency_ms)
            } else {
                format!("{}/{} —", p.ok, p.total)
            }
        };
        table.row(vec![
            format!("{rate:.2}"),
            cell(&pts[0]),
            cell(&pts[1]),
            cell(&pts[2]),
            pts[2].tool_retries.to_string(),
            pts[2].tool_timeouts.to_string(),
            format!("{}/{}", pts[2].breaker_trips, pts[2].breaker_rejections),
        ]);
        results.extend(pts);
    }
    table.print();
    println!(
        "\nShape check: retry4 holds goodput while no-retry decays ~(1-rate)^{CALLS_PER_AGENT}; \
         the price is latency (backoff + re-attempts). The breaker engages only at extreme rates."
    );
    let metrics = captured.as_ref().filter(|_| opts.metrics);
    write_json_with_metrics("exp_faults", &results, metrics);
}
