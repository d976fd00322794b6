//! The benchmark's phases, each run in a child process that prints its
//! measurements as `name value` lines, and the ladder logic they share
//! with the parent.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use symphony::telemetry::{latency_bounds_ns, percent_bounds};
use symphony::Kernel;
use symphony_lipscript::{parse::parse, verify::verify};
use symphony_serve::ServerCore;

use crate::durable::{self, Durable};
use crate::served::{self, Outcome, Solo, Tally, CONNS};
use crate::spans::{self, Tracer};
use crate::stats::{bucket_percentile, median, tail};
use crate::tcp::{self, Client, Server};
use crate::work::{self, Job, Workload};
use crate::{out_dir, Args, Lines, START};

/// Simulated client↔server round trip on the virtual clock.
pub const RTT_NS: u64 = 10_000_000;
/// Programs in every virtual run (reference and ladder).
pub const V_PROGRAMS: usize = 1000;
/// Programs per virtual ladder rung.
pub const LADDER_PROGRAMS: usize = 2000;
/// A met rate must also not be building a backlog: the median latency of
/// the last tenth of arrivals may exceed that of the second tenth (the
/// first is a cold start) by at most this share of the latency limit.
/// An absolute growth, not a ratio: at sub-millisecond latencies a ratio
/// flips on noise that threatens no limit.
pub const BACKLOG_SHARE: f64 = 0.1;
/// Kill-and-restart cycles of the served recovery phase (median).
const RESTART_CYCLES: usize = 5;
/// Fraction of the crash-free run's syscall boundaries at which the
/// durable run is crashed.
pub const CRASH_FRACTION: f64 = 0.5;

/// A fixed geometric ladder of offered rates.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Lowest rate (programs/s).
    pub lo: f64,
    /// Ratio between neighbouring rungs.
    pub step: f64,
    /// Rungs.
    pub rungs: usize,
}

impl Ladder {
    /// Rate of rung `k`.
    pub fn rate(&self, k: usize) -> f64 {
        self.lo * self.step.powi(k as i32)
    }
}

/// Per-program limits a ladder rate must meet.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Time to first streamed output, ms.
    pub ttft_ms: f64,
    /// Time to DONE, ms.
    pub latency_ms: f64,
    /// Share of sent programs that must finish `Ok` within both limits:
    /// the limit holds at the clock's reported tail (p99 virtual, p90
    /// host).
    pub share: f64,
}

/// A workload's rates, ladders and limits on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Reference virtual rate (programs per virtual second).
    pub v_rate: f64,
    /// Virtual-rate ladder.
    pub v_ladder: Ladder,
    /// Virtual limits.
    pub v_limits: Limits,
    /// Reference host rate (programs per host second).
    pub h_rate: f64,
    /// Host-rate ladder.
    pub h_ladder: Ladder,
    /// Host limits.
    pub h_limits: Limits,
}

/// The fixed settings of each workload.
pub fn params(w: Workload) -> Params {
    match w {
        Workload::RagPrefix => Params {
            v_rate: 300.0,
            v_ladder: Ladder {
                lo: 300.0,
                step: 1.05,
                rungs: 21,
            },
            v_limits: Limits {
                ttft_ms: 100.0,
                latency_ms: 500.0,
                share: 0.99,
            },
            h_rate: 250.0,
            h_ladder: Ladder {
                lo: 800.0,
                step: 1.07,
                rungs: 25,
            },
            h_limits: HOST_LIMITS,
        },
        Workload::AgentTools => Params {
            h_ladder: Ladder {
                lo: 400.0,
                step: 1.07,
                rungs: 25,
            },
            ..AGENTS
        },
        // In-process: no TCP, no door quota, so its host knee sits higher.
        Workload::DurableAgents => Params {
            h_ladder: Ladder {
                lo: 600.0,
                step: 1.07,
                rungs: 25,
            },
            ..AGENTS
        },
    }
}

const HOST_LIMITS: Limits = Limits {
    ttft_ms: 25.0,
    latency_ms: 50.0,
    share: 0.90,
};

const AGENTS: Params = Params {
    v_rate: 500.0,
    v_ladder: Ladder {
        lo: 700.0,
        step: 1.05,
        rungs: 21,
    },
    v_limits: Limits {
        ttft_ms: 50.0,
        latency_ms: 400.0,
        share: 0.99,
    },
    h_rate: 200.0,
    h_ladder: Ladder {
        lo: 400.0,
        step: 1.07,
        rungs: 25,
    },
    h_limits: HOST_LIMITS,
};

/// A phase's measurements, in print order.
pub type Out = Vec<(String, f64)>;

/// A measurement a phase printed, 0 when absent.
pub fn get(l: &Lines, k: &str) -> f64 {
    l.get(k).copied().unwrap_or(0.0)
}

fn put(out: &mut Out, name: &str, v: f64) {
    out.push((name.to_string(), if v.is_finite() { v } else { 0.0 }));
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median and tail (tail rule) of the outcomes' TTFT and latency, ms.
fn latency_metrics(out: &mut Out, prefix: &str, tail_p: f64, outcomes: &[Outcome]) {
    let ttft: Vec<f64> = outcomes.iter().filter_map(|o| o.ttft_ns).map(ms).collect();
    let lat: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.latency_ns)
        .map(ms)
        .collect();
    let p = tail_p as u32;
    for (name, v) in [("ttft", &ttft), ("latency", &lat)] {
        let med = tail(v, 50.0);
        let t = tail(v, tail_p);
        put(
            out,
            &format!("{prefix}_{name}_p50_ms"),
            med.map_or(0.0, |t| t.value),
        );
        put(
            out,
            &format!("{prefix}_{name}_p{p}_ms"),
            t.map_or(0.0, |t| t.value),
        );
        if let Some(t) = t {
            put(out, &format!("n.{prefix}_{name}"), t.n as f64);
            put(out, &format!("pused.{prefix}_{name}_p{p}"), t.p);
        }
    }
}

/// Whether a ladder rate met the limits.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Programs `Ok` within the limits.
    pub good: usize,
    /// Programs sent.
    pub sent: usize,
    /// Good programs per second of the arrival schedule.
    pub goodput: f64,
    /// Median latency of the last tenth of arrivals minus the second
    /// tenth's, ms.
    pub backlog: f64,
    /// The backlog grew by more than `BACKLOG_SHARE` of the limit.
    pub growing: bool,
    /// Met: the limits' share good and no growing backlog.
    pub pass: bool,
}

fn judge(outcomes: &[Outcome], lim: Limits) -> Verdict {
    let good = outcomes
        .iter()
        .filter(|o| {
            o.ok()
                && o.ttft_ns.is_some_and(|t| ms(t) <= lim.ttft_ms)
                && o.latency_ns.is_some_and(|t| ms(t) <= lim.latency_ms)
        })
        .count();
    let span_s = match (outcomes.first(), outcomes.last()) {
        (Some(a), Some(b)) if b.due_ns > a.due_ns => (b.due_ns - a.due_ns) as f64 / 1e9,
        _ => f64::INFINITY,
    };
    let tenth = (outcomes.len() / 10).max(1);
    let med = |os: &[Outcome]| {
        let v: Vec<f64> = os.iter().filter_map(|o| o.latency_ns).map(ms).collect();
        if v.is_empty() {
            f64::INFINITY
        } else {
            median(&v)
        }
    };
    let backlog = med(&outcomes[outcomes.len() - tenth..]) - med(&outcomes[tenth..2 * tenth]);
    // No latencies at all at the end (everything refused) is growth too.
    let growing = backlog.is_nan() || backlog > BACKLOG_SHARE * lim.latency_ms;
    Verdict {
        good,
        sent: outcomes.len(),
        goodput: good as f64 / span_s,
        backlog,
        growing,
        pass: good as f64 >= lim.share * outcomes.len() as f64 && !growing,
    }
}

fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

fn verdict_lines(out: &mut Out, v: &Verdict) {
    put(out, "good", v.good as f64);
    put(out, "goodput", v.goodput);
    put(out, "backlog", v.backlog);
    put(out, "growing", flag(v.growing));
    put(out, "pass", flag(v.pass));
}

impl Verdict {
    /// The verdict a child reported with [`verdict_lines`].
    pub fn from_lines(l: &Lines) -> Verdict {
        Verdict {
            good: get(l, "good") as usize,
            sent: get(l, "sent") as usize,
            goodput: get(l, "goodput"),
            backlog: get(l, "backlog"),
            growing: get(l, "growing") > 0.0,
            pass: get(l, "pass") > 0.0,
        }
    }
}

fn tally_lines(out: &mut Out, t: &Tally) {
    tally_lines_as(out, "", t);
}

/// A tally as `<prefix>sent`, `<prefix>ok`, ... and `<prefix>shed.<ErrCode>`.
fn tally_lines_as(out: &mut Out, prefix: &str, t: &Tally) {
    put(out, &format!("{prefix}sent"), t.sent as f64);
    put(out, &format!("{prefix}ok"), t.ok as f64);
    put(out, &format!("{prefix}failed"), t.failed as f64);
    put(out, &format!("{prefix}shed"), t.shed_total() as f64);
    put(out, &format!("{prefix}mismatched"), t.mismatched as f64);
    for (code, n) in &t.shed {
        put(out, &format!("{prefix}shed.{code}"), *n as f64);
    }
}

fn self_status(field: &str) -> f64 {
    tcp::proc_status_field("/proc/self/status", field).unwrap_or(0.0)
}

/// A probed ladder rung: its rate and verdict.
type Rung = Option<(f64, Verdict)>;

/// Bisects `ladder` for its highest met rate (rates are assumed to meet
/// the limits below the knee and miss them above it). Returns the knee
/// (highest met rung probed) and the lowest missed rung probed. Each
/// round probes `width` evenly spaced rungs of the open interval at once
/// (`probe` gets their rates, in order).
pub fn bisect(
    ladder: Ladder,
    width: i64,
    mut probe: impl FnMut(&[f64]) -> Result<Vec<Verdict>, String>,
) -> Result<(Rung, Rung), String> {
    let (mut lo, mut hi) = (-1i64, ladder.rungs as i64);
    let (mut met, mut missed) = (None, None);
    while hi - lo > 1 {
        let mut ks: Vec<i64> = (1..=width)
            .map(|j| lo + (hi - lo) * j / (width + 1))
            .collect();
        ks.retain(|&k| k > lo && k < hi);
        ks.dedup();
        if ks.is_empty() {
            ks.push((lo + hi) / 2);
        }
        let rates: Vec<f64> = ks.iter().map(|&k| ladder.rate(k as usize)).collect();
        let verdicts = probe(&rates)?;
        // Met rungs below the first missed one raise `lo`; the first
        // missed one is the new `hi`.
        for ((k, rate), v) in ks.into_iter().zip(rates).zip(verdicts) {
            if v.pass {
                lo = k;
                met = Some((rate, v));
            } else {
                hi = k;
                missed = Some((rate, v));
                break;
            }
        }
    }
    Ok((met, missed))
}

/// The ladder's result as `<prefix>_goodput_rps` and `<prefix>.*` lines.
pub fn ladder_lines(out: &mut Out, prefix: &str, met: Rung, missed: Rung) {
    // A ladder whose lowest rung already misses reports that rung's
    // goodput; one whose top rung is met does not span the knee.
    let knee = met.or(missed);
    put(
        out,
        &format!("{prefix}_goodput_rps"),
        knee.map_or(0.0, |k| k.1.goodput),
    );
    put(
        out,
        &format!("{prefix}.knee_rate"),
        met.map_or(0.0, |k| k.0),
    );
    put(
        out,
        &format!("{prefix}.knee_backlog"),
        met.map_or(0.0, |k| k.1.backlog),
    );
    put(
        out,
        &format!("{prefix}.spans_knee"),
        flag(met.is_some() && missed.is_some()),
    );
    if let Some((rate, v)) = missed {
        put(out, &format!("{prefix}.above_rate"), rate);
        put(out, &format!("{prefix}.above_backlog"), v.backlog);
        put(out, &format!("{prefix}.above_growing"), flag(v.growing));
        put(
            out,
            &format!("{prefix}.above_good_share"),
            v.good as f64 / v.sent.max(1) as f64,
        );
    }
}

// ---- child phases ----------------------------------------------------------

/// Runs one child phase.
pub fn run_child(phase: &str, a: &Args) -> Result<Out, String> {
    let w = a.workload;
    crate::pin(crate::Cpu::Kernel);
    match (phase, w.served()) {
        ("setup", true) => setup_served(a),
        ("setup", false) => setup_durable(),
        ("virtual", true) => virtual_served(a),
        ("virtual", false) => virtual_durable(a),
        ("vladder", _) => vladder(a),
        ("hprobe", true) => hprobe_served(a),
        ("hprobe", false) => hprobe_durable(a),
        ("restart", true) => restart_served(a),
        ("crash", false) => crash_durable(a),
        ("recover", false) => recover_durable(a),
        _ => Err(format!("no phase {phase} for {}", w.name())),
    }
}

fn start_elapsed() -> f64 {
    START.get().map_or(0.0, |s| s.elapsed().as_secs_f64())
}

/// Set-up of a served run: the in-process serving environment (kernel,
/// corpus, preloads, tools, door) and a `symphony-serve` through HELLO_OK,
/// timed from process start.
fn setup_served(a: &Args) -> Result<Out, String> {
    let (kernel, _) = work::served_kernel(a.workload);
    let core = ServerCore::new(kernel, served::virtual_door());
    let log = out_dir().join(format!("setup-{}.log", std::process::id()));
    let server = Server::spawn(&tcp::server_bin(), &log)?;
    let client = Client::connect(&server.addr)?;
    let setup = start_elapsed();
    drop((client, core));
    server.kill();
    let _ = std::fs::remove_file(log);
    let mut out = Out::new();
    put(&mut out, "setup_s", setup);
    Ok(out)
}

/// Set-up of a durable run: a WAL-backed kernel with its tools.
fn setup_durable() -> Result<Out, String> {
    let wal = durable::wal_path(&out_dir(), "setup");
    let d = Durable::new(durable::config(&wal, None));
    let setup = start_elapsed();
    drop(d);
    let _ = std::fs::remove_file(&wal);
    let mut out = Out::new();
    put(&mut out, "setup_s", setup);
    Ok(out)
}

/// Bench-side parse and verify of every source (the door does the same
/// work inside `feed`); returns mean µs per program of each.
fn lipscript_costs(jobs: &[Job], tr: &mut Tracer) -> (f64, f64) {
    let (mut parse_s, mut verify_s) = (0.0, 0.0);
    for (i, job) in jobs.iter().enumerate() {
        let session = i as u64 + 1;
        let t0 = Instant::now();
        let prog = tr.time("lipscript.parse", session, || parse(&job.source));
        parse_s += t0.elapsed().as_secs_f64();
        if let Ok(prog) = prog {
            let t0 = Instant::now();
            tr.time("lipscript.verify", session, || {
                std::hint::black_box(verify(&prog))
            });
            verify_s += t0.elapsed().as_secs_f64();
        }
    }
    let n = jobs.len().max(1) as f64;
    (parse_s / n * 1e6, verify_s / n * 1e6)
}

/// Counters every kernel exposes after a run, per program where noted.
fn kernel_lines(out: &mut Out, k: &Kernel, programs: u64, busy_s: f64, span_ns: u64) {
    let n = programs.max(1) as f64;
    let reg = k.metrics_registry();
    let events = k.events_processed();
    put(out, "kernel.events_per_program", events as f64 / n);
    put(
        out,
        "kernel.syscalls_per_program",
        k.syscall_boundaries() as f64 / n,
    );
    put(out, "kernel.host_events_per_s", events as f64 / busy_s);
    put(out, "kernel.preemptions", k.preemptions() as f64);
    put(out, "kernel.prefill_chunks", k.prefill_chunks() as f64);
    let hist = |name: &str, bounds: &[u64], p: f64| {
        let h = reg.histogram(name, bounds);
        bucket_percentile(h.bounds(), &h.bucket_counts(), p).unwrap_or(0.0)
    };
    let lat = latency_bounds_ns();
    let hist_ms = |name: &str, p: f64| hist(name, &lat, p) / 1e6;
    put(
        out,
        "sched.queue_delay_p50_ms",
        hist_ms("sched.queue_delay_ns", 50.0),
    );
    put(
        out,
        "sched.queue_delay_p99_ms",
        hist_ms("sched.queue_delay_ns", 99.0),
    );
    put(
        out,
        "kernel.inter_token_p99_ms",
        hist_ms("kernel.inter_token_ns", 99.0),
    );
    put(out, "sched.cost_hints", k.cost_hints() as f64);
    let g = k.gpu_metrics();
    put(out, "gpu.batches", g.batches as f64);
    put(out, "gpu.tokens_per_program", g.tokens as f64 / n);
    put(
        out,
        "gpu.busy_frac",
        g.busy.as_nanos() as f64 / span_ns.max(1) as f64,
    );
    let occ = hist("gpu.batch_occupancy_pct", &percent_bounds(), 50.0);
    put(out, "gpu.batch_occupancy_p50_pct", occ);
    put(out, "gpu.requests_failed", g.requests_failed as f64);
    let kv = k.kv_stats();
    put(out, "kvfs.cow_copies_per_program", kv.cow_copies as f64 / n);
    put(out, "kvfs.copied_entries", kv.copied_entries as f64);
    put(out, "kvfs.swapped_out_tokens", kv.swapped_out_tokens as f64);
    put(out, "kvfs.swapped_in_tokens", kv.swapped_in_tokens as f64);
    put(
        out,
        "kvfs.journal_bytes",
        k.store().journal_bytes().len() as f64,
    );
    put(out, "telemetry.events_dropped", k.events_dropped() as f64);
    put(
        out,
        "telemetry.constructed_per_program",
        k.telemetry_constructed() as f64 / n,
    );
    put(out, "lip_pool.threads_peak", self_status("Threads"));
}

fn span_lines(out: &mut Out, tr: &Tracer, a: &Args, phase: &str) -> Result<(), String> {
    if !tr.enabled() {
        return Ok(());
    }
    let path = out_dir().join(format!(
        "spans-{}-{}-{phase}.jsonl",
        a.workload.name(),
        a.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for (layer, ns) in spans::self_times(tr.spans()) {
        put(out, &format!("self.{layer}_ms"), ms(ns));
    }
    put(out, "trace.total_ms", ms(spans::root_total(tr.spans())));
    Ok(())
}

fn virtual_served(a: &Args) -> Result<Out, String> {
    let w = a.workload;
    let p = params(w);
    let jobs = work::jobs(w, a.seed, V_PROGRAMS, false);
    let due = work::arrivals(a.seed, V_PROGRAMS, p.v_rate);
    let (kernel, doc_lens) = work::served_kernel(w);
    let mut tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let root = tr.begin("run", 0);
    let run = served::run_virtual(kernel, &jobs, &due, RTT_NS, &mut tr);
    let (parse_us, verify_us) = lipscript_costs(&jobs, &mut tr);
    tr.end(root);

    let mut out = Out::new();
    latency_metrics(&mut out, "v", 99.0, &run.outcomes);
    let tally = if a.check {
        let (solo_kernel, _) = work::served_kernel(w);
        Tally::of(&jobs, &run.outcomes, Some(&mut Solo::new(solo_kernel)))
    } else {
        Tally::of(&jobs, &run.outcomes, None)
    };
    tally_lines(&mut out, &tally);
    let h = run.host;
    let busy = h.feed_s + h.pump_s;
    put(&mut out, "host_programs_per_s", tally.ok as f64 / busy);
    put(&mut out, "peak_rss_mb", self_status("VmHWM") / 1024.0);
    let n = jobs.len() as f64;
    put(&mut out, "rpc.encode_us", h.encode_s / n * 1e6);
    put(
        &mut out,
        "rpc.decode_us",
        h.decode_s / run.frames.max(1) as f64 * 1e6,
    );
    put(&mut out, "rpc.bytes_per_program", run.wire_bytes as f64 / n);
    put(&mut out, "serve.feed_us", h.feed_s / n * 1e6);
    put(&mut out, "serve.pump_ms", h.pump_s * 1e3);
    let front = h.encode_s + h.feed_s + h.pump_s + h.take_s + h.decode_s;
    put(&mut out, "serve.pump_share", h.pump_s / front);
    put(
        &mut out,
        "serve.take_output_us",
        h.take_s / CONNS as f64 * 1e6,
    );
    put(&mut out, "serve.shed_frac", tally.shed_total() as f64 / n);
    put(&mut out, "lipscript.parse_us", parse_us);
    put(&mut out, "lipscript.verify_us", verify_us);
    let k = run.core.kernel();
    let span_ns = k.now().as_nanos();
    kernel_lines(&mut out, k, tally.ok, h.pump_s, span_ns);
    // Forked shared-prefix tokens of the programs that ran, against the
    // tokens the GPU actually computed.
    let forked: u64 = jobs
        .iter()
        .zip(&run.outcomes)
        .filter(|(_, o)| o.ok())
        .filter_map(|(j, _)| doc_lens.get(j.topic?).copied())
        .sum();
    let computed = k.gpu_metrics().tokens;
    put(
        &mut out,
        "kvfs.prefix_reuse_ratio",
        forked as f64 / (forked + computed).max(1) as f64,
    );
    span_lines(&mut out, &tr, a, "virtual")?;
    Ok(out)
}

/// The crash-free durable run at the reference virtual rate.
fn virtual_durable(a: &Args) -> Result<Out, String> {
    let p = params(a.workload);
    let jobs = work::jobs(a.workload, a.seed, V_PROGRAMS, false);
    let due = work::arrivals(a.seed, V_PROGRAMS, p.v_rate);
    let wal = durable::wal_path(&out_dir(), "virtual");
    let mut tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let root = tr.begin("run", 0);
    let (run, busy_s, k_out) = run_durable(&jobs, &due, &wal, &mut tr)?;
    let (parse_us, verify_us) = lipscript_costs(&jobs, &mut tr);
    tr.end(root);
    let mut out = k_out;
    latency_metrics(&mut out, "v", 99.0, &run.outcomes);
    tally_lines(&mut out, &Tally::of(&jobs, &run.outcomes, None));
    put(&mut out, "host_programs_per_s", run.ok as f64 / busy_s);
    put(&mut out, "peak_rss_mb", self_status("VmHWM") / 1024.0);
    put(&mut out, "lipscript.parse_us", parse_us);
    put(&mut out, "lipscript.verify_us", verify_us);
    put(&mut out, "records_ok", run.ok as f64);
    put(&mut out, "digest", run.digest as f64);
    put(&mut out, "fires", run.fires as f64);
    put(&mut out, "boundaries", run.boundaries as f64);
    let _ = std::fs::remove_file(&wal);
    span_lines(&mut out, &tr, a, "virtual")?;
    Ok(out)
}

struct DurableRun {
    outcomes: Vec<Outcome>,
    ok: u64,
    digest: u64,
    fires: u64,
    boundaries: u64,
}

/// Schedules `jobs` durably at virtual `due` (+ half the RTT) and runs
/// them to completion; returns the run, the host seconds of scheduling
/// and running, and the kernel/WAL counters.
fn run_durable(
    jobs: &[Job],
    due: &[u64],
    wal: &std::path::Path,
    tr: &mut Tracer,
) -> Result<(DurableRun, f64, Out), String> {
    let half = RTT_NS / 2;
    let at: Vec<u64> = due.iter().map(|d| d + half).collect();
    let mut d = Durable::new(durable::config(wal, None));
    let t0 = Instant::now();
    tr.time("core.schedule_durable", 0, || d.schedule(jobs, &at));
    tr.time("core.run", 0, || d.kernel.run());
    let busy_s = t0.elapsed().as_secs_f64();
    let mut outcomes: Vec<Outcome> = due
        .iter()
        .map(|&d| Outcome {
            due_ns: d,
            ..Outcome::default()
        })
        .collect();
    d.drain_into(&mut outcomes, half, None);
    let (ok, digest) = d.finished();
    let mut out = Out::new();
    let span_ns = d.kernel.now().as_nanos();
    kernel_lines(&mut out, &d.kernel, ok, busy_s, span_ns);
    put(&mut out, "kvfs.prefix_reuse_ratio", 0.0);
    wal_lines(&mut out, &d.kernel, wal, jobs.len());
    let run = DurableRun {
        outcomes,
        ok,
        digest,
        fires: d.fires.load(Ordering::Relaxed),
        boundaries: d.kernel.syscall_boundaries(),
    };
    Ok((run, busy_s, out))
}

const WAL_TAGS: [&str; 10] = [
    "proc_spawn",
    "proc_exit",
    "proc_sched",
    "tool_effect",
    "ipc_send",
    "ipc_recv",
    "lookup",
    "now",
    "pred_effect",
    "checkpoint",
];

fn wal_lines(out: &mut Out, k: &Kernel, wal: &std::path::Path, programs: usize) {
    let (bytes, frames) = durable::wal_frames(wal);
    put(
        out,
        "wal.bytes_per_program",
        bytes as f64 / programs.max(1) as f64,
    );
    for tag in WAL_TAGS {
        let n = frames.iter().find(|(t, _)| *t == tag).map_or(0, |f| f.1);
        put(out, &format!("wal.frames.{tag}"), n as f64);
    }
    let checkpoints = k
        .metrics_registry()
        .counter_value("kernel.checkpoints")
        .unwrap_or(0);
    put(out, "wal.checkpoints", checkpoints as f64);
}

/// Outcomes of one virtual open loop at `rate`.
fn virtual_probe(w: Workload, seed: u64, jobs: &[Job], rate: f64) -> Result<Vec<Outcome>, String> {
    let due = work::arrivals(seed, jobs.len(), rate);
    if w.served() {
        let (kernel, _) = work::served_kernel(w);
        return Ok(served::run_virtual(kernel, jobs, &due, RTT_NS, &mut Tracer::off()).outcomes);
    }
    let wal = durable::wal_path(&out_dir(), &format!("vladder-{rate}"));
    let r = run_durable(jobs, &due, &wal, &mut Tracer::off())?.0;
    let _ = std::fs::remove_file(&wal);
    Ok(r.outcomes)
}

/// Bisects the virtual-rate ladder in-process, two rungs at a time on
/// both CPUs: virtual metrics depend on neither host speed nor pool
/// warmth, so this phase is not pinned.
fn vladder(a: &Args) -> Result<Out, String> {
    crate::unpin();
    let w = a.workload;
    let p = params(w);
    let jobs = work::jobs(w, a.seed, LADDER_PROGRAMS, false);
    let mut notes = Vec::new();
    let (met, missed) = bisect(p.v_ladder, 2, |rates| {
        let runs: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = rates
                .iter()
                .map(|&rate| {
                    let jobs = &jobs;
                    s.spawn(move || virtual_probe(w, a.seed, jobs, rate))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("ladder probe panicked".into()))
                })
                .collect()
        });
        let mut verdicts = Vec::new();
        for (&rate, outcomes) in rates.iter().zip(runs) {
            let outcomes = outcomes?;
            let v = judge(&outcomes, p.v_limits);
            notes.push((rate, v, Tally::of(&jobs, &outcomes, None)));
            verdicts.push(v);
        }
        Ok(verdicts)
    })?;
    let mut out = Out::new();
    ladder_lines(&mut out, "v", met, missed);
    for (i, (rate, v, t)) in notes.iter().enumerate() {
        put(&mut out, &format!("rung{i}.rate"), *rate);
        put(&mut out, &format!("rung{i}.good"), v.good as f64);
        put(&mut out, &format!("rung{i}.backlog"), v.backlog);
        tally_lines_as(&mut out, &format!("rung{i}."), t);
    }
    Ok(out)
}

/// One host-clock open loop over TCP against a fresh `symphony-serve`, at
/// `--rate` for `--seconds`.
fn hprobe_served(a: &Args) -> Result<Out, String> {
    let n = ((a.rate * a.seconds).round() as usize).max(20);
    let jobs = work::jobs(a.workload, a.seed, n, true);
    let due = work::arrivals(a.seed, n, a.rate);
    let log = out_dir().join(format!("serve-{}.log", std::process::id()));
    let server = Server::spawn(&tcp::server_bin(), &log)?;
    let mut client = Client::connect(&server.addr)?;
    let mut tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let root = tr.begin("run", 0);
    let run = tcp::open_loop(&mut client, &jobs, &due, Duration::from_secs(10), &mut tr)?;
    tr.end(root);
    let rss_kb = server.status_field("VmHWM").unwrap_or(0.0);
    server.kill();
    let _ = std::fs::remove_file(log);

    let mut out = Out::new();
    latency_metrics(&mut out, "host", 90.0, &run.outcomes);
    verdict_lines(&mut out, &judge(&run.outcomes, params(a.workload).h_limits));
    let tally = if a.check {
        let solo = work::shipped_kernel();
        Tally::of(&jobs, &run.outcomes, Some(&mut Solo::new(solo)))
    } else {
        Tally::of(&jobs, &run.outcomes, None)
    };
    tally_lines(&mut out, &tally);
    put(&mut out, "peak_rss_mb", rss_kb / 1024.0);
    put(
        &mut out,
        "serve.shed_frac",
        tally.shed_total() as f64 / n as f64,
    );
    put(
        &mut out,
        "rpc.bytes_per_program",
        (client.bytes_in + client.bytes_out) as f64 / n as f64,
    );
    let lag = tail(&run.send_lag_ms, 99.0).map_or(0.0, |t| t.value);
    put(&mut out, "client.send_lag_ms", lag);
    let enc: Vec<u64> = span_durations(&tr, "rpc.encode");
    let dec: Vec<u64> = span_durations(&tr, "rpc.decode");
    if tr.enabled() {
        put(&mut out, "rpc.encode_us", mean_us(&enc));
        put(&mut out, "rpc.decode_us", mean_us(&dec));
    }
    span_lines(&mut out, &tr, a, "hprobe")?;
    Ok(out)
}

fn span_durations(tr: &Tracer, name: &str) -> Vec<u64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3
}

/// The host-clock open loop against a durable kernel in-process: at each
/// due time the arrived programs are spawned durably and the kernel runs
/// to quiescence, exactly as the TCP server pumps; session events are
/// stamped with the host instant they surface.
fn hprobe_durable(a: &Args) -> Result<Out, String> {
    let n = ((a.rate * a.seconds).round() as usize).max(20);
    let jobs = work::jobs(a.workload, a.seed, n, false);
    let due = work::arrivals(a.seed, n, a.rate);
    let wal = durable::wal_path(&out_dir(), "hprobe");
    let mut d = Durable::new(durable::config(&wal, None));
    let mut tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let mut lag = Vec::with_capacity(n);
    let root = tr.begin("run", 0);
    let start = Instant::now();
    let mut next = 0;
    while next < n {
        let now = start.elapsed().as_nanos() as u64;
        if due[next] > now {
            let idle = Duration::from_nanos(due[next] - now);
            tr.time("client.wait", 0, || std::thread::sleep(idle));
            continue;
        }
        while next < n && due[next] <= start.elapsed().as_nanos() as u64 {
            lag.push((start.elapsed().as_nanos() as u64 - due[next]) as f64 / 1e6);
            tr.time("core.spawn_durable", next as u64 + 1, || {
                d.spawn(&jobs, next)
            });
            next += 1;
        }
        tr.time("core.run", 0, || d.kernel.run());
    }
    tr.end(root);
    let mut outcomes: Vec<Outcome> = due
        .iter()
        .map(|&d| Outcome {
            due_ns: d,
            ..Outcome::default()
        })
        .collect();
    d.drain_into(&mut outcomes, 0, Some(start));
    let _ = std::fs::remove_file(&wal);

    let mut out = Out::new();
    latency_metrics(&mut out, "host", 90.0, &outcomes);
    verdict_lines(&mut out, &judge(&outcomes, params(a.workload).h_limits));
    tally_lines(&mut out, &Tally::of(&jobs, &outcomes, None));
    put(
        &mut out,
        "client.send_lag_ms",
        tail(&lag, 99.0).map_or(0.0, |t| t.value),
    );
    span_lines(&mut out, &tr, a, "hprobe")?;
    Ok(out)
}

/// Served recovery: `symphony-serve` is killed with programs in flight,
/// restarted, and the client resubmits what was lost; timed from the kill
/// to the last resubmitted program's DONE.
fn restart_served(a: &Args) -> Result<Out, String> {
    // One tenant quota's worth per connection: all admitted at once.
    let inflight = 8 * CONNS;
    let jobs = work::jobs(a.workload, a.seed, inflight, true);
    let due = vec![0u64; inflight];
    let log = out_dir().join(format!("restart-{}.log", std::process::id()));
    let mut times = Vec::new();
    let mut tally = Tally::default();
    let mut solo = Solo::new(work::shipped_kernel());
    for _ in 0..RESTART_CYCLES {
        let server = Server::spawn(&tcp::server_bin(), &log)?;
        let mut client = Client::connect(&server.addr)?;
        // The server runs what it has read before it replies, so the kill
        // comes right after the SUBMITs are written: the client has no
        // reply for any of them and must resubmit all.
        tcp::submit_all(&mut client, &jobs)?;
        let t0 = Instant::now();
        server.kill();
        drop(client);
        let server = Server::spawn(&tcp::server_bin(), &log)?;
        let mut client = Client::connect(&server.addr)?;
        let run = tcp::open_loop(
            &mut client,
            &jobs,
            &due,
            Duration::from_secs(10),
            &mut Tracer::off(),
        )?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        let t = Tally::of(&jobs, &run.outcomes, Some(&mut solo));
        tally.sent += t.sent;
        tally.ok += t.ok;
        tally.failed += t.failed;
        tally.mismatched += t.mismatched;
        for (code, n) in t.shed {
            *tally.shed.entry(code).or_insert(0) += n;
        }
        server.kill();
    }
    let _ = std::fs::remove_file(log);
    let mut out = Out::new();
    put(&mut out, "host_recover_ms", median(&times));
    tally_lines(&mut out, &tally);
    Ok(out)
}

/// The durable reference run crashed at syscall boundary `--crash-at`,
/// leaving its WAL at `--wal` for the recovery phases.
fn crash_durable(a: &Args) -> Result<Out, String> {
    let p = params(a.workload);
    let jobs = work::jobs(a.workload, a.seed, V_PROGRAMS, false);
    let at: Vec<u64> = work::arrivals(a.seed, V_PROGRAMS, p.v_rate)
        .iter()
        .map(|d| d + RTT_NS / 2)
        .collect();
    let mut d = Durable::new(durable::config(a.wal.as_ref(), Some(a.crash_at)));
    d.schedule(&jobs, &at);
    d.kernel.run();
    if d.kernel.crashed().is_none() {
        return Err(format!("no crash at boundary {}", a.crash_at));
    }
    let mut out = Out::new();
    put(
        &mut out,
        "fires_before",
        d.fires.load(Ordering::Relaxed) as f64,
    );
    put(
        &mut out,
        "wal_bytes_at_crash",
        durable::wal_frames(a.wal.as_ref()).0 as f64,
    );
    Ok(out)
}

/// Durable recovery from a copy of the crashed run's WAL: the host time of
/// `Kernel::recover` + `resume_programs` in a fresh process; with
/// `--check 1`, also the run to completion and its exactly-once counts.
fn recover_durable(a: &Args) -> Result<Out, String> {
    let jobs = work::jobs(a.workload, a.seed, V_PROGRAMS, false);
    let wal = durable::wal_path(&out_dir(), "recover");
    std::fs::copy(&a.wal, &wal).map_err(|e| format!("copy {}: {e}", a.wal))?;
    let mut tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let root = tr.begin("run", 0);
    let rec = tr.begin("wal.recover", 0);
    let recovered = Durable::recover(durable::config(&wal, None), &jobs);
    tr.end(rec);
    let (mut d, recover_s, resume_s) = recovered?;
    let mut out = Out::new();
    put(&mut out, "host_recover_ms", (recover_s + resume_s) * 1e3);
    put(&mut out, "wal.recover_ms", recover_s * 1e3);
    put(&mut out, "wal.resume_ms", resume_s * 1e3);
    put(
        &mut out,
        "wal.replayed_frames",
        d.kernel.replayed_frames() as f64,
    );
    if a.check {
        tr.time("core.run", 0, || d.kernel.run());
        let (ok, digest) = d.finished();
        put(
            &mut out,
            "fires_after",
            d.fires.load(Ordering::Relaxed) as f64,
        );
        put(&mut out, "records_ok", ok as f64);
        put(&mut out, "digest", digest as f64);
        put(&mut out, "sent", jobs.len() as f64);
    }
    tr.end(root);
    drop(d);
    let _ = std::fs::remove_file(&wal);
    span_lines(&mut out, &tr, a, "recover")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_rpc::SessionStatus;

    fn ok_at(due_ms: u64, latency_ms: u64) -> Outcome {
        Outcome {
            due_ns: due_ms * 1_000_000,
            ttft_ns: Some(latency_ms * 1_000_000 / 2),
            latency_ns: Some(latency_ms * 1_000_000),
            status: Some(SessionStatus::Ok),
            ..Outcome::default()
        }
    }

    const LIM: Limits = Limits {
        ttft_ms: 50.0,
        latency_ms: 100.0,
        share: 0.99,
    };

    #[test]
    fn judge_counts_limits_and_backlog() {
        // Steady 10 ms latencies: met, goodput = good / schedule span.
        let steady: Vec<Outcome> = (0..100).map(|i| ok_at(i * 10, 10)).collect();
        let v = judge(&steady, LIM);
        assert!(v.pass && !v.growing);
        assert_eq!(v.good, 100);
        assert!((v.goodput - 100.0 / 0.99).abs() < 1e-9);

        // Latency climbing with arrival order: within the limit, but the
        // last tenth is 30 ms slower than the second — a growing backlog.
        let climbing: Vec<Outcome> = (0..100).map(|i| ok_at(i * 10, 10 + i / 3)).collect();
        let v = judge(&climbing, LIM);
        assert_eq!(v.good, 100);
        assert!(v.growing && !v.pass);

        // Two refusals in a hundred miss the 99% share.
        let mut shed = steady.clone();
        for o in shed.iter_mut().take(2) {
            *o = Outcome {
                due_ns: o.due_ns,
                shed: Some(symphony_rpc::ErrCode::QuotaExceeded),
                ..Outcome::default()
            };
        }
        let v = judge(&shed, LIM);
        assert_eq!(v.good, 98);
        assert!(!v.pass);
    }

    fn verdict(pass: bool) -> Verdict {
        Verdict {
            good: 0,
            sent: 1,
            goodput: 0.0,
            backlog: 0.0,
            growing: false,
            pass,
        }
    }

    #[test]
    fn bisect_finds_the_knee_one_or_two_rungs_at_a_time() {
        let ladder = Ladder {
            lo: 100.0,
            step: 1.1,
            rungs: 21,
        };
        for knee in [0usize, 1, 7, 13, 19, 20] {
            let knee_rate = ladder.rate(knee);
            for width in [1, 2] {
                let mut probes = 0;
                let (met, missed) = bisect(ladder, width, |rates| {
                    probes += rates.len();
                    Ok(rates
                        .iter()
                        .map(|&r| verdict(r <= knee_rate * 1.0001))
                        .collect())
                })
                .unwrap();
                assert_eq!(
                    met.map(|m| m.0),
                    Some(knee_rate),
                    "knee {knee} width {width}"
                );
                let above = (knee + 1 < ladder.rungs).then(|| ladder.rate(knee + 1));
                assert_eq!(missed.map(|m| m.0), above, "knee {knee} width {width}");
                assert!(probes <= 10, "knee {knee} width {width}: {probes} probes");
            }
        }
        // Nothing met: no knee, the lowest rung is the one missed.
        let (met, missed) = bisect(ladder, 2, |rates| {
            Ok(rates.iter().map(|_| verdict(false)).collect())
        })
        .unwrap();
        assert!(met.is_none());
        assert_eq!(missed.map(|m| m.0), Some(ladder.rate(0)));
    }

    #[test]
    fn same_seed_same_virtual_metrics_other_seed_other_schedule() {
        let w = Workload::AgentTools;
        let metrics = |seed: u64| {
            let jobs = work::jobs(w, seed, 40, false);
            let due = work::arrivals(seed, jobs.len(), 400.0);
            let (kernel, _) = work::served_kernel(w);
            let run = served::run_virtual(kernel, &jobs, &due, RTT_NS, &mut Tracer::off());
            let mut out = Out::new();
            latency_metrics(&mut out, "v", 99.0, &run.outcomes);
            assert!(run.outcomes.iter().all(Outcome::ok));
            (due, out)
        };
        let (due_a, a) = metrics(5);
        let (due_b, b) = metrics(5);
        let (due_c, _) = metrics(6);
        assert_eq!(due_a, due_b);
        assert_eq!(a, b);
        assert_ne!(due_a, due_c);
    }
}
