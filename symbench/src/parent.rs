//! The parent: runs a workload's phases as child processes, checks their
//! outputs, and aggregates the reported metrics.

use crate::phases::{bisect, get, ladder_lines, params, Ladder, Out, Verdict, CRASH_FRACTION};
use crate::stats::median;
use crate::{child, out_dir, Args, Lines};

// Repetitions of each host-timed measurement; each metric is the median.
// The shared 2-vCPU host's speed varies by ±20% from one process to the
// next, so a median needs several samples to settle.
const SETUP_REPS: usize = 9;
const VIRTUAL_REPS: usize = 5;
const HOST_REPS: usize = 3;
const RECOVER_REPS: usize = 5;

/// End-to-end metric names and units, in report order. Only metrics that
/// repeat across runs on a shared host: the virtual clock's, set-up time
/// and memory. Host-clock throughput and latency drift with the machine
/// and are reported by the traced run, in [`PER_LAYER`].
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("v_ttft_p50_ms", "ms"),
    ("v_ttft_p99_ms", "ms"),
    ("v_latency_p50_ms", "ms"),
    ("v_latency_p99_ms", "ms"),
    ("v_goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, in report order.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("host_programs_per_s", "1/s"),
    ("host_ttft_p50_ms", "ms"),
    ("host_ttft_p90_ms", "ms"),
    ("host_latency_p50_ms", "ms"),
    ("host_latency_p90_ms", "ms"),
    ("host_goodput_rps", "1/s"),
    ("host_recover_ms", "ms"),
    ("rpc.encode_us", "us"),
    ("rpc.decode_us", "us"),
    ("rpc.bytes_per_program", "B"),
    ("serve.feed_us", "us"),
    ("serve.pump_ms", "ms"),
    ("serve.pump_share", "ratio"),
    ("serve.take_output_us", "us"),
    ("serve.shed_frac", "ratio"),
    ("client.send_lag_ms", "ms"),
    ("lipscript.parse_us", "us"),
    ("lipscript.verify_us", "us"),
    ("kernel.events_per_program", "count"),
    ("kernel.syscalls_per_program", "count"),
    ("kernel.host_events_per_s", "1/s"),
    ("kernel.preemptions", "count"),
    ("kernel.prefill_chunks", "count"),
    ("lip_pool.threads_peak", "count"),
    ("sched.queue_delay_p50_ms", "ms"),
    ("sched.queue_delay_p99_ms", "ms"),
    ("kernel.inter_token_p99_ms", "ms"),
    ("sched.cost_hints", "count"),
    ("gpu.batches", "count"),
    ("gpu.tokens_per_program", "count"),
    ("gpu.busy_frac", "ratio"),
    ("gpu.batch_occupancy_p50_pct", "%"),
    ("gpu.requests_failed", "count"),
    ("kvfs.prefix_reuse_ratio", "ratio"),
    ("kvfs.cow_copies_per_program", "count"),
    ("kvfs.copied_entries", "count"),
    ("kvfs.swapped_out_tokens", "count"),
    ("kvfs.swapped_in_tokens", "count"),
    ("kvfs.journal_bytes", "B"),
    ("wal.bytes_per_program", "B"),
    ("wal.frames.proc_spawn", "count"),
    ("wal.frames.proc_exit", "count"),
    ("wal.frames.proc_sched", "count"),
    ("wal.frames.tool_effect", "count"),
    ("wal.frames.pred_effect", "count"),
    ("wal.frames.checkpoint", "count"),
    ("wal.recover_ms", "ms"),
    ("wal.resume_ms", "ms"),
    ("wal.replayed_frames", "count"),
    ("wal.checkpoints", "count"),
    ("telemetry.events_dropped", "count"),
    ("telemetry.constructed_per_program", "count"),
    ("trace.overhead_frac", "ratio"),
    ("error_rate", "ratio"),
    ("self.rpc_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.lipscript_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.wal_ms", "ms"),
    ("self.net_ms", "ms"),
    ("self.client_ms", "ms"),
    ("self.other_ms", "ms"),
    ("trace.total_ms", "ms"),
    ("self.sum_error_ms", "ms"),
];

/// One run's result.
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Programs attempted at reference rates.
    pub attempted: u64,
    /// Of those: failed, refused or output-mismatched.
    pub failed: u64,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks and counts across a run's phases.
struct Acc {
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Acc {
    /// Counts a reference-rate phase's programs.
    fn count(&mut self, label: &str, l: &Lines) {
        println!("{label}: {}", tally_text(l, ""));
        let g = |k: &str| get(l, k) as u64;
        self.attempted += g("sent");
        self.failed += g("failed") + g("shed") + g("mismatched");
        if g("mismatched") > 0 {
            self.fail(format!(
                "{} outputs differ from their solo runs",
                g("mismatched")
            ));
        }
    }

    fn fail(&mut self, why: String) {
        println!("CHECK FAILED: {why}");
        self.correct = false;
    }

    fn result(self, names: &[(&str, &str)], m: &Lines) -> RunResult {
        println!(
            "attempted {} failed {} error_rate {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let v = m
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                println!("{name:>34} = {v:.6} {unit}");
                (name.to_string(), v, unit.to_string())
            })
            .collect();
        RunResult {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// A phase's open-loop accounting (printed under `prefix`): sent, `Ok`,
/// failed, refused by `ErrCode`, and output mismatches.
fn tally_text(l: &Lines, prefix: &str) -> String {
    let g = |k: &str| get(l, &format!("{prefix}{k}"));
    let shed_key = format!("{prefix}shed.");
    let codes: Vec<String> = l
        .iter()
        .filter_map(|(k, v)| Some(format!("{}={v}", k.strip_prefix(&shed_key)?)))
        .collect();
    format!(
        "sent {} ok {} failed {} shed {} ({}) mismatched {}",
        g("sent"),
        g("ok"),
        g("failed"),
        g("shed"),
        if codes.is_empty() {
            "none".into()
        } else {
            codes.join(" ")
        },
        g("mismatched"),
    )
}

fn median_of(ls: &[Lines], name: &str) -> f64 {
    median(&ls.iter().map(|l| get(l, name)).collect::<Vec<_>>())
}

/// Runs every phase of a workload and aggregates the result.
pub fn run(a: &Args) -> Result<RunResult, String> {
    println!(
        "symbench {} seed {} ({} run)",
        a.workload.name(),
        a.seed,
        if a.trace {
            "traced per-layer"
        } else {
            "end-to-end"
        }
    );
    let mut acc = Acc {
        correct: true,
        attempted: 0,
        failed: 0,
    };
    if a.trace {
        let m = traced(a, &mut acc)?;
        Ok(acc.result(&PER_LAYER, &m))
    } else {
        let m = end_to_end(a, &mut acc)?;
        Ok(acc.result(&END_TO_END, &m))
    }
}

/// Host seconds of one host-clock loop: a tenth of the measuring budget.
fn loop_seconds(a: &Args) -> String {
    (a.seconds * 0.1).max(0.5).to_string()
}

/// The end-to-end run: set-up, the virtual reference run (twice: its
/// metrics must repeat exactly), the virtual ladder, then for served
/// workloads a checked host loop over TCP (its server's memory is
/// `peak_rss_mb`) and for durable agents a checked crash + recovery.
fn end_to_end(a: &Args, acc: &mut Acc) -> Result<Lines, String> {
    let w = a.workload;
    let p = params(w);
    let mut m = Lines::new();

    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| child(a, "setup", &[]).map(|l| get(&l, "setup_s")))
        .collect::<Result<_, _>>()?;
    m.insert("setup_s".into(), median(&setups));

    let mut reps = Vec::new();
    for i in 0..2 {
        let l = child(a, "virtual", &[("--check", u8::from(i == 0).to_string())])?;
        acc.count(&format!("virtual @{}/s rep {i}", p.v_rate), &l);
        reps.push(l);
    }
    for (name, _) in END_TO_END
        .iter()
        .filter(|(n, _)| n.starts_with("v_") && !n.contains("goodput"))
    {
        let (x, y) = (get(&reps[0], name), get(&reps[1], name));
        if x != y {
            acc.fail(format!("{name} differs across same-seed runs: {x} vs {y}"));
        }
        m.insert(name.to_string(), x);
    }
    println!(
        "virtual tails: ttft p{} of {}, latency p{} of {}",
        get(&reps[0], "pused.v_ttft_p99"),
        get(&reps[0], "n.v_ttft"),
        get(&reps[0], "pused.v_latency_p99"),
        get(&reps[0], "n.v_latency"),
    );

    let vl = child(a, "vladder", &[])?;
    m.insert("v_goodput_rps".into(), get(&vl, "v_goodput_rps"));
    for i in (0..).take_while(|i| vl.contains_key(&format!("rung{i}.rate"))) {
        let rate = get(&vl, &format!("rung{i}.rate"));
        println!(
            "  virtual rung @{rate:.1}/s: {}",
            tally_text(&vl, &format!("rung{i}."))
        );
    }
    report_ladder("virtual", "v", &vl, p.v_ladder);

    if w.served() {
        let host = child(a, "hprobe", &host_args(a, p.h_rate, true))?;
        acc.count(&format!("host @{}/s", p.h_rate), &host);
        report_host(&host);
        // The process hosting the kernel is the server.
        m.insert("peak_rss_mb".into(), get(&host, "peak_rss_mb"));
    } else {
        m.insert("peak_rss_mb".into(), get(&reps[0], "peak_rss_mb"));
        durable_recovery(a, acc, &reps[0], 1)?;
    }
    Ok(m)
}

fn host_args(a: &Args, rate: f64, check: bool) -> Vec<(&'static str, String)> {
    vec![
        ("--rate", rate.to_string()),
        ("--seconds", loop_seconds(a)),
        ("--check", u8::from(check).to_string()),
    ]
}

fn report_host(l: &Lines) {
    println!(
        "  host ttft p50 {:.3} p{} {:.3} ms, latency p50 {:.3} p{} {:.3} ms of {}; send lag p99 {:.3} ms",
        get(l, "host_ttft_p50_ms"),
        get(l, "pused.host_ttft_p90"),
        get(l, "host_ttft_p90_ms"),
        get(l, "host_latency_p50_ms"),
        get(l, "pused.host_latency_p90"),
        get(l, "host_latency_p90_ms"),
        get(l, "n.host_latency"),
        get(l, "client.send_lag_ms"),
    );
}

fn report_ladder(label: &str, prefix: &str, l: &Lines, ladder: Ladder) {
    println!(
        "{label} ladder {:.0}..{:.0}/s x{}: knee {:.1}/s (backlog {:+.2} ms), goodput {:.2}/s; above: {:.1}/s backlog {:+.2} ms good share {:.3} -> backlog {}; spans knee: {}",
        ladder.lo,
        ladder.rate(ladder.rungs - 1),
        ladder.step,
        get(l, &format!("{prefix}.knee_rate")),
        get(l, &format!("{prefix}.knee_backlog")),
        get(l, &format!("{prefix}_goodput_rps")),
        get(l, &format!("{prefix}.above_rate")),
        get(l, &format!("{prefix}.above_backlog")),
        get(l, &format!("{prefix}.above_good_share")),
        if get(l, &format!("{prefix}.above_growing")) > 0.0 { "growing" } else { "not growing" },
        if get(l, &format!("{prefix}.spans_knee")) > 0.0 { "yes" } else { "NO" },
    );
}

/// Crashes the durable reference run at `CRASH_FRACTION` of the
/// crash-free run's (`clean`) syscall boundaries, then recovers copies of
/// its WAL `reps` times, each in a fresh process; the first recovery runs
/// to completion and is checked for exactly-once tool effects, `Ok`
/// programs and outputs equal to the crash-free run's.
fn durable_recovery(
    a: &Args,
    acc: &mut Acc,
    clean: &Lines,
    reps: usize,
) -> Result<Vec<Lines>, String> {
    let crash_at = (get(clean, "boundaries") * CRASH_FRACTION).round().max(1.0) as u64;
    let wal = crate::durable::wal_path(&out_dir(), &format!("crashed-{}", a.seed));
    let wal_arg = ("--wal", wal.display().to_string());
    let crash = child(
        a,
        "crash",
        &[("--crash-at", crash_at.to_string()), wal_arg.clone()],
    );
    let recovered: Result<Vec<Lines>, String> =
        crash.as_ref().map_err(Clone::clone).and_then(|_| {
            (0..reps)
                .map(|i| {
                    let check = ("--check", u8::from(i == 0).to_string());
                    // Only the checked recovery is traced.
                    let mut b = a.clone();
                    b.trace &= i == 0;
                    child(&b, "recover", &[wal_arg.clone(), check])
                })
                .collect()
        });
    let _ = std::fs::remove_file(&wal);
    let (crash, recovered) = (crash?, recovered?);
    let first = &recovered[0];
    let n = get(first, "sent");
    let ok = get(first, "records_ok");
    acc.attempted += n as u64;
    acc.failed += (n - ok).max(0.0) as u64;
    let (before, after, total) = (
        get(&crash, "fires_before"),
        get(first, "fires_after"),
        get(clean, "fires"),
    );
    let ms: Vec<String> = recovered
        .iter()
        .map(|l| format!("{:.1}", get(l, "host_recover_ms")))
        .collect();
    println!(
        "recovery: crashed at boundary {crash_at} of {} ({:.0} WAL bytes), tool fires {before} + {after} = {} (crash-free {total}), {ok}/{n} Ok, {} frames replayed; recover + resume ms: {}",
        get(clean, "boundaries"),
        get(&crash, "wal_bytes_at_crash"),
        before + after,
        get(first, "wal.replayed_frames"),
        ms.join(" "),
    );
    if before + after != total {
        acc.fail(format!(
            "tool effects not exactly once: {before} + {after} != {total}"
        ));
    }
    if ok != n {
        acc.fail(format!("{ok}/{n} programs finished Ok after recovery"));
    }
    if get(first, "digest") != get(clean, "digest") {
        acc.fail("recovered outputs differ from the crash-free run".into());
    }
    Ok(recovered)
}

/// The traced run. Untraced repetitions give the host-clock metrics
/// (medians); one traced virtual run, one traced host loop and, for
/// durable agents, one traced recovery give the spans and layer self
/// times. Counts come from the kernels' public getters and metrics
/// registries, and are the same in traced and untraced runs.
fn traced(a: &Args, acc: &mut Acc) -> Result<Lines, String> {
    let w = a.workload;
    let p = params(w);
    let plain = Args {
        trace: false,
        ..a.clone()
    };

    let mut reps = Vec::new();
    for i in 0..VIRTUAL_REPS {
        let l = child(
            &plain,
            "virtual",
            &[("--check", u8::from(i == 0).to_string())],
        )?;
        acc.count(&format!("virtual @{}/s rep {i}", p.v_rate), &l);
        reps.push(l);
    }
    let traced_virtual = child(a, "virtual", &[])?;
    acc.count(&format!("traced virtual @{}/s", p.v_rate), &traced_virtual);
    let mut m: Lines = reps[0].clone();
    let hps = median_of(&reps, "host_programs_per_s");
    m.insert("host_programs_per_s".into(), hps);
    m.insert(
        "trace.overhead_frac".into(),
        1.0 - get(&traced_virtual, "host_programs_per_s") / hps,
    );
    for k in ["lipscript.parse_us", "lipscript.verify_us"] {
        m.insert(k.into(), get(&traced_virtual, k));
    }

    let mut hosts = Vec::new();
    for i in 0..HOST_REPS {
        let l = child(&plain, "hprobe", &host_args(a, p.h_rate, true))?;
        acc.count(&format!("host @{}/s rep {i}", p.h_rate), &l);
        report_host(&l);
        hosts.push(l);
    }
    for k in [
        "host_ttft_p50_ms",
        "host_ttft_p90_ms",
        "host_latency_p50_ms",
        "host_latency_p90_ms",
        "client.send_lag_ms",
        "serve.shed_frac",
    ] {
        m.insert(k.into(), median_of(&hosts, k));
    }
    let traced_host = child(a, "hprobe", &host_args(a, p.h_rate, false))?;
    if w.served() {
        // Client-side frame costs over TCP replace the in-process ones.
        for k in ["rpc.encode_us", "rpc.decode_us", "rpc.bytes_per_program"] {
            m.insert(k.into(), get(&traced_host, k));
        }
    }

    let mut probes = Vec::new();
    let (met, missed) = bisect(p.h_ladder, 1, |rates| {
        let l = child(&plain, "hprobe", &host_args(a, rates[0], false))?;
        let v = Verdict::from_lines(&l);
        probes.push((rates[0], l));
        Ok(vec![v])
    })?;
    for (rate, l) in &probes {
        println!("  host rung @{rate:.1}/s: {}", tally_text(l, ""));
    }
    let mut hl = Out::new();
    ladder_lines(&mut hl, "host", met, missed);
    let hl: Lines = hl.into_iter().collect();
    report_ladder("host", "host", &hl, p.h_ladder);
    m.insert("host_goodput_rps".into(), get(&hl, "host_goodput_rps"));

    let mut traced_runs = vec![traced_virtual, traced_host];
    if w.served() {
        let l = child(&plain, "restart", &[])?;
        acc.count("restart", &l);
        m.insert("host_recover_ms".into(), get(&l, "host_recover_ms"));
    } else {
        let recovered = durable_recovery(a, acc, &reps[0], RECOVER_REPS)?;
        m.insert(
            "host_recover_ms".into(),
            median_of(&recovered, "host_recover_ms"),
        );
        for k in ["wal.recover_ms", "wal.resume_ms", "wal.replayed_frames"] {
            m.insert(k.into(), median_of(&recovered, k));
        }
        traced_runs.push(recovered[0].clone());
    }
    m.insert(
        "error_rate".into(),
        acc.failed as f64 / acc.attempted.max(1) as f64,
    );

    // Self times of every traced run, summed per layer; with `other` they
    // must sum to the traced total.
    let mut total = 0.0;
    let mut parts = 0.0;
    for l in &traced_runs {
        total += get(l, "trace.total_ms");
        for (k, v) in l.iter().filter(|(k, _)| k.starts_with("self.")) {
            *m.entry(k.clone()).or_insert(0.0) += v;
            parts += v;
        }
    }
    m.insert("trace.total_ms".into(), total);
    m.insert("self.sum_error_ms".into(), (parts - total).abs());
    if (parts - total).abs() > 1e-6 * total.max(1.0) {
        acc.fail(format!(
            "layer self times sum to {parts} ms, traced total {total} ms"
        ));
    }
    let spans: Vec<String> = ["virtual", "hprobe", "recover"]
        .iter()
        .map(|ph| format!(".bench_out/spans-{}-{}-{ph}.jsonl", w.name(), a.seed))
        .filter(|p| std::path::Path::new(p).exists())
        .collect();
    println!("spans: {}", spans.join(" "));
    Ok(m)
}
