//! `symbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! symbench --workload rag_prefix|agent_tools|durable_agents --seed N --seconds S --trace 0|1
//! ```
//!
//! Each timed measurement runs in a fresh child process of this binary
//! (`--phase ...`), because the LIP thread pool is process-global and
//! never shrinks: a second run in one process would measure a warm pool.
//! Children print `name value` lines; this parent aggregates them, prints
//! a human-readable report, and ends stdout with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a separate traced run. The exit code is non-zero
//! when an output check fails. See `symbench/README.md`.

mod durable;
mod parent;
mod phases;
mod served;
mod spans;
mod stats;
mod tcp;
mod work;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

use work::Workload;

/// When this process started (set-up time is measured from here).
pub static START: OnceLock<Instant> = OnceLock::new();

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Child phase to run, if this is a child.
    pub phase: Option<String>,
    /// Offered rate for rate-driven phases.
    pub rate: f64,
    /// Syscall boundary a crash phase kills the kernel at.
    pub crash_at: u64,
    /// Check outputs in this phase.
    pub check: bool,
    /// WAL a crash phase leaves for the recovery phases.
    pub wal: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: symbench --workload rag_prefix|agent_tools|durable_agents --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::AgentTools,
        seed: 1,
        seconds: 10.0,
        trace: false,
        phase: None,
        rate: 0.0,
        crash_at: 0,
        check: false,
        wal: String::new(),
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let val = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val).unwrap_or_else(|| usage())),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = val == "1",
            "--phase" => a.phase = Some(val),
            "--rate" => a.rate = val.parse().unwrap_or_else(|_| usage()),
            "--crash-at" => a.crash_at = val.parse().unwrap_or_else(|_| usage()),
            "--check" => a.check = val == "1",
            "--wal" => a.wal = val,
            _ => usage(),
        }
    }
    a.workload = workload.unwrap_or_else(|| usage());
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

/// Directory for run artefacts (WAL files, server logs, spans).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("symbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    dir
}

fn main() {
    START.get_or_init(Instant::now);
    let args = parse_args();
    if let Some(phase) = args.phase.clone() {
        let code = match phases::run_child(&phase, &args) {
            Ok(lines) => {
                for (k, v) in lines {
                    println!("{k} {v}");
                }
                0
            }
            Err(e) => {
                eprintln!("symbench {phase}: {e}");
                1
            }
        };
        std::process::exit(code);
    }
    match parent::run(&args) {
        Ok(result) => {
            println!("{}", result.json());
            if !result.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("symbench: {e}");
            std::process::exit(1);
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Which allowed CPU a process runs on.
#[derive(Debug, Clone, Copy)]
pub enum Cpu {
    /// The first allowed CPU: processes hosting a kernel.
    Kernel,
    /// The second (or only) allowed CPU: the load generator.
    Client,
}

/// Pins the calling thread, and every thread or process it creates
/// afterwards, to one CPU. The kernel runs one LIP at a time, so a
/// second CPU buys a kernel-hosting process no parallelism, only
/// cross-CPU wake-ups on every syscall hand-off whose cost depends on
/// where the OS happens to place the threads: unpinned, the same run
/// measured 620–1150 programs/s.
pub fn pin(cpu: Cpu) {
    let allowed = allowed_cpus();
    let pick = match cpu {
        Cpu::Kernel => allowed.first(),
        Cpu::Client => allowed.get(1).or(allowed.first()),
    };
    if let Some(&c) = pick {
        set_affinity(&[c]);
    }
}

/// Lets the calling thread run on every CPU the process started with.
pub fn unpin() {
    set_affinity(allowed_cpus());
}

/// The CPUs this process was allowed when it first asked.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    })
}

fn set_affinity(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut mask = [0u64; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Metrics a child printed.
pub type Lines = BTreeMap<String, f64>;

/// Runs this binary as a child phase and parses its `name value` lines.
pub fn child(args: &Args, phase: &str, extra: &[(&str, String)]) -> Result<Lines, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--phase", phase])
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    for (k, v) in extra {
        cmd.args([*k, v.as_str()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {phase}: {e}"))?;
    if !out.status.success() {
        return Err(format!("phase {phase} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = Lines::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if let (Some(k), Some(v)) = (it.next(), it.next()) {
            if let Ok(v) = v.parse::<f64>() {
                lines.insert(k.to_string(), v);
            }
        }
    }
    Ok(lines)
}
