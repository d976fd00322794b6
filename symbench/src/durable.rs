//! Durable agents: the agent LipScript as a [`ProgramImage`] around
//! `run_lip`, started with `Kernel::schedule_durable` under the WAL,
//! crashed at a syscall boundary, recovered and run to completion.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use symphony::{
    ExitStatus, Kernel, KernelConfig, ProgramImage, SessionEvent, SimTime, SysError, ToolOutcome,
    ToolSpec, WalConfig,
};
use symphony_lipscript::{run_lip, InterpLimits};
use symphony_rpc::SessionStatus;

use crate::served::Outcome;
use crate::work::{Job, ECHO_LATENCY};

/// Kernel configuration of a durable run: the serving kernel's, with the
/// WAL at `wal` and an optional crash at a syscall boundary.
pub fn config(wal: &Path, crash_at: Option<u64>) -> KernelConfig {
    let mut cfg = KernelConfig::for_tests();
    cfg.wal = Some(WalConfig::new(wal));
    cfg.faults.crash_at_boundary = crash_at;
    cfg
}

/// A re-invocable image of one LipScript program.
fn image(source: &str) -> ProgramImage {
    let source: Arc<str> = source.into();
    Arc::new(move |ctx| {
        run_lip(&source, ctx, InterpLimits::default())
            .map(|_| ())
            .map_err(|e| SysError::ToolFailed(e.to_string()))
    })
}

/// Session events with the host instant they were seen.
type Seen = Arc<Mutex<Vec<(SessionEvent, Instant)>>>;

/// A durable kernel with the `echo` tool (counting its handler fires) and
/// a session sink recording every event.
pub struct Durable {
    /// The kernel.
    pub kernel: Kernel,
    /// `echo` handler fires, across this kernel's lifetime.
    pub fires: Arc<AtomicU64>,
    events: Seen,
    pids: HashMap<u64, usize>,
}

impl Durable {
    /// Boots a fresh kernel.
    pub fn new(cfg: KernelConfig) -> Durable {
        Durable::wrap(Kernel::new(cfg))
    }

    fn wrap(mut kernel: Kernel) -> Durable {
        let fires = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&fires);
        kernel.register_tool(
            "echo",
            ToolSpec::fixed(ECHO_LATENCY, move |args| {
                counter.fetch_add(1, Ordering::Relaxed);
                ToolOutcome::Ok(args.to_string())
            }),
        );
        let events: Seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        kernel.set_session_sink(Box::new(move |ev| {
            let now = Instant::now();
            sink.lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((ev, now));
        }));
        Durable {
            kernel,
            fires,
            events,
            pids: HashMap::new(),
        }
    }

    /// Recovers a crashed kernel from its WAL and re-admits its programs
    /// from `jobs`; returns the kernel and the host seconds spent in
    /// `Kernel::recover` and `resume_programs`.
    pub fn recover(cfg: KernelConfig, jobs: &[Job]) -> Result<(Durable, f64, f64), String> {
        let t0 = Instant::now();
        let (kernel, _) = Kernel::recover(cfg).map_err(|e| format!("recover: {e:?}"))?;
        let recover_s = t0.elapsed().as_secs_f64();
        let mut d = Durable::wrap(kernel);
        let by_name: HashMap<&str, &str> = jobs
            .iter()
            .map(|j| (j.name.as_str(), j.source.as_str()))
            .collect();
        let t0 = Instant::now();
        let report = d
            .kernel
            .resume_programs(|name| by_name.get(name).map(|src| image(src)));
        let resume_s = t0.elapsed().as_secs_f64();
        if report.lost > 0 {
            return Err(format!("{} programs lost in recovery", report.lost));
        }
        Ok((d, recover_s, resume_s))
    }

    /// Schedules `jobs[i]` as a durable program arriving at virtual
    /// `at[i]`.
    pub fn schedule(&mut self, jobs: &[Job], at: &[u64]) {
        for (i, job) in jobs.iter().enumerate() {
            let pid = self.kernel.schedule_durable(
                SimTime::from_nanos(at[i]),
                &job.name,
                &job.args,
                image(&job.source),
            );
            self.pids.insert(pid.0, i);
        }
    }

    /// Spawns `jobs[i]` now, as a durable program.
    pub fn spawn(&mut self, jobs: &[Job], i: usize) {
        let job = &jobs[i];
        let pid = self
            .kernel
            .spawn_durable(&job.name, &job.args, image(&job.source));
        self.pids.insert(pid.0, i);
    }

    /// Folds recorded session events into `outcomes`: `virt` uses the
    /// events' virtual times plus `delay_ns`; otherwise host instants
    /// relative to `epoch`.
    pub fn drain_into(&mut self, outcomes: &mut [Outcome], delay_ns: u64, epoch: Option<Instant>) {
        let events = std::mem::take(&mut *self.events.lock().unwrap_or_else(|p| p.into_inner()));
        for (ev, seen) in events {
            let (pid, at) = match &ev {
                SessionEvent::Emitted { pid, at, .. } | SessionEvent::Exited { pid, at, .. } => {
                    (*pid, *at)
                }
            };
            let Some(&i) = self.pids.get(&pid.0) else {
                continue;
            };
            let t = match epoch {
                Some(e) => seen.duration_since(e).as_nanos() as u64,
                None => at.as_nanos() + delay_ns,
            };
            let o = &mut outcomes[i];
            match ev {
                SessionEvent::Emitted { text, .. } => {
                    o.ttft_ns.get_or_insert(t.saturating_sub(o.due_ns));
                    o.text.push_str(&text);
                }
                SessionEvent::Exited { status, .. } => {
                    o.latency_ns = Some(t.saturating_sub(o.due_ns));
                    o.status = Some(match status {
                        ExitStatus::Ok => SessionStatus::Ok,
                        ExitStatus::Crashed => SessionStatus::Crashed,
                        ExitStatus::Error(_) => SessionStatus::Error,
                    });
                }
            }
        }
    }

    /// Programs that finished `Ok`, and a digest of every program's final
    /// output in job order.
    pub fn finished(&self) -> (u64, u64) {
        let mut recs: Vec<(usize, bool, &str)> = self
            .kernel
            .records()
            .filter_map(|r| {
                let i = r.name.strip_prefix("agent-")?.parse::<usize>().ok()?;
                Some((i, matches!(r.status, ExitStatus::Ok), r.output.as_str()))
            })
            .collect();
        recs.sort_by_key(|r| r.0);
        let ok = recs.iter().filter(|r| r.1).count() as u64;
        // FNV-1a over (index, output) pairs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, _, out) in &recs {
            for b in i.to_le_bytes().iter().chain(out.as_bytes()) {
                h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        (ok, h)
    }
}

/// WAL size and per-tag frame counts of the log at `path`.
pub fn wal_frames(path: &Path) -> (u64, Vec<(&'static str, u64)>) {
    let bytes = std::fs::read(path).unwrap_or_default();
    let counts = symphony::wal::frame_counts(&bytes)
        .map(|m| m.into_iter().collect())
        .unwrap_or_default();
    (bytes.len() as u64, counts)
}

/// A WAL path under `dir`, unique to this process.
pub fn wal_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("{tag}-{}.wal", std::process::id()))
}
