//! The virtual-clock open loop through the SYMR front door.
//!
//! Every SUBMIT is encoded as a client would, fed into a
//! [`ServerCore`] with its arrival as the `not_before_ns` floor (plus half
//! the simulated RTT), and then one `pump` runs the whole open loop on the
//! virtual clock. Streamed frames are decoded client-side; a frame the
//! server stamps at `at_ns` is seen by the client half an RTT later. The
//! door's tenant quota and session cap are raised here: with every SUBMIT
//! fed before the pump, they would otherwise count programs that have not
//! arrived yet.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use symphony::Kernel;
use symphony_rpc::{ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, WIRE_VERSION};
use symphony_serve::{ServeConfig, ServerCore};

use crate::spans::Tracer;
use crate::work::Job;

/// Client-side connections (tenants 1 and 2), as in the TCP phase.
pub const CONNS: usize = 2;

/// What the client saw of one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// When the SUBMIT was due (ns on the run's clock).
    pub due_ns: u64,
    /// Due → first STREAM.
    pub ttft_ns: Option<u64>,
    /// Due → DONE.
    pub latency_ns: Option<u64>,
    /// DONE status, if one arrived.
    pub status: Option<SessionStatus>,
    /// Door refusal, if the SUBMIT was shed.
    pub shed: Option<ErrCode>,
    /// Concatenated streamed text.
    pub text: String,
}

impl Outcome {
    /// Finished `Ok`.
    pub fn ok(&self) -> bool {
        self.status == Some(SessionStatus::Ok)
    }
}

/// Host time spent in each front-door call of a virtual run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    /// `ClientMsg::encode`, summed over SUBMITs.
    pub encode_s: f64,
    /// `ServerCore::feed`, summed over SUBMITs.
    pub feed_s: f64,
    /// The one `ServerCore::pump` that runs the open loop.
    pub pump_s: f64,
    /// `ServerCore::take_output`, summed over connections.
    pub take_s: f64,
    /// `ServerMsg::decode` (and frame reassembly), summed over frames.
    pub decode_s: f64,
}

/// Result of one virtual open loop.
pub struct VirtualRun {
    /// Per program, in submission order.
    pub outcomes: Vec<Outcome>,
    /// Host time per front-door call.
    pub host: HostTimes,
    /// Frames decoded client-side.
    pub frames: u64,
    /// Wire bytes both ways.
    pub wire_bytes: u64,
    /// The spent core (kernel counters for the per-layer report).
    pub core: ServerCore,
}

/// Door configuration for the virtual loop: server defaults with the
/// quota and session cap lifted (see the module doc).
pub fn virtual_door() -> ServeConfig {
    ServeConfig {
        tenant_session_quota: usize::MAX,
        max_live_sessions: usize::MAX,
        ..ServeConfig::default()
    }
}

/// Runs `jobs[i]` due at `due[i]` through a fresh [`ServerCore`] around
/// `kernel`, with a simulated client↔server round trip of `rtt_ns`.
pub fn run_virtual(
    kernel: Kernel,
    jobs: &[Job],
    due: &[u64],
    rtt_ns: u64,
    tr: &mut Tracer,
) -> VirtualRun {
    let half_rtt = rtt_ns / 2;
    let mut core = ServerCore::new(kernel, virtual_door());
    let mut host = HostTimes::default();
    let mut wire_bytes = 0u64;
    let conns: Vec<u64> = (0..CONNS).map(|_| core.open_conn()).collect();
    for (i, &conn) in conns.iter().enumerate() {
        let mut wire = Vec::new();
        ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant: i as u64 + 1,
        }
        .encode(&mut wire);
        core.feed(conn, &wire);
    }
    let mut outcomes: Vec<Outcome> = due
        .iter()
        .map(|&d| Outcome {
            due_ns: d,
            ..Outcome::default()
        })
        .collect();

    for (i, job) in jobs.iter().enumerate() {
        let session = i as u64 + 1;
        let t0 = Instant::now();
        let wire = tr.time("rpc.encode", session, || {
            let mut wire = Vec::new();
            ClientMsg::Submit {
                session,
                not_before_ns: due[i] + half_rtt,
                fuel: 0,
                name: job.name.clone(),
                args: job.args.clone(),
                source: job.source.clone(),
            }
            .encode(&mut wire);
            wire
        });
        let t1 = Instant::now();
        wire_bytes += wire.len() as u64;
        tr.time("serve.feed", session, || core.feed(conns[i % CONNS], &wire));
        let t2 = Instant::now();
        host.encode_s += (t1 - t0).as_secs_f64();
        host.feed_s += (t2 - t1).as_secs_f64();
    }

    let t0 = Instant::now();
    tr.time("serve.pump", 0, || core.pump());
    host.pump_s = t0.elapsed().as_secs_f64();

    let mut frames = 0u64;
    for &conn in &conns {
        let t0 = Instant::now();
        let bytes = tr.time("serve.take_output", 0, || core.take_output(conn));
        host.take_s += t0.elapsed().as_secs_f64();
        wire_bytes += bytes.len() as u64;
        let mut reader = FrameReader::new();
        reader.feed(&bytes);
        loop {
            let t0 = Instant::now();
            let span = tr.begin("rpc.decode", 0);
            let msg = match reader.next_frame() {
                Ok(Some((tag, payload))) => ServerMsg::decode(tag, &payload).ok(),
                _ => {
                    tr.end(span);
                    break;
                }
            };
            tr.end(span);
            host.decode_s += t0.elapsed().as_secs_f64();
            frames += 1;
            if let Some(msg) = msg {
                apply(&mut outcomes, msg, |at| at + half_rtt);
            }
        }
    }
    VirtualRun {
        outcomes,
        host,
        frames,
        wire_bytes,
        core,
    }
}

/// Folds one server frame into the client's view. `seen` maps the frame's
/// server timestamp to when the client observed it: half an RTT later on
/// the virtual clock, the receive time on the host clock.
pub fn apply(outcomes: &mut [Outcome], msg: ServerMsg, seen: impl Fn(u64) -> u64) {
    let slot = |outcomes: &mut [Outcome], session: u64| -> Option<usize> {
        let i = (session as usize).checked_sub(1)?;
        (i < outcomes.len()).then_some(i)
    };
    match msg {
        ServerMsg::Stream {
            session,
            at_ns,
            text,
            ..
        } => {
            if let Some(i) = slot(outcomes, session) {
                let o = &mut outcomes[i];
                o.ttft_ns
                    .get_or_insert(seen(at_ns).saturating_sub(o.due_ns));
                o.text.push_str(&text);
            }
        }
        ServerMsg::Done {
            session,
            at_ns,
            status,
            ..
        } => {
            if let Some(i) = slot(outcomes, session) {
                let o = &mut outcomes[i];
                o.latency_ns = Some(seen(at_ns).saturating_sub(o.due_ns));
                o.status = Some(status);
            }
        }
        ServerMsg::Error { session, code, .. } => {
            if let Some(i) = slot(outcomes, session) {
                outcomes[i].shed = Some(code);
            }
        }
        _ => {}
    }
}

/// Reference outputs: each distinct (source, args) run alone, one at a
/// time, through a door around `kernel` — the same environment the
/// served run used. Computed outside any timed region.
pub struct Solo {
    core: ServerCore,
    conn: u64,
    next_session: u64,
    cache: HashMap<(String, String), Option<String>>,
}

impl Solo {
    /// A solo runner around a fresh kernel environment.
    pub fn new(kernel: Kernel) -> Self {
        let mut core = ServerCore::new(kernel, virtual_door());
        let conn = core.open_conn();
        let mut wire = Vec::new();
        ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant: 1,
        }
        .encode(&mut wire);
        core.feed(conn, &wire);
        core.take_output(conn);
        Solo {
            core,
            conn,
            next_session: 1,
            cache: HashMap::new(),
        }
    }

    /// The streamed text of `job` run alone, `None` if it did not finish
    /// `Ok` alone either.
    pub fn output(&mut self, job: &Job) -> Option<String> {
        let key = (job.source.clone(), job.args.clone());
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        let session = self.next_session;
        self.next_session += 1;
        let mut wire = Vec::new();
        ClientMsg::Submit {
            session,
            not_before_ns: 0,
            fuel: 0,
            name: job.name.clone(),
            args: job.args.clone(),
            source: job.source.clone(),
        }
        .encode(&mut wire);
        self.core.feed(self.conn, &wire);
        self.core.pump();
        let mut reader = FrameReader::new();
        reader.feed(&self.core.take_output(self.conn));
        let mut text = String::new();
        let mut ok = false;
        while let Ok(Some((tag, payload))) = reader.next_frame() {
            match ServerMsg::decode(tag, &payload) {
                Ok(ServerMsg::Stream { text: t, .. }) => text.push_str(&t),
                Ok(ServerMsg::Done { status, .. }) => ok = status == SessionStatus::Ok,
                _ => {}
            }
        }
        let out = ok.then_some(text);
        self.cache.insert(key, out.clone());
        out
    }
}

/// Counts of one phase's programs: sent, finished `Ok`, failed after
/// admission, shed at the door by code, and `Ok` programs whose output
/// differed from the solo reference.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// SUBMITs sent.
    pub sent: u64,
    /// DONE{Ok}.
    pub ok: u64,
    /// Admitted but not `Ok` (DONE{Error}/Crashed/Cancelled or no DONE).
    pub failed: u64,
    /// Door refusals by code.
    pub shed: BTreeMap<String, u64>,
    /// `Ok` programs whose streamed text differs from the solo run.
    pub mismatched: u64,
}

impl Tally {
    /// Tallies outcomes; with `solo`, checks every `Ok` one against its
    /// solo run.
    pub fn of(jobs: &[Job], outcomes: &[Outcome], mut solo: Option<&mut Solo>) -> Tally {
        let mut t = Tally {
            sent: outcomes.len() as u64,
            ..Tally::default()
        };
        for (job, o) in jobs.iter().zip(outcomes) {
            if let Some(code) = o.shed {
                *t.shed.entry(format!("{code:?}")).or_insert(0) += 1;
            } else if o.ok() {
                t.ok += 1;
                if let Some(solo) = solo.as_deref_mut() {
                    if solo.output(job).as_deref() != Some(o.text.as_str()) {
                        t.mismatched += 1;
                    }
                }
            } else {
                t.failed += 1;
            }
        }
        t
    }

    /// Shed total.
    pub fn shed_total(&self) -> u64 {
        self.shed.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{self, Workload};

    #[test]
    fn served_outputs_match_solo_runs() {
        for w in [Workload::RagPrefix, Workload::AgentTools] {
            let jobs = work::jobs(w, 3, 30, false);
            let due = work::arrivals(3, jobs.len(), 300.0);
            let (kernel, _) = work::served_kernel(w);
            let run = run_virtual(kernel, &jobs, &due, 10_000_000, &mut Tracer::off());
            let (solo, _) = work::served_kernel(w);
            let t = Tally::of(&jobs, &run.outcomes, Some(&mut Solo::new(solo)));
            assert_eq!((t.sent, t.ok, t.mismatched), (30, 30, 0), "{w:?}");
            assert!(run.outcomes.iter().all(|o| !o.text.is_empty()));
        }
    }

    #[test]
    fn a_changed_output_is_a_mismatch() {
        let w = Workload::AgentTools;
        let jobs = work::jobs(w, 4, 5, false);
        let due = work::arrivals(4, jobs.len(), 100.0);
        let (kernel, _) = work::served_kernel(w);
        let mut run = run_virtual(kernel, &jobs, &due, 0, &mut Tracer::off());
        run.outcomes[2].text.push('!');
        let (solo, _) = work::served_kernel(w);
        let t = Tally::of(&jobs, &run.outcomes, Some(&mut Solo::new(solo)));
        assert_eq!(t.mismatched, 1);
    }
}
