//! The host-clock open loop over TCP against the shipped `symphony-serve`.
//!
//! One client thread, two connections (tenants 1 and 2), the server's
//! default quotas. SUBMITs go out on a Poisson schedule regardless of
//! replies; between sends the client blocks in `ppoll` on both sockets
//! with a timeout up to the next due time, so it never spins. Each program
//! is timed from when it was due, so a stalled generator shows up as
//! latency, and the generator's own lateness is reported.

use std::fs::File;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use symphony_rpc::{ClientMsg, FrameReader, ServerMsg, WIRE_VERSION};

use crate::served::{apply, Outcome, CONNS};
use crate::spans::Tracer;
use crate::work::Job;
use crate::{pin, Cpu};

/// A running `symphony-serve` child process.
pub struct Server {
    child: Child,
    /// Address it listens on.
    pub addr: String,
}

impl Server {
    /// Starts the server on an ephemeral loopback port, pinned to the
    /// kernel CPU, and moves the calling thread to the client CPU. The
    /// server's stderr goes to `log`, which is polled for the listening
    /// address.
    pub fn spawn(bin: &Path, log: &Path) -> Result<Server, String> {
        let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        pin(Cpu::Kernel);
        let child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        pin(Cpu::Client);
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only complete lines: the read may race the server's write.
            let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            if let Some(addr) = complete
                .lines()
                .find_map(|l| l.strip_prefix("symphony-serve: listening on "))
            {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("symphony-serve exited early: {status}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("symphony-serve did not report its address".into())
    }

    /// A `/proc/<pid>/status` field, in its own unit (kB, count).
    pub fn status_field(&self, field: &str) -> Option<f64> {
        proc_status_field(&format!("/proc/{}/status", self.child.id()), field)
    }

    /// Kills the process (SIGKILL, a crash) and reaps it.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A numeric field of a `/proc/*/status` file.
pub fn proc_status_field(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Path of the `symphony-serve` binary built next to this one.
pub fn server_bin() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.with_file_name("symphony-serve")
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
}

const POLLIN: i16 = 0x1;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// ACK received data at once rather than after the delayed-ACK timer.
/// `symphony-serve` does not set `TCP_NODELAY`, so with a delayed-ACK
/// client its next small reply waits behind Nagle for up to ~40 ms; that
/// stall swung p90 latency between 2.7 and 27 ms across identical runs.
/// Linux clears quick-ACK mode as it sees fit, so it is re-armed after
/// every read.
fn quickack(sock: &TcpStream) {
    let one: i32 = 1;
    // SAFETY: a valid socket fd, a live `i32` option value and its size.
    unsafe {
        setsockopt(sock.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

/// Blocks until one of `socks` is readable or `timeout` passes; returns
/// the readable ones' indices.
fn wait_readable(socks: &[TcpStream], timeout: Duration) -> Vec<usize> {
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, correctly laid out pollfd array of the
    // given length, `ts` outlives the call, and a null sigmask leaves the
    // signal mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n <= 0 {
        return Vec::new();
    }
    fds.iter()
        .enumerate()
        .filter(|(_, f)| f.revents != 0)
        .map(|(i, _)| i)
        .collect()
}

/// A connected, greeted client.
pub struct Client {
    socks: Vec<TcpStream>,
    readers: Vec<FrameReader>,
    buf: Vec<u8>,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
}

impl Client {
    /// Opens [`CONNS`] connections and completes HELLO on each.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let mut client = Client {
            socks: Vec::new(),
            readers: Vec::new(),
            buf: vec![0; 64 * 1024],
            bytes_out: 0,
            bytes_in: 0,
        };
        for i in 0..CONNS {
            let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            sock.set_nodelay(true).map_err(|e| e.to_string())?;
            client.socks.push(sock);
            client.readers.push(FrameReader::new());
            client.send(
                i,
                &ClientMsg::Hello {
                    version: WIRE_VERSION,
                    tenant: i as u64 + 1,
                },
                &mut Tracer::off(),
                0,
            )?;
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut greeted = 0;
        while greeted < CONNS {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("no HELLO_OK".into());
            }
            for msg in client.recv(left, &mut Tracer::off())? {
                match msg {
                    ServerMsg::HelloOk { .. } => greeted += 1,
                    other => return Err(format!("expected HELLO_OK, got {other:?}")),
                }
            }
        }
        Ok(client)
    }

    fn send(
        &mut self,
        conn: usize,
        msg: &ClientMsg,
        tr: &mut Tracer,
        session: u64,
    ) -> Result<(), String> {
        let wire = tr.time("rpc.encode", session, || {
            let mut wire = Vec::new();
            msg.encode(&mut wire);
            wire
        });
        self.bytes_out += wire.len() as u64;
        tr.time("net.write", session, || self.socks[conn].write_all(&wire))
            .map_err(|e| format!("write: {e}"))
    }

    /// Waits up to `timeout` for input and returns every complete frame.
    fn recv(&mut self, timeout: Duration, tr: &mut Tracer) -> Result<Vec<ServerMsg>, String> {
        let ready = tr.time("client.wait", 0, || wait_readable(&self.socks, timeout));
        let mut out = Vec::new();
        for i in ready {
            let n = tr
                .time("net.read", 0, || self.socks[i].read(&mut self.buf))
                .map_err(|e| format!("read: {e}"))?;
            quickack(&self.socks[i]);
            if n == 0 {
                return Err("server hung up".into());
            }
            self.bytes_in += n as u64;
            self.readers[i].feed(&self.buf[..n]);
            loop {
                let span = tr.begin("rpc.decode", 0);
                let frame = self.readers[i].next_frame().map_err(|e| e.to_string())?;
                let msg = frame.map(|(tag, payload)| ServerMsg::decode(tag, &payload));
                tr.end(span);
                match msg {
                    None => break,
                    Some(Ok(m)) => out.push(m),
                    Some(Err(e)) => return Err(format!("decode: {e}")),
                }
            }
        }
        Ok(out)
    }
}

/// Result of one host-clock open loop.
pub struct LoopRun {
    /// Per program, in submission order (times in host ns from the loop
    /// start).
    pub outcomes: Vec<Outcome>,
    /// How late each SUBMIT left, in ms.
    pub send_lag_ms: Vec<f64>,
}

/// Sends `jobs[i]` when `due[i]` (ns from the loop start) passes, round
/// robin over the connections, and collects replies until every program
/// has a DONE or a refusal, or `drain` passes after the last send.
pub fn open_loop(
    client: &mut Client,
    jobs: &[Job],
    due: &[u64],
    drain: Duration,
    tr: &mut Tracer,
) -> Result<LoopRun, String> {
    let mut outcomes: Vec<Outcome> = due
        .iter()
        .map(|&d| Outcome {
            due_ns: d,
            ..Outcome::default()
        })
        .collect();
    let mut send_lag_ms = Vec::with_capacity(jobs.len());
    let mut next = 0;
    let mut settled = 0;
    let start = Instant::now();
    let mut deadline = None;
    while settled < jobs.len() {
        let now = start.elapsed().as_nanos() as u64;
        while next < jobs.len() && due[next] <= now {
            let job = &jobs[next];
            let session = next as u64 + 1;
            send_lag_ms.push((start.elapsed().as_nanos() as u64 - due[next]) as f64 / 1e6);
            let msg = ClientMsg::Submit {
                session,
                not_before_ns: 0,
                fuel: 0,
                name: job.name.clone(),
                args: job.args.clone(),
                source: job.source.clone(),
            };
            client.send(next % CONNS, &msg, tr, session)?;
            next += 1;
        }
        let now = start.elapsed().as_nanos() as u64;
        let timeout = if next < jobs.len() {
            Duration::from_nanos(due[next].saturating_sub(now))
        } else {
            let d = *deadline.get_or_insert(Instant::now() + drain);
            let left = d.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            left
        };
        for msg in client.recv(timeout, tr)? {
            let at = start.elapsed().as_nanos() as u64;
            let before = settled_of(&msg, &outcomes);
            apply(&mut outcomes, msg, |_| at);
            settled += before;
        }
    }
    Ok(LoopRun {
        outcomes,
        send_lag_ms,
    })
}

/// 1 if `msg` settles a program not settled yet (its DONE or refusal).
fn settled_of(msg: &ServerMsg, outcomes: &[Outcome]) -> usize {
    let (session, done) = match msg {
        ServerMsg::Done { session, .. } | ServerMsg::Error { session, .. } => (*session, true),
        _ => return 0,
    };
    let Some(o) = (session as usize)
        .checked_sub(1)
        .and_then(|i| outcomes.get(i))
    else {
        return 0;
    };
    usize::from(done && o.status.is_none() && o.shed.is_none())
}

/// Writes a SUBMIT for every job (sessions `1..`) without waiting.
pub fn submit_all(client: &mut Client, jobs: &[Job]) -> Result<(), String> {
    for (i, job) in jobs.iter().enumerate() {
        let msg = ClientMsg::Submit {
            session: i as u64 + 1,
            not_before_ns: 0,
            fuel: 0,
            name: job.name.clone(),
            args: job.args.clone(),
            source: job.source.clone(),
        };
        client.send(i % CONNS, &msg, &mut Tracer::off(), 0)?;
    }
    Ok(())
}
