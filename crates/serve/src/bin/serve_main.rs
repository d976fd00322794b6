//! `symphony-serve` — the SYMR front door on a real TCP socket.
//!
//! ```text
//! symphony-serve --listen 127.0.0.1:7777 [--quota N] [--max-sessions N]
//! symphony-serve --selftest
//! ```
//!
//! The socket shell is deliberately thin: a single-threaded non-blocking
//! accept/read/pump/write loop around [`ServerCore`], so every protocol
//! decision is the same code the deterministic loopback tests exercise.
//! `--selftest` starts a listener on an ephemeral port, runs a real TCP
//! client against it in-process (HELLO → submissions → quota shed →
//! cancel → BYE) and exits 0 only if streaming, the typed quota error and
//! the clean shutdown all check out — CI's serve-smoke job runs exactly
//! this.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use symphony::KernelConfig;
use symphony_rpc::{ClientMsg, ErrCode, FrameReader, ServerMsg, WIRE_VERSION};
use symphony_serve::replay::{agent_source, standard_kernel};
use symphony_serve::{ServeConfig, ServerCore};

fn usage() -> ! {
    eprintln!("usage: symphony-serve --listen ADDR [--quota N] [--max-sessions N] | --selftest");
    std::process::exit(2);
}

fn main() {
    let mut listen = None;
    let mut selftest = false;
    let mut cfg = ServeConfig::default();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--listen" => listen = argv.next(),
            "--selftest" => selftest = true,
            "--quota" => {
                cfg.tenant_session_quota = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-sessions" => {
                cfg.max_live_sessions = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    if selftest {
        run_selftest(cfg);
        return;
    }
    let Some(addr) = listen else { usage() };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("symphony-serve: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "symphony-serve: listening on {}",
        listener.local_addr().map(|a| a.to_string()).unwrap_or(addr)
    );
    serve_loop(listener, cfg, &AtomicBool::new(false));
}

/// The accept/read/pump/write loop. Runs until `stop` flips and no
/// connection remains (the selftest uses that; the CLI runs forever).
fn serve_loop(listener: TcpListener, cfg: ServeConfig, stop: &AtomicBool) {
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("symphony-serve: nonblocking: {e}");
        std::process::exit(1);
    }
    let mut core = ServerCore::new(standard_kernel(KernelConfig::for_tests()), cfg);
    let mut socks: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let mut idle = true;
        match listener.accept() {
            Ok((sock, peer)) => {
                // Replies are small frames; with Nagle on, each waits for
                // the client's delayed ACK (up to ~40 ms on Linux).
                if let Err(e) = sock.set_nodelay(true) {
                    eprintln!("symphony-serve: nodelay: {e}");
                }
                if sock.set_nonblocking(true).is_ok() {
                    let conn = core.open_conn();
                    eprintln!("symphony-serve: conn {conn} from {peer}");
                    socks.insert(conn, sock);
                    idle = false;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => eprintln!("symphony-serve: accept: {e}"),
        }
        let conns: Vec<u64> = socks.keys().copied().collect();
        for conn in conns {
            // lint:allow(k1): key came from the map one line up
            let sock = socks.get_mut(&conn).expect("socket exists");
            loop {
                match sock.read(&mut buf) {
                    Ok(0) => {
                        core.drop_conn(conn);
                        break;
                    }
                    Ok(n) => {
                        core.feed(conn, &buf[..n]);
                        idle = false;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        core.drop_conn(conn);
                        break;
                    }
                }
            }
        }
        core.pump();
        socks.retain(|&conn, sock| {
            let out = core.take_output(conn);
            if !out.is_empty() {
                idle = false;
                // A blocked write on a non-blocking socket would need a
                // real pending-buffer; at smoke-test scale a short spin
                // suffices, and a persistently dead peer is a drop.
                let mut off = 0;
                while off < out.len() {
                    match sock.write(&out[off..]) {
                        Ok(n) => off += n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => {
                            core.drop_conn(conn);
                            return false;
                        }
                    }
                }
            }
            if core.is_closed(conn) && core.pending_output(conn) == 0 {
                return false; // server-initiated close: reply flushed, hang up
            }
            true
        });
        if stop.load(Ordering::SeqCst) && socks.is_empty() {
            return;
        }
        if idle {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// In-process end-to-end check over a real socket pair.
fn run_selftest(mut cfg: ServeConfig) {
    cfg.tenant_session_quota = 2;
    // lint:allow(k1): selftest binds an ephemeral loopback port
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let server = std::thread::spawn(move || serve_loop(listener, cfg, &stop2));

    let result = selftest_client(&addr.to_string());
    stop.store(true, Ordering::SeqCst);
    match result {
        Ok(summary) => {
            // lint:allow(k1): selftest thread panics are the failure signal
            server.join().expect("server thread");
            println!("{summary}");
            println!("selftest: ok");
        }
        Err(e) => {
            eprintln!("selftest: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn selftest_client(addr: &str) -> Result<String, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    let mut recv = |sock: &mut TcpStream, reader: &mut FrameReader| -> Result<ServerMsg, String> {
        loop {
            if let Some((tag, payload)) = reader.next_frame().map_err(|e| e.to_string())? {
                return ServerMsg::decode(tag, &payload).map_err(|e| e.to_string());
            }
            let n = sock.read(&mut buf).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server hung up".into());
            }
            reader.feed(&buf[..n]);
        }
    };
    let send = |sock: &mut TcpStream, msg: &ClientMsg| -> Result<(), String> {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        sock.write_all(&wire).map_err(|e| format!("write: {e}"))
    };

    send(
        &mut sock,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            tenant: 1,
        },
    )?;
    match recv(&mut sock, &mut reader)? {
        ServerMsg::HelloOk { .. } => {}
        other => return Err(format!("expected HELLO_OK, got {other:?}")),
    }

    // Three submissions against a quota of 2: the third must shed with a
    // typed QuotaExceeded, the first two must stream and complete.
    for session in 1..=3u64 {
        send(
            &mut sock,
            &ClientMsg::Submit {
                session,
                not_before_ns: 0,
                fuel: 0,
                name: format!("selftest-{session}"),
                args: format!("task {session}"),
                source: agent_source(1, 8),
            },
        )?;
    }
    let mut accepted = 0;
    let mut quota_shed = false;
    let mut streamed_tokens = 0u64;
    let mut done = 0;
    while done < 2 || accepted + 1 < 3 {
        match recv(&mut sock, &mut reader)? {
            ServerMsg::Accepted { .. } => accepted += 1,
            ServerMsg::Error {
                code: ErrCode::QuotaExceeded,
                session,
                ..
            } => {
                if session != 3 {
                    return Err(format!("quota shed hit session {session}, expected 3"));
                }
                quota_shed = true;
            }
            ServerMsg::Stream { tokens, text, .. } => {
                streamed_tokens += tokens.max(if text.is_empty() { 0 } else { 1 })
            }
            ServerMsg::Done { .. } => done += 1,
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
    if !quota_shed {
        return Err("no QuotaExceeded for the over-quota submission".into());
    }
    if streamed_tokens == 0 {
        return Err("no streamed tokens observed".into());
    }

    send(&mut sock, &ClientMsg::Bye)?;
    match recv(&mut sock, &mut reader)? {
        ServerMsg::ByeOk => {}
        other => return Err(format!("expected BYE_OK, got {other:?}")),
    }
    Ok(format!(
        "selftest: {accepted} accepted, {done} done, {streamed_tokens} streamed tokens, quota shed observed"
    ))
}
