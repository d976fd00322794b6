//! E9 — §2.1 multi-round chat: retained KV vs per-turn recomputation.
//!
//! "In scenarios involving multi-round prompting, maintaining the KV cache
//! from prior interactions can significantly decrease latency. However,
//! users lack the ability to manage the KV cache retention." A Symphony
//! chat LIP simply keeps its KV file alive across user think time; the
//! prompt-serving model re-prefills the growing transcript every turn.
//!
//! Expected shape: retained per-turn latency stays flat as the
//! conversation grows; recompute latency grows with transcript length.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_chat`

use serde::Serialize;
use symphony::sampling::{generate, GenOpts};
use symphony::{Kernel, KernelConfig, SysError};
use symphony_bench::{write_json, Table};
use symphony_sim::SimDuration;
use symphony_workloads::ChatWorkload;

const SESSIONS: usize = 10;
const ANSWER_TOKENS: usize = 32;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    round: usize,
    mean_turn_latency_ms: f64,
    samples: usize,
}

fn sessions() -> Vec<symphony_workloads::ChatSession> {
    let mut wl = ChatWorkload::new(8.0, SimDuration::from_secs(8), 150, 0xC4A7);
    (0..SESSIONS).map(|_| wl.next_session()).collect()
}

/// Runs all sessions in one kernel; returns per-round turn latencies in ms.
fn run(retain: bool) -> Vec<Vec<f64>> {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(ANSWER_TOKENS as u32);
    let mut kernel = Kernel::new(cfg);
    let mut pids = Vec::new();
    for (i, session) in sessions().into_iter().enumerate() {
        pids.push(kernel.spawn_process(&format!("chat{i}"), "", move |ctx| {
            let opts = GenOpts {
                max_tokens: 96,
                temperature: 0.0,
                emit: false,
                ..Default::default()
            };
            let mut latencies = Vec::new();
            if retain {
                // One KV file for the whole conversation.
                let kv = ctx.kv_create()?;
                for (turn, gap) in session.turns.iter().zip(&session.gaps) {
                    ctx.sleep(*gap)?;
                    let t0 = ctx.now()?;
                    let user = ctx.tokenize(&format!("\nuser: {turn}\nassistant:"))?;
                    generate(ctx, kv, &user, &opts)?;
                    latencies.push(ctx.now()?.duration_since(t0).as_millis_f64());
                }
                ctx.kv_remove(kv)?;
            } else {
                // Stateless: re-prefill the whole transcript each turn.
                let mut transcript: Vec<u32> = Vec::new();
                for (turn, gap) in session.turns.iter().zip(&session.gaps) {
                    ctx.sleep(*gap)?;
                    let t0 = ctx.now()?;
                    transcript.extend(ctx.tokenize(&format!("\nuser: {turn}\nassistant:"))?);
                    let kv = ctx.kv_create()?;
                    let out = generate(ctx, kv, &transcript, &opts)?;
                    transcript.extend(&out.tokens);
                    ctx.kv_remove(kv)?;
                    latencies.push(ctx.now()?.duration_since(t0).as_millis_f64());
                }
            }
            let line: Vec<String> = latencies.iter().map(|l| format!("{l:.3}")).collect();
            ctx.emit(&line.join(","))?;
            Ok(())
        }));
    }
    kernel.run();

    let mut per_round: Vec<Vec<f64>> = Vec::new();
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{:?}", rec.status);
        for (round, lat) in rec.output.split(',').enumerate() {
            let lat: f64 = lat.parse().map_err(|_| SysError::BadArgument).unwrap();
            if per_round.len() <= round {
                per_round.push(Vec::new());
            }
            per_round[round].push(lat);
        }
    }
    per_round
}

fn main() {
    eprintln!("E9: retained ...");
    let retained = run(true);
    eprintln!("E9: recompute ...");
    let recompute = run(false);

    let mut table = Table::new(
        "E9 — multi-round chat: per-turn latency by round (10 sessions)",
        &["round", "retained", "recompute", "sessions alive"],
    );
    let mut results = Vec::new();
    let rounds = retained.len().min(recompute.len()).min(8);
    for r in 0..rounds {
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let (a, b) = (mean(&retained[r]), mean(&recompute[r]));
        table.row(vec![
            (r + 1).to_string(),
            format!("{a:.0}ms"),
            format!("{b:.0}ms"),
            retained[r].len().to_string(),
        ]);
        results.push(Point {
            mode: "retained".into(),
            round: r + 1,
            mean_turn_latency_ms: a,
            samples: retained[r].len(),
        });
        results.push(Point {
            mode: "recompute".into(),
            round: r + 1,
            mean_turn_latency_ms: b,
            samples: recompute[r].len(),
        });
    }
    table.print();
    println!("\nShape check: retained latency is ~flat across rounds; recompute grows with");
    println!("the transcript (each turn re-prefills everything said so far).");
    write_json("exp_chat", &results);
}
