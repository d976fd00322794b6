//! E7 — the §2 code-editor motivation, quantified.
//!
//! Per-keystroke autocompletion over a growing buffer, three ways:
//!
//! - `symphony-incremental`: one LIP keeps the buffer's KV file for the
//!   whole session and appends only newly typed tokens.
//! - `prompt-apc`: a prompt server with automatic prefix caching — each
//!   keystroke resubmits the buffer; the cache absorbs most of it.
//! - `prompt-nocache`: a stateless prompt server re-prefills everything.
//!
//! Expected: incremental per-keystroke latency is near-constant in buffer
//! size; no-cache grows linearly; APC sits close to incremental but pays
//! block-granular re-prefill and request overhead.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_editor`

use serde::Serialize;
use symphony::{Kernel, KernelConfig, SysError};
use symphony_baseline::{Engine, EngineConfig, PromptRequest};
use symphony_bench::{write_json, Table};
use symphony_sim::{SimDuration, SimTime};
use symphony_tokenizer::Bpe;
use symphony_workloads::EditorWorkload;

const KEYSTROKES: usize = 24;
const SUGGESTION_TOKENS: usize = 4;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    buffer_words: usize,
    mean_keystroke_latency_ms: f64,
    total_pred_tokens: u64,
}

fn trace(buffer_words: usize) -> symphony_workloads::EditorTrace {
    EditorWorkload::new(buffer_words, KEYSTROKES, SimDuration::from_millis(250), 11)
        .next_trace()
}

fn run_symphony(buffer_words: usize) -> Point {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(100_000);
    let mut kernel = Kernel::new(cfg);
    let tr = trace(buffer_words);
    let tr2 = tr.clone();
    let pid = kernel.spawn_process("editor", "", move |ctx| {
        let kv = ctx.kv_create()?;
        let initial = ctx.tokenize(&tr2.initial_buffer)?;
        let mut dist = ctx
            .pred_positions(kv, &initial, 0)?
            .pop()
            .ok_or(SysError::BadArgument)?;
        let mut pos = initial.len() as u32;
        let mut latencies_ns: Vec<u64> = Vec::new();
        for (chunk, gap) in tr2.appends.iter().zip(&tr2.gaps) {
            ctx.sleep(*gap)?;
            let t0 = ctx.now()?;
            let typed = ctx.tokenize(chunk)?;
            if !typed.is_empty() {
                dist = ctx
                    .pred_positions(kv, &typed, pos)?
                    .pop()
                    .ok_or(SysError::BadArgument)?;
                pos += typed.len() as u32;
            }
            // Probe a short suggestion on a fork, keeping the buffer exact.
            let probe = ctx.kv_fork(kv)?;
            let mut d = dist.clone();
            for p in (pos..).take(SUGGESTION_TOKENS) {
                let t = d.argmax();
                if t == ctx.eos() {
                    break;
                }
                d = ctx.pred(probe, &[(t, p)])?.remove(0);
            }
            ctx.kv_remove(probe)?;
            let t1 = ctx.now()?;
            latencies_ns.push(t1.duration_since(t0).as_nanos());
        }
        let mean =
            latencies_ns.iter().sum::<u64>() as f64 / latencies_ns.len().max(1) as f64 / 1e6;
        ctx.emit(&format!("{mean}"))?;
        ctx.kv_remove(kv)?;
        Ok(())
    });
    kernel.run();
    let rec = kernel.record(pid).expect("record");
    assert!(rec.status.is_ok(), "{:?}", rec.status);
    Point {
        mode: "symphony-incremental".into(),
        buffer_words,
        mean_keystroke_latency_ms: rec.output.parse().expect("mean latency"),
        total_pred_tokens: rec.usage.pred_tokens,
    }
}

fn run_prompt(buffer_words: usize, apc: bool) -> Point {
    let bpe = Bpe::default_tokenizer();
    let tr = trace(buffer_words);
    let mut ecfg = if apc {
        EngineConfig::vllm_like()
    } else {
        EngineConfig::vllm_noapc()
    };
    ecfg.model = ecfg.model.with_mean_output_tokens(100_000);
    let mut engine = Engine::new(ecfg);

    // Each keystroke submits the whole buffer as a fresh prompt.
    let mut buffer = tr.initial_buffer.clone();
    let mut at = SimTime::ZERO;
    let mut requests = Vec::new();
    for (i, (chunk, gap)) in tr.appends.iter().zip(&tr.gaps).enumerate() {
        at += *gap;
        buffer.push_str(chunk);
        requests.push(PromptRequest {
            id: i as u64,
            arrival: at,
            prompt: bpe.encode(&buffer),
            max_tokens: SUGGESTION_TOKENS,
            temperature: 0.0,
        });
    }
    let (completions, stats) = engine.run(requests);
    let mut lat = symphony_sim::Series::new();
    for c in &completions {
        lat.add(c.latency().as_millis_f64());
    }
    Point {
        mode: if apc { "prompt-apc" } else { "prompt-nocache" }.into(),
        buffer_words,
        mean_keystroke_latency_ms: lat.mean(),
        total_pred_tokens: stats.prompt_tokens - stats.cached_prompt_tokens
            + stats.generated_tokens,
    }
}

fn main() {
    let mut results = Vec::new();
    let mut table = Table::new(
        "E7 — editor autocompletion: per-keystroke latency vs buffer size",
        &["buffer words", "incremental", "prompt+apc", "prompt-nocache", "pred tokens i/a/n"],
    );
    for buffer_words in [200usize, 800, 2000] {
        eprintln!("E7: buffer={buffer_words} words ...");
        let s = run_symphony(buffer_words);
        let a = run_prompt(buffer_words, true);
        let n = run_prompt(buffer_words, false);
        table.row(vec![
            buffer_words.to_string(),
            format!("{:.1}ms", s.mean_keystroke_latency_ms),
            format!("{:.1}ms", a.mean_keystroke_latency_ms),
            format!("{:.1}ms", n.mean_keystroke_latency_ms),
            format!(
                "{}/{}/{}",
                s.total_pred_tokens, a.total_pred_tokens, n.total_pred_tokens
            ),
        ]);
        results.extend([s, a, n]);
    }
    table.print();
    println!("\nShape check: incremental latency is ~flat in buffer size; no-cache grows");
    println!("with the buffer; APC tracks incremental at block granularity.");
    write_json("exp_editor", &results);
}
