//! E3 — §2.3/§4.1 constrained decoding through LIPs.
//!
//! Generation with a JSON grammar mask and with a token-trie mask, compared
//! to unconstrained generation. Because the mask runs *inside* the LIP on
//! the full distribution, the only added cost is LIP compute — GPU work per
//! token is identical — and every constrained output is valid by
//! construction.
//!
//! Run: `cargo run -p symphony-bench --release --bin exp_constrained`

use serde::Serialize;
use symphony::sampling::{
    generate, generate_constrained, GenOpts, JsonConstraint, TrieConstraint,
};
use symphony::{Kernel, KernelConfig, SysError};
use symphony_bench::{write_json, Table};
use symphony_tokenizer::Bpe;

const RUNS: usize = 24;

#[derive(Debug, Clone, Serialize)]
struct Point {
    mode: String,
    runs: usize,
    mean_latency_per_token_ms: f64,
    mean_tokens: f64,
    valid_outputs: usize,
    wall_us_per_token: f64,
}

fn run_mode(mode: &'static str) -> Point {
    let mut cfg = KernelConfig::paper_setup();
    cfg.model = cfg.model.with_mean_output_tokens(48);
    let mut kernel = Kernel::new(cfg);
    let mut pids = Vec::new();
    for i in 0..RUNS {
        let args = format!("produce structured output for case {i}");
        pids.push(kernel.spawn_process(&format!("{mode}{i}"), &args, move |ctx| {
            let prompt = ctx.tokenize(&ctx.args())?;
            let kv = ctx.kv_create()?;
            let opts = GenOpts {
                max_tokens: 48,
                temperature: 0.8,
                emit: true,
                ..Default::default()
            };
            match mode {
                "unconstrained" => {
                    generate(ctx, kv, &prompt, &opts)?;
                }
                "json" => {
                    let mut c = JsonConstraint::new(Bpe::default_tokenizer().vocab());
                    generate_constrained(ctx, kv, &prompt, &mut c, &opts)?;
                }
                "trie" => {
                    let options = vec![
                        ctx.tokenize("accepted")?,
                        ctx.tokenize("rejected")?,
                        ctx.tokenize("needs review")?,
                    ];
                    let mut c = TrieConstraint::new(options);
                    generate_constrained(ctx, kv, &prompt, &mut c, &opts)?;
                }
                _ => return Err(SysError::BadArgument),
            }
            Ok(())
        }));
    }
    let wall = std::time::Instant::now();
    kernel.run();
    let wall = wall.elapsed();

    let mut per_tok = symphony_sim::Series::new();
    let mut tokens = 0u64;
    let mut valid = 0usize;
    for &pid in &pids {
        let rec = kernel.record(pid).expect("record");
        assert!(rec.status.is_ok(), "{mode}: {:?}", rec.status);
        tokens += rec.usage.emitted_tokens;
        if rec.usage.emitted_tokens > 0 {
            per_tok.add(
                rec.latency().expect("exited").as_millis_f64()
                    / rec.usage.emitted_tokens as f64,
            );
        }
        let ok = match mode {
            "json" => json_valid(&rec.output),
            "trie" => ["accepted", "rejected", "needs review"].contains(&rec.output.as_str()),
            _ => true,
        };
        valid += usize::from(ok);
    }
    Point {
        mode: mode.to_string(),
        runs: RUNS,
        mean_latency_per_token_ms: per_tok.mean(),
        mean_tokens: tokens as f64 / RUNS as f64,
        valid_outputs: valid,
        wall_us_per_token: wall.as_micros() as f64 / tokens.max(1) as f64,
    }
}

/// Validates the JSON subset the grammar enforces (no floats/escapes/ws).
fn json_valid(s: &str) -> bool {
    // Re-run the emitted bytes through an equivalent check: balanced via
    // serde_json for the subset (it is strictly contained in real JSON).
    serde_json::from_str::<serde_json::Value>(s).is_ok()
}

fn main() {
    let mut results = Vec::new();
    let mut table = Table::new(
        "E3 — constrained decoding overhead and validity",
        &["mode", "lat/token", "mean tokens", "valid", "wall us/token (LIP compute)"],
    );
    for mode in ["unconstrained", "json", "trie"] {
        eprintln!("E3: {mode} ...");
        let p = run_mode(mode);
        table.row(vec![
            p.mode.clone(),
            format!("{:.1}ms", p.mean_latency_per_token_ms),
            format!("{:.1}", p.mean_tokens),
            format!("{}/{}", p.valid_outputs, p.runs),
            format!("{:.0}", p.wall_us_per_token),
        ]);
        results.push(p);
    }
    table.print();
    println!("\nShape check: grammar masking adds LIP-side compute but identical GPU cost");
    println!("per token; constrained outputs are valid by construction (valid = runs).");
    write_json("exp_constrained", &results);
}
