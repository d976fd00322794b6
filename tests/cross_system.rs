//! Cross-crate integration tests: the properties that hold *across* serving
//! systems built on the shared substrate.

use symphony::sampling::{generate, GenOpts};
use symphony::{Kernel, KernelConfig, TimedEvent};
use symphony_baseline::{Engine, EngineConfig, PromptRequest};
use symphony_sim::SimTime;
use symphony_tokenizer::Bpe;

/// The same logical prompt, served greedily by Symphony (a LIP) and by both
/// baseline engines, must produce the same tokens: all three run the same
/// surrogate model, so only scheduling may differ — never output.
#[test]
fn symphony_and_baselines_agree_on_greedy_output() {
    let prompt_text = "compare the memory management of the serving systems";
    let bpe = Bpe::default_tokenizer();

    // Symphony.
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("lip", prompt_text, |ctx| {
        let prompt = ctx.tokenize(&ctx.args())?;
        let kv = ctx.kv_create()?;
        let out = generate(
            ctx,
            kv,
            &prompt,
            &GenOpts {
                max_tokens: 24,
                temperature: 0.0,
                emit: true,
                ..Default::default()
            },
        )?;
        assert!(out.stopped_on_eos || out.tokens.len() == 24);
        Ok(())
    });
    kernel.run();
    let symphony_out = kernel.record(pid).unwrap().output.clone();
    assert!(!symphony_out.is_empty());

    // Baselines (same model seed as KernelConfig::for_tests).
    let request = PromptRequest {
        id: 1,
        arrival: SimTime::ZERO,
        prompt: bpe.encode(prompt_text),
        max_tokens: 24,
        temperature: 0.0,
    };
    for cfg in [EngineConfig::vllm_for_tests(), EngineConfig::tgi_for_tests()] {
        let name = cfg.name;
        let mut engine = Engine::new(cfg);
        let (completions, _) = engine.run(vec![request.clone()]);
        let engine_out = bpe.decode(&completions[0].tokens);
        assert_eq!(
            symphony_out, engine_out,
            "{name} must generate identical greedy output"
        );
    }
}

/// Whole-stack determinism: a mixed workload (generation + tools + threads
/// + IPC) replays identically, telemetry event stream included.
#[test]
fn full_stack_determinism() {
    fn run_once() -> (Vec<TimedEvent>, Vec<String>) {
        let mut cfg = KernelConfig::for_tests();
        cfg.telemetry = true;
        let mut kernel = Kernel::new(cfg);
        kernel.register_tool(
            "search",
            symphony::ToolSpec::new(symphony::SimDuration::from_millis(20), |q| {
                symphony::ToolOutcome::Ok(format!("result:{q}"))
            }),
        );
        let consumer = kernel.spawn_process("consumer", "", |ctx| {
            let m = ctx.recv_msg()?;
            ctx.emit(&format!("got:{}", m.data))?;
            Ok(())
        });
        let mut pids = vec![consumer];
        for i in 0..3 {
            let args = format!("request {i}");
            pids.push(kernel.spawn_process(&format!("worker{i}"), &args, move |ctx| {
                let found = ctx.call_tool("search", &ctx.args())?;
                let prompt = ctx.tokenize(&found)?;
                let kv = ctx.kv_create()?;
                generate(
                    ctx,
                    kv,
                    &prompt,
                    &GenOpts {
                        max_tokens: 10,
                        temperature: 0.9,
                        ..Default::default()
                    },
                )?;
                if i == 0 {
                    let target = ctx.lookup_process("consumer")?.expect("consumer lives");
                    ctx.send_msg(target, "done")?;
                }
                Ok(())
            }));
        }
        kernel.run();
        let outputs = pids
            .iter()
            .map(|&p| kernel.record(p).unwrap().output.clone())
            .collect();
        (kernel.telemetry_events().to_vec(), outputs)
    }
    let (ev1, out1) = run_once();
    let (ev2, out2) = run_once();
    assert!(!ev1.is_empty());
    assert_eq!(ev1, ev2);
    assert_eq!(out1, out2);
}

/// Baseline engines are deterministic too (same seed, same trace).
#[test]
fn engine_determinism() {
    let bpe = Bpe::default_tokenizer();
    let reqs: Vec<PromptRequest> = (0..5)
        .map(|i| PromptRequest {
            id: i,
            arrival: SimTime::ZERO + symphony::SimDuration::from_millis(i * 40),
            prompt: bpe.encode(&format!("request number {i} body")),
            max_tokens: 12,
            temperature: 0.8,
        })
        .collect();
    let run = |reqs: Vec<PromptRequest>| {
        let mut e = Engine::new(EngineConfig::vllm_for_tests());
        let (c, stats) = e.run(reqs);
        let tokens: Vec<Vec<u32>> = c.iter().map(|x| x.tokens.clone()).collect();
        (tokens, stats.makespan)
    };
    let (t1, m1) = run(reqs.clone());
    let (t2, m2) = run(reqs);
    assert_eq!(t1, t2);
    assert_eq!(m1, m2);
}

/// The quick-scale Figure 3 experiment preserves the paper's ordering:
/// under heavy skew Symphony ≤ vLLM ≤ TGI in latency per token.
#[test]
fn fig3_quick_ordering_under_heavy_skew() {
    use symphony_bench::fig3::{run_engine_point, run_symphony_point, Fig3Config, Scale};
    let cfg = Fig3Config::quick();
    let scale = Scale::quick(&cfg);
    let s = run_symphony_point(&cfg, &scale, 0.5, 40.0);
    let v = run_engine_point("vllm-noapc", &cfg, &scale, 0.5, 40.0);
    let t = run_engine_point("tgi", &cfg, &scale, 0.5, 40.0);
    assert_eq!(s.failed, 0);
    assert!(s.cache_hit_rate > 0.5, "heavy skew should mostly hit: {s:?}");
    assert!(
        s.latency_per_token_ms <= v.latency_per_token_ms,
        "symphony {s:?} vs vllm-noapc {v:?}"
    );
    assert!(
        s.latency_per_token_ms <= t.latency_per_token_ms,
        "symphony {s:?} vs tgi {t:?}"
    );
}

/// Tokenizer round-trips compose with the whole pipeline: emitted output is
/// the detokenisation of emitted tokens.
#[test]
fn emitted_output_matches_detokenised_tokens() {
    let mut kernel = Kernel::new(KernelConfig::for_tests());
    let pid = kernel.spawn_process("echo-tokens", "round trip of tokens", |ctx| {
        let toks = ctx.tokenize(&ctx.args())?;
        ctx.emit_tokens(&toks)?;
        Ok(())
    });
    kernel.run();
    assert_eq!(kernel.record(pid).unwrap().output, "round trip of tokens");
}

/// The Figure 3 harness itself is deterministic: the same point measured
/// twice yields identical numbers (no hidden wall-clock or map-order
/// dependence anywhere in the stack).
#[test]
fn fig3_point_is_reproducible() {
    use symphony_bench::fig3::{run_symphony_point, Fig3Config, Scale};
    let cfg = Fig3Config::quick();
    let scale = Scale::quick(&cfg);
    let a = run_symphony_point(&cfg, &scale, 1.0, 20.0);
    let b = run_symphony_point(&cfg, &scale, 1.0, 20.0);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.mean_latency_s, b.mean_latency_s);
    assert_eq!(a.throughput_tok_s, b.throughput_tok_s);
    assert_eq!(a.cache_hit_rate, b.cache_hit_rate);
}
