//! Workload inputs: programs, arrival schedules and kernel environments,
//! all derived from the run's seed.

use symphony::{Kernel, KernelConfig, Mode, SimDuration, ToolOutcome, ToolSpec};
use symphony_serve::replay::{agent_source, rag_source, standard_kernel, RAG_DOCS};
use symphony_sim::Rng;
use symphony_workloads::agent::AgentWorkload;
use symphony_workloads::rag::{RagCorpus, RagWorkload};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fork a pinned corpus document, append a question, decode.
    RagPrefix,
    /// Tool-calling agents on private KV.
    AgentTools,
    /// The agent programs as durable LIPs with the WAL on, crashed and
    /// recovered.
    DurableAgents,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rag_prefix" => Some(Workload::RagPrefix),
            "agent_tools" => Some(Workload::AgentTools),
            "durable_agents" => Some(Workload::DurableAgents),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RagPrefix => "rag_prefix",
            Workload::AgentTools => "agent_tools",
            Workload::DurableAgents => "durable_agents",
        }
    }

    /// Whether programs go through the SYMR front door.
    pub fn served(self) -> bool {
        self != Workload::DurableAgents
    }
}

/// Corpus documents preloaded for `rag_prefix` (the Zipf topic space).
pub const CORPUS_DOCS: usize = 8;
/// Tokens per corpus document: the shared prefix is ≈90% of each
/// request's context (question ≈ 12 tokens, 16 decoded).
pub const DOC_TOKENS: usize = 256;
/// Seed of the corpus text.
pub const CORPUS_SEED: u64 = 3;
/// Tokens each `rag_prefix` program decodes.
pub const RAG_GEN: usize = 16;
/// Zipf skew of topics (the Fig. 3 Pareto index).
pub const PARETO_INDEX: f64 = 1.2;
/// Virtual-time latency of the `echo` tool.
pub const ECHO_LATENCY: SimDuration = SimDuration::from_millis(5);

/// One program to submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Program name (`rag-7`, `agent-7`); 1-based index.
    pub name: String,
    /// Program arguments.
    pub args: String,
    /// LipScript source.
    pub source: String,
    /// Document prefix the program forks (`None` for agents).
    pub topic: Option<usize>,
}

/// The programs of a workload, drawn from `seed`. `builtin_docs` renders
/// RAG programs over the shipped server's four built-in `doc{n}.kv`
/// prefixes instead of the benchmark's corpus.
pub fn jobs(w: Workload, seed: u64, n: usize, builtin_docs: bool) -> Vec<Job> {
    match w {
        Workload::RagPrefix => {
            let mut rag = RagWorkload::new(CORPUS_DOCS, PARETO_INDEX, 1.0, seed);
            let docs = if builtin_docs { RAG_DOCS } else { CORPUS_DOCS };
            (0..n)
                .map(|i| {
                    let req = rag.next_request();
                    let topic = req.topic % docs;
                    Job {
                        name: format!("rag-{}", i + 1),
                        args: format!("{topic}|{}", req.query),
                        source: rag_source(RAG_GEN),
                        topic: Some(topic),
                    }
                })
                .collect()
        }
        Workload::AgentTools | Workload::DurableAgents => {
            let mut agent =
                AgentWorkload::new(&["echo"], 3, 12, 16, SimDuration::from_millis(10), seed);
            let mut rounds = Rng::new(seed ^ 0xa9e7);
            (0..n)
                .map(|i| {
                    let trace = agent.next_trace();
                    let seg = trace.gen_segments[0].clamp(4, 24);
                    let calls = 1 + rounds.gen_index(3);
                    Job {
                        name: format!("agent-{}", i + 1),
                        args: format!("task {seed}-{}", i + 1),
                        source: agent_source(calls, seg),
                        topic: None,
                    }
                })
                .collect()
        }
    }
}

/// Poisson arrival offsets (ns) of `n` programs at `rate` per second. The
/// unit-rate gaps come from `seed` alone, so every rate on a ladder
/// replays the same schedule, stretched.
pub fn arrivals(seed: u64, n: usize, rate: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xa771_7a15);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.next_f64_open().ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// The served kernel environment, with the kernel configuration the
/// shipped `symphony-serve` uses, and the token length of each preloaded
/// document prefix. `rag_prefix` replaces the four built-in document
/// prefixes with a generated corpus; agents use the standard environment
/// (its `echo` tool is what they call).
pub fn served_kernel(w: Workload) -> (Kernel, Vec<u64>) {
    match w {
        Workload::RagPrefix => corpus_kernel(KernelConfig::for_tests()),
        _ => (shipped_kernel(), Vec::new()),
    }
}

/// The environment `symphony-serve` builds: its kernel configuration,
/// four built-in `doc{n}.kv` prefixes and the `echo`/`time` tools.
pub fn shipped_kernel() -> Kernel {
    standard_kernel(KernelConfig::for_tests())
}

/// A kernel with the serving environment's system prompt and tools and a
/// `CORPUS_DOCS`-document corpus preloaded, pinned, as `doc{n}.kv`. The
/// corpus is the deployment, not the input: it is the same for every
/// seed, so seeds vary only which topics are asked and when.
fn corpus_kernel(cfg: KernelConfig) -> (Kernel, Vec<u64>) {
    let mut kernel = Kernel::new(cfg);
    let bpe = kernel.tokenizer();
    let sys = bpe.encode("you are a helpful assistant running as a user program");
    let corpus = RagCorpus::generate(bpe, CORPUS_DOCS, DOC_TOKENS, CORPUS_SEED);
    let mut preload = |path: &str, toks: &[u32]| {
        if let Err(e) = kernel.preload_kv(path, toks, Mode::SHARED_READ, true) {
            panic!("preload {path}: {e}");
        }
    };
    preload("sys_msg.kv", &sys);
    let mut lens = Vec::new();
    for doc in 0..corpus.len() {
        let toks = &corpus.doc(doc)[..corpus.doc(doc).len().min(DOC_TOKENS)];
        preload(&format!("doc{doc}.kv"), toks);
        lens.push(toks.len() as u64);
    }
    register_echo(&mut kernel);
    (kernel, lens)
}

/// Registers the `echo` tool agents call (the serving environment's).
pub fn register_echo(kernel: &mut Kernel) {
    kernel.register_tool(
        "echo",
        ToolSpec::fixed(ECHO_LATENCY, |args| ToolOutcome::Ok(args.to_string())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_schedule() {
        for w in [Workload::RagPrefix, Workload::AgentTools] {
            assert_eq!(jobs(w, 5, 50, false), jobs(w, 5, 50, false));
        }
        assert_eq!(arrivals(5, 100, 300.0), arrivals(5, 100, 300.0));
        assert_ne!(arrivals(5, 100, 300.0), arrivals(6, 100, 300.0));
        assert_ne!(
            jobs(Workload::AgentTools, 5, 50, false),
            jobs(Workload::AgentTools, 6, 50, false)
        );
    }

    #[test]
    fn ladder_rates_stretch_one_schedule() {
        let slow = arrivals(9, 64, 100.0);
        let fast = arrivals(9, 64, 200.0);
        for (s, f) in slow.iter().zip(&fast) {
            assert!((*s as f64 - 2.0 * *f as f64).abs() <= 2.0);
        }
    }
}
