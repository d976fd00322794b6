//! The rule catalogue: what each rule matches, where it applies, and its
//! `--explain` documentation. Path classification (deterministic crates,
//! kernel modules, binaries vs. libraries, test trees) lives here too so
//! the whole policy is in one place.

use crate::sanitize::Lines;
use crate::Violation;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock time in deterministic code.
    D1,
    /// No ambient (OS-seeded) randomness.
    D2,
    /// No order-unstable hash collections in deterministic crates.
    D3,
    /// No panicking calls on kernel paths.
    K1,
    /// No stdout/stderr printing from library crates.
    O1,
    /// Telemetry span begins must have matching ends.
    O2,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[Rule::D1, Rule::D2, Rule::D3, Rule::K1, Rule::O1, Rule::O2];

/// Crates whose output feeds golden traces / fingerprint comparisons:
/// any order instability or ambient input here silently breaks the
/// byte-identical-trace regression suites.
const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "kvfs",
    "gpu",
    "sim",
    "model",
    "telemetry",
    "rpc",
    "serve",
    // The LipScript front end runs inside the serving door: parse +
    // verify must produce identical diagnostics and effect summaries on
    // every replica, or admission decisions diverge across a fleet.
    "lipscript",
];

/// Kernel-path files for `k1`: every line of these runs under a syscall or
/// the event loop, where a panic kills the whole serving kernel.
const KERNEL_PATHS: &[&str] = &[
    "crates/core/src/kernel.rs",
    "crates/core/src/syscall.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/resilience.rs",
    // The admission verifier runs on every SUBMIT inside the serve event
    // loop; a panic while checking or rendering a hostile program is a
    // remote denial of service.
    "crates/lipscript/src/verify.rs",
];

impl Rule {
    /// Stable lowercase id used in reports, suppressions and `lint.toml`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::D3 => "d3",
            Rule::K1 => "k1",
            Rule::O1 => "o1",
            Rule::O2 => "o2",
        }
    }

    /// Parses a rule id (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s.trim()))
    }

    /// Whether this rule is in scope for a workspace-relative path.
    pub fn applies_to(&self, path: &str) -> bool {
        match self {
            // Wall-clock and ambient RNG poison determinism wherever they
            // appear, including test helpers that feed golden fixtures.
            Rule::D1 | Rule::D2 => true,
            Rule::D3 => DETERMINISTIC_CRATES
                .iter()
                .any(|c| path.starts_with(&format!("crates/{c}/src/"))),
            Rule::K1 => {
                KERNEL_PATHS.contains(&path)
                    || path.starts_with("crates/kvfs/src/")
                    || path.starts_with("crates/gpu/src/")
                    // The wire front door serves every connection from one
                    // event loop: a panic in rpc decode or serve dispatch
                    // drops all tenants at once. Bins are exempt via o1's
                    // library scoping; the protocol and server libs are not.
                    || (path.starts_with("crates/rpc/src/") && is_library_file(path))
                    || (path.starts_with("crates/serve/src/") && is_library_file(path))
            }
            Rule::O1 => is_library_file(path),
            Rule::O2 => path.starts_with("crates/telemetry/src/"),
        }
    }
}

/// Library code for `o1`: under a `src/` but not a binary target. Binaries
/// (`src/bin/`, `src/main.rs`, `examples/`) own their stdout; libraries
/// must route output through the telemetry/report layers.
fn is_library_file(path: &str) -> bool {
    let under_src = path.contains("/src/") || path.starts_with("src/");
    under_src
        && !path.contains("/src/bin/")
        && !path.ends_with("/main.rs")
        && !path.contains("examples/")
}

/// Whether the file is wholly test code (integration tests, benches).
fn is_test_tree(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/")
}

/// A simple substring pattern that must start at a word boundary.
fn find_bounded(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let boundary = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Runs `rule` over the classified lines of one file.
pub(crate) fn check(rule: Rule, path: &str, lines: &Lines) -> Vec<Violation> {
    let mut out = Vec::new();
    let skip_tests = matches!(rule, Rule::D3 | Rule::K1 | Rule::O1);
    let mut emit = |line: usize, message: String| {
        out.push(Violation {
            rule,
            path: path.to_string(),
            line,
            message,
            snippet: lines.code[line - 1].trim().to_string(),
        });
    };
    match rule {
        Rule::D1 => {
            for (i, code) in lines.code.iter().enumerate() {
                for pat in ["Instant::now", "SystemTime"] {
                    if find_bounded(code, pat) {
                        emit(
                            i + 1,
                            format!(
                                "wall-clock time (`{pat}`) in deterministic code: \
                                 use the virtual clock (`SimTime`/`EventQueue::now`) \
                                 or allowlist this path in lint.toml"
                            ),
                        );
                    }
                }
            }
        }
        Rule::D2 => {
            for (i, code) in lines.code.iter().enumerate() {
                for pat in ["thread_rng", "rand::random", "RandomState"] {
                    if find_bounded(code, pat) {
                        emit(
                            i + 1,
                            format!(
                                "ambient randomness (`{pat}`): every random draw \
                                 must come from a seeded `symphony_sim::Rng` stream"
                            ),
                        );
                    }
                }
            }
        }
        Rule::D3 => {
            for (i, code) in lines.code.iter().enumerate() {
                if skip_tests && (lines.in_test[i] || is_test_tree(path)) {
                    continue;
                }
                for pat in ["HashMap", "HashSet"] {
                    if find_bounded(code, pat) {
                        emit(
                            i + 1,
                            format!(
                                "`{pat}` in a deterministic crate: iteration order \
                                 is seeded per-process, one refactor away from a \
                                 nondeterministic trace — use `BTreeMap`/`BTreeSet` \
                                 or a sorted collect"
                            ),
                        );
                    }
                }
            }
        }
        Rule::K1 => {
            for (i, code) in lines.code.iter().enumerate() {
                if skip_tests && (lines.in_test[i] || is_test_tree(path)) {
                    continue;
                }
                for pat in [
                    ".unwrap()",
                    ".expect(",
                    "panic!",
                    "unreachable!",
                    "todo!",
                    "unimplemented!",
                ] {
                    let hit = if pat.starts_with('.') {
                        code.contains(pat)
                    } else {
                        find_bounded(code, pat)
                    };
                    if hit {
                        emit(
                            i + 1,
                            format!(
                                "`{pat}` on a kernel path: a panic here kills the \
                                 whole serving kernel — return a typed `SysError` \
                                 (or `KvError`/`ExecError`) instead",
                                pat = pat.trim_start_matches('.')
                            ),
                        );
                    }
                }
            }
        }
        Rule::O1 => {
            for (i, code) in lines.code.iter().enumerate() {
                if skip_tests && (lines.in_test[i] || is_test_tree(path)) {
                    continue;
                }
                for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                    if find_bounded(code, pat) {
                        emit(
                            i + 1,
                            format!(
                                "`{pat}` in library code: libraries must stay \
                                 silent — report through telemetry, the metrics \
                                 registry, or return values"
                            ),
                        );
                    }
                }
            }
        }
        Rule::O2 => {
            out.extend(check_span_pairs(path, lines));
        }
    }
    out
}

/// o2: every identifier ending in `Enter`/`Begin` in a telemetry source
/// file must have a sibling ending in `Exit`/`End` with the same stem, in
/// the same file. Catches the "added a span begin, forgot the end" drift
/// that leaves Perfetto tracks permanently open.
fn check_span_pairs(path: &str, lines: &Lines) -> Vec<Violation> {
    use std::collections::BTreeMap;
    let mut idents: BTreeMap<String, usize> = BTreeMap::new();
    for (i, code) in lines.code.iter().enumerate() {
        let mut cur = String::new();
        for c in code.chars().chain(std::iter::once(' ')) {
            if c.is_alphanumeric() || c == '_' {
                cur.push(c);
            } else if !cur.is_empty() {
                let ident = std::mem::take(&mut cur);
                if ident.chars().next().is_some_and(|c| c.is_uppercase()) {
                    idents.entry(ident).or_insert(i + 1);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (ident, &line) in &idents {
        let want = if let Some(stem) = ident.strip_suffix("Enter") {
            Some((format!("{stem}Exit"), "Exit"))
        } else {
            ident
                .strip_suffix("Begin")
                .map(|stem| (format!("{stem}End"), "End"))
        };
        if let Some((twin, kind)) = want {
            if !idents.contains_key(&twin) {
                out.push(Violation {
                    rule: Rule::O2,
                    path: path.to_string(),
                    line,
                    message: format!(
                        "span begin `{ident}` has no matching `{twin}`: every \
                         telemetry span must close or trace tracks stay open \
                         forever (add the `*{kind}` constant)"
                    ),
                    snippet: lines.code[line - 1].trim().to_string(),
                });
            }
        }
    }
    out
}

/// `--explain` documentation for one rule.
pub fn explain(rule: Rule) -> &'static str {
    match rule {
        Rule::D1 => {
            "d1: no wall-clock time in deterministic code\n\
             \n\
             Matches `Instant::now` and `SystemTime`.\n\
             \n\
             Every latency, timeout and trace timestamp in Symphony runs on\n\
             the virtual clock (`symphony_sim::SimTime`), which is what makes\n\
             two same-seed runs byte-identical. A single wall-clock read that\n\
             feeds a decision (batch sizing, retry backoff, trace ordering)\n\
             silently re-introduces host-speed dependence, and the golden\n\
             trace suites cannot tell you *where*. Real-time reads are only\n\
             legitimate where the point is to measure the host: bench\n\
             binaries and the baseline engine's env-gated debug timers —\n\
             those paths are allowlisted in lint.toml or carry an inline\n\
             `lint:allow(d1): reason`.\n\
             \n\
             Fix: take a `SimTime` from the event queue, or thread a time\n\
             parameter in from the kernel."
        }
        Rule::D2 => {
            "d2: no ambient randomness\n\
             \n\
             Matches `thread_rng`, `rand::random` and `RandomState`.\n\
             \n\
             Chaos tests replay fault schedules by seed; the experiment\n\
             harness reproduces every number in EXPERIMENTS.md by seed. An\n\
             OS-seeded RNG (or a `HashMap`'s per-process `RandomState`\n\
             hasher) breaks replay invisibly. All randomness must come from\n\
             `symphony_sim::Rng` streams forked from the run seed.\n\
             \n\
             Fix: accept an `&mut Rng` and draw from it."
        }
        Rule::D3 => {
            "d3: no order-unstable hash collections in deterministic crates\n\
             \n\
             Matches `HashMap`/`HashSet` in crates/{core,kvfs,gpu,sim,model,\n\
             telemetry}/src.\n\
             \n\
             `std` hash collections iterate in a per-process random order.\n\
             Even a use that only calls `len`/`contains` today is one\n\
             refactor away from a `for` loop whose order leaks into a trace,\n\
             a fingerprint, or an eviction decision — and the breakage only\n\
             shows up as a golden-trace diff with no pointer to the cause.\n\
             The rule is deliberately an over-approximation: the safe\n\
             construction is `BTreeMap`/`BTreeSet` (or a `Vec` + sort), and\n\
             a justified membership-only use can carry\n\
             `lint:allow(d3): reason`.\n\
             \n\
             Fix: use `BTreeMap`/`BTreeSet`, or collect-and-sort before\n\
             iterating."
        }
        Rule::K1 => {
            "k1: no panicking calls on kernel paths\n\
             \n\
             Matches `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,\n\
             `todo!` and `unimplemented!` in crates/core/src/{kernel,syscall,\n\
             sched,resilience}.rs, crates/kvfs/src and crates/gpu/src.\n\
             \n\
             A LIP is an untrusted program; the kernel is the operating\n\
             system under thousands of them. Any panic reachable from a\n\
             syscall argument or an unexpected interleaving kills every\n\
             in-flight program at once. Kernel paths must degrade to typed\n\
             errors (`SysError`, `KvError`, `ExecError`) that the scheduler\n\
             and the program can handle. Truly unreachable invariants can be\n\
             stated with `debug_assert!` (free in release builds) plus a\n\
             graceful fallback, or carry `lint:allow(k1): reason` naming the\n\
             invariant.\n\
             \n\
             Fix: `ok_or(SysError::…)?`, let-else with a typed error reply,\n\
             or `debug_assert!` + defensive return."
        }
        Rule::O1 => {
            "o1: no printing from library crates\n\
             \n\
             Matches `println!`, `eprintln!`, `print!`, `eprint!` and `dbg!`\n\
             in library source files (under src/, excluding src/bin/ and\n\
             examples).\n\
             \n\
             Library output corrupts the experiment reports that bench\n\
             binaries write to stdout, and un-gated debug prints in the\n\
             kernel would serialize the event loop on terminal I/O. Output\n\
             belongs to binaries, the telemetry bus, or the report writer\n\
             (crates/bench is allowlisted in lint.toml — it *is* the report\n\
             layer).\n\
             \n\
             Fix: return the data, emit a telemetry event, or move the print\n\
             into the binary."
        }
        Rule::O2 => {
            "o2: telemetry span begins must pair with ends\n\
             \n\
             In crates/telemetry/src, every identifier ending in `Enter` or\n\
             `Begin` must have a same-stem sibling ending in `Exit`/`End` in\n\
             the same file.\n\
             \n\
             The Chrome trace exporter emits `ph:\"B\"`/`ph:\"E\"` pairs; a\n\
             begin without an end leaves the track open to the end of time\n\
             and breaks the CI assertion that begins == ends. Catch the\n\
             drift at the type level, when the variant is added, not when a\n\
             Perfetto load looks wrong.\n\
             \n\
             Fix: add the matching `*Exit`/`*End` variant (and emit it)."
        }
    }
}
