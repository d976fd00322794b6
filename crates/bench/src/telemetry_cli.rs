//! Shared CLI plumbing for the experiment binaries: `--smoke`,
//! `--trace <path>`, `--metrics`, and the designated-run telemetry export.
//!
//! Telemetry is opt-in per invocation and never changes experiment
//! results: the flags only decide whether the kernel's event bus records
//! (for a Perfetto export) and whether the unified metrics snapshot is
//! folded into the JSON report. A run with and without the flags produces
//! the same tables and the same `results` payload. Every binary parses the
//! same way via [`ExpArgs::from_args`], and the one-designated-run export
//! dance lives in [`TelemetryOpts::export_designated`] instead of being
//! copy-pasted per experiment.

use std::io::Write as _;
use std::path::Path;

use symphony::{Kernel, MetricsSnapshot};

/// Common experiment arguments: the CI smoke switch plus telemetry flags.
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    /// `--smoke`: run the tiny-scale CI variant.
    pub smoke: bool,
    /// `--trace` / `--metrics` options.
    pub telemetry: TelemetryOpts,
}

impl ExpArgs {
    /// Parses from `std::env::args()`, ignoring unrelated arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExpArgs::from_slice(&args)
    }

    /// Parses from an explicit argument slice (testable form).
    pub fn from_slice(args: &[String]) -> Self {
        ExpArgs {
            smoke: args.iter().any(|a| a == "--smoke"),
            telemetry: TelemetryOpts::from_slice(args),
        }
    }
}

/// Telemetry options parsed from the process arguments.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOpts {
    /// `--trace <path>`: write a Chrome trace-event JSON file of the
    /// designated run to `path`.
    pub trace_path: Option<String>,
    /// `--metrics`: fold a metrics snapshot of the designated run into the
    /// JSON report.
    pub metrics: bool,
}

impl TelemetryOpts {
    /// Parses `--trace <path>` (or `--trace=<path>`) and `--metrics` from
    /// an argument slice, ignoring unrelated arguments.
    pub fn from_slice(args: &[String]) -> Self {
        let mut opts = TelemetryOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--trace" => {
                    if let Some(path) = args.get(i + 1) {
                        opts.trace_path = Some(path.clone());
                        i += 1;
                    } else {
                        eprintln!("warn: --trace needs a path argument; ignoring");
                    }
                }
                "--metrics" => opts.metrics = true,
                a => {
                    if let Some(path) = a.strip_prefix("--trace=") {
                        opts.trace_path = Some(path.to_string());
                    }
                }
            }
            i += 1;
        }
        opts
    }

    /// Whether the kernel of the designated run should record events.
    pub fn wants_trace(&self) -> bool {
        self.trace_path.is_some()
    }

    /// Whether any telemetry output was requested.
    pub fn enabled(&self) -> bool {
        self.trace_path.is_some() || self.metrics
    }

    /// Writes `trace_json` to the `--trace` path, if one was given.
    pub fn write_trace(&self, trace_json: &str) {
        let Some(path) = &self.trace_path else {
            return;
        };
        let path = Path::new(path);
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("warn: cannot create {}: {e}", dir.display());
                    return;
                }
            }
        }
        match std::fs::File::create(path) {
            Ok(mut f) => {
                if let Err(e) = f.write_all(trace_json.as_bytes()) {
                    eprintln!("warn: write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("warn: create {}: {e}", path.display()),
        }
    }

    /// Whether a run's kernel should record telemetry events: only the
    /// designated run, and only when `--trace` asked for an export.
    pub fn record(&self, designated: bool) -> bool {
        designated && self.wants_trace()
    }

    /// The per-experiment designated-run export: writes the Chrome trace
    /// when `--trace` was given and hands back the metrics snapshot for
    /// report folding. Non-designated runs export nothing.
    pub fn export_designated(&self, kernel: &Kernel, designated: bool) -> Option<MetricsSnapshot> {
        if !designated {
            return None;
        }
        if self.wants_trace() {
            self.write_trace(&kernel.export_chrome_trace());
        }
        Some(kernel.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_trace_and_metrics() {
        let o = TelemetryOpts::from_slice(&strs(&["--trace", "out.json", "--metrics"]));
        assert_eq!(o.trace_path.as_deref(), Some("out.json"));
        assert!(o.metrics);
        assert!(o.enabled());
        assert!(o.wants_trace());
    }

    #[test]
    fn parses_equals_form_and_ignores_unknown() {
        let o = TelemetryOpts::from_slice(&strs(&["--fast", "--trace=t.json", "x"]));
        assert_eq!(o.trace_path.as_deref(), Some("t.json"));
        assert!(!o.metrics);
    }

    #[test]
    fn default_is_disabled() {
        let o = TelemetryOpts::from_slice(&[]);
        assert!(!o.enabled());
        assert!(o.trace_path.is_none());
        assert!(!o.record(true));
    }

    #[test]
    fn exp_args_parse_smoke_alongside_telemetry() {
        let a = ExpArgs::from_slice(&strs(&["--smoke", "--trace", "t.json"]));
        assert!(a.smoke);
        assert!(a.telemetry.record(true));
        assert!(!a.telemetry.record(false));
        let b = ExpArgs::from_slice(&strs(&["--metrics"]));
        assert!(!b.smoke);
        assert!(b.telemetry.metrics);
    }
}
