//! Experiment harness: regenerates every figure in the paper plus the
//! extension experiments listed in `DESIGN.md`.
//!
//! Each `src/bin/` binary prints the rows/series of one figure or
//! experiment and writes a JSON dump next to it (under `results/`) so
//! `EXPERIMENTS.md` numbers are regenerable.

pub mod fig3;
pub mod report;
pub mod telemetry_cli;

pub use report::{write_json, write_json_with_metrics, Table};
pub use telemetry_cli::{ExpArgs, TelemetryOpts};

/// Deterministic synthetic token stream (stands in for tokenised text):
/// `n` `(token, position)` pairs from `start_pos`.
pub fn tokens(seed: usize, n: usize, start_pos: u32) -> Vec<(u32, u32)> {
    (0..n)
        .map(|j| (1 + ((seed * 31 + j * 7) % 800) as u32, start_pos + j as u32))
        .collect()
}

/// Nanoseconds to milliseconds; `NaN` when there is no sample.
pub fn ms(ns: Option<u64>) -> f64 {
    ns.map(|n| n as f64 / 1e6).unwrap_or(f64::NAN)
}
