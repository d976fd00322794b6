//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is recorded around every call the benchmark makes into a
//! layer's public function (`ServerCore::feed`, `Kernel::run`,
//! `parse::parse`, a frame encode, ...). Spans never enter program code;
//! they nest by call order on the benchmark's single thread. A layer's
//! *self time* is the duration of its spans minus the time their direct
//! children cover, and the root span's self time is `other`, so the self
//! times of all layers plus `other` sum exactly to the root's duration.
//!
//! Recording is off unless the run is traced: a disabled [`Tracer`] keeps
//! no state and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, `layer.operation` (the layer is the part before `.`).
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Session (program) the call served, 0 when it served many.
    pub session: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a no-op unless created with [`Tracer::on`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`], closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            epoch: Some(Instant::now()),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, session: u64) -> Open {
        let Some(epoch) = self.epoch else {
            return Open(None);
        };
        let idx = self.spans.len();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            session,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (and any left open
    /// inside it).
    pub fn end(&mut self, span: Open) {
        let (Some(epoch), Some(idx)) = (self.epoch, span.0) else {
            return;
        };
        let now = epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, session);
        let r = f();
        self.end(s);
        r
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.session, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, with root spans' self time under `other`. The
/// values sum to the total duration of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = if s.parent.is_none() {
            "other"
        } else {
            s.layer()
        };
        *out.entry(layer).or_insert(0) += s.dur().saturating_sub(covered[i]);
    }
    out
}

/// Total duration of the root spans.
pub fn root_total(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            session: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        // run [0,100) ⊃ serve.pump [10,60) ⊃ core.run [20,50); rpc.decode [70,75).
        let spans = vec![
            span("run", None, 0, 100),
            span("serve.pump", Some(0), 10, 60),
            span("core.run", Some(1), 20, 50),
            span("rpc.decode", Some(0), 70, 75),
        ];
        let t = self_times(&spans);
        assert_eq!(t["serve"], 20);
        assert_eq!(t["core"], 30);
        assert_eq!(t["rpc"], 5);
        assert_eq!(t["other"], 45);
        assert_eq!(t.values().sum::<u64>(), root_total(&spans));
    }

    #[test]
    fn same_layer_nesting_is_not_double_counted() {
        let spans = vec![
            span("run", None, 0, 40),
            span("serve.feed", Some(0), 0, 30),
            span("serve.admit", Some(1), 5, 25),
        ];
        let t = self_times(&spans);
        assert_eq!(t["serve"], 30);
        assert_eq!(t["other"], 10);
    }

    #[test]
    fn recorded_spans_partition_the_root() {
        let mut tr = Tracer::on();
        let root = tr.begin("run", 0);
        for s in 0..50u64 {
            tr.time("rpc.encode", s, || std::hint::black_box(s * 3));
            let feed = tr.begin("serve.feed", s);
            tr.time("lipscript.parse", s, || std::hint::black_box(s + 1));
            tr.end(feed);
        }
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 1 + 50 * 3);
        assert!(spans.iter().skip(1).all(|s| s.parent.is_some()));
        let t = self_times(spans);
        assert_eq!(t.values().sum::<u64>(), root_total(spans));
        assert_eq!(
            t.keys().copied().collect::<Vec<_>>(),
            ["lipscript", "other", "rpc", "serve"]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("run", 0);
        tr.time("rpc.encode", 1, || ());
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert!(!tr.enabled());
    }
}
