//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own wrappers around calls into each
//! layer's public functions (nothing inside the library is instrumented),
//! kept in memory while the workload runs, and written out as JSON lines
//! when it ends.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.streaming` (module names of the library).
    pub layer: &'static str,
    /// Id of the enclosing pass, engine run or stream that caused the call.
    pub parent: u64,
    /// Position of the call within its parent (chunk or frame index).
    pub seq: u64,
    /// Start and end, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units handled by the call (samples, packets, …).
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span sink. A disabled recorder drops every span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the recorder's origin to `t` (the time base of
    /// [`Span::start_ns`]).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &self,
        layer: &'static str,
        parent: u64,
        seq: u64,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            layer,
            parent,
            seq,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            count,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Times `f` as one span of `layer`.
    pub fn time<T>(
        &self,
        layer: &'static str,
        parent: u64,
        seq: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, parent, seq, start, Instant::now(), count);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"parent\":{},\"seq\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.layer, s.parent, s.seq, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Aggregates over the spans of one layer.
pub struct LayerSpans<'a> {
    spans: Vec<&'a Span>,
}

impl<'a> LayerSpans<'a> {
    pub fn of(spans: &'a [Span], layer: &str) -> Self {
        LayerSpans {
            spans: spans.iter().filter(|s| s.layer == layer).collect(),
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.spans.iter().map(|s| s.secs()).sum()
    }

    pub fn calls(&self) -> usize {
        self.spans.len()
    }

    pub fn count(&self) -> u64 {
        self.spans.iter().map(|s| s.count).sum()
    }

    pub fn durations_us(&self) -> Vec<f64> {
        self.spans.iter().map(|s| s.secs() * 1e6).collect()
    }

    /// Busy seconds per parent (pass, run or stream), in parent order.
    pub fn busy_by_parent(&self) -> Vec<(u64, f64)> {
        let mut by: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in &self.spans {
            *by.entry(s.parent).or_default() += s.secs();
        }
        by.into_iter().collect()
    }
}
