//! In-memory spans recorded around calls into the netanom crates.
//!
//! A span has a name, a parent (the span open when it started), a start
//! and an end. A span's self time is its duration minus its direct
//! children's. Spans stay in memory and are written out once, at the end
//! of a run, as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Span and counter recorder for one thread.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(base: Instant) -> Self {
        Tracer {
            base,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.base.elapsed();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.base.elapsed();
        out
    }

    /// Add `by` to a counter.
    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counters.entry(name).or_insert(0.0) += by;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total (inclusive) seconds of every span named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Longest single span named `name`, in milliseconds.
    pub fn max_ms(&self, name: &str) -> f64 {
        self.durations(name)
            .iter()
            .fold(0.0, |a, &d| a.max(d * 1e3))
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Sum of every span's self time, in seconds: the part of the traced
    /// wall the layer spans account for.
    pub fn self_total_s(&self) -> f64 {
        let mut self_s: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_s[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        self_s.iter().sum()
    }

    /// The spans as JSON lines, tagged with `thread`.
    pub fn to_jsonl(&self, thread: &str, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\": \"{thread}\", \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
            );
        }
    }
}
