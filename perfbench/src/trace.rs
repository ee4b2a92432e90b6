//! Spans the benchmark records around each call into a layer.
//!
//! Spans stay in memory while the run measures and are written out once
//! it ends. With tracing off, `open`/`close` return at once, so untraced
//! repetitions pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval on the benchmark's clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Engine shard that ran the phase (fleet execute spans only).
    pub shard: Option<u32>,
    /// Fleet round the phase belongs to (imported engine spans only).
    pub round: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            shard: None,
            round: None,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Adds an already-timed span (the fleet engine's host-clock phases).
    pub fn record(&mut self, span: Span) {
        if self.on {
            self.spans.push(span);
        }
    }

    /// Indices of the spans directly under `parent`.
    pub fn children(&self, parent: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&i| self.spans[i].parent == Some(parent))
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// shard, round}` objects.
    pub fn to_json(&self) -> String {
        let mut o = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push_str(",\n");
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                o,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"shard\":{},\"round\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.shard.map(u64::from)),
                opt(s.round),
            );
        }
        o.push(']');
        o
    }
}
