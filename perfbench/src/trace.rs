//! The benchmark's own span recorder. Spans wrap the calls the
//! benchmark makes into each layer's public functions; nothing inside
//! the program is instrumented. A span's self time is its duration
//! minus the time its child spans cover, so the self times of every
//! span under a root add up to the root's duration exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; aggregates cover every span.
const KEEP_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Closed {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    depth: usize,
}

/// Calls, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean total time per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    kept: Vec<Closed>,
    aggs: BTreeMap<&'static str, Agg>,
    /// Duration of the span closed last, in nanoseconds.
    pub last_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            kept: Vec::new(),
            aggs: BTreeMap::new(),
            last_ns: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest
    /// under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack is balanced by construction");
        let dur_ns = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.calls += 1;
        agg.total_ns += dur_ns;
        agg.self_ns += dur_ns.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP_SPANS {
            self.kept.push(Closed {
                name: open.name,
                start_ns: open.start_ns,
                dur_ns,
                depth: self.stack.len(),
            });
        }
        self.last_ns = dur_ns;
        out
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// Chrome `trace_event` JSON of the kept spans (one thread; depth
    /// carried as an argument).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"depth\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.depth
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
