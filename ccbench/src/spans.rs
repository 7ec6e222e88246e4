//! Host-time spans recorded around the benchmark's calls into each
//! layer, their self times, and their export as a Chrome trace.

use ccraft_telemetry::chrome_trace::{ChromeTrace, TraceEvent};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The layer it belongs to (`workloads`, `core`, `sim`, `harness`,
    /// `serve`) or `bench` for the benchmark's own grouping spans.
    pub cat: &'static str,
    /// Chrome-trace lane.
    pub tid: u32,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span, when there is one.
    pub parent: Option<usize>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Records spans on the benchmark's main lane (lane 1), nesting each
/// new span inside the innermost open one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, cat: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            cat,
            tid: 1,
            start_ns: self.ns_since_origin(Instant::now()),
            dur_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it) and returns
    /// its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.ns_since_origin(Instant::now());
        while let Some(top) = self.open.pop() {
            let span = &mut self.spans[top];
            span.dur_ns = now.saturating_sub(span.start_ns);
            if top == id {
                break;
            }
        }
        self.spans[id].dur_ns
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &str, cat: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, cat);
        let out = f();
        (out, self.end(id))
    }

    /// Adds a span measured elsewhere (on a worker thread), as a child of
    /// the innermost open span.
    pub fn add(&mut self, name: &str, cat: &'static str, tid: u32, start: Instant, end: Instant) {
        let start_ns = self.ns_since_origin(start);
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            tid,
            start_ns,
            dur_ns: self.ns_since_origin(end).saturating_sub(start_ns),
            parent: self.open.last().copied(),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let (lo, hi) = (
                s.start_ns.max(parent.start_ns),
                s.end_ns().min(parent.end_ns()),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns.saturating_sub(covered)
        })
        .collect()
}

/// Renders the spans as a Chrome trace (microsecond timestamps), each
/// event carrying its self time.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut trace = ChromeTrace::new(0);
    trace.name_track(1, "ccbench");
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.tid).filter(|&t| t != 1).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        trace.name_track(lane, &format!("engine worker {}", lane - 1));
    }
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        trace.complete(TraceEvent {
            name: s.name.clone(),
            cat: s.cat.to_string(),
            tid: s.tid,
            ts: s.start_ns / 1000,
            dur: s.dur_ns / 1000,
            args: vec![("self_us".to_string(), self_ns as f64 / 1000.0)],
        });
    }
    trace.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, dur_ns: u64, parent: Option<usize>, cat: &'static str) -> Span {
        Span {
            name: "s".to_string(),
            cat,
            tid: 1,
            start_ns,
            dur_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, 100, None, "harness"),
            // Two overlapping children cover [10, 50) = 40 ns.
            span(10, 30, Some(0), "sim"),
            span(20, 30, Some(0), "sim"),
            // A child running past its parent counts only inside it.
            span(90, 50, Some(0), "core"),
            // A grandchild is not subtracted from the grandparent.
            span(12, 5, Some(1), "workloads"),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t, vec![100 - 40 - 10, 30 - 5, 30, 50, 5]);
    }

    #[test]
    fn tracer_nests_and_closes_inner_spans() {
        let mut t = Tracer::default();
        let outer = t.begin("outer", "bench");
        let inner = t.begin("inner", "sim");
        let _left_open = t.begin("left-open", "core");
        t.end(inner);
        let ((), _) = t.time("after", "harness", || ());
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(inner));
        assert_eq!(s[3].parent, Some(outer));
        assert!(s.iter().all(|x| x.end_ns() <= s[0].end_ns()));
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut t = Tracer::default();
        let ((), _) = t.time("generate", "workloads", || ());
        let now = Instant::now();
        t.add("cell", "harness", 2, now, now);
        let json = chrome_trace(t.spans());
        let v = crate::report::parse_json(&json).unwrap();
        let events = match v.get("traceEvents") {
            Some(serde::Value::Array(e)) => e.len(),
            other => panic!("no traceEvents: {other:?}"),
        };
        // Two spans plus two lane names.
        assert_eq!(events, 4);
    }
}
