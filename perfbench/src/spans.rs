//! In-memory span log for the traced run.
//!
//! The benchmark records one span around each of its own calls into
//! the simulator (`Machine::new`, `MgsApp::execute`, every probe call),
//! keeps them in memory, and writes them out once at the end as a
//! Chrome/Perfetto trace through `mgs_obs::PerfettoTrace`.

use mgs_obs::PerfettoTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; the part before the first `.` names the layer.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Integer arguments shown with the span.
    pub args: Vec<(&'static str, u64)>,
}

/// Spans of one benchmark run, with a stack of open spans: a span
/// opened while another is open becomes its child.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The log's epoch, for code that times calls on other threads and
    /// adds them later with [`child`](SpanLog::child).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Host nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// The innermost open span.
    pub fn current(&self) -> usize {
        *self.open.last().expect("a span is open")
    }

    /// Attaches an integer argument to span `id`.
    pub fn arg(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].args.push((key, value));
    }

    /// Adds a completed span under `parent` (a call timed elsewhere).
    pub fn child(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns: end_ns.max(start_ns),
            args: Vec::new(),
        });
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total and self seconds per span name, for the printed summary.
    pub fn by_name(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.2 += own as f64 * 1e-9;
        }
        out
    }

    /// The log as Chrome/Perfetto JSON: one track, spans nested by
    /// time (1 µs resolution), each carrying its self time.
    pub fn to_perfetto(&self, title: &str) -> String {
        let mut t = PerfettoTrace::new();
        t.process_name(1, title);
        t.thread_name(1, 1, "benchmark calls");
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let mut args: Vec<(&str, _)> = vec![("self_ns", own.into())];
            args.extend(s.args.iter().map(|&(k, v)| (k, v.into())));
            t.complete(
                1,
                1,
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
                &s.name,
                &args,
            );
        }
        t.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut log = SpanLog::new();
        let root = log.begin("root");
        log.end(root);
        log.spans[root].start_ns = 0;
        log.spans[root].end_ns = 100;
        log.child(root, "a", 10, 40);
        log.child(root, "b", 30, 50); // overlaps `a`
        log.child(root, "c", 90, 120); // runs past the parent
        assert_eq!(log.self_ns()[root], 100 - 40 - 10);
    }

    #[test]
    fn nested_spans_take_the_open_parent() {
        let mut log = SpanLog::new();
        log.span("outer", |log| log.span("inner", |_| ()));
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.to_perfetto("t").contains("\"name\":\"inner\""));
    }
}
