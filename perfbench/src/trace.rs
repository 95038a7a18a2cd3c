//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span's self time is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `training.fit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request or one input.
    pub request: u64,
}

/// Records nested spans; the stack of open spans gives each new span its
/// parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` that belongs to `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already measured interval as a span (used for intervals
    /// observed on another thread, such as a load-generator round trip).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in seconds, aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, &c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c) as f64 / 1e9)
            .collect()
    }

    /// Self time summed per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Durations of the spans named `name`, in seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The spans as JSON lines (id, name, start, end, parent, request),
    /// numbered from `first_id` so several tracers can share one file.
    pub fn to_jsonl(&self, first_id: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |p| (p + first_id).to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                i + first_id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", 7, |_| std::thread::sleep(Duration::from_millis(6)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let self_t = t.self_time_by_name();
        assert!(self_t["inner"] >= 0.006);
        assert!(self_t["outer"] >= 0.004 && self_t["outer"] < t.durations("outer")[0] - 0.005);
        let sum: f64 = self_t.values().sum();
        assert!(
            (sum - t.durations("outer")[0]).abs() < 1e-9,
            "self times partition the root span"
        );
        let jsonl = t.to_jsonl(5);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("\"id\":6") && l.contains("\"parent\":5")));
    }
}
