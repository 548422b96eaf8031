//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function in
//! a named span. Spans nest (a span opened inside another records it as its
//! parent), stay in memory while the workload runs, and are written once at
//! exit as Chrome trace-event JSON (`chrome://tracing`, Perfetto). With
//! tracing off a span is a plain call: no clock read, no allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<crate>.<layer>` (e.g. `netsim.flows`).
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Inclusive duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder; disabled tracers record nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: RefCell::default(), open: RefCell::default() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_s = self.origin.elapsed().as_secs_f64();
            spans.push(Span { name, start_s, end_s: start_s, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Number of spans recorded so far; pass it to the `*_since` queries to
    /// look only at spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Inclusive seconds and call count of the spans named `name` recorded
    /// since `mark`.
    pub fn busy_since(&self, mark: usize, name: &str) -> (f64, usize) {
        let spans = self.spans.borrow();
        spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.duration_s(), n + 1))
    }

    /// Seconds covered by the top-level spans (no parent) recorded since
    /// `mark`: the part of a measured phase the named layers account for.
    pub fn top_level_since(&self, mark: usize) -> f64 {
        self.spans.borrow()[mark..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_s)
            .sum()
    }

    /// Self time per layer over every span: each span's duration minus the
    /// part of it that its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_s) {
            *out.entry(s.name).or_insert(0.0) += (s.duration_s() - c).max(0.0);
        }
        out
    }

    /// Every span as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds, the parent's index in `args`).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_s * 1e6,
                s.duration_s() * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let (outer_s, calls) = t.busy_since(0, "outer");
        let (inner_s, _) = t.busy_since(0, "inner");
        assert_eq!(calls, 1);
        assert!(outer_s >= inner_s && inner_s > 0.0);
        let selfs = t.self_times();
        assert!((selfs["outer"] - (outer_s - inner_s)).abs() < 1e-9);
        assert_eq!(t.top_level_since(0), outer_s);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert_eq!(t.mark(), 0);
    }
}
