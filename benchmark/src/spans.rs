//! The benchmark's own host spans: one around every call into a layer
//! (each repetition, ladder point, traced/checked run, probe and kernel).
//! Kept in memory, written as Chrome trace-event JSON when the run ends.
//! A span's duration *is* the measurement the benchmark reports for it.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose time zero is `origin` (process start).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        #[allow(clippy::cast_precision_loss)]
        let secs = (end_ns - start_ns) as f64 / 1e9;
        (out, secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps, the parent's index in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                crate::json::string(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut s = Spans::new(Instant::now());
        let (v, outer) = s.scope("outer", |s| {
            let ((), inner) = s.scope("inner", |_| std::hint::black_box(()));
            assert!(inner >= 0.0);
            7
        });
        assert_eq!(v, 7);
        assert!(outer >= 0.0);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[0].parent, None);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
        let parsed = crate::adapter::json_parse(&s.chrome_trace()).expect("valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_array().unwrap().len(),
            2
        );
    }
}
