//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and request id. Spans
//! stay in memory while a workload runs and are written out as JSON
//! lines when it ends. A layer's self time is the duration of its spans
//! minus the part covered by their direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary, e.g. `ckt.read_network`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects nested spans; `enter`/`exit` must pair like brackets.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a span when there is a tracer.
pub fn span<R>(
    t: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match t {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

/// Self time per span name, in nanoseconds, over the spans `keep`
/// selects; children are subtracted from their own parent only.
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(s) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("check", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
            span("request", 200, 250, None),
        ];
        let t = self_times(&spans, |_| true);
        assert_eq!(t["request"], 100 - 20 - 50 + 50);
        assert_eq!(t["decode"], 20);
        assert_eq!(t["check"], 50 - 10);
        assert_eq!(t["inner"], 10);
        // Self times partition the top-level time exactly.
        assert_eq!(t.values().sum::<u64>(), 150);
        let only_check = self_times(&spans, |s| s.name == "check");
        assert_eq!(only_check.len(), 1);
    }

    #[test]
    fn tracer_nests_and_closes_in_order() {
        let mut t = Tracer::default();
        let outer = t.enter("outer", 7);
        let v = t.span("inner", 7, || 41 + 1);
        t.exit(outer);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].request, 7);
    }
}
