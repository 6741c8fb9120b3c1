//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the harness's own files, around the calls into
//! each layer; nothing inside the program under test is instrumented. The
//! traced pass is single-threaded, so spans nest strictly and a stack gives
//! every span its parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `op` ties the spans of one operation together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Time `f` as a span named `name`, a child of whichever span is open.
    /// `f` receives the tracer so it can record child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Time a leaf call.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// durations of its direct children (children of one parent never overlap
/// in a single-threaded trace).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations in nanoseconds grouped by span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        out.entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
    }
    out
}

/// Write one JSON object per span, with its self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let own = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(own) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, parent, span.op, span.name, span.start_ns, span.end_ns, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 with children 10..40 and 50..70; the first child has a
        // grandchild 15..25 that must not be subtracted from the root twice.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_the_operation() {
        let mut t = Tracer::new();
        t.set_op(7);
        let value = t.span("outer", |t| t.leaf("inner", || 1) + t.leaf("inner", || 2));
        assert_eq!(value, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert_eq!(durations_by_name(spans)["inner"].len(), 2);
    }
}
