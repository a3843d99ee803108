//! In-memory spans around calls into a layer of the program under test.
//!
//! Spans are recorded from the benchmark's side of the public API (spans
//! inside the program are a later change), kept in memory, and written as
//! JSON lines when the run ends. A disabled trace records nothing, so the
//! untraced run pays one branch per call.

use amos_serve::json::ObjectBuilder;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it; spans of one
/// operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A trace whose clock starts at `origin`, so traces recorded on several
    /// threads share one time axis.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Trace {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans opened
    /// by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Appends the closed spans of `other` (recorded on another thread
    /// against the same origin), keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the first span recorded after this call — the mark a pass
    /// takes so its spans can be summed on their own.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration in seconds of the spans named `name` recorded since
    /// `mark`.
    pub fn seconds_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Writes one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let mut line = ObjectBuilder::new()
                .u64("id", i as u64)
                .str("name", span.name)
                .u64("start_ns", span.start_ns)
                .u64("end_ns", span.end_ns)
                .u64("self_ns", self_ns)
                .u64("op", span.op);
            if let Some(parent) = span.parent {
                line = line.u64("parent", parent as u64);
            }
            writeln!(out, "{}", line.finish())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (siblings recorded
/// on different threads) are counted once, and a child is clipped to its
/// parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children.entry(parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&i) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, 100, None),    // root: children cover 10..40 and 50..70
            span(10, 40, Some(0)), // child with its own child
            span(20, 30, Some(1)), // grandchild: counts against 1, not 0
            span(50, 70, Some(0)), // sibling
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_siblings_are_counted_once_and_clipped() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 180, Some(0)), // overlaps the previous by 10
            span(190, 250, Some(0)), // runs past the parent: clipped to 200
        ];
        // covered: 110..180 (70) + 190..200 (10)
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn spans_nest_by_call_structure_and_share_the_op() {
        let mut t = Trace::new(true, Instant::now());
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|s| s.op == 7));
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Trace::new(true, origin);
        a.span("a", 0, |_| ());
        let mut b = Trace::new(true, origin);
        b.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
