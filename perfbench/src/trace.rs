//! The benchmark's own span recorder. Spans are recorded in the
//! benchmark's code around each call into a layer's public function —
//! name, start, end, parent and request id — kept in memory, and written
//! out once the run ends. A layer's self time is its span minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the parent).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.nanos().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_micros_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_nanos()) {
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, (s, own)) in self.spans.iter().zip(self.self_nanos()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let r = recorder(vec![
            span("call", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("kernel", 30, 90, Some(0)),
            span("probe", 40, 50, Some(2)),
        ]);
        assert_eq!(r.self_nanos(), vec![30, 10, 50, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let r = recorder(vec![
            span("call", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ]);
        // Covered: 100..160 and 190..200 → 70 of 100.
        assert_eq!(r.self_nanos()[0], 30);
    }

    #[test]
    fn spans_nest_and_group_by_name() {
        let mut r = Recorder::new();
        let root = r.begin("request", None, 7);
        let v = r.span("inner", Some(root), 7, || 41 + 1);
        r.end(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].start <= r.spans()[1].start);
        assert!(r.spans()[1].end <= r.spans()[0].end);
        let by_name = r.self_micros_by_name();
        assert_eq!(by_name["inner"].len(), 1);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
    }
}
