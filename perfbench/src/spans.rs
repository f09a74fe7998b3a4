//! Benchmark-side spans for the layer walk: `{name, start, end, parent,
//! trace_id}` records kept in memory, written out when the run ends.
//! The router's code is not touched — each span wraps a call *into* it.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.  `parent` is the index of the enclosing span plus
/// one, 0 for a root; spans of one walk step share `trace_id`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub trace_id: u32,
}

/// An open span, closed by [`SpanLog::end`].
#[must_use]
pub struct Open(Option<usize>);

/// The in-memory span store.  Recording can be switched off, so the walk
/// can run most steps bare and trace a sample of them.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, outermost first.
    stack: Vec<usize>,
    pub recording: bool,
    trace_id: u32,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording: false,
            trace_id: 0,
        }
    }
}

impl SpanLog {
    /// Spans opened from now on belong to `trace_id`.
    pub fn set_trace(&mut self, trace_id: u32) {
        self.trace_id = trace_id;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().map_or(0, |p| *p as u32 + 1),
            trace_id: self.trace_id,
        });
        self.stack.push(idx);
        // Read the clock last, so the bookkeeping above lands in the
        // parent's self time rather than in this span.
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time by `(root name, span name)`: which layer the time
    /// went to, per kind of step.
    pub fn self_by_root(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = s;
            while root.parent != 0 {
                root = &self.spans[root.parent as usize - 1];
            }
            *out.entry((root.name, s.name)).or_insert(0) += own[i];
        }
        out
    }

    /// Write the spans as one JSON document.
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since walk start\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"trace_id\":{}}}{sep}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.trace_id
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut log = SpanLog {
            recording: true,
            ..Default::default()
        };
        log.set_trace(7);
        let root = log.begin("step");
        let a = log.begin("a");
        let a1 = log.begin("a.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.end(a1);
        log.end(a);
        let b = log.begin("b");
        std::thread::sleep(std::time::Duration::from_millis(1));
        log.end(b);
        log.end(root);

        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [0, 1, 2, 1]
        );
        assert!(spans.iter().all(|s| s.trace_id == 7));
        let own = log.self_times();
        let root_dur = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            own.iter().sum::<u64>(),
            root_dur,
            "self times partition the root"
        );
        assert!(own[2] >= 2_000_000 && own[3] >= 1_000_000);
        assert!(own[1] < 1_000_000, "a's time is almost all its child's");

        let by = log.self_by_root();
        assert_eq!(by.len(), 4);
        assert_eq!(by[&("step", "a.inner")], own[2]);

        let mut buf = Vec::new();
        log.write_json(&mut buf, "w", 3).unwrap();
        let doc = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let out = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[2].get("parent").and_then(Json::as_f64), Some(2.0));
        assert_eq!(out[2].get("name").and_then(Json::as_str), Some("a.inner"));
    }

    #[test]
    fn nothing_is_kept_while_not_recording() {
        let mut log = SpanLog::default();
        let s = log.begin("x");
        log.end(s);
        assert!(log.spans().is_empty());
    }
}
