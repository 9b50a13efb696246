//! In-memory spans around the driver's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, query_id}`; spans of one
//! query share its id. Nothing is written until the run ends
//! ([`Tracer::write_json`]). A layer's *self time* is its span minus the
//! part its children cover, so the self times under one root add up to
//! the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query_id: u32,
}

/// Collects spans from one thread; nesting follows call order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, query_id: u32) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            query_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Times `f` as one span; returns its result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, query_id);
        let out = f();
        (out, self.end(id))
    }

    /// Records an already-measured interval (times the program reports
    /// about itself, e.g. a server answer's queue wait) as a child of the
    /// innermost open span, laid out from `start_ns`.
    pub fn record(&mut self, name: &'static str, query_id: u32, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
            query_id,
        });
    }

    /// Start of span `id`, for laying out [`Self::record`]ed children.
    pub fn start_of(&self, id: u32) -> u64 {
        self.spans[id as usize].start_ns
    }

    /// Appends the spans of another thread's tracer, keeping their
    /// nesting (clocks of tracers started together are comparable to
    /// within the gap between their creation).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the children's durations.
    /// Saturates at zero where reported child times overrun the parent
    /// by clock granularity.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Totals by span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// Checks the nesting: every child lies inside its parent and shares
    /// its query id. Returns the number of spans checked.
    pub fn check_nesting(&self) -> Result<usize, String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                if s.start_ns < parent.start_ns || s.query_id != parent.query_id {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(self.spans.len())
    }

    /// Writes `{"spans": [...]}` to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"query_id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.query_id,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin("query", 7);
        let base = t.start_of(root);
        t.record("parse", 7, base, 100);
        t.record("evaluate", 7, base + 100, 650);
        t.end(root);
        // Pin the root so the arithmetic is exact.
        t.spans[root as usize].end_ns = base + 1000;
        assert_eq!(t.self_times(), vec![250, 100, 650]);
        let totals = t.totals();
        assert_eq!(totals["query"].self_ns, 250);
        assert_eq!(totals["query"].total_ns, 1000);
        let selves: u64 = totals.values().map(|n| n.self_ns).sum();
        assert_eq!(selves, 1000, "self times add up to the root");
        assert_eq!(t.check_nesting(), Ok(3));
    }

    #[test]
    fn nesting_follows_call_order() {
        let mut t = Tracer::new();
        let (_, outer) = t.time("outer", 1, || std::hint::black_box(3));
        let q = t.begin("query", 2);
        let ((), inner) = t.time("inner", 2, || ());
        let total = t.end(q);
        assert!(inner <= total);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[2].parent, Some(q));
        assert!(t.self_times().iter().all(|&ns| ns <= total.max(outer)));
        assert_eq!(t.check_nesting(), Ok(3));

        let mut other = Tracer::new();
        let q = other.begin("query", 9);
        other.time("inner", 9, || ());
        other.end(q);
        t.merge(other);
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.check_nesting(), Ok(5));
        assert_eq!(t.totals()["inner"].count, 2);
    }
}
