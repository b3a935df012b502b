//! In-memory spans for the traced run.
//!
//! A span is recorded by the benchmark around its own call into a layer:
//! name, start, end, parent span and request id. Child spans come from the
//! phase durations a query reports (`SearchStats::phase`) and from the
//! layer replays; they are laid back to back from their parent's start,
//! since the program reports how long a phase took, not when it began.
//! A span's self time is its duration minus the part of it its children
//! cover. Spans are kept in memory and written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span store. Disabled tracers (the default) record nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(Instant::now(), false)
    }
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer { origin, enabled, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a root span from `start` to `end`; returns its id.
    pub fn root(
        &mut self,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span { name, start_ns, end_ns, parent: None, request })
    }

    /// Records `children` (name, duration) back to back from the start of
    /// span `parent`.
    pub fn children(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let (mut at, request) = (self.spans[parent].start_ns, self.spans[parent].request);
        for &(name, d) in children {
            let end = at + d.as_nanos() as u64;
            self.push(Span { name, start_ns: at, end_ns: end, parent: Some(parent), request });
            at = end;
        }
    }

    fn push(&mut self, span: Span) -> usize {
        if self.enabled {
            self.spans.push(span);
            self.spans.len() - 1
        } else {
            0
        }
    }

    /// Moves another tracer's spans (same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, total self time in ms). Self time is the
    /// span's duration minus the union of its children's intervals,
    /// clipped to the span.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(u64, u64)> = kids[i]
                .iter()
                .map(|&c| {
                    (self.spans[c].start_ns.max(s.start_ns), self.spans[c].end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            let entry = out.entry(s.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += own as f64 / 1e6;
        }
        out
    }

    /// Mean self time in ms of the spans named `name` (0 when none).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |&(n, total)| total / n as f64)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, true);
        let end = origin + Duration::from_millis(10);
        let q = t.root("query", 1, origin, end);
        t.children(q, &[("a", Duration::from_millis(3)), ("b", Duration::from_millis(4))]);
        let times = t.self_times();
        assert!((times["query"].1 - 3.0).abs() < 1e-9);
        assert!((times["a"].1 - 3.0).abs() < 1e-9);
        assert!((t.mean_self_ms("b") - 4.0).abs() < 1e-9);
    }

    #[test]
    fn children_overrunning_the_parent_are_clipped() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, true);
        let q = t.root("query", 1, origin, origin + Duration::from_millis(2));
        t.children(q, &[("a", Duration::from_millis(5))]);
        assert_eq!(t.self_times()["query"].1, 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, false);
        let q = t.root("query", 1, origin, origin);
        t.children(q, &[("a", Duration::from_millis(1))]);
        assert!(t.self_times().is_empty());
    }
}
