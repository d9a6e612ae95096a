//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent) in seconds since the run's origin;
//! counts recorded at the same boundary are attached to the span that just
//! ended.  With tracing disabled, [`Tracer::begin`]/[`Tracer::end`] still
//! time the call (the untraced run needs its wall and set-up times) but
//! record nothing.

// Wall-clock timing is this module's job; clippy.toml's disallowed-methods
// list guards result-path code, not the timer around it.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span that has begun and not yet ended.
#[must_use = "end the span with Tracer::end"]
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

/// Records spans when enabled; times calls either way.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_ended: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(), // sigtidy: allow(wall-clock) — benchmark timing
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            last_ended: None,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Begins a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now(); // sigtidy: allow(wall-clock) — benchmark timing
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start: start.duration_since(self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.open.last().copied(),
                counts: Vec::new(),
            });
            self.open.push(id);
            id
        });
        Open { start, id }
    }

    /// Ends a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now(); // sigtidy: allow(wall-clock) — benchmark timing
        if let Some(id) = open.id {
            self.spans[id].end = now.duration_since(self.origin).as_secs_f64();
            let top = self.open.pop();
            assert_eq!(top, Some(id), "spans must end innermost first");
            self.last_ended = Some(id);
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one leaf span and returns its result and duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Attaches a count to the span that ended last (no-op when disabled).
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let (true, Some(id)) = (self.enabled, self.last_ended) {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Id of the span that ended last, if tracing is on.
    pub fn last_ended(&self) -> Option<usize> {
        self.last_ended.filter(|_| self.enabled)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the part of its interval its
/// child spans cover.  Children may overlap each other (spans opened on
/// different threads); the covered part is the measure of their union,
/// clipped to the parent.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let mut intervals: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    (parent.duration() - covered).max(0.0)
}

/// Renders the spans as JSON lines: a header line with the provenance
/// object, then one line per span with its self time and counts.
pub fn render_jsonl(spans: &[Span], workload: &str, provenance: &str) -> String {
    let mut out = format!("{{\"provenance\": {provenance}}}\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counts: Vec<String> = s
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", crate::report::json_number(*v)))
            .collect();
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"workload\": \"{workload}\", \
             \"start\": {}, \"end\": {}, \"parent\": {parent}, \"self_s\": {}, \
             \"counts\": {{{}}}}}",
            s.name,
            crate::report::json_number(s.start),
            crate::report::json_number(s.end),
            crate::report::json_number(self_time(spans, id)),
            counts.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),  // overlaps a: [1, 6] covers 5
            span("c", 8.0, 12.0, Some(0)), // clipped to the parent: covers 2
            span("grandchild", 1.5, 2.0, Some(1)),
        ];
        assert!((self_time(&spans, 0) - 3.0).abs() < 1e-12);
        // Grandchildren count against their own parent only.
        assert!((self_time(&spans, 1) - 2.5).abs() < 1e-12);
        assert_eq!(self_time(&spans, 4), 0.5);
    }

    #[test]
    fn self_time_handles_nested_and_identical_children() {
        let spans = vec![
            span("parent", 0.0, 4.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 1.0, 3.0, Some(0)),
            span("inside-a", 1.5, 2.5, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 2.0).abs() < 1e-12);
        let leaf = vec![span("leaf", 2.0, 5.0, None)];
        assert_eq!(self_time(&leaf, 0), 3.0);
    }

    #[test]
    fn tracer_records_parents_and_counts_only_when_enabled() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let (v, secs) = tr.time("inner", || 7);
        tr.count("events", 3.0);
        let outer_secs = tr.end(outer);
        assert_eq!(v, 7);
        assert!(secs >= 0.0 && outer_secs >= secs);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("events", 3.0)]);
        assert!(self_time(spans, 0) <= spans[0].duration());

        let mut off = Tracer::new(false);
        let (_, secs) = off.time("inner", || ());
        off.count("events", 1.0);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
