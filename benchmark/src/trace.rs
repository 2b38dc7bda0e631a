//! In-memory spans for the traced run.
//!
//! The harness records a span around each call it makes into a layer
//! (`replay`, `run_pipeline`, every `AnnEngine::execute` seen by the
//! adapter, each direct call) — name, start, end, the span that caused it,
//! and a request id shared by all spans of one `SearchRequest`. Spans stay
//! in memory and are written as JSONL when the workload ends. Child spans
//! synthesised from a response's modeled stage breakdown carry
//! `clock: modeled`; they are laid end to end from the parent's start so a
//! reader can see the split, but they are on the simulated clock and never
//! enter host self-time arithmetic.

use crate::clock;
use std::fmt::Write as _;

/// Which clock a span's `start`/`end` are read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClock {
    /// Host seconds since process start.
    Host,
    /// Simulated seconds (offsets from the parent's start).
    Modeled,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Shared by every span of one `SearchRequest`; 0 for spans that are
    /// not about a request.
    pub request: u64,
    pub name: String,
    pub clock: SpanClock,
    pub start: f64,
    pub end: f64,
    /// Counts recorded at the same boundary (`WorkloadStats`, report
    /// counters).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// The span store of one workload run. Disabled tracers record nothing, so
/// the untraced run pays one branch per call site.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a host-clock span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = clock::now_s();
        Some(self.push(name, parent, 0, SpanClock::Host, now, now))
    }

    /// Closes a span opened by [`begin`](Self::begin), attaching counts.
    pub fn end(&mut self, id: Option<usize>, counts: &[(&'static str, f64)]) {
        if let Some(id) = id {
            let span = &mut self.spans[id];
            span.end = clock::now_s();
            span.counts.extend_from_slice(counts);
        }
    }

    /// Records a complete span (used for adapter records and modeled
    /// children, whose times are already known).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        clock: SpanClock,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        self.enabled
            .then(|| self.push(name, parent, request, clock, start, end))
    }

    /// Adds counts to an existing span.
    pub fn add_counts(&mut self, id: Option<usize>, counts: &[(&'static str, f64)]) {
        if let Some(id) = id {
            self.spans[id].counts.extend_from_slice(counts);
        }
    }

    fn push(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        clock: SpanClock,
        start: f64,
        end: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            clock,
            start,
            end,
            counts: Vec::new(),
        });
        id
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of its interval that
    /// its same-clock children cover (overlapping children — parallel
    /// workers — are counted once).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.clock == span.clock)
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        (span.duration() - covered(children)).max(0.0)
    }

    /// The spans as JSON Lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"clock\":\"{}\",\
                 \"start\":{:.9},\"end\":{:.9},\"self\":{:.9},\"counts\":{{",
                s.id,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                match s.clock {
                    SpanClock::Host => "host",
                    SpanClock::Modeled => "modeled",
                },
                s.start,
                s.end,
                self.self_time(s.id),
            );
            for (i, (key, value)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{key}\":{value}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, Option<usize>, SpanClock, f64, f64)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, parent, clock, start, end) in spans {
            t.record(name, parent, 7, clock, start, end);
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer_with(&[
            ("replay", None, SpanClock::Host, 0.0, 10.0),
            // Two overlapping children (parallel workers) and a disjoint one.
            ("execute", Some(0), SpanClock::Host, 1.0, 4.0),
            ("execute", Some(0), SpanClock::Host, 3.0, 6.0),
            ("execute", Some(0), SpanClock::Host, 8.0, 9.0),
            // A grandchild does not count against the root.
            ("kernel", Some(1), SpanClock::Host, 1.5, 2.0),
        ]);
        assert!((t.self_time(0) - 4.0).abs() < 1e-12, "10 - (5 + 1)");
        assert!((t.self_time(1) - 2.5).abs() < 1e-12);
        assert!((t.self_time(2) - 3.0).abs() < 1e-12);
        assert!(
            (t.self_time(4) - 0.5).abs() < 1e-12,
            "a leaf's self time is its duration"
        );
    }

    #[test]
    fn modeled_children_never_reduce_host_self_time() {
        let t = tracer_with(&[
            ("execute", None, SpanClock::Host, 0.0, 2.0),
            ("dpu_search", Some(0), SpanClock::Modeled, 0.0, 40.0),
        ]);
        assert_eq!(t.self_time(0), 2.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let t = tracer_with(&[
            ("outer", None, SpanClock::Host, 2.0, 4.0),
            ("late", Some(0), SpanClock::Host, 3.5, 9.0),
        ]);
        assert!((t.self_time(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("replay", None);
        t.end(id, &[("queries", 4.0)]);
        assert!(t.record("x", None, 0, SpanClock::Host, 0.0, 1.0).is_none());
        assert!(t.spans().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_counts() {
        let mut t = tracer_with(&[("replay", None, SpanClock::Host, 0.0, 1.0)]);
        t.add_counts(Some(0), &[("queries", 4000.0), ("chunks", 12.0)]);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"request\":7"));
        assert!(text.contains("\"queries\":4000"));
        assert!(text.contains("\"chunks\":12"));
    }
}
