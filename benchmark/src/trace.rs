//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each module's
//! public functions, kept in memory, and written to
//! `out/trace-<workload>.json` when the run ends. A span's *self time* is its
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `core.optimize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request (sample, query, transaction) share this.
    pub request: u64,
}

/// An in-memory span log. While disabled, [`Tracer::begin`] and
/// [`Tracer::end`] cost one branch — the traced run flips it per batch to
/// measure what recording costs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Record spans?
    pub enabled: bool,
}

/// What [`Tracer::begin`] returns while disabled.
const NOT_RECORDED: SpanId = SpanId::MAX;

impl Tracer {
    /// An empty log; `enabled` is the initial recording state.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    /// An empty, disabled log on this log's clock, for another thread;
    /// [`Tracer::adopt`] merges it back.
    pub fn sharing_clock(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Append the spans of a log created by [`Tracer::sharing_clock`].
    pub fn adopt(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return NOT_RECORDED;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|&p| p != NOT_RECORDED),
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != NOT_RECORDED {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record child spans whose durations were measured elsewhere (the
    /// optimizer's own pass times), laid end to end from the parent's start.
    pub fn children(&mut self, parent: SpanId, durations_ns: &[(&'static str, u64)]) {
        if parent == NOT_RECORDED {
            return;
        }
        let (mut at, request) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.request)
        };
        for &(name, duration) in durations_ns {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + duration,
                parent: Some(parent),
                request,
            });
            at += duration;
        }
    }

    /// Total duration and total self time per span name, in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// Write the log as JSON.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": ["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus child durations.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in nanoseconds (0 when there are no spans).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", None, 1);
        tracer.children(outer, &[("a", 10), ("b", 20)]);
        tracer.end(outer);
        tracer.spans[outer as usize].end_ns = tracer.spans[outer as usize].start_ns + 100;
        let totals = tracer.totals();
        assert_eq!(totals["outer"].total_ns, 100);
        assert_eq!(totals["outer"].self_ns, 70);
        assert_eq!(totals["b"].self_ns, 20);
        assert_eq!(tracer.spans[2].parent, Some(outer));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("x", None, 0);
        tracer.children(id, &[("y", 5)]);
        tracer.end(id);
        assert!(tracer.spans.is_empty());
    }
}
