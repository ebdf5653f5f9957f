//! Engine-level metrics: latency histograms, subsystem spans, and the
//! machine-readable JSON document behind `factorlog repl --metrics-json`.
//!
//! The eval-side profile ([`EvalProfile`]) rides on [`EvalStats`] and
//! accumulates across a session's evaluations; [`EngineMetrics`] holds everything
//! *above* the evaluators — end-to-end query latency, prepared-plan lookup time,
//! optimizer pass times, WAL append/fsync latency, snapshot compaction time. Both
//! are collected only while [`Engine::set_tracing`](crate::Engine::set_tracing)
//! is on; the disabled fast path is one branch on an `Option` per site.
//!
//! # JSON schema (version 4)
//!
//! [`render_metrics_json`] emits a single versioned object, hand-formatted (the
//! workspace is dependency-free):
//!
//! ```text
//! {
//!   "factorlog_metrics_version": 4,
//!   "tracing": bool,
//!   "host": { "cores": n },
//!   "txns_per_fsync": f,
//!   "replication": { <every ReplicaStatus instrument>: n | "name", ... } | null,
//!   "server": { <every ServerMetrics instrument>: n, ... } | null,
//!   "counters": { <every EvalStats counter>: n, ... },
//!   "phases": { "<phase>": {"count": n, "total_ns": n, "max_ns": n}, ... },
//!   "optimize_passes": { "<pass>": { same fields }, ... },
//!   "<group>": { <every EngineMetrics instrument of that group>: {...}, ... }, ...,
//!   "rules": [ {"rule": "...", "firings": n, "time_ns": n, "rows_in": n, "rows_out": n}, ... ]
//! }
//! ```
//!
//! The `<every … instrument>` objects are rendered from the declarations of
//! [`ReplicaStatus`](crate::replication::ReplicaStatus),
//! [`ServerMetrics`](crate::server::ServerMetrics), [`EvalStats`] and
//! [`EngineMetrics`]: one key per declared field, under the field's name, and
//! the field's rustdoc says what it counts. [`EngineMetrics`] declares a group
//! per instrument, and each group is an object of the document: span timers
//! (`{"count", "total_ns", "max_ns"}`) or latency histograms (`{"count",
//! "p50_ns", "p95_ns", "p99_ns", "max_ns", "total_ns"}`). `replication` is
//! `null` for a session that is not replicating, `server` for one that is not
//! serving; `txns_per_fsync` is [`EvalStats::txns_per_fsync`].
//!
//! A new instrument is a new key and keeps the version; the version moves when
//! a key goes or changes meaning. Version 2 added `txns_per_fsync` and
//! `replication`, version 3 `server`; version 4 removed the configured thread
//! count under `host` and the three partitioned-round counters, gone with the
//! parallel evaluator.
//!
//! `phases` and `rules` come from the accumulated eval profile and are empty
//! when tracing was never enabled; every `*_ns` field is wall-clock nanoseconds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use factorlog_datalog::ast::Program;
use factorlog_datalog::eval::{EvalProfile, EvalStats, Histogram, Instrument, Reading, SpanStats};

/// Version stamp of the metrics JSON document.
pub const METRICS_JSON_VERSION: u32 = 4;

factorlog_datalog::instruments! {
    /// Metrics collected above the evaluators while tracing is enabled: latency
    /// histograms and subsystem span timers. See the [module docs](self).
    #[derive(Clone, Debug, Default)]
    pub struct EngineMetrics {
        /// Prepared-plan cache lookups — rebind time on hits, the full optimizer
        /// pipeline plus compilation on misses.
        prepared_lookup: SpanStats, "engine_spans", "prepared lookup";
        /// WAL record appends (encode + frame + write + fsync), one per committed
        /// durable mutation.
        wal_append: SpanStats, "engine_spans", "wal append";
        /// Snapshot compactions (write temp + fsync + rename + dir fsync + log
        /// reset).
        compaction: SpanStats, "engine_spans", "compaction";
        /// End-to-end latency of [`Engine::query`](crate::Engine::query) and
        /// [`Engine::query_prepared`](crate::Engine::query_prepared) calls
        /// (refresh/evaluate + answer projection), one sample per call.
        query_latency: Histogram, "histograms", "query latency";
        /// The fsync portion of WAL appends alone (zero samples when the session
        /// runs with `fsync` off).
        wal_fsync: Histogram, "histograms", "wal fsync";
    }
    also {
        /// Optimizer pass wall time by pass name, accumulated from
        /// [`Optimized::pass_times`](factorlog_core::pipeline::Optimized) on every
        /// prepared-plan miss.
        pub optimize_passes: BTreeMap<&'static str, SpanStats>,
    }
}

impl EngineMetrics {
    /// Fold one pipeline run's per-pass times into the accumulated spans.
    pub fn absorb_pass_times(&mut self, pass_times: &[(&'static str, u64)]) {
        for &(name, ns) in pass_times {
            let span = self.optimize_passes.entry(name).or_default();
            span.count += 1;
            span.total_ns = span.total_ns.saturating_add(ns);
            span.max_ns = span.max_ns.max(ns);
        }
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn span_json(span: &SpanStats) -> String {
    format!(
        "{{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
        span.count, span.total_ns, span.max_ns
    )
}

/// One reading as a JSON value.
fn reading_json(reading: &Reading<'_>) -> String {
    match reading {
        Reading::Count(_) | Reading::Ratio(_) => reading.to_string(),
        Reading::Name(name) => format!("\"{}\"", json_escape(name)),
        Reading::Span(span) => span_json(span),
        Reading::Histogram(h) => format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"total_ns\": {}}}",
            h.count(),
            h.p50_ns(),
            h.p95_ns(),
            h.p99_ns(),
            h.max_ns(),
            h.total_ns()
        ),
    }
}

/// Append `"key": {"name": value, ...}`, one entry per line, as a member of the
/// top-level object that another member follows.
fn push_object<'a>(out: &mut String, key: &str, entries: impl Iterator<Item = (&'a str, String)>) {
    let members: Vec<_> = entries
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    let _ = writeln!(out, "  \"{key}\": {{");
    if !members.is_empty() {
        let _ = writeln!(out, "{}", members.join(",\n"));
    }
    out.push_str("  },\n");
}

/// [`push_object`] of a list of readings, each under its instrument's name.
fn push_readings<'a>(
    out: &mut String,
    key: &str,
    readings: impl Iterator<Item = (&'static Instrument, Reading<'a>)>,
) {
    push_object(
        out,
        key,
        readings.map(|(instrument, reading)| (instrument.name, reading_json(&reading))),
    );
}

/// Render the versioned metrics JSON document for one session. `tracing` says
/// whether collection is currently enabled. The eval-side phase spans and
/// per-rule profiles come from `stats.profile` (rule text is looked up in
/// `program` by rule index); everything else from `metrics`.
/// `replication` is a replica's point-in-time status (`None` renders the
/// `replication` key as `null` — the session is not replicating). `server` is
/// a serving front end's counters (`None` renders the `server` key as
/// `null` — the session is not serving).
pub fn render_metrics_json(
    metrics: &EngineMetrics,
    stats: &EvalStats,
    program: &Program,
    tracing: bool,
    replication: Option<&crate::replication::ReplicaStatus>,
    server: Option<&crate::server::ServerMetrics>,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"factorlog_metrics_version\": {METRICS_JSON_VERSION},"
    );
    let _ = writeln!(out, "  \"tracing\": {tracing},");
    let _ = writeln!(out, "  \"host\": {{\"cores\": {cores}}},");
    let _ = writeln!(out, "  \"txns_per_fsync\": {:.2},", stats.txns_per_fsync());
    match replication {
        Some(status) => push_readings(&mut out, "replication", status.readings()),
        None => out.push_str("  \"replication\": null,\n"),
    }
    match server {
        Some(server) => push_readings(&mut out, "server", server.readings()),
        None => out.push_str("  \"server\": null,\n"),
    }
    push_readings(&mut out, "counters", stats.readings());

    let empty_profile = EvalProfile::default();
    let profile = stats.profile.as_deref().unwrap_or(&empty_profile);
    let spans = |(name, span): (&&'static str, &SpanStats)| (*name, span_json(span));
    push_object(&mut out, "phases", profile.phases.iter().map(spans));
    push_object(
        &mut out,
        "optimize_passes",
        metrics.optimize_passes.iter().map(spans),
    );

    let readings: Vec<_> = metrics.readings().collect();
    for group in readings.chunk_by(|a, b| a.0.group == b.0.group) {
        push_readings(&mut out, group[0].0.group, group.iter().copied());
    }

    let _ = writeln!(out, "  \"rules\": [");
    for (i, rule) in profile.rules.iter().enumerate() {
        let text = program
            .rules
            .get(i)
            .map(|r| json_escape(&r.to_string()))
            .unwrap_or_else(|| format!("rule #{i}"));
        let comma = if i + 1 < profile.rules.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{text}\", \"firings\": {}, \"time_ns\": {}, \"rows_in\": {}, \"rows_out\": {}}}{comma}",
            rule.firings, rule.time_ns, rule.rows_in, rule.rows_out
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn absorb_pass_times_accumulates() {
        let mut m = EngineMetrics::default();
        m.absorb_pass_times(&[("adorn", 10), ("magic", 20)]);
        m.absorb_pass_times(&[("adorn", 30)]);
        assert_eq!(m.optimize_passes["adorn"].count, 2);
        assert_eq!(m.optimize_passes["adorn"].total_ns, 40);
        assert_eq!(m.optimize_passes["adorn"].max_ns, 30);
        assert_eq!(m.optimize_passes["magic"].count, 1);
    }

    /// Every instrument of `readings` is a member of the top-level object `key`
    /// of `text`, under its declared name and with its (non-zero) reading.
    fn assert_object_shows<'a>(
        text: &str,
        key: &str,
        readings: impl Iterator<Item = (&'static Instrument, Reading<'a>)>,
    ) {
        let from = text.find(&format!("  \"{key}\": {{\n"));
        let from = from.unwrap_or_else(|| panic!("no `{key}` object in:\n{text}"));
        let object = &text[from..][..text[from..].find("\n  }").expect("object closes")];
        for (instrument, reading) in readings {
            assert!(!reading.is_zero(), "{} left at zero", instrument.name);
            let member = format!("    \"{}\": {}", instrument.name, reading_json(&reading));
            assert!(
                object
                    .lines()
                    .any(|line| line.trim_end_matches(',') == member),
                "no `{member}` in:\n{object}"
            );
        }
    }

    #[test]
    fn render_produces_versioned_document_with_required_keys() {
        // Every declared counter and every engine instrument at a distinct value.
        let mut stats = EvalStats::default();
        for (i, (_, counter)) in stats.counters_mut().enumerate() {
            *counter = 11 * i + 3;
        }
        let mut metrics = EngineMetrics::default();
        metrics.absorb_pass_times(&[("adorn", 5)]);
        let sample = Duration::from_micros(42);
        metrics.prepared_lookup.record(sample);
        (0..2).for_each(|_| metrics.wal_append.record(sample));
        (0..3).for_each(|_| metrics.compaction.record(sample));
        (0..4).for_each(|_| metrics.query_latency.record(sample));
        (0..5).for_each(|_| metrics.wal_fsync.record(sample));
        let program = Program::new();
        let text = render_metrics_json(&metrics, &stats, &program, true, None, None);
        for key in [
            "\"factorlog_metrics_version\": 4",
            "\"tracing\": true",
            "\"host\": {\"cores\": ",
            &format!("\"txns_per_fsync\": {:.2}", stats.txns_per_fsync()),
            "\"replication\": null",
            "\"server\": null",
            "\"phases\"",
            "\"optimize_passes\"",
            "\"adorn\": {\"count\": 1",
            "\"rules\"",
            "\"p50_ns\"",
            "\"p95_ns\"",
            "\"p99_ns\"",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        assert_object_shows(&text, "counters", stats.readings());
        let readings: Vec<_> = metrics.readings().collect();
        for group in readings.chunk_by(|a, b| a.0.group == b.0.group) {
            assert_object_shows(&text, group[0].0.group, group.iter().copied());
        }
        // Balanced braces — a cheap well-formedness check without a parser.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(!text.contains(",\n}") && !text.contains(",\n  }"), "{text}");
    }

    #[test]
    fn render_includes_a_replication_object_for_replicas() {
        let status = crate::replication::ReplicaStatus {
            role: crate::replication::ReplicaRole::Follower,
            term: 3,
            leader: "127.0.0.1:7070".to_string(),
            applied_seq: 120,
            leader_seq: 128,
            lag_frames: 8,
            frames_applied: 121,
            bootstraps: 1,
        };
        let text = render_metrics_json(
            &EngineMetrics::default(),
            &EvalStats::default(),
            &Program::new(),
            false,
            Some(&status),
            None,
        );
        assert!(text.contains("\"role\": \"follower\""), "{text}");
        assert_object_shows(&text, "replication", status.readings());
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn render_includes_a_server_object_for_serving_sessions() {
        let mut server = crate::server::ServerMetrics::default();
        for (i, (_, counter)) in server.counters_mut().enumerate() {
            *counter = 5 * i as u64 + 2;
        }
        let text = render_metrics_json(
            &EngineMetrics::default(),
            &EvalStats::default(),
            &Program::new(),
            false,
            None,
            Some(&server),
        );
        assert_object_shows(&text, "server", server.readings());
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
