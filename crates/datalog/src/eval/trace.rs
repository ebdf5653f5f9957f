//! Span timers, latency histograms, and per-rule evaluation profiles.
//!
//! The observability layer is zero-dependency and disabled by default: when
//! [`EvalOptions::trace`](super::EvalOptions) is off, the only cost at every
//! instrumentation site is one branch on an `Option` that is `None`. When it is
//! on, the evaluators allocate one [`EvalProfile`] per run (boxed, attached to
//! [`EvalStats`](super::EvalStats)) and record:
//!
//! * **phase spans** ([`SpanStats`]): count / total / max wall time per named
//!   phase (`eval.plan`, `eval.index`, `eval.round`, `delete.overdelete`,
//!   `delete.remove`, `delete.rederive`, …);
//! * **per-rule profiles** ([`RuleProfile`]): firings, cumulative firing time,
//!   and rows in (instantiations emitted into the staging sink) / rows out
//!   (new facts staged) per rule.
//!
//! Latency distributions use [`Histogram`]: 64 fixed log-scaled buckets (one per
//! leading-bit position of the nanosecond value, i.e. bucket `i` holds samples in
//! `[2^(i-1), 2^i)` ns), so recording is two instructions and quantile estimates
//! (p50/p95/p99) are exact to within a factor of two — plenty for "is fsync 40 µs
//! or 4 ms" questions, with no allocation after construction.
//!
//! **Instrument lists.** Each list of counters, spans or wire fields the workspace
//! shows — [`EvalStats`](super::EvalStats), the engine crate's server counters,
//! engine spans and replica status — is declared once with
//! [`instruments!`](crate::instruments!), and every surface that shows it walks the
//! ([`Instrument`], [`Reading`]) pairs the declaration yields: `:stats` and
//! `:profile show` through [`rows`] and `Reading`'s `Display`, the `STATS` line as
//! `name=value` pairs (parsed back with [`wire_value`]), the metrics document as
//! one JSON object per list. Adding an instrument is one entry in one declaration.
//!
//! Counters and times are split on purpose: every count in a profile is
//! machine-independent, while every `*_ns` field is wall-clock.
//! [`EvalProfile::shape`] extracts exactly the deterministic part.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Number of log-scaled buckets: one per leading-bit position of a `u64`
/// nanosecond value (bucket 0 holds 0 ns samples).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Render nanoseconds with a human-scale unit (`812ns`, `3.4µs`, `1.2ms`, `2.5s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A fixed-bucket log-scaled latency histogram.
///
/// Bucket `i > 0` counts samples whose nanosecond value has its highest set bit
/// at position `i - 1`, i.e. values in `[2^(i-1), 2^i)`; bucket 0 counts zero
/// samples. Quantiles report the upper bound of the bucket containing the
/// requested rank (clamped to the observed maximum), so they are exact to within
/// 2x and never understate.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("total_ns", &self.total_ns)
            .field("max_ns", &self.max_ns)
            .finish_non_exhaustive()
    }
}

/// Index of the bucket a nanosecond value falls into.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros()) as usize
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, duration: Duration) {
        self.record_ns(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one sample given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns).min(HISTOGRAM_BUCKETS - 1)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper-bound estimate (within 2x) of the `q`-quantile in nanoseconds, for
    /// `q` in `[0, 1]`; 0 when empty. The estimate is the upper edge of the
    /// bucket holding the sample of that rank, clamped to the observed maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { 1u64 << i.min(63) };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate in nanoseconds (see [`Histogram::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile estimate in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile estimate in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// The `:profile show` form: sample count and the estimated quantiles.
impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sample(s), p50 {}, p95 {}, p99 {}, max {}",
            self.count,
            fmt_ns(self.p50_ns()),
            fmt_ns(self.p95_ns()),
            fmt_ns(self.p99_ns()),
            fmt_ns(self.max_ns)
        )
    }
}

/// Count / total / max wall time of one named phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStats {
    /// Number of times the phase ran.
    pub count: u64,
    /// Cumulative wall time in nanoseconds.
    pub total_ns: u64,
    /// Longest single run in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Record one run of the phase.
    #[inline]
    pub fn record(&mut self, duration: Duration) {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merge another span's accumulators into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// The `:profile show` form, in columns.
impl fmt::Display for SpanStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count {:>8}  total {:>10}  max {:>10}",
            self.count,
            fmt_ns(self.total_ns),
            fmt_ns(self.max_ns)
        )
    }
}

/// Per-rule evaluation profile: firings, cumulative firing time, and the row
/// counts flowing through the staging sink. All fields except `time_ns` are
/// deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleProfile {
    /// Number of times the rule fired (one per scheduled firing).
    pub firings: u64,
    /// Cumulative firing wall time in nanoseconds.
    pub time_ns: u64,
    /// Instantiations the rule's joins emitted into the staging sink.
    pub rows_in: u64,
    /// New facts the sink staged (derived, scheduled for deletion, or restored,
    /// depending on the round's polarity).
    pub rows_out: u64,
}

/// The deterministic skeleton of a profile: phase names with run counts and
/// per-rule `(firings, rows_in, rows_out)`. Two runs of the same program over
/// the same data produce equal shapes.
pub type ProfileShape = (Vec<(String, u64)>, Vec<(u64, u64, u64)>);

/// One evaluation run's trace: phase spans plus per-rule profiles.
#[derive(Clone, Debug, Default)]
pub struct EvalProfile {
    /// Wall time per named phase, keyed by the static phase name.
    pub phases: BTreeMap<&'static str, SpanStats>,
    /// Per-rule profiles, indexed by rule position in the program.
    pub rules: Vec<RuleProfile>,
}

impl EvalProfile {
    /// A profile sized for a program with `rule_count` rules.
    pub fn new(rule_count: usize) -> EvalProfile {
        EvalProfile {
            phases: BTreeMap::new(),
            rules: vec![RuleProfile::default(); rule_count],
        }
    }

    /// Record one run of the named phase.
    #[inline]
    pub fn record_phase(&mut self, name: &'static str, duration: Duration) {
        self.phases.entry(name).or_default().record(duration);
    }

    /// Record one emission through the staging sink for rule `rule_index`
    /// (`is_new` = the sink staged a new fact).
    #[inline]
    pub fn record_rule_row(&mut self, rule_index: usize, is_new: bool) {
        if let Some(rule) = self.rules.get_mut(rule_index) {
            rule.rows_in += 1;
            rule.rows_out += is_new as u64;
        }
    }

    /// Record one firing of rule `rule_index` taking `ns` nanoseconds.
    #[inline]
    pub fn record_rule_firing(&mut self, rule_index: usize, ns: u64) {
        if let Some(rule) = self.rules.get_mut(rule_index) {
            rule.firings += 1;
            rule.time_ns = rule.time_ns.saturating_add(ns);
        }
    }

    /// Merge another profile into this one (summing spans and rule counters).
    pub fn merge(&mut self, other: &EvalProfile) {
        for (&name, span) in &other.phases {
            self.phases.entry(name).or_default().merge(span);
        }
        if self.rules.len() < other.rules.len() {
            self.rules.resize(other.rules.len(), RuleProfile::default());
        }
        for (mine, theirs) in self.rules.iter_mut().zip(&other.rules) {
            mine.firings += theirs.firings;
            mine.time_ns = mine.time_ns.saturating_add(theirs.time_ns);
            mine.rows_in += theirs.rows_in;
            mine.rows_out += theirs.rows_out;
        }
    }

    /// The deterministic part of the profile: phase run counts and per-rule
    /// `(firings, rows_in, rows_out)` — times are excluded.
    pub fn shape(&self) -> ProfileShape {
        let phases = self
            .phases
            .iter()
            .map(|(&name, span)| (name.to_string(), span.count))
            .collect();
        let rules = self
            .rules
            .iter()
            .map(|r| (r.firings, r.rows_in, r.rows_out))
            .collect();
        (phases, rules)
    }
}

/// How two values of one counter combine when statistics are merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// The counts add up.
    Sum,
    /// The larger one stands.
    Max,
}

impl Merge {
    /// `mine` and `theirs` combined under this policy.
    pub fn apply<T: Ord + std::ops::Add<Output = T>>(self, mine: T, theirs: T) -> T {
        match self {
            Merge::Sum => mine + theirs,
            Merge::Max => mine.max(theirs),
        }
    }
}

/// One entry of an [`instruments!`](crate::instruments!) declaration: what every
/// surface that shows the instrument needs to know about it besides its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instrument {
    /// The field's name: the key in the metrics document and on the wire.
    pub name: &'static str,
    /// The row the instrument is shown in by [`rows`] (consecutive instruments
    /// of one group share a row), or the object it belongs to in the metrics
    /// document.
    pub group: &'static str,
    /// What the value is called in that row.
    pub label: &'static str,
    /// The merge policy of a counter; `None` for an instrument that is read, not
    /// accumulated.
    pub merge: Option<Merge>,
}

/// The current value of one instrument, in the few shapes instruments come in.
/// Its `Display` is the form the text surfaces and the wire share.
#[derive(Clone, Copy, Debug)]
pub enum Reading<'a> {
    /// An event count or a total.
    Count(u64),
    /// A ratio of two counts, shown to two decimals.
    Ratio(f64),
    /// A name (a role, an address).
    Name(&'a str),
    /// A span timer.
    Span(&'a SpanStats),
    /// A latency histogram.
    Histogram(&'a Histogram),
}

impl Reading<'_> {
    /// Has the instrument recorded nothing yet? (A name always says something.)
    pub fn is_zero(&self) -> bool {
        match self {
            Reading::Count(n) => *n == 0,
            Reading::Ratio(r) => *r == 0.0,
            Reading::Name(_) => false,
            Reading::Span(span) => span.count == 0,
            Reading::Histogram(h) => h.count() == 0,
        }
    }
}

impl fmt::Display for Reading<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reading::Count(n) => write!(f, "{n}"),
            Reading::Ratio(r) => write!(f, "{r:.2}"),
            Reading::Name(s) => f.write_str(s),
            Reading::Span(span) => write!(f, "{span}"),
            Reading::Histogram(h) => write!(f, "{h}"),
        }
    }
}

impl From<&usize> for Reading<'_> {
    fn from(n: &usize) -> Self {
        Reading::Count(*n as u64)
    }
}

impl From<&u64> for Reading<'_> {
    fn from(n: &u64) -> Self {
        Reading::Count(*n)
    }
}

impl From<&f64> for Reading<'_> {
    fn from(r: &f64) -> Self {
        Reading::Ratio(*r)
    }
}

impl<'a> From<&'a String> for Reading<'a> {
    fn from(s: &'a String) -> Self {
        Reading::Name(s)
    }
}

impl<'a> From<&'a SpanStats> for Reading<'a> {
    fn from(span: &'a SpanStats) -> Self {
        Reading::Span(span)
    }
}

impl<'a> From<&'a Histogram> for Reading<'a> {
    fn from(h: &'a Histogram) -> Self {
        Reading::Histogram(h)
    }
}

/// The text form of a list of readings: one `group: label value, …` row per run
/// of instruments sharing a group, and `group: —` for a group that has recorded
/// nothing (instead of a wall of zeros).
pub fn rows<'a>(readings: impl Iterator<Item = (&'static Instrument, Reading<'a>)>) -> String {
    let readings: Vec<_> = readings.collect();
    let rows = readings
        .chunk_by(|a, b| a.0.group == b.0.group)
        .map(|group| {
            let name = group[0].0.group;
            if group.iter().all(|(_, reading)| reading.is_zero()) {
                return format!("{name}: —");
            }
            let cells: Vec<_> = group
                .iter()
                .map(|(instrument, reading)| format!("{} {reading}", instrument.label))
                .collect();
            format!("{name}: {}", cells.join(", "))
        });
    rows.collect::<Vec<_>>().join("\n")
}

/// The value of `name` in a line of whitespace-separated `name=value` pairs;
/// the error is the name, for the caller to say what was missing or malformed.
pub fn wire_value<'n, T: FromStr>(line: &str, name: &'n str) -> Result<T, &'n str> {
    line.split_whitespace()
        .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .ok_or(name)
}

/// Declare a list of instruments once — per instrument its name, rustdoc, display
/// group and label, and for counters the merge policy — and derive the struct
/// (every instrument a public field of that name) and everything that walks the
/// list: the `INSTRUMENTS` table and `readings()`, which every surface (`:stats`,
/// `:profile show`, the `STATS` line, the metrics document) renders from.
///
/// Three forms:
///
/// * `struct Name { field: Type, "group", "label"; … }` — a record of typed
///   instruments (`Reading: From<&Type>`).
/// * `struct Name: Int { field = Sum|Max, "group", "label"; … }` — counters of
///   one integer type, which also get `counters_mut()` and `merge_counters()`.
/// * the counters form followed by `live struct Live: Atomic { … }` and
///   `wire struct Reply { … }` — what a server needs besides: the same counters
///   as atomics (plus the fields in braces) with `snapshot()`, and a record of
///   its own instruments followed by the counters that crosses the wire as
///   `name=value` pairs (`to_wire()`, `from_wire()`, `From<Name>`).
///
/// Either of the first two may end in `also { … }`: fields that are not
/// instruments.
#[macro_export]
macro_rules! instruments {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty, $group:literal, $label:literal;)*
        }
        $(also { $($extra:tt)* })?
    ) => {
        $crate::instruments!(@list [$(#[$meta])*] $vis $name
            [$([$(#[$doc])*] $field: $ty, None, $group, $label;)*] [$($($extra)*)?]);
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $ty:ty {
            $($(#[$doc:meta])* $field:ident = $policy:ident, $group:literal, $label:literal;)*
        }
        $(also { $($extra:tt)* })?
    ) => {
        $crate::instruments!(@list [$(#[$meta])*] $vis $name
            [$([$(#[$doc])*] $field: $ty, Some($crate::eval::Merge::$policy), $group, $label;)*]
            [$($($extra)*)?]);
        impl $name {
            /// Each declared counter, mutably, in declaration order.
            pub fn counters_mut(
                &mut self,
            ) -> impl Iterator<Item = (&'static $crate::eval::Instrument, &mut $ty)> {
                Self::INSTRUMENTS.iter().zip([$(&mut self.$field),*])
            }

            /// Fold `other`'s counters into these, each by its declared policy.
            pub fn merge_counters(&mut self, other: &Self) {
                $(self.$field = $crate::eval::Merge::$policy.apply(self.$field, other.$field);)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $ty:ty {
            $($(#[$doc:meta])* $field:ident = $policy:ident, $group:literal, $label:literal;)*
        }
        $(#[$live_meta:meta])*
        live struct $live:ident: $atomic:ty { $($live_extra:tt)* }
        $(#[$wire_meta:meta])*
        $wire_vis:vis wire struct $wire:ident {
            $($(#[$wire_doc:meta])* $wire_field:ident: $wire_ty:ty, $wire_group:literal, $wire_label:literal;)*
        }
    ) => {
        $crate::instruments! {
            $(#[$meta])*
            $vis struct $name: $ty {
                $($(#[$doc])* $field = $policy, $group, $label;)*
            }
        }
        $(#[$live_meta])*
        #[derive(Default)]
        struct $live {
            $($field: $atomic,)*
            $($live_extra)*
        }
        impl $live {
            /// The counters as of now (relaxed loads: statistics, not synchronisation).
            fn snapshot(&self) -> $name {
                $name {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }
        $crate::instruments!(@list [$(#[$wire_meta])*] $wire_vis $wire
            [$([$(#[$wire_doc])*] $wire_field: $wire_ty, None, $wire_group, $wire_label;)*
             $([$(#[$doc])*] $field: $ty, Some($crate::eval::Merge::$policy), $group, $label;)*]
            []);
        impl $wire {
            /// One `name=value` pair per declared instrument, in declaration order.
            pub fn to_wire(&self) -> String {
                let pairs: Vec<_> = self
                    .readings()
                    .map(|(instrument, reading)| format!("{}={reading}", instrument.name))
                    .collect();
                pairs.join(" ")
            }

            /// Parse a line of `name=value` pairs; pairs this declaration does not
            /// know are skipped (a newer sender), and the error names the first
            /// declared instrument that is missing or malformed.
            pub fn from_wire(line: &str) -> Result<Self, &'static str> {
                Ok($wire {
                    $($wire_field: $crate::eval::wire_value(line, stringify!($wire_field))?,)*
                    $($field: $crate::eval::wire_value(line, stringify!($field))?,)*
                })
            }
        }
        impl From<$name> for $wire {
            /// The counters in place, the reply's own instruments at their defaults.
            fn from(counters: $name) -> Self {
                $wire {
                    $($field: counters.$field,)*
                    ..Default::default()
                }
            }
        }
    };
    (@list [$(#[$meta:meta])*] $vis:vis $name:ident
        [$([$(#[$doc:meta])*] $field:ident: $ty:ty, $merge:expr, $group:literal, $label:literal;)*]
        [$($extra:tt)*]) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$doc])* pub $field: $ty,)*
            $($extra)*
        }
        impl $name {
            /// Every declared instrument, in declaration order.
            pub const INSTRUMENTS: &'static [$crate::eval::Instrument] = &[$(
                $crate::eval::Instrument {
                    name: stringify!($field),
                    group: $group,
                    label: $label,
                    merge: $merge,
                },
            )*];

            /// Each declared instrument with its current reading, in declaration order.
            pub fn readings(
                &self,
            ) -> impl Iterator<
                Item = (&'static $crate::eval::Instrument, $crate::eval::Reading<'_>),
            > {
                Self::INSTRUMENTS
                    .iter()
                    .zip([$($crate::eval::Reading::from(&self.$field)),*])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_leading_bit() {
        let mut h = Histogram::default();
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(3);
        h.record_ns(1_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), 1_000);
        assert_eq!(h.total_ns(), 1_004);
        // p50 is the rank-2 sample (the 1 ns one): its [1, 2) bucket's upper edge.
        assert_eq!(h.p50_ns(), 2);
        // The top quantiles land in the 1_000 sample's bucket, clamped to max.
        assert_eq!(h.p99_ns(), 1_000);
        assert_eq!(h.quantile_ns(1.0), 1_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ns(), 0);
        assert_eq!(h.p95_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn histogram_merge_sums_samples() {
        let mut a = Histogram::default();
        a.record_ns(10);
        let mut b = Histogram::default();
        b.record_ns(1_000_000);
        b.record_ns(20);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 1_000_000);
        assert!(a.p99_ns() >= 1_000_000);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut h = Histogram::default();
        for ns in [5u64, 7, 1_000_003] {
            h.record_ns(ns);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert!(h.quantile_ns(q) <= h.max_ns());
        }
    }

    #[test]
    fn span_stats_record_and_merge() {
        let mut a = SpanStats::default();
        a.record(Duration::from_nanos(100));
        a.record(Duration::from_nanos(300));
        assert_eq!(a.count, 2);
        assert_eq!(a.total_ns, 400);
        assert_eq!(a.max_ns, 300);
        let mut b = SpanStats::default();
        b.record(Duration::from_nanos(1_000));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 1_400);
        assert_eq!(a.max_ns, 1_000);
    }

    #[test]
    fn profile_records_phases_and_rules() {
        let mut p = EvalProfile::new(2);
        p.record_phase("eval.round", Duration::from_nanos(50));
        p.record_phase("eval.round", Duration::from_nanos(70));
        p.record_rule_firing(0, 40);
        p.record_rule_row(0, true);
        p.record_rule_row(0, false);
        assert_eq!(p.phases["eval.round"].count, 2);
        assert_eq!(p.rules[0].firings, 1);
        assert_eq!(p.rules[0].rows_in, 2);
        assert_eq!(p.rules[0].rows_out, 1);
        // Out-of-range rule indexes are ignored, not a panic.
        p.record_rule_firing(9, 1);
        p.record_rule_row(9, true);
    }

    #[test]
    fn profile_merge_sums_and_resizes() {
        let mut a = EvalProfile::new(1);
        a.record_rule_firing(0, 10);
        let mut b = EvalProfile::new(3);
        b.record_rule_firing(2, 5);
        b.record_phase("eval.plan", Duration::from_nanos(9));
        a.merge(&b);
        assert_eq!(a.rules.len(), 3);
        assert_eq!(a.rules[0].firings, 1);
        assert_eq!(a.rules[2].firings, 1);
        assert_eq!(a.phases["eval.plan"].count, 1);
    }

    #[test]
    fn shape_excludes_times() {
        let mut p = EvalProfile::new(1);
        p.record_phase("eval.round", Duration::from_nanos(123));
        p.record_rule_firing(0, 999);
        p.record_rule_row(0, true);
        let (phases, rules) = p.shape();
        assert_eq!(phases, vec![("eval.round".to_string(), 1)]);
        assert_eq!(rules, vec![(1, 1, 1)]);

        // A second profile with different times but the same counts has the
        // same shape.
        let mut q = EvalProfile::new(1);
        q.record_phase("eval.round", Duration::from_nanos(77_000));
        q.record_rule_firing(0, 1);
        q.record_rule_row(0, true);
        assert_eq!(p.shape(), q.shape());
    }
}
