//! Evaluation statistics.
//!
//! Wall-clock time depends on the machine; the paper's arguments are about the *number
//! of facts and inferences* a strategy performs (e.g. the O(n²) `pmem` facts of
//! Example 1.2 versus the O(n) facts after factoring). The evaluator therefore counts
//! inferences, derived facts and duplicates, and reports them per predicate, so
//! benchmarks can present machine-independent results alongside timings.

use std::fmt;

use crate::fx::FxHashMap;
use crate::symbol::Symbol;

use super::trace::{rows, EvalProfile};

crate::instruments! {
    /// Counters collected during one evaluation run.
    #[derive(Clone, Debug, Default)]
    pub struct EvalStats: usize {
        /// Number of fixpoint iterations (semi-naive rounds).
        iterations = Max, "eval", "iterations";
        /// Number of successful rule-body instantiations (each is one inference).
        inferences = Sum, "eval", "inferences";
        /// Number of new facts added to the IDB.
        facts_derived = Sum, "eval", "facts derived";
        /// Number of inferences whose head fact was already known.
        duplicates = Sum, "eval", "duplicates";
        /// Prepared-plan cache hits (queries answered by replaying a cached compiled
        /// plan). Recorded by the session engine; zero for one-shot evaluations.
        plan_cache_hits = Sum, "plan cache", "hits";
        /// Prepared-plan cache misses (queries that ran the full optimization pipeline).
        plan_cache_misses = Sum, "plan cache", "misses";
        /// Prepared plans evicted from the engine's bounded cache.
        plan_cache_evictions = Sum, "plan cache", "evicted";
        /// Hash-index probes performed by the join pipeline (each replaces a scan of the
        /// probed relation).
        index_probes = Sum, "joins", "index probes";
        /// Full relation scans performed by the join pipeline (literals with no usable
        /// index, or with no bound position).
        full_scans = Sum, "joins", "full scans";
        /// Fully-bound literal instantiations answered by a membership check against the
        /// relation's dedup table.
        membership_checks = Sum, "joins", "membership checks";
        /// Join scratch-buffer constructions. The evaluators allocate one scratch per rule
        /// per evaluation and reuse it across every `fire` call, so this stays equal to
        /// the rule count no matter how many rows flow through the join.
        scratch_allocs = Sum, "joins", "scratch allocations";
        /// Rules whose body-literal order was changed by the selectivity heuristic
        /// (bound-position count, then relation size) at plan time.
        literal_reorders = Sum, "joins", "literal reorders";
        /// Facts removed from the model by delete propagation: retracted base facts plus
        /// every derived fact the over-delete phase scheduled (some of which the
        /// re-derivation phase restores — see `rederivations`).
        retractions = Sum, "mutations", "retractions";
        /// Over-deleted facts restored because the re-derivation pass found a surviving
        /// derivation (or a surviving base fact).
        rederivations = Sum, "mutations", "rederivations";
        /// Fixpoint rounds of the over-delete (negative-delta) phase.
        delete_rounds = Sum, "mutations", "delete rounds";
        /// Records appended to the durable session's transaction log (one per
        /// committed transaction batch or absorbed source text; on a follower, one
        /// per shipped record). Zero for in-memory sessions and one-shot evaluations.
        wal_appends = Sum, "wal", "appends";
        /// Log records replayed through the transactional path when the session was
        /// recovered at startup.
        wal_replays = Sum, "wal", "replays";
        /// Torn/corrupt log tails truncated during recovery (at most one per open:
        /// the bytes a crashed writer left behind).
        wal_torn_truncations = Sum, "wal", "torn-tail truncations";
        /// Snapshot compactions performed (explicit `compact` calls plus automatic
        /// threshold-triggered ones).
        wal_compactions = Sum, "wal", "compactions";
        /// Group commits performed: log appends — one write, one fsync — that made
        /// at least one transaction record durable. Every logged transaction append
        /// is a group: the server's commit of concurrently submitted transactions, an
        /// engine-direct `insert`/`retract`/`Txn::commit` (a group of one), a
        /// follower's append of a shipped batch. An append of source records alone
        /// (rule registrations, bulk loads) is not a transaction and is not counted.
        wal_group_commits = Sum, "wal", "group commits";
        /// Transaction records made durable by those appends (source records riding
        /// in a shipped batch excluded); see [`EvalStats::txns_per_fsync`].
        wal_group_txns = Sum, "wal", "group txns";
        /// Cooperative governance polls performed (join-loop countdown expiries plus
        /// round-boundary checks). Zero when no limit, deadline, or cancel token is
        /// armed — the guardrails cost nothing until someone asks for them.
        cancel_checks = Sum, "governance", "cancel checks";
        /// Evaluations aborted by a resource limit (deadline, derived-fact cap,
        /// memory budget) or an explicit cancellation.
        limit_aborts = Sum, "governance", "limit aborts";
        /// Panics caught at the engine's containment boundary and converted into
        /// structured errors.
        worker_panics = Sum, "governance", "worker panics";
    }
    also {
        /// New facts per predicate.
        pub facts_per_predicate: FxHashMap<Symbol, usize>,
        /// Inferences per rule (indexed by rule position in the program).
        pub inferences_per_rule: Vec<usize>,
        /// Phase spans and per-rule profiles, collected when
        /// [`EvalOptions::trace`](super::EvalOptions) is on; `None` otherwise (the
        /// disabled-tracing fast path is a branch on this option).
        pub profile: Option<Box<EvalProfile>>,
    }
}

impl EvalStats {
    /// Create statistics for a program with `rule_count` rules.
    pub fn new(rule_count: usize) -> EvalStats {
        EvalStats {
            inferences_per_rule: vec![0; rule_count],
            ..EvalStats::default()
        }
    }

    /// Record one successful inference by rule `rule_index`; `is_new` says whether
    /// the derived fact was new. The evaluator counts new facts per predicate once
    /// per round, from what the round staged (`facts_per_predicate`).
    pub fn record_inference(&mut self, rule_index: usize, is_new: bool) {
        self.inferences += 1;
        if let Some(slot) = self.inferences_per_rule.get_mut(rule_index) {
            *slot += 1;
        }
        if is_new {
            self.facts_derived += 1;
        } else {
            self.duplicates += 1;
        }
    }

    /// Number of facts derived for one predicate.
    pub fn facts_for(&self, predicate: Symbol) -> usize {
        self.facts_per_predicate
            .get(&predicate)
            .copied()
            .unwrap_or(0)
    }

    /// Drain one rule's join counters into these statistics.
    pub fn absorb_join_counters(&mut self, counters: crate::eval::join::JoinCounters) {
        self.index_probes += counters.index_probes;
        self.full_scans += counters.full_scans;
        self.membership_checks += counters.membership_checks;
        self.cancel_checks += counters.cancel_checks;
    }

    /// Record one enumeration of a dying derivation by rule `rule_index` during the
    /// over-delete phase; `is_new` says whether the head fact was newly scheduled for
    /// deletion (as opposed to already scheduled this batch).
    pub fn record_retraction(&mut self, rule_index: usize, is_new: bool) {
        self.inferences += 1;
        if let Some(slot) = self.inferences_per_rule.get_mut(rule_index) {
            *slot += 1;
        }
        if is_new {
            self.retractions += 1;
        } else {
            self.duplicates += 1;
        }
    }

    /// Record one surviving derivation enumerated by the re-derivation pass;
    /// `is_new` says whether it restored a fact (its first surviving derivation).
    pub fn record_rederivation(&mut self, rule_index: usize, is_new: bool) {
        self.inferences += 1;
        if let Some(slot) = self.inferences_per_rule.get_mut(rule_index) {
            *slot += 1;
        }
        if is_new {
            self.rederivations += 1;
        }
    }

    /// Record a prepared-plan cache lookup.
    pub fn record_plan_lookup(&mut self, hit: bool) {
        if hit {
            self.plan_cache_hits += 1;
        } else {
            self.plan_cache_misses += 1;
        }
    }

    /// Mean number of transactions one group commit — one fsync — made durable
    /// (`wal_group_txns / wal_group_commits`); 0 before the first.
    pub fn txns_per_fsync(&self) -> f64 {
        match self.wal_group_commits {
            0 => 0.0,
            commits => self.wal_group_txns as f64 / commits as f64,
        }
    }

    /// Merge another statistics object into this one: every declared counter by
    /// its policy, the per-predicate and per-rule tallies summed, the profiles
    /// merged. Session engines use this to accumulate per-call results into
    /// cumulative per-session counters.
    pub fn merge(&mut self, other: &EvalStats) {
        self.merge_counters(other);
        for (&p, &n) in &other.facts_per_predicate {
            *self.facts_per_predicate.entry(p).or_insert(0) += n;
        }
        if self.inferences_per_rule.len() < other.inferences_per_rule.len() {
            self.inferences_per_rule
                .resize(other.inferences_per_rule.len(), 0);
        }
        for (i, n) in other.inferences_per_rule.iter().enumerate() {
            self.inferences_per_rule[i] += n;
        }
        if let Some(theirs) = &other.profile {
            self.profile.get_or_insert_with(Box::default).merge(theirs);
        }
    }
}

/// The `:stats` form: one row per group of counters ([`rows`]), then the facts
/// derived per predicate.
impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&rows(self.readings()))?;
        let mut preds: Vec<_> = self.facts_per_predicate.iter().collect();
        preds.sort_by_key(|(p, _)| p.as_str());
        for (p, n) in preds {
            write!(f, "\n  {p}: {n} facts")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Merge, Reading};

    #[test]
    fn merge_sums_counters() {
        let p = Symbol::intern("q");
        let mut a = EvalStats::new(1);
        a.iterations = 3;
        a.record_inference(0, true);
        a.facts_per_predicate.insert(p, 1);
        let mut b = EvalStats::new(2);
        b.iterations = 5;
        b.record_inference(1, true);
        b.record_inference(1, false);
        b.facts_per_predicate.insert(p, 1);
        a.merge(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.inferences, 3);
        assert_eq!(a.facts_derived, 2);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.facts_for(p), 2);
        assert_eq!(a.inferences_per_rule, vec![1, 2]);
    }

    #[test]
    fn plan_cache_counters_record_and_merge() {
        let mut a = EvalStats::new(0);
        a.record_plan_lookup(false);
        a.record_plan_lookup(true);
        a.record_plan_lookup(true);
        assert_eq!(a.plan_cache_hits, 2);
        assert_eq!(a.plan_cache_misses, 1);
        let mut b = EvalStats::new(0);
        b.record_plan_lookup(true);
        a.merge(&b);
        assert_eq!(a.plan_cache_hits, 3);
        assert_eq!(a.plan_cache_misses, 1);
        let text = format!("{a}");
        assert!(text.contains("plan cache: hits 3, misses 1"), "{text}");
    }

    #[test]
    fn mutation_counters_record_merge_and_display() {
        let mut a = EvalStats::new(2);
        a.record_retraction(0, true);
        a.record_retraction(0, false);
        a.record_rederivation(1, true);
        a.record_rederivation(1, false);
        a.delete_rounds = 2;
        assert_eq!(a.retractions, 1);
        assert_eq!(a.rederivations, 1);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.inferences, 4);
        assert_eq!(a.inferences_per_rule, vec![2, 2]);
        let mut b = EvalStats::new(0);
        b.retractions = 3;
        b.rederivations = 2;
        b.delete_rounds = 1;
        a.merge(&b);
        assert_eq!(a.retractions, 4);
        assert_eq!(a.rederivations, 3);
        assert_eq!(a.delete_rounds, 3);
        let text = format!("{a}");
        assert!(
            text.contains("mutations: retractions 4, rederivations 3, delete rounds 3"),
            "{text}"
        );
    }

    #[test]
    fn durability_counters_merge_and_display() {
        let mut a = EvalStats::new(0);
        a.wal_appends = 5;
        a.wal_compactions = 1;
        let mut b = EvalStats::new(0);
        b.wal_replays = 3;
        b.wal_torn_truncations = 1;
        a.merge(&b);
        assert_eq!(a.wal_appends, 5);
        assert_eq!(a.wal_replays, 3);
        assert_eq!(a.wal_torn_truncations, 1);
        assert_eq!(a.wal_compactions, 1);
        let text = format!("{a}");
        assert!(
            text.contains("wal: appends 5, replays 3, torn-tail truncations 1, compactions 1"),
            "{text}"
        );
        // In-memory runs show a dash, not a row of zeros.
        assert!(format!("{}", EvalStats::new(0)).contains("wal: —"));
    }

    #[test]
    fn governance_counters_merge_and_display() {
        let mut a = EvalStats::new(0);
        a.cancel_checks = 4;
        a.limit_aborts = 1;
        let mut b = EvalStats::new(0);
        b.cancel_checks = 6;
        b.worker_panics = 2;
        a.merge(&b);
        assert_eq!(a.cancel_checks, 10);
        assert_eq!(a.limit_aborts, 1);
        assert_eq!(a.worker_panics, 2);
        let text = format!("{a}");
        assert!(
            text.contains("governance: cancel checks 10, limit aborts 1, worker panics 2"),
            "{text}"
        );
        // Runs with no guardrails armed show a dash.
        assert!(format!("{}", EvalStats::new(0)).contains("governance: —"));
    }

    /// A value with every declared counter set to a distinct non-zero number
    /// derived from `seed` (what the table-driven tests of every surface start from).
    fn populated(seed: usize) -> EvalStats {
        let mut stats = EvalStats::new(0);
        for (i, (_, counter)) in stats.counters_mut().enumerate() {
            *counter = seed + 7 * i + 1;
        }
        stats
    }

    #[test]
    fn merge_applies_every_declared_policy() {
        for (left, right) in [(100, 1000), (1000, 100), (7, 7), (0, 3)] {
            let (a, b) = (populated(left), populated(right));
            let mut merged = a.clone();
            merged.merge(&b);
            let inputs = a.readings().zip(b.readings());
            for ((instrument, got), ((_, a), (_, b))) in merged.readings().zip(inputs) {
                let (Reading::Count(got), Reading::Count(a), Reading::Count(b)) = (got, a, b)
                else {
                    panic!("{} is not a count", instrument.name);
                };
                let policy = instrument.merge.expect("every counter declares a policy");
                assert_eq!(got, policy.apply(a, b), "{}", instrument.name);
            }
        }
        let by_name = |name: &str| {
            let found = EvalStats::INSTRUMENTS.iter().find(|i| i.name == name);
            found.expect("declared").merge
        };
        assert_eq!(by_name("iterations"), Some(Merge::Max));
        assert_eq!(by_name("inferences"), Some(Merge::Sum));
    }

    #[test]
    fn display_shows_every_declared_counter_under_its_label() {
        let stats = populated(40);
        let text = format!("{stats}");
        for (instrument, reading) in stats.readings() {
            let cell = format!("{} {reading}", instrument.label);
            let row = text.lines().find(|line| line.contains(&cell));
            let row = row.unwrap_or_else(|| panic!("no `{cell}` in:\n{text}"));
            assert!(row.starts_with(&format!("{}: ", instrument.group)), "{row}");
        }
        let ratio = stats.wal_group_txns as f64 / stats.wal_group_commits as f64;
        assert_eq!(stats.txns_per_fsync(), ratio);
        assert_eq!(EvalStats::new(0).txns_per_fsync(), 0.0);
    }

    #[test]
    fn merge_creates_a_profile_when_only_the_source_has_one() {
        let mut a = EvalStats::new(0);
        let mut b = EvalStats::new(1);
        let mut profile = EvalProfile::new(1);
        profile.record_rule_firing(0, 7);
        b.profile = Some(Box::new(profile));
        a.merge(&b);
        assert_eq!(a.profile.expect("profile carried over").rules[0].firings, 1);
    }

    #[test]
    fn display_mentions_all_counts() {
        let mut s = EvalStats::new(1);
        s.iterations = 2;
        s.record_inference(0, true);
        s.facts_per_predicate.insert(Symbol::intern("t"), 1);
        let text = format!("{s}");
        assert!(text.contains("eval: iterations 2, inferences 1"), "{text}");
        assert!(text.contains("t: 1 facts"));
    }
}
