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

use super::trace::EvalProfile;

/// Counters collected during one evaluation run.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Number of fixpoint iterations (semi-naive rounds or naive passes).
    pub iterations: usize,
    /// Number of successful rule-body instantiations (each is one inference).
    pub inferences: usize,
    /// Number of inferences whose head fact was already known.
    pub duplicates: usize,
    /// Number of new facts added to the IDB.
    pub facts_derived: usize,
    /// New facts per predicate.
    pub facts_per_predicate: FxHashMap<Symbol, usize>,
    /// Inferences per rule (indexed by rule position in the program).
    pub inferences_per_rule: Vec<usize>,
    /// Prepared-plan cache hits (queries answered by replaying a cached compiled
    /// plan). Recorded by the session engine; zero for one-shot evaluations.
    pub plan_cache_hits: usize,
    /// Prepared-plan cache misses (queries that ran the full optimization pipeline).
    pub plan_cache_misses: usize,
    /// Prepared plans evicted from the engine's bounded cache.
    pub plan_cache_evictions: usize,
    /// Hash-index probes performed by the join pipeline (each replaces a scan of the
    /// probed relation).
    pub index_probes: usize,
    /// Full relation scans performed by the join pipeline (literals with no usable
    /// index, or with no bound position).
    pub full_scans: usize,
    /// Fully-bound literal instantiations answered by a membership check against the
    /// relation's dedup table.
    pub membership_checks: usize,
    /// Join scratch-buffer constructions. The evaluators allocate one scratch per rule
    /// per evaluation and reuse it across every `fire` call, so this stays equal to
    /// the rule count no matter how many rows flow through the join.
    pub scratch_allocs: usize,
    /// Rules whose body-literal order was changed by the selectivity heuristic
    /// (bound-position count, then relation size) at plan time.
    pub literal_reorders: usize,
    /// Facts removed from the model by delete propagation: retracted base facts plus
    /// every derived fact the over-delete phase scheduled (some of which the
    /// re-derivation phase restores — see `rederivations`).
    pub retractions: usize,
    /// Over-deleted facts restored because the re-derivation pass found a surviving
    /// derivation (or a surviving base fact).
    pub rederivations: usize,
    /// Fixpoint rounds of the over-delete (negative-delta) phase.
    pub delete_rounds: usize,
    /// Records appended to the durable session's transaction log (one per
    /// committed transaction batch or absorbed source text; on a follower, one
    /// per shipped record). Zero for in-memory sessions and one-shot evaluations.
    pub wal_appends: usize,
    /// Log records replayed through the transactional path when the session was
    /// recovered at startup.
    pub wal_replays: usize,
    /// Torn/corrupt log tails truncated during recovery (at most one per open:
    /// the bytes a crashed writer left behind).
    pub wal_torn_truncations: usize,
    /// Snapshot compactions performed (explicit `compact` calls plus automatic
    /// threshold-triggered ones).
    pub wal_compactions: usize,
    /// Group commits performed: log appends — one write, one fsync — that made
    /// at least one transaction record durable. Every logged transaction append
    /// is a group: the server's commit of concurrently submitted transactions, an
    /// engine-direct `insert`/`retract`/`Txn::commit` (a group of one), a
    /// follower's append of a shipped batch. An append of source records alone
    /// (rule registrations, bulk loads) is not a transaction and is not counted.
    pub wal_group_commits: usize,
    /// Transaction records made durable by those appends (source records riding
    /// in a shipped batch excluded); `wal_group_txns / wal_group_commits` is the
    /// mean number of transactions one fsync was amortized over.
    pub wal_group_txns: usize,
    /// Cooperative governance polls performed (join-loop countdown expiries plus
    /// round-boundary checks). Zero when no limit, deadline, or cancel token is
    /// armed — the guardrails cost nothing until someone asks for them.
    pub cancel_checks: usize,
    /// Evaluations aborted by a resource limit (deadline, derived-fact cap,
    /// memory budget) or an explicit cancellation.
    pub limit_aborts: usize,
    /// Panics caught at the engine's containment boundary and converted into
    /// structured errors.
    pub worker_panics: usize,
    /// Phase spans and per-rule profiles, collected when
    /// [`EvalOptions::trace`](super::EvalOptions) is on; `None` otherwise (the
    /// disabled-tracing fast path is a branch on this option).
    pub profile: Option<Box<EvalProfile>>,
}

impl EvalStats {
    /// Create statistics for a program with `rule_count` rules.
    pub fn new(rule_count: usize) -> EvalStats {
        EvalStats {
            inferences_per_rule: vec![0; rule_count],
            ..EvalStats::default()
        }
    }

    /// Record one successful inference of `predicate` by rule `rule_index`; `is_new`
    /// says whether the derived fact was new.
    pub fn record_inference(&mut self, rule_index: usize, predicate: Symbol, is_new: bool) {
        self.inferences += 1;
        if let Some(slot) = self.inferences_per_rule.get_mut(rule_index) {
            *slot += 1;
        }
        if is_new {
            self.facts_derived += 1;
            *self.facts_per_predicate.entry(predicate).or_insert(0) += 1;
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

    /// Drain one rule's join counters into these statistics (shared by the naive and
    /// semi-naive evaluators so a future counter cannot be absorbed in one but
    /// silently dropped in the other).
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

    /// Merge another statistics object into this one (summing counters, taking the max
    /// of iteration counts). Session engines use this to accumulate per-call results
    /// into cumulative per-session counters.
    ///
    /// The source is exhaustively destructured: adding a field to [`EvalStats`]
    /// without deciding its merge policy here is a compile error, not a counter
    /// that silently stops accumulating.
    pub fn merge(&mut self, other: &EvalStats) {
        let EvalStats {
            iterations,
            inferences,
            duplicates,
            facts_derived,
            facts_per_predicate,
            inferences_per_rule,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            index_probes,
            full_scans,
            membership_checks,
            scratch_allocs,
            literal_reorders,
            retractions,
            rederivations,
            delete_rounds,
            wal_appends,
            wal_replays,
            wal_torn_truncations,
            wal_compactions,
            wal_group_commits,
            wal_group_txns,
            cancel_checks,
            limit_aborts,
            worker_panics,
            profile,
        } = other;
        self.iterations = self.iterations.max(*iterations);
        self.inferences += inferences;
        self.duplicates += duplicates;
        self.facts_derived += facts_derived;
        self.plan_cache_hits += plan_cache_hits;
        self.plan_cache_misses += plan_cache_misses;
        self.plan_cache_evictions += plan_cache_evictions;
        self.index_probes += index_probes;
        self.full_scans += full_scans;
        self.membership_checks += membership_checks;
        self.scratch_allocs += scratch_allocs;
        self.literal_reorders += literal_reorders;
        self.retractions += retractions;
        self.rederivations += rederivations;
        self.delete_rounds += delete_rounds;
        self.wal_appends += wal_appends;
        self.wal_replays += wal_replays;
        self.wal_torn_truncations += wal_torn_truncations;
        self.wal_compactions += wal_compactions;
        self.wal_group_commits += wal_group_commits;
        self.wal_group_txns += wal_group_txns;
        self.cancel_checks += cancel_checks;
        self.limit_aborts += limit_aborts;
        self.worker_panics += worker_panics;
        for (&p, &n) in facts_per_predicate {
            *self.facts_per_predicate.entry(p).or_insert(0) += n;
        }
        if self.inferences_per_rule.len() < inferences_per_rule.len() {
            self.inferences_per_rule
                .resize(inferences_per_rule.len(), 0);
        }
        for (i, n) in inferences_per_rule.iter().enumerate() {
            self.inferences_per_rule[i] += n;
        }
        if let Some(theirs) = profile {
            self.profile.get_or_insert_with(Box::default).merge(theirs);
        }
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "iterations: {}, inferences: {}, facts derived: {}, duplicates: {}",
            self.iterations, self.inferences, self.facts_derived, self.duplicates
        )?;
        if self.plan_cache_hits + self.plan_cache_misses > 0 {
            writeln!(
                f,
                "plan cache: {} hits, {} misses, {} evicted",
                self.plan_cache_hits, self.plan_cache_misses, self.plan_cache_evictions
            )?;
        }
        if self.index_probes + self.full_scans + self.membership_checks > 0 {
            writeln!(
                f,
                "joins: {} index probes, {} full scans, {} membership checks, {} scratch allocations",
                self.index_probes, self.full_scans, self.membership_checks, self.scratch_allocs
            )?;
        }
        if self.literal_reorders > 0 {
            writeln!(f, "plan: {} body literal reorder(s)", self.literal_reorders)?;
        }
        if self.retractions + self.rederivations + self.delete_rounds > 0 {
            writeln!(
                f,
                "mutations: {} retractions, {} rederivations, {} delete rounds",
                self.retractions, self.rederivations, self.delete_rounds
            )?;
        }
        if self.wal_appends + self.wal_replays + self.wal_torn_truncations + self.wal_compactions
            > 0
        {
            writeln!(
                f,
                "durability: {} wal appends, {} replays, {} torn-tail truncations, {} compactions",
                self.wal_appends, self.wal_replays, self.wal_torn_truncations, self.wal_compactions
            )?;
        }
        if self.wal_group_commits > 0 {
            writeln!(
                f,
                "group commit: {} group(s) covering {} txn(s) ({:.1} txns/fsync)",
                self.wal_group_commits,
                self.wal_group_txns,
                self.wal_group_txns as f64 / self.wal_group_commits as f64
            )?;
        }
        if self.cancel_checks + self.limit_aborts + self.worker_panics > 0 {
            writeln!(
                f,
                "governance: {} cancel checks, {} limit aborts, {} worker panics",
                self.cancel_checks, self.limit_aborts, self.worker_panics
            )?;
        }
        let mut preds: Vec<_> = self.facts_per_predicate.iter().collect();
        preds.sort_by_key(|(p, _)| p.as_str());
        for (p, n) in preds {
            writeln!(f, "  {p}: {n} facts")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_inference_updates_counters() {
        let mut s = EvalStats::new(2);
        let p = Symbol::intern("t");
        s.record_inference(0, p, true);
        s.record_inference(0, p, true);
        s.record_inference(1, p, false);
        assert_eq!(s.inferences, 3);
        assert_eq!(s.facts_derived, 2);
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.facts_for(p), 2);
        assert_eq!(s.inferences_per_rule, vec![2, 1]);
    }

    #[test]
    fn merge_sums_counters() {
        let p = Symbol::intern("q");
        let mut a = EvalStats::new(1);
        a.iterations = 3;
        a.record_inference(0, p, true);
        let mut b = EvalStats::new(2);
        b.iterations = 5;
        b.record_inference(1, p, true);
        b.record_inference(1, p, false);
        a.merge(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.inferences, 3);
        assert_eq!(a.facts_derived, 2);
        assert_eq!(a.duplicates, 1);
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
        assert!(text.contains("plan cache: 3 hits, 1 misses"));
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
        assert!(text.contains("mutations: 4 retractions, 3 rederivations, 3 delete rounds"));
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
            text.contains(
                "durability: 5 wal appends, 3 replays, 1 torn-tail truncations, 1 compactions"
            ),
            "{text}"
        );
        // In-memory runs show no durability line.
        assert!(!format!("{}", EvalStats::new(0)).contains("durability"));
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
            text.contains("governance: 10 cancel checks, 1 limit aborts, 2 worker panics"),
            "{text}"
        );
        // Runs with no guardrails armed show no governance line.
        assert!(!format!("{}", EvalStats::new(0)).contains("governance"));
    }

    #[test]
    fn merge_covers_every_field() {
        // Build a stats value with EVERY field populated, via a full struct
        // literal (no `..Default`): adding a field to `EvalStats` breaks this
        // constructor — and `merge`'s exhaustive destructuring — at compile
        // time, so a new counter cannot silently miss merging.
        fn populated(seed: usize) -> EvalStats {
            let mut profile = EvalProfile::new(2);
            profile.record_rule_firing(0, seed as u64);
            profile.record_rule_row(0, true);
            profile.record_phase("eval.round", std::time::Duration::from_nanos(seed as u64));
            EvalStats {
                iterations: seed + 1,
                inferences: seed + 2,
                duplicates: seed + 3,
                facts_derived: seed + 4,
                facts_per_predicate: FxHashMap::from_iter([(Symbol::intern("t"), seed + 5)]),
                inferences_per_rule: vec![seed + 6, seed + 7],
                plan_cache_hits: seed + 8,
                plan_cache_misses: seed + 9,
                plan_cache_evictions: seed + 10,
                index_probes: seed + 11,
                full_scans: seed + 12,
                membership_checks: seed + 13,
                scratch_allocs: seed + 14,
                literal_reorders: seed + 15,
                retractions: seed + 19,
                rederivations: seed + 20,
                delete_rounds: seed + 21,
                wal_appends: seed + 22,
                wal_replays: seed + 23,
                wal_torn_truncations: seed + 24,
                wal_compactions: seed + 25,
                wal_group_commits: seed + 29,
                wal_group_txns: seed + 30,
                cancel_checks: seed + 26,
                limit_aborts: seed + 27,
                worker_panics: seed + 28,
                profile: Some(Box::new(profile)),
            }
        }
        let mut merged = populated(100);
        merged.merge(&populated(1000));
        // Destructure the result so this assertion block, too, must be updated
        // when a field is added.
        let EvalStats {
            iterations,
            inferences,
            duplicates,
            facts_derived,
            facts_per_predicate,
            inferences_per_rule,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            index_probes,
            full_scans,
            membership_checks,
            scratch_allocs,
            literal_reorders,
            retractions,
            rederivations,
            delete_rounds,
            wal_appends,
            wal_replays,
            wal_torn_truncations,
            wal_compactions,
            wal_group_commits,
            wal_group_txns,
            cancel_checks,
            limit_aborts,
            worker_panics,
            profile,
        } = merged;
        assert_eq!(iterations, 1001, "iterations merge by max");
        assert_eq!(inferences, 102 + 1002);
        assert_eq!(duplicates, 103 + 1003);
        assert_eq!(facts_derived, 104 + 1004);
        assert_eq!(facts_per_predicate[&Symbol::intern("t")], 105 + 1005);
        assert_eq!(inferences_per_rule, vec![106 + 1006, 107 + 1007]);
        assert_eq!(plan_cache_hits, 108 + 1008);
        assert_eq!(plan_cache_misses, 109 + 1009);
        assert_eq!(plan_cache_evictions, 110 + 1010);
        assert_eq!(index_probes, 111 + 1011);
        assert_eq!(full_scans, 112 + 1012);
        assert_eq!(membership_checks, 113 + 1013);
        assert_eq!(scratch_allocs, 114 + 1014);
        assert_eq!(literal_reorders, 115 + 1015);
        assert_eq!(retractions, 119 + 1019);
        assert_eq!(rederivations, 120 + 1020);
        assert_eq!(delete_rounds, 121 + 1021);
        assert_eq!(wal_appends, 122 + 1022);
        assert_eq!(wal_replays, 123 + 1023);
        assert_eq!(wal_torn_truncations, 124 + 1024);
        assert_eq!(wal_compactions, 125 + 1025);
        assert_eq!(wal_group_commits, 129 + 1029);
        assert_eq!(wal_group_txns, 130 + 1030);
        assert_eq!(cancel_checks, 126 + 1026);
        assert_eq!(limit_aborts, 127 + 1027);
        assert_eq!(worker_panics, 128 + 1028);
        let profile = profile.expect("profiles merge rather than drop");
        assert_eq!(profile.rules[0].firings, 2);
        assert_eq!(profile.rules[0].time_ns, 100 + 1000);
        assert_eq!(profile.phases["eval.round"].count, 2);
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
        s.record_inference(0, Symbol::intern("t"), true);
        let text = format!("{s}");
        assert!(text.contains("iterations: 2"));
        assert!(text.contains("t: 1 facts"));
    }
}
