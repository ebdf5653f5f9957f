//! Semi-naive bottom-up evaluation.
//!
//! The standard delta-driven fixpoint: each IDB predicate keeps a `full` relation and a
//! `delta` of facts derived in the previous round; in each round a rule with `k` IDB
//! body literals is fired `k` times, once with the delta substituted for each IDB
//! occurrence, so every inference uses at least one fact that is new. Duplicate
//! derivations across the `k` firings are removed by the staging relation.
//!
//! This is the evaluation strategy the paper assumes when it speaks of "semi-naive
//! bottom-up evaluation of the new program" (§1).
//!
//! Two entry points beyond the classic [`seminaive_evaluate`] support the persistent
//! engine (`factorlog-engine`):
//!
//! * [`CompiledProgram`] + [`seminaive_evaluate_compiled`] — compile a program's rules
//!   once and replay the compiled plan over many databases (the prepared-query path);
//! * [`seminaive_maintain`] — bring an *existing* least model up to date with one
//!   update of its base facts: DRed-shaped over-delete/re-derive propagation of the
//!   retracted facts, then one seeded round for the restored and inserted facts,
//!   deriving only consequences that use at least one of them instead of
//!   re-evaluating from scratch.

use std::collections::BTreeSet;

use crate::ast::{Atom, Const, Program, Rule};
use crate::fault::FaultSite;
use crate::fx::FxHashMap;
use crate::storage::{Database, Relation};
use crate::symbol::Symbol;

use super::join::{reorder_body, CompiledRule, EvalOptions, Governor, JoinScratch, RuleAccess};
use super::stats::EvalStats;
use super::trace::EvalProfile;
use super::{arity_map, EvalError, EvalResult};

/// Start a phase timer iff the run is being traced — the disabled-tracing cost
/// of every span site is this one branch on the profile option.
#[inline]
fn span_start(stats: &EvalStats) -> Option<std::time::Instant> {
    stats.profile.is_some().then(std::time::Instant::now)
}

/// Close a phase timer opened by [`span_start`].
#[inline]
fn span_end(stats: &mut EvalStats, name: &'static str, start: Option<std::time::Instant>) {
    if let (Some(profile), Some(start)) = (stats.profile.as_deref_mut(), start) {
        profile.record_phase(name, start.elapsed());
    }
}

/// Fresh statistics for a traced or untraced run of `rule_count` rules.
fn stats_for_run(rule_count: usize, options: &EvalOptions) -> EvalStats {
    let mut stats = EvalStats::new(rule_count);
    if options.trace {
        stats.profile = Some(Box::new(EvalProfile::new(rule_count)));
    }
    stats
}

/// A program validated and compiled for semi-naive evaluation: the reusable plan.
///
/// Compilation (validation, IDB classification, variable-slot assignment, bound-position
/// analysis, per-predicate index planning) happens once; the plan can then be replayed
/// over any number of databases with [`seminaive_evaluate_compiled`] or maintained
/// incrementally with [`seminaive_maintain`]. This is what the prepared-query cache
/// stores.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    program: Program,
    idb: BTreeSet<Symbol>,
    rules: Vec<CompiledRule>,
    /// For each predicate, the column subsets some rule probes it on — the indexes to
    /// maintain on the database relation *and* on the semi-naive delta relations, so
    /// recursive-literal delta joins probe instead of scanning.
    index_plan: FxHashMap<Symbol, Vec<Vec<usize>>>,
}

impl CompiledProgram {
    /// Validate and compile `program`.
    pub fn compile(program: &Program) -> Result<CompiledProgram, EvalError> {
        crate::validate::check_program(program).map_err(EvalError::Invalid)?;
        let idb = program.idb_predicates();
        let rules: Vec<CompiledRule> = program
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| CompiledRule::compile(i, r, &|p| idb.contains(&p)))
            .collect();
        let index_plan = build_index_plan(&rules);
        Ok(CompiledProgram {
            program: program.clone(),
            idb,
            rules,
            index_plan,
        })
    }

    /// The source program this plan was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The IDB predicates (head predicates) of the compiled program.
    pub fn idb(&self) -> &BTreeSet<Symbol> {
        &self.idb
    }

    /// The per-evaluation plan: the compiled rules, with bodies greedily reordered
    /// against the starting database's relation sizes (most bound argument positions
    /// first, then smallest relation — the ROADMAP's selectivity heuristic). Bodies
    /// containing the virtual `succ/2` builtin are never reordered (its evaluability is
    /// position-dependent), so the set of derived facts is unaffected. Reordering
    /// re-derives the affected rules' bound-position analysis and the index plan, so
    /// delta indexes always match the effective join order. The compile-time rules
    /// are borrowed unchanged when no rule moves.
    fn plan(&self, db: &Database) -> EvalPlan<'_> {
        let mut reordered: Option<Vec<CompiledRule>> = None;
        let mut reorders = 0usize;
        for (i, rule) in self.program.rules.iter().enumerate() {
            if let Some(better) = reorder_body(rule, 0, db) {
                let rules = reordered.get_or_insert_with(|| self.rules.clone());
                rules[i] = CompiledRule::compile(i, &better, &|p| self.idb.contains(&p));
                reorders += 1;
            }
        }
        let reordered_index_plan = reordered.as_deref().map(build_index_plan);
        EvalPlan {
            compiled: self,
            reordered,
            reordered_index_plan,
            reorders,
        }
    }
}

/// For each predicate, the column subsets some rule probes it on — the indexes to
/// maintain on the database relation *and* on the semi-naive delta relations, so
/// recursive-literal delta joins probe instead of scanning.
fn build_index_plan(rules: &[CompiledRule]) -> FxHashMap<Symbol, Vec<Vec<usize>>> {
    let mut index_plan: FxHashMap<Symbol, Vec<Vec<usize>>> = FxHashMap::default();
    for rule in rules {
        for literal in &rule.literals {
            if !literal.wants_index() {
                continue;
            }
            let bound = &literal.bound_positions;
            let sets = index_plan.entry(literal.predicate).or_default();
            if !sets.iter().any(|s| s == bound) {
                sets.push(bound.clone());
            }
        }
    }
    index_plan
}

/// A [`CompiledProgram`] specialized to one evaluation: body literals reordered by
/// the selectivity heuristic against the starting database, with the
/// matching index plan. Borrows the compile-time artifacts when nothing moved.
struct EvalPlan<'a> {
    compiled: &'a CompiledProgram,
    /// Recompiled rules when at least one body was reordered; `None` = compile order.
    reordered: Option<Vec<CompiledRule>>,
    /// Index plan matching `reordered` (bound positions change with the order).
    reordered_index_plan: Option<FxHashMap<Symbol, Vec<Vec<usize>>>>,
    /// Number of rules whose body order changed (recorded on the statistics).
    reorders: usize,
}

impl EvalPlan<'_> {
    /// The effective compiled rules of this evaluation.
    fn rules(&self) -> &[CompiledRule] {
        self.reordered.as_deref().unwrap_or(&self.compiled.rules)
    }

    /// The effective index plan of this evaluation.
    fn index_plan(&self) -> &FxHashMap<Symbol, Vec<Vec<usize>>> {
        self.reordered_index_plan
            .as_ref()
            .unwrap_or(&self.compiled.index_plan)
    }

    /// The delta-first variants of the program's rules, as a plan of their own — what
    /// delete propagation fires. First, every rule once per body literal with that
    /// literal moved to the front: a delta substituted for it drives the join, and the
    /// rest of the body is ordered greedily behind it, so a firing probes for what the
    /// delta touches instead of walking the model. Then, from the returned slot on,
    /// every rule once more behind a *guard* that repeats its head: over-deleted
    /// candidates substituted for the guard bind the head to each of them in turn.
    /// (Moving one literal to the front keeps a virtual `succ/2` evaluable — it sees a
    /// superset of its source-order bindings — and such bodies are not reordered
    /// further.) A delta leads every body, so delta relations need no indexes: the
    /// plan's index plan is empty.
    fn delta_first(&self, db: &Database) -> (EvalPlan<'_>, usize) {
        let compiled = self.compiled;
        let compile = |rule_index: usize, head: &Atom, body: Vec<Atom>| {
            let rule = Rule::new(head.clone(), body);
            let rule = reorder_body(&rule, 1, db).unwrap_or(rule);
            CompiledRule::compile(rule_index, &rule, &|p| compiled.idb.contains(&p))
        };
        let source = &compiled.program.rules;
        let mut rules = Vec::new();
        for (i, rule) in source.iter().enumerate() {
            for pos in 0..rule.body.len() {
                let mut body = rule.body.clone();
                body[..=pos].rotate_right(1);
                rules.push(compile(i, &rule.head, body));
            }
        }
        let guards = rules.len();
        for (i, rule) in source.iter().enumerate() {
            let body = std::iter::once(&rule.head).chain(&rule.body).cloned();
            rules.push(compile(i, &rule.head, body.collect()));
        }
        let plan = EvalPlan {
            compiled,
            reordered: Some(rules),
            reordered_index_plan: Some(FxHashMap::default()),
            reorders: 0,
        };
        (plan, guards)
    }

    /// Ensure `db` has a relation for every IDB predicate and every secondary index
    /// the compiled joins will probe; returns the arity map used for staging.
    fn prepare(&self, db: &mut Database) -> FxHashMap<Symbol, usize> {
        let arities = arity_map(&self.compiled.program, db);
        for &p in &self.compiled.idb {
            let arity = arities.get(&p).copied().unwrap_or(0);
            db.ensure_relation(p, arity);
        }
        for rule in self.rules() {
            rule.ensure_indexes(db, &arities);
        }
        arities
    }

    /// Fresh empty staging relations, one per IDB predicate, pre-indexed according to
    /// the effective index plan: the staging relation of one round is the delta of the
    /// next, so building its indexes up front (O(1) on an empty relation, maintained
    /// per insert) lets recursive-literal delta joins probe instead of scanning.
    fn empty_staging(&self, arities: &FxHashMap<Symbol, usize>) -> FxHashMap<Symbol, Relation> {
        let mut staging: FxHashMap<Symbol, Relation> = FxHashMap::default();
        for &p in &self.compiled.idb {
            let mut relation = Relation::new(arities.get(&p).copied().unwrap_or(0));
            if let Some(sets) = self.index_plan().get(&p) {
                for columns in sets {
                    relation.ensure_index(columns);
                }
            }
            staging.insert(p, relation);
        }
        staging
    }

    /// Per-evaluation join runtimes: resolved access paths plus a reusable scratch per
    /// rule. Build after [`EvalPlan::prepare`] (index resolution needs the indexes to
    /// exist) and reuse across every round of the fixpoint.
    fn runtimes(&self, db: &Database, stats: &mut EvalStats) -> Vec<RuleRuntime> {
        stats.scratch_allocs += self.rules().len();
        self.rules()
            .iter()
            .map(|rule| RuleRuntime {
                access: rule.resolve_access(db),
                scratch: rule.scratch(),
            })
            .collect()
    }
}

/// The per-evaluation mutable join state of one rule.
struct RuleRuntime {
    access: RuleAccess,
    scratch: JoinScratch,
}

/// Evaluate `program` over `edb` with semi-naive iteration.
pub fn seminaive_evaluate(
    program: &Program,
    edb: &Database,
    options: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    let compiled = CompiledProgram::compile(program)?;
    seminaive_evaluate_compiled(&compiled, edb, options)
}

/// Evaluate a pre-compiled plan over `edb` with semi-naive iteration. Equivalent to
/// [`seminaive_evaluate`] but skips validation and rule compilation — the replay path
/// for prepared queries.
pub fn seminaive_evaluate_compiled(
    compiled: &CompiledProgram,
    edb: &Database,
    options: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    seminaive_evaluate_owned(compiled, edb.clone(), options)
}

/// Like [`seminaive_evaluate_compiled`] but takes the starting database by value,
/// evaluating in place — for callers that already built a dedicated database (e.g. a
/// prepared plan injecting its seed facts) and don't need a second copy.
pub fn seminaive_evaluate_owned(
    compiled: &CompiledProgram,
    mut db: Database,
    options: &EvalOptions,
) -> Result<EvalResult, EvalError> {
    let mut stats = stats_for_run(compiled.rules.len(), options);
    let governor = Governor::new(options);
    let plan_start = span_start(&stats);
    let plan = compiled.plan(&db);
    let arities = plan.prepare(&mut db);
    stats.literal_reorders += plan.reorders;
    let mut runtimes = plan.runtimes(&db, &mut stats);
    arm_runtimes(&mut runtimes, &governor);
    span_end(&mut stats, "eval.plan", plan_start);

    // Round 0: fire every rule against the EDB alone (IDB relations are empty). Exit
    // rules and program facts produce the initial deltas; recursive rules find no IDB
    // facts and contribute nothing. (If the caller pre-loaded IDB facts — e.g. a
    // prepared plan injecting its magic seed — this full pass derives their direct
    // consequences too.)
    let mut delta = plan.empty_staging(&arities);
    stats.iterations += 1;
    let firings: Vec<Firing<'_>> = (0..plan.rules().len())
        .map(|rule_index| Firing {
            rule_index,
            delta: None,
        })
        .collect();
    let round_start = span_start(&stats);
    run_round(
        &plan,
        &db,
        &firings,
        &mut runtimes,
        &governor,
        Sink::Derive,
        &mut delta,
        &mut stats,
    )?;
    span_end(&mut stats, "eval.round", round_start);
    drop(firings);
    merge_deltas(&mut db, &delta);
    run_fixpoint(
        &plan,
        &mut db,
        delta,
        &arities,
        &mut runtimes,
        &governor,
        options,
        &mut stats,
    )?;

    Ok(EvalResult {
        database: db,
        stats,
    })
}

/// Maintain an existing least `model` under one update of its base facts: retract
/// `removed`, insert `added` — the incremental-maintenance primitive.
///
/// `model` must be a fixpoint of the compiled program over the EDB before the
/// update, with the retracted base facts **still present** and the inserted ones
/// not yet merged in. `removed` holds, per predicate, the base facts leaving (facts
/// not in the model are ignored); `added` the base facts arriving (facts the model
/// already holds after the deletions are ignored). Re-derivation counts only rules
/// as support: an over-deleted fact of a rule-defined predicate that was inserted
/// as a base fact stays deleted, so a caller that retracts keeps such assertions
/// under a predicate of their own (the engine's `p__asserted`).
///
/// Deletions are propagated DRed-shaped, against the pre-insert fixpoint; every
/// phase runs through the same compiled join pipeline:
///
/// 1. **Over-delete** — negative deltas: fire every rule once per body position whose
///    predicate has a deletion delta, against the *old* model, with that literal moved
///    to the front of the body so that the delta drives the join and everything else
///    is probed — the work follows the delta, never the model. Every emitted head
///    fact had a derivation touching a retracted fact, so it is scheduled for
///    deletion; the schedule is propagated to a fixpoint. This over-approximates for
///    facts with independent surviving derivations — deliberately: recursive
///    predicates can support themselves in cycles, so incremental derivation counts
///    cannot soundly decide survival under the evaluator's overlapping delta
///    discipline (an instantiation whose body facts arrive — or die — in the same
///    round is enumerated once per such position, so insert-side and delete-side
///    multiplicities need not cancel).
/// 2. **Remove** — every scheduled fact is removed from the model, one
///    [`Relation::remove`] each.
/// 3. **Re-derive from the candidates** — every rule whose head predicate lost facts
///    fires once against the post-removal model behind a guard literal that repeats
///    its head, with the over-deleted facts substituted for the guard (a Magic-style
///    filter on the head): each candidate binds the head and the body is probed for
///    it. A candidate with a surviving derivation is restored; existence is all that
///    matters, so nothing is counted.
/// 4. **Seed** — the restored facts and the inserted facts new to the model join it,
///    and seed one round that fires every rule once per body literal whose predicate
///    has a seed (EDB predicates included, which is what distinguishes it from an
///    ordinary semi-naive round); the ordinary delta-driven fixpoint propagates the
///    rest. After phase 3 every rule whose body lies in the surviving facts has its
///    head in the model, so the only missing consequences are those that use a seed,
///    and the seed round finds exactly those.
///
/// Returns the statistics of the run (`retractions` counts facts removed in step 2,
/// `rederivations` facts restored in step 3, `delete_rounds` the fixpoint rounds of
/// step 1); `model` is updated in place. On error the model may hold a partial
/// maintenance state; callers should discard and re-materialize it.
pub fn seminaive_maintain(
    compiled: &CompiledProgram,
    model: &mut Database,
    removed: &FxHashMap<Symbol, Relation>,
    added: &FxHashMap<Symbol, Relation>,
    options: &EvalOptions,
) -> Result<EvalStats, EvalError> {
    let mut stats = stats_for_run(compiled.rules.len(), options);
    let governor = Governor::new(options);

    // Seed the deletion schedule with the retracted base facts present in the model.
    let mut deleted: FxHashMap<Symbol, Relation> = FxHashMap::default();
    for (&pred, rel) in removed {
        let Some(target) = model.relation(pred).filter(|r| r.arity() == rel.arity()) else {
            continue;
        };
        let mut seed = Relation::new(rel.arity());
        for tuple in rel.iter().filter(|tuple| target.contains(tuple)) {
            seed.insert(tuple);
        }
        if !seed.is_empty() {
            stats.retractions += seed.len();
            deleted.insert(pred, seed);
        }
    }
    let plan_start = span_start(&stats);
    let plan = compiled.plan(model);
    let arities = plan.prepare(model);
    stats.literal_reorders += plan.reorders;
    let mut runtimes = plan.runtimes(model, &mut stats);
    arm_runtimes(&mut runtimes, &governor);
    // Phases 1 and 3 fire the delta-first variants of the rules; they form a plan of
    // their own, with its own runtimes.
    let delta_first = (!deleted.is_empty()).then(|| {
        let (delta_plan, guards) = plan.delta_first(model);
        delta_plan.prepare(model);
        let mut delta_runtimes = delta_plan.runtimes(model, &mut stats);
        arm_runtimes(&mut delta_runtimes, &governor);
        (delta_plan, guards, delta_runtimes)
    });
    span_end(&mut stats, "eval.plan", plan_start);

    // The facts new to the model since the pre-update fixpoint, which seed phase 4:
    // phase 3 restores into it, and the inserted facts join it.
    let mut seeds = plan.empty_staging(&arities);
    if let Some((delta_plan, guards, mut delta_runtimes)) = delta_first {
        // Phase 1 — over-delete fixpoint: negative deltas through the compiled firings.
        let overdelete_start = span_start(&stats);
        let mut delta: FxHashMap<Symbol, Relation> = deleted.clone();
        loop {
            governor.check_round(&mut stats, || estimated_bytes(model, &deleted))?;
            let firings = delta_first_firings(delta_plan.rules(), 0..guards, &delta);
            if firings.is_empty() {
                break;
            }
            if stats.delete_rounds >= options.max_iterations {
                return Err(EvalError::IterationLimit {
                    limit: options.max_iterations,
                });
            }
            stats.delete_rounds += 1;
            let mut staging = delta_plan.empty_staging(&arities);
            run_round(
                &delta_plan,
                model,
                &firings,
                &mut delta_runtimes,
                &governor,
                Sink::Retract { deleted: &deleted },
                &mut staging,
                &mut stats,
            )?;
            governor.fault_site(FaultSite::DeleteOverdelete)?;
            if staging.values().all(Relation::is_empty) {
                break;
            }
            for (&pred, rel) in &staging {
                if !rel.is_empty() {
                    deleted
                        .entry(pred)
                        .or_insert_with(|| Relation::new(rel.arity()))
                        .merge_from(rel);
                }
            }
            delta = staging;
        }
        span_end(&mut stats, "delete.overdelete", overdelete_start);

        // Phase 2 — remove every scheduled fact.
        let remove_start = span_start(&stats);
        for (&pred, rel) in &deleted {
            if let Some(target) = model.relation_mut(pred) {
                target.remove_all(rel);
            }
        }
        span_end(&mut stats, "delete.remove", remove_start);

        // Phase 3 — re-derive from the candidates: an over-deleted IDB fact with a
        // derivation from surviving facts is restored.
        if deleted.keys().any(|pred| compiled.idb.contains(pred)) {
            let rederive_start = span_start(&stats);
            let firings = delta_first_firings(
                delta_plan.rules(),
                guards..delta_plan.rules().len(),
                &deleted,
            );
            run_round(
                &delta_plan,
                model,
                &firings,
                &mut delta_runtimes,
                &governor,
                Sink::Rederive,
                &mut seeds,
                &mut stats,
            )?;
            governor.fault_site(FaultSite::DeleteRederive)?;
            span_end(&mut stats, "delete.rederive", rederive_start);
            merge_deltas(model, &seeds);
        }
    }

    // Phase 4 — the inserted facts new to the model join it and the seeds; one
    // round fires every rule once per body literal with a seed, and the ordinary
    // delta-driven fixpoint propagates its output.
    for (&pred, rel) in added {
        let target = model.ensure_relation(pred, rel.arity());
        let seed = seeds
            .entry(pred)
            .or_insert_with(|| Relation::new(rel.arity()));
        if target.arity() == rel.arity() {
            for tuple in rel.iter().filter(|tuple| target.insert(tuple)) {
                seed.insert(tuple);
            }
        }
    }
    let mut staging = plan.empty_staging(&arities);
    if seeds.values().any(|rel| !rel.is_empty()) {
        stats.iterations += 1;
        let mut firings: Vec<Firing<'_>> = Vec::new();
        for (rule_index, rule) in plan.rules().iter().enumerate() {
            for (pos, literal) in rule.literals.iter().enumerate() {
                if let Some(seed) = seeds.get(&literal.predicate).filter(|r| !r.is_empty()) {
                    firings.push(Firing {
                        rule_index,
                        delta: Some((pos, seed)),
                    });
                }
            }
        }
        let round_start = span_start(&stats);
        run_round(
            &plan,
            model,
            &firings,
            &mut runtimes,
            &governor,
            Sink::Derive,
            &mut staging,
            &mut stats,
        )?;
        span_end(&mut stats, "eval.round", round_start);
        merge_deltas(model, &staging);
    }
    run_fixpoint(
        &plan,
        model,
        staging,
        &arities,
        &mut runtimes,
        &governor,
        options,
        &mut stats,
    )?;
    Ok(stats)
}

/// One firing per rule of `rules[slots]` whose leading literal has a non-empty
/// relation in `deltas`, with that relation substituted for the literal.
fn delta_first_firings<'d>(
    rules: &[CompiledRule],
    slots: std::ops::Range<usize>,
    deltas: &'d FxHashMap<Symbol, Relation>,
) -> Vec<Firing<'d>> {
    slots
        .filter_map(|rule_index| {
            let relation = deltas.get(&rules[rule_index].literals.first()?.predicate)?;
            (!relation.is_empty()).then_some(Firing {
                rule_index,
                delta: Some((0, relation)),
            })
        })
        .collect()
}

/// The delta-driven fixpoint loop shared by full evaluation and incremental maintenance:
/// fire each rule once per IDB body literal with the delta substituted at that
/// literal, until no new facts appear.
#[allow(clippy::too_many_arguments)]
fn run_fixpoint(
    plan: &EvalPlan<'_>,
    db: &mut Database,
    mut delta: FxHashMap<Symbol, Relation>,
    arities: &FxHashMap<Symbol, usize>,
    runtimes: &mut [RuleRuntime],
    governor: &Governor,
    options: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    loop {
        // Guardrails are checked before the convergence test so a trip during
        // the previous round (cancellation, deadline, a join fault) surfaces
        // even when that round's truncated output left the delta empty.
        governor.check_round(stats, || estimated_bytes(db, &delta))?;
        if delta.values().all(Relation::is_empty) {
            break;
        }
        if stats.iterations >= options.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: options.max_iterations,
            });
        }
        stats.iterations += 1;

        let mut staging = plan.empty_staging(arities);
        {
            let mut firings: Vec<Firing<'_>> = Vec::new();
            for (rule_index, rule) in plan.rules().iter().enumerate() {
                for &pos in &rule.idb_literal_positions {
                    let body_pred = rule.literals[pos].predicate;
                    let delta_rel = delta.get(&body_pred).expect("idb delta exists");
                    if delta_rel.is_empty() {
                        continue;
                    }
                    firings.push(Firing {
                        rule_index,
                        delta: Some((pos, delta_rel)),
                    });
                }
            }
            let round_start = span_start(stats);
            run_round(
                plan,
                db,
                &firings,
                runtimes,
                governor,
                Sink::Derive,
                &mut staging,
                stats,
            )?;
            span_end(stats, "eval.round", round_start);
        }
        // The new delta is the staged facts not already in the full database; `staged`
        // was deduplicated against `db` during emission, so it is the delta directly.
        merge_deltas(db, &staging);
        delta = staging;
    }
    Ok(())
}

/// One scheduled rule firing of a round: the rule, and optionally the delta-substituted
/// body position with the relation standing in for it.
#[derive(Clone, Copy)]
struct Firing<'d> {
    rule_index: usize,
    delta: Option<(usize, &'d Relation)>,
}

/// What a round's emissions *mean* — the delta polarity of the round. All three modes
/// run through the same compiled firings; only the staging criterion at the emission
/// point differs.
#[derive(Clone, Copy)]
enum Sink<'a> {
    /// Positive deltas: stage emissions not already in the database (the ordinary
    /// semi-naive round).
    Derive,
    /// Negative deltas (the over-delete phase of retraction): stage emissions that
    /// are still present in the database and not already scheduled for deletion in
    /// `deleted` — every derivation that touches a retracted fact schedules its head.
    Retract {
        /// Facts already scheduled for deletion in earlier rounds of this batch.
        deleted: &'a FxHashMap<Symbol, Relation>,
    },
    /// The re-derivation pass: every emission is an over-deleted candidate (the firing
    /// binds the head to one) found to have a derivation from surviving facts; stage it
    /// for restoration.
    Rederive,
}

impl Sink<'_> {
    /// Apply one emission of `rule` to its staging relation, recording the
    /// mode-specific statistics. `head` is the database relation of the rule's head
    /// predicate. This is THE emission point: every firing of every polarity goes
    /// through it.
    #[inline]
    fn stage(
        &self,
        rule: &CompiledRule,
        head: Option<&Relation>,
        staged: &mut Relation,
        tuple: &[Const],
        stats: &mut EvalStats,
    ) {
        let is_new = match self {
            Sink::Derive => {
                let known = head.map(|r| r.contains(tuple)).unwrap_or(false);
                let is_new = !known && staged.insert(tuple);
                stats.record_inference(rule.rule_index, rule.head_predicate, is_new);
                is_new
            }
            Sink::Retract { deleted } => {
                let scheduled = deleted
                    .get(&rule.head_predicate)
                    .is_some_and(|r| r.contains(tuple));
                let dying = !scheduled && head.map(|r| r.contains(tuple)).unwrap_or(false);
                let is_new = dying && staged.insert(tuple);
                stats.record_retraction(rule.rule_index, is_new);
                is_new
            }
            Sink::Rederive => {
                let is_new = staged.insert(tuple);
                stats.record_rederivation(rule.rule_index, is_new);
                is_new
            }
        };
        if let Some(profile) = stats.profile.as_deref_mut() {
            profile.record_rule_row(rule.rule_index, is_new);
        }
    }
}

/// Execute one round's firings into `staging` through the per-rule runtimes.
#[allow(clippy::too_many_arguments)]
fn run_round(
    plan: &EvalPlan<'_>,
    db: &Database,
    firings: &[Firing<'_>],
    runtimes: &mut [RuleRuntime],
    governor: &Governor,
    sink: Sink<'_>,
    staging: &mut FxHashMap<Symbol, Relation>,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    let rules = plan.rules();
    for firing in firings {
        let rule = &rules[firing.rule_index];
        let runtime = &mut runtimes[firing.rule_index];
        // A tripped poll (cancellation, deadline, join fault) stops the round:
        // remaining firings on that scratch would be discarded anyway.
        if runtime.scratch.poll_tripped() {
            continue;
        }
        let staged = staging
            .get_mut(&rule.head_predicate)
            .expect("idb staging exists");
        fire_into(rule, runtime, db, firing.delta, sink, staged, stats);
    }
    governor.fault_site(FaultSite::RoundMerge)
}

/// Fire one rule (optionally with a delta-substituted literal) through its reusable
/// runtime, staging emissions into `staged` under the round's [`Sink`] polarity and
/// recording statistics.
fn fire_into(
    rule: &CompiledRule,
    runtime: &mut RuleRuntime,
    db: &Database,
    delta: Option<(usize, &Relation)>,
    sink: Sink<'_>,
    staged: &mut Relation,
    stats: &mut EvalStats,
) {
    let head = db.relation(rule.head_predicate);
    let start = span_start(stats);
    rule.fire_with(
        db,
        delta,
        &runtime.access,
        &mut runtime.scratch,
        &mut |tuple| {
            sink.stage(rule, head, staged, tuple, stats);
        },
    );
    if let (Some(profile), Some(start)) = (stats.profile.as_deref_mut(), start) {
        profile.record_rule_firing(rule.rule_index, start.elapsed().as_nanos() as u64);
    }
    stats.absorb_join_counters(std::mem::take(&mut runtime.scratch.counters));
}

/// Arm every per-rule scratch with the evaluation's governance poll.
fn arm_runtimes(runtimes: &mut [RuleRuntime], governor: &Governor) {
    for runtime in runtimes {
        runtime.scratch.arm_poll(governor.join_poll());
    }
}

/// Row-count-based estimate of the evaluation's resident footprint, consulted by
/// the memory guardrail: every database and staging/delta row costs
/// `arity × size_of::<Const>()`. Indexes, dedup tables, and allocator slack are
/// not counted, so the estimate is documented as accurate within about 2x — the
/// guardrail trades precision for a count that needs no allocator instrumentation.
fn estimated_bytes(db: &Database, extra: &FxHashMap<Symbol, Relation>) -> usize {
    let cells: usize = db
        .iter()
        .map(|(_, rel)| rel.len() * rel.arity().max(1))
        .sum::<usize>()
        + extra
            .values()
            .map(|rel| rel.len() * rel.arity().max(1))
            .sum::<usize>();
    cells * std::mem::size_of::<Const>()
}

fn merge_deltas(db: &mut Database, deltas: &FxHashMap<Symbol, Relation>) {
    for (&pred, rel) in deltas {
        if !rel.is_empty() {
            db.ensure_relation(pred, rel.arity()).merge_from(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::eval::naive::{naive_evaluate, ReferenceModel};
    use crate::parser::{parse_program, parse_query};

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    fn chain_edb(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("e", &[c(i), c(i + 1)]);
        }
        db
    }

    fn tc_program() -> Program {
        parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program
    }

    #[test]
    fn matches_naive_on_transitive_closure() {
        let program = tc_program();
        let edb = chain_edb(8);
        let semi = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        let naive = naive_evaluate(&program, &edb).unwrap();
        assert_eq!(ReferenceModel::from(&semi.database), naive);
        assert_eq!(semi.database.count("t"), 36);
    }

    #[test]
    fn does_fewer_inferences_than_naive() {
        // On a chain every fact has exactly one derivation. Semi-naive evaluation fires
        // each rule instance once, so it makes one inference per fact; a naive fixpoint
        // re-fires every instance in each of its 17 rounds.
        let program = tc_program();
        let edb = chain_edb(16);
        let semi = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(semi.stats.inferences, semi.database.count("t"));
        assert_eq!(
            ReferenceModel::from(&semi.database),
            naive_evaluate(&program, &edb).unwrap()
        );
    }

    #[test]
    fn three_rule_transitive_closure_of_the_paper() {
        // Example 1.1: all three recursive forms plus the exit rule.
        let program = parse_program(
            "t(X, Y) :- t(X, W), t(W, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, Y) :- t(X, W), e(W, Y).\n\
             t(X, Y) :- e(X, Y).",
        )
        .unwrap()
        .program;
        let edb = chain_edb(6);
        let result = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(result.database.count("t"), 21);
        let q = parse_query("t(0, Y)").unwrap();
        assert_eq!(result.database.answers(&q).len(), 6);
    }

    #[test]
    fn handles_program_facts_as_seeds() {
        // The shape of a Magic-transformed program: a seed fact plus a recursive rule.
        let program = parse_program(
            "m_t(5).\n\
             m_t(W) :- m_t(X), e(X, W).\n\
             ft(Y) :- m_t(X), e(X, Y).",
        )
        .unwrap()
        .program;
        let mut edb = Database::new();
        for (a, b) in [(5, 6), (6, 7), (7, 8), (1, 2)] {
            edb.add_fact("e", &[c(a), c(b)]);
        }
        let result = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        let ft = result.database.relation(Symbol::intern("ft")).unwrap();
        assert_eq!(ft.to_sorted_vec(), vec![vec![c(6)], vec![c(7)], vec![c(8)]]);
        // The magic set never reaches node 1.
        let m = result.database.relation(Symbol::intern("m_t")).unwrap();
        assert!(!m.contains(&[c(1)]));
    }

    #[test]
    fn nonlinear_rule_with_two_idb_literals() {
        // t(X,Y) :- t(X,W), t(W,Y) requires delta firing on both occurrences.
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).")
            .unwrap()
            .program;
        let edb = chain_edb(8);
        let semi = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(semi.database.count("t"), 36);
    }

    #[test]
    fn cyclic_data_terminates() {
        let program = tc_program();
        let mut edb = Database::new();
        for i in 0..10i64 {
            edb.add_fact("e", &[c(i), c((i + 1) % 10)]);
        }
        let result = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        // Every node reaches every node in a 10-cycle.
        assert_eq!(result.database.count("t"), 100);
    }

    #[test]
    fn iteration_limit_detects_divergence() {
        let program = parse_program("counter(0).\ncounter(M) :- counter(N), succ(N, M).")
            .unwrap()
            .program;
        let options = EvalOptions {
            max_iterations: 50,
            ..EvalOptions::default()
        };
        let err = seminaive_evaluate(&program, &Database::new(), &options).unwrap_err();
        assert!(matches!(err, EvalError::IterationLimit { limit: 50 }));
    }

    #[test]
    fn same_generation_program() {
        // The canonical non-factorable recursion (§6.4): answers must still be correct.
        let program = parse_program(
            "sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
        )
        .unwrap()
        .program;
        let mut edb = Database::new();
        // Two-level tree: 1 -> {2, 3}, flat between 2 and 3's children is via flat(4,5).
        edb.add_fact("up", &[c(2), c(4)]);
        edb.add_fact("up", &[c(3), c(5)]);
        edb.add_fact("flat", &[c(4), c(5)]);
        edb.add_fact("down", &[c(5), c(3)]);
        let result = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        let sg = result.database.relation(Symbol::intern("sg")).unwrap();
        assert!(sg.contains(&[c(4), c(5)]));
        assert!(sg.contains(&[c(2), c(3)]));
        assert_eq!(sg.len(), 2);
    }

    #[test]
    fn compiled_plan_replays_across_databases() {
        let program = tc_program();
        let compiled = CompiledProgram::compile(&program).unwrap();
        for n in [3i64, 7, 11] {
            let edb = chain_edb(n);
            let via_plan =
                seminaive_evaluate_compiled(&compiled, &edb, &EvalOptions::default()).unwrap();
            let fresh = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
            assert_eq!(via_plan.database.count("t"), fresh.database.count("t"));
        }
        assert_eq!(compiled.program().len(), 2);
        assert!(compiled.idb().contains(&Symbol::intern("t")));
    }

    /// One relation per predicate, for the `removed`/`added` arguments of
    /// [`seminaive_maintain`].
    fn facts(pred: &str, tuples: &[&[Const]]) -> FxHashMap<Symbol, Relation> {
        let mut rel = Relation::new(tuples.first().map_or(2, |t| t.len()));
        for tuple in tuples {
            rel.insert(tuple);
        }
        FxHashMap::from_iter([(Symbol::intern(pred), rel)])
    }

    /// Insert helper: evaluate, then insert `extra` edges by one maintenance step.
    fn resume_after_inserts(
        program: &Program,
        base: i64,
        extra: &[(i64, i64)],
    ) -> (Database, EvalStats) {
        let compiled = CompiledProgram::compile(program).unwrap();
        let mut edb = chain_edb(base);
        let mut model = seminaive_evaluate(program, &edb, &EvalOptions::default())
            .unwrap()
            .database;
        let edges: Vec<[Const; 2]> = extra.iter().map(|&(a, b)| [c(a), c(b)]).collect();
        for edge in &edges {
            edb.add_fact("e", edge);
        }
        let tuples: Vec<&[Const]> = edges.iter().map(|edge| &edge[..]).collect();
        let added = facts("e", &tuples);
        let none = FxHashMap::default();
        let options = EvalOptions::default();
        let stats = seminaive_maintain(&compiled, &mut model, &none, &added, &options);
        (model, stats.unwrap())
    }

    #[test]
    fn resume_matches_batch_on_edb_extension() {
        let program = tc_program();
        let extra = [(5i64, 0i64), (2, 7), (9, 9)];
        let (incremental, stats) = resume_after_inserts(&program, 8, &extra);

        let mut full_edb = chain_edb(8);
        for &(a, b) in &extra {
            full_edb.add_fact("e", &[c(a), c(b)]);
        }
        assert_eq!(
            ReferenceModel::from(&incremental),
            naive_evaluate(&program, &full_edb).unwrap()
        );
        assert!(stats.facts_derived > 0, "the new edges derive new paths");
    }

    #[test]
    fn resume_with_no_op_seed_derives_nothing() {
        let program = tc_program();
        // Re-inserting an existing edge seeds nothing (the model already holds it),
        // so maintenance is a no-op.
        let (model, stats) = resume_after_inserts(&program, 6, &[(2, 3)]);
        assert_eq!(model.count("t"), 21);
        assert_eq!(stats.facts_derived, 0);
        assert_eq!(stats.inferences, 0);
    }

    #[test]
    fn resume_does_less_work_than_reevaluation() {
        let program = tc_program();
        let (_, stats) = resume_after_inserts(&program, 40, &[(40, 41)]);
        let mut full_edb = chain_edb(40);
        full_edb.add_fact("e", &[c(40), c(41)]);
        let batch = seminaive_evaluate(&program, &full_edb, &EvalOptions::default()).unwrap();
        assert!(
            stats.inferences < batch.stats.inferences / 2,
            "incremental ({}) must be far cheaper than batch ({})",
            stats.inferences,
            batch.stats.inferences
        );
    }

    #[test]
    fn resume_handles_nonlinear_rules_and_idb_seeds() {
        // Seeding an IDB predicate directly (a user asserting a derived fact) must
        // propagate through both occurrences of the nonlinear recursion.
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).")
            .unwrap()
            .program;
        let compiled = CompiledProgram::compile(&program).unwrap();
        let mut edb = chain_edb(4);
        let mut model = seminaive_evaluate(&program, &edb, &EvalOptions::default())
            .unwrap()
            .database;
        // Assert t(4, 100) as a fact: every t(x, 4) now extends to t(x, 100).
        edb.add_fact("t", &[c(4), c(100)]);
        let added = facts("t", &[&[c(4), c(100)]]);
        let options = EvalOptions::default();
        seminaive_maintain(
            &compiled,
            &mut model,
            &FxHashMap::default(),
            &added,
            &options,
        )
        .unwrap();
        let t = model.relation(Symbol::intern("t")).unwrap();
        for x in 0..4 {
            assert!(t.contains(&[c(x), c(100)]), "t({x}, 100) must be derived");
        }
    }

    #[test]
    fn resume_respects_iteration_limit() {
        let program = parse_program("counter(0).\ncounter(M) :- counter(N), succ(N, M).")
            .unwrap()
            .program;
        let options = EvalOptions {
            max_iterations: 20,
            ..EvalOptions::default()
        };
        let compiled = CompiledProgram::compile(&program).unwrap();
        // Start from the empty model (the full evaluation would diverge as well) and
        // insert the counter's start.
        let mut model = Database::new();
        let added = facts("counter", &[&[c(0)]]);
        let none = FxHashMap::default();
        let err = seminaive_maintain(&compiled, &mut model, &none, &added, &options);
        let err = err.unwrap_err();
        assert!(matches!(err, EvalError::IterationLimit { limit: 20 }));
    }

    #[test]
    fn delta_joins_probe_indexes_instead_of_scanning() {
        // In `t(X, Y) :- e(X, W), t(W, Y).` the plan reorders the recursive body to
        // `t(W, Y), e(X, W)` (t is empty at plan time): every delta round scans the
        // delta once (depth 0) and probes e on its bound column once per delta row,
        // so index probes must dominate scans by roughly the average delta size.
        let program = tc_program();
        let n = 50i64;
        let result = seminaive_evaluate(&program, &chain_edb(n), &EvalOptions::default()).unwrap();
        let stats = &result.stats;
        assert_eq!(
            stats.literal_reorders, 1,
            "the recursive body is reordered delta-first"
        );
        assert!(
            stats.index_probes > stats.full_scans * (n as usize / 4),
            "delta joins must probe: {} probes vs {} scans",
            stats.index_probes,
            stats.full_scans
        );
        // One probe per delta row over the whole run: exactly one per derived fact
        // (plus none for round 0, which scans).
        assert_eq!(stats.index_probes, stats.facts_derived);
        // Scratch buffers are allocated once per rule and reused across all rounds.
        assert_eq!(stats.scratch_allocs, program.rules.len());
        assert!(stats.iterations > 10, "the chain needs many delta rounds");
    }

    #[test]
    fn resume_delta_rounds_probe_indexes() {
        let program = tc_program();
        let (_, stats) = resume_after_inserts(&program, 40, &[(40, 41)]);
        assert!(
            stats.index_probes > 0,
            "incremental delta rounds must use index probes"
        );
        assert_eq!(
            stats.scratch_allocs,
            program.rules.len(),
            "one reusable scratch per rule per resume"
        );
    }

    /// Assert two databases are identical including per-relation insertion order.
    fn assert_same_model(a: &Database, b: &Database) {
        let preds = |db: &Database| {
            let mut names: Vec<Symbol> = db.iter().map(|(p, _)| p).collect();
            names.sort_by_key(|p| p.as_str());
            names
        };
        assert_eq!(preds(a), preds(b));
        for (pred, rel) in a.iter() {
            let other = b.relation(pred).expect("relation exists in both");
            assert_eq!(
                rel.to_vec(),
                other.to_vec(),
                "{pred} must match in content AND insertion order"
            );
        }
    }

    #[test]
    fn reordering_never_changes_builtin_rule_answers() {
        // Regression: `p(M) :- succ(N, M), counter(N).` derives nothing in source
        // order (succ is unbound when reached). The reorder heuristic must not
        // change that — a performance knob may not alter the computed model.
        let program = parse_program("p(M) :- succ(N, M), counter(N).\ncounter(1).")
            .unwrap()
            .program;
        let with = seminaive_evaluate(&program, &Database::new(), &EvalOptions::default()).unwrap();
        assert_eq!(with.database.count("p"), 0, "the source-order model");
        assert_eq!(
            with.stats.literal_reorders, 0,
            "builtin bodies never reorder"
        );
    }

    /// Retract helper: evaluate the program over `edb`, retract `gone` edges of `e`,
    /// and return the maintained model, the retraction stats, and the reference
    /// model of the surviving EDB for comparison.
    fn retract_edges(
        program: &Program,
        mut edb: Database,
        gone: &[(i64, i64)],
        options: &EvalOptions,
    ) -> (Database, EvalStats, ReferenceModel) {
        let compiled = CompiledProgram::compile(program).unwrap();
        let mut model = seminaive_evaluate(program, &edb, options).unwrap().database;
        let edges: Vec<[Const; 2]> = gone.iter().map(|&(a, b)| [c(a), c(b)]).collect();
        let tuples: Vec<&[Const]> = edges.iter().map(|edge| &edge[..]).collect();
        for edge in &edges {
            edb.remove_fact("e", edge);
        }
        let removed = facts("e", &tuples);
        let none = FxHashMap::default();
        let stats = seminaive_maintain(&compiled, &mut model, &removed, &none, options);
        let stats = stats.unwrap();
        (model, stats, naive_evaluate(program, &edb).unwrap())
    }

    #[test]
    fn retract_matches_scratch_on_chain() {
        let program = tc_program();
        let (model, stats, scratch) =
            retract_edges(&program, chain_edb(10), &[(4, 5)], &EvalOptions::default());
        assert_eq!(ReferenceModel::from(&model), scratch);
        // A 10-edge chain closes to 55 pairs; cutting it at 4-5 kills every path
        // crossing the cut — sources {0..4} × targets {5..10} = 30 pairs.
        assert_eq!(model.count("t"), 55 - 30);
        assert!(stats.retractions > 0);
        assert!(stats.delete_rounds > 0);
    }

    #[test]
    fn retract_rederives_alternative_support() {
        // Two parallel paths 0→1→3 and 0→2→3: retracting e(0, 1) must keep t(0, 3)
        // (re-derived through node 2) while deleting t(0, 1).
        let program = tc_program();
        let mut edb = Database::new();
        for &(a, b) in &[(0i64, 1i64), (1, 3), (0, 2), (2, 3)] {
            edb.add_fact("e", &[c(a), c(b)]);
        }
        let (model, stats, scratch) =
            retract_edges(&program, edb, &[(0, 1)], &EvalOptions::default());
        assert_eq!(ReferenceModel::from(&model), scratch);
        let t = model.relation(Symbol::intern("t")).unwrap();
        assert!(t.contains(&[c(0), c(3)]), "alternative path must survive");
        assert!(!t.contains(&[c(0), c(1)]));
        assert!(
            stats.rederivations > 0,
            "t(0, 3) is over-deleted then restored by its surviving derivation"
        );
    }

    #[test]
    fn retract_handles_cycles() {
        // A 2-cycle supports every t fact through recursion; retracting one edge must
        // not let the cycle keep itself alive (the counting-unsound case DRed covers).
        let program = tc_program();
        let mut edb = Database::new();
        edb.add_fact("e", &[c(1), c(2)]);
        edb.add_fact("e", &[c(2), c(1)]);
        let (model, _, scratch) = retract_edges(&program, edb, &[(1, 2)], &EvalOptions::default());
        assert_eq!(ReferenceModel::from(&model), scratch);
        assert_eq!(
            model.relation(Symbol::intern("t")).unwrap().to_sorted_vec(),
            vec![vec![c(2), c(1)]]
        );
    }

    #[test]
    fn retract_of_absent_or_no_op_facts_is_empty() {
        let program = tc_program();
        let (model, stats, scratch) =
            retract_edges(&program, chain_edb(5), &[(40, 41)], &EvalOptions::default());
        assert_eq!(ReferenceModel::from(&model), scratch);
        assert_eq!(stats.retractions, 0);
        assert_eq!(stats.delete_rounds, 0);
        assert_eq!(model.count("t"), 15);
    }

    #[test]
    fn one_step_retracts_and_inserts_against_the_pre_insert_fixpoint() {
        // Cut the chain at 4-5 and bridge it with 4-6 in the same step, plus a
        // self-loop: over-deletion sees only the old model, and the restored and
        // inserted facts seed one round.
        let program = tc_program();
        let compiled = CompiledProgram::compile(&program).unwrap();
        let options = EvalOptions::default();
        let mut edb = chain_edb(10);
        let mut model = seminaive_evaluate(&program, &edb, &options)
            .unwrap()
            .database;
        edb.remove_fact("e", &[c(4), c(5)]);
        edb.add_fact("e", &[c(4), c(6)]);
        edb.add_fact("e", &[c(9), c(9)]);
        let removed = facts("e", &[&[c(4), c(5)]]);
        let added = facts("e", &[&[c(4), c(6)], &[c(9), c(9)]]);
        let stats = seminaive_maintain(&compiled, &mut model, &removed, &added, &options);
        let stats = stats.unwrap();
        assert_eq!(
            ReferenceModel::from(&model),
            naive_evaluate(&program, &edb).unwrap()
        );
        assert!(stats.retractions > 0);
        assert_eq!(
            stats.rederivations, 0,
            "no path across the cut survives in the old model: the bridge's paths come \
             from the seed round, not from re-derivation"
        );
        assert!(stats.facts_derived > 0, "the bridge derives new paths");
    }

    #[test]
    fn retract_on_nonlinear_recursion_matches_scratch() {
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).")
            .unwrap()
            .program;
        let mut edb = chain_edb(8);
        edb.add_fact("e", &[c(2), c(6)]);
        let (model, _, scratch) = retract_edges(&program, edb, &[(3, 4)], &EvalOptions::default());
        assert_eq!(ReferenceModel::from(&model), scratch);
    }

    #[test]
    fn unarmed_evaluation_never_polls() {
        let program = tc_program();
        let result = seminaive_evaluate(&program, &chain_edb(20), &EvalOptions::default()).unwrap();
        assert_eq!(result.stats.cancel_checks, 0, "no guardrails, no polls");
        assert_eq!(result.stats.limit_aborts, 0);
        assert_eq!(result.stats.worker_panics, 0);
    }

    #[test]
    fn deadline_aborts_unbounded_recursion() {
        let program = parse_program("counter(0).\ncounter(M) :- counter(N), succ(N, M).")
            .unwrap()
            .program;
        let deadline = std::time::Duration::from_millis(30);
        let options = EvalOptions {
            deadline: Some(deadline),
            ..EvalOptions::default()
        };
        let start = std::time::Instant::now();
        let err = seminaive_evaluate(&program, &Database::new(), &options).unwrap_err();
        let took = start.elapsed();
        let EvalError::LimitExceeded {
            reason: super::super::LimitReason::Deadline { budget, elapsed },
            elapsed: reported,
            partial_stats,
        } = err
        else {
            panic!("expected a deadline abort, got {err}");
        };
        assert_eq!(budget, deadline);
        assert!(elapsed >= deadline);
        assert!(
            reported >= deadline && reported <= took,
            "top-level elapsed must cover the deadline without exceeding the wall clock"
        );
        assert!(
            partial_stats.cancel_checks > 0,
            "the poll did the detecting"
        );
        assert_eq!(partial_stats.limit_aborts, 1);
        // The acceptance bound: the abort lands within 2x the deadline. The unit
        // test uses a much looser wall-clock bound to stay robust on loaded CI
        // machines; the chaos harness checks the 2x bound end to end.
        assert!(
            took < deadline * 20,
            "abort must be prompt, took {took:?} against a {deadline:?} deadline"
        );
    }

    #[test]
    fn preset_cancel_token_aborts_at_the_first_poll() {
        let token = crate::fault::CancelToken::new();
        token.cancel();
        let options = EvalOptions {
            cancel: Some(token),
            ..EvalOptions::default()
        };
        let err = seminaive_evaluate(&tc_program(), &chain_edb(30), &options).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::LimitExceeded {
                    reason: super::super::LimitReason::Cancelled,
                    ..
                }
            ),
            "expected a cancellation, got {err}"
        );
    }

    #[test]
    fn derived_fact_limit_aborts_with_partial_counters() {
        let options = EvalOptions {
            max_derived_facts: Some(10),
            ..EvalOptions::default()
        };
        let err = seminaive_evaluate(&tc_program(), &chain_edb(30), &options).unwrap_err();
        let EvalError::LimitExceeded {
            reason: super::super::LimitReason::DerivedFacts { limit, derived },
            partial_stats,
            ..
        } = err
        else {
            panic!("expected a derived-fact abort, got {err}");
        };
        assert_eq!(limit, 10);
        assert!(derived > 10);
        assert_eq!(partial_stats.facts_derived, derived);
    }

    #[test]
    fn memory_budget_aborts_with_the_estimate() {
        let options = EvalOptions {
            memory_budget_bytes: Some(64),
            ..EvalOptions::default()
        };
        let err = seminaive_evaluate(&tc_program(), &chain_edb(30), &options).unwrap_err();
        assert!(
            matches!(
                err,
                EvalError::LimitExceeded {
                    reason: super::super::LimitReason::MemoryBudget {
                        budget_bytes: 64,
                        estimated_bytes,
                    },
                    ..
                } if estimated_bytes > 64
            ),
            "expected a memory abort, got {err}"
        );
    }

    #[test]
    fn limits_pass_through_when_generous() {
        // Armed-but-unreached guardrails must not change the computed model.
        let options = EvalOptions {
            deadline: Some(std::time::Duration::from_secs(3600)),
            max_derived_facts: Some(1_000_000),
            memory_budget_bytes: Some(1 << 30),
            cancel: Some(crate::fault::CancelToken::new()),
            ..EvalOptions::default()
        };
        let governed = seminaive_evaluate(&tc_program(), &chain_edb(20), &options).unwrap();
        let plain =
            seminaive_evaluate(&tc_program(), &chain_edb(20), &EvalOptions::default()).unwrap();
        assert_same_model(&governed.database, &plain.database);
        assert!(governed.stats.cancel_checks > 0, "polls ran and passed");
        assert_eq!(governed.stats.limit_aborts, 0);
    }

    #[test]
    fn injected_error_fault_surfaces_at_every_site() {
        use crate::fault::{FaultAction, FaultInjector};
        // The join-loop site is reached once per POLL_INTERVAL candidate rows,
        // so the evaluation must be big enough to accumulate that many rows on
        // one rule's scratch (a 100-edge chain closes to 5050 facts).
        for site in [FaultSite::JoinOuterLoop, FaultSite::RoundMerge] {
            let options = EvalOptions {
                fault_injector: Some(FaultInjector::armed(site, FaultAction::Error, 0)),
                ..EvalOptions::default()
            };
            let err = seminaive_evaluate(&tc_program(), &chain_edb(100), &options).unwrap_err();
            assert!(
                matches!(err, EvalError::Injected { site: s } if s == site),
                "expected an injected fault at {site}, got {err}"
            );
        }
    }

    #[test]
    fn injected_delete_faults_surface_from_retraction() {
        use crate::fault::{FaultAction, FaultInjector};
        for site in [FaultSite::DeleteOverdelete, FaultSite::DeleteRederive] {
            let program = tc_program();
            let options = EvalOptions {
                fault_injector: Some(FaultInjector::armed(site, FaultAction::Error, 0)),
                ..EvalOptions::default()
            };
            let compiled = CompiledProgram::compile(&program).unwrap();
            let mut edb = Database::new();
            // Parallel paths so the rederive phase actually runs.
            for &(a, b) in &[(0i64, 1i64), (1, 3), (0, 2), (2, 3)] {
                edb.add_fact("e", &[c(a), c(b)]);
            }
            let mut model = seminaive_evaluate(&program, &edb, &EvalOptions::default())
                .unwrap()
                .database;
            edb.remove_fact("e", &[c(0), c(1)]);
            let removed = facts("e", &[&[c(0), c(1)]]);
            let none = FxHashMap::default();
            let err = seminaive_maintain(&compiled, &mut model, &removed, &none, &options);
            let err = err.unwrap_err();
            assert!(
                matches!(err, EvalError::Injected { site: s } if s == site),
                "expected an injected fault at {site}, got {err}"
            );
        }
    }

    #[test]
    fn stats_iterations_close_to_longest_path() {
        let program = tc_program();
        let edb = chain_edb(12);
        let result = seminaive_evaluate(&program, &edb, &EvalOptions::default()).unwrap();
        // One round per path length plus the seed round and the empty final round.
        assert!(result.stats.iterations >= 12 && result.stats.iterations <= 15);
    }
}
