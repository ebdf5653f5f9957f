//! Rule compilation and the compiled nested-loop/index join used to instantiate rule
//! bodies.
//!
//! Each rule is compiled once per evaluation into a [`CompiledRule`]: variables are
//! mapped to dense environment slots, and for every body literal we precompute which
//! argument positions are already bound when the literal is reached in left-to-right
//! order (the paper's sideways-information-passing order). Those bound positions decide
//! which secondary index the evaluator asks the storage layer to maintain.
//!
//! Evaluation then runs in two compiled layers on top:
//!
//! * **Access paths** ([`AccessPath`], [`RuleAccess`]): before firing rules, the
//!   evaluator resolves every body literal to a concrete access path against the
//!   database — a [`FullScan`](AccessPath::FullScan), an
//!   [`IndexProbe`](AccessPath::IndexProbe) carrying the relation's stable
//!   [`IndexId`], or a [`Membership`](AccessPath::Membership) check for fully bound
//!   literals. The inner loop never searches the index list or rebuilds a selection
//!   pattern.
//! * **Join scratch** ([`JoinScratch`]): one preallocated buffer set per rule (the
//!   environment, the head tuple, a key buffer, and an unbind stack) reused across
//!   every [`CompiledRule::fire_with`] call, so the steady-state join performs no heap
//!   allocation per row. Probes hash the bound values straight out of the environment —
//!   no key tuple is ever materialized — and candidate verification is folded into the
//!   binding loop, which must compare every row against the pattern anyway.
//!
//! The built-in predicate `succ/2` (successor on integers) is evaluated arithmetically;
//! it exists solely so that the Counting transformation of §6.4, which
//! introduces derivation-depth indices `I + 1`, can be executed by the same engine.

use crate::ast::{Atom, Const, Rule, Term};
use crate::fault::{CancelToken, FaultAction, FaultInjector, FaultSite};
use crate::fx::{FxHashMap, FxHashSet};
use crate::storage::{Database, IndexId, KeyHasher, Relation, RowId};
use crate::symbol::Symbol;

use super::stats::EvalStats;
use super::{EvalError, LimitReason};

/// Options of the semi-naive evaluator; each has a caller that sets it. The REPL and
/// the server set the governance fields, `:profile` sets `trace`, and tests cap
/// `max_iterations`. Rule bodies are always reordered at plan time (`reorder_body`:
/// most bound positions first; a body with `succ/2` keeps its order).
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Hard cap on fixpoint iterations; exceeded caps return an error so that
    /// non-terminating programs (e.g. Counting applied to a left-linear recursion,
    /// §6.4) can be detected by tests instead of hanging.
    pub max_iterations: usize,
    /// Collect an [`EvalProfile`](super::trace::EvalProfile) (phase spans,
    /// per-rule firing times and row counts) on the run's statistics. Off by
    /// default; when off, every instrumentation site costs one branch on a
    /// `None` option and no allocation.
    pub trace: bool,
    /// Wall-clock budget for one evaluation entry point (a full evaluation or
    /// one maintenance step). Checked at every round boundary and,
    /// within rounds, every [`POLL_INTERVAL`] candidate rows of the compiled
    /// join — the cancellation granularity bound. `None` (the default) means
    /// unlimited and costs nothing.
    pub deadline: Option<std::time::Duration>,
    /// Cap on facts derived (plus facts scheduled for deletion) by one
    /// evaluation entry point, checked at round boundaries. `None` = unlimited.
    pub max_derived_facts: Option<usize>,
    /// Budget on the evaluation's estimated memory footprint, checked at round
    /// boundaries. The estimate piggybacks on relation/staging row counts
    /// (`rows x arity x size_of::<Const>()`) and is documented accurate within
    /// 2x — indexes and dedup tables are not counted. `None` = unlimited.
    pub memory_budget_bytes: Option<usize>,
    /// Shareable cooperative-cancellation token. When present, the evaluator
    /// polls it every [`POLL_INTERVAL`] candidate rows and at round boundaries,
    /// aborting with [`LimitReason::Cancelled`] once it is set (front ends —
    /// e.g. the REPL's Ctrl-C handler — keep a clone and set it from another
    /// thread). `None` (the default) disables polling entirely.
    pub cancel: Option<CancelToken>,
    /// Chaos-test fault injector threaded through the evaluator's named sites
    /// (see [`FaultSite`]). `None` in production.
    pub fault_injector: Option<FaultInjector>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_iterations: 1_000_000,
            trace: false,
            deadline: None,
            max_derived_facts: None,
            memory_budget_bytes: None,
            cancel: None,
            fault_injector: None,
        }
    }
}

/// Candidate rows the compiled join enumerates between two cooperative
/// governance polls — the intra-round cancellation granularity bound. Between
/// polls a join performs at most this many row bindings before noticing a
/// cancelled token, an expired deadline, or an injected join fault.
pub const POLL_INTERVAL: u32 = 1024;

/// The intra-round half of governance: a countdown the compiled join decrements
/// once per candidate row (at every depth). Every [`POLL_INTERVAL`] rows it
/// polls the cancel tokens, the deadline, and the join-loop fault site; once
/// tripped, the join unwinds by refusing further rows (each remaining row costs
/// one branch) and the [`Governor`] turns the trip into a structured error at
/// the next round boundary. Armed per evaluation via [`JoinScratch::arm_poll`];
/// `None` — the production default with no guardrails — costs one branch per
/// row.
#[derive(Clone, Debug)]
pub struct JoinPoll {
    user_cancel: Option<CancelToken>,
    deadline_at: Option<std::time::Instant>,
    injector: FaultInjector,
    countdown: u32,
    tripped: bool,
}

impl JoinPoll {
    /// Count one candidate row; every [`POLL_INTERVAL`] rows, poll the
    /// governance flags (recording the poll in `checks`). Returns `true` when
    /// the join should stop enumerating rows.
    #[inline]
    fn tick(&mut self, checks: &mut usize) -> bool {
        if self.tripped {
            return true;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = POLL_INTERVAL;
        *checks += 1;
        match self.injector.hit(FaultSite::JoinOuterLoop) {
            Some(FaultAction::Panic) => panic!("injected fault (join-outer-loop)"),
            Some(FaultAction::Error) => {
                // The structured `EvalError::Injected` surfaces at the next
                // round boundary; here the join just stops emitting.
                self.tripped = true;
            }
            None => {
                if self
                    .user_cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled)
                    || self
                        .deadline_at
                        .is_some_and(|at| std::time::Instant::now() >= at)
                {
                    self.tripped = true;
                }
            }
        }
        self.tripped
    }
}

/// Per-evaluation resource governor: created at each evaluation entry point
/// (full evaluation, maintenance), it owns the start timestamp
/// the deadline is measured from and the configured limits. Round drivers call
/// [`Governor::check_round`] at every round boundary and arm the join scratches
/// with [`Governor::join_poll`] for the intra-round checks.
pub struct Governor {
    started: std::time::Instant,
    deadline: Option<std::time::Duration>,
    max_derived_facts: Option<usize>,
    memory_budget_bytes: Option<usize>,
    user_cancel: Option<CancelToken>,
    injector: FaultInjector,
    poll_armed: bool,
}

impl Governor {
    /// A governor for one evaluation under `options`, started now.
    pub fn new(options: &EvalOptions) -> Governor {
        let injector = options.fault_injector.clone().unwrap_or_default();
        let poll_armed = options.deadline.is_some()
            || options.cancel.is_some()
            || injector.site() == Some(FaultSite::JoinOuterLoop);
        Governor {
            started: std::time::Instant::now(),
            deadline: options.deadline,
            max_derived_facts: options.max_derived_facts,
            memory_budget_bytes: options.memory_budget_bytes,
            user_cancel: options.cancel.clone(),
            injector,
            poll_armed,
        }
    }

    /// Is any guardrail armed at all? When `false`, [`Governor::check_round`]
    /// is a single branch and no scratch carries a poll.
    pub fn armed(&self) -> bool {
        self.poll_armed
            || self.max_derived_facts.is_some()
            || self.memory_budget_bytes.is_some()
            || self.injector.site().is_some()
    }

    /// A join-loop poll bound to this governor, or `None` when no intra-round
    /// guardrail is armed (limits checked only at round boundaries need no
    /// per-row countdown).
    pub fn join_poll(&self) -> Option<JoinPoll> {
        if !self.poll_armed {
            return None;
        }
        Some(JoinPoll {
            user_cancel: self.user_cancel.clone(),
            deadline_at: self.deadline.map(|d| self.started + d),
            injector: self.injector.clone(),
            countdown: POLL_INTERVAL,
            tripped: false,
        })
    }

    /// Round-boundary check of every guardrail: cancellation (the caller's
    /// token), the deadline, the derived-fact cap, and the memory budget.
    /// `estimate_bytes` is consulted only when a memory budget is set. On abort,
    /// bumps `limit_aborts` and returns [`EvalError::LimitExceeded`] carrying a
    /// clone of the counters so far.
    pub fn check_round(
        &self,
        stats: &mut EvalStats,
        estimate_bytes: impl FnOnce() -> usize,
    ) -> Result<(), EvalError> {
        if !self.armed() {
            return Ok(());
        }
        stats.cancel_checks += 1;
        // An Error-action join fault trips mid-round and surfaces here, at the
        // first boundary after the join exited early.
        if let Some((site, FaultAction::Error)) = self.injector.fired_at() {
            return Err(EvalError::Injected { site });
        }
        let reason = if self
            .user_cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            Some(LimitReason::Cancelled)
        } else {
            None
        };
        let reason = reason.or_else(|| {
            self.deadline.and_then(|budget| {
                let elapsed = self.started.elapsed();
                (elapsed >= budget).then_some(LimitReason::Deadline { budget, elapsed })
            })
        });
        let reason = reason.or_else(|| {
            self.max_derived_facts.and_then(|limit| {
                let derived = stats.facts_derived + stats.retractions;
                (derived > limit).then_some(LimitReason::DerivedFacts { limit, derived })
            })
        });
        let reason = reason.or_else(|| {
            self.memory_budget_bytes.and_then(|budget_bytes| {
                let estimated_bytes = estimate_bytes();
                (estimated_bytes > budget_bytes).then_some(LimitReason::MemoryBudget {
                    budget_bytes,
                    estimated_bytes,
                })
            })
        });
        match reason {
            None => Ok(()),
            Some(reason) => {
                stats.limit_aborts += 1;
                Err(EvalError::LimitExceeded {
                    reason,
                    elapsed: self.started.elapsed(),
                    partial_stats: Box::new(stats.clone()),
                })
            }
        }
    }

    /// Report reaching a round-boundary fault site (round merge, the delete
    /// phases): a no-op unless the injector is armed there, an
    /// [`EvalError::Injected`] for an `Error`-action fault, a panic for a
    /// `Panic`-action one (contained by the engine's isolation boundary).
    pub fn fault_site(&self, site: FaultSite) -> Result<(), EvalError> {
        match self.injector.hit(site) {
            None => Ok(()),
            Some(FaultAction::Error) => Err(EvalError::Injected { site }),
            Some(FaultAction::Panic) => panic!("injected fault ({site})"),
        }
    }
}

/// How a term of a body literal is resolved at join time.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// A constant that must match.
    Const(Const),
    /// A variable occupying environment slot `usize`.
    Var(usize),
}

/// A body literal with its compiled argument slots.
#[derive(Clone, Debug)]
pub struct CompiledLiteral {
    /// Predicate of the literal.
    pub predicate: Symbol,
    slots: Vec<Slot>,
    /// Argument positions that are bound (constant or previously-bound variable) when
    /// the literal is reached left-to-right. Sorted.
    pub bound_positions: Vec<usize>,
    /// Is this literal the builtin successor predicate?
    is_succ: bool,
}

impl CompiledLiteral {
    /// Number of argument positions of the literal.
    pub fn arity(&self) -> usize {
        self.slots.len()
    }

    /// Is this literal compiled against the arithmetic `succ/2` builtin?
    pub fn is_builtin_succ(&self) -> bool {
        self.is_succ
    }

    /// Does this literal want a (nontrivial) secondary index on its bound positions?
    /// Shared by [`CompiledRule::ensure_indexes`] (database relations) and the
    /// compiled program's index plan (delta/staging relations) — the two must agree
    /// or delta joins silently degrade to scans.
    pub fn wants_index(&self) -> bool {
        !self.is_succ
            && !self.bound_positions.is_empty()
            && self.bound_positions.len() < self.slots.len()
    }
}

/// The concrete way one body literal is matched against its relation, resolved once
/// per evaluation (after [`CompiledRule::ensure_indexes`]) instead of re-derived per
/// row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Iterate every row: no position is bound, or no covering index exists.
    FullScan,
    /// Every position is bound: one membership check against the dedup table.
    Membership,
    /// Probe the relation's hash index on the literal's bound positions.
    IndexProbe(IndexId),
}

/// The resolved access paths of one rule's body literals, in literal order.
#[derive(Clone, Debug)]
pub struct RuleAccess {
    paths: Vec<AccessPath>,
}

/// Join-side counters accumulated in the scratch and drained into
/// [`super::stats::EvalStats`] by the evaluators.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinCounters {
    /// Index probes performed (one per literal instantiation served by an index).
    pub index_probes: usize,
    /// Full scans performed (one per literal instantiation that walked the relation).
    pub full_scans: usize,
    /// Membership checks performed for fully bound literals.
    pub membership_checks: usize,
    /// Cooperative governance polls performed by the join loop (one per
    /// [`POLL_INTERVAL`] candidate rows while a poll is armed; always zero
    /// without guardrails).
    pub cancel_checks: usize,
}

/// Reusable per-rule join state: preallocated buffers sized at construction so that
/// steady-state firing performs no per-row heap allocation. Create one per rule per
/// evaluation with [`CompiledRule::scratch`] and pass it to every
/// [`CompiledRule::fire_with`] call.
#[derive(Clone, Debug)]
pub struct JoinScratch {
    /// Variable bindings, indexed by environment slot.
    env: Vec<Option<Const>>,
    /// The instantiated head tuple.
    head_buf: Vec<Const>,
    /// Key buffer for membership checks of fully bound literals.
    key_buf: Vec<Const>,
    /// Stack of environment slots bound during descent; each join frame remembers its
    /// base and truncates back to it on exit (replacing the per-row `newly_bound`
    /// vector of the interpreted join).
    unbind: Vec<usize>,
    /// The armed governance poll, if any (see [`JoinScratch::arm_poll`]).
    poll: Option<JoinPoll>,
    /// Join operation counters, drained by the evaluator.
    pub counters: JoinCounters,
}

impl JoinScratch {
    /// Arm (or disarm) the cooperative governance poll for this scratch. Round
    /// drivers arm every scratch from [`Governor::join_poll`] at the start of a
    /// governed evaluation; an unarmed scratch pays one branch per row.
    pub fn arm_poll(&mut self, poll: Option<JoinPoll>) {
        self.poll = poll;
    }

    /// Did the armed poll trip (cancellation, deadline, or injected join
    /// fault)? The structured error is produced by the round driver's
    /// [`Governor::check_round`]; this accessor lets it skip further firings
    /// first.
    pub fn poll_tripped(&self) -> bool {
        self.poll.as_ref().is_some_and(|p| p.tripped)
    }
}

/// A rule compiled for evaluation.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Index of the rule in the source program (for statistics).
    pub rule_index: usize,
    /// Head predicate.
    pub head_predicate: Symbol,
    head_slots: Vec<Slot>,
    /// Compiled body literals in source order.
    pub literals: Vec<CompiledLiteral>,
    /// Number of variable slots in the environment.
    pub env_size: usize,
    /// Positions (within the body) of literals whose predicate is an IDB predicate.
    pub idb_literal_positions: Vec<usize>,
}

/// The name of the successor builtin.
pub fn succ_symbol() -> Symbol {
    Symbol::intern("succ")
}

/// Greedily reorder `rule`'s body for evaluation behind its first `pinned` literals
/// (which keep their places — the delta-first firings of delete propagation pin the
/// literal a delta stands in for), or return `None` when the source order is already
/// the greedy order.
///
/// At each step the next literal is the one with the most bound argument positions
/// (constants plus variables bound by already-placed literals) — the cheapest to match
/// under the left-to-right sideways-information-passing discipline — breaking ties by
/// smaller relation size in `db` (the plan-resolution-time selectivity estimate), then
/// by original position (stable). Conjunction over stored relations is commutative, so
/// any order derives the same facts — only the join cost changes.
///
/// Bodies containing the *virtual* `succ/2` builtin (no explicit `succ` relation in
/// `db`) are never reordered: the builtin is not a stored relation —
/// it matches nothing until one argument is bound — so whether it can evaluate depends
/// on its position relative to its binders, and moving it could change the computed
/// model rather than merely its cost. Reordering must stay a pure performance knob.
pub fn reorder_body(rule: &Rule, pinned: usize, db: &Database) -> Option<Rule> {
    if rule.body.len() < pinned + 2 {
        return None;
    }
    let virtual_succ =
        |atom: &Atom| atom.predicate == succ_symbol() && db.relation(atom.predicate).is_none();
    if rule.body.iter().any(virtual_succ) {
        return None;
    }
    let size_of = |p: Symbol| db.relation(p).map(Relation::len).unwrap_or(0);
    let mut bound: FxHashSet<Symbol> = rule.body[..pinned]
        .iter()
        .flat_map(|atom| atom.terms.iter().filter_map(Term::as_var))
        .collect();
    let mut remaining: Vec<usize> = (pinned..rule.body.len()).collect();
    let mut order: Vec<usize> = (0..pinned).collect();
    while !remaining.is_empty() {
        // (slot in `remaining`, (bound positions, relation size, original index)).
        let mut pick: Option<(usize, (usize, usize, usize))> = None;
        for (slot, &idx) in remaining.iter().enumerate() {
            let atom = &rule.body[idx];
            let bound_count = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .count();
            let key = (bound_count, size_of(atom.predicate), idx);
            let better = match &pick {
                None => true,
                Some((_, best)) => {
                    key.0 > best.0
                        || (key.0 == best.0
                            && (key.1 < best.1 || (key.1 == best.1 && key.2 < best.2)))
                }
            };
            if better {
                pick = Some((slot, key));
            }
        }
        let (slot, _) = pick.expect("non-empty remaining always yields a pick");
        let idx = remaining.remove(slot);
        for term in &rule.body[idx].terms {
            if let Term::Var(v) = term {
                bound.insert(*v);
            }
        }
        order.push(idx);
    }
    if order.iter().enumerate().all(|(i, &idx)| i == idx) {
        return None;
    }
    let body: Vec<Atom> = order.iter().map(|&idx| rule.body[idx].clone()).collect();
    Some(Rule::new(rule.head.clone(), body))
}

/// Everything a single `fire` needs that is constant over the descent.
struct FireCtx<'a> {
    db: &'a Database,
    delta: Option<(usize, &'a Relation)>,
    /// Access path for the delta-substituted literal (resolved against the delta
    /// relation, whose index ids are independent of the database relation's).
    delta_path: AccessPath,
    access: &'a RuleAccess,
}

impl CompiledRule {
    /// Compile `rule`. `is_idb` classifies predicates as IDB (has rules) for the
    /// semi-naive delta machinery.
    pub fn compile(
        rule_index: usize,
        rule: &Rule,
        is_idb: &dyn Fn(Symbol) -> bool,
    ) -> CompiledRule {
        let mut var_slots: FxHashMap<Symbol, usize> = FxHashMap::default();
        let mut bound_so_far: Vec<bool> = Vec::new();

        let slot_of = |term: &Term,
                       var_slots: &mut FxHashMap<Symbol, usize>,
                       bound: &mut Vec<bool>| match term {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => {
                let next = var_slots.len();
                let idx = *var_slots.entry(*v).or_insert(next);
                if idx == bound.len() {
                    bound.push(false);
                }
                Slot::Var(idx)
            }
        };

        let mut literals = Vec::with_capacity(rule.body.len());
        let mut idb_literal_positions = Vec::new();
        for (pos, atom) in rule.body.iter().enumerate() {
            let mut slots = Vec::with_capacity(atom.terms.len());
            let mut bound_positions = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                let slot = slot_of(term, &mut var_slots, &mut bound_so_far);
                match slot {
                    Slot::Const(_) => bound_positions.push(i),
                    Slot::Var(idx) => {
                        if bound_so_far[idx] {
                            bound_positions.push(i);
                        }
                    }
                }
                slots.push(slot);
            }
            // After matching this literal, all its variables are bound.
            for slot in &slots {
                if let Slot::Var(idx) = slot {
                    bound_so_far[*idx] = true;
                }
            }
            let is_succ = atom.predicate == succ_symbol();
            if is_idb(atom.predicate) {
                idb_literal_positions.push(pos);
            }
            literals.push(CompiledLiteral {
                predicate: atom.predicate,
                slots,
                bound_positions,
                is_succ,
            });
        }

        let head_slots = rule
            .head
            .terms
            .iter()
            .map(|t| slot_of(t, &mut var_slots, &mut bound_so_far))
            .collect();

        CompiledRule {
            rule_index,
            head_predicate: rule.head.predicate,
            head_slots,
            literals,
            env_size: var_slots.len(),
            idb_literal_positions,
        }
    }

    /// Ask the database to maintain the indexes this rule's join will probe.
    pub fn ensure_indexes(&self, db: &mut Database, arities: &FxHashMap<Symbol, usize>) {
        for literal in &self.literals {
            if !literal.wants_index() {
                continue;
            }
            let arity = arities
                .get(&literal.predicate)
                .copied()
                .unwrap_or(literal.slots.len());
            db.ensure_relation(literal.predicate, arity)
                .ensure_index(&literal.bound_positions);
        }
    }

    /// Resolve the access path of the literal at `pos` against a concrete relation
    /// (used for the database relations at plan-resolution time and for the
    /// delta-substituted relation at fire time).
    pub fn access_for(&self, pos: usize, relation: Option<&Relation>) -> AccessPath {
        let literal = &self.literals[pos];
        if literal.bound_positions.is_empty() {
            return AccessPath::FullScan;
        }
        if literal.bound_positions.len() == literal.slots.len() {
            return AccessPath::Membership;
        }
        match relation.and_then(|r| {
            if r.arity() == literal.slots.len() {
                r.index_on(&literal.bound_positions)
            } else {
                None
            }
        }) {
            Some(id) => AccessPath::IndexProbe(id),
            None => AccessPath::FullScan,
        }
    }

    /// Resolve every body literal to a concrete access path against `db`. Call after
    /// [`CompiledRule::ensure_indexes`]; the result stays valid as long as no *new*
    /// indexes are created on the involved relations (insertions and `clear` are
    /// fine — [`IndexId`]s are stable under both).
    pub fn resolve_access(&self, db: &Database) -> RuleAccess {
        RuleAccess {
            paths: (0..self.literals.len())
                .map(|pos| self.access_for(pos, db.relation(self.literals[pos].predicate)))
                .collect(),
        }
    }

    /// A fresh scratch for this rule: all buffers preallocated to their maximal size.
    pub fn scratch(&self) -> JoinScratch {
        let max_arity = self
            .literals
            .iter()
            .map(|l| l.slots.len())
            .max()
            .unwrap_or(0);
        JoinScratch {
            env: vec![None; self.env_size],
            head_buf: Vec::with_capacity(self.head_slots.len()),
            key_buf: Vec::with_capacity(max_arity),
            unbind: Vec::with_capacity(self.env_size),
            poll: None,
            counters: JoinCounters::default(),
        }
    }

    /// Instantiate the head for a completed environment.
    fn head_tuple(&self, env: &[Option<Const>], out: &mut Vec<Const>) {
        out.clear();
        for slot in &self.head_slots {
            match slot {
                Slot::Const(c) => out.push(*c),
                Slot::Var(idx) => {
                    out.push(env[*idx].expect("unbound head variable at firing time"))
                }
            }
        }
    }

    /// Enumerate all instantiations of the body against `db`, calling `emit` with the
    /// instantiated head tuple for each. Convenience wrapper that resolves access
    /// paths and allocates a scratch per call; hot paths (the evaluators) resolve once
    /// and use [`CompiledRule::fire_with`].
    ///
    /// Returns the number of successful body instantiations.
    pub fn fire(
        &self,
        db: &Database,
        delta: Option<(usize, &Relation)>,
        emit: &mut dyn FnMut(&[Const]),
    ) -> usize {
        let access = self.resolve_access(db);
        let mut scratch = self.scratch();
        self.fire_with(db, delta, &access, &mut scratch, emit)
    }

    /// Enumerate all instantiations of the body against `db` using pre-resolved
    /// access paths and a reusable scratch — the allocation-free steady-state path.
    /// If `delta` is `Some((position, relation))`, the literal at `position` is
    /// matched against `relation` instead of the database relation for its predicate
    /// (the semi-naive delta); its access path is resolved against the delta relation
    /// here, so indexed deltas are probed.
    ///
    /// Returns the number of successful body instantiations.
    pub fn fire_with(
        &self,
        db: &Database,
        delta: Option<(usize, &Relation)>,
        access: &RuleAccess,
        scratch: &mut JoinScratch,
        emit: &mut dyn FnMut(&[Const]),
    ) -> usize {
        debug_assert_eq!(access.paths.len(), self.literals.len());
        debug_assert!(
            scratch.env.iter().all(Option::is_none),
            "scratch environment must be clean between fires"
        );
        let delta_path = match delta {
            Some((pos, relation)) => self.access_for(pos, Some(relation)),
            None => AccessPath::FullScan,
        };
        let ctx = FireCtx {
            db,
            delta,
            delta_path,
            access,
        };
        let mut count = 0usize;
        self.join(&ctx, 0, scratch, emit, &mut count);
        count
    }

    /// Bind the row against the literal's slots, recurse if consistent, and restore
    /// the environment. Collision candidates from hash buckets are rejected here (a
    /// row that does not match the bound slots fails the comparison), so probes need
    /// no separate verification pass.
    ///
    /// This is also the cooperative governance site: called once per candidate
    /// row at every join depth, so one countdown here bounds how many rows any
    /// join enumerates between polls, whatever the rule shape.
    #[inline]
    fn bind_and_descend(
        &self,
        ctx: &FireCtx<'_>,
        depth: usize,
        row: &[Const],
        scratch: &mut JoinScratch,
        emit: &mut dyn FnMut(&[Const]),
        count: &mut usize,
    ) {
        if let Some(poll) = scratch.poll.as_mut() {
            if poll.tick(&mut scratch.counters.cancel_checks) {
                return;
            }
        }
        let literal = &self.literals[depth];
        let base = scratch.unbind.len();
        let mut consistent = true;
        for (i, slot) in literal.slots.iter().enumerate() {
            match slot {
                Slot::Const(c) => {
                    if row[i] != *c {
                        consistent = false;
                        break;
                    }
                }
                Slot::Var(idx) => match scratch.env[*idx] {
                    Some(value) => {
                        if row[i] != value {
                            consistent = false;
                            break;
                        }
                    }
                    None => {
                        scratch.env[*idx] = Some(row[i]);
                        scratch.unbind.push(*idx);
                    }
                },
            }
        }
        if consistent {
            self.join(ctx, depth + 1, scratch, emit, count);
        }
        for k in base..scratch.unbind.len() {
            let idx = scratch.unbind[k];
            scratch.env[idx] = None;
        }
        scratch.unbind.truncate(base);
    }

    fn join(
        &self,
        ctx: &FireCtx<'_>,
        depth: usize,
        scratch: &mut JoinScratch,
        emit: &mut dyn FnMut(&[Const]),
        count: &mut usize,
    ) {
        if depth == self.literals.len() {
            *count += 1;
            self.head_tuple(&scratch.env, &mut scratch.head_buf);
            emit(&scratch.head_buf);
            return;
        }
        let literal = &self.literals[depth];

        // Builtin successor: succ(X, Y) with X bound to an integer binds/checks Y=X+1;
        // with only Y bound it binds/checks X=Y-1.
        if literal.is_succ && ctx.db.relation(literal.predicate).is_none() {
            self.join_succ(ctx, depth, scratch, emit, count);
            return;
        }

        let use_delta = matches!(ctx.delta, Some((pos, _)) if pos == depth);
        let (relation, path): (&Relation, AccessPath) = if use_delta {
            (ctx.delta.expect("delta checked above").1, ctx.delta_path)
        } else {
            match ctx.db.relation(literal.predicate) {
                Some(rel) => (rel, ctx.access.paths[depth]),
                None => return, // empty relation: no matches
            }
        };
        if relation.arity() != literal.slots.len() {
            return;
        }

        match path {
            AccessPath::Membership => {
                scratch.counters.membership_checks += 1;
                // All slots are bound: materialize the expected tuple into the key
                // buffer and test membership.
                scratch.key_buf.clear();
                for slot in &literal.slots {
                    match slot {
                        Slot::Const(c) => scratch.key_buf.push(*c),
                        Slot::Var(idx) => scratch
                            .key_buf
                            .push(scratch.env[*idx].expect("bound position has a value")),
                    }
                }
                if relation.contains(&scratch.key_buf) {
                    self.join(ctx, depth + 1, scratch, emit, count);
                }
            }
            AccessPath::IndexProbe(index) => {
                scratch.counters.index_probes += 1;
                // Hash the bound values straight out of the slots/environment — no key
                // tuple is materialized. `bound_positions` is sorted, matching the
                // index's normalized column order.
                let mut hasher = KeyHasher::new();
                for &i in &literal.bound_positions {
                    let value = match &literal.slots[i] {
                        Slot::Const(c) => *c,
                        Slot::Var(idx) => scratch.env[*idx].expect("bound position has a value"),
                    };
                    hasher.push(&value);
                }
                for row_id in relation.probe_candidates(index, hasher.finish()) {
                    self.bind_and_descend(ctx, depth, relation.row(row_id), scratch, emit, count);
                }
            }
            AccessPath::FullScan => {
                scratch.counters.full_scans += 1;
                for row_id in 0..relation.len() as RowId {
                    self.bind_and_descend(ctx, depth, relation.row(row_id), scratch, emit, count);
                }
            }
        }
    }

    fn join_succ(
        &self,
        ctx: &FireCtx<'_>,
        depth: usize,
        scratch: &mut JoinScratch,
        emit: &mut dyn FnMut(&[Const]),
        count: &mut usize,
    ) {
        let literal = &self.literals[depth];
        if literal.slots.len() != 2 {
            return;
        }
        let value_of = |slot: &Slot, env: &[Option<Const>]| match slot {
            Slot::Const(c) => Some(*c),
            Slot::Var(idx) => env[*idx],
        };
        let first = value_of(&literal.slots[0], &scratch.env);
        let second = value_of(&literal.slots[1], &scratch.env);
        // Unbound, non-integer, or a successor past an `i64` bound: no matches.
        let pair: Option<(i64, i64)> = match (first, second) {
            (Some(Const::Int(x)), _) => x.checked_add(1).map(|y| (x, y)),
            (None, Some(Const::Int(y))) => y.checked_sub(1).map(|x| (x, y)),
            _ => None,
        };
        let Some((x, y)) = pair else { return };
        // Check/bind both positions against (x, y) as if it were the only matching
        // row of a virtual relation — the one place the binding protocol lives.
        let row = [Const::Int(x), Const::Int(y)];
        self.bind_and_descend(ctx, depth, &row, scratch, emit, count);
    }
}

/// Build an atom from a predicate and tuple (diagnostic helper used by evaluators).
pub fn fact_atom(predicate: Symbol, tuple: &[Const]) -> Atom {
    Atom::new(predicate, tuple.iter().map(|&c| Term::Const(c)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    fn compile(rule_text: &str) -> CompiledRule {
        let rule = parse_rule(rule_text).unwrap();
        CompiledRule::compile(0, &rule, &|_| false)
    }

    #[test]
    fn bound_positions_follow_left_to_right_sip() {
        let compiled = compile("t(X, Y) :- e(X, W), t(W, Y).");
        // In e(X, W): nothing bound yet.
        assert!(compiled.literals[0].bound_positions.is_empty());
        // In t(W, Y): W was bound by e(X, W).
        assert_eq!(compiled.literals[1].bound_positions, vec![0]);
        assert_eq!(compiled.env_size, 3);
    }

    #[test]
    fn constants_count_as_bound() {
        let compiled = compile("q(Y) :- t(5, Y).");
        assert_eq!(compiled.literals[0].bound_positions, vec![0]);
    }

    #[test]
    fn fire_joins_two_literals() {
        let compiled = compile("t(X, Y) :- e(X, W), f(W, Y).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("e", &[c(1), c(3)]);
        db.add_fact("f", &[c(2), c(10)]);
        db.add_fact("f", &[c(3), c(11)]);
        db.add_fact("f", &[c(4), c(12)]);
        let mut results = Vec::new();
        let fired = compiled.fire(&db, None, &mut |tuple| results.push(tuple.to_vec()));
        assert_eq!(fired, 2);
        results.sort();
        assert_eq!(results, vec![vec![c(1), c(10)], vec![c(1), c(11)]]);
    }

    #[test]
    fn fire_respects_repeated_variables() {
        let compiled = compile("loop(X) :- e(X, X).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(1)]);
        db.add_fact("e", &[c(1), c(2)]);
        let mut results = Vec::new();
        compiled.fire(&db, None, &mut |tuple| results.push(tuple.to_vec()));
        assert_eq!(results, vec![vec![c(1)]]);
    }

    #[test]
    fn fire_uses_delta_for_designated_literal() {
        let compiled = compile("t(X, Y) :- e(X, W), t(W, Y).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("t", &[c(2), c(3)]);
        db.add_fact("t", &[c(2), c(4)]);
        // Delta contains only one of the two t facts.
        let mut delta = Relation::new(2);
        delta.insert(&[c(2), c(3)]);
        let mut results = Vec::new();
        compiled.fire(&db, Some((1, &delta)), &mut |t| results.push(t.to_vec()));
        assert_eq!(results, vec![vec![c(1), c(3)]]);
    }

    #[test]
    fn indexed_delta_is_probed() {
        let compiled = compile("t(X, Y) :- e(X, W), t(W, Y).");
        let mut db = Database::new();
        for i in 0..10i64 {
            db.add_fact("e", &[c(i), c(i + 1)]);
        }
        let mut delta = Relation::new(2);
        delta.ensure_index(&[0]);
        delta.insert(&[c(5), c(99)]);
        let access = compiled.resolve_access(&db);
        let mut scratch = compiled.scratch();
        let mut results = Vec::new();
        compiled.fire_with(&db, Some((1, &delta)), &access, &mut scratch, &mut |t| {
            results.push(t.to_vec())
        });
        assert_eq!(results, vec![vec![c(4), c(99)]]);
        // One scan of e (depth 0) and one probe of the delta per e-row.
        assert_eq!(scratch.counters.full_scans, 1);
        assert_eq!(scratch.counters.index_probes, 10);
    }

    #[test]
    fn unindexed_delta_falls_back_to_scan() {
        let compiled = compile("t(X, Y) :- e(X, W), t(W, Y).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        let mut delta = Relation::new(2);
        delta.insert(&[c(2), c(3)]);
        let access = compiled.resolve_access(&db);
        let mut scratch = compiled.scratch();
        let mut results = Vec::new();
        compiled.fire_with(&db, Some((1, &delta)), &access, &mut scratch, &mut |t| {
            results.push(t.to_vec())
        });
        assert_eq!(results, vec![vec![c(1), c(3)]]);
        assert_eq!(scratch.counters.index_probes, 0);
        assert_eq!(scratch.counters.full_scans, 2, "e scan + delta scan");
    }

    #[test]
    fn scratch_is_reusable_across_fires() {
        let compiled = compile("t(X, Y) :- e(X, W), f(W, Y).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("f", &[c(2), c(10)]);
        let access = compiled.resolve_access(&db);
        let mut scratch = compiled.scratch();
        for _ in 0..3 {
            let mut results = Vec::new();
            let fired = compiled.fire_with(&db, None, &access, &mut scratch, &mut |t| {
                results.push(t.to_vec())
            });
            assert_eq!(fired, 1);
            assert_eq!(results, vec![vec![c(1), c(10)]]);
        }
    }

    #[test]
    fn access_paths_resolve_per_literal() {
        let compiled = compile("p(X) :- e(X, W), f(W, X), g(X, W).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("f", &[c(2), c(1)]);
        db.add_fact("g", &[c(1), c(2)]);
        let mut arities = FxHashMap::default();
        for p in ["e", "f", "g"] {
            arities.insert(Symbol::intern(p), 2);
        }
        compiled.ensure_indexes(&mut db, &arities);
        let access = compiled.resolve_access(&db);
        // e(X, W): nothing bound -> scan; f(W, X): both bound -> membership;
        // g(X, W): both bound -> membership.
        assert_eq!(access.paths[0], AccessPath::FullScan);
        assert_eq!(access.paths[1], AccessPath::Membership);
        assert_eq!(access.paths[2], AccessPath::Membership);

        let two = compile("p(Y) :- a(X), b(X, Y).");
        let mut db = Database::new();
        db.add_fact("a", &[c(1)]);
        db.add_fact("b", &[c(1), c(2)]);
        let mut arities = FxHashMap::default();
        arities.insert(Symbol::intern("a"), 1);
        arities.insert(Symbol::intern("b"), 2);
        two.ensure_indexes(&mut db, &arities);
        let access = two.resolve_access(&db);
        assert_eq!(access.paths[0], AccessPath::FullScan);
        assert!(matches!(access.paths[1], AccessPath::IndexProbe(_)));
        let mut results = Vec::new();
        two.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(results, vec![vec![c(2)]]);
    }

    #[test]
    fn fire_with_constants_in_head() {
        let compiled = compile("m(5).");
        let db = Database::new();
        let mut results = Vec::new();
        let fired = compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(fired, 1);
        assert_eq!(results, vec![vec![c(5)]]);
    }

    #[test]
    fn missing_relation_yields_no_matches() {
        let compiled = compile("p(X) :- q(X).");
        let db = Database::new();
        let mut results = Vec::new();
        assert_eq!(
            compiled.fire(&db, None, &mut |t| results.push(t.to_vec())),
            0
        );
        assert!(results.is_empty());
    }

    #[test]
    fn arity_mismatch_is_no_match_not_a_panic() {
        let compiled = compile("p(X) :- q(X).");
        let mut db = Database::new();
        db.add_fact("q", &[c(1), c(2)]); // q stored with arity 2, literal has arity 1
        let mut results = Vec::new();
        assert_eq!(
            compiled.fire(&db, None, &mut |t| results.push(t.to_vec())),
            0
        );
    }

    #[test]
    fn succ_builtin_binds_forward_and_backward() {
        let compiled = compile("next(Y) :- start(X), succ(X, Y).");
        let mut db = Database::new();
        db.add_fact("start", &[c(7)]);
        let mut results = Vec::new();
        compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(results, vec![vec![c(8)]]);

        let compiled = compile("prev(X) :- end(Y), succ(X, Y).");
        let mut db = Database::new();
        db.add_fact("end", &[c(7)]);
        let mut results = Vec::new();
        compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(results, vec![vec![c(6)]]);
    }

    #[test]
    fn succ_builtin_checks_when_both_bound() {
        let compiled = compile("ok :- a(X), b(Y), succ(X, Y).");
        let mut db = Database::new();
        db.add_fact("a", &[c(1)]);
        db.add_fact("b", &[c(2)]);
        db.add_fact("b", &[c(5)]);
        let mut results = Vec::new();
        let fired = compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(fired, 1, "only succ(1,2) holds");
    }

    /// Regression (`x + 1` and `y - 1` used to be unchecked: a debug build
    /// panicked, a release build wrapped to the other bound): a successor past
    /// an `i64` bound does not exist, in either binding direction.
    #[test]
    fn succ_builtin_matches_nothing_past_the_i64_bounds() {
        let fire = |rule: &str, facts: &[(&str, i64)]| {
            let compiled = compile(rule);
            let mut db = Database::new();
            for &(predicate, value) in facts {
                db.add_fact(predicate, &[c(value)]);
            }
            let mut results = Vec::new();
            compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
            results
        };
        let forward = "next(Y) :- start(X), succ(X, Y).";
        let backward = "prev(X) :- end(Y), succ(X, Y).";
        assert!(fire(forward, &[("start", i64::MAX)]).is_empty());
        assert!(fire(backward, &[("end", i64::MIN)]).is_empty());
        // One step inside each bound still matches.
        assert_eq!(
            fire(forward, &[("start", i64::MAX - 1)]),
            vec![vec![c(i64::MAX)]]
        );
        assert_eq!(
            fire(backward, &[("end", i64::MIN + 1)]),
            vec![vec![c(i64::MIN)]]
        );
        // Both bound: the pair across the bound is not a successor pair.
        let checked = "ok :- a(X), b(Y), succ(X, Y).";
        assert!(fire(checked, &[("a", i64::MAX), ("b", i64::MIN)]).is_empty());
        let ok = fire(checked, &[("a", i64::MAX - 1), ("b", i64::MAX)]);
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn explicit_succ_relation_overrides_builtin() {
        let compiled = compile("p(Y) :- start(X), succ(X, Y).");
        let mut db = Database::new();
        db.add_fact("start", &[c(1)]);
        db.add_fact("succ", &[c(1), c(100)]);
        let mut results = Vec::new();
        compiled.fire(&db, None, &mut |t| results.push(t.to_vec()));
        assert_eq!(results, vec![vec![c(100)]]);
    }

    #[test]
    fn reorder_promotes_small_bound_relations() {
        let rule = parse_rule("p(X, Y) :- big(X, W), small(W, Y).").unwrap();
        let mut db = Database::new();
        for i in 0..50i64 {
            db.add_fact("big", &[c(i), c(i + 1)]);
        }
        db.add_fact("small", &[c(1), c(2)]);
        let reordered = reorder_body(&rule, 0, &db).expect("order changes");
        assert_eq!(reordered.body[0].predicate, Symbol::intern("small"));
        assert_eq!(reordered.body[1].predicate, Symbol::intern("big"));
        assert_eq!(reordered.head, rule.head);

        // Once `small` is placed, `big(X, W)` has W bound at position 1 — the SIP
        // chain survives the reorder.
        let compiled = CompiledRule::compile(0, &reordered, &|_| false);
        assert_eq!(compiled.literals[1].bound_positions, vec![1]);
    }

    #[test]
    fn reorder_prefers_bound_positions_over_size() {
        // q(5, Y) has a constant: it goes first even though it is the bigger relation.
        let rule = parse_rule("p(Y, Z) :- r(Y, Z), q(5, Y).").unwrap();
        let mut db = Database::new();
        for i in 0..50i64 {
            db.add_fact("q", &[c(i % 7), c(i)]);
        }
        db.add_fact("r", &[c(1), c(2)]);
        let reordered = reorder_body(&rule, 0, &db).expect("order changes");
        assert_eq!(reordered.body[0].predicate, Symbol::intern("q"));
    }

    #[test]
    fn builtin_bodies_are_never_reordered() {
        // The virtual succ builtin matches nothing until an argument is bound, so
        // moving it (or its binders) could change the computed model — the whole
        // body is left alone. `p(M) :- succ(N, M), counter(N).` derives nothing in
        // source order; reordering counter first would make it derive facts, which
        // would turn a performance knob into a semantic one.
        let rule = parse_rule("p(M) :- succ(N, M), counter(N).").unwrap();
        let mut db = Database::new();
        for i in 0..10i64 {
            db.add_fact("counter", &[c(i)]);
        }
        assert!(reorder_body(&rule, 0, &db).is_none());

        // With an explicit succ relation, succ is an ordinary stored predicate and
        // the body reorders freely: counter (2 rows) is promoted over succ (10).
        let mut db = Database::new();
        db.add_fact("counter", &[c(0)]);
        db.add_fact("counter", &[c(1)]);
        for i in 0..10i64 {
            db.add_fact("succ", &[c(i), c(i + 1)]);
        }
        let reordered = reorder_body(&rule, 0, &db).expect("order changes");
        assert_eq!(reordered.body[0].predicate, Symbol::intern("counter"));
    }

    #[test]
    fn reorder_is_a_no_op_when_order_is_already_greedy() {
        let rule = parse_rule("t(X, Y) :- e(X, Y).").unwrap();
        let db = Database::new();
        assert!(reorder_body(&rule, 0, &db).is_none());
        let two = parse_rule("p(X, Y) :- a(X, W), b(W, Y).").unwrap();
        let mut db = Database::new();
        db.add_fact("a", &[c(1), c(2)]);
        db.add_fact("b", &[c(2), c(3)]);
        db.add_fact("b", &[c(2), c(4)]);
        // a is smaller and nothing is bound: original order is the greedy order.
        assert!(reorder_body(&two, 0, &db).is_none());
    }

    #[test]
    fn ensure_indexes_creates_probeable_indexes() {
        let compiled = compile("t(X, Y) :- e(X, W), t(W, Y).");
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("t", &[c(2), c(3)]);
        let mut arities = FxHashMap::default();
        arities.insert(Symbol::intern("e"), 2);
        arities.insert(Symbol::intern("t"), 2);
        compiled.ensure_indexes(&mut db, &arities);
        // t is probed on its first column.
        assert!(db
            .relation(Symbol::intern("t"))
            .unwrap()
            .probe(&[0], &[c(2)])
            .is_some());
    }
}
