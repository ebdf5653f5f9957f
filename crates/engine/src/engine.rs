//! The persistent [`Engine`]: a session that owns facts, rules, a materialized model,
//! and a prepared-query cache.
//!
//! # State machine
//!
//! ```text
//!   commit ──────────────▶ edb ± batches (insert, retract, Txn::commit, server
//!                          groups, loaded facts, replay); a materialized model is
//!                          maintained in the same commit by one seminaive_maintain
//!                          (over-delete and re-derive the retractions, then one
//!                          seeded round for the restored and inserted facts)
//!   add_rules/load ──────▶ program         (model dropped, caches cleared)
//!   query ───────────────▶ refresh: no model yet → full semi-naive evaluation;
//!                          then answer from the materialized model
//!   query_prepared ──────▶ prepared-plan cache keyed by (predicate, query shape):
//!                            · hit  → replay the cached CompiledProgram
//!                            · miss → reduce→adorn→magic→factor→optimize, cache plan
//!   snapshot ────────────▶ export program + edb as Datalog source, which any
//!                          session absorbs through load (rules it already
//!                          holds and facts already present are no-ops)
//! ```
//!
//! All evaluation statistics are merged into one cumulative per-session
//! [`EvalStats`], so `:stats` (REPL) and `--stats` (CLI) report session totals, not
//! the last call.
//!
//! # The commit protocol
//!
//! Every mutation of the fact store — [`Engine::insert`], [`Engine::retract`],
//! [`Txn::commit`], the server's group commits, the facts of a loaded source (a
//! batch per fact), the replay of recovered or shipped log records (a run of
//! transaction records) — is one call of `Engine::commit_group` (a single commit
//! is a group of one), which does, in this order and nowhere else:
//!
//! 1. **validate** every batch (arities against the session, the group's
//!    earlier valid batches and the batch itself): an invalid batch fails alone
//!    and touches nothing;
//! 2. **log** the valid batches — one record each, consecutive sequence numbers,
//!    one append and one fsync for the group (`Engine::wal_append`; nothing to
//!    do on an in-memory session, or when the caller says the records are
//!    already on the log: a replayed record, or facts covered by the record of
//!    the source text they came in);
//! 3. **apply** each batch's net effect to the fact store, in submission order;
//! 4. **maintain** the materialized model once, from the group's net delta: one
//!    call of `seminaive_maintain` with the facts the group removed and added;
//! 5. **check** the log against the compaction threshold, once.
//!
//! Three ordering rules hold it together:
//!
//! * **Log before store.** Nothing is applied that is not on the log: a failed
//!   append fails every valid batch of the group with the session untouched, and
//!   a crash after the append replays the batch on recovery.
//! * **Compaction only after the whole group.** An image is stamped with the
//!   log's last sequence number, so it must hold every record up to it. (PR 12
//!   lost acknowledged writes by checking the threshold after the first batch of
//!   a group: the later batches were in neither the snapshot nor the reset log.)
//!   Whoever appended runs the check, after everything the append covers is
//!   applied — which is why a replayed record never compacts.
//! * **A maintenance failure drops the model, never the commit.** The fact store
//!   is the source of truth: an evaluation error, tripped limit or caught panic
//!   in step 4 surfaces on the group's last valid batch, which is durable and
//!   applied all the same; the next query rebuilds the model from the store.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use factorlog_core::error::TransformError;
use factorlog_core::pipeline::{optimize_query, PipelineOptions, PreparedPlan, Strategy};
use factorlog_datalog::ast::{Atom, Const, Program, Query, Rule, Term};
use factorlog_datalog::eval::{
    seminaive_evaluate_compiled, seminaive_maintain, CompiledProgram, EvalError, EvalOptions,
    EvalStats,
};
use factorlog_datalog::fault::{CancelToken, FaultAction, FaultInjector, FaultSite};
use factorlog_datalog::fx::{FxHashMap, FxHashSet};
use factorlog_datalog::parser::{parse_program, ParseError};
use factorlog_datalog::storage::{Database, Relation};
use factorlog_datalog::symbol::Symbol;

use crate::wal::{WalOp, WalRecord};

/// Errors surfaced by engine operations.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// Evaluation failed (invalid program or iteration limit).
    Eval(EvalError),
    /// The optimization pipeline rejected a prepared query.
    Transform(TransformError),
    /// An inserted tuple does not match the relation's arity.
    ArityMismatch {
        /// The predicate being inserted into.
        predicate: Symbol,
        /// Arity already established for the predicate.
        expected: usize,
        /// Arity of the offered tuple.
        got: usize,
    },
    /// An inserted atom contains variables.
    NonGroundFact(String),
    /// An I/O failure outside the transaction log (a data directory's files,
    /// a server socket).
    Io(String),
    /// A durability failure: the transaction log could not be written or the
    /// data directory could not be recovered/compacted.
    Durability(String),
    /// A durable data directory is already open by a live session (see the
    /// single-writer `LOCK` file, [`crate::LOCK_FILE`]).
    Locked {
        /// The directory that is locked.
        dir: std::path::PathBuf,
        /// The PID holding the lock (this process's own PID for a same-process
        /// double-open).
        pid: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Transform(e) => write!(f, "{e}"),
            EngineError::ArityMismatch {
                predicate,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch: {predicate} has arity {expected}, tuple has {got}"
            ),
            EngineError::NonGroundFact(atom) => {
                write!(f, "cannot insert non-ground atom {atom} as a fact")
            }
            EngineError::Io(message) => write!(f, "{message}"),
            EngineError::Durability(message) => write!(f, "durability: {message}"),
            EngineError::Locked { dir, pid } => write!(
                f,
                "data directory {} is locked by live process {pid} \
                 (close that session first; a stale LOCK from a dead process \
                 is reclaimed automatically)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

impl From<TransformError> for EngineError {
    fn from(e: TransformError) -> Self {
        EngineError::Transform(e)
    }
}

/// What [`Engine::load_source`] did.
#[derive(Clone, Debug, Default)]
pub struct LoadSummary {
    /// Rules added to the registered program (a rule it already held is not
    /// added again).
    pub rules_added: usize,
    /// Facts inserted (new tuples only).
    pub facts_added: usize,
    /// Facts that were already present.
    pub duplicates: usize,
    /// The `?- atom.` query clause of the source, if any.
    pub query: Option<Query>,
}

/// What a committed transaction did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnSummary {
    /// Facts newly added to the fact store.
    pub asserted: usize,
    /// Facts removed from the fact store.
    pub retracted: usize,
    /// Asserted facts that were already present (no-ops).
    pub duplicates: usize,
    /// Retracted facts that were not present as base facts (no-ops — a derived fact
    /// cannot be retracted, only the assertions supporting it).
    pub missing: usize,
}

/// Are the log records covering a commit already written? (Step 2 of the
/// [commit protocol](self#the-commit-protocol).)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OnLog {
    /// No: the commit appends its own records and then checks the compaction
    /// threshold.
    No,
    /// Yes: the caller appended them (a source record covers its facts) or found
    /// them there (a recovered or shipped record being replayed), and owns the
    /// compaction check that follows the last of them.
    Already,
}

/// One operation of a transaction batch, as queued and as logged: polarity,
/// predicate (before IDB assertions are routed to `p__asserted`), tuple.
pub(crate) type Op = (WalOp, Symbol, Vec<Const>);

/// The tuple of a ground atom.
fn fact_tuple(atom: &Atom) -> Result<Vec<Const>, EngineError> {
    atom.as_fact()
        .ok_or_else(|| EngineError::NonGroundFact(atom.to_string()))
}

/// An atomic batch of `assert`/`retract` operations against an [`Engine`].
///
/// Build one with [`Engine::transaction`], queue operations with [`Txn::assert`] /
/// [`Txn::retract`] (or the atom-taking variants), and apply the whole batch with
/// [`Txn::commit`]. Nothing touches the engine until commit; dropping an uncommitted
/// transaction discards it. A commit is a group of one under the commit protocol
/// (stated once, in the module docs of `engine.rs`): validation failures leave the
/// session exactly as it was.
///
/// Within one batch the ops are set-oriented and the *last* operation on a given
/// fact wins: `assert(f)` after `retract(f)` means `f` is present afterwards, and
/// vice versa. Retractions are applied before assertions, and the commit maintains
/// the materialized model from both in one step (see [`seminaive_maintain`]).
#[must_use = "a transaction does nothing until committed"]
pub struct Txn<'e> {
    engine: &'e mut Engine,
    ops: Vec<Op>,
}

impl Txn<'_> {
    /// Queue an assertion of `predicate(tuple)`.
    pub fn assert(&mut self, predicate: impl Into<Symbol>, tuple: &[Const]) -> &mut Self {
        self.ops
            .push((WalOp::Assert, predicate.into(), tuple.to_vec()));
        self
    }

    /// Queue a retraction of `predicate(tuple)`.
    pub fn retract(&mut self, predicate: impl Into<Symbol>, tuple: &[Const]) -> &mut Self {
        self.ops
            .push((WalOp::Retract, predicate.into(), tuple.to_vec()));
        self
    }

    /// Queue an assertion of a ground atom; errors (leaving the batch unchanged) if
    /// the atom contains variables.
    pub fn assert_atom(&mut self, atom: &Atom) -> Result<&mut Self, EngineError> {
        self.queue_atom(WalOp::Assert, atom)
    }

    /// Queue a retraction of a ground atom; errors (leaving the batch unchanged) if
    /// the atom contains variables.
    pub fn retract_atom(&mut self, atom: &Atom) -> Result<&mut Self, EngineError> {
        self.queue_atom(WalOp::Retract, atom)
    }

    /// Queue `op` on a ground atom (the body of the two methods above).
    pub(crate) fn queue_atom(&mut self, op: WalOp, atom: &Atom) -> Result<&mut Self, EngineError> {
        self.ops.push((op, atom.predicate, fact_tuple(atom)?));
        Ok(self)
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Apply the whole batch atomically, as a group of one: a validation or log
    /// failure leaves the session untouched, a maintenance failure drops the
    /// model but not the commit (the commit protocol in the module docs of
    /// `engine.rs` has the order and the reasons).
    pub fn commit(self) -> Result<TxnSummary, EngineError> {
        self.engine.commit_one(&self.ops, OnLog::No)
    }
}

/// Render a caught panic payload: the common `&str`/`String` payloads verbatim,
/// a placeholder otherwise (panic payloads may be any `Any` value).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// What [`Engine::prepare`] did.
#[derive(Clone, Debug)]
pub struct PrepareReport {
    /// `true` if a cached plan was reused (possibly rebound to new constants).
    pub cached: bool,
    /// Which program the plan embodies (factored vs magic-only).
    pub strategy: Strategy,
}

/// One entry of the prepared-query cache.
#[derive(Clone, Debug)]
struct CachedPlan {
    plan: PreparedPlan,
    strategy: Strategy,
    /// Logical timestamp of the last hit or insertion (LRU eviction order).
    last_used: u64,
}

/// Default bound on the prepared-plan cache (entries), so long-lived REPL sessions
/// cannot grow without bound. Override with [`Engine::set_prepared_capacity`].
pub const DEFAULT_PREPARED_CAPACITY: usize = 256;

/// A persistent session: facts + rules + materialized model + prepared-plan cache.
///
/// See the [crate docs](crate) for the overall design and an example.
pub struct Engine {
    program: Program,
    /// The IDB predicates of `program` (cached; recomputed on rule changes).
    idb: BTreeSet<Symbol>,
    edb: Database,
    /// The materialized least model (EDB ∪ derived IDB), kept up to date by every
    /// commit once built.
    model: Option<Database>,
    /// Compiled plan for the registered (base) program.
    compiled: Option<CompiledProgram>,
    /// Prepared plans keyed by (query predicate, query shape). The shape encodes the
    /// constant/variable pattern *and* which variable positions repeat (`t(X, Y)` and
    /// `t(X, X)` need different plans even though both adorn as `ff`). Bounded to
    /// `prepared_capacity` entries with least-recently-used eviction.
    prepared: FxHashMap<(Symbol, String), CachedPlan>,
    /// Maximum number of cached prepared plans.
    prepared_capacity: usize,
    /// Logical clock driving the LRU order of `prepared`.
    prepared_clock: u64,
    options: EvalOptions,
    pub(crate) stats: EvalStats,
    /// The durable half of the session (transaction log + data directory), when
    /// opened via [`Engine::open_durable`]. `None` = plain in-memory session.
    pub(crate) durability: Option<crate::durability::Durability>,
    /// Engine-level metrics (latency histograms, subsystem spans). Allocated
    /// when tracing is first switched on (`EvalOptions::trace`, the session's one
    /// tracing flag) and retained when it is later switched off, so collected
    /// data stays inspectable.
    pub(crate) metrics: Option<Box<crate::metrics::EngineMetrics>>,
}

/// The cache key shape of a query: `b` for constant positions, a first-occurrence
/// index for variable positions, `,`-separated — so repeated-variable queries get
/// their own plans.
fn query_shape(query: &Query) -> String {
    use std::fmt::Write as _;
    let mut seen: Vec<Symbol> = Vec::new();
    let mut shape = String::new();
    for term in &query.atom.terms {
        match term {
            Term::Const(_) => shape.push_str("b,"),
            Term::Var(v) => {
                let index = seen.iter().position(|s| s == v).unwrap_or_else(|| {
                    seen.push(*v);
                    seen.len() - 1
                });
                let _ = write!(shape, "{index},");
            }
        }
    }
    shape
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh session with default options.
    pub fn new() -> Engine {
        Engine::with_options(EvalOptions::default())
    }

    /// A fresh session with the given evaluation options. The options apply to every
    /// evaluation the session performs (materialization, incremental maintenance,
    /// and prepared-plan replays) — they round-trip through the engine rather than being
    /// per-call.
    pub fn with_options(options: EvalOptions) -> Engine {
        let metrics = options.trace.then(Box::default);
        Engine {
            program: Program::new(),
            idb: BTreeSet::new(),
            edb: Database::new(),
            model: None,
            compiled: None,
            prepared: FxHashMap::default(),
            prepared_capacity: DEFAULT_PREPARED_CAPACITY,
            prepared_clock: 0,
            options,
            stats: EvalStats::default(),
            durability: None,
            metrics,
        }
    }

    /// The session's evaluation options.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Replace the session's evaluation options (its tracing switch included). All
    /// caches and the materialized model are invalidated, so the next query
    /// evaluates under the new options from scratch.
    pub fn set_options(&mut self, options: EvalOptions) {
        let trace = options.trace;
        self.options = options;
        self.set_tracing(trace);
        self.invalidate();
    }

    /// Set the session's resource guardrails for every subsequent evaluation:
    /// wall-clock deadline, derived-fact cap, and estimated-memory budget (each
    /// `None` = unlimited). Unlike [`Engine::set_options`] this invalidates
    /// nothing — guardrails decide when an evaluation is abandoned, never what
    /// it computes, so the materialized model and all cached plans stay valid.
    pub fn set_limits(
        &mut self,
        deadline: Option<std::time::Duration>,
        max_derived_facts: Option<usize>,
        memory_budget_bytes: Option<usize>,
    ) {
        self.options.deadline = deadline;
        self.options.max_derived_facts = max_derived_facts;
        self.options.memory_budget_bytes = memory_budget_bytes;
    }

    /// The cooperative cancellation token governing this session's evaluations,
    /// created on first use. Clones share the flag: hand one to a signal
    /// handler or another thread, and `cancel()` aborts the evaluation in
    /// flight at its next poll with a structured
    /// [`LimitExceeded`](EvalError::LimitExceeded) error. The engine never
    /// resets the token — front ends [`reset`](CancelToken::reset) it before
    /// each run so a stale Ctrl-C cannot cancel the next query.
    pub fn cancel_token(&mut self) -> CancelToken {
        self.options
            .cancel
            .get_or_insert_with(CancelToken::new)
            .clone()
    }

    /// Adopt `from`'s guardrails (deadline, derived-fact cap, memory budget) and
    /// cancellation token; nothing is invalidated. A server serves the engine under
    /// its request deadline and a token of its own this way, and puts the caller's
    /// back when it hands the engine back.
    pub(crate) fn set_limits_from(&mut self, from: &EvalOptions) {
        self.set_limits(
            from.deadline,
            from.max_derived_facts,
            from.memory_budget_bytes,
        );
        self.options.cancel = from.cancel.clone();
    }

    /// Arm (or disarm) the chaos-test fault injector threaded through every
    /// evaluation and durable-write site of this session (see
    /// [`FaultSite`]). Test harness only; invalidates nothing.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.options.fault_injector = injector;
    }

    /// The registered rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The extensional facts of the session (inserted facts only, no derived facts).
    pub fn facts(&self) -> &Database {
        &self.edb
    }

    /// Cumulative statistics for every evaluation this session has performed,
    /// including prepared-plan cache hit/miss counters.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Reset the cumulative statistics (keeps model and caches).
    pub fn reset_stats(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Fold externally computed statistics into this session's cumulative counters
    /// (e.g. an auxiliary evaluation a front end performed on the session's behalf).
    pub fn absorb_stats(&mut self, other: &EvalStats) {
        self.stats.merge(other);
    }

    /// Is the observability layer (span timers, latency histograms, per-rule
    /// profiles) collecting?
    pub fn tracing(&self) -> bool {
        self.options.trace
    }

    /// Enable or disable tracing. Like [`Engine::set_limits`] this invalidates
    /// nothing — tracing is not baked into compiled plans — so it can be toggled
    /// mid-session. Disabling stops collection but retains everything collected
    /// so far ([`Engine::metrics`] and the profile on [`Engine::stats`] stay
    /// inspectable); [`Engine::reset_stats`] clears the eval-side profile.
    pub fn set_tracing(&mut self, on: bool) {
        self.options.trace = on;
        if on && self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
    }

    /// The engine-level metrics (query-latency and WAL-fsync histograms,
    /// subsystem spans, optimizer pass times) collected so far; `None` when
    /// tracing was never enabled on this session.
    pub fn metrics(&self) -> Option<&crate::metrics::EngineMetrics> {
        self.metrics.as_deref()
    }

    /// Render the versioned machine-readable metrics document for this session
    /// (see the [`crate::metrics`] module docs for the schema). Valid whether or
    /// not tracing is on — an untraced session reports its counters with empty
    /// phase, rule, and histogram sections.
    pub fn metrics_json(&self) -> String {
        self.metrics_json_with(None, None)
    }

    /// [`Engine::metrics_json`] with the front-end facets: a session serving a
    /// follower passes its [`ServerHandle`](crate::server::ServerHandle)'s
    /// [`replica_status`](crate::server::ServerHandle::replica_status) so the
    /// document's `replication` object reports role, term, and lag; serving sessions pass
    /// their [`ServerHandle`](crate::server::ServerHandle)'s
    /// [`server_metrics`](crate::server::ServerHandle::server_metrics) so the
    /// `server` object reports the reactor counters. `None` renders the
    /// corresponding key as `null`.
    pub fn metrics_json_with(
        &self,
        replication: Option<&crate::replication::ReplicaStatus>,
        server: Option<&crate::server::ServerMetrics>,
    ) -> String {
        let default_metrics = crate::metrics::EngineMetrics::default();
        let metrics = self.metrics.as_deref().unwrap_or(&default_metrics);
        crate::metrics::render_metrics_json(
            metrics,
            &self.stats,
            &self.program,
            self.tracing(),
            replication,
            server,
        )
    }

    /// Number of prepared plans currently cached.
    pub fn prepared_count(&self) -> usize {
        self.prepared.len()
    }

    /// The bound on the prepared-plan cache (entries).
    pub fn prepared_capacity(&self) -> usize {
        self.prepared_capacity
    }

    /// Change the bound on the prepared-plan cache. Shrinking below the current size
    /// evicts least-recently-used plans immediately (counted in the session
    /// statistics). A capacity of 0 disables caching entirely.
    pub fn set_prepared_capacity(&mut self, capacity: usize) {
        self.prepared_capacity = capacity;
        self.evict_to_capacity();
    }

    /// Evict least-recently-used plans until the cache fits its capacity.
    fn evict_to_capacity(&mut self) {
        while self.prepared.len() > self.prepared_capacity {
            let Some(oldest) = self
                .prepared
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.prepared.remove(&oldest);
            self.stats.plan_cache_evictions += 1;
        }
    }

    /// Is there a materialized model? Every commit keeps one up to date; rule
    /// changes and failed maintenance drop it until the next query rebuilds it.
    pub fn is_materialized(&self) -> bool {
        self.model.is_some()
    }

    fn invalidate(&mut self) {
        self.model = None;
        self.compiled = None;
        self.prepared.clear();
    }

    /// Register additional rules. Changing the program invalidates the materialized
    /// model and every cached plan (both are program-specific); the facts survive.
    /// On a durable session the rules are logged (as one rendered source record)
    /// before they are applied; a log failure registers nothing.
    ///
    /// Facts previously inserted under a predicate that now *becomes* IDB migrate to
    /// its assertion relation (see [`Engine::insert`]) so the rewrite pipeline keeps
    /// seeing a purely rule-defined predicate.
    ///
    /// A rule the program already holds is a no-op: registering nothing new
    /// logs nothing and keeps the model and the plans.
    pub fn add_rules(&mut self, rules: Program) -> Result<(), EngineError> {
        let rules = self.new_rules(rules);
        if rules.is_empty() {
            return Ok(());
        }
        let text = rules.to_string();
        self.wal_append(&mut [WalRecord::Source { seq: 0, text }])?;
        self.add_rules_unlogged(rules);
        self.wal_maybe_compact()
    }

    /// The rules of `rules` the program does not hold yet, each once, in order.
    fn new_rules(&self, rules: Program) -> Program {
        let mut known: FxHashSet<Rule> = self.program.rules.iter().cloned().collect();
        rules
            .rules
            .into_iter()
            .filter(|rule| known.insert(rule.clone()))
            .collect()
    }

    /// [`Engine::add_rules`] once the rules, all of them [new](Self::new_rules),
    /// are on the log.
    fn add_rules_unlogged(&mut self, rules: Program) {
        if rules.is_empty() {
            return;
        }
        self.program.extend(rules);
        self.invalidate();
        self.idb = self.program.idb_predicates();
        let migrate: Vec<Symbol> = self
            .idb
            .iter()
            .copied()
            .filter(|&p| self.edb.relation(p).is_some_and(|r| !r.is_empty()))
            .collect();
        for predicate in migrate {
            let relation = self
                .edb
                .remove_relation(predicate)
                .expect("relation checked above");
            self.ensure_assertion_rule(predicate, relation.arity());
            self.edb
                .ensure_relation(Self::asserted_symbol(predicate), relation.arity())
                .merge_from(&relation);
        }
    }

    /// The auxiliary EDB relation holding user-asserted facts of an IDB predicate.
    fn asserted_symbol(predicate: Symbol) -> Symbol {
        Symbol::intern(&format!("{predicate}__asserted"))
    }

    /// The relation a base fact of `predicate` is stored in.
    fn stored_as(&self, predicate: Symbol) -> Symbol {
        if self.idb.contains(&predicate) {
            Self::asserted_symbol(predicate)
        } else {
            predicate
        }
    }

    /// Ensure the exit rule `p(X0, ..., Xn) :- p__asserted(X0, ..., Xn).` exists, so
    /// asserted facts of the IDB predicate `p` flow through every rewrite (magic,
    /// factoring) instead of bypassing it.
    fn ensure_assertion_rule(&mut self, predicate: Symbol, arity: usize) {
        let alias = Self::asserted_symbol(predicate);
        let already = self.program.rules.iter().any(|r| {
            r.head.predicate == predicate && r.body.len() == 1 && r.body[0].predicate == alias
        });
        if already {
            return;
        }
        let vars: Vec<Term> = (0..arity).map(|i| Term::var(&format!("X{i}"))).collect();
        self.program.push(Rule::new(
            Atom::new(predicate, vars.clone()),
            vec![Atom::new(alias, vars)],
        ));
        self.invalidate();
        self.idb = self.program.idb_predicates();
    }

    /// The arity the session already associates with `predicate`, from (in order) the
    /// fact store, the materialized model, or the registered rules.
    fn expected_arity(&self, predicate: Symbol) -> Option<usize> {
        self.edb
            .relation(predicate)
            .map(Relation::arity)
            .or_else(|| {
                self.model
                    .as_ref()
                    .and_then(|m| m.relation(predicate))
                    .map(Relation::arity)
            })
            .or_else(|| self.program.arity_of(predicate))
    }

    /// Parse `source` (rules, facts, optionally a `?- atom.` clause) and absorb it:
    /// rules are registered, facts inserted as one commit group (one batch per
    /// fact), so a materialized model is maintained once for the whole load.
    ///
    /// On a durable session the *whole source text* is logged as one record (after
    /// parsing, before anything is applied), so a bulk load costs one log append +
    /// fsync instead of one per fact; replay re-absorbs the text verbatim. A fact
    /// that fails validation stops the load there: the facts before it stay
    /// applied, and replaying the record applies the same prefix.
    pub fn load_source(&mut self, source: &str) -> Result<LoadSummary, EngineError> {
        self.absorb_source(source, OnLog::No)
    }

    /// [`Engine::load_source`], told whether the source's record is already on
    /// the log. Its facts never log records of their own: the source record
    /// covers them.
    fn absorb_source(&mut self, source: &str, on_log: OnLog) -> Result<LoadSummary, EngineError> {
        let parsed = parse_program(source)?;
        if on_log == OnLog::No && !source.trim().is_empty() {
            let text = source.to_string();
            self.wal_append(&mut [WalRecord::Source { seq: 0, text }])?;
        }
        let (rules, facts) = parsed.split_facts();
        let rules = self.new_rules(rules);
        let mut summary = LoadSummary {
            rules_added: rules.len(),
            query: parsed.query().cloned(),
            ..LoadSummary::default()
        };
        self.add_rules_unlogged(rules);
        // The longest valid prefix of the facts commits as one group.
        let (mut arities, mut invalid) = (FxHashMap::default(), None);
        let batches: Vec<[Op; 1]> = facts
            .iter()
            .map(|atom| {
                let ops = [(WalOp::Assert, atom.predicate, fact_tuple(atom)?)];
                self.validate_txn_ops(&ops, &mut arities).map(|()| ops)
            })
            .map_while(|checked| checked.map_err(|error| invalid = Some(error)).ok())
            .collect();
        for result in self.commit_group(&batches, OnLog::Already) {
            match result?.asserted {
                0 => summary.duplicates += 1,
                _ => summary.facts_added += 1,
            }
        }
        if let Some(error) = invalid {
            return Err(error);
        }
        if on_log == OnLog::No {
            self.wal_maybe_compact()?;
        }
        Ok(summary)
    }

    /// Insert one fact; returns `true` if it was new. A materialized model is
    /// maintained in the same commit (delta rounds only — the model is never
    /// rebuilt from scratch). A group of one like [`Txn::commit`], behind one
    /// probe of its own: a fact that is
    /// already present is a no-op, not a commit, so an idempotent re-insert neither
    /// grows the log nor pays an fsync.
    ///
    /// A fact asserted for an *IDB* predicate `p` is stored in the auxiliary EDB
    /// relation `p__asserted`, with the exit rule `p(..) :- p__asserted(..)`
    /// registered on first use: this keeps every rewrite of `p` (magic, factoring)
    /// sound in the presence of asserted facts, at the cost of one full
    /// re-materialization when the exit rule first appears.
    pub fn insert(
        &mut self,
        predicate: impl Into<Symbol>,
        tuple: &[Const],
    ) -> Result<bool, EngineError> {
        let predicate = predicate.into();
        let present = self
            .edb
            .relation(self.stored_as(predicate))
            .is_some_and(|r| r.arity() == tuple.len() && r.contains(tuple));
        if present {
            return Ok(false);
        }
        let ops = [(WalOp::Assert, predicate, tuple.to_vec())];
        Ok(self.commit_one(&ops, OnLog::No)?.asserted > 0)
    }

    /// Insert a ground atom as a fact; errors on non-ground atoms.
    pub fn insert_atom(&mut self, atom: &Atom) -> Result<bool, EngineError> {
        self.insert(atom.predicate, &fact_tuple(atom)?)
    }

    /// Start an atomic mutation batch (see [`Txn`]). Nothing is applied until
    /// [`Txn::commit`].
    pub fn transaction(&mut self) -> Txn<'_> {
        Txn {
            engine: self,
            ops: Vec::new(),
        }
    }

    /// Retract one fact; returns `true` if it was present (and is now gone). The
    /// single-op convenience over [`Engine::transaction`]: retraction of an IDB
    /// predicate removes the *asserted* base fact (see [`Engine::insert`] on the
    /// `p__asserted` scheme); a fact that is merely derived cannot be retracted and
    /// reports `false`. The materialized model is maintained incrementally by
    /// delete propagation ([`seminaive_maintain`]), never rebuilt.
    pub fn retract(
        &mut self,
        predicate: impl Into<Symbol>,
        tuple: &[Const],
    ) -> Result<bool, EngineError> {
        let mut txn = self.transaction();
        txn.retract(predicate, tuple);
        Ok(txn.commit()?.retracted > 0)
    }

    /// Retract a ground atom; errors on non-ground atoms.
    pub fn retract_atom(&mut self, atom: &Atom) -> Result<bool, EngineError> {
        self.retract(atom.predicate, &fact_tuple(atom)?)
    }

    /// Validate one transaction batch's arities against the session, the
    /// `group`'s earlier batches and the batch itself, without mutating anything —
    /// this is what makes a failed commit a no-op. `group` maps each predicate
    /// new to the session to the arity an earlier valid batch of the group gives
    /// it in the store; a valid batch adds its own.
    fn validate_txn_ops(
        &self,
        ops: &[Op],
        group: &mut FxHashMap<Symbol, usize>,
    ) -> Result<(), EngineError> {
        let mut batch_arity: FxHashMap<Symbol, usize> = FxHashMap::default();
        for (_, predicate, tuple) in ops {
            let expected = self
                .expected_arity(*predicate)
                .or_else(|| group.get(predicate).copied())
                .or_else(|| batch_arity.get(predicate).copied());
            if let Some(expected) = expected {
                if expected != tuple.len() {
                    return Err(EngineError::ArityMismatch {
                        predicate: *predicate,
                        expected,
                        got: tuple.len(),
                    });
                }
            } else {
                batch_arity.insert(*predicate, tuple.len());
            }
        }
        // A new predicate enters the store when the last op on one of its facts
        // asserts it.
        let mut seen: FxHashSet<(Symbol, &[Const])> = FxHashSet::default();
        for (op, predicate, tuple) in ops.iter().rev() {
            if batch_arity.contains_key(predicate)
                && seen.insert((*predicate, tuple))
                && *op == WalOp::Assert
            {
                group.insert(*predicate, tuple.len());
            }
        }
        Ok(())
    }

    /// A commit of one batch: [`Engine::commit_group`] of a group of one.
    fn commit_one(&mut self, ops: &[Op], on_log: OnLog) -> Result<TxnSummary, EngineError> {
        let mut results = self.commit_group(&[ops], on_log);
        results.pop().expect("one result per batch")
    }

    /// Re-execute records that are already on disk, in order — recovery of this
    /// session's own image and log, or a batch the leader shipped. A run of
    /// consecutive transaction records commits as one group, so a materialized
    /// model is maintained once for it. The errors of a transaction or source
    /// record are deliberately ignored: replay is a deterministic re-execution
    /// from the same base state, so any error a record raises here is the error
    /// it raised when it was first committed (e.g. a bulk load whose trailing
    /// facts failed arity validation applied its valid prefix, was logged whole,
    /// and re-applies the same prefix). An image replaces the program and the
    /// fact store in bulk; one whose rules do not parse is an error, and leaves
    /// the session as the records before it left it.
    pub(crate) fn replay(&mut self, records: Vec<WalRecord>) -> Result<(), EngineError> {
        let mut txns: Vec<Vec<Op>> = Vec::new();
        for record in records {
            match record {
                WalRecord::Txn { ops, .. } => txns.push(ops),
                WalRecord::Source { text, .. } => {
                    let _ = self.commit_group(&std::mem::take(&mut txns), OnLog::Already);
                    let _ = self.absorb_source(&text, OnLog::Already);
                }
                WalRecord::Image {
                    rules, relations, ..
                } => {
                    let _ = self.commit_group(&std::mem::take(&mut txns), OnLog::Already);
                    let program = parse_program(&rules)?.program;
                    let mut edb = Database::new();
                    for (name, arity, rows) in relations {
                        let relation = edb.ensure_relation(name, arity);
                        for row in &rows {
                            relation.insert(row);
                        }
                    }
                    self.idb = program.idb_predicates();
                    self.program = program;
                    self.edb = edb;
                    self.invalidate();
                }
            }
            self.stats.wal_replays += 1;
        }
        let _ = self.commit_group(&txns, OnLog::Already);
        Ok(())
    }

    /// The session as an image record covering every record up to `seq`: the
    /// registered program as rule text plus every stored relation, empty ones
    /// included so that their arities survive. Caches are not part of it.
    pub(crate) fn image(&self, seq: u64) -> WalRecord {
        let relations = self
            .edb
            .predicates()
            .into_iter()
            .map(|name| {
                let relation = self.edb.relation(name).expect("listed predicate");
                let rows = relation.iter().map(<[Const]>::to_vec).collect();
                (name, relation.arity(), rows)
            })
            .collect();
        WalRecord::Image {
            seq,
            rules: self.program.to_string(),
            relations,
        }
    }

    /// The one commit: the [commit protocol](self#the-commit-protocol) over
    /// several independently submitted batches. Returns one result per input
    /// batch, in order: batches that failed validation keep their own errors, a
    /// failed append fails every valid batch with the same (durability) error —
    /// none of them was acknowledged — and a maintenance or compaction error
    /// lands on the group's *last* valid batch, since both belong to the group
    /// and not to one of its batches.
    pub(crate) fn commit_group<B: AsRef<[Op]>>(
        &mut self,
        batches: &[B],
        on_log: OnLog,
    ) -> Vec<Result<TxnSummary, EngineError>> {
        let mut arities = FxHashMap::default();
        let mut results: Vec<Result<TxnSummary, EngineError>> = batches
            .iter()
            .map(|ops| {
                self.validate_txn_ops(ops.as_ref(), &mut arities)
                    .map(|()| TxnSummary::default())
            })
            .collect();
        if on_log == OnLog::No && self.is_durable() {
            // An empty batch logs nothing; `wal_append` numbers the records.
            let mut records: Vec<WalRecord> = batches
                .iter()
                .zip(&results)
                .filter(|(ops, valid)| valid.is_ok() && !ops.as_ref().is_empty())
                .map(|(ops, _)| WalRecord::Txn {
                    seq: 0,
                    ops: ops.as_ref().to_vec(),
                })
                .collect();
            if let Err(error) = self.wal_append(&mut records) {
                for valid in results.iter_mut().filter(|result| result.is_ok()) {
                    *valid = Err(error.clone());
                }
                return results;
            }
        }
        let maintained = self.apply_group_validated(batches, &mut results);
        // The compaction check runs whatever maintenance did.
        let checked = match on_log {
            OnLog::No => self.wal_maybe_compact(),
            OnLog::Already => Ok(()),
        };
        if let Err(error) = maintained.and(checked) {
            if let Some(last) = results.iter_mut().rev().find(|result| result.is_ok()) {
                *last = Err(error);
            }
        }
        results
    }

    /// Steps 3 and 4 of [`Engine::commit_group`]: apply the net effect of each
    /// batch whose `results` entry is `Ok` to the fact store, in order, leaving
    /// its [`TxnSummary`] there — then maintain the materialized model once,
    /// from the *group's* net delta: the facts it removed that are absent from
    /// the fact store at its end, and the facts it added that are present there,
    /// in one [`seminaive_maintain`]. A fact asserted by one batch and retracted
    /// by another never reaches the model. Returns the outcome of the
    /// maintenance: the fact store is committed either way, an evaluation error
    /// (or a caught panic) degrades to dropping the model via the containment
    /// boundary.
    fn apply_group_validated<B: AsRef<[Op]>>(
        &mut self,
        batches: &[B],
        results: &mut [Result<TxnSummary, EngineError>],
    ) -> Result<(), EngineError> {
        let mut removed: Vec<(Symbol, Vec<Const>)> = Vec::new();
        let mut added: Vec<(Symbol, Vec<Const>)> = Vec::new();
        for (ops, result) in batches.iter().zip(results) {
            if let Ok(summary) = result {
                *summary = self.apply_to_store(ops.as_ref(), &mut removed, &mut added);
            }
        }
        if self.model.is_none() {
            return Ok(());
        }
        let net = |facts: Vec<(Symbol, Vec<Const>)>, stored: bool| {
            let mut delta: FxHashMap<Symbol, Relation> = FxHashMap::default();
            for (target, tuple) in facts {
                let present = self
                    .edb
                    .relation(target)
                    .is_some_and(|r| r.contains(&tuple));
                if present == stored {
                    delta
                        .entry(target)
                        .or_insert_with(|| Relation::new(tuple.len()))
                        .insert(&tuple);
                }
            }
            delta
        };
        let (removed, added) = (net(removed, false), net(added, true));
        if removed.is_empty() && added.is_empty() {
            return Ok(());
        }
        self.contained(|engine| {
            if engine.compiled.is_none() {
                engine.compiled = Some(CompiledProgram::compile(&engine.program)?);
            }
            let compiled = engine.compiled.as_ref().expect("compiled above");
            let model = engine.model.as_mut().expect("checked above");
            let stats = seminaive_maintain(compiled, model, &removed, &added, &engine.options)?;
            engine.stats.merge(&stats);
            Ok(())
        })
    }

    /// Apply one validated batch's net effect to the fact store — each fact once,
    /// where the batch first names it, with the polarity of the *last* operation
    /// on it; retractions first — recording what actually left the store in
    /// `removed` and what actually entered it in `added` (while there is a model
    /// to maintain from them).
    fn apply_to_store(
        &mut self,
        ops: &[Op],
        removed: &mut Vec<(Symbol, Vec<Const>)>,
        added: &mut Vec<(Symbol, Vec<Const>)>,
    ) -> TxnSummary {
        let mut summary = TxnSummary::default();
        if let [(op, predicate, tuple)] = ops {
            // A batch of one has nothing to net out.
            self.apply_fact(*op, *predicate, tuple, &mut summary, removed, added);
            return summary;
        }
        let mut net: Vec<(WalOp, Symbol, &[Const])> = Vec::with_capacity(ops.len());
        let mut slots: FxHashMap<(Symbol, &[Const]), usize> = FxHashMap::default();
        for (op, predicate, tuple) in ops {
            match slots.entry((*predicate, tuple)) {
                Entry::Occupied(slot) => net[*slot.get()].0 = *op,
                Entry::Vacant(slot) => {
                    slot.insert(net.len());
                    net.push((*op, *predicate, tuple));
                }
            }
        }
        for polarity in [WalOp::Retract, WalOp::Assert] {
            for &(op, predicate, tuple) in net.iter().filter(|fact| fact.0 == polarity) {
                self.apply_fact(op, predicate, tuple, &mut summary, removed, added);
            }
        }
        summary
    }

    /// Apply one operation to the fact store. IDB-predicate ops are routed to the
    /// assertion relation; registering a new assertion exit rule invalidates the
    /// model.
    fn apply_fact(
        &mut self,
        op: WalOp,
        predicate: Symbol,
        tuple: &[Const],
        summary: &mut TxnSummary,
        removed: &mut Vec<(Symbol, Vec<Const>)>,
        added: &mut Vec<(Symbol, Vec<Const>)>,
    ) {
        if op == WalOp::Assert && self.idb.contains(&predicate) {
            self.ensure_assertion_rule(predicate, tuple.len());
        }
        let target = self.stored_as(predicate);
        let applied = match op {
            WalOp::Retract => self.edb.remove_fact(target, tuple),
            WalOp::Assert => self.edb.add_fact(target, tuple),
        };
        let count = match (op, applied) {
            (WalOp::Retract, true) => &mut summary.retracted,
            (WalOp::Retract, false) => &mut summary.missing,
            (WalOp::Assert, true) => &mut summary.asserted,
            (WalOp::Assert, false) => &mut summary.duplicates,
        };
        *count += 1;
        if applied && self.model.is_some() {
            let delta = match op {
                WalOp::Retract => removed,
                WalOp::Assert => added,
            };
            delta.push((target, tuple.to_vec()));
        }
    }

    /// Export the session — registered program plus every base fact — as
    /// Datalog source. Loading it ([`Engine::load_source`], the REPL's `:load`,
    /// `factorlog FILE`) rebuilds the same program and fact store; loading it
    /// into a session that already holds them changes nothing. Caches (the
    /// materialized model, prepared plans) are not part of it. A durable
    /// session's own image is binary (the `durability` module); this text is
    /// for export and import only.
    pub fn snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut text = String::new();
        if !self.program.is_empty() {
            text.push_str("% rules\n");
            let _ = write!(text, "{}", self.program);
        }
        let predicates = self.edb.predicates();
        if predicates.iter().any(|&p| self.edb.count(p) > 0) {
            text.push_str("% facts\n");
            for predicate in predicates {
                let relation = self.edb.relation(predicate).expect("listed predicate");
                for row in relation.iter() {
                    let terms = row.iter().map(|&value| Term::Const(value)).collect();
                    let _ = writeln!(text, "{}.", Atom::new(predicate, terms));
                }
            }
        }
        text
    }

    /// Run one evaluation (or durably-logged mutation) step under the engine's
    /// fault-containment boundary, enforcing the session invariant: **any
    /// failed evaluation — limit, cancellation, caught panic, injected fault —
    /// drops the materialized view; the fact store stays the source of
    /// truth.** A panic escaping `body` (an injected `Panic`-action fault, or
    /// a genuine bug) is converted to [`EvalError::WorkerPanic`].
    /// `AssertUnwindSafe` is sound because the poisoned half-state (a
    /// partially maintained model) is exactly what the invariant discards.
    pub(crate) fn contained<T>(
        &mut self,
        body: impl FnOnce(&mut Engine) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let caught = {
            let this = &mut *self;
            catch_unwind(AssertUnwindSafe(|| body(this)))
        };
        let result = match caught {
            Ok(inner) => {
                // A successful run merges its counters at the call site; an
                // aborted one only carries them inside the error. Fold those
                // partial counters into the session stats so `:stats` shows
                // the work (and the abort) the failed evaluation did.
                if let Err(EngineError::Eval(EvalError::LimitExceeded { partial_stats, .. })) =
                    &inner
                {
                    self.stats.merge(partial_stats);
                }
                inner
            }
            Err(payload) => {
                self.stats.worker_panics += 1;
                Err(EngineError::Eval(EvalError::WorkerPanic {
                    message: panic_message(payload.as_ref()),
                    // Already the session stats — nothing further to merge.
                    partial_stats: Box::new(self.stats.clone()),
                }))
            }
        };
        // Only evaluation failures taint the view. Validation and durability
        // errors abort *before* any state mutation (write-ahead discipline),
        // so the model is still consistent with the fact store there.
        if matches!(result, Err(EngineError::Eval(_))) {
            self.model = None;
        }
        result
    }

    /// Report reaching an engine-level chaos site (WAL append, compaction). A
    /// no-op unless the session's fault injector is armed there; an
    /// `Error`-action fault aborts the operation with a structured error
    /// (before any state was mutated — the sites sit at the top of the
    /// write-ahead path), a `Panic`-action fault panics and is converted by
    /// the [`Engine::contained`] boundary of the enclosing operation.
    pub(crate) fn chaos_hit(&self, site: FaultSite) -> Result<(), EngineError> {
        let Some(injector) = &self.options.fault_injector else {
            return Ok(());
        };
        match injector.hit(site) {
            None => Ok(()),
            Some(FaultAction::Error) => Err(EngineError::Eval(EvalError::Injected { site })),
            Some(FaultAction::Panic) => panic!("injected fault ({site})"),
        }
    }

    /// Materialize the model by full evaluation when there is none; commits keep
    /// an existing one up to date.
    fn refresh(&mut self) -> Result<(), EngineError> {
        if self.model.is_none() {
            if self.compiled.is_none() {
                self.compiled = Some(CompiledProgram::compile(&self.program)?);
            }
            let compiled = self.compiled.as_ref().expect("compiled above");
            let result = seminaive_evaluate_compiled(compiled, &self.edb, &self.options)?;
            self.stats.merge(&result.stats);
            self.model = Some(result.database);
        }
        Ok(())
    }

    /// Answers to `query` over the materialized model of the registered program
    /// (projected onto the query's free positions, sorted), materializing it first
    /// when there is none.
    pub fn query(&mut self, query: &Query) -> Result<Vec<Vec<Const>>, EngineError> {
        let start = self.tracing().then(std::time::Instant::now);
        self.contained(Engine::refresh)?;
        let answers = self
            .model
            .as_ref()
            .expect("model materialized by refresh")
            .answers(query);
        if let (Some(start), Some(metrics)) = (start, self.metrics.as_deref_mut()) {
            metrics.query_latency.record(start.elapsed());
        }
        Ok(answers)
    }

    /// Materialize the model if there is none (under the containment boundary)
    /// and return a clone of it: the full model answers *any* atom query via
    /// [`Database::answers`], so the server snapshots it into an immutable,
    /// `Arc`-shared view that reader threads query without touching the engine.
    pub fn refreshed_model(&mut self) -> Result<Database, EngineError> {
        self.contained(Engine::refresh)?;
        Ok(self.model.clone().expect("model materialized by refresh"))
    }

    /// Look up (or build) the prepared plan for `query`'s (predicate, shape),
    /// recording a cache hit or miss in the session statistics.
    fn prepared_plan(&mut self, query: &Query) -> Result<(PreparedPlan, Strategy), EngineError> {
        let start = self.tracing().then(std::time::Instant::now);
        let result = self.prepared_plan_inner(query);
        if let (Some(start), Some(metrics)) = (start, self.metrics.as_deref_mut()) {
            metrics.prepared_lookup.record(start.elapsed());
        }
        result
    }

    fn prepared_plan_inner(
        &mut self,
        query: &Query,
    ) -> Result<(PreparedPlan, Strategy), EngineError> {
        let key = (query.atom.predicate, query_shape(query));
        let bound: Vec<Const> = query
            .atom
            .terms
            .iter()
            .filter_map(|t| t.as_const())
            .collect();
        self.prepared_clock += 1;
        let now = self.prepared_clock;
        if let Some(entry) = self.prepared.get_mut(&key) {
            if let Some(plan) = entry.plan.rebind(&bound) {
                entry.last_used = now;
                let strategy = entry.strategy;
                self.stats.record_plan_lookup(true);
                return Ok((plan, strategy));
            }
        }
        // Miss: run the full pipeline for this query and cache the plan (most recent
        // constants win when rebinding was not applicable), evicting the
        // least-recently-used plan when the cache is full.
        self.stats.record_plan_lookup(false);
        let optimized = optimize_query(&self.program, query, &PipelineOptions::default())?;
        if self.tracing() {
            if let Some(metrics) = self.metrics.as_deref_mut() {
                metrics.absorb_pass_times(&optimized.pass_times);
            }
        }
        let plan = optimized.prepare(&self.options)?;
        let strategy = optimized.strategy;
        if self.prepared_capacity > 0 {
            self.prepared.insert(
                key,
                CachedPlan {
                    plan: plan.clone(),
                    strategy,
                    last_used: now,
                },
            );
            self.evict_to_capacity();
        }
        Ok((plan, strategy))
    }

    /// Ensure a prepared plan exists for `query`; reports whether a cached plan was
    /// reused and which strategy the plan embodies.
    pub fn prepare(&mut self, query: &Query) -> Result<PrepareReport, EngineError> {
        let hits_before = self.stats.plan_cache_hits;
        let (_, strategy) = self.prepared_plan(query)?;
        Ok(PrepareReport {
            cached: self.stats.plan_cache_hits > hits_before,
            strategy,
        })
    }

    /// Is a prepared plan cached for `query`'s (predicate, shape)?
    pub fn has_prepared(&self, query: &Query) -> bool {
        self.prepared
            .contains_key(&(query.atom.predicate, query_shape(query)))
    }

    /// The strategy of the cached plan for `query`, if one is cached (a pure lookup:
    /// no counters are touched).
    pub fn prepared_strategy(&self, query: &Query) -> Option<Strategy> {
        self.prepared
            .get(&(query.atom.predicate, query_shape(query)))
            .map(|entry| entry.strategy)
    }

    /// Answers to `query` via the prepared-plan path: the optimization pipeline runs
    /// at most once per (predicate, shape); subsequent calls replay the cached
    /// compiled plan over the current facts. Same answer contract as
    /// [`Engine::query`].
    pub fn query_prepared(&mut self, query: &Query) -> Result<Vec<Vec<Const>>, EngineError> {
        let start = self.tracing().then(std::time::Instant::now);
        let (plan, _) = self.prepared_plan(query)?;
        let result = self.contained(|engine| {
            let result = plan.evaluate(&engine.edb, &engine.options)?;
            engine.stats.merge(&result.stats);
            Ok(result)
        })?;
        let answers = result.answers(plan.query());
        if let (Some(start), Some(metrics)) = (start, self.metrics.as_deref_mut()) {
            metrics.query_latency.record(start.elapsed());
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_datalog::eval::{naive_evaluate, ReferenceModel};
    use factorlog_datalog::parser::{parse_atom, parse_query};

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    fn tc_engine(n: i64) -> Engine {
        let mut engine = Engine::new();
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap();
        for i in 0..n {
            engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        }
        engine
    }

    #[test]
    fn query_matches_batch_evaluation() {
        let mut engine = tc_engine(10);
        let query = parse_query("t(0, Y)").unwrap();
        let batch = naive_evaluate(engine.program(), engine.facts())
            .unwrap()
            .answers(&query);
        assert_eq!(engine.query(&query).unwrap(), batch);
        assert_eq!(batch.len(), 10);
    }

    #[test]
    fn inserts_after_materialization_are_incremental() {
        let mut engine = tc_engine(10);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 10);
        let inferences_after_first = engine.stats().inferences;

        engine.insert("e", &[c(10), c(11)]).unwrap();
        assert!(engine.is_materialized(), "the commit maintains the model");
        assert_eq!(
            engine.stats().facts_derived,
            55 + 11,
            "t(0..=10, 11) derived by the insert's commit"
        );
        let inferences_after_insert = engine.stats().inferences;
        assert_eq!(engine.query(&query).unwrap().len(), 11);
        assert_eq!(engine.stats().inferences, inferences_after_insert);

        let incremental_cost = engine.stats().inferences - inferences_after_first;
        assert!(
            incremental_cost < inferences_after_first,
            "resume ({incremental_cost}) must cost less than the initial fixpoint \
             ({inferences_after_first})"
        );
    }

    #[test]
    fn duplicate_and_derived_inserts_are_no_ops() {
        let mut engine = tc_engine(5);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        let inferences = engine.stats().inferences;
        // Duplicate EDB fact.
        assert!(!engine.insert("e", &[c(0), c(1)]).unwrap());
        assert_eq!(engine.stats().inferences, inferences);
        // Fact already derivable (t(0, 1) is in the model): inserted into the EDB but
        // contributes no delta work.
        assert!(engine.insert("t", &[c(0), c(1)]).unwrap());
        assert_eq!(engine.stats().inferences, inferences);
        assert_eq!(engine.query(&query).unwrap().len(), 5);
    }

    #[test]
    fn inserting_idb_facts_propagates() {
        let mut engine = tc_engine(3);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 3);
        // Assert a derived fact that is not otherwise derivable; the recursion must
        // extend it.
        engine.insert("t", &[c(3), c(100)]).unwrap();
        let answers = engine.query(&query).unwrap();
        assert!(answers.contains(&vec![c(100)]));
    }

    #[test]
    fn add_rules_invalidates_model_but_keeps_facts() {
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 4);
        engine.load_source("s(X, Y) :- t(Y, X).").unwrap();
        assert!(!engine.is_materialized());
        let s_query = parse_query("s(4, Y)").unwrap();
        assert_eq!(engine.query(&s_query).unwrap().len(), 4);
        assert_eq!(engine.query(&query).unwrap().len(), 4);
    }

    #[test]
    fn arity_and_groundness_are_checked() {
        let mut engine = tc_engine(2);
        let err = engine.insert("e", &[c(1)]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
        let atom = parse_atom("e(X, 1)").unwrap();
        let err = engine.insert_atom(&atom).unwrap_err();
        assert!(matches!(err, EngineError::NonGroundFact(_)));
        assert!(format!("{err}").contains("non-ground"));
    }

    #[test]
    fn prepared_cache_hits_on_same_adornment() {
        let mut engine = tc_engine(8);
        let query = parse_query("t(0, Y)").unwrap();
        let first = engine.query_prepared(&query).unwrap();
        assert_eq!(engine.stats().plan_cache_misses, 1);
        assert_eq!(engine.stats().plan_cache_hits, 0);
        let second = engine.query_prepared(&query).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().plan_cache_hits, 1);
        assert_eq!(engine.prepared_count(), 1);
    }

    #[test]
    fn prepared_cache_rebinds_across_constants() {
        let mut engine = tc_engine(10);
        let q0 = parse_query("t(0, Y)").unwrap();
        let q5 = parse_query("t(5, Y)").unwrap();
        assert_eq!(engine.query_prepared(&q0).unwrap().len(), 10);
        // Different constant, same adornment: the cached plan is rebound, not rebuilt.
        assert_eq!(engine.query_prepared(&q5).unwrap().len(), 5);
        assert_eq!(engine.stats().plan_cache_hits, 1);
        assert_eq!(engine.stats().plan_cache_misses, 1);
        // And the prepared answers agree with the materialized-model answers.
        assert_eq!(
            engine.query_prepared(&q5).unwrap(),
            engine.query(&q5).unwrap()
        );
    }

    #[test]
    fn wrong_arity_insert_on_model_only_predicate_errors_cleanly() {
        // `t` exists only as rules (and in the model after a query), never in the
        // EDB; a wrong-arity insert must error, not panic in the storage layer.
        let mut engine = tc_engine(3);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        let err = engine.insert("t", &[c(1)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        // And the fact store was not polluted with a wrong-arity relation.
        assert_eq!(engine.facts().count("t"), 0);
        assert_eq!(engine.query(&query).unwrap().len(), 3);
    }

    #[test]
    fn repeated_variable_queries_get_their_own_plans() {
        let mut engine = Engine::new();
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        engine.insert("e", &[c(1), c(0)]).unwrap();
        let q_xy = parse_query("t(X, Y)").unwrap();
        let q_xx = parse_query("t(X, X)").unwrap();
        // Cache the general plan first, then the repeated-variable query: it must not
        // reuse the (t, "ff") plan.
        let xy = engine.query_prepared(&q_xy).unwrap();
        let xx = engine.query_prepared(&q_xx).unwrap();
        assert_eq!(xy, engine.query(&q_xy).unwrap());
        assert_eq!(xx, engine.query(&q_xx).unwrap());
        assert_eq!(xx, vec![vec![c(0)], vec![c(1)]]);
        assert_eq!(engine.prepared_count(), 2);
    }

    #[test]
    fn prepared_path_ignores_facts_for_the_pipelines_own_predicates() {
        // `m_t_bf` is an ordinary EDB predicate to the session, and also the name the
        // pipeline gives the query's magic predicate: the prepared plan must not
        // read the session's `m_t_bf` facts as magic seeds.
        let mut engine = Engine::new();
        engine
            .load_source("t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).")
            .unwrap();
        for (a, b) in [(0, 1), (1, 2), (7, 8)] {
            engine.insert("e", &[c(a), c(b)]).unwrap();
        }
        engine.insert("m_t_bf", &[c(7)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap(), vec![vec![c(1)], vec![c(2)]]);
        assert_eq!(
            engine.query_prepared(&query).unwrap(),
            vec![vec![c(1)], vec![c(2)]]
        );
    }

    #[test]
    fn prepared_path_sees_asserted_idb_facts() {
        let mut engine = Engine::new();
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query_prepared(&query).unwrap(), vec![vec![c(1)]]);
        // Assert a t fact after the plan is cached: the assertion exit rule
        // invalidates the plan and the rebuilt plan must include it — and extend it
        // through the recursion (t(0,99) via t(0,1) ∘ t(1,99)? no: via e(0,1)+t(1,99)).
        engine.insert("t", &[c(1), c(99)]).unwrap();
        let prepared = engine.query_prepared(&query).unwrap();
        let materialized = engine.query(&query).unwrap();
        assert_eq!(prepared, materialized);
        assert!(prepared.contains(&vec![c(99)]));
    }

    #[test]
    fn facts_present_before_rules_migrate_to_assertions() {
        // Insert t facts while t is still EDB, then register rules for t: the facts
        // must keep counting as part of the model and the rewrites must stay sound.
        let mut engine = Engine::new();
        engine.insert("t", &[c(7), c(8)]).unwrap();
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap();
        engine.insert("e", &[c(0), c(7)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        let answers = engine.query(&query).unwrap();
        assert_eq!(answers, vec![vec![c(7)], vec![c(8)]]);
        assert_eq!(engine.query_prepared(&query).unwrap(), answers);
    }

    #[test]
    fn constant_headed_rules_answer_correctly_through_the_engine() {
        // Companion to the pipeline-level adornment regression: a rule whose head has
        // a constant in the free position of the query adornment must contribute its
        // answers on the materialized path, the prepared path, and after rebinding the
        // cached plan to a different query constant (the rebind guard must refuse or
        // rebuild, never drop the rule).
        let mut engine = Engine::new();
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nt(X, 7) :- mark(X).")
            .unwrap();
        for (a, b) in [(0i64, 1i64), (1, 2), (7, 8)] {
            engine.insert("e", &[c(a), c(b)]).unwrap();
        }
        engine.insert("mark", &[c(1)]).unwrap();
        let q0 = parse_query("t(0, Y)").unwrap();
        // Derivation through the constant head: t(1, 7) via mark(1), then t(0, 7) by
        // prepending e(0, 1) — alongside the ordinary edge answers 1 and 2.
        let materialized = engine.query(&q0).unwrap();
        assert_eq!(materialized, vec![vec![c(1)], vec![c(2)], vec![c(7)]]);
        assert_eq!(engine.query_prepared(&q0).unwrap(), materialized);
        // A different constant hits the rebind guard (7 is mentioned by a rule).
        let q7 = parse_query("t(7, Y)").unwrap();
        assert_eq!(
            engine.query_prepared(&q7).unwrap(),
            engine.query(&q7).unwrap()
        );
    }

    #[test]
    fn prepare_reports_strategy_and_caching() {
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        let first = engine.prepare(&query).unwrap();
        assert!(!first.cached);
        assert_eq!(first.strategy, Strategy::FactoredMagic);
        assert!(engine.has_prepared(&query));
        let again = engine.prepare(&query).unwrap();
        assert!(again.cached);
    }

    #[test]
    fn rule_changes_drop_prepared_plans() {
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query_prepared(&query).unwrap();
        assert_eq!(engine.prepared_count(), 1);
        engine.load_source("u(X) :- t(X, X).").unwrap();
        assert_eq!(engine.prepared_count(), 0);
    }

    #[test]
    fn prepared_cache_evicts_least_recently_used() {
        let mut engine = Engine::new();
        engine
            .load_source(
                "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n\
                 s(X) :- t(X, X).\nu(Y) :- t(0, Y).",
            )
            .unwrap();
        engine.insert("e", &[c(0), c(1)]).unwrap();
        engine.insert("e", &[c(1), c(0)]).unwrap();
        engine.set_prepared_capacity(2);
        assert_eq!(engine.prepared_capacity(), 2);

        let q_t = parse_query("t(0, Y)").unwrap();
        let q_s = parse_query("s(X)").unwrap();
        let q_u = parse_query("u(Y)").unwrap();
        engine.query_prepared(&q_t).unwrap();
        engine.query_prepared(&q_s).unwrap();
        assert_eq!(engine.prepared_count(), 2);
        assert_eq!(engine.stats().plan_cache_evictions, 0);

        // Touch t so s becomes the LRU entry, then overflow with u.
        engine.query_prepared(&q_t).unwrap();
        engine.query_prepared(&q_u).unwrap();
        assert_eq!(engine.prepared_count(), 2);
        assert_eq!(engine.stats().plan_cache_evictions, 1);
        assert!(engine.has_prepared(&q_t), "recently used plan survives");
        assert!(engine.has_prepared(&q_u));
        assert!(!engine.has_prepared(&q_s), "LRU plan is evicted");

        // The evicted query still answers correctly (re-prepared on demand).
        let misses_before = engine.stats().plan_cache_misses;
        let answers = engine.query_prepared(&q_s).unwrap();
        assert_eq!(answers, engine.query(&q_s).unwrap());
        assert_eq!(engine.stats().plan_cache_misses, misses_before + 1);
    }

    #[test]
    fn shrinking_prepared_capacity_evicts_immediately() {
        let mut engine = tc_engine(4);
        let q0 = parse_query("t(0, Y)").unwrap();
        let q_all = parse_query("t(X, Y)").unwrap();
        engine.query_prepared(&q0).unwrap();
        engine.query_prepared(&q_all).unwrap();
        assert_eq!(engine.prepared_count(), 2);
        engine.set_prepared_capacity(1);
        assert_eq!(engine.prepared_count(), 1);
        assert_eq!(engine.stats().plan_cache_evictions, 1);
        // Capacity 0 disables caching.
        engine.set_prepared_capacity(0);
        assert_eq!(engine.prepared_count(), 0);
        engine.query_prepared(&q0).unwrap();
        assert_eq!(engine.prepared_count(), 0);
    }

    #[test]
    fn default_prepared_capacity_is_bounded() {
        let engine = Engine::new();
        assert_eq!(engine.prepared_capacity(), DEFAULT_PREPARED_CAPACITY);
        assert_eq!(engine.prepared_capacity(), 256);
    }

    #[test]
    fn stats_accumulate_across_calls() {
        let mut engine = tc_engine(6);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        let after_one = engine.stats().inferences;
        engine.insert("e", &[c(6), c(7)]).unwrap();
        engine.query(&query).unwrap();
        assert!(
            engine.stats().inferences > after_one,
            "counters are cumulative"
        );
        engine.reset_stats();
        assert_eq!(engine.stats().inferences, 0);
    }

    #[test]
    fn load_summary_reports_what_happened() {
        let mut engine = Engine::new();
        let summary = engine
            .load_source("t(X, Y) :- e(X, Y).\ne(1, 2).\ne(1, 2).\n?- t(1, Y).")
            .unwrap();
        assert_eq!(summary.rules_added, 1);
        assert_eq!(summary.facts_added, 1);
        assert_eq!(summary.duplicates, 1);
        assert_eq!(summary.query.unwrap().atom.predicate, Symbol::intern("t"));
    }

    #[test]
    fn options_round_trip_and_invalidate() {
        let mut engine = tc_engine(3);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        let options = EvalOptions {
            max_iterations: 123,
            ..EvalOptions::default()
        };
        engine.set_options(options);
        assert_eq!(engine.options().max_iterations, 123);
        assert!(!engine.is_materialized());
        assert_eq!(engine.query(&query).unwrap().len(), 3);
    }

    /// `EvalOptions::trace` is the session's one tracing switch: a session built
    /// or reconfigured with it on traces, and there is no second flag for
    /// `with_options` to leave disagreeing with it.
    #[test]
    fn the_trace_option_is_the_tracing_switch() {
        let traced = EvalOptions {
            trace: true,
            ..EvalOptions::default()
        };
        let engine = Engine::with_options(traced.clone());
        assert!(engine.tracing() && engine.metrics().is_some());
        let mut engine = tc_engine(3);
        engine.set_options(traced);
        assert!(engine.tracing() && engine.metrics().is_some());
        engine.set_tracing(false);
        assert!(!engine.options().trace);
        assert!(
            engine.metrics().is_some(),
            "collected data stays inspectable"
        );
    }

    #[test]
    fn retract_maintains_the_model_incrementally() {
        let mut engine = tc_engine(10);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 10);
        assert!(engine.is_materialized());

        // Retracting a middle edge cuts the chain; the model is maintained by delete
        // propagation (still materialized afterwards), not rebuilt.
        assert!(engine.retract("e", &[c(4), c(5)]).unwrap());
        assert!(engine.is_materialized(), "retraction maintains in place");
        assert_eq!(engine.query(&query).unwrap().len(), 4);
        assert!(engine.stats().retractions > 0);

        // The maintained answers equal the reference evaluation of the surviving EDB.
        let batch = naive_evaluate(engine.program(), engine.facts())
            .unwrap()
            .answers(&query);
        assert_eq!(engine.query(&query).unwrap(), batch);

        // Retracting an absent fact is a no-op.
        assert!(!engine.retract("e", &[c(4), c(5)]).unwrap());
        assert!(!engine.retract("e", &[c(77), c(78)]).unwrap());
    }

    #[test]
    fn transaction_applies_batch_atomically() {
        let mut engine = tc_engine(6);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();

        let mut txn = engine.transaction();
        txn.retract("e", &[c(2), c(3)])
            .assert("e", &[c(2), c(30)])
            .assert("e", &[c(30), c(3)])
            .assert("e", &[c(0), c(1)]); // duplicate
        txn.retract("e", &[c(90), c(91)]); // missing
        assert_eq!(txn.len(), 5);
        let summary = txn.commit().unwrap();
        assert_eq!(summary.asserted, 2);
        assert_eq!(summary.retracted, 1);
        assert_eq!(summary.duplicates, 1);
        assert_eq!(summary.missing, 1);

        // The detour 2→30→3 replaces the cut edge: same reachability plus node 30.
        let answers = engine.query(&query).unwrap();
        assert!(answers.contains(&vec![c(30)]));
        assert_eq!(answers.len(), 7);
        let batch = naive_evaluate(engine.program(), engine.facts())
            .unwrap()
            .answers(&query);
        assert_eq!(engine.query(&query).unwrap(), batch);
    }

    #[test]
    fn failed_commit_is_a_no_op() {
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        let facts_before = engine.facts().total_facts();

        let mut txn = engine.transaction();
        txn.retract("e", &[c(0), c(1)]).assert("e", &[c(9)]); // arity error
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
        // Nothing was applied — not even the valid retraction queued first.
        assert_eq!(engine.facts().total_facts(), facts_before);
        assert_eq!(engine.query(&query).unwrap().len(), 4);

        // Arity consistency is also enforced *within* a batch for new predicates.
        let mut txn = engine.transaction();
        txn.assert("fresh", &[c(1), c(2)]).assert("fresh", &[c(3)]);
        assert!(matches!(
            txn.commit().unwrap_err(),
            EngineError::ArityMismatch { .. }
        ));
        assert_eq!(engine.facts().count("fresh"), 0);
    }

    #[test]
    fn last_op_wins_within_a_batch() {
        let mut engine = tc_engine(3);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();

        // retract-then-assert: present afterwards.
        let mut txn = engine.transaction();
        txn.retract("e", &[c(0), c(1)]).assert("e", &[c(0), c(1)]);
        let summary = txn.commit().unwrap();
        assert_eq!((summary.retracted, summary.duplicates), (0, 1));
        assert_eq!(engine.query(&query).unwrap().len(), 3);

        // assert-then-retract: absent afterwards.
        let mut txn = engine.transaction();
        txn.assert("e", &[c(9), c(10)]).retract("e", &[c(9), c(10)]);
        let summary = txn.commit().unwrap();
        assert_eq!((summary.asserted, summary.missing), (0, 1));
        assert!(!engine
            .facts()
            .contains_atom(&parse_atom("e(9, 10)").unwrap()));
    }

    #[test]
    fn retracting_asserted_idb_facts_propagates() {
        let mut engine = tc_engine(3);
        let query = parse_query("t(0, Y)").unwrap();
        engine.insert("t", &[c(3), c(100)]).unwrap();
        assert!(engine.query(&query).unwrap().contains(&vec![c(100)]));

        // Retracting the asserted t fact removes it and its consequences…
        assert!(engine.retract("t", &[c(3), c(100)]).unwrap());
        let answers = engine.query(&query).unwrap();
        assert!(!answers.contains(&vec![c(100)]));
        assert_eq!(answers.len(), 3);
        // …but a derived fact cannot be retracted.
        assert!(!engine.retract("t", &[c(0), c(1)]).unwrap());
        assert_eq!(engine.query(&query).unwrap().len(), 3);
        let batch = naive_evaluate(engine.program(), engine.facts())
            .unwrap()
            .answers(&query);
        assert_eq!(engine.query(&query).unwrap(), batch);
    }

    #[test]
    fn retract_flushes_pending_inserts_first() {
        let mut engine = tc_engine(5);
        let query = parse_query("t(0, Y)").unwrap();
        engine.query(&query).unwrap();
        // Insert without querying, then retract: each commit maintains the model,
        // so the deletion propagates from a fixpoint that includes the insert.
        engine.insert("e", &[c(5), c(6)]).unwrap();
        assert!(engine.is_materialized());
        assert!(engine.retract("e", &[c(2), c(3)]).unwrap());
        assert!(engine.is_materialized());
        assert_eq!(engine.query(&query).unwrap().len(), 2);
        let batch = naive_evaluate(engine.program(), engine.facts())
            .unwrap()
            .answers(&query);
        assert_eq!(engine.query(&query).unwrap(), batch);
    }

    #[test]
    fn prepared_queries_see_retractions() {
        let mut engine = tc_engine(8);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query_prepared(&query).unwrap().len(), 8);
        engine.retract("e", &[c(3), c(4)]).unwrap();
        // The prepared plan replays over the current fact store: no invalidation
        // needed, the answers just shrink.
        assert_eq!(engine.query_prepared(&query).unwrap().len(), 3);
        assert_eq!(
            engine.query_prepared(&query).unwrap(),
            engine.query(&query).unwrap()
        );
    }

    #[test]
    fn snapshot_restore_round_trips_a_session() {
        let mut engine = tc_engine(5);
        let query = parse_query("t(0, Y)").unwrap();
        engine.insert("t", &[c(5), c(50)]).unwrap(); // asserted IDB fact
        engine.insert("label", &[Const::sym("blue")]).unwrap();
        let answers = engine.query(&query).unwrap();

        let text = engine.snapshot();
        assert!(text.contains("t(X, Y) :- e(X, W), t(W, Y)."));
        assert!(text.contains("t__asserted(5, 50)."));

        // Loaded into a fresh engine: same program, same facts, same answers.
        let mut loaded = Engine::new();
        let summary = loaded.load_source(&text).unwrap();
        assert_eq!(summary.rules_added, engine.program().len());
        assert_eq!(loaded.program(), engine.program());
        assert_eq!(sorted_store(&loaded), sorted_store(&engine));
        assert_eq!(loaded.query(&query).unwrap(), answers);
        // Prepared plans are built on demand after the load and keep working.
        assert_eq!(loaded.query_prepared(&query).unwrap(), answers);
        assert_eq!(loaded.stats().plan_cache_misses, 1);
        assert_eq!(loaded.query_prepared(&query).unwrap(), answers);
        assert_eq!(loaded.stats().plan_cache_hits, 1);
        // And mutations keep flowing after the load.
        loaded.retract("e", &[c(0), c(1)]).unwrap();
        assert!(loaded.query(&query).unwrap().is_empty());
    }

    /// A session absorbs its own export as a no-op: every rule is already
    /// registered and every fact already present, so the program, the store,
    /// the model and the cached plans all stay.
    #[test]
    fn absorbing_an_export_twice_changes_nothing() {
        let mut engine = tc_engine(4);
        engine.insert("t", &[c(4), c(40)]).unwrap();
        let query = parse_query("t(0, Y)").unwrap();
        let answers = engine.query(&query).unwrap();
        assert_eq!(engine.query_prepared(&query).unwrap(), answers);
        let (program, store) = (engine.program().clone(), sorted_store(&engine));

        for _ in 0..2 {
            let summary = engine.load_source(&engine.snapshot()).unwrap();
            assert_eq!(summary.rules_added, 0);
            assert_eq!(summary.facts_added, 0);
            assert_eq!(
                summary.duplicates,
                store.iter().map(|(_, rows)| rows.len()).sum()
            );
            assert_eq!(engine.program(), &program);
            assert_eq!(sorted_store(&engine), store);
            assert!(engine.is_materialized(), "a no-op load keeps the model");
            assert_eq!(engine.query_prepared(&query).unwrap(), answers);
        }
        assert_eq!(engine.stats().plan_cache_misses, 1, "the plan survived");
        // `add_rules` is the same set lookup; a source repeating a rule
        // registers it once.
        engine.add_rules(program.clone()).unwrap();
        assert_eq!(engine.program(), &program);
        let summary = engine
            .load_source("u(X) :- e(X, Y).\nu(X) :- e(X, Y).")
            .unwrap();
        assert_eq!(summary.rules_added, 1);
        assert_eq!(engine.program().len(), program.len() + 1);
    }

    #[test]
    fn snapshot_quotes_non_identifier_symbols() {
        let mut engine = Engine::new();
        engine.insert("tag", &[Const::sym("has space")]).unwrap();
        engine.insert("tag", &[Const::sym("plain")]).unwrap();
        engine
            .insert("tag", &[Const::sym("say \"hi\"\\\n")])
            .unwrap();
        engine.insert("n", &[c(i64::MIN), c(i64::MAX)]).unwrap();
        let text = engine.snapshot();
        assert!(text.contains("tag(\"has space\")."));
        assert!(text.contains("tag(plain)."));
        assert!(text.contains(r#"tag("say \"hi\"\\\n")."#));
        assert!(text.contains("n(-9223372036854775808, 9223372036854775807)."));
        let mut loaded = Engine::new();
        loaded.load_source(&text).unwrap();
        assert_eq!(loaded.facts().count("tag"), 3);
        assert_eq!(sorted_store(&loaded), sorted_store(&engine));
    }

    #[test]
    fn snapshot_files_round_trip() {
        let path = std::env::temp_dir().join(format!(
            "factorlog_engine_snapshot_test_{}.fl",
            std::process::id()
        ));
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        let answers = engine.query(&query).unwrap();
        std::fs::write(&path, engine.snapshot()).unwrap();

        let mut loaded = Engine::new();
        loaded
            .load_source(&std::fs::read_to_string(&path).unwrap())
            .unwrap();
        assert_eq!(loaded.query(&query).unwrap(), answers);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_program_answers_from_facts() {
        let mut engine = Engine::new();
        engine.insert("e", &[c(1), c(2)]).unwrap();
        let query = parse_query("e(1, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap(), vec![vec![c(2)]]);
    }

    // The entry points of the commit path against each other: group-level
    // maintenance (one pass from the group's net delta) against batch by batch
    // and op by op, then recovery and replication of what the groups logged.

    /// A generated op `(kind, a, b)` over the cyclic-graph TC session: retractions
    /// and assertions of `e`, and of the rule-defined `t` (routed to `t__asserted`),
    /// and assertions of `q`, a predicate new to the session whose arity (1 or 2)
    /// comes from `b` — the first batch to assert it fixes it, later ones with the
    /// other arity fail validation.
    fn group_op(&(kind, a, b): &(usize, i64, i64)) -> Op {
        let (op, predicate) = match kind {
            0 | 1 => (WalOp::Retract, "e"),
            2..=4 => (WalOp::Assert, "e"),
            5 => (WalOp::Assert, "t"),
            6 => (WalOp::Retract, "t"),
            _ => (WalOp::Assert, "q"),
        };
        let arity = if kind == 7 { 1 + b as usize % 2 } else { 2 };
        (
            op,
            Symbol::intern(predicate),
            [c(a), c(b)][..arity].to_vec(),
        )
    }

    /// A materialized TC session over a 5-cycle; `assert_t` registers the
    /// `t__asserted` exit rule up front (or leaves that — and the invalidation it
    /// causes — to the first group that needs it).
    fn cyclic_session(assert_t: bool) -> Engine {
        cyclic_session_in(Engine::new(), assert_t)
    }

    /// [`cyclic_session`] loaded into `engine` (a fresh durable one, say).
    fn cyclic_session_in(mut engine: Engine, assert_t: bool) -> Engine {
        engine
            .load_source("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap();
        for i in 0..5 {
            engine.insert("e", &[c(i), c((i + 1) % 5)]).unwrap();
        }
        if assert_t {
            engine.insert("t", &[c(5), c(0)]).unwrap();
        }
        engine.query(&parse_query("t(0, Y)").unwrap()).unwrap();
        engine
    }

    /// The maintained model, every predicate, equals the reference model of the
    /// session's fact store.
    fn assert_model_is_reference(engine: &mut Engine) {
        let reference = naive_evaluate(engine.program(), engine.facts()).unwrap();
        assert_eq!(
            ReferenceModel::from(&engine.refreshed_model().unwrap()),
            reference
        );
    }

    fn sorted_store(engine: &Engine) -> Vec<(Symbol, Vec<Vec<Const>>)> {
        let mut store: Vec<_> = engine
            .facts()
            .iter()
            .map(|(predicate, relation)| (predicate, relation.to_sorted_vec()))
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        store.sort();
        store
    }

    /// Drive `groups` through every entry point of the commit path: (a) op by op
    /// through `insert`/`retract`, (b) batch by batch through `Txn`s, (c) group by
    /// group through `commit_group` — same summaries in (b) and (c), same store in
    /// all three, and after every group a model equal to the reference model —
    /// then (d) recovery of (c)'s directory and (e) `apply_replicated` of (c)'s
    /// log into a fresh directory: the same store and the reference model again,
    /// and in (b) to (e) the same records on the log.
    fn assert_groups_equal_singles(groups: &[Vec<Vec<Op>>], assert_t: bool) {
        use crate::durability::{tests::fresh_dir, DurabilityOptions, WAL_FILE};
        let options = DurabilityOptions {
            fsync: false,
            ..DurabilityOptions::default()
        };
        let open = |dir: &std::path::Path| Engine::open_durable_with(dir, options).unwrap();
        let log =
            |dir: &std::path::Path| crate::wal::read_log(&dir.join(WAL_FILE)).unwrap().records;
        let dirs = ["entry_txn", "entry_group", "entry_ship"].map(fresh_dir);

        let mut single = cyclic_session(assert_t);
        let mut batched = cyclic_session_in(open(&dirs[0]), assert_t);
        let mut grouped = cyclic_session_in(open(&dirs[1]), assert_t);
        for group in groups {
            let expected: Vec<Result<TxnSummary, String>> = group
                .iter()
                .map(|batch| {
                    let mut txn = batched.transaction();
                    txn.ops = batch.clone();
                    txn.commit().map_err(|error| error.to_string())
                })
                .collect();
            // Op by op, the batches a `Txn` commits (one that fails validation is
            // refused whole, where its ops one by one could land in part).
            for (batch, _) in group.iter().zip(&expected).filter(|(_, r)| r.is_ok()) {
                for (op, predicate, tuple) in batch {
                    match op {
                        WalOp::Assert => single.insert(*predicate, tuple),
                        WalOp::Retract => single.retract(*predicate, tuple),
                    }
                    .expect("op commits");
                }
            }
            let summaries: Vec<Result<TxnSummary, String>> = grouped
                .commit_group(group, OnLog::No)
                .into_iter()
                .map(|result| result.map_err(|error| error.to_string()))
                .collect();
            assert_eq!(summaries, expected, "per-batch summaries");
            assert_eq!(sorted_store(&single), sorted_store(&grouped));
            assert_eq!(sorted_store(&batched), sorted_store(&grouped));
            for engine in [&mut single, &mut batched, &mut grouped] {
                assert_model_is_reference(engine);
            }
        }

        let (store, records) = (sorted_store(&grouped), log(&dirs[1]));
        assert_eq!(log(&dirs[0]), records, "Txn batches log what groups log");
        drop(grouped);
        let mut recovered = open(&dirs[1]);
        assert_eq!(log(&dirs[1]), records, "replay logs nothing");
        let mut shipped = open(&dirs[2]);
        let applied = shipped.apply_replicated(records.clone()).unwrap();
        assert_eq!(applied, records.len());
        assert_eq!(
            log(&dirs[2]),
            records,
            "shipped records are logged verbatim"
        );
        for engine in [&mut recovered, &mut shipped] {
            assert_eq!(sorted_store(engine), store);
            assert_model_is_reference(engine);
        }
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn group_level_maintenance_equals_batch_by_batch(
            groups in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0usize..8, 0i64..6, 0i64..6), 1..5),
                    1..7,
                ),
                1..5,
            ),
            assert_t in 0usize..2,
        ) {
            let groups: Vec<Vec<Vec<Op>>> = groups
                .iter()
                .map(|group| group.iter().map(|batch| batch.iter().map(group_op).collect()).collect())
                .collect();
            assert_groups_equal_singles(&groups, assert_t == 1);
        }
    }

    #[test]
    fn a_fact_crossing_batches_of_one_group_nets_out() {
        let e = |op, a, b| (op, Symbol::intern("e"), vec![c(a), c(b)]);
        let t = |op, a, b| (op, Symbol::intern("t"), vec![c(a), c(b)]);
        use WalOp::{Assert, Retract};
        let groups = vec![
            // Asserted then retracted by a later batch: never reaches the model.
            vec![vec![e(Assert, 7, 8)], vec![e(Retract, 7, 8)]],
            // Retracted then re-asserted: the model keeps it, nothing to propagate.
            vec![
                vec![e(Retract, 0, 1)],
                vec![e(Assert, 0, 1), e(Assert, 0, 1)],
            ],
            // Both at once, with a duplicate, a missing retraction, and the same
            // fact flipping twice; the rule-defined predicate crosses batches too.
            vec![
                vec![e(Retract, 1, 2), e(Assert, 8, 9), t(Assert, 5, 0)],
                vec![e(Assert, 1, 2), e(Retract, 8, 9), e(Retract, 9, 9)],
                vec![e(Retract, 1, 2), e(Assert, 2, 3), t(Retract, 5, 0)],
                vec![t(Assert, 5, 0), e(Retract, 3, 4)],
            ],
        ];
        assert_groups_equal_singles(&groups, false);
        assert_groups_equal_singles(&groups, true);

        // And it is one pass: two retracting batches over-delete the cycle's closure
        // once as a group, twice one by one; the group's inserts ride the same pass.
        let (mut grouped, mut single) = (cyclic_session(false), cyclic_session(false));
        let allocs = grouped.stats().scratch_allocs;
        let group = vec![
            vec![e(Retract, 0, 1), e(Assert, 6, 0)],
            vec![e(Retract, 2, 3), e(Assert, 6, 2)],
        ];
        for batch in &group {
            single.commit_one(batch, OnLog::No).unwrap();
        }
        assert!(grouped
            .commit_group(&group, OnLog::No)
            .iter()
            .all(Result::is_ok));
        assert!(grouped.stats().retractions < single.stats().retractions);
        assert_eq!(
            2 * (grouped.stats().scratch_allocs - allocs),
            single.stats().scratch_allocs - allocs,
            "one maintenance step per commit: the group plans once, the singles twice"
        );
        assert_model_is_reference(&mut grouped);
    }

    #[test]
    fn a_load_into_a_materialized_session_maintains_once_up_to_the_first_bad_fact() {
        let mut engine = tc_engine(4);
        let query = parse_query("t(0, Y)").unwrap();
        assert_eq!(engine.query(&query).unwrap().len(), 4);
        let allocs = engine.stats().scratch_allocs;
        let summary = engine
            .load_source("e(4, 5). e(5, 6). e(0, 1). e(6, 7).")
            .unwrap();
        assert_eq!((summary.facts_added, summary.duplicates), (3, 1));
        assert_eq!(
            engine.stats().scratch_allocs - allocs,
            engine.program().len(),
            "one maintenance pass plans the program once"
        );
        assert_eq!(engine.query(&query).unwrap().len(), 7);
        // A fact that fails validation ends the load: the facts before it commit.
        let err = engine.load_source("e(7, 8). e(9). e(8, 9).").unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
        assert_eq!(engine.query(&query).unwrap().len(), 8);
        assert!(!engine
            .facts()
            .relation(Symbol::intern("e"))
            .unwrap()
            .contains(&[c(8), c(9)]));
    }

    #[test]
    fn a_batch_giving_a_new_predicate_a_second_arity_fails_alone() {
        let q = |tuple: &[i64]| {
            let tuple = tuple.iter().map(|&i| c(i)).collect();
            vec![(WalOp::Assert, Symbol::intern("q"), tuple)]
        };
        let mut engine = Engine::new();
        let results = engine.commit_group(&[q(&[1]), q(&[1, 2])], OnLog::No);
        assert!(matches!(results[0], Ok(TxnSummary { asserted: 1, .. })));
        assert!(matches!(
            results[1],
            Err(EngineError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
        assert_eq!(engine.facts().count("q"), 1);
    }

    #[test]
    fn a_fault_during_group_maintenance_drops_the_model_not_the_commits() {
        let e = |op, a, b| (op, Symbol::intern("e"), vec![c(a), c(b)]);
        for site in [FaultSite::DeleteOverdelete, FaultSite::RoundMerge] {
            for action in [FaultAction::Error, FaultAction::Panic] {
                let mut engine = cyclic_session(false);
                engine.set_fault_injector(Some(FaultInjector::armed(site, action, 0)));
                let group = vec![
                    vec![e(WalOp::Retract, 0, 1), e(WalOp::Assert, 0, 2)],
                    vec![e(WalOp::Assert, 6, 0)],
                    vec![(WalOp::Assert, Symbol::intern("e"), vec![c(1)])],
                    vec![e(WalOp::Retract, 3, 4)],
                ];
                let results = engine.commit_group(&group, OnLog::No);
                // The invalid batch keeps its own error; the maintenance error lands
                // on the group's last valid batch; everything valid is in the store.
                assert!(matches!(results[2], Err(EngineError::ArityMismatch { .. })));
                assert!(results[0].is_ok() && results[1].is_ok());
                assert!(
                    matches!(results[3], Err(EngineError::Eval(_))),
                    "{site} {action:?}: {:?}",
                    results[3]
                );
                assert!(!engine.is_materialized(), "the model is dropped");
                // (A fired Error-action injector fails every later evaluation too.)
                engine.set_fault_injector(None);
                let store = engine.facts().relation(Symbol::intern("e")).unwrap();
                assert_eq!(store.len(), 5 - 2 + 2, "{site} {action:?}");
                assert_model_is_reference(&mut engine);
            }
        }
    }
}
