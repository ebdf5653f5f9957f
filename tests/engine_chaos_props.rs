//! Engine-wide chaos harness: random fault injection and resource limits at
//! every named [`FaultSite`], fired during mixed query/mutation workloads.
//!
//! The properties under test are the PR's containment invariants:
//!
//! * **Clean completion-or-failure** — every operation either succeeds or
//!   returns a *structured* [`EngineError`]; no panic escapes the engine, no
//!   operation hangs, no batch half-applies.
//! * **Store is the source of truth** — after any failed evaluation (tripped
//!   limit, caught panic, injected fault at any site), the *same* session's
//!   model is exactly the reference evaluation of its surviving base facts.
//! * **Prompt deadlines** — a wall-clock deadline on an unbounded recursive
//!   query aborts within 2x the deadline, and the engine stays reusable.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// Every injection site the engine exposes, in one indexable list.
const SITES: [FaultSite; 8] = [
    FaultSite::JoinOuterLoop,
    FaultSite::RoundMerge,
    FaultSite::DeleteOverdelete,
    FaultSite::DeleteRederive,
    FaultSite::WalAppend,
    FaultSite::Compaction,
    FaultSite::CompactionAfterTempWrite,
    FaultSite::CompactionAfterRename,
];

const ACTIONS: [FaultAction; 2] = [FaultAction::Error, FaultAction::Panic];

/// A scratch data directory, unique per test case and cleaned before use.
fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("factorlog_chaos_{tag}_{}_{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The convergence oracle: a session that went through faults, limits and
/// partial evaluations must — once disarmed — hold exactly `reference`, the
/// reference model of its program over its surviving base facts.
fn assert_converges(
    survivor: &mut Engine,
    reference: &ReferenceModel,
) -> Result<(), TestCaseError> {
    survivor.set_fault_injector(None);
    survivor.set_limits(None, None, None);
    survivor.cancel_token().reset();
    let model = survivor
        .refreshed_model()
        .map_err(|e| TestCaseError::fail(format!("disarmed survivor must answer cleanly: {e}")))?;
    prop_assert_eq!(
        &ReferenceModel::from(&model),
        reference,
        "survivor diverges from the reference evaluation"
    );
    Ok(())
}

/// Is this error one of the structured failures a contained fault may surface?
fn is_structured_failure(error: &EngineError) -> bool {
    matches!(
        error,
        EngineError::Eval(
            EvalError::LimitExceeded { .. }
                | EvalError::WorkerPanic { .. }
                | EvalError::Injected { .. }
        ) | EngineError::Durability(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole property: a mixed insert/retract/transaction/query workload
    /// with a random fault (any site, error or panic action, random arming
    /// delay) and a random derived-fact limit never panics out of the engine,
    /// never hangs, only ever fails structurally — and the session converges
    /// to the from-scratch evaluation of whatever base facts survived.
    #[test]
    fn random_faults_during_mixed_workloads_stay_contained_and_convergent(
        ops in prop::collection::vec((0usize..5, 0i64..12, 0i64..12), 8..32),
        site_idx in 0usize..8,
        action_idx in 0usize..2,
        countdown in 0u64..8,
        limit_sel in 0usize..3,
        durable_sel in 0usize..2,
    ) {
        let site = SITES[site_idx];
        let action = ACTIONS[action_idx];
        // The WAL sites only exist on durable sessions; force one there.
        let durable = durable_sel == 1
            || matches!(
                site,
                FaultSite::WalAppend
                    | FaultSite::Compaction
                    | FaultSite::CompactionAfterTempWrite
                    | FaultSite::CompactionAfterRename
            );
        let dir = fresh_dir("mixed");
        let mut engine = if durable {
            let dopts = DurabilityOptions {
                fsync: false,
                // Compact every few records so the Compaction site is reachable.
                compact_threshold: 256,
            };
            Engine::open_durable_with(&dir, dopts).expect("durable open")
        } else {
            Engine::new()
        };
        engine.load_source(programs::THREE_RULE_TC).expect("program loads");
        for i in 0..10i64 {
            engine.insert("e", &[c(i), c(i + 1)]).expect("seed edge");
        }
        match limit_sel {
            1 => engine.set_limits(None, Some(40), None),
            2 => engine.set_limits(None, None, Some(4096)),
            _ => {}
        }
        engine.set_fault_injector(Some(FaultInjector::armed(site, action, countdown as u32)));

        let query = parse_query("t(0, Y)").unwrap();
        let mut failures = 0usize;
        for &(kind, a, b) in &ops {
            let result: Result<(), EngineError> = match kind {
                0 => engine.insert("e", &[c(a), c(b)]).map(|_| ()),
                1 => engine.retract("e", &[c(a), c(b)]).map(|_| ()),
                2 => {
                    let mut txn = engine.transaction();
                    txn.assert("e", &[c(a), c(b)]);
                    txn.retract("e", &[c(b), c(a)]);
                    txn.commit().map(|_| ())
                }
                3 => engine.query(&query).map(|_| ()),
                _ => engine
                    .query(&parse_query(&format!("t({a}, Y)")).unwrap())
                    .map(|_| ()),
            };
            if let Err(error) = result {
                prop_assert!(
                    is_structured_failure(&error),
                    "op {kind}({a},{b}) failed unstructurally: {error}"
                );
                failures += 1;
            }
        }
        // Tripped or not, armed or spent: the session must converge.
        let reference = naive_evaluate(engine.program(), engine.facts()).expect("reference");
        assert_converges(&mut engine, &reference)?;
        // Bookkeeping: every abort the workload saw is on the session counters.
        prop_assert!(
            engine.stats().limit_aborts + engine.stats().worker_panics <= failures + 1,
            "more aborts than failures: {} aborts, {} panics, {} failures",
            engine.stats().limit_aborts, engine.stats().worker_panics, failures
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The session-reusability satellite, isolated: force exactly one failure
    /// (fault, limit, or cancellation) on a session whose workload is big
    /// enough to reach every poll point, then check the next refresh gives the
    /// reference model — the materialized view may die, the session must not.
    #[test]
    fn after_any_eval_error_the_next_query_matches_a_fresh_engine(
        // Only the query-path sites: a pure query never reaches the
        // delete-propagation sites (those have their own deterministic test).
        site_idx in 0usize..2,
        action_idx in 0usize..2,
        failure_mode in 0usize..4,
        start in 0i64..50,
    ) {
        let mut engine = Engine::new();
        engine.load_source(programs::THREE_RULE_TC).expect("program loads");
        // A 120-edge chain: ~7k derived transitive facts, thousands of join
        // rows — deep enough for the join-loop poll and multiple rounds.
        for i in 0..120i64 {
            engine.insert("e", &[c(i), c(i + 1)]).expect("seed edge");
        }
        // Every case holds the same facts, so one reference model serves them all.
        static CHAIN: OnceLock<ReferenceModel> = OnceLock::new();
        let reference = CHAIN.get_or_init(|| {
            naive_evaluate(engine.program(), engine.facts()).expect("reference")
        });
        match failure_mode {
            // An injected fault at an evaluation site (error or panic action).
            0 => engine.set_fault_injector(Some(FaultInjector::armed(
                SITES[site_idx],
                ACTIONS[action_idx],
                1,
            ))),
            // A derived-fact cap the workload is guaranteed to blow through.
            1 => engine.set_limits(None, Some(100), None),
            // A memory budget below the EDB's own footprint.
            2 => engine.set_limits(None, None, Some(1024)),
            // A pre-cancelled token: aborts at the very first poll.
            _ => {
                let token = engine.cancel_token();
                token.cancel();
            }
        }
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let error = engine.query(&query).expect_err("the forced failure fires");
        prop_assert!(
            is_structured_failure(&error),
            "failure must be structured: {error}"
        );
        assert_converges(&mut engine, reference)?;
    }
}

/// Delete-propagation faults: armed at the over-delete and re-derivation
/// phases, a retraction on a live materialized view fails structurally and the
/// session converges (covers both [`FaultSite::DeleteOverdelete`] and
/// [`FaultSite::DeleteRederive`], error and panic actions).
#[test]
fn delete_propagation_faults_stay_contained() {
    // Every case retracts the same edge, so one reference model serves them all.
    let mut surviving = None;
    for site in [FaultSite::DeleteOverdelete, FaultSite::DeleteRederive] {
        for action in ACTIONS {
            let mut engine = Engine::new();
            engine
                .load_source(programs::THREE_RULE_TC)
                .expect("program");
            // Parallel paths so retraction needs genuine over-delete + rederive.
            for i in 0..40i64 {
                engine.insert("e", &[c(i), c(i + 1)]).unwrap();
                engine.insert("e", &[c(i), c(100 + i)]).unwrap();
                engine.insert("e", &[c(100 + i), c(i + 1)]).unwrap();
            }
            let query = parse_query("t(0, Y)").unwrap();
            engine.query(&query).expect("materializes");
            // Countdown 0: fire on the *first* hit — the re-derivation site is
            // reached exactly once per retraction.
            engine.set_fault_injector(Some(FaultInjector::armed(site, action, 0)));
            let error = engine
                .retract("e", &[c(5), c(6)])
                .map(|_| ())
                .expect_err("the armed delete fault fires");
            assert!(
                matches!(
                    error,
                    EngineError::Eval(EvalError::Injected { .. } | EvalError::WorkerPanic { .. })
                ),
                "unexpected error for {site:?}/{action:?}: {error}"
            );
            // The retraction itself committed (store is source of truth); the
            // next refresh rebuilds the view and agrees with the reference.
            assert!(!engine
                .facts()
                .contains_atom(&parse_atom("e(5, 6)").unwrap()));
            let reference = surviving.get_or_insert_with(|| {
                naive_evaluate(engine.program(), engine.facts()).expect("reference")
            });
            assert_converges(&mut engine, reference).unwrap();
        }
    }
}

/// The deadline acceptance bound, end to end: an unbounded recursive query
/// (`counter` over the `succ` builtin never converges) with a wall-clock
/// deadline aborts within 2x the deadline, reports the deadline reason, and
/// leaves the engine fully reusable.
#[test]
fn deadline_on_unbounded_recursion_aborts_within_twice_the_deadline() {
    let mut engine = Engine::new();
    engine
        .load_source("counter(N) :- seed(N).\ncounter(M) :- counter(N), succ(N, M).")
        .expect("program loads");
    engine.insert("seed", &[c(0)]).expect("seed");
    let deadline = Duration::from_millis(250);
    engine.set_limits(Some(deadline), None, None);
    let query = parse_query("counter(X)").unwrap();

    let started = Instant::now();
    let error = engine.query(&query).expect_err("deadline fires");
    let took = started.elapsed();
    let EngineError::Eval(EvalError::LimitExceeded {
        reason: LimitReason::Deadline { .. },
        elapsed,
        partial_stats,
    }) = error
    else {
        panic!("expected a deadline abort, got {error}");
    };
    assert!(
        partial_stats.facts_derived > 0,
        "the query was really running"
    );
    assert!(
        elapsed >= deadline && elapsed <= took,
        "the error's own elapsed ({elapsed:?}) brackets the deadline without exceeding the wall clock ({took:?})"
    );
    assert!(
        took < deadline * 2,
        "acceptance bound: abort within 2x the deadline, took {took:?} of {deadline:?}"
    );

    // Reusable: lift the limit, remove the divergent seed, query again.
    engine.set_limits(None, None, None);
    engine.retract("seed", &[c(0)]).expect("retract seed");
    assert_eq!(engine.query(&query).expect("reusable").len(), 0);
    // And a bounded program evaluates normally on the same session.
    engine
        .load_source("t(X, Y) :- e(X, Y).\ne(1, 2).")
        .expect("bounded program");
    assert_eq!(
        engine
            .query(&parse_query("t(1, Y)").unwrap())
            .expect("bounded query")
            .len(),
        1
    );
}

/// A cancellation mid-flight from another thread (the Ctrl-C path without a
/// terminal): the evaluation aborts at the next poll with the structured
/// cancellation reason, and resetting the token restores the session.
#[test]
fn cross_thread_cancellation_aborts_and_the_token_resets() {
    let mut engine = Engine::new();
    engine
        .load_source("counter(N) :- seed(N).\ncounter(M) :- counter(N), succ(N, M).")
        .expect("program loads");
    engine.insert("seed", &[c(0)]).expect("seed");
    let token = engine.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        token.cancel();
    });
    let query = parse_query("counter(X)").unwrap();
    let error = engine.query(&query).expect_err("cancellation fires");
    canceller.join().unwrap();
    assert!(
        matches!(
            error,
            EngineError::Eval(EvalError::LimitExceeded {
                reason: LimitReason::Cancelled,
                ..
            })
        ),
        "expected a cancellation, got {error}"
    );
    assert!(engine.stats().limit_aborts >= 1);
    engine.cancel_token().reset();
    engine.retract("seed", &[c(0)]).expect("retract seed");
    assert_eq!(engine.query(&query).expect("session recovered").len(), 0);
}
