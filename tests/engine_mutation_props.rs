//! Mutation-correctness property tests for the transactional engine API: any
//! interleaving of assert/retract batches must converge to exactly the reference
//! evaluation of the surviving EDB, and loading a session's export must rebuild it
//! mid-stream (loading it twice changes nothing).

use std::collections::BTreeSet;

use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// A fresh session over the rules of `source`.
fn session(source: &str) -> Engine {
    let mut engine = Engine::new();
    engine.load_source(source).unwrap();
    engine
}

/// The reference evaluation of the engine's current program over its current base
/// facts — what every maintained model must match.
fn batch_answers(engine: &Engine, query: &Query) -> Vec<Vec<Const>> {
    naive_evaluate(engine.program(), engine.facts())
        .expect("reference evaluation succeeds")
        .answers(query)
}

/// One generated mutation: `kind == 0` retracts, otherwise asserts (two-thirds
/// asserts keeps the databases non-trivial).
type Op = (usize, i64, i64);

/// Apply one batch of mutations of `predicate` through the transactional API.
fn apply_batch(engine: &mut Engine, predicate: &str, batch: &[Op]) {
    let mut txn = engine.transaction();
    for &(kind, a, b) in batch {
        if kind == 0 {
            txn.retract(predicate, &[c(a), c(b)]);
        } else {
            txn.assert(predicate, &[c(a), c(b)]);
        }
    }
    txn.commit().expect("commit succeeds");
}

/// Every relation of a model (base, derived and `p__asserted` alike), each through
/// its all-free query.
fn whole_model(answers: &mut dyn FnMut(&Query) -> Vec<Vec<Const>>) -> Vec<Vec<Vec<Const>>> {
    ["e(X, Y)", "t(X, Y)", "t__asserted(X, Y)"]
        .iter()
        .map(|text| answers(&parse_query(text).unwrap()))
        .collect()
}

/// Commit `retracts` (`(predicate, a, b)`) as one retract-only transaction and check
/// that the *whole* maintained model equals the reference evaluation of the surviving
/// base facts, and that the delete counters mean what they say — every fact counted
/// in `retractions` left the model, every fact counted in `rederivations` or derived
/// downstream of one came back, so the model's size moves by exactly
/// `rederivations + facts_derived - retractions`. Returns the counter deltas
/// `(retractions, rederivations, facts derived downstream)`.
fn retract_and_check(engine: &mut Engine, retracts: &[(&str, i64, i64)]) -> (usize, usize, usize) {
    let size = |engine: &mut Engine| -> usize {
        whole_model(&mut |q| engine.query(q).unwrap())
            .iter()
            .map(Vec::len)
            .sum()
    };
    let before_size = size(engine);
    let before = engine.stats().clone();
    let mut txn = engine.transaction();
    for &(predicate, a, b) in retracts {
        txn.retract(predicate, &[c(a), c(b)]);
    }
    txn.commit().expect("commit succeeds");
    let maintained = whole_model(&mut |q| engine.query(q).unwrap());
    let reference = naive_evaluate(engine.program(), engine.facts()).unwrap();
    assert_eq!(maintained, whole_model(&mut |q| reference.answers(q)));
    let stats = engine.stats();
    let (retractions, rederivations, downstream) = (
        stats.retractions - before.retractions,
        stats.rederivations - before.rederivations,
        stats.facts_derived - before.facts_derived,
    );
    assert_eq!(
        maintained.iter().map(Vec::len).sum::<usize>() + retractions,
        before_size + rederivations + downstream,
        "retractions {retractions} rederivations {rederivations} derived downstream {downstream}"
    );
    (retractions, rederivations, downstream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tc_mutation_batches_converge_to_scratch(
        ops in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 1..36),
        batch_size in 1usize..5,
        start in 0i64..8,
    ) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut engine = session(programs::THREE_RULE_TC);
        // Independent ledger of what the base relation must contain (last op wins
        // within a batch is modeled by sequential application).
        let mut ledger: BTreeSet<(i64, i64)> = BTreeSet::new();
        for batch in ops.chunks(batch_size) {
            for &(kind, a, b) in batch {
                if kind == 0 {
                    ledger.remove(&(a, b));
                } else {
                    ledger.insert((a, b));
                }
            }
            apply_batch(&mut engine, "e", batch);
            // The fact store matches the ledger exactly.
            let stored: BTreeSet<(i64, i64)> = engine
                .facts()
                .relation(Symbol::intern("e"))
                .map(|rel| {
                    rel.iter()
                        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
                        .collect()
                })
                .unwrap_or_default();
            prop_assert_eq!(&stored, &ledger);
            // The maintained answers equal from-scratch evaluation.
            prop_assert_eq!(engine.query(&query).unwrap(), batch_answers(&engine, &query));
        }
    }

    #[test]
    fn sg_mutation_batches_converge_to_scratch(
        ops in prop::collection::vec((0usize..3, 0i64..7, 0i64..7), 1..30),
        probe in 0i64..7,
    ) {
        // Rotate mutations across the three EDB predicates of same-generation; the
        // op kind doubles as the predicate selector (asserts on all three, retracts
        // of whatever is hit).
        let query = parse_query(&format!("sg({probe}, Y)")).unwrap();
        let mut engine = session(programs::SAME_GENERATION);
        for (i, chunk) in ops.chunks(3).enumerate() {
            let mut txn = engine.transaction();
            for (j, &(kind, a, b)) in chunk.iter().enumerate() {
                let predicate = ["up", "flat", "down"][(i + j) % 3];
                if kind == 0 {
                    txn.retract(predicate, &[c(a), c(b)]);
                } else {
                    txn.assert(predicate, &[c(a), c(b)]);
                }
            }
            txn.commit().expect("commit succeeds");
            prop_assert_eq!(engine.query(&query).unwrap(), batch_answers(&engine, &query));
        }
    }

    #[test]
    fn idb_assert_retract_batches_converge_to_scratch(
        edges in prop::collection::vec((0usize..3, 0i64..6, 0i64..6), 1..24),
        idb_ops in prop::collection::vec((0usize..2, 0i64..6, 0i64..6), 1..8),
        start in 0i64..6,
    ) {
        // Mix base-edge mutations with asserts/retracts of the *derived* predicate
        // `t` (routed through the `t__asserted` exit-rule scheme).
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut engine = session(programs::RIGHT_LINEAR_TC);
        apply_batch(&mut engine, "e", &edges);
        apply_batch(&mut engine, "t", &idb_ops);
        prop_assert_eq!(engine.query(&query).unwrap(), batch_answers(&engine, &query));
        // Retract every asserted t fact again: derived-only facts must survive
        // exactly as from-scratch evaluation says.
        let mut txn = engine.transaction();
        for &(_, a, b) in &idb_ops {
            txn.retract("t", &[c(a), c(b)]);
        }
        txn.commit().expect("commit succeeds");
        prop_assert_eq!(engine.query(&query).unwrap(), batch_answers(&engine, &query));
    }

    #[test]
    fn retractions_keep_the_whole_model_equal_to_scratch(
        program in 0usize..3,
        edges in prop::collection::vec((0i64..7, 0i64..7), 12..30),
        asserted in prop::collection::vec((0i64..7, 0i64..7), 0..4),
        picks in prop::collection::vec((0usize..64, 0usize..4), 1..12),
    ) {
        // Dense graphs on seven nodes: cycles and parallel paths everywhere, so most
        // over-deleted facts have surviving derivations, some only downstream of
        // another restored fact; asserted `t` facts sit among the candidates.
        let source = [
            programs::RIGHT_LINEAR_TC,
            programs::LEFT_LINEAR_TC,
            programs::THREE_RULE_TC,
        ][program];
        let mut engine = session(source);
        let mut present: Vec<(i64, i64)> = edges.clone();
        present.sort_unstable();
        present.dedup();
        let mut txn = engine.transaction();
        for &(a, b) in &present {
            txn.assert("e", &[c(a), c(b)]);
        }
        for &(a, b) in &asserted {
            txn.assert("t", &[c(a), c(b)]);
        }
        txn.commit().unwrap();
        engine.query(&parse_query("t(X, Y)").unwrap()).unwrap();
        for &(pick, width) in &picks {
            // One to four present edges, now and then an asserted `t` fact as well.
            let mut batch: Vec<(&str, i64, i64)> = Vec::new();
            for k in 0..=width {
                if present.is_empty() {
                    break;
                }
                let (a, b) = present.remove((pick + k * 7) % present.len());
                batch.push(("e", a, b));
            }
            if pick % 3 == 0 {
                if let Some(&(a, b)) = asserted.get(pick % 4) {
                    batch.push(("t", a, b));
                }
            }
            retract_and_check(&mut engine, &batch);
        }
    }

    /// The export contract: a random session over the three-rule TC, with
    /// asserted IDB facts, symbols that need quotes and escapes and integers at
    /// both `i64` bounds, loaded from its `snapshot()` into a fresh engine, has
    /// the same program, fact store and answers on both query paths; a second
    /// load changes nothing; and both sessions keep evolving identically.
    #[test]
    fn snapshot_restore_preserves_sessions_mid_stream(
        ops in prop::collection::vec((0usize..3, 0usize..POOL, 0usize..POOL), 1..25),
        asserted in prop::collection::vec((0usize..POOL, 0usize..POOL), 0..4),
        more in prop::collection::vec((0usize..3, 0usize..POOL, 0usize..POOL), 1..10),
        start in 0usize..POOL,
    ) {
        let start = Term::Const(value(start));
        let query = Query::new(Atom::new("t", vec![start, Term::var("Y")]));
        let mut engine = session(programs::THREE_RULE_TC);
        let mut txn = engine.transaction();
        for &(kind, a, b) in &ops {
            if kind == 0 {
                txn.retract("e", &[value(a), value(b)]);
            } else {
                txn.assert("e", &[value(a), value(b)]);
            }
        }
        for &(a, b) in &asserted {
            txn.assert("t", &[value(a), value(b)]);
        }
        txn.commit().unwrap();
        let answers = engine.query(&query).unwrap();

        let text = engine.snapshot();
        let mut loaded = Engine::new();
        for load in 0..2 {
            let summary = loaded.load_source(&text).unwrap();
            if load == 1 {
                prop_assert_eq!(summary.rules_added, 0);
                prop_assert_eq!(summary.facts_added, 0);
            }
            prop_assert_eq!(loaded.program(), engine.program());
            prop_assert_eq!(stored(&loaded), stored(&engine));
            prop_assert_eq!(loaded.query(&query).unwrap(), answers.clone());
            prop_assert_eq!(loaded.query_prepared(&query).unwrap(), answers.clone());
        }

        // Both sessions keep evolving identically.
        for session in [&mut engine, &mut loaded] {
            let mut txn = session.transaction();
            for &(kind, a, b) in &more {
                if kind == 0 {
                    txn.retract("e", &[value(a), value(b)]);
                } else {
                    txn.assert("e", &[value(a), value(b)]);
                }
            }
            txn.commit().unwrap();
        }
        let expected = engine.query(&query).unwrap();
        prop_assert_eq!(loaded.query(&query).unwrap(), expected.clone());
        prop_assert_eq!(batch_answers(&loaded, &query), expected);
    }
}

/// How many constants [`value`] draws from.
const POOL: usize = 10;

/// The constants of a generated session: small integers, both `i64` bounds,
/// and symbols that print quoted, with each escape the lexer reads.
fn value(index: usize) -> Const {
    match index {
        0..=3 => c(index as i64),
        4 => c(i64::MIN),
        5 => c(i64::MAX),
        _ => Const::sym(["a b", "q\"d", "x\\y", "l\nm"][index - 6]),
    }
}

/// Every non-empty stored relation, sorted: the fact store as a value.
fn stored(engine: &Engine) -> Vec<(Symbol, Vec<Vec<Const>>)> {
    let mut store: Vec<_> = engine
        .facts()
        .iter()
        .map(|(predicate, relation)| (predicate, relation.to_sorted_vec()))
        .filter(|(_, rows)| !rows.is_empty())
        .collect();
    store.sort();
    store
}

#[test]
fn deterministic_mixed_workload_with_transactions() {
    // A deterministic end-to-end interleaving: inserts, transactional rewires,
    // retracts of asserted IDB facts, prepared queries, and an export round trip,
    // each step checked against from-scratch evaluation.
    let mut engine = Engine::new();
    engine.load_source(programs::THREE_RULE_TC).unwrap();
    let query = parse_query("t(0, Y)").unwrap();
    for i in 0..10i64 {
        engine.insert("e", &[c(i), c(i + 1)]).unwrap();
    }
    assert_eq!(engine.query(&query).unwrap().len(), 10);

    // Rewire the middle of the chain through a detour in one atomic batch.
    let mut txn = engine.transaction();
    txn.retract("e", &[c(5), c(6)])
        .assert("e", &[c(5), c(50)])
        .assert("e", &[c(50), c(6)]);
    let summary = txn.commit().unwrap();
    assert_eq!(summary.retracted, 1);
    assert_eq!(summary.asserted, 2);
    assert_eq!(
        engine.query(&query).unwrap(),
        batch_answers(&engine, &query)
    );
    assert_eq!(engine.query(&query).unwrap().len(), 11);

    // Assert and later retract a derived-predicate fact.
    engine.insert("t", &[c(10), c(100)]).unwrap();
    assert!(engine.query(&query).unwrap().contains(&vec![c(100)]));
    assert!(engine.retract("t", &[c(10), c(100)]).unwrap());
    assert_eq!(
        engine.query(&query).unwrap(),
        batch_answers(&engine, &query)
    );
    assert!(!engine.query(&query).unwrap().contains(&vec![c(100)]));

    // Export, load into a fresh session, and diverge-check.
    let mut loaded = session(&engine.snapshot());
    assert_eq!(loaded.query(&query).unwrap(), engine.query(&query).unwrap());
    loaded.retract("e", &[c(0), c(1)]).unwrap();
    assert!(loaded.query(&query).unwrap().is_empty());
    assert_eq!(
        engine.query(&query).unwrap().len(),
        11,
        "original untouched"
    );
    assert!(engine.stats().retractions > 0);
}

#[test]
fn restored_facts_cascade_through_the_positive_fixpoint() {
    // Left-linear closure over 0 → {1, 9} → 2 → 3 → 4 → 5: retracting e(0, 1)
    // over-deletes t(0, 1..=5). t(0, 2) survives through node 9 and is found by
    // re-derivation; t(0, 3), t(0, 4), t(0, 5) hang off t(0, 2), which is out of the
    // model while the candidates are probed, so only the positive fixpoint seeded with
    // the restored fact brings them back.
    let mut engine = session(programs::LEFT_LINEAR_TC);
    let mut txn = engine.transaction();
    for (a, b) in [(0, 1), (0, 9), (1, 2), (9, 2), (2, 3), (3, 4), (4, 5)] {
        txn.assert("e", &[c(a), c(b)]);
    }
    txn.commit().unwrap();
    let (retractions, rederivations, downstream) = retract_and_check(&mut engine, &[("e", 0, 1)]);
    assert_eq!(retractions, 1 + 5, "e(0, 1) and t(0, 1..=5)");
    assert_eq!(rederivations, 1, "t(0, 2), through node 9");
    assert_eq!(downstream, 3, "t(0, 3), t(0, 4), t(0, 5)");
}

#[test]
fn retracting_a_hub_edge_over_deletes_most_of_the_model_and_restores_it() {
    // Ten sources → a → h → ten targets, and a detour a → b → h: every path from a
    // source or from `a` to `h` or a target runs through e(a, h), so retracting it
    // schedules most of the closure; all of it comes back over the detour.
    let (a, b, h) = (100, 101, 102);
    let mut engine = session(programs::RIGHT_LINEAR_TC);
    let mut txn = engine.transaction();
    for i in 0..10 {
        txn.assert("e", &[c(i), c(a)]);
        txn.assert("e", &[c(h), c(200 + i)]);
    }
    for (from, to) in [(a, h), (a, b), (b, h)] {
        txn.assert("e", &[c(from), c(to)]);
    }
    txn.commit().unwrap();
    let all = parse_query("t(X, Y)").unwrap();
    let closure = engine.query(&all).unwrap().len();
    let (retractions, rederivations, downstream) = retract_and_check(&mut engine, &[("e", a, h)]);
    // t(x, y) for x in sources + {a}, y in targets + {h}.
    assert_eq!(retractions, 1 + 11 * 11);
    assert!(
        retractions - 1 > closure / 2,
        "most of {closure} derived facts"
    );
    assert_eq!(
        rederivations + downstream,
        11 * 11,
        "everything is restored"
    );
    assert!(
        downstream > 0,
        "the sources' facts hang off the restored t(a, h)"
    );
    assert_eq!(engine.query(&all).unwrap().len(), closure);
}

#[test]
fn asserted_idb_facts_among_the_candidates_keep_their_support() {
    // t(5, 50) is asserted *and* derivable through e(5, 50); t(4, 50) hangs off it.
    let mut engine = session(programs::RIGHT_LINEAR_TC);
    let mut txn = engine.transaction();
    txn.assert("e", &[c(4), c(5)])
        .assert("e", &[c(5), c(50)])
        .assert("t", &[c(5), c(50)]);
    txn.commit().unwrap();
    let probe = parse_query("t(4, Y)").unwrap();
    // Retracting the edge over-deletes t(5, 50); the assertion restores it (the guard
    // firing of `t(X, Y) :- t__asserted(X, Y)`), and t(4, 50) follows downstream.
    let (retractions, rederivations, downstream) = retract_and_check(&mut engine, &[("e", 5, 50)]);
    assert_eq!((retractions, rederivations, downstream), (3, 1, 1));
    assert_eq!(engine.query(&probe).unwrap(), vec![vec![c(5)], vec![c(50)]]);
    // Retracting the assertion too leaves nothing to restore.
    let (retractions, rederivations, downstream) = retract_and_check(&mut engine, &[("t", 5, 50)]);
    assert_eq!((retractions, rederivations, downstream), (3, 0, 0));
    assert_eq!(engine.query(&probe).unwrap(), vec![vec![c(5)]]);
}
