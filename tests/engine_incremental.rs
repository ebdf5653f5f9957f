//! Incremental-correctness property tests for the persistent engine: any interleaving
//! of `insert` and `query` must yield exactly the answers of batch evaluation of the
//! final (or prefix) EDB — on the transitive-closure, same-generation and
//! list-membership workloads — and the prepared-query path must agree while hitting
//! its plan cache.

use factorlog::prelude::*;
use factorlog::workloads::{lists, programs};
use proptest::prelude::*;

/// A random edge list over a small domain.
fn edges(
    max_nodes: i64,
    max_edges: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes), 0..max_edges)
}

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// The reference evaluation of the engine's program over its current facts, for
/// comparison with the engine's materialized answers.
fn batch_answers(engine: &Engine, query: &Query) -> Vec<Vec<Const>> {
    naive_evaluate(engine.program(), engine.facts())
        .expect("reference evaluation succeeds")
        .answers(query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tc_interleavings_match_batch(edge_list in edges(10, 35), start in 0i64..10) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut engine = Engine::new();
        engine.load_source(programs::THREE_RULE_TC).unwrap();
        for (i, &(a, b)) in edge_list.iter().enumerate() {
            engine.insert("e", &[c(a), c(b)]).unwrap();
            // Query at varying points of the stream: the first materializes the
            // model, and every insert after it maintains the model in its commit.
            if i % 3 == 0 {
                let batch = batch_answers(&engine, &query);
                prop_assert_eq!(engine.query(&query).unwrap(), batch, "after {} inserts", i + 1);
            }
        }
        let batch = batch_answers(&engine, &query);
        prop_assert_eq!(engine.query(&query).unwrap(), batch);
    }

    #[test]
    fn sg_interleavings_match_batch(
        fact_list in prop::collection::vec((0usize..3, 0i64..8, 0i64..8), 0..30),
        probe in 0i64..8,
    ) {
        let query = parse_query(&format!("sg({probe}, Y)")).unwrap();
        let mut engine = Engine::new();
        engine.load_source(programs::SAME_GENERATION).unwrap();
        for (i, &(kind, a, b)) in fact_list.iter().enumerate() {
            let predicate = ["up", "flat", "down"][kind];
            engine.insert(predicate, &[c(a), c(b)]).unwrap();
            if i % 4 == 0 {
                let batch = batch_answers(&engine, &query);
                prop_assert_eq!(engine.query(&query).unwrap(), batch);
            }
        }
        let batch = batch_answers(&engine, &query);
        prop_assert_eq!(engine.query(&query).unwrap(), batch);
    }

    #[test]
    fn pmem_interleavings_match_batch(n in 2usize..25, extra in prop::collection::vec(1i64..25, 0..10)) {
        // Start from the standard list workload (every 3rd element satisfies `p`),
        // then assert additional `p` facts one at a time.
        let workload = lists::pmem_list(n, 3);
        let query = parse_query(&format!("pmem(X, {})", lists::LIST_ID_BASE + 1)).unwrap();
        let mut engine = Engine::new();
        engine.load_source(programs::PMEM).unwrap();
        for (pred, rel) in workload.edb.iter() {
            for tuple in rel.iter() {
                engine.insert(pred, tuple).unwrap();
            }
        }
        let batch = batch_answers(&engine, &query);
        prop_assert_eq!(engine.query(&query).unwrap(), batch);
        for &x in &extra {
            engine.insert("p", &[c(x)]).unwrap();
            let batch = batch_answers(&engine, &query);
            prop_assert_eq!(engine.query(&query).unwrap(), batch);
        }
    }

    #[test]
    fn prepared_path_matches_batch_and_hits_cache(edge_list in edges(10, 30), start in 0i64..10) {
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let mut engine = Engine::new();
        engine.load_source(programs::RIGHT_LINEAR_TC).unwrap();
        for &(a, b) in &edge_list {
            engine.insert("e", &[c(a), c(b)]).unwrap();
        }
        let batch = batch_answers(&engine, &query);
        prop_assert_eq!(engine.query_prepared(&query).unwrap(), batch.clone());
        // The same adorned query again: must be answered from the plan cache.
        prop_assert_eq!(engine.query_prepared(&query).unwrap(), batch.clone());
        prop_assert!(
            engine.stats().plan_cache_hits >= 1,
            "second prepared call must hit the cache (hits = {})",
            engine.stats().plan_cache_hits
        );
        prop_assert_eq!(engine.stats().plan_cache_misses, 1);
        // And the prepared path agrees with the materialized-model path.
        prop_assert_eq!(engine.query(&query).unwrap(), batch);
    }
}

#[test]
fn interleaved_inserts_queries_and_prepares_across_predicates() {
    // A deterministic end-to-end interleaving mixing every operation the engine
    // offers, checked against batch evaluation at each step.
    let mut engine = Engine::new();
    engine.load_source(programs::THREE_RULE_TC).unwrap();
    let query0 = parse_query("t(0, Y)").unwrap();
    let query3 = parse_query("t(3, Y)").unwrap();
    for i in 0..12i64 {
        engine.insert("e", &[c(i), c(i + 1)]).unwrap();
        if i % 2 == 0 {
            assert_eq!(
                engine.query(&query0).unwrap(),
                batch_answers(&engine, &query0)
            );
        }
        if i % 5 == 0 {
            assert_eq!(
                engine.query_prepared(&query3).unwrap(),
                batch_answers(&engine, &query3)
            );
        }
        if i == 6 {
            // A mid-stream shortcut edge.
            engine.insert("e", &[c(0), c(6)]).unwrap();
        }
    }
    assert_eq!(
        engine.query(&query0).unwrap(),
        batch_answers(&engine, &query0)
    );
    assert!(engine.stats().plan_cache_hits >= 1);
}
