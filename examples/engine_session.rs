//! A persistent engine session: materialize once, absorb inserts incrementally,
//! replay prepared query plans, and read the cumulative session statistics.
//!
//! Run with: `cargo run --example engine_session`

use factorlog::prelude::*;

fn main() {
    let mut engine = Engine::new();

    // Register the right-linear transitive closure and an initial chain 0 -> ... -> 5.
    engine
        .load_source(factorlog::workloads::programs::RIGHT_LINEAR_TC)
        .expect("program loads");
    for i in 0..5i64 {
        engine
            .insert("e", &[Const::Int(i), Const::Int(i + 1)])
            .expect("insert");
    }

    // First query materializes the least model.
    let query = parse_query("t(0, Y)").expect("query parses");
    let answers = engine.query(&query).expect("query evaluates");
    println!(
        "after materialization: {} nodes reachable from 0",
        answers.len()
    );

    // Each insert's commit maintains the model by one delta-seeded step — the model
    // is never rebuilt.
    for i in 5..10i64 {
        engine
            .insert("e", &[Const::Int(i), Const::Int(i + 1)])
            .expect("insert");
        let answers = engine.query(&query).expect("incremental query");
        println!(
            "after inserting e({i}, {}): {} reachable",
            i + 1,
            answers.len()
        );
    }

    // Prepared queries: the optimization pipeline (magic sets + factoring + §5) runs
    // once; the compiled plan is replayed afterwards, and rebinding covers other
    // constants with the same adornment.
    let report = engine.prepare(&query).expect("prepare");
    println!(
        "prepared t(0, Y): strategy = {}, cached = {}",
        report.strategy, report.cached
    );
    for start in [0i64, 3, 7] {
        let q = parse_query(&format!("t({start}, Y)")).expect("query parses");
        let answers = engine.query_prepared(&q).expect("prepared query");
        println!("prepared t({start}, Y): {} answers", answers.len());
    }

    // Cumulative per-session counters, including the plan cache.
    let stats = engine.stats();
    println!(
        "session totals: {} inferences, {} facts derived, plan cache {} hit(s) / {} miss(es)",
        stats.inferences, stats.facts_derived, stats.plan_cache_hits, stats.plan_cache_misses
    );
    assert!(
        stats.plan_cache_hits >= 2,
        "rebinding replays count as hits"
    );

    // The incremental session agrees with batch evaluation of the final EDB.
    let batch = evaluate_default(engine.program(), engine.facts())
        .expect("batch evaluation")
        .answers(&query);
    assert_eq!(engine.query(&query).expect("query"), batch);
    println!("incremental session == batch evaluation: ok");
}
