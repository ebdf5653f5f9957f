//! E1: the paper's running example end to end — Example 1.1, Fig. 1 (Magic program),
//! Fig. 2 (factored program), Example 4.2 and Example 5.3 (the final unary program) —
//! checked both textually (program shape) and semantically (answer equality across all
//! stages on several EDBs).

use factorlog::core::optimize::{optimize, FactoringContext};
use factorlog::prelude::*;
use factorlog::workloads::{graphs, programs};

fn stage_programs() -> (Program, Query, Program, Query, Program, Query, Program) {
    let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
    let query = parse_query("t(5, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let magicp = magic(&adorned).unwrap();
    let factored = factor_magic(&adorned, &magicp).unwrap();
    let ctx = FactoringContext::from_factored(&factored);
    let (optimized, _) = optimize(&factored.program, &factored.query, Some(&ctx));
    (
        program,
        query,
        magicp.program,
        adorned.query,
        factored.program.clone(),
        factored.query,
        optimized,
    )
}

#[test]
fn figure_1_magic_program_shape() {
    let (_, _, magic_program, _, _, _, _) = stage_programs();
    let text = format!("{magic_program}");
    // The nine rules of Fig. 1 (modulo the `m_t_bf` / `t_bf` naming convention).
    let expected = [
        "m_t_bf(5).",
        "m_t_bf(W) :- m_t_bf(X), t_bf(X, W).",
        "m_t_bf(W) :- m_t_bf(X), e(X, W).",
        "t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), t_bf(W, Y).",
        "t_bf(X, Y) :- m_t_bf(X), e(X, W), t_bf(W, Y).",
        "t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), e(W, Y).",
        "t_bf(X, Y) :- m_t_bf(X), e(X, Y).",
    ];
    for rule in expected {
        assert!(text.contains(rule), "missing rule `{rule}` in:\n{text}");
    }
    assert_eq!(magic_program.len(), 9);
}

#[test]
fn figure_2_factored_program_shape() {
    let (_, _, _, _, factored, _, _) = stage_programs();
    let text = format!("{factored}");
    // Every guarded rule splits into a b_ head and an f_ head with the same body, and
    // occurrences of t_bf are replaced by the bp/fp pair.
    for rule in [
        "b_t_bf(X) :- m_t_bf(X), e(X, Y).",
        "f_t_bf(Y) :- m_t_bf(X), e(X, Y).",
        "m_t_bf(W) :- m_t_bf(X), b_t_bf(X), f_t_bf(W).",
        "f_t_bf(Y) :- m_t_bf(X), b_t_bf(X), f_t_bf(W), b_t_bf(W), f_t_bf(Y).",
    ] {
        assert!(text.contains(rule), "missing rule `{rule}` in:\n{text}");
    }
    assert!(
        !text.contains("t_bf(X, Y) :-"),
        "no binary t_bf rule may remain"
    );
}

#[test]
fn example_5_3_final_unary_program() {
    let (_, _, _, _, _, _, final_program) = stage_programs();
    let text = format!("{final_program}");
    assert_eq!(final_program.len(), 3, "{text}");
    assert!(text.contains("m_t_bf(5)."));
    assert!(text.contains("m_t_bf(W) :- f_t_bf(W)."));
    assert!(text.contains("f_t_bf(Y) :- m_t_bf(X), e(X, Y)."));
}

#[test]
fn all_stages_agree_on_chains_cycles_trees_and_random_graphs() {
    let (program, query, magic_program, magic_query, factored, factored_query, final_program) =
        stage_programs();
    let edbs = vec![
        ("chain", shift(graphs::chain(40), 5)),
        ("cycle", shift(graphs::cycle(30), 5)),
        ("tree", shift(graphs::tree(2, 6), 5)),
        ("random", shift(graphs::random_graph(40, 120, 11), 5)),
        ("empty", Database::new()),
    ];
    for (name, edb) in edbs {
        let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
        let got_magic = evaluate_default(&magic_program, &edb)
            .unwrap()
            .answers(&magic_query);
        let got_factored = evaluate_default(&factored, &edb)
            .unwrap()
            .answers(&factored_query);
        let got_final = evaluate_default(&final_program, &edb)
            .unwrap()
            .answers(&factored_query);
        assert_eq!(expected, got_magic, "magic differs on {name}");
        assert_eq!(expected, got_factored, "factored differs on {name}");
        assert_eq!(expected, got_final, "final program differs on {name}");
    }
}

/// Shift every node id of the `e` relation by `delta` so that node 5 (the query
/// constant) lies inside the graph.
fn shift(db: Database, delta: i64) -> Database {
    let mut out = Database::new();
    if let Some(rel) = db.relation(Symbol::intern("e")) {
        for row in rel.iter() {
            let a = row[0].as_int().unwrap() + delta;
            let b = row[1].as_int().unwrap() + delta;
            out.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
    }
    out
}

#[test]
fn factored_program_is_never_less_efficient_than_magic() {
    // The paper's headline: "never less efficient than the Magic Sets program and
    // often dramatically more efficient". Compare inference counts on a chain.
    let (_, _, magic_program, magic_query, _, factored_query, final_program) = stage_programs();
    let edb = shift(graphs::chain(120), 5);
    let magic_result = evaluate_default(&magic_program, &edb).unwrap();
    let final_result = evaluate_default(&final_program, &edb).unwrap();
    assert_eq!(
        magic_result.answers(&magic_query),
        final_result.answers(&factored_query)
    );
    assert!(
        final_result.stats.inferences <= magic_result.stats.inferences,
        "factored ({}) must not exceed magic ({})",
        final_result.stats.inferences,
        magic_result.stats.inferences
    );
    assert!(
        final_result.stats.inferences * 10 < magic_result.stats.inferences,
        "on a chain the factored program should be dramatically cheaper ({} vs {})",
        final_result.stats.inferences,
        magic_result.stats.inferences
    );
}

#[test]
fn example_4_2_pipeline_matches_the_manual_stages() {
    let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
    let query = parse_query("t(5, Y)").unwrap();
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::FactoredMagic);
    let report = optimized.factorability.as_ref().unwrap();
    assert!(report.classes.contains(&FactorableClass::SelectionPushing));
    let (_, _, _, _, _, _, final_program) = stage_programs();
    assert_eq!(format!("{}", optimized.program), format!("{final_program}"));
}
