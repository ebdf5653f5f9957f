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

/// Every workload program with the query it is asked.
fn workload_queries() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("THREE_RULE_TC", programs::THREE_RULE_TC, programs::TC_QUERY),
        (
            "RIGHT_LINEAR_TC",
            programs::RIGHT_LINEAR_TC,
            programs::TC_QUERY,
        ),
        (
            "LEFT_LINEAR_TC",
            programs::LEFT_LINEAR_TC,
            programs::TC_QUERY,
        ),
        ("NONLINEAR_TC", programs::NONLINEAR_TC, programs::TC_QUERY),
        (
            "SAME_GENERATION",
            programs::SAME_GENERATION,
            programs::SG_QUERY,
        ),
        ("PMEM", programs::PMEM, "pmem(X, 0)"),
        (
            "EXAMPLE_4_3_EXACT",
            programs::EXAMPLE_4_3_EXACT,
            programs::P_QUERY,
        ),
        (
            "SELECTION_PUSHING",
            programs::SELECTION_PUSHING,
            programs::P_QUERY,
        ),
        ("SYMMETRIC", programs::SYMMETRIC, programs::P_QUERY),
        (
            "ANSWER_PROPAGATING",
            programs::ANSWER_PROPAGATING,
            programs::P_QUERY,
        ),
        ("EXAMPLE_5_1", programs::EXAMPLE_5_1, "p(0, 1, Z)"),
        ("EXAMPLE_5_2", programs::EXAMPLE_5_2, "p(0, 1, Z)"),
        ("EXAMPLE_7_1", programs::EXAMPLE_7_1, "t(0, Y, Z)"),
        (
            "RIGHT_LINEAR_TWO_RULES",
            programs::RIGHT_LINEAR_TWO_RULES,
            programs::P_QUERY,
        ),
        ("ARITY_3_TC", programs::ARITY_3_TC, "t(0, Y, Z)"),
    ]
}

#[test]
fn optimizing_a_final_program_again_changes_nothing() {
    for (name, src, query) in workload_queries() {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let ctx = out.factored.as_ref().map(FactoringContext::from_factored);
        let (again, trace) = optimize(&out.program, &out.query, ctx.as_ref());
        assert_eq!(
            format!("{again}"),
            format!("{}", out.program),
            "{name}: {:?}",
            trace.steps
        );
    }
}

#[test]
fn every_final_program_answers_like_the_original_on_random_edbs() {
    use factorlog::core::equivalence::{random_edb, EdbSpec};
    for (name, src, query) in workload_queries() {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let mut answered = 0;
        for seed in 1..=24u64 {
            // Guards of one to six tuples, a different size for each guard and seed:
            // sparse ones leave a condition false often enough for a wrong condition
            // to change the answers, dense ones let answers through.
            let mut predicates: Vec<Symbol> = program.edb_predicates().into_iter().collect();
            predicates.sort_by_key(|p| p.as_str());
            let specs: Vec<EdbSpec> = (predicates.into_iter().enumerate())
                .map(|(i, p)| {
                    let arity = program.arity_of(p).unwrap();
                    let guards = 1 + (seed as usize + i) % 6;
                    EdbSpec::new(p.as_str(), arity, if arity == 1 { guards } else { 12 })
                })
                .collect();
            let edb = random_edb(&specs, 6, seed);
            let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
            let reference = naive_evaluate(&out.program, &edb)
                .unwrap()
                .answers(&out.query);
            assert_eq!(reference, expected, "{name}, seed {seed}:\n{}", out.program);
            assert_eq!(out.answers(&edb).unwrap(), expected, "{name}, seed {seed}");
            answered += usize::from(!expected.is_empty());
        }
        assert!(
            answered > 0,
            "{name}: the random EDBs never reach an answer"
        );
    }
}

#[test]
fn magic_only_programs_have_no_independent_conjunctions() {
    // Without factoring every body is connected, so the hoisting pass leaves the
    // fallback programs exactly as the deleting passes left them.
    for (src, query, expected) in [
        (
            programs::SAME_GENERATION,
            programs::SG_QUERY,
            "m_sg_bf(0).\n\
             sg_bf(X, Y) :- m_sg_bf(X), flat(X, Y).\n\
             m_sg_bf(U) :- m_sg_bf(X), up(X, U).\n\
             sg_bf(X, Y) :- m_sg_bf(X), up(X, U), sg_bf(U, V), down(V, Y).\n",
        ),
        (
            programs::EXAMPLE_4_3_EXACT,
            programs::P_QUERY,
            "m_p_bf(0).\n\
             m_p_bf(V) :- m_p_bf(X), l1(X), p_bf(X, U), c1(U, V).\n\
             p_bf(X, Y) :- m_p_bf(X), l1(X), p_bf(X, U), c1(U, V), p_bf(V, Y), r1(Y).\n\
             m_p_bf(V) :- m_p_bf(X), l2(X), p_bf(X, U), c2(U, V).\n\
             p_bf(X, Y) :- m_p_bf(X), l2(X), p_bf(X, U), c2(U, V), p_bf(V, Y), r2(Y).\n\
             m_p_bf(V) :- m_p_bf(X), f(X, V).\n\
             p_bf(X, Y) :- m_p_bf(X), f(X, V), p_bf(V, Y), r3(Y).\n\
             p_bf(X, Y) :- m_p_bf(X), e(X, Y).\n",
        ),
    ] {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert_eq!(out.strategy, Strategy::MagicOnly);
        assert_eq!(format!("{}", out.program), expected);
    }
    // The Magic column of a comparison (factoring switched off) runs the same §5
    // passes, and the hoisting pass finds nothing to hoist in any workload program.
    let magic_only = PipelineOptions {
        factor: false,
        ..PipelineOptions::default()
    };
    for (name, src, query) in workload_queries() {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let out = optimize_query(&program, &query, &magic_only).unwrap();
        assert!(
            !out.trace
                .steps
                .iter()
                .any(|s| s.starts_with("added condition")),
            "{name}:\n{}",
            out.program
        );
    }
}

#[test]
fn paper_oneshot_programs_make_exactly_their_pinned_counts() {
    // The nine programs of the benchmark's `paper_oneshot` workload at the sizes it
    // checks them against the unoptimized program, as (inferences, facts, rounds,
    // duplicates). Before the independent conjunctions of their factored rules were
    // hoisted into conditions the three combined-rule programs made (12 074, 118, 8),
    // (8 725, 85, 19) and (12 107, 89, 13): the facts differ only by the condition
    // facts (two, two and three). Nothing that speeds up the optimizer or the rounds
    // may move a count.
    use factorlog::workloads::layered::{
        arity3_edb, combined_rule_edb, right_linear_edb, LayeredParams,
    };
    use factorlog::workloads::lists;
    let layered = |nodes| combined_rule_edb(&LayeredParams::scaled(nodes, 0x5EED));
    let pmem_query = format!("pmem(X, {})", lists::LIST_ID_BASE + 1);
    let cases = [
        (
            programs::THREE_RULE_TC,
            programs::TC_QUERY,
            graphs::chain(120),
            (241, 241, 242, 0),
        ),
        (
            programs::PMEM,
            &pmem_query,
            lists::pmem_list(300, 1).edb,
            (601, 601, 302, 0),
        ),
        (
            programs::SELECTION_PUSHING,
            programs::P_QUERY,
            layered(40),
            (553, 120, 8, 433),
        ),
        (
            programs::SYMMETRIC,
            programs::P_QUERY,
            layered(30),
            (369, 87, 20, 282),
        ),
        (
            programs::ANSWER_PROPAGATING,
            programs::P_QUERY,
            layered(30),
            (546, 92, 13, 454),
        ),
        (
            programs::ARITY_3_TC,
            "t(0, Y, Z)",
            arity3_edb(150, 3, 0x5EED),
            (600, 596, 152, 4),
        ),
        (
            programs::RIGHT_LINEAR_TWO_RULES,
            programs::P_QUERY,
            right_linear_edb(300, 0x5EED),
            (600, 600, 302, 0),
        ),
        (
            programs::SAME_GENERATION,
            programs::SG_QUERY,
            graphs::same_generation_tree(6),
            (8, 8, 8, 0),
        ),
        (
            programs::EXAMPLE_4_3_EXACT,
            programs::P_QUERY,
            layered(20),
            (33_480, 381, 10, 33_099),
        ),
    ];
    for (src, query, edb, expected) in cases {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let out = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let result = out.evaluate(&edb).unwrap();
        if [
            programs::SELECTION_PUSHING,
            programs::SYMMETRIC,
            programs::ANSWER_PROPAGATING,
        ]
        .contains(&src)
        {
            // The factored combined-rule programs are cheap enough for the reference
            // evaluator at these sizes; the unoptimized closures of the others are not
            // (in a debug build), and `all_stages_agree_on_…` and
            // `every_final_program_answers_like_the_original_on_random_edbs` check
            // their answers on smaller inputs.
            assert_eq!(
                result.answers(&out.query),
                naive_evaluate(&program, &edb).unwrap().answers(&query),
                "{query}"
            );
        }
        let stats = &result.stats;
        assert_eq!(
            (
                stats.inferences,
                stats.facts_derived,
                stats.iterations,
                stats.duplicates
            ),
            expected,
            "(inferences, facts, rounds, duplicates) of {query}:\n{}",
            out.program
        );
    }
}
