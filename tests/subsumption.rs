//! E8/E9: the unifying results of §6 — one-sided recursions (Theorem 6.2), separable
//! recursions (Theorem 6.3), the Counting comparison (Theorem 6.4 and the
//! non-termination caveat), and the left-/right-linear programs of [9] (§6.3).

use factorlog::core::counting::{counting, delete_index_fields};
use factorlog::core::one_sided::analyze_one_sided;
use factorlog::core::separable::analyze_separable;
use factorlog::prelude::*;
use factorlog::workloads::layered::right_linear_edb;
use factorlog::workloads::{graphs, programs};

#[test]
fn section_6_3_left_and_right_linear_programs_are_subsumed() {
    // The single-rule left-linear and right-linear transitive closures (the programs
    // of [9]) are both selection-pushing, hence covered by Theorem 4.1.
    for src in [programs::LEFT_LINEAR_TC, programs::RIGHT_LINEAR_TC] {
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(0, Y)").unwrap();
        let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert_eq!(optimized.strategy, Strategy::FactoredMagic);
        assert!(optimized
            .factorability
            .as_ref()
            .unwrap()
            .classes
            .contains(&FactorableClass::SelectionPushing));
        // Both end up as the same final unary program (up to rule order).
        assert_eq!(optimized.program.len(), 3);
    }
}

#[test]
fn theorem_6_2_one_sided_recursion_factors_for_both_full_selections() {
    let src = "p(A1, A2, B) :- p(A1, A2, C), c(C, D), d(D, B).\n\
               p(A1, A2, B) :- exit(A1, A2, B).";
    let program = parse_program(src).unwrap().program;
    let analysis = analyze_one_sided(&program, Symbol::intern("p")).unwrap();
    assert!(analysis.is_simple_one_sided);

    // Binding the static group Ā: the rule reads left-linear.
    let query = parse_query("p(1, 2, B)").unwrap();
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::FactoredMagic);

    // Binding the dynamic group B̄ requires the right-linear reading (recursive call
    // after the literals that bind it).
    let src_rl = "p(A1, A2, B) :- c(C, D), d(D, B), p(A1, A2, C).\n\
                  p(A1, A2, B) :- exit(A1, A2, B).";
    let program_rl = parse_program(src_rl).unwrap().program;
    let query_rl = parse_query("p(A1, A2, 3)").unwrap();
    let optimized_rl = optimize_query(&program_rl, &query_rl, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized_rl.strategy, Strategy::FactoredMagic);
}

#[test]
fn theorem_6_3_reducible_separable_recursions_factor() {
    // Both the left-linear TC and the disjoint two-rule separable recursion are
    // reducible separable; a full selection factors.
    for (src, query_text) in [
        (programs::LEFT_LINEAR_TC, "t(0, Y)"),
        (
            "t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- f(X, W), t(W, Y).\nt(X, Y) :- g(X, Y).",
            "t(0, Y)",
        ),
    ] {
        let program = parse_program(src).unwrap().program;
        let analysis = analyze_separable(&program, Symbol::intern("t")).unwrap();
        assert!(analysis.is_separable, "{:?}", analysis.reason);
        assert!(analysis.is_reducible, "{:?}", analysis.reason);
        let query = parse_query(query_text).unwrap();
        let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        assert_eq!(optimized.strategy, Strategy::FactoredMagic, "{src}");
    }
}

#[test]
fn same_generation_is_neither_one_sided_nor_separable_nor_factorable() {
    let program = parse_program(programs::SAME_GENERATION).unwrap().program;
    let sg = Symbol::intern("sg");
    assert!(!analyze_one_sided(&program, sg).unwrap().is_simple_one_sided);
    assert!(!analyze_separable(&program, sg).unwrap().is_separable);
    let query = parse_query("sg(0, Y)").unwrap();
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::MagicOnly);

    // The magic fallback still answers correctly on the tree workload.
    let edb = graphs::same_generation_tree(6);
    let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
    assert_eq!(optimized.answers(&edb).unwrap(), expected);
    assert!(!expected.is_empty());
}

#[test]
fn theorem_6_4_counting_equals_factored_magic_up_to_indices() {
    // For the right-linear two-rule program: Counting, the factored Magic program, and
    // Counting-with-indices-deleted all compute the same answers; the indexed program
    // derives at least as many facts (the index fields are pure overhead).
    let program = parse_program(programs::RIGHT_LINEAR_TWO_RULES)
        .unwrap()
        .program;
    let query = parse_query("p(0, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let classification = classify(&adorned).unwrap();
    let counting_program = counting(&adorned, &classification).unwrap();
    let stripped = delete_index_fields(&counting_program);
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::FactoredMagic);

    let edb = right_linear_edb(60, 17);
    let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);

    let counted = evaluate_default(&counting_program.program, &edb).unwrap();
    assert_eq!(counted.answers(&counting_program.query), expected);

    let stripped_query = Query::new(Atom::new(
        counting_program.answer_predicate,
        vec![Term::var("Y")],
    ));
    let stripped_result = evaluate_default(&stripped, &edb).unwrap();
    assert_eq!(stripped_result.answers(&stripped_query), expected);

    let factored_result = optimized.evaluate(&edb).unwrap();
    assert_eq!(factored_result.answers(&optimized.query), expected);

    // Index overhead: the Counting program carries a depth field on every goal and
    // answer fact, so it derives strictly more facts than the factored program.
    assert!(
        counted.stats.facts_derived > factored_result.stats.facts_derived,
        "counting ({}) should carry index overhead over factoring ({})",
        counted.stats.facts_derived,
        factored_result.stats.facts_derived
    );
}

#[test]
fn counting_is_refused_for_left_linear_programs_but_factoring_applies() {
    // §6.4: "If a program contains left-linear or combined rules, the Counting program
    // will not terminate"; factoring handles them fine.
    let program = parse_program(programs::LEFT_LINEAR_TC).unwrap().program;
    let query = parse_query("t(0, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let classification = classify(&adorned).unwrap();
    assert!(counting(&adorned, &classification).is_err());

    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::FactoredMagic);
    let edb = graphs::chain(50);
    assert_eq!(optimized.answers(&edb).unwrap().len(), 50);
}
