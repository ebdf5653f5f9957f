//! E11: the future-work examples of §7 — Example 7.1 (the factored Magic program can
//! itself be factored again, down to unary predicates) and Example 7.2 (non-unit
//! programs where the recursive predicate is not the query predicate).

use factorlog::core::equivalence::{check_equivalence, EdbSpec};
use factorlog::core::factor_predicate;
use factorlog::prelude::*;
use factorlog::workloads::programs;

#[test]
fn example_7_1_factored_magic_program_and_the_second_factoring() {
    // t(X, Y, Z) :- t(X, U, W), b(U, Y), d(Z).  with query t(5, Y, Z): the pipeline
    // factors t into bt(X) / ft(Y, Z) and the §5 optimizations leave exactly the
    // program Example 7.1 displays (a unary magic predicate plus the binary ft).
    let program = parse_program(programs::EXAMPLE_7_1).unwrap().program;
    let query = parse_query("t(5, Y, Z)").unwrap();
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert_eq!(optimized.strategy, Strategy::FactoredMagic);
    let factored = optimized.factored.as_ref().unwrap();
    assert_eq!(factored.free_positions.len(), 2, "ft is binary");
    let text = format!("{}", optimized.program);
    assert!(text.contains("m_t_bff(5)."), "{text}");
    assert!(
        text.contains("f_t_bff(Y, Z) :- f_t_bff(U, W), b(U, Y), d(Z)."),
        "{text}"
    );
    assert!(
        text.contains("f_t_bff(Y, Z) :- m_t_bff(X), e(X, Y, Z)."),
        "{text}"
    );

    // The answers are preserved by the first factoring on random EDBs.
    let specs = [
        EdbSpec::new("e", 3, 12),
        EdbSpec::new("b", 2, 10),
        EdbSpec::new("d", 1, 5),
    ];
    let counterexample = check_equivalence(
        &program,
        &query,
        &optimized.program,
        &optimized.query,
        &specs,
        7,
        30,
        776,
    )
    .unwrap();
    assert!(counterexample.is_none(), "{counterexample:?}");

    // The paper then suggests (as future work, beyond its own theorems) factoring ft
    // again into ft1(Y) / ft2(Z). Applying Proposition 3.1 literally produces the
    // program the example displays — but the randomized check shows the second
    // factoring is *not* answer-preserving for arbitrary EDBs: the exit rule
    // correlates Y and Z through e(X, Y, Z), and the recombination ft1 × ft2 loses
    // that correlation. The reproduction finding: Example 7.1's second factoring needs
    // additional conditions on the EDB.
    let ft = factored.free_predicate;
    let ft1 = Symbol::intern("ft1_ex71");
    let ft2 = Symbol::intern("ft2_ex71");
    let mut twice = factor_predicate(&optimized.program, ft, &[0], &[1], ft1, ft2).unwrap();
    twice.push(Rule::new(
        Atom::new(ft, vec![Term::var("Y"), Term::var("Z")]),
        vec![
            Atom::new(ft1, vec![Term::var("Y")]),
            Atom::new(ft2, vec![Term::var("Z")]),
        ],
    ));
    // All derived predicates of the twice-factored program are unary (the arity
    // reduction the example is after)...
    for rule in &twice.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            let name = atom.predicate.as_str();
            if name.starts_with("ft1_") || name.starts_with("ft2_") || name.starts_with("m_") {
                assert!(atom.arity() <= 1, "{atom}");
            }
        }
    }
    // ...but equivalence fails in general.
    let counterexample = check_equivalence(
        &program,
        &query,
        &twice,
        &optimized.query,
        &specs,
        7,
        30,
        777,
    )
    .unwrap();
    assert!(
        counterexample.is_some(),
        "the unconditional second factoring of Example 7.1 should be refutable"
    );
}

#[test]
fn example_7_2_non_unit_program_is_rejected_by_the_unit_analysis() {
    // q(Y) :- a(X, Z), p(Z, Y) on top of the right-linear p: the recursion is not the
    // query predicate, so the unit-program analysis declines (classification is None)
    // and the pipeline falls back to Magic only — the open problem the paper states.
    let src = "q(Y) :- a(X, Z), p(Z, Y).\n\
               p(X, Y) :- b(X, U), p(U, Y).\n\
               p(X, Y) :- e(X, Y).";
    let program = parse_program(src).unwrap().program;
    let query = parse_query("q(Y)").unwrap();
    let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
    assert!(optimized.classification.is_none());
    assert_eq!(optimized.strategy, Strategy::MagicOnly);

    // The magic fallback is still correct.
    let mut edb = Database::new();
    edb.add_fact("a", &[Const::Int(1), Const::Int(2)]);
    edb.add_fact("b", &[Const::Int(2), Const::Int(3)]);
    edb.add_fact("e", &[Const::Int(3), Const::Int(4)]);
    edb.add_fact("e", &[Const::Int(2), Const::Int(9)]);
    let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
    assert_eq!(optimized.answers(&edb).unwrap(), expected);
    assert_eq!(expected, vec![vec![Const::Int(4)], vec![Const::Int(9)]]);
}
