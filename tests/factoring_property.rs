//! E3: the factoring property itself (§3) — Proposition 3.1's two equivalent
//! formulations and the counterexample construction from the proof of Theorem 3.1.

use factorlog::core::equivalence::{check_equivalence, EdbSpec};
use factorlog::core::factor_predicate;
use factorlog::prelude::*;

/// The program from the proof of Theorem 3.1.
const THEOREM_3_1: &str = "t(X, Y, Z) :- a1(X), q1(Y, Z).\nt(X, Y, Z) :- a2(X), q2(Y, Z).";

#[test]
fn proposition_3_1_transformation_shape() {
    // Factoring replaces every rule with head p by two rules with the same body, and
    // every body occurrence of p by the pair of projections.
    let program = parse_program("p(X, Y) :- e(X, Y).\nq(Z) :- p(5, Z), g(Z).")
        .unwrap()
        .program;
    let factored = factor_predicate(
        &program,
        Symbol::intern("p"),
        &[0],
        &[1],
        Symbol::intern("p1_prop31"),
        Symbol::intern("p2_prop31"),
    )
    .unwrap();
    let text = format!("{factored}");
    assert!(text.contains("p1_prop31(X) :- e(X, Y)."));
    assert!(text.contains("p2_prop31(Y) :- e(X, Y)."));
    assert!(text.contains("q(Z) :- p1_prop31(5), p2_prop31(Z), g(Z)."));
    assert_eq!(factored.len(), 3);
}

#[test]
fn theorem_3_1_edb_from_the_proof_refutes_factoring_into_t1_t2() {
    // The proof's first EDB: a2 empty, a1 = {1}, q2 empty, q1 = {(2,3), (4,5)}.
    // Factoring t into t1(X) / t2(Y, Z) happens to be harmless on THIS instance (both
    // rules' a/q pairs coincide), but factoring into t'(X, Y) / t''(Z) recombines
    // (1, 2) with 5 and (1, 4) with 3, exactly as the paper argues.
    let program = parse_program(THEOREM_3_1).unwrap().program;
    let query = parse_query("t(X, Y, Z)").unwrap();
    let mut with_recombination = factor_predicate(
        &program,
        Symbol::intern("t"),
        &[0, 1],
        &[2],
        Symbol::intern("tp_thm31"),
        Symbol::intern("tpp_thm31"),
    )
    .unwrap();
    with_recombination.push(parse_rule("t(X, Y, Z) :- tp_thm31(X, Y), tpp_thm31(Z).").unwrap());

    let mut edb = Database::new();
    edb.add_fact("a1", &[Const::Int(1)]);
    edb.add_fact("q1", &[Const::Int(2), Const::Int(3)]);
    edb.add_fact("q1", &[Const::Int(4), Const::Int(5)]);
    edb.ensure_relation(Symbol::intern("a2"), 1);
    edb.ensure_relation(Symbol::intern("q2"), 2);

    let original = naive_evaluate(&program, &edb).unwrap().answers(&query);
    let factored = evaluate_default(&with_recombination, &edb)
        .unwrap()
        .answers(&query);
    assert_eq!(
        original,
        vec![
            vec![Const::Int(1), Const::Int(2), Const::Int(3)],
            vec![Const::Int(1), Const::Int(4), Const::Int(5)],
        ]
    );
    assert!(factored.contains(&vec![Const::Int(1), Const::Int(2), Const::Int(5)]));
    assert!(factored.contains(&vec![Const::Int(1), Const::Int(4), Const::Int(3)]));
    assert!(factored.len() > original.len());
}

#[test]
fn theorem_3_1_t1_t2_factoring_fails_when_a1_and_a2_differ() {
    // The second half of the proof: factoring into t1(X) / t2(Y, Z) preserves answers
    // iff q1 and q2 compute the same relation whenever a1 and a2 differ. With
    // different a's and different q's, random EDBs find a counterexample quickly.
    let program = parse_program(THEOREM_3_1).unwrap().program;
    let query = parse_query("t(X, Y, Z)").unwrap();
    let mut factored = factor_predicate(
        &program,
        Symbol::intern("t"),
        &[0],
        &[1, 2],
        Symbol::intern("t1_thm31"),
        Symbol::intern("t2_thm31"),
    )
    .unwrap();
    factored.push(parse_rule("t(X, Y, Z) :- t1_thm31(X), t2_thm31(Y, Z).").unwrap());

    let specs = [
        EdbSpec::new("a1", 1, 3),
        EdbSpec::new("a2", 1, 3),
        EdbSpec::new("q1", 2, 4),
        EdbSpec::new("q2", 2, 4),
    ];
    let counterexample =
        check_equivalence(&program, &query, &factored, &query, &specs, 8, 40, 1234).unwrap();
    assert!(
        counterexample.is_some(),
        "factoring t into t1/t2 must be refutable when a1, a2, q1, q2 are unrelated"
    );
}

#[test]
fn factoring_is_sound_when_the_two_rules_coincide() {
    // If a1 = a2 and q1 = q2 syntactically (a single rule), t is a cartesian product
    // and the factoring is exact on every EDB we try.
    let program = parse_program("t(X, Y, Z) :- a1(X), q1(Y, Z).")
        .unwrap()
        .program;
    let query = parse_query("t(X, Y, Z)").unwrap();
    let mut factored = factor_predicate(
        &program,
        Symbol::intern("t"),
        &[0],
        &[1, 2],
        Symbol::intern("t1_cart"),
        Symbol::intern("t2_cart"),
    )
    .unwrap();
    factored.push(parse_rule("t(X, Y, Z) :- t1_cart(X), t2_cart(Y, Z).").unwrap());
    let specs = [EdbSpec::new("a1", 1, 4), EdbSpec::new("q1", 2, 6)];
    let counterexample =
        check_equivalence(&program, &query, &factored, &query, &specs, 8, 30, 99).unwrap();
    assert!(counterexample.is_none(), "{counterexample:?}");
}
