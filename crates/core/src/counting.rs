//! The Counting transformation (§6.4 of the paper; Bancilhon et al. 1986, Saccà &
//! Zaniolo 1986), restricted — as in the paper's comparison — to programs whose
//! recursive rules are all right-linear.
//!
//! Counting augments the magic (goal) predicate with a derivation-depth index and the
//! answer predicate with the same index, so that answers can be matched back to the
//! goal depth they answer; the original query's answers are the tuples with index 0.
//! The index is pure overhead whenever the Magic program is factorable: Theorem 6.4
//! shows that for right-linear factorable programs the factored Magic program equals
//! the Counting program with the index fields deleted. For programs with left-linear
//! or combined rules Counting does not terminate (the index grows forever), which is
//! why [`counting`] refuses them with an error rather than generating a divergent
//! program.
//!
//! The generated programs use the engine's `succ/2` builtin for the `I + 1` arithmetic.

use factorlog_datalog::ast::{Atom, Program, Query, Rule, Term};
use factorlog_datalog::eval::join::succ_symbol;
use factorlog_datalog::symbol::Symbol;

use crate::adorn::AdornedProgram;
use crate::classify::{ProgramClassification, RuleClass};
use crate::error::{TransformError, TransformResult};

/// The result of the Counting transformation.
#[derive(Clone, Debug)]
pub struct CountingProgram {
    /// The transformed program.
    pub program: Program,
    /// The query on the indexed answer predicate (index fixed to 0).
    pub query: Query,
    /// The indexed goal predicate (`cnt_p`).
    pub count_predicate: Symbol,
    /// The indexed answer predicate (`p_cnt`).
    pub answer_predicate: Symbol,
    /// The unary predicate holding the derivation depths actually generated; it guards
    /// the answer-propagation rules so the index never leaves the goal-depth range in a
    /// bottom-up evaluation.
    pub depth_predicate: Symbol,
}

/// Apply the Counting transformation to a right-linear adorned program.
pub fn counting(
    adorned: &AdornedProgram,
    classification: &ProgramClassification,
) -> TransformResult<CountingProgram> {
    // Applicability: every recursive rule must be right-linear.
    for rule in classification.recursive_rules() {
        if rule.class != RuleClass::RightLinear {
            return Err(TransformError::NotApplicable {
                transformation: "counting",
                reason: format!(
                    "rule {} is {:?}; Counting diverges unless every recursive rule is right-linear (§6.4)",
                    rule.rule_index, rule.class
                ),
            });
        }
    }
    if classification.exit_rules().count() == 0 {
        return Err(TransformError::NotApplicable {
            transformation: "counting",
            reason: "the program has no exit rule".to_string(),
        });
    }
    if classification.bound_positions.is_empty() {
        return Err(TransformError::NotApplicable {
            transformation: "counting",
            reason: "the query binds no argument, so there are no goals to index".to_string(),
        });
    }

    let predicate = classification.predicate;
    let existing: std::collections::BTreeSet<&'static str> = adorned
        .program
        .all_predicates()
        .into_iter()
        .chain(adorned.original_predicates.iter().copied())
        .map(|p| p.as_str())
        .collect();
    let mint = |prefix: &str| {
        let mut name = format!("{}{}", prefix, predicate.as_str());
        while existing.contains(name.as_str()) {
            name.push('_');
        }
        Symbol::intern(&name)
    };
    let count_predicate = mint("cnt_");
    let answer_predicate = mint("ans_");
    let depth_predicate = mint("cntd_");

    let mut program = Program::new();

    // Seed: cnt_p(c̄, 0) for the query constants.
    let mut seed_terms: Vec<Term> = classification
        .bound_positions
        .iter()
        .map(|&i| adorned.query.atom.terms[i])
        .collect();
    seed_terms.push(Term::int(0));
    program.push(Rule::fact(Atom::new(count_predicate, seed_terms)));

    // Index variables, fresh with respect to all rules of the program.
    let index_var = Term::Var(Symbol::intern("_CntI"));
    let next_index_var = Term::Var(Symbol::intern("_CntI1"));

    // Depth projection: cntd_p(I) :- cnt_p(X̄, I). Guarding the answer rules with it
    // keeps the index within the depths actually generated (a bottom-up evaluation of
    // the bare answer rule would otherwise decrement the index without bound).
    {
        let depth_body_args: Vec<Term> = classification
            .bound_positions
            .iter()
            .enumerate()
            .map(|(k, _)| Term::Var(Symbol::intern(&format!("_CntB{k}"))))
            .chain(std::iter::once(index_var))
            .collect();
        program.push(Rule::new(
            Atom::new(depth_predicate, vec![index_var]),
            vec![Atom::new(count_predicate, depth_body_args)],
        ));
    }

    for rule in &classification.rules {
        match rule.class {
            RuleClass::RightLinear => {
                let occurrence = rule.right_occurrence.expect("right-linear rules have one");
                let body_occurrence = &rule.rule.body[occurrence];

                // Goal rule: cnt_p(V̄, I+1) :- cnt_p(X̄, I), first(X̄, V̄), succ(I, I+1).
                let mut goal_head: Vec<Term> = classification
                    .bound_positions
                    .iter()
                    .map(|&i| body_occurrence.terms[i])
                    .collect();
                goal_head.push(next_index_var);
                let mut goal_body = Vec::new();
                let mut count_args: Vec<Term> = classification
                    .bound_positions
                    .iter()
                    .map(|&i| rule.rule.head.terms[i])
                    .collect();
                count_args.push(index_var);
                goal_body.push(Atom::new(count_predicate, count_args));
                goal_body.extend(rule.first_conj.iter().cloned());
                goal_body.push(Atom::new(succ_symbol(), vec![index_var, next_index_var]));
                program.push(Rule::new(Atom::new(count_predicate, goal_head), goal_body));

                // Answer rule: ans_p(Ȳ, I) :- ans_p(Ȳ, I+1), succ(I, I+1), right(Ȳ).
                let mut answer_head: Vec<Term> = classification
                    .free_positions
                    .iter()
                    .map(|&i| rule.rule.head.terms[i])
                    .collect();
                answer_head.push(index_var);
                let mut deeper_args: Vec<Term> = classification
                    .free_positions
                    .iter()
                    .map(|&i| body_occurrence.terms[i])
                    .collect();
                deeper_args.push(next_index_var);
                let mut answer_body = vec![Atom::new(answer_predicate, deeper_args)];
                answer_body.push(Atom::new(succ_symbol(), vec![index_var, next_index_var]));
                answer_body.push(Atom::new(depth_predicate, vec![index_var]));
                answer_body.extend(rule.right_conj.iter().cloned());
                program.push(Rule::new(
                    Atom::new(answer_predicate, answer_head),
                    answer_body,
                ));
            }
            RuleClass::Exit => {
                // ans_p(Ȳ, I) :- cnt_p(X̄, I), exit(X̄, Ȳ).
                let mut answer_head: Vec<Term> = classification
                    .free_positions
                    .iter()
                    .map(|&i| rule.rule.head.terms[i])
                    .collect();
                answer_head.push(index_var);
                let mut count_args: Vec<Term> = classification
                    .bound_positions
                    .iter()
                    .map(|&i| rule.rule.head.terms[i])
                    .collect();
                count_args.push(index_var);
                let mut body = vec![Atom::new(count_predicate, count_args)];
                body.extend(rule.exit_conj.iter().cloned());
                program.push(Rule::new(Atom::new(answer_predicate, answer_head), body));
            }
            _ => unreachable!("checked above"),
        }
    }

    // Query: ans_p(Ȳ, 0) with the adorned query's free terms.
    let mut query_terms: Vec<Term> = classification
        .free_positions
        .iter()
        .map(|&i| adorned.query.atom.terms[i])
        .collect();
    query_terms.push(Term::int(0));
    let query = Query::new(Atom::new(answer_predicate, query_terms));

    Ok(CountingProgram {
        program,
        query,
        count_predicate,
        answer_predicate,
        depth_predicate,
    })
}

/// Delete the index fields from a Counting program (§6.4): drop the last argument of
/// the count and answer predicates and remove the `succ` atoms. Theorem 6.4 states
/// that for right-linear factorable programs the result coincides (up to predicate
/// names and trivially redundant rules) with the factored Magic program.
pub fn delete_index_fields(counting: &CountingProgram) -> Program {
    let strip = |atom: &Atom| -> Atom {
        if atom.predicate == counting.count_predicate || atom.predicate == counting.answer_predicate
        {
            let mut terms = atom.terms.clone();
            terms.pop();
            Atom::new(atom.predicate, terms)
        } else {
            atom.clone()
        }
    };
    let rules = counting
        .program
        .rules
        .iter()
        .filter(|rule| rule.head.predicate != counting.depth_predicate)
        .map(|rule| {
            let head = strip(&rule.head);
            let body = rule
                .body
                .iter()
                .filter(|a| a.predicate != succ_symbol() && a.predicate != counting.depth_predicate)
                .map(strip)
                .collect();
            Rule::new(head, body)
        })
        .collect();
    Program::from_rules(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::classify::classify;
    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{
        evaluate_default, naive_evaluate, seminaive_evaluate, EvalOptions,
    };
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_datalog::storage::Database;

    const RIGHT_LINEAR: &str = "p(X, Y) :- first1(X, U), p(U, Y), right1(Y).\n\
                                p(X, Y) :- first2(X, U), p(U, Y), right2(Y).\n\
                                p(X, Y) :- exit(X, Y).";

    fn build(src: &str, query: &str) -> (AdornedProgram, CountingProgram) {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let classification = classify(&adorned).unwrap();
        let cnt = counting(&adorned, &classification).unwrap();
        (adorned, cnt)
    }

    #[test]
    fn generates_the_rules_of_section_6_4() {
        let (_, cnt) = build(RIGHT_LINEAR, "p(5, Y)");
        let text = format!("{}", cnt.program);
        assert!(text.contains("cnt_p_bf(5, 0)."), "{text}");
        assert!(text.contains(
            "cnt_p_bf(U, _CntI1) :- cnt_p_bf(X, _CntI), first1(X, U), succ(_CntI, _CntI1)."
        ));
        assert!(text.contains(
            "ans_p_bf(Y, _CntI) :- ans_p_bf(Y, _CntI1), succ(_CntI, _CntI1), cntd_p_bf(_CntI), right1(Y)."
        ));
        assert!(text.contains("ans_p_bf(Y, _CntI) :- cnt_p_bf(X, _CntI), exit(X, Y)."));
        assert!(text.contains("cntd_p_bf(_CntI) :- cnt_p_bf(_CntB0, _CntI)."));
        assert_eq!(format!("{}", cnt.query), "?- ans_p_bf(Y, 0).");
    }

    #[test]
    fn counting_computes_the_original_answers() {
        let program = parse_program(RIGHT_LINEAR).unwrap().program;
        let query = parse_query("p(5, Y)").unwrap();
        let (_, cnt) = build(RIGHT_LINEAR, "p(5, Y)");

        let mut edb = Database::new();
        // A small layered instance: goals 5 -> 6 -> 7 via first1/first2; exits at each.
        edb.add_fact("first1", &[Const::Int(5), Const::Int(6)]);
        edb.add_fact("first2", &[Const::Int(6), Const::Int(7)]);
        for (a, b) in [(5, 50), (6, 60), (7, 70)] {
            edb.add_fact("exit", &[Const::Int(a), Const::Int(b)]);
        }
        // right restrictions admit every exit value reached through them.
        for v in [60, 70] {
            edb.add_fact("right1", &[Const::Int(v)]);
            edb.add_fact("right2", &[Const::Int(v)]);
        }

        let original = naive_evaluate(&program, &edb).unwrap();
        let counted = evaluate_default(&cnt.program, &edb).unwrap();
        assert_eq!(original.answers(&query), counted.answers(&cnt.query));
        assert_eq!(
            original.answers(&query),
            vec![
                vec![Const::Int(50)],
                vec![Const::Int(60)],
                vec![Const::Int(70)]
            ]
        );
    }

    #[test]
    fn counting_matches_magic_on_the_simple_transitive_closure() {
        let src = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(0, Y)").unwrap();
        let (_, cnt) = build(src, "t(0, Y)");
        let mut edb = Database::new();
        for i in 0..12i64 {
            edb.add_fact("e", &[Const::Int(i), Const::Int(i + 1)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let counted = evaluate_default(&cnt.program, &edb).unwrap();
        assert_eq!(original.answers(&query), counted.answers(&cnt.query));
    }

    #[test]
    fn counting_diverges_on_cyclic_data_but_is_caught_by_the_iteration_limit() {
        // The classic caveat: with a cycle in the data the index grows without bound.
        let src = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).";
        let (_, cnt) = build(src, "t(0, Y)");
        let mut edb = Database::new();
        for i in 0..4i64 {
            edb.add_fact("e", &[Const::Int(i), Const::Int((i + 1) % 4)]);
        }
        let options = EvalOptions {
            max_iterations: 200,
            ..EvalOptions::default()
        };
        assert!(seminaive_evaluate(&cnt.program, &edb, &options).is_err());
    }

    #[test]
    fn left_linear_programs_are_refused() {
        let src = "t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(0, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let classification = classify(&adorned).unwrap();
        let err = counting(&adorned, &classification).unwrap_err();
        assert!(matches!(err, TransformError::NotApplicable { .. }));
        assert!(format!("{err}").contains("right-linear"));
    }

    #[test]
    fn all_free_queries_are_refused() {
        // A non-recursive program keeps a single (all-free) adornment; Counting has no
        // bound arguments to index and refuses.
        let src = "t(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(X, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let classification = classify(&adorned).unwrap();
        assert!(counting(&adorned, &classification).is_err());
    }

    #[test]
    fn deleting_index_fields_gives_the_factored_shape() {
        // Theorem 6.4: dropping the index fields yields (up to naming and trivially
        // redundant rules) the factored Magic program. We check the structural
        // consequence: same answers, and the recursive answer rules become
        // head-in-body-redundant.
        let (_adorned, cnt) = build(RIGHT_LINEAR, "p(5, Y)");
        let stripped = delete_index_fields(&cnt);
        let text = format!("{stripped}");
        assert!(text.contains("cnt_p_bf(5)."));
        assert!(text.contains("cnt_p_bf(U) :- cnt_p_bf(X), first1(X, U)."));
        assert!(text.contains("ans_p_bf(Y) :- ans_p_bf(Y), right1(Y)."));
        assert!(text.contains("ans_p_bf(Y) :- cnt_p_bf(X), exit(X, Y)."));
        // The recursive answer rules have their head in the body and therefore derive
        // nothing; after removing them the program is exactly the optimized factored
        // Magic program modulo predicate names (magic ↔ cnt, fp ↔ ans).
        let query = parse_query("ans_p_bf(Y)").unwrap();
        let mut edb = Database::new();
        edb.add_fact("first1", &[Const::Int(5), Const::Int(6)]);
        edb.add_fact("exit", &[Const::Int(6), Const::Int(60)]);
        edb.add_fact("exit", &[Const::Int(5), Const::Int(50)]);
        edb.add_fact("right1", &[Const::Int(60)]);
        let stripped_result = evaluate_default(&stripped, &edb).unwrap();
        let counted_result = evaluate_default(&cnt.program, &edb).unwrap();
        assert_eq!(
            stripped_result.answers(&query),
            counted_result.answers(&cnt.query)
        );
    }
}
