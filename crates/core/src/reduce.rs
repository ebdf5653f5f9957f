//! Static-argument reduction (Definitions 5.1–5.2, Lemmas 5.1–5.2).
//!
//! A bound argument position of the recursive predicate is *static* if every body
//! occurrence of the predicate carries the same variable there as the rule head; the
//! query constant can then be substituted throughout and the position dropped,
//! lowering the predicate's arity by one. Reduction can turn a program to which the
//! factoring theorems do not apply (Example 5.1) — or a *pseudo-left-linear* program
//! (Definition 5.3, Example 5.2) — into one to which they do.

use factorlog_datalog::ast::{Atom, Program, Query, Rule, Substitution, Term};
use factorlog_datalog::symbol::Symbol;

use crate::error::{TransformError, TransformResult};

/// The result of reducing a program with respect to its static bound arguments.
#[derive(Clone, Debug)]
pub struct ReducedProgram {
    /// The reduced program (the recursive predicate renamed and its arity lowered).
    pub program: Program,
    /// The reduced query.
    pub query: Query,
    /// The original recursive predicate.
    pub original_predicate: Symbol,
    /// The lower-arity replacement predicate.
    pub reduced_predicate: Symbol,
    /// The argument positions (of the original predicate) that were removed.
    pub removed_positions: Vec<usize>,
}

/// The bound (query-constant) argument positions of `predicate` that are *static*
/// (Definition 5.1): in every rule whose head is `predicate`, every body occurrence of
/// `predicate` carries the head's variable at that position.
pub fn static_bound_positions(program: &Program, query: &Query) -> Vec<usize> {
    let predicate = query.atom.predicate;
    query
        .bound_positions()
        .into_iter()
        .filter(|&pos| {
            program.rules_for(predicate).all(|rule| {
                let Some(Term::Var(head_var)) = rule.head.terms.get(pos).copied() else {
                    // A constant or missing term in the head: not a static variable
                    // position in the sense of Definition 5.1.
                    return false;
                };
                rule.body
                    .iter()
                    .filter(|a| a.predicate == predicate)
                    .all(|a| a.terms.get(pos).copied() == Some(Term::Var(head_var)))
            })
        })
        .collect()
}

/// Reduce the query predicate with respect to all of its static bound argument
/// positions (Definition 5.2 applied to each). Requires a unit program: every rule
/// that mentions the query predicate in its body must also have it as its head.
pub fn reduce(program: &Program, query: &Query) -> TransformResult<ReducedProgram> {
    let positions = static_bound_positions(program, query);
    reduce_positions(program, query, &positions)
}

/// Reduce the query predicate with respect to a chosen subset of its static bound
/// argument positions (Definition 5.2). The positions must all be static; the paper's
/// Example 5.2 reduces only the first argument even though the second is also static.
pub fn reduce_positions(
    program: &Program,
    query: &Query,
    positions: &[usize],
) -> TransformResult<ReducedProgram> {
    let predicate = query.atom.predicate;
    if program.arity_of(predicate).is_none() {
        return Err(TransformError::UnknownQueryPredicate {
            predicate: predicate.as_str().to_string(),
        });
    }
    for rule in &program.rules {
        if rule.head.predicate != predicate && rule.body_mentions(predicate) {
            return Err(TransformError::NotApplicable {
                transformation: "static-argument reduction",
                reason: format!(
                    "rule `{rule}` uses {predicate} in its body but defines a different predicate"
                ),
            });
        }
    }

    let static_positions = static_bound_positions(program, query);
    let removed_positions: Vec<usize> = positions.to_vec();
    if removed_positions.is_empty() {
        return Err(TransformError::NotApplicable {
            transformation: "static-argument reduction",
            reason: "the query predicate has no static bound argument".to_string(),
        });
    }
    if let Some(&bad) = removed_positions
        .iter()
        .find(|p| !static_positions.contains(p))
    {
        return Err(TransformError::BadArgumentSplit {
            reason: format!("argument position {bad} is not a static bound argument"),
        });
    }

    let existing: std::collections::BTreeSet<&'static str> = program
        .all_predicates()
        .into_iter()
        .map(|p| p.as_str())
        .collect();
    let mut name = format!("{}_red", predicate.as_str());
    while existing.contains(name.as_str()) {
        name.push('_');
    }
    let reduced_predicate = Symbol::intern(&name);

    let kept_positions: Vec<usize> = (0..query.atom.arity())
        .filter(|p| !removed_positions.contains(p))
        .collect();
    let project = |atom: &Atom| -> Atom {
        Atom::new(
            reduced_predicate,
            kept_positions.iter().map(|&i| atom.terms[i]).collect(),
        )
    };

    let mut rules = Vec::with_capacity(program.len());
    for rule in &program.rules {
        if rule.head.predicate != predicate {
            rules.push(rule.clone());
            continue;
        }
        // Substitute the query constants for the head variables at the removed
        // positions, then drop those positions from every occurrence of the predicate.
        let mut subst = Substitution::new();
        for &pos in &removed_positions {
            if let (Term::Var(v), Some(c)) =
                (rule.head.terms[pos], query.atom.terms[pos].as_const())
            {
                subst.insert(v, c);
            }
        }
        let substituted = rule.apply(&subst);
        let head = project(&substituted.head);
        let body = substituted
            .body
            .iter()
            .map(|a| {
                if a.predicate == predicate {
                    project(a)
                } else {
                    a.clone()
                }
            })
            .collect();
        rules.push(Rule::new(head, body));
    }

    let reduced_query = Query::new(project(&query.atom));
    Ok(ReducedProgram {
        program: Program::from_rules(rules),
        query: reduced_query,
        original_predicate: predicate,
        reduced_predicate,
        removed_positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::classify::{classify, RuleClass};
    use crate::conditions::analyze;
    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{evaluate_default, naive_evaluate};
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_datalog::storage::Database;

    #[test]
    fn example_5_1_reduction_enables_factoring() {
        // p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z). with query p(5, 6, U):
        // the first argument is static; reducing it yields a program whose rules are
        // classified combined/exit and which passes the factorability analysis.
        let src = "p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).\n\
                   p(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();

        // Before reduction the analysis does not apply (the recursive occurrences are
        // neither left- nor right-linear because X is shared).
        let adorned = adorn(&program, &query).unwrap();
        let classified = classify(&adorned).unwrap();
        assert!(classified
            .rules
            .iter()
            .any(|r| matches!(r.class, RuleClass::Other(_))));

        assert_eq!(static_bound_positions(&program, &query), vec![0]);
        let reduced = reduce(&program, &query).unwrap();
        assert_eq!(reduced.removed_positions, vec![0]);
        assert_eq!(reduced.query.atom.arity(), 2);
        let text = format!("{}", reduced.program);
        assert!(text.contains("p_red(Y, Z) :- a(5), p_red(Y, W), d(W, U), p_red(U, Z)."));
        assert!(text.contains("p_red(Y, Z) :- exit(5, Y, Z)."));

        // After reduction the program classifies as combined + exit and is factorable.
        let adorned = adorn(&reduced.program, &reduced.query).unwrap();
        let classified = classify(&adorned).unwrap();
        assert_eq!(classified.rules[0].class, RuleClass::Combined);
        assert_eq!(classified.rules[1].class, RuleClass::Exit);
        let report = analyze(&classified);
        assert!(report.is_factorable());
    }

    #[test]
    fn example_5_2_pseudo_left_linear_reduction() {
        // p(X, Y, Z) :- p(X, Y, W), d(W, X, Z): the left and last conjunctions share X,
        // so the rule is only pseudo-left-linear; reducing the static first argument
        // yields a genuinely left-linear rule (Lemma 5.2).
        let src = "p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).\np(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        // Both bound positions are static; the paper reduces only the first one.
        assert_eq!(static_bound_positions(&program, &query), vec![0, 1]);
        let reduced = reduce_positions(&program, &query, &[0]).unwrap();
        let text = format!("{}", reduced.program);
        assert!(
            text.contains("p_red(Y, Z) :- p_red(Y, W), d(W, 5, Z)."),
            "{text}"
        );

        let adorned = adorn(&reduced.program, &reduced.query).unwrap();
        let classified = classify(&adorned).unwrap();
        assert_eq!(classified.rules[0].class, RuleClass::LeftLinear);
        assert!(classified.is_rlc_stable());
        assert!(analyze(&classified).is_factorable());
    }

    #[test]
    fn reduction_preserves_answers() {
        let src = "p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).\np(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        let reduced = reduce(&program, &query).unwrap();

        let mut edb = Database::new();
        edb.add_fact("exit", &[Const::Int(5), Const::Int(6), Const::Int(10)]);
        edb.add_fact("exit", &[Const::Int(4), Const::Int(6), Const::Int(30)]);
        edb.add_fact("d", &[Const::Int(10), Const::Int(5), Const::Int(11)]);
        edb.add_fact("d", &[Const::Int(11), Const::Int(5), Const::Int(12)]);
        edb.add_fact("d", &[Const::Int(30), Const::Int(4), Const::Int(31)]);

        let original = naive_evaluate(&program, &edb).unwrap();
        let red = evaluate_default(&reduced.program, &edb).unwrap();
        // Original answers project the free position; the reduced query exposes the
        // same values.
        assert_eq!(original.answers(&query), red.answers(&reduced.query));
        assert_eq!(
            original.answers(&query),
            vec![
                vec![Const::Int(10)],
                vec![Const::Int(11)],
                vec![Const::Int(12)]
            ]
        );
    }

    #[test]
    fn non_static_positions_are_not_reduced() {
        // The first argument shifts (the body occurrence carries W, not X).
        let src = "p(X, Y) :- e(X, W), p(W, Y).\np(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, Y)").unwrap();
        assert!(static_bound_positions(&program, &query).is_empty());
        assert!(matches!(
            reduce(&program, &query),
            Err(TransformError::NotApplicable { .. })
        ));
    }

    #[test]
    fn free_positions_are_never_static_candidates() {
        let src = "p(X, Y) :- p(X, W), e(W, Y).\np(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        // X is static, but only bound (constant) query positions qualify.
        let query_free = parse_query("p(X, Y)").unwrap();
        assert!(static_bound_positions(&program, &query_free).is_empty());
        let query_bound = parse_query("p(5, Y)").unwrap();
        assert_eq!(static_bound_positions(&program, &query_bound), vec![0]);
    }

    #[test]
    fn reduction_requires_a_unit_program() {
        let src = "q(Y) :- p(5, Y).\np(X, Y) :- p(X, W), e(W, Y).\np(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(7, Y)").unwrap();
        // The rule for q mentions p in its body, so reduction refuses.
        assert!(matches!(
            reduce(&program, &query),
            Err(TransformError::NotApplicable { .. })
        ));
    }

    #[test]
    fn unknown_predicate_is_an_error() {
        let program = parse_program("p(X) :- e(X).").unwrap().program;
        let query = parse_query("zzz(5)").unwrap();
        assert!(matches!(
            reduce(&program, &query),
            Err(TransformError::UnknownQueryPredicate { .. })
        ));
    }

    #[test]
    fn reducing_a_non_static_position_is_rejected() {
        let src = "p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).\np(X, Y, Z) :- exit(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(5, 6, U)").unwrap();
        // Position 2 is free (a variable in the query), hence not a static bound
        // argument.
        assert!(matches!(
            reduce_positions(&program, &query, &[2]),
            Err(TransformError::BadArgumentSplit { .. })
        ));
    }
}
