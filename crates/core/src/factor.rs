//! The factoring transformation (§3, Proposition 3.1).
//!
//! Factoring a predicate `p` into `p1` and `p2` over a partition of its argument
//! positions replaces every body occurrence `p(t̄)` by the pair `p1(t̄|1), p2(t̄|2)` and
//! every rule with head `p(t̄)` by two rules with the same body and heads `p1(t̄|1)` and
//! `p2(t̄|2)`. The transformed program computes the same answers *iff* the program has
//! the factoring property with respect to the query — which is undecidable in general
//! (Theorem 3.1) but guaranteed for the Magic programs of selection-pushing, symmetric
//! and answer-propagating programs (Theorems 4.1–4.3, [`crate::conditions`]).
//!
//! [`factor_magic`] applies the transformation the paper's theorems are about: the
//! adorned recursive predicate of a Magic program is split into its bound part `bp(X̄)`
//! and free part `fp(Ȳ)`; the answers to the original selection are then exactly the
//! `fp` facts (Fig. 2 of the paper is this transformation applied to Fig. 1).

use factorlog_datalog::ast::{Atom, Program, Query, Rule};
use factorlog_datalog::symbol::Symbol;

use crate::adorn::AdornedProgram;
use crate::error::{TransformError, TransformResult};
use crate::magic::MagicProgram;

/// The result of factoring a Magic program's recursive predicate into bound and free
/// parts.
#[derive(Clone, Debug)]
pub struct FactoredProgram {
    /// The factored program.
    pub program: Program,
    /// The predicate that was factored (the adorned recursive predicate).
    pub factored_predicate: Symbol,
    /// The predicate holding the bound-argument projection (`bp`).
    pub bound_predicate: Symbol,
    /// The predicate holding the free-argument projection (`fp`) — the answers.
    pub free_predicate: Symbol,
    /// Bound argument positions of the factored predicate.
    pub bound_positions: Vec<usize>,
    /// Free argument positions of the factored predicate.
    pub free_positions: Vec<usize>,
    /// The magic predicate guarding the factored predicate, if any.
    pub magic_predicate: Option<Symbol>,
    /// The query, rewritten onto `fp` (the free positions of the adorned query).
    pub query: Query,
    /// The original (pre-factoring) query on the adorned predicate.
    pub adorned_query: Query,
}

/// Split an atom's terms according to a position list.
fn project(atom: &Atom, positions: &[usize], predicate: Symbol) -> Atom {
    Atom::new(
        predicate,
        positions.iter().map(|&i| atom.terms[i]).collect(),
    )
}

/// Apply Proposition 3.1: factor `predicate` into `name1` over `positions1` and
/// `name2` over `positions2` (which must partition `0..arity` and both be non-empty,
/// i.e. the factoring must be nontrivial).
pub fn factor_predicate(
    program: &Program,
    predicate: Symbol,
    positions1: &[usize],
    positions2: &[usize],
    name1: Symbol,
    name2: Symbol,
) -> TransformResult<Program> {
    let Some(arity) = program.arity_of(predicate) else {
        return Err(TransformError::UnknownQueryPredicate {
            predicate: predicate.as_str().to_string(),
        });
    };
    let mut seen = vec![false; arity];
    for &i in positions1.iter().chain(positions2.iter()) {
        if i >= arity {
            return Err(TransformError::BadArgumentSplit {
                reason: format!("position {i} is out of range for arity {arity}"),
            });
        }
        if seen[i] {
            return Err(TransformError::BadArgumentSplit {
                reason: format!("position {i} appears twice in the split"),
            });
        }
        seen[i] = true;
    }
    if seen.iter().any(|s| !s) {
        return Err(TransformError::BadArgumentSplit {
            reason: "the split does not cover every argument position".to_string(),
        });
    }
    if positions1.is_empty() || positions2.is_empty() {
        return Err(TransformError::BadArgumentSplit {
            reason: "both sides of a nontrivial factoring must be non-empty".to_string(),
        });
    }

    let mut out = Program::new();
    for rule in &program.rules {
        let new_body: Vec<Atom> = rule
            .body
            .iter()
            .flat_map(|atom| {
                if atom.predicate == predicate {
                    vec![
                        project(atom, positions1, name1),
                        project(atom, positions2, name2),
                    ]
                } else {
                    vec![atom.clone()]
                }
            })
            .collect();
        if rule.head.predicate == predicate {
            out.push(Rule::new(
                project(&rule.head, positions1, name1),
                new_body.clone(),
            ));
            out.push(Rule::new(project(&rule.head, positions2, name2), new_body));
        } else {
            out.push(Rule::new(rule.head.clone(), new_body));
        }
    }
    Ok(out)
}

/// Factor the adorned recursive predicate of a Magic program into its bound part `bp`
/// and free part `fp` (the factoring used by Theorems 4.1–4.3). The caller is
/// responsible for having established that the program is factorable (via
/// [`crate::conditions::analyze`] or otherwise); this function performs the rewrite
/// unconditionally.
pub fn factor_magic(
    adorned: &AdornedProgram,
    magic: &MagicProgram,
) -> TransformResult<FactoredProgram> {
    let predicate = adorned.query.atom.predicate;
    let info = adorned
        .info(predicate)
        .ok_or_else(|| TransformError::NotApplicable {
            transformation: "factoring",
            reason: "the query predicate is not an adorned IDB predicate".to_string(),
        })?;
    let bound_positions = info.bound_positions();
    let free_positions = info.free_positions();
    if bound_positions.is_empty() || free_positions.is_empty() {
        return Err(TransformError::NotApplicable {
            transformation: "factoring",
            reason: format!(
                "the adornment {} has no nontrivial bound/free split",
                info.adornment
            ),
        });
    }

    let existing: std::collections::BTreeSet<&'static str> = magic
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
    let bound_predicate = mint("b_");
    let free_predicate = mint("f_");

    let program = factor_predicate(
        &magic.program,
        predicate,
        &bound_positions,
        &free_positions,
        bound_predicate,
        free_predicate,
    )?;

    let query = Query::new(project(
        &adorned.query.atom,
        &free_positions,
        free_predicate,
    ));

    Ok(FactoredProgram {
        program,
        factored_predicate: predicate,
        bound_predicate,
        free_predicate,
        bound_positions,
        free_positions,
        magic_predicate: magic.magic_predicate(predicate),
        query,
        adorned_query: adorned.query.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::magic::magic;
    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{evaluate_default, naive_evaluate};
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_datalog::storage::Database;

    const THREE_RULE_TC: &str = "t(X, Y) :- t(X, W), t(W, Y).\n\
                                 t(X, Y) :- e(X, W), t(W, Y).\n\
                                 t(X, Y) :- t(X, W), e(W, Y).\n\
                                 t(X, Y) :- e(X, Y).";

    fn factored_tc() -> FactoredProgram {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        factor_magic(&adorned, &magicp).unwrap()
    }

    #[test]
    fn factoring_splits_heads_and_bodies() {
        // Figure 2 of the paper: the factored version of the Magic program.
        let f = factored_tc();
        let text = format!("{}", f.program);
        assert_eq!(f.bound_predicate.as_str(), "b_t_bf");
        assert_eq!(f.free_predicate.as_str(), "f_t_bf");
        // The seed and magic rules survive unchanged except for t_bf occurrences.
        assert!(text.contains("m_t_bf(5)."));
        assert!(text.contains("m_t_bf(W) :- m_t_bf(X), b_t_bf(X), f_t_bf(W)."));
        // Each guarded rule is duplicated into a b_ head and an f_ head with the same
        // body (the exit rule shown here).
        assert!(text.contains("b_t_bf(X) :- m_t_bf(X), e(X, Y)."));
        assert!(text.contains("f_t_bf(Y) :- m_t_bf(X), e(X, Y)."));
        // The nonlinear rule's body mentions both factors of both occurrences.
        assert!(
            text.contains("f_t_bf(Y) :- m_t_bf(X), b_t_bf(X), f_t_bf(W), b_t_bf(W), f_t_bf(Y).")
        );
        // The query now asks for fp facts.
        assert_eq!(format!("{}", f.query), "?- f_t_bf(Y).");
        assert_eq!(f.magic_predicate.unwrap().as_str(), "m_t_bf");
    }

    #[test]
    fn factored_magic_program_preserves_answers() {
        // Theorem 4.1 instantiated: on a concrete EDB the factored Magic program
        // computes exactly the original answers.
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let f = factored_tc();

        let mut edb = Database::new();
        for (a, b) in [(5, 6), (6, 7), (7, 8), (8, 6), (1, 2), (2, 3)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let factored = evaluate_default(&f.program, &edb).unwrap();
        let expected: Vec<Vec<Const>> = original.answers(&query);
        let got: Vec<Vec<Const>> = factored.answers(&f.query);
        assert_eq!(expected, got);
        // And the factored program has strictly lower-arity recursive predicates: no
        // binary t_bf relation is materialized at all.
        assert_eq!(factored.database.count("t_bf"), 0);
        assert!(factored.database.count("f_t_bf") > 0);
    }

    #[test]
    fn generic_factoring_validates_the_split() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let t = Symbol::intern("t");
        let b = Symbol::intern("bt_x");
        let f = Symbol::intern("ft_x");
        assert!(factor_predicate(&program, t, &[0], &[1], b, f).is_ok());
        assert!(factor_predicate(&program, t, &[0], &[0], b, f).is_err());
        assert!(factor_predicate(&program, t, &[0], &[2], b, f).is_err());
        assert!(factor_predicate(&program, t, &[0, 1], &[], b, f).is_err());
        assert!(factor_predicate(&program, t, &[0], &[], b, f).is_err());
        assert!(factor_predicate(&program, Symbol::intern("zz"), &[0], &[1], b, f).is_err());
    }

    #[test]
    fn theorem_3_1_counterexample_changes_answers() {
        // The proof of Theorem 3.1: factoring t(X, Y, Z) into t1(X) and t2(Y, Z) is
        // not sound for the program below when a1 and a2 differ, because the recombined
        // relation mixes X values from one rule with (Y, Z) values from the other.
        let src = "t(X, Y, Z) :- a1(X), q1(Y, Z).\nt(X, Y, Z) :- a2(X), q2(Y, Z).";
        let program = parse_program(src).unwrap().program;
        let t = Symbol::intern("t");
        let t1 = Symbol::intern("t1_counter");
        let t2 = Symbol::intern("t2_counter");
        let mut factored = factor_predicate(&program, t, &[0], &[1, 2], t1, t2).unwrap();
        // Proposition 3.1's equivalent formulation adds the recombination rule.
        factored.push(
            factorlog_datalog::parser::parse_rule("t(X, Y, Z) :- t1_counter(X), t2_counter(Y, Z).")
                .unwrap(),
        );

        // EDB from the proof: a2 empty, a1 = {1}, q2 = {(2,3)... } — here q1 holds the
        // two tuples and q2 is empty, so the original program derives t(1,2,3) and
        // t(1,4,5) only.
        let mut edb = Database::new();
        edb.add_fact("a1", &[Const::Int(1)]);
        edb.add_fact("q1", &[Const::Int(2), Const::Int(3)]);
        edb.add_fact("q1", &[Const::Int(4), Const::Int(5)]);
        // Make the *second* rule also fire with a different X so recombination mixes.
        edb.add_fact("a2", &[Const::Int(9)]);
        edb.add_fact("q2", &[Const::Int(7), Const::Int(8)]);

        let query = parse_query("t(X, Y, Z)").unwrap();
        let original = naive_evaluate(&program, &edb).unwrap();
        let recombined = evaluate_default(&factored, &edb).unwrap();
        let orig_answers = original.answers(&query);
        let fact_answers = recombined.answers(&query);
        assert_eq!(orig_answers.len(), 3);
        assert!(
            fact_answers.len() > orig_answers.len(),
            "factoring must produce spurious tuples here ({} vs {})",
            fact_answers.len(),
            orig_answers.len()
        );
        // The spurious tuple mixes a1's X with q2's (Y, Z).
        assert!(fact_answers.contains(&vec![Const::Int(1), Const::Int(7), Const::Int(8)]));
    }

    #[test]
    fn all_bound_adornment_cannot_be_factored() {
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program;
        let query = parse_query("t(5, 7)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        assert!(matches!(
            factor_magic(&adorned, &magicp),
            Err(TransformError::NotApplicable { .. })
        ));
    }
}
