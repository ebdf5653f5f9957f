//! The Magic Sets transformation (§2.1 of the paper; Bancilhon–Maier–Sagiv–Ullman 1986,
//! Beeri–Ramakrishnan 1987).
//!
//! Given an adorned program and query, produce a program whose semi-naive bottom-up
//! evaluation computes only facts relevant to the query: auxiliary *magic* predicates
//! hold the goals that a top-down evaluation would generate, and each original rule is
//! guarded by the magic predicate of its head so it only fires for relevant bindings.
//!
//! The output of this module is the `P^mg` the factoring theorems of §4 operate on
//! (Fig. 1 of the paper is exactly [`magic`] applied to the three-rule transitive
//! closure).

use factorlog_datalog::ast::{Atom, Program, Query, Rule, Term};
use factorlog_datalog::fx::FxHashMap;
use factorlog_datalog::symbol::Symbol;

use crate::adorn::AdornedProgram;
use crate::error::TransformResult;

/// The result of the Magic Sets transformation.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The transformed program: magic rules, the seed fact, and the guarded original
    /// rules.
    pub program: Program,
    /// The query (unchanged from the adorned query: answers are still read from the
    /// adorned query predicate).
    pub query: Query,
    /// Mapping from each adorned predicate to its magic predicate.
    pub magic_of: FxHashMap<Symbol, Symbol>,
    /// The seed fact asserted for the query's bound arguments.
    pub seed: Atom,
}

impl MagicProgram {
    /// The magic predicate of an adorned predicate, if one was generated.
    pub fn magic_predicate(&self, adorned: Symbol) -> Option<Symbol> {
        self.magic_of.get(&adorned).copied()
    }

    /// Is `predicate` one of the generated magic predicates?
    pub fn is_magic(&self, predicate: Symbol) -> bool {
        self.magic_of.values().any(|&m| m == predicate)
    }
}

/// Project an atom onto the bound positions of its adornment, renaming it to the magic
/// predicate.
fn magic_atom(atom: &Atom, bound_positions: &[usize], magic: Symbol) -> Atom {
    Atom::new(
        magic,
        bound_positions.iter().map(|&i| atom.terms[i]).collect(),
    )
}

/// Apply the Magic Sets transformation to an adorned program.
///
/// For every adorned rule `p^a(t̄) :- L1, ..., Ln.`:
///
/// * the *guarded rule* `p^a(t̄) :- m_p^a(t̄|bound), L1, ..., Ln.` is emitted, and
/// * for every adorned (IDB) body literal `Lj = q^b(s̄)`, the *magic rule*
///   `m_q^b(s̄|bound) :- m_p^a(t̄|bound), L1, ..., L(j-1).` is emitted.
///
/// Finally the *seed* `m_q0^a0(c̄).` is asserted for the query's constants. Predicates
/// whose adornment has no bound position get a zero-arity magic predicate, which is
/// harmless (its seed is immediately true).
pub fn magic(adorned: &AdornedProgram) -> TransformResult<MagicProgram> {
    let mut magic_of: FxHashMap<Symbol, Symbol> = FxHashMap::default();
    let existing: std::collections::BTreeSet<&'static str> = adorned
        .program
        .all_predicates()
        .into_iter()
        .chain(adorned.original_predicates.iter().copied())
        .map(|p| p.as_str())
        .collect();
    for pred in adorned.adorned_predicates() {
        let mut name = format!("m_{}", pred.as_str());
        while existing.contains(name.as_str()) {
            name.push('_');
        }
        magic_of.insert(pred, Symbol::intern(&name));
    }

    let mut program = Program::new();

    // Seed for the query.
    let query_pred = adorned.query.atom.predicate;
    let seed = if let (Some(info), Some(&magic_pred)) =
        (adorned.info(query_pred), magic_of.get(&query_pred))
    {
        let seed = magic_atom(&adorned.query.atom, &info.bound_positions(), magic_pred);
        debug_assert!(seed.is_ground(), "query bound arguments are constants");
        program.push(Rule::fact(seed.clone()));
        seed
    } else {
        // Query on an EDB predicate: empty adorned program, nothing to do.
        return Ok(MagicProgram {
            program,
            query: adorned.query.clone(),
            magic_of,
            seed: adorned.query.atom.clone(),
        });
    };

    for rule in &adorned.program.rules {
        let head_info = adorned
            .info(rule.head.predicate)
            .expect("adorned rule heads are adorned predicates");
        let head_magic = magic_of[&rule.head.predicate];
        let head_guard = magic_atom(&rule.head, &head_info.bound_positions(), head_magic);

        // Magic rules for each adorned body literal.
        for (j, literal) in rule.body.iter().enumerate() {
            let Some(info) = adorned.info(literal.predicate) else {
                continue;
            };
            let literal_magic = magic_of[&literal.predicate];
            let magic_head = magic_atom(literal, &info.bound_positions(), literal_magic);
            let mut body = Vec::with_capacity(j + 1);
            body.push(head_guard.clone());
            body.extend(rule.body[..j].iter().cloned());
            program.push(Rule::new(magic_head, body));
        }

        // Guarded original rule.
        let mut body = Vec::with_capacity(rule.body.len() + 1);
        body.push(head_guard);
        body.extend(rule.body.iter().cloned());
        program.push(Rule::new(rule.head.clone(), body));
    }

    Ok(MagicProgram {
        program,
        query: adorned.query.clone(),
        magic_of,
        seed,
    })
}

/// Convenience: answers of the original query can be reconstructed from the adorned
/// query predicate in the magic program's model; this helper builds the query atom on
/// the *original* predicate from a row of the adorned predicate.
pub fn reconstruct_original_atom(adorned: &AdornedProgram, row: &[Term]) -> Option<Atom> {
    let info = adorned.info(adorned.query.atom.predicate)?;
    Some(Atom::new(info.original, row.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use factorlog_datalog::ast::Const;
    use factorlog_datalog::eval::{evaluate_default, naive_evaluate};
    use factorlog_datalog::parser::{parse_program, parse_query};
    use factorlog_datalog::storage::Database;

    fn magic_of(src: &str, query: &str) -> (MagicProgram, AdornedProgram) {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magic = magic(&adorned).unwrap();
        (magic, adorned)
    }

    const THREE_RULE_TC: &str = "t(X, Y) :- t(X, W), t(W, Y).\n\
                                 t(X, Y) :- e(X, W), t(W, Y).\n\
                                 t(X, Y) :- t(X, W), e(W, Y).\n\
                                 t(X, Y) :- e(X, Y).";

    #[test]
    fn reproduces_figure_1_of_the_paper() {
        // Fig. 1: P^mg for the three-rule transitive closure with query t(5, Y).
        let (magic, _) = magic_of(THREE_RULE_TC, "t(5, Y)");
        let text = format!("{}", magic.program);
        // Seed.
        assert!(text.contains("m_t_bf(5)."));
        // Magic rules (the paper's m_tbf(W) :- m_tbf(X), tbf(X, W). etc.).
        assert!(text.contains("m_t_bf(W) :- m_t_bf(X), t_bf(X, W)."));
        assert!(text.contains("m_t_bf(W) :- m_t_bf(X), e(X, W)."));
        // Guarded rules.
        assert!(text.contains("t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), t_bf(W, Y)."));
        assert!(text.contains("t_bf(X, Y) :- m_t_bf(X), e(X, W), t_bf(W, Y)."));
        assert!(text.contains("t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), e(W, Y)."));
        assert!(text.contains("t_bf(X, Y) :- m_t_bf(X), e(X, Y)."));
        // Rule count: 1 seed + 4 magic rules (one per adorned body literal: rules 1-3
        // contribute 2+1+1) + 4 guarded rules = 9.
        assert_eq!(magic.program.len(), 9);
        assert_eq!(magic.seed.predicate.as_str(), "m_t_bf");
        assert!(magic.is_magic(Symbol::intern("m_t_bf")));
        assert!(!magic.is_magic(Symbol::intern("t_bf")));
        assert_eq!(
            magic.magic_predicate(Symbol::intern("t_bf")),
            Some(Symbol::intern("m_t_bf"))
        );
    }

    #[test]
    fn magic_program_computes_the_same_answers_as_the_original() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let (magic, adorned) = magic_of(THREE_RULE_TC, "t(5, Y)");

        let mut edb = Database::new();
        for (a, b) in [(5, 6), (6, 7), (7, 8), (1, 2), (2, 3), (8, 5)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let transformed = evaluate_default(&magic.program, &edb).unwrap();
        assert_eq!(
            original.answers(&query),
            transformed.answers(&adorned.query),
            "magic program must preserve the query answers"
        );
    }

    #[test]
    fn magic_program_restricts_computation_to_relevant_facts() {
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program;
        let query = parse_query("t(0, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();

        // Two disjoint chains; only the one containing node 0 is relevant.
        let mut edb = Database::new();
        for i in 0..50i64 {
            edb.add_fact("e", &[Const::Int(i), Const::Int(i + 1)]);
            edb.add_fact("e", &[Const::Int(1000 + i), Const::Int(1001 + i)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let transformed = evaluate_default(&magicp.program, &edb).unwrap();
        assert_eq!(
            original.answers(&query),
            transformed.answers(&adorned.query)
        );
        // The original computes the closure of both chains (t has ~2 * 50*51/2 facts);
        // the magic program only computes tuples with first component reachable from 0.
        let t_all = original.answers(&parse_query("t(X, Y)").unwrap()).len();
        let t_magic = transformed.database.count("t_bf");
        assert!(
            t_magic * 2 <= t_all,
            "magic must skip the irrelevant chain: {t_magic} vs {t_all}"
        );
    }

    #[test]
    fn right_linear_rule_generates_shifting_magic_rule() {
        let (magic, _) = magic_of(
            "p(X, Y) :- f(X, V), p(V, Y), r(Y).\np(X, Y) :- e(X, Y).",
            "p(1, Y)",
        );
        let text = format!("{}", magic.program);
        assert!(text.contains("m_p_bf(V) :- m_p_bf(X), f(X, V)."));
        assert!(text.contains("p_bf(X, Y) :- m_p_bf(X), f(X, V), p_bf(V, Y), r(Y)."));
        assert!(text.contains("m_p_bf(1)."));
    }

    #[test]
    fn all_free_query_gets_zero_arity_magic_seed() {
        let (magic, adorned) = magic_of(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
            "t(X, Y)",
        );
        assert_eq!(magic.seed.arity(), 0);
        // Still computes correct answers.
        let mut edb = Database::new();
        edb.add_fact("e", &[Const::Int(1), Const::Int(2)]);
        edb.add_fact("e", &[Const::Int(2), Const::Int(3)]);
        let transformed = evaluate_default(&magic.program, &edb).unwrap();
        assert_eq!(transformed.answers(&adorned.query).len(), 3);
    }

    #[test]
    fn same_generation_magic_matches_original() {
        let src = "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("sg(1, Y)").unwrap();
        let (magicp, adorned) = magic_of(src, "sg(1, Y)");
        let mut edb = Database::new();
        for (a, b) in [(1, 11), (1, 12), (2, 21)] {
            edb.add_fact("up", &[Const::Int(a), Const::Int(b)]);
        }
        for (a, b) in [(11, 12), (12, 13), (21, 22)] {
            edb.add_fact("flat", &[Const::Int(a), Const::Int(b)]);
        }
        for (a, b) in [(12, 2), (13, 3), (22, 2)] {
            edb.add_fact("down", &[Const::Int(a), Const::Int(b)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let transformed = evaluate_default(&magicp.program, &edb).unwrap();
        assert_eq!(
            original.answers(&query),
            transformed.answers(&adorned.query)
        );
    }

    #[test]
    fn magic_names_avoid_collisions() {
        let (magic, _) = magic_of(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nm_t_bf(A) :- e(A, A).",
            "t(5, Y)",
        );
        // The generated magic predicate must not collide with the user's m_t_bf.
        assert!(magic.seed.predicate.as_str().starts_with("m_t_bf_"));
    }
}
