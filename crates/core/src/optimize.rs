//! Post-factoring optimizations (§5 of the paper).
//!
//! The factoring transformation alone (Fig. 2) still carries redundant literals and
//! rules; the paper's Propositions 5.1–5.5 plus deletion under uniform equivalence
//! reduce it to the small program actually evaluated (Example 5.3 ends with a unary
//! three-rule program for the transitive-closure query). This module implements those
//! simplifications as passes run to a fixpoint:
//!
//! 1. delete a rule whose head literal appears in its body, and duplicate rules
//!    (Proposition 5.4, first part);
//! 2. delete a `magic` literal when a `bp` literal with identical arguments is present
//!    (Proposition 5.1);
//! 3. delete a `bp` literal whose arguments occur nowhere else when an `fp` literal is
//!    present, and symmetrically (Proposition 5.2, with Proposition 5.5's anonymous
//!    variables detected implicitly);
//! 4. delete a `bp(c̄)` literal carrying exactly the query constants when an `fp`
//!    literal is present (Proposition 5.3);
//! 5. delete rules not reachable from the query predicate (Proposition 5.4, second
//!    part);
//! 6. delete rules that are redundant under uniform equivalence [Sagiv 1988]: a rule
//!    is redundant iff its frozen head is derivable from the remaining program plus its
//!    frozen body, which we decide with the reference evaluator
//!    ([`naive_evaluate`]: pure Datalog, `succ` an ordinary predicate).

use std::collections::BTreeSet;

use factorlog_datalog::ast::{Atom, Const, Program, Query, Rule, Substitution, Term};
use factorlog_datalog::eval::naive_evaluate;
use factorlog_datalog::graph::DependencyGraph;
use factorlog_datalog::storage::Database;
use factorlog_datalog::symbol::Symbol;

use crate::factor::FactoredProgram;

/// Information about the bp/fp/magic predicates of a factored Magic program, needed by
/// the factoring-specific literal deletions (Propositions 5.1–5.3).
#[derive(Clone, Debug)]
pub struct FactoringContext {
    /// The magic predicate of the factored predicate.
    pub magic_predicate: Option<Symbol>,
    /// The bound-projection predicate `bp`.
    pub bound_predicate: Symbol,
    /// The free-projection predicate `fp`.
    pub free_predicate: Symbol,
    /// The constants bound by the original query (the seed tuple).
    pub query_constants: Vec<Const>,
}

impl FactoringContext {
    /// Build the context from a factored program.
    pub fn from_factored(factored: &FactoredProgram) -> FactoringContext {
        let query_constants = factored
            .bound_positions
            .iter()
            .filter_map(|&i| factored.adorned_query.atom.terms[i].as_const())
            .collect();
        FactoringContext {
            magic_predicate: factored.magic_predicate,
            bound_predicate: factored.bound_predicate,
            free_predicate: factored.free_predicate,
            query_constants,
        }
    }
}

/// Options controlling the optimizer.
#[derive(Clone, Debug)]
pub struct OptimizeOptions {
    /// Apply deletion under uniform equivalence (pass 6). On by default; it is the
    /// most expensive pass (one small fixpoint evaluation per candidate rule).
    pub uniform_redundancy: bool,
    /// Maximum number of whole-pipeline fixpoint iterations.
    pub max_passes: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            uniform_redundancy: true,
            max_passes: 10,
        }
    }
}

/// A record of the simplification steps applied, for reports and debugging.
#[derive(Clone, Debug, Default)]
pub struct OptimizationTrace {
    /// Human-readable descriptions, in application order.
    pub steps: Vec<String>,
}

impl OptimizationTrace {
    fn record(&mut self, step: String) {
        self.steps.push(step);
    }
}

/// Run the §5 simplifications on `program` with respect to `query`. `ctx` enables the
/// factoring-specific literal deletions; without it only the generic rule deletions
/// (head-in-body, duplicates, unreachable, uniform redundancy) run.
pub fn optimize(
    program: &Program,
    query: &Query,
    ctx: Option<&FactoringContext>,
    options: &OptimizeOptions,
) -> (Program, OptimizationTrace) {
    let mut current = program.clone();
    let mut trace = OptimizationTrace::default();
    for _ in 0..options.max_passes {
        let mut changed = false;
        changed |= delete_head_in_body(&mut current, &mut trace);
        changed |= delete_duplicate_rules(&mut current, &mut trace);
        if let Some(ctx) = ctx {
            changed |= delete_redundant_literals(&mut current, ctx, &mut trace);
        }
        changed |= delete_unreachable(&mut current, query, &mut trace);
        if options.uniform_redundancy {
            changed |= delete_uniformly_redundant(&mut current, &mut trace);
        }
        if !changed {
            break;
        }
    }
    (current, trace)
}

/// Proposition 5.4 (first part): a rule whose head literal also appears in its body can
/// never derive a new fact.
fn delete_head_in_body(program: &mut Program, trace: &mut OptimizationTrace) -> bool {
    let before = program.len();
    let kept: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| {
            let delete = r.body.contains(&r.head);
            if delete {
                trace.record(format!("deleted rule with head in body: {r}"));
            }
            !delete
        })
        .cloned()
        .collect();
    program.rules = kept;
    program.len() != before
}

/// Remove rules that are syntactically identical up to variable renaming.
fn delete_duplicate_rules(program: &mut Program, trace: &mut OptimizationTrace) -> bool {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let before = program.len();
    let kept: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| {
            let key = canonical_rule_key(r);
            let fresh = seen.insert(key);
            if !fresh {
                trace.record(format!("deleted duplicate rule: {r}"));
            }
            fresh
        })
        .cloned()
        .collect();
    program.rules = kept;
    program.len() != before
}

/// A canonical textual form of a rule with variables renamed by first occurrence, so
/// alpha-equivalent rules compare equal.
fn canonical_rule_key(rule: &Rule) -> String {
    let mut subst = Substitution::new();
    for (i, v) in rule.variable_set().into_iter().enumerate() {
        subst.insert_term(v, Term::Var(Symbol::intern(&format!("_cv{i}"))));
    }
    rule.apply(&subst).to_string()
}

/// Propositions 5.1–5.3: literal deletions specific to factored Magic programs.
fn delete_redundant_literals(
    program: &mut Program,
    ctx: &FactoringContext,
    trace: &mut OptimizationTrace,
) -> bool {
    let mut changed = false;
    let query_tuple: Vec<Term> = ctx
        .query_constants
        .iter()
        .map(|&c| Term::Const(c))
        .collect();
    for rule in &mut program.rules {
        loop {
            let mut delete_index: Option<(usize, &'static str)> = None;

            // Proposition 5.1: magic literal with the same arguments as a bp literal.
            if let Some(magic) = ctx.magic_predicate {
                'outer: for (i, lit) in rule.body.iter().enumerate() {
                    if lit.predicate != magic {
                        continue;
                    }
                    for other in &rule.body {
                        if other.predicate == ctx.bound_predicate && other.terms == lit.terms {
                            delete_index = Some((i, "Proposition 5.1"));
                            break 'outer;
                        }
                    }
                }
            }

            // Proposition 5.2 / 5.3: bp literal deletable when an fp literal is present
            // (and vice versa for fp-only-variable literals).
            if delete_index.is_none() {
                let has_fp = rule.body.iter().any(|a| a.predicate == ctx.free_predicate);
                let has_bp = rule.body.iter().any(|a| a.predicate == ctx.bound_predicate);
                let occurrences = rule.variable_occurrences();
                for (i, lit) in rule.body.iter().enumerate() {
                    let all_anonymous = lit.terms.iter().all(
                        |t| matches!(t, Term::Var(v) if occurrences.get(v).copied() == Some(1)),
                    );
                    if lit.predicate == ctx.bound_predicate && has_fp {
                        if all_anonymous {
                            delete_index = Some((i, "Proposition 5.2"));
                            break;
                        }
                        if !query_tuple.is_empty() && lit.terms == query_tuple {
                            delete_index = Some((i, "Proposition 5.3"));
                            break;
                        }
                    }
                    if lit.predicate == ctx.free_predicate && has_bp && all_anonymous {
                        delete_index = Some((i, "Proposition 5.2 (free side)"));
                        break;
                    }
                }
            }

            match delete_index {
                Some((i, reason)) => {
                    let removed = rule.body.remove(i);
                    trace.record(format!("{reason}: deleted literal {removed} from {rule}"));
                    changed = true;
                }
                None => break,
            }
        }
    }
    changed
}

/// Proposition 5.4 (second part): delete rules for predicates not reachable from the
/// query predicate.
fn delete_unreachable(program: &mut Program, query: &Query, trace: &mut OptimizationTrace) -> bool {
    if program.is_empty() {
        return false;
    }
    if !program.all_predicates().contains(&query.atom.predicate) {
        // The query predicate has no rules at all (e.g. an EDB query); reachability
        // would delete everything, so skip the pass.
        return false;
    }
    let graph = DependencyGraph::new(program);
    let reachable = graph.reachable_from(query.atom.predicate);
    let before = program.len();
    let kept: Vec<Rule> = program
        .rules
        .iter()
        .filter(|r| {
            let keep = reachable.contains(&r.head.predicate);
            if !keep {
                trace.record(format!("deleted unreachable rule: {r}"));
            }
            keep
        })
        .cloned()
        .collect();
    program.rules = kept;
    program.len() != before
}

/// Freeze a rule: map each variable to a distinct symbolic constant.
fn freeze(rule: &Rule) -> (Atom, Vec<Atom>) {
    let mut subst = Substitution::new();
    for v in rule.variable_set() {
        subst.insert(
            v,
            Const::Sym(Symbol::intern(&format!("$frozen_{}", v.as_str()))),
        );
    }
    (
        rule.head.apply(&subst),
        rule.body.iter().map(|a| a.apply(&subst)).collect(),
    )
}

/// Is `rule` redundant in `program` under uniform equivalence? (`program` must not
/// contain `rule`.) Decided by evaluating `program` over the frozen body of `rule` and
/// checking that the frozen head is derived.
pub fn is_uniformly_redundant(program: &Program, rule: &Rule) -> bool {
    let (frozen_head, frozen_body) = freeze(rule);
    let edb = Database::from_facts(frozen_body);
    naive_evaluate(program, &edb)
        .is_ok_and(|model| !model.answers(&Query::new(frozen_head)).is_empty())
}

/// Pass 6: delete rules redundant under uniform equivalence, scanning in program order.
fn delete_uniformly_redundant(program: &mut Program, trace: &mut OptimizationTrace) -> bool {
    let mut changed = false;
    let mut index = 0;
    while index < program.rules.len() {
        let candidate = program.rules[index].clone();
        if candidate.is_fact() {
            index += 1;
            continue;
        }
        let mut rest = program.clone();
        rest.rules.remove(index);
        if is_uniformly_redundant(&rest, &candidate) {
            trace.record(format!("deleted uniformly redundant rule: {candidate}"));
            program.rules.remove(index);
            changed = true;
        } else {
            index += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::factor::factor_magic;
    use crate::magic::magic;
    use factorlog_datalog::eval::evaluate_default;
    use factorlog_datalog::parser::{parse_program, parse_query, parse_rule};

    const THREE_RULE_TC: &str = "t(X, Y) :- t(X, W), t(W, Y).\n\
                                 t(X, Y) :- e(X, W), t(W, Y).\n\
                                 t(X, Y) :- t(X, W), e(W, Y).\n\
                                 t(X, Y) :- e(X, Y).";

    #[test]
    fn reproduces_the_final_unary_program_of_example_5_3() {
        // Magic (Fig. 1) -> factoring (Fig. 2) -> §5 optimizations must yield the
        // paper's final program:
        //   m_tbf(W) :- ft(W).     m_tbf(5).     ft(Y) :- m_tbf(X), e(X, Y).
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let factored = factor_magic(&adorned, &magicp).unwrap();
        let ctx = FactoringContext::from_factored(&factored);
        let (optimized, trace) = optimize(
            &factored.program,
            &factored.query,
            Some(&ctx),
            &OptimizeOptions::default(),
        );
        let text = format!("{optimized}");
        assert_eq!(optimized.len(), 3, "final program has three rules:\n{text}");
        assert!(text.contains("m_t_bf(5)."));
        assert!(text.contains("m_t_bf(W) :- f_t_bf(W)."));
        assert!(text.contains("f_t_bf(Y) :- m_t_bf(X), e(X, Y)."));
        // The bound projection disappears entirely.
        assert!(!text.contains("b_t_bf"));
        // The trace records the propositions used.
        let steps = trace.steps.join("\n");
        assert!(steps.contains("Proposition 5.1"));
        assert!(steps.contains("Proposition 5.2"));
        assert!(steps.contains("unreachable"));
        assert!(steps.contains("uniformly redundant"));
    }

    #[test]
    fn optimized_program_still_computes_the_answers() {
        let program = parse_program(THREE_RULE_TC).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let factored = factor_magic(&adorned, &magicp).unwrap();
        let ctx = FactoringContext::from_factored(&factored);
        let (optimized, _) = optimize(
            &factored.program,
            &factored.query,
            Some(&ctx),
            &OptimizeOptions::default(),
        );
        let mut edb = factorlog_datalog::storage::Database::new();
        for (a, b) in [(5, 6), (6, 7), (7, 5), (3, 4)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let original = naive_evaluate(&program, &edb).unwrap();
        let opt = evaluate_default(&optimized, &edb).unwrap();
        assert_eq!(original.answers(&query), opt.answers(&factored.query));
    }

    #[test]
    fn head_in_body_rules_are_deleted() {
        let mut p = parse_program("p(X) :- p(X), q(X).\np(X) :- q(X).")
            .unwrap()
            .program;
        let mut trace = OptimizationTrace::default();
        assert!(delete_head_in_body(&mut p, &mut trace));
        assert_eq!(p.len(), 1);
        assert!(!delete_head_in_body(&mut p, &mut trace));
    }

    #[test]
    fn duplicate_rules_are_deleted_up_to_renaming() {
        let mut p = parse_program("p(X) :- q(X, Y).\np(A) :- q(A, B).\np(X) :- q(X, X).")
            .unwrap()
            .program;
        let mut trace = OptimizationTrace::default();
        assert!(delete_duplicate_rules(&mut p, &mut trace));
        assert_eq!(
            p.len(),
            2,
            "the alpha-variant is removed, the different rule stays"
        );
    }

    #[test]
    fn unreachable_rules_are_deleted() {
        let mut p =
            parse_program("answer(Y) :- helper(Y).\nhelper(Y) :- e(5, Y).\norphan(Z) :- f(Z).")
                .unwrap()
                .program;
        let query = parse_query("answer(Y)").unwrap();
        let mut trace = OptimizationTrace::default();
        assert!(delete_unreachable(&mut p, &query, &mut trace));
        assert_eq!(p.len(), 2);
        assert!(!format!("{p}").contains("orphan"));
    }

    #[test]
    fn unreachable_pass_skips_edb_queries() {
        let mut p = parse_program("p(X) :- q(X).").unwrap().program;
        let query = parse_query("nonexistent(X)").unwrap();
        let mut trace = OptimizationTrace::default();
        assert!(!delete_unreachable(&mut p, &query, &mut trace));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn uniform_redundancy_detects_transitive_shortcut() {
        // path(X, Z) :- e(X, Y), e(Y, Z) is implied by path(X,Y) :- e(X,Y) plus
        // path(X, Z) :- path(X, Y), e(Y, Z).
        let program = parse_program("path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).")
            .unwrap()
            .program;
        let shortcut = parse_rule("path(X, Z) :- e(X, Y), e(Y, Z).").unwrap();
        assert!(is_uniformly_redundant(&program, &shortcut));
        let not_implied = parse_rule("path(X, Z) :- f(X, Z).").unwrap();
        assert!(!is_uniformly_redundant(&program, &not_implied));
    }

    #[test]
    fn optimizing_without_context_keeps_semantics() {
        // Generic optimization of a plain program: only head-in-body, duplicates,
        // unreachable and uniform redundancy apply.
        let program = parse_program(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- t(X, Y).\n\
             t(X, Z) :- e(X, Y), e(Y, Z).\n\
             t(X, Z) :- t(X, Y), e(Y, Z).",
        )
        .unwrap()
        .program;
        let query = parse_query("t(1, Y)").unwrap();
        let (optimized, _) = optimize(&program, &query, None, &OptimizeOptions::default());
        assert_eq!(optimized.len(), 2, "{optimized}");
        let mut edb = factorlog_datalog::storage::Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let a = naive_evaluate(&program, &edb).unwrap();
        let b = evaluate_default(&optimized, &edb).unwrap();
        assert_eq!(a.answers(&query), b.answers(&query));
    }

    #[test]
    fn uniform_redundancy_can_be_disabled() {
        let program = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), e(Y, Z).\nt(X, Z) :- t(X, Y), e(Y, Z).",
        )
        .unwrap()
        .program;
        let query = parse_query("t(1, Y)").unwrap();
        let options = OptimizeOptions {
            uniform_redundancy: false,
            ..OptimizeOptions::default()
        };
        let (optimized, _) = optimize(&program, &query, None, &options);
        assert_eq!(optimized.len(), 3, "nothing should be deleted");
    }
}
