//! Post-factoring optimizations (§5 of the paper).
//!
//! The factoring transformation alone (Fig. 2) still carries redundant literals and
//! rules; the paper's Propositions 5.1–5.5 plus deletion under uniform equivalence
//! reduce it to the small program actually evaluated (Example 5.3 ends with a unary
//! three-rule program for the transitive-closure query). This module implements those
//! simplifications as passes run to a fixpoint:
//!
//! 1. delete a rule whose head literal appears in its body, and duplicate rules
//!    (Proposition 5.4, first part); delete a literal repeated in one body (a
//!    conjunction is idempotent);
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
//!
//! Once the fixpoint is reached, one more pass runs:
//!
//! 7. hoist independent conjunctions into conditions. Split each body into connected
//!    components (two literals are connected when they share a variable). When a body
//!    has two or more, every component with a variable but no head variable becomes
//!    one fresh nullary atom `c` (named `cond_1`, `cond_2`, …), defined by the single
//!    rule `c :- <component>.`, and alpha-equivalent components share one `c`. Sound because `∃x̄ (A ∧ B)` equals
//!    `(∃x̄ A) ∧ B` when `x̄` does not occur in `B`: the component's variables occur
//!    nowhere else in the rule, so the rule fires for exactly the same head tuples
//!    when the component is replaced by the truth of its existential closure, which
//!    is what `c` holds. `c` has exactly one rule, so the least model restricted to
//!    the other predicates is unchanged. Factoring is what creates such components
//!    (it splits `p(X̄, Ȳ)` into `bp(X̄)` and `fp(Ȳ)`, which no longer share a
//!    variable), and semi-naive evaluation would otherwise enumerate their cross
//!    product with the rest of the body. Proposition 5.2/5.5 is the one-literal
//!    case: a `bp` literal whose variables occur nowhere else is such a component,
//!    and beside an `fp` literal the condition it states is already implied, so pass
//!    3 deletes it instead. Without factoring, a Magic program's bodies are as
//!    connected as the original rules' (the magic literal shares the bound
//!    variables), so on the paper's Magic-only programs this pass changes nothing.

use std::borrow::Borrow;
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

/// Cap on the whole-pipeline fixpoint iterations of [`optimize`]. Every pass only
/// deletes, so the passes reach their fixpoint long before it on the paper's programs.
pub const MAX_PASSES: usize = 10;

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

/// Run the §5 simplifications on `program` with respect to `query`: the six deleting
/// passes repeated until none changes the program (at most [`MAX_PASSES`] times), then
/// the hoisting of independent conjunctions once. `ctx` enables the
/// factoring-specific literal deletions; without it only the generic deletions
/// (head-in-body, repeated literals, duplicates, unreachable, uniform redundancy) and
/// the hoisting run.
pub fn optimize(
    program: &Program,
    query: &Query,
    ctx: Option<&FactoringContext>,
) -> (Program, OptimizationTrace) {
    let mut current = program.clone();
    let mut trace = OptimizationTrace::default();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        changed |= delete_head_in_body(&mut current, &mut trace);
        changed |= delete_repeated_literals(&mut current, &mut trace);
        changed |= delete_duplicate_rules(&mut current, &mut trace);
        if let Some(ctx) = ctx {
            changed |= delete_redundant_literals(&mut current, ctx, &mut trace);
        }
        changed |= delete_unreachable(&mut current, query, &mut trace);
        changed |= delete_uniformly_redundant(&mut current, &mut trace);
        if !changed {
            break;
        }
    }
    hoist_conditions(&mut current, &mut trace);
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

/// Keep only the first occurrence of a literal repeated in one body: `A ∧ A` is `A`.
fn delete_repeated_literals(program: &mut Program, trace: &mut OptimizationTrace) -> bool {
    let mut changed = false;
    for rule in &mut program.rules {
        let before = rule.body.len();
        for lit in std::mem::take(&mut rule.body) {
            if !rule.body.contains(&lit) {
                rule.body.push(lit);
            }
        }
        if rule.body.len() != before {
            trace.record(format!("deleted repeated literal(s): {rule}"));
            changed = true;
        }
    }
    changed
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

/// The connected components of `body` (two literals are connected when they share a
/// variable), each a list of literal indices in body order, ordered by first literal.
/// A literal without variables is a component of its own. Shared with `classify.rs`,
/// which partitions a rule's non-recursive literals the same way.
pub(crate) fn body_components<A: Borrow<Atom>>(body: &[A]) -> Vec<Vec<usize>> {
    let shares_a_variable = |i: usize, j: usize| {
        body[i]
            .borrow()
            .variables()
            .any(|v| body[j].borrow().variables().any(|w| w == v))
    };
    let mut components: Vec<Vec<usize>> = Vec::new();
    for i in 0..body.len() {
        let mut merged = vec![i];
        components.retain(|component| {
            let connected = component.iter().any(|&j| shares_a_variable(i, j));
            if connected {
                merged.extend_from_slice(component);
            }
            !connected
        });
        merged.sort_unstable();
        components.push(merged);
    }
    components.sort_unstable_by_key(|component| component[0]);
    components
}

/// Pass 7: in a body of two or more components, replace every component that has a
/// variable but no head variable by a nullary condition atom, at the position of the
/// component's first literal. The condition rules are appended after the program's
/// rules, in order of first use.
fn hoist_conditions(program: &mut Program, trace: &mut OptimizationTrace) -> bool {
    let taken = program.all_predicates();
    // (canonical form of the conjunction, the condition rule defining it)
    let mut conditions: Vec<(String, Rule)> = Vec::new();
    for rule in &mut program.rules {
        let components = body_components(&rule.body);
        if components.len() < 2 {
            continue;
        }
        let head_vars: Vec<Symbol> = rule.head.variables().collect();
        let mut body: Vec<Option<Atom>> = rule.body.iter().cloned().map(Some).collect();
        for component in components {
            let conjunction: Vec<Atom> = component.iter().map(|&i| rule.body[i].clone()).collect();
            let vars: Vec<Symbol> = conjunction.iter().flat_map(Atom::variables).collect();
            if vars.is_empty() || vars.iter().any(|v| head_vars.contains(v)) {
                continue;
            }
            let key =
                canonical_rule_key(&Rule::new(Atom::new("", Vec::new()), conjunction.clone()));
            let condition = match conditions.iter().find(|(known, _)| *known == key) {
                Some((_, defined)) => defined.head.predicate,
                None => {
                    let mut name = format!("cond_{}", conditions.len() + 1);
                    while taken.contains(&Symbol::intern(&name)) {
                        name.push('_');
                    }
                    let symbol = Symbol::intern(&name);
                    conditions.push((key, Rule::new(Atom::new(symbol, Vec::new()), conjunction)));
                    symbol
                }
            };
            for &i in &component {
                body[i] = None;
            }
            body[component[0]] = Some(Atom::new(condition, Vec::new()));
        }
        let hoisted: Vec<Atom> = body.into_iter().flatten().collect();
        if hoisted != rule.body {
            trace.record(format!("hoisted independent conjunction(s) from {rule}"));
            rule.body = hoisted;
        }
    }
    for (_, condition) in &conditions {
        trace.record(format!("added condition rule: {condition}"));
    }
    let changed = !conditions.is_empty();
    program
        .rules
        .extend(conditions.into_iter().map(|(_, condition)| condition));
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
        let (optimized, trace) = optimize(&factored.program, &factored.query, Some(&ctx));
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
        let (optimized, _) = optimize(&factored.program, &factored.query, Some(&ctx));
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
    fn repeated_body_literals_are_deleted() {
        let mut p = parse_program("m(W) :- b(X), f(U), b(X), f(V), c(U, V, W).")
            .unwrap()
            .program;
        let mut trace = OptimizationTrace::default();
        assert!(delete_repeated_literals(&mut p, &mut trace));
        assert_eq!(format!("{p}"), "m(W) :- b(X), f(U), f(V), c(U, V, W).\n");
        // Same predicate, different arguments: not a repetition.
        assert!(!delete_repeated_literals(&mut p, &mut trace));
    }

    #[test]
    fn hoisting_replaces_only_components_without_a_head_variable() {
        // (program, program after the hoisting pass)
        let cases = [
            // The component {c(Y)} touches the head and stays; {a(X), b(X)} shares X
            // only within itself and becomes a condition.
            (
                "h(Y) :- a(X), b(X), c(Y).",
                "h(Y) :- cond_1, c(Y).\ncond_1 :- a(X), b(X).\n",
            ),
            // A ground literal has no variable: it stays where it is.
            ("h(Y) :- a(7), c(Y).", "h(Y) :- a(7), c(Y).\n"),
            // A single component is never split, even with no head variable.
            ("h(7) :- a(X), b(X).", "h(7) :- a(X), b(X).\n"),
            ("h(Y) :- a(X), b(X, Y).", "h(Y) :- a(X), b(X, Y).\n"),
            // An already-nullary condition has no variable.
            ("h(Y) :- cond, c(Y).", "h(Y) :- cond, c(Y).\n"),
            // Alpha-equivalent components share one condition; several headless
            // components of one body each get their own.
            (
                "h(Y) :- a(X), b(X), c(Y).\nh(Y) :- a(Z), b(Z), d(Y), e(W).",
                "h(Y) :- cond_1, c(Y).\nh(Y) :- cond_1, d(Y), cond_2.\n\
                 cond_1 :- a(X), b(X).\ncond_2 :- e(W).\n",
            ),
        ];
        for (src, expected) in cases {
            let mut p = parse_program(src).unwrap().program;
            let before = format!("{p}");
            let mut trace = OptimizationTrace::default();
            let changed = hoist_conditions(&mut p, &mut trace);
            assert_eq!(format!("{p}"), expected, "for {src}");
            assert_eq!(changed, expected != before, "for {src}");
        }
    }

    #[test]
    fn condition_names_are_fresh_against_the_program() {
        let mut p = parse_program("h(Y) :- a(X), b(X), cond_1(Y).\ncond_1_(5).")
            .unwrap()
            .program;
        let mut trace = OptimizationTrace::default();
        assert!(hoist_conditions(&mut p, &mut trace));
        assert_eq!(
            format!("{p}"),
            "h(Y) :- cond_1__, cond_1(Y).\ncond_1_(5).\ncond_1__ :- a(X), b(X).\n"
        );
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
        let (optimized, _) = optimize(&program, &query, None);
        assert_eq!(optimized.len(), 2, "{optimized}");
        let mut edb = factorlog_datalog::storage::Database::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            edb.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        let a = naive_evaluate(&program, &edb).unwrap();
        let b = evaluate_default(&optimized, &edb).unwrap();
        assert_eq!(a.answers(&query), b.answers(&query));
    }
}
