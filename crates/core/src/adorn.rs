//! Adornment: annotate IDB predicates with binding patterns (`b`/`f` per argument)
//! propagated from the query by the left-to-right sideways-information-passing strategy
//! the paper assumes (§2.1, §4.1).
//!
//! `t(5, Y)` produces the adorned predicate `t_bf`; a rule body is processed left to
//! right, a variable being *bound* if it is a query/head constant binding or appears in
//! an earlier body literal. Only adornments reachable from the query are generated.
//! The factoring analysis additionally requires a *single* reachable adornment for the
//! recursive predicate (a *unit program*); that check lives in [`mod@crate::classify`].

use std::collections::BTreeSet;

use factorlog_datalog::ast::{Atom, Program, Query, Rule, Term};
use factorlog_datalog::fx::FxHashMap;
use factorlog_datalog::symbol::Symbol;
use factorlog_datalog::validate;

use crate::error::{TransformError, TransformResult};

/// Metadata about one adorned predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdornmentInfo {
    /// The original predicate.
    pub original: Symbol,
    /// The adornment string: one `b` or `f` per argument position.
    pub adornment: String,
}

impl AdornmentInfo {
    /// Positions marked bound.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.adornment
            .chars()
            .enumerate()
            .filter_map(|(i, c)| (c == 'b').then_some(i))
            .collect()
    }

    /// Positions marked free.
    pub fn free_positions(&self) -> Vec<usize> {
        self.adornment
            .chars()
            .enumerate()
            .filter_map(|(i, c)| (c == 'f').then_some(i))
            .collect()
    }
}

/// The result of adorning a program with respect to a query.
#[derive(Clone, Debug)]
pub struct AdornedProgram {
    /// Rules with IDB predicates renamed to their adorned versions.
    pub program: Program,
    /// The query, rewritten onto the adorned query predicate.
    pub query: Query,
    /// The original query.
    pub original_query: Query,
    /// Every predicate of the original program (used by later transformations to avoid
    /// name collisions when minting new predicates).
    pub original_predicates: BTreeSet<Symbol>,
    info: FxHashMap<Symbol, AdornmentInfo>,
    by_original: FxHashMap<(Symbol, String), Symbol>,
}

impl AdornedProgram {
    /// Adornment metadata for an adorned predicate, if `predicate` is one.
    pub fn info(&self, predicate: Symbol) -> Option<&AdornmentInfo> {
        self.info.get(&predicate)
    }

    /// Is `predicate` an adorned IDB predicate?
    pub fn is_adorned(&self, predicate: Symbol) -> bool {
        self.info.contains_key(&predicate)
    }

    /// The adorned symbol for `(original, adornment)`, if that adornment was reachable.
    pub fn adorned_symbol(&self, original: Symbol, adornment: &str) -> Option<Symbol> {
        self.by_original
            .get(&(original, adornment.to_string()))
            .copied()
    }

    /// All adorned predicates, sorted by name for determinism.
    pub fn adorned_predicates(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.info.keys().copied().collect();
        v.sort_by_key(|s| s.as_str());
        v
    }

    /// The adorned versions of `original` that are reachable from the query.
    pub fn adornments_of(&self, original: Symbol) -> Vec<&AdornmentInfo> {
        let mut v: Vec<&AdornmentInfo> = self
            .info
            .values()
            .filter(|i| i.original == original)
            .collect();
        v.sort_by(|a, b| a.adornment.cmp(&b.adornment));
        v
    }
}

/// Compute the adornment of a literal given the set of currently bound variables.
fn literal_adornment(atom: &Atom, bound: &BTreeSet<Symbol>) -> String {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(_) => 'b',
            Term::Var(v) => {
                if bound.contains(v) {
                    'b'
                } else {
                    'f'
                }
            }
        })
        .collect()
}

/// Adorn `program` with respect to `query`.
///
/// The query predicate must be used with a consistent arity; if the query predicate is
/// an EDB predicate (has no rules) the result contains an empty program and the query
/// unchanged.
pub fn adorn(program: &Program, query: &Query) -> TransformResult<AdornedProgram> {
    validate::check_program(program).map_err(TransformError::Invalid)?;
    if let Some(arity) = program.arity_of(query.atom.predicate) {
        if arity != query.atom.arity() {
            return Err(TransformError::QueryArityMismatch {
                predicate: query.atom.predicate.as_str().to_string(),
                program_arity: arity,
                query_arity: query.atom.arity(),
            });
        }
    } else {
        return Err(TransformError::UnknownQueryPredicate {
            predicate: query.atom.predicate.as_str().to_string(),
        });
    }

    let idb: BTreeSet<Symbol> = program.idb_predicates();
    let existing_names: BTreeSet<&'static str> = program
        .all_predicates()
        .into_iter()
        .map(|p| p.as_str())
        .collect();

    let mut out = AdornedProgram {
        program: Program::new(),
        query: query.clone(),
        original_query: query.clone(),
        original_predicates: program.all_predicates(),
        info: FxHashMap::default(),
        by_original: FxHashMap::default(),
    };

    if !idb.contains(&query.atom.predicate) {
        // Query on an EDB predicate: nothing to adorn.
        return Ok(out);
    }

    // Mint the adorned name for (predicate, adornment), avoiding collisions with
    // existing predicate names.
    let mint = |original: Symbol, adornment: &str, out: &mut AdornedProgram| -> Symbol {
        if let Some(&sym) = out.by_original.get(&(original, adornment.to_string())) {
            return sym;
        }
        let mut name = format!("{}_{}", original.as_str(), adornment);
        while existing_names.contains(name.as_str()) {
            name.push('_');
        }
        let sym = Symbol::intern(&name);
        out.info.insert(
            sym,
            AdornmentInfo {
                original,
                adornment: adornment.to_string(),
            },
        );
        out.by_original
            .insert((original, adornment.to_string()), sym);
        sym
    };

    let query_adornment = query.adornment();
    let query_sym = mint(query.atom.predicate, &query_adornment, &mut out);
    out.query = Query::new(query.atom.with_predicate(query_sym));

    // Worklist of adorned predicates whose rules still need to be generated.
    let mut worklist: Vec<Symbol> = vec![query_sym];
    let mut processed: BTreeSet<Symbol> = BTreeSet::new();

    while let Some(adorned_sym) = worklist.pop() {
        if !processed.insert(adorned_sym) {
            continue;
        }
        let info = out.info[&adorned_sym].clone();
        for rule in program.rules_for(info.original) {
            // Bound variables: head variables in bound positions.
            let mut bound: BTreeSet<Symbol> = BTreeSet::new();
            for &pos in &info.bound_positions() {
                if let Term::Var(v) = rule.head.terms[pos] {
                    bound.insert(v);
                }
            }
            let mut new_body = Vec::with_capacity(rule.body.len());
            for literal in &rule.body {
                if idb.contains(&literal.predicate) {
                    let adornment = literal_adornment(literal, &bound);
                    let body_sym = mint(literal.predicate, &adornment, &mut out);
                    if !processed.contains(&body_sym) {
                        worklist.push(body_sym);
                    }
                    new_body.push(literal.with_predicate(body_sym));
                } else {
                    new_body.push(literal.clone());
                }
                // After evaluating the literal, all its variables are bound.
                for v in literal.variables() {
                    bound.insert(v);
                }
            }
            out.program
                .push(Rule::new(rule.head.with_predicate(adorned_sym), new_body));
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_datalog::parser::{parse_program, parse_query};

    fn adorned(src: &str, query: &str) -> AdornedProgram {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        adorn(&program, &query).unwrap()
    }

    #[test]
    fn adorns_linear_transitive_closure() {
        let out = adorned(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
            "t(5, Y)",
        );
        assert_eq!(out.query.atom.predicate.as_str(), "t_bf");
        assert_eq!(out.program.len(), 2);
        assert_eq!(
            format!("{}", out.program.rules[1]),
            "t_bf(X, Y) :- e(X, W), t_bf(W, Y)."
        );
        let info = out.info(Symbol::intern("t_bf")).unwrap();
        assert_eq!(info.adornment, "bf");
        assert_eq!(info.bound_positions(), vec![0]);
        assert_eq!(info.free_positions(), vec![1]);
        assert_eq!(info.original, Symbol::intern("t"));
    }

    #[test]
    fn adorns_the_three_rule_transitive_closure_with_one_adornment() {
        // Example 1.1 / 4.2: all three recursive occurrences get the bf adornment
        // because the bound argument propagates left to right.
        let out = adorned(
            "t(X, Y) :- t(X, W), t(W, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, Y) :- t(X, W), e(W, Y).\n\
             t(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        let t = Symbol::intern("t");
        assert_eq!(out.adornments_of(t).len(), 1, "single reachable adornment");
        assert_eq!(out.adornments_of(t)[0].adornment, "bf");
        assert_eq!(out.program.len(), 4);
        assert_eq!(
            format!("{}", out.program.rules[0]),
            "t_bf(X, Y) :- t_bf(X, W), t_bf(W, Y)."
        );
    }

    #[test]
    fn free_query_gives_ff_adornment() {
        let out = adorned(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
            "t(X, Y)",
        );
        assert_eq!(out.query.atom.predicate.as_str(), "t_ff");
        let info = out.info(Symbol::intern("t_ff")).unwrap();
        assert_eq!(info.bound_positions(), Vec::<usize>::new());
    }

    #[test]
    fn same_generation_gets_bf_for_subqueries() {
        let out = adorned(
            "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
            "sg(1, Y)",
        );
        // The inner sg call sees U bound (from up/2) and V free.
        assert_eq!(out.adorned_predicates().len(), 1);
        assert_eq!(
            format!("{}", out.program.rules[1]),
            "sg_bf(X, Y) :- up(X, U), sg_bf(U, V), down(V, Y)."
        );
    }

    #[test]
    fn multiple_adornments_when_bindings_differ() {
        // p's second rule calls p with both arguments free because nothing binds Z
        // before the call.
        let out = adorned(
            "p(X, Y) :- e(X, Y).\np(X, Y) :- p(Z, W), f(Z, X), g(W, Y).",
            "p(5, Y)",
        );
        let p = Symbol::intern("p");
        let adornments: Vec<String> = out
            .adornments_of(p)
            .iter()
            .map(|i| i.adornment.clone())
            .collect();
        assert_eq!(adornments, vec!["bf".to_string(), "ff".to_string()]);
        // Both adorned predicates have rules.
        assert_eq!(out.program.len(), 4);
    }

    #[test]
    fn constants_in_body_literals_are_bound() {
        let out = adorned("p(X) :- q(3, X).\nq(A, B) :- r(A, B).", "p(Y)");
        // q is called with its first argument a constant: adornment bf.
        assert!(out.adorned_symbol(Symbol::intern("q"), "bf").is_some());
    }

    #[test]
    fn unknown_query_predicate_is_an_error() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let query = parse_query("zzz(5, Y)").unwrap();
        assert!(matches!(
            adorn(&program, &query),
            Err(TransformError::UnknownQueryPredicate { .. })
        ));
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let query = parse_query("t(5)").unwrap();
        assert!(matches!(
            adorn(&program, &query),
            Err(TransformError::QueryArityMismatch { .. })
        ));
    }

    #[test]
    fn query_on_edb_predicate_yields_empty_program() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let query = parse_query("e(1, Y)").unwrap();
        let out = adorn(&program, &query).unwrap();
        assert!(out.program.is_empty());
        assert_eq!(out.query, query);
    }

    #[test]
    fn adorned_name_collisions_are_avoided() {
        // A user predicate literally named `t_bf` already exists; the adorned name
        // must not collide with it.
        let out = adorned(
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).\nt_bf(A) :- e(A, A).",
            "t(5, Y)",
        );
        assert_eq!(out.query.atom.predicate.as_str(), "t_bf_");
    }

    #[test]
    fn head_constants_in_free_positions_are_not_dropped() {
        // Regression test for the ROADMAP-flagged report that the adornment pass
        // silently drops rules whose head carries a constant in a free position.
        // Every rule must survive adornment verbatim (modulo predicate renaming),
        // whether the head constant falls in a free or a bound position of the
        // reachable adornment.
        let out = adorned(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, 7) :- mark(X).\n\
             t(7, Y) :- source(Y).\n\
             t(3, 7).",
            "t(3, Y)",
        );
        assert_eq!(
            out.program.len(),
            5,
            "no rule may be dropped:\n{}",
            out.program
        );
        let text = format!("{}", out.program);
        // Constant in the free (second) position of the bf adornment.
        assert!(text.contains("t_bf(X, 7) :- mark(X)."), "{text}");
        // Constant in the bound (first) position.
        assert!(text.contains("t_bf(7, Y) :- source(Y)."), "{text}");
        // Ground program fact with constants in both positions.
        assert!(text.contains("t_bf(3, 7)."), "{text}");
    }

    #[test]
    fn head_constants_survive_under_free_bound_adornment() {
        // Same regression with the mirrored adornment (query binds the second
        // argument): the constant now sits in the free position of `fb`.
        let out = adorned(
            "t(X, Y) :- e(X, Y).\n\
             t(X, Y) :- t(X, W), e(W, Y).\n\
             t(7, Y) :- source(Y).",
            "t(X, 4)",
        );
        let text = format!("{}", out.program);
        // The body occurrence t(X, W) reaches the ff adornment as well, so every rule
        // appears once per reachable adornment (fb and ff) — and the constant-headed
        // rule must appear in both.
        assert_eq!(out.program.len(), 6, "{text}");
        assert!(text.contains("t_fb(7, Y) :- source(Y)."), "{text}");
        assert!(text.contains("t_ff(7, Y) :- source(Y)."), "{text}");
    }

    #[test]
    fn pmem_standard_form_program_adorns_fb() {
        // Example 4.6 in standard form: pmem(X, L) with the query binding L.
        let out = adorned(
            "pmem(X, L) :- list(X, T, L), p(X).\n\
             pmem(X, L) :- pmem(X, T), list(H, T, L).",
            "pmem(X, 100)",
        );
        assert_eq!(out.query.atom.predicate.as_str(), "pmem_fb");
        let info = out.info(Symbol::intern("pmem_fb")).unwrap();
        assert_eq!(info.adornment, "fb");
        // The recursive call pmem(X, T): X free, T free... T is not yet bound because
        // list(H, T, L) comes after it in the body, so the reachable adornment set
        // includes pmem_ff as well.
        let pmem = Symbol::intern("pmem");
        let adornments: Vec<String> = out
            .adornments_of(pmem)
            .iter()
            .map(|i| i.adornment.clone())
            .collect();
        assert!(adornments.contains(&"fb".to_string()));
    }
}
