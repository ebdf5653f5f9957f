//! The reference evaluator: the least model of a program computed the obviously
//! right way, so that everything faster can be checked against it.
//!
//! It is a naive fixpoint. Every round fires every rule over the whole model by
//! nested loops over substitutions, and the rounds stop when one derives nothing new.
//! The model is a `BTreeMap` of `BTreeSet`s of tuples. The EDB's rows are read once
//! through [`Database::iter`]; nothing else is shared with the compiled pipeline (its
//! rule plans, relation indexes and join loops), so a bug there cannot hide on both
//! sides of a comparison. There are no builtins (`succ` is an ordinary predicate) and
//! no options: pure Datalog over a finite EDB reaches its fixpoint.
//!
//! Its callers are every harness whose expected side is "from-scratch evaluation"
//! and the §5 uniform-equivalence pass, which asks whether a frozen rule head is
//! derivable from a frozen body.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Atom, Const, Program, Query, Term};
use crate::storage::Database;
use crate::symbol::Symbol;

use super::EvalError;

/// The values given to a rule's variables, in the order they were bound.
type Bindings = Vec<(Symbol, Const)>;

/// A least model computed by [`naive_evaluate`]: every fact, by predicate. Only
/// predicates with at least one fact have an entry, so two models are equal exactly
/// when they hold the same facts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReferenceModel {
    relations: BTreeMap<Symbol, BTreeSet<Vec<Const>>>,
}

/// The least model of `program` over `edb`, by naive iteration.
pub fn naive_evaluate(program: &Program, edb: &Database) -> Result<ReferenceModel, EvalError> {
    crate::validate::check_program(program).map_err(EvalError::Invalid)?;
    let mut model = ReferenceModel::from(edb);
    loop {
        let mut derived: BTreeSet<(Symbol, Vec<Const>)> = BTreeSet::new();
        let mut head = Vec::new();
        for rule in &program.rules {
            model.match_body(&rule.body, &mut Vec::new(), &mut |bindings| {
                head.clear();
                head.extend(
                    rule.head
                        .terms
                        .iter()
                        .map(|term| value(term, bindings).expect("a safe rule binds its head")),
                );
                if !model.holds(rule.head.predicate, &head) {
                    derived.insert((rule.head.predicate, head.clone()));
                }
            });
        }
        if derived.is_empty() {
            return Ok(model);
        }
        for (predicate, tuple) in derived {
            model.relations.entry(predicate).or_default().insert(tuple);
        }
    }
}

impl ReferenceModel {
    /// The answers to `query`: for every fact the query atom unifies with, the values
    /// of the query's variables in order of first occurrence; sorted, without repeats.
    pub fn answers(&self, query: &Query) -> Vec<Vec<Const>> {
        let mut answers = BTreeSet::new();
        for row in self
            .relations
            .get(&query.atom.predicate)
            .into_iter()
            .flatten()
        {
            let mut bindings = Bindings::new();
            if unify(&query.atom.terms, row, &mut bindings) {
                answers.insert(bindings.into_iter().map(|(_, value)| value).collect());
            }
        }
        answers.into_iter().collect()
    }

    fn holds(&self, predicate: Symbol, tuple: &[Const]) -> bool {
        self.relations
            .get(&predicate)
            .is_some_and(|rows| rows.contains(tuple))
    }

    /// Call `emit` with every extension of `bindings` that makes each atom of `body` a
    /// fact of the model, trying the atoms left to right.
    fn match_body(&self, body: &[Atom], bindings: &mut Bindings, emit: &mut dyn FnMut(&Bindings)) {
        let Some((atom, rest)) = body.split_first() else {
            return emit(bindings);
        };
        let Some(rows) = self.relations.get(&atom.predicate) else {
            return;
        };
        // Rows are sorted, so the ones agreeing with the atom's leading fixed
        // arguments form one run; scanning only that run keeps chains of joins
        // affordable without any index.
        let prefix: Vec<Const> = atom
            .terms
            .iter()
            .map_while(|t| value(t, bindings))
            .collect();
        for row in rows
            .range(prefix.clone()..)
            .take_while(|row| row.starts_with(&prefix))
        {
            let bound = bindings.len();
            if unify(&atom.terms, row, bindings) {
                self.match_body(rest, bindings, emit);
            }
            bindings.truncate(bound);
        }
    }
}

impl From<&Database> for ReferenceModel {
    /// The facts of `db`, in the reference's shape: the EDB of [`naive_evaluate`],
    /// or the result of another evaluator to compare with it.
    fn from(db: &Database) -> ReferenceModel {
        let mut model = ReferenceModel::default();
        for (predicate, relation) in db.iter() {
            for row in relation.iter() {
                model
                    .relations
                    .entry(predicate)
                    .or_default()
                    .insert(row.to_vec());
            }
        }
        model
    }
}

/// The value of `term` under `bindings`, if it has one.
fn value(term: &Term, bindings: &Bindings) -> Option<Const> {
    match *term {
        Term::Const(c) => Some(c),
        Term::Var(v) => bindings.iter().find(|&&(w, _)| w == v).map(|&(_, c)| c),
    }
}

/// Extend `bindings` so that `terms` equals `row`; `false` if no extension does (the
/// caller drops whatever was pushed).
fn unify(terms: &[Term], row: &[Const], bindings: &mut Bindings) -> bool {
    terms.len() == row.len()
        && terms
            .iter()
            .zip(row)
            .all(|(term, &field)| match value(term, bindings) {
                Some(known) => known == field,
                None => {
                    bindings.push((term.as_var().expect("only variables are unbound"), field));
                    true
                }
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    fn chain_edb(n: i64) -> Database {
        let mut db = Database::new();
        for i in 0..n {
            db.add_fact("e", &[c(i), c(i + 1)]);
        }
        db
    }

    #[test]
    fn computes_transitive_closure_of_a_chain() {
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program;
        let model = naive_evaluate(&program, &chain_edb(5)).unwrap();
        // A chain of 5 edges has 5+4+3+2+1 = 15 transitive-closure pairs.
        assert_eq!(model.answers(&parse_query("t(X, Y)").unwrap()).len(), 15);
        let q = parse_query("t(0, Y)").unwrap();
        assert_eq!(
            model.answers(&q),
            (1..=5).map(|i| vec![c(i)]).collect::<Vec<_>>()
        );
        // A repeated variable is one answer column that both positions agree on.
        assert!(model.answers(&parse_query("t(X, X)").unwrap()).is_empty());
        assert_eq!(
            model.answers(&parse_query("t(0, 5)").unwrap()),
            vec![vec![]]
        );
    }

    #[test]
    fn facts_in_program_are_materialized() {
        let program = parse_program("m(5).\nm(W) :- m(X), e(X, W).")
            .unwrap()
            .program;
        let mut edb = Database::new();
        edb.add_fact("e", &[c(5), c(6)]);
        edb.add_fact("e", &[c(6), c(7)]);
        edb.add_fact("e", &[c(9), c(10)]);
        let model = naive_evaluate(&program, &edb).unwrap();
        assert_eq!(
            model.answers(&parse_query("m(X)").unwrap()),
            vec![vec![c(5)], vec![c(6)], vec![c(7)]]
        );
    }

    #[test]
    fn unsafe_program_is_rejected() {
        let program = parse_program("p(X, Y) :- e(X).").unwrap().program;
        let err = naive_evaluate(&program, &Database::new()).unwrap_err();
        assert!(matches!(err, EvalError::Invalid(_)));
    }

    #[test]
    fn empty_program_returns_edb() {
        let edb = chain_edb(3);
        let model = naive_evaluate(&Program::new(), &edb).unwrap();
        assert_eq!(model, ReferenceModel::from(&edb));
        assert_eq!(model.answers(&parse_query("e(X, Y)").unwrap()).len(), 3);
    }
}
