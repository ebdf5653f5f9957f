//! The reference evaluator: the least model of a program computed the obviously
//! right way, so that everything faster can be checked against it.
//!
//! It is a naive fixpoint. Every round fires every rule over the whole model by
//! nested loops over substitutions, and the rounds stop when one derives nothing new.
//! The model maps each predicate to its sorted tuples in `BTreeMap`s. The EDB's rows
//! are read once through [`Database::iter`]; nothing else is shared with the compiled
//! pipeline (its rule plans, relation indexes and join loops), so a bug there cannot
//! hide on both sides of a comparison. There are no builtins (`succ` is an ordinary
//! predicate) and no options: pure Datalog over a finite EDB reaches its fixpoint.
//!
//! Each derived fact keeps its first justification, the rule and the bindings of the
//! instance that derived it, from which [`ReferenceModel::derivation`] rebuilds a
//! derivation tree (Definition 2.1). A round's derivations are collected first and
//! inserted after the round, so a justification uses only facts of earlier rounds:
//! the justifications are acyclic, and a fact first derived in round k gets a tree of
//! height at most k + 1 (exactly k + 1 when no program fact occurs in it).
//!
//! Its callers are every harness whose expected side is "from-scratch evaluation",
//! the derivation-tree checks of Theorems 4.1–4.3, and the §5 uniform-equivalence
//! pass, which asks whether a frozen rule head is derivable from a frozen body.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Atom, Const, Program, Query, Rule, Term};
use crate::derivation::DerivationTree;
use crate::storage::Database;
use crate::symbol::Symbol;

use super::EvalError;

/// The values given to a rule's variables, in the order they were bound.
type Bindings = Vec<(Symbol, Const)>;

/// Why a fact is in the model: `None` when the EDB supplies it, else the index of the
/// rule and the bindings of the first instance that derived it.
type Justification = Option<(usize, Bindings)>;

/// Facts with their justifications, by predicate.
type Facts = BTreeMap<Symbol, BTreeMap<Vec<Const>, Justification>>;

/// A least model computed by [`naive_evaluate`]: every fact, by predicate. Only
/// predicates with at least one fact have an entry, so two models are equal exactly
/// when they hold the same facts (however they were derived).
#[derive(Clone, Debug, Default)]
pub struct ReferenceModel {
    relations: Facts,
    /// The rules the justifications index into.
    rules: Vec<Rule>,
}

/// The least model of `program` over `edb`, by naive iteration.
pub fn naive_evaluate(program: &Program, edb: &Database) -> Result<ReferenceModel, EvalError> {
    crate::validate::check_program(program).map_err(EvalError::Invalid)?;
    let mut model = ReferenceModel::from(edb);
    model.rules = program.rules.clone();
    loop {
        let mut derived = Facts::new();
        let mut head = Vec::new();
        for (index, rule) in program.rules.iter().enumerate() {
            model.match_body(&rule.body, &mut Vec::new(), &mut |bindings| {
                head.clear();
                head.extend(
                    rule.head
                        .terms
                        .iter()
                        .map(|term| value(term, bindings).expect("a safe rule binds its head")),
                );
                if !model.holds(rule.head.predicate, &head) {
                    let rows = derived.entry(rule.head.predicate).or_default();
                    if !rows.contains_key(head.as_slice()) {
                        rows.insert(head.clone(), Some((index, bindings.clone())));
                    }
                }
            });
        }
        if derived.is_empty() {
            return Ok(model);
        }
        for (predicate, rows) in derived {
            model.relations.entry(predicate).or_default().extend(rows);
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
            .flat_map(BTreeMap::keys)
        {
            let mut bindings = Bindings::new();
            if unify(&query.atom.terms, row, &mut bindings) {
                answers.insert(bindings.into_iter().map(|(_, value)| value).collect());
            }
        }
        answers.into_iter().collect()
    }

    /// A derivation tree of `fact`, `None` when it is not in the model. A fact of the
    /// EDB is a leaf, whatever its predicate; a derived fact is the first rule instance
    /// that derived it, over the trees of its body facts.
    pub fn derivation(&self, fact: &Atom) -> Option<DerivationTree> {
        let tuple = fact.as_fact()?;
        let Some((index, bindings)) = self.relations.get(&fact.predicate)?.get(&tuple)? else {
            return Some(DerivationTree::leaf(fact.clone()));
        };
        let children = self.rules[*index].body.iter().map(|atom| {
            let terms = atom.terms.iter().map(|term| {
                Term::Const(value(term, bindings).expect("a safe rule binds its body"))
            });
            self.derivation(&Atom::new(atom.predicate, terms.collect()))
                .expect("a justification uses facts of the model")
        });
        Some(DerivationTree {
            fact: fact.clone(),
            rule_index: Some(*index),
            children: children.collect(),
        })
    }

    fn holds(&self, predicate: Symbol, tuple: &[Const]) -> bool {
        self.relations
            .get(&predicate)
            .is_some_and(|rows| rows.contains_key(tuple))
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
        for (row, _) in rows
            .range(prefix.clone()..)
            .take_while(|(row, _)| row.starts_with(&prefix))
        {
            let bound = bindings.len();
            if unify(&atom.terms, row, bindings) {
                self.match_body(rest, bindings, emit);
            }
            bindings.truncate(bound);
        }
    }
}

impl PartialEq for ReferenceModel {
    fn eq(&self, other: &ReferenceModel) -> bool {
        self.relations.len() == other.relations.len()
            && (self.relations.iter().zip(&other.relations))
                .all(|((p, rows), (q, others))| p == q && rows.keys().eq(others.keys()))
    }
}

impl Eq for ReferenceModel {}

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
                    .insert(row.to_vec(), None);
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
    use crate::parser::{parse_atom, parse_program, parse_query};

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

    fn tree(program: &str, edb: &Database, fact: &str) -> Option<DerivationTree> {
        let program = parse_program(program).unwrap().program;
        let model = naive_evaluate(&program, edb).unwrap();
        model.derivation(&parse_atom(fact).unwrap())
    }

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

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

    #[test]
    fn edb_facts_are_leaves() {
        let tree = tree("t(X, Y) :- e(X, Y).", &chain_edb(3), "e(0, 1)").unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.rule_index, None);
    }

    #[test]
    fn an_idb_fact_the_edb_supplies_is_a_leaf() {
        let mut edb = chain_edb(3);
        edb.add_fact("t", &[c(0), c(1)]);
        edb.add_fact("t", &[c(2), c(9)]);
        // t(0, 1) is also derivable, but the EDB supplies it.
        let supplied = tree(TC, &edb, "t(0, 1)").unwrap();
        assert_eq!(
            supplied,
            DerivationTree::leaf(parse_atom("t(0, 1)").unwrap())
        );
        // A fact derived on top of a supplied one keeps it as a leaf child.
        let above = tree(TC, &edb, "t(1, 9)").unwrap();
        assert_eq!(above.rule_index, Some(1));
        assert_eq!(
            above.children[1],
            DerivationTree::leaf(parse_atom("t(2, 9)").unwrap())
        );
        assert_eq!(above.height(), 2);
    }

    #[test]
    fn a_program_fact_is_a_rule_node_without_children() {
        let program = "m(5).\nm(W) :- m(X), e(X, W).";
        let mut edb = Database::new();
        edb.add_fact("e", &[c(5), c(6)]);
        let seed = tree(program, &edb, "m(5)").unwrap();
        assert_eq!(seed.rule_index, Some(0));
        assert!(seed.children.is_empty());
        let next = tree(program, &edb, "m(6)").unwrap();
        assert_eq!(next.rule_index, Some(1));
        assert_eq!(next.children[0], seed);
        assert_eq!(next.height(), 2);
    }

    #[test]
    fn derived_facts_have_rule_justifications() {
        let tree = tree(TC, &chain_edb(4), "t(0, 4)").unwrap();
        // t(0,4) needs the recursive rule at the root.
        assert_eq!(tree.rule_index, Some(1));
        assert_eq!(tree.children.len(), 2);
        // Height: e(0,1) leaf under each recursive step: the chain of length 4 gives
        // height 5 (4 rule applications plus a leaf).
        assert_eq!(tree.height(), 5);
        assert!(tree.size() >= 8);
    }

    #[test]
    fn derivation_exists_iff_fact_in_least_model() {
        let edb = chain_edb(4);
        assert!(tree(TC, &edb, "t(1, 3)").is_some());
        assert!(tree(TC, &edb, "t(3, 1)").is_none());
        assert!(tree(TC, &edb, "t(0, 1)").is_some());
        assert!(tree(TC, &edb, "t(4, 0)").is_none());
        // A non-ground atom is not a fact of any model.
        assert!(tree(TC, &edb, "t(0, Y)").is_none());
    }

    #[test]
    fn justification_bodies_are_earlier_facts() {
        // The derivation of t(0,7) must not be circular: every child fact is either an
        // EDB fact or has its own strictly smaller derivation.
        let program = "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).";
        let tree = tree(program, &chain_edb(8), "t(0, 7)").unwrap();
        fn check_acyclic(tree: &DerivationTree) {
            for child in &tree.children {
                assert_ne!(child.fact, tree.fact, "a fact must not justify itself");
                check_acyclic(child);
            }
        }
        check_acyclic(&tree);
        assert!(tree.height() >= 3);
    }
}
