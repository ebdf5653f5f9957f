//! The fact store: a mapping from predicate names to [`Relation`]s.
//!
//! A [`Database`] holds both EDB facts (loaded before evaluation) and IDB facts (derived
//! during evaluation). The paper's distinction between EDB and IDB is a property of the
//! *program* (which predicates have rules), not of the store.

use std::fmt;

use crate::ast::{Atom, Const, Query};
use crate::fx::FxHashMap;
use crate::symbol::Symbol;

use super::relation::Relation;

/// A collection of named relations.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database {
            relations: FxHashMap::default(),
        }
    }

    /// Build a database from ground atoms.
    pub fn from_facts<I: IntoIterator<Item = Atom>>(facts: I) -> Database {
        let mut db = Database::new();
        for atom in facts {
            db.add_atom(&atom);
        }
        db
    }

    /// Get the relation for `predicate`, creating it (with the given arity) if absent.
    pub fn ensure_relation(&mut self, predicate: Symbol, arity: usize) -> &mut Relation {
        self.relations
            .entry(predicate)
            .or_insert_with(|| Relation::new(arity))
    }

    /// The relation for `predicate`, if it has any tuples or was explicitly created.
    pub fn relation(&self, predicate: Symbol) -> Option<&Relation> {
        self.relations.get(&predicate)
    }

    /// Mutable access to the relation for `predicate`.
    pub fn relation_mut(&mut self, predicate: Symbol) -> Option<&mut Relation> {
        self.relations.get_mut(&predicate)
    }

    /// Insert a fact given as predicate name plus tuple; returns `true` if new.
    pub fn add_fact(&mut self, predicate: impl Into<Symbol>, tuple: &[Const]) -> bool {
        let predicate = predicate.into();
        self.ensure_relation(predicate, tuple.len()).insert(tuple)
    }

    /// Insert a ground atom as a fact. Panics if the atom is not ground.
    pub fn add_atom(&mut self, atom: &Atom) -> bool {
        let tuple = atom
            .as_fact()
            .unwrap_or_else(|| panic!("cannot add non-ground atom {atom} as a fact"));
        self.add_fact(atom.predicate, &tuple)
    }

    /// Remove a fact; returns `true` if it was present (see [`Relation::remove`]:
    /// the cost does not depend on the size of the relation, and the relation's row
    /// order changes).
    pub fn remove_fact(&mut self, predicate: impl Into<Symbol>, tuple: &[Const]) -> bool {
        match self.relations.get_mut(&predicate.into()) {
            Some(rel) if rel.arity() == tuple.len() => rel.remove(tuple),
            _ => false,
        }
    }

    /// Remove a ground atom. Panics if the atom is not ground.
    pub fn remove_atom(&mut self, atom: &Atom) -> bool {
        let tuple = atom
            .as_fact()
            .unwrap_or_else(|| panic!("cannot remove non-ground atom {atom} as a fact"));
        self.remove_fact(atom.predicate, &tuple)
    }

    /// Does the database contain this ground atom?
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        match (atom.as_fact(), self.relation(atom.predicate)) {
            (Some(tuple), Some(rel)) => rel.contains(&tuple),
            _ => false,
        }
    }

    /// The number of tuples of `predicate` (0 if the relation does not exist).
    pub fn count(&self, predicate: impl Into<Symbol>) -> usize {
        self.relation(predicate.into()).map_or(0, Relation::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_facts(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The predicates present in the database, sorted by name for determinism.
    pub fn predicates(&self) -> Vec<Symbol> {
        let mut preds: Vec<Symbol> = self.relations.keys().copied().collect();
        preds.sort_by_key(|s| s.as_str());
        preds
    }

    /// The answers to a query: the values of its variables, in order of first
    /// occurrence, in every tuple of the query predicate that agrees with its
    /// constants and repeats (both positions of a repeated variable must agree);
    /// sorted. This is the paper's notion of the *answers* to a query over the
    /// computed least model. The constants select through
    /// [`Relation::select_scanning`]: the evaluator builds indexes for its own join
    /// plans (a model that has been maintained through a retraction carries some a
    /// fresh one lacks), and a read that probed them would vary in cost by an order
    /// of magnitude with that history.
    pub fn answers(&self, query: &Query) -> Vec<Vec<Const>> {
        let terms = &query.atom.terms;
        let Some(rel) = self.relation(query.atom.predicate) else {
            return Vec::new();
        };
        if rel.arity() != terms.len() {
            return Vec::new();
        }
        // Each variable's first position is kept; a repeat must equal it.
        let mut keep: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (pos, var) in terms.iter().enumerate() {
            let Some(var) = var.as_var() else { continue };
            match keep
                .iter()
                .find(|&&first| terms[first].as_var() == Some(var))
            {
                Some(&first) => repeats.push((first, pos)),
                None => keep.push(pos),
            }
        }
        let pattern: Vec<Option<Const>> = terms.iter().map(|t| t.as_const()).collect();
        let mut ids = Vec::new();
        rel.select_scanning(&pattern, &mut ids);
        // Distinct rows that agree on the constants and repeats differ in a kept
        // position, so they project to distinct answers: one sort, no dedup.
        let mut out: Vec<Vec<Const>> = ids
            .into_iter()
            .map(|id| rel.row(id))
            .filter(|row| repeats.iter().all(|&(a, b)| row[a] == row[b]))
            .map(|row| keep.iter().map(|&i| row[i]).collect())
            .collect();
        out.sort_unstable();
        out
    }

    /// Merge all tuples from `other` into `self`.
    pub fn merge_from(&mut self, other: &Database) {
        for (&pred, rel) in &other.relations {
            self.ensure_relation(pred, rel.arity()).merge_from(rel);
        }
    }

    /// Remove a relation entirely (used by evaluators to reset IDB predicates).
    pub fn remove_relation(&mut self, predicate: Symbol) -> Option<Relation> {
        self.relations.remove(&predicate)
    }

    /// Iterate over `(predicate, relation)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Relation)> + '_ {
        self.relations.iter().map(|(k, v)| (*k, v))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pred in self.predicates() {
            let rel = &self.relations[&pred];
            for row in rel.iter() {
                write!(f, "{pred}(")?;
                for (i, c) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                writeln!(f, ").")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;
    use crate::parser::parse_atom;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    #[test]
    fn add_and_query_facts() {
        let mut db = Database::new();
        assert!(db.add_fact("e", &[c(1), c(2)]));
        assert!(db.add_fact("e", &[c(2), c(3)]));
        assert!(!db.add_fact("e", &[c(1), c(2)]));
        assert_eq!(db.count("e"), 2);
        assert_eq!(db.count("missing"), 0);
        assert_eq!(db.total_facts(), 2);
    }

    #[test]
    fn from_ground_atoms() {
        let facts = vec![
            parse_atom("e(1, 2)").unwrap(),
            parse_atom("e(2, 3)").unwrap(),
            parse_atom("p(a)").unwrap(),
        ];
        let db = Database::from_facts(facts);
        assert_eq!(db.count("e"), 2);
        assert_eq!(db.count("p"), 1);
        assert!(db.contains_atom(&parse_atom("p(a)").unwrap()));
        assert!(!db.contains_atom(&parse_atom("p(b)").unwrap()));
    }

    #[test]
    #[should_panic(expected = "non-ground atom")]
    fn adding_non_ground_atom_panics() {
        let mut db = Database::new();
        db.add_atom(&Atom::new("p", vec![Term::var("X")]));
    }

    #[test]
    fn matching_and_answers_respect_bound_positions() {
        let mut db = Database::new();
        db.add_fact("t", &[c(5), c(1)]);
        db.add_fact("t", &[c(5), c(2)]);
        db.add_fact("t", &[c(6), c(3)]);
        let q = Query::new(Atom::new("t", vec![Term::int(5), Term::var("Y")]));
        assert_eq!(db.answers(&q), vec![vec![c(1)], vec![c(2)]]);

        let all = Query::new(Atom::new("t", vec![Term::var("X"), Term::var("Y")]));
        assert_eq!(db.answers(&all).len(), 3);
    }

    #[test]
    fn answers_with_repeated_query_variable() {
        let mut db = Database::new();
        db.add_fact("t", &[c(1), c(1)]);
        db.add_fact("t", &[c(1), c(2)]);
        let q = Query::new(Atom::new("t", vec![Term::var("X"), Term::var("X")]));
        assert_eq!(db.answers(&q), vec![vec![c(1)]]);
    }

    #[test]
    fn answers_for_missing_predicate_are_empty() {
        let db = Database::new();
        let q = Query::new(Atom::new("nothing", vec![Term::var("X")]));
        assert!(db.answers(&q).is_empty());
    }

    #[test]
    fn remove_fact_and_atom() {
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("e", &[c(2), c(3)]);
        assert!(db.remove_fact("e", &[c(1), c(2)]));
        assert!(!db.remove_fact("e", &[c(1), c(2)]), "already gone");
        assert!(!db.remove_fact("missing", &[c(1)]));
        assert!(!db.remove_fact("e", &[c(1)]), "arity mismatch is a no-op");
        assert_eq!(db.count("e"), 1);
        assert!(db.remove_atom(&parse_atom("e(2, 3)").unwrap()));
        assert_eq!(db.count("e"), 0);
    }

    #[test]
    fn merge_from_combines_databases() {
        let mut a = Database::new();
        a.add_fact("e", &[c(1), c(2)]);
        let mut b = Database::new();
        b.add_fact("e", &[c(2), c(3)]);
        b.add_fact("p", &[c(7)]);
        a.merge_from(&b);
        assert_eq!(a.count("e"), 2);
        assert_eq!(a.count("p"), 1);
    }

    #[test]
    fn display_lists_facts_sorted_by_predicate() {
        let mut db = Database::new();
        db.add_fact("e", &[c(1), c(2)]);
        db.add_fact("a", &[c(9)]);
        let text = format!("{db}");
        let a_pos = text.find("a(9).").unwrap();
        let e_pos = text.find("e(1, 2).").unwrap();
        assert!(a_pos < e_pos);
    }

    #[test]
    fn predicates_are_sorted() {
        let mut db = Database::new();
        db.add_fact("zebra", &[c(1)]);
        db.add_fact("ant", &[c(1)]);
        let names: Vec<&str> = db.predicates().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["ant", "zebra"]);
    }
}
