//! Derivation trees (Definition 2.1 of the paper) and a provenance-tracking evaluator.
//!
//! A derivation tree for a fact records which rule instance produced it and derivation
//! trees for the body facts. The paper's factorability proofs (Theorems 4.1–4.3,
//! Figures 3–6) argue by induction on the height of derivation trees; the tests in this
//! repository use this module to check the structural claims those figures illustrate
//! (e.g. that every `fp` fact of a factored program has a corresponding `p^a(x0, a)`
//! derivation in the Magic program).
//!
//! The provenance evaluator is a straightforward naive evaluator that remembers, for
//! every derived fact, the *first* rule instance that produced it; because facts are
//! only justified by facts derived in earlier rounds (or EDB facts), the recorded
//! justifications are acyclic and reconstruction always terminates.

use std::fmt;

use crate::ast::{Atom, Const, Program, Rule, Substitution, Term};
use crate::fx::FxHashMap;
use crate::storage::Database;
use crate::symbol::Symbol;

/// A derivation tree for a fact.
#[derive(Clone, Debug, PartialEq)]
pub struct DerivationTree {
    /// The derived (or EDB) fact at the root.
    pub fact: Atom,
    /// The index of the rule whose instance derived this fact; `None` for EDB facts.
    pub rule_index: Option<usize>,
    /// Derivation trees for the body facts of the rule instance.
    pub children: Vec<DerivationTree>,
}

impl DerivationTree {
    /// A leaf tree for an EDB fact.
    pub fn leaf(fact: Atom) -> DerivationTree {
        DerivationTree {
            fact,
            rule_index: None,
            children: Vec::new(),
        }
    }

    /// The height of the tree (a leaf has height 1, as in Definition 2.1's induction).
    pub fn height(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationTree::height)
            .max()
            .unwrap_or(0)
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(DerivationTree::size)
            .sum::<usize>()
    }

    /// Every fact appearing in the tree (pre-order).
    pub fn facts(&self) -> Vec<&Atom> {
        let mut out = vec![&self.fact];
        for child in &self.children {
            out.extend(child.facts());
        }
        out
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        for _ in 0..depth {
            write!(f, "  ")?;
        }
        match self.rule_index {
            Some(i) => writeln!(f, "{}   [rule {}]", self.fact, i)?,
            None => writeln!(f, "{}   [edb]", self.fact)?,
        }
        for child in &self.children {
            child.fmt_indented(f, depth + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for DerivationTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// One recorded justification: the rule index and the ground body atoms used.
#[derive(Clone, Debug)]
struct Justification {
    rule_index: usize,
    body: Vec<Atom>,
}

/// A provenance-tracking evaluator. Build it with [`ProvenanceEvaluator::run`], then ask
/// for derivation trees of derived facts.
#[derive(Clone, Debug)]
pub struct ProvenanceEvaluator {
    database: Database,
    justifications: FxHashMap<Atom, Justification>,
    idb: std::collections::BTreeSet<Symbol>,
}

impl ProvenanceEvaluator {
    /// Run naive evaluation of `program` over `edb`, recording one justification per
    /// derived fact. Not intended for large workloads; use the main evaluators for
    /// performance measurements.
    pub fn run(program: &Program, edb: &Database) -> ProvenanceEvaluator {
        let idb = program.idb_predicates();
        let mut database = edb.clone();
        let mut justifications: FxHashMap<Atom, Justification> = FxHashMap::default();
        loop {
            let mut new_facts: Vec<(Atom, Justification)> = Vec::new();
            for (rule_index, rule) in program.rules.iter().enumerate() {
                let mut subst = Substitution::new();
                enumerate(rule, 0, &database, &mut subst, &mut |s| {
                    let head = rule.head.apply(s);
                    debug_assert!(head.is_ground(), "safe rules produce ground heads");
                    if !database.contains_atom(&head) {
                        let body = rule.body.iter().map(|a| a.apply(s)).collect();
                        new_facts.push((head, Justification { rule_index, body }));
                    }
                });
            }
            let mut any = false;
            for (fact, justification) in new_facts {
                if database.add_atom(&fact) {
                    justifications.insert(fact, justification);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        ProvenanceEvaluator {
            database,
            justifications,
            idb,
        }
    }

    /// The computed model (EDB plus derived facts).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Is `fact` in the computed model?
    pub fn holds(&self, fact: &Atom) -> bool {
        self.database.contains_atom(fact)
    }

    /// Reconstruct a derivation tree for `fact`, if it is in the model.
    pub fn derivation_tree(&self, fact: &Atom) -> Option<DerivationTree> {
        if !self.holds(fact) {
            return None;
        }
        if !self.idb.contains(&fact.predicate) || !self.justifications.contains_key(fact) {
            return Some(DerivationTree::leaf(fact.clone()));
        }
        let justification = &self.justifications[fact];
        let children = justification
            .body
            .iter()
            .map(|b| {
                self.derivation_tree(b)
                    .expect("justification bodies are facts of the model")
            })
            .collect();
        Some(DerivationTree {
            fact: fact.clone(),
            rule_index: Some(justification.rule_index),
            children,
        })
    }
}

/// Enumerate all substitutions grounding `rule.body[from..]` against `db`, extending
/// `subst`, and call `emit` for each complete substitution.
fn enumerate(
    rule: &Rule,
    from: usize,
    db: &Database,
    subst: &mut Substitution,
    emit: &mut dyn FnMut(&Substitution),
) {
    if from == rule.body.len() {
        emit(subst);
        return;
    }
    let atom = &rule.body[from];
    let Some(relation) = db.relation(atom.predicate) else {
        return;
    };
    if relation.arity() != atom.arity() {
        return;
    }
    let pattern: Vec<Option<Const>> = atom
        .terms
        .iter()
        .map(|t| match subst.apply_term(*t) {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        })
        .collect();
    let mut rows = Vec::new();
    relation.select(&pattern, &mut rows);
    for row_id in rows {
        let row = relation.row(row_id);
        let mut added: Vec<Symbol> = Vec::new();
        let mut ok = true;
        for (term, value) in atom.terms.iter().zip(row.iter()) {
            match subst.apply_term(*term) {
                Term::Const(c) => {
                    if c != *value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => {
                    subst.insert(v, *value);
                    added.push(v);
                }
            }
        }
        if ok {
            enumerate(rule, from + 1, db, subst, emit);
        }
        for v in added {
            subst.insert_term(v, Term::Var(v));
        }
    }
    // Restore: remove the self-mappings we used to "unbind" (a variable mapped to
    // itself behaves as unbound for apply_term, but clean up for clarity).
    let _ = subst;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{naive_evaluate, ReferenceModel};
    use crate::parser::{parse_atom, parse_program};

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
    fn edb_facts_are_leaves() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let prov = ProvenanceEvaluator::run(&program, &chain_edb(3));
        let tree = prov
            .derivation_tree(&parse_atom("e(0, 1)").unwrap())
            .unwrap();
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.rule_index, None);
    }

    #[test]
    fn derived_facts_have_rule_justifications() {
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program;
        let prov = ProvenanceEvaluator::run(&program, &chain_edb(4));
        let tree = prov
            .derivation_tree(&parse_atom("t(0, 4)").unwrap())
            .unwrap();
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
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).")
            .unwrap()
            .program;
        let prov = ProvenanceEvaluator::run(&program, &chain_edb(4));
        assert!(prov
            .derivation_tree(&parse_atom("t(1, 3)").unwrap())
            .is_some());
        assert!(prov
            .derivation_tree(&parse_atom("t(3, 1)").unwrap())
            .is_none());
        assert!(prov.holds(&parse_atom("t(0, 1)").unwrap()));
        assert!(!prov.holds(&parse_atom("t(4, 0)").unwrap()));
    }

    #[test]
    fn justification_bodies_are_earlier_facts() {
        // The derivation of t(0,3) must not be circular: every child fact is either an
        // EDB fact or has its own strictly smaller derivation.
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).")
            .unwrap()
            .program;
        let prov = ProvenanceEvaluator::run(&program, &chain_edb(8));
        let tree = prov
            .derivation_tree(&parse_atom("t(0, 7)").unwrap())
            .unwrap();
        fn check_acyclic(tree: &DerivationTree) {
            for child in &tree.children {
                assert_ne!(child.fact, tree.fact, "a fact must not justify itself");
                check_acyclic(child);
            }
        }
        check_acyclic(&tree);
        assert!(tree.height() >= 3);
    }

    #[test]
    fn display_is_indented() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let prov = ProvenanceEvaluator::run(&program, &chain_edb(2));
        let tree = prov
            .derivation_tree(&parse_atom("t(0, 1)").unwrap())
            .unwrap();
        let text = format!("{tree}");
        assert!(text.contains("t(0, 1)   [rule 0]"));
        assert!(text.contains("  e(0, 1)   [edb]"));
    }

    #[test]
    fn facts_lists_every_node() {
        let program = parse_program("p(X) :- a(X), b(X).").unwrap().program;
        let mut edb = Database::new();
        edb.add_fact("a", &[c(1)]);
        edb.add_fact("b", &[c(1)]);
        let prov = ProvenanceEvaluator::run(&program, &edb);
        let tree = prov.derivation_tree(&parse_atom("p(1)").unwrap()).unwrap();
        assert_eq!(tree.facts().len(), 3);
    }

    #[test]
    fn model_matches_plain_evaluation() {
        let program =
            parse_program("t(X, Y) :- e(X, Y).\n t(X, Y) :- e(X, W), t(W, Y).\n q(Y) :- t(0, Y).")
                .unwrap()
                .program;
        let edb = chain_edb(5);
        let prov = ProvenanceEvaluator::run(&program, &edb);
        assert_eq!(
            ReferenceModel::from(prov.database()),
            naive_evaluate(&program, &edb).unwrap()
        );
    }
}
