//! Derivation trees (Definition 2.1 of the paper).
//!
//! A derivation tree for a fact records which rule instance produced it and derivation
//! trees for the body facts. The paper's factorability proofs (Theorems 4.1–4.3,
//! Figures 3–6) argue by induction on the height of derivation trees; the tests in this
//! repository check the structural claims those figures illustrate (e.g. that every
//! `fp` fact of a factored program has a corresponding `p^a(x0, a)` derivation in the
//! Magic program) on the trees that the reference evaluator records
//! ([`ReferenceModel::derivation`](crate::eval::ReferenceModel::derivation)).

use std::fmt;

use crate::ast::Atom;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_atom;

    /// `head` derived by rule `rule_index` from leaves for each of `body`.
    fn node(head: &str, rule_index: usize, body: &[&str]) -> DerivationTree {
        DerivationTree {
            fact: parse_atom(head).unwrap(),
            rule_index: Some(rule_index),
            children: (body.iter())
                .map(|b| DerivationTree::leaf(parse_atom(b).unwrap()))
                .collect(),
        }
    }

    #[test]
    fn display_is_indented() {
        let text = format!("{}", node("t(0, 1)", 0, &["e(0, 1)"]));
        assert!(text.contains("t(0, 1)   [rule 0]"));
        assert!(text.contains("  e(0, 1)   [edb]"));
    }

    #[test]
    fn facts_lists_every_node() {
        let tree = node("p(1)", 0, &["a(1)", "b(1)"]);
        assert_eq!(tree.facts().len(), 3);
        assert_eq!((tree.height(), tree.size()), (2, 3));
    }
}
