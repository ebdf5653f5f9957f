//! Abstract syntax for Datalog programs: constants, terms, atoms, rules, programs and
//! queries, plus the substitution machinery shared by the evaluator and the program
//! transformations.
//!
//! Following the paper (§2), a *program* is the IDB — the set of rules — while the EDB
//! facts live in a [`crate::storage::Database`]. A *query* is a partially instantiated
//! literal; its answers are the facts unifying with it in the least model of
//! IDB ∪ EDB.

use std::collections::BTreeSet;
use std::fmt;

use crate::fx::FxHashMap;
use crate::symbol::Symbol;

/// A ground data value.
///
/// Workload data uses integers; program constants written in source text (e.g. the `5`
/// in `query(Y) :- t(5, Y).`) may be integers or interned symbolic constants.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Const {
    /// An integer constant.
    Int(i64),
    /// A symbolic constant (lowercase identifier or quoted string in source text).
    Sym(Symbol),
}

impl Const {
    /// Convenience constructor for symbolic constants.
    pub fn sym(name: &str) -> Const {
        Const::Sym(Symbol::intern(name))
    }

    /// The integer value, if this is an integer constant.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Const::Int(i) => Some(*i),
            Const::Sym(_) => None,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(i) => write!(f, "{i}"),
            Const::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Const {
    fn from(value: i64) -> Self {
        Const::Int(value)
    }
}

impl From<&str> for Const {
    fn from(value: &str) -> Self {
        Const::sym(value)
    }
}

/// A term: either a variable or a constant.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable, identified by its interned name.
    Var(Symbol),
    /// A ground constant.
    Const(Const),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Convenience constructor for an integer constant term.
    pub fn int(value: i64) -> Term {
        Term::Const(Const::Int(value))
    }

    /// Convenience constructor for a symbolic constant term.
    pub fn sym(name: &str) -> Term {
        Term::Const(Const::sym(name))
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Is this term a constant?
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// The variable symbol, if this is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is ground.
    pub fn as_const(&self) -> Option<Const> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(*c),
        }
    }
}

/// A term in parseable surface syntax: variables, integers and identifier-shaped
/// symbols verbatim, other symbols as quoted strings with `"`, `\` and newlines
/// escaped as `\"`, `\\` and `\n`.
impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Const::Int(i)) => fmt::Display::fmt(i, f),
            Term::Const(Const::Sym(s)) => {
                let name = s.as_str();
                let identifier = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if identifier {
                    return f.write_str(name);
                }
                f.write_str("\"")?;
                for c in name.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c => fmt::Write::write_char(f, c)?,
                    }
                }
                f.write_str("\"")
            }
        }
    }
}

impl From<Const> for Term {
    fn from(value: Const) -> Self {
        Term::Const(value)
    }
}

/// A positive atom `p(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate name.
    pub predicate: Symbol,
    /// The argument terms, in order.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom from a predicate name and terms.
    pub fn new(predicate: impl Into<Symbol>, terms: Vec<Term>) -> Atom {
        Atom {
            predicate: predicate.into(),
            terms,
        }
    }

    /// The arity (number of argument positions).
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Is every argument a constant?
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }

    /// Iterate over the variables occurring in this atom (with repetition).
    pub fn variables(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// The set of distinct variables occurring in this atom, in first-occurrence order.
    pub fn variable_set(&self) -> Vec<Symbol> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for v in self.variables() {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Apply a substitution, replacing mapped variables by their images.
    pub fn apply(&self, subst: &Substitution) -> Atom {
        Atom {
            predicate: self.predicate,
            terms: self.terms.iter().map(|t| subst.apply_term(*t)).collect(),
        }
    }

    /// Rename the predicate, keeping the argument list.
    pub fn with_predicate(&self, predicate: impl Into<Symbol>) -> Atom {
        Atom {
            predicate: predicate.into(),
            terms: self.terms.clone(),
        }
    }

    /// If the atom is ground, return its tuple of constants.
    pub fn as_fact(&self) -> Option<Vec<Const>> {
        self.terms.iter().map(Term::as_const).collect()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.predicate)?;
        if self.terms.is_empty() {
            return Ok(());
        }
        write!(f, "(")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A Horn rule `head :- body1, ..., bodyn.`; a rule with an empty body is a fact.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body atoms (all positive; this engine is positive Datalog).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Construct a rule from a head and body.
    pub fn new(head: Atom, body: Vec<Atom>) -> Rule {
        Rule { head, body }
    }

    /// Construct a fact (a rule with an empty body). The head must be ground to be
    /// evaluable; validation checks this.
    pub fn fact(head: Atom) -> Rule {
        Rule {
            head,
            body: Vec::new(),
        }
    }

    /// Is this rule a fact (empty body)?
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
    }

    /// The set of distinct variables occurring anywhere in the rule, in
    /// first-occurrence order (head first, then body left-to-right).
    pub fn variable_set(&self) -> Vec<Symbol> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for v in self
            .head
            .variables()
            .chain(self.body.iter().flat_map(Atom::variables))
        {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Count of occurrences of each variable across the whole rule.
    pub fn variable_occurrences(&self) -> FxHashMap<Symbol, usize> {
        let mut counts: FxHashMap<Symbol, usize> = FxHashMap::default();
        for v in self
            .head
            .variables()
            .chain(self.body.iter().flat_map(Atom::variables))
        {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }

    /// Does `predicate` occur in the body?
    pub fn body_mentions(&self, predicate: Symbol) -> bool {
        self.body.iter().any(|a| a.predicate == predicate)
    }

    /// Apply a substitution to head and body.
    pub fn apply(&self, subst: &Substitution) -> Rule {
        Rule {
            head: self.head.apply(subst),
            body: self.body.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Rename every variable in this rule with fresh names, producing a variant that
    /// shares no variables with any other rule. Used by containment tests and the
    /// uniform-equivalence checker.
    pub fn rename_apart(&self, suffix: &str) -> Rule {
        let mut subst = Substitution::new();
        for v in self.variable_set() {
            let fresh = Symbol::intern(&format!("{}{}", v.as_str(), suffix));
            subst.insert_term(v, Term::Var(fresh));
        }
        self.apply(&subst)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, a) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ".")
    }
}

/// A Datalog program: an ordered list of rules (the IDB).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The rules, in source order. Source order is the paper's left-to-right
    /// sideways-information-passing order and is preserved by all transformations.
    pub rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program { rules: Vec::new() }
    }

    /// Construct from a rule list.
    pub fn from_rules(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The set of predicates appearing in some rule head — the IDB predicates.
    pub fn idb_predicates(&self) -> BTreeSet<Symbol> {
        self.rules.iter().map(|r| r.head.predicate).collect()
    }

    /// The set of predicates appearing only in rule bodies — the EDB predicates.
    pub fn edb_predicates(&self) -> BTreeSet<Symbol> {
        let idb = self.idb_predicates();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter())
            .map(|a| a.predicate)
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// All predicates mentioned anywhere in the program.
    pub fn all_predicates(&self) -> BTreeSet<Symbol> {
        self.rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter()))
            .map(|a| a.predicate)
            .collect()
    }

    /// The rules whose head predicate is `predicate`.
    pub fn rules_for(&self, predicate: Symbol) -> impl Iterator<Item = &Rule> + '_ {
        self.rules
            .iter()
            .filter(move |r| r.head.predicate == predicate)
    }

    /// The arity of `predicate` as used in this program, if it occurs. Returns the
    /// arity of the first occurrence; [`crate::validate`] checks consistency.
    pub fn arity_of(&self, predicate: Symbol) -> Option<usize> {
        self.rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter()))
            .find(|a| a.predicate == predicate)
            .map(Atom::arity)
    }

    /// Merge another program's rules into this one (appending, preserving order).
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

impl FromIterator<Rule> for Program {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        Program {
            rules: iter.into_iter().collect(),
        }
    }
}

/// A query: a partially instantiated literal. Its answers are the facts of the query
/// predicate that unify with it in the least model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// The query literal.
    pub atom: Atom,
}

impl Query {
    /// Construct a query from its literal.
    pub fn new(atom: Atom) -> Query {
        Query { atom }
    }

    /// The positions of the query literal holding constants — the *bound* argument
    /// positions in the paper's terminology.
    pub fn bound_positions(&self) -> Vec<usize> {
        self.atom
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.is_const().then_some(i))
            .collect()
    }

    /// The adornment string of this query: `b` for each constant position, `f` for
    /// each variable position (e.g. `t(5, Y)` has adornment `"bf"`).
    pub fn adornment(&self) -> String {
        self.atom
            .terms
            .iter()
            .map(|t| if t.is_const() { 'b' } else { 'f' })
            .collect()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- {}.", self.atom)
    }
}

/// A mapping from variables to terms, applied simultaneously.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Substitution {
    map: FxHashMap<Symbol, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution {
            map: FxHashMap::default(),
        }
    }

    /// Bind `var` to a constant.
    pub fn insert(&mut self, var: Symbol, value: Const) {
        self.map.insert(var, Term::Const(value));
    }

    /// Bind `var` to an arbitrary term.
    pub fn insert_term(&mut self, var: Symbol, term: Term) {
        self.map.insert(var, term);
    }

    /// Look up the binding of `var`.
    pub fn get(&self, var: Symbol) -> Option<Term> {
        self.map.get(&var).copied()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Apply to a single term.
    pub fn apply_term(&self, term: Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(&v).copied().unwrap_or(term),
            Term::Const(_) => term,
        }
    }

    /// Iterate over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, Term)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tc_program() -> Program {
        // t(X, Y) :- e(X, Y).  t(X, Y) :- e(X, W), t(W, Y).
        let t = |a, b| Atom::new("t", vec![a, b]);
        let e = |a, b| Atom::new("e", vec![a, b]);
        Program::from_rules(vec![
            Rule::new(
                t(Term::var("X"), Term::var("Y")),
                vec![e(Term::var("X"), Term::var("Y"))],
            ),
            Rule::new(
                t(Term::var("X"), Term::var("Y")),
                vec![
                    e(Term::var("X"), Term::var("W")),
                    t(Term::var("W"), Term::var("Y")),
                ],
            ),
        ])
    }

    #[test]
    fn atom_display_and_arity() {
        let a = Atom::new("t", vec![Term::int(5), Term::var("Y")]);
        assert_eq!(a.arity(), 2);
        assert_eq!(format!("{a}"), "t(5, Y)");
        assert!(!a.is_ground());
        let g = Atom::new("e", vec![Term::int(1), Term::int(2)]);
        assert!(g.is_ground());
        assert_eq!(g.as_fact(), Some(vec![Const::Int(1), Const::Int(2)]));
    }

    #[test]
    fn zero_arity_atom_display() {
        let a = Atom::new("goal", vec![]);
        assert_eq!(format!("{a}"), "goal");
    }

    #[test]
    fn rule_display() {
        let p = tc_program();
        assert_eq!(format!("{}", p.rules[0]), "t(X, Y) :- e(X, Y).");
        assert_eq!(format!("{}", p.rules[1]), "t(X, Y) :- e(X, W), t(W, Y).");
    }

    #[test]
    fn idb_edb_split() {
        let p = tc_program();
        let idb = p.idb_predicates();
        let edb = p.edb_predicates();
        assert!(idb.contains(&Symbol::intern("t")));
        assert!(!idb.contains(&Symbol::intern("e")));
        assert!(edb.contains(&Symbol::intern("e")));
        assert_eq!(p.arity_of(Symbol::intern("t")), Some(2));
        assert_eq!(p.arity_of(Symbol::intern("nonexistent_p")), None);
    }

    #[test]
    fn variable_sets_and_occurrences() {
        let p = tc_program();
        let vars = p.rules[1].variable_set();
        let names: Vec<_> = vars.iter().map(|v| v.as_str()).collect();
        assert_eq!(names, vec!["X", "Y", "W"]);
        let occ = p.rules[1].variable_occurrences();
        assert_eq!(occ[&Symbol::intern("W")], 2);
        assert_eq!(occ[&Symbol::intern("X")], 2);
    }

    #[test]
    fn substitution_application() {
        let mut s = Substitution::new();
        s.insert(Symbol::intern("X"), Const::Int(5));
        let a = Atom::new("t", vec![Term::var("X"), Term::var("Y")]);
        let b = a.apply(&s);
        assert_eq!(format!("{b}"), "t(5, Y)");
        // Unmapped variables are untouched; constants are untouched.
        assert_eq!(s.apply_term(Term::int(3)), Term::int(3));
    }

    #[test]
    fn rename_apart_produces_disjoint_variables() {
        let p = tc_program();
        let r = p.rules[1].rename_apart("_1");
        let orig: BTreeSet<_> = p.rules[1].variable_set().into_iter().collect();
        let renamed: BTreeSet<_> = r.variable_set().into_iter().collect();
        assert!(orig.is_disjoint(&renamed));
        assert_eq!(r.body.len(), 2);
    }

    #[test]
    fn query_adornment_and_positions() {
        let q = Query::new(Atom::new("t", vec![Term::int(5), Term::var("Y")]));
        assert_eq!(q.adornment(), "bf");
        assert_eq!(q.bound_positions(), vec![0]);
        assert_eq!(format!("{q}"), "?- t(5, Y).");
    }

    #[test]
    fn program_display_roundtrips_rule_text() {
        let p = tc_program();
        let text = format!("{p}");
        assert!(text.contains("t(X, Y) :- e(X, Y)."));
        assert!(text.contains("t(X, Y) :- e(X, W), t(W, Y)."));
    }

    #[test]
    fn const_conversions() {
        let c: Const = 42.into();
        assert_eq!(c.as_int(), Some(42));
        let s: Const = "abc".into();
        assert_eq!(s.as_int(), None);
        assert_eq!(format!("{s}"), "abc");
    }
}
