//! Rule classification for the factorability analysis: exit, left-linear, right-linear
//! and combined rules (Definitions 4.1–4.3), and the *RLC-stable* unit-program check
//! (Definition 4.4).
//!
//! Classification operates on the **adorned** program: the adornment determines which
//! argument positions of the recursive predicate are bound (`X̄`) and free (`Ȳ`), and a
//! body occurrence of the predicate is
//!
//! * a *left-linear occurrence* if its bound arguments are exactly the head's bound
//!   variables `X̄`, and
//! * a *right-linear occurrence* if its free arguments are exactly the head's free
//!   variables `Ȳ`.
//!
//! The non-recursive body literals are partitioned into connected components (by shared
//! variables) and each component is assigned to the `left`/`first`/`center`/`right`/
//! `last` conjunction of the matching rule template; a rule that does not fit any
//! template is classified [`RuleClass::Other`].
//!
//! The paper also allows a global permutation of the predicate's argument order to make
//! a program fit the templates (Example 4.1); this module classifies the program as
//! written — use [`permute_arguments`] to apply such a permutation explicitly.

use std::collections::BTreeSet;

use factorlog_datalog::ast::{Atom, Program, Query, Rule, Term};
use factorlog_datalog::symbol::Symbol;

use crate::adorn::AdornedProgram;
use crate::error::{TransformError, TransformResult};
use crate::optimize::body_components;
use crate::standard_form::to_standard_form;

/// The class of one rule of the recursive predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuleClass {
    /// No occurrence of the recursive predicate in the body.
    Exit,
    /// Definition 4.1: `p(X̄, Ȳ) :- left(X̄), p(X̄, Ū1), ..., p(X̄, Ūm), last(Ū.., Ȳ).`
    LeftLinear,
    /// Definition 4.2: `p(X̄, Ȳ) :- first(X̄, V̄), p(V̄, Ȳ), right(Ȳ).`
    RightLinear,
    /// Definition 4.3: left-linear occurrences plus one right-linear occurrence,
    /// connected by a `center` conjunction.
    Combined,
    /// The rule fits none of the templates; the reason is recorded.
    Other(String),
}

impl RuleClass {
    /// Is this one of the classes allowed in an RLC-stable program?
    pub fn is_rlc(&self) -> bool {
        !matches!(self, RuleClass::Other(_))
    }
}

/// One rule of the recursive predicate together with its classification and the
/// conjunctions named by Definition 4.5.
#[derive(Clone, Debug)]
pub struct ClassifiedRule {
    /// Index of the rule within the adorned program.
    pub rule_index: usize,
    /// The rule, converted to standard form for analysis.
    pub rule: Rule,
    /// The class.
    pub class: RuleClass,
    /// `X̄`: head variables in bound positions.
    pub head_bound: Vec<Symbol>,
    /// `Ȳ`: head variables in free positions.
    pub head_free: Vec<Symbol>,
    /// Body indices of left-linear occurrences of the recursive predicate.
    pub left_occurrences: Vec<usize>,
    /// Body index of the right-linear occurrence, if any.
    pub right_occurrence: Option<usize>,
    /// `Ū`: concatenated free-position variables of the left-linear occurrences.
    pub u_vars: Vec<Symbol>,
    /// `V̄`: bound-position variables of the right-linear occurrence.
    pub v_vars: Vec<Symbol>,
    /// The `left(X̄)` conjunction (left-linear and combined rules).
    pub left_conj: Vec<Atom>,
    /// The `first(X̄, V̄)` conjunction (right-linear rules).
    pub first_conj: Vec<Atom>,
    /// The `center(Ū, V̄)` conjunction (combined rules).
    pub center_conj: Vec<Atom>,
    /// The `right(Ȳ)` conjunction (right-linear and combined rules).
    pub right_conj: Vec<Atom>,
    /// The `last(Ū.., Ȳ)` conjunction (left-linear rules).
    pub last_conj: Vec<Atom>,
    /// The whole body (exit rules): `exit(X̄, Ȳ)`.
    pub exit_conj: Vec<Atom>,
}

/// The classification of a whole (unit) program.
#[derive(Clone, Debug)]
pub struct ProgramClassification {
    /// The adorned recursive predicate `p^a`.
    pub predicate: Symbol,
    /// The original (unadorned) predicate.
    pub original_predicate: Symbol,
    /// The adornment string.
    pub adornment: String,
    /// Bound argument positions of `p^a`.
    pub bound_positions: Vec<usize>,
    /// Free argument positions of `p^a`.
    pub free_positions: Vec<usize>,
    /// Per-rule classification, in program order.
    pub rules: Vec<ClassifiedRule>,
}

impl ProgramClassification {
    /// The exit rules.
    pub fn exit_rules(&self) -> impl Iterator<Item = &ClassifiedRule> + '_ {
        self.rules.iter().filter(|r| r.class == RuleClass::Exit)
    }

    /// The recursive (non-exit) rules.
    pub fn recursive_rules(&self) -> impl Iterator<Item = &ClassifiedRule> + '_ {
        self.rules.iter().filter(|r| r.class != RuleClass::Exit)
    }

    /// Definition 4.4: the program consists only of right-linear, left-linear and
    /// combined rules plus exactly one exit rule (and has a single adornment, which
    /// [`classify`] already guarantees).
    pub fn is_rlc_stable(&self) -> bool {
        self.rules.iter().all(|r| r.class.is_rlc()) && self.exit_rules().count() == 1
    }

    /// Are all recursive rules of the given class?
    pub fn all_recursive_rules_are(&self, class: &RuleClass) -> bool {
        self.recursive_rules().all(|r| &r.class == class)
    }

    /// A human-readable summary (used by the report binary and examples).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "predicate {} (adornment {}), {} rule(s):",
            self.predicate,
            self.adornment,
            self.rules.len()
        );
        for r in &self.rules {
            let class = match &r.class {
                RuleClass::Exit => "exit".to_string(),
                RuleClass::LeftLinear => "left-linear".to_string(),
                RuleClass::RightLinear => "right-linear".to_string(),
                RuleClass::Combined => "combined".to_string(),
                RuleClass::Other(reason) => format!("other ({reason})"),
            };
            let _ = writeln!(out, "  rule {}: {}  [{}]", r.rule_index, r.rule, class);
        }
        let _ = writeln!(out, "  RLC-stable: {}", self.is_rlc_stable());
        out
    }
}

/// Classify an adorned unit program.
///
/// Requirements: the adorned program must contain rules for exactly one adorned
/// predicate (the paper's unit-program condition of a single IDB predicate with a
/// single reachable adornment). Rules are converted to standard form internally.
pub fn classify(adorned: &AdornedProgram) -> TransformResult<ProgramClassification> {
    let adorned_preds = adorned.adorned_predicates();
    if adorned_preds.is_empty() {
        return Err(TransformError::NotUnitProgram {
            reason: "the adorned program has no IDB rules (query on an EDB predicate)".into(),
        });
    }
    if adorned_preds.len() > 1 {
        let names: Vec<&str> = adorned_preds.iter().map(|s| s.as_str()).collect();
        return Err(TransformError::NotUnitProgram {
            reason: format!(
                "more than one adorned IDB predicate is reachable from the query: {}",
                names.join(", ")
            ),
        });
    }
    let predicate = adorned_preds[0];
    let info = adorned.info(predicate).expect("adorned predicate has info");
    let bound_positions = info.bound_positions();
    let free_positions = info.free_positions();

    let standard = to_standard_form(&adorned.program, predicate);
    let rules = standard
        .rules
        .iter()
        .enumerate()
        .map(|(i, rule)| classify_rule(i, rule, predicate, &bound_positions, &free_positions))
        .collect();

    Ok(ProgramClassification {
        predicate,
        original_predicate: info.original,
        adornment: info.adornment.clone(),
        bound_positions,
        free_positions,
        rules,
    })
}

fn vars_at(atom: &Atom, positions: &[usize]) -> Vec<Symbol> {
    positions
        .iter()
        .map(|&i| match atom.terms[i] {
            Term::Var(v) => v,
            Term::Const(_) => unreachable!("standard form guarantees variables"),
        })
        .collect()
}

fn classify_rule(
    rule_index: usize,
    rule: &Rule,
    predicate: Symbol,
    bound_positions: &[usize],
    free_positions: &[usize],
) -> ClassifiedRule {
    let head_bound = vars_at(&rule.head, bound_positions);
    let head_free = vars_at(&rule.head, free_positions);

    let mut classified = ClassifiedRule {
        rule_index,
        rule: rule.clone(),
        class: RuleClass::Other(String::new()),
        head_bound: head_bound.clone(),
        head_free: head_free.clone(),
        left_occurrences: Vec::new(),
        right_occurrence: None,
        u_vars: Vec::new(),
        v_vars: Vec::new(),
        left_conj: Vec::new(),
        first_conj: Vec::new(),
        center_conj: Vec::new(),
        right_conj: Vec::new(),
        last_conj: Vec::new(),
        exit_conj: Vec::new(),
    };

    // Occurrences of the recursive predicate in the body.
    let p_positions: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, a)| (a.predicate == predicate).then_some(i))
        .collect();
    let non_p: Vec<&Atom> = rule
        .body
        .iter()
        .filter(|a| a.predicate != predicate)
        .collect();

    if p_positions.is_empty() {
        classified.class = RuleClass::Exit;
        classified.exit_conj = non_p.iter().map(|a| (*a).clone()).collect();
        return classified;
    }

    // Identify left-linear and right-linear occurrences. The definitional templates
    // (Defs 4.1–4.3) use distinct variable vectors: the "other side" of an occurrence
    // (Ū for a left-linear occurrence, V̄ for a right-linear occurrence) must not reuse
    // head variables — a reuse is exactly the situation of Examples 4.1/5.1/5.2 where
    // the theorems do not apply directly and a permutation or reduction is needed.
    let head_vars: BTreeSet<Symbol> = head_bound.iter().chain(head_free.iter()).copied().collect();
    let mut left_occurrences: Vec<usize> = Vec::new();
    let mut right_occurrences: Vec<usize> = Vec::new();
    let mut unclassified_occurrence = false;
    for &i in &p_positions {
        let atom = &rule.body[i];
        let occ_bound = vars_at(atom, bound_positions);
        let occ_free = vars_at(atom, free_positions);
        let bound_matches_head = occ_bound == head_bound;
        let free_matches_head = occ_free == head_free;
        if bound_matches_head && free_matches_head {
            classified.class = RuleClass::Other("the head literal occurs in the body".to_string());
            return classified;
        }
        let is_left = bound_matches_head && occ_free.iter().all(|v| !head_vars.contains(v));
        let is_right = free_matches_head && occ_bound.iter().all(|v| !head_vars.contains(v));
        if is_left {
            left_occurrences.push(i);
        } else if is_right {
            right_occurrences.push(i);
        } else {
            unclassified_occurrence = true;
        }
    }
    if unclassified_occurrence {
        classified.class = RuleClass::Other(
            "a recursive occurrence is neither left-linear nor right-linear".to_string(),
        );
        return classified;
    }
    if right_occurrences.len() > 1 {
        classified.class = RuleClass::Other("more than one right-linear occurrence".to_string());
        return classified;
    }
    classified.left_occurrences = left_occurrences.clone();
    classified.right_occurrence = right_occurrences.first().copied();
    for &i in &left_occurrences {
        classified
            .u_vars
            .extend(vars_at(&rule.body[i], free_positions));
    }
    if let Some(r) = classified.right_occurrence {
        classified.v_vars = vars_at(&rule.body[r], bound_positions);
    }

    // Partition the non-recursive literals into connected components.
    let components: Vec<Vec<&Atom>> = body_components(&non_p)
        .into_iter()
        .map(|component| component.into_iter().map(|i| non_p[i]).collect())
        .collect();

    // Distinguished variable sets.
    let xs: BTreeSet<Symbol> = head_bound.iter().copied().collect();
    let ys: BTreeSet<Symbol> = head_free.iter().copied().collect();
    let us: BTreeSet<Symbol> = classified.u_vars.iter().copied().collect();
    let vs: BTreeSet<Symbol> = classified.v_vars.iter().copied().collect();

    // Assign each component to a conjunction according to which distinguished
    // variables it touches; the allowed targets depend on the candidate rule shape.
    #[derive(PartialEq, Debug, Clone, Copy)]
    enum Target {
        Left,
        First,
        Center,
        Right,
        Last,
        None,
    }

    let has_left = !left_occurrences.is_empty();
    let has_right = classified.right_occurrence.is_some();

    let mut ok = true;
    let mut reason = String::new();
    let mut assignments: Vec<(Target, Vec<Atom>)> = Vec::new();
    for component in &components {
        let cvars: BTreeSet<Symbol> = component.iter().flat_map(|a| a.variables()).collect();
        let touches_x = !cvars.is_disjoint(&xs);
        let touches_y = !cvars.is_disjoint(&ys);
        let touches_u = !cvars.is_disjoint(&us);
        let touches_v = !cvars.is_disjoint(&vs);
        let target = match (has_left, has_right) {
            // Combined rule shape: left(X̄) | center(Ū, V̄) | right(Ȳ).
            (true, true) => {
                if touches_x && !touches_y && !touches_u && !touches_v {
                    Target::Left
                } else if !touches_x && !touches_y && (touches_u || touches_v) {
                    Target::Center
                } else if !touches_x && touches_y && !touches_u && !touches_v {
                    Target::Right
                } else if !touches_x && !touches_y && !touches_u && !touches_v {
                    // A detached guard: treat it as part of `left` (it restricts rule
                    // applicability independently of any distinguished variable).
                    Target::Left
                } else {
                    Target::None
                }
            }
            // Right-linear shape: first(X̄, V̄) | right(Ȳ).
            (false, true) => {
                if !touches_y && !touches_u {
                    Target::First
                } else if touches_y && !touches_x && !touches_u && !touches_v {
                    Target::Right
                } else {
                    Target::None
                }
            }
            // Left-linear shape: left(X̄) | last(Ū.., Ȳ).
            (true, false) => {
                if touches_x && !touches_y && !touches_u && !touches_v {
                    Target::Left
                } else if !touches_x && (touches_u || touches_y) {
                    Target::Last
                } else if !touches_x && !touches_y && !touches_u && !touches_v {
                    Target::Left
                } else {
                    Target::None
                }
            }
            (false, false) => unreachable!("handled by the exit case"),
        };
        if target == Target::None {
            ok = false;
            reason = format!(
                "a non-recursive conjunction mixes distinguished variable groups: {}",
                component
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            break;
        }
        assignments.push((target, component.iter().map(|a| (*a).clone()).collect()));
    }

    if !ok {
        classified.class = RuleClass::Other(reason);
        return classified;
    }

    for (target, atoms) in assignments {
        match target {
            Target::Left => classified.left_conj.extend(atoms),
            Target::First => classified.first_conj.extend(atoms),
            Target::Center => classified.center_conj.extend(atoms),
            Target::Right => classified.right_conj.extend(atoms),
            Target::Last => classified.last_conj.extend(atoms),
            Target::None => unreachable!(),
        }
    }

    classified.class = match (has_left, has_right) {
        (true, true) => RuleClass::Combined,
        (false, true) => RuleClass::RightLinear,
        (true, false) => RuleClass::LeftLinear,
        (false, false) => unreachable!(),
    };
    classified
}

/// Apply a permutation of argument positions of `predicate` consistently to every
/// occurrence in the program and to the query (`new position i` takes `old position
/// permutation[i]`). As the paper notes after Definition 4.3, such permutations do not
/// change the computed relation (up to column renaming) and can make a program fit the
/// left/right/combined templates (Example 4.1).
pub fn permute_arguments(
    program: &Program,
    query: &Query,
    predicate: Symbol,
    permutation: &[usize],
) -> TransformResult<(Program, Query)> {
    let arity =
        program
            .arity_of(predicate)
            .ok_or_else(|| TransformError::UnknownQueryPredicate {
                predicate: predicate.as_str().to_string(),
            })?;
    let mut seen = vec![false; arity];
    if permutation.len() != arity || permutation.iter().any(|&i| i >= arity) {
        return Err(TransformError::BadArgumentSplit {
            reason: format!("permutation {permutation:?} is not over 0..{arity}"),
        });
    }
    for &i in permutation {
        if seen[i] {
            return Err(TransformError::BadArgumentSplit {
                reason: format!("permutation {permutation:?} repeats position {i}"),
            });
        }
        seen[i] = true;
    }
    let permute_atom = |atom: &Atom| -> Atom {
        if atom.predicate != predicate {
            return atom.clone();
        }
        Atom::new(
            atom.predicate,
            permutation.iter().map(|&i| atom.terms[i]).collect(),
        )
    };
    let rules = program
        .rules
        .iter()
        .map(|r| {
            Rule::new(
                permute_atom(&r.head),
                r.body.iter().map(permute_atom).collect(),
            )
        })
        .collect();
    Ok((
        Program::from_rules(rules),
        Query::new(permute_atom(&query.atom)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use factorlog_datalog::parser::{parse_program, parse_query};

    fn classified(src: &str, query: &str) -> ProgramClassification {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        let adorned = adorn(&program, &query).unwrap();
        classify(&adorned).unwrap()
    }

    #[test]
    fn three_rule_transitive_closure_classes() {
        // Example 1.1/4.2: nonlinear rule is combined, e-then-t is right-linear,
        // t-then-e is left-linear, plus the exit rule.
        let c = classified(
            "t(X, Y) :- t(X, W), t(W, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, Y) :- t(X, W), e(W, Y).\n\
             t(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        assert_eq!(c.adornment, "bf");
        assert_eq!(c.rules[0].class, RuleClass::Combined);
        assert_eq!(c.rules[1].class, RuleClass::RightLinear);
        assert_eq!(c.rules[2].class, RuleClass::LeftLinear);
        assert_eq!(c.rules[3].class, RuleClass::Exit);
        assert!(c.is_rlc_stable());
        assert_eq!(c.exit_rules().count(), 1);
        assert_eq!(c.recursive_rules().count(), 3);
        // Conjunction contents.
        assert!(c.rules[0].left_conj.is_empty());
        assert!(c.rules[0].center_conj.is_empty());
        assert!(c.rules[0].right_conj.is_empty());
        assert_eq!(c.rules[1].first_conj.len(), 1);
        assert!(c.rules[1].right_conj.is_empty());
        assert_eq!(c.rules[2].last_conj.len(), 1);
        assert!(c.rules[2].left_conj.is_empty());
        assert_eq!(c.rules[3].exit_conj.len(), 1);
        // Distinguished vectors of the combined rule: U = (W), V = (W).
        assert_eq!(c.rules[0].u_vars.len(), 1);
        assert_eq!(c.rules[0].v_vars.len(), 1);
        assert_eq!(c.rules[0].u_vars, c.rules[0].v_vars);
    }

    #[test]
    fn example_4_3_shape_is_rlc_stable() {
        // The program of Example 4.3: two combined rules, one right-linear rule, exit.
        let c = classified(
            "p(X, Y) :- l1(X), p(X, U), c1(U, V), p(V, Y), r1(Y).\n\
             p(X, Y) :- l2(X), p(X, U), c2(U, V), p(V, Y), r2(Y).\n\
             p(X, Y) :- f(X, V), p(V, Y), r3(Y).\n\
             p(X, Y) :- e(X, Y).",
            "p(5, Y)",
        );
        assert_eq!(c.rules[0].class, RuleClass::Combined);
        assert_eq!(c.rules[1].class, RuleClass::Combined);
        assert_eq!(c.rules[2].class, RuleClass::RightLinear);
        assert_eq!(c.rules[3].class, RuleClass::Exit);
        assert!(c.is_rlc_stable());
        // The combined rules' conjunctions.
        assert_eq!(c.rules[0].left_conj.len(), 1);
        assert_eq!(c.rules[0].center_conj.len(), 1);
        assert_eq!(c.rules[0].right_conj.len(), 1);
        // The right-linear rule's conjunctions.
        assert_eq!(c.rules[2].first_conj.len(), 1);
        assert_eq!(c.rules[2].right_conj.len(), 1);
        let summary = c.summary();
        assert!(summary.contains("combined"));
        assert!(summary.contains("right-linear"));
    }

    #[test]
    fn symmetric_example_4_4_shape() {
        let c = classified(
            "p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y).\n\
             p(X, Y) :- l2(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r2(Y).\n\
             p(X, Y) :- e(X, Y).",
            "p(5, Y)",
        );
        assert_eq!(c.rules[0].class, RuleClass::Combined);
        assert_eq!(c.rules[1].class, RuleClass::Combined);
        assert_eq!(c.rules[0].left_occurrences.len(), 2);
        assert_eq!(c.rules[0].u_vars.len(), 2);
        assert!(c.is_rlc_stable());
    }

    #[test]
    fn pmem_standard_form_is_right_linear() {
        // Example 4.6 in standard form (body ordered so the list lookup binds T before
        // the recursive call).
        let c = classified(
            "pmem(X, L) :- list(X, T, L), p(X).\n\
             pmem(X, L) :- list(H, T, L), pmem(X, T).",
            "pmem(X, 100)",
        );
        assert_eq!(c.adornment, "fb");
        assert_eq!(c.rules[0].class, RuleClass::Exit);
        assert_eq!(c.rules[1].class, RuleClass::RightLinear);
        assert!(c.is_rlc_stable());
    }

    #[test]
    fn same_generation_is_not_rlc() {
        // sg's recursive occurrence is neither left- nor right-linear: its bound
        // argument is U (not X) and its free argument is V (not Y).
        let c = classified(
            "sg(X, Y) :- flat(X, Y).\nsg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
            "sg(1, Y)",
        );
        assert_eq!(c.rules[0].class, RuleClass::Exit);
        assert!(matches!(c.rules[1].class, RuleClass::Other(_)));
        assert!(!c.is_rlc_stable());
    }

    #[test]
    fn two_exit_rules_break_rlc_stability() {
        let c = classified(
            "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).\nt(X, Y) :- f(X, Y).",
            "t(5, Y)",
        );
        assert_eq!(c.exit_rules().count(), 2);
        assert!(!c.is_rlc_stable());
    }

    #[test]
    fn head_in_body_is_other() {
        let c = classified(
            "t(X, Y) :- t(X, Y), e(X, Y).\nt(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        assert!(matches!(c.rules[0].class, RuleClass::Other(ref r) if r.contains("head")));
    }

    #[test]
    fn mixed_component_is_other() {
        // The EDB literal g(X, Y) connects a bound head variable directly to a free
        // head variable, fitting no template slot.
        let c = classified(
            "t(X, Y) :- e(X, W), t(W, Y), g(X, Y).\nt(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        assert!(matches!(c.rules[0].class, RuleClass::Other(_)));
    }

    #[test]
    fn non_unit_program_is_rejected() {
        let program = parse_program(
            "p(X, Y) :- q(X, W), p(W, Y).\np(X, Y) :- e(X, Y).\nq(X, Y) :- f(X, W), q(W, Y).\nq(X, Y) :- f(X, Y).",
        )
        .unwrap()
        .program;
        let query = parse_query("p(1, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        assert!(matches!(
            classify(&adorned),
            Err(TransformError::NotUnitProgram { .. })
        ));
    }

    #[test]
    fn example_4_1_needs_rearrangement() {
        // Example 4.1: t^bfb(X, Y, Z) :- e(Y, W), t(X, W, Z). As written, the
        // left-to-right SIP gives the body occurrence the adornment bbb (W and Y are
        // bound by e/2 before the recursive call), so the program is not a unit
        // program. Rearranging the body so the recursive call comes first keeps a
        // single adornment and the rule is then recognized as left-linear — the
        // rearranged-and-permuted form the paper exhibits.
        let src = "t(X, Y, Z) :- e(Y, W), t(X, W, Z).\nt(X, Y, Z) :- f(X, Y, Z).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(1, Y, 3)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        assert!(matches!(
            classify(&adorned),
            Err(TransformError::NotUnitProgram { .. })
        ));

        let rearranged = "t(X, Y, Z) :- t(X, W, Z), e(W, Y).\nt(X, Y, Z) :- f(X, Y, Z).";
        let program = parse_program(rearranged).unwrap().program;
        let adorned = adorn(&program, &query).unwrap();
        let c = classify(&adorned).unwrap();
        assert_eq!(c.adornment, "bfb");
        assert_eq!(c.rules[0].class, RuleClass::LeftLinear);
        assert_eq!(c.rules[1].class, RuleClass::Exit);
        assert!(c.is_rlc_stable());
    }

    #[test]
    fn argument_permutation_is_consistent_and_invertible() {
        let src = "t(X, Y) :- e(X, W), t(W, Y).\nt(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(5, Y)").unwrap();
        let t = Symbol::intern("t");
        let (swapped, squery) = permute_arguments(&program, &query, t, &[1, 0]).unwrap();
        assert_eq!(squery.adornment(), "fb");
        assert_eq!(
            format!("{}", swapped.rules[0]),
            "t(Y, X) :- e(X, W), t(Y, W)."
        );
        // Applying the same swap again restores the original program and query.
        let (restored, rquery) = permute_arguments(&swapped, &squery, t, &[1, 0]).unwrap();
        assert_eq!(restored, program);
        assert_eq!(rquery, query);
    }

    #[test]
    fn permutation_validation() {
        let program = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let query = parse_query("t(1, Y)").unwrap();
        let t = Symbol::intern("t");
        assert!(permute_arguments(&program, &query, t, &[0]).is_err());
        assert!(permute_arguments(&program, &query, t, &[0, 0]).is_err());
        assert!(permute_arguments(&program, &query, t, &[0, 2]).is_err());
        assert!(permute_arguments(&program, &query, Symbol::intern("zz"), &[0, 1]).is_err());
    }

    #[test]
    fn detached_guard_goes_to_left() {
        let c = classified(
            "t(X, Y) :- guard(9), t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        assert_eq!(c.rules[0].class, RuleClass::LeftLinear);
        assert_eq!(c.rules[0].left_conj.len(), 1);
    }

    #[test]
    fn non_standard_rule_is_converted_before_classification() {
        // t(X, X) in the head: converted to standard form with an equal/2 atom, then
        // classified; the equal atom lands in a conjunction rather than breaking the
        // analysis.
        let c = classified("t(X, Y) :- t(X, W), e(W, Y).\nt(X, X) :- n(X).", "t(5, Y)");
        assert_eq!(c.rules[0].class, RuleClass::LeftLinear);
        assert_eq!(c.rules[1].class, RuleClass::Exit);
    }
}
