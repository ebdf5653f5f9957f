//! Property-based tests (proptest): the transformation invariants over randomly
//! generated EDBs and, for the evaluator, over randomly generated safe programs.
//!
//! * semi-naive ≡ the reference evaluator, every predicate of the model;
//! * `Database::answers` ≡ the reference's answers for random query shapes, with and
//!   without an index on the bound columns;
//! * every fact of the reference model has a recorded derivation tree, and each tree
//!   is a real derivation (Definition 2.1);
//! * rule-body order and tracing change neither the model nor the counters;
//! * Magic ≡ original on random EDBs for several programs;
//! * factored ≡ original on random EDBs for every program the analysis declares
//!   factorable (Theorems 4.1–4.3 instantiated);
//! * the §5 optimizer preserves answers;
//! * conjunctive-query containment is sound with respect to evaluation.

use factorlog::core::equivalence::{random_edb, EdbSpec};
use factorlog::core::optimize::optimize;
use factorlog::core::pipeline::Strategy as PipelineStrategy;
use factorlog::datalog::cq::ConjunctiveQuery;
use factorlog::datalog::derivation::DerivationTree;
use factorlog::datalog::eval::seminaive_evaluate;
use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;
use std::collections::HashMap;

/// A random edge list over a small domain.
fn edges(
    max_nodes: i64,
    max_edges: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes), 0..max_edges)
}

fn edge_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.ensure_relation(Symbol::intern("e"), 2);
    for &(a, b) in edges {
        db.add_fact("e", &[Const::Int(a), Const::Int(b)]);
    }
    db
}

/// Recursion shapes for the evaluator properties: linear, nonlinear, the paper's
/// three-rule closure, and a two-relation join — the body shapes that stress delta
/// substitution at every literal position.
const EVAL_PROGRAMS: &[&str] = &[
    "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
    "t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, W), t(W, Y).",
    "t(X, Y) :- t(X, W), t(W, Y).\nt(X, Y) :- e(X, W), t(W, Y).\n\
     t(X, Y) :- t(X, W), e(W, Y).\nt(X, Y) :- e(X, Y).",
    "p(X, Y) :- e(X, W), f(W, Y).\np(X, Y) :- e(X, W), p(W, Y).",
];

/// [`edge_db`] plus a second relation `f` derived from the same pairs (shifted), so
/// the two-relation join of [`EVAL_PROGRAMS`] has matches.
fn edge_and_f_db(edges: &[(i64, i64)]) -> Database {
    let mut db = edge_db(edges);
    for &(a, b) in edges {
        db.add_fact("f", &[Const::Int(b), Const::Int(a + 1)]);
    }
    db
}

/// Per-predicate tuple lists, predicates sorted by name; `sorted` drops the
/// insertion order for runs whose execution order legitimately differs.
fn model_of(db: &Database, sorted: bool) -> Vec<(String, Vec<Vec<Const>>)> {
    let mut out: Vec<(String, Vec<Vec<Const>>)> = db
        .iter()
        .map(|(p, rel)| {
            let rows = if sorted {
                rel.to_sorted_vec()
            } else {
                rel.to_vec()
            };
            (p.as_str().to_string(), rows)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Check that `tree` is a derivation of its fact by `program` over `edb`, and return
/// its height. An internal node is a ground instance of the rule it names: its head is
/// the node's fact and its body, in order, the children's facts. A leaf is a fact of
/// `edb`. Every child is lower than its node, and one is exactly one level lower.
fn check_derivation(tree: &DerivationTree, program: &Program, edb: &ReferenceModel) -> usize {
    let Some(index) = tree.rule_index else {
        assert!(
            tree.children.is_empty() && edb.derivation(&tree.fact).is_some(),
            "{tree}"
        );
        return 1;
    };
    let rule = &program.rules[index];
    assert_eq!(rule.body.len(), tree.children.len(), "{tree}");
    let mut bindings: HashMap<Symbol, Const> = HashMap::new();
    let body = rule
        .body
        .iter()
        .zip(tree.children.iter().map(|child| &child.fact));
    for (atom, fact) in std::iter::once((&rule.head, &tree.fact)).chain(body) {
        assert!(
            atom.predicate == fact.predicate && atom.arity() == fact.arity(),
            "{tree}"
        );
        for (term, fact_term) in atom.terms.iter().zip(&fact.terms) {
            let value = fact_term.as_const().expect("a fact is ground");
            let bound = match *term {
                Term::Const(c) => c,
                Term::Var(v) => *bindings.entry(v).or_insert(value),
            };
            assert_eq!(bound, value, "not an instance of rule {index}: {tree}");
        }
    }
    let height = tree.height();
    let heights: Vec<usize> = (tree.children.iter())
        .map(|child| check_derivation(child, program, edb))
        .collect();
    assert!(heights.iter().all(|&h| h < height), "{tree}");
    assert!(
        heights.is_empty() || heights.contains(&(height - 1)),
        "{tree}"
    );
    height
}

/// A query term from a code: a constant for 0..6 (4 and 5 are absent from
/// [`database_answers_match_the_reference`]'s relation), else one of three variables,
/// so shapes repeat variables and can bind every position or none.
fn query_term(code: i64) -> Term {
    match code {
        0..=5 => Term::int(code),
        _ => Term::var(["X", "Y", "Z"][(code - 6) as usize]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store's answers are the reference's for random ternary relations (rows
    /// reordered by removals) and random query shapes: repeated variables, all-bound,
    /// all-free, absent constants and wrong arities, each asked once without an index
    /// and once with an index on exactly its bound columns.
    #[test]
    fn database_answers_match_the_reference(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..4), 0..40),
        removed in 0usize..8,
        shapes in prop::collection::vec(prop::collection::vec(0i64..9, 2..5), 1..8),
    ) {
        let fact = |&(a, b, c): &(i64, i64, i64)| [Const::Int(a), Const::Int(b), Const::Int(c)];
        let mut db = Database::new();
        db.ensure_relation(Symbol::intern("r"), 3);
        for row in &rows {
            db.add_fact("r", &fact(row));
        }
        for row in rows.iter().take(removed) {
            db.remove_fact("r", &fact(row));
        }
        let reference = ReferenceModel::from(&db);
        for shape in &shapes {
            let query = Query::new(Atom::new("r", shape.iter().map(|&code| query_term(code)).collect()));
            let expected = reference.answers(&query);
            prop_assert_eq!(db.answers(&query), expected.clone(), "no index: {}", query);
            let bound: Vec<usize> = (0..shape.len()).filter(|&i| shape[i] < 6).collect();
            let mut indexed = db.clone();
            if shape.len() == 3 {
                indexed.relation_mut(Symbol::intern("r")).unwrap().ensure_index(&bound);
            }
            prop_assert_eq!(indexed.answers(&query), expected, "indexed: {}", query);
        }
    }

    /// The trees the reference evaluator records, checked without another evaluator:
    /// every fact of the model has one, and each is a derivation of its fact.
    #[test]
    fn recorded_derivation_trees_are_derivations(seed in 0u64..1_000_000, prog_idx in 0usize..6) {
        let src = [EVAL_PROGRAMS, &[programs::THREE_RULE_TC, programs::PMEM]].concat()[prog_idx];
        let program = parse_program(src).unwrap().program;
        let mut specs: Vec<EdbSpec> = (program.edb_predicates().into_iter())
            .map(|p| {
                let arity = program.arity_of(p).unwrap();
                EdbSpec::new(p.as_str(), arity, if arity == 1 { 4 } else { 12 })
            })
            .collect();
        // By name, so that a seed names one EDB whatever order symbols were interned in.
        specs.sort_by_key(|spec| spec.predicate.as_str());
        let edb = random_edb(&specs, 8, seed);
        let edb_model = ReferenceModel::from(&edb);
        let model = naive_evaluate(&program, &edb).unwrap();
        for predicate in program.all_predicates() {
            let arity = program.arity_of(predicate).unwrap();
            let vars = (0..arity).map(|i| Term::var(&format!("A{i}"))).collect();
            for row in model.answers(&Query::new(Atom::new(predicate, vars))) {
                let fact = Atom::new(predicate, row.into_iter().map(Term::Const).collect());
                let tree = model.derivation(&fact);
                prop_assert!(tree.is_some(), "{} has no derivation", fact);
                let tree = tree.unwrap();
                prop_assert_eq!(&tree.fact, &fact);
                check_derivation(&tree, &program, &edb_model);
            }
        }
    }

    #[test]
    fn seminaive_matches_reference(edge_list in edges(12, 40), prog_idx in 0usize..4) {
        let program = parse_program(EVAL_PROGRAMS[prog_idx]).unwrap().program;
        let edb = edge_and_f_db(&edge_list);
        let semi = evaluate_default(&program, &edb).unwrap();
        prop_assert_eq!(ReferenceModel::from(&semi.database), naive_evaluate(&program, &edb).unwrap());
    }

    /// Ordering invariance: reversing every rule body changes neither the computed
    /// model (sorted comparison — execution order legitimately differs) nor the
    /// inference count.
    #[test]
    fn body_order_never_changes_the_model(edge_list in edges(10, 40), prog_idx in 0usize..4) {
        let program = parse_program(EVAL_PROGRAMS[prog_idx]).unwrap().program;
        let mut reversed = program.clone();
        for rule in &mut reversed.rules {
            rule.body.reverse();
        }
        let db = edge_and_f_db(&edge_list);
        let mut results = Vec::new();
        for p in [&program, &reversed] {
            let result = seminaive_evaluate(p, &db, &EvalOptions::default()).unwrap();
            results.push((model_of(&result.database, true), result.stats.inferences));
        }
        prop_assert_eq!(&results[1], &results[0], "both body orders agree");
    }

    /// Tracing observes the evaluation without steering it: same model in the same
    /// insertion order, same machine-independent counters.
    #[test]
    fn tracing_changes_neither_model_nor_counters(
        edge_list in edges(10, 40),
        prog_idx in 0usize..4,
    ) {
        let program = parse_program(EVAL_PROGRAMS[prog_idx]).unwrap().program;
        let db = edge_and_f_db(&edge_list);
        let plain = seminaive_evaluate(&program, &db, &EvalOptions::default()).unwrap();
        let opts = EvalOptions { trace: true, ..EvalOptions::default() };
        let traced = seminaive_evaluate(&program, &db, &opts).unwrap();
        prop_assert!(plain.stats.profile.is_none() && traced.stats.profile.is_some());
        prop_assert_eq!(model_of(&traced.database, false), model_of(&plain.database, false));
        prop_assert_eq!(traced.stats.inferences, plain.stats.inferences);
        prop_assert_eq!(traced.stats.facts_derived, plain.stats.facts_derived);
        prop_assert_eq!(traced.stats.index_probes, plain.stats.index_probes);
    }

    #[test]
    fn magic_preserves_answers_on_random_graphs(edge_list in edges(10, 35), start in 0i64..10) {
        let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let edb = edge_db(&edge_list);
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
        let got = evaluate_default(&magicp.program, &edb).unwrap().answers(&adorned.query);
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn factoring_preserves_answers_when_declared_factorable(
        edge_list in edges(10, 30),
        start in 0i64..10,
    ) {
        // Theorems 4.1-4.3 instantiated on the three transitive-closure variants.
        for src in [programs::THREE_RULE_TC, programs::LEFT_LINEAR_TC, programs::RIGHT_LINEAR_TC] {
            let program = parse_program(src).unwrap().program;
            let query = parse_query(&format!("t({start}, Y)")).unwrap();
            let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
            prop_assert_eq!(optimized.strategy, PipelineStrategy::FactoredMagic);
            let edb = edge_db(&edge_list);
            let expected = naive_evaluate(&program, &edb).unwrap().answers(&query);
            let got = optimized.answers(&edb).unwrap();
            prop_assert_eq!(expected, got, "program {}", src);
        }
    }

    #[test]
    fn optimizer_passes_preserve_answers(edge_list in edges(10, 30), start in 0i64..10) {
        // Run the generic §5 passes over the *magic* program (no factoring context) and
        // check answers are unchanged.
        let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
        let query = parse_query(&format!("t({start}, Y)")).unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let (optimized, _) = optimize(&magicp.program, &adorned.query, None);
        let edb = edge_db(&edge_list);
        let expected = naive_evaluate(&magicp.program, &edb).unwrap().answers(&adorned.query);
        let got = evaluate_default(&optimized, &edb).unwrap().answers(&adorned.query);
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn pmem_factoring_is_linear_and_correct(n in 1usize..40, keep in 1usize..4) {
        let workload = factorlog::workloads::lists::pmem_list(n, keep);
        let program = parse_program(programs::PMEM).unwrap().program;
        let query = parse_query(&format!("pmem(X, {})", factorlog::workloads::lists::LIST_ID_BASE + 1)).unwrap();
        let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        prop_assert_eq!(optimized.strategy, PipelineStrategy::FactoredMagic);
        let expected = naive_evaluate(&program, &workload.edb).unwrap().answers(&query);
        let result = optimized.evaluate(&workload.edb).unwrap();
        prop_assert_eq!(result.answers(&optimized.query), expected);
        // Linearity: the factored evaluation derives O(n) facts (goal per suffix plus
        // one answer per satisfying member), never the quadratic pmem relation.
        prop_assert!(result.stats.facts_derived <= 2 * n + workload.satisfying + 2);
    }

    #[test]
    fn cq_containment_is_sound_wrt_evaluation(edge_list in edges(8, 25)) {
        // Q1(X,Y) :- e(X,Z), e(Z,Y)  ⊆  Q2(X,Y) :- e(X,U), e(V,Y): containment of the
        // queries implies containment of their answers on every EDB.
        let q1 = ConjunctiveQuery::new(
            vec![Term::var("X"), Term::var("Y")],
            vec![parse_atom("e(X, Z)").unwrap(), parse_atom("e(Z, Y)").unwrap()],
        );
        let q2 = ConjunctiveQuery::new(
            vec![Term::var("X"), Term::var("Y")],
            vec![parse_atom("e(X, U)").unwrap(), parse_atom("e(V, Y)").unwrap()],
        );
        prop_assert!(q1.is_contained_in(&q2));
        let edb = edge_db(&edge_list);
        let p1 = parse_program("q1(X, Y) :- e(X, Z), e(Z, Y).").unwrap().program;
        let p2 = parse_program("q2(X, Y) :- e(X, U), e(V, Y).").unwrap().program;
        let a1 = naive_evaluate(&p1, &edb).unwrap().answers(&parse_query("q1(X, Y)").unwrap());
        let a2 = naive_evaluate(&p2, &edb).unwrap().answers(&parse_query("q2(X, Y)").unwrap());
        for row in &a1 {
            prop_assert!(a2.contains(row), "containment violated for {row:?}");
        }
    }
}
