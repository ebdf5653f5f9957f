//! E9 (structure): the derivation-tree correspondences that the proofs of Theorems
//! 4.1–4.3 establish and Figures 3–6 illustrate.
//!
//! For a factorable program, the proofs show that (1) every `fp(a)` fact of the
//! factored program corresponds to a derivation of `p^a(x0, a)` in the Magic program,
//! guarded by a magic fact (so `fp` holds exactly the answers to the query), and (2)
//! the magic facts of the factored and unfactored Magic programs coincide. These tests
//! check both claims on Example 1.1 over a chain, then on random EDBs for every
//! program of `workloads::programs` that the analysis declares factorable on its
//! canonical query; a negative control shows that the check of claim (1) rejects the
//! forced factoring of Example 4.3, which is not factorable.
//!
//! Every model and every tree comes from the reference evaluator (`naive_evaluate`,
//! `ReferenceModel::derivation` and `ReferenceModel::answers`), which shares no code
//! with the compiled evaluator or its storage.

use factorlog::core::equivalence::{random_edb, EdbSpec};
use factorlog::core::factor::FactoredProgram;
use factorlog::core::magic::MagicProgram;
use factorlog::prelude::*;
use factorlog::workloads::{graphs, programs};

fn shift_chain(n: usize, delta: i64) -> Database {
    let mut out = Database::new();
    if let Some(rel) = graphs::chain(n).relation(Symbol::intern("e")) {
        for row in rel.iter() {
            out.add_fact(
                "e",
                &[
                    Const::Int(row[0].as_int().unwrap() + delta),
                    Const::Int(row[1].as_int().unwrap() + delta),
                ],
            );
        }
    }
    out
}

/// The query whose answers are all of `predicate`'s facts.
fn all_facts_of(predicate: Symbol, arity: usize) -> Query {
    let terms = (0..arity).map(|i| Term::var(&format!("A{i}"))).collect();
    Query::new(Atom::new(predicate, terms))
}

/// Claim (1)'s check: the `fp` facts of `factored_model` for which the Magic model has
/// no derivation of the matching answer `p^a(x0, a)` guarded by a magic fact.
fn fp_facts_without_a_guarded_magic_derivation(
    factored: &FactoredProgram,
    factored_model: &ReferenceModel,
    magic_model: &ReferenceModel,
) -> Vec<Vec<Const>> {
    let fp = all_facts_of(factored.free_predicate, factored.free_positions.len());
    let answer = &factored.adorned_query.atom;
    let guarded = |row: &Vec<Const>| {
        let mut terms = answer.terms.clone();
        for (&position, &value) in factored.free_positions.iter().zip(row) {
            terms[position] = Term::Const(value);
        }
        magic_model
            .derivation(&Atom::new(answer.predicate, terms))
            .is_some_and(|tree| {
                tree.height() >= 2
                    && (tree.facts().iter()).any(|f| Some(f.predicate) == factored.magic_predicate)
            })
    };
    let mut unguarded = factored_model.answers(&fp);
    unguarded.retain(|row| !guarded(row));
    unguarded
}

/// Claim (2)'s check: the facts of each magic predicate, in the Magic model and in the
/// factored model.
fn magic_facts(magicp: &MagicProgram, model: &ReferenceModel) -> Vec<(Symbol, Vec<Vec<Const>>)> {
    let mut out: Vec<_> = (magicp.magic_of.values())
        .map(|&m| {
            let arity = magicp.program.arity_of(m).unwrap();
            (m, model.answers(&all_facts_of(m, arity)))
        })
        .collect();
    out.sort_by_key(|(m, _)| m.as_str());
    out
}

#[test]
fn fp_facts_correspond_to_answer_derivations_in_the_magic_program() {
    let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
    let query = parse_query("t(5, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let magicp = magic(&adorned).unwrap();
    let factored = factor_magic(&adorned, &magicp).unwrap();

    let edb = shift_chain(8, 5);
    let magic_model = naive_evaluate(&magicp.program, &edb).unwrap();
    let factored_model = naive_evaluate(&factored.program, &edb).unwrap();

    // Claim (1): fp(a) in the factored program  ⇔  p^a(x0, a) derivable in P^mg.
    let fp = factored
        .program
        .rules
        .iter()
        .find_map(|r| (r.head.predicate == factored.free_predicate).then_some(r.head.predicate))
        .unwrap();
    let fp_rel = factored_model.answers(&all_facts_of(fp, 1));
    assert!(!fp_rel.is_empty());
    for row in &fp_rel {
        let answer_atom = Atom::new("t_bf", vec![Term::int(5), Term::Const(row[0])]);
        let tree = magic_model
            .derivation(&answer_atom)
            .unwrap_or_else(|| panic!("{answer_atom} must be derivable in the Magic program"));
        assert!(tree.height() >= 2, "answers are derived, not EDB facts");
        assert!(
            tree.facts()
                .iter()
                .any(|f| f.predicate == Symbol::intern("m_t_bf")),
            "every answer derivation in the Magic program is guarded by a magic fact"
        );
    }
    // ... and conversely every Magic answer appears as an fp fact.
    let t_bf = magic_model.answers(&parse_query("t_bf(X, Y)").unwrap());
    assert!(!t_bf.is_empty());
    for row in &t_bf {
        if row[0] == Const::Int(5) {
            assert!(fp_rel.contains(&vec![row[1]]), "missing fp({})", row[1]);
        }
    }
}

#[test]
fn magic_facts_coincide_between_factored_and_unfactored_programs() {
    // Claim (2) of the proofs: the goals (magic facts) generated by the factored
    // program are exactly those of the Magic program.
    let program = parse_program(programs::THREE_RULE_TC).unwrap().program;
    let query = parse_query("t(5, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let magicp = magic(&adorned).unwrap();
    let factored = factor_magic(&adorned, &magicp).unwrap();

    let edb = shift_chain(10, 5);
    let m = parse_query("m_t_bf(X)").unwrap();
    let magic_result = naive_evaluate(&magicp.program, &edb).unwrap().answers(&m);
    let factored_result = naive_evaluate(&factored.program, &edb).unwrap().answers(&m);
    assert!(!magic_result.is_empty());
    assert_eq!(magic_result, factored_result);
}

#[test]
fn derivation_tree_height_matches_recursion_depth() {
    // Figure 3/6 structure: a right-linear derivation in the Magic program nests one
    // magic step per recursion level.
    let program = parse_program(programs::RIGHT_LINEAR_TC).unwrap().program;
    let query = parse_query("t(0, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    let magicp = magic(&adorned).unwrap();
    let edb = graphs::chain(6);
    let model = naive_evaluate(&magicp.program, &edb).unwrap();

    // The magic fact for the deepest goal requires a chain of 6 magic-rule steps.
    let deepest_goal = parse_atom("m_t_bf(6)").unwrap();
    let tree = model.derivation(&deepest_goal).unwrap();
    assert_eq!(tree.height(), 7, "{tree}");

    // The farthest answer t_bf(0, 6) nests the full right-linear answer propagation.
    let answer = parse_atom("t_bf(0, 6)").unwrap();
    let tree = model.derivation(&answer).unwrap();
    assert!(tree.height() >= 7, "{tree}");
    assert!(model
        .derivation(&parse_atom("t_bf(6, 0)").unwrap())
        .is_none());
}

/// Every program of `workloads::programs` with its canonical query, the bound
/// arguments set to constants that random EDBs over `0..DOMAIN` reach.
const CANONICAL: &[(&str, &str, &str)] = &[
    ("THREE_RULE_TC", programs::THREE_RULE_TC, programs::TC_QUERY),
    (
        "RIGHT_LINEAR_TC",
        programs::RIGHT_LINEAR_TC,
        programs::TC_QUERY,
    ),
    (
        "LEFT_LINEAR_TC",
        programs::LEFT_LINEAR_TC,
        programs::TC_QUERY,
    ),
    ("NONLINEAR_TC", programs::NONLINEAR_TC, programs::TC_QUERY),
    (
        "SAME_GENERATION",
        programs::SAME_GENERATION,
        programs::SG_QUERY,
    ),
    ("PMEM", programs::PMEM, "pmem(X, 0)"),
    (
        "EXAMPLE_4_3_EXACT",
        programs::EXAMPLE_4_3_EXACT,
        programs::P_QUERY,
    ),
    (
        "SELECTION_PUSHING",
        programs::SELECTION_PUSHING,
        programs::P_QUERY,
    ),
    ("SYMMETRIC", programs::SYMMETRIC, programs::P_QUERY),
    (
        "ANSWER_PROPAGATING",
        programs::ANSWER_PROPAGATING,
        programs::P_QUERY,
    ),
    ("EXAMPLE_5_1", programs::EXAMPLE_5_1, "p(0, 1, Z)"),
    ("EXAMPLE_5_2", programs::EXAMPLE_5_2, "p(0, 1, Z)"),
    ("EXAMPLE_7_1", programs::EXAMPLE_7_1, "t(0, Y, Z)"),
    (
        "RIGHT_LINEAR_TWO_RULES",
        programs::RIGHT_LINEAR_TWO_RULES,
        programs::P_QUERY,
    ),
    ("ARITY_3_TC", programs::ARITY_3_TC, "t(0, Y, Z)"),
];

const DOMAIN: u64 = 6;

/// A random EDB over every EDB predicate of `program`, generated in the order of the
/// predicates' names (a `Symbol`'s order depends on when it was interned).
fn random_edb_for(program: &Program, seed: u64) -> Database {
    let mut specs: Vec<EdbSpec> = (program.edb_predicates().into_iter())
        .map(|p| {
            let arity = program.arity_of(p).unwrap();
            EdbSpec::new(p.as_str(), arity, if arity == 1 { 6 } else { 12 })
        })
        .collect();
    specs.sort_by_key(|spec| spec.predicate.as_str());
    random_edb(&specs, DOMAIN, seed)
}

#[test]
fn both_claims_hold_for_every_factorable_program_on_random_edbs() {
    let mut checked = Vec::new();
    for &(name, src, query_text) in CANONICAL {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query_text).unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let Ok(classification) = classify(&adorned) else {
            continue;
        };
        if !analyze(&classification).is_factorable() {
            continue;
        }
        let magicp = magic(&adorned).unwrap();
        let factored = factor_magic(&adorned, &magicp).unwrap();
        let mut fp_facts = 0;
        for seed in 1..=3 {
            let edb = random_edb_for(&program, seed);
            let magic_model = naive_evaluate(&magicp.program, &edb).unwrap();
            let factored_model = naive_evaluate(&factored.program, &edb).unwrap();
            // Claim (1), both directions.
            assert_eq!(
                fp_facts_without_a_guarded_magic_derivation(
                    &factored,
                    &factored_model,
                    &magic_model
                ),
                Vec::<Vec<Const>>::new(),
                "{name}, seed {seed}: fp facts without a guarded Magic derivation"
            );
            let answers = factored_model.answers(&factored.query);
            assert_eq!(
                magic_model.answers(&adorned.query),
                answers,
                "{name}, seed {seed}: every Magic answer is an fp fact"
            );
            fp_facts += answers.len();
            // Claim (2).
            assert_eq!(
                magic_facts(&magicp, &magic_model),
                magic_facts(&magicp, &factored_model),
                "{name}, seed {seed}: magic facts"
            );
        }
        assert!(
            fp_facts > 0,
            "{name}: the random EDBs never reach an answer"
        );
        checked.push(name);
    }
    println!("claims (1) and (2) checked on: {}", checked.join(", "));
    // Same generation and Example 4.3 are not factorable; Examples 5.1 and 5.2 become
    // factorable only after static-argument reduction.
    assert_eq!(
        checked,
        [
            "THREE_RULE_TC",
            "RIGHT_LINEAR_TC",
            "LEFT_LINEAR_TC",
            "NONLINEAR_TC",
            "PMEM",
            "SELECTION_PUSHING",
            "SYMMETRIC",
            "ANSWER_PROPAGATING",
            "EXAMPLE_7_1",
            "RIGHT_LINEAR_TWO_RULES",
            "ARITY_3_TC",
        ]
    );
}

#[test]
fn claim_1_check_rejects_the_forced_factoring_of_example_4_3() {
    // Negative control: Example 4.3 is not factorable, and on the EDB that refutes
    // its forced factoring (the trial-1 EDB of the Magic-vs-factored equivalence
    // check, seed 7 + 1), the factored program answers {0, 1, 4, 5} where the Magic
    // program answers {1, 4}. The check must flag exactly the two spurious facts.
    let program = parse_program(programs::EXAMPLE_4_3_EXACT).unwrap().program;
    let query = parse_query("p(1, Y)").unwrap();
    let adorned = adorn(&program, &query).unwrap();
    assert!(!analyze(&classify(&adorned).unwrap()).is_factorable());
    let magicp = magic(&adorned).unwrap();
    let factored = factor_magic(&adorned, &magicp).unwrap();
    let specs = [
        EdbSpec::new("e", 2, 12),
        EdbSpec::new("f", 2, 8),
        EdbSpec::new("c1", 2, 8),
        EdbSpec::new("c2", 2, 8),
        EdbSpec::new("l1", 1, 4),
        EdbSpec::new("l2", 1, 4),
        EdbSpec::new("r1", 1, 5),
        EdbSpec::new("r2", 1, 5),
        EdbSpec::new("r3", 1, 5),
    ];
    let edb = random_edb(&specs, 6, 7 + 1);
    let magic_model = naive_evaluate(&magicp.program, &edb).unwrap();
    let factored_model = naive_evaluate(&factored.program, &edb).unwrap();
    let ints = |values: &[i64]| -> Vec<Vec<Const>> {
        values.iter().map(|&v| vec![Const::Int(v)]).collect()
    };
    assert_eq!(magic_model.answers(&adorned.query), ints(&[1, 4]));
    assert_eq!(factored_model.answers(&factored.query), ints(&[0, 1, 4, 5]));
    assert_eq!(
        fp_facts_without_a_guarded_magic_derivation(&factored, &factored_model, &magic_model),
        ints(&[0, 5])
    );
}
