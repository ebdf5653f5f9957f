//! Randomized answer-equivalence checking.
//!
//! The factoring property is a statement over *all* EDBs; it cannot be verified by
//! evaluation, but it can be *refuted* by finding an EDB on which two programs give
//! different answers to the query. This module generates random EDBs and compares
//! query answers, which the test suite uses to cross-check the program transformations
//! (Magic ≡ original, factored ≡ Magic when the sufficient conditions hold) and to
//! reproduce the negative examples of the paper (Theorem 3.1, Example 4.3).
//!
//! Both programs are evaluated by the reference evaluator ([`naive_evaluate`]), so the
//! transformations are checked against the semantics rather than against the engine
//! that runs their output.

use factorlog_datalog::ast::{Const, Program, Query};
use factorlog_datalog::eval::{naive_evaluate, EvalError};
use factorlog_datalog::storage::Database;
use factorlog_datalog::symbol::Symbol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A description of an EDB predicate for random generation.
#[derive(Clone, Debug)]
pub struct EdbSpec {
    /// Predicate name.
    pub predicate: Symbol,
    /// Arity.
    pub arity: usize,
    /// Number of tuples to generate (duplicates are merged, so the actual count may be
    /// lower).
    pub tuples: usize,
}

impl EdbSpec {
    /// Convenience constructor.
    pub fn new(predicate: &str, arity: usize, tuples: usize) -> EdbSpec {
        EdbSpec {
            predicate: Symbol::intern(predicate),
            arity,
            tuples,
        }
    }
}

/// Generate a random EDB over the integer domain `0..domain`.
pub fn random_edb(specs: &[EdbSpec], domain: u64, seed: u64) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();
    let domain = domain.max(1);
    for spec in specs {
        db.ensure_relation(spec.predicate, spec.arity);
        for _ in 0..spec.tuples {
            let tuple: Vec<Const> = (0..spec.arity)
                .map(|_| Const::Int(rng.gen_range(0..domain) as i64))
                .collect();
            db.add_fact(spec.predicate, &tuple);
        }
    }
    db
}

/// The answers two programs give to their respective queries over one EDB, when both
/// evaluations succeed.
pub fn answers_match(
    program_a: &Program,
    query_a: &Query,
    program_b: &Program,
    query_b: &Query,
    edb: &Database,
) -> Result<bool, EvalError> {
    Ok(naive_evaluate(program_a, edb)?.answers(query_a)
        == naive_evaluate(program_b, edb)?.answers(query_b))
}

/// A counterexample found by [`check_equivalence`]: an EDB on which the two programs
/// disagree, together with both answer sets.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The EDB on which the programs disagree.
    pub edb: Database,
    /// Answers of the first program.
    pub answers_a: Vec<Vec<Const>>,
    /// Answers of the second program.
    pub answers_b: Vec<Vec<Const>>,
    /// The trial index (useful to re-derive the seed).
    pub trial: usize,
}

/// Randomized equivalence check: evaluate both programs on `trials` random EDBs and
/// return the first counterexample, if any. Passing the check does not prove
/// equivalence (the property is over all EDBs) but failing it refutes equivalence.
#[allow(clippy::too_many_arguments)]
pub fn check_equivalence(
    program_a: &Program,
    query_a: &Query,
    program_b: &Program,
    query_b: &Query,
    specs: &[EdbSpec],
    domain: u64,
    trials: usize,
    seed: u64,
) -> Result<Option<CounterExample>, EvalError> {
    for trial in 0..trials {
        let edb = random_edb(specs, domain, seed.wrapping_add(trial as u64));
        let answers_a = naive_evaluate(program_a, &edb)?.answers(query_a);
        let answers_b = naive_evaluate(program_b, &edb)?.answers(query_b);
        if answers_a != answers_b {
            return Ok(Some(CounterExample {
                edb,
                answers_a,
                answers_b,
                trial,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::factor::factor_magic;
    use crate::magic::magic;
    use factorlog_datalog::parser::{parse_program, parse_query};

    #[test]
    fn random_edb_respects_specs() {
        let specs = [EdbSpec::new("e", 2, 50), EdbSpec::new("l", 1, 10)];
        let db = random_edb(&specs, 20, 7);
        assert!(db.count("e") <= 50 && db.count("e") > 10);
        assert!(db.count("l") <= 10);
        // Deterministic for a fixed seed.
        let db2 = random_edb(&specs, 20, 7);
        assert_eq!(format!("{db}"), format!("{db2}"));
        // Different seed, different data (overwhelmingly likely).
        let db3 = random_edb(&specs, 20, 8);
        assert_ne!(format!("{db}"), format!("{db3}"));
    }

    #[test]
    fn magic_is_equivalent_to_original_on_random_edbs() {
        let src = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(3, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let counterexample = check_equivalence(
            &program,
            &query,
            &magicp.program,
            &adorned.query,
            &[EdbSpec::new("e", 2, 30)],
            12,
            20,
            99,
        )
        .unwrap();
        assert!(counterexample.is_none(), "{counterexample:?}");
    }

    #[test]
    fn factored_magic_is_equivalent_for_a_selection_pushing_program() {
        let src = "t(X, Y) :- t(X, W), t(W, Y).\n\
                   t(X, Y) :- e(X, W), t(W, Y).\n\
                   t(X, Y) :- t(X, W), e(W, Y).\n\
                   t(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("t(3, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
        let magicp = magic(&adorned).unwrap();
        let factored = factor_magic(&adorned, &magicp).unwrap();
        let counterexample = check_equivalence(
            &program,
            &query,
            &factored.program,
            &factored.query,
            &[EdbSpec::new("e", 2, 25)],
            10,
            15,
            2024,
        )
        .unwrap();
        assert!(counterexample.is_none(), "{counterexample:?}");
    }

    #[test]
    fn factoring_a_non_factorable_program_is_refuted() {
        // Example 4.3's program is not factorable; random EDBs quickly expose the
        // discrepancy between the Magic program and its factored version.
        let src = "p(X, Y) :- l1(X), p(X, U), c1(U, V), p(V, Y), r1(Y).\n\
                   p(X, Y) :- l2(X), p(X, U), c2(U, V), p(V, Y), r2(Y).\n\
                   p(X, Y) :- f(X, V), p(V, Y), r3(Y).\n\
                   p(X, Y) :- e(X, Y).";
        let program = parse_program(src).unwrap().program;
        let query = parse_query("p(1, Y)").unwrap();
        let adorned = adorn(&program, &query).unwrap();
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
        let counterexample = check_equivalence(
            &magicp.program,
            &adorned.query,
            &factored.program,
            &factored.query,
            &specs,
            6,
            60,
            7,
        )
        .unwrap();
        let ce = counterexample.expect("a counterexample must exist for Example 4.3");
        assert_ne!(ce.answers_a, ce.answers_b);
        // Pins the seeded EDB stream: the first refuting EDB is the one of trial 1.
        assert_eq!(ce.trial, 1);
    }

    #[test]
    fn answers_match_smoke() {
        let p1 = parse_program("t(X, Y) :- e(X, Y).").unwrap().program;
        let p2 = parse_program("t(X, Y) :- e(Y, X).").unwrap().program;
        let q = parse_query("t(X, Y)").unwrap();
        let mut edb = Database::new();
        edb.add_fact("e", &[Const::Int(1), Const::Int(2)]);
        assert!(answers_match(&p1, &q, &p1, &q, &edb).unwrap());
        assert!(!answers_match(&p1, &q, &p2, &q, &edb).unwrap());
    }
}
