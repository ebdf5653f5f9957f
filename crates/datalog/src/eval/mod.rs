//! Bottom-up evaluation of Datalog programs: the semi-naive pipeline (compiled rules,
//! join machinery, incremental maintenance) with its statistics, and the
//! naive reference evaluator everything is checked against.

pub mod join;
pub mod naive;
pub mod seminaive;
pub mod stats;
pub mod trace;

use std::fmt;

use crate::ast::{Program, Query};
use crate::fx::FxHashMap;
use crate::storage::Database;
use crate::symbol::Symbol;
use crate::validate::ValidationError;

pub use join::{EvalOptions, Governor};
pub use naive::{naive_evaluate, ReferenceModel};
pub use seminaive::{
    seminaive_evaluate, seminaive_evaluate_compiled, seminaive_evaluate_owned, seminaive_maintain,
    CompiledProgram,
};
pub use stats::EvalStats;
pub use trace::{
    fmt_ns, rows, wire_value, EvalProfile, Histogram, Instrument, Merge, ProfileShape, Reading,
    RuleProfile, SpanStats,
};

/// The outcome of an evaluation: the least model restricted to the materialized
/// predicates, plus statistics.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// EDB facts plus all derived IDB facts.
    pub database: Database,
    /// Evaluation counters.
    pub stats: EvalStats,
}

impl EvalResult {
    /// The answers to `query` over the computed model, projected onto the query's free
    /// positions and sorted (see [`Database::answers`]).
    pub fn answers(&self, query: &Query) -> Vec<Vec<crate::ast::Const>> {
        self.database.answers(query)
    }
}

/// Errors produced by evaluation.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program failed static validation.
    Invalid(Vec<ValidationError>),
    /// The fixpoint did not converge within the configured iteration limit.
    IterationLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A resource guardrail fired: the evaluation was abandoned before the
    /// fixpoint, and its partial output was discarded (the engine drops the
    /// materialized view; the fact store stays the source of truth).
    LimitExceeded {
        /// Which guardrail fired.
        reason: LimitReason,
        /// Wall time from the start of the evaluation to the abort, so callers
        /// (server responses, `:stats`) can report it without re-timing.
        elapsed: std::time::Duration,
        /// Counters collected up to the abort (boxed: errors stay small).
        partial_stats: Box<EvalStats>,
    },
    /// The evaluation panicked; the panic was caught at the engine's containment
    /// boundary and the evaluation's output was discarded.
    WorkerPanic {
        /// The panic payload, when it was a string (`"<non-string panic>"`
        /// otherwise).
        message: String,
        /// Counters collected up to the abort.
        partial_stats: Box<EvalStats>,
    },
    /// An injected fault fired (chaos-test harness only — see
    /// [`FaultInjector`](crate::fault::FaultInjector)).
    Injected {
        /// The site the fault fired at.
        site: crate::fault::FaultSite,
    },
}

/// Which resource guardrail aborted an evaluation (see
/// [`EvalError::LimitExceeded`]).
#[derive(Clone, Debug)]
pub enum LimitReason {
    /// The shared [`CancelToken`](crate::fault::CancelToken) was set.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured budget.
        budget: std::time::Duration,
        /// Wall time actually elapsed when the abort was detected.
        elapsed: std::time::Duration,
    },
    /// More facts were derived (or scheduled for deletion) than allowed.
    DerivedFacts {
        /// The configured cap.
        limit: usize,
        /// Facts counted when the abort was detected.
        derived: usize,
    },
    /// The estimated memory footprint exceeded the budget.
    MemoryBudget {
        /// The configured budget in bytes.
        budget_bytes: usize,
        /// The row-count-based estimate (documented within 2x) at the abort.
        estimated_bytes: usize,
    },
}

impl fmt::Display for LimitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LimitReason::Cancelled => write!(f, "cancelled"),
            LimitReason::Deadline { budget, elapsed } => write!(
                f,
                "deadline of {:.1?} exceeded ({:.1?} elapsed)",
                budget, elapsed
            ),
            LimitReason::DerivedFacts { limit, derived } => {
                write!(
                    f,
                    "derived-fact limit of {limit} exceeded ({derived} derived)"
                )
            }
            LimitReason::MemoryBudget {
                budget_bytes,
                estimated_bytes,
            } => write!(
                f,
                "memory budget of {budget_bytes} byte(s) exceeded (~{estimated_bytes} estimated)"
            ),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Invalid(errors) => {
                write!(f, "program is invalid:")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EvalError::IterationLimit { limit } => {
                write!(f, "evaluation did not converge within {limit} iterations")
            }
            EvalError::LimitExceeded {
                reason, elapsed, ..
            } => {
                write!(f, "evaluation aborted after {elapsed:.1?}: {reason}")
            }
            EvalError::WorkerPanic { message, .. } => {
                write!(f, "evaluation worker panicked: {message}")
            }
            EvalError::Injected { site } => {
                write!(f, "injected fault fired at {site}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate semi-naively with default options.
pub fn evaluate_default(program: &Program, edb: &Database) -> Result<EvalResult, EvalError> {
    seminaive_evaluate(program, edb, &EvalOptions::default())
}

/// Collect the arity of every predicate mentioned in the program or present in the
/// database. Program occurrences win (they are validated for consistency).
pub(crate) fn arity_map(program: &Program, edb: &Database) -> FxHashMap<Symbol, usize> {
    let mut arities: FxHashMap<Symbol, usize> = FxHashMap::default();
    for (pred, rel) in edb.iter() {
        arities.insert(pred, rel.arity());
    }
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            arities.insert(atom.predicate, atom.arity());
        }
    }
    arities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Const;
    use crate::parser::parse_program;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    #[test]
    fn evaluate_default_uses_seminaive() {
        let program = parse_program("p(X) :- e(X, Y).").unwrap().program;
        let mut edb = Database::new();
        edb.add_fact("e", &[c(1), c(2)]);
        let result = evaluate_default(&program, &edb).unwrap();
        assert_eq!(result.database.count("p"), 1);
    }

    #[test]
    fn error_display() {
        let err = EvalError::IterationLimit { limit: 7 };
        assert!(format!("{err}").contains('7'));
        let program = parse_program("p(X, Y) :- e(X).").unwrap().program;
        let err = evaluate_default(&program, &Database::new()).unwrap_err();
        assert!(format!("{err}").contains("invalid"));
    }

    #[test]
    fn arity_map_covers_program_and_edb() {
        let program = parse_program("p(X) :- e(X, Y).").unwrap().program;
        let mut edb = Database::new();
        edb.add_fact("r", &[c(1), c(2), c(3)]);
        let map = arity_map(&program, &edb);
        assert_eq!(map[&Symbol::intern("p")], 1);
        assert_eq!(map[&Symbol::intern("e")], 2);
        assert_eq!(map[&Symbol::intern("r")], 3);
    }
}
