//! `factorlog-datalog`: a bottom-up Datalog engine.
//!
//! This crate is the substrate for the reproduction of *Argument Reduction by
//! Factoring* (Naughton, Ramakrishnan, Sagiv, Ullman; VLDB 1989 / TCS 146, 1995). It
//! provides everything the paper assumes of its deductive-database setting:
//!
//! * an AST and parser for positive Datalog ([`ast`], [`parser`]),
//! * relations with duplicate elimination and secondary indexes ([`storage`]),
//! * semi-naive bottom-up evaluation with inference statistics, and a naive reference
//!   evaluator to check it against ([`eval`]),
//! * predicate dependency / recursion analysis ([`graph`]),
//! * conjunctive-query containment, the decision procedure behind the paper's
//!   factorability conditions ([`cq`]),
//! * derivation trees, Definition 2.1 ([`derivation`]), which the reference evaluator
//!   records for every fact it derives ([`eval::ReferenceModel::derivation`]),
//! * static validation ([`validate`]).
//!
//! The program transformations themselves (adornment, Magic Sets, factoring, the §5
//! optimizations, Counting, separable/one-sided analysis) live in `factorlog-core`.
//!
//! # Quick example
//!
//! ```
//! use factorlog_datalog::parser::{parse_program, parse_query};
//! use factorlog_datalog::storage::Database;
//! use factorlog_datalog::ast::Const;
//! use factorlog_datalog::eval::evaluate_default;
//!
//! let program = parse_program(
//!     "t(X, Y) :- e(X, Y).\n\
//!      t(X, Y) :- e(X, W), t(W, Y).",
//! ).unwrap().program;
//!
//! let mut edb = Database::new();
//! for i in 0..4i64 {
//!     edb.add_fact("e", &[Const::Int(i), Const::Int(i + 1)]);
//! }
//!
//! let result = evaluate_default(&program, &edb).unwrap();
//! let query = parse_query("t(0, Y)").unwrap();
//! assert_eq!(result.answers(&query).len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod cq;
pub mod derivation;
pub mod eval;
pub mod fault;
pub mod fx;
pub mod graph;
pub mod parser;
pub mod storage;
pub mod symbol;
pub mod validate;

pub use ast::{Atom, Const, Program, Query, Rule, Substitution, Term};
pub use eval::{
    evaluate_default, seminaive_maintain, CompiledProgram, EvalError, EvalOptions, EvalResult,
    EvalStats, LimitReason,
};
pub use fault::{CancelToken, FaultAction, FaultInjector, FaultSite};
pub use parser::{parse_atom, parse_program, parse_query, parse_rule};
pub use storage::{Database, Relation};
pub use symbol::Symbol;
