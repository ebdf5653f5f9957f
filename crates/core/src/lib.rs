//! `factorlog-core`: the program transformations of *Argument Reduction by Factoring*
//! (J.F. Naughton, R. Ramakrishnan, Y. Sagiv, J.D. Ullman; VLDB 1989 / TCS 146, 1995).
//!
//! The crate implements the paper's two-step optimization — **Magic Sets followed by
//! factoring** — together with everything needed to decide when it applies and to
//! clean up the result:
//!
//! | Module | Paper section |
//! |--------|---------------|
//! | [`mod@adorn`] | adornment, §2.1/§4.1 |
//! | [`mod@magic`] | the Magic Sets transformation, §2.1 (Fig. 1) |
//! | [`standard_form`] | standard form, §4.1 |
//! | [`mod@classify`] | exit/left-linear/right-linear/combined rules, Defs 4.1–4.4 |
//! | [`conjunctions`] | the `bound`/`free`/… conjunctive queries, Def 4.5 |
//! | [`conditions`] | selection-pushing / symmetric / answer-propagating, Defs 4.6–4.8, Thms 4.1–4.3 |
//! | [`factor`] | the factoring transformation, §3 / Prop 3.1 (Fig. 2) |
//! | [`mod@optimize`] | the §5 simplifications, Props 5.1–5.5 + uniform equivalence |
//! | [`mod@reduce`] | static-argument reduction, Defs 5.1–5.3, Lemmas 5.1–5.2 |
//! | [`mod@counting`] | the Counting transformation, §6.4, Thm 6.4 |
//! | [`one_sided`] | one-sided recursions, §6.1, Thms 6.1–6.2 |
//! | [`separable`] | separable recursions, §6.2, Thm 6.3 |
//! | [`pipeline`] | the end-to-end optimizer |
//! | [`equivalence`] | randomized answer-equivalence checking |
//!
//! # Quick example
//!
//! ```
//! use factorlog_datalog::parser::{parse_program, parse_query};
//! use factorlog_datalog::storage::Database;
//! use factorlog_datalog::ast::Const;
//! use factorlog_core::pipeline::{optimize_query, PipelineOptions, Strategy};
//!
//! // Example 1.1 of the paper: transitive closure with all three recursive rules.
//! let program = parse_program(
//!     "t(X, Y) :- t(X, W), t(W, Y).\n\
//!      t(X, Y) :- e(X, W), t(W, Y).\n\
//!      t(X, Y) :- t(X, W), e(W, Y).\n\
//!      t(X, Y) :- e(X, Y).",
//! ).unwrap().program;
//! let query = parse_query("t(5, Y)").unwrap();
//!
//! let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
//! assert_eq!(optimized.strategy, Strategy::FactoredMagic);
//!
//! let mut edb = Database::new();
//! for i in 5..9i64 {
//!     edb.add_fact("e", &[Const::Int(i), Const::Int(i + 1)]);
//! }
//! assert_eq!(optimized.answers(&edb).unwrap().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adorn;
pub mod classify;
pub mod conditions;
pub mod conjunctions;
pub mod counting;
pub mod equivalence;
pub mod error;
pub mod factor;
pub mod magic;
pub mod one_sided;
pub mod optimize;
pub mod pipeline;
pub mod reduce;
pub mod separable;
pub mod standard_form;

pub use adorn::{adorn, AdornedProgram};
pub use classify::{classify, ProgramClassification, RuleClass};
pub use conditions::{analyze, FactorabilityReport, FactorableClass};
pub use counting::{counting, CountingProgram};
pub use error::{TransformError, TransformResult};
pub use factor::{factor_magic, factor_predicate, FactoredProgram};
pub use magic::{magic, MagicProgram};
pub use optimize::{optimize, FactoringContext};
pub use pipeline::{optimize_query, Optimized, PipelineOptions, Strategy};
pub use reduce::{reduce, ReducedProgram};
