//! `factorlog` — a reproduction of *Argument Reduction by Factoring* (Naughton,
//! Ramakrishnan, Sagiv, Ullman; VLDB 1989 / Theoretical Computer Science 146, 1995).
//!
//! This facade crate re-exports the four underlying crates:
//!
//! * [`datalog`] — the bottom-up Datalog engine substrate (`factorlog-datalog`);
//! * [`core`] — adornment, Magic Sets, the factoring analysis and transformation, the
//!   §5 optimizations, Counting, and the one-sided/separable analyses
//!   (`factorlog-core`);
//! * [`workloads`] — the paper's programs and synthetic EDB generators
//!   (`factorlog-workloads`);
//! * [`engine`] — the persistent incremental runtime: sessions with materialized
//!   views maintained incrementally at every commit, a prepared-query cache over
//!   the optimization pipeline, and the REPL front end (`factorlog-engine`).
//!
//! The [`prelude`] pulls in the handful of types most programs need.
//!
//! # Quickstart
//!
//! ```
//! use factorlog::prelude::*;
//!
//! // Example 1.1 of the paper.
//! let program = parse_program(factorlog::workloads::programs::THREE_RULE_TC)
//!     .unwrap()
//!     .program;
//! let query = parse_query("t(0, Y)").unwrap();
//!
//! // Optimize: Magic Sets + factoring + the §5 simplifications.
//! let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
//! assert_eq!(optimized.strategy, Strategy::FactoredMagic);
//!
//! // Evaluate over a 100-edge chain.
//! let edb = factorlog::workloads::graphs::chain(100);
//! let answers = optimized.answers(&edb).unwrap();
//! assert_eq!(answers.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use factorlog_core as core;
pub use factorlog_datalog as datalog;
pub use factorlog_engine as engine;
pub use factorlog_workloads as workloads;

/// The most commonly used items from all four crates.
pub mod prelude {
    pub use factorlog_core::conditions::{FactorabilityReport, FactorableClass};
    pub use factorlog_core::pipeline::{
        optimize_query, Optimized, PipelineOptions, PreparedPlan, Strategy,
    };
    pub use factorlog_core::{
        adorn, analyze, classify, counting, factor_magic, magic, optimize, reduce,
        FactoringContext, TransformError,
    };
    pub use factorlog_datalog::ast::{Atom, Const, Program, Query, Rule, Term};
    pub use factorlog_datalog::eval::{
        evaluate_default, naive_evaluate, seminaive_maintain, CompiledProgram, EvalError,
        EvalOptions, EvalResult, EvalStats, ReferenceModel,
    };
    pub use factorlog_datalog::parser::{parse_atom, parse_program, parse_query, parse_rule};
    pub use factorlog_datalog::storage::Database;
    pub use factorlog_datalog::Symbol;
    pub use factorlog_engine::{
        serve, serve_follower, CancelToken, Client, ClientError, DurabilityOptions, Engine,
        EngineError, FaultAction, FaultInjector, FaultSite, LimitReason, Prepared, QueryReply,
        RecoveryReport, Repl, ReplAction, Replica, ReplicaRole, ReplicaStatus, ReplicationOptions,
        ServeError, ServerHandle, ServerMetrics, ServerOptions, ShutdownReport, Snapshot,
        StatsReply, SyncReport, Txn, TxnReply, TxnSummary,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let program = parse_program(crate::workloads::programs::RIGHT_LINEAR_TC)
            .unwrap()
            .program;
        let query = parse_query("t(0, Y)").unwrap();
        let optimized = optimize_query(&program, &query, &PipelineOptions::default()).unwrap();
        let edb = crate::workloads::graphs::chain(10);
        assert_eq!(optimized.answers(&edb).unwrap().len(), 10);
    }
}
