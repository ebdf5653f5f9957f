//! `factorlog-engine`: the persistent incremental runtime.
//!
//! Everything below `factorlog-engine` in the stack is one-shot: parse a program,
//! optimize a query, evaluate from scratch, return. This crate adds the long-lived
//! layer a deductive database needs to serve traffic:
//!
//! * **Sessions** — an [`Engine`] owns a fact store ([`Database`]) plus the registered
//!   rules, and persists across any number of inserts and queries, accumulating
//!   per-session [`EvalStats`] (including prepared-plan cache counters) under a single
//!   set of [`EvalOptions`]. [`Engine::snapshot`] exports a session as Datalog
//!   source, and [`Engine::load_source`] is the one way a file enters one: loading
//!   an export rebuilds the session, and loading it again changes nothing.
//!
//! * **Incremental view maintenance** — the engine materializes the least model of the
//!   registered program once, then maintains it at every commit, from the commit's
//!   net delta, with one call of [`factorlog_datalog::eval::seminaive_maintain`]:
//!   retracted facts are propagated by over-delete and re-derivation, and the
//!   restored and inserted facts seed one semi-naive round, so only consequences
//!   using at least one of them are derived, never the whole model. A batch of
//!   inserts (a transaction, a loaded source) costs one maintenance pass.
//!
//! * **Prepared queries** — [`Engine::query_prepared`] runs the full
//!   `factorlog-core` pipeline (reduce → adorn → magic → factor → §5 optimize) once
//!   per (predicate, query shape), caches the resulting
//!   [`factorlog_core::pipeline::PreparedPlan`] (compiled rules with the magic seed
//!   held as injectable data), and replays it on subsequent calls — including queries
//!   with *different constants* of the same adornment, via sound constant rebinding.
//!   Hits and misses are surfaced through
//!   [`EvalStats::plan_cache_hits`](factorlog_datalog::eval::EvalStats) /
//!   `plan_cache_misses`.
//!
//! * **Crash-safe durability** — [`Engine::open_durable`] binds a session to a data
//!   directory: every committed mutation is appended to a checksummed, fsync'd
//!   write-ahead log ([`wal`]) before it applies, startup recovery replays the
//!   image and then the log tail (truncating torn writes), and the log compacts
//!   into a fresh image — one record in the log's own format, atomically — once
//!   it outgrows
//!   [`DurabilityOptions::compact_threshold`]. Derived views are never stored; they
//!   rebuild from the recovered base facts on the first query.
//!
//! * **A served engine** — [`serve`] moves a session behind a line-protocol TCP
//!   front end ([`server`]): any number of reader connections answer queries
//!   lock-free from an atomically swappable materialized view, while a single
//!   writer thread group-commits concurrently submitted transactions under one
//!   WAL fsync, with admission control (overload sheds with a retryable error),
//!   per-request deadlines, and graceful drain-then-cancel shutdown.
//!
//! * **Replication** — [`replication`] ships committed WAL frames from a served
//!   leader to any number of read replicas over the same line protocol
//!   (`REPL SUBSCRIBE`), shipping the leader's image as one more frame when
//!   compaction outruns a lagging follower, and lease-based failover (`PROMOTE` after lease expiry;
//!   a superseded ex-leader fences itself and refuses writes).
//!
//! * **A REPL front end** — [`Repl`] interprets the `factorlog repl` command language
//!   (`:load`, `:save`, `:insert`, `:prepare`, `?- query.`, `:open`, `:compact`,
//!   `:stats`, …)
//!   against an engine session; the `factorlog` binary only supplies the I/O loop.
//!
//! # Example
//!
//! ```
//! use factorlog_engine::Engine;
//! use factorlog_datalog::ast::Const;
//! use factorlog_datalog::parser::parse_query;
//!
//! let mut engine = Engine::new();
//! engine
//!     .load_source("t(X, Y) :- e(X, Y).\n t(X, Y) :- e(X, W), t(W, Y).\n e(0, 1).")
//!     .unwrap();
//! let query = parse_query("t(0, Y)").unwrap();
//! assert_eq!(engine.query(&query).unwrap().len(), 1);
//!
//! // Incremental: the new edge extends the materialized closure via a delta round.
//! engine.insert("e", &[Const::Int(1), Const::Int(2)]).unwrap();
//! assert_eq!(engine.query(&query).unwrap().len(), 2);
//!
//! // Prepared: first call compiles the magic/factored plan (miss), second replays it.
//! assert_eq!(engine.query_prepared(&query).unwrap().len(), 2);
//! assert_eq!(engine.query_prepared(&query).unwrap().len(), 2);
//! assert_eq!(engine.stats().plan_cache_hits, 1);
//! assert_eq!(engine.stats().plan_cache_misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod durability;
mod engine;
pub mod metrics;
mod reactor;
mod repl;
pub mod replication;
pub mod server;
pub mod wal;

pub use durability::{
    CompactReport, DurabilityOptions, RecoveryReport, DEFAULT_COMPACT_THRESHOLD, LOCK_FILE,
    SNAPSHOT_FILE, WAL_FILE,
};
pub use engine::{
    Engine, EngineError, LoadSummary, PrepareReport, Txn, TxnSummary, DEFAULT_PREPARED_CAPACITY,
};
pub use metrics::{EngineMetrics, METRICS_JSON_VERSION};
pub use repl::{render_answers, Repl, ReplAction};
pub use replication::{
    serve_follower, Replica, ReplicaRole, ReplicaStatus, ReplicationOptions, SubscribeReply,
    SyncReport, TERM_FILE,
};
pub use server::{
    serve, Client, ClientError, Prepared, QueryReply, ServeError, ServerHandle, ServerMetrics,
    ServerOptions, ShutdownReport, StatsReply, TxnReply,
};

pub use factorlog_datalog::eval::{EvalError, EvalOptions, EvalStats, LimitReason};
pub use factorlog_datalog::fault::{CancelToken, FaultAction, FaultInjector, FaultSite};
pub use factorlog_datalog::storage::Database;
