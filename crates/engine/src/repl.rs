//! The interactive session command language, decoupled from terminal I/O so it can be
//! tested directly: [`Repl::execute`] maps one input line to one textual response.
//!
//! ```text
//! :load <file>        load a Datalog file (a :save'd session is one)
//! :save <file>        save the session (program + base facts) as Datalog source
//! :open <dir>         switch to a durable session backed by <dir> (image +
//!                     write-ahead log; recovers committed state on open)
//! :compact            rewrite the durable image and reset the log
//! :insert <fact>.     insert one ground fact (incremental)
//! :retract <fact>.    retract one base fact (counting-based delete propagation)
//! :begin              start a transaction; :insert/:retract queue until :commit
//! :commit             apply the queued batch atomically
//! :abort              discard the queued batch
//! :prepare <query>    compile + cache the optimized plan for a query
//! ?- <query>.         answer a query (uses the prepared plan when one is cached)
//! :stats              cumulative session statistics (incl. plan-cache counters)
//! :profile [on|off|show]  toggle tracing / show span timers + per-rule profile
//! :metrics            dump session metrics as versioned JSON
//! :program            show the registered rules
//! :serve <addr>       serve the engine over TCP; the session becomes a client
//! :connect <addr>     become a client of a running server (:detach to return)
//! :follow <addr>      serve the (durable) engine as a follower of a leader;
//!                     the session becomes its client (:detach to stop)
//! :promote            ask the node this client talks to to take over as leader
//! :help               command summary
//! :quit               leave the session
//! <rule or fact>.     bare Datalog clauses are absorbed like :load text
//! ```
//!
//! A file enters a session one way: `:load` absorbs it into the current
//! session, a rule already registered and a fact already present being no-ops.
//! So `:load` of a `:save`d file rebuilds that session in a fresh one and
//! changes nothing in the session that saved it.
//!
//! A session is in one of two modes. In *local* mode every command runs against
//! its own engine. In *client* mode (after `:serve`, `:follow` or `:connect`)
//! `?-`, `:insert`, `:retract`, `:stats`, `:promote`, `:metrics`, `:detach` and
//! `:quit` go to a node over the wire, and answers print as its wire rows. A
//! node the session spawned (`:serve`, `:follow`) holds the session's engine
//! until `:detach` or `:quit` stops it and reclaims the engine, replicated state
//! included. `:follow` is `:serve` for a follower: the served node's apply loop
//! polls the leader and renews its lease, and its `PROMOTE` is the one
//! promotion path.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use factorlog_datalog::ast::{Atom, Const, Query};
use factorlog_datalog::eval::{fmt_ns, rows, EvalError, LimitReason};
use factorlog_datalog::parser::{parse_atom, parse_query};

use crate::durability::DurabilityOptions;
use crate::engine::{Engine, EngineError};
use crate::replication::{serve_follower, Replica, ReplicationOptions};
use crate::server::{serve, Client, ServeError, ServerHandle, ServerOptions};
use crate::wal::WalOp;

/// The outcome of executing one REPL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplAction {
    /// Print this (possibly empty) response and continue.
    Output(String),
    /// Leave the session.
    Quit,
}

/// The answers to `query` as the REPL and the one-shot CLI print them, one line
/// per row: `X = 1, Y = 2`, naming the query's distinct variables in
/// first-occurrence order (the projection of `Database::answers`), or `true`
/// for a query without variables.
pub fn render_answers(query: &Query, answers: &[Vec<Const>]) -> Vec<String> {
    let mut free_vars = Vec::new();
    for v in query.atom.terms.iter().filter_map(|term| term.as_var()) {
        if !free_vars.contains(&v) {
            free_vars.push(v);
        }
    }
    answers
        .iter()
        .map(|row| {
            let rendered: Vec<String> = free_vars
                .iter()
                .zip(row)
                .map(|(v, c)| format!("{v} = {c}"))
                .collect();
            if rendered.is_empty() {
                "true".to_string()
            } else {
                rendered.join(", ")
            }
        })
        .collect()
}

/// A REPL session: an [`Engine`] plus the command interpreter.
#[derive(Default)]
pub struct Repl {
    engine: Engine,
    /// Queued operations of an open `:begin` transaction (`None` = autocommit).
    txn: Option<Vec<(WalOp, Atom)>>,
    /// The node this session spawned via `:serve` or `:follow`, holding its
    /// engine (stopped by `:detach`).
    server: Option<ServerHandle>,
    /// When set, the session is in client mode: queries and mutations forward
    /// over the wire instead of touching the local engine.
    remote: Option<Client>,
}

const HELP: &str = "\
commands:
  :load <file>     load rules and facts from a Datalog file (a :save'd session
                   is one) into this session; rules it already has and facts
                   already present are skipped
  :save <file>     save the session (program + base facts) as Datalog source
  :open <dir>      switch to a durable session backed by <dir>: every committed
                   mutation is appended to an fsync'd write-ahead log and
                   recovered on the next :open (crash-safe)
  :compact         rewrite the durable image atomically and reset the log
  :insert <fact>.  insert one ground fact (incrementally maintained)
  :retract <fact>. retract one base fact (incremental delete propagation)
  :begin           start a transaction: :insert/:retract queue until :commit
  :commit          apply the queued batch atomically
  :abort           discard the queued batch
  :prepare <q>     prepare (compile + cache) the optimized plan for query <q>
  ?- <query>.      answer a query; replays the prepared plan when one is cached
  :limit [time <ms> | facts <n> | mem <bytes> | off]
                   show or set the session's evaluation guardrails: wall-clock
                   deadline, derived-fact cap, estimated-memory budget. A tripped
                   guardrail aborts the query with a structured error and the
                   session stays usable; :limit off clears all three. Ctrl-C
                   during a query cancels it the same way.
  :stats           cumulative session statistics, grouped by subsystem
                   (eval, joins, mutations, wal)
  :profile [on|off|show]  enable/disable tracing, or show the collected
                   profile: per-phase span timers, per-rule firing times and
                   row counts, latency histograms (p50/p95/p99)
  :metrics         dump the session's metrics as a versioned JSON document
  :program         show the registered rules
  :serve <addr>    move the engine behind a concurrent TCP server on <addr> and
                   turn this session into a client of it (group-committed
                   writes, admission control; :detach stops the server and
                   reclaims the engine)
  :connect <addr>  become a client of an already-running server (:detach
                   returns to the untouched local session)
  :follow <addr>   catch this (durable) session up with the leader at <addr>,
                   then serve its engine as a follower (on an ephemeral local
                   port) and turn this session into a client of it: queries
                   answer from the replicated view (at most one 20 ms poll
                   behind), :insert/:retract are refused until :promote;
                   :detach stops the follower and reclaims the engine
  :promote         in client mode, ask the node to take over as leader: a
                   follower refuses while its leader's lease is valid (any
                   poll answered in the last 750 ms), then bumps its term and
                   accepts writes
  :help            this summary
  :quit            leave the session
bare rules/facts (e.g. `e(1, 2).` or `t(X, Y) :- e(X, Y).`) are added directly.";

impl Repl {
    /// A fresh session.
    pub fn new() -> Repl {
        Repl::with_engine(Engine::new())
    }

    /// A session wrapping an existing engine (e.g. pre-loaded from a file).
    pub fn with_engine(engine: Engine) -> Repl {
        Repl {
            engine,
            txn: None,
            server: None,
            remote: None,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Execute one input line and return what to print (or [`ReplAction::Quit`]).
    /// Errors are rendered into the response, never panicked or propagated.
    pub fn execute(&mut self, line: &str) -> ReplAction {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            return ReplAction::Output(String::new());
        }
        match self.dispatch(line) {
            Ok(action) => action,
            Err(message) => ReplAction::Output(format!("error: {message}")),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<ReplAction, String> {
        if self.remote.is_some() {
            return self.dispatch_remote(line);
        }
        if let Some(rest) = line.strip_prefix("?-") {
            return self.run_query(rest).map(ReplAction::Output);
        }
        if let Some(rest) = line.strip_prefix(':') {
            let (command, argument) = match rest.split_once(char::is_whitespace) {
                Some((c, a)) => (c, a.trim()),
                None => (rest, ""),
            };
            return match command {
                "quit" | "exit" | "q" => Ok(ReplAction::Quit),
                "help" | "h" => Ok(ReplAction::Output(HELP.to_string())),
                "load" => self.load(argument).map(ReplAction::Output),
                "save" => self.save(argument).map(ReplAction::Output),
                "open" => self.open(argument).map(ReplAction::Output),
                "compact" => self.compact().map(ReplAction::Output),
                "insert" => self.mutate(WalOp::Assert, argument).map(ReplAction::Output),
                "retract" => self
                    .mutate(WalOp::Retract, argument)
                    .map(ReplAction::Output),
                "begin" => self.begin().map(ReplAction::Output),
                "commit" => self.commit().map(ReplAction::Output),
                "abort" | "rollback" => self.abort().map(ReplAction::Output),
                "prepare" => self.prepare(argument).map(ReplAction::Output),
                "limit" => self.limit(argument).map(ReplAction::Output),
                "stats" => Ok(ReplAction::Output(self.stats())),
                "profile" => self.profile(argument).map(ReplAction::Output),
                "metrics" => Ok(ReplAction::Output(self.engine.metrics_json())),
                "program" => Ok(ReplAction::Output(self.show_program())),
                "serve" => self.serve_cmd(argument).map(ReplAction::Output),
                "connect" => self.connect_cmd(argument).map(ReplAction::Output),
                "follow" => self.follow_cmd(argument).map(ReplAction::Output),
                "promote" => Err(
                    "not a client of a follower (:follow <addr>, or :connect to a \
                     served follower, first)"
                        .to_string(),
                ),
                "detach" => {
                    Err("no server or remote connection (:serve, :follow or :connect)".to_string())
                }
                other => Err(format!("unknown command `:{other}` (try :help)")),
            };
        }
        // Bare Datalog text: rules and facts.
        self.absorb(line).map(ReplAction::Output)
    }

    fn load(&mut self, path: &str) -> Result<String, String> {
        if path.is_empty() {
            return Err(":load requires a file path".to_string());
        }
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if source.trim().is_empty() {
            return Err(format!("{path} is empty (nothing to load)"));
        }
        let summary = self
            .engine
            .load_source(&source)
            .map_err(|e| e.to_string())?;
        let mut out = format!(
            "loaded {} rule(s), {} fact(s)",
            summary.rules_added, summary.facts_added
        );
        if summary.duplicates > 0 {
            let _ = write!(out, " ({} duplicate(s) ignored)", summary.duplicates);
        }
        if let Some(query) = &summary.query {
            let _ = write!(out, "; file query: {query}");
        }
        Ok(out)
    }

    fn save(&mut self, path: &str) -> Result<String, String> {
        if path.is_empty() {
            return Err(":save requires a file path".to_string());
        }
        std::fs::write(path, self.engine.snapshot())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(format!(
            "saved {path}: {} rule(s), {} fact(s)",
            self.engine.program().len(),
            self.engine.facts().total_facts()
        ))
    }

    fn open(&mut self, dir: &str) -> Result<String, String> {
        if dir.is_empty() {
            return Err(":open requires a data directory path".to_string());
        }
        if self.txn.is_some() {
            return Err("a transaction is open (commit or abort it before :open)".to_string());
        }
        // The current session's evaluation options carry over; its *state* does not
        // (the durable directory's recovered state replaces it). Release the
        // current directory's single-writer lock first: re-opening the same
        // directory (the recovery flow after a poisoned log) must not be refused
        // by our own lock.
        let was_durable = self.engine.close_durable();
        let engine = Engine::open_durable_on(
            std::sync::Arc::new(crate::disk::StdDisk),
            dir,
            DurabilityOptions::default(),
            self.engine.options().clone(),
        )
        .map_err(|e| {
            if was_durable {
                format!("{e} (the previous durable session is now detached; :open to re-attach)")
            } else {
                e.to_string()
            }
        })?;
        self.engine = engine;
        self.txn = None;
        let report = self.engine.recovery_report().cloned().unwrap_or_default();
        Ok(format!(
            "opened durable session {dir}: {} rule(s), {} fact(s); {}",
            self.engine.program().len(),
            self.engine.facts().total_facts(),
            report.describe(),
        ))
    }

    fn compact(&mut self) -> Result<String, String> {
        let report = self.engine.compact().map_err(|e| e.to_string())?;
        Ok(format!(
            "compacted: log {} -> {} byte(s); image includes wal seq {}",
            report.log_bytes_before, report.log_bytes_after, report.snapshot_seq
        ))
    }

    /// `:serve <addr>`: move this session's engine behind a TCP server and
    /// turn the session into a client of it (`:detach` reverses both).
    fn serve_cmd(&mut self, addr: &str) -> Result<String, String> {
        if addr.is_empty() {
            return Err(
                ":serve requires a listen address, e.g. `:serve 127.0.0.1:7070`".to_string(),
            );
        }
        if self.txn.is_some() {
            return Err("a transaction is open (commit or abort it before :serve)".to_string());
        }
        let engine = std::mem::take(&mut self.engine);
        let bound = self.attach(serve(engine, addr, ServerOptions::default()))?;
        Ok(format!(
            "serving on {bound}; this session is now a client \
             (queries and :insert/:retract go over the wire; :detach to stop \
             the server and reclaim the engine)"
        ))
    }

    /// `:follow <addr>`: catch this session's durable engine up with the
    /// leader once (so the first read sees the leader's state), serve it as a
    /// follower of `addr` on an ephemeral local port, and turn the session into
    /// a client of that node, exactly as `:serve` does for a leader.
    fn follow_cmd(&mut self, addr: &str) -> Result<String, String> {
        if addr.is_empty() {
            return Err(
                ":follow requires a leader address, e.g. `:follow 127.0.0.1:7070`".to_string(),
            );
        }
        if self.txn.is_some() {
            return Err("a transaction is open (commit or abort it before :follow)".to_string());
        }
        if self.engine.data_dir().is_none() {
            return Err(
                "a replica must be durable (:open a data directory before :follow)".to_string(),
            );
        }
        let engine = std::mem::take(&mut self.engine);
        let mut replica = Replica::from_engine(engine, addr, ReplicationOptions::default())
            .expect("a durable engine always wraps");
        // An unreachable leader is not an error (the served follower keeps
        // polling); a local durability failure is, and keeps the engine here.
        let caught_up = match replica.catch_up(5) {
            Ok(caught_up) => caught_up,
            Err(e) => {
                self.engine = replica.into_engine();
                return Err(e.to_string());
            }
        };
        let (term, applied) = (replica.term(), replica.applied_seq());
        // The served follower polls with the replica that caught up: one node,
        // one follower id at the leader.
        let bound = self.attach(serve_follower(
            replica,
            "127.0.0.1:0",
            ServerOptions::default(),
            ReplicationOptions::default(),
        ))?;
        Ok(format!(
            "following {addr} (term {term}): applied through seq {applied}{}; serving \
             the follower on {bound}, this session is now its client (:promote to \
             take over, :detach to stop following and reclaim the engine)",
            if caught_up {
                ""
            } else {
                ", leader unreachable (the follower keeps polling)"
            },
        ))
    }

    /// Keep the node just spawned from this session's engine and connect to it
    /// as a client. Whatever fails hands the engine back to the session.
    fn attach(&mut self, spawned: Result<ServerHandle, ServeError>) -> Result<SocketAddr, String> {
        let handle = spawned.map_err(|e| {
            self.engine = *e.engine;
            e.error.to_string()
        })?;
        let bound = handle.addr();
        match Client::connect(bound) {
            Ok(client) => {
                self.server = Some(handle);
                self.remote = Some(client);
                Ok(bound)
            }
            Err(e) => {
                self.engine = handle.shutdown().engine;
                Err(format!("server started but local client failed: {e}"))
            }
        }
    }

    /// `:connect <addr>`: become a client of an already-running server. The
    /// local engine is left untouched and comes back on `:detach`.
    fn connect_cmd(&mut self, addr: &str) -> Result<String, String> {
        if addr.is_empty() {
            return Err(
                ":connect requires a server address, e.g. `:connect 127.0.0.1:7070`".to_string(),
            );
        }
        if self.txn.is_some() {
            return Err("a transaction is open (commit or abort it before :connect)".to_string());
        }
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let epoch = client.epoch().map_err(|e| e.to_string())?;
        self.remote = Some(client);
        Ok(format!(
            "connected to {addr} (epoch {epoch}); queries and :insert/:retract go \
             over the wire (:detach to return to the local session)"
        ))
    }

    /// Leave client mode: stop a `:serve`d or `:follow`ing node (reclaiming
    /// its engine, replicated state included) or just drop a `:connect`ed
    /// session's connection.
    fn detach(&mut self) -> Result<String, String> {
        if self.remote.take().is_none() {
            return Err("no server or remote connection (:serve, :follow or :connect)".to_string());
        }
        let Some(handle) = self.server.take() else {
            return Ok("disconnected; back to the local session".to_string());
        };
        let following = handle.replica_status().map_or(String::new(), |status| {
            format!(
                "stopped following {} (role {}, term {}); ",
                status.leader, status.role, status.term
            )
        });
        let report = handle.shutdown();
        self.engine = report.engine;
        self.txn = None;
        Ok(format!(
            "{following}server stopped at epoch {} ({} request(s) shed); the session \
             reclaimed the engine",
            report.epoch, report.shed
        ))
    }

    /// Command dispatch while in client mode: the curated subset that makes
    /// sense over the wire, everything else a structured refusal.
    fn dispatch_remote(&mut self, line: &str) -> Result<ReplAction, String> {
        if let Some(rest) = line.strip_prefix("?-") {
            return self.remote_query(rest).map(ReplAction::Output);
        }
        if let Some(rest) = line.strip_prefix(':') {
            let (command, argument) = match rest.split_once(char::is_whitespace) {
                Some((c, a)) => (c, a.trim()),
                None => (rest, ""),
            };
            return match command {
                // Quitting the session tears the server down first: its engine
                // flushes the WAL and releases the data-directory lock.
                "quit" | "exit" | "q" => {
                    let _ = self.detach();
                    Ok(ReplAction::Quit)
                }
                "detach" => self.detach().map(ReplAction::Output),
                "insert" => self
                    .remote_mutate('+', ":insert", argument)
                    .map(ReplAction::Output),
                "retract" => self
                    .remote_mutate('-', ":retract", argument)
                    .map(ReplAction::Output),
                "stats" => self.remote_stats().map(ReplAction::Output),
                "promote" => self.remote_promote().map(ReplAction::Output),
                // A spawned node renders its live reactor counters in the
                // `server` facet, and a follower its replication state in the
                // `replication` facet (the engine facets stay behind the server
                // until `:detach` hands the engine back).
                "metrics" => match &self.server {
                    Some(handle) => Ok(ReplAction::Output(self.engine.metrics_json_with(
                        handle.replica_status().as_ref(),
                        Some(&handle.server_metrics()),
                    ))),
                    None => Err(
                        "`:metrics` is remote-less in client mode (:detach to return \
                         to the local session)"
                            .to_string(),
                    ),
                },
                "help" | "h" => Ok(ReplAction::Output(
                    "client mode: ?- <query>. | :insert <fact>. | :retract <fact>. | \
                     :stats | :metrics | :promote | :detach | :quit"
                        .to_string(),
                )),
                other => Err(format!(
                    "`:{other}` is not available in client mode (:detach to return \
                     to the local session)"
                )),
            };
        }
        Err("bare clauses are not available in client mode (use :insert, or :detach)".to_string())
    }

    fn remote(&mut self) -> &mut Client {
        self.remote
            .as_mut()
            .expect("dispatch_remote requires a client")
    }

    fn remote_query(&mut self, text: &str) -> Result<String, String> {
        let reply = self
            .remote()
            .query_with_retry(text.trim(), 6)
            .map_err(|e| e.to_string())?;
        let mut out = format!(
            "% {} answer(s) [remote, epoch {}]",
            reply.rows.len(),
            reply.epoch
        );
        for row in &reply.rows {
            out.push('\n');
            out.push_str(if row.is_empty() { "true" } else { row });
        }
        Ok(out)
    }

    fn remote_mutate(&mut self, sign: char, command: &str, text: &str) -> Result<String, String> {
        let atom = Self::parse_fact(command, text)?;
        let reply = self
            .remote()
            .txn_with_retry(&format!("{sign}{atom}"), 6)
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "{} asserted, {} retracted (epoch {})",
            reply.asserted, reply.retracted, reply.epoch
        ))
    }

    fn remote_stats(&mut self) -> Result<String, String> {
        let stats = self.remote().stats().map_err(|e| e.to_string())?;
        Ok(rows(stats.readings()))
    }

    /// `:promote` in client mode: ask the connected server to promote itself
    /// (it refuses while its leader's lease is still valid).
    fn remote_promote(&mut self) -> Result<String, String> {
        let (role, term) = self.remote().promote().map_err(|e| e.to_string())?;
        Ok(format!("server promoted: role {role}, term {term}"))
    }

    /// Parse one ground fact argument (shared by `:insert` and `:retract`).
    fn parse_fact(command: &str, text: &str) -> Result<Atom, String> {
        let text = text.trim().trim_end_matches('.');
        if text.is_empty() {
            return Err(format!(
                "{command} requires a fact, e.g. `{command} e(1, 2).`"
            ));
        }
        let atom = parse_atom(text).map_err(|e| e.to_string())?;
        if !atom.is_ground() {
            return Err(format!("cannot {} non-ground atom {atom}", &command[1..]));
        }
        Ok(atom)
    }

    /// `:insert` / `:retract`: queue the op in an open transaction, or commit it.
    fn mutate(&mut self, op: WalOp, text: &str) -> Result<String, String> {
        let (command, verb) = match op {
            WalOp::Assert => (":insert", "assert"),
            WalOp::Retract => (":retract", "retract"),
        };
        let atom = Self::parse_fact(command, text)?;
        if let Some(ops) = &mut self.txn {
            ops.push((op, atom.clone()));
            return Ok(format!(
                "queued {verb} {atom} ({} op(s) pending)",
                ops.len()
            ));
        }
        let changed = match op {
            WalOp::Assert => self.engine.insert_atom(&atom),
            WalOp::Retract => self.engine.retract_atom(&atom),
        }
        .map_err(|e| e.to_string())?;
        Ok(match (op, changed) {
            (WalOp::Assert, true) => format!("inserted {atom}"),
            (WalOp::Assert, false) => format!("{atom} already present"),
            (WalOp::Retract, true) => format!("retracted {atom}"),
            (WalOp::Retract, false) => format!("{atom} not present (nothing retracted)"),
        })
    }

    fn begin(&mut self) -> Result<String, String> {
        if self.txn.is_some() {
            return Err("a transaction is already open (commit or abort it first)".to_string());
        }
        self.txn = Some(Vec::new());
        Ok("transaction started; :insert/:retract queue until :commit".to_string())
    }

    fn commit(&mut self) -> Result<String, String> {
        let Some(ops) = self.txn.take() else {
            return Err("no open transaction (start one with :begin)".to_string());
        };
        let mut txn = self.engine.transaction();
        for (op, atom) in &ops {
            txn.queue_atom(*op, atom).map_err(|e| e.to_string())?;
        }
        let summary = txn.commit().map_err(|e| e.to_string())?;
        Ok(format!(
            "committed {} op(s): {} asserted, {} retracted, {} duplicate(s), {} missing",
            ops.len(),
            summary.asserted,
            summary.retracted,
            summary.duplicates,
            summary.missing
        ))
    }

    fn abort(&mut self) -> Result<String, String> {
        match self.txn.take() {
            Some(ops) => Ok(format!(
                "aborted transaction ({} op(s) discarded)",
                ops.len()
            )),
            None => Err("no open transaction (start one with :begin)".to_string()),
        }
    }

    fn parse_query_text(text: &str) -> Result<Query, String> {
        let text = text.trim().trim_end_matches('.');
        if text.is_empty() {
            return Err("expected a query literal, e.g. `t(0, Y)`".to_string());
        }
        parse_query(text).map_err(|e| e.to_string())
    }

    fn prepare(&mut self, text: &str) -> Result<String, String> {
        let query = Self::parse_query_text(text)?;
        let report = self.engine.prepare(&query).map_err(|e| e.to_string())?;
        Ok(format!(
            "prepared {query} [{}]{}",
            report.strategy,
            if report.cached { " (cached)" } else { "" }
        ))
    }

    /// `:limit`: show or set the session's evaluation guardrails. Each
    /// invocation adjusts one axis and leaves the others alone; `:limit off`
    /// clears all three.
    fn limit(&mut self, arg: &str) -> Result<String, String> {
        let options = self.engine.options();
        let (mut deadline, mut facts, mut mem) = (
            options.deadline,
            options.max_derived_facts,
            options.memory_budget_bytes,
        );
        let (kind, value) = match arg.split_once(char::is_whitespace) {
            Some((k, v)) => (k, v.trim()),
            None => (arg, ""),
        };
        let parse = |what: &str, value: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("`:limit {what}` expects a positive number, got `{value}`"))
        };
        match kind {
            "" => {}
            "off" => (deadline, facts, mem) = (None, None, None),
            "time" => deadline = Some(Duration::from_millis(parse("time", value)?)),
            "facts" => facts = Some(parse("facts", value)? as usize),
            "mem" => mem = Some(parse("mem", value)? as usize),
            other => {
                return Err(format!(
                "`:limit` expects `time <ms>`, `facts <n>`, `mem <bytes>`, or `off`, got `{other}`"
            ))
            }
        }
        self.engine.set_limits(deadline, facts, mem);
        Ok(format!("limits: {}", Self::describe_limits(&self.engine)))
    }

    fn describe_limits(engine: &Engine) -> String {
        let options = engine.options();
        let mut parts = Vec::new();
        if let Some(d) = options.deadline {
            parts.push(format!("time {}ms", d.as_millis()));
        }
        if let Some(n) = options.max_derived_facts {
            parts.push(format!("facts {n}"));
        }
        if let Some(b) = options.memory_budget_bytes {
            parts.push(format!("mem {b} byte(s)"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(", ")
        }
    }

    fn run_query(&mut self, text: &str) -> Result<String, String> {
        let query = Self::parse_query_text(text)?;
        // A stale Ctrl-C (one that landed after the previous query already
        // finished) must not cancel this run: reset the shared token first.
        if let Some(token) = &self.engine.options().cancel {
            token.reset();
        }
        let (result, label) = if self.engine.has_prepared(&query) {
            (self.engine.query_prepared(&query), "prepared")
        } else {
            (self.engine.query(&query), "materialized")
        };
        let answers = match result {
            Ok(answers) => answers,
            // A Ctrl-C cancellation is the user's own request, not a fault:
            // report it as plain output, with how far the query got.
            Err(EngineError::Eval(EvalError::LimitExceeded {
                reason: LimitReason::Cancelled,
                elapsed,
                partial_stats,
            })) => {
                return Ok(format!(
                    "cancelled after {:.1?} ({} fact(s) derived; model dropped, facts intact)",
                    elapsed, partial_stats.facts_derived,
                ))
            }
            Err(e) => return Err(e.to_string()),
        };

        let mut out = format!("% {} answer(s) [{label}]", answers.len());
        for line in render_answers(&query, &answers) {
            out.push('\n');
            out.push_str(&line);
        }
        Ok(out)
    }

    fn absorb(&mut self, text: &str) -> Result<String, String> {
        let summary = self.engine.load_source(text).map_err(|e| e.to_string())?;
        let mut parts = Vec::new();
        if summary.rules_added > 0 {
            parts.push(format!("added {} rule(s)", summary.rules_added));
        }
        if summary.facts_added > 0 {
            parts.push(format!("inserted {} fact(s)", summary.facts_added));
        }
        if summary.duplicates > 0 {
            parts.push(format!("{} duplicate(s) ignored", summary.duplicates));
        }
        if parts.is_empty() {
            parts.push("nothing to add".to_string());
        }
        Ok(parts.join(", "))
    }

    /// `:stats`: the cumulative session counters, one row per subsystem (the
    /// `Display` of [`EvalStats`](factorlog_datalog::eval::EvalStats): a
    /// subsystem the session never exercised shows `—` instead of a wall of
    /// zeros), then the state of the session itself.
    fn stats(&self) -> String {
        let mut out = self.engine.stats().to_string();
        let _ = write!(
            out,
            "\nsession: prepared plans: {} cached of {} max; model: {}; tracing: {}",
            self.engine.prepared_count(),
            crate::engine::DEFAULT_PREPARED_CAPACITY,
            if self.engine.is_materialized() {
                "materialized"
            } else {
                "none"
            },
            if self.engine.tracing() { "on" } else { "off" },
        );
        let _ = write!(out, "\nlimits: {}", Self::describe_limits(&self.engine));
        let _ = write!(
            out,
            "\ntransaction: {}",
            match &self.txn {
                Some(ops) => format!("open ({} op(s) queued)", ops.len()),
                None => "none".to_string(),
            }
        );
        if let Some(dir) = self.engine.data_dir() {
            let _ = write!(
                out,
                "\ndurable: dir {}, log {} byte(s)",
                dir.display(),
                self.engine.wal_len().unwrap_or(0),
            );
        }
        out
    }

    /// `:profile on|off|show`.
    fn profile(&mut self, arg: &str) -> Result<String, String> {
        match arg {
            "on" => {
                self.engine.set_tracing(true);
                Ok("profile: on (span timers and latency histograms collecting)".to_string())
            }
            "off" => {
                self.engine.set_tracing(false);
                Ok(
                    "profile: off (collection stopped; collected data retained for :profile show)"
                        .to_string(),
                )
            }
            "" | "show" => Ok(self.show_profile()),
            other => Err(format!(
                "`:profile` expects `on`, `off`, or `show`, got `{other}`"
            )),
        }
    }

    /// Render the collected profile: per-phase spans, optimizer passes, latency
    /// histograms, and per-rule firing times.
    fn show_profile(&self) -> String {
        let mut out = format!(
            "profile: {}",
            if self.engine.tracing() { "on" } else { "off" }
        );
        let stats = self.engine.stats();
        let Some(profile) = stats.profile.as_deref() else {
            out.push_str("\nno profile collected yet (enable with :profile on, then run queries)");
            return out;
        };
        out.push_str("\nphases:");
        if profile.phases.is_empty() {
            out.push_str("\n  —");
        }
        for (name, span) in &profile.phases {
            let _ = write!(out, "\n  {name:<20} {span}");
        }
        if let Some(metrics) = self.engine.metrics() {
            if !metrics.optimize_passes.is_empty() {
                out.push_str("\noptimize passes:");
                for (name, span) in &metrics.optimize_passes {
                    let _ = write!(out, "\n  {name:<20} {span}");
                }
            }
            for (instrument, reading) in metrics.readings() {
                if !reading.is_zero() {
                    let _ = write!(out, "\n{}: {reading}", instrument.label);
                }
            }
        }
        out.push_str("\nrules:");
        if profile.rules.is_empty() {
            out.push_str("\n  —");
        }
        let program = self.engine.program();
        for (i, rule) in profile.rules.iter().enumerate() {
            let text = program
                .rules
                .get(i)
                .map(|r| r.to_string())
                .unwrap_or_else(|| format!("rule #{i}"));
            let _ = write!(
                out,
                "\n  {text}\n    firings {}  time {}  rows in {}  rows out {}",
                rule.firings,
                fmt_ns(rule.time_ns),
                rule.rows_in,
                rule.rows_out
            );
        }
        out
    }

    fn show_program(&self) -> String {
        let program = self.engine.program();
        if program.is_empty() {
            "no rules registered".to_string()
        } else {
            format!("{program}").trim_end().to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(repl: &mut Repl, line: &str) -> String {
        match repl.execute(line) {
            ReplAction::Output(text) => text,
            ReplAction::Quit => panic!("unexpected quit for {line}"),
        }
    }

    #[test]
    fn serve_turns_the_session_into_a_client_and_detach_reclaims_the_engine() {
        let mut repl = Repl::new();
        output(
            &mut repl,
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
        );
        output(&mut repl, ":insert e(0, 1).");

        // A bad address is refused without losing the session's state.
        let err = output(&mut repl, ":serve 256.0.0.1:0");
        assert!(err.starts_with("error:"), "{err}");
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 1 answer(s)"));

        let served = output(&mut repl, ":serve 127.0.0.1:0");
        assert!(served.contains("this session is now a client"), "{served}");
        assert!(
            output(&mut repl, ":insert e(1, 2).").contains("1 asserted, 0 retracted (epoch 1)"),
            "mutations forward over the wire"
        );
        let answers = output(&mut repl, "?- t(0, Y).");
        assert!(
            answers.contains("% 2 answer(s) [remote, epoch"),
            "{answers}"
        );
        assert!(
            answers.contains("\n1\n2") || answers.ends_with("1\n2"),
            "{answers}"
        );
        let stats = output(&mut repl, ":stats");
        assert!(stats.contains("server: epoch 1"), "{stats}");
        // Every declared field of the reply is shown, or its whole row is idle.
        for instrument in crate::server::StatsReply::INSTRUMENTS {
            let idle = format!("{}: —", instrument.group);
            assert!(
                stats.contains(instrument.label) || stats.contains(&idle),
                "no `{}` in {stats}",
                instrument.label
            );
        }
        assert!(
            output(&mut repl, ":compact").starts_with("error:"),
            "local-only commands are refused in client mode"
        );

        let detached = output(&mut repl, ":detach");
        assert!(detached.contains("reclaimed the engine"), "{detached}");
        // The remote mutation survived the round trip back to local mode.
        let answers = output(&mut repl, "?- t(0, Y).");
        assert!(
            answers.contains("% 2 answer(s) [materialized]"),
            "{answers}"
        );
        assert!(
            output(&mut repl, ":detach").starts_with("error:"),
            "nothing to detach from"
        );
    }

    /// A fresh temporary directory for `tag` (removed first if a run left one).
    fn fresh_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "factorlog_repl_{tag}_{}_{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A durable session on `dir` serving `t(X, Y) :- e(X, Y).` with `e(1, 2)`,
    /// and the address it serves on.
    fn served_leader(dir: &std::path::Path) -> (Repl, String) {
        let mut leader = Repl::new();
        output(&mut leader, &format!(":open {}", dir.display()));
        output(&mut leader, "t(X, Y) :- e(X, Y).");
        output(&mut leader, ":insert e(1, 2).");
        let served = output(&mut leader, ":serve 127.0.0.1:0");
        let addr = served
            .split("serving on ")
            .nth(1)
            .and_then(|rest| rest.split(';').next())
            .expect("bound address in the :serve reply")
            .trim()
            .to_string();
        (leader, addr)
    }

    #[test]
    fn follow_replicates_and_promote_makes_the_session_writable() {
        let base = fresh_temp_dir("follow");
        let follower_dir = base.join("follower");

        // Leader: a durable session served over TCP.
        let (mut leader, addr) = served_leader(&base.join("leader"));

        // Follower: must be durable before :follow; then replicates and
        // answers while refusing writes.
        let mut follower = Repl::new();
        assert!(
            output(&mut follower, &format!(":follow {addr}")).starts_with("error:"),
            "non-durable sessions cannot follow"
        );
        output(&mut follower, &format!(":open {}", follower_dir.display()));
        let followed = output(&mut follower, &format!(":follow {addr}"));
        assert!(followed.contains("following"), "{followed}");
        let answers = output(&mut follower, "?- t(1, Y).");
        assert!(answers.ends_with("\n2"), "{answers}");
        let refused = output(&mut follower, ":insert e(9, 9).");
        assert!(refused.starts_with("error:"), "{refused}");
        assert!(refused.contains("server (readonly)"), "{refused}");
        let stats = output(&mut follower, ":stats");
        assert!(stats.contains("replication: role follower"), "{stats}");
        assert!(
            output(&mut follower, ":promote").starts_with("error:"),
            "promotion is refused while the leader's lease is valid"
        );
        let metrics = output(&mut follower, ":metrics");
        assert!(metrics.contains("\"replication\": {"), "{metrics}");
        assert!(metrics.contains("\"role\": \"follower\""), "{metrics}");

        // Leader goes away; once the lease expires the follower promotes and
        // becomes writable, then :detach keeps the replicated state.
        output(&mut leader, ":detach");
        std::thread::sleep(Duration::from_millis(800));
        let promoted = output(&mut follower, ":promote");
        assert!(
            promoted.contains("server promoted: role leader"),
            "{promoted}"
        );
        assert!(
            output(&mut follower, ":insert e(2, 3).").contains("1 asserted"),
            "a promoted replica accepts writes"
        );
        let detached = output(&mut follower, ":detach");
        assert!(detached.contains("stopped following"), "{detached}");
        let answers = output(&mut follower, "?- t(2, Y).");
        assert!(answers.contains("Y = 3"), "{answers}");

        drop(follower);
        drop(leader);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Regression (`:serve` and then `:detach` once turned `facts 5000, mem 1000000
    /// byte(s)` into `time 5000ms, facts 5000`: the served engine ran with no
    /// memory budget, and the server's request deadline stayed behind): a served
    /// engine keeps the session's budget, and `:serve` and `:follow` both hand the
    /// session's own limits back.
    #[test]
    fn serve_and_follow_hand_the_sessions_limits_back() {
        let mut repl = Repl::new();
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        output(&mut repl, ":limit mem 1000000");
        let limits = output(&mut repl, ":limit facts 5000");
        assert_eq!(limits, "limits: facts 5000, mem 1000000 byte(s)");
        output(&mut repl, ":serve 127.0.0.1:0");
        let acked = output(&mut repl, ":insert e(1, 2).");
        assert!(acked.contains("1 asserted"), "{acked}");
        output(&mut repl, ":detach");
        assert_eq!(output(&mut repl, ":limit"), limits);

        // The budget is in force while the engine is served.
        output(&mut repl, ":limit mem 1");
        output(&mut repl, ":serve 127.0.0.1:0");
        let refused = output(&mut repl, ":insert e(2, 3).");
        assert!(refused.contains("server (limit)"), "{refused}");
        output(&mut repl, ":detach");
        assert_eq!(
            output(&mut repl, ":limit"),
            "limits: facts 5000, mem 1 byte(s)"
        );

        let base = fresh_temp_dir("follow_limits");
        let (mut leader, addr) = served_leader(&base.join("leader"));
        let mut follower = Repl::new();
        output(
            &mut follower,
            &format!(":open {}", base.join("follower").display()),
        );
        output(&mut follower, ":limit time 60000");
        let followed = output(&mut follower, &format!(":follow {addr}"));
        assert!(followed.contains("following"), "{followed}");
        output(&mut follower, ":detach");
        assert_eq!(output(&mut follower, ":limit"), "limits: time 60000ms");

        output(&mut leader, ":detach");
        drop((follower, leader));
        std::fs::remove_dir_all(&base).ok();
    }

    /// Regression (the parent promoted here, and both nodes then committed): a
    /// following session idle for two lease timeouts beside a live leader is
    /// still refused promotion, because the served follower renews the lease on
    /// every poll; once the leader stops, promotion succeeds and writes commit.
    #[test]
    fn an_idle_follower_cannot_promote_over_a_live_leader() {
        let base = fresh_temp_dir("split_brain");
        let (mut leader, addr) = served_leader(&base.join("leader"));
        let mut follower = Repl::new();
        output(
            &mut follower,
            &format!(":open {}", base.join("follower").display()),
        );
        let followed = output(&mut follower, &format!(":follow {addr}"));
        assert!(followed.contains("following"), "{followed}");

        let lease = ReplicationOptions::default().lease_timeout;
        std::thread::sleep(lease * 2 + Duration::from_millis(100));
        let refused = output(&mut follower, ":promote");
        assert!(refused.starts_with("error: server (lease)"), "{refused}");
        // The follower is live: the leader's next write reaches it within polls.
        assert!(output(&mut leader, ":insert e(8, 8).").contains("1 asserted"));
        let mut replicated = String::new();
        for _ in 0..100 {
            replicated = output(&mut follower, "?- e(8, Y).");
            if replicated.starts_with("% 1 answer(s)") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(replicated.ends_with("\n8"), "{replicated}");

        output(&mut leader, ":detach");
        let mut promoted = String::new();
        for _ in 0..100 {
            promoted = output(&mut follower, ":promote");
            if !promoted.contains("(lease)") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            promoted.contains("server promoted: role leader"),
            "{promoted}"
        );
        let inserted = output(&mut follower, ":insert e(7, 7).");
        assert!(inserted.contains("1 asserted"), "{inserted}");
        output(&mut follower, ":detach");
        let answers = output(&mut follower, "?- e(X, Y).");
        assert!(answers.contains("X = 7, Y = 7"), "{answers}");
        assert!(answers.contains("X = 8, Y = 8"), "{answers}");

        drop((follower, leader));
        std::fs::remove_dir_all(&base).ok();
    }

    /// Regression (`:follow` used to catch up through one replica and serve
    /// another, so the leader's `STATS` counted two followers, the frozen one
    /// lagging until it was pruned a minute later): a `:follow`ing session is
    /// one follower at its leader, with no lag once it is caught up.
    #[test]
    fn a_followed_leader_sees_one_caught_up_follower() {
        let base = fresh_temp_dir("one_follower");
        let (mut leader, addr) = served_leader(&base.join("leader"));
        let mut follower = Repl::new();
        output(
            &mut follower,
            &format!(":open {}", base.join("follower").display()),
        );
        let followed = output(&mut follower, &format!(":follow {addr}"));
        assert!(followed.contains("following"), "{followed}");
        for fact in ["e(5, 6)", "e(6, 7)"] {
            let inserted = output(&mut leader, &format!(":insert {fact}."));
            assert!(inserted.contains("1 asserted"), "{inserted}");
        }

        let mut client = Client::connect(addr.as_str()).unwrap();
        let mut stats = client.stats().unwrap();
        for _ in 0..200 {
            let replicated = output(&mut follower, "?- e(6, Y).");
            if replicated.starts_with("% 1 answer(s)") && stats.repl_lag_frames == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            stats = client.stats().unwrap();
        }
        assert_eq!(stats.repl_followers, 1, "{stats:?}");
        assert_eq!(stats.repl_lag_frames, 0, "{stats:?}");

        output(&mut follower, ":detach");
        output(&mut leader, ":detach");
        drop((follower, leader));
        std::fs::remove_dir_all(&base).ok();
    }

    /// Regression (at the parent, a Ctrl-C in client mode cancelled the served
    /// engine: the next insert answered `server (cancelled)` though it committed,
    /// and later acks named epochs no read saw): the caller's token reaches the
    /// served engine no more, and comes back with the engine on `:detach`.
    #[test]
    fn ctrl_c_in_a_served_session_leaves_the_server_alone() {
        let mut repl = Repl::new();
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        let token = repl.engine_mut().cancel_token();
        output(&mut repl, ":serve 127.0.0.1:0");
        token.cancel();
        let acked = output(&mut repl, ":insert e(1, 2).");
        assert!(
            acked.contains("1 asserted, 0 retracted (epoch 1)"),
            "{acked}"
        );
        let answers = output(&mut repl, "?- t(1, Y).");
        assert!(
            answers.starts_with("% 1 answer(s) [remote, epoch 1]"),
            "{answers}"
        );
        let detached = output(&mut repl, ":detach");
        assert!(detached.contains("server stopped at epoch 1"), "{detached}");
        let reclaimed = repl.engine_mut().cancel_token();
        assert!(
            reclaimed.is_cancelled(),
            "the engine carries the caller's token again"
        );
        token.reset();
        assert!(!reclaimed.is_cancelled(), "one flag, shared");
        assert!(output(&mut repl, "?- t(1, Y).").contains("Y = 2"));
    }

    #[test]
    fn full_session_transcript() {
        let mut repl = Repl::new();
        assert_eq!(output(&mut repl, "t(X, Y) :- e(X, Y)."), "added 1 rule(s)");
        assert_eq!(
            output(&mut repl, "t(X, Y) :- e(X, W), t(W, Y)."),
            "added 1 rule(s)"
        );
        assert_eq!(output(&mut repl, ":insert e(0, 1)."), "inserted e(0, 1)");
        assert_eq!(output(&mut repl, ":insert e(1, 2)."), "inserted e(1, 2)");
        let answers = output(&mut repl, "?- t(0, Y).");
        assert!(answers.starts_with("% 2 answer(s) [materialized]"));
        assert!(answers.contains("Y = 1") && answers.contains("Y = 2"));

        // Incremental insert, then the same query sees the new fact.
        assert_eq!(output(&mut repl, ":insert e(2, 3)."), "inserted e(2, 3)");
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 3 answer(s)"));

        // Prepare, then the query switches to the prepared plan and hits the cache.
        let prepared = output(&mut repl, ":prepare t(0, Y)");
        assert!(prepared.starts_with("prepared ?- t(0, Y). [magic + factoring]"));
        let answers = output(&mut repl, "?- t(0, Y).");
        assert!(answers.starts_with("% 3 answer(s) [prepared]"));
        assert_eq!(repl.engine().stats().plan_cache_hits, 1);

        let stats = output(&mut repl, ":stats");
        assert!(stats.contains("plan cache: hits 1, misses 1, evicted 0"));
        assert!(stats.contains("prepared plans: 1 cached of 256 max"));
        // The compiled-join counters flow through the cumulative session stats.
        assert!(stats.contains("index probes"), "{stats}");
        assert!(stats.contains("full scans"), "{stats}");

        let program = output(&mut repl, ":program");
        assert!(program.contains("t(X, Y) :- e(X, W), t(W, Y)."));

        assert_eq!(repl.execute(":quit"), ReplAction::Quit);
    }

    #[test]
    fn errors_are_reported_not_propagated() {
        let mut repl = Repl::new();
        assert!(output(&mut repl, ":insert e(X, 1).").starts_with("error:"));
        assert!(output(&mut repl, ":bogus").starts_with("error:"));
        assert!(output(&mut repl, "?- ").starts_with("error:"));
        assert!(output(&mut repl, ":load /nonexistent/path.dl").starts_with("error:"));
        assert!(output(&mut repl, "nonsense here").starts_with("error:"));
    }

    #[test]
    fn blank_lines_comments_and_help() {
        let mut repl = Repl::new();
        assert_eq!(output(&mut repl, ""), "");
        assert_eq!(output(&mut repl, "% a comment"), "");
        assert!(output(&mut repl, ":help").contains(":prepare"));
        assert_eq!(output(&mut repl, ":program"), "no rules registered");
    }

    #[test]
    fn stats_report_evictions_and_join_counters() {
        let mut repl = Repl::new();
        let bound = crate::engine::DEFAULT_PREPARED_CAPACITY;
        output(&mut repl, crate::engine::tests::SHAPED);
        // One more prepared plan than the cache holds: one eviction.
        for k in 0..=bound {
            let query = crate::engine::tests::shaped_query(k);
            output(&mut repl, &format!(":prepare {query}"));
        }
        let stats = output(&mut repl, ":stats");
        let misses = bound + 1;
        assert!(
            stats.contains(&format!("plan cache: hits 0, misses {misses}, evicted 1")),
            "{stats}"
        );
        assert!(
            stats.contains(&format!("prepared plans: {bound} cached of {bound} max")),
            "{stats}"
        );
    }

    #[test]
    fn stats_groups_by_subsystem_with_dashes_for_idle_ones() {
        let mut repl = Repl::new();
        let stats = output(&mut repl, ":stats");
        // Every subsystem heading is present even in a fresh session...
        for heading in ["eval:", "joins:", "mutations:", "wal:"] {
            assert!(stats.contains(heading), "missing {heading} in {stats}");
        }
        // ...and the unexercised ones show a dash, not a wall of zeros.
        assert!(stats.contains("joins: —"), "{stats}");
        assert!(stats.contains("mutations: —"), "{stats}");
        assert!(stats.contains("wal: —"), "{stats}");

        // Exercising a subsystem replaces its dash with counters.
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, "?- t(1, Y).");
        output(&mut repl, ":retract e(1, 2).");
        let stats = output(&mut repl, ":stats");
        assert!(!stats.contains("joins: —"), "{stats}");
        assert!(!stats.contains("mutations: —"), "{stats}");
        assert!(stats.contains("index probes"), "{stats}");
        assert!(stats.contains("literal reorders"), "{stats}");
        assert!(stats.contains("retractions 2, rederivations 0"), "{stats}");
    }

    #[test]
    fn stats_show_every_declared_counter() {
        let mut counters = factorlog_datalog::eval::EvalStats::default();
        for (i, (_, counter)) in counters.counters_mut().enumerate() {
            *counter = 13 * i + 5;
        }
        let mut repl = Repl::new();
        repl.engine_mut().absorb_stats(&counters);
        let stats = output(&mut repl, ":stats");
        for (instrument, reading) in counters.readings() {
            let cell = format!("{} {reading}", instrument.label);
            assert!(
                stats.lines().any(|row| {
                    row.starts_with(&format!("{}: ", instrument.group)) && row.contains(&cell)
                }),
                "no `{cell}` in a `{}` row of:\n{stats}",
                instrument.group
            );
        }
    }

    #[test]
    fn profile_shows_every_declared_engine_instrument() {
        let dir =
            std::env::temp_dir().join(format!("factorlog_repl_profile_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut repl = Repl::new();
        output(&mut repl, &format!(":open {}", dir.display()));
        output(&mut repl, ":profile on");
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, ":prepare t(1, Y)");
        output(&mut repl, "?- t(1, Y).");
        output(&mut repl, ":compact");
        let shown = output(&mut repl, ":profile show");
        let metrics = repl.engine().metrics().expect("tracing is on");
        for (instrument, reading) in metrics.readings() {
            assert!(!reading.is_zero(), "{} never recorded", instrument.name);
            let line = format!("{}: {reading}", instrument.label);
            assert!(shown.contains(&line), "no `{line}` in:\n{shown}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_command_toggles_tracing_and_shows_spans() {
        let mut repl = Repl::new();
        let shown = output(&mut repl, ":profile");
        assert!(shown.contains("no profile collected yet"), "{shown}");
        assert!(output(&mut repl, ":profile nope").starts_with("error:"));

        assert!(output(&mut repl, ":profile on").contains("profile: on"));
        assert!(repl.engine().tracing());
        output(
            &mut repl,
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
        );
        output(&mut repl, ":insert e(0, 1).");
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, "?- t(0, Y).");
        output(&mut repl, ":prepare t(0, Y)");
        output(&mut repl, "?- t(0, Y).");

        let shown = output(&mut repl, ":profile show");
        assert!(shown.starts_with("profile: on"), "{shown}");
        assert!(shown.contains("eval.plan"), "{shown}");
        assert!(shown.contains("eval.round"), "{shown}");
        assert!(shown.contains("optimize passes:"), "{shown}");
        assert!(shown.contains("query latency:"), "{shown}");
        assert!(shown.contains("p50"), "{shown}");
        assert!(shown.contains("t(X, Y) :- e(X, W), t(W, Y)."), "{shown}");
        assert!(shown.contains("firings"), "{shown}");

        // :profile off stops collection but keeps what was gathered.
        assert!(output(&mut repl, ":profile off").contains("profile: off"));
        assert!(!repl.engine().tracing());
        let shown = output(&mut repl, ":profile show");
        assert!(shown.starts_with("profile: off"), "{shown}");
        assert!(shown.contains("eval.round"), "{shown}");
    }

    #[test]
    fn metrics_command_emits_versioned_json() {
        let mut repl = Repl::new();
        output(&mut repl, ":profile on");
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, "?- t(1, Y).");
        let json = output(&mut repl, ":metrics");
        assert!(json.contains("\"factorlog_metrics_version\": 4"), "{json}");
        assert!(json.contains("\"replication\": null"), "{json}");
        assert!(json.contains("\"server\": null"), "{json}");
        assert!(json.contains("\"tracing\": true"), "{json}");
        assert!(json.contains("\"query_latency\""), "{json}");
        assert!(json.contains("\"p99_ns\""), "{json}");
        assert!(json.contains("\"eval.round\""), "{json}");
        assert!(json.contains("t(X, Y) :- e(X, Y)."), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn limit_command_round_trips() {
        let mut repl = Repl::new();
        assert_eq!(output(&mut repl, ":limit"), "limits: none");
        assert_eq!(output(&mut repl, ":limit time 250"), "limits: time 250ms");
        assert_eq!(
            output(&mut repl, ":limit facts 1000"),
            "limits: time 250ms, facts 1000"
        );
        assert_eq!(
            output(&mut repl, ":limit mem 1048576"),
            "limits: time 250ms, facts 1000, mem 1048576 byte(s)"
        );
        let stats = output(&mut repl, ":stats");
        assert!(
            stats.contains("limits: time 250ms, facts 1000, mem 1048576 byte(s)"),
            "{stats}"
        );
        assert_eq!(output(&mut repl, ":limit off"), "limits: none");
        assert!(output(&mut repl, ":limit nope").starts_with("error:"));
        assert!(output(&mut repl, ":limit time soon").starts_with("error:"));
        assert!(output(&mut repl, ":help").contains(":limit"));
    }

    #[test]
    fn tripped_limit_aborts_the_query_and_the_session_stays_usable() {
        let mut repl = Repl::new();
        output(
            &mut repl,
            "counter(N) :- seed(N).\ncounter(M) :- counter(N), succ(N, M).",
        );
        output(&mut repl, ":insert seed(0).");
        output(&mut repl, ":limit facts 100");
        let message = output(&mut repl, "?- counter(X).");
        assert!(message.starts_with("error:"), "{message}");
        assert!(message.contains("derived-fact limit"), "{message}");
        let stats = output(&mut repl, ":stats");
        assert!(stats.contains("limit aborts 1"), "{stats}");
        // The session survives the abort: drop the divergent seed and query again.
        assert!(output(&mut repl, ":retract seed(0).").contains("retracted"));
        output(&mut repl, ":limit off");
        assert!(output(&mut repl, "?- counter(X).").contains("% 0 answer(s)"));
    }

    #[test]
    fn cancellation_mid_query_returns_to_the_prompt() {
        let mut repl = Repl::new();
        output(
            &mut repl,
            "counter(N) :- seed(N).\ncounter(M) :- counter(N), succ(N, M).",
        );
        output(&mut repl, ":insert seed(0).");
        // Simulate Ctrl-C: a clone of the session token cancelled from another
        // thread while the (unbounded) query runs.
        let token = repl.engine_mut().cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let message = output(&mut repl, "?- counter(X).");
        canceller.join().unwrap();
        assert!(message.starts_with("cancelled after"), "{message}");
        assert!(message.contains("facts intact"), "{message}");
        // The still-set token is stale now; the next query resets it instead of
        // dying instantly, and the session keeps answering.
        assert!(output(&mut repl, ":retract seed(0).").contains("retracted"));
        assert!(output(&mut repl, "?- counter(X).").contains("% 0 answer(s)"));
    }

    #[test]
    fn retract_command_round_trips() {
        let mut repl = Repl::new();
        output(&mut repl, "t(X, Y) :- e(X, Y).");
        output(&mut repl, "t(X, Y) :- e(X, W), t(W, Y).");
        for edge in ["e(0, 1).", "e(1, 2).", "e(2, 3)."] {
            output(&mut repl, &format!(":insert {edge}"));
        }
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 3 answer(s)"));
        assert_eq!(output(&mut repl, ":retract e(1, 2)."), "retracted e(1, 2)");
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 1 answer(s)"));
        assert_eq!(
            output(&mut repl, ":retract e(1, 2)."),
            "e(1, 2) not present (nothing retracted)"
        );
        assert!(output(&mut repl, ":retract e(X, 2).").starts_with("error:"));
        let stats = output(&mut repl, ":stats");
        assert!(stats.contains("mutations: retractions"), "{stats}");
    }

    #[test]
    fn transactions_queue_and_commit_atomically() {
        let mut repl = Repl::new();
        output(
            &mut repl,
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
        );
        output(&mut repl, ":insert e(0, 1).");
        output(&mut repl, ":insert e(1, 2).");
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 2 answer(s)"));

        assert!(output(&mut repl, ":begin").contains("transaction started"));
        assert!(
            output(&mut repl, ":begin").starts_with("error:"),
            "no nesting"
        );
        assert!(output(&mut repl, ":insert e(2, 3).").contains("queued assert"));
        assert!(output(&mut repl, ":retract e(0, 1).").contains("queued retract"));
        // Nothing applied yet.
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 2 answer(s)"));
        let stats = output(&mut repl, ":stats");
        assert!(
            stats.contains("transaction: open (2 op(s) queued)"),
            "{stats}"
        );

        let committed = output(&mut repl, ":commit");
        assert!(committed.contains("1 asserted, 1 retracted"), "{committed}");
        assert!(output(&mut repl, "?- t(0, Y).").contains("% 0 answer(s)"));
        assert!(output(&mut repl, "?- t(1, Y).").contains("% 2 answer(s)"));
        assert!(output(&mut repl, ":commit").starts_with("error:"), "closed");

        // Abort discards.
        output(&mut repl, ":begin");
        output(&mut repl, ":insert e(7, 8).");
        assert!(output(&mut repl, ":abort").contains("1 op(s) discarded"));
        assert!(output(&mut repl, "?- t(7, Y).").contains("% 0 answer(s)"));
        assert!(output(&mut repl, ":abort").starts_with("error:"));
    }

    #[test]
    fn save_and_load_round_trip_a_snapshot() {
        let path = std::env::temp_dir().join(format!(
            "factorlog_repl_snapshot_test_{}.fl",
            std::process::id()
        ));
        let path = path.to_str().unwrap().to_string();
        let mut repl = Repl::new();
        output(
            &mut repl,
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
        );
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, ":insert e(2, 3).");
        let saved = output(&mut repl, &format!(":save {path}"));
        assert!(saved.contains("saved"), "{saved}");
        assert!(saved.contains("2 rule(s), 2 fact(s)"), "{saved}");

        // A fresh session absorbs it through the one :load.
        let mut fresh = Repl::new();
        let loaded = output(&mut fresh, &format!(":load {path}"));
        assert_eq!(loaded, "loaded 2 rule(s), 2 fact(s)");
        let answers = output(&mut fresh, "?- t(1, Y).");
        assert!(answers.contains("% 2 answer(s)"), "{answers}");
        assert!(answers.contains("Y = 2") && answers.contains("Y = 3"));
        // Loading it again, or into the session that saved it, adds nothing.
        for session in [&mut fresh, &mut repl] {
            let again = output(session, &format!(":load {path}"));
            assert_eq!(
                again,
                "loaded 0 rule(s), 0 fact(s) (2 duplicate(s) ignored)"
            );
            assert_eq!(output(session, "?- t(1, Y)."), answers);
            assert_eq!(output(session, ":program").lines().count(), 2);
        }
        // And the loaded session keeps mutating incrementally.
        output(&mut fresh, ":retract e(2, 3).");
        assert!(output(&mut fresh, "?- t(1, Y).").contains("% 1 answer(s)"));
        std::fs::remove_file(&path).ok();
        assert!(output(&mut repl, ":save").starts_with("error:"));
    }

    #[test]
    fn load_of_empty_or_missing_files_errors_cleanly() {
        let mut repl = Repl::new();
        // Missing file: clean error naming the path.
        let message = output(&mut repl, ":load /nonexistent/factorlog.dl");
        assert!(message.starts_with("error:"), "{message}");
        assert!(message.contains("/nonexistent/factorlog.dl"), "{message}");
        // Empty file: an explicit "is empty" error instead of silently loading
        // 0 rules and 0 facts.
        let path =
            std::env::temp_dir().join(format!("factorlog_repl_empty_{}.dl", std::process::id()));
        std::fs::write(&path, "  \n").unwrap();
        let message = output(&mut repl, &format!(":load {}", path.display()));
        assert!(message.starts_with("error:"), "{message}");
        assert!(message.contains("is empty"), "{message}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_and_compact_drive_a_durable_session() {
        let dir =
            std::env::temp_dir().join(format!("factorlog_repl_durable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_arg = dir.display().to_string();

        let mut repl = Repl::new();
        assert!(
            output(&mut repl, ":compact").starts_with("error:"),
            "not durable yet"
        );
        let opened = output(&mut repl, &format!(":open {dir_arg}"));
        assert!(opened.contains("opened durable session"), "{opened}");
        assert!(
            opened.contains("snapshot absent, 0 wal record(s) replayed"),
            "{opened}"
        );
        output(
            &mut repl,
            "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).",
        );
        output(&mut repl, ":insert e(1, 2).");
        output(&mut repl, ":begin");
        output(&mut repl, ":insert e(2, 3).");
        output(&mut repl, ":retract e(1, 2).");
        assert!(output(&mut repl, ":commit").contains("1 asserted, 1 retracted"));
        let stats = output(&mut repl, ":stats");
        assert!(stats.contains("durable: dir"), "{stats}");
        assert!(stats.contains("wal: appends 3"), "{stats}");
        let compacted = output(&mut repl, ":compact");
        assert!(compacted.contains("compacted: log"), "{compacted}");

        // :open refuses to silently discard a queued transaction.
        output(&mut repl, ":begin");
        assert!(
            output(&mut repl, &format!(":open {dir_arg}")).starts_with("error:"),
            "open must not discard the queued transaction"
        );
        output(&mut repl, ":abort");
        assert!(output(&mut repl, ":open").starts_with("error:"));

        // Single-writer: a second session is refused while the first holds the
        // directory's LOCK…
        let mut fresh = Repl::new();
        let refused = output(&mut fresh, &format!(":open {dir_arg}"));
        assert!(refused.contains("locked by live process"), "{refused}");
        // …and recovers the committed state once the holder is gone.
        drop(repl);
        let reopened = output(&mut fresh, &format!(":open {dir_arg}"));
        assert!(reopened.contains("snapshot loaded"), "{reopened}");
        let answers = output(&mut fresh, "?- t(2, Y).");
        assert!(answers.contains("% 1 answer(s)"), "{answers}");
        assert!(answers.contains("Y = 3"), "{answers}");
        assert!(output(&mut fresh, "?- t(1, Y).").contains("% 0 answer(s)"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_insert_is_reported() {
        let mut repl = Repl::new();
        output(&mut repl, ":insert e(1, 2).");
        assert_eq!(
            output(&mut repl, ":insert e(1, 2)."),
            "e(1, 2) already present"
        );
    }

    #[test]
    fn load_reads_a_file() {
        let path = std::env::temp_dir().join("factorlog_repl_load_test.dl");
        std::fs::write(&path, "t(X, Y) :- e(X, Y).\ne(1, 2).\n?- t(1, Y).\n").unwrap();
        let mut repl = Repl::new();
        let message = output(&mut repl, &format!(":load {}", path.display()));
        assert!(message.contains("loaded 1 rule(s), 1 fact(s)"));
        assert!(message.contains("file query: ?- t(1, Y)."));
        assert!(output(&mut repl, "?- t(1, Y).").contains("Y = 2"));
        std::fs::remove_file(&path).ok();
    }
}
