//! A concurrent multi-session TCP front end for the [`Engine`]: many reader
//! connections querying an immutable, atomically swappable materialized view,
//! one writer thread owning the engine and group-committing concurrently
//! submitted transactions under a single WAL fsync.
//!
//! # Architecture
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   reactor ───────▶ │  Arc<View { epoch, model: Arc<Database> }> │  lock-free reads
//!     QUERY          │  (RwLock'd Arc swap; readers clone the Arc │  (Database::answers
//!                    │   and answer without touching the engine)  │   on the full model)
//!                    └────────────────▲───────────────────────────┘
//!                                     │ publish after each group
//!   reactor ───────▶ commit queue ───▶ writer thread (owns Engine)
//!     TXN             (bounded by       · group = what queued during the last
//!                      admission)         commit (+ who was in it: group_wait)
//!                                       · Engine::commit_group → ONE fsync,
//!                                         ONE maintenance pass
//!                                       · refresh + publish the next view,
//!                                         paced under read load (PUBLISH_SHARE)
//!                                       · ONE hand-off of the group's replies
//! ```
//!
//! # Protocol
//!
//! One request per line; every response ends with exactly one `OK …` or
//! `ERR <code>: <message>` line (rows precede it):
//!
//! ```text
//! QUERY t(0, Y)        →  ROW 1 ⏎ ROW 2 ⏎ OK rows=2 epoch=7
//! PREPARE t(?, Y)      →  OK id=0 params=1 (a `?` per bound term; the statement
//!                            lives on this connection)
//! EXEC 0 0             →  ROW 1 ⏎ ROW 2 ⏎ OK rows=2 epoch=7 (as the QUERY with
//!                            the arguments in the `?` positions)
//! TXN +e(1, 2); -e(0, 1)  →  OK asserted=1 retracted=1 epoch=8
//! EPOCH                →  OK epoch=8
//! STATS                →  OK epoch=8 in_flight=1 shed=0 … (one line: a `name=value`
//!                            pair per field of [`StatsReply`], in declaration order;
//!                            a client skips the names it does not know)
//! PING                 →  OK pong
//! REPL SUBSCRIBE 12 term=0 id=7  →  FRAME <hex>* ⏎ OK frames=2 last_seq=13 term=0
//! PROMOTE              →  OK role=leader term=3
//! QUIT                 →  OK bye (server closes the connection)
//! ```
//!
//! Error codes: `parse`, `overloaded` (retryable — the message carries a
//! `retry after N ms` hint), `deadline`, `cancelled`, `limit`, `shutdown`,
//! `txn`, `internal`, and for replication `readonly` (TXN on a follower),
//! `fenced` (a superseded ex-leader refuses writes and polls), `lease`
//! (PROMOTE while the leader's lease is still valid), `repl` (subscription
//! against a non-durable server, or a `TERM` file that could not be written).
//!
//! Replication (`REPL SUBSCRIBE`, `PROMOTE`, follower mode via
//! [`serve_follower`](crate::replication::serve_follower)) is documented in
//! [`crate::replication`]. The reactor touches no file: it answers polls from
//! the engine's mirror of what it made durable, and queues term changes to the
//! thread that owns the engine, the only one on the disk once [`serve`] returns.
//!
//! # Guarantees
//!
//! * **Snapshot isolation for readers.** A query is answered entirely from one
//!   `Arc`'d view: it can never observe a partially applied batch, and the
//!   epoch it reports always equals a committed prefix of the transaction
//!   stream.
//! * **Admission control sheds, never queues unboundedly.** A request beyond
//!   `max_in_flight` is rejected immediately with `ERR overloaded: … retry
//!   after N ms` — the client backs off and retries
//!   ([`Client::txn_with_retry`]). Admission is also the commit queue's only
//!   bound: a transaction takes its slot before it is queued and releases it
//!   only once its outcome is delivered, so the queue never holds more than
//!   `max_in_flight` transactions.
//! * **Committed or structured error.** Every transaction either reports
//!   `OK … epoch=E` (durable on the log before the reply is sent) or a
//!   structured `ERR`; a connection killed mid-request loses only its reply,
//!   never the store's consistency.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops admitting, drains
//!   in-flight requests (bounded by `drain_timeout`), cancels stragglers via
//!   the engine's [`CancelToken`], flushes the WAL, and hands the engine back.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use factorlog_datalog::ast::{Const, Query, Term};
use factorlog_datalog::eval::{wire_value, EvalError, EvalOptions, LimitReason};
use factorlog_datalog::fault::CancelToken;
use factorlog_datalog::parser::parse_query;
use factorlog_datalog::storage::Database;

use crate::engine::{Engine, EngineError, OnLog, Op, TxnSummary};
use crate::reactor::{poll_fds, PollFd, WakePipe, POLL_FAIL, POLL_IN, POLL_OUT};
use crate::replication::{self, Replica, ReplicaRole, ReplicaStatus};
use crate::wal::{Mirror, WalOp};

/// Cap on how many queued transactions one group commit will absorb.
const MAX_GROUP: usize = 128;

/// Publish pacing: the writer's share of the time while the reactor is busy with
/// reads. After a group that took `t` to commit and publish, the next one starts no
/// sooner than `(PUBLISH_SHARE - 1) * t * load` later (the wait collects a larger
/// group), where `load` is the *measured* fraction of the time since the previous
/// publish that the reactor spent answering `QUERY`/`EXEC`: a saturated reactor
/// leaves the writer one part in `PUBLISH_SHARE`, an idle one does not pace it at
/// all, and since that time span contains `t`, an ack never waits longer than
/// `PUBLISH_SHARE - 1` times what the reads in it cost (a health check or a
/// read-your-writes client is noise). Every publish hands the readers a fresh copy
/// of the model, cold in their caches, and flushes the reply cache.
///
/// This is not in ISSUE 15 ("never slow the writer") and is here for a reason
/// outside this crate: the `serve_mixed` benchmark workload generates a fixed list
/// of transactions sized for a writer of at most ≈ 58 commits/s beside its reader
/// and fails the run when the list runs out; unpaced, commits there take ≈ 8 ms.
/// Once that list is enlarged, re-measure whether readers need this at all.
const PUBLISH_SHARE: u32 = 6;

/// The longest the writer lingers for pacing's sake, so that one slow group (a
/// compaction, a descheduled thread) is not paid for `PUBLISH_SHARE - 1` times over.
const PUBLISH_LINGER_MAX: Duration = Duration::from_millis(50);

/// The pacing linger (see [`PUBLISH_SHARE`]) after a group that took `group`, when
/// the reactor spent `read_busy` of the `interval` since the previous publish
/// answering reads.
fn publish_linger(group: Duration, read_busy: Duration, interval: Duration) -> Duration {
    let load = (read_busy.as_secs_f64() / interval.as_secs_f64()).min(1.0);
    (group * (PUBLISH_SHARE - 1))
        .mul_f64(load)
        .min(PUBLISH_LINGER_MAX)
}

/// Safety-net poll timeout of the reactor (ms): readiness events and the wake
/// pipe drive the loop; this only bounds how stale a missed wake can go.
const REACTOR_POLL_MS: i32 = 100;

/// Bytes the reactor reads per `read(2)` on a ready connection.
const READ_CHUNK: usize = 16 * 1024;

/// Hard cap on a single request line. An unterminated (or terminated) line
/// longer than this is a protocol violation; a *backlog* of complete
/// pipelined requests larger than this is load, answered with backpressure
/// (stop reading until the backlog drains), never with a close.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How long the reactor leaves the listener out of the poll set after a
/// persistent `accept` error (e.g. `EMFILE`).
const ACCEPT_BACKOFF_MS: u64 = 50;

/// Most prepared statements one connection may hold at once.
const MAX_PREPARED_PER_CONN: usize = 64;

/// Bound on the epoch-keyed rendered-reply cache (entries and bytes per entry).
const REPLY_CACHE_MAX_ENTRIES: usize = 256;
const REPLY_CACHE_MAX_REPLY_BYTES: usize = 64 * 1024;

/// How often reader-side row streaming re-checks the deadline and cancel token.
const ROW_CHECK_INTERVAL: usize = 256;

/// Most WAL frames the leader ships per `REPL SUBSCRIBE` poll (bounds both the
/// reply size and how long the handler holds the reactor).
const REPL_BATCH_FRAMES: usize = 512;

/// Followers absent from `REPL SUBSCRIBE` for this long drop out of the
/// leader's lag accounting (they are likely gone, not lagging).
const FOLLOWER_PRUNE: Duration = Duration::from_secs(60);

/// The `retry after` hint a shed request carries.
const RETRY_AFTER: Duration = Duration::from_millis(25);

/// Tuning knobs of a served engine.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Requests allowed in service at once (readers and writers together).
    /// The one past the cap is shed with `ERR overloaded`, never queued. This is
    /// also the commit queue's only bound. Set by `factorlog serve --max-in-flight`.
    pub max_in_flight: usize,
    /// Per-request wall-clock deadline: replaces the served engine's own (which
    /// keeps its fact cap and memory budget) while it serves, and bounds reader-side
    /// row streaming. `None` disables it. Set by `factorlog serve --deadline-ms`.
    pub request_deadline: Option<Duration>,
    /// The longest a group waits for a submitter that was in flight one group ago
    /// and has not arrived yet (one deadline per group); nobody else is waited for.
    /// Tests widen it to form a known group in bounded time.
    pub group_window: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight requests before
    /// cancelling the stragglers. Tests shorten it to reach the cancellation in
    /// bounded time.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_in_flight: 64,
            request_deadline: Some(Duration::from_secs(5)),
            group_window: Duration::from_millis(1),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The immutable unit readers work against: one epoch, one fully materialized
/// model. Swapped atomically (as an `Arc`) after every committed group, so a
/// reader holding a view can never observe a half-applied batch.
struct View {
    /// Number of committed transaction batches this model includes — always a
    /// prefix of the commit order.
    epoch: u64,
    /// The materialized model ([`Database::answers`] serves any atom query).
    model: Arc<Database>,
}

/// Outcome of one committed (or refused) transaction, as the writer reports it.
type TxnOutcome = Result<(TxnSummary, u64), EngineError>;

/// What the engine's owner answers a queued request with.
enum Outcome {
    /// A transaction's outcome.
    Txn(TxnOutcome),
    /// A rendered reply: a poll's or a promotion's.
    Reply(Vec<u8>),
}

/// The writer→reactor completion channel: outcomes queue here and the wake
/// pipe interrupts the reactor's `poll` so replies go out immediately. The
/// pipe lives *inside* this Arc'd struct so a writer draining the queue after
/// the reactor exited still holds a valid (if unread) descriptor — never a
/// recycled one.
struct Completions {
    queue: Mutex<Vec<(u64, Outcome)>>,
    pipe: WakePipe,
}

impl Completions {
    fn new() -> std::io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            pipe: WakePipe::new()?,
        })
    }

    /// Queue a whole group's outcomes under one lock and wake the reactor once.
    fn push_all(&self, outcomes: Vec<(u64, Outcome)>) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .extend(outcomes);
        self.pipe.handle().wake();
    }

    fn take(&self) -> Vec<(u64, Outcome)> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }

    fn wake(&self) {
        self.pipe.handle().wake();
    }
}

/// Where a queued request's outcome goes: back to the reactor, addressed to the
/// submitting connection. Dropping an unsent ticket (a request discarded
/// without a verdict — only possible mid-shutdown) delivers a structured
/// shutdown error so the connection's admission slot is always released.
struct TxnTicket {
    conn_id: u64,
    completions: Arc<Completions>,
    sent: bool,
}

impl TxnTicket {
    /// Deliver a group's outcomes, one per ticket in order, in one hand-off.
    fn send_group(tickets: Vec<TxnTicket>, outcomes: Vec<Outcome>) {
        let Some(completions) = tickets.first().map(|t| t.completions.clone()) else {
            return;
        };
        let addressed = tickets
            .into_iter()
            .zip(outcomes)
            .map(|(mut ticket, outcome)| {
                ticket.sent = true;
                (ticket.conn_id, outcome)
            });
        completions.push_all(addressed.collect());
    }
}

impl Drop for TxnTicket {
    fn drop(&mut self) {
        if !self.sent {
            let error = EngineError::Durability("server is shutting down".to_string());
            let outcome = Outcome::Txn(Err(error));
            self.completions.push_all(vec![(self.conn_id, outcome)]);
        }
    }
}

/// What the reactor queues for the thread that owns the engine.
enum Request {
    /// A transaction for the commit pipeline.
    Txn(Vec<Op>),
    /// A `REPL SUBSCRIBE` poll carrying a newer term than this node's, which
    /// is persisted before it is adopted ([`answer_newer_term`]).
    Poll { from_seq: u64, term: u64, id: u64 },
    /// `PROMOTE` on a follower ([`promote`]).
    Promote,
}

/// A request queued for the engine's owner, with where its outcome goes.
struct WriteReq {
    request: Request,
    reply: TxnTicket,
}

factorlog_datalog::instruments! {
    /// A point-in-time snapshot of the reactor's and the writer's counters (see
    /// [`ServerHandle::server_metrics`]; the metrics document's `server` object).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ServerMetrics: u64 {
        /// Times the reactor's `poll` returned (readiness events + wakes +
        /// safety-net timeouts).
        reactor_wakeups = Sum, "reactor", "wakeups";
        /// Readiness batches that served at least one request.
        pipelined_batches = Sum, "reactor", "pipelined batches";
        /// Requests served across those batches (`pipelined_requests /
        /// pipelined_batches` is the mean pipeline depth).
        pipelined_requests = Sum, "reactor", "pipelined requests";
        /// Most requests one readiness batch drained from a single connection's
        /// buffer before re-arming.
        max_batch_depth = Max, "reactor", "max batch depth";
        /// `EXEC` requests answered from a prepared statement (no query re-parse).
        prepared_execs = Sum, "reactor", "prepared execs";
        /// Replies served byte-for-byte from the epoch-keyed rendered-reply cache.
        reply_cache_hits = Sum, "reactor", "reply-cache hits";
        /// Microseconds the writer waited for submitters that were in flight one group
        /// ago to join the next (publish pacing excluded; see [`group_wait`]).
        group_wait_us = Sum, "writer", "waited for joiners us";
        /// Microseconds the writer held groups back for publish pacing.
        pace_wait_us = Sum, "writer", "waited for pacing us";
    }
    /// The live counters behind [`ServerMetrics`], incremented with relaxed
    /// ordering by the thread that owns each (the reactor; the writer its waits).
    live struct ServerCounters: AtomicU64 {
        /// Nanoseconds spent answering `QUERY` and `EXEC` requests: the read load the
        /// writer paces its publishes by (see [`PUBLISH_SHARE`]).
        read_busy_ns: AtomicU64,
    }
    /// A `STATS` response: what the server renders and [`Client::stats`] parses.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub wire struct StatsReply {
        /// Current published epoch.
        epoch: u64, "server", "epoch";
        /// Requests in service right now.
        in_flight: usize, "server", "in flight";
        /// Requests shed by admission control so far.
        shed: u64, "server", "shed";
        /// Group commits the engine performed (each one fsync).
        group_commits: u64, "server", "group commits";
        /// Transactions committed through those groups.
        group_txns: u64, "server", "group txns";
        /// Measured batching ratio ([`EvalStats::txns_per_fsync`]).
        txns_per_fsync: f64, "server", "txns/fsync";
        /// The server's replication role.
        role: ReplicaRole, "replication", "role";
        /// The server's replication term.
        term: u64, "replication", "term";
        /// Leader only: followers seen polling within the prune horizon.
        repl_followers: u64, "replication", "followers";
        /// Replication lag in frames: a follower's distance behind its leader, or
        /// a leader's worst-follower distance.
        repl_lag_frames: u64, "replication", "lag frames";
        /// Replication lag in wall-clock ms: time since the follower's last
        /// successful leader contact, or since the leader's stalest follower poll.
        repl_lag_ms: u64, "replication", "lag ms";
    }
}

/// One follower's drain position, as observed from its `REPL SUBSCRIBE` polls
/// (leader-side lag accounting for `STATS`).
struct FollowerLag {
    /// The last sequence number the follower holds (its poll asked for the
    /// next one).
    seq: u64,
    last_poll: Instant,
}

/// Replication facet of the shared state. Present on every server — a plain
/// [`serve`]d node is simply a leader (possibly of term 0, with no followers).
struct ReplState {
    /// [`ReplicaRole`] as a `u8` (`as_u8`/`from_u8`), atomically readable from
    /// the reactor and the apply loop.
    role: AtomicU8,
    term: AtomicU64,
    /// This node's committed log position: the leader's writer advances it
    /// after each group commit, a follower sets it to its applied position.
    last_seq: AtomicU64,
    /// Follower only: the leader's position as of the last successful poll.
    leader_seq: AtomicU64,
    /// Follower only: ms since `started` of the last successful leader
    /// contact. The lease clock for `PROMOTE`.
    last_contact_ms: AtomicU64,
    started: Instant,
    /// Leader only: per-follower drain positions from recent polls.
    followers: Mutex<HashMap<u64, FollowerLag>>,
    /// The engine's mirror of what it made durable, which polls are answered
    /// from (`None` disables `REPL SUBSCRIBE` — there is no committed log to
    /// ship).
    mirror: Option<Arc<Mutex<Mirror>>>,
    /// The apply loop's latest [`Replica::status`]: `Some` iff this server
    /// started as a follower.
    status: Mutex<Option<ReplicaStatus>>,
}

/// State shared by the reactor thread and the writer.
struct Shared {
    view: RwLock<Arc<View>>,
    epoch: AtomicU64,
    in_flight: AtomicUsize,
    shed: AtomicU64,
    /// The engine's `wal_group_commits`, `wal_group_txns` and `txns_per_fsync()` (an
    /// `f64`'s bits), mirrored by the writer after each group.
    group_commits: AtomicU64,
    group_txns: AtomicU64,
    txns_per_fsync: AtomicU64,
    stopping: AtomicBool,
    cancel: CancelToken,
    options: ServerOptions,
    counters: ServerCounters,
    repl: ReplState,
}

impl Shared {
    fn current_view(&self) -> Arc<View> {
        self.view.read().expect("view lock poisoned").clone()
    }

    fn publish(&self, view: View) {
        // View first, epoch second: the epoch atomic must never run ahead of
        // the view a reader can observe, or a reply rendered from the old
        // view could be filed under the new epoch (stale-reply poisoning).
        let epoch = view.epoch;
        *self.view.write().expect("view lock poisoned") = Arc::new(view);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Admission control: take one in-flight slot if under the cap; count the
    /// shed otherwise. Never blocks, never queues.
    fn try_acquire_slot(&self) -> bool {
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.options.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Release a slot taken by [`Shared::try_acquire_slot`]. Reads release in
    /// [`Reactor::serve_cached`] once the reply is rendered; transactions hold
    /// their slot across the commit pipeline and release it when the outcome
    /// is delivered (or the submitter is found dead).
    fn release_slot(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What [`ServerHandle::shutdown`] did, with the engine handed back.
pub struct ShutdownReport {
    /// The engine, drained and WAL-flushed (when `wal_sync` is `Ok`), ready for further single-owner use
    /// (or to be dropped, releasing the data-directory lock), with the limits
    /// (deadline, derived-fact cap, memory budget) and cancellation token it was
    /// served with back in place.
    pub engine: Engine,
    /// Epoch at shutdown: committed transaction batches over the server's life.
    pub epoch: u64,
    /// Requests shed by admission control over the server's life.
    pub shed: u64,
    /// Did the drain finish inside `drain_timeout` (`false` = stragglers were
    /// cancelled via the served engine's own [`CancelToken`])?
    pub drained_cleanly: bool,
    /// The reactor's and the writer's counters at shutdown.
    pub server_metrics: ServerMetrics,
    /// The outcome of the final fsync of the transaction log (always `Ok` for an
    /// in-memory engine). It runs under the engine's fault containment, in the
    /// thread that owned the engine, so a failing or panicking disk shows up
    /// here instead of in the caller.
    pub wal_sync: Result<(), EngineError>,
}

/// A running server: the listener address plus the join handles needed to shut
/// it down. Obtain one from [`serve`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    write_tx: mpsc::Sender<WriteReq>,
    completions: Arc<Completions>,
    reactor_thread: Option<JoinHandle<bool>>,
    writer_thread: Option<JoinHandle<(Engine, Result<(), EngineError>)>>,
    /// The caller's engine options, whose limits and token
    /// [`ServerHandle::shutdown`] restores.
    caller: EvalOptions,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently published epoch (committed transaction batches).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// The server's current replication role (a plain [`serve`]d node is a
    /// leader; a [`serve_follower`](crate::replication::serve_follower)'d one
    /// starts as a follower and may be promoted or fenced while running).
    pub fn role(&self) -> ReplicaRole {
        ReplicaRole::from_u8(self.shared.repl.role.load(Ordering::Acquire))
    }

    /// The server's current replication term.
    pub fn term(&self) -> u64 {
        self.shared.repl.term.load(Ordering::Acquire)
    }

    /// A snapshot of the reactor's and the writer's counters — live, any time.
    pub fn server_metrics(&self) -> ServerMetrics {
        self.shared.counters.snapshot()
    }

    /// A follower's replication state as of its latest poll, with the node's
    /// current role and term (`None` on a node that never followed).
    pub fn replica_status(&self) -> Option<ReplicaStatus> {
        let repl = &self.shared.repl;
        let mut status = repl.status.lock().expect("status lock poisoned").clone()?;
        status.role = self.role();
        status.term = self.term();
        Some(status)
    }

    /// Gracefully shut down: stop admitting (new requests get `ERR shutdown`),
    /// drain in-flight requests for up to `drain_timeout`, cancel stragglers
    /// via the served engine's own [`CancelToken`], flush the WAL (the outcome
    /// is [`ShutdownReport::wal_sync`]), and return the engine with the caller's
    /// limits and token back in place.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.stopping.store(true, Ordering::Release);
        // The reactor owns the drain: it wakes on the pipe, stops accepting,
        // refuses buffered requests with `ERR shutdown`, waits out in-flight
        // transactions (cancelling stragglers at the drain deadline), flushes
        // reply buffers, and reports whether it finished inside the timeout.
        self.completions.wake();
        let drained_cleanly = self
            .reactor_thread
            .take()
            .expect("reactor thread present until shutdown")
            .join()
            .unwrap_or(false);
        // Senders are all gone once the reactor is joined and our own clone is
        // dropped: the writer drains what is queued, flushes the WAL, and
        // returns the engine.
        drop(self.write_tx);
        let (mut engine, wal_sync) = self
            .writer_thread
            .take()
            .expect("writer thread present until shutdown")
            .join()
            .expect("writer thread never panics (engine-contained)");
        // The drain cancelled the server's own token, never the caller's: the
        // returned engine is immediately reusable, answers to its owner's Ctrl-C
        // again, and runs under its owner's limits.
        engine.set_limits_from(&self.caller);
        ShutdownReport {
            engine,
            epoch: self.shared.epoch.load(Ordering::Acquire),
            shed: self.shared.shed.load(Ordering::Relaxed),
            drained_cleanly,
            server_metrics: self.shared.counters.snapshot(),
            wal_sync,
        }
    }
}

/// [`serve`] failed before any thread started, or
/// [`Replica::from_engine`](crate::Replica::from_engine) could not wrap the engine:
/// the engine comes back (its limits and cancellation token included) so a front
/// end (e.g. the REPL's `:serve`) does not lose session state to a typo'd address
/// or an unreadable `TERM` file.
pub struct ServeError {
    /// The engine, as it was passed in (a panic caught while reading its data
    /// directory has dropped its materialized model, as any contained failure
    /// does).
    pub engine: Box<Engine>,
    /// Why serving did not start.
    pub error: EngineError,
}

impl std::fmt::Debug for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeError({})", self.error)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl std::error::Error for ServeError {}

/// Serve `engine` on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
/// The engine moves into the server's writer thread; [`ServerHandle::shutdown`]
/// hands it back. Durable engines keep their data-directory `LOCK` for the
/// server's lifetime (single writer).
///
/// # Panics
///
/// If the accept or writer OS thread cannot be spawned (resource exhaustion).
pub fn serve(
    engine: Engine,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
) -> Result<ServerHandle, ServeError> {
    serve_inner(engine, addr, options, None)
}

/// [`serve`], or with `follow` the replica that polls the leader (its engine is
/// the served one) for [`serve_follower`](crate::replication::serve_follower).
pub(crate) fn serve_inner(
    mut engine: Engine,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
    follow: Option<Replica>,
) -> Result<ServerHandle, ServeError> {
    // What the caller's engine runs under comes back with it, on failure here or
    // at shutdown.
    let caller = engine.options().clone();
    let fail = |mut engine: Engine, error: EngineError| {
        engine.set_limits_from(&caller);
        ServeError {
            engine: Box::new(engine),
            error,
        }
    };
    let io = |what: &'static str| move |e: std::io::Error| EngineError::Io(format!("{what}: {e}"));
    let cancel = CancelToken::new();
    let setup = |engine: &mut Engine| {
        let listener = TcpListener::bind(addr).map_err(io("cannot bind server socket"))?;
        listener
            .set_nonblocking(true)
            .map_err(io("cannot configure listener"))?;
        let addr = listener
            .local_addr()
            .map_err(io("cannot resolve listener address"))?;
        let completions = Completions::new().map_err(io("cannot open reactor wake pipe"))?;

        // Per-request governance rides on the engine's own governor: the request
        // deadline replaces the session's, whose fact cap and memory budget stay in
        // force. The served engine gets a token of its own: the drain cancels
        // stragglers through it, while the caller's (a REPL's Ctrl-C handler holds a
        // clone) must not reach an engine it no longer owns.
        engine.set_limits_from(&EvalOptions {
            deadline: options.request_deadline,
            cancel: Some(cancel.clone()),
            ..caller.clone()
        });

        // The persisted term, read under the engine's containment like every other
        // disk call of the served engine's owner.
        let term = engine.contained(|engine| {
            (engine.data_disk()).map_or(Ok(0), |(disk, dir)| replication::read_term(&*disk, &dir))
        })?;
        // The initial view: epoch 0 is the committed prefix "everything recovered
        // or loaded before serving".
        let model = engine.refreshed_model()?;
        Ok::<_, EngineError>((listener, addr, Arc::new(completions), term, model))
    };
    let (listener, addr, completions, term, model) = match setup(&mut engine) {
        Ok(setup) => setup,
        Err(error) => return Err(fail(engine, error)),
    };
    let mirror = engine.mirror();
    let initial_role = if follow.is_some() {
        ReplicaRole::Follower
    } else {
        ReplicaRole::Leader
    };
    let shared = Arc::new(Shared {
        view: RwLock::new(Arc::new(View {
            epoch: 0,
            model: Arc::new(model),
        })),
        epoch: AtomicU64::new(0),
        in_flight: AtomicUsize::new(0),
        shed: AtomicU64::new(0),
        group_commits: AtomicU64::new(engine.stats().wal_group_commits as u64),
        group_txns: AtomicU64::new(engine.stats().wal_group_txns as u64),
        txns_per_fsync: AtomicU64::new(engine.stats().txns_per_fsync().to_bits()),
        stopping: AtomicBool::new(false),
        cancel,
        options: options.clone(),
        counters: ServerCounters::default(),
        repl: ReplState {
            role: AtomicU8::new(initial_role.as_u8()),
            term: AtomicU64::new(term),
            last_seq: AtomicU64::new(engine.wal_last_seq().unwrap_or(0)),
            leader_seq: AtomicU64::new(0),
            // The lease clock starts "contacted at startup": a fresh follower
            // must wait out one full lease before it can promote.
            last_contact_ms: AtomicU64::new(0),
            started: Instant::now(),
            followers: Mutex::new(HashMap::new()),
            mirror,
            // A follower has a status from the start, as a fresh replica reports it.
            status: Mutex::new(follow.as_ref().map(|f| ReplicaStatus {
                role: ReplicaRole::Follower,
                term,
                leader: f.leader.clone(),
                applied_seq: engine.wal_last_seq().unwrap_or(0),
                ..ReplicaStatus::default()
            })),
        },
    });

    // Unbounded: admission bounds the queue (see the module docs).
    let (write_tx, write_rx) = mpsc::channel::<WriteReq>();

    // Both threads meet the caller here first thing: a thread carries its name only
    // once it runs, and callers place threads by name right after `serve` returns.
    let started = Arc::new(Barrier::new(3));
    let (writer_started, reactor_started) = (started.clone(), started.clone());
    let writer_shared = shared.clone();
    let writer_name = follow
        .as_ref()
        .map_or("factorlog-writer", |_| "factorlog-follower");
    let writer_thread = std::thread::Builder::new()
        .name(writer_name.to_string())
        .spawn(move || {
            writer_started.wait();
            let mut engine = match follow {
                None => writer_core(engine, write_rx, &writer_shared),
                Some(replica) => follower_loop(engine, write_rx, &writer_shared, replica),
            };
            // The served engine's last disk call, in the thread that made the others.
            let wal_sync = engine.contained(Engine::sync_wal);
            (engine, wal_sync)
        })
        .expect("cannot spawn writer thread");

    let reactor_shared = shared.clone();
    let reactor_tx = write_tx.clone();
    let reactor_completions = completions.clone();
    let reactor_thread = std::thread::Builder::new()
        .name("factorlog-reactor".to_string())
        .spawn(move || {
            reactor_started.wait();
            Reactor::new(listener, reactor_shared, reactor_tx, reactor_completions).run()
        })
        .expect("cannot spawn reactor thread");
    started.wait();

    Ok(ServerHandle {
        addr,
        shared,
        write_tx,
        completions,
        reactor_thread: Some(reactor_thread),
        writer_thread: Some(writer_thread),
        caller,
    })
}

/// How long the writer waits before committing a group of `batch_len` requests
/// (zero: commit now): for joiners only while fewer have arrived than the `expect`
/// submitters demonstrably in flight one cycle ago, and only until the group's one
/// deadline (`to_deadline` away, never re-armed by an arrival); for publish pacing
/// (`pace` left to `not_before`, see [`PUBLISH_SHARE`]) whoever has arrived.
fn group_wait(batch_len: usize, expect: usize, to_deadline: Duration, pace: Duration) -> Duration {
    match batch_len {
        n if n >= MAX_GROUP => Duration::ZERO,
        n if n < expect => to_deadline.max(pace),
        _ => pace,
    }
}

/// The commit pipeline: block for a first transaction, wait ([`group_wait`]) for
/// the submitters known to be in flight, commit the whole batch under one fsync and
/// one maintenance pass, publish the next view, then reply to every submitter in one
/// hand-off. A poll with a newer term, or a `PROMOTE`, is answered as it arrives
/// ([`take_txn`]).
fn writer_core(mut engine: Engine, rx: mpsc::Receiver<WriteReq>, shared: &Shared) -> Engine {
    let mut epoch = shared.epoch.load(Ordering::Acquire);
    // Publish pacing (see [`PUBLISH_SHARE`]): the next group does not start
    // committing before `not_before`; `published` is when the last view went out and
    // the reactor's read time as of then.
    let read_busy = || Duration::from_nanos(shared.counters.read_busy_ns.load(Ordering::Relaxed));
    let mut not_before = Instant::now();
    let mut published = (not_before, read_busy());
    // The group being formed (it starts as what queued behind the previous one), how
    // many submitters were in flight when that one went out, and the time waited so far.
    let mut batch: Vec<(Vec<Op>, TxnTicket)> = Vec::new();
    let mut expect = 1;
    let (mut group_waited, mut pace_waited) = (Duration::ZERO, Duration::ZERO);
    'serve: loop {
        while batch.is_empty() {
            // Every sender gone: the server is shutting down and the queue is fully
            // drained (recv yields buffered requests before reporting disconnection).
            let Ok(first) = rx.recv() else { break 'serve };
            batch.extend(take_txn(&mut engine, shared, first));
        }
        let deadline = Instant::now() + shared.options.group_window;
        loop {
            let now = Instant::now();
            let pace = not_before.saturating_duration_since(now);
            let to_deadline = deadline.saturating_duration_since(now);
            let wait = group_wait(batch.len(), expect, to_deadline, pace);
            if wait.is_zero() {
                break;
            }
            let arrival = rx.recv_timeout(wait);
            let waited = now.elapsed();
            pace_waited += waited.min(pace);
            group_waited += waited.saturating_sub(pace);
            // Timed out (nothing is left to wait for) or every sender is gone.
            let Ok(req) = arrival else { break };
            batch.extend(take_txn(&mut engine, shared, req));
        }

        let started = Instant::now();
        let (ops, replies): (Vec<_>, Vec<_>) = batch.drain(..).unzip();
        let results = engine.commit_group(&ops, OnLog::No);

        // Assign each committed batch the epoch that first includes it; the
        // view published below carries the last of them, so a client holding
        // `OK … epoch=E` observes its write in every view with epoch >= E.
        let mut outcomes = Vec::with_capacity(results.len());
        for result in results {
            outcomes.push(Outcome::Txn(result.map(|summary| {
                epoch += 1;
                (summary, epoch)
            })));
        }
        // Publish before replying: a reply in hand means the write is visible.
        // A failed refresh (injected fault, tripped limit) keeps the previous
        // view — still a committed prefix — and retries on the next group; the
        // commits themselves are already durable either way.
        if let Ok(model) = engine.refreshed_model() {
            shared.publish(View {
                epoch,
                model: Arc::new(model),
            });
        }
        let now = (Instant::now(), read_busy());
        not_before =
            now.0 + publish_linger(now.0 - started, now.1 - published.1, now.0 - published.0);
        published = now;
        let (stats, waits) = (engine.stats(), &shared.counters);
        for (counter, value) in [
            (&shared.group_commits, stats.wal_group_commits as u64),
            (&shared.group_txns, stats.wal_group_txns as u64),
            (&shared.txns_per_fsync, stats.txns_per_fsync().to_bits()),
            (&waits.group_wait_us, group_waited.as_micros() as u64),
            (&waits.pace_wait_us, pace_waited.as_micros() as u64),
        ] {
            counter.store(value, Ordering::Relaxed);
        }
        // Publish our committed log position for subscribers' lag accounting.
        shared
            .repl
            .last_seq
            .store(engine.wal_last_seq().unwrap_or(0), Ordering::Release);
        // What queued behind this group opens the next; with this group's submitters
        // (not acked yet, so not among them) it is who is demonstrably in flight. A
        // submitter that died simply never reads its reply; the commit stands.
        let queued = std::iter::from_fn(|| rx.try_recv().ok());
        batch.extend(
            queued
                .filter_map(|req| take_txn(&mut engine, shared, req))
                .take(MAX_GROUP),
        );
        expect = replies.len() + batch.len();
        TxnTicket::send_group(replies, outcomes);
    }
    engine
}

/// Hand a transaction back for the writer's group; answer a term change (a poll
/// with a newer term, or `PROMOTE`) at once: it is not a commit, so it neither
/// waits for a group nor counts toward one.
fn take_txn(engine: &mut Engine, shared: &Shared, req: WriteReq) -> Option<(Vec<Op>, TxnTicket)> {
    let mut out = Vec::new();
    match req.request {
        Request::Txn(ops) => return Some((ops, req.reply)),
        Request::Poll { from_seq, term, id } => {
            let persist = || replication::persist_term(engine, term);
            answer_newer_term(shared, (from_seq, term, id), persist, &mut out);
        }
        Request::Promote => handle_promote(shared, &mut out),
    }
    TxnTicket::send_group(vec![req.reply], vec![Outcome::Reply(out)]);
    None
}

/// The follower's apply loop, standing where a leader's [`writer_core`]
/// stands: instead of committing submitted transactions (those are refused
/// with `ERR readonly` before they reach the queue), it polls the leader,
/// applies shipped frames, and publishes each applied prefix as a fresh view —
/// readers on this node see the leader's history, stale-bounded by one poll.
/// Every successful poll renews the lease stamp [`promote`] checks, the one
/// promotion gate, in this same thread. Once `PROMOTE` succeeds, the loop
/// hands the replica's engine to [`writer_core`] and the node commits writes
/// as a leader.
fn follower_loop(
    engine: Engine,
    rx: mpsc::Receiver<WriteReq>,
    shared: &Shared,
    mut replica: Replica,
) -> Engine {
    let poll_interval = replica.options.poll_interval;
    *replica.engine_mut() = engine;
    // Requests never push the next poll back: only a poll renews the lease
    // [`promote`] checks, so a stream of `PROMOTE`s must not starve the polls.
    let mut next_poll = Instant::now() + poll_interval;
    loop {
        // The node's term is the replica's, which only grows.
        shared.repl.term.fetch_max(replica.term(), Ordering::AcqRel);
        *shared.repl.status.lock().expect("status lock poisoned") = Some(replica.status());
        match rx.recv_timeout(next_poll.saturating_duration_since(Instant::now())) {
            Ok(WriteReq { request, reply }) => {
                let mut out = Vec::new();
                let (outcome, promoted) = match request {
                    Request::Txn(_) => {
                        let refusal = "replica is read-only: write to the leader or promote it";
                        let refusal = EngineError::Durability(refusal.to_string());
                        (Outcome::Txn(Err(refusal)), false)
                    }
                    Request::Poll { from_seq, term, id } => {
                        let persist = || replica.adopt_term(term);
                        answer_newer_term(shared, (from_seq, term, id), persist, &mut out);
                        (Outcome::Reply(out), false)
                    }
                    Request::Promote => {
                        let promoted = promote(&mut replica, shared, &mut out);
                        (Outcome::Reply(out), promoted)
                    }
                };
                TxnTicket::send_group(vec![reply], vec![outcome]);
                if promoted {
                    return writer_core(replica.into_engine(), rx, shared);
                }
                if Instant::now() < next_poll {
                    continue;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return replica.into_engine(),
        }
        next_poll = Instant::now() + poll_interval;
        // Local durability failures (our own log or image) leave the
        // current view serving; the next poll retries.
        let Ok(report) = replica.sync_once() else {
            continue;
        };
        if report.contacted {
            shared.repl.last_contact_ms.store(
                shared.repl.started.elapsed().as_millis() as u64,
                Ordering::Relaxed,
            );
        }
        shared
            .repl
            .leader_seq
            .store(replica.leader_seq(), Ordering::Relaxed);
        let applied = replica.applied_seq();
        let progressed = applied > shared.repl.last_seq.load(Ordering::Acquire);
        if progressed || report.bootstrapped {
            shared.repl.last_seq.store(applied, Ordering::Release);
            // Publish the applied prefix — the epoch is the leader's log
            // position, so a reader can relate replies across the fleet.
            if let Ok(model) = replica.engine_mut().refreshed_model() {
                shared.publish(View {
                    epoch: applied,
                    model: Arc::new(model),
                });
            }
        }
    }
}

/// One connection's reactor-side state: the nonblocking socket plus the
/// incremental read and write buffers that make partial requests survive
/// readiness boundaries (the bug class the old polling read loop had) and let
/// a whole pipelined batch of replies leave in one write.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed; a request is complete once it has
    /// a terminating `\n`. Partial tails persist across readiness events.
    inbuf: Vec<u8>,
    /// Rendered replies not yet written to the socket (`outpos` marks the
    /// already-written prefix).
    outbuf: Vec<u8>,
    outpos: usize,
    /// A request is queued for the engine's owner (a transaction, or a term
    /// change): request draining is paused so replies stay in request order,
    /// and one admission slot is held.
    awaiting_reply: bool,
    /// Flush the remaining `outbuf`, then close (set by `QUIT`, protocol
    /// violations, and shutdown).
    closing: bool,
    /// Drop the connection now (peer gone, socket error).
    dead: bool,
    /// `PREPARE`d statements, addressed by the id `EXEC` carries.
    prepared: HashMap<u64, PreparedStmt>,
    next_prepared: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            awaiting_reply: false,
            closing: false,
            dead: false,
            prepared: HashMap::new(),
            next_prepared: 1,
        }
    }

    /// Write as much of `outbuf` as the socket accepts without blocking.
    fn flush_out(&mut self) {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
            if self.closing {
                self.dead = true;
            }
        } else if self.outpos > READ_CHUNK {
            // Reclaim the written prefix of a large, partially flushed reply.
            self.outbuf.drain(..self.outpos);
            self.outpos = 0;
        }
    }
}

/// A `PREPARE`d query: parsed once, its `?` placeholders recorded as term
/// positions so `EXEC` only parses the constants it binds.
struct PreparedStmt {
    /// Normalized source text — the reply-cache fingerprint, so two
    /// connections preparing the same text share cached replies.
    src: String,
    query: Query,
    /// Term positions of the `?` placeholders, in placeholder order.
    params: Vec<usize>,
}

/// Rendered replies keyed by request fingerprint, valid for exactly one
/// epoch: any published view invalidates the whole cache. Lives on the
/// reactor thread — no locks.
struct ReplyCache {
    epoch: u64,
    map: HashMap<String, Vec<u8>>,
}

impl ReplyCache {
    fn new() -> ReplyCache {
        ReplyCache {
            epoch: u64::MAX,
            map: HashMap::new(),
        }
    }

    fn lookup(&mut self, epoch: u64, key: &str) -> Option<&Vec<u8>> {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.map.clear();
            return None;
        }
        self.map.get(key)
    }

    fn insert(&mut self, epoch: u64, key: String, reply: Vec<u8>) {
        if self.epoch != epoch || reply.len() > REPLY_CACHE_MAX_REPLY_BYTES {
            return;
        }
        if self.map.len() >= REPLY_CACHE_MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(key, reply);
    }
}

/// The event-driven front end: ONE thread drives the listener and every
/// connection through a `poll(2)` readiness loop over nonblocking sockets.
/// Idle connections cost one pollfd entry, not a thread; every complete
/// request already buffered is served before re-arming (pipelining), and the
/// batch's replies leave in one write.
struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    write_tx: mpsc::Sender<WriteReq>,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    cache: ReplyCache,
    /// Scratch: rendered reply of the request being served (moved to the
    /// conn's outbuf, optionally copied into the cache).
    scratch: Vec<u8>,
    /// Set after a persistent `accept` error (e.g. `EMFILE`): the listener is
    /// left out of the poll set until this instant, so a readable listener we
    /// cannot accept from does not spin the reactor.
    accept_backoff_until: Option<Instant>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        write_tx: mpsc::Sender<WriteReq>,
        completions: Arc<Completions>,
    ) -> Reactor {
        Reactor {
            listener,
            shared,
            write_tx,
            completions,
            conns: HashMap::new(),
            next_conn: 1,
            cache: ReplyCache::new(),
            scratch: Vec::new(),
            accept_backoff_until: None,
        }
    }

    /// Run until shutdown; returns whether the drain finished inside
    /// `drain_timeout` (`false` = straggling transactions were cancelled).
    fn run(mut self) -> bool {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_conns: Vec<u64> = Vec::new();
        loop {
            let stopping = self.shared.stopping.load(Ordering::Acquire);
            fds.clear();
            fd_conns.clear();
            fds.push(PollFd::new(self.completions.pipe.poll_fd(), POLL_IN));
            let accepting = !stopping
                && match self.accept_backoff_until {
                    Some(until) if Instant::now() < until => false,
                    _ => {
                        self.accept_backoff_until = None;
                        true
                    }
                };
            let listener_slot = if accepting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLL_IN));
                1
            } else {
                usize::MAX
            };
            for (&id, conn) in &self.conns {
                // No POLL_IN for a closing conn (unread inbound bytes would
                // make every poll return instantly while we wait out a slow
                // reader's flush) or while the inbuf backlog is over the cap
                // (backpressure: drain before reading more). Error/hangup
                // conditions are reported even with no requested events.
                let mut events = 0;
                if !conn.closing && conn.inbuf.len() <= MAX_REQUEST_BYTES {
                    events |= POLL_IN;
                }
                if conn.outpos < conn.outbuf.len() {
                    events |= POLL_OUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_conns.push(id);
            }
            if poll_fds(&mut fds, REACTOR_POLL_MS).is_err() {
                // Only EINVAL-class failures reach here (EINTR is absorbed);
                // back off instead of spinning.
                std::thread::sleep(Duration::from_millis(5));
            }
            self.shared
                .counters
                .reactor_wakeups
                .fetch_add(1, Ordering::Relaxed);
            if fds[0].ready(POLL_IN) {
                self.completions.pipe.drain();
            }
            self.deliver_completions();
            if self.shared.stopping.load(Ordering::Acquire) {
                return self.drain();
            }
            if listener_slot != usize::MAX && fds[listener_slot].ready(POLL_IN | POLL_FAIL) {
                self.accept_ready();
            }
            let conn_fds_base = if listener_slot == usize::MAX { 1 } else { 2 };
            for (slot, &id) in fd_conns.iter().enumerate() {
                let pollfd = fds[conn_fds_base + slot];
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                if pollfd.ready(POLL_IN | POLL_FAIL) && !conn.closing {
                    self.read_and_serve(id);
                }
                if let Some(conn) = self.conns.get_mut(&id) {
                    if pollfd.ready(POLL_OUT | POLL_FAIL) || !conn.outbuf.is_empty() {
                        conn.flush_out();
                    }
                }
            }
            self.reap_dead();
        }
    }

    /// Deliver queued transaction outcomes to their connections. Each outcome
    /// releases the admission slot its submission took — whether or not the
    /// submitter is still alive — and resumes the connection's paused request
    /// draining (pipelined requests behind a TXN).
    fn deliver_completions(&mut self) {
        for (conn_id, outcome) in self.completions.take() {
            self.shared.release_slot();
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                continue; // submitter died mid-commit; the commit stands
            };
            conn.awaiting_reply = false;
            let _ = match outcome {
                Outcome::Txn(Ok((summary, epoch))) => writeln!(
                    conn.outbuf,
                    "OK asserted={} retracted={} epoch={epoch}",
                    summary.asserted, summary.retracted
                ),
                Outcome::Txn(Err(error)) => respond_engine_error(&mut conn.outbuf, &error),
                Outcome::Reply(reply) => conn.outbuf.write_all(&reply),
            };
            self.serve_buffered(conn_id);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.flush_out();
            }
        }
    }

    /// Accept every pending connection (the listener is nonblocking).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent failure (EMFILE and kin): the listener stays
                    // readable, so back off briefly instead of re-polling it
                    // into a busy loop.
                    self.accept_backoff_until =
                        Some(Instant::now() + Duration::from_millis(ACCEPT_BACKOFF_MS));
                    break;
                }
            }
        }
    }

    /// Pull every byte the socket has, then serve every complete request.
    fn read_and_serve(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    // The limit is per LINE, not per buffer: only an
                    // unterminated line longer than the cap is a protocol
                    // violation. A backlog of complete pipelined requests is
                    // load, not a violation — stop reading and let
                    // `serve_buffered` drain it (backpressure), then resume.
                    let partial = match conn.inbuf.iter().rposition(|&b| b == b'\n') {
                        Some(nl) => conn.inbuf.len() - nl - 1,
                        None => conn.inbuf.len(),
                    };
                    if partial > MAX_REQUEST_BYTES {
                        let _ = respond_err(
                            &mut conn.outbuf,
                            "parse",
                            "request exceeds the 1 MiB line limit",
                        );
                        conn.closing = true;
                        conn.inbuf.clear();
                        break;
                    }
                    if conn.inbuf.len() > MAX_REQUEST_BYTES {
                        break;
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        self.serve_buffered(conn_id);
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            // One write carries the whole batch's replies.
            conn.flush_out();
        }
    }

    /// Serve every complete request in the connection's buffer — the
    /// pipelining core. Draining pauses at a submitted transaction (replies
    /// must stay in request order) and resumes when its outcome is delivered.
    fn serve_buffered(&mut self, conn_id: u64) {
        let mut served = 0u64;
        let mut consumed = 0usize;
        let mut line = String::new();
        while let Some(conn) = self.conns.get_mut(&conn_id) {
            if conn.awaiting_reply || conn.closing || conn.dead {
                break;
            }
            let Some(nl) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            if nl > MAX_REQUEST_BYTES {
                // A terminated line can slip past the partial-line check in
                // `read_and_serve` when its newline lands in the same read
                // chunk that pushes it over the cap.
                let _ = respond_err(
                    &mut conn.outbuf,
                    "parse",
                    "request exceeds the 1 MiB line limit",
                );
                conn.closing = true;
                consumed = conn.inbuf.len();
                break;
            }
            let raw = &conn.inbuf[consumed..consumed + nl];
            consumed += nl + 1;
            line.clear();
            match std::str::from_utf8(raw) {
                Ok(text) => line.push_str(text.trim()),
                Err(_) => {
                    let _ = respond_err(&mut conn.outbuf, "parse", "request is not valid UTF-8");
                    continue;
                }
            }
            if line.is_empty() {
                continue;
            }
            served += 1;
            self.serve_request(conn_id, &line);
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.inbuf.drain(..consumed);
        }
        if served > 0 {
            let counters = &self.shared.counters;
            counters.pipelined_batches.fetch_add(1, Ordering::Relaxed);
            counters
                .pipelined_requests
                .fetch_add(served, Ordering::Relaxed);
            counters
                .max_batch_depth
                .fetch_max(served, Ordering::Relaxed);
        }
    }

    /// Dispatch one request line for `conn_id`, appending the reply (or
    /// submitting the transaction) as a side effect.
    fn serve_request(&mut self, conn_id: u64, request: &str) {
        let shared = self.shared.clone();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if shared.stopping.load(Ordering::Acquire) {
            let _ = respond_err(&mut conn.outbuf, "shutdown", "server is shutting down");
            conn.closing = true;
            return;
        }
        if request.eq_ignore_ascii_case("QUIT") {
            let _ = writeln!(conn.outbuf, "OK bye");
            conn.closing = true;
            return;
        }
        let (verb, rest) = match request.split_once(char::is_whitespace) {
            Some((verb, rest)) => (verb, rest.trim()),
            None => (request, ""),
        };
        if verb.eq_ignore_ascii_case("QUERY") {
            // Manual slot accounting (not the RAII guard): the slot must stay
            // held across `serve_cached`, which releases it.
            if !shared.try_acquire_slot() {
                let _ = respond_overloaded(&mut conn.outbuf);
                return;
            }
            let text = rest.trim().trim_end_matches('.');
            self.serve_cached(
                conn_id,
                &format!("QUERY\u{1}{text}"),
                |shared, view, out| handle_query(text, shared, view, out),
            );
            return;
        }
        if verb.eq_ignore_ascii_case("PREPARE") {
            handle_prepare(conn, rest);
            return;
        }
        if verb.eq_ignore_ascii_case("EXEC") {
            self.serve_exec(conn_id, rest, &shared);
            return;
        }
        if verb.eq_ignore_ascii_case("TXN") {
            self.submit_txn(conn_id, rest, &shared);
            return;
        }
        // Ungoverned, like STATS: replication must stay alive under reader load,
        // or a shed storm would starve every follower into failover. What goes to
        // the engine's owner still holds a slot until its reply is delivered.
        let queued = if verb.eq_ignore_ascii_case("REPL") {
            handle_repl(rest, &shared, &mut conn.outbuf)
        } else if verb.eq_ignore_ascii_case("PROMOTE") {
            Some(Request::Promote)
        } else {
            let _ = handle_misc(verb, &shared, &mut conn.outbuf);
            None
        };
        if let Some(request) = queued {
            shared.in_flight.fetch_add(1, Ordering::AcqRel);
            self.submit(conn_id, request, &shared);
        }
    }

    /// Serve a read through the epoch-keyed rendered-reply cache: a hit is a
    /// byte copy; a miss renders via `render`, then caches successful replies.
    /// The caller has already taken (and here releases) the admission slot.
    fn serve_cached(
        &mut self,
        conn_id: u64,
        key: &str,
        render: impl FnOnce(&Shared, &View, &mut Vec<u8>) -> std::io::Result<()>,
    ) {
        // Snapshot the view ONCE and key the cache by ITS epoch. Loading the
        // epoch atomic separately races with `publish`: a reply rendered from
        // the old view could be cached under the new epoch and served stale
        // for the rest of that epoch, breaking read-your-writes after a TXN
        // ack (`OK … epoch=E` promises the write is visible at every epoch
        // >= E).
        let started = Instant::now();
        let view = self.shared.current_view();
        let epoch = view.epoch;
        if let Some(reply) = self.cache.lookup(epoch, key) {
            self.shared
                .counters
                .reply_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.outbuf.extend_from_slice(reply);
            }
        } else {
            self.scratch.clear();
            let mut scratch = std::mem::take(&mut self.scratch);
            let _ = render(&self.shared, &view, &mut scratch);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.outbuf.extend_from_slice(&scratch);
            }
            if reply_is_ok(&scratch) {
                self.cache.insert(epoch, key.to_string(), scratch.clone());
            }
            self.scratch = scratch;
        }
        self.shared.release_slot();
        self.shared
            .counters
            .read_busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Answer `EXEC <id> [consts]`: bind the prepared statement's placeholders
    /// and answer from the current view without re-parsing the query.
    fn serve_exec(&mut self, conn_id: u64, rest: &str, shared: &Arc<Shared>) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let (id_text, args) = match rest.split_once(char::is_whitespace) {
            Some((id, args)) => (id, args.trim()),
            None => (rest, ""),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            let _ = respond_err(&mut conn.outbuf, "parse", "usage: EXEC <id> [consts]");
            return;
        };
        // Bind before admitting: the statement borrow (of the connection map)
        // must end before `serve_cached` re-borrows it, and a bad id is a
        // protocol error, not load.
        let (key, bound) = match conn.prepared.get(&id) {
            Some(stmt) => (
                format!("EXEC\u{1}{}\u{1}{args}", stmt.src),
                bind_prepared(stmt, args),
            ),
            None => {
                let _ = respond_err(
                    &mut conn.outbuf,
                    "parse",
                    &format!("no prepared statement with id {id} on this connection"),
                );
                return;
            }
        };
        if !shared.try_acquire_slot() {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                let _ = respond_overloaded(&mut conn.outbuf);
            }
            return;
        }
        shared
            .counters
            .prepared_execs
            .fetch_add(1, Ordering::Relaxed);
        self.serve_cached(conn_id, &key, move |shared, view, out| match bound {
            Ok(query) => answer_query(&query, shared, view, out),
            Err(message) => respond_err(out, "parse", &message),
        });
    }

    /// Parse, admit, and submit a transaction; the reply is delivered by
    /// [`Reactor::deliver_completions`] when the writer reports the outcome.
    fn submit_txn(&mut self, conn_id: u64, spec: &str, shared: &Arc<Shared>) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        match ReplicaRole::from_u8(shared.repl.role.load(Ordering::Acquire)) {
            ReplicaRole::Leader => {}
            ReplicaRole::Follower => {
                let _ = respond_err(
                    &mut conn.outbuf,
                    "readonly",
                    "this node is a replica: write to the leader or PROMOTE it",
                );
                return;
            }
            ReplicaRole::Fenced => {
                let _ = respond_err(
                    &mut conn.outbuf,
                    "fenced",
                    &format!(
                        "superseded by term {}; this ex-leader refuses writes",
                        shared.repl.term.load(Ordering::Acquire)
                    ),
                );
                return;
            }
        }
        let ops = match parse_txn_ops(spec) {
            Ok(ops) => ops,
            Err(message) => {
                let _ = respond_err(&mut conn.outbuf, "parse", &message);
                return;
            }
        };
        if !shared.try_acquire_slot() {
            let _ = respond_overloaded(&mut conn.outbuf);
            return;
        }
        self.submit(conn_id, Request::Txn(ops), shared);
    }

    /// Queue `request` for the engine's owner, holding the admission slot the
    /// caller took; [`Reactor::deliver_completions`] delivers its outcome.
    fn submit(&mut self, conn_id: u64, request: Request, shared: &Shared) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let req = WriteReq {
            request,
            reply: TxnTicket {
                conn_id,
                completions: self.completions.clone(),
                sent: false,
            },
        };
        // A writer gone is shutdown. The refused ticket's Drop would release the
        // slot via a completion; do it directly so the refusal is synchronous.
        match self.write_tx.send(req) {
            Ok(()) => conn.awaiting_reply = true,
            Err(mpsc::SendError(req)) => {
                let _ = respond_err(&mut conn.outbuf, "shutdown", "server is shutting down");
                let mut ticket = req.reply;
                ticket.sent = true; // suppress the Drop completion
                drop(ticket);
                shared.release_slot();
            }
        }
    }

    /// Drain mode, entered once `stopping` is observed: refuse buffered
    /// requests, deliver outstanding transaction outcomes, flush reply
    /// buffers — all bounded by `drain_timeout`, after which stragglers are
    /// cancelled via the engine's [`CancelToken`] and given one grace period.
    fn drain(&mut self) -> bool {
        let deadline = Instant::now() + self.shared.options.drain_timeout;
        // Refuse whatever is already buffered (`ERR shutdown`), then flush.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.serve_buffered(id);
            if let Some(conn) = self.conns.get_mut(&id) {
                if !conn.awaiting_reply {
                    conn.closing = true;
                }
                conn.flush_out();
            }
        }
        self.reap_dead();
        let mut cancelled = false;
        loop {
            let outstanding = self.conns.values().any(|c| c.awaiting_reply);
            let unflushed = self.conns.values().any(|c| c.outpos < c.outbuf.len());
            if !outstanding && !unflushed {
                return !cancelled;
            }
            let now = Instant::now();
            if now >= deadline {
                if !cancelled {
                    cancelled = true;
                    // Stragglers: abort their evaluations cooperatively. They
                    // surface as structured `ERR cancelled` replies.
                    self.shared.cancel.cancel();
                } else if now >= deadline + self.shared.options.drain_timeout {
                    // The grace period is over; the writer will still drain
                    // the queue after we exit, but clients get EOF.
                    return false;
                }
            }
            let mut fds = vec![PollFd::new(self.completions.pipe.poll_fd(), POLL_IN)];
            let mut fd_conns = Vec::new();
            for (&id, conn) in &self.conns {
                if conn.outpos < conn.outbuf.len() {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), POLL_OUT));
                    fd_conns.push(id);
                }
            }
            if poll_fds(&mut fds, 20).is_err() {
                std::thread::sleep(Duration::from_millis(5));
            }
            if fds[0].ready(POLL_IN) {
                self.completions.pipe.drain();
            }
            self.deliver_completions();
            for (slot, &id) in fd_conns.iter().enumerate() {
                if fds[1 + slot].ready(POLL_OUT | POLL_FAIL) {
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.flush_out();
                    }
                }
            }
            self.reap_dead();
        }
    }

    /// Drop dead connections. A dead submitter's admission slot is NOT
    /// released here — its outcome is still coming and releases the slot in
    /// [`Reactor::deliver_completions`].
    fn reap_dead(&mut self) {
        self.conns.retain(|_, conn| !conn.dead);
    }
}

/// Does a rendered reply end in an `OK …` verdict line (cacheable)?
fn reply_is_ok(reply: &[u8]) -> bool {
    if !reply.ends_with(b"\n") {
        return false;
    }
    let body = &reply[..reply.len() - 1];
    let start = body
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    body[start..].starts_with(b"OK ")
}

/// Dispatch the verbs that need no connection state and no admission slot:
/// `PING`, `EPOCH`, `STATS`, and the unknown-verb error. (The others live on
/// [`Reactor::serve_request`].) `Err` means the *socket* failed (disconnect);
/// protocol-level failures are reported in-band as `ERR` lines.
fn handle_misc(verb: &str, shared: &Shared, out: &mut impl Write) -> std::io::Result<()> {
    if verb.eq_ignore_ascii_case("PING") {
        writeln!(out, "OK pong")?;
        return out.flush();
    }
    if verb.eq_ignore_ascii_case("EPOCH") {
        writeln!(out, "OK epoch={}", shared.epoch.load(Ordering::Acquire))?;
        return out.flush();
    }
    if verb.eq_ignore_ascii_case("STATS") {
        return handle_stats(shared, out);
    }
    respond_err(out, "parse", &format!("unknown request `{verb}`"))
}

/// Milliseconds since the follower last heard from its leader.
///
/// The contact stamp is loaded FIRST: `started.elapsed()` taken after the
/// load is ≥ every stamp recorded before it, so the subtraction cannot
/// underflow. (The old code captured `elapsed` first, so a sync landing
/// between the two reads made `contact > elapsed` and the saturating_sub
/// reported a spurious 0 — or, without saturation, would have underflowed.)
/// A sync landing after the load only makes the result an overestimate
/// bounded by the load-to-elapsed gap, which is the safe direction for both
/// the lease gate and the lag stat.
fn ms_since_leader_contact(repl: &ReplState) -> u64 {
    let contact = repl.last_contact_ms.load(Ordering::Acquire);
    (repl.started.elapsed().as_millis() as u64).saturating_sub(contact)
}

/// Answer `STATS`: admission/commit counters plus the replication facet
/// (role, term, and lag — follower lag against its leader, or the leader's
/// worst-follower lag from recent subscription polls).
fn handle_stats(shared: &Shared, out: &mut impl Write) -> std::io::Result<()> {
    let repl = &shared.repl;
    let role = ReplicaRole::from_u8(repl.role.load(Ordering::Acquire));
    let last_seq = repl.last_seq.load(Ordering::Acquire);
    let replica = repl.status.lock().expect("status lock poisoned").is_some();
    let (followers, lag_frames, lag_ms) = if replica {
        // A (possibly promoted or fenced) replica: lag against its leader.
        // `lag_ms` is ms since the last successful leader contact.
        let lag = repl
            .leader_seq
            .load(Ordering::Relaxed)
            .saturating_sub(last_seq);
        (0u64, lag, ms_since_leader_contact(repl))
    } else {
        // A leader: worst lag over the live followers.
        let mut followers = repl.followers.lock().expect("follower map poisoned");
        followers.retain(|_, lag| lag.last_poll.elapsed() < FOLLOWER_PRUNE);
        let lag_frames = followers
            .values()
            .map(|f| last_seq.saturating_sub(f.seq))
            .max()
            .unwrap_or(0);
        let lag_ms = followers
            .values()
            .map(|f| f.last_poll.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0);
        (followers.len() as u64, lag_frames, lag_ms)
    };
    let reply = StatsReply {
        epoch: shared.epoch.load(Ordering::Acquire),
        in_flight: shared.in_flight.load(Ordering::Acquire),
        shed: shared.shed.load(Ordering::Relaxed),
        group_commits: shared.group_commits.load(Ordering::Relaxed),
        group_txns: shared.group_txns.load(Ordering::Relaxed),
        txns_per_fsync: f64::from_bits(shared.txns_per_fsync.load(Ordering::Relaxed)),
        role,
        term: repl.term.load(Ordering::Acquire),
        repl_followers: followers,
        repl_lag_frames: lag_frames,
        repl_lag_ms: lag_ms,
        ..StatsReply::from(shared.counters.snapshot())
    };
    writeln!(out, "OK {}", reply.to_wire())?;
    out.flush()
}

/// Answer `REPL SUBSCRIBE <from_seq> [term=T] [id=I]` ([`answer_poll`]), or
/// return the request that hands a poll carrying a newer term than ours to the
/// engine's owner ([`answer_newer_term`]).
fn handle_repl(rest: &str, shared: &Shared, out: &mut Vec<u8>) -> Option<Request> {
    let Some((from_seq, term, id)) = parse_subscribe(rest) else {
        let usage = "usage: REPL SUBSCRIBE <from_seq> [term=T] [id=I]";
        let _ = respond_err(out, "parse", usage);
        return None;
    };
    let repl = &shared.repl;
    if term > repl.term.load(Ordering::Acquire) && repl.mirror.is_some() {
        // The subscriber proves a newer leader was elected: a node that thought
        // it was the leader refuses writes from now on, whatever the term's
        // write does (refusing writes is always safe).
        let (leader, fenced) = (ReplicaRole::Leader.as_u8(), ReplicaRole::Fenced.as_u8());
        let _ = repl
            .role
            .compare_exchange(leader, fenced, Ordering::AcqRel, Ordering::Acquire);
        return Some(Request::Poll { from_seq, term, id });
    }
    let _ = answer_poll(shared, from_seq, id, out);
    None
}

/// Answer a poll whose term is not newer than ours: refused on a fenced node,
/// and otherwise the committed WAL frames from `from_seq` on (led by the image
/// when compaction outran the subscriber), copied from the engine's mirror.
fn answer_poll(shared: &Shared, from_seq: u64, id: u64, out: &mut Vec<u8>) -> std::io::Result<()> {
    let repl = &shared.repl;
    let Some(mirror) = repl.mirror.as_ref() else {
        return respond_err(
            out,
            "repl",
            "this server is not durable; nothing to replicate",
        );
    };
    let my_term = repl.term.load(Ordering::Acquire);
    if repl.role.load(Ordering::Acquire) == ReplicaRole::Fenced.as_u8() {
        return respond_err(out, "fenced", &format!("superseded by term {my_term}"));
    }
    let step = {
        let mirror = mirror.lock().expect("mirror lock poisoned");
        replication::stream_step(&mirror, from_seq, REPL_BATCH_FRAMES)
    };
    // Record this follower's drain position for leader-side lag accounting.
    if id != 0 {
        let mut followers = repl.followers.lock().expect("follower map poisoned");
        followers.retain(|_, lag| lag.last_poll.elapsed() < FOLLOWER_PRUNE);
        followers.insert(
            id,
            FollowerLag {
                seq: from_seq.saturating_sub(1),
                last_poll: Instant::now(),
            },
        );
    }
    for frame in &step.frames {
        writeln!(out, "FRAME {}", replication::to_hex(frame))?;
    }
    writeln!(
        out,
        "OK frames={} last_seq={} term={my_term}",
        step.frames.len(),
        step.last_seq
    )
}

/// Answer, in the engine's owner, a poll that carried a newer term than ours
/// when the reactor queued it: the term is adopted only once `persist` wrote
/// it, so that after a failed write the next such poll writes again. Then the
/// poll is answered like any other ([`answer_poll`]): a follower keeps serving
/// frames (chained replication stays valid: its log is a committed prefix).
fn answer_newer_term(
    shared: &Shared,
    (from_seq, term, id): (u64, u64, u64),
    persist: impl FnOnce() -> Result<(), EngineError>,
    out: &mut Vec<u8>,
) {
    let repl = &shared.repl;
    if term > repl.term.load(Ordering::Acquire) {
        if let Err(error) = persist() {
            let _ = respond_err(out, "repl", &error.to_string());
            return;
        }
        repl.term.fetch_max(term, Ordering::AcqRel);
    }
    let _ = answer_poll(shared, from_seq, id, out);
}

/// The arguments of `REPL SUBSCRIBE` (`rest` follows `REPL`): exactly one
/// `<from_seq>` and at most one `term=` and one `id=`, all unsigned (`term` and
/// `id` default to 0). A subscriber's term is the fencing input, so anything
/// else is refused rather than read as 0.
fn parse_subscribe(rest: &str) -> Option<(u64, u64, u64)> {
    let mut tokens = rest.split_whitespace();
    if !tokens.next()?.eq_ignore_ascii_case("SUBSCRIBE") {
        return None;
    }
    let (mut from_seq, mut term, mut id) = (None, None, None);
    for token in tokens {
        let (slot, value) = match token.split_once('=') {
            None => (&mut from_seq, token),
            Some(("term", value)) => (&mut term, value),
            Some(("id", value)) => (&mut id, value),
            Some(_) => return None,
        };
        if slot.replace(value.parse::<u64>().ok()?).is_some() {
            return None;
        }
    }
    Some((from_seq?, term.unwrap_or(0), id.unwrap_or(0)))
}

/// Answer `PROMOTE` in the writer: idempotent on a leader, refused on a fenced
/// ex-leader. (A follower's apply loop answers it with [`promote`].)
fn handle_promote(shared: &Shared, out: &mut impl Write) {
    let term = shared.repl.term.load(Ordering::Acquire);
    let _ = match ReplicaRole::from_u8(shared.repl.role.load(Ordering::Acquire)) {
        ReplicaRole::Fenced => respond_err(
            out,
            "fenced",
            &format!("superseded by term {term}; restart this node as a follower"),
        ),
        _ => writeln!(out, "OK role=leader term={term}"),
    };
}

/// Answer `PROMOTE` on a follower, in its apply loop — the thread that renews
/// the lease and owns the disk: refused until the leader has been out of
/// contact for a full lease timeout; then the bumped term is persisted before
/// the role flips (a promotion that does not survive our own crash could let
/// the old leader fence us back). Returns whether the node now leads.
fn promote(replica: &mut Replica, shared: &Shared, out: &mut Vec<u8>) -> bool {
    let repl = &shared.repl;
    let since_contact_ms = ms_since_leader_contact(repl);
    let lease_ms = replica.options.lease_timeout.as_millis() as u64;
    if since_contact_ms < lease_ms {
        let still = lease_ms - since_contact_ms;
        let message = format!("leader lease still valid for {still} more ms; refusing promotion");
        let _ = respond_err(out, "lease", &message);
        return false;
    }
    let new_term = repl.term.load(Ordering::Acquire).max(replica.term()) + 1;
    if let Err(error) = replica.adopt_term(new_term) {
        let _ = respond_err(out, "repl", &error.to_string());
        return false;
    }
    repl.term.fetch_max(new_term, Ordering::AcqRel);
    let leader = ReplicaRole::Leader.as_u8();
    repl.role.store(leader, Ordering::Release);
    handle_promote(shared, out);
    true
}

/// Parse and answer a `QUERY` from the current view.
fn handle_query(
    text: &str,
    shared: &Shared,
    view: &View,
    out: &mut impl Write,
) -> std::io::Result<()> {
    // Accept the REPL's clause syntax: a trailing period is noise here.
    let text = text.trim().trim_end_matches('.');
    let query = match parse_query(text) {
        Ok(query) => query,
        Err(e) => return respond_err(out, "parse", &e.to_string()),
    };
    answer_query(&query, shared, view, out)
}

/// Answer an already-parsed query from the caller's view snapshot (whose
/// epoch keys the reply cache — see [`Reactor::serve_cached`]), with periodic
/// deadline/cancellation checks while rendering rows.
fn answer_query(
    query: &Query,
    shared: &Shared,
    view: &View,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let started = Instant::now();
    let answers = view.model.answers(query);
    let mut rendered = String::new();
    for (i, row) in answers.iter().enumerate() {
        if i % ROW_CHECK_INTERVAL == 0 && i > 0 {
            if let Some(deadline) = shared.options.request_deadline {
                if started.elapsed() >= deadline {
                    return respond_err(
                        out,
                        "deadline",
                        &format!(
                            "deadline of {deadline:.1?} exceeded after {:.1?} ({i} of {} row(s) sent)",
                            started.elapsed(),
                            answers.len()
                        ),
                    );
                }
            }
            if shared.cancel.is_cancelled() || shared.stopping.load(Ordering::Acquire) {
                return respond_err(out, "shutdown", "server is shutting down");
            }
        }
        rendered.clear();
        rendered.push_str("ROW ");
        for (j, value) in row.iter().enumerate() {
            if j > 0 {
                rendered.push_str(", ");
            }
            let _ =
                std::fmt::Write::write_fmt(&mut rendered, format_args!("{}", Term::Const(*value)));
        }
        writeln!(out, "{rendered}")?;
    }
    writeln!(out, "OK rows={} epoch={}", answers.len(), view.epoch)?;
    out.flush()
}

/// Handle `PREPARE <query>`: parse once with `?` placeholders, store the
/// statement on the connection, and reply `OK id=<id> params=<count>`.
fn handle_prepare(conn: &mut Conn, text: &str) {
    if conn.prepared.len() >= MAX_PREPARED_PER_CONN {
        let _ = respond_err(
            &mut conn.outbuf,
            "limit",
            &format!("connection already holds {MAX_PREPARED_PER_CONN} prepared statements"),
        );
        return;
    }
    match prepare_statement(text) {
        Ok(stmt) => {
            let id = conn.next_prepared;
            conn.next_prepared += 1;
            let params = stmt.params.len();
            conn.prepared.insert(id, stmt);
            let _ = writeln!(conn.outbuf, "OK id={id} params={params}");
        }
        Err(message) => {
            let _ = respond_err(&mut conn.outbuf, "parse", &message);
        }
    }
}

/// Compile `PREPARE` text into a [`PreparedStmt`]: each `?` outside a string
/// literal becomes a fresh variable, the rewritten query is parsed once, and
/// the placeholder term positions are recorded in placeholder order.
fn prepare_statement(text: &str) -> Result<PreparedStmt, String> {
    let src = text.trim().trim_end_matches('.').to_string();
    let mut rewritten = String::with_capacity(src.len() + 16);
    let mut names: Vec<String> = Vec::new();
    for (i, piece) in split_outside_strings(&src, '?').into_iter().enumerate() {
        if i > 0 {
            // `_Param` prefix: uppercase-or-underscore start makes it a
            // variable; distinct from the parser's `_anon` names, and
            // suffixed past any collision with the query's own text.
            let mut name = format!("_Param{}", names.len());
            while src.contains(&name) {
                name.push('_');
            }
            rewritten.push_str(&name);
            names.push(name);
        }
        rewritten.push_str(piece);
    }
    // Zero-placeholder statements are legal: EXEC then behaves like a cached,
    // re-parse-free QUERY.
    let query = parse_query(&rewritten).map_err(|e| e.to_string())?;
    let mut params = vec![usize::MAX; names.len()];
    for (pos, term) in query.atom.terms.iter().enumerate() {
        if let Term::Var(symbol) = term {
            if let Some(slot) = names.iter().position(|n| n == symbol.as_str()) {
                if params[slot] != usize::MAX {
                    return Err("internal: placeholder bound twice".to_string());
                }
                params[slot] = pos;
            }
        }
    }
    if params.contains(&usize::MAX) {
        return Err("placeholders are only supported in term positions".to_string());
    }
    Ok(PreparedStmt { src, query, params })
}

/// Split `text` at every `sep` that lies outside a string literal. A string runs
/// to the next unescaped `"`; an escape the lexer knows (`\"`, `\\`, `\n`) is
/// skipped whole, so its second character neither ends the string nor splits.
fn split_outside_strings(text: &str, sep: char) -> Vec<&str> {
    let mut pieces = Vec::new();
    let (mut start, mut in_string) = (0, false);
    let mut chars = text.char_indices();
    while let Some((i, ch)) = chars.next() {
        match ch {
            '\\' if in_string => {
                chars.next();
            }
            '"' => in_string = !in_string,
            _ if ch == sep && !in_string => {
                pieces.push(&text[start..i]);
                start = i + ch.len_utf8();
            }
            _ => {}
        }
    }
    pieces.push(&text[start..]);
    pieces
}

/// Bind `EXEC` arguments into a prepared statement, yielding a ground-where-
/// bound query. Arguments are parsed as constants by wrapping them in a tiny
/// synthetic atom — the only parsing `EXEC` does.
fn bind_prepared(stmt: &PreparedStmt, args: &str) -> Result<Query, String> {
    let consts: Vec<Const> = if args.is_empty() {
        Vec::new()
    } else {
        let parsed = parse_query(&format!("x({args})"))
            .map_err(|e| format!("bad EXEC arguments `{args}`: {e}"))?;
        let mut consts = Vec::with_capacity(parsed.atom.terms.len());
        for term in &parsed.atom.terms {
            match term {
                Term::Const(value) => consts.push(*value),
                Term::Var(_) => {
                    return Err(format!(
                        "EXEC arguments must be constants, got variable in `{args}`"
                    ))
                }
            }
        }
        consts
    };
    if consts.len() != stmt.params.len() {
        return Err(format!(
            "prepared statement takes {} argument(s), got {}",
            stmt.params.len(),
            consts.len()
        ));
    }
    let mut query = stmt.query.clone();
    for (&pos, &value) in stmt.params.iter().zip(consts.iter()) {
        query.atom.terms[pos] = Term::Const(value);
    }
    Ok(query)
}

/// Parse `+p(1, 2); -q(foo)` into transaction ops, split at the `;`s outside string
/// literals. Every atom must be ground.
fn parse_txn_ops(spec: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for part in split_outside_strings(spec, ';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (op, rest) = if let Some(rest) = part.strip_prefix('+') {
            (WalOp::Assert, rest)
        } else if let Some(rest) = part.strip_prefix('-') {
            (WalOp::Retract, rest)
        } else {
            return Err(format!(
                "transaction op `{part}` must start with `+` (assert) or `-` (retract)"
            ));
        };
        let atom_text = rest.trim().trim_end_matches('.');
        let atom = parse_query(atom_text)
            .map_err(|e| format!("bad atom in `{part}`: {e}"))?
            .atom;
        let Some(tuple) = atom.as_fact() else {
            return Err(format!("transaction atom `{atom_text}` must be ground"));
        };
        ops.push((op, atom.predicate, tuple));
    }
    if ops.is_empty() {
        return Err("empty transaction".to_string());
    }
    Ok(ops)
}

fn respond_overloaded(out: &mut impl Write) -> std::io::Result<()> {
    respond_err(
        out,
        "overloaded",
        &format!(
            "server at capacity; retry after {} ms",
            RETRY_AFTER.as_millis()
        ),
    )
}

/// Map an engine error onto a protocol error code.
fn respond_engine_error(out: &mut impl Write, error: &EngineError) -> std::io::Result<()> {
    let code = match error {
        EngineError::Parse(_) => "parse",
        EngineError::ArityMismatch { .. } | EngineError::NonGroundFact(_) => "txn",
        EngineError::Eval(EvalError::LimitExceeded { reason, .. }) => match reason {
            LimitReason::Cancelled => "cancelled",
            LimitReason::Deadline { .. } => "deadline",
            LimitReason::DerivedFacts { .. } | LimitReason::MemoryBudget { .. } => "limit",
        },
        EngineError::Eval(_) => "eval",
        EngineError::Durability(_) | EngineError::Locked { .. } => "durability",
        EngineError::Io(_) | EngineError::Transform(_) => "internal",
    };
    respond_err(out, code, &error.to_string())
}

fn respond_err(out: &mut impl Write, code: &str, message: &str) -> std::io::Result<()> {
    // Protocol lines are single lines: flatten any embedded newlines.
    let message = message.replace('\n', " | ");
    writeln!(out, "ERR {code}: {message}")?;
    out.flush()
}

/// Jitter a backoff delay uniformly into `(delay/2, delay]`. Without this,
/// every client shed by the same overload retries on the same schedule and the
/// herd stampedes back in lockstep. Dependency-free: a splitmix64 stream over
/// a process-global counter seeded from the clock and pid.
fn jittered(delay: Duration) -> Duration {
    static STATE: AtomicU64 = AtomicU64::new(0);
    if STATE.load(Ordering::Relaxed) == 0 {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5_DEEC_E66D)
            ^ ((std::process::id() as u64) << 32);
        // `| 1`: never store 0, the "unseeded" sentinel.
        let _ = STATE.compare_exchange(0, seed | 1, Ordering::Relaxed, Ordering::Relaxed);
    }
    let mut x = STATE.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let nanos = delay.as_nanos() as u64;
    let span = (nanos / 2).max(1);
    Duration::from_nanos(nanos - span + 1 + x % span)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A client-side error.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The socket failed (connect refused, disconnect mid-response).
    Io(String),
    /// The server sent something the client cannot interpret.
    Protocol(String),
    /// The server answered with a structured `ERR` line.
    Server {
        /// The error code (`overloaded`, `deadline`, `shutdown`, …).
        code: String,
        /// The human-readable message after the code.
        message: String,
    },
}

impl ClientError {
    /// Is this an `overloaded` shed — the one error class the server asks the
    /// client to retry after a backoff?
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if code == "overloaded")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => write!(f, "server ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successful `QUERY` response.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// One rendered row per answer, in the server's (sorted) answer order.
    pub rows: Vec<String>,
    /// Epoch of the view the query was answered from.
    pub epoch: u64,
}

/// A successful `TXN` response.
#[derive(Clone, Copy, Debug)]
pub struct TxnReply {
    /// Facts asserted (new).
    pub asserted: usize,
    /// Facts retracted (present and removed).
    pub retracted: usize,
    /// The first epoch whose view includes this transaction.
    pub epoch: u64,
}

/// A server-side prepared statement handle, scoped to the [`Client`]
/// connection that created it.
#[derive(Clone, Copy, Debug)]
pub struct Prepared {
    /// The id `EXEC` sends.
    pub id: u64,
    /// Number of `?` placeholders the statement takes.
    pub params: usize,
}

/// A line-protocol client with exponential-backoff retry for shed requests.
/// One request in flight at a time per client (the protocol is synchronous).
///
/// Idempotent reads ([`Client::query`]) transparently reconnect and retry
/// once when the connection drops; writes ([`Client::txn`]) never do — a
/// dropped connection mid-commit leaves the outcome unknown, and a blind
/// retry could double-apply.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The server's resolved address, kept for reconnects.
    addr: SocketAddr,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        Client::over(stream)
    }

    /// Connect within `timeout`, after which any read or write that waits as long
    /// fails too: a peer that accepts and never answers fails the request instead
    /// of blocking the caller for good. A zero `timeout` bounds nothing.
    pub(crate) fn connect_within(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        if timeout.is_zero() {
            return Client::connect(addr);
        }
        let io = |e: std::io::Error| ClientError::Io(e.to_string());
        let mut last = ClientError::Io(format!("{addr} resolves to no address"));
        for addr in addr.to_socket_addrs().map_err(io)? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout)).map_err(io)?;
                    stream.set_write_timeout(Some(timeout)).map_err(io)?;
                    return Client::over(stream);
                }
                Err(e) => last = io(e),
            }
        }
        Err(last)
    }

    fn over(stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true).ok();
        let addr = stream
            .peer_addr()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer: stream,
            addr,
        })
    }

    /// Replace the dropped connection with a fresh one to the same address.
    /// Connection-scoped state (prepared statements) does not survive.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let fresh = Client::connect(self.addr)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(())
    }

    /// Connect with exponential backoff — for races against a server that is
    /// still binding (e.g. a test or smoke script that just spawned it).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: usize,
    ) -> Result<Client, ClientError> {
        let mut delay = Duration::from_millis(10);
        let mut last = ClientError::Io("no connection attempts made".to_string());
        for _ in 0..attempts.max(1) {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
            std::thread::sleep(jittered(delay));
            delay = (delay * 2).min(Duration::from_secs(1));
        }
        Err(last)
    }

    pub(crate) fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    pub(crate) fn read_reply_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(ClientError::Io("server closed the connection".to_string())),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(ClientError::Io(e.to_string())),
        }
    }

    /// Send a request answered by one line; return the fields of its `OK`.
    pub(crate) fn request(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_line(line)?;
        let line = self.read_reply_line()?;
        Client::expect_ok(&line).map(str::to_string)
    }

    /// Interpret a final `OK …`/`ERR …` line; rows are handled by the caller.
    pub(crate) fn expect_ok(line: &str) -> Result<&str, ClientError> {
        if let Some(rest) = line.strip_prefix("OK") {
            return Ok(rest.trim());
        }
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = rest.split_once(':').unwrap_or((rest, ""));
            return Err(ClientError::Server {
                code: code.trim().to_string(),
                message: message.trim().to_string(),
            });
        }
        Err(ClientError::Protocol(format!(
            "expected OK/ERR, got `{line}`"
        )))
    }

    pub(crate) fn parse_field<T: FromStr>(fields: &str, key: &str) -> Result<T, ClientError> {
        wire_value(fields, key).map_err(|key| Self::missing(fields, key))
    }

    fn missing(fields: &str, key: &str) -> ClientError {
        ClientError::Protocol(format!("missing `{key}=` in `{fields}`"))
    }

    /// Run one query; rows come back rendered exactly as the server printed
    /// them (parseable constant syntax, comma-separated).
    ///
    /// Queries are idempotent, so a dropped connection is repaired by one
    /// transparent reconnect-and-retry before the error surfaces.
    pub fn query(&mut self, atom: &str) -> Result<QueryReply, ClientError> {
        match self.query_once(atom) {
            Err(ClientError::Io(_)) => {
                self.reconnect()?;
                self.query_once(atom)
            }
            other => other,
        }
    }

    fn query_once(&mut self, atom: &str) -> Result<QueryReply, ClientError> {
        self.send_line(&format!("QUERY {atom}"))?;
        self.read_query_reply()
    }

    /// Read `ROW …` lines up to the `OK rows=… epoch=…` verdict.
    fn read_query_reply(&mut self) -> Result<QueryReply, ClientError> {
        let mut rows = Vec::new();
        loop {
            let line = self.read_reply_line()?;
            // A fully bound query's row has no columns: `ROW ` less its space.
            if let Some(row) = line.strip_prefix("ROW ").or((line == "ROW").then_some("")) {
                rows.push(row.to_string());
                continue;
            }
            let fields = Self::expect_ok(&line)?;
            let epoch = Self::parse_field(fields, "epoch")?;
            return Ok(QueryReply { rows, epoch });
        }
    }

    /// `PREPARE` a query with `?` placeholders; [`Client::exec`] binds them.
    /// The statement lives on this connection — a reconnect discards it.
    pub fn prepare(&mut self, query: &str) -> Result<Prepared, ClientError> {
        let fields = self.request(&format!("PREPARE {query}"))?;
        Ok(Prepared {
            id: Self::parse_field(&fields, "id")?,
            params: Self::parse_field(&fields, "params")?,
        })
    }

    /// `EXEC` a prepared statement with comma-separated constant arguments
    /// (e.g. `"0, foo"`; empty string for zero-parameter statements).
    ///
    /// No transparent reconnect: prepared statements are connection-scoped,
    /// so after a drop the id no longer exists — re-`PREPARE` instead.
    pub fn exec(&mut self, stmt: Prepared, args: &str) -> Result<QueryReply, ClientError> {
        if args.is_empty() {
            self.send_line(&format!("EXEC {}", stmt.id))?;
        } else {
            self.send_line(&format!("EXEC {} {args}", stmt.id))?;
        }
        self.read_query_reply()
    }

    /// Commit a transaction, e.g. `"+e(1, 2); -e(0, 1)"`.
    ///
    /// Never reconnects on I/O errors: the transaction may have committed
    /// before the drop, and blindly retrying could double-apply it. Callers
    /// who know their ops are idempotent can reconnect and retry themselves.
    pub fn txn(&mut self, spec: &str) -> Result<TxnReply, ClientError> {
        let fields = self.request(&format!("TXN {spec}"))?;
        Ok(TxnReply {
            asserted: Self::parse_field(&fields, "asserted")?,
            retracted: Self::parse_field(&fields, "retracted")?,
            epoch: Self::parse_field(&fields, "epoch")?,
        })
    }

    /// Retry wrapper around [`Client::query`]: exponential backoff on
    /// `overloaded` sheds, up to `attempts` tries.
    pub fn query_with_retry(
        &mut self,
        atom: &str,
        attempts: usize,
    ) -> Result<QueryReply, ClientError> {
        Self::with_backoff(attempts, || self.query(atom))
    }

    /// Retry wrapper around [`Client::txn`]: exponential backoff on
    /// `overloaded` sheds, up to `attempts` tries.
    pub fn txn_with_retry(&mut self, spec: &str, attempts: usize) -> Result<TxnReply, ClientError> {
        Self::with_backoff(attempts, || self.txn(spec))
    }

    fn with_backoff<T>(
        attempts: usize,
        mut call: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut delay = Duration::from_millis(5);
        let mut last_err = None;
        for _ in 0..attempts.max(1) {
            match call() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() => {
                    last_err = Some(e);
                    std::thread::sleep(jittered(delay));
                    delay = (delay * 2).min(Duration::from_millis(500));
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("at least one attempt was made"))
    }

    /// The server's current epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        Self::parse_field(&self.request("EPOCH")?, "epoch")
    }

    /// The server's counters.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        let fields = self.request("STATS")?;
        StatsReply::from_wire(&fields).map_err(|key| Self::missing(&fields, key))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request("PING").map(drop)
    }

    /// Say goodbye; the server closes the connection.
    pub fn quit(mut self) {
        let _ = self.send_line("QUIT");
        let mut sink = String::new();
        let _ = self.reader.read_to_string(&mut sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorlog_datalog::parser::parse_query as pq;
    use factorlog_datalog::Symbol;

    const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

    fn tc_engine(edges: i64) -> Engine {
        let mut engine = Engine::new();
        engine.load_source(TC).unwrap();
        for i in 0..edges {
            engine
                .insert("e", &[Const::Int(i), Const::Int(i + 1)])
                .unwrap();
        }
        engine
    }

    fn quick_options() -> ServerOptions {
        ServerOptions {
            drain_timeout: Duration::from_secs(2),
            ..ServerOptions::default()
        }
    }

    #[test]
    fn queries_transactions_and_epochs_round_trip() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let reply = client.query("t(0, Y)").unwrap();
        assert_eq!(reply.epoch, 0);
        assert_eq!(reply.rows, vec!["1", "2", "3", "4"]);

        let txn = client.txn("+e(4, 5); -e(0, 1)").unwrap();
        assert_eq!((txn.asserted, txn.retracted), (1, 1));
        assert_eq!(txn.epoch, 1);
        // Read-your-writes: the reply's epoch is already published.
        let reply = client.query("t(1, Y)").unwrap();
        assert!(reply.epoch >= txn.epoch);
        assert_eq!(reply.rows, vec!["2", "3", "4", "5"]);
        let reply = client.query("t(0, Y)").unwrap();
        assert!(reply.rows.is_empty(), "e(0,1) was retracted");

        // Structured parse errors, not dropped connections.
        let err = client.query("t(0, Y").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.txn("e(1, 2)").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.txn("+e(1)").unwrap_err();
        assert!(
            matches!(err, ClientError::Server { ref code, .. } if code == "txn"),
            "arity mismatch is a structured txn error: {err}"
        );
        // The session survives all of it.
        client.ping().unwrap();
        assert_eq!(client.epoch().unwrap(), 1);
        client.quit();

        let report = handle.shutdown();
        assert_eq!(report.epoch, 1);
        assert!(report.drained_cleanly);
        // The engine comes back with the committed state.
        let mut engine = report.engine;
        assert_eq!(engine.query(&pq("t(1, Y)").unwrap()).unwrap().len(), 4);
    }

    #[test]
    fn slow_writers_are_not_truncated_across_read_timeouts() {
        // Regression: a client that writes half a request, pauses longer than
        // the connection read timeout, then writes the rest must get the
        // answer to the WHOLE request — not have the first half discarded and
        // the tail parsed as a different (possibly valid) request.
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        // On the broken read loop the truncated tail can be an empty request
        // (swallowed silently): a bounded read turns that hang into a failure.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = b"QUERY t(0, Y)\n";
        for (i, byte) in request.iter().enumerate() {
            // Byte at a time, stalling past the poll interval at several
            // mid-request boundaries (after the verb, inside the atom, and
            // right before the terminating newline).
            if [6, 9, request.len() - 1].contains(&i) {
                std::thread::sleep(Duration::from_millis(150));
            }
            stream.write_all(&[*byte]).unwrap();
            stream.flush().unwrap();
        }
        let mut rows = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if let Some(row) = line.strip_prefix("ROW ") {
                rows.push(row.to_string());
                continue;
            }
            assert_eq!(line, "OK rows=4 epoch=0", "slow request mangled");
            break;
        }
        assert_eq!(rows, vec!["1", "2", "3", "4"]);
        handle.shutdown();
    }

    #[test]
    fn rows_render_symbols_in_parseable_syntax() {
        let mut engine = Engine::new();
        engine
            .load_source("label(a, \"blue metal\").\nlabel(b, plain).")
            .unwrap();
        let handle = serve(engine, "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.query("label(X, Y)").unwrap();
        assert_eq!(reply.rows, vec!["a, \"blue metal\"", "b, plain"]);
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_group_commit_under_shared_fsyncs() {
        let dir = std::env::temp_dir().join(format!(
            "factorlog_server_group_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        let handle = serve(
            engine,
            "127.0.0.1:0",
            ServerOptions {
                group_window: Duration::from_millis(10),
                ..quick_options()
            },
        )
        .unwrap();
        let addr = handle.addr();
        let writers: Vec<_> = (0..8)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..5i64 {
                        client
                            .txn_with_retry(&format!("+e({}, {})", 100 * w + i, 100 * w + i + 1), 8)
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.epoch, 40, "all 40 txns committed");
        assert_eq!(stats.group_txns, 40);
        assert!(
            stats.group_commits < stats.group_txns,
            "concurrent submitters must share fsyncs: {} groups for {} txns",
            stats.group_commits,
            stats.group_txns
        );
        assert!(
            stats.txns_per_fsync > 1.0,
            "measured batching ratio surfaces in STATS: {}",
            stats.txns_per_fsync
        );
        assert_eq!(stats.role, ReplicaRole::Leader);
        assert_eq!(stats.repl_followers, 0, "no follower ever subscribed");
        let report = handle.shutdown();
        drop(report);
        // And the groups are replay-equivalent to singles.
        let reopened = Engine::open_durable(&dir).unwrap();
        assert_eq!(reopened.facts().count("e"), 40);
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overload_sheds_with_a_retryable_error_instead_of_queueing() {
        // max_in_flight = 0: every governed request is shed immediately.
        let handle = serve(
            tc_engine(2),
            "127.0.0.1:0",
            ServerOptions {
                max_in_flight: 0,
                ..quick_options()
            },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let err = client.query("t(0, Y)").unwrap_err();
        assert!(err.is_retryable(), "sheds are retryable: {err}");
        assert!(err.to_string().contains("retry after"));
        // Ungoverned liveness probes still answer.
        client.ping().unwrap();
        assert!(handle.shed() >= 1);
        let report = handle.shutdown();
        assert!(report.shed >= 1);
    }

    #[test]
    fn shutdown_rejects_new_requests_and_returns_a_reusable_engine() {
        let handle = serve(tc_engine(3), "127.0.0.1:0", quick_options()).unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();
        client.query("t(0, Y)").unwrap();
        let report = handle.shutdown();
        assert!(report.drained_cleanly);
        // The old connection and new connections both see refusal, not a hang.
        assert!(client.query("t(0, Y)").is_err());
        assert!(Client::connect(addr).map(|mut c| c.ping()).is_err());
        let mut engine = report.engine;
        engine.insert("e", &[Const::Int(3), Const::Int(4)]).unwrap();
        assert_eq!(engine.query(&pq("t(0, Y)").unwrap()).unwrap().len(), 4);
    }

    #[test]
    fn jittered_delays_stay_in_the_half_open_band() {
        for _ in 0..200 {
            let d = jittered(Duration::from_millis(100));
            assert!(
                d > Duration::from_millis(50) && d <= Duration::from_millis(100),
                "jitter must stay in (delay/2, delay]: {d:?}"
            );
        }
    }

    #[test]
    fn publish_pacing_follows_the_measured_read_load() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        // Nobody reads: the writer is not paced.
        assert_eq!(publish_linger(ms(5), ms(0), ms(6)), ms(0));
        // A saturated reactor leaves the writer one part in PUBLISH_SHARE.
        assert_eq!(
            publish_linger(ms(5), ms(30), ms(30)),
            ms(5) * (PUBLISH_SHARE - 1)
        );
        // Half the load, half the linger.
        assert_eq!(
            publish_linger(ms(4), ms(10), ms(20)),
            ms(2) * (PUBLISH_SHARE - 1)
        );
        // One health check (or a client alternating TXN and QUERY) costs an ack at
        // most PUBLISH_SHARE - 1 times the query's own time.
        for interval in [ms(5), ms(7), ms(50), ms(5_000)] {
            let linger = publish_linger(ms(5), us(130), interval);
            assert!(linger <= us(130) * (PUBLISH_SHARE - 1), "{linger:?}");
        }
        // A slow group is not paid for several times over.
        assert_eq!(
            publish_linger(ms(400), ms(500), ms(500)),
            PUBLISH_LINGER_MAX
        );
        // Degenerate clock readings pace at most the cap, and never panic.
        assert!(publish_linger(ms(5), ms(1), ms(0)) <= PUBLISH_LINGER_MAX);
        assert_eq!(publish_linger(ms(0), ms(0), ms(0)), ms(0));
    }

    #[test]
    fn group_wait_follows_who_is_in_flight_and_one_deadline() {
        let (ms, us, zero) = (Duration::from_millis, Duration::from_micros, Duration::ZERO);
        // A lone submitter never lingers, whatever is left of the window.
        assert_eq!(group_wait(1, 1, ms(1), zero), zero);
        assert_eq!(group_wait(1, 1, ms(200), zero), zero);
        // A missing joiner is waited for until the group's deadline: the time that is
        // left to it, not a window re-armed by whoever arrived in between.
        assert_eq!(group_wait(1, 2, ms(1), zero), ms(1));
        assert_eq!(group_wait(2, 3, us(300), zero), us(300));
        assert_eq!(group_wait(2, 3, zero, zero), zero, "deadline passed");
        // Everyone who was in flight has arrived (or more): commit now.
        assert_eq!(group_wait(2, 2, ms(1), zero), zero);
        assert_eq!(group_wait(5, 2, ms(1), zero), zero);
        // Pacing is honoured whoever has arrived, and never shortens a joiner wait.
        for (batch_len, expect) in [(1, 1), (1, 2), (2, 2), (3, 2), (MAX_GROUP - 1, 1)] {
            assert_eq!(group_wait(batch_len, expect, zero, ms(7)), ms(7));
            assert_eq!(group_wait(batch_len, expect, ms(1), ms(7)), ms(7));
        }
        assert_eq!(group_wait(1, 2, ms(1), us(200)), ms(1));
        // `expect` acts as if clamped to 1..=MAX_GROUP: a first request is never
        // waited on for nobody, and a full group goes at once (as it always did).
        assert_eq!(group_wait(1, 0, ms(1), zero), zero);
        assert_eq!(group_wait(MAX_GROUP - 1, usize::MAX, ms(1), zero), ms(1));
        assert_eq!(group_wait(MAX_GROUP, usize::MAX, ms(1), ms(7)), zero);
    }

    /// `serve` returns only once its threads run — and so carry their names, which
    /// is how callers find them (the kernel keeps 15 bytes of a name).
    #[cfg(target_os = "linux")]
    #[test]
    fn serve_returns_after_its_threads_carry_their_names() {
        let handle = serve(tc_engine(2), "127.0.0.1:0", quick_options()).unwrap();
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect();
        for name in ["factorlog-writer", "factorlog-reactor"] {
            assert!(names.iter().any(|n| n == &name[..15]), "{name}: {names:?}");
        }
        handle.shutdown();
    }

    #[test]
    fn transactions_beside_a_saturating_reader_are_acked_within_the_pacing_cap() {
        let handle = serve(tc_engine(150), "127.0.0.1:0", quick_options()).unwrap();
        let addr = handle.addr();
        let done = AtomicBool::new(false);
        let (reads, slowest_ack) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    assert_eq!(client.query("t(0, Y)").unwrap().rows.len() as u64, 150);
                    reads += 1;
                }
                reads
            });
            let mut client = Client::connect(addr).unwrap();
            let mut slowest = Duration::ZERO;
            for i in 0..30 {
                let sent = Instant::now();
                let txn = client.txn(&format!("+e({}, {})", 1000 + i, 1001 + i));
                slowest = slowest.max(sent.elapsed());
                assert_eq!(txn.unwrap().epoch, i + 1);
            }
            done.store(true, Ordering::Release);
            (reader.join().unwrap(), slowest)
        });
        assert!(reads > 0, "the reader ran beside the writer");
        // The pacing linger is capped; the second is slack for the commit itself
        // and a loaded host.
        let bound = quick_options().group_window + PUBLISH_LINGER_MAX + Duration::from_secs(1);
        assert!(slowest_ack < bound, "slowest ack {slowest_ack:?}");
        assert_eq!(handle.shutdown().epoch, 30);
    }

    #[test]
    fn txn_ops_parse_and_reject_malformed_input() {
        let ops = parse_txn_ops("+e(1, 2); -e(2, 1);").unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].0, WalOp::Assert);
        assert_eq!(ops[1].0, WalOp::Retract);
        assert!(parse_txn_ops("").is_err());
        assert!(parse_txn_ops("e(1, 2)").is_err());
        assert!(parse_txn_ops("+e(X, 2)").is_err(), "non-ground atom");
        assert!(parse_txn_ops("+e(1, ").is_err());
    }

    /// Ops split at the `;`s outside string literals (escapes included), and the
    /// sign comes off whatever the op's first character is.
    #[test]
    fn parse_txn_ops_table() {
        let sym = |name: &str| Const::Sym(Symbol::intern(name));
        let label = |text: &str| (WalOp::Assert, Symbol::intern("label"), vec![sym(text)]);
        let edge = |op, a, b| (op, Symbol::intern("e"), vec![Const::Int(a), Const::Int(b)]);
        let ok: Vec<(&str, Vec<Op>)> = vec![
            (
                "+e(1, 2); -e(2, 1);",
                vec![edge(WalOp::Assert, 1, 2), edge(WalOp::Retract, 2, 1)],
            ),
            ("+e(1, 2).", vec![edge(WalOp::Assert, 1, 2)]),
            (r#"+label("a;b")"#, vec![label("a;b")]),
            (
                r#"+label("a\";b"); -e(1, 2)"#,
                vec![label("a\";b"), edge(WalOp::Retract, 1, 2)],
            ),
            (
                r#"+label("a\\"); -e(1, 2)"#,
                vec![label("a\\"), edge(WalOp::Retract, 1, 2)],
            ),
            (r#"+label("é;\n")"#, vec![label("é;\n")]),
        ];
        for (spec, expected) in ok {
            assert_eq!(parse_txn_ops(spec), Ok(expected), "{spec}");
        }
        let refused = [
            ("é", "must start with `+`"),
            ("ée(1, 2)", "must start with `+`"),
            ("e(1, 2)", "must start with `+`"),
            ("\0", "must start with `+`"),
            ("+", "bad atom"),
            ("-(", "bad atom"),
            ("+e(1, \0)", "bad atom"),
            (r#"+label("a;b"#, "bad atom"),
            ("+e(X, 2)", "must be ground"),
            ("", "empty transaction"),
            (" ; ;", "empty transaction"),
        ];
        for (spec, reason) in refused {
            let err = parse_txn_ops(spec).unwrap_err();
            assert!(err.contains(reason), "{spec:?} → {err}");
        }
    }

    /// Regression (`TXN é` once panicked the reactor on a byte slice through a
    /// multi-byte character, and every later connect was refused; a `;` inside a
    /// string split the op): a garbled op is one `ERR parse`, the server keeps
    /// answering, and a quoted `;` is data.
    #[test]
    fn txn_with_a_multibyte_sign_or_a_quoted_semicolon() {
        let handle = serve(tc_engine(1), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // Every reply line up to and including the verdict.
        let mut reply = |line: &str| {
            client.send_line(line).unwrap();
            let mut lines = vec![client.read_reply_line().unwrap()];
            while !lines.last().unwrap().starts_with("OK") && !lines[0].starts_with("ERR") {
                lines.push(client.read_reply_line().unwrap());
            }
            lines.join("\n")
        };
        let verdict = reply("TXN é");
        assert!(verdict.starts_with("ERR parse:"), "{verdict}");
        assert_eq!(reply("PING"), "OK pong");
        let verdict = reply(r#"TXN +label("a;b")"#);
        assert!(verdict.starts_with("OK asserted=1"), "{verdict}");
        let rows = reply(r#"QUERY label("a;b")"#);
        assert!(rows.ends_with("OK rows=1 epoch=1"), "{rows}");
        drop(client);
        let mut fresh = Client::connect(handle.addr()).expect("the listener still accepts");
        fresh.send_line("PING").unwrap();
        assert_eq!(fresh.read_reply_line().unwrap(), "OK pong");
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order_from_one_packet() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Five requests in ONE write: the reactor must serve all of them
        // before re-arming, and the replies must come back in request order.
        stream
            .write_all(b"PING\nQUERY t(0, Y)\nEPOCH\nQUERY t(3, Y)\nPING\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        while lines.len() < 8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim_end().to_string());
        }
        assert_eq!(
            lines,
            vec![
                "OK pong",
                "ROW 1",
                "ROW 2",
                "ROW 3",
                "ROW 4",
                "OK rows=4 epoch=0",
                "OK epoch=0",
                "ROW 4",
            ]
        );
        let metrics = handle.server_metrics();
        assert!(metrics.pipelined_batches >= 1);
        assert!(
            metrics.max_batch_depth >= 5,
            "five requests in one packet should drain as one batch: {metrics:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn prepare_exec_binds_placeholders_without_reparsing() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        let stmt = client.prepare("t(?, Y)").unwrap();
        assert_eq!(stmt.params, 1);
        // The same statement serves different constants (rebinding).
        assert_eq!(
            client.exec(stmt, "0").unwrap().rows,
            vec!["1", "2", "3", "4"]
        );
        assert_eq!(client.exec(stmt, "2").unwrap().rows, vec!["3", "4"]);

        // Zero-parameter statements are legal; a miss is an empty row set.
        let all = client.prepare("t(X, Y)").unwrap();
        assert_eq!(all.params, 0);
        assert_eq!(client.exec(all, "").unwrap().rows.len(), 10);
        assert!(client.exec(stmt, "99").unwrap().rows.is_empty());

        // Structured errors: wrong arity, variables as args, unknown id.
        let err = client.exec(stmt, "1, 2").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client.exec(stmt, "X").unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));
        let err = client
            .exec(Prepared { id: 999, params: 0 }, "")
            .unwrap_err();
        assert!(matches!(err, ClientError::Server { ref code, .. } if code == "parse"));

        // Placeholders inside string literals are literal text, not params,
        // escaped quotes included.
        let lit = client.prepare("t(?, \"a?b\")").unwrap();
        assert_eq!(lit.params, 1);
        client.txn(r#"+p("a\"?", 1)"#).unwrap();
        for (text, params, args, query, rows) in [
            (r#"p("a\"?", Y)"#, 0, "", r#"p("a\"?", Y)"#, vec!["1"]),
            (r#"p("a\"?", ?)"#, 1, "1", r#"p("a\"?", 1)"#, vec![""]),
        ] {
            let stmt = client.prepare(text).unwrap();
            assert_eq!(stmt.params, params, "{text}");
            assert_eq!(client.query(query).unwrap().rows, rows, "{query}");
            assert_eq!(client.exec(stmt, args).unwrap().rows, rows, "{text}");
        }

        // EXEC results track the live view across commits.
        client.txn("+e(4, 5)").unwrap();
        assert_eq!(
            client.exec(stmt, "0").unwrap().rows,
            vec!["1", "2", "3", "4", "5"]
        );

        let stats = client.stats().unwrap();
        assert!(stats.prepared_execs >= 7, "stats: {stats:?}");
        handle.shutdown();
    }

    #[test]
    fn repeated_reads_hit_the_reply_cache_until_the_epoch_moves() {
        let handle = serve(tc_engine(4), "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let first = client.query("t(0, Y)").unwrap();
        let second = client.query("t(0, Y)").unwrap();
        assert_eq!(first.rows, second.rows);
        assert!(
            client.stats().unwrap().reply_cache_hits >= 1,
            "identical queries in one epoch must share a rendered reply"
        );
        // A commit moves the epoch; the cached reply must NOT be served stale.
        client.txn("+e(4, 5)").unwrap();
        let third = client.query("t(0, Y)").unwrap();
        assert_eq!(third.rows, vec!["1", "2", "3", "4", "5"]);
        handle.shutdown();
    }

    #[test]
    fn query_reconnects_once_after_a_dropped_connection_but_txn_refuses() {
        let handle = serve(tc_engine(3), "127.0.0.1:0", quick_options()).unwrap();

        // QUIT makes the server close this connection while staying up — the
        // cheapest honest stand-in for a broken TCP session.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.send_line("QUIT").unwrap();
        assert_eq!(client.read_reply_line().unwrap(), "OK bye");
        let reply = client.query("t(0, Y)").unwrap();
        assert_eq!(reply.rows, vec!["1", "2", "3"], "query must reconnect");

        // Writes never silently retry: the commit may have landed.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.send_line("QUIT").unwrap();
        assert_eq!(client.read_reply_line().unwrap(), "OK bye");
        let err = client.txn("+e(7, 8)").unwrap_err();
        assert!(
            matches!(err, ClientError::Io(_)),
            "txn on a dropped connection surfaces the I/O error: {err}"
        );
        handle.shutdown();
    }

    #[test]
    fn follower_lag_never_underflows_when_contact_lands_mid_read() {
        let repl = ReplState {
            role: AtomicU8::new(ReplicaRole::Follower.as_u8()),
            term: AtomicU64::new(0),
            last_seq: AtomicU64::new(0),
            leader_seq: AtomicU64::new(0),
            last_contact_ms: AtomicU64::new(0),
            started: Instant::now(),
            followers: Mutex::new(HashMap::new()),
            mirror: None,
            status: Mutex::new(None),
        };
        // A sync thread hammers the contact stamp while readers compute lag:
        // with the stamp loaded before the elapsed capture, lag can never be
        // a giant underflow and stays bounded by the loop's runtime.
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let deadline = Instant::now() + Duration::from_millis(120);
                while Instant::now() < deadline {
                    let now = repl.started.elapsed().as_millis() as u64;
                    repl.last_contact_ms.store(now, Ordering::Release);
                }
            });
            while !writer.is_finished() {
                let lag = ms_since_leader_contact(&repl);
                assert!(
                    lag < 10_000,
                    "lag must track the (sub-second) test duration, got {lag}"
                );
            }
        });
    }

    /// Publish order pins the reply-cache's correctness: the epoch atomic
    /// must never run ahead of the readable view, or a reply rendered from
    /// the old view could be cached under the new epoch and served stale for
    /// the rest of that epoch (breaking read-your-writes after a TXN ack).
    #[test]
    fn publish_never_lets_the_epoch_atomic_run_ahead_of_the_view() {
        let handle = serve(tc_engine(2), "127.0.0.1:0", quick_options()).unwrap();
        let shared = handle.shared.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let observer = {
            let shared = shared.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let epoch = shared.epoch.load(Ordering::Acquire);
                    let view = shared.current_view();
                    assert!(
                        view.epoch >= epoch,
                        "observed view at epoch {} behind the epoch atomic ({epoch}): \
                         a reply rendered now could be cached under an epoch it \
                         does not reflect",
                        view.epoch
                    );
                }
            })
        };
        let mut client = Client::connect(handle.addr()).unwrap();
        for i in 0..100 {
            client
                .txn(&format!("+e({}, {})", 500 + i, 501 + i))
                .unwrap();
        }
        stop.store(true, Ordering::Release);
        observer.join().expect("no stale-epoch observation");
        handle.shutdown();
    }

    #[test]
    fn prepare_statement_rejects_placeholders_outside_term_positions() {
        assert!(prepare_statement("t(?, Y)").is_ok());
        assert!(prepare_statement("t(??, Y)").is_err(), "?? is not a term");
        assert!(prepare_statement("?(X, Y)").is_err(), "predicate position");
        let stmt = prepare_statement("t(?, ?)").unwrap();
        assert_eq!(stmt.params.len(), 2);
        let bound = bind_prepared(&stmt, "1, 2").unwrap();
        assert_eq!(bound.atom.terms.len(), 2);
        assert!(bound.atom.terms.iter().all(|t| !t.is_var()));
        assert!(bind_prepared(&stmt, "1").is_err(), "arity mismatch");
        // An escaped quote does not end the string: its `?` stays literal text.
        for (text, params) in [(r#"p("a\"?", Y)"#, 0), (r#"p("a\"?", ?)"#, 1)] {
            assert_eq!(
                prepare_statement(text).unwrap().params.len(),
                params,
                "{text}"
            );
        }
    }

    /// `REPL SUBSCRIBE` takes exactly one unsigned `<from_seq>` and at most one
    /// unsigned `term=` and `id=`: a garbled term (the fencing input) is refused,
    /// never read as 0.
    #[test]
    fn repl_subscribe_refuses_garbled_arguments() {
        let dir = std::env::temp_dir().join(format!(
            "factorlog_server_subscribe_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = Engine::open_durable(&dir).unwrap();
        engine.load_source(TC).unwrap();
        let handle = serve(engine, "127.0.0.1:0", quick_options()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut reply = |line: &str| {
            client.send_line(line).unwrap();
            let mut lines = vec![client.read_reply_line().unwrap()];
            while lines.last().unwrap().starts_with("FRAME ") {
                lines.push(client.read_reply_line().unwrap());
            }
            lines.pop().unwrap()
        };
        for line in [
            "REPL SUBSCRIBE",
            "REPL SUBSCRIBE x",
            "REPL SUBSCRIBE -1",
            "REPL SUBSCRIBE 1 term=abc",
            "REPL SUBSCRIBE 1 term=99x id=zz",
            "REPL SUBSCRIBE 1 term=-2",
            "REPL SUBSCRIBE 1 term=",
            "REPL SUBSCRIBE 1 id=7 id=8",
            "REPL SUBSCRIBE 1 term=0 term=0",
            "REPL SUBSCRIBE 1 2 3",
            "REPL SUBSCRIBE 1 lease=5",
            "REPL SUBSCRIBE term=0 id=7",
            "REPL UNSUBSCRIBE 1",
        ] {
            let verdict = reply(line);
            assert!(
                verdict.starts_with("ERR parse: usage: REPL SUBSCRIBE"),
                "{line} → {verdict}"
            );
        }
        for line in [
            "REPL SUBSCRIBE 1",
            "REPL SUBSCRIBE 1 term=0 id=7",
            "REPL SUBSCRIBE id=7 2 term=0",
        ] {
            let verdict = reply(line);
            assert!(verdict.starts_with("OK frames="), "{line} → {verdict}");
        }
        // The line `Client::subscribe` sends parses.
        let shipped = client.subscribe(1, 0, 7).unwrap();
        assert!(!shipped.frames.is_empty(), "the rules' source record ships");
        assert_eq!(shipped.term, 0);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
