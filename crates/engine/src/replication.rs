//! WAL log-shipping replication: read replicas that follow a leader's
//! transaction log over the line protocol, plus lease-based failover.
//!
//! # Topology
//!
//! ```text
//!                       ┌───────────────────────────────┐
//!    writers ── TXN ──▶ │ leader (serve)                │
//!                       │  wal.log = committed truth    │
//!                       └──────┬────────────┬───────────┘
//!          REPL SUBSCRIBE <seq>│            │REPL SUBSCRIBE <seq>
//!                   FRAME* ────▼──          ▼
//!                       ┌───────────┐ ┌───────────┐
//!    readers ─ QUERY ──▶│ follower  │ │ follower  │  lock-free snapshot reads
//!                       │ (replica) │ │ (replica) │  (stale-bounded by poll lag)
//!                       └───────────┘ └───────────┘
//! ```
//!
//! Followers poll the leader with `REPL SUBSCRIBE <from_seq> term=<T> id=<I>`;
//! the leader answers with the committed WAL frames at and after `from_seq`
//! (hex-encoded, one per `FRAME` line), copied from the mirror a durable session
//! keeps of what it made durable (its log segment and image payload): a poll
//! reads no file. When the leader has compacted past the
//! follower's position it ships its image first — one more `FRAME`, the
//! payload of its `snapshot.fl` — followed by the log; the follower installs the image as
//! its own and resumes frame catch-up from the image's sequence number. Both
//! ends decode what they ship with the same build of [`crate::wal`], so a leader
//! and its followers must run the same build. A follower's mirror fills as it
//! applies shipped frames, so it serves subscribers of its own the same way.
//!
//! # Consistency
//!
//! * **Apply-at-most-once.** Shipped frames keep the leader's sequence
//!   numbers; a follower appends each shipped batch to its own log verbatim
//!   (one fsync) and replays it as recovery would (the commit protocol in the
//!   module docs of `engine.rs`, with the shipped batch as the group), skipping
//!   sequences it already holds and refusing gaps. Replay of one totally ordered log on
//!   every node is why replicas converge: the WAL fixes one serialization out
//!   of the many admissible interleavings of concurrent transactions.
//! * **Stale-bounded reads.** A follower serves queries from its latest
//!   applied view — a consistent committed prefix of the leader's history, at
//!   most one poll interval (plus in-flight frames) behind.
//! * **Lease-based failover.** A served follower ([`serve_follower`]) polls
//!   every `poll_interval`, whatever requests it answers meanwhile, and counts
//!   the leader as live while any poll succeeded within the lease timeout (a
//!   poll that waits that long for the leader fails). Promotion (`PROMOTE`,
//!   which the REPL's `:promote` sends) is refused while the lease is valid,
//!   and otherwise bumps the node's *term* (persisted in a `TERM` file in the
//!   data directory) and hands the apply loop's engine to the writer. The term
//!   is written by the thread that owns the engine, before it is adopted. A
//!   lease is evidence of *continuous* contact, so only the served follower,
//!   whose loop renews it, can promote: a [`Replica`] polled on demand has
//!   none. A revived ex-leader is *fenced* the moment it sees a newer term —
//!   from any subscriber's poll — and refuses writes until it is restarted as
//!   a follower of the new leader, which demotes it cleanly (its committed
//!   history is a prefix of the new leader's, so catch-up is ordinary frame
//!   shipping).

use std::net::ToSocketAddrs;
use std::path::Path;
use std::time::Duration;

use factorlog_datalog::eval::Reading;

use crate::disk::{self, Disk};
use crate::engine::{Engine, EngineError};
use crate::server::{serve_inner, Client, ClientError, ServeError, ServerHandle, ServerOptions};
use crate::wal::{Mirror, WalRecord};

/// File name (inside a data directory) persisting the node's replication term:
/// a monotonically increasing integer bumped by every promotion, the fencing
/// token that lets a new leader supersede a revived old one.
pub const TERM_FILE: &str = "TERM";

/// The replication role a node is in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Accepts writes and publishes its log to subscribers. Every plain
    /// [`serve`](crate::serve)d node is a leader (possibly with no followers).
    #[default]
    Leader,
    /// Read-only: applies the leader's shipped frames, serves snapshot
    /// queries, and can promote once the leader's lease expires.
    Follower,
    /// An ex-leader that observed a newer term: refuses writes (a split brain
    /// would otherwise fork the history) until restarted as a follower.
    Fenced,
}

impl ReplicaRole {
    /// The lowercase protocol name (`leader` / `follower` / `fenced`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicaRole::Leader => "leader",
            ReplicaRole::Follower => "follower",
            ReplicaRole::Fenced => "fenced",
        }
    }

    /// Parse a protocol role name (the inverse of [`ReplicaRole::as_str`]).
    pub fn parse(s: &str) -> Option<ReplicaRole> {
        match s {
            "leader" => Some(ReplicaRole::Leader),
            "follower" => Some(ReplicaRole::Follower),
            "fenced" => Some(ReplicaRole::Fenced),
            _ => None,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ReplicaRole::Leader => 0,
            ReplicaRole::Follower => 1,
            ReplicaRole::Fenced => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> ReplicaRole {
        match v {
            1 => ReplicaRole::Follower,
            2 => ReplicaRole::Fenced,
            _ => ReplicaRole::Leader,
        }
    }
}

impl std::fmt::Display for ReplicaRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for ReplicaRole {
    type Err = ();

    fn from_str(s: &str) -> Result<ReplicaRole, ()> {
        ReplicaRole::parse(s).ok_or(())
    }
}

impl From<&ReplicaRole> for Reading<'_> {
    fn from(role: &ReplicaRole) -> Self {
        Reading::Name(role.as_str())
    }
}

/// Tuning knobs of a follower (how many frames one poll ships is the leader's call).
#[derive(Clone, Debug)]
pub struct ReplicationOptions {
    /// How often the follower polls the leader for new frames. The benchmark
    /// polls every millisecond to time catch-up.
    pub poll_interval: Duration,
    /// How long after the last successful leader contact the leader's lease is
    /// considered expired (promotion is refused before that — the leader may
    /// merely be slow, and two live leaders would fork the history). Set by
    /// `factorlog serve --lease-ms`.
    pub lease_timeout: Duration,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions {
            poll_interval: Duration::from_millis(20),
            lease_timeout: Duration::from_millis(750),
        }
    }
}

/// Read the persisted term of a data directory: 0 when the `TERM` file is absent
/// (a node that never took part in a failover), an error when it cannot be read
/// or does not hold a term — taking either for 0 would let a node that lost its
/// leadership claim it again.
pub(crate) fn read_term(disk: &dyn Disk, dir: &Path) -> Result<u64, EngineError> {
    let path = dir.join(TERM_FILE);
    let Some(text) = disk
        .read(&path)
        .map_err(|e| disk::io_error("read", &path, e))?
    else {
        return Ok(0);
    };
    let text = String::from_utf8_lossy(&text);
    text.trim()
        .parse()
        .map_err(|_| EngineError::Durability(format!("{} holds no term: {text:?}", path.display())))
}

/// Persist `term` in the engine's `TERM` file, whole and durably, under its fault
/// containment (a promotion must survive the promoted node's own crash, or a
/// revived ex-leader could reclaim leadership it already lost).
pub(crate) fn persist_term(engine: &mut Engine, term: u64) -> Result<(), EngineError> {
    engine.contained(|engine| {
        let Some((disk, dir)) = engine.data_disk() else {
            return Ok(());
        };
        disk::replace(&*disk, &dir, TERM_FILE, format!("{term}\n").as_bytes())
            .map_err(|e| disk::io_error("write", &dir.join(TERM_FILE), e))
    })
}

/// Hex-encode `bytes` (lowercase) — WAL frames ship hex-encoded
/// so the line protocol stays line-safe.
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xF) as usize] as char);
    }
    out
}

/// Decode a hex string produced by [`to_hex`].
pub(crate) fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_string());
    }
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit `{}`", c as char)),
        }
    };
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// What the leader ships for one `REPL SUBSCRIBE` poll.
pub(crate) struct StreamStep {
    /// The frame payloads, in log order: the image first when the log no
    /// longer reaches back to `from_seq`, then the contiguous log frames
    /// (empty = the follower is caught up).
    pub(crate) frames: Vec<Vec<u8>>,
    /// The leader's overall committed position.
    pub(crate) last_seq: u64,
}

/// Compute the leader-side answer to one subscription poll from the mirror of
/// what the session made durable: the log frames from `from_seq` on, at most
/// `max_frames` of them, led by the image when the log no longer reaches back
/// to `from_seq`. It reads no file and decodes nothing.
pub(crate) fn stream_step(mirror: &Mirror, from_seq: u64, max_frames: usize) -> StreamStep {
    let log = mirror.frames_from(from_seq);
    let mut step = StreamStep {
        frames: Vec::new(),
        last_seq: mirror.last_seq(),
    };
    if log.first().map(|&(seq, _)| seq) != Some(from_seq) {
        // The follower is caught up, or a compaction reset the log past it and
        // the image covers the gap (when it does not yet — a transient state —
        // ship nothing; the follower retries).
        match &mirror.image {
            Some((seq, payload)) if *seq >= from_seq => step.frames.push(payload.clone()),
            _ => return step,
        }
    }
    let shipped = log.iter().take(max_frames);
    step.frames
        .extend(shipped.map(|&(_, at)| mirror.payload(at).to_vec()));
    step
}

/// The parsed reply of one `REPL SUBSCRIBE` poll (see [`Client::subscribe`]).
#[derive(Debug)]
pub struct SubscribeReply {
    /// The shipped frames, in log order — led by the leader's image when it
    /// compacted past the requested position (empty when caught up).
    pub frames: Vec<WalRecord>,
    /// The leader's overall committed position (lag = `last_seq` minus the
    /// follower's applied position).
    pub last_seq: u64,
    /// The leader's term.
    pub term: u64,
}

impl Client {
    /// One replication poll: ask the server for committed WAL frames from
    /// `from_seq` on, identifying ourselves with our `term` (fencing: a term
    /// newer than the server's proves a newer leader exists and demotes it)
    /// and follower `id` (per-follower lag tracking in the leader's `STATS`).
    pub fn subscribe(
        &mut self,
        from_seq: u64,
        term: u64,
        id: u64,
    ) -> Result<SubscribeReply, ClientError> {
        self.send_line(&format!("REPL SUBSCRIBE {from_seq} term={term} id={id}"))?;
        let mut frames = Vec::new();
        loop {
            let line = self.read_reply_line()?;
            if let Some(hex) = line.strip_prefix("FRAME ") {
                let bytes = from_hex(hex).map_err(ClientError::Protocol)?;
                let record = WalRecord::decode(&bytes)
                    .map_err(|e| ClientError::Protocol(format!("bad shipped frame: {e}")))?;
                frames.push(record);
                continue;
            }
            let fields = Client::expect_ok(&line)?;
            return Ok(SubscribeReply {
                frames,
                last_seq: Client::parse_field(fields, "last_seq")?,
                term: Client::parse_field(fields, "term")?,
            });
        }
    }

    /// Ask the server to promote itself to leader. Succeeds (idempotently)
    /// when it already leads, errs with code `lease` while the current
    /// leader's lease is still valid, and with code `fenced` on a superseded
    /// ex-leader. Returns the server's role and term after the call.
    pub fn promote(&mut self) -> Result<(ReplicaRole, u64), ClientError> {
        let fields = self.request("PROMOTE")?;
        Ok((
            Client::parse_field(&fields, "role")?,
            Client::parse_field(&fields, "term")?,
        ))
    }
}

/// What one [`Replica::sync_once`] poll did.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncReport {
    /// Did the poll reach a live, non-fenced publisher? (A served follower
    /// renews its lease on it.)
    pub contacted: bool,
    /// Frames newly applied by this poll.
    pub frames_applied: usize,
    /// Did this poll install a shipped image?
    pub bootstrapped: bool,
    /// Did the polled node report *itself* fenced (our term supersedes it)?
    pub fenced_leader: bool,
}

factorlog_datalog::instruments! {
    /// A point-in-time view of a replica's replication state: the metrics
    /// document's `replication` object (a served follower's, with the node's
    /// current role and term, from [`ServerHandle::replica_status`]).
    #[derive(Clone, Debug, Default)]
    pub struct ReplicaStatus {
        /// Current role.
        role: ReplicaRole, "replica", "role";
        /// Current term.
        term: u64, "replica", "term";
        /// The leader address this replica follows.
        leader: String, "replica", "leader";
        /// Last log sequence number applied locally.
        applied_seq: u64, "replica", "applied seq";
        /// The leader's position as of the last successful poll.
        leader_seq: u64, "replica", "leader seq";
        /// `leader_seq - applied_seq` (frames still to ship).
        lag_frames: u64, "replica", "lag frames";
        /// Frames applied over this replica's lifetime.
        frames_applied: u64, "replica", "frames applied";
        /// Shipped images installed over this replica's lifetime.
        bootstraps: u64, "replica", "bootstraps";
    }
}

/// The subscription primitive: a durable [`Engine`] plus the state of its
/// polls of one leader. [`serve_follower`] runs one in its apply loop (and
/// hands [`Replica::into_engine`] to the writer on promotion); the REPL's
/// `:follow` catches up through one and then serves that same one. Call
/// [`Replica::sync_once`] (or [`Replica::catch_up`]) to poll; the applied
/// state can be read at any time. A `Replica` only ever follows: promotion,
/// its lease check and write service belong to the served node (`PROMOTE`).
pub struct Replica {
    engine: Engine,
    pub(crate) leader: String,
    client: Option<Client>,
    /// The lease bounds each poll's connect and reads; a served follower also
    /// polls every `poll_interval` and may promote a lease after its last poll.
    pub(crate) options: ReplicationOptions,
    id: u64,
    term: u64,
    leader_seq: u64,
    frames_applied: u64,
    bootstraps: u64,
}

impl Replica {
    /// Wrap an already-open durable engine as a follower of `leader`. The
    /// engine's persisted term (the `TERM` file, read under the engine's fault
    /// containment) carries over. Errors, handing the engine back, when the
    /// engine is not durable — a follower without its own log could not survive
    /// its own crash — or its `TERM` file cannot be read. The primitive polls
    /// only when asked (pacing belongs to the caller); of the `options` it reads
    /// the lease timeout, which bounds each poll's connect and every read of its
    /// reply: a leader silent that long counts as lost contact.
    pub fn from_engine(
        mut engine: Engine,
        leader: impl Into<String>,
        options: ReplicationOptions,
    ) -> Result<Replica, ServeError> {
        let term = engine.contained(|engine| match engine.data_disk() {
            Some((disk, dir)) => read_term(&*disk, &dir),
            None => Err(EngineError::Durability(
                "a replica must be durable (open it with open_durable)".to_string(),
            )),
        });
        let term = match term {
            Ok(term) => term,
            Err(error) => {
                return Err(ServeError {
                    engine: Box::new(engine),
                    error,
                })
            }
        };
        // A follower identity for the leader's per-follower lag map: unique
        // enough across processes and restarts (clock nanos xor pid).
        let id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ ((std::process::id() as u64) << 32);
        Ok(Replica {
            engine,
            leader: leader.into(),
            client: None,
            options,
            id,
            term,
            leader_seq: 0,
            frames_applied: 0,
            bootstraps: 0,
        })
    }

    /// One subscription poll: connect (or reuse the connection), fetch the
    /// next batch, apply it. Network failures are *not* errors — the report
    /// comes back with `contacted: false` and the next poll reconnects; only
    /// local durability failures (this replica's own log or image) err.
    pub fn sync_once(&mut self) -> Result<SyncReport, EngineError> {
        let mut report = SyncReport::default();
        let mut client = match self.client.take() {
            Some(client) => client,
            None => match Client::connect_within(&self.leader, self.options.lease_timeout) {
                Ok(client) => client,
                Err(_) => return Ok(report),
            },
        };
        let from_seq = self.engine.wal_last_seq().unwrap_or(0) + 1;
        match client.subscribe(from_seq, self.term, self.id) {
            Ok(reply) => {
                report.contacted = true;
                self.leader_seq = reply.last_seq;
                if reply.term > self.term {
                    // A failover happened upstream: adopt the new term so our
                    // own polls carry it onward.
                    self.adopt_term(reply.term)?;
                }
                // An image past our position is installed (see
                // `Engine::apply_replicated`).
                report.bootstrapped = reply
                    .frames
                    .iter()
                    .any(|frame| matches!(frame, WalRecord::Image { seq, .. } if *seq >= from_seq));
                if !reply.frames.is_empty() {
                    let applied = self.engine.apply_replicated(reply.frames)?;
                    report.frames_applied = applied;
                    self.frames_applied += applied as u64;
                }
                self.bootstraps += u64::from(report.bootstrapped);
                self.client = Some(client);
            }
            Err(ClientError::Server { code, .. }) if code == "fenced" => {
                // The polled node fenced itself against our newer term: it is
                // not a live leader, so the lease is deliberately NOT renewed.
                report.fenced_leader = true;
                self.client = Some(client);
            }
            Err(_) => {
                // Leader unreachable or mid-restart: drop the connection and
                // let the next poll redial. The lease keeps aging.
            }
        }
        Ok(report)
    }

    /// Poll until fully caught up with the publisher (no frames shipped and
    /// zero lag) or `attempts` polls have run. Returns whether catch-up
    /// completed.
    pub fn catch_up(&mut self, attempts: usize) -> Result<bool, EngineError> {
        for _ in 0..attempts.max(1) {
            let report = self.sync_once()?;
            if report.contacted
                && report.frames_applied == 0
                && !report.bootstrapped
                && self.lag_frames() == 0
            {
                return Ok(true);
            }
            if !report.contacted {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(false)
    }

    /// Adopt `term` once it is persisted: after a failed write the term is
    /// what it was, so the next poll that carries the newer one writes again
    /// (adopting first would leave a crash to bring back the older term).
    pub(crate) fn adopt_term(&mut self, term: u64) -> Result<(), EngineError> {
        persist_term(&mut self.engine, term)?;
        self.term = term;
        Ok(())
    }

    /// Drop the current connection (the next poll redials). Simulates a
    /// network partition in tests; harmless otherwise.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    /// Last log sequence number applied locally.
    pub fn applied_seq(&self) -> u64 {
        self.engine.wal_last_seq().unwrap_or(0)
    }

    /// The leader's position as of the last successful poll.
    pub fn leader_seq(&self) -> u64 {
        self.leader_seq
    }

    /// Frames between the leader's last known position and ours.
    pub fn lag_frames(&self) -> u64 {
        self.leader_seq.saturating_sub(self.applied_seq())
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Snapshot of the replication state for `:stats` and metrics JSON.
    pub fn status(&self) -> ReplicaStatus {
        ReplicaStatus {
            role: ReplicaRole::Follower,
            term: self.term,
            applied_seq: self.applied_seq(),
            leader_seq: self.leader_seq,
            lag_frames: self.lag_frames(),
            frames_applied: self.frames_applied,
            bootstraps: self.bootstraps,
            leader: self.leader.clone(),
        }
    }

    /// The wrapped engine (read-only access; queries are always allowed).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine — for queries that refresh views.
    /// A write through this handle forks the follower's log from its leader's.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Unwrap the engine (to serve it, or to hand it to the writer on promotion).
    pub fn into_engine(self) -> Engine {
        self.engine
    }
}

/// Serve `replica` on `addr`: queries are answered from the continuously
/// applied replica state, transactions are refused with `ERR readonly` until a
/// `PROMOTE` succeeds (after the leader's lease expires), and then the node
/// commits writes as an ordinary leader. The apply loop polls through
/// `replica` itself, so the leader sees one follower id per node, every
/// `replication.poll_interval`, with `replication.lease_timeout` in place of
/// the replica's own. See [`serve`](crate::serve) for the non-replicating form.
pub fn serve_follower(
    mut replica: Replica,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
    replication: ReplicationOptions,
) -> Result<ServerHandle, ServeError> {
    // The server holds the engine; the apply loop puts it back into `replica`.
    let engine = std::mem::take(&mut replica.engine);
    replica.options = replication;
    serve_inner(engine, addr, options, Some(replica))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        for bytes in [&b""[..], &b"\x00\xff\x10abc"[..]] {
            assert_eq!(from_hex(&to_hex(bytes)).unwrap(), bytes);
        }
        assert_eq!(to_hex(b"\x01\xab"), "01ab");
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "bad digit");
        assert_eq!(from_hex("ABCD").unwrap(), vec![0xAB, 0xCD]);
    }

    #[test]
    fn roles_round_trip_through_protocol_names() {
        for role in [
            ReplicaRole::Leader,
            ReplicaRole::Follower,
            ReplicaRole::Fenced,
        ] {
            assert_eq!(ReplicaRole::parse(role.as_str()), Some(role));
            assert_eq!(ReplicaRole::from_u8(role.as_u8()), role);
        }
        assert_eq!(ReplicaRole::parse("president"), None);
    }

    #[test]
    fn terms_persist_in_the_data_directory() {
        let dir = std::env::temp_dir().join(format!("factorlog_term_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = Engine::open_durable(&dir).unwrap();
        let disk = crate::disk::StdDisk;
        assert_eq!(
            read_term(&disk, &dir).unwrap(),
            0,
            "absent TERM file reads as 0"
        );
        persist_term(&mut engine, 7).unwrap();
        assert_eq!(read_term(&disk, &dir).unwrap(), 7);
        persist_term(&mut engine, 8).unwrap();
        assert_eq!(
            read_term(&disk, &dir).unwrap(),
            8,
            "a later term replaces the file whole"
        );
        // Content that is not a term, and a file that cannot be read, are errors:
        // neither is evidence that the node never saw a failover.
        std::fs::write(dir.join(TERM_FILE), "eight\n").unwrap();
        let error = read_term(&disk, &dir).unwrap_err().to_string();
        assert!(error.contains("holds no term"), "{error}");
        std::fs::remove_file(dir.join(TERM_FILE)).unwrap();
        std::fs::create_dir(dir.join(TERM_FILE)).unwrap();
        let error = read_term(&disk, &dir).unwrap_err().to_string();
        assert!(error.contains("cannot read"), "{error}");
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
