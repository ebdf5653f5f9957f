//! Replication crash harness: leaders and followers killed at arbitrary frame
//! boundaries, disconnect/reconnect churn, and log compaction racing a lagging
//! follower.
//!
//! The properties under test are the replication subsystem's contract:
//!
//! * **Convergence** — after any interleaving of leader restarts, follower
//!   crashes (the replica process dies between frame batches and reopens from
//!   its own WAL), disconnect churn, and leader-side compaction, every
//!   follower that catches up holds a checksum-identical copy of the leader's
//!   committed EDB, and the replicated store's model is exactly the reference
//!   model of those facts.
//! * **Bootstrap** — a follower whose position the leader compacted away
//!   re-seeds itself from the shipped image (at least one bootstrap is
//!   observed) and still converges.
//! * **Failover** — a follower refuses promotion while the leader's lease is
//!   valid, promotes after it expires, accepts writes as the new leader, and
//!   a revived ex-leader that observes the higher term fences itself: it
//!   refuses transactions while the promoted node keeps committing. A
//!   stream of `PROMOTE`s never starves a served follower's polls, so a live
//!   leader's lease holds; a leader that accepts and never answers counts as
//!   lost contact, so `PROMOTE` is answered and the follower takes over.
//! * **Crash states** — a follower that bootstraps from a compacted leader and
//!   is then promoted, crashed after any call of its (simulated) disk in any
//!   way the persistence rules allow, recovers a prefix of the leader's
//!   history holding everything it had applied, and keeps its term.
//! * **Chains** — a follower of a served follower converges to the leader,
//!   across a compaction that the middle node catches up with by image.
//! * **Terms** — a newer term is adopted only once it is on disk, so a failed
//!   `TERM` write is retried by the next poll that carries the term.
//! * **No file I/O on the reactor** — in a served run, every disk call of
//!   every node comes from the thread that owns its engine.
//!
//! Every node runs on the simulated disk of `tests/support`; a killed node
//! reopens from what its disk had synced.

mod support;

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use factorlog::engine::TERM_FILE;
use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;
use support::{check_crash_states, Checked, Memo, Script, SimDisk};

/// The data directory of every node, each on a simulated disk of its own.
const DIR: &str = "/data";

fn c(i: i64) -> Const {
    Const::Int(i)
}

fn server_opts() -> ServerOptions {
    ServerOptions {
        group_window: Duration::from_millis(2),
        drain_timeout: Duration::from_secs(3),
        ..ServerOptions::default()
    }
}

fn dopts(compact_threshold: u64) -> DurabilityOptions {
    DurabilityOptions {
        fsync: true,
        compact_threshold,
    }
}

/// A node's durable engine on `disk`.
fn open_on(disk: &SimDisk, compact_threshold: u64) -> Engine {
    Engine::open_durable_on(
        disk.arc(),
        DIR,
        dopts(compact_threshold),
        EvalOptions::default(),
    )
    .expect("node opens durably")
}

/// The disk a crash of the node on `disk` leaves: what it had synced.
fn crashed(disk: &SimDisk) -> SimDisk {
    SimDisk::with_files(&disk.durable_files())
}

/// Fast-polling replication options with the given lease.
fn ropts(lease: Duration) -> ReplicationOptions {
    ReplicationOptions {
        poll_interval: Duration::from_millis(5),
        lease_timeout: lease,
    }
}

/// The canonical content checksum: the sorted set of rendered base facts.
/// Identical sets mean byte-identical EDBs regardless of arrival order.
fn fact_set(engine: &Engine) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for (predicate, relation) in engine.facts().iter() {
        for tuple in relation.iter() {
            let rendered: Vec<String> = tuple.iter().map(|c| c.to_string()).collect();
            set.insert(format!("{predicate}({})", rendered.join(", ")));
        }
    }
    set
}

fn open_follower(disk: &SimDisk, leader: &str) -> Replica {
    let engine = open_on(disk, u64::MAX);
    Replica::from_engine(engine, leader, ropts(Duration::from_secs(3600)))
        .expect("durable engine wraps as a replica")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole chaos: a durable leader with an aggressively small compaction
    /// threshold serves two followers while a random phase script interleaves
    /// writes with follower kills (drop + reopen from the replica's own WAL,
    /// landing between arbitrary frame batches), disconnect churn, and full
    /// leader restarts (shutdown + re-serve on the same port). Both followers
    /// must converge to a checksum-identical copy of the leader's committed
    /// EDB, whose model is the reference model.
    #[test]
    fn followers_converge_under_kills_churn_and_compaction(
        phases in proptest::collection::vec((1usize..6, 0u64..4), 3..7),
    ) {
        let mut f1_disk = SimDisk::new();
        let f2_disk = SimDisk::new();

        // A tiny compaction threshold: the leader's log compacts repeatedly
        // mid-run, so a lagging follower's position routinely falls behind the
        // image and forces a bootstrap.
        let mut engine = open_on(&SimDisk::new(), 256);
        engine
            .load_source(programs::THREE_RULE_TC)
            .expect("program loads");
        let mut handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
        let addr = handle.addr();
        let leader = addr.to_string();

        let mut f1 = open_follower(&f1_disk, &leader);
        let mut f2 = open_follower(&f2_disk, &leader);

        let mut next_edge = 0i64;
        for &(txns, action) in &phases {
            let mut writer = Client::connect_with_retry(addr, 10).expect("writer connects");
            for _ in 0..txns {
                let (x, y) = (next_edge, next_edge + 1);
                next_edge += 1;
                writer
                    .txn_with_retry(&format!("+e({x}, {y})"), 8)
                    .expect("txn commits");
            }
            drop(writer);
            // The steady follower polls every phase; the churned one suffers
            // the scripted fault.
            let _ = f2.sync_once().expect("steady follower syncs");
            match action {
                // Partial catch-up: apply at most one poll's frames.
                0 => {
                    let _ = f1.sync_once().expect("follower syncs");
                }
                // Disconnect churn: drop the connection, lag builds.
                1 => f1.disconnect(),
                // Follower killed at an arbitrary frame boundary: the replica
                // dies between frame batches and reopens from what its disk
                // had synced.
                2 => {
                    let _ = f1.sync_once().expect("follower syncs");
                    f1_disk = crashed(&f1_disk);
                    drop(f1);
                    f1 = open_follower(&f1_disk, &leader);
                }
                // Leader killed and revived on the same address: followers
                // reconnect and resume from their last applied seq.
                _ => {
                    let report = handle.shutdown();
                    handle = serve(report.engine, addr, server_opts()).expect("re-serve");
                }
            }
        }

        // Quiesce: both followers drain the backlog.
        prop_assert!(f1.catch_up(500).expect("f1 catches up"), "f1 lag {} after churn", f1.lag_frames());
        prop_assert!(f2.catch_up(500).expect("f2 catches up"), "f2 lag {} after churn", f2.lag_frames());

        let leader_engine = handle.shutdown().engine;
        let leader_facts = fact_set(&leader_engine);
        prop_assert_eq!(
            leader_facts.len(),
            next_edge as usize,
            "every committed edge is in the leader's EDB"
        );
        prop_assert_eq!(&fact_set(f1.engine()), &leader_facts, "f1 checksum-identical");
        prop_assert_eq!(&fact_set(f2.engine()), &leader_facts, "f2 checksum-identical");

        let mut f1_engine = f1.into_engine();
        let mut f2_engine = f2.into_engine();
        for store in [&mut f1_engine, &mut f2_engine] {
            let model = store.refreshed_model().expect("replicated store answers");
            prop_assert_eq!(
                ReferenceModel::from(&model),
                naive_evaluate(store.program(), store.facts()).expect("reference"),
                "replicated store diverges from the reference"
            );
        }

    }
}

/// Compaction racing a lagging follower, deterministically: the follower syncs
/// an early prefix, disconnects, the leader commits and compacts far past that
/// position, and the reconnecting follower must re-seed itself from the
/// shipped image (an observed bootstrap) and still converge.
#[test]
fn a_lagging_follower_bootstraps_past_a_compacted_log() {
    let follower_disk = SimDisk::new();
    let mut engine = open_on(&SimDisk::new(), 64);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    // A symbol the log accepts but Datalog text cannot spell (`TXN` cannot
    // either, hence the API): it must survive the shipped image too.
    engine
        .insert("label", &[c(0), Const::sym("say \"hi\"")])
        .expect("the quoted symbol commits");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr().to_string();

    let mut writer = Client::connect(handle.addr()).expect("writer connects");
    writer.txn("+e(0, 1)").expect("first txn");
    let mut follower = open_follower(&follower_disk, &addr);
    assert!(follower.catch_up(200).expect("initial catch-up"));
    follower.disconnect();

    // 40 single-fact commits against a 64-byte threshold: the log compacts
    // many times over, discarding the follower's resume position.
    for i in 1..40i64 {
        writer
            .txn_with_retry(&format!("+e({i}, {})", i + 1), 8)
            .expect("txn commits");
    }
    assert!(follower.catch_up(500).expect("post-compaction catch-up"));
    assert!(
        follower.status().bootstraps >= 1,
        "the follower must have re-seeded from the shipped snapshot, status {:?}",
        follower.status()
    );

    let leader_engine = handle.shutdown().engine;
    assert_eq!(
        fact_set(follower.engine()),
        fact_set(&leader_engine),
        "bootstrapped follower is checksum-identical"
    );
    // So is the follower a crash leaves.
    drop(follower);
    let reopened = open_on(&crashed(&follower_disk), u64::MAX);
    assert_eq!(fact_set(&reopened), fact_set(&leader_engine));
}

/// Failover: promotion is refused while the lease is valid, succeeds once it
/// expires, the promoted follower accepts writes — and a revived ex-leader
/// that observes the higher term fences itself and refuses writes.
#[test]
fn a_promoted_follower_writes_while_a_fenced_ex_leader_cannot() {
    let mut engine = open_on(&SimDisk::new(), u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr().to_string();

    let mut writer = Client::connect(handle.addr()).expect("writer connects");
    writer.txn("+e(1, 2)").expect("txn commits");

    let engine = open_on(&SimDisk::new(), u64::MAX);
    let replica = Replica::from_engine(engine, addr.as_str(), ropts(Duration::from_millis(200)))
        .expect("a durable engine wraps");
    let follower = serve_follower(
        replica,
        "127.0.0.1:0",
        server_opts(),
        ropts(Duration::from_millis(200)),
    )
    .expect("follower serves");
    let mut client = Client::connect(follower.addr()).expect("client connects");
    let mut rows = Vec::new();
    for _ in 0..400 {
        rows = client.query("t(1, Y)").expect("follower answers").rows;
        if !rows.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(rows, vec!["2".to_string()], "the follower caught up");

    // The lease is renewed by every poll: promotion must refuse.
    match client.promote() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "lease"),
        other => panic!("promotion during a valid lease must refuse, got {other:?}"),
    }
    // Follower writes are refused while following.
    match client.txn("+e(9, 9)") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "readonly"),
        other => panic!("a follower must refuse TXN, got {other:?}"),
    }

    // The leader dies; once the lease expires the follower takes over.
    let ex_leader = handle.shutdown().engine;
    std::thread::sleep(Duration::from_millis(300));
    let (role, term) = client.promote().expect("promotes after lease expiry");
    assert!(term >= 1, "promotion bumps the term, got {term}");
    assert_eq!(role, ReplicaRole::Leader);
    assert_eq!(follower.role(), ReplicaRole::Leader);
    let wrote = client.txn("+e(2, 3)").expect("new leader writes");
    assert_eq!(wrote.asserted, 1);

    // The ex-leader revives — and the promoted node's higher term fences it.
    let handle = serve(ex_leader, "127.0.0.1:0", server_opts()).expect("ex-leader revives");
    let mut probe = Client::connect(handle.addr()).expect("probe connects");
    match probe.subscribe(1, follower.term(), 42) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "fenced"),
        other => panic!("a higher-term subscribe must fence the ex-leader, got {other:?}"),
    }
    match probe.txn("+e(8, 8)") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "fenced", "{message}");
        }
        other => panic!("a fenced ex-leader must refuse writes, got {other:?}"),
    }
    // …while the promoted follower keeps committing.
    let wrote = client.txn("+e(3, 4)").expect("promoted node writes");
    assert_eq!(wrote.asserted, 1);

    drop(handle.shutdown());
    drop(follower.shutdown());
}

/// The served form of failover, over the wire: a `serve_follower` node answers
/// replicated queries, refuses `TXN` with `ERR readonly`, accepts `PROMOTE`
/// once the dead leader's lease expires, and commits transactions afterwards.
#[test]
fn a_served_follower_promotes_over_the_wire_and_resumes_writes() {
    let mut engine = open_on(&SimDisk::new(), u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let mut writer = Client::connect(leader.addr()).expect("writer connects");
    writer.txn("+e(1, 2)").expect("txn commits");

    let engine = open_on(&SimDisk::new(), u64::MAX);
    let replica = Replica::from_engine(
        engine,
        leader.addr().to_string(),
        ropts(Duration::from_millis(250)),
    )
    .expect("a durable engine wraps");
    let follower = serve_follower(
        replica,
        "127.0.0.1:0",
        server_opts(),
        ropts(Duration::from_millis(250)),
    )
    .expect("follower serves");
    let mut client = Client::connect(follower.addr()).expect("client connects");

    // The replicated view appears on the follower (stale-bounded, so poll).
    let mut rows = Vec::new();
    for _ in 0..400 {
        rows = client.query("t(1, Y)").expect("follower answers").rows;
        if !rows.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(rows, vec!["2".to_string()], "replicated derivation visible");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.role, ReplicaRole::Follower);

    // Writes are refused while following…
    match client.txn("+e(7, 7)") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "readonly"),
        other => panic!("a follower must refuse TXN, got {other:?}"),
    }
    // …and premature promotion is refused while the lease is valid.
    match client.promote() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "lease"),
        other => panic!("promotion during a valid lease must refuse, got {other:?}"),
    }

    // The leader dies; after the lease expires PROMOTE succeeds and the node
    // commits transactions like any leader.
    drop(leader.shutdown());
    let mut promoted = None;
    for _ in 0..400 {
        match client.promote() {
            Ok(result) => {
                promoted = Some(result);
                break;
            }
            Err(ClientError::Server { code, .. }) if code == "lease" => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected promote failure: {e:?}"),
        }
    }
    let (role, term) = promoted.expect("PROMOTE succeeds after the lease expires");
    assert_eq!(role, ReplicaRole::Leader);
    assert!(term >= 1);
    client.txn("+e(2, 3)").expect("promoted node commits");
    let reply = client.query("t(1, Y)").expect("post-failover query");
    let rows: BTreeSet<String> = reply.rows.into_iter().collect();
    assert!(
        rows.contains("3"),
        "the write after failover derives, rows {rows:?}"
    );

    drop(follower.shutdown());
}

/// `PROMOTE`s never starve a served follower's polls: sent every 5 ms, faster
/// than the follower polls, for twice the lease while the leader lives, each
/// one is refused, since the polls go on renewing the lease between them.
#[test]
fn a_stream_of_promotes_never_lets_a_live_leaders_lease_lapse() {
    let mut engine = open_on(&SimDisk::new(), u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let mut writer = Client::connect(leader.addr()).expect("writer connects");
    writer.txn("+e(1, 2)").expect("txn commits");

    let lease = Duration::from_millis(200);
    let options = ReplicationOptions {
        poll_interval: Duration::from_millis(20),
        lease_timeout: lease,
    };
    let engine = open_on(&SimDisk::new(), u64::MAX);
    let replica = Replica::from_engine(engine, leader.addr().to_string(), options.clone())
        .expect("a durable engine wraps");
    let follower =
        serve_follower(replica, "127.0.0.1:0", server_opts(), options).expect("follower serves");
    let mut client = Client::connect(follower.addr()).expect("client connects");
    // The replicated fact shows that a poll reached the leader.
    for _ in 0..400 {
        if !client
            .query("e(1, Y)")
            .expect("follower answers")
            .rows
            .is_empty()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let until = Instant::now() + lease * 2;
    let mut refused = 0;
    while Instant::now() < until {
        assert_eq!(
            err_code(client.promote()),
            "lease",
            "after {refused} refusals"
        );
        refused += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.stats().expect("stats").role, ReplicaRole::Follower);
    drop((follower.shutdown(), leader.shutdown()));
}

/// A leader that accepts the connection and never answers counts as lost
/// contact: each poll gives up after the lease timeout, so `PROMOTE`, answered
/// by the thread that polls, gets its reply within two lease timeouts, and the
/// follower promotes once the lease has lapsed.
#[test]
fn promote_is_answered_while_the_leader_accepts_and_never_replies() {
    // The kernel completes the handshake of each connection in the backlog of
    // a listener nobody accepts from: a leader process that stopped.
    let silent = TcpListener::bind("127.0.0.1:0").expect("binds");
    let leader = silent.local_addr().expect("bound").to_string();
    let lease = Duration::from_millis(200);
    let engine = open_on(&SimDisk::new(), u64::MAX);
    let replica =
        Replica::from_engine(engine, leader, ropts(lease)).expect("a durable engine wraps");
    let follower = serve_follower(replica, "127.0.0.1:0", server_opts(), ropts(lease))
        .expect("follower serves");
    // A raw connection, so a reply that never comes fails the test instead of
    // blocking it.
    let stream = TcpStream::connect(follower.addr()).expect("client connects");
    stream
        .set_read_timeout(Some(lease * 2))
        .expect("read timeout");
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    for _ in 0..50 {
        (&stream).write_all(b"PROMOTE\n").expect("sends");
        reply.clear();
        reader
            .read_line(&mut reply)
            .expect("PROMOTE is answered within two lease timeouts");
        if !reply.starts_with("ERR lease:") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(reply.starts_with("OK role=leader"), "{reply}");
    drop(follower.shutdown());
}

/// A follower's append is an append like any other: its disk failing the
/// write of a shipped batch fails the poll, applies nothing (write-ahead), and
/// the next poll applies the whole batch.
#[test]
fn a_disk_fault_on_a_followers_append_applies_nothing() {
    let mut engine = open_on(&SimDisk::new(), u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program");
    engine.insert("e", &[c(0), c(1)]).expect("commit");
    engine.insert("e", &[c(1), c(2)]).expect("commit");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let disk = SimDisk::new();
    let mut follower = open_follower(&disk, &handle.addr().to_string());
    // The poll's first disk call is the append of the shipped batch.
    disk.fail_at(disk.calls(), support::Fault::Error);
    let err = follower.sync_once().unwrap_err();
    assert!(matches!(err, EngineError::Durability(_)), "{err}");
    assert_eq!(follower.applied_seq(), 0);
    assert!(follower.engine().program().is_empty());
    assert_eq!(follower.sync_once().expect("retry").frames_applied, 3);
    assert_eq!(follower.engine().facts().count("e"), 2);
    drop(handle.shutdown());
}

/// A served leader on a simulated disk holding the program and `commits`
/// edges `e(i, i + 1)`, compacting past 400 log bytes.
fn leader_with(commits: i64) -> ServerHandle {
    let mut engine = open_on(&SimDisk::new(), 400);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program");
    for i in 0..commits {
        engine.insert("e", &[c(i), c(i + 1)]).expect("commit");
    }
    serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves")
}

/// The size in bytes of a recorded `write <file> +<n> byte(s) …` call.
fn write_size(label: &str, file: &str) -> Option<usize> {
    let rest = label.strip_prefix(&format!("write {file} +"))?;
    rest.split(' ').next()?.parse().ok()
}

/// The crash-state harness on a follower. It catches up with one leader (the
/// program and four commits arrive as one group append), then with a second
/// one that holds the same history plus sixteen commits and has compacted
/// past the follower's position, so the follower installs the shipped image
/// (a bootstrap). It is then served and promoted once the leaders are gone,
/// and commits as the new leader. After every call of its disk, every state a
/// crash can leave must recover a prefix of that history holding everything
/// the follower had acknowledged, whose model is the reference model; once the
/// promotion was acknowledged, the term must survive too. Then the catch-ups
/// run again with each of their disk calls failing in turn (a run stops at
/// the catch-up that fails), and the crash states from the failure on are
/// checked the same way.
#[test]
fn a_follower_crashing_at_any_disk_call_recovers_a_prefix_of_the_leader() {
    // Outcome k is the state after k steps: the program, then `e(i, i + 1)`
    // for i = 0, 1, … (outcome i + 2).
    let mut ledger = Engine::new();
    let mut outcomes = vec![(fact_set(&ledger), ledger.program().clone())];
    let mut references = vec![naive_evaluate(ledger.program(), ledger.facts()).unwrap()];
    ledger.load_source(programs::THREE_RULE_TC).unwrap();
    for i in 0..=24 {
        outcomes.push((fact_set(&ledger), ledger.program().clone()));
        references.push(naive_evaluate(ledger.program(), ledger.facts()).unwrap());
        ledger.insert("e", &[c(i), c(i + 1)]).unwrap();
    }
    // Outcome index of a session's state.
    let index = |engine: &Engine| {
        let state = (fact_set(engine), engine.program().clone());
        outcomes.iter().position(|outcome| *outcome == state)
    };
    let options = dopts(u64::MAX);
    let recover = |crash: &SimDisk| {
        let mut engine = Engine::open_durable_on(crash.arc(), DIR, options, EvalOptions::default())
            .map_err(|e| format!("recovery fails: {e}"))?;
        let Some(k) = index(&engine) else {
            return Ok(Vec::new());
        };
        let model = engine.refreshed_model().map_err(|e| e.to_string())?;
        if ReferenceModel::from(&model) != references[k] {
            return Err(format!(
                "the model recovered as outcome {k} is not its reference"
            ));
        }
        Ok(vec![k])
    };

    let (first, second) = (leader_with(4), leader_with(20));
    let leaders = [first.addr().to_string(), second.addr().to_string()];
    // The two catch-ups on a recording disk, with call `fail` failing; the
    // follower, unless a catch-up failed.
    let catch_ups = |fail: Option<usize>| -> (SimDisk, Script, Option<Replica>) {
        let disk = SimDisk::recording();
        if let Some(call) = fail {
            disk.fail_at(call, support::Fault::Error);
        }
        let mut script = Script::default();
        let Ok(mut engine) =
            Engine::open_durable_on(disk.arc(), DIR, options, EvalOptions::default())
        else {
            return (disk, script, None);
        };
        for (leader, leader_at) in leaders.iter().zip([5, 21]) {
            script.start(&disk, leader_at);
            let Ok(mut follower) = Replica::from_engine(engine, leader, ropts(Duration::MAX))
            else {
                return (disk, script, None);
            };
            if !matches!(follower.catch_up(200), Ok(true)) {
                return (disk, script, None);
            }
            let at = index(follower.engine()).expect("the follower holds a prefix");
            script.ack(&disk, at);
            engine = follower.into_engine();
        }
        let follower = Replica::from_engine(engine, &leaders[1], ropts(Duration::MAX)).ok();
        (disk, script, follower)
    };

    let (mut memo, mut checked) = (Memo::default(), Checked::default());
    let (disk, mut script, follower) = catch_ups(None);
    let follower = follower.expect("the catch-ups succeed");
    let caught_up = disk.calls();
    let writes: Vec<usize> = disk
        .history()
        .iter()
        .filter_map(|(label, _)| write_size(label, "wal.log"))
        .collect();
    assert!(
        writes.iter().any(|&bytes| bytes > 150),
        "the first catch-up appends one group of records: {writes:?}"
    );
    assert!(
        disk.history()
            .iter()
            .any(|(label, _)| label.starts_with("rename")),
        "the second catch-up installs the image"
    );

    // The catch-ups again, each of their disk calls failing in turn.
    for fail in 0..caught_up {
        let (disk, script, _) = catch_ups(Some(fail));
        let calls = fail..disk.calls();
        if let Err(trace) =
            check_crash_states(&disk, &script, calls, &mut memo, &mut checked, recover)
        {
            panic!("with call {fail} failing:\n{trace}");
        }
    }
    // Served, then promoted once the leaders are gone; then it commits.
    let lease = Duration::from_millis(60);
    let served = serve_follower(follower, "127.0.0.1:0", server_opts(), ropts(lease))
        .expect("follower serves");
    let mut client = Client::connect(served.addr()).expect("client connects");
    drop((first.shutdown(), second.shutdown()));
    let promoted_at = loop {
        match client.promote() {
            Ok((ReplicaRole::Leader, term)) => break (disk.calls(), term),
            Ok(other) => panic!("unexpected promotion result {other:?}"),
            Err(ClientError::Server { code, .. }) if code == "lease" => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("promotion fails: {e:?}"),
        }
    };
    for i in 20..24 {
        script.start(&disk, i as usize + 2);
        client
            .txn(&format!("+e({i}, {})", i + 1))
            .expect("promoted node commits");
        script.ack(&disk, i as usize + 2);
    }
    drop(served.shutdown());

    let calls = 0..disk.calls();
    if let Err(trace) = check_crash_states(&disk, &script, calls, &mut memo, &mut checked, recover)
    {
        panic!("{trace}");
    }
    // The promotion survives every crash after it was acknowledged.
    let term_path = Path::new(DIR).join(TERM_FILE);
    for (call, (label, state)) in disk.history().iter().enumerate().skip(promoted_at.0) {
        for (files, kept) in state.crash_states() {
            let term = files
                .get(&term_path)
                .and_then(|text| String::from_utf8_lossy(text).trim().parse::<u64>().ok());
            assert_eq!(
                term,
                Some(promoted_at.1),
                "a crash after call {call} ({label}) keeping {kept} loses the term"
            );
        }
    }
    assert!(checked.states > 50, "{checked:?}");
}

/// The term a crash of the node on `disk` keeps (`None`: no `TERM` file).
fn durable_term(disk: &SimDisk) -> Option<u64> {
    let files = disk.durable_files();
    let text = files.get(&Path::new(DIR).join(TERM_FILE))?;
    String::from_utf8_lossy(text).trim().parse().ok()
}

/// The code of a server's `ERR` reply.
fn err_code<T: std::fmt::Debug>(reply: Result<T, ClientError>) -> String {
    match reply {
        Err(ClientError::Server { code, .. }) => code,
        other => panic!("expected a server error, got {other:?}"),
    }
}

/// Chained replication: follower B polls the served follower A, which polls
/// the leader. The leader compacts past A's position while A lags, so A
/// catches up by installing the shipped image; everything B is shipped then
/// comes from what A applied — its installed image and replayed frames — not
/// from commits of its own.
#[test]
fn a_follower_of_a_served_follower_converges_across_a_compaction() {
    let mut engine = open_on(&SimDisk::new(), 64);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let mut writer = Client::connect(leader.addr()).expect("writer connects");
    let mut expected = BTreeSet::new();
    let mut commit = |writer: &mut Client, edges: std::ops::Range<i64>| {
        for i in edges {
            writer
                .txn_with_retry(&format!("+e({i}, {})", i + 1), 8)
                .expect("txn commits");
            expected.insert(format!("e({i}, {})", i + 1));
        }
        expected.clone()
    };
    commit(&mut writer, 0..1);
    let mut a = open_follower(&SimDisk::new(), &leader.addr().to_string());
    assert!(a.catch_up(200).expect("A catches up"));
    // 39 commits against a 64-byte threshold: the leader's log compacts many
    // times over, past A's position.
    let facts = commit(&mut writer, 1..40);
    let a =
        serve_follower(a, "127.0.0.1:0", server_opts(), ropts(Duration::MAX)).expect("A serves");
    let mut b = open_follower(&SimDisk::new(), &a.addr().to_string());
    let converge = |b: &mut Replica, facts: &BTreeSet<String>| {
        for _ in 0..400 {
            b.sync_once().expect("B polls A");
            if fact_set(b.engine()) == *facts {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("B did not converge: {:?}", b.status());
    };
    converge(&mut b, &facts);
    let status = a.replica_status().expect("A follows");
    assert!(status.bootstraps >= 1, "A installed an image: {status:?}");
    assert!(
        b.status().bootstraps >= 1,
        "so did B, from A: {:?}",
        b.status()
    );
    // Later commits flow down the chain as frames.
    let facts = commit(&mut writer, 40..45);
    converge(&mut b, &facts);

    let mut b = b.into_engine();
    let model = b.refreshed_model().expect("B answers");
    assert_eq!(
        ReferenceModel::from(&model),
        naive_evaluate(b.program(), b.facts()).expect("reference")
    );
    drop((a.shutdown(), leader.shutdown()));
}

/// A follower adopts a newer term from its leader only once it is on disk:
/// when the write fails the poll fails, and the next poll writes the term.
/// (At the parent the follower adopted the term before writing it, so no
/// later poll wrote it again and a crash brought back the older term.)
#[test]
fn a_followers_failed_term_write_is_written_by_the_next_poll() {
    let term_file = (Path::new(DIR).join(TERM_FILE), b"3\n".to_vec());
    let mut engine = open_on(&SimDisk::with_files(&[term_file].into()), u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    assert_eq!(leader.term(), 3);
    let disk = SimDisk::new();
    let mut follower = open_follower(&disk, &leader.addr().to_string());
    // The poll's first disk call is the write of the leader's newer term.
    disk.fail_at(disk.calls(), support::Fault::Error);
    let err = follower.sync_once().unwrap_err();
    assert!(err.to_string().contains(TERM_FILE), "{err}");
    assert_eq!(follower.term(), 0, "a term not on disk is not adopted");
    follower.sync_once().expect("the next poll");
    assert_eq!(follower.term(), 3);
    assert_eq!(durable_term(&disk), Some(3));
    drop(leader.shutdown());
}

/// A leader that a poll with a newer term fences adopts that term only once it
/// is on disk: when the write fails it is fenced all the same (refusing writes
/// is always safe) and answers `ERR repl`, and the next such poll writes the
/// term. (At the parent the reactor adopted the term, then dropped the write's
/// error, so no later poll wrote it again.)
#[test]
fn a_fenced_leaders_failed_term_write_is_written_by_the_next_poll() {
    let disk = SimDisk::new();
    let mut engine = open_on(&disk, u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let mut probe = Client::connect(leader.addr()).expect("probe connects");
    // The poll's first disk call is the write of the newer term.
    disk.fail_at(disk.calls(), support::Fault::Error);
    assert_eq!(err_code(probe.subscribe(1, 7, 42)), "repl");
    assert_eq!(leader.role(), ReplicaRole::Fenced);
    assert_eq!(leader.term(), 0, "a term not on disk is not adopted");
    assert_eq!(err_code(probe.subscribe(1, 7, 42)), "fenced");
    assert_eq!(leader.term(), 7);
    assert_eq!(durable_term(&disk), Some(7));
    assert_eq!(err_code(probe.txn("+e(1, 2)")), "fenced");
    drop(leader.shutdown());
}

/// The reactor does no file I/O. A served run — a follower's polls that are
/// behind the image, caught up and k frames behind, a served follower polling
/// beside it, a poll that fences the leader and a `PROMOTE` of the served
/// follower — and no call of any node's disk comes from the reactor thread:
/// the writer and the follower's apply loop make them.
#[test]
fn the_reactor_makes_no_disk_call_in_a_served_run() {
    const REACTOR: &str = "factorlog-reactor";
    // A leader whose image is past a fresh follower's position.
    let leader_disk = SimDisk::new();
    let mut engine = open_on(&leader_disk, u64::MAX);
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    for i in 0..10 {
        engine.insert("e", &[c(i), c(i + 1)]).expect("commit");
    }
    engine.compact().expect("compaction");
    engine.insert("e", &[c(10), c(11)]).expect("commit");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let addr = leader.addr().to_string();

    let lease = Duration::from_millis(100);
    let served_disk = SimDisk::new();
    let replica =
        Replica::from_engine(open_on(&served_disk, u64::MAX), addr.as_str(), ropts(lease))
            .expect("a durable engine wraps");
    let served = serve_follower(replica, "127.0.0.1:0", server_opts(), ropts(lease))
        .expect("follower serves");

    let follower_disk = SimDisk::new();
    let mut follower = open_follower(&follower_disk, &addr);
    let report = follower.sync_once().expect("poll");
    assert!(report.bootstrapped, "behind the image: {report:?}");
    assert_eq!(report.frames_applied, 2, "the image and one frame");
    assert!(follower.catch_up(10).expect("a caught-up poll"));
    let mut writer = Client::connect(leader.addr()).expect("writer connects");
    for i in 11..14 {
        writer.txn(&format!("+e({i}, {})", i + 1)).expect("commit");
    }
    assert_eq!(follower.sync_once().expect("poll").frames_applied, 3);

    // A newer term fences the leader; its served follower's polls are then
    // refused, its lease lapses and it promotes.
    let mut probe = Client::connect(leader.addr()).expect("probe connects");
    assert_eq!(err_code(probe.subscribe(1, 5, 42)), "fenced");
    let mut client = Client::connect(served.addr()).expect("client connects");
    let (role, term) = loop {
        match client.promote() {
            Err(ClientError::Server { code, .. }) if code == "lease" => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => break other.expect("promotion"),
        }
    };
    assert_eq!((role, term), (ReplicaRole::Leader, 1));
    client
        .txn("+e(100, 101)")
        .expect("the promoted node commits");
    drop((served.shutdown(), leader.shutdown()));

    assert_eq!(
        (durable_term(&leader_disk), durable_term(&served_disk)),
        (Some(5), Some(1))
    );
    for (node, disk, owner) in [
        ("leader", &leader_disk, "factorlog-writer"),
        ("served follower", &served_disk, "factorlog-follower"),
        ("polling follower", &follower_disk, ""),
    ] {
        let threads = disk.threads();
        assert!(!threads.iter().any(|t| t == REACTOR), "{node}: {threads:?}");
        assert!(
            owner.is_empty() || threads.iter().any(|t| t == owner),
            "{node}: {threads:?}"
        );
    }
}
