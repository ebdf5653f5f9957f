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
//!   refuses transactions while the promoted node keeps committing.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;

fn c(i: i64) -> Const {
    Const::Int(i)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "factorlog_repl_crash_{tag}_{}_{n}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
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
        fsync: false,
        compact_threshold,
    }
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

fn open_follower(dir: &PathBuf, leader: &str) -> Replica {
    let engine = Engine::open_durable_with(dir, dopts(u64::MAX)).expect("follower opens durably");
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
        let leader_dir = fresh_dir("lead");
        let f1_dir = fresh_dir("f1");
        let f2_dir = fresh_dir("f2");

        // A tiny compaction threshold: the leader's log compacts repeatedly
        // mid-run, so a lagging follower's position routinely falls behind the
        // image and forces a bootstrap.
        let mut engine = Engine::open_durable_with(&leader_dir, dopts(256))
        .expect("leader opens durably");
        engine
            .load_source(programs::THREE_RULE_TC)
            .expect("program loads");
        let mut handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
        let addr = handle.addr();
        let leader = addr.to_string();

        let mut f1 = open_follower(&f1_dir, &leader);
        let mut f2 = open_follower(&f2_dir, &leader);

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
                // dies between frame batches and reopens from its own WAL.
                2 => {
                    let _ = f1.sync_once().expect("follower syncs");
                    drop(f1);
                    f1 = open_follower(&f1_dir, &leader);
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

        drop((leader_engine, f1_engine, f2_engine));
        for dir in [&leader_dir, &f1_dir, &f2_dir] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Compaction racing a lagging follower, deterministically: the follower syncs
/// an early prefix, disconnects, the leader commits and compacts far past that
/// position, and the reconnecting follower must re-seed itself from the
/// shipped image (an observed bootstrap) and still converge.
#[test]
fn a_lagging_follower_bootstraps_past_a_compacted_log() {
    let leader_dir = fresh_dir("compact_lead");
    let follower_dir = fresh_dir("compact_follow");
    let mut engine =
        Engine::open_durable_with(&leader_dir, dopts(64)).expect("leader opens durably");
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
    let mut follower = open_follower(&follower_dir, &addr);
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
    drop((leader_engine, follower));
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// Failover: promotion is refused while the lease is valid, succeeds once it
/// expires, the promoted follower accepts writes — and a revived ex-leader
/// that observes the higher term fences itself and refuses writes.
#[test]
fn a_promoted_follower_writes_while_a_fenced_ex_leader_cannot() {
    let leader_dir = fresh_dir("fence_lead");
    let follower_dir = fresh_dir("fence_follow");
    let mut engine =
        Engine::open_durable_with(&leader_dir, dopts(u64::MAX)).expect("leader opens durably");
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr().to_string();

    let mut writer = Client::connect(handle.addr()).expect("writer connects");
    writer.txn("+e(1, 2)").expect("txn commits");

    let engine =
        Engine::open_durable_with(&follower_dir, dopts(u64::MAX)).expect("follower opens durably");
    let follower = serve_follower(
        engine,
        addr.as_str(),
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
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

/// The served form of failover, over the wire: a `serve_follower` node answers
/// replicated queries, refuses `TXN` with `ERR readonly`, accepts `PROMOTE`
/// once the dead leader's lease expires, and commits transactions afterwards.
#[test]
fn a_served_follower_promotes_over_the_wire_and_resumes_writes() {
    let leader_dir = fresh_dir("wire_lead");
    let follower_dir = fresh_dir("wire_follow");
    let mut engine =
        Engine::open_durable_with(&leader_dir, dopts(u64::MAX)).expect("leader opens durably");
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let leader = serve(engine, "127.0.0.1:0", server_opts()).expect("leader serves");
    let mut writer = Client::connect(leader.addr()).expect("writer connects");
    writer.txn("+e(1, 2)").expect("txn commits");

    let engine =
        Engine::open_durable_with(&follower_dir, dopts(u64::MAX)).expect("follower opens durably");
    let follower = serve_follower(
        engine,
        leader.addr().to_string(),
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
    std::fs::remove_dir_all(&leader_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}
