//! Server chaos harness: the concurrent front end under concurrent readers and
//! writers, injected disk/merge faults during group commit (the disk is the
//! simulated one of `tests/support`), connections killed mid-request, and
//! shutdown mid-load.
//!
//! The properties under test are the served engine's contract:
//!
//! * **Snapshot isolation** — a reader never observes a partially applied
//!   transaction batch, and the epoch its reply carries always equals a
//!   committed prefix of the transaction stream.
//! * **Committed or structured error** — under a failing or panicking disk
//!   call or a `RoundMerge` fault, every transaction reply is either `OK` (and
//!   the write survives a crash) or a structured `ERR`; no hang, no torn state.
//! * **Recovery convergence** — after any chaos run, reopening the data
//!   directory yields exactly the reference model of the surviving base facts.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use factorlog::prelude::*;
use factorlog::workloads::programs;
use proptest::prelude::*;
use support::{Fault, SimDisk};

mod support;

fn c(i: i64) -> Const {
    Const::Int(i)
}

/// Is the base fact `e(x, y)` present in the store?
fn has_edge(db: &Database, x: i64, y: i64) -> bool {
    db.relation(Symbol::from("e"))
        .is_some_and(|rel| rel.contains(&[c(x), c(y)]))
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "factorlog_server_chaos_{tag}_{}_{n}",
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

/// The recovery-convergence oracle: a reopened store's model must be exactly the
/// reference model of its program over its surviving base facts.
fn assert_reopened_converges(reopened: &mut Engine) -> Result<(), TestCaseError> {
    let model = reopened.refreshed_model().expect("reopened store answers");
    prop_assert_eq!(
        ReferenceModel::from(&model),
        naive_evaluate(reopened.program(), reopened.facts()).expect("reference"),
        "reopened store diverges from the reference"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite: concurrent snapshot isolation. A writer streams transactions
    /// that assert `a(i)` and `b(i)` in ONE batch while reader threads query
    /// the derived `pair(X) :- a(X), b(X).` view. Because a batch is atomic
    /// and the epoch counts committed batches, every reply must satisfy
    /// `rows == {0, 1, …, epoch-1}` exactly — a half-applied batch or an epoch
    /// that is not a committed prefix would break the equality.
    #[test]
    fn readers_never_observe_a_partial_batch_and_epochs_are_committed_prefixes(
        txns in 6usize..18,
        readers in 2usize..5,
        queries_per_reader in 5usize..25,
    ) {
        let mut engine = Engine::new();
        engine
            .load_source("pair(X) :- a(X), b(X).")
            .expect("program loads");
        let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
        let addr = handle.addr();

        let done = Arc::new(AtomicBool::new(false));
        let reader_threads: Vec<_> = (0..readers)
            .map(|_| {
                let done = done.clone();
                std::thread::spawn(move || -> Result<usize, String> {
                    let mut client =
                        Client::connect_with_retry(addr, 5).map_err(|e| e.to_string())?;
                    let mut observed = 0usize;
                    for _ in 0..queries_per_reader {
                        let reply = client
                            .query_with_retry("pair(X)", 8)
                            .map_err(|e| e.to_string())?;
                        let rows: Vec<i64> = reply
                            .rows
                            .iter()
                            .map(|r| r.parse().map_err(|e| format!("row `{r}`: {e}")))
                            .collect::<Result<_, _>>()?;
                        let expect: Vec<i64> = (0..reply.epoch as i64).collect();
                        if rows != expect {
                            return Err(format!(
                                "epoch {} is not a committed prefix: rows {rows:?}",
                                reply.epoch
                            ));
                        }
                        observed += 1;
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    Ok(observed)
                })
            })
            .collect();

        let mut writer = Client::connect(addr).expect("writer connects");
        let mut last_epoch = 0u64;
        for i in 0..txns {
            let reply = writer
                .txn_with_retry(&format!("+a({i}); +b({i})"), 8)
                .expect("txn commits");
            prop_assert!(
                reply.epoch > last_epoch,
                "epochs advance monotonically per client"
            );
            last_epoch = reply.epoch;
        }
        done.store(true, Ordering::Relaxed);
        for reader in reader_threads {
            let observed = reader.join().expect("reader thread");
            prop_assert!(observed.is_ok(), "reader failed: {:?}", observed);
        }
        let report = handle.shutdown();
        prop_assert_eq!(report.epoch, txns as u64, "all batches committed");
        let mut engine = report.engine;
        prop_assert_eq!(
            engine
                .query(&parse_query("pair(X)").unwrap())
                .expect("returned engine answers")
                .len(),
            txns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tentpole chaos: a durable served engine with a fault armed at a call of
    /// its disk or at the view-refresh merge (error or panic action, random
    /// countdown), under concurrent writer clients. Every transaction reply
    /// must be `OK` or a structured `ERR`; every `OK`d fact must survive a
    /// crash that keeps only what was synced; and the recovered store must
    /// converge to the reference evaluation.
    #[test]
    fn wal_and_merge_faults_during_group_commit_stay_contained(
        site_sel in 0usize..2,
        action_sel in 0usize..2,
        countdown in 0u64..6,
        writers in 2usize..5,
        txns_per_writer in 2usize..6,
    ) {
        let action = [FaultAction::Error, FaultAction::Panic][action_sel];
        let disk = SimDisk::new();
        let dopts = DurabilityOptions { fsync: true, ..DurabilityOptions::default() };
        let open = |disk: &SimDisk| {
            Engine::open_durable_on(disk.arc(), "/data", dopts, EvalOptions::default())
        };
        let mut engine = open(&disk).expect("durable open");
        engine.load_source(programs::THREE_RULE_TC).expect("program loads");
        if site_sel == 1 {
            engine.set_fault_injector(Some(FaultInjector::armed(
                FaultSite::RoundMerge,
                action,
                countdown as u32,
            )));
        }

        // The disk is armed from `serve` through `shutdown`: every disk call the
        // served engine's owner makes (the `TERM` read, the writer's commits, the
        // final flush) runs under the engine's containment.
        if site_sel == 0 {
            disk.fail_at(disk.calls() + countdown as usize, [Fault::Error, Fault::Panic][action_sel]);
        }
        // The armed fault can fire during serve() (its `TERM` read, its initial
        // refresh): that is a structured refusal with the engine handed back, not a
        // chaos failure.
        let handle = match serve(engine, "127.0.0.1:0", server_opts()) {
            Ok(handle) => handle,
            Err(e) => {
                disk.disarm();
                drop(e); // engine drops, releasing the LOCK
                let mut reopened = open(&disk).expect("reopen after refusal");
                assert_reopened_converges(&mut reopened)?;
                return Ok(());
            }
        };
        let addr = handle.addr();

        // Writer clients: disjoint edges, so each acked fact is attributable.
        let worker_threads: Vec<_> = (0..writers)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut acked: Vec<(i64, i64)> = Vec::new();
                    let mut structured = 0usize;
                    let mut client = match Client::connect_with_retry(addr, 5) {
                        Ok(client) => client,
                        Err(_) => return (acked, structured, 0usize),
                    };
                    let mut unstructured = 0usize;
                    for k in 0..txns_per_writer {
                        let (x, y) = (1000 * (w as i64 + 1) + k as i64, k as i64);
                        match client.txn_with_retry(&format!("+e({x}, {y})"), 8) {
                            Ok(_) => acked.push((x, y)),
                            Err(ClientError::Server { .. }) => structured += 1,
                            Err(_) => unstructured += 1,
                        }
                    }
                    (acked, structured, unstructured)
                })
            })
            .collect();
        let mut acked: Vec<(i64, i64)> = Vec::new();
        for worker in worker_threads {
            let (worker_acked, _structured, unstructured) = worker.join().expect("writer thread");
            // No connection was killed in this scenario, so socket-level
            // failures would mean the server wedged or died: forbidden.
            prop_assert_eq!(unstructured, 0, "only OK or structured ERR is allowed");
            acked.extend(worker_acked);
        }

        // The server survives the chaos: a fresh client gets answers.
        let mut probe = Client::connect(addr).expect("probe connects");
        probe.ping().expect("server alive after faults");
        // The crash: only what was synced survives. The shutdown's own flush may
        // meet the armed fault; it is contained and reported, never raised.
        let crashed = SimDisk::with_files(&disk.durable_files());
        let report = handle.shutdown();
        disk.disarm(); // before the engine drops: releasing the LOCK is a disk call
        drop(report);

        // Every acknowledged write is durable across a crash…
        let mut reopened = open(&crashed).expect("recovery");
        for &(x, y) in &acked {
            prop_assert!(
                has_edge(reopened.facts(), x, y),
                "acked e({x}, {y}) lost across a crash"
            );
        }
        // …and the store converges to the reference evaluation.
        assert_reopened_converges(&mut reopened)?;
    }
}

/// Connections killed mid-request (the client vanishes after sending, without
/// ever reading its reply) must not wedge the server, leak its in-flight
/// budget, or tear state: surviving clients keep getting consistent answers
/// and the final store matches what was committed.
#[test]
fn connections_killed_mid_request_leave_the_server_consistent() {
    let mut engine = Engine::new();
    engine
        .load_source("pair(X) :- a(X), b(X).")
        .expect("program loads");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr();

    // Waves of clients that submit work and hang up immediately.
    for i in 0..12i64 {
        let mut victim = Client::connect(addr).expect("victim connects");
        // A transaction whose reply nobody will read…
        let spec = format!("+a({i}); +b({i})");
        let killed = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
            // …and a raw socket torn down mid-line (no terminating newline).
            let _ = raw.write_all(b"QUERY pair(");
            drop(raw);
        });
        // The victim's own submission also goes unread: drop the client right
        // after the request hits the wire.
        std::thread::spawn(move || {
            let _ = victim.txn(&spec);
            // victim dropped here without QUIT
        })
        .join()
        .expect("victim thread");
        killed.join().expect("killer thread");
    }

    // A well-behaved client still sees a consistent committed prefix.
    let mut client = Client::connect(addr).expect("survivor connects");
    let reply = client.query("pair(X)").expect("query answers");
    let rows: BTreeSet<i64> = reply.rows.iter().map(|r| r.parse().unwrap()).collect();
    let expect: BTreeSet<i64> = (0..reply.epoch as i64).collect();
    assert_eq!(rows, expect, "killed connections must not tear batches");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.in_flight, 0,
        "killed requests must not leak admission"
    );

    let report = handle.shutdown();
    assert!(report.drained_cleanly);
    let mut engine = report.engine;
    assert_eq!(
        engine
            .query(&parse_query("pair(X)").unwrap())
            .expect("returned engine answers")
            .len() as u64,
        report.epoch,
        "the returned engine holds exactly the committed prefix"
    );
}

/// Shutdown mid-load: with readers and writers still streaming, a graceful
/// shutdown must terminate promptly, give every still-connected client either
/// a result or a structured/socket-level refusal (never a hang), flush the
/// WAL, and leave a store that recovers to the reference evaluation.
#[test]
fn shutdown_mid_load_drains_and_recovers() {
    let dir = fresh_dir("drain");
    let dopts = DurabilityOptions {
        fsync: false,
        ..DurabilityOptions::default()
    };
    let mut engine = Engine::open_durable_with(&dir, dopts).expect("durable open");
    engine
        .load_source(programs::THREE_RULE_TC)
        .expect("program loads");
    let handle = serve(engine, "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut acked: Vec<(i64, i64)> = Vec::new();
                let Ok(mut client) = Client::connect_with_retry(addr, 5) else {
                    return acked;
                };
                for k in 0..200i64 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let (x, y) = (100 * (w as i64 + 1) + k, k);
                    // Ok = committed; Server err = structured refusal
                    // (overloaded/shutdown); Io = the socket died under
                    // shutdown. All are acceptable outcomes — hanging is not.
                    match client.txn(&format!("+e({x}, {y})")) {
                        Ok(_) => acked.push((x, y)),
                        Err(ClientError::Server { .. }) => {}
                        Err(_) => break,
                    }
                    let _ = client.query("t(0, Y)");
                }
                acked
            })
        })
        .collect();

    // Let the load build, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(150));
    let report = handle.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mut acked: Vec<(i64, i64)> = Vec::new();
    for worker in workers {
        acked.extend(worker.join().expect("worker thread"));
    }
    assert!(
        !acked.is_empty(),
        "some transactions committed before drain"
    );
    drop(report);

    let mut reopened = Engine::open_durable(&dir).expect("reopen");
    reopened
        .load_source(programs::THREE_RULE_TC)
        .expect("program");
    for &(x, y) in &acked {
        assert!(
            has_edge(reopened.facts(), x, y),
            "acked e({x}, {y}) lost across shutdown + restart"
        );
    }
    assert_reopened_converges(&mut reopened).unwrap();
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
