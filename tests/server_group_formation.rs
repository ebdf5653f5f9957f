//! Group formation by demonstrated concurrency, on a live server: the writer forms
//! a group from who is actually in flight — what queued behind the previous commit
//! plus who was in it — and `group_window` only bounds the wait for one of those to
//! come back. Each test fails on a writer that lingers a window per group.
//!
//! The gates are counters and ratios from `STATS` (`group_commits`, `group_txns`,
//! `group_wait_us`), or wall-clock bounds far above the expected value. The tests
//! run one at a time: two closed-loop clients, the reactor and the writer already
//! fill a small host.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use factorlog::prelude::*;

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "factorlog_group_formation_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A durable TC engine (only durable commits count in `group_commits`).
fn durable_engine(dir: &Path) -> Engine {
    let mut engine = Engine::open_durable(dir).expect("durable open");
    engine.load_source(TC).expect("program loads");
    engine
}

/// `count` closed-loop transactions, each asserting one edge of the client's own.
fn commit_edges(client: &mut Client, who: i64, from: i64, count: i64) {
    for i in from..from + count {
        let spec = format!("+e({}, {})", 1_000_000 * who + i, 1_000_000 * who + i + 1);
        client.txn(&spec).expect("txn commits");
    }
}

/// (a) A lone closed-loop client never pays the window: nobody else was in flight.
#[test]
fn a_lone_writer_never_lingers() {
    let _serial = serial();
    let mut engine = Engine::new();
    engine.load_source(TC).expect("program loads");
    let options = ServerOptions {
        group_window: Duration::from_millis(200),
        ..ServerOptions::default()
    };
    let handle = serve(engine, "127.0.0.1:0", options).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connects");
    let start = Instant::now();
    commit_edges(&mut client, 1, 0, 20);
    let took = start.elapsed();
    // A window per commit would be 4 s; the commits themselves are milliseconds.
    assert!(
        took < Duration::from_secs(1),
        "20 lone commits took {took:?}"
    );
    assert_eq!(client.stats().expect("stats").group_wait_us, 0);
    assert_eq!(handle.shutdown().epoch, 20);
}

/// (b) Two closed-loop clients share (nearly) every fsync, and the writer waits
/// only for the second one's turnaround — far below a window per group.
#[test]
fn two_closed_loop_writers_share_groups_without_the_timer_tail() {
    let _serial = serial();
    let dir = fresh_dir("pair");
    let options = ServerOptions::default();
    let window_us = options.group_window.as_micros() as u64;
    let handle = serve(durable_engine(&dir), "127.0.0.1:0", options).expect("serve");
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for who in 1..=2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                commit_edges(&mut client, who, 0, 200);
            });
        }
    });
    let stats = Client::connect(addr).expect("connects").stats().unwrap();
    assert_eq!(stats.group_txns, 400);
    assert!(
        stats.txns_per_fsync >= 1.8,
        "two writers in flight must share fsyncs without a timer: {stats:?}"
    );
    let wait_per_txn = stats.group_wait_us / stats.group_txns;
    assert!(
        wait_per_txn < window_us / 4,
        "the writer waited {wait_per_txn} us per transaction for joiners \
         (a window per group would be {} us): {stats:?}",
        window_us / 2
    );
    drop(handle.shutdown());
    std::fs::remove_dir_all(&dir).ok();
}

/// (c) A second client that starts while the first is mid-stream — so one of them
/// commits alone while the other queues behind it — converges to shared groups.
#[test]
fn writers_out_of_phase_converge_to_shared_groups() {
    let _serial = serial();
    let dir = fresh_dir("phase");
    let handle = serve(
        durable_engine(&dir),
        "127.0.0.1:0",
        ServerOptions::default(),
    )
    .expect("serve");
    let addr = handle.addr();
    let (go, started) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            commit_edges(&mut client, 1, 0, 20);
            go.send(()).expect("second client waits");
            commit_edges(&mut client, 1, 20, 200);
        });
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            started.recv().expect("first client signals");
            commit_edges(&mut client, 2, 0, 200);
        });
    });
    let stats = Client::connect(addr).expect("connects").stats().unwrap();
    assert_eq!(stats.group_txns, 420);
    // 20 alone, then 400 in about 200 groups: ≈ 0.53. Never converging would be 1.0.
    assert!(
        (stats.group_commits as f64) < 0.7 * stats.group_txns as f64,
        "anti-phased writers must end up sharing groups: {stats:?}"
    );
    drop(handle.shutdown());
    std::fs::remove_dir_all(&dir).ok();
}

/// (d) A submitter that went away costs the survivor at most one window, once:
/// the expected group size decays to who is really there.
#[test]
fn a_departed_writer_costs_the_survivor_one_window_once() {
    let _serial = serial();
    let mut engine = Engine::new();
    engine.load_source(TC).expect("program loads");
    let window = Duration::from_millis(100);
    let options = ServerOptions {
        group_window: window,
        ..ServerOptions::default()
    };
    let handle = serve(engine, "127.0.0.1:0", options).expect("serve");
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for who in 1..=2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                commit_edges(&mut client, who, 0, 30);
            });
        }
    });
    // Both are gone; a survivor carries on alone.
    let mut survivor = Client::connect(addr).expect("connects");
    let before = survivor.stats().expect("stats").group_wait_us;
    commit_edges(&mut survivor, 3, 0, 20);
    let waited = survivor.stats().expect("stats").group_wait_us - before;
    // One window at most (a window per commit would be twenty of them).
    assert!(
        waited < 2 * window.as_micros() as u64,
        "the survivor's 20 commits waited {waited} us for a writer that left"
    );
    assert_eq!(handle.shutdown().epoch, 80);
}
