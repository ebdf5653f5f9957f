//! Line-protocol robustness harness for the event-driven front end: requests
//! arriving split at ARBITRARY byte boundaries (with stalls between chunks)
//! and requests arriving back-to-back in one packet must both produce exactly
//! the replies the same requests produce when sent one at a time — same bytes,
//! same order.
//!
//! This pins the two failure modes a readiness-loop front end can regress
//! into: truncating a request whose bytes straddle a readiness event (the bug
//! this PR's first commit fixed in the old polling loop), and reordering or
//! dropping replies when several complete requests are drained from one read.
//!
//! Also here: the `STATS` reply's wire contract (every declared field round-trips,
//! unknown pairs are skipped, a missing one is an error that names it), and the
//! reactor's scalability contract — hundreds of idle connections cost pollfd
//! entries, not threads.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use factorlog::datalog::eval::Reading;
use factorlog::prelude::*;
use proptest::prelude::*;

const TC: &str = "t(X, Y) :- e(X, Y).\nt(X, Y) :- e(X, W), t(W, Y).";

fn tc_engine(edges: i64) -> Engine {
    let mut engine = Engine::new();
    engine.load_source(TC).expect("program loads");
    for i in 0..edges {
        engine
            .insert("e", &[Const::Int(i), Const::Int(i + 1)])
            .expect("edge inserts");
    }
    engine
}

fn server_opts() -> ServerOptions {
    ServerOptions {
        group_window: Duration::from_millis(2),
        drain_timeout: Duration::from_secs(3),
        ..ServerOptions::default()
    }
}

/// The request pool the generators draw from. All are read-only or invalid,
/// so replies are deterministic for a fixed database (epoch never moves).
const REQUESTS: &[&str] = &[
    "PING",
    "EPOCH",
    "QUERY t(0, Y)",
    "QUERY t(2, Y)",
    "QUERY t(9, Y)",
    "QUERY e(X, Y)",
    "QUERY t(0, Y",  // parse error: structured ERR, connection survives
    "FROBNICATE 12", // unknown verb: structured ERR, connection survives
    "STATS",
];

/// Does this reply line end a request's reply (vs. being a streamed row)?
fn is_verdict(line: &str) -> bool {
    line.starts_with("OK") || line.starts_with("ERR")
}

/// Send `request` alone and collect its full reply (one verdict line, any
/// `ROW` lines before it).
fn reply_of(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> Vec<String> {
    writeln!(stream, "{request}").expect("request writes");
    stream.flush().expect("request flushes");
    read_one_reply(reader)
}

fn read_one_reply(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("reply line reads");
        assert!(n > 0, "server closed the connection mid-reply");
        let line = line.trim_end().to_string();
        let done = is_verdict(&line);
        lines.push(line);
        if done {
            return lines;
        }
    }
}

/// `STATS` replies contain live counters (in-flight, wakeups) that legally
/// differ between two observations; normalize them down to their shape.
fn normalized(lines: Vec<String>) -> Vec<String> {
    lines
        .into_iter()
        .map(|line| {
            if line.starts_with("OK epoch=") && line.contains("reactor_wakeups=") {
                line.split_whitespace()
                    .map(|field| field.split('=').next().unwrap_or(field))
                    .collect::<Vec<_>>()
                    .join(" ")
            } else {
                line
            }
        })
        .collect()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Packetization invariance: a request stream cut at arbitrary byte
    /// boundaries — including mid-verb, mid-atom, and right before a
    /// newline, with stalls between chunks — produces byte-identical,
    /// in-order replies to the same requests sent whole, one at a time.
    #[test]
    fn arbitrary_byte_splits_never_change_the_replies(
        picks in proptest::collection::vec(0usize..REQUESTS.len(), 2..12),
        cuts in proptest::collection::vec(1usize..200, 0..6),
        stall_every in 1usize..4,
    ) {
        let handle = serve(tc_engine(10), "127.0.0.1:0", server_opts()).expect("serve");
        let addr = handle.addr();

        // Reference: each request alone on its own flush, replies collected.
        let (mut ref_stream, mut ref_reader) = connect(addr);
        let expected: Vec<Vec<String>> = picks
            .iter()
            .map(|&i| normalized(reply_of(&mut ref_stream, &mut ref_reader, REQUESTS[i])))
            .collect();

        // Candidate: the same requests as ONE byte stream, cut at the
        // generated offsets, with stalls after every `stall_every`-th chunk
        // so cuts land on separate reactor reads, not one socket buffer.
        let mut bytes = Vec::new();
        for &i in &picks {
            bytes.extend_from_slice(REQUESTS[i].as_bytes());
            bytes.push(b'\n');
        }
        let mut offsets: Vec<usize> = cuts
            .iter()
            .map(|&c| c % bytes.len().max(1))
            .filter(|&c| c > 0 && c < bytes.len())
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets.push(bytes.len());

        let (mut stream, mut reader) = connect(addr);
        let mut start = 0usize;
        for (chunk_idx, &end) in offsets.iter().enumerate() {
            stream.write_all(&bytes[start..end]).expect("chunk writes");
            stream.flush().expect("chunk flushes");
            start = end;
            if chunk_idx % stall_every == 0 && end < bytes.len() {
                std::thread::sleep(Duration::from_millis(15));
            }
        }
        let got: Vec<Vec<String>> = picks
            .iter()
            .map(|_| normalized(read_one_reply(&mut reader)))
            .collect();

        prop_assert_eq!(&got, &expected, "split stream diverged from whole requests");
        handle.shutdown();
    }
}

/// Back-to-back pipelining with a write in the middle: the reply order must
/// match the request order even though the `TXN` detours through the
/// group-commit pipeline while the queries are answered inline. The reactor
/// must pause draining behind the in-flight transaction, not run the later
/// queries early (they must see the committed write).
#[test]
fn pipelined_txn_then_query_replies_in_request_order() {
    let handle = serve(tc_engine(3), "127.0.0.1:0", server_opts()).expect("serve");
    let (mut stream, mut reader) = connect(handle.addr());
    stream
        .write_all(b"QUERY e(90, Y)\nTXN +e(90, 91)\nQUERY e(90, Y)\nPING\n")
        .expect("pipelined batch writes");
    stream.flush().expect("flushes");

    let before = read_one_reply(&mut reader);
    assert_eq!(
        before,
        vec!["OK rows=0 epoch=0"],
        "pre-txn query runs first"
    );
    let txn = read_one_reply(&mut reader);
    assert_eq!(txn, vec!["OK asserted=1 retracted=0 epoch=1"]);
    let after = read_one_reply(&mut reader);
    assert_eq!(
        after,
        vec!["ROW 91", "OK rows=1 epoch=1"],
        "post-txn query must observe the commit it queued behind"
    );
    assert_eq!(read_one_reply(&mut reader), vec!["OK pong"]);
    let report = handle.shutdown();
    assert!(report.drained_cleanly);
    assert!(
        report.server_metrics.pipelined_requests >= 4,
        "all four requests counted as pipelined work: {:?}",
        report.server_metrics
    );
}

/// A >1 MiB burst of small pipelined requests is load, not a protocol
/// violation: every request must be answered, with backpressure while the
/// backlog drains — never a "line limit" close. The leading TXN (plus a wide
/// group window) pauses draining behind the commit pipeline, forcing the
/// backlog to genuinely accumulate past the cap in the connection's buffer.
#[test]
fn megabyte_of_pipelined_requests_is_backpressured_not_killed() {
    let opts = ServerOptions {
        group_window: Duration::from_millis(150),
        drain_timeout: Duration::from_secs(5),
        ..ServerOptions::default()
    };
    let handle = serve(tc_engine(3), "127.0.0.1:0", opts).expect("serve");
    let (mut stream, mut reader) = connect(handle.addr());

    const PINGS: usize = 250_000; // "PING\n" is 5 bytes: 1.25 MiB, past the 1 MiB line cap
    let mut bytes = Vec::with_capacity(PINGS * 5 + 32);
    bytes.extend_from_slice(b"TXN +e(700, 701)\n");
    for _ in 0..PINGS {
        bytes.extend_from_slice(b"PING\n");
    }
    stream.write_all(&bytes).expect("burst writes");
    stream.flush().expect("burst flushes");

    assert_eq!(
        read_one_reply(&mut reader),
        vec!["OK asserted=1 retracted=0 epoch=1"]
    );
    for i in 0..PINGS {
        let reply = read_one_reply(&mut reader);
        assert_eq!(
            reply,
            vec!["OK pong"],
            "ping {i} of {PINGS} lost or mangled"
        );
    }
    handle.shutdown();
}

/// The per-LINE cap still holds: a single request line longer than 1 MiB is
/// a protocol violation answered with a structured parse error and a close.
#[test]
fn oversized_single_line_still_closes_the_connection() {
    let handle = serve(tc_engine(3), "127.0.0.1:0", server_opts()).expect("serve");
    let (mut stream, mut reader) = connect(handle.addr());
    // One byte past the cap, no terminator: the server consumes every byte
    // before deciding, so the error reply is delivered before the close.
    let line = vec![b'x'; (1 << 20) + 1];
    stream.write_all(&line).expect("oversized line writes");
    stream.flush().expect("flushes");

    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error line reads");
    assert!(
        reply.starts_with("ERR parse"),
        "oversized line must get a structured parse error, got {reply:?}"
    );
    let mut rest = String::new();
    let n = reader.read_line(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed after the violation");
    handle.shutdown();
}

/// What `Client::stats` makes of `reply`, served by a one-shot fake server.
fn stats_from(reply: &str) -> Result<StatsReply, ClientError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply = reply.to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut request)
            .unwrap();
        assert_eq!(request.trim_end(), "STATS");
        writeln!(stream, "{reply}").unwrap();
    });
    let stats = Client::connect(addr).unwrap().stats();
    server.join().unwrap();
    stats
}

#[test]
fn client_stats_reads_the_previous_format_and_never_invents_a_role() {
    // The line PR 20's server sent, key for key.
    let line = "OK epoch=8 in_flight=1 shed=0 group_commits=3 group_txns=7 \
                txns_per_fsync=2.33 role=follower term=4 repl_followers=0 repl_lag_frames=2 \
                repl_lag_ms=15 reactor_wakeups=90 pipelined_batches=40 pipelined_requests=70 \
                max_batch_depth=5 prepared_execs=6 reply_cache_hits=11 group_wait_us=9 \
                pace_wait_us=1";
    let stats = stats_from(line).expect("the previous format parses");
    assert_eq!(stats.role, ReplicaRole::Follower);
    assert_eq!((stats.epoch, stats.in_flight, stats.term), (8, 1, 4));
    assert_eq!(stats.txns_per_fsync, 2.33);
    assert_eq!((stats.reactor_wakeups, stats.pace_wait_us), (90, 1));
    assert_eq!(format!("OK {}", stats.to_wire()), line);

    // A follower's reply without a readable role must not read as a leader's.
    for broken in [
        line.replace("role=follower ", ""),
        line.replace("role=follower", "role=primary"),
    ] {
        match stats_from(&broken) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("`role=`"), "{message}")
            }
            other => panic!("expected a protocol error naming `role=`, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_reply_round_trips_on_the_wire(
        values in proptest::collection::vec(
            0u64..1 << 40,
            StatsReply::INSTRUMENTS.len()..StatsReply::INSTRUMENTS.len() + 1,
        ),
        role in 0usize..3,
        cut in 0usize..StatsReply::INSTRUMENTS.len(),
    ) {
        // One pair per declared instrument, in the shape its reading has.
        let role = [ReplicaRole::Leader, ReplicaRole::Follower, ReplicaRole::Fenced][role];
        let shapes = StatsReply::default();
        let pairs: Vec<String> = shapes
            .readings()
            .zip(&values)
            .map(|((instrument, shape), value)| match shape {
                Reading::Ratio(_) => format!("{}={:.2}", instrument.name, *value as f64 / 100.0),
                Reading::Name(_) => format!("{}={role}", instrument.name),
                _ => format!("{}={value}", instrument.name),
            })
            .collect();
        let line = pairs.join(" ");
        let reply = StatsReply::from_wire(&line).expect("every declared key is present");
        prop_assert_eq!(reply.to_wire(), line);
        prop_assert_eq!(StatsReply::from_wire(&reply.to_wire()), Ok(reply));

        // A newer server's extra pair is skipped...
        let mut newer = pairs.clone();
        newer.insert(cut, "from_a_newer_server=7".to_string());
        prop_assert_eq!(StatsReply::from_wire(&newer.join(" ")), Ok(reply));
        // ...and a missing declared key is an error that names it.
        let mut short = pairs;
        short.remove(cut);
        prop_assert_eq!(
            StatsReply::from_wire(&short.join(" ")),
            Err(StatsReply::INSTRUMENTS[cut].name)
        );
    }
}

/// The reactor's scalability contract: hundreds of connections are pollfd
/// entries in ONE thread, not a thread each. 256+ idle connections must leave
/// the process thread count untouched and the server responsive.
#[test]
fn idle_connections_cost_no_threads() {
    let handle = serve(tc_engine(3), "127.0.0.1:0", server_opts()).expect("serve");
    let addr = handle.addr();
    let threads_before = process_threads();

    let mut idle = Vec::new();
    for i in 0..260 {
        match TcpStream::connect(addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => panic!("connection {i} refused: {e}"),
        }
    }
    // Every connection is live, not just accepted: probe a sample end to end.
    for stream in idle.iter_mut().step_by(64) {
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        writeln!(stream, "PING").expect("ping writes");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("pong reads");
        assert_eq!(line.trim_end(), "OK pong");
    }
    // A fresh client still gets in and out while the 260 sit idle.
    let mut client = Client::connect(addr).expect("fresh client connects");
    assert_eq!(client.query("t(0, Y)").expect("query").rows.len(), 3);

    if let (Some(before), Some(during)) = (threads_before, process_threads()) {
        assert!(
            during <= before + 2,
            "{} idle connections grew the thread count {before} -> {during}: \
             the front end is spawning per connection again",
            idle.len()
        );
    }
    drop(idle);
    let report = handle.shutdown();
    assert!(report.drained_cleanly);
}

/// Thread count of this process from `/proc/self/status` (Linux only; `None`
/// elsewhere, which skips the thread-growth assertion but not the smoke).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}
