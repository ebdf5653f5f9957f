//! `serve_write` — durable transactions on a *small* model.
//!
//! Right-linear transitive closure over 128 components (about 5 k derived
//! facts), served durably (fsync on, 1 MiB compaction threshold). Two
//! closed-loop connections each commit their own fixed list of `TXN` specs that
//! assert 4 new edges and retract the 4 oldest extra edges in their own
//! components: the model keeps its size, the two streams commute, and the
//! final EDB is known in advance. The run is cut into segments, each on a
//! fresh set-up, because a server's log has to stay below the compaction
//! threshold (README, "Findings"); after a segment's server stops, its
//! directory is recovered and compared with that EDB. In the traced run,
//! restart cycles then recover the directory again and answer a first query.
//!
//! Why it exists: protocol + writer queue + group commit + `wal` append and
//! fsync dominate; the clone-on-publish and incremental maintenance are small
//! here, so this is where a WAL or group-commit change shows and a publish or
//! maintenance change does not. Its keys fit the reply cache, which the
//! post-run verification reads exercise.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use factorlog_datalog::ast::Const;
use factorlog_datalog::Symbol;
use factorlog_engine::wal::{read_log, WalOp, WalRecord, WalWriter};
use factorlog_engine::{DurabilityOptions, Engine, Replica, ReplicationOptions, ServerMetrics};

use super::serving::{
    apply, commit, data_dir, group_commit_counters, percentiles_us, place_threads,
    replay_maintenance, restart_cycles, set_server_metrics, verify_recovery, verify_served,
    FinalState, Model, Served,
};
use super::{trace_overhead_pct, RunConfig, SetupTimer};
use crate::gen::TxnStream;
use crate::metrics::Outcome;
use crate::timing::{median, slice_means, summarize, timed, Better, SLICES};
use crate::trace::Tracer;
use crate::wire::Wire;

/// Closed-loop writer connections (= `nproc` on the reference host).
const CONNECTIONS: usize = 2;
/// Components; each connection owns half.
const COMPONENTS: usize = 128;
/// Transactions per connection per batch (about 100 ms).
const TXNS_PER_BATCH: usize = 20;
/// Measured batches at the default `--seconds`, over all segments (about 15 s).
const BATCHES: usize = 144;
/// Discarded batches at the start of every segment (about 1.2 s): each starts
/// on a fresh server.
const WARMUP_BATCHES: usize = 12;
/// Batches a segment may hold, warm-up included: 4160 transactions, 0.98 MB of
/// log. A server stays below the 1 MiB compaction threshold, because a group
/// commit that crosses it loses the group's later transactions on recovery
/// (README, "Findings").
const SEGMENT_BATCHES: usize = 104;
/// Complete set-ups per `setup_s` sample (about a second; one takes 11 ms).
const SETUPS_PER_SAMPLE: usize = 80;
/// Restart cycles of the traced run at the default `--seconds` (about 350 ms
/// each: the traced run's 3120 logged transactions are replayed).
const RESTARTS: usize = 20;

/// What one writer connection measured in one segment.
struct WriterLog {
    /// `(start, end)` of every batch.
    batches: Vec<(Instant, Instant)>,
    /// Seconds per transaction, measured batches only.
    latencies: Vec<f64>,
    failed: u64,
    tracer: Tracer,
}

impl WriterLog {
    /// Seconds per transaction of measured batch `batch`.
    fn measured_batch(&self, batch: usize) -> &[f64] {
        &self.latencies[batch * TXNS_PER_BATCH..][..TXNS_PER_BATCH]
    }
}

/// What one segment — a set-up and its transactions — left behind, beside its
/// data directory.
struct Segment {
    model: Model,
    streams: Vec<TxnStream>,
    final_state: FinalState,
    /// `(group_commits, group_txns)` before and after the transactions.
    group_counters: [(f64, f64); 2],
    server_metrics: [ServerMetrics; 2],
    shed: u64,
    wal_bytes: u64,
    /// The traced run's follower: frames per second, `sync_once` calls.
    replication: Option<(f64, f64)>,
    load_seconds: f64,
    serve_seconds: f64,
}

/// Commit every transaction of `served`'s streams in `warmup + batches`
/// lockstep batches, check the served model against the final state, stop the
/// server and check what its directory recovers to.
fn segment(
    served: Served,
    (warmup, batches): (usize, usize),
    config: &RunConfig,
    clock: &Tracer,
    outcome: &mut Outcome,
) -> (Vec<WriterLog>, Segment) {
    let Served {
        model,
        streams,
        handle,
        dir,
        final_state,
        load_seconds,
        serve_seconds,
    } = served;
    let dir = dir.expect("the set-up is durable");
    let final_state = final_state.expect("the run commits every transaction");
    let addr = handle.addr();
    let mut control = Wire::connect(addr).expect("control connection");
    let counters_before = group_commit_counters(&mut control);
    let metrics_before = handle.server_metrics();

    // The two writers run their batches in lockstep (a barrier before each),
    // so their slices coincide and a slice's throughput is the sum of both
    // connections' rates over it.
    let barrier = Barrier::new(CONNECTIONS);
    let logs: Vec<WriterLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let barrier = &barrier;
                let trace = config.trace;
                scope.spawn(move || {
                    let mut wire = Wire::connect(addr).expect("writer connects");
                    let mut log = WriterLog {
                        batches: Vec::new(),
                        latencies: Vec::new(),
                        failed: 0,
                        tracer: clock.sharing_clock(),
                    };
                    for batch in 0..warmup + batches {
                        let measured = batch >= warmup;
                        log.tracer.enabled = trace && measured && (batch - warmup) % 2 == 1;
                        barrier.wait();
                        let start = Instant::now();
                        for k in 0..TXNS_PER_BATCH {
                            let index = batch * TXNS_PER_BATCH + k;
                            let request = (index * CONNECTIONS + c) as u64;
                            let span = log.tracer.begin("client.txn", None, request);
                            let sent = Instant::now();
                            if !commit(&mut wire, &stream.specs[index]) {
                                log.failed += 1;
                            }
                            if measured {
                                log.latencies.push(sent.elapsed().as_secs_f64());
                            }
                            log.tracer.end(span);
                        }
                        log.batches.push((start, Instant::now()));
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("writer thread"))
            .collect()
    });
    let metrics_after = handle.server_metrics();
    let failed = logs.iter().map(|l| l.failed).sum::<u64>();
    outcome.attempted += ((warmup + batches) * TXNS_PER_BATCH * CONNECTIONS) as u64;
    outcome.failed += failed;
    outcome.check(
        failed == 0,
        format!("{failed} transactions were refused or acknowledged with wrong counts"),
    );

    // Correctness: the served model and the recovered store both equal a
    // from-scratch evaluation of the final EDB.
    let keys: Vec<i64> = model.components.iter().map(|c| c.root).collect();
    verify_served(addr, &final_state.expected, &keys, outcome);
    let counters_after = group_commit_counters(&mut control);
    drop(control);
    let replication = config
        .trace
        .then(|| replica_catch_up(&config.out_dir, &handle));
    let report = handle.shutdown();
    let shed = report.shed;
    outcome.check(shed == 0, format!("{shed} requests were shed"));
    let wal_bytes = report.engine.wal_len().unwrap_or(0);
    drop(report);
    drop(verify_recovery(
        &dir,
        &final_state.edges,
        &final_state.expected,
        &keys[..8],
        outcome,
    ));
    let left = Segment {
        model,
        streams,
        final_state,
        group_counters: [counters_before, counters_after],
        server_metrics: [metrics_before, metrics_after],
        shed,
        wal_bytes,
        replication,
        load_seconds,
        serve_seconds,
    };
    (logs, left)
}

/// Run the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::new();
    // Client and server take turns here, so one CPU serves both.
    place_threads(&mut outcome);
    let (warmup, batches) = config.batches(WARMUP_BATCHES, BATCHES);
    // The warm-up is per segment: it does not grow with `--seconds`.
    let warmup = warmup.min(WARMUP_BATCHES);
    let segments = batches.div_ceil(SEGMENT_BATCHES - warmup);
    let batches = batches.div_ceil(segments);
    let txns = (warmup + batches) * TXNS_PER_BATCH;
    let shapes = vec![(8, 0); COMPONENTS];
    let dir = data_dir(&config.out_dir, "serve_write");

    let set_up = || {
        Served::set_up(
            &shapes,
            CONNECTIONS,
            COMPONENTS,
            txns,
            true,
            config.seed,
            Some(&dir),
        )
    };
    let (mut setup, served) =
        SetupTimer::before(config, SETUPS_PER_SAMPLE, set_up, Served::discard);
    let clock = Tracer::new(false);
    let mut served = Some(served);
    let mut segment_logs: Vec<Vec<WriterLog>> = Vec::new();
    let mut last = None;
    for _ in 0..segments {
        // Every segment but the first sets up again (one more `setup_s`
        // sample), once the previous one's directory is gone.
        if last.take().is_some() {
            std::fs::remove_dir_all(&dir).ok();
        }
        let served = served.take().unwrap_or_else(|| setup.another());
        let (logs, left) = segment(served, (warmup, batches), config, &clock, &mut outcome);
        segment_logs.push(logs);
        last = Some(left);
    }
    let last = last.expect("at least one segment");

    // Per slice of a batch: the rate over both connections, and each
    // connection's time per transaction.
    let mut rates = Vec::new();
    let mut time_per_txn = Vec::new();
    let mut measured_seconds = 0.0;
    let per_slice = TXNS_PER_BATCH / SLICES;
    for logs in &segment_logs {
        for batch in 0..batches {
            let rate_in = |slice: usize| -> f64 {
                let rate_of = |log: &WriterLog| {
                    let seconds = &log.measured_batch(batch)[slice * per_slice..][..per_slice];
                    per_slice as f64 / seconds.iter().sum::<f64>()
                };
                logs.iter().map(rate_of).sum()
            };
            rates.extend((0..SLICES).map(rate_in));
            for log in logs {
                time_per_txn.extend(slice_means(log.measured_batch(batch)));
            }
            let (start, end) = logs
                .iter()
                .map(|log| log.batches[warmup + batch])
                .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
                .expect("a writer");
            measured_seconds += (end - start).as_secs_f64();
        }
    }
    let txn_rate = summarize(&rates, Better::Higher);
    let txn_us = summarize(&time_per_txn, Better::Lower);
    let all_latencies: Vec<f64> = segment_logs
        .iter()
        .flatten()
        .flat_map(|l| l.latencies.iter().copied())
        .collect();
    let (p50_us, p99_us) = percentiles_us(&all_latencies);
    let stall_ms = all_latencies.iter().copied().fold(0.0, f64::max) * 1e3;
    let rate_overall =
        (segments * batches * TXNS_PER_BATCH * CONNECTIONS) as f64 / measured_seconds;
    outcome.note(format!(
        "serve_write: {} facts in the model, {CONNECTIONS} connections x {segments} segments x {batches} batches x {TXNS_PER_BATCH} txns after {warmup} warm-up batches each",
        last.model.oracle.total_facts()
    ));
    outcome.note(format!(
        "  txn_per_s: best 5 % {:.1} (p95 {:.1})  median {:.1}  p10 {:.1}  overall {rate_overall:.1}",
        txn_rate.best, txn_rate.edge, txn_rate.median, txn_rate.worst
    ));
    outcome.note(format!(
        "  txn latency, us per txn: best 5 % {:.1} (p5 {:.1})  median {:.1}  p90 {:.1}; per-request p50 {p50_us:.1} p99 {p99_us:.1} max {:.1}",
        txn_us.best * 1e6,
        txn_us.edge * 1e6,
        txn_us.median * 1e6,
        txn_us.worst * 1e6,
        stall_ms * 1e3
    ));

    if !config.trace {
        drop(last);
        std::fs::remove_dir_all(&dir).ok();
        setup.finish(&mut outcome, txn_us.best * 1e6, txn_rate.best);
        return outcome;
    }

    let Segment {
        model,
        streams,
        final_state,
        group_counters: [counters_before, counters_after],
        server_metrics: [metrics_before, metrics_after],
        shed,
        wal_bytes,
        replication,
        load_seconds,
        serve_seconds,
    } = last;

    // Restart: recover the directory the segment left — replay its log —
    // first answer.
    let mut tracer = clock.sharing_clock();
    tracer.enabled = true;
    let key = model.components[0].root;
    let restarts = restart_cycles(
        config.batches(0, RESTARTS).1,
        || Engine::open_durable(&dir).expect("data directory recovers"),
        ("durability.recover", "durability.first_query"),
        key,
        final_state.expected[&key],
        &mut tracer,
        &mut outcome,
    );

    let group_commits = counters_after.0 - counters_before.0;
    let group_txns = counters_after.1 - counters_before.1;
    outcome.set("server.group_commits", group_commits);
    outcome.set("server.txns_per_fsync", group_txns / group_commits.max(1.0));
    set_server_metrics(
        &mut outcome,
        metrics_before,
        metrics_after,
        (txns * CONNECTIONS) as u64,
        0,
    );
    outcome.set("server.shed", shed as f64);
    outcome.set("client.txn_p50_us", p50_us);
    outcome.set("client.txn_p99_us", p99_us);
    outcome.set("client.txn_stall_max_ms", stall_ms);
    outcome.set("client.txn_per_s_overall", rate_overall);
    outcome.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&rates, SLICES, Better::Higher),
    );
    outcome.set("engine.load_ms", load_seconds * 1e3);
    outcome.set("engine.materialize_ms", serve_seconds * 1e3);
    outcome.set("durability.recover_ms", median(&restarts.open) * 1e3);
    outcome.set(
        "durability.first_query_ms",
        median(&restarts.first_query) * 1e3,
    );
    if let Some((frames_per_s, sync_batches)) = replication {
        outcome.set("replication.catchup_frames_per_s", frames_per_s);
        outcome.set("replication.sync_batches", sync_batches);
    }

    for log in segment_logs.into_iter().flatten() {
        tracer.adopt(log.tracer);
    }
    let replay = &streams[0].ops[..streams[0].ops.len().min(400)];
    let maintained_seconds = replay_maintenance(&model, replay, &mut tracer, &mut outcome);
    let durable_seconds = durable_commits(&config.out_dir, &model, &streams[0], &mut outcome);
    // What the wire adds to a commit: the client's time per transaction minus
    // an in-process durable commit and the maintenance that follows it.
    outcome.set(
        "server.wire_txn_overhead_us",
        (txn_us.best - durable_seconds - maintained_seconds) * 1e6,
    );
    wal_probe(&config.out_dir, &streams[0], &mut tracer, &mut outcome);
    outcome.note(format!("  wal.log bytes at shutdown: {wal_bytes}"));
    std::fs::remove_dir_all(&dir).ok();
    super::finish_trace(&tracer, config, "serve_write", &mut outcome);
    outcome
}

/// A fresh follower catching up on the leader's log after the run: frames
/// applied per second and `sync_once` calls it took.
fn replica_catch_up(out_dir: &Path, handle: &factorlog_engine::ServerHandle) -> (f64, f64) {
    let dir = data_dir(out_dir, "serve_write-follower");
    let engine = Engine::open_durable_with(&dir, DurabilityOptions::default())
        .expect("follower directory opens");
    let options = ReplicationOptions {
        poll_interval: Duration::from_millis(1),
        ..ReplicationOptions::default()
    };
    let mut follower = Replica::from_engine(engine, handle.addr().to_string(), options)
        .expect("replica wraps the engine");
    let start = Instant::now();
    let mut sync_batches = 0u32;
    loop {
        let report = follower.sync_once().expect("follower syncs");
        sync_batches += 1;
        if report.contacted && follower.lag_frames() == 0 || sync_batches >= 1_000 {
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let frames = follower.applied_seq();
    drop(follower);
    std::fs::remove_dir_all(&dir).ok();
    (frames as f64 / seconds, f64::from(sync_batches))
}

/// Mean seconds of one in-process durable commit (validate, WAL append, fsync,
/// apply) of the stream's transactions, no maintenance and no wire.
fn durable_commits(
    out_dir: &Path,
    model: &Model,
    stream: &TxnStream,
    outcome: &mut Outcome,
) -> f64 {
    let dir = data_dir(out_dir, "serve_write-inprocess");
    let mut engine = Engine::open_durable_with(&dir, DurabilityOptions::default())
        .expect("scratch directory opens");
    engine.load_source(&model.source).expect("source loads");
    let ops = &stream.ops[..stream.ops.len().min(200)];
    let (seconds, ()) = timed(|| {
        for txn in ops {
            apply(&mut engine, &txn.asserts, &txn.retracts);
        }
    });
    // Compaction: the explicit form of what a commit past the threshold does.
    let facts = engine.facts().total_facts();
    let (compact_seconds, report) = timed(|| engine.compact().expect("compaction succeeds"));
    outcome.set("durability.compact_ms", compact_seconds * 1e3);
    outcome.set(
        "durability.compactions",
        engine.stats().wal_compactions as f64,
    );
    let snapshot_bytes = std::fs::metadata(dir.join(factorlog_engine::SNAPSHOT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    outcome.set(
        "durability.snapshot_bytes_per_fact",
        snapshot_bytes as f64 / facts.max(1) as f64,
    );
    outcome.note(format!(
        "  in-process durable commit {:.1} us; compaction of {facts} facts {:.2} ms (log {} -> {} bytes)",
        seconds * 1e6 / ops.len() as f64,
        compact_seconds * 1e3,
        report.log_bytes_before,
        report.log_bytes_after
    ));
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    seconds / ops.len() as f64
}

/// The WAL alone, on a scratch file: append without fsync, fsync, bytes per
/// transaction, and scan speed.
fn wal_probe(out_dir: &Path, stream: &TxnStream, tracer: &mut Tracer, outcome: &mut Outcome) {
    let path = out_dir.join("serve_write-wal.log");
    let edge = Symbol::intern("e");
    let records: Vec<WalRecord> = stream
        .ops
        .iter()
        .enumerate()
        .map(|(i, txn)| {
            let op = |kind: WalOp, edges: &[(i64, i64)]| -> Vec<(WalOp, Symbol, Vec<Const>)> {
                edges
                    .iter()
                    .map(|&(from, to)| (kind, edge, vec![Const::Int(from), Const::Int(to)]))
                    .collect()
            };
            let mut ops = op(WalOp::Assert, &txn.asserts);
            ops.extend(op(WalOp::Retract, &txn.retracts));
            WalRecord::Txn {
                seq: i as u64 + 1,
                ops,
            }
        })
        .collect();

    let mut writer = WalWriter::create(&path, false).expect("scratch log opens");
    let header = writer.len();
    let (seconds, ()) = timed(|| {
        for record in &records {
            writer.append(record).expect("append");
        }
    });
    outcome.set("wal.append_ns", seconds * 1e9 / records.len() as f64);
    outcome.set(
        "wal.bytes_per_txn",
        (writer.len() - header) as f64 / records.len() as f64,
    );
    drop(writer);
    let (seconds, scan) = timed(|| read_log(&path).expect("scratch log scans"));
    outcome.check(
        scan.records.len() == records.len(),
        "the scratch log lost records",
    );
    outcome.set("wal.read_frames_per_s", records.len() as f64 / seconds);

    let mut writer = WalWriter::create(&path, true).expect("scratch log opens");
    let synced = &records[..records.len().min(200)];
    let mut fsync_ns = Vec::new();
    for (i, record) in synced.iter().enumerate() {
        let span = tracer.begin("wal.append_fsync", None, i as u64);
        writer.append(record).expect("append");
        tracer.end(span);
        fsync_ns.extend(writer.last_fsync_ns().map(|ns| ns as f64));
    }
    outcome.set("wal.fsync_us", median(&fsync_ns) / 1e3);
    drop(writer);
    std::fs::remove_file(&path).ok();
}
